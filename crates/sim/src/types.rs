//! Small shared types: cycles, warp identifiers, and the register-bank
//! arbiter helper reused by every register-file organization.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A simulation time stamp, in core clock cycles.
pub type Cycle = u64;

/// Identifier of a warp resident on the simulated SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WarpId(pub u32);

impl WarpId {
    /// Returns the warp index as a `usize`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Tracks per-bank busy times and serialises conflicting accesses.
///
/// Register-file banks have a single read/write port in the modelled designs;
/// two accesses mapped to the same bank in the same cycle therefore serialise.
/// Every register-file organization (baseline, RFC, LTRF, ...) shares this
/// bank-conflict behaviour, so the arbiter lives here rather than in
/// `ltrf-core`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankArbiter {
    next_free: Vec<Cycle>,
    access_latency: Cycle,
}

impl BankArbiter {
    /// Creates an arbiter over `banks` banks whose accesses take
    /// `access_latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    #[must_use]
    pub fn new(banks: usize, access_latency: Cycle) -> Self {
        assert!(banks > 0, "a register file needs at least one bank");
        BankArbiter {
            next_free: vec![0; banks],
            access_latency,
        }
    }

    /// Number of banks.
    #[must_use]
    pub(crate) fn bank_count(&self) -> usize {
        self.next_free.len()
    }

    /// Access latency of one bank access, in cycles.
    #[must_use]
    pub(crate) const fn access_latency(&self) -> Cycle {
        self.access_latency
    }

    /// Schedules a single access to `bank` that is requested at `now`.
    /// Returns the cycle at which the data is available.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn access(&mut self, bank: usize, now: Cycle) -> Cycle {
        let start = self.next_free[bank].max(now);
        let done = start + self.access_latency;
        // The bank can accept a new request once the current access's
        // bank-busy time elapses (modelled as the full access latency).
        self.next_free[bank] = done;
        done
    }

    /// Schedules one access per bank in `banks`, all requested at `now`, and
    /// returns the cycle at which the *last* of them completes. This is the
    /// operand-collector pattern: an instruction is ready only when all of
    /// its source operands have been gathered.
    pub(crate) fn access_all(
        &mut self,
        banks: impl IntoIterator<Item = usize>,
        now: Cycle,
    ) -> Cycle {
        let mut ready = now;
        for bank in banks {
            ready = ready.max(self.access(bank, now));
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_id_display() {
        assert_eq!(WarpId(5).to_string(), "w5");
        assert_eq!(WarpId(5).index(), 5);
    }

    #[test]
    fn conflict_free_accesses_complete_in_one_latency() {
        let mut arb = BankArbiter::new(4, 3);
        let ready = arb.access_all([0, 1, 2], 10);
        assert_eq!(ready, 13);
    }

    #[test]
    fn conflicting_accesses_serialize() {
        let mut arb = BankArbiter::new(2, 3);
        let first = arb.access(0, 0);
        let second = arb.access(0, 0);
        assert_eq!(first, 3);
        assert_eq!(second, 6, "same-bank access must wait for the first");
        // A different bank is unaffected.
        assert_eq!(arb.access(1, 0), 3);
    }

    #[test]
    fn access_all_reports_worst_case() {
        let mut arb = BankArbiter::new(2, 2);
        assert_eq!((arb.bank_count(), arb.access_latency()), (2, 2));
        // Three accesses over two banks: bank 0 twice, bank 1 once.
        let ready = arb.access_all([0, 0, 1], 0);
        assert_eq!(ready, 4);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = BankArbiter::new(0, 1);
    }
}
