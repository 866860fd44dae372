//! The interface between the SM pipeline and a register-file organization.
//!
//! The timing simulator is agnostic to how registers are stored: it asks a
//! [`RegisterFileModel`] for operand-read and write-back timing, and notifies
//! it about control-flow and scheduling events (block entries, warp
//! activation and deactivation). The organizations of the paper — baseline,
//! RFC, SHRF, LTRF, LTRF+, and the ideal register file — implement this trait
//! in `ltrf-core`. A plain [`DirectRegisterFile`] (no cache, every access
//! goes to the main register file) lives here so the simulator can be tested
//! on its own.

use ltrf_isa::{ArchReg, BlockId, RegSet};
use ltrf_tech::AccessCounts;

use crate::config::RegFileTiming;
use crate::types::{BankArbiter, Cycle, WarpId};

/// A register-file organization, as seen by the SM pipeline.
///
/// Both engines activate a warp ([`Self::warp_activated`]) before any other
/// call on it, so an organization may create a warp's state there and
/// assume it exists in every other per-warp method.
pub trait RegisterFileModel {
    /// Human-readable name of the organization (used in reports).
    fn name(&self) -> &str;

    /// Called when a warp is promoted into the active pool while standing at
    /// `block`. Returns the cycle at which the warp may begin issuing
    /// instructions (e.g. after refetching its register working-set).
    fn warp_activated(&mut self, warp: WarpId, block: BlockId, now: Cycle) -> Cycle;

    /// Called when a warp is demoted from the active pool (long-latency
    /// stall) or finishes. Implementations write back whatever state they
    /// must preserve.
    fn warp_deactivated(&mut self, warp: WarpId, now: Cycle);

    /// Called when a warp's control flow enters `block`. Returns the cycle at
    /// which the warp may execute the block's first instruction — later than
    /// `now` when a PREFETCH must complete first.
    fn block_entered(&mut self, warp: WarpId, block: BlockId, now: Cycle) -> Cycle;

    /// Requests the source operands in `regs` for `warp`. Returns the cycle
    /// at which all operands have been collected.
    fn read_operands(&mut self, warp: WarpId, regs: &RegSet, now: Cycle) -> Cycle;

    /// Writes `reg` for `warp` (the instruction's destination). Returns the
    /// cycle at which the value is visible to later reads.
    fn write_register(&mut self, warp: WarpId, reg: ArchReg, now: Cycle) -> Cycle;

    /// Informs the organization that the registers in `dying` were read for
    /// the last time by the instruction just issued (the dead-operand bits of
    /// the paper's LTRF+). Organizations that do not track liveness ignore
    /// this.
    fn operands_dead(&mut self, warp: WarpId, dying: &RegSet) {
        let _ = (warp, dying);
    }

    /// Cumulative access counters for power accounting.
    fn access_counts(&self) -> AccessCounts;

    /// Hit rate of the register-file cache, if the organization has one.
    fn register_cache_hit_rate(&self) -> Option<f64> {
        None
    }

    /// Total cycles warps spent stalled waiting for PREFETCH operations, if
    /// the organization prefetches.
    fn prefetch_stall_cycles(&self) -> Cycle {
        0
    }
}

/// The conventional non-cached register file: every operand read and write
/// accesses the main register file directly.
///
/// This is the `BL` comparison point of the paper (with the latency factor of
/// whichever Table 2 configuration is being evaluated) and also the
/// register-file model used by simulator self-tests.
#[derive(Debug)]
pub struct DirectRegisterFile {
    timing: RegFileTiming,
    banks: BankArbiter,
    counts: AccessCounts,
}

impl DirectRegisterFile {
    /// Creates a direct-mapped (non-cached) register file with the given
    /// timing.
    #[must_use]
    pub fn new(timing: RegFileTiming) -> Self {
        DirectRegisterFile {
            banks: BankArbiter::new(timing.mrf_banks, timing.mrf_latency()),
            timing,
            counts: AccessCounts::default(),
        }
    }

    /// Returns the timing parameters this model was built with.
    #[must_use]
    pub fn timing(&self) -> &RegFileTiming {
        &self.timing
    }
}

impl RegisterFileModel for DirectRegisterFile {
    fn name(&self) -> &str {
        "BL"
    }

    fn warp_activated(&mut self, _warp: WarpId, _block: BlockId, now: Cycle) -> Cycle {
        now
    }

    fn warp_deactivated(&mut self, _warp: WarpId, _now: Cycle) {}

    fn block_entered(&mut self, _warp: WarpId, _block: BlockId, now: Cycle) -> Cycle {
        now
    }

    fn read_operands(&mut self, warp: WarpId, regs: &RegSet, now: Cycle) -> Cycle {
        if regs.is_empty() {
            return now;
        }
        self.counts.mrf_reads += regs.len() as u64;
        // Registers of a warp are interleaved across banks, and different
        // warps are offset so they do not all hit bank 0 with r0.
        let bank_count = self.banks.bank_count();
        let banks = regs.iter().map(|r| (r.index() + warp.index()) % bank_count);
        self.banks.access_all(banks, now)
    }

    fn write_register(&mut self, _warp: WarpId, _reg: ArchReg, now: Cycle) -> Cycle {
        // Write-backs happen when the producing operation completes, which
        // can be far in the future for loads. They use the banks' write
        // ports and do not contend with present-time operand reads, so they
        // are charged the access latency without arbitration.
        self.counts.mrf_writes += 1;
        now + self.banks.access_latency()
    }

    fn access_counts(&self) -> AccessCounts {
        self.counts
    }
}

/// An idealised register file: unlimited bandwidth and the baseline (1×)
/// latency regardless of capacity. This is the paper's `Ideal` comparison
/// point.
#[derive(Debug)]
pub struct IdealRegisterFile {
    latency: Cycle,
    counts: AccessCounts,
}

impl IdealRegisterFile {
    /// Creates an ideal register file with the baseline access latency.
    #[must_use]
    pub fn new(timing: RegFileTiming) -> Self {
        IdealRegisterFile {
            latency: timing.baseline_mrf_latency,
            counts: AccessCounts::default(),
        }
    }
}

impl RegisterFileModel for IdealRegisterFile {
    fn name(&self) -> &str {
        "Ideal"
    }

    fn warp_activated(&mut self, _warp: WarpId, _block: BlockId, now: Cycle) -> Cycle {
        now
    }

    fn warp_deactivated(&mut self, _warp: WarpId, _now: Cycle) {}

    fn block_entered(&mut self, _warp: WarpId, _block: BlockId, now: Cycle) -> Cycle {
        now
    }

    fn read_operands(&mut self, _warp: WarpId, regs: &RegSet, now: Cycle) -> Cycle {
        self.counts.mrf_reads += regs.len() as u64;
        now + self.latency
    }

    fn write_register(&mut self, _warp: WarpId, _reg: ArchReg, now: Cycle) -> Cycle {
        self.counts.mrf_writes += 1;
        now + self.latency
    }

    fn access_counts(&self) -> AccessCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs(ids: &[u8]) -> RegSet {
        ids.iter().map(|&i| ArchReg::new(i)).collect()
    }

    #[test]
    fn direct_rf_charges_mrf_latency() {
        let mut rf = DirectRegisterFile::new(RegFileTiming::default());
        let ready = rf.read_operands(WarpId(0), &regs(&[0, 1]), 100);
        assert_eq!(
            ready, 102,
            "two conflict-free reads finish after one access latency"
        );
        assert_eq!(rf.access_counts().mrf_reads, 2);
        assert_eq!(rf.name(), "BL");
    }

    #[test]
    fn direct_rf_latency_factor_slows_reads() {
        let timing = RegFileTiming::default().with_latency_factor(6.3);
        let mut rf = DirectRegisterFile::new(timing);
        let ready = rf.read_operands(WarpId(0), &regs(&[0]), 0);
        assert_eq!(ready, 13);
        assert_eq!(rf.timing().mrf_latency(), 13);
    }

    #[test]
    fn direct_rf_same_bank_conflicts() {
        let mut rf = DirectRegisterFile::new(RegFileTiming::default());
        // r0 and r16 of the same warp map to the same bank (16 banks).
        let ready = rf.read_operands(WarpId(0), &regs(&[0, 16]), 0);
        assert_eq!(ready, 4, "conflicting reads serialise");
    }

    #[test]
    fn direct_rf_control_events_are_free() {
        let mut rf = DirectRegisterFile::new(RegFileTiming::default());
        assert_eq!(rf.warp_activated(WarpId(1), BlockId(0), 7), 7);
        assert_eq!(rf.block_entered(WarpId(1), BlockId(2), 9), 9);
        rf.warp_deactivated(WarpId(1), 10);
        assert_eq!(rf.register_cache_hit_rate(), None);
        assert_eq!(rf.prefetch_stall_cycles(), 0);
    }

    #[test]
    fn ideal_rf_never_conflicts() {
        let mut rf = IdealRegisterFile::new(RegFileTiming::default());
        let a = rf.read_operands(WarpId(0), &regs(&[0, 16, 32, 48]), 0);
        let b = rf.read_operands(WarpId(1), &regs(&[0, 16]), 0);
        assert_eq!(a, 2);
        assert_eq!(b, 2);
        assert_eq!(rf.write_register(WarpId(0), ArchReg::new(0), 10), 12);
        assert_eq!(rf.access_counts().mrf_reads, 6);
        assert_eq!(rf.name(), "Ideal");
    }

    #[test]
    fn empty_operand_set_is_instant() {
        let mut rf = DirectRegisterFile::new(RegFileTiming::default());
        assert_eq!(rf.read_operands(WarpId(0), &RegSet::new(), 42), 42);
    }
}
