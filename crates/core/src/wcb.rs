//! The Warp Control Block (WCB).
//!
//! The WCB is the per-warp metadata structure at the heart of the LTRF
//! hardware (Figure 7 of the paper). For each warp it holds
//!
//! * the **register cache address table**: for every architectural register,
//!   the register-file-cache bank that currently holds it (if any),
//! * the **warp-offset address**: which slot inside each cache bank belongs
//!   to this warp,
//! * the **working-set bit-vector**: which registers of the current prefetch
//!   subgraph have been fetched (valid bits), and
//! * the **liveness bit-vector** (LTRF+): which registers currently hold live
//!   values.
//!
//! The structure here is a functional model — it tracks exactly the state the
//! hardware tables would hold and exposes the storage-cost arithmetic used in
//! §4.3 of the paper.

use ltrf_isa::{ArchReg, RegSet, MAX_ARCH_REGS};
use serde::{Deserialize, Serialize};

/// Per-warp Warp Control Block state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarpControlBlock {
    /// Register-cache bank number per architectural register (`None` when the
    /// register is not cached).
    bank_of: Vec<Option<u8>>,
    /// Slot within every cache bank that belongs to this warp.
    warp_offset: Option<u8>,
    /// Valid bits: registers of the current working set already fetched.
    working_set: RegSet,
    /// Liveness bits (LTRF+).
    liveness: RegSet,
}

impl WarpControlBlock {
    /// Creates an empty WCB.
    #[must_use]
    pub fn new() -> Self {
        WarpControlBlock {
            bank_of: vec![None; MAX_ARCH_REGS],
            warp_offset: None,
            working_set: RegSet::new(),
            liveness: RegSet::new(),
        }
    }

    /// Returns the cache bank currently holding `reg`, if any.
    #[must_use]
    pub fn bank_of(&self, reg: ArchReg) -> Option<u8> {
        self.bank_of[reg.index()]
    }

    /// Records that `reg` now lives in cache bank `bank`.
    pub fn map_register(&mut self, reg: ArchReg, bank: u8) {
        self.bank_of[reg.index()] = Some(bank);
        self.working_set.insert(reg);
    }

    /// Removes the mapping of `reg`, returning the bank it occupied.
    pub fn unmap_register(&mut self, reg: ArchReg) -> Option<u8> {
        self.working_set.remove(reg);
        self.bank_of[reg.index()].take()
    }

    /// Removes every mapping. Used when a warp is deactivated and releases
    /// its register-cache slots; the caller frees the banks wholesale. Only
    /// the mapped registers are visited: a register has a bank exactly when
    /// it is in the working set.
    pub fn unmap_all(&mut self) {
        for reg in self.working_set.iter() {
            self.bank_of[reg.index()] = None;
        }
        self.working_set.clear();
    }

    /// Registers currently mapped into the cache.
    #[must_use]
    pub fn cached_registers(&self) -> RegSet {
        self.working_set
    }

    /// Returns `true` if `reg` is currently cached.
    #[must_use]
    pub fn is_cached(&self, reg: ArchReg) -> bool {
        self.working_set.contains(reg)
    }

    /// The warp-offset address (slot index inside each bank).
    #[must_use]
    pub const fn warp_offset(&self) -> Option<u8> {
        self.warp_offset
    }

    /// Assigns the warp-offset address.
    pub fn set_warp_offset(&mut self, offset: Option<u8>) {
        self.warp_offset = offset;
    }

    /// Marks `reg` live (it has been written).
    pub fn mark_live(&mut self, reg: ArchReg) {
        self.liveness.insert(reg);
    }

    /// Marks the registers in `dying` dead (their last read has happened).
    pub fn mark_dead(&mut self, dying: &RegSet) {
        self.liveness = self.liveness.difference(dying);
    }

    /// The current liveness bit-vector.
    #[must_use]
    pub fn live_registers(&self) -> RegSet {
        self.liveness
    }

    /// Clears the liveness bit-vector (warp start).
    pub fn clear_liveness(&mut self) {
        self.liveness.clear();
    }
}

impl Default for WarpControlBlock {
    fn default() -> Self {
        WarpControlBlock::new()
    }
}

/// Storage cost of the WCB structures, as accounted in §4.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WcbStorageCost {
    /// Bits per warp.
    pub bits_per_warp: u64,
    /// Total bits for all warps of an SM.
    pub total_bits: u64,
}

impl WcbStorageCost {
    /// Computes the storage cost for an SM supporting `warps` warps with
    /// `regs_per_warp` architectural registers each and
    /// `registers_per_interval` register-cache banks.
    ///
    /// Each register needs ⌈log2(#banks)⌉ bits in the address table plus one
    /// working-set bit plus one liveness bit; each warp additionally stores a
    /// ⌈log2(#active-warps)⌉-bit warp-offset address.
    #[must_use]
    pub fn compute(
        warps: u64,
        regs_per_warp: u64,
        registers_per_interval: u64,
        active_warps: u64,
    ) -> Self {
        let bank_bits = (registers_per_interval.max(2) as f64).log2().ceil() as u64;
        let offset_bits = (active_warps.max(2) as f64).log2().ceil() as u64;
        // Address-table entry includes a valid bit alongside the bank number,
        // giving the 5 bits/register of the paper's example (4-bit bank + 1).
        let bits_per_warp = regs_per_warp * (bank_bits + 1) + offset_bits + 2 * regs_per_warp;
        WcbStorageCost {
            bits_per_warp,
            total_bits: bits_per_warp * warps,
        }
    }

    /// Storage cost in bytes.
    #[must_use]
    pub const fn total_bytes(&self) -> u64 {
        self.total_bits / 8
    }

    /// Storage as a fraction of a register file of `regfile_bytes` bytes.
    #[must_use]
    pub fn fraction_of_regfile(&self, regfile_bytes: u64) -> f64 {
        self.total_bytes() as f64 / regfile_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn mapping_round_trip() {
        let mut wcb = WarpControlBlock::new();
        assert!(!wcb.is_cached(r(5)));
        wcb.map_register(r(5), 3);
        assert_eq!(wcb.bank_of(r(5)), Some(3));
        assert!(wcb.is_cached(r(5)));
        assert_eq!(wcb.cached_registers().len(), 1);
        assert_eq!(wcb.unmap_register(r(5)), Some(3));
        assert!(!wcb.is_cached(r(5)));
        assert_eq!(wcb.unmap_register(r(5)), None);
    }

    #[test]
    fn unmap_all_frees_every_bank() {
        let mut wcb = WarpControlBlock::new();
        wcb.map_register(r(0), 0);
        wcb.map_register(r(1), 1);
        wcb.map_register(r(9), 2);
        wcb.unmap_all();
        for reg in [r(0), r(1), r(9)] {
            assert_eq!(wcb.bank_of(reg), None);
            assert!(!wcb.is_cached(reg));
        }
        assert!(wcb.cached_registers().is_empty());
        // A register unmapped on its own before the bulk release stays
        // unmapped, and remapping after it starts from a clean table.
        wcb.map_register(r(4), 7);
        assert_eq!(wcb.unmap_register(r(4)), Some(7));
        wcb.map_register(r(5), 1);
        wcb.unmap_all();
        assert_eq!(wcb.bank_of(r(4)), None);
        assert_eq!(wcb.bank_of(r(5)), None);
    }

    #[test]
    fn liveness_tracking() {
        let mut wcb = WarpControlBlock::new();
        wcb.mark_live(r(1));
        wcb.mark_live(r(2));
        assert_eq!(wcb.live_registers().len(), 2);
        wcb.mark_dead(&[r(1)].into_iter().collect());
        assert!(!wcb.live_registers().contains(r(1)));
        assert!(wcb.live_registers().contains(r(2)));
        wcb.clear_liveness();
        assert!(wcb.live_registers().is_empty());
    }

    #[test]
    fn warp_offset_assignment() {
        let mut wcb = WarpControlBlock::new();
        assert_eq!(wcb.warp_offset(), None);
        wcb.set_warp_offset(Some(5));
        assert_eq!(wcb.warp_offset(), Some(5));
        let default_wcb = WarpControlBlock::default();
        assert_eq!(default_wcb.warp_offset(), None);
    }

    #[test]
    fn storage_cost_matches_paper_example() {
        // 64 warps × 256 registers, 16 registers per interval, 8 active
        // warps: the paper reports 114 880 bits.
        let cost = WcbStorageCost::compute(64, 256, 16, 8);
        assert_eq!(cost.bits_per_warp, 256 * 5 + 3 + 2 * 256);
        assert_eq!(cost.total_bits, 114_880);
        // ≈ 5% of a 256 KB register file.
        let frac = cost.fraction_of_regfile(256 * 1024);
        assert!(frac > 0.04 && frac < 0.07, "fraction {frac}");
    }
}
