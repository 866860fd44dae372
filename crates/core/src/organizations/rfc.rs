//! The hardware register-file cache (RFC) comparison point.
//!
//! This models the demand-driven register cache the paper compares against: a
//! small per-warp cache that captures recently produced and consumed
//! registers, backed by the main register file. There is no prefetching and
//! no compiler involvement; misses expose the full MRF latency. Because warps
//! lose their cache contents when the two-level scheduler deactivates them,
//! and because register values often have a single consumer, the hit rate is
//! low (8–30% in the paper's Figure 4), which is precisely why RFC cannot
//! tolerate slow main register files.

use ltrf_isa::{ArchReg, BlockId, RegSet};
use ltrf_sim::{BankArbiter, Cycle, RegFileTiming, RegisterFileModel, WarpId};
use ltrf_tech::AccessCounts;

/// One cached register of a warp.
#[derive(Debug, Clone, Copy)]
struct RfcEntry {
    reg: ArchReg,
    /// The tick of the last use. Every use takes a fresh tick, so the
    /// ticks of a warp's entries are distinct and the LRU victim is unique.
    tick: u64,
    dirty: bool,
}

/// One warp's private register-cache state: at most `entries_per_warp`
/// entries, searched linearly (LRU over a handful of entries).
#[derive(Debug, Default)]
struct RfcWarpState {
    entries: Vec<RfcEntry>,
}

impl RfcWarpState {
    fn find(&self, reg: ArchReg) -> Option<usize> {
        self.entries.iter().position(|e| e.reg == reg)
    }
}

/// The demand-driven hardware register-file cache.
#[derive(Debug)]
pub struct RfcRegisterFile {
    timing: RegFileTiming,
    entries_per_warp: usize,
    mrf: BankArbiter,
    cache: BankArbiter,
    warps: Vec<RfcWarpState>,
    counts: AccessCounts,
    hits: u64,
    misses: u64,
    tick: u64,
}

impl RfcRegisterFile {
    /// Creates an RFC with `entries_per_warp` register slots per active warp.
    ///
    /// The paper's 16 KB cache shared by 8 active warps corresponds to 16
    /// warp-wide registers per warp.
    #[must_use]
    pub fn new(timing: RegFileTiming, entries_per_warp: usize) -> Self {
        RfcRegisterFile {
            mrf: BankArbiter::new(timing.mrf_banks, timing.mrf_latency()),
            cache: BankArbiter::new(timing.rfc_banks, timing.rfc_latency),
            timing,
            entries_per_warp: entries_per_warp.max(1),
            warps: Vec::new(),
            counts: AccessCounts::default(),
            hits: 0,
            misses: 0,
            tick: 0,
        }
    }

    fn ensure_warp(&mut self, warp: WarpId) {
        while self.warps.len() <= warp.index() {
            self.warps.push(RfcWarpState::default());
        }
    }

    fn mrf_bank(&self, warp: WarpId, reg: ArchReg) -> usize {
        (reg.index() + warp.index()) % self.timing.mrf_banks.max(1)
    }

    fn cache_bank(&self, reg: ArchReg) -> usize {
        reg.index() % self.timing.rfc_banks.max(1)
    }

    /// Inserts `reg` into the warp's cache, evicting the LRU entry if full.
    /// Evicted dirty entries are written back to the MRF (write ports, not
    /// arbitrated against present-time reads).
    fn fill(&mut self, warp: WarpId, reg: ArchReg, dirty: bool) {
        self.tick += 1;
        let tick = self.tick;
        let state = &mut self.warps[warp.index()];
        if let Some(i) = state.find(reg) {
            let entry = &mut state.entries[i];
            entry.tick = tick;
            entry.dirty |= dirty;
            return;
        }
        if state.entries.len() >= self.entries_per_warp {
            let victim = (0..state.entries.len())
                .min_by_key(|&i| state.entries[i].tick)
                .expect("a full cache has entries");
            if state.entries.swap_remove(victim).dirty {
                self.counts.rfc_reads += 1;
                self.counts.mrf_writes += 1;
            }
        }
        state.entries.push(RfcEntry { reg, tick, dirty });
    }
}

impl RegisterFileModel for RfcRegisterFile {
    fn name(&self) -> &str {
        "RFC"
    }

    fn warp_activated(&mut self, warp: WarpId, _block: BlockId, now: Cycle) -> Cycle {
        self.ensure_warp(warp);
        now
    }

    fn warp_deactivated(&mut self, warp: WarpId, _now: Cycle) {
        self.ensure_warp(warp);
        // The warp loses its cache allocation: write back dirty entries and
        // invalidate everything (the thrashing the paper describes).
        let dirty = self.warps[warp.index()]
            .entries
            .iter()
            .filter(|e| e.dirty)
            .count() as u64;
        self.counts.rfc_reads += dirty;
        self.counts.mrf_writes += dirty;
        self.warps[warp.index()].entries.clear();
    }

    fn block_entered(&mut self, _warp: WarpId, _block: BlockId, now: Cycle) -> Cycle {
        now
    }

    fn read_operands(&mut self, warp: WarpId, regs: &RegSet, now: Cycle) -> Cycle {
        self.ensure_warp(warp);
        if regs.is_empty() {
            return now;
        }
        let mut ready = now;
        for reg in regs.iter() {
            if let Some(i) = self.warps[warp.index()].find(reg) {
                self.hits += 1;
                self.counts.rfc_reads += 1;
                self.tick += 1;
                self.warps[warp.index()].entries[i].tick = self.tick;
                let bank = self.cache_bank(reg);
                ready = ready.max(self.cache.access(bank, now));
            } else {
                // Misses read the MRF but do not allocate: the RFC captures
                // values at production time (write-allocate only), as in the
                // hardware register-cache design the paper compares against.
                self.misses += 1;
                self.counts.mrf_reads += 1;
                let bank = self.mrf_bank(warp, reg);
                let done = self.mrf.access(bank, now);
                ready = ready.max(done);
            }
        }
        ready
    }

    fn write_register(&mut self, warp: WarpId, reg: ArchReg, now: Cycle) -> Cycle {
        self.ensure_warp(warp);
        self.counts.rfc_writes += 1;
        self.fill(warp, reg, true);
        now + self.timing.rfc_latency
    }

    fn access_counts(&self) -> AccessCounts {
        self.counts
    }

    fn register_cache_hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs_of(ids: &[u8]) -> RegSet {
        ids.iter().map(|&i| ArchReg::new(i)).collect()
    }

    #[test]
    fn produced_values_hit_but_inherited_values_miss() {
        let mut rf = RfcRegisterFile::new(RegFileTiming::default().with_latency_factor(6.3), 16);
        let t1 = rf.read_operands(WarpId(0), &regs_of(&[1]), 0);
        assert_eq!(
            t1, 13,
            "a value never produced locally pays the slow MRF latency"
        );
        let _ = rf.write_register(WarpId(0), ArchReg::new(1), t1);
        let t2 = rf.read_operands(WarpId(0), &regs_of(&[1]), 20);
        assert_eq!(t2 - 20, 1, "a freshly produced value hits in the cache");
        assert_eq!(rf.register_cache_hit_rate(), Some(0.5));
    }

    #[test]
    fn written_registers_hit_until_evicted() {
        let mut rf = RfcRegisterFile::new(RegFileTiming::default(), 4);
        let _ = rf.write_register(WarpId(0), ArchReg::new(7), 0);
        let t = rf.read_operands(WarpId(0), &regs_of(&[7]), 10);
        assert_eq!(t, 11);
        assert_eq!(rf.register_cache_hit_rate(), Some(1.0));
    }

    #[test]
    fn lru_eviction_writes_back_dirty_entries() {
        let mut rf = RfcRegisterFile::new(RegFileTiming::default(), 2);
        let _ = rf.write_register(WarpId(0), ArchReg::new(0), 0);
        let _ = rf.write_register(WarpId(0), ArchReg::new(1), 1);
        // Touch r0 so r1 becomes LRU, then produce r2: r1 must be written back.
        let _ = rf.read_operands(WarpId(0), &regs_of(&[0]), 2);
        let _ = rf.write_register(WarpId(0), ArchReg::new(2), 3);
        assert_eq!(rf.access_counts().mrf_writes, 1);
        // r0 should still be cached.
        let before = rf.access_counts().mrf_reads;
        let _ = rf.read_operands(WarpId(0), &regs_of(&[0]), 10);
        assert_eq!(rf.access_counts().mrf_reads, before);
    }

    #[test]
    fn read_misses_do_not_allocate() {
        let mut rf = RfcRegisterFile::new(RegFileTiming::default().with_latency_factor(6.3), 8);
        let _ = rf.read_operands(WarpId(0), &regs_of(&[9]), 0);
        let t = rf.read_operands(WarpId(0), &regs_of(&[9]), 20);
        assert_eq!(
            t - 20,
            13,
            "a re-read of a never-written register still misses"
        );
        assert_eq!(rf.register_cache_hit_rate(), Some(0.0));
    }

    #[test]
    fn deactivation_flushes_the_warp_cache() {
        let mut rf = RfcRegisterFile::new(RegFileTiming::default(), 8);
        let _ = rf.write_register(WarpId(0), ArchReg::new(3), 0);
        let _ = rf.read_operands(WarpId(0), &regs_of(&[3]), 1);
        rf.warp_deactivated(WarpId(0), 5);
        assert_eq!(rf.access_counts().mrf_writes, 1, "dirty entry written back");
        // After reactivation the read misses again.
        let _ = rf.warp_activated(WarpId(0), BlockId(0), 6);
        let misses_before = rf.misses;
        let _ = rf.read_operands(WarpId(0), &regs_of(&[3]), 7);
        assert_eq!(rf.misses, misses_before + 1);
    }

    #[test]
    fn warps_have_private_caches() {
        let mut rf = RfcRegisterFile::new(RegFileTiming::default(), 8);
        let _ = rf.write_register(WarpId(0), ArchReg::new(1), 0);
        // Warp 1 reading the same architectural register misses.
        let misses_before = rf.misses;
        let _ = rf.read_operands(WarpId(1), &regs_of(&[1]), 1);
        assert_eq!(rf.misses, misses_before + 1);
        assert_eq!(rf.name(), "RFC");
    }
}
