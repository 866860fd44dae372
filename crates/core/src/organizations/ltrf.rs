//! The Latency-Tolerant Register File (LTRF and LTRF+).
//!
//! LTRF is a two-level register file: a small, fast, partitioned register
//! cache in front of a large, slow main register file (MRF). The compiler
//! partitions each kernel into *register-intervals* whose working-set fits
//! one warp's cache partition; at the entry of every interval a PREFETCH
//! operation bulk-loads that working-set from the MRF, and all register
//! accesses inside the interval are served by the cache. When the two-level
//! scheduler deactivates a warp, its cached registers are written back and
//! its cache banks are released; reactivation refetches the working-set.
//!
//! LTRF+ additionally tracks operand liveness (the dead-operand bits produced
//! by the compiler's liveness pass): dead registers are neither written back
//! on deactivation nor refetched on activation — only cache space is
//! allocated for them.

use ltrf_compiler::CompiledKernel;
use ltrf_isa::{ArchReg, BlockId, RegSet};
use ltrf_sim::{BankArbiter, Cycle, RegFileTiming, RegisterFileModel, WarpId};
use ltrf_tech::AccessCounts;

use crate::address_alloc::AllocationQueue;
use crate::wcb::WarpControlBlock;

/// Parameters of the LTRF hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LtrfParams {
    /// Registers per register-interval — also the number of register-cache
    /// banks and the size of one warp's cache partition (default 16).
    pub registers_per_interval: usize,
    /// Warps that hold register-cache partitions concurrently (default 8).
    pub active_warps: usize,
    /// Whether operand liveness is honoured (LTRF+).
    pub liveness_aware: bool,
}

impl Default for LtrfParams {
    fn default() -> Self {
        LtrfParams {
            registers_per_interval: 16,
            active_warps: 8,
            liveness_aware: false,
        }
    }
}

impl LtrfParams {}

#[derive(Debug)]
struct LtrfWarpState {
    wcb: WarpControlBlock,
    banks: AllocationQueue,
    current_interval: Option<ltrf_compiler::IntervalId>,
    /// Registers written since the warp last synchronised with the MRF
    /// (needed so write-backs only move data that could have changed).
    dirty: RegSet,
}

impl LtrfWarpState {
    fn new(banks: usize) -> Self {
        LtrfWarpState {
            wcb: WarpControlBlock::new(),
            banks: AllocationQueue::new(banks),
            current_interval: None,
            dirty: RegSet::new(),
        }
    }
}

/// The LTRF / LTRF+ register-file organization.
#[derive(Debug)]
pub struct LtrfRegisterFile {
    compiled: CompiledKernel,
    params: LtrfParams,
    timing: RegFileTiming,
    mrf: BankArbiter,
    /// `mrf_banks - 1` when the MRF bank count is a power of two, so a
    /// register maps to its bank with a mask instead of a division.
    mrf_bank_mask: Option<usize>,
    cache: BankArbiter,
    warps: Vec<LtrfWarpState>,
    counts: AccessCounts,
    cache_hits: u64,
    cache_misses: u64,
    prefetch_stalls: Cycle,
    name: String,
}

impl LtrfRegisterFile {
    /// Creates an LTRF register file for a compiled kernel.
    #[must_use]
    pub fn new(compiled: CompiledKernel, timing: RegFileTiming, params: LtrfParams) -> Self {
        let name = if params.liveness_aware {
            "LTRF+"
        } else {
            "LTRF"
        };
        LtrfRegisterFile {
            mrf: BankArbiter::new(timing.mrf_banks, timing.mrf_latency()),
            mrf_bank_mask: timing
                .mrf_banks
                .is_power_of_two()
                .then(|| timing.mrf_banks - 1),
            cache: BankArbiter::new(params.registers_per_interval.max(1), timing.rfc_latency),
            compiled,
            params,
            timing,
            warps: Vec::new(),
            counts: AccessCounts::default(),
            cache_hits: 0,
            cache_misses: 0,
            prefetch_stalls: 0,
            name: name.to_string(),
        }
    }

    /// Overrides the reported name (used for the LTRF-with-strands
    /// comparison point so reports can distinguish it).
    #[must_use]
    pub(crate) fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Grows the per-warp state to cover `warp`. Only activation calls it:
    /// the engines activate a warp before any other call on it.
    fn ensure_warp(&mut self, warp: WarpId) {
        while self.warps.len() <= warp.index() {
            self.warps.push(LtrfWarpState::new(
                self.params.registers_per_interval.max(1),
            ));
        }
    }

    fn mrf_bank(&self, warp: WarpId, reg: ArchReg) -> usize {
        let slot = reg.index() + warp.index();
        match self.mrf_bank_mask {
            Some(mask) => slot & mask,
            None => slot % self.timing.mrf_banks.max(1),
        }
    }

    /// Reads `fetch` from the MRF into the cache. Returns the cycle at which
    /// the last register arrives in the cache.
    fn prefetch_registers(&mut self, warp: WarpId, fetch: &RegSet, now: Cycle) -> Cycle {
        if fetch.is_empty() {
            return now;
        }
        self.counts.mrf_reads += fetch.len() as u64;
        self.counts.rfc_writes += fetch.len() as u64;
        let mut ready = now;
        for reg in fetch.iter() {
            let bank = self.mrf_bank(warp, reg);
            ready = ready.max(self.mrf.access(bank, now));
        }
        ready + self.timing.prefetch_crossbar_latency
    }

    /// Writes `set` back from the cache to the MRF (buffered through the
    /// MRF's write ports; the warp does not wait for it and it does not
    /// contend with present-time prefetch reads).
    fn write_back(&mut self, set: &RegSet, _now: Cycle) {
        if set.is_empty() {
            return;
        }
        self.counts.rfc_reads += set.len() as u64;
        self.counts.mrf_writes += set.len() as u64;
    }

    /// Allocates cache banks for `set` in the warp's partition and fills the
    /// WCB address table.
    fn map_into_cache(&mut self, warp: WarpId, set: &RegSet) {
        let state = &mut self.warps[warp.index()];
        for reg in set.iter() {
            if state.wcb.is_cached(reg) {
                continue;
            }
            if let Some(bank) = state.banks.allocate() {
                state.wcb.map_register(reg, bank);
            }
        }
    }

    /// Releases the cache banks of `set`.
    fn unmap_from_cache(&mut self, warp: WarpId, set: &RegSet) {
        let state = &mut self.warps[warp.index()];
        for reg in set.iter() {
            if let Some(bank) = state.wcb.unmap_register(reg) {
                state.banks.release(bank);
            }
        }
    }

    /// Registers of `set` that actually need to move between the MRF and the
    /// cache, honouring liveness for LTRF+.
    fn movable(&self, warp: WarpId, set: &RegSet) -> RegSet {
        if self.params.liveness_aware {
            set.intersection(&self.warps[warp.index()].wcb.live_registers())
        } else {
            *set
        }
    }
}

impl RegisterFileModel for LtrfRegisterFile {
    fn name(&self) -> &str {
        &self.name
    }

    fn warp_activated(&mut self, warp: WarpId, block: BlockId, now: Cycle) -> Cycle {
        self.ensure_warp(warp);
        let interval = self.compiled.partition.interval_of(block);
        let working_set = self.compiled.partition.interval(interval).working_set;
        self.counts.wcb_accesses += 1;
        self.warps[warp.index()].current_interval = Some(interval);
        self.map_into_cache(warp, &working_set);
        let fetch = self.movable(warp, &working_set);
        let ready = self.prefetch_registers(warp, &fetch, now);
        self.prefetch_stalls += ready.saturating_sub(now);
        ready
    }

    fn warp_deactivated(&mut self, warp: WarpId, now: Cycle) {
        let cached = self.warps[warp.index()].wcb.cached_registers();
        let dirty = self.warps[warp.index()].dirty.intersection(&cached);
        let to_write = self.movable(warp, &dirty);
        self.write_back(&to_write, now);
        let state = &mut self.warps[warp.index()];
        state.wcb.unmap_all();
        state.banks.release_all();
        state.dirty.clear();
    }

    fn block_entered(&mut self, warp: WarpId, block: BlockId, now: Cycle) -> Cycle {
        let interval = self.compiled.partition.interval_of(block);
        if self.warps[warp.index()].current_interval == Some(interval) {
            return now;
        }
        // PREFETCH: write back what leaves the cache, fetch what enters it.
        let new_ws = self.compiled.partition.interval(interval).working_set;
        let old_cached = self.warps[warp.index()].wcb.cached_registers();
        let leaving = old_cached.difference(&new_ws);
        let entering = new_ws.difference(&old_cached);
        let dirty_leaving = self.warps[warp.index()].dirty.intersection(&leaving);
        let to_write = self.movable(warp, &dirty_leaving);
        self.write_back(&to_write, now);
        self.unmap_from_cache(warp, &leaving);
        self.map_into_cache(warp, &new_ws);
        let fetch = self.movable(warp, &entering);
        let ready = self.prefetch_registers(warp, &fetch, now);
        let state = &mut self.warps[warp.index()];
        state.current_interval = Some(interval);
        state.dirty = state.dirty.intersection(&new_ws);
        self.counts.wcb_accesses += 1;
        self.prefetch_stalls += ready.saturating_sub(now);
        ready
    }

    fn read_operands(&mut self, warp: WarpId, regs: &RegSet, now: Cycle) -> Cycle {
        if regs.is_empty() {
            return now;
        }
        self.counts.wcb_accesses += 1;
        let start = now + self.timing.wcb_latency;
        let mut ready = start;
        for reg in regs.iter() {
            let bank = self.warps[warp.index()].wcb.bank_of(reg);
            match bank {
                Some(bank) => {
                    self.cache_hits += 1;
                    self.counts.rfc_reads += 1;
                    ready = ready.max(self.cache.access(bank as usize, start));
                }
                None => {
                    // Should not happen when the partition covers the kernel;
                    // fall back to a direct MRF access so results stay sound.
                    self.cache_misses += 1;
                    self.counts.mrf_reads += 1;
                    let mrf_bank = self.mrf_bank(warp, reg);
                    ready = ready.max(self.mrf.access(mrf_bank, start));
                }
            }
        }
        ready
    }

    fn write_register(&mut self, warp: WarpId, reg: ArchReg, now: Cycle) -> Cycle {
        self.counts.rfc_writes += 1;
        if !self.warps[warp.index()].wcb.is_cached(reg) {
            // Writes allocate: the register belongs to the current working
            // set, so a partition slot is guaranteed to be available.
            self.map_into_cache(warp, &RegSet::from_iter([reg]));
        }
        let state = &mut self.warps[warp.index()];
        state.wcb.mark_live(reg);
        state.dirty.insert(reg);
        // Result write-back can arrive far in the future (loads); it uses the
        // cache banks' write ports and does not block present-time reads.
        now + self.timing.rfc_latency
    }

    fn operands_dead(&mut self, warp: WarpId, dying: &RegSet) {
        if !self.params.liveness_aware {
            return;
        }
        self.warps[warp.index()].wcb.mark_dead(dying);
    }

    fn access_counts(&self) -> AccessCounts {
        self.counts
    }

    fn register_cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }

    fn prefetch_stall_cycles(&self) -> Cycle {
        self.prefetch_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_compiler::{compile, CompilerOptions};
    use ltrf_isa::{straight_line_kernel, KernelBuilder, Opcode};

    fn compiled_straight(regs: u16, insts: usize) -> CompiledKernel {
        let kernel = straight_line_kernel("k", regs, insts);
        compile(&kernel, &CompilerOptions::default()).unwrap()
    }

    fn regs_of(ids: &[u8]) -> RegSet {
        ids.iter().map(|&i| ArchReg::new(i)).collect()
    }

    #[test]
    fn activation_prefetches_the_entry_working_set() {
        let compiled = compiled_straight(8, 40);
        let timing = RegFileTiming::default().with_latency_factor(6.3);
        let mut rf = LtrfRegisterFile::new(compiled, timing, LtrfParams::default());
        let ready = rf.warp_activated(WarpId(0), BlockId(0), 0);
        assert!(ready > 0, "prefetch takes time");
        assert_eq!(rf.access_counts().mrf_reads, 8);
        assert_eq!(rf.access_counts().rfc_writes, 8);
        assert!(rf.prefetch_stall_cycles() > 0);
    }

    /// The mask taken for a power-of-two bank count maps every register
    /// where the `%` of any other count does.
    #[test]
    fn mrf_bank_is_register_plus_warp_modulo_banks() {
        for banks in [16, 128, 12] {
            let timing = RegFileTiming {
                mrf_banks: banks,
                ..RegFileTiming::default()
            };
            let rf = LtrfRegisterFile::new(compiled_straight(8, 40), timing, LtrfParams::default());
            assert_eq!(rf.mrf_bank_mask.is_some(), banks != 12);
            for warp in 0..80u32 {
                for reg in 0..=u8::MAX {
                    assert_eq!(
                        rf.mrf_bank(WarpId(warp), ArchReg::new(reg)),
                        (usize::from(reg) + warp as usize) % banks,
                        "{banks} banks, warp {warp}, r{reg}"
                    );
                }
            }
        }
    }

    #[test]
    fn reads_inside_an_interval_hit_the_cache() {
        let compiled = compiled_straight(8, 40);
        let timing = RegFileTiming::default().with_latency_factor(6.3);
        let mut rf = LtrfRegisterFile::new(compiled, timing, LtrfParams::default());
        let ready = rf.warp_activated(WarpId(0), BlockId(0), 0);
        let read_done = rf.read_operands(WarpId(0), &regs_of(&[0, 1]), ready);
        // WCB lookup (1) + cache access (1): far faster than the 13-cycle MRF.
        assert!(
            read_done - ready <= 3,
            "cache read took {}",
            read_done - ready
        );
        assert_eq!(rf.register_cache_hit_rate(), Some(1.0));
    }

    #[test]
    fn crossing_an_interval_boundary_triggers_a_prefetch() {
        // 32 registers with a 16-register budget: at least two intervals.
        let compiled = compiled_straight(32, 64);
        assert!(compiled.partition.interval_count() >= 2);
        let timing = RegFileTiming::default().with_latency_factor(6.3);
        let mut rf = LtrfRegisterFile::new(compiled.clone(), timing, LtrfParams::default());
        let t0 = rf.warp_activated(WarpId(0), BlockId(0), 0);
        let reads_before = rf.access_counts().mrf_reads;
        // Find a block in a different interval than the entry block.
        let entry_interval = compiled.partition.interval_of(BlockId(0));
        let other_block = compiled
            .kernel
            .cfg
            .blocks()
            .map(|b| b.id())
            .find(|&b| compiled.partition.interval_of(b) != entry_interval)
            .expect("second interval exists");
        let t1 = rf.block_entered(WarpId(0), other_block, t0);
        assert!(t1 > t0, "PREFETCH stalls the warp");
        assert!(rf.access_counts().mrf_reads > reads_before);
        // Re-entering a block of the same interval is free.
        assert_eq!(rf.block_entered(WarpId(0), other_block, t1), t1);
    }

    #[test]
    fn deactivation_writes_back_only_dirty_registers() {
        let compiled = compiled_straight(8, 40);
        let timing = RegFileTiming::default();
        let mut rf = LtrfRegisterFile::new(compiled, timing, LtrfParams::default());
        let t0 = rf.warp_activated(WarpId(0), BlockId(0), 0);
        let _ = rf.write_register(WarpId(0), ArchReg::new(3), t0);
        rf.warp_deactivated(WarpId(0), t0 + 10);
        assert_eq!(
            rf.access_counts().mrf_writes,
            1,
            "only the written register goes back to the MRF"
        );
    }

    #[test]
    fn ltrf_plus_skips_dead_registers() {
        let compiled = compiled_straight(8, 40);
        let timing = RegFileTiming::default().with_latency_factor(6.3);
        // LTRF+ with nothing live yet: activation fetches nothing.
        let mut plus = LtrfRegisterFile::new(
            compiled.clone(),
            timing,
            LtrfParams {
                liveness_aware: true,
                ..LtrfParams::default()
            },
        );
        let ready = plus.warp_activated(WarpId(0), BlockId(0), 0);
        assert_eq!(ready, 0, "no live registers, nothing to fetch");
        assert_eq!(plus.access_counts().mrf_reads, 0);
        // Base LTRF fetches the full working set.
        let mut base = LtrfRegisterFile::new(compiled, timing, LtrfParams::default());
        let _ = base.warp_activated(WarpId(0), BlockId(0), 0);
        assert_eq!(base.access_counts().mrf_reads, 8);
    }

    #[test]
    fn ltrf_plus_liveness_reduces_writebacks() {
        let compiled = compiled_straight(8, 40);
        let timing = RegFileTiming::default();
        let mut rf = LtrfRegisterFile::new(
            compiled,
            timing,
            LtrfParams {
                liveness_aware: true,
                ..LtrfParams::default()
            },
        );
        let t0 = rf.warp_activated(WarpId(0), BlockId(0), 0);
        let _ = rf.write_register(WarpId(0), ArchReg::new(1), t0);
        let _ = rf.write_register(WarpId(0), ArchReg::new(2), t0 + 1);
        // r1 dies after its last read.
        rf.operands_dead(WarpId(0), &regs_of(&[1]));
        rf.warp_deactivated(WarpId(0), t0 + 10);
        assert_eq!(
            rf.access_counts().mrf_writes,
            1,
            "the dead register is not written back"
        );
        assert_eq!(rf.name(), "LTRF+");
    }

    #[test]
    fn loop_kernel_prefetches_once_for_the_whole_loop() {
        // A loop whose working set fits one interval: executing many
        // iterations must not add MRF traffic beyond the initial prefetch.
        let mut b = KernelBuilder::new("loop", 8);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.push(entry, Opcode::Mov, Some(ArchReg::new(0)), &[]);
        b.jump(entry, body);
        b.push(
            body,
            Opcode::FAlu,
            Some(ArchReg::new(1)),
            &[ArchReg::new(0)],
        );
        b.loop_branch(body, body, exit, 50);
        b.exit(exit);
        let kernel = b.build().unwrap();
        let compiled = compile(&kernel, &CompilerOptions::default()).unwrap();
        assert_eq!(
            compiled.partition.interval_count(),
            1,
            "whole loop fits one interval"
        );
        let mut rf =
            LtrfRegisterFile::new(compiled, RegFileTiming::default(), LtrfParams::default());
        let t = rf.warp_activated(WarpId(0), BlockId(0), 0);
        let initial_mrf = rf.access_counts().mrf_total();
        let mut now = t;
        for _ in 0..50 {
            now = rf.block_entered(WarpId(0), BlockId(1), now);
            now = rf.read_operands(WarpId(0), &regs_of(&[0]), now);
            now = rf.write_register(WarpId(0), ArchReg::new(1), now);
        }
        assert_eq!(
            rf.access_counts().mrf_total(),
            initial_mrf,
            "no MRF traffic inside the interval"
        );
        assert_eq!(rf.register_cache_hit_rate(), Some(1.0));
    }
}
