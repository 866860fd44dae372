//! The RFC keeps each warp's cache as a short list searched linearly. This
//! test pins it to the `HashMap` model it replaced, kept here as the
//! oracle: random sequences of reads, writes, activations and deactivations
//! at every capacity from 1 to 16 entries must return the same ready cycles,
//! the same access counts and the same hit rate.

use std::collections::HashMap;

use ltrf_core::RfcRegisterFile;
use ltrf_isa::{ArchReg, BlockId, RegSet};
use ltrf_sim::{BankArbiter, Cycle, RegFileTiming, RegisterFileModel, WarpId};
use ltrf_tech::AccessCounts;
use proptest::prelude::*;

/// The `HashMap` RFC as it was: registers mapped to their last-use tick and
/// dirty bit, the LRU victim found by the minimum tick.
struct HashMapRfc {
    timing: RegFileTiming,
    entries_per_warp: usize,
    mrf: BankArbiter,
    cache: BankArbiter,
    warps: Vec<HashMap<ArchReg, (u64, bool)>>,
    counts: AccessCounts,
    hits: u64,
    misses: u64,
    tick: u64,
}

impl HashMapRfc {
    fn new(timing: RegFileTiming, entries_per_warp: usize) -> Self {
        HashMapRfc {
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
            self.warps.push(HashMap::new());
        }
    }

    fn fill(&mut self, warp: WarpId, reg: ArchReg, dirty: bool) {
        self.tick += 1;
        let capacity = self.entries_per_warp;
        let entries = &mut self.warps[warp.index()];
        if entries.len() >= capacity && !entries.contains_key(&reg) {
            if let Some((&victim, &(_, victim_dirty))) = entries.iter().min_by_key(|(_, &(t, _))| t)
            {
                entries.remove(&victim);
                if victim_dirty {
                    self.counts.rfc_reads += 1;
                    self.counts.mrf_writes += 1;
                }
            }
        }
        let entry = self.warps[warp.index()].entry(reg).or_insert((0, false));
        entry.0 = self.tick;
        entry.1 |= dirty;
    }
}

impl RegisterFileModel for HashMapRfc {
    fn name(&self) -> &str {
        "RFC"
    }

    fn warp_activated(&mut self, warp: WarpId, _block: BlockId, now: Cycle) -> Cycle {
        self.ensure_warp(warp);
        now
    }

    fn warp_deactivated(&mut self, warp: WarpId, _now: Cycle) {
        self.ensure_warp(warp);
        let dirty = self.warps[warp.index()]
            .values()
            .filter(|&&(_, d)| d)
            .count() as u64;
        self.counts.rfc_reads += dirty;
        self.counts.mrf_writes += dirty;
        self.warps[warp.index()].clear();
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
            if self.warps[warp.index()].contains_key(&reg) {
                self.hits += 1;
                self.counts.rfc_reads += 1;
                self.tick += 1;
                let tick = self.tick;
                if let Some(entry) = self.warps[warp.index()].get_mut(&reg) {
                    entry.0 = tick;
                }
                let bank = reg.index() % self.timing.rfc_banks.max(1);
                ready = ready.max(self.cache.access(bank, now));
            } else {
                self.misses += 1;
                self.counts.mrf_reads += 1;
                let bank = (reg.index() + warp.index()) % self.timing.mrf_banks.max(1);
                ready = ready.max(self.mrf.access(bank, now));
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

/// One step: (kind, warp), up to three registers, and the time advance.
type Op = ((u8, u32), (u8, u8, u8), u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        ((0u8..10, 0u32..4), (0u8..24, 0u8..24, 0u8..24), 0u64..4),
        0..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn list_rfc_matches_the_hashmap_model(entries in 1usize..=16, ops in arb_ops()) {
        let timing = RegFileTiming::default().with_latency_factor(6.3);
        let mut list = RfcRegisterFile::new(timing, entries);
        let mut oracle = HashMapRfc::new(timing, entries);
        let mut now: Cycle = 0;
        for ((kind, warp), (a, b, c), dt) in ops {
            now += dt;
            let warp = WarpId(warp);
            match kind {
                // Reads dominate, as in the pipeline; one to three sources.
                0..=4 => {
                    let regs: RegSet = [a, b, c][..1 + usize::from(kind % 3)]
                        .iter()
                        .map(|&r| ArchReg::new(r))
                        .collect();
                    prop_assert_eq!(
                        list.read_operands(warp, &regs, now),
                        oracle.read_operands(warp, &regs, now)
                    );
                }
                5..=7 => {
                    let reg = ArchReg::new(a);
                    prop_assert_eq!(
                        list.write_register(warp, reg, now),
                        oracle.write_register(warp, reg, now)
                    );
                }
                8 => {
                    list.warp_deactivated(warp, now);
                    oracle.warp_deactivated(warp, now);
                }
                _ => {
                    prop_assert_eq!(
                        list.warp_activated(warp, BlockId(0), now),
                        oracle.warp_activated(warp, BlockId(0), now)
                    );
                }
            }
            prop_assert_eq!(list.access_counts(), oracle.access_counts());
        }
        prop_assert_eq!(
            list.register_cache_hit_rate().map(f64::to_bits),
            oracle.register_cache_hit_rate().map(f64::to_bits)
        );
    }
}
