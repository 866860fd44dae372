//! Per-warp execution state.

use std::collections::HashMap;

use ltrf_isa::trace::BranchRng;
use ltrf_isa::{ArchReg, BlockId, BranchBehavior, Kernel, Terminator};

use crate::types::Cycle;

/// Why a warp is not currently issuing instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpStatus {
    /// Ready to issue its next instruction.
    Ready,
    /// Stalled until the given cycle (prefetch, operand collection, or a
    /// long-latency operation while the warp stays active).
    StalledUntil(Cycle),
    /// Demoted from the active pool until its pending operation completes at
    /// the given cycle.
    InactiveUntil(Cycle),
    /// Waiting to be admitted into the active pool (eligible, not yet
    /// selected).
    Pending,
    /// Finished executing the kernel.
    Finished,
}

/// The architectural and micro-architectural state of one warp.
#[derive(Debug)]
pub struct WarpContext {
    /// Current basic block.
    pub block: BlockId,
    /// Index of the next instruction within the block.
    pub pc: usize,
    /// Scheduling status.
    pub status: WarpStatus,
    /// Registers with in-flight writes and their ready cycles (scoreboard).
    pending_writes: HashMap<ArchReg, Cycle>,
    /// Per-block remaining loop iterations for `BranchBehavior::Loop`.
    loop_remaining: HashMap<BlockId, u32>,
    /// Deterministic RNG for probabilistic branches.
    rng: BranchRng,
    /// Dynamic instructions executed by this warp.
    pub instructions_executed: u64,
}

impl WarpContext {
    /// Creates a warp positioned at the kernel entry.
    #[must_use]
    pub fn new(kernel: &Kernel, seed: u64) -> Self {
        WarpContext {
            block: kernel.cfg.entry(),
            pc: 0,
            status: WarpStatus::Pending,
            pending_writes: HashMap::new(),
            loop_remaining: HashMap::new(),
            rng: BranchRng::new(seed),
            instructions_executed: 0,
        }
    }

    /// Returns `true` if every source and the destination of the instruction
    /// are free of pending writes at `now` (RAW/WAW check), dropping
    /// completed entries as a side effect.
    pub(crate) fn scoreboard_ready(
        &mut self,
        reads: &ltrf_isa::RegSet,
        dst: Option<ArchReg>,
        now: Cycle,
    ) -> bool {
        self.pending_writes.retain(|_, &mut ready| ready > now);
        for r in reads.iter() {
            if self.pending_writes.contains_key(&r) {
                return false;
            }
        }
        if let Some(d) = dst {
            if self.pending_writes.contains_key(&d) {
                return false;
            }
        }
        true
    }

    /// Earliest cycle at which all scoreboard hazards for the instruction
    /// clear (used to fast-forward idle cycles).
    #[must_use]
    pub(crate) fn scoreboard_ready_at(
        &self,
        reads: &ltrf_isa::RegSet,
        dst: Option<ArchReg>,
    ) -> Cycle {
        let mut ready = 0;
        for (&reg, &cycle) in &self.pending_writes {
            if reads.contains(reg) || dst == Some(reg) {
                ready = ready.max(cycle);
            }
        }
        ready
    }

    /// Records a pending write of `reg` completing at `ready`.
    pub(crate) fn record_pending_write(&mut self, reg: ArchReg, ready: Cycle) {
        let entry = self.pending_writes.entry(reg).or_insert(ready);
        *entry = (*entry).max(ready);
    }

    /// Advances control flow past the current block's terminator. Returns the
    /// next block, or `None` if the warp exits the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the current block has no terminator (kernels are validated,
    /// so this indicates a simulator bug).
    pub(crate) fn take_branch(&mut self, kernel: &Kernel) -> Option<BlockId> {
        let block = kernel.cfg.block(self.block);
        match *block.terminator().expect("validated kernel") {
            Terminator::Exit => None,
            Terminator::Jump(t) => Some(t),
            Terminator::Branch {
                taken,
                not_taken,
                behavior,
            } => {
                let take = match behavior {
                    BranchBehavior::AlwaysTaken => true,
                    BranchBehavior::NeverTaken => false,
                    BranchBehavior::Probabilistic { taken_probability } => {
                        self.rng.chance(taken_probability)
                    }
                    BranchBehavior::Loop { trip_count } => {
                        let remaining = self
                            .loop_remaining
                            .entry(self.block)
                            .or_insert_with(|| trip_count.saturating_sub(1));
                        if *remaining > 0 {
                            *remaining -= 1;
                            true
                        } else {
                            self.loop_remaining.remove(&self.block);
                            false
                        }
                    }
                };
                Some(if take { taken } else { not_taken })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::{straight_line_kernel, ArchReg, KernelBuilder, Opcode, RegSet};

    #[test]
    fn new_warp_starts_pending_at_entry() {
        let k = straight_line_kernel("k", 4, 10);
        let w = WarpContext::new(&k, 1);
        assert_eq!(w.block, k.cfg.entry());
        assert_eq!(w.pc, 0);
        assert_eq!(w.status, WarpStatus::Pending);
    }

    #[test]
    fn scoreboard_blocks_raw_hazards() {
        let k = straight_line_kernel("k", 4, 10);
        let mut w = WarpContext::new(&k, 1);
        w.record_pending_write(ArchReg::new(1), 100);
        let reads: RegSet = [ArchReg::new(1)].into_iter().collect();
        assert!(!w.scoreboard_ready(&reads, None, 50));
        assert_eq!(w.scoreboard_ready_at(&reads, None), 100);
        assert!(
            w.scoreboard_ready(&reads, None, 100),
            "hazard clears at the ready cycle"
        );
    }

    #[test]
    fn scoreboard_blocks_waw_hazards() {
        let k = straight_line_kernel("k", 4, 10);
        let mut w = WarpContext::new(&k, 1);
        w.record_pending_write(ArchReg::new(2), 60);
        assert!(!w.scoreboard_ready(&RegSet::new(), Some(ArchReg::new(2)), 10));
        assert!(w.scoreboard_ready(&RegSet::new(), Some(ArchReg::new(3)), 10));
        assert!(w.scoreboard_ready(&RegSet::new(), Some(ArchReg::new(2)), 60));
        assert!(w.pending_writes.is_empty(), "the retired write is dropped");
    }

    #[test]
    fn branch_loop_counts_match_trip_count() {
        let mut b = KernelBuilder::new("loop", 4);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.jump(entry, body);
        b.push(body, Opcode::IAlu, Some(ArchReg::new(0)), &[]);
        b.loop_branch(body, body, exit, 3);
        b.exit(exit);
        let k = b.build().unwrap();
        let mut w = WarpContext::new(&k, 1);
        w.block = body;
        assert_eq!(w.take_branch(&k), Some(body));
        w.block = body;
        assert_eq!(w.take_branch(&k), Some(body));
        w.block = body;
        assert_eq!(
            w.take_branch(&k),
            Some(exit),
            "third evaluation falls through"
        );
        w.block = exit;
        assert_eq!(w.take_branch(&k), None);
    }
}
