//! Deterministic dynamic-trace generation.
//!
//! A [`TraceWalker`] walks a kernel's control-flow graph the way a single
//! warp would execute it, resolving every [`BranchBehavior`] annotation
//! deterministically from a seed. The resulting dynamic instruction stream is
//! used by
//!
//! * the register-interval length study (Table 4), which needs the number of
//!   dynamic instructions between PREFETCH points and the "optimal" interval
//!   length over the raw trace,
//! * the register-cache hit-rate study (Figure 4), and
//! * unit tests that compare the timing simulator's control flow against an
//!   architecture-independent reference.

use serde::{Deserialize, Serialize};

use crate::{BlockId, BranchBehavior, Instruction, Kernel, Terminator};

/// A single dynamic instruction: which block it came from, its index within
/// that block, and the executed instruction itself (borrowed from the kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry<'k> {
    /// Block the instruction belongs to.
    pub block: BlockId,
    /// Index of the instruction within its block.
    pub index: usize,
    /// The instruction.
    pub instruction: &'k Instruction,
}

/// Summary statistics of a dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total dynamic instructions executed.
    pub dynamic_instructions: u64,
    /// Number of dynamic basic-block executions.
    pub dynamic_blocks: u64,
    /// Number of taken branches.
    pub taken_branches: u64,
    /// Number of not-taken branches.
    pub not_taken_branches: u64,
}

/// A deterministic xorshift PRNG used to resolve probabilistic branches.
///
/// The simulator and the trace walker share this generator so the same warp
/// with the same seed takes exactly the same path in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchRng {
    state: u64,
}

impl BranchRng {
    /// Creates a generator from a seed (zero is remapped internally).
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        BranchRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Returns the next pseudo-random 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns `true` with the given probability.
    pub fn chance(&mut self, probability: f64) -> bool {
        if probability <= 0.0 {
            return false;
        }
        if probability >= 1.0 {
            return true;
        }
        let v = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        v < probability
    }
}

/// Walks a kernel's CFG as one warp would execute it.
///
/// The walker maintains per-branch loop counters so that
/// [`BranchBehavior::Loop`] annotations produce exactly `trip_count`
/// executions of the loop body per loop entry, and uses a [`BranchRng`] for
/// probabilistic branches. A global dynamic-instruction cap guards against
/// pathological (or buggy) infinite loops in synthetic workloads.
#[derive(Debug)]
pub struct TraceWalker<'k> {
    kernel: &'k Kernel,
    rng: BranchRng,
    max_dynamic_instructions: u64,
}

impl<'k> TraceWalker<'k> {
    /// Default cap on the number of dynamic instructions walked.
    pub(crate) const DEFAULT_MAX_DYNAMIC_INSTRUCTIONS: u64 = 5_000_000;

    /// Creates a walker over `kernel` with the given branch-resolution seed.
    #[must_use]
    pub fn new(kernel: &'k Kernel, seed: u64) -> Self {
        TraceWalker {
            kernel,
            rng: BranchRng::new(seed),
            max_dynamic_instructions: Self::DEFAULT_MAX_DYNAMIC_INSTRUCTIONS,
        }
    }

    /// Overrides the dynamic-instruction cap.
    #[must_use]
    pub fn with_max_instructions(mut self, max: u64) -> Self {
        self.max_dynamic_instructions = max;
        self
    }

    /// Runs the walk to completion, invoking `visit` for every dynamic
    /// instruction, and returns summary statistics.
    pub fn walk(mut self, mut visit: impl FnMut(&TraceEntry<'k>)) -> TraceStats {
        let mut stats = TraceStats::default();
        let cfg = &self.kernel.cfg;
        // Remaining-iteration counters for loop branches, keyed by block id.
        let mut loop_remaining: Vec<Option<u32>> = vec![None; cfg.block_count()];
        let mut current = cfg.entry();
        loop {
            stats.dynamic_blocks += 1;
            let block = cfg.block(current);
            for (index, instruction) in block.instructions().iter().enumerate() {
                stats.dynamic_instructions += 1;
                visit(&TraceEntry {
                    block: current,
                    index,
                    instruction,
                });
                if stats.dynamic_instructions >= self.max_dynamic_instructions {
                    return stats;
                }
            }
            match *block
                .terminator()
                .expect("validated kernels are terminated")
            {
                Terminator::Exit => return stats,
                Terminator::Jump(t) => current = t,
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
                            let slot = &mut loop_remaining[current.index()];
                            let remaining = slot.get_or_insert(trip_count.saturating_sub(1));
                            if *remaining > 0 {
                                *remaining -= 1;
                                true
                            } else {
                                *slot = None;
                                false
                            }
                        }
                    };
                    if take {
                        stats.taken_branches += 1;
                        current = taken;
                    } else {
                        stats.not_taken_branches += 1;
                        current = not_taken;
                    }
                }
            }
        }
    }
}

/// Computes only the summary statistics of a kernel's trace.
#[must_use]
pub fn trace_stats(kernel: &Kernel, seed: u64) -> TraceStats {
    TraceWalker::new(kernel, seed).walk(|_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{straight_line_kernel, ArchReg, KernelBuilder, Opcode};

    fn loop_kernel(trip: u32, body_insts: usize) -> Kernel {
        let mut b = KernelBuilder::new("loop", 8);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.push(entry, Opcode::Mov, Some(ArchReg::new(0)), &[]);
        b.jump(entry, body);
        for i in 0..body_insts {
            b.push(
                body,
                Opcode::FAlu,
                Some(ArchReg::new((1 + i % 4) as u8)),
                &[ArchReg::new(0)],
            );
        }
        b.loop_branch(body, body, exit, trip);
        b.exit(exit);
        b.build().unwrap()
    }

    #[test]
    fn straight_line_trace_counts() {
        let k = straight_line_kernel("s", 4, 25);
        let stats = trace_stats(&k, 1);
        assert_eq!(stats.dynamic_instructions, 25);
        assert_eq!(stats.dynamic_blocks, 1);
        assert_eq!(stats.taken_branches + stats.not_taken_branches, 0);
    }

    #[test]
    fn loop_executes_trip_count_times() {
        let k = loop_kernel(5, 3);
        let stats = trace_stats(&k, 7);
        // 1 entry inst + 5 iterations * 3 body insts
        assert_eq!(stats.dynamic_instructions, 1 + 5 * 3);
        assert_eq!(stats.taken_branches, 4);
        assert_eq!(stats.not_taken_branches, 1);
    }

    #[test]
    fn nested_loop_reenters_correctly() {
        // outer loop runs 3 times, inner loop 4 times per outer iteration
        let mut b = KernelBuilder::new("nested", 8);
        let entry = b.entry_block();
        let outer = b.add_block();
        let inner = b.add_block();
        let latch = b.add_block();
        let exit = b.add_block();
        b.jump(entry, outer);
        b.push(outer, Opcode::IAlu, Some(ArchReg::new(0)), &[]);
        b.jump(outer, inner);
        b.push(
            inner,
            Opcode::FAlu,
            Some(ArchReg::new(1)),
            &[ArchReg::new(0)],
        );
        b.loop_branch(inner, inner, latch, 4);
        b.loop_branch(latch, outer, exit, 3);
        b.exit(exit);
        let k = b.build().unwrap();
        let stats = trace_stats(&k, 3);
        // outer body inst: 3; inner body inst: 3*4
        assert_eq!(stats.dynamic_instructions, 3 + 12);
    }

    #[test]
    fn probabilistic_branches_are_deterministic_per_seed() {
        let mut b = KernelBuilder::new("prob", 4);
        let entry = b.entry_block();
        let a = b.add_block();
        let c = b.add_block();
        let join = b.add_block();
        let back = b.add_block();
        let exit = b.add_block();
        b.jump(entry, back);
        b.push(a, Opcode::IAlu, Some(ArchReg::new(1)), &[]);
        b.jump(a, join);
        b.push(c, Opcode::FAlu, Some(ArchReg::new(2)), &[]);
        b.jump(c, join);
        b.jump(join, exit);
        b.branch(back, a, c, BranchBehavior::balanced());
        b.exit(exit);
        let k = b.build().unwrap();
        let path = |seed| {
            let mut blocks = Vec::new();
            TraceWalker::new(&k, seed).walk(|entry| blocks.push(entry.block));
            blocks
        };
        assert_eq!(path(42), path(42), "same seed, same path");
    }

    #[test]
    fn always_and_never_taken() {
        assert!(BranchRng::new(1).chance(1.0));
        assert!(!BranchRng::new(1).chance(0.0));
        let mut rng = BranchRng::new(9);
        let mut taken = 0;
        for _ in 0..10_000 {
            if rng.chance(0.25) {
                taken += 1;
            }
        }
        let rate = taken as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn instruction_cap_terminates_infinite_loops() {
        let mut b = KernelBuilder::new("inf", 4);
        let entry = b.entry_block();
        b.push(entry, Opcode::IAlu, Some(ArchReg::new(0)), &[]);
        b.branch(entry, entry, entry, BranchBehavior::AlwaysTaken);
        let k = b.build().unwrap();
        let stats = TraceWalker::new(&k, 1)
            .with_max_instructions(1000)
            .walk(|_| {});
        assert_eq!(stats.dynamic_instructions, 1000);
    }
}
