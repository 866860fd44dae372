//! Dynamic register-interval length measurement (Table 4 of the paper).
//!
//! Two quantities are measured over a kernel's dynamic trace:
//!
//! * the **real** register-interval length: the number of dynamic
//!   instructions executed between two PREFETCH operations, i.e. between
//!   entries into different register-intervals of the static partition, and
//! * the **optimal** register-interval length: the length of the longest
//!   consecutive runs of dynamic instructions whose combined register
//!   working-set fits the budget, computed greedily over the raw trace with
//!   no control-flow constraints at all.
//!
//! The ratio of the two exposes how much the single-entry control-flow
//! constraint of register-intervals costs relative to an oracle partitioning
//! of the dynamic instruction stream.

use serde::{Deserialize, Serialize};

use ltrf_isa::trace::TraceWalker;
use ltrf_isa::{Kernel, RegSet};

use crate::RegisterIntervalPartition;

/// Length statistics over a set of dynamic interval lengths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct IntervalLengthStats {
    /// Number of dynamic intervals observed.
    pub count: u64,
    /// Mean length in dynamic instructions.
    pub mean: f64,
    /// Minimum length.
    pub min: u64,
    /// Maximum length.
    pub max: u64,
}

impl IntervalLengthStats {
    /// Computes statistics from a list of lengths. Returns the default (all
    /// zeros) for an empty list.
    #[must_use]
    pub(crate) fn from_lengths(lengths: &[u64]) -> Self {
        if lengths.is_empty() {
            return IntervalLengthStats::default();
        }
        let count = lengths.len() as u64;
        let sum: u64 = lengths.iter().sum();
        IntervalLengthStats {
            count,
            mean: sum as f64 / count as f64,
            min: *lengths.iter().min().expect("non-empty"),
            max: *lengths.iter().max().expect("non-empty"),
        }
    }
}

/// Result of the Table 4 measurement for one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct IntervalLengthReport {
    /// Lengths of the intervals actually produced by the compiler partition.
    pub real: IntervalLengthStats,
    /// Lengths of the oracle (control-flow-unconstrained) partitioning.
    pub optimal: IntervalLengthStats,
}

impl IntervalLengthReport {
    /// Ratio of real to optimal mean lengths (≤ 1.0 in practice).
    #[must_use]
    pub fn mean_ratio(&self) -> f64 {
        if self.optimal.mean == 0.0 {
            return 0.0;
        }
        self.real.mean / self.optimal.mean
    }
}

/// Measures real register-interval lengths: dynamic instructions executed
/// between interval crossings of `partition`, walking the kernel with the
/// given seed.
#[must_use]
pub fn real_interval_lengths(
    kernel: &Kernel,
    partition: &RegisterIntervalPartition,
    seed: u64,
) -> Vec<u64> {
    let mut lengths = Vec::new();
    let mut current_interval = None;
    let mut run: u64 = 0;
    TraceWalker::new(kernel, seed).walk(|entry| {
        let interval = partition.interval_of(entry.block);
        match current_interval {
            Some(ci) if ci == interval => run += 1,
            Some(_) => {
                lengths.push(run);
                current_interval = Some(interval);
                run = 1;
            }
            None => {
                current_interval = Some(interval);
                run = 1;
            }
        }
    });
    if run > 0 {
        lengths.push(run);
    }
    lengths
}

/// Measures optimal register-interval lengths: the greedy partitioning of the
/// dynamic instruction stream into maximal runs whose register working-set
/// fits `max_registers`.
#[must_use]
pub fn optimal_interval_lengths(kernel: &Kernel, max_registers: usize, seed: u64) -> Vec<u64> {
    let mut lengths = Vec::new();
    let mut working_set = RegSet::new();
    let mut run: u64 = 0;
    TraceWalker::new(kernel, seed).walk(|entry| {
        let touched = entry.instruction.touched();
        let candidate = working_set.union(&touched);
        if candidate.len() <= max_registers {
            working_set = candidate;
            run += 1;
        } else {
            if run > 0 {
                lengths.push(run);
            }
            working_set = touched;
            run = 1;
        }
    });
    if run > 0 {
        lengths.push(run);
    }
    lengths
}

/// Produces the full Table 4 style report for one kernel.
#[must_use]
pub fn interval_length_report(
    kernel: &Kernel,
    partition: &RegisterIntervalPartition,
    max_registers: usize,
    seed: u64,
) -> IntervalLengthReport {
    IntervalLengthReport {
        real: IntervalLengthStats::from_lengths(&real_interval_lengths(kernel, partition, seed)),
        optimal: IntervalLengthStats::from_lengths(&optimal_interval_lengths(
            kernel,
            max_registers,
            seed,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompilerOptions};
    use ltrf_isa::{straight_line_kernel, ArchReg, KernelBuilder, Opcode};

    #[test]
    fn stats_from_lengths() {
        let s = IntervalLengthStats::from_lengths(&[2, 4, 6]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 4.0).abs() < f64::EPSILON);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 6);
        assert_eq!(IntervalLengthStats::from_lengths(&[]).count, 0);
    }

    #[test]
    fn real_lengths_cover_whole_trace() {
        let kernel = straight_line_kernel("k", 32, 120);
        let compiled = compile(&kernel, &CompilerOptions::default()).unwrap();
        let lengths = real_interval_lengths(&compiled.kernel, &compiled.partition, 3);
        let total: u64 = lengths.iter().sum();
        assert_eq!(
            total, 120,
            "every dynamic instruction belongs to an interval"
        );
        assert!(lengths.len() >= 2);
    }

    #[test]
    fn optimal_lengths_cover_whole_trace_and_dominate_real() {
        // Loop-heavy kernel: real intervals are constrained by control flow.
        let mut b = KernelBuilder::new("loopy", 48);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        for i in 0..8 {
            b.push(entry, Opcode::Mov, Some(ArchReg::new(i)), &[]);
        }
        b.jump(entry, body);
        for i in 0..10 {
            b.push(
                body,
                Opcode::FAlu,
                Some(ArchReg::new(16 + i)),
                &[ArchReg::new(i % 8)],
            );
        }
        b.loop_branch(body, body, exit, 20);
        b.exit(exit);
        let kernel = b.build().unwrap();
        let compiled = compile(&kernel, &CompilerOptions::default()).unwrap();
        let report = interval_length_report(&compiled.kernel, &compiled.partition, 16, 7);
        let real_total = report.real.mean * report.real.count as f64;
        let optimal_total = report.optimal.mean * report.optimal.count as f64;
        assert!(
            (real_total - optimal_total).abs() < 1e-6,
            "both partition the same trace"
        );
        assert!(
            report.optimal.mean >= report.real.mean * 0.99,
            "optimal mean ({}) must be at least the real mean ({})",
            report.optimal.mean,
            report.real.mean
        );
        assert!(report.mean_ratio() <= 1.01);
        assert!(report.mean_ratio() > 0.0);
    }

    #[test]
    fn optimal_respects_budget() {
        let kernel = straight_line_kernel("k", 64, 256);
        let lengths = optimal_interval_lengths(&kernel, 16, 5);
        let total: u64 = lengths.iter().sum();
        assert_eq!(total, 256);
        // With 64 registers cycling and a 16-register budget, segments are
        // bounded by roughly the number of instructions that fit 16 regs.
        assert!(lengths.iter().all(|&l| l <= 64));
    }
}
