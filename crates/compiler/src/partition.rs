//! Data structures describing a prefetch-subgraph partition of a kernel CFG.

use std::collections::HashSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use ltrf_isa::{BlockId, Cfg, RegSet};

/// Identifier of a register-interval (or strand) within a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IntervalId(pub u32);

impl IntervalId {
    /// Returns the interval index as a `usize`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for IntervalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ri{}", self.0)
    }
}

/// One prefetch subgraph: a set of basic blocks entered through a single
/// header block, together with its register working-set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegisterInterval {
    /// This interval's identifier.
    pub id: IntervalId,
    /// The single control-flow entry block of the interval.
    pub header: BlockId,
    /// All blocks belonging to the interval (the header is always first).
    pub blocks: Vec<BlockId>,
    /// The registers that may be accessed while executing inside the
    /// interval; this is the PREFETCH working-set.
    pub working_set: RegSet,
}

impl RegisterInterval {
    /// Returns the number of registers in the interval's working-set.
    #[must_use]
    pub(crate) fn working_set_size(&self) -> usize {
        self.working_set.len()
    }

    /// Returns `true` if `block` belongs to this interval.
    #[must_use]
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.contains(&block)
    }
}

/// A complete partition of a kernel's CFG into prefetch subgraphs.
///
/// Every basic block belongs to exactly one interval; the partition also
/// records the per-interval register budget (`N`) it was formed under so the
/// invariant `working_set ≤ N` can be re-checked at any time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegisterIntervalPartition {
    intervals: Vec<RegisterInterval>,
    assignment: Vec<IntervalId>,
    max_registers: usize,
}

impl RegisterIntervalPartition {
    /// Builds a partition from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` references an interval that does not exist or
    /// interval ids are not dense.
    #[must_use]
    pub fn new(
        intervals: Vec<RegisterInterval>,
        assignment: Vec<IntervalId>,
        max_registers: usize,
    ) -> Self {
        for (i, interval) in intervals.iter().enumerate() {
            assert_eq!(interval.id.index(), i, "interval ids must be dense");
        }
        for id in &assignment {
            assert!(id.index() < intervals.len(), "dangling interval id {id}");
        }
        RegisterIntervalPartition {
            intervals,
            assignment,
            max_registers,
        }
    }

    /// Returns the number of intervals in the partition.
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.intervals.len()
    }

    /// Returns the interval containing `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not covered by the partition.
    #[must_use]
    pub fn interval_of(&self, block: BlockId) -> IntervalId {
        self.assignment[block.index()]
    }

    /// Returns the interval with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn interval(&self, id: IntervalId) -> &RegisterInterval {
        &self.intervals[id.index()]
    }

    /// Iterates over all intervals.
    pub fn intervals(&self) -> impl Iterator<Item = &RegisterInterval> {
        self.intervals.iter()
    }

    /// Returns the mean working-set size across intervals.
    #[must_use]
    pub(crate) fn mean_working_set(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        let total: usize = self
            .intervals
            .iter()
            .map(RegisterInterval::working_set_size)
            .sum();
        total as f64 / self.intervals.len() as f64
    }

    /// Returns the largest working-set size across intervals.
    #[must_use]
    pub(crate) fn max_working_set(&self) -> usize {
        self.intervals
            .iter()
            .map(RegisterInterval::working_set_size)
            .max()
            .unwrap_or(0)
    }

    /// Checks the structural invariants of the partition against `cfg`:
    ///
    /// 1. every block is assigned to exactly one interval and appears in that
    ///    interval's block list,
    /// 2. every interval's working-set fits the register budget,
    /// 3. every interval has a single control-flow entry point: edges from
    ///    outside the interval may only target its header.
    ///
    /// Returns a list of human-readable violations (empty when valid). This
    /// is used heavily by property-based tests.
    #[must_use]
    pub fn invariant_violations(&self, cfg: &Cfg) -> Vec<String> {
        let mut violations = Vec::new();
        if self.assignment.len() != cfg.block_count() {
            violations.push(format!(
                "assignment covers {} blocks but the CFG has {}",
                self.assignment.len(),
                cfg.block_count()
            ));
            return violations;
        }
        for (idx, interval_id) in self.assignment.iter().enumerate() {
            let block = BlockId(idx as u32);
            if !self.interval(*interval_id).contains(block) {
                violations.push(format!(
                    "{block} is assigned to {interval_id} but missing from its block list"
                ));
            }
        }
        for interval in &self.intervals {
            if interval.working_set_size() > self.max_registers {
                violations.push(format!(
                    "{} has a working-set of {} registers, budget is {}",
                    interval.id,
                    interval.working_set_size(),
                    self.max_registers
                ));
            }
            let members: HashSet<BlockId> = interval.blocks.iter().copied().collect();
            if !members.contains(&interval.header) {
                violations.push(format!(
                    "{} does not contain its own header {}",
                    interval.id, interval.header
                ));
            }
            for &block in &interval.blocks {
                if block != interval.header {
                    for &pred in cfg.predecessors(block) {
                        if !members.contains(&pred) {
                            violations.push(format!(
                                "{} is entered at non-header block {block} from {pred}",
                                interval.id
                            ));
                        }
                    }
                }
                // The working-set must cover every register the block touches.
                let touched = cfg.block(block).touched_registers();
                if !touched.is_subset(&interval.working_set) {
                    violations.push(format!(
                        "{} working-set misses registers touched by {block}",
                        interval.id
                    ));
                }
            }
        }
        violations
    }

    /// Returns the number of static PREFETCH sites: one per interval header.
    #[must_use]
    pub(crate) fn prefetch_site_count(&self) -> usize {
        self.intervals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::straight_line_kernel;

    fn single_interval_partition(cfg: &Cfg, n: usize) -> RegisterIntervalPartition {
        let blocks: Vec<BlockId> = (0..cfg.block_count()).map(|i| BlockId(i as u32)).collect();
        let interval = RegisterInterval {
            id: IntervalId(0),
            header: cfg.entry(),
            blocks: blocks.clone(),
            working_set: cfg.blocks().fold(RegSet::new(), |set, block| {
                set.union(&block.touched_registers())
            }),
        };
        RegisterIntervalPartition::new(vec![interval], vec![IntervalId(0); cfg.block_count()], n)
    }

    #[test]
    fn accessors_and_stats() {
        let kernel = straight_line_kernel("k", 8, 10);
        let p = single_interval_partition(&kernel.cfg, 16);
        assert_eq!(p.interval_count(), 1);
        assert_eq!(p.max_registers, 16);
        assert_eq!(p.interval_of(BlockId(0)), IntervalId(0));
        assert_eq!(p.interval(p.interval_of(BlockId(0))).working_set.len(), 8);
        assert!((p.mean_working_set() - 8.0).abs() < f64::EPSILON);
        assert_eq!(p.max_working_set(), 8);
        assert_eq!(p.prefetch_site_count(), 1);
        assert_eq!(IntervalId(3).to_string(), "ri3");
    }

    #[test]
    fn invariants_hold_for_whole_kernel_interval() {
        let kernel = straight_line_kernel("k", 8, 10);
        let p = single_interval_partition(&kernel.cfg, 16);
        assert!(p.invariant_violations(&kernel.cfg).is_empty());
    }

    #[test]
    fn invariants_catch_budget_overflow() {
        let kernel = straight_line_kernel("k", 8, 10);
        let p = single_interval_partition(&kernel.cfg, 4);
        let violations = p.invariant_violations(&kernel.cfg);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("budget"));
    }

    #[test]
    fn invariants_catch_incomplete_working_set() {
        let kernel = straight_line_kernel("k", 8, 10);
        let interval = RegisterInterval {
            id: IntervalId(0),
            header: BlockId(0),
            blocks: vec![BlockId(0)],
            working_set: RegSet::new(),
        };
        let p = RegisterIntervalPartition::new(vec![interval], vec![IntervalId(0)], 16);
        let violations = p.invariant_violations(&kernel.cfg);
        assert!(violations.iter().any(|v| v.contains("misses registers")));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_interval_ids_panic() {
        let interval = RegisterInterval {
            id: IntervalId(1),
            header: BlockId(0),
            blocks: vec![BlockId(0)],
            working_set: RegSet::new(),
        };
        let _ = RegisterIntervalPartition::new(vec![interval], vec![], 16);
    }
}
