//! Register-interval reduction (Algorithm 2 of the LTRF paper).
//!
//! The second formation pass works on the *register-interval CFG* produced by
//! Algorithm 1 and repeatedly merges an interval into its unique external
//! predecessor when the union of the two working-sets still fits the register
//! budget. Unlike pass 1, this pass never splits anything. Each repetition
//! can reduce the depth of a loop nest by one — in the paper's Figure 6
//! example, the outer loop's preheader interval merges into the loop-body
//! interval, leaving a single PREFETCH for the whole nest.

use std::collections::BTreeSet;

use ltrf_isa::{BlockId, Kernel};

use crate::{IntervalId, RegisterInterval, RegisterIntervalPartition};

/// Applies Algorithm 2 to `partition` until no further merge is possible.
///
/// Returns a new partition over the same kernel. The kernel's entry interval
/// is never merged away: it is the one interval that is always entered from
/// "outside" (kernel launch), so its PREFETCH cannot be subsumed.
#[must_use]
pub(crate) fn reduce_intervals(
    kernel: &Kernel,
    partition: &RegisterIntervalPartition,
    max_registers: usize,
) -> RegisterIntervalPartition {
    let block_count = kernel.cfg.block_count();
    // Union-find style representative per original interval id.
    let mut rep: Vec<usize> = (0..partition.interval_count()).collect();
    let mut working_sets: Vec<_> = partition.intervals().map(|i| i.working_set).collect();
    let entry_interval = partition.interval_of(kernel.cfg.entry()).index();

    fn find(rep: &mut [usize], mut x: usize) -> usize {
        while rep[x] != x {
            rep[x] = rep[rep[x]];
            x = rep[x];
        }
        x
    }

    loop {
        let mut merged_any = false;
        // Recompute, per representative interval, the set of external
        // predecessor representatives.
        let interval_count = partition.interval_count();
        let mut ext_preds: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); interval_count];
        for idx in 0..block_count {
            let block = BlockId(idx as u32);
            let to = find(&mut rep, partition.interval_of(block).index());
            for &pred in kernel.cfg.predecessors(block) {
                let from = find(&mut rep, partition.interval_of(pred).index());
                if from != to {
                    ext_preds[to].insert(from);
                }
            }
        }
        #[allow(clippy::needless_range_loop)]
        // `target` also names intervals, not just indexes `ext_preds`
        for target in 0..interval_count {
            let target_rep = find(&mut rep, target);
            if target_rep != target {
                continue; // already merged into something else this round
            }
            if target == find(&mut rep, entry_interval) {
                continue; // never merge the entry interval away
            }
            let preds = &ext_preds[target];
            if preds.len() != 1 {
                continue;
            }
            let source = *preds.iter().next().expect("len checked");
            let source_rep = find(&mut rep, source);
            if source_rep == target_rep {
                continue;
            }
            let union = working_sets[source_rep].union(&working_sets[target_rep]);
            if union.len() <= max_registers {
                rep[target_rep] = source_rep;
                working_sets[source_rep] = union;
                merged_any = true;
            }
        }
        if !merged_any {
            break;
        }
    }

    // Rebuild a dense partition from the representatives.
    let mut new_ids: Vec<Option<u32>> = vec![None; partition.interval_count()];
    let mut intervals: Vec<RegisterInterval> = Vec::new();
    let mut assignment = Vec::with_capacity(block_count);
    // Assign new ids in representative-discovery order based on block order so
    // the result is deterministic.
    for idx in 0..block_count {
        let block = BlockId(idx as u32);
        let old = partition.interval_of(block).index();
        let root = find(&mut rep, old);
        let new_id = match new_ids[root] {
            Some(id) => id,
            None => {
                let id = intervals.len() as u32;
                new_ids[root] = Some(id);
                // The merged interval's header is the header of the
                // representative (the interval everything merged *into*).
                intervals.push(RegisterInterval {
                    id: IntervalId(id),
                    header: partition.interval(IntervalId(root as u32)).header,
                    blocks: Vec::new(),
                    working_set: working_sets[root],
                });
                id
            }
        };
        assignment.push(IntervalId(new_id));
        intervals[new_id as usize].blocks.push(block);
    }
    // Put each interval's header first in its block list.
    for interval in &mut intervals {
        let header = interval.header;
        if let Some(pos) = interval.blocks.iter().position(|&b| b == header) {
            interval.blocks.swap(0, pos);
        }
    }
    RegisterIntervalPartition::new(intervals, assignment, max_registers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register_interval::form_register_intervals;
    use ltrf_isa::{ArchReg, KernelBuilder, Opcode};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    /// Nested loop as in the paper's Figure 6: after pass 1 the preheader A
    /// and the loop {B, C} are separate intervals; pass 2 merges them when
    /// the combined working-set fits.
    fn nested_loop(regs_a: u8, regs_loop: u8) -> Kernel {
        let mut b = KernelBuilder::new("nest", 64);
        let a = b.entry_block();
        let body = b.add_block();
        let latch = b.add_block();
        let exit = b.add_block();
        for i in 0..regs_a {
            b.push(a, Opcode::IAlu, Some(r(i)), &[]);
        }
        b.jump(a, body);
        for i in 0..regs_loop {
            b.push(body, Opcode::FAlu, Some(r(16 + i)), &[r(0)]);
        }
        b.loop_branch(body, body, latch, 4);
        b.loop_branch(latch, a, exit, 2);
        b.exit(exit);
        b.build().unwrap()
    }

    #[test]
    fn pass2_merges_preheader_into_loop_when_it_fits() {
        let kernel = nested_loop(3, 4);
        let (k2, p1) = form_register_intervals(&kernel, 16).unwrap();
        assert!(p1.interval_count() >= 2, "pass 1 keeps the loop separate");
        let p2 = reduce_intervals(&k2, &p1, 16);
        assert!(
            p2.interval_count() < p1.interval_count(),
            "pass 2 should merge at least one interval"
        );
        assert!(p2.invariant_violations(&k2.cfg).is_empty());
        // The entry block and the loop body now share an interval.
        assert_eq!(
            p2.interval_of(kernel.cfg.entry()),
            p2.interval_of(ltrf_isa::BlockId(1))
        );
    }

    #[test]
    fn pass2_respects_budget() {
        // 10 + 10 registers cannot merge under a 16-register budget.
        let kernel = nested_loop(10, 10);
        let (k2, p1) = form_register_intervals(&kernel, 16).unwrap();
        let p2 = reduce_intervals(&k2, &p1, 16);
        assert!(p2.invariant_violations(&k2.cfg).is_empty());
        assert!(p2.max_working_set() <= 16);
        // entry and loop body remain in different intervals
        assert_ne!(
            p2.interval_of(kernel.cfg.entry()),
            p2.interval_of(ltrf_isa::BlockId(1))
        );
    }

    #[test]
    fn pass2_is_idempotent() {
        let kernel = nested_loop(3, 4);
        let (k2, p1) = form_register_intervals(&kernel, 16).unwrap();
        let p2 = reduce_intervals(&k2, &p1, 16);
        let p3 = reduce_intervals(&k2, &p2, 16);
        assert_eq!(p2.interval_count(), p3.interval_count());
    }

    #[test]
    fn pass2_never_merges_entry_away() {
        let kernel = nested_loop(2, 2);
        let (k2, p1) = form_register_intervals(&kernel, 16).unwrap();
        let p2 = reduce_intervals(&k2, &p1, 16);
        // The interval containing the entry block must still contain it.
        let entry_interval = p2.interval_of(k2.cfg.entry());
        assert!(p2.interval(entry_interval).contains(k2.cfg.entry()));
    }
}
