//! Register-interval formation (Algorithm 1 of the LTRF paper).
//!
//! A *register-interval* is a subgraph of the kernel's CFG that
//!
//! 1. has a single control-flow entry point, and
//! 2. uses at most `N` registers, where `N` is the size of one warp's
//!    partition of the register-file cache.
//!
//! The first pass of the paper's formation algorithm grows each interval
//! greedily from a header block: a candidate block joins the current interval
//! when *all* of its predecessors already belong to the interval and the
//! accumulated register list still fits the budget. Basic blocks whose own
//! register demand overflows the budget are split. Blocks that cannot join
//! (loop headers reached through back edges, join points with predecessors in
//! other intervals) become headers of new intervals. The second pass
//! ([`crate::reduce`]) later merges intervals whose union still fits.
//!
//! ## Deviation from the paper's pseudo-code
//!
//! The paper admits a block into an interval when the union of its
//! predecessors' `output_list`s fits the budget, which bounds every *path*
//! through the interval but can let the union over divergent paths slightly
//! exceed `N`. Because the hardware sizes each warp's register-cache
//! partition to exactly `N` registers, this implementation uses the slightly
//! stronger condition that the union of the *entire interval's* working-set
//! with the candidate block's registers fits, so the partition invariant
//! `|working_set| ≤ N` always holds. This makes the intervals marginally more
//! conservative (never larger) than the paper's.

use std::collections::BTreeSet;

use ltrf_isa::{BlockId, Cfg, Kernel, RegSet, RegisterSensitivity};

use crate::{CompileError, IntervalId, RegisterInterval, RegisterIntervalPartition};

/// Per-block bookkeeping used while forming intervals.
#[derive(Debug, Clone, Default)]
struct BlockState {
    interval: Option<u32>,
    input_list: RegSet,
    output_list: RegSet,
    traversed: bool,
}

/// Forms register-intervals over `kernel` with a per-interval budget of
/// `max_registers`.
///
/// Returns the (possibly block-split) kernel together with the partition.
///
/// # Errors
///
/// Returns [`CompileError::IntervalBudgetTooSmall`] if a single instruction
/// touches more than `max_registers` registers, and
/// [`CompileError::InvalidSplitKernel`] if block splitting produced an
/// invalid kernel (which would be an internal bug).
pub(crate) fn form_register_intervals(
    kernel: &Kernel,
    max_registers: usize,
) -> Result<(Kernel, RegisterIntervalPartition), CompileError> {
    // Reject impossible budgets up front so the splitter cannot loop.
    for block in kernel.cfg.blocks() {
        for inst in block.instructions() {
            let needed = inst.touched().len();
            if needed > max_registers {
                return Err(CompileError::IntervalBudgetTooSmall {
                    block: block.id(),
                    required: needed,
                    budget: max_registers,
                });
            }
        }
    }

    let mut cfg = kernel.cfg.clone();
    let mut states: Vec<BlockState> = vec![BlockState::default(); cfg.block_count()];
    let mut interval_ws: Vec<RegSet> = Vec::new();
    let mut interval_header: Vec<BlockId> = Vec::new();

    let mut worklist: Vec<BlockId> = Vec::new();
    let entry = cfg.entry();
    new_interval(&mut interval_ws, &mut interval_header, entry, &mut states);
    worklist.push(entry);

    while let Some(block) = worklist.pop() {
        let interval = states[block.index()]
            .interval
            .expect("worklist blocks always have an interval");
        traverse(
            &mut cfg,
            &mut states,
            &mut interval_ws,
            &mut interval_header,
            &mut worklist,
            block,
            max_registers,
        );
        // Greedily absorb blocks whose predecessors all belong to `interval`.
        loop {
            let candidate = find_absorbable(&cfg, &states, &interval_ws, interval, max_registers);
            let Some(h) = candidate else { break };
            let input = union_of_pred_outputs(&cfg, &states, h);
            states[h.index()].interval = Some(interval);
            states[h.index()].input_list = input;
            traverse(
                &mut cfg,
                &mut states,
                &mut interval_ws,
                &mut interval_header,
                &mut worklist,
                h,
                max_registers,
            );
        }
        // Seed new intervals from the interval's external successors.
        let successors = interval_successors(&cfg, &states, interval);
        for s in successors {
            if states[s.index()].interval.is_none() {
                new_interval(&mut interval_ws, &mut interval_header, s, &mut states);
                worklist.push(s);
            }
        }
    }

    // Any block not yet assigned (possible only if unreachable, which
    // validation forbids) gets its own interval for robustness.
    for idx in 0..cfg.block_count() {
        if states[idx].interval.is_none() {
            let b = BlockId(idx as u32);
            new_interval(&mut interval_ws, &mut interval_header, b, &mut states);
            let touched = cfg.block(b).touched_registers();
            states[idx].output_list = touched;
            let id = states[idx].interval.unwrap();
            interval_ws[id as usize] = touched;
        }
    }

    let partition = build_partition(&cfg, &states, &interval_ws, &interval_header, max_registers);
    let rebuilt = Kernel::new(
        kernel.name().to_string(),
        cfg,
        kernel.regs_per_thread(),
        kernel.launch(),
        if kernel.is_register_sensitive() {
            RegisterSensitivity::Sensitive
        } else {
            RegisterSensitivity::Insensitive
        },
    )?;
    Ok((rebuilt, partition))
}

fn new_interval(
    interval_ws: &mut Vec<RegSet>,
    interval_header: &mut Vec<BlockId>,
    header: BlockId,
    states: &mut [BlockState],
) -> u32 {
    let id = interval_ws.len() as u32;
    interval_ws.push(RegSet::new());
    interval_header.push(header);
    states[header.index()].interval = Some(id);
    states[header.index()].input_list = RegSet::new();
    id
}

fn union_of_pred_outputs(cfg: &Cfg, states: &[BlockState], block: BlockId) -> RegSet {
    let mut set = RegSet::new();
    for &p in cfg.predecessors(block) {
        set.union_with(&states[p.index()].output_list);
    }
    set
}

/// Finds a block that can be absorbed into `interval`: unassigned, all
/// predecessors already in `interval` and traversed, and the interval's
/// working-set together with the block's own registers still fits the budget.
fn find_absorbable(
    cfg: &Cfg,
    states: &[BlockState],
    interval_ws: &[RegSet],
    interval: u32,
    max_registers: usize,
) -> Option<BlockId> {
    for idx in 0..cfg.block_count() {
        let block = BlockId(idx as u32);
        if states[idx].interval.is_some() {
            continue;
        }
        let preds = cfg.predecessors(block);
        if preds.is_empty() {
            continue;
        }
        let all_in = preds
            .iter()
            .all(|p| states[p.index()].interval == Some(interval) && states[p.index()].traversed);
        if !all_in {
            continue;
        }
        let combined = interval_ws[interval as usize].union(&cfg.block(block).touched_registers());
        if combined.len() <= max_registers {
            return Some(block);
        }
    }
    None
}

/// Walks a block's instructions, accumulating its register list on top of its
/// `input_list`, splitting the block if the accumulated list overflows the
/// budget. The tail created by a split becomes the header of a new interval
/// and is pushed onto the worklist (Algorithm 1, lines 30–37).
#[allow(clippy::too_many_arguments)]
fn traverse(
    cfg: &mut Cfg,
    states: &mut Vec<BlockState>,
    interval_ws: &mut Vec<RegSet>,
    interval_header: &mut Vec<BlockId>,
    worklist: &mut Vec<BlockId>,
    block: BlockId,
    max_registers: usize,
) {
    let interval = states[block.index()]
        .interval
        .expect("traverse requires an assigned interval");
    let mut register_list = states[block.index()].input_list;
    let mut split_at: Option<usize> = None;
    for (idx, inst) in cfg.block(block).instructions().iter().enumerate() {
        let candidate = register_list.union(&inst.touched());
        if candidate.len() > max_registers {
            split_at = Some(idx);
            break;
        }
        register_list = candidate;
    }
    states[block.index()].output_list = register_list;
    states[block.index()].traversed = true;
    interval_ws[interval as usize].union_with(&register_list);

    if let Some(at) = split_at {
        let new_block = cfg.split_block(block, at);
        states.push(BlockState::default());
        debug_assert_eq!(new_block.index(), states.len() - 1);
        let id = new_interval(interval_ws, interval_header, new_block, states);
        let _ = id;
        worklist.push(new_block);
    }
}

/// Returns the blocks outside `interval` that are targets of an edge leaving
/// `interval`, in deterministic order.
fn interval_successors(cfg: &Cfg, states: &[BlockState], interval: u32) -> Vec<BlockId> {
    let mut out = BTreeSet::new();
    for idx in 0..cfg.block_count() {
        if states[idx].interval != Some(interval) {
            continue;
        }
        for s in cfg.successors(BlockId(idx as u32)) {
            if states[s.index()].interval != Some(interval) {
                out.insert(s);
            }
        }
    }
    out.into_iter().collect()
}

fn build_partition(
    cfg: &Cfg,
    states: &[BlockState],
    interval_ws: &[RegSet],
    interval_header: &[BlockId],
    max_registers: usize,
) -> RegisterIntervalPartition {
    let mut members: Vec<Vec<BlockId>> = vec![Vec::new(); interval_ws.len()];
    let mut assignment = Vec::with_capacity(cfg.block_count());
    for (idx, state) in states.iter().enumerate().take(cfg.block_count()) {
        let id = state.interval.expect("all blocks assigned");
        assignment.push(IntervalId(id));
        members[id as usize].push(BlockId(idx as u32));
    }
    // Some intervals may have ended up empty if their header was re-absorbed
    // (cannot happen with the current algorithm, but renumber defensively so
    // ids stay dense and every interval is non-empty).
    let mut intervals = Vec::new();
    let mut remap: Vec<Option<u32>> = vec![None; interval_ws.len()];
    for (old_id, blocks) in members.iter().enumerate() {
        if blocks.is_empty() {
            continue;
        }
        let new_id = intervals.len() as u32;
        remap[old_id] = Some(new_id);
        let header = interval_header[old_id];
        let mut ordered = vec![header];
        ordered.extend(blocks.iter().copied().filter(|&b| b != header));
        intervals.push(RegisterInterval {
            id: IntervalId(new_id),
            header,
            blocks: ordered,
            working_set: interval_ws[old_id],
        });
    }
    let assignment = assignment
        .into_iter()
        .map(|old| IntervalId(remap[old.index()].expect("non-empty interval")))
        .collect();
    RegisterIntervalPartition::new(intervals, assignment, max_registers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::{straight_line_kernel, ArchReg, BranchBehavior, KernelBuilder, Opcode};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    /// The nested-loop example of the paper's Figure 6: A -> B -> C, with a
    /// back edge C -> B (inner loop) and C -> A (outer loop).
    fn figure6_kernel(regs_a: u8, regs_b: u8, regs_c: u8) -> Kernel {
        let mut b = KernelBuilder::new("fig6", 64);
        let a = b.entry_block();
        let bb = b.add_block();
        let c = b.add_block();
        let latch = b.add_block();
        let exit = b.add_block();
        for i in 0..regs_a {
            b.push(a, Opcode::IAlu, Some(r(i)), &[]);
        }
        b.jump(a, bb);
        for i in 0..regs_b {
            b.push(bb, Opcode::FAlu, Some(r(20 + i)), &[r(0)]);
        }
        b.jump(bb, c);
        for i in 0..regs_c {
            b.push(c, Opcode::FAlu, Some(r(40 + i)), &[r(20)]);
        }
        // inner loop: C -> B
        b.loop_branch(c, bb, latch, 3);
        // outer loop: latch -> A
        b.loop_branch(latch, a, exit, 2);
        b.exit(exit);
        b.build().unwrap()
    }

    #[test]
    fn single_block_within_budget_is_one_interval() {
        let kernel = straight_line_kernel("k", 8, 40);
        let (k2, p) = form_register_intervals(&kernel, 16).unwrap();
        assert_eq!(p.interval_count(), 1);
        assert_eq!(p.max_working_set(), 8);
        assert!(p.invariant_violations(&k2.cfg).is_empty());
    }

    #[test]
    fn overflowing_block_is_split() {
        // 32 distinct registers in one block with a 16-register budget must
        // produce at least two intervals and split the block.
        let kernel = straight_line_kernel("k", 32, 64);
        let (k2, p) = form_register_intervals(&kernel, 16).unwrap();
        assert!(p.interval_count() >= 2);
        assert!(k2.cfg.block_count() > kernel.cfg.block_count());
        assert_eq!(
            k2.static_instruction_count(),
            kernel.static_instruction_count(),
            "splitting must not lose instructions"
        );
        assert!(p.max_working_set() <= 16);
        assert!(p.invariant_violations(&k2.cfg).is_empty());
    }

    #[test]
    fn loop_headers_start_new_intervals() {
        let kernel = figure6_kernel(2, 2, 2);
        let (k2, p) = form_register_intervals(&kernel, 16).unwrap();
        assert!(p.invariant_violations(&k2.cfg).is_empty());
        // A is alone in its interval because B has a back edge from C.
        let a_interval = p.interval_of(BlockId(0));
        let b_interval = p.interval_of(BlockId(1));
        assert_ne!(
            a_interval, b_interval,
            "loop header B must start a new interval"
        );
        // B and C share an interval (C's only predecessor is B).
        assert_eq!(p.interval_of(BlockId(2)), b_interval);
    }

    #[test]
    fn branch_diamond_keeps_budget() {
        // entry branches to two sides which join; every working set <= N.
        let mut b = KernelBuilder::new("diamond", 32);
        let entry = b.entry_block();
        let left = b.add_block();
        let right = b.add_block();
        let join = b.add_block();
        for i in 0..6 {
            b.push(entry, Opcode::IAlu, Some(r(i)), &[]);
        }
        b.branch(entry, left, right, BranchBehavior::balanced());
        for i in 0..6 {
            b.push(left, Opcode::FAlu, Some(r(10 + i)), &[r(0)]);
        }
        b.jump(left, join);
        for i in 0..6 {
            b.push(right, Opcode::FAlu, Some(r(20 + i)), &[r(1)]);
        }
        b.jump(right, join);
        b.push(join, Opcode::FAlu, Some(r(30)), &[r(2)]);
        b.exit(join);
        let kernel = b.build().unwrap();
        let (k2, p) = form_register_intervals(&kernel, 16).unwrap();
        assert!(p.invariant_violations(&k2.cfg).is_empty());
        for interval in p.intervals() {
            assert!(interval.working_set_size() <= 16);
        }
    }

    #[test]
    fn budget_smaller_than_an_instruction_errors() {
        let mut b = KernelBuilder::new("wide", 8);
        let e = b.entry_block();
        b.push(e, Opcode::FFma, Some(r(0)), &[r(1), r(2), r(3)]);
        b.exit(e);
        let kernel = b.build().unwrap();
        let err = form_register_intervals(&kernel, 2).unwrap_err();
        assert!(matches!(
            err,
            CompileError::IntervalBudgetTooSmall {
                required: 4,
                budget: 2,
                ..
            }
        ));
    }

    #[test]
    fn every_block_is_assigned_exactly_once() {
        let kernel = figure6_kernel(4, 5, 6);
        let (k2, p) = form_register_intervals(&kernel, 8).unwrap();
        assert!(p.invariant_violations(&k2.cfg).is_empty());
        let mut seen = std::collections::HashSet::new();
        for interval in p.intervals() {
            for b in &interval.blocks {
                assert!(seen.insert(*b), "block {b} in two intervals");
            }
        }
        assert_eq!(seen.len(), k2.cfg.block_count());
    }
}
