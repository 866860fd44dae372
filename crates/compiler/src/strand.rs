//! Strand formation: the more constrained prefetch subgraphs used by the
//! software-managed hierarchical register file (SHRF) comparison point.
//!
//! A *strand* (following the terminology the paper adopts from the
//! compile-time-managed register-hierarchy work it compares against) is a
//! prefetch subgraph that, unlike a register-interval, may not contain
//! long-/variable-latency operations in its interior and may not contain
//! backward branches. In practice a strand therefore ends at
//!
//! * every long-latency instruction (global/local memory access, barrier),
//! * every basic-block boundary (we conservatively never let a strand span
//!   blocks, because any successor might be a loop header or a join point),
//! * and whenever its register working-set would exceed the budget.
//!
//! The consequence — much smaller working-sets and far more frequent
//! PREFETCH points — is exactly the effect §6.6 of the paper measures when it
//! compares LTRF (register-interval) against LTRF (strand) and SHRF.

use ltrf_isa::{Kernel, RegSet, RegisterSensitivity};

use crate::{CompileError, IntervalId, RegisterInterval, RegisterIntervalPartition};

/// Forms strands over `kernel` with a per-strand register budget of
/// `max_registers`.
///
/// Blocks are split so every strand is exactly one basic block; the returned
/// kernel therefore usually has more blocks than the input. The partition
/// maps every block to its strand.
///
/// # Errors
///
/// Returns [`CompileError::IntervalBudgetTooSmall`] if a single instruction
/// touches more than `max_registers` registers.
pub(crate) fn form_strands(
    kernel: &Kernel,
    max_registers: usize,
) -> Result<(Kernel, RegisterIntervalPartition), CompileError> {
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
    // Split every block at strand boundaries: after each long-latency
    // instruction and whenever the register budget would overflow.
    // Newly created blocks are appended to the CFG, so iterate until no block
    // needs further splitting.
    let mut cursor = 0;
    while cursor < cfg.block_count() {
        let block_id = ltrf_isa::BlockId(cursor as u32);
        let split_at = {
            let block = cfg.block(block_id);
            let mut ws = RegSet::new();
            let mut cut = None;
            for (idx, inst) in block.instructions().iter().enumerate() {
                let candidate = ws.union(&inst.touched());
                if candidate.len() > max_registers {
                    cut = Some(idx);
                    break;
                }
                ws = candidate;
                // A long-latency operation ends the strand *after* itself.
                if inst.opcode().is_long_latency() && idx + 1 < block.instructions().len() {
                    cut = Some(idx + 1);
                    break;
                }
            }
            cut
        };
        if let Some(at) = split_at {
            cfg.split_block(block_id, at);
        }
        cursor += 1;
    }

    // Every (possibly split) block is its own strand.
    let mut intervals = Vec::with_capacity(cfg.block_count());
    let mut assignment = Vec::with_capacity(cfg.block_count());
    for block in cfg.blocks() {
        let id = IntervalId(block.id().0);
        intervals.push(RegisterInterval {
            id,
            header: block.id(),
            blocks: vec![block.id()],
            working_set: block.touched_registers(),
        });
        assignment.push(id);
    }
    let partition = RegisterIntervalPartition::new(intervals, assignment, max_registers);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register_interval::form_register_intervals;
    use ltrf_isa::{straight_line_kernel, ArchReg, KernelBuilder, Opcode};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn strands_split_at_long_latency_ops() {
        let mut b = KernelBuilder::new("mem", 16);
        let e = b.entry_block();
        b.push(e, Opcode::FAlu, Some(r(0)), &[r(1)]);
        b.push(e, Opcode::LoadGlobal, Some(r(2)), &[r(0)]);
        b.push(e, Opcode::FAlu, Some(r(3)), &[r(2)]);
        b.push(e, Opcode::FAlu, Some(r(4)), &[r(3)]);
        b.exit(e);
        let kernel = b.build().unwrap();
        let (k2, p) = form_strands(&kernel, 16).unwrap();
        // The load ends the first strand, so there are at least 2 blocks.
        assert!(k2.cfg.block_count() >= 2);
        assert_eq!(p.interval_count(), k2.cfg.block_count());
        assert!(p.invariant_violations(&k2.cfg).is_empty());
    }

    #[test]
    fn strands_respect_register_budget() {
        let kernel = straight_line_kernel("wide", 32, 64);
        let (k2, p) = form_strands(&kernel, 8).unwrap();
        assert!(p.max_working_set() <= 8);
        assert!(p.invariant_violations(&k2.cfg).is_empty());
        assert_eq!(
            k2.static_instruction_count(),
            kernel.static_instruction_count()
        );
    }

    #[test]
    fn strands_are_finer_than_register_intervals() {
        // A loop whose body fits in one register-interval but contains a
        // global load: the register-interval keeps one PREFETCH for the loop,
        // the strand partition needs at least one per block.
        let mut b = KernelBuilder::new("loop", 16);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.push(entry, Opcode::Mov, Some(r(0)), &[]);
        b.jump(entry, body);
        b.push(body, Opcode::LoadGlobal, Some(r(1)), &[r(0)]);
        b.push(body, Opcode::FAlu, Some(r(2)), &[r(1)]);
        b.loop_branch(body, body, exit, 8);
        b.exit(exit);
        let kernel = b.build().unwrap();
        let (_, ri) = form_register_intervals(&kernel, 16).unwrap();
        let (_, strands) = form_strands(&kernel, 16).unwrap();
        assert!(strands.interval_count() > ri.interval_count());
    }

    #[test]
    fn strand_budget_error() {
        let mut b = KernelBuilder::new("wide", 8);
        let e = b.entry_block();
        b.push(e, Opcode::FFma, Some(r(0)), &[r(1), r(2), r(3)]);
        b.exit(e);
        let kernel = b.build().unwrap();
        assert!(form_strands(&kernel, 2).is_err());
    }
}
