//! Lowering: from a dynamic per-warp PC stream to a structured kernel.
//!
//! The first warp stream of the trace acts as the control-flow witness. The
//! pass rebuilds a static program from the distinct PCs, splits it into basic
//! blocks at the targets and fall-throughs of observed control transfers, and
//! annotates every two-way branch with a [`BranchBehavior`] recovered from
//! the dynamic taken/not-taken counts (an exact `Loop { trip_count }` when
//! the pattern is a uniform counted loop, a `Probabilistic` rate otherwise).
//! Control records (`BRA`/`EXIT`) are materialised as `Nop` instructions in
//! front of their block terminator so the lowered kernel replays one dynamic
//! instruction per raw trace record — the property that lets tests pin the
//! replayed stream against the raw PC sequence.
//!
//! The simplifications relative to real accelsim semantics (single-warp
//! witness, ≤2-way branches, operand truncation) are catalogued in the
//! repository's `DESIGN.md`.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ltrf_isa::trace::TraceWalker;
use ltrf_isa::{
    ArchReg, BlockId, BranchBehavior, Instruction, Kernel, KernelBuilder, LaunchConfig, Opcode,
    RegisterSensitivity,
};
use ltrf_workloads::MemoryProfile;

use crate::{LoweringBounds, TraceError, TraceFile, TraceInstruction, TraceOp};

/// Register count at and above which a lowered kernel is classified
/// register-sensitive (mirrors the workload generator's heuristic).
pub(crate) const SENSITIVITY_THRESHOLD_REGS: u16 = 40;

/// A lowered trace: the kernel plus the PC provenance of every instruction.
#[derive(Debug, Clone)]
pub struct LoweredKernel {
    /// The reconstructed kernel.
    pub kernel: Kernel,
    /// For each block (by index), the source PC of each instruction.
    pc_table: Vec<Vec<u64>>,
    /// The bounds the trace was lowered under.
    bounds: LoweringBounds,
}

impl LoweredKernel {
    /// The trace PC a lowered instruction came from.
    #[must_use]
    pub(crate) fn pc_of(&self, block: BlockId, index: usize) -> Option<u64> {
        self.pc_table.get(block.index())?.get(index).copied()
    }

    /// Replays the lowered kernel with a [`TraceWalker`] and returns the PC
    /// sequence it executes. For traces whose branches lower to exact
    /// (`Loop`/`AlwaysTaken`/`NeverTaken`) behaviors this reproduces the raw
    /// trace's PC stream record for record, independent of `seed`.
    #[must_use]
    pub fn replayed_pc_sequence(&self, seed: u64) -> Vec<u64> {
        let mut pcs = Vec::new();
        TraceWalker::new(&self.kernel, seed)
            .with_max_instructions(self.bounds.max_dynamic_instructions)
            .walk(|entry| {
                if let Some(pc) = self.pc_of(entry.block, entry.index) {
                    pcs.push(pc);
                }
            });
        pcs
    }
}

/// Classifies a trace's memory behaviour from its global-memory addresses.
///
/// High reuse of 128-byte lines means the footprint is cache-friendly;
/// a single consistent stride across consecutive accesses means streaming;
/// anything else is irregular. Traces without addresses default to
/// cache-resident (they exercise no memory system to speak of).
#[must_use]
pub fn memory_profile(trace: &TraceFile) -> MemoryProfile {
    const LINE_BYTES: u64 = 128;
    let addresses: Vec<u64> = trace
        .warps
        .iter()
        .flat_map(|w| w.instructions.iter())
        .filter(|i| {
            i.mem_width > 0
                && matches!(
                    i.op,
                    TraceOp::Op(Opcode::LoadGlobal) | TraceOp::Op(Opcode::StoreGlobal)
                )
        })
        .flat_map(|i| i.addresses.iter().copied())
        .collect();
    if addresses.is_empty() {
        return MemoryProfile::CacheResident;
    }
    let lines: BTreeSet<u64> = addresses.iter().map(|a| a / LINE_BYTES).collect();
    let reuse = addresses.len() as f64 / lines.len() as f64;
    if reuse >= 4.0 {
        return MemoryProfile::CacheResident;
    }
    let strided = addresses.len() >= 3
        && addresses
            .windows(2)
            .map(|w| w[1].wrapping_sub(w[0]))
            .collect::<BTreeSet<u64>>()
            .len()
            == 1;
    if strided {
        MemoryProfile::Streaming
    } else {
        MemoryProfile::Irregular
    }
}

/// Does this record end a basic block purely by virtue of its opcode?
fn is_control(op: TraceOp) -> bool {
    matches!(op, TraceOp::Branch | TraceOp::Exit)
}

/// The instruction a trace record lowers to. Control records become `Nop`s
/// so every raw record has a lowered counterpart (their transfer effect lives
/// in the block terminator); operand lists are truncated to the IR's limits.
fn lowered_instruction(record: &TraceInstruction) -> Instruction {
    let (opcode, dst, srcs): (Opcode, Option<u8>, &[u8]) = match record.op {
        TraceOp::Op(op) => (op, record.dsts.first().copied(), &record.srcs),
        TraceOp::Branch => (Opcode::Nop, None, &record.srcs),
        TraceOp::Exit => (Opcode::Nop, None, &[]),
    };
    let srcs: Vec<ArchReg> = srcs
        .iter()
        .take(Instruction::MAX_SOURCES)
        .map(|&r| ArchReg::new(r))
        .collect();
    Instruction::new(opcode, dst.map(ArchReg::new), &srcs)
}

/// Recovers a branch annotation from dynamic taken/not-taken counts.
fn branch_behavior(taken_count: u64, not_taken_count: u64, is_back_edge: bool) -> BranchBehavior {
    debug_assert!(taken_count > 0 && not_taken_count > 0);
    if is_back_edge && taken_count.is_multiple_of(not_taken_count) {
        let per_entry = taken_count / not_taken_count;
        if let Ok(trips) = u32::try_from(per_entry + 1) {
            return BranchBehavior::Loop { trip_count: trips };
        }
    }
    BranchBehavior::Probabilistic {
        taken_probability: taken_count as f64 / (taken_count + not_taken_count) as f64,
    }
}

/// Lowers a parsed trace to a kernel under the given bounds.
///
/// # Errors
///
/// Returns a typed [`TraceError`] when the stream exceeds the bounds, uses
/// more registers than the ISA allows, or implies control flow the kernel IR
/// cannot express.
pub fn lower(trace: &TraceFile, bounds: &LoweringBounds) -> Result<LoweredKernel, TraceError> {
    let stream = &trace
        .warps
        .first()
        .ok_or(TraceError::EmptyTrace)?
        .instructions;
    if stream.is_empty() {
        return Err(TraceError::EmptyTrace);
    }
    if stream.len() as u64 > bounds.max_dynamic_instructions {
        return Err(TraceError::DynamicLimitExceeded {
            instructions: stream.len() as u64,
            limit: bounds.max_dynamic_instructions,
        });
    }

    // Static program: first record per PC wins; later records must agree on
    // the operation (a disagreement means the stream is not a single kernel).
    let mut static_map: BTreeMap<u64, &TraceInstruction> = BTreeMap::new();
    for record in stream {
        match static_map.get(&record.pc) {
            None => {
                static_map.insert(record.pc, record);
            }
            Some(first) if first.op != record.op => {
                return Err(TraceError::IrregularControlFlow {
                    pc: record.pc,
                    message: format!(
                        "pc executes both {} and {}",
                        first.op.mnemonic(),
                        record.op.mnemonic()
                    ),
                });
            }
            Some(_) => {}
        }
    }

    // Fall-through successor of each static PC, and the observed dynamic
    // successor counts of each PC.
    let pcs: Vec<u64> = static_map.keys().copied().collect();
    let next_static: HashMap<u64, u64> = pcs.windows(2).map(|w| (w[0], w[1])).collect();
    let mut successors: HashMap<u64, BTreeMap<u64, u64>> = HashMap::new();
    for pair in stream.windows(2) {
        *successors
            .entry(pair[0].pc)
            .or_default()
            .entry(pair[1].pc)
            .or_insert(0) += 1;
    }
    let empty = BTreeMap::new();
    let succs_of = |pc: u64| successors.get(&pc).unwrap_or(&empty);

    // A PC ends its block if it is a control record or was ever observed
    // doing anything other than falling through.
    let ends_block = |pc: u64| {
        is_control(static_map[&pc].op)
            || succs_of(pc).len() > 1
            || succs_of(pc)
                .keys()
                .any(|&t| next_static.get(&pc) != Some(&t))
    };

    // Block leaders: the entry PC plus every observed transfer target.
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.insert(stream[0].pc);
    for &pc in &pcs {
        if ends_block(pc) {
            leaders.extend(succs_of(pc).keys().copied());
        }
    }

    // Split the sorted static program at the leaders.
    let mut blocks: Vec<Vec<u64>> = Vec::new();
    for &pc in &pcs {
        if leaders.contains(&pc) || blocks.is_empty() {
            blocks.push(Vec::new());
        }
        blocks.last_mut().expect("a block was just opened").push(pc);
    }
    // Only the last instruction of a block may transfer control; interior
    // transfers would mean the leader analysis above is inconsistent.
    for block in &blocks {
        for &pc in &block[..block.len() - 1] {
            if ends_block(pc) {
                return Err(TraceError::IrregularControlFlow {
                    pc,
                    message: "control transfer in the middle of a basic block".to_string(),
                });
            }
        }
    }
    if blocks.len() > bounds.max_blocks {
        return Err(TraceError::TooManyBlocks {
            blocks: blocks.len(),
            limit: bounds.max_blocks,
        });
    }

    // The builder's entry block must be the trace's entry block.
    let entry_pc = stream[0].pc;
    blocks.sort_by_key(|b| (b[0] != entry_pc, b[0]));

    // Per-thread register demand: the header's count or the largest register
    // actually referenced, whichever is larger.
    let max_reg = trace
        .warps
        .iter()
        .flat_map(|w| w.instructions.iter())
        .flat_map(|i| i.dsts.iter().chain(i.srcs.iter()))
        .copied()
        .max();
    let derived_regs = max_reg
        .map_or(0, |r| u32::from(r) + 1)
        .max(trace.header.nregs);
    if derived_regs > 256 {
        return Err(TraceError::TooManyRegisters {
            declared: derived_regs,
        });
    }
    let regs_per_thread = u16::try_from(derived_regs.max(1)).expect("bounded above by 256");

    let mut builder = KernelBuilder::new(trace.header.kernel_name.as_str(), regs_per_thread);
    builder.launch(LaunchConfig::new(
        trace.header.warps_per_block(),
        trace.header.blocks_per_grid(),
        trace.header.shmem,
    ));
    builder.sensitivity(if regs_per_thread >= SENSITIVITY_THRESHOLD_REGS {
        RegisterSensitivity::Sensitive
    } else {
        RegisterSensitivity::Insensitive
    });

    let mut block_ids: Vec<BlockId> = vec![builder.entry_block()];
    for _ in 1..blocks.len() {
        block_ids.push(builder.add_block());
    }
    let block_of: HashMap<u64, BlockId> = blocks
        .iter()
        .zip(&block_ids)
        .map(|(b, &id)| (b[0], id))
        .collect();

    let mut pc_table: Vec<Vec<u64>> = vec![Vec::new(); blocks.len()];
    for (block, &id) in blocks.iter().zip(&block_ids) {
        for &pc in block {
            builder.push_instruction(id, lowered_instruction(static_map[&pc]));
            pc_table[id.index()].push(pc);
        }

        let last = *block.last().expect("blocks are non-empty");
        let succs = succs_of(last);
        let resolve = |target: u64| {
            block_of
                .get(&target)
                .copied()
                .ok_or_else(|| TraceError::IrregularControlFlow {
                    pc: last,
                    message: format!("transfer to pc {target:#06x}, which is not a block leader"),
                })
        };
        match succs.len() {
            0 => {
                // End of the witness stream: an explicit EXIT, or a trace
                // that simply stops (treated as an implicit exit).
                builder.exit(id);
            }
            1 => {
                let (&target, _) = succs.iter().next().expect("len checked");
                if static_map[&last].op == TraceOp::Exit {
                    return Err(TraceError::IrregularControlFlow {
                        pc: last,
                        message: "EXIT record has a dynamic successor".to_string(),
                    });
                }
                builder.jump(id, resolve(target)?);
            }
            2 => {
                let fallthrough = next_static.get(&last).copied();
                let mut taken_pc = None;
                let mut taken_count = 0;
                let mut not_taken_count = 0;
                for (&target, &count) in succs {
                    if Some(target) == fallthrough {
                        not_taken_count = count;
                    } else {
                        taken_pc = Some(target);
                        taken_count = count;
                    }
                }
                let Some(taken) = taken_pc else {
                    return Err(TraceError::IrregularControlFlow {
                        pc: last,
                        message: "two-way transfer with two fall-through targets".to_string(),
                    });
                };
                if not_taken_count == 0 {
                    return Err(TraceError::IrregularControlFlow {
                        pc: last,
                        message: "two-way transfer with no fall-through target".to_string(),
                    });
                }
                let behavior = branch_behavior(taken_count, not_taken_count, taken <= last);
                let fallthrough = fallthrough.expect("not_taken_count > 0 implies a fall-through");
                builder.branch(id, resolve(taken)?, resolve(fallthrough)?, behavior);
            }
            n => {
                return Err(TraceError::IrregularControlFlow {
                    pc: last,
                    message: format!("{n}-way transfer cannot be expressed as a branch"),
                });
            }
        }
    }

    let kernel = builder.build().map_err(|e| TraceError::Lowering {
        message: e.to_string(),
    })?;
    Ok(LoweredKernel {
        kernel,
        pc_table,
        bounds: *bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_str;

    fn lowered(source: &str) -> LoweredKernel {
        lower(&parse_str(source).unwrap(), &LoweringBounds::default()).unwrap()
    }

    const STRAIGHT: &str = "\
-kernel name = straight
-grid dim = (1,1,1)
-block dim = (32,1,1)
-nregs = 6
warp = 0
0000 ffffffff 1 R0 MOV 0 0
0008 ffffffff 1 R1 IADD 1 R0 0
0010 ffffffff 1 R2 FFMA 3 R0 R1 R2 0
0018 ffffffff 0 STG 2 R0 R2 4 0x20000000
0020 ffffffff 0 EXIT 0 0
";

    const LOOP: &str = "\
-kernel name = looped
-grid dim = (1,1,1)
-block dim = (32,1,1)
-nregs = 5
warp = 0
0000 ffffffff 1 R0 MOV 0 0
0008 ffffffff 1 R1 FADD 2 R1 R0 0
0010 ffffffff 1 R0 ISETP 1 R0 0
0018 ffffffff 0 BRA 0 0
0008 ffffffff 1 R1 FADD 2 R1 R0 0
0010 ffffffff 1 R0 ISETP 1 R0 0
0018 ffffffff 0 BRA 0 0
0008 ffffffff 1 R1 FADD 2 R1 R0 0
0010 ffffffff 1 R0 ISETP 1 R0 0
0018 ffffffff 0 BRA 0 0
0020 ffffffff 0 EXIT 0 0
";

    #[test]
    fn straight_line_lowers_to_one_block() {
        let l = lowered(STRAIGHT);
        assert_eq!(l.kernel.cfg.block_count(), 1);
        assert_eq!(l.kernel.static_instruction_count(), 5);
        assert_eq!(l.kernel.regs_per_thread(), 6);
        assert_eq!(l.replayed_pc_sequence(1), vec![0x0, 0x8, 0x10, 0x18, 0x20]);
    }

    #[test]
    fn counted_loop_recovers_a_loop_annotation() {
        let l = lowered(LOOP);
        // entry [0000], body [0008..0018], exit [0020]
        assert_eq!(l.kernel.cfg.block_count(), 3);
        let raw: Vec<u64> = parse_str(LOOP).unwrap().warps[0]
            .instructions
            .iter()
            .map(|i| i.pc)
            .collect();
        for seed in [1, 7, 99] {
            assert_eq!(l.replayed_pc_sequence(seed), raw, "seed {seed}");
        }
    }

    #[test]
    fn launch_and_sensitivity_come_from_the_header() {
        let l = lowered(STRAIGHT);
        assert_eq!(l.kernel.launch().warps_per_block, 1);
        assert_eq!(l.kernel.launch().blocks_per_grid, 1);
        assert_eq!(l.kernel.sensitivity(), RegisterSensitivity::Insensitive);

        let pressured = STRAIGHT.replace("-nregs = 6", "-nregs = 96");
        let l = lowered(&pressured);
        assert_eq!(l.kernel.regs_per_thread(), 96);
        assert_eq!(l.kernel.sensitivity(), RegisterSensitivity::Sensitive);
    }

    #[test]
    fn referenced_registers_can_exceed_the_header_count() {
        let bumped = STRAIGHT.replace("-nregs = 6", "-nregs = 2");
        assert_eq!(lowered(&bumped).kernel.regs_per_thread(), 3);
    }

    #[test]
    fn bounds_are_enforced() {
        let trace = parse_str(LOOP).unwrap();
        let err = lower(
            &trace,
            &LoweringBounds {
                max_dynamic_instructions: 4,
                ..LoweringBounds::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TraceError::DynamicLimitExceeded { limit: 4, .. }
        ));

        let err = lower(
            &trace,
            &LoweringBounds {
                max_blocks: 2,
                ..LoweringBounds::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            TraceError::TooManyBlocks {
                blocks: 3,
                limit: 2
            }
        ));
    }

    #[test]
    fn memory_profiles_follow_the_address_stream() {
        assert_eq!(
            memory_profile(&parse_str(LOOP).unwrap()),
            MemoryProfile::CacheResident
        );

        let streaming = "\
-kernel name = s
-grid dim = (1,1,1)
-block dim = (32,1,1)
-nregs = 4
warp = 0
0000 ffffffff 1 R1 LDG 1 R0 4 0x1000
0008 ffffffff 1 R2 LDG 1 R0 4 0x2000
0010 ffffffff 1 R3 LDG 1 R0 4 0x3000
0018 ffffffff 0 EXIT 0 0
";
        assert_eq!(
            memory_profile(&parse_str(streaming).unwrap()),
            MemoryProfile::Streaming
        );

        let irregular = streaming.replace("0x3000", "0x9104");
        assert_eq!(
            memory_profile(&parse_str(&irregular).unwrap()),
            MemoryProfile::Irregular
        );

        let resident = streaming
            .replace("0x2000", "0x1004")
            .replace("0x3000", "0x1008")
            .replace("0x1000", "0x1000 0x100c");
        assert_eq!(
            memory_profile(&parse_str(&resident).unwrap()),
            MemoryProfile::CacheResident
        );
    }

    #[test]
    fn divergent_branches_become_probabilistic() {
        // A diamond inside a counted loop: the head branch goes each way
        // once, the latch loops back once before exiting.
        let diamond = "\
-kernel name = d
-grid dim = (1,1,1)
-block dim = (32,1,1)
-nregs = 4
warp = 0
0000 ffffffff 0 BRA 1 R0 0
0008 ffffffff 1 R1 IADD 0 0
0010 ffffffff 1 R2 IADD 0 0
0018 ffffffff 0 BRA 0 0
0000 ffffffff 0 BRA 1 R0 0
0010 ffffffff 1 R2 IADD 0 0
0018 ffffffff 0 BRA 0 0
0020 ffffffff 0 EXIT 0 0
";
        let trace = parse_str(diamond).unwrap();
        let l = lower(&trace, &LoweringBounds::default()).unwrap();
        // [0000] head, [0008] then-side, [0010,0018] join+latch, [0020] exit.
        assert_eq!(l.kernel.cfg.block_count(), 4);
        let head = l.kernel.cfg.block(BlockId(0));
        match head.terminator() {
            Some(ltrf_isa::Terminator::Branch { behavior, .. }) => {
                assert_eq!(
                    *behavior,
                    BranchBehavior::Probabilistic {
                        taken_probability: 0.5
                    }
                );
            }
            other => panic!("expected a branch terminator, got {other:?}"),
        }
    }

    #[test]
    fn irregular_control_flow_is_a_typed_error() {
        // pc 0000 transfers to three distinct targets.
        let indirect = "\
-kernel name = i
-grid dim = (1,1,1)
-block dim = (32,1,1)
-nregs = 4
warp = 0
0000 ffffffff 0 BRA 0 0
0008 ffffffff 1 R1 IADD 0 0
0000 ffffffff 0 BRA 0 0
0010 ffffffff 1 R1 IADD 0 0
0000 ffffffff 0 BRA 0 0
0018 ffffffff 0 EXIT 0 0
";
        let err = lower(&parse_str(indirect).unwrap(), &LoweringBounds::default()).unwrap_err();
        assert!(
            matches!(err, TraceError::IrregularControlFlow { pc: 0, .. }),
            "{err:?}"
        );
    }
}
