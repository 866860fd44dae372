//! Basic blocks, terminators, and branch behaviour annotations.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Instruction, RegSet};

/// Identifier of a basic block inside a kernel's control-flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Returns the block index as a `usize`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Dynamic behaviour of a conditional branch.
///
/// The synthetic workloads do not compute real data, so branches carry an
/// annotation describing how they behave at run time. The annotation is used
/// both by the dynamic trace walker (Table 4, hit-rate studies) and by the
/// timing simulator to drive per-warp control flow deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BranchBehavior {
    /// A loop back-edge taken `trip_count - 1` times and then falling
    /// through; i.e. the loop body executes `trip_count` times per entry.
    Loop {
        /// Number of body executions per loop entry. Must be at least 1.
        trip_count: u32,
    },
    /// A data-dependent branch taken with the given probability on each
    /// dynamic execution (resolved with a per-warp deterministic RNG).
    Probabilistic {
        /// Probability in `[0, 1]` that the branch is taken.
        taken_probability: f64,
    },
    /// A branch that is always taken.
    AlwaysTaken,
    /// A branch that is never taken.
    NeverTaken,
}

impl BranchBehavior {
    /// A balanced if/else branch (taken with probability 0.5).
    #[must_use]
    pub const fn balanced() -> Self {
        BranchBehavior::Probabilistic {
            taken_probability: 0.5,
        }
    }
}

/// The terminator of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump to another block.
    Jump(BlockId),
    /// Two-way conditional branch.
    Branch {
        /// Target when the branch is taken.
        taken: BlockId,
        /// Target when the branch falls through.
        not_taken: BlockId,
        /// Dynamic behaviour of the branch.
        behavior: BranchBehavior,
    },
    /// Kernel exit for the executing warp.
    Exit,
}

impl Terminator {
    /// Returns the possible successor blocks, in deterministic order.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Terminator::Jump(t) => vec![t],
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                if taken == not_taken {
                    vec![taken]
                } else {
                    vec![taken, not_taken]
                }
            }
            Terminator::Exit => Vec::new(),
        }
    }
}

/// A basic block: a straight-line sequence of instructions ending in a
/// [`Terminator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    id: BlockId,
    instructions: Vec<Instruction>,
    terminator: Option<Terminator>,
}

impl BasicBlock {
    /// Creates an empty block with the given id.
    #[must_use]
    pub fn new(id: BlockId) -> Self {
        BasicBlock {
            id,
            instructions: Vec::new(),
            terminator: None,
        }
    }

    /// Returns this block's id.
    #[must_use]
    pub const fn id(&self) -> BlockId {
        self.id
    }

    /// Returns the instructions of the block.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Returns mutable access to the instructions (used by the liveness pass
    /// to fill in dead-operand masks).
    pub fn instructions_mut(&mut self) -> &mut [Instruction] {
        &mut self.instructions
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Instruction) {
        self.instructions.push(inst);
    }

    /// Returns the terminator, if one has been set.
    #[must_use]
    pub const fn terminator(&self) -> Option<&Terminator> {
        self.terminator.as_ref()
    }

    /// Sets the terminator, replacing any existing one.
    pub(crate) fn set_terminator(&mut self, t: Terminator) {
        self.terminator = Some(t);
    }

    /// Returns the number of instructions (excluding the terminator).
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` if the block contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Returns the successor blocks according to the terminator.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator
            .as_ref()
            .map(Terminator::successors)
            .unwrap_or_default()
    }

    /// Returns the set of all registers read or written anywhere in the block.
    #[must_use]
    pub fn touched_registers(&self) -> RegSet {
        let mut set = RegSet::new();
        for inst in &self.instructions {
            set.union_with(&inst.touched());
        }
        set
    }

    /// Returns the set of registers read before being written in this block
    /// (the block's upward-exposed uses), and the set of registers written.
    ///
    /// These are the `use`/`def` sets consumed by the liveness data-flow
    /// analysis in `ltrf-compiler`.
    #[must_use]
    pub fn use_def_sets(&self) -> (RegSet, RegSet) {
        let mut uses = RegSet::new();
        let mut defs = RegSet::new();
        for inst in &self.instructions {
            for r in inst.reads().iter() {
                if !defs.contains(r) {
                    uses.insert(r);
                }
            }
            defs.union_with(&inst.writes());
        }
        (uses, defs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, Opcode};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    fn block_with(insts: &[Instruction]) -> BasicBlock {
        let mut b = BasicBlock::new(BlockId(0));
        for i in insts {
            b.push(i.clone());
        }
        b
    }

    #[test]
    fn block_id_display() {
        assert_eq!(BlockId(3).to_string(), "bb3");
        assert_eq!(BlockId(3).index(), 3);
    }

    #[test]
    fn successors_of_terminators() {
        let j = Terminator::Jump(BlockId(1));
        assert_eq!(j.successors(), vec![BlockId(1)]);
        let b = Terminator::Branch {
            taken: BlockId(2),
            not_taken: BlockId(3),
            behavior: BranchBehavior::balanced(),
        };
        assert_eq!(b.successors(), vec![BlockId(2), BlockId(3)]);
        let same = Terminator::Branch {
            taken: BlockId(2),
            not_taken: BlockId(2),
            behavior: BranchBehavior::AlwaysTaken,
        };
        assert_eq!(same.successors(), vec![BlockId(2)]);
        assert!(Terminator::Exit.successors().is_empty());
    }

    #[test]
    fn touched_registers_unions_all_operands() {
        let b = block_with(&[
            Instruction::new(Opcode::IAlu, Some(r(1)), &[r(0)]),
            Instruction::new(Opcode::FAlu, Some(r(2)), &[r(1), r(3)]),
        ]);
        let t = b.touched_registers();
        assert_eq!(t.len(), 4);
        assert!(t.contains(r(3)));
    }

    #[test]
    fn use_def_sets_respect_order() {
        // r1 is defined before use -> not upward-exposed; r0 is used first.
        let b = block_with(&[
            Instruction::new(Opcode::IAlu, Some(r(1)), &[r(0)]),
            Instruction::new(Opcode::FAlu, Some(r(2)), &[r(1)]),
        ]);
        let (uses, defs) = b.use_def_sets();
        assert_eq!(uses.to_vec(), vec![r(0)]);
        assert_eq!(defs.len(), 2);
        assert!(defs.contains(r(1)) && defs.contains(r(2)));
    }

    #[test]
    fn terminator_replacement() {
        let mut b = BasicBlock::new(BlockId(5));
        assert!(b.terminator().is_none());
        assert!(b.is_empty());
        b.set_terminator(Terminator::Exit);
        assert_eq!(b.terminator(), Some(&Terminator::Exit));
        b.set_terminator(Terminator::Jump(BlockId(1)));
        assert_eq!(b.successors(), vec![BlockId(1)]);
    }
}
