//! Control-flow graph over basic blocks.

use std::collections::{HashSet, VecDeque};

use serde::{Deserialize, Serialize};

use crate::{BasicBlock, BlockId, IsaError, Terminator};

/// A control-flow graph: a set of basic blocks with a designated entry block.
///
/// Successor edges are stored implicitly in each block's terminator;
/// predecessor lists are derived and cached when the CFG is constructed (and
/// re-derived whenever the structure is mutated through [`Cfg::split_block`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    entry: BlockId,
    preds: Vec<Vec<BlockId>>,
}

impl Cfg {
    /// Builds a CFG from blocks. Block *i* must have id `BlockId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or block ids are not dense and in order.
    #[must_use]
    pub fn new(blocks: Vec<BasicBlock>, entry: BlockId) -> Self {
        assert!(!blocks.is_empty(), "CFG must have at least one block");
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.id().index(), i, "block ids must be dense and ordered");
        }
        let mut cfg = Cfg {
            blocks,
            entry,
            preds: Vec::new(),
        };
        cfg.rebuild_preds();
        cfg
    }

    fn rebuild_preds(&mut self) {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in &self.blocks {
            for s in b.successors() {
                if s.index() < self.blocks.len() {
                    preds[s.index()].push(b.id());
                }
            }
        }
        self.preds = preds;
    }

    /// Returns the entry block id.
    #[must_use]
    pub const fn entry(&self) -> BlockId {
        self.entry
    }

    /// Returns the number of basic blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Returns the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Returns mutable access to the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Iterates over all blocks in id order.
    pub fn blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.iter()
    }

    /// Returns the successor blocks of `id`.
    #[must_use]
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id).successors()
    }

    /// Returns the predecessor blocks of `id`.
    #[must_use]
    pub fn predecessors(&self, id: BlockId) -> &[BlockId] {
        &self.preds[id.index()]
    }

    /// Returns all block ids in reverse post-order from the entry.
    ///
    /// Unreachable blocks are appended at the end in id order so that every
    /// block appears exactly once.
    #[must_use]
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut postorder = Vec::with_capacity(self.blocks.len());
        // Iterative DFS to avoid recursion limits on very deep CFGs.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some((block, child)) = stack.pop() {
            let succs = self.successors(block);
            if child < succs.len() {
                stack.push((block, child + 1));
                let s = succs[child];
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(block);
            }
        }
        postorder.reverse();
        for (i, seen) in visited.iter().enumerate() {
            if !seen {
                postorder.push(BlockId(i as u32));
            }
        }
        postorder
    }

    /// Returns the set of blocks reachable from the entry block.
    #[must_use]
    pub(crate) fn reachable(&self) -> HashSet<BlockId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(self.entry);
        seen.insert(self.entry);
        while let Some(b) = queue.pop_front() {
            for s in self.successors(b) {
                if seen.insert(s) {
                    queue.push_back(s);
                }
            }
        }
        seen
    }

    /// Returns the total number of static instructions in the CFG.
    #[must_use]
    pub fn static_instruction_count(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }

    /// Splits the block `id` at instruction index `at`, moving instructions
    /// `at..` (and the original terminator) into a new block appended at the
    /// end of the CFG. The original block gets a [`Terminator::Jump`] to the
    /// new block. Returns the new block's id.
    ///
    /// This mirrors the paper's Algorithm 1 lines 30–37, which cut a basic
    /// block whose active register list overflows the register-cache
    /// partition.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `at` is greater than the block
    /// length.
    pub fn split_block(&mut self, id: BlockId, at: usize) -> BlockId {
        let new_id = BlockId(self.blocks.len() as u32);
        let (tail, old_term) = {
            let block = &mut self.blocks[id.index()];
            assert!(at <= block.len(), "split point beyond block length");
            let tail: Vec<_> = block.instructions()[at..].to_vec();
            let old_term = *block.terminator().expect("split target must be terminated");
            // Truncate by rebuilding: BasicBlock does not expose truncate to
            // keep its invariants simple.
            let head: Vec<_> = block.instructions()[..at].to_vec();
            let mut replacement = BasicBlock::new(id);
            for inst in head {
                replacement.push(inst);
            }
            replacement.set_terminator(Terminator::Jump(new_id));
            *block = replacement;
            (tail, old_term)
        };
        let mut new_block = BasicBlock::new(new_id);
        for inst in tail {
            new_block.push(inst);
        }
        new_block.set_terminator(old_term);
        self.blocks.push(new_block);
        self.rebuild_preds();
        new_id
    }

    /// Validates structural invariants of the CFG against the declared number
    /// of registers per thread.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling branch targets, missing
    /// terminators, out-of-range registers, or unreachable blocks.
    pub fn validate(&self, regs_per_thread: u16) -> Result<(), IsaError> {
        if self.blocks.is_empty() {
            return Err(IsaError::EmptyKernel);
        }
        for b in &self.blocks {
            let term = b.terminator().ok_or(IsaError::MissingTerminator(b.id()))?;
            for t in term.successors() {
                if t.index() >= self.blocks.len() {
                    return Err(IsaError::UnknownBlock {
                        from: b.id(),
                        target: t,
                    });
                }
            }
            for (idx, inst) in b.instructions().iter().enumerate() {
                for reg in inst.touched().iter() {
                    if reg.index() as u16 >= regs_per_thread {
                        return Err(IsaError::RegisterOutOfRange {
                            block: b.id(),
                            index: idx,
                            register: reg.index() as u16,
                            regs_per_thread,
                        });
                    }
                }
            }
        }
        let reachable = self.reachable();
        for b in &self.blocks {
            if !reachable.contains(&b.id()) {
                return Err(IsaError::UnreachableBlock(b.id()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, BranchBehavior, Instruction, Opcode};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    /// Builds the nested-loop CFG of the paper's Figure 6:
    /// A -> B, B -> C, C -> B (inner back edge), C -> A (outer back edge),
    /// C -> exit.
    fn nested_loop_cfg() -> Cfg {
        let mut a = BasicBlock::new(BlockId(0));
        a.push(Instruction::new(Opcode::IAlu, Some(r(0)), &[]));
        a.set_terminator(Terminator::Jump(BlockId(1)));
        let mut b = BasicBlock::new(BlockId(1));
        b.push(Instruction::new(Opcode::FAlu, Some(r(1)), &[r(0)]));
        b.set_terminator(Terminator::Jump(BlockId(2)));
        let mut c = BasicBlock::new(BlockId(2));
        c.push(Instruction::new(Opcode::FAlu, Some(r(2)), &[r(1)]));
        c.set_terminator(Terminator::Branch {
            taken: BlockId(1),
            not_taken: BlockId(3),
            behavior: BranchBehavior::Loop { trip_count: 4 },
        });
        let mut d = BasicBlock::new(BlockId(3));
        d.set_terminator(Terminator::Branch {
            taken: BlockId(0),
            not_taken: BlockId(4),
            behavior: BranchBehavior::Loop { trip_count: 2 },
        });
        let mut e = BasicBlock::new(BlockId(4));
        e.set_terminator(Terminator::Exit);
        Cfg::new(vec![a, b, c, d, e], BlockId(0))
    }

    #[test]
    fn predecessors_are_derived() {
        let cfg = nested_loop_cfg();
        assert_eq!(cfg.predecessors(BlockId(1)), &[BlockId(0), BlockId(2)]);
        assert_eq!(cfg.predecessors(BlockId(0)), &[BlockId(3)]);
        assert!(cfg.predecessors(BlockId(0)).contains(&BlockId(3)));
    }

    #[test]
    fn reverse_postorder_starts_at_entry_and_covers_all() {
        let cfg = nested_loop_cfg();
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.len(), cfg.block_count());
        assert_eq!(rpo[0], BlockId(0));
        let unique: HashSet<_> = rpo.iter().collect();
        assert_eq!(unique.len(), rpo.len());
    }

    #[test]
    fn static_counts_and_registers() {
        let cfg = nested_loop_cfg();
        assert_eq!(cfg.static_instruction_count(), 3);
    }

    #[test]
    fn split_block_moves_tail_and_rewires() {
        let mut cfg = nested_loop_cfg();
        let new = cfg.split_block(BlockId(2), 0);
        assert_eq!(new, BlockId(5));
        assert_eq!(cfg.block(BlockId(2)).len(), 0);
        assert_eq!(cfg.block(new).len(), 1);
        assert_eq!(cfg.successors(BlockId(2)), vec![new]);
        // The new block inherits the old branch terminator.
        assert_eq!(cfg.successors(new), vec![BlockId(1), BlockId(3)]);
        // Predecessors were rebuilt.
        assert!(cfg.predecessors(BlockId(1)).contains(&new));
    }

    #[test]
    fn validation_catches_bad_register() {
        let cfg = nested_loop_cfg();
        assert!(cfg.validate(8).is_ok());
        assert!(matches!(
            cfg.validate(2),
            Err(IsaError::RegisterOutOfRange { .. })
        ));
    }

    #[test]
    fn validation_catches_missing_terminator() {
        let mut a = BasicBlock::new(BlockId(0));
        a.push(Instruction::new(Opcode::Nop, None, &[]));
        let cfg = Cfg {
            blocks: vec![a],
            entry: BlockId(0),
            preds: vec![Vec::new()],
        };
        assert_eq!(
            cfg.validate(8),
            Err(IsaError::MissingTerminator(BlockId(0)))
        );
    }

    #[test]
    fn validation_catches_unreachable_block() {
        let mut a = BasicBlock::new(BlockId(0));
        a.set_terminator(Terminator::Exit);
        let mut b = BasicBlock::new(BlockId(1));
        b.set_terminator(Terminator::Exit);
        let cfg = Cfg::new(vec![a, b], BlockId(0));
        assert_eq!(cfg.validate(8), Err(IsaError::UnreachableBlock(BlockId(1))));
    }
}
