//! Static register-liveness analysis.
//!
//! LTRF+ (the operand-liveness-aware variant of LTRF) relies on knowing, at
//! every instruction, which source operands will never be read again — the
//! *dead operand bit* of each operand. The hardware uses these bits to keep a
//! per-warp liveness bit-vector in the Warp Control Block so that dead
//! registers are neither written back when a warp is deactivated nor fetched
//! when it is reactivated.
//!
//! This module implements the classic backward data-flow liveness analysis
//! over the kernel CFG and derives the conservative dead-operand bits the
//! paper assumes are produced at compile time.

use serde::{Deserialize, Serialize};

use ltrf_isa::{BlockId, Kernel, RegSet};

/// Per-block liveness information.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Runs the backward data-flow analysis to a fixpoint.
    #[must_use]
    pub fn analyze(kernel: &Kernel) -> Self {
        let cfg = &kernel.cfg;
        let n = cfg.block_count();
        let mut use_sets = Vec::with_capacity(n);
        let mut def_sets = Vec::with_capacity(n);
        for block in cfg.blocks() {
            let (u, d) = block.use_def_sets();
            use_sets.push(u);
            def_sets.push(d);
        }
        let mut live_in = vec![RegSet::new(); n];
        let mut live_out = vec![RegSet::new(); n];
        // Iterate in reverse of reverse-postorder (i.e. roughly postorder) so
        // the backward analysis converges quickly.
        let order: Vec<BlockId> = cfg.reverse_postorder().into_iter().rev().collect();
        loop {
            let mut changed = false;
            for &b in &order {
                let idx = b.index();
                let mut out = RegSet::new();
                for s in cfg.successors(b) {
                    out.union_with(&live_in[s.index()]);
                }
                let inn = use_sets[idx].union(&out.difference(&def_sets[idx]));
                if out != live_out[idx] || inn != live_in[idx] {
                    live_out[idx] = out;
                    live_in[idx] = inn;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live at the entry of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range for the analyzed kernel.
    #[must_use]
    pub fn live_in(&self, block: BlockId) -> &RegSet {
        &self.live_in[block.index()]
    }

    /// Registers live at the exit of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range for the analyzed kernel.
    #[must_use]
    pub(crate) fn live_out(&self, block: BlockId) -> &RegSet {
        &self.live_out[block.index()]
    }

    /// Number of blocks covered by the analysis.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.live_in.len()
    }

    /// Writes conservative dead-operand bits into every instruction of
    /// `kernel`.
    ///
    /// A source operand is marked dead when, walking the block backwards from
    /// its live-out set, the register is not live immediately after the
    /// instruction. This is exactly the "dead operand bit" information the
    /// paper's LTRF+ consumes.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` has a different number of blocks than the kernel
    /// this analysis was computed for.
    pub(crate) fn annotate_dead_operands(&self, kernel: &mut Kernel) {
        assert_eq!(
            kernel.cfg.block_count(),
            self.live_in.len(),
            "liveness was computed for a different kernel"
        );
        for idx in 0..kernel.cfg.block_count() {
            let block_id = BlockId(idx as u32);
            let mut live = *self.live_out(block_id);
            let block = kernel.cfg.block_mut(block_id);
            // Walk instructions backwards.
            let count = block.instructions().len();
            for i in (0..count).rev() {
                let (dead_mask, reads, writes) = {
                    let inst = &block.instructions()[i];
                    let writes = inst.writes();
                    // Live set just after this instruction is `live`.
                    let mut mask = 0u8;
                    for (op_idx, &src) in inst.srcs().iter().enumerate() {
                        if !live.contains(src) {
                            mask |= 1 << op_idx;
                        }
                    }
                    (mask, inst.reads(), writes)
                };
                let inst = &mut block.instructions_mut()[i];
                inst.set_dead_mask(dead_mask);
                // Update live set for the instruction above: kill defs, gen uses.
                live = live.difference(&writes).union(&reads);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::{ArchReg, BranchBehavior, KernelBuilder, Opcode};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    /// r0 defined in entry, used in both branch sides; r1 defined and used
    /// only on the left side; r2 defined in entry but never used.
    fn diamond_kernel() -> Kernel {
        let mut b = KernelBuilder::new("d", 8);
        let entry = b.entry_block();
        let left = b.add_block();
        let right = b.add_block();
        let join = b.add_block();
        b.push(entry, Opcode::Mov, Some(r(0)), &[]);
        b.push(entry, Opcode::Mov, Some(r(2)), &[]);
        b.branch(entry, left, right, BranchBehavior::balanced());
        b.push(left, Opcode::IAlu, Some(r(1)), &[r(0)]);
        b.push(left, Opcode::IAlu, Some(r(3)), &[r(1)]);
        b.jump(left, join);
        b.push(right, Opcode::IAlu, Some(r(3)), &[r(0)]);
        b.jump(right, join);
        b.push(join, Opcode::StoreGlobal, None, &[r(3)]);
        b.exit(join);
        b.build().unwrap()
    }

    #[test]
    fn live_sets_of_diamond() {
        let k = diamond_kernel();
        let l = Liveness::analyze(&k);
        // r0 is live out of the entry block (used on both sides).
        assert!(l.live_out(BlockId(0)).contains(r(0)));
        // r2 is dead everywhere after its definition.
        assert!(!l.live_out(BlockId(0)).contains(r(2)));
        // r3 is live into the join block.
        assert!(l.live_in(BlockId(3)).contains(r(3)));
        // Nothing is live out of the exit block.
        assert!(l.live_out(BlockId(3)).is_empty());
        // Nothing is live into the entry block (no upward-exposed uses).
        assert!(l.live_in(BlockId(0)).is_empty());
        assert_eq!(l.block_count(), 4);
    }

    #[test]
    fn loop_carried_register_stays_live() {
        let mut b = KernelBuilder::new("loop", 8);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.push(entry, Opcode::Mov, Some(r(0)), &[]);
        b.jump(entry, body);
        // r0 is both read and written in the loop: live around the back edge.
        b.push(body, Opcode::IAlu, Some(r(0)), &[r(0)]);
        b.loop_branch(body, body, exit, 10);
        b.push(exit, Opcode::StoreGlobal, None, &[r(0)]);
        b.exit(exit);
        let k = b.build().unwrap();
        let l = Liveness::analyze(&k);
        assert!(l.live_in(BlockId(1)).contains(r(0)));
        assert!(l.live_out(BlockId(1)).contains(r(0)));
    }

    #[test]
    fn dead_operand_annotation_marks_last_uses() {
        let mut k = diamond_kernel();
        let l = Liveness::analyze(&k);
        l.annotate_dead_operands(&mut k);
        // In the left block, the first instruction reads r0; r0 is not used
        // again on that path, so the operand is dead.
        let left = k.cfg.block(BlockId(1));
        assert!(
            left.instructions()[0].is_src_dead(0),
            "r0 dies at its last use"
        );
        // The second instruction reads r1, which dies immediately.
        assert!(left.instructions()[1].is_src_dead(0));
        // In the join block the store reads r3 and nothing follows: dead.
        let join = k.cfg.block(BlockId(3));
        assert!(join.instructions()[0].is_src_dead(0));
    }

    #[test]
    fn loop_carried_operand_is_not_dead() {
        let mut b = KernelBuilder::new("loop", 8);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.push(entry, Opcode::Mov, Some(r(0)), &[]);
        b.jump(entry, body);
        b.push(body, Opcode::IAlu, Some(r(1)), &[r(0)]);
        b.loop_branch(body, body, exit, 10);
        b.exit(exit);
        let mut k = b.build().unwrap();
        let l = Liveness::analyze(&k);
        l.annotate_dead_operands(&mut k);
        // r0 is read again on the next loop iteration, so it is NOT dead.
        assert!(!k.cfg.block(BlockId(1)).instructions()[0].is_src_dead(0));
    }

    #[test]
    fn analysis_reaches_fixpoint_on_straight_line() {
        let k = ltrf_isa::straight_line_kernel("s", 16, 100);
        let l = Liveness::analyze(&k);
        assert_eq!(l.block_count(), 1);
        assert!(l.live_out(BlockId(0)).is_empty());
    }
}
