//! Ergonomic construction of kernels.

use crate::{
    ArchReg, BasicBlock, BlockId, BranchBehavior, Cfg, Instruction, IsaError, Kernel, LaunchConfig,
    Opcode, RegisterSensitivity, Terminator,
};

/// Builder for [`Kernel`]s.
///
/// The builder allocates basic blocks, appends instructions, wires control
/// flow, and finally validates the whole kernel. It is the construction API
/// used by the synthetic workload suite (`ltrf-workloads`) and by tests.
///
/// # Example
///
/// ```
/// use ltrf_isa::{KernelBuilder, Opcode, ArchReg, BranchBehavior};
///
/// let mut b = KernelBuilder::new("loop", 6);
/// let entry = b.entry_block();
/// let body = b.add_block();
/// let exit = b.add_block();
/// b.push(entry, Opcode::Mov, Some(ArchReg::new(0)), &[]);
/// b.jump(entry, body);
/// b.push(body, Opcode::FFma, Some(ArchReg::new(1)), &[ArchReg::new(0), ArchReg::new(1)]);
/// b.loop_branch(body, body, exit, 16);
/// b.exit(exit);
/// let kernel = b.build().unwrap();
/// assert_eq!(kernel.cfg.block_count(), 3);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    blocks: Vec<BasicBlock>,
    regs_per_thread: u16,
    launch: LaunchConfig,
    sensitivity: RegisterSensitivity,
}

impl KernelBuilder {
    /// Starts building a kernel with the given name and per-thread register
    /// count. The entry block (id 0) is created automatically.
    #[must_use]
    pub fn new(name: impl Into<String>, regs_per_thread: u16) -> Self {
        KernelBuilder {
            name: name.into(),
            blocks: vec![BasicBlock::new(BlockId(0))],
            regs_per_thread,
            launch: LaunchConfig::default(),
            sensitivity: RegisterSensitivity::Sensitive,
        }
    }

    /// Sets the launch configuration (default: 8 warps/block × 64 blocks).
    pub fn launch(&mut self, launch: LaunchConfig) -> &mut Self {
        self.launch = launch;
        self
    }

    /// Marks the kernel register-sensitive or register-insensitive
    /// (default: sensitive).
    pub fn sensitivity(&mut self, s: RegisterSensitivity) -> &mut Self {
        self.sensitivity = s;
        self
    }

    /// Returns the id of the entry block.
    #[must_use]
    pub fn entry_block(&self) -> BlockId {
        BlockId(0)
    }

    /// Allocates a new, empty basic block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::new(id));
        id
    }

    /// Appends an instruction to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist.
    pub fn push(
        &mut self,
        block: BlockId,
        opcode: Opcode,
        dst: Option<ArchReg>,
        srcs: &[ArchReg],
    ) -> &mut Self {
        self.blocks[block.index()].push(Instruction::new(opcode, dst, srcs));
        self
    }

    /// Appends a pre-built instruction to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist.
    pub fn push_instruction(&mut self, block: BlockId, inst: Instruction) -> &mut Self {
        self.blocks[block.index()].push(inst);
        self
    }

    /// Terminates `block` with an unconditional jump to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist.
    pub fn jump(&mut self, block: BlockId, target: BlockId) -> &mut Self {
        self.blocks[block.index()].set_terminator(Terminator::Jump(target));
        self
    }

    /// Terminates `block` with a conditional branch.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist.
    pub fn branch(
        &mut self,
        block: BlockId,
        taken: BlockId,
        not_taken: BlockId,
        behavior: BranchBehavior,
    ) -> &mut Self {
        self.blocks[block.index()].set_terminator(Terminator::Branch {
            taken,
            not_taken,
            behavior,
        });
        self
    }

    /// Terminates `block` with a loop back-edge to `header` executed
    /// `trip_count` times before falling through to `fallthrough`.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist or `trip_count` is zero.
    pub fn loop_branch(
        &mut self,
        block: BlockId,
        header: BlockId,
        fallthrough: BlockId,
        trip_count: u32,
    ) -> &mut Self {
        assert!(trip_count >= 1, "loop trip count must be at least 1");
        self.branch(
            block,
            header,
            fallthrough,
            BranchBehavior::Loop { trip_count },
        )
    }

    /// Terminates `block` with a kernel exit.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not exist.
    pub fn exit(&mut self, block: BlockId) -> &mut Self {
        self.blocks[block.index()].set_terminator(Terminator::Exit);
        self
    }

    /// Returns the number of blocks allocated so far.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Finishes the kernel, validating all structural invariants.
    ///
    /// # Errors
    ///
    /// Returns any error reported by [`Kernel::new`] / [`Cfg::validate`].
    pub fn build(self) -> Result<Kernel, IsaError> {
        let cfg = Cfg::new(self.blocks, BlockId(0));
        Kernel::new(
            self.name,
            cfg,
            self.regs_per_thread,
            self.launch,
            self.sensitivity,
        )
    }
}

/// Convenience free function: builds a straight-line kernel that touches the
/// first `regs` registers with `insts` ALU instructions. Used widely in unit
/// tests across the workspace.
///
/// # Panics
///
/// Panics if `regs` is zero or greater than 256.
#[must_use]
pub fn straight_line_kernel(name: &str, regs: u16, insts: usize) -> Kernel {
    assert!(regs >= 1 && regs as usize <= crate::MAX_ARCH_REGS);
    let mut b = KernelBuilder::new(name, regs);
    let entry = b.entry_block();
    for i in 0..insts {
        let dst = ArchReg::new((i % regs as usize) as u8);
        let src = ArchReg::new(((i + 1) % regs as usize) as u8);
        b.push(entry, Opcode::FAlu, Some(dst), &[src]);
    }
    b.exit(entry);
    b.build().expect("straight-line kernel is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_valid_kernel() {
        let mut b = KernelBuilder::new("k", 4);
        let entry = b.entry_block();
        let exit = b.add_block();
        b.push(entry, Opcode::IAlu, Some(ArchReg::new(0)), &[]);
        b.jump(entry, exit);
        b.exit(exit);
        let k = b.build().unwrap();
        assert_eq!(k.cfg.block_count(), 2);
        assert_eq!(k.cfg.successors(BlockId(0)), vec![BlockId(1)]);
    }

    #[test]
    fn builder_detects_missing_terminator() {
        let mut b = KernelBuilder::new("k", 4);
        let _dangling = b.add_block();
        b.exit(b.entry_block());
        assert!(b.build().is_err());
    }

    #[test]
    fn builder_detects_unreachable_block() {
        let mut b = KernelBuilder::new("k", 4);
        let orphan = b.add_block();
        b.exit(orphan);
        b.exit(b.entry_block());
        assert_eq!(
            b.build().unwrap_err(),
            IsaError::UnreachableBlock(BlockId(1))
        );
    }

    #[test]
    #[should_panic(expected = "trip count")]
    fn zero_trip_count_panics() {
        let mut b = KernelBuilder::new("k", 4);
        let e = b.entry_block();
        b.loop_branch(e, e, e, 0);
    }

    #[test]
    fn straight_line_kernel_helper() {
        let k = straight_line_kernel("s", 8, 20);
        assert_eq!(k.static_instruction_count(), 20);
        assert_eq!(k.cfg.block_count(), 1);
    }

    #[test]
    fn builder_settings_are_applied() {
        let mut b = KernelBuilder::new("k", 4);
        b.sensitivity(RegisterSensitivity::Insensitive);
        b.launch(LaunchConfig::new(2, 3, 0));
        b.exit(b.entry_block());
        let k = b.build().unwrap();
        assert!(!k.is_register_sensitive());
        assert_eq!(k.launch().total_warps(), 6);
    }
}
