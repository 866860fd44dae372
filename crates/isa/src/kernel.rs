//! Whole kernels: a CFG plus launch metadata.

use serde::{Deserialize, Serialize};

use crate::{Cfg, IsaError, MAX_ARCH_REGS};

/// Kernel launch configuration (grid shape flattened to warp counts).
///
/// The LTRF evaluation does not depend on the 3-D structure of CUDA grids,
/// only on how many warps a kernel can supply to each SM and how many
/// registers each of its threads needs; `LaunchConfig` captures exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of warps in a thread block (CTA).
    pub warps_per_block: u32,
    /// Number of thread blocks in the grid.
    pub blocks_per_grid: u32,
    /// Shared memory used by each block, in bytes (limits occupancy).
    pub shared_mem_per_block: u32,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    #[must_use]
    pub const fn new(
        warps_per_block: u32,
        blocks_per_grid: u32,
        shared_mem_per_block: u32,
    ) -> Self {
        LaunchConfig {
            warps_per_block,
            blocks_per_grid,
            shared_mem_per_block,
        }
    }

    /// Total number of warps launched by the kernel.
    #[must_use]
    pub const fn total_warps(&self) -> u64 {
        self.warps_per_block as u64 * self.blocks_per_grid as u64
    }

    /// Returns the launch with `factor` times as many thread blocks
    /// (saturating). Multi-SM simulations scale the grid this way so each
    /// SM receives the same per-SM work regardless of how many SMs share
    /// the chip (weak scaling).
    #[must_use]
    pub const fn with_grid_scaled(mut self, factor: u32) -> Self {
        self.blocks_per_grid = self.blocks_per_grid.saturating_mul(factor);
        self
    }
}

impl Default for LaunchConfig {
    fn default() -> Self {
        // 8 warps (256 threads) per block, 64 blocks: a typical mid-size grid.
        LaunchConfig::new(8, 64, 0)
    }
}

/// Whether a kernel's achievable thread-level parallelism is limited by the
/// register file (the paper's two workload categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegisterSensitivity {
    /// TLP improves when the register file grows.
    Sensitive,
    /// TLP is limited by something other than the register file.
    Insensitive,
}

/// A GPU kernel: name, control-flow graph, per-thread register demand, and
/// launch configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    name: String,
    /// The kernel's control-flow graph.
    pub cfg: Cfg,
    regs_per_thread: u16,
    launch: LaunchConfig,
    sensitivity: RegisterSensitivity,
}

impl Kernel {
    /// Creates a kernel and validates it.
    ///
    /// # Errors
    ///
    /// Returns an error if the CFG fails [`Cfg::validate`] or declares more
    /// than 256 registers per thread.
    pub fn new(
        name: impl Into<String>,
        cfg: Cfg,
        regs_per_thread: u16,
        launch: LaunchConfig,
        sensitivity: RegisterSensitivity,
    ) -> Result<Self, IsaError> {
        if regs_per_thread as usize > MAX_ARCH_REGS {
            return Err(IsaError::TooManyRegisters {
                declared: regs_per_thread,
            });
        }
        cfg.validate(regs_per_thread)?;
        Ok(Kernel {
            name: name.into(),
            cfg,
            regs_per_thread,
            launch,
            sensitivity,
        })
    }

    /// Returns the kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the number of architectural registers each thread of this
    /// kernel is allocated.
    #[must_use]
    pub const fn regs_per_thread(&self) -> u16 {
        self.regs_per_thread
    }

    /// Returns the launch configuration.
    #[must_use]
    pub const fn launch(&self) -> LaunchConfig {
        self.launch
    }

    /// Returns whether the kernel is register-sensitive.
    #[must_use]
    pub const fn sensitivity(&self) -> RegisterSensitivity {
        self.sensitivity
    }

    /// Returns `true` if the kernel's TLP is limited by register capacity.
    #[must_use]
    pub const fn is_register_sensitive(&self) -> bool {
        matches!(self.sensitivity, RegisterSensitivity::Sensitive)
    }

    /// Number of static instructions in the kernel.
    #[must_use]
    pub fn static_instruction_count(&self) -> usize {
        self.cfg.static_instruction_count()
    }

    /// Returns a copy whose grid launches `factor` times as many thread
    /// blocks (the CTA-count plumbing behind multi-SM weak scaling: an
    /// `sm_count`-SM campaign scales the grid by `sm_count` so every SM
    /// sees the same per-SM workload as the single-SM campaigns).
    #[must_use]
    pub fn with_grid_scaled(&self, factor: u32) -> Self {
        let mut scaled = self.clone();
        scaled.launch = scaled.launch.with_grid_scaled(factor.max(1));
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArchReg, BasicBlock, BlockId, Instruction, Opcode, Terminator};

    fn simple_cfg(regs: u8) -> Cfg {
        let mut b = BasicBlock::new(BlockId(0));
        for i in 0..regs {
            b.push(Instruction::new(Opcode::IAlu, Some(ArchReg::new(i)), &[]));
        }
        b.set_terminator(Terminator::Exit);
        Cfg::new(vec![b], BlockId(0))
    }

    #[test]
    fn kernel_construction_and_accessors() {
        let k = Kernel::new(
            "k",
            simple_cfg(4),
            8,
            LaunchConfig::default(),
            RegisterSensitivity::Sensitive,
        )
        .unwrap();
        assert_eq!(k.name(), "k");
        assert_eq!(k.regs_per_thread(), 8);
        assert!(k.is_register_sensitive());
        assert_eq!(k.static_instruction_count(), 4);
        assert_eq!(k.launch().total_warps(), 8 * 64);
    }

    #[test]
    fn grid_scaling_multiplies_blocks_only() {
        let k = Kernel::new(
            "k",
            simple_cfg(4),
            8,
            LaunchConfig::new(8, 16, 0),
            RegisterSensitivity::Sensitive,
        )
        .unwrap();
        let scaled = k.with_grid_scaled(4);
        assert_eq!(scaled.launch().blocks_per_grid, 64);
        assert_eq!(scaled.launch().warps_per_block, 8);
        assert_eq!(k.launch().blocks_per_grid, 16, "original is untouched");
        // Factor zero is clamped to one, and huge factors saturate.
        assert_eq!(k.with_grid_scaled(0).launch().blocks_per_grid, 16);
        assert_eq!(
            LaunchConfig::new(1, u32::MAX, 0)
                .with_grid_scaled(2)
                .blocks_per_grid,
            u32::MAX
        );
    }

    #[test]
    fn kernel_rejects_register_overflow() {
        let err = Kernel::new(
            "k",
            simple_cfg(4),
            2,
            LaunchConfig::default(),
            RegisterSensitivity::Insensitive,
        )
        .unwrap_err();
        assert!(matches!(err, IsaError::RegisterOutOfRange { .. }));
    }

    #[test]
    fn kernel_rejects_too_many_registers() {
        let err = Kernel::new(
            "k",
            simple_cfg(1),
            300,
            LaunchConfig::default(),
            RegisterSensitivity::Insensitive,
        )
        .unwrap_err();
        assert_eq!(err, IsaError::TooManyRegisters { declared: 300 });
    }

    #[test]
    fn launch_config_totals() {
        let lc = LaunchConfig::new(4, 10, 1024);
        assert_eq!(lc.total_warps(), 40);
        assert_eq!(LaunchConfig::default().warps_per_block, 8);
    }
}
