//! # ltrf-compiler
//!
//! Compile-time support for the Latency-Tolerant Register File (LTRF).
//!
//! The LTRF paper's software half is a set of compiler passes that run over a
//! kernel's control-flow graph:
//!
//! * **Liveness analysis** ([`liveness`]) computes per-block live-in/live-out
//!   register sets and annotates every instruction's *dead-operand bits*, the
//!   information LTRF+ uses to avoid writing back and refetching dead
//!   registers.
//! * **Register-interval formation** (`register_interval`, Algorithm 1 of
//!   the paper) partitions the CFG into single-entry subgraphs whose register
//!   working-set fits within one warp's register-file-cache partition,
//!   splitting basic blocks whose working-set alone overflows the partition.
//! * **Register-interval reduction** ([`reduce`], Algorithm 2) repeatedly
//!   merges intervals that are reachable only from a single other interval
//!   while the merged working-set still fits, so that entire loop nests
//!   collapse into a single PREFETCH region.
//! * **Strand formation** ([`strand`]) builds the more-constrained prefetch
//!   subgraphs used by the SHRF / LTRF(strand) comparison points (§6.6).
//! * **PREFETCH scheduling** ([`prefetch`]) derives the per-interval 256-bit
//!   PREFETCH bit-vectors and the code-size overhead they impose (§4.3).
//! * **Trace analysis** ([`trace_analysis`]) measures *real* and *optimal*
//!   register-interval lengths over dynamic traces (Table 4).
//!
//! The top-level entry point is [`compile`], which runs the passes in order
//! and returns a [`CompiledKernel`] consumed by the register-file
//! organizations in `ltrf-core`.
//!
//! ```
//! use ltrf_compiler::{compile, CompilerOptions};
//! use ltrf_isa::straight_line_kernel;
//!
//! let kernel = straight_line_kernel("demo", 24, 200);
//! let compiled = compile(&kernel, &CompilerOptions::default()).unwrap();
//! assert!(compiled.partition.interval_count() >= 1);
//! for interval in compiled.partition.intervals() {
//!     assert!(interval.working_set.len() <= 16);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod liveness;
mod partition;
pub mod prefetch;
pub mod reduce;
pub(crate) mod register_interval;
pub mod strand;
pub mod trace_analysis;

use serde::{Deserialize, Serialize};

pub use error::CompileError;
pub use liveness::Liveness;
pub use partition::{IntervalId, RegisterInterval, RegisterIntervalPartition};
pub use prefetch::{CodeSizeModel, PrefetchSchedule};

use ltrf_isa::Kernel;

/// How prefetch subgraphs are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrefetchSubgraphKind {
    /// Register-intervals (the paper's contribution; Algorithms 1 and 2).
    RegisterInterval,
    /// Strands as in the software-managed hierarchical register file
    /// comparison point: terminated at long-latency operations and backward
    /// branches.
    Strand,
}

/// Options controlling compilation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompilerOptions {
    /// Maximum number of registers allowed in a prefetch subgraph (the size
    /// of one warp's register-file-cache partition). The paper's default is
    /// 16.
    pub max_registers_per_interval: usize,
    /// How prefetch subgraphs are formed.
    pub subgraph_kind: PrefetchSubgraphKind,
    /// Whether Algorithm 2 (interval reduction) runs after Algorithm 1.
    pub reduce_intervals: bool,
    /// Whether liveness analysis annotates dead-operand bits (required by
    /// LTRF+).
    pub annotate_liveness: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            max_registers_per_interval: 16,
            subgraph_kind: PrefetchSubgraphKind::RegisterInterval,
            reduce_intervals: true,
            annotate_liveness: true,
        }
    }
}

impl CompilerOptions {
    /// Returns options with a different register budget per interval.
    #[must_use]
    pub fn with_max_registers(mut self, n: usize) -> Self {
        self.max_registers_per_interval = n;
        self
    }

    /// Returns options that form strands instead of register-intervals.
    #[must_use]
    pub fn with_strands(mut self) -> Self {
        self.subgraph_kind = PrefetchSubgraphKind::Strand;
        self
    }
}

/// Aggregate statistics about a compiled kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CompileStats {
    /// Number of prefetch subgraphs (register-intervals or strands).
    pub interval_count: usize,
    /// Number of basic blocks after any splitting performed by Algorithm 1.
    pub block_count: usize,
    /// Mean working-set size across intervals, in registers.
    pub mean_working_set: f64,
    /// Largest working-set size across intervals, in registers.
    pub max_working_set: usize,
    /// Static instructions in the kernel (after splitting; splitting never
    /// changes this number).
    pub static_instructions: usize,
    /// Relative code-size increase caused by PREFETCH bit-vectors, e.g.
    /// `0.07` for the paper's 7%.
    pub code_size_overhead: f64,
}

/// The result of compiling a kernel for LTRF execution.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The kernel, possibly with basic blocks split by Algorithm 1.
    pub kernel: Kernel,
    /// The prefetch-subgraph partition of the kernel's CFG.
    pub partition: RegisterIntervalPartition,
    /// Liveness information (always computed; dead-operand bits are only
    /// written into the kernel when [`CompilerOptions::annotate_liveness`]
    /// is set).
    pub liveness: Liveness,
    /// PREFETCH bit-vectors and code-size accounting.
    pub prefetch: PrefetchSchedule,
    /// Aggregate statistics.
    pub stats: CompileStats,
}

/// Compiles a kernel: forms prefetch subgraphs, computes liveness, and
/// schedules PREFETCH operations.
///
/// # Errors
///
/// Returns [`CompileError::IntervalBudgetTooSmall`] if a single instruction
/// of the kernel touches more registers than
/// [`CompilerOptions::max_registers_per_interval`] allows, and propagates any
/// structural error discovered while re-validating a split kernel.
pub fn compile(kernel: &Kernel, options: &CompilerOptions) -> Result<CompiledKernel, CompileError> {
    let n = options.max_registers_per_interval;
    let (mut kernel, mut partition) = match options.subgraph_kind {
        PrefetchSubgraphKind::RegisterInterval => {
            register_interval::form_register_intervals(kernel, n)?
        }
        PrefetchSubgraphKind::Strand => strand::form_strands(kernel, n)?,
    };
    if options.reduce_intervals && options.subgraph_kind == PrefetchSubgraphKind::RegisterInterval {
        partition = reduce::reduce_intervals(&kernel, &partition, n);
    }
    let mut liveness = Liveness::analyze(&kernel);
    if options.annotate_liveness {
        liveness.annotate_dead_operands(&mut kernel);
        // Re-analyze so the returned liveness reflects the annotated kernel
        // (the sets themselves are unchanged by annotation).
        liveness = Liveness::analyze(&kernel);
    }
    let prefetch = PrefetchSchedule::build(&kernel, &partition, &CodeSizeModel::default());
    let stats = CompileStats {
        interval_count: partition.interval_count(),
        block_count: kernel.cfg.block_count(),
        mean_working_set: partition.mean_working_set(),
        max_working_set: partition.max_working_set(),
        static_instructions: kernel.static_instruction_count(),
        code_size_overhead: prefetch.code_size_overhead(),
    };
    Ok(CompiledKernel {
        kernel,
        partition,
        liveness,
        prefetch,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::straight_line_kernel;

    #[test]
    fn compile_straight_line_default_options() {
        let kernel = straight_line_kernel("k", 32, 300);
        let compiled = compile(&kernel, &CompilerOptions::default()).unwrap();
        assert!(
            compiled.stats.interval_count >= 2,
            "32 registers cannot fit in one 16-register interval"
        );
        assert!(compiled.stats.max_working_set <= 16);
        assert_eq!(compiled.stats.static_instructions, 300);
        assert!(compiled.stats.code_size_overhead > 0.0);
    }

    #[test]
    fn compile_with_strands_produces_partition() {
        let kernel = straight_line_kernel("k", 16, 100);
        let opts = CompilerOptions::default().with_strands();
        let compiled = compile(&kernel, &opts).unwrap();
        assert!(compiled.stats.interval_count >= 1);
        assert!(compiled.stats.max_working_set <= 16);
    }

    #[test]
    fn options_builders() {
        let o = CompilerOptions::default()
            .with_max_registers(32)
            .with_strands();
        assert_eq!(o.max_registers_per_interval, 32);
        assert_eq!(o.subgraph_kind, PrefetchSubgraphKind::Strand);
    }

    #[test]
    fn interval_budget_too_small_is_an_error() {
        let kernel = straight_line_kernel("k", 8, 10);
        let opts = CompilerOptions::default().with_max_registers(1);
        assert!(matches!(
            compile(&kernel, &opts),
            Err(CompileError::IntervalBudgetTooSmall { .. })
        ));
    }
}
