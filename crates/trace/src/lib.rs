//! # ltrf-trace
//!
//! Accelsim-style kernel-trace ingestion for the LTRF reproduction.
//!
//! The synthetic suite (`ltrf-workloads`) covers the paper's fourteen
//! benchmarks, but only with register-pressure patterns it can fabricate.
//! This crate opens the simulator to *recorded* workloads: it parses
//! line-oriented kernel traces in the accelsim style (a launch header plus
//! per-warp dynamic instruction records), lowers the dynamic PC stream back
//! into a structured `ltrf-isa` [`Kernel`](ltrf_isa::Kernel) — basic blocks,
//! terminators, and [`BranchBehavior`](ltrf_isa::BranchBehavior) annotations
//! recovered from observed taken/not-taken counts — and wraps the result in
//! the same [`Workload`](ltrf_workloads::Workload) interface the suites
//! expose, so every downstream layer (compiler passes, timing simulator,
//! sweep engine) runs traces unchanged.
//!
//! * [`parse_str`] / [`parse::write_trace`] — the grammar frontend,
//! * [`lower()`] / [`LoweredKernel`] — CFG reconstruction with PC provenance,
//! * [`TraceWorkloadId`] — durable identity (path + content fingerprint +
//!   [`LoweringBounds`]) that sweep points serialize into cache keys, and
//!   [`TraceWorkloadId::materialize`] to rebuild the workload on demand.
//!
//! Every failure mode is a typed [`TraceError`]; malformed input never
//! panics. The trace grammar is documented in `REPRODUCING.md`, and the
//! deliberate simplifications relative to real accelsim semantics in
//! `DESIGN.md`.
//!
//! ```
//! let source = "\
//! -kernel name = saxpy
//! -grid dim = (2,1,1)
//! -block dim = (64,1,1)
//! -nregs = 8
//! warp = 0
//! 0000 ffffffff 1 R2 LDG 1 R0 4 0x1000
//! 0008 ffffffff 1 R3 FFMA 3 R1 R2 R3 0
//! 0010 ffffffff 0 STG 2 R0 R3 4 0x2000
//! 0018 ffffffff 0 EXIT 0 0
//! ";
//! let trace = ltrf_trace::parse_str(source).unwrap();
//! let lowered = ltrf_trace::lower(&trace, &ltrf_trace::LoweringBounds::default()).unwrap();
//! assert_eq!(lowered.kernel.cfg.block_count(), 1);
//! assert_eq!(lowered.replayed_pc_sequence(1), vec![0x0, 0x8, 0x10, 0x18]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod lower;
pub mod parse;
mod workload;

pub use error::TraceError;
pub use lower::{lower, memory_profile, LoweredKernel};
pub use parse::{
    parse_str, write_trace, KernelHeader, TraceFile, TraceInstruction, TraceOp, WarpStream,
};
pub use workload::{LoweringBounds, TraceWorkloadId};
