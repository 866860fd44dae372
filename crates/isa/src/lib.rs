//! # ltrf-isa
//!
//! A compact, synthetic GPU instruction set architecture and kernel
//! intermediate representation used throughout the LTRF reproduction.
//!
//! The LTRF paper (ASPLOS 2018) evaluates register-file organizations on
//! CUDA kernels compiled to PTX and executed on GPGPU-Sim. This crate plays
//! the role of PTX: it provides
//!
//! * architectural registers and dense register sets ([`ArchReg`], [`RegSet`]),
//! * a small typed instruction set with explicit register operands and
//!   dead-operand bits ([`Instruction`], [`Opcode`]),
//! * basic blocks and a control-flow graph ([`BasicBlock`], [`Cfg`]),
//! * whole kernels with launch metadata ([`Kernel`]),
//! * an ergonomic [`KernelBuilder`] used by the synthetic workload suite, and
//! * deterministic dynamic-trace generation ([`trace::TraceWalker`]) used by
//!   the register-interval length study (Table 4) and cache hit-rate studies.
//!
//! Everything the compiler passes (`ltrf-compiler`) and the timing simulator
//! (`ltrf-sim`) need about a program is representable here; nothing more.
//!
//! ## Example
//!
//! ```
//! use ltrf_isa::{KernelBuilder, Opcode, ArchReg};
//!
//! let mut b = KernelBuilder::new("saxpy", 8);
//! let entry = b.entry_block();
//! b.push(entry, Opcode::LoadGlobal, Some(ArchReg::new(2)), &[ArchReg::new(0)]);
//! b.push(entry, Opcode::FFma, Some(ArchReg::new(3)), &[ArchReg::new(1), ArchReg::new(2)]);
//! b.push(entry, Opcode::StoreGlobal, None, &[ArchReg::new(0), ArchReg::new(3)]);
//! b.exit(entry);
//! let kernel = b.build().expect("valid kernel");
//! assert_eq!(kernel.cfg.block_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod builder;
mod cfg;
mod error;
mod instruction;
mod kernel;
mod opcode;
mod pretty;
mod reg;
pub mod trace;

pub use block::{BasicBlock, BlockId, BranchBehavior, Terminator};
pub use builder::{straight_line_kernel, KernelBuilder};
pub use cfg::Cfg;
pub use error::IsaError;
pub use instruction::Instruction;
pub use kernel::{Kernel, LaunchConfig, RegisterSensitivity};
pub use opcode::{Opcode, OpcodeClass};
pub use pretty::disassemble;
pub use reg::{ArchReg, RegSet, RegSetIter, MAX_ARCH_REGS};
