//! # ltrf-workloads
//!
//! The synthetic workload suite of the LTRF reproduction.
//!
//! The original study evaluates fourteen CUDA kernels (nine
//! register-sensitive, five register-insensitive) drawn from CUDA SDK,
//! Rodinia, and Parboil. Real CUDA binaries cannot be compiled or executed
//! here, so this crate provides synthetic stand-ins built on the `ltrf-isa`
//! kernel IR whose register pressure, loop structure, instruction mix, and
//! memory behaviour follow the published character of each benchmark. The
//! substitution and its rationale are documented in the repository's
//! `DESIGN.md`.
//!
//! * [`WorkloadSpec`] / [`Workload`] — declarative kernel descriptions and
//!   their built form,
//! * [`suite`] — the fourteen evaluated workloads plus the 35-kernel
//!   screening set's register demands (Table 1),
//! * [`WorkloadGenerator`] — deterministic random workloads for wider
//!   stress-testing.
//!
//! ```
//! let suite = ltrf_workloads::evaluated_suite();
//! assert_eq!(suite.len(), 14);
//! assert_eq!(suite.iter().filter(|w| w.is_register_sensitive()).count(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generator;
mod spec;
pub mod suite;

pub use generator::{GeneratorConfig, WorkloadGenerator};
pub use spec::{BenchmarkSuite, MemoryProfile, Workload, WorkloadSpec};
pub use suite::{
    by_name, evaluated_specs, evaluated_suite, quick_suite, unconstrained_register_demands,
    QUICK_SUBSET,
};
