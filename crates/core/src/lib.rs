//! # ltrf-core
//!
//! The Latency-Tolerant Register File (LTRF) — the primary contribution of
//! the ASPLOS 2018 paper this repository reproduces — together with every
//! register-file organization it is compared against and the experiment
//! machinery that evaluates them.
//!
//! ## What LTRF is
//!
//! GPUs need enormous register files to keep thousands of threads resident,
//! but large register files are slow and power-hungry. LTRF makes a *slow*
//! main register file tolerable by placing a small, partitioned register
//! cache in front of it and prefetching, under software control, the
//! register working-set of each *register-interval* (a single-entry CFG
//! region computed by `ltrf-compiler`) at the interval's entry. The prefetch
//! latency of one warp is overlapped with the execution of the other active
//! warps selected by a two-level scheduler, so the core almost always sees
//! the cache's latency. LTRF+ further exploits operand liveness to skip
//! writing back and refetching dead registers.
//!
//! ## Crate layout
//!
//! * [`organizations`] — the register-file models: `BL`, `RFC`, `SHRF`,
//!   `LTRF`, `LTRF+`, `LTRF (strand)`, and `Ideal`, all implementing
//!   [`ltrf_sim::RegisterFileModel`].
//! * [`wcb`] / [`address_alloc`] — the Warp Control Block and Address
//!   Allocation Unit hardware structures (Figures 7 and 8).
//! * [`runner`] — run one kernel under one organization and Table 2 design
//!   point; report IPC and register-file power.
//! * [`latency_tolerance`] — the maximum-tolerable-latency metric (Figure 11).
//! * [`occupancy`] — the Table 1 capacity-requirement arithmetic.
//! * [`overheads`] — the §4.3 area/storage/code-size accounting.
//!
//! ## Example
//!
//! ```
//! use ltrf_core::{run_experiment, ExperimentConfig, Organization};
//! use ltrf_isa::straight_line_kernel;
//! use ltrf_sim::MemoryBehavior;
//!
//! let kernel = straight_line_kernel("demo", 24, 120);
//! let config = ExperimentConfig::for_table2(Organization::Ltrf, 7);
//! let result = run_experiment(&kernel, MemoryBehavior::cache_resident(), 1, &config).unwrap();
//! assert!(result.ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address_alloc;
mod error;
pub mod latency_tolerance;
pub mod occupancy;
pub mod organizations;
pub mod overheads;
pub mod runner;
pub mod wcb;

pub use error::CoreError;
pub use latency_tolerance::{
    latency_sweep, paper_latency_factors, LatencySweep, LatencySweepPoint,
};
pub use ltrf_sim::EngineKind;
pub use ltrf_sim::{InterconnectConfig, InterconnectStats, InterleaveMode, Topology};
pub use occupancy::{capacity_requirement, CapacityRequirement, GpuArchitecture};
pub use organizations::{
    build_organization, build_organization_fleet, BuiltOrganization, LtrfParams, LtrfRegisterFile,
    Organization, RfcRegisterFile, ShrfRegisterFile,
};
pub use overheads::{overhead_report, OverheadInputs, OverheadReport};
pub use runner::{
    normalize, reference_config, run_experiment, run_experiment_with_engine, run_normalized,
    ExperimentConfig, NormalizedResult, RunResult,
};
pub use wcb::{WarpControlBlock, WcbStorageCost};
