//! # ltrf-sim
//!
//! A cycle-level GPU timing simulator, built from scratch as the substrate
//! for the LTRF reproduction (the role GPGPU-Sim v3.2.2 plays in the
//! original study).
//!
//! The unit of simulation is one Maxwell-like SM (Table 3 of the paper): 64
//! resident warps, a two-level warp scheduler with a configurable active
//! pool, operand collectors in front of a banked register file, per-opcode
//! execution latencies, and a full memory hierarchy (L1D, last-level cache,
//! and FR-FCFS-style GDDR5 DRAM channels). [`simulate_with`] runs a kernel
//! on a single SM with a private hierarchy; [`simulate_gpu_with`] runs a
//! whole chip — [`GpuConfig::sm_count`] SMs dealt CTAs round-robin,
//! contending for a shared, sliced L2 and the DRAM channels — and reports
//! aggregated [`GpuStats`] (per-SM IPC, L2 hit rate, DRAM row-buffer and
//! queueing behaviour). An `sm_count = 1` GPU is the single-SM simulation.
//!
//! One lock-step driver runs every simulation, whatever its SM count. The
//! engine it steps is chosen by [`EngineKind`]: the fast skip-ahead engine
//! by default, or the reference tick loop the differential tests compare it
//! against. A lone SM and a GPU differ only in when the kernel ends. A lone
//! SM drains its busy operand collectors to the next event after its last
//! warp retired. SMs that share memory stop at the cycle after.
//!
//! The register file itself is pluggable: the SM pipeline talks to a
//! [`RegisterFileModel`] trait object, and the organizations studied in the
//! paper (baseline, register-file cache, SHRF, LTRF, LTRF+, ideal) are
//! implemented against this trait in the `ltrf-core` crate. Two reference
//! implementations live here — [`DirectRegisterFile`] (the conventional
//! non-cached design) and [`IdealRegisterFile`] (capacity without latency) —
//! so the simulator is usable and testable on its own.
//!
//! ```
//! use ltrf_isa::straight_line_kernel;
//! use ltrf_sim::{simulate_with, DirectRegisterFile, EngineKind, SimWorkload, SmConfig};
//!
//! let kernel = straight_line_kernel("demo", 16, 64);
//! let config = SmConfig::default();
//! let mut regfile = DirectRegisterFile::new(config.regfile);
//! let workload = SimWorkload::new(kernel);
//! let stats = simulate_with(&workload, &config, &mut regfile, EngineKind::default());
//! assert!(stats.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod driver;
mod engine;
mod fast;
pub mod gpu;
pub mod interconnect;
pub mod memory;
mod regfile;
mod stats;
mod types;
pub mod wakeup;
mod warp;

pub use config::{ExecLatencies, GpuConfig, L2Config, MemoryConfig, RegFileTiming, SmConfig};
pub use engine::{simulate_with, EngineKind, SimWorkload};
pub use gpu::{simulate_gpu_with, GpuStats};
pub use interconnect::{
    AddressDecoder, Interconnect, InterconnectConfig, InterconnectStats, InterleaveMode, Topology,
};
pub use memory::{AddressGenerator, MemoryBehavior, MemoryStats, SharedMemory};
pub use regfile::{DirectRegisterFile, IdealRegisterFile, RegisterFileModel};
pub use stats::SimStats;
pub use types::{BankArbiter, Cycle, WarpId};
pub use wakeup::WakeupQueue;
pub use warp::{WarpContext, WarpStatus};
