//! # ltrf-sweep
//!
//! The design-space-exploration engine of the LTRF reproduction. The paper's
//! evaluation is a large cross-product — register-file organizations ×
//! workloads × Table 2 design points × latency factors — and this crate
//! turns that into a first-class, declarative, parallel campaign driver:
//!
//! * [`SweepSpec`] / [`SweepSpecBuilder`] enumerate arbitrary cross-products
//!   over [`ltrf_core::Organization`], workload selections (the evaluated
//!   suite and/or generated populations — see
//!   [`SweepSpecBuilder::generated_population`]),
//!   [`ltrf_core::ExperimentConfig`] design points, latency factors, SM
//!   counts (full-GPU campaigns with shared-L2/DRAM contention), and
//!   memory-behaviour variants;
//! * [`CampaignSession`] shards the run matrix across all cores with
//!   deterministic per-point seeds and panic isolation (one bad point
//!   yields an error record, not a dead campaign), emitting a typed
//!   [`CampaignEvent`] stream — point starts, finishes with cache
//!   provenance, failures, and the campaign summary — to any
//!   [`CampaignObserver`] (the CLI's progress printing and its
//!   `--progress json` mode are observers); [`run_sweep`] is the thin
//!   batch wrapper for callers that only want the final results, while
//!   [`CampaignSession::run_streaming`] pushes completed records into
//!   [`RecordSink`]s (streaming CSV, running aggregates — see [`stream`])
//!   without retaining them, and a checkpoint [`journal`] plus
//!   `--resume` makes killed campaigns restartable from where they
//!   stopped;
//! * [`ResultCache`] content-addresses outcomes (SHA-256 of the canonical
//!   point encoding, which includes `sm_count`) so re-running a figure only
//!   recomputes changed points;
//! * [`report`] renders campaigns as JSON and CSV (including the absolute
//!   power/energy columns behind the power artifacts), and the `sweep`
//!   binary reproduces *every* simulation-backed paper artifact end-to-end:
//!   Figures 9 and 11–14, Table 2, and the power sweep (`sweep power`, with
//!   `--access-energy-pj`/`--leakage-mw-per-kb`/`--dwm-write-penalty`
//!   calibration knobs; Figure 10 is its configuration-#7 slice) — each at
//!   an arbitrary SM count via `--sm-count` — plus `sweep repro`, which
//!   emits the whole artifact set into one directory with 100%-cache-hit
//!   warm reruns, the `gpu-scale` scaling campaign over an SM-count axis
//!   (`--sm-counts 1,2,4,8`), and `gen-campaign`, which sweeps a seeded
//!   random population of hundreds of generated kernels (`--population`,
//!   `--seed`, generator bounds as flags) far beyond the paper's fixed
//!   suite, and `trace-campaign`, which ingests accelsim-style kernel trace
//!   files (`--trace`, repeatable; the `ltrf-trace` frontend lowers each
//!   dynamic PC stream back into a CFG with recovered branch behaviors) and
//!   sweeps the lowered kernels under BL and LTRF — see
//!   [`SweepSpecBuilder::trace_population`] and
//!   [`campaigns::TraceCampaignParams`];
//! * [`campaigns`] holds the canonical spec constructors — exactly one
//!   definition per paper artifact — and [`api`] wraps them in the campaign
//!   registry: typed [`Campaign`] definitions (name/aliases, parameter
//!   schema, artifact kind, summary renderer) that the CLI *generates* its
//!   subcommands, `--help` text, and flag scoping from, and that the
//!   registry/golden/differential regression tests pin against
//!   `REPRODUCING.md`. The analytical artifacts (Table 1, Figure 2,
//!   Table 3, Table 4, the §4.3 overheads) are registry entries too, whose
//!   renderers live in [`analytical`] and whose rows [`experiments`]
//!   computes.
//!
//! `REPRODUCING.md` at the repository root maps every artifact to its
//! command, runtime, CSV schema, and cache behaviour.
//!
//! ```
//! use ltrf_sweep::{run_sweep, ExecutorOptions, SweepSpec};
//! use ltrf_core::Organization;
//!
//! let spec = SweepSpec::builder("doc-example")
//!     .workloads(["hotspot"])
//!     .organizations([Organization::Baseline, Organization::Ltrf])
//!     .build();
//! let results = run_sweep(&spec, &ExecutorOptions::default());
//! assert_eq!(results.len(), 2);
//! assert_eq!(results.failure_count(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytical;
pub mod api;
pub mod cache;
pub mod campaigns;
pub mod executor;
pub mod experiments;
pub mod hash;
pub mod journal;
pub mod out;
pub mod packed;
pub mod pool;
mod reference;
pub mod report;
pub mod spec;
pub mod stream;

/// The fixed campaign seed shared by every driver of the engine, so their
/// cached points are interchangeable. There is deliberately exactly one
/// copy of this literal in the workspace.
pub const CAMPAIGN_SEED: u64 = 0x17F2_2018;

pub use api::{registry, ArtifactKind, Campaign, CampaignParams, CampaignRegistry, ParamSpec};
pub use cache::{point_key, PointKey, ResultCache, CACHE_SCHEMA_VERSION, ENGINE_FINGERPRINT};
pub use campaigns::{GenCampaignParams, InterconnectCampaignParams, TraceCampaignParams};
pub use executor::{
    relative_ipc_series, run_sweep, CampaignEvent, CampaignObserver, CampaignSession,
    CampaignTotals, EventLog, ExecutorOptions, FanoutSink, PointData, PointMeans, PointMeansAcc,
    PointOutcome, PointRecord, RecordSink, SweepResults, Unobserved,
};
pub use journal::{CampaignJournal, CompletedPoint, JournalSnapshot};
pub use ltrf_trace::{LoweringBounds, TraceWorkloadId};
pub use packed::PackedStore;
pub use pool::{default_threads, parallel_map};
pub use spec::{
    GeneratedWorkload, MemorySelection, SeedMode, SweepPoint, SweepSpec, SweepSpecBuilder,
};
pub use stream::{AggregateSink, MemberTail, RunningAggregates, StreamingCsvWriter};

/// Cache-hit percentage floored to one decimal place: "100.0" only when
/// literally every point was a hit — the CI smoke jobs grep for it, and
/// `{:.1}` *rounding* would report 100.0% at 2999/3000. One decimal keeps a
/// single lost point visible at warm-rerun scale (an integer floor printed
/// a 99.9% rerun as "99", indistinguishable from a real regression).
/// Shared by the CLI summaries and the `repro` renderer in [`api`].
#[must_use]
pub fn hit_percent_1dp(cached: usize, total: usize) -> f64 {
    ((cached * 1000).checked_div(total).unwrap_or(0) as f64) / 10.0
}
