//! The sharded campaign executor.
//!
//! [`CampaignSession`] takes a [`SweepSpec`] and evaluates every point
//! across all cores: workers claim points from a shared queue (so uneven
//! point costs balance out), each point runs under panic isolation,
//! per-point seeds follow the spec's [`SeedMode`], and —
//! when a cache is attached — outcomes are served from and stored to the
//! content-addressed [`ResultCache`]. While the session runs it emits a
//! typed [`CampaignEvent`] stream to a [`CampaignObserver`] (the `sweep`
//! CLI's progress printing — human or `--progress json` — and the bench
//! harness's failure reporting both ride this stream); the batch
//! [`run_sweep`] call is a thin unobserved wrapper kept for callers that
//! only want the final [`SweepResults`].
//!
//! Large campaigns run *streaming*: [`CampaignSession::run_with_sink`]
//! pushes every completed [`PointRecord`] into a [`RecordSink`] (a CSV
//! writer, a running aggregator — see [`crate::stream`]) as it completes,
//! and [`CampaignSession::run_streaming`] drops the records entirely so a
//! 10k+-point campaign never materializes its full row set. The cache is
//! also the checkpoint: every successful point is stored as it completes,
//! and the packed store turns any torn write into a miss, so a killed
//! campaign rerun over the same cache loads what it stored and recomputes
//! only the rest, with the same numbers.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize, Value};

use ltrf_core::{normalize, reference_config, run_experiment, ExperimentConfig, RunResult};
use ltrf_isa::Kernel;
use ltrf_sim::MemoryBehavior;
use ltrf_workloads::{evaluated_suite, Workload};

use crate::cache::{point_key, PointKey, ResultCache};
use crate::pool::{default_threads, panic_message, parallel_map_units};
use crate::reference::{reference_identity, ReferenceMemo};
use crate::spec::{SeedMode, SweepPoint, SweepSpec};

/// The data produced by a successfully evaluated point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointData {
    /// The raw run result.
    pub result: RunResult,
    /// IPC relative to the baseline reference (when the spec normalizes).
    pub normalized_ipc: Option<f64>,
    /// Register-file power relative to the baseline reference (when the
    /// spec normalizes).
    pub normalized_power: Option<f64>,
}

/// How a point concluded.
///
/// The success variant carries the full per-run statistics inline; campaigns
/// allocate one of these per point anyway, so boxing would only add pointer
/// chasing to the hot reporting paths.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PointOutcome {
    /// The point ran (or was cached) successfully.
    Ok(PointData),
    /// The runner returned an error (e.g. a compiler failure or an unknown
    /// workload name).
    Error(String),
    /// The point panicked; the shard survived and the payload is recorded.
    Panicked(String),
}

impl PointOutcome {
    /// The point's data, if it succeeded.
    #[must_use]
    pub fn data(&self) -> Option<&PointData> {
        match self {
            PointOutcome::Ok(data) => Some(data),
            _ => None,
        }
    }

    /// Whether the point failed (error or panic).
    #[must_use]
    pub(crate) fn is_failure(&self) -> bool {
        !matches!(self, PointOutcome::Ok(_))
    }
}

/// One evaluated point: identity, outcome, and provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointRecord {
    /// The point as specified.
    pub point: SweepPoint,
    /// The content digest the point is cached under.
    pub digest_hex: String,
    /// The seed the point ran with.
    pub seed: u64,
    /// The outcome.
    pub outcome: PointOutcome,
    /// Whether the outcome was served from the cache.
    pub from_cache: bool,
}

/// A completed campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResults {
    /// Campaign name (from the spec).
    pub name: String,
    /// One record per spec point, in spec order.
    pub records: Vec<PointRecord>,
}

impl SweepResults {
    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the campaign had no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of points served from the cache.
    #[must_use]
    pub fn cached_count(&self) -> usize {
        self.records.iter().filter(|r| r.from_cache).count()
    }

    /// Number of points computed in this run.
    #[must_use]
    pub fn computed_count(&self) -> usize {
        self.len() - self.cached_count()
    }

    /// Number of failed points (errors plus panics).
    #[must_use]
    pub fn failure_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_failure())
            .count()
    }

    /// Fraction of points served from the cache, in `[0, 1]`.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.cached_count() as f64 / self.len() as f64
        }
    }

    /// Iterates over successful records with their data.
    pub fn successes(&self) -> impl Iterator<Item = (&PointRecord, &PointData)> {
        self.records
            .iter()
            .filter_map(|r| r.outcome.data().map(|d| (r, d)))
    }
}

/// Mean metrics over a set of successful points — the aggregation behind
/// the per-`(sm_count, organization)` summary tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMeans {
    /// Number of points aggregated.
    pub count: usize,
    /// Mean (whole-GPU) IPC.
    pub ipc: f64,
    /// Mean IPC normalized to the baseline reference (points without
    /// normalization contribute zero).
    pub normalized_ipc: f64,
    /// Mean L2 hit rate (the shared L2 for multi-SM points, the private
    /// LLC for single-SM ones).
    pub l2_hit_rate: f64,
    /// Mean DRAM row-buffer hit rate.
    pub dram_row_hit_rate: f64,
    /// Mean cycles requests spent queued behind busy shared-L2 slices
    /// (zero for single-SM points, whose private L2 never queues).
    pub l2_queue_wait: f64,
    /// Mean SM↔L2 network transport latency per routed message (zero under
    /// the `Ideal` topology and for single-SM points).
    pub noc_latency: f64,
}

/// The online fold behind [`PointMeans`]: push successful points one at a
/// time, then [`finish`](PointMeansAcc::finish) into the means. This is what
/// the streaming aggregation path ([`crate::stream::RunningAggregates`])
/// folds `PointFinished` records into, so summary statistics never require
/// the full row set in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PointMeansAcc {
    count: usize,
    ipc: f64,
    normalized_ipc: f64,
    l2_hit_rate: f64,
    dram_row_hit_rate: f64,
    l2_queue_wait: f64,
    noc_latency: f64,
}

impl PointMeansAcc {
    /// Folds one successful point into the running sums.
    pub fn push(&mut self, data: &PointData) {
        self.count += 1;
        self.ipc += data.result.ipc;
        self.normalized_ipc += data.normalized_ipc.unwrap_or(0.0);
        self.l2_hit_rate += data.result.stats.memory.llc.hit_rate();
        self.dram_row_hit_rate += data.result.stats.memory.dram.row_hit_rate();
        self.l2_queue_wait += data.result.stats.memory.l2_queue_wait_cycles as f64;
        self.noc_latency += data.result.stats.memory.noc.mean_latency();
    }

    /// The means over everything pushed; `None` when nothing was.
    #[must_use]
    pub fn finish(&self) -> Option<PointMeans> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        Some(PointMeans {
            count: self.count,
            ipc: self.ipc / n,
            normalized_ipc: self.normalized_ipc / n,
            l2_hit_rate: self.l2_hit_rate / n,
            dram_row_hit_rate: self.dram_row_hit_rate / n,
            l2_queue_wait: self.l2_queue_wait / n,
            noc_latency: self.noc_latency / n,
        })
    }
}

/// Mean IPC relative to each workload's own 1× point, per latency factor,
/// over the successful points selected by `select` — the canonical
/// aggregation behind the Figure 12/13/14 latency-sweep summaries.
///
/// A workload contributes only a *complete* curve: if its 1× reference is
/// missing or non-positive, or any factor's point is absent, the whole
/// workload is excluded from the series (not just the missing factors), so
/// every returned mean averages the same workload set. Returns `None` when
/// no workload has a complete curve. `factors` must contain `1.0` for any
/// curve to be complete.
pub(crate) fn relative_ipc_series<F>(
    results: &SweepResults,
    factors: &[f64],
    select: F,
) -> Option<Vec<f64>>
where
    F: Fn(&PointRecord) -> bool,
{
    // workload → latency-factor bits → ipc
    let mut curves: std::collections::BTreeMap<&str, std::collections::BTreeMap<u64, f64>> =
        std::collections::BTreeMap::new();
    for (record, data) in results.successes() {
        if !select(record) {
            continue;
        }
        curves
            .entry(record.point.workload.as_str())
            .or_default()
            .insert(
                record.point.config.latency_factor().to_bits(),
                data.result.ipc,
            );
    }
    let mut sums = vec![0.0; factors.len()];
    let mut complete = 0usize;
    for curve in curves.values() {
        let Some(&reference) = curve.get(&1.0f64.to_bits()) else {
            continue;
        };
        if reference <= 0.0 {
            continue;
        }
        let Some(relatives) = factors
            .iter()
            .map(|f| curve.get(&f.to_bits()).map(|ipc| ipc / reference))
            .collect::<Option<Vec<f64>>>()
        else {
            continue;
        };
        for (sum, relative) in sums.iter_mut().zip(relatives) {
            *sum += relative;
        }
        complete += 1;
    }
    if complete == 0 {
        return None;
    }
    Some(sums.into_iter().map(|s| s / complete as f64).collect())
}

/// Execution policy knobs.
#[derive(Debug, Default)]
pub struct ExecutorOptions {
    /// Worker threads; `None` uses every available core.
    pub threads: Option<usize>,
    /// Cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// When `true`, ignore cached outcomes (but still store fresh ones).
    pub force_recompute: bool,
}

/// A consumer of completed [`PointRecord`]s, called from the worker threads
/// as points finish (in completion order, not spec order — the record's
/// `index` is its position in [`SweepSpec::points`]).
///
/// Sinks are how streaming campaigns bound their memory: a
/// [`StreamingCsvWriter`](crate::StreamingCsvWriter) writes each row to disk
/// as it completes, so it never needs the full row set. Every point reaches
/// the sink exactly once, including failures (panic-isolated fallbacks
/// included).
pub trait RecordSink: Sync {
    /// Called once per completed point.
    fn on_record(&self, index: usize, record: &PointRecord);
}

/// The no-op sink.
impl RecordSink for () {
    fn on_record(&self, _index: usize, _record: &PointRecord) {}
}

/// Broadcasts every record to several sinks in order (CSV writer plus
/// aggregator is the common pair).
#[derive(Clone, Copy)]
pub struct FanoutSink<'a>(
    /// The sinks, each of which sees every record.
    pub &'a [&'a dyn RecordSink],
);

impl RecordSink for FanoutSink<'_> {
    fn on_record(&self, index: usize, record: &PointRecord) {
        for sink in self.0 {
            sink.on_record(index, record);
        }
    }
}

/// How a campaign's points resolved, by provenance — the summary a
/// streaming run reports without retaining its records. The counts
/// partition the campaign:
/// `computed + cached == points`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CampaignTotals {
    /// Total points in the campaign.
    pub points: usize,
    /// Points evaluated fresh in this run (including failures).
    pub computed: usize,
    /// Points served live from the result cache.
    pub cached: usize,
    /// Points that failed (errors plus panics).
    pub failed: usize,
    /// Fraction of points served from the cache, `cached / points`, in
    /// `[0, 1]` — the same quantity as [`SweepResults::cache_hit_rate`].
    pub hit_rate: f64,
}

// ---------------------------------------------------------------------------
// The event stream — typed progress emitted while a session runs
// ---------------------------------------------------------------------------

/// A typed progress event emitted by a [`CampaignSession`] while it runs.
///
/// Events for different points interleave freely (workers claim points from
/// a shared queue), so every per-point event carries the point's index into
/// [`SweepSpec::points`]. Per campaign, the stream always contains exactly
/// one `CampaignStarted`, then one `PointStarted` and one terminal
/// `PointFinished` *or* `PointFailed` per point, and finally exactly one
/// `CampaignFinished` whose counts match the returned [`SweepResults`].
///
/// [`CampaignEvent::to_json_line`] renders an event as the stable
/// line-delimited JSON schema behind the CLI's `--progress json` mode
/// (documented in `REPRODUCING.md`).
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// The session is about to evaluate the campaign's points.
    CampaignStarted {
        /// Campaign name (from the spec).
        campaign: String,
        /// Number of points the campaign will evaluate.
        points: usize,
    },
    /// A worker claimed a point and is about to resolve it.
    PointStarted {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// The point's workload name.
        workload: String,
        /// The point's register-file organization label.
        organization: &'static str,
    },
    /// A point resolved successfully (computed, or served from the cache).
    PointFinished {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// Whether the outcome was served from the result cache.
        cache_hit: bool,
    },
    /// Never emitted: no session restores points from a checkpoint (the
    /// cache is the checkpoint). The variant remains only because the
    /// benchmark harness (`perfbench/`) matches on it; it goes when the
    /// benchmark is next redefined.
    PointRestored {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// The cache provenance the point would carry.
        from_cache: bool,
    },
    /// Never emitted: no session coalesces points with another. The variant
    /// remains only because the benchmark harness (`perfbench/`) matches on
    /// it; it goes when the benchmark is next redefined.
    PointCoalesced {
        /// Index into [`SweepSpec::points`].
        index: usize,
    },
    /// A point failed (runner error or isolated panic); the campaign
    /// continues.
    PointFailed {
        /// Index into [`SweepSpec::points`].
        index: usize,
        /// The point's workload name.
        workload: String,
        /// The point's register-file organization label.
        organization: &'static str,
        /// The point's Table 2 design point (disambiguates multi-config
        /// campaigns in failure reports).
        config_id: u8,
        /// The error or panic payload.
        error: String,
    },
    /// Every point resolved; the campaign's results are final.
    CampaignFinished {
        /// Campaign name (from the spec).
        campaign: String,
        /// Points evaluated fresh in this run.
        computed: usize,
        /// Points served live from the cache.
        cached: usize,
        /// Points that failed.
        failed: usize,
        /// Fraction of points served from the cache, in `[0, 1]` (matches
        /// [`SweepResults::cache_hit_rate`]).
        hit_rate: f64,
    },
}

impl CampaignEvent {
    /// Renders the event as one line of the CLI's `--progress json` stream:
    /// a flat JSON object whose `event` field is the snake_case variant
    /// name, followed by the variant's fields. The schema is documented in
    /// `REPRODUCING.md` and pinned by the registry tests.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
            .to_json()
        };
        match self {
            CampaignEvent::CampaignStarted { campaign, points } => obj(vec![
                ("event", Value::Str("campaign_started".into())),
                ("campaign", Value::Str(campaign.clone())),
                ("points", Value::UInt(*points as u64)),
            ]),
            CampaignEvent::PointStarted {
                index,
                workload,
                organization,
            } => obj(vec![
                ("event", Value::Str("point_started".into())),
                ("index", Value::UInt(*index as u64)),
                ("workload", Value::Str(workload.clone())),
                ("organization", Value::Str((*organization).to_string())),
            ]),
            CampaignEvent::PointFinished { index, cache_hit } => obj(vec![
                ("event", Value::Str("point_finished".into())),
                ("index", Value::UInt(*index as u64)),
                ("cache_hit", Value::Bool(*cache_hit)),
            ]),
            CampaignEvent::PointRestored { index, from_cache } => obj(vec![
                ("event", Value::Str("point_restored".into())),
                ("index", Value::UInt(*index as u64)),
                ("from_cache", Value::Bool(*from_cache)),
            ]),
            CampaignEvent::PointCoalesced { index } => obj(vec![
                ("event", Value::Str("point_coalesced".into())),
                ("index", Value::UInt(*index as u64)),
            ]),
            CampaignEvent::PointFailed {
                index,
                workload,
                organization,
                config_id,
                error,
            } => obj(vec![
                ("event", Value::Str("point_failed".into())),
                ("index", Value::UInt(*index as u64)),
                ("workload", Value::Str(workload.clone())),
                ("organization", Value::Str((*organization).to_string())),
                ("config_id", Value::UInt(u64::from(*config_id))),
                ("error", Value::Str(error.clone())),
            ]),
            CampaignEvent::CampaignFinished {
                campaign,
                computed,
                cached,
                failed,
                hit_rate,
            } => obj(vec![
                ("event", Value::Str("campaign_finished".into())),
                ("campaign", Value::Str(campaign.clone())),
                ("computed", Value::UInt(*computed as u64)),
                ("cached", Value::UInt(*cached as u64)),
                ("failed", Value::UInt(*failed as u64)),
                ("hit_rate", Value::Float(*hit_rate)),
            ]),
        }
    }
}

/// A consumer of a session's [`CampaignEvent`] stream.
///
/// Observers are called from the worker threads, so they must be `Sync`;
/// events for different points arrive interleaved. Any `Fn(&CampaignEvent) +
/// Sync` closure is an observer, and [`EventLog`] collects the stream for
/// inspection (tests, summaries).
pub trait CampaignObserver: Sync {
    /// Called once per event, in stream order per point (but interleaved
    /// across points).
    fn on_event(&self, event: &CampaignEvent);
}

impl<F: Fn(&CampaignEvent) + Sync> CampaignObserver for F {
    fn on_event(&self, event: &CampaignEvent) {
        self(event);
    }
}

/// The no-op observer behind the batch [`run_sweep`] wrapper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unobserved;

impl CampaignObserver for Unobserved {
    fn on_event(&self, _event: &CampaignEvent) {}
}

/// An observer that collects the whole event stream, for inspection after
/// the run (the event-stream regression tests are built on this).
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<CampaignEvent>>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Drains and returns the events collected so far, in arrival order.
    #[must_use]
    pub fn take(&self) -> Vec<CampaignEvent> {
        std::mem::take(&mut self.events.lock().expect("event log poisoned"))
    }
}

impl CampaignObserver for EventLog {
    fn on_event(&self, event: &CampaignEvent) {
        self.events
            .lock()
            .expect("event log poisoned")
            .push(event.clone());
    }
}

// ---------------------------------------------------------------------------
// The session — observed campaign execution
// ---------------------------------------------------------------------------

/// One observed execution of a campaign: a [`SweepSpec`] bound to its
/// [`ExecutorOptions`], run with [`CampaignSession::run`] under any
/// [`CampaignObserver`].
///
/// This is the engine's primary execution API; the batch [`run_sweep`] call
/// is `CampaignSession::new(spec, options).run(&Unobserved)`.
///
/// A session simulates each normalization reference once: points that
/// divide by the same BL run share it through the session's reference memo
/// (see DESIGN.md, "Normalization reference"). The memo lives exactly as
/// long as the session, so a new session always starts cold.
#[derive(Debug)]
pub struct CampaignSession<'a> {
    spec: &'a SweepSpec,
    options: &'a ExecutorOptions,
    references: ReferenceMemo,
}

impl<'a> CampaignSession<'a> {
    /// Binds a spec to its execution options.
    #[must_use]
    pub fn new(spec: &'a SweepSpec, options: &'a ExecutorOptions) -> Self {
        CampaignSession {
            spec,
            options,
            references: ReferenceMemo::default(),
        }
    }

    /// How many normalization references this session has simulated.
    #[must_use]
    pub fn reference_runs(&self) -> usize {
        self.references.runs()
    }

    /// Runs the campaign, streaming [`CampaignEvent`]s to `observer`.
    ///
    /// Never fails as a whole: per-point problems (unknown workloads,
    /// runner errors, panics) become failure records (and `PointFailed`
    /// events), and an unusable cache directory degrades to running
    /// uncached with a note on stderr.
    #[must_use]
    pub fn run(&self, observer: &dyn CampaignObserver) -> SweepResults {
        self.run_with_sink(observer, &()).0
    }

    /// Runs the campaign, additionally pushing every completed record into
    /// `sink` as it completes (in completion order), and returns the
    /// retained [`SweepResults`] alongside the provenance totals.
    ///
    /// This is the full-fidelity streaming entry point: the CLI fans out to
    /// a streaming CSV writer and a running aggregator while still
    /// retaining records for the JSON report. Failure semantics match
    /// [`run`](CampaignSession::run).
    #[must_use]
    pub fn run_with_sink(
        &self,
        observer: &dyn CampaignObserver,
        sink: &dyn RecordSink,
    ) -> (SweepResults, CampaignTotals) {
        let (records, totals) = self.run_inner(observer, sink, true);
        (
            SweepResults {
                name: self.spec.name.clone(),
                records,
            },
            totals,
        )
    }

    /// Runs the campaign without retaining records: every completed record
    /// is pushed into `sink` and dropped, so memory stays bounded by the
    /// sinks (not the point count). Returns the provenance totals only.
    ///
    /// This is the 10k+-point entry point — pair it with a
    /// [`StreamingCsvWriter`](crate::StreamingCsvWriter). Failure semantics
    /// match [`run`](CampaignSession::run).
    pub fn run_streaming(
        &self,
        observer: &dyn CampaignObserver,
        sink: &dyn RecordSink,
    ) -> CampaignTotals {
        self.run_inner(observer, sink, false).1
    }

    fn run_inner(
        &self,
        observer: &dyn CampaignObserver,
        sink: &dyn RecordSink,
        retain: bool,
    ) -> (Vec<PointRecord>, CampaignTotals) {
        let spec = self.spec;
        let options = self.options;
        let cache: Option<ResultCache> = options.cache_dir.as_ref().and_then(|dir| {
            ResultCache::open(dir)
                .map_err(|e| {
                    eprintln!(
                        "sweep: cache at {} unusable ({e}); running uncached",
                        dir.display()
                    )
                })
                .ok()
        });
        let suite: HashMap<&str, Workload> = evaluated_suite()
            .into_iter()
            .map(|w| (w.name(), w))
            .collect();

        observer.on_event(&CampaignEvent::CampaignStarted {
            campaign: spec.name.clone(),
            points: spec.points.len(),
        });

        let threads = options.threads.unwrap_or_else(default_threads);
        let units = reference_units(spec, threads);
        // A worker hands back its record boxed (and only when retaining), so
        // the pool keeps a pointer-sized slot per point, not a whole record:
        // at 10k points the inline slots alone were a 10 MB buffer.
        let outcomes = parallel_map_units(&spec.points, &units, Some(threads), |index, point| {
            observer.on_event(&CampaignEvent::PointStarted {
                index,
                workload: point.workload.clone(),
                organization: point.config.organization.label(),
            });
            let key = point_key(spec, point);
            let cached = if options.force_recompute {
                None
            } else {
                cache.as_ref().and_then(|c| c.load::<PointOutcome>(&key))
            };
            let from_cache = cached.is_some();
            let outcome = cached.unwrap_or_else(|| {
                let outcome = evaluate_point(spec, point, &suite, key.seed, &self.references);
                // Only successes are cached: failures may be transient (and
                // must stay visible on every run until fixed).
                if let (PointOutcome::Ok(_), Some(cache)) = (&outcome, &cache) {
                    if let Err(e) = cache.store(&key, &outcome) {
                        eprintln!("sweep: failed to store {}: {e}", key.digest_hex);
                    }
                }
                outcome
            });
            observer.on_event(&match &outcome {
                PointOutcome::Ok(_) => CampaignEvent::PointFinished {
                    index,
                    cache_hit: from_cache,
                },
                PointOutcome::Error(e) | PointOutcome::Panicked(e) => CampaignEvent::PointFailed {
                    index,
                    workload: point.workload.clone(),
                    organization: point.config.organization.label(),
                    config_id: point.config.mrf_config.id.0,
                    error: e.clone(),
                },
            });
            let record = make_record(point, &key, outcome, from_cache);
            sink.on_record(index, &record);
            let tally = Tally {
                cached: from_cache,
                failed: record.outcome.is_failure(),
            };
            (retain.then(|| Box::new(record)), tally)
        });

        let mut totals = CampaignTotals {
            points: spec.points.len(),
            ..CampaignTotals::default()
        };
        let mut records = Vec::with_capacity(if retain { spec.points.len() } else { 0 });
        for (index, (result, point)) in outcomes.into_iter().zip(&spec.points).enumerate() {
            let (record, tally) = result.unwrap_or_else(|panic_msg| {
                // The evaluation itself is already panic-isolated, so this
                // only triggers if record assembly or the cache panicked —
                // emit the failure so the stream (and the sink) still carry
                // one terminal event per point.
                observer.on_event(&CampaignEvent::PointFailed {
                    index,
                    workload: point.workload.clone(),
                    organization: point.config.organization.label(),
                    config_id: point.config.mrf_config.id.0,
                    error: panic_msg.clone(),
                });
                let key = point_key(spec, point);
                let record = make_record(point, &key, PointOutcome::Panicked(panic_msg), false);
                sink.on_record(index, &record);
                let tally = Tally {
                    cached: false,
                    failed: true,
                };
                (retain.then(|| Box::new(record)), tally)
            });
            if tally.cached {
                totals.cached += 1;
            } else {
                totals.computed += 1;
            }
            if tally.failed {
                totals.failed += 1;
            }
            if let Some(record) = record {
                records.push(*record);
            }
        }
        totals.hit_rate = if totals.points == 0 {
            0.0
        } else {
            totals.cached as f64 / totals.points as f64
        };

        observer.on_event(&CampaignEvent::CampaignFinished {
            campaign: spec.name.clone(),
            computed: totals.computed,
            cached: totals.cached,
            failed: totals.failed,
            hit_rate: totals.hit_rate,
        });
        (records, totals)
    }
}

/// Per-point provenance bookkeeping carried back from the workers.
#[derive(Debug, Clone, Copy)]
struct Tally {
    cached: bool,
    failed: bool,
}

/// Runs a campaign unobserved — the batch wrapper over
/// [`CampaignSession::run`], kept for callers that only want the final
/// [`SweepResults`].
///
/// Never fails as a whole: per-point problems (unknown workloads, runner
/// errors, panics) become failure records, and an unusable cache directory
/// degrades to running uncached with a note on stderr.
#[must_use]
pub fn run_sweep(spec: &SweepSpec, options: &ExecutorOptions) -> SweepResults {
    CampaignSession::new(spec, options).run(&Unobserved)
}

fn make_record(
    point: &SweepPoint,
    key: &PointKey,
    outcome: PointOutcome,
    from_cache: bool,
) -> PointRecord {
    PointRecord {
        point: point.clone(),
        digest_hex: key.digest_hex.clone(),
        seed: key.seed,
        outcome,
        from_cache,
    }
}

/// The units workers claim (see [`parallel_map_units`]), in claim order:
/// runs of consecutive points that divide by the same normalization
/// reference, so one worker simulates the reference and the rest of its
/// unit reuses it without waiting on another worker. Units are capped at a
/// quarter of each worker's share so the workers still balance. Without
/// normalization, or with per-point seeds (every point its own reference),
/// every point is a unit of its own.
///
/// When the spec mixes SM counts, units are claimed biggest first by their
/// total SM count, the weak-scaled work they simulate, so that no worker
/// starts a 16-SM point while the others run out of work (longest
/// processing time first); ties keep spec order. A spec whose points all
/// have one SM count, such as every 1-SM campaign, keeps spec order.
fn reference_units(spec: &SweepSpec, threads: usize) -> Vec<Range<usize>> {
    let points = &spec.points;
    let shared = spec.normalize && matches!(spec.seed_mode, SeedMode::Fixed(_));
    let cap = (points.len() / (threads.max(1) * 4)).max(1);
    let mut units: Vec<Range<usize>> = Vec::new();
    for (i, point) in points.iter().enumerate() {
        match units.last_mut() {
            Some(unit) if shared && unit.len() < cap && same_reference(&points[i - 1], point) => {
                unit.end = i + 1;
            }
            _ => units.push(i..i + 1),
        }
    }
    if points
        .iter()
        .any(|p| p.config.sm_count != points[0].config.sm_count)
    {
        // A stable sort that computes each unit's cost once.
        units.sort_by_cached_key(|unit| {
            Reverse(
                points[unit.clone()]
                    .iter()
                    .map(|p| p.config.sm_count)
                    .sum::<usize>(),
            )
        });
    }
    units
}

/// Whether two points of a fixed-seed normalized spec divide by the same
/// reference run.
fn same_reference(a: &SweepPoint, b: &SweepPoint) -> bool {
    a.workload == b.workload
        && a.generated == b.generated
        && a.trace == b.trace
        && a.memory == b.memory
        && reference_config(&a.config) == reference_config(&b.config)
}

/// Whether a run stopped at the safety cycle cap before every warp
/// finished.
fn truncated(run: &RunResult) -> bool {
    run.stats.truncated || run.gpu.as_ref().is_some_and(|gpu| gpu.truncated)
}

/// Classifies an evaluated point: its data, unless its run or its
/// normalization reference was cut off by the safety cycle cap. A partial
/// run is never reported (or cached) as a result.
fn classify(data: PointData, reference: Option<&RunResult>, max_cycles: u64) -> PointOutcome {
    let cut_off = if truncated(&data.result) {
        "the simulation"
    } else if reference.is_some_and(truncated) {
        "the BL reference run"
    } else {
        return PointOutcome::Ok(data);
    };
    PointOutcome::Error(format!(
        "{cut_off} hit the {max_cycles}-cycle safety cap before every warp finished"
    ))
}

/// Evaluates one point, converting panics into [`PointOutcome::Panicked`].
///
/// Suite points resolve their workload by name against the evaluated suite;
/// generated points rematerialize theirs from the point's
/// [`GeneratedWorkload`](crate::spec::GeneratedWorkload) identity (an
/// index-stable draw, so the same identity always yields the same kernel);
/// trace points re-read, fingerprint-verify, and lower theirs from the
/// point's [`TraceWorkloadId`](ltrf_trace::TraceWorkloadId) (a missing,
/// edited, or malformed trace file becomes a typed per-point error, not a
/// campaign failure). Everything downstream — the runner, normalization
/// against [`reference_config`], and power reporting — is identical for all
/// three.
///
/// A normalized point runs its own organization first and then takes its
/// reference from `references`, so it seldom waits on a reference another
/// worker is still simulating. A point whose configuration is its own
/// reference publishes its run as the reference.
fn evaluate_point(
    spec: &SweepSpec,
    point: &SweepPoint,
    suite: &HashMap<&str, Workload>,
    seed: u64,
    references: &ReferenceMemo,
) -> PointOutcome {
    let traced = match point
        .trace
        .as_ref()
        .map(ltrf_trace::TraceWorkloadId::materialize)
    {
        Some(Ok(workload)) => Some(workload),
        Some(Err(e)) => return PointOutcome::Error(e.to_string()),
        None => None,
    };
    let generated = point.generated.as_ref().map(|g| g.materialize());
    let workload = match (&traced, &generated, suite.get(point.workload.as_str())) {
        (Some(traced), _, _) => traced,
        (None, Some(generated), _) => generated,
        (None, None, Some(suite_workload)) => suite_workload,
        (None, None, None) => {
            return PointOutcome::Error(format!(
                "unknown workload `{}` (not in the evaluated suite)",
                point.workload
            ));
        }
    };
    let memory = point.memory.behavior(workload);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simulate_point(
            spec.normalize,
            point,
            &workload.kernel,
            memory,
            seed,
            references,
        )
    }));
    match run {
        Ok(Ok((data, reference))) => classify(
            data,
            reference.as_deref(),
            point.config.sm_config().max_cycles,
        ),
        Ok(Err(failure)) => *failure,
        Err(payload) => PointOutcome::Panicked(panic_message(payload)),
    }
}

/// Simulates a point and, when it is normalized, takes its reference from
/// `references`. Returns the point's data and the reference run it was
/// divided by.
fn simulate_point(
    normalized: bool,
    point: &SweepPoint,
    kernel: &Kernel,
    memory: MemoryBehavior,
    seed: u64,
    references: &ReferenceMemo,
) -> Result<(PointData, Option<Arc<RunResult>>), Box<PointOutcome>> {
    let run_config = |config: &ExperimentConfig| {
        run_experiment(kernel, memory, seed, config)
            .map_err(|e| Box::new(PointOutcome::Error(e.to_string())))
    };
    let config = &point.config;
    if !normalized {
        let data = PointData {
            result: run_config(config)?,
            normalized_ipc: None,
            normalized_power: None,
        };
        return Ok((data, None));
    }
    let reference = reference_config(config);
    let identity = reference_identity(point, &memory, seed, &reference);
    let (result, reference_run) = if *config == reference {
        let run = references.get_or_run(&identity, || run_config(&reference))?;
        (RunResult::clone(&run), run)
    } else {
        let result = run_config(config)?;
        let run = references.get_or_run(&identity, || run_config(&reference))?;
        (result, run)
    };
    let normalized = normalize(result, &reference_run);
    let data = PointData {
        result: normalized.result,
        normalized_ipc: Some(normalized.normalized_ipc),
        normalized_power: Some(normalized.normalized_power),
    };
    Ok((data, Some(reference_run)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceOutcome;

    /// An empty campaign must report a 0.0 hit rate, not NaN: the vendored
    /// serde stand-in renders floats with `{:?}`, so a NaN flowing into
    /// `CampaignFinished{hit_rate}` would emit a literal `NaN` — invalid
    /// JSON — on the `--progress json` stream.
    #[test]
    fn empty_campaign_hit_rate_is_zero_not_nan() {
        let results = SweepResults {
            name: "empty".to_string(),
            records: Vec::new(),
        };
        let rate = results.cache_hit_rate();
        assert!(rate.is_finite(), "0/0 must not produce NaN");
        assert_eq!(rate, 0.0);

        let event = CampaignEvent::CampaignFinished {
            campaign: "empty".to_string(),
            computed: 0,
            cached: 0,
            failed: 0,
            hit_rate: rate,
        };
        let line = event.to_json_line();
        assert!(
            serde::from_json_str::<Value>(&line).is_ok(),
            "the finished event must stay valid JSON: {line}"
        );
        assert!(!line.contains("NaN"), "no NaN leakage: {line}");
    }

    /// The empty-spec degenerate case end to end: an executed zero-point
    /// campaign yields finite totals. (Built via a struct literal — the
    /// builder rejects empty workload axes by design.)
    #[test]
    fn zero_point_session_reports_finite_totals() {
        let spec = SweepSpec {
            name: "degenerate".to_string(),
            points: Vec::new(),
            seed_mode: SeedMode::Fixed(1),
            normalize: false,
        };
        let options = ExecutorOptions::default();
        let (results, totals) =
            CampaignSession::new(&spec, &options).run_with_sink(&Unobserved, &());
        assert!(results.is_empty());
        assert_eq!(totals.points, 0);
        assert!(totals.hit_rate.is_finite());
        assert_eq!(totals.hit_rate, 0.0);
    }

    /// A run with the given truncation flags on its own statistics and on
    /// its whole-GPU statistics.
    fn run_result(truncated: bool, gpu_truncated: Option<bool>) -> RunResult {
        RunResult {
            organization: ltrf_core::Organization::Baseline,
            stats: ltrf_sim::SimStats {
                truncated,
                ..ltrf_sim::SimStats::default()
            },
            gpu: gpu_truncated.map(|truncated| ltrf_sim::GpuStats {
                sm_count: 1,
                cycles: 1,
                instructions: 1,
                per_sm: Vec::new(),
                ctas_per_sm: Vec::new(),
                ctas_launched: 1,
                ctas_dispatched: 1,
                l2: Default::default(),
                dram: Default::default(),
                l2_queue_wait_cycles: 0,
                l2_slice_wait_min: 0,
                l2_slice_wait_max: 0,
                noc: Default::default(),
                truncated,
            }),
            ipc: 1.0,
            power: ltrf_tech::PowerBreakdown::default(),
            cache_hit_rate: None,
        }
    }

    fn data(result: RunResult) -> PointData {
        PointData {
            result,
            normalized_ipc: Some(1.0),
            normalized_power: Some(1.0),
        }
    }

    #[test]
    fn truncated_runs_and_references_are_errors_naming_the_cap() {
        let complete = run_result(false, Some(false));
        assert!(matches!(
            classify(data(complete.clone()), Some(&complete), 7),
            PointOutcome::Ok(_)
        ));
        for (run, reference) in [
            (run_result(true, None), complete.clone()),
            (run_result(false, Some(true)), complete.clone()),
            (complete.clone(), run_result(true, None)),
            (complete.clone(), run_result(false, Some(true))),
        ] {
            let PointOutcome::Error(error) = classify(data(run), Some(&reference), 50_000_000)
            else {
                panic!("a truncated run must be an error");
            };
            assert!(error.contains("50000000-cycle safety cap"), "{error}");
        }
        let PointOutcome::Error(error) = classify(data(run_result(true, None)), None, 9) else {
            panic!("an un-normalized truncated run is an error too");
        };
        assert!(
            error.starts_with("the simulation hit the 9-cycle"),
            "{error}"
        );
    }

    /// A small normalized spec: two organizations of one quick workload,
    /// which share one reference.
    fn shared_reference_spec() -> SweepSpec {
        SweepSpec::builder("shared-reference")
            .workloads(["btree"])
            .organizations([ltrf_core::Organization::Ideal, ltrf_core::Organization::Rfc])
            .config_ids([6])
            .seed_mode(SeedMode::Fixed(5))
            .normalize(true)
            .build()
    }

    /// Memoizes `outcome` as the reference of every point of `spec`.
    fn prefill(session: &CampaignSession<'_>, spec: &SweepSpec, outcome: &ReferenceOutcome) {
        let suite = evaluated_suite();
        for point in &spec.points {
            let workload = suite.iter().find(|w| w.name() == point.workload).unwrap();
            let memory = point.memory.behavior(workload);
            let seed = point_key(spec, point).seed;
            let identity =
                reference_identity(point, &memory, seed, &reference_config(&point.config));
            session.references.insert(&identity, outcome.clone());
        }
    }

    fn temp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltrf-executor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_truncated_reference_fails_its_points_and_nothing_is_stored() {
        let spec = shared_reference_spec();
        let dir = temp_cache("truncated");
        let options = ExecutorOptions {
            threads: Some(2),
            cache_dir: Some(dir.clone()),
            ..ExecutorOptions::default()
        };
        let session = CampaignSession::new(&spec, &options);
        prefill(&session, &spec, &Ok(Arc::new(run_result(true, None))));
        let results = session.run(&Unobserved);
        assert_eq!(
            session.reference_runs(),
            0,
            "the reference came from the memo"
        );
        for record in &results.records {
            let PointOutcome::Error(error) = &record.outcome else {
                panic!("expected a truncation error, got {:?}", record.outcome);
            };
            assert!(error.starts_with("the BL reference run hit the"), "{error}");
        }
        assert!(ResultCache::open(&dir).unwrap().is_empty(), "never stored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicked_reference_fails_every_dependent_point_without_caching() {
        let spec = shared_reference_spec();
        let dir = temp_cache("panicked");
        let options = ExecutorOptions {
            threads: Some(2),
            cache_dir: Some(dir.clone()),
            ..ExecutorOptions::default()
        };
        let session = CampaignSession::new(&spec, &options);
        let failure = PointOutcome::Panicked("reference exploded".to_string());
        prefill(&session, &spec, &Err(Box::new(failure.clone())));
        let results = session.run(&Unobserved);
        assert_eq!(results.records.len(), 2);
        for record in &results.records {
            assert_eq!(record.outcome, failure);
        }
        assert!(ResultCache::open(&dir).unwrap().is_empty(), "never stored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The unit starts, for specs whose units keep spec order.
    fn unit_starts(spec: &SweepSpec, threads: usize) -> Vec<usize> {
        let units = reference_units(spec, threads);
        let mut next = 0;
        for unit in &units {
            assert_eq!(unit.start, next, "units partition the points in order");
            next = unit.end;
        }
        assert_eq!(next, spec.points.len());
        units.into_iter().map(|unit| unit.start).collect()
    }

    #[test]
    fn units_group_points_that_share_a_reference() {
        let spec = shared_reference_spec();
        assert_eq!(unit_starts(&spec, 1), vec![0, 1]);
        let long = SweepSpec::builder("long")
            .workloads(["btree", "histo"])
            .organizations([
                ltrf_core::Organization::Ideal,
                ltrf_core::Organization::Rfc,
                ltrf_core::Organization::Ltrf,
            ])
            .config_ids([6, 7])
            .seed_mode(SeedMode::Fixed(5))
            .normalize(true)
            .build();
        // 12 points, 6 per workload; one worker may take units of 3.
        assert_eq!(unit_starts(&long, 1), vec![0, 3, 6, 9]);
        // Per-point seeds or no normalization: every point is its own unit.
        let per_point = SweepSpec {
            seed_mode: SeedMode::PerPoint(5),
            ..long.clone()
        };
        assert_eq!(unit_starts(&per_point, 1), (0..12).collect::<Vec<_>>());
        let plain = SweepSpec {
            normalize: false,
            ..long
        };
        assert_eq!(unit_starts(&plain, 1), (0..12).collect::<Vec<_>>());
    }

    /// Units of a spec whose points all have one SM count keep spec
    /// order, even when their sizes differ.
    #[test]
    fn single_sm_count_units_keep_spec_order() {
        let builder = || {
            SweepSpec::builder("one-sm")
                .workloads(["btree", "histo"])
                .organizations([
                    ltrf_core::Organization::Ideal,
                    ltrf_core::Organization::Rfc,
                    ltrf_core::Organization::Shrf,
                    ltrf_core::Organization::Ltrf,
                    ltrf_core::Organization::LtrfPlus,
                ])
                .seed_mode(SeedMode::Fixed(5))
                .normalize(true)
        };
        // 10 points, 5 per workload, units of at most 2: sizes 2, 2, 1, 2, 2, 1.
        for spec in [builder().build(), builder().sm_counts([4]).build()] {
            assert_eq!(
                reference_units(&spec, 1),
                vec![0..2, 2..4, 4..5, 5..7, 7..9, 9..10]
            );
        }
    }

    /// A spec that mixes SM counts claims its units biggest first by total
    /// SM count; ties keep spec order.
    #[test]
    fn mixed_sm_units_are_claimed_biggest_first() {
        let spec = SweepSpec::builder("mixed")
            .workloads(["btree", "histo"])
            .organizations([ltrf_core::Organization::Ltrf])
            .sm_counts([1, 4])
            .seed_mode(SeedMode::Fixed(5))
            .build();
        let sm = |unit: &Range<usize>| spec.points[unit.start].config.sm_count;
        let units = reference_units(&spec, 1);
        assert_eq!(units.iter().map(sm).collect::<Vec<_>>(), vec![4, 4, 1, 1]);
        assert!(units.iter().all(|unit| unit.len() == 1));
        assert!(units[0].start < units[1].start && units[2].start < units[3].start);
    }

    /// An accumulator that folded nothing has no means and a zero count.
    #[test]
    fn point_means_acc_is_none_when_empty() {
        assert_eq!(PointMeansAcc::default().finish(), None);
        assert_eq!(PointMeansAcc::default().count, 0);
    }
}
