//! The outside-in trace: every point is driven through the layers' public
//! functions in the order the executor calls them, and each call is timed.
//!
//! [`recompose`] is the executor's `evaluate_point` spelled out call by
//! call (workload materialization, the BL reference run, organization
//! build, SM or GPU simulation). The statistics it produces must equal the
//! executor's records exactly, which is what makes the per-layer times a
//! measurement of the same program.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use ltrf_core::{
    build_organization, build_organization_fleet, run_experiment, ExperimentConfig, LtrfParams,
    Organization,
};
use ltrf_sim::{
    simulate_gpu_with, simulate_with, EngineKind, GpuStats, MemoryBehavior, SimStats, SimWorkload,
};
use ltrf_sweep::report::{self, CsvSchema};
use ltrf_sweep::{
    parallel_map, point_key, PointOutcome, PointRecord, RecordSink, ResultCache,
    StreamingCsvWriter, SweepPoint, SweepResults, SweepSpec,
};
use ltrf_workloads::Workload;

/// Seconds elapsed while running `f`, added to `slot`.
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *slot += start.elapsed().as_secs_f64();
    value
}

/// Host time and simulated work of one recomposed point.
#[derive(Debug, Default)]
pub struct PointCost {
    /// Time in `GeneratedWorkload::materialize` (generated points only).
    pub materialize_s: Option<f64>,
    /// Time in `build_organization{,_fleet}`.
    pub build_s: f64,
    /// What the build compiled: kernel, SM count and compiler options.
    pub build_id: String,
    /// Time in the BL reference `run_experiment` and the reference's
    /// identity (normalized points only).
    pub baseline: Option<(f64, String)>,
    /// Time in `simulate_with` (single-SM points).
    pub sm_s: f64,
    /// Time in `simulate_gpu_with` (multi-SM points).
    pub gpu_s: f64,
    /// Instructions and cycles of the single-SM simulation.
    pub instructions: u64,
    /// See [`PointCost::instructions`].
    pub cycles: u64,
    /// Whole-GPU cycles of the multi-SM simulation.
    pub gpu_cycles: u64,
    /// Whether the simulation hit the safety cycle cap.
    pub truncated: bool,
}

/// The statistics a recomposed point produced.
#[derive(Debug)]
pub struct Recomposed {
    stats: SimStats,
    gpu: Option<GpuStats>,
    normalized_ipc: Option<f64>,
}

impl Recomposed {
    /// Whether the executor's record carries exactly these statistics
    /// (exact `f64` equality), or the same error.
    pub fn matches(result: &Result<Recomposed, String>, record: &PointRecord) -> bool {
        match (result, &record.outcome) {
            (Ok(r), PointOutcome::Ok(data)) => {
                data.result.stats == r.stats
                    && data.result.gpu == r.gpu
                    && data.normalized_ipc == r.normalized_ipc
            }
            (Err(e), PointOutcome::Error(recorded)) => e == recorded,
            _ => false,
        }
    }
}

/// Evaluates one point by calling each layer directly, exactly as
/// `ltrf_core::run_normalized`/`run_experiment` compose them.
pub fn recompose(
    spec: &SweepSpec,
    point: &SweepPoint,
    suite: &HashMap<&str, Workload>,
    seed: u64,
    cost: &mut PointCost,
) -> Result<Recomposed, String> {
    if point.trace.is_some() {
        return Err("trace-driven points are not traced by this benchmark".to_string());
    }
    let generated;
    let workload = match &point.generated {
        Some(identity) => {
            let mut seconds = 0.0;
            generated = timed(&mut seconds, || identity.materialize());
            cost.materialize_s = Some(seconds);
            &generated
        }
        None => suite.get(point.workload.as_str()).ok_or_else(|| {
            format!(
                "unknown workload `{}` (not in the evaluated suite)",
                point.workload
            )
        })?,
    };
    let kernel_id = match &point.generated {
        Some(identity) => serde::to_json_string(identity),
        None => point.workload.clone(),
    };
    let memory = point.memory.behavior(workload);
    let config = &point.config;
    let sm_count = config.sm_count.max(1);

    let baseline_ipc = if spec.normalize {
        let reference = ExperimentConfig::new(Organization::Baseline)
            .with_sm_count(sm_count)
            .with_power_params(config.power);
        let mut seconds = 0.0;
        let baseline = timed(&mut seconds, || {
            run_experiment(&workload.kernel, memory, seed, &reference)
        })
        .map_err(|e| e.to_string())?;
        let identity = format!(
            "{kernel_id}|{}|{seed}|{sm_count}|{}",
            serde::to_json_string(&memory),
            serde::to_json_string(&config.power)
        );
        cost.baseline = Some((seconds, identity));
        Some(baseline.ipc)
    } else {
        None
    };

    cost.build_id = match config.organization.subgraph_kind() {
        Some(kind) => format!(
            "{kernel_id}|{sm_count}|{kind:?}|{}",
            config.registers_per_interval
        ),
        None => format!("{kernel_id}|{sm_count}|none"),
    };
    let params = LtrfParams {
        registers_per_interval: config.registers_per_interval,
        active_warps: config.active_warps,
        liveness_aware: config.organization == Organization::LtrfPlus,
    };
    let sm = config.sm_config();
    let (stats, gpu) = if sm_count == 1 {
        let mut built = timed(&mut cost.build_s, || {
            build_organization(
                config.organization,
                &workload.kernel,
                sm.regfile,
                params,
                config.rfc_entries_per_warp,
            )
        })
        .map_err(|e| e.to_string())?;
        let run = SimWorkload::new(built.kernel.clone())
            .with_memory(memory)
            .with_seed(seed);
        let stats = timed(&mut cost.sm_s, || {
            simulate_with(&run, &sm, built.model.as_mut(), EngineKind::default())
        });
        cost.instructions = stats.instructions;
        cost.cycles = stats.cycles;
        (stats, None)
    } else {
        // The runner's weak scaling: grid and footprint grow with the SMs.
        let scaled = workload
            .kernel
            .with_grid_scaled(u32::try_from(sm_count).unwrap_or(u32::MAX));
        let scaled_memory = MemoryBehavior {
            footprint_bytes: memory.footprint_bytes.saturating_mul(sm_count as u64),
            ..memory
        };
        let (kernel, mut models) = timed(&mut cost.build_s, || {
            build_organization_fleet(
                config.organization,
                &scaled,
                sm.regfile,
                params,
                config.rfc_entries_per_warp,
                sm_count,
            )
        })
        .map_err(|e| e.to_string())?;
        let run = SimWorkload::new(kernel)
            .with_memory(scaled_memory)
            .with_seed(seed);
        let gpu = timed(&mut cost.gpu_s, || {
            simulate_gpu_with(
                &run,
                &config.gpu_config(),
                &mut models,
                EngineKind::default(),
            )
        });
        cost.gpu_cycles = gpu.cycles;
        (gpu.aggregate(), Some(gpu))
    };
    cost.truncated = stats.truncated || gpu.as_ref().is_some_and(|g| g.truncated);
    let normalized_ipc = baseline_ipc.map(|reference| {
        if reference > 0.0 {
            stats.ipc() / reference
        } else {
            0.0
        }
    });
    Ok(Recomposed {
        stats,
        gpu,
        normalized_ipc,
    })
}

/// The evaluated suite by name, as the executor resolves suite points.
pub fn suite_by_name() -> HashMap<&'static str, Workload> {
    ltrf_workloads::evaluated_suite()
        .into_iter()
        .map(|w| (w.name(), w))
        .collect()
}

/// Per-layer totals of one traced campaign run (a cold pass, then a warm
/// one over the cache it filled).
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub materialize_s: f64,
    pub materialize_calls: u64,
    pub build_s: f64,
    pub build_calls: u64,
    pub build_ids: HashSet<String>,
    pub baseline_s: f64,
    pub baseline_calls: u64,
    pub baseline_ids: HashSet<String>,
    pub sm_s: f64,
    pub instructions: u64,
    pub cycles: u64,
    pub gpu_s: f64,
    pub gpu_cycles: u64,
    pub truncated: u64,
    pub key_s: f64,
    pub load_s: f64,
    pub loads: u64,
    pub hits: u64,
    pub store_s: f64,
    pub stores: u64,
    pub render_s: f64,
    pub report_bytes: u64,
    /// Points whose traced outcome differs from the executor's record.
    pub mismatches: Vec<String>,
}

/// What one point of a traced pass did.
#[derive(Debug, Default)]
struct PointTrace {
    key_s: f64,
    load_s: f64,
    hit: bool,
    computed: Option<PointCost>,
    store_s: f64,
    stored: bool,
    matched: bool,
}

impl LayerTotals {
    fn add(&mut self, point: PointTrace) {
        self.key_s += point.key_s;
        self.load_s += point.load_s;
        self.loads += 1;
        self.hits += u64::from(point.hit);
        let Some(cost) = point.computed else {
            return;
        };
        if let Some(seconds) = cost.materialize_s {
            self.materialize_s += seconds;
            self.materialize_calls += 1;
        }
        self.build_s += cost.build_s;
        self.build_calls += 1;
        self.build_ids.insert(cost.build_id);
        if let Some((seconds, identity)) = cost.baseline {
            self.baseline_s += seconds;
            self.baseline_calls += 1;
            self.baseline_ids.insert(identity);
        }
        self.sm_s += cost.sm_s;
        self.instructions += cost.instructions;
        self.cycles += cost.cycles;
        self.gpu_s += cost.gpu_s;
        self.gpu_cycles += cost.gpu_cycles;
        self.truncated += u64::from(cost.truncated);
        self.store_s += point.store_s;
        self.stores += u64::from(point.stored);
    }

    /// Traces the cold pass of one campaign over `cache`: key, load, and on
    /// a miss the recomposed evaluation and the store, checking every point
    /// against the executor's record of it.
    pub fn cold_spec(
        &mut self,
        spec: &SweepSpec,
        reference: &[PointRecord],
        cache: &ResultCache,
        threads: usize,
    ) {
        let suite = suite_by_name();
        let traces = parallel_map(&spec.points, Some(threads), |index, point| {
            let record = &reference[index];
            let mut trace = PointTrace::default();
            let key = timed(&mut trace.key_s, || point_key(spec, point));
            let cached = timed(&mut trace.load_s, || cache.load::<PointOutcome>(&key));
            if let Some(outcome) = cached {
                trace.hit = true;
                trace.matched = outcome == record.outcome;
                return trace;
            }
            let mut cost = PointCost::default();
            let result = recompose(spec, point, &suite, key.seed, &mut cost);
            trace.matched = Recomposed::matches(&result, record);
            trace.computed = Some(cost);
            // The executor caches successes only; the stored value is the
            // executor's outcome, which was just checked equal.
            if let PointOutcome::Ok(_) = &record.outcome {
                let stored = timed(&mut trace.store_s, || cache.store(&key, &record.outcome));
                trace.stored = stored.is_ok();
                trace.matched &= trace.stored;
            }
            trace
        });
        self.fold(spec, traces);
    }

    /// Traces the warm pass of one campaign: key and load only, every
    /// point expected to hit with the executor's outcome.
    pub fn warm_spec(
        &mut self,
        spec: &SweepSpec,
        reference: &[PointRecord],
        cache: &ResultCache,
        threads: usize,
    ) {
        let traces = parallel_map(&spec.points, Some(threads), |index, point| {
            let mut trace = PointTrace::default();
            let key = timed(&mut trace.key_s, || point_key(spec, point));
            let cached = timed(&mut trace.load_s, || cache.load::<PointOutcome>(&key));
            trace.hit = cached.is_some();
            trace.matched = cached.is_some_and(|outcome| outcome == reference[index].outcome);
            trace
        });
        self.fold(spec, traces);
    }

    fn fold(&mut self, spec: &SweepSpec, traces: Vec<Result<PointTrace, String>>) {
        for (index, trace) in traces.into_iter().enumerate() {
            match trace {
                Ok(trace) => {
                    if !trace.matched {
                        self.mismatches.push(format!(
                            "{} point {index}: traced outcome differs from the executor's",
                            spec.name
                        ));
                    }
                    self.add(trace);
                }
                Err(panic) => self.mismatches.push(format!(
                    "{} point {index}: traced call panicked: {panic}",
                    spec.name
                )),
            }
        }
    }

    /// Renders one campaign's reports the way the `sweep` CLI does: the
    /// streaming CSV writer, plus the JSON report unless the campaign runs
    /// on the bounded-memory path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of either report.
    pub fn render(
        &mut self,
        spec: &SweepSpec,
        results: &SweepResults,
        out: &Path,
        json: bool,
    ) -> Result<(), String> {
        let csv_path = out.join(format!("{}.csv", spec.name));
        let json_path = out.join(format!("{}.json", spec.name));
        timed(&mut self.render_s, || {
            let csv = StreamingCsvWriter::create_with_schema(&csv_path, CsvSchema::for_spec(spec))?;
            for (index, record) in results.records.iter().enumerate() {
                csv.on_record(index, record);
            }
            csv.finish()?;
            if json {
                report::write_json(results, &json_path)?;
            }
            std::io::Result::Ok(())
        })
        .map_err(|e| format!("rendering {}: {e}", spec.name))?;
        self.report_bytes += file_len(&csv_path) + if json { file_len(&json_path) } else { 0 };
        Ok(())
    }
}

/// Size of a file in bytes (0 when absent).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_len(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_len(&entry.path()),
            _ => file_len(&entry.path()),
        })
        .sum()
}
