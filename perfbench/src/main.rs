//! The repository benchmark: what whole campaigns cost the user, cold and
//! warm, on three fixed workloads (`repro-quick`, `gen-10k`, `noc-quick`),
//! and — with `--trace 1` — an outside-in per-layer trace of the same
//! points. `README.md` in this directory documents every metric and why
//! each workload exists.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro-quick --seed 401743896 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root: the golden CSVs are read from
//! `crates/sweep/tests/golden/`, and scratch caches and reports live under
//! `.perfbench-work/` until the run ends. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod layers;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::Value;

use ltrf_sweep::api::CampaignParams;
use ltrf_sweep::report::{self, CsvSchema};
use ltrf_sweep::{
    registry, CampaignEvent, CampaignObserver, CampaignSession, ExecutorOptions, FanoutSink,
    PointRecord, RecordSink, ResultCache, StreamingCsvWriter, SweepResults, SweepSpec,
};

use layers::{LayerTotals, PointCost, Recomposed};

/// Defaults and recorded outputs: thread count, seeds, gen-10k bounds, and
/// the SHA-256 of each workload's result rows.
const EXPECTED: &str = include_str!("../expected.json");

/// Warm passes per repetition: at least this many, and more until they
/// add up to [`WARM_MIN_S`]. `warm_s` is their median.
const WARM_PASSES: usize = 5;

/// See [`WARM_PASSES`].
const WARM_MIN_S: f64 = 0.5;

/// Points per campaign re-evaluated outside the executor after the first
/// untraced cold pass.
const SPOT_CHECKS: usize = 4;

/// No repetition starts once the run would overshoot this many seconds.
const RUN_LIMIT_S: f64 = 150.0;

/// The committed golden CSVs.
const GOLDEN_DIR: &str = "crates/sweep/tests/golden";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReproQuick,
    Gen10k,
    NocQuick,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::ReproQuick, Workload::Gen10k, Workload::NocQuick];

    fn name(self) -> &'static str {
        match self {
            Workload::ReproQuick => "repro-quick",
            Workload::Gen10k => "gen-10k",
            Workload::NocQuick => "noc-quick",
        }
    }

    /// The campaigns the workload runs, in order, built by the registry the
    /// `sweep` CLI dispatches through.
    fn specs(self, gen: &CampaignParams) -> Result<Vec<SweepSpec>, String> {
        let quick = CampaignParams {
            quick: true,
            ..CampaignParams::default()
        };
        let (campaign, params) = match self {
            Workload::ReproQuick => ("repro", &quick),
            Workload::NocQuick => ("interconnect", &quick),
            Workload::Gen10k => ("gen-campaign", gen),
        };
        registry()
            .find(campaign)
            .ok_or_else(|| format!("campaign `{campaign}` is not registered"))?
            .specs(params)
    }

    /// gen-10k takes the bounded-memory path: rows stream to the CSV and
    /// are dropped, and no JSON report is written.
    fn streaming(self) -> bool {
        self == Workload::Gen10k
    }

    /// Golden fixtures: campaign name, fixture file, and whether the
    /// campaign's rows must equal the fixture (or only contain its rows).
    fn goldens(self) -> &'static [(&'static str, &'static str, bool)] {
        match self {
            Workload::ReproQuick => &[
                ("fig9", "fig9-quick.csv", true),
                ("fig12", "fig12-quick.csv", true),
                ("table2", "table2-quick.csv", true),
            ],
            Workload::NocQuick => &[("interconnect-crossbar", "interconnect-crossbar.csv", false)],
            Workload::Gen10k => &[],
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    /// The gen-10k campaign parameters: population, seed and bounds.
    gen: CampaignParams,
    /// Whether `gen` is the recorded default population for `seed`.
    gen_default: bool,
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a valid number"))
}

fn parse_args(expected: &Value) -> Result<Args, String> {
    let gen_campaign = registry()
        .find("gen-campaign")
        .ok_or("campaign `gen-campaign` is not registered")?;
    // gen-10k's population and bounds use the gen-campaign flags of the
    // `sweep` CLI; `--seed` is the benchmark's own and seeds the population.
    let apply_gen =
        |gen: &mut CampaignParams, flag: &str, value: Option<&str>| match registry().param(flag) {
            Some(spec) if flag != "--seed" && gen_campaign.accepts(spec) => spec.apply(gen, value),
            _ => Err(format!("unknown option `{flag}`")),
        };
    let mut gen = CampaignParams::default();
    for (flag, value) in expected
        .get("gen_10k")
        .and_then(Value::as_object)
        .ok_or("expected.json lacks `gen_10k`")?
    {
        apply_gen(&mut gen, flag, Some(&value.to_json()))?;
    }
    let defaults = gen.clone();
    let nproc = ltrf_sweep::default_threads();
    let mut threads = expected
        .get("threads")
        .and_then(Value::as_u64)
        .ok_or("expected.json lacks `threads`")? as usize;

    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(parse_number::<u64>(flag, value()?)?),
            "--seconds" => seconds = Some(parse_number::<f64>(flag, value()?)?),
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is neither 0 nor 1")),
                });
            }
            "--threads" => threads = parse_number(flag, value()?)?,
            other => {
                let takes_value = registry().param(other).is_some_and(|p| p.takes_value());
                let value = if takes_value { Some(value()?) } else { None };
                apply_gen(&mut gen, other, value)?;
            }
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let gen_default = gen == defaults;
    gen.population_seed = Some(seed);
    gen.gen_params()?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        // Pinned explicitly, and never above the cores the host has.
        threads: threads.clamp(1, nproc),
        gen,
        gen_default,
    })
}

// ---------------------------------------------------------------------------
// Host measurements (std-only, from procfs)
// ---------------------------------------------------------------------------

/// User plus system CPU seconds of this process, all threads included.
/// `/proc/self/stat` counts in USER_HZ ticks, which Linux fixes at 100.
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesized command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat
        .rfind(')')
        .map(|end| &stat[end + 1..])
        .ok_or("/proc/self/stat has no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "/proc/self/stat is malformed".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// High-water resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM".to_string())
}

// ---------------------------------------------------------------------------
// One executor pass: the campaigns of a workload, reports included
// ---------------------------------------------------------------------------

/// Observes one session: when its first point started and, when asked,
/// each point's time from `PointStarted` to its terminal event.
struct Timestamps {
    first_start: OnceLock<Instant>,
    points: Option<Mutex<PointLog>>,
}

/// Start times of the points in flight, and the finished points' times.
struct PointLog {
    starts: Vec<Option<Instant>>,
    millis: Vec<f64>,
}

impl Timestamps {
    fn new(per_point: Option<usize>) -> Self {
        Timestamps {
            first_start: OnceLock::new(),
            points: per_point.map(|n| {
                Mutex::new(PointLog {
                    starts: vec![None; n],
                    millis: Vec::with_capacity(n),
                })
            }),
        }
    }
}

impl CampaignObserver for Timestamps {
    fn on_event(&self, event: &CampaignEvent) {
        let now = Instant::now();
        let (index, started) = match event {
            CampaignEvent::PointStarted { index, .. } => {
                self.first_start.get_or_init(|| now);
                (*index, true)
            }
            CampaignEvent::PointFinished { index, .. }
            | CampaignEvent::PointRestored { index, .. }
            | CampaignEvent::PointCoalesced { index, .. }
            | CampaignEvent::PointFailed { index, .. } => (*index, false),
            _ => return,
        };
        if let Some(points) = &self.points {
            let mut log = points.lock().expect("timestamp log poisoned");
            if started {
                log.starts[index] = Some(now);
            } else if let Some(start) = log.starts[index] {
                log.millis
                    .push(now.duration_since(start).as_secs_f64() * 1e3);
            }
        }
    }
}

/// Whether a record counts as failed: an error or panic outcome, or a
/// simulation that silently hit the safety cycle cap.
fn point_failed(record: &PointRecord) -> bool {
    match record.outcome.data() {
        Some(data) => {
            data.result.stats.truncated || data.result.gpu.as_ref().is_some_and(|g| g.truncated)
        }
        None => true,
    }
}

/// Counts failed points and keeps every `keep_every`-th record.
struct CheckSink {
    keep_every: usize,
    kept: Mutex<Vec<(usize, PointRecord)>>,
    failed: AtomicUsize,
}

impl RecordSink for CheckSink {
    fn on_record(&self, index: usize, record: &PointRecord) {
        if point_failed(record) {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        if index.is_multiple_of(self.keep_every) {
            self.kept
                .lock()
                .expect("check sink poisoned")
                .push((index, record.clone()));
        }
    }
}

#[derive(Debug)]
struct Pass {
    specs: Vec<SweepSpec>,
    wall_s: f64,
    cpu_s: f64,
    setup_s: f64,
    /// Wall time inside the executor sessions only.
    session_s: f64,
    points: usize,
    computed: usize,
    failed: usize,
    /// Per campaign, the records the sink kept, in spec order.
    kept: Vec<Vec<PointRecord>>,
    /// Per-point executor time in ms (when timestamped).
    point_ms: Vec<f64>,
}

/// Runs the workload's campaigns over `cache`, writing reports to `out`
/// the way the `sweep` CLI does. A traced pass keeps every record and
/// timestamps every point.
fn run_pass(args: &Args, cache: &Path, out: &Path, traced: bool) -> Result<Pass, String> {
    fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let cpu_start = cpu_seconds()?;
    let start = Instant::now();
    let specs = args.workload.specs(&args.gen)?;
    let options = ExecutorOptions {
        threads: Some(args.threads),
        cache_dir: Some(cache.to_path_buf()),
        ..ExecutorOptions::default()
    };
    let mut setup_s = start.elapsed().as_secs_f64();
    let (mut session_s, mut points, mut computed, mut failed) = (0.0, 0, 0, 0);
    let mut kept = Vec::with_capacity(specs.len());
    let mut point_ms = Vec::new();
    for spec in &specs {
        let spec_start = Instant::now();
        let csv_path = out.join(format!("{}.csv", spec.name));
        let csv = StreamingCsvWriter::create_with_schema(&csv_path, CsvSchema::for_spec(spec))
            .map_err(|e| format!("creating {}: {e}", csv_path.display()))?;
        let checks = CheckSink {
            keep_every: if traced {
                1
            } else {
                // One more than the even stride, so the kept points do not
                // all share a position in the spec's innermost axes.
                spec.points.len() / SPOT_CHECKS + 1
            },
            kept: Mutex::new(Vec::new()),
            failed: AtomicUsize::new(0),
        };
        let sinks: [&dyn RecordSink; 2] = [&csv, &checks];
        let observer = Timestamps::new(traced.then_some(spec.points.len()));
        let session = CampaignSession::new(spec, &options);
        let session_start = Instant::now();
        let (results, totals) = if args.workload.streaming() {
            (None, session.run_streaming(&observer, &FanoutSink(&sinks)))
        } else {
            let (results, totals) = session.run_with_sink(&observer, &FanoutSink(&sinks));
            (Some(results), totals)
        };
        session_s += session_start.elapsed().as_secs_f64();
        csv.finish()
            .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
        if let Some(results) = &results {
            let json_path = out.join(format!("{}.json", spec.name));
            report::write_json(results, &json_path)
                .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
        }
        let first = observer
            .first_start
            .get()
            .copied()
            .unwrap_or_else(Instant::now);
        setup_s += first.duration_since(spec_start).as_secs_f64();
        points += totals.points;
        computed += totals.computed;
        failed += checks.failed.load(Ordering::Relaxed);
        let mut records = checks.kept.into_inner().expect("check sink poisoned");
        records.sort_by_key(|(index, _)| *index);
        kept.push(records.into_iter().map(|(_, record)| record).collect());
        if let Some(points) = observer.points {
            point_ms.extend(points.into_inner().expect("timestamp log poisoned").millis);
        }
    }
    Ok(Pass {
        specs,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds()? - cpu_start,
        setup_s,
        session_s,
        points,
        computed,
        failed,
        kept,
        point_ms,
    })
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// A CSV's lines with the `from_cache` provenance column removed.
fn rows_without_provenance(path: &Path) -> Result<Vec<String>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let header = text.lines().next().unwrap_or_default();
    let column = header
        .split(',')
        .position(|c| c == "from_cache")
        .ok_or_else(|| format!("{} has no from_cache column", path.display()))?;
    // Fields before `from_cache` never contain commas, so a plain split
    // finds it; the rest of the line is kept byte for byte.
    Ok(text
        .lines()
        .map(|line| {
            let mut fields: Vec<&str> = line.splitn(column + 2, ',').collect();
            if fields.len() > column {
                fields.remove(column);
            }
            fields.join(",")
        })
        .collect())
}

/// Checks a pass's reports against the recorded row hash and the golden
/// fixtures, and returns the rows (per campaign) for the warm comparison.
fn check_rows(
    args: &Args,
    expected: &Value,
    pass: &Pass,
    out: &Path,
    complaints: &mut Vec<String>,
) -> Result<(Vec<Vec<String>>, String), String> {
    let mut all = Vec::with_capacity(pass.specs.len());
    let mut hashed = String::new();
    for spec in &pass.specs {
        let rows = rows_without_provenance(&out.join(format!("{}.csv", spec.name)))?;
        hashed.push_str(&spec.name);
        hashed.push('\n');
        for row in &rows {
            hashed.push_str(row);
            hashed.push('\n');
        }
        if let Some((_, file, exact)) = args
            .workload
            .goldens()
            .iter()
            .find(|(name, _, _)| *name == spec.name)
        {
            let golden = rows_without_provenance(&Path::new(GOLDEN_DIR).join(file))?;
            let agrees = if *exact {
                golden == rows
            } else {
                golden.iter().all(|row| rows.contains(row))
            };
            if !agrees {
                complaints.push(format!("{}: rows differ from golden {file}", spec.name));
            }
        }
        all.push(rows);
    }
    let hash = ltrf_sweep::hash::sha256_hex(hashed.as_bytes());
    if let Some(recorded) = hash_key(args).and_then(|key| {
        expected
            .get("row_sha256")
            .and_then(|h| h.get(&key))
            .and_then(Value::as_str)
    }) {
        if recorded != hash {
            complaints.push(format!(
                "row hash {hash} differs from the recorded {recorded}"
            ));
        }
    }
    Ok((all, hash))
}

/// The `row_sha256` entry of expected.json that applies to this run, if
/// any: gen-10k rows depend on the population seed and bounds.
fn hash_key(args: &Args) -> Option<String> {
    match args.workload {
        Workload::Gen10k if !args.gen_default => None,
        Workload::Gen10k => Some(format!("gen-10k seed {}", args.seed)),
        other => Some(other.name().to_string()),
    }
}

/// Re-evaluates the kept records through [`layers::recompose`].
fn spot_check(pass: &Pass, complaints: &mut Vec<String>) {
    let suite = layers::suite_by_name();
    for (spec, records) in pass.specs.iter().zip(&pass.kept) {
        for record in records {
            let result = layers::recompose(
                spec,
                &record.point,
                &suite,
                record.seed,
                &mut PointCost::default(),
            );
            if !Recomposed::matches(&result, record) {
                complaints.push(format!(
                    "{}: {} / {} differs from a direct evaluation",
                    spec.name, record.point.workload, record.point.config.organization
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Repetitions
// ---------------------------------------------------------------------------

type Metrics = Vec<(&'static str, f64, &'static str)>;

#[derive(Debug, Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    complaints: Vec<String>,
    hash: String,
    /// High-water RSS after the first repetition's timed passes, before
    /// the checks allocate.
    peak_rss_mb: Option<f64>,
    spot_checked: bool,
}

impl Tally {
    fn count(&mut self, pass: &Pass) {
        self.attempted += pass.points;
        self.failed += pass.failed;
    }
}

/// One untraced repetition: a cold pass over a fresh cache, then warm
/// passes over the filled cache, then the output checks. `setup_s` is the
/// median over all of the repetition's passes.
fn untraced_rep(
    args: &Args,
    expected: &Value,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let _ = fs::remove_dir_all(dir);
    let cache = dir.join("cache");
    let cold = run_pass(args, &cache, &dir.join("cold"), false)?;
    tally.count(&cold);
    let mut setup_s = vec![cold.setup_s];
    let mut warm_s = Vec::new();
    let warm = loop {
        let pass = run_pass(args, &cache, &dir.join("warm"), false)?;
        tally.count(&pass);
        if pass.computed != 0 {
            tally.complaints.push(format!(
                "warm pass recomputed {} of {} points",
                pass.computed, pass.points
            ));
        }
        setup_s.push(pass.setup_s);
        warm_s.push(pass.wall_s);
        if warm_s.len() >= WARM_PASSES && warm_s.iter().sum::<f64>() >= WARM_MIN_S {
            break pass;
        }
    };
    if tally.peak_rss_mb.is_none() {
        tally.peak_rss_mb = Some(peak_rss_mb()?);
    }

    let (cold_rows, hash) = check_rows(
        args,
        expected,
        &cold,
        &dir.join("cold"),
        &mut tally.complaints,
    )?;
    let (warm_rows, _) = check_rows(
        args,
        expected,
        &warm,
        &dir.join("warm"),
        &mut tally.complaints,
    )?;
    if cold_rows != warm_rows {
        tally
            .complaints
            .push("warm rows differ from cold rows".to_string());
    }
    tally.hash = hash;
    if !tally.spot_checked {
        spot_check(&cold, &mut tally.complaints);
        tally.spot_checked = true;
    }
    Ok(vec![
        ("setup_s", median(&mut setup_s), "s"),
        ("cold_s", cold.wall_s, "s"),
        ("cold_cpu_s", cold.cpu_s, "s"),
        ("warm_s", median(&mut warm_s), "s"),
    ])
}

/// One traced repetition: the executor's cold pass (timestamped, every
/// record kept), then the same campaigns recomposed layer by layer over a
/// second fresh cache, then a traced warm pass over that cache.
fn traced_rep(
    args: &Args,
    expected: &Value,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let _ = fs::remove_dir_all(dir);
    let exec = run_pass(args, &dir.join("exec-cache"), &dir.join("exec"), true)?;
    tally.count(&exec);
    let (_, hash) = check_rows(
        args,
        expected,
        &exec,
        &dir.join("exec"),
        &mut tally.complaints,
    )?;
    tally.hash = hash;
    let reference: Vec<SweepResults> = exec
        .specs
        .iter()
        .zip(&exec.kept)
        .map(|(spec, records)| SweepResults {
            name: spec.name.clone(),
            records: records.clone(),
        })
        .collect();
    if reference.iter().map(SweepResults::len).sum::<usize>() != exec.points {
        return Err("the executor pass lost records".to_string());
    }

    let out = dir.join("traced");
    fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let cache_dir = dir.join("traced-cache");
    let cache = ResultCache::open(&cache_dir).map_err(|e| format!("opening the cache: {e}"))?;
    let mut layers = LayerTotals::default();
    let start = Instant::now();
    let specs = args.workload.specs(&args.gen)?;
    for (spec, results) in specs.iter().zip(&reference) {
        layers.cold_spec(spec, &results.records, &cache, args.threads);
        layers.render(spec, results, &out, !args.workload.streaming())?;
    }
    let traced_s = start.elapsed().as_secs_f64();
    let store_bytes = layers::dir_len(&cache_dir);
    let cold_render_s = layers.render_s;
    let cold_bytes = layers.report_bytes;
    for (spec, results) in specs.iter().zip(&reference) {
        layers.warm_spec(spec, &results.records, &cache, args.threads);
    }
    tally.complaints.append(&mut layers.mismatches);

    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let mut point_ms = exec.point_ms.clone();
    let point_max_ms = point_ms.iter().copied().fold(0.0, f64::max);
    Ok(vec![
        ("workloads.materialize_s", layers.materialize_s, "s"),
        (
            "workloads.materialize_calls",
            layers.materialize_calls as f64,
            "count",
        ),
        ("compiler.build_s", layers.build_s, "s"),
        ("compiler.build_calls", layers.build_calls as f64, "count"),
        (
            "compiler.distinct_frac",
            ratio(layers.build_ids.len() as f64, layers.build_calls as f64),
            "ratio",
        ),
        ("runner.baseline_s", layers.baseline_s, "s"),
        (
            "runner.baseline_calls",
            layers.baseline_calls as f64,
            "count",
        ),
        (
            "runner.baseline_distinct_frac",
            ratio(
                layers.baseline_ids.len() as f64,
                layers.baseline_calls as f64,
            ),
            "ratio",
        ),
        ("sim.sm_s", layers.sm_s, "s"),
        ("sim.instructions", layers.instructions as f64, "count"),
        ("sim.cycles", layers.cycles as f64, "count"),
        (
            "sim.minstr_per_s",
            ratio(layers.instructions as f64 / 1e6, layers.sm_s),
            "Minstr/s",
        ),
        ("sim.gpu_s", layers.gpu_s, "s"),
        (
            "sim.gpu_mcycles_per_s",
            ratio(layers.gpu_cycles as f64 / 1e6, layers.gpu_s),
            "Mcycles/s",
        ),
        ("sim.truncated", layers.truncated as f64, "count"),
        ("cache.key_s", layers.key_s, "s"),
        ("cache.load_s", layers.load_s, "s"),
        ("cache.loads", layers.loads as f64, "count"),
        (
            "cache.hit_frac",
            ratio(layers.hits as f64, layers.loads as f64),
            "ratio",
        ),
        ("cache.store_s", layers.store_s, "s"),
        ("cache.stores", layers.stores as f64, "count"),
        ("cache.store_bytes", store_bytes as f64, "bytes"),
        ("executor.point_p50_ms", median(&mut point_ms), "ms"),
        ("executor.point_max_ms", point_max_ms, "ms"),
        (
            "executor.busy_frac",
            ratio(
                exec.point_ms.iter().sum::<f64>() / 1e3,
                exec.session_s * args.threads as f64,
            ),
            "ratio",
        ),
        ("executor.threads", args.threads as f64, "count"),
        (
            "executor.failed_frac",
            ratio(exec.failed as f64, exec.points as f64),
            "ratio",
        ),
        ("report.render_s", cold_render_s, "s"),
        ("report.bytes", cold_bytes as f64, "bytes"),
        ("bench.trace_overhead_s", traced_s - exec.wall_s, "s"),
    ])
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no concurrent run still uses it.
            let _ = fs::remove_dir(parent);
        }
    }
}

fn run() -> Result<(), String> {
    let expected = Value::parse_json(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let args = parse_args(&expected)?;
    let scratch = Scratch(PathBuf::from(".perfbench-work").join(std::process::id().to_string()));
    let rep_dir = scratch.0.join("rep");

    let start = Instant::now();
    let mut tally = Tally::default();
    let mut reps: Vec<Metrics> = Vec::new();
    loop {
        let metrics = if args.trace {
            traced_rep(&args, &expected, &rep_dir, &mut tally)?
        } else {
            untraced_rep(&args, &expected, &rep_dir, &mut tally)?
        };
        reps.push(metrics);
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if elapsed >= args.seconds || elapsed + per_rep > RUN_LIMIT_S {
            break;
        }
    }
    drop(scratch);

    // Every repetition reports the same metrics in the same order; each
    // reported value is the median over repetitions.
    let mut ranges = Vec::new();
    let mut metrics: Metrics = reps[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let mut values: Vec<f64> = reps.iter().map(|rep| rep[i].1).collect();
            let value = median(&mut values);
            ranges.push((values[0], values[values.len() - 1]));
            (name, value, unit)
        })
        .collect();
    if let Some(peak) = tally.peak_rss_mb {
        metrics.push(("peak_rss_mb", peak, "MB"));
        ranges.push((peak, peak));
    }

    eprintln!(
        "perfbench {}: seed {}, {} thread(s) of {} core(s), {} repetition(s) in {:.1}s, {}",
        args.workload.name(),
        args.seed,
        args.threads,
        ltrf_sweep::default_threads(),
        reps.len(),
        start.elapsed().as_secs_f64(),
        if args.trace { "traced" } else { "untraced" },
    );
    for ((name, value, unit), (min, max)) in metrics.iter().zip(&ranges) {
        eprintln!("  {name:<30} {value:>16.6} {unit:<9} (repetitions {min:.6} .. {max:.6})");
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    eprintln!(
        "  {:<30} {failed_frac:>16.6} ratio ({} of {} points attempted)",
        "failed_frac", tally.failed, tally.attempted
    );
    eprintln!(
        "  row sha256 {} ({})",
        tally.hash,
        hash_key(&args).unwrap_or_default()
    );
    tally.complaints.sort();
    tally.complaints.dedup();
    for complaint in &tally.complaints {
        eprintln!("  CHECK FAILED: {complaint}");
    }

    let metrics = Value::Object(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Value::Object(vec![
                    (
                        "value".to_string(),
                        Value::Float(if value.is_finite() { value } else { 0.0 }),
                    ),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    );
    let result = Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(tally.complaints.is_empty()),
        ),
        ("attempted".to_string(), Value::UInt(tally.attempted as u64)),
        ("failed".to_string(), Value::UInt(tally.failed as u64)),
        ("metrics".to_string(), metrics),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
