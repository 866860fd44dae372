//! One function per table and figure of the paper.
//!
//! Every paper-artifact campaign (fig9–fig14, table2, power) is dispatched
//! through the campaign registry ([`ltrf_sweep::api`]) — the same
//! [`ltrf_sweep::Campaign`] entries the `sweep` CLI generates its
//! subcommands from — and executed on an observed
//! [`ltrf_sweep::CampaignSession`], with failure reporting
//! riding the typed event stream; the functions here only pivot the
//! engine's records into the paper's row shapes. Preliminary studies with
//! no CLI campaign (fig3, fig4) build their own [`SweepSpec`]
//! cross-products, and compiler-only studies (Table 4, §4.3 overheads) use
//! the engine's raw parallel primitive.

use std::collections::HashMap;

use serde::Serialize;

use ltrf_core::{
    capacity_requirement, overhead_report, paper_latency_factors, CapacityRequirement,
    ExperimentConfig, GpuArchitecture, Organization, OverheadInputs, OverheadReport,
};
use ltrf_sim::{GpuConfig, Topology};
use ltrf_sweep::api::config_org_mean;
use ltrf_sweep::{
    registry, CampaignEvent, CampaignParams, CampaignSession, ExecutorOptions, MemorySelection,
    PointData, PointMeans, SeedMode, SweepResults, SweepSpec, SweepSpecBuilder,
};
use ltrf_tech::configs::RegFileConfig;
use ltrf_tech::generations::{figure2_generations, GpuGeneration};
use ltrf_workloads::{evaluated_suite, quick_suite, unconstrained_register_demands, Workload};

/// Which part of the workload suite an experiment runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteSelection {
    /// All fourteen evaluated workloads (the paper's configuration).
    Full,
    /// A four-workload subset (two register-sensitive, two insensitive) used
    /// by unit tests and the Criterion benches to keep wall-clock time down.
    Quick,
}

/// Returns the workloads selected by `selection`.
#[must_use]
pub fn suite(selection: SuiteSelection) -> Vec<Workload> {
    match selection {
        SuiteSelection::Full => evaluated_suite(),
        SuiteSelection::Quick => quick_suite(),
    }
}

/// Runs `f` over the workloads in parallel and collects the results in suite
/// order, via the `ltrf-sweep` execution engine.
///
/// A workload whose experiment fails (panic or error) is reported on stderr
/// and dropped from the rows instead of killing the whole figure — the
/// engine's panic isolation replaces the old `std::thread::scope` fan-out
/// that aborted on the first panicking thread.
fn par_map<T, F>(workloads: &[Workload], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Workload) -> T + Sync,
{
    ltrf_sweep::parallel_points(workloads, None, f)
        .into_iter()
        .zip(workloads)
        .filter_map(|(outcome, workload)| match outcome {
            Ok(row) => Some(row),
            Err(panic_msg) => {
                eprintln!(
                    "experiment on `{}` failed and was skipped: {panic_msg}",
                    workload.name()
                );
                None
            }
        })
        .collect()
}

/// Seed used by every experiment so results are reproducible run to run
/// (and cache-compatible with the `sweep` CLI's campaigns).
const SEED: u64 = ltrf_sweep::CAMPAIGN_SEED;

// ---------------------------------------------------------------------------
// Sweep plumbing shared by the simulation-backed figures
// ---------------------------------------------------------------------------

/// Starts a sweep-spec builder over the given workloads with the harness's
/// fixed campaign seed (the preliminary fig3/fig4 studies, which have no
/// CLI campaign and therefore no registry entry).
fn figure_sweep(name: &str, workloads: &[Workload]) -> SweepSpecBuilder {
    let names: Vec<String> = workloads.iter().map(|w| w.name().to_string()).collect();
    SweepSpec::builder(name)
        .workloads(names)
        .seed_mode(SeedMode::Fixed(SEED))
}

/// The harness's campaign parameters: the given suite selection with every
/// other knob at its canonical default (fixed campaign seed, one SM,
/// default bounds and calibration) — exactly the parameters the `sweep`
/// CLI resolves for an unflagged invocation, so the two front-ends build
/// byte-identical specs with cache-compatible point identities.
fn harness_params(selection: SuiteSelection) -> CampaignParams {
    CampaignParams {
        quick: selection == SuiteSelection::Quick,
        ..CampaignParams::default()
    }
}

/// The registry entry's canonical spec for a single-spec campaign, under
/// [`harness_params`]. This is how every paper-artifact figure function
/// here gets its campaign: through the same [`ltrf_sweep::api`] registry
/// the CLI dispatches from, so the two surfaces cannot drift.
fn registry_spec(name: &str, selection: SuiteSelection) -> SweepSpec {
    registry_spec_with(name, harness_params(selection))
}

/// [`registry_spec`] with explicit campaign parameters (the beyond-paper
/// campaigns take axes the suite selection does not express).
fn registry_spec_with(name: &str, params: CampaignParams) -> SweepSpec {
    let campaign = registry()
        .find(name)
        .unwrap_or_else(|| panic!("campaign `{name}` is registered"));
    campaign
        .specs(&params)
        .expect("canonical harness parameters are valid")
        .into_iter()
        .next()
        .expect("single-spec campaign")
}

/// The executor options every figure function runs with: all worker
/// threads, and — when the `LTRF_CACHE_DIR` environment variable is set —
/// the `sweep` CLI's content-addressed result cache attached at that
/// directory.
///
/// The harness and the CLI build their campaigns from the same
/// [`ltrf_sweep::campaigns`] constructors with the same fixed campaign
/// seed, so their points have identical cache identities: a bench run with
/// `LTRF_CACHE_DIR` pointed at a CLI-populated cache (the CLI's `--cache`
/// directory, `.sweep-cache` by default) warm-hits every shared point, and
/// vice versa. Unset, figure functions stay side-effect-free (uncached),
/// the historical behaviour.
#[must_use]
pub fn figure_executor_options() -> ExecutorOptions {
    ExecutorOptions {
        cache_dir: std::env::var_os("LTRF_CACHE_DIR").map(std::path::PathBuf::from),
        ..ExecutorOptions::default()
    }
}

/// Runs a figure's spec on an observed [`CampaignSession`] via
/// [`figure_executor_options`], reporting failures as they stream past on
/// the engine's typed event stream (the same stream the `sweep` CLI's
/// progress printing rides).
fn run_figure_spec(spec: &SweepSpec) -> SweepResults {
    let options = figure_executor_options();
    let name = spec.name.clone();
    let observer = move |event: &CampaignEvent| {
        if let CampaignEvent::PointFailed {
            workload,
            organization,
            config_id,
            error,
            ..
        } = event
        {
            eprintln!(
                "{name}: point `{workload}`/{organization} config {config_id} failed: {error}"
            );
        }
    };
    CampaignSession::new(spec, &options).run(&observer)
}

/// Successful points indexed by workload, memory selection, and the
/// configuration's canonical cache-key material — the same full-field
/// identity `ltrf-sweep` content-addresses with, so two distinct points can
/// never collide in the index no matter which axes a figure sweeps.
struct ResultIndex {
    map: HashMap<(String, MemorySelection, String), PointData>,
}

impl ResultIndex {
    fn new(results: &SweepResults) -> Self {
        let map = results
            .successes()
            .map(|(record, data)| {
                (
                    (
                        record.point.workload.clone(),
                        record.point.memory,
                        record.point.config.cache_key_material(),
                    ),
                    data.clone(),
                )
            })
            .collect();
        ResultIndex { map }
    }

    /// The point for `workload` under `config`, with the workload's default
    /// memory behaviour. `config` must be constructed the same way the
    /// spec's points were (the builders here always are).
    fn get(&self, workload: &str, config: &ExperimentConfig) -> Option<&PointData> {
        self.map.get(&(
            workload.to_string(),
            MemorySelection::WorkloadDefault,
            config.cache_key_material(),
        ))
    }

    /// The point for `workload` under `org` on Table 2 configuration
    /// `config_id` (default interval/warp axes).
    fn at(&self, workload: &str, org: Organization, config_id: u8) -> Option<&PointData> {
        self.get(workload, &ExperimentConfig::for_table2(org, config_id))
    }
}

// ---------------------------------------------------------------------------
// Table 1 — register-file capacity required for maximum TLP
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Table1Row {
    /// The architecture's capacity requirement summary.
    pub requirement: CapacityRequirement,
}

/// Computes Table 1 over the 35-kernel screening suite's register demands.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    let demands = unconstrained_register_demands();
    [GpuArchitecture::fermi(), GpuArchitecture::maxwell()]
        .into_iter()
        .filter_map(|arch| capacity_requirement(arch, &demands))
        .map(|requirement| Table1Row { requirement })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 2 — register-file design points
// ---------------------------------------------------------------------------

/// Returns the seven Table 2 configurations together with the analytical
/// model's estimate for each (so the binary can print both side by side).
#[must_use]
pub fn table2() -> Vec<(RegFileConfig, ltrf_tech::bank::BankEstimate)> {
    RegFileConfig::table2()
        .iter()
        .map(|c| (*c, c.bank_model().estimate()))
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3 — simulated system configuration
// ---------------------------------------------------------------------------

/// Returns the simulated system configuration (the reproduction of Table 3):
/// the whole GPU — SM count, the per-SM pipeline, and the shared L2/DRAM.
#[must_use]
pub fn table3() -> GpuConfig {
    GpuConfig::default()
}

// ---------------------------------------------------------------------------
// Table 4 — register-interval lengths
// ---------------------------------------------------------------------------

/// One workload's real and optimal register-interval lengths.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Table4Row {
    /// Workload name.
    pub workload: &'static str,
    /// Lengths of the compiler-produced register-intervals.
    pub report: ltrf_compiler::trace_analysis::IntervalLengthReport,
}

/// Measures real and optimal register-interval lengths (Table 4).
#[must_use]
pub fn table4(selection: SuiteSelection) -> Vec<Table4Row> {
    let workloads = suite(selection);
    par_map(&workloads, |w| {
        let compiled =
            ltrf_compiler::compile(&w.kernel, &ltrf_compiler::CompilerOptions::default())
                .expect("suite kernels compile");
        let report = ltrf_compiler::trace_analysis::interval_length_report(
            &compiled.kernel,
            &compiled.partition,
            16,
            SEED,
        );
        Table4Row {
            workload: w.name(),
            report,
        }
    })
}

// ---------------------------------------------------------------------------
// Figure 2 — on-chip memory across GPU generations
// ---------------------------------------------------------------------------

/// Returns the Figure 2 data series.
#[must_use]
pub fn figure2() -> &'static [GpuGeneration] {
    figure2_generations()
}

// ---------------------------------------------------------------------------
// Figure 3 — ideal vs. real 8× TFET-SRAM register file
// ---------------------------------------------------------------------------

/// One workload's Figure 3 result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig3Row {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the workload is register-sensitive.
    pub register_sensitive: bool,
    /// IPC of the ideal 8× register file, normalized to the baseline.
    pub ideal_normalized_ipc: f64,
    /// IPC of the real (5.3× latency) TFET-SRAM register file, normalized to
    /// the baseline.
    pub real_normalized_ipc: f64,
}

/// Runs the Figure 3 experiment: an 8× register file built from TFET SRAM
/// (configuration #6), once with its real latency and once idealized.
#[must_use]
pub fn figure3(selection: SuiteSelection) -> Vec<Fig3Row> {
    let workloads = suite(selection);
    let spec = figure_sweep("fig3", &workloads)
        .organizations([Organization::Ideal, Organization::Baseline])
        .config_ids([6])
        .normalize(true)
        .build();
    let index = ResultIndex::new(&run_figure_spec(&spec));
    rows_per_workload(&workloads, |w| {
        let ideal = index.at(w.name(), Organization::Ideal, 6)?;
        let real = index.at(w.name(), Organization::Baseline, 6)?;
        Some(Fig3Row {
            workload: w.name(),
            register_sensitive: w.is_register_sensitive(),
            ideal_normalized_ipc: ideal.normalized_ipc.unwrap_or(0.0),
            real_normalized_ipc: real.normalized_ipc.unwrap_or(0.0),
        })
    })
}

/// Builds one row per selected workload, skipping (with a note) workloads
/// whose points failed.
fn rows_per_workload<T>(
    workloads: &[Workload],
    mut build: impl FnMut(&Workload) -> Option<T>,
) -> Vec<T> {
    workloads
        .iter()
        .filter_map(|w| {
            let row = build(w);
            if row.is_none() {
                eprintln!("`{}` dropped: one of its sweep points failed", w.name());
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4 — register-cache hit rates
// ---------------------------------------------------------------------------

/// One workload's register-cache hit rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig4Row {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the workload is register-sensitive.
    pub register_sensitive: bool,
    /// Hit rate of the hardware register-file cache.
    pub hw_hit_rate: f64,
    /// Hit rate of the software-managed (SHRF) cache.
    pub sw_hit_rate: f64,
    /// Hit rate of LTRF's prefetch-filled cache (for reference; the paper's
    /// point is that the first two are low).
    pub ltrf_hit_rate: f64,
}

/// Measures register-cache hit rates for RFC, SHRF, and LTRF (Figure 4).
#[must_use]
pub fn figure4(selection: SuiteSelection) -> Vec<Fig4Row> {
    let workloads = suite(selection);
    let spec = figure_sweep("fig4", &workloads)
        .organizations([Organization::Rfc, Organization::Shrf, Organization::Ltrf])
        .config_ids([1])
        .normalize(false)
        .build();
    let index = ResultIndex::new(&run_figure_spec(&spec));
    // A missing point drops the row (`?`); only a present point without a
    // cache statistic reads as a genuine 0% hit rate.
    let hit = |w: &Workload, org: Organization| {
        index
            .at(w.name(), org, 1)
            .map(|d| d.result.cache_hit_rate.unwrap_or(0.0))
    };
    rows_per_workload(&workloads, |w| {
        Some(Fig4Row {
            workload: w.name(),
            register_sensitive: w.is_register_sensitive(),
            hw_hit_rate: hit(w, Organization::Rfc)?,
            sw_hit_rate: hit(w, Organization::Shrf)?,
            ltrf_hit_rate: hit(w, Organization::Ltrf)?,
        })
    })
}

// ---------------------------------------------------------------------------
// Figure 9 — overall IPC on configurations #6 and #7
// ---------------------------------------------------------------------------

/// One workload's normalized IPC under every organization (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig9Row {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the workload is register-sensitive.
    pub register_sensitive: bool,
    /// Normalized IPC of the conventional register file (BL).
    pub bl: f64,
    /// Normalized IPC of the hardware register cache (RFC).
    pub rfc: f64,
    /// Normalized IPC of LTRF.
    pub ltrf: f64,
    /// Normalized IPC of LTRF+.
    pub ltrf_plus: f64,
    /// Normalized IPC of the ideal register file.
    pub ideal: f64,
}

/// Runs the Figure 9 experiment through the registry's `fig9` entry — the
/// full canonical campaign (six organizations on configurations #6 *and*
/// #7), run once and pivoted into per-configuration row sets: one
/// `(config_id, rows)` pair for Figure 9a (#6) and one for Figure 9b (#7).
#[must_use]
pub fn figure9(selection: SuiteSelection) -> Vec<(u8, Vec<Fig9Row>)> {
    let workloads = suite(selection);
    let spec = registry_spec("fig9", selection);
    let index = ResultIndex::new(&run_figure_spec(&spec));
    [6u8, 7]
        .into_iter()
        .map(|config_id| {
            let rows = rows_per_workload(&workloads, |w| {
                let norm = |org: Organization| {
                    index
                        .at(w.name(), org, config_id)
                        .and_then(|d| d.normalized_ipc)
                };
                Some(Fig9Row {
                    workload: w.name(),
                    register_sensitive: w.is_register_sensitive(),
                    bl: norm(Organization::Baseline)?,
                    rfc: norm(Organization::Rfc)?,
                    ltrf: norm(Organization::Ltrf)?,
                    ltrf_plus: norm(Organization::LtrfPlus)?,
                    ideal: norm(Organization::Ideal)?,
                })
            });
            (config_id, rows)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10 — register-file power on configuration #7
// ---------------------------------------------------------------------------

/// One workload's normalized register-file power (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the workload is register-sensitive.
    pub register_sensitive: bool,
    /// Normalized power of the hardware register cache.
    pub rfc: f64,
    /// Normalized power of LTRF.
    pub ltrf: f64,
    /// Normalized power of LTRF+.
    pub ltrf_plus: f64,
}

/// Runs the Figure 10 power experiment through the registry's `power`
/// entry (Figure 10 *is* that campaign's configuration-#7 slice, which is
/// why the registry reaches it through the `fig10` alias) and pivots the
/// `config_id = 7` points into the paper's per-workload rows. Because the
/// whole design-point sweep runs, a `LTRF_CACHE_DIR` cache populated by
/// either `sweep power` or this function serves the other fully.
#[must_use]
pub fn figure10(selection: SuiteSelection) -> Vec<Fig10Row> {
    let workloads = suite(selection);
    let spec = registry_spec("power", selection);
    let index = ResultIndex::new(&run_figure_spec(&spec));
    rows_per_workload(&workloads, |w| {
        let norm = |org: Organization| index.at(w.name(), org, 7).and_then(|d| d.normalized_power);
        Some(Fig10Row {
            workload: w.name(),
            register_sensitive: w.is_register_sensitive(),
            rfc: norm(Organization::Rfc)?,
            ltrf: norm(Organization::Ltrf)?,
            ltrf_plus: norm(Organization::LtrfPlus)?,
        })
    })
}

// ---------------------------------------------------------------------------
// Figure 11 — maximum tolerable register-file latency
// ---------------------------------------------------------------------------

/// One workload's maximum tolerable latency per organization (Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig11Row {
    /// Workload name.
    pub workload: &'static str,
    /// Maximum tolerable latency of BL at the allowed IPC loss.
    pub bl: f64,
    /// Maximum tolerable latency of RFC at the allowed IPC loss.
    pub rfc: f64,
    /// Maximum tolerable latency of LTRF at the allowed IPC loss.
    pub ltrf: f64,
    /// Maximum tolerable latency of LTRF+ at the allowed IPC loss.
    pub ltrf_plus: f64,
}

/// Largest factor whose relative IPC stays within `allowed_loss`, via the
/// core [`ltrf_core::LatencySweep`] definition (the single source of truth
/// for the tolerance metric). `None` if any factor's point is missing.
fn max_tolerable(
    index: &ResultIndex,
    workload: &str,
    base: &ExperimentConfig,
    factors: &[f64],
    allowed_loss: f64,
) -> Option<f64> {
    let ipc_points = factors
        .iter()
        .map(|&factor| {
            let ipc = index
                .get(workload, &base.with_latency_factor(factor))?
                .result
                .ipc;
            Some((factor, ipc))
        })
        .collect::<Option<Vec<_>>>()?;
    ltrf_core::LatencySweep::from_ipc_points(base.organization, &ipc_points)
        .map(|sweep| sweep.max_tolerable_latency(allowed_loss))
}

/// Runs the Figure 11 experiment with the given allowed IPC loss (the paper
/// uses 5%, with 1% and 10% variants in the text), through the registry's
/// `fig11` entry (the same campaign `sweep fig11` runs).
#[must_use]
pub fn figure11(selection: SuiteSelection, allowed_loss: f64) -> Vec<Fig11Row> {
    let workloads = suite(selection);
    let spec = registry_spec("fig11", selection);
    let index = ResultIndex::new(&run_figure_spec(&spec));
    let factors = paper_latency_factors();
    rows_per_workload(&workloads, |w| {
        let tolerance = |org: Organization| {
            max_tolerable(
                &index,
                w.name(),
                &ExperimentConfig::new(org),
                &factors,
                allowed_loss,
            )
        };
        Some(Fig11Row {
            workload: w.name(),
            bl: tolerance(Organization::Baseline)?,
            rfc: tolerance(Organization::Rfc)?,
            ltrf: tolerance(Organization::Ltrf)?,
            ltrf_plus: tolerance(Organization::LtrfPlus)?,
        })
    })
}

// ---------------------------------------------------------------------------
// Figures 12–14 — latency sweeps over design parameters and schemes
// ---------------------------------------------------------------------------

/// A labelled IPC-vs-latency series averaged over the selected workloads.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSeries {
    /// Series label (e.g. "16 regs", "8 warps", "LTRF (register-interval)").
    pub label: String,
    /// `(latency factor, mean normalized IPC)` points.
    pub points: Vec<(f64, f64)>,
}

/// Builds a labelled series from the engine's canonical
/// [`ltrf_sweep::relative_ipc_series`] aggregation (shared with the `sweep
/// fig12|fig13|fig14` summary tables, so the relative-IPC convention cannot
/// drift between the two entry points). A workload with any failed point is
/// excluded from the whole series, not just from the factors that failed;
/// if *no* workload has a complete curve, the series is all zeros with a
/// note on stderr.
fn labelled_series(
    results: &SweepResults,
    factors: &[f64],
    label: String,
    select: impl Fn(&ltrf_sweep::PointRecord) -> bool,
) -> SweepSeries {
    let means = ltrf_sweep::relative_ipc_series(results, factors, select).unwrap_or_else(|| {
        eprintln!("series `{label}`: no workload has a complete latency curve");
        vec![0.0; factors.len()]
    });
    SweepSeries {
        label,
        points: factors.iter().copied().zip(means).collect(),
    }
}

/// Figure 12: LTRF IPC vs. main-register-file latency for 8/16/32 registers
/// per register-interval, through the registry's `fig12` entry (the same
/// campaign `sweep fig12` runs and its golden-file test pins).
#[must_use]
pub fn figure12(selection: SuiteSelection) -> Vec<SweepSeries> {
    let spec = registry_spec("fig12", selection);
    let results = run_figure_spec(&spec);
    let factors = paper_latency_factors();
    ltrf_sweep::campaigns::FIG12_INTERVAL_SIZES
        .into_iter()
        .map(|n| {
            labelled_series(&results, &factors, format!("{n} regs"), |r| {
                r.point.config.registers_per_interval == n
            })
        })
        .collect()
}

/// Figure 13: LTRF IPC vs. main-register-file latency for 4/8/16 active
/// warps, through the registry's `fig13` entry (the same campaign `sweep
/// fig13` runs).
#[must_use]
pub fn figure13(selection: SuiteSelection) -> Vec<SweepSeries> {
    let spec = registry_spec("fig13", selection);
    let results = run_figure_spec(&spec);
    let factors = paper_latency_factors();
    ltrf_sweep::campaigns::FIG13_WARP_COUNTS
        .into_iter()
        .map(|warps| {
            labelled_series(&results, &factors, format!("{warps} warps"), |r| {
                r.point.config.active_warps == warps
            })
        })
        .collect()
}

/// Figure 14: IPC vs. main-register-file latency for BL, RFC, SHRF,
/// LTRF (strand), and LTRF (register-interval), through the registry's
/// `fig14` entry (the same campaign `sweep fig14` runs).
#[must_use]
pub fn figure14(selection: SuiteSelection) -> Vec<SweepSeries> {
    let spec = registry_spec("fig14", selection);
    let results = run_figure_spec(&spec);
    let factors = paper_latency_factors();
    ltrf_sweep::campaigns::FIG14_ORGS
        .into_iter()
        .map(|org| {
            labelled_series(&results, &factors, org.label().to_string(), |r| {
                r.point.config.organization == org
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 2 sweep and the design-point power sweep
// ---------------------------------------------------------------------------

/// One design point's mean normalized IPC under BL and LTRF (the dynamic
/// half of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Table2SweepRow {
    /// Table 2 design point, 1–7.
    pub config_id: u8,
    /// Mean normalized IPC of the conventional register file.
    pub bl: f64,
    /// Mean normalized IPC of LTRF.
    pub ltrf: f64,
}

/// Sweeps BL and LTRF over every Table 2 design point through the
/// registry's `table2` entry (the same campaign as `sweep table2`),
/// aggregated with the shared [`config_org_mean`] pivot behind the CLI's
/// summary table.
#[must_use]
pub fn table2_sweep(selection: SuiteSelection) -> Vec<Table2SweepRow> {
    let spec = registry_spec("table2", selection);
    let results = run_figure_spec(&spec);
    (1..=7u8)
        .map(|config_id| Table2SweepRow {
            config_id,
            bl: config_org_mean(&results, config_id, Organization::Baseline, |d| {
                d.normalized_ipc
            }),
            ltrf: config_org_mean(&results, config_id, Organization::Ltrf, |d| {
                d.normalized_ipc
            }),
        })
        .collect()
}

/// One design point's mean normalized register-file power per caching
/// scheme (the `sweep power` design-point sweep; the `config_id = 7` row
/// is Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerSweepRow {
    /// Table 2 design point, 1–7.
    pub config_id: u8,
    /// Mean normalized power of the hardware register cache.
    pub rfc: f64,
    /// Mean normalized power of LTRF.
    pub ltrf: f64,
    /// Mean normalized power of LTRF+.
    pub ltrf_plus: f64,
}

/// Sweeps RFC/LTRF/LTRF+ register-file power over every Table 2 design
/// point through the registry's `power` entry (the same campaign as `sweep
/// power` at the default calibration), aggregated with the shared
/// [`config_org_mean`] pivot behind the CLI's summary table.
#[must_use]
pub fn power_sweep(selection: SuiteSelection) -> Vec<PowerSweepRow> {
    let spec = registry_spec("power", selection);
    let results = run_figure_spec(&spec);
    (1..=7u8)
        .map(|config_id| PowerSweepRow {
            config_id,
            rfc: config_org_mean(&results, config_id, Organization::Rfc, |d| {
                d.normalized_power
            }),
            ltrf: config_org_mean(&results, config_id, Organization::Ltrf, |d| {
                d.normalized_power
            }),
            ltrf_plus: config_org_mean(&results, config_id, Organization::LtrfPlus, |d| {
                d.normalized_power
            }),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §4.3 overheads
// ---------------------------------------------------------------------------

/// The §4.3 overhead report for the default SM configuration, using the mean
/// code-size overhead of the selected workloads.
#[must_use]
pub fn overheads(selection: SuiteSelection) -> OverheadReport {
    let workloads = suite(selection);
    let stats = par_map(&workloads, |w| {
        ltrf_compiler::compile(&w.kernel, &ltrf_compiler::CompilerOptions::default())
            .expect("suite kernels compile")
            .stats
    });
    let mean_code_size =
        stats.iter().map(|s| s.code_size_overhead).sum::<f64>() / stats.len().max(1) as f64;
    let mean_stats = ltrf_compiler::CompileStats {
        code_size_overhead: mean_code_size,
        ..ltrf_compiler::CompileStats::default()
    };
    overhead_report(&OverheadInputs::default(), Some(&mean_stats))
}

// ---------------------------------------------------------------------------
// GPU scaling — multi-SM campaigns over the shared L2/DRAM
// ---------------------------------------------------------------------------

/// One (SM count, organization) cell of the GPU-scaling study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GpuScaleRow {
    /// Number of SMs simulated.
    pub sm_count: usize,
    /// The organization under test.
    pub organization: Organization,
    /// Mean whole-GPU IPC over the selected workloads.
    pub mean_ipc: f64,
    /// Mean IPC per SM (scaling efficiency: flat = perfect weak scaling,
    /// decaying = shared-memory contention).
    pub mean_ipc_per_sm: f64,
    /// Mean IPC normalized to the baseline at the same SM count.
    pub mean_normalized_ipc: f64,
    /// Mean shared-L2 hit rate.
    pub mean_l2_hit_rate: f64,
    /// Mean DRAM row-buffer hit rate.
    pub mean_dram_row_hit_rate: f64,
}

/// Runs the GPU-scaling study: baseline and LTRF on configuration #6 at each
/// SM count, grids weak-scaled, all SMs contending for the shared L2 and
/// DRAM. Dispatched through the registry's `gpu-scale` entry (the same
/// campaign as the `sweep gpu-scale` subcommand), exposed to the harness
/// and its tests.
#[must_use]
pub fn gpu_scale(selection: SuiteSelection, sm_counts: &[usize]) -> Vec<GpuScaleRow> {
    let spec = registry_spec_with(
        "gpu-scale",
        CampaignParams {
            sm_counts: Some(sm_counts.to_vec()),
            ..harness_params(selection)
        },
    );
    let results = run_figure_spec(&spec);
    // The shared engine-side pivot (also behind the `sweep gpu-scale`
    // summary table, so the two cannot drift).
    PointMeans::grouped(
        &results,
        sm_counts,
        &[Organization::Baseline, Organization::Ltrf],
    )
    .into_iter()
    .map(|(sm_count, organization, means)| GpuScaleRow {
        sm_count,
        organization,
        mean_ipc: means.ipc,
        mean_ipc_per_sm: means.ipc / sm_count.max(1) as f64,
        mean_normalized_ipc: means.normalized_ipc,
        mean_l2_hit_rate: means.l2_hit_rate,
        mean_dram_row_hit_rate: means.dram_row_hit_rate,
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Generated-workload campaigns — random populations through the sweep engine
// ---------------------------------------------------------------------------

/// One organization's population means in a generated campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GenCampaignRow {
    /// The organization under test.
    pub organization: Organization,
    /// Successful population members aggregated into this row.
    pub points: usize,
    /// Mean IPC over the population.
    pub mean_ipc: f64,
    /// Mean IPC normalized to the baseline on the same member.
    pub mean_normalized_ipc: f64,
    /// Mean L2 hit rate.
    pub mean_l2_hit_rate: f64,
    /// Mean DRAM row-buffer hit rate.
    pub mean_dram_row_hit_rate: f64,
}

/// Runs a generated-workload campaign: baseline and LTRF on configuration #6
/// over the first `population` members of the population seeded
/// `population_seed`, at `sm_count` SMs. Dispatched through the registry's
/// `gen-campaign` entry (the same campaign definition as the `sweep
/// gen-campaign` subcommand, so the two cannot drift), aggregated through
/// the shared [`PointMeans`] pivot. Like every figure function here it runs
/// uncached unless `LTRF_CACHE_DIR` is set — the CLI is the cached entry
/// point.
#[must_use]
pub fn gen_campaign(
    population: usize,
    population_seed: u64,
    sm_count: usize,
) -> Vec<GenCampaignRow> {
    let spec = registry_spec_with(
        "gen-campaign",
        CampaignParams {
            population: Some(population),
            population_seed: Some(population_seed),
            sm_count: Some(sm_count),
            ..CampaignParams::default()
        },
    );
    let results = run_figure_spec(&spec);
    PointMeans::grouped(
        &results,
        &[sm_count],
        &ltrf_sweep::campaigns::GEN_CAMPAIGN_ORGS,
    )
    .into_iter()
    .map(|(_, organization, means)| GenCampaignRow {
        organization,
        points: means.count,
        mean_ipc: means.ipc,
        mean_normalized_ipc: means.normalized_ipc,
        mean_l2_hit_rate: means.l2_hit_rate,
        mean_dram_row_hit_rate: means.dram_row_hit_rate,
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Trace-driven campaigns — lowered accelsim-style traces through the engine
// ---------------------------------------------------------------------------

/// One organization's means over the lowered trace workloads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceCampaignRow {
    /// The organization under test.
    pub organization: Organization,
    /// Successful trace points aggregated into this row.
    pub points: usize,
    /// Mean IPC over the lowered trace workloads.
    pub mean_ipc: f64,
    /// Mean IPC normalized to the baseline on the same trace.
    pub mean_normalized_ipc: f64,
    /// Mean L2 hit rate.
    pub mean_l2_hit_rate: f64,
    /// Mean DRAM row-buffer hit rate.
    pub mean_dram_row_hit_rate: f64,
}

/// Runs a trace-driven campaign: baseline and LTRF on configuration #6 over
/// the kernels `ltrf-trace` lowers from the given accelsim-style trace
/// files (empty = the three checked-in example traces, resolved relative to
/// the working directory). Dispatched through the registry's
/// `trace-campaign` entry — the same campaign definition as the `sweep
/// trace-campaign` subcommand, so the two cannot drift — and aggregated
/// through the shared [`PointMeans`] pivot. Trace points carry the file's
/// content fingerprint in their cache identity, so a `LTRF_CACHE_DIR` cache
/// is shared with the CLI and invalidates itself when a trace file changes.
///
/// # Panics
///
/// Panics when a trace file is unreadable or malformed (the registry's
/// build step validates every file up front, exactly as the CLI does).
#[must_use]
pub fn trace_campaign(trace_paths: &[String], sm_count: usize) -> Vec<TraceCampaignRow> {
    let spec = registry_spec_with(
        "trace-campaign",
        CampaignParams {
            trace_paths: trace_paths.to_vec(),
            sm_count: Some(sm_count),
            ..CampaignParams::default()
        },
    );
    let results = run_figure_spec(&spec);
    PointMeans::grouped(
        &results,
        &[sm_count],
        &ltrf_sweep::campaigns::GEN_CAMPAIGN_ORGS,
    )
    .into_iter()
    .map(|(_, organization, means)| TraceCampaignRow {
        organization,
        points: means.count,
        mean_ipc: means.ipc,
        mean_normalized_ipc: means.normalized_ipc,
        mean_l2_hit_rate: means.l2_hit_rate,
        mean_dram_row_hit_rate: means.dram_row_hit_rate,
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Interconnect campaigns — SM↔L2 network topologies through the engine
// ---------------------------------------------------------------------------

/// One (topology, SM count) cell of the interconnect study (LTRF on
/// configuration #6, matching the `sweep interconnect` campaign).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InterconnectRow {
    /// The SM↔L2 network topology under test.
    pub topology: Topology,
    /// Number of SMs simulated (single-SM points never touch the shared
    /// network, so their network columns read zero).
    pub sm_count: usize,
    /// Mean whole-GPU IPC over the selected workloads.
    pub mean_ipc: f64,
    /// Mean shared-L2 hit rate.
    pub mean_l2_hit_rate: f64,
    /// Mean cycles L2 requests spent queued behind busy slices.
    pub mean_l2_queue_wait: f64,
    /// Mean end-to-end NoC latency per routed message, in cycles.
    pub mean_noc_latency: f64,
}

/// Runs the interconnect study: LTRF on configuration #6 over each swept
/// topology at each SM count, all SMs contending for the shared L2 through
/// the configured network. Built from the same
/// [`ltrf_sweep::campaigns::interconnect_specs`] constructor as the `sweep
/// interconnect` subcommand (one spec per topology — the registry's only
/// multi-spec campaign, so this function cannot ride the single-spec
/// `registry_spec_with` path), aggregated through the shared
/// [`PointMeans`] pivot. Like every figure function here it runs uncached
/// unless `LTRF_CACHE_DIR` is set — the CLI is the cached entry point.
#[must_use]
pub fn interconnect_campaign(
    selection: SuiteSelection,
    params: &ltrf_sweep::InterconnectCampaignParams,
) -> Vec<InterconnectRow> {
    let workloads: Vec<String> = suite(selection)
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let specs = ltrf_sweep::campaigns::interconnect_specs(&workloads, params);
    let mut rows = Vec::new();
    for (topology, spec) in params.topologies.iter().zip(&specs) {
        let results = run_figure_spec(spec);
        rows.extend(
            PointMeans::grouped(&results, &params.sm_counts, &[Organization::Ltrf])
                .into_iter()
                .map(|(sm_count, _, means)| InterconnectRow {
                    topology: *topology,
                    sm_count,
                    mean_ipc: means.ipc,
                    mean_l2_hit_rate: means.l2_hit_rate,
                    mean_l2_queue_wait: means.l2_queue_wait,
                    mean_noc_latency: means.noc_latency,
                }),
        );
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in example traces, made absolute so the test is
    /// independent of the package-relative working directory `cargo test`
    /// runs with.
    fn example_traces() -> Vec<String> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        CampaignParams::DEFAULT_TRACES
            .iter()
            .map(|p| root.join(p).to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn trace_campaign_aggregates_both_organizations() {
        let traces = example_traces();
        let rows = trace_campaign(&traces, 1);
        assert_eq!(rows.len(), 2, "BL and LTRF rows");
        for row in &rows {
            assert_eq!(row.points, 3, "one point per example trace: {row:?}");
            assert!(row.mean_ipc > 0.0, "{row:?}");
            assert!(row.mean_normalized_ipc > 0.0, "{row:?}");
        }
        // Lowering is deterministic and the trace bytes are fixed, so the
        // campaign reproduces bit-identically.
        assert_eq!(rows, trace_campaign(&traces, 1));
    }

    #[test]
    fn gen_campaign_aggregates_both_organizations() {
        let rows = gen_campaign(4, 7, 1);
        assert_eq!(rows.len(), 2, "BL and LTRF rows");
        for row in &rows {
            assert_eq!(row.points, 4, "{row:?}");
            assert!(row.mean_ipc > 0.0, "{row:?}");
            assert!(row.mean_normalized_ipc > 0.0, "{row:?}");
        }
        // Same campaign parameters, same rows (the engine is deterministic
        // and the population is index-stable).
        assert_eq!(rows, gen_campaign(4, 7, 1));
    }

    #[test]
    fn interconnect_campaign_reports_every_topology_cell() {
        let params = ltrf_sweep::InterconnectCampaignParams {
            topologies: vec![Topology::Ideal, Topology::Crossbar],
            sm_counts: vec![1, 2],
            ..ltrf_sweep::InterconnectCampaignParams::default()
        };
        let rows = interconnect_campaign(SuiteSelection::Quick, &params);
        assert_eq!(rows.len(), 4, "2 topologies x 2 SM counts");
        for row in &rows {
            assert!(row.mean_ipc > 0.0, "{row:?}");
            assert!((0.0..=1.0).contains(&row.mean_l2_hit_rate), "{row:?}");
            match (row.topology, row.sm_count) {
                // The ideal network is latency-free, and single-SM points
                // never route through the shared network at all.
                (Topology::Ideal, _) | (_, 1) => {
                    assert_eq!(row.mean_noc_latency, 0.0, "{row:?}");
                }
                _ => assert!(row.mean_noc_latency > 0.0, "{row:?}"),
            }
        }
    }

    #[test]
    fn gpu_scale_reports_every_cell() {
        let rows = gpu_scale(SuiteSelection::Quick, &[1, 2]);
        assert_eq!(rows.len(), 4, "2 SM counts x BL/LTRF");
        for row in &rows {
            assert!(row.mean_ipc > 0.0, "{row:?}");
            assert!(row.mean_normalized_ipc > 0.0, "{row:?}");
            assert!((0.0..=1.0).contains(&row.mean_l2_hit_rate));
            assert!((0.0..=1.0).contains(&row.mean_dram_row_hit_rate));
        }
        let two_sm_ltrf = rows
            .iter()
            .find(|r| r.sm_count == 2 && r.organization == Organization::Ltrf)
            .unwrap();
        let one_sm_ltrf = rows
            .iter()
            .find(|r| r.sm_count == 1 && r.organization == Organization::Ltrf)
            .unwrap();
        assert!(
            two_sm_ltrf.mean_ipc > one_sm_ltrf.mean_ipc,
            "two SMs execute more work per cycle than one: {} vs {}",
            two_sm_ltrf.mean_ipc,
            one_sm_ltrf.mean_ipc
        );
    }

    #[test]
    fn quick_suite_is_a_strict_subset() {
        let quick = suite(SuiteSelection::Quick);
        let full = suite(SuiteSelection::Full);
        assert_eq!(quick.len(), 4);
        assert_eq!(full.len(), 14);
        assert!(quick.iter().any(|w| w.is_register_sensitive()));
        assert!(quick.iter().any(|w| !w.is_register_sensitive()));
    }

    #[test]
    fn table1_reports_both_architectures() {
        let rows = table1();
        assert_eq!(rows.len(), 2);
        // The Maxwell row must show a larger average requirement than its
        // 256 KB baseline (the paper reports 2.3x).
        let maxwell = &rows[1].requirement;
        assert!(maxwell.average_factor() > 1.0);
        assert!(maxwell.max_factor() >= maxwell.average_factor());
    }

    #[test]
    fn table2_and_figure2_are_static_data() {
        assert_eq!(table2().len(), 7);
        assert_eq!(figure2().len(), 4);
        assert_eq!(table3().sm.max_warps, 64);
        assert_eq!(table3().sm_count, 16);
    }

    #[test]
    fn table4_real_lengths_do_not_exceed_optimal() {
        for row in table4(SuiteSelection::Quick) {
            assert!(
                row.report.real.mean > 0.0,
                "{} has empty intervals",
                row.workload
            );
            assert!(
                row.report.real.mean <= row.report.optimal.mean * 1.01,
                "{}: real {} > optimal {}",
                row.workload,
                row.report.real.mean,
                row.report.optimal.mean
            );
        }
    }

    #[test]
    fn overheads_are_in_the_paper_ballpark() {
        let report = overheads(SuiteSelection::Quick);
        assert!(report.area_overhead > 0.10 && report.area_overhead < 0.25);
        // Synthetic kernels are short, so PREFETCH metadata weighs more than
        // the paper's 7%; guard only against runaway interval counts.
        assert!(report.code_size_overhead > 0.0 && report.code_size_overhead < 0.45);
    }

    #[test]
    fn figure9_rows_cover_the_quick_suite_through_the_registry() {
        let per_config = figure9(SuiteSelection::Quick);
        assert_eq!(
            per_config.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            [6, 7],
            "one row set per sub-figure"
        );
        for (config_id, rows) in &per_config {
            assert_eq!(rows.len(), 4, "configuration #{config_id}");
            for row in rows {
                assert!(row.bl > 0.0 && row.ltrf > 0.0 && row.ideal > 0.0);
                // The ideal organization cannot lose to the degraded
                // baseline.
                assert!(
                    row.ideal >= row.bl * 0.99,
                    "#{config_id} {}: ideal {} < bl {}",
                    row.workload,
                    row.ideal,
                    row.bl
                );
            }
        }
    }

    #[test]
    fn table2_sweep_covers_every_design_point() {
        let rows = table2_sweep(SuiteSelection::Quick);
        assert_eq!(
            rows.iter().map(|r| r.config_id).collect::<Vec<_>>(),
            (1..=7).collect::<Vec<_>>()
        );
        for row in &rows {
            assert!(row.bl > 0.0 && row.ltrf > 0.0, "{row:?}");
        }
        // On the paper's headline configuration #6 LTRF beats the
        // latency-degraded baseline.
        let six = rows.iter().find(|r| r.config_id == 6).unwrap();
        assert!(six.ltrf > six.bl, "{six:?}");
    }
}
