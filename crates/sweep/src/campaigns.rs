//! Canonical campaign constructors — one per simulated registry entry.
//!
//! Every constructor reads the invocation's [`CampaignParams`], the one
//! typed parameter value of every front end, and returns the campaign's
//! specs. The registry rows in [`crate::api`] point straight at these
//! functions, so the `sweep` CLI, the regression tests and the benchmark all
//! reach a campaign through its registry row and agree — byte for byte — on
//! what "the Figure 9 campaign" or "the power sweep" means: there is exactly
//! one definition of each campaign in the workspace, and every default it
//! applies lives in one constant here or in [`CampaignParams`].
//!
//! | Constructor | Paper artifact | CLI entry point |
//! |---|---|---|
//! | [`fig9`] | Figure 9 (overall IPC); Figure 3 is its Ideal/BL slice on #6 | `sweep fig9` (`sweep fig3`) |
//! | [`fig11`] | Figure 11 (max tolerable latency) | `sweep fig11` |
//! | [`fig12`] | Figure 12 (interval-size sweep) | `sweep fig12` |
//! | [`fig13`] | Figure 13 (active-warp sweep) | `sweep fig13` |
//! | [`fig14`] | Figure 14 (scheme comparison); Figure 4 is its 1× slice | `sweep fig14` (`sweep fig4`) |
//! | [`table2`] | Table 2 (design-point IPC) | `sweep table2` |
//! | [`power`] | §6.4 power across all design points; Figure 10 is its #7 slice | `sweep power` (`sweep fig10`) |
//! | [`repro`] | the full artifact set | `sweep repro` |
//! | [`gpu_scale`] | beyond-paper full-GPU scaling | `sweep gpu-scale` |
//! | [`gen_campaign`] | beyond-paper generated populations | `sweep gen-campaign` |
//! | [`trace_campaign`] | beyond-paper trace-driven workloads | `sweep trace-campaign` |
//! | [`interconnect`] | beyond-paper SM↔L2 network study | `sweep interconnect` |
//!
//! Cache identity is per *point*, not per campaign: a point's key material
//! is its workload, memory selection, seeding/normalization policy, and full
//! [`ltrf_core::ExperimentConfig`] (including the power-model calibration).
//! Campaigns that share points — the quick fig9 matrix is a subset of the
//! full one, Table 2 contains Figure 9's points — therefore share cache
//! entries, which is what makes a warm `sweep repro` rerun hit 100%. See
//! `REPRODUCING.md` for the artifact atlas.

use ltrf_core::Organization;
use ltrf_sim::{InterconnectConfig, Topology};
use ltrf_trace::TraceWorkloadId;
use ltrf_workloads::GeneratorConfig;

use crate::api::CampaignParams;
use crate::spec::{SweepSpec, SweepSpecBuilder};

/// What a constructor returns: the campaign's specs, or a flag-named
/// complaint about its parameters.
type Specs = Result<Vec<SweepSpec>, String>;

/// The organizations of Figure 9 (everything except the §6.6 strand
/// ablation).
pub(crate) const FIG9_ORGS: [Organization; 6] = [
    Organization::Baseline,
    Organization::Rfc,
    Organization::Shrf,
    Organization::Ltrf,
    Organization::LtrfPlus,
    Organization::Ideal,
];

/// The organizations of the Figure 11 latency-tolerance matrix.
pub(crate) const FIG11_ORGS: [Organization; 4] = [
    Organization::Baseline,
    Organization::Rfc,
    Organization::Ltrf,
    Organization::LtrfPlus,
];

/// The organizations of the Figure 14 scheme comparison (the §6.6 strand
/// ablation rides along here).
pub(crate) const FIG14_ORGS: [Organization; 5] = [
    Organization::Baseline,
    Organization::Rfc,
    Organization::Shrf,
    Organization::LtrfStrand,
    Organization::Ltrf,
];

/// The organizations of the power artifacts (Figure 10 and the `sweep
/// power` design-point sweep): the three register-caching schemes whose
/// power the paper reports, each normalized to the baseline.
pub(crate) const POWER_ORGS: [Organization; 3] = [
    Organization::Rfc,
    Organization::Ltrf,
    Organization::LtrfPlus,
];

/// The paper's headline pair — the conventional register file and LTRF —
/// which Table 2, `gpu-scale`, and the generated and trace campaigns
/// compare.
pub(crate) const HEADLINE_ORGS: [Organization; 2] = [Organization::Baseline, Organization::Ltrf];

/// The register-interval sizes of the Figure 12 sensitivity sweep.
pub(crate) const FIG12_INTERVAL_SIZES: [usize; 3] = [8, 16, 32];

/// The active-warp counts of the Figure 13 sensitivity sweep.
pub(crate) const FIG13_WARP_COUNTS: [usize; 3] = [4, 8, 16];

/// The SM-count axis of `gpu-scale` when `--sm-counts` is not given.
pub(crate) const GPU_SCALE_SM_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The SM-count axis of `interconnect` when `--sm-counts` is not given:
/// contention (and therefore topology divergence) only appears once enough
/// SMs share the L2, so it reaches 16.
pub(crate) const INTERCONNECT_SM_COUNTS: [usize; 3] = [1, 4, 16];

/// The topologies `interconnect` compares when `--topology` is not given:
/// the contention-free reference against the single-stage crossbar.
pub(crate) const INTERCONNECT_TOPOLOGIES: [Topology; 2] = [Topology::Ideal, Topology::Crossbar];

/// The traces of `trace-campaign` when no `--trace` is given: the three
/// checked-in example traces, relative to the repository root.
const DEFAULT_TRACES: [&str; 3] = [
    "examples/traces/straight_line.trace",
    "examples/traces/divergent_loop.trace",
    "examples/traces/high_register_pressure.trace",
];

/// The campaign (and report file) name at the requested SM count: the
/// historical name at one SM — so report files keep their paths and their
/// single-SM contents — and a `-smN` suffix for full-GPU variants so they
/// never clobber the single-SM reports.
fn campaign_name(base: &str, sm_count: usize) -> String {
    if sm_count == 1 {
        base.to_string()
    } else {
        format!("{base}-sm{sm_count}")
    }
}

/// Eight hex digits of a value's canonical encoding: enough to keep
/// differently parameterized report files apart, while the full value stays
/// readable in the JSON report and the cache-key material.
fn fingerprint(value: &impl serde::Serialize) -> String {
    let digest = crate::hash::sha256(value.to_value().to_json().as_bytes());
    crate::hash::to_hex(&digest)[..8].to_string()
}

/// A campaign at the single `--sm-count`, named `base` (suffixed `-smN`
/// beyond one SM) and seeded as `params` asks.
fn at_sm_count(base: &str, params: &CampaignParams) -> SweepSpecBuilder {
    let sm_count = params.single_sm_count();
    SweepSpec::builder(campaign_name(base, sm_count))
        .sm_counts([sm_count])
        .seed_mode(params.seed_mode())
}

/// [`at_sm_count`] over the selected suite workloads.
fn suite(base: &str, params: &CampaignParams) -> SweepSpecBuilder {
    at_sm_count(base, params).workloads(params.workload_names())
}

/// The latency-sweep matrix shared by Figures 11–14: the given organizations
/// × the paper's latency factors on configuration #1, un-normalized (the
/// sweeps report IPC *relative to each curve's own 1× point*, which the
/// consumers derive; baseline-normalization would double-simulate).
fn latency_matrix(
    base: &str,
    params: &CampaignParams,
    organizations: impl IntoIterator<Item = Organization>,
) -> SweepSpecBuilder {
    suite(base, params)
        .organizations(organizations)
        .config_ids([1])
        .latency_factors(ltrf_core::paper_latency_factors().into_iter().map(Some))
        .normalize(false)
}

/// The Figure 9 campaign: [`FIG9_ORGS`] × the workloads on configurations
/// #6 and #7, normalized.
pub(crate) fn fig9(params: &CampaignParams) -> Specs {
    Ok(vec![suite("fig9", params)
        .organizations(FIG9_ORGS)
        .config_ids([6, 7])
        .normalize(true)
        .build()])
}

/// The Figure 11 campaign: [`FIG11_ORGS`] × the workloads × the paper's
/// latency factors on configuration #1.
pub(crate) fn fig11(params: &CampaignParams) -> Specs {
    Ok(vec![latency_matrix("fig11", params, FIG11_ORGS).build()])
}

/// The Figure 12 campaign: LTRF × the workloads × the paper's latency
/// factors × [`FIG12_INTERVAL_SIZES`] registers per register-interval.
pub(crate) fn fig12(params: &CampaignParams) -> Specs {
    Ok(vec![latency_matrix("fig12", params, [Organization::Ltrf])
        .registers_per_interval(FIG12_INTERVAL_SIZES)
        .build()])
}

/// The Figure 13 campaign: LTRF × the workloads × the paper's latency
/// factors × [`FIG13_WARP_COUNTS`] active warps.
pub(crate) fn fig13(params: &CampaignParams) -> Specs {
    Ok(vec![latency_matrix("fig13", params, [Organization::Ltrf])
        .active_warps(FIG13_WARP_COUNTS)
        .build()])
}

/// The Figure 14 campaign: [`FIG14_ORGS`] × the workloads × the paper's
/// latency factors on configuration #1. Its 1× points are Figure 4's
/// register-cache hit-rate study.
pub(crate) fn fig14(params: &CampaignParams) -> Specs {
    Ok(vec![latency_matrix("fig14", params, FIG14_ORGS).build()])
}

/// The Table 2 design-point campaign: [`HEADLINE_ORGS`] × the workloads on
/// every configuration #1–#7, normalized.
pub fn table2(params: &CampaignParams) -> Specs {
    Ok(vec![suite("table2", params)
        .organizations(HEADLINE_ORGS)
        .config_ids(1..=7)
        .normalize(true)
        .build()])
}

/// The power sweep: [`POWER_ORGS`] × the workloads on *every* Table 2
/// design point #1–#7, normalized, under the calibration `params` asks for.
/// At the default calibration its configuration-#7 rows are Figure 10; the
/// other design points extend the paper's §6.4 power discussion across the
/// whole design space.
///
/// The campaign (and report file) name carries a `-p<hex>` fingerprint of
/// a non-default calibration so differently calibrated sweeps never clobber
/// each other's reports; the calibration itself is cache-key material
/// either way.
pub(crate) fn power(params: &CampaignParams) -> Specs {
    let calibration = params.power_params()?;
    let mut base = String::from("power");
    if calibration != ltrf_tech::PowerParams::default() {
        base.push_str(&format!("-p{}", fingerprint(&calibration)));
    }
    Ok(vec![suite(&base, params)
        .organizations(POWER_ORGS)
        .config_ids(1..=7)
        .normalize(true)
        .power_params(calibration)
        .build()])
}

/// The full paper-artifact set, in atlas order: Figure 9, Figure 11,
/// Figure 12, Figure 13, Figure 14, Table 2, and the power sweep at the
/// default calibration (whose configuration-#7 slice is Figure 10). The
/// campaigns share many points (the Figure 11 matrix contains Figure 12's
/// 16-registers-per-interval curve and Figure 14's BL/RFC/LTRF curves;
/// Table 2 contains Figure 9's normalized points on configurations #6/#7),
/// so a cold `repro` already reuses work through the cache and a warm rerun
/// hits 100%.
pub(crate) fn repro(params: &CampaignParams) -> Specs {
    let canonical = CampaignParams {
        access_energy_pj: None,
        leakage_mw_per_kb: None,
        dwm_write_penalty: None,
        ..params.clone()
    };
    let mut specs = Vec::new();
    for build in [fig9, fig11, fig12, fig13, fig14, table2, power] {
        specs.extend(build(&canonical)?);
    }
    Ok(specs)
}

/// The GPU-scaling campaign: [`HEADLINE_ORGS`] × the workloads on
/// configuration #6 across the SM-count axis (default
/// [`GPU_SCALE_SM_COUNTS`]), normalized, grids weak-scaled.
pub(crate) fn gpu_scale(params: &CampaignParams) -> Specs {
    Ok(vec![SweepSpec::builder("gpu-scale")
        .workloads(params.workload_names())
        .organizations(HEADLINE_ORGS)
        .config_ids([6])
        .sm_counts(params.sm_count_axis(&GPU_SCALE_SM_COUNTS))
        .seed_mode(params.seed_mode())
        .normalize(true)
        .build()])
}

/// A generated-workload campaign: [`HEADLINE_ORGS`] × the population on
/// configuration #6, normalized. The name is sized and seeded
/// (`gen-campaign-nN-sS`) and, when the generator bounds differ from the
/// defaults, fingerprinted (`-c<hex>`), so differently parameterized
/// campaigns never clobber each other's reports. Populations weak-scale
/// with the SM count exactly as suite workloads do.
pub(crate) fn gen_campaign(params: &CampaignParams) -> Specs {
    let (population, population_seed, bounds) = params.gen_params()?;
    let mut base = format!("gen-campaign-n{population}-s{population_seed}");
    if bounds != GeneratorConfig::default() {
        base.push_str(&format!("-c{}", fingerprint(&bounds)));
    }
    Ok(vec![at_sm_count(&base, params)
        .organizations(HEADLINE_ORGS)
        .config_ids([6])
        .generated_population(population_seed, population, bounds)
        .normalize(true)
        .build()])
}

/// The trace identities of `trace-campaign`: every `--trace` file (or the
/// [`DEFAULT_TRACES`] when none was given), read and fingerprinted, each
/// parsed and lowered once so a malformed trace is one `--trace`-named
/// error here rather than a per-point failure per configuration.
fn traces(params: &CampaignParams) -> Result<Vec<TraceWorkloadId>, String> {
    let defaults = DEFAULT_TRACES.map(String::from);
    let paths = if params.trace_paths.is_empty() {
        &defaults[..]
    } else {
        &params.trace_paths[..]
    };
    paths
        .iter()
        .map(|path| {
            let id =
                TraceWorkloadId::from_path(path).map_err(|e| format!("--trace {path}: {e}"))?;
            id.materialize()
                .map_err(|e| format!("--trace {path}: {e}"))?;
            Ok(id)
        })
        .collect()
}

/// A trace-driven campaign: [`HEADLINE_ORGS`] × the lowered trace workloads
/// on configuration #6, normalized. The name `trace-campaign-t<hex>`
/// fingerprints the full trace set (paths, content hashes, and lowering
/// bounds), so campaigns over different traces — or over an edited trace —
/// never clobber each other's reports.
pub(crate) fn trace_campaign(params: &CampaignParams) -> Specs {
    let traces = traces(params)?;
    let base = format!("trace-campaign-t{}", fingerprint(&traces));
    Ok(vec![at_sm_count(&base, params)
        .organizations(HEADLINE_ORGS)
        .config_ids([6])
        .trace_population(traces)
        .normalize(true)
        .build()])
}

/// The interconnect-topology campaign: LTRF × the workloads on
/// configuration #6 across the SM-count axis (default
/// [`INTERCONNECT_SM_COUNTS`]), un-normalized, one spec per swept topology
/// (default [`INTERCONNECT_TOPOLOGIES`]). Single-SM points never touch the
/// shared network and serve as the contention-free floor of every
/// topology's curve.
///
/// Each spec is named `interconnect-<topology>`, suffixed `-wN`/`-qN` when
/// the link width or queue depth differs from the default. The ideal spec
/// at the default provisioning carries the default [`InterconnectConfig`],
/// which is elided from cache-key material — its points share cache
/// identity with any historical campaign that ran the same experiment.
/// Every other topology (or any non-default link width/queue depth) is new
/// key material, so switching `--topology` misses the cache 100% by
/// construction.
pub(crate) fn interconnect(params: &CampaignParams) -> Specs {
    let defaults = InterconnectConfig::default();
    let workloads = params.workload_names();
    let sm_counts = params.sm_count_axis(&INTERCONNECT_SM_COUNTS);
    let specs = params.topologies().into_iter().map(|topology| {
        let network = params.network(topology);
        let mut name = format!("interconnect-{}", topology.label());
        if network.link_width != defaults.link_width {
            name.push_str(&format!("-w{}", network.link_width));
        }
        if network.queue_depth != defaults.queue_depth {
            name.push_str(&format!("-q{}", network.queue_depth));
        }
        SweepSpec::builder(name)
            .workloads(workloads.iter().cloned())
            .organizations([Organization::Ltrf])
            .config_ids([6])
            .sm_counts(sm_counts.iter().copied())
            .seed_mode(params.seed_mode())
            .normalize(false)
            .interconnect(network)
            .build()
    });
    Ok(specs.collect())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::cache::point_key;
    use crate::registry;
    use crate::spec::SeedMode;
    use crate::CAMPAIGN_SEED;

    /// The specs the registry row `campaign` builds from `params`.
    fn specs(campaign: &str, params: &CampaignParams) -> Vec<SweepSpec> {
        registry()
            .find(campaign)
            .expect("registered")
            .specs(params)
            .expect("valid parameters")
    }

    fn quick() -> CampaignParams {
        CampaignParams {
            quick: true,
            ..CampaignParams::default()
        }
    }

    fn key_materials(spec: &SweepSpec) -> BTreeSet<String> {
        spec.points
            .iter()
            .map(|p| point_key(spec, p).material)
            .collect()
    }

    const QUICK: usize = ltrf_workloads::QUICK_SUBSET.len();

    #[test]
    fn fig9_spec_matches_the_published_matrix() {
        let [spec] = &specs("fig9", &quick())[..] else {
            panic!("one spec")
        };
        assert_eq!(spec.name, "fig9");
        assert_eq!(
            spec.points.len(),
            QUICK * 6 * 2,
            "workloads x orgs x configs"
        );
        assert!(spec.normalize);
        assert_eq!(spec.seed_mode, SeedMode::Fixed(CAMPAIGN_SEED));
        let multi_sm = CampaignParams {
            sm_count: Some(4),
            per_point_seeds: true,
            ..quick()
        };
        let spec = &specs("fig9", &multi_sm)[0];
        assert_eq!(spec.name, "fig9-sm4");
        assert_eq!(spec.seed_mode, SeedMode::PerPoint(CAMPAIGN_SEED));
        assert!(spec.points.iter().all(|p| p.config.sm_count == 4));
    }

    #[test]
    fn latency_sweep_specs_match_the_published_matrices() {
        let factors = ltrf_core::paper_latency_factors().len();

        let fig11 = &specs("fig11", &quick())[0];
        assert_eq!(fig11.name, "fig11");
        assert_eq!(fig11.points.len(), QUICK * FIG11_ORGS.len() * factors);
        assert!(!fig11.normalize, "relative-IPC sweeps are un-normalized");

        let fig12 = &specs("fig12", &quick())[0];
        assert_eq!(
            fig12.points.len(),
            QUICK * factors * FIG12_INTERVAL_SIZES.len()
        );
        assert!(fig12
            .points
            .iter()
            .all(|p| p.config.organization == Organization::Ltrf));

        let fig13 = &specs("fig13", &quick())[0];
        assert_eq!(
            fig13.points.len(),
            QUICK * factors * FIG13_WARP_COUNTS.len()
        );

        let four_sms = CampaignParams {
            sm_count: Some(4),
            ..quick()
        };
        let fig14 = &specs("fig14", &four_sms)[0];
        assert_eq!(fig14.name, "fig14-sm4");
        assert_eq!(fig14.points.len(), QUICK * FIG14_ORGS.len() * factors);

        // The shared-cache overlaps the atlas documents: fig12's
        // 16-registers-per-interval LTRF curve is point-for-point a subset
        // of fig11's LTRF curve.
        let fig11_materials = key_materials(fig11);
        let shared = fig12
            .points
            .iter()
            .filter(|p| p.config.registers_per_interval == 16)
            .filter(|p| fig11_materials.contains(&point_key(fig12, p).material))
            .count();
        assert_eq!(
            shared,
            QUICK * factors,
            "fig12 rpi=16 points live in fig11 too"
        );
    }

    #[test]
    fn power_specs_slice_and_fingerprint() {
        let power = &specs("power", &quick())[0];
        assert_eq!(power.name, "power");
        assert_eq!(power.points.len(), POWER_ORGS.len() * 7 * QUICK);
        assert!(power.normalize);
        let power_materials = key_materials(power);

        // A non-default calibration fingerprints the report name and changes
        // every cache identity.
        let recalibrated = CampaignParams {
            access_energy_pj: Some(75.0),
            ..quick()
        };
        let recalibrated = &specs("power", &recalibrated)[0];
        assert!(
            recalibrated.name.starts_with("power-p"),
            "calibration fingerprint suffix: {}",
            recalibrated.name
        );
        assert!(recalibrated
            .points
            .iter()
            .all(|p| !power_materials.contains(&point_key(recalibrated, p).material)));
    }

    /// `sweep fig3` runs fig9 and `sweep fig4` runs fig14: the specs the
    /// two preliminary studies used to build are slices of those campaigns.
    #[test]
    fn fig3_and_fig4_are_slices_of_fig9_and_fig14() {
        let workloads = ltrf_workloads::QUICK_SUBSET;
        let seed = SeedMode::Fixed(CAMPAIGN_SEED);

        // Figure 3 (Ideal/BL on configuration #6, normalized) has fig9's
        // exact key material.
        let fig3 = SweepSpec::builder("fig3")
            .workloads(workloads)
            .organizations([Organization::Ideal, Organization::Baseline])
            .config_ids([6])
            .seed_mode(seed)
            .normalize(true)
            .build();
        let fig9_materials = key_materials(&specs("fig9", &quick())[0]);
        assert_eq!(fig3.points.len(), 2 * workloads.len());
        assert!(fig3
            .points
            .iter()
            .all(|p| fig9_materials.contains(&point_key(&fig3, p).material)));

        // Figure 4 (RFC/SHRF/LTRF on configuration #1, no latency
        // override) computes exactly what fig14's 1x points compute.
        let orgs = [Organization::Rfc, Organization::Shrf, Organization::Ltrf];
        let fig4 = SweepSpec::builder("fig4")
            .workloads(workloads)
            .organizations(orgs)
            .config_ids([1])
            .seed_mode(seed)
            .normalize(false)
            .build();
        let fig14 = specs("fig14", &quick()).remove(0);
        let one_x = SweepSpec {
            points: fig14
                .points
                .iter()
                .filter(|p| {
                    orgs.contains(&p.config.organization) && p.config.latency_factor() == 1.0
                })
                .cloned()
                .collect(),
            ..fig14
        };
        let outcomes = |spec: &SweepSpec| {
            crate::run_sweep(spec, &crate::ExecutorOptions::default())
                .records
                .into_iter()
                .map(|r| ((r.point.workload, r.point.config.organization), r.outcome))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let fig4_outcomes = outcomes(&fig4);
        assert_eq!(fig4_outcomes.len(), orgs.len() * workloads.len());
        assert!(fig4_outcomes.values().all(|o| o.data().is_some()));
        assert_eq!(fig4_outcomes, outcomes(&one_x));
    }

    #[test]
    fn repro_specs_cover_the_artifact_atlas() {
        // Power knobs never reach repro's artifacts, which are pinned to the
        // canonical calibration.
        let recalibrated = CampaignParams {
            access_energy_pj: Some(75.0),
            ..quick()
        };
        let repro = specs("repro", &recalibrated);
        let names: Vec<&str> = repro.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["fig9", "fig11", "fig12", "fig13", "fig14", "table2", "power"]
        );
        // Campaign names are report file names; they must be unique so one
        // output directory holds the whole artifact set.
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        assert!(repro.iter().all(|s| !s.points.is_empty()));
        for (spec, campaign) in repro.iter().zip(&names) {
            assert_eq!(spec, &specs(campaign, &quick())[0], "{campaign}");
        }
    }

    #[test]
    fn gen_campaign_spec_enumerates_the_population() {
        let params = CampaignParams {
            population: Some(5),
            population_seed: Some(7),
            ..CampaignParams::default()
        };
        let spec = &specs("gen-campaign", &params)[0];
        assert_eq!(spec.name, "gen-campaign-n5-s7");
        assert_eq!(spec.points.len(), 5 * HEADLINE_ORGS.len());
        assert!(spec.points.iter().all(|p| p.generated.is_some()));
        let multi_sm = CampaignParams {
            sm_count: Some(2),
            ..params
        };
        assert_eq!(
            specs("gen-campaign", &multi_sm)[0].name,
            "gen-campaign-n5-s7-sm2"
        );
    }

    #[test]
    fn trace_campaign_spec_enumerates_the_traces() {
        let example = |name: &str| {
            format!(
                "{}/../../examples/traces/{name}",
                env!("CARGO_MANIFEST_DIR")
            )
        };
        let dir = std::env::temp_dir().join(format!("ltrf-trace-names-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let copy = dir.join("straight_line.trace");
        std::fs::copy(example("straight_line.trace"), &copy).unwrap();
        let params = CampaignParams {
            trace_paths: vec![copy.display().to_string(), example("divergent_loop.trace")],
            ..CampaignParams::default()
        };
        let spec = &specs("trace-campaign", &params)[0];
        assert!(spec.name.starts_with("trace-campaign-t"), "{}", spec.name);
        assert_eq!(spec.points.len(), 2 * HEADLINE_ORGS.len());
        assert!(spec.normalize);
        assert!(spec.points.iter().all(|p| p.trace.is_some()));
        assert!(spec
            .points
            .iter()
            .any(|p| p.workload == "trace:straight_line"));

        // Stable: the same trace set always names the same campaign; an
        // edited trace (new content hash) renames it.
        assert_eq!(spec.name, specs("trace-campaign", &params)[0].name);
        let source = std::fs::read_to_string(&copy).unwrap();
        std::fs::write(&copy, format!("{source}\n")).unwrap();
        assert_ne!(specs("trace-campaign", &params)[0].name, spec.name);

        let multi_sm = CampaignParams {
            sm_count: Some(2),
            ..params
        };
        let name = &specs("trace-campaign", &multi_sm)[0].name;
        assert!(name.ends_with("-sm2"), "{name}");

        // A missing trace is one --trace-named error, not a panic.
        let missing = CampaignParams {
            trace_paths: vec![dir.join("absent.trace").display().to_string()],
            ..CampaignParams::default()
        };
        let complaint = registry()
            .find("trace-campaign")
            .unwrap()
            .specs(&missing)
            .unwrap_err();
        assert!(complaint.starts_with("--trace "), "{complaint}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interconnect_specs_sweep_one_spec_per_topology() {
        let topologies = specs("interconnect", &quick());
        assert_eq!(topologies.len(), 2, "one spec per topology");
        assert_eq!(topologies[0].name, "interconnect-ideal");
        assert_eq!(topologies[1].name, "interconnect-crossbar");
        for spec in &topologies {
            assert_eq!(spec.points.len(), QUICK * INTERCONNECT_SM_COUNTS.len());
            assert!(!spec.normalize);
            assert!(spec
                .points
                .iter()
                .all(|p| p.config.organization == Organization::Ltrf));
        }
        // The ideal spec at default provisioning carries the default
        // network (elided from cache keys); the crossbar spec's identity
        // differs on every point.
        assert!(topologies[0]
            .points
            .iter()
            .all(|p| p.config.interconnect == InterconnectConfig::default()));
        let ideal_materials = key_materials(&topologies[0]);
        assert!(topologies[1]
            .points
            .iter()
            .all(|p| !ideal_materials.contains(&point_key(&topologies[1], p).material)));

        // Non-default provisioning fingerprints the report names; an
        // explicit default does not.
        let provisioned = CampaignParams {
            topology: Some(Topology::Mesh2D),
            link_width: Some(16),
            queue_depth: Some(4),
            ..quick()
        };
        let mesh = specs("interconnect", &provisioned);
        assert_eq!(mesh.len(), 1);
        assert_eq!(mesh[0].name, "interconnect-mesh-w16-q4");
        assert!(mesh[0]
            .points
            .iter()
            .all(|p| p.config.interconnect.link_width == 16
                && p.config.interconnect.queue_depth == 4));
        let explicit_defaults = CampaignParams {
            link_width: Some(32),
            queue_depth: Some(8),
            ..quick()
        };
        assert_eq!(specs("interconnect", &explicit_defaults), topologies);
    }

    #[test]
    fn non_default_bounds_fingerprint_the_campaign_name() {
        let default_bounds = &specs("gen-campaign", &CampaignParams::default())[0].name;
        assert_eq!(default_bounds, "gen-campaign-n64-s401743896");
        let narrowed = CampaignParams {
            max_regs: Some(96),
            ..CampaignParams::default()
        };
        let name = &specs("gen-campaign", &narrowed)[0].name;
        assert!(
            name.starts_with("gen-campaign-n64-s401743896-c"),
            "bounds fingerprint suffix: {name}"
        );
        assert_ne!(name, default_bounds);
        // Stable: the same bounds always fingerprint identically.
        assert_eq!(name, &specs("gen-campaign", &narrowed)[0].name);
    }
}
