//! Canonical campaign constructors — one per simulated paper artifact.
//!
//! The `sweep` CLI and the regression tests must agree — byte for byte — on
//! what "the Figure 9 campaign" or "the power sweep" means: the golden-file
//! tests pin the CLI's CSV output, and the benchmark rebuilds the same
//! specs through the registry. Keeping every spec constructor here makes
//! that agreement structural rather than a convention: there is exactly
//! one definition of each campaign in the workspace, and every entry point
//! calls it.
//!
//! | Constructor | Paper artifact | CLI entry point |
//! |---|---|---|
//! | [`fig9_spec`] | Figure 9 (overall IPC); Figure 3 is its Ideal/BL slice on #6 | `sweep fig9` (`sweep fig3`) |
//! | [`fig11_spec`] | Figure 11 (max tolerable latency) | `sweep fig11` |
//! | [`fig12_spec`] | Figure 12 (interval-size sweep) | `sweep fig12` |
//! | [`fig13_spec`] | Figure 13 (active-warp sweep) | `sweep fig13` |
//! | [`fig14_spec`] | Figure 14 (scheme comparison); Figure 4 is its 1× slice | `sweep fig14` (`sweep fig4`) |
//! | [`table2_spec`] | Table 2 (design-point IPC) | `sweep table2` |
//! | [`power_sweep_spec`] | §6.4 power across all design points; Figure 10 is its #7 slice | `sweep power` (`sweep fig10`) |
//! | [`gen_campaign_spec`] | beyond-paper generated populations | `sweep gen-campaign` |
//! | [`trace_campaign_spec`] | beyond-paper trace-driven workloads | `sweep trace-campaign` |
//! | [`interconnect_specs`] | beyond-paper SM↔L2 network study | `sweep interconnect` |
//! | [`repro_specs`] | the full artifact set | `sweep repro` |
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
use ltrf_tech::PowerParams;
use ltrf_trace::TraceWorkloadId;
use ltrf_workloads::GeneratorConfig;

use crate::spec::{SeedMode, SweepSpec};
use crate::CAMPAIGN_SEED;

/// The organizations of Figure 9 (everything except the §6.6 strand
/// ablation).
pub const FIG9_ORGS: [Organization; 6] = [
    Organization::Baseline,
    Organization::Rfc,
    Organization::Shrf,
    Organization::Ltrf,
    Organization::LtrfPlus,
    Organization::Ideal,
];

/// The organizations a generated campaign compares (the paper's headline
/// pair: the conventional register file and LTRF).
pub const GEN_CAMPAIGN_ORGS: [Organization; 2] = [Organization::Baseline, Organization::Ltrf];

/// The campaign (and report file) name for a figure at the requested SM
/// count: the historical name at one SM — so report files keep their paths
/// and their single-SM contents — and a `-smN` suffix for full-GPU variants
/// so they never clobber the single-SM reports.
#[must_use]
pub fn campaign_name(base: &str, sm_count: usize) -> String {
    if sm_count == 1 {
        base.to_string()
    } else {
        format!("{base}-sm{sm_count}")
    }
}

/// The Figure 9 campaign: [`FIG9_ORGS`] × the given workloads on
/// configurations #6 and #7, normalized — exactly what `sweep fig9` runs
/// (and what the golden-file regression test pins).
#[must_use]
pub fn fig9_spec<S: Into<String>>(
    workloads: impl IntoIterator<Item = S>,
    sm_count: usize,
    seed_mode: SeedMode,
) -> SweepSpec {
    SweepSpec::builder(campaign_name("fig9", sm_count))
        .workloads(workloads)
        .organizations(FIG9_ORGS)
        .config_ids([6, 7])
        .sm_counts([sm_count])
        .seed_mode(seed_mode)
        .normalize(true)
        .build()
}

/// The organizations of the Figure 11 latency-tolerance matrix.
pub const FIG11_ORGS: [Organization; 4] = [
    Organization::Baseline,
    Organization::Rfc,
    Organization::Ltrf,
    Organization::LtrfPlus,
];

/// The organizations of the Figure 14 scheme comparison (the §6.6 strand
/// ablation rides along here).
pub const FIG14_ORGS: [Organization; 5] = [
    Organization::Baseline,
    Organization::Rfc,
    Organization::Shrf,
    Organization::LtrfStrand,
    Organization::Ltrf,
];

/// The organizations of the power artifacts (Figure 10 and the `sweep
/// power` design-point sweep): the three register-caching schemes whose
/// power the paper reports, each normalized to the baseline.
pub const POWER_ORGS: [Organization; 3] = [
    Organization::Rfc,
    Organization::Ltrf,
    Organization::LtrfPlus,
];

/// The organizations of the Table 2 design-point sweep (the paper's
/// headline pair).
pub const TABLE2_ORGS: [Organization; 2] = [Organization::Baseline, Organization::Ltrf];

/// The register-interval sizes of the Figure 12 sensitivity sweep.
pub const FIG12_INTERVAL_SIZES: [usize; 3] = [8, 16, 32];

/// The active-warp counts of the Figure 13 sensitivity sweep.
pub const FIG13_WARP_COUNTS: [usize; 3] = [4, 8, 16];

/// The latency-sweep matrix shared by Figures 11–14: the given organizations
/// × the paper's latency factors on configuration #1, un-normalized (the
/// sweeps report IPC *relative to each curve's own 1× point*, which the
/// consumers derive; baseline-normalization would double-simulate).
fn latency_matrix<S: Into<String>>(
    name: String,
    workloads: impl IntoIterator<Item = S>,
    organizations: impl IntoIterator<Item = Organization>,
    sm_count: usize,
    seed_mode: SeedMode,
) -> crate::SweepSpecBuilder {
    SweepSpec::builder(name)
        .workloads(workloads)
        .organizations(organizations)
        .config_ids([1])
        .latency_factors(ltrf_core::paper_latency_factors().into_iter().map(Some))
        .sm_counts([sm_count])
        .seed_mode(seed_mode)
        .normalize(false)
}

/// The Figure 11 campaign: [`FIG11_ORGS`] × the given workloads × the
/// paper's latency factors on configuration #1 — exactly what `sweep fig11`
/// runs.
#[must_use]
pub fn fig11_spec<S: Into<String>>(
    workloads: impl IntoIterator<Item = S>,
    sm_count: usize,
    seed_mode: SeedMode,
) -> SweepSpec {
    latency_matrix(
        campaign_name("fig11", sm_count),
        workloads,
        FIG11_ORGS,
        sm_count,
        seed_mode,
    )
    .build()
}

/// The Figure 12 campaign: LTRF × the given workloads × the paper's latency
/// factors × [`FIG12_INTERVAL_SIZES`] registers per register-interval —
/// exactly what `sweep fig12` runs (and what the golden-file regression
/// test pins).
#[must_use]
pub fn fig12_spec<S: Into<String>>(
    workloads: impl IntoIterator<Item = S>,
    sm_count: usize,
    seed_mode: SeedMode,
) -> SweepSpec {
    latency_matrix(
        campaign_name("fig12", sm_count),
        workloads,
        [Organization::Ltrf],
        sm_count,
        seed_mode,
    )
    .registers_per_interval(FIG12_INTERVAL_SIZES)
    .build()
}

/// The Figure 13 campaign: LTRF × the given workloads × the paper's latency
/// factors × [`FIG13_WARP_COUNTS`] active warps — exactly what `sweep
/// fig13` runs.
#[must_use]
pub fn fig13_spec<S: Into<String>>(
    workloads: impl IntoIterator<Item = S>,
    sm_count: usize,
    seed_mode: SeedMode,
) -> SweepSpec {
    latency_matrix(
        campaign_name("fig13", sm_count),
        workloads,
        [Organization::Ltrf],
        sm_count,
        seed_mode,
    )
    .active_warps(FIG13_WARP_COUNTS)
    .build()
}

/// The Figure 14 campaign: [`FIG14_ORGS`] × the given workloads × the
/// paper's latency factors on configuration #1 — exactly what `sweep fig14`
/// runs. Its 1× points are Figure 4's register-cache hit-rate study.
#[must_use]
pub fn fig14_spec<S: Into<String>>(
    workloads: impl IntoIterator<Item = S>,
    sm_count: usize,
    seed_mode: SeedMode,
) -> SweepSpec {
    latency_matrix(
        campaign_name("fig14", sm_count),
        workloads,
        FIG14_ORGS,
        sm_count,
        seed_mode,
    )
    .build()
}

/// The Table 2 design-point campaign: [`TABLE2_ORGS`] × the given workloads
/// on every configuration #1–#7, normalized — exactly what `sweep table2`
/// runs.
#[must_use]
pub fn table2_spec<S: Into<String>>(
    workloads: impl IntoIterator<Item = S>,
    sm_count: usize,
    seed_mode: SeedMode,
) -> SweepSpec {
    SweepSpec::builder(campaign_name("table2", sm_count))
        .workloads(workloads)
        .organizations(TABLE2_ORGS)
        .config_ids(1..=7)
        .sm_counts([sm_count])
        .seed_mode(seed_mode)
        .normalize(true)
        .build()
}

/// The power sweep: [`POWER_ORGS`] × the given workloads on *every* Table 2
/// design point #1–#7, normalized, under an explicit [`PowerParams`]
/// calibration — exactly what `sweep power` runs. At the default
/// calibration its configuration-#7 rows are Figure 10; the other design
/// points extend the paper's §6.4 power discussion across the whole design
/// space.
///
/// The campaign (and report file) name carries a `-p<hex>` fingerprint of
/// non-default calibrations so differently calibrated sweeps never clobber
/// each other's reports; the calibration itself is cache-key material
/// either way.
///
/// # Panics
///
/// Panics if the calibration fails [`PowerParams::validate`] (the CLI
/// validates first and reports a friendly error).
#[must_use]
pub fn power_sweep_spec<S: Into<String>>(
    workloads: impl IntoIterator<Item = S>,
    sm_count: usize,
    seed_mode: SeedMode,
    params: PowerParams,
) -> SweepSpec {
    let mut base = String::from("power");
    if params != PowerParams::default() {
        let digest = crate::hash::sha256(serde::Serialize::to_value(&params).to_json().as_bytes());
        base.push_str(&format!("-p{}", &crate::hash::to_hex(&digest)[..8]));
    }
    SweepSpec::builder(campaign_name(&base, sm_count))
        .workloads(workloads)
        .organizations(POWER_ORGS)
        .config_ids(1..=7)
        .sm_counts([sm_count])
        .seed_mode(seed_mode)
        .normalize(true)
        .power_params(params)
        .build()
}

/// The full paper-artifact set, in atlas order: Figure 9, Figure 11,
/// Figure 12, Figure 13, Figure 14, Table 2, and the power sweep (at the
/// default calibration, whose configuration-#7 slice is Figure 10) — exactly
/// the campaigns `sweep repro` runs into one output directory. Campaigns
/// share many points (the Figure 11 matrix contains Figure 12's
/// 16-registers-per-interval curve and Figure 14's BL/RFC/LTRF curves;
/// Table 2 contains Figure 9's normalized points on configurations #6/#7),
/// so a cold `repro` already reuses work through the cache and a warm rerun
/// hits 100%.
#[must_use]
pub fn repro_specs<S: Into<String> + Clone>(
    workloads: &[S],
    sm_count: usize,
    seed_mode: SeedMode,
) -> Vec<SweepSpec> {
    vec![
        fig9_spec(workloads.iter().cloned(), sm_count, seed_mode),
        fig11_spec(workloads.iter().cloned(), sm_count, seed_mode),
        fig12_spec(workloads.iter().cloned(), sm_count, seed_mode),
        fig13_spec(workloads.iter().cloned(), sm_count, seed_mode),
        fig14_spec(workloads.iter().cloned(), sm_count, seed_mode),
        table2_spec(workloads.iter().cloned(), sm_count, seed_mode),
        power_sweep_spec(
            workloads.iter().cloned(),
            sm_count,
            seed_mode,
            PowerParams::default(),
        ),
    ]
}

/// The GPU-scaling campaign: BL and LTRF × the given workloads on
/// configuration #6 across an SM-count axis, normalized, grids weak-scaled
/// — exactly what `sweep gpu-scale` runs.
#[must_use]
pub fn gpu_scale_spec<S: Into<String>>(
    workloads: impl IntoIterator<Item = S>,
    sm_counts: &[usize],
    seed_mode: SeedMode,
) -> SweepSpec {
    SweepSpec::builder("gpu-scale")
        .workloads(workloads)
        .organizations([Organization::Baseline, Organization::Ltrf])
        .config_ids([6])
        .sm_counts(sm_counts.iter().copied())
        .seed_mode(seed_mode)
        .normalize(true)
        .build()
}

/// Parameters of a generated-workload campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenCampaignParams {
    /// Population size (members 0..population of the population).
    pub population: usize,
    /// Seed of the generated population (this is the *generator* seed; the
    /// simulation seeds come from `seed_mode`).
    pub population_seed: u64,
    /// Generator bounds the population is drawn under.
    pub config: GeneratorConfig,
    /// SMs per point (populations weak-scale with the SM count exactly as
    /// suite workloads do — the runner scales each member's grid and
    /// footprint from `ExperimentConfig::sm_count`).
    pub sm_count: usize,
    /// Simulation seeding policy.
    pub seed_mode: SeedMode,
}

impl Default for GenCampaignParams {
    fn default() -> Self {
        GenCampaignParams {
            population: 64,
            population_seed: CAMPAIGN_SEED,
            config: GeneratorConfig::default(),
            sm_count: 1,
            seed_mode: SeedMode::Fixed(CAMPAIGN_SEED),
        }
    }
}

impl GenCampaignParams {
    /// The campaign (and report file) name: sized, seeded, and — when the
    /// generator bounds differ from the defaults — fingerprinted, so
    /// differently parameterized campaigns never clobber each other's
    /// reports.
    #[must_use]
    pub fn name(&self) -> String {
        let mut base = format!(
            "gen-campaign-n{}-s{}",
            self.population, self.population_seed
        );
        if self.config != GeneratorConfig::default() {
            // Eight hex digits of the bounds' canonical encoding: enough to
            // separate report files; the full bounds remain readable in the
            // JSON report and the cache-key material.
            let digest = crate::hash::sha256(
                serde::Serialize::to_value(&self.config)
                    .to_json()
                    .as_bytes(),
            );
            base.push_str(&format!("-c{}", &crate::hash::to_hex(&digest)[..8]));
        }
        campaign_name(&base, self.sm_count)
    }
}

/// A generated-workload campaign: [`GEN_CAMPAIGN_ORGS`] × the population on
/// configuration #6, normalized — exactly what `sweep gen-campaign` runs.
///
/// # Panics
///
/// Panics if the generator bounds fail [`GeneratorConfig::validate`] or the
/// population is empty (the CLI validates first and reports a friendly
/// error).
#[must_use]
pub fn gen_campaign_spec(params: &GenCampaignParams) -> SweepSpec {
    SweepSpec::builder(params.name())
        .organizations(GEN_CAMPAIGN_ORGS)
        .config_ids([6])
        .generated_population(params.population_seed, params.population, params.config)
        .sm_counts([params.sm_count])
        .seed_mode(params.seed_mode)
        .normalize(true)
        .build()
}

/// Parameters of a trace-driven campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCampaignParams {
    /// The resolved trace identities the campaign sweeps (path + content
    /// fingerprint + lowering bounds, in axis order).
    pub traces: Vec<TraceWorkloadId>,
    /// SMs per point (trace workloads weak-scale with the SM count exactly
    /// as suite workloads do — the runner scales each lowered kernel's grid
    /// and footprint from `ExperimentConfig::sm_count`).
    pub sm_count: usize,
    /// Simulation seeding policy.
    pub seed_mode: SeedMode,
}

impl TraceCampaignParams {
    /// Binds the given trace identities to the default campaign policies
    /// (one SM, the fixed [`CAMPAIGN_SEED`]).
    #[must_use]
    pub fn new(traces: Vec<TraceWorkloadId>) -> Self {
        TraceCampaignParams {
            traces,
            sm_count: 1,
            seed_mode: SeedMode::Fixed(CAMPAIGN_SEED),
        }
    }

    /// The campaign (and report file) name: `trace-campaign-t<hex>`, where
    /// the eight hex digits fingerprint the full trace set (paths, content
    /// hashes, and lowering bounds), so campaigns over different traces —
    /// or over an edited trace — never clobber each other's reports. The
    /// full identities remain readable in the JSON report and the cache-key
    /// material.
    #[must_use]
    pub fn name(&self) -> String {
        let digest = crate::hash::sha256(
            serde::Serialize::to_value(&self.traces)
                .to_json()
                .as_bytes(),
        );
        let base = format!("trace-campaign-t{}", &crate::hash::to_hex(&digest)[..8]);
        campaign_name(&base, self.sm_count)
    }
}

/// A trace-driven campaign: [`GEN_CAMPAIGN_ORGS`] (the paper's headline
/// BL/LTRF pair) × the lowered trace workloads on configuration #6,
/// normalized — exactly what `sweep trace-campaign` runs.
///
/// # Panics
///
/// Panics if `params.traces` is empty (the CLI resolves and validates the
/// trace files first and reports a friendly error).
#[must_use]
pub fn trace_campaign_spec(params: &TraceCampaignParams) -> SweepSpec {
    SweepSpec::builder(params.name())
        .organizations(GEN_CAMPAIGN_ORGS)
        .config_ids([6])
        .trace_population(params.traces.iter().cloned())
        .sm_counts([params.sm_count])
        .seed_mode(params.seed_mode)
        .normalize(true)
        .build()
}

/// Parameters of the interconnect-topology campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectCampaignParams {
    /// The topologies the campaign compares, one spec (and one report file)
    /// per entry, in axis order.
    pub topologies: Vec<Topology>,
    /// Link width in bytes per cycle, shared by every non-ideal topology
    /// swept (the ideal network ignores it).
    pub link_width: u64,
    /// Bounded per-link queue depth, shared by every non-ideal topology
    /// swept (the ideal network ignores it).
    pub queue_depth: usize,
    /// The SM-count axis: contention (and therefore topology divergence)
    /// only appears once enough SMs share the L2, so the default axis
    /// reaches 16.
    pub sm_counts: Vec<usize>,
    /// Simulation seeding policy.
    pub seed_mode: SeedMode,
}

impl Default for InterconnectCampaignParams {
    fn default() -> Self {
        let network = InterconnectConfig::default();
        InterconnectCampaignParams {
            // The headline comparison: the contention-free reference against
            // the single-stage crossbar. `--topology T` narrows to one.
            topologies: vec![Topology::Ideal, Topology::Crossbar],
            link_width: network.link_width,
            queue_depth: network.queue_depth,
            sm_counts: vec![1, 4, 16],
            seed_mode: SeedMode::Fixed(CAMPAIGN_SEED),
        }
    }
}

impl InterconnectCampaignParams {
    /// The network configuration of one swept topology.
    #[must_use]
    pub fn network(&self, topology: Topology) -> InterconnectConfig {
        let mut config = InterconnectConfig::with_topology(topology);
        config.link_width = self.link_width;
        config.queue_depth = self.queue_depth;
        config
    }

    /// The campaign (and report file) name of one swept topology:
    /// `interconnect-<topology>`, suffixed with the link width and queue
    /// depth when they differ from the defaults so differently provisioned
    /// sweeps never clobber each other's reports.
    #[must_use]
    pub fn spec_name(&self, topology: Topology) -> String {
        let defaults = InterconnectConfig::default();
        let mut name = format!("interconnect-{}", topology.label());
        if self.link_width != defaults.link_width {
            name.push_str(&format!("-w{}", self.link_width));
        }
        if self.queue_depth != defaults.queue_depth {
            name.push_str(&format!("-q{}", self.queue_depth));
        }
        name
    }
}

/// The interconnect-topology campaign: LTRF × the given workloads on
/// configuration #6 across the SM-count axis, un-normalized, one spec per
/// selected topology — exactly what `sweep interconnect` runs. Single-SM points
/// never touch the shared network and serve as the contention-free floor of
/// every topology's curve.
///
/// The ideal-topology spec at the default link provisioning carries the
/// default [`InterconnectConfig`], which is elided from cache-key material —
/// its points share cache identity with any historical campaign that ran the
/// same experiment. Every other topology (or any non-default link
/// width/queue depth) is new key material, so switching `--topology` misses
/// the cache 100% by construction.
#[must_use]
pub fn interconnect_specs<S: Into<String> + Clone>(
    workloads: &[S],
    params: &InterconnectCampaignParams,
) -> Vec<SweepSpec> {
    params
        .topologies
        .iter()
        .map(|&topology| {
            SweepSpec::builder(params.spec_name(topology))
                .workloads(workloads.iter().cloned())
                .organizations([Organization::Ltrf])
                .config_ids([6])
                .sm_counts(params.sm_counts.iter().copied())
                .seed_mode(params.seed_mode)
                .normalize(false)
                .interconnect(params.network(topology))
                .build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_spec_matches_the_published_matrix() {
        let spec = fig9_spec(["hotspot", "btree"], 1, SeedMode::Fixed(CAMPAIGN_SEED));
        assert_eq!(spec.name, "fig9");
        assert_eq!(spec.points.len(), 2 * 6 * 2, "workloads x orgs x configs");
        assert!(spec.normalize);
        assert_eq!(
            fig9_spec(["hotspot"], 4, SeedMode::Fixed(1)).name,
            "fig9-sm4"
        );
    }

    #[test]
    fn latency_sweep_specs_match_the_published_matrices() {
        let factors = ltrf_core::paper_latency_factors().len();
        let workloads = ["hotspot", "btree"];
        let seed = SeedMode::Fixed(CAMPAIGN_SEED);

        let fig11 = fig11_spec(workloads, 1, seed);
        assert_eq!(fig11.name, "fig11");
        assert_eq!(fig11.points.len(), 2 * FIG11_ORGS.len() * factors);
        assert!(!fig11.normalize, "relative-IPC sweeps are un-normalized");

        let fig12 = fig12_spec(workloads, 1, seed);
        assert_eq!(fig12.points.len(), 2 * factors * FIG12_INTERVAL_SIZES.len());
        assert!(fig12
            .points
            .iter()
            .all(|p| p.config.organization == Organization::Ltrf));

        let fig13 = fig13_spec(workloads, 1, seed);
        assert_eq!(fig13.points.len(), 2 * factors * FIG13_WARP_COUNTS.len());

        let fig14 = fig14_spec(workloads, 4, seed);
        assert_eq!(fig14.name, "fig14-sm4");
        assert_eq!(fig14.points.len(), 2 * FIG14_ORGS.len() * factors);

        // The shared-cache overlaps the atlas documents: fig12's
        // 16-registers-per-interval LTRF curve is point-for-point a subset
        // of fig11's LTRF curve.
        let fig11_materials: std::collections::BTreeSet<String> = fig11
            .points
            .iter()
            .map(|p| crate::cache::point_key(&fig11, p).material)
            .collect();
        let shared = fig12
            .points
            .iter()
            .filter(|p| p.config.registers_per_interval == 16)
            .filter(|p| fig11_materials.contains(&crate::cache::point_key(&fig12, p).material))
            .count();
        assert_eq!(shared, 2 * factors, "fig12 rpi=16 points live in fig11 too");
    }

    #[test]
    fn power_specs_slice_and_fingerprint() {
        let workloads = ["hotspot"];
        let seed = SeedMode::Fixed(CAMPAIGN_SEED);
        let power = power_sweep_spec(workloads, 1, seed, PowerParams::default());
        assert_eq!(power.name, "power");
        assert_eq!(power.points.len(), POWER_ORGS.len() * 7);
        assert!(power.normalize);
        let power_materials: std::collections::BTreeSet<String> = power
            .points
            .iter()
            .map(|p| crate::cache::point_key(&power, p).material)
            .collect();

        // A non-default calibration fingerprints the report name and changes
        // every cache identity.
        let recalibrated = power_sweep_spec(
            workloads,
            1,
            seed,
            PowerParams {
                base_access_pj: 75.0,
                ..PowerParams::default()
            },
        );
        assert!(
            recalibrated.name.starts_with("power-p"),
            "calibration fingerprint suffix: {}",
            recalibrated.name
        );
        assert!(recalibrated.points.iter().all(
            |p| !power_materials.contains(&crate::cache::point_key(&recalibrated, p).material)
        ));
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
        let fig9 = fig9_spec(workloads, 1, seed);
        let fig9_materials: std::collections::BTreeSet<String> = fig9
            .points
            .iter()
            .map(|p| crate::cache::point_key(&fig9, p).material)
            .collect();
        assert_eq!(fig3.points.len(), 2 * workloads.len());
        assert!(fig3
            .points
            .iter()
            .all(|p| fig9_materials.contains(&crate::cache::point_key(&fig3, p).material)));

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
        let fig14 = fig14_spec(workloads, 1, seed);
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
        let specs = repro_specs(&["hotspot"], 1, SeedMode::Fixed(CAMPAIGN_SEED));
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["fig9", "fig11", "fig12", "fig13", "fig14", "table2", "power"]
        );
        // Campaign names are report file names; they must be unique so one
        // output directory holds the whole artifact set.
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        assert!(specs.iter().all(|s| !s.points.is_empty()));
    }

    #[test]
    fn gen_campaign_spec_enumerates_the_population() {
        let params = GenCampaignParams {
            population: 5,
            population_seed: 7,
            ..GenCampaignParams::default()
        };
        let spec = gen_campaign_spec(&params);
        assert_eq!(spec.name, "gen-campaign-n5-s7");
        assert_eq!(spec.points.len(), 5 * GEN_CAMPAIGN_ORGS.len());
        assert!(spec.points.iter().all(|p| p.generated.is_some()));
        let multi_sm = GenCampaignParams {
            sm_count: 2,
            ..params
        };
        assert_eq!(multi_sm.name(), "gen-campaign-n5-s7-sm2");
    }

    #[test]
    fn trace_campaign_spec_enumerates_the_traces() {
        use ltrf_trace::LoweringBounds;

        let id = |path: &str, hash: &str| TraceWorkloadId {
            path: path.to_string(),
            content_hash: hash.to_string(),
            bounds: LoweringBounds::default(),
        };
        let params = TraceCampaignParams::new(vec![
            id("examples/traces/straight_line.trace", "cbf29ce484222325"),
            id("examples/traces/divergent_loop.trace", "0123456789abcdef"),
        ]);
        let spec = trace_campaign_spec(&params);
        assert!(spec.name.starts_with("trace-campaign-t"), "{}", spec.name);
        assert_eq!(spec.points.len(), 2 * GEN_CAMPAIGN_ORGS.len());
        assert!(spec.normalize);
        assert!(spec.points.iter().all(|p| p.trace.is_some()));
        assert!(spec
            .points
            .iter()
            .any(|p| p.workload == "trace:straight_line"));

        // Stable: the same trace set always names the same campaign; an
        // edited trace (new content hash) renames it.
        assert_eq!(spec.name, trace_campaign_spec(&params).name);
        let edited = TraceCampaignParams::new(vec![
            id("examples/traces/straight_line.trace", "ffffffffffffffff"),
            id("examples/traces/divergent_loop.trace", "0123456789abcdef"),
        ]);
        assert_ne!(edited.name(), params.name());

        let multi_sm = TraceCampaignParams {
            sm_count: 2,
            ..params.clone()
        };
        assert!(multi_sm.name().ends_with("-sm2"), "{}", multi_sm.name());
    }

    #[test]
    fn interconnect_specs_sweep_one_spec_per_topology() {
        let params = InterconnectCampaignParams::default();
        let specs = interconnect_specs(&["hotspot", "btree"], &params);
        assert_eq!(specs.len(), 2, "one spec per topology");
        assert_eq!(specs[0].name, "interconnect-ideal");
        assert_eq!(specs[1].name, "interconnect-crossbar");
        for spec in &specs {
            assert_eq!(spec.points.len(), 2 * params.sm_counts.len());
            assert!(!spec.normalize);
            assert!(spec
                .points
                .iter()
                .all(|p| p.config.organization == Organization::Ltrf));
        }
        // The ideal spec at default provisioning carries the default
        // network (elided from cache keys); the crossbar spec's identity
        // differs on every point.
        assert!(specs[0]
            .points
            .iter()
            .all(|p| p.config.interconnect == InterconnectConfig::default()));
        let ideal_materials: std::collections::BTreeSet<String> = specs[0]
            .points
            .iter()
            .map(|p| crate::cache::point_key(&specs[0], p).material)
            .collect();
        assert!(specs[1]
            .points
            .iter()
            .all(|p| !ideal_materials.contains(&crate::cache::point_key(&specs[1], p).material)));

        // Non-default provisioning fingerprints the report names.
        let provisioned = InterconnectCampaignParams {
            topologies: vec![Topology::Mesh2D],
            link_width: 16,
            queue_depth: 4,
            ..InterconnectCampaignParams::default()
        };
        assert_eq!(
            provisioned.spec_name(Topology::Mesh2D),
            "interconnect-mesh-w16-q4"
        );
        let mesh = interconnect_specs(&["hotspot"], &provisioned);
        assert_eq!(mesh.len(), 1);
        assert!(mesh[0]
            .points
            .iter()
            .all(|p| p.config.interconnect.link_width == 16
                && p.config.interconnect.queue_depth == 4));
    }

    #[test]
    fn non_default_bounds_fingerprint_the_campaign_name() {
        let default_bounds = GenCampaignParams::default();
        assert_eq!(default_bounds.name(), "gen-campaign-n64-s401743896");
        let narrowed = GenCampaignParams {
            config: GeneratorConfig {
                max_regs: 96,
                ..GeneratorConfig::default()
            },
            ..GenCampaignParams::default()
        };
        let name = narrowed.name();
        assert!(
            name.starts_with("gen-campaign-n64-s401743896-c"),
            "bounds fingerprint suffix: {name}"
        );
        assert_ne!(name, default_bounds.name());
        // Stable: the same bounds always fingerprint identically.
        assert_eq!(name, narrowed.name());
    }
}
