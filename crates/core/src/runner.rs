//! The experiment runner: simulate a kernel under a register-file
//! organization and a Table 2 design point, and report IPC and power.

use serde::{Deserialize, Serialize};

use ltrf_isa::Kernel;
use ltrf_sim::{
    simulate_gpu_with, EngineKind, GpuConfig, GpuStats, InterconnectConfig, MemoryBehavior,
    SimStats, SimWorkload, SmConfig,
};
use ltrf_tech::{PowerBreakdown, PowerParams, RegFileConfig, RegFilePowerModel};

use crate::organizations::{build_organization_fleet, LtrfParams, Organization};
use crate::CoreError;

/// Everything needed to run one kernel under one register-file design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The register-file organization under test.
    pub organization: Organization,
    /// The Table 2 main-register-file design point (capacity and latency).
    pub mrf_config: RegFileConfig,
    /// Override of the main-register-file latency factor; `None` uses the
    /// design point's calibrated factor. Latency-sweep experiments
    /// (Figures 11–14) set this explicitly.
    pub latency_factor_override: Option<f64>,
    /// Registers per register-interval (the cache partition size, default 16).
    pub registers_per_interval: usize,
    /// Number of warps holding cache partitions concurrently (default 8).
    pub active_warps: usize,
    /// RFC capacity in registers per warp (default 16, i.e. a 16 KB cache
    /// shared by 8 warps).
    pub rfc_entries_per_warp: usize,
    /// Number of SMs to simulate (default 1, the historical single-SM
    /// configuration). With more than one SM the kernel's grid is weak-scaled
    /// by the SM count and the SMs contend for a shared L2 and DRAM.
    pub sm_count: usize,
    /// The power-model calibration the run is evaluated under (the `sweep
    /// power` knobs). Part of this configuration's serialized form, and
    /// therefore of every content-addressed cache key — results computed
    /// under different calibrations never alias.
    pub power: PowerParams,
    /// The SM↔L2 interconnect model multi-SM runs contend through. The
    /// default (`Ideal` topology) is bit-identical to the historical direct
    /// slice access and is *elided* from cache-key material so pre-existing
    /// keys stay stable; any non-default field makes every key miss.
    pub interconnect: InterconnectConfig,
}

impl ExperimentConfig {
    /// An experiment on the baseline SRAM design point (configuration #1).
    #[must_use]
    pub fn new(organization: Organization) -> Self {
        ExperimentConfig {
            organization,
            mrf_config: RegFileConfig::baseline(),
            latency_factor_override: None,
            registers_per_interval: 16,
            active_warps: 8,
            rfc_entries_per_warp: 16,
            sm_count: 1,
            power: PowerParams::default(),
            interconnect: InterconnectConfig::default(),
        }
    }

    /// An experiment on Table 2 configuration `id` (1–7).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in `1..=7`.
    #[must_use]
    pub fn for_table2(organization: Organization, id: u8) -> Self {
        ExperimentConfig {
            mrf_config: RegFileConfig::from_table(id),
            ..ExperimentConfig::new(organization)
        }
    }

    /// Overrides the main-register-file latency factor.
    #[must_use]
    pub fn with_latency_factor(mut self, factor: f64) -> Self {
        self.latency_factor_override = Some(factor);
        self
    }

    /// Sets the register-interval size (Figure 12 sweep).
    #[must_use]
    pub fn with_registers_per_interval(mut self, n: usize) -> Self {
        self.registers_per_interval = n;
        self
    }

    /// Sets the active-warp count (Figure 13 sweep).
    #[must_use]
    pub fn with_active_warps(mut self, warps: usize) -> Self {
        self.active_warps = warps;
        self
    }

    /// Sets the number of SMs (the multi-SM / GPU-scale sweep axis).
    #[must_use]
    pub fn with_sm_count(mut self, sm_count: usize) -> Self {
        self.sm_count = sm_count.max(1);
        self
    }

    /// Sets the power-model calibration (the `sweep power` knobs).
    #[must_use]
    pub fn with_power_params(mut self, params: PowerParams) -> Self {
        self.power = params;
        self
    }

    /// Sets the SM↔L2 interconnect model (the `sweep interconnect` knobs).
    #[must_use]
    pub fn with_interconnect(mut self, interconnect: InterconnectConfig) -> Self {
        self.interconnect = interconnect;
        self
    }

    /// The effective main-register-file latency factor of this experiment.
    #[must_use]
    pub fn latency_factor(&self) -> f64 {
        match self.organization {
            // The ideal design has the baseline latency regardless of size.
            Organization::Ideal => 1.0,
            _ => self
                .latency_factor_override
                .unwrap_or(self.mrf_config.latency_factor),
        }
    }

    /// The canonical serialized form of this configuration, used by
    /// `ltrf-sweep` to derive content-addressed cache keys. Field order is
    /// declaration order and floats use shortest round-trip formatting, so
    /// equal configurations always produce identical material.
    ///
    /// The `interconnect` field is *removed* when it equals the default
    /// (`Ideal` topology): default-configured experiments keep producing the
    /// exact key material they produced before the interconnect existed, so
    /// historical caches stay warm — while any non-default field changes the
    /// material and forces a recompute.
    #[must_use]
    pub fn cache_key_value(&self) -> serde::Value {
        let value = Serialize::to_value(self);
        if self.interconnect != InterconnectConfig::default() {
            return value;
        }
        match value {
            serde::Value::Object(fields) => serde::Value::Object(
                fields
                    .into_iter()
                    .filter(|(name, _)| name != "interconnect")
                    .collect(),
            ),
            other => other,
        }
    }

    /// [`Self::cache_key_value`] rendered as canonical JSON text.
    #[must_use]
    pub fn cache_key_material(&self) -> String {
        self.cache_key_value().to_json()
    }

    /// Builds the per-SM simulator configuration for this experiment.
    #[must_use]
    pub fn sm_config(&self) -> SmConfig {
        let mut sm = SmConfig::default()
            .with_regfile_capacity_factor(self.mrf_config.capacity_factor)
            .with_mrf_latency_factor(self.latency_factor())
            .with_active_warps(self.active_warps);
        // The Table 2 design points change the bank count as well as the
        // latency (the 8x designs use 8x as many banks behind a flattened
        // butterfly), which is what keeps their aggregate bandwidth usable.
        sm.regfile.mrf_banks = ((16.0 * self.mrf_config.bank_count_factor).round() as usize).max(1);
        // The baseline comparison point of the paper adds the 16 KB of cache
        // capacity to the main register file instead.
        if matches!(
            self.organization,
            Organization::Baseline | Organization::Ideal
        ) {
            sm.regfile_bytes += sm.regfile_cache_bytes;
        }
        sm
    }

    /// Builds the whole-GPU simulator configuration for this experiment:
    /// `sm_count` copies of [`Self::sm_config`] over the default shared-L2
    /// contention model.
    #[must_use]
    pub fn gpu_config(&self) -> GpuConfig {
        GpuConfig {
            sm_count: self.sm_count.max(1),
            sm: self.sm_config(),
            interconnect: self.interconnect,
            ..GpuConfig::default()
        }
    }
}

/// The outcome of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The organization that was simulated.
    pub organization: Organization,
    /// Simulation statistics. For a multi-SM experiment these are the
    /// whole-GPU aggregate ([`GpuStats::aggregate`]): instruction and
    /// register-file counters summed across SMs, `memory.llc`/`memory.dram`
    /// carrying the shared structures' totals.
    pub stats: SimStats,
    /// Full per-SM and shared-memory statistics, present when the
    /// experiment simulated more than one SM.
    pub gpu: Option<GpuStats>,
    /// Instructions per cycle (whole-GPU IPC for multi-SM runs).
    pub ipc: f64,
    /// Register-file energy/power breakdown for the run. For multi-SM runs
    /// this is the *per-SM average* (the power model describes one register
    /// file, leakage included), which keeps it directly comparable to
    /// single-SM results; multiply by `sm_count` for chip totals.
    pub power: PowerBreakdown,
    /// Register-cache hit rate, if the organization has a cache.
    pub cache_hit_rate: Option<f64>,
}

/// The LTRF compiler/runtime parameters of an experiment configuration.
fn ltrf_params(config: &ExperimentConfig) -> LtrfParams {
    LtrfParams {
        registers_per_interval: config.registers_per_interval,
        active_warps: config.active_warps,
        liveness_aware: config.organization == Organization::LtrfPlus,
    }
}

/// Runs one kernel under one experiment configuration.
///
/// Every SM count takes the same path: one compilation and one model per SM
/// ([`build_organization_fleet`]), the whole-GPU simulation
/// ([`ltrf_sim::simulate_gpu_with`], which runs a lone SM with a private
/// hierarchy), and the whole-GPU aggregate ([`GpuStats::aggregate`]), which
/// at one SM is that SM's statistics. The per-SM [`GpuStats`] are kept in
/// [`RunResult::gpu`] only when more than one SM ran.
///
/// # Errors
///
/// Propagates compiler failures for software-managed organizations.
pub fn run_experiment(
    kernel: &Kernel,
    memory: MemoryBehavior,
    seed: u64,
    config: &ExperimentConfig,
) -> Result<RunResult, CoreError> {
    run_experiment_with_engine(kernel, memory, seed, config, EngineKind::default())
}

/// [`run_experiment`] with an explicitly chosen simulator engine.
///
/// The engine kind is deliberately *not* part of [`ExperimentConfig`] (whose
/// serialized form is content-addressed cache-key material): both engines
/// produce bit-identical results, so a cached point is valid under either.
/// The differential test suite passes [`EngineKind::Reference`] here to pin
/// the fast path against the oracle.
///
/// # Errors
///
/// Propagates compiler failures for software-managed organizations.
pub fn run_experiment_with_engine(
    kernel: &Kernel,
    memory: MemoryBehavior,
    seed: u64,
    config: &ExperimentConfig,
    engine: EngineKind,
) -> Result<RunResult, CoreError> {
    let sm_count = config.sm_count.max(1);
    // Weak scaling: the grid *and* the memory footprint grow with the
    // SM count, so every SM receives the same per-SM work — including
    // the same per-warp streaming region size, and therefore the same
    // intrinsic locality — as the single-SM campaigns. What changes
    // with SM count is only the cross-SM contention for the shared
    // L2/DRAM, which is the quantity under study. (At one SM both
    // scalings are the identity.)
    let scaled = kernel.with_grid_scaled(u32::try_from(sm_count).unwrap_or(u32::MAX));
    let scaled_memory = MemoryBehavior {
        footprint_bytes: memory.footprint_bytes.saturating_mul(sm_count as u64),
        ..memory
    };
    // One compilation, one model instance per SM.
    let (compiled_kernel, mut models) = build_organization_fleet(
        config.organization,
        &scaled,
        config.sm_config().regfile,
        ltrf_params(config),
        config.rfc_entries_per_warp,
        sm_count,
    )?;
    let workload = SimWorkload::new(compiled_kernel)
        .with_memory(scaled_memory)
        .with_seed(seed);
    let gpu_stats = simulate_gpu_with(&workload, &config.gpu_config(), &mut models, engine);
    let stats = gpu_stats.aggregate();
    Ok(finish_run(
        stats,
        (sm_count > 1).then_some(gpu_stats),
        config,
    ))
}

/// Folds simulation statistics into a [`RunResult`]: IPC, the register-file
/// power evaluation, and the cache-hit provenance.
fn finish_run(
    stats: SimStats,
    gpu_stats: Option<GpuStats>,
    config: &ExperimentConfig,
) -> RunResult {
    let sm = config.sm_config();
    let sm_count = config.sm_count.max(1);
    let rfc_kib = if matches!(
        config.organization,
        Organization::Baseline | Organization::Ideal
    ) {
        0.0
    } else {
        sm.regfile_cache_bytes as f64 / 1024.0
    };
    let power_model = RegFilePowerModel::for_config_with(
        &config.mrf_config,
        rfc_kib,
        sm.core_clock_mhz,
        &config.power,
    );
    // The power model describes ONE register file (its leakage term is per
    // instance), so feed it per-SM mean access counts: for sm_count = 1
    // this is the raw counts; for multi-SM runs it yields the per-SM
    // average power, keeping the dynamic and leakage components on the
    // same one-RF basis (summing counts would scale dynamic energy by N
    // but leakage by 1).
    let per_sm_counts = ltrf_tech::AccessCounts {
        mrf_reads: stats.regfile_accesses.mrf_reads / sm_count as u64,
        mrf_writes: stats.regfile_accesses.mrf_writes / sm_count as u64,
        rfc_reads: stats.regfile_accesses.rfc_reads / sm_count as u64,
        rfc_writes: stats.regfile_accesses.rfc_writes / sm_count as u64,
        wcb_accesses: stats.regfile_accesses.wcb_accesses / sm_count as u64,
        cycles: stats.regfile_accesses.cycles,
    };
    let power = power_model.evaluate(&per_sm_counts);
    RunResult {
        organization: config.organization,
        ipc: stats.ipc(),
        cache_hit_rate: stats.register_cache_hit_rate,
        stats,
        gpu: gpu_stats,
        power,
    }
}

/// A pair of runs: an organization and the baseline it is normalized to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalizedResult {
    /// The organization's run.
    pub result: RunResult,
    /// IPC relative to the baseline reference.
    pub normalized_ipc: f64,
    /// Register-file power relative to the baseline reference.
    pub normalized_power: f64,
}

/// The configuration a point is normalized against — the one definition of
/// the paper's reference: the conventional register file (BL) on
/// configuration #1, with the 16 KB cache capacity folded into the main
/// register file, on the point's machine. The reference keeps the point's
/// SM count, interconnect and power calibration, so the numerator and the
/// denominator contend for the same shared memory through the same network,
/// and a `sweep power` recalibration moves both together.
#[must_use]
pub fn reference_config(config: &ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig::new(Organization::Baseline)
        .with_sm_count(config.sm_count.max(1))
        .with_power_params(config.power)
        .with_interconnect(config.interconnect)
}

/// Normalizes `result` against `reference` (a run of
/// [`reference_config`]): IPC and register-file power as ratios, zero when
/// the reference's value is not positive.
#[must_use]
pub fn normalize(result: RunResult, reference: &RunResult) -> NormalizedResult {
    let normalized_ipc = if reference.ipc > 0.0 {
        result.ipc / reference.ipc
    } else {
        0.0
    };
    let normalized_power = if reference.power.average_power_mw > 0.0 {
        result.power.average_power_mw / reference.power.average_power_mw
    } else {
        0.0
    };
    NormalizedResult {
        result,
        normalized_ipc,
        normalized_power,
    }
}

/// Runs `config` and normalizes it against [`reference_config`] on the same
/// kernel, memory behaviour, and seed.
///
/// # Errors
///
/// Propagates compiler failures for software-managed organizations.
pub fn run_normalized(
    kernel: &Kernel,
    memory: MemoryBehavior,
    seed: u64,
    config: &ExperimentConfig,
) -> Result<NormalizedResult, CoreError> {
    let reference = run_experiment(kernel, memory, seed, &reference_config(config))?;
    let result = run_experiment(kernel, memory, seed, config)?;
    Ok(normalize(result, &reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltrf_isa::{ArchReg, KernelBuilder, LaunchConfig, Opcode};

    /// A small register-heavy kernel with a loop and a load, sized so the
    /// unit tests stay fast.
    fn test_kernel() -> Kernel {
        let mut b = KernelBuilder::new("runner-test", 32);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        for i in 0..12 {
            b.push(entry, Opcode::Mov, Some(ArchReg::new(i)), &[]);
        }
        b.jump(entry, body);
        b.push(
            body,
            Opcode::LoadGlobal,
            Some(ArchReg::new(16)),
            &[ArchReg::new(0)],
        );
        for i in 0..6 {
            b.push(
                body,
                Opcode::FFma,
                Some(ArchReg::new(17 + i)),
                &[ArchReg::new(16), ArchReg::new(i)],
            );
        }
        b.loop_branch(body, body, exit, 6);
        b.push(
            exit,
            Opcode::StoreGlobal,
            None,
            &[ArchReg::new(0), ArchReg::new(17)],
        );
        b.exit(exit);
        b.launch(LaunchConfig::new(8, 2, 0));
        b.build().unwrap()
    }

    #[test]
    fn experiment_config_builders() {
        let cfg = ExperimentConfig::for_table2(Organization::Ltrf, 7)
            .with_latency_factor(4.0)
            .with_registers_per_interval(32)
            .with_active_warps(16);
        assert_eq!(cfg.mrf_config.id.0, 7);
        assert!((cfg.latency_factor() - 4.0).abs() < 1e-9);
        assert_eq!(cfg.registers_per_interval, 32);
        assert_eq!(cfg.active_warps, 16);
        // Ideal ignores latency factors.
        let ideal = ExperimentConfig::for_table2(Organization::Ideal, 7);
        assert!((ideal.latency_factor() - 1.0).abs() < 1e-9);
        // The baseline folds the cache capacity into the main register file.
        let bl = ExperimentConfig::new(Organization::Baseline).sm_config();
        assert_eq!(bl.regfile_bytes, (256 + 16) * 1024);
        let ltrf = ExperimentConfig::new(Organization::Ltrf).sm_config();
        assert_eq!(ltrf.regfile_bytes, 256 * 1024);
        // The GPU-level configuration carries the SM count.
        let gpu = ExperimentConfig::new(Organization::Ltrf)
            .with_sm_count(4)
            .gpu_config();
        assert_eq!(gpu.sm_count, 4);
        assert_eq!(gpu.sm.regfile_bytes, 256 * 1024);
        assert_eq!(ExperimentConfig::new(Organization::Ltrf).sm_count, 1);
    }

    #[test]
    fn sm_count_changes_the_cache_key() {
        let one = ExperimentConfig::new(Organization::Ltrf);
        let four = one.with_sm_count(4);
        assert_ne!(one.cache_key_material(), four.cache_key_material());
        assert!(four.cache_key_material().contains("\"sm_count\":4"));
    }

    #[test]
    fn default_interconnect_is_elided_from_the_cache_key() {
        // Pre-interconnect caches must stay warm: the all-default network
        // configuration contributes nothing to key material...
        let default_cfg = ExperimentConfig::new(Organization::Ltrf);
        assert!(
            !default_cfg.cache_key_material().contains("interconnect"),
            "default interconnect must not appear in key material"
        );
        // ...while changing any single field makes the key miss.
        use ltrf_sim::{InterleaveMode, Topology};
        let base = InterconnectConfig::default();
        let variants = [
            InterconnectConfig {
                topology: Topology::Crossbar,
                ..base
            },
            InterconnectConfig {
                link_width: 16,
                ..base
            },
            InterconnectConfig {
                queue_depth: 4,
                ..base
            },
            InterconnectConfig {
                interleave: InterleaveMode::XorFold,
                ..base
            },
        ];
        for variant in variants {
            let changed = default_cfg.with_interconnect(variant);
            let material = changed.cache_key_material();
            assert!(material.contains("interconnect"), "{variant:?}");
            assert_ne!(material, default_cfg.cache_key_material(), "{variant:?}");
        }
        // Distinct non-default configurations also never alias each other.
        let a = default_cfg
            .with_interconnect(variants[0])
            .cache_key_material();
        let b = default_cfg
            .with_interconnect(variants[1])
            .cache_key_material();
        assert_ne!(a, b);
    }

    #[test]
    fn power_params_change_the_cache_key_and_scale_reported_power() {
        let default_cfg = ExperimentConfig::for_table2(Organization::Ltrf, 7);
        let recalibrated = default_cfg.with_power_params(ltrf_tech::PowerParams {
            base_access_pj: 100.0,
            ..ltrf_tech::PowerParams::default()
        });
        assert_ne!(
            default_cfg.cache_key_material(),
            recalibrated.cache_key_material(),
            "the calibration is key material"
        );
        assert!(default_cfg
            .cache_key_material()
            .contains("\"base_access_pj\":50.0"));

        let kernel = test_kernel();
        let memory = MemoryBehavior::cache_resident();
        let base = run_experiment(&kernel, memory, 3, &default_cfg).unwrap();
        let hot = run_experiment(&kernel, memory, 3, &recalibrated).unwrap();
        // Same timing, more dynamic energy.
        assert_eq!(base.ipc, hot.ipc);
        assert!(hot.power.mrf_dynamic_pj > base.power.mrf_dynamic_pj);
        // Normalization recalibrates the baseline reference too, so the
        // leakage-free part of the ratio is calibration-invariant; assert the
        // ratios stay close rather than drifting with the knob.
        let norm_base = run_normalized(&kernel, memory, 3, &default_cfg).unwrap();
        let norm_hot = run_normalized(&kernel, memory, 3, &recalibrated).unwrap();
        assert_eq!(norm_base.normalized_ipc, norm_hot.normalized_ipc);
        assert!((norm_base.normalized_power - norm_hot.normalized_power).abs() < 0.2);
    }

    #[test]
    fn multi_sm_experiments_run_every_organization() {
        let kernel = test_kernel();
        for &org in Organization::all() {
            let result = run_experiment(
                &kernel,
                MemoryBehavior::cache_resident(),
                1,
                &ExperimentConfig::for_table2(org, 6).with_sm_count(2),
            )
            .unwrap();
            assert!(!result.stats.truncated, "{org} multi-SM run was truncated");
            assert!(result.ipc > 0.0, "{org} produced zero GPU IPC");
            let gpu = result.gpu.as_ref().expect("multi-SM runs carry GpuStats");
            assert_eq!(gpu.sm_count, 2);
            assert_eq!(gpu.per_sm.len(), 2);
            assert!(gpu.ctas_per_sm.iter().all(|&c| c > 0));
        }
    }

    #[test]
    fn single_sm_experiment_has_no_gpu_stats_and_matches_legacy_path() {
        let kernel = test_kernel();
        let config = ExperimentConfig::for_table2(Organization::Ltrf, 6);
        let result = run_experiment(&kernel, MemoryBehavior::cache_resident(), 2, &config).unwrap();
        assert!(result.gpu.is_none());
        let explicit_one = run_experiment(
            &kernel,
            MemoryBehavior::cache_resident(),
            2,
            &config.with_sm_count(1),
        )
        .unwrap();
        assert_eq!(result, explicit_one);
    }

    #[test]
    fn multi_sm_normalization_uses_a_multi_sm_baseline() {
        let kernel = test_kernel();
        let normalized = run_normalized(
            &kernel,
            MemoryBehavior::cache_resident(),
            5,
            &ExperimentConfig::for_table2(Organization::Ltrf, 6).with_sm_count(2),
        )
        .unwrap();
        assert!(normalized.normalized_ipc > 0.0);
        assert!(normalized.normalized_power > 0.0);
        assert_eq!(normalized.result.gpu.as_ref().unwrap().sm_count, 2);
    }

    #[test]
    fn normalization_divides_by_the_baseline_on_the_same_network() {
        use ltrf_sim::Topology;
        let kernel = test_kernel();
        let memory = MemoryBehavior::streaming();
        let crossbar = InterconnectConfig {
            topology: Topology::Crossbar,
            ..InterconnectConfig::default()
        };
        let config = ExperimentConfig::for_table2(Organization::Ltrf, 6)
            .with_sm_count(4)
            .with_interconnect(crossbar);
        let reference = reference_config(&config);
        assert_eq!(reference.interconnect, crossbar);
        assert_eq!(reference.sm_count, 4);
        let baseline = run_experiment(&kernel, memory, 5, &reference).unwrap();
        let ideal_baseline = run_experiment(
            &kernel,
            memory,
            5,
            &ExperimentConfig::new(Organization::Baseline).with_sm_count(4),
        )
        .unwrap();
        assert_ne!(
            baseline.ipc, ideal_baseline.ipc,
            "the crossbar must change the baseline for this test to mean anything"
        );
        let normalized = run_normalized(&kernel, memory, 5, &config).unwrap();
        assert_eq!(
            normalized.normalized_ipc,
            normalized.result.ipc / baseline.ipc
        );
        assert_eq!(
            normalized.normalized_power,
            normalized.result.power.average_power_mw / baseline.power.average_power_mw
        );
    }

    #[test]
    fn every_organization_completes_the_test_kernel() {
        let kernel = test_kernel();
        for &org in Organization::all() {
            let result = run_experiment(
                &kernel,
                MemoryBehavior::cache_resident(),
                1,
                &ExperimentConfig::for_table2(org, 6),
            )
            .unwrap();
            assert!(!result.stats.truncated, "{org} run was truncated");
            assert!(result.ipc > 0.0, "{org} produced zero IPC");
            assert!(result.power.average_power_mw >= 0.0);
        }
    }

    #[test]
    fn ltrf_beats_baseline_on_a_slow_register_file() {
        let kernel = test_kernel();
        let memory = MemoryBehavior::cache_resident();
        let bl = run_experiment(
            &kernel,
            memory,
            3,
            &ExperimentConfig::for_table2(Organization::Baseline, 7),
        )
        .unwrap();
        let ltrf = run_experiment(
            &kernel,
            memory,
            3,
            &ExperimentConfig::for_table2(Organization::Ltrf, 7),
        )
        .unwrap();
        assert!(
            ltrf.ipc > bl.ipc,
            "LTRF ({}) should beat BL ({}) at 6.3x register-file latency",
            ltrf.ipc,
            bl.ipc
        );
    }

    #[test]
    fn normalization_against_the_baseline_reference() {
        let kernel = test_kernel();
        let normalized = run_normalized(
            &kernel,
            MemoryBehavior::cache_resident(),
            5,
            &ExperimentConfig::for_table2(Organization::Ltrf, 6),
        )
        .unwrap();
        assert!(normalized.normalized_ipc > 0.0);
        assert!(normalized.normalized_power > 0.0);
    }

    #[test]
    fn ltrf_cache_hit_rate_is_near_perfect() {
        let kernel = test_kernel();
        let result = run_experiment(
            &kernel,
            MemoryBehavior::cache_resident(),
            9,
            &ExperimentConfig::for_table2(Organization::Ltrf, 6),
        )
        .unwrap();
        let hit_rate = result.cache_hit_rate.expect("LTRF has a register cache");
        assert!(
            hit_rate > 0.95,
            "LTRF hit rate should be near 1.0, got {hit_rate}"
        );
        // The RFC hit rate on the same kernel is clearly lower.
        let rfc = run_experiment(
            &kernel,
            MemoryBehavior::cache_resident(),
            9,
            &ExperimentConfig::for_table2(Organization::Rfc, 6),
        )
        .unwrap();
        let rfc_rate = rfc.cache_hit_rate.expect("RFC has a register cache");
        assert!(rfc_rate < hit_rate);
    }
}
