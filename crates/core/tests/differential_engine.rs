//! Differential test layer for the allocation-free, skip-ahead engine.
//!
//! The fast engine ([`ltrf_sim::EngineKind::Fast`], the default) claims
//! bit-identical results to the straightforward reference tick loop
//! ([`ltrf_sim::EngineKind::Reference`]). This suite is the contract behind
//! that claim, extending the PR 3 GPU-vs-single-SM differential pattern:
//! every run is asserted equal under **exact `f64` equality** on every
//! `RunResult`/`GpuStats` field (not tolerance comparison — the engines must
//! perform the same floating-point operations in the same order), swept
//! across
//!
//! * all six register-file organizations,
//! * SM counts {1, 4, 16} (single-SM path, and the lock-step GPU over a
//!   shared L2/DRAM at two scales),
//! * a 32-member generated workload population,
//! * the three checked-in `examples/traces/` workloads, and
//! * 16-SM crossbar and mesh runs whose MSHRs saturate, including one the
//!   cycle cap stops, where the lock-step driver lets an SM that is waiting
//!   on its MSHRs sleep to its exact wake cycle, and
//! * scheduler corners: one or two operand collectors, issue width 1 or 4,
//!   and an active pool of 1 or 32 warps, at 1 and 4 SMs.

use ltrf_core::{
    build_organization, build_organization_fleet, run_experiment_with_engine, EngineKind,
    ExperimentConfig, LtrfParams, Organization, RunResult, Topology,
};
use ltrf_sim::{
    simulate_gpu_with, simulate_with, GpuStats, InterconnectConfig, SimStats, SimWorkload, SmConfig,
};
use ltrf_trace::TraceWorkloadId;
use ltrf_workloads::{GeneratorConfig, Workload, WorkloadGenerator, WorkloadSpec};

/// Population size: cycles every organization several times over diverse
/// register pressures, loop nests, and memory profiles.
const POPULATION: usize = 32;

/// The SM-count axis: the single-SM fast path plus two lock-step GPU scales.
const SM_COUNTS: [usize; 3] = [1, 4, 16];

/// Bounds trimmed for test wall-clock time while keeping the space diverse
/// (same bounds as the PR 3 differential suite).
fn test_bounds() -> GeneratorConfig {
    GeneratorConfig {
        min_regs: 12,
        max_regs: 96,
        max_outer_trips: 4,
        max_inner_trips: 10,
        max_body_alu: 10,
        max_body_loads: 4,
    }
}

/// Runs one workload under both engines and asserts exact equality of the
/// complete `RunResult` — including the full `GpuStats` provenance when the
/// experiment is multi-SM, so per-SM statistics and the shared L2/DRAM
/// counters are pinned too, not just the aggregate.
fn assert_engines_agree(workload: &Workload, config: &ExperimentConfig, seed: u64, label: &str) {
    let memory = workload.memory();
    let fast = run_experiment_with_engine(&workload.kernel, memory, seed, config, EngineKind::Fast)
        .unwrap_or_else(|e| panic!("{label}: fast engine failed: {e}"));
    let reference = run_experiment_with_engine(
        &workload.kernel,
        memory,
        seed,
        config,
        EngineKind::Reference,
    )
    .unwrap_or_else(|e| panic!("{label}: reference engine failed: {e}"));
    assert!(
        !fast.stats.truncated,
        "{label}: differential coverage requires completed runs"
    );
    assert_eq!(
        fast, reference,
        "{label}: fast engine diverged from the reference oracle"
    );
}

/// The generated-population sweep: organization and SM count both cycle with
/// the member index, so the first 18 members alone cover the full 6×3
/// organization × SM-count grid and the remaining members re-cover it on
/// different kernels.
#[test]
fn fast_engine_is_bit_identical_across_generated_population() {
    let population = WorkloadGenerator::population_with_config(0xD1FF, POPULATION, test_bounds());
    let organizations = Organization::all();
    for (i, workload) in population.iter().enumerate() {
        let org = organizations[i % organizations.len()];
        let sm_count = SM_COUNTS[(i / organizations.len()) % SM_COUNTS.len()];
        let config = ExperimentConfig::for_table2(org, 6).with_sm_count(sm_count);
        let seed = 1000 + i as u64;
        let label = format!("member {i} ({}, {org}, {sm_count} SMs)", workload.name());
        assert_engines_agree(workload, &config, seed, &label);
    }
}

/// The traced-workload sweep: each of the three checked-in example traces
/// runs under every organization, with the SM count cycling so every trace
/// sees every scale.
#[test]
fn fast_engine_is_bit_identical_across_example_traces() {
    let traces = [
        "divergent_loop.trace",
        "high_register_pressure.trace",
        "straight_line.trace",
    ];
    let organizations = Organization::all();
    for (t, name) in traces.iter().enumerate() {
        let path = format!(
            "{}/../../examples/traces/{name}",
            env!("CARGO_MANIFEST_DIR")
        );
        let workload = TraceWorkloadId::from_path(&path)
            .unwrap_or_else(|e| panic!("{name}: cannot read example trace: {e}"))
            .materialize()
            .unwrap_or_else(|e| panic!("{name}: cannot lower example trace: {e}"));
        for (o, &org) in organizations.iter().enumerate() {
            let sm_count = SM_COUNTS[(t + o) % SM_COUNTS.len()];
            let config = ExperimentConfig::for_table2(org, 6).with_sm_count(sm_count);
            let seed = 2000 + (t * organizations.len() + o) as u64;
            let label = format!("trace {name} ({org}, {sm_count} SMs)");
            assert_engines_agree(&workload, &config, seed, &label);
        }
    }
}

/// The default engine is the fast one, and the default-path results equal an
/// explicit `EngineKind::Fast` run — so every cached campaign artifact keeps
/// its meaning (and its content-addressed cache key) across the engine swap.
#[test]
fn default_engine_is_fast_and_reuses_existing_semantics() {
    assert_eq!(EngineKind::default(), EngineKind::Fast);
    let population = WorkloadGenerator::population_with_config(0xD1FF, 2, test_bounds());
    let workload = &population[0];
    let config = ExperimentConfig::for_table2(Organization::Ltrf, 6);
    let via_default =
        ltrf_core::run_experiment(&workload.kernel, workload.memory(), 5, &config).unwrap();
    let via_fast = run_experiment_with_engine(
        &workload.kernel,
        workload.memory(),
        5,
        &config,
        EngineKind::Fast,
    )
    .unwrap();
    assert_eq!(via_default, via_fast);
    // The engine choice is not cache-key material: the serialized config
    // carries no engine field.
    assert!(!config.cache_key_material().contains("engine"));
    let _: RunResult = via_default;
}

/// MSHRs per SM in the saturating runs: few enough that warps regularly
/// find every MSHR busy, which is when the fast engine's wake rule differs
/// most from the reference engine's conservative horizon.
const SCARCE_MSHRS: usize = 4;

/// Runs `workload` under `org` on a 16-SM GPU over `topology`, with
/// `mshrs` MSHRs per SM and the safety cap at `max_cycles`, on one engine.
fn gpu_run(
    workload: &Workload,
    org: Organization,
    topology: Topology,
    mshrs: usize,
    max_cycles: u64,
    kind: EngineKind,
) -> GpuStats {
    let sm_count = 16;
    let config = ExperimentConfig::for_table2(org, 6)
        .with_sm_count(sm_count)
        .with_interconnect(InterconnectConfig::with_topology(topology));
    let mut gpu = config.gpu_config();
    gpu.sm.memory.max_outstanding_requests = mshrs;
    gpu.sm.max_cycles = max_cycles;
    let scaled = workload.kernel_for_sm_count(sm_count);
    let params = LtrfParams {
        registers_per_interval: config.registers_per_interval,
        active_warps: config.active_warps,
        liveness_aware: org == Organization::LtrfPlus,
    };
    let (kernel, mut models) = build_organization_fleet(
        org,
        &scaled,
        gpu.sm.regfile,
        params,
        config.rfc_entries_per_warp,
        sm_count,
    )
    .expect("the saturating members compile");
    let mut memory = workload.memory();
    memory.footprint_bytes *= sm_count as u64;
    let sim = SimWorkload::new(kernel)
        .with_memory(memory)
        .with_seed(3_000);
    simulate_gpu_with(&sim, &gpu, &mut models, kind)
}

/// Asserts the two engines' `GpuStats` equal under exact `f64` equality,
/// naming the per-SM counters the lock-step driver accounts itself (idle
/// cycles, which sleeping SMs are charged in bulk) before the whole struct.
fn assert_gpu_stats_agree(fast: &GpuStats, reference: &GpuStats, label: &str) {
    assert_eq!(fast.per_sm.len(), reference.per_sm.len(), "{label}");
    for (sm, (f, r)) in fast.per_sm.iter().zip(&reference.per_sm).enumerate() {
        assert_eq!(f.idle_cycles, r.idle_cycles, "{label}: SM {sm} idle cycles");
        assert_eq!(
            f.warp_activations, r.warp_activations,
            "{label}: SM {sm} warp activations"
        );
        assert_eq!(
            f.memory.mshr_stalls, r.memory.mshr_stalls,
            "{label}: SM {sm} MSHR stalls"
        );
    }
    assert_eq!(
        fast, reference,
        "{label}: fast engine diverged from the reference oracle"
    );
}

/// 16 SMs over a crossbar and over a mesh with four MSHRs per SM: the
/// engines agree on every `GpuStats` field, and the MSHR limit really binds
/// (the same run with the default MSHR count finishes sooner).
#[test]
fn gpu_engines_agree_when_mshrs_saturate_at_16_sms() {
    let population = WorkloadGenerator::population_with_config(0x5A7, 2, test_bounds());
    let organizations = [Organization::Ltrf, Organization::Rfc];
    for topology in [Topology::Crossbar, Topology::Mesh2D] {
        for (i, workload) in population.iter().enumerate() {
            let org = organizations[i];
            let label = format!("member {i} ({org}, {topology:?}, {SCARCE_MSHRS} MSHRs)");
            let cap = 50_000_000;
            let fast = gpu_run(workload, org, topology, SCARCE_MSHRS, cap, EngineKind::Fast);
            let reference = gpu_run(
                workload,
                org,
                topology,
                SCARCE_MSHRS,
                cap,
                EngineKind::Reference,
            );
            assert!(!fast.truncated, "{label}: run must complete");
            assert_gpu_stats_agree(&fast, &reference, &label);
            let roomy = gpu_run(workload, org, topology, 64, cap, EngineKind::Fast);
            assert!(
                fast.cycles > roomy.cycles,
                "{label}: {SCARCE_MSHRS} MSHRs must throttle the run ({} vs {} cycles)",
                fast.cycles,
                roomy.cycles
            );
        }
    }
}

/// A saturating 16-SM run stopped by the cycle cap: both engines report it
/// truncated with identical statistics, which pins the idle cycles charged
/// to SMs still asleep when the run ends.
#[test]
fn gpu_engines_agree_when_the_cycle_cap_stops_the_run() {
    let population = WorkloadGenerator::population_with_config(0x5A7, 1, test_bounds());
    let workload = &population[0];
    let (org, topology) = (Organization::Ltrf, Topology::Crossbar);
    let full = gpu_run(
        workload,
        org,
        topology,
        SCARCE_MSHRS,
        50_000_000,
        EngineKind::Fast,
    );
    let cap = full.cycles / 3;
    let fast = gpu_run(workload, org, topology, SCARCE_MSHRS, cap, EngineKind::Fast);
    let reference = gpu_run(
        workload,
        org,
        topology,
        SCARCE_MSHRS,
        cap,
        EngineKind::Reference,
    );
    assert!(
        fast.truncated && fast.cycles >= cap,
        "the cap must stop the run"
    );
    assert!(fast.instructions < full.instructions);
    assert_gpu_stats_agree(&fast, &reference, "capped crossbar run");
}

/// Scheduler corners of [`SmConfig`] as (operand collectors, issue width,
/// active warps): one or two collectors (the pool runs out), issue width 1
/// or 4 (the walk is wide), and an active pool of 1 or 32 warps.
type Corner = (usize, usize, usize);

const CORNERS: [Corner; 8] = [
    (1, 1, 1),
    (1, 1, 32),
    (1, 4, 1),
    (1, 4, 32),
    (2, 1, 1),
    (2, 1, 32),
    (2, 4, 1),
    (2, 4, 32),
];

fn apply_corner(sm: &mut SmConfig, (collectors, issue_width, active_warps): Corner) {
    sm.operand_collectors = collectors;
    sm.issue_width = issue_width;
    sm.active_warps = active_warps;
}

/// Runs `workload` under `org` at `corner` on one SM
/// (`build_organization` + `simulate_with`), on one engine.
fn corner_run_one_sm(
    workload: &Workload,
    org: Organization,
    corner: Corner,
    seed: u64,
    kind: EngineKind,
) -> SimStats {
    let config = ExperimentConfig::for_table2(org, 6).with_active_warps(corner.2);
    let mut sm = config.sm_config();
    apply_corner(&mut sm, corner);
    let mut built = build_organization(
        org,
        &workload.kernel,
        sm.regfile,
        ltrf_params(&config, org),
        config.rfc_entries_per_warp,
    )
    .expect("the corner workloads compile");
    let run = SimWorkload::new(built.kernel.clone())
        .with_memory(workload.memory())
        .with_seed(seed);
    simulate_with(&run, &sm, built.model.as_mut(), kind)
}

/// Runs `workload` under `org` at `corner` on a 4-SM GPU
/// (`build_organization_fleet` + `simulate_gpu_with`), on one engine.
fn corner_run_gpu(
    workload: &Workload,
    org: Organization,
    corner: Corner,
    seed: u64,
    kind: EngineKind,
) -> GpuStats {
    let sm_count = 4;
    let config = ExperimentConfig::for_table2(org, 6)
        .with_active_warps(corner.2)
        .with_sm_count(sm_count);
    let mut gpu = config.gpu_config();
    apply_corner(&mut gpu.sm, corner);
    let (kernel, mut models) = build_organization_fleet(
        org,
        &workload.kernel_for_sm_count(sm_count),
        gpu.sm.regfile,
        ltrf_params(&config, org),
        config.rfc_entries_per_warp,
        sm_count,
    )
    .expect("the corner workloads compile");
    let mut memory = workload.memory();
    memory.footprint_bytes *= sm_count as u64;
    let sim = SimWorkload::new(kernel).with_memory(memory).with_seed(seed);
    simulate_gpu_with(&sim, &gpu, &mut models, kind)
}

fn ltrf_params(config: &ExperimentConfig, org: Organization) -> LtrfParams {
    LtrfParams {
        registers_per_interval: config.registers_per_interval,
        active_warps: config.active_warps,
        liveness_aware: org == Organization::LtrfPlus,
    }
}

/// Every organization at every scheduler corner, on both engines, at 1 and
/// 4 SMs. The other tests run only the default 16 collectors at issue
/// width 2; at these corners the fast engine's collector pool runs out and
/// its issue walk is wide. The generated members rotate with the corner
/// and the organization; the suite kernel runs at every corner under every
/// organization.
#[test]
fn engines_agree_at_scheduler_corners() {
    let bounds = GeneratorConfig {
        min_regs: 12,
        max_regs: 64,
        max_outer_trips: 2,
        max_inner_trips: 4,
        max_body_alu: 6,
        max_body_loads: 3,
    };
    // Four CTAs of eight warps: 32 warps per SM at both scales (the 4-SM
    // grid is weak-scaled), so the 32-warp pool holds every warp.
    let four_ctas = |workload: Workload| {
        Workload::from_spec(WorkloadSpec {
            blocks_per_grid: 4,
            ..workload.spec
        })
    };
    let members: Vec<Workload> = WorkloadGenerator::population_with_config(0xC0C0, 3, bounds)
        .into_iter()
        .map(four_ctas)
        .collect();
    // The suite kernel keeps btree's loop body and shortens its loops.
    let btree = ltrf_workloads::by_name("btree").expect("btree is in the suite");
    let suite = four_ctas(Workload {
        spec: WorkloadSpec {
            outer_trips: 2,
            inner_trips: 3,
            ..btree.spec
        },
        ..btree
    });
    let organizations = Organization::all();
    for (c, &corner) in CORNERS.iter().enumerate() {
        for (o, &org) in organizations.iter().enumerate() {
            let member = &members[(c + o) % members.len()];
            for (workload, seed) in [(member, 4_000 + c as u64), (&suite, 5_000 + o as u64)] {
                let label = format!("{} ({org}, {corner:?})", workload.name());
                let fast = corner_run_one_sm(workload, org, corner, seed, EngineKind::Fast);
                let reference =
                    corner_run_one_sm(workload, org, corner, seed, EngineKind::Reference);
                assert!(!fast.truncated, "{label}: the run must complete");
                assert_eq!(fast, reference, "{label}, 1 SM: the engines diverged");
                let fast = corner_run_gpu(workload, org, corner, seed, EngineKind::Fast);
                let reference = corner_run_gpu(workload, org, corner, seed, EngineKind::Reference);
                assert!(!fast.truncated, "{label}: the 4-SM run must complete");
                assert_gpu_stats_agree(&fast, &reference, &format!("{label}, 4 SMs"));
            }
        }
    }
}
