//! Differential regression test: the experiment runner at one SM against
//! the layers it composes, called by hand.
//!
//! `run_experiment_with_engine` has one body for every SM count: it builds
//! one register-file model per SM, runs the whole-GPU simulation and reports
//! the whole-GPU aggregate (`GpuStats::aggregate`). At one SM that is only
//! correct if the aggregate of a lone SM is that SM's statistics, field for
//! field. This test pins it the way VADL-style multi-path simulators do: a
//! generated workload population wide enough to hit every organization,
//! loop shape, and memory profile, on both engines, with every member
//! asserted *bit-identical* to `build_organization` + `simulate_with` (exact
//! `f64` equality, not tolerance comparison — the paths must take the same
//! floating-point operations in the same order).

use ltrf_core::{
    build_organization, run_experiment_with_engine, ExperimentConfig, LtrfParams, Organization,
};
use ltrf_sim::{simulate_with, EngineKind, SimWorkload};
use ltrf_workloads::{GeneratorConfig, WorkloadGenerator};

/// Population size: large enough to cycle every organization several times
/// over diverse register pressures, loop nests, and memory profiles.
const POPULATION: usize = 32;

/// Bounds trimmed for test wall-clock time while keeping the space diverse
/// (register pressures from insensitive to sensitive, both loop levels, all
/// memory profiles).
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

#[test]
fn gpu_engine_at_one_sm_is_bit_identical_to_the_single_sm_engine() {
    let population = WorkloadGenerator::population_with_config(0xD1FF, POPULATION, test_bounds());
    let organizations = Organization::all();
    for (i, workload) in population.iter().enumerate() {
        let org = organizations[i % organizations.len()];
        let config = ExperimentConfig::for_table2(org, 6);
        assert_eq!(config.sm_count, 1);
        let seed = 1000 + i as u64;
        let memory = workload.memory();
        let sm = config.sm_config();
        let params = LtrfParams {
            registers_per_interval: config.registers_per_interval,
            active_warps: config.active_warps,
            liveness_aware: org == Organization::LtrfPlus,
        };

        for engine in [EngineKind::Fast, EngineKind::Reference] {
            let result =
                run_experiment_with_engine(&workload.kernel, memory, seed, &config, engine)
                    .expect("the runner runs every generated member");
            let mut built = build_organization(
                org,
                &workload.kernel,
                sm.regfile,
                params,
                config.rfc_entries_per_warp,
            )
            .expect("every generated member compiles");
            let run = SimWorkload::new(built.kernel.clone())
                .with_memory(memory)
                .with_seed(seed);
            let stats = simulate_with(&run, &sm, built.model.as_mut(), engine);

            let context = format!("member {i} ({}, {org}, {engine:?})", workload.name());
            assert!(result.gpu.is_none(), "{context}: one SM keeps no GpuStats");
            assert_eq!(
                result.stats, stats,
                "{context}: the one-SM aggregate drifted from the SM's statistics"
            );
            assert_eq!(result.ipc, stats.ipc(), "{context}");
            assert_eq!(
                result.cache_hit_rate, stats.register_cache_hit_rate,
                "{context}"
            );
        }
    }
}
