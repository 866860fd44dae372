//! The evaluated workload suite.
//!
//! The paper runs 35 kernels from CUDA SDK, Rodinia, and Parboil and selects
//! fourteen for detailed evaluation: nine register-sensitive and five
//! register-insensitive. We mirror that selection with synthetic kernels
//! whose register pressure, loop structure, instruction mix, and memory
//! behaviour follow the published character of each benchmark (register
//! counts from `nvcc -maxrregcount` studies, arithmetic intensity and memory
//! divergence from the Rodinia/Parboil characterisation papers). The suite is
//! a substitution for the real binaries — documented in `DESIGN.md` — chosen
//! to preserve the properties the LTRF evaluation actually depends on.

use ltrf_isa::RegisterSensitivity;

use crate::spec::{BenchmarkSuite, MemoryProfile, Workload, WorkloadSpec};

/// Specifications of the fourteen evaluated workloads.
#[must_use]
pub fn evaluated_specs() -> Vec<WorkloadSpec> {
    use BenchmarkSuite::{CudaSdk, Parboil, Rodinia};
    use MemoryProfile::{CacheResident, Irregular, Streaming};
    use RegisterSensitivity::{Insensitive, Sensitive};
    vec![
        // ------------------------- register-sensitive -------------------------
        WorkloadSpec {
            name: "sgemm",
            suite: Parboil,
            regs_per_thread: 96,
            unconstrained_regs_per_thread: 160,
            sensitivity: Sensitive,
            outer_trips: 8,
            inner_trips: 16,
            body_alu: 20,
            body_loads: 2,
            body_shared: 4,
            body_sfu: 0,
            barrier_per_outer: true,
            memory: Streaming,
            warps_per_block: 8,
            blocks_per_grid: 16,
        },
        WorkloadSpec {
            name: "mri-q",
            suite: Parboil,
            regs_per_thread: 72,
            unconstrained_regs_per_thread: 120,
            sensitivity: Sensitive,
            outer_trips: 6,
            inner_trips: 24,
            body_alu: 14,
            body_loads: 1,
            body_shared: 0,
            body_sfu: 4,
            barrier_per_outer: false,
            memory: CacheResident,
            warps_per_block: 8,
            blocks_per_grid: 16,
        },
        WorkloadSpec {
            name: "stencil",
            suite: Parboil,
            regs_per_thread: 64,
            unconstrained_regs_per_thread: 96,
            sensitivity: Sensitive,
            outer_trips: 10,
            inner_trips: 12,
            body_alu: 12,
            body_loads: 6,
            body_shared: 0,
            body_sfu: 0,
            barrier_per_outer: false,
            memory: Streaming,
            warps_per_block: 8,
            blocks_per_grid: 16,
        },
        WorkloadSpec {
            name: "backprop",
            suite: Rodinia,
            regs_per_thread: 56,
            unconstrained_regs_per_thread: 88,
            sensitivity: Sensitive,
            outer_trips: 8,
            inner_trips: 12,
            body_alu: 12,
            body_loads: 3,
            body_shared: 3,
            body_sfu: 1,
            barrier_per_outer: true,
            memory: Streaming,
            warps_per_block: 8,
            blocks_per_grid: 12,
        },
        WorkloadSpec {
            name: "hotspot",
            suite: Rodinia,
            regs_per_thread: 60,
            unconstrained_regs_per_thread: 92,
            sensitivity: Sensitive,
            outer_trips: 8,
            inner_trips: 10,
            body_alu: 16,
            body_loads: 4,
            body_shared: 2,
            body_sfu: 0,
            barrier_per_outer: true,
            memory: CacheResident,
            warps_per_block: 8,
            blocks_per_grid: 12,
        },
        WorkloadSpec {
            name: "lud",
            suite: Rodinia,
            regs_per_thread: 64,
            unconstrained_regs_per_thread: 104,
            sensitivity: Sensitive,
            outer_trips: 10,
            inner_trips: 10,
            body_alu: 14,
            body_loads: 2,
            body_shared: 4,
            body_sfu: 0,
            barrier_per_outer: true,
            memory: CacheResident,
            warps_per_block: 8,
            blocks_per_grid: 12,
        },
        WorkloadSpec {
            name: "srad",
            suite: Rodinia,
            regs_per_thread: 52,
            unconstrained_regs_per_thread: 80,
            sensitivity: Sensitive,
            outer_trips: 8,
            inner_trips: 12,
            body_alu: 12,
            body_loads: 5,
            body_shared: 0,
            body_sfu: 2,
            barrier_per_outer: false,
            memory: Streaming,
            warps_per_block: 8,
            blocks_per_grid: 12,
        },
        WorkloadSpec {
            name: "nw",
            suite: Rodinia,
            regs_per_thread: 48,
            unconstrained_regs_per_thread: 72,
            sensitivity: Sensitive,
            outer_trips: 12,
            inner_trips: 8,
            body_alu: 10,
            body_loads: 3,
            body_shared: 4,
            body_sfu: 0,
            barrier_per_outer: true,
            memory: CacheResident,
            warps_per_block: 8,
            blocks_per_grid: 12,
        },
        WorkloadSpec {
            name: "pathfinder",
            suite: Rodinia,
            regs_per_thread: 44,
            unconstrained_regs_per_thread: 68,
            sensitivity: Sensitive,
            outer_trips: 10,
            inner_trips: 10,
            body_alu: 10,
            body_loads: 3,
            body_shared: 3,
            body_sfu: 0,
            barrier_per_outer: true,
            memory: CacheResident,
            warps_per_block: 8,
            blocks_per_grid: 12,
        },
        // ------------------------ register-insensitive ------------------------
        WorkloadSpec {
            name: "bfs",
            suite: Rodinia,
            regs_per_thread: 20,
            unconstrained_regs_per_thread: 24,
            sensitivity: Insensitive,
            outer_trips: 6,
            inner_trips: 12,
            body_alu: 4,
            body_loads: 5,
            body_shared: 0,
            body_sfu: 0,
            barrier_per_outer: false,
            memory: Irregular,
            warps_per_block: 8,
            blocks_per_grid: 16,
        },
        WorkloadSpec {
            name: "btree",
            suite: Rodinia,
            regs_per_thread: 22,
            unconstrained_regs_per_thread: 28,
            sensitivity: Insensitive,
            outer_trips: 6,
            inner_trips: 10,
            body_alu: 5,
            body_loads: 4,
            body_shared: 0,
            body_sfu: 0,
            barrier_per_outer: false,
            memory: Irregular,
            warps_per_block: 8,
            blocks_per_grid: 16,
        },
        WorkloadSpec {
            name: "kmeans",
            suite: Rodinia,
            regs_per_thread: 24,
            unconstrained_regs_per_thread: 30,
            sensitivity: Insensitive,
            outer_trips: 8,
            inner_trips: 12,
            body_alu: 8,
            body_loads: 3,
            body_shared: 0,
            body_sfu: 1,
            barrier_per_outer: false,
            memory: Streaming,
            warps_per_block: 8,
            blocks_per_grid: 16,
        },
        WorkloadSpec {
            name: "spmv",
            suite: Parboil,
            regs_per_thread: 20,
            unconstrained_regs_per_thread: 26,
            sensitivity: Insensitive,
            outer_trips: 6,
            inner_trips: 14,
            body_alu: 5,
            body_loads: 5,
            body_shared: 0,
            body_sfu: 0,
            barrier_per_outer: false,
            memory: Irregular,
            warps_per_block: 8,
            blocks_per_grid: 16,
        },
        WorkloadSpec {
            name: "histo",
            suite: CudaSdk,
            regs_per_thread: 18,
            unconstrained_regs_per_thread: 22,
            sensitivity: Insensitive,
            outer_trips: 8,
            inner_trips: 10,
            body_alu: 4,
            body_loads: 3,
            body_shared: 3,
            body_sfu: 0,
            barrier_per_outer: true,
            memory: Streaming,
            warps_per_block: 8,
            blocks_per_grid: 16,
        },
    ]
}

/// Builds the full evaluated suite (nine register-sensitive followed by five
/// register-insensitive workloads).
#[must_use]
pub fn evaluated_suite() -> Vec<Workload> {
    evaluated_specs()
        .into_iter()
        .map(Workload::from_spec)
        .collect()
}

/// The canonical four-workload quick subset (two register-sensitive, two
/// insensitive) used by unit tests and the `sweep` CLI's `--quick` mode. One
/// copy, so every driver selects the same points (which also keeps their
/// sweep-cache entries interchangeable).
pub const QUICK_SUBSET: [&str; 4] = ["hotspot", "pathfinder", "btree", "histo"];

/// Builds the quick four-workload subset ([`QUICK_SUBSET`]).
#[must_use]
pub fn quick_suite() -> Vec<Workload> {
    evaluated_suite()
        .into_iter()
        .filter(|w| QUICK_SUBSET.contains(&w.name()))
        .collect()
}

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    evaluated_specs()
        .into_iter()
        .find(|s| s.name == name)
        .map(Workload::from_spec)
}

/// Per-thread register demands of the wider 35-kernel screening suite with
/// `maxregcount` lifted, used by the Table 1 capacity study. The first
/// fourteen entries correspond to the evaluated suite; the remainder model
/// the rest of the screening set.
#[must_use]
pub fn unconstrained_register_demands() -> Vec<u16> {
    let mut demands: Vec<u16> = evaluated_specs()
        .iter()
        .map(|s| s.unconstrained_regs_per_thread)
        .collect();
    // The remaining kernels of the 35-benchmark screening suite, spanning the
    // low-to-moderate register demands typical of CUDA SDK samples.
    demands.extend_from_slice(&[
        16, 18, 20, 22, 24, 26, 28, 30, 32, 36, 40, 44, 48, 52, 56, 60, 64, 72, 80, 96, 112,
    ]);
    demands
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn suite_has_nine_sensitive_and_five_insensitive_workloads() {
        let suite = evaluated_suite();
        assert_eq!(suite.len(), 14);
        let sensitive = suite.iter().filter(|w| w.is_register_sensitive()).count();
        assert_eq!((sensitive, suite.len() - sensitive), (9, 5));
    }

    #[test]
    fn workload_names_are_unique_and_kernels_are_valid() {
        let suite = evaluated_suite();
        let names: HashSet<_> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), suite.len());
        for w in &suite {
            assert!(w.kernel.static_instruction_count() > 0);
            assert_eq!(w.kernel.name(), w.name());
        }
    }

    #[test]
    fn sensitive_workloads_demand_more_registers() {
        let (sensitive, insensitive): (Vec<_>, Vec<_>) = evaluated_suite()
            .into_iter()
            .partition(Workload::is_register_sensitive);
        let sensitive_min = sensitive.iter().map(|w| w.spec.regs_per_thread).min();
        let insensitive_max = insensitive.iter().map(|w| w.spec.regs_per_thread).max();
        let (sensitive_min, insensitive_max) = (sensitive_min.unwrap(), insensitive_max.unwrap());
        assert!(
            sensitive_min > insensitive_max,
            "register-sensitive kernels must demand more registers ({sensitive_min} vs {insensitive_max})"
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("sgemm").is_some());
        assert!(by_name("btree").is_some());
        assert!(by_name("does-not-exist").is_none());
    }

    #[test]
    fn screening_suite_has_35_register_demands() {
        let demands = unconstrained_register_demands();
        assert_eq!(demands.len(), 35);
        assert!(demands.iter().all(|&d| (8..=256).contains(&d)));
    }

    #[test]
    fn dynamic_lengths_are_simulation_friendly() {
        for spec in evaluated_specs() {
            let dynamic = spec.dynamic_instructions_per_warp();
            assert!(
                (200..50_000).contains(&dynamic),
                "{} has {} dynamic instructions per warp",
                spec.name,
                dynamic
            );
        }
    }
}
