//! Golden differential test: the multi-SM shared-memory path, pinned
//! exact-f64 against a committed fixture.
//!
//! The interconnect subsystem replaced the implicit modulo-sliced L2 access
//! with an explicit `Interconnect` + `AddressDecoder` pipeline whose `Ideal`
//! topology (the default) must be *bit-identical* to the pre-change path.
//! The fig9/fig12 golden CSVs only pin the single-SM path, which never
//! touches `SharedMemory`; this fixture pins the shared path itself: every
//! organization at 1, 4, and 16 SMs, under both engines, with the timing-
//! and contention-sensitive counters (IPC, cycles, instructions, L2
//! hits/misses, slice queue wait, DRAM traffic) recorded with exact `f64`
//! round-trip formatting.
//!
//! The committed fixture was blessed on the pre-interconnect tree, so a pass
//! here is a proof of bit-identity across the refactor, not a tautology.
//! Re-bless (only for an intentional behaviour change) with:
//!
//! ```text
//! LTRF_BLESS=1 cargo test -p ltrf-core --test differential_interconnect
//! ```

use std::path::PathBuf;

use ltrf_core::{run_experiment_with_engine, ExperimentConfig, Organization};
use ltrf_sim::EngineKind;
use ltrf_workloads::{GeneratorConfig, WorkloadGenerator};
use serde::Value;

/// Generated members per organization: two is enough to cover distinct loop
/// shapes and memory profiles without blowing up the 16-SM wall clock.
const MEMBERS: usize = 2;

const SM_COUNTS: [usize; 3] = [1, 4, 16];

/// Bounds trimmed for wall-clock time while keeping register pressure and
/// memory behaviour diverse (mirrors `differential_gpu.rs`).
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

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/shared-memory-pinned.json")
}

fn engine_label(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Fast => "fast",
        EngineKind::Reference => "reference",
    }
}

/// Runs the full grid and renders one canonical-JSON line per case, in a
/// fixed deterministic order.
fn observed_lines() -> Vec<String> {
    let population = WorkloadGenerator::population_with_config(0xD1FF, MEMBERS, test_bounds());
    let mut lines = Vec::new();
    for org in Organization::all() {
        for (member, workload) in population.iter().enumerate() {
            for sm_count in SM_COUNTS {
                for kind in [EngineKind::Fast, EngineKind::Reference] {
                    let config = ExperimentConfig::for_table2(*org, 6).with_sm_count(sm_count);
                    let seed = 7_000 + member as u64;
                    let result = run_experiment_with_engine(
                        &workload.kernel,
                        workload.memory(),
                        seed,
                        &config,
                        kind,
                    )
                    .expect("shared-memory path runs every member");
                    // The whole-GPU aggregate: at 1 SM the lone SM's own
                    // statistics, at N SMs the shared L2/DRAM totals.
                    let stats = &result.stats;
                    let memory = &stats.memory;
                    let fields = vec![
                        ("org".to_string(), Value::Str(org.to_string())),
                        ("member".to_string(), Value::UInt(member as u64)),
                        ("sm_count".to_string(), Value::UInt(sm_count as u64)),
                        (
                            "engine".to_string(),
                            Value::Str(engine_label(kind).to_string()),
                        ),
                        ("ipc".to_string(), Value::Float(result.ipc)),
                        ("cycles".to_string(), Value::UInt(stats.cycles)),
                        ("instructions".to_string(), Value::UInt(stats.instructions)),
                        ("l2_hits".to_string(), Value::UInt(memory.llc.hits)),
                        ("l2_misses".to_string(), Value::UInt(memory.llc.misses)),
                        (
                            "l2_queue_wait_cycles".to_string(),
                            Value::UInt(memory.l2_queue_wait_cycles),
                        ),
                        (
                            "dram_requests".to_string(),
                            Value::UInt(memory.dram.requests),
                        ),
                        (
                            "dram_row_hits".to_string(),
                            Value::UInt(memory.dram.row_hits),
                        ),
                        (
                            "dram_queue_wait_cycles".to_string(),
                            Value::UInt(memory.dram.queue_wait_cycles),
                        ),
                    ];
                    lines.push(Value::Object(fields).to_json());
                }
            }
        }
    }
    lines
}

#[test]
fn shared_memory_path_matches_the_pinned_fixture() {
    let observed = observed_lines().join("\n") + "\n";
    let path = fixture_path();
    if std::env::var("LTRF_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &observed).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read the pinned fixture {} ({e}); bless it with LTRF_BLESS=1",
            path.display()
        )
    });
    let expected_lines: Vec<&str> = expected.lines().collect();
    let observed_lines: Vec<String> = observed.lines().map(str::to_string).collect();
    assert_eq!(
        expected_lines.len(),
        observed_lines.len(),
        "case count drifted from the pinned fixture"
    );
    for (i, (want, got)) in expected_lines.iter().zip(&observed_lines).enumerate() {
        assert_eq!(
            want, got,
            "case {i}: shared-memory timing diverged from the pre-interconnect fixture"
        );
    }
}
