//! Behaviour probe for [`ENGINE_FINGERPRINT`].
//!
//! The fingerprint is mixed into every cache key, so bumping it is what
//! retires cached results after a change in simulated behaviour. Nothing
//! forces a bump, though: a change that moves a statistic but keeps the
//! fingerprint keeps serving the old results from every existing cache.
//! This test closes that gap. It simulates a small fixed probe set
//! and commits a SHA-256 over the canonical JSON of every [`RunResult`]
//! next to the fingerprint it was recorded under. When the digest moves
//! while the fingerprint did not, the test fails and asks for the bump.
//!
//! The probe set: a few small generated members × BL/RFC/LTRF/LTRF+ ×
//! {1, 4} SMs × both engines (the skip-ahead engine and the reference tick
//! loop). After an intentional behaviour change, bump the fingerprint and
//! re-record:
//!
//! ```text
//! LTRF_BLESS=1 cargo test -p ltrf-sweep --test behaviour_probe
//! ```

use std::path::PathBuf;

use ltrf_core::{run_experiment_with_engine, EngineKind, ExperimentConfig, Organization};
use ltrf_sweep::hash::sha256_hex;
use ltrf_sweep::ENGINE_FINGERPRINT;
use ltrf_workloads::{GeneratorConfig, WorkloadGenerator};
use serde::{Deserialize, Serialize};

/// The committed probe record.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Probe {
    engine_fingerprint: String,
    results_sha256: String,
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/behaviour-probe.json")
}

/// Small bounds: the probe runs in debug builds on every test pass.
fn probe_bounds() -> GeneratorConfig {
    GeneratorConfig {
        min_regs: 12,
        max_regs: 48,
        max_outer_trips: 2,
        max_inner_trips: 3,
        max_body_alu: 4,
        max_body_loads: 2,
    }
}

/// The JSON of every probe run, one line each, in a fixed order.
fn probe_results() -> String {
    let population = WorkloadGenerator::population_with_config(0x0B5E, 3, probe_bounds());
    let mut lines = String::new();
    for workload in &population {
        for organization in [
            Organization::Baseline,
            Organization::Rfc,
            Organization::Ltrf,
            Organization::LtrfPlus,
        ] {
            for sm_count in [1, 4] {
                let config = ExperimentConfig {
                    sm_count,
                    ..ExperimentConfig::new(organization)
                };
                for engine in [EngineKind::Fast, EngineKind::Reference] {
                    let result = run_experiment_with_engine(
                        &workload.kernel,
                        workload.memory(),
                        7,
                        &config,
                        engine,
                    )
                    .unwrap_or_else(|e| panic!("{} under {organization:?}: {e}", workload.name()));
                    lines.push_str(&serde::to_json_string(&result));
                    lines.push('\n');
                }
            }
        }
    }
    lines
}

#[test]
fn simulated_behaviour_matches_the_engine_fingerprint() {
    let actual = Probe {
        engine_fingerprint: ENGINE_FINGERPRINT.to_string(),
        results_sha256: sha256_hex(probe_results().as_bytes()),
    };
    let path = fixture_path();
    if std::env::var_os("LTRF_BLESS").is_some() {
        std::fs::write(&path, serde::to_json_string(&actual) + "\n").unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); re-bless (LTRF_BLESS=1)",
            path.display()
        )
    });
    let recorded: Probe = serde::from_json_str(text.trim()).expect("probe record parses");
    assert_eq!(
        recorded.engine_fingerprint, actual.engine_fingerprint,
        "ENGINE_FINGERPRINT changed: re-bless the probe (LTRF_BLESS=1)"
    );
    assert_eq!(
        recorded.results_sha256, actual.results_sha256,
        "simulated behaviour changed: bump ENGINE_FINGERPRINT and re-bless (LTRF_BLESS=1)"
    );
}
