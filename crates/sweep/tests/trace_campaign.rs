//! Integration tests for trace-driven campaigns: cache correctness (warm
//! rerun = 100% hits, edited trace = 100% misses), per-point errors for
//! stale fingerprints, determinism, and a golden CSV fixture pinning
//! `sweep trace-campaign` on the checked-in example traces.
//!
//! When an *intentional* behaviour change shifts the numbers, regenerate the
//! fixture and review the diff like any other code change:
//!
//! ```text
//! LTRF_BLESS=1 cargo test -p ltrf-sweep --test trace_campaign
//! ```

use std::path::{Path, PathBuf};

use ltrf_sweep::{registry, report, run_sweep, CampaignParams, ExecutorOptions, SweepSpec};

fn example(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../examples/traces/{name}"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ltrf-trace-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `trace-campaign` spec over the given trace files.
fn trace_campaign_spec(traces: &[&Path]) -> SweepSpec {
    let params = CampaignParams {
        trace_paths: traces.iter().map(|p| p.display().to_string()).collect(),
        ..CampaignParams::default()
    };
    let campaign = registry().find("trace-campaign").unwrap();
    campaign.specs(&params).unwrap().remove(0)
}

#[test]
fn warm_rerun_hits_fully_and_an_edited_trace_misses_fully() {
    let cache_dir = temp_dir("cache");
    let work_dir = temp_dir("work");
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };

    // Run against a private copy of an example trace so the edit below
    // cannot touch the checked-in file.
    let trace_path = work_dir.join("straight_line.trace");
    std::fs::copy(example("straight_line.trace"), &trace_path).unwrap();

    // Cold run: everything computes.
    let spec = trace_campaign_spec(&[&trace_path]);
    let cold = run_sweep(&spec, &options);
    assert_eq!(cold.failure_count(), 0);
    assert_eq!(cold.cached_count(), 0);
    assert_eq!(cold.computed_count(), spec.points.len());

    // Warm rerun: 100% cache hits with bit-identical outcomes.
    let warm = run_sweep(&spec, &options);
    assert_eq!(
        warm.computed_count(),
        0,
        "warm rerun must recompute nothing"
    );
    assert!((warm.cache_hit_rate() - 1.0).abs() < 1e-12);
    for (cold_record, warm_record) in cold.records.iter().zip(&warm.records) {
        assert_eq!(cold_record.outcome, warm_record.outcome);
        assert!(warm_record.from_cache);
    }

    // Editing the trace (here: doubling the grid) re-fingerprints the
    // identity: every point misses and recomputes.
    let source = std::fs::read_to_string(&trace_path).unwrap();
    assert!(source.contains("-grid dim = (4,1,1)"), "edit site present");
    std::fs::write(
        &trace_path,
        source.replace("-grid dim = (4,1,1)", "-grid dim = (64,1,1)"),
    )
    .unwrap();
    let edited_spec = trace_campaign_spec(&[&trace_path]);
    assert_ne!(edited_spec.name, spec.name, "trace-set fingerprint renames");
    let edited = run_sweep(&edited_spec, &options);
    assert_eq!(
        edited.cached_count(),
        0,
        "an edited trace shares no cache entries"
    );
    assert_eq!(edited.failure_count(), 0);
    assert!(
        cold.records
            .iter()
            .zip(&edited.records)
            .any(|(c, e)| serde::to_json_string(&c.outcome) != serde::to_json_string(&e.outcome)),
        "the grid edit changes the simulated kernel somewhere"
    );

    // The stale identity (old fingerprint, new bytes) fails per point with
    // the typed content-changed error, not a panic or a silent stale hit.
    let stale = run_sweep(&spec, &ExecutorOptions::default());
    assert_eq!(stale.failure_count(), stale.len());
    for record in &stale.records {
        match &record.outcome {
            ltrf_sweep::PointOutcome::Error(message) => {
                assert!(message.contains("changed on disk"), "{message}");
            }
            other => panic!("expected a content-changed error, got {other:?}"),
        }
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
}

#[test]
fn trace_campaigns_are_deterministic_and_name_their_workloads() {
    let spec = trace_campaign_spec(&[
        &example("straight_line.trace"),
        &example("divergent_loop.trace"),
    ]);
    let options = ExecutorOptions::default();
    let first = run_sweep(&spec, &options);
    let second = run_sweep(&spec, &options);
    assert_eq!(first.failure_count(), 0);
    assert_eq!(
        serde::to_json_string(&first),
        serde::to_json_string(&second),
        "same spec, same bits"
    );
    for record in &first.records {
        let trace = record.point.trace.as_ref().expect("trace identity");
        assert_eq!(record.point.workload, trace.workload_name());
        assert!(record.point.workload.starts_with("trace:"));
    }
    // The JSON report round-trips the trace identity.
    let json = serde::to_json_string(&first);
    let parsed: ltrf_sweep::SweepResults = serde::from_json_str(&json).expect("round-trip");
    assert_eq!(parsed, first);
    assert!(json.contains("\"content_hash\""));
}

/// Path of the committed fixture (source-relative, so the test can bless it).
fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace-campaign.csv")
}

/// Normalizes CSV text for comparison: line endings and trailing whitespace
/// only. Numbers are compared verbatim — the engine is deterministic and the
/// reporter formats floats at fixed precision, so exact equality is the
/// contract.
fn normalize(text: &str) -> Vec<String> {
    text.replace("\r\n", "\n")
        .lines()
        .map(|line| line.trim_end().to_string())
        .filter(|line| !line.is_empty())
        .collect()
}

#[test]
fn trace_campaign_csv_matches_the_committed_golden_file() {
    // The same default invocation `sweep trace-campaign` runs: the three
    // example traces with the fixed campaign seed.
    let spec = trace_campaign_spec(&[
        &example("straight_line.trace"),
        &example("divergent_loop.trace"),
        &example("high_register_pressure.trace"),
    ]);
    // Uncached: provenance columns must read `false` in the fixture no
    // matter what caches exist on the developer's machine.
    let results = run_sweep(&spec, &ExecutorOptions::default());
    assert_eq!(results.failure_count(), 0, "trace points all succeed");
    let csv = report::to_csv(&results);

    let path = fixture_path();
    if std::env::var_os("LTRF_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture has a parent")).unwrap();
        std::fs::write(&path, &csv).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read the golden fixture {} ({e}); generate it with \
             LTRF_BLESS=1 cargo test -p ltrf-sweep --test trace_campaign",
            path.display()
        )
    });
    let expected = normalize(&golden);
    let actual = normalize(&csv);
    for (i, (want, got)) in expected.iter().zip(actual.iter()).enumerate() {
        assert_eq!(
            want,
            got,
            "trace-campaign CSV line {} drifted from the golden file (an \
             intentional change must re-bless the fixture with LTRF_BLESS=1)",
            i + 1
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "trace-campaign CSV row count drifted from the golden file"
    );
}
