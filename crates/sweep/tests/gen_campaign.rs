//! Integration tests for generated-workload campaigns: cache correctness
//! (warm rerun = 100% hits, seed change = 100% misses), determinism, and the
//! generator columns of the reporters.

use std::path::PathBuf;

use ltrf_sweep::{registry, report, run_sweep, CampaignParams, ExecutorOptions, SweepSpec};
use ltrf_workloads::WorkloadGenerator;

/// A three-member population under small, fast generator bounds.
fn test_params(population_seed: u64) -> CampaignParams {
    CampaignParams {
        population: Some(3),
        population_seed: Some(population_seed),
        min_regs: Some(12),
        max_regs: Some(64),
        max_outer_trips: Some(3),
        max_inner_trips: Some(6),
        max_body_alu: Some(6),
        max_body_loads: Some(2),
        ..CampaignParams::default()
    }
}

fn gen_campaign_spec(params: &CampaignParams) -> SweepSpec {
    let gen = registry().find("gen-campaign").unwrap();
    gen.specs(params).unwrap().remove(0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltrf-gen-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_rerun_hits_fully_and_a_new_seed_misses_fully() {
    let cache_dir = temp_dir("cache");
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };

    // Cold run: everything computes.
    let spec = gen_campaign_spec(&test_params(7));
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

    // Changing only the generator seed: every point misses (the population
    // identity is key material) and the results differ.
    let reseeded_spec = gen_campaign_spec(&test_params(8));
    let reseeded = run_sweep(&reseeded_spec, &options);
    assert_eq!(
        reseeded.cached_count(),
        0,
        "a reseeded population shares no cache entries"
    );
    assert_eq!(reseeded.failure_count(), 0);
    assert_ne!(
        serde::to_json_string(&cold.records[0].outcome),
        serde::to_json_string(&reseeded.records[0].outcome),
        "different population seeds produce different kernels"
    );

    // Changing only a generator bound misses as well.
    let widened_spec = gen_campaign_spec(&CampaignParams {
        max_regs: Some(65),
        ..test_params(7)
    });
    let widened = run_sweep(&widened_spec, &options);
    assert_eq!(
        widened.cached_count(),
        0,
        "changed generator bounds share no cache entries"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn generated_campaigns_are_deterministic_and_name_their_members() {
    let spec = gen_campaign_spec(&test_params(7));
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
        let generated = record.point.generated.expect("population identity");
        assert_eq!(
            record.point.workload,
            WorkloadGenerator::member_name(generated.index)
        );
    }
}

#[test]
fn reports_carry_the_generator_columns() {
    let spec = gen_campaign_spec(&test_params(7));
    let results = run_sweep(&spec, &ExecutorOptions::default());
    let csv = report::to_csv(&results);
    let mut lines = csv.lines();
    let header = lines.next().expect("header row");
    assert!(
        header.starts_with("workload,gen_seed,gen_index,"),
        "generator columns lead the CSV: {header}"
    );
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields[1], "7", "gen_seed column: {line}");
        assert!(fields[2].parse::<u32>().is_ok(), "gen_index column: {line}");
        assert!(
            fields[0].starts_with("gen-"),
            "generated member names: {line}"
        );
    }
    // The JSON report round-trips the population identity.
    let json = serde::to_json_string(&results);
    let parsed: ltrf_sweep::SweepResults = serde::from_json_str(&json).expect("round-trip");
    assert_eq!(parsed, results);
    assert!(json.contains("\"population_seed\":7"));
}
