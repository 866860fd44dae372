//! A session simulates each normalization reference once and shares it.
//! Sharing must never change a number: every record of a normalized
//! campaign equals a per-point `run_normalized` bit for bit, under a fixed
//! seed (where the reference is shared) and under per-point seeds (where
//! every point has its own).

use ltrf_core::{run_normalized, ExperimentConfig};
use ltrf_sim::MemoryBehavior;
use ltrf_sweep::{
    parallel_map, registry, CampaignParams, CampaignSession, ExecutorOptions, PointData,
    PointOutcome, PointRecord, SeedMode, SweepSpec, Unobserved,
};
use ltrf_workloads::{evaluated_suite, Workload};

fn quick() -> CampaignParams {
    CampaignParams {
        quick: true,
        ..CampaignParams::default()
    }
}

/// A small generated population (BL and LTRF per member).
fn gen_params(per_point_seeds: bool) -> CampaignParams {
    CampaignParams {
        population: Some(4),
        population_seed: Some(11),
        min_regs: Some(12),
        max_regs: Some(32),
        max_outer_trips: Some(2),
        max_inner_trips: Some(3),
        max_body_alu: Some(3),
        max_body_loads: Some(1),
        per_point_seeds,
        ..CampaignParams::default()
    }
}

fn spec(campaign: &str, params: &CampaignParams) -> SweepSpec {
    let mut specs = registry()
        .find(campaign)
        .unwrap_or_else(|| panic!("`{campaign}` is registered"))
        .specs(params)
        .unwrap();
    assert_eq!(specs.len(), 1, "`{campaign}` is one spec");
    specs.remove(0)
}

/// Runs `spec` in one session on two workers and returns its records and
/// how many references the session simulated.
fn run(spec: &SweepSpec) -> (Vec<PointRecord>, usize) {
    assert!(spec.normalize);
    let options = ExecutorOptions {
        threads: Some(2),
        ..ExecutorOptions::default()
    };
    let session = CampaignSession::new(spec, &options);
    let results = session.run(&Unobserved);
    (results.records, session.reference_runs())
}

/// Checks every record against `run_normalized` on the same point.
fn assert_records_match_run_normalized(spec: &SweepSpec, records: &[PointRecord]) {
    let suite = evaluated_suite();
    let expected = parallel_map(records, Some(2), |_, record| {
        let generated;
        let workload: &Workload = match &record.point.generated {
            Some(identity) => {
                generated = identity.materialize();
                &generated
            }
            None => suite
                .iter()
                .find(|w| w.name() == record.point.workload)
                .expect("suite workload"),
        };
        let memory: MemoryBehavior = record.point.memory.behavior(workload);
        let config: ExperimentConfig = record.point.config;
        let n = run_normalized(&workload.kernel, memory, record.seed, &config).unwrap();
        PointOutcome::Ok(PointData {
            result: n.result,
            normalized_ipc: Some(n.normalized_ipc),
            normalized_power: Some(n.normalized_power),
        })
    });
    assert_eq!(records.len(), spec.points.len());
    for (record, expected) in records.iter().zip(expected) {
        let expected = expected.expect("per-point run does not panic");
        let (PointOutcome::Ok(got), PointOutcome::Ok(want)) = (&record.outcome, &expected) else {
            panic!("{}: {:?}", record.point.workload, record.outcome);
        };
        assert_eq!(got.result, want.result, "{}", record.point.workload);
        for (a, b) in [
            (got.normalized_ipc, want.normalized_ipc),
            (got.normalized_power, want.normalized_power),
        ] {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
        assert_eq!(
            serde::to_json_string(&record.outcome),
            serde::to_json_string(&expected)
        );
    }
}

#[test]
fn quick_fig9_simulates_one_reference_per_workload() {
    let spec = spec("fig9", &quick());
    let (records, references) = run(&spec);
    assert_eq!(references, 4, "four quick workloads, one reference each");
    assert_records_match_run_normalized(&spec, &records);
}

#[test]
fn quick_table2_and_power_records_equal_per_point_runs() {
    for campaign in ["table2", "power"] {
        let spec = spec(campaign, &quick());
        let (records, references) = run(&spec);
        assert_eq!(references, 4, "{campaign}: one reference per workload");
        assert_records_match_run_normalized(&spec, &records);
    }
}

#[test]
fn gen_campaign_records_equal_per_point_runs_under_both_seedings() {
    let fixed = spec("gen-campaign", &gen_params(false));
    assert!(matches!(fixed.seed_mode, SeedMode::Fixed(_)));
    let (records, references) = run(&fixed);
    assert_eq!(references, 4, "one reference per member");
    assert_records_match_run_normalized(&fixed, &records);

    let per_point = spec("gen-campaign", &gen_params(true));
    assert!(matches!(per_point.seed_mode, SeedMode::PerPoint(_)));
    let (records, references) = run(&per_point);
    assert_eq!(
        references,
        per_point.points.len(),
        "per-point seeds share nothing"
    );
    assert_records_match_run_normalized(&per_point, &records);
}
