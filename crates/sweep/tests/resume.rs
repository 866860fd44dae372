//! Crash recovery for campaigns: the result cache is the checkpoint.
//!
//! A killed campaign leaves a packed cache holding the points that
//! completed. Rerunning the same campaign over that cache serves those
//! points as cache hits, recomputes only the rest, and reports the same
//! results as an uninterrupted run apart from each point's `from_cache`
//! provenance. Torn or garbled cache data is a miss, which `packed.rs`'s
//! own tests pin.

use std::collections::HashSet;
use std::path::PathBuf;

use ltrf_sweep::{
    point_key, registry, report, CampaignEvent, CampaignParams, CampaignSession, EventLog,
    ExecutorOptions, StreamingCsvWriter, SweepSpec,
};

/// A generated campaign of `population` members under small, fast
/// generator bounds.
fn gen_campaign_spec(population: usize) -> SweepSpec {
    let params = CampaignParams {
        population: Some(population),
        population_seed: Some(41),
        min_regs: Some(12),
        max_regs: Some(64),
        max_outer_trips: Some(3),
        max_inner_trips: Some(6),
        max_body_alu: Some(6),
        max_body_loads: Some(2),
        ..CampaignParams::default()
    };
    let gen = registry().find("gen-campaign").unwrap();
    gen.specs(&params).unwrap().remove(0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltrf-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `csv`'s lines with the `from_cache` column removed: provenance is the
/// only column a partly warm cache may change.
fn without_provenance(csv: &str) -> Vec<String> {
    let column = csv
        .lines()
        .next()
        .and_then(|header| header.split(',').position(|c| c == "from_cache"))
        .expect("a from_cache column");
    csv.lines()
        .map(|line| {
            let mut fields: Vec<&str> = line.split(',').collect();
            fields.remove(column);
            fields.join(",")
        })
        .collect()
}

/// A killed campaign's rerun over the cache it left restores the completed
/// points from that cache, computes only the rest, and matches an
/// uninterrupted run apart from `from_cache`.
///
/// The kill is simulated exactly rather than with a signal: population
/// identity is index-stable and the cache key excludes the campaign name,
/// so running the 2-member campaign cold into a cache leaves the state a
/// kill of the 4-member campaign after those points would leave.
#[test]
fn resumed_campaign_restores_completed_points_and_matches_an_uninterrupted_run() {
    let dir = temp_dir("kill-rerun");
    let run_cache = dir.join("cache");
    let spec_full = gen_campaign_spec(4);
    let spec_subset = gen_campaign_spec(2);
    assert!(spec_subset.points.len() < spec_full.points.len());

    let reference = ltrf_sweep::run_sweep(&spec_full, &ExecutorOptions::default());
    assert_eq!(reference.failure_count(), 0);

    // "First run, killed partway": the completed points are in the cache.
    let partial = ltrf_sweep::run_sweep(
        &spec_subset,
        &ExecutorOptions {
            cache_dir: Some(run_cache.clone()),
            ..ExecutorOptions::default()
        },
    );
    assert_eq!(partial.computed_count(), spec_subset.points.len());
    let completed: HashSet<String> = spec_subset
        .points
        .iter()
        .map(|point| point_key(&spec_subset, point).digest_hex)
        .collect();

    // The rerun over the same cache.
    let log = EventLog::new();
    let options = ExecutorOptions {
        cache_dir: Some(run_cache),
        ..ExecutorOptions::default()
    };
    let csv_path = dir.join("rerun.csv");
    let csv = StreamingCsvWriter::create(&csv_path).unwrap();
    let (rerun, totals) = CampaignSession::new(&spec_full, &options).run_with_sink(&log, &csv);
    csv.finish().unwrap();

    assert_eq!(totals.points, spec_full.points.len());
    assert_eq!(totals.cached, spec_subset.points.len());
    assert_eq!(
        totals.computed,
        spec_full.points.len() - spec_subset.points.len(),
        "only the unfinished points recompute"
    );
    assert_eq!(totals.computed + totals.cached, totals.points);
    assert_eq!(totals.failed, 0);
    assert!(!log
        .take()
        .iter()
        .any(|e| matches!(e, CampaignEvent::PointRestored { .. })));

    // Exactly the completed points come from the cache; with provenance
    // cleared, every record equals the uninterrupted run's.
    assert_eq!(rerun.records.len(), reference.records.len());
    for (record, expected) in rerun.records.iter().zip(&reference.records) {
        assert_eq!(
            record.from_cache,
            completed.contains(&record.digest_hex),
            "{}",
            record.digest_hex
        );
        let mut record = record.clone();
        record.from_cache = expected.from_cache;
        assert_eq!(&record, expected);
    }

    // The streamed CSV equals the uninterrupted run's once `from_cache` is
    // dropped; with it, the reused rows differ.
    let streamed = std::fs::read_to_string(&csv_path).unwrap();
    let uninterrupted = report::to_csv(&reference);
    assert_ne!(streamed, uninterrupted);
    assert_eq!(
        without_provenance(&streamed),
        without_provenance(&uninterrupted)
    );
    assert_eq!(streamed.lines().count(), spec_full.points.len() + 1);

    let _ = std::fs::remove_dir_all(&dir);
}
