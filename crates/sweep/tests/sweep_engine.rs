//! Integration tests for the sweep engine: determinism, cache round-trips,
//! and failure isolation.

use std::path::PathBuf;

use ltrf_core::Organization;
use ltrf_sweep::{
    point_key, run_sweep, CampaignEvent, CampaignSession, EventLog, ExecutorOptions, PointOutcome,
    ResultCache, SeedMode, StreamingCsvWriter, SweepPoint, SweepSpec,
};

/// A small campaign that still crosses two axes.
fn small_spec(name: &str) -> SweepSpec {
    SweepSpec::builder(name)
        .workloads(["hotspot", "btree"])
        .organizations([Organization::Baseline, Organization::Ltrf])
        .config_ids([6])
        .seed_mode(SeedMode::PerPoint(2018))
        .build()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltrf-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn same_spec_and_seed_is_bit_identical() {
    let spec = small_spec("determinism");
    let options = ExecutorOptions::default();
    let first = run_sweep(&spec, &options);
    let second = run_sweep(&spec, &options);
    assert_eq!(first.failure_count(), 0);
    // Bit-identical: the canonical JSON encodings match byte for byte
    // (floats use shortest round-trip formatting, so this is exact).
    assert_eq!(
        serde::to_json_string(&first),
        serde::to_json_string(&second)
    );
    // A different base seed must actually change something.
    let mut reseeded_spec = spec.clone();
    reseeded_spec.seed_mode = SeedMode::PerPoint(9999);
    let reseeded = run_sweep(&reseeded_spec, &options);
    assert_ne!(
        serde::to_json_string(&first),
        serde::to_json_string(&reseeded)
    );
}

#[test]
fn warm_rerun_is_served_entirely_from_cache_with_identical_stats() {
    let spec = small_spec("cache-round-trip");
    let cache_dir = temp_dir("cache");
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };
    let cold = run_sweep(&spec, &options);
    assert_eq!(cold.cached_count(), 0);
    assert_eq!(cold.computed_count(), spec.points.len());
    assert_eq!(cold.failure_count(), 0);

    let warm = run_sweep(&spec, &options);
    assert_eq!(
        warm.computed_count(),
        0,
        "warm rerun must recompute zero points"
    );
    assert_eq!(warm.cached_count(), spec.points.len());
    assert!((warm.cache_hit_rate() - 1.0).abs() < 1e-12);
    // The cached outcomes round-trip exactly: every record matches the cold
    // run except for its provenance flag.
    for (cold_record, warm_record) in cold.records.iter().zip(&warm.records) {
        assert_eq!(cold_record.point, warm_record.point);
        assert_eq!(cold_record.digest_hex, warm_record.digest_hex);
        assert_eq!(cold_record.seed, warm_record.seed);
        assert_eq!(cold_record.outcome, warm_record.outcome);
        assert!(!cold_record.from_cache);
        assert!(warm_record.from_cache);
    }

    // `force_recompute` bypasses the cache but produces the same data.
    let forced = run_sweep(
        &spec,
        &ExecutorOptions {
            cache_dir: Some(cache_dir.clone()),
            force_recompute: true,
            ..ExecutorOptions::default()
        },
    );
    assert_eq!(forced.cached_count(), 0);
    for (cold_record, forced_record) in cold.records.iter().zip(&forced.records) {
        assert_eq!(cold_record.outcome, forced_record.outcome);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Bit rot inside a stored outcome: one digit of one point's outcome
/// changes in the `.pack` file. The entry still parses and its key material
/// still matches, so only the payload checksum can catch it. The point must
/// miss and recompute, and no other point may.
#[test]
fn a_flipped_outcome_digit_is_a_miss_and_recomputes_exactly_that_point() {
    let spec = small_spec("bit-rot");
    let cache_dir = temp_dir("bit-rot");
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };
    let cold = run_sweep(&spec, &options);
    assert_eq!(cold.failure_count(), 0);

    let victim = 1;
    let key = point_key(&spec, &spec.points[victim]);
    let segments = cache_dir.join("segments");
    let pack = std::fs::read_dir(&segments)
        .unwrap()
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .find(|path| path.extension().is_some_and(|ext| ext == "pack"))
        .expect("one pack segment");
    let mut bytes = std::fs::read(&pack).unwrap();
    let frame = format!("LTRF1 {} ", key.digest_hex);
    let find = |haystack: &[u8], needle: &[u8], from: usize| {
        from + haystack[from..]
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present")
    };
    let outcome = find(&bytes, b"\"outcome\":", find(&bytes, frame.as_bytes(), 0));
    // The first digit that starts a number value, not one inside a name.
    let digit = outcome
        + 1
        + bytes[outcome..]
            .windows(2)
            .position(|w| w[0] == b':' && w[1].is_ascii_digit())
            .expect("the outcome holds a number");
    bytes[digit] = if bytes[digit] == b'9' {
        b'8'
    } else {
        bytes[digit] + 1
    };
    std::fs::write(&pack, bytes).unwrap();

    let cache = ResultCache::open(&cache_dir).unwrap();
    assert!(
        cache.load::<PointOutcome>(&key).is_none(),
        "a corrupted outcome must miss"
    );
    for (index, point) in spec.points.iter().enumerate() {
        if index != victim {
            assert!(cache
                .load::<PointOutcome>(&point_key(&spec, point))
                .is_some());
        }
    }
    drop(cache);

    let warm = run_sweep(&spec, &options);
    assert_eq!(
        warm.computed_count(),
        1,
        "exactly the corrupted point recomputes"
    );
    assert!(!warm.records[victim].from_cache);
    for (cold_record, warm_record) in cold.records.iter().zip(&warm.records) {
        assert_eq!(cold_record.outcome, warm_record.outcome);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn editing_the_spec_only_recomputes_changed_points() {
    let cache_dir = temp_dir("incremental");
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };
    let base = small_spec("incremental");
    let cold = run_sweep(&base, &options);
    assert_eq!(cold.failure_count(), 0);

    // Grow the campaign by one organization: only the new points compute.
    let grown = SweepSpec::builder("incremental")
        .workloads(["hotspot", "btree"])
        .organizations([
            Organization::Baseline,
            Organization::Ltrf,
            Organization::Rfc,
        ])
        .config_ids([6])
        .seed_mode(SeedMode::PerPoint(2018))
        .build();
    let warm = run_sweep(&grown, &options);
    assert_eq!(warm.cached_count(), base.points.len());
    assert_eq!(
        warm.computed_count(),
        grown.points.len() - base.points.len()
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn gpu_scale_campaign_is_deterministic_and_caches_cleanly() {
    // A miniature `sweep gpu-scale`: the SM-count axis over one workload,
    // normalized, with the result cache attached.
    let spec = SweepSpec::builder("gpu-scale-it")
        .workloads(["hotspot"])
        .organizations([Organization::Ltrf])
        .config_ids([6])
        .sm_counts([1, 2])
        .seed_mode(SeedMode::Fixed(2018))
        .build();
    let cache_dir = temp_dir("gpu-scale");
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };
    let cold = run_sweep(&spec, &options);
    assert_eq!(cold.failure_count(), 0);
    assert_eq!(cold.computed_count(), 2);
    // The two SM counts are distinct cache entries with distinct results.
    assert_ne!(cold.records[0].digest_hex, cold.records[1].digest_hex);
    let one_sm = cold.records[0].outcome.data().unwrap();
    let two_sm = cold.records[1].outcome.data().unwrap();
    assert!(
        one_sm.result.gpu.is_none(),
        "sm_count=1 is the classic path"
    );
    assert_eq!(two_sm.result.gpu.as_ref().unwrap().sm_count, 2);
    assert!(two_sm.result.ipc > one_sm.result.ipc);

    // Warm rerun: 100% cache hits, bit-identical outcomes.
    let warm = run_sweep(&spec, &options);
    assert_eq!(warm.computed_count(), 0);
    assert!((warm.cache_hit_rate() - 1.0).abs() < 1e-12);
    for (cold_record, warm_record) in cold.records.iter().zip(&warm.records) {
        assert_eq!(cold_record.outcome, warm_record.outcome);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_failing_point_does_not_poison_its_shard() {
    let mut spec = small_spec("isolation");
    // Splice in a point that cannot run (unknown workload) between valid
    // points, and run single-threaded so everything shares one shard.
    let poison = SweepPoint {
        workload: "no-such-workload".to_string(),
        ..spec.points[0].clone()
    };
    spec.points.insert(1, poison);
    let results = run_sweep(
        &spec,
        &ExecutorOptions {
            threads: Some(1),
            ..ExecutorOptions::default()
        },
    );
    assert_eq!(results.len(), 5);
    assert_eq!(results.failure_count(), 1);
    match &results.records[1].outcome {
        PointOutcome::Error(message) => {
            assert!(message.contains("no-such-workload"), "got: {message}");
        }
        other => panic!("expected an error record, got {other:?}"),
    }
    // Every other point on the same shard still succeeded.
    for (i, record) in results.records.iter().enumerate() {
        if i != 1 {
            assert!(
                matches!(record.outcome, PointOutcome::Ok(_)),
                "point {i} was poisoned: {:?}",
                record.outcome
            );
        }
    }
}

#[test]
fn failures_are_not_cached() {
    let cache_dir = temp_dir("no-fail-cache");
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };
    let mut spec = small_spec("no-fail-cache");
    spec.points[0].workload = "still-not-a-workload".to_string();
    let cold = run_sweep(&spec, &options);
    assert_eq!(cold.failure_count(), 1);
    let warm = run_sweep(&spec, &options);
    // The failed point is recomputed (and fails again); the rest hit.
    assert_eq!(warm.computed_count(), 1);
    assert_eq!(warm.cached_count(), spec.points.len() - 1);
    assert!(!warm.records[0].from_cache);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A spec that mixes SM counts is claimed biggest first, and the claim
/// order reaches no output: at one and at two threads the streamed CSV is
/// byte-identical and the records come back in spec order. With one
/// thread the first point started is a 4-SM point, though spec order
/// starts with a 1-SM one.
#[test]
fn mixed_sm_claim_order_reaches_no_output() {
    let spec = SweepSpec::builder("claim-order")
        .workloads(["hotspot", "btree"])
        .organizations([Organization::Ltrf])
        .sm_counts([1, 4])
        .normalize(false)
        .seed_mode(SeedMode::Fixed(2018))
        .build();
    assert_eq!(spec.points[0].config.sm_count, 1);
    let dir = temp_dir("claim-order");
    std::fs::create_dir_all(&dir).unwrap();
    let mut csvs = Vec::new();
    for threads in [1, 2] {
        let options = ExecutorOptions {
            threads: Some(threads),
            ..ExecutorOptions::default()
        };
        let path = dir.join(format!("threads-{threads}.csv"));
        let csv = StreamingCsvWriter::create(&path).unwrap();
        let log = EventLog::new();
        let (results, _) = CampaignSession::new(&spec, &options).run_with_sink(&log, &csv);
        csv.finish().unwrap();
        assert_eq!(results.failure_count(), 0);
        let points: Vec<&SweepPoint> = results.records.iter().map(|r| &r.point).collect();
        assert_eq!(points, spec.points.iter().collect::<Vec<_>>());
        if threads == 1 {
            let first = log
                .take()
                .into_iter()
                .find_map(|event| match event {
                    CampaignEvent::PointStarted { index, .. } => Some(index),
                    _ => None,
                })
                .expect("a point started");
            assert_eq!(spec.points[first].config.sm_count, 4);
        }
        csvs.push(std::fs::read(&path).unwrap());
    }
    assert_eq!(
        csvs[0], csvs[1],
        "the streamed CSV depends on no claim order"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
