//! Kill/resume integration tests for checkpointed campaigns.
//!
//! The central claim of `--resume` is that a rerun of a killed campaign
//! recomputes only the unfinished points and still produces reports
//! *byte-identical* to an uninterrupted run — including per-point cache
//! provenance, which restored points carry from the journal rather than
//! from the resumed run's own cache lookups. These tests pin that claim,
//! plus the journal's crash tolerance: a journal truncated or garbled at
//! any byte boundary loads without panicking and only ever forgets points
//! (costing recomputes), never invents them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ltrf_sweep::campaigns::{gen_campaign_spec, GenCampaignParams};
use ltrf_sweep::{
    point_key, report, CampaignEvent, CampaignJournal, CampaignSession, EventLog, ExecutorOptions,
    JournalSnapshot, SeedMode, StreamingCsvWriter,
};
use ltrf_workloads::GeneratorConfig;
use proptest::prelude::*;
use serde::Serialize;

/// Small, fast generator bounds for the integration campaigns.
fn test_bounds() -> GeneratorConfig {
    GeneratorConfig {
        min_regs: 12,
        max_regs: 64,
        max_outer_trips: 3,
        max_inner_trips: 6,
        max_body_alu: 6,
        max_body_loads: 2,
    }
}

fn test_params(population: usize) -> GenCampaignParams {
    GenCampaignParams {
        population,
        population_seed: 41,
        config: test_bounds(),
        sm_count: 1,
        seed_mode: SeedMode::Fixed(2018),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltrf-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn restored_events(events: &[CampaignEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::PointRestored { .. }))
        .count()
}

/// A killed campaign leaves a journal covering the points that completed
/// and a cache holding their outcomes. Resuming must restore exactly those
/// points, recompute the rest, and produce results bit-identical to an
/// uninterrupted run.
///
/// The "kill" is simulated precisely rather than with a real signal:
/// population identity is index-stable and the cache key excludes the
/// campaign name, so running the *2-member* campaign cold into a shared
/// cache computes a digest-identical subset of the *4-member* campaign's
/// points. Hand-writing those digests into a journal under the 4-member
/// campaign's name reproduces the exact on-disk state a kill between two
/// points leaves behind.
#[test]
fn resumed_campaign_restores_completed_points_and_matches_an_uninterrupted_run() {
    let dir = temp_dir("kill-resume");
    let run_cache = dir.join("cache");
    let spec_full = gen_campaign_spec(&test_params(4));
    let spec_subset = gen_campaign_spec(&test_params(2));
    assert!(spec_subset.points.len() < spec_full.points.len());

    // The uninterrupted reference run, against its own private cache.
    let reference = ltrf_sweep::run_sweep(
        &spec_full,
        &ExecutorOptions {
            cache_dir: Some(dir.join("cache-reference")),
            ..ExecutorOptions::default()
        },
    );
    assert_eq!(reference.failure_count(), 0);

    // "First run, killed partway": the subset campaign populates the shared
    // cache with the completed points' outcomes...
    let partial = ltrf_sweep::run_sweep(
        &spec_subset,
        &ExecutorOptions {
            cache_dir: Some(run_cache.clone()),
            ..ExecutorOptions::default()
        },
    );
    assert_eq!(partial.computed_count(), spec_subset.points.len());

    // ...and the journal records them, under the full campaign's name, with
    // the provenance they originally completed with (computed, not cached).
    let journal_path = dir.join(format!("{}.journal", spec_full.name));
    let journal = CampaignJournal::create(&journal_path, &spec_full.name).unwrap();
    let mut journaled = Vec::new();
    for point in &spec_subset.points {
        let key = point_key(&spec_subset, point);
        journal.record(&key.digest_hex, key.seed, false).unwrap();
        journaled.push(key.digest_hex);
    }
    drop(journal);

    // The resumed run restores every journaled point and computes the rest.
    let log = EventLog::new();
    let options = ExecutorOptions {
        cache_dir: Some(run_cache),
        journal_path: Some(journal_path.clone()),
        resume: true,
        ..ExecutorOptions::default()
    };
    let session = CampaignSession::new(&spec_full, &options);
    let csv_path = dir.join("resumed.csv");
    let csv = StreamingCsvWriter::create(&csv_path).unwrap();
    let (resumed, totals) = session.run_with_sink(&log, &csv);
    csv.finish().unwrap();
    let events = log.take();

    assert_eq!(totals.points, spec_full.points.len());
    assert_eq!(totals.restored, spec_subset.points.len());
    assert_eq!(
        totals.computed,
        spec_full.points.len() - spec_subset.points.len(),
        "only the unfinished points recompute"
    );
    assert_eq!(totals.failed, 0);
    assert_eq!(restored_events(&events), spec_subset.points.len());

    // Bit-identical to the uninterrupted run: records, JSON, and the
    // streamed CSV. Restored points carry the journal's original
    // `from_cache: false`, exactly what the reference's cold pass reports.
    assert_eq!(resumed.records, reference.records);
    assert_eq!(
        serde::to_json_string(&resumed),
        serde::to_json_string(&reference)
    );
    let streamed = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(streamed, report::to_csv(&reference));

    // Every journaled digest is present in the resumed result set, and the
    // whole run reports cold provenance — journaled or not.
    for digest in &journaled {
        assert!(resumed.records.iter().any(|r| &r.digest_hex == digest));
    }
    assert!(resumed.records.iter().all(|r| !r.from_cache));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restored points must carry the provenance the journal recorded — not
/// the provenance a live lookup would produce. A journal written by a warm
/// (100%-hit) run restores with `from_cache: true`, even though the resumed
/// session never classified those points itself.
#[test]
fn resume_preserves_original_cache_provenance() {
    let dir = temp_dir("provenance");
    let cache_dir = dir.join("cache");
    let spec = gen_campaign_spec(&test_params(2));
    let journal_path = dir.join(format!("{}.journal", spec.name));

    // Cold run to populate the cache (no journal yet).
    let cold = ltrf_sweep::run_sweep(
        &spec,
        &ExecutorOptions {
            cache_dir: Some(cache_dir.clone()),
            ..ExecutorOptions::default()
        },
    );
    assert_eq!(cold.cached_count(), 0);

    // Warm run with a journal: every point completes as a cache hit and is
    // journaled that way. The journal is left behind, as after a kill
    // between the last point and the campaign's cleanup.
    let warm = ltrf_sweep::run_sweep(
        &spec,
        &ExecutorOptions {
            cache_dir: Some(cache_dir.clone()),
            journal_path: Some(journal_path.clone()),
            ..ExecutorOptions::default()
        },
    );
    assert_eq!(warm.cached_count(), spec.points.len());
    let snapshot = JournalSnapshot::load(&journal_path, &spec.name).expect("journal written");
    assert_eq!(snapshot.len(), spec.points.len());

    // Resume: every point restores, and the records match the *warm* run —
    // `from_cache: true` from the journal, not re-derived.
    let log = EventLog::new();
    let resumed = CampaignSession::new(
        &spec,
        &ExecutorOptions {
            cache_dir: Some(cache_dir),
            journal_path: Some(journal_path),
            resume: true,
            ..ExecutorOptions::default()
        },
    )
    .run(&log);
    let events = log.take();
    assert_eq!(restored_events(&events), spec.points.len());
    assert_eq!(resumed.records, warm.records);
    assert!(resumed.records.iter().all(|r| r.from_cache));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled point whose outcome is *not* in the cache (wiped cache, or
/// the kill landed between the journal append and the cache store) must
/// fall through to a recompute — restores never invent results.
#[test]
fn journaled_points_missing_from_the_cache_recompute() {
    let dir = temp_dir("missing-cache");
    let spec = gen_campaign_spec(&test_params(2));
    let journal_path = dir.join(format!("{}.journal", spec.name));

    let journal = CampaignJournal::create(&journal_path, &spec.name).unwrap();
    for point in &spec.points {
        let key = point_key(&spec, point);
        journal.record(&key.digest_hex, key.seed, false).unwrap();
    }
    drop(journal);

    // The cache directory is empty: nothing can restore.
    let log = EventLog::new();
    let resumed = CampaignSession::new(
        &spec,
        &ExecutorOptions {
            cache_dir: Some(dir.join("cache")),
            journal_path: Some(journal_path),
            resume: true,
            ..ExecutorOptions::default()
        },
    )
    .run(&log);
    let events = log.take();
    assert_eq!(restored_events(&events), 0);
    assert_eq!(resumed.computed_count(), spec.points.len());
    assert_eq!(resumed.failure_count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Journal crash tolerance (property tests)
// ---------------------------------------------------------------------------

static CASE: AtomicUsize = AtomicUsize::new(0);

fn unique_journal_path() -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ltrf-resume-prop-{}-{case}.journal",
        std::process::id()
    ))
}

/// A journal entry derived from proptest-supplied scalars (the vendored
/// proptest has no string strategies): the digest is the first scalar's hex
/// form, which is exactly the shape real digests take.
fn entry_strategy() -> impl Strategy<Value = (String, u64, bool)> {
    (any::<u64>(), any::<u64>(), any::<bool>())
        .prop_map(|(digest, seed, from_cache)| (format!("{digest:016x}"), seed, from_cache))
}

proptest! {
    /// Truncating a journal at *any* byte boundary — the exact state a kill
    /// mid-append leaves — must load without panicking, and every entry it
    /// recovers must be one that was actually written, with its recorded
    /// seed and provenance. Entries wholly before the cut survive.
    #[test]
    fn truncated_journals_load_safely(
        entries in proptest::collection::vec(entry_strategy(), 0..8),
        cut_permille in 0u32..=1000,
    ) {
        let path = unique_journal_path();
        let journal = CampaignJournal::create(&path, "prop-camp").unwrap();
        for (digest, seed, from_cache) in &entries {
            journal.record(digest, *seed, *from_cache).unwrap();
        }
        drop(journal);

        let bytes = std::fs::read(&path).unwrap();
        let cut = (bytes.len() * cut_permille as usize) / 1000;
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).unwrap();

        // Never a panic; a cut inside the header invalidates wholesale.
        let snapshot = JournalSnapshot::load(&path, "prop-camp");
        let header_len = {
            let newline = bytes.iter().position(|&b| b == b'\n').unwrap();
            newline + 1
        };
        if cut >= header_len {
            let snapshot = snapshot.expect("intact header loads");
            // Everything recovered was genuinely written: the recovered
            // value matches *some* written entry with that digest (the last
            // one before the cut, when digests repeat).
            for (digest, _, _) in &entries {
                if let Some(found) = snapshot.get(digest) {
                    prop_assert!(
                        entries.iter().any(|(d, s, f)| {
                            d == digest && *s == found.seed && *f == found.from_cache
                        }),
                        "recovered entries are never invented"
                    );
                }
            }
            // Entries wholly before the cut survive. Later duplicates of the
            // same digest may overwrite seed/provenance, so count presence.
            let mut offset = header_len;
            for (digest, seed, from_cache) in &entries {
                let line = serde::to_json_string(&LineShape {
                    digest: digest.clone(),
                    seed: *seed,
                    from_cache: *from_cache,
                });
                offset += line.len() + 1;
                if offset <= cut {
                    prop_assert!(
                        snapshot.get(digest).is_some(),
                        "entry before the cut must survive"
                    );
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Appending arbitrary garbage bytes (a torn line, stray output, a
    /// partial next entry) never panics the loader and never corrupts the
    /// entries written before the garbage.
    #[test]
    fn garbled_tails_never_panic_or_corrupt(
        entries in proptest::collection::vec(entry_strategy(), 0..6),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let path = unique_journal_path();
        let journal = CampaignJournal::create(&path, "prop-camp").unwrap();
        for (digest, seed, from_cache) in &entries {
            journal.record(digest, *seed, *from_cache).unwrap();
        }
        drop(journal);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&path, &bytes).unwrap();

        match JournalSnapshot::load(&path, "prop-camp") {
            // Non-UTF-8 garbage invalidates the whole file — a safe (if
            // lossy) degradation to a full recompute, never a panic.
            None => prop_assert!(
                std::str::from_utf8(&garbage).is_err(),
                "only non-UTF-8 garbage may invalidate the journal"
            ),
            Some(snapshot) => {
                // The garbage occupies its own line(s) after the final
                // newline, so every original entry line is intact and must
                // be recovered with its exact seed and provenance.
                let mut last: std::collections::HashMap<&str, (u64, bool)> =
                    std::collections::HashMap::new();
                for (digest, seed, from_cache) in &entries {
                    last.insert(digest.as_str(), (*seed, *from_cache));
                }
                for (digest, (seed, from_cache)) in &last {
                    let found = snapshot.get(digest).expect("original entries survive");
                    prop_assert_eq!(found.seed, *seed);
                    prop_assert_eq!(found.from_cache, *from_cache);
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Mirror of the journal's line shape, for computing serialized lengths in
/// the truncation property (the journal's own type is private).
#[derive(Serialize)]
struct LineShape {
    digest: String,
    seed: u64,
    from_cache: bool,
}
