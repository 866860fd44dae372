//! Registry integration tests: the campaign registry, the `REPRODUCING.md`
//! artifact atlas, and the generated `describe` surfaces must agree — and
//! the session event stream must match the batch results exactly.

use std::collections::BTreeSet;
use std::path::PathBuf;

use ltrf_sweep::api::{describe_text, registry, CampaignParams};
use ltrf_sweep::{
    CampaignEvent, CampaignSession, EventLog, ExecutorOptions, SweepResults, SweepSpec,
};

/// The repository-root documentation file naming every campaign command.
fn reproducing_md() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../REPRODUCING.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every backticked `` `sweep <command>` `` mention in a document — the
/// convention the atlas uses for runnable commands (prose like "the sweep
/// engine" is never backticked with a trailing command word).
fn sweep_commands(doc: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (start, _) in doc.match_indices("`sweep ") {
        let rest = &doc[start + "`sweep ".len()..];
        let word: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
            .collect();
        if word.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
            names.insert(word);
        }
    }
    names
}

/// The CLI's meta-commands: part of the `sweep` surface but not campaigns.
const META_COMMANDS: [&str; 4] = ["list", "describe", "version", "help"];

#[test]
fn registry_matches_the_reproducing_atlas() {
    let doc = reproducing_md();
    let registry = registry();

    // Forward: every campaign the atlas tells readers to run is registered.
    let mut documented: BTreeSet<String> = sweep_commands(&doc)
        .into_iter()
        .filter(|w| !META_COMMANDS.contains(&w.as_str()))
        .collect();
    assert!(
        !documented.is_empty(),
        "REPRODUCING.md names at least one sweep command"
    );
    for name in &documented {
        assert!(
            registry.find(name).is_some(),
            "REPRODUCING.md documents `sweep {name}` but the registry has no such campaign \
             (names/aliases: {:?})",
            registry
                .campaigns()
                .iter()
                .flat_map(|c| c.names())
                .collect::<Vec<_>>()
        );
    }

    // Reverse: every registered campaign is documented in the atlas.
    for campaign in registry.campaigns() {
        let mentioned = campaign
            .names()
            .any(|name| documented.remove(name) || doc.contains(&format!("sweep {name}")));
        assert!(
            mentioned,
            "campaign `{}` is registered but REPRODUCING.md never mentions `sweep {}`",
            campaign.name, campaign.name
        );
    }
}

#[test]
fn describe_covers_every_accepted_parameter() {
    // The generated describe output (and therefore `sweep describe`) must
    // mention every parameter each campaign accepts — the property that
    // used to require hand-maintaining help text in lockstep with the
    // flag-scope tables.
    for campaign in registry().campaigns() {
        let text = describe_text(campaign);
        for param in campaign.params {
            assert!(
                text.contains(param.flag),
                "`sweep describe {}` does not mention {}",
                campaign.name,
                param.flag
            );
            assert!(
                text.contains(param.help),
                "`sweep describe {}` does not carry the help text of {}",
                campaign.name,
                param.flag
            );
        }
    }
}

/// Splits an event log into per-kind buckets.
struct EventCounts {
    started: usize,
    point_started: usize,
    finished_hits: usize,
    finished_misses: usize,
    failed: usize,
    campaign_finished: Vec<(usize, usize, usize, f64)>,
}

/// The `--progress json` wire schema: every event kind a session emits and
/// the exact ordered key list of its line.
const EVENT_KEYS: [(&str, &[&str]); 5] = [
    ("campaign_started", &["event", "campaign", "points"]),
    (
        "point_started",
        &["event", "index", "workload", "organization"],
    ),
    ("point_finished", &["event", "index", "cache_hit"]),
    (
        "point_failed",
        &[
            "event",
            "index",
            "workload",
            "organization",
            "config_id",
            "error",
        ],
    ),
    (
        "campaign_finished",
        &[
            "event", "campaign", "computed", "cached", "failed", "hit_rate",
        ],
    ),
];

fn count(events: &[CampaignEvent]) -> EventCounts {
    let mut counts = EventCounts {
        started: 0,
        point_started: 0,
        finished_hits: 0,
        finished_misses: 0,
        failed: 0,
        campaign_finished: Vec::new(),
    };
    for event in events {
        match event {
            CampaignEvent::CampaignStarted { .. } => counts.started += 1,
            CampaignEvent::PointStarted { .. } => counts.point_started += 1,
            CampaignEvent::PointFinished {
                cache_hit: true, ..
            } => counts.finished_hits += 1,
            CampaignEvent::PointFinished {
                cache_hit: false, ..
            } => counts.finished_misses += 1,
            // Never emitted; the key-list check below rejects their lines.
            CampaignEvent::PointRestored { .. } | CampaignEvent::PointCoalesced { .. } => {}
            CampaignEvent::PointFailed { .. } => counts.failed += 1,
            CampaignEvent::CampaignFinished {
                computed,
                cached,
                failed,
                hit_rate,
                ..
            } => counts
                .campaign_finished
                .push((*computed, *cached, *failed, *hit_rate)),
        }
    }
    counts
}

fn assert_stream_matches(events: &[CampaignEvent], results: &SweepResults) {
    let counts = count(events);
    assert_eq!(counts.started, 1, "exactly one CampaignStarted");
    assert_eq!(counts.point_started, results.len(), "one start per point");
    assert_eq!(
        counts.finished_hits + counts.finished_misses + counts.failed,
        results.len(),
        "one terminal event per point"
    );
    assert_eq!(
        counts.finished_hits,
        results.cached_count(),
        "cache_hit flags"
    );
    assert_eq!(counts.failed, results.failure_count(), "failure events");
    let &[(computed, cached, failed, hit_rate)] = counts.campaign_finished.as_slice() else {
        panic!(
            "exactly one CampaignFinished, got {:?}",
            counts.campaign_finished
        );
    };
    assert_eq!(computed, results.computed_count());
    assert_eq!(cached, results.cached_count());
    assert_eq!(failed, results.failure_count());
    assert!((hit_rate - results.cache_hit_rate()).abs() < 1e-12);
    // The last event of the stream is the campaign summary.
    assert!(matches!(
        events.last(),
        Some(CampaignEvent::CampaignFinished { .. })
    ));
    // Every JSON line parses and carries exactly its kind's keys, in order.
    for event in events {
        let line = event.to_json_line();
        let value = serde::Value::parse_json(&line)
            .unwrap_or_else(|e| panic!("event line does not parse: {line} ({e})"));
        let serde::Value::Object(fields) = value else {
            panic!("event line is not an object: {line}");
        };
        let kind = fields[0].1.as_str().unwrap_or_default();
        let Some((_, expected)) = EVENT_KEYS.iter().find(|(name, _)| *name == kind) else {
            panic!("unknown event kind: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(&keys, expected, "the {kind} key list: {line}");
    }
}

#[test]
fn event_stream_counts_match_sweep_results_cold_and_warm() {
    let cache_dir =
        std::env::temp_dir().join(format!("ltrf-registry-events-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    // A small registered campaign: gen-campaign with a 2-member population
    // (4 points under BL/LTRF).
    let params = CampaignParams {
        population: Some(2),
        population_seed: Some(7),
        ..CampaignParams::default()
    };
    let spec = registry()
        .find("gen-campaign")
        .unwrap()
        .specs(&params)
        .unwrap();
    let spec = &spec[0];
    let options = ExecutorOptions {
        cache_dir: Some(cache_dir.clone()),
        ..ExecutorOptions::default()
    };

    // Cold: everything computes, every PointFinished is a miss.
    let log = EventLog::new();
    let cold = CampaignSession::new(spec, &options).run(&log);
    assert_eq!(cold.len(), 4);
    assert_eq!(cold.failure_count(), 0);
    assert_eq!(cold.cached_count(), 0);
    assert_stream_matches(&log.take(), &cold);

    // Warm: everything is a hit, and the stream says so per point.
    let warm = CampaignSession::new(spec, &options).run(&log);
    assert_eq!(warm.cached_count(), warm.len());
    let events = log.take();
    assert_stream_matches(&events, &warm);
    let hits = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                CampaignEvent::PointFinished {
                    cache_hit: true,
                    ..
                }
            )
        })
        .count();
    assert_eq!(hits, 4, "warm rerun streams cache_hit on every point");

    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn event_stream_reports_failures_per_point() {
    // One resolvable workload and one unknown one: the campaign survives,
    // the stream carries a PointFailed for exactly the bad point.
    let spec = SweepSpec::builder("registry-failure")
        .workloads(["hotspot", "no-such-workload"])
        .normalize(false)
        .build();
    let log = EventLog::new();
    let results = CampaignSession::new(&spec, &ExecutorOptions::default()).run(&log);
    assert_eq!(results.len(), 2);
    assert_eq!(results.failure_count(), 1);
    let events = log.take();
    assert_stream_matches(&events, &results);
    let failed: Vec<&CampaignEvent> = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::PointFailed { .. }))
        .collect();
    match failed.as_slice() {
        [CampaignEvent::PointFailed {
            workload, error, ..
        }] => {
            assert_eq!(workload, "no-such-workload");
            assert!(error.contains("unknown workload"), "{error}");
        }
        other => panic!("expected one PointFailed, got {other:?}"),
    }
}

#[test]
fn batch_wrapper_and_observed_session_agree() {
    // run_sweep is a thin wrapper over the session: identical results.
    let params = CampaignParams {
        population: Some(2),
        population_seed: Some(11),
        ..CampaignParams::default()
    };
    let spec = registry()
        .find("gen-campaign")
        .unwrap()
        .specs(&params)
        .unwrap();
    let options = ExecutorOptions::default();
    let batch = ltrf_sweep::run_sweep(&spec[0], &options);
    let observed = CampaignSession::new(&spec[0], &options).run(&EventLog::new());
    assert_eq!(batch, observed, "the batch wrapper is output-identical");
}

/// A campaign with no parameters is told so: the rejection of a flag it
/// does not take names no other campaign's use of that flag. `sweep table1
/// --quick` used to end with "size a gen-campaign with --population N
/// instead".
#[test]
fn a_campaign_without_parameters_says_it_takes_none() {
    let registry = registry();
    let quick = registry.param("--quick").unwrap();
    let table1 = registry.find("table1").unwrap();
    assert!(table1.params.is_empty());
    let message = registry.scope_error(table1, quick);
    assert!(
        message.contains("`table1` takes no parameters"),
        "{message}"
    );
    assert!(!message.contains("--population"), "{message}");
    for campaign in registry.campaigns().iter().filter(|c| c.params.is_empty()) {
        for spec in registry.campaigns().iter().flat_map(|c| c.params.iter()) {
            let message = registry.scope_error(campaign, spec);
            assert!(
                message.ends_with(&format!("`{}` takes no parameters", campaign.name)),
                "{message}"
            );
        }
    }
    // A campaign with parameters keeps the flag's own hint.
    let gen = registry.find("gen-campaign").unwrap();
    assert!(registry.scope_error(gen, quick).contains("--population"));
}
