//! Integration tests for the `sweep interconnect` campaign: cache-identity
//! semantics (warm reruns hit 100%, changing any network knob misses 100%),
//! the extended-CSV golden fixture, and the sweep-level sanity check that
//! crossbar and mesh genuinely diverge once enough SMs contend.
//!
//! When an *intentional* behaviour change shifts the fixture's numbers,
//! regenerate it and review the diff like any other code change:
//!
//! ```text
//! LTRF_BLESS=1 cargo test -p ltrf-sweep --test interconnect
//! ```

use std::path::PathBuf;

use ltrf_sim::Topology;
use ltrf_sweep::report::{CsvSchema, CSV_COLUMNS, INTERCONNECT_CSV_COLUMNS};
use ltrf_sweep::{registry, run_sweep, CampaignParams, ExecutorOptions, SweepSpec};

/// Narrowed `--quick` campaign parameters the tests share: one topology and
/// a short SM axis, under the fixed campaign seed.
fn params(topology: Topology, sm_counts: &[usize]) -> CampaignParams {
    CampaignParams {
        quick: true,
        topology: Some(topology),
        sm_counts: Some(sm_counts.to_vec()),
        ..CampaignParams::default()
    }
}

/// The campaign's one spec under `params`, kept to `workloads` of the quick
/// subset — small enough for the debug test profile while still crossing
/// the shared-memory path (sm_count > 1).
fn interconnect_spec(params: &CampaignParams, workloads: &[&str]) -> SweepSpec {
    let campaign = registry().find("interconnect").unwrap();
    let mut spec = campaign.specs(params).unwrap().remove(0);
    spec.points
        .retain(|point| workloads.contains(&point.workload.as_str()));
    spec
}

/// A fresh per-process scratch directory (removed and recreated so a stale
/// cache from a previous run can never turn a cold assertion warm).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltrf-interconnect-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn warm_reruns_hit_and_topology_changes_miss() {
    let cache = temp_dir("cache");
    let options = ExecutorOptions {
        cache_dir: Some(cache.clone()),
        ..ExecutorOptions::default()
    };

    let crossbar = &interconnect_spec(&params(Topology::Crossbar, &[1, 2]), &["hotspot"]);
    let cold = run_sweep(crossbar, &options);
    assert_eq!(cold.failure_count(), 0);
    assert_eq!(cold.cached_count(), 0, "cold run computes everything");

    let warm = run_sweep(crossbar, &options);
    assert_eq!(
        warm.cached_count(),
        warm.len(),
        "an identical rerun hits the cache 100%"
    );

    // Changing the topology is new cache-key material on every point.
    let mesh = &interconnect_spec(&params(Topology::Mesh2D, &[1, 2]), &["hotspot"]);
    let mesh_run = run_sweep(mesh, &options);
    assert_eq!(mesh_run.cached_count(), 0, "a new topology misses 100%");

    // So is changing any link-provisioning knob of an already-cached
    // topology.
    let narrow = CampaignParams {
        link_width: Some(16),
        ..params(Topology::Crossbar, &[1, 2])
    };
    let narrow_spec = &interconnect_spec(&narrow, &["hotspot"]);
    let narrow_run = run_sweep(narrow_spec, &options);
    assert_eq!(narrow_run.cached_count(), 0, "a new link width misses 100%");

    // The ideal spec at default provisioning carries the *default* network,
    // which is elided from cache keys: its identity is exactly the
    // pre-interconnect identity of the same experiment.
    let ideal = &interconnect_spec(&params(Topology::Ideal, &[1, 2]), &["hotspot"]);
    let ideal_cold = run_sweep(ideal, &options);
    assert_eq!(ideal_cold.cached_count(), 0);
    let ideal_warm = run_sweep(ideal, &options);
    assert_eq!(ideal_warm.cached_count(), ideal_warm.len());

    let _ = std::fs::remove_dir_all(&cache);
}

/// Path of the committed fixture (source-relative, so the test can bless it).
fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/interconnect-crossbar.csv")
}

/// Normalizes CSV text for comparison: line endings and trailing whitespace
/// only — the engine is deterministic, so exact equality is the contract.
fn normalize(text: &str) -> Vec<String> {
    text.replace("\r\n", "\n")
        .lines()
        .map(|line| line.trim_end().to_string())
        .filter(|line| !line.is_empty())
        .collect()
}

#[test]
fn interconnect_crossbar_csv_matches_the_committed_golden_file() {
    let spec = &interconnect_spec(&params(Topology::Crossbar, &[1, 4]), &["hotspot", "btree"]);
    // Uncached: provenance columns must read `false` in the fixture no
    // matter what caches exist on the developer's machine.
    let results = run_sweep(spec, &ExecutorOptions::default());
    assert_eq!(results.failure_count(), 0, "crossbar points all succeed");

    // The interconnect campaign writes the extended schema.
    let schema = CsvSchema::for_spec(spec);
    assert_eq!(schema, CsvSchema::Interconnect);
    let mut csv = schema.header();
    csv.push('\n');
    for record in &results.records {
        csv.push_str(&schema.row(record));
        csv.push('\n');
    }

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
             LTRF_BLESS=1 cargo test -p ltrf-sweep --test interconnect",
            path.display()
        )
    });
    let expected = normalize(&golden);
    let actual = normalize(&csv);
    for (i, (want, got)) in expected.iter().zip(actual.iter()).enumerate() {
        assert_eq!(
            want,
            got,
            "interconnect CSV line {} drifted from the golden file (an \
             intentional change must re-bless the fixture with LTRF_BLESS=1)",
            i + 1
        );
    }
    assert_eq!(expected.len(), actual.len(), "row count drifted");

    // Structural guarantees the fixture encodes: every row carries the 33
    // columns, 4-SM rows show real network latency, and 1-SM rows (which
    // never touch the shared network) report zeros.
    let header = &actual[0];
    assert_eq!(
        header.split(',').count(),
        CSV_COLUMNS.len() + INTERCONNECT_CSV_COLUMNS.len()
    );
    for row in &actual[1..] {
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields[3], "LTRF");
        assert_eq!(fields[23], "crossbar", "topology column");
        let sm_count: usize = fields[8].parse().unwrap();
        let noc_mean: f64 = fields[30].parse().unwrap();
        if sm_count == 1 {
            assert_eq!(noc_mean, 0.0, "single-SM rows never route messages");
        } else {
            assert!(noc_mean > 0.0, "multi-SM crossbar rows pay NoC latency");
        }
    }
}

#[test]
fn crossbar_and_mesh_diverge_at_sixteen_sms() {
    let crossbar_spec = &interconnect_spec(&params(Topology::Crossbar, &[16]), &["hotspot"]);
    let mesh_spec = &interconnect_spec(&params(Topology::Mesh2D, &[16]), &["hotspot"]);
    let options = ExecutorOptions::default();
    let crossbar = run_sweep(crossbar_spec, &options);
    let mesh = run_sweep(mesh_spec, &options);
    assert_eq!(crossbar.failure_count() + mesh.failure_count(), 0);

    let stats = |results: &ltrf_sweep::SweepResults| {
        let (_, data) = results.successes().next().expect("one success");
        let memory = data.result.stats.memory;
        (memory.l2_queue_wait_cycles, memory.noc.mean_latency())
    };
    let (xbar_wait, xbar_latency) = stats(&crossbar);
    let (mesh_wait, mesh_latency) = stats(&mesh);
    assert!(xbar_latency > 0.0 && mesh_latency > 0.0);
    // The two topologies must be *measurably* different — not better or
    // worse in a fixed order (short mesh routes can beat the crossbar's
    // two-stage path; congested shared edges can lose to it), just
    // distinguishable in the contention profile they produce.
    assert!(
        (xbar_wait, xbar_latency) != (mesh_wait, mesh_latency),
        "topologies must be measurably different at 16 SMs: \
         crossbar ({xbar_wait}, {xbar_latency}) vs mesh ({mesh_wait}, {mesh_latency})"
    );
}
