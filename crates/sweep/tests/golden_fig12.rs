//! Golden-file regression test for the `sweep fig12` CSV output.
//!
//! The campaign spec comes from the registry row the CLI dispatches to,
//! with `--quick`'s parameters (the four-workload subset and the fixed
//! campaign seed) — so the committed fixture pins the exact rows `sweep
//! fig12 --quick` emits. Figure 12 exercises axes the fig9 golden file does not (the
//! latency-factor and registers-per-interval cross-product, un-normalized
//! relative-IPC reporting), so together the two fixtures cover both spec
//! shapes the artifact atlas is built from.
//!
//! When an *intentional* behaviour change shifts the numbers, regenerate the
//! fixture and review the diff like any other code change:
//!
//! ```text
//! LTRF_BLESS=1 cargo test -p ltrf-sweep --test golden_fig12
//! ```

use std::path::PathBuf;

use ltrf_sweep::{registry, report, run_sweep, CampaignParams, ExecutorOptions};

/// Path of the committed fixture (source-relative, so the test can bless it).
fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig12-quick.csv")
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
fn fig12_quick_csv_matches_the_committed_golden_file() {
    let quick = CampaignParams {
        quick: true,
        ..CampaignParams::default()
    };
    let spec = registry()
        .find("fig12")
        .unwrap()
        .specs(&quick)
        .unwrap()
        .remove(0);
    // Uncached: provenance columns must read `false` in the fixture no
    // matter what caches exist on the developer's machine.
    let results = run_sweep(&spec, &ExecutorOptions::default());
    assert_eq!(results.failure_count(), 0, "fig12 quick points all succeed");
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
             LTRF_BLESS=1 cargo test -p ltrf-sweep --test golden_fig12",
            path.display()
        )
    });
    let expected = normalize(&golden);
    let actual = normalize(&csv);

    // Compare line by line for actionable failures before the final
    // whole-file assertion.
    for (i, (want, got)) in expected.iter().zip(actual.iter()).enumerate() {
        assert_eq!(
            want,
            got,
            "fig12 CSV line {} drifted from the golden file (an intentional \
             change must re-bless the fixture with LTRF_BLESS=1)",
            i + 1
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "fig12 CSV row count drifted from the golden file"
    );
}
