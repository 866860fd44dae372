//! The `sweep` CLI exits quietly when its reader has gone away.
//!
//! `sweep … | head` closes the pipe after the lines it wants. The CLI's
//! next write then fails with a broken pipe, which must end the process
//! with success and nothing on stderr: no "failed printing to stdout"
//! panic, no backtrace. Each case here closes the reader before the CLI
//! starts, so its very first write is the one that fails.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltrf-broken-pipe-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `sweep args…` with its stdout on a pipe whose read end is closed.
fn run_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run the sweep binary")
}

#[test]
fn a_closed_reader_ends_every_output_path_quietly() {
    let out = temp_dir("out");
    let cache = temp_dir("cache");
    let (out, cache) = (out.to_str().unwrap(), cache.to_str().unwrap());
    let cases: [&[&str]; 5] = [
        // An analytical renderer.
        &["fig2"],
        // The CLI's own listing.
        &["list"],
        // A simulated campaign's preamble, before any point runs.
        &["table2", "--quick", "--out", out, "--cache", cache],
        // The `--progress json` event stream.
        &[
            "gen-campaign",
            "--population",
            "2",
            "--progress",
            "json",
            "--out",
            out,
            "--cache",
            cache,
        ],
        // `describe`.
        &["describe", "fig9"],
    ];
    for args in cases {
        let output = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
            "sweep {args:?} into a closed pipe wrote to stderr:\n{stderr}"
        );
        assert!(
            output.status.success(),
            "sweep {args:?} into a closed pipe exited with {}",
            output.status
        );
    }
    let _ = std::fs::remove_dir_all(out);
    let _ = std::fs::remove_dir_all(cache);
}
