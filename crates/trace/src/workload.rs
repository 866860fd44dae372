//! Trace identity and the [`Workload`] adapter.
//!
//! A [`TraceWorkloadId`] is everything a sweep point needs to both *name* a
//! trace-driven workload (for cache keys: path, content fingerprint, and the
//! lowering bounds) and *rebuild* it on demand ([`TraceWorkloadId::materialize`]
//! re-reads, re-verifies, re-parses, and re-lowers the file). Materialized
//! workloads expose exactly the interface the `ltrf-workloads` suites do,
//! including `kernel_for_sm_count` weak scaling, so the sweep executor treats
//! them like any other workload.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use ltrf_workloads::{BenchmarkSuite, Workload, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::lower::{lower, memory_profile};
use crate::{parse_str, TraceError};

/// Limits on the lowering pass; part of a trace workload's cache identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoweringBounds {
    /// Maximum dynamic instructions in the witness warp stream (also the
    /// replay cap used when walking the lowered kernel).
    pub max_dynamic_instructions: u64,
    /// Maximum basic blocks the reconstruction may produce.
    pub max_blocks: usize,
}

impl Default for LoweringBounds {
    fn default() -> Self {
        LoweringBounds {
            max_dynamic_instructions: 1_000_000,
            max_blocks: 4096,
        }
    }
}

/// FNV-1a 64-bit fingerprint of a trace's raw bytes, as 16 hex digits.
///
/// This is a change detector for cache identity, not a cryptographic hash;
/// the sweep cache hashes the full key material (including this fingerprint)
/// with SHA-256 on its own.
#[must_use]
pub(crate) fn content_fingerprint(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Interns a workload name so it can live in a `&'static str` spec field.
/// Repeated materializations of the same trace reuse one allocation.
fn interned_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("name table is never poisoned");
    if let Some(&existing) = names.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(name.to_string(), leaked);
    leaked
}

/// The durable identity of a trace-driven workload.
///
/// Serialized into sweep cache-key material: two points agree on their trace
/// axis if and only if they name the same file *content* (not just path)
/// lowered under the same bounds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceWorkloadId {
    /// Path of the trace file, as given on the command line.
    pub path: String,
    /// The FNV-1a fingerprint (16 hex digits) of the file's bytes at
    /// identity-capture time.
    pub content_hash: String,
    /// Bounds the trace will be lowered under.
    pub bounds: LoweringBounds,
}

impl TraceWorkloadId {
    /// Captures the identity of the trace at `path` (reads the file once to
    /// fingerprint it) with default bounds.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file cannot be read.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(TraceWorkloadId {
            path: path.display().to_string(),
            content_hash: content_fingerprint(&bytes),
            bounds: LoweringBounds::default(),
        })
    }

    /// The workload name this trace runs under: `trace:<file-stem>`.
    #[must_use]
    pub fn workload_name(&self) -> &'static str {
        let stem = Path::new(&self.path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed".to_string());
        interned_name(&format!("trace:{stem}"))
    }

    /// Re-reads, verifies, parses, and lowers the trace into a [`Workload`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`TraceError`] if the file is unreadable, its content
    /// no longer matches the recorded fingerprint, or it fails to parse or
    /// lower. Callers in the sweep executor turn these into per-point
    /// failures; nothing here panics on bad input.
    pub fn materialize(&self) -> Result<Workload, TraceError> {
        let bytes = std::fs::read(&self.path).map_err(|e| TraceError::Io {
            path: self.path.clone(),
            message: e.to_string(),
        })?;
        let actual = content_fingerprint(&bytes);
        if actual != self.content_hash {
            return Err(TraceError::ContentChanged {
                path: self.path.clone(),
                expected: self.content_hash.clone(),
                actual,
            });
        }
        let text = String::from_utf8_lossy(&bytes);
        let trace = parse_str(&text)?;
        let lowered = lower(&trace, &self.bounds)?;
        let kernel = lowered.kernel;
        let spec = WorkloadSpec {
            name: self.workload_name(),
            suite: BenchmarkSuite::Traced,
            regs_per_thread: kernel.regs_per_thread(),
            unconstrained_regs_per_thread: kernel.regs_per_thread(),
            sensitivity: kernel.sensitivity(),
            // The loop-nest shape fields describe synthetic suite kernels;
            // a traced kernel's structure lives in its CFG instead.
            outer_trips: 1,
            inner_trips: 1,
            body_alu: 0,
            body_loads: 0,
            body_shared: 0,
            body_sfu: 0,
            barrier_per_outer: false,
            memory: memory_profile(&trace),
            warps_per_block: kernel.launch().warps_per_block,
            blocks_per_grid: kernel.launch().blocks_per_grid,
        };
        Ok(Workload { spec, kernel })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = "\
-kernel name = unit
-grid dim = (4,1,1)
-block dim = (64,1,1)
-nregs = 48
warp = 0
0000 ffffffff 1 R0 MOV 0 0
0008 ffffffff 1 R1 LDG 1 R0 4 0x1000
0010 ffffffff 0 EXIT 0 0
";

    fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("ltrf-trace-{}-{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        assert_eq!(content_fingerprint(b""), "cbf29ce484222325");
        assert_eq!(content_fingerprint(b"a"), content_fingerprint(b"a"));
        assert_ne!(content_fingerprint(b"a"), content_fingerprint(b"b"));
    }

    #[test]
    fn materialize_builds_a_suite_compatible_workload() {
        let path = write_temp("ok.trace", TRACE);
        let id = TraceWorkloadId::from_path(&path).unwrap();
        let w = id.materialize().unwrap();
        assert!(w.name().starts_with("trace:"));
        assert_eq!(w.spec.suite, BenchmarkSuite::Traced);
        assert_eq!(w.spec.regs_per_thread, 48);
        assert!(w.is_register_sensitive());
        assert_eq!(w.kernel.launch().warps_per_block, 2);
        assert_eq!(w.kernel.launch().blocks_per_grid, 4);
        // Weak scaling works exactly like suite workloads.
        assert_eq!(w.kernel_for_sm_count(4).launch().blocks_per_grid, 16);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn names_are_interned_per_trace_stem() {
        let path = write_temp("stem.trace", TRACE);
        let a = TraceWorkloadId::from_path(&path).unwrap().workload_name();
        let b = TraceWorkloadId::from_path(&path).unwrap().workload_name();
        assert_eq!(a.as_ptr(), b.as_ptr(), "same stem, same allocation");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn content_change_is_detected_at_materialize_time() {
        let path = write_temp("drift.trace", TRACE);
        let id = TraceWorkloadId::from_path(&path).unwrap();
        std::fs::write(&path, TRACE.replace("-nregs = 48", "-nregs = 12")).unwrap();
        let err = id.materialize().unwrap_err();
        assert!(matches!(err, TraceError::ContentChanged { .. }), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let err = TraceWorkloadId::from_path("/no/such/file.trace").unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }));
        let id = TraceWorkloadId {
            path: "/no/such/file.trace".to_string(),
            content_hash: "0".repeat(16),
            bounds: LoweringBounds::default(),
        };
        assert!(matches!(
            id.materialize().unwrap_err(),
            TraceError::Io { .. }
        ));
    }

    #[test]
    fn identity_round_trips_through_json() {
        let id = TraceWorkloadId {
            path: "examples/traces/straight_line.trace".to_string(),
            content_hash: "00ff00ff00ff00ff".to_string(),
            bounds: LoweringBounds {
                max_dynamic_instructions: 77,
                max_blocks: 5,
            },
        };
        let json = serde::to_json_string(&id);
        let back: TraceWorkloadId = serde::from_json_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
