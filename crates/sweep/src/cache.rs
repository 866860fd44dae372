//! Content-addressed result cache.
//!
//! Every sweep point is identified by the SHA-256 digest of its *key
//! material*: the canonical JSON of everything that determines its result —
//! schema version, seeding policy, normalization policy, workload name,
//! memory selection, and the full [`ExperimentConfig`] (via
//! [`ExperimentConfig::cache_key_value`]). A cache entry stores the key
//! material alongside the outcome, so entries are self-describing and a
//! digest can be re-verified with standard tools.
//!
//! Entries live in packed append-only segment files under
//! `<cache>/segments/` (see [`crate::packed`]) — a handful of files instead
//! of one per point, which is what keeps 10k+-point campaigns from
//! exhausting inodes. It is the only store format.
//!
//! Stores are crash-ordered (payload flushed before the index line that
//! makes it reachable), so concurrent workers — or concurrent sweep
//! processes — never observe torn entries. Loads are tolerant: anything
//! unreadable or unparsable is treated as a miss and recomputed.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use ltrf_core::ExperimentConfig;

use crate::hash::{digest_to_seed, sha256, to_hex};
use crate::packed::PackedStore;
use crate::spec::{SeedMode, SweepPoint, SweepSpec};

/// Bump when the result encoding changes; old entries then simply miss.
///
/// v2: `ExperimentConfig` gained `sm_count` (and `RunResult` the optional
/// `gpu` stats), which changes every point's key material and encoding —
/// all v1 entries are invalid, including their `PerPoint`-derived seeds.
///
/// v3: `ExperimentConfig` gained `power` (the [`ltrf_tech::PowerParams`]
/// calibration of the register-file power model), again changing every
/// point's key material; all v2 entries and their `PerPoint` seeds are
/// invalid.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// Engine fingerprint mixed into every cache key: the workspace version.
/// Changing simulator/compiler behaviour without bumping the workspace
/// version (or [`CACHE_SCHEMA_VERSION`]) leaves stale entries valid — during
/// development, pass `--force` / set `force_recompute` after behavioural
/// changes, or delete the cache directory. Release-to-release, the version
/// bump invalidates everything automatically.
pub const ENGINE_FINGERPRINT: &str = env!("CARGO_PKG_VERSION");

/// The identity of a sweep point, fully resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct PointKey {
    /// Canonical JSON string hashed into the digest.
    pub material: String,
    /// Lowercase-hex SHA-256 of the material.
    pub digest_hex: String,
    /// The simulation seed this point runs with.
    pub seed: u64,
}

/// Computes a point's identity under a spec's policies.
///
/// Generated-population points additionally serialize their full
/// [`GeneratedWorkload`](crate::spec::GeneratedWorkload) identity — the
/// population seed, member index, and every generator bound — so a warm rerun
/// of the same campaign hits 100% while changing the seed or any bound
/// misses. Trace points likewise serialize their
/// [`TraceWorkloadId`](ltrf_trace::TraceWorkloadId) — path, content
/// fingerprint, and lowering bounds — so editing the trace file (or moving
/// it) misses while a byte-identical rerun hits. Suite points carry neither
/// entry, which keeps their key material (and therefore existing cache
/// populations) byte-identical to before either axis existed.
#[must_use]
pub fn point_key(spec: &SweepSpec, point: &SweepPoint) -> PointKey {
    let mut fields = vec![
        (
            "version".to_string(),
            Value::UInt(u64::from(CACHE_SCHEMA_VERSION)),
        ),
        (
            "engine".to_string(),
            Value::Str(ENGINE_FINGERPRINT.to_string()),
        ),
        (
            "seed_mode".to_string(),
            Serialize::to_value(&spec.seed_mode),
        ),
        ("normalize".to_string(), Value::Bool(spec.normalize)),
        ("workload".to_string(), Value::Str(point.workload.clone())),
        ("memory".to_string(), Serialize::to_value(&point.memory)),
        (
            "config".to_string(),
            ExperimentConfig::cache_key_value(&point.config),
        ),
    ];
    if let Some(generated) = &point.generated {
        fields.push(("generated".to_string(), Serialize::to_value(generated)));
    }
    if let Some(trace) = &point.trace {
        fields.push(("trace".to_string(), Serialize::to_value(trace)));
    }
    let material = Value::Object(fields).to_json();
    let digest = sha256(material.as_bytes());
    let seed = match spec.seed_mode {
        SeedMode::Fixed(seed) => seed,
        SeedMode::PerPoint(base) => base ^ digest_to_seed(&digest),
    };
    PointKey {
        material,
        digest_hex: to_hex(&digest),
        seed,
    }
}

/// An on-disk content-addressed store of point outcomes.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    packed: PackedStore,
}

/// What a cache entry holds on disk. The outcome stays an untyped [`Value`]
/// here; [`ResultCache::load`] decodes it into the caller's type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    /// The key material the entry was stored under (self-description).
    key_material: String,
    /// The cached outcome.
    outcome: Value,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let packed = PackedStore::open(dir.join("segments"))?;
        Ok(ResultCache { dir, packed })
    }

    /// The cache's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads the outcome stored under `key`, verifying the key material.
    /// Any failure — missing entry, torn write, schema drift, digest
    /// collision — is a miss.
    #[must_use]
    pub fn load<T: Deserialize>(&self, key: &PointKey) -> Option<T> {
        let text = self.packed.load(&key.digest_hex)?;
        let entry: CacheEntry = serde::from_json_str(&text).ok()?;
        if entry.key_material != key.material {
            return None;
        }
        T::from_value(&entry.outcome).ok()
    }

    /// Stores `outcome` under `key` in the packed segment store.
    ///
    /// Durability discipline: the payload is framed and flushed before the
    /// index line that makes it reachable is appended, so a kill mid-store
    /// degrades to a miss, never a torn entry.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers may treat a failed store as
    /// non-fatal (the result is still returned to the campaign).
    pub fn store<T: Serialize>(&self, key: &PointKey, outcome: &T) -> std::io::Result<()> {
        let entry = CacheEntry {
            key_material: key.material.clone(),
            outcome: outcome.to_value(),
        };
        self.packed
            .store(&key.digest_hex, &serde::to_json_string(&entry))
    }

    /// Number of distinct entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn test_spec() -> SweepSpec {
        SweepSpec::builder("cache-test")
            .workloads(["hotspot", "btree"])
            .seed_mode(SeedMode::PerPoint(42))
            .build()
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        let spec = test_spec();
        let a1 = point_key(&spec, &spec.points[0]);
        let a2 = point_key(&spec, &spec.points[0]);
        let b = point_key(&spec, &spec.points[1]);
        assert_eq!(a1, a2);
        assert_ne!(a1.digest_hex, b.digest_hex);
        assert_ne!(a1.seed, b.seed, "per-point seeds decorrelate points");
        assert_eq!(a1.digest_hex.len(), 64);
    }

    #[test]
    fn fixed_seed_mode_pins_every_point() {
        let spec = SweepSpec::builder("fixed")
            .workloads(["hotspot", "btree"])
            .seed_mode(SeedMode::Fixed(7))
            .build();
        assert!(spec.points.iter().all(|p| point_key(&spec, p).seed == 7));
    }

    #[test]
    fn generated_identity_is_key_material() {
        use ltrf_workloads::GeneratorConfig;

        let spec = SweepSpec::builder("gen-keys")
            .generated_population(7, 2, GeneratorConfig::default())
            .seed_mode(SeedMode::Fixed(1))
            .build();
        let a = point_key(&spec, &spec.points[0]);
        assert!(
            a.material.contains("\"generated\""),
            "population points serialize their identity: {}",
            a.material
        );
        // Same campaign, different population seed: every digest changes.
        let reseeded = SweepSpec::builder("gen-keys")
            .generated_population(8, 2, GeneratorConfig::default())
            .seed_mode(SeedMode::Fixed(1))
            .build();
        assert_ne!(
            point_key(&spec, &spec.points[0]).digest_hex,
            point_key(&reseeded, &reseeded.points[0]).digest_hex
        );
        // Changing one generator bound changes the digest too.
        let widened = SweepSpec::builder("gen-keys")
            .generated_population(
                7,
                2,
                GeneratorConfig {
                    max_regs: 96,
                    ..GeneratorConfig::default()
                },
            )
            .seed_mode(SeedMode::Fixed(1))
            .build();
        assert_ne!(
            point_key(&spec, &spec.points[0]).digest_hex,
            point_key(&widened, &widened.points[0]).digest_hex
        );
        // Suite points' material is unchanged by the new axis (no
        // "generated" entry), so pre-existing caches keep hitting.
        let suite = test_spec();
        assert!(!point_key(&suite, &suite.points[0])
            .material
            .contains("generated"));
    }

    #[test]
    fn trace_identity_is_key_material() {
        use ltrf_trace::{LoweringBounds, TraceWorkloadId};

        let id = TraceWorkloadId {
            path: "examples/traces/straight_line.trace".to_string(),
            content_hash: "cbf29ce484222325".to_string(),
            bounds: LoweringBounds::default(),
        };
        let spec = SweepSpec::builder("trace-keys")
            .trace_population([id.clone()])
            .seed_mode(SeedMode::Fixed(1))
            .build();
        let a = point_key(&spec, &spec.points[0]);
        assert!(
            a.material.contains("\"trace\"") && a.material.contains("cbf29ce484222325"),
            "trace points serialize their identity: {}",
            a.material
        );
        // Same path, different content fingerprint: every digest changes.
        let edited = SweepSpec::builder("trace-keys")
            .trace_population([TraceWorkloadId {
                content_hash: "0000000000000000".to_string(),
                ..id.clone()
            }])
            .seed_mode(SeedMode::Fixed(1))
            .build();
        assert_ne!(
            point_key(&spec, &spec.points[0]).digest_hex,
            point_key(&edited, &edited.points[0]).digest_hex
        );
        // Tighter lowering bounds change the digest too.
        let bounded = SweepSpec::builder("trace-keys")
            .trace_population([id.with_bounds(LoweringBounds {
                max_dynamic_instructions: 1000,
                max_blocks: 64,
            })])
            .seed_mode(SeedMode::Fixed(1))
            .build();
        assert_ne!(
            point_key(&spec, &spec.points[0]).digest_hex,
            point_key(&bounded, &bounded.points[0]).digest_hex
        );
        // Suite points' material is unchanged by the trace axis.
        let suite = test_spec();
        assert!(!point_key(&suite, &suite.points[0])
            .material
            .contains("trace"));
    }

    #[test]
    fn store_load_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("ltrf-sweep-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let spec = test_spec();
        let key = point_key(&spec, &spec.points[0]);
        assert!(cache.load::<f64>(&key).is_none());
        cache.store(&key, &1.25f64).unwrap();
        assert_eq!(cache.load::<f64>(&key), Some(1.25));
        assert_eq!(cache.len(), 1);
        // Entries survive a reopen (the packed index is rebuilt from disk).
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.load::<f64>(&key), Some(1.25));
        // A corrupted segment is a miss, not an error.
        for entry in fs::read_dir(dir.join("segments"))
            .unwrap()
            .filter_map(Result::ok)
        {
            if entry.path().extension().is_some_and(|ext| ext == "pack") {
                fs::write(entry.path(), "garbage").unwrap();
            }
        }
        let corrupted = ResultCache::open(&dir).unwrap();
        assert!(corrupted.load::<f64>(&key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
