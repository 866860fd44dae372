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
//! Stores are crash-ordered (payload written before the index line that
//! makes it reachable), so concurrent workers — or concurrent sweep
//! processes — never observe torn entries. Loads are tolerant: anything
//! unreadable or unparsable is treated as a miss and recomputed.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use ltrf_core::{ExperimentConfig, InterconnectConfig};

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
    // Normalized multi-SM points on a non-default network were once divided
    // by a reference on the ideal network; they now normalize against the
    // same network (`ltrf_core::reference_config`). The marker makes their
    // old outcomes miss while every other key stays byte-identical. At one
    // SM the network is not simulated, so those outcomes stand unmarked.
    if spec.normalize
        && point.config.sm_count > 1
        && point.config.interconnect != InterconnectConfig::default()
    {
        fields.push((
            "reference".to_string(),
            Value::Str("same-interconnect".to_string()),
        ));
    }
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

/// The start of the entry stored under `material`, up to the outcome:
/// `{"key_material":<material as a JSON string>,"outcome":`. An entry is
/// this prefix, the outcome's canonical JSON, and a closing `}`: the
/// encoding of a `{key_material, outcome}` object in field order.
fn entry_prefix(material: &str) -> String {
    format!(
        "{{\"key_material\":{},\"outcome\":",
        serde::to_json_string(material)
    )
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
    /// The entry must start with [`entry_prefix`] of the key's material,
    /// byte for byte, and the rest must be exactly one outcome value and
    /// the closing brace. Any failure — missing entry, torn write, checksum
    /// mismatch, schema drift, digest collision, non-canonical bytes — is a
    /// miss.
    #[must_use]
    pub fn load<T: Deserialize>(&self, key: &PointKey) -> Option<T> {
        let text = self.packed.load(&key.digest_hex)?;
        let outcome = text
            .strip_prefix(entry_prefix(&key.material).as_str())?
            .strip_suffix('}')?;
        serde::from_json_str(outcome).ok()
    }

    /// Stores `outcome` under `key` in the packed segment store.
    ///
    /// Durability discipline: the payload is framed and written before the
    /// index line that makes it reachable is appended, so a kill mid-store
    /// degrades to a miss, never a torn entry.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers may treat a failed store as
    /// non-fatal (the result is still returned to the campaign).
    pub fn store<T: Serialize>(&self, key: &PointKey, outcome: &T) -> std::io::Result<()> {
        let mut entry = entry_prefix(&key.material);
        entry.push_str(&outcome.to_value().to_json());
        entry.push('}');
        self.packed.store(&key.digest_hex, &entry)
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
    fn only_normalized_points_on_a_non_default_network_carry_the_reference_marker() {
        let crossbar = InterconnectConfig {
            topology: ltrf_core::Topology::Crossbar,
            ..InterconnectConfig::default()
        };
        let build_at = |sm_count: usize, normalize: bool, interconnect: InterconnectConfig| {
            SweepSpec::builder("marker")
                .workloads(["hotspot"])
                .sm_counts([sm_count])
                .interconnect(interconnect)
                .normalize(normalize)
                .build()
        };
        let build = |normalize: bool, interconnect: InterconnectConfig| {
            build_at(4, normalize, interconnect)
        };
        let marked = |spec: &SweepSpec| {
            point_key(spec, &spec.points[0])
                .material
                .contains("\"reference\":\"same-interconnect\"")
        };
        assert!(marked(&build(true, crossbar)));
        assert!(!marked(&build(false, crossbar)));
        assert!(!marked(&build(true, InterconnectConfig::default())));
        assert!(!marked(&build(false, InterconnectConfig::default())));
        // At one SM the network is not simulated: the outcome stands.
        assert!(!marked(&build_at(1, true, crossbar)));
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

    /// One point of each kind, pinned to its digest and seed. A JSON writer
    /// change that moves any of these orphans every existing cache entry,
    /// and under `--per-point-seeds` changes simulated results too.
    #[test]
    fn point_keys_are_pinned() {
        use crate::api::{registry, CampaignParams};
        use crate::campaigns::{trace_campaign_spec, TraceCampaignParams};
        use ltrf_sim::Topology;
        use ltrf_trace::{LoweringBounds, TraceWorkloadId};

        let specs = |campaign: &str, params: CampaignParams| {
            registry()
                .find(campaign)
                .expect("registered campaign")
                .specs(&CampaignParams {
                    quick: true,
                    ..params
                })
                .expect("valid parameters")
        };
        let fig9 = specs("fig9", CampaignParams::default()).remove(0);
        let power = specs(
            "power",
            CampaignParams {
                access_energy_pj: Some(75.5),
                dwm_write_penalty: Some(1.25),
                ..CampaignParams::default()
            },
        )
        .remove(0);
        let gen = specs(
            "gen-campaign",
            CampaignParams {
                population: Some(4),
                ..CampaignParams::default()
            },
        )
        .remove(0);
        let trace = trace_campaign_spec(&TraceCampaignParams::new(vec![TraceWorkloadId {
            path: "examples/traces/straight_line.trace".to_string(),
            content_hash: "cbf29ce484222325".to_string(),
            bounds: LoweringBounds::default(),
        }]));
        let mesh = specs(
            "interconnect",
            CampaignParams {
                topology: Some(Topology::Mesh2D),
                ..CampaignParams::default()
            },
        )
        .remove(0);
        let per_point = specs(
            "fig9",
            CampaignParams {
                per_point_seeds: true,
                ..CampaignParams::default()
            },
        )
        .remove(0);

        // Kind, spec, point, a marker of the kind in the material, digest, seed.
        let cases: [(&str, &SweepSpec, usize, &str, &str, u64); 6] = [
            (
                "fig9",
                &fig9,
                7,
                "\"Fixed\"",
                "3c3198419c7b2beaa494071c7e7a9e93e637f44c1e068c94374dba59e37298bb",
                401_743_896,
            ),
            (
                "power",
                &power,
                3,
                "75.5",
                "cba5450417ee44d8c33b4a10d6c6efa88052c40f2a2850bc237d52bde9967c59",
                401_743_896,
            ),
            (
                "gen-campaign",
                &gen,
                5,
                "\"generated\"",
                "9ac121d436e7a0582c0bfaa6a67568884c9700e32b103a6c8cc81a6b8f6dfda3",
                401_743_896,
            ),
            (
                "trace-campaign",
                &trace,
                1,
                "\"trace\"",
                "43832f12ef3ef25355082f0e579ff0a815129d4ac5f8593dd5d35500ca101975",
                401_743_896,
            ),
            (
                "interconnect mesh",
                &mesh,
                11,
                "\"Mesh2D\"",
                "f00131e3a8585dd0f81e1d1a297e4a7ad6da03ce85fb5de007a6b5e5dca1ab4b",
                401_743_896,
            ),
            (
                "fig9 per-point seeds",
                &per_point,
                7,
                "\"PerPoint\"",
                "fee7cff9bac234b7cd42bab01d75602a5cfda900d04c1bc57cf6867a782fea78",
                18_367_878_276_513_273_007,
            ),
        ];
        let actual: Vec<String> = cases
            .iter()
            .map(|(kind, spec, index, marker, _, _)| {
                let key = point_key(spec, &spec.points[*index]);
                assert!(key.material.contains(marker), "{kind}: {}", key.material);
                format!("{kind}: {} {}", key.digest_hex, key.seed)
            })
            .collect();
        let pinned: Vec<String> = cases
            .iter()
            .map(|(kind, _, _, _, digest, seed)| format!("{kind}: {digest} {seed}"))
            .collect();
        assert_eq!(actual, pinned, "a cache key moved");
    }

    /// An entry is the encoding of a `{key_material, outcome}` object in
    /// field order. A hit needs that exact prefix for the key's material
    /// and exactly one value after it, so anything else under the right
    /// digest misses.
    #[test]
    fn entries_are_canonical_and_anything_else_misses() {
        let dir =
            std::env::temp_dir().join(format!("ltrf-sweep-cache-canonical-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let spec = test_spec();
        let key = point_key(&spec, &spec.points[0]);
        let outcome = vec![1.5f64, -2.0];
        cache.store(&key, &outcome).unwrap();
        let entry = Value::Object(vec![
            ("key_material".to_string(), Value::Str(key.material.clone())),
            ("outcome".to_string(), outcome.to_value()),
        ]);
        assert_eq!(cache.packed.load(&key.digest_hex), Some(entry.to_json()));
        assert_eq!(cache.load::<Vec<f64>>(&key), Some(outcome));

        let collided = PointKey {
            material: key.material.replace("hotspot", "hotspoT"),
            ..key.clone()
        };
        assert!(
            cache.load::<Vec<f64>>(&collided).is_none(),
            "same digest, other material"
        );
        let material = serde::to_json_string(&key.material);
        for payload in [
            format!("{{\"key_material\":{material},\"outcome\":[1.5,-2.0],\"extra\":1}}"),
            format!("{{\"key_material\":{material},\"outcome\":[1.5,-2.0]"),
            format!("{{\"outcome\":[1.5,-2.0],\"key_material\":{material}}}"),
            format!("{{ \"key_material\":{material},\"outcome\":[1.5,-2.0]}}"),
        ] {
            cache.packed.store(&key.digest_hex, &payload).unwrap();
            assert!(cache.load::<Vec<f64>>(&key).is_none(), "{payload}");
        }
        let _ = fs::remove_dir_all(&dir);
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
