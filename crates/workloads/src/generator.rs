//! Random workload generation.
//!
//! Beyond the fixed evaluated suite, the benchmark harness and the property
//! tests use randomly generated — but structurally realistic — workloads to
//! probe the compiler and the register-file organizations over a much wider
//! space of register pressures, loop shapes, and instruction mixes.
//!
//! Two access patterns are supported:
//!
//! * the *streaming* API ([`WorkloadGenerator::next_workload`] /
//!   [`WorkloadGenerator::generate`]) draws workloads from one sequential RNG,
//!   so member `i` depends on every draw before it;
//! * the *population* API ([`WorkloadGenerator::population_with_config`] /
//!   [`WorkloadGenerator::population_member`]) derives an independent seed per
//!   member index (splitmix64 over the population seed), so member `i` of a
//!   population is the same workload no matter how many other members are
//!   materialized — the index-stable identity the `ltrf-sweep` engine
//!   content-addresses generated campaign points with.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ltrf_isa::RegisterSensitivity;

use crate::spec::{BenchmarkSuite, MemoryProfile, Workload, WorkloadSpec};

/// Bounds for the random generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Minimum registers per thread.
    pub min_regs: u16,
    /// Maximum registers per thread.
    pub max_regs: u16,
    /// Maximum outer-loop trip count.
    pub max_outer_trips: u32,
    /// Maximum inner-loop trip count.
    pub max_inner_trips: u32,
    /// Maximum arithmetic instructions per inner-loop body.
    pub max_body_alu: usize,
    /// Maximum global loads per inner-loop body.
    pub max_body_loads: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            min_regs: 12,
            max_regs: 128,
            max_outer_trips: 8,
            max_inner_trips: 20,
            max_body_alu: 20,
            max_body_loads: 6,
        }
    }
}

impl GeneratorConfig {
    /// Checks that the bounds describe a non-empty space of valid workloads,
    /// returning a human-readable complaint otherwise. Kernels need at least
    /// eight registers ([`WorkloadSpec::build`]'s floor), both loops at least
    /// one trip, and the body at least two arithmetic instructions (the
    /// generator's own lower bound).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_regs < 8 {
            return Err(format!(
                "min_regs must be at least 8, got {}",
                self.min_regs
            ));
        }
        if self.min_regs > self.max_regs {
            return Err(format!(
                "min_regs ({}) exceeds max_regs ({})",
                self.min_regs, self.max_regs
            ));
        }
        if self.max_outer_trips < 1 || self.max_inner_trips < 1 {
            return Err("loop trip-count bounds must be at least 1".to_string());
        }
        if self.max_body_alu < 2 {
            return Err(format!(
                "max_body_alu must be at least 2, got {}",
                self.max_body_alu
            ));
        }
        Ok(())
    }
}

/// Deterministic random workload generator.
#[derive(Debug)]
pub struct WorkloadGenerator {
    rng: StdRng,
    config: GeneratorConfig,
    counter: u32,
}

/// Names handed out to generated workloads (cycled with a numeric suffix).
static GENERATED_NAMES: &[&str] = &[
    "gen-dense",
    "gen-sparse",
    "gen-tiled",
    "gen-reduce",
    "gen-scan",
    "gen-filter",
    "gen-sort",
    "gen-fft",
];

impl WorkloadGenerator {
    /// Creates a generator with the default bounds.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        WorkloadGenerator::with_config(seed, GeneratorConfig::default())
    }

    /// Creates a generator with custom bounds.
    #[must_use]
    pub fn with_config(seed: u64, config: GeneratorConfig) -> Self {
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(seed),
            config,
            counter: 0,
        }
    }

    /// Generates the next random workload specification.
    pub(crate) fn next_spec(&mut self) -> WorkloadSpec {
        let name = GENERATED_NAMES[(self.counter as usize) % GENERATED_NAMES.len()];
        self.counter += 1;
        spec_from_rng(&mut self.rng, self.config, name)
    }

    /// Generates the next random workload (specification + built kernel).
    pub fn next_workload(&mut self) -> Workload {
        Workload::from_spec(self.next_spec())
    }

    /// Generates `count` workloads.
    pub fn generate(&mut self, count: usize) -> Vec<Workload> {
        (0..count).map(|_| self.next_workload()).collect()
    }

    /// The derived seed of member `index` within the population seeded
    /// `population_seed` (a splitmix64 step over seed and index).
    ///
    /// Members are seeded independently of one another, so
    /// `population(seed, n)[i]` is the same workload for every `n > i` —
    /// the identity campaign caches rely on.
    #[must_use]
    pub(crate) fn member_seed(population_seed: u64, index: u32) -> u64 {
        let mut z = population_seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(index) + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The stable name of population member `index` (base name cycled from
    /// the generated-name table plus the zero-padded index, so names are
    /// unique within any realistically sized population and never collide
    /// with the evaluated suite's names).
    #[must_use]
    pub fn member_name(index: u32) -> &'static str {
        static NAMES: OnceLock<Mutex<HashMap<u32, &'static str>>> = OnceLock::new();
        let mut names = NAMES
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("member-name registry never panics while locked");
        names.entry(index).or_insert_with(|| {
            let base = GENERATED_NAMES[index as usize % GENERATED_NAMES.len()];
            Box::leak(format!("{base}-{index:04}").into_boxed_str())
        })
    }

    /// Materializes member `index` of the population seeded `population_seed`
    /// under `config`: an independent, index-stable draw (each member's
    /// seed derives from the population seed and its index alone).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GeneratorConfig::validate`] (a static
    /// campaign-definition bug, not a runtime condition).
    #[must_use]
    pub fn population_member(
        population_seed: u64,
        index: u32,
        config: GeneratorConfig,
    ) -> Workload {
        if let Err(complaint) = config.validate() {
            panic!("invalid generator bounds: {complaint}");
        }
        let mut rng = StdRng::seed_from_u64(Self::member_seed(population_seed, index));
        Workload::from_spec(spec_from_rng(&mut rng, config, Self::member_name(index)))
    }

    /// Materializes the first `count` members of the population seeded
    /// `population_seed` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GeneratorConfig::validate`].
    #[must_use]
    pub fn population_with_config(
        population_seed: u64,
        count: usize,
        config: GeneratorConfig,
    ) -> Vec<Workload> {
        (0..count)
            .map(|i| Self::population_member(population_seed, i as u32, config))
            .collect()
    }
}

/// Draws one specification from `rng` under `cfg` — the single sampling
/// routine behind both the streaming and the population APIs (so the two can
/// never drift in what "a generated workload" means).
fn spec_from_rng(rng: &mut StdRng, cfg: GeneratorConfig, name: &'static str) -> WorkloadSpec {
    let regs = rng.gen_range(cfg.min_regs..=cfg.max_regs);
    let sensitivity = if regs >= 40 {
        RegisterSensitivity::Sensitive
    } else {
        RegisterSensitivity::Insensitive
    };
    let memory = match rng.gen_range(0..3) {
        0 => MemoryProfile::Streaming,
        1 => MemoryProfile::CacheResident,
        _ => MemoryProfile::Irregular,
    };
    let suite = match rng.gen_range(0..3) {
        0 => BenchmarkSuite::CudaSdk,
        1 => BenchmarkSuite::Rodinia,
        _ => BenchmarkSuite::Parboil,
    };
    WorkloadSpec {
        name,
        suite,
        regs_per_thread: regs,
        unconstrained_regs_per_thread: (regs as u32 * 3 / 2).min(256) as u16,
        sensitivity,
        outer_trips: rng.gen_range(1..=cfg.max_outer_trips),
        inner_trips: rng.gen_range(1..=cfg.max_inner_trips),
        body_alu: rng.gen_range(2..=cfg.max_body_alu),
        body_loads: rng.gen_range(0..=cfg.max_body_loads),
        body_shared: rng.gen_range(0..=4),
        body_sfu: rng.gen_range(0..=2),
        barrier_per_outer: rng.gen_bool(0.4),
        memory,
        warps_per_block: 8,
        blocks_per_grid: rng.gen_range(4..=32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<_> = WorkloadGenerator::new(42).generate(5);
        let b: Vec<_> = WorkloadGenerator::new(42).generate(5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.spec, y.spec);
        }
        let c: Vec<_> = WorkloadGenerator::new(43).generate(5);
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x.spec != y.spec));
    }

    #[test]
    fn generated_workloads_are_valid_and_within_bounds() {
        let mut gen = WorkloadGenerator::new(7);
        for w in gen.generate(20) {
            let cfg = GeneratorConfig::default();
            assert!(w.spec.regs_per_thread >= cfg.min_regs);
            assert!(w.spec.regs_per_thread <= cfg.max_regs);
            assert!(w.kernel.static_instruction_count() > 0);
            assert!(w.spec.dynamic_instructions_per_warp() > 0);
        }
    }

    #[test]
    fn custom_bounds_are_respected() {
        let config = GeneratorConfig {
            min_regs: 64,
            max_regs: 72,
            ..GeneratorConfig::default()
        };
        let mut gen = WorkloadGenerator::with_config(3, config);
        for w in gen.generate(10) {
            assert!((64..=72).contains(&w.spec.regs_per_thread));
            assert!(w.is_register_sensitive());
        }
    }

    #[test]
    fn population_members_are_index_stable() {
        let short = WorkloadGenerator::population_with_config(11, 4, GeneratorConfig::default());
        let long = WorkloadGenerator::population_with_config(11, 12, GeneratorConfig::default());
        for (i, w) in short.iter().enumerate() {
            assert_eq!(
                w.spec, long[i].spec,
                "member {i} depends on population size"
            );
            assert_eq!(
                w.spec,
                WorkloadGenerator::population_member(11, i as u32, GeneratorConfig::default()).spec
            );
        }
        // Distinct indices and distinct population seeds both decorrelate.
        assert_ne!(long[0].spec.name, long[8].spec.name);
        assert_ne!(
            WorkloadGenerator::member_seed(11, 0),
            WorkloadGenerator::member_seed(11, 1)
        );
        assert_ne!(
            WorkloadGenerator::member_seed(11, 0),
            WorkloadGenerator::member_seed(12, 0)
        );
    }

    #[test]
    fn member_names_are_unique_and_interned() {
        assert_eq!(WorkloadGenerator::member_name(0), "gen-dense-0000");
        assert_eq!(WorkloadGenerator::member_name(9), "gen-sparse-0009");
        // Interned: repeated lookups hand back the same allocation.
        assert!(std::ptr::eq(
            WorkloadGenerator::member_name(3),
            WorkloadGenerator::member_name(3)
        ));
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let too_few_regs = GeneratorConfig {
            min_regs: 4,
            ..GeneratorConfig::default()
        };
        assert!(too_few_regs.validate().is_err());
        let inverted = GeneratorConfig {
            min_regs: 64,
            max_regs: 32,
            ..GeneratorConfig::default()
        };
        assert!(inverted.validate().is_err());
        let no_alu = GeneratorConfig {
            max_body_alu: 1,
            ..GeneratorConfig::default()
        };
        assert!(no_alu.validate().is_err());
        assert!(GeneratorConfig::default().validate().is_ok());
    }
}
