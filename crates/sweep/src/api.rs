//! The first-class campaign API: a registry of typed [`Campaign`]
//! definitions that every front-end derives its surface from.
//!
//! One declarative definition per campaign:
//!
//! * a [`Campaign`] carries the name/aliases, a one-line summary, the
//!   [`ArtifactKind`], the accepted [`ParamSpec`] schema (types, defaults,
//!   scope hints), the canonical spec constructor (delegating to
//!   [`crate::campaigns`]), and the summary renderer;
//! * the [`CampaignRegistry`] (see [`registry`]) holds exactly one entry per
//!   paper artifact — the analytical ones (see [`crate::analytical`]) build
//!   no specs and only render — plus the `repro` meta-campaign and the
//!   beyond-paper studies;
//! * the `sweep` CLI *generates* its subcommand dispatch, `--help` text, and
//!   flag cross-rejection from the registry (including `sweep list` /
//!   `sweep describe`), and the registry tests assert the set matches the
//!   `REPRODUCING.md` artifact atlas — so the surfaces cannot drift.
//!
//! Execution is the session-based API of [`crate::executor`]: build the
//! specs from a [`CampaignParams`], run each through a
//! [`CampaignSession`](crate::CampaignSession), and observe the typed
//! [`CampaignEvent`](crate::CampaignEvent) stream.
//!
//! A registry entry is an ordinary value — front-ends beyond the built-in
//! ones can define their own end-to-end:
//!
//! ```
//! use ltrf_sweep::api::{ArtifactKind, Campaign, CampaignParams, RenderContext};
//! use ltrf_sweep::{CampaignSession, EventLog, ExecutorOptions, SweepSpec};
//!
//! // A campaign definition: name, schema, spec constructor, renderer.
//! static DOC_DEMO: Campaign = Campaign {
//!     name: "doc-demo",
//!     aliases: &["demo"],
//!     kind: ArtifactKind::BeyondPaper,
//!     paper_ref: "—",
//!     summary: "LTRF on one workload (rustdoc demonstration)",
//!     artifacts: "doc-demo.{csv,json}",
//!     params: &[&ltrf_sweep::api::params::QUICK],
//!     build: |params: &CampaignParams| {
//!         Ok(vec![SweepSpec::builder("doc-demo")
//!             .workloads(["hotspot"])
//!             .seed_mode(params.seed_mode())
//!             .build()])
//!     },
//!     preamble: |_specs: &[ltrf_sweep::SweepSpec], _ctx: &RenderContext| String::new(),
//!     render: |_results, _ctx| Ok(()),
//!     fail_on_point_failure: false,
//! };
//!
//! // Drive it exactly as the CLI drives registry entries.
//! let params = CampaignParams::default();
//! let specs = (DOC_DEMO.build)(&params).unwrap();
//! let log = EventLog::new();
//! let options = ExecutorOptions::default();
//! let results = CampaignSession::new(&specs[0], &options).run(&log);
//! assert_eq!(results.len(), 1);
//! // One CampaignStarted + per-point Started/Finished + one CampaignFinished.
//! assert_eq!(log.take().len(), 2 + 2 * results.len());
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use ltrf_core::Organization;
use ltrf_tech::configs::RegFileConfig;
use ltrf_tech::PowerParams;
use ltrf_workloads::{GeneratorConfig, QUICK_SUBSET};

use ltrf_sim::Topology;

use crate::analytical;
use crate::campaigns::{
    self, GenCampaignParams, InterconnectCampaignParams, TraceCampaignParams, FIG11_ORGS,
    FIG9_ORGS, GEN_CAMPAIGN_ORGS, POWER_ORGS,
};
use crate::executor::{PointRecord, SweepResults};
use crate::spec::{SeedMode, SweepSpec};
use crate::stream::RunningAggregates;
use crate::CAMPAIGN_SEED;
use crate::{print, println};

// ---------------------------------------------------------------------------
// Campaign parameters — the typed value every front-end fills in
// ---------------------------------------------------------------------------

/// The parameters a campaign can be invoked with, every one optional.
///
/// This is the single parameter vocabulary across all campaigns; which
/// subset a given campaign *accepts* is declared by its
/// [`Campaign::params`] schema (the CLI rejects out-of-scope flags with a
/// pointer to the right campaign, generated from the registry). The
/// default value reproduces the committed artifacts: full suite, fixed
/// campaign seed, one SM, default generator bounds and power calibration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignParams {
    /// Run the four-workload quick subset instead of the full suite.
    pub quick: bool,
    /// Derive a distinct seed per point instead of the fixed campaign seed.
    pub per_point_seeds: bool,
    /// SM count of single-count campaigns (`None` = 1, the classic
    /// single-SM configuration).
    pub sm_count: Option<usize>,
    /// The SM-count axis of `gpu-scale` (`None` = 1,2,4,8).
    pub sm_counts: Option<Vec<usize>>,
    /// Population size of `gen-campaign` (`None` = 64).
    pub population: Option<usize>,
    /// Population seed of `gen-campaign` (`None` = the campaign seed).
    pub population_seed: Option<u64>,
    /// Generator-bound overrides of `gen-campaign` (each `None` keeps the
    /// corresponding [`GeneratorConfig::default`] bound).
    pub min_regs: Option<u16>,
    /// See [`CampaignParams::min_regs`].
    pub max_regs: Option<u16>,
    /// See [`CampaignParams::min_regs`].
    pub max_outer_trips: Option<u32>,
    /// See [`CampaignParams::min_regs`].
    pub max_inner_trips: Option<u32>,
    /// See [`CampaignParams::min_regs`].
    pub max_body_alu: Option<usize>,
    /// See [`CampaignParams::min_regs`].
    pub max_body_loads: Option<usize>,
    /// Power-model calibration overrides of `power` (each `None` keeps the
    /// corresponding [`PowerParams::default`] knob).
    pub access_energy_pj: Option<f64>,
    /// See [`CampaignParams::access_energy_pj`].
    pub leakage_mw_per_kb: Option<f64>,
    /// See [`CampaignParams::access_energy_pj`].
    pub dwm_write_penalty: Option<f64>,
    /// Trace files of `trace-campaign`, in axis order (empty = the three
    /// checked-in example traces under `examples/traces/`).
    pub trace_paths: Vec<String>,
    /// The single topology `interconnect` sweeps (`None` = the default
    /// ideal-vs-crossbar comparison).
    pub topology: Option<Topology>,
    /// Link width in bytes per cycle of `interconnect` (`None` = the
    /// [`ltrf_sim::InterconnectConfig::default`] width).
    pub link_width: Option<u64>,
    /// Bounded per-link queue depth of `interconnect` (`None` = the
    /// [`ltrf_sim::InterconnectConfig::default`] depth).
    pub queue_depth: Option<usize>,
}

impl CampaignParams {
    /// The selected workload names: the `--quick` subset or the full
    /// evaluated suite.
    #[must_use]
    pub fn workload_names(&self) -> Vec<String> {
        if self.quick {
            QUICK_SUBSET.iter().map(|w| (*w).to_string()).collect()
        } else {
            ltrf_workloads::evaluated_suite()
                .iter()
                .map(|w| w.name().to_string())
                .collect()
        }
    }

    /// The seeding policy: the paper's fixed campaign seed, or per-point
    /// seeds derived from it.
    #[must_use]
    pub fn seed_mode(&self) -> SeedMode {
        if self.per_point_seeds {
            SeedMode::PerPoint(CAMPAIGN_SEED)
        } else {
            SeedMode::Fixed(CAMPAIGN_SEED)
        }
    }

    /// The `--sm-count` value for a single-count campaign (default 1).
    #[must_use]
    pub fn single_sm_count(&self) -> usize {
        self.sm_count.unwrap_or(1)
    }

    /// The `--sm-counts` axis for `gpu-scale` (default 1,2,4,8).
    #[must_use]
    pub fn sm_count_axis(&self) -> Vec<usize> {
        self.sm_counts.clone().unwrap_or_else(|| vec![1, 2, 4, 8])
    }

    /// Assembles the power-model calibration from the overrides, with
    /// friendly flag-named errors instead of the library's
    /// campaign-definition panics.
    ///
    /// # Errors
    ///
    /// Returns the validation complaint, translated to CLI flag names.
    pub fn power_params(&self) -> Result<PowerParams, String> {
        let defaults = PowerParams::default();
        let params = PowerParams {
            base_access_pj: self.access_energy_pj.unwrap_or(defaults.base_access_pj),
            base_leakage_mw_per_kb: self
                .leakage_mw_per_kb
                .unwrap_or(defaults.base_leakage_mw_per_kb),
            dwm_write_penalty: self.dwm_write_penalty.unwrap_or(defaults.dwm_write_penalty),
        };
        params.validate().map_err(|complaint| {
            // The library complains in field names; translate to the flags.
            let complaint = complaint
                .replace("base_access_pj", "--access-energy-pj")
                .replace("base_leakage_mw_per_kb", "--leakage-mw-per-kb")
                .replace("dwm_write_penalty", "--dwm-write-penalty");
            format!("power calibration: {complaint}")
        })?;
        Ok(params)
    }

    /// Assembles the generator bounds from the overrides, with friendly
    /// errors instead of the library's campaign-definition panics.
    ///
    /// # Errors
    ///
    /// Returns the validation complaint.
    pub fn generator_config(&self) -> Result<GeneratorConfig, String> {
        let defaults = GeneratorConfig::default();
        let config = GeneratorConfig {
            min_regs: self.min_regs.unwrap_or(defaults.min_regs),
            max_regs: self.max_regs.unwrap_or(defaults.max_regs),
            max_outer_trips: self.max_outer_trips.unwrap_or(defaults.max_outer_trips),
            max_inner_trips: self.max_inner_trips.unwrap_or(defaults.max_inner_trips),
            max_body_alu: self.max_body_alu.unwrap_or(defaults.max_body_alu),
            max_body_loads: self.max_body_loads.unwrap_or(defaults.max_body_loads),
        };
        config
            .validate()
            .map_err(|complaint| format!("generator bounds: {complaint}"))?;
        Ok(config)
    }

    /// Assembles the full generated-campaign parameters.
    ///
    /// # Errors
    ///
    /// Returns a friendly message for an empty population or degenerate
    /// generator bounds.
    pub fn gen_params(&self) -> Result<GenCampaignParams, String> {
        let population = self.population.unwrap_or(64);
        if population == 0 {
            return Err("--population must be at least 1".to_string());
        }
        Ok(GenCampaignParams {
            population,
            population_seed: self.population_seed.unwrap_or(CAMPAIGN_SEED),
            config: self.generator_config()?,
            sm_count: self.single_sm_count(),
            seed_mode: self.seed_mode(),
        })
    }

    /// Assembles the interconnect-campaign parameters: one topology from
    /// `--topology` (default ideal + crossbar), the link provisioning
    /// knobs, and the contention-reaching SM-count axis (`--sm-counts`,
    /// default 1,4,16).
    #[must_use]
    pub fn interconnect_params(&self) -> InterconnectCampaignParams {
        let defaults = InterconnectCampaignParams::default();
        InterconnectCampaignParams {
            topologies: match self.topology {
                Some(topology) => vec![topology],
                None => defaults.topologies,
            },
            link_width: self.link_width.unwrap_or(defaults.link_width).max(1),
            queue_depth: self.queue_depth.unwrap_or(defaults.queue_depth).max(1),
            sm_counts: self.sm_counts.clone().unwrap_or(defaults.sm_counts),
            seed_mode: self.seed_mode(),
        }
    }

    /// The default trace set of `trace-campaign` when no `--trace` is
    /// given: the three checked-in example traces, relative to the
    /// repository root.
    pub const DEFAULT_TRACES: [&'static str; 3] = [
        "examples/traces/straight_line.trace",
        "examples/traces/divergent_loop.trace",
        "examples/traces/high_register_pressure.trace",
    ];

    /// Assembles the full trace-campaign parameters: reads and fingerprints
    /// every `--trace` file (or the [`CampaignParams::DEFAULT_TRACES`] when
    /// none were given), with friendly per-file errors.
    ///
    /// # Errors
    ///
    /// Returns a `--trace`-named message for an unreadable or malformed
    /// trace file.
    pub fn trace_params(&self) -> Result<TraceCampaignParams, String> {
        let paths: Vec<String> = if self.trace_paths.is_empty() {
            Self::DEFAULT_TRACES
                .iter()
                .map(|p| (*p).to_string())
                .collect()
        } else {
            self.trace_paths.clone()
        };
        let traces = paths
            .iter()
            .map(|path| {
                let id = ltrf_trace::TraceWorkloadId::from_path(path)
                    .map_err(|e| format!("--trace {path}: {e}"))?;
                // Parse and lower once up front so a malformed trace is one
                // friendly error here, not a per-point failure per config.
                id.materialize()
                    .map_err(|e| format!("--trace {path}: {e}"))?;
                Ok(id)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TraceCampaignParams {
            traces,
            sm_count: self.single_sm_count(),
            seed_mode: self.seed_mode(),
        })
    }
}

// ---------------------------------------------------------------------------
// Parameter schema — typed flags with defaults and scope hints
// ---------------------------------------------------------------------------

/// The value shape a parameter takes on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamType {
    /// A bare switch with no value (`--quick`).
    Switch,
    /// An integer value (`--sm-count 4`).
    Int,
    /// A floating-point value (`--access-energy-pj 75`).
    Float,
    /// A comma-separated integer list (`--sm-counts 1,2,4,8`).
    IntList,
    /// A file path (`--trace examples/traces/straight_line.trace`),
    /// repeatable to accumulate several.
    Path,
    /// A keyword from a fixed vocabulary (`--topology mesh`).
    Word,
}

impl ParamType {
    /// The type's name in `describe --json` output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ParamType::Switch => "switch",
            ParamType::Int => "int",
            ParamType::Float => "float",
            ParamType::IntList => "int_list",
            ParamType::Path => "path",
            ParamType::Word => "word",
        }
    }
}

/// One accepted parameter of a campaign: the flag, its value shape,
/// default, help text, the hint shown when it lands on the wrong campaign,
/// and the parser that applies it to a [`CampaignParams`].
#[derive(Debug)]
pub struct ParamSpec {
    /// The flag as typed (`--sm-count`).
    pub flag: &'static str,
    /// Placeholder for the value in help text (`N`); `None` for switches.
    pub value_name: Option<&'static str>,
    /// The value shape.
    pub ty: ParamType,
    /// Human description of the default.
    pub default: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// Appended to the cross-rejection message when the flag is given to a
    /// campaign that does not accept it, pointing at the right usage.
    pub hint: &'static str,
    /// Parses the raw value (`None` for switches) into `params`.
    pub apply: fn(&mut CampaignParams, Option<&str>) -> Result<(), String>,
}

impl ParamSpec {
    /// Whether the flag consumes a value argument.
    #[must_use]
    pub fn takes_value(&self) -> bool {
        self.value_name.is_some()
    }

    /// The flag with its value placeholder, as shown in help text.
    #[must_use]
    pub fn usage(&self) -> String {
        match self.value_name {
            Some(value) => format!("{} {value}", self.flag),
            None => self.flag.to_string(),
        }
    }

    /// Parses `value` and applies it to `params`.
    ///
    /// # Errors
    ///
    /// Returns a flag-named message for a missing or malformed value.
    pub fn apply(&self, params: &mut CampaignParams, value: Option<&str>) -> Result<(), String> {
        (self.apply)(params, value)
    }
}

/// Parses the value after a `--flag VALUE` pair.
fn parsed<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// The parameter vocabulary: one static [`ParamSpec`] per flag, referenced
/// by every campaign that accepts it. Kept in a child module so front-ends
/// (and the doctest above) can name individual specs.
pub mod params {
    use super::{parsed, ParamSpec, ParamType};

    /// `--quick`: the four-workload subset.
    pub static QUICK: ParamSpec = ParamSpec {
        flag: "--quick",
        value_name: None,
        ty: ParamType::Switch,
        default: "full suite",
        help: "four-workload subset instead of the full suite",
        hint: "size a gen-campaign with --population N instead",
        apply: |p, _| {
            p.quick = true;
            Ok(())
        },
    };

    /// `--per-point-seeds`: decorrelated per-point seeding.
    pub static PER_POINT_SEEDS: ParamSpec = ParamSpec {
        flag: "--per-point-seeds",
        value_name: None,
        ty: ParamType::Switch,
        default: "the paper's fixed campaign seed",
        help: "derive a distinct seed per point instead of the fixed campaign seed",
        hint: "every simulated campaign accepts it",
        apply: |p, _| {
            p.per_point_seeds = true;
            Ok(())
        },
    };

    /// `--sm-count N`: SMs per point for single-count campaigns.
    pub static SM_COUNT: ParamSpec = ParamSpec {
        flag: "--sm-count",
        value_name: Some("N"),
        ty: ParamType::Int,
        default: "1 (the classic single-SM campaigns)",
        help: "simulate N SMs sharing the L2/DRAM",
        hint: "use --sm-counts A,B,.. for the gpu-scale axis",
        apply: |p, v| {
            p.sm_count = Some(parsed::<usize>("--sm-count", v)?.max(1));
            Ok(())
        },
    };

    /// `--sm-counts A,B,..`: the SM-count axis of `gpu-scale` and
    /// `interconnect`.
    pub static SM_COUNTS: ParamSpec = ParamSpec {
        flag: "--sm-counts",
        value_name: Some("A,B,.."),
        ty: ParamType::IntList,
        default: "1,2,4,8 (gpu-scale) / 1,4,16 (interconnect)",
        help: "the SM-count axis of gpu-scale and interconnect",
        hint: "use --sm-count N for a single-count campaign",
        apply: |p, v| {
            let list = v.ok_or("--sm-counts needs a comma list")?;
            let counts: Vec<usize> = list
                .split(',')
                .map(|c| {
                    c.trim()
                        .parse::<usize>()
                        .map_err(|e| format!("--sm-counts: {e}"))
                })
                .collect::<Result<_, _>>()?;
            if counts.is_empty() || counts.contains(&0) {
                return Err("--sm-counts needs positive counts".to_string());
            }
            p.sm_counts = Some(counts);
            Ok(())
        },
    };

    /// `--population N`: population size of `gen-campaign`.
    pub static POPULATION: ParamSpec = ParamSpec {
        flag: "--population",
        value_name: Some("N"),
        ty: ParamType::Int,
        default: "64",
        help: "generated population size",
        hint: "it configures the generated population (use `sweep gen-campaign`)",
        apply: |p, v| {
            p.population = Some(parsed("--population", v)?);
            Ok(())
        },
    };

    /// `--seed S`: population seed of `gen-campaign`.
    pub static SEED: ParamSpec = ParamSpec {
        flag: "--seed",
        value_name: Some("S"),
        ty: ParamType::Int,
        default: "the campaign seed",
        help: "generated population seed",
        hint: "it configures the generated population (use `sweep gen-campaign`)",
        apply: |p, v| {
            p.population_seed = Some(parsed("--seed", v)?);
            Ok(())
        },
    };

    /// `--min-regs R`: generator lower register bound.
    pub static MIN_REGS: ParamSpec = ParamSpec {
        flag: "--min-regs",
        value_name: Some("R"),
        ty: ParamType::Int,
        default: "GeneratorConfig::default",
        help: "registers-per-thread lower bound of the generator",
        hint: "it configures the generated population (use `sweep gen-campaign`)",
        apply: |p, v| {
            p.min_regs = Some(parsed("--min-regs", v)?);
            Ok(())
        },
    };

    /// `--max-regs R`: generator upper register bound.
    pub static MAX_REGS: ParamSpec = ParamSpec {
        flag: "--max-regs",
        value_name: Some("R"),
        ty: ParamType::Int,
        default: "GeneratorConfig::default",
        help: "registers-per-thread upper bound of the generator",
        hint: "it configures the generated population (use `sweep gen-campaign`)",
        apply: |p, v| {
            p.max_regs = Some(parsed("--max-regs", v)?);
            Ok(())
        },
    };

    /// `--max-outer-trips N`: generator outer-loop trip bound.
    pub static MAX_OUTER_TRIPS: ParamSpec = ParamSpec {
        flag: "--max-outer-trips",
        value_name: Some("N"),
        ty: ParamType::Int,
        default: "GeneratorConfig::default",
        help: "outer-loop trip-count bound of the generator",
        hint: "it configures the generated population (use `sweep gen-campaign`)",
        apply: |p, v| {
            p.max_outer_trips = Some(parsed("--max-outer-trips", v)?);
            Ok(())
        },
    };

    /// `--max-inner-trips N`: generator inner-loop trip bound.
    pub static MAX_INNER_TRIPS: ParamSpec = ParamSpec {
        flag: "--max-inner-trips",
        value_name: Some("N"),
        ty: ParamType::Int,
        default: "GeneratorConfig::default",
        help: "inner-loop trip-count bound of the generator",
        hint: "it configures the generated population (use `sweep gen-campaign`)",
        apply: |p, v| {
            p.max_inner_trips = Some(parsed("--max-inner-trips", v)?);
            Ok(())
        },
    };

    /// `--max-body-alu N`: generator loop-body ALU bound.
    pub static MAX_BODY_ALU: ParamSpec = ParamSpec {
        flag: "--max-body-alu",
        value_name: Some("N"),
        ty: ParamType::Int,
        default: "GeneratorConfig::default",
        help: "inner-loop body ALU-op bound of the generator",
        hint: "it configures the generated population (use `sweep gen-campaign`)",
        apply: |p, v| {
            p.max_body_alu = Some(parsed("--max-body-alu", v)?);
            Ok(())
        },
    };

    /// `--max-body-loads N`: generator loop-body load bound.
    pub static MAX_BODY_LOADS: ParamSpec = ParamSpec {
        flag: "--max-body-loads",
        value_name: Some("N"),
        ty: ParamType::Int,
        default: "GeneratorConfig::default",
        help: "inner-loop body load bound of the generator",
        hint: "it configures the generated population (use `sweep gen-campaign`)",
        apply: |p, v| {
            p.max_body_loads = Some(parsed("--max-body-loads", v)?);
            Ok(())
        },
    };

    /// `--access-energy-pj E`: power-model dynamic-energy anchor.
    pub static ACCESS_ENERGY_PJ: ParamSpec = ParamSpec {
        flag: "--access-energy-pj",
        value_name: Some("E"),
        ty: ParamType::Float,
        default: "50 pJ",
        help: "per-access dynamic-energy anchor of the power model, in pJ",
        hint: "it recalibrates the power model (use `sweep power`)",
        apply: |p, v| {
            p.access_energy_pj = Some(parsed("--access-energy-pj", v)?);
            Ok(())
        },
    };

    /// `--leakage-mw-per-kb L`: power-model static-power anchor.
    pub static LEAKAGE_MW_PER_KB: ParamSpec = ParamSpec {
        flag: "--leakage-mw-per-kb",
        value_name: Some("L"),
        ty: ParamType::Float,
        default: "0.16 mW/KB",
        help: "static-power anchor of the power model, in mW per KB",
        hint: "it recalibrates the power model (use `sweep power`)",
        apply: |p, v| {
            p.leakage_mw_per_kb = Some(parsed("--leakage-mw-per-kb", v)?);
            Ok(())
        },
    };

    /// `--trace PATH`: a trace file of `trace-campaign`; repeatable.
    pub static TRACE: ParamSpec = ParamSpec {
        flag: "--trace",
        value_name: Some("PATH"),
        ty: ParamType::Path,
        default: "the three example traces under examples/traces/",
        help: "an accelsim-style kernel trace file to lower and sweep (repeatable)",
        hint: "it selects trace workloads (use `sweep trace-campaign`)",
        apply: |p, v| {
            let path = v.ok_or("--trace needs a file path")?;
            p.trace_paths.push(path.to_string());
            Ok(())
        },
    };

    /// `--topology T`: the single topology `interconnect` sweeps.
    pub static TOPOLOGY: ParamSpec = ParamSpec {
        flag: "--topology",
        value_name: Some("T"),
        ty: ParamType::Word,
        default: "ideal and crossbar, one spec each",
        help: "restrict the topology axis to one of ideal|crossbar|mesh",
        hint: "it selects the SM<->L2 network (use `sweep interconnect`)",
        apply: |p, v| {
            p.topology = Some(parsed("--topology", v)?);
            Ok(())
        },
    };

    /// `--link-width B`: network link width in bytes per cycle.
    pub static LINK_WIDTH: ParamSpec = ParamSpec {
        flag: "--link-width",
        value_name: Some("B"),
        ty: ParamType::Int,
        default: "32 bytes/cycle",
        help: "network link width in bytes per cycle (non-ideal topologies)",
        hint: "it provisions the SM<->L2 network (use `sweep interconnect`)",
        apply: |p, v| {
            p.link_width = Some(parsed::<u64>("--link-width", v)?.max(1));
            Ok(())
        },
    };

    /// `--queue-depth N`: bounded per-link queue depth.
    pub static QUEUE_DEPTH: ParamSpec = ParamSpec {
        flag: "--queue-depth",
        value_name: Some("N"),
        ty: ParamType::Int,
        default: "8 in-flight transfers per link",
        help: "bounded per-link queue depth (non-ideal topologies)",
        hint: "it provisions the SM<->L2 network (use `sweep interconnect`)",
        apply: |p, v| {
            p.queue_depth = Some(parsed::<usize>("--queue-depth", v)?.max(1));
            Ok(())
        },
    };

    /// `--dwm-write-penalty P`: DWM write/read energy ratio.
    pub static DWM_WRITE_PENALTY: ParamSpec = ParamSpec {
        flag: "--dwm-write-penalty",
        value_name: Some("P"),
        ty: ParamType::Float,
        default: "1.4",
        help: "DWM write/read energy ratio of the power model",
        hint: "it recalibrates the power model (use `sweep power`)",
        apply: |p, v| {
            p.dwm_write_penalty = Some(parsed("--dwm-write-penalty", v)?);
            Ok(())
        },
    };
}

use params as p;

/// The parameter set of the plain suite campaigns (fig9/11/12/13/14,
/// table2, repro).
static SUITE_PARAMS: [&ParamSpec; 3] = [&p::QUICK, &p::SM_COUNT, &p::PER_POINT_SEEDS];

/// The parameter set of `power`: the suite parameters plus the calibration
/// knobs.
static POWER_CAMPAIGN_PARAMS: [&ParamSpec; 6] = [
    &p::QUICK,
    &p::SM_COUNT,
    &p::PER_POINT_SEEDS,
    &p::ACCESS_ENERGY_PJ,
    &p::LEAKAGE_MW_PER_KB,
    &p::DWM_WRITE_PENALTY,
];

/// The parameter set of `gpu-scale`: `--quick` subsets its workload axis,
/// and the SM count is an axis rather than a single value.
static GPU_SCALE_PARAMS: [&ParamSpec; 3] = [&p::QUICK, &p::SM_COUNTS, &p::PER_POINT_SEEDS];

/// The parameter set of `gen-campaign`: sized by `--population` (not
/// `--quick`), seeded and bounded by the generator knobs.
static GEN_CAMPAIGN_PARAMS: [&ParamSpec; 10] = [
    &p::SM_COUNT,
    &p::PER_POINT_SEEDS,
    &p::POPULATION,
    &p::SEED,
    &p::MIN_REGS,
    &p::MAX_REGS,
    &p::MAX_OUTER_TRIPS,
    &p::MAX_INNER_TRIPS,
    &p::MAX_BODY_ALU,
    &p::MAX_BODY_LOADS,
];

/// The parameter set of `trace-campaign`: sized by its `--trace` files (not
/// `--quick`), plus the shared SM-count and seeding knobs.
static TRACE_CAMPAIGN_PARAMS: [&ParamSpec; 3] = [&p::TRACE, &p::SM_COUNT, &p::PER_POINT_SEEDS];

/// The parameter set of `interconnect`: the SM count is an axis (contention
/// needs many SMs), plus the topology selection and link provisioning.
static INTERCONNECT_PARAMS: [&ParamSpec; 6] = [
    &p::QUICK,
    &p::SM_COUNTS,
    &p::PER_POINT_SEEDS,
    &p::TOPOLOGY,
    &p::LINK_WIDTH,
    &p::QUEUE_DEPTH,
];

// ---------------------------------------------------------------------------
// Campaign definitions
// ---------------------------------------------------------------------------

/// What kind of artifact a campaign reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A figure of the paper.
    PaperFigure,
    /// A table of the paper.
    PaperTable,
    /// A beyond-paper study (scaling, generated populations).
    BeyondPaper,
    /// A meta-campaign composing other campaigns (`repro`).
    Meta,
    /// An analytical or compiler-only paper artifact: no specs, no
    /// reports, only a printed table.
    Analytical,
}

impl ArtifactKind {
    /// The kind's label in `list`/`describe` output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::PaperFigure => "paper figure",
            ArtifactKind::PaperTable => "paper table",
            ArtifactKind::BeyondPaper => "beyond paper",
            ArtifactKind::Meta => "meta",
            ArtifactKind::Analytical => "analytical",
        }
    }
}

/// Context handed to a campaign's preamble and summary renderer: the
/// invocation's parameters, the report directory, and (after execution)
/// the streaming aggregates.
#[derive(Debug, Clone, Copy)]
pub struct RenderContext<'a> {
    /// The parameters the campaign was invoked with.
    pub params: &'a CampaignParams,
    /// The directory the CSV/JSON reports were (or will be) written to.
    pub out_dir: &'a Path,
    /// The per-campaign running aggregates folded while the points
    /// streamed, parallel to the renderer's `results` slice. Empty before
    /// execution (preambles).
    pub aggregates: &'a [RunningAggregates],
}

/// One registered campaign: everything a front-end needs to list it,
/// document it, build its specs, and render its summary.
#[derive(Debug)]
pub struct Campaign {
    /// Canonical name (the CLI subcommand and report-file base name).
    pub name: &'static str,
    /// Accepted alternative names (`sweep figure9` ≡ `sweep fig9`;
    /// `sweep fig10` runs `power`, whose configuration-#7 slice it is).
    pub aliases: &'static [&'static str],
    /// The artifact kind.
    pub kind: ArtifactKind,
    /// The paper artifact reproduced (`"Figure 9"`, `"—"` for beyond-paper
    /// campaigns).
    pub paper_ref: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// The report files the campaign writes (human description).
    pub artifacts: &'static str,
    /// The accepted parameter schema (global execution options — `--out`,
    /// `--cache`, `--threads`, … — are front-end concerns, not campaign
    /// parameters).
    pub params: &'static [&'static ParamSpec],
    /// The canonical spec constructor: one spec for ordinary campaigns,
    /// several for meta-campaigns (`repro`). Delegates to
    /// [`crate::campaigns`], so registry-driven and direct callers agree
    /// byte for byte.
    pub build: fn(&CampaignParams) -> Result<Vec<SweepSpec>, String>,
    /// Text printed before execution (the Table 2 design-point listing,
    /// the power-calibration line), given the specs the invocation is
    /// about to run; empty for most campaigns.
    pub preamble: fn(&[SweepSpec], &RenderContext) -> String,
    /// Renders the campaign's summary (the paper-shaped tables the CLI
    /// prints after the raw reports are written). An `Err` makes the
    /// invocation fail.
    pub render: fn(&[SweepResults], &RenderContext) -> Result<(), String>,
    /// Whether any failed point fails the whole invocation (`repro`: its
    /// contract is the complete artifact set). Ordinary campaigns report
    /// failures in their records/events and still exit successfully.
    pub fail_on_point_failure: bool,
}

impl Campaign {
    /// Whether this campaign accepts the given parameter.
    #[must_use]
    pub fn accepts(&self, spec: &ParamSpec) -> bool {
        self.params
            .iter()
            .any(|candidate| candidate.flag == spec.flag)
    }

    /// Builds the campaign's sweep specs from `params`.
    ///
    /// # Errors
    ///
    /// Returns a friendly message for invalid parameter combinations
    /// (degenerate generator bounds, empty populations, bad calibrations).
    pub fn specs(&self, params: &CampaignParams) -> Result<Vec<SweepSpec>, String> {
        (self.build)(params)
    }

    /// All names the campaign answers to: the canonical name, then aliases.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        std::iter::once(self.name).chain(self.aliases.iter().copied())
    }
}

// ---------------------------------------------------------------------------
// Summary renderers
// ---------------------------------------------------------------------------

/// Renders nothing (campaigns whose CSV/JSON reports are the whole story).
pub(crate) fn no_preamble(_specs: &[SweepSpec], _ctx: &RenderContext) -> String {
    String::new()
}

/// Prints a latency-sweep summary table: one row per `(label, value)`
/// series, selecting the points whose `key` equals `value`, one column per
/// latency factor, via the engine's canonical
/// [`crate::relative_ipc_series`] aggregation (the CSV report carries the
/// raw per-point rows).
fn print_latency_series<K: PartialEq + Copy>(
    title: &str,
    results: &SweepResults,
    series: impl IntoIterator<Item = (String, K)>,
    key: impl Fn(&PointRecord) -> K,
) {
    let factors = ltrf_core::paper_latency_factors();
    println!("\n{title}");
    print!("  {:<22}", "Series");
    for factor in &factors {
        print!(" {factor:>5.0}x");
    }
    println!();
    for (label, value) in series {
        match crate::relative_ipc_series(results, &factors, |r| key(r) == value) {
            Some(means) => {
                print!("  {label:<22}");
                for mean in means {
                    print!(" {mean:>6.2}");
                }
                println!();
            }
            None => println!("  {label:<22} (no complete curves)"),
        }
    }
}

/// Mean of a metric over a campaign's successful points that `select`
/// accepts; `NaN` when there are none.
fn mean_where(
    results: &SweepResults,
    select: impl Fn(&PointRecord) -> bool,
    metric: impl Fn(&crate::PointData) -> Option<f64>,
) -> f64 {
    let values: Vec<f64> = results
        .successes()
        .filter(|(r, _)| select(r))
        .filter_map(|(_, d)| metric(d))
        .collect();
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// [`mean_where`] over one (Table 2 configuration, organization) cell.
fn config_org_mean(
    results: &SweepResults,
    config_id: u8,
    org: Organization,
    metric: impl Fn(&crate::PointData) -> Option<f64>,
) -> f64 {
    let cell = |r: &PointRecord| {
        r.point.config.mrf_config.id.0 == config_id && r.point.config.organization == org
    };
    mean_where(results, cell, metric)
}

fn render_fig9(results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    let results = &results[0];
    for config_id in [6u8, 7] {
        println!(
            "\nFigure 9{}: configuration #{config_id}, mean IPC normalized to baseline",
            if config_id == 6 { 'a' } else { 'b' }
        );
        for org in FIG9_ORGS {
            let mean = config_org_mean(results, config_id, org, |d| d.normalized_ipc);
            if !mean.is_nan() {
                println!("  {:<14} {mean:.3}", org.label());
            }
        }
    }
    // Figure 3 is the Ideal and BL points of configuration #6 over the
    // register-sensitive workloads.
    let sensitive: Vec<&str> = ltrf_workloads::evaluated_specs()
        .into_iter()
        .filter(|s| s.sensitivity == ltrf_isa::RegisterSensitivity::Sensitive)
        .map(|s| s.name)
        .collect();
    let fig3 = |org| {
        let cell = |r: &PointRecord| {
            r.point.config.mrf_config.id.0 == 6
                && r.point.config.organization == org
                && sensitive.contains(&r.point.workload.as_str())
        };
        mean_where(results, cell, |d| d.normalized_ipc)
    };
    println!(
        "\nFigure 3: register-sensitive mean on configuration #6: Ideal {:.3}, BL {:.3}",
        fig3(Organization::Ideal),
        fig3(Organization::Baseline)
    );
    Ok(())
}

fn render_fig11(results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    let results = &results[0];
    // The paper's default allowed IPC loss (§6.3).
    const ALLOWED_LOSS: f64 = 0.05;
    // (workload, org) → latency-factor bits → ipc
    let mut curves: BTreeMap<(String, Organization), BTreeMap<u64, f64>> = BTreeMap::new();
    for (record, data) in results.successes() {
        let factor = record.point.config.latency_factor();
        curves
            .entry((
                record.point.workload.clone(),
                record.point.config.organization,
            ))
            .or_default()
            .insert(factor.to_bits(), data.result.ipc);
    }
    println!("\nFigure 11: maximum tolerable latency at 5% IPC loss (mean over workloads)");
    let mut tolerance_by_org: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for ((_, org), curve) in &curves {
        let reference = curve.get(&1.0f64.to_bits()).copied().unwrap_or(0.0);
        if reference <= 0.0 {
            continue;
        }
        // Delegate the curve assembly and tolerance definition to the core
        // metric.
        let ipc_points: Vec<(f64, f64)> = curve
            .iter()
            .map(|(&bits, &ipc)| (f64::from_bits(bits), ipc))
            .collect();
        let Some(sweep) = ltrf_core::LatencySweep::from_ipc_points(*org, &ipc_points) else {
            continue;
        };
        let entry = tolerance_by_org.entry(org.label()).or_insert((0.0, 0));
        entry.0 += sweep.max_tolerable_latency(ALLOWED_LOSS);
        entry.1 += 1;
    }
    for org in FIG11_ORGS {
        if let Some((sum, count)) = tolerance_by_org.get(org.label()) {
            println!("  {:<8} {:.2}x", org.label(), sum / *count as f64);
        }
    }
    Ok(())
}

fn render_fig12(results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    print_latency_series(
        "Figure 12: LTRF IPC (relative to the 1x point) vs. MRF latency, \
         by registers per register-interval",
        &results[0],
        campaigns::FIG12_INTERVAL_SIZES.map(|n| (format!("{n} regs"), n)),
        |r| r.point.config.registers_per_interval,
    );
    Ok(())
}

fn render_fig13(results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    print_latency_series(
        "Figure 13: LTRF IPC (relative to the 1x point) vs. MRF latency, by active warps",
        &results[0],
        campaigns::FIG13_WARP_COUNTS.map(|warps| (format!("{warps} warps"), warps)),
        |r| r.point.config.active_warps,
    );
    Ok(())
}

fn render_fig14(results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    let results = &results[0];
    print_latency_series(
        "Figure 14: IPC (relative to each scheme's 1x point) vs. MRF latency, by scheme",
        results,
        campaigns::FIG14_ORGS.map(|org| (org.label().to_string(), org)),
        |r| r.point.config.organization,
    );
    // Figure 4 is the register-cache hit rate of the 1x points.
    let hit_rates: Vec<String> = campaigns::FIG14_ORGS
        .into_iter()
        .filter_map(|org| {
            let cell = |r: &PointRecord| {
                r.point.config.organization == org && r.point.config.latency_factor() == 1.0
            };
            let mean = mean_where(results, cell, |d| d.result.cache_hit_rate);
            (!mean.is_nan()).then(|| format!("{} {:.0}%", org.label(), mean * 100.0))
        })
        .collect();
    println!(
        "\nFigure 4: mean register-cache hit rate at 1x: {}",
        hit_rates.join(", ")
    );
    Ok(())
}

fn table2_preamble(_specs: &[SweepSpec], _ctx: &RenderContext) -> String {
    let mut out =
        String::from("Table 2: register-file design points (calibrated | analytical bank model)\n");
    out.push_str(&format!(
        "  {:<4} {:<10} {:>9} {:>8} {:>8} {:>9} | {:>6} {:>6} {:>8}",
        "id", "tech", "capacity", "area", "power", "latency", "area", "power", "latency"
    ));
    for config in RegFileConfig::table2() {
        let model = config.bank_model().estimate();
        out.push_str(&format!(
            "\n  {:<4} {:<10} {:>8.1}x {:>7.2}x {:>7.2}x {:>8.2}x | {:>5.2}x {:>5.2}x {:>7.2}x",
            config.id.to_string(),
            config.technology.name(),
            config.capacity_factor,
            config.area_factor,
            config.power_factor,
            config.latency_factor,
            model.area_factor,
            model.power_factor,
            model.latency_factor
        ));
    }
    out
}

fn render_table2(results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    let results = &results[0];
    println!("\nMean normalized IPC per design point:");
    println!("  {:<4} {:>8} {:>8}", "id", "BL", "LTRF");
    for config_id in 1..=7u8 {
        let mean = |org| config_org_mean(results, config_id, org, |d| d.normalized_ipc);
        println!(
            "  #{config_id:<3} {:>8.3} {:>8.3}",
            mean(Organization::Baseline),
            mean(Organization::Ltrf)
        );
    }
    Ok(())
}

fn power_preamble(_specs: &[SweepSpec], ctx: &RenderContext) -> String {
    let Ok(params) = ctx.params.power_params() else {
        // The build step already reported the friendly validation error.
        return String::new();
    };
    format!(
        "power sweep: RFC/LTRF/LTRF+ on configurations #1..#7, normalized to baseline \
         (calibration: {} pJ/access, {} mW/KB leakage, {}x DWM write penalty)",
        params.base_access_pj, params.base_leakage_mw_per_kb, params.dwm_write_penalty
    )
}

fn render_power(results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    let results = &results[0];
    println!("\nMean normalized register-file power per design point (suite mean):");
    print!("  {:<4}", "id");
    for org in POWER_ORGS {
        print!(" {:>8}", org.label());
    }
    println!();
    for config_id in 1..=7u8 {
        print!("  #{config_id:<3}");
        for org in POWER_ORGS {
            let mean = config_org_mean(results, config_id, org, |d| d.normalized_power);
            print!(" {mean:>8.3}");
        }
        println!();
    }
    println!(
        "  (the configuration #7 row is Figure 10; the paper reports 0.65 / 0.65 / 0.54 there)"
    );
    Ok(())
}

fn repro_preamble(specs: &[SweepSpec], ctx: &RenderContext) -> String {
    format!(
        "repro: {} campaigns over {} workload(s){} into {}",
        specs.len(),
        ctx.params.workload_names().len(),
        if ctx.params.quick { " (--quick)" } else { "" },
        ctx.out_dir.display()
    )
}

fn render_repro(results: &[SweepResults], ctx: &RenderContext) -> Result<(), String> {
    let points: usize = results.iter().map(SweepResults::len).sum();
    let cached: usize = results.iter().map(SweepResults::cached_count).sum();
    let failed: usize = results.iter().map(SweepResults::failure_count).sum();
    let rate = crate::hit_percent_1dp(cached, points);
    println!(
        "\nrepro total: {points} points across {} campaigns, {cached} from cache \
         ({rate:.1}% hit rate), {failed} failed",
        results.len()
    );
    let artifacts: Vec<String> = results.iter().map(|r| format!("{}.csv", r.name)).collect();
    println!(
        "artifacts in {}: {} (plus the matching .json reports); \
         see REPRODUCING.md for the figure-by-figure atlas",
        ctx.out_dir.display(),
        artifacts.join(", ")
    );
    Ok(())
}

fn render_gpu_scale(_results: &[SweepResults], ctx: &RenderContext) -> Result<(), String> {
    let sm_counts = ctx.params.sm_count_axis();
    println!(
        "\nGPU scaling on configuration #6 (grid weak-scaled with the SM count; \
         means over workloads):"
    );
    println!(
        "  {:<5} {:<6} {:>9} {:>9} {:>8} {:>9} {:>12}",
        "SMs", "org", "IPC", "IPC/SM", "norm", "L2 hit", "DRAM row-hit"
    );
    for (sm_count, org, means) in
        ctx.aggregates[0].means(&sm_counts, &[Organization::Baseline, Organization::Ltrf])
    {
        println!(
            "  {:<5} {:<6} {:>9.3} {:>9.3} {:>8.3} {:>8.1}% {:>11.1}%",
            sm_count,
            org.label(),
            means.ipc,
            means.ipc / sm_count.max(1) as f64,
            means.normalized_ipc,
            means.l2_hit_rate * 100.0,
            means.dram_row_hit_rate * 100.0
        );
    }
    Ok(())
}

fn gen_campaign_preamble(_specs: &[SweepSpec], ctx: &RenderContext) -> String {
    let Ok(params) = ctx.params.gen_params() else {
        // The build step already reported the friendly validation error.
        return String::new();
    };
    format!(
        "generated campaign: population {} from seed {} (regs {}..={}, trips <=({}x{}), \
         body <=({} alu, {} loads)), BL vs LTRF on configuration #6",
        params.population,
        params.population_seed,
        params.config.min_regs,
        params.config.max_regs,
        params.config.max_outer_trips,
        params.config.max_inner_trips,
        params.config.max_body_alu,
        params.config.max_body_loads
    )
}

/// Prints the BL/LTRF means table of the generated and trace campaigns.
fn print_org_means(title: &str, aggregates: &RunningAggregates, ctx: &RenderContext) {
    println!("\n{title}");
    println!(
        "  {:<6} {:>7} {:>9} {:>8} {:>9} {:>12}",
        "org", "points", "IPC", "norm", "L2 hit", "DRAM row-hit"
    );
    let sm_count = ctx.params.single_sm_count();
    for (_, org, means) in aggregates.means(&[sm_count], &GEN_CAMPAIGN_ORGS) {
        println!(
            "  {:<6} {:>7} {:>9.3} {:>8.3} {:>8.1}% {:>11.1}%",
            org.label(),
            means.count,
            means.ipc,
            means.normalized_ipc,
            means.l2_hit_rate * 100.0,
            means.dram_row_hit_rate * 100.0
        );
    }
}

fn render_gen_campaign(_results: &[SweepResults], ctx: &RenderContext) -> Result<(), String> {
    let aggregates = &ctx.aggregates[0];
    print_org_means(
        "Population means (IPC normalized to baseline on the same member):",
        aggregates,
        ctx,
    );
    // Where LTRF wins and loses across the population (the tails are what a
    // fixed 14-benchmark suite cannot show). The tail is folded online —
    // the renderer never needs the member rows.
    let tail = aggregates.ltrf_member_tail();
    if let (Some((best_index, best)), Some((worst_index, worst))) = (tail.best, tail.worst) {
        println!(
            "  LTRF speeds up {}/{} members; member #{best_index} best ({best:.3}x), \
             member #{worst_index} worst ({worst:.3}x)",
            tail.wins, tail.count
        );
    }
    Ok(())
}

fn trace_campaign_preamble(_specs: &[SweepSpec], ctx: &RenderContext) -> String {
    let Ok(params) = ctx.params.trace_params() else {
        // The build step already reported the friendly validation error.
        return String::new();
    };
    let mut out = format!(
        "trace campaign: {} trace workload(s), BL vs LTRF on configuration #6",
        params.traces.len()
    );
    for trace in &params.traces {
        out.push_str(&format!(
            "\n  {:<28} {} ({})",
            trace.workload_name(),
            trace.path,
            &trace.content_hash[..8.min(trace.content_hash.len())]
        ));
    }
    out
}

fn render_trace_campaign(_results: &[SweepResults], ctx: &RenderContext) -> Result<(), String> {
    let aggregates = &ctx.aggregates[0];
    print_org_means(
        "Trace means (IPC normalized to baseline on the same trace):",
        aggregates,
        ctx,
    );
    // Per-trace LTRF outcomes: the whole point of ingesting real traces is
    // seeing which ones LTRF helps. (One entry per trace — sorting this
    // small list at render time keeps the fold itself bounded.)
    let mut per_trace: Vec<(&str, f64)> = aggregates
        .ltrf_trace_norms()
        .iter()
        .map(|(workload, norm)| (workload.as_str(), *norm))
        .collect();
    per_trace.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (workload, norm) in per_trace {
        println!("  {workload:<28} LTRF {norm:.3}x");
    }
    Ok(())
}

fn interconnect_preamble(specs: &[SweepSpec], ctx: &RenderContext) -> String {
    let params = ctx.params.interconnect_params();
    let topologies: Vec<&str> = params.topologies.iter().map(|t| t.label()).collect();
    format!(
        "interconnect campaign: {} ({} spec(s)), link width {} B/cycle, queue depth {}, \
         LTRF on configuration #6 across SMs {:?}",
        topologies.join(" vs "),
        specs.len(),
        params.link_width,
        params.queue_depth,
        params.sm_counts
    )
}

fn render_interconnect(_results: &[SweepResults], ctx: &RenderContext) -> Result<(), String> {
    let params = ctx.params.interconnect_params();
    println!("\nNetwork contention by topology (means over workloads, LTRF on configuration #6):");
    println!(
        "  {:<10} {:<5} {:>9} {:>15} {:>13}",
        "topology", "SMs", "IPC", "L2 queue wait", "NoC latency"
    );
    for (topology, aggregates) in params.topologies.iter().zip(ctx.aggregates) {
        for (sm_count, _, means) in aggregates.means(&params.sm_counts, &[Organization::Ltrf]) {
            println!(
                "  {:<10} {:<5} {:>9.3} {:>15.0} {:>13.2}",
                topology.label(),
                sm_count,
                means.ipc,
                means.l2_queue_wait,
                means.noc_latency
            );
        }
    }
    println!(
        "  (single-SM rows never touch the shared network: the contention-free floor; \
         the extended CSV columns carry the per-point stats)"
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// The registered campaigns, in help order. Exactly one entry per paper
/// artifact plus the `repro` meta-campaign and the beyond-paper
/// `gpu-scale`/`gen-campaign`/`trace-campaign`/`interconnect` studies.
/// Figures 3, 4 and 10 are slices of other campaigns and are reached
/// through aliases: Figure 3 is fig9's Ideal/BL points on configuration #6,
/// Figure 4 is fig14's 1× points, and Figure 10 is `power`'s
/// configuration-#7 slice.
static CAMPAIGNS: [Campaign; 17] = [
    Campaign {
        name: "fig9",
        aliases: &["figure9", "fig3", "figure3"],
        kind: ArtifactKind::PaperFigure,
        paper_ref: "Figure 9",
        summary: "six organizations x suite on configurations #6/#7 (fig3 = Ideal/BL on #6)",
        artifacts: "fig9.{csv,json} (fig9-smN for multi-SM runs)",
        params: &SUITE_PARAMS,
        build: |params| {
            Ok(vec![campaigns::fig9_spec(
                params.workload_names(),
                params.single_sm_count(),
                params.seed_mode(),
            )])
        },
        preamble: no_preamble,
        render: render_fig9,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "fig11",
        aliases: &["figure11"],
        kind: ArtifactKind::PaperFigure,
        paper_ref: "Figure 11",
        summary: "latency-tolerance matrix (orgs x latency factors)",
        artifacts: "fig11.{csv,json} (fig11-smN for multi-SM runs)",
        params: &SUITE_PARAMS,
        build: |params| {
            Ok(vec![campaigns::fig11_spec(
                params.workload_names(),
                params.single_sm_count(),
                params.seed_mode(),
            )])
        },
        preamble: no_preamble,
        render: render_fig11,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "fig12",
        aliases: &["figure12"],
        kind: ArtifactKind::PaperFigure,
        paper_ref: "Figure 12",
        summary: "LTRF latency sweep x registers per interval",
        artifacts: "fig12.{csv,json} (fig12-smN for multi-SM runs)",
        params: &SUITE_PARAMS,
        build: |params| {
            Ok(vec![campaigns::fig12_spec(
                params.workload_names(),
                params.single_sm_count(),
                params.seed_mode(),
            )])
        },
        preamble: no_preamble,
        render: render_fig12,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "fig13",
        aliases: &["figure13"],
        kind: ArtifactKind::PaperFigure,
        paper_ref: "Figure 13",
        summary: "LTRF latency sweep x active warps",
        artifacts: "fig13.{csv,json} (fig13-smN for multi-SM runs)",
        params: &SUITE_PARAMS,
        build: |params| {
            Ok(vec![campaigns::fig13_spec(
                params.workload_names(),
                params.single_sm_count(),
                params.seed_mode(),
            )])
        },
        preamble: no_preamble,
        render: render_fig13,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "fig14",
        aliases: &["figure14", "fig4", "figure4"],
        kind: ArtifactKind::PaperFigure,
        paper_ref: "Figure 14",
        summary: "latency sweep x register-caching scheme (fig4 = the 1x hit rates)",
        artifacts: "fig14.{csv,json} (fig14-smN for multi-SM runs)",
        params: &SUITE_PARAMS,
        build: |params| {
            Ok(vec![campaigns::fig14_spec(
                params.workload_names(),
                params.single_sm_count(),
                params.seed_mode(),
            )])
        },
        preamble: no_preamble,
        render: render_fig14,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "table2",
        aliases: &["figure-table2"],
        kind: ArtifactKind::PaperTable,
        paper_ref: "Table 2",
        summary: "the seven design points, swept under BL and LTRF",
        artifacts: "table2.{csv,json} (table2-smN for multi-SM runs)",
        params: &SUITE_PARAMS,
        build: |params| {
            Ok(vec![campaigns::table2_spec(
                params.workload_names(),
                params.single_sm_count(),
                params.seed_mode(),
            )])
        },
        preamble: table2_preamble,
        render: render_table2,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "power",
        aliases: &["fig10", "figure10"],
        kind: ArtifactKind::PaperFigure,
        paper_ref: "Figure 10 / §6.4",
        summary: "RF power across all design points (fig10 = the #7 slice)",
        artifacts: "power.{csv,json} (power-p<hex> for non-default calibrations)",
        params: &POWER_CAMPAIGN_PARAMS,
        build: |params| {
            Ok(vec![campaigns::power_sweep_spec(
                params.workload_names(),
                params.single_sm_count(),
                params.seed_mode(),
                params.power_params()?,
            )])
        },
        preamble: power_preamble,
        render: render_power,
        fail_on_point_failure: false,
    },
    analytical::TABLE1,
    analytical::FIG2,
    analytical::TABLE3,
    analytical::TABLE4,
    analytical::OVERHEADS,
    Campaign {
        name: "repro",
        aliases: &["all"],
        kind: ArtifactKind::Meta,
        paper_ref: "Figures 9-14, Table 2",
        summary: "the full paper-artifact set into one directory",
        artifacts: "fig9/fig11/fig12/fig13/fig14/table2/power .{csv,json}",
        params: &SUITE_PARAMS,
        build: |params| {
            Ok(campaigns::repro_specs(
                &params.workload_names(),
                params.single_sm_count(),
                params.seed_mode(),
            ))
        },
        preamble: repro_preamble,
        render: render_repro,
        fail_on_point_failure: true,
    },
    Campaign {
        name: "gpu-scale",
        aliases: &["gpuscale"],
        kind: ArtifactKind::BeyondPaper,
        paper_ref: "—",
        summary: "BL/LTRF full-GPU scaling over shared L2/DRAM",
        artifacts: "gpu-scale.{csv,json}",
        params: &GPU_SCALE_PARAMS,
        build: |params| {
            Ok(vec![campaigns::gpu_scale_spec(
                params.workload_names(),
                &params.sm_count_axis(),
                params.seed_mode(),
            )])
        },
        preamble: no_preamble,
        render: render_gpu_scale,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "gen-campaign",
        aliases: &["gen"],
        kind: ArtifactKind::BeyondPaper,
        paper_ref: "—",
        summary: "BL/LTRF over a seeded random kernel population",
        artifacts: "gen-campaign-nN-sS.{csv,json} (bounds-fingerprinted when non-default)",
        params: &GEN_CAMPAIGN_PARAMS,
        build: |params| Ok(vec![campaigns::gen_campaign_spec(&params.gen_params()?)]),
        preamble: gen_campaign_preamble,
        render: render_gen_campaign,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "trace-campaign",
        aliases: &["trace"],
        kind: ArtifactKind::BeyondPaper,
        paper_ref: "—",
        summary: "BL/LTRF over kernels lowered from execution traces",
        artifacts: "trace-campaign-t<hex>.{csv,json} (fingerprinted by the trace set)",
        params: &TRACE_CAMPAIGN_PARAMS,
        build: |params| {
            Ok(vec![campaigns::trace_campaign_spec(
                &params.trace_params()?,
            )])
        },
        preamble: trace_campaign_preamble,
        render: render_trace_campaign,
        fail_on_point_failure: false,
    },
    Campaign {
        name: "interconnect",
        aliases: &["noc"],
        kind: ArtifactKind::BeyondPaper,
        paper_ref: "—",
        summary: "SM<->L2 network topologies under shared-memory contention",
        artifacts: "interconnect-<topology>.{csv,json} (one per swept topology)",
        params: &INTERCONNECT_PARAMS,
        build: |params| {
            Ok(campaigns::interconnect_specs(
                &params.workload_names(),
                &params.interconnect_params(),
            ))
        },
        preamble: interconnect_preamble,
        render: render_interconnect,
        fail_on_point_failure: false,
    },
];

/// The campaign registry: lookup by name or alias, nearest-name
/// suggestions, and the union parameter vocabulary behind the CLI's
/// generated parsing and flag scoping.
#[derive(Debug)]
pub struct CampaignRegistry {
    campaigns: &'static [Campaign],
}

/// The process-wide registry.
#[must_use]
pub fn registry() -> &'static CampaignRegistry {
    static REGISTRY: CampaignRegistry = CampaignRegistry {
        campaigns: &CAMPAIGNS,
    };
    &REGISTRY
}

impl CampaignRegistry {
    /// The registered campaigns, in help order.
    #[must_use]
    pub fn campaigns(&self) -> &'static [Campaign] {
        self.campaigns
    }

    /// Looks a campaign up by canonical name or alias.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&'static Campaign> {
        self.campaigns
            .iter()
            .find(|c| c.names().any(|candidate| candidate == name))
    }

    /// The nearest registered campaign to a mistyped name (edit distance
    /// over names and aliases), if any is plausibly close.
    #[must_use]
    pub fn suggest(&self, name: &str) -> Option<&'static Campaign> {
        let mut best: Option<(usize, &Campaign)> = None;
        for campaign in self.campaigns {
            for candidate in campaign.names() {
                let distance = edit_distance(name, candidate);
                if best.is_none_or(|(best_distance, _)| distance < best_distance) {
                    best = Some((distance, campaign));
                }
            }
        }
        // "Plausibly close": within three edits and not a rewrite of the
        // whole word.
        best.filter(|&(distance, _)| distance <= 3 && distance < name.len().max(2))
            .map(|(_, campaign)| campaign)
    }

    /// The parameter spec a flag names, across every campaign's schema
    /// (used by the CLI to distinguish out-of-scope flags from unknown
    /// ones).
    #[must_use]
    pub fn param(&self, flag: &str) -> Option<&'static ParamSpec> {
        self.campaigns
            .iter()
            .flat_map(|c| c.params.iter())
            .find(|spec| spec.flag == flag)
            .copied()
    }

    /// The canonical names of the campaigns accepting a flag, in help
    /// order.
    #[must_use]
    pub fn campaigns_accepting(&self, spec: &ParamSpec) -> Vec<&'static str> {
        self.campaigns
            .iter()
            .filter(|c| c.accepts(spec))
            .map(|c| c.name)
            .collect()
    }

    /// The registry-derived cross-rejection message for a flag given to a
    /// campaign whose schema does not include it — the uniform replacement
    /// for the CLI's hand-maintained per-subcommand flag-scope tables. It
    /// ends with the flag's hint, or, for a campaign that takes no
    /// parameters at all, says so: a hint pointing at another campaign's
    /// use of the flag would not help there.
    #[must_use]
    pub fn scope_error(&self, campaign: &Campaign, spec: &ParamSpec) -> String {
        let advice = if campaign.params.is_empty() {
            format!("`{}` takes no parameters", campaign.name)
        } else {
            spec.hint.to_string()
        };
        format!(
            "{} does not apply to `{}` (it applies to {}); {advice}",
            spec.flag,
            campaign.name,
            self.campaigns_accepting(spec).join("/"),
        )
    }
}

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = previous[j] + usize::from(ca != cb);
            current[j + 1] = substitute.min(previous[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut previous, &mut current);
    }
    previous[b.len()]
}

// ---------------------------------------------------------------------------
// list / describe rendering (human and JSON), shared by the CLI and tests
// ---------------------------------------------------------------------------

/// The `sweep list` table: one line per campaign.
#[must_use]
pub fn list_text() -> String {
    let mut out = String::from("registered campaigns (sweep describe <campaign> for details):\n");
    for campaign in registry().campaigns() {
        out.push_str(&format!(
            "  {:<13} {:<13} {}\n",
            campaign.name,
            campaign.kind.label(),
            campaign.summary
        ));
        if !campaign.aliases.is_empty() {
            out.push_str(&format!(
                "  {:<13}   aliases: {}\n",
                "",
                campaign.aliases.join(", ")
            ));
        }
    }
    out
}

/// The `sweep list --json` document: the campaign index as one JSON array.
#[must_use]
pub fn list_json() -> String {
    serde::Value::Array(registry().campaigns().iter().map(describe_value).collect()).to_json()
}

/// The `sweep describe <campaign>` text: schema, defaults, artifacts.
#[must_use]
pub fn describe_text(campaign: &Campaign) -> String {
    let mut out = format!(
        "{} — {} ({})\n  {}\n",
        campaign.name,
        campaign.paper_ref,
        campaign.kind.label(),
        campaign.summary
    );
    if !campaign.aliases.is_empty() {
        out.push_str(&format!("  aliases: {}\n", campaign.aliases.join(", ")));
    }
    out.push_str(&format!("  reports: {}\n", campaign.artifacts));
    out.push_str("  parameters:\n");
    for param in campaign.params {
        out.push_str(&format!(
            "    {:<24} {} (default: {})\n",
            param.usage(),
            param.help,
            param.default
        ));
    }
    let columns = csv_columns(campaign);
    if !columns.is_empty() {
        out.push_str(&format!("  csv columns: {}\n", columns.join(", ")));
    }
    if campaign.name == "interconnect" {
        out.push_str(&format!(
            "  extra csv columns: {}\n",
            crate::report::INTERCONNECT_CSV_COLUMNS.join(", ")
        ));
    }
    out
}

/// A campaign's metadata as a JSON value (the `--json` flavor of
/// `describe`, and one element of `list --json`).
#[must_use]
pub fn describe_value(campaign: &Campaign) -> serde::Value {
    use serde::Value;
    let string = |s: &str| Value::Str(s.to_string());
    Value::Object(vec![
        ("name".to_string(), string(campaign.name)),
        (
            "aliases".to_string(),
            Value::Array(campaign.aliases.iter().map(|a| string(a)).collect()),
        ),
        ("kind".to_string(), string(campaign.kind.label())),
        ("paper_ref".to_string(), string(campaign.paper_ref)),
        ("summary".to_string(), string(campaign.summary)),
        ("artifacts".to_string(), string(campaign.artifacts)),
        (
            "params".to_string(),
            Value::Array(
                campaign
                    .params
                    .iter()
                    .map(|p| {
                        Value::Object(vec![
                            ("flag".to_string(), string(p.flag)),
                            (
                                "value".to_string(),
                                p.value_name.map_or(Value::Null, string),
                            ),
                            ("type".to_string(), string(p.ty.label())),
                            ("default".to_string(), string(p.default)),
                            ("help".to_string(), string(p.help)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "csv_columns".to_string(),
            Value::Array(csv_columns(campaign).iter().map(|c| string(c)).collect()),
        ),
    ])
}

/// The standard CSV columns a campaign's reports carry; none for the
/// analytical artifacts, which write no reports.
fn csv_columns(campaign: &Campaign) -> &'static [&'static str] {
    match campaign.kind {
        ArtifactKind::Analytical => &[],
        _ => &crate::report::CSV_COLUMNS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_campaign_is_found_by_name_and_alias() {
        let registry = registry();
        assert_eq!(registry.campaigns().len(), 17);
        for campaign in registry.campaigns() {
            assert!(std::ptr::eq(
                registry.find(campaign.name).expect("found by name"),
                campaign
            ));
            for alias in campaign.aliases {
                assert!(std::ptr::eq(
                    registry.find(alias).expect("found by alias"),
                    campaign
                ));
            }
        }
        // Names and aliases never collide.
        let mut names: Vec<&str> = registry
            .campaigns()
            .iter()
            .flat_map(Campaign::names)
            .collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate campaign name or alias");
        assert_eq!(registry.find("fig10").unwrap().name, "power");
        assert_eq!(registry.find("fig3").unwrap().name, "fig9");
        assert_eq!(registry.find("fig4").unwrap().name, "fig14");
        assert_eq!(registry.find("figure2").unwrap().name, "fig2");
        assert_eq!(
            registry.find("noc").unwrap().name,
            "interconnect",
            "noc reaches interconnect"
        );
    }

    #[test]
    fn suggestions_recover_near_misses_and_reject_nonsense() {
        let registry = registry();
        assert_eq!(registry.suggest("fig12x").unwrap().name, "fig12");
        assert_eq!(registry.suggest("powr").unwrap().name, "power");
        assert_eq!(
            registry.suggest("gencampaign").unwrap().name,
            "gen-campaign"
        );
        assert_eq!(registry.suggest("figure13").unwrap().name, "fig13");
        assert!(registry.suggest("frobnicate").is_none());
        assert!(registry.suggest("x").is_none());
    }

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("fig9", "fig9"), 0);
        assert_eq!(edit_distance("fig9", "fig12"), 2);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    #[test]
    fn registry_scoping_matches_the_historical_tables() {
        let registry = registry();
        let sm_counts = registry.param("--sm-counts").unwrap();
        // --sm-counts belongs to the SM-axis campaigns.
        for campaign in registry.campaigns() {
            assert_eq!(
                campaign.accepts(sm_counts),
                campaign.name == "gpu-scale" || campaign.name == "interconnect"
            );
        }
        let message = registry.scope_error(registry.find("fig9").unwrap(), sm_counts);
        assert!(message.contains("--sm-counts"), "{message}");
        assert!(message.contains("gpu-scale"), "{message}");
        assert!(message.contains("--sm-count N"), "hint present: {message}");

        // --sm-count applies to every simulated campaign except the
        // SM-axis ones.
        let sm_count = registry.param("--sm-count").unwrap();
        for campaign in registry.campaigns() {
            assert_eq!(
                campaign.accepts(sm_count),
                campaign.kind != ArtifactKind::Analytical
                    && campaign.name != "gpu-scale"
                    && campaign.name != "interconnect"
            );
        }

        // Network knobs belong to interconnect alone.
        let topology = registry.param("--topology").unwrap();
        assert_eq!(registry.campaigns_accepting(topology), ["interconnect"]);
        assert!(registry
            .scope_error(registry.find("gpu-scale").unwrap(), topology)
            .contains("sweep interconnect"));
        let link_width = registry.param("--link-width").unwrap();
        assert_eq!(registry.campaigns_accepting(link_width), ["interconnect"]);
        let queue_depth = registry.param("--queue-depth").unwrap();
        assert_eq!(registry.campaigns_accepting(queue_depth), ["interconnect"]);

        // Generator flags belong to gen-campaign alone.
        let max_regs = registry.param("--max-regs").unwrap();
        assert_eq!(registry.campaigns_accepting(max_regs), ["gen-campaign"]);
        assert!(registry
            .scope_error(registry.find("power").unwrap(), max_regs)
            .contains("gen-campaign"));

        // Power knobs belong to power alone — including under repro, whose
        // artifacts are pinned to the canonical calibration.
        let access = registry.param("--access-energy-pj").unwrap();
        assert_eq!(registry.campaigns_accepting(access), ["power"]);
        assert!(registry
            .scope_error(registry.find("repro").unwrap(), access)
            .contains("sweep power"));

        // --quick sizes suite campaigns, not generated populations.
        let quick = registry.param("--quick").unwrap();
        assert!(registry.find("repro").unwrap().accepts(quick));
        assert!(registry.find("gpu-scale").unwrap().accepts(quick));
        assert!(!registry.find("gen-campaign").unwrap().accepts(quick));
        assert!(registry
            .scope_error(registry.find("gen-campaign").unwrap(), quick)
            .contains("--population"));

        // --per-point-seeds applies to every simulated campaign.
        let per_point = registry.param("--per-point-seeds").unwrap();
        for campaign in registry.campaigns() {
            assert_eq!(
                campaign.accepts(per_point),
                campaign.kind != ArtifactKind::Analytical,
                "{}",
                campaign.name
            );
        }

        // --trace belongs to trace-campaign alone.
        let trace = registry.param("--trace").unwrap();
        assert_eq!(registry.campaigns_accepting(trace), ["trace-campaign"]);
        assert!(registry
            .scope_error(registry.find("fig9").unwrap(), trace)
            .contains("sweep trace-campaign"));
        assert!(!registry.find("trace-campaign").unwrap().accepts(quick));
    }

    #[test]
    fn registry_builds_match_the_canonical_constructors() {
        let params = CampaignParams {
            quick: true,
            ..CampaignParams::default()
        };
        let fig9 = registry().find("fig9").unwrap().specs(&params).unwrap();
        assert_eq!(fig9.len(), 1);
        assert_eq!(
            fig9[0],
            campaigns::fig9_spec(params.workload_names(), 1, SeedMode::Fixed(CAMPAIGN_SEED)),
            "registry fig9 is byte-for-byte the canonical constructor"
        );

        let repro = registry().find("repro").unwrap().specs(&params).unwrap();
        assert_eq!(repro.len(), 7, "repro composes the whole artifact set");

        let power = registry().find("power").unwrap().specs(&params).unwrap();
        assert_eq!(power[0].name, "power");

        let interconnect = registry()
            .find("interconnect")
            .unwrap()
            .specs(&params)
            .unwrap();
        assert_eq!(
            interconnect,
            campaigns::interconnect_specs(&params.workload_names(), &params.interconnect_params()),
            "registry interconnect is byte-for-byte the canonical constructor"
        );
        assert_eq!(interconnect.len(), 2, "ideal vs crossbar by default");
        let narrowed = CampaignParams {
            quick: true,
            topology: Some(Topology::Mesh2D),
            ..CampaignParams::default()
        };
        let mesh = registry()
            .find("interconnect")
            .unwrap()
            .specs(&narrowed)
            .unwrap();
        assert_eq!(mesh.len(), 1, "--topology narrows the axis to one spec");
        assert_eq!(mesh[0].name, "interconnect-mesh");

        // Parameter validation surfaces as friendly errors, not panics.
        let bad = CampaignParams {
            dwm_write_penalty: Some(-1.0),
            ..CampaignParams::default()
        };
        let complaint = registry().find("power").unwrap().specs(&bad).unwrap_err();
        assert!(complaint.contains("--dwm-write-penalty"), "{complaint}");
        let empty = CampaignParams {
            population: Some(0),
            ..CampaignParams::default()
        };
        let complaint = registry()
            .find("gen-campaign")
            .unwrap()
            .specs(&empty)
            .unwrap_err();
        assert!(complaint.contains("--population"), "{complaint}");
    }

    #[test]
    fn param_application_parses_and_rejects() {
        let mut params = CampaignParams::default();
        let registry = registry();
        registry
            .param("--sm-count")
            .unwrap()
            .apply(&mut params, Some("4"))
            .unwrap();
        assert_eq!(params.sm_count, Some(4));
        registry
            .param("--sm-counts")
            .unwrap()
            .apply(&mut params, Some("1, 2,8"))
            .unwrap();
        assert_eq!(params.sm_counts, Some(vec![1, 2, 8]));
        registry
            .param("--quick")
            .unwrap()
            .apply(&mut params, None)
            .unwrap();
        assert!(params.quick);

        registry
            .param("--trace")
            .unwrap()
            .apply(&mut params, Some("a.trace"))
            .unwrap();
        registry
            .param("--trace")
            .unwrap()
            .apply(&mut params, Some("b.trace"))
            .unwrap();
        assert_eq!(params.trace_paths, ["a.trace", "b.trace"], "repeatable");
        let missing_path = registry
            .param("--trace")
            .unwrap()
            .apply(&mut params, None)
            .unwrap_err();
        assert!(missing_path.contains("--trace"), "{missing_path}");

        registry
            .param("--topology")
            .unwrap()
            .apply(&mut params, Some("mesh"))
            .unwrap();
        assert_eq!(params.topology, Some(Topology::Mesh2D));
        let bad_topology = registry
            .param("--topology")
            .unwrap()
            .apply(&mut params, Some("torus"))
            .unwrap_err();
        assert!(bad_topology.contains("--topology"), "{bad_topology}");
        registry
            .param("--link-width")
            .unwrap()
            .apply(&mut params, Some("0"))
            .unwrap();
        assert_eq!(params.link_width, Some(1), "width clamps to 1");
        registry
            .param("--queue-depth")
            .unwrap()
            .apply(&mut params, Some("4"))
            .unwrap();
        assert_eq!(params.queue_depth, Some(4));

        let missing = registry.param("--threads");
        assert!(
            missing.is_none(),
            "--threads is an execution option, not a campaign parameter"
        );
        let bad = registry
            .param("--population")
            .unwrap()
            .apply(&mut params, Some("many"))
            .unwrap_err();
        assert!(bad.contains("--population"), "{bad}");
        let zero = registry
            .param("--sm-counts")
            .unwrap()
            .apply(&mut params, Some("1,0"))
            .unwrap_err();
        assert!(zero.contains("positive"), "{zero}");
    }

    #[test]
    fn describe_mentions_every_parameter_and_column() {
        for campaign in registry().campaigns() {
            let text = describe_text(campaign);
            for param in campaign.params {
                assert!(
                    text.contains(param.flag),
                    "`describe {}` omits {}",
                    campaign.name,
                    param.flag
                );
            }
            for column in csv_columns(campaign) {
                assert!(
                    text.contains(column),
                    "`describe {}` omits column {column}",
                    campaign.name
                );
            }
            // Analytical artifacts write no reports, so advertise no columns.
            assert_eq!(
                text.contains("csv columns"),
                campaign.kind != ArtifactKind::Analytical,
                "{}",
                campaign.name
            );
            let json = describe_value(campaign).to_json();
            for param in campaign.params {
                assert!(
                    json.contains(param.flag),
                    "describe --json omits {}",
                    param.flag
                );
            }
        }
        // The list covers every campaign and parses as JSON.
        let list = list_text();
        for campaign in registry().campaigns() {
            assert!(list.contains(campaign.name));
        }
        let parsed = serde::Value::parse_json(&list_json()).expect("list --json parses");
        match parsed {
            serde::Value::Array(items) => assert_eq!(items.len(), 17),
            other => panic!("expected array, got {other:?}"),
        }
    }
}
