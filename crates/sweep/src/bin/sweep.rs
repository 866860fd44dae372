//! The `sweep` CLI: reproduce the paper's headline experiments through the
//! parallel, cached campaign engine.
//!
//! This binary is a thin driver over the campaign registry
//! ([`ltrf_sweep::api`]): the subcommand list, per-campaign flag parsing,
//! flag cross-rejection, and the `list`/`describe` surfaces are all
//! *generated* from the registered [`Campaign`] definitions — adding a
//! campaign to the registry adds its subcommand here with no CLI edits.
//!
//! ```text
//! sweep <campaign>  [OPTIONS]   run a registered campaign (see `sweep list`)
//! sweep list        [--json]    the campaign index
//! sweep describe <campaign> [--json]   a campaign's parameters and schema
//! sweep version                 crate version, engine fingerprint, cache schema
//!
//! execution OPTIONS (every campaign):
//!   --out DIR           report directory            (default: sweep-out)
//!   --cache DIR         result-cache directory      (default: .sweep-cache)
//!   --no-cache          disable the result cache
//!   --force             recompute even when cached
//!   --resume            restore points completed by a previous (killed)
//!                       run of the same campaign from its checkpoint
//!                       journal instead of re-evaluating them
//!   --threads N         worker threads              (default: all cores)
//!   --progress MODE     human (default) or json — line-delimited
//!                       campaign events for CI (see REPRODUCING.md)
//! ```
//!
//! Execution streams: every completed point's CSV row is written to
//! `<out>/<campaign>.csv` as it completes (bounded memory, byte-identical
//! to the batch renderer) and folded into the running aggregates the
//! summary tables read, while a checkpoint journal
//! (`<out>/<campaign>.journal`, deleted on success) records completed
//! points so `--resume` can pick up where a killed run stopped.
//!
//! Campaign parameters (`--quick`, `--sm-count`, the generator bounds, the
//! power-calibration knobs, …) are declared per campaign in the registry;
//! a flag given to the wrong subcommand is rejected with a pointer to the
//! right one rather than silently ignored, and a mistyped subcommand gets
//! a nearest-name suggestion. `REPRODUCING.md` maps every paper artifact
//! to its command, runtime, and CSV schema.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ltrf_sweep::api::{self, registry, Campaign, CampaignParams, RenderContext};
use ltrf_sweep::{print, println};
use ltrf_sweep::{
    report, AggregateSink, CampaignEvent, CampaignSession, ExecutorOptions, FanoutSink, RecordSink,
    RunningAggregates, StreamingCsvWriter, SweepResults, SweepSpec, CACHE_SCHEMA_VERSION,
    ENGINE_FINGERPRINT,
};

/// How execution progress reaches stdout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgressMode {
    /// The classic summary lines (campaign header, hit-rate totals,
    /// figure tables).
    Human,
    /// One JSON object per campaign event, nothing else on stdout.
    Json,
}

/// Execution options shared by every campaign (everything that is not a
/// campaign parameter).
#[derive(Debug)]
struct RuntimeOptions {
    out_dir: PathBuf,
    cache_dir: Option<PathBuf>,
    force: bool,
    resume: bool,
    threads: Option<usize>,
    progress: ProgressMode,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            out_dir: PathBuf::from("sweep-out"),
            cache_dir: Some(PathBuf::from(".sweep-cache")),
            force: false,
            resume: false,
            threads: None,
            progress: ProgressMode::Human,
        }
    }
}

/// The usage line, generated from the registry.
fn usage() -> String {
    let commands: Vec<&str> = registry().campaigns().iter().map(|c| c.name).collect();
    format!(
        "usage: sweep <{}|list|describe|version> [--out DIR] [--cache DIR] \
         [--no-cache] [--force] [--resume] [--threads N] [--progress human|json] \
         [campaign options]\n\
         `sweep list` prints the campaign index; `sweep describe <campaign>` its options",
        commands.join("|")
    )
}

/// Parses the value after a `--flag VALUE` pair.
fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Parses an invocation's arguments: execution options are handled here,
/// everything else resolves against the registry's parameter vocabulary —
/// applied when the campaign accepts the flag, rejected with a
/// registry-derived scope message when another campaign owns it, and an
/// unknown-option error otherwise.
fn parse_invocation(
    campaign: &Campaign,
    args: &[String],
) -> Result<(RuntimeOptions, CampaignParams), String> {
    let mut runtime = RuntimeOptions::default();
    let mut params = CampaignParams::default();
    let registry = registry();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--no-cache" => runtime.cache_dir = None,
            "--force" => runtime.force = true,
            "--resume" => runtime.resume = true,
            "--out" => {
                runtime.out_dir = iter
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--out needs a directory")?;
            }
            "--cache" => {
                runtime.cache_dir = Some(
                    iter.next()
                        .map(PathBuf::from)
                        .ok_or("--cache needs a directory")?,
                );
            }
            "--threads" => {
                let n: usize = parse_value("--threads", iter.next())?;
                runtime.threads = Some(n.max(1));
            }
            "--progress" => {
                runtime.progress = match iter.next().map(String::as_str) {
                    Some("human") => ProgressMode::Human,
                    Some("json") => ProgressMode::Json,
                    Some(other) => {
                        return Err(format!("--progress: unknown mode `{other}` (human|json)"))
                    }
                    None => return Err("--progress needs a mode (human|json)".to_string()),
                };
            }
            flag => match registry.param(flag) {
                Some(spec) if campaign.accepts(spec) => {
                    let value = if spec.takes_value() {
                        iter.next().map(String::as_str)
                    } else {
                        None
                    };
                    spec.apply(&mut params, value)?;
                }
                Some(spec) => return Err(registry.scope_error(campaign, spec)),
                None => return Err(format!("unknown option `{flag}`\n{}", usage())),
            },
        }
    }
    Ok((runtime, params))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sweep: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Routes the first argument: meta-commands, then the registry.
fn dispatch(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage());
    };
    match command.as_str() {
        "version" | "--version" | "-V" => {
            print!("{}", version_text());
            Ok(())
        }
        "list" => run_list(rest),
        "describe" => run_describe(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        name => match registry().find(name) {
            Some(campaign) => run_campaign(campaign, rest),
            None => Err(unknown_command(name)),
        },
    }
}

/// The unknown-subcommand error, with a nearest-registered-name suggestion
/// (edit distance over campaign names and aliases) when one is plausible.
fn unknown_command(name: &str) -> String {
    let suggestion = registry()
        .suggest(name)
        .map(|campaign| format!(" (did you mean `{}`?)", campaign.name))
        .unwrap_or_default();
    format!("unknown command `{name}`{suggestion}\n{}", usage())
}

/// `sweep version`: everything a cache-invalidation bug report needs to be
/// self-describing.
fn version_text() -> String {
    format!(
        "sweep {}\nengine fingerprint: {ENGINE_FINGERPRINT}\ncache schema: v{CACHE_SCHEMA_VERSION}\n",
        env!("CARGO_PKG_VERSION")
    )
}

fn run_list(args: &[String]) -> Result<(), String> {
    match args {
        [] => print!("{}", api::list_text()),
        [flag] if flag == "--json" => println!("{}", api::list_json()),
        _ => return Err(format!("list takes only --json\n{}", usage())),
    }
    Ok(())
}

fn run_describe(args: &[String]) -> Result<(), String> {
    let (name, json) = match args {
        [name] => (name, false),
        [name, flag] if flag == "--json" => (name, true),
        [flag, name] if flag == "--json" => (name, true),
        _ => return Err("usage: sweep describe <campaign> [--json]".to_string()),
    };
    let campaign = registry().find(name).ok_or_else(|| unknown_command(name))?;
    if json {
        println!("{}", api::describe_value(campaign).to_json());
    } else {
        print!("{}", api::describe_text(campaign));
    }
    Ok(())
}

/// Runs a registered campaign: build its specs from the parsed parameters,
/// execute each through an observed session, write the reports, and render
/// the summary (human mode) or stream events (json mode).
fn run_campaign(campaign: &Campaign, args: &[String]) -> Result<(), String> {
    let (runtime, params) = parse_invocation(campaign, args)?;
    let specs = campaign.specs(&params)?;
    let human = runtime.progress == ProgressMode::Human;
    if human {
        // Before execution there are no aggregates yet.
        let preamble_ctx = RenderContext {
            params: &params,
            out_dir: &runtime.out_dir,
            aggregates: &[],
        };
        let preamble = (campaign.preamble)(&specs, &preamble_ctx);
        if !preamble.is_empty() {
            println!("{preamble}");
        }
    }
    let mut all = Vec::with_capacity(specs.len());
    let mut aggregates = Vec::with_capacity(specs.len());
    for spec in &specs {
        if human && specs.len() > 1 {
            println!();
        }
        let (results, agg) = execute(spec, &runtime)?;
        all.push(results);
        aggregates.push(agg);
    }
    if human {
        let ctx = RenderContext {
            params: &params,
            out_dir: &runtime.out_dir,
            aggregates: &aggregates,
        };
        (campaign.render)(&all, &ctx)?;
    }
    if campaign.fail_on_point_failure {
        let failed: usize = all.iter().map(SweepResults::failure_count).sum();
        if failed > 0 {
            return Err(format!("{failed} {} point(s) failed", campaign.name));
        }
    }
    Ok(())
}

/// Runs one campaign spec with progress on the event stream, streaming the
/// CSV report row by row (and the summary aggregates) as points complete,
/// writes the JSON report, prints the summary (human mode), and hands the
/// results plus aggregates back for the campaign's summary renderer.
///
/// The checkpoint journal lives at `<out>/<name>.journal` while the
/// campaign runs and is deleted once it completes; a journal left behind by
/// a killed run is what `--resume` picks up.
fn execute(
    spec: &SweepSpec,
    runtime: &RuntimeOptions,
) -> Result<(SweepResults, RunningAggregates), String> {
    // The out dir must exist before the run: the streaming CSV and the
    // checkpoint journal are written while points execute.
    std::fs::create_dir_all(&runtime.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", runtime.out_dir.display()))?;
    let json_path = runtime.out_dir.join(format!("{}.json", spec.name));
    let csv_path = runtime.out_dir.join(format!("{}.csv", spec.name));
    let journal_path = runtime.out_dir.join(format!("{}.journal", spec.name));
    if runtime.resume && runtime.cache_dir.is_none() {
        eprintln!(
            "sweep: --resume without a cache cannot restore outcomes; \
             previously completed points will be recomputed"
        );
    }

    let executor = ExecutorOptions {
        threads: runtime.threads,
        cache_dir: runtime.cache_dir.clone(),
        force_recompute: runtime.force,
        journal_path: Some(journal_path.clone()),
        resume: runtime.resume,
    };
    let threads = runtime.threads.unwrap_or_else(ltrf_sweep::default_threads);
    let session = CampaignSession::new(spec, &executor);

    // Interconnect specs carry the extended network columns; everything
    // else keeps the frozen standard schema byte for byte.
    let csv = StreamingCsvWriter::create_with_schema(&csv_path, report::CsvSchema::for_spec(spec))
        .map_err(|e| format!("creating {}: {e}", csv_path.display()))?;
    let agg = AggregateSink::new();
    let sinks: [&dyn RecordSink; 2] = [&csv, &agg];
    let fanout = FanoutSink(&sinks);

    let started = Instant::now();
    let (results, totals) = match runtime.progress {
        ProgressMode::Human => session.run_with_sink(
            &|event: &CampaignEvent| match event {
                CampaignEvent::CampaignStarted { campaign, points } => {
                    println!("campaign `{campaign}`: {points} points across {threads} threads");
                }
                CampaignEvent::PointFailed {
                    workload,
                    organization,
                    config_id,
                    error,
                    ..
                } => {
                    eprintln!("  FAILED {workload} / {organization} config {config_id}: {error}");
                }
                _ => {}
            },
            &fanout,
        ),
        ProgressMode::Json => session.run_with_sink(
            &|event: &CampaignEvent| println!("{}", event.to_json_line()),
            &fanout,
        ),
    };
    let elapsed = started.elapsed();

    csv.finish()
        .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
    let aggregates = agg.finish();
    report::write_json(&results, &json_path)
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    // The campaign completed: its checkpoint has served its purpose.
    let _ = std::fs::remove_file(&journal_path);

    if runtime.progress == ProgressMode::Human {
        let rate = ltrf_sweep::hit_percent_1dp(results.cached_count(), results.len());
        let restored = if totals.restored > 0 {
            format!("{} restored, ", totals.restored)
        } else {
            String::new()
        };
        println!(
            "  {} computed, {restored}{} from cache ({rate:.1}% hit rate), {} failed, \
             {:.2?} wall clock",
            totals.computed, totals.cached, totals.failed, elapsed
        );
        println!(
            "  reports: {} and {}",
            json_path.display(),
            csv_path.display()
        );
    }
    Ok((results, aggregates))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn every_documented_invocation_still_parses() {
        let registry = registry();
        // The REPRODUCING.md command lines, verbatim.
        let invocations: &[(&str, &[&str])] = &[
            ("repro", &["--quick"]),
            ("repro", &[]),
            (
                "fig9",
                &["--quick", "--out", "ci-out", "--cache", "ci-cache"],
            ),
            ("fig3", &["--quick"]),
            ("fig4", &["--quick"]),
            ("table1", &[]),
            ("table4", &["--quick"]),
            ("gen-campaign", &["--population", "8", "--seed", "7"]),
            ("gpu-scale", &["--sm-counts", "1,2,4,8"]),
            ("power", &["--quick", "--access-energy-pj", "75"]),
            (
                "power",
                &[
                    "--quick",
                    "--leakage-mw-per-kb",
                    "0.3",
                    "--dwm-write-penalty",
                    "2.0",
                ],
            ),
            ("fig12", &["--sm-count", "4", "--per-point-seeds"]),
            ("table2", &["--threads", "2", "--no-cache", "--force"]),
            (
                "trace-campaign",
                &["--trace", "examples/traces/straight_line.trace"],
            ),
            ("trace-campaign", &[]),
            ("interconnect", &["--quick"]),
            ("interconnect", &["--quick", "--topology", "mesh"]),
            (
                "interconnect",
                &[
                    "--quick",
                    "--topology",
                    "crossbar",
                    "--link-width",
                    "16",
                    "--queue-depth",
                    "4",
                    "--sm-counts",
                    "1,4,16",
                ],
            ),
        ];
        for (name, args) in invocations {
            let campaign = registry.find(name).expect(name);
            parse_invocation(campaign, &strings(args))
                .unwrap_or_else(|e| panic!("`sweep {name} {}` broke: {e}", args.join(" ")));
        }
    }

    #[test]
    fn out_of_scope_flags_are_rejected_with_a_pointer() {
        let registry = registry();
        let fig9 = registry.find("fig9").unwrap();
        let message = parse_invocation(fig9, &strings(&["--sm-counts", "1,2"])).unwrap_err();
        assert!(message.contains("--sm-counts"), "{message}");
        assert!(message.contains("gpu-scale"), "{message}");
        assert!(message.contains("--sm-count N"), "hint present: {message}");

        let gpu_scale = registry.find("gpu-scale").unwrap();
        let message = parse_invocation(gpu_scale, &strings(&["--sm-count", "4"])).unwrap_err();
        assert!(message.contains("--sm-count does not apply"), "{message}");

        let repro = registry.find("repro").unwrap();
        let message = parse_invocation(repro, &strings(&["--access-energy-pj", "75"])).unwrap_err();
        assert!(message.contains("sweep power"), "{message}");

        let gen = registry.find("gen-campaign").unwrap();
        let message = parse_invocation(gen, &strings(&["--quick"])).unwrap_err();
        assert!(message.contains("--population"), "{message}");

        let message = parse_invocation(fig9, &strings(&["--trace", "a.trace"])).unwrap_err();
        assert!(message.contains("trace-campaign"), "{message}");

        let message = parse_invocation(fig9, &strings(&["--topology", "mesh"])).unwrap_err();
        assert!(message.contains("sweep interconnect"), "{message}");
        let interconnect = registry.find("interconnect").unwrap();
        let message = parse_invocation(interconnect, &strings(&["--sm-count", "4"])).unwrap_err();
        assert!(message.contains("--sm-counts"), "{message}");

        let message = parse_invocation(fig9, &strings(&["--frobnicate"])).unwrap_err();
        assert!(message.contains("unknown option"), "{message}");
    }

    #[test]
    fn resume_flag_parses_for_every_campaign() {
        for campaign in registry().campaigns() {
            let (runtime, _) = parse_invocation(campaign, &strings(&["--resume"]))
                .unwrap_or_else(|e| panic!("`sweep {} --resume` broke: {e}", campaign.name));
            assert!(runtime.resume);
        }
        let fig9 = registry().find("fig9").unwrap();
        let (runtime, _) = parse_invocation(fig9, &strings(&[])).unwrap();
        assert!(!runtime.resume, "resume must be opt-in");
    }

    #[test]
    fn progress_modes_parse_and_reject() {
        let fig9 = registry().find("fig9").unwrap();
        let (runtime, _) = parse_invocation(fig9, &strings(&["--progress", "json"])).unwrap();
        assert_eq!(runtime.progress, ProgressMode::Json);
        let (runtime, _) = parse_invocation(fig9, &strings(&["--progress", "human"])).unwrap();
        assert_eq!(runtime.progress, ProgressMode::Human);
        let message = parse_invocation(fig9, &strings(&["--progress", "xml"])).unwrap_err();
        assert!(message.contains("human|json"), "{message}");
    }

    #[test]
    fn unknown_commands_suggest_the_nearest_campaign() {
        let message = unknown_command("fig12x");
        assert!(message.contains("did you mean `fig12`?"), "{message}");
        let message = unknown_command("zzzzz");
        assert!(!message.contains("did you mean"), "{message}");
        assert!(message.contains("usage:"), "{message}");
    }

    #[test]
    fn version_text_is_self_describing() {
        let text = version_text();
        assert!(text.contains(env!("CARGO_PKG_VERSION")), "{text}");
        assert!(text.contains("engine fingerprint"), "{text}");
        assert!(
            text.contains(&format!("cache schema: v{CACHE_SCHEMA_VERSION}")),
            "{text}"
        );
    }
}
