//! The analytical and compiler-only paper artifacts: Table 1, Figure 2,
//! Table 3, Table 4 and the §4.3 overheads.
//!
//! None of them simulates, so their registry entries build no specs and
//! write no reports: `sweep <name>` calls the renderer, which prints the
//! table computed by [`crate::experiments`] or read from the owning crate.

use ltrf_sim::GpuConfig;
use ltrf_tech::generations::figure2_generations;

use crate::api::params::QUICK;
use crate::api::{ArtifactKind, Campaign, CampaignParams, ParamSpec, RenderContext};
use crate::executor::SweepResults;
use crate::experiments;
use crate::spec::SweepSpec;

/// The parameters of the compiler-only artifacts, which cover the suite.
static QUICK_ONLY: [&ParamSpec; 1] = [&QUICK];

pub(crate) const TABLE1: Campaign = entry(
    "table1",
    &[],
    "Table 1",
    "register-file capacity required for maximum TLP",
    &[],
    render_table1,
);

pub(crate) const FIG2: Campaign = entry(
    "fig2",
    &["figure2"],
    "Figure 2",
    "on-chip memory capacity across GPU generations",
    &[],
    render_fig2,
);

pub(crate) const TABLE3: Campaign = entry(
    "table3",
    &[],
    "Table 3",
    "the simulated system configuration",
    &[],
    render_table3,
);

pub(crate) const TABLE4: Campaign = entry(
    "table4",
    &[],
    "Table 4",
    "real vs. optimal register-interval lengths (compiler only)",
    &QUICK_ONLY,
    render_table4,
);

pub(crate) const OVERHEADS: Campaign = entry(
    "overheads",
    &[],
    "§4.3",
    "WCB storage, area and code-size overheads of LTRF",
    &QUICK_ONLY,
    render_overheads,
);

/// A registry entry for an analytical artifact: no specs, no preamble, no
/// reports — only the printed table.
const fn entry(
    name: &'static str,
    aliases: &'static [&'static str],
    paper_ref: &'static str,
    summary: &'static str,
    params: &'static [&'static ParamSpec],
    render: fn(&[SweepResults], &RenderContext) -> Result<(), String>,
) -> Campaign {
    Campaign {
        name,
        aliases,
        kind: ArtifactKind::Analytical,
        paper_ref,
        summary,
        artifacts: "none (the table is printed to stdout)",
        params,
        build: no_specs,
        preamble: crate::api::no_preamble,
        render,
        fail_on_point_failure: false,
    }
}

fn no_specs(_params: &CampaignParams) -> Result<Vec<SweepSpec>, String> {
    Ok(Vec::new())
}

/// A header row plus aligned columns, as printed by every table here.
fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: &[String]| -> String {
        let mut out: String = cells
            .iter()
            .zip(&widths)
            .map(|(cell, width)| format!("{cell:<width$}  "))
            .collect();
        out.push('\n');
        out
    };
    let mut out = line(&header.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    out += &line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        out += &line(row);
    }
    out
}

fn render_table1(_results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    println!("Table 1: register file capacity required to maximize TLP");
    println!("(35-kernel screening suite, maxregcount lifted)\n");
    let rows: Vec<Vec<String>> = experiments::table1()
        .iter()
        .map(|r| {
            vec![
                format!(
                    "{} ({}KB)",
                    r.architecture.name,
                    r.architecture.baseline_regfile_bytes / 1024
                ),
                format!("{}KB ({:.1}x)", r.average_bytes / 1024, r.average_factor()),
                format!("{}KB ({:.1}x)", r.max_bytes / 1024, r.max_factor()),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["GPU (baseline RF)", "Average required", "Maximum required"],
            &rows
        )
    );
    println!("Paper: Fermi 184KB (1.4x) avg / 324KB (2.5x) max; Maxwell 588KB (2.3x) avg / 1504KB (5.9x) max.");
    Ok(())
}

fn render_fig2(_results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    println!("Figure 2: on-chip memory capacity across NVIDIA GPU generations\n");
    let rows: Vec<Vec<String>> = figure2_generations()
        .iter()
        .map(|g| {
            vec![
                format!("{} ({})", g.name, g.year),
                format!("{:.2}", g.l1_and_shared_mb),
                format!("{:.2}", g.l2_mb),
                format!("{:.2}", g.register_file_mb),
                format!("{:.2}", g.total_mb()),
                format!("{:.0}%", g.register_file_share() * 100.0),
            ]
        })
        .collect();
    let header = [
        "Generation",
        "L1D+Shared (MB)",
        "L2 (MB)",
        "Register file (MB)",
        "Total (MB)",
        "RF share",
    ];
    println!("{}", table(&header, &rows));
    Ok(())
}

fn render_table3(_results: &[SweepResults], _ctx: &RenderContext) -> Result<(), String> {
    let gpu = GpuConfig::default();
    let c = gpu.sm;
    println!("Table 3: simulated system configuration\n");
    println!("Streaming multiprocessors   {}", gpu.sm_count);
    println!("Core clock                  {} MHz", c.core_clock_mhz);
    println!(
        "Scheduler                   Two-level ({} active warps)",
        c.active_warps
    );
    println!("Warps per SM                {}", c.max_warps);
    println!(
        "Register file size          {} KB per SM",
        c.regfile_bytes / 1024
    );
    println!(
        "Register file cache size    {} KB per SM",
        c.regfile_cache_bytes / 1024
    );
    println!(
        "Shared memory size          {} KB per SM",
        c.shared_mem_bytes / 1024
    );
    println!(
        "L1D cache                   {}-way, {} KB, {} B lines (per SM)",
        c.memory.l1d_ways,
        c.memory.l1d_bytes / 1024,
        c.memory.line_bytes
    );
    println!(
        "Shared L2                   {}-way, {} MB, {} slices at {} cycles/request",
        c.memory.llc_ways,
        c.memory.llc_bytes / (1024 * 1024),
        gpu.l2.slices,
        gpu.l2.service_cycles
    );
    println!(
        "Memory model                {} GDDR5-like channels, FR-FCFS row-hit {} / row-miss {} cycles",
        c.memory.dram_channels, c.memory.dram_row_hit_latency, c.memory.dram_row_miss_latency
    );
    println!("Registers per interval      {}", 16);
    println!("Issue width                 {}", c.issue_width);
    println!("Operand collectors          {}", c.operand_collectors);
    Ok(())
}

fn render_table4(_results: &[SweepResults], ctx: &RenderContext) -> Result<(), String> {
    let reports = experiments::table4(ctx.params.quick)?;
    println!("Table 4: register-interval lengths (dynamic instructions, N = 16)\n");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(
            |experiments::Table4Row {
                 workload,
                 report: r,
             }| {
                vec![
                    (*workload).to_string(),
                    format!("{:.1}", r.real.mean),
                    format!("{}", r.real.min),
                    format!("{}", r.real.max),
                    format!("{:.1}", r.optimal.mean),
                    format!("{}", r.optimal.min),
                    format!("{}", r.optimal.max),
                    format!("{:.0}%", r.mean_ratio() * 100.0),
                ]
            },
        )
        .collect();
    let header = [
        "Workload", "Real avg", "Real min", "Real max", "Opt avg", "Opt min", "Opt max", "Real/Opt",
    ];
    println!("{}", table(&header, &rows));
    let n = reports.len().max(1) as f64;
    let real_avg = reports.iter().map(|row| row.report.real.mean).sum::<f64>() / n;
    let opt_avg = reports
        .iter()
        .map(|row| row.report.optimal.mean)
        .sum::<f64>()
        / n;
    println!(
        "\nSuite average: real {real_avg:.1}, optimal {opt_avg:.1}, ratio {:.0}%",
        real_avg / opt_avg * 100.0
    );
    println!("Paper: real 31.2 avg (7 min, 45 max); optimal 34.7 avg (9 min, 53 max); ratio 89%.");
    Ok(())
}

fn render_overheads(_results: &[SweepResults], ctx: &RenderContext) -> Result<(), String> {
    let report = experiments::overheads(ctx.params.quick)?;
    println!("Section 4.3 overheads of LTRF\n");
    println!(
        "WCB storage               {} bits/warp, {} KB total ({:.1}% of the 256 KB register file; paper: ~5%)",
        report.wcb.bits_per_warp,
        report.wcb.total_bytes() / 1024,
        report.wcb_fraction_of_regfile * 100.0
    );
    println!(
        "Register-file cache       {:.1}% of the main register file capacity",
        report.cache_fraction_of_regfile * 100.0
    );
    println!(
        "Estimated area overhead   {:.0}% (paper: 16%)",
        report.area_overhead * 100.0
    );
    println!(
        "Code-size overhead        {:.1}% (paper: 7% embedded bit-vectors, 9% explicit instructions)",
        report.code_size_overhead * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_entries_build_nothing_and_take_at_most_quick() {
        let registry = crate::registry();
        let mut names = Vec::new();
        for campaign in registry.campaigns() {
            if campaign.kind != ArtifactKind::Analytical {
                continue;
            }
            names.push(campaign.name);
            let flags: Vec<&str> = campaign.params.iter().map(|p| p.flag).collect();
            let expected: &[&str] = match campaign.name {
                "table4" | "overheads" => &["--quick"],
                _ => &[],
            };
            assert_eq!(flags, expected, "{}", campaign.name);
            assert_eq!(campaign.specs(&CampaignParams::default()), Ok(Vec::new()));
        }
        assert_eq!(names, ["table1", "fig2", "table3", "table4", "overheads"]);
    }

    #[test]
    fn table_aligns_columns_under_the_header() {
        let text = table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1.00".to_string()],
                vec!["longer-name".to_string(), "2.00".to_string()],
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header, rule, two rows");
        assert_eq!(lines[0], "name         value  ");
        assert_eq!(lines[1], "-----------  -----  ");
        assert_eq!(lines[3], "longer-name  2.00   ");
    }
}
