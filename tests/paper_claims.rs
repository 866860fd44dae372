//! Integration tests for the paper's qualitative claims: compiler
//! properties, overhead accounting, and the capacity studies, which need no
//! timing simulator, plus the multi-SM scaling the `gpu-scale` campaign
//! measures.

use ltrf::compiler::{compile, CompilerOptions};
use ltrf::core::{
    capacity_requirement, overhead_report, GpuArchitecture, Organization, OverheadInputs,
};
use ltrf::workloads::{evaluated_suite, unconstrained_register_demands};
use ltrf_sweep::{registry, run_sweep, CampaignParams, ExecutorOptions, RunningAggregates};

#[test]
fn register_intervals_cover_every_suite_kernel_within_budget() {
    for workload in evaluated_suite() {
        let compiled = compile(&workload.kernel, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", workload.name()));
        let violations = compiled
            .partition
            .invariant_violations(&compiled.kernel.cfg);
        assert!(
            violations.is_empty(),
            "{} has partition violations: {violations:?}",
            workload.name()
        );
        assert!(compiled.stats.max_working_set <= 16);
        assert_eq!(
            compiled.kernel.static_instruction_count(),
            workload.kernel.static_instruction_count(),
            "{}: splitting must preserve instructions",
            workload.name()
        );
    }
}

#[test]
fn register_intervals_are_coarser_than_strands_across_the_suite() {
    // §6.6: strands are terminated by long-latency operations and control
    // flow, so they are much more numerous than register-intervals.
    let mut interval_total = 0usize;
    let mut strand_total = 0usize;
    for workload in evaluated_suite() {
        let intervals = compile(&workload.kernel, &CompilerOptions::default()).unwrap();
        let strands =
            compile(&workload.kernel, &CompilerOptions::default().with_strands()).unwrap();
        assert!(
            strands.stats.interval_count >= intervals.stats.interval_count,
            "{}: strands ({}) should not be fewer than register-intervals ({})",
            workload.name(),
            strands.stats.interval_count,
            intervals.stats.interval_count
        );
        interval_total += intervals.stats.interval_count;
        strand_total += strands.stats.interval_count;
    }
    assert!(
        strand_total as f64 >= interval_total as f64 * 1.5,
        "across the suite strands should be clearly more numerous ({strand_total} vs {interval_total})"
    );
}

#[test]
fn code_size_overhead_is_single_digit_percent_on_average() {
    // §4.3: ~7% with embedded bit-vectors.
    let mut overheads = Vec::new();
    for workload in evaluated_suite() {
        let compiled = compile(&workload.kernel, &CompilerOptions::default()).unwrap();
        overheads.push(compiled.stats.code_size_overhead);
    }
    let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
    // The synthetic kernels are much smaller (tens to a couple of hundred
    // static instructions) than real CUDA kernels, so each PREFETCH
    // bit-vector weighs proportionally more than the paper's 7%; the bound
    // here only guards against pathological interval explosion.
    assert!(
        mean > 0.005 && mean < 0.45,
        "mean code-size overhead should stay a modest fraction, got {mean}"
    );
}

#[test]
fn table1_capacity_requirements_match_the_papers_direction() {
    let demands = unconstrained_register_demands();
    let fermi = capacity_requirement(GpuArchitecture::fermi(), &demands).unwrap();
    let maxwell = capacity_requirement(GpuArchitecture::maxwell(), &demands).unwrap();
    // Both architectures need more than their baseline register file on
    // average, and Maxwell's relative shortfall is larger (as in Table 1).
    assert!(fermi.average_factor() > 1.0);
    assert!(maxwell.average_factor() > 1.0);
    assert!(maxwell.max_factor() > fermi.max_factor());
    assert!(maxwell.max_factor() > 3.0);
    assert!(maxwell.max_factor() >= maxwell.average_factor());
}

#[test]
fn wcb_storage_stays_near_five_percent() {
    let report = overhead_report(&OverheadInputs::default(), None);
    assert!(report.wcb_fraction_of_regfile < 0.07);
    // §4.3 estimates 16%.
    assert!(report.area_overhead > 0.10 && report.area_overhead < 0.20);
}

#[test]
fn two_sms_execute_more_work_per_cycle_than_one() {
    // `sweep gpu-scale --quick --sm-counts 1,2`.
    let params = CampaignParams {
        quick: true,
        sm_counts: Some(vec![1, 2]),
        ..CampaignParams::default()
    };
    let specs = registry()
        .find("gpu-scale")
        .unwrap()
        .specs(&params)
        .unwrap();
    let results = run_sweep(&specs[0], &ExecutorOptions::default());
    assert_eq!(results.failure_count(), 0);
    let orgs = [Organization::Baseline, Organization::Ltrf];
    let cells = RunningAggregates::from_results(&results).means(&[1, 2], &orgs);
    assert_eq!(cells.len(), 4, "2 SM counts x BL/LTRF");
    for (_, _, means) in &cells {
        assert!(means.ipc > 0.0 && means.normalized_ipc > 0.0, "{means:?}");
        assert!((0.0..=1.0).contains(&means.l2_hit_rate), "{means:?}");
        assert!((0.0..=1.0).contains(&means.dram_row_hit_rate), "{means:?}");
    }
    let ltrf_ipc = |sm_count| {
        cells
            .iter()
            .find(|(sm, org, _)| *sm == sm_count && *org == Organization::Ltrf)
            .map(|(_, _, means)| means.ipc)
            .unwrap()
    };
    assert!(ltrf_ipc(2) > ltrf_ipc(1), "{cells:?}");
}

#[test]
fn liveness_annotation_marks_a_reasonable_fraction_of_operands_dead() {
    // LTRF+ only helps if a meaningful fraction of operand reads are last
    // uses; check the compiler finds them across the suite.
    let mut total_src_operands = 0u64;
    let mut dead_operands = 0u64;
    for workload in evaluated_suite() {
        let compiled = compile(&workload.kernel, &CompilerOptions::default()).unwrap();
        for block in compiled.kernel.cfg.blocks() {
            for inst in block.instructions() {
                total_src_operands += inst.srcs().len() as u64;
                dead_operands += u64::from(inst.dead_mask().count_ones());
            }
        }
    }
    let fraction = dead_operands as f64 / total_src_operands.max(1) as f64;
    assert!(
        fraction > 0.05,
        "at least some operands should be last uses, got {fraction}"
    );
    assert!(
        fraction < 0.95,
        "not every operand can be a last use: {fraction}"
    );
}
