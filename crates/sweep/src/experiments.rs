//! The computations behind the analytical and compiler-only paper
//! artifacts: Table 1, Table 4 and the §4.3 overheads.
//!
//! Each function returns structured rows; the renderers in
//! [`crate::analytical`] print them in the paper's format. None of them
//! simulates.

use ltrf_compiler::trace_analysis::{interval_length_report, IntervalLengthReport};
use ltrf_compiler::{compile, CompileStats, CompiledKernel, CompilerOptions};
use ltrf_core::{
    capacity_requirement, overhead_report, CapacityRequirement, GpuArchitecture, OverheadInputs,
    OverheadReport,
};
use ltrf_workloads::{evaluated_suite, quick_suite, unconstrained_register_demands, Workload};

/// The workloads an artifact covers: the four-workload quick subset (two
/// register-sensitive, two insensitive) or the full evaluated suite.
#[must_use]
pub fn suite(quick: bool) -> Vec<Workload> {
    if quick {
        quick_suite()
    } else {
        evaluated_suite()
    }
}

/// Compiles every workload in parallel and maps each result, in suite
/// order; a workload that fails to compile fails the artifact.
fn per_workload<R: Send>(
    workloads: &[Workload],
    f: impl Fn(&Workload, CompiledKernel) -> R + Sync,
) -> Result<Vec<R>, String> {
    crate::parallel_map(workloads, None, |_, w| {
        compile(&w.kernel, &CompilerOptions::default())
            .map(|compiled| f(w, compiled))
            .map_err(|e| format!("`{}` does not compile: {e}", w.name()))
    })
    .into_iter()
    .map(|outcome| outcome.and_then(|row| row))
    .collect()
}

/// Table 1: the register-file capacity each architecture needs to run the
/// screening suite at maximum TLP, Fermi first, then Maxwell.
#[must_use]
pub fn table1() -> Vec<CapacityRequirement> {
    let demands = unconstrained_register_demands();
    [GpuArchitecture::fermi(), GpuArchitecture::maxwell()]
        .into_iter()
        .filter_map(|arch| capacity_requirement(arch, &demands))
        .collect()
}

/// One Table 4 row: the real and optimal register-interval lengths of a
/// workload at N = 16 registers per interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Row {
    /// Workload name.
    pub workload: &'static str,
    /// Real (compiler) and optimal (oracle) interval lengths.
    pub report: IntervalLengthReport,
}

/// Table 4 over the selected suite, in suite order.
///
/// # Errors
///
/// Names the first workload that does not compile.
pub fn table4(quick: bool) -> Result<Vec<Table4Row>, String> {
    per_workload(&suite(quick), |w, compiled| Table4Row {
        workload: w.name(),
        report: interval_length_report(
            &compiled.kernel,
            &compiled.partition,
            16,
            crate::CAMPAIGN_SEED,
        ),
    })
}

/// The §4.3 overheads, with the code-size overhead averaged over the
/// selected suite.
///
/// # Errors
///
/// Names the first workload that does not compile.
pub fn overheads(quick: bool) -> Result<OverheadReport, String> {
    let overheads = per_workload(&suite(quick), |_, compiled| {
        compiled.stats.code_size_overhead
    })?;
    let mean_stats = CompileStats {
        code_size_overhead: overheads.iter().sum::<f64>() / overheads.len().max(1) as f64,
        ..CompileStats::default()
    };
    Ok(overhead_report(
        &OverheadInputs::default(),
        Some(&mean_stats),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_is_a_strict_subset() {
        let quick = suite(true);
        let full = suite(false);
        assert_eq!(quick.len(), 4);
        assert_eq!(full.len(), 14);
        assert!(quick.iter().any(|w| w.is_register_sensitive()));
        assert!(quick.iter().any(|w| !w.is_register_sensitive()));
        assert!(quick
            .iter()
            .all(|q| full.iter().any(|w| w.name() == q.name())));
    }

    #[test]
    fn table1_reports_both_architectures() {
        let rows = table1();
        assert_eq!(rows.len(), 2);
        // The Maxwell row must show a larger average requirement than its
        // 256 KB baseline (the paper reports 2.3x).
        let maxwell = &rows[1];
        assert_eq!(maxwell.architecture, GpuArchitecture::maxwell());
        assert!(maxwell.average_factor() > 1.0);
        assert!(maxwell.max_factor() >= maxwell.average_factor());
    }

    #[test]
    fn table4_real_lengths_do_not_exceed_optimal() {
        let rows = table4(true).unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(
                row.report.real.mean > 0.0,
                "{} has empty intervals",
                row.workload
            );
            assert!(
                row.report.real.mean <= row.report.optimal.mean * 1.01,
                "{}: real {} > optimal {}",
                row.workload,
                row.report.real.mean,
                row.report.optimal.mean
            );
        }
    }

    #[test]
    fn overheads_are_in_the_paper_ballpark() {
        let report = overheads(true).unwrap();
        assert!(report.area_overhead > 0.10 && report.area_overhead < 0.25);
        // Synthetic kernels are short, so PREFETCH metadata weighs more than
        // the paper's 7%; guard only against runaway interval counts.
        assert!(report.code_size_overhead > 0.0 && report.code_size_overhead < 0.45);
    }
}
