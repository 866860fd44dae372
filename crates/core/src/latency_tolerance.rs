//! Maximum tolerable register-file access latency (§6.3, Figure 11).
//!
//! The paper defines the *maximum tolerable register-file access latency* of
//! a design as the largest main-register-file latency (relative to the
//! baseline) that costs at most a given IPC loss (5% by default, with 1% and
//! 10% variants). This module assembles an organization's measured
//! latency curve and finds that point; the `sweep fig11` campaign measures
//! the curves.

use serde::{Deserialize, Serialize};

use crate::Organization;

/// One point of a latency sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySweepPoint {
    /// Main-register-file latency relative to the baseline.
    pub latency_factor: f64,
    /// Absolute IPC at this latency.
    pub ipc: f64,
    /// IPC normalized to the same organization at 1× latency.
    pub relative_ipc: f64,
}

/// Result of a latency sweep for one organization on one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySweep {
    /// The organization swept.
    pub organization: Organization,
    /// The sweep points, in increasing latency order.
    pub points: Vec<LatencySweepPoint>,
}

impl LatencySweep {
    /// Assembles a sweep from raw `(latency factor, IPC)` measurements,
    /// normalizing each point against the 1× factor's IPC. This is the one
    /// place that curve-to-tolerance assembly lives.
    ///
    /// Returns `None` when no 1× point is present or its IPC is zero — the
    /// relative curve would be meaningless.
    #[must_use]
    pub fn from_ipc_points(organization: Organization, ipc_points: &[(f64, f64)]) -> Option<Self> {
        let reference = ipc_points
            .iter()
            .find(|(factor, _)| (*factor - 1.0).abs() < 1e-12)
            .map(|&(_, ipc)| ipc)
            .filter(|&ipc| ipc > 0.0)?;
        let mut points: Vec<LatencySweepPoint> = ipc_points
            .iter()
            .map(|&(latency_factor, ipc)| LatencySweepPoint {
                latency_factor,
                ipc,
                relative_ipc: ipc / reference,
            })
            .collect();
        points.sort_by(|a, b| {
            a.latency_factor
                .partial_cmp(&b.latency_factor)
                .expect("finite")
        });
        Some(LatencySweep {
            organization,
            points,
        })
    }

    /// The largest latency factor whose IPC loss does not exceed
    /// `allowed_loss` (e.g. `0.05` for the paper's 5% definition).
    ///
    /// Returns the smallest swept factor if even that already exceeds the
    /// loss budget.
    #[must_use]
    pub fn max_tolerable_latency(&self, allowed_loss: f64) -> f64 {
        let threshold = 1.0 - allowed_loss;
        let mut best = self.points.first().map(|p| p.latency_factor).unwrap_or(1.0);
        for p in &self.points {
            if p.relative_ipc >= threshold {
                best = best.max(p.latency_factor);
            }
        }
        best
    }
}

/// The latency factors swept in the paper's Figures 11–14 (1× through 7×).
#[must_use]
pub fn paper_latency_factors() -> Vec<f64> {
    vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment, ExperimentConfig};
    use ltrf_isa::{ArchReg, Kernel, KernelBuilder, LaunchConfig, Opcode};
    use ltrf_sim::MemoryBehavior;

    fn kernel() -> Kernel {
        let mut b = KernelBuilder::new("sweep-test", 24);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        for i in 0..8 {
            b.push(entry, Opcode::Mov, Some(ArchReg::new(i)), &[]);
        }
        b.jump(entry, body);
        b.push(
            body,
            Opcode::LoadGlobal,
            Some(ArchReg::new(10)),
            &[ArchReg::new(0)],
        );
        for i in 0..4 {
            b.push(
                body,
                Opcode::FFma,
                Some(ArchReg::new(11 + i)),
                &[ArchReg::new(10), ArchReg::new(i)],
            );
        }
        b.loop_branch(body, body, exit, 4);
        b.exit(exit);
        b.launch(LaunchConfig::new(8, 1, 0));
        b.build().unwrap()
    }

    /// `organization`'s measured IPC curve over `factors` on [`kernel`],
    /// assembled the way `sweep fig11` assembles it.
    fn sweep(organization: Organization, factors: &[f64], seed: u64) -> Option<LatencySweep> {
        let k = kernel();
        let ipc_points: Vec<(f64, f64)> = factors
            .iter()
            .map(|&factor| {
                let config = ExperimentConfig::new(organization).with_latency_factor(factor);
                let result = run_experiment(&k, MemoryBehavior::cache_resident(), seed, &config);
                (factor, result.unwrap().ipc)
            })
            .collect();
        LatencySweep::from_ipc_points(organization, &ipc_points)
    }

    #[test]
    fn sweep_is_sorted_and_relative_to_unity() {
        let sweep = sweep(Organization::Baseline, &[4.0, 1.0, 7.0], 1).unwrap();
        assert_eq!(sweep.points.len(), 3);
        assert!((sweep.points[0].latency_factor - 1.0).abs() < 1e-9);
        assert!((sweep.points[0].relative_ipc - 1.0).abs() < 1e-9);
        assert!(sweep.points[2].relative_ipc <= sweep.points[0].relative_ipc);
    }

    #[test]
    fn ltrf_tolerates_more_latency_than_baseline() {
        let factors = [1.0, 2.0, 4.0, 6.0];
        let bl_tol = sweep(Organization::Baseline, &factors, 2)
            .unwrap()
            .max_tolerable_latency(0.05);
        let ltrf_tol = sweep(Organization::Ltrf, &factors, 2)
            .unwrap()
            .max_tolerable_latency(0.05);
        assert!(
            ltrf_tol >= bl_tol,
            "LTRF ({ltrf_tol}) must tolerate at least as much latency as BL ({bl_tol})"
        );
    }

    /// A curve without a 1× point has nothing to be relative to.
    #[test]
    fn empty_sweep_is_rejected() {
        assert_eq!(
            LatencySweep::from_ipc_points(Organization::Baseline, &[]),
            None
        );
        assert_eq!(sweep(Organization::Baseline, &[2.0, 4.0], 1), None);
    }

    #[test]
    fn tolerance_with_looser_budgets_is_monotone() {
        let sweep = LatencySweep {
            organization: Organization::Ltrf,
            points: vec![
                LatencySweepPoint {
                    latency_factor: 1.0,
                    ipc: 1.0,
                    relative_ipc: 1.0,
                },
                LatencySweepPoint {
                    latency_factor: 3.0,
                    ipc: 0.97,
                    relative_ipc: 0.97,
                },
                LatencySweepPoint {
                    latency_factor: 5.0,
                    ipc: 0.93,
                    relative_ipc: 0.93,
                },
                LatencySweepPoint {
                    latency_factor: 7.0,
                    ipc: 0.85,
                    relative_ipc: 0.85,
                },
            ],
        };
        let strict = sweep.max_tolerable_latency(0.01);
        let default = sweep.max_tolerable_latency(0.05);
        let loose = sweep.max_tolerable_latency(0.10);
        assert!(strict <= default && default <= loose);
        assert!((default - 3.0).abs() < 1e-9);
        assert!((loose - 5.0).abs() < 1e-9);
        assert_eq!(paper_latency_factors().len(), 7);
    }
}
