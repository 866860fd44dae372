//! Register-file capacity required for maximum thread-level parallelism
//! (Table 1 of the paper).
//!
//! The paper recompiles its 35 benchmarks with `maxregcount` lifted and asks:
//! how large would the register file have to be for every workload to reach
//! the architecture's maximum warp count? This module performs the same
//! arithmetic over the synthetic suite's unconstrained per-thread register
//! demands.

use serde::Serialize;

/// A GPU architecture's register-related limits, as used in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GpuArchitecture {
    /// Marketing name.
    pub name: &'static str,
    /// Baseline register-file capacity per SM, in bytes.
    pub baseline_regfile_bytes: u64,
    /// Maximum registers the compiler may allocate per thread.
    pub max_regs_per_thread: u16,
    /// Maximum resident warps per SM.
    pub max_warps: u32,
    /// Threads per warp.
    pub threads_per_warp: u32,
}

impl GpuArchitecture {
    /// The Fermi-like architecture of Table 1 (128 KB, 64 registers/thread).
    #[must_use]
    pub const fn fermi() -> Self {
        GpuArchitecture {
            name: "Fermi",
            baseline_regfile_bytes: 128 * 1024,
            max_regs_per_thread: 64,
            max_warps: 48,
            threads_per_warp: 32,
        }
    }

    /// The Maxwell-like architecture of Table 1 (256 KB, 256 registers/thread).
    #[must_use]
    pub const fn maxwell() -> Self {
        GpuArchitecture {
            name: "Maxwell",
            baseline_regfile_bytes: 256 * 1024,
            max_regs_per_thread: 256,
            max_warps: 64,
            threads_per_warp: 32,
        }
    }

    /// Register-file bytes needed for a kernel demanding `regs_per_thread`
    /// registers to reach the architecture's maximum warp occupancy.
    #[must_use]
    pub(crate) fn required_regfile_bytes(&self, regs_per_thread: u16) -> u64 {
        let regs = regs_per_thread.min(self.max_regs_per_thread) as u64;
        regs * 4 * self.threads_per_warp as u64 * self.max_warps as u64
    }
}

/// The Table 1 row for one architecture over a workload suite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CapacityRequirement {
    /// Architecture evaluated.
    pub architecture: GpuArchitecture,
    /// Average required register-file capacity across the suite, in bytes.
    pub average_bytes: u64,
    /// Maximum required capacity across the suite, in bytes.
    pub max_bytes: u64,
}

impl CapacityRequirement {
    /// Average requirement relative to the architecture's baseline capacity.
    #[must_use]
    pub fn average_factor(&self) -> f64 {
        self.average_bytes as f64 / self.architecture.baseline_regfile_bytes as f64
    }

    /// Maximum requirement relative to the architecture's baseline capacity.
    #[must_use]
    pub fn max_factor(&self) -> f64 {
        self.max_bytes as f64 / self.architecture.baseline_regfile_bytes as f64
    }
}

/// Computes the Table 1 row for `architecture` over per-thread register
/// demands of a workload suite.
///
/// Returns `None` if `register_demands` is empty.
#[must_use]
pub fn capacity_requirement(
    architecture: GpuArchitecture,
    register_demands: &[u16],
) -> Option<CapacityRequirement> {
    if register_demands.is_empty() {
        return None;
    }
    let required: Vec<u64> = register_demands
        .iter()
        .map(|&r| architecture.required_regfile_bytes(r))
        .collect();
    let sum: u64 = required.iter().sum();
    Some(CapacityRequirement {
        architecture,
        average_bytes: sum / required.len() as u64,
        max_bytes: *required.iter().max().expect("non-empty"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_constants() {
        let fermi = GpuArchitecture::fermi();
        assert_eq!(fermi.baseline_regfile_bytes, 128 * 1024);
        assert_eq!(fermi.max_regs_per_thread, 64);
        let maxwell = GpuArchitecture::maxwell();
        assert_eq!(maxwell.baseline_regfile_bytes, 256 * 1024);
        assert_eq!(maxwell.max_regs_per_thread, 256);
    }

    #[test]
    fn required_capacity_scales_with_register_demand() {
        let maxwell = GpuArchitecture::maxwell();
        // 32 regs/thread × 4 B × 32 threads × 64 warps = 256 KB.
        assert_eq!(maxwell.required_regfile_bytes(32), 256 * 1024);
        assert_eq!(maxwell.required_regfile_bytes(64), 512 * 1024);
        // Demands above the ISA cap are clamped.
        assert_eq!(
            maxwell.required_regfile_bytes(255),
            maxwell.required_regfile_bytes(255)
        );
        assert_eq!(
            GpuArchitecture::fermi().required_regfile_bytes(200),
            GpuArchitecture::fermi().required_regfile_bytes(64)
        );
    }

    #[test]
    fn table1_style_aggregation() {
        // A suite whose demands straddle the baseline capacity.
        let demands = [24, 32, 48, 64, 96];
        let row = capacity_requirement(GpuArchitecture::maxwell(), &demands).unwrap();
        assert!(row.average_factor() > 1.0, "average demand exceeds 256 KB");
        assert!(row.max_factor() >= row.average_factor());
        assert_eq!(
            row.max_bytes,
            GpuArchitecture::maxwell().required_regfile_bytes(96)
        );
        assert!(capacity_requirement(GpuArchitecture::fermi(), &[]).is_none());
    }
}
