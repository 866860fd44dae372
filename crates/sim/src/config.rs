//! Simulated GPU configuration (the paper's Table 3).
//!
//! Two levels of configuration exist:
//!
//! * [`SmConfig`] describes one streaming multiprocessor — pipeline widths,
//!   functional-unit latencies, register-file organization parameters, and
//!   the memory hierarchy it sees (private L1, plus the capacity/timing of
//!   the L2 and DRAM it shares with every other SM);
//! * [`GpuConfig`] describes the whole chip — how many SMs there are and how
//!   the shared L2 arbitrates their combined request stream
//!   ([`L2Config`]).
//!
//! A [`GpuConfig`] with `sm_count == 1` is definitionally the single-SM
//! simulation the per-figure campaigns have always run.

use serde::{Deserialize, Serialize};

use crate::interconnect::InterconnectConfig;
use crate::types::Cycle;

/// Execution latencies per functional-unit class, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecLatencies {
    /// Simple integer ALU / move / predicate operations.
    pub simple_alu: Cycle,
    /// Integer multiply.
    pub mul_alu: Cycle,
    /// Floating-point operations.
    pub fp_alu: Cycle,
    /// Special-function unit operations.
    pub sfu: Cycle,
    /// Shared-memory access (fixed, on-chip).
    pub shared_mem: Cycle,
    /// Constant-cache access (assumed to hit).
    pub const_mem: Cycle,
    /// Barrier synchronization overhead once all warps arrive.
    pub barrier: Cycle,
}

impl Default for ExecLatencies {
    fn default() -> Self {
        ExecLatencies {
            simple_alu: 4,
            mul_alu: 6,
            fp_alu: 4,
            sfu: 16,
            shared_mem: 24,
            const_mem: 8,
            barrier: 20,
        }
    }
}

/// Memory-hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// L1 data cache size, in bytes (Table 3: 16 KB).
    pub l1d_bytes: u64,
    /// L1 data cache associativity (4-way).
    pub l1d_ways: usize,
    /// Cache line size, in bytes (128 B).
    pub line_bytes: u64,
    /// L1 hit latency, in cycles.
    pub l1_hit_latency: Cycle,
    /// Shared last-level cache size, in bytes (2 MB).
    pub llc_bytes: u64,
    /// LLC associativity (8-way).
    pub llc_ways: usize,
    /// LLC hit latency (beyond the L1 miss), in cycles.
    pub llc_hit_latency: Cycle,
    /// Number of GDDR5 memory channels (8).
    pub dram_channels: usize,
    /// DRAM banks per channel.
    pub dram_banks_per_channel: usize,
    /// Row-buffer hit service time, in core cycles.
    pub dram_row_hit_latency: Cycle,
    /// Row-buffer miss (precharge + activate + CAS) service time, in core
    /// cycles.
    pub dram_row_miss_latency: Cycle,
    /// Data-burst occupancy of the channel per request, in core cycles.
    pub dram_burst_cycles: Cycle,
    /// Row-buffer size, in bytes.
    pub dram_row_bytes: u64,
    /// Maximum outstanding memory requests per SM (MSHR capacity).
    pub max_outstanding_requests: usize,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        // GDDR5 timing from Table 3 (tCL = tRP = tRCD = 12 ns, tRC = 40 ns)
        // converted to 1137 MHz core cycles: 12 ns ≈ 14 cycles.
        MemoryConfig {
            l1d_bytes: 16 * 1024,
            l1d_ways: 4,
            line_bytes: 128,
            l1_hit_latency: 28,
            llc_bytes: 2 * 1024 * 1024,
            llc_ways: 8,
            llc_hit_latency: 120,
            dram_channels: 8,
            dram_banks_per_channel: 16,
            dram_row_hit_latency: 28,
            dram_row_miss_latency: 75,
            dram_burst_cycles: 4,
            dram_row_bytes: 2048,
            max_outstanding_requests: 64,
        }
    }
}

/// Register-file timing parameters seen by the SM pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegFileTiming {
    /// Access latency of the baseline main register file, in cycles.
    pub baseline_mrf_latency: Cycle,
    /// Access latency of the register-file cache, in cycles.
    pub rfc_latency: Cycle,
    /// Number of main-register-file banks.
    pub mrf_banks: usize,
    /// Number of register-file-cache banks.
    pub rfc_banks: usize,
    /// Latency multiplier applied to the main register file (the x-axis of
    /// Figures 11–14; 1.0 is the baseline SRAM design).
    pub mrf_latency_factor: f64,
    /// Extra cycles for a WCB lookup before a register-cache access.
    pub wcb_latency: Cycle,
    /// Traversal latency of the narrow MRF-to-RFC prefetch crossbar.
    pub prefetch_crossbar_latency: Cycle,
}

impl Default for RegFileTiming {
    fn default() -> Self {
        RegFileTiming {
            baseline_mrf_latency: 2,
            rfc_latency: 1,
            mrf_banks: 16,
            rfc_banks: 16,
            mrf_latency_factor: 1.0,
            wcb_latency: 1,
            prefetch_crossbar_latency: 4,
        }
    }
}

impl RegFileTiming {
    /// Effective main-register-file access latency in cycles, after applying
    /// the latency factor (rounded up, minimum one cycle).
    #[must_use]
    pub fn mrf_latency(&self) -> Cycle {
        let scaled = self.baseline_mrf_latency as f64 * self.mrf_latency_factor;
        scaled.ceil().max(1.0) as Cycle
    }

    /// Returns a copy with the given latency factor.
    #[must_use]
    pub fn with_latency_factor(mut self, factor: f64) -> Self {
        self.mrf_latency_factor = factor;
        self
    }
}

/// Full configuration of one simulated streaming multiprocessor, modelled
/// after the paper's Table 3 (NVIDIA Maxwell-like).
///
/// The `memory` field describes the whole hierarchy as one SM sees it: the
/// L1 fields are private per-SM structures, while the LLC/DRAM fields
/// describe the chip-level shared structures (a single SM simulation models
/// them without cross-SM contention; [`crate::simulate_gpu_with`] shares them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmConfig {
    /// Core clock, in MHz (1137 MHz).
    pub core_clock_mhz: f64,
    /// Maximum resident warps per SM (64).
    pub max_warps: usize,
    /// Warps holding register-file-cache space concurrently (8).
    pub active_warps: usize,
    /// Instructions the SM can issue per cycle.
    pub issue_width: usize,
    /// Number of operand-collector units.
    pub operand_collectors: usize,
    /// Register-file capacity per SM, in bytes (256 KB baseline).
    pub regfile_bytes: u64,
    /// Register-file-cache capacity per SM, in bytes (16 KB).
    pub regfile_cache_bytes: u64,
    /// Shared-memory capacity per SM, in bytes (64 KB).
    pub shared_mem_bytes: u64,
    /// Functional-unit latencies.
    pub exec: ExecLatencies,
    /// Memory-hierarchy parameters.
    pub memory: MemoryConfig,
    /// Register-file timing parameters.
    pub regfile: RegFileTiming,
    /// Safety cap on simulated cycles.
    pub max_cycles: Cycle,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            core_clock_mhz: 1137.0,
            max_warps: 64,
            active_warps: 8,
            issue_width: 2,
            operand_collectors: 16,
            regfile_bytes: 256 * 1024,
            regfile_cache_bytes: 16 * 1024,
            shared_mem_bytes: 64 * 1024,
            exec: ExecLatencies::default(),
            memory: MemoryConfig::default(),
            regfile: RegFileTiming::default(),
            max_cycles: 50_000_000,
        }
    }
}

impl SmConfig {
    /// Returns a configuration whose main register file is `factor` times
    /// larger than the baseline (capacity only; latency is set separately
    /// through [`RegFileTiming::with_latency_factor`]).
    #[must_use]
    pub fn with_regfile_capacity_factor(mut self, factor: f64) -> Self {
        self.regfile_bytes = (256.0 * 1024.0 * factor) as u64;
        self
    }

    /// Returns a configuration with the given main-register-file latency
    /// factor.
    #[must_use]
    pub fn with_mrf_latency_factor(mut self, factor: f64) -> Self {
        self.regfile = self.regfile.with_latency_factor(factor);
        self
    }

    /// Returns a configuration with the given number of active warps.
    #[must_use]
    pub fn with_active_warps(mut self, warps: usize) -> Self {
        self.active_warps = warps;
        self
    }

    /// Maximum number of warps of a kernel that can be resident
    /// simultaneously, limited by the register file capacity (the occupancy
    /// calculation behind Table 1 and Figure 3).
    #[must_use]
    pub fn resident_warps(&self, regs_per_thread: u16) -> usize {
        let bytes_per_warp = regs_per_thread as u64 * 32 * 4;
        if bytes_per_warp == 0 {
            return self.max_warps;
        }
        let by_regfile = (self.regfile_bytes / bytes_per_warp) as usize;
        by_regfile.min(self.max_warps).max(1)
    }
}

/// Bandwidth/queue model of the shared L2 cache.
///
/// The L2 is address-interleaved over `slices`; each slice serves one
/// request per `service_cycles` of occupancy, so requests from different SMs
/// (and overlapping requests from one SM) that map to the same slice queue
/// behind each other. This is the chip-level contention the single-SM
/// simulation deliberately omits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2Config {
    /// Number of address-interleaved L2 slices (banks).
    pub slices: usize,
    /// Tag + data occupancy of a slice per request, in core cycles.
    pub service_cycles: Cycle,
}

impl Default for L2Config {
    fn default() -> Self {
        // 32 slices × one request per 2 cycles ≈ 16 requests/cycle of
        // aggregate tag bandwidth, a Maxwell-like figure.
        L2Config {
            slices: 32,
            service_cycles: 2,
        }
    }
}

/// Whole-GPU configuration: `sm_count` identical SMs over a shared L2 and
/// DRAM.
///
/// The shared L2's capacity/latency and the DRAM channel organization come
/// from `sm.memory` (Table 3 describes them once, chip-wide); `l2` adds the
/// contention model that only matters when several SMs compete.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (Table 3's GPU has 16).
    pub sm_count: usize,
    /// The per-SM configuration, replicated across all SMs.
    pub sm: SmConfig,
    /// Shared-L2 bandwidth/queue parameters.
    pub l2: L2Config,
    /// SM↔L2 network parameters. The default `Ideal` topology is
    /// bit-identical to a direct slice access.
    pub interconnect: InterconnectConfig,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            sm_count: 16,
            sm: SmConfig::default(),
            l2: L2Config::default(),
            interconnect: InterconnectConfig::default(),
        }
    }
}

impl GpuConfig {
    /// A GPU of `sm_count` default SMs.
    #[must_use]
    pub fn with_sm_count(sm_count: usize) -> Self {
        GpuConfig {
            sm_count: sm_count.max(1),
            ..GpuConfig::default()
        }
    }

    /// Replaces the per-SM configuration.
    #[must_use]
    pub fn with_sm(mut self, sm: SmConfig) -> Self {
        self.sm = sm;
        self
    }

    /// Replaces the SM↔L2 network configuration.
    #[must_use]
    pub fn with_interconnect(mut self, interconnect: InterconnectConfig) -> Self {
        self.interconnect = interconnect;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let c = SmConfig::default();
        assert_eq!(c.max_warps, 64);
        assert_eq!(c.active_warps, 8);
        assert_eq!(c.regfile_bytes, 256 * 1024);
        assert_eq!(c.regfile_cache_bytes, 16 * 1024);
        assert_eq!(c.memory.l1d_bytes, 16 * 1024);
        assert_eq!(c.memory.llc_bytes, 2 * 1024 * 1024);
        assert_eq!(c.memory.dram_channels, 8);
        assert!((c.core_clock_mhz - 1137.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_is_limited_by_register_demand() {
        let c = SmConfig::default();
        // 32 registers/thread -> 4 KB per warp -> 64 warps fit in 256 KB.
        assert_eq!(c.resident_warps(32), 64);
        // 64 registers/thread -> 8 KB per warp -> only 32 warps fit.
        assert_eq!(c.resident_warps(64), 32);
        // 255 registers/thread -> 8 warps.
        assert_eq!(c.resident_warps(255), 8);
        // An 8x register file removes the limit.
        let big = c.with_regfile_capacity_factor(8.0);
        assert_eq!(big.resident_warps(64), 64);
    }

    #[test]
    fn latency_factor_scales_mrf_latency() {
        let t = RegFileTiming::default();
        assert_eq!(t.mrf_latency(), 2);
        assert_eq!(t.with_latency_factor(5.3).mrf_latency(), 11);
        assert_eq!(t.with_latency_factor(6.3).mrf_latency(), 13);
        assert_eq!(t.with_latency_factor(0.1).mrf_latency(), 1);
    }

    #[test]
    fn builder_helpers() {
        let c = SmConfig::default()
            .with_mrf_latency_factor(4.0)
            .with_active_warps(16);
        assert_eq!(c.regfile.mrf_latency(), 8);
        assert_eq!(c.active_warps, 16);
    }

    #[test]
    fn gpu_config_defaults_and_builders() {
        let g = GpuConfig::default();
        assert_eq!(g.sm_count, 16);
        assert_eq!(g.l2.slices, 32);
        let g4 = GpuConfig::with_sm_count(4).with_sm(SmConfig::default().with_active_warps(4));
        assert_eq!(g4.sm_count, 4);
        assert_eq!(g4.sm.active_warps, 4);
        assert_eq!(GpuConfig::with_sm_count(0).sm_count, 1);
    }
}
