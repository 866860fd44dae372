//! Whole-GPU simulation: N SMs in lock-step over a shared L2 and DRAM.
//!
//! A lone SM ([`crate::simulate_with`]) models the L2 and DRAM without
//! cross-SM competition, which makes memory-contention-sensitive figures
//! optimistic. This module closes that gap:
//!
//! * a **round-robin CTA dispatcher** deals the kernel's thread blocks to
//!   `sm_count` SMs, one wave per SM (matching the single-SM engine's
//!   one-wave simplification), each SM's capacity limited by its
//!   register-file occupancy bound;
//! * every SM runs the same pipeline engine as the single-SM path, with a
//!   private L1/MSHR port onto a
//!   [`SharedMemory`] — a sliced L2 with per-slice service occupancy and the
//!   GDDR5 channel model, so SMs queue against each other for L2 tag
//!   bandwidth, DRAM banks, and channel buses;
//! * the SMs execute on the one lock-step driver (`driver.rs`) on one
//!   thread (the sweep engine parallelizes across campaign points), with
//!   idle-period fast-forwarding to the earliest next event across all SMs,
//!   so a run is deterministic for a given seed and configuration; the run
//!   ends at the cycle after the last warp retired;
//! * results aggregate into [`GpuStats`]: per-SM pipeline statistics and
//!   IPC, shared-L2 hit rate, and DRAM row-buffer/queueing behaviour.
//!
//! With `sm_count == 1` the simulation is [`crate::simulate_with`] verbatim
//! — same warp-granular residency, same private hierarchy, same driver — so
//! a one-SM GPU reproduces every single-SM campaign bit for bit.

use std::cell::RefCell;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::config::GpuConfig;
use crate::driver::{self, KernelEnd, SmEngine};
use crate::engine::{simulate_with, Engine, EngineKind, SimWorkload};
use crate::fast::FastEngine;
use crate::interconnect::InterconnectStats;
use crate::memory::cache::CacheStats;
use crate::memory::dram::DramStats;
use crate::memory::{AddressGenerator, MemoryHierarchy, SharedMemory};
use crate::regfile::RegisterFileModel;
use crate::stats::SimStats;
use crate::types::Cycle;

/// Result of simulating one kernel on a whole GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuStats {
    /// Number of SMs simulated.
    pub sm_count: usize,
    /// Simulated cycles until the last SM finished (or the safety cap).
    pub cycles: Cycle,
    /// Dynamic instructions executed across all SMs.
    pub instructions: u64,
    /// Per-SM pipeline statistics, indexed by SM id.
    pub per_sm: Vec<SimStats>,
    /// CTAs the dispatcher placed on each SM.
    pub ctas_per_sm: Vec<u64>,
    /// CTAs in the kernel's grid.
    pub ctas_launched: u64,
    /// CTAs actually dispatched (one wave per SM; the rest of the grid is
    /// not executed, matching the single-SM engine's simplification).
    pub ctas_dispatched: u64,
    /// Shared-L2 statistics (GPU-global).
    pub l2: CacheStats,
    /// DRAM statistics (GPU-global), including row-buffer hit behaviour and
    /// bank/bus queueing delay.
    pub dram: DramStats,
    /// Cycles requests spent queued behind busy shared-L2 slices.
    pub l2_queue_wait_cycles: u64,
    /// Queue wait of the least loaded L2 slice (slice-imbalance floor).
    pub l2_slice_wait_min: u64,
    /// Queue wait of the most loaded L2 slice (slice-imbalance ceiling).
    pub l2_slice_wait_max: u64,
    /// SM↔L2 interconnect statistics (all-zero latencies under the default
    /// `Ideal` topology and for single-SM runs).
    pub noc: InterconnectStats,
    /// True if any SM hit the safety cycle cap before finishing.
    pub truncated: bool,
}

impl GpuStats {
    /// Whole-GPU instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Per-SM IPC over the whole-GPU cycle count, indexed by SM id.
    #[must_use]
    pub fn per_sm_ipc(&self) -> Vec<f64> {
        self.per_sm
            .iter()
            .map(|sm| {
                if self.cycles == 0 {
                    0.0
                } else {
                    sm.instructions as f64 / self.cycles as f64
                }
            })
            .collect()
    }

    /// Shared-L2 hit rate in `[0, 1]`.
    #[must_use]
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Collapses the run into one whole-GPU [`SimStats`]: instruction,
    /// warp, and register-file counters are summed across SMs (L1 and
    /// MSHR statistics too), the `llc`/`dram` fields carry the shared
    /// structures' totals, and the cycle count is the GPU's.
    #[must_use]
    pub fn aggregate(&self) -> SimStats {
        let cycles = self.cycles.max(1);
        let mut agg = SimStats {
            cycles,
            truncated: self.truncated,
            ..SimStats::default()
        };
        let mut hit_rate_sum = 0.0;
        let mut hit_rate_count = 0usize;
        for sm in &self.per_sm {
            agg.instructions += sm.instructions;
            agg.warps_completed += sm.warps_completed;
            agg.warps_resident += sm.warps_resident;
            agg.idle_cycles += sm.idle_cycles;
            agg.prefetch_stall_cycles += sm.prefetch_stall_cycles;
            agg.warp_activations += sm.warp_activations;
            agg.regfile_accesses.mrf_reads += sm.regfile_accesses.mrf_reads;
            agg.regfile_accesses.mrf_writes += sm.regfile_accesses.mrf_writes;
            agg.regfile_accesses.rfc_reads += sm.regfile_accesses.rfc_reads;
            agg.regfile_accesses.rfc_writes += sm.regfile_accesses.rfc_writes;
            agg.regfile_accesses.wcb_accesses += sm.regfile_accesses.wcb_accesses;
            agg.memory.l1d.hits += sm.memory.l1d.hits;
            agg.memory.l1d.misses += sm.memory.l1d.misses;
            agg.memory.global_requests += sm.memory.global_requests;
            agg.memory.mshr_stalls += sm.memory.mshr_stalls;
            if let Some(rate) = sm.register_cache_hit_rate {
                hit_rate_sum += rate;
                hit_rate_count += 1;
            }
        }
        agg.regfile_accesses.cycles = cycles;
        agg.register_cache_hit_rate = if hit_rate_count == 0 {
            None
        } else {
            Some(hit_rate_sum / hit_rate_count as f64)
        };
        agg.memory.llc = self.l2;
        agg.memory.dram = self.dram;
        agg.memory.l2_queue_wait_cycles = self.l2_queue_wait_cycles;
        agg.memory.l2_slice_wait_min = self.l2_slice_wait_min;
        agg.memory.l2_slice_wait_max = self.l2_slice_wait_max;
        agg.memory.noc = self.noc;
        agg
    }

    /// Wraps a single-SM run into GPU statistics (the `sm_count == 1`
    /// delegation path).
    fn from_single_sm(stats: SimStats, warps_per_block: u64, ctas_launched: u64) -> Self {
        let ctas = (stats.warps_resident as u64).div_ceil(warps_per_block.max(1));
        GpuStats {
            sm_count: 1,
            cycles: stats.cycles,
            instructions: stats.instructions,
            ctas_per_sm: vec![ctas],
            ctas_launched,
            ctas_dispatched: ctas,
            l2: stats.memory.llc,
            dram: stats.memory.dram,
            l2_queue_wait_cycles: stats.memory.l2_queue_wait_cycles,
            l2_slice_wait_min: stats.memory.l2_slice_wait_min,
            l2_slice_wait_max: stats.memory.l2_slice_wait_max,
            noc: stats.memory.noc,
            truncated: stats.truncated,
            per_sm: vec![stats],
        }
    }
}

/// The dispatcher's plan for one SM: which CTAs it hosts and the resident
/// warps they contribute.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SmAssignment {
    ctas: u64,
    warps: usize,
    /// Global index of the SM's first warp (for address-region sharding and
    /// per-warp seed derivation).
    first_warp: usize,
}

/// Deals the grid's CTAs to `sm_count` SMs round-robin, one wave per SM.
///
/// Each SM accepts full CTAs until its register-file occupancy bound is
/// reached; a CTA wider than the whole SM is clamped to the SM's warp
/// capacity (partial CTA, mirroring the single-SM engine's warp-granular
/// residency cap).
fn dispatch_ctas(
    warps_per_block: u64,
    blocks_per_grid: u64,
    warp_capacity: usize,
    sm_count: usize,
) -> Vec<SmAssignment> {
    let wpb = warps_per_block.max(1);
    let warps_per_cta = (wpb as usize).min(warp_capacity.max(1));
    let cta_capacity = ((warp_capacity / warps_per_cta) as u64).max(1);
    let mut ctas = vec![0u64; sm_count];
    let mut remaining = blocks_per_grid;
    'deal: loop {
        let mut progress = false;
        for slot in ctas.iter_mut() {
            if remaining == 0 {
                break 'deal;
            }
            if *slot < cta_capacity {
                *slot += 1;
                remaining -= 1;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    let mut first_warp = 0usize;
    ctas.into_iter()
        .map(|ctas| {
            let warps = ctas as usize * warps_per_cta;
            let assignment = SmAssignment {
                ctas,
                warps,
                first_warp,
            };
            first_warp += warps;
            assignment
        })
        .collect()
}

/// Builds one engine per SM (private L1/MSHR port on the shared L2, sharded
/// address stream, per-warp seeds derived from the *global* warp index) and
/// drives them in lock-step.
fn run_multi_sm<'a, E: SmEngine<'a>>(
    workload: &'a SimWorkload,
    config: &'a GpuConfig,
    regfiles: &'a mut [Box<dyn RegisterFileModel>],
    plan: &[SmAssignment],
    shared: &Rc<RefCell<SharedMemory>>,
    total_warps: usize,
) -> (Vec<SimStats>, Cycle) {
    let engines: Vec<E> = regfiles
        .iter_mut()
        .zip(plan)
        .enumerate()
        .map(|(sm_index, (regfile, assignment))| {
            E::with_parts(
                &workload.kernel,
                &config.sm,
                regfile.as_mut(),
                MemoryHierarchy::shared_port(&config.sm.memory, Rc::clone(shared), sm_index),
                AddressGenerator::sharded(
                    workload.memory,
                    assignment.warps,
                    workload.seed,
                    assignment.first_warp,
                    total_warps.max(1),
                ),
                &driver::warp_seeds(workload.seed, assignment.first_warp, assignment.warps),
            )
        })
        .collect();
    driver::run_lockstep(engines, config.sm.max_cycles, KernelEnd::NextCycle)
}

/// Runs `workload` on a whole GPU: `config.sm_count` SMs, each with its own
/// register-file model from `regfiles`, contending for the shared L2 and
/// DRAM, on an explicitly chosen engine implementation
/// ([`EngineKind::default`] is the fast one).
///
/// With `sm_count == 1` this is exactly [`crate::simulate_with`] (same
/// warp-granular residency, same private hierarchy), so single-SM campaigns
/// reproduce bit for bit.
///
/// # Panics
///
/// Panics if `regfiles.len() != config.sm_count.max(1)` — the caller builds
/// one organization instance per SM.
pub fn simulate_gpu_with(
    workload: &SimWorkload,
    config: &GpuConfig,
    regfiles: &mut [Box<dyn RegisterFileModel>],
    kind: EngineKind,
) -> GpuStats {
    let sm_count = config.sm_count.max(1);
    assert_eq!(
        regfiles.len(),
        sm_count,
        "simulate_gpu_with needs one register-file model per SM"
    );
    let kernel = &workload.kernel;
    let launch = kernel.launch();
    if sm_count == 1 {
        let stats = simulate_with(workload, &config.sm, regfiles[0].as_mut(), kind);
        return GpuStats::from_single_sm(
            stats,
            u64::from(launch.warps_per_block),
            u64::from(launch.blocks_per_grid),
        );
    }

    let warp_capacity = config.sm.resident_warps(kernel.regs_per_thread());
    let plan = dispatch_ctas(
        u64::from(launch.warps_per_block),
        u64::from(launch.blocks_per_grid),
        warp_capacity,
        sm_count,
    );
    let total_warps: usize = plan.iter().map(|a| a.warps).sum();

    let shared = Rc::new(RefCell::new(SharedMemory::with_interconnect(
        &config.sm.memory,
        &config.l2,
        &config.interconnect,
        sm_count,
    )));
    let (per_sm, cycle) = match kind {
        EngineKind::Fast => {
            run_multi_sm::<FastEngine>(workload, config, regfiles, &plan, &shared, total_warps)
        }
        EngineKind::Reference => {
            run_multi_sm::<Engine>(workload, config, regfiles, &plan, &shared, total_warps)
        }
    };
    let (l2, dram, l2_queue_wait_cycles, (slice_min, slice_max), noc) = {
        let shared = shared.borrow();
        (
            shared.llc_stats(),
            shared.dram_stats(),
            shared.l2_queue_wait_cycles(),
            shared.slice_wait_bounds(),
            shared.noc_stats(),
        )
    };
    GpuStats {
        sm_count,
        cycles: cycle.max(1),
        instructions: per_sm.iter().map(|s| s.instructions).sum(),
        ctas_per_sm: plan.iter().map(|a| a.ctas).collect(),
        ctas_launched: u64::from(launch.blocks_per_grid),
        ctas_dispatched: plan.iter().map(|a| a.ctas).sum(),
        l2,
        dram,
        l2_queue_wait_cycles,
        l2_slice_wait_min: slice_min,
        l2_slice_wait_max: slice_max,
        noc,
        truncated: per_sm.iter().any(|s| s.truncated),
        per_sm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmConfig;
    use crate::regfile::DirectRegisterFile;
    use ltrf_isa::{ArchReg, Kernel, KernelBuilder, LaunchConfig, Opcode};

    fn memory_kernel(warps_per_block: u32, blocks: u32) -> Kernel {
        let mut b = KernelBuilder::new("gpu-mem", 16);
        let entry = b.entry_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.push(entry, Opcode::Mov, Some(ArchReg::new(0)), &[]);
        b.jump(entry, body);
        b.push(
            body,
            Opcode::LoadGlobal,
            Some(ArchReg::new(1)),
            &[ArchReg::new(0)],
        );
        b.push(
            body,
            Opcode::FAlu,
            Some(ArchReg::new(2)),
            &[ArchReg::new(1)],
        );
        b.loop_branch(body, body, exit, 8);
        b.push(
            exit,
            Opcode::StoreGlobal,
            None,
            &[ArchReg::new(0), ArchReg::new(2)],
        );
        b.exit(exit);
        b.launch(LaunchConfig::new(warps_per_block, blocks, 0));
        b.build().unwrap()
    }

    fn regfiles(n: usize, config: &SmConfig) -> Vec<Box<dyn RegisterFileModel>> {
        (0..n)
            .map(|_| {
                Box::new(DirectRegisterFile::new(config.regfile)) as Box<dyn RegisterFileModel>
            })
            .collect()
    }

    fn gpu_config(sm_count: usize) -> GpuConfig {
        GpuConfig {
            sm_count,
            sm: SmConfig {
                max_warps: 16,
                active_warps: 4,
                ..SmConfig::default()
            },
            ..GpuConfig::default()
        }
    }

    #[test]
    fn round_robin_dispatch_balances_ctas() {
        let plan = dispatch_ctas(4, 10, 16, 4);
        assert_eq!(
            plan.iter().map(|a| a.ctas).collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
        assert_eq!(plan[0].warps, 12);
        assert_eq!(plan[1].first_warp, 12);
        let dispatched: u64 = plan.iter().map(|a| a.ctas).sum();
        assert_eq!(dispatched, 10);
    }

    #[test]
    fn dispatch_respects_occupancy_and_one_wave() {
        // 8 warps per CTA, 64-warp grid, SMs hold 16 warps: 2 CTAs per SM,
        // so 2 SMs execute 4 of the 8 CTAs in their single wave.
        let plan = dispatch_ctas(8, 8, 16, 2);
        assert!(plan.iter().all(|a| a.ctas == 2 && a.warps == 16));
        // A CTA wider than the SM is clamped to the SM's capacity.
        let clamped = dispatch_ctas(32, 4, 16, 2);
        assert!(clamped.iter().all(|a| a.ctas == 1 && a.warps == 16));
    }

    #[test]
    fn one_sm_gpu_matches_single_sm_engine_bit_for_bit() {
        let kernel = memory_kernel(4, 4);
        let workload = SimWorkload::new(kernel);
        let config = gpu_config(1);
        let mut rf = DirectRegisterFile::new(config.sm.regfile);
        let single = simulate_with(&workload, &config.sm, &mut rf, EngineKind::default());
        let mut rfs = regfiles(1, &config.sm);
        let gpu = simulate_gpu_with(&workload, &config, &mut rfs, EngineKind::default());
        assert_eq!(gpu.per_sm.len(), 1);
        assert_eq!(gpu.per_sm[0], single);
        assert_eq!(gpu.cycles, single.cycles);
        assert_eq!(gpu.instructions, single.instructions);
    }

    /// The multi-SM lock-step schedule (SMs issue in index order at every
    /// visited cycle, global fast-forward to the earliest next event) must
    /// produce bit-identical `GpuStats` from both engines — including the
    /// shared L2/DRAM counters, which observe the cross-SM request
    /// interleaving and would diverge on any ordering slip.
    #[test]
    fn fast_gpu_matches_reference_gpu_bit_for_bit() {
        for (blocks, sm_count, seed) in [(8, 4, 42), (16, 2, 7), (4, 4, 0xC0FFEE)] {
            let kernel = memory_kernel(4, blocks);
            let workload = SimWorkload::new(kernel).with_seed(seed);
            let config = gpu_config(sm_count);
            let fast = simulate_gpu_with(
                &workload,
                &config,
                &mut regfiles(sm_count, &config.sm),
                EngineKind::Fast,
            );
            let reference = simulate_gpu_with(
                &workload,
                &config,
                &mut regfiles(sm_count, &config.sm),
                EngineKind::Reference,
            );
            assert_eq!(fast, reference, "GPU engines diverged at {sm_count} SMs");
        }
    }

    #[test]
    fn multi_sm_runs_are_deterministic() {
        let kernel = memory_kernel(4, 8);
        let workload = SimWorkload::new(kernel).with_seed(42);
        let config = gpu_config(4);
        let a = simulate_gpu_with(
            &workload,
            &config,
            &mut regfiles(4, &config.sm),
            EngineKind::default(),
        );
        let b = simulate_gpu_with(
            &workload,
            &config,
            &mut regfiles(4, &config.sm),
            EngineKind::default(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn more_sms_execute_more_instructions_under_shared_contention() {
        let kernel = memory_kernel(4, 16);
        let workload = SimWorkload::new(kernel).with_seed(7);
        let one = {
            let config = gpu_config(1);
            simulate_gpu_with(
                &workload,
                &config,
                &mut regfiles(1, &config.sm),
                EngineKind::default(),
            )
        };
        let four = {
            let config = gpu_config(4);
            simulate_gpu_with(
                &workload,
                &config,
                &mut regfiles(4, &config.sm),
                EngineKind::default(),
            )
        };
        assert!(!four.truncated);
        assert!(four.instructions > one.instructions, "4 SMs run more CTAs");
        assert!(four.ipc() > one.ipc(), "parallel SMs raise chip IPC");
        let dram_total = four.dram.requests;
        assert!(dram_total >= one.dram.requests);
        // The shared structures saw traffic from several SMs.
        assert_eq!(four.ctas_per_sm.len(), 4);
        assert!(four.ctas_per_sm.iter().all(|&c| c > 0));
    }

    /// Acceptance criterion: at 16 SMs, Crossbar and Mesh2D must be
    /// measurably different from each other (and from Ideal) in NoC latency
    /// and L2 queueing — topology is a real model, not a label.
    #[test]
    fn crossbar_and_mesh_topologies_diverge_at_16_sms() {
        use crate::interconnect::{InterconnectConfig, Topology};
        let kernel = memory_kernel(4, 32);
        let workload = SimWorkload::new(kernel).with_seed(11);
        let run = |topology| {
            let config =
                gpu_config(16).with_interconnect(InterconnectConfig::with_topology(topology));
            simulate_gpu_with(
                &workload,
                &config,
                &mut regfiles(16, &config.sm),
                EngineKind::default(),
            )
        };
        let ideal = run(Topology::Ideal);
        let xbar = run(Topology::Crossbar);
        let mesh = run(Topology::Mesh2D);
        assert_eq!(ideal.noc.total_latency, 0, "ideal transport is free");
        assert!(
            xbar.noc.mean_latency() > 0.0,
            "crossbar transport costs cycles"
        );
        assert!(
            mesh.noc.mean_latency() > xbar.noc.mean_latency(),
            "mesh pays per-hop distance a crossbar does not ({} vs {})",
            mesh.noc.mean_latency(),
            xbar.noc.mean_latency()
        );
        assert_ne!(
            (mesh.l2_queue_wait_cycles, mesh.noc.total_latency),
            (xbar.l2_queue_wait_cycles, xbar.noc.total_latency),
            "topologies must leave distinguishable contention signatures"
        );
        assert!(ideal.cycles <= xbar.cycles && ideal.cycles <= mesh.cycles);
        assert_eq!(
            (ideal.instructions, xbar.instructions, mesh.instructions),
            (ideal.instructions, ideal.instructions, ideal.instructions),
            "topology changes timing, never the work performed"
        );
    }

    #[test]
    fn aggregate_sums_instructions_and_carries_shared_stats() {
        let kernel = memory_kernel(4, 8);
        let workload = SimWorkload::new(kernel).with_seed(3);
        let config = gpu_config(2);
        let gpu = simulate_gpu_with(
            &workload,
            &config,
            &mut regfiles(2, &config.sm),
            EngineKind::default(),
        );
        let agg = gpu.aggregate();
        assert_eq!(agg.instructions, gpu.instructions);
        assert_eq!(agg.cycles, gpu.cycles);
        assert_eq!(agg.memory.llc, gpu.l2);
        assert_eq!(agg.memory.dram, gpu.dram);
        assert_eq!(
            agg.warps_resident,
            gpu.per_sm.iter().map(|s| s.warps_resident).sum::<usize>()
        );
        assert_eq!(gpu.per_sm_ipc().len(), 2);
    }
}
