//! The SM pipeline: issue, operand collection, execution, memory, and the
//! two-level warp scheduler.
//!
//! The engine models one streaming multiprocessor at cycle granularity:
//!
//! * up to [`SmConfig::max_warps`] warps are resident, further limited by the
//!   register-file capacity and the kernel's launch size;
//! * a two-level scheduler keeps [`SmConfig::active_warps`] warps in the
//!   active pool; a warp that issues a long-latency operation (global/local
//!   memory access or barrier) is demoted and another eligible warp is
//!   promoted, paying whatever activation cost the register-file organization
//!   charges;
//! * each issued instruction allocates an operand-collector slot until its
//!   source operands have been gathered from the register-file organization
//!   (which models register-cache hits, main-register-file latency, and bank
//!   conflicts);
//! * execution latency depends on the opcode class; loads and stores travel
//!   through the L1 → LLC → DRAM hierarchy;
//! * a per-register scoreboard enforces RAW/WAW ordering inside each warp.
//!
//! Simplifications relative to GPGPU-Sim, none of which change which
//! register-file organization wins: barriers are modelled as a fixed
//! long-latency operation rather than an inter-warp rendezvous, and only one
//! "wave" of resident warps is executed per kernel. [`simulate_with`] runs one SM
//! (the paper's workloads behave homogeneously across SMs, so single-SM
//! campaigns remain representative for register-file comparisons); the
//! multi-SM mode in [`crate::gpu`] drives several of these engines in
//! lock-step over a shared L2/DRAM when chip-level memory contention
//! matters.

use ltrf_isa::{Kernel, Opcode, OpcodeClass};

use crate::config::SmConfig;
use crate::driver::{self, KernelEnd, SmEngine};
use crate::fast::FastEngine;
use crate::memory::{AddressGenerator, MemoryBehavior, MemoryHierarchy};
use crate::regfile::RegisterFileModel;
use crate::stats::SimStats;
use crate::types::{Cycle, WarpId};
use crate::warp::{WarpContext, WarpStatus};

/// A kernel plus the synthetic memory behaviour it exercises.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// The kernel to execute.
    pub kernel: Kernel,
    /// Global-memory access behaviour.
    pub memory: MemoryBehavior,
    /// Seed for branch resolution and address generation.
    pub seed: u64,
}

impl SimWorkload {
    /// Creates a workload with the default streaming memory behaviour.
    #[must_use]
    pub fn new(kernel: Kernel) -> Self {
        SimWorkload {
            kernel,
            memory: MemoryBehavior::default(),
            seed: 0xC0FFEE,
        }
    }

    /// Sets the memory behaviour.
    #[must_use]
    pub fn with_memory(mut self, memory: MemoryBehavior) -> Self {
        self.memory = memory;
        self
    }

    /// Sets the simulation seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Selects which SM engine implementation executes a simulation.
///
/// Both implementations produce bit-identical statistics — the differential
/// test layer in `crates/core/tests/` pins exact `f64` equality on every
/// field — so the choice only affects wall-clock speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The allocation-free, skip-ahead engine (`fast.rs`); the default.
    #[default]
    Fast,
    /// The straightforward tick loop, kept as the differential oracle.
    Reference,
}

/// Runs `workload` on one SM with a private memory hierarchy, the given
/// register-file organization and an explicitly chosen engine
/// implementation ([`EngineKind::default`] is the fast one;
/// [`EngineKind::Reference`] exists for differential testing and debugging
/// and is never faster).
///
/// The lone SM runs on the same lock-step driver as a whole GPU
/// ([`crate::simulate_gpu_with`]). The two differ only in when the kernel
/// ends: a lone SM drains its busy operand collectors to the next event
/// after its last warp retired, where SMs that share memory stop at the
/// cycle after.
pub fn simulate_with(
    workload: &SimWorkload,
    config: &SmConfig,
    regfile: &mut dyn RegisterFileModel,
    kind: EngineKind,
) -> SimStats {
    fn run<'a, E: SmEngine<'a>>(
        workload: &'a SimWorkload,
        config: &'a SmConfig,
        regfile: &'a mut dyn RegisterFileModel,
    ) -> SimStats {
        let engine = E::lone(workload, config, regfile);
        let (mut per_sm, _) =
            driver::run_lockstep(vec![engine], config.max_cycles, KernelEnd::Drain);
        per_sm.pop().expect("one SM")
    }
    match kind {
        EngineKind::Fast => run::<FastEngine>(workload, config, regfile),
        EngineKind::Reference => run::<Engine>(workload, config, regfile),
    }
}

/// The per-SM pipeline state machine.
///
/// Private to the crate: the lock-step driver ([`crate::driver`]) steps it
/// through the [`SmEngine`] primitives, alone for [`simulate_with`] and
/// beside other SMs over shared memory for [`crate::gpu`].
pub(crate) struct Engine<'a> {
    kernel: &'a Kernel,
    config: &'a SmConfig,
    regfile: &'a mut dyn RegisterFileModel,
    memory: MemoryHierarchy,
    addresses: AddressGenerator,
    warps: Vec<WarpContext>,
    active: Vec<WarpId>,
    collectors: Vec<Cycle>,
    stats: SimStats,
    finished: usize,
}

impl Engine<'_> {
    /// Attempts to issue one instruction from `warp_id`. Returns `true` on
    /// success.
    fn try_issue(&mut self, warp_id: WarpId, cycle: Cycle) -> bool {
        // Resolve stalls.
        match self.warps[warp_id.index()].status {
            WarpStatus::StalledUntil(t) if t <= cycle => {
                self.warps[warp_id.index()].status = WarpStatus::Ready;
            }
            WarpStatus::Ready => {}
            _ => return false,
        }

        // Advance through terminators / empty blocks until an instruction is
        // available or the warp finishes or stalls on a PREFETCH.
        let mut guard = 0usize;
        loop {
            let warp = &self.warps[warp_id.index()];
            let block = self.kernel.cfg.block(warp.block);
            if warp.pc < block.len() {
                break;
            }
            guard += 1;
            if guard > self.kernel.cfg.block_count() + 1 {
                // Pathological empty-block cycle; treat the warp as finished
                // so the simulation terminates.
                self.retire_warp(warp_id, cycle);
                return false;
            }
            let next = self.warps[warp_id.index()].take_branch(self.kernel);
            match next {
                None => {
                    self.retire_warp(warp_id, cycle);
                    return false;
                }
                Some(next_block) => {
                    let ready = self.regfile.block_entered(warp_id, next_block, cycle);
                    let warp = &mut self.warps[warp_id.index()];
                    warp.block = next_block;
                    warp.pc = 0;
                    if ready > cycle {
                        warp.status = WarpStatus::StalledUntil(ready);
                        return false;
                    }
                }
            }
        }

        // Fetch the instruction.
        let (opcode, reads, dst, dying) = {
            let warp = &self.warps[warp_id.index()];
            let inst = &self.kernel.cfg.block(warp.block).instructions()[warp.pc];
            (
                inst.opcode(),
                inst.reads(),
                inst.dst(),
                inst.dying_registers(),
            )
        };

        // Scoreboard check.
        if !self.warps[warp_id.index()].scoreboard_ready(&reads, dst, cycle) {
            let ready = self.warps[warp_id.index()].scoreboard_ready_at(&reads, dst);
            self.warps[warp_id.index()].status = WarpStatus::StalledUntil(ready.max(cycle + 1));
            return false;
        }

        // Operand collector allocation.
        let Some(collector) = self
            .collectors
            .iter()
            .position(|&busy_until| busy_until <= cycle)
        else {
            return false;
        };

        // For global memory operations, respect the MSHR limit.
        let is_global_mem = matches!(
            opcode,
            Opcode::LoadGlobal | Opcode::LoadLocal | Opcode::StoreGlobal | Opcode::StoreLocal
        );
        if is_global_mem && !self.memory.can_accept(cycle) {
            return false;
        }

        // Gather operands through the register-file organization.
        let operands_ready = self.regfile.read_operands(warp_id, &reads, cycle);
        self.collectors[collector] = operands_ready;
        if !dying.is_empty() {
            self.regfile.operands_dead(warp_id, &dying);
        }

        // Execute.
        let complete = self.execute(warp_id, opcode, operands_ready);

        // Write back the destination through the register file and update the
        // scoreboard.
        if let Some(d) = dst {
            let visible = self.regfile.write_register(warp_id, d, complete);
            self.warps[warp_id.index()].record_pending_write(d, visible.max(complete));
        }

        // Book-keeping and control flow.
        {
            let warp = &mut self.warps[warp_id.index()];
            warp.pc += 1;
            warp.instructions_executed += 1;
        }
        self.stats.instructions += 1;

        // The two-level scheduler demotes a warp that actually stalls for a
        // long time: barriers, and loads that miss in the L1 and travel to
        // the LLC or DRAM. Loads that hit in the L1 (and stores, which do not
        // produce a value the warp waits on) keep the warp active; dependent
        // instructions are held back by the scoreboard instead.
        let demotion_threshold = 2 * self.config.memory.l1_hit_latency;
        let is_long_load = matches!(opcode, Opcode::LoadGlobal | Opcode::LoadLocal)
            && complete.saturating_sub(operands_ready) > demotion_threshold;
        if opcode == Opcode::Barrier || is_long_load {
            self.demote_warp(warp_id, complete, cycle);
        }
        true
    }

    /// Computes the completion cycle of `opcode` whose operands are ready at
    /// `operands_ready`.
    fn execute(&mut self, warp_id: WarpId, opcode: Opcode, operands_ready: Cycle) -> Cycle {
        let exec = &self.config.exec;
        match opcode.class() {
            OpcodeClass::SimpleAlu => operands_ready + exec.simple_alu,
            OpcodeClass::MulAlu => operands_ready + exec.mul_alu,
            OpcodeClass::FpAlu => operands_ready + exec.fp_alu,
            OpcodeClass::Sfu => operands_ready + exec.sfu,
            OpcodeClass::Barrier => operands_ready + exec.barrier,
            OpcodeClass::Nop => operands_ready + 1,
            OpcodeClass::Load | OpcodeClass::Store => match opcode {
                Opcode::LoadShared | Opcode::StoreShared => operands_ready + exec.shared_mem,
                Opcode::LoadConst => operands_ready + exec.const_mem,
                _ => {
                    let address = self.addresses.next_address(warp_id);
                    self.memory.access_global(address, operands_ready)
                }
            },
        }
    }

    fn retire_warp(&mut self, warp_id: WarpId, cycle: Cycle) {
        self.warps[warp_id.index()].status = WarpStatus::Finished;
        self.active.retain(|&w| w != warp_id);
        self.regfile.warp_deactivated(warp_id, cycle);
        self.finished += 1;
    }

    fn demote_warp(&mut self, warp_id: WarpId, resume_at: Cycle, cycle: Cycle) {
        self.warps[warp_id.index()].status = WarpStatus::InactiveUntil(resume_at);
        self.active.retain(|&w| w != warp_id);
        self.regfile.warp_deactivated(warp_id, cycle);
    }

    /// Chooses the next warp to activate: never-started warps first, then the
    /// inactive warp whose pending operation completed the longest ago.
    fn pick_activation_candidate(&mut self, cycle: Cycle) -> Option<WarpId> {
        let mut best: Option<(WarpId, Cycle)> = None;
        for (idx, warp) in self.warps.iter().enumerate() {
            let id = WarpId(idx as u32);
            if self.active.contains(&id) {
                continue;
            }
            match warp.status {
                WarpStatus::Pending => return Some(id),
                WarpStatus::InactiveUntil(t) if t <= cycle && best.is_none_or(|(_, bt)| t < bt) => {
                    best = Some((id, t));
                }
                _ => {}
            }
        }
        best.map(|(id, _)| id)
    }
}

impl<'a> SmEngine<'a> for Engine<'a> {
    fn with_parts(
        kernel: &'a Kernel,
        config: &'a SmConfig,
        regfile: &'a mut dyn RegisterFileModel,
        memory: MemoryHierarchy,
        addresses: AddressGenerator,
        warp_seeds: &[u64],
    ) -> Self {
        let warps: Vec<WarpContext> = warp_seeds
            .iter()
            .map(|&seed| WarpContext::new(kernel, seed))
            .collect();
        let stats = SimStats {
            warps_resident: warps.len(),
            ..SimStats::default()
        };
        Engine {
            kernel,
            config,
            regfile,
            memory,
            addresses,
            warps,
            active: Vec::new(),
            collectors: vec![0; config.operand_collectors.max(1)],
            stats,
            finished: 0,
        }
    }

    fn is_done(&self) -> bool {
        self.finished >= self.warps.len()
    }

    fn note_idle(&mut self, cycles: u64) {
        self.stats.idle_cycles += cycles;
    }

    fn issue_cycle(&mut self, cycle: Cycle) -> usize {
        let mut issued = 0;
        // Rotate the starting warp each cycle for round-robin fairness.
        let active_snapshot: Vec<WarpId> = self.active.clone();
        if active_snapshot.is_empty() {
            return 0;
        }
        let start = (cycle as usize) % active_snapshot.len();
        for offset in 0..active_snapshot.len() {
            if issued >= self.config.issue_width {
                break;
            }
            let warp_id = active_snapshot[(start + offset) % active_snapshot.len()];
            if self.try_issue(warp_id, cycle) {
                issued += 1;
            }
        }
        issued
    }

    fn refill_active_pool(&mut self, cycle: Cycle) -> bool {
        let before = self.active.len();
        while self.active.len() < self.config.active_warps {
            let candidate = self.pick_activation_candidate(cycle);
            let Some(warp_id) = candidate else { break };
            let block = self.warps[warp_id.index()].block;
            let ready = self.regfile.warp_activated(warp_id, block, cycle);
            self.warps[warp_id.index()].status = if ready > cycle {
                WarpStatus::StalledUntil(ready)
            } else {
                WarpStatus::Ready
            };
            self.active.push(warp_id);
            self.stats.warp_activations += 1;
        }
        self.active.len() > before
    }

    fn next_event_after(&mut self, cycle: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        for (idx, warp) in self.warps.iter().enumerate() {
            let id = WarpId(idx as u32);
            match warp.status {
                WarpStatus::StalledUntil(t) if self.active.contains(&id) && t > cycle => {
                    next = next.min(t);
                }
                WarpStatus::InactiveUntil(t) if t > cycle => next = next.min(t),
                WarpStatus::Ready if self.active.contains(&id) => {
                    // A ready active warp could not issue this cycle only due
                    // to collectors or MSHRs; re-check next cycle.
                    next = next.min(cycle + 1);
                }
                WarpStatus::Pending => next = next.min(cycle + 1),
                _ => {}
            }
        }
        for &busy in &self.collectors {
            if busy > cycle {
                next = next.min(busy);
            }
        }
        if next == Cycle::MAX {
            cycle + 1
        } else {
            next
        }
    }

    fn finalize(mut self, cycle: Cycle) -> SimStats {
        self.stats.cycles = cycle.max(1);
        self.stats.warps_completed = self.finished;
        self.stats.truncated = self.finished < self.warps.len();
        self.stats.regfile_accesses = self.regfile.access_counts();
        self.stats.regfile_accesses.cycles = self.stats.cycles;
        self.stats.register_cache_hit_rate = self.regfile.register_cache_hit_rate();
        self.stats.prefetch_stall_cycles = self.regfile.prefetch_stall_cycles();
        self.stats.memory = self.memory.stats();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regfile::{DirectRegisterFile, IdealRegisterFile};
    use ltrf_isa::{straight_line_kernel, ArchReg, KernelBuilder, LaunchConfig, Opcode};

    fn small_config() -> SmConfig {
        SmConfig {
            max_warps: 8,
            active_warps: 4,
            max_cycles: 2_000_000,
            ..SmConfig::default()
        }
    }

    fn alu_kernel(warps: u32) -> Kernel {
        let mut b = KernelBuilder::new("alu", 16);
        let e = b.entry_block();
        for i in 0..60usize {
            b.push(
                e,
                Opcode::FAlu,
                Some(ArchReg::new((i % 8) as u8)),
                &[ArchReg::new(((i + 1) % 8) as u8)],
            );
        }
        b.exit(e);
        b.launch(LaunchConfig::new(warps, 1, 0));
        b.build().unwrap()
    }

    fn memory_kernel(warps: u32) -> Kernel {
        let mut b = KernelBuilder::new("mem", 16);
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
        b.push(
            body,
            Opcode::FAlu,
            Some(ArchReg::new(3)),
            &[ArchReg::new(2)],
        );
        b.loop_branch(body, body, exit, 10);
        b.push(
            exit,
            Opcode::StoreGlobal,
            None,
            &[ArchReg::new(0), ArchReg::new(3)],
        );
        b.exit(exit);
        b.launch(LaunchConfig::new(warps, 1, 0));
        b.build().unwrap()
    }

    #[test]
    fn all_warps_complete_and_instruction_count_matches() {
        let kernel = alu_kernel(8);
        let workload = SimWorkload::new(kernel);
        let config = small_config();
        let mut rf = DirectRegisterFile::new(config.regfile);
        let stats = simulate_with(&workload, &config, &mut rf, EngineKind::default());
        assert!(!stats.truncated);
        assert_eq!(stats.warps_resident, 8);
        assert_eq!(stats.warps_completed, 8);
        assert_eq!(stats.instructions, 8 * 60);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn memory_kernel_completes_with_loop_trips() {
        let kernel = memory_kernel(4);
        let per_warp = 1 + 10 * 3 + 1;
        let workload = SimWorkload::new(kernel);
        let config = small_config();
        let mut rf = DirectRegisterFile::new(config.regfile);
        let stats = simulate_with(&workload, &config, &mut rf, EngineKind::default());
        assert!(!stats.truncated);
        assert_eq!(stats.instructions, 4 * per_warp);
        assert!(stats.memory.global_requests >= 4 * 10);
        assert!(
            stats.warp_activations >= 4,
            "loads demote and reactivate warps"
        );
    }

    #[test]
    fn slower_register_file_reduces_ipc() {
        let kernel = alu_kernel(8);
        let config = small_config();
        let workload = SimWorkload::new(kernel);
        let mut fast = DirectRegisterFile::new(config.regfile);
        let fast_stats = simulate_with(&workload, &config, &mut fast, EngineKind::default());
        let slow_config = small_config().with_mrf_latency_factor(6.3);
        let mut slow = DirectRegisterFile::new(slow_config.regfile);
        let slow_stats = simulate_with(&workload, &slow_config, &mut slow, EngineKind::default());
        assert!(
            slow_stats.ipc() < fast_stats.ipc(),
            "6.3x register file latency must hurt a dependent ALU kernel: {} vs {}",
            slow_stats.ipc(),
            fast_stats.ipc()
        );
    }

    #[test]
    fn ideal_register_file_is_at_least_as_fast_as_direct() {
        let kernel = memory_kernel(8);
        let config = small_config();
        let workload = SimWorkload::new(kernel);
        let mut direct = DirectRegisterFile::new(config.regfile.with_latency_factor(6.3));
        let direct_stats = simulate_with(&workload, &config, &mut direct, EngineKind::default());
        let mut ideal = IdealRegisterFile::new(config.regfile);
        let ideal_stats = simulate_with(&workload, &config, &mut ideal, EngineKind::default());
        assert!(ideal_stats.ipc() >= direct_stats.ipc());
    }

    #[test]
    fn more_active_warps_hide_memory_latency() {
        // A latency-bound kernel (cache-resident working set, so bandwidth is
        // not the limit): a larger active pool hides more of the load
        // latency, as in the paper's Figure 13.
        let kernel = memory_kernel(16);
        let config = SmConfig {
            max_warps: 16,
            active_warps: 1,
            ..SmConfig::default()
        };
        let workload =
            SimWorkload::new(kernel.clone()).with_memory(MemoryBehavior::cache_resident());
        let mut rf = DirectRegisterFile::new(config.regfile);
        let few = simulate_with(&workload, &config, &mut rf, EngineKind::default());
        let config8 = SmConfig {
            active_warps: 8,
            ..config
        };
        let mut rf8 = DirectRegisterFile::new(config8.regfile);
        let many = simulate_with(&workload, &config8, &mut rf8, EngineKind::default());
        assert!(
            many.ipc() > few.ipc(),
            "8 active warps should beat 1 on a latency-bound kernel: {} vs {}",
            many.ipc(),
            few.ipc()
        );
    }

    #[test]
    fn resident_warps_respect_register_capacity() {
        // 128 registers per thread -> 16 KB per warp -> 16 warps in 256 KB.
        let kernel = straight_line_kernel("big", 128, 30);
        let workload = SimWorkload::new(kernel);
        let config = SmConfig::default();
        let mut rf = DirectRegisterFile::new(config.regfile);
        let stats = simulate_with(&workload, &config, &mut rf, EngineKind::default());
        assert_eq!(stats.warps_resident, 16);
        // An 8x register file lifts the cap (launch provides 8*64 warps).
        let big = SmConfig::default().with_regfile_capacity_factor(8.0);
        let mut rf2 = DirectRegisterFile::new(big.regfile);
        let stats2 = simulate_with(&workload, &big, &mut rf2, EngineKind::default());
        assert_eq!(stats2.warps_resident, 64);
    }

    /// The fast engine must be bit-identical to the reference tick loop on
    /// every statistic, across register-file models and scheduler shapes.
    /// (The cross-organization, multi-SM matrix lives in `ltrf-core`'s
    /// differential suite; this is the fast in-crate check.)
    #[test]
    fn fast_engine_matches_reference_bit_for_bit_on_unit_kernels() {
        let kernels = [alu_kernel(8), memory_kernel(8)];
        let configs = [
            small_config(),
            SmConfig {
                active_warps: 1,
                ..small_config()
            },
            SmConfig {
                operand_collectors: 1,
                issue_width: 4,
                ..small_config()
            },
        ];
        for kernel in &kernels {
            for config in &configs {
                for seed in [0xC0FFEE_u64, 7] {
                    let workload = SimWorkload::new(kernel.clone()).with_seed(seed);
                    let mut rf_fast = DirectRegisterFile::new(config.regfile);
                    let mut rf_ref = DirectRegisterFile::new(config.regfile);
                    let fast = simulate_with(&workload, config, &mut rf_fast, EngineKind::Fast);
                    let reference =
                        simulate_with(&workload, config, &mut rf_ref, EngineKind::Reference);
                    assert_eq!(fast, reference, "engines diverged on {}", kernel.name());

                    let mut ideal_fast = IdealRegisterFile::new(config.regfile);
                    let mut ideal_ref = IdealRegisterFile::new(config.regfile);
                    let fast = simulate_with(&workload, config, &mut ideal_fast, EngineKind::Fast);
                    let reference =
                        simulate_with(&workload, config, &mut ideal_ref, EngineKind::Reference);
                    assert_eq!(fast, reference, "ideal-RF divergence on {}", kernel.name());
                }
            }
        }
    }

    /// A kernel of independent writes (no reads, so no scoreboard stalls):
    /// every active warp can issue every cycle.
    fn independent_kernel(warps: u32) -> Kernel {
        let mut b = KernelBuilder::new("indep", 16);
        let e = b.entry_block();
        for i in 0..10usize {
            b.push(e, Opcode::Mov, Some(ArchReg::new((i % 8) as u8)), &[]);
        }
        b.exit(e);
        b.launch(LaunchConfig::new(warps, 1, 0));
        b.build().unwrap()
    }

    /// Pins the issue-order assumption the fast engine ports: the round-robin
    /// walk starts at `cycle % active_pool_len`, so with `issue_width = 1`
    /// two ready warps alternate rather than warp 0 monopolizing the slot.
    #[test]
    fn issue_order_rotates_with_cycle() {
        let kernel = independent_kernel(2);
        let workload = SimWorkload::new(kernel);
        let config = SmConfig {
            max_warps: 2,
            active_warps: 2,
            issue_width: 1,
            ..SmConfig::default()
        };
        let mut rf = DirectRegisterFile::new(config.regfile);
        let mut engine = Engine::lone(&workload, &config, &mut rf);
        engine.refill_active_pool(0);
        assert_eq!(engine.issue_cycle(0), 1);
        assert_eq!(engine.issue_cycle(1), 1);
        assert_eq!(
            (
                engine.warps[0].instructions_executed,
                engine.warps[1].instructions_executed,
            ),
            (1, 1),
            "cycle 0 starts at warp 0, cycle 1 starts at warp 1"
        );
    }

    /// Pins the stale-snapshot assumption: `issue_cycle` iterates the active
    /// pool as it was at the start of the cycle, so a warp demoted mid-cycle
    /// (here by a barrier) does not stop later warps from issuing.
    #[test]
    fn mid_cycle_demotion_does_not_skip_later_warps() {
        let mut b = KernelBuilder::new("barrier", 16);
        let e = b.entry_block();
        b.push(e, Opcode::Barrier, None, &[]);
        b.push(e, Opcode::Mov, Some(ArchReg::new(0)), &[]);
        b.exit(e);
        b.launch(LaunchConfig::new(2, 1, 0));
        let kernel = b.build().unwrap();
        let workload = SimWorkload::new(kernel);
        let config = SmConfig {
            max_warps: 2,
            active_warps: 2,
            issue_width: 2,
            ..SmConfig::default()
        };
        let mut rf = DirectRegisterFile::new(config.regfile);
        let mut engine = Engine::lone(&workload, &config, &mut rf);
        engine.refill_active_pool(0);
        // Warp 0's barrier demotes it from the pool mid-cycle; warp 1 must
        // still get its issue slot from the cycle-start snapshot.
        assert_eq!(engine.issue_cycle(0), 2);
        assert!(engine.active.is_empty(), "both warps demoted by barriers");
    }

    /// Pins the activation order: a `Pending` (never-started) warp always
    /// wins, then the eligible inactive warp with the earliest completion,
    /// then the lowest index on ties — the exact order the fast engine's
    /// wakeup queue reproduces.
    #[test]
    fn activation_prefers_pending_then_earliest_completion_then_index() {
        let kernel = independent_kernel(4);
        let workload = SimWorkload::new(kernel);
        let config = SmConfig {
            max_warps: 4,
            active_warps: 1,
            ..SmConfig::default()
        };
        let mut rf = DirectRegisterFile::new(config.regfile);
        let mut engine = Engine::lone(&workload, &config, &mut rf);
        engine.warps[0].status = WarpStatus::InactiveUntil(3);
        engine.warps[1].status = WarpStatus::Finished;
        engine.warps[2].status = WarpStatus::InactiveUntil(2);
        // Warp 3 is still Pending: it must win over every inactive warp.
        assert_eq!(engine.pick_activation_candidate(10), Some(WarpId(3)));
        engine.warps[3].status = WarpStatus::InactiveUntil(2);
        // No Pending left: earliest completion wins, lowest index on ties.
        assert_eq!(engine.pick_activation_candidate(10), Some(WarpId(2)));
        engine.warps[2].status = WarpStatus::Finished;
        assert_eq!(engine.pick_activation_candidate(10), Some(WarpId(3)));
        // Not yet eligible at cycle 1.
        assert_eq!(engine.pick_activation_candidate(1), None);
    }

    /// Pins the skip-ahead hazard the fast engine's two-heap queue exists
    /// for: an inactive warp whose wakeup has already passed (eligible but
    /// unadmitted, pool full) contributes nothing to `next_event_after`.
    #[test]
    fn next_event_ignores_due_inactive_warps() {
        let kernel = independent_kernel(2);
        let workload = SimWorkload::new(kernel);
        let config = SmConfig {
            max_warps: 2,
            active_warps: 1,
            ..SmConfig::default()
        };
        let mut rf = DirectRegisterFile::new(config.regfile);
        let mut engine = Engine::lone(&workload, &config, &mut rf);
        engine.warps[0].status = WarpStatus::StalledUntil(100);
        engine.warps[1].status = WarpStatus::InactiveUntil(5);
        engine.active.push(WarpId(0));
        // Warp 1 became eligible at cycle 5 but the pool is full: the next
        // *time* event is warp 0's stall resolving, not cycle 10 + 1.
        assert_eq!(engine.next_event_after(10), 100);
        // A strictly-future wakeup does bound the jump.
        engine.warps[1].status = WarpStatus::InactiveUntil(40);
        assert_eq!(engine.next_event_after(10), 40);
    }

    #[test]
    fn stats_capture_regfile_accesses() {
        let kernel = alu_kernel(2);
        let workload = SimWorkload::new(kernel);
        let config = small_config();
        let mut rf = DirectRegisterFile::new(config.regfile);
        let stats = simulate_with(&workload, &config, &mut rf, EngineKind::default());
        assert!(stats.regfile_accesses.mrf_reads > 0);
        assert!(stats.regfile_accesses.mrf_writes > 0);
        assert_eq!(stats.regfile_accesses.cycles, stats.cycles);
        assert_eq!(stats.register_cache_hit_rate, None);
    }
}
