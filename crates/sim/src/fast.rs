//! The allocation-free, skip-ahead SM engine (the default fast path).
//!
//! `FastEngine` executes exactly the schedule of the reference engine in
//! [`crate::engine`] — the differential test layer pins every statistic to
//! bit-identical equality — but restructures the hot path around
//! data-oriented layouts and event-driven wakeups:
//!
//! * **Pre-decoded instruction stream.** The kernel's blocks are flattened
//!   once at construction into a [`DecodedKernel`]: per static instruction
//!   the opcode, destination, read set, and dying set (the reference engine
//!   rebuilds the two `RegSet`s from the operand list on every dynamic
//!   instruction), plus per-block offsets and terminators.
//! * **SoA warp state.** Status, current block, pc, and branch RNG live in
//!   flat per-warp vectors instead of a `Vec<WarpContext>` of structs with
//!   two `HashMap`s each.
//! * **Flat scoreboard with a batch guard.** Pending-write ready cycles are
//!   a `warps x regs` matrix; an entry at or before `now` means "no pending
//!   write" (the reference engine's `retain` drops exactly those entries
//!   before every check, so stale values are unobservable). A per-warp
//!   `max_pending` watermark batches the common case: if the latest pending
//!   write of the warp is already visible, the per-register walk is skipped
//!   entirely.
//! * **Event-driven activation.** Demoted warps enter a [`WakeupQueue`]
//!   keyed on `(resume_cycle, warp_id)`; the scheduler pops the minimum
//!   instead of scanning all warps, and never-started warps are a cursor
//!   into the warp array (warps start `Pending` in index order and never
//!   return to it). Both reproduce the reference activation order exactly.
//! * **Walk without a snapshot.** The reference engine clones the active
//!   pool every cycle so that mid-cycle retires and demotions cannot shift
//!   its round-robin walk. Here nothing reads the pool during the walk, so
//!   the walk reads the pool itself and the warps that left it are removed
//!   once the walk ends. A warp that is not ready is skipped without a
//!   `try_issue` call, which would return `false` and change nothing.
//! * **Collector pool.** The operand collectors are a free count plus a
//!   min-heap of the release cycles of the busy ones, not a slot array
//!   scanned on every attempt. Which slot an instruction takes is never
//!   observed, only whether one is free and when the next one frees.
//!
//! What skip-ahead may skip, and what it may not, is decided by
//! `next_event_after`; how long the multi-SM driver may leave an idle SM
//! asleep is decided by `wake_after`. See the DESIGN.md section on the
//! event-driven core.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ltrf_isa::trace::BranchRng;
use ltrf_isa::{
    ArchReg, BlockId, BranchBehavior, Instruction, Kernel, Opcode, OpcodeClass, RegSet, Terminator,
};

use crate::config::SmConfig;
use crate::driver::SmEngine;
use crate::memory::{AddressGenerator, MemoryHierarchy};
use crate::regfile::RegisterFileModel;
use crate::stats::SimStats;
use crate::types::{Cycle, WarpId};
use crate::wakeup::WakeupQueue;
use crate::warp::WarpStatus;

/// One pre-decoded static instruction: what `try_issue` reads on every
/// attempt, in 16 bytes. The operand `RegSet`s the register-file model
/// takes are materialized once, in side arrays of [`DecodedKernel`], and
/// read only when an instruction issues.
#[derive(Debug, Clone, Copy)]
struct DecodedInst {
    opcode: Opcode,
    dst: Option<ArchReg>,
    /// The scoreboard columns the hazard check reads: the distinct sources
    /// and the destination, padded with the never-written column
    /// [`DecodedKernel::nregs`], so the check is a fixed, branch-free max.
    hazard_columns: [u16; Instruction::MAX_SOURCES + 1],
    /// Whether any source operand dies at this instruction.
    has_dying: bool,
    is_global_mem: bool,
}

/// A kernel flattened for the fast engine: instructions in one contiguous
/// array with per-block offsets, terminators in a dense table, and the
/// register-index bound that sizes the flat scoreboard.
#[derive(Debug)]
struct DecodedKernel {
    entry: u32,
    nblocks: usize,
    /// One past the highest register index any instruction touches (at
    /// least 1). Scoreboard rows have one more column, `nregs` itself,
    /// which no instruction writes: it pads the hazard columns.
    nregs: usize,
    block_start: Vec<u32>,
    block_len: Vec<u32>,
    terminators: Vec<Option<Terminator>>,
    insts: Vec<DecodedInst>,
    /// Per instruction, the registers it reads (the model's operand set).
    reads: Vec<RegSet>,
    /// Per instruction, the source registers read for the last time.
    dying: Vec<RegSet>,
}

impl DecodedKernel {
    fn new(kernel: &Kernel) -> Self {
        let nblocks = kernel.cfg.block_count();
        let mut block_start = vec![0u32; nblocks];
        let mut block_len = vec![0u32; nblocks];
        let mut terminators: Vec<Option<Terminator>> = vec![None; nblocks];
        let count = kernel.cfg.static_instruction_count();
        let mut insts = Vec::with_capacity(count);
        let mut all_reads = Vec::with_capacity(count);
        let mut all_dying = Vec::with_capacity(count);
        let nregs = kernel
            .cfg
            .blocks()
            .flat_map(|block| block.instructions())
            .flat_map(|inst| inst.reads().iter().chain(inst.dst()))
            .map(|r| r.index() + 1)
            .max()
            .unwrap_or(1);
        for block in kernel.cfg.blocks() {
            let b = block.id().index();
            block_start[b] = insts.len() as u32;
            block_len[b] = block.len() as u32;
            terminators[b] = block.terminator().copied();
            for inst in block.instructions() {
                let reads = inst.reads();
                let dying = inst.dying_registers();
                let dst = inst.dst();
                let mut hazard_columns = [nregs as u16; Instruction::MAX_SOURCES + 1];
                for (column, r) in hazard_columns.iter_mut().zip(reads.iter().chain(dst)) {
                    *column = r.index() as u16;
                }
                let opcode = inst.opcode();
                insts.push(DecodedInst {
                    opcode,
                    dst,
                    hazard_columns,
                    has_dying: !dying.is_empty(),
                    is_global_mem: matches!(
                        opcode,
                        Opcode::LoadGlobal
                            | Opcode::LoadLocal
                            | Opcode::StoreGlobal
                            | Opcode::StoreLocal
                    ),
                });
                all_reads.push(reads);
                all_dying.push(dying);
            }
        }
        DecodedKernel {
            entry: kernel.cfg.entry().0,
            nblocks,
            nregs,
            block_start,
            block_len,
            terminators,
            insts,
            reads: all_reads,
            dying: all_dying,
        }
    }
}

/// The operand collectors as a multiset of release cycles: how many are
/// known free, and a min-heap of the release cycles of the others.
///
/// Exact because the clock only moves forward: a collector released at or
/// before `now` stays free at every later call, so it can join the free
/// count for good, and that move is only made when the count is needed.
#[derive(Debug)]
struct CollectorPool {
    free: usize,
    busy: BinaryHeap<Reverse<Cycle>>,
}

impl CollectorPool {
    fn new(collectors: usize) -> Self {
        CollectorPool {
            free: collectors,
            busy: BinaryHeap::with_capacity(collectors),
        }
    }

    /// Frees every collector released at or before `now`.
    fn release(&mut self, now: Cycle) {
        while let Some(&Reverse(until)) = self.busy.peek() {
            if until > now {
                break;
            }
            self.busy.pop();
            self.free += 1;
        }
    }

    /// Whether a collector is free at `now`.
    fn has_free(&mut self, now: Cycle) -> bool {
        if self.free == 0 {
            self.release(now);
        }
        self.free > 0
    }

    /// Takes a free collector until `until`.
    fn occupy(&mut self, until: Cycle) {
        self.free -= 1;
        self.busy.push(Reverse(until));
    }

    /// The earliest release after `now`, if a collector is busy then.
    fn next_release(&mut self, now: Cycle) -> Option<Cycle> {
        self.release(now);
        self.busy.peek().map(|&Reverse(until)| until)
    }
}

/// The allocation-free, skip-ahead SM pipeline.
///
/// Crate-private like the reference [`crate::engine::Engine`]; it is driven
/// through [`crate::driver`] by [`crate::simulate_with`] and
/// [`crate::gpu::simulate_gpu_with`].
pub(crate) struct FastEngine<'a> {
    config: &'a SmConfig,
    regfile: &'a mut dyn RegisterFileModel,
    memory: MemoryHierarchy,
    addresses: AddressGenerator,
    code: DecodedKernel,
    // --- SoA per-warp state (indexed by warp id) ---
    status: Vec<WarpStatus>,
    block: Vec<u32>,
    pc: Vec<u32>,
    rngs: Vec<BranchRng>,
    /// Flat scoreboard, `warps x (nregs + 1)`: the cycle at which the latest
    /// pending write of the register becomes visible. A value at or before
    /// the current cycle means "no pending write".
    reg_ready: Vec<Cycle>,
    /// Per-warp watermark over `reg_ready`: if at or before the current
    /// cycle, the whole warp has no visible hazard and the per-register
    /// scoreboard walk is skipped (the batched scoreboard check).
    max_pending: Vec<Cycle>,
    /// Flat per-warp, per-block remaining loop iterations; `u32::MAX` is the
    /// "not entered" sentinel (stored counts are at most `u32::MAX - 1`).
    loop_left: Vec<u32>,
    // --- scheduler state ---
    active: Vec<WarpId>,
    /// Whether a warp retired or was demoted during the current issue
    /// walk; such warps leave `active` once the walk ends.
    left_pool: bool,
    /// Warps with indices at or beyond this cursor have never been
    /// activated (status `Pending`); activation consumes them in index
    /// order, exactly like the reference engine's linear scan.
    pending_cursor: usize,
    /// Demoted warps waiting on their pending operation.
    wakeups: WakeupQueue,
    collectors: CollectorPool,
    stats: SimStats,
    finished: usize,
}

impl FastEngine<'_> {
    /// Attempts to issue one instruction from `warp_id`. Returns `true` on
    /// success. Mirrors the reference engine's `try_issue` step for step.
    fn try_issue(&mut self, warp_id: WarpId, cycle: Cycle) -> bool {
        let w = warp_id.index();
        // Resolve stalls.
        match self.status[w] {
            WarpStatus::StalledUntil(t) if t <= cycle => {
                self.status[w] = WarpStatus::Ready;
            }
            WarpStatus::Ready => {}
            _ => return false,
        }

        // Advance through terminators / empty blocks until an instruction is
        // available or the warp finishes or stalls on a PREFETCH.
        let mut guard = 0usize;
        loop {
            let b = self.block[w] as usize;
            if self.pc[w] < self.code.block_len[b] {
                break;
            }
            guard += 1;
            if guard > self.code.nblocks + 1 {
                // Pathological empty-block cycle; treat the warp as finished
                // so the simulation terminates.
                self.retire_warp(warp_id, cycle);
                return false;
            }
            match self.take_branch(w) {
                None => {
                    self.retire_warp(warp_id, cycle);
                    return false;
                }
                Some(next_block) => {
                    let ready = self.regfile.block_entered(warp_id, next_block, cycle);
                    self.block[w] = next_block.0;
                    self.pc[w] = 0;
                    if ready > cycle {
                        self.status[w] = WarpStatus::StalledUntil(ready);
                        return false;
                    }
                }
            }
        }

        // Fetch the pre-decoded instruction.
        let b = self.block[w] as usize;
        let at = (self.code.block_start[b] + self.pc[w]) as usize;
        let inst = self.code.insts[at];

        // Scoreboard check, batched: if the warp's latest pending write is
        // already visible there can be no hazard; otherwise walk the
        // instruction's registers in the flat matrix.
        let base = w * (self.code.nregs + 1);
        if self.max_pending[w] > cycle {
            let row = &self.reg_ready[base..base + self.code.nregs + 1];
            let hazard_until = inst
                .hazard_columns
                .iter()
                .fold(0, |until, &c| until.max(row[usize::from(c)]));
            if hazard_until > cycle {
                self.status[w] = WarpStatus::StalledUntil(hazard_until.max(cycle + 1));
                return false;
            }
        }

        // Operand collector allocation.
        if !self.collectors.has_free(cycle) {
            return false;
        }

        // For global memory operations, respect the MSHR limit.
        if inst.is_global_mem && !self.memory.can_accept(cycle) {
            return false;
        }

        // Gather operands through the register-file organization.
        let operands_ready = self
            .regfile
            .read_operands(warp_id, &self.code.reads[at], cycle);
        self.collectors.occupy(operands_ready);
        if inst.has_dying {
            self.regfile.operands_dead(warp_id, &self.code.dying[at]);
        }

        // Execute.
        let complete = self.execute(warp_id, inst.opcode, operands_ready);

        // Write back the destination through the register file and update the
        // scoreboard.
        if let Some(d) = inst.dst {
            let visible = self.regfile.write_register(warp_id, d, complete);
            let ready = visible.max(complete);
            let slot = &mut self.reg_ready[base + d.index()];
            *slot = (*slot).max(ready);
            self.max_pending[w] = self.max_pending[w].max(ready);
        }

        // Book-keeping and control flow.
        self.pc[w] += 1;
        self.stats.instructions += 1;

        // The two-level scheduler demotes a warp that actually stalls for a
        // long time: barriers, and loads that miss in the L1 and travel to
        // the LLC or DRAM (same rule as the reference engine).
        let demotion_threshold = 2 * self.config.memory.l1_hit_latency;
        let is_long_load = matches!(inst.opcode, Opcode::LoadGlobal | Opcode::LoadLocal)
            && complete.saturating_sub(operands_ready) > demotion_threshold;
        if inst.opcode == Opcode::Barrier || is_long_load {
            self.demote_warp(warp_id, complete, cycle);
        }
        true
    }

    /// Advances control flow past the current block's terminator. Returns
    /// the next block, or `None` if the warp exits the kernel.
    fn take_branch(&mut self, w: usize) -> Option<BlockId> {
        let b = self.block[w] as usize;
        match self.code.terminators[b].expect("validated kernel") {
            Terminator::Exit => None,
            Terminator::Jump(t) => Some(t),
            Terminator::Branch {
                taken,
                not_taken,
                behavior,
            } => {
                let take = match behavior {
                    BranchBehavior::AlwaysTaken => true,
                    BranchBehavior::NeverTaken => false,
                    BranchBehavior::Probabilistic { taken_probability } => {
                        self.rngs[w].chance(taken_probability)
                    }
                    BranchBehavior::Loop { trip_count } => {
                        let slot = &mut self.loop_left[w * self.code.nblocks + b];
                        if *slot == u32::MAX {
                            *slot = trip_count.saturating_sub(1);
                        }
                        if *slot > 0 {
                            *slot -= 1;
                            true
                        } else {
                            *slot = u32::MAX;
                            false
                        }
                    }
                };
                Some(if take { taken } else { not_taken })
            }
        }
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

    /// Retires a warp of the active pool; it leaves the pool when the issue
    /// walk ends.
    fn retire_warp(&mut self, warp_id: WarpId, cycle: Cycle) {
        self.status[warp_id.index()] = WarpStatus::Finished;
        self.left_pool = true;
        self.regfile.warp_deactivated(warp_id, cycle);
        self.finished += 1;
    }

    /// Demotes a warp of the active pool; it leaves the pool when the issue
    /// walk ends.
    fn demote_warp(&mut self, warp_id: WarpId, resume_at: Cycle, cycle: Cycle) {
        self.status[warp_id.index()] = WarpStatus::InactiveUntil(resume_at);
        self.left_pool = true;
        self.regfile.warp_deactivated(warp_id, cycle);
        self.wakeups.push(resume_at, warp_id);
    }

    /// Chooses the next warp to activate: never-started warps first (the
    /// pending cursor, in index order), then the eligible demoted warp with
    /// the earliest completed operation (lowest index on ties) — the
    /// reference engine's activation order, without the scan.
    fn pick_activation_candidate(&mut self, cycle: Cycle) -> Option<WarpId> {
        if self.pending_cursor < self.status.len() {
            let id = WarpId(self.pending_cursor as u32);
            debug_assert_eq!(self.status[id.index()], WarpStatus::Pending);
            self.pending_cursor += 1;
            return Some(id);
        }
        self.wakeups.pop_eligible(cycle)
    }
}

impl<'a> SmEngine<'a> for FastEngine<'a> {
    fn with_parts(
        kernel: &'a Kernel,
        config: &'a SmConfig,
        regfile: &'a mut dyn RegisterFileModel,
        memory: MemoryHierarchy,
        addresses: AddressGenerator,
        warp_seeds: &[u64],
    ) -> Self {
        let code = DecodedKernel::new(kernel);
        let n = warp_seeds.len();
        let stats = SimStats {
            warps_resident: n,
            ..SimStats::default()
        };
        let active_capacity = config.active_warps.max(1);
        FastEngine {
            config,
            regfile,
            memory,
            addresses,
            status: vec![WarpStatus::Pending; n],
            block: vec![code.entry; n],
            pc: vec![0; n],
            rngs: warp_seeds.iter().map(|&s| BranchRng::new(s)).collect(),
            reg_ready: vec![0; n * (code.nregs + 1)],
            max_pending: vec![0; n],
            loop_left: vec![u32::MAX; n * code.nblocks],
            code,
            active: Vec::with_capacity(active_capacity),
            left_pool: false,
            pending_cursor: 0,
            wakeups: WakeupQueue::with_capacity(n),
            collectors: CollectorPool::new(config.operand_collectors.max(1)),
            stats,
            finished: 0,
        }
    }

    fn is_done(&self) -> bool {
        self.finished >= self.status.len()
    }

    fn note_idle(&mut self, cycles: u64) {
        self.stats.idle_cycles += cycles;
    }

    fn issue_cycle(&mut self, cycle: Cycle) -> usize {
        let len = self.active.len();
        if len == 0 {
            return 0;
        }
        // Rotate the starting warp each cycle for round-robin fairness. Warps
        // that retire or are demoted stay in the pool until the walk ends,
        // so they cannot shift it.
        let mut next = (cycle as usize) % len;
        let mut issued = 0;
        for _ in 0..len {
            if issued >= self.config.issue_width {
                break;
            }
            let warp_id = self.active[next];
            next = if next + 1 == len { 0 } else { next + 1 };
            let ready = match self.status[warp_id.index()] {
                WarpStatus::Ready => true,
                WarpStatus::StalledUntil(t) => t <= cycle,
                _ => false,
            };
            if ready && self.try_issue(warp_id, cycle) {
                issued += 1;
            }
        }
        if self.left_pool {
            self.left_pool = false;
            let status = &self.status;
            self.active.retain(|w| {
                matches!(
                    status[w.index()],
                    WarpStatus::Ready | WarpStatus::StalledUntil(_)
                )
            });
        }
        issued
    }

    fn refill_active_pool(&mut self, cycle: Cycle) -> bool {
        let before = self.active.len();
        while self.active.len() < self.config.active_warps {
            let Some(warp_id) = self.pick_activation_candidate(cycle) else {
                break;
            };
            let block = BlockId(self.block[warp_id.index()]);
            let ready = self.regfile.warp_activated(warp_id, block, cycle);
            self.status[warp_id.index()] = if ready > cycle {
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
        for &id in &self.active {
            match self.status[id.index()] {
                WarpStatus::StalledUntil(t) if t > cycle => next = next.min(t),
                // A ready active warp could not issue this cycle only due to
                // collectors or MSHRs; re-check next cycle.
                WarpStatus::Ready => next = next.min(cycle + 1),
                _ => {}
            }
        }
        if self.pending_cursor < self.status.len() {
            next = next.min(cycle + 1);
        }
        if let Some(t) = self.wakeups.next_wake_after(cycle) {
            next = next.min(t);
        }
        if let Some(t) = self.collectors.next_release(cycle) {
            next = next.min(t);
        }
        if next == Cycle::MAX {
            cycle + 1
        } else {
            next
        }
    }

    /// The precise rule for a horizon of `cycle + 1`. An SM that issued
    /// nothing left each active warp stalled or ready; a ready warp failed
    /// only for want of an operand collector or, when one was free, of an
    /// MSHR, so it cannot issue before the earliest collector release or
    /// MSHR release. Never-started warps wait for a pool slot, which only a
    /// step can free; the driver's refill admits them when one is free.
    fn wake_after(&mut self, cycle: Cycle, horizon: Cycle) -> Cycle {
        if horizon > cycle + 1 {
            return horizon;
        }
        let mut next = Cycle::MAX;
        let mut ready = false;
        for &id in &self.active {
            match self.status[id.index()] {
                WarpStatus::StalledUntil(t) if t > cycle => next = next.min(t),
                WarpStatus::Ready => ready = true,
                _ => {}
            }
        }
        if let Some(t) = self.wakeups.next_wake_after(cycle) {
            next = next.min(t);
        }
        if let Some(t) = self.collectors.next_release(cycle) {
            next = next.min(t);
        }
        if ready && self.collectors.free > 0 {
            if let Some(t) = self.memory.mshr_release() {
                next = next.min(t);
            }
        }
        if next == Cycle::MAX {
            horizon
        } else {
            next
        }
    }

    fn finalize(mut self, cycle: Cycle) -> SimStats {
        self.stats.cycles = cycle.max(1);
        self.stats.warps_completed = self.finished;
        self.stats.truncated = self.finished < self.status.len();
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
    use crate::config::SmConfig;
    use crate::engine::SimWorkload;
    use crate::regfile::DirectRegisterFile;
    use ltrf_isa::{KernelBuilder, LaunchConfig};

    fn mov_kernel(warps: u32) -> SimWorkload {
        let mut b = KernelBuilder::new("fast-unit", 16);
        let e = b.entry_block();
        for i in 0..6usize {
            b.push(e, Opcode::Mov, Some(ArchReg::new(i as u8)), &[]);
        }
        b.exit(e);
        b.launch(LaunchConfig::new(warps, 1, 0));
        SimWorkload::new(b.build().unwrap())
    }

    /// Mirror of the reference engine's pinning test: a demoted warp whose
    /// wakeup has passed (eligible but unadmitted) must not bound the
    /// skip-ahead jump.
    #[test]
    fn next_event_ignores_due_wakeups() {
        let workload = mov_kernel(2);
        let config = SmConfig {
            max_warps: 2,
            active_warps: 1,
            ..SmConfig::default()
        };
        let mut rf = DirectRegisterFile::new(config.regfile);
        let mut engine = FastEngine::lone(&workload, &config, &mut rf);
        engine.pending_cursor = 2; // both warps have been activated once
        engine.status[0] = WarpStatus::StalledUntil(100);
        engine.status[1] = WarpStatus::InactiveUntil(5);
        engine.active.push(WarpId(0));
        engine.wakeups.push(5, WarpId(1));
        assert_eq!(engine.next_event_after(10), 100);
        // The due warp is preserved and still activates when a slot opens.
        engine.active.clear();
        assert_eq!(engine.pick_activation_candidate(10), Some(WarpId(1)));
    }

    /// Never-started warps are a cursor into the warp array: activation
    /// consumes them in index order before any demoted warp.
    #[test]
    fn pending_cursor_activates_in_index_order_before_wakeups() {
        let workload = mov_kernel(3);
        let config = SmConfig {
            max_warps: 3,
            active_warps: 1,
            ..SmConfig::default()
        };
        let mut rf = DirectRegisterFile::new(config.regfile);
        let mut engine = FastEngine::lone(&workload, &config, &mut rf);
        // Warp 0 started and was demoted; warps 1 and 2 are still Pending.
        engine.pending_cursor = 1;
        engine.status[0] = WarpStatus::InactiveUntil(0);
        engine.wakeups.push(0, WarpId(0));
        assert_eq!(engine.pick_activation_candidate(10), Some(WarpId(1)));
        assert_eq!(engine.pick_activation_candidate(10), Some(WarpId(2)));
        assert_eq!(engine.pick_activation_candidate(10), Some(WarpId(0)));
        assert_eq!(engine.pick_activation_candidate(10), None);
    }

    /// The decoder flattens blocks and computes the scoreboard stride from
    /// the highest register index actually used.
    #[test]
    fn decoded_kernel_shape() {
        let workload = mov_kernel(1);
        let code = DecodedKernel::new(&workload.kernel);
        assert_eq!(code.nblocks, workload.kernel.cfg.block_count());
        assert_eq!(code.insts.len(), 6);
        assert_eq!(code.nregs, 6, "r0..r5 written");
        assert_eq!(code.entry, workload.kernel.cfg.entry().0);
        assert!(code.terminators[code.entry as usize].is_some());
        assert_eq!(std::mem::size_of::<DecodedInst>(), 16);
    }
}
