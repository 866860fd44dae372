//! The engine-agnostic simulation driver.
//!
//! Both engines — the reference tick loop ([`crate::engine::Engine`]) and
//! the allocation-free fast path ([`crate::fast::FastEngine`]) — expose the
//! same stepping primitives through [`SmEngine`], and one lock-step
//! schedule, [`run_lockstep`], drives them at every SM count: a lone SM with
//! a private memory hierarchy ([`crate::simulate_with`]) is its one-engine
//! case, and a whole GPU ([`crate::gpu`]) its N-engine case. The only thing
//! the two cases choose differently is when the run ends, a named
//! [`KernelEnd`] rule.
//!
//! This is what makes the differential guarantee auditable: the *schedule*
//! (which cycles are visited, in which order SMs issue, when pools refill)
//! is shared code, so the fast engine can only diverge from the reference
//! through its own stepping primitives — exactly the surface the
//! differential test suite pins.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ltrf_isa::Kernel;

use crate::config::SmConfig;
use crate::engine::SimWorkload;
use crate::memory::{AddressGenerator, MemoryHierarchy};
use crate::regfile::RegisterFileModel;
use crate::stats::SimStats;
use crate::types::Cycle;

/// The stepping primitives one SM engine exposes to the drivers.
///
/// `next_event_after` takes `&mut self` because the fast engine retires due
/// wakeup-queue entries into its eligible heap while computing the horizon;
/// the reference engine's implementation is read-only.
pub(crate) trait SmEngine<'a>: Sized {
    /// Assembles an engine from externally constructed parts: the memory
    /// hierarchy (private or a shared port), the address generator (whole
    /// footprint or an SM's shard), and one deterministic seed per resident
    /// warp.
    fn with_parts(
        kernel: &'a Kernel,
        config: &'a SmConfig,
        regfile: &'a mut dyn RegisterFileModel,
        memory: MemoryHierarchy,
        addresses: AddressGenerator,
        warp_seeds: &[u64],
    ) -> Self;

    /// Assembles the engine of a lone SM: a private memory hierarchy, the
    /// whole footprint's address stream, and as many resident warps as the
    /// register file and the launch allow (warp-granular residency).
    fn lone(
        workload: &'a SimWorkload,
        config: &'a SmConfig,
        regfile: &'a mut dyn RegisterFileModel,
    ) -> Self {
        let kernel = &workload.kernel;
        let launch_warps = kernel.launch().total_warps().min(usize::MAX as u64) as usize;
        let resident = config
            .resident_warps(kernel.regs_per_thread())
            .min(launch_warps.max(1));
        Self::with_parts(
            kernel,
            config,
            regfile,
            MemoryHierarchy::new(&config.memory),
            AddressGenerator::new(workload.memory, resident, workload.seed),
            &warp_seeds(workload.seed, 0, resident),
        )
    }

    /// Whether every resident warp has retired.
    fn is_done(&self) -> bool;

    /// Records `cycles` cycles in which this SM issued nothing.
    fn note_idle(&mut self, cycles: u64);

    /// Issues up to `issue_width` instructions from the active pool at
    /// `cycle`. Returns the number of instructions issued.
    fn issue_cycle(&mut self, cycle: Cycle) -> usize;

    /// Promotes eligible warps into the active pool until it is full.
    /// Returns whether any warp was admitted.
    fn refill_active_pool(&mut self, cycle: Cycle) -> bool;

    /// Earliest cycle after `cycle` at which anything can change, used to
    /// fast-forward through idle periods. Warps that are due but unadmitted
    /// (the active pool is full) do not bound it, and a ready warp that
    /// could not issue bounds it at `cycle + 1`.
    fn next_event_after(&mut self, cycle: Cycle) -> Cycle;

    /// The lock-step driver's wake query: the SM issued nothing at `cycle`,
    /// the refill that followed admitted no warp, and `horizon` is
    /// `next_event_after(cycle)`. Returns a cycle no later than the first at
    /// which stepping the SM could issue or change any state; the driver
    /// does not step it before then.
    ///
    /// The horizon is always a correct answer and is the default. An
    /// override may answer later only where the horizon is `cycle + 1` (a
    /// ready warp that could not issue, or never-started warps behind a
    /// full pool); wherever the horizon is later, the two must agree,
    /// because the driver then stands the wake in for the horizon while
    /// the SM sleeps.
    fn wake_after(&mut self, _cycle: Cycle, horizon: Cycle) -> Cycle {
        horizon
    }

    /// Closes the books at `cycle` and returns the SM's statistics.
    fn finalize(self, cycle: Cycle) -> SimStats;
}

/// The branch seeds of `count` warps whose first has the global warp index
/// `first`: a warp's seed depends on its index in the whole launch, never on
/// the SM it runs on.
pub(crate) fn warp_seeds(seed: u64, first: usize, count: usize) -> Vec<u64> {
    (first as u64..(first + count) as u64)
        .map(|i| seed ^ (0x9E37 + i * 0x85EB_CA6B))
        .collect()
}

/// When a run ends once the last warp of its last SM has retired, at the
/// cycle `retired` it retired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KernelEnd {
    /// At that SM's `next_event_after(retired)`: operand collectors still
    /// busy with the retired warps' last instructions drain first. The rule
    /// of a lone SM with a private memory hierarchy.
    Drain,
    /// At `retired + 1`. The rule of SMs that share memory.
    NextCycle,
}

/// Drives one or more engines in lock-step over one shared clock. Returns the
/// per-SM statistics (in SM order) and the final cycle.
///
/// The schedule is the plain lock-step one: at every visited cycle each
/// unfinished SM issues, in SM-index order, and refills its active pool on
/// reaching the next visited cycle; that cycle is `cycle + 1` if any SM
/// issued and otherwise the earliest `next_event_after` of any unfinished
/// SM. Every SM that issues nothing is charged an idle cycle.
///
/// The driver runs that schedule event-driven per SM. An SM that issued
/// nothing and admitted no warp sleeps until its [`SmEngine::wake_after`]
/// cycle: before then, stepping it would provably issue nothing and change
/// nothing, and refilling it would admit nothing. While asleep it is
/// charged one idle cycle per visited cycle in bulk, on waking or when the
/// run ends. Its share of the clock is its wake cycle, or `cycle + 1` at
/// every visited cycle if its horizon was `cycle + 1` when it fell asleep
/// (it still holds a ready warp, or never-started warps) — exactly the
/// horizon it would report if it were polled. So the visited cycles, the
/// issue order and every statistic are those of the plain schedule, and
/// the work per visited cycle is proportional to the SMs stepped. Once one
/// SM is left and awake — a lone SM from the start, the last SM of a GPU at
/// the end — the clock follows it alone ([`run_alone`]).
///
/// The run ends once every SM has retired its last warp, at the cycle
/// `end` names, or at the first visited cycle at or past `max_cycles`.
pub(crate) fn run_lockstep<'a, E: SmEngine<'a>>(
    mut engines: Vec<E>,
    max_cycles: Cycle,
    end: KernelEnd,
) -> (Vec<SimStats>, Cycle) {
    let n = engines.len();
    let mut cycle: Cycle = 0;
    // SMs to refill and step at `cycle`, in SM-index order, each with the
    // `(horizon, wake)` of its last step if that issued nothing, else zeros.
    let mut due: Vec<(usize, Cycle, Cycle)> = (0..n)
        .filter(|&sm| !engines[sm].is_done())
        .map(|sm| (sm, 0, 0))
        .collect();
    let mut live = due.len();
    // Visited cycles so far.
    let mut visits: u64 = 0;
    // Sleepers by wake cycle, each with the visit count at which it fell
    // asleep (it owes one idle cycle per visit since) and whether it ticks:
    // its horizon was `cycle + 1`, which then holds at every visited cycle.
    let mut sleepers: BinaryHeap<Reverse<(Cycle, usize, u64, bool)>> = BinaryHeap::new();
    let mut ticking_sleepers = 0usize;
    loop {
        let awake = due.len();
        while let Some(&Reverse((wake, sm, slept_at, ticking))) = sleepers.peek() {
            if wake > cycle {
                break;
            }
            sleepers.pop();
            ticking_sleepers -= usize::from(ticking);
            engines[sm].note_idle(visits - slept_at);
            due.push((sm, 0, 0));
        }
        if due.len() > awake {
            due.sort_unstable_by_key(|&(sm, ..)| sm);
        }
        if live == 0 || cycle >= max_cycles {
            // Every cycle the clock reaches refills the unfinished SMs, the
            // one a truncated run stops at too.
            for &(sm, ..) in &due {
                engines[sm].refill_active_pool(cycle);
            }
            break;
        }
        if let [(sm, ..)] = due[..] {
            if live == 1 {
                cycle = run_alone(&mut engines[sm], cycle, max_cycles, end);
                break;
            }
        }
        let visited = cycle;
        let mut any_issued = false;
        let mut horizon = Cycle::MAX;
        let mut kept = 0;
        for i in 0..due.len() {
            let (sm, next, wake) = due[i];
            let engine = &mut engines[sm];
            let admitted = engine.refill_active_pool(visited);
            if wake > visited && !admitted {
                let ticking = wake > next;
                ticking_sleepers += usize::from(ticking);
                sleepers.push(Reverse((wake, sm, visits, ticking)));
                continue;
            }
            let idle = engine.issue_cycle(visited) == 0;
            if idle {
                engine.note_idle(1);
            } else {
                any_issued = true;
            }
            if engine.is_done() {
                live -= 1;
                if live == 0 && end == KernelEnd::Drain {
                    horizon = horizon.min(engine.next_event_after(visited));
                }
                continue;
            }
            let (next, wake) = if idle {
                let next = engine.next_event_after(visited);
                horizon = horizon.min(next);
                let wake = engine.wake_after(visited, next);
                debug_assert!(wake == next || next == visited + 1);
                (next, wake)
            } else {
                (0, 0)
            };
            due[kept] = (sm, next, wake);
            kept += 1;
        }
        due.truncate(kept);
        visits += 1;
        cycle = if any_issued {
            visited + 1
        } else {
            if ticking_sleepers > 0 {
                horizon = horizon.min(visited + 1);
            }
            if let Some(&Reverse((wake, ..))) = sleepers.peek() {
                horizon = horizon.min(wake);
            }
            if horizon == Cycle::MAX {
                visited + 1
            } else {
                horizon.max(visited + 1)
            }
        };
    }
    for Reverse((_, sm, slept_at, _)) in sleepers {
        engines[sm].note_idle(visits - slept_at);
    }
    let per_sm = engines
        .into_iter()
        .map(|engine| engine.finalize(cycle))
        .collect();
    (per_sm, cycle)
}

/// The schedule of [`run_lockstep`] once one SM is left and awake: with no
/// other SM to interleave, or to save steps of by sleeping, the clock
/// follows that SM alone and never puts it to sleep, which would cost more
/// wake queries than it saves issue attempts. Refills and steps the SM from
/// `cycle` until it finishes or the clock reaches `max_cycles`, and returns
/// the final cycle.
fn run_alone<'a, E: SmEngine<'a>>(
    engine: &mut E,
    mut cycle: Cycle,
    max_cycles: Cycle,
    end: KernelEnd,
) -> Cycle {
    loop {
        engine.refill_active_pool(cycle);
        if cycle >= max_cycles {
            return cycle;
        }
        let visited = cycle;
        if engine.issue_cycle(visited) > 0 {
            cycle = visited + 1;
        } else {
            engine.note_idle(1);
            cycle = if engine.is_done() && end == KernelEnd::NextCycle {
                visited + 1
            } else {
                engine.next_event_after(visited).max(visited + 1)
            };
        }
        if engine.is_done() {
            return cycle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineKind};
    use crate::fast::FastEngine;
    use crate::regfile::DirectRegisterFile;
    use ltrf_isa::straight_line_kernel;

    fn lone_run<'a, E: SmEngine<'a>>(
        workload: &'a SimWorkload,
        config: &'a SmConfig,
        regfile: &'a mut DirectRegisterFile,
        end: KernelEnd,
    ) -> SimStats {
        let engine = E::lone(workload, config, regfile);
        let (mut per_sm, cycle) = run_lockstep(vec![engine], config.max_cycles, end);
        let stats = per_sm.pop().expect("one SM");
        assert_eq!(stats.cycles, cycle);
        stats
    }

    /// The end rule moves the final cycle and nothing else. A warp retires
    /// on the step after its last instruction issued, so the last retire
    /// falls in a cycle in which nothing issues. On a slow main register
    /// file the operand collectors are then still gathering the last
    /// instructions' operands, so draining to the next event ends later.
    #[test]
    fn kernel_end_rules_differ_only_in_the_final_cycle() {
        let workload = SimWorkload::new(straight_line_kernel("end-rule", 16, 40));
        let config = SmConfig {
            max_warps: 4,
            active_warps: 4,
            ..SmConfig::default()
        }
        .with_mrf_latency_factor(6.3);
        let run = |kind, end| {
            let mut regfile = DirectRegisterFile::new(config.regfile);
            match kind {
                EngineKind::Fast => lone_run::<FastEngine>(&workload, &config, &mut regfile, end),
                EngineKind::Reference => lone_run::<Engine>(&workload, &config, &mut regfile, end),
            }
        };
        for kind in [EngineKind::Fast, EngineKind::Reference] {
            let drain = run(kind, KernelEnd::Drain);
            let next_cycle = run(kind, KernelEnd::NextCycle);
            assert!(!drain.truncated && drain.warps_completed == 4);
            assert!(
                drain.cycles > next_cycle.cycles,
                "{kind:?}: busy collectors must drain ({} vs {})",
                drain.cycles,
                next_cycle.cycles
            );
            let mut aligned = drain;
            aligned.cycles = next_cycle.cycles;
            aligned.regfile_accesses.cycles = next_cycle.regfile_accesses.cycles;
            assert_eq!(aligned, next_cycle, "{kind:?}: only the final cycle moves");
        }
    }
}
