//! The engine-agnostic simulation drivers.
//!
//! Both engines — the reference tick loop ([`crate::engine::Engine`]) and
//! the allocation-free fast path ([`crate::fast::FastEngine`]) — expose the
//! same stepping primitives through [`SmEngine`], and both the single-SM and
//! the multi-SM lock-step schedules are written once against that trait.
//! This is what makes the differential guarantee auditable: the *schedule*
//! (which cycles are visited, in which order SMs issue, when pools refill)
//! is shared code, so the fast engine can only diverge from the reference
//! through its own stepping primitives — exactly the surface the
//! differential test suite pins.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ltrf_isa::Kernel;

use crate::config::SmConfig;
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

/// Drives one engine to completion with idle-period fast-forwarding.
pub(crate) fn run_single<'a, E: SmEngine<'a>>(mut engine: E, max_cycles: Cycle) -> SimStats {
    let mut cycle: Cycle = 0;
    engine.refill_active_pool(cycle);
    while !engine.is_done() && cycle < max_cycles {
        let issued = engine.issue_cycle(cycle);
        if issued == 0 {
            engine.note_idle(1);
            let next = engine.next_event_after(cycle);
            cycle = next.max(cycle + 1);
        } else {
            cycle += 1;
        }
        engine.refill_active_pool(cycle);
    }
    engine.finalize(cycle)
}

/// Drives several engines in lock-step over one shared clock. Returns the
/// per-SM statistics (in SM order) and the final cycle.
///
/// The schedule is the plain lock-step one: at every visited cycle each
/// unfinished SM issues, in SM-index order, and then refills its active
/// pool at the next visited cycle; that cycle is `cycle + 1` if any SM
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
/// the work per visited cycle is proportional to the SMs stepped.
pub(crate) fn run_lockstep<'a, E: SmEngine<'a>>(
    mut engines: Vec<E>,
    max_cycles: Cycle,
) -> (Vec<SimStats>, Cycle) {
    let n = engines.len();
    let mut cycle: Cycle = 0;
    // SMs to step at `cycle`, in SM-index order.
    let mut due: Vec<usize> = Vec::with_capacity(n);
    let mut live = 0usize;
    for (sm, engine) in engines.iter_mut().enumerate() {
        engine.refill_active_pool(cycle);
        if !engine.is_done() {
            due.push(sm);
            live += 1;
        }
    }
    let mut next_due: Vec<usize> = Vec::with_capacity(n);
    // Each unfinished SM stepped this cycle, with `(horizon, wake)` if it
    // issued nothing.
    let mut stepped: Vec<(usize, Option<(Cycle, Cycle)>)> = Vec::with_capacity(n);
    let mut sleepers: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::with_capacity(n);
    // Sleepers whose horizon is `cycle + 1` at every visited cycle.
    let mut ticking = vec![false; n];
    let mut ticking_sleepers = 0usize;
    // Visited cycles so far, and how many of them each SM has been charged
    // for (stepped or idle).
    let mut visits: u64 = 0;
    let mut charged = vec![0u64; n];
    while live > 0 && cycle < max_cycles {
        let visited = cycle;
        let mut any_issued = false;
        let mut horizon = Cycle::MAX;
        stepped.clear();
        for &sm in &due {
            let engine = &mut engines[sm];
            engine.note_idle(visits - charged[sm]);
            charged[sm] = visits + 1;
            let idle = engine.issue_cycle(visited) == 0;
            if idle {
                engine.note_idle(1);
            } else {
                any_issued = true;
            }
            if engine.is_done() {
                live -= 1;
                continue;
            }
            let sleep = idle.then(|| {
                let next = engine.next_event_after(visited);
                horizon = horizon.min(next);
                (next, engine.wake_after(visited, next))
            });
            stepped.push((sm, sleep));
        }
        visits += 1;
        cycle = if any_issued {
            visited + 1
        } else {
            if ticking_sleepers > 0 {
                horizon = horizon.min(visited + 1);
            }
            if let Some(&Reverse((wake, _))) = sleepers.peek() {
                horizon = horizon.min(wake);
            }
            if horizon == Cycle::MAX {
                visited + 1
            } else {
                horizon.max(visited + 1)
            }
        };
        next_due.clear();
        for &(sm, sleep) in &stepped {
            let admitted = engines[sm].refill_active_pool(cycle);
            match sleep {
                Some((next, wake)) if !admitted && wake > cycle => {
                    debug_assert!(wake == next || next == visited + 1);
                    if wake > next {
                        ticking[sm] = true;
                        ticking_sleepers += 1;
                    }
                    sleepers.push(Reverse((wake, sm)));
                }
                _ => next_due.push(sm),
            }
        }
        while let Some(&Reverse((wake, sm))) = sleepers.peek() {
            if wake > cycle {
                break;
            }
            sleepers.pop();
            if std::mem::take(&mut ticking[sm]) {
                ticking_sleepers -= 1;
            }
            engines[sm].refill_active_pool(cycle);
            next_due.push(sm);
        }
        next_due.sort_unstable();
        std::mem::swap(&mut due, &mut next_due);
    }
    let per_sm = engines
        .into_iter()
        .zip(charged)
        .map(|(mut engine, charged)| {
            if !engine.is_done() {
                engine.note_idle(visits - charged);
            }
            engine.finalize(cycle)
        })
        .collect();
    (per_sm, cycle)
}
