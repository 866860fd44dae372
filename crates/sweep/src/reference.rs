//! The session's memo of normalization references.
//!
//! Every normalized point divides by a BL run of
//! [`reference_config`](ltrf_core::reference_config) on the same workload,
//! memory behaviour and seed. Under a fixed seed that run is shared by every
//! organization and design point of a workload, so a
//! [`CampaignSession`](crate::CampaignSession) simulates it once and hands
//! the result to every point that asks, through a [`ReferenceMemo`].
//!
//! The memo is single-flight: the first point to ask for an identity runs
//! the reference, and points asking while it runs wait for its result
//! rather than simulating it again. It holds at most
//! [`REFERENCE_MEMO_CAPACITY`] finished references; a point whose
//! reference was evicted simulates it again, which yields the same bits,
//! so the bound never changes a result.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use serde::{Serialize, Value};

use ltrf_core::{ExperimentConfig, RunResult};
use ltrf_sim::MemoryBehavior;

use crate::executor::PointOutcome;
use crate::pool::panic_message;
use crate::spec::SweepPoint;

/// Finished references a session keeps. Points are workload-major, so a
/// reference is asked for by a run of consecutive points and seldom after;
/// the bound only has to outlast the points in flight across the workers.
pub(crate) const REFERENCE_MEMO_CAPACITY: usize = 64;

/// What a reference run produced: the shared run, or the failure every
/// dependent point reports (a [`PointOutcome::Error`] or
/// [`PointOutcome::Panicked`], boxed because the enum is large).
pub(crate) type ReferenceOutcome = Result<Arc<RunResult>, Box<PointOutcome>>;

/// The identity of a point's normalization reference: the workload (suite
/// name, generated identity or trace identity), the resolved memory
/// behaviour, the seed and the reference configuration. Two points with the
/// same identity divide by bit-identical runs.
pub(crate) fn reference_identity(
    point: &SweepPoint,
    memory: &MemoryBehavior,
    seed: u64,
    reference: &ExperimentConfig,
) -> String {
    let workload = match (&point.generated, &point.trace) {
        (Some(generated), _) => generated.to_value(),
        (None, Some(trace)) => trace.to_value(),
        (None, None) => Value::Str(point.workload.clone()),
    };
    Value::Array(vec![
        workload,
        memory.to_value(),
        Value::UInt(seed),
        reference.to_value(),
    ])
    .to_json()
}

#[derive(Debug)]
enum Slot {
    /// A worker is simulating the reference.
    Running,
    /// The reference finished.
    Done(ReferenceOutcome),
}

#[derive(Debug, Default)]
struct MemoState {
    slots: HashMap<String, Slot>,
    /// Finished identities, oldest first: the eviction order.
    finished: VecDeque<String>,
    /// Threads blocked on a reference another thread is simulating.
    waiting: usize,
}

/// A bounded, single-flight memo of reference runs, owned by one session.
#[derive(Debug, Default)]
pub(crate) struct ReferenceMemo {
    state: Mutex<MemoState>,
    published: Condvar,
    runs: AtomicUsize,
}

impl ReferenceMemo {
    /// Locks the state. No code panics while holding the lock, but a
    /// poisoned lock is still usable: the state is updated in whole steps.
    fn lock(&self) -> MutexGuard<'_, MemoState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The reference of `identity`: the memoized outcome, the outcome of a
    /// run another worker has in flight, or — when neither exists — the
    /// outcome of `run`, which is then published to every waiter. A panic
    /// in `run` becomes a [`PointOutcome::Panicked`] for this point and
    /// every point that shares the identity.
    pub(crate) fn get_or_run(
        &self,
        identity: &str,
        run: impl FnOnce() -> Result<RunResult, Box<PointOutcome>>,
    ) -> ReferenceOutcome {
        let mut state = self.lock();
        loop {
            match state.slots.get(identity) {
                Some(Slot::Done(outcome)) => return outcome.clone(),
                Some(Slot::Running) => {
                    state.waiting += 1;
                    state = self
                        .published
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    state.waiting -= 1;
                }
                None => break,
            }
        }
        state.slots.insert(identity.to_string(), Slot::Running);
        drop(state);

        self.runs.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|payload| Err(Box::new(PointOutcome::Panicked(panic_message(payload)))))
            .map(Arc::new);

        let mut state = self.lock();
        state
            .slots
            .insert(identity.to_string(), Slot::Done(outcome.clone()));
        state.finished.push_back(identity.to_string());
        while state.finished.len() > REFERENCE_MEMO_CAPACITY {
            if let Some(oldest) = state.finished.pop_front() {
                state.slots.remove(&oldest);
            }
        }
        drop(state);
        self.published.notify_all();
        outcome
    }

    /// How many reference runs the memo has started.
    pub(crate) fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }

    /// Memoizes `outcome` for `identity` as if a run had produced it.
    #[cfg(test)]
    pub(crate) fn insert(&self, identity: &str, outcome: ReferenceOutcome) {
        let mut state = self.lock();
        state
            .slots
            .insert(identity.to_string(), Slot::Done(outcome));
        state.finished.push_back(identity.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ltrf_core::{run_experiment, Organization};
    use ltrf_workloads::evaluated_suite;

    fn small_reference() -> RunResult {
        let workload = evaluated_suite().remove(0);
        run_experiment(
            &workload.kernel,
            MemoryBehavior::cache_resident(),
            1,
            &ExperimentConfig::new(Organization::Baseline),
        )
        .unwrap()
    }

    /// Blocks the thread running a reference until `waiters` other threads
    /// wait for it, so the tests exercise the wait, not a memo hit.
    fn await_waiters(memo: &ReferenceMemo, waiters: usize) {
        while memo.lock().waiting < waiters {
            std::thread::yield_now();
        }
    }

    #[test]
    fn many_threads_asking_for_one_identity_run_one_simulation() {
        let memo = ReferenceMemo::default();
        let expected = small_reference();
        let simulations = AtomicUsize::new(0);
        let outcomes: Vec<ReferenceOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        memo.get_or_run("one", || {
                            simulations.fetch_add(1, Ordering::SeqCst);
                            await_waiters(&memo, 7);
                            Ok(small_reference())
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(simulations.load(Ordering::SeqCst), 1);
        assert_eq!(memo.runs(), 1);
        for outcome in outcomes {
            assert_eq!(*outcome.unwrap(), expected);
        }
    }

    #[test]
    fn a_panicking_reference_fails_every_waiter_without_poisoning() {
        let memo = ReferenceMemo::default();
        let outcomes: Vec<ReferenceOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        memo.get_or_run("bad", || {
                            await_waiters(&memo, 3);
                            panic!("reference exploded")
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(memo.runs(), 1);
        for outcome in outcomes {
            assert_eq!(
                *outcome.unwrap_err(),
                PointOutcome::Panicked("reference exploded".to_string())
            );
        }
        assert!(!memo.state.is_poisoned());
        // The memo stays usable for other identities.
        let fine = memo.get_or_run("good", || Ok(small_reference()));
        assert!(fine.is_ok());
    }

    #[test]
    fn the_memo_is_bounded_and_an_evicted_reference_reruns() {
        let memo = ReferenceMemo::default();
        let reference = small_reference();
        for i in 0..REFERENCE_MEMO_CAPACITY + 3 {
            let _ = memo.get_or_run(&i.to_string(), || Ok(reference.clone()));
        }
        assert_eq!(memo.lock().slots.len(), REFERENCE_MEMO_CAPACITY);
        let runs = memo.runs();
        // The newest identity hits; the oldest was evicted and runs again.
        let newest = (REFERENCE_MEMO_CAPACITY + 2).to_string();
        let _ = memo.get_or_run(&newest, || unreachable!("a memoized reference"));
        let again = memo.get_or_run("0", || Ok(reference.clone()));
        assert_eq!(*again.unwrap(), reference);
        assert_eq!(memo.runs(), runs + 1);
    }
}
