//! The parallel execution primitive under the sweep engine.
//!
//! The environment has no `rayon`, so this module provides the one shape the
//! workspace needs: an order-preserving parallel map over a slice with
//! per-item panic isolation. Scoped worker threads claim indices from a
//! shared atomic counter (work-stealing by competition, which balances
//! uneven per-point costs such as "Ideal simulates 3× faster than SHRF"),
//! and every closure invocation runs under `catch_unwind` so one diverging
//! point produces an error record instead of tearing down the campaign.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads used when the caller does not pin one.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Renders a panic payload into a human-readable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Applies `f` to every item in parallel, preserving input order.
///
/// `threads = None` uses all available cores (capped at the item count).
/// A panicking invocation yields `Err(panic message)` for that item only;
/// the other items still run.
pub fn parallel_map<T, R, F>(items: &[T], threads: Option<usize>, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let units: Vec<Range<usize>> = (0..items.len()).map(|i| i..i + 1).collect();
    parallel_map_units(items, &units, threads, f)
}

/// [`parallel_map`] over units of consecutive items, claimed in the order
/// given: `units` partitions the item indices, a worker claims the next
/// unit of the list and maps its items in order, and every result still
/// lands at its item's index. Each item is still panic-isolated on its own.
pub(crate) fn parallel_map_units<T, R, F>(
    items: &[T],
    units: &[Range<usize>],
    threads: Option<usize>,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads
        .unwrap_or_else(default_threads)
        .clamp(1, units.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                    for i in unit.clone() {
                        let outcome = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                            .map_err(panic_message);
                        *slots[i].lock().expect("result slot lock") = Some(outcome);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, None, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        let values: Vec<u64> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn isolates_panics() {
        let items: Vec<u32> = (0..20).collect();
        let out = parallel_map(&items, Some(4), |_, &x| {
            assert!(x != 7 && x != 13, "poison point {x}");
            x + 1
        });
        for (i, result) in out.iter().enumerate() {
            if i == 7 || i == 13 {
                assert!(result.as_ref().is_err_and(|e| e.contains("poison point")));
            } else {
                assert_eq!(*result.as_ref().unwrap(), i as u32 + 1);
            }
        }
    }

    #[test]
    fn units_keep_order_and_isolate_panics() {
        let items: Vec<u32> = (0..10).collect();
        let out = parallel_map_units(&items, &[0..3, 3..4, 4..9, 9..10], Some(3), |i, &x| {
            assert!(x != 5, "poison point {x}");
            (i, std::thread::current().id())
        });
        assert!(out[5].as_ref().is_err_and(|e| e.contains("poison point")));
        for (i, result) in out.iter().enumerate() {
            if i != 5 {
                assert_eq!(result.as_ref().unwrap().0, i);
            }
        }
        // A unit runs on one worker.
        let thread = |i: usize| out[i].as_ref().unwrap().1;
        assert_eq!(thread(0), thread(2));
        assert_eq!(thread(4), thread(8));
    }

    /// One worker runs the units in the order given, and every result
    /// still lands at its item's index.
    #[test]
    fn one_worker_claims_units_in_the_given_order() {
        let items: Vec<u32> = (0..6).collect();
        let claimed = Mutex::new(Vec::new());
        let out = parallel_map_units(&items, &[4..6, 0..1, 2..4, 1..2], Some(1), |i, &x| {
            claimed.lock().unwrap().push(i);
            x * 10
        });
        assert_eq!(claimed.into_inner().unwrap(), vec![4, 5, 0, 2, 3, 1]);
        let values: Vec<u32> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, None, |_, &x| x).is_empty());
        let one = [41u8];
        assert_eq!(parallel_map(&one, Some(16), |_, &x| x + 1)[0], Ok(42));
    }
}
