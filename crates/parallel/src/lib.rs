//! # parallel
//!
//! The persistent work-sharing runtime behind every parallel hot path in
//! the reproduction: per-entity KG extraction, MCIMR candidate scoring,
//! `explain_many` batch fan-out, and the selection-bias analysis.
//!
//! [`parallel_map`] assembles results in input order, propagates panics and
//! runs small inputs serially, on a lazily-built process-wide pool rather
//! than fresh OS threads per call (see [`pool`] module docs for the
//! runtime design: lock-free batch claiming with adaptive grain, parked
//! workers, and composable nested fan-outs that never spawn or deadlock).
//!
//! ## Thread-count governance
//!
//! The pool size is resolved **once per process**, in precedence order:
//!
//! 1. the `MESA_THREADS` environment variable (a positive integer;
//!    malformed values are ignored with a one-time stderr warning rather
//!    than failing the process);
//! 2. a [`set_threads`] call made before the first fan-out;
//! 3. `std::thread::available_parallelism()`.
//!
//! [`with_thread_cap`] scopes a *cap* below the pool size (inherited by
//! nested fan-outs), which is how benchmarks sweep 1/2/4/8 threads and the
//! determinism suite forces thread counts inside a single process. Outputs
//! are byte-identical at every thread count by construction: each item owns
//! an input-order result slot and every reduction runs on the calling
//! thread in input order.
//!
//! ## Deadlines and fault injection
//!
//! [`with_deadline`] installs a cooperative [`Deadline`] that fan-outs
//! propagate to pool workers; expiry unwinds at the next batch-claim
//! boundary or explicit [`checkpoint`] with the [`Cancelled`] sentinel
//! payload (see [`deadline`] module docs). Under the `fault-injection`
//! cargo feature the `faults` registry arms named injection points
//! (declared with [`fault_point!`]) to panic, inject latency, or simulate
//! allocation failure deterministically on the Nth hit.

#![deny(missing_docs)]

pub mod deadline;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod pool;

pub use deadline::{checkpoint, current_deadline, with_deadline, Cancelled, Deadline};
pub use pool::{effective_threads, set_threads, with_thread_cap};

/// Declares a named fault-injection point. Expands to a
/// `faults::hit` call when the *calling* crate enables its
/// `fault-injection` feature (each workspace crate forwards the feature to
/// this one) and to nothing at all otherwise — production builds carry
/// zero overhead.
#[macro_export]
macro_rules! fault_point {
    ($point:expr) => {
        #[cfg(feature = "fault-injection")]
        $crate::faults::hit($point);
    };
}

/// Minimum number of items before the pool is engaged; below this the
/// submission cost outweighs the work for typical (cheap) items.
const MIN_ITEMS_PER_FAN_OUT: usize = 8;

/// Tuning knobs for one fan-out call. The default reproduces
/// [`parallel_map`]'s behaviour; call sites whose items are individually
/// expensive (whole explanation pipelines, not per-candidate scores) use
/// [`FanOut::heavy`] so even a 2-item batch parallelises at grain 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanOut {
    /// Inputs shorter than this run serially on the calling thread.
    pub min_items: usize,
    /// Items claimed per scheduling step; `None` picks an adaptive grain
    /// (about 8 claims per participating thread).
    pub grain: Option<usize>,
}

impl Default for FanOut {
    fn default() -> Self {
        FanOut {
            min_items: MIN_ITEMS_PER_FAN_OUT,
            grain: None,
        }
    }
}

impl FanOut {
    /// Settings for fan-outs over individually expensive items: any batch
    /// of ≥ 2 parallelises and every item is its own scheduling unit.
    pub fn heavy() -> Self {
        FanOut {
            min_items: 2,
            grain: Some(1),
        }
    }
}

/// Applies `f` to every item (with its index), preserving input order in
/// the returned vector. Runs on the persistent pool at up to
/// [`effective_threads`] concurrency; small inputs (and `cap = 1`) run
/// serially on the calling thread. Safe to call from inside a pool task:
/// nested fan-outs share the pool instead of spawning threads.
///
/// # Panics
/// Propagates the first panic raised by `f` (after all in-flight items
/// have drained).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, FanOut::default(), f)
}

/// [`parallel_map`] with explicit [`FanOut`] tuning.
pub fn parallel_map_with<T, R, F>(items: &[T], fan_out: FanOut, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if effective_threads() <= 1 || items.len() < fan_out.min_items.max(2) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    pool::run_pooled(items, fan_out.grain, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    /// Every pool-path test goes through this so the process resolves a
    /// deterministic multi-thread pool even on a single-core host
    /// (`MESA_THREADS`, when set, still wins).
    fn pool4() -> usize {
        set_threads(4)
    }

    #[test]
    fn preserves_order_and_indices() {
        pool4();
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn small_and_empty_inputs() {
        pool4();
        let out = parallel_map(&[1, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(&empty, |_, &x: &i32| x).is_empty());
    }

    #[test]
    fn results_carry_errors_per_item() {
        pool4();
        let items: Vec<i32> = (0..40).collect();
        let out: Vec<Result<i32, String>> = parallel_map(&items, |_, &x| {
            if x % 7 == 0 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 6);
        assert_eq!(out[1], Ok(1));
    }

    #[test]
    fn thread_cap_one_is_fully_serial() {
        pool4();
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let ids = with_thread_cap(1, || {
            parallel_map(&items, |_, _| std::thread::current().id())
        });
        assert!(ids.iter().all(|&id| id == caller));
        assert_eq!(effective_threads(), pool4(), "cap restored after scope");
    }

    #[test]
    fn heavy_fan_out_parallelises_two_items() {
        pool4();
        // Contract check only (scheduling may still run both on one thread
        // on a busy host): a 2-item heavy fan-out takes the pool path and
        // returns in order.
        let out = parallel_map_with(&[10, 20], FanOut::heavy(), |i, &x| (i, x * 2));
        assert_eq!(out, vec![(0, 20), (1, 40)]);
        // Below min_items it stays serial even for heavy settings.
        let caller = std::thread::current().id();
        let one = parallel_map_with(&[7], FanOut::heavy(), |_, _| std::thread::current().id());
        assert_eq!(one, vec![caller]);
    }

    #[test]
    fn panic_payload_is_resumed_once_after_drain() {
        pool4();
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&items, |_, &x| {
                if x == 13 {
                    panic!("boom {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic! with format produces a String payload");
        assert_eq!(msg, "boom 13");
        // The pool survives a panicked job.
        let ok = parallel_map(&items, |_, &x| x + 1);
        assert_eq!(ok[63], 64);
    }

    #[test]
    fn expired_deadline_cancels_fan_out_and_pool_survives() {
        pool4();
        let items: Vec<usize> = (0..256).collect();
        let d = Deadline::after(std::time::Duration::ZERO);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_deadline(&d, || parallel_map(&items, |_, &x| x * 2))
        }));
        let payload = result.expect_err("expired deadline must unwind the fan-out");
        assert!(payload.downcast_ref::<Cancelled>().is_some());
        // The pool and the calling thread are both reusable afterwards.
        assert!(current_deadline().is_none(), "deadline scope restored");
        let ok = parallel_map(&items, |_, &x| x + 1);
        assert_eq!(ok[255], 256);
    }

    #[test]
    fn workers_observe_the_submitters_deadline() {
        pool4();
        let items: Vec<usize> = (0..64).collect();
        let d = Deadline::after(std::time::Duration::from_secs(60));
        let seen = with_deadline(&d, || {
            parallel_map(&items, |_, _| current_deadline().is_some())
        });
        assert!(
            seen.iter().all(|&s| s),
            "every item ran with the deadline installed"
        );
    }

    #[test]
    fn checkpoint_inside_items_cancels_mid_batch() {
        pool4();
        let items: Vec<usize> = (0..64).collect();
        let d = Deadline::after(std::time::Duration::from_secs(60));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_deadline(&d, || {
                parallel_map(&items, |_, &x| {
                    if x == 7 {
                        d.cancel();
                    }
                    checkpoint();
                    x
                })
            })
        }));
        let payload = result.expect_err("cancel + checkpoint must unwind");
        assert!(payload.downcast_ref::<Cancelled>().is_some());
        let ok = parallel_map(&items, |_, &x| x);
        assert_eq!(ok.len(), 64);
    }
}
