//! # hp-par — hermetic scoped-thread parallelism
//!
//! A dependency-free stand-in for the slice of `rayon` the HyperPlane
//! workspace needs: fan a vector of independent jobs across a bounded set
//! of worker threads and collect the results **in input order** ([`par_map`]),
//! or run two independent halves of one job side by side ([`join`]). Like
//! `hp-rand` and `hp-bytes`, it exists because the workspace must build in
//! hermetic offline environments — so the executor is ~100 lines of
//! `std::thread::scope`, not an external crate.
//!
//! ## Determinism contract
//!
//! [`par_map`] guarantees that the returned vector is ordered by input
//! index regardless of worker count or OS scheduling, and that each job
//! runs exactly once. Jobs must be independent (they only share `&F`); for
//! pure jobs — such as `Engine::run`, which is a deterministic function of
//! its `ExperimentConfig` — the output is therefore *bit-identical* for
//! any `threads` value, including 1. The unit test
//! `results_are_in_input_order_for_any_thread_count` pins the ordering;
//! CI's Determinism sweep pins the printed figure tables byte for byte.
//!
//! Worker panics propagate to the caller (via `std::thread::scope`), so a
//! failed job cannot be silently dropped from the results.
//!
//! ## Example
//!
//! ```
//! let squares = hp_par::par_map(4, (0u64..100).collect(), |x| x * x);
//! assert_eq!(squares[7], 49); // input order, any thread count
//! assert_eq!(squares, hp_par::par_map(1, (0u64..100).collect(), |x| x * x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available to this process (1 if unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every element of `items` using up to `threads` scoped
/// worker threads and returns the results **in input order**.
///
/// `threads` is clamped to `[1, items.len()]`; with one worker (or one
/// item) the map degenerates to a plain serial loop with no threads
/// spawned, so `--threads 1` reproduces serial behaviour exactly. Workers
/// pull jobs from a shared queue, so uneven job costs balance
/// automatically.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (after all workers have been
/// joined by the scope).
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let jobs: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // A poisoned lock means a sibling worker panicked while
                // holding it; the panic is already propagating through the
                // scope, so just take the inner value and wind down.
                let job = jobs.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                let Some((idx, item)) = job else { break };
                let out = f(item);
                results.lock().unwrap_or_else(|e| e.into_inner())[idx] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .map(|r| r.expect("every job ran exactly once"))
        .collect()
}

/// Runs `a` and `b` and returns both results, `a`'s first.
///
/// With `parallel`, `a` runs on one scoped helper thread while `b` runs on
/// the calling thread; otherwise both run inline on the caller, `a` then
/// `b`, spawning nothing (as [`par_map`] does with one worker). The two
/// closures must not share mutable state, so the results are the same
/// either way. Allocate what `a` needs before the call, so the helper
/// thread's allocator arena stays nearly untouched.
///
/// # Panics
///
/// Propagates a panic raised by either closure, after both have ended.
pub fn join<A, B, RA, RB>(parallel: bool, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    RA: Send,
    B: FnOnce() -> RB,
{
    if !parallel {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let helper = scope.spawn(a);
        let rb = b();
        let ra = helper
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        (ra, rb)
    })
}

/// A reusable barrier for lockstep window loops: a sense-reversing atomic
/// barrier with bounded spin-then-yield waiting, exposing the leader bit
/// as a plain `bool`.
///
/// The parallel engine's workers rendezvous twice per synchronization
/// window: once after pumping their lanes (the leader then folds lane
/// reports into a run-control decision) and once more so every worker sees
/// that decision before starting the next window. Lookahead windows make
/// rendezvous rare but long-lived, so the wait path spins briefly (the
/// common case: siblings arrive within microseconds of each other) and
/// then falls back to [`std::thread::yield_now`] so a straggler lane never
/// pins sibling cores at 100% — unlike an unconditional spin loop, and
/// without the mutex/condvar wakeup cost of [`std::sync::Barrier`].
#[derive(Debug)]
pub struct Rendezvous {
    parties: usize,
    arrived: AtomicUsize,
    sense: AtomicUsize,
}

/// Iterations of [`std::hint::spin_loop`] before a waiting party starts
/// yielding its timeslice. Sized for "siblings are a few microseconds
/// behind", the common case under balanced lanes.
const SPIN_LIMIT: u32 = 4_096;

impl Rendezvous {
    /// A rendezvous point for `parties` threads.
    pub fn new(parties: usize) -> Self {
        Rendezvous {
            parties,
            arrived: AtomicUsize::new(0),
            sense: AtomicUsize::new(0),
        }
    }

    /// Blocks until all parties arrive; returns `true` on exactly one of
    /// them (the leader for this round).
    ///
    /// The last arrival becomes leader: it resets the arrival count and
    /// then flips the round sense, releasing the waiters. A waiter only
    /// re-enters the next round after observing the flip, so the reset
    /// cannot race with next-round arrivals.
    pub fn wait(&self) -> bool {
        let sense = self.sense.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.sense.store(sense.wrapping_add(1), Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) == sense {
                if spins < SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            false
        }
    }
}

/// Merges per-lane timestamped streams into one deterministic sequence.
///
/// Each input stream carries `(time, payload)` pairs in the order its lane
/// emitted them (which need not be time-sorted: a lane may note an event at
/// a future completion time before noting an earlier one). The merge tags
/// every record with its lane index and stable-sorts by `(time, lane)`, so
/// same-time records order by lane, then by within-lane emission order —
/// independent of worker count or OS scheduling.
pub fn merge_timestamped<T>(streams: Vec<Vec<(u64, T)>>) -> Vec<(u64, usize, T)> {
    let total = streams.iter().map(Vec::len).sum();
    let mut merged: Vec<(u64, usize, T)> = Vec::with_capacity(total);
    for (lane, stream) in streams.into_iter().enumerate() {
        merged.extend(stream.into_iter().map(|(t, x)| (t, lane, x)));
    }
    merged.sort_by_key(|&(t, lane, _)| (t, lane));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order_for_any_thread_count() {
        let input: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map(threads, input.clone(), |x| x * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = par_map(7, (0..100).collect::<Vec<i32>>(), |x| {
            ran.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(ran.load(Ordering::SeqCst), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(8, empty, |x: u8| x).is_empty());
        assert_eq!(par_map(8, vec![9u8], |x| x + 1), vec![10]);
    }

    #[test]
    fn uneven_job_costs_still_order_correctly() {
        // Early jobs sleep longest: without index tracking, results would
        // come back reversed.
        let got = par_map(4, (0u64..16).collect(), |x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x
        });
        assert_eq!(got, (0u64..16).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, (0..8).collect::<Vec<i32>>(), |x| {
                if x == 5 {
                    panic!("job failed");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn join_returns_both_results_in_order() {
        for parallel in [false, true] {
            let (a, b) = join(parallel, || "a".repeat(3), || 7u64 * 6);
            assert_eq!((a.as_str(), b), ("aaa", 42), "parallel={parallel}");
        }
    }

    #[test]
    fn join_spawns_only_when_parallel() {
        let caller = std::thread::current().id();
        let ids = |parallel| {
            join(
                parallel,
                || std::thread::current().id(),
                || std::thread::current().id(),
            )
        };
        assert_eq!(ids(false), (caller, caller));
        let (a, b) = ids(true);
        assert_ne!(a, caller, "`a` runs on the helper");
        assert_eq!(b, caller, "`b` runs on the caller");
    }

    #[test]
    fn join_propagates_a_panic_from_either_side() {
        for parallel in [false, true] {
            let in_a = std::panic::catch_unwind(|| {
                join(parallel, || panic!("a failed"), || 1);
            });
            let in_b = std::panic::catch_unwind(|| {
                join(parallel, || 1, || panic!("b failed"));
            });
            for (result, msg) in [(in_a, "a failed"), (in_b, "b failed")] {
                let payload = result.expect_err("the panic propagates");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&msg),
                    "parallel={parallel}"
                );
            }
        }
    }

    #[test]
    fn rendezvous_elects_exactly_one_leader_per_round() {
        let r = Rendezvous::new(4);
        let leaders = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        if r.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                        // Second barrier keeps rounds from overlapping.
                        r.wait();
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn rendezvous_single_party_is_always_leader() {
        let r = Rendezvous::new(1);
        for _ in 0..1000 {
            assert!(r.wait());
        }
    }

    #[test]
    fn rendezvous_rounds_never_overlap_under_stress() {
        // A counter incremented once per (party, round) pair must land on
        // exactly parties*rounds: a reset racing next-round arrivals would
        // deadlock or let a party slip a round.
        let parties = 8;
        let rounds = 2_000;
        let r = Rendezvous::new(parties);
        let ticks = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..parties {
                scope.spawn(|| {
                    for i in 0..rounds {
                        ticks.fetch_add(1, Ordering::SeqCst);
                        r.wait();
                        // Between the two barriers every party has ticked
                        // this round exactly once.
                        assert_eq!(ticks.load(Ordering::SeqCst), parties * (i + 1));
                        r.wait();
                    }
                });
            }
        });
        assert_eq!(ticks.load(Ordering::SeqCst), parties * rounds);
    }

    #[test]
    fn merge_orders_by_time_then_lane_then_emission() {
        // Lane streams need not be time-sorted.
        let merged = merge_timestamped(vec![
            vec![(5, "a0"), (2, "a1"), (5, "a2")],
            vec![(2, "b0"), (5, "b1")],
        ]);
        assert_eq!(
            merged,
            vec![
                (2, 0, "a1"),
                (2, 1, "b0"),
                (5, 0, "a0"),
                (5, 0, "a2"),
                (5, 1, "b1"),
            ]
        );
    }
}
