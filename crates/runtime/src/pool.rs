//! A fixed-size, order-preserving worker pool with work-stealing.
//!
//! [`WorkerPool::map`] fans the items of a batch out to `threads` OS
//! threads and writes each result into a slot addressed by the item's
//! submission index, so the returned vector is always in input order
//! regardless of which worker finished first or last. Workers are spawned
//! per batch inside [`std::thread::scope`]: that keeps borrowed problem
//! state (generators, workload slices, cost models) usable from worker
//! closures without `unsafe` lifetime juggling, while the pool size stays
//! fixed for the life of the pool.
//!
//! Two scheduling strategies are available:
//!
//! * **work-stealing** (default) — each worker owns a contiguous chunk of
//!   the batch and pops from its front; a worker that drains its chunk
//!   steals the back half of the largest work left on a peer. Chunked
//!   ownership keeps the common case contention-free, and stealing keeps
//!   every core busy when per-item cost is wildly uneven (a trace-sim
//!   evaluation can cost 100x an analytic one);
//! * **shared-counter** (`with_stealing(false)`) — all workers pull
//!   single items off one atomic index, kept as the reference scheduler
//!   the determinism suite compares against.
//!
//! Either way the result is `[f(0, &items[0]), f(1, &items[1]), ...]`:
//! scheduling moves work between threads, never between result slots, so
//! thread count and stealing change wall-clock time only.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::telemetry::Telemetry;

/// Point-in-time scheduling counters of a pool (shared by clones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches dispatched through [`WorkerPool::map`].
    pub batches: u64,
    /// Items evaluated across all batches.
    pub items: u64,
    /// Successful steal operations (a worker adopting part of a peer's
    /// remaining chunk). Always 0 with stealing disabled or serial pools.
    pub steals: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    batches: AtomicU64,
    items: AtomicU64,
    steals: AtomicU64,
}

/// A fixed-size pool of evaluation workers.
///
/// Clones share the scheduling counters ([`WorkerPool::stats`]), so a pool
/// handed to several evaluation engines reports aggregate activity.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
    stealing: bool,
    stats: Arc<StatCells>,
    /// Out-of-band batch observer (no-op by default): batch sizes, wall
    /// time, and steal deltas. Never feeds back into scheduling.
    telemetry: Telemetry,
}

impl WorkerPool {
    /// Creates a pool with a fixed worker count (minimum 1) and
    /// work-stealing enabled.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
            stealing: true,
            stats: Arc::new(StatCells::default()),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Creates a single-threaded pool — the serial degenerate case every
    /// parallel code path must reduce to.
    pub fn serial() -> Self {
        WorkerPool::new(1)
    }

    /// Turns work-stealing on or off. Off, workers pull single items off
    /// a shared atomic counter instead of owning chunks — the reference
    /// scheduler. Results are identical either way.
    pub fn with_stealing(mut self, stealing: bool) -> Self {
        self.stealing = stealing;
        self
    }

    /// Attaches a telemetry handle; every [`WorkerPool::map`] call then
    /// records its wall time (`pool/batch`) and adds its item count and
    /// steal delta to the counters `pool.items` and `pool.steals`.
    /// Telemetry is a wall-clock side channel — it observes scheduling
    /// and never influences it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The fixed worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the pool executes inline on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Snapshot of the scheduling counters (shared across clones).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            batches: self.stats.batches.load(Ordering::Relaxed),
            items: self.stats.items.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
        }
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**. `f` receives `(index, &item)`.
    ///
    /// With `threads <= 1` (or a batch of one) this runs inline on the
    /// calling thread; otherwise up to `threads` workers split the batch.
    /// Either way the output is `[f(0, &items[0]), f(1, &items[1]), ...]`
    /// — thread count and scheduling change wall-clock time, not results.
    ///
    /// # Panics
    /// Re-raises the first worker panic on the calling thread.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        // Telemetry observes the batch from outside the dispatch.
        let batch = self.telemetry.span("pool/batch");
        let steals_before = self.stats.steals.load(Ordering::Relaxed);
        let out = self.dispatch(items, f);
        drop(batch);
        let steals = self.stats.steals.load(Ordering::Relaxed);
        self.telemetry.counter_add("pool.items", items.len() as u64);
        self.telemetry
            .counter_add("pool.steals", steals.saturating_sub(steals_before));
        out
    }

    fn dispatch<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let workers = self.threads.min(items.len());
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let record_panic = |payload| {
            panic_slot
                .lock()
                .expect("panic slot poisoned")
                .get_or_insert(payload);
        };

        if self.stealing {
            self.map_stealing(items, &f, workers, &slots, &record_panic);
        } else {
            Self::map_shared_counter(items, &f, workers, &slots, &record_panic);
        }

        if let Some(payload) = panic_slot.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index was claimed exactly once")
            })
            .collect()
    }

    /// The reference scheduler: one shared atomic work index.
    fn map_shared_counter<T, R, F>(
        items: &[T],
        f: &F,
        workers: usize,
        slots: &[Mutex<Option<R>>],
        record_panic: &(dyn Fn(Box<dyn std::any::Any + Send>) + Sync),
    ) where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                        Ok(r) => *slots[i].lock().expect("result slot poisoned") = Some(r),
                        Err(payload) => {
                            record_panic(payload);
                            // Drain the remaining work so peers exit fast.
                            next.store(items.len(), Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
    }

    /// The work-stealing scheduler: chunked ownership, steal-half-from-
    /// the-back. Workers only ever *remove* work from queues, so a worker
    /// that finds every queue empty can exit — any in-flight item already
    /// belongs to the thread running it.
    fn map_stealing<T, R, F>(
        &self,
        items: &[T],
        f: &F,
        workers: usize,
        slots: &[Mutex<Option<R>>],
        record_panic: &(dyn Fn(Box<dyn std::any::Any + Send>) + Sync),
    ) where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Contiguous initial chunks: worker w owns [w*len/n, (w+1)*len/n).
        let queues: Vec<Mutex<(usize, usize)>> = (0..workers)
            .map(|w| {
                let start = w * items.len() / workers;
                let end = (w + 1) * items.len() / workers;
                Mutex::new((start, end))
            })
            .collect();
        let abort = AtomicBool::new(false);
        let pop_front = |w: usize| -> Option<usize> {
            let mut q = queues[w].lock().expect("work queue poisoned");
            if q.0 < q.1 {
                let i = q.0;
                q.0 += 1;
                Some(i)
            } else {
                None
            }
        };
        // Takes the back half of a victim's remaining range (without
        // holding two queue locks at once — the stolen range is installed
        // into the thief's queue after the victim lock is released).
        let steal_from_peers = |w: usize| -> Option<(usize, usize)> {
            for step in 1..workers {
                let v = (w + step) % workers;
                let mut q = queues[v].lock().expect("work queue poisoned");
                let len = q.1 - q.0;
                if len > 0 {
                    let take = len.div_ceil(2);
                    let stolen = (q.1 - take, q.1);
                    q.1 -= take;
                    drop(q);
                    self.stats.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(stolen);
                }
            }
            None
        };

        std::thread::scope(|scope| {
            for w in 0..workers {
                let abort = &abort;
                let queues = &queues;
                scope.spawn(move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = match pop_front(w) {
                        Some(i) => i,
                        None => match steal_from_peers(w) {
                            Some((start, end)) => {
                                *queues[w].lock().expect("work queue poisoned") = (start + 1, end);
                                start
                            }
                            // Every queue is empty: no unclaimed work left.
                            None => break,
                        },
                    };
                    match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                        Ok(r) => *slots[i].lock().expect("result slot poisoned") = Some(r),
                        Err(payload) => {
                            record_panic(payload);
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                });
            }
        });
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_submission_order() {
        for pool in [WorkerPool::new(4), WorkerPool::new(4).with_stealing(false)] {
            let items: Vec<u64> = (0..100).collect();
            // Uneven per-item work so completion order scrambles.
            let out = pool.map(&items, |_, &x| {
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree_with_stealing_on_and_off() {
        let items: Vec<u64> = (0..64).collect();
        let f = |i: usize, x: &u64| (i as u64).wrapping_mul(31).wrapping_add(*x);
        let serial = WorkerPool::serial().map(&items, f);
        for threads in [2, 4, 8] {
            for stealing in [true, false] {
                let parallel = WorkerPool::new(threads)
                    .with_stealing(stealing)
                    .map(&items, f);
                assert_eq!(serial, parallel, "threads={threads} stealing={stealing}");
            }
        }
    }

    #[test]
    fn every_item_is_evaluated_exactly_once() {
        for stealing in [true, false] {
            let calls = AtomicUsize::new(0);
            let items: Vec<usize> = (0..257).collect();
            let out = WorkerPool::new(3)
                .with_stealing(stealing)
                .map(&items, |i, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i
                });
            assert_eq!(calls.load(Ordering::Relaxed), items.len());
            assert_eq!(out, items);
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map(&[] as &[u64], |_, &x| x), Vec::<u64>::new());
        assert_eq!(pool.map(&[7u64], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert!(WorkerPool::new(0).is_serial());
    }

    #[test]
    fn worker_panic_propagates() {
        for stealing in [true, false] {
            let pool = WorkerPool::new(2).with_stealing(stealing);
            let items: Vec<u64> = (0..8).collect();
            let result = std::panic::catch_unwind(|| {
                pool.map(&items, |_, &x| {
                    if x == 3 {
                        panic!("boom");
                    }
                    x
                })
            });
            assert!(result.is_err(), "stealing={stealing}");
        }
    }

    #[test]
    fn uneven_work_triggers_steals() {
        // Front-loaded work: worker 0's chunk takes far longer than the
        // others', so drained peers must steal from it.
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        let out = pool.map(&items, |i, &x| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        assert!(
            pool.stats().steals > 0,
            "expected steals on a front-loaded batch: {:?}",
            pool.stats()
        );
    }

    #[test]
    fn stats_are_shared_across_clones() {
        let pool = WorkerPool::new(2);
        let clone = pool.clone();
        let items: Vec<u64> = (0..10).collect();
        let _ = clone.map(&items, |_, &x| x);
        let s = pool.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.items, 10);
    }

    #[test]
    fn stealing_flag_is_reported() {
        assert!(WorkerPool::new(4).stealing);
        assert!(!WorkerPool::new(4).with_stealing(false).stealing);
    }

    #[test]
    fn telemetry_observes_batches_without_changing_results() {
        let telemetry = Telemetry::enabled();
        let plain = WorkerPool::new(3);
        let observed = WorkerPool::new(3).with_telemetry(telemetry.clone());
        let items: Vec<u64> = (0..32).collect();
        let f = |i: usize, x: &u64| (i as u64) * 10 + x;
        assert_eq!(plain.map(&items, f), observed.map(&items, f));
        let snap = telemetry.snapshot().unwrap();
        let names: Vec<&str> = snap.timings.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["pool/batch"]);
        assert_eq!(snap.timings[0].1.count, 1);
        let items = snap.counters.iter().find(|(n, _)| n == "pool.items");
        assert_eq!(items, Some(&("pool.items".to_string(), 32)));
        assert!(snap.counters.iter().any(|(n, _)| n == "pool.steals"));
    }
}
