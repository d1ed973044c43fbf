//! A bounded-concurrency job scheduler for long-lived engines.
//!
//! [`WorkerPool`](crate::WorkerPool) parallelizes *within* one evaluation
//! batch; [`JobScheduler`] parallelizes *across* whole jobs — co-design
//! requests submitted to a resident engine. It owns a budget of `slots`
//! permits, a fixed set of executor threads fed from one FIFO queue, and
//! a second way in for callers that run a job on their own thread:
//!
//! * submissions never block: [`JobScheduler::spawn`] enqueues and
//!   returns; excess jobs wait for a free slot;
//! * [`JobScheduler::run_here`] runs a job on the calling thread once a
//!   slot is free. A serving handler that waits on its job anyway uses
//!   it, so the job costs no hand-off to an executor and back;
//! * executors and caller-run jobs draw on the one budget: each running
//!   job holds a permit, so at most `slots` jobs run at once whichever
//!   way they came in;
//! * queued jobs start in submission order (a free executor always takes
//!   the oldest queued job). An executor holds at most one permit, so
//!   without caller-run jobs no queued job ever waits behind a permit;
//!   executors and callers waiting for a permit take one in the order
//!   they began to wait, so a waiting job's wait is bounded by the jobs
//!   ahead of it;
//! * worker panics are contained: a panicking job poisons nothing and the
//!   executor thread survives to run the next job. Callers that need the
//!   panic re-raised should catch it inside the job closure and surface
//!   it through their own completion channel.
//!
//! Dropping the scheduler closes the queue and joins the executors, so
//! every accepted job runs to completion before the scheduler is gone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::telemetry::Telemetry;

/// A queued unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// The slot budget: free permits handed out in arrival order, and a
/// condvar signalled whenever the line moves.
#[derive(Debug)]
struct Permits {
    line: Mutex<Line>,
    moved: Condvar,
}

/// A ticket line in front of the free permits: each waiter draws the
/// next ticket and takes a permit only when its ticket is served.
#[derive(Debug)]
struct Line {
    free: usize,
    /// The ticket the next arrival draws.
    next: u64,
    /// The ticket whose holder takes the next free permit.
    serving: u64,
}

impl Permits {
    fn new(slots: usize) -> Self {
        Permits {
            line: Mutex::new(Line {
                free: slots,
                next: 0,
                serving: 0,
            }),
            moved: Condvar::new(),
        }
    }

    /// The line; a holder that panicked cannot have left it torn (it is
    /// updated in whole steps under the lock).
    fn line(&self) -> MutexGuard<'_, Line> {
        self.line.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until this caller's turn comes and a permit is free, and
    /// takes it.
    fn acquire(&self) -> Permit<'_> {
        let mut line = self.line();
        let ticket = line.next;
        line.next += 1;
        let mut line = self
            .moved
            .wait_while(line, |line| line.serving != ticket || line.free == 0)
            .unwrap_or_else(PoisonError::into_inner);
        line.free -= 1;
        line.serving += 1;
        if line.free > 0 {
            // The next ticket may take a permit too.
            self.moved.notify_all();
        }
        Permit(self)
    }
}

/// One running job's permit; dropping it (panics included) frees the slot.
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.line().free += 1;
        self.0.moved.notify_all();
    }
}

/// A fixed-slot FIFO job scheduler (see the module docs).
#[derive(Debug)]
pub struct JobScheduler {
    tx: Option<Sender<Job>>,
    executors: Vec<JoinHandle<()>>,
    slots: usize,
    permits: Arc<Permits>,
    /// Out-of-band queue-wait observer (no-op by default).
    telemetry: Telemetry,
}

impl JobScheduler {
    /// Creates a scheduler with `slots` permits and as many executor
    /// threads (minimum 1): at most `slots` jobs run concurrently, the
    /// rest wait for a permit.
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        let (tx, rx) = channel::<Job>();
        let rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(rx));
        let permits = Arc::new(Permits::new(slots));
        let executors = (0..slots)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let permits = Arc::clone(&permits);
                std::thread::Builder::new()
                    .name(format!("hasco-job-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only while receiving, so a
                        // long job never blocks peers from picking up work.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => {
                                let _permit = permits.acquire();
                                // Contain panics: the executor must survive
                                // to serve later jobs.
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => break, // queue closed
                        }
                    })
                    .expect("spawning executor thread")
            })
            .collect();
        JobScheduler {
            tx: Some(tx),
            executors,
            slots,
            permits,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; every job then records how long it
    /// waited for a slot (`scheduler/queue_wait`).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The number of jobs that can run concurrently.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Enqueues a job; it starts as soon as an executor and a permit are
    /// free, in FIFO order relative to other queued jobs.
    pub fn spawn(&self, job: Job) {
        if let Some(tx) = &self.tx {
            // The wait closes when an executor starts the job.
            let queued = self.telemetry.span("scheduler/queue_wait");
            // Send can only fail after the queue closed, which only
            // happens in Drop — unreachable from a live &self.
            let _ = tx.send(Box::new(move || {
                drop(queued);
                job();
            }));
        }
    }

    /// Runs `job` on the calling thread once a permit is free, and frees
    /// the permit when it returns or unwinds. The wait for the permit is
    /// recorded like a queued job's (`scheduler/queue_wait`); a panic
    /// propagates to the caller.
    pub fn run_here<R>(&self, job: impl FnOnce() -> R) -> R {
        let queued = self.telemetry.span("scheduler/queue_wait");
        let _permit = self.permits.acquire();
        drop(queued);
        job()
    }
}

impl Drop for JobScheduler {
    fn drop(&mut self) {
        // Close the queue, then join: accepted jobs run to completion.
        self.tx.take();
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_every_job_before_drop_returns() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let scheduler = JobScheduler::new(3);
            for _ in 0..20 {
                let counter = Arc::clone(&counter);
                scheduler.spawn(Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn queued_jobs_start_in_submission_order() {
        // One slot: jobs must execute strictly in submission order.
        let scheduler = JobScheduler::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..10usize {
            let tx = tx.clone();
            scheduler.spawn(Box::new(move || {
                let _ = tx.send(i);
            }));
        }
        drop(scheduler);
        drop(tx);
        let order: Vec<usize> = rx.iter().collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn slots_bound_concurrency() {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        {
            let scheduler = JobScheduler::new(2);
            for _ in 0..8 {
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                scheduler.spawn(Box::new(move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    running.fetch_sub(1, Ordering::SeqCst);
                }));
            }
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn caller_run_jobs_share_the_slot_budget_with_executors() {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let work = {
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                running.fetch_sub(1, Ordering::SeqCst);
            }
        };
        let scheduler = JobScheduler::new(2);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let work = work.clone();
                let scheduler = &scheduler;
                scope.spawn(move || {
                    for _ in 0..4 {
                        scheduler.run_here(work.clone());
                    }
                });
            }
            for _ in 0..8 {
                scheduler.spawn(Box::new(work.clone()));
            }
        });
        drop(scheduler);
        assert_eq!(running.load(Ordering::SeqCst), 0);
        assert!(peak.load(Ordering::SeqCst) <= 2, "more jobs ran than slots");
    }

    #[test]
    fn waiting_jobs_take_permits_in_arrival_order() {
        let scheduler = JobScheduler::new(1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (order_tx, order_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let drawn = || scheduler.permits.line().next;
            // The first job holds the one slot until released.
            scope.spawn(move || scheduler.run_here(|| release_rx.recv()));
            for i in 1..=4u64 {
                while drawn() < i {
                    std::thread::yield_now();
                }
                let order_tx = order_tx.clone();
                if i == 2 {
                    // An executor's job waits in the same line.
                    scheduler.spawn(Box::new(move || {
                        let _ = order_tx.send(i);
                    }));
                } else {
                    scope.spawn(move || scheduler.run_here(|| order_tx.send(i)));
                }
            }
            while drawn() < 5 {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
        });
        drop(scheduler);
        drop(order_tx);
        assert_eq!(order_rx.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn a_panicking_caller_run_job_frees_its_slot() {
        let scheduler = JobScheduler::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scheduler.run_here(|| panic!("injected"))
        }));
        assert!(caught.is_err());
        assert_eq!(scheduler.run_here(|| 7), 7, "the slot came back");
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_executor() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let scheduler = JobScheduler::new(1);
            scheduler.spawn(Box::new(|| panic!("injected")));
            let done2 = Arc::clone(&done);
            scheduler.spawn(Box::new(move || {
                done2.fetch_add(1, Ordering::Relaxed);
            }));
        }
        assert_eq!(done.load(Ordering::Relaxed), 1, "executor died on panic");
    }

    #[test]
    fn zero_slots_clamp_to_one() {
        assert_eq!(JobScheduler::new(0).slots(), 1);
    }

    #[test]
    fn queue_wait_is_recorded_per_job() {
        let telemetry = Telemetry::enabled();
        {
            let scheduler = JobScheduler::new(1).with_telemetry(telemetry.clone());
            for _ in 0..4 {
                scheduler.spawn(Box::new(|| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }));
            }
        }
        let snap = telemetry.snapshot().unwrap();
        let (name, wait) = &snap.timings[0];
        assert_eq!(name, "scheduler/queue_wait");
        assert_eq!(wait.count, 4);
        // Jobs behind a 1ms predecessor on one slot waited at least that.
        assert!(wait.max_ns >= 1_000_000);
    }
}
