//! A bounded-concurrency job scheduler for long-lived engines.
//!
//! [`WorkerPool`](crate::WorkerPool) parallelizes *within* one evaluation
//! batch; [`JobScheduler`] parallelizes *across* whole jobs — co-design
//! requests submitted to a resident engine. It owns a fixed set of
//! executor threads fed from one FIFO queue:
//!
//! * submissions never block: [`JobScheduler::spawn`] enqueues and
//!   returns; excess jobs wait for a free slot;
//! * jobs start in submission order (a free executor always takes the
//!   oldest queued job), so queued-job pickup is deterministic even
//!   though completion order is not;
//! * worker panics are contained: a panicking job poisons nothing and the
//!   executor thread survives to run the next job. Callers that need the
//!   panic re-raised should catch it inside the job closure and surface
//!   it through their own completion channel.
//!
//! Dropping the scheduler closes the queue and joins the executors, so
//! every accepted job runs to completion before the scheduler is gone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::telemetry::Telemetry;

/// A queued unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-slot FIFO job scheduler (see the module docs).
#[derive(Debug)]
pub struct JobScheduler {
    tx: Option<Sender<Job>>,
    executors: Vec<JoinHandle<()>>,
    slots: usize,
    /// Out-of-band queue-wait observer (no-op by default).
    telemetry: Telemetry,
}

impl JobScheduler {
    /// Creates a scheduler with `slots` executor threads (minimum 1):
    /// at most `slots` jobs run concurrently, the rest queue FIFO.
    pub fn new(slots: usize) -> Self {
        let slots = slots.max(1);
        let (tx, rx) = channel::<Job>();
        let rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(rx));
        let executors = (0..slots)
            .map(|i| {
                let rx = Arc::clone(&rx);
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
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; every spawned job then records how
    /// long it waited in the queue before an executor picked it up
    /// (`scheduler/queue_wait`).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The number of jobs that can run concurrently.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Enqueues a job; it starts as soon as an executor is free, in FIFO
    /// order relative to other queued jobs.
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
