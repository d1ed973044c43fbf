//! Typed progress events of one co-design run.
//!
//! A job admitted by the [`Engine`](crate::engine::Engine) does not only
//! produce a final [`Solution`](crate::Solution) — it streams
//! [`RunEvent`]s as the three-step flow advances: partitioning, batch
//! evaluation inside the hardware DSE, fidelity-staged refinement,
//! constraint-driven retuning, and the final software optimization.
//! Events are emitted from the job's driver thread at serial points of
//! the flow, so **the event stream of a job is bit-identical across
//! thread counts, work-stealing modes, and concurrent-job interleavings**
//! — the same determinism contract the solutions themselves obey.
//!
//! Wall-clock observability deliberately lives elsewhere: timings,
//! latency histograms, and cache/steal counters flow through the
//! [`runtime::Telemetry`] side channel (see
//! [`EngineConfig::with_metrics`](crate::engine::EngineConfig::with_metrics)),
//! never through events. Carrying a timestamp here would break the
//! bit-identical contract on the first re-run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// One progress event of a co-design run. The stream of a successful job
/// starts with [`RunEvent::Started`] and ends with a terminal event
/// ([`RunEvent::Solved`], [`RunEvent::Cancelled`], or
/// [`RunEvent::Failed`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// The job was admitted and its inputs validated.
    Started {
        /// The request label.
        label: String,
        /// Number of workloads in the application.
        workloads: usize,
    },
    /// Step 1: one workload's tensorize-choice space was enumerated.
    Partitioned {
        /// The workload's name.
        workload: String,
        /// Total legal tensorize choices across candidate intrinsics.
        choices: usize,
    },
    /// The hardware DSE evaluated one batch of design points
    /// (reported by the optimizer loop — MOBO prior bursts and
    /// acquisitions, NSGA-II generations, random-search samples).
    BatchEvaluated {
        /// The optimizer (`"mobo"`, `"nsga2"`, `"random"`).
        optimizer: String,
        /// The loop phase (`"prior"`, `"acquire"`, `"generation"`, …).
        phase: String,
        /// 1-based batch number within the optimizer run.
        batch: usize,
        /// Design points evaluated in the batch.
        evaluated: usize,
        /// How many of them were feasible.
        feasible: usize,
    },
    /// Fidelity staging re-priced a batch's survivors at high fidelity.
    Refined {
        /// 1-based staged-batch number within the job.
        batch: usize,
        /// Survivors re-priced at the refine tier.
        survivors: usize,
        /// The refine budget the batch ran with (the adaptive controller
        /// moves this between batches).
        budget: usize,
    },
    /// The final thorough software optimization finished one workload.
    SoftwareOptimized {
        /// The workload's name.
        workload: String,
        /// Revision rounds the explorer ran.
        rounds: usize,
        /// The optimized latency (ms) on the chosen accelerator.
        latency_ms: f64,
    },
    /// Step 3: a solution candidate was checked against the constraints
    /// (round 0 is the initial selection; later rounds are
    /// constraint-driven retunes).
    Tuned {
        /// Tuning round (0 = initial selection).
        round: usize,
        /// Whether the candidate meets the user constraints.
        meets_constraints: bool,
    },
    /// Terminal: the job produced a solution.
    Solved {
        /// Whether the solution meets the user constraints.
        meets_constraints: bool,
        /// The solution's application latency in milliseconds.
        latency_ms: f64,
    },
    /// Terminal: the job was cancelled before completing.
    Cancelled,
    /// Terminal: the job failed.
    Failed {
        /// The rendered [`HascoError`](crate::HascoError).
        error: String,
    },
}

impl RunEvent {
    /// True for the events that end a job's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            RunEvent::Solved { .. } | RunEvent::Cancelled | RunEvent::Failed { .. }
        )
    }
}

runtime::wire_enum!(RunEvent {
    0 => Started { label, workloads },
    1 => Partitioned { workload, choices },
    2 => BatchEvaluated { optimizer, phase, batch, evaluated, feasible },
    3 => Refined { batch, survivors, budget },
    4 => SoftwareOptimized { workload, rounds, latency_ms },
    5 => Tuned { round, meets_constraints },
    6 => Solved { meets_constraints, latency_ms },
    7 => Cancelled,
    8 => Failed { error },
});

/// The emitting end of a job's event stream. Cloneable and cheap; a
/// disabled sink ([`EventSink::disabled`]) swallows everything, so code
/// paths shared with the one-shot API emit unconditionally.
///
/// A sink calls a listener on the emitting thread: a channel's sender
/// (read through [`EventStream`]) or a caller's callback. A callback may
/// block on I/O (the serving front-end writes events to a socket), so no
/// caller of [`EventSink::emit`] may hold a lock.
#[derive(Clone, Default)]
pub struct EventSink {
    /// The listener, returning whether anyone still listens, and the
    /// cancel flag it raises when nobody does.
    to: Option<(Listener, Arc<AtomicBool>)>,
}

type Listener = Arc<dyn Fn(RunEvent) -> bool + Send + Sync>;

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl EventSink {
    /// A sink that discards every event (the one-shot `CoDesigner` path).
    pub fn disabled() -> Self {
        EventSink { to: None }
    }

    /// A sink feeding the given channel. A dropped receiver (nobody is
    /// listening) is not an error — the run continues.
    pub(crate) fn new(tx: Sender<RunEvent>) -> Self {
        Self::callback(
            Arc::new(move |event| {
                let _ = tx.send(event);
                true
            }),
            Arc::default(),
        )
    }

    /// A sink calling `f` with each event; `f` returning false (its
    /// listener is gone) raises `cancel`.
    pub(crate) fn callback(f: Listener, cancel: Arc<AtomicBool>) -> Self {
        EventSink {
            to: Some((f, cancel)),
        }
    }

    /// Emits one event. Never fails; a listener that reports itself gone
    /// cancels the job.
    pub fn emit(&self, event: RunEvent) {
        if let Some((f, cancel)) = &self.to {
            if !f(event) {
                // detlint-allow(atomics): cancellation is a sticky one-way latch; a late observation only delays the cooperative exit
                cancel.store(true, Ordering::Relaxed);
            }
        }
    }

    /// True when events go anywhere at all — observability-only work
    /// (e.g. the partition enumeration) is skipped for a disabled sink.
    pub fn is_enabled(&self) -> bool {
        self.to.is_some()
    }
}

/// The consuming end of a job's event stream: a blocking iterator that
/// yields events as the job emits them and ends once the job finished and
/// the buffer drained. Obtained from
/// [`JobHandle::events`](crate::engine::JobHandle::events).
#[derive(Debug)]
pub struct EventStream {
    rx: Option<Receiver<RunEvent>>,
}

impl EventStream {
    /// A live stream over the given channel.
    pub(crate) fn live(rx: Receiver<RunEvent>) -> Self {
        EventStream { rx: Some(rx) }
    }

    /// A stream that yields nothing (the events were already taken, or
    /// went to a callback).
    pub fn empty() -> Self {
        EventStream { rx: None }
    }
}

impl Iterator for EventStream {
    type Item = RunEvent;

    fn next(&mut self) -> Option<RunEvent> {
        self.rx.as_ref()?.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_errors_round_trip() {
        use crate::HascoError;
        use runtime::wire::{from_bytes, to_bytes, Wire};

        /// Debug output prints floats in shortest-round-trip form, so
        /// Debug equality is bit equality here.
        fn assert_roundtrip<T: Wire + std::fmt::Debug>(value: &T) {
            let back: T = from_bytes(&to_bytes(value)).expect("round trip decodes");
            assert_eq!(format!("{value:?}"), format!("{back:?}"));
        }

        assert_roundtrip(&RunEvent::Started {
            label: "x".into(),
            workloads: 3,
        });
        assert_roundtrip(&RunEvent::Solved {
            meets_constraints: true,
            latency_ms: 1.25,
        });
        assert_roundtrip(&RunEvent::Cancelled);
        assert_roundtrip(&HascoError::InvalidOptions("bad".into()));
        assert_roundtrip(&HascoError::Transport("conn reset".into()));
        let res: Result<u64, HascoError> = Err(HascoError::Cancelled);
        assert_roundtrip(&res);
    }

    #[test]
    fn terminal_classification() {
        assert!(RunEvent::Solved {
            meets_constraints: true,
            latency_ms: 1.0
        }
        .is_terminal());
        assert!(RunEvent::Cancelled.is_terminal());
        assert!(RunEvent::Failed { error: "x".into() }.is_terminal());
        assert!(!RunEvent::Started {
            label: "j".into(),
            workloads: 1
        }
        .is_terminal());
        assert!(!RunEvent::Tuned {
            round: 0,
            meets_constraints: false
        }
        .is_terminal());
    }

    #[test]
    fn disabled_sink_swallows_and_dropped_receiver_is_harmless() {
        EventSink::disabled().emit(RunEvent::Cancelled);
        let (tx, rx) = std::sync::mpsc::channel();
        let sink = EventSink::new(tx);
        drop(rx);
        sink.emit(RunEvent::Cancelled); // must not panic
    }

    #[test]
    fn a_callback_that_loses_its_listener_cancels_the_job() {
        let cancel = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = {
            let seen = Arc::clone(&seen);
            EventSink::callback(
                Arc::new(move |event: RunEvent| {
                    let terminal = event.is_terminal();
                    seen.lock().unwrap().push(event);
                    !terminal
                }),
                Arc::clone(&cancel),
            )
        };
        sink.emit(RunEvent::Tuned {
            round: 0,
            meets_constraints: true,
        });
        assert!(!cancel.load(Ordering::Relaxed));
        sink.emit(RunEvent::Cancelled);
        assert!(cancel.load(Ordering::Relaxed));
        assert_eq!(seen.lock().unwrap().len(), 2);
    }

    #[test]
    fn stream_drains_buffer_then_ends() {
        let (tx, rx) = std::sync::mpsc::channel();
        let sink = EventSink::new(tx);
        sink.emit(RunEvent::Cancelled);
        drop(sink);
        let events: Vec<RunEvent> = EventStream::live(rx).collect();
        assert_eq!(events, vec![RunEvent::Cancelled]);
        assert_eq!(EventStream::empty().count(), 0);
    }
}
