//! Progress observation for long-running optimizer loops.
//!
//! A resident co-design engine wants two things from the optimizers it
//! hosts: a live view of where a run is (which batch, how much was
//! feasible) and a way to stop a run early when its job is cancelled.
//! [`Progress`] is that seam — optimizers call [`Progress::on_batch`]
//! from their **driver thread** after every evaluated batch, in a
//! deterministic order that depends only on the run's parameters (never
//! on worker-thread timing), so observed event streams are bit-identical
//! across thread counts and scheduler modes. Returning `false` stops the
//! run early; the optimizer returns whatever history it accumulated.
//!
//! The default implementation ([`NoProgress`], used by
//! [`Optimizer::run`](crate::Optimizer::run)) observes nothing and never
//! stops, so plain `run` calls behave exactly as before the seam existed.

/// One evaluated batch, as reported by an optimizer loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchUpdate<'a> {
    /// The reporting optimizer (`"mobo"`, `"nsga2"`, …) or `"sw-explorer"`
    /// for the software-exploration rounds.
    pub optimizer: &'a str,
    /// The loop phase: `"prior"` / `"acquire"` (MOBO), `"generation"`
    /// (NSGA-II), `"sample"` (random search), `"round"` (software
    /// explorer).
    pub phase: &'a str,
    /// 1-based batch sequence number within the run.
    pub batch: usize,
    /// Evaluations submitted in this batch.
    pub evaluated: usize,
    /// How many of them were feasible.
    pub feasible: usize,
}

/// Observer of optimizer progress; see the module docs.
pub trait Progress: Send + Sync + std::fmt::Debug {
    /// Called after each evaluated batch; return `false` to stop the run
    /// early (the optimizer returns its history so far).
    fn on_batch(&self, update: &BatchUpdate<'_>) -> bool {
        let _ = update;
        true
    }
}

/// The do-nothing observer: no reporting, no early stop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProgress;

impl Progress for NoProgress {}

/// One recorded update: `(optimizer, phase, batch, evaluated, feasible)`.
pub type Recorded = (String, String, usize, usize, usize);

/// A recording observer for tests: collects every update and optionally
/// stops the run after a fixed number of batches.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Every update reported so far.
    pub seen: std::sync::Mutex<Vec<Recorded>>,
    /// Stop the run after this many batches (`0` = never).
    pub stop_after: usize,
}

impl Recorder {
    /// A recorder that never stops the run.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Number of batches observed so far.
    pub fn batches(&self) -> usize {
        self.seen.lock().expect("recorder poisoned").len()
    }
}

impl Progress for Recorder {
    fn on_batch(&self, update: &BatchUpdate<'_>) -> bool {
        let mut seen = self.seen.lock().expect("recorder poisoned");
        seen.push((
            update.optimizer.to_string(),
            update.phase.to_string(),
            update.batch,
            update.evaluated,
            update.feasible,
        ));
        self.stop_after == 0 || seen.len() < self.stop_after
    }
}
