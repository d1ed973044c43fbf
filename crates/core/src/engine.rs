//! `hasco::Engine` — the long-lived co-design service.
//!
//! The one-shot [`CoDesigner`](crate::CoDesigner) rebuilds every piece of
//! warm state — the evaluation cache, surrogate training, worker
//! configuration — on each call. [`Engine`] is the resident form: it owns
//! a job scheduler with a fixed number of concurrent slots, a
//! cross-request memo **store** (periodically persisted, with optional
//! age-based GC), and a per-technology registry of trained surrogate
//! backends — itself persistable
//! ([`EngineConfig::with_surrogate_store`]), so a restarted engine prices
//! with the same surrogate generation, bit-identical to a process that
//! never exited. Requests are submitted ([`Engine::submit`]) and observed
//! ([`JobHandle::events`]) while they run; whole scenario matrices fan
//! out through [`Engine::campaign`] with cross-scenario dedup, and a
//! campaign's progress is its outcomes, rolled up by
//! [`CampaignStats::from_outcomes`](crate::report::CampaignStats::from_outcomes).
//!
//! A submitted job runs on one of the engine's executor threads, so its
//! handle may be dropped or only watched. A caller that waits on its job
//! anyway — the serving front-end's connection handler — can instead
//! [`Engine::admit`] it and run it on its own thread, with its events
//! going to a callback. Both kinds draw on one budget of
//! [`EngineConfig::job_slots`]: at most that many jobs run at once.
//!
//! # Determinism
//!
//! The runtime invariant — *thread count, work-stealing, and concurrent
//! job interleaving never change any job's results* — extends to the
//! engine by construction:
//!
//! * the four stores of one `Stores` value (`crate::stores`) are shared
//!   **live**, read and written by every running job, because no job can
//!   observe them: the pair memo (`store`, one software exploration's
//!   metrics per (accelerator, workload) pair), the tensorize-choice memo
//!   (matching is a pure function of the loop nest and the intrinsic
//!   kind), the completed final explorations (`finals`) and the scored
//!   MOBO acquisitions (`acquisitions`, keyed by everything an
//!   acquisition reads, the RNG state included). Every entry is a pure
//!   value: the pricing tiers' explorers run every round, a final cut
//!   short by a cancel is never stored, a failed GP fit is never stored,
//!   and a surrogate tier's keys carry its training digest. A hit returns
//!   bit for bit what the computation would have returned and moves no
//!   field of a [`Solution`] and no event, so whether a job finds another
//!   job's entry in time changes its wall time only. The pair, finals and
//!   acquisition stores persist in one image; their hit and miss counters
//!   are telemetry ([`Engine::metrics`]);
//! * a job's **solution and event stream** are therefore a pure function
//!   of its request — with one deliberate exception, a **surrogate**
//!   screen tier, which forks the registry's accumulated training at
//!   submit. A job publishes its trained surrogate only when the caller
//!   **observes completion** ([`JobHandle::wait`]), never at racy
//!   completion time, so sequential surrogate jobs learn from each other
//!   deterministically per the submit/wait program, while jobs submitted
//!   back to back see identical forks.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use accel_model::tech::TechParams;
use accel_model::{BackendKind, CostBackend, SurrogateBackend, SurrogateSnapshot};
use runtime::{
    persist, wire, JobScheduler, Key128, StableFingerprint, Telemetry, TelemetrySnapshot,
};

use crate::codesign::{execute, CoDesignOptions, ExecCtx, ExecOutcome};
use crate::event::{EventSink, EventStream, RunEvent};
use crate::input::InputDescription;
use crate::solution::Solution;
use crate::stores::Stores;
use crate::HascoError;

/// Locks an engine mutex, recovering from poisoning instead of
/// panicking. Every structure these mutexes guard — the surrogate
/// registry map, a job's outcome/event slots, the save serializer — is
/// written in single whole-value steps, so a peer that panicked cannot
/// have left it torn; propagating its panic here would kill a second
/// serving thread and silently drop the job it carries.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Concurrent job slots, shared by submitted and admitted jobs
    /// (queued jobs wait FIFO for a free one).
    pub job_slots: usize,
    /// Capacity of the shared cross-request memo store, and of each of the
    /// stores of completed final explorations and of MOBO acquisitions.
    pub cache_capacity: usize,
    /// Persistent image of the memo, finals and acquisition stores:
    /// loaded at engine creation, written by [`Engine::persist`] (merged
    /// newest-wins) and best-effort on drop when any of them gained
    /// entries. `None` keeps them in-memory only.
    pub cache_path: Option<PathBuf>,
    /// Age-based GC for the persisted image: entries older than this are
    /// dropped at persist time ([`Engine::persist`]).
    pub cache_max_age: Option<Duration>,
    /// Persistent image of the surrogate registry: loaded at engine
    /// creation (a missing or corrupt image is a cold start) and written
    /// whenever an observed job publishes a trained surrogate — at
    /// [`JobHandle::wait`], so saves are observation-ordered like the
    /// publications themselves — as well as by [`Engine::persist`] and
    /// best-effort on drop. `None` keeps the registry in-memory only.
    pub surrogate_store: Option<PathBuf>,
    /// Telemetry handle threaded through every job, pool, backend, and
    /// the scheduler ([`EngineConfig::with_metrics`]). Disabled by
    /// default; always out-of-band — enabling it never changes a result
    /// bit.
    pub metrics: Telemetry,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            job_slots: 2,
            cache_capacity: 4096,
            cache_path: None,
            cache_max_age: None,
            surrogate_store: None,
            metrics: Telemetry::disabled(),
        }
    }
}

impl EngineConfig {
    /// The single-slot, in-memory configuration
    /// [`CoDesigner::run`](crate::CoDesigner::run) wraps one request in,
    /// with the cache capacity the run options ask for.
    pub fn one_shot(opts: &CoDesignOptions) -> Self {
        EngineConfig {
            job_slots: 1,
            cache_capacity: opts.cache_capacity,
            ..EngineConfig::default()
        }
    }

    /// Sets the concurrent job slots.
    pub fn with_job_slots(mut self, slots: usize) -> Self {
        self.job_slots = slots;
        self
    }

    /// Sets the shared store capacity.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Persists the shared store at `path` across engine lifetimes.
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Drops persisted entries older than `max_age` at persist time.
    pub fn with_cache_max_age(mut self, max_age: Duration) -> Self {
        self.cache_max_age = Some(max_age);
        self
    }

    /// Persists the surrogate registry at `path` across engine lifetimes:
    /// a restarted engine prices with the same surrogate generation —
    /// training set, CV trust state, and memo-keying content digest —
    /// as the engine that wrote the image.
    pub fn with_surrogate_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.surrogate_store = Some(path.into());
        self
    }

    /// Attaches a telemetry handle ([`Telemetry::enabled`] to record;
    /// the default handle is a no-op). The same handle can be shared
    /// with the caller's own spans, so engine metrics and harness
    /// metrics land in one registry; snapshot it through
    /// [`Engine::metrics`] or directly. Telemetry is a wall-clock side
    /// channel: it never enters memo fingerprints, `RunStats`, event
    /// streams, or persisted images.
    pub fn with_metrics(mut self, metrics: Telemetry) -> Self {
        self.metrics = metrics;
        self
    }
}

/// One co-design request: the input description plus the run options,
/// under a caller-chosen label (used in events, campaign reports, and
/// dedup attribution).
#[derive(Debug, Clone)]
pub struct CoDesignRequest {
    /// The application, generation method, and constraints.
    pub input: InputDescription,
    /// The run options ([`CoDesignOptions::validate`]d at submit).
    pub options: CoDesignOptions,
    /// Label for events and reports (defaults to the application name).
    pub label: String,
}

runtime::wire_struct!(CoDesignRequest {
    input,
    options,
    label,
});

impl CoDesignRequest {
    /// Builds a request labeled with the application name.
    pub fn new(input: InputDescription, options: CoDesignOptions) -> Self {
        let label = input.app.name.clone();
        CoDesignRequest {
            input,
            options,
            label,
        }
    }

    /// Overrides the label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Stable 128-bit identity of everything that can change the
    /// produced [`Solution`] — the campaign dedup key. The label, thread
    /// count, work-stealing and cache capacity are excluded: none of them
    /// changes a solution (an engine job prices through the engine's own
    /// store). Public so transport layers can assert that a request
    /// survived serialization bit-for-bit.
    pub fn fingerprint(&self) -> (u64, u64) {
        Key128::of(|fp| {
            for w in &self.input.app.workloads {
                w.fingerprint_into(fp);
            }
            fp.write_str(&format!("{:?}", self.input.method));
            for bound in [
                self.input.constraints.max_latency_ms,
                self.input.constraints.max_power_mw,
                self.input.constraints.max_area_mm2,
            ] {
                match bound {
                    Some(v) => fp.write_bool(true).write_f64(v),
                    None => fp.write_bool(false),
                };
            }
            let o = &self.options;
            fp.write_usize(o.hw_trials).write_usize(o.mobo_prior);
            o.sw_inner.fingerprint_into(fp);
            o.sw_final.fingerprint_into(fp);
            fp.write_usize(o.tuning_rounds).write_u64(o.seed);
            o.backend.fingerprint_into(fp);
            o.refine_backend.fingerprint_into(fp);
            fp.write_usize(o.refine_top_k)
                .write_bool(o.adaptive_refinement);
            o.tech.fingerprint_into(fp);
            fp.write_str(o.optimizer.as_str());
        })
        .finish()
    }
}

/// How a job's execution ended inside the executor.
enum Completion {
    /// The request ran to a result (success, failure, or cancellation).
    Done(Box<ExecOutcome>),
    /// The job panicked; the payload is re-raised by [`JobHandle::wait`].
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Per-job state shared between the executor, the handle, and the engine.
struct JobState {
    id: u64,
    cancel: Arc<AtomicBool>,
    outcome: Mutex<Option<Completion>>,
    done: Condvar,
    events: Mutex<Option<Receiver<RunEvent>>>,
    published: AtomicBool,
    /// Registry key for the job's surrogate, when its screen tier is one.
    surrogate_key: Option<(u64, u64)>,
}

/// Engine-level shared state.
struct EngineShared {
    /// The stores every job reads and writes live.
    stores: Arc<Stores>,
    /// Trained surrogate screen backends, keyed per technology. New
    /// surrogate jobs fork the registered instance; observed completions
    /// replace it. Loaded from `surrogate_store` at engine creation.
    surrogates: Mutex<BTreeMap<(u64, u64), Arc<dyn CostBackend>>>,
    cache_path: Option<PathBuf>,
    cache_max_age: Option<Duration>,
    /// Persistent image of the surrogate registry (see
    /// [`EngineConfig::with_surrogate_store`]).
    surrogate_store: Option<PathBuf>,
    /// Serializes [`EngineShared::save_surrogates`]'s read-merge-write:
    /// two concurrent `wait()`-time saves interleaving on the file could
    /// otherwise overwrite a just-published surrogate with a stale
    /// snapshot and lose it for the engine's lifetime.
    surrogate_save: Mutex<()>,
    /// Set when the registry changed since its last save.
    surrogate_dirty: AtomicBool,
    /// Highest training generation restored from the surrogate store at
    /// engine creation (0 on a cold start) — warm-restart observability.
    restored_surrogate_generation: u64,
    /// Surrogate backends restored from the store at engine creation.
    restored_surrogate_backends: usize,
    /// Jobs actually executed (campaign dedup skips duplicates).
    jobs_executed: AtomicU64,
    next_job_id: AtomicU64,
    /// The engine-wide telemetry handle (no-op unless the configuration
    /// attached an enabled one).
    telemetry: Telemetry,
}

impl EngineShared {
    /// Registers an observed job's trained surrogate. Called from
    /// [`JobHandle::wait`] — the caller's thread — exactly once per job,
    /// so the registry's content is a pure function of the caller's
    /// submit/wait program, never of executor timing. Returns whether
    /// the job had a surrogate to register.
    fn publish(&self, outcome: &ExecOutcome, surrogate_key: Option<(u64, u64)>) -> bool {
        let (Some(key), Some(surrogate)) = (surrogate_key, &outcome.surrogate) else {
            return false;
        };
        lock_recover(&self.surrogates).insert(key, Arc::clone(surrogate));
        // detlint-allow(atomics): dirty flag only schedules a later mutex-serialized save; a stale read delays persistence, never changes results
        self.surrogate_dirty.store(true, Ordering::Relaxed);
        true
    }

    /// Writes the surrogate registry to the configured store path, merged
    /// with whatever the file already holds: entries for technologies
    /// this engine never touched survive, and on a collision the
    /// **newer-generation** snapshot wins, so a save never regresses a
    /// generation another process wrote to a shared store file (ties go
    /// to the live registry). Entries are ordered by registry key, so
    /// the image is a pure function of its content. `Ok(0)` without a
    /// configured path.
    fn save_surrogates(&self) -> std::io::Result<usize> {
        let Some(path) = &self.surrogate_store else {
            return Ok(0);
        };
        // One saver at a time: the read-merge-write below must not
        // interleave with another wait()'s save, or the later writer's
        // pre-publication registry snapshot could clobber the earlier
        // writer's published surrogate on disk.
        let _saving = lock_recover(&self.surrogate_save);
        // Clear the dirty flag before snapshotting the registry: a
        // publication landing after the snapshot re-raises it, so a later
        // persist/drop knows this save missed it.
        // detlint-allow(atomics): cleared under the saver mutex; a racing publication re-raises it, so no save is ever lost
        self.surrogate_dirty.store(false, Ordering::Relaxed);
        // An unreadable or corrupt existing image contributes nothing
        // (the save degrades to a plain write), like the memo merge.
        let mut merged: BTreeMap<(u64, u64), SurrogateSnapshot> = load_surrogate_snapshots(path)
            .unwrap_or_default()
            .into_iter()
            .map(|snap| (surrogate_key_for_tech(&snap.tech), snap))
            .collect();
        {
            let registry = lock_recover(&self.surrogates);
            for backend in registry.values() {
                if let Some(surrogate) = backend.as_surrogate() {
                    let snap = surrogate.snapshot();
                    let key = surrogate_key_for_tech(&snap.tech);
                    match merged.get(&key) {
                        Some(prev) if prev.generation > snap.generation => {}
                        _ => {
                            merged.insert(key, snap);
                        }
                    }
                }
            }
        }
        let snaps: Vec<SurrogateSnapshot> = merged.into_values().collect();
        if let Err(e) = persist::save_frame(path, SURROGATE_STORE_MAGIC, &wire::to_bytes(&snaps)) {
            // The registry still holds unsaved state.
            // detlint-allow(atomics): failed save re-raises the flag; worst case is an extra save attempt
            self.surrogate_dirty.store(true, Ordering::Relaxed);
            return Err(e);
        }
        Ok(snaps.len())
    }
}

/// File magic + format version of the persisted surrogate-registry store:
/// one frame whose payload is the [`Wire`](runtime::wire::Wire) encoding
/// of a `Vec<SurrogateSnapshot>` in registry-key order. Stores of earlier
/// versions load as a cold start.
const SURROGATE_STORE_MAGIC: &[u8; 8] = b"HASCOSR3";

/// Parses a persisted surrogate store into its snapshots; `None` on any
/// corruption (and on real I/O failures — loading is always best-effort,
/// a store that cannot be read is a cold start, never an error).
fn load_surrogate_snapshots(path: &std::path::Path) -> Option<Vec<SurrogateSnapshot>> {
    wire::from_bytes(&persist::load_frame(path, SURROGATE_STORE_MAGIC).ok()??)
}

/// Registry key for surrogate state: the technology constants (the only
/// construction axis of `BackendKind::Surrogate.build_with`).
fn surrogate_key(opts: &CoDesignOptions) -> (u64, u64) {
    surrogate_key_for_tech(&opts.tech)
}

/// [`surrogate_key`] from the technology constants alone — also how
/// restored store entries are re-keyed at load time.
fn surrogate_key_for_tech(tech: &TechParams) -> (u64, u64) {
    Key128::of(|fp| {
        fp.write_str("surrogate-registry");
        tech.fingerprint_into(fp);
    })
    .finish()
}

/// A handle to one submitted job. Dropping the handle does not cancel
/// the job, but an unobserved job never publishes its trained surrogate
/// (its memo entries are shared as it computes them). Handles
/// are cheaply cloneable and clones share the job: the live event stream
/// is still taken once across all clones, and the first `wait` anywhere
/// publishes.
#[derive(Clone)]
pub struct JobHandle {
    state: Arc<JobState>,
    shared: Arc<EngineShared>,
}

impl JobHandle {
    /// The engine-assigned job id (submission order).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// Requests cancellation. A still-queued job is discarded when its
    /// turn comes (it does not execute or count as an executed job);
    /// running jobs stop at the next optimizer batch / explorer round.
    /// Either way the job reports [`HascoError::Cancelled`].
    /// Cancellation is cooperative — `wait` still blocks until the job
    /// acknowledges. A cancel that arrives after the job already
    /// completed is a no-op: the computed solution stays `Ok`.
    pub fn cancel(&self) {
        // detlint-allow(atomics): cancellation is a sticky one-way latch; a late observation only delays the cooperative exit
        self.state.cancel.store(true, Ordering::Relaxed);
    }

    /// True once the job has a result (`wait` would not block).
    pub fn is_finished(&self) -> bool {
        lock_recover(&self.state.outcome).is_some()
    }

    /// The job's [`RunEvent`] stream: a blocking iterator yielding events
    /// as the job emits them, ending after the terminal event. The live
    /// stream can be taken once; later calls return an empty stream. A
    /// job [`Engine::admit`]ted with a callback has no stream.
    pub fn events(&self) -> EventStream {
        match lock_recover(&self.state.events).take() {
            Some(rx) => EventStream::live(rx),
            None => EventStream::empty(),
        }
    }

    /// Blocks until the job finishes and returns its result. The first
    /// `wait` on a completed job **publishes** its trained surrogate into
    /// the engine's registry — the deterministic
    /// alternative to publishing at racy completion time — and, when the
    /// engine has a surrogate store configured, saves the updated
    /// registry image right after the publication, so on-disk warmth
    /// follows the same observation order as the in-memory registry. A
    /// panic inside the job is re-raised here.
    ///
    /// A `cancel` that lands after the job already completed does not
    /// retract the result: a computed solution is returned as `Ok`, never
    /// converted into [`HascoError::Cancelled`].
    pub fn wait(&self) -> Result<Solution, HascoError> {
        let mut guard = lock_recover(&self.state.outcome);
        while guard.is_none() {
            guard = self
                .state
                .done
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // detlint-allow(panic-safety): the loop above exits only once the slot is Some, and no other thread ever takes the outcome back out
        match guard.as_mut().expect("checked above") {
            Completion::Panicked(payload) => {
                let payload = std::mem::replace(payload, Box::new("panic already re-raised"));
                drop(guard);
                std::panic::resume_unwind(payload);
            }
            Completion::Done(outcome) => {
                // SeqCst pairs every waiter's swap into one total order so
                // exactly one caller wins publication and runs the
                // side-effecting surrogate publish below.
                if !self.state.published.swap(true, Ordering::SeqCst)
                    && self.shared.publish(outcome, self.state.surrogate_key)
                {
                    // Best effort: a failed save costs restart warmth,
                    // never correctness.
                    let _ = self.shared.save_surrogates();
                }
                outcome.result.clone()
            }
        }
    }
}

/// An admitted job, ready to run on whichever thread takes it.
struct JobBody {
    request: CoDesignRequest,
    ctx: ExecCtx,
    state: Arc<JobState>,
    shared: Arc<EngineShared>,
}

impl JobBody {
    fn handle(&self) -> JobHandle {
        JobHandle {
            state: Arc::clone(&self.state),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the job on the calling thread (which holds a slot) and
    /// publishes its completion to the handles.
    fn run(self) {
        // A job cancelled while still waiting for a slot is discarded
        // without executing (and without counting as an executed job).
        // detlint-allow(atomics): cancel latch read; see JobHandle::cancel
        if self.state.cancel.load(Ordering::Relaxed) {
            return self.discard();
        }
        // detlint-allow(atomics): executed-jobs counter; each unique job increments exactly once
        self.shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
        self.shared.telemetry.counter_add("engine.jobs_executed", 1);
        let completion = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&self.request.input, &self.request.options, &self.ctx)
        })) {
            Ok(outcome) => Completion::Done(Box::new(outcome)),
            Err(payload) => Completion::Panicked(payload),
        };
        self.complete(completion);
    }

    /// Ends the job as cancelled without executing it.
    fn discard(self) {
        self.ctx.events.emit(RunEvent::Cancelled);
        self.complete(Completion::Done(Box::new(ExecOutcome {
            result: Err(HascoError::Cancelled),
            surrogate: None,
        })));
    }

    fn complete(self, completion: Completion) {
        // The context (and with it the event sink) goes first, so a
        // channel's stream ends no later than `wait` returns.
        drop(self.ctx);
        *lock_recover(&self.state.outcome) = Some(completion);
        self.state.done.notify_all();
    }
}

/// A job [`Engine::admit`] admitted and the caller runs. Dropping it
/// without [`AdmittedJob::run`] discards the job: its handle reports
/// [`HascoError::Cancelled`].
pub struct AdmittedJob<'e> {
    scheduler: &'e JobScheduler,
    body: Option<JobBody>,
}

impl AdmittedJob<'_> {
    /// Waits for a free slot (timed as `scheduler/queue_wait`), then runs
    /// the job to completion on the calling thread. A job cancelled
    /// while it waited does not execute.
    pub fn run(mut self) {
        if let Some(body) = self.body.take() {
            self.scheduler.run_here(|| body.run());
        }
    }
}

impl Drop for AdmittedJob<'_> {
    fn drop(&mut self) {
        if let Some(body) = self.body.take() {
            body.discard();
        }
    }
}

/// One scenario's result in a campaign report.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The request's label.
    pub label: String,
    /// Its solution (cloned from the representative when deduplicated).
    pub solution: Solution,
    /// When this scenario was identical to an earlier one, the label of
    /// the request that actually ran.
    pub shared_with: Option<String>,
}

runtime::wire_struct!(CampaignOutcome {
    label,
    solution,
    shared_with,
});

impl crate::report::CampaignStats {
    /// Rolls a campaign's outcomes up into dedup-aware totals: executed
    /// scenarios contribute their full [`crate::report::RunStats`];
    /// deduplicated ones (whose solutions are clones of a representative
    /// already counted) move only the dedup counter, keeping every total
    /// monotone in work actually performed.
    pub fn from_outcomes(outcomes: &[CampaignOutcome]) -> Self {
        let mut rollup = Self::default();
        for outcome in outcomes {
            rollup.add_run(&outcome.solution.stats, outcome.shared_with.is_some());
        }
        rollup
    }
}

/// The long-lived co-design service; see the module docs.
pub struct Engine {
    shared: Arc<EngineShared>,
    scheduler: JobScheduler,
}

impl Engine {
    /// Builds an engine, loading the persisted memo, finals and
    /// acquisition stores and the surrogate registry when the configuration names them (a
    /// missing or corrupt image is a cold start, never an error).
    pub fn new(config: EngineConfig) -> Self {
        let mut surrogates: BTreeMap<(u64, u64), Arc<dyn CostBackend>> = BTreeMap::new();
        let mut restored_generation = 0;
        if let Some(path) = &config.surrogate_store {
            for snap in load_surrogate_snapshots(path).unwrap_or_default() {
                restored_generation = restored_generation.max(snap.generation);
                surrogates.insert(
                    surrogate_key_for_tech(&snap.tech),
                    Arc::new(SurrogateBackend::from_snapshot(&snap)),
                );
            }
        }
        let stores = Stores::new(config.cache_capacity);
        if let Some(path) = &config.cache_path {
            stores.load(path);
        }
        let shared = EngineShared {
            stores: Arc::new(stores),
            restored_surrogate_backends: surrogates.len(),
            restored_surrogate_generation: restored_generation,
            surrogates: Mutex::new(surrogates),
            cache_path: config.cache_path,
            cache_max_age: config.cache_max_age,
            surrogate_store: config.surrogate_store,
            surrogate_save: Mutex::new(()),
            surrogate_dirty: AtomicBool::new(false),
            jobs_executed: AtomicU64::new(0),
            next_job_id: AtomicU64::new(1),
            telemetry: config.metrics.clone(),
        };
        Engine {
            shared: Arc::new(shared),
            scheduler: JobScheduler::new(config.job_slots).with_telemetry(config.metrics),
        }
    }

    /// Concurrent job slots.
    pub fn job_slots(&self) -> usize {
        self.scheduler.slots()
    }

    /// Entries currently in the pair memo.
    pub fn warm_entries(&self) -> usize {
        self.shared.stores.pairs.len()
    }

    /// Jobs actually executed so far (campaign duplicates excluded).
    pub fn jobs_executed(&self) -> u64 {
        // detlint-allow(atomics): monotone counter read for observability accessors
        self.shared.jobs_executed.load(Ordering::Relaxed)
    }

    /// Trained surrogate backends currently in the registry (restored
    /// ones included).
    pub fn surrogate_backends(&self) -> usize {
        lock_recover(&self.shared.surrogates).len()
    }

    /// Surrogate backends restored from the persisted store at engine
    /// creation (0 on a cold start).
    pub fn restored_surrogate_backends(&self) -> usize {
        self.shared.restored_surrogate_backends
    }

    /// Highest training generation restored from the persisted surrogate
    /// store at engine creation (0 on a cold start) — the warm-restart
    /// smoke signal: a restarted engine that re-learned nothing reports
    /// the generation its predecessor had reached.
    pub fn restored_surrogate_generation(&self) -> u64 {
        self.shared.restored_surrogate_generation
    }

    /// Validates and enqueues one request; it starts as soon as a slot is
    /// free. The returned handle streams events, cancels, and waits. A
    /// surrogate screen forks the registry **now**, synchronously — not
    /// when the job starts — so the training a job starts from depends
    /// only on the submissions and waits the caller already performed.
    ///
    /// # Errors
    /// Returns [`HascoError::InvalidOptions`] for option combinations
    /// that would silently degenerate ([`CoDesignOptions::validate`]) and
    /// [`HascoError::EmptyApp`] for an empty application.
    pub fn submit(&self, request: CoDesignRequest) -> Result<JobHandle, HascoError> {
        let (tx, rx) = channel();
        let job = self.admit_inner(request, EventSink::new(tx), Some(rx), Arc::default())?;
        Ok(self.spawn(job))
    }

    /// [`Engine::submit`] without an event channel, for the callers that
    /// never read the stream — the one-shot
    /// [`CoDesigner::run`](crate::CoDesigner::run) and
    /// [`Engine::campaign`] — which would otherwise buffer whole runs of
    /// events nobody reads.
    /// [`JobHandle::events`] on the returned handle yields nothing.
    pub(crate) fn submit_quiet(&self, request: CoDesignRequest) -> Result<JobHandle, HascoError> {
        let job = self.admit_inner(request, EventSink::disabled(), None, Arc::default())?;
        Ok(self.spawn(job))
    }

    /// Hands an admitted job to the executors.
    fn spawn(&self, job: JobBody) -> JobHandle {
        let handle = job.handle();
        self.scheduler.spawn(Box::new(move || job.run()));
        handle
    }

    /// Admits one request like [`Engine::submit`] — validation, the job
    /// id, the surrogate fork and a [`JobHandle`] for cancel and wait —
    /// but leaves running it to the caller: [`AdmittedJob::run`] waits
    /// for a slot, from the same budget the executors draw on, and runs
    /// the job on the calling thread. A serving handler that waits on its
    /// job anyway saves the hand-off to an executor and back.
    ///
    /// Every event goes to `on_event`, on the running thread, and no
    /// channel is opened ([`JobHandle::events`] yields nothing). When
    /// `on_event` returns false (its listener is gone) the job is
    /// cancelled, as by [`JobHandle::cancel`].
    ///
    /// # Errors
    /// As [`Engine::submit`].
    pub fn admit(
        &self,
        request: CoDesignRequest,
        on_event: impl Fn(RunEvent) -> bool + Send + Sync + 'static,
    ) -> Result<(JobHandle, AdmittedJob<'_>), HascoError> {
        let cancel = Arc::new(AtomicBool::new(false));
        let sink = EventSink::callback(Arc::new(on_event), Arc::clone(&cancel));
        let body = self.admit_inner(request, sink, None, cancel)?;
        Ok((
            body.handle(),
            AdmittedJob {
                scheduler: &self.scheduler,
                body: Some(body),
            },
        ))
    }

    /// Validates a request and builds its job: `sink` takes its events,
    /// `events` is the channel its handle streams (if any), and `cancel`
    /// is the flag its handle raises.
    fn admit_inner(
        &self,
        request: CoDesignRequest,
        sink: EventSink,
        events: Option<Receiver<RunEvent>>,
        cancel: Arc<AtomicBool>,
    ) -> Result<JobBody, HascoError> {
        request.options.validate()?;
        if request.input.app.is_empty() {
            return Err(HascoError::EmptyApp);
        }
        // A surrogate screen tier starts from the registry's accumulated
        // training (forked, so this job's own training stays private
        // until its completion is observed).
        let (screen_backend, job_surrogate_key) =
            if request.options.backend == BackendKind::Surrogate {
                let key = surrogate_key(&request.options);
                let forked = lock_recover(&self.shared.surrogates)
                    .get(&key)
                    .and_then(|prev| prev.as_surrogate())
                    .map(|prev| {
                        let fork = prev.fork();
                        // GP fit/predict timings land in the engine's
                        // registry (no-op if a handle is already
                        // installed or telemetry is disabled).
                        fork.install_telemetry(self.shared.telemetry.clone());
                        Arc::new(fork) as Arc<dyn CostBackend>
                    });
                (forked, Some(key))
            } else {
                (None, None)
            };

        let state = Arc::new(JobState {
            // detlint-allow(atomics): fetch_add hands out unique ids under any ordering; ids follow the caller's submit program order
            id: self.shared.next_job_id.fetch_add(1, Ordering::Relaxed),
            cancel: Arc::clone(&cancel),
            outcome: Mutex::new(None),
            done: Condvar::new(),
            events: Mutex::new(events),
            published: AtomicBool::new(false),
            surrogate_key: job_surrogate_key,
        });
        let ctx = ExecCtx {
            label: request.label.clone(),
            events: sink,
            cancel,
            stores: Arc::clone(&self.shared.stores),
            screen_backend,
            telemetry: self.shared.telemetry.clone(),
        };
        Ok(JobBody {
            request,
            ctx,
            state,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Fans a scenario matrix through the engine: deduplicates identical
    /// requests (same workloads, method, constraints, and options — the
    /// duplicate gets the representative's solution without running), then
    /// submits the unique ones in waves of [`Engine::job_slots`], waiting
    /// out each wave before admitting the next. Every scenario prices
    /// through the live store, so later scenarios reuse whatever earlier
    /// ones evaluated. Results come back in input order; for non-learning
    /// screen tiers they are independent of wave boundaries and job
    /// interleaving (warmth changes wall time, never solutions).
    /// Surrogate-screened scenarios inherit training from earlier waves by
    /// design — deterministic in the matrix order, but a different split
    /// into waves can shift what each wave's fork has learned.
    ///
    /// # Errors
    /// The first failing scenario aborts the campaign with its error.
    pub fn campaign(
        &self,
        requests: Vec<CoDesignRequest>,
    ) -> Result<Vec<CampaignOutcome>, HascoError> {
        // Exact-request dedup across the matrix. Duplicates never get a
        // job (or a handle) of their own — they are resolved to a clone
        // of the representative's solution after it completes, so there
        // is nothing a duplicate could cancel out from under the other
        // waiters, and `jobs_executed` counts each unique request once.
        let mut representative: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        let mut unique: Vec<CoDesignRequest> = Vec::new();
        // Per input request: (index into `unique`, own label when this
        // request was deduplicated away).
        let mut assignment: Vec<(usize, Option<String>)> = Vec::with_capacity(requests.len());
        for request in requests {
            let fp = request.fingerprint();
            match representative.get(&fp) {
                Some(&slot) => assignment.push((slot, Some(request.label))),
                None => {
                    representative.insert(fp, unique.len());
                    assignment.push((unique.len(), None));
                    unique.push(request);
                }
            }
        }
        // Dedup-rate counters accumulate across campaigns, so a session's
        // snapshot reports how much the fingerprint dedup actually saved.
        self.shared
            .telemetry
            .counter_add("campaign.scenarios", assignment.len() as u64);
        self.shared
            .telemetry
            .counter_add("campaign.unique_jobs", unique.len() as u64);
        self.shared.telemetry.counter_add(
            "campaign.deduplicated",
            (assignment.len() - unique.len()) as u64,
        );

        // Waves: within a wave, surrogate jobs fork the same registry
        // state; between waves, each wait publishes, so the next wave
        // inherits the training. Equivalent evaluations (e.g. edge vs.
        // cloud rows, which differ only in constraints) are shared
        // through the live store whatever the waves.
        let mut solutions: Vec<Option<Solution>> = (0..unique.len()).map(|_| None).collect();
        let mut labels: Vec<String> = unique.iter().map(|r| r.label.clone()).collect();
        for (slot, label) in labels.iter_mut().enumerate() {
            if label.is_empty() {
                *label = format!("scenario-{slot}");
            }
        }
        // Slot indices below come from `enumerate()` over `unique`, and
        // `labels` was built with one entry per `unique` element — a
        // missing label degrades to an empty string instead of panicking
        // a serving thread.
        let label_of = |slot: usize| labels.get(slot).cloned().unwrap_or_default();
        let wave_size = self.job_slots().max(1);
        let mut pending: Vec<(usize, CoDesignRequest)> = unique.into_iter().enumerate().collect();
        while !pending.is_empty() {
            let wave: Vec<(usize, CoDesignRequest)> =
                pending.drain(..wave_size.min(pending.len())).collect();
            let mut handles = Vec::with_capacity(wave.len());
            for (slot, request) in wave {
                handles.push((slot, self.submit_quiet(request)?));
            }
            for (slot, handle) in handles {
                // detlint-allow(panic-safety): slot < unique.len() by construction (enumerate over unique) and solutions was sized to unique.len()
                solutions[slot] = Some(handle.wait()?);
            }
        }

        Ok(assignment
            .into_iter()
            .map(|(slot, own_label)| CampaignOutcome {
                // detlint-allow(panic-safety): every assignment slot was drained through a wave above, which filled solutions[slot] before returning
                solution: solutions[slot].clone().expect("every wave was awaited"),
                shared_with: own_label.is_some().then(|| label_of(slot)),
                label: own_label.unwrap_or_else(|| label_of(slot)),
            })
            .collect())
    }

    /// Writes the persisted stores to the configured cache path (one
    /// image, each store merged newest-wins with what the file holds and
    /// age-GC'd by `cache_max_age`) and the surrogate registry to the
    /// configured surrogate store. Returns the memo entries written;
    /// `Ok(0)` without a configured cache path.
    ///
    /// # Errors
    /// Propagates I/O errors from writing either image. Both saves are
    /// always attempted — a failing surrogate-store path never costs memo
    /// persistence, and vice versa; the memo error is reported first.
    pub fn persist(&self) -> std::io::Result<u64> {
        let memo = match &self.shared.cache_path {
            None => Ok(0),
            Some(path) => self.shared.stores.save(path, self.shared.cache_max_age),
        };
        let surrogates = self.shared.save_surrogates();
        let written = memo?;
        surrogates?;
        Ok(written)
    }

    /// Completed final explorations currently in the finals store.
    pub fn final_entries(&self) -> usize {
        self.shared.stores.finals.len()
    }

    /// Scored MOBO acquisitions currently in the acquisition store.
    pub fn acquisition_entries(&self) -> usize {
        self.shared.stores.acquisitions.len()
    }

    /// Snapshots the telemetry registry (`None` when metrics are
    /// disabled), refreshing the point-in-time gauges first: every job's
    /// lookups in the per-shard cache scopes `"store"`, `"finals"` and
    /// `"acquisitions"` (a hit is a software exploration, a final
    /// exploration or a MOBO acquisition not run), the warm-entry count,
    /// and registered surrogate backends.
    pub fn metrics(&self) -> Option<TelemetrySnapshot> {
        let telemetry = &self.shared.telemetry;
        if !telemetry.is_enabled() {
            return None;
        }
        self.shared.stores.report(telemetry);
        telemetry.gauge_set("engine.warm_entries", self.warm_entries() as u64);
        telemetry.gauge_set(
            "engine.surrogate_backends",
            self.surrogate_backends() as u64,
        );
        telemetry.snapshot()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Best-effort persistence of whatever the stores gained since the
        // last explicit persist. (A job still running when this check
        // happens saves nothing of its own; the scheduler join below
        // still lets it finish.)
        if self.shared.stores.is_stale() {
            let _ = self.persist();
        // detlint-allow(atomics): surrogate-store save gating; a stale read at worst saves once more
        } else if self.shared.surrogate_dirty.load(Ordering::Relaxed) {
            let _ = self.shared.save_surrogates();
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("job_slots", &self.job_slots())
            .field("warm_entries", &self.warm_entries())
            .field("jobs_executed", &self.jobs_executed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use accel_model::arch::AcceleratorConfig;
    use proptest::prelude::*;
    use runtime::wire::Wire;
    use tensor_ir::intrinsics::IntrinsicKind;

    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hasco-engine-store-{name}-{}.bin",
            std::process::id()
        ))
    }

    /// Writes `payload` as a framed store and loads it back.
    fn load_store(path: &std::path::Path, magic: &[u8; 8], payload: &[u8]) -> usize {
        std::fs::write(path, persist::frame(magic, payload)).unwrap();
        Engine::new(EngineConfig::default().with_surrogate_store(path))
            .restored_surrogate_backends()
    }

    /// Two snapshots, one trained and one fresh, in the layout a save
    /// writes: the valid payload the mutation proptest starts from.
    fn valid_store_payload() -> &'static [u8] {
        static PAYLOAD: OnceLock<Vec<u8>> = OnceLock::new();
        PAYLOAD.get_or_init(|| {
            let trained = BackendKind::Surrogate.build();
            for (rows, kb) in [(8u32, 128u64), (16, 256), (32, 512), (8, 512)] {
                let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
                    .pe_array(rows, rows)
                    .scratchpad_kb(kb)
                    .build()
                    .unwrap();
                trained.as_surrogate().unwrap().observe(&cfg);
            }
            let fresh = BackendKind::Surrogate.build();
            let snaps: Vec<SurrogateSnapshot> = [trained, fresh]
                .iter()
                .map(|b| b.as_surrogate().unwrap().snapshot())
                .collect();
            wire::to_bytes(&snaps)
        })
    }

    #[test]
    fn retired_surrogate_store_layout_is_a_cold_start() {
        let snap = BackendKind::Surrogate
            .build()
            .as_surrogate()
            .unwrap()
            .snapshot();
        // The `HASCOSR1` layout: an entry count, then `len u32 ++
        // snapshot` per entry, each snapshot its scalars followed by the
        // observed set and the training rows as bare counts.
        let mut entry = Vec::new();
        for c in snap.tech.to_array() {
            c.encode(&mut entry);
        }
        snap.min_train.encode(&mut entry);
        snap.max_train.encode(&mut entry);
        snap.trust_threshold.encode(&mut entry);
        snap.generation.encode(&mut entry);
        snap.digest.encode(&mut entry);
        snap.cv_error.encode(&mut entry);
        snap.trusted.encode(&mut entry);
        for count in [0u64, 0, 0] {
            count.encode(&mut entry); // observed, samples, dim
        }
        let mut payload = Vec::new();
        1u64.encode(&mut payload);
        (entry.len() as u32).encode(&mut payload);
        payload.extend_from_slice(&entry);

        let path = temp_store("sr1");
        assert_eq!(load_store(&path, b"HASCOSR1", &payload), 0);
        // The `HASCOSR2` store: the current payload, framed with the
        // previous checksum (the payload's `Fingerprinter` digest).
        let current = wire::to_bytes(&vec![snap]);
        let mut sr2 = b"HASCOSR2".to_vec();
        sr2.extend_from_slice(&(current.len() as u64).to_le_bytes());
        sr2.extend_from_slice(&current);
        let mut fp = runtime::Fingerprinter::new();
        fp.write_bytes(&current);
        sr2.extend_from_slice(&fp.finish().0.to_le_bytes());
        std::fs::write(&path, sr2).unwrap();
        let engine = Engine::new(EngineConfig::default().with_surrogate_store(&path));
        assert_eq!(engine.restored_surrogate_backends(), 0);
        // The same snapshot in the current layout restores.
        assert_eq!(load_store(&path, SURROGATE_STORE_MAGIC, &current), 1);
        std::fs::remove_file(&path).ok();
    }

    /// Frames `payload` as a store (so the checksum always passes and
    /// every byte reaches the snapshot decoder) and parses it: the parse
    /// must be a cold start or snapshots that re-encode to the same bytes.
    fn check_store(payload: &[u8], case: u64) -> Result<(), TestCaseError> {
        let path = temp_store(&format!("fuzz-{case}"));
        std::fs::write(&path, persist::frame(SURROGATE_STORE_MAGIC, payload)).unwrap();
        let parsed = load_surrogate_snapshots(&path);
        std::fs::remove_file(&path).ok();
        if let Some(snaps) = parsed {
            prop_assert_eq!(wire::to_bytes(&snaps), payload.to_vec());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn store_parse_never_panics_on_arbitrary_payloads(
            payload in prop::collection::vec(any::<u8>(), 0..256),
            case in any::<u64>(),
        ) {
            check_store(&payload, case)?;
        }

        #[test]
        fn store_parse_never_panics_on_mutated_stores(
            edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..4),
            cut in any::<u64>(),
            case in any::<u64>(),
        ) {
            let mut payload = valid_store_payload().to_vec();
            for (at, byte) in edits {
                let at = (at % payload.len() as u64) as usize;
                payload[at] = byte;
            }
            if cut % 4 == 0 {
                payload.truncate((cut >> 2) as usize % (payload.len() + 1));
            }
            check_store(&payload, case)?;
        }
    }

    #[test]
    fn request_and_surrogate_keys_are_pinned() {
        // The surrogate key re-keys restored store entries and the
        // request key dedups campaign scenarios; both must stay put.
        use crate::input::{Constraints, GenerationMethod};
        use tensor_ir::suites::gemm_workload;
        use tensor_ir::workload::TensorApp;

        let request = CoDesignRequest::new(
            InputDescription {
                app: TensorApp::new("toy", vec![gemm_workload("g", 64, 32, 16)]),
                method: GenerationMethod::Chisel(IntrinsicKind::Gemm),
                constraints: Constraints::latency_power(4.0, 900.0),
            },
            CoDesignOptions::quick(7),
        );
        assert_eq!(
            request.fingerprint(),
            (0x2e62449bf3437ac6, 0xb5ee567dbff9c4a5)
        );
        assert_eq!(
            surrogate_key_for_tech(&TechParams::default()),
            (0x093e85628b18795b, 0xd4429e4549ef2b52)
        );
    }
}
