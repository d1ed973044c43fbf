//! Remote batch dispatch: sharding expensive evaluation batches across
//! registered worker processes.
//!
//! [`RemoteBatchEvaluator`] plugs into the engine through the
//! [`runtime::BatchEvaluator`] seam the staged-fidelity evaluators
//! already use. The engine hands it a batch of
//! [`RemoteEvalRequest`]s (one per un-memoized (config, workload) pair of
//! a screening or refinement batch); the evaluator shards the batch
//! contiguously across every live worker, exchanges one
//! `BatchRequest`/`BatchResult` conversation per worker, and reassembles
//! the results in submission order.
//!
//! **Why worker count and worker death cannot change results.** Each
//! item's result is a pure function of the request itself (fresh
//! explorer, fresh RNG, backend rebuilt from `(BackendKind, TechParams)`
//! — see [`RemoteEvalRequest::evaluate`]), and the reassembly slot for
//! each item is fixed by its submission index. Sharding only decides
//! *where* a pure function runs. When a worker dies mid-batch its items
//! return to the pending set and are re-dispatched to surviving workers;
//! when none survive, the front-end evaluates the remainder in-process
//! with the very same `evaluate` body. Every path writes the same bits
//! into the same slot.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use accel_model::Metrics;
use hasco::remote::RemoteEvalRequest;
use runtime::BatchEvaluator;

use crate::proto::{self, Msg};

/// What one dispatch thread brings home: the worker, the shard indices
/// it held, and the exchange outcome.
type ShardOutcome = (WorkerConn, Vec<usize>, io::Result<Vec<Option<Metrics>>>);

/// Default bound on one batch exchange: covers trace-simulating a full
/// shard on a loaded worker with two orders of magnitude to spare, while
/// still unsticking the front-end from a hung peer eventually.
pub const DEFAULT_EXCHANGE_TIMEOUT: Duration = Duration::from_secs(600);

/// One registered worker connection, owned by the registry between
/// batches and checked out for the duration of one exchange.
#[derive(Debug)]
pub struct WorkerConn {
    /// Registration id, unique per serving process.
    pub id: u64,
    stream: TcpStream,
}

impl WorkerConn {
    /// Wraps an accepted, handshake-complete worker stream.
    pub fn new(id: u64, stream: TcpStream) -> Self {
        WorkerConn { id, stream }
    }

    /// Runs one `BatchRequest`/`BatchResult` exchange. Any I/O failure,
    /// protocol violation, sequence mismatch, or wrong result arity is
    /// an error — the caller drops the worker and re-dispatches.
    fn exchange(
        &mut self,
        seq: u64,
        items: &[RemoteEvalRequest],
        timeout: Duration,
    ) -> io::Result<Vec<Option<Metrics>>> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))?;
        proto::send(
            &mut self.stream,
            &Msg::BatchRequest {
                batch: seq,
                items: items.to_vec(),
            },
        )?;
        match proto::recv_expect(&mut self.stream)? {
            Msg::BatchResult { batch, results } if batch == seq && results.len() == items.len() => {
                Ok(results)
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("worker {}: unexpected reply {:?}", self.id, kind_of(&other)),
            )),
        }
    }

    /// Sends a liveness probe and waits briefly for the echo.
    pub fn ping(&mut self, nonce: u64, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))?;
        proto::send(&mut self.stream, &Msg::Ping { nonce })?;
        match proto::recv_expect(&mut self.stream)? {
            Msg::Pong { nonce: echo } if echo == nonce => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("worker {}: bad pong {:?}", self.id, kind_of(&other)),
            )),
        }
    }

    /// Asks the worker to exit; best-effort, the reply is not awaited.
    pub fn release(mut self) {
        let _ = proto::send(&mut self.stream, &Msg::Shutdown);
    }
}

fn kind_of(msg: &Msg) -> &'static str {
    match msg {
        Msg::ClientHello { .. } => "ClientHello",
        Msg::WorkerHello { .. } => "WorkerHello",
        Msg::HelloOk => "HelloOk",
        Msg::Submit { .. } => "Submit",
        Msg::Accepted { .. } => "Accepted",
        Msg::Event { .. } => "Event",
        Msg::Done { .. } => "Done",
        Msg::Cancel { .. } => "Cancel",
        Msg::CancelOk { .. } => "CancelOk",
        Msg::CampaignPlan { .. } => "CampaignPlan",
        Msg::CampaignDone { .. } => "CampaignDone",
        Msg::Persist => "Persist",
        Msg::PersistOk { .. } => "PersistOk",
        Msg::BatchRequest { .. } => "BatchRequest",
        Msg::BatchResult { .. } => "BatchResult",
        Msg::Ping { .. } => "Ping",
        Msg::Pong { .. } => "Pong",
        Msg::Shutdown => "Shutdown",
        Msg::ShutdownOk => "ShutdownOk",
        Msg::Error { .. } => "Error",
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    available: VecDeque<WorkerConn>,
    checked_out: usize,
    next_id: u64,
    batch_seq: u64,
}

/// The serving process's pool of live worker connections.
///
/// Workers register after their hello handshake and live here between
/// batches. Dispatch checks out every available worker for one exchange
/// round and checks survivors back in; a worker whose exchange failed is
/// simply not returned — dropping the connection is the whole
/// deregistration story.
#[derive(Debug, Default)]
pub struct WorkerRegistry {
    inner: Mutex<RegistryInner>,
}

impl WorkerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the pool, recovering from poisoning: the queue and
    /// counters are whole-value updates, and a panicked dispatch thread
    /// must not wedge worker checkout for every later batch.
    fn locked(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a handshake-complete worker stream; returns its id.
    pub fn register(&self, stream: TcpStream) -> u64 {
        let mut inner = self.locked();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.available.push_back(WorkerConn::new(id, stream));
        id
    }

    /// Live workers right now (available plus mid-exchange).
    pub fn live(&self) -> usize {
        let inner = self.locked();
        inner.available.len() + inner.checked_out
    }

    /// Checks out every currently-available worker and reserves a
    /// contiguous block of batch sequence numbers for the round.
    fn checkout_all(&self) -> (Vec<WorkerConn>, u64) {
        let mut inner = self.locked();
        let workers: Vec<WorkerConn> = inner.available.drain(..).collect();
        inner.checked_out += workers.len();
        let base = inner.batch_seq;
        inner.batch_seq += workers.len() as u64;
        (workers, base)
    }

    /// Returns one checked-out worker to the pool.
    fn checkin(&self, worker: WorkerConn) {
        let mut inner = self.locked();
        inner.checked_out = inner.checked_out.saturating_sub(1);
        inner.available.push_back(worker);
    }

    /// Forgets one checked-out worker (its connection just failed).
    fn discard(&self) {
        let mut inner = self.locked();
        inner.checked_out = inner.checked_out.saturating_sub(1);
    }

    /// Drains the pool, asking every available worker to exit.
    pub fn release_all(&self) {
        let workers: Vec<WorkerConn> = {
            let mut inner = self.locked();
            inner.available.drain(..).collect()
        };
        for w in workers {
            w.release();
        }
    }

    /// Sends one round of pings to all available workers and drops any
    /// that fail to echo. Returns (survivors, dropped).
    pub fn sweep(&self, nonce: u64, timeout: Duration) -> (usize, usize) {
        let (workers, _) = self.checkout_all();
        let mut kept = 0;
        let mut dropped = 0;
        for mut w in workers {
            if w.ping(nonce, timeout).is_ok() {
                self.checkin(w);
                kept += 1;
            } else {
                self.discard();
                dropped += 1;
            }
        }
        (kept, dropped)
    }
}

/// A [`BatchEvaluator`] that ships each batch to the registered workers
/// and falls back to in-process evaluation for whatever the fleet cannot
/// answer. See the module docs for the determinism argument.
#[derive(Debug)]
pub struct RemoteBatchEvaluator {
    registry: Arc<WorkerRegistry>,
    exchange_timeout: Duration,
}

impl RemoteBatchEvaluator {
    /// Dispatches over `registry` with the default exchange timeout.
    pub fn new(registry: Arc<WorkerRegistry>) -> Self {
        RemoteBatchEvaluator {
            registry,
            exchange_timeout: DEFAULT_EXCHANGE_TIMEOUT,
        }
    }

    /// Overrides the per-exchange socket timeout (tests use short ones).
    pub fn with_exchange_timeout(mut self, timeout: Duration) -> Self {
        self.exchange_timeout = timeout;
        self
    }
}

impl BatchEvaluator for RemoteBatchEvaluator {
    type Request = RemoteEvalRequest;
    type Response = Option<Metrics>;

    fn evaluate_batch(&self, batch: &[RemoteEvalRequest]) -> Vec<Option<Metrics>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let mut slots: Vec<Option<Option<Metrics>>> = vec![None; batch.len()];
        let mut pending: Vec<usize> = (0..batch.len()).collect();

        // Each round either fills every pending slot or loses at least
        // one worker, so the loop terminates; the in-process fallback
        // below covers a fully-dead fleet.
        while !pending.is_empty() {
            let (workers, seq_base) = self.registry.checkout_all();
            if workers.is_empty() {
                break;
            }
            let per = pending.len().div_ceil(workers.len());
            let shards: Vec<Vec<usize>> = pending.chunks(per).map(|c| c.to_vec()).collect();
            let mut workers = workers.into_iter();
            let mut outcomes: Vec<ShardOutcome> = Vec::new();
            // Shards whose dispatch thread panicked: their items go back
            // on the pending list like any failed exchange.
            let mut lost: Vec<Vec<usize>> = Vec::new();
            // Dispatch fan-out is I/O concurrency over sockets; results
            // land in index-fixed slots, so join order and thread
            // scheduling cannot reach results.
            // detlint-allow(ambient): socket fan-out with index-fixed result slots
            thread::scope(|s| {
                let mut handles = Vec::new();
                // `per` is `pending.len()` divided by the worker count
                // rounded up, so there are never more shards than
                // workers — `zip` pairs every shard with one.
                for (k, (shard, mut worker)) in shards.into_iter().zip(workers.by_ref()).enumerate()
                {
                    let items: Vec<RemoteEvalRequest> = shard
                        .iter()
                        .filter_map(|&i| batch.get(i).cloned())
                        .collect();
                    let seq = seq_base + k as u64;
                    let timeout = self.exchange_timeout;
                    let backup = shard.clone();
                    handles.push((
                        backup,
                        s.spawn(move || {
                            let res = worker.exchange(seq, &items, timeout);
                            (worker, shard, res)
                        }),
                    ));
                }
                for (backup, h) in handles {
                    match h.join() {
                        Ok(outcome) => outcomes.push(outcome),
                        // The thread (and the worker connection it owned)
                        // is gone; recover its shard from the backup.
                        Err(_) => lost.push(backup),
                    }
                }
            });
            // Workers beyond the shard count idled this round.
            for w in workers {
                self.registry.checkin(w);
            }
            pending.clear();
            for shard in lost {
                pending.extend(shard);
                self.registry.discard();
            }
            for (worker, shard, res) in outcomes {
                match res {
                    Ok(results) => {
                        for (i, m) in shard.into_iter().zip(results) {
                            if let Some(slot) = slots.get_mut(i) {
                                *slot = Some(m);
                            }
                        }
                        self.registry.checkin(worker);
                    }
                    Err(_) => {
                        // The worker died or violated the protocol: its
                        // items go back on the pending list and the
                        // connection is dropped.
                        pending.extend(shard);
                        self.registry.discard();
                    }
                }
            }
            pending.sort_unstable();
        }

        // In-process fallback: the same pure per-item function the
        // workers run, so a dead fleet degrades throughput, not results.
        for i in pending {
            if let (Some(slot), Some(request)) = (slots.get_mut(i), batch.get(i)) {
                *slot = Some(request.evaluate());
            }
        }
        slots
            .into_iter()
            // detlint-allow(panic-safety): every index 0..batch.len() is either filled by a dispatch round or still in pending, and the fallback loop above fills all of pending
            .map(|s| s.expect("every slot filled by dispatch or fallback"))
            .collect()
    }
}
