//! The serving front-end: a long-lived [`Engine`] behind a TCP listener.
//!
//! One serving process owns the warm state that makes co-design cheap —
//! the shared memo store and the trained surrogate registry — and makes
//! it reachable from other processes: serving clients submit jobs and
//! campaigns over [`crate::proto`] frames, evaluation workers register
//! and absorb expensive screening/refinement batches through the
//! [`crate::dispatch::RemoteBatchEvaluator`] installed into the engine.
//!
//! Connection supervision is deliberately boring: one thread per
//! connection, and a client that goes away mid-stream gets its job
//! cancelled (best effort — a cancel that loses the race to completion
//! is a no-op and the solution still lands in the warm store). Shutdown
//! stops admitting connections, releases the worker fleet, and drains
//! in-flight handlers up to a bounded grace period.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread;
use std::time::Duration;

use hasco::engine::{Engine, EngineConfig, JobHandle};
use hasco::HascoError;

use crate::dispatch::{RemoteBatchEvaluator, WorkerRegistry, DEFAULT_EXCHANGE_TIMEOUT};
use crate::proto::{self, Msg, PROTOCOL};

/// Tuning knobs of one serving process.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Hold submitted jobs until this many workers are registered.
    /// `0` (the default) runs immediately, evaluating in-process until
    /// workers show up. The gate makes "N-worker run" reproducible from
    /// scripts that start the fleet asynchronously — results never
    /// depend on it (see the dispatch module docs), only throughput.
    pub min_workers: usize,
    /// Socket timeout for one worker batch exchange.
    pub exchange_timeout: Duration,
    /// Socket timeout for writes to serving clients (event streams).
    pub client_write_timeout: Duration,
    /// Heartbeat period for idle-worker liveness sweeps.
    pub heartbeat_period: Duration,
    /// Socket timeout for one heartbeat ping/pong.
    pub heartbeat_timeout: Duration,
    /// Grace period for in-flight connections at shutdown.
    pub drain_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            min_workers: 0,
            exchange_timeout: DEFAULT_EXCHANGE_TIMEOUT,
            client_write_timeout: Duration::from_secs(60),
            heartbeat_period: Duration::from_secs(10),
            heartbeat_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(30),
        }
    }
}

/// Locks a supervision structure (connection counters, the job table,
/// the stop latch), recovering from poisoning: every one of them is
/// updated in single whole-value steps, and a handler that panicked
/// must not take the server's shutdown path or cancel routing down
/// with it.
fn lock_live<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct ServerInner {
    engine: Engine,
    registry: Arc<WorkerRegistry>,
    opts: ServerOptions,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// In-flight connection handlers, guarded for the drain condvar.
    active: Mutex<usize>,
    drained: Condvar,
    /// Running jobs by engine id, so `Cancel` frames (which arrive on
    /// fresh connections) can reach them.
    jobs: Mutex<BTreeMap<u64, JobHandle>>,
    /// Latched true once `shutdown` finished draining.
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
}

/// A running serving front-end. Dropping the handle does **not** stop
/// the server; call [`Server::shutdown`] (or send a `Shutdown` frame,
/// e.g. via [`crate::client::Client::shutdown_server`]).
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`), installs remote dispatch
    /// into `config`, starts the engine plus the accept and heartbeat
    /// threads, and returns immediately.
    pub fn bind(addr: &str, config: EngineConfig, opts: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let registry = Arc::new(WorkerRegistry::new());
        let evaluator = RemoteBatchEvaluator::new(Arc::clone(&registry))
            .with_exchange_timeout(opts.exchange_timeout);
        let engine = Engine::new(config.with_remote_evaluator(Arc::new(evaluator)));
        let inner = Arc::new(ServerInner {
            engine,
            registry,
            opts,
            addr: local,
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
            drained: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            stopped: Mutex::new(false),
            stopped_cv: Condvar::new(),
        });

        {
            let inner = Arc::clone(&inner);
            // The accept loop only routes connections; every
            // result-bearing computation happens in the engine under its
            // own determinism discipline.
            // detlint-allow(ambient): accept loop routes connections, computes nothing
            thread::spawn(move || accept_loop(listener, inner));
        }
        {
            // A weak handle: the sleeping heartbeat must not keep a shut
            // down server's engine (and its warm stores) alive for a
            // whole period.
            let inner = Arc::downgrade(&inner);
            // Liveness sweeps drop dead worker connections; dispatch
            // treats a dropped worker and a never-registered one
            // identically, so sweep timing cannot reach results.
            // detlint-allow(ambient): heartbeat only drops dead connections
            thread::spawn(move || heartbeat_loop(inner));
        }
        Ok(Server { inner })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Currently registered workers.
    pub fn workers(&self) -> usize {
        self.inner.registry.live()
    }

    /// The engine this server fronts (tests compare warm state).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Stops admitting connections, releases the worker fleet, persists
    /// the engine's warm state (best effort), and waits up to the drain
    /// timeout for in-flight handlers. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the blocking accept loop with a no-op connection.
        let _ = TcpStream::connect(self.inner.addr);
        self.inner.registry.release_all();
        let _ = self.inner.engine.persist();

        // Bounded drain without a wall clock: each pass waits up to the
        // full grace period and a timed-out pass gives up. A handler
        // finishing notifies the condvar, so the common case exits
        // immediately; only a genuine straggler costs the grace period.
        let mut active = lock_live(&self.inner.active);
        while *active > 0 {
            let (guard, wait) = self
                .inner
                .drained
                .wait_timeout(active, self.inner.opts.drain_timeout)
                .unwrap_or_else(PoisonError::into_inner);
            active = guard;
            if wait.timed_out() {
                break;
            }
        }
        drop(active);
        *lock_live(&self.inner.stopped) = true;
        self.inner.stopped_cv.notify_all();
    }

    /// Blocks until [`Server::shutdown`] ran to completion (locally or
    /// triggered by a client's `Shutdown` frame). The serve binary's
    /// main thread lives here.
    pub fn wait_for_shutdown(&self) {
        let mut stopped = lock_live(&self.inner.stopped);
        while !*stopped {
            stopped = self
                .inner
                .stopped_cv
                .wait(stopped)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<ServerInner>) {
    for stream in listener.incoming() {
        // SeqCst pairs with the swap in `shutdown`: an accept woken by
        // the dummy self-connect must observe the flag and exit.
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies and event streams are small frames: without
        // `TCP_NODELAY` each one can wait out the client's delayed ACK.
        // A stream that refuses the option is dropped, not served slowly.
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        {
            let mut active = lock_live(&inner.active);
            *active += 1;
        }
        let inner = Arc::clone(&inner);
        // One handler per connection; handlers only relay engine
        // results over the socket, never compute them.
        // detlint-allow(ambient): connection handlers relay, never compute
        thread::spawn(move || {
            handle_connection(stream, &Arc::clone(&inner));
            let mut active = lock_live(&inner.active);
            *active = active.saturating_sub(1);
            if *active == 0 {
                inner.drained.notify_all();
            }
        });
    }
}

fn heartbeat_loop(inner: Weak<ServerInner>) {
    let mut nonce = 0u64;
    loop {
        let Some(period) = inner.upgrade().map(|i| i.opts.heartbeat_period) else {
            return;
        };
        thread::sleep(period);
        let Some(inner) = inner.upgrade() else {
            return;
        };
        // SeqCst pairs with the swap in `shutdown`: the next tick after
        // shutdown must see the flag rather than sweep released workers.
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        nonce += 1;
        inner.registry.sweep(nonce, inner.opts.heartbeat_timeout);
    }
}

fn handle_connection(mut stream: TcpStream, inner: &Arc<ServerInner>) {
    let hello = match proto::recv(&mut stream) {
        Ok(Some(msg)) => msg,
        _ => return,
    };
    match hello {
        Msg::WorkerHello { protocol } => {
            if protocol != PROTOCOL {
                let _ = proto::send(&mut stream, &protocol_mismatch(&protocol));
                return;
            }
            if proto::send(&mut stream, &Msg::HelloOk).is_ok() {
                // Ownership of the stream moves to the registry; this
                // handler is done (dispatch threads do the talking).
                inner.registry.register(stream);
            }
        }
        Msg::ClientHello { protocol } => {
            if protocol != PROTOCOL {
                let _ = proto::send(&mut stream, &protocol_mismatch(&protocol));
                return;
            }
            if proto::send(&mut stream, &Msg::HelloOk).is_err() {
                return;
            }
            serve_client(stream, inner);
        }
        _ => {
            let _ = proto::send(
                &mut stream,
                &Msg::Error {
                    message: "expected a hello frame".to_string(),
                },
            );
        }
    }
}

fn protocol_mismatch(theirs: &str) -> Msg {
    Msg::Error {
        message: format!("protocol mismatch: server speaks {PROTOCOL}, peer sent {theirs}"),
    }
}

/// Handles the one request a serving client sends after its hello.
fn serve_client(mut stream: TcpStream, inner: &Arc<ServerInner>) {
    let request = match proto::recv(&mut stream) {
        Ok(Some(msg)) => msg,
        _ => return,
    };
    let _ = stream.set_write_timeout(Some(inner.opts.client_write_timeout));
    match request {
        Msg::Submit { request } => serve_submit(stream, inner, request),
        Msg::CampaignPlan { requests } => serve_campaign(stream, inner, requests),
        Msg::Cancel { job_id } => {
            let found = {
                let jobs = lock_live(&inner.jobs);
                jobs.get(&job_id).map(JobHandle::cancel).is_some()
            };
            let _ = proto::send(&mut stream, &Msg::CancelOk { found });
        }
        Msg::Persist => {
            let reply = match inner.engine.persist() {
                Ok(entries) => Msg::PersistOk { entries },
                Err(e) => Msg::Error {
                    message: format!("persist failed: {e}"),
                },
            };
            let _ = proto::send(&mut stream, &reply);
        }
        Msg::Ping { nonce } => {
            let _ = proto::send(&mut stream, &Msg::Pong { nonce });
        }
        Msg::Shutdown => {
            let _ = proto::send(&mut stream, &Msg::ShutdownOk);
            // Re-enter the public shutdown path on a detached thread: it
            // waits for active handlers (this one included) to drain.
            let server = Server {
                inner: Arc::clone(inner),
            };
            // detlint-allow(ambient): shutdown choreography only, no results flow here
            thread::spawn(move || server.shutdown());
        }
        _ => {
            let _ = proto::send(
                &mut stream,
                &Msg::Error {
                    message: "expected a request frame".to_string(),
                },
            );
        }
    }
}

fn serve_submit(mut stream: TcpStream, inner: &ServerInner, request: hasco::CoDesignRequest) {
    if !wait_for_workers(inner) {
        let _ = proto::send(&mut stream, &shutting_down());
        return;
    }
    let handle = match inner.engine.submit(request) {
        Ok(handle) => handle,
        Err(e) => {
            let _ = proto::send(&mut stream, &Msg::Done { result: Err(e) });
            return;
        }
    };
    let job_id = handle.id();
    lock_live(&inner.jobs).insert(job_id, handle.clone());
    // Stream events live. Frames collect in `out` and leave in one write
    // as soon as the next event is not ready yet, so none waits while
    // this handler blocks; `Done` leaves with whatever the stream's end
    // left pending. A client that stops reading (or disconnects) turns
    // into a write error here; supervision cancels its job.
    let mut out = Vec::new();
    proto::push(&mut out, &Msg::Accepted { job_id });
    let mut events = handle.events();
    let mut client_lost = false;
    loop {
        let event = match events.try_next() {
            Ok(event) => Some(event),
            Err(TryRecvError::Disconnected) => None,
            Err(TryRecvError::Empty) => {
                if stream.write_all(&out).is_err() {
                    client_lost = true;
                    handle.cancel();
                    break;
                }
                out.clear();
                events.next()
            }
        };
        let Some(event) = event else { break };
        proto::push(&mut out, &Msg::Event { event });
    }
    // `wait` also publishes the job's trained surrogate into the engine —
    // the serving process observes every job it runs.
    let result = handle.wait();
    lock_live(&inner.jobs).remove(&job_id);
    if !client_lost {
        proto::push(&mut out, &Msg::Done { result });
        let _ = stream.write_all(&out);
    }
}

fn serve_campaign(
    mut stream: TcpStream,
    inner: &ServerInner,
    requests: Vec<hasco::CoDesignRequest>,
) {
    if !wait_for_workers(inner) {
        let _ = proto::send(&mut stream, &shutting_down());
        return;
    }
    let result = inner.engine.campaign(requests);
    let _ = proto::send(&mut stream, &Msg::CampaignDone { result });
}

fn shutting_down() -> Msg {
    Msg::Done {
        result: Err(HascoError::Transport("server is shutting down".to_string())),
    }
}

/// Blocks until the worker gate is satisfied (or shutdown). Returns
/// false when the server is shutting down.
fn wait_for_workers(inner: &ServerInner) -> bool {
    loop {
        // SeqCst pairs with the swap in `shutdown`: a gated job must
        // observe the flag so drain never waits on a parked handler.
        if inner.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if inner.registry.live() >= inner.opts.min_workers {
            return true;
        }
        thread::sleep(Duration::from_millis(25));
    }
}

#[cfg(test)]
mod tests {
    use hasco::codesign::CoDesignOptions;
    use hasco::input::{Constraints, GenerationMethod, InputDescription};
    use hasco::CoDesignRequest;
    use tensor_ir::suites::gemm_workload;
    use tensor_ir::workload::TensorApp;

    use super::*;

    #[test]
    fn a_previous_protocol_hello_is_refused_and_runs_nothing() {
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(1),
            ServerOptions::default(),
        )
        .expect("bind loopback");
        let mut stream = proto::connect(server.addr()).unwrap();
        proto::send(
            &mut stream,
            &Msg::ClientHello {
                protocol: "HASCONET4".into(),
            },
        )
        .unwrap();
        match proto::recv_expect(&mut stream).unwrap() {
            Msg::Error { message } => assert!(message.contains("protocol mismatch"), "{message}"),
            other => panic!("expected a protocol-mismatch error, got {other:?}"),
        }
        // A submit sent anyway is never read: the server hung up.
        let request = CoDesignRequest::new(
            InputDescription {
                app: TensorApp::new("toy", vec![gemm_workload("g", 64, 32, 16)]),
                method: GenerationMethod::Gemmini,
                constraints: Constraints::default(),
            },
            CoDesignOptions::quick(1),
        );
        let _ = proto::send(&mut stream, &Msg::Submit { request });
        assert!(!matches!(proto::recv(&mut stream), Ok(Some(_))));
        server.shutdown();
        assert_eq!(server.engine().jobs_executed(), 0);
    }
}
