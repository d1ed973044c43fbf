//! The serving front-end: a long-lived [`Engine`] behind a TCP listener.
//!
//! One serving process owns the warm state that makes co-design cheap —
//! the shared memo store and the trained surrogate registry — and makes
//! it reachable from other processes: serving clients submit jobs and
//! campaigns over [`crate::proto`] frames, evaluation workers register
//! and absorb expensive screening/refinement batches through the
//! [`crate::dispatch::RemoteBatchEvaluator`] installed into the engine.
//!
//! Connection supervision is deliberately boring: one handler thread per
//! connection. A client connection is kept open and serves one request
//! at a time until the client hangs up, a reply cannot be written, or
//! the server shuts down; a client that goes away mid-stream gets its
//! job cancelled (best effort — a cancel that loses the race to
//! completion is a no-op and the solution still lands in the warm
//! store). A handler is busy only from reading a request to writing its
//! reply. Shutdown stops admitting connections, releases the worker
//! fleet, closes every idle connection, and waits up to a bounded grace
//! period for the busy handlers to write their replies and for every
//! handler to exit, so that no handler holds the engine once it returns.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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
    /// Grace period for in-flight requests at shutdown.
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

/// Locks a supervision structure (the connection table, the job table,
/// the stop latch), recovering from poisoning: every one of them is
/// updated in single whole-value steps, and a handler that panicked
/// must not take the server's shutdown path or cancel routing down
/// with it.
fn lock_live<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The connections a server's handlers hold open.
#[derive(Default)]
struct Connections {
    /// The next connection's number.
    next: u64,
    /// A clone of each open connection's stream by number, and whether
    /// its handler is busy: between reading a request and writing its
    /// reply. An entry leaves when its handler exits.
    open: BTreeMap<u64, (TcpStream, bool)>,
}

/// The connection table and its drain condvar. A handler holds this past
/// its last use of the engine, so an empty table means that no handler
/// holds the engine any more.
#[derive(Default)]
struct Drain {
    conns: Mutex<Connections>,
    drained: Condvar,
}

impl Drain {
    /// Removes connection `id` as its handler exits.
    fn untrack(&self, id: u64) {
        let mut conns = lock_live(&self.conns);
        conns.open.remove(&id);
        if conns.open.is_empty() {
            self.drained.notify_all();
        }
    }
}

struct ServerInner {
    engine: Engine,
    registry: Arc<WorkerRegistry>,
    opts: ServerOptions,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Open connections, shared with their handlers.
    drain: Arc<Drain>,
    /// Running jobs by engine id, so `Cancel` frames (which arrive on
    /// other connections) can reach them.
    jobs: Mutex<BTreeMap<u64, JobHandle>>,
    /// Latched true once `shutdown` finished draining.
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
}

impl ServerInner {
    /// Enters a new connection into the table; `None` once shutdown
    /// began (or the stream cannot be cloned), and the connection then
    /// goes unserved.
    fn track(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut conns = lock_live(&self.drain.conns);
        // SeqCst pairs with the swap in `shutdown`, which sweeps the
        // table under this lock: an entry made after the swap would be
        // missed by the sweep.
        if self.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let id = conns.next;
        conns.next += 1;
        conns.open.insert(id, (clone, false));
        Some(id)
    }

    /// Marks connection `id` busy or idle. False once shutdown began: a
    /// request read then goes unserved, and a handler done with its reply
    /// closes its connection, because the shutdown sweep has passed it by.
    fn set_busy(&self, id: u64, busy: bool) -> bool {
        let mut conns = lock_live(&self.drain.conns);
        // SeqCst pairs with the swap in `shutdown`, as in `track`.
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if let Some(entry) = conns.open.get_mut(&id) {
            entry.1 = busy;
        }
        true
    }
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
            drain: Arc::default(),
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
    /// the engine's warm state (best effort), closes every idle
    /// connection, and waits up to the drain timeout for the busy
    /// handlers to write their replies and for every handler to exit.
    /// Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the blocking accept loop with a no-op connection.
        let _ = TcpStream::connect(self.inner.addr);
        self.inner.registry.release_all();
        let _ = self.inner.engine.persist();

        // An idle handler reads the end of its stream and exits; a busy
        // one finds the flag once its reply is written and exits too.
        let drain = &self.inner.drain;
        let mut conns = lock_live(&drain.conns);
        for (stream, busy) in conns.open.values() {
            if !busy {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // Bounded drain without a wall clock: each pass waits up to the
        // full grace period and a timed-out pass gives up. An exiting
        // handler notifies the condvar, so the common case exits
        // immediately; only a genuine straggler costs the grace period.
        while !conns.open.is_empty() {
            let (guard, wait) = drain
                .drained
                .wait_timeout(conns, self.inner.opts.drain_timeout)
                .unwrap_or_else(PoisonError::into_inner);
            conns = guard;
            if wait.timed_out() {
                break;
            }
        }
        drop(conns);
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
        let inner = Arc::clone(&inner);
        // One handler per connection; handlers only relay engine
        // results over the socket, never compute them.
        // detlint-allow(ambient): connection handlers relay, never compute
        thread::spawn(move || {
            if let Some(id) = inner.track(&stream) {
                handle_connection(stream, &inner, id);
                // Let go of the engine before leaving the table: the
                // drain at shutdown ends only once no handler holds it.
                let drain = Arc::clone(&inner.drain);
                drop(inner);
                drain.untrack(id);
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

fn handle_connection(mut stream: TcpStream, inner: &Arc<ServerInner>, id: u64) {
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
            serve_client(stream, inner, id);
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

/// Serves a client's requests one at a time, until the client hangs up,
/// sends something undecodable, a reply cannot be written, or the
/// server shuts down.
fn serve_client(stream: TcpStream, inner: &Arc<ServerInner>, id: u64) {
    let _ = stream.set_write_timeout(Some(inner.opts.client_write_timeout));
    // A client sends its next request only after the last reply, so the
    // buffer never holds more than the request being read.
    let mut conn = BufReader::new(stream);
    while let Ok(Some(request)) = proto::recv(&mut conn) {
        if !inner.set_busy(id, true) {
            return;
        }
        let kept = serve_request(conn.get_mut(), inner, request);
        if !inner.set_busy(id, false) || !kept {
            return;
        }
    }
}

/// Serves one request; returns whether the connection stays open for
/// the next.
fn serve_request(stream: &mut TcpStream, inner: &Arc<ServerInner>, request: Msg) -> bool {
    match request {
        Msg::Submit { request } => serve_submit(stream, inner, request),
        Msg::CampaignPlan { requests } => serve_campaign(stream, inner, requests),
        Msg::Cancel { job_id } => {
            let found = {
                let jobs = lock_live(&inner.jobs);
                jobs.get(&job_id).map(JobHandle::cancel).is_some()
            };
            proto::send(stream, &Msg::CancelOk { found }).is_ok()
        }
        Msg::Persist => {
            let reply = match inner.engine.persist() {
                Ok(entries) => Msg::PersistOk { entries },
                Err(e) => Msg::Error {
                    message: format!("persist failed: {e}"),
                },
            };
            proto::send(stream, &reply).is_ok()
        }
        Msg::Ping { nonce } => proto::send(stream, &Msg::Pong { nonce }).is_ok(),
        Msg::Shutdown => {
            let _ = proto::send(stream, &Msg::ShutdownOk);
            // Re-enter the public shutdown path on a detached thread: it
            // waits for every handler, this one included, to exit.
            let server = Server {
                inner: Arc::clone(inner),
            };
            // detlint-allow(ambient): shutdown choreography only, no results flow here
            thread::spawn(move || server.shutdown());
            false
        }
        _ => {
            let _ = proto::send(
                stream,
                &Msg::Error {
                    message: "expected a request frame".to_string(),
                },
            );
            false
        }
    }
}

fn serve_submit(
    stream: &mut TcpStream,
    inner: &ServerInner,
    request: hasco::CoDesignRequest,
) -> bool {
    if !wait_for_workers(inner) {
        let _ = proto::send(stream, &shutting_down());
        return false;
    }
    let handle = match inner.engine.submit(request) {
        Ok(handle) => handle,
        Err(e) => return proto::send(stream, &Msg::Done { result: Err(e) }).is_ok(),
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
    if client_lost {
        return false;
    }
    proto::push(&mut out, &Msg::Done { result });
    stream.write_all(&out).is_ok()
}

fn serve_campaign(
    stream: &mut TcpStream,
    inner: &ServerInner,
    requests: Vec<hasco::CoDesignRequest>,
) -> bool {
    if !wait_for_workers(inner) {
        let _ = proto::send(stream, &shutting_down());
        return false;
    }
    let result = inner.engine.campaign(requests);
    proto::send(stream, &Msg::CampaignDone { result }).is_ok()
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
    use std::time::Instant;

    use rand::{Rng, SeedableRng};

    use crate::client::Client;
    use crate::testing::{rejected_request, toy_request};

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
                protocol: "HASCONET5".into(),
            },
        )
        .unwrap();
        match proto::recv_expect(&mut stream).unwrap() {
            Msg::Error { message } => assert!(message.contains("protocol mismatch"), "{message}"),
            other => panic!("expected a protocol-mismatch error, got {other:?}"),
        }
        // A submit sent anyway is never read: the server hung up.
        let _ = proto::send(
            &mut stream,
            &Msg::Submit {
                request: toy_request(1),
            },
        );
        assert!(!matches!(proto::recv(&mut stream), Ok(Some(_))));
        server.shutdown();
        assert_eq!(server.engine().jobs_executed(), 0);
    }

    /// `(open, busy)` connections in the server's table.
    fn table(server: &Server) -> (usize, usize) {
        let conns = lock_live(&server.inner.drain.conns);
        let busy = conns.open.values().filter(|(_, busy)| *busy).count();
        (conns.open.len(), busy)
    }

    /// Waits until the server's table shows `open` idle connections.
    fn settle(server: &Server, open: usize) {
        let start = Instant::now();
        while table(server) != (open, 0) {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "table stuck at {:?}, want ({open}, 0)",
                table(server)
            );
            thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn garbage_on_a_kept_connection_closes_only_that_connection() {
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(1),
            ServerOptions::default(),
        )
        .expect("bind loopback");
        let bystander = Client::connect(server.addr().to_string()).unwrap();
        let kept = bystander.idle_ports();
        settle(&server, 1);

        let mut frame_like = Vec::new();
        proto::push(&mut frame_like, &Msg::Ping { nonce: 9 });
        let mut cases: Vec<Vec<u8>> = vec![
            // A whole valid frame whose checksum is off.
            {
                let mut f = frame_like.clone();
                let last = f.len() - 1;
                f[last] ^= 1;
                f
            },
            // The magic and a length far past the payload bound.
            [&proto::FRAME_MAGIC[..], &u64::MAX.to_le_bytes()[..]].concat(),
            // A valid frame cut short, and one byte of a magic.
            frame_like[..frame_like.len() - 3].to_vec(),
            b"H".to_vec(),
            // A checksummed frame of an unknown tag.
            runtime::persist::frame(proto::FRAME_MAGIC, &[200]),
        ];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(36);
        for _ in 0..24 {
            let len = rng.gen_range(1..96);
            cases.push(
                (0..len)
                    .map(|_| rng.gen::<u64>().to_le_bytes()[0])
                    .collect(),
            );
        }

        for garbage in cases {
            let mut stream = proto::connect(server.addr()).unwrap();
            proto::send(
                &mut stream,
                &Msg::ClientHello {
                    protocol: PROTOCOL.into(),
                },
            )
            .unwrap();
            assert!(matches!(proto::recv(&mut stream), Ok(Some(Msg::HelloOk))));
            proto::send(&mut stream, &Msg::Ping { nonce: 3 }).unwrap();
            assert!(matches!(
                proto::recv(&mut stream),
                Ok(Some(Msg::Pong { nonce: 3 }))
            ));
            stream.write_all(&garbage).unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            // The server answers nothing and hangs up.
            match proto::recv(&mut stream) {
                Ok(None) => {}
                Err(e) => assert!(
                    !matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ),
                    "the server kept a connection that sent {garbage:?}"
                ),
                Ok(Some(msg)) => panic!("the server answered {garbage:?} with {msg:?}"),
            }
            // Its handler left the table; the bystander's stayed, idle.
            settle(&server, 1);
        }

        bystander
            .ping()
            .expect("the bystander's connection still serves");
        assert_eq!(bystander.idle_ports(), kept);
        Client::connect(server.addr().to_string())
            .and_then(|fresh| fresh.ping())
            .expect("a fresh client is served");
        let start = Instant::now();
        server.shutdown();
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn shutdown_closes_idle_pooled_connections_instead_of_waiting_for_them() {
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(1),
            ServerOptions {
                drain_timeout: Duration::from_secs(30),
                ..ServerOptions::default()
            },
        )
        .expect("bind loopback");
        let addr = server.addr().to_string();
        let clients = [
            Client::connect(&addr).unwrap(),
            Client::connect(&addr).unwrap(),
        ];
        for client in &clients {
            // A job holds one connection while a ping opens a second;
            // both end up idle in the pool.
            let job = client.submit(toy_request(1)).unwrap();
            client.ping().unwrap();
            job.wait().expect("the toy job solves");
            assert_eq!(client.idle_ports().len(), 2);
        }
        settle(&server, 4);

        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown waited {:?} on idle connections",
            start.elapsed()
        );
        assert_eq!(table(&server), (0, 0));

        let (tx, rx) = std::sync::mpsc::channel();
        let submits: Vec<_> = clients
            .into_iter()
            .map(|client| {
                let tx = tx.clone();
                thread::spawn(move || {
                    let _ = tx.send(client.submit(rejected_request()).map(|_| ()));
                })
            })
            .collect();
        for _ in &submits {
            let result = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a submit to a stopped server returns");
            assert!(
                matches!(result, Err(HascoError::Transport(_))),
                "{result:?}"
            );
        }
        for submit in submits {
            submit.join().expect("a submit thread never panics");
        }
    }
}
