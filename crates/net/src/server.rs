//! The serving front-end: a long-lived [`Engine`] behind a TCP listener.
//!
//! One serving process owns the warm state that makes co-design cheap —
//! the shared memo store and the trained surrogate registry — and makes
//! it reachable from other processes: serving clients submit jobs and
//! campaigns over [`crate::proto`] frames, and every job prices on the
//! engine's own worker pools.
//!
//! Connection supervision is deliberately boring: one handler thread per
//! connection. A client connection is kept open and serves one request
//! at a time until the client hangs up, a reply cannot be written, or
//! the server shuts down. A handler is busy only from reading a request
//! to writing its reply.
//!
//! A `Submit` runs on the handler's own thread ([`Engine::admit`]): the
//! handler answers `Accepted` as soon as the job is admitted, waits for
//! a slot from the engine's one `job_slots` budget (in-process
//! submissions draw on it too, and slots go out in arrival order), and
//! runs the job. Its
//! `Event` frames collect in one reply buffer that leaves with `Done`,
//! so a warm job answers in one write; once a job has run for 1 ms
//! (`FLUSH_AFTER`), each event is written as it is emitted, so a long
//! job still streams. The rule is checked as events are emitted, so the
//! events of a job's first millisecond wait for its next event (on a
//! cold job, the end of its first DSE batch). A client that goes away mid-stream gets its job
//! cancelled at the next failed write (best effort — a cancel that
//! loses the race to completion is a no-op and the solution still lands
//! in the warm store). A client that stops reading without hanging up
//! holds its job's slot until the write times out
//! ([`ServerOptions::client_write_timeout`], 60 s by default).
//!
//! Shutdown stops admitting connections, closes every idle connection,
//! and waits up to a bounded grace period for the busy handlers to write
//! their replies and for every handler to exit, so that no handler holds
//! the engine once it returns.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use hasco::engine::{Engine, EngineConfig, JobHandle};
use hasco::event::RunEvent;

use crate::proto::{self, Msg, PROTOCOL};

/// Tuning knobs of one serving process.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Socket timeout for writes to serving clients (event streams). A
    /// served job runs on its connection's thread, so a client that
    /// stops reading holds the job's slot until this runs out.
    pub client_write_timeout: Duration,
    /// Grace period for in-flight requests at shutdown.
    pub drain_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            client_write_timeout: Duration::from_secs(60),
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
    opts: ServerOptions,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Open connections, shared with their handlers.
    drain: Arc<Drain>,
    /// Running jobs by engine id, so `Cancel` frames (which arrive on
    /// other connections) can reach them.
    jobs: Mutex<BTreeMap<u64, JobHandle>>,
    /// Set once `shutdown` finished draining.
    stopped: Latch,
}

/// A one-way latch that threads can wait on.
#[derive(Default)]
struct Latch {
    set: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn set(&self) {
        *lock_live(&self.set) = true;
        self.cv.notify_all();
    }

    /// Waits until the latch is set.
    fn wait(&self) {
        let set = lock_live(&self.set);
        let _set = self
            .cv
            .wait_while(set, |set| !*set)
            .unwrap_or_else(PoisonError::into_inner);
    }
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
    /// Binds `addr` (e.g. `"127.0.0.1:0"`), starts the engine and the
    /// accept thread, and returns immediately.
    pub fn bind(addr: &str, config: EngineConfig, opts: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(ServerInner {
            engine: Engine::new(config),
            opts,
            addr: local,
            shutdown: AtomicBool::new(false),
            drain: Arc::default(),
            jobs: Mutex::new(BTreeMap::new()),
            stopped: Latch::default(),
        });

        let accept = Arc::clone(&inner);
        // The accept loop only routes connections; every result-bearing
        // computation happens in the engine under its own determinism
        // discipline.
        // detlint-allow(ambient): accept loop routes connections, computes nothing
        thread::spawn(move || accept_loop(listener, accept));
        Ok(Server { inner })
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The engine this server fronts (tests compare warm state).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Stops admitting connections, persists the engine's warm state
    /// (best effort), closes every idle connection, and waits up to the
    /// drain timeout for the busy handlers to write their replies and for
    /// every handler to exit. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the blocking accept loop with a no-op connection.
        let _ = TcpStream::connect(self.inner.addr);
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
        self.inner.stopped.set();
    }

    /// Blocks until [`Server::shutdown`] ran to completion (locally or
    /// triggered by a client's `Shutdown` frame). The serve binary's
    /// main thread lives here.
    pub fn wait_for_shutdown(&self) {
        self.inner.stopped.wait();
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

fn handle_connection(mut stream: TcpStream, inner: &Arc<ServerInner>, id: u64) {
    let hello = match proto::recv(&mut stream) {
        Ok(Some(msg)) => msg,
        _ => return,
    };
    match hello {
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
    // Shared with a running job's reply, which writes its events.
    let stream = Arc::new(stream);
    // A client sends its next request only after the last reply, so the
    // buffer never holds more than the request being read.
    let mut conn = BufReader::new(&*stream);
    while let Ok(Some(request)) = proto::recv(&mut conn) {
        if !inner.set_busy(id, true) {
            return;
        }
        let kept = serve_request(&stream, inner, request);
        if !inner.set_busy(id, false) || !kept {
            return;
        }
    }
}

/// Writes one message; false once the client is gone.
fn send(stream: &TcpStream, msg: &Msg) -> bool {
    proto::send(&mut &*stream, msg).is_ok()
}

/// Serves one request; returns whether the connection stays open for
/// the next.
fn serve_request(stream: &Arc<TcpStream>, inner: &Arc<ServerInner>, request: Msg) -> bool {
    match request {
        Msg::Submit { request } => serve_submit(stream, inner, request),
        Msg::CampaignPlan { requests } => serve_campaign(stream, inner, requests),
        Msg::Cancel { job_id } => {
            let found = {
                let jobs = lock_live(&inner.jobs);
                jobs.get(&job_id).map(JobHandle::cancel).is_some()
            };
            send(stream, &Msg::CancelOk { found })
        }
        Msg::Persist => {
            let reply = match inner.engine.persist() {
                Ok(entries) => Msg::PersistOk { entries },
                Err(e) => Msg::Error {
                    message: format!("persist failed: {e}"),
                },
            };
            send(stream, &reply)
        }
        Msg::Ping { nonce } => send(stream, &Msg::Pong { nonce }),
        Msg::Shutdown => {
            let _ = send(stream, &Msg::ShutdownOk);
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
            let _ = send(
                stream,
                &Msg::Error {
                    message: "expected a request frame".to_string(),
                },
            );
            false
        }
    }
}

/// How long a served job runs before its events leave as they are
/// emitted. Until then they collect in the reply, so a job that ends
/// sooner (every warm job) answers in one write, and a longer one still
/// streams. The clock is read only when an event is emitted: events
/// collected in the first `FLUSH_AFTER` leave with the next event, or
/// with `Done`.
const FLUSH_AFTER: Duration = Duration::from_millis(1);

/// A served job's reply: `Event` frames collect here and leave with
/// `Done`, or as they are emitted once the job has run for
/// [`FLUSH_AFTER`]. Events are emitted on the handler thread, which runs
/// the job; the lock is never held across a write.
struct Reply {
    stream: Arc<TcpStream>,
    state: Mutex<Pending>,
}

/// What a reply has not written yet.
#[derive(Default)]
struct Pending {
    out: Vec<u8>,
    /// When the job emitted its first event.
    since: Option<Instant>,
    /// A write failed: the client is gone.
    lost: bool,
}

impl Reply {
    /// The job's event callback; false once the client is gone, which
    /// cancels the job.
    fn event(&self, event: RunEvent) -> bool {
        let out = {
            let mut pending = lock_live(&self.state);
            if pending.lost {
                return false;
            }
            proto::push(&mut pending.out, &Msg::Event { event });
            // detlint-allow(wall-clock): the flush clock decides when reply bytes are written, never what they hold
            let since = *pending.since.get_or_insert_with(Instant::now);
            if since.elapsed() < FLUSH_AFTER {
                return true;
            }
            std::mem::take(&mut pending.out)
        };
        self.write(&out)
    }

    /// Writes whatever is pending followed by `last`; false once the
    /// client is gone.
    fn finish(&self, last: &Msg) -> bool {
        let out = {
            let mut pending = lock_live(&self.state);
            if pending.lost {
                return false;
            }
            let mut out = std::mem::take(&mut pending.out);
            proto::push(&mut out, last);
            out
        };
        self.write(&out)
    }

    fn write(&self, out: &[u8]) -> bool {
        let written = (&*self.stream).write_all(out).is_ok();
        if !written {
            lock_live(&self.state).lost = true;
        }
        written
    }
}

/// Admits a job, answers `Accepted` at once, and runs the job on this
/// handler's thread once a slot is free; the reply's events and `Done`
/// follow by [`Reply`]'s flush rule. A client that stops reading (or
/// disconnects) turns into a write error; the job is then cancelled.
fn serve_submit(
    stream: &Arc<TcpStream>,
    inner: &ServerInner,
    request: hasco::CoDesignRequest,
) -> bool {
    let reply = Arc::new(Reply {
        stream: Arc::clone(stream),
        state: Mutex::default(),
    });
    let on_event = {
        let reply = Arc::clone(&reply);
        move |event| reply.event(event)
    };
    let (handle, job) = match inner.engine.admit(request, on_event) {
        Ok(admitted) => admitted,
        Err(e) => return send(stream, &Msg::Done { result: Err(e) }),
    };
    let job_id = handle.id();
    // Listed before `Accepted` leaves, so a `Cancel` the client sends on
    // reading it finds the job.
    lock_live(&inner.jobs).insert(job_id, handle.clone());
    // `Accepted` leaves before the job waits for a slot, so the client's
    // `id` and `cancel` never wait on the job's progress. On a failed
    // write the unrun job is dropped, which discards it.
    if send(stream, &Msg::Accepted { job_id }) {
        job.run();
    } else {
        drop(job);
    }
    // `wait` also publishes the job's trained surrogate into the engine —
    // the serving process observes every job it runs.
    let result = handle.wait();
    lock_live(&inner.jobs).remove(&job_id);
    reply.finish(&Msg::Done { result })
}

fn serve_campaign(
    stream: &TcpStream,
    inner: &ServerInner,
    requests: Vec<hasco::CoDesignRequest>,
) -> bool {
    let result = inner.engine.campaign(requests);
    send(stream, &Msg::CampaignDone { result })
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use hasco::HascoError;
    use rand::{Rng, SeedableRng};

    use crate::client::{Client, RemoteJob};
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
                protocol: "HASCONET6".into(),
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
    fn served_and_in_process_jobs_share_one_slot() {
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(1),
            ServerOptions::default(),
        )
        .expect("bind loopback");
        let engine = server.engine();
        thread::scope(|scope| {
            // A caller-run job holds the only slot until the test lets it go.
            let (gate, release) = hold_the_slot(scope, engine);
            let addr = server.addr().to_string();
            let clients = [
                Client::connect(&addr).unwrap(),
                Client::connect(&addr).unwrap(),
            ];
            let served: Vec<_> = clients
                .iter()
                .zip(3..)
                .map(|(client, seed)| client.submit(toy_request(seed)).unwrap())
                .collect();
            // `Accepted` leaves at admission, before the slot wait.
            let ids: Vec<u64> = served.iter().map(RemoteJob::id).collect();
            assert!(ids.iter().all(|&id| id != u64::MAX), "{ids:?}");
            let local = engine.submit(toy_request(5)).unwrap();

            // While the gate holds the slot, none of the three starts.
            thread::sleep(Duration::from_millis(150));
            assert_eq!(engine.jobs_executed(), 1);
            assert!(!local.is_finished());

            release.send(()).unwrap();
            gate.wait().expect("the gate job solves");
            local.wait().expect("the in-process job solves");
            for job in &served {
                job.wait().expect("a served job solves");
            }
            assert_eq!(engine.jobs_executed(), 4);
        });
        server.shutdown();
    }

    /// Admits a caller-run job, run on a `scope` thread, that holds the
    /// only slot of `engine` from its `Started` event until the returned
    /// sender is used or dropped.
    fn hold_the_slot<'s>(
        scope: &'s thread::Scope<'s, '_>,
        engine: &'s Engine,
    ) -> (JobHandle, std::sync::mpsc::Sender<()>) {
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let released = Mutex::new(released);
        let (gate, gate_job) = engine
            .admit(toy_request(2), move |event| {
                if matches!(event, RunEvent::Started { .. }) {
                    let _ = started_tx.send(());
                    let _ = lock_live(&released).recv();
                }
                true
            })
            .unwrap();
        scope.spawn(move || gate_job.run());
        started.recv_timeout(Duration::from_secs(10)).unwrap();
        (gate, release)
    }

    #[test]
    fn a_clone_cancels_a_gated_job_while_another_thread_waits_on_it() {
        // The job waits for the slot an in-process job holds.
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(1),
            ServerOptions::default(),
        )
        .expect("bind loopback");
        thread::scope(|scope| {
            let (gate, release) = hold_the_slot(scope, server.engine());
            let client = Client::connect(server.addr().to_string()).unwrap();
            let job = client.submit(toy_request(3)).unwrap();
            let (waited_tx, waited) = std::sync::mpsc::channel();
            {
                let job = job.clone();
                thread::spawn(move || {
                    let _ = waited_tx.send(job.wait());
                });
            }
            // Let the waiter take the job's stream before the clone cancels.
            thread::sleep(Duration::from_millis(50));
            let (cancelled_tx, cancelled) = std::sync::mpsc::channel();
            {
                let job = job.clone();
                thread::spawn(move || {
                    job.cancel();
                    cancelled_tx.send(())
                });
            }
            cancelled
                .recv_timeout(Duration::from_secs(5))
                .expect("cancel returns while the job waits for the slot");
            release.send(()).unwrap();
            gate.wait().expect("the gate job solves");
            let result = waited
                .recv_timeout(Duration::from_secs(5))
                .expect("the cancelled job ends once the slot frees");
            assert!(matches!(result, Err(HascoError::Cancelled)), "{result:?}");
        });
        // Only the gate job executed.
        assert_eq!(server.engine().jobs_executed(), 1);
        server.shutdown();
    }

    #[test]
    fn a_cold_job_streams_events_before_done() {
        let server = Server::bind(
            "127.0.0.1:0",
            EngineConfig::default().with_job_slots(1),
            ServerOptions::default(),
        )
        .expect("bind loopback");
        let mut request = toy_request(6);
        request.options.hw_trials = 32;
        let stream = proto::connect(server.addr()).unwrap();
        let mut conn = BufReader::new(stream);
        proto::send(
            conn.get_mut(),
            &Msg::ClientHello {
                protocol: PROTOCOL.into(),
            },
        )
        .unwrap();
        assert!(matches!(proto::recv(&mut conn), Ok(Some(Msg::HelloOk))));
        proto::send(conn.get_mut(), &Msg::Submit { request }).unwrap();
        let Ok(Some(Msg::Accepted { job_id })) = proto::recv(&mut conn) else {
            panic!("the submit is accepted");
        };
        // The first event frame arrives while the job still runs: past
        // the flush deadline, events leave as they are emitted.
        assert!(matches!(
            proto::recv(&mut conn),
            Ok(Some(Msg::Event { .. }))
        ));
        let running = lock_live(&server.inner.jobs)
            .get(&job_id)
            .is_some_and(|job| !job.is_finished());
        assert!(running, "the first event waited for the end of the job");
        let mut events = 1;
        loop {
            match proto::recv(&mut conn) {
                Ok(Some(Msg::Event { .. })) => events += 1,
                Ok(Some(Msg::Done { result })) => {
                    result.expect("the job solves");
                    break;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(events > 3, "{events} events");
        server.shutdown();
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
                    // The submit only writes; the job's first read finds
                    // the server gone.
                    let result = client
                        .submit(rejected_request())
                        .and_then(|job| job.wait().map(|_| ()));
                    let _ = tx.send(result);
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
