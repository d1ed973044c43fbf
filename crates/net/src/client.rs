//! The serving client: a thin blocking façade that makes a remote
//! engine feel like [`hasco::Engine`].
//!
//! A [`Client`] is an address plus a pool of idle connections that have
//! already passed the hello handshake. Every operation checks one out,
//! or opens one when none is idle, speaks one request/response (or
//! request/stream) conversation on it, and hands it back once the reply
//! is complete. A warm job therefore pays neither a TCP connect nor a
//! hello. A connection carries one conversation at a time, so two jobs
//! in flight hold two connections, and the pool never holds more
//! connections than the caller had conversations in flight at once. A
//! connection whose conversation broke off (a job dropped or failed
//! mid-stream) is closed, never pooled. Clones of a client share its
//! pool; the warm state lives server-side, which is the whole point of
//! serving.
//!
//! [`Client::submit`] writes the `Submit` frame and returns at once, so
//! a caller can send its next request while the server runs this one.
//! The job's first read — [`RemoteJob::events`], [`RemoteJob::wait`],
//! [`RemoteJob::id`] or [`RemoteJob::cancel`] — takes the server's
//! `Accepted`, or the immediate `Done` of a rejected submit. The server
//! runs the job on the connection's own handler thread and writes its
//! events and `Done` together, so a warm job costs one write each way.
//!
//! A pooled connection may have been closed by the server since its last
//! use (the server shut down or restarted). That shows before the first
//! reply frame: the send fails, or the stream ends or resets. The request
//! is then sent once more, on a fresh connection; a job keeps its encoded
//! request until its first reply frame arrives for that.
//!
//! Everything a transport can get wrong surfaces as
//! [`HascoError::Transport`]; errors the *engine* produced come back as
//! their original variants, so a caller cannot tell a served run from an
//! in-process one by its error shapes either.

use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use hasco::engine::{CampaignOutcome, CoDesignRequest};
use hasco::event::RunEvent;
use hasco::solution::Solution;
use hasco::HascoError;

use crate::proto::{self, transport_err, Msg, PROTOCOL};

/// A connection past the hello handshake. Replies are read through the
/// buffer: the server hands several frames over in one write, one read
/// takes them all, and the next frames come from the buffer.
type Conn = BufReader<TcpStream>;

/// Idle connections, shared by a client's clones and its jobs.
type Pool = Arc<Mutex<Vec<Conn>>>;

/// Locks a client-side structure, recovering from poisoning: the pool
/// and a job's state are updated in whole-value steps, so a peer thread
/// that panicked mid-call must not take this caller down too.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A handle to a serving front-end at a fixed address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    idle: Pool,
}

impl Client {
    /// Builds a client and verifies the server is reachable and speaks
    /// our protocol (one hello round trip). The verified connection
    /// becomes the pool's first.
    ///
    /// # Errors
    /// [`HascoError::Transport`] when the server is unreachable or
    /// speaks a different protocol version.
    pub fn connect(addr: impl Into<String>) -> Result<Client, HascoError> {
        let client = Client {
            addr: addr.into(),
            idle: Pool::default(),
        };
        let conn = client.open()?;
        client.put_back(conn);
        Ok(client)
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Opens a fresh connection and completes the client hello.
    fn open(&self) -> Result<Conn, HascoError> {
        let mut stream = proto::connect(self.addr.as_str())
            .map_err(|e| transport_err(&format!("connect {}", self.addr), &e))?;
        proto::send(
            &mut stream,
            &Msg::ClientHello {
                protocol: PROTOCOL.to_string(),
            },
        )
        .map_err(|e| transport_err("hello send", &e))?;
        let mut conn = BufReader::new(stream);
        match proto::recv_expect(&mut conn).map_err(|e| transport_err("hello recv", &e))? {
            Msg::HelloOk => Ok(conn),
            Msg::Error { message } => Err(HascoError::Transport(message)),
            _ => Err(HascoError::Transport(
                "server sent a non-hello reply".to_string(),
            )),
        }
    }

    /// Returns a connection whose conversation ended to the pool.
    fn put_back(&self, conn: Conn) {
        lock(&self.idle).push(conn);
    }

    /// Sends one encoded request, on an idle connection when there is
    /// one and the send succeeds, else on a fresh one. Returns the
    /// connection and whether it came from the pool.
    fn send(&self, frame: &[u8]) -> Result<(Conn, bool), HascoError> {
        let pooled = lock(&self.idle).pop();
        if let Some(mut conn) = pooled {
            if conn.get_mut().write_all(frame).is_ok() {
                return Ok((conn, true));
            }
        }
        Ok((self.send_fresh(frame)?, false))
    }

    /// Sends one encoded request on a fresh connection.
    fn send_fresh(&self, frame: &[u8]) -> Result<Conn, HascoError> {
        let mut conn = self.open()?;
        conn.get_mut()
            .write_all(frame)
            .map_err(|e| transport_err("request send", &e))?;
        Ok(conn)
    }

    /// Reads the first reply frame to `frame`. On a pooled connection
    /// the server has closed since, the stream ends or resets first: the
    /// request then goes out once more, on a fresh connection that
    /// replaces `conn`.
    fn first_reply(&self, conn: &mut Conn, pooled: bool, frame: &[u8]) -> Result<Msg, HascoError> {
        if let Some(reply) = read_reply(conn)? {
            return Ok(reply);
        }
        if pooled {
            *conn = self.send_fresh(frame)?;
            if let Some(reply) = read_reply(conn)? {
                return Ok(reply);
            }
        }
        Err(HascoError::Transport(
            "server closed the connection before replying".to_string(),
        ))
    }

    /// Submits one job and returns as soon as the request is written;
    /// the handle's first read takes the server's answer.
    ///
    /// # Errors
    /// [`HascoError::Transport`] when the request cannot be sent;
    /// validation errors surface from [`RemoteJob::wait`], exactly like
    /// [`hasco::Engine::submit`] surfaces them from the handle.
    pub fn submit(&self, request: CoDesignRequest) -> Result<RemoteJob, HascoError> {
        let mut frame = Vec::new();
        proto::push(&mut frame, &Msg::Submit { request });
        let (conn, pooled) = self.send(&frame)?;
        Ok(RemoteJob {
            client: self.clone(),
            shared: Arc::new(JobShared {
                id: OnceLock::new(),
                stream: Mutex::new(JobStream {
                    conn: Some(conn),
                    request: Some((frame, pooled)),
                    result: None,
                }),
            }),
        })
    }

    /// Runs a campaign matrix to completion on the server: the served
    /// form of [`hasco::Engine::campaign`], with the same outcomes.
    ///
    /// # Errors
    /// The campaign's own error, or [`HascoError::Transport`].
    pub fn campaign(
        &self,
        requests: Vec<CoDesignRequest>,
    ) -> Result<Vec<CampaignOutcome>, HascoError> {
        match self.round_trip(&Msg::CampaignPlan { requests })? {
            Msg::CampaignDone { result } => result,
            Msg::Error { message } => Err(HascoError::Transport(message)),
            _ => Err(HascoError::Transport(
                "server sent a non-campaign reply".to_string(),
            )),
        }
    }

    /// Asks the server to persist its warm state; returns memo entries
    /// written.
    ///
    /// # Errors
    /// [`HascoError::Transport`] on connection or server-side failure.
    pub fn persist(&self) -> Result<u64, HascoError> {
        match self.round_trip(&Msg::Persist)? {
            Msg::PersistOk { entries } => Ok(entries),
            Msg::Error { message } => Err(HascoError::Transport(message)),
            _ => Err(HascoError::Transport(
                "server sent a non-persist reply".to_string(),
            )),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// [`HascoError::Transport`] when the server is gone.
    pub fn ping(&self) -> Result<(), HascoError> {
        match self.round_trip(&Msg::Ping { nonce: 1 })? {
            Msg::Pong { nonce: 1 } => Ok(()),
            _ => Err(HascoError::Transport("bad pong".to_string())),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    /// [`HascoError::Transport`] when the server is already gone.
    pub fn shutdown_server(&self) -> Result<(), HascoError> {
        match self.round_trip(&Msg::Shutdown)? {
            Msg::ShutdownOk => Ok(()),
            _ => Err(HascoError::Transport(
                "server sent a non-shutdown reply".to_string(),
            )),
        }
    }

    /// One request and its one reply frame; the connection goes back to
    /// the pool.
    fn round_trip(&self, msg: &Msg) -> Result<Msg, HascoError> {
        let mut frame = Vec::new();
        proto::push(&mut frame, msg);
        let (mut conn, pooled) = self.send(&frame)?;
        let reply = self.first_reply(&mut conn, pooled, &frame)?;
        self.put_back(conn);
        Ok(reply)
    }
}

/// Reads one reply frame. `Ok(None)` means the peer had closed the
/// connection before a reply began: the stream ended or reset.
fn read_reply(conn: &mut Conn) -> Result<Option<Msg>, HascoError> {
    match proto::recv(conn) {
        Ok(reply) => Ok(reply),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(transport_err("reply recv", &e)),
    }
}

/// The job id of a submit that never got one (rejected, or lost).
const NO_JOB: u64 = u64::MAX;

/// A job's state, shared by the clones of its handle.
#[derive(Debug)]
struct JobShared {
    /// The server-side job id, set by the first read.
    id: OnceLock<u64>,
    stream: Mutex<JobStream>,
}

#[derive(Debug)]
struct JobStream {
    /// The live connection; `None` once the terminal frame arrived (or
    /// the job was resolved by its first read).
    conn: Option<Conn>,
    /// The encoded `Submit` and whether it went out on a pooled
    /// connection, kept until the first reply frame is read.
    request: Option<(Vec<u8>, bool)>,
    result: Option<Result<Solution, HascoError>>,
}

/// A handle to a job running on a serving front-end. The remote
/// counterpart of [`hasco::engine::JobHandle`]: same `id` / `events` /
/// `wait` / `cancel` surface, same event stream bits, same result bits.
#[derive(Debug, Clone)]
pub struct RemoteJob {
    client: Client,
    shared: Arc<JobShared>,
}

impl RemoteJob {
    /// The server-side job id. The first read on the job: it waits for
    /// the server's answer to the submit, which the server sends as soon
    /// as it admits the job. A rejected submit has no id (`u64::MAX`).
    ///
    /// Every read takes the answer here, under a lock of its own, before
    /// it reads on: the stream lock it then holds for the rest of the
    /// job is never held while the id is still unknown, so `id` and
    /// `cancel` on a clone wait for the answer at most.
    pub fn id(&self) -> u64 {
        if let Some(&id) = self.shared.id.get() {
            return id;
        }
        self.accept(&mut lock(&self.shared.stream));
        self.shared.id.get().copied().unwrap_or(NO_JOB)
    }

    /// The job's live event stream: a blocking iterator ending after the
    /// terminal event, bit-identical to the in-process stream of the
    /// same request. Like [`hasco::engine::JobHandle::events`], the live
    /// stream is effectively consumed once — iterating after the
    /// terminal frame yields nothing.
    pub fn events(&self) -> RemoteEvents {
        RemoteEvents { job: self.clone() }
    }

    /// Blocks until the job finishes (draining any unread events) and
    /// returns its result.
    ///
    /// # Errors
    /// Exactly what `JobHandle::wait` would return in-process, plus
    /// [`HascoError::Transport`] when the connection died first.
    pub fn wait(&self) -> Result<Solution, HascoError> {
        self.id();
        let mut stream = lock(&self.shared.stream);
        loop {
            if let Some(result) = stream.result.clone() {
                return result;
            }
            self.next_event(&mut stream);
        }
    }

    /// Requests cancellation on a fresh connection, dropped afterwards:
    /// the event stream occupies the job's own. Best-effort, like
    /// in-process cancel: losing the race to completion is a no-op.
    pub fn cancel(&self) {
        let job_id = self.id();
        if job_id == NO_JOB {
            return;
        }
        if let Ok(mut conn) = self.client.open() {
            if proto::send(conn.get_mut(), &Msg::Cancel { job_id }).is_ok() {
                let _ = proto::recv(&mut conn);
            }
        }
    }

    /// Takes the first reply frame, unless a read already did: `Accepted`
    /// sets the job id; a rejected submit's `Done` or a failure resolves
    /// the job at once. Either way the id is set afterwards.
    fn accept(&self, stream: &mut JobStream) {
        let Some((frame, pooled)) = stream.request.take() else {
            return;
        };
        let Some(conn) = stream.conn.as_mut() else {
            return;
        };
        let result = match self.client.first_reply(conn, pooled, &frame) {
            Ok(Msg::Accepted { job_id }) => {
                let _ = self.shared.id.set(job_id);
                return;
            }
            // A rejected submission (validation error) arrives as an
            // immediate `Done`; the conversation is complete.
            Ok(Msg::Done { result }) => {
                if let Some(conn) = stream.conn.take() {
                    self.client.put_back(conn);
                }
                result
            }
            Ok(Msg::Error { message }) => Err(HascoError::Transport(message)),
            Ok(_) => Err(HascoError::Transport(
                "server sent a non-submit reply".to_string(),
            )),
            Err(e) => Err(e),
        };
        let _ = self.shared.id.set(NO_JOB);
        stream.conn = None;
        stream.result = Some(result);
    }

    /// Reads frames until the next event, once [`RemoteJob::id`] took the
    /// first reply. Returns `None` at (and after) the terminal frame,
    /// stashing the result. After `Done` the connection returns to the
    /// pool; after anything else it closes.
    fn next_event(&self, stream: &mut JobStream) -> Option<RunEvent> {
        loop {
            let conn = stream.conn.as_mut()?;
            let result = match proto::recv_expect(conn) {
                Ok(Msg::Event { event }) => return Some(event),
                Ok(Msg::Done { result }) => {
                    if let Some(conn) = stream.conn.take() {
                        self.client.put_back(conn);
                    }
                    result
                }
                Ok(Msg::Error { message }) => Err(HascoError::Transport(message)),
                Ok(_) => continue,
                Err(e) => Err(transport_err("event stream", &e)),
            };
            stream.result = Some(result);
            stream.conn = None;
            return None;
        }
    }
}

/// Blocking iterator over a remote job's [`RunEvent`]s.
#[derive(Debug)]
pub struct RemoteEvents {
    job: RemoteJob,
}

impl Iterator for RemoteEvents {
    type Item = RunEvent;

    fn next(&mut self) -> Option<RunEvent> {
        self.job.id();
        self.job.next_event(&mut lock(&self.job.shared.stream))
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use hasco::engine::EngineConfig;

    use super::*;
    use crate::server::{Server, ServerOptions};
    use crate::testing::{rejected_request, toy_request};

    impl Client {
        /// The local ports of the idle connections, oldest first: a
        /// test's view of which connections the pool keeps.
        pub(crate) fn idle_ports(&self) -> Vec<u16> {
            lock(&self.idle)
                .iter()
                .map(|conn| conn.get_ref().local_addr().map_or(0, |a| a.port()))
                .collect()
        }
    }

    fn server(config: EngineConfig) -> Server {
        Server::bind("127.0.0.1:0", config, ServerOptions::default()).expect("bind loopback")
    }

    #[test]
    fn a_rejected_submit_and_an_error_reply_keep_the_connection() {
        // Persisting into a directory that does not exist fails on the
        // server, which answers with an `Error` frame.
        let missing = std::env::temp_dir()
            .join(format!("hasco-net-missing-{}", std::process::id()))
            .join("memo.bin");
        let server = server(
            EngineConfig::default()
                .with_job_slots(1)
                .with_cache_path(&missing),
        );
        let client = Client::connect(server.addr().to_string()).unwrap();
        let kept = client.idle_ports();
        assert_eq!(kept.len(), 1);

        let rejected = client.submit(rejected_request()).unwrap();
        assert!(matches!(
            rejected.wait(),
            Err(HascoError::InvalidOptions(_))
        ));
        assert_eq!(client.idle_ports(), kept);

        match client.persist() {
            Err(HascoError::Transport(message)) => {
                assert!(message.contains("persist failed"), "{message}");
            }
            other => panic!("expected a persist failure, got {other:?}"),
        }
        assert_eq!(client.idle_ports(), kept);

        client.ping().unwrap();
        assert_eq!(client.idle_ports(), kept);
        server.shutdown();
    }

    #[test]
    fn a_cancelled_job_returns_its_connection() {
        let server = server(EngineConfig::default().with_job_slots(1));
        let client = Client::connect(server.addr().to_string()).unwrap();
        let kept = client.idle_ports();

        let job = client.submit(toy_request(3)).unwrap();
        assert!(
            client.idle_ports().is_empty(),
            "the job holds the connection"
        );
        job.cancel();
        // The cancel may lose the race to completion; either way the
        // job's stream ends in `Done` and its connection goes back.
        match job.wait() {
            Ok(_) | Err(HascoError::Cancelled) => {}
            Err(e) => panic!("unexpected job error: {e}"),
        }
        assert_eq!(
            client.idle_ports(),
            kept,
            "the cancel's connection is not kept"
        );
        client.ping().unwrap();
        assert_eq!(client.idle_ports(), kept);
        server.shutdown();
    }

    #[test]
    fn a_job_dropped_mid_stream_closes_its_connection() {
        let server = server(EngineConfig::default().with_job_slots(1));
        let client = Client::connect(server.addr().to_string()).unwrap();
        let kept = client.idle_ports();

        let job = client.submit(toy_request(4)).unwrap();
        let first = job.events().next();
        assert!(first.is_some(), "a job streams at least one event");
        drop(job);
        assert!(client.idle_ports().is_empty());
        client.ping().unwrap();
        let fresh = client.idle_ports();
        assert_eq!(fresh.len(), 1);
        assert_ne!(fresh, kept, "a dropped job's connection is never pooled");
        server.shutdown();
    }

    #[test]
    fn a_restarted_server_costs_one_reconnect() {
        let first = server(EngineConfig::default().with_job_slots(1));
        let addr = first.addr();
        let client = Client::connect(addr.to_string()).unwrap();
        let stale = client.idle_ports();
        first.shutdown();
        drop(first);

        // The listener closes once the accept loop sees the shutdown; the
        // port is free a moment later.
        let start = Instant::now();
        let second = loop {
            match Server::bind(
                &addr.to_string(),
                EngineConfig::default().with_job_slots(1),
                ServerOptions::default(),
            ) {
                Ok(server) => break server,
                Err(e) => {
                    assert!(start.elapsed() < Duration::from_secs(5), "rebind: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };

        let solution = client
            .submit(toy_request(5))
            .and_then(|job| job.wait())
            .expect("the job runs on the restarted server");
        assert!(!solution.per_workload.is_empty());
        let fresh = client.idle_ports();
        assert_eq!(fresh.len(), 1, "one reconnect, kept afterwards");
        assert_ne!(fresh, stale);
        second.shutdown();
    }
}
