//! The serving client: a thin blocking façade that makes a remote
//! engine feel like [`hasco::Engine`].
//!
//! A [`Client`] is just an address — every operation opens a fresh
//! connection, completes the hello handshake, and speaks one
//! request/response (or request/stream) conversation. There is no
//! connection pooling to supervise and no shared mutable state; the
//! warm state lives server-side, which is the whole point of serving.
//!
//! Everything a transport can get wrong surfaces as
//! [`HascoError::Transport`]; errors the *engine* produced come back as
//! their original variants, so a caller cannot tell a served run from an
//! in-process one by its error shapes either.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};

use hasco::engine::{CampaignOutcome, CoDesignRequest};
use hasco::event::RunEvent;
use hasco::solution::Solution;
use hasco::HascoError;

use crate::proto::{self, transport_err, Msg, PROTOCOL};

/// A handle to a serving front-end at a fixed address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// Builds a client and verifies the server is reachable and speaks
    /// our protocol (one hello round trip).
    ///
    /// # Errors
    /// [`HascoError::Transport`] when the server is unreachable or
    /// speaks a different protocol version.
    pub fn connect(addr: impl Into<String>) -> Result<Client, HascoError> {
        let client = Client { addr: addr.into() };
        drop(client.open()?);
        Ok(client)
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Opens a fresh connection and completes the client hello.
    fn open(&self) -> Result<TcpStream, HascoError> {
        let mut stream = proto::connect(self.addr.as_str())
            .map_err(|e| transport_err(&format!("connect {}", self.addr), &e))?;
        proto::send(
            &mut stream,
            &Msg::ClientHello {
                protocol: PROTOCOL.to_string(),
            },
        )
        .map_err(|e| transport_err("hello send", &e))?;
        match proto::recv_expect(&mut stream).map_err(|e| transport_err("hello recv", &e))? {
            Msg::HelloOk => Ok(stream),
            Msg::Error { message } => Err(HascoError::Transport(message)),
            _ => Err(HascoError::Transport(
                "server sent a non-hello reply".to_string(),
            )),
        }
    }

    /// Submits one job; returns a handle streaming its events live.
    ///
    /// # Errors
    /// [`HascoError::Transport`] on connection failure; validation
    /// errors surface from [`RemoteJob::wait`], exactly like
    /// [`hasco::Engine::submit`] surfaces them from the handle.
    pub fn submit(&self, request: CoDesignRequest) -> Result<RemoteJob, HascoError> {
        let mut stream = self.open()?;
        proto::send(&mut stream, &Msg::Submit { request })
            .map_err(|e| transport_err("submit send", &e))?;
        // The server hands several frames over in one write: one read
        // takes them all, and the next frames are read from the buffer.
        let mut stream = BufReader::new(stream);
        match proto::recv_expect(&mut stream).map_err(|e| transport_err("submit recv", &e))? {
            Msg::Accepted { job_id } => Ok(RemoteJob {
                addr: self.addr.clone(),
                job_id,
                shared: Arc::new(Mutex::new(JobShared {
                    stream: Some(stream),
                    result: None,
                })),
            }),
            // A rejected submission (validation error) arrives as an
            // immediate Done frame; hand back a pre-resolved job so the
            // caller's events()/wait() flow is uniform.
            Msg::Done { result } => Ok(RemoteJob {
                addr: self.addr.clone(),
                job_id: u64::MAX,
                shared: Arc::new(Mutex::new(JobShared {
                    stream: None,
                    result: Some(result),
                })),
            }),
            Msg::Error { message } => Err(HascoError::Transport(message)),
            _ => Err(HascoError::Transport(
                "server sent a non-submit reply".to_string(),
            )),
        }
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

    fn round_trip(&self, msg: &Msg) -> Result<Msg, HascoError> {
        let mut stream = self.open()?;
        proto::send(&mut stream, msg).map_err(|e| transport_err("request send", &e))?;
        proto::recv_expect(&mut stream).map_err(|e| transport_err("request recv", &e))
    }
}

#[derive(Debug)]
struct JobShared {
    /// The live connection; `None` once the terminal frame arrived (or
    /// the job came pre-resolved).
    stream: Option<BufReader<TcpStream>>,
    result: Option<Result<Solution, HascoError>>,
}

impl JobShared {
    /// Reads frames until the next event. Returns `None` at (and after)
    /// the terminal frame, stashing the result.
    fn next_event(&mut self) -> Option<RunEvent> {
        loop {
            let stream = self.stream.as_mut()?;
            match proto::recv_expect(stream) {
                Ok(Msg::Event { event }) => return Some(event),
                Ok(Msg::Done { result }) => {
                    self.result = Some(result);
                    self.stream = None;
                    return None;
                }
                Ok(Msg::Error { message }) => {
                    self.result = Some(Err(HascoError::Transport(message)));
                    self.stream = None;
                    return None;
                }
                Ok(_) => continue,
                Err(e) => {
                    self.result = Some(Err(transport_err("event stream", &e)));
                    self.stream = None;
                    return None;
                }
            }
        }
    }
}

/// A handle to a job running on a serving front-end. The remote
/// counterpart of [`hasco::engine::JobHandle`]: same `id` / `events` /
/// `wait` / `cancel` surface, same event stream bits, same result bits.
#[derive(Debug, Clone)]
pub struct RemoteJob {
    addr: String,
    job_id: u64,
    shared: Arc<Mutex<JobShared>>,
}

impl RemoteJob {
    /// The server-side job id.
    pub fn id(&self) -> u64 {
        self.job_id
    }

    /// The job's live event stream: a blocking iterator ending after the
    /// terminal event, bit-identical to the in-process stream of the
    /// same request. Like [`hasco::engine::JobHandle::events`], the live
    /// stream is effectively consumed once — iterating after the
    /// terminal frame yields nothing.
    pub fn events(&self) -> RemoteEvents {
        RemoteEvents {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Blocks until the job finishes (draining any unread events) and
    /// returns its result.
    ///
    /// # Errors
    /// Exactly what `JobHandle::wait` would return in-process, plus
    /// [`HascoError::Transport`] when the connection died first.
    pub fn wait(&self) -> Result<Solution, HascoError> {
        // A poisoned lock means a peer thread panicked mid-call;
        // `JobShared` is updated in whole-value steps, so recover the
        // guard rather than killing this caller too.
        let mut shared = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = shared.result.clone() {
                return result;
            }
            shared.next_event();
        }
    }

    /// Requests cancellation via a fresh connection (the event stream
    /// occupies the original one). Best-effort, like in-process cancel:
    /// losing the race to completion is a no-op.
    pub fn cancel(&self) {
        let client = Client {
            addr: self.addr.clone(),
        };
        if let Ok(mut stream) = client.open() {
            let _ = proto::send(
                &mut stream,
                &Msg::Cancel {
                    job_id: self.job_id,
                },
            );
            let _ = proto::recv(&mut stream);
        }
    }
}

/// Blocking iterator over a remote job's [`RunEvent`]s.
#[derive(Debug)]
pub struct RemoteEvents {
    shared: Arc<Mutex<JobShared>>,
}

impl Iterator for RemoteEvents {
    type Item = RunEvent;

    fn next(&mut self) -> Option<RunEvent> {
        self.shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_event()
    }
}
