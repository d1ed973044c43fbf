//! The remote evaluation worker: a loop that connects to a serving
//! front-end, registers, and answers `BatchRequest` frames.
//!
//! A worker holds **no state between batches** — every item it receives
//! carries the full recipe (backend kind, technology parameters, seed,
//! explorer options, workload, candidate config) and
//! [`RemoteEvalRequest::evaluate`] rebuilds a fresh explorer per item,
//! exactly like the in-process evaluation closure. That statelessness is
//! what lets the front-end re-dispatch a dead worker's items anywhere
//! (including locally) without changing a single bit of the run.
//!
//! Items within one shard are evaluated serially in shard order; the
//! parallelism of the system is across workers, not within one.

use std::io;
use std::thread::{self, JoinHandle};

use hasco::remote::RemoteEvalRequest;

use crate::proto::{self, Msg, PROTOCOL};

/// Options for one worker process.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Test hook: serve this many `BatchRequest`s, then drop the
    /// connection *without replying* to the next one — a deterministic
    /// stand-in for "worker died mid-batch". `None` serves forever.
    pub die_after_batches: Option<u64>,
}

/// Connects to `addr`, registers, and serves until the front-end
/// releases the worker (`Shutdown`) or closes the connection. Returns
/// the number of batches served.
pub fn run(addr: &str, opts: &WorkerOptions) -> io::Result<u64> {
    let mut stream = proto::connect(addr)?;
    proto::send(
        &mut stream,
        &Msg::WorkerHello {
            protocol: PROTOCOL.to_string(),
        },
    )?;
    match proto::recv_expect(&mut stream)? {
        Msg::HelloOk => {}
        Msg::Error { message } => {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, message))
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "front-end sent a non-hello reply",
            ))
        }
    }

    let mut served = 0u64;
    loop {
        let msg = match proto::recv(&mut stream)? {
            Some(msg) => msg,
            // Front-end went away between frames: a clean exit.
            None => return Ok(served),
        };
        match msg {
            Msg::BatchRequest { batch, items } => {
                if opts.die_after_batches == Some(served) {
                    // Simulated mid-batch death: the request was read but
                    // no reply will ever come. Dropping the stream makes
                    // the front-end's pending read fail, which is exactly
                    // what a SIGKILL'd worker produces.
                    return Ok(served);
                }
                let results: Vec<_> = items.iter().map(RemoteEvalRequest::evaluate).collect();
                proto::send(&mut stream, &Msg::BatchResult { batch, results })?;
                served += 1;
            }
            Msg::Ping { nonce } => proto::send(&mut stream, &Msg::Pong { nonce })?,
            Msg::Shutdown => {
                let _ = proto::send(&mut stream, &Msg::ShutdownOk);
                return Ok(served);
            }
            _ => {
                let _ = proto::send(
                    &mut stream,
                    &Msg::Error {
                        message: "worker received a non-worker message".to_string(),
                    },
                );
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "front-end sent a non-worker message",
                ));
            }
        }
    }
}

/// A worker running on a background thread of this process. Tests,
/// examples, and the CI smoke use these instead of separate OS processes
/// where convenient; `hasco-worker` wraps [`run`] for real deployments.
#[derive(Debug)]
pub struct WorkerHandle {
    join: Option<JoinHandle<io::Result<u64>>>,
}

impl WorkerHandle {
    /// Spawns a worker thread serving `addr` until released.
    pub fn spawn(addr: &str) -> Self {
        Self::spawn_with(addr, WorkerOptions::default())
    }

    /// Spawns a worker that dies without replying after `n` served
    /// batches — the deterministic mid-batch-death fixture.
    pub fn spawn_flaky(addr: &str, die_after_batches: u64) -> Self {
        Self::spawn_with(
            addr,
            WorkerOptions {
                die_after_batches: Some(die_after_batches),
            },
        )
    }

    fn spawn_with(addr: &str, opts: WorkerOptions) -> Self {
        let addr = addr.to_string();
        // The worker thread only answers network frames with pure
        // per-item results; nothing it computes depends on scheduling,
        // and the dispatcher reassembles results by submission index.
        // detlint-allow(ambient): worker loop computes pure per-item functions
        let join = thread::spawn(move || run(&addr, &opts));
        WorkerHandle { join: Some(join) }
    }

    /// Waits for the worker to exit; returns batches served.
    pub fn join(mut self) -> io::Result<u64> {
        // `join` consumes self, so the slot is only ever empty if Drop
        // ran first — report it instead of panicking the caller.
        let Some(handle) = self.join.take() else {
            return Err(io::Error::other("worker handle already joined"));
        };
        handle
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("worker thread panicked")))
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // Detached on drop: the thread exits when the front-end releases
        // it or the connection closes.
        let _ = self.join.take();
    }
}
