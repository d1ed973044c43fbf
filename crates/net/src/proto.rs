//! The framed message protocol spoken between clients, workers, and the
//! serving front-end.
//!
//! Every message is one [`runtime::persist`] frame on the stream:
//! `magic ++ payload-length ++ payload ++ fingerprint-checksum`, exactly
//! the discipline the on-disk images use, pointed at a socket instead of
//! a file. The payload is a one-byte message tag followed by the
//! [`Wire`](crate::wire::Wire)-encoded fields. A frame that fails the
//! checksum, overruns the payload bound, or decodes with leftover bytes
//! is a protocol error — the connection is dropped, never "repaired".
//!
//! Both ends begin with a hello that carries [`PROTOCOL`]; a version
//! mismatch is rejected before any work is exchanged.

use std::io::{self, Read, Write};

use accel_model::Metrics;
use hasco::engine::{CampaignOutcome, CoDesignRequest};
use hasco::event::{CampaignEvent, RunEvent};
use hasco::remote::RemoteEvalRequest;
use hasco::solution::Solution;
use hasco::HascoError;
use runtime::persist;

use crate::wire::{from_bytes, Reader, Wire};

/// Frame magic for network frames (distinct from every on-disk image).
pub const FRAME_MAGIC: &[u8; 8] = b"HASCONT1";

/// Protocol version string exchanged in the hello handshake. Bump on any
/// wire-format change — there is no cross-version negotiation.
pub const PROTOCOL: &str = "HASCONET2";

/// Upper bound on one frame's payload. Solutions and event frames are
/// kilobytes; batch frames grow with the design-point batch but stay far
/// below this. The bound exists so a corrupt or hostile length field
/// cannot drive allocation.
pub const MAX_PAYLOAD: u64 = 256 * 1024 * 1024;

/// One protocol message.
#[derive(Debug)]
pub enum Msg {
    /// First frame from a serving client; `protocol` must equal
    /// [`PROTOCOL`].
    ClientHello {
        /// The client's protocol version string.
        protocol: String,
    },
    /// First frame from an evaluation worker offering its capacity.
    WorkerHello {
        /// The worker's protocol version string.
        protocol: String,
    },
    /// Handshake accepted.
    HelloOk,
    /// Client → server: run one co-design job.
    Submit {
        /// The full request, bit-identical to an in-process submit.
        request: CoDesignRequest,
    },
    /// Server → client: the job was admitted.
    Accepted {
        /// The engine-assigned job id (usable in [`Msg::Cancel`]).
        job_id: u64,
    },
    /// Server → client: one live [`RunEvent`] of the submitted job.
    Event {
        /// The forwarded event.
        event: RunEvent,
    },
    /// Server → client: terminal frame of a submitted job.
    Done {
        /// The job's outcome, exactly what `JobHandle::wait` returns.
        result: Result<Solution, HascoError>,
    },
    /// Client → server (fresh connection): cancel a running job.
    Cancel {
        /// The id from [`Msg::Accepted`].
        job_id: u64,
    },
    /// Server → client: cancel processed.
    CancelOk {
        /// Whether the job was still known to the server.
        found: bool,
    },
    /// Client → server: run a whole campaign matrix.
    CampaignPlan {
        /// The scenario requests, in matrix order.
        requests: Vec<CoDesignRequest>,
    },
    /// Server → client: one live [`CampaignEvent`].
    Campaign {
        /// The forwarded event.
        event: CampaignEvent,
    },
    /// Server → client: terminal frame of a campaign.
    CampaignDone {
        /// The outcomes, exactly what `Engine::campaign` returns.
        result: Result<Vec<CampaignOutcome>, HascoError>,
    },
    /// Client → server: persist the serving engine's warm state now.
    Persist,
    /// Server → client: persist finished.
    PersistOk {
        /// Memo-cache entries written (0 when no store is configured).
        entries: u64,
    },
    /// Server → worker: evaluate a shard of design points.
    BatchRequest {
        /// Server-side dispatch sequence number, echoed in the reply.
        batch: u64,
        /// The shard, in submission order.
        items: Vec<RemoteEvalRequest>,
    },
    /// Worker → server: the shard's results, index-aligned with the
    /// request items.
    BatchResult {
        /// Echo of [`Msg::BatchRequest::batch`].
        batch: u64,
        /// One result per requested item, in order.
        results: Vec<Option<Metrics>>,
    },
    /// Liveness probe (server → worker between batches).
    Ping {
        /// Opaque nonce echoed back.
        nonce: u64,
    },
    /// Liveness reply.
    Pong {
        /// Echo of the probe nonce.
        nonce: u64,
    },
    /// Client → server: stop accepting work, drain, and exit.
    Shutdown,
    /// Server → peer: shutdown acknowledged / worker released.
    ShutdownOk,
    /// Either direction: the peer violated the protocol or the request
    /// failed before becoming a job. The connection closes after this.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Wire for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::ClientHello { protocol } => {
                out.push(0);
                protocol.encode(out);
            }
            Msg::WorkerHello { protocol } => {
                out.push(1);
                protocol.encode(out);
            }
            Msg::HelloOk => out.push(2),
            Msg::Submit { request } => {
                out.push(3);
                request.encode(out);
            }
            Msg::Accepted { job_id } => {
                out.push(4);
                job_id.encode(out);
            }
            Msg::Event { event } => {
                out.push(5);
                event.encode(out);
            }
            Msg::Done { result } => {
                out.push(6);
                result.encode(out);
            }
            Msg::Cancel { job_id } => {
                out.push(7);
                job_id.encode(out);
            }
            Msg::CancelOk { found } => {
                out.push(8);
                found.encode(out);
            }
            Msg::CampaignPlan { requests } => {
                out.push(9);
                requests.encode(out);
            }
            Msg::Campaign { event } => {
                out.push(10);
                event.encode(out);
            }
            Msg::CampaignDone { result } => {
                out.push(11);
                result.encode(out);
            }
            Msg::Persist => out.push(12),
            Msg::PersistOk { entries } => {
                out.push(13);
                entries.encode(out);
            }
            Msg::BatchRequest { batch, items } => {
                out.push(14);
                batch.encode(out);
                items.encode(out);
            }
            Msg::BatchResult { batch, results } => {
                out.push(15);
                batch.encode(out);
                results.encode(out);
            }
            Msg::Ping { nonce } => {
                out.push(16);
                nonce.encode(out);
            }
            Msg::Pong { nonce } => {
                out.push(17);
                nonce.encode(out);
            }
            Msg::Shutdown => out.push(18),
            Msg::ShutdownOk => out.push(19),
            Msg::Error { message } => {
                out.push(20);
                message.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match u8::decode(r)? {
            0 => Msg::ClientHello {
                protocol: Wire::decode(r)?,
            },
            1 => Msg::WorkerHello {
                protocol: Wire::decode(r)?,
            },
            2 => Msg::HelloOk,
            3 => Msg::Submit {
                request: Wire::decode(r)?,
            },
            4 => Msg::Accepted {
                job_id: Wire::decode(r)?,
            },
            5 => Msg::Event {
                event: Wire::decode(r)?,
            },
            6 => Msg::Done {
                result: Wire::decode(r)?,
            },
            7 => Msg::Cancel {
                job_id: Wire::decode(r)?,
            },
            8 => Msg::CancelOk {
                found: Wire::decode(r)?,
            },
            9 => Msg::CampaignPlan {
                requests: Wire::decode(r)?,
            },
            10 => Msg::Campaign {
                event: Wire::decode(r)?,
            },
            11 => Msg::CampaignDone {
                result: Wire::decode(r)?,
            },
            12 => Msg::Persist,
            13 => Msg::PersistOk {
                entries: Wire::decode(r)?,
            },
            14 => Msg::BatchRequest {
                batch: Wire::decode(r)?,
                items: Wire::decode(r)?,
            },
            15 => Msg::BatchResult {
                batch: Wire::decode(r)?,
                results: Wire::decode(r)?,
            },
            16 => Msg::Ping {
                nonce: Wire::decode(r)?,
            },
            17 => Msg::Pong {
                nonce: Wire::decode(r)?,
            },
            18 => Msg::Shutdown,
            19 => Msg::ShutdownOk,
            20 => Msg::Error {
                message: Wire::decode(r)?,
            },
            _ => return None,
        })
    }
}

/// Writes one message as a checksummed frame and flushes.
pub fn send<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    let payload = crate::wire::to_bytes(msg);
    persist::write_frame(w, FRAME_MAGIC, &payload)
}

/// Reads one message. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); a truncated frame, checksum mismatch, or
/// undecodable payload is an error.
pub fn recv<R: Read>(r: &mut R) -> io::Result<Option<Msg>> {
    let Some(payload) = persist::read_frame(r, FRAME_MAGIC, MAX_PAYLOAD)? else {
        return Ok(None);
    };
    match from_bytes::<Msg>(&payload) {
        Some(msg) => Ok(Some(msg)),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "undecodable protocol message",
        )),
    }
}

/// Reads one message, treating end-of-stream as an error. For points in
/// a conversation where the peer owes us a reply.
pub fn recv_expect<R: Read>(r: &mut R) -> io::Result<Msg> {
    recv(r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-conversation"))
}

/// Maps a transport-layer failure into the engine's error vocabulary.
pub fn transport_err(context: &str, err: &io::Error) -> HascoError {
    HascoError::Transport(format!("{context}: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip_through_frames() {
        let mut stream = Vec::new();
        send(
            &mut stream,
            &Msg::ClientHello {
                protocol: PROTOCOL.to_string(),
            },
        )
        .unwrap();
        send(&mut stream, &Msg::Ping { nonce: 7 }).unwrap();
        send(&mut stream, &Msg::Shutdown).unwrap();

        let mut r = &stream[..];
        assert!(matches!(
            recv(&mut r).unwrap(),
            Some(Msg::ClientHello { protocol }) if protocol == PROTOCOL
        ));
        assert!(matches!(
            recv(&mut r).unwrap(),
            Some(Msg::Ping { nonce: 7 })
        ));
        assert!(matches!(recv(&mut r).unwrap(), Some(Msg::Shutdown)));
        // Clean end-of-stream after the last frame.
        assert!(recv(&mut r).unwrap().is_none());
        assert!(recv_expect(&mut r).is_err());
    }

    #[test]
    fn corrupt_frames_are_errors_not_messages() {
        let mut stream = Vec::new();
        send(&mut stream, &Msg::Ping { nonce: 1 }).unwrap();
        // Flip one payload byte: checksum mismatch.
        let mid = stream.len() - 9;
        stream[mid] ^= 0xff;
        assert!(recv(&mut &stream[..]).is_err());

        // Truncated mid-frame: UnexpectedEof, not a clean None.
        let mut stream = Vec::new();
        send(&mut stream, &Msg::Shutdown).unwrap();
        let cut = &stream[..stream.len() - 3];
        assert_eq!(
            recv(&mut &cut[..]).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn valid_frame_with_unknown_tag_is_invalid_data() {
        let mut stream = Vec::new();
        persist::write_frame(&mut stream, FRAME_MAGIC, &[200u8]).unwrap();
        assert_eq!(
            recv(&mut &stream[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
