//! The framed message protocol spoken between clients and the serving
//! front-end.
//!
//! Every message is one [`runtime::persist`] frame on the stream:
//! `magic ++ payload-length ++ payload ++ fingerprint-checksum`, exactly
//! the discipline the on-disk images use, pointed at a socket instead of
//! a file. The payload is a one-byte message tag followed by the
//! [`Wire`](runtime::wire::Wire)-encoded fields. A frame that fails the
//! checksum, overruns the payload bound, or decodes with leftover bytes
//! is a protocol error — the connection is dropped, never "repaired".
//!
//! A client begins with a hello that carries [`PROTOCOL`]; a version
//! mismatch is rejected before any work is exchanged. The connection
//! then carries requests one at a time, each answered in
//! full (a reply, or a job's event stream ending in `Done`) before the
//! next, for as long as both ends keep it open.
//!
//! Every protocol socket runs with `TCP_NODELAY` ([`connect`] on the
//! dialing side, the accept loop on the serving side), and each frame
//! leaves in one write ([`persist::write_frame`]), or several frames
//! collected by [`push`] leave together in one, so no frame sits in the
//! kernel waiting for the peer's ACK.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use hasco::engine::{CampaignOutcome, CoDesignRequest};
use hasco::event::RunEvent;
use hasco::solution::Solution;
use hasco::HascoError;
use runtime::persist;
use runtime::wire::{from_bytes, to_bytes};

/// Frame magic for network frames (distinct from every on-disk image).
pub const FRAME_MAGIC: &[u8; 8] = b"HASCONT1";

/// Protocol version string exchanged in the hello handshake. Bump on any
/// wire-format change — there is no cross-version negotiation.
pub const PROTOCOL: &str = "HASCONET7";

/// Upper bound on one frame's payload. Solutions and event frames are
/// kilobytes; campaign frames grow with the matrix but stay far below
/// this. The bound exists so a corrupt or hostile length field
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
    /// Client → server (on a fresh connection, not the job's): cancel a
    /// running job.
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
    /// Server → client: the one reply to a [`Msg::CampaignPlan`]. (Tag
    /// 10, a per-event campaign frame before `HASCONET3`, is unused.)
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
    /// Client → server: a liveness probe that runs nothing.
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
    /// Server → client: shutdown acknowledged.
    ShutdownOk,
    /// Server → client: the client violated the protocol, and the
    /// connection closes after this; or a request failed before becoming
    /// a job (a failed persist), and a client connection stays open.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

// Tag 10 is retired (see `Msg::CampaignDone`), and so are tags 1, 14
// and 15, the remote workers' hello and batch frames before `HASCONET7`.
runtime::wire_enum!(Msg {
    0 => ClientHello { protocol },
    2 => HelloOk,
    3 => Submit { request },
    4 => Accepted { job_id },
    5 => Event { event },
    6 => Done { result },
    7 => Cancel { job_id },
    8 => CancelOk { found },
    9 => CampaignPlan { requests },
    11 => CampaignDone { result },
    12 => Persist,
    13 => PersistOk { entries },
    16 => Ping { nonce },
    17 => Pong { nonce },
    18 => Shutdown,
    19 => ShutdownOk,
    20 => Error { message },
});

/// Opens a protocol connection: connects and turns off Nagle's
/// algorithm (`TCP_NODELAY`). Every conversation here is small
/// request/reply frames; with Nagle on, a frame sent while an earlier
/// one is unacknowledged waits for the peer's delayed ACK (RFC 896,
/// RFC 1122 §4.2.3.2), which costs tens of milliseconds per exchange.
///
/// # Errors
/// Propagates the connect or `setsockopt` failure.
pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Writes one message as a checksummed frame and flushes.
pub fn send<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    let payload = to_bytes(msg);
    persist::write_frame(w, FRAME_MAGIC, &payload)
}

/// Appends one message's frame to `out`, for a sender that hands several
/// frames over in one write; [`recv`] reads them back one by one.
pub fn push(out: &mut Vec<u8>, msg: &Msg) {
    out.extend_from_slice(&persist::frame(FRAME_MAGIC, &to_bytes(msg)));
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
    use accel_model::Metrics;
    use proptest::prelude::*;

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
    fn frames_written_together_read_back_in_order() {
        let mut out = Vec::new();
        push(&mut out, &Msg::Accepted { job_id: 3 });
        push(&mut out, &Msg::Ping { nonce: 7 });
        push(&mut out, &Msg::Shutdown);

        // `out` is what one `write_all` hands the socket.
        let mut r = io::BufReader::new(&out[..]);
        assert!(matches!(
            recv(&mut r),
            Ok(Some(Msg::Accepted { job_id: 3 }))
        ));
        assert!(matches!(recv(&mut r), Ok(Some(Msg::Ping { nonce: 7 }))));
        assert!(matches!(recv(&mut r), Ok(Some(Msg::Shutdown))));
        assert!(recv(&mut r).unwrap().is_none());

        // The last frame cut short is an error, after the whole ones.
        let cut = &out[..out.len() - 3];
        let mut r = io::BufReader::new(cut);
        assert!(matches!(
            recv(&mut r),
            Ok(Some(Msg::Accepted { job_id: 3 }))
        ));
        assert!(matches!(recv(&mut r), Ok(Some(Msg::Ping { nonce: 7 }))));
        assert_eq!(
            recv(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
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

    #[test]
    fn connect_turns_off_nagle() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect(listener.local_addr().unwrap()).unwrap();
        assert!(stream.nodelay().unwrap());
    }

    fn metrics(scale: f64) -> Metrics {
        Metrics {
            latency_cycles: 1.5e6 * scale,
            latency_ms: 1.5 * scale,
            energy_uj: 0.1 + scale,
            power_mw: 900.0 / scale,
            area_mm2: -0.0,
            throughput_mops: f64::MIN_POSITIVE,
            utilization: 0.75,
        }
    }

    /// One value of every message variant, with non-trivial payloads in
    /// the compound ones (a full request, a solution with a schedule,
    /// nested events, both arms of every `Result`).
    fn representative_msgs() -> Vec<Msg> {
        use std::collections::BTreeMap;

        use accel_model::arch::AcceleratorConfig;
        use accel_model::BackendKind;
        use dse::problem::{Evaluation, OptimizerResult};
        use hasco::codesign::CoDesignOptions;
        use hasco::input::{Constraints, GenerationMethod, InputDescription};
        use hasco::{RunStats, WorkloadSolution};
        use sw_opt::schedule::Schedule;
        use tensor_ir::index::IndexId;
        use tensor_ir::intrinsics::IntrinsicKind;
        use tensor_ir::matching::TensorizeChoice;
        use tensor_ir::suites::gemm_workload;
        use tensor_ir::workload::TensorApp;

        let request = CoDesignRequest::new(
            InputDescription {
                app: TensorApp::new("toy", vec![gemm_workload("g", 64, 32, 16)]),
                method: GenerationMethod::Chisel(IntrinsicKind::Gemm),
                constraints: Constraints::latency_power(4.0, 900.0),
            },
            CoDesignOptions::quick(7).with_threads(2),
        )
        .with_label("fuzz");
        let accelerator = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(8, 8)
            .build()
            .unwrap();
        let solution = Solution {
            accelerator,
            per_workload: vec![WorkloadSolution {
                workload: "g".into(),
                schedule: Schedule {
                    choice: TensorizeChoice {
                        intrinsic: "gemm".into(),
                        var_map: vec![(IndexId(0), IndexId(2)), (IndexId(1), IndexId(0))],
                        needs_rearrangement: false,
                    },
                    tiles: BTreeMap::from([(IndexId(0), 8), (IndexId(2), 16)]),
                    outer_order: vec![IndexId(2), IndexId(0), IndexId(1)],
                    fuse_outer: 1,
                },
                metrics: metrics(1.0),
                program: "for i in 0..8 { gemm() }".into(),
            }],
            total: metrics(2.0),
            meets_constraints: true,
            hw_history: OptimizerResult {
                optimizer: "mobo".into(),
                evaluations: vec![Evaluation {
                    point: vec![1, 0, 3],
                    objectives: vec![0.5, 1e-9],
                }],
                infeasible: 2,
            },
            stats: RunStats {
                hw_evaluations: 4,
                sw_explorations: 9,
                refine_explorations: 1,
                backend: BackendKind::Analytic,
                refine_backend: Some(BackendKind::TraceSim),
                refine_topk_trajectory: vec![2, 1],
                surrogate_samples: 0,
                surrogate_trusted: false,
            },
        };
        let event = RunEvent::BatchEvaluated {
            optimizer: "mobo".into(),
            phase: "screen".into(),
            batch: 3,
            evaluated: 8,
            feasible: 7,
        };
        vec![
            Msg::ClientHello {
                protocol: PROTOCOL.into(),
            },
            Msg::HelloOk,
            Msg::Submit {
                request: request.clone(),
            },
            Msg::Accepted { job_id: u64::MAX },
            Msg::Event { event },
            Msg::Done {
                result: Ok(solution.clone()),
            },
            Msg::Done {
                result: Err(HascoError::InvalidOptions("bad".into())),
            },
            Msg::Cancel { job_id: 3 },
            Msg::CancelOk { found: true },
            Msg::CampaignPlan {
                requests: vec![request.clone(), request],
            },
            Msg::CampaignDone {
                result: Ok(vec![CampaignOutcome {
                    label: "fuzz".into(),
                    solution,
                    shared_with: Some("first".into()),
                }]),
            },
            Msg::CampaignDone {
                result: Err(HascoError::Cancelled),
            },
            Msg::Persist,
            Msg::PersistOk { entries: 42 },
            Msg::Ping { nonce: 1 },
            Msg::Pong { nonce: 1 },
            Msg::Shutdown,
            Msg::ShutdownOk,
            Msg::Error {
                message: "protocol violation".into(),
            },
        ]
    }

    #[test]
    fn every_message_survives_the_wire_bit_for_bit() {
        let msgs = representative_msgs();
        let tags: std::collections::BTreeSet<u8> = msgs.iter().map(|m| to_bytes(m)[0]).collect();
        assert_eq!(
            tags.len(),
            17,
            "one message per tag 0..=20 but 1, 10, 14, 15"
        );
        // Retired tags are never sent, and a frame carrying one fails to
        // decode instead of panicking.
        for retired in [1, 10, 14, 15] {
            assert!(!tags.contains(&retired), "tag {retired} is retired");
            let mut frame = Vec::new();
            persist::write_frame(&mut frame, FRAME_MAGIC, &[retired, 0, 0, 0, 0]).unwrap();
            assert_eq!(
                recv(&mut &frame[..]).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
        let mut stream = Vec::new();
        for msg in &msgs {
            send(&mut stream, msg).unwrap();
        }
        let mut r = &stream[..];
        for msg in &msgs {
            let back = recv(&mut r).unwrap().expect("one frame per message");
            assert_eq!(to_bytes(&back), to_bytes(msg));
        }
        assert!(recv(&mut r).unwrap().is_none());
    }

    /// `(tag, length, digest)` of each representative message's bytes, in
    /// [`representative_msgs`] order. A change here is a wire-format
    /// change: it must come with a [`PROTOCOL`] bump and a re-pin.
    const GOLDEN: [(u8, usize, u64); 19] = [
        (0, 18, 0x9e8289141e3f0d34),
        (2, 1, 0xaf63bf4c8601bb45),
        (3, 524, 0xcc1ad3bb5d96337c),
        (4, 9, 0x1fe014435e865deb),
        (5, 52, 0x5ddc2d95356d79ef),
        (6, 518, 0xdc629461fbe5afe3),
        (6, 14, 0x2eb86c712541aa8b),
        (7, 9, 0x0ccabb185bcffd65),
        (8, 2, 0x084db707b5028782),
        (9, 1055, 0xb76162cb460bc46a),
        (11, 552, 0x37df9297596f6ce6),
        (11, 3, 0x2745cd18983a0a49),
        (12, 1, 0xaf63c14c8601beab),
        (13, 9, 0x0709f6fb42dc0b12),
        (16, 9, 0xfdaf110a635040ce),
        (17, 9, 0xa83a49bee493defd),
        (18, 1, 0xaf63cf4c8601d675),
        (19, 1, 0xaf63ce4c8601d4c2),
        (20, 27, 0xb67e1d4e93eea3c2),
    ];

    #[test]
    fn representative_message_bytes_are_pinned() {
        assert_eq!(PROTOCOL, "HASCONET7", "a protocol bump re-pins GOLDEN");
        let got: Vec<(u8, usize, u64)> = representative_msgs()
            .iter()
            .map(|msg| {
                let bytes = to_bytes(msg);
                let mut fp = runtime::Fingerprinter::new();
                fp.write_bytes(&bytes);
                (bytes[0], bytes.len(), fp.finish().0)
            })
            .collect();
        assert_eq!(got, GOLDEN);
    }

    /// One value of every variant of every tag-declared enum, plus one
    /// profile of each wide options struct, named by type.
    fn declared_variants() -> Vec<(&'static str, Vec<u8>)> {
        use accel_model::arch::{Dataflow, Interconnect};
        use accel_model::tech::TechParams;
        use accel_model::BackendKind;
        use hasco::codesign::{CoDesignOptions, OptimizerKind};
        use hasco::input::GenerationMethod;
        use tensor_ir::index::IndexKind;
        use tensor_ir::intrinsics::IntrinsicKind;

        let events = [
            RunEvent::Started {
                label: "fuzz".into(),
                workloads: 2,
            },
            RunEvent::Partitioned {
                workload: "g".into(),
                choices: 17,
            },
            RunEvent::BatchEvaluated {
                optimizer: "nsga2".into(),
                phase: "generation".into(),
                batch: 4,
                evaluated: 12,
                feasible: 9,
            },
            RunEvent::Refined {
                batch: 2,
                survivors: 3,
                budget: 4,
            },
            RunEvent::SoftwareOptimized {
                workload: "g".into(),
                rounds: 8,
                latency_ms: 0.125,
            },
            RunEvent::Tuned {
                round: 1,
                meets_constraints: false,
            },
            RunEvent::Solved {
                meets_constraints: true,
                latency_ms: -0.0,
            },
            RunEvent::Cancelled,
            RunEvent::Failed {
                error: "boom".into(),
            },
        ];
        let errors = [
            HascoError::EmptyApp,
            HascoError::InvalidOptions("bad".into()),
            HascoError::Cancelled,
            HascoError::NoFeasibleAccelerator,
            HascoError::Software("sw".into()),
            HascoError::Hardware("hw".into()),
            HascoError::Transport("net".into()),
        ];
        let options = CoDesignOptions::paper(5)
            .with_threads(3)
            .with_work_stealing(false)
            .with_adaptive_refinement(BackendKind::Calibrated, 2)
            .with_tech(TechParams::profiles()[2].1.clone())
            .with_optimizer(OptimizerKind::Nsga2);

        let mut out: Vec<(&'static str, Vec<u8>)> = Vec::new();
        out.extend(events.iter().map(|v| ("RunEvent", to_bytes(v))));
        out.extend(errors.iter().map(|v| ("HascoError", to_bytes(v))));
        for v in [
            GenerationMethod::Chisel(IntrinsicKind::Conv2d),
            GenerationMethod::Gemmini,
        ] {
            out.push(("GenerationMethod", to_bytes(&v)));
        }
        for v in [
            BackendKind::Analytic,
            BackendKind::TraceSim,
            BackendKind::Calibrated,
            BackendKind::Surrogate,
        ] {
            out.push(("BackendKind", to_bytes(&v)));
        }
        for v in [
            OptimizerKind::Mobo,
            OptimizerKind::Nsga2,
            OptimizerKind::Random,
        ] {
            out.push(("OptimizerKind", to_bytes(&v)));
        }
        for v in IntrinsicKind::ALL {
            out.push(("IntrinsicKind", to_bytes(&v)));
        }
        for v in [IndexKind::Spatial, IndexKind::Reduction] {
            out.push(("IndexKind", to_bytes(&v)));
        }
        for v in [
            Interconnect::None,
            Interconnect::Systolic,
            Interconnect::Full,
        ] {
            out.push(("Interconnect", to_bytes(&v)));
        }
        for v in [
            Dataflow::OutputStationary,
            Dataflow::WeightStationary,
            Dataflow::InputStationary,
        ] {
            out.push(("Dataflow", to_bytes(&v)));
        }
        out.push(("CoDesignOptions", to_bytes(&options)));
        out.push(("TechParams", to_bytes(&TechParams::profiles()[1].1)));
        out
    }

    /// `(type, first byte, length, digest)` of each
    /// [`declared_variants`] value. For an enum the first byte is its
    /// tag. A change here is a wire-format change, like one in
    /// [`GOLDEN`].
    const VARIANT_GOLDEN: [(&str, u8, usize, u64); 39] = [
        ("RunEvent", 0, 21, 0x46c5cf29b7d00238),
        ("RunEvent", 1, 18, 0xfe8572364bf557af),
        ("RunEvent", 2, 56, 0xe801a81ab19c6c3e),
        ("RunEvent", 3, 25, 0x08ca7bdd2b5160d7),
        ("RunEvent", 4, 26, 0x16133dcc851f7b86),
        ("RunEvent", 5, 10, 0x8203b81825013a33),
        ("RunEvent", 6, 10, 0xa51ef06785bc8e68),
        ("RunEvent", 7, 1, 0xaf63ba4c8601b2c6),
        ("RunEvent", 8, 13, 0x20396bd476b246b4),
        ("HascoError", 0, 1, 0xaf63bd4c8601b7df),
        ("HascoError", 1, 12, 0x1ff4fb23f34a33f2),
        ("HascoError", 2, 1, 0xaf63bf4c8601bb45),
        ("HascoError", 3, 1, 0xaf63be4c8601b992),
        ("HascoError", 4, 11, 0xd48ff3f478811ea3),
        ("HascoError", 5, 11, 0x06b9200a64d9980b),
        ("HascoError", 6, 12, 0x7c332b920881f03d),
        ("GenerationMethod", 0, 2, 0x08328507b4eb6ad4),
        ("GenerationMethod", 1, 1, 0xaf63bc4c8601b62c),
        ("BackendKind", 0, 1, 0xaf63bd4c8601b7df),
        ("BackendKind", 1, 1, 0xaf63bc4c8601b62c),
        ("BackendKind", 2, 1, 0xaf63bf4c8601bb45),
        ("BackendKind", 3, 1, 0xaf63be4c8601b992),
        ("OptimizerKind", 0, 1, 0xaf63bd4c8601b7df),
        ("OptimizerKind", 1, 1, 0xaf63bc4c8601b62c),
        ("OptimizerKind", 2, 1, 0xaf63bf4c8601bb45),
        ("IntrinsicKind", 0, 1, 0xaf63bd4c8601b7df),
        ("IntrinsicKind", 1, 1, 0xaf63bc4c8601b62c),
        ("IntrinsicKind", 2, 1, 0xaf63bf4c8601bb45),
        ("IntrinsicKind", 3, 1, 0xaf63be4c8601b992),
        ("IndexKind", 0, 1, 0xaf63bd4c8601b7df),
        ("IndexKind", 1, 1, 0xaf63bc4c8601b62c),
        ("Interconnect", 0, 1, 0xaf63bd4c8601b7df),
        ("Interconnect", 1, 1, 0xaf63bc4c8601b62c),
        ("Interconnect", 2, 1, 0xaf63bf4c8601bb45),
        ("Dataflow", 0, 1, 0xaf63bd4c8601b7df),
        ("Dataflow", 1, 1, 0xaf63bc4c8601b62c),
        ("Dataflow", 2, 1, 0xaf63bf4c8601bb45),
        ("CoDesignOptions", 20, 233, 0x6b3946f9a60e8daa),
        ("TechParams", 42, 104, 0xdb17671e9840db68),
    ];

    #[test]
    fn every_declared_variant_bytes_are_pinned() {
        let got: Vec<(&str, u8, usize, u64)> = declared_variants()
            .into_iter()
            .map(|(ty, bytes)| {
                let mut fp = runtime::Fingerprinter::new();
                fp.write_bytes(&bytes);
                (ty, bytes[0], bytes.len(), fp.finish().0)
            })
            .collect();
        assert_eq!(got, VARIANT_GOLDEN);
    }

    /// Feeds one payload to [`recv`] inside a valid frame: the checksum
    /// always passes, so every byte reaches the `Msg` decoders. A decode
    /// must be an error or a message that re-encodes to the same bytes.
    fn recv_payload(payload: &[u8]) -> Result<(), TestCaseError> {
        let image = persist::frame(FRAME_MAGIC, payload);
        match recv(&mut &image[..]) {
            Ok(Some(msg)) => prop_assert_eq!(to_bytes(&msg), payload.to_vec()),
            Ok(None) => prop_assert!(false, "a whole frame read as end of stream"),
            Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn recv_never_panics_on_arbitrary_tagged_payloads(
            tag in 0u8..21,
            tail in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let mut payload = vec![tag];
            payload.extend_from_slice(&tail);
            recv_payload(&payload)?;
        }

        #[test]
        fn recv_never_panics_on_mutated_messages(
            pick in 0usize..19,
            edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..4),
            cut in any::<u64>(),
        ) {
            let msgs = representative_msgs();
            let mut payload = to_bytes(&msgs[pick % msgs.len()]);
            for (at, byte) in edits {
                let at = (at % payload.len() as u64) as usize;
                payload[at] = byte;
            }
            if cut % 4 == 0 {
                payload.truncate((cut >> 2) as usize % (payload.len() + 1));
            }
            recv_payload(&payload)?;
        }
    }
}
