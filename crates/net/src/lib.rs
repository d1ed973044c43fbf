//! Network serving for the HASCO engine: a front-end process that owns
//! the warm state, and serving clients that submit work to it.
//!
//! Two layers, std-only (no async runtime, no serialization crates):
//!
//! 1. **[`proto`]** — the protocol messages, encoded by the workspace's
//!    one binary codec ([`runtime::wire::Wire`], which every crate
//!    implements for its own types) and carried in the same checksummed
//!    `magic ++ length ++ payload ++ fingerprint` frames the on-disk
//!    images use ([`runtime::persist`]), pointed at a socket.
//!    Every socket sets `TCP_NODELAY` and every frame leaves in one
//!    write, so no message waits out a delayed ACK (see [`proto`]).
//! 2. **[`server`] / [`client`]** — `hasco-serve` wraps a long-lived
//!    [`hasco::Engine`]; [`client::Client`] gives other processes the
//!    engine's submit / events / campaign / persist surface over TCP.
//!    A job streams its `RunEvent`s; a campaign is one request and one
//!    reply (`CampaignPlan` → `CampaignDone`), with no stream of its own.
//!    A client keeps its connections open and reuses them, one request
//!    at a time, so a warm job pays no connect and no hello. A submit
//!    only writes its request; the server runs the job on the
//!    connection's handler thread and a warm job's reply leaves in one
//!    write.
//!
//! **The determinism contract survives the network.** A served run is
//! bit-identical to an in-process run of the same request — the whole
//! `Solution`, `RunStats` included (it holds no thread- or
//! timing-dependent field), and the event stream — at any thread count.
//! The server runs the very request the client sent on the engine's own
//! pricing path; the wire only carries it there and the result back, and
//! every value round-trips through the codec bit for bit.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, RemoteJob};
pub use server::{Server, ServerOptions};

#[cfg(test)]
pub(crate) mod testing {
    use hasco::codesign::CoDesignOptions;
    use hasco::input::{Constraints, GenerationMethod, InputDescription};
    use hasco::CoDesignRequest;
    use tensor_ir::suites::gemm_workload;
    use tensor_ir::workload::TensorApp;

    /// A small valid co-design request: one GEMM on a Gemmini template.
    pub(crate) fn toy_request(seed: u64) -> CoDesignRequest {
        CoDesignRequest::new(
            InputDescription {
                app: TensorApp::new("toy", vec![gemm_workload("g", 64, 32, 16)]),
                method: GenerationMethod::Gemmini,
                constraints: Constraints::default(),
            },
            CoDesignOptions::quick(seed),
        )
    }

    /// The same request failing validation: the server rejects it at
    /// submit with an immediate `Done`, and no job runs.
    pub(crate) fn rejected_request() -> CoDesignRequest {
        let mut request = toy_request(1);
        request.options.hw_trials = 0;
        request
    }
}
