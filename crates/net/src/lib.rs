//! Network serving for the HASCO engine: a front-end process that owns
//! the warm state, serving clients that submit work to it, and worker
//! processes that absorb the expensive evaluation batches.
//!
//! Three layers, std-only (no async runtime, no serialization crates):
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
//! 3. **[`dispatch`] / [`worker`]** — `hasco-worker` processes register
//!    with the front-end and evaluate shards of screening/refinement
//!    batches through the [`runtime::BatchEvaluator`] seam
//!    ([`dispatch::RemoteBatchEvaluator`]).
//!
//! **The determinism contract survives the network.** A served run is
//! bit-identical to an in-process run of the same request — the whole
//! `Solution`, `RunStats` included (it holds no thread- or
//! timing-dependent field), and the event stream — at any thread or
//! worker count, including workers dying mid-batch. The argument is
//! short: remote work is restricted to items whose result is a pure
//! function of the shipped request (fresh explorer, fresh RNG, backend
//! rebuilt from its parameters — see [`hasco::remote`]), every item has
//! a fixed reassembly slot, and anything the fleet fails to answer is
//! evaluated in-process by the very same function. Sharding and worker death only
//! decide *where* each pure function runs.

pub mod client;
pub mod dispatch;
pub mod proto;
pub mod server;
pub mod worker;

pub use client::{Client, RemoteJob};
pub use dispatch::{RemoteBatchEvaluator, WorkerRegistry};
pub use server::{Server, ServerOptions};
pub use worker::{WorkerHandle, WorkerOptions};

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
