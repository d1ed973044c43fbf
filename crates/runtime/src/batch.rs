//! The batch-evaluation seam between optimizers and evaluation engines.
//!
//! Optimizers (MOBO prior sampling, NSGA-II generations) naturally
//! produce *batches* of candidates whose evaluations are independent;
//! evaluation engines (the co-design `HwProblem`, software explorer
//! pools) own the thread pool and the memo cache. The
//! [`BatchEvaluator`] trait is the seam: "evaluate this slice of requests
//! and give me the responses in the same order". How the engine executes
//! — serially, on a [`crate::WorkerPool`], against a [`crate::MemoCache`],
//! or in some future remote backend — is invisible to the optimizer, which
//! is what keeps `threads = 1` and `threads = N` bitwise identical.

/// An engine that evaluates request batches, preserving order.
///
/// `&self` receivers are deliberate: engines are shared across worker
/// threads and manage interior state (caches, counters) with interior
/// mutability.
pub trait BatchEvaluator {
    /// What gets evaluated (a design `Point`, an `(accelerator, workload)`
    /// pair, a schedule...).
    type Request;

    /// The evaluation outcome.
    type Response;

    /// Evaluates every request, returning responses **in request order**.
    /// Implementations must guarantee the result is independent of worker
    /// count and scheduling.
    fn evaluate_batch(&self, batch: &[Self::Request]) -> Vec<Self::Response>;
}
