//! Parallel evaluation runtime for the HASCO reproduction.
//!
//! The co-design loop is evaluation-bound: every hardware trial runs the
//! software explorer over every workload, and population-based optimizers
//! (NSGA-II, MOBO prior sampling) evaluate whole batches per step. This
//! crate is the shared infrastructure that turns those batches into
//! parallel work without giving up fixed-seed reproducibility:
//!
//! * [`pool::WorkerPool`] — a fixed-size worker pool whose [`WorkerPool::map`]
//!   fans a batch out to threads and reassembles results **in submission
//!   order**, so a run with `threads = 4` is bitwise identical to
//!   `threads = 1` whenever the per-item work is deterministic;
//! * [`cache::MemoCache`] — a sharded, bounded, concurrent memoization
//!   cache with hit/miss/eviction accounting ([`cache::CacheStats`]);
//! * [`fingerprint`] — stable structural hashing ([`StableFingerprint`])
//!   used to key the cache by accelerator config + workload + explorer
//!   options;
//! * [`batch::BatchEvaluator`] — the seam optimizers program against: "give
//!   me the responses for this slice of requests, in order";
//! * [`persist`] — shared warm-state image machinery (atomic replacement,
//!   checksummed framing, corruption-tolerant loading) used by the memo
//!   cache and the engine's surrogate-registry store;
//! * [`store::EncodedStore`] — a [`MemoCache`] of wire-encoded pure
//!   values under 128-bit keys, persisted as one image section;
//! * [`wire`] — the one binary codec ([`wire::Wire`]) for every value
//!   that crosses a process boundary: memo-image entries, surrogate
//!   snapshots, and network messages;
//! * [`telemetry`] — out-of-band wall-clock spans, counters, gauges, and
//!   histograms ([`Telemetry`]), a side channel that observes the
//!   pipeline without ever feeding back into results.
//!
//! # Determinism contract
//!
//! Everything here preserves a simple invariant: **thread count never
//! changes results, only wall-clock time**. Batch composition must not
//! depend on `threads` (callers decide batch sizes from problem
//! parameters), [`WorkerPool::map`] returns results in input order, and
//! the memo cache only memoizes pure evaluations, so a hit returns exactly
//! what the miss would have computed.
//!
//! # Example
//!
//! ```
//! use runtime::{BatchEvaluator, MemoCache, WorkerPool};
//!
//! struct Squarer {
//!     pool: WorkerPool,
//!     cache: MemoCache<u64, u64>,
//! }
//!
//! impl BatchEvaluator for Squarer {
//!     type Request = u64;
//!     type Response = u64;
//!     fn evaluate_batch(&self, batch: &[u64]) -> Vec<u64> {
//!         self.pool.map(batch, |_, &x| {
//!             self.cache.get(&x).unwrap_or_else(|| {
//!                 let y = x * x;
//!                 self.cache.insert(x, y);
//!                 y
//!             })
//!         })
//!     }
//! }
//!
//! let sq = Squarer { pool: WorkerPool::new(4), cache: MemoCache::new(128) };
//! assert_eq!(sq.evaluate_batch(&[3, 4, 3]), vec![9, 16, 9]);
//! // Workers racing on the same key may both miss, so within a batch the
//! // hit count depends on the interleaving; a second batch hits every key.
//! let first = sq.cache.stats();
//! assert_eq!(first.hits + first.misses, 3);
//! assert_eq!(sq.evaluate_batch(&[4, 3]), vec![16, 9]);
//! assert_eq!(sq.cache.stats().hits, first.hits + 2);
//! ```

pub mod batch;
pub mod cache;
pub mod fingerprint;
pub mod jobs;
pub mod persist;
pub mod pool;
pub mod store;
pub mod telemetry;
pub mod wire;

pub use batch::BatchEvaluator;
pub use cache::{CacheStats, Image, MemoCache};
pub use fingerprint::{Fingerprint, Fingerprinter, Key128, StableFingerprint};
pub use jobs::JobScheduler;
pub use pool::{PoolStats, WorkerPool};
pub use store::EncodedStore;
pub use telemetry::{Telemetry, TelemetrySnapshot, Timer, TELEMETRY_SCHEMA};

/// A point in a discrete search space (one choice index per dimension) —
/// mirrors `dse::problem::Point` so the batch seam does not depend on the
/// optimizer crate.
pub type Point = Vec<usize>;

/// Resolves a requested thread count: `0` means "use all available cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn resolve_threads_passthrough_and_auto() {
        assert_eq!(super::resolve_threads(3), 3);
        assert!(super::resolve_threads(0) >= 1);
    }
}
