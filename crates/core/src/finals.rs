//! The engine's store of completed final explorations (step 3, §VI-B).
//!
//! A job ends by re-optimizing the software "thoroughly" on the chosen
//! accelerator. That exploration is a pure function of the workload's
//! loop nest, the accelerator config, the `sw_final` options, the seed and
//! the final tier's backend, so the engine keeps every completed one,
//! keyed like the pair memo ([`FinalsStore::key`]), and a job that prices
//! a known final reads it instead of exploring again.
//!
//! Jobs read and write the store live, with no per-job snapshot. A hit
//! returns bit for bit what the exploration would have returned, and it is
//! counted in neither [`RunStats`](crate::report::RunStats) nor the event
//! stream (`SoftwareOptimized` carries the stored rounds), so when an
//! entry becomes visible to a job cannot change any result. Only
//! explorations that ran all their rounds are stored: one cut short by a
//! cancel is not the pure function's value.
//!
//! Entries stay wire-encoded until a hit, so restoring an image decodes
//! none of them. The store persists beside the pair memo, as the second
//! section of the same [`Image`].

use accel_model::arch::AcceleratorConfig;
use accel_model::Metrics;
use runtime::wire::{self, Bytes};
use runtime::{CacheStats, Fingerprint, Image, Key128, MemoCache, StableFingerprint};
use sw_opt::explorer::ExplorerOptions;
use sw_opt::schedule::Schedule;
use tensor_ir::workload::Workload;

/// One completed final exploration of one workload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Final {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its metrics on the accelerator.
    pub metrics: Metrics,
    /// Revision rounds the exploration ran.
    pub rounds: usize,
}

runtime::wire_struct!(Final {
    schedule,
    metrics,
    rounds,
});

/// Encoded [`Final`]s under their 128-bit keys.
type Cache = MemoCache<(u64, u64), Bytes>;

/// One stored entry with its age, as an image section holds it.
type Entry = ((u64, u64), Bytes, u64);

/// The engine-wide finals store; see the module docs.
#[derive(Debug)]
pub(crate) struct FinalsStore {
    cache: Cache,
}

impl FinalsStore {
    /// An empty store bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        FinalsStore {
            cache: MemoCache::new(capacity),
        }
    }

    /// The key of `workload`'s final exploration on `cfg`: the workload's
    /// loop nest, the `sw_final` options, the seed and the final tier's
    /// backend fingerprint (which covers the tech constants), extended by
    /// the accelerator config — the pair memo's recipe.
    pub fn key(
        workload: &Workload,
        cfg: &AcceleratorConfig,
        sw_final: &ExplorerOptions,
        seed: u64,
        backend: Fingerprint,
    ) -> (u64, u64) {
        let mut key = Key128::of(|fp| {
            workload.fingerprint_into(fp);
            sw_final.fingerprint_into(fp);
            fp.write_u64(seed);
            fp.write_u64(backend.0);
        });
        key.feed(|fp| cfg.fingerprint_into(fp));
        key.finish()
    }

    /// The stored exploration under `key`. An entry that does not decode
    /// (which a checksummed image cannot hold) is a miss.
    pub fn get(&self, key: &(u64, u64)) -> Option<Final> {
        wire::from_bytes(&self.cache.get(key)?.0)
    }

    /// Stores a completed exploration.
    pub fn insert(&self, key: (u64, u64), done: &Final) {
        self.cache.insert(key, Bytes(wire::to_bytes(done)));
    }

    /// Entries stored so far, seeded ones excluded (the engine's save
    /// trigger).
    pub fn inserts(&self) -> u64 {
        self.cache.stats().inserts
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Per-shard hit/miss/insert counters (the `finals` cache scope).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.cache.shard_stats()
    }

    /// Drops entries older than `max_age`; returns how many.
    pub fn compact(&self, max_age: std::time::Duration) -> usize {
        self.cache.compact(max_age)
    }

    /// This store's image section, merged over the `existing` one
    /// ([`MemoCache::merged_section`]).
    pub fn merged_section(
        &self,
        existing: Option<&[u8]>,
        max_age: Option<std::time::Duration>,
    ) -> Vec<u8> {
        self.cache.merged_section(existing, max_age).0
    }

    /// Decodes an image's finals section; a missing section is an empty
    /// store, one that does not decode is `None`.
    pub fn parse_section(image: &Image) -> Option<Vec<Entry>> {
        image
            .section(1)
            .map_or(Some(Vec::new()), Cache::parse_section)
    }

    /// Seeds parsed entries without counting them.
    pub fn seed(&self, entries: &[Entry]) {
        self.cache.seed(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    #[test]
    fn final_key_is_pinned() {
        // Final keys are persisted in `--cache` images: a moved key turns
        // every stored final into a miss.
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(8, 8)
            .build()
            .unwrap();
        let key = FinalsStore::key(
            &suites::gemm_workload("g2", 256, 128, 64),
            &cfg,
            &crate::CoDesignOptions::quick(0).sw_final,
            3,
            Fingerprint(0x1234),
        );
        assert_eq!(key, (0x4db8c51109472d7f, 0xcd5685e170f5d6c6));
    }
}
