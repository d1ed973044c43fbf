//! [`EncodedStore`] — a bounded, concurrent store of pure values, kept
//! wire-encoded under 128-bit keys ([`crate::Key128`]) and persisted as one
//! section of an [`Image`].
//!
//! Values stay encoded until a hit, so restoring an image decodes none of
//! them, and every store of this shape shares one wrapper over
//! [`MemoCache`]: the engine's store of final software explorations and
//! its store of MOBO acquisitions are two instances.

use std::marker::PhantomData;
use std::time::Duration;

use crate::cache::{CacheStats, Image, MemoCache};
use crate::wire::{self, Bytes, Wire};

/// One stored entry with its insertion stamp, as an image section holds
/// it.
pub type StoredEntry = ((u64, u64), Bytes, u64);

/// Encoded `V`s under their 128-bit keys; see the module docs.
#[derive(Debug)]
pub struct EncodedStore<V> {
    cache: MemoCache<(u64, u64), Bytes>,
    value: PhantomData<fn() -> V>,
}

impl<V: Wire> EncodedStore<V> {
    /// An empty store bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        EncodedStore {
            cache: MemoCache::new(capacity),
            value: PhantomData,
        }
    }

    /// The value stored under `key`. An entry that does not decode (which
    /// a checksummed image cannot hold) is a miss.
    pub fn get(&self, key: &(u64, u64)) -> Option<V> {
        wire::from_bytes(&self.cache.get(key)?.0)
    }

    /// Stores `value` under `key`.
    pub fn insert(&self, key: (u64, u64), value: &V) {
        self.cache.insert(key, Bytes(wire::to_bytes(value)));
    }

    /// Entries stored so far, seeded ones excluded (a save trigger).
    pub fn inserts(&self) -> u64 {
        self.cache.stats().inserts
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Per-shard hit/miss/insert counters (a telemetry cache scope).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.cache.shard_stats()
    }

    /// This store's image section, merged over the `existing` one
    /// ([`MemoCache::merged_section`]).
    pub fn merged_section(&self, existing: Option<&[u8]>, max_age: Option<Duration>) -> Vec<u8> {
        self.cache.merged_section(existing, max_age).0
    }

    /// Decodes `image`'s section `index`: a missing section is an empty
    /// store (an image written before the store existed), one that does
    /// not decode is `None`.
    pub fn parse_section(image: &Image, index: usize) -> Option<Vec<StoredEntry>> {
        image
            .section(index)
            .map_or(Some(Vec::new()), MemoCache::parse_section)
    }

    /// Seeds parsed entries without counting them.
    pub fn seed(&self, entries: &[StoredEntry]) {
        self.cache.seed(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_an_image_section() {
        let store: EncodedStore<Vec<u64>> = EncodedStore::new(64);
        assert!(store.is_empty());
        store.insert((1, 2), &vec![3, 4]);
        assert_eq!(store.get(&(1, 2)), Some(vec![3, 4]));
        assert_eq!(store.get(&(2, 1)), None);
        assert_eq!((store.len(), store.inserts()), (1, 1));

        let path = std::env::temp_dir().join(format!("hasco-store-{}.bin", std::process::id()));
        let section = store.merged_section(None, None);
        Image::write(&path, &[&[], &section]).unwrap();
        let image = Image::read(&path).unwrap().expect("a valid image");
        let restored: EncodedStore<Vec<u64>> = EncodedStore::new(64);
        restored.seed(&EncodedStore::<Vec<u64>>::parse_section(&image, 1).unwrap());
        assert_eq!(restored.get(&(1, 2)), Some(vec![3, 4]));
        assert_eq!(restored.inserts(), 0);
        // A section the image does not have is an empty store.
        assert_eq!(
            EncodedStore::<Vec<u64>>::parse_section(&image, 2),
            Some(Vec::new())
        );
        std::fs::remove_file(&path).ok();
    }
}
