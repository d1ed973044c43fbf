//! A sharded, bounded, concurrent memoization cache.
//!
//! Evaluating one (accelerator, workload) pair runs a whole software DSE —
//! milliseconds to seconds of work — while optimizers frequently revisit
//! configurations (MOBO retuning rounds, NSGA-II elitism). [`MemoCache`]
//! memoizes those evaluations under a caller-chosen key (typically a
//! [`crate::Fingerprint`]), with:
//!
//! * lock sharding so parallel workers rarely contend;
//! * a bounded capacity with oldest-first (FIFO) eviction per shard;
//! * [`CacheStats`] counters (hits / misses / inserts / evictions) cheap
//!   enough to leave on in production and surfaced by `core::report`;
//! * cross-run persistence, section by section: a cache lays its entries
//!   out as one section of a [`crate::persist`]-framed [`Image`], merged
//!   newest-wins over the section a file already holds
//!   ([`MemoCache::merged_section`]), and seeds itself from a section
//!   ([`MemoCache::parse_section`], [`MemoCache::seed`]). Keys are stable
//!   fingerprints, so repeated runs start warm; any corruption degrades
//!   to a clean cold start, never a wrong answer. The caller owns the
//!   image: which caches share it, in which section order;
//! * entry ages: every entry carries the Unix timestamp of its insertion,
//!   persisted with the image, so long-lived shared cache files can be
//!   garbage-collected by age (the `max_age` parameter of
//!   [`MemoCache::merged_section`]) instead of growing until the capacity
//!   bound thrashes. Stamps are clamped to "now" on insert, load, and
//!   merge: an entry stamped in the future (clock skew, an image written
//!   on another host) would otherwise dodge every GC pass forever.
//!
//! Compute-on-miss runs **outside** the shard lock: two workers racing on
//! the same key may both compute, but memoized evaluations are pure, so
//! both arrive at the same value and determinism is unaffected — the
//! duplicated work is the price of never blocking a whole shard on one
//! slow evaluation.

// detlint-allow(iteration-order): shard maps are keyed lookups only; every snapshot/persist order comes from each shard's FIFO `order` vec
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::wire::{self, Reader, Wire};

const SHARDS: usize = 16;

/// Frame magic + format version for persisted caches. The frame payload
/// is a sequence of sections, each `len: u64 ++ entries`; a section holds
/// one cache's entries, each `len: u32 ++ stamp: u64 ++ (key, value)`, all
/// laid out by [`Wire`]. Images of earlier versions load as a cold start.
const PERSIST_MAGIC: &[u8; 8] = b"HASCOMC4";

/// Seconds since the Unix epoch (0 if the clock is before the epoch).
///
/// Clock audit: these stamps exist solely for age-based GC (the `max_age`
/// of `merged_section`). They ride alongside values, are clamped
/// to "now" by `insert_stamped` on insert/load/merge so a skewed clock
/// cannot predate or post-date an entry, and are never hashed into
/// fingerprints, counted in `CacheStats` compares, or returned to
/// callers — cached *values* are byte-identical whatever the clock says.
fn now_secs() -> u64 {
    // detlint-allow(wall-clock): age stamps for GC only; clamped on insert/load/merge and never reach fingerprints, stats, or results
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A validated persisted image: the payload of one checksummed frame,
/// cut into its sections. Caches that persist together share one image,
/// one section each, so a single atomic write saves all of them.
#[derive(Debug, Default)]
pub struct Image {
    /// The whole file; `sections` index into its payload.
    bytes: Vec<u8>,
    sections: Vec<std::ops::Range<usize>>,
}

impl Image {
    /// Reads and validates the image at `path`. A missing file, a wrong
    /// magic (every earlier format version), truncation, a checksum
    /// mismatch or a malformed section table is the cold-start case:
    /// `Ok(None)`.
    ///
    /// # Errors
    /// Propagates I/O errors from reading an *existing* file.
    pub fn read(path: &std::path::Path) -> std::io::Result<Option<Image>> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let Some(payload) = crate::persist::payload_range(PERSIST_MAGIC, &bytes) else {
            return Ok(None);
        };
        let mut sections = Vec::new();
        let mut at = payload.start;
        while at < payload.end {
            let Some(len) = bytes
                .get(at..at + 8)
                .and_then(|b| b.try_into().ok())
                .and_then(|b| usize::try_from(u64::from_le_bytes(b)).ok())
            else {
                return Ok(None);
            };
            let start = at + 8;
            match start.checked_add(len) {
                Some(end) if end <= payload.end => {
                    sections.push(start..end);
                    at = end;
                }
                _ => return Ok(None),
            }
        }
        Ok(Some(Image { bytes, sections }))
    }

    /// The `index`-th section's bytes, if the image has that many.
    pub fn section(&self, index: usize) -> Option<&[u8]> {
        self.bytes.get(self.sections.get(index)?.clone())
    }

    /// Writes `sections`, in order, as one image at `path`, atomically
    /// ([`crate::persist::save_frame`]).
    ///
    /// # Errors
    /// Propagates I/O errors from writing the temp file or renaming it
    /// into place.
    pub fn write(path: &std::path::Path, sections: &[&[u8]]) -> std::io::Result<()> {
        let mut payload = Vec::with_capacity(sections.iter().map(|s| s.len() + 8).sum());
        for section in sections {
            (section.len() as u64).encode(&mut payload);
            payload.extend_from_slice(section);
        }
        crate::persist::save_frame(path, PERSIST_MAGIC, &payload)
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries written (first-time inserts; racing duplicates count once).
    pub inserts: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

crate::wire_struct!(CacheStats {
    hits,
    misses,
    inserts,
    evictions,
});

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when the cache was never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Shard<K, V> {
    /// Value plus insertion timestamp (Unix seconds).
    // detlint-allow(iteration-order): lookup-only; iteration for output always goes through `order` below
    map: HashMap<K, (V, u64)>,
    /// Keys in insertion order, for FIFO eviction.
    order: std::collections::VecDeque<K>,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            // detlint-allow(iteration-order): see the field rationale above
            map: HashMap::new(),
            order: std::collections::VecDeque::new(),
        }
    }
}

/// Per-shard counter cells, so shard-level behavior (hot shards, skewed
/// eviction) is observable without widening any lock.
#[derive(Debug, Default)]
struct ShardCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl ShardCounters {
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A concurrent memoizing cache with bounded capacity and statistics.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Maximum entries per shard (total capacity / shard count).
    per_shard: usize,
    /// One counter block per shard ([`MemoCache::shard_stats`]);
    /// [`MemoCache::stats`] sums them.
    counters: Vec<ShardCounters>,
}

impl<K: Eq + Hash + Clone, V: Clone> MemoCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum one per
    /// shard). The per-shard bound rounds **up**, so the effective
    /// capacity is never below the requested one.
    pub fn new(capacity: usize) -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: capacity.div_ceil(SHARDS).max(1),
            counters: (0..SHARDS).map(|_| ShardCounters::default()).collect(),
        }
    }

    /// Total capacity bound: at least the capacity requested at
    /// construction, rounded up to a multiple of the shard count.
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    /// Current entry count across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").map.len())
            .sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    /// Looks `key` up without computing.
    pub fn get(&self, key: &K) -> Option<V> {
        let idx = self.shard_index(key);
        let shard = self.shards[idx].lock().expect("shard poisoned");
        match shard.map.get(key) {
            Some((v, _)) => {
                self.counters[idx].hits.fetch_add(1, Ordering::Relaxed);
                Some(v.clone())
            }
            None => {
                self.counters[idx].misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a value stamped "now", evicting the shard's oldest entry
    /// when full.
    pub fn insert(&self, key: K, value: V) {
        self.insert_stamped(key, value, now_secs());
    }

    /// Inserts a value with an explicit insertion timestamp (Unix
    /// seconds). Warm-seeding paths use this to preserve the age an entry
    /// had in the cache it came from, so age-based GC sees through
    /// load→run→save cycles instead of treating every reload as fresh.
    ///
    /// Stamps are clamped to "now": an entry stamped in the future (clock
    /// skew, an image restored from another host) would otherwise outlive
    /// every `max_age` GC pass forever, since its age never reaches any
    /// cutoff.
    pub fn insert_stamped(&self, key: K, value: V, stamp: u64) {
        let idx = self.shard_index(&key);
        let mut shard = self.shards[idx].lock().expect("shard poisoned");
        self.put_locked(&mut shard, idx, key, value, stamp.min(now_secs()), true);
    }

    /// Warm-seeds the cache with stamped entries loaded from an image,
    /// like [`MemoCache::insert_stamped`] but without moving any
    /// [`CacheStats`] counter: a seeded entry was computed elsewhere, so
    /// counting it would report work this cache never did. Each shard's
    /// entries are stored in their batch order under one lock and one
    /// clock read — the same final state as one insert per entry, since
    /// shards are independent.
    pub fn seed(&self, entries: &[(K, V, u64)]) {
        let now = now_secs();
        let shards: Vec<usize> = entries
            .iter()
            .map(|(k, _, _)| self.shard_index(k))
            .collect();
        for idx in 0..SHARDS {
            let count = shards.iter().filter(|&&s| s == idx).count();
            if count == 0 {
                continue;
            }
            let mut shard = self.shards[idx].lock().expect("shard poisoned");
            let room = count.min(self.per_shard);
            shard.map.reserve(room);
            shard.order.reserve(room);
            for ((key, value, stamp), _) in entries.iter().zip(&shards).filter(|&(_, &s)| s == idx)
            {
                let (key, value, stamp) = (key.clone(), value.clone(), (*stamp).min(now));
                self.put_locked(&mut shard, idx, key, value, stamp, false);
            }
        }
    }

    /// The one write path: stores `value` under `key` with `stamp`
    /// (already clamped to "now") in shard `idx`, already locked, evicting
    /// the shard's oldest entries past capacity. `counted` decides whether
    /// the insert and its evictions reach the shard's [`CacheStats`].
    fn put_locked(
        &self,
        shard: &mut Shard<K, V>,
        idx: usize,
        key: K,
        value: V,
        stamp: u64,
        counted: bool,
    ) {
        if shard.map.insert(key.clone(), (value, stamp)).is_none() {
            let counters = &self.counters[idx];
            if counted {
                counters.inserts.fetch_add(1, Ordering::Relaxed);
            }
            shard.order.push_back(key);
            while shard.map.len() > self.per_shard {
                let Some(old) = shard.order.pop_front() else {
                    break;
                };
                if shard.map.remove(&old).is_some() && counted {
                    counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Clones every entry with its insertion timestamp, shard by shard in
    /// insertion order — the order a saved image lays them out in.
    pub fn snapshot_stamped(&self) -> Vec<(K, V, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.lock().expect("shard poisoned");
            for key in &s.order {
                if let Some((v, stamp)) = s.map.get(key) {
                    out.push((key.clone(), v.clone(), *stamp));
                }
            }
        }
        out
    }

    /// This cache's entries merged over an `existing` image section, as
    /// one section, with its entry count. The existing entries come
    /// first and this cache's entries win on key collisions
    /// (newest-wins), so shared cache files accumulate warmth across runs
    /// instead of thrashing; a section that does not decode contributes
    /// nothing. With `max_age` set, every merged entry older than it (by
    /// insertion timestamp) is dropped — the time-based GC for long-lived
    /// shared cache files. The merge is eviction-aware: when the union
    /// exceeds this cache's [`MemoCache::capacity`], the oldest surviving
    /// entries are dropped first, exactly as the in-memory FIFO bound
    /// would.
    ///
    /// Entries are laid out by [`Wire`]; keys are expected to be derived
    /// from [`crate::StableFingerprint`]s, which are stable across
    /// processes.
    pub fn merged_section(
        &self,
        existing: Option<&[u8]>,
        max_age: Option<Duration>,
    ) -> (Vec<u8>, u64)
    where
        K: Wire,
        V: Wire,
    {
        let existing = existing.and_then(Self::parse_section).unwrap_or_default();
        // Newest-wins, order-preserving merge: a refreshed key moves to
        // the back (it is the newest), so capacity truncation below drops
        // genuinely stale entries first. The saver's *value* wins on a
        // collision, but the *stamp* is the max of both sides: another
        // process may have refreshed the key in the file after this cache
        // loaded it, and age-GC must not expire an entry someone recently
        // renewed just because a long-running saver still carries the old
        // stamp.
        let now = now_secs();
        let mut slots: Vec<Option<(K, V, u64)>> = Vec::new();
        // detlint-allow(iteration-order): collision index, keyed lookups only; merged order comes from the input chain
        let mut index: HashMap<K, usize> = HashMap::new();
        for (k, v, mut stamp) in existing.into_iter().chain(self.snapshot_stamped()) {
            // Same clamp as the insert path: a future-stamped file entry
            // (clock skew on another writer) must not survive every
            // max-age GC pass forever.
            stamp = stamp.min(now);
            if let Some(&at) = index.get(&k) {
                if let Some((_, _, prior)) = slots[at].take() {
                    stamp = stamp.max(prior);
                }
            }
            index.insert(k.clone(), slots.len());
            slots.push(Some((k, v, stamp)));
        }
        let mut entries: Vec<(K, V, u64)> = slots.into_iter().flatten().collect();
        if let Some(max_age) = max_age {
            let cutoff = now.saturating_sub(max_age.as_secs());
            entries.retain(|(_, _, stamp)| *stamp >= cutoff);
        }
        let cap = self.capacity();
        if entries.len() > cap {
            entries.drain(..entries.len() - cap);
        }
        (Self::encode_section(&entries), entries.len() as u64)
    }

    /// Lays out stamped entries as one image section — the inverse of
    /// [`MemoCache::parse_section`].
    fn encode_section(entries: &[(K, V, u64)]) -> Vec<u8>
    where
        K: Wire,
        V: Wire,
    {
        let mut section = Vec::new();
        let mut entry = Vec::new();
        for (k, v, stamp) in entries {
            entry.clear();
            k.encode(&mut entry);
            v.encode(&mut entry);
            (entry.len() as u32).encode(&mut section);
            stamp.encode(&mut section);
            section.extend_from_slice(&entry);
        }
        section
    }

    /// Decodes one image section into stamped entries, in saved order;
    /// `None` when any entry does not decode as `(K, V)`.
    pub fn parse_section(section: &[u8]) -> Option<Vec<(K, V, u64)>>
    where
        K: Wire,
        V: Wire,
    {
        let mut r = Reader::new(section);
        let mut entries = Vec::new();
        while !r.is_exhausted() {
            let len = u32::decode(&mut r)?;
            let stamp = u64::decode(&mut r)?;
            let (k, v) = wire::from_bytes(r.take(usize::try_from(len).ok()?)?)?;
            entries.push((k, v, stamp));
        }
        Some(entries)
    }

    /// Snapshot of the counters, summed across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.counters {
            let s = c.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.inserts += s.inserts;
            total.evictions += s.evictions;
        }
        total
    }

    /// Per-shard counter snapshot, in shard order — the telemetry view of
    /// shard balance (hot shards, skewed eviction pressure).
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.counters.iter().map(ShardCounters::stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        // A cache with no lookups reports a 0 hit rate, not NaN.
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert_eq!(cache.get(&1), None); // miss
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10)); // hit
        assert_eq!(cache.get(&2), None); // miss
        cache.insert(2, 20);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.evictions, 0);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shard_stats_sum_to_totals_and_localize_traffic() {
        // Roomy capacity: no shard evicts, so every re-read is a hit.
        let cache: MemoCache<u64, u64> = MemoCache::new(1024);
        for k in 0..40u64 {
            cache.insert(k, k);
        }
        for k in 0..40u64 {
            assert_eq!(cache.get(&k), Some(k));
        }
        cache.get(&10_000);
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), super::SHARDS);
        let total = cache.stats();
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), total.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), total.misses);
        assert_eq!(shards.iter().map(|s| s.inserts).sum::<u64>(), total.inserts);
        // A single key's traffic lands on exactly one shard.
        let hot = cache.shard_index(&7);
        let before = cache.shard_stats();
        cache.get(&7);
        let after = cache.shard_stats();
        assert_eq!(after[hot].hits, before[hot].hits + 1);
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i != hot {
                assert_eq!(b, a, "shard {i} unexpectedly changed");
            }
        }
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        // Single-entry shards: every shard holds exactly one key.
        let cache: MemoCache<u64, u64> = MemoCache::new(1);
        assert_eq!(cache.capacity(), super::SHARDS);
        // Find two keys landing in the same shard and insert three values.
        let mut same_shard = vec![0u64];
        let first = cache.shard_index(&0);
        for k in 1..10_000u64 {
            if cache.shard_index(&k) == first {
                same_shard.push(k);
                if same_shard.len() == 3 {
                    break;
                }
            }
        }
        assert_eq!(same_shard.len(), 3, "needed 3 colliding keys");
        for &k in &same_shard {
            cache.insert(k, k + 100);
        }
        let s = cache.stats();
        assert_eq!(s.inserts, 3);
        assert_eq!(s.evictions, 2);
        // Only the newest of the colliding keys survives.
        assert_eq!(cache.get(&same_shard[2]), Some(same_shard[2] + 100));
        assert_eq!(cache.get(&same_shard[0]), None);
        assert_eq!(cache.get(&same_shard[1]), None);
    }

    #[test]
    fn reinserting_an_existing_key_is_not_an_insert() {
        let cache: MemoCache<u64, u64> = MemoCache::new(8);
        cache.insert(1, 1);
        cache.insert(1, 2);
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(cache.get(&1), Some(2));
    }

    /// Appends one image entry (`len u32 ++ stamp u64 ++ (key, value)`).
    fn push_entry(payload: &mut Vec<u8>, stamp: u64, k: u64, v: u64) {
        16u32.encode(payload);
        stamp.encode(payload);
        (k, v).encode(payload);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hasco-cache-test-{name}-{}", std::process::id()));
        p
    }

    /// A one-section image holding `section`.
    fn image_of(section: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        (section.len() as u64).encode(&mut payload);
        payload.extend_from_slice(section);
        crate::persist::frame(PERSIST_MAGIC, &payload)
    }

    /// Saves `cache` as the image's one section, merged over the file's
    /// first section and age-GC'd with `max_age`: the section-level calls
    /// an image's owner makes. Returns the entries written.
    fn save_with_max_age(
        cache: &MemoCache<u64, u64>,
        path: &std::path::Path,
        max_age: Option<Duration>,
    ) -> u64 {
        let existing = Image::read(path).ok().flatten().unwrap_or_default();
        let (section, written) = cache.merged_section(existing.section(0), max_age);
        Image::write(path, &[&section]).unwrap();
        written
    }

    /// [`save_with_max_age`] without age GC.
    fn save(cache: &MemoCache<u64, u64>, path: &std::path::Path) -> u64 {
        save_with_max_age(cache, path, None)
    }

    /// Seeds `cache` from the image's first section, all or nothing, and
    /// returns the entries parsed: 0, seeding nothing, for a cold start.
    fn load<V: Wire + Clone>(cache: &MemoCache<u64, V>, path: &std::path::Path) -> u64 {
        let image = Image::read(path).unwrap();
        let Some(entries) = image
            .as_ref()
            .and_then(|image| image.section(0))
            .and_then(MemoCache::<u64, V>::parse_section)
        else {
            return 0;
        };
        cache.seed(&entries);
        entries.len() as u64
    }

    #[test]
    fn persistence_round_trips() {
        let cache: MemoCache<u64, u64> = MemoCache::new(256);
        for k in 0..50u64 {
            cache.insert(k, k * 7);
        }
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        assert_eq!(save(&cache, &path), 50);
        let warm: MemoCache<u64, u64> = MemoCache::new(256);
        assert_eq!(load(&warm, &path), 50);
        for k in 0..50u64 {
            assert_eq!(warm.get(&k), Some(k * 7), "key {k}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn timestamps_survive_persistence_round_trips() {
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        cache.insert_stamped(1, 10, 12345);
        cache.insert_stamped(2, 20, 67890);
        let path = temp_path("stamps");
        std::fs::remove_file(&path).ok();
        save(&cache, &path);
        let warm: MemoCache<u64, u64> = MemoCache::new(64);
        load(&warm, &path);
        let mut stamps: Vec<(u64, u64)> = warm
            .snapshot_stamped()
            .into_iter()
            .map(|(k, _, s)| (k, s))
            .collect();
        stamps.sort_unstable();
        assert_eq!(stamps, vec![(1, 12345), (2, 67890)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_images_load_as_cold_starts() {
        // Hand-build an image in the retired version-2 layout (magic,
        // entry count, stamped entries, checksum trailer): it must load as
        // a clean cold start, not as entries.
        let mut payload = Vec::new();
        for (k, v) in [(1u64, 10u64), (2, 20)] {
            push_entry(&mut payload, super::now_secs(), k, v);
        }
        let mut image = Vec::new();
        image.extend_from_slice(b"HASCOMC2");
        2u64.encode(&mut image);
        image.extend_from_slice(&payload);
        let mut fp = crate::Fingerprinter::new();
        fp.write_bytes(&payload);
        fp.finish().0.encode(&mut image);

        let path = temp_path("v2");
        std::fs::write(&path, &image).unwrap();
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        assert_eq!(load(&cache, &path), 0);
        assert!(cache.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_stamps_are_clamped_on_insert() {
        // Regression: a stamp from a skewed clock used to survive every
        // max-age pass forever, because its age never reached any cutoff.
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        let future = super::now_secs() + 1_000_000;
        cache.insert_stamped(1, 10, future);
        cache.seed(&[(3, 30, future)]);
        for (_, _, stamp) in cache.snapshot_stamped() {
            assert!(
                stamp <= super::now_secs(),
                "future stamp survived the clamp: {stamp}"
            );
        }
        // A clamped entry ages normally: it is fresh now, so a one-hour GC
        // keeps both.
        let (_, kept) = cache.merged_section(None, Some(Duration::from_secs(3600)));
        assert_eq!(kept, 2);
    }

    #[test]
    fn future_stamps_are_clamped_on_load_and_merge() {
        // Hand-build an image whose entries claim timestamps far in the
        // future (an image written by a host with a skewed clock).
        let future = super::now_secs() + 1_000_000;
        let mut payload = Vec::new();
        for (k, v) in [(1u64, 10u64), (2, 20)] {
            push_entry(&mut payload, future, k, v);
        }
        let image = image_of(&payload);

        let path = temp_path("future");
        std::fs::write(&path, &image).unwrap();

        // Loading clamps.
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        assert_eq!(load(&cache, &path), 2);
        for (_, _, stamp) in cache.snapshot_stamped() {
            assert!(stamp <= super::now_secs(), "load kept a future stamp");
        }

        // Merging over the skewed file clamps the file's entries too: the
        // saved image must contain no future stamps.
        std::fs::write(&path, &image).unwrap();
        let merger: MemoCache<u64, u64> = MemoCache::new(64);
        merger.insert(3, 30);
        save(&merger, &path);
        let reloaded: MemoCache<u64, u64> = MemoCache::new(64);
        assert_eq!(load(&reloaded, &path), 3);
        for (_, _, stamp) in reloaded.snapshot_stamped() {
            assert!(stamp <= super::now_secs(), "merge kept a future stamp");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merged_save_with_max_age_garbage_collects_the_file() {
        let path = temp_path("merge-gc");
        std::fs::remove_file(&path).ok();
        let now = super::now_secs();
        let old: MemoCache<u64, u64> = MemoCache::new(64);
        old.insert_stamped(1, 10, now.saturating_sub(10_000));
        old.insert_stamped(2, 20, now.saturating_sub(9_000));
        save(&old, &path);
        // A later run merges fresh entries with a one-hour max age: the
        // aged entries are dropped from the file, the fresh ones kept.
        let fresh: MemoCache<u64, u64> = MemoCache::new(64);
        fresh.insert(3, 30);
        let written = save_with_max_age(&fresh, &path, Some(Duration::from_secs(3600)));
        assert_eq!(written, 1);
        let warm: MemoCache<u64, u64> = MemoCache::new(64);
        assert_eq!(load(&warm, &path), 1);
        assert_eq!(warm.get(&3), Some(30));
        assert_eq!(warm.get(&1), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capacity_is_never_below_the_request() {
        // 100 / 16 rounds down to 6 shards of 96; div_ceil gives 7 * 16.
        assert_eq!(MemoCache::<u64, u64>::new(100).capacity(), 112);
        assert_eq!(MemoCache::<u64, u64>::new(96).capacity(), 96);
        assert_eq!(MemoCache::<u64, u64>::new(0).capacity(), super::SHARDS);
        for req in [1usize, 7, 16, 17, 100, 4096, 5000] {
            assert!(
                MemoCache::<u64, u64>::new(req).capacity() >= req,
                "capacity({req}) reported below the request"
            );
        }
    }

    #[test]
    fn save_leaves_no_temp_files_behind() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("hasco-cache-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        cache.insert(1, 2);
        save(&cache, &path);
        save(&cache, &path); // the second save merges over the first
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["cache.bin".to_string()], "temp files leaked");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_save_accumulates_and_newest_wins() {
        let path = temp_path("merge");
        std::fs::remove_file(&path).ok();
        let first: MemoCache<u64, u64> = MemoCache::new(256);
        first.insert(1, 10);
        first.insert(2, 20);
        save(&first, &path);
        // A later run shares keys 2 and 3; its value for key 2 must win.
        let second: MemoCache<u64, u64> = MemoCache::new(256);
        second.insert(2, 22);
        second.insert(3, 30);
        let written = save(&second, &path);
        assert_eq!(written, 3);
        let loaded: MemoCache<u64, u64> = MemoCache::new(256);
        assert_eq!(load(&loaded, &path), 3);
        assert_eq!(loaded.get(&1), Some(10), "existing-only entry lost");
        assert_eq!(loaded.get(&2), Some(22), "newest value must win");
        assert_eq!(loaded.get(&3), Some(30));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merged_save_respects_the_capacity_bound_evicting_oldest() {
        let path = temp_path("merge-cap");
        std::fs::remove_file(&path).ok();
        let big: MemoCache<u64, u64> = MemoCache::new(1024);
        for k in 0..100u64 {
            big.insert(k, k);
        }
        save(&big, &path);
        // A tiny cache merging on top keeps only its capacity's worth,
        // and its own (newest) entries survive the truncation.
        let small: MemoCache<u64, u64> = MemoCache::new(16);
        small.insert(1000, 1);
        let written = save(&small, &path);
        assert_eq!(written as usize, small.capacity());
        let loaded: MemoCache<u64, u64> = MemoCache::new(1024);
        load(&loaded, &path);
        assert_eq!(loaded.get(&1000), Some(1), "fresh entry must survive");
        assert_eq!(loaded.len(), small.capacity());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merged_save_over_a_corrupt_file_degrades_to_plain_save() {
        let path = temp_path("merge-corrupt");
        std::fs::write(&path, b"HASCOMC3 but then garbage").unwrap();
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        cache.insert(7, 70);
        assert_eq!(save(&cache, &path), 1);
        let loaded: MemoCache<u64, u64> = MemoCache::new(64);
        assert_eq!(load(&loaded, &path), 1);
        assert_eq!(loaded.get(&7), Some(70));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_propagates_real_io_errors() {
        // A directory at the path is an I/O failure, not a cold start.
        let mut dir = std::env::temp_dir();
        dir.push(format!("hasco-cache-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Image::read(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        let loaded = load(&cache, std::path::Path::new("/nonexistent/hasco.bin"));
        assert_eq!(loaded, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn corrupted_files_yield_clean_cold_starts() {
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        for k in 0..10u64 {
            cache.insert(k, k);
        }
        let path = temp_path("corrupt");
        std::fs::remove_file(&path).ok();
        save(&cache, &path);
        let good = std::fs::read(&path).unwrap();

        // Flip one payload byte (checksum mismatch), truncate, and garble
        // the magic: each must load zero entries and leave the cache empty.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        let mut short = good.clone();
        short.truncate(good.len() - 5);
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        for (label, image) in [("flipped", flipped), ("short", short), ("magic", bad_magic)] {
            std::fs::write(&path, &image).unwrap();
            let fresh: MemoCache<u64, u64> = MemoCache::new(64);
            assert_eq!(load(&fresh, &path), 0, "{label}");
            assert!(fresh.is_empty(), "{label}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejecting_decoder_yields_cold_start() {
        let cache: MemoCache<u64, u64> = MemoCache::new(64);
        cache.insert(1, 2);
        let path = temp_path("reject");
        std::fs::remove_file(&path).ok();
        save(&cache, &path);
        // The entries are `(u64, u64)`; read as `(u64, bool)`, the value
        // `2` is no bool, so the image is rejected as a whole.
        let fresh: MemoCache<u64, bool> = MemoCache::new(64);
        let loaded = load(&fresh, &path);
        assert_eq!(loaded, 0);
        assert!(fresh.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loading_moves_no_counter() {
        let source: MemoCache<u64, u64> = MemoCache::new(64);
        for k in 0..10u64 {
            source.insert(k, k);
        }
        let path = temp_path("uncounted");
        std::fs::remove_file(&path).ok();
        save(&source, &path);
        let loaded: MemoCache<u64, u64> = MemoCache::new(64);
        assert_eq!(load(&loaded, &path), 10);
        assert_eq!(loaded.len(), 10);
        assert_eq!(loaded.stats(), CacheStats::default());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_respects_capacity_bound() {
        let big: MemoCache<u64, u64> = MemoCache::new(1024);
        for k in 0..200u64 {
            big.insert(k, k);
        }
        let path = temp_path("capacity");
        std::fs::remove_file(&path).ok();
        save(&big, &path);
        let small: MemoCache<u64, u64> = MemoCache::new(1);
        let loaded = load(&small, &path);
        assert_eq!(loaded, 200);
        assert!(small.len() <= small.capacity());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_mixed_load_is_consistent() {
        let cache: MemoCache<u64, u64> = MemoCache::new(1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = (i + t * 13) % 100;
                        if cache.get(&k).is_none() {
                            cache.insert(k, k * 3);
                        }
                        assert_eq!(cache.get(&k), Some(k * 3));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4000);
        assert!(cache.len() <= 100);
    }

    /// A memo image with a stand-in value type that exercises the same
    /// codec paths as the engine's `Option<Metrics>`: a tag byte, then
    /// floats (here behind a length prefix, so counts get fuzzed too).
    type Memo = MemoCache<(u64, u64), Option<Vec<f64>>>;

    /// Parses `section` (as a checksum-validated image would hand it
    /// over, so every byte reaches the entry decoder): the parse must
    /// reject the section or return entries that lay out to the very same
    /// bytes.
    fn check_image(section: &[u8]) -> Result<(), TestCaseError> {
        if let Some(entries) = Memo::parse_section(section) {
            prop_assert_eq!(Memo::encode_section(&entries), section.to_vec());
        }
        Ok(())
    }

    fn valid_payload() -> Vec<u8> {
        let entries = vec![
            ((1, 2), None, 10),
            ((3, 4), Some(vec![1.5, -0.0, f64::MIN_POSITIVE]), 20),
            ((5, 6), Some(vec![]), u64::MAX),
        ];
        let section = Memo::encode_section(&entries);
        assert_eq!(Memo::parse_section(&section), Some(entries));
        section
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn image_parse_never_panics_on_arbitrary_payloads(
            payload in prop::collection::vec(any::<u8>(), 0..128),
        ) {
            check_image(&payload)?;
        }

        #[test]
        fn image_parse_never_panics_on_mutated_images(
            edits in prop::collection::vec((any::<u64>(), any::<u8>()), 1..4),
            cut in any::<u64>(),
        ) {
            let mut payload = valid_payload();
            for (at, byte) in edits {
                let at = (at % payload.len() as u64) as usize;
                payload[at] = byte;
            }
            if cut % 4 == 0 {
                payload.truncate((cut >> 2) as usize % (payload.len() + 1));
            }
            check_image(&payload)?;
        }
    }
}
