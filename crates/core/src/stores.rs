//! [`Stores`] — an engine's warm state as one value. Every job reads and
//! writes the same four stores live (the [`engine`](crate::engine) module
//! docs say why no job can observe them). All but the choice memo persist
//! in one `HASCOMC5` [`Image`], one section each; this module alone knows
//! the section order and when the image is stale.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dse::mobo::AcquisitionStore;
use runtime::{Image, MemoCache, Telemetry};
use sw_opt::explorer::ChoiceMemo;

use crate::finals::FinalsStore;
use crate::pricing::PairMemo;

/// The image's sections, in order.
const PAIRS: usize = 0;
const FINALS: usize = 1;
const ACQUISITIONS: usize = 2;

/// The four live stores; see the module docs.
pub(crate) struct Stores {
    /// One software exploration's metrics per priced pair.
    pub pairs: Arc<PairMemo>,
    /// Tensorize choices per (loop nest, intrinsic kind); not persisted.
    pub choices: Arc<ChoiceMemo>,
    /// Completed final explorations (see [`crate::finals`]).
    pub finals: Arc<FinalsStore>,
    /// Scored MOBO acquisitions (see [`dse::mobo`]).
    pub acquisitions: Arc<AcquisitionStore>,
    /// [`Stores::inserts`] at the last save's snapshot.
    saved_inserts: AtomicU64,
}

impl Stores {
    /// Empty stores, each persisted one bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Stores {
            pairs: Arc::new(MemoCache::new(capacity)),
            choices: Arc::default(),
            finals: Arc::new(FinalsStore::new(capacity)),
            acquisitions: Arc::new(AcquisitionStore::new(capacity)),
            saved_inserts: AtomicU64::new(0),
        }
    }

    /// Entries inserted into the persisted stores, loaded ones excluded. A
    /// stored value never changes without an insert.
    fn inserts(&self) -> u64 {
        self.pairs.stats().inserts + self.finals.inserts() + self.acquisitions.inserts()
    }

    /// Seeds every persisted store from the image at `path`, all or
    /// nothing; returns the pair entries it held. A missing finals or
    /// acquisitions section (an image older than that store) is an empty
    /// store; anything else malformed is a cold start (0).
    pub fn load(&self, path: &Path) -> u64 {
        let Ok(Some(image)) = Image::read(path) else {
            return 0;
        };
        let pairs = image.section(PAIRS).and_then(PairMemo::parse_section);
        let finals = FinalsStore::parse_section(&image, FINALS);
        let acquisitions = AcquisitionStore::parse_section(&image, ACQUISITIONS);
        let (Some(pairs), Some(finals), Some(acquisitions)) = (pairs, finals, acquisitions) else {
            return 0;
        };
        self.pairs.seed(&pairs);
        self.finals.seed(&finals);
        self.acquisitions.seed(&acquisitions);
        pairs.len() as u64
    }

    /// Writes every persisted store to `path` in one atomic write, each
    /// merged newest-wins over the file's section and age-GC'd with
    /// `max_age` ([`MemoCache::merged_section`]); a corrupt file
    /// contributes nothing. Returns the pair entries written.
    ///
    /// # Errors
    /// Propagates I/O errors from writing the image, which stays stale.
    pub fn save(&self, path: &Path, max_age: Option<Duration>) -> std::io::Result<u64> {
        // Counted before the snapshots: an entry landing after them leaves
        // the image stale.
        let inserts = self.inserts();
        let existing = Image::read(path).ok().flatten().unwrap_or_default();
        let section = |index| existing.section(index);
        let (pairs, written) = self.pairs.merged_section(section(PAIRS), max_age);
        let finals = self.finals.merged_section(section(FINALS), max_age);
        let acquisitions = self
            .acquisitions
            .merged_section(section(ACQUISITIONS), max_age);
        Image::write(path, &[&pairs, &finals, &acquisitions])?;
        // detlint-allow(atomics): save scheduling only; a stale mark costs at most one extra save
        self.saved_inserts.fetch_max(inserts, Ordering::Relaxed);
        Ok(written)
    }

    /// True when a persisted store gained entries since the last save.
    pub fn is_stale(&self) -> bool {
        // detlint-allow(atomics): save-mark read decides whether to save; a stale read at worst saves once more
        self.inserts() > self.saved_inserts.load(Ordering::Relaxed)
    }

    /// Refreshes the persisted stores' telemetry cache scopes: `store`,
    /// `finals` and `acquisitions`.
    pub fn report(&self, telemetry: &Telemetry) {
        telemetry.set_cache_shards("store", &self.pairs.shard_stats());
        telemetry.set_cache_shards("finals", &self.finals.shard_stats());
        telemetry.set_cache_shards("acquisitions", &self.acquisitions.shard_stats());
    }
}
