//! Lifecycle properties of the persisted evaluation cache: round-trips
//! survive arbitrary byte-level corruption without ever inventing data,
//! merged saves accumulate newest-wins across runs, interrupted saves
//! (simulated partial writes) never destroy a loadable file, and
//! concurrent savers interleave into a loadable, merged image, and the
//! engine's three-section `HASCOMC4` image layout is pinned byte for byte
//! (a two-section image written before the acquisition store existed
//! still loads; an image of the retired `HASCOMC3` layout is a clean cold
//! start).

use accel_model::Metrics;
use dse::mobo::{Acquired, AcquisitionStore};
use hasco::{Engine, EngineConfig};
use proptest::prelude::*;

use runtime::{Image, MemoCache};

/// The one save entry point: a merged save without age GC.
fn save(cache: &MemoCache<u64, u64>, path: &std::path::Path) -> u64 {
    cache.save_merged_with_max_age(path, None).unwrap()
}

/// A unique temp path per (test, case) so proptest cases never collide.
fn temp_path(tag: &str, case: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hasco-cache-lifecycle-{tag}-{}-{case}.bin",
        std::process::id()
    ));
    p
}

/// What a byte-level adversary does to the image between save and load.
#[derive(Debug, Clone)]
enum Corruption {
    None,
    Truncate(usize),
    FlipByte(usize),
    AppendGarbage(Vec<u8>),
}

fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::None),
        (0usize..4096).prop_map(Corruption::Truncate),
        (0usize..4096).prop_map(Corruption::FlipByte),
        prop::collection::vec(any::<u8>(), 1..64).prop_map(Corruption::AppendGarbage),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Saving then loading under arbitrary corruption either recovers
    /// exactly the saved entries (image untouched) or degrades to a clean
    /// cold start — it never panics and never yields a wrong value.
    #[test]
    fn roundtrip_survives_byte_level_corruption(
        entries in prop::collection::btree_map(any::<u64>(), any::<u64>(), 0..40),
        corruption in corruption(),
        case in any::<u64>(),
    ) {
        let path = temp_path("roundtrip", case);
        std::fs::remove_file(&path).ok();
        let cache: MemoCache<u64, u64> = MemoCache::new(256);
        for (&k, &v) in &entries {
            cache.insert(k, v);
        }
        let saved = save(&cache, &path);
        prop_assert_eq!(saved as usize, entries.len());

        let mut image = std::fs::read(&path).unwrap();
        let intact = match &corruption {
            Corruption::None => true,
            Corruption::Truncate(at) => {
                let orig = image.len();
                let at = *at % (orig + 1);
                image.truncate(at);
                at == orig
            }
            Corruption::FlipByte(at) => {
                if image.is_empty() {
                    true
                } else {
                    let at = *at % image.len();
                    image[at] ^= 0x5a;
                    false
                }
            }
            Corruption::AppendGarbage(extra) => {
                image.extend_from_slice(extra);
                false
            }
        };
        std::fs::write(&path, &image).unwrap();

        let warm: MemoCache<u64, u64> = MemoCache::new(256);
        let loaded = warm.load_from_file(&path).unwrap();
        if intact {
            prop_assert_eq!(loaded as usize, entries.len());
        } else {
            // Anything recovered must be byte-exact; a detected anomaly
            // must leave the cache empty.
            prop_assert!(loaded == saved || loaded == 0, "loaded {loaded} of {saved}");
        }
        for (&k, &v) in &entries {
            let got = warm.get(&k);
            prop_assert!(got.is_none() || got == Some(v), "key {k}: wrong value");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Two runs saving through the same file accumulate: the second run's
    /// merged save preserves the first run's distinct keys and wins on
    /// shared ones, whatever the overlap.
    #[test]
    fn merged_saves_accumulate_newest_wins(
        first in prop::collection::btree_map(0u64..64, any::<u64>(), 1..24),
        second in prop::collection::btree_map(0u64..64, any::<u64>(), 1..24),
        case in any::<u64>(),
    ) {
        let path = temp_path("merge", case);
        std::fs::remove_file(&path).ok();
        let a: MemoCache<u64, u64> = MemoCache::new(256);
        for (&k, &v) in &first {
            a.insert(k, v);
        }
        save(&a, &path);
        let b: MemoCache<u64, u64> = MemoCache::new(256);
        for (&k, &v) in &second {
            b.insert(k, v);
        }
        let written = save(&b, &path);
        let union: std::collections::BTreeSet<u64> =
            first.keys().chain(second.keys()).copied().collect();
        prop_assert_eq!(written as usize, union.len());

        let warm: MemoCache<u64, u64> = MemoCache::new(256);
        warm.load_from_file(&path).unwrap();
        for k in union {
            let expect = second.get(&k).or_else(|| first.get(&k)).copied();
            prop_assert_eq!(warm.get(&k), expect, "key {}", k);
        }
        std::fs::remove_file(&path).ok();
    }

    /// An interrupted save — simulated as a partial prefix of the next
    /// image landing at the path, the worst a non-atomic writer could do
    /// — still leaves every later reader and merger functional: loads are
    /// clean cold starts, and a merged save on top produces a loadable
    /// file with the fresh entries.
    #[test]
    fn interrupted_saves_never_poison_the_file(
        entries in prop::collection::btree_map(any::<u64>(), any::<u64>(), 1..24),
        cut in 0usize..2048,
        case in any::<u64>(),
    ) {
        let path = temp_path("interrupt", case);
        std::fs::remove_file(&path).ok();
        let writer: MemoCache<u64, u64> = MemoCache::new(256);
        for (&k, &v) in &entries {
            writer.insert(k, v);
        }
        save(&writer, &path);
        let full = std::fs::read(&path).unwrap();
        let cut = cut % full.len();
        std::fs::write(&path, &full[..cut]).unwrap();

        let survivor: MemoCache<u64, u64> = MemoCache::new(256);
        survivor.insert(u64::MAX, 1);
        let written = save(&survivor, &path);
        prop_assert!(written >= 1);
        let warm: MemoCache<u64, u64> = MemoCache::new(256);
        prop_assert_eq!(warm.load_from_file(&path).unwrap(), written);
        prop_assert_eq!(warm.get(&u64::MAX), Some(1));
        std::fs::remove_file(&path).ok();
    }
}

/// Two caches saving concurrently into one file interleave into a
/// loadable, merged image: no torn writes, no stale temp files, and the
/// final file contains at least the last writer's entries with every
/// surviving value attributable to one of the writers.
#[test]
fn concurrent_merged_saves_leave_a_loadable_file() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("hasco-cache-concurrent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shared.bin");
    std::fs::remove_file(&path).ok();

    const WRITERS: u64 = 4;
    const ROUNDS: usize = 12;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let path = path.clone();
            s.spawn(move || {
                let cache: MemoCache<u64, u64> = MemoCache::new(512);
                for i in 0..16u64 {
                    // Writer-distinct keys plus a contended shared range;
                    // values encode the writer so merges stay checkable.
                    cache.insert((w + 1) * 1000 + i, w);
                    cache.insert(i, w);
                }
                for _ in 0..ROUNDS {
                    save(&cache, &path);
                }
            });
        }
    });

    // The final image parses, and every entry traces back to a writer.
    let warm: MemoCache<u64, u64> = MemoCache::new(4096);
    let loaded = warm.load_from_file(&path).unwrap();
    assert!(
        loaded >= 32,
        "final image lost even the last writer: {loaded}"
    );
    for w in 0..WRITERS {
        for i in 0..16u64 {
            if let Some(v) = warm.get(&((w + 1) * 1000 + i)) {
                assert_eq!(v, w, "writer-distinct key {} corrupted", (w + 1) * 1000 + i);
            }
        }
    }
    for i in 0..16u64 {
        if let Some(v) = warm.get(&i) {
            assert!(v < WRITERS, "shared key {i} has impossible value {v}");
        }
    }
    // No temp-file litter even under contention.
    let stray: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n != "shared.bin")
        .collect();
    assert!(stray.is_empty(), "temp files leaked: {stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The two priced entries of the pinned images: `(pair key,
/// Option<Metrics>)`, one infeasible and one priced, at fixed stamps, laid
/// out as they are in every memo image version: `len u32 ++ stamp u64 ++
/// key (u64, u64) ++ tag u8`, then the seven metrics as `f64` bit patterns
/// when the tag is 1, all little-endian.
fn pinned_pair_entries() -> (Vec<u8>, Metrics) {
    let metrics = Metrics {
        latency_cycles: 1.5e6,
        latency_ms: 1.5,
        energy_uj: 0.25,
        power_mw: 900.0,
        area_mm2: -0.0,
        throughput_mops: f64::MIN_POSITIVE,
        utilization: 0.75,
    };
    let mut entries = Vec::new();
    entries.extend_from_slice(&17u32.to_le_bytes());
    entries.extend_from_slice(&1_000u64.to_le_bytes());
    entries.extend_from_slice(&11u64.to_le_bytes());
    entries.extend_from_slice(&12u64.to_le_bytes());
    entries.push(0);
    entries.extend_from_slice(&(17u32 + 7 * 8).to_le_bytes());
    entries.extend_from_slice(&2_000u64.to_le_bytes());
    entries.extend_from_slice(&21u64.to_le_bytes());
    entries.extend_from_slice(&22u64.to_le_bytes());
    entries.push(1);
    for f in [
        metrics.latency_cycles,
        metrics.latency_ms,
        metrics.energy_uj,
        metrics.power_mw,
        metrics.area_mm2,
        metrics.throughput_mops,
        metrics.utilization,
    ] {
        entries.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    (entries, metrics)
}

/// The finals section of the pinned engine image: one stored final
/// exploration, `len u32 ++ stamp u64 ++ key (u64, u64) ++ encoded final`
/// with the final as a length-prefixed (`u64`) byte string.
fn pinned_finals_section() -> Vec<u8> {
    let mut finals = Vec::new();
    finals.extend_from_slice(&(16u32 + 8 + 3).to_le_bytes());
    finals.extend_from_slice(&3_000u64.to_le_bytes());
    finals.extend_from_slice(&31u64.to_le_bytes());
    finals.extend_from_slice(&32u64.to_le_bytes());
    finals.extend_from_slice(&3u64.to_le_bytes());
    finals.extend_from_slice(&[7, 8, 9]);
    finals
}

/// An engine memo image payload: each section `len u64 ++ entries`.
fn memo_image(sections: &[&[u8]]) -> Vec<u8> {
    let mut payload = Vec::new();
    for section in sections {
        payload.extend_from_slice(&(section.len() as u64).to_le_bytes());
        payload.extend_from_slice(section);
    }
    runtime::persist::frame(b"HASCOMC4", &payload)
}

/// A hand-built engine memo image, spelled out byte by byte: the payload
/// is three sections. The first holds the pair entries of
/// [`pinned_pair_entries`], the second the final of
/// [`pinned_finals_section`], and the third one stored MOBO acquisition,
/// laid out like the final, whose encoded value is `chosen` (`tag u8`,
/// then the point as `len u64 ++ coordinates u64`) and `draws u64`. It
/// must load to exactly those entries, and a merged re-save by a process
/// with nothing new to add — one cache alone, or the whole engine — must
/// rewrite the very same bytes.
#[test]
fn engine_memo_image_layout_is_pinned() {
    let (pairs, metrics) = pinned_pair_entries();
    let finals = pinned_finals_section();
    let mut acquired = vec![1];
    for word in [2u64, 2, 5, 28_600] {
        acquired.extend_from_slice(&word.to_le_bytes());
    }
    assert_eq!(
        runtime::wire::from_bytes::<Acquired>(&acquired),
        Some(Acquired {
            chosen: Some(vec![2, 5]),
            draws: 28_600
        })
    );
    let mut acquisitions = Vec::new();
    acquisitions.extend_from_slice(&(16 + 8 + acquired.len() as u32).to_le_bytes());
    acquisitions.extend_from_slice(&4_000u64.to_le_bytes());
    acquisitions.extend_from_slice(&41u64.to_le_bytes());
    acquisitions.extend_from_slice(&42u64.to_le_bytes());
    acquisitions.extend_from_slice(&(acquired.len() as u64).to_le_bytes());
    acquisitions.extend_from_slice(&acquired);
    let image = memo_image(&[&pairs, &finals, &acquisitions]);
    let path = temp_path("engine-layout", 0);
    std::fs::write(&path, &image).unwrap();

    let memo: MemoCache<(u64, u64), Option<Metrics>> = MemoCache::new(64);
    assert_eq!(memo.load_from_file(&path).unwrap(), 2);
    let mut entries = memo.snapshot_stamped();
    entries.sort_by_key(|&(_, _, stamp)| stamp);
    assert_eq!(
        entries,
        vec![((11, 12), None, 1_000), ((21, 22), Some(metrics), 2_000)]
    );
    let (_, priced, _) = entries[1];
    assert_eq!(priced.unwrap().area_mm2.to_bits(), (-0.0f64).to_bits());
    let loaded = Image::read(&path).unwrap().expect("a valid image");
    assert_eq!(
        MemoCache::<(u64, u64), Vec<u8>>::parse_section(loaded.section(1).unwrap()),
        Some(vec![((31, 32), vec![7, 8, 9], 3_000)])
    );
    let stored = AcquisitionStore::new(64);
    stored.seed(&AcquisitionStore::parse_section(&loaded, 2).unwrap());
    assert_eq!(
        stored.get(&(41, 42)),
        Some(Acquired {
            chosen: Some(vec![2, 5]),
            draws: 28_600
        })
    );

    let idle: MemoCache<(u64, u64), Option<Metrics>> = MemoCache::new(64);
    assert_eq!(idle.save_merged_with_max_age(&path, None).unwrap(), 2);
    assert_eq!(std::fs::read(&path).unwrap(), image);

    let engine = Engine::new(EngineConfig::default().with_cache_path(&path));
    assert_eq!(
        (
            engine.warm_entries(),
            engine.final_entries(),
            engine.acquisition_entries()
        ),
        (2, 1, 1)
    );
    assert_eq!(engine.persist().unwrap(), 2);
    assert_eq!(std::fs::read(&path).unwrap(), image);
    drop(engine);
    std::fs::remove_file(&path).ok();
}

/// A `HASCOMC4` image written before the acquisition store existed has
/// two sections, pairs and finals. It loads both, with an empty
/// acquisition store, and the engine's next save keeps them byte for byte
/// and appends an empty third section.
#[test]
fn two_section_image_loads_with_no_acquisitions() {
    let (pairs, _) = pinned_pair_entries();
    let finals = pinned_finals_section();
    let path = temp_path("two-sections", 0);
    std::fs::write(&path, memo_image(&[&pairs, &finals])).unwrap();

    let engine = Engine::new(EngineConfig::default().with_cache_path(&path));
    assert_eq!(
        (
            engine.warm_entries(),
            engine.final_entries(),
            engine.acquisition_entries()
        ),
        (2, 1, 0)
    );
    assert_eq!(engine.persist().unwrap(), 2);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        memo_image(&[&pairs, &finals, &[]])
    );
    drop(engine);
    std::fs::remove_file(&path).ok();
}

/// An image of the retired `HASCOMC3` layout — the pair entries straight
/// in the payload, no sections — is a clean cold start for the engine and
/// for a lone cache, and the engine's next save replaces it.
#[test]
fn hascomc3_image_is_a_clean_cold_start() {
    let (pairs, _) = pinned_pair_entries();
    let path = temp_path("mc3", 0);
    std::fs::write(&path, runtime::persist::frame(b"HASCOMC3", &pairs)).unwrap();

    let memo: MemoCache<(u64, u64), Option<Metrics>> = MemoCache::new(64);
    assert_eq!(memo.load_from_file(&path).unwrap(), 0);
    assert!(memo.is_empty());
    let engine = Engine::new(EngineConfig::default().with_cache_path(&path));
    assert_eq!(
        (
            engine.warm_entries(),
            engine.final_entries(),
            engine.acquisition_entries()
        ),
        (0, 0, 0)
    );
    assert_eq!(engine.persist().unwrap(), 0);
    assert_eq!(&std::fs::read(&path).unwrap()[..8], b"HASCOMC4");
    drop(engine);
    std::fs::remove_file(&path).ok();
}
