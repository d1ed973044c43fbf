//! Lifecycle properties of the persisted evaluation cache: round-trips
//! survive arbitrary byte-level corruption without ever inventing data,
//! merged saves accumulate newest-wins across runs, interrupted saves
//! (simulated partial writes) never destroy a loadable file, and
//! concurrent savers interleave into a loadable, merged image, and the
//! engine's three-section `HASCOMC5` image layout is pinned byte for byte
//! (a two-section image still loads, with no acquisitions; an image of a
//! retired layout, `HASCOMC3` or `HASCOMC4`, or one with a section that
//! does not decode, is a clean cold start).

use accel_model::Metrics;
use dse::mobo::{Acquired, AcquisitionStore};
use hasco::codesign::{CoDesignOptions, HwProblem};
use hasco::{Engine, EngineConfig};
use proptest::prelude::*;
use tensor_ir::suites;

use runtime::{Image, MemoCache};

/// Saves `cache` as an image's first section, merged newest-wins over the
/// file's: the section-level calls every image owner makes. Returns the
/// entries written.
fn save(cache: &MemoCache<u64, u64>, path: &std::path::Path) -> u64 {
    let existing = Image::read(path).ok().flatten().unwrap_or_default();
    let (section, written) = cache.merged_section(existing.section(0), None);
    Image::write(path, &[&section]).unwrap();
    written
}

/// Seeds `cache` from an image's first section, all or nothing; returns
/// the entries parsed (0, seeding nothing, for a cold start).
fn load(cache: &MemoCache<u64, u64>, path: &std::path::Path) -> u64 {
    let image = Image::read(path).unwrap();
    let Some(entries) = image
        .as_ref()
        .and_then(|image| image.section(0))
        .and_then(MemoCache::parse_section)
    else {
        return 0;
    };
    cache.seed(&entries);
    entries.len() as u64
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
        let loaded = load(&warm, &path);
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
        load(&warm, &path);
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
        prop_assert_eq!(load(&warm, &path), written);
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
    let loaded = load(&warm, &path);
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

/// The RNG state of the pinned acquisition.
const PINNED_STATE: [u64; 4] = [0x1111, 0x2222, 0x3333, 0x4444];

/// The acquisition of the pinned engine image.
fn pinned_acquired() -> Acquired {
    Acquired {
        chosen: Some(vec![2, 5]),
        state: PINNED_STATE,
    }
}

/// The acquisitions section of the pinned engine image: one stored MOBO
/// acquisition, laid out like the final, whose encoded value is `chosen`
/// (`tag u8`, then the point as `len u64 ++ coordinates u64`) and the RNG
/// `state` as four `u64`s.
fn pinned_acquisitions_section() -> Vec<u8> {
    let mut acquired = vec![1];
    for word in [2u64, 2, 5].into_iter().chain(PINNED_STATE) {
        acquired.extend_from_slice(&word.to_le_bytes());
    }
    assert_eq!(
        runtime::wire::from_bytes::<Acquired>(&acquired),
        Some(pinned_acquired())
    );
    acquisitions_section(&acquired)
}

/// One acquisition at key `(41, 42)` as an image section, its encoded
/// value `acquired` laid out like the final.
fn acquisitions_section(acquired: &[u8]) -> Vec<u8> {
    let mut acquisitions = Vec::new();
    acquisitions.extend_from_slice(&(16 + 8 + acquired.len() as u32).to_le_bytes());
    acquisitions.extend_from_slice(&4_000u64.to_le_bytes());
    acquisitions.extend_from_slice(&41u64.to_le_bytes());
    acquisitions.extend_from_slice(&42u64.to_le_bytes());
    acquisitions.extend_from_slice(&(acquired.len() as u64).to_le_bytes());
    acquisitions.extend_from_slice(acquired);
    acquisitions
}

/// An engine memo image payload: each section `len u64 ++ entries`.
fn memo_payload(sections: &[&[u8]]) -> Vec<u8> {
    let mut payload = Vec::new();
    for section in sections {
        payload.extend_from_slice(&(section.len() as u64).to_le_bytes());
        payload.extend_from_slice(section);
    }
    payload
}

/// An engine memo image of `sections`.
fn memo_image(sections: &[&[u8]]) -> Vec<u8> {
    runtime::persist::frame(b"HASCOMC5", &memo_payload(sections))
}

/// An image of the previous layout, `HASCOMC4`: the same three sections,
/// but an acquisition held the draws its scoring took (`u64`) instead of
/// the RNG state, and the frame's checksum was the payload's
/// `Fingerprinter` digest.
fn hascomc4_image() -> Vec<u8> {
    let (pairs, _) = pinned_pair_entries();
    let mut acquired = vec![1];
    for word in [2u64, 2, 5, 28_600] {
        acquired.extend_from_slice(&word.to_le_bytes());
    }
    let acquisitions = acquisitions_section(&acquired);
    let payload = memo_payload(&[&pairs, &pinned_finals_section(), &acquisitions]);
    let mut image = b"HASCOMC4".to_vec();
    image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    image.extend_from_slice(&payload);
    let mut fp = runtime::Fingerprinter::new();
    fp.write_bytes(&payload);
    image.extend_from_slice(&fp.finish().0.to_le_bytes());
    image
}

/// Runs `f` on a problem pricing one small GEMM, built the way a
/// per-job replay builds one: the lone-cache path through an image.
fn with_problem<R>(f: impl FnOnce(&mut HwProblem) -> R) -> R {
    let generator = hw_gen::GemminiGenerator::new();
    let workloads = [suites::gemm_workload("g", 64, 64, 64)];
    let sw = CoDesignOptions::quick(0).sw_inner;
    let mut problem = HwProblem::new(&generator, &workloads, sw, 0).with_cache_capacity(64);
    f(&mut problem)
}

/// The engine's three counts after it loads the image at `path`.
fn engine_counts(path: &std::path::Path) -> (usize, usize, usize) {
    let engine = Engine::new(EngineConfig::default().with_cache_path(path));
    (
        engine.warm_entries(),
        engine.final_entries(),
        engine.acquisition_entries(),
    )
}

/// A hand-built engine memo image, spelled out byte by byte: the payload
/// is three sections, the pair entries of [`pinned_pair_entries`], the
/// final of [`pinned_finals_section`] and the acquisition of
/// [`pinned_acquisitions_section`]. It must load to exactly those
/// entries, and a merged re-save by a process with nothing new to add — a
/// lone problem, or the whole engine — must rewrite the very same bytes.
#[test]
fn engine_memo_image_layout_is_pinned() {
    let (pairs, metrics) = pinned_pair_entries();
    let finals = pinned_finals_section();
    let acquisitions = pinned_acquisitions_section();
    let image = memo_image(&[&pairs, &finals, &acquisitions]);
    let path = temp_path("engine-layout", 0);
    std::fs::write(&path, &image).unwrap();

    let loaded = Image::read(&path).unwrap().expect("a valid image");
    let mut entries =
        MemoCache::<(u64, u64), Option<Metrics>>::parse_section(loaded.section(0).unwrap())
            .unwrap();
    entries.sort_by_key(|&(_, _, stamp)| stamp);
    assert_eq!(
        entries,
        vec![((11, 12), None, 1_000), ((21, 22), Some(metrics), 2_000)]
    );
    let (_, priced, _) = entries[1];
    assert_eq!(priced.unwrap().area_mm2.to_bits(), (-0.0f64).to_bits());
    assert_eq!(
        MemoCache::<(u64, u64), Vec<u8>>::parse_section(loaded.section(1).unwrap()),
        Some(vec![((31, 32), vec![7, 8, 9], 3_000)])
    );
    let stored = AcquisitionStore::new(64);
    stored.seed(&AcquisitionStore::parse_section(&loaded, 2).unwrap());
    assert_eq!(stored.get(&(41, 42)), Some(pinned_acquired()));

    with_problem(|idle| {
        assert_eq!(idle.save_cache(&path).unwrap(), 2);
        assert_eq!(idle.load_cache(&path), 2);
    });
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

/// A lone problem's save — the path a per-job replay persists through —
/// rewrites the pair section with its new entries and keeps the finals and
/// acquisitions it never touched byte for byte.
#[test]
fn single_cache_saves_keep_the_other_sections() {
    let (pairs, _) = pinned_pair_entries();
    let finals = pinned_finals_section();
    let acquisitions = pinned_acquisitions_section();
    let path = temp_path("sections", 0);
    Image::write(&path, &[&pairs, &finals, &acquisitions]).unwrap();

    let priced = with_problem(|problem| {
        use dse::problem::Problem;
        let origin = vec![0; problem.space().len()];
        assert!(problem.evaluate(&origin).is_some());
        let priced = problem.cache_stats().inserts;
        assert!(priced > 0);
        assert_eq!(problem.save_cache(&path).unwrap(), 2 + priced);
        priced
    });
    let image = Image::read(&path).unwrap().expect("a valid image");
    assert_eq!(image.section(1), Some(&finals[..]));
    assert_eq!(image.section(2), Some(&acquisitions[..]));
    assert_eq!(image.section(3), None);
    assert_eq!(with_problem(|fresh| fresh.load_cache(&path)), 2 + priced);
    assert_eq!(engine_counts(&path), (2 + priced as usize, 1, 1));
    std::fs::remove_file(&path).ok();
}

/// An image with two sections, pairs and finals, loads both, with an
/// empty acquisition store, and the engine's next save keeps them byte for
/// byte and appends an empty third section.
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
/// for a lone problem, and the engine's next save replaces it.
#[test]
fn hascomc3_image_is_a_clean_cold_start() {
    let (pairs, _) = pinned_pair_entries();
    let path = temp_path("mc3", 0);
    std::fs::write(&path, runtime::persist::frame(b"HASCOMC3", &pairs)).unwrap();

    assert_eq!(with_problem(|problem| problem.load_cache(&path)), 0);
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
    assert_eq!(&std::fs::read(&path).unwrap()[..8], b"HASCOMC5");
    drop(engine);
    std::fs::remove_file(&path).ok();
}

/// An image of the previous `HASCOMC4` layout ([`hascomc4_image`]) is a
/// clean cold start for the engine and for a lone problem, and the
/// engine's next save replaces it.
#[test]
fn hascomc4_image_is_a_clean_cold_start() {
    let path = temp_path("mc4", 0);
    std::fs::write(&path, hascomc4_image()).unwrap();

    assert_eq!(with_problem(|problem| problem.load_cache(&path)), 0);
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
    assert_eq!(&std::fs::read(&path).unwrap()[..8], b"HASCOMC5");
    drop(engine);
    std::fs::remove_file(&path).ok();
}

/// A validly framed image whose acquisitions section does not decode is a
/// cold start for all three stores, in the engine and in a lone problem
/// alike: a load seeds every store or none.
#[test]
fn an_undecodable_section_is_a_cold_start_for_every_store() {
    let (pairs, _) = pinned_pair_entries();
    let finals = pinned_finals_section();
    let path = temp_path("bad-acquisitions", 0);
    // A lone byte is no entry: its `len u32` prefix is cut short.
    std::fs::write(&path, memo_image(&[&pairs, &finals, &[1]])).unwrap();
    assert!(Image::read(&path).unwrap().is_some(), "the frame is valid");

    assert_eq!(engine_counts(&path), (0, 0, 0));
    let fresh = temp_path("bad-acquisitions-resaved", 0);
    std::fs::remove_file(&fresh).ok();
    with_problem(|problem| {
        assert_eq!(problem.load_cache(&path), 0);
        // Saved to an empty path, the problem's stores show it seeded
        // nothing: every section is empty.
        assert_eq!(problem.save_cache(&fresh).unwrap(), 0);
    });
    assert_eq!(std::fs::read(&fresh).unwrap(), memo_image(&[&[], &[], &[]]));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&fresh).ok();
}
