//! Out-of-band wall-clock telemetry: named timings, counters, gauges,
//! and cache scopes for the whole engine stack.
//!
//! The co-design pipeline is instrumented at every layer — engine jobs,
//! pipeline phases, software explorations per backend tier, GP fits and
//! predictions, the memo cache, the worker pool, and the job scheduler —
//! through one shared [`Telemetry`] handle:
//!
//! * **timings** — every wall-clock measurement lands in one named,
//!   power-of-two-bucketed nanosecond histogram. Names are
//!   `/`-separated paths: pipeline spans (`"job/hw_dse/screen"`),
//!   MOBO acquisitions (`"job/hw_dse/acquire"`) and their GP fits
//!   (`"dse/gp_fit"`), software explorations per tier
//!   (`"sw_explore/analytic"`) and their phases (`"sw_opt/learn"`), the
//!   surrogate's GP work (`"gp/fit"`, `"gp/predict"`), pool batches
//!   (`"pool/batch"`), and scheduler queue wait
//!   (`"scheduler/queue_wait"`). They are recorded
//!   through [`Telemetry::span`] guards, [`Telemetry::time`] closures, or
//!   cloneable [`Timer`]s for worker closures;
//! * **counters / gauges** — named monotone sums and last-written values
//!   (campaign dedup rates, jobs executed, pool items and steals,
//!   adaptive top-k state);
//! * **cache scopes** — point-in-time per-shard [`CacheStats`] of the
//!   engine's shared stores, which every job reads and writes live.
//!
//! # The side-channel contract
//!
//! Telemetry measures wall-clock time, and wall-clock time is
//! nondeterministic — so telemetry is strictly **write-only from the
//! computation's point of view**. Nothing read from this module may flow
//! into memo fingerprints, `RunStats`, event streams, or any persisted
//! image; enabling or disabling telemetry must never change a result
//! bit. The determinism suite pins this
//! (`telemetry_never_changes_results`), and `detlint` enforces it
//! statically: this file is the one sanctioned clock owner in
//! `detlint.toml`, so every timed layer goes through it and any
//! `Instant::now`/`SystemTime::now` elsewhere fails the lint unless its
//! site carries a written rationale.
//!
//! # Cost model
//!
//! A disabled handle ([`Telemetry::disabled`], the default) holds no
//! registry: every recording call is a branch on `None` that neither
//! reads the clock nor formats a name. An enabled handle resolves a name
//! to its histogram under a short-lived mutex once per span, `time`
//! call, or [`Timer`], then records through relaxed atomics — cheap
//! enough to leave on for every bench run.
//!
//! # Example
//!
//! ```
//! use runtime::Telemetry;
//!
//! let t = Telemetry::enabled();
//! {
//!     let _span = t.span("job/hw_dse");
//!     t.counter_add("batches", 1);
//! }
//! assert_eq!(t.time("gp/fit", || 2 + 2), 4);
//! let snap = t.snapshot().unwrap();
//! let names: Vec<&str> = snap.timings.iter().map(|(n, _)| n.as_str()).collect();
//! assert_eq!(names, ["gp/fit", "job/hw_dse"]);
//! assert!(snap.to_json().contains("hasco-telemetry-v2"));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::CacheStats;

/// Schema identifier stamped into every JSON document this module emits.
pub const TELEMETRY_SCHEMA: &str = "hasco-telemetry-v2";

/// Histogram bucket count. Bucket 0 holds samples `ns <= 1`; bucket
/// `0 < i < 47` holds `2^(i-1) < ns <= 2^i`; the top bucket 47 is
/// open-ended and holds everything above `2^46` ns (≈ 19.5 hours).
const HIST_BUCKETS: usize = 48;

/// A lock-free nanosecond histogram with power-of-two buckets.
#[derive(Debug)]
struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first sample.
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
        // The bit length of `ns - 1` is the smallest `i` with `ns <= 2^i`.
        let idx = (u64::BITS - ns.saturating_sub(1).leading_zeros()) as usize;
        self.buckets[idx.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    fn record_elapsed(&self, start: Instant) -> Duration {
        let elapsed = start.elapsed();
        self.record(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        elapsed
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            min_ns: if count == 0 { 0 } else { min },
            max_ns: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| ((i < HIST_BUCKETS - 1).then(|| 1u64 << i), n))
                })
                .collect(),
        }
    }
}

/// Point-in-time image of one named timing: summary statistics plus the
/// non-empty power-of-two buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Non-empty buckets, ascending, as `(le_ns, count)`: each sample
    /// with `ns <= le_ns` (and above the previous power of two) counts
    /// here. `le_ns` is `None` for the open-ended top bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// The shared metric store behind an enabled [`Telemetry`] handle.
#[derive(Debug, Default)]
struct Registry {
    timings: Mutex<BTreeMap<String, Arc<Histogram>>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    caches: Mutex<BTreeMap<String, Vec<CacheStats>>>,
}

/// A cloneable recorder handle: either a shared registry (enabled) or a
/// zero-cost no-op (disabled, the default). Clones share the registry, so
/// one handle threaded through engine, runtime, backends, and bench
/// aggregates into a single snapshot.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A recording handle backed by a fresh registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::default()),
        }
    }

    /// A no-op handle: every recording call returns without touching the
    /// clock. This is the default.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A cloneable recorder into the named timing, for worker closures
    /// that time many short sections under one name. Disabled handles
    /// return an inert timer without formatting `name`.
    pub fn timer(&self, name: impl fmt::Display) -> Timer {
        Timer {
            hist: self.inner.as_ref().map(|reg| {
                let mut timings = reg.timings.lock().expect("timing table poisoned");
                Arc::clone(timings.entry(name.to_string()).or_default())
            }),
        }
    }

    /// Opens a timed span; it records into the named timing when the
    /// guard drops (or [`SpanGuard::finish`] is called). Disabled handles
    /// return an inert guard without reading the clock.
    pub fn span(&self, name: impl fmt::Display) -> SpanGuard {
        SpanGuard {
            inner: self.timer(name).hist.map(|hist| (hist, Instant::now())),
        }
    }

    /// Runs `f`, recording its wall time into the named timing. Disabled
    /// handles run `f` without reading the clock.
    pub fn time<R>(&self, name: impl fmt::Display, f: impl FnOnce() -> R) -> R {
        self.timer(name).time(f)
    }

    /// Adds `delta` to the named monotone counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(reg) = &self.inner else { return };
        let mut counters = reg.counters.lock().expect("counter table poisoned");
        *counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: u64) {
        let Some(reg) = &self.inner else { return };
        let mut gauges = reg.gauges.lock().expect("gauge table poisoned");
        gauges.insert(name.to_string(), value);
    }

    /// Replaces the named scope with a point-in-time per-shard image of a
    /// long-lived cache (the engine's shared stores), whose counters are
    /// already cumulative.
    pub fn set_cache_shards(&self, scope: &str, shards: &[CacheStats]) {
        let Some(reg) = &self.inner else { return };
        let mut caches = reg.caches.lock().expect("cache table poisoned");
        caches.insert(scope.to_string(), shards.to_vec());
    }

    /// Snapshots every metric into a plain-data document (`None` when
    /// disabled).
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        let reg = self.inner.as_ref()?;
        let named = |table: &Mutex<BTreeMap<String, u64>>| {
            let table = table.lock().expect("metric table poisoned");
            table.iter().map(|(k, v)| (k.clone(), *v)).collect()
        };
        let timings = reg
            .timings
            .lock()
            .expect("timing table poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        let caches = reg
            .caches
            .lock()
            .expect("cache table poisoned")
            .iter()
            .map(|(scope, shards)| CacheScopeStat {
                scope: scope.clone(),
                shards: shards.clone(),
            })
            .collect();
        Some(TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA.to_string(),
            timings,
            counters: named(&reg.counters),
            gauges: named(&reg.gauges),
            caches,
        })
    }
}

/// A cloneable recorder into one named timing (see [`Telemetry::timer`]).
#[derive(Debug, Clone, Default)]
pub struct Timer {
    hist: Option<Arc<Histogram>>,
}

impl Timer {
    /// Runs `f`, recording its wall time as one sample. Inert timers run
    /// `f` without reading the clock.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(hist) = &self.hist else { return f() };
        let start = Instant::now();
        let out = f();
        hist.record_elapsed(start);
        out
    }
}

/// RAII guard of an open [`Telemetry::span`]; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<(Arc<Histogram>, Instant)>,
}

impl SpanGuard {
    /// Closes the span now and returns its elapsed wall time
    /// (`Duration::ZERO` for a disabled handle's guard).
    pub fn finish(mut self) -> Duration {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> Duration {
        self.inner
            .take()
            .map_or(Duration::ZERO, |(hist, start)| hist.record_elapsed(start))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// Per-shard cache counters for one cache scope.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheScopeStat {
    /// Scope name (`"store"` for the engine's pair memo, which every job
    /// prices through, `"finals"` for its completed final explorations).
    pub scope: String,
    /// One entry per shard, in shard order.
    pub shards: Vec<CacheStats>,
}

impl CacheScopeStat {
    /// Element-wise sum over shards.
    pub fn total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.hits += s.hits;
            total.misses += s.misses;
            total.inserts += s.inserts;
            total.evictions += s.evictions;
        }
        total
    }
}

/// A point-in-time plain-data image of every metric in a registry,
/// serializable to versioned JSON ([`TelemetrySnapshot::to_json`]) and a
/// human summary block ([`TelemetrySnapshot::render`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Schema identifier ([`TELEMETRY_SCHEMA`]).
    pub schema: String,
    /// Named nanosecond timings, sorted by name.
    pub timings: Vec<(String, HistogramSnapshot)>,
    /// Monotone counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-written gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Per-shard cache counters, one entry per scope.
    pub caches: Vec<CacheScopeStat>,
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn cache_stats_json(s: &CacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{}}}",
        s.hits, s.misses, s.inserts, s.evictions
    )
}

/// Formats nanoseconds human-readably (`1.23ms`, `4.56s`, …).
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

impl TelemetrySnapshot {
    /// Serializes the snapshot as a versioned JSON document (schema
    /// `hasco-telemetry-v2`; the layout is documented in the repository
    /// README's Observability section).
    pub fn to_json(&self) -> String {
        let named =
            |(k, v): &(String, u64)| format!("{{\"name\":\"{}\",\"value\":{v}}}", json_escape(k));
        let timings: Vec<String> = self
            .timings
            .iter()
            .map(|(name, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(le, n)| match le {
                        Some(le) => format!("{{\"le_ns\":{le},\"count\":{n}}}"),
                        None => format!("{{\"le_ns\":null,\"count\":{n}}}"),
                    })
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"buckets\":[{}]}}",
                    json_escape(name),
                    h.count,
                    h.sum_ns,
                    h.min_ns,
                    h.max_ns,
                    buckets.join(",")
                )
            })
            .collect();
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|c| {
                let shards: Vec<String> = c.shards.iter().map(cache_stats_json).collect();
                format!(
                    "{{\"scope\":\"{}\",\"total\":{},\"shards\":[{}]}}",
                    json_escape(&c.scope),
                    cache_stats_json(&c.total()),
                    shards.join(",")
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{}\",\"timings\":[{}],\"counters\":[{}],\"gauges\":[{}],\"caches\":[{}]}}",
            json_escape(&self.schema),
            timings.join(","),
            self.counters.iter().map(named).collect::<Vec<_>>().join(","),
            self.gauges.iter().map(named).collect::<Vec<_>>().join(","),
            caches.join(",")
        )
    }

    /// Renders the snapshot as a compact human summary block.
    pub fn render(&self) -> String {
        let mut out = String::from("== telemetry ==\n");
        for (name, h) in &self.timings {
            out.push_str(&format!(
                "time  {:<28} {:>7}x  total {:>9}  mean {:>9}  max {:>9}\n",
                name,
                h.count,
                fmt_ns(h.sum_ns),
                fmt_ns(h.mean_ns()),
                fmt_ns(h.max_ns),
            ));
        }
        for c in &self.caches {
            let total = c.total();
            out.push_str(&format!(
                "cache {:<28} {} hits / {} misses ({:.1}% hit rate) over {} shards\n",
                c.scope,
                total.hits,
                total.misses,
                total.hit_rate() * 100.0,
                c.shards.len(),
            ));
        }
        for (name, value) in &self.counters {
            out.push_str(&format!("count {name:<28} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge {name:<28} {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing<'a>(snap: &'a TelemetrySnapshot, name: &str) -> &'a HistogramSnapshot {
        let found = snap.timings.iter().find(|(n, _)| n == name);
        &found.unwrap_or_else(|| panic!("no timing {name}")).1
    }

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        {
            let _span = t.span("job");
        }
        assert_eq!(t.time("gp/fit", || 3), 3);
        assert_eq!(t.timer("sw_explore/analytic").time(|| 4), 4);
        t.counter_add("c", 1);
        t.gauge_set("g", 2);
        t.set_cache_shards("store", &[CacheStats::default()]);
        assert!(t.snapshot().is_none());
        assert_eq!(t.span("x").finish(), Duration::ZERO);
    }

    #[test]
    fn disabled_handles_never_format_names() {
        struct Tripwire;
        impl fmt::Display for Tripwire {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("a disabled handle formatted a timing name")
            }
        }
        let t = Telemetry::disabled();
        drop(t.span(Tripwire));
        t.time(Tripwire, || ());
        t.timer(Tripwire).time(|| ());
    }

    #[test]
    fn spans_aggregate_per_path() {
        let t = Telemetry::enabled();
        for ns in [100, 300] {
            t.timer("job").hist.unwrap().record(ns);
        }
        t.span("job/hw_dse").finish();
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.timings.len(), 2);
        let (path, job) = &snap.timings[0];
        assert_eq!(path, "job");
        assert_eq!((job.count, job.sum_ns), (2, 400));
        assert_eq!((job.min_ns, job.max_ns), (100, 300));
        t.span("job").finish();
        assert_eq!(timing(&t.snapshot().unwrap(), "job").count, 3);
    }

    #[test]
    fn timers_share_one_histogram_per_name() {
        let t = Telemetry::enabled();
        let a = t.timer("sw_explore/analytic");
        let b = a.clone();
        assert_eq!(a.time(|| 7), 7);
        b.time(|| ());
        t.time("sw_explore/analytic", || ());
        t.timer("sw_explore/sim").time(|| ());
        let snap = t.snapshot().unwrap();
        let names: Vec<&str> = snap.timings.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["sw_explore/analytic", "sw_explore/sim"]);
        let tier = timing(&snap, "sw_explore/analytic");
        assert_eq!(tier.count, 3);
        assert_eq!(tier.buckets.iter().map(|(_, n)| n).sum::<u64>(), 3);
        assert_eq!(timing(&snap, "sw_explore/sim").count, 1);
    }

    #[test]
    fn span_guard_records_and_reports_elapsed() {
        let t = Telemetry::enabled();
        let elapsed = t.span("bench").finish();
        let snap = t.snapshot().unwrap();
        assert_eq!(timing(&snap, "bench").count, 1);
        assert_eq!(timing(&snap, "bench").sum_ns, elapsed.as_nanos() as u64);
        // Dropping (not finishing) records too.
        {
            let _g = t.span("bench");
        }
        assert_eq!(timing(&t.snapshot().unwrap(), "bench").count, 2);
    }

    #[test]
    fn counters_and_gauges() {
        let t = Telemetry::enabled();
        t.counter_add("campaign.scenarios", 10);
        t.counter_add("campaign.scenarios", 2);
        t.gauge_set("topk", 4);
        t.gauge_set("topk", 1);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters, vec![("campaign.scenarios".to_string(), 12)]);
        assert_eq!(snap.gauges, vec![("topk".to_string(), 1)]);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let h = Histogram::default();
        for ns in [0, 1, 2, 3, 4, u64::MAX] {
            h.record(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.min_ns, 0);
        assert_eq!(snap.max_ns, u64::MAX);
        // 0 and 1 -> le 1 (bucket 0); 2 -> le 2; 3 and 4 -> le 4;
        // u64::MAX -> the open-ended top bucket.
        assert_eq!(
            snap.buckets,
            vec![(Some(1), 2), (Some(2), 1), (Some(4), 2), (None, 1)]
        );
        // The last finite bound is 2^46; anything above is open-ended.
        let edge = Histogram::default();
        edge.record(1 << 46);
        edge.record((1 << 46) + 1);
        assert_eq!(edge.snapshot().buckets, vec![(Some(1 << 46), 1), (None, 1)]);
    }

    #[test]
    fn cache_scopes_hold_the_latest_image() {
        let t = Telemetry::enabled();
        let one = CacheStats {
            hits: 1,
            misses: 2,
            inserts: 3,
            evictions: 4,
        };
        t.set_cache_shards("store", &[one]);
        t.set_cache_shards("store", &[one, one]);
        t.set_cache_shards("finals", &[one]);
        let snap = t.snapshot().unwrap();
        let store = snap.caches.iter().find(|c| c.scope == "store").unwrap();
        assert_eq!(store.shards.len(), 2);
        assert_eq!(store.total().hits, 2);
        assert_eq!(store.total().misses, 4);
        let finals = snap.caches.iter().find(|c| c.scope == "finals").unwrap();
        assert_eq!(finals.total(), one);
    }

    #[test]
    fn json_document_has_schema_and_sections() {
        let t = Telemetry::enabled();
        t.span("job").finish();
        t.time("sw_explore/analytic", || ());
        t.counter_add("c", 1);
        t.gauge_set("g", 9);
        t.set_cache_shards("store", &[CacheStats::default()]);
        let json = t.snapshot().unwrap().to_json();
        for key in [
            "\"schema\":\"hasco-telemetry-v2\"",
            "\"timings\":[{\"name\":\"job\",",
            "{\"name\":\"sw_explore/analytic\",",
            "\"counters\":[",
            "\"gauges\":[",
            "\"caches\":[",
            "\"le_ns\":",
            "\"shards\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces / brackets: cheap structural sanity.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_v2_keys_are_pinned() {
        let t = Telemetry::enabled();
        let h = t.timer("gp/fit");
        h.hist.as_ref().unwrap().record(3);
        h.hist.as_ref().unwrap().record(1 << 47);
        t.counter_add("pool.steals", 2);
        t.gauge_set("g", 9);
        t.set_cache_shards("store", &[CacheStats::default()]);
        let json = t.snapshot().unwrap().to_json();
        let zero = "{\"hits\":0,\"misses\":0,\"inserts\":0,\"evictions\":0}";
        let expected = format!(
            concat!(
                "{{\"schema\":\"hasco-telemetry-v2\",",
                "\"timings\":[{{\"name\":\"gp/fit\",\"count\":2,\"sum_ns\":140737488355331,",
                "\"min_ns\":3,\"max_ns\":140737488355328,",
                "\"buckets\":[{{\"le_ns\":4,\"count\":1}},{{\"le_ns\":null,\"count\":1}}]}}],",
                "\"counters\":[{{\"name\":\"pool.steals\",\"value\":2}}],",
                "\"gauges\":[{{\"name\":\"g\",\"value\":9}}],",
                "\"caches\":[{{\"scope\":\"store\",\"total\":{zero},\"shards\":[{zero}]}}]}}"
            ),
            zero = zero
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn render_mentions_every_section() {
        let t = Telemetry::enabled();
        t.span("job").finish();
        t.time("sw_explore/analytic", || ());
        t.set_cache_shards("store", &[CacheStats::default()]);
        t.counter_add("campaign.scenarios", 12);
        t.gauge_set("topk", 3);
        let text = t.snapshot().unwrap().render();
        for needle in [
            "== telemetry ==",
            "time  job",
            "time  sw_explore/analytic",
            "cache store",
            "count campaign.scenarios",
            "gauge topk",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.counter_add("c", 5);
        assert_eq!(t.snapshot().unwrap().counters[0].1, 5);
    }
}
