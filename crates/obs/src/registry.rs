//! Global metrics registry: counters, gauges, histograms, quantiles.
//!
//! Metrics are owned by a process-wide [`Registry`] and looked up (or
//! created) by name; callers on hot paths cache the returned `Arc` handle
//! so the name lookup happens once. The two metric kinds that are written
//! from `par_map` workers — [`Counter`] and [`QuantileRing`] — are
//! **lock-sharded**: each thread writes its own shard (a padded atomic or
//! a small mutex-guarded ring), so parallel simulation sweeps never
//! serialise on a shared cache line. Reads (the `/metrics` scrape) merge
//! the shards.
//!
//! [`Registry::prometheus`] renders every metric as Prometheus text:
//! `name value`, histogram `_bucket{le="..."}` lines, quantile
//! `{quantile="0.5"}` lines.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of write shards for [`Counter`] and [`QuantileRing`].
pub const SHARDS: usize = 16;

/// Pads an atomic to its own cache line so shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotonically increasing thread index, assigned at first metric write.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

pub(crate) fn thread_shard() -> usize {
    THREAD_SHARD.with(|s| *s)
}

/// A monotonically increasing counter, sharded across writer threads.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The merged total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Reads the gauge.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with cumulative Prometheus-style buckets.
pub struct Histogram {
    /// Upper bounds of the buckets (exclusive of the implicit `+Inf`).
    bounds: Vec<f64>,
    /// One count per bound, plus the `+Inf` overflow bucket at the end.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 sum via CAS loop; observations are rare next to reads of the
        // sharded counters, so contention here is irrelevant.
        let add = |bits| Some((f64::from_bits(bits) + v).to_bits());
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper_bound, cumulative_count)` pairs ending with `(+Inf, total)`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, c) in self.counts.iter().enumerate() {
            acc += c.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// A bounded ring of recent observations from which quantiles are
/// computed on demand. Sharded per thread: recording is a push into the
/// calling thread's own small mutex-guarded ring, so concurrent writers
/// (HTTP workers, `par_map` threads) never queue on one lock.
pub struct QuantileRing {
    shards: Vec<Mutex<Ring>>,
    shard_cap: usize,
}

#[derive(Default)]
struct Ring {
    buf: Vec<u64>,
    cursor: usize,
}

/// A p50/p95/p99 snapshot over a [`QuantileRing`] window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileSnapshot {
    /// Samples currently in the window.
    pub samples: usize,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl QuantileRing {
    /// A ring retaining roughly `capacity` recent samples in total.
    pub fn new(capacity: usize) -> Self {
        let shard_cap = capacity.div_ceil(SHARDS).max(1);
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Ring::default())).collect(),
            shard_cap,
        }
    }

    /// Records one sample into the calling thread's shard.
    pub fn record(&self, v: u64) {
        let mut ring = self.shards[thread_shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if ring.buf.len() < self.shard_cap {
            ring.buf.push(v);
        } else {
            let cursor = ring.cursor;
            ring.buf[cursor] = v;
            ring.cursor = (cursor + 1) % self.shard_cap;
        }
    }

    /// All samples currently retained, merged across shards (unsorted).
    pub fn samples(&self) -> Vec<u64> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let ring = shard.lock().unwrap_or_else(|e| e.into_inner());
            all.extend_from_slice(&ring.buf);
        }
        all
    }

    /// The quantile at `p` (0..1) by the nearest-rank method (the value
    /// whose rank is `ceil(n * p)`), 0 on an empty window.
    pub fn quantile(&self, p: f64) -> u64 {
        let mut sorted = self.samples();
        sorted.sort_unstable();
        pick_rank(&sorted, p)
    }

    /// p50/p95/p99 in one merge + sort.
    pub fn snapshot(&self) -> QuantileSnapshot {
        let mut sorted = self.samples();
        sorted.sort_unstable();
        QuantileSnapshot {
            samples: sorted.len(),
            p50: pick_rank(&sorted, 0.50),
            p95: pick_rank(&sorted, 0.95),
            p99: pick_rank(&sorted, 0.99),
        }
    }
}

/// Nearest-rank quantile over a sorted slice: `ceil(n * p)` clamped into
/// `[1, n]`, 0 when empty.
fn pick_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One registered metric.
#[derive(Clone)]
enum Entry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Quantiles(Arc<QuantileRing>),
}

impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
            Entry::Quantiles(_) => "quantiles",
        }
    }
}

/// A named collection of metrics. Use [`global`] for the process-wide
/// instance; fresh instances exist for tests.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Entry>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&self, name: &str, make: impl FnOnce() -> Entry) -> Entry {
        assert!(valid_name(name), "invalid metric name `{name}`");
        let mut map = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Gets or creates a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.entry(name, || Entry::Counter(Arc::new(Counter::default()))) {
            Entry::Counter(c) => c,
            e => panic!("metric `{name}` is a {}, not a counter", e.kind()),
        }
    }

    /// Gets or creates a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.entry(name, || Entry::Gauge(Arc::new(Gauge::default()))) {
            Entry::Gauge(g) => g,
            e => panic!("metric `{name}` is a {}, not a gauge", e.kind()),
        }
    }

    /// Gets or creates a fixed-bucket histogram. The bounds of the first
    /// registration win; later callers share the same buckets.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid, already registered as another kind,
    /// or `bounds` is not strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        match self.entry(name, || Entry::Histogram(Arc::new(Histogram::new(bounds)))) {
            Entry::Histogram(h) => h,
            e => panic!("metric `{name}` is a {}, not a histogram", e.kind()),
        }
    }

    /// Gets or creates a quantile ring. The capacity of the first
    /// registration wins.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn quantiles(&self, name: &str, capacity: usize) -> Arc<QuantileRing> {
        match self.entry(name, || {
            Entry::Quantiles(Arc::new(QuantileRing::new(capacity)))
        }) {
            Entry::Quantiles(q) => q,
            e => panic!("metric `{name}` is a {}, not a quantile ring", e.kind()),
        }
    }

    fn snapshot(&self) -> Vec<(String, Entry)> {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Renders every metric as Prometheus text exposition lines.
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(512);
        for (name, entry) in self.snapshot() {
            match entry {
                Entry::Counter(c) => {
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Entry::Gauge(g) => {
                    out.push_str(&format!("{name} {}\n", fmt_f64(g.get())));
                }
                Entry::Histogram(h) => {
                    for (bound, cum) in h.cumulative() {
                        let le = if bound.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            fmt_f64(bound)
                        };
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_sum {}\n", fmt_f64(h.sum())));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
                Entry::Quantiles(q) => {
                    let s = q.snapshot();
                    out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", s.p50));
                    out.push_str(&format!("{name}{{quantile=\"0.95\"}} {}\n", s.p95));
                    out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", s.p99));
                    out.push_str(&format!("{name}_count {}\n", s.samples));
                }
            }
        }
        out
    }
}

/// Formats a float the way the JSON layer does: integral values print
/// without a fraction so expositions stay byte-stable.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Gets or creates a counter in the [`global`] registry. Hot paths should
/// call this once and cache the handle.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Gets or creates a gauge in the [`global`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Gets or creates a histogram in the [`global`] registry.
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    global().histogram(name, bounds)
}

/// Gets or creates a quantile ring in the [`global`] registry.
pub fn quantiles(name: &str, capacity: usize) -> Arc<QuantileRing> {
    global().quantiles(name, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_shards() {
        let c = Counter::default();
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| c.add(10));
            }
        });
        assert_eq!(c.get(), 44);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 5.0, 50.0, 5000.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 5060.5).abs() < 1e-9);
        assert_eq!(
            h.cumulative(),
            vec![(1.0, 1), (10.0, 3), (100.0, 4), (f64::INFINITY, 5)]
        );
    }

    #[test]
    fn quantile_matches_exact_percentiles_single_thread() {
        // One thread writes one shard, so give each shard room for all
        // 100 samples.
        let q = QuantileRing::new(100 * SHARDS);
        for v in 1..=100u64 {
            q.record(v);
        }
        let s = q.snapshot();
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(q.quantile(1.0), 100);
    }

    #[test]
    fn quantile_ring_bounds_memory_and_displaces_old_samples() {
        let q = QuantileRing::new(64);
        // All from one thread: one shard, capacity 64/SHARDS.
        for _ in 0..1000 {
            q.record(1_000_000);
        }
        for _ in 0..1000 {
            q.record(1);
        }
        let s = q.snapshot();
        assert!(s.samples <= 64);
        assert_eq!(s.p99, 1, "old samples should have been displaced");
    }

    #[test]
    fn quantile_ring_wraparound_retains_exactly_the_last_window() {
        // One thread writes one shard; shard capacity is 4, so after ten
        // writes the ring must hold exactly the last four values, with
        // the overwrite evicting oldest-first.
        let q = QuantileRing::new(4 * SHARDS);
        for v in 1..=10u64 {
            q.record(v);
        }
        let mut kept = q.samples();
        kept.sort_unstable();
        assert_eq!(kept, vec![7, 8, 9, 10]);
    }

    #[test]
    fn quantile_ring_concurrent_writers_lose_nothing_under_capacity() {
        // Four writer threads, each recording a disjoint value range.
        // The per-shard capacity covers every writer landing on the same
        // shard (thread→shard assignment is process-global round-robin,
        // so parallel tests can perturb it), hence nothing may displace:
        // the merged window must hold every write exactly once.
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 64;
        let q = QuantileRing::new(SHARDS * (WRITERS * PER_WRITER) as usize);
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        q.record(t * 1_000 + i);
                    }
                });
            }
        });
        let mut all = q.samples();
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..WRITERS)
            .flat_map(|t| (0..PER_WRITER).map(move |i| t * 1_000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect, "no sample may be lost or duplicated");
    }

    #[test]
    fn quantile_ring_snapshot_while_writing_stays_consistent() {
        // Writers push values from a two-element set while the main
        // thread snapshots mid-flight: every snapshot must stay within
        // the capacity bound, keep its percentiles ordered, and report
        // only values that were actually written (a torn read would
        // surface as a stray value or an inverted percentile).
        const PER_WRITER: usize = 400;
        let q = QuantileRing::new(64);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        q.record(if i % 2 == 0 { 10 } else { 20 });
                    }
                });
            }
            for _ in 0..50 {
                let snap = q.snapshot();
                assert!(snap.samples <= 64, "window exceeded capacity: {snap:?}");
                assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99, "{snap:?}");
                for v in [snap.p50, snap.p95, snap.p99] {
                    assert!(
                        v == 0 || v == 10 || v == 20,
                        "snapshot saw a value nobody wrote: {snap:?}"
                    );
                }
            }
        });
        // After the writers join the rings are full: each shard a writer
        // touched holds its full window, and only written values remain.
        let snap = q.snapshot();
        assert!(snap.samples > 0 && snap.samples <= 64, "{snap:?}");
        assert!(q.samples().iter().all(|&v| v == 10 || v == 20));
        assert_eq!(snap.p99, 20, "{snap:?}");
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::new();
        r.counter("a_total").add(1);
        r.counter("a_total").add(2);
        assert_eq!(r.counter("a_total").get(), 3);
        assert_eq!(r.prometheus(), "a_total 3\n", "one metric, registered once");
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_names() {
        Registry::new().counter("has space");
    }

    #[test]
    fn prometheus_exposition_covers_all_kinds() {
        let r = Registry::new();
        r.counter("c_total").add(7);
        r.gauge("g").set(1.5);
        r.histogram("h", &[10.0]).record(3.0);
        r.quantiles("q_us", 16).record(42);
        let text = r.prometheus();
        assert!(text.contains("c_total 7\n"), "{text}");
        assert!(text.contains("g 1.5\n"), "{text}");
        assert!(text.contains("h_bucket{le=\"10\"} 1\n"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 1\n"), "{text}");
        assert!(text.contains("h_count 1\n"), "{text}");
        assert!(text.contains("q_us{quantile=\"0.5\"} 42\n"), "{text}");
    }

    #[test]
    fn sharded_counter_is_exact_under_contention() {
        let c = Counter::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
