//! Request telemetry for the `/metrics` endpoint.
//!
//! Counts requests per route and per status class, and tracks request
//! latency, and the phases of the two prediction handlers (decode, cache,
//! forward, encode), through the workspace's shared quantile estimator
//! ([`dse_obs::registry::QuantileRing`]): recording is a push into the
//! calling thread's own shard — connection handler threads never queue
//! on one lock — and the merge + sort happens only when `/metrics` is
//! scraped.
//!
//! The exposition keeps the established `dse_serve_*` metric names and
//! adds `dse_serve_build_info` (package version plus git hash when the
//! server runs inside a checkout) and the uptime gauge.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use dse_obs::registry::QuantileRing;

/// How many recent latencies the percentile window retains (total across
/// all shards).
const RING_CAPACITY: usize = 4096;

/// Every route label [`crate::server::route`] can emit, pre-seeded into
/// the per-route table at construction so `/metrics` exposes each route
/// at 0 from the first scrape. (The table used to populate lazily on
/// first hit, which silently dropped never-yet-hit routes — the newer
/// `/v1/workloads` and `/v1/explore` surfaces most visibly — from the
/// exposition.) Dynamically observed labels still join the table, so a
/// new route missing from this list degrades to the old behaviour, not
/// to lost counts.
const KNOWN_ROUTES: &[&str] = &[
    "/healthz",
    "/metrics",
    "/v1/models",
    "/v1/configs",
    "/v1/predict",
    "/v1/predict_batch",
    "/v1/fit",
    "/v1/reload",
    "/v1/shutdown",
    "/v1/workloads",
    "/v1/explore",
    "/v1/explore/:id",
    "/v1/obs/flight",
    "method_not_allowed",
    "not_found",
    "malformed",
    "shed",
    "panic",
];

/// Routes whose handlers time their phases.
const PHASE_ROUTES: [&str; 2] = ["/v1/predict", "/v1/predict_batch"];

/// Phase labels, in [`Phase`] order.
const PHASE_NAMES: [&str; 4] = ["decode", "cache", "forward", "encode"];

/// Samples each phase ring retains.
const PHASE_RING_CAPACITY: usize = 1024;

/// One phase of a prediction handler.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    /// Reading the request body into a program, metric and configs.
    Decode = 0,
    /// Prediction-cache lookups and inserts.
    Cache = 1,
    /// Resolving the predictor and the ANN forward pass.
    Forward = 2,
    /// Serialising the response body.
    Encode = 3,
}

/// Charges a handler's wall time to consecutive phases: each
/// [`PhaseClock::charge`] bills the time since the previous one, so the
/// phases never sum to more than the handler's own latency.
pub(crate) struct PhaseClock {
    last: Instant,
    spent: [Duration; PHASE_NAMES.len()],
}

impl PhaseClock {
    pub(crate) fn start() -> Self {
        Self {
            last: Instant::now(),
            spent: [Duration::ZERO; PHASE_NAMES.len()],
        }
    }

    /// Bills the time since the previous mark to `phase`.
    pub(crate) fn charge(&mut self, phase: Phase) {
        let now = Instant::now();
        self.spent[phase as usize] += now - self.last;
        self.last = now;
    }
}

/// Server-wide request telemetry.
pub struct Telemetry {
    started: Instant,
    total: AtomicU64,
    /// Status-class counters: 2xx, 4xx, 5xx (3xx never issued).
    ok: AtomicU64,
    client_error: AtomicU64,
    server_error: AtomicU64,
    /// route → request count (BTreeMap so the exposition is sorted).
    routes: Mutex<BTreeMap<String, u64>>,
    /// Recent request latencies in microseconds, thread-sharded.
    latencies: QuantileRing,
    /// Recent phase times in microseconds, one ring per
    /// ([`PHASE_ROUTES`], [`PHASE_NAMES`]) pair, route-major.
    phases: Vec<QuantileRing>,
}

/// A latency percentile snapshot in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples in the window.
    pub samples: usize,
    /// Median latency.
    pub p50_us: u64,
    /// 95th-percentile latency.
    pub p95_us: u64,
    /// 99th-percentile latency.
    pub p99_us: u64,
}

/// The git hash of the running checkout, resolved once; `None` when the
/// server does not run inside a git work tree (e.g. a deployed binary).
fn git_hash() -> Option<&'static str> {
    static HASH: OnceLock<Option<String>> = OnceLock::new();
    HASH.get_or_init(|| {
        let out = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        let hash = String::from_utf8(out.stdout).ok()?.trim().to_string();
        (!hash.is_empty()).then_some(hash)
    })
    .as_deref()
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Fresh telemetry with zeroed counters.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            total: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            client_error: AtomicU64::new(0),
            server_error: AtomicU64::new(0),
            routes: Mutex::new(
                KNOWN_ROUTES
                    .iter()
                    .map(|&route| (route.to_string(), 0))
                    .collect(),
            ),
            latencies: QuantileRing::new(RING_CAPACITY),
            phases: (0..PHASE_ROUTES.len() * PHASE_NAMES.len())
                .map(|_| QuantileRing::new(PHASE_RING_CAPACITY))
                .collect(),
        }
    }

    /// Records the phases of one successful request to `route`, one of
    /// the prediction routes.
    pub(crate) fn record_phases(&self, route: &str, clock: &PhaseClock) {
        let Some(r) = PHASE_ROUTES.iter().position(|&p| p == route) else {
            debug_assert!(false, "{route} does not time its phases");
            return;
        };
        let rings = &self.phases[r * PHASE_NAMES.len()..][..PHASE_NAMES.len()];
        for (ring, spent) in rings.iter().zip(clock.spent) {
            ring.record(spent.as_micros() as u64);
        }
    }

    /// Records one completed request.
    pub fn record(&self, route: &str, status: u16, latency_us: u64) {
        self.total.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.ok,
            400..=499 => &self.client_error,
            _ => &self.server_error,
        }
        .fetch_add(1, Ordering::Relaxed);
        *self
            .routes
            .lock()
            .unwrap()
            .entry(route.to_string())
            .or_insert(0) += 1;
        self.latencies.record(latency_us);
    }

    /// Total requests recorded since startup.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Seconds since the server started.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Latency percentiles over the current window.
    pub fn latency(&self) -> LatencySummary {
        let s = self.latencies.snapshot();
        LatencySummary {
            samples: s.samples,
            p50_us: s.p50,
            p95_us: s.p95,
            p99_us: s.p99,
        }
    }

    /// Renders the plain-text exposition served at `GET /metrics`.
    ///
    /// `cache_hits`/`cache_misses` come from the prediction cache so the
    /// hit rate appears alongside the request counters. Workspace-wide
    /// metrics from [`dse_obs::registry::global`] are appended by the
    /// route handler, not here.
    pub fn exposition(&self, cache_hits: u64, cache_misses: u64, cache_len: usize) -> String {
        let lat = self.latency();
        let lookups = cache_hits + cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            cache_hits as f64 / lookups as f64
        };
        let mut out = String::with_capacity(768);
        out.push_str(&format!(
            "dse_serve_build_info{{version=\"{}\",git=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION"),
            git_hash().unwrap_or("unknown"),
        ));
        out.push_str(&format!(
            "dse_serve_uptime_seconds {}\n",
            self.uptime_seconds()
        ));
        out.push_str(&format!("dse_serve_requests_total {}\n", self.total()));
        out.push_str(&format!(
            "dse_serve_responses_total{{class=\"2xx\"}} {}\n",
            self.ok.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "dse_serve_responses_total{{class=\"4xx\"}} {}\n",
            self.client_error.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "dse_serve_responses_total{{class=\"5xx\"}} {}\n",
            self.server_error.load(Ordering::Relaxed)
        ));
        for (route, count) in self.routes.lock().unwrap().iter() {
            out.push_str(&format!(
                "dse_serve_route_requests_total{{route=\"{route}\"}} {count}\n"
            ));
        }
        out.push_str(&format!(
            "dse_serve_latency_microseconds{{quantile=\"0.5\"}} {}\n",
            lat.p50_us
        ));
        out.push_str(&format!(
            "dse_serve_latency_microseconds{{quantile=\"0.95\"}} {}\n",
            lat.p95_us
        ));
        out.push_str(&format!(
            "dse_serve_latency_microseconds{{quantile=\"0.99\"}} {}\n",
            lat.p99_us
        ));
        let phases = PHASE_ROUTES
            .iter()
            .flat_map(|route| PHASE_NAMES.iter().map(move |phase| (route, phase)));
        for ((route, phase), ring) in phases.zip(&self.phases) {
            let q = ring.snapshot();
            for (label, v) in [("0.5", q.p50), ("0.95", q.p95), ("0.99", q.p99)] {
                out.push_str(&format!(
                    "dse_serve_phase_us{{route=\"{route}\",phase=\"{phase}\",quantile=\"{label}\"}} {v}\n"
                ));
            }
        }
        out.push_str(&format!("dse_serve_cache_hits_total {cache_hits}\n"));
        out.push_str(&format!("dse_serve_cache_misses_total {cache_misses}\n"));
        out.push_str(&format!("dse_serve_cache_entries {cache_len}\n"));
        out.push_str(&format!("dse_serve_cache_hit_rate {hit_rate:.4}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_by_route_and_class() {
        let t = Telemetry::new();
        t.record("/v1/predict", 200, 100);
        t.record("/v1/predict", 200, 200);
        t.record("/healthz", 200, 10);
        t.record("/nope", 404, 5);
        t.record("/v1/predict", 500, 50);
        assert_eq!(t.total(), 5);
        let text = t.exposition(3, 1, 2);
        assert!(text.contains("dse_serve_requests_total 5"));
        assert!(text.contains("dse_serve_responses_total{class=\"2xx\"} 3"));
        assert!(text.contains("dse_serve_responses_total{class=\"4xx\"} 1"));
        assert!(text.contains("dse_serve_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("dse_serve_route_requests_total{route=\"/v1/predict\"} 3"));
        assert!(text.contains("dse_serve_cache_hit_rate 0.7500"));
        assert!(text.contains("dse_serve_cache_entries 2"));
    }

    #[test]
    fn all_routes_present_before_any_traffic() {
        let t = Telemetry::new();
        let text = t.exposition(0, 0, 0);
        for route in KNOWN_ROUTES {
            assert!(
                text.contains(&format!(
                    "dse_serve_route_requests_total{{route=\"{route}\"}} 0"
                )),
                "route {route} missing from fresh exposition:\n{text}"
            );
        }
    }

    #[test]
    fn exposition_includes_build_info_and_uptime() {
        let t = Telemetry::new();
        let text = t.exposition(0, 0, 0);
        assert!(
            text.contains(&format!(
                "dse_serve_build_info{{version=\"{}\"",
                env!("CARGO_PKG_VERSION")
            )),
            "{text}"
        );
        assert!(text.contains("dse_serve_uptime_seconds "), "{text}");
    }

    #[test]
    fn percentiles_over_known_distribution() {
        let t = Telemetry::new();
        for us in 1..=100 {
            t.record("/v1/predict", 200, us);
        }
        let lat = t.latency();
        assert_eq!(lat.samples, 100);
        assert_eq!(lat.p50_us, 50);
        assert_eq!(lat.p95_us, 95);
        assert_eq!(lat.p99_us, 99);
    }

    #[test]
    fn phases_are_exported_per_route_and_never_exceed_the_handler() {
        let t = Telemetry::new();
        let started = Instant::now();
        let mut clock = PhaseClock::start();
        for phase in [Phase::Decode, Phase::Cache, Phase::Forward, Phase::Cache] {
            std::thread::sleep(Duration::from_millis(2));
            clock.charge(phase);
        }
        clock.charge(Phase::Encode);
        let handler = started.elapsed();
        assert!(clock.spent.iter().sum::<Duration>() <= handler);
        assert!(clock.spent[Phase::Cache as usize] >= Duration::from_millis(4));
        t.record_phases("/v1/predict_batch", &clock);
        let text = t.exposition(0, 0, 0);
        for route in PHASE_ROUTES {
            for phase in PHASE_NAMES {
                for q in ["0.5", "0.95", "0.99"] {
                    let series = format!(
                        "dse_serve_phase_us{{route=\"{route}\",phase=\"{phase}\",quantile=\"{q}\"}} "
                    );
                    assert!(text.contains(&series), "{series} missing:\n{text}");
                }
            }
        }
        let decode =
            "dse_serve_phase_us{route=\"/v1/predict_batch\",phase=\"decode\",quantile=\"0.5\"} ";
        let line = text.lines().find(|l| l.starts_with(decode)).unwrap();
        let us: u64 = line[decode.len()..].parse().unwrap();
        assert!(us >= 2000, "{line}");
    }

    #[test]
    fn empty_window_reports_zeroes() {
        let t = Telemetry::new();
        let lat = t.latency();
        assert_eq!(lat.samples, 0);
        assert_eq!(lat.p50_us, 0);
        assert_eq!(lat.p99_us, 0);
    }

    #[test]
    fn ring_bounds_memory_and_displaces_old_samples() {
        let t = Telemetry::new();
        // Fill well past capacity with large values, then small ones.
        // A single test thread writes one shard, so the retained window
        // is capacity/shards — still bounded and still displacing.
        for _ in 0..RING_CAPACITY {
            t.record("/v1/predict", 200, 1_000_000);
        }
        for _ in 0..RING_CAPACITY {
            t.record("/v1/predict", 200, 1);
        }
        let lat = t.latency();
        assert!(lat.samples > 0 && lat.samples <= RING_CAPACITY);
        assert_eq!(lat.p99_us, 1, "old samples should have been displaced");
    }
}
