//! Load harness: dse-serve under sustained multi-connection traffic.
//!
//! This bin drives the event-loop front end the way production traffic would:
//! M concurrent keep-alive connections, each request individually timed,
//! reported as per-request p50/p95/p99 latency plus measured throughput.
//! Two arrival disciplines:
//!
//! * **closed-loop** — each connection fires its next request the moment
//!   the previous response lands (latency-bound; measures the service
//!   path itself);
//! * **open-loop** — requests follow a fixed-rate arrival schedule
//!   computed up front, and latency is measured **from the scheduled
//!   arrival**, so queueing delay behind a slow server shows up in the
//!   tail instead of silently stretching the schedule.
//!
//! Scenarios cover the warm path (every config cached), the cold path
//! (a `/v1/fit` invalidates the cache, then every config is predicted
//! exactly once), and the batched path (`/v1/predict_batch` with the
//! batch priced in predictions/sec — the `load/batch/warm/b=512` row).
//!
//! Set `DSE_BENCH_JSON=<path>` to write the machine-readable report and
//! `DSE_BENCH_BASELINE=<path>` to fail on a >50 % regression of each
//! row's best iteration — µs-scale latency rows need a wider band than
//! the sim gate's 25 % —
//! (the `scripts/ci.sh` gate against `BENCH_serve.json`). `DSE_QUICK=1`
//! shrinks the number of rounds only — per-round work is constant, so
//! quick runs gate against full-mode baselines.

use dse_bench::harness::{iters_for, Report};
use dse_core::dataset::{DatasetSpec, SuiteDataset};
use dse_ml::MlpConfig;
use dse_serve::{save_artifacts, Client, ModelRegistry, Server, ServerConfig};
use dse_sim::Metric;
use dse_space::Config;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent keep-alive connections per load scenario.
const CONNS: usize = 4;
/// Closed-loop warm requests per connection per round.
const WARM_PER_CONN: usize = 48;
/// Open-loop arrivals per round.
const OPEN_ARRIVALS: usize = 256;
/// Open-loop arrival rate (requests per second).
const OPEN_RATE: f64 = 2000.0;
/// Configs per `/v1/predict_batch` request.
const BATCH: usize = 512;
/// Batch requests per round.
const BATCH_REQS: usize = 4;

/// One load round: per-request latencies plus the round's wall time.
struct RoundOut {
    lat: Vec<Duration>,
    wall: Duration,
}

/// Closed-loop round: `CONNS` threads, each with its own keep-alive
/// connection, each issuing `per_conn` back-to-back requests. With
/// `distinct`, request `k` of connection `c` hits config `c*per_conn+k`
/// exactly once (the all-miss cold round); otherwise requests cycle the
/// config pool (all hits once the cache is warm).
fn closed_round(
    addr: &str,
    program: &str,
    metric: Metric,
    configs: &Arc<Vec<Config>>,
    per_conn: usize,
    distinct: bool,
) -> RoundOut {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..CONNS)
        .map(|c| {
            let addr = addr.to_string();
            let program = program.to_string();
            let configs = Arc::clone(configs);
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut lat = Vec::with_capacity(per_conn);
                for k in 0..per_conn {
                    let idx = (c * per_conn + k) % configs.len();
                    debug_assert!(!distinct || c * per_conn + k < configs.len());
                    let t = Instant::now();
                    client.predict(&program, metric, &configs[idx]).unwrap();
                    lat.push(t.elapsed());
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for h in handles {
        lat.extend(h.join().unwrap());
    }
    RoundOut {
        lat,
        wall: t0.elapsed(),
    }
}

/// Open-loop round: `OPEN_ARRIVALS` arrivals at `OPEN_RATE`/s, dealt
/// round-robin over `CONNS` connections. Latency runs from the
/// *scheduled* arrival, so a server that falls behind accrues queueing
/// delay in the measured tail.
fn open_round(addr: &str, program: &str, metric: Metric, configs: &Arc<Vec<Config>>) -> RoundOut {
    let t0 = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / OPEN_RATE);
    // Small lead so every thread has connected before arrival 0.
    let start = t0 + Duration::from_millis(20);
    let handles: Vec<_> = (0..CONNS)
        .map(|c| {
            let addr = addr.to_string();
            let program = program.to_string();
            let configs = Arc::clone(configs);
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                let mut lat = Vec::with_capacity(OPEN_ARRIVALS / CONNS + 1);
                for j in (c..OPEN_ARRIVALS).step_by(CONNS) {
                    let sched = start + interval.mul_f64(j as f64);
                    if let Some(wait) = sched.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    client
                        .predict(&program, metric, &configs[j % configs.len()])
                        .unwrap();
                    lat.push(sched.elapsed());
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for h in handles {
        lat.extend(h.join().unwrap());
    }
    RoundOut {
        lat,
        wall: t0.elapsed(),
    }
}

/// Batched round: one connection, `BATCH_REQS` sequential
/// `/v1/predict_batch` requests of `BATCH` configs each.
fn batch_round(client: &mut Client, program: &str, metric: Metric, batch: &[Config]) -> RoundOut {
    let t0 = Instant::now();
    let mut lat = Vec::with_capacity(BATCH_REQS);
    for _ in 0..BATCH_REQS {
        let t = Instant::now();
        let values = client.predict_batch(program, metric, batch).unwrap();
        assert_eq!(values.len(), batch.len());
        lat.push(t.elapsed());
    }
    RoundOut {
        lat,
        wall: t0.elapsed(),
    }
}

/// Runs one untimed warm-up round, then `rounds` timed rounds, and
/// records the pooled per-request latency distribution. Throughput is
/// total events over total wall time; `events_per_req` prices batched
/// rows in predictions/sec instead of requests/sec.
fn scenario<F: FnMut() -> RoundOut>(
    report: &mut Report,
    name: &str,
    rounds: usize,
    events_per_req: usize,
    mut round: F,
) {
    round();
    let mut lat = Vec::new();
    let mut wall = Duration::ZERO;
    for _ in 0..rounds {
        let r = round();
        lat.extend(r.lat);
        wall += r.wall;
    }
    let rate = (lat.len() * events_per_req) as f64 / wall.as_secs_f64();
    report.push_samples(name, &mut lat, rate);
}

fn main() {
    let metric = Metric::Cycles;
    let profiles: Vec<_> = dse_workload::suites::spec2000()
        .into_iter()
        .take(5)
        .collect();
    let ds = SuiteDataset::generate(
        &profiles,
        &DatasetSpec {
            n_configs: CONNS * 16,
            ..DatasetSpec::tiny()
        },
    );
    let train = SuiteDataset {
        spec: ds.spec,
        configs: ds.configs.clone(),
        benchmarks: ds.benchmarks[..4].to_vec(),
    };
    let dir = std::env::temp_dir().join(format!("dse-bench-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_artifacts(&dir, &train, &[metric], 40, &MlpConfig::default(), 7).unwrap();

    let target = &ds.benchmarks[4];
    let responses: Vec<(usize, f64)> = (0..32)
        .map(|i| (i, target.metrics[i].get(metric)))
        .collect();
    let configs = Arc::new(ds.configs.clone());
    let batch: Vec<Config> = (0..BATCH)
        .map(|i| ds.configs[i % ds.configs.len()].clone())
        .collect();

    let registry = Arc::new(ModelRegistry::open(&dir).unwrap());
    registry.fit(&target.name, metric, &responses).unwrap();
    // Worker-pinned sessions: each keep-alive connection occupies a
    // worker for its lifetime, so size the pool for the load connections
    // plus the control client with headroom for round-boundary overlap.
    let server = Server::start(
        registry,
        &ServerConfig {
            workers: 2 * CONNS,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut control = Client::new(addr.clone());

    let rounds = iters_for(12, 3);
    let mut report = Report::new();

    // Warm the cache: one pass over every config.
    for config in configs.iter() {
        control.predict(&target.name, metric, config).unwrap();
    }

    scenario(
        &mut report,
        &format!("load/closed/warm/c={CONNS}"),
        rounds,
        1,
        || closed_round(&addr, &target.name, metric, &configs, WARM_PER_CONN, false),
    );

    // Cold: every round refits (invalidating the cache), then predicts
    // each config exactly once across the connections.
    let cold_per_conn = configs.len() / CONNS;
    scenario(
        &mut report,
        &format!("load/closed/cold/c={CONNS}"),
        rounds,
        1,
        || {
            control.fit(&target.name, metric, &responses).unwrap();
            closed_round(&addr, &target.name, metric, &configs, cold_per_conn, true)
        },
    );

    // Re-warm after the cold rounds left a fresh fit in place.
    for config in configs.iter() {
        control.predict(&target.name, metric, config).unwrap();
    }

    scenario(
        &mut report,
        &format!("load/open/warm/c={CONNS}/r={}", OPEN_RATE as u64),
        rounds,
        1,
        || open_round(&addr, &target.name, metric, &configs),
    );

    scenario(
        &mut report,
        &format!("load/batch/warm/b={BATCH}"),
        rounds,
        BATCH,
        || batch_round(&mut control, &target.name, metric, &batch),
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    if let Ok(path) = std::env::var("DSE_BENCH_JSON") {
        report.write_json(&path);
    }
    if let Ok(path) = std::env::var("DSE_BENCH_BASELINE") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read bench baseline {path}: {e}"));
        // 50% tolerance (not the sim gate's 25%): these rows are
        // microsecond-scale request latencies whose best iteration still
        // moves >25% with scheduler phase on a shared 1-vCPU host. The
        // failures this gate exists for (accidental quadratic scans,
        // lost batching) are multiples, not tens of percent.
        match report.regressions(&text, 0.5) {
            Ok(msgs) if msgs.is_empty() => {
                eprintln!("[bench] no regression vs {path}");
            }
            Ok(msgs) => {
                for m in &msgs {
                    eprintln!("[bench] REGRESSION {m}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("[bench] {e}");
                std::process::exit(1);
            }
        }
    }
}
