//! `serve`: the in-process prediction server under load from one process
//! with two keep-alive connections.
//!
//! No simulation runs in the timed window: the HTTP front end, the JSON
//! layer, the prediction cache and the ANN forward pass do the work.
//!
//! * Phase A (singles) is an open loop at a fixed rate: `/v1/predict`
//!   requests drawn Zipf-distributed over a pool of configurations larger
//!   than the cache, with a `/v1/fit` refit (a write that invalidates the
//!   cache) on a fixed period. Latency runs from each request's scheduled
//!   send, so a stalled server shows in later requests too.
//! * Phase C (batches) is a closed loop of `/v1/predict_batch` requests on
//!   one connection, whose configurations never repeat within the cache's
//!   reach, so every prediction runs the forward pass.
//!
//! Zipf singles against uniform batches separate gains that depend on the
//! cache from gains in the forward pass. The served models are trained on
//! the same dataset in every run; the run seed drives the configuration
//! pool, the request stream and the batches.

use crate::probes::{self, ProbeCtx};
use crate::result::Metric;
use crate::{finish_setups, mix, programs, spans, stats, time_setup, Measured, ScratchDir, Sizes};
use dse_core::dataset::SuiteDataset;
use dse_ml::MlpConfig;
use dse_rng::dist::Zipf;
use dse_rng::Xoshiro256;
use dse_serve::{save_artifacts, Client, ModelRegistry, Server, ServerConfig};
use dse_sim::Metric as Target;
use dse_space::{sample_legal, Config};
use dse_util::json::{self, Json, ToJson};
use dse_workload::Profile;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client connections (and client threads) of the load generator.
const CONNS: usize = 2;

/// Connections sending batches in phase C. One stream measures the
/// decode, forward and encode path; a second one, on two CPUs shared with
/// the server's threads, about doubled the run-to-run spread.
const BATCH_CONNS: usize = 1;

/// Sizes of the `serve` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ServeSizes {
    /// Training programs of the served artifacts.
    pub(crate) train_programs: &'static [&'static str],
    /// The program whose predictions are served.
    pub(crate) target: &'static str,
    /// Sampled configurations of the artifacts.
    pub(crate) configs: usize,
    /// Simulations per training program for the offline ANNs (T).
    pub(crate) t: usize,
    /// Responses of the served program (R).
    pub(crate) r: usize,
    /// Distinct configurations the single predictions draw from.
    pub(crate) pool: usize,
    /// Zipf exponent of the single predictions.
    pub(crate) zipf_s: f64,
    /// Phase A arrival rate (requests per second).
    pub(crate) rate: f64,
    /// Seconds between refits in phase A.
    pub(crate) refit_every_s: f64,
    /// Configurations per batch request.
    pub(crate) batch: usize,
    /// Distinct batch bodies cycled in phase C.
    pub(crate) batch_bodies: usize,
    /// Share of the window spent in phase A; phase C gets the rest.
    pub(crate) single_share: f64,
    /// Untimed warm-up of each phase, in seconds.
    pub(crate) warmup_s: f64,
    /// Single responses checked against the registry.
    pub(crate) checked: usize,
}

impl ServeSizes {
    pub(crate) const FULL: Self = Self {
        train_programs: &[
            "gzip", "gcc", "mcf", "crafty", "parser", "swim", "art", "equake",
        ],
        target: "twolf",
        configs: 48,
        t: 48,
        r: 32,
        pool: 8192,
        zipf_s: 1.1,
        rate: 4000.0,
        refit_every_s: 1.0,
        batch: 512,
        batch_bodies: 64,
        single_share: 0.6,
        warmup_s: 0.5,
        checked: 256,
    };
    pub(crate) const SMOKE: Self = Self {
        train_programs: &["gzip", "mcf"],
        target: "twolf",
        configs: 6,
        t: 6,
        r: 4,
        pool: 64,
        zipf_s: 1.1,
        rate: 400.0,
        refit_every_s: 0.1,
        batch: 16,
        batch_bodies: 4,
        single_share: 0.6,
        warmup_s: 0.05,
        checked: 8,
    };
}

struct Ctx {
    sizes: ServeSizes,
    profiles: Vec<Profile>,
    ds: SuiteDataset,
    registry: Arc<ModelRegistry>,
    // Declared before the scratch directory: the server stops (on drop)
    // before its artifacts are removed. Its connections are closed by
    // then: they belong to the run, which ends first.
    server: Server,
    addr: String,
    pool: Vec<Config>,
    single_bodies: Vec<String>,
    zipf: Zipf,
    fit_body: String,
    batch_bodies: Vec<String>,
    /// A batch sent once, after the warm-up: none of its configurations
    /// can be cached, so its response is the same bytes on every run.
    check_batch: Vec<Config>,
    check_body: String,
    _dir: ScratchDir,
}

fn body(target: &str, key: &str, value: Json) -> String {
    json::to_string(&Json::obj([
        ("program", target.to_json()),
        ("metric", Target::Cycles.to_json()),
        (key, value),
    ]))
}

fn setup(seed: u64, sizes: &Sizes) -> Result<Ctx, String> {
    let s = &sizes.serve;
    let mut names = s.train_programs.to_vec();
    names.push(s.target);
    let profiles = programs(&names, 0);
    let spec = sizes.spec(s.configs, mix(0, 9));
    let ds = SuiteDataset::try_generate(&profiles, &spec).map_err(|e| e.to_string())?;
    let train = SuiteDataset {
        spec: ds.spec,
        configs: ds.configs.clone(),
        benchmarks: ds.benchmarks[..ds.benchmarks.len() - 1].to_vec(),
    };
    let dir = ScratchDir::new("serve");
    save_artifacts(
        &dir.0,
        &train,
        &[Target::Cycles],
        s.t,
        &MlpConfig::default(),
        mix(0, 10),
    )
    .map_err(|e| e.to_string())?;
    let registry = Arc::new(ModelRegistry::open(&dir.0).map_err(|e| e.to_string())?);
    let target = ds.benchmarks.last().expect("target simulated");
    let responses = (0..s.r)
        .map(|i| {
            Json::obj([
                ("index", i.to_json()),
                ("value", target.metrics[i].cycles.to_json()),
            ])
        })
        .collect();
    let fit_body = body(s.target, "responses", Json::Arr(responses));
    let server =
        Server::start(registry.clone(), &ServerConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    match Client::new(addr.clone()).post("/v1/fit", &fit_body) {
        Ok(resp) if resp.status == 200 => {}
        Ok(resp) => return Err(format!("initial fit answered {}", resp.status)),
        Err(e) => return Err(format!("initial fit: {e}")),
    }
    let pool = sample_legal(&mut Xoshiro256::seed_from(mix(seed, 11)), s.pool);
    let single_bodies = pool
        .iter()
        .map(|c| body(s.target, "config", c.to_json()))
        .collect();
    let batch_cfgs = sample_legal(
        &mut Xoshiro256::seed_from(mix(seed, 12)),
        s.batch * (s.batch_bodies + 1),
    );
    let (sent, checked) = batch_cfgs.split_at(s.batch * s.batch_bodies);
    let check_batch = checked.to_vec();
    let check_body = body(s.target, "configs", check_batch.to_json());
    let batch_bodies = sent
        .chunks(s.batch)
        .map(|b| body(s.target, "configs", b.to_vec().to_json()))
        .collect();
    Ok(Ctx {
        sizes: *s,
        profiles,
        ds,
        registry,
        server,
        addr,
        pool,
        single_bodies,
        zipf: Zipf::new(s.pool, s.zipf_s),
        fit_body,
        batch_bodies,
        check_batch,
        check_body,
        _dir: dir,
    })
}

/// What one phase A measured.
#[derive(Default)]
struct Singles {
    /// Latency of each prediction from its scheduled send, s; a failed
    /// one misses every limit, so it counts as infinitely late.
    lat: Vec<f64>,
    /// How late the generator sent each request, s.
    late: Vec<f64>,
    sent: u64,
    failed: u64,
    /// (pool index, response body) of an evenly spaced sample of the
    /// successful predictions, for the correctness check.
    sampled: Vec<(usize, Vec<u8>)>,
}

/// Phase A over the run's connections: `seconds` of arrivals at the
/// configured rate, dealt round-robin over the connections.
fn singles(ctx: &Ctx, clients: &mut [Client], seconds: f64, stream: u64) -> Singles {
    let s = &ctx.sizes;
    let n = ((s.rate * seconds).round() as usize).max(1);
    let refit_period = ((s.rate * s.refit_every_s).round() as usize).max(1);
    let sample_every = (n / s.checked.max(1)).max(1);
    let phase = spans::span("serve.phase.singles");
    let parent = phase.id();
    // A short lead so every connection is ready before arrival 0.
    let start = Instant::now() + Duration::from_millis(20);
    let out = Mutex::new(Singles::default());
    let conns = clients.len();
    std::thread::scope(|scope| {
        for (c, client) in clients.iter_mut().enumerate() {
            let out = &out;
            scope.spawn(move || {
                let mut rng = Xoshiro256::seed_from(mix(stream, c as u64));
                let mut mine = Singles::default();
                for j in (c..n).step_by(conns) {
                    let due = start + Duration::from_secs_f64(j as f64 / s.rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    mine.late
                        .push(Instant::now().saturating_duration_since(due).as_secs_f64());
                    mine.sent += 1;
                    if j > 0 && j % refit_period == 0 {
                        let _span = spans::child_of("serve.request.fit", parent);
                        match client.post("/v1/fit", &ctx.fit_body) {
                            Ok(resp) if resp.status == 200 => {}
                            _ => mine.failed += 1,
                        }
                        continue;
                    }
                    let k = ctx.zipf.sample(&mut rng);
                    let span = spans::child_of("serve.request.predict", parent);
                    let resp = client.post("/v1/predict", &ctx.single_bodies[k]);
                    let lat = due.elapsed().as_secs_f64();
                    drop(span);
                    match resp {
                        Ok(resp) if resp.status == 200 => {
                            mine.lat.push(lat);
                            if j % sample_every == 0 {
                                mine.sampled.push((k, resp.body));
                            }
                        }
                        _ => {
                            mine.lat.push(f64::INFINITY);
                            mine.failed += 1;
                        }
                    }
                }
                let mut all = out.lock().expect("no client thread panics holding it");
                all.lat.extend(mine.lat);
                all.late.extend(mine.late);
                all.sent += mine.sent;
                all.failed += mine.failed;
                all.sampled.extend(mine.sampled);
            });
        }
    });
    out.into_inner().expect("client threads joined")
}

/// What one phase C measured.
#[derive(Default)]
struct Batches {
    /// Latency of each successful batch, s.
    lat: Vec<f64>,
    sent: u64,
    failed: u64,
}

impl Batches {
    /// Predictions per second at the 10th-percentile batch latency. On a
    /// shared 2-vCPU host the batch stream switches, a second or two at a
    /// time, between two speeds about 50 % apart as other tenants load
    /// the CPUs; the share of slow batches, and with it the median,
    /// differs from run to run. Over eight seeds on a busy host the rate
    /// at the median latency spread by 33 % (quartiles), at the 10th
    /// percentile by 8 %. A change to the request path moves every
    /// percentile alike.
    fn preds_per_s(&self, batch: usize) -> f64 {
        if self.lat.is_empty() {
            f64::NAN
        } else {
            batch as f64 / stats::percentile(&self.lat, 10.0)
        }
    }
}

/// Phase C: every connection sends batches back to back for `seconds`
/// (at least one each).
fn batches(ctx: &Ctx, clients: &mut [Client], seconds: f64) -> Batches {
    let phase = spans::span("serve.phase.batches");
    let parent = phase.id();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let out = Mutex::new(Batches::default());
    let conns = clients.len();
    std::thread::scope(|scope| {
        for (c, client) in clients.iter_mut().enumerate() {
            let out = &out;
            scope.spawn(move || {
                let mut mine = Batches::default();
                let mut k = c;
                while k == c || Instant::now() < deadline {
                    let _span = spans::child_of("serve.request.batch", parent);
                    mine.sent += 1;
                    let t = Instant::now();
                    let body = &ctx.batch_bodies[k % ctx.batch_bodies.len()];
                    match client.post("/v1/predict_batch", body) {
                        Ok(resp) if resp.status == 200 => mine.lat.push(t.elapsed().as_secs_f64()),
                        _ => mine.failed += 1,
                    }
                    k += conns;
                }
                let mut all = out.lock().expect("no client thread panics holding it");
                all.lat.extend(mine.lat);
                all.sent += mine.sent;
                all.failed += mine.failed;
            });
        }
    });
    out.into_inner().expect("client threads joined")
}

fn value_of(body: &[u8], key: &str) -> Option<Json> {
    let v = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    v.field(key).ok().cloned()
}

pub(crate) fn run(seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Measured {
    let s = &sizes.serve;
    let (ctx, first_setup_s) = time_setup(|| setup(seed, sizes));
    let mut m = Measured::default();
    let ctx = match ctx {
        Ok(ctx) => ctx,
        Err(e) => {
            m.checks.check(false, || format!("serve set-up: {e}"));
            return m;
        }
    };
    let predict = |cfg: &Config| ctx.registry.predict(s.target, Target::Cycles, cfg).ok();

    // One keep-alive connection per client thread for the whole run.
    let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::new(ctx.addr.clone())).collect();

    // Warm-up, then one batch checked value by value against the
    // registry; its body size is a work count.
    singles(&ctx, &mut clients, s.warmup_s, mix(seed, 13));
    batches(&ctx, &mut clients, s.warmup_s);
    match clients[0].post("/v1/predict_batch", &ctx.check_body) {
        Ok(resp) if resp.status == 200 => {
            m.work
                .push(("serve.batch_body_bytes".to_string(), resp.body.len() as u64));
            let values: Vec<f64> = value_of(&resp.body, "values")
                .and_then(|v| json::FromJson::from_json(&v).ok())
                .unwrap_or_default();
            let want: Vec<Option<f64>> = ctx.check_batch.iter().map(predict).collect();
            let same = values.len() == want.len()
                && values
                    .iter()
                    .zip(&want)
                    .all(|(v, w)| Some(v.to_bits()) == w.map(f64::to_bits));
            m.checks.check(same, || {
                "serve: a batch response differs from ModelRegistry::predict".to_string()
            });
        }
        other => m.checks.check(false, || {
            format!("serve: checked batch failed: {:?}", other.map(|r| r.status))
        }),
    }

    let window = if traced { seconds / 2.0 } else { seconds };
    let (a_s, c_s) = (window * s.single_share, window * (1.0 - s.single_share));
    let (hits0, misses0) = (ctx.server.cache().hits(), ctx.server.cache().misses());
    let a = singles(&ctx, &mut clients, a_s, mix(seed, 14));
    let (hits, misses) = (
        ctx.server.cache().hits() - hits0,
        ctx.server.cache().misses() - misses0,
    );
    // Read before phase C, whose batches would fill the telemetry window.
    let server = ctx.server.telemetry().latency();
    let c = batches(&ctx, &mut clients[..BATCH_CONNS], c_s);
    m.ops = a.sent + c.sent;
    m.ops_failed = a.failed + c.failed;
    m.op_s = a.lat.clone();
    m.items_per_s = c.preds_per_s(s.batch);
    if traced {
        spans::set_enabled(true);
        let ta = singles(&ctx, &mut clients, a_s, mix(seed, 15));
        let tc = batches(&ctx, &mut clients[..BATCH_CONNS], c_s);
        m.ops += ta.sent + tc.sent;
        m.ops_failed += ta.failed + tc.failed;
        m.traced_op_s = ta.lat;
    }

    // Sampled single responses must equal the registry's own prediction.
    for (k, body) in &a.sampled {
        let got = value_of(body, "value").and_then(|v| v.as_f64().ok());
        let want = predict(&ctx.pool[*k]);
        m.checks.check(
            got.is_some() && got.map(f64::to_bits) == want.map(f64::to_bits),
            || format!("serve: single response {got:?} != registry {want:?}"),
        );
    }

    if !a.lat.is_empty() {
        let us = |p: f64| stats::percentile(&a.lat, p) * 1e6;
        m.info.extend([
            Metric::new("serve_p50_us", us(50.0), "us"),
            Metric::new("serve_p99_us", us(99.0), "us"),
            Metric::new("serve_p999_us", us(99.9), "us"),
            Metric::new("serve_samples", a.lat.len() as f64, "count"),
        ]);
    }
    if !a.late.is_empty() {
        m.info.push(Metric::new(
            "serve_generator_late_p99_us",
            stats::percentile(&a.late, 99.0) * 1e6,
            "us",
        ));
    }
    m.info.extend([
        Metric::new("serve_server_p50_us", server.p50_us as f64, "us"),
        Metric::new("serve_server_p99_us", server.p99_us as f64, "us"),
        Metric::new(
            "serve_cache_hit_pct",
            hits as f64 / (hits + misses).max(1) as f64 * 100.0,
            "%",
        ),
    ]);
    if traced {
        let probe = ProbeCtx {
            profiles: &ctx.profiles,
            dataset: &ctx.ds,
            seed,
        };
        m.layers = probes::run(&probe, sizes, &mut m.checks);
    } else {
        drop(clients);
        drop(ctx);
        finish_setups(&mut m, sizes, first_setup_s, || setup(seed, sizes));
    }
    m
}
