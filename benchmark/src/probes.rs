//! Per-layer probes of the traced pass.
//!
//! Every workload's traced pass runs the same probes on the workload's
//! own inputs — its programs and its simulated dataset — so every
//! per-layer metric is measured on every workload. Each probe calls one
//! layer's public functions inside a span and derives unit costs, time
//! shares and deterministic work counts from what it timed. Probes also
//! check what they computed: a cell simulated inside a parallel sweep, one
//! at a time, and with stage timing must agree bit for bit, as must the
//! batched and single forward passes.

use crate::result::Metric;
use crate::spans::{child_of, timed};
use crate::{mix, Checks, ScratchDir, Sizes};
use dse_core::dataset::SuiteDataset;
use dse_core::fit_combiner;
use dse_explore::{
    Constraints, ExploreBudget, ExploreError, Explorer, GroundTruth, MetricPredictor, Objective,
    SimOracle,
};
use dse_ingest::{export_profile, import_profile};
use dse_ml::{Mlp, MlpConfig};
use dse_rng::Xoshiro256;
use dse_serve::http::{try_parse, Parsed, DEFAULT_MAX_BODY_BYTES};
use dse_serve::{save_artifacts, CacheKey, ModelRegistry, PredictionCache, RegistryPredictor};
use dse_sim::{simulate_detailed, simulate_stage_profiled, Metric as Target, Metrics, StageProf};
use dse_space::Config;
use dse_util::json::{self, FromJson, Json, ToJson};
use dse_workload::{Profile, Trace};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sizes of the per-layer probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ProbeSizes {
    /// Programs in the simulator sample, strided over the workload's.
    pub(crate) programs: usize,
    /// Configurations per program in the simulator sample.
    pub(crate) configs: usize,
    /// ANN training rows.
    pub(crate) t: usize,
    /// Responses of the probe's fitted program.
    pub(crate) r: usize,
    /// Replayed single requests.
    pub(crate) requests: usize,
    /// Configurations in the replayed batch.
    pub(crate) batch: usize,
    /// Repetitions of the microsecond-scale probes.
    pub(crate) reps: usize,
    /// Frontier-search rounds.
    pub(crate) rounds: usize,
    /// Candidates scored per round.
    pub(crate) candidates: usize,
    /// Simulations per round.
    pub(crate) sims_per_round: usize,
}

impl ProbeSizes {
    pub(crate) const FULL: Self = Self {
        programs: 4,
        configs: 16,
        t: 48,
        r: 16,
        requests: 256,
        batch: 512,
        reps: 20,
        rounds: 4,
        candidates: 128,
        sims_per_round: 8,
    };
    pub(crate) const SMOKE: Self = Self {
        programs: 2,
        configs: 2,
        t: 4,
        r: 3,
        requests: 8,
        batch: 8,
        reps: 1,
        rounds: 1,
        candidates: 8,
        sims_per_round: 2,
    };
}

/// A workload's inputs as the probes see them. `profiles[i]` is the
/// program of `dataset.benchmarks[i]`.
pub(crate) struct ProbeCtx<'a> {
    pub profiles: &'a [Profile],
    pub dataset: &'a SuiteDataset,
    pub seed: u64,
}

/// Length of the union of `[start, end)` intervals, in seconds.
fn union_secs(intervals: &[(Instant, Instant)]) -> f64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let (mut total, mut cursor) = (Duration::ZERO, None::<Instant>);
    for (a, b) in v {
        let a = cursor.map_or(a, |c| a.max(c));
        if b > a {
            total += b - a;
            cursor = Some(b);
        }
    }
    total.as_secs_f64()
}

/// A [`MetricPredictor`] that records a span and the busy interval of
/// every batched scoring call (calls arrive on worker threads).
pub(crate) struct TimedPredictor<'a> {
    inner: &'a dyn MetricPredictor,
    parent: Option<u64>,
    busy: Mutex<Vec<(Instant, Instant)>>,
}

impl<'a> TimedPredictor<'a> {
    pub fn new(inner: &'a dyn MetricPredictor, parent: Option<u64>) -> Self {
        Self {
            inner,
            parent,
            busy: Mutex::new(Vec::new()),
        }
    }

    /// Wall time during which at least one scoring call ran.
    pub fn busy_secs(&self) -> f64 {
        union_secs(&self.busy.lock().expect("not poisoned"))
    }
}

impl MetricPredictor for TimedPredictor<'_> {
    fn predict(&self, cfg: &Config, metric: Target) -> f64 {
        self.inner.predict(cfg, metric)
    }

    fn predict_batch(&self, cfgs: &[Config], metric: Target, out: &mut [f64]) {
        let _span = child_of("ml.score", self.parent);
        let t0 = Instant::now();
        self.inner.predict_batch(cfgs, metric, out);
        let t1 = Instant::now();
        self.busy.lock().expect("not poisoned").push((t0, t1));
    }
}

/// A [`GroundTruth`] that records a span and the busy interval of every
/// batch of simulations.
pub(crate) struct TimedOracle<'a> {
    inner: &'a dyn GroundTruth,
    parent: Option<u64>,
    busy: Mutex<Vec<(Instant, Instant)>>,
}

impl<'a> TimedOracle<'a> {
    pub fn new(inner: &'a dyn GroundTruth, parent: Option<u64>) -> Self {
        Self {
            inner,
            parent,
            busy: Mutex::new(Vec::new()),
        }
    }

    /// Wall time spent simulating.
    pub fn busy_secs(&self) -> f64 {
        union_secs(&self.busy.lock().expect("not poisoned"))
    }
}

impl GroundTruth for TimedOracle<'_> {
    fn simulate(&self, cfgs: &[Config]) -> Result<Vec<Metrics>, ExploreError> {
        let _span = child_of("sim.oracle", self.parent);
        let t0 = Instant::now();
        let r = self.inner.simulate(cfgs);
        let t1 = Instant::now();
        self.busy.lock().expect("not poisoned").push((t0, t1));
        r
    }
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Runs every probe and returns the per-layer metrics.
pub(crate) fn run(ctx: &ProbeCtx<'_>, sizes: &Sizes, checks: &mut Checks) -> Vec<Metric> {
    let s = &sizes.probe;
    let mut out = Vec::new();
    let traces = workload_probe(ctx, sizes, &mut out);
    ingest_probe(ctx, s, checks, &mut out);
    sim_probe(ctx, sizes, &traces, checks, &mut out);
    ml_probe(ctx, s, checks, &mut out);
    let dir = ScratchDir::new("probe");
    match registry(ctx, s, &dir) {
        Ok(registry) => {
            core_fit_probe(ctx, s, &mut out);
            serve_probe(ctx, s, &registry, checks, &mut out);
            explore_probe(ctx, sizes, &registry, &traces, checks, &mut out);
        }
        Err(e) => checks.check(false, || format!("probe registry: {e}")),
    }
    out
}

/// `workload`: protocol trace generation of every program.
fn workload_probe(ctx: &ProbeCtx<'_>, sizes: &Sizes, out: &mut Vec<Metric>) -> Vec<Trace> {
    let (traces, d) = timed("workload.trace_gen", || {
        ctx.profiles
            .iter()
            .map(|p| sizes.trace(p))
            .collect::<Vec<_>>()
    });
    let instrs = (ctx.profiles.len() * sizes.trace_len) as f64;
    out.push(Metric::new(
        "workload.trace_gen_ns_per_instr",
        ns(d) / instrs,
        "ns",
    ));
    traces
}

/// `ingest`: interchange export then import of every program.
fn ingest_probe(ctx: &ProbeCtx<'_>, s: &ProbeSizes, checks: &mut Checks, out: &mut Vec<Metric>) {
    let mut bytes = 0;
    let (_, d) = timed("ingest.roundtrip", || {
        for rep in 0..s.reps {
            for p in ctx.profiles {
                let text = export_profile(p);
                let back = import_profile(&text).map(|q| export_profile(&q));
                if rep == 0 {
                    bytes += text.len();
                    checks.check(back.as_deref() == Ok(text.as_str()), || {
                        format!("ingest: {} does not round-trip", p.name)
                    });
                }
            }
        }
    });
    let n = (s.reps * ctx.profiles.len()) as f64;
    out.push(Metric::new(
        "ingest.profile_roundtrip_us",
        d.as_secs_f64() * 1e6 / n,
        "us",
    ));
    out.push(Metric::new("ingest.profile_bytes", bytes as f64, "count"));
}

/// `sim` and `core`: a small parallel sweep, then each of its cells
/// simulated alone (host time per instruction and per stepped cycle) and
/// again with stage timing (the host-time share of each pipeline stage).
fn sim_probe(
    ctx: &ProbeCtx<'_>,
    sizes: &Sizes,
    traces: &[Trace],
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) {
    let s = &sizes.probe;
    let n = ctx.profiles.len();
    let k = s.programs.min(n);
    let picked: Vec<usize> = (0..k).map(|i| i * n / k).collect();
    let progs: Vec<Profile> = picked.iter().map(|&i| ctx.profiles[i].clone()).collect();
    let spec = sizes.spec(s.configs, mix(ctx.seed, 20));
    let (ds, wall) = timed("core.dataset.generate", || {
        SuiteDataset::try_generate(&progs, &spec).map_err(|e| e.to_string())
    });
    let ds = match ds {
        Ok(ds) => ds,
        Err(e) => return checks.check(false, || format!("probe sweep: {e}")),
    };
    let options = sizes.options();
    let (mut serial, mut stepped_through) = (Duration::ZERO, 0usize);
    let (mut instructions, mut cycles, mut l2, mut cells) = (0u64, 0u64, 0.0, 0usize);
    let mut prof = StageProf::default();
    for (b, &pi) in picked.iter().enumerate() {
        let bench = &ds.benchmarks[b];
        for c in 0..=ds.n_configs() {
            let (cfg, want) = match ds.configs.get(c) {
                Some(cfg) => (*cfg, bench.metrics[c]),
                None => (Config::baseline(), bench.baseline),
            };
            let ((res, got), d) = timed("sim.simulate", || {
                simulate_detailed(&cfg, &traces[pi], options)
            });
            let ((staged, p), _) = timed("sim.simulate_stage_profiled", || {
                simulate_stage_profiled(&cfg, &traces[pi], options)
            });
            checks.check(got == want && staged == want, || {
                format!(
                    "probe cell {}/{cfg}: sweep {want:?}, alone {got:?}, staged {staged:?}",
                    bench.name
                )
            });
            serial += d;
            stepped_through += traces[pi].len();
            instructions += res.instructions;
            cycles += res.cycles;
            l2 += res.l2_miss_rate;
            cells += 1;
            prof.merge(&p);
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get()) as f64;
    let pct = |ticks: u64| prof.share(ticks) * 100.0;
    let t = prof.ticks;
    out.extend([
        Metric::new(
            "sim.ns_per_instr",
            ns(serial) / stepped_through as f64,
            "ns",
        ),
        Metric::new(
            "sim.ns_per_stepped_cycle",
            ns(serial) / prof.cycles_stepped.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "sim.stepped_pct",
            prof.cycles_stepped as f64 / (prof.cycles_stepped + prof.cycles_idle).max(1) as f64
                * 100.0,
            "%",
        ),
        Metric::new("sim.stage_pct.issue", pct(t.issue), "%"),
        Metric::new("sim.stage_pct.fetch", pct(t.fetch), "%"),
        Metric::new("sim.stage_pct.dispatch", pct(t.dispatch), "%"),
        Metric::new("sim.stage_pct.commit", pct(t.commit), "%"),
        Metric::new("sim.stage_pct.writeback", pct(t.writeback), "%"),
        Metric::new(
            "sim.ipc",
            instructions as f64 / cycles.max(1) as f64,
            "instr/cycle",
        ),
        Metric::new("sim.l2_miss_pct", l2 / cells.max(1) as f64 * 100.0, "%"),
        Metric::new("sim.instructions", instructions as f64, "count"),
        Metric::new("sim.cycles_stepped", prof.cycles_stepped as f64, "count"),
        Metric::new("sim.cycles_idle", prof.cycles_idle as f64, "count"),
        Metric::new(
            "core.dataset.parallel_eff_pct",
            serial.as_secs_f64() / (threads * wall.as_secs_f64()) * 100.0,
            "%",
        ),
    ]);
}

/// `ml`: training one ANN, then its batched and single forward passes.
fn ml_probe(ctx: &ProbeCtx<'_>, s: &ProbeSizes, checks: &mut Checks, out: &mut Vec<Metric>) {
    let ds = ctx.dataset;
    let t = s.t.min(ds.n_configs());
    let xs: Vec<Vec<f64>> = ds.configs[..t]
        .iter()
        .map(|c| c.to_features().to_vec())
        .collect();
    let ys: Vec<f64> = ds.benchmarks[0].values(Target::Cycles)[..t].to_vec();
    let (net, train) = timed("ml.train", || Mlp::train(&xs, &ys, &MlpConfig::default()));
    let rows = ds.n_configs();
    let flat: Vec<f64> = ds.configs.iter().flat_map(|c| c.to_features()).collect();
    let mut batch = vec![0.0; rows];
    let (_, d_batch) = timed("ml.predict_batch", || {
        for _ in 0..s.reps {
            net.predict_batch_into(&flat, rows, &mut batch);
        }
    });
    let mut single = vec![0.0; rows];
    let (_, d_single) = timed("ml.predict", || {
        for _ in 0..s.reps {
            for (o, row) in single.iter_mut().zip(flat.chunks(net.input_dim())) {
                *o = net.predict(row);
            }
        }
    });
    checks.check(
        batch
            .iter()
            .zip(&single)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        || "ml: batched forward differs from the single forward".to_string(),
    );
    let per_row = (s.reps * rows) as f64;
    out.extend([
        Metric::new("ml.train_ms_per_model", train.as_secs_f64() * 1e3, "ms"),
        Metric::new("ml.predict_ns_per_row.batch", ns(d_batch) / per_row, "ns"),
        Metric::new("ml.predict_ns_per_row.single", ns(d_single) / per_row, "ns"),
        Metric::new(
            "ml.macs_per_row",
            (net.input_dim() * net.hidden() + net.hidden()) as f64,
            "count",
        ),
    ]);
}

/// The probe's own artifacts: every dataset program but the last trains
/// the ensemble; the last is fitted online for cycles and energy.
fn registry(ctx: &ProbeCtx<'_>, s: &ProbeSizes, dir: &ScratchDir) -> Result<ModelRegistry, String> {
    let ds = ctx.dataset;
    let nb = ds.benchmarks.len();
    if nb < 2 {
        return Err("the dataset needs at least two programs".to_string());
    }
    let train = SuiteDataset {
        spec: ds.spec,
        configs: ds.configs.clone(),
        benchmarks: ds.benchmarks[..nb - 1].to_vec(),
    };
    let t = s.t.min(ds.n_configs());
    let (saved, _) = timed("serve.save_artifacts", || {
        save_artifacts(
            &dir.0,
            &train,
            &[Target::Cycles, Target::Energy],
            t,
            &MlpConfig::default(),
            mix(ctx.seed, 21),
        )
    });
    saved.map_err(|e| e.to_string())?;
    let registry = ModelRegistry::open(&dir.0).map_err(|e| e.to_string())?;
    let target = &ds.benchmarks[nb - 1];
    for metric in [Target::Cycles, Target::Energy] {
        let responses: Vec<(usize, f64)> = (0..s.r.min(ds.n_configs()))
            .map(|i| (i, target.metrics[i].get(metric)))
            .collect();
        registry
            .fit(&target.name, metric, &responses)
            .map_err(|e| e.to_string())?;
    }
    Ok(registry)
}

/// `core`: the online response fit (the paper's equation 5).
fn core_fit_probe(ctx: &ProbeCtx<'_>, s: &ProbeSizes, out: &mut Vec<Metric>) {
    let ds = ctx.dataset;
    let nb = ds.benchmarks.len();
    let idx = Xoshiro256::seed_from(mix(ctx.seed, 22))
        .sample_indices(ds.n_configs(), s.r.min(ds.n_configs()));
    let rows: Vec<Vec<f64>> = idx
        .iter()
        .map(|&i| {
            ds.benchmarks[..nb - 1]
                .iter()
                .map(|b| b.metrics[i].cycles)
                .collect()
        })
        .collect();
    let values: Vec<f64> = idx
        .iter()
        .map(|&i| ds.benchmarks[nb - 1].metrics[i].cycles)
        .collect();
    let (_, d) = timed("core.fit_combiner", || {
        for _ in 0..s.reps {
            std::hint::black_box(fit_combiner(&rows, &values));
        }
    });
    out.push(Metric::new(
        "core.fit_us",
        d.as_secs_f64() * 1e6 / s.reps as f64,
        "us",
    ));
}

/// `serve`: requests replayed through the server's building blocks —
/// HTTP parsing, JSON decoding, the prediction cache, the registry and
/// response encoding — without sockets or threads.
fn serve_probe(
    ctx: &ProbeCtx<'_>,
    s: &ProbeSizes,
    registry: &ModelRegistry,
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) {
    let ds = ctx.dataset;
    let program = ds.benchmarks[ds.benchmarks.len() - 1].name.as_str();
    let cfgs: Vec<Config> = (0..s.requests)
        .map(|i| ds.configs[i % ds.n_configs()])
        .collect();
    let raw: Vec<String> = cfgs
        .iter()
        .map(|c| {
            let body = json::to_string(&Json::obj([
                ("program", program.to_json()),
                ("metric", Target::Cycles.to_json()),
                ("config", c.to_json()),
            ]));
            format!(
                "POST /v1/predict HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    let per_req = (s.reps * s.requests) as f64;

    let mut bodies = Vec::new();
    let (_, d_parse) = timed("serve.http_parse", || {
        for rep in 0..s.reps {
            for r in &raw {
                match try_parse(r.as_bytes(), DEFAULT_MAX_BODY_BYTES) {
                    Ok(Parsed::Complete { req, .. }) if rep == 0 => bodies.push(req.body),
                    Ok(Parsed::Complete { .. }) => {}
                    _ => bodies.clear(),
                }
            }
        }
    });
    checks.check(bodies.len() == s.requests, || {
        "serve: replayed requests did not parse".to_string()
    });

    let decode = |body: &[u8]| -> Option<(String, Target, Config)> {
        let v = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
        Some((
            v.get("program").ok()?,
            v.get("metric").ok()?,
            v.get("config").ok()?,
        ))
    };
    let mut decoded = Vec::new();
    let (_, d_decode) = timed("serve.json_decode", || {
        for rep in 0..s.reps {
            for b in &bodies {
                let d = decode(b);
                if rep == 0 {
                    decoded.extend(d);
                }
            }
        }
    });
    checks.check(
        decoded.len() == s.requests && decoded.iter().zip(&cfgs).all(|(d, c)| d.2 == *c),
        || "serve: decoded configurations differ from the sent ones".to_string(),
    );

    let key = |c: &Config| CacheKey {
        program: program.to_string(),
        metric: Target::Cycles,
        config: c.to_indices().map(|i| i as u64),
    };
    let cache = PredictionCache::new(8, 4096);
    let (_, d_cache) = timed("serve.cache_get", || {
        for _ in 0..s.reps {
            cache.clear();
            for c in &cfgs {
                if cache.get(&key(c)).is_none() {
                    cache.insert(key(c), 1.0);
                }
            }
        }
    });

    let mut values = Vec::new();
    let (_, d_predict) = timed("serve.registry_predict", || {
        for rep in 0..s.reps {
            for c in &cfgs {
                let v = registry.predict(program, Target::Cycles, c);
                if rep == 0 {
                    values.push(v.ok());
                }
            }
        }
    });
    let (_, d_encode) = timed("serve.json_encode", || {
        for _ in 0..s.reps {
            for v in &values {
                std::hint::black_box(json::to_string(&Json::obj([
                    ("program", program.to_json()),
                    ("metric", Target::Cycles.to_json()),
                    ("value", v.unwrap_or(0.0).to_json()),
                    ("cached", false.to_json()),
                ])));
            }
        }
    });
    out.extend([
        Metric::new("serve.http_parse_ns", ns(d_parse) / per_req, "ns"),
        Metric::new("serve.json_decode_ns", ns(d_decode) / per_req, "ns"),
        Metric::new("serve.cache_get_ns", ns(d_cache) / per_req, "ns"),
        Metric::new("serve.registry_predict_ns", ns(d_predict) / per_req, "ns"),
        Metric::new("serve.json_encode_ns", ns(d_encode) / per_req, "ns"),
    ]);

    // One batch: decode, one forward over every row, encode.
    let batch: Vec<Config> = (0..s.batch)
        .map(|i| ds.configs[i % ds.n_configs()])
        .collect();
    let body = json::to_string(&Json::obj([
        ("program", program.to_json()),
        ("metric", Target::Cycles.to_json()),
        ("configs", batch.to_json()),
    ]));
    let (parsed, d_bdecode) = timed("serve.batch_decode", || {
        Json::parse(&body).and_then(|v| Vec::<Config>::from_json(v.field("configs")?))
    });
    checks.check(parsed.as_ref() == Ok(&batch), || {
        "serve: the replayed batch did not decode".to_string()
    });
    let Ok((artifact, reg)) = registry.predictor(program, Target::Cycles) else {
        return checks.check(false, || "serve: probe program not fitted".to_string());
    };
    let flat: Vec<f64> = batch.iter().flat_map(|c| c.to_features()).collect();
    let mut forward = vec![0.0; batch.len()];
    let (_, d_forward) = timed("serve.batch_forward", || {
        artifact
            .offline
            .predict_with_batch_into(&reg, &flat, batch.len(), &mut forward)
    });
    checks.check(
        forward.iter().zip(&batch).all(|(v, c)| {
            registry
                .predict(program, Target::Cycles, c)
                .map(f64::to_bits)
                == Ok(v.to_bits())
        }),
        || "serve: the batched forward differs from ModelRegistry::predict".to_string(),
    );
    let (encoded, d_bencode) = timed("serve.batch_encode", || {
        json::to_string(&Json::obj([
            ("program", program.to_json()),
            ("metric", Target::Cycles.to_json()),
            ("values", forward.to_json()),
            ("computed", batch.len().to_json()),
        ]))
    });
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    out.extend([
        Metric::new("serve.batch_decode_ms", ms(d_bdecode), "ms"),
        Metric::new("serve.batch_forward_ms", ms(d_forward), "ms"),
        Metric::new("serve.batch_encode_ms", ms(d_bencode), "ms"),
        Metric::new("serve.batch_body_bytes", encoded.len() as f64, "count"),
    ]);
}

/// `explore`: a small frontier search for the probe's fitted program,
/// split into response simulations, ANN scoring, ground-truth simulation
/// and the explorer's own work (candidates, ranking, archive).
fn explore_probe(
    ctx: &ProbeCtx<'_>,
    sizes: &Sizes,
    registry: &ModelRegistry,
    traces: &[Trace],
    checks: &mut Checks,
    out: &mut Vec<Metric>,
) {
    let s = &sizes.probe;
    let ds = ctx.dataset;
    let nb = ds.benchmarks.len();
    let program = ds.benchmarks[nb - 1].name.as_str();
    let sim = SimOracle::new(traces[nb - 1].clone(), sizes.options());
    let cfgs: Vec<Config> = ds.configs[..s.r.min(ds.n_configs())].to_vec();
    let (responses, d_response) = timed("sim.responses", || sim.simulate(&cfgs));
    checks.check(responses.is_ok(), || {
        "explore probe: response simulations failed".to_string()
    });
    let predictor =
        match RegistryPredictor::resolve(registry, program, &[Target::Cycles, Target::Energy]) {
            Ok(p) => p,
            Err(e) => return checks.check(false, || format!("explore probe: {e}")),
        };
    let run = crate::spans::span("explore.run");
    let scorer = TimedPredictor::new(&predictor, run.id());
    let oracle = TimedOracle::new(&sim, run.id());
    let t0 = Instant::now();
    let frontier = Explorer {
        predictor: &scorer,
        oracle: &oracle,
        program: program.to_string(),
        objective: Objective::parse("cycles,energy").expect("objective parses"),
        constraints: Constraints::none(),
        budget: ExploreBudget {
            rounds: s.rounds,
            candidates_per_round: s.candidates,
            sims_per_round: s.sims_per_round,
            archive_cap: 16,
            seed: mix(ctx.seed, 23),
        },
        pool: None,
    }
    .run();
    let explore = t0.elapsed().as_secs_f64();
    drop(run);
    let frontier = match frontier {
        Ok(f) => f,
        Err(e) => return checks.check(false, || format!("explore probe: {e}")),
    };
    let response = d_response.as_secs_f64();
    let total = response + explore;
    let (score, simulate) = (scorer.busy_secs(), oracle.busy_secs());
    let pct = |x: f64| x / total * 100.0;
    out.extend([
        Metric::new("explore.response_pct", pct(response), "%"),
        Metric::new("explore.score_pct", pct(score), "%"),
        Metric::new("explore.oracle_pct", pct(simulate), "%"),
        Metric::new("explore.self_pct", pct(explore - score - simulate), "%"),
        Metric::new(
            "explore.oracle_ms_per_sim",
            simulate * 1e3 / frontier.sim_calls.max(1) as f64,
            "ms",
        ),
        Metric::new(
            "explore.candidates_scored",
            frontier.rounds.iter().map(|r| r.scored).sum::<usize>() as f64,
            "count",
        ),
        Metric::new("explore.sims", frontier.sim_calls as f64, "count"),
    ]);
}
