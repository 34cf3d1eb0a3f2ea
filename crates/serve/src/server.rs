//! The prediction server: event-loop front end, worker pool, routing,
//! handlers.
//!
//! The front end is a small set of nonblocking reactor threads (see
//! [`crate::eventloop`]): reactors own sockets and incremental parsing,
//! and hand each connection's complete requests to a *session* job on a
//! fixed [`WorkerPool`](dse_util::WorkerPool). A session occupies its
//! worker for the connection's whole keep-alive lifetime, so `workers`
//! bounds concurrently served connections and the pool's queue depth
//! bounds the session backlog — when both are full the reactor sheds
//! load with `503` instead of queueing unboundedly, exactly as the old
//! thread-per-connection acceptor did.
//!
//! Shutdown is graceful: [`Server::shutdown`] raises a flag and wakes
//! every reactor through its self-pipe; reactors stop accepting, close
//! idle connections, let in-flight requests finish with
//! `Connection: close`, and drain. [`Server::wait`] joins everything.

use crate::cache::PredictionCache;
use crate::decode::{self, Target};
use crate::eventloop::{Reactor, ReactorShared};
use crate::http::{Request, Response};
use crate::jobs::{protocol, JobManager, RegistryPredictor, SubmitRejected};
use crate::registry::{ModelRegistry, RegistryError};
use crate::telemetry::{Phase, PhaseClock, Telemetry};
use dse_explore::{Command, Constraints, ExploreBudget, Explorer, Objective, SimOracle};
use dse_ingest::{IngestError, WorkloadStore};
use dse_sim::Metric;
use dse_util::json::{FromJson, Json, ToJson};
use dse_util::WorkerPool;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads — the bound on concurrently served connections.
    pub workers: usize,
    /// Accept backlog: connections queued beyond the busy workers.
    pub backlog: usize,
    /// Per-request cap on body size in bytes.
    pub max_body: usize,
    /// Socket read timeout (bounds how long an idle keep-alive connection
    /// occupies a worker).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Prediction-cache shard count.
    pub cache_shards: usize,
    /// Prediction-cache total capacity (entries).
    pub cache_capacity: usize,
    /// Cap on queued-or-running explore jobs (`POST /v1/explore` answers
    /// 429 beyond it). Keep this below `workers`: a running job occupies
    /// a worker, and polling needs at least one free.
    pub max_explore_jobs: usize,
    /// Reactor (event-loop) threads. Reactor 0 also owns the listener;
    /// connections round-robin across all of them. More than a few is
    /// pointless — reactors only shuffle bytes, workers do the thinking.
    pub reactors: usize,
    /// Directory of an imported-workload store (`dse_ingest`). When set,
    /// `GET/POST /v1/workloads` persist there and imported programs are
    /// resolvable by explore jobs; when `None`, listing still works
    /// (built-ins only) and imports answer 409.
    pub workloads_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            backlog: 64,
            max_body: crate::http::DEFAULT_MAX_BODY_BYTES,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            cache_shards: 8,
            cache_capacity: 4096,
            max_explore_jobs: 2,
            reactors: 2,
            workloads_dir: None,
        }
    }
}

/// Shared server state: everything a request handler needs.
pub(crate) struct State {
    pub(crate) registry: Arc<ModelRegistry>,
    /// Imported-workload store; `None` when the server runs without one.
    pub(crate) workloads: Option<Arc<WorkloadStore>>,
    pub(crate) cache: PredictionCache,
    pub(crate) telemetry: Telemetry,
    pub(crate) jobs: JobManager,
    /// The server's own worker pool; sessions and explore jobs are
    /// scheduled onto it so one knob bounds all concurrency.
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    pub(crate) max_body: usize,
    /// Wake handles for the reactor threads, set once at startup; used
    /// by shutdown (both the method and `POST /v1/shutdown`).
    pub(crate) reactors: OnceLock<Vec<Arc<ReactorShared>>>,
}

impl State {
    /// Wakes every reactor so it observes the shutdown flag.
    pub(crate) fn wake_reactors(&self) {
        if let Some(shareds) = self.reactors.get() {
            for shared in shareds {
                shared.wake();
            }
        }
    }
}

/// A running prediction server.
pub struct Server {
    state: Arc<State>,
    pool: Arc<WorkerPool>,
    reactors: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and reactor threads, and returns
    /// immediately; the server runs until [`Server::shutdown`] (or a
    /// `POST /v1/shutdown`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures and reactor setup failures (an
    /// `epoll_create1` or `epoll_ctl` error names the call).
    pub fn start(registry: Arc<ModelRegistry>, cfg: &ServerConfig) -> io::Result<Self> {
        // `kill -USR1` dumps the flight recorder from a live server.
        crate::eventloop::install_flight_dump_signal();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workloads = match &cfg.workloads_dir {
            Some(dir) => Some(Arc::new(
                WorkloadStore::open(dir).map_err(io::Error::other)?,
            )),
            None => None,
        };
        let pool = Arc::new(WorkerPool::new("dse-serve", cfg.workers, cfg.backlog));
        let state = Arc::new(State {
            registry,
            workloads,
            cache: PredictionCache::new(cfg.cache_shards, cfg.cache_capacity),
            telemetry: Telemetry::new(),
            jobs: JobManager::new(cfg.max_explore_jobs),
            pool: pool.clone(),
            shutdown: AtomicBool::new(false),
            addr,
            max_body: cfg.max_body,
            reactors: OnceLock::new(),
        });
        let n_reactors = cfg.reactors.max(1);
        let mut shareds = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            shareds.push(ReactorShared::new()?);
        }
        let _ = state.reactors.set(shareds.clone());
        let next_rr = Arc::new(AtomicUsize::new(0));
        let mut listener = Some(listener);
        // Every epoll set is created before any reactor thread starts, so
        // a failure returns with no thread left running.
        let mut reactors = Vec::with_capacity(n_reactors);
        for idx in 0..n_reactors {
            reactors.push(Reactor::new(
                idx,
                state.clone(),
                shareds[idx].clone(),
                shareds.clone(),
                next_rr.clone(),
                if idx == 0 { listener.take() } else { None },
                cfg.read_timeout,
                cfg.write_timeout,
            )?);
        }
        let mut handles = Vec::with_capacity(n_reactors);
        for (idx, reactor) in reactors.into_iter().enumerate() {
            handles.push(
                std::thread::Builder::new()
                    .name(format!("dse-serve-reactor-{idx}"))
                    .spawn(move || reactor.run())?,
            );
        }
        Ok(Self {
            state,
            pool,
            reactors: handles,
        })
    }

    /// The bound address (reports the real port after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Request telemetry (exposed for tests and embedding).
    pub fn telemetry(&self) -> &Telemetry {
        &self.state.telemetry
    }

    /// The prediction cache (exposed for tests and embedding).
    pub fn cache(&self) -> &PredictionCache {
        &self.state.cache
    }

    /// Number of imported workloads, or `None` when the server runs
    /// without a workload store.
    pub fn workload_count(&self) -> Option<usize> {
        self.state.workloads.as_ref().map(|w| w.len())
    }

    /// Signals shutdown and wakes every reactor; returns without waiting.
    pub fn shutdown(&self) {
        if !self.state.shutdown.swap(true, Ordering::SeqCst) {
            self.state.wake_reactors();
        }
    }

    /// Blocks until every reactor has drained its connections and every
    /// worker has exited, then joins them. Call [`Server::shutdown`] (or
    /// hit `POST /v1/shutdown`) to make this return.
    pub fn wait(mut self) {
        self.join();
    }

    /// Shuts down and waits — the one-call stop for tests and CLI exit.
    pub fn stop(self) {
        self.shutdown();
        self.wait();
    }

    fn join(&mut self) {
        if self.reactors.is_empty() {
            return;
        }
        // Reactors first: draining tears down every connection, which
        // drops the session Senders and releases the workers blocked in
        // `recv` — only then can the pool join cleanly.
        for handle in self.reactors.drain(..) {
            let _ = handle.join();
        }
        self.pool.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// Dispatches one request; returns the telemetry label and the response.
/// Called from session workers (see [`crate::eventloop`]).
pub(crate) fn route(state: &Arc<State>, req: &Request) -> (&'static str, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("/healthz", healthz(state)),
        ("GET", "/metrics") => ("/metrics", metrics(state)),
        ("GET", "/v1/models") => ("/v1/models", models(state)),
        ("GET", "/v1/configs") => ("/v1/configs", configs(state, req)),
        ("POST", "/v1/predict") => ("/v1/predict", predict(state, req)),
        ("POST", "/v1/predict_batch") => ("/v1/predict_batch", predict_batch(state, req)),
        ("POST", "/v1/fit") => ("/v1/fit", fit(state, req)),
        ("POST", "/v1/reload") => ("/v1/reload", reload(state)),
        ("POST", "/v1/shutdown") => ("/v1/shutdown", shutdown_route(state)),
        ("GET", "/v1/workloads") => ("/v1/workloads", workloads_list(state)),
        ("POST", "/v1/workloads") => ("/v1/workloads", workloads_add(state, req)),
        ("GET", "/v1/obs/flight") => ("/v1/obs/flight", obs_flight(req)),
        ("POST", "/v1/explore") => ("/v1/explore", explore_submit(state, req)),
        ("GET", "/v1/explore") => ("/v1/explore", explore_list(state)),
        (method, path) if path.starts_with("/v1/explore/") => {
            let id = &path["/v1/explore/".len()..];
            match method {
                "GET" => ("/v1/explore/:id", explore_status(state, id)),
                "DELETE" => ("/v1/explore/:id", explore_cancel(state, id)),
                _ => (
                    "method_not_allowed",
                    Response::error(405, &format!("{} not allowed here", req.method)),
                ),
            }
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/models" | "/v1/configs" | "/v1/predict"
            | "/v1/predict_batch" | "/v1/fit" | "/v1/reload" | "/v1/shutdown" | "/v1/explore"
            | "/v1/workloads" | "/v1/obs/flight",
        ) => (
            "method_not_allowed",
            Response::error(405, &format!("{} not allowed here", req.method)),
        ),
        _ => ("not_found", Response::error(404, "no such route")),
    }
}

fn ingest_error(err: &IngestError) -> Response {
    let status = match err {
        IngestError::Parse(_) => 400,
        IngestError::Invalid(_) => 422,
        IngestError::Duplicate(_) => 409,
        IngestError::TooLarge { .. } => 413,
        IngestError::Io(_) => 500,
    };
    Response::error(status, &err.to_string())
}

/// `GET /v1/workloads`: built-in benchmarks plus stored imports, through
/// the same canonical enumeration the `workload list` CLI uses
/// ([`dse_workload::catalog`]).
fn workloads_list(state: &State) -> Response {
    let extra = state
        .workloads
        .as_ref()
        .map(|w| w.profiles())
        .unwrap_or_default();
    let entries = dse_workload::catalog(&extra);
    let body = Json::obj([
        ("total", entries.len().to_json()),
        ("imported", extra.len().to_json()),
        (
            "workloads",
            Json::Arr(entries.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    Response::json(200, dse_util::json::to_string(&body))
}

/// `POST /v1/workloads`: body is a raw interchange document
/// ([`dse_ingest::import_profile`]); on success the profile is persisted
/// to the store and immediately resolvable by explore jobs.
fn workloads_add(state: &State, req: &Request) -> Response {
    let Some(store) = state.workloads.as_ref() else {
        return Response::error(
            409,
            "server started without --workloads; restart with a workload store to import",
        );
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body is not valid UTF-8");
    };
    let profile = match dse_ingest::import_profile(text) {
        Ok(p) => p,
        Err(e) => return ingest_error(&e),
    };
    match store.add(&profile) {
        Ok(()) => {
            dse_obs::flight::event(
                "ingest.import",
                format!("{} ({})", profile.name, profile.suite),
            );
            let out = Json::obj([
                ("name", profile.name.to_json()),
                ("suite", profile.suite.to_json()),
                ("workloads", store.len().to_json()),
            ]);
            Response::json(201, dse_util::json::to_string(&out))
        }
        Err(e) => ingest_error(&e),
    }
}

fn registry_error(err: &RegistryError) -> Response {
    let status = match err {
        RegistryError::UnknownMetric(_) | RegistryError::NotFitted { .. } => 404,
        RegistryError::BadRequest(_) => 422,
        RegistryError::Io(_) | RegistryError::Parse(_) => 500,
    };
    Response::error(status, &err.to_string())
}

fn healthz(state: &State) -> Response {
    let body = Json::obj([
        ("status", "ok".to_json()),
        ("models", state.registry.metrics().len().to_json()),
        ("fitted", state.registry.fitted().len().to_json()),
    ]);
    Response::json(200, dse_util::json::to_string(&body))
}

/// `GET /v1/obs/flight`: the flight recorder's retained events as JSONL,
/// newest last. `?request=<id>` filters to one request's chain — the
/// usual follow-up to an `x-archdse-request-id` header from a slow or
/// failed response.
fn obs_flight(req: &Request) -> Response {
    let events = match req.query_param("request") {
        Some(text) => match text.parse::<u64>() {
            Ok(id) => dse_obs::flight::dump_for(id),
            Err(_) => return Response::error(400, &format!("request id {text:?} is not a number")),
        },
        None => dse_obs::flight::dump(),
    };
    Response::text(200, dse_obs::flight::to_jsonl(&events))
}

fn metrics(state: &State) -> Response {
    let mut body =
        state
            .telemetry
            .exposition(state.cache.hits(), state.cache.misses(), state.cache.len());
    // Workspace-wide metrics (simulator runs, dataset sweeps, MLP fits,
    // …) share the exposition: anything any crate registered in the
    // process-wide registry appears alongside the server's own series.
    body.push_str(&dse_obs::registry::global().prometheus());
    Response::text(200, body)
}

fn models(state: &State) -> Response {
    let loaded: Vec<Json> = state
        .registry
        .metrics()
        .into_iter()
        .filter_map(|m| state.registry.artifact(m))
        .map(|a| {
            Json::obj([
                ("metric", a.metric.to_json()),
                ("programs", a.programs().to_json()),
                ("configs", a.configs.len().to_json()),
            ])
        })
        .collect();
    let fitted: Vec<Json> = state
        .registry
        .fitted()
        .into_iter()
        .map(|(program, metric)| {
            Json::obj([("program", program.to_json()), ("metric", metric.to_json())])
        })
        .collect();
    let body = Json::obj([("models", Json::Arr(loaded)), ("fitted", Json::Arr(fitted))]);
    Response::json(200, dse_util::json::to_string(&body))
}

/// Accepts both the variant spelling (`Cycles`) and the display spelling
/// (`cycles`, `ED`), case-insensitively.
fn metric_from_str(text: &str) -> Option<Metric> {
    Metric::ALL.iter().copied().find(|m| {
        format!("{m:?}").eq_ignore_ascii_case(text) || m.to_string().eq_ignore_ascii_case(text)
    })
}

fn configs(state: &State, req: &Request) -> Response {
    let metric = match req.query_param("metric") {
        Some(text) => match metric_from_str(text) {
            Some(m) => m,
            None => return Response::error(422, &format!("unknown metric {text:?}")),
        },
        None => match state.registry.metrics().first() {
            Some(&m) => m,
            None => return Response::error(500, "no models loaded"),
        },
    };
    let Some(artifact) = state.registry.artifact(metric) else {
        return registry_error(&RegistryError::UnknownMetric(metric));
    };
    let limit = req
        .query_param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .min(artifact.configs.len());
    let rows: Vec<Json> = artifact.configs[..limit]
        .iter()
        .enumerate()
        .map(|(i, cfg)| Json::obj([("index", i.to_json()), ("config", cfg.to_json())]))
        .collect();
    let body = Json::obj([
        ("metric", metric.to_json()),
        ("total", artifact.configs.len().to_json()),
        ("configs", Json::Arr(rows)),
    ]);
    Response::json(200, dse_util::json::to_string(&body))
}

/// Parses the `{program, metric}` pair shared by the prediction and fit
/// request bodies.
fn parse_target(body: &Json) -> Result<(String, Metric), Response> {
    let program = body
        .field("program")
        .and_then(String::from_json)
        .map_err(|e| Response::error(400, &format!("program: {e}")))?;
    let metric = body
        .field("metric")
        .and_then(Metric::from_json)
        .map_err(|e| Response::error(400, &format!("metric: {e}")))?;
    Ok((program, metric))
}

fn body_text(req: &Request) -> Result<&str, Response> {
    std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not valid UTF-8"))
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    Json::parse(body_text(req)?).map_err(|e| Response::error(400, &format!("body: {e}")))
}

fn predict(state: &State, req: &Request) -> Response {
    let mut clock = PhaseClock::start();
    let decoded = body_text(req).and_then(|text| decode::single(text).map_err(|r| r.response()));
    let Target {
        program,
        metric,
        configs: config,
    } = match decoded {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    clock.charge(Phase::Decode);
    let key = config.to_indices().map(|i| i as u64);
    let mut prefix = state.cache.prefix(&program, metric);
    let hit = state.cache.get_in(&prefix, &key);
    clock.charge(Phase::Cache);
    let (value, cached) = match hit {
        Some(v) => {
            dse_obs::flight::event("cache.hit", format!("{program} {metric}"));
            (v, true)
        }
        None => {
            dse_obs::flight::event("cache.miss", format!("{program} {metric}"));
            match state.registry.predict(&program, metric, &config) {
                Ok(v) => {
                    dse_obs::flight::event("registry.predict", format!("{program} {metric}"));
                    clock.charge(Phase::Forward);
                    state.cache.insert_in(&mut prefix, &key, v);
                    clock.charge(Phase::Cache);
                    (v, false)
                }
                Err(e) => {
                    dse_obs::flight::event("registry.error", e.to_string());
                    return registry_error(&e);
                }
            }
        }
    };
    let out = Json::obj([
        ("program", program.to_json()),
        ("metric", metric.to_json()),
        ("value", value.to_json()),
        ("cached", cached.to_json()),
    ]);
    let resp = Response::json(200, dse_util::json::to_string(&out));
    clock.charge(Phase::Encode);
    state.telemetry.record_phases("/v1/predict", &clock);
    resp
}

fn predict_batch(state: &State, req: &Request) -> Response {
    let mut clock = PhaseClock::start();
    let decoded = body_text(req).and_then(|text| decode::batch(text).map_err(|r| r.response()));
    let Target {
        program,
        metric,
        configs,
    } = match decoded {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    if configs.is_empty() {
        return Response::error(422, "configs must not be empty");
    }
    clock.charge(Phase::Decode);
    // Taken before the combiner is read: a refit racing this request
    // makes the cache drop its inserts rather than keep stale values.
    let mut prefix = state.cache.prefix(&program, metric);
    clock.charge(Phase::Cache);
    let (artifact, reg) = match state.registry.predictor(&program, metric) {
        Ok(p) => p,
        Err(e) => return registry_error(&e),
    };
    clock.charge(Phase::Forward);
    // Serve cache hits first, then push all misses through one batched
    // matrix-matrix forward (bit-identical per row to the scalar path).
    let keys: Vec<[u64; 13]> = configs
        .iter()
        .map(|c| c.to_indices().map(|i| i as u64))
        .collect();
    let mut values: Vec<Option<f64>> = keys
        .iter()
        .map(|k| state.cache.get_in(&prefix, k))
        .collect();
    let missing: Vec<usize> = (0..configs.len())
        .filter(|&i| values[i].is_none())
        .collect();
    clock.charge(Phase::Cache);
    if !missing.is_empty() {
        let mut flat = Vec::new();
        for &i in &missing {
            flat.extend_from_slice(&configs[i].to_features());
        }
        let mut computed = vec![0.0; missing.len()];
        artifact
            .offline
            .predict_with_batch_into(&reg, &flat, missing.len(), &mut computed);
        clock.charge(Phase::Forward);
        for (&i, &v) in missing.iter().zip(computed.iter()) {
            state.cache.insert_in(&mut prefix, &keys[i], v);
            values[i] = Some(v);
        }
        clock.charge(Phase::Cache);
    }
    let out = Json::obj([
        ("program", program.to_json()),
        ("metric", metric.to_json()),
        (
            "values",
            Json::Arr(values.iter().map(|v| v.unwrap().to_json()).collect()),
        ),
        ("computed", missing.len().to_json()),
    ]);
    let resp = Response::json(200, dse_util::json::to_string(&out));
    clock.charge(Phase::Encode);
    state.telemetry.record_phases("/v1/predict_batch", &clock);
    resp
}

fn fit(state: &State, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let (program, metric) = match parse_target(&body) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let entries = match body.field("responses").and_then(|v| v.as_array()) {
        Ok(a) => a,
        Err(e) => return Response::error(400, &format!("responses: {e}")),
    };
    let mut responses = Vec::with_capacity(entries.len());
    for entry in entries {
        let index = match entry.field("index").and_then(usize::from_json) {
            Ok(i) => i,
            Err(e) => return Response::error(400, &format!("responses[].index: {e}")),
        };
        let value = match entry.field("value").and_then(f64::from_json) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("responses[].value: {e}")),
        };
        responses.push((index, value));
    }
    match state.registry.fit(&program, metric, &responses) {
        Ok(summary) => {
            // The combiner changed: cached predictions for this pair are
            // stale now.
            state.cache.invalidate(&program, metric);
            let out = Json::obj([
                ("program", summary.program.to_json()),
                ("metric", summary.metric.to_json()),
                ("responses", summary.responses.to_json()),
                ("weights", summary.weights.to_json()),
                ("intercept", summary.intercept.to_json()),
                ("training_rmae", summary.training_rmae.to_json()),
            ]);
            Response::json(200, dse_util::json::to_string(&out))
        }
        Err(e) => registry_error(&e),
    }
}

fn reload(state: &State) -> Response {
    match state.registry.reload() {
        Ok(n) => {
            // The workload store reloads under the same verb and the
            // same keep-on-error discipline as the model artifacts.
            let workloads = match state.workloads.as_ref().map(|w| w.reload()).transpose() {
                Ok(w) => w,
                Err(e) => return ingest_error(&e),
            };
            state.cache.clear();
            let mut fields = vec![
                ("status".to_string(), "reloaded".to_json()),
                ("models".to_string(), n.to_json()),
            ];
            if let Some(w) = workloads {
                fields.push(("workloads".to_string(), w.to_json()));
            }
            Response::json(200, dse_util::json::to_string(&Json::Obj(fields)))
        }
        Err(e) => registry_error(&e),
    }
}

/// The JSON body shared by every job-status response.
fn job_body(job: &crate::jobs::ExploreJob) -> Json {
    let snap = job.snapshot();
    let mut fields = vec![
        ("id".to_string(), job.id.to_json()),
        ("status".to_string(), snap.state.as_str().to_json()),
        ("rounds_done".to_string(), snap.rounds_done.to_json()),
        ("rounds_total".to_string(), snap.rounds_total.to_json()),
    ];
    match &snap.frontier {
        Some(f) => fields.push(("frontier".to_string(), f.to_json())),
        None => fields.push(("frontier".to_string(), Json::Null)),
    }
    if let Some(e) = &snap.error {
        fields.push(("error".to_string(), e.to_json()));
    }
    Json::Obj(fields)
}

/// `POST /v1/explore`: validate, register a job, schedule the loop on
/// the worker pool, answer `202` with the job id.
fn explore_submit(state: &Arc<State>, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let program = match body.field("program").and_then(String::from_json) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &format!("program: {e}")),
    };
    let objective = match body.field("objective").and_then(Objective::from_json) {
        Ok(o) => o,
        Err(e) => return Response::error(400, &format!("objective: {e}")),
    };
    let constraints = match body.field("constraints") {
        Ok(v) => match Constraints::from_json(v) {
            Ok(c) => c,
            Err(e) => return Response::error(400, &format!("constraints: {e}")),
        },
        Err(_) => Constraints::none(),
    };
    let budget = match body.field("budget") {
        Ok(v) => match ExploreBudget::from_json(v) {
            Ok(b) => b,
            Err(e) => return Response::error(400, &format!("budget: {e}")),
        },
        Err(_) => ExploreBudget::default(),
    };
    // Built-ins first, then the imported-workload store — explore jobs
    // accept any program the server can build a protocol trace for.
    let Some(profile) = dse_workload::suites::all_benchmarks()
        .into_iter()
        .find(|p| p.name == program)
        .or_else(|| state.workloads.as_ref().and_then(|w| w.find(&program)))
    else {
        return Response::error(404, &format!("unknown benchmark '{program}'"));
    };
    // Pin the cheap oracle now: a later /v1/fit or reload must not shift
    // a running job, and an unfitted program should 404 at submit.
    let predictor =
        match RegistryPredictor::resolve(&state.registry, &program, &objective.metrics()) {
            Ok(p) => p,
            Err(e) => return registry_error(&e),
        };
    let job = match state.jobs.submit(budget.rounds) {
        Ok(j) => j,
        Err(SubmitRejected::TooManyJobs) => {
            return Response::error(429, "too many explore jobs, retry later")
        }
    };
    let id = job.id.clone();
    let run_state = state.clone();
    let run_job = job.clone();
    // The job outlives this request, but its rounds stay attributable:
    // the worker running it adopts the submitting request's id, so the
    // flight recorder links `POST /v1/explore` to every round it caused.
    let submit_req = dse_obs::flight::Context::current().request;
    dse_obs::flight::event("explore.submit", format!("job={id} program={program}"));
    let run = Box::new(move || {
        let _trace_scope = dse_obs::flight::scope(submit_req);
        run_job.mark_running();
        let trace = protocol::trace(&profile);
        let oracle = SimOracle::new(trace, protocol::options());
        let explorer = Explorer {
            predictor: &predictor,
            oracle: &oracle,
            program: profile.name.to_string(),
            objective,
            constraints,
            budget,
            pool: None,
        };
        let mut round_started = Instant::now();
        let mut sims_before = 0u64;
        let result = explorer.run_with(|status| {
            run_job.update(status);
            // Per-round gauges (last-round sims / duration / archive
            // size); the round itself reaches the flight recorder as the
            // library's `explore.round` span, under the job's request id.
            let round_us = round_started.elapsed().as_micros() as u64;
            let sims = status.frontier.sim_calls - sims_before;
            let archive = status.frontier.points.len();
            dse_obs::registry::gauge("dse_explore_round_sims").set(sims as f64);
            dse_obs::registry::gauge("dse_explore_round_duration_us").set(round_us as f64);
            dse_obs::registry::gauge("dse_explore_archive_size").set(archive as f64);
            round_started = Instant::now();
            sims_before = status.frontier.sim_calls;
            // Graceful drain: a shutting-down server cancels in-flight
            // jobs at the next round boundary instead of holding the
            // pool for the full budget.
            if run_job.cancel_requested() || run_state.shutdown.load(Ordering::SeqCst) {
                Command::Cancel
            } else {
                Command::Continue
            }
        });
        match result {
            Ok(frontier) => run_job.finish(frontier),
            Err(e) => run_job.fail(e.to_string()),
        }
    });
    if state.pool.try_execute(run).is_err() {
        // Never started: release the job slot so the 503 is retryable.
        state.jobs.discard(&id);
        return Response::error(503, "server overloaded, retry later");
    }
    Response::json(202, dse_util::json::to_string(&job_body(&job)))
}

/// `GET /v1/explore`: the known job ids, oldest first.
fn explore_list(state: &State) -> Response {
    let body = Json::obj([("jobs", state.jobs.ids().to_json())]);
    Response::json(200, dse_util::json::to_string(&body))
}

/// `GET /v1/explore/<id>`: status plus the latest (partial) frontier.
fn explore_status(state: &State, id: &str) -> Response {
    match state.jobs.get(id) {
        Some(job) => Response::json(200, dse_util::json::to_string(&job_body(&job))),
        None => Response::error(404, &format!("no such explore job '{id}'")),
    }
}

/// `DELETE /v1/explore/<id>`: request cancellation (idempotent).
fn explore_cancel(state: &State, id: &str) -> Response {
    match state.jobs.get(id) {
        Some(job) => {
            job.cancel();
            Response::json(200, dse_util::json::to_string(&job_body(&job)))
        }
        None => Response::error(404, &format!("no such explore job '{id}'")),
    }
}

fn shutdown_route(state: &State) -> Response {
    if !state.shutdown.swap(true, Ordering::SeqCst) {
        // Wake the reactors so they observe the flag (see Server::shutdown).
        state.wake_reactors();
    }
    Response {
        close: true,
        ..Response::json(
            200,
            dse_util::json::to_string(&Json::obj([("status", "shutting down".to_json())])),
        )
    }
}
