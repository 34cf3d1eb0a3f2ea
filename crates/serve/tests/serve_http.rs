//! Integration tests against a live in-process server: HTTP edge cases,
//! keep-alive, concurrent cache behaviour, and the end-to-end guarantee
//! that the serving path is bit-identical to the library path.

use dse_core::dataset::{DatasetSpec, SuiteDataset};
use dse_core::OfflineModel;
use dse_ml::MlpConfig;
use dse_serve::client::Client;
use dse_serve::registry::{save_artifacts, ModelRegistry};
use dse_serve::server::{Server, ServerConfig};
use dse_sim::Metric;
use dse_util::json::{FromJson, ToJson};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const N_CONFIGS: usize = 40;
const T: usize = 30;
const SEED: u64 = 11;

/// Shared expensive setup: one 5-program dataset, artifacts trained on the
/// first 4 programs, the 5th held out as the "new" program.
struct Setup {
    dir: PathBuf,
    /// All 5 programs (4 training + 1 held out), one shared sample.
    ds5: SuiteDataset,
    /// The 4 training programs over the same sample.
    ds4: SuiteDataset,
}

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let profiles: Vec<_> = dse_workload::suites::spec2000()
            .into_iter()
            .take(5)
            .collect();
        let spec = DatasetSpec {
            n_configs: N_CONFIGS,
            ..DatasetSpec::tiny()
        };
        let ds5 = SuiteDataset::generate(&profiles, &spec);
        let ds4 = SuiteDataset {
            spec: ds5.spec,
            configs: ds5.configs.clone(),
            benchmarks: ds5.benchmarks[..4].to_vec(),
        };
        let dir = std::env::temp_dir().join(format!("dse-serve-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        save_artifacts(
            &dir,
            &ds4,
            &[Metric::Cycles],
            T,
            &MlpConfig::default(),
            SEED,
        )
        .unwrap();
        Setup { dir, ds5, ds4 }
    })
}

fn start_server(cfg: &ServerConfig) -> (Server, String) {
    let registry = Arc::new(ModelRegistry::open(&setup().dir).unwrap());
    let server = Server::start(registry, cfg).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Sends raw bytes on a fresh connection and returns the raw response.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn malformed_request_line_gets_400() {
    let (server, addr) = start_server(&ServerConfig::default());
    let resp = raw_exchange(&addr, b"THIS IS NOT HTTP\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400 "), "got: {resp}");
    server.stop();
}

#[test]
fn unknown_route_gets_404_and_known_route_wrong_method_gets_405() {
    let (server, addr) = start_server(&ServerConfig::default());
    let resp = raw_exchange(&addr, b"GET /nope HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404 "), "got: {resp}");
    let resp = raw_exchange(
        &addr,
        b"GET /v1/predict HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 405 "), "got: {resp}");
    server.stop();
}

#[test]
fn oversized_body_gets_413_without_reading_it() {
    let cfg = ServerConfig {
        max_body: 1024,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(&cfg);
    // Declare a 10 MB body but never send it: the server must answer from
    // the Content-Length header alone.
    let resp = raw_exchange(
        &addr,
        b"POST /v1/predict HTTP/1.1\r\ncontent-length: 10485760\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413 "), "got: {resp}");
    server.stop();
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let (server, addr) = start_server(&ServerConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    // Frames one full response (head + Content-Length body), carrying any
    // over-read bytes to the next call so pipelined reads stay aligned.
    let mut carry: Vec<u8> = Vec::new();
    let mut read_one = |stream: &mut TcpStream| -> String {
        let mut buf = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed the connection mid-response");
            carry.extend_from_slice(&buf[..n]);
        };
        let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
        let body_len = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::to_string)
            })
            .map_or(0, |v| v.trim().parse::<usize>().unwrap());
        while carry.len() < head_end + body_len {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed the connection mid-body");
            carry.extend_from_slice(&buf[..n]);
        }
        let resp = String::from_utf8_lossy(&carry[..head_end + body_len]).into_owned();
        carry.drain(..head_end + body_len);
        resp
    };
    for _ in 0..3 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let resp = read_one(&mut stream);
        assert!(resp.starts_with("HTTP/1.1 200 "), "got: {resp}");
        assert!(!resp.contains("connection: close"));
    }
    // Now ask for close; the server should honour it and drop the socket.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
        .unwrap();
    let resp = read_one(&mut stream);
    assert!(resp.contains("connection: close"));
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection should be closed after close");
    server.stop();
}

#[test]
fn client_reuses_its_connection() {
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    for _ in 0..5 {
        let health = client.healthz().unwrap();
        assert_eq!(
            health.field("status").and_then(String::from_json).unwrap(),
            "ok"
        );
    }
    server.stop();
}

/// The headline guarantee: train → persist → serve → fit over HTTP with
/// R = 32 responses → predictions match the dse-core library path
/// bit for bit, both on the cold path and through the LRU cache.
#[test]
fn end_to_end_predictions_match_library_bit_for_bit() {
    let s = setup();
    let metric = Metric::Cycles;

    // Library path: the same training run save_artifacts performed, fitted
    // on the held-out program's first 32 responses.
    let train_rows: Vec<usize> = (0..4).collect();
    let offline = OfflineModel::train(&s.ds4, &train_rows, metric, T, &MlpConfig::default(), SEED);
    let idxs: Vec<usize> = (0..32).collect();
    let target = &s.ds5.benchmarks[4];
    let values: Vec<f64> = idxs
        .iter()
        .map(|&i| target.metrics[i].get(metric))
        .collect();
    let library = offline.fit_responses(&s.ds4, &idxs, &values);
    let features = s.ds5.features();

    // Serving path: same artifacts, same responses, over HTTP.
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let responses: Vec<(usize, f64)> = idxs.iter().map(|&i| (i, values[i])).collect();
    let summary = client.fit(&target.name, metric, &responses).unwrap();
    assert_eq!(
        summary
            .field("responses")
            .and_then(usize::from_json)
            .unwrap(),
        32
    );

    for (i, config) in s.ds5.configs.iter().enumerate() {
        let expected = library.predict(&features[i]);
        let (cold, cached_cold) = client.predict(&target.name, metric, config).unwrap();
        assert!(!cached_cold, "first lookup of config {i} cannot be cached");
        assert_eq!(
            cold.to_bits(),
            expected.to_bits(),
            "config {i}: server {cold:e} != library {expected:e}"
        );
        // Second lookup must come from the LRU cache, still bit-identical.
        let (warm, cached_warm) = client.predict(&target.name, metric, config).unwrap();
        assert!(
            cached_warm,
            "second lookup of config {i} should hit the cache"
        );
        assert_eq!(warm.to_bits(), expected.to_bits());
    }
    assert_eq!(server.cache().hits(), N_CONFIGS as u64);

    // The batch endpoint agrees too (fresh program fit → cache invalidated,
    // so half the batch is computed, half cached after a warm-up call).
    let batch = client
        .predict_batch(&target.name, metric, &s.ds5.configs)
        .unwrap();
    for (i, value) in batch.iter().enumerate() {
        assert_eq!(value.to_bits(), library.predict(&features[i]).to_bits());
    }
    server.stop();
}

#[test]
fn refit_invalidates_cached_predictions() {
    let s = setup();
    let metric = Metric::Cycles;
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = &s.ds5.benchmarks[4];
    let r16: Vec<(usize, f64)> = (0..16)
        .map(|i| (i, target.metrics[i].get(metric)))
        .collect();
    let r32: Vec<(usize, f64)> = (0..32)
        .map(|i| (i, target.metrics[i].get(metric)))
        .collect();

    client.fit(&target.name, metric, &r16).unwrap();
    let (v16, _) = client
        .predict(&target.name, metric, &s.ds5.configs[35])
        .unwrap();
    let (_, cached) = client
        .predict(&target.name, metric, &s.ds5.configs[35])
        .unwrap();
    assert!(cached);

    // Refit with more responses: the cached value must not survive.
    client.fit(&target.name, metric, &r32).unwrap();
    let (v32, cached) = client
        .predict(&target.name, metric, &s.ds5.configs[35])
        .unwrap();
    assert!(!cached, "refit must invalidate the cache");
    assert_ne!(
        v16.to_bits(),
        v32.to_bits(),
        "a different fit should move the prediction"
    );
    server.stop();
}

#[test]
fn concurrent_clients_share_the_cache_and_agree() {
    let s = setup();
    let metric = Metric::Cycles;
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr.clone());
    let target = &s.ds5.benchmarks[4];
    let responses: Vec<(usize, f64)> = (0..32)
        .map(|i| (i, target.metrics[i].get(metric)))
        .collect();
    client.fit(&target.name, metric, &responses).unwrap();

    // Uncached reference values, computed through the library on the same
    // loaded artifacts so they are exact.
    let registry = ModelRegistry::open(&s.dir).unwrap();
    registry.fit(&target.name, metric, &responses).unwrap();
    let expected: Vec<f64> = s.ds5.configs[..8]
        .iter()
        .map(|c| registry.predict(&target.name, metric, c).unwrap())
        .collect();

    let results: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                let name = target.name.clone();
                let configs = &s.ds5.configs;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Vec::new();
                    for _ in 0..3 {
                        for config in &configs[..8] {
                            let (value, _) = client.predict(&name, metric, config).unwrap();
                            out.push(value);
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for values in &results {
        for (k, value) in values.iter().enumerate() {
            assert_eq!(
                value.to_bits(),
                expected[k % 8].to_bits(),
                "cached and uncached responses must be identical"
            );
        }
    }
    // 4 clients x 3 rounds x 8 configs = 96 lookups over 8 distinct keys:
    // most must have been cache hits.
    assert!(
        server.cache().hits() >= 80,
        "expected cache hits, saw {}",
        server.cache().hits()
    );
    let scrape = raw_exchange(
        &server.local_addr().to_string(),
        b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(
        scrape.contains("dse_serve_cache_hits_total"),
        "got: {scrape}"
    );
    server.stop();
}

// ---------------------------------------------------------------------------
// Explore job lifecycle
// ---------------------------------------------------------------------------

/// Fits the held-out program for `cycles` so explore submissions resolve
/// a predictor, and returns its name.
fn fit_target(client: &mut Client) -> String {
    let s = setup();
    let target = &s.ds5.benchmarks[4];
    let responses: Vec<(usize, f64)> = (0..16)
        .map(|i| (i, target.metrics[i].get(Metric::Cycles)))
        .collect();
    client
        .fit(&target.name, Metric::Cycles, &responses)
        .unwrap();
    target.name.clone()
}

/// Polls `GET /v1/explore/<id>` until the job leaves the active states,
/// returning the final body.
fn poll_until_settled(client: &mut Client, id: &str) -> dse_util::json::Json {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let resp = client.get(&format!("/v1/explore/{id}")).unwrap();
        assert_eq!(resp.status, 200);
        let body = resp.json().unwrap();
        let status = body.field("status").and_then(String::from_json).unwrap();
        if status != "queued" && status != "running" {
            return body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "explore job '{id}' never settled (last status: {status})"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

#[test]
fn explore_job_runs_to_completion_over_http() {
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);

    let body = format!(
        "{{\"program\":\"{target}\",\"objective\":\"cycles,energy\",\
         \"budget\":{{\"rounds\":2,\"candidates_per_round\":12,\
         \"sims_per_round\":2,\"archive_cap\":8,\"seed\":6}}}}"
    );
    // The registry only holds a cycles model: a 2-axis objective needing
    // energy must be refused before any work is queued.
    let resp = client.post("/v1/explore", &body).unwrap();
    assert_eq!(resp.status, 404, "got: {:?}", resp.text());

    let body = format!(
        "{{\"program\":\"{target}\",\"objective\":\"cycles\",\
         \"budget\":{{\"rounds\":2,\"candidates_per_round\":12,\
         \"sims_per_round\":2,\"archive_cap\":8,\"seed\":6}}}}"
    );
    let resp = client.post("/v1/explore", &body).unwrap();
    assert_eq!(resp.status, 202, "got: {:?}", resp.text());
    let submitted = resp.json().unwrap();
    let id = submitted.field("id").and_then(String::from_json).unwrap();
    assert!(id.starts_with("explore-"));
    let status = submitted
        .field("status")
        .and_then(String::from_json)
        .unwrap();
    assert!(status == "queued" || status == "running");

    // The job shows up in the listing.
    let list = client.get("/v1/explore").unwrap().json().unwrap();
    let ids: Vec<String> = list
        .field("jobs")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .unwrap()
        .iter()
        .map(|v| String::from_json(v).unwrap())
        .collect();
    assert!(ids.contains(&id));

    let done = poll_until_settled(&mut client, &id);
    assert_eq!(
        done.field("status").and_then(String::from_json).unwrap(),
        "done",
        "body: {}",
        dse_util::json::to_string(&done)
    );
    assert_eq!(
        done.field("rounds_done")
            .and_then(usize::from_json)
            .unwrap(),
        2
    );
    let frontier = done.field("frontier").unwrap();
    let points = frontier
        .field("points")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .unwrap();
    assert!(!points.is_empty(), "a completed frontier holds points");
    let sim_calls = frontier
        .field("sim_calls")
        .and_then(u64::from_json)
        .unwrap();
    assert!(sim_calls <= 4, "2 rounds × 2 sims, spent {sim_calls}");
    server.stop();
}

#[test]
fn explore_job_spans_reach_the_flight_recorder_under_the_submitting_request() {
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);
    let body = format!(
        "{{\"program\":\"{target}\",\"objective\":\"cycles\",\
         \"budget\":{{\"rounds\":2,\"candidates_per_round\":12,\
         \"sims_per_round\":2,\"archive_cap\":8,\"seed\":7}}}}"
    );
    let resp = client.post("/v1/explore", &body).unwrap();
    assert_eq!(resp.status, 202, "got: {:?}", resp.text());
    let req_id: u64 = resp
        .header("x-archdse-request-id")
        .expect("explore response carries x-archdse-request-id")
        .parse()
        .unwrap();
    let id = resp
        .json()
        .unwrap()
        .field("id")
        .and_then(String::from_json)
        .unwrap();
    poll_until_settled(&mut client, &id);

    // The job's library spans (its trace generation, one per round) land
    // in the recorder with durations, under the request that submitted it.
    // Retention is best-effort (other tests in this process share the
    // ring), so the dump is taken as soon as the job settles.
    let flight = client
        .get(&format!("/v1/obs/flight?request={req_id}"))
        .unwrap();
    let text = flight.text().unwrap().to_string();
    let spans = |kind: &str| {
        text.lines()
            .filter(|l| l.contains(&format!("\"kind\":\"{kind}\"")))
            .inspect(|l| assert!(l.contains("\"dur_us\":"), "{kind} has no duration: {l}"))
            .count()
    };
    assert_eq!(spans("trace.generate"), 1, "{text}");
    assert_eq!(spans("explore.round"), 2, "one record per round:\n{text}");
    server.stop();
}

#[test]
fn explore_rejects_bad_requests() {
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);

    // Malformed objective → 400, before any job is registered.
    let resp = client
        .post(
            "/v1/explore",
            &format!("{{\"program\":\"{target}\",\"objective\":\"potato\"}}"),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "got: {:?}", resp.text());

    // Malformed budget → 400.
    let resp = client
        .post(
            "/v1/explore",
            &format!(
                "{{\"program\":\"{target}\",\"objective\":\"cycles\",\
                 \"budget\":{{\"rounds\":0}}}}"
            ),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "got: {:?}", resp.text());

    // Unknown benchmark → 404.
    let resp = client
        .post(
            "/v1/explore",
            "{\"program\":\"doom\",\"objective\":\"cycles\"}",
        )
        .unwrap();
    assert_eq!(resp.status, 404, "got: {:?}", resp.text());

    // Known benchmark, never fitted → 404 from the registry.
    let resp = client
        .post(
            "/v1/explore",
            "{\"program\":\"gzip\",\"objective\":\"cycles\"}",
        )
        .unwrap();
    assert_eq!(resp.status, 404, "got: {:?}", resp.text());

    // Unknown job id → 404 on both poll and cancel.
    let resp = client.get("/v1/explore/explore-999").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client
        .request("DELETE", "/v1/explore/explore-999", None)
        .unwrap();
    assert_eq!(resp.status, 404);

    // No jobs were registered by any of the rejections.
    let list = client.get("/v1/explore").unwrap().json().unwrap();
    let ids = list
        .field("jobs")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .unwrap();
    assert!(ids.is_empty(), "rejected submissions must not leak jobs");
    server.stop();
}

#[test]
fn explore_rejects_budgets_past_their_caps() {
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);
    // One body per budget field. 2^32 × 2^32 rounds × sims wraps to 0
    // in unchecked 64-bit arithmetic.
    let cases = [
        (
            "rounds",
            "\"rounds\":4294967296,\"sims_per_round\":4294967296",
        ),
        ("sims_per_round", "\"rounds\":1,\"sims_per_round\":10001"),
        (
            "candidates_per_round",
            "\"candidates_per_round\":1000000000000",
        ),
        ("archive_cap", "\"archive_cap\":10001"),
    ];
    for (field, budget) in cases {
        let body = format!(
            "{{\"program\":\"{target}\",\"objective\":\"cycles\",\"budget\":{{{budget}}}}}"
        );
        let resp = client.post("/v1/explore", &body).unwrap();
        let text = resp.text().unwrap_or_default();
        assert_eq!(resp.status, 400, "{field}: {text}");
        assert!(
            text.contains(field),
            "error for {field} does not name it: {text}"
        );
    }
    let list = client.get("/v1/explore").unwrap().json().unwrap();
    let jobs = list
        .field("jobs")
        .and_then(|v| v.as_array().map(<[_]>::len));
    assert_eq!(jobs.unwrap(), 0, "rejected budgets must not register jobs");
    server.stop();
}

#[test]
fn explore_job_cap_answers_429_and_cancel_stops_a_running_job() {
    let cfg = ServerConfig {
        max_explore_jobs: 1,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(&cfg);
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);

    // A long-budget job: 40 rounds would take several seconds, so the
    // DELETE below lands mid-run.
    let long = format!(
        "{{\"program\":\"{target}\",\"objective\":\"cycles\",\
         \"budget\":{{\"rounds\":40,\"candidates_per_round\":16,\
         \"sims_per_round\":2,\"archive_cap\":8,\"seed\":7}}}}"
    );
    let resp = client.post("/v1/explore", &long).unwrap();
    assert_eq!(resp.status, 202, "got: {:?}", resp.text());
    let id = resp
        .json()
        .unwrap()
        .field("id")
        .and_then(String::from_json)
        .unwrap();

    // The cap is 1: a second submission is refused with 429.
    let resp = client.post("/v1/explore", &long).unwrap();
    assert_eq!(resp.status, 429, "got: {:?}", resp.text());

    // Cancel the running job; it settles as cancelled short of its budget.
    let resp = client
        .request("DELETE", &format!("/v1/explore/{id}"), None)
        .unwrap();
    assert_eq!(resp.status, 200);
    let settled = poll_until_settled(&mut client, &id);
    assert_eq!(
        settled.field("status").and_then(String::from_json).unwrap(),
        "cancelled"
    );
    let rounds_done = settled
        .field("rounds_done")
        .and_then(usize::from_json)
        .unwrap();
    assert!(rounds_done < 40, "cancel must cut the budget short");

    // The slot is free again.
    let tiny = format!(
        "{{\"program\":\"{target}\",\"objective\":\"cycles\",\
         \"budget\":{{\"rounds\":1,\"candidates_per_round\":8,\
         \"sims_per_round\":1,\"archive_cap\":4,\"seed\":8}}}}"
    );
    let resp = client.post("/v1/explore", &tiny).unwrap();
    assert_eq!(resp.status, 202, "got: {:?}", resp.text());
    let id2 = resp
        .json()
        .unwrap()
        .field("id")
        .and_then(String::from_json)
        .unwrap();
    let done = poll_until_settled(&mut client, &id2);
    assert_eq!(
        done.field("status").and_then(String::from_json).unwrap(),
        "done"
    );
    server.stop();
}

#[test]
fn explore_answers_503_when_the_worker_pool_is_saturated() {
    // One worker (occupied by this very connection) and a backlog of one:
    // the first submission fills the queue, the second must be refused —
    // and must not leak a job slot.
    let cfg = ServerConfig {
        workers: 1,
        backlog: 1,
        max_explore_jobs: 8,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(&cfg);
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);

    let tiny = format!(
        "{{\"program\":\"{target}\",\"objective\":\"cycles\",\
         \"budget\":{{\"rounds\":1,\"candidates_per_round\":8,\
         \"sims_per_round\":1,\"archive_cap\":4,\"seed\":9}}}}"
    );
    let resp = client.post("/v1/explore", &tiny).unwrap();
    assert_eq!(resp.status, 202, "got: {:?}", resp.text());

    let resp = client.post("/v1/explore", &tiny).unwrap();
    assert_eq!(resp.status, 503, "got: {:?}", resp.text());

    // Only the accepted job is known; the 503'd one was discarded.
    let list = client.get("/v1/explore").unwrap().json().unwrap();
    let ids = list
        .field("jobs")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .unwrap();
    assert_eq!(ids.len(), 1);
    server.stop();
}

#[test]
fn shutdown_endpoint_drains_the_server() {
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr.clone());
    client.shutdown().unwrap();
    // After the drain completes, new connections must be refused or reset.
    server.wait();
    let refused = TcpStream::connect(&addr).is_err() || {
        let mut s = TcpStream::connect(&addr).unwrap();
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut buf = [0u8; 64];
        matches!(s.read(&mut buf), Ok(0) | Err(_))
    };
    assert!(refused, "server should be gone after shutdown");
}

#[test]
fn request_ids_thread_from_header_to_flight_recorder() {
    let s = setup();
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);

    // A served predict answers with its request id in the header …
    let body = dse_util::json::to_string(&dse_util::json::Json::obj([
        ("program", target.to_json()),
        ("metric", Metric::Cycles.to_json()),
        ("config", s.ds5.configs[0].to_json()),
    ]));
    let resp = client.post("/v1/predict", &body).unwrap();
    assert_eq!(resp.status, 200, "got: {:?}", resp.text());
    let req_id: u64 = resp
        .header("x-archdse-request-id")
        .expect("predict response carries x-archdse-request-id")
        .parse()
        .expect("request id is numeric");
    assert!(req_id > 0);

    // … and the flight recorder, filtered to that id, shows the whole
    // reactor → worker → cache/registry chain for it.
    let flight = client
        .get(&format!("/v1/obs/flight?request={req_id}"))
        .unwrap();
    assert_eq!(flight.status, 200);
    let events = flight.text().unwrap().to_string();
    for kind in [
        "reactor.dispatch",
        "worker.start",
        "cache.miss",
        "registry.predict",
        "worker.done",
    ] {
        assert!(
            events.contains(&format!("\"kind\":\"{kind}\"")),
            "flight dump for request {req_id} missing {kind}:\n{events}"
        );
    }
    assert!(events.contains("/v1/predict"), "{events}");

    // The unfiltered dump works too and includes the same id.
    let all = client.get("/v1/obs/flight").unwrap();
    assert_eq!(all.status, 200);
    assert!(all
        .text()
        .unwrap()
        .contains(&format!("\"request\":{req_id}")));
    server.stop();
}

// ---------------------------------------------------------------------------
// Prediction request decoding: rejections and tolerated input
// ---------------------------------------------------------------------------

/// A config object's JSON text with `edits` applied in place: `(key,
/// Some(raw))` replaces the field's value text, `(key, None)` drops it.
fn config_text(config: &dse_space::Config, edits: &[(&str, Option<&str>)]) -> String {
    let dse_util::json::Json::Obj(fields) = config.to_json() else {
        unreachable!("a config serialises as an object")
    };
    let parts: Vec<String> = fields
        .iter()
        .filter_map(|(k, v)| match edits.iter().find(|(e, _)| e == k) {
            Some((_, None)) => None,
            Some((_, Some(raw))) => Some(format!("\"{k}\":{raw}")),
            None => Some(format!("\"{k}\":{v}")),
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

fn single_body(program: &str, config: &str) -> String {
    format!("{{\"program\":\"{program}\",\"metric\":\"Cycles\",\"config\":{config}}}")
}

fn batch_body(program: &str, configs: &[String]) -> String {
    format!(
        "{{\"program\":\"{program}\",\"metric\":\"Cycles\",\"configs\":[{}]}}",
        configs.join(",")
    )
}

/// Posts `body` and returns the status and the response text.
fn post_text(client: &mut Client, path: &str, body: &str) -> (u16, String) {
    let resp = client.post(path, body).unwrap();
    (resp.status, resp.text().unwrap().to_string())
}

fn value_of(text: &str, key: &str) -> dse_util::json::Json {
    dse_util::json::Json::parse(text)
        .unwrap()
        .field(key)
        .unwrap()
        .clone()
}

#[test]
fn predict_rejects_bad_bodies_with_located_errors() {
    let s = setup();
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);
    let cfg = &s.ds5.configs[0];
    let good = single_body(&target, &config_text(cfg, &[]));

    // Malformed and truncated JSON: 400 with the byte offset.
    for bad in [
        good[..good.len() / 2].to_string(),
        good.replace("\"config\":", "\"config\" "),
        format!("{good} trailing"),
    ] {
        let (status, text) = post_text(&mut client, "/v1/predict", &bad);
        assert_eq!(status, 400, "{bad}: {text}");
        assert!(text.contains("byte "), "{bad}: {text}");
    }

    // An off-list value, a missing field and a wrong type: 422.
    let illegal = single_body(&target, &config_text(cfg, &[("width", Some("5"))]));
    let (status, text) = post_text(&mut client, "/v1/predict", &illegal);
    assert_eq!(status, 422, "{text}");
    assert!(text.to_lowercase().contains("width"), "{text}");
    for edit in [
        ("rob", None),
        ("rob", Some("\"96\"")),
        ("l2_kb", Some("2048.5")),
    ] {
        let body = single_body(&target, &config_text(cfg, &[edit]));
        let (status, text) = post_text(&mut client, "/v1/predict", &body);
        assert_eq!(status, 422, "{edit:?}: {text}");
    }
    let (status, text) = post_text(&mut client, "/v1/predict", &single_body(&target, "[]"));
    assert_eq!(status, 422, "{text}");

    // A program that was never fitted keeps the registry's 404, and a
    // body with no program is a 400.
    let unknown = single_body("doom", &config_text(cfg, &[]));
    let (status, text) = post_text(&mut client, "/v1/predict", &unknown);
    assert_eq!(status, 404, "{text}");
    let (status, text) = post_text(&mut client, "/v1/predict", "{\"metric\":\"Cycles\"}");
    assert_eq!(status, 400, "{text}");
    server.stop();
}

#[test]
fn predict_ignores_unknown_fields_and_keeps_the_first_duplicate() {
    let s = setup();
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);
    let cfg = &s.ds5.configs[1];
    let plain = config_text(cfg, &[]);
    let (status, text) = post_text(&mut client, "/v1/predict", &single_body(&target, &plain));
    assert_eq!(status, 200, "{text}");
    let want = value_of(&text, "value");

    // Unknown fields at both levels, and a later duplicate of a known
    // key (which must lose to the first), all answer the plain value.
    let extra_cfg = format!("{},\"turbo\":true}}", &plain[..plain.len() - 1]);
    let dup_last = format!("{},\"width\":5}}", &plain[..plain.len() - 1]);
    let extra_top = format!(
        "{{\"note\":{{\"nested\":[1,2,{{\"x\":null}}]}},\"program\":\"{target}\",\
         \"metric\":\"Cycles\",\"config\":{plain},\"program\":\"doom\"}}"
    );
    for body in [
        single_body(&target, &extra_cfg),
        single_body(&target, &dup_last),
        extra_top,
    ] {
        let (status, text) = post_text(&mut client, "/v1/predict", &body);
        assert_eq!(status, 200, "{body}: {text}");
        assert_eq!(value_of(&text, "value"), want, "{body}");
    }

    // The first occurrence decides even when it is the bad one.
    let dup_first = format!("{{\"width\":5,{}", &plain[1..]);
    let (status, text) = post_text(
        &mut client,
        "/v1/predict",
        &single_body(&target, &dup_first),
    );
    assert_eq!(status, 422, "{text}");
    server.stop();
}

#[test]
fn predict_batch_rejects_bad_bodies_with_located_errors() {
    let s = setup();
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);
    let plain: Vec<String> = s.ds5.configs[..8]
        .iter()
        .map(|c| config_text(c, &[]))
        .collect();
    let good = batch_body(&target, &plain);
    let (status, text) = post_text(&mut client, "/v1/predict_batch", &good);
    assert_eq!(status, 200, "{text}");

    // Malformed and truncated JSON: 400 with the byte offset.
    for bad in [
        good[..good.len() - 3].to_string(),
        good.replacen("},{", "}{", 1),
        good.replacen("\"rob\":", "\"rob\":-x", 1),
    ] {
        let (status, text) = post_text(&mut client, "/v1/predict_batch", &bad);
        assert_eq!(status, 400, "{bad}: {text}");
        assert!(text.contains("byte "), "{bad}: {text}");
    }

    // An off-list value names its field and its index.
    let mut edited = plain.clone();
    edited[3] = config_text(&s.ds5.configs[3], &[("width", Some("5"))]);
    let (status, text) = post_text(
        &mut client,
        "/v1/predict_batch",
        &batch_body(&target, &edited),
    );
    assert_eq!(status, 422, "{text}");
    assert!(text.contains("[3]"), "{text}");
    assert!(text.to_lowercase().contains("width"), "{text}");

    // A missing field, a wrong type, a non-array and an empty batch: 422.
    for edit in [("iq", None), ("iq", Some("null")), ("iq", Some("[32]"))] {
        let mut edited = plain.clone();
        edited[5] = config_text(&s.ds5.configs[5], &[edit]);
        let body = batch_body(&target, &edited);
        let (status, text) = post_text(&mut client, "/v1/predict_batch", &body);
        assert_eq!(status, 422, "{edit:?}: {text}");
        assert!(text.contains("[5]"), "{edit:?}: {text}");
    }
    let not_array = format!("{{\"program\":\"{target}\",\"metric\":\"Cycles\",\"configs\":{{}}}}");
    let (status, text) = post_text(&mut client, "/v1/predict_batch", &not_array);
    assert_eq!(status, 422, "{text}");
    let (status, text) = post_text(&mut client, "/v1/predict_batch", &batch_body(&target, &[]));
    assert_eq!(status, 422, "{text}");
    let no_configs = format!("{{\"program\":\"{target}\",\"metric\":\"Cycles\"}}");
    let (status, text) = post_text(&mut client, "/v1/predict_batch", &no_configs);
    assert_eq!(status, 422, "{text}");

    // A program that was never fitted keeps the registry's 404.
    let (status, text) = post_text(
        &mut client,
        "/v1/predict_batch",
        &batch_body("doom", &plain),
    );
    assert_eq!(status, 404, "{text}");
    server.stop();
}

#[test]
fn predict_batch_ignores_unknown_fields_and_keeps_the_first_duplicate() {
    let s = setup();
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);
    let plain: Vec<String> = s.ds5.configs[8..16]
        .iter()
        .map(|c| config_text(c, &[]))
        .collect();
    let (status, text) = post_text(
        &mut client,
        "/v1/predict_batch",
        &batch_body(&target, &plain),
    );
    assert_eq!(status, 200, "{text}");
    let want = value_of(&text, "values");

    let mut tolerated = plain.clone();
    tolerated[2] = format!("{},\"turbo\":[true]}}", &plain[2][..plain[2].len() - 1]);
    tolerated[6] = format!("{},\"rob\":7}}", &plain[6][..plain[6].len() - 1]);
    let body = batch_body(&target, &tolerated);
    let body = format!(
        "{{\"configs\":[],\"extra\":\"x\",{},\"metric\":\"Energy\"}}",
        &body[1..body.len() - 1]
    );
    // The leading empty `configs` wins over the full one: 422 …
    let (status, text) = post_text(&mut client, "/v1/predict_batch", &body);
    assert_eq!(status, 422, "{text}");
    // … and without it the tolerated body answers the plain values.
    let body = body.replacen("\"configs\":[],", "", 1);
    let (status, text) = post_text(&mut client, "/v1/predict_batch", &body);
    assert_eq!(status, 200, "{body}: {text}");
    assert_eq!(value_of(&text, "values"), want, "{body}");
    server.stop();
}

#[test]
fn metrics_export_prediction_handler_phases() {
    let s = setup();
    let (server, addr) = start_server(&ServerConfig::default());
    let mut client = Client::new(addr);
    let target = fit_target(&mut client);
    // An even number of batches: with the fit's one extra latency
    // sample, every phase median then sits at or below the latency
    // median (each request's phases fit inside its own latency).
    let plain: Vec<String> = s.ds5.configs.iter().map(|c| config_text(c, &[])).collect();
    for _ in 0..6 {
        let (status, text) = post_text(
            &mut client,
            "/v1/predict_batch",
            &batch_body(&target, &plain),
        );
        assert_eq!(status, 200, "{text}");
    }
    let metrics = client.get("/metrics").unwrap();
    let text = metrics.text().unwrap();
    let value = |series: &str| -> u64 {
        let line = text
            .lines()
            .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("{series} missing from /metrics:\n{text}"));
        line[series.len() + 1..].parse().unwrap()
    };
    let latency_p50 = value("dse_serve_latency_microseconds{quantile=\"0.5\"}");
    for route in ["/v1/predict", "/v1/predict_batch"] {
        for phase in ["decode", "cache", "forward", "encode"] {
            for q in ["0.5", "0.95", "0.99"] {
                let us = value(&format!(
                    "dse_serve_phase_us{{route=\"{route}\",phase=\"{phase}\",quantile=\"{q}\"}}"
                ));
                if route == "/v1/predict_batch" && q == "0.5" {
                    assert!(
                        us <= latency_p50,
                        "{phase} p50 {us} > latency p50 {latency_p50}"
                    );
                }
            }
        }
    }
    server.stop();
}
