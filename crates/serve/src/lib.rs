//! `dse-serve`: a zero-dependency prediction server for the
//! architecture-centric model.
//!
//! The paper's model splits into an expensive offline half (one ANN per
//! training program) and a cheap online half (a linear combiner fitted on
//! `R` responses of a new program). That split is exactly a serving
//! boundary: train once, persist the artifacts, then characterise new
//! programs and answer predictions over HTTP without touching the
//! dataset again.
//!
//! * [`registry`] — the model artifact store: versioned JSON manifest,
//!   per-metric artifacts (ANNs + shared sample + design table), hot
//!   reload, online fitting ([`dse_core::fit_combiner`]);
//! * [`http`] — a hand-rolled HTTP/1.1 subset on `std::net` (no TLS, no
//!   chunking): Content-Length framing, keep-alive, strict size caps,
//!   parsed incrementally by [`http::try_parse`];
//! * [`server`] — nonblocking reactor front end (raw `epoll`, see
//!   `eventloop`) + fixed worker pool, routing, graceful
//!   drain-on-shutdown;
//! * [`cache`] — a sharded LRU over `(program, metric, config)` keys;
//! * [`telemetry`] — request counters and latency percentiles for
//!   `GET /metrics`;
//! * [`client`] — the blocking keep-alive client used by tests, CI and
//!   the `benchmark/` serve workload.
//!
//! The server path is *bit-identical* to the library path: predictions
//! run [`dse_core::arch_centric::OfflineModel::predict_with`] on the
//! deserialised networks, and `/v1/fit` runs [`dse_core::fit_combiner`]
//! on the persisted design table — the same arithmetic
//! [`dse_core::arch_centric::OfflineModel::fit_responses`] performs.
//!
//! # Examples
//!
//! ```no_run
//! use dse_serve::registry::ModelRegistry;
//! use dse_serve::server::{Server, ServerConfig};
//! use dse_serve::client::Client;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(ModelRegistry::open("models").unwrap());
//! let server = Server::start(registry, &ServerConfig::default()).unwrap();
//! let mut client = Client::new(server.local_addr().to_string());
//! let health = client.healthz().unwrap();
//! println!("{}", dse_util::json::to_string(&health));
//! server.stop();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
mod decode;
mod eventloop;
pub mod http;
pub mod jobs;
pub mod registry;
pub mod server;
pub mod telemetry;

pub use cache::{CacheKey, PredictionCache};
pub use client::{Client, ClientError, ClientResponse};
pub use jobs::{protocol, ExploreJob, JobManager, JobState, RegistryPredictor};
pub use registry::{save_artifacts, FitSummary, MetricArtifact, ModelRegistry, RegistryError};
pub use server::{Server, ServerConfig};
pub use telemetry::Telemetry;
