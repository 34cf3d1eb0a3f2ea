//! Workspace-wide observability: metrics, trace recording, leveled logging.
//!
//! Every crate in the workspace answers "where did the time go" and
//! "how often did that happen" through this one zero-dependency layer:
//!
//! * [`registry`] — a global **metrics registry** of named counters,
//!   gauges, fixed-bucket histograms and ring-based quantile estimators.
//!   Counters and quantile rings are lock-sharded by thread so
//!   `par_map` workers never contend on a cache line; the whole registry
//!   renders as Prometheus text ([`registry::Registry::prometheus`]).
//! * [`flight`] — the **trace recorder**, always on and bounded: a
//!   lock-sharded ring of recent records, both point events (request
//!   lifecycle, cache/registry lookups, errors) and timed [`span!`]s
//!   whose parent/child nesting follows work across the scoped-thread
//!   pool in `dse-util`. Records carry the request id active on their
//!   thread, dump as JSONL on demand, and aggregate into a self-time
//!   flame table; `train --obs` captures a whole run's records.
//! * [`log`] — **leveled diagnostics** (`error`/`warn`/`info`/`debug`)
//!   via [`log!`], filtered by `ARCHDSE_LOG` (default `warn`; any other
//!   value is an error naming the variable) — the one environment
//!   variable this crate reads.
//!
//! All three are always on: sharded atomics, one level compare, and one
//! sequence fetch, clock read and shard lock per trace record.
//!
//! # Examples
//!
//! ```
//! use dse_obs as obs;
//!
//! obs::flight::start_capture();
//! {
//!     let _outer = obs::span!("demo.outer");
//!     let _inner = obs::span!("demo.inner", items = 3);
//! }
//! let spans = obs::flight::finish_capture();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[1].parent, spans[0].seq);
//! assert_eq!(&*spans[1].detail, "items=3");
//!
//! obs::registry::counter("demo_events_total").add(2);
//! let text = obs::registry::global().prometheus();
//! assert!(text.contains("demo_events_total 2"));
//! ```

#![warn(missing_docs)]

pub mod flight;
pub mod log;
pub mod registry;

pub use flight::{Record, Span};
pub use registry::{counter, gauge, histogram, quantiles, Registry};
