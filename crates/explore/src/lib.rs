//! # dse-explore — Pareto-frontier design-space exploration
//!
//! The paper's pipeline *predicts* metrics for sampled configurations;
//! this crate *searches*: given a trained predictor (cheap oracle) and
//! the cycle-accurate simulator (expensive oracle), it runs a batched
//! acquisition loop over the 13-dimensional design space and returns the
//! ground-truth Pareto frontier of a user objective — "best configs
//! under my constraints" rather than "metric at this config".
//!
//! The moving parts:
//!
//! * [`Objective`] — one to four minimized axes, each a weighted blend of
//!   cycles / energy / ED / ED² (`"cycles,energy"`,
//!   `"0.5*cycles+0.5*energy"`).
//! * [`Constraints`] — per-parameter bounds (`"rob<=96,width>=4"`)
//!   intersected with the design space's legality filter.
//! * [`Archive`] — the nondominated set, capacity-bounded by normalized
//!   hypervolume-contribution pruning, canonically ordered.
//! * [`Explorer`] — the loop: score candidates with the predictor, pick
//!   by acquisition key, ground-truth the picks through the
//!   [`SimOracle`], archive only simulated results. Every pick the
//!   predictor gets wrong costs one simulation, never correctness.
//! * [`Frontier`] — the serializable result, bit-identical across
//!   `ARCHDSE_THREADS` for a fixed seed.
//!
//! Cost accounting is explicit: [`Frontier::predictor_calls`] and
//! [`Frontier::sim_calls`] report how much each oracle was consulted, so
//! "found the front with 25% of the exhaustive budget" is a measured
//! claim, not an impression (see `tests/explore_frontier.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explorer;
pub mod frontier;
pub mod objective;
pub mod pareto;

pub use explorer::{
    Command, ExploreBudget, ExploreError, Explorer, GroundTruth, MetricPredictor, RoundStatus,
    SimOracle,
};
pub use frontier::{Frontier, FrontierPoint, RoundStats, FRONTIER_VERSION};
pub use objective::{
    parse_metric, parse_param, Constraint, Constraints, Objective, ObjectiveAxis, ObjectiveTerm,
    ParseError,
};
pub use pareto::{dominates, hypervolume, normalize, pareto_indices, Archive, Insert};

#[cfg(test)]
pub(crate) mod test_support {
    use dse_rng::Xoshiro256;
    use dse_space::{sample_legal, Config};

    /// `n` distinct legal configurations from a fixed seed.
    pub fn distinct_configs(n: usize) -> Vec<Config> {
        sample_legal(&mut Xoshiro256::seed_from(0xC0FF), n)
    }
}
