//! Frontier determinism: for a fixed seed the serialized `Frontier` is
//! byte-identical across `ARCHDSE_THREADS` ∈ {1, 4, unset}, and a
//! tiny-budget run is pinned against golden values so silent drift in
//! the acquisition loop fails loudly.
//!
//! Env-var mutation is process-global, so both tests serialise on one
//! mutex and restore the variable before returning.

use archdse::explore::{
    Constraints, ExploreBudget, Explorer, MetricPredictor, Objective, SimOracle,
};
use archdse::prelude::*;
use dse_util::json::{FromJson, ToJson};
use dse_util::par::THREADS_ENV;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(threads: Option<&str>, body: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    match threads {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    let r = body();
    std::env::remove_var(THREADS_ENV);
    r
}

/// A deterministic cheap oracle: weighted feature sums with a different
/// slope per metric. Accuracy is irrelevant here — only that acquisition
/// order and hence the simulated picks are reproducible.
struct SlopePredictor;

impl MetricPredictor for SlopePredictor {
    fn predict(&self, cfg: &Config, metric: Metric) -> f64 {
        let f = cfg.to_features();
        let core: f64 = f[..7].iter().sum();
        let mem: f64 = f[7..].iter().sum();
        match metric {
            Metric::Cycles => 1_000.0 * (8.0 - core),
            Metric::Energy => 100.0 * (1.0 + core + 2.0 * mem),
            Metric::Ed => 1_000.0 * (8.0 - core) * (1.0 + core + 2.0 * mem),
            Metric::Edd => 1_000.0 * (8.0 - core).powi(2) * (1.0 + core + 2.0 * mem),
        }
    }
}

fn run_explore() -> String {
    let profile = archdse::workload::suites::all_benchmarks()
        .into_iter()
        .find(|p| p.name == "gzip")
        .unwrap();
    let trace = TraceGenerator::new(&profile).generate(4_000);
    let oracle = SimOracle::new(trace, SimOptions::with_warmup(800));
    let explorer = Explorer {
        predictor: &SlopePredictor,
        oracle: &oracle,
        program: "gzip".to_string(),
        objective: Objective::parse("cycles,energy").unwrap(),
        constraints: Constraints::parse("width<=6").unwrap(),
        budget: ExploreBudget {
            rounds: 2,
            candidates_per_round: 24,
            sims_per_round: 3,
            archive_cap: 8,
            seed: 0xD15C,
        },
        pool: None,
    };
    let frontier = explorer.run().unwrap();
    dse_util::json::to_string(&frontier.to_json())
}

#[test]
fn frontier_json_is_bit_identical_across_threads() {
    let baseline = with_threads(Some("1"), run_explore);
    for threads in [Some("4"), None] {
        let json = with_threads(threads, run_explore);
        assert_eq!(
            json, baseline,
            "ARCHDSE_THREADS={threads:?} drifted from the 1-thread frontier"
        );
    }
}

/// Pins the tiny-budget frontier: exact point count, simulation spend,
/// and the bit pattern of every objective value. Captured from the run
/// this test was introduced with; any acquisition or simulator change
/// that moves these values must update the golden block *consciously*.
#[test]
fn tiny_budget_frontier_matches_golden() {
    let json = with_threads(Some("1"), run_explore);
    let frontier =
        archdse::explore::Frontier::from_json(&dse_util::json::Json::parse(&json).unwrap())
            .unwrap();

    assert_eq!(frontier.sim_calls, 6, "2 rounds × 3 sims");
    assert!(frontier.predictor_calls > 0);
    assert!(!frontier.cancelled);
    assert_eq!(frontier.rounds.len(), 2);

    let got: Vec<(u64, u64)> = frontier
        .points
        .iter()
        .map(|p| (p.objectives[0].to_bits(), p.objectives[1].to_bits()))
        .collect();
    let expected: Vec<(u64, u64)> = GOLDEN
        .iter()
        .map(|&(c, e)| (c.to_bits(), e.to_bits()))
        .collect();
    assert_eq!(
        got,
        expected,
        "frontier points drifted; if intentional, re-capture GOLDEN \
         (values: {:?})",
        frontier
            .points
            .iter()
            .map(|p| (p.objectives[0], p.objectives[1]))
            .collect::<Vec<_>>()
    );
}

/// Golden (cycles, energy) frontier for the tiny budget above, in
/// canonical archive order.
const GOLDEN: &[(f64, f64)] = &[
    (84690625.0, 41086214.42310204),
    (99340625.0, 25674405.15274599),
];
