//! The acquisition loop: predictor-guided search, simulator ground truth.
//!
//! Each round the explorer (1) generates candidate configurations —
//! one-step neighbours of the current archive plus fresh global samples,
//! or the remainder of a finite pool; (2) scores every candidate with the
//! cheap predictor; (3) ranks them by an acquisition key (fewest archive
//! members dominating the prediction, then largest predicted hypervolume
//! gain, then best scalarized value, then candidate order) with the first
//! picks reserved for the per-axis predicted minima so frontier extremes
//! are captured early; (4) simulates the top-K picks through the
//! [`GroundTruth`] oracle and offers the **ground-truth** objective
//! vectors to the nondominated archive. Predictions never enter the archive — they
//! only decide what to simulate, so a bad model costs sims, not
//! correctness ("refit-free re-rank").
//!
//! Determinism: candidate order is construction order (archive canonical
//! order, then RNG draw order), all scoring fans out through the
//! order-preserving [`par_map`], and every sort key ends in a candidate
//! index — so one seed yields one frontier, byte-for-byte, for any
//! `ARCHDSE_THREADS` setting.

use crate::frontier::{Frontier, RoundStats, FRONTIER_VERSION};
use crate::objective::{Constraints, Objective, ParseError};
use crate::pareto::{hypervolume, Archive, Insert, NORMALIZED_REFERENCE};
use dse_rng::Xoshiro256;
use dse_sim::{try_simulate, CheckError, Metric, Metrics, SimOptions};
use dse_space::{neighbors, sample_raw, Config, PARAM_COUNT};
use dse_util::json::{FromJson, Json, JsonError, ToJson};
use dse_util::par::par_map;
use dse_workload::Trace;
use std::collections::HashSet;
use std::fmt;

/// The cheap oracle: per-metric point predictions.
///
/// Implementations must be deterministic — the same `(config, metric)`
/// must return the same bits on every call (the trained models are).
pub trait MetricPredictor: Sync {
    /// Predicted value of `metric` at `cfg`.
    fn predict(&self, cfg: &Config, metric: Metric) -> f64;

    /// Predicted values of `metric` at every config in `cfgs`, written
    /// to `out[..cfgs.len()]` in input order.
    ///
    /// Implementations backed by a batched forward pass override this;
    /// results must stay bit-identical to per-config
    /// [`MetricPredictor::predict`] — the explorer's determinism pin
    /// (frontier JSON byte-identity across thread counts) depends on it.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `cfgs`.
    fn predict_batch(&self, cfgs: &[Config], metric: Metric, out: &mut [f64]) {
        assert!(out.len() >= cfgs.len(), "output buffer too short");
        for (o, cfg) in out.iter_mut().zip(cfgs) {
            *o = self.predict(cfg, metric);
        }
    }
}

/// The expensive oracle: ground-truth simulation of a batch.
pub trait GroundTruth: Sync {
    /// Simulates every configuration, returning metrics in input order.
    ///
    /// # Errors
    ///
    /// Propagates simulator invariant violations.
    fn simulate(&self, cfgs: &[Config]) -> Result<Vec<Metrics>, ExploreError>;
}

/// Failure of an explorer run.
#[derive(Debug, Clone)]
pub enum ExploreError {
    /// Invalid objective, constraints, or budget.
    Invalid(String),
    /// A simulator sanitizer violation (with the offending config).
    Check(Config, CheckError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Invalid(m) => write!(f, "invalid explore request: {m}"),
            ExploreError::Check(cfg, e) => {
                write!(f, "simulation failed on config {cfg}: {e}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<ParseError> for ExploreError {
    fn from(e: ParseError) -> Self {
        ExploreError::Invalid(e.0)
    }
}

/// [`GroundTruth`] over the scalar simulator: one simulation per
/// configuration, fanned through [`par_map`] (`ARCHDSE_THREADS`), results
/// in input order and bit-identical for every thread count.
pub struct SimOracle {
    trace: Trace,
    options: SimOptions,
}

impl SimOracle {
    /// An oracle simulating `trace` under `options`.
    pub fn new(trace: Trace, options: SimOptions) -> Self {
        Self { trace, options }
    }

    /// The trace being simulated.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl GroundTruth for SimOracle {
    fn simulate(&self, cfgs: &[Config]) -> Result<Vec<Metrics>, ExploreError> {
        par_map(cfgs, |cfg| try_simulate(cfg, &self.trace, self.options))
            .into_iter()
            .zip(cfgs)
            .map(|(r, cfg)| r.map_err(|e| ExploreError::Check(*cfg, e)))
            .collect()
    }
}

/// Most ground-truth simulations one job may spend, `rounds ×
/// sims_per_round`: a frontier job is interactive, not a sweep.
pub const MAX_SIMS: usize = 10_000;

/// Most candidates one open-space round may build and score, 64× the
/// default; this also bounds a round's rejection-sampling attempts.
pub const MAX_CANDIDATES_PER_ROUND: usize = 16_384;

/// Largest archive capacity. The archive holds simulated points only, so
/// a larger cap could never fill.
pub const MAX_ARCHIVE_CAP: usize = MAX_SIMS;

/// How much work an explorer run may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreBudget {
    /// Acquisition rounds.
    pub rounds: usize,
    /// Candidates scored by the predictor per round (open-space mode;
    /// in pool mode every unsimulated pool member is scored).
    pub candidates_per_round: usize,
    /// Configurations simulated (ground truth) per round.
    pub sims_per_round: usize,
    /// Archive capacity (hypervolume-contribution pruning beyond it).
    pub archive_cap: usize,
    /// Seed for candidate sampling.
    pub seed: u64,
}

impl Default for ExploreBudget {
    fn default() -> Self {
        Self {
            rounds: 8,
            candidates_per_round: 256,
            sims_per_round: 16,
            archive_cap: 64,
            seed: 0xE8,
        }
    }
}

impl ExploreBudget {
    /// A minimal budget for tests and smoke runs.
    pub fn tiny() -> Self {
        Self {
            rounds: 3,
            candidates_per_round: 48,
            sims_per_round: 6,
            archive_cap: 16,
            seed: 0xE8,
        }
    }

    /// Total ground-truth simulations the budget allows (saturating, so
    /// an oversized budget reads as huge rather than wrapping).
    pub fn max_sims(&self) -> usize {
        self.rounds.saturating_mul(self.sims_per_round)
    }

    /// Checks every field is usable.
    ///
    /// # Errors
    ///
    /// Names the first field that is zero, `candidates_per_round` over
    /// [`MAX_CANDIDATES_PER_ROUND`], `archive_cap` over
    /// [`MAX_ARCHIVE_CAP`], or a `rounds × sims_per_round` product over
    /// [`MAX_SIMS`].
    pub fn validate(&self) -> Result<(), ParseError> {
        let fields = [
            ("rounds", self.rounds),
            ("candidates_per_round", self.candidates_per_round),
            ("sims_per_round", self.sims_per_round),
            ("archive_cap", self.archive_cap),
        ];
        if let Some((name, _)) = fields.iter().find(|(_, v)| *v == 0) {
            return Err(ParseError(format!("budget field {name} must be positive")));
        }
        let capped = [
            (
                "candidates_per_round",
                self.candidates_per_round,
                MAX_CANDIDATES_PER_ROUND,
            ),
            ("archive_cap", self.archive_cap, MAX_ARCHIVE_CAP),
        ];
        if let Some((name, v, cap)) = capped.iter().find(|(_, v, cap)| v > cap) {
            return Err(ParseError(format!(
                "budget field {name} = {v} exceeds its cap of {cap}"
            )));
        }
        match self.rounds.checked_mul(self.sims_per_round) {
            Some(n) if n <= MAX_SIMS => Ok(()),
            _ => Err(ParseError(format!(
                "budget fields rounds × sims_per_round = {} × {} exceed the \
                 {MAX_SIMS}-sim job cap",
                self.rounds, self.sims_per_round
            ))),
        }
    }
}

impl ToJson for ExploreBudget {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rounds", self.rounds.to_json()),
            ("candidates_per_round", self.candidates_per_round.to_json()),
            ("sims_per_round", self.sims_per_round.to_json()),
            ("archive_cap", self.archive_cap.to_json()),
            ("seed", self.seed.to_json()),
        ])
    }
}

impl FromJson for ExploreBudget {
    /// Missing fields take their [`Default`] values, so a request body
    /// may specify only what it overrides. The result is validated.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let d = Self::default();
        let get_usize = |key: &str, dflt: usize| -> Result<usize, JsonError> {
            match v.field(key) {
                Ok(x) => usize::from_json(x),
                Err(_) => Ok(dflt),
            }
        };
        let b = Self {
            rounds: get_usize("rounds", d.rounds)?,
            candidates_per_round: get_usize("candidates_per_round", d.candidates_per_round)?,
            sims_per_round: get_usize("sims_per_round", d.sims_per_round)?,
            archive_cap: get_usize("archive_cap", d.archive_cap)?,
            seed: match v.field("seed") {
                Ok(x) => u64::from_json(x)?,
                Err(_) => d.seed,
            },
        };
        b.validate().map_err(|e| JsonError::msg(e.0))?;
        Ok(b)
    }
}

/// Round-by-round progress handed to the [`Explorer::run_with`] callback.
pub struct RoundStatus<'a> {
    /// Rounds completed so far (1-based count; equals the last round
    /// index + 1).
    pub rounds_done: usize,
    /// Total rounds in the budget.
    pub rounds_total: usize,
    /// Snapshot of the frontier after this round (valid partial result).
    pub frontier: &'a Frontier,
}

/// Callback verdict: keep going or stop after this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Proceed to the next round.
    Continue,
    /// Stop; the returned frontier is marked `cancelled`.
    Cancel,
}

/// Candidates scored per batched-forward chunk. Fixed (never derived
/// from the thread count) so chunking — and therefore every floating-
/// point result — is identical across `ARCHDSE_THREADS` settings.
const SCORE_CHUNK: usize = 64;

/// A configured explorer run (see the module docs for the loop).
pub struct Explorer<'a> {
    /// The cheap oracle guiding acquisition.
    pub predictor: &'a dyn MetricPredictor,
    /// The expensive oracle ground-truthing the picks.
    pub oracle: &'a dyn GroundTruth,
    /// Program name recorded in the frontier (both oracles must be
    /// evaluated on this program's workload).
    pub program: String,
    /// The minimized objective.
    pub objective: Objective,
    /// Search-space bounds (on top of design-space legality).
    pub constraints: Constraints,
    /// Work budget.
    pub budget: ExploreBudget,
    /// Optional finite candidate pool: when set, the explorer only ever
    /// considers these configurations (used to compare against an
    /// exhaustively simulated grid). `None` searches the open 13-D space.
    pub pool: Option<Vec<Config>>,
}

impl Explorer<'_> {
    /// Runs the full budget.
    ///
    /// # Errors
    ///
    /// Propagates invalid inputs and simulator violations.
    pub fn run(&self) -> Result<Frontier, ExploreError> {
        self.run_with(|_| Command::Continue)
    }

    /// Runs the loop, invoking `on_round` after every round with a
    /// frontier snapshot; the callback can cancel the run.
    ///
    /// # Errors
    ///
    /// Propagates invalid inputs and simulator violations.
    pub fn run_with(
        &self,
        mut on_round: impl FnMut(&RoundStatus<'_>) -> Command,
    ) -> Result<Frontier, ExploreError> {
        self.budget.validate()?;
        let dim = self.objective.dim();
        let metrics_needed = self.objective.metrics();
        let _span = dse_obs::span!(
            "explore.run",
            rounds = self.budget.rounds,
            sims = self.budget.max_sims()
        );

        let mut rng = Xoshiro256::seed_from(self.budget.seed);
        let mut archive = Archive::new(dim, self.budget.archive_cap);
        let mut simulated: HashSet<[usize; PARAM_COUNT]> = HashSet::new();
        let mut rounds: Vec<RoundStats> = Vec::new();
        let mut predictor_calls = 0u64;
        let mut sim_calls = 0u64;
        let mut cancelled = false;

        for round in 0..self.budget.rounds {
            let _round_span = dse_obs::span!("explore.round", round = round);
            let candidates = self.candidates(&archive, &simulated, &mut rng);
            if candidates.is_empty() {
                break; // pool exhausted (or constraints left nothing)
            }

            // Score the candidate pool through the batched forward in
            // fixed-size chunks: chunk boundaries depend only on the
            // candidate count (never the thread count) and `par_map` is
            // order-preserving, so the scored list is aligned with
            // `candidates` and byte-identical across ARCHDSE_THREADS.
            let needed = &metrics_needed;
            let predictor = self.predictor;
            let chunks: Vec<(usize, usize)> = (0..candidates.len())
                .step_by(SCORE_CHUNK)
                .map(|s| (s, (s + SCORE_CHUNK).min(candidates.len())))
                .collect();
            let scored_chunks: Vec<Vec<Vec<f64>>> = par_map(&chunks, |&(s, e)| {
                let cfgs = &candidates[s..e];
                let mut cols: [Vec<f64>; 4] = Default::default();
                for &m in needed {
                    let col = &mut cols[m as usize];
                    col.resize(cfgs.len(), 0.0);
                    predictor.predict_batch(cfgs, m, col);
                }
                (0..cfgs.len())
                    .map(|r| {
                        let mut by_metric = [0.0f64; 4];
                        for &m in needed {
                            by_metric[m as usize] = cols[m as usize][r];
                        }
                        self.objective.eval_predicted(&by_metric)
                    })
                    .collect()
            });
            let scored: Vec<Vec<f64>> = scored_chunks.into_iter().flatten().collect();
            predictor_calls += (candidates.len() * metrics_needed.len()) as u64;
            dse_obs::counter("explore_candidates_scored").add(candidates.len() as u64);

            let picks = acquire(&candidates, &scored, &archive, self.budget.sims_per_round);
            let metrics = self.oracle.simulate(&picks)?;
            sim_calls += picks.len() as u64;
            dse_obs::counter("explore_sims").add(picks.len() as u64);

            let mut added = 0usize;
            for (cfg, m) in picks.iter().zip(metrics.iter()) {
                simulated.insert(cfg.to_indices());
                if archive.insert(*cfg, self.objective.eval(m), round) == Insert::Added {
                    added += 1;
                }
            }

            let hv = archive.normalized_hypervolume();
            dse_obs::gauge("explore_hypervolume").set(hv);
            rounds.push(RoundStats {
                round,
                scored: candidates.len(),
                simulated: picks.len(),
                added,
                archive: archive.len(),
                hypervolume: hv,
            });

            let snapshot =
                self.assemble(&archive, rounds.clone(), predictor_calls, sim_calls, false);
            let status = RoundStatus {
                rounds_done: round + 1,
                rounds_total: self.budget.rounds,
                frontier: &snapshot,
            };
            if on_round(&status) == Command::Cancel {
                cancelled = true;
                break;
            }
        }

        Ok(self.assemble(&archive, rounds, predictor_calls, sim_calls, cancelled))
    }

    fn assemble(
        &self,
        archive: &Archive,
        rounds: Vec<RoundStats>,
        predictor_calls: u64,
        sim_calls: u64,
        cancelled: bool,
    ) -> Frontier {
        Frontier {
            version: FRONTIER_VERSION,
            program: self.program.clone(),
            objective: self.objective.clone(),
            constraints: self.constraints.clone(),
            budget: self.budget,
            points: archive.entries().to_vec(),
            rounds,
            predictor_calls,
            sim_calls,
            cancelled,
        }
    }

    /// Candidate generation for one round, in deterministic order:
    /// pool mode returns every unsimulated pool member; open mode takes
    /// one-step neighbours of the archive (exploitation) and fills the
    /// rest of the quota with fresh constrained global samples
    /// (exploration).
    fn candidates(
        &self,
        archive: &Archive,
        simulated: &HashSet<[usize; PARAM_COUNT]>,
        rng: &mut Xoshiro256,
    ) -> Vec<Config> {
        let mut out: Vec<Config> = Vec::new();
        let mut seen: HashSet<[usize; PARAM_COUNT]> = HashSet::new();
        let mut push = |cfg: Config, out: &mut Vec<Config>| {
            if self.constraints.allows(&cfg)
                && !simulated.contains(&cfg.to_indices())
                && seen.insert(cfg.to_indices())
            {
                out.push(cfg);
            }
        };
        if let Some(pool) = &self.pool {
            for cfg in pool {
                push(*cfg, &mut out);
            }
            return out;
        }
        let quota = self.budget.candidates_per_round;
        for entry in archive.entries() {
            if out.len() >= quota / 2 {
                break;
            }
            for n in neighbors(&entry.config) {
                push(n, &mut out);
            }
        }
        // Rejection-sample the rest. The attempt cap only matters under
        // pathologically tight constraints; a short round is preferable
        // to a stuck one.
        let mut attempts = 0usize;
        let max_attempts = 10_000 + 200 * quota;
        while out.len() < quota && attempts < max_attempts {
            attempts += 1;
            let cfg = sample_raw(rng);
            if cfg.is_legal() {
                push(cfg, &mut out);
            }
        }
        out
    }
}

/// Ranks candidates and returns the top `k` to simulate.
///
/// The first picks are the per-axis predicted minima (frontier extremes);
/// the rest follow the acquisition key: fewest archive members dominating
/// the prediction, largest predicted normalized hypervolume gain, best
/// scalarized (sum of normalized axes) value, candidate order.
fn acquire(candidates: &[Config], scored: &[Vec<f64>], archive: &Archive, k: usize) -> Vec<Config> {
    debug_assert_eq!(candidates.len(), scored.len());
    let n = candidates.len();
    if n == 0 {
        return Vec::new();
    }
    let dim = scored[0].len();

    // One shared normalization frame over the archive and all predictions,
    // so candidate gains are comparable.
    let mut lo = vec![f64::INFINITY; dim];
    let mut hi = vec![f64::NEG_INFINITY; dim];
    let archive_pts: Vec<&[f64]> = archive
        .entries()
        .iter()
        .map(|e| e.objectives.as_slice())
        .collect();
    for p in archive_pts
        .iter()
        .copied()
        .chain(scored.iter().map(Vec::as_slice))
    {
        for (a, &v) in p.iter().enumerate() {
            if v < lo[a] {
                lo[a] = v;
            }
            if v > hi[a] {
                hi[a] = v;
            }
        }
    }
    let norm = |p: &[f64]| -> Vec<f64> {
        p.iter()
            .enumerate()
            .map(|(a, &v)| {
                let span = hi[a] - lo[a];
                if span > 0.0 {
                    (v - lo[a]) / span
                } else {
                    0.0
                }
            })
            .collect()
    };
    let reference = vec![NORMALIZED_REFERENCE; dim];
    let archive_normed: Vec<Vec<f64>> = archive_pts.iter().map(|p| norm(p)).collect();
    let hv_base = hypervolume(&archive_normed, &reference);

    struct Key {
        dominated: usize,
        gain: f64,
        scalar: f64,
        idx: usize,
    }
    let keys: Vec<Key> = scored
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let sn = norm(s);
            let mut with = archive_normed.clone();
            with.push(sn.clone());
            Key {
                dominated: archive.dominating(s),
                gain: hypervolume(&with, &reference) - hv_base,
                scalar: sn.iter().sum(),
                idx: i,
            }
        })
        .collect();

    let mut picks: Vec<usize> = Vec::with_capacity(k);
    // Frontier extremes first: per-axis predicted argmin.
    for a in 0..dim {
        if picks.len() >= k {
            break;
        }
        let mut best = 0usize;
        for i in 1..n {
            if scored[i][a].total_cmp(&scored[best][a]) == std::cmp::Ordering::Less {
                best = i;
            }
        }
        if !picks.contains(&best) {
            picks.push(best);
        }
    }
    let mut rest: Vec<usize> = (0..n).filter(|i| !picks.contains(i)).collect();
    rest.sort_by(|&a, &b| {
        keys[a]
            .dominated
            .cmp(&keys[b].dominated)
            .then_with(|| keys[b].gain.total_cmp(&keys[a].gain))
            .then_with(|| keys[a].scalar.total_cmp(&keys[b].scalar))
            .then_with(|| keys[a].idx.cmp(&keys[b].idx))
    });
    picks.extend(rest.into_iter().take(k.saturating_sub(picks.len())));
    picks.into_iter().map(|i| candidates[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::distinct_configs;

    /// A predictor that reads a synthetic smooth function of the config —
    /// enough structure for acquisition to beat random picking.
    struct Toy;
    impl MetricPredictor for Toy {
        fn predict(&self, cfg: &Config, metric: Metric) -> f64 {
            toy_metrics(cfg).get(metric)
        }
    }

    /// A ground truth identical to the toy predictor (perfect model).
    struct ToyTruth;
    impl GroundTruth for ToyTruth {
        fn simulate(&self, cfgs: &[Config]) -> Result<Vec<Metrics>, ExploreError> {
            Ok(cfgs.iter().map(toy_metrics).collect())
        }
    }

    fn toy_metrics(cfg: &Config) -> Metrics {
        // Cycles depend on the core structures, energy mostly on the
        // memory hierarchy — the axes conflict but are not a single
        // 1-D curve, so the pool has a proper (strict-subset) front.
        let f = cfg.to_features();
        let core: f64 = f[..7].iter().sum::<f64>() / 7.0;
        let mem: f64 = f[7..].iter().sum::<f64>() / 6.0;
        let cycles = 1000.0 * (1.5 - core);
        let energy = 100.0 * (0.5 + 0.3 * core + mem);
        Metrics {
            cycles,
            energy,
            ed: cycles * energy,
            edd: cycles * cycles * energy,
        }
    }

    #[test]
    fn explorer_finds_the_pool_front() {
        let pool = distinct_configs(64);
        let objective = Objective::parse("cycles,energy").unwrap();
        // Exhaustive truth over the pool.
        let truth: Vec<Vec<f64>> = pool
            .iter()
            .map(|c| objective.eval(&toy_metrics(c)))
            .collect();
        let true_front: HashSet<[usize; PARAM_COUNT]> = crate::pareto::pareto_indices(&truth)
            .into_iter()
            .map(|i| pool[i].to_indices())
            .collect();
        assert!(
            true_front.len() < pool.len() / 2,
            "toy front degenerate: {} of {}",
            true_front.len(),
            pool.len()
        );
        let ex = Explorer {
            predictor: &Toy,
            oracle: &ToyTruth,
            program: "toy".to_string(),
            objective,
            constraints: Constraints::none(),
            budget: ExploreBudget {
                rounds: 4,
                candidates_per_round: 64,
                sims_per_round: 8,
                archive_cap: 64,
                seed: 7,
            },
            pool: Some(pool),
        };
        let f = ex.run().unwrap();
        // With a perfect predictor the front must be fully recovered
        // within half the exhaustive budget (32 sims over 64 points).
        let got: HashSet<[usize; PARAM_COUNT]> =
            f.points.iter().map(|p| p.config.to_indices()).collect();
        let hit = true_front.intersection(&got).count();
        assert_eq!(hit, true_front.len(), "missed part of the true front");
        assert!(f.sim_calls <= 32);
    }

    #[test]
    fn cancel_stops_after_one_round() {
        let ex = Explorer {
            predictor: &Toy,
            oracle: &ToyTruth,
            program: "toy".to_string(),
            objective: Objective::parse("cycles,energy").unwrap(),
            constraints: Constraints::none(),
            budget: ExploreBudget::tiny(),
            pool: Some(distinct_configs(32)),
        };
        let f = ex.run_with(|_| Command::Cancel).unwrap();
        assert!(f.cancelled);
        assert_eq!(f.rounds.len(), 1);
        assert!(!f.points.is_empty());
    }

    #[test]
    fn constraints_limit_the_search() {
        let pool = distinct_configs(64);
        let constraints = Constraints::parse("width<=4").unwrap();
        let ex = Explorer {
            predictor: &Toy,
            oracle: &ToyTruth,
            program: "toy".to_string(),
            objective: Objective::parse("cycles").unwrap(),
            constraints: constraints.clone(),
            budget: ExploreBudget::tiny(),
            pool: Some(pool),
        };
        let f = ex.run().unwrap();
        assert!(f.points.iter().all(|p| constraints.allows(&p.config)));
        // Scalar objective: the frontier is a single point.
        assert_eq!(f.points.len(), 1);
    }

    #[test]
    fn budget_validation_rejects_zero_and_huge() {
        let mut b = ExploreBudget::default();
        b.rounds = 0;
        assert!(b.validate().is_err());
        let b = ExploreBudget {
            rounds: 1000,
            sims_per_round: 100,
            ..ExploreBudget::default()
        };
        assert!(b.validate().is_err());
    }

    #[test]
    fn budget_validation_names_the_field_and_never_wraps() {
        let err = |b: ExploreBudget| b.validate().unwrap_err().0;
        let d = ExploreBudget::default();
        // 2^32 × 2^32 wraps to 0 in 64-bit arithmetic.
        let wrap = ExploreBudget {
            rounds: 1 << 32,
            sims_per_round: 1 << 32,
            ..d
        };
        assert_eq!(wrap.max_sims(), usize::MAX);
        assert!(err(wrap).contains("rounds × sims_per_round"));
        let e = err(ExploreBudget {
            candidates_per_round: 1_000_000_000_000,
            ..d
        });
        assert!(e.contains("candidates_per_round"), "{e}");
        let e = err(ExploreBudget {
            archive_cap: MAX_ARCHIVE_CAP + 1,
            ..d
        });
        assert!(e.contains("archive_cap"), "{e}");
        let e = err(ExploreBudget {
            sims_per_round: 0,
            ..d
        });
        assert!(e.contains("sims_per_round"), "{e}");
        let at_caps = ExploreBudget {
            rounds: 1,
            candidates_per_round: MAX_CANDIDATES_PER_ROUND,
            sims_per_round: MAX_SIMS,
            archive_cap: MAX_ARCHIVE_CAP,
            ..d
        };
        assert!(at_caps.validate().is_ok());
    }
}
