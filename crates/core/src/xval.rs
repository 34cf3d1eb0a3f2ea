//! Cross-validation and sweep experiments (Figs 9–14 of the paper).
//!
//! All experiments follow the paper's protocol (§7.1): N-fold
//! leave-one-out cross-validation over benchmarks, repeated `repeats`
//! times with different random training/response samples, reporting the
//! relative mean absolute error and the correlation coefficient on the
//! configurations not shown to the model.

use crate::arch_centric::{actual_design_rows, fit_combiner, OfflineModel};
use crate::dataset::SuiteDataset;
use crate::program_specific::ProgramSpecificPredictor;
use dse_ml::stats::{correlation, mean, rmae, std_dev};
use dse_ml::MlpConfig;
use dse_rng::Xoshiro256;
use dse_sim::Metric;
use dse_util::par::par_map;
use dse_workload::Suite;

/// Shared experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Simulations per training program for the offline ANNs (paper: 512).
    pub t: usize,
    /// Responses from each new program (paper: 32).
    pub r: usize,
    /// Experiment repetitions with fresh random samples (paper: 20).
    pub repeats: usize,
    /// Root seed.
    pub seed: u64,
    /// ANN hyper-parameters.
    pub mlp: MlpConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            t: 512,
            r: 32,
            repeats: 20,
            seed: 0xE7A1,
            mlp: MlpConfig::default(),
        }
    }
}

/// Mean and standard deviation over repeats (and programs, where noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean value.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
}

impl Summary {
    /// Summarises a sample.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Self {
        Self {
            mean: mean(xs),
            std: std_dev(xs),
        }
    }
}

/// Per-program evaluation result (Figs 11 and 12).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramEval {
    /// Program name.
    pub program: String,
    /// Error of the fitted model on its own responses (the paper's
    /// "training error", used to flag unusual programs).
    pub train_rmae: Summary,
    /// Error on the unseen remainder of the space ("actual"/testing
    /// error).
    pub test_rmae: Summary,
    /// Correlation coefficient on the unseen remainder.
    pub corr: Summary,
}

/// One point of a sweep (Figs 9, 10, 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Swept quantity (T, R, or the number of training programs).
    pub x: usize,
    /// rmae over programs × repeats.
    pub rmae: Summary,
    /// Correlation over programs × repeats.
    pub corr: Summary,
}

/// One row of the model comparison (Fig 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareRow {
    /// Simulations of the new program given to both models.
    pub sims: usize,
    /// Program-specific predictor rmae.
    pub ps_rmae: Summary,
    /// Program-specific predictor correlation.
    pub ps_corr: Summary,
    /// Architecture-centric predictor rmae.
    pub ac_rmae: Summary,
    /// Architecture-centric predictor correlation.
    pub ac_corr: Summary,
}

fn suite_rows(ds: &SuiteDataset, suite: Suite) -> Vec<usize> {
    (0..ds.benchmarks.len())
        .filter(|&i| ds.benchmarks[i].suite == suite)
        .collect()
}

fn repeat_seed(root: u64, tag: u64, repeat: usize) -> u64 {
    let rng = Xoshiro256::seed_from(root ^ tag.wrapping_mul(0x9E37_79B9));
    rng.child(repeat as u64).next_u64()
}

/// Per-repeat pools of program-specific ANNs, held as their predictions
/// at every shared configuration: a leave-one-out fold's ensemble is a
/// subset of its repeat's pool, so each ANN runs once per configuration
/// per repeat rather than once per fold.
struct PoolTable<'a> {
    ds: &'a SuiteDataset,
    metric: Metric,
    /// Dataset row of each pool member.
    rows: Vec<usize>,
    /// `preds[k][c * rows.len() + p]`: member `p`'s prediction at
    /// configuration `c` in repeat `k`.
    preds: Vec<Vec<f64>>,
}

impl<'a> PoolTable<'a> {
    /// Trains every repeat's pool over `rows` (seeded from `tag`) as one
    /// work list and tabulates its predictions.
    fn train(
        ds: &'a SuiteDataset,
        rows: Vec<usize>,
        metric: Metric,
        cfg: &EvalConfig,
        tag: u64,
    ) -> Self {
        let _span = dse_obs::span!("xval.pools", programs = rows.len(), repeats = cfg.repeats);
        let seeds: Vec<u64> = (0..cfg.repeats)
            .map(|k| repeat_seed(cfg.seed, tag, k))
            .collect();
        let pools = OfflineModel::train_pools(ds, &rows, metric, cfg.t, &cfg.mlp, &seeds);
        let (n, p) = (ds.n_configs(), rows.len());
        let flat = ds.features().concat();
        let preds = par_map(&pools, |pool| {
            let (mut col, mut table) = (vec![0.0; n], vec![0.0; n * p]);
            for (m, model) in pool.iter().enumerate() {
                model.net().predict_batch_into(&flat, n, &mut col);
                for (c, v) in col.iter().enumerate() {
                    table[c * p + m] = *v;
                }
            }
            table
        });
        Self {
            ds,
            metric,
            rows,
            preds,
        }
    }

    /// Runs fold jobs as one [`par_map`] work list, results in job order.
    fn folds<J: Sync, R: Send>(&self, jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R> {
        let _span = dse_obs::span!("xval.folds", folds = jobs.len());
        par_map(jobs, f)
    }

    /// One fold of repeat `k`: fits the response weights of the ensemble
    /// of pool `members` on `target_row`'s responses at `response_idxs`
    /// (the arithmetic of [`OfflineModel::fit_responses`]), predicts every
    /// configuration from the table (that of
    /// [`crate::arch_centric::ArchCentricPredictor::predict`]), and
    /// returns (train rmae on the responses, test rmae and correlation on
    /// the rest).
    fn fold(
        &self,
        k: usize,
        members: &[usize],
        target_row: usize,
        response_idxs: &[usize],
    ) -> (f64, f64, f64) {
        let (ds, n, p) = (self.ds, self.ds.n_configs(), self.rows.len());
        let target = &ds.benchmarks[target_row];
        let values: Vec<f64> = response_idxs
            .iter()
            .map(|&i| target.metrics[i].get(self.metric))
            .collect();
        let rows: Vec<usize> = members.iter().map(|&m| self.rows[m]).collect();
        let reg = fit_combiner(
            &actual_design_rows(ds, &rows, self.metric, response_idxs),
            &values,
        );
        let mut in_response = vec![false; n];
        for &i in response_idxs {
            in_response[i] = true;
        }
        let mut per_program = vec![0.0; members.len()];
        let (mut train, mut test) = ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
        for (c, table) in self.preds[k].chunks_exact(p).enumerate() {
            for (v, &m) in per_program.iter_mut().zip(members) {
                *v = table[m];
            }
            let side = if in_response[c] {
                &mut train
            } else {
                &mut test
            };
            side.0.push(reg.predict(&per_program));
            side.1.push(target.metrics[c].get(self.metric));
        }
        (
            rmae(&train.0, &train.1),
            rmae(&test.0, &test.1),
            correlation(&test.0, &test.1),
        )
    }

    /// Leave-one-out folds over `rows` (pool members by dataset row) for
    /// every response count of `rs`: one result per (r, program, repeat),
    /// in that order.
    fn loo_folds(&self, rows: &[usize], rs: &[usize], cfg: &EvalConfig) -> Vec<(f64, f64, f64)> {
        let jobs: Vec<(usize, usize, usize)> = rs
            .iter()
            .flat_map(|&r| {
                rows.iter()
                    .flat_map(move |&row| (0..cfg.repeats).map(move |k| (r, row, k)))
            })
            .collect();
        self.folds(&jobs, |&(r, target_row, k)| {
            let members: Vec<usize> = rows.iter().copied().filter(|&x| x != target_row).collect();
            let mut rng =
                Xoshiro256::seed_from(repeat_seed(cfg.seed, 0x1003 + target_row as u64, k));
            let response_idxs = rng.sample_indices(self.ds.n_configs(), r);
            self.fold(k, &members, target_row, &response_idxs)
        })
    }
}

/// The leave-one-out pools: one model per benchmark of `ds`, so pool
/// member `p` is dataset row `p`.
fn model_pools<'a>(ds: &'a SuiteDataset, metric: Metric, cfg: &EvalConfig) -> PoolTable<'a> {
    PoolTable::train(ds, (0..ds.benchmarks.len()).collect(), metric, cfg, 0x0FF1)
}

/// Regroups per-(program, repeat) fold results into per-program summaries.
fn program_evals(
    ds: &SuiteDataset,
    rows: &[usize],
    results: &[(f64, f64, f64)],
    repeats: usize,
) -> Vec<ProgramEval> {
    rows.iter()
        .zip(results.chunks(repeats))
        .map(|(&row, chunk)| ProgramEval {
            program: ds.benchmarks[row].name.clone(),
            train_rmae: Summary::of(&chunk.iter().map(|x| x.0).collect::<Vec<f64>>()),
            test_rmae: Summary::of(&chunk.iter().map(|x| x.1).collect::<Vec<f64>>()),
            corr: Summary::of(&chunk.iter().map(|x| x.2).collect::<Vec<f64>>()),
        })
        .collect()
}

/// Leave-one-out evaluation of the architecture-centric model over every
/// benchmark of `suite` within `ds` (Fig 11 when run on SPEC).
///
/// # Panics
///
/// Panics if `ds` holds fewer than two benchmarks of `suite`.
pub fn loo(ds: &SuiteDataset, suite: Suite, metric: Metric, cfg: &EvalConfig) -> Vec<ProgramEval> {
    let _span = dse_obs::span!("xval.loo", metric = metric, repeats = cfg.repeats);
    let rows = suite_rows(ds, suite);
    assert!(rows.len() >= 2, "need at least two benchmarks in the suite");
    let results = model_pools(ds, metric, cfg).loo_folds(&rows, &[cfg.r], cfg);
    program_evals(ds, &rows, &results, cfg.repeats)
}

/// Cross-suite evaluation: train on every benchmark of `train_suite`,
/// predict each benchmark of `test_suite` (Fig 12: SPEC → MiBench).
///
/// # Panics
///
/// Panics if either suite is absent from `ds`.
pub fn cross_suite(
    ds: &SuiteDataset,
    train_suite: Suite,
    test_suite: Suite,
    metric: Metric,
    cfg: &EvalConfig,
) -> Vec<ProgramEval> {
    let _span = dse_obs::span!("xval.cross_suite", metric = metric, repeats = cfg.repeats);
    let train_rows = suite_rows(ds, train_suite);
    let test_rows = suite_rows(ds, test_suite);
    assert!(!train_rows.is_empty(), "training suite absent from dataset");
    assert!(!test_rows.is_empty(), "test suite absent from dataset");
    // Offline ensembles depend only on the repeat, not the test program.
    let pools = PoolTable::train(ds, train_rows.clone(), metric, cfg, 0xC805);
    let members: Vec<usize> = (0..train_rows.len()).collect();
    let jobs: Vec<(usize, usize)> = test_rows
        .iter()
        .flat_map(|&row| (0..cfg.repeats).map(move |k| (row, k)))
        .collect();
    let results = pools.folds(&jobs, |&(target_row, k)| {
        let mut rng = Xoshiro256::seed_from(repeat_seed(cfg.seed, 0x2003 + target_row as u64, k));
        let response_idxs = rng.sample_indices(ds.n_configs(), cfg.r);
        pools.fold(k, &members, target_row, &response_idxs)
    });
    program_evals(ds, &test_rows, &results, cfg.repeats)
}

/// One program-specific fit: train on `t` random samples of `row` and
/// test on the rest. Returns (rmae, correlation) on the held-out space.
fn ps_job(
    ds: &SuiteDataset,
    features: &[Vec<f64>],
    metric: Metric,
    cfg: &EvalConfig,
    row: usize,
    k: usize,
    t: usize,
) -> (f64, f64) {
    let mut rng = Xoshiro256::seed_from(repeat_seed(cfg.seed, 0x9001 + row as u64, k));
    let idx = rng.sample_indices(ds.n_configs(), t.min(ds.n_configs()));
    let bench = &ds.benchmarks[row];
    let tf: Vec<Vec<f64>> = idx.iter().map(|&i| features[i].clone()).collect();
    let tv: Vec<f64> = idx.iter().map(|&i| bench.metrics[i].get(metric)).collect();
    let mlp = MlpConfig {
        seed: rng.next_u64(),
        ..cfg.mlp
    };
    let p = ProgramSpecificPredictor::train(&bench.name, metric, &tf, &tv, &mlp);
    let mut mask = vec![false; ds.n_configs()];
    for &i in &idx {
        mask[i] = true;
    }
    let mut preds = Vec::new();
    let mut actual = Vec::new();
    for i in 0..ds.n_configs() {
        if !mask[i] {
            preds.push(p.predict(&features[i]));
            actual.push(bench.metrics[i].get(metric));
        }
    }
    (rmae(&preds, &actual), correlation(&preds, &actual))
}

/// Program-specific accuracy at each budget of `ts`, with the whole
/// budget × program × repeat grid flattened into one [`par_map`] list.
fn ps_points(
    ds: &SuiteDataset,
    rows: &[usize],
    metric: Metric,
    ts: &[usize],
    cfg: &EvalConfig,
) -> Vec<SweepPoint> {
    let features = ds.features();
    let jobs: Vec<(usize, usize, usize)> = ts
        .iter()
        .flat_map(|&t| {
            rows.iter()
                .flat_map(move |&row| (0..cfg.repeats).map(move |k| (t, row, k)))
        })
        .collect();
    let results: Vec<(f64, f64)> = par_map(&jobs, |&(t, row, k)| {
        ps_job(ds, &features, metric, cfg, row, k, t)
    });
    let per_point = rows.len() * cfg.repeats;
    ts.iter()
        .zip(results.chunks(per_point))
        .map(|(&t, chunk)| SweepPoint {
            x: t,
            rmae: Summary::of(&chunk.iter().map(|x| x.0).collect::<Vec<f64>>()),
            corr: Summary::of(&chunk.iter().map(|x| x.1).collect::<Vec<f64>>()),
        })
        .collect()
}

/// Evaluates a *program-specific* predictor trained on `t` samples of
/// each program and tested on the rest, averaged over programs × repeats
/// (Fig 9, and the program-specific side of Fig 13).
pub fn program_specific_accuracy(
    ds: &SuiteDataset,
    suite: Suite,
    metric: Metric,
    t: usize,
    cfg: &EvalConfig,
) -> SweepPoint {
    let rows = suite_rows(ds, suite);
    ps_points(ds, &rows, metric, &[t], cfg).remove(0)
}

/// Sweeps the number of training simulations T for the program-specific
/// predictors (Fig 9) as one flattened work list over every (T, program,
/// repeat) cell.
pub fn sweep_t(
    ds: &SuiteDataset,
    suite: Suite,
    metric: Metric,
    ts: &[usize],
    cfg: &EvalConfig,
) -> Vec<SweepPoint> {
    let _span = dse_obs::span!("xval.sweep_t", metric = metric, points = ts.len());
    let rows = suite_rows(ds, suite);
    ps_points(ds, &rows, metric, ts, cfg)
}

/// Architecture-centric sweep points for each response count of `rs`,
/// with the response-count × program × repeat grid flattened into one
/// work list over the shared pools. Each point averages the per-program
/// repeat means, matching [`loo`]'s summaries.
fn arch_points(
    pools: &PoolTable,
    rows: &[usize],
    rs: &[usize],
    cfg: &EvalConfig,
) -> Vec<SweepPoint> {
    let results = pools.loo_folds(rows, rs, cfg);
    let per_point = rows.len() * cfg.repeats;
    rs.iter()
        .zip(results.chunks(per_point))
        .map(|(&r, chunk)| {
            let errs: Vec<f64> = chunk
                .chunks(cfg.repeats)
                .map(|per_row| mean(&per_row.iter().map(|x| x.1).collect::<Vec<f64>>()))
                .collect();
            let corrs: Vec<f64> = chunk
                .chunks(cfg.repeats)
                .map(|per_row| mean(&per_row.iter().map(|x| x.2).collect::<Vec<f64>>()))
                .collect();
            SweepPoint {
                x: r,
                rmae: Summary::of(&errs),
                corr: Summary::of(&corrs),
            }
        })
        .collect()
}

/// Architecture-centric accuracy at one response count, averaged over
/// leave-one-out programs × repeats (one point of Fig 10 / Fig 13).
pub fn arch_centric_accuracy(
    ds: &SuiteDataset,
    suite: Suite,
    metric: Metric,
    r: usize,
    cfg: &EvalConfig,
) -> SweepPoint {
    let rows = suite_rows(ds, suite);
    arch_points(&model_pools(ds, metric, cfg), &rows, &[r], cfg).remove(0)
}

/// Sweeps the number of responses R for the architecture-centric model
/// (Fig 10). The offline ensembles are trained once and shared across
/// every point of the sweep (they do not depend on R), and all points'
/// folds run as a single flattened work list.
pub fn sweep_r(
    ds: &SuiteDataset,
    suite: Suite,
    metric: Metric,
    rs: &[usize],
    cfg: &EvalConfig,
) -> Vec<SweepPoint> {
    let _span = dse_obs::span!("xval.sweep_r", metric = metric, points = rs.len());
    let rows = suite_rows(ds, suite);
    arch_points(&model_pools(ds, metric, cfg), &rows, rs, cfg)
}

/// Head-to-head comparison at equal simulation budgets (Fig 13). Both
/// sides sweep every budget through one flattened work list each; the
/// architecture-centric offline ensembles are shared across budgets.
pub fn compare(
    ds: &SuiteDataset,
    suite: Suite,
    metric: Metric,
    sims: &[usize],
    cfg: &EvalConfig,
) -> Vec<CompareRow> {
    let _span = dse_obs::span!("xval.compare", metric = metric, budgets = sims.len());
    let rows = suite_rows(ds, suite);
    let ps = ps_points(ds, &rows, metric, sims, cfg);
    let ac = arch_points(&model_pools(ds, metric, cfg), &rows, sims, cfg);
    sims.iter()
        .zip(ps.into_iter().zip(ac))
        .map(|(&s, (ps, ac))| CompareRow {
            sims: s,
            ps_rmae: ps.rmae,
            ps_corr: ps.corr,
            ac_rmae: ac.rmae,
            ac_corr: ac.corr,
        })
        .collect()
}

/// Accuracy versus the number of offline training programs (Fig 14):
/// for each left-out program, `n` training programs are drawn at random
/// from the remainder. All (n, program, repeat) cells run as one
/// flattened [`par_map`] work list.
pub fn sweep_train_programs(
    ds: &SuiteDataset,
    suite: Suite,
    metric: Metric,
    ns: &[usize],
    cfg: &EvalConfig,
) -> Vec<SweepPoint> {
    let _span = dse_obs::span!(
        "xval.sweep_train_programs",
        metric = metric,
        points = ns.len()
    );
    let rows = suite_rows(ds, suite);
    for &n in ns {
        assert!(
            n >= 1 && n < rows.len(),
            "training-set size {n} outside [1, {})",
            rows.len()
        );
    }
    let pools = model_pools(ds, metric, cfg);
    let jobs: Vec<(usize, usize, usize)> = ns
        .iter()
        .flat_map(|&n| {
            rows.iter()
                .flat_map(move |&row| (0..cfg.repeats).map(move |k| (n, row, k)))
        })
        .collect();
    let results: Vec<(f64, f64)> = pools.folds(&jobs, |&(n, target_row, k)| {
        let mut rng = Xoshiro256::seed_from(repeat_seed(
            cfg.seed,
            0x1400 + target_row as u64 + ((n as u64) << 8),
            k,
        ));
        let others: Vec<usize> = rows.iter().copied().filter(|&r| r != target_row).collect();
        let chosen = rng.sample_indices(others.len(), n);
        let members: Vec<usize> = chosen.iter().map(|&i| others[i]).collect();
        let response_idxs = rng.sample_indices(ds.n_configs(), cfg.r);
        let (_, te, c) = pools.fold(k, &members, target_row, &response_idxs);
        (te, c)
    });
    let per_point = rows.len() * cfg.repeats;
    ns.iter()
        .zip(results.chunks(per_point))
        .map(|(&n, chunk)| SweepPoint {
            x: n,
            rmae: Summary::of(&chunk.iter().map(|x| x.0).collect::<Vec<f64>>()),
            corr: Summary::of(&chunk.iter().map(|x| x.1).collect::<Vec<f64>>()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, SuiteDataset};

    fn tiny_cfg() -> EvalConfig {
        EvalConfig {
            t: 30,
            r: 10,
            repeats: 2,
            seed: 5,
            mlp: MlpConfig {
                epochs: 60,
                ..MlpConfig::default()
            },
        }
    }

    fn mixed_dataset() -> SuiteDataset {
        let mut profiles: Vec<_> = dse_workload::suites::spec2000()
            .into_iter()
            .take(4)
            .collect();
        profiles.extend(dse_workload::suites::mibench().into_iter().take(2));
        let spec = DatasetSpec {
            n_configs: 60,
            ..DatasetSpec::tiny()
        };
        SuiteDataset::generate(&profiles, &spec)
    }

    #[test]
    fn loo_reports_every_program() {
        let ds = mixed_dataset();
        let evals = loo(&ds, Suite::SpecCpu2000, Metric::Cycles, &tiny_cfg());
        assert_eq!(evals.len(), 4);
        for e in &evals {
            assert!(e.test_rmae.mean.is_finite());
            assert!(e.corr.mean >= -1.0 && e.corr.mean <= 1.0);
        }
    }

    #[test]
    fn loo_is_deterministic() {
        let ds = mixed_dataset();
        let a = loo(&ds, Suite::SpecCpu2000, Metric::Energy, &tiny_cfg());
        let b = loo(&ds, Suite::SpecCpu2000, Metric::Energy, &tiny_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn cross_suite_tests_only_target_suite() {
        let ds = mixed_dataset();
        let evals = cross_suite(
            &ds,
            Suite::SpecCpu2000,
            Suite::MiBench,
            Metric::Cycles,
            &tiny_cfg(),
        );
        assert_eq!(evals.len(), 2);
        let names: Vec<&str> = evals.iter().map(|e| e.program.as_str()).collect();
        assert!(names.contains(&"basicmath"));
    }

    #[test]
    fn sweep_t_improves_with_more_data() {
        let ds = mixed_dataset();
        let pts = sweep_t(
            &ds,
            Suite::SpecCpu2000,
            Metric::Cycles,
            &[6, 48],
            &tiny_cfg(),
        );
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].rmae.mean < pts[0].rmae.mean,
            "48 samples ({}) should beat 6 ({})",
            pts[1].rmae.mean,
            pts[0].rmae.mean
        );
    }

    #[test]
    fn compare_produces_rows_for_each_budget() {
        let ds = mixed_dataset();
        let rows = compare(
            &ds,
            Suite::SpecCpu2000,
            Metric::Cycles,
            &[8, 16],
            &tiny_cfg(),
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.ps_rmae.mean.is_finite());
            assert!(r.ac_rmae.mean.is_finite());
        }
    }

    #[test]
    fn sweep_train_programs_accepts_valid_sizes() {
        let ds = mixed_dataset();
        let pts = sweep_train_programs(
            &ds,
            Suite::SpecCpu2000,
            Metric::Cycles,
            &[1, 3],
            &tiny_cfg(),
        );
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.rmae.mean.is_finite()));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn sweep_train_programs_rejects_too_many() {
        let ds = mixed_dataset();
        sweep_train_programs(&ds, Suite::SpecCpu2000, Metric::Cycles, &[4], &tiny_cfg());
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
    }
}
