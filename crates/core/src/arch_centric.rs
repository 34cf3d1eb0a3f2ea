//! The architecture-centric predictor (§5 of the paper).
//!
//! Offline, one program-specific ANN is trained per training program
//! (`T` simulations each). Online, a new program is characterised by just
//! `R` simulated "responses": a linear regressor is fitted that expresses
//! the new program's space as a weighted sum of the training programs'
//! spaces (equation 5). The regressor's design matrix uses the training
//! programs' *actual* simulated values at the response configurations —
//! available without new simulations because every benchmark was simulated
//! on the same shared sample (§5.3.1) — while predictions for unseen
//! configurations flow through the ANNs (Fig 6).

use crate::dataset::SuiteDataset;
use crate::program_specific::ProgramSpecificPredictor;
use dse_ml::{LinearRegression, MlpConfig};
use dse_rng::Xoshiro256;
use dse_sim::Metric;
use dse_util::par::par_map;

/// Where the linear regressor's design matrix comes from when fitting the
/// response weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponseSource {
    /// The training programs' actual simulated values at the response
    /// configurations (the paper's method — no extra simulation needed).
    #[default]
    Actual,
    /// The ANNs' predictions at the response configurations (ablation:
    /// quantifies the cost of the ANN approximation).
    Predicted,
}

/// The offline half of the model: `N` trained program-specific ANNs.
#[derive(Debug, Clone)]
pub struct OfflineModel {
    metric: Metric,
    /// Indices into the dataset's benchmark list.
    train_rows: Vec<usize>,
    models: Vec<ProgramSpecificPredictor>,
}

impl OfflineModel {
    /// Trains one ANN per training program, each on `t` configurations
    /// sampled uniformly (without replacement) from the shared sample.
    ///
    /// `seed` controls both the per-program training-set sampling and the
    /// ANN initialisations, so a whole experiment repeat is reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `train_rows` is empty, contains an out-of-range index, or
    /// `t` exceeds the number of shared configurations.
    pub fn train(
        ds: &SuiteDataset,
        train_rows: &[usize],
        metric: Metric,
        t: usize,
        mlp_cfg: &MlpConfig,
        seed: u64,
    ) -> Self {
        let _span = dse_obs::span!(
            "train.offline_model",
            metric = metric,
            programs = train_rows.len(),
            t = t
        );
        let models = Self::train_pools(ds, train_rows, metric, t, mlp_cfg, &[seed]).remove(0);
        Self {
            metric,
            train_rows: train_rows.to_vec(),
            models,
        }
    }

    /// Trains one ensemble's models per seed of `seeds` over the same
    /// `train_rows` — the cross-validation harness's per-repeat pools —
    /// as one flat (seed, program) [`par_map`] work list, so no seed
    /// waits for another's slowest model. Pool `s` holds exactly the
    /// models of `OfflineModel::train(.., seeds[s])`: this is the one
    /// place a model's training sample and ANN seed are derived (from
    /// `seed`'s child stream `k + 1` for the `k`-th training row).
    ///
    /// # Panics
    ///
    /// As [`OfflineModel::train`].
    pub fn train_pools(
        ds: &SuiteDataset,
        train_rows: &[usize],
        metric: Metric,
        t: usize,
        mlp_cfg: &MlpConfig,
        seeds: &[u64],
    ) -> Vec<Vec<ProgramSpecificPredictor>> {
        assert!(!train_rows.is_empty(), "need at least one training program");
        assert!(
            t >= 2 && t <= ds.n_configs(),
            "t = {t} outside [2, {}]",
            ds.n_configs()
        );
        for &r in train_rows {
            assert!(r < ds.benchmarks.len(), "train row {r} out of range");
        }
        let features = ds.features();
        let jobs: Vec<(u64, usize, usize)> = seeds
            .iter()
            .flat_map(|&seed| {
                train_rows
                    .iter()
                    .enumerate()
                    .map(move |(k, &row)| (seed, k, row))
            })
            .collect();
        let mut models = par_map(&jobs, |&(seed, k, row)| {
            let bench = &ds.benchmarks[row];
            let _span = dse_obs::span!("train_mlp", program = bench.name, metric = metric);
            let mut rng = Xoshiro256::seed_from(seed).child(k as u64 + 1);
            let idx = rng.sample_indices(ds.n_configs(), t);
            let tf: Vec<Vec<f64>> = idx.iter().map(|&i| features[i].clone()).collect();
            let tv: Vec<f64> = idx.iter().map(|&i| bench.metrics[i].get(metric)).collect();
            let cfg = MlpConfig {
                seed: rng.next_u64(),
                ..*mlp_cfg
            };
            ProgramSpecificPredictor::train(&bench.name, metric, &tf, &tv, &cfg)
        })
        .into_iter();
        seeds
            .iter()
            .map(|_| models.by_ref().take(train_rows.len()).collect())
            .collect()
    }

    /// Assembles an ensemble from already-trained per-program models
    /// (for example one of [`OfflineModel::train_pools`]' pools, or
    /// models loaded from an artifact store).
    ///
    /// # Panics
    ///
    /// Panics if the row and model lists differ in length or are empty,
    /// or a model predicts a different metric.
    pub fn from_parts(
        metric: Metric,
        train_rows: Vec<usize>,
        models: Vec<ProgramSpecificPredictor>,
    ) -> Self {
        assert_eq!(train_rows.len(), models.len(), "rows/models mismatch");
        assert!(!models.is_empty(), "need at least one model");
        assert!(
            models.iter().all(|m| m.metric() == metric),
            "all models must predict the ensemble metric"
        );
        Self {
            metric,
            train_rows,
            models,
        }
    }

    /// The metric this ensemble models.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of training programs.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the ensemble is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The per-program models.
    pub fn models(&self) -> &[ProgramSpecificPredictor] {
        &self.models
    }

    /// Fits the linear combination from `R` responses of a new program
    /// using the paper's method (actual training-program values as the
    /// design matrix).
    ///
    /// `response_idxs` index the shared configurations; `response_values`
    /// are the new program's simulated metric at those configurations.
    ///
    /// # Panics
    ///
    /// Panics if the index and value lists differ in length or are empty.
    pub fn fit_responses(
        &self,
        ds: &SuiteDataset,
        response_idxs: &[usize],
        response_values: &[f64],
    ) -> ArchCentricPredictor {
        self.fit_responses_with(ds, response_idxs, response_values, ResponseSource::Actual)
    }

    /// Like [`OfflineModel::fit_responses`], selecting the design-matrix
    /// source explicitly.
    ///
    /// # Panics
    ///
    /// See [`OfflineModel::fit_responses`].
    pub fn fit_responses_with(
        &self,
        ds: &SuiteDataset,
        response_idxs: &[usize],
        response_values: &[f64],
        source: ResponseSource,
    ) -> ArchCentricPredictor {
        let xs = self.design_rows(ds, response_idxs, source);
        let reg = fit_combiner(&xs, response_values);
        ArchCentricPredictor {
            offline: self.clone(),
            reg,
        }
    }

    /// The linear regressor's design matrix for a set of response
    /// configurations: one row per response, one column per training
    /// program (the training programs' values of the target metric at
    /// that configuration).
    ///
    /// This is the per-program knowledge a serving layer persists so it
    /// can run [`fit_combiner`] online without the full dataset in
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if `response_idxs` is empty or contains an out-of-range
    /// index.
    pub fn design_rows(
        &self,
        ds: &SuiteDataset,
        response_idxs: &[usize],
        source: ResponseSource,
    ) -> Vec<Vec<f64>> {
        assert!(!response_idxs.is_empty(), "need at least one response");
        assert!(
            response_idxs.iter().all(|&i| i < ds.n_configs()),
            "response index out of range"
        );
        match source {
            ResponseSource::Actual => {
                actual_design_rows(ds, &self.train_rows, self.metric, response_idxs)
            }
            ResponseSource::Predicted => {
                let features = ds.features();
                response_idxs
                    .iter()
                    .map(|&i| {
                        self.models
                            .iter()
                            .map(|m| m.predict(&features[i]))
                            .collect()
                    })
                    .collect()
            }
        }
    }

    /// Runs the full architecture-centric prediction with an externally
    /// fitted combiner: per-program ANN forward passes, then the linear
    /// combination. [`ArchCentricPredictor::predict`] delegates here, so
    /// a serving layer holding `(OfflineModel, LinearRegression)` pairs
    /// produces bit-identical predictions to the library path.
    ///
    /// # Panics
    ///
    /// Panics if `reg` was fitted on a different number of programs than
    /// this ensemble holds.
    pub fn predict_with(&self, reg: &LinearRegression, features: &[f64]) -> f64 {
        reg.predict_iter(self.models.iter().map(|m| m.predict(features)))
    }

    /// Batched [`OfflineModel::predict_with`]: runs every per-program
    /// ANN as one matrix–matrix forward over the flat row-major feature
    /// batch (`features[r * dim + i]`), then applies the combiner per
    /// row. Each row's arithmetic — per-program forward order, then the
    /// combiner dot product over programs in ensemble order — matches
    /// the scalar path exactly, so results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree with `n_rows` or `reg` was
    /// fitted on a different number of programs.
    pub fn predict_with_batch_into(
        &self,
        reg: &LinearRegression,
        features: &[f64],
        n_rows: usize,
        out: &mut [f64],
    ) {
        assert!(out.len() >= n_rows, "output buffer too short");
        if n_rows == 0 {
            return;
        }
        let n_models = self.models.len();
        // One column of per-program predictions per ANN.
        let mut cols = vec![0.0; n_models * n_rows];
        for (k, m) in self.models.iter().enumerate() {
            m.net()
                .predict_batch_into(features, n_rows, &mut cols[k * n_rows..(k + 1) * n_rows]);
        }
        let mut per_program = vec![0.0; n_models];
        for (r, o) in out.iter_mut().take(n_rows).enumerate() {
            for (k, p) in per_program.iter_mut().enumerate() {
                *p = cols[k * n_rows + r];
            }
            *o = reg.predict(&per_program);
        }
    }

    /// Training error proxy: fits the responses and reports the rmae of
    /// the fitted model on the responses themselves (the paper uses this
    /// to flag programs unlike anything in the training set, §7.2).
    pub fn training_error(
        &self,
        ds: &SuiteDataset,
        response_idxs: &[usize],
        response_values: &[f64],
    ) -> f64 {
        let predictor = self.fit_responses(ds, response_idxs, response_values);
        let features = ds.features();
        let preds: Vec<f64> = response_idxs
            .iter()
            .map(|&i| predictor.predict(&features[i]))
            .collect();
        dse_ml::stats::rmae(&preds, response_values)
    }
}

/// The paper's design matrix ([`ResponseSource::Actual`]): the simulated
/// `metric` of each of `rows`, in order, at each response configuration.
pub(crate) fn actual_design_rows(
    ds: &SuiteDataset,
    rows: &[usize],
    metric: Metric,
    response_idxs: &[usize],
) -> Vec<Vec<f64>> {
    response_idxs
        .iter()
        .map(|&i| {
            rows.iter()
                .map(|&row| ds.benchmarks[row].metrics[i].get(metric))
                .collect()
        })
        .collect()
}

/// Fits the online half of the model — the paper's equation (5) — from a
/// precomputed design matrix (see [`OfflineModel::design_rows`]) and the
/// new program's simulated responses.
///
/// This is the library entry point for *online* fitting: a serving layer
/// that persisted the design table alongside the trained ANNs can
/// characterise a new program with exactly the same arithmetic as
/// [`OfflineModel::fit_responses`], without the dataset.
///
/// # Panics
///
/// Panics if the rows and values differ in length or are empty (see
/// [`LinearRegression::fit`]).
pub fn fit_combiner(design_rows: &[Vec<f64>], response_values: &[f64]) -> LinearRegression {
    LinearRegression::fit(design_rows, response_values, true)
}

/// The complete architecture-centric predictor: offline ANNs + fitted
/// response weights. Predicts the target metric of the *new* program for
/// any configuration in the design space.
#[derive(Debug, Clone)]
pub struct ArchCentricPredictor {
    offline: OfflineModel,
    reg: LinearRegression,
}

impl ArchCentricPredictor {
    /// Assembles a predictor from an offline ensemble and an externally
    /// fitted combiner (see [`fit_combiner`]).
    ///
    /// # Panics
    ///
    /// Panics if the combiner's width differs from the ensemble size.
    pub fn from_parts(offline: OfflineModel, reg: LinearRegression) -> Self {
        assert_eq!(
            reg.weights().len(),
            offline.len(),
            "combiner width must match the ensemble size"
        );
        Self { offline, reg }
    }

    /// Predicts the new program's metric for a configuration feature
    /// vector (Fig 6: configuration → per-program ANNs → linear
    /// combination).
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.offline.predict_with(&self.reg, features)
    }

    /// The fitted per-program combination weights (β₁…β_N).
    pub fn weights(&self) -> &[f64] {
        self.reg.weights()
    }

    /// The fitted intercept (β₀).
    pub fn intercept(&self) -> f64 {
        self.reg.intercept()
    }

    /// The fitted linear combiner.
    pub fn combiner(&self) -> &LinearRegression {
        &self.reg
    }

    /// The offline ensemble.
    pub fn offline(&self) -> &OfflineModel {
        &self.offline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, SuiteDataset};
    use dse_ml::stats::{correlation, rmae};

    fn small_dataset(n_benchmarks: usize, n_configs: usize) -> SuiteDataset {
        let profiles: Vec<_> = dse_workload::suites::spec2000()
            .into_iter()
            .take(n_benchmarks)
            .collect();
        let spec = DatasetSpec {
            n_configs,
            ..DatasetSpec::tiny()
        };
        SuiteDataset::generate(&profiles, &spec)
    }

    #[test]
    fn offline_model_trains_one_ann_per_program() {
        let ds = small_dataset(4, 30);
        let m = OfflineModel::train(
            &ds,
            &[0, 1, 2],
            dse_sim::Metric::Cycles,
            20,
            &MlpConfig::default(),
            1,
        );
        assert_eq!(m.len(), 3);
        assert_eq!(m.models()[1].program(), ds.benchmarks[1].name);
    }

    #[test]
    fn responses_fit_and_predict_held_out_program() {
        let ds = small_dataset(5, 80);
        let target_row = 4;
        let train: Vec<usize> = (0..4).collect();
        let metric = dse_sim::Metric::Cycles;
        let m = OfflineModel::train(&ds, &train, metric, 60, &MlpConfig::default(), 7);

        let response_idxs: Vec<usize> = (0..16).collect();
        let target = &ds.benchmarks[target_row];
        let values: Vec<f64> = response_idxs
            .iter()
            .map(|&i| target.metrics[i].get(metric))
            .collect();
        let predictor = m.fit_responses(&ds, &response_idxs, &values);

        let features = ds.features();
        let test_idx: Vec<usize> = (16..80).collect();
        let preds: Vec<f64> = test_idx
            .iter()
            .map(|&i| predictor.predict(&features[i]))
            .collect();
        let actual: Vec<f64> = test_idx
            .iter()
            .map(|&i| target.metrics[i].get(metric))
            .collect();
        let c = correlation(&preds, &actual);
        assert!(c > 0.3, "correlation {c} too low even for a tiny dataset");
        assert!(rmae(&preds, &actual) < 60.0);
    }

    #[test]
    fn predicted_source_differs_from_actual() {
        let ds = small_dataset(4, 40);
        let metric = dse_sim::Metric::Energy;
        let m = OfflineModel::train(&ds, &[0, 1, 2], metric, 30, &MlpConfig::default(), 3);
        let idxs: Vec<usize> = (0..10).collect();
        let values: Vec<f64> = idxs
            .iter()
            .map(|&i| ds.benchmarks[3].metrics[i].get(metric))
            .collect();
        let a = m.fit_responses_with(&ds, &idxs, &values, ResponseSource::Actual);
        let p = m.fit_responses_with(&ds, &idxs, &values, ResponseSource::Predicted);
        // Both are valid predictors but their weights differ in general.
        assert_ne!(a.weights(), p.weights());
    }

    #[test]
    fn outlier_program_has_higher_training_error_than_typical() {
        // art (trained on none of gzip/parser/crafty/gap's behaviours)
        // should be harder to express as their combination than gap is:
        // the §7.2 signal that flags programs unlike the training set.
        let profiles: Vec<_> = dse_workload::suites::spec2000()
            .into_iter()
            .filter(|p| ["gzip", "parser", "crafty", "gap", "art"].contains(&p.name))
            .collect();
        let spec = DatasetSpec {
            n_configs: 60,
            ..DatasetSpec::tiny()
        };
        let ds = SuiteDataset::generate(&profiles, &spec);
        let train_for = |target: usize| {
            let rows: Vec<usize> = (0..ds.benchmarks.len()).filter(|&i| i != target).collect();
            let offline = OfflineModel::train(
                &ds,
                &rows,
                dse_sim::Metric::Cycles,
                40,
                &MlpConfig::default(),
                2,
            );
            let idxs: Vec<usize> = (0..16).collect();
            let vals: Vec<f64> = idxs
                .iter()
                .map(|&i| ds.benchmarks[target].metrics[i].cycles)
                .collect();
            offline.training_error(&ds, &idxs, &vals)
        };
        let e_art = train_for(ds.require_benchmark("art"));
        let e_gap = train_for(ds.require_benchmark("gap"));
        assert!(
            e_art > e_gap,
            "art training error ({e_art:.1}) should exceed gap's ({e_gap:.1})"
        );
    }

    #[test]
    fn training_error_is_finite_and_nonnegative() {
        let ds = small_dataset(4, 40);
        let metric = dse_sim::Metric::Ed;
        let m = OfflineModel::train(&ds, &[0, 1, 2], metric, 30, &MlpConfig::default(), 3);
        let idxs: Vec<usize> = (0..12).collect();
        let values: Vec<f64> = idxs
            .iter()
            .map(|&i| ds.benchmarks[3].metrics[i].get(metric))
            .collect();
        let e = m.training_error(&ds, &idxs, &values);
        assert!(e.is_finite() && e >= 0.0);
    }

    #[test]
    fn online_fit_path_matches_library_path_bit_for_bit() {
        // The serving layer persists design rows and refits with
        // `fit_combiner` + `predict_with`; that path must be arithmetic-
        // identical to `fit_responses` + `predict`.
        let ds = small_dataset(4, 40);
        let metric = dse_sim::Metric::Cycles;
        let m = OfflineModel::train(&ds, &[0, 1, 2], metric, 30, &MlpConfig::default(), 5);
        let idxs: Vec<usize> = (0..16).collect();
        let values: Vec<f64> = idxs
            .iter()
            .map(|&i| ds.benchmarks[3].metrics[i].get(metric))
            .collect();

        let library = m.fit_responses(&ds, &idxs, &values);
        let rows = m.design_rows(&ds, &idxs, ResponseSource::Actual);
        let reg = fit_combiner(&rows, &values);

        let features = ds.features();
        for f in features.iter().take(30) {
            assert_eq!(
                library.predict(f).to_bits(),
                m.predict_with(&reg, f).to_bits()
            );
        }
        let rebuilt = ArchCentricPredictor::from_parts(m.clone(), reg);
        assert_eq!(
            library.predict(&features[0]).to_bits(),
            rebuilt.predict(&features[0]).to_bits()
        );
    }

    #[test]
    fn batched_prediction_matches_per_row_predict_bit_for_bit() {
        // The serving layer answers `/v1/predict_batch` through
        // `predict_with_batch_into`; every row must equal the scalar
        // `ArchCentricPredictor::predict`, across block boundaries and a
        // ragged tail.
        let ds = small_dataset(4, 40);
        let metric = dse_sim::Metric::Cycles;
        let m = OfflineModel::train(&ds, &[0, 1, 2], metric, 30, &MlpConfig::default(), 9);
        let idxs: Vec<usize> = (0..16).collect();
        let values: Vec<f64> = idxs
            .iter()
            .map(|&i| ds.benchmarks[3].metrics[i].get(metric))
            .collect();
        let predictor = m.fit_responses(&ds, &idxs, &values);
        let features = ds.features();
        for n in [0, 1, 7, 8, 37] {
            let rows = &features[..n];
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let mut out = vec![f64::NAN; n];
            predictor
                .offline
                .predict_with_batch_into(&predictor.reg, &flat, n, &mut out);
            for (i, (row, b)) in rows.iter().zip(&out).enumerate() {
                let s = predictor.predict(row);
                assert_eq!(s.to_bits(), b.to_bits(), "n={n} row {i}: {s:e} vs {b:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one response")]
    fn empty_responses_panic() {
        let ds = small_dataset(3, 20);
        let m = OfflineModel::train(
            &ds,
            &[0, 1],
            dse_sim::Metric::Cycles,
            10,
            &MlpConfig::default(),
            1,
        );
        m.fit_responses(&ds, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_train_row_panics() {
        let ds = small_dataset(2, 20);
        OfflineModel::train(
            &ds,
            &[5],
            dse_sim::Metric::Cycles,
            10,
            &MlpConfig::default(),
            1,
        );
    }
}
