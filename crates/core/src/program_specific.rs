//! The state-of-the-art baseline: a program-specific ANN predictor
//! (Ïpek et al., §5.2 and §9.4).
//!
//! One artificial neural network per program, trained on `T` simulations
//! of that program, predicting one target metric for any configuration.
//! The paper's headline comparison (Fig 13) pits this model — given `S`
//! simulations as *training data* — against the architecture-centric model
//! given the same `S` simulations as *responses*.

use dse_ml::{Mlp, MlpConfig};
use dse_sim::Metric;
use dse_util::json::{FromJson, Json, JsonError, ToJson};

/// A trained per-program predictor for one metric.
///
/// # Examples
///
/// ```
/// use dse_core::ProgramSpecificPredictor;
/// use dse_ml::MlpConfig;
/// use dse_sim::Metric;
///
/// // A toy 2-feature space.
/// let feats = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
/// let cycles = vec![1.0e7, 2.0e7, 3.0e7, 4.0e7];
/// let p = ProgramSpecificPredictor::train(
///     "toy", Metric::Cycles, &feats, &cycles, &MlpConfig::default());
/// assert_eq!(p.metric(), Metric::Cycles);
/// assert!(p.predict(&[0.5, 0.5]) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpecificPredictor {
    program: String,
    metric: Metric,
    net: Mlp,
}

impl ProgramSpecificPredictor {
    /// Trains on configuration features and the corresponding metric
    /// values of one program.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched training data (see [`Mlp::train`]).
    pub fn train(
        program: &str,
        metric: Metric,
        features: &[Vec<f64>],
        values: &[f64],
        cfg: &MlpConfig,
    ) -> Self {
        Self {
            program: program.to_string(),
            metric,
            net: Mlp::train(features, values, cfg),
        }
    }

    /// The program this predictor models.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The metric this predictor models.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Predicts the metric for one configuration feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.net.predict(features)
    }

    /// Reassembles a predictor from a deserialised network — the loading
    /// half of the model artifact store.
    pub fn from_parts(program: String, metric: Metric, net: Mlp) -> Self {
        Self {
            program,
            metric,
            net,
        }
    }

    /// The underlying network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }
}

impl ToJson for ProgramSpecificPredictor {
    fn to_json(&self) -> Json {
        Json::obj([
            ("program", self.program.to_json()),
            ("metric", self.metric.to_json()),
            ("net", self.net.to_json()),
        ])
    }
}

impl FromJson for ProgramSpecificPredictor {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            program: String::from_json(v.field("program")?)?,
            metric: Metric::from_json(v.field("metric")?)?,
            net: Mlp::from_json(v.field("net")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, SuiteDataset};
    use dse_ml::stats::{correlation, rmae};
    use dse_rng::Xoshiro256;

    /// Full-pipeline check on real simulated data: a program-specific
    /// model trained on most of a small dataset predicts the rest with
    /// usable accuracy.
    #[test]
    fn predicts_simulated_space_reasonably() {
        let profiles: Vec<_> = dse_workload::suites::spec2000()
            .into_iter()
            .filter(|p| p.name == "gzip")
            .collect();
        let spec = DatasetSpec {
            n_configs: 120,
            ..DatasetSpec::tiny()
        };
        let ds = SuiteDataset::generate(&profiles, &spec);
        let feats = ds.features();
        let vals = ds.benchmarks[0].values(Metric::Cycles);

        let mut rng = Xoshiro256::seed_from(3);
        let train_idx = rng.sample_indices(feats.len(), 90);
        let test_idx: Vec<usize> = (0..feats.len())
            .filter(|i| !train_idx.contains(i))
            .collect();
        let tf: Vec<Vec<f64>> = train_idx.iter().map(|&i| feats[i].clone()).collect();
        let tv: Vec<f64> = train_idx.iter().map(|&i| vals[i]).collect();
        let p = ProgramSpecificPredictor::train("gzip", Metric::Cycles, &tf, &tv, &{
            MlpConfig {
                epochs: 400,
                ..MlpConfig::default()
            }
        });
        let preds: Vec<f64> = test_idx.iter().map(|&i| p.predict(&feats[i])).collect();
        let actual: Vec<f64> = test_idx.iter().map(|&i| vals[i]).collect();
        let c = correlation(&preds, &actual);
        let e = rmae(&preds, &actual);
        assert!(c > 0.5, "correlation too low: {c}");
        assert!(e < 25.0, "rmae too high: {e}");
    }

    #[test]
    fn accessors_report_identity() {
        let p = ProgramSpecificPredictor::train(
            "x",
            Metric::Edd,
            &[vec![0.0], vec![1.0]],
            &[1.0, 2.0],
            &MlpConfig::default(),
        );
        assert_eq!(p.program(), "x");
        assert_eq!(p.metric(), Metric::Edd);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let p = ProgramSpecificPredictor::train(
            "gzip",
            Metric::Ed,
            &[vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5, 0.5]],
            &[1.0, 2.0, 1.5],
            &MlpConfig::default(),
        );
        let back: ProgramSpecificPredictor =
            dse_util::json::from_str(&dse_util::json::to_string(&p)).unwrap();
        assert_eq!(back, p);
        let x = [0.25, 0.75];
        assert_eq!(p.predict(&x).to_bits(), back.predict(&x).to_bits());
    }
}
