//! Ordinary least-squares linear regression (§5.3.1).
//!
//! The architecture-centric model combines the training programs' design
//! spaces with the weights that minimise the squared error over the
//! responses — equation (5) of the paper, `β = (XᵀX)⁻¹ Xᵀ y`. The normal
//! equations are solved by Cholesky decomposition with a small always-on
//! ridge (relative λ = 1e-4): the design-matrix columns are different
//! programs' values of the same metric and are strongly correlated, so
//! plain OLS suffers a variance spike at the interpolation threshold
//! R ≈ N. The ridge is the standard regularised reading of (5) and is
//! grown automatically if the system is still singular (R < N).

use crate::linalg::Matrix;
use dse_util::json::{FromJson, Json, JsonError, ToJson};

/// A fitted linear model `ŷ = β₀·x₀ + … + β_{m−1}·x_{m−1} (+ intercept)`.
///
/// # Examples
///
/// ```
/// use dse_ml::LinearRegression;
/// let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
/// let ys = vec![2.0, 3.0, 5.0];
/// let model = LinearRegression::fit(&xs, &ys, false);
/// assert!((model.predict(&[2.0, 1.0]) - 7.0).abs() < 1e-2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    weights: Vec<f64>,
    intercept: f64,
    has_intercept: bool,
}

impl LinearRegression {
    /// Fits by least squares. When `intercept` is true an additional bias
    /// term is estimated (the paper's β₀).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length, are empty, or rows have
    /// unequal width.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], intercept: bool) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot fit on no data");
        let dim = xs[0].len();
        assert!(dim > 0, "need at least one feature");

        let rows: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                assert_eq!(x.len(), dim, "rows must have equal width");
                let mut r = x.clone();
                if intercept {
                    r.push(1.0);
                }
                r
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let xt = x.transpose();
        let xty = xt.matvec(ys);
        let gram = x.gram();
        let n = gram.rows();

        // Solve (XᵀX + λI) β = Xᵀy. A small always-on ridge keeps the
        // fit stable when the number of samples is close to the number of
        // features — for the architecture-centric model the design-matrix
        // columns are different programs' values of the same metric and
        // are strongly correlated, so plain OLS has a severe variance
        // spike at R ≈ N (the interpolation threshold). λ grows from this
        // floor until Cholesky succeeds; steps are relative to the mean
        // diagonal so the behaviour is scale-free.
        let diag_mean: f64 = (0..n).map(|i| gram.get(i, i)).sum::<f64>() / n as f64;
        let base = if diag_mean > 0.0 { diag_mean } else { 1.0 };
        let mut lambda = base * 1e-4;
        // The intercept column (last, when present) is conventionally
        // left unpenalised.
        let penalised = if intercept { n - 1 } else { n };
        let beta = loop {
            let mut g = gram.clone();
            if lambda > 0.0 {
                for i in 0..penalised {
                    g.set(i, i, g.get(i, i) + lambda);
                }
            }
            if let Some(b) = g.solve_spd(&xty) {
                break b;
            }
            lambda *= 10.0;
            assert!(
                lambda <= base * 10.0,
                "normal equations remained singular at extreme ridge"
            );
        };

        let (weights, b0) = if intercept {
            let mut w = beta;
            let b0 = w.pop().expect("intercept column exists");
            (w, b0)
        } else {
            (beta, 0.0)
        };
        Self {
            weights,
            intercept: b0,
            has_intercept: intercept,
        }
    }

    /// The fitted coefficients (excluding the intercept).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The fitted intercept (0 when fitted without one).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Whether the model includes an intercept.
    pub fn has_intercept(&self) -> bool {
        self.has_intercept
    }

    /// Predicts the target for one row.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.predict_iter(x.iter().copied())
    }

    /// [`LinearRegression::predict`] over a row yielded in order, so a
    /// caller can combine values as it computes them, without a buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn predict_iter(&self, x: impl ExactSizeIterator<Item = f64>) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature width mismatch");
        self.intercept + x.zip(&self.weights).map(|(a, b)| a * b).sum::<f64>()
    }
}

impl ToJson for LinearRegression {
    fn to_json(&self) -> Json {
        Json::obj([
            ("weights", self.weights.to_json()),
            ("intercept", self.intercept.to_json()),
            ("has_intercept", self.has_intercept.to_json()),
        ])
    }
}

impl FromJson for LinearRegression {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let m = Self {
            weights: Vec::from_json(v.field("weights")?)?,
            intercept: f64::from_json(v.field("intercept")?)?,
            has_intercept: bool::from_json(v.field("has_intercept")?)?,
        };
        if m.weights.is_empty() {
            return Err(JsonError::msg("linear model has no weights"));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::correlation;
    use dse_rng::Xoshiro256;

    #[test]
    fn recovers_exact_linear_weights() {
        let mut rng = Xoshiro256::seed_from(11);
        let xs: Vec<Vec<f64>> = (0..50)
            .map(|_| (0..3).map(|_| rng.next_f64() * 10.0).collect())
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - x[1] + 0.5 * x[2]).collect();
        let m = LinearRegression::fit(&xs, &ys, false);
        // The always-on ridge biases weights by O(1e-4) relative.
        assert!((m.weights()[0] - 2.0).abs() < 1e-2);
        assert!((m.weights()[1] + 1.0).abs() < 1e-2);
        assert!((m.weights()[2] - 0.5).abs() < 1e-2);
    }

    #[test]
    fn recovers_intercept() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.21 * x[0] + 0.59).collect();
        let m = LinearRegression::fit(&xs, &ys, true);
        // The paper's Fig 8 example: y = β₀ + β₁x with β₀ = 0.59, β₁ = 0.21.
        assert!((m.intercept() - 0.59).abs() < 1e-2);
        assert!((m.weights()[0] - 0.21).abs() < 1e-3);
    }

    #[test]
    fn underdetermined_system_is_regularised_not_fatal() {
        // 2 samples, 5 features: XᵀX is singular; ridge must kick in.
        let xs = vec![vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![5.0, 4.0, 3.0, 2.0, 1.0]];
        let ys = vec![1.0, 2.0];
        let m = LinearRegression::fit(&xs, &ys, false);
        // Must reproduce the training points closely.
        assert!((m.predict(&xs[0]) - 1.0).abs() < 1e-3);
        assert!((m.predict(&xs[1]) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn noisy_fit_still_correlates() {
        let mut rng = Xoshiro256::seed_from(12);
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.next_f64() * 4.0, rng.next_f64() * 4.0])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 3.0 * x[0] + x[1] + (rng.next_f64() - 0.5))
            .collect();
        let m = LinearRegression::fit(&xs, &ys, true);
        let preds: Vec<f64> = xs.iter().map(|x| m.predict(x)).collect();
        assert!(correlation(&preds, &ys) > 0.98);
    }

    #[test]
    fn duplicate_feature_columns_are_handled() {
        // Perfectly collinear features: singular Gram, ridge resolves it.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| 2.0 * i as f64).collect();
        let m = LinearRegression::fit(&xs, &ys, false);
        assert!((m.predict(&[5.0, 5.0]) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn noise_free_data_is_recovered_to_ridge_precision() {
        // Noise-free targets from known coefficients: the only error left
        // is the always-on relative ridge (λ = 1e-4), so both the
        // coefficients and the training predictions must be recovered to
        // well within that bias.
        let mut rng = Xoshiro256::seed_from(42);
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|_| (0..4).map(|_| rng.next_f64() * 6.0 - 3.0).collect())
            .collect();
        let truth = [1.5, -2.25, 0.0, 4.0];
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().zip(&truth).map(|(a, b)| a * b).sum::<f64>() + 7.5)
            .collect();
        let m = LinearRegression::fit(&xs, &ys, true);
        for (got, want) in m.weights().iter().zip(&truth) {
            assert!((got - want).abs() < 5e-3, "weight {got} vs {want}");
        }
        assert!((m.intercept() - 7.5).abs() < 5e-3);
        for (x, y) in xs.iter().zip(&ys) {
            let pred = m.predict(x);
            assert!((pred - y).abs() < 1e-2, "prediction {pred} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        LinearRegression::fit(&[vec![1.0]], &[1.0, 2.0], false);
    }

    #[test]
    fn json_round_trip_predicts_bit_identically() {
        let mut rng = Xoshiro256::seed_from(9);
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..5).map(|_| rng.next_f64() * 3.0 - 1.5).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| x.iter().sum::<f64>() * 1.7 + 0.3)
            .collect();
        let m = LinearRegression::fit(&xs, &ys, true);
        let back: LinearRegression =
            dse_util::json::from_str(&dse_util::json::to_string(&m)).unwrap();
        assert_eq!(back, m);
        for x in &xs {
            assert_eq!(m.predict(x).to_bits(), back.predict(x).to_bits());
        }
    }

    #[test]
    fn json_rejects_empty_weights() {
        let text = r#"{"weights":[],"intercept":0,"has_intercept":true}"#;
        assert!(dse_util::json::from_str::<LinearRegression>(text).is_err());
    }
}
