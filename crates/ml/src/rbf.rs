//! Radial-basis-function network regression.
//!
//! The paper's program-specific predictors are ANNs, but §5.2 notes that
//! "we could have used any other related approach", citing the RBF-based
//! predictor of Joseph et al. (MICRO-39). This module provides that
//! alternative: Gaussian kernels centred on a subset of the training
//! points, with output weights fitted by regularised least squares.
//! The `ablation_model` experiment compares it against the MLP.

use crate::linalg::Matrix;
use crate::scale::Standardizer;
use crate::stats;
use dse_rng::Xoshiro256;

/// Hyper-parameters of an [`RbfNetwork`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbfConfig {
    /// Number of kernel centres (sampled from the training points;
    /// clamped to the training-set size).
    pub centers: usize,
    /// Kernel width multiplier: the Gaussian σ is this factor times the
    /// average distance between centres.
    pub width_factor: f64,
    /// Ridge regularisation for the output weights (relative).
    pub ridge: f64,
    /// Centre-sampling seed.
    pub seed: u64,
}

impl Default for RbfConfig {
    fn default() -> Self {
        Self {
            centers: 64,
            width_factor: 1.0,
            ridge: 1e-6,
            seed: 1,
        }
    }
}

/// A trained RBF network: `ŷ = Σ w_k exp(−‖x − c_k‖² / 2σ²) + b`.
///
/// # Examples
///
/// ```
/// use dse_ml::rbf::{RbfConfig, RbfNetwork};
/// let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
/// let net = RbfNetwork::train(&xs, &ys, &RbfConfig::default());
/// assert!((net.predict(&[2.0]) - 4.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RbfNetwork {
    centers: Vec<Vec<f64>>,
    weights: Vec<f64>,
    bias: f64,
    inv_two_sigma_sq: f64,
    x_scale: Standardizer,
    y_mean: f64,
    y_std: f64,
}

impl RbfNetwork {
    /// Trains on rows `xs` with targets `ys`.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or mismatched, or the
    /// configuration requests zero centres.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], cfg: &RbfConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot train on no data");
        assert!(cfg.centers > 0, "need at least one centre");

        let x_scale = Standardizer::fit(xs);
        let xn: Vec<Vec<f64>> = xs.iter().map(|x| x_scale.transform(x)).collect();
        let y_mean = stats::mean(ys);
        let y_std = {
            let s = stats::std_dev(ys);
            if s > 0.0 {
                s
            } else {
                1.0
            }
        };
        let yn: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();

        // Sample centres from the training points.
        let k = cfg.centers.min(xn.len());
        let mut rng = Xoshiro256::seed_from(cfg.seed);
        let centre_idx = rng.sample_indices(xn.len(), k);
        let centers: Vec<Vec<f64>> = centre_idx.iter().map(|&i| xn[i].clone()).collect();

        // σ from the mean pairwise centre distance (capped sample).
        let mut dists = Vec::new();
        for i in 0..k.min(32) {
            for j in (i + 1)..k.min(32) {
                dists.push(stats::euclidean(&centers[i], &centers[j]));
            }
        }
        let mean_dist = if dists.is_empty() {
            1.0
        } else {
            stats::mean(&dists).max(1e-6)
        };
        let sigma = cfg.width_factor * mean_dist;
        let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);

        // Design matrix Φ (n × (k+1)) with a bias column; ridge LS fit.
        let phi_rows: Vec<Vec<f64>> = xn
            .iter()
            .map(|x| {
                let mut row: Vec<f64> = centers
                    .iter()
                    .map(|c| (-stats::euclidean(x, c).powi(2) * inv_two_sigma_sq).exp())
                    .collect();
                row.push(1.0);
                row
            })
            .collect();
        let phi = Matrix::from_rows(&phi_rows);
        let mut gram = phi.gram();
        let n = gram.rows();
        let diag_mean: f64 = (0..n).map(|i| gram.get(i, i)).sum::<f64>() / n as f64;
        let phity = phi.transpose().matvec(&yn);
        let mut lambda = cfg.ridge * diag_mean.max(1e-12);
        let beta = loop {
            let mut g = gram.clone();
            for i in 0..n - 1 {
                g.set(i, i, g.get(i, i) + lambda);
            }
            if let Some(b) = g.solve_spd(&phity) {
                break b;
            }
            lambda *= 10.0;
            assert!(lambda.is_finite(), "RBF system unsolvable");
            gram = phi.gram();
        };
        let mut weights = beta;
        let bias = weights.pop().expect("bias column present");

        Self {
            centers,
            weights,
            bias,
            inv_two_sigma_sq,
            x_scale,
            y_mean,
            y_std,
        }
    }

    /// Predicts the target for one row.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let xn = self.x_scale.transform(x);
        let out: f64 = self.bias
            + self
                .centers
                .iter()
                .zip(&self.weights)
                .map(|(c, w)| w * (-stats::euclidean(&xn, c).powi(2) * self.inv_two_sigma_sq).exp())
                .sum::<f64>();
        out * self.y_std + self.y_mean
    }

    /// Number of kernel centres in the trained model.
    pub fn centers(&self) -> usize {
        self.centers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{correlation, rmae};

    fn grid2(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = Xoshiro256::seed_from(seed);
        (0..n)
            .map(|_| vec![rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0])
            .collect()
    }

    #[test]
    fn learns_nonlinear_surface() {
        let xs = grid2(400, 7);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0]).sin() + x[1] * x[1] + 10.0)
            .collect();
        let net = RbfNetwork::train(&xs, &ys, &RbfConfig::default());
        let preds: Vec<f64> = xs.iter().map(|x| net.predict(x)).collect();
        assert!(
            correlation(&preds, &ys) > 0.97,
            "corr {}",
            correlation(&preds, &ys)
        );
        assert!(rmae(&preds, &ys) < 3.0, "rmae {}", rmae(&preds, &ys));
    }

    #[test]
    fn generalises_to_unseen_points() {
        let train = grid2(400, 8);
        let test = grid2(100, 9);
        let f = |x: &[f64]| x[0] * x[1] + 5.0;
        let ys: Vec<f64> = train.iter().map(|x| f(x)).collect();
        let net = RbfNetwork::train(&train, &ys, &RbfConfig::default());
        let preds: Vec<f64> = test.iter().map(|x| net.predict(x)).collect();
        let actual: Vec<f64> = test.iter().map(|x| f(x)).collect();
        assert!(correlation(&preds, &actual) > 0.9);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let xs = grid2(64, 10);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 1.0).collect();
        let a = RbfNetwork::train(&xs, &ys, &RbfConfig::default());
        let b = RbfNetwork::train(&xs, &ys, &RbfConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn centers_clamped_to_training_size() {
        let xs = grid2(10, 11);
        let ys = vec![1.0; 10];
        let net = RbfNetwork::train(
            &xs,
            &ys,
            &RbfConfig {
                centers: 100,
                ..RbfConfig::default()
            },
        );
        assert_eq!(net.centers(), 10);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let xs = grid2(32, 12);
        let ys = vec![7.0; 32];
        let net = RbfNetwork::train(&xs, &ys, &RbfConfig::default());
        assert!((net.predict(&[0.0, 0.0]) - 7.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_input_panics() {
        RbfNetwork::train(&[vec![1.0]], &[1.0, 2.0], &RbfConfig::default());
    }
}
