//! Multi-layer perceptron with one hidden layer (§5.2).
//!
//! Matches the paper's program-specific predictor: a feed-forward network
//! with one hidden layer of (by default) 10 neurons, a tanh activation on
//! the hidden layer, a linear output for regression, trained with
//! mini-batch back-propagation with momentum. Inputs and targets are
//! standardised internally, fitted on the training data.

use crate::isa::{self, Kernel};
use crate::scale::Standardizer;
use crate::stats;
use crate::tanh::{self, tanh};
use dse_rng::Xoshiro256;
use dse_util::json::{FromJson, Json, JsonError, ToJson};

/// Hyper-parameters of an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer width (the paper uses 10).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Initial learning rate (decays harmonically over epochs).
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Mini-batch size.
    pub batch: usize,
    /// Weight-initialisation and shuffling seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: 10,
            epochs: 200,
            learning_rate: 0.02,
            momentum: 0.9,
            batch: 32,
            seed: 1,
        }
    }
}

/// A trained feed-forward network: `input → tanh(hidden) → linear output`.
///
/// # Examples
///
/// ```
/// use dse_ml::{Mlp, MlpConfig};
/// // Learn y = 2 x0 - x1.
/// let xs: Vec<Vec<f64>> = (0..64)
///     .map(|i| vec![(i % 8) as f64, (i / 8) as f64])
///     .collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - x[1]).collect();
/// let net = Mlp::train(&xs, &ys, &MlpConfig::default());
/// let err = (net.predict(&[3.0, 4.0]) - 2.0).abs();
/// assert!(err < 0.5, "error {err}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    input_dim: usize,
    hidden: usize,
    /// `w1[j * input_dim + i]`: input `i` → hidden `j`.
    w1: Vec<f64>,
    b1: Vec<f64>,
    /// Hidden `j` → output.
    w2: Vec<f64>,
    b2: f64,
    x_scale: Standardizer,
    y_mean: f64,
    y_std: f64,
}

impl Mlp {
    /// Trains a network on rows `xs` with targets `ys`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length, are empty, or contain
    /// rows of unequal width, or if the configuration has zero hidden
    /// neurons, epochs or batch size.
    pub fn train(xs: &[Vec<f64>], ys: &[f64], cfg: &MlpConfig) -> Self {
        let _span = dse_obs::span!("mlp.fit", rows = xs.len(), epochs = cfg.epochs);
        {
            use dse_obs::registry::Counter;
            use std::sync::{Arc, OnceLock};
            static FITS: OnceLock<Arc<Counter>> = OnceLock::new();
            FITS.get_or_init(|| dse_obs::counter("dse_ml_mlp_fits_total"))
                .inc();
        }
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "cannot train on no data");
        assert!(
            cfg.hidden > 0 && cfg.epochs > 0 && cfg.batch > 0,
            "hidden, epochs and batch must be positive"
        );
        isa::run(Train(xs, ys, cfg))
    }

    /// [`Mlp::train`]'s body, built for each ISA tier by [`Train`].
    #[inline(always)]
    fn train_body(xs: &[Vec<f64>], ys: &[f64], cfg: &MlpConfig) -> Self {
        const B: usize = Mlp::ROW_BLOCK;
        let input_dim = xs[0].len();
        let x_scale = Standardizer::fit(xs);
        let y_mean = stats::mean(ys);
        let y_std = {
            let s = stats::std_dev(ys);
            if s > 0.0 {
                s
            } else {
                1.0
            }
        };
        // Standardised rows, zero-padded to `dp`, a multiple of B wide.
        let (d, dp) = (input_dim, input_dim.next_multiple_of(B));
        let mut xn = vec![0.0; xs.len() * dp];
        for (x, row) in xs.iter().zip(xn.chunks_exact_mut(dp)) {
            x_scale.transform_into(x, &mut row[..d]);
        }
        let yn: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();

        let mut rng = Xoshiro256::seed_from(cfg.seed);
        let h = cfg.hidden;
        let init = |rng: &mut Xoshiro256, fan_in: usize| {
            let bound = 1.0 / (fan_in as f64).sqrt();
            (rng.next_f64() * 2.0 - 1.0) * bound
        };
        let mut w1: Vec<f64> = (0..h * d).map(|_| init(&mut rng, d)).collect();
        let mut b1 = vec![0.0; h];
        let mut w2: Vec<f64> = (0..h).map(|_| init(&mut rng, h)).collect();
        let mut b2 = 0.0;

        // Momentum and gradient buffers.
        let mut vw1 = vec![0.0; w1.len()];
        let mut vb1 = vec![0.0; h];
        let mut vw2 = vec![0.0; h];
        let mut vb2 = 0.0;
        let (mut gw1, mut gb1, mut gw2) = (vec![0.0; w1.len()], vec![0.0; h], vec![0.0; h]);

        let mut order: Vec<usize> = (0..yn.len()).collect();
        let batch = cfg.batch.min(yn.len());
        // Per mini-batch row: hidden activations, network output, and the
        // hidden units' error terms, `hp` wide (zero past `h`).
        let (mut hid, mut out) = (vec![0.0; batch * h], vec![0.0; batch]);
        let hp = h.next_multiple_of(UNITS);
        let mut dh = vec![0.0; batch * hp];
        let mut xn_t = vec![0.0; d * B];

        for epoch in 0..cfg.epochs {
            let lr = cfg.learning_rate / (1.0 + 4.0 * epoch as f64 / cfg.epochs as f64);
            rng.shuffle(&mut order);
            for chunk in order.chunks(cfg.batch) {
                // Weights change only after the mini-batch, so its forward
                // pass runs first: pre-activations in row blocks into the
                // `hid` tile, one tanh pass over the tile, then outputs.
                for (base, block) in (0..).step_by(B).zip(chunk.chunks(B)) {
                    for (r, &i) in block.iter().enumerate() {
                        for (c, &v) in xn[i * dp..i * dp + d].iter().enumerate() {
                            xn_t[c * B + r] = v;
                        }
                    }
                    preactivations(&w1, &b1, &xn_t, |j, acc| {
                        for (r, &a) in acc[..block.len()].iter().enumerate() {
                            hid[(base + r) * h + j] = a;
                        }
                    });
                }
                let hid = &mut hid[..chunk.len() * h];
                tanh::kernel(hid);
                for (o, t) in out.iter_mut().zip(hid.chunks_exact(h)) {
                    *o = output(&w2, b2, t.iter().copied());
                }
                // Backward (squared-error loss, e = out - target): each
                // gradient sums its products from 0.0 in mini-batch row
                // order, as a row-by-row pass would.
                gb1.fill(0.0);
                gw2.fill(0.0);
                let mut gb2 = 0.0;
                let rows = out
                    .iter()
                    .zip(hid.chunks_exact(h))
                    .zip(dh.chunks_exact_mut(hp));
                for (((&o, t), g), &i) in rows.zip(chunk) {
                    let e = o - yn[i];
                    gb2 += e;
                    for j in 0..h {
                        gw2[j] += e * t[j];
                        g[j] = e * w2[j] * (1.0 - t[j] * t[j]);
                        gb1[j] += g[j];
                    }
                }
                input_gradients((&xn, d, dp), chunk, (&dh, hp), &mut gw1);
                let scale = lr / chunk.len() as f64;
                for (w, (v, g)) in w1.iter_mut().zip(vw1.iter_mut().zip(&gw1)) {
                    *v = cfg.momentum * *v - scale * g;
                    *w += *v;
                }
                for (w, (v, g)) in b1.iter_mut().zip(vb1.iter_mut().zip(&gb1)) {
                    *v = cfg.momentum * *v - scale * g;
                    *w += *v;
                }
                for (w, (v, g)) in w2.iter_mut().zip(vw2.iter_mut().zip(&gw2)) {
                    *v = cfg.momentum * *v - scale * g;
                    *w += *v;
                }
                vb2 = cfg.momentum * vb2 - scale * gb2;
                b2 += vb2;
            }
        }

        Mlp {
            input_dim,
            hidden: h,
            w1,
            b1,
            w2,
            b2,
            x_scale,
            y_mean,
            y_std,
        }
    }

    /// Predicts the target for one input row.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not match the training dimensionality.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        // Standardise on the stack; only a row over 32 wide allocates.
        let (mut stack, mut heap) = ([0.0; 32], None);
        let xn = match stack.get_mut(..x.len()) {
            Some(xn) => xn,
            None => heap.insert(vec![0.0; x.len()]).as_mut_slice(),
        };
        self.x_scale.transform_into(x, xn);
        let hidden = self
            .w1
            .chunks_exact(self.input_dim)
            .zip(&self.b1)
            .map(|(row, &b)| tanh(row.iter().zip(&*xn).fold(b, |a, (w, xi)| a + w * xi)));
        output(&self.w2, self.b2, hidden) * self.y_std + self.y_mean
    }

    /// True matrix–matrix forward over a flat row-major batch:
    /// `xs[r * input_dim + i]` is feature `i` of row `r`, and the `r`-th
    /// prediction lands in `out[r]`.
    ///
    /// Rows run through `preactivations` in blocks of
    /// [`Self::ROW_BLOCK`], then [`crate::tanh::tanh_in_place`] over each block's
    /// tile, so batched results are bit-identical to the scalar path,
    /// which the serving layer's end-to-end identity tests rely on.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n_rows * input_dim` or `out` is shorter
    /// than `n_rows`.
    pub fn predict_batch_into(&self, xs: &[f64], n_rows: usize, out: &mut [f64]) {
        isa::run(PredictBatch(self, xs, n_rows, out))
    }

    /// [`Mlp::predict_batch_into`]'s body, built for each ISA tier by
    /// [`PredictBatch`].
    #[inline(always)]
    fn predict_batch_body(&self, xs: &[f64], n_rows: usize, out: &mut [f64]) {
        let d = self.input_dim;
        assert_eq!(xs.len(), n_rows * d, "batch buffer length mismatch");
        assert!(out.len() >= n_rows, "output buffer too short");
        const B: usize = Mlp::ROW_BLOCK;
        let mut row = vec![0.0; d];
        let mut xn_t = vec![0.0; d * B];
        let mut tile = vec![0.0; self.hidden * B];
        let mut base = 0;
        while base < n_rows {
            let rows = (n_rows - base).min(B);
            if rows < B {
                // Tail block: zero the unused lanes so the full-width
                // arithmetic below never touches stale values.
                xn_t.iter_mut().for_each(|v| *v = 0.0);
            }
            for r in 0..rows {
                let x = &xs[(base + r) * d..(base + r + 1) * d];
                self.x_scale.transform_into(x, &mut row);
                for i in 0..d {
                    xn_t[i * B + r] = row[i];
                }
            }
            preactivations(&self.w1, &self.b1, &xn_t, |j, acc| {
                tile[j * B..(j + 1) * B].copy_from_slice(acc)
            });
            tanh::kernel(&mut tile);
            for (r, o) in out[base..base + rows].iter_mut().enumerate() {
                let hidden = tile.iter().skip(r).step_by(B).copied();
                *o = output(&self.w2, self.b2, hidden) * self.y_std + self.y_mean;
            }
            base += rows;
        }
    }

    /// Rows per block in the batched forward (`predict_batch_into`).
    pub const ROW_BLOCK: usize = 8;

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimensionality this network was trained on.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }
}

/// [`Mlp::train`] as a [`Kernel`].
struct Train<'a>(&'a [Vec<f64>], &'a [f64], &'a MlpConfig);

impl Kernel for Train<'_> {
    type Output = Mlp;
    #[inline(always)]
    fn run(self) -> Mlp {
        Mlp::train_body(self.0, self.1, self.2)
    }
}

/// [`Mlp::predict_batch_into`] as a [`Kernel`].
struct PredictBatch<'a>(&'a Mlp, &'a [f64], usize, &'a mut [f64]);

impl Kernel for PredictBatch<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        self.0.predict_batch_body(self.1, self.2, self.3)
    }
}

/// Hidden units whose input gradients [`input_gradients`] sums at once:
/// the paper's 10-neuron hidden layer makes two groups.
const UNITS: usize = 5;

/// Fills `gw1[j * d + i]` with the sum over the mini-batch `chunk`, from
/// 0.0 in row order, of `dh[r][j] * x[r][i]`: `xn` holds the rows `dp`
/// wide, zero past `d`, and `dh` each row's error terms `hp` wide. Each
/// pass keeps one B-lane accumulator for each of [`UNITS`] hidden units.
#[inline(always)]
fn input_gradients(
    (xn, d, dp): (&[f64], usize, usize),
    chunk: &[usize],
    (dh, hp): (&[f64], usize),
    gw1: &mut [f64],
) {
    const B: usize = Mlp::ROW_BLOCK;
    let h = gw1.len() / d;
    for c in (0..dp).step_by(B) {
        for j0 in (0..hp).step_by(UNITS) {
            let mut acc = [[0.0; B]; UNITS];
            for (r, &i) in chunk.iter().enumerate() {
                let x = xn[i * dp + c..]
                    .first_chunk::<B>()
                    .expect("rows are dp wide");
                let g = dh[r * hp + j0..]
                    .first_chunk::<UNITS>()
                    .expect("rows are hp wide");
                for (a, &g) in acc.iter_mut().zip(g) {
                    for (a, &x) in a.iter_mut().zip(x) {
                        *a += g * x;
                    }
                }
            }
            for (j, a) in (j0..h).zip(&acc) {
                let width = B.min(d - c);
                gw1[j * d + c..][..width].copy_from_slice(&a[..width]);
            }
        }
    }
}

/// Hidden-layer pre-activations of one block of [`Mlp::ROW_BLOCK`]
/// standardised rows, transposed (`xn_t[i * B + r]`) so the hot inner
/// loop is a fixed-width independent-accumulator sweep across the block
/// — autovectorization-friendly. Hands neuron `j`'s pre-activations for
/// the whole block to `pre(j, acc)`. Each row's accumulation order is
/// exactly the scalar [`Mlp::predict`] order (`b1[j]` then inputs in
/// `i`-order), so training and batched inference match the scalar path
/// bit for bit.
#[inline(always)]
fn preactivations(
    w1: &[f64],
    b1: &[f64],
    xn_t: &[f64],
    mut pre: impl FnMut(usize, &[f64; Mlp::ROW_BLOCK]),
) {
    const B: usize = Mlp::ROW_BLOCK;
    let d = xn_t.len() / B;
    for (j, (w1row, &b1j)) in w1.chunks_exact(d).zip(b1).enumerate() {
        let mut acc = [b1j; B];
        for (i, &w) in w1row.iter().enumerate() {
            let col = &xn_t[i * B..i * B + B];
            for r in 0..B {
                acc[r] += w * col[r];
            }
        }
        pre(j, &acc);
    }
}

/// The linear output from hidden activations in `j`-order, starting at
/// `b2`: the one summation order every forward path shares.
#[inline(always)]
fn output(w2: &[f64], b2: f64, hidden: impl Iterator<Item = f64>) -> f64 {
    w2.iter().zip(hidden).fold(b2, |o, (w, t)| o + w * t)
}

impl ToJson for Mlp {
    fn to_json(&self) -> Json {
        Json::obj([
            ("input_dim", self.input_dim.to_json()),
            ("hidden", self.hidden.to_json()),
            ("w1", self.w1.to_json()),
            ("b1", self.b1.to_json()),
            ("w2", self.w2.to_json()),
            ("b2", self.b2.to_json()),
            ("x_scale", self.x_scale.to_json()),
            ("y_mean", self.y_mean.to_json()),
            ("y_std", self.y_std.to_json()),
        ])
    }
}

impl FromJson for Mlp {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let net = Self {
            input_dim: usize::from_json(v.field("input_dim")?)?,
            hidden: usize::from_json(v.field("hidden")?)?,
            w1: Vec::from_json(v.field("w1")?)?,
            b1: Vec::from_json(v.field("b1")?)?,
            w2: Vec::from_json(v.field("w2")?)?,
            b2: f64::from_json(v.field("b2")?)?,
            x_scale: Standardizer::from_json(v.field("x_scale")?)?,
            y_mean: f64::from_json(v.field("y_mean")?)?,
            y_std: f64::from_json(v.field("y_std")?)?,
        };
        // A network whose weight shapes disagree with its declared
        // dimensions would panic (or silently mispredict) at inference —
        // reject the artifact instead.
        if net.input_dim == 0 || net.hidden == 0 {
            return Err(JsonError::msg("mlp dimensions must be positive"));
        }
        if net.w1.len() != net.hidden * net.input_dim {
            return Err(JsonError::msg(format!(
                "w1 has {} weights for {}x{} layer",
                net.w1.len(),
                net.hidden,
                net.input_dim
            )));
        }
        if net.b1.len() != net.hidden || net.w2.len() != net.hidden {
            return Err(JsonError::msg(format!(
                "hidden layer {} disagrees with b1 {} / w2 {}",
                net.hidden,
                net.b1.len(),
                net.w2.len()
            )));
        }
        // A zero or negative target scale predicts a constant or a
        // sign-flipped value.
        if net.y_std.is_nan() || net.y_std <= 0.0 {
            return Err(JsonError::msg(format!("y_std is {}, not > 0", net.y_std)));
        }
        if net.x_scale.dim() != net.input_dim {
            return Err(JsonError::msg(format!(
                "standardizer dim {} disagrees with input dim {}",
                net.x_scale.dim(),
                net.input_dim
            )));
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Tier;
    use crate::stats::{correlation, rmae};

    fn grid2(n: usize) -> Vec<Vec<f64>> {
        let mut rng = Xoshiro256::seed_from(77);
        (0..n)
            .map(|_| vec![rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0])
            .collect()
    }

    #[test]
    fn learns_linear_function() {
        let xs = grid2(256);
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 5.0).collect();
        let net = Mlp::train(&xs, &ys, &MlpConfig::default());
        let preds: Vec<f64> = xs.iter().map(|x| net.predict(x)).collect();
        assert!(correlation(&preds, &ys) > 0.99);
    }

    #[test]
    fn learns_nonlinear_function() {
        // y = x0 * x1 is not linearly representable.
        let xs = grid2(512);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1] + 10.0).collect();
        let cfg = MlpConfig {
            epochs: 500,
            ..MlpConfig::default()
        };
        let net = Mlp::train(&xs, &ys, &cfg);
        let preds: Vec<f64> = xs.iter().map(|x| net.predict(x)).collect();
        assert!(
            correlation(&preds, &ys) > 0.95,
            "corr {}",
            correlation(&preds, &ys)
        );
        assert!(rmae(&preds, &ys) < 5.0, "rmae {}", rmae(&preds, &ys));
    }

    #[test]
    fn drives_rmse_below_threshold_on_1d_nonlinear_function() {
        // Fixed-seed 1-D regression of y = sin(2x): a smooth nonlinear
        // target a 10-neuron tanh net must fit well. RMSE is an absolute
        // quality bar, unlike the correlation checks above.
        let xs: Vec<Vec<f64>> = (0..128).map(|i| vec![i as f64 / 32.0 - 2.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (2.0 * x[0]).sin()).collect();
        let cfg = MlpConfig {
            epochs: 1_500,
            ..MlpConfig::default()
        };
        let net = Mlp::train(&xs, &ys, &cfg);
        let preds: Vec<f64> = xs.iter().map(|x| net.predict(x)).collect();
        let rmse = (preds
            .iter()
            .zip(&ys)
            .map(|(p, y)| (p - y) * (p - y))
            .sum::<f64>()
            / ys.len() as f64)
            .sqrt();
        assert!(rmse < 0.1, "training RMSE {rmse} above threshold");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let xs = grid2(64);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + x[1]).collect();
        let a = Mlp::train(&xs, &ys, &MlpConfig::default());
        let b = Mlp::train(&xs, &ys, &MlpConfig::default());
        assert_eq!(a, b);
        assert_eq!(a.predict(&[0.5, 0.5]), b.predict(&[0.5, 0.5]));
    }

    #[test]
    fn different_seeds_differ() {
        let xs = grid2(64);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + x[1]).collect();
        let a = Mlp::train(&xs, &ys, &MlpConfig::default());
        let b = Mlp::train(
            &xs,
            &ys,
            &MlpConfig {
                seed: 2,
                ..MlpConfig::default()
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn more_training_data_helps_generalisation() {
        let f = |x: &[f64]| (x[0] * 1.5).sin() + 0.5 * x[1];
        let test = grid2(200);
        let test_y: Vec<f64> = test.iter().map(|x| f(x) + 100.0).collect();
        let err_with = |n: usize| {
            let mut rng = Xoshiro256::seed_from(n as u64);
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0])
                .collect();
            let ys: Vec<f64> = xs.iter().map(|x| f(x) + 100.0).collect();
            let net = Mlp::train(&xs, &ys, &MlpConfig::default());
            let preds: Vec<f64> = test.iter().map(|x| net.predict(x)).collect();
            rmae(&preds, &test_y)
        };
        let few = err_with(8);
        let many = err_with(512);
        assert!(many < few, "many {many} few {few}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let xs = grid2(32);
        let ys = vec![42.0; 32];
        let net = Mlp::train(&xs, &ys, &MlpConfig::default());
        assert!((net.predict(&[0.0, 0.0]) - 42.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Mlp::train(&[vec![1.0]], &[1.0, 2.0], &MlpConfig::default());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_dim_panics() {
        let net = Mlp::train(&[vec![1.0], vec![2.0]], &[1.0, 2.0], &MlpConfig::default());
        net.predict(&[1.0, 2.0]);
    }

    #[test]
    fn json_round_trip_predicts_bit_identically() {
        let xs = grid2(64);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1] - 0.3 * x[0]).collect();
        let net = Mlp::train(&xs, &ys, &MlpConfig::default());
        let text = dse_util::json::to_string(&net);
        let back: Mlp = dse_util::json::from_str(&text).unwrap();
        assert_eq!(back, net);
        for x in &xs {
            assert_eq!(
                net.predict(x).to_bits(),
                back.predict(x).to_bits(),
                "prediction changed across save/load at {x:?}"
            );
        }
    }

    /// FNV-1a over the bit patterns of every trained weight plus one
    /// prediction: any change to the training arithmetic moves it.
    fn weight_digest(net: &Mlp, probe: &[f64]) -> u64 {
        let tail = [net.b2, net.predict(probe)];
        let bits = net.w1.iter().chain(&net.b1).chain(&net.w2).chain(&tail);
        bits.map(|v| v.to_bits())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    fn pinned_rows(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = Xoshiro256::seed_from(2007);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..13).map(|i| rng.next_f64() * (i + 1) as f64).collect())
            .collect();
        let ys = xs
            .iter()
            .map(|x| 1e6 * (1.0 + x[0] * x[3] + (x[7] - x[12]).sin()) + 3e4 * x[5])
            .collect();
        (xs, ys)
    }

    /// Recorded before the batched training forward: full 32-row
    /// mini-batches, a ragged 32 + 18 split (tail block under 8 rows),
    /// and one-row mini-batches.
    fn pinned_cases() -> [(usize, MlpConfig, u64); 3] {
        [
            (96, MlpConfig::default(), 0xe497_11d2_d863_fe67_u64),
            (50, MlpConfig::default(), 0x0978_94b8_1213_98d7),
            (
                40,
                MlpConfig {
                    batch: 1,
                    epochs: 30,
                    ..MlpConfig::default()
                },
                0x1a4c_4a29_67f6_1e85,
            ),
        ]
    }

    #[test]
    fn training_is_pinned_bit_for_bit() {
        let cases = pinned_cases();
        let mut got = Vec::new();
        for (n, cfg, _) in &cases {
            let (xs, ys) = pinned_rows(*n);
            got.push(weight_digest(&Mlp::train(&xs, &ys, cfg), &xs[1]));
        }
        let want: Vec<u64> = cases.iter().map(|c| c.2).collect();
        assert_eq!(got, want, "trained weights moved: {got:#x?}");
    }

    #[test]
    fn every_tier_trains_and_predicts_the_same_bits() {
        for tier in Tier::testable() {
            for (n, cfg, want) in pinned_cases() {
                let (xs, ys) = pinned_rows(n);
                let net = isa::run_on(tier, Train(&xs, &ys, &cfg));
                let got = weight_digest(&net, &xs[1]);
                assert_eq!(got, want, "{tier:?} build, {n} rows: {got:#x}");
                // 13 rows leave a 5-row tail block.
                for rows in [n, 13] {
                    let flat: Vec<f64> = xs[..rows].iter().flatten().copied().collect();
                    let (mut out, mut want) = (vec![0.0; rows], vec![0.0; rows]);
                    isa::run_on(tier, PredictBatch(&net, &flat, rows, &mut out));
                    isa::run_on(Tier::Portable, PredictBatch(&net, &flat, rows, &mut want));
                    for (r, (a, b)) in out.iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{tier:?} build, row {r} of {rows}"
                        );
                    }
                }
            }
        }
    }

    /// Bit patterns of every trained weight.
    fn weight_bits(net: &Mlp) -> Vec<u64> {
        let tail = [net.b2];
        let weights = net.w1.iter().chain(&net.b1).chain(&net.w2).chain(&tail);
        weights.map(|v| v.to_bits()).collect()
    }

    /// The training step row by row, as it ran before the blocked
    /// backward: each row's forward with the scalar tanh, then its
    /// backward, every gradient accumulated in mini-batch row order.
    fn train_row_by_row(xs: &[Vec<f64>], ys: &[f64], cfg: &MlpConfig) -> Mlp {
        let d = xs[0].len();
        let x_scale = Standardizer::fit(xs);
        let y_mean = stats::mean(ys);
        let y_std = match stats::std_dev(ys) {
            s if s > 0.0 => s,
            _ => 1.0,
        };
        let xn: Vec<Vec<f64>> = xs.iter().map(|x| x_scale.transform(x)).collect();
        let yn: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();
        let mut rng = Xoshiro256::seed_from(cfg.seed);
        let h = cfg.hidden;
        let init = |rng: &mut Xoshiro256, fan_in: usize| {
            let bound = 1.0 / (fan_in as f64).sqrt();
            (rng.next_f64() * 2.0 - 1.0) * bound
        };
        let mut w1: Vec<f64> = (0..h * d).map(|_| init(&mut rng, d)).collect();
        let mut b1 = vec![0.0; h];
        let mut w2: Vec<f64> = (0..h).map(|_| init(&mut rng, h)).collect();
        let mut b2 = 0.0;
        let (mut vw1, mut vb1, mut vw2, mut vb2) =
            (vec![0.0; h * d], vec![0.0; h], vec![0.0; h], 0.0);
        let step = |w: &mut [f64], v: &mut [f64], g: &[f64], scale: f64| {
            for (w, (v, g)) in w.iter_mut().zip(v.iter_mut().zip(g)) {
                *v = cfg.momentum * *v - scale * g;
                *w += *v;
            }
        };
        let mut order: Vec<usize> = (0..yn.len()).collect();
        for epoch in 0..cfg.epochs {
            let lr = cfg.learning_rate / (1.0 + 4.0 * epoch as f64 / cfg.epochs as f64);
            rng.shuffle(&mut order);
            for chunk in order.chunks(cfg.batch) {
                let hid: Vec<Vec<f64>> = chunk
                    .iter()
                    .map(|&i| {
                        let pre = |(row, &b): (&[f64], &f64)| {
                            row.iter().zip(&xn[i]).fold(b, |a, (w, x)| a + w * x)
                        };
                        w1.chunks_exact(d).zip(&b1).map(pre).map(tanh).collect()
                    })
                    .collect();
                let (mut gw1, mut gb1, mut gw2, mut gb2) =
                    (vec![0.0; h * d], vec![0.0; h], vec![0.0; h], 0.0);
                for (t, &i) in hid.iter().zip(chunk) {
                    let e = output(&w2, b2, t.iter().copied()) - yn[i];
                    gb2 += e;
                    for (j, &hj) in t.iter().enumerate() {
                        gw2[j] += e * hj;
                        let dh = e * w2[j] * (1.0 - hj * hj);
                        gb1[j] += dh;
                        for (g, xi) in gw1[j * d..(j + 1) * d].iter_mut().zip(&xn[i]) {
                            *g += dh * xi;
                        }
                    }
                }
                let scale = lr / chunk.len() as f64;
                step(&mut w1, &mut vw1, &gw1, scale);
                step(&mut b1, &mut vb1, &gb1, scale);
                step(&mut w2, &mut vw2, &gw2, scale);
                vb2 = cfg.momentum * vb2 - scale * gb2;
                b2 += vb2;
            }
        }
        Mlp {
            input_dim: d,
            hidden: h,
            w1,
            b1,
            w2,
            b2,
            x_scale,
            y_mean,
            y_std,
        }
    }

    #[test]
    fn blocked_backward_matches_row_by_row_reference() {
        // 45 rows leave ragged last mini-batches of 3 (batch 7) and 13
        // (batch 32), and a 5-row tail block in the forward.
        let n = 45;
        let tiers = Tier::testable();
        for d in [1, 7, 8, 9, 13, 17] {
            let mut rng = Xoshiro256::seed_from(d as u64);
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| rng.next_f64() * 4.0 - 2.0).collect())
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| {
                    x.iter()
                        .enumerate()
                        .map(|(i, v)| ((i + 1) as f64 * v).sin())
                        .sum()
                })
                .collect();
            for hidden in [1, 10, 16] {
                for batch in [1, 7, 32, n] {
                    let cfg = MlpConfig {
                        hidden,
                        batch,
                        epochs: 3,
                        seed: (d * 100 + hidden) as u64,
                        ..MlpConfig::default()
                    };
                    let want = weight_bits(&train_row_by_row(&xs, &ys, &cfg));
                    for &tier in &tiers {
                        let net = isa::run_on(tier, Train(&xs, &ys, &cfg));
                        assert_eq!(
                            weight_bits(&net),
                            want,
                            "{tier:?} build, input_dim {d}, hidden {hidden}, batch {batch}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn json_rejects_inconsistent_shapes() {
        let net = Mlp::train(&grid2(16), &vec![1.0; 16], &MlpConfig::default());
        let good = dse_util::json::to_string(&net);
        // Splice an extra weight into w1: shape check must fire.
        let bad = good.replacen("\"w1\":[", "\"w1\":[0.0,", 1);
        assert!(dse_util::json::from_str::<Mlp>(&bad).is_err());
        let bad_hidden = good.replacen("\"hidden\":10", "\"hidden\":9", 1);
        assert!(dse_util::json::from_str::<Mlp>(&bad_hidden).is_err());
    }

    #[test]
    fn json_rejects_a_non_positive_y_std() {
        let net = Mlp::train(
            &grid2(16),
            &grid2(16).iter().map(|x| x[0]).collect::<Vec<_>>(),
            &MlpConfig::default(),
        );
        let good = dse_util::json::to_string(&net);
        let at = good.find("\"y_std\":").unwrap() + "\"y_std\":".len();
        let end = at + good[at..].find(['}', ',']).unwrap();
        for bad_std in ["0", "-0.0", "-2.5"] {
            let bad = format!("{}{bad_std}{}", &good[..at], &good[end..]);
            let err = dse_util::json::from_str::<Mlp>(&bad)
                .unwrap_err()
                .to_string();
            assert!(err.contains("y_std is"), "{bad_std}: {err}");
        }
    }
}
