//! The batched MLP forward must be *bit-identical* per row to the scalar
//! [`Mlp::predict`] — the serving and exploration layers route everything
//! through the batched path precisely because it changes nothing but
//! speed. These tests pin the contract across block boundaries, ragged
//! tails and degenerate shapes.

use dse_ml::{Mlp, MlpConfig};
use dse_rng::Xoshiro256;

/// Batch sizes straddling every interesting boundary of the 8-row block:
/// empty, single, one-short-of-a-block, exactly one block, many blocks,
/// and a large ragged batch.
const SIZES: [usize; 6] = [0, 1, 7, 8, 64, 1000];

fn train_net(input_dim: usize, hidden: usize, seed: u64) -> Mlp {
    let mut rng = Xoshiro256::seed_from(seed);
    let xs: Vec<Vec<f64>> = (0..96)
        .map(|_| {
            (0..input_dim)
                .map(|_| rng.next_f64() * 10.0 - 5.0)
                .collect()
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * v)
                .sum::<f64>()
        })
        .collect();
    let cfg = MlpConfig {
        hidden,
        epochs: 40,
        seed,
        ..MlpConfig::default()
    };
    Mlp::train(&xs, &ys, &cfg)
}

fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Xoshiro256::seed_from(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f64() * 20.0 - 10.0).collect())
        .collect()
}

fn assert_bit_identical(net: &Mlp, rows: &[Vec<f64>]) {
    let scalar: Vec<f64> = rows.iter().map(|r| net.predict(r)).collect();

    // The flat row-major batch, with an oversized output buffer to check
    // only the first `n_rows` slots are written.
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let sentinel = f64::from_bits(0x7ff8_dead_beef_0001);
    let mut out = vec![sentinel; rows.len() + 3];
    net.predict_batch_into(&flat, rows.len(), &mut out);
    for (i, (s, b)) in scalar.iter().zip(&out).enumerate() {
        assert_eq!(
            s.to_bits(),
            b.to_bits(),
            "predict_batch_into row {i}: scalar {s:e} vs batched {b:e}"
        );
    }
    for (i, tail) in out[rows.len()..].iter().enumerate() {
        assert_eq!(
            tail.to_bits(),
            sentinel.to_bits(),
            "predict_batch_into wrote past n_rows at slot {}",
            rows.len() + i
        );
    }
}

#[test]
fn batched_forward_is_bit_identical_across_sizes() {
    let net = train_net(13, 10, 7);
    for (k, &n) in SIZES.iter().enumerate() {
        let rows = random_rows(n, 13, 100 + k as u64);
        assert_bit_identical(&net, &rows);
    }
}

#[test]
fn batched_forward_is_bit_identical_for_odd_shapes() {
    // Widths and hidden sizes that do not divide the row block evenly.
    for &(dim, hidden) in &[(1usize, 1usize), (3, 5), (13, 10), (17, 23)] {
        let net = train_net(dim, hidden, 31 + dim as u64);
        for &n in &[1usize, 7, 8, 9, 33] {
            let rows = random_rows(n, dim, 500 + n as u64);
            assert_bit_identical(&net, &rows);
        }
    }
}

#[test]
fn batched_forward_survives_json_round_trip() {
    // A deserialised network (the serving path: artifacts come off disk)
    // must keep the identity too.
    let net = train_net(13, 10, 99);
    let back: Mlp = dse_util::json::from_str(&dse_util::json::to_string(&net)).unwrap();
    let rows = random_rows(64, 13, 4242);
    let scalar: Vec<f64> = rows.iter().map(|r| net.predict(r)).collect();
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let mut out = vec![0.0; rows.len()];
    back.predict_batch_into(&flat, rows.len(), &mut out);
    for (i, (s, b)) in scalar.iter().zip(&out).enumerate() {
        assert_eq!(s.to_bits(), b.to_bits(), "row {i} diverged after reload");
    }
}

#[test]
fn extreme_inputs_stay_bit_identical() {
    // Saturated tanh regions, zeros, and sign flips — the places where a
    // reassociated accumulation would first show a 1-ulp drift.
    let net = train_net(4, 10, 11);
    let rows = vec![
        vec![0.0, 0.0, 0.0, 0.0],
        vec![1e6, -1e6, 1e-12, -1e-12],
        vec![-5.0, 5.0, -5.0, 5.0],
        vec![f64::MIN_POSITIVE, 1.0, -1.0, 0.5],
        vec![1e300, -1e300, 1.0, -1.0],
    ];
    assert_bit_identical(&net, &rows);
}

#[test]
fn extreme_preactivations_stay_bit_identical() {
    // A hand-built network with an identity standardizer and zero
    // biases, so hidden unit j's pre-activation is exactly `w1[j] * x`:
    // each nonzero row drives some units to |a| >= 22 (tanh is +-1) and
    // others below 2^-55 (tanh is a(1 + a)), the lane kernel's extreme
    // lanes, beside zeros, subnormals and every path in between.
    let w1: [f64; 10] = [1.0, -1.0, 1e-20, -1e-20, 40.0, -40.0, 1e-300, 0.5, 3.0, 1e6];
    let w2 = [0.5, -0.25, 1e17, -1e17, 2.0, -3.0, 1e300, 1.5, -0.75, 1.0];
    let text = format!(
        r#"{{"input_dim":1,"hidden":10,"w1":{w1:?},"b1":{b1:?},"w2":{w2:?},"b2":0.0,"x_scale":{{"means":[0.0],"stds":[1.0]}},"y_mean":0.0,"y_std":1.0}}"#,
        b1 = [0.0; 10],
    );
    let net: Mlp = dse_util::json::from_str(&text).unwrap();
    let xs: [f64; 14] = [
        1.0, -1.0, 0.6, -2.0, 0.0, -0.0, 1e-3, 7.0, 1e-10, -0.3, 25.0, 5e-324, 0.17, 700.0,
    ];
    let (mut tiny, mut saturated) = (0, 0);
    for x in xs {
        for w in w1 {
            let a = w * x;
            tiny += usize::from(a != 0.0 && a.abs() < f64::from_bits(0x3c80_0000_0000_0000));
            saturated += usize::from(a.abs() >= 22.0);
        }
    }
    assert!(
        tiny >= 10 && saturated >= 10,
        "tiny {tiny}, saturated {saturated}"
    );
    let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
    assert_bit_identical(&net, &rows);
}
