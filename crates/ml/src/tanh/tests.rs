//! The port against its pins: a digest of libm's bits, every ISA tier's
//! builds against the portable ones, and the host's libm itself.

use super::*;
use dse_rng::Xoshiro256;

/// |x| bands, one per path of the port: below 2^-55 tanh returns
/// `x * (1 + x)`; below 1 it calls expm1 on -2|x| (k = 0, then -1, then
/// -2 and -3); from 1 it calls expm1 on 2|x| (k = 3..19, 20..56, > 56);
/// from 22 it returns +-1.
const BANDS: [f64; 9] = [
    0.0,
    2.7755575615628914e-17,
    0.1733,
    0.5199,
    1.0,
    6.758,
    19.58,
    22.0,
    64.0,
];

/// Path edges in x, exact: 2^-55, the expm1 reduction thresholds
/// (high words 0x3fd62e43 and 0x3ff0a2b2, halved), 1, the k-rounding
/// edges 19.5 ln2 / 2 and 56.5 ln2 / 2, and 22.
fn edges() -> Vec<f64> {
    vec![
        f64::from_bits(0x3c80_0000_0000_0000),
        f64::from_bits(0x3fd6_2e43_0000_0000) / 2.0,
        f64::from_bits(0x3ff0_a2b2_0000_0000) / 2.0,
        1.0,
        19.5 * std::f64::consts::LN_2 / 2.0,
        56.5 * std::f64::consts::LN_2 / 2.0,
        22.0,
    ]
}

/// A seeded sample over every path: `per_band` uniform draws in each
/// band and of random bit patterns (any exponent, NaN and infinities
/// included) and of subnormals, each with a random sign; then each edge
/// and its neighbours up to 3 ulps away, and the special values, in
/// both signs.
fn sample_inputs(per_band: usize, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut xs = Vec::new();
    let signed = |rng: &mut Xoshiro256, m: f64| {
        if rng.next_u64() >> 63 == 1 {
            -m
        } else {
            m
        }
    };
    for w in BANDS.windows(2) {
        for _ in 0..per_band {
            let m = w[0] + (w[1] - w[0]) * rng.next_f64();
            xs.push(signed(&mut rng, m));
        }
    }
    for _ in 0..per_band {
        xs.push(f64::from_bits(rng.next_u64()));
        xs.push(f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff));
    }
    for e in edges() {
        let b = e.to_bits();
        for m in (b - 3..=b + 3).map(f64::from_bits) {
            xs.extend([m, -m]);
        }
    }
    let specials = [
        0.0,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff8_dead_beef_0001),
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    for s in specials {
        xs.extend([s, -s]);
    }
    xs
}

/// FNV-1a over bit patterns.
fn digest(vals: impl Iterator<Item = f64>) -> u64 {
    vals.map(f64::to_bits).fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the host libm's tanh over `sample_inputs(4096, 2007)`
/// (41,074 inputs), recorded on x86-64 glibc 2.36, whose `expm1`
/// resolves to its FMA build, before this module existed.
const LIBM_DIGEST: u64 = 0xeb0c_66b8_4171_5130;

fn in_place(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    tanh_in_place(&mut out);
    out
}

#[test]
fn reference_and_kernel_match_the_pinned_libm_digest() {
    let xs = sample_inputs(4096, 2007);
    assert_eq!(xs.len(), 41_074);
    let reference = digest(xs.iter().map(|&x| tanh(x)));
    assert_eq!(reference, LIBM_DIGEST, "scalar reference: {reference:#x}");
    let lanes = digest(in_place(&xs).into_iter());
    assert_eq!(lanes, LIBM_DIGEST, "lane kernel: {lanes:#x}");
}

#[test]
fn kernel_matches_reference_on_every_tail_length() {
    // Slices of 1..=17 elements leave every remainder the vectorized
    // loop hands to its scalar tail, after zero to four whole vectors;
    // the sample's last elements are the edges and the non-finite values.
    let xs = sample_inputs(64, 9);
    for len in 1..=17 {
        for chunk in xs.chunks(len).chain(xs.rchunks(len)) {
            let got = in_place(chunk);
            for (x, t) in chunk.iter().zip(got) {
                assert_eq!(tanh(*x).to_bits(), t.to_bits(), "tanh({x:e}), len {len}");
            }
        }
    }
}

#[test]
fn portable_and_avx2_fma_builds_agree() {
    // Every ISA tier the CPU has, AVX-512 included, against the portable
    // build: the scalar reference and the lane kernel on every tail
    // length and on one long slice.
    let xs = sample_inputs(4096, 77);
    let mut portable = xs.clone();
    kernel(&mut portable);
    for (x, t) in xs.iter().zip(&portable) {
        assert_eq!(reference(*x).to_bits(), t.to_bits(), "portable tanh({x:e})");
    }
    for tier in Tier::testable() {
        for x in &xs {
            let fast = isa::run_on(tier, Scalar(*x));
            let want = reference(*x).to_bits();
            assert_eq!(fast.to_bits(), want, "{tier:?} scalar tanh({x:e})");
        }
        for len in [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, xs.len()] {
            for chunk in xs.chunks(len).chain(xs.rchunks(len)) {
                let mut fast = chunk.to_vec();
                let mut slow = chunk.to_vec();
                isa::run_on(tier, InPlace(&mut fast));
                kernel(&mut slow);
                for ((x, f), s) in chunk.iter().zip(fast).zip(slow) {
                    let (f, s) = (f.to_bits(), s.to_bits());
                    assert_eq!(f, s, "{tier:?} tanh({x:e}), len {len}");
                }
            }
        }
    }
}

/// The reference test: where glibc resolves `expm1` to its FMA build,
/// the port must equal the host's own tanh on a million inputs. The gate
/// asks libm itself which build it resolved, not CPUID: a hwcaps mask
/// (`GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`) makes glibc pick the
/// non-FMA build on an FMA CPU, and the probe input rounds differently
/// there. `black_box` keeps the compiler from folding the probe call with
/// its own libm at build time.
#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
fn matches_host_libm_where_expm1_is_fused() {
    let probe = std::hint::black_box(f64::from_bits(0xbfba_417a_f8b2_5e00)).tanh();
    let probe = probe.to_bits();
    if probe != 0xbfba_2a02_f784_cc09 {
        assert_eq!(probe, 0xbfba_2a02_f784_cc0a, "neither glibc tanh build");
        println!("host libm resolved its non-FMA tanh; reference check skipped");
        return;
    }
    let xs = sample_inputs(100_000, 1);
    assert!(xs.len() >= 1_000_000);
    let lanes = in_place(&xs);
    for (x, t) in xs.iter().zip(lanes) {
        let want = x.tanh().to_bits();
        assert_eq!(tanh(*x).to_bits(), want, "reference tanh({x:e})");
        assert_eq!(t.to_bits(), want, "kernel tanh({x:e})");
    }
}
