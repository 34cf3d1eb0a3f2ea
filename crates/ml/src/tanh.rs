//! The MLP's activation: tanh, bit for bit the host libm's on x86-64
//! glibc 2.36 with FMA, on every host.
//!
//! glibc's `tanh` calls `expm1`, an IFUNC that resolves at load time to a
//! build with fused multiply-adds on CPUs with FMA and AVX2 and to one
//! without elsewhere; the two differ in the last bit on about one input
//! in 4,000. This module ports the fused build's exact operation
//! sequence (fdlibm's `s_tanh.c` over `s_expm1.c`, with the fused steps
//! the compiler emitted), so a trained network no longer depends on which
//! `expm1` the loader picked.
//!
//! [`tanh`] is the scalar reference. [`tanh_in_place`] is a branch-free
//! lane kernel: every lane computes every path's operations and keeps
//! the result of its own path, so each lane's bits are the reference's.
//! Training inputs jump between the paths, so removing the branches is
//! where the speed comes from. Both are compiled from one source for
//! the crate's ISA tiers, chosen at run time (the scalar one for at most
//! AVX2 + FMA); in the portable build [`f64::mul_add`] is the same fused
//! operation done in software.
//!
//! Only the `expm1` paths tanh reaches are ported: its argument is
//! `2|x|` in [2, 44) or `-2|x|` in (-2, -2^-54], so the reduction
//! multiple k is 0, -1, -2, -3 or 3..=63, never 1 or 2, and neither the
//! overflow nor the tiny-argument branch runs.

// Derived from fdlibm's s_tanh.c and s_expm1.c, under this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

use crate::isa::{self, Kernel, Tier};

#[cfg(test)]
mod tests;

/// 6.93147180369123816490e-01, the high part of ln 2.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// 1.90821492927058770002e-10, the low part of ln 2.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// 1.44269504088896338700e+00, 1 / ln 2.
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// expm1's scaled rational coefficients Q1..Q5.
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);

/// `tanh(x)` by glibc 2.36's operation sequence over `__expm1_fma`: the
/// scalar reference every lane of [`tanh_in_place`] matches. Built for
/// AVX2 + FMA where the CPU has them, so each fused step is one
/// instruction rather than a call into libm's `fma`.
pub fn tanh(x: f64) -> f64 {
    isa::run_on(Tier::host().min(Tier::Avx2Fma), Scalar(x))
}

/// Replaces every element of `xs` by its [`tanh`], bit for bit.
pub fn tanh_in_place(xs: &mut [f64]) {
    isa::run(InPlace(xs))
}

struct Scalar(f64);

impl Kernel for Scalar {
    type Output = f64;
    #[inline(always)]
    fn run(self) -> f64 {
        reference(self.0)
    }
}

struct InPlace<'a>(&'a mut [f64]);

impl Kernel for InPlace<'_> {
    type Output = ();
    #[inline(always)]
    fn run(self) {
        kernel(self.0)
    }
}

/// The port itself, inlined into each build.
#[inline(always)]
fn reference(x: f64) -> f64 {
    let jx = (x.to_bits() >> 32) as u32;
    let ix = jx & 0x7fff_ffff;
    let negative = jx >> 31 == 1;
    if ix >= 0x7ff0_0000 {
        // +-inf -> +-1; NaN -> NaN.
        return if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        };
    }
    let z = if ix >= 0x4036_0000 {
        // |x| >= 22 (fdlibm returns 1 - 1e-300, which rounds to 1).
        1.0
    } else if ix < 0x3c80_0000 {
        // |x| < 2^-55, +-0 included.
        return x * (1.0 + x);
    } else if ix >= 0x3ff0_0000 {
        let t = expm1(2.0 * x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if negative {
        -z
    } else {
        z
    }
}

/// `expm1(x)` on the arguments tanh passes (see the module docs).
#[inline(always)]
fn expm1(x: f64) -> f64 {
    let hx = (x.to_bits() >> 32) as u32 & 0x7fff_ffff;
    let negative = x.is_sign_negative();
    // Argument reduction: x = k ln2 + r, |r| <= 0.5 ln2, with c the
    // rounding error of r = hi - lo.
    let (x, c, k) = if hx > 0x3fd6_2e42 {
        let (hi, lo, k) = if hx < 0x3ff0_a2b2 {
            // 0.5 ln2 < |x| < 1.5 ln2; tanh's positive arguments are >= 2.
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            let k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = f64::from(k);
            ((-t).mul_add(LN2_HI, x), t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else {
        (x, 0.0, 0)
    };
    let (hxs, e) = expm1_core(x);
    if k == 0 {
        return x - x.mul_add(e, -hxs);
    }
    let e = (e - c).mul_add(x, -c) - hxs;
    if k == -1 {
        return (x - e).mul_add(0.5, -0.5);
    }
    let kb = (k as u64) << 52;
    if k <= -2 || k > 56 {
        add_exponent(1.0 - (e - x), kb) - 1.0
    } else if k < 20 {
        add_exponent((1.0 - pow2_neg(k as u64)) - (e - x), kb)
    } else {
        add_exponent((x - (e + pow2_neg(k as u64))) + 1.0, kb)
    }
}

/// The rational approximation on the reduced argument: `(hxs, e)` with
/// `hxs = x * x / 2`, so that `expm1(x) = x - (x e - hxs)`.
#[inline(always)]
fn expm1_core(x: f64) -> (f64, f64) {
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = hxs.mul_add(Q1, 1.0);
    let h2 = hxs * hxs;
    let r2 = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let r3 = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(r3, h2.mul_add(r2, r1));
    let t = (-r1).mul_add(hfx, 3.0);
    (hxs, hxs * ((r1 - t) / (-x).mul_add(t, 6.0)))
}

/// `y` with `k` added to its exponent field (fdlibm's `SET_HIGH_WORD(y,
/// high + (k << 20))`), where `kb` holds `k << 52` modulo 2^64.
#[inline(always)]
fn add_exponent(y: f64, kb: u64) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add(kb))
}

/// 2^-k for 0 < k < 1023, from the low bits of `k`.
#[inline(always)]
fn pow2_neg(k: u64) -> f64 {
    f64::from_bits(1023u64.wrapping_sub(k) << 52)
}

/// The lane kernel over a slice, inlined into each build (the MLP's
/// kernels call it directly). The loop vectorizes because [`tanh_lane`]
/// has no branches.
#[inline(always)]
pub(crate) fn kernel(xs: &mut [f64]) {
    for x in xs {
        *x = tanh_lane(*x);
    }
}

/// One lane of the kernel: [`reference`] over [`expm1`] with every branch
/// replaced by computing both sides and selecting. Garbage in the
/// unselected sides (NaN, wrapped integers) never reaches the result.
#[inline(always)]
fn tanh_lane(x: f64) -> f64 {
    let ax = x.abs();
    let negative = x.is_sign_negative();
    let finite = ax < f64::INFINITY;
    let big = ax >= 1.0;

    // expm1's argument and its reduction.
    let a = if big { 2.0 * ax } else { -2.0 * ax };
    let aa = 2.0 * ax;
    let reduce = aa >= f64::from_bits(0x3fd6_2e43_0000_0000);
    let by_one = aa < f64::from_bits(0x3ff0_a2b2_0000_0000);
    let kg = (INVLN2 * a + if big { 0.5 } else { -0.5 }).trunc();
    let hi = if by_one {
        a + LN2_HI
    } else {
        (-kg).mul_add(LN2_HI, a)
    };
    let lo = if by_one { -LN2_LO } else { kg * LN2_LO };
    let r = hi - lo;
    let c = (hi - r) - lo;
    let (xr, c, k) = if !reduce {
        (a, 0.0, 0.0)
    } else if by_one {
        (r, c, -1.0)
    } else {
        (r, c, kg)
    };

    // expm1's tails, one per k range.
    let (hxs, e) = expm1_core(xr);
    let y0 = xr - xr.mul_add(e, -hxs);
    let e = (e - c).mul_add(xr, -c) - hxs;
    let ym1 = (xr - e).mul_add(0.5, -0.5);
    // The low 12 bits of k + 1.5 * 2^52 are k's two's complement.
    let kbits = (k + 6_755_399_441_055_744.0).to_bits();
    let kb = kbits << 52;
    let y_out = add_exponent(1.0 - (e - xr), kb) - 1.0;
    let y_lo = add_exponent((1.0 - pow2_neg(kbits)) - (e - xr), kb);
    let y_hi = add_exponent((xr - (e + pow2_neg(kbits))) + 1.0, kb);
    let t = if k == 0.0 {
        y0
    } else if k == -1.0 {
        ym1
    } else if k <= -2.0 || k > 56.0 {
        y_out
    } else if k < 20.0 {
        y_lo
    } else {
        y_hi
    };

    // tanh: one division serves the non-finite and both finite paths.
    let num = if !finite {
        1.0
    } else if big {
        2.0
    } else {
        -t
    };
    let den = if finite { t + 2.0 } else { x };
    let q = num / den;
    let z = if ax >= 22.0 {
        1.0
    } else if big {
        1.0 - q
    } else {
        q
    };
    if !finite {
        if negative {
            q - 1.0
        } else {
            q + 1.0
        }
    } else if ax < f64::from_bits(0x3c80_0000_0000_0000) {
        x * (1.0 + x)
    } else if negative {
        -z
    } else {
        z
    }
}
