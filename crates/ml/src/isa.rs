//! One CPUID check and the crate's one `#[target_feature]` site: a hot
//! loop written once as a [`Kernel`] is built for AVX-512 (F, DQ, VL),
//! for AVX2 + FMA and portably. Every build runs the same IEEE operations
//! in the same order (Rust never fuses `a * b + c`, and `f64::mul_add`
//! is one fused operation in each), so all compute the same bits.

use std::sync::OnceLock;

/// A build of a [`Kernel`]; each tier has the features of those below.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum Tier {
    Portable,
    Avx2Fma,
    Avx512,
}

impl Tier {
    /// The tiers this CPU runs, after printing a note for each it lacks.
    #[cfg(test)]
    pub(crate) fn testable() -> Vec<Tier> {
        let all = [Tier::Portable, Tier::Avx2Fma, Tier::Avx512];
        let (ok, lacking): (Vec<_>, Vec<_>) = all.into_iter().partition(|&t| t <= Tier::host());
        for t in lacking {
            println!("skipping the {t:?} build: this CPU lacks its features");
        }
        ok
    }

    /// The widest tier this CPU supports, probed once.
    pub(crate) fn host() -> Tier {
        static HOST: OnceLock<Tier> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("avx2") && has!("fma") {
                    let wide = has!("avx512f") && has!("avx512dq") && has!("avx512vl");
                    return if wide { Tier::Avx512 } else { Tier::Avx2Fma };
                }
            }
            Tier::Portable
        })
    }
}

/// A loop body; implementations mark `run` `#[inline(always)]`, so each
/// tier's build inlines all of it.
pub(crate) trait Kernel {
    type Output;
    fn run(self) -> Self::Output;
}

/// Runs `k` in the widest build this CPU supports.
pub(crate) fn run<K: Kernel>(k: K) -> K::Output {
    run_on(Tier::host(), k)
}

/// Runs `k` in `tier`'s build; panics if the CPU lacks its features.
pub(crate) fn run_on<K: Kernel>(tier: Tier, k: K) -> K::Output {
    assert!(tier <= Tier::host(), "this CPU lacks the {tier:?} features");
    match tier {
        // SAFETY: the CPU has the tier's features, asserted above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { avx512(k) },
        // SAFETY: the CPU has the tier's features, asserted above.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2Fma => unsafe { avx2_fma(k) },
        _ => k.run(),
    }
}

/// # Safety
///
/// The CPU must support AVX-512 F, DQ and VL, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn avx512<K: Kernel>(k: K) -> K::Output {
    k.run()
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_fma<K: Kernel>(k: K) -> K::Output {
    k.run()
}
