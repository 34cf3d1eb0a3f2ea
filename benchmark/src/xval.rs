//! `xval`: the paper's leave-one-out protocol (Fig 11) on SPEC.
//!
//! The dataset is simulated during set-up, so the timed passes do only
//! offline ANN training, the per-fold response fit and prediction: a
//! simulator change must leave this workload's operation time unchanged.
//! The dataset is the same for every run; the run seed drives the
//! protocol's training, response and repeat samples.

use crate::probes::{self, ProbeCtx};
use crate::result::Metric;
use crate::{finish_setups, mix, reseeded, spans, time_ops, time_setup, work_of, Measured, Sizes};
use dse_core::dataset::{DatasetSpec, SuiteDataset};
use dse_core::xval::{loo, EvalConfig, ProgramEval};
use dse_ml::MlpConfig;
use dse_sim::Metric as Target;
use dse_workload::{Profile, Suite};

/// Sizes of the `xval` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct XvalSizes {
    /// SPEC programs (the first `programs` of the suite).
    pub(crate) programs: usize,
    /// Sampled configurations per program.
    pub(crate) configs: usize,
    /// Trace length of the set-up simulations.
    pub(crate) trace_len: usize,
    /// Warm-up instructions of the set-up simulations.
    pub(crate) warmup: usize,
    /// Simulations per training program for the offline ANNs (T).
    pub(crate) t: usize,
    /// Responses of each held-out program (R).
    pub(crate) r: usize,
    /// Repeats with fresh samples.
    pub(crate) repeats: usize,
}

impl XvalSizes {
    pub(crate) const FULL: Self = Self {
        programs: 26,
        configs: 128,
        trace_len: 8_000,
        warmup: 1_600,
        t: 96,
        r: 32,
        repeats: 10,
    };
    pub(crate) const SMOKE: Self = Self {
        programs: 3,
        configs: 8,
        trace_len: 3_000,
        warmup: 500,
        t: 6,
        r: 4,
        repeats: 1,
    };
}

struct Ctx {
    profiles: Vec<Profile>,
    ds: SuiteDataset,
    cfg: EvalConfig,
}

fn setup(seed: u64, s: &XvalSizes) -> Result<Ctx, String> {
    let profiles: Vec<Profile> = dse_workload::suites::spec2000()
        .into_iter()
        .take(s.programs)
        .map(|p| reseeded(p, 0))
        .collect();
    let spec = DatasetSpec {
        n_configs: s.configs,
        trace_len: s.trace_len,
        warmup: s.warmup,
        seed: mix(0, 3),
    };
    let ds = SuiteDataset::try_generate(&profiles, &spec).map_err(|e| e.to_string())?;
    let cfg = EvalConfig {
        t: s.t,
        r: s.r,
        repeats: s.repeats,
        seed: mix(seed, 4),
        mlp: MlpConfig::default(),
    };
    Ok(Ctx { profiles, ds, cfg })
}

fn pass(ctx: &Ctx) -> Vec<ProgramEval> {
    let _span = spans::span("core.xval.loo");
    loo(&ctx.ds, Suite::SpecCpu2000, Target::Cycles, &ctx.cfg)
}

/// Mean held-out error over programs, in percent.
fn rmae_pct(evals: &[ProgramEval]) -> f64 {
    evals.iter().map(|e| e.test_rmae.mean).sum::<f64>() / evals.len() as f64
}

pub(crate) fn run(seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Measured {
    let s = &sizes.xval;
    let (ctx, first_setup_s) = time_setup(|| setup(seed, s));
    let mut m = Measured::default();
    let ctx = match ctx {
        Ok(ctx) => ctx,
        Err(e) => {
            m.checks.check(false, || format!("xval set-up: {e}"));
            return m;
        }
    };
    let (first, work) = work_of(|| pass(&ctx));
    m.work = work;
    let folds = (s.programs * s.repeats) as f64;
    let (mut runs, mut mismatches) = (0u64, 0u64);
    time_ops(&mut m, sizes, seconds, traced, &mut || {
        runs += 1;
        if pass(&ctx) != first {
            mismatches += 1;
        }
        folds
    });
    m.checks.check(mismatches == 0, || {
        format!("xval: {mismatches} of {runs} timed passes differ from the first")
    });
    let rmae = rmae_pct(&first);
    m.checks.check(rmae.is_finite() && rmae > 0.0, || {
        format!("xval: held-out error {rmae} is not a positive number")
    });
    let corr = first.iter().map(|e| e.corr.mean).sum::<f64>() / first.len() as f64;
    m.info.push(Metric::new("xval_rmae_pct", rmae, "%"));
    m.info.push(Metric::new("xval_corr", corr, "ratio"));
    if traced {
        let probe = ProbeCtx {
            profiles: &ctx.profiles,
            dataset: &ctx.ds,
            seed,
        };
        m.layers = probes::run(&probe, sizes, &mut m.checks);
    } else {
        drop(ctx);
        finish_setups(&mut m, sizes, first_setup_s, || setup(seed, s));
    }
    m
}
