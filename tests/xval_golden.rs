//! Bit-identity pins for the cross-validation experiments (Figs 10–14).
//!
//! Each experiment's summaries are folded into one FNV-1a digest of their
//! `f64::to_bits`, so any change to pool training, the response fit or
//! prediction — however small — moves the digest. The values were
//! recorded from the per-fold ensemble path that predated the shared
//! per-repeat prediction table; that table must reproduce them exactly.

use archdse::core::xval::{self, EvalConfig, ProgramEval, Summary, SweepPoint};
use archdse::prelude::*;

fn dataset() -> SuiteDataset {
    let mut profiles: Vec<Profile> = archdse::workload::suites::spec2000()
        .into_iter()
        .take(4)
        .collect();
    profiles.extend(archdse::workload::suites::mibench().into_iter().take(2));
    let spec = DatasetSpec {
        n_configs: 40,
        trace_len: 6_000,
        warmup: 1_000,
        ..DatasetSpec::tiny()
    };
    SuiteDataset::generate(&profiles, &spec)
}

fn cfg() -> EvalConfig {
    EvalConfig {
        t: 20,
        r: 8,
        repeats: 2,
        seed: 23,
        mlp: MlpConfig {
            epochs: 40,
            ..MlpConfig::default()
        },
    }
}

fn digest<'a>(summaries: impl IntoIterator<Item = &'a Summary>) -> u64 {
    summaries
        .into_iter()
        .flat_map(|s| [s.mean.to_bits(), s.std.to_bits()])
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn evals_digest(evals: &[ProgramEval]) -> u64 {
    digest(
        evals
            .iter()
            .flat_map(|e| [&e.train_rmae, &e.test_rmae, &e.corr]),
    )
}

fn points_digest(points: &[SweepPoint]) -> u64 {
    digest(points.iter().flat_map(|p| [&p.rmae, &p.corr]))
}

#[test]
fn xval_experiments_are_pinned_bit_for_bit() {
    let ds = dataset();
    let cfg = cfg();
    let (spec, mi, m) = (Suite::SpecCpu2000, Suite::MiBench, Metric::Cycles);
    let loo = xval::loo(&ds, spec, m, &cfg);
    let cross = xval::cross_suite(&ds, spec, mi, Metric::Energy, &cfg);
    let sweep_r = xval::sweep_r(&ds, spec, m, &[6, 12], &cfg);
    let compare = xval::compare(&ds, spec, m, &[8, 16], &cfg);
    let train_programs = xval::sweep_train_programs(&ds, spec, m, &[1, 3], &cfg);
    let got = [
        evals_digest(&loo),
        evals_digest(&cross),
        points_digest(&sweep_r),
        digest(
            compare
                .iter()
                .flat_map(|c| [&c.ps_rmae, &c.ps_corr, &c.ac_rmae, &c.ac_corr]),
        ),
        points_digest(&train_programs),
    ];
    let want: [u64; 5] = [
        0xe11c_9a32_ab25_487a,
        0x5f18_6144_a92f_e698,
        0x22ee_5d9c_47f9_17e6,
        0x4a2c_0794_8b17_f9d1,
        0xbc17_b828_ba5a_e5ef,
    ];
    assert_eq!(
        got, want,
        "xval summaries moved (loo, cross_suite, sweep_r, compare, sweep_train_programs): {got:#x?}"
    );
}
