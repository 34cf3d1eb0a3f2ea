//! Differential test: the out-of-order simulator against the in-order
//! reference oracle (`dse_sim::oracle`).
//!
//! Over a seeded sample of ≥ 200 (configuration × workload-profile)
//! pairs, every run must land inside the oracle's envelope:
//!
//! * cycles within `[cycles_lo, cycles_hi]` — at least the dataflow /
//!   bandwidth bound, at most the fully-serialised worst case;
//! * every scheduling-independent event count (fetch, rename, issue,
//!   commit, RF reads/writes, D-cache accesses, predictor lookups, FU
//!   histogram) **exactly** equal to the oracle's trace-derived count;
//! * total energy within `[energy_lo_nj, energy_hi_nj]`.
//!
//! Runs use **zero warm-up** so the measured portion is the whole trace —
//! count equalities are only exact without warm-up subtraction — and force
//! the sanitizer on, so each run also re-validates every internal
//! invariant (a second, independent layer of checking).

use archdse::prelude::*;
use dse_rng::Xoshiro256;
use dse_sim::{oracle, Pipeline, SimOptions};
use dse_space::ConstantParams;

const TRACE_LEN: usize = 5_000;
const CONFIGS: usize = 40;
const PROFILES: usize = 5;

fn sampled_configs(n: usize) -> Vec<Config> {
    let mut rng = Xoshiro256::seed_from(0xD1FF_07AC);
    dse_space::sample_legal(&mut rng, n)
}

fn profiles() -> Vec<Profile> {
    archdse::workload::suites::all_benchmarks()
        .into_iter()
        .step_by(4) // spread across the suites
        .take(PROFILES)
        .collect()
}

/// The envelope assertions: cycle bounds, exact scheduling-
/// independent event counts, energy bounds, and the counters repricing
/// to the reported energy.
fn check_against_oracle(tag: &str, report: &oracle::OracleReport, rec: &dse_sim::RunRecord) {
    // Cycle bounds.
    let cycles = rec.result.cycles;
    assert!(
        cycles >= report.cycles_lo,
        "{tag}: {cycles} cycles below oracle lower bound {}",
        report.cycles_lo
    );
    assert!(
        cycles <= report.cycles_hi,
        "{tag}: {cycles} cycles above oracle upper bound {}",
        report.cycles_hi
    );

    // Exact event-count equality.
    if let Some((name, obs, exp)) = report.count_mismatch(&rec.counters) {
        panic!("{tag}: event count `{name}` is {obs}, oracle expects {exp}");
    }

    // Energy bounds, and the counters must reprice to the result's
    // own energy (accounting reconciliation across layers).
    let e = rec.result.energy_nj;
    assert!(
        e >= report.energy_lo_nj && e <= report.energy_hi_nj,
        "{tag}: energy {e} nJ outside oracle bounds [{}, {}]",
        report.energy_lo_nj,
        report.energy_hi_nj
    );
    let repriced = rec.counters.total_nj(&rec.model);
    assert!(
        (repriced - e).abs() <= 1e-9 * e.max(1.0),
        "{tag}: counters reprice to {repriced} nJ but result reports {e} nJ"
    );
}

#[test]
fn simulator_stays_within_oracle_envelope_on_200_pairs() {
    let cons = ConstantParams::standard();
    let configs = sampled_configs(CONFIGS);
    let profiles = profiles();
    assert!(configs.len() * profiles.len() >= 200);

    let options = SimOptions {
        warmup: 0,
        sanitize: true,
    };
    let mut checked = 0usize;
    for profile in &profiles {
        let trace = TraceGenerator::new(profile).generate(TRACE_LEN);
        for cfg in &configs {
            let report = oracle::analyze(cfg, &cons, &trace);
            let rec = Pipeline::new(cfg, &cons, &trace, options)
                .try_run_full()
                .unwrap_or_else(|e| panic!("sanitizer violation on {} × {cfg}: {e}", profile.name));
            check_against_oracle(&format!("{} × {cfg}", profile.name), &report, &rec);
            checked += 1;
        }
    }
    assert!(checked >= 200, "only {checked} pairs checked");
}

/// The envelope is not vacuous: on a serial dependency chain the lower
/// bound is tight (the simulator actually achieves it to within a small
/// margin covering pipeline fill/drain and one cold I-cache miss — the
/// whole chain lives in a single cache line).
#[test]
fn oracle_lower_bound_is_tight_on_serial_chain() {
    let cons = ConstantParams::standard();
    let instrs: Vec<dse_workload::Instr> = (0..2_000u32)
        .map(|i| dse_workload::Instr {
            kind: dse_workload::InstrKind::IntAlu,
            src1: if i == 0 { 0 } else { 1 },
            src2: 0,
            pc: 0x40_0000 + (i % 8) * 4,
            addr: 0,
            taken: false,
            target: 0,
        })
        .collect();
    let trace = dse_workload::Trace::new("serial", instrs);
    let cfg = Config::baseline();
    let report = oracle::analyze(&cfg, &cons, &trace);
    let r = Pipeline::new(
        &cfg,
        &cons,
        &trace,
        SimOptions {
            warmup: 0,
            sanitize: true,
        },
    )
    .try_run()
    .unwrap();
    assert!(r.cycles >= report.cycles_lo);
    assert!(
        r.cycles <= report.cycles_lo + 400,
        "lower bound should be near-tight on a serial chain: {} vs {}",
        r.cycles,
        report.cycles_lo
    );
}
