//! Golden-snapshot test: pins exact `SimResult` values for eight seeded
//! configuration × profile pairs, captured from the simulator **before**
//! the allocation-free hot-loop rewrite (SoA traces, ring-buffer pipeline
//! state, wakeup wheel).
//!
//! Unlike the oracle envelope (tests/differential_oracle.rs), which bounds
//! behaviour, this test demands bit-exact equality on every field — any
//! layout-change-induced drift in scheduling, caching, prediction, or
//! energy accounting fails loudly.
//!
//! The pairs are reproducible: configs come from `sample_legal` under a
//! fixed seed, profiles are looked up by name, and the (profile, config)
//! grid is thinned to the checkerboard `(pi + ci) % 2 == 0`.

use dse_rng::Xoshiro256;
use dse_sim::{simulate_detailed, simulate_profiled, SimOptions, SimResult};
use dse_space::sample_legal;
use dse_workload::{suites, TraceGenerator};

const TRACE_LEN: usize = 12_000;
const WARMUP: usize = 2_000;
const SEED: u64 = 0x601D;

/// (profile name, config index, expected result) — captured pre-rewrite.
#[rustfmt::skip]
fn golden() -> Vec<(&'static str, usize, SimResult)> {
    vec![
        ("gzip", 0, SimResult { instructions: 10000, cycles: 72617, energy_nj: 23497.998553681267, ipc: 0.13770880096946997, l1i_miss_rate: 0.04665314401622718, l1d_miss_rate: 0.25799256505576207, l2_miss_rate: 0.7900763358778626, bpred_miss_rate: 0.10873664362036455 }),
        ("gzip", 2, SimResult { instructions: 10000, cycles: 72431, energy_nj: 46980.44879138564, ipc: 0.13806243183167427, l1i_miss_rate: 0.04213197969543147, l1d_miss_rate: 0.2578966926793014, l2_miss_rate: 0.7992277992277992, bpred_miss_rate: 0.10817610062893082 }),
        ("gcc", 1, SimResult { instructions: 10000, cycles: 91650, energy_nj: 44845.81207365496, ipc: 0.10911074740861974, l1i_miss_rate: 0.11817078106029948, l1d_miss_rate: 0.18662232076866223, l2_miss_rate: 0.7641154328732748, bpred_miss_rate: 0.2620571916346564 }),
        ("gcc", 3, SimResult { instructions: 10000, cycles: 103417, energy_nj: 54376.94272396826, ipc: 0.09669590106075404, l1i_miss_rate: 0.11821862348178137, l1d_miss_rate: 0.18588322246858832, l2_miss_rate: 0.7660377358490567, bpred_miss_rate: 0.26228107646305 }),
        ("art", 0, SimResult { instructions: 10000, cycles: 147113, energy_nj: 75972.42306195703, ipc: 0.06797495802546343, l1i_miss_rate: 0.05692695214105793, l1d_miss_rate: 0.7361571829548355, l2_miss_rate: 0.9172781854569713, bpred_miss_rate: 0.12394366197183099 }),
        ("art", 2, SimResult { instructions: 10000, cycles: 147528, energy_nj: 122777.96481294662, ipc: 0.06778374274713952, l1i_miss_rate: 0.05695564516129032, l1d_miss_rate: 0.7361571829548355, l2_miss_rate: 0.9172781854569713, bpred_miss_rate: 0.1287593984962406 }),
        ("sha", 1, SimResult { instructions: 10000, cycles: 38751, energy_nj: 19536.58667601273, ipc: 0.2580578565714433, l1i_miss_rate: 0.0752441125789776, l1d_miss_rate: 0.09152542372881356, l2_miss_rate: 0.63125, bpred_miss_rate: 0.17914438502673796 }),
        ("sha", 3, SimResult { instructions: 10000, cycles: 41416, energy_nj: 23006.67806380891, ipc: 0.24145257871354067, l1i_miss_rate: 0.07515777395295467, l1d_miss_rate: 0.09152542372881356, l2_miss_rate: 0.63125, bpred_miss_rate: 0.17914438502673796 }),
    ]
}

#[test]
fn sim_results_match_pre_optimization_golden_values() {
    let mut rng = Xoshiro256::seed_from(SEED);
    let configs = sample_legal(&mut rng, 4);
    let opts = SimOptions::with_warmup(WARMUP);

    for (name, ci, expected) in golden() {
        let profile = suites::all_benchmarks()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("profile {name} missing"));
        let trace = TraceGenerator::new(&profile).generate(TRACE_LEN);
        let (got, _) = simulate_detailed(&configs[ci], &trace, opts);
        assert_eq!(
            got.instructions, expected.instructions,
            "{name} × config[{ci}]: instructions drifted"
        );
        assert_eq!(
            got.cycles, expected.cycles,
            "{name} × config[{ci}]: cycles drifted"
        );
        for (field, g, e) in [
            ("energy_nj", got.energy_nj, expected.energy_nj),
            ("ipc", got.ipc, expected.ipc),
            ("l1i_miss_rate", got.l1i_miss_rate, expected.l1i_miss_rate),
            ("l1d_miss_rate", got.l1d_miss_rate, expected.l1d_miss_rate),
            ("l2_miss_rate", got.l2_miss_rate, expected.l2_miss_rate),
            (
                "bpred_miss_rate",
                got.bpred_miss_rate,
                expected.bpred_miss_rate,
            ),
        ] {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{name} × config[{ci}]: {field} drifted: got {g:?}, want {e:?}"
            );
        }
    }
}

/// The observed (stall-attributed) run must be bit-identical to the
/// golden values: instrumentation only reads pipeline state, never
/// steers it. Also checks the attribution's internal invariants — the
/// commit-outcome buckets partition the stepped cycles and, together
/// with the idle-skipped cycles, account for every cycle of the run.
#[test]
fn profiled_runs_are_bit_identical_and_attribution_sums() {
    let mut rng = Xoshiro256::seed_from(SEED);
    let configs = sample_legal(&mut rng, 4);
    let opts = SimOptions::with_warmup(WARMUP);

    for (name, ci, expected) in golden() {
        let profile = suites::all_benchmarks()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("profile {name} missing"));
        let trace = TraceGenerator::new(&profile).generate(TRACE_LEN);
        let (_, report) = simulate_profiled(&configs[ci], &trace, opts);
        let got = report.record.result;
        assert_eq!(
            got.instructions, expected.instructions,
            "{name} × config[{ci}]: instructions drifted under obs"
        );
        assert_eq!(
            got.cycles, expected.cycles,
            "{name} × config[{ci}]: cycles drifted under obs"
        );
        for (field, g, e) in [
            ("energy_nj", got.energy_nj, expected.energy_nj),
            ("ipc", got.ipc, expected.ipc),
            ("l1i_miss_rate", got.l1i_miss_rate, expected.l1i_miss_rate),
            ("l1d_miss_rate", got.l1d_miss_rate, expected.l1d_miss_rate),
            ("l2_miss_rate", got.l2_miss_rate, expected.l2_miss_rate),
            (
                "bpred_miss_rate",
                got.bpred_miss_rate,
                expected.bpred_miss_rate,
            ),
        ] {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{name} × config[{ci}]: {field} drifted under obs: got {g:?}, want {e:?}"
            );
        }

        let p = &report.profile;
        assert_eq!(
            p.instructions, TRACE_LEN as u64,
            "{name} × config[{ci}]: attribution lost instructions"
        );
        assert_eq!(
            p.cycles_stepped,
            p.cycles_with_commit + p.commit_stall_rob_empty + p.commit_stall_head_wait,
            "{name} × config[{ci}]: commit buckets must partition stepped cycles"
        );
        assert!(
            p.total_cycles() >= got.cycles,
            "{name} × config[{ci}]: full-run cycles must cover the measured phase"
        );
        assert!(p.hw_rob > 0 && p.hw_fetch_q > 0);
    }
}
