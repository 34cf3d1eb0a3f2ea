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
//!
//! A second, wider net pins one digest over every built-in program × six
//! sampled configs on short traces, captured before the wakeup-driven
//! issue stage replaced the compacting issue-queue scan.

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

/// Folds one 64-bit word into an FNV-1a digest, a byte at a time.
fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Wide bit-identity net: one digest over the bits of every `SimResult`
/// field, for every built-in program × six `sample_legal` configs on
/// short traces. The eight golden pairs above pin exact values on long
/// traces; this pins breadth — every program's instruction mix meets
/// several issue widths, queue sizes and port counts — so a scheduling
/// change that shifts any program's timing by one cycle fails here.
#[test]
fn sim_results_over_all_programs_match_pinned_digest() {
    const DIGEST_TRACE_LEN: usize = 4_000;
    const DIGEST_WARMUP: usize = 1_000;
    const PINNED: u64 = 0x2aee_4ad9_ef3a_610f;

    let mut rng = Xoshiro256::seed_from(0xD16E57);
    let configs = sample_legal(&mut rng, 6);
    let opts = SimOptions::with_warmup(DIGEST_WARMUP);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut runs = 0;
    for profile in suites::all_benchmarks() {
        let trace = TraceGenerator::new(&profile).generate(DIGEST_TRACE_LEN);
        for cfg in &configs {
            let (r, _) = simulate_detailed(cfg, &trace, opts);
            for word in [
                r.instructions,
                r.cycles,
                r.energy_nj.to_bits(),
                r.ipc.to_bits(),
                r.l1i_miss_rate.to_bits(),
                r.l1d_miss_rate.to_bits(),
                r.l2_miss_rate.to_bits(),
                r.bpred_miss_rate.to_bits(),
            ] {
                h = fnv1a(h, word);
            }
            runs += 1;
        }
    }
    assert_eq!(runs, 45 * 6, "the built-in suite changed size");
    assert_eq!(h, PINNED, "digest over {runs} runs drifted: got {h:#018x}");
}
