//! Performance bench: simulator throughput on representative workloads.
//!
//! Prints one line per row and records sims/sec and simulated cycles/sec.
//! Set `DSE_BENCH_JSON=<path>` to also write the machine-readable report
//! (this is how `BENCH_sim.json` is produced), and
//! `DSE_BENCH_BASELINE=<path>` to compare against a committed report and
//! exit non-zero on a >25 % min-iteration regression (the `scripts/ci.sh` gate).

use dse_bench::harness::{black_box, iters_for, Report};
use dse_rng::Xoshiro256;
use dse_sim::{simulate, simulate_detailed, simulate_profiled, SimOptions};
use dse_space::{sample_legal, Config};
use dse_workload::{suites, TraceGenerator};

fn main() {
    // 5 quick iterations (not 3): the gate compares per-row minimums,
    // and the min of 5 is stable enough on a noisy shared host.
    let iters = iters_for(15, 5);
    let opts = SimOptions::with_warmup(2_000);
    let mut report = Report::new();
    for name in ["gzip", "art", "sha"] {
        let profile = suites::all_benchmarks()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap();
        let trace = TraceGenerator::new(&profile).generate(20_000);
        let cycles = simulate_detailed(&Config::baseline(), &trace, opts)
            .0
            .cycles;
        report.bench(
            &format!("simulator/baseline/{name}/20k"),
            2,
            iters,
            Some(cycles),
            || {
                black_box(simulate(black_box(&Config::baseline()), &trace, opts));
            },
        );
    }
    let gzip = suites::spec2000()
        .into_iter()
        .find(|p| p.name == "gzip")
        .unwrap();
    let trace = TraceGenerator::new(&gzip).generate(20_000);
    let tiny = Config {
        width: 2,
        rob: 32,
        iq: 8,
        lsq: 8,
        rf: 40,
        rf_read: 2,
        rf_write: 1,
        bpred_k: 1,
        btb_k: 1,
        max_branches: 8,
        icache_kb: 8,
        dcache_kb: 8,
        l2_kb: 256,
    };
    let tiny_cycles = simulate_detailed(&tiny, &trace, opts).0.cycles;
    report.bench(
        "simulator/tiny-config/gzip/20k",
        2,
        iters,
        Some(tiny_cycles),
        || {
            black_box(simulate(black_box(&tiny), &trace, opts));
        },
    );

    // Observability overhead: the same baseline gzip run with per-cycle
    // stall attribution enabled. The disabled path (`simulate`, row
    // `simulator/baseline/gzip/20k` above) is monomorphised with
    // `NoObs::ENABLED = false`, so its hot loop is the pre-obs machine
    // code — the regression gate below holds it to the committed
    // baseline. The delta printed here documents what turning the hooks
    // *on* costs.
    let cycles_gzip = simulate_detailed(&Config::baseline(), &trace, opts)
        .0
        .cycles;
    let obs_on = report.bench(
        "simulator/obs-on/gzip/20k",
        2,
        iters,
        Some(cycles_gzip),
        || {
            black_box(simulate_profiled(
                black_box(&Config::baseline()),
                &trace,
                opts,
            ));
        },
    );
    let obs_off_ns = report
        .rows()
        .iter()
        .find(|r| r.name == "simulator/baseline/gzip/20k")
        .map(|r| r.result.median.as_nanos() as f64)
        .unwrap();
    let obs_on_ns = obs_on.median.as_nanos() as f64;
    eprintln!(
        "[bench] obs-off median {:.2}ms vs obs-on {:.2}ms: {:+.1}% with attribution enabled",
        obs_off_ns / 1e6,
        obs_on_ns / 1e6,
        100.0 * (obs_on_ns - obs_off_ns) / obs_off_ns
    );

    // Sweep throughput: sixteen sampled configurations over one shared
    // gzip trace, one simulation at a time as the dataset sweep runs
    // them. `sims_per_sec` is priced per simulation (16 per timed
    // iteration), so the row compares directly with the
    // single-simulation rows above.
    let mut rng = Xoshiro256::seed_from(0xBA7C);
    let sweep_cfgs = sample_legal(&mut rng, 16);
    let sweep_cycles: u64 = sweep_cfgs
        .iter()
        .map(|c| simulate_detailed(c, &trace, opts).0.cycles)
        .sum();
    report.bench_scaled(
        "simulator/sweep/gzip/16x20k",
        1,
        iters,
        sweep_cfgs.len(),
        Some(sweep_cycles),
        || {
            for cfg in &sweep_cfgs {
                black_box(simulate(black_box(cfg), &trace, opts));
            }
        },
    );

    let gcc = suites::spec2000()
        .into_iter()
        .find(|p| p.name == "gcc")
        .unwrap();
    let generator = TraceGenerator::new(&gcc);
    report.bench("trace-gen/gcc/20k", 2, iters, None, || {
        black_box(generator.generate(black_box(20_000)));
    });

    if let Ok(path) = std::env::var("DSE_BENCH_JSON") {
        report.write_json(&path);
    }
    if let Ok(path) = std::env::var("DSE_BENCH_BASELINE") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read bench baseline {path}: {e}"));
        match report.regressions(&text, 0.25) {
            Ok(msgs) if msgs.is_empty() => {
                eprintln!("[bench] no regression vs {path}");
            }
            Ok(msgs) => {
                for m in &msgs {
                    eprintln!("[bench] REGRESSION {m}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("[bench] {e}");
                std::process::exit(1);
            }
        }
    }
}
