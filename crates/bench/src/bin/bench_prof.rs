//! Profiling binary: repeated gzip simulations with no harness
//! statistics, so external profilers (or interleaved
//! A/B timing against a reference build) attribute time cleanly to the
//! pipeline hot loop. `PROF_SIMS` sets the simulation count and
//! `PROF_CFG=tiny` swaps the baseline machine for the narrow
//! stall-heavy configuration from `bench_sim`'s tiny-config row.
//!
//! `--stages` switches to the built-in stage profiler instead: each row
//! (default/tiny config) runs `PROF_SIMS` repeats under
//! [`dse_sim::StageProf`] and the merged per-stage attribution is
//! written as the `results/stageprof.json` schema (`--out <path>`,
//! stdout otherwise). This is the regenerable evidence behind the
//! "issue stage dominates" claim in ROADMAP Open item 1.

use dse_bench::harness::black_box;
use dse_sim::{simulate, simulate_stage_profiled, SimOptions, StageProf};
use dse_space::Config;
use dse_util::json::{Json, ToJson};
use dse_workload::{suites, Trace, TraceGenerator};

const TRACE_LEN: usize = 20_000;
const WARMUP: usize = 2_000;

fn tiny_config() -> Config {
    Config {
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
    }
}

fn gzip_trace() -> Trace {
    let gzip = suites::spec2000()
        .into_iter()
        .find(|p| p.name == "gzip")
        .unwrap();
    TraceGenerator::new(&gzip).generate(TRACE_LEN)
}

/// One report row: `sims` repeats of `cfg` under the stage profiler,
/// merged into one profile.
fn stage_row(name: &str, cfg: &Config, trace: &Trace, sims: usize) -> Json {
    let opts = SimOptions::with_warmup(WARMUP);
    let mut merged = StageProf::default();
    for _ in 0..sims {
        let (_, prof) = simulate_stage_profiled(cfg, trace, opts);
        merged.merge(&prof);
    }
    let mut row = vec![
        ("config".to_string(), Json::Str(name.to_string())),
        ("mode".to_string(), Json::Str("scalar".to_string())),
    ];
    if let Json::Obj(fields) = merged.to_json() {
        row.extend(fields);
    }
    Json::Obj(row)
}

fn run_stages(n: usize, out: Option<&str>) {
    let trace = gzip_trace();
    let rows = vec![
        stage_row("default", &Config::baseline(), &trace, n),
        stage_row("tiny", &tiny_config(), &trace, n),
    ];
    let report = Json::Obj(vec![
        ("version".to_string(), Json::Num(1.0)),
        (
            "generator".to_string(),
            Json::Str("bench_prof --stages".to_string()),
        ),
        ("benchmark".to_string(), Json::Str("gzip".to_string())),
        ("trace_len".to_string(), Json::Num(TRACE_LEN as f64)),
        ("warmup".to_string(), Json::Num(WARMUP as f64)),
        ("sims_per_row".to_string(), Json::Num(n as f64)),
        ("rows".to_string(), Json::Arr(rows)),
    ]);
    let text = format!("{report}\n");
    match out {
        Some(path) => {
            std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("stage profile written to {path}");
        }
        None => print!("{text}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = std::env::var("PROF_SIMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    if args.iter().any(|a| a == "--stages") {
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map(|s| s.as_str());
        // Stage rows repeat per config; default to a lighter count.
        let n = std::env::var("PROF_SIMS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(40);
        run_stages(n, out);
        return;
    }
    let cfg = if std::env::var("PROF_CFG").as_deref() == Ok("tiny") {
        tiny_config()
    } else {
        Config::baseline()
    };
    let trace = gzip_trace();
    let opts = SimOptions::with_warmup(WARMUP);
    let start = std::time::Instant::now();
    for _ in 0..n {
        black_box(simulate(black_box(&cfg), &trace, opts));
    }
    let elapsed = start.elapsed();
    eprintln!(
        "{n} sims in {:.3}s ({:.3} ms/sim)",
        elapsed.as_secs_f64(),
        elapsed.as_secs_f64() * 1e3 / n as f64
    );
}
