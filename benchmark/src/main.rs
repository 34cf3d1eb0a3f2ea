//! Command line of the benchmark.
//!
//! ```text
//! archdse-benchmark --workload <sweep|xval|explore|serve|all> [--seed N] [--seconds S] [--trace 0|1]
//! archdse-benchmark compare [--bounds BENCHMARK.json] <parent files...> -- <change files...>
//! ```
//!
//! A run prints every metric by name with its unit, then, as its last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! It exits non-zero when a correctness check fails. `--workload all`
//! runs each workload in a fresh child process, one after another.

use archdse_benchmark::compare::{bounds, compare, parse_records};
use archdse_benchmark::result::Record;
use archdse_benchmark::{out_dir, run, Sizes, Workload};
use dse_util::json;
use std::process::ExitCode;

const USAGE: &str = "usage: archdse-benchmark --workload <sweep|xval|explore|serve|all> \
[--seed N] [--seconds S] [--trace 0|1]\n       archdse-benchmark compare \
[--bounds BENCHMARK.json] <parent files...> -- <change files...>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 16,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(out)
}

fn print_record(record: &Record) {
    let what = if record.traced {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!("# {} seed {} ({what})", record.workload, record.seed);
    for m in &record.result.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &record.info {
        println!("  {:<34} {:>16.6} {}  (info)", m.name, m.value, m.unit);
    }
    for (name, v) in &record.work {
        println!(
            "  {:<34} {:>16} count  (work of one operation)",
            format!("work.{name}"),
            v
        );
    }
    for (k, v) in &record.env {
        println!("  env {k} = {v}");
    }
    for note in &record.notes {
        println!("  NOTE {note}");
    }
    println!("{}", json::to_string(&record.result));
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let record = run(
        workload,
        args.seed,
        args.seconds as f64,
        args.trace,
        &Sizes::full(),
    );
    let path = out_dir().join(format!(
        "{}-s{}-t{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, json::to_string(&record) + "\n"))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
    print_record(&record);
    if record.result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a fresh child process of this binary, so set-up
/// time, peak memory and warm caches stay separate per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("cannot start workload {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut bounds_path = "BENCHMARK.json".to_string();
    let (mut parent, mut change, mut after_sep) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bounds" => {
                bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
            }
            "--" => after_sep = true,
            path => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let records = parse_records(&text).map_err(|e| format!("{path}: {e}"))?;
                if after_sep {
                    change.extend(records);
                } else {
                    parent.extend(records);
                }
            }
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs parent and change result files around `--`".to_string());
    }
    let text = std::fs::read_to_string(&bounds_path).map_err(|e| format!("{bounds_path}: {e}"))?;
    let rows = compare(&bounds(&text)?, &parent, &change);
    for row in &rows {
        println!("{}", row.line());
    }
    Ok(rows
        .iter()
        .all(|r| !matches!(r.verdict, archdse_benchmark::compare::Verdict::Worse)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match run_compare(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match Workload::parse(&args.workload) {
        Some(w) => run_one(&args, w),
        None => {
            eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
            ExitCode::from(2)
        }
    }
}
