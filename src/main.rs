//! `archdse` command-line interface.
//!
//! Small utility front end over the library:
//!
//! ```text
//! archdse space                         # design-space summary (Table 1)
//! archdse benchmarks                    # list workload profiles
//! archdse simulate <bench> [key=value]  # run one benchmark on one config
//! archdse predict <bench> [r=32]        # demo: predict <bench> from the
//!                                       # other SPEC programs' knowledge
//! archdse train --out <dir>             # train + persist model artifacts
//! archdse serve --models <dir>          # serve predictions over HTTP
//! archdse client <addr> <verb> [...]    # query a running server
//! ```
//!
//! Configuration overrides use the paper-vector field names:
//! `width rob iq lsq rf rf_read rf_write bpred btb branches icache dcache l2`
//! (caches in KB, predictor/BTB in K-entries), e.g.
//! `archdse simulate gzip width=8 l2=4096`.

use archdse::explore::{Constraints, ExploreBudget, Explorer, Objective, SimOracle};
use archdse::prelude::*;
use archdse::serve::{
    protocol, save_artifacts, Client, ModelRegistry, RegistryPredictor, Server, ServerConfig,
};
use archdse::sim::{CheckError, RunRecord, StageProf, StallProfile};
use dse_space::raw_space_size;
use dse_util::json::{FromJson, Json, ToJson};

const USAGE: &str = "usage: archdse <command> [args]

commands:
  space                                   design-space summary
  benchmarks                              list workload profiles
  simulate <bench> [--sanitize] [--profile] [--profile-stages] [--corun <bench2>] [--workloads <dir>] [k=v...]
                                          run one benchmark on one config
                                          (--profile: stall attribution;
                                           --profile-stages: host-time per stage,
                                           in the same pass as --profile;
                                           --corun: share the L2 with <bench2>)
  workload list [--workloads <dir>]       catalog: built-ins + imported workloads
  workload export <name> [--workloads <dir>]
                                          print a profile as an interchange document
  workload import <file> [--workloads <dir>]
                                          import a profile document or raw
                                          #archdse-trace into the store
  workload synth --seed N --count K [--workloads <dir>]
                                          generate fuzzer profiles (stored, or
                                          printed without --workloads)
  predict <bench> [r=32] [--workloads <dir>]
                                          leave-one-out prediction demo
  explore <bench> --models <dir> [--objective cycles,energy] [--constraints \"rob<=96,..\"]
          [--rounds N] [--candidates N] [--sims N] [--archive N] [--seed N]
          [--r N] [--out <dir>]           predictor-guided Pareto frontier search;
                                          writes <out>/frontier-<slug>.json (default results/)
  train --out <dir> [--benchmarks N] [--configs N] [--t N] [--metrics m,..|all]
        [--workloads <dir>] [--obs json|pretty|off]
                                          train + persist serving artifacts
                                          (--workloads: include imported suite;
                                           --obs json: trace JSONL on stdout;
                                           --obs pretty: self-time flame table)
  obs report <records.jsonl> [--top N]    flame table from a train --obs json
                                          log or a client flight dump
  serve --models <dir> [--addr host:port] [--workers N] [--reactors N]
        [--workloads <dir>]               serve predictions over HTTP
  client <addr> health                    check a running server
  client <addr> workloads                 list the server-side workload catalog
  client <addr> import <file>             POST a profile document to the server
  client <addr> fit <bench> [metric] [r=N] [workloads=<dir>]
                                          simulate R responses and fit
  client <addr> predict <program> [metric] [k=v...]
                                          predict one configuration
  client <addr> shutdown                  drain and stop the server";

fn main() {
    // Resolve ARCHDSE_LOG up front, so a bad value fails every command
    // rather than only the first one that logs.
    archdse::obs::log::level_enabled(archdse::obs::log::Level::Error);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("space") => cmd_space(),
        Some("benchmarks") => cmd_benchmarks(),
        Some("workload") => cmd_workload(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

// The simulation protocol shared by `train`, `client fit`, `explore`, and
// the server's explore jobs lives in `dse_serve::protocol`: responses must
// be simulated the same way the training dataset was, or the fitted
// combiner would mix scales.

/// Parses `--flag value` pairs. Every flag must be in `allowed`.
fn parse_flags(
    args: &[String],
    allowed: &[&str],
) -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{arg}'"));
        };
        if !allowed.contains(&name) {
            return Err(format!("unknown flag '--{name}' (allowed: {allowed:?})"));
        }
        let Some(value) = it.next() else {
            return Err(format!("flag '--{name}' needs a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn parse_metric(text: &str) -> Result<Metric, String> {
    Metric::ALL
        .iter()
        .copied()
        .find(|m| {
            m.to_string().eq_ignore_ascii_case(text) || format!("{m:?}").eq_ignore_ascii_case(text)
        })
        .ok_or_else(|| format!("unknown metric '{text}' (cycles, energy, ed, edd)"))
}

fn cmd_space() -> i32 {
    println!("design space: {} raw points", raw_space_size());
    for def in dse_space::PARAMS.iter() {
        println!(
            "  {:10} {:12} {:>4} values: {:?}",
            def.name,
            def.unit,
            def.len(),
            def.values
        );
    }
    println!("baseline: {}", Config::baseline());
    0
}

fn cmd_benchmarks() -> i32 {
    for p in archdse::workload::suites::all_benchmarks() {
        println!(
            "{:14} {:14} code {:4} KB  data {:6} KB  branch rate {:.2}",
            p.name,
            p.suite.to_string(),
            p.code_kb,
            p.data_kb,
            p.branch_fraction()
        );
    }
    0
}

/// Parses `key=value` overrides onto the baseline configuration. Every
/// value must be on its parameter's grid, and the result must pass the
/// legality filter.
fn parse_config(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config::baseline();
    for arg in args {
        let Some((key, value)) = arg.split_once('=') else {
            return Err(format!("expected key=value, got '{arg}'"));
        };
        let v: u64 = value
            .parse()
            .map_err(|_| format!("'{value}' is not a number in '{arg}'"))?;
        let param = match key {
            "width" => Param::Width,
            "rob" => Param::Rob,
            "iq" => Param::Iq,
            "lsq" => Param::Lsq,
            "rf" => Param::Rf,
            "rf_read" => Param::RfRead,
            "rf_write" => Param::RfWrite,
            "bpred" => Param::Bpred,
            "btb" => Param::Btb,
            "branches" => Param::MaxBranches,
            "icache" => Param::Icache,
            "dcache" => Param::Dcache,
            "l2" => Param::L2,
            other => return Err(format!("unknown parameter '{other}'")),
        };
        let def = param.def();
        if def.index_of(v).is_none() {
            let legal: Vec<String> = def.values.iter().map(u64::to_string).collect();
            return Err(format!(
                "{key}={v} is not a legal {} value; legal values: {}",
                def.name,
                legal.join(", ")
            ));
        }
        cfg = cfg.with_param(param, v);
    }
    if !cfg.is_legal() {
        return Err(format!("configuration fails the legality filter: {cfg}"));
    }
    Ok(cfg)
}

fn find_profile(name: &str) -> Result<Profile, String> {
    find_profile_in(name, None)
}

/// Resolves a program name against the built-in benchmarks and, when a
/// store directory is given, the imported workloads.
fn find_profile_in(name: &str, workloads: Option<&str>) -> Result<Profile, String> {
    if let Some(p) = archdse::workload::suites::all_benchmarks()
        .into_iter()
        .find(|p| p.name == name)
    {
        return Ok(p);
    }
    if let Some(dir) = workloads {
        let store = archdse::ingest::WorkloadStore::open(dir).map_err(|e| e.to_string())?;
        if let Some(p) = store.find(name) {
            return Ok(p);
        }
    }
    Err(format!(
        "unknown benchmark '{name}' (try `archdse benchmarks` or `archdse workload list`)"
    ))
}

fn cmd_simulate(args: &[String]) -> i32 {
    const SIM_USAGE: &str = "usage: archdse simulate <benchmark> [--sanitize] [--profile] \
[--profile-stages] [--corun <bench2>] [--workloads <dir>] [key=value ...]";
    let Some(bench) = args.first() else {
        eprintln!("{SIM_USAGE}");
        return 2;
    };
    let mut sanitize = false;
    let mut profile_run = false;
    let mut profile_stages = false;
    let mut corun: Option<String> = None;
    let mut workloads: Option<String> = None;
    let mut overrides = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sanitize" => sanitize = true,
            "--profile" => profile_run = true,
            "--profile-stages" => profile_stages = true,
            "--corun" | "--workloads" => {
                let Some(value) = it.next() else {
                    eprintln!("flag '{arg}' needs a value\n{SIM_USAGE}");
                    return 2;
                };
                if arg == "--corun" {
                    corun = Some(value.clone());
                } else {
                    workloads = Some(value.clone());
                }
            }
            _ => overrides.push(arg.clone()),
        }
    }
    let profile = match find_profile_in(bench, workloads.as_deref()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let cfg = match parse_config(&overrides) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if let Some(other) = corun {
        if profile_run || profile_stages {
            eprintln!("--profile/--profile-stages are not supported together with --corun");
            return 2;
        }
        return simulate_corun_cli(&cfg, &profile, &other, workloads.as_deref(), sanitize);
    }
    let (rec, stall, stages) =
        match simulate_observed(&cfg, &profile, sanitize, profile_run, profile_stages) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
    let r = rec.result;
    let m = archdse::sim::Metrics::from_result(&r);
    println!("benchmark : {bench}");
    println!("config    : {cfg}");
    println!("IPC       : {:.3}", r.ipc);
    println!(
        "L1I/L1D/L2 miss: {:.2}% / {:.2}% / {:.2}%",
        100.0 * r.l1i_miss_rate,
        100.0 * r.l1d_miss_rate,
        100.0 * r.l2_miss_rate
    );
    println!("bpred miss: {:.2}%", 100.0 * r.bpred_miss_rate);
    println!("cycles    : {:.4e} /10M-instr phase", m.cycles);
    println!("energy    : {:.4e} nJ", m.energy);
    println!("ED / EDD  : {:.4e} / {:.4e}", m.ed, m.edd);
    if let Some(profile) = stall {
        let report = archdse::sim::StallReport {
            profile,
            record: rec,
        };
        println!();
        println!("{}", report.pretty());
    }
    if let Some(prof) = stages {
        println!();
        println!("{}", prof.pretty());
        println!();
        println!("stageprof-json: {}", prof.to_json());
    }
    0
}

/// One `simulate` pass of `profile` on `cfg`, observed by the stall
/// profiler (`--profile`), the stage timer (`--profile-stages`), both
/// at once, or neither; returns the run and the profiles asked for.
fn simulate_observed(
    cfg: &Config,
    profile: &Profile,
    sanitize: bool,
    stall: bool,
    stages: bool,
) -> Result<(RunRecord, Option<StallProfile>, Option<StageProf>), CheckError> {
    let trace = TraceGenerator::new(profile).generate(60_000);
    let options = SimOptions {
        sanitize,
        ..SimOptions::with_warmup(15_000)
    };
    let pipeline =
        archdse::sim::Pipeline::new(cfg, &dse_space::ConstantParams::standard(), &trace, options);
    let mut obs = (StallProfile::default(), StageProf::default());
    let rec = match (stall, stages) {
        (false, false) => pipeline.try_run_full(),
        (true, false) => pipeline.try_run_full_obs(&mut obs.0),
        (false, true) => pipeline.try_run_full_obs(&mut obs.1),
        (true, true) => pipeline.try_run_full_obs(&mut obs),
    }?;
    Ok((rec, stall.then_some(obs.0), stages.then_some(obs.1)))
}

/// `simulate A --corun B`: runs the two-pass shared-L2 interference
/// scenario and reports each lane's solo vs contended story.
fn simulate_corun_cli(
    cfg: &Config,
    a: &Profile,
    b_name: &str,
    workloads: Option<&str>,
    sanitize: bool,
) -> i32 {
    let b = match find_profile_in(b_name, workloads) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let trace_a = TraceGenerator::new(a).generate(60_000);
    let trace_b = TraceGenerator::new(&b).generate(60_000);
    let options = SimOptions {
        sanitize,
        ..SimOptions::with_warmup(15_000)
    };
    let result = match archdse::sim::simulate_corun(cfg, &trace_a, &trace_b, options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    println!("co-run    : {} + {} (shared L2)", a.name, b.name);
    println!("config    : {cfg}");
    let lane = |name: &str, l: &archdse::sim::CorunLane| {
        println!(
            "{name:14} cycles {:.4e} -> {:.4e}  slowdown {:.3}x  L2 miss {:.2}% -> {:.2}%",
            l.solo.cycles,
            l.contended.cycles,
            l.slowdown(),
            100.0 * l.solo_l2_miss,
            100.0 * l.contended_l2_miss
        );
    };
    lane(a.name, &result.a);
    lane(b.name, &result.b);
    0
}

/// `archdse workload <list|export|import|synth>`: the ingestion surface.
fn cmd_workload(args: &[String]) -> i32 {
    const W_USAGE: &str = "usage: archdse workload <verb> [args]
  workload list [--workloads <dir>]              catalog (built-ins + imports)
  workload export <name> [--workloads <dir>]     print an interchange document
  workload import <file> [--workloads <dir>]     import a document or raw trace
                                                 (default store: workloads/)
  workload synth --seed N --count K [--workloads <dir>]
                                                 fuzz profiles (stored, or printed
                                                 as NDJSON without --workloads)";
    let Some(verb) = args.first() else {
        eprintln!("{W_USAGE}");
        return 2;
    };
    match verb.as_str() {
        "list" => workload_list(&args[1..], W_USAGE),
        "export" => workload_export(&args[1..], W_USAGE),
        "import" => workload_import(&args[1..], W_USAGE),
        "synth" => workload_synth(&args[1..], W_USAGE),
        other => {
            eprintln!("unknown workload verb '{other}'\n{W_USAGE}");
            2
        }
    }
}

fn workload_list(args: &[String], usage: &str) -> i32 {
    let flags = match parse_flags(args, &["workloads"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return 2;
        }
    };
    let extra = match flags.get("workloads") {
        Some(dir) => match archdse::ingest::WorkloadStore::open(dir) {
            Ok(store) => store.profiles(),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        },
        None => Vec::new(),
    };
    // The same canonical enumeration `GET /v1/workloads` serves.
    for entry in archdse::workload::catalog(&extra) {
        println!(
            "{:16} {:14} seed {:18} data {:7} KB",
            entry.name,
            entry.suite.to_string(),
            entry.seed,
            entry.data_kb
        );
    }
    0
}

fn workload_export(args: &[String], usage: &str) -> i32 {
    let Some(name) = args.first() else {
        eprintln!("workload export needs a program name\n{usage}");
        return 2;
    };
    let flags = match parse_flags(&args[1..], &["workloads"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return 2;
        }
    };
    let profile = match find_profile_in(name, flags.get("workloads").map(String::as_str)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    print!("{}", archdse::ingest::export_profile(&profile));
    0
}

/// Reads a workload file — an interchange document or a raw
/// `#archdse-trace` — into a validated profile. Sniffs the format from
/// the first non-whitespace byte; both paths enforce their size caps.
fn read_workload_file(path: &str) -> Result<Profile, String> {
    use std::io::{BufRead, Read};
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open '{path}': {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    let first = reader
        .fill_buf()
        .map_err(|e| format!("cannot read '{path}': {e}"))?
        .iter()
        .copied()
        .find(|b| !b.is_ascii_whitespace());
    let result = if first == Some(b'#') {
        archdse::ingest::profile_from_trace(reader)
    } else {
        let mut text = String::new();
        reader
            .take(archdse::ingest::format::MAX_PROFILE_BYTES as u64 + 1)
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read '{path}': {e}"))?;
        archdse::ingest::import_profile(&text)
    };
    result.map_err(|e| format!("{path}: {e}"))
}

fn workload_import(args: &[String], usage: &str) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("workload import needs a file\n{usage}");
        return 2;
    };
    let flags = match parse_flags(&args[1..], &["workloads"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return 2;
        }
    };
    let dir = flags
        .get("workloads")
        .cloned()
        .unwrap_or_else(|| "workloads".to_string());
    let profile = match read_workload_file(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let store = match archdse::ingest::WorkloadStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    match store.add(&profile) {
        Ok(()) => {
            println!(
                "imported '{}' ({}) into {dir}/ ({} workloads)",
                profile.name,
                profile.suite,
                store.len()
            );
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn workload_synth(args: &[String], usage: &str) -> i32 {
    let flags = match parse_flags(args, &["seed", "count", "workloads"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return 2;
        }
    };
    let parse_num = |key: &str, default: u64| -> Result<u64, String> {
        match flags.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} '{v}' is not a number")),
            None => Ok(default),
        }
    };
    let (seed, count) = match (parse_num("seed", 1), parse_num("count", 8)) {
        (Ok(s), Ok(c)) if c > 0 => (s, c as usize),
        (Ok(_), Ok(_)) => {
            eprintln!("--count must be positive");
            return 2;
        }
        (s, c) => {
            for e in [s.err(), c.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let profiles = archdse::ingest::synth_profiles(seed, count);
    match flags.get("workloads") {
        Some(dir) => {
            let store = match archdse::ingest::WorkloadStore::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            };
            for p in &profiles {
                if let Err(e) = store.add(p) {
                    eprintln!("{e}");
                    return 1;
                }
                println!("stored '{}'", p.name);
            }
            println!("{} synthetic workloads in {dir}/", profiles.len());
        }
        None => {
            for p in &profiles {
                print!("{}", archdse::ingest::export_profile(p));
            }
        }
    }
    0
}

fn cmd_predict(args: &[String]) -> i32 {
    let Some(bench) = args.first() else {
        eprintln!("usage: archdse predict <benchmark> [r=32] [--workloads <dir>]");
        return 2;
    };
    let mut r = 32usize;
    let mut workloads: Option<String> = None;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if let Some(v) = arg.strip_prefix("r=") {
            match v.parse() {
                Ok(n) => r = n,
                Err(_) => {
                    eprintln!("bad response count '{v}'");
                    return 2;
                }
            }
        } else if arg == "--workloads" {
            match rest.next() {
                Some(dir) => workloads = Some(dir.clone()),
                None => {
                    eprintln!("--workloads needs a directory");
                    return 2;
                }
            }
        }
    }
    let target_profile = match find_profile_in(bench, workloads.as_deref()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    // Demo-scale protocol so the command finishes in ~a minute on one core.
    let mut profiles: Vec<Profile> = archdse::workload::suites::spec2000()
        .into_iter()
        .filter(|p| p.name != bench)
        .take(8)
        .collect();
    profiles.push(target_profile);
    let spec = DatasetSpec {
        n_configs: 200,
        trace_len: 30_000,
        warmup: 6_000,
        seed: 21,
    };
    eprintln!(
        "simulating {} training programs + target ...",
        profiles.len() - 1
    );
    let ds = SuiteDataset::generate(&profiles, &spec);
    let target = ds.benchmarks.len() - 1;
    let train_rows: Vec<usize> = (0..target).collect();
    let offline = OfflineModel::train(
        &ds,
        &train_rows,
        Metric::Cycles,
        150,
        &MlpConfig::default(),
        2,
    );
    let idxs: Vec<usize> = (0..r.min(ds.n_configs() / 2)).collect();
    let vals: Vec<f64> = idxs
        .iter()
        .map(|&i| ds.benchmarks[target].metrics[i].cycles)
        .collect();
    let predictor = offline.fit_responses(&ds, &idxs, &vals);
    let features = ds.features();
    let preds: Vec<f64> = (idxs.len()..ds.n_configs())
        .map(|i| predictor.predict(&features[i]))
        .collect();
    let actual: Vec<f64> = (idxs.len()..ds.n_configs())
        .map(|i| ds.benchmarks[target].metrics[i].cycles)
        .collect();
    println!(
        "predicted {} unseen configurations of '{bench}' from {} responses:",
        preds.len(),
        idxs.len()
    );
    println!(
        "  rmae        : {:.1}%",
        dse_ml::stats::rmae(&preds, &actual)
    );
    println!(
        "  correlation : {:.3}",
        dse_ml::stats::correlation(&preds, &actual)
    );
    0
}

/// `archdse explore <bench> --models <dir> ...`: predictor-guided Pareto
/// frontier search. The trained registry is the cheap oracle; metrics the
/// registry has not yet fitted for `<bench>` are fitted here first
/// (simulating `--r` responses, the paper's §5.3 protocol), then the
/// explorer spends its simulation budget ground-truthing the predictor's
/// picks.
fn cmd_explore(args: &[String]) -> i32 {
    const EXPLORE_USAGE: &str = "usage: archdse explore <bench> --models <dir> \
[--objective cycles,energy] [--constraints \"rob<=96,..\"] [--rounds N] [--candidates N] \
[--sims N] [--archive N] [--seed N] [--r N] [--out <dir>]";
    let Some(bench) = args.first() else {
        eprintln!("{EXPLORE_USAGE}");
        return 2;
    };
    let flags = match parse_flags(
        &args[1..],
        &[
            "models",
            "objective",
            "constraints",
            "rounds",
            "candidates",
            "sims",
            "archive",
            "seed",
            "r",
            "out",
        ],
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{EXPLORE_USAGE}");
            return 2;
        }
    };
    let Some(models) = flags.get("models") else {
        eprintln!("explore needs --models <dir> (create one with `archdse train`)");
        return 2;
    };
    let profile = match find_profile(bench) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let objective = match Objective::parse(
        flags
            .get("objective")
            .map_or("cycles,energy", String::as_str),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bad --objective: {e}");
            return 2;
        }
    };
    let constraints = match flags.get("constraints") {
        Some(s) => match Constraints::parse(s) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("bad --constraints: {e}");
                return 2;
            }
        },
        None => Constraints::none(),
    };
    let mut budget = ExploreBudget::default();
    let parse_num = |key: &str, default: usize| -> Result<usize, String> {
        match flags.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} '{v}' is not a number")),
            None => Ok(default),
        }
    };
    let parsed = (
        parse_num("rounds", budget.rounds),
        parse_num("candidates", budget.candidates_per_round),
        parse_num("sims", budget.sims_per_round),
        parse_num("archive", budget.archive_cap),
        parse_num("seed", budget.seed as usize),
        parse_num("r", 32),
    );
    let r = match parsed {
        (Ok(ro), Ok(c), Ok(s), Ok(a), Ok(seed), Ok(r)) => {
            budget.rounds = ro;
            budget.candidates_per_round = c;
            budget.sims_per_round = s;
            budget.archive_cap = a;
            budget.seed = seed as u64;
            r
        }
        (a, b, c, d, e, f) => {
            for err in [a.err(), b.err(), c.err(), d.err(), e.err(), f.err()]
                .into_iter()
                .flatten()
            {
                eprintln!("{err}");
            }
            return 2;
        }
    };
    if let Err(e) = budget.validate() {
        eprintln!("bad budget: {e}");
        return 2;
    }
    let registry = match ModelRegistry::open(models) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to load models from '{models}': {e}");
            return 1;
        }
    };
    let metrics = objective.metrics();
    let trace = protocol::trace(&profile);
    let options = protocol::options();
    // Fit any objective metric the registry has no combiner for yet.
    for &metric in &metrics {
        if registry.predictor(bench, metric).is_ok() {
            continue;
        }
        let Some(artifact) = registry.artifact(metric) else {
            eprintln!("registry has no {metric} model (retrain with --metrics all)");
            return 1;
        };
        let take = r.min(artifact.configs.len());
        eprintln!("fitting '{bench}' {metric}: simulating {take} responses ...");
        let responses: Vec<(usize, f64)> = artifact.configs[..take]
            .iter()
            .enumerate()
            .map(|(i, c)| (i, simulate(c, &trace, options).get(metric)))
            .collect();
        if let Err(e) = registry.fit(bench, metric, &responses) {
            eprintln!("fit failed: {e}");
            return 1;
        }
    }
    let predictor = match RegistryPredictor::resolve(&registry, bench, &metrics) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let oracle = SimOracle::new(trace, options);
    let explorer = Explorer {
        predictor: &predictor,
        oracle: &oracle,
        program: bench.clone(),
        objective,
        constraints,
        budget,
        pool: None,
    };
    eprintln!(
        "exploring '{bench}': {} rounds x {} sims ...",
        explorer.budget.rounds, explorer.budget.sims_per_round
    );
    let frontier = match explorer.run() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("explore failed: {e}");
            return 1;
        }
    };
    println!("{}", frontier.table());
    let out_dir = std::path::Path::new(flags.get("out").map_or("results", String::as_str));
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create '{}': {e}", out_dir.display());
        return 1;
    }
    let path = out_dir.join(format!(
        "frontier-{bench}-{}.json",
        frontier.objective.slug()
    ));
    let text = dse_util::json::to_string(&frontier.to_json());
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write '{}': {e}", path.display());
        return 1;
    }
    println!("wrote {}", path.display());
    0
}

fn cmd_train(args: &[String]) -> i32 {
    let flags = match parse_flags(
        args,
        &[
            "out",
            "benchmarks",
            "configs",
            "t",
            "metrics",
            "seed",
            "obs",
            "workloads",
        ],
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\nusage: archdse train --out <dir> [--benchmarks N] [--configs N] [--t N] [--metrics m,..|all] [--seed N] [--workloads <dir>] [--obs json|pretty|off]");
            return 2;
        }
    };
    let obs_mode = match flags.get("obs").map(String::as_str) {
        None | Some("off") => "off",
        Some(m @ ("json" | "pretty")) => m,
        Some(other) => {
            eprintln!("--obs '{other}' must be one of: json, pretty, off");
            return 2;
        }
    };
    let Some(out) = flags.get("out") else {
        eprintln!("train needs --out <dir>");
        return 2;
    };
    let parse_num = |key: &str, default: usize| -> Result<usize, String> {
        match flags.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} '{v}' is not a number")),
            None => Ok(default),
        }
    };
    let (n_benchmarks, n_configs, t, seed) = match (
        parse_num("benchmarks", 5),
        parse_num("configs", 120),
        parse_num("t", 90),
        parse_num("seed", 1),
    ) {
        (Ok(b), Ok(c), Ok(t), Ok(s)) => (b, c, t, s as u64),
        (b, c, t, s) => {
            for e in [b.err(), c.err(), t.err(), s.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let metrics: Vec<Metric> = match flags.get("metrics").map(String::as_str) {
        None => vec![Metric::Cycles],
        Some("all") => Metric::ALL.to_vec(),
        Some(list) => {
            let mut out = Vec::new();
            for item in list.split(',') {
                match parse_metric(item.trim()) {
                    Ok(m) => out.push(m),
                    Err(e) => {
                        eprintln!("{e}");
                        return 2;
                    }
                }
            }
            out
        }
    };
    let mut profiles: Vec<Profile> = archdse::workload::suites::spec2000()
        .into_iter()
        .take(n_benchmarks)
        .collect();
    if let Some(dir) = flags.get("workloads") {
        // Imported workloads join the training population, so the
        // resulting artifacts can predict (and be fitted for) them.
        match archdse::ingest::WorkloadStore::open(dir) {
            Ok(store) => {
                let imported = store.profiles();
                if imported.is_empty() {
                    eprintln!("warning: workload store '{dir}' is empty");
                }
                eprintln!(
                    "including {} imported workload(s) from {dir}/",
                    imported.len()
                );
                profiles.extend(imported);
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    if profiles.len() < 2 {
        eprintln!("need at least 2 benchmarks to train");
        return 2;
    }
    let spec = DatasetSpec {
        n_configs,
        trace_len: protocol::TRACE_LEN,
        warmup: protocol::WARMUP,
        seed: protocol::SEED,
    };
    if obs_mode != "off" {
        archdse::obs::flight::start_capture();
    }
    // With `--obs json`, stdout carries nothing but the captured records
    // as JSONL so the log can be piped straight into `archdse obs report`;
    // status lines move to stderr.
    let status = {
        let _root = archdse::obs::span!(
            "train",
            benchmarks = profiles.len(),
            configs = n_configs,
            metrics = metrics.len()
        );
        eprintln!(
            "simulating {} benchmarks x {} configurations ...",
            profiles.len(),
            n_configs
        );
        let ds = SuiteDataset::generate(&profiles, &spec);
        eprintln!("training {} metric model(s) ...", metrics.len());
        match save_artifacts(
            std::path::Path::new(out),
            &ds,
            &metrics,
            t.min(n_configs),
            &MlpConfig::default(),
            seed,
        ) {
            Ok(manifest) => {
                let mut lines = vec![format!("wrote {}", manifest.display())];
                for m in &metrics {
                    lines.push(format!("  model-{}.json", m.to_string().to_lowercase()));
                }
                for line in lines {
                    if obs_mode == "json" {
                        eprintln!("{line}");
                    } else {
                        println!("{line}");
                    }
                }
                0
            }
            Err(e) => {
                eprintln!("{e}");
                1
            }
        }
    };
    let records = archdse::obs::flight::finish_capture();
    match obs_mode {
        "json" => print!("{}", archdse::obs::flight::to_jsonl(&records)),
        "pretty" => print!("{}", archdse::obs::flight::flame(&records).render(None)),
        _ => {}
    }
    status
}

/// `archdse obs report <records.jsonl> [--top N]`: the self-time flame
/// table of the spans in a trace-recorder log — a `train --obs json`
/// capture or a `client flight` dump.
///
/// Robust against partial logs: unparsable lines (a process killed
/// mid-write truncates the last line) are counted and skipped with a
/// warning, and a log without spans reports cleanly instead of erroring —
/// a crashed run's log is exactly the one worth reading. `--top N`
/// limits the table to the N hottest spans.
fn cmd_obs(args: &[String]) -> i32 {
    const OBS_USAGE: &str = "usage: archdse obs report <records.jsonl> [--top N]";
    let (Some(verb), Some(path)) = (args.first(), args.get(1)) else {
        eprintln!("{OBS_USAGE}");
        return 2;
    };
    if verb != "report" {
        eprintln!("unknown obs verb '{verb}'\n{OBS_USAGE}");
        return 2;
    }
    let top = parse_flags(&args[2..], &["top"]).and_then(|flags| {
        let top = flags.get("top").map(|v| v.parse::<usize>());
        top.transpose()
            .map_err(|_| "--top needs a positive integer".into())
    });
    let top = match top {
        Ok(top) => top,
        Err(e) => {
            eprintln!("{e}\n{OBS_USAGE}");
            return 2;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read '{path}': {e}");
            return 1;
        }
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Json::parse(line).and_then(|v| parse_record(&v)) {
            Ok(r) => records.push(r),
            Err(e) => {
                eprintln!("{path}:{}: skipping unparsable line: {e}", i + 1);
                skipped += 1;
            }
        }
    }
    let flame = archdse::obs::flight::flame(&records);
    if flame.rows.is_empty() {
        println!("no spans in '{path}'");
    } else {
        print!("{}", flame.render(top));
    }
    if skipped > 0 {
        println!("({skipped} unparsable lines skipped)");
    }
    0
}

/// One trace-recorder JSONL line, as written by `flight::to_jsonl`.
fn parse_record(v: &Json) -> Result<archdse::obs::Record, dse_util::json::JsonError> {
    Ok(archdse::obs::Record {
        seq: v.get("seq")?,
        ts_us: v.get("ts_us")?,
        request: v.get("request")?,
        parent: v.get("parent")?,
        kind: v.get::<String>("kind")?.into(),
        detail: archdse::obs::flight::Detail::new(&v.get::<String>("detail")?),
        dur_us: v.field("dur_us").ok().map(Json::as_u64).transpose()?,
    })
}

fn cmd_serve(args: &[String]) -> i32 {
    let flags = match parse_flags(
        args,
        &["models", "addr", "workers", "reactors", "workloads"],
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "{e}\nusage: archdse serve --models <dir> [--addr host:port] [--workers N] [--reactors N] [--workloads <dir>]"
            );
            return 2;
        }
    };
    let Some(models) = flags.get("models") else {
        eprintln!("serve needs --models <dir> (create one with `archdse train`)");
        return 2;
    };
    let mut cfg = ServerConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:8080".to_string()),
        workloads_dir: flags.get("workloads").cloned(),
        ..ServerConfig::default()
    };
    if let Some(w) = flags.get("workers") {
        match w.parse::<usize>() {
            Ok(n) if n > 0 => cfg.workers = n,
            _ => {
                eprintln!("--workers '{w}' is not a positive number");
                return 2;
            }
        }
    }
    if let Some(r) = flags.get("reactors") {
        match r.parse::<usize>() {
            Ok(n) if n > 0 => cfg.reactors = n,
            _ => {
                eprintln!("--reactors '{r}' is not a positive number");
                return 2;
            }
        }
    }
    let registry = match ModelRegistry::open(models) {
        Ok(r) => std::sync::Arc::new(r),
        Err(e) => {
            eprintln!("failed to load models from '{models}': {e}");
            return 1;
        }
    };
    let metrics: Vec<String> = registry.metrics().iter().map(|m| m.to_string()).collect();
    let server = match Server::start(registry, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", cfg.addr);
            return 1;
        }
    };
    println!(
        "dse-serve listening on {} ({} workers, {} reactors, metrics: {})",
        server.local_addr(),
        cfg.workers,
        cfg.reactors,
        metrics.join(", ")
    );
    if let Some(n) = server.workload_count() {
        println!("workload store: {n} imported workload(s)");
    }
    println!("stop with: archdse client {} shutdown", server.local_addr());
    server.wait();
    println!("drained, bye");
    0
}

fn cmd_client(args: &[String]) -> i32 {
    let (Some(addr), Some(verb)) = (args.first(), args.get(1)) else {
        eprintln!("usage: archdse client <addr> <health|fit|predict|flight|shutdown> [args]");
        return 2;
    };
    let mut client = Client::new(addr.clone());
    let rest = &args[2..];
    let result = match verb.as_str() {
        "health" => client.healthz().map(|v| dse_util::json::to_string(&v)),
        "shutdown" => client.shutdown().map(|v| dse_util::json::to_string(&v)),
        "fit" => return client_fit(&mut client, rest),
        "predict" => return client_predict(&mut client, rest),
        "flight" => return client_flight(&mut client, rest),
        "workloads" => return client_workloads(&mut client),
        "import" => return client_import(&mut client, rest),
        other => {
            eprintln!("unknown client verb '{other}'");
            return 2;
        }
    };
    match result {
        Ok(text) => {
            println!("{text}");
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `client <addr> flight [request-id]`: the server's flight-recorder
/// ring as JSONL, optionally filtered to one request's event chain.
fn client_flight(client: &mut Client, args: &[String]) -> i32 {
    let path = match args.first() {
        Some(id) => {
            if id.parse::<u64>().is_err() {
                eprintln!("bad request id '{id}'");
                return 2;
            }
            format!("/v1/obs/flight?request={id}")
        }
        None => "/v1/obs/flight".to_string(),
    };
    match client.get(&path) {
        Ok(resp) if resp.status == 200 => {
            print!("{}", resp.text().unwrap_or("<binary>"));
            0
        }
        Ok(resp) => {
            eprintln!(
                "server answered {}: {}",
                resp.status,
                resp.text().unwrap_or("<binary>")
            );
            1
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `client <addr> workloads`: the server-side workload catalog.
fn client_workloads(client: &mut Client) -> i32 {
    match client.get("/v1/workloads") {
        Ok(resp) if resp.status == 200 => {
            println!("{}", resp.text().unwrap_or("<binary>"));
            0
        }
        Ok(resp) => {
            eprintln!(
                "server answered {}: {}",
                resp.status,
                resp.text().unwrap_or("<binary>")
            );
            1
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// `client <addr> import <file>`: POSTs a profile document to the
/// server's workload store.
fn client_import(client: &mut Client, args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: archdse client <addr> import <file>");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read '{path}': {e}");
            return 1;
        }
    };
    match client.post("/v1/workloads", &text) {
        Ok(resp) if resp.status == 201 => {
            println!("{}", resp.text().unwrap_or("<binary>"));
            0
        }
        Ok(resp) => {
            eprintln!(
                "server answered {}: {}",
                resp.status,
                resp.text().unwrap_or("<binary>")
            );
            1
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Simulates `r` responses of a benchmark at the server's shared sample
/// configurations and fits it online — the paper's §5.3 protocol spoken
/// over HTTP.
fn client_fit(client: &mut Client, args: &[String]) -> i32 {
    let Some(bench) = args.first() else {
        eprintln!("usage: archdse client <addr> fit <benchmark> [metric] [r=N] [workloads=<dir>]");
        return 2;
    };
    let mut metric = Metric::Cycles;
    let mut r = 32usize;
    let mut workloads: Option<String> = None;
    for arg in &args[1..] {
        if let Some(v) = arg.strip_prefix("r=") {
            match v.parse() {
                Ok(n) if n > 0 => r = n,
                _ => {
                    eprintln!("bad response count '{v}'");
                    return 2;
                }
            }
        } else if let Some(v) = arg.strip_prefix("workloads=") {
            workloads = Some(v.to_string());
        } else {
            match parse_metric(arg) {
                Ok(m) => metric = m,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
        }
    }
    let profile = match find_profile_in(bench, workloads.as_deref()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Ask the server which configurations its sample holds, then simulate
    // the new program on the first R of them.
    let resp = match client.get(&format!("/v1/configs?limit={r}&metric={metric:?}")) {
        Ok(resp) if resp.status == 200 => resp,
        Ok(resp) => {
            eprintln!(
                "server answered {}: {}",
                resp.status,
                resp.text().unwrap_or("<binary>")
            );
            return 1;
        }
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let parsed = match resp.json() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let entries = match parsed.field("configs").and_then(|v| v.as_array()) {
        Ok(a) => a.to_vec(),
        Err(e) => {
            eprintln!("bad /v1/configs response: {e}");
            return 1;
        }
    };
    let trace = protocol::trace(&profile);
    let options = protocol::options();
    let mut responses = Vec::with_capacity(entries.len());
    eprintln!("simulating {} responses of '{bench}' ...", entries.len());
    for entry in &entries {
        let (index, config) = match (
            entry.field("index").and_then(usize::from_json),
            entry.field("config").and_then(Config::from_json),
        ) {
            (Ok(i), Ok(c)) => (i, c),
            (i, c) => {
                for e in [
                    i.err().map(|e| e.to_string()),
                    c.err().map(|e| e.to_string()),
                ]
                .into_iter()
                .flatten()
                {
                    eprintln!("bad /v1/configs entry: {e}");
                }
                return 1;
            }
        };
        let metrics = simulate(&config, &trace, options);
        responses.push((index, metrics.get(metric)));
    }
    match client.fit(bench, metric, &responses) {
        Ok(summary) => {
            println!("{}", dse_util::json::to_string(&summary));
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn client_predict(client: &mut Client, args: &[String]) -> i32 {
    let Some(program) = args.first() else {
        eprintln!("usage: archdse client <addr> predict <program> [metric] [key=value ...]");
        return 2;
    };
    let mut metric = Metric::Cycles;
    let mut overrides = Vec::new();
    for arg in &args[1..] {
        if arg.contains('=') {
            overrides.push(arg.clone());
        } else {
            match parse_metric(arg) {
                Ok(m) => metric = m,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
        }
    }
    let config = match parse_config(&overrides) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Speak /v1/predict directly (rather than through `Client::predict`)
    // so the response's `x-archdse-request-id` header can ride along in
    // the output — it is the key into `client <addr> flight <id>`.
    let body = Json::obj([
        ("program", program.as_str().to_json()),
        ("metric", metric.to_json()),
        ("config", config.to_json()),
    ]);
    let resp = match client.post("/v1/predict", &dse_util::json::to_string(&body)) {
        Ok(resp) if resp.status == 200 => resp,
        Ok(resp) => {
            eprintln!(
                "server answered {}: {}",
                resp.status,
                resp.text().unwrap_or("<binary>")
            );
            return 1;
        }
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let request_id = resp
        .header("x-archdse-request-id")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let parsed = match resp.json() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let (value, cached) = match (
        parsed.field("value").and_then(f64::from_json),
        parsed.field("cached").and_then(bool::from_json),
    ) {
        (Ok(v), Ok(c)) => (v, c),
        (v, c) => {
            for e in [v.err(), c.err()].into_iter().flatten() {
                eprintln!("bad /v1/predict response: {e}");
            }
            return 1;
        }
    };
    let out = Json::obj([
        ("program", program.as_str().to_json()),
        ("metric", metric.to_json()),
        ("value", value.to_json()),
        ("cached", cached.to_json()),
        ("request_id", request_id.to_json()),
    ]);
    println!("{}", dse_util::json::to_string(&out));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_with_both_profilers_matches_a_plain_run_bit_for_bit() {
        let gzip = find_profile_in("gzip", None).unwrap();
        let cfg = Config::baseline();
        let (plain, None, None) = simulate_observed(&cfg, &gzip, false, false, false).unwrap()
        else {
            panic!("a plain run returns no profile");
        };
        let (both, Some(stall), Some(stages)) =
            simulate_observed(&cfg, &gzip, false, true, true).unwrap()
        else {
            panic!("--profile --profile-stages returns both profiles");
        };
        let bits = |m: archdse::sim::Metrics| [m.cycles, m.energy, m.ed, m.edd].map(f64::to_bits);
        assert_eq!(
            bits(archdse::sim::Metrics::from_result(&plain.result)),
            bits(archdse::sim::Metrics::from_result(&both.result))
        );
        assert_eq!(plain.counters, both.counters);
        // One pass: both observers saw the same cycles.
        assert_eq!(
            stall.total_cycles(),
            stages.cycles_stepped + stages.cycles_idle
        );
        assert_eq!(stall.cycles_stepped, stages.cycles_stepped);
        assert!(stages.total_ticks() > 0);
    }

    #[test]
    fn parse_config_applies_overrides() {
        let args: Vec<String> = vec!["width=8".into(), "rf_read=16".into(), "rf_write=8".into()];
        let cfg = parse_config(&args).unwrap();
        assert_eq!(cfg.width, 8);
        assert_eq!(cfg.rf_read, 16);
        assert_eq!(cfg.rob, Config::baseline().rob);
    }

    #[test]
    fn parse_config_rejects_unknown_key() {
        let err = parse_config(&["potato=4".to_string()]).unwrap_err();
        assert!(err.contains("unknown parameter"));
    }

    #[test]
    fn parse_config_rejects_off_grid_value() {
        let err = parse_config(&["rob=97".to_string()]).unwrap_err();
        assert!(err.contains("rob=97"), "{err}");
        assert!(err.contains("32, 40, 48") && err.contains("160"), "{err}");
        assert!(parse_config(&["l2=1024".to_string()]).is_ok());
    }

    #[test]
    fn parse_config_rejects_illegal_combination() {
        // width 2 with baseline's 8 read ports violates the filter.
        let err = parse_config(&["width=2".to_string()]).unwrap_err();
        assert!(err.contains("legality"));
    }

    #[test]
    fn parse_config_rejects_non_numeric() {
        let err = parse_config(&["width=four".to_string()]).unwrap_err();
        assert!(err.contains("not a number"));
    }

    #[test]
    fn find_profile_knows_the_suites() {
        assert!(find_profile("gzip").is_ok());
        assert!(find_profile("tiff2rgba").is_ok());
        assert!(find_profile("doom").is_err());
    }

    #[test]
    fn parse_flags_requires_known_flags_with_values() {
        let ok = parse_flags(
            &["--out".to_string(), "models".to_string()],
            &["out", "addr"],
        )
        .unwrap();
        assert_eq!(ok.get("out").map(String::as_str), Some("models"));
        assert!(parse_flags(&["--nope".to_string(), "x".to_string()], &["out"]).is_err());
        assert!(parse_flags(&["--out".to_string()], &["out"]).is_err());
        assert!(parse_flags(&["out".to_string()], &["out"]).is_err());
    }

    #[test]
    fn explore_rejects_budgets_past_their_caps_with_exit_2() {
        // Validation runs before the models directory is read, so a
        // missing one would exit 1, not 2.
        for flags in [
            ["--rounds", "4294967296", "--sims", "4294967296"],
            ["--candidates", "1000000000000", "--sims", "4"],
            ["--archive", "10001", "--sims", "4"],
        ] {
            let mut args = vec!["gzip".to_string(), "--models".into(), "no-such-dir".into()];
            args.extend(flags.iter().map(|f| f.to_string()));
            assert_eq!(cmd_explore(&args), 2, "{flags:?}");
        }
    }

    #[test]
    fn parse_metric_accepts_both_spellings() {
        assert_eq!(parse_metric("cycles").unwrap(), Metric::Cycles);
        assert_eq!(parse_metric("Cycles").unwrap(), Metric::Cycles);
        assert_eq!(parse_metric("ED").unwrap(), Metric::Ed);
        assert_eq!(parse_metric("edd").unwrap(), Metric::Edd);
        assert!(parse_metric("watts").is_err());
    }
}
