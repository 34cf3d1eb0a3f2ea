//! End-to-end and per-layer benchmark of the archdse workspace.
//!
//! One run executes one workload in its own process: it sets the workload
//! up, runs one untimed warm-up operation, times operations for a fixed
//! window, checks that the outputs are correct, and sets the workload up
//! a few more times to report the median set-up time. The untraced pass
//! reports the end-to-end metrics; the traced pass (`--trace 1`) records
//! spans around every call into a layer and reports the per-layer metrics
//! instead. The benchmark
//! only calls the crates' public functions and times them from outside;
//! it leaves every `ARCHDSE_*` knob at its library default.
//!
//! Every workload reports the same end-to-end metrics, each defined per
//! workload (see `README.md`):
//!
//! * `setup_s` — median set-up time;
//! * `op_ms` — median latency of the workload's operation;
//! * `items_per_s` — the workload's fine-grained work rate;
//! * `peak_rss_mb` — the process's peak resident set.

pub mod compare;
mod explore;
mod pins;
mod probes;
pub mod result;
mod serve;
mod spans;
mod stats;
mod sweep;
mod xval;

use explore::ExploreSizes;
use probes::ProbeSizes;
use serve::ServeSizes;
use sweep::SweepSizes;
use xval::XvalSizes;

use dse_rng::Xoshiro256;
use dse_workload::Profile;
use result::{Metric, Record, RunResult};
use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dataset generation: simulation does all the work.
    Sweep,
    /// Leave-one-out cross-validation: training and prediction only.
    Xval,
    /// Bring-your-own-program frontier search.
    Explore,
    /// The prediction server under load.
    Serve,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::Xval,
        Workload::Explore,
        Workload::Serve,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Xval => "xval",
            Workload::Explore => "explore",
            Workload::Serve => "serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Every size the workloads run at. [`Sizes::full`] is what the
/// benchmark measures; [`Sizes::smoke`] runs the same code paths in
/// seconds for the crate's tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Minimum number of set-ups per untraced run; `setup_s` is their
    /// median.
    pub(crate) setup_reps: usize,
    /// Further set-ups run until this much set-up time is spent (at most
    /// [`MAX_SETUPS`] in all). A cheap set-up is then timed across a few
    /// seconds: timed across half a second, a 20 ms set-up read 50 % slower
    /// in some runs, when the host was busy for that half second.
    pub(crate) setup_min_s: f64,
    /// Timed operations per run even when the window is shorter.
    pub(crate) min_ops: usize,
    /// Trace length of every simulation but `xval`'s (the serving
    /// protocol's at the full sizes).
    pub(crate) trace_len: usize,
    /// Warm-up instructions of those simulations.
    pub(crate) warmup: usize,
    /// The `sweep` workload.
    pub(crate) sweep: SweepSizes,
    /// The `xval` workload.
    pub(crate) xval: XvalSizes,
    /// The `explore` workload.
    pub(crate) explore: ExploreSizes,
    /// The `serve` workload.
    pub(crate) serve: ServeSizes,
    /// The per-layer probes of the traced pass.
    pub(crate) probe: ProbeSizes,
}

impl Sizes {
    /// The measured sizes.
    pub const fn full() -> Self {
        Self {
            setup_reps: 3,
            setup_min_s: 3.0,
            min_ops: 3,
            trace_len: dse_serve::protocol::TRACE_LEN,
            warmup: dse_serve::protocol::WARMUP,
            sweep: SweepSizes::FULL,
            xval: XvalSizes::FULL,
            explore: ExploreSizes::FULL,
            serve: ServeSizes::FULL,
            probe: ProbeSizes::FULL,
        }
    }

    /// Minimal sizes exercising every code path, for tests.
    pub const fn smoke() -> Self {
        Self {
            setup_reps: 1,
            setup_min_s: 0.0,
            min_ops: 1,
            trace_len: 2_000,
            warmup: 400,
            sweep: SweepSizes::SMOKE,
            xval: XvalSizes::SMOKE,
            explore: ExploreSizes::SMOKE,
            serve: ServeSizes::SMOKE,
            probe: ProbeSizes::SMOKE,
        }
    }

    /// The trace of `p` at these sizes.
    pub(crate) fn trace(&self, p: &Profile) -> dse_workload::Trace {
        dse_workload::TraceGenerator::new(p).generate(self.trace_len)
    }

    /// The simulation options at these sizes.
    pub(crate) fn options(&self) -> dse_sim::SimOptions {
        dse_sim::SimOptions::with_warmup(self.warmup)
    }

    /// A dataset spec at these sizes.
    pub(crate) fn spec(&self, n_configs: usize, seed: u64) -> dse_core::dataset::DatasetSpec {
        dse_core::dataset::DatasetSpec {
            n_configs,
            trace_len: self.trace_len,
            warmup: self.warmup,
            seed,
        }
    }
}

/// Outcomes of the correctness checks of one run.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one check; records `what` when it failed.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// What a workload measured, before it becomes metrics.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    /// Median set-up time (untraced pass only).
    pub setup_s: f64,
    /// Peak resident set in MiB before the extra set-ups (untraced pass).
    pub peak_rss_mb: Option<f64>,
    /// Latency of each timed operation, in seconds.
    pub op_s: Vec<f64>,
    /// Work items completed per second.
    pub items_per_s: f64,
    /// Latency of each traced operation (traced pass only).
    pub traced_op_s: Vec<f64>,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed.
    pub ops_failed: u64,
    /// Readings printed but not gated.
    pub info: Vec<Metric>,
    /// Work counts of the warm-up operation.
    pub work: Vec<(String, u64)>,
    /// Correctness checks.
    pub checks: Checks,
    /// Per-layer metrics (traced pass only).
    pub layers: Vec<Metric>,
}

/// Derives a stream seed from the run seed and a per-input tag, so every
/// generated input depends on `--seed` and inputs stay independent.
pub(crate) fn mix(seed: u64, tag: u64) -> u64 {
    Xoshiro256::seed_from(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// `p` with its trace seed drawn from `seed`: the same program
/// statistically, another instance of its code and instruction stream.
/// The seed stays within 53 bits, so the profile exports to JSON exactly.
pub(crate) fn reseeded(mut p: Profile, seed: u64) -> Profile {
    p.seed = mix(p.seed, seed) >> 11;
    p
}

/// The named built-in programs, reseeded by `seed`.
pub(crate) fn programs(names: &[&str], seed: u64) -> Vec<Profile> {
    let all = dse_workload::suites::all_benchmarks();
    names
        .iter()
        .map(|name| {
            let p = all
                .iter()
                .find(|p| p.name == *name)
                .unwrap_or_else(|| panic!("unknown program `{name}`"));
            reseeded(p.clone(), seed)
        })
        .collect()
}

/// Directory for the run's scratch files, traces and records.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory removed when dropped.
pub(crate) struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one set-up and returns it with its wall time in seconds.
pub(crate) fn time_setup<C>(setup: impl FnOnce() -> C) -> (C, f64) {
    let t = Instant::now();
    let c = setup();
    (c, t.elapsed().as_secs_f64())
}

/// Most set-ups one run times.
const MAX_SETUPS: usize = 200;

/// Reads the peak resident set reached so far — one set-up and the timed
/// window — then runs further set-ups, each dropped at once, until
/// [`Sizes::setup_reps`] ran and [`Sizes::setup_min_s`] was spent, and
/// records the median set-up time. The extra set-ups come last so they
/// neither warm the timed operations nor inflate the memory reading (the
/// allocator keeps what a dropped set-up freed).
pub(crate) fn finish_setups<C>(
    m: &mut Measured,
    sizes: &Sizes,
    first_s: f64,
    mut setup: impl FnMut() -> C,
) {
    m.peak_rss_mb = peak_rss_mb();
    let mut times = vec![first_s];
    while times.len() < sizes.setup_reps
        || (times.iter().sum::<f64>() < sizes.setup_min_s && times.len() < MAX_SETUPS)
    {
        times.push(time_setup(&mut setup).1);
    }
    m.setup_s = stats::median(&times);
}

/// Runs `op` until `seconds` have passed and at least `min_ops` ran;
/// returns each operation's latency in seconds, the items the operations
/// reported, and the wall time they took.
fn loop_ops(seconds: f64, min_ops: usize, op: &mut dyn FnMut() -> f64) -> (Vec<f64>, f64, f64) {
    let start = Instant::now();
    let (mut lat, mut items) = (Vec::new(), 0.0);
    while lat.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        items += op();
        lat.push(t.elapsed().as_secs_f64());
    }
    (lat, items, start.elapsed().as_secs_f64())
}

/// The timed part of an operation-loop workload. The untraced pass times
/// operations for the whole window; the traced pass times half the window
/// untraced and half with spans on, and leaves spans on for the probes.
pub(crate) fn time_ops(
    m: &mut Measured,
    sizes: &Sizes,
    seconds: f64,
    traced: bool,
    op: &mut dyn FnMut() -> f64,
) {
    let window = if traced { seconds / 2.0 } else { seconds };
    let (lat, items, wall) = loop_ops(window, sizes.min_ops, op);
    m.ops += lat.len() as u64;
    m.op_s = lat;
    m.items_per_s = items / wall;
    if traced {
        spans::set_enabled(true);
        let (lat, _, _) = loop_ops(window, sizes.min_ops, &mut || {
            let _op = spans::span("op");
            op()
        });
        m.ops += lat.len() as u64;
        m.traced_op_s = lat;
    }
}

/// Library counters read as deterministic work counts of one operation:
/// `(work name, counter name)`.
const WORK_COUNTERS: [(&str, &str); 6] = [
    ("sim.runs", "dse_sim_runs_total"),
    ("sim.instructions", "dse_sim_instructions_total"),
    ("sim.cycles", "dse_sim_cycles_total"),
    ("ml.models_trained", "dse_ml_mlp_fits_total"),
    ("explore.candidates_scored", "explore_candidates_scored"),
    ("explore.sims", "explore_sims"),
];

/// Runs `f` and returns what it did to the library's work counters.
pub(crate) fn work_of<R>(f: impl FnOnce() -> R) -> (R, Vec<(String, u64)>) {
    let read = || WORK_COUNTERS.map(|(_, c)| dse_obs::counter(c).get());
    let before = read();
    let r = f();
    let after = read();
    let work = WORK_COUNTERS
        .iter()
        .zip(before.iter().zip(after.iter()))
        .map(|((name, _), (b, a))| (name.to_string(), a - b))
        .collect();
    (r, work)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The environment knobs the library reads, as this process sees them.
/// The benchmark sets none of them.
fn env_block() -> Vec<(String, String)> {
    let mut env: Vec<(String, String)> = [
        "ARCHDSE_THREADS",
        "ARCHDSE_BATCH",
        "ARCHDSE_OBS",
        "ARCHDSE_SANITIZE",
        "ARCHDSE_LOG",
    ]
    .iter()
    .map(|k| {
        let v = std::env::var(k).unwrap_or_else(|_| "unset (library default)".to_string());
        (k.to_string(), v)
    })
    .collect();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    env.push(("available_parallelism".to_string(), cpus.to_string()));
    env
}

/// Runs one workload and returns everything it measured. With `traced`
/// the result holds the per-layer metrics and a span log is written to
/// `out/trace-<workload>.jsonl`.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Record {
    spans::set_enabled(false);
    let mut m = match workload {
        Workload::Sweep => sweep::run(seed, seconds, traced, sizes),
        Workload::Xval => xval::run(seed, seconds, traced, sizes),
        Workload::Explore => explore::run(seed, seconds, traced, sizes),
        Workload::Serve => serve::run(seed, seconds, traced, sizes),
    };
    spans::set_enabled(false);
    let pinned = pins::check(workload, seed, sizes, &m);
    for note in pinned.failures {
        m.checks.check(false, || note);
    }

    let mut metrics = if traced {
        let overhead = if m.op_s.is_empty() || m.traced_op_s.is_empty() {
            f64::NAN
        } else {
            (stats::median(&m.traced_op_s) / stats::median(&m.op_s) - 1.0) * 100.0
        };
        let mut layers = std::mem::take(&mut m.layers);
        layers.push(Metric::new("trace.overhead_pct", overhead, "%"));
        let spans = spans::take();
        // Where the traced pass spent its time, largest self time first.
        for row in spans::self_times(&spans).iter().take(12) {
            let name = format!("self_ms.{}", row.name);
            m.info
                .push(Metric::new(name, row.self_ns as f64 / 1e6, "ms"));
        }
        let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, spans::to_jsonl(&spans, workload.name())));
        if let Err(e) = written {
            m.checks
                .check(false, || format!("cannot write {}: {e}", path.display()));
        }
        layers
    } else {
        let op_ms = if m.op_s.is_empty() {
            f64::NAN
        } else {
            stats::median(&m.op_s) * 1e3
        };
        vec![
            Metric::new("setup_s", m.setup_s, "s"),
            Metric::new("op_ms", op_ms, "ms"),
            Metric::new("items_per_s", m.items_per_s, "1/s"),
            Metric::new("peak_rss_mb", m.peak_rss_mb.unwrap_or(f64::NAN), "MiB"),
        ]
    };
    // JSON has no NaN: a metric that could not be measured fails the run
    // and prints as -1; an unmeasured reading is dropped.
    for metric in &mut metrics {
        if !metric.value.is_finite() {
            m.checks
                .check(false, || format!("{} was not measured", metric.name));
            metric.value = -1.0;
        }
    }
    m.info.retain(|i| i.value.is_finite());
    let mut notes = std::mem::take(&mut m.checks.notes);
    notes.extend(pinned.drift);
    Record {
        workload: workload.name().to_string(),
        seed,
        traced,
        result: RunResult {
            correct: m.checks.failed == 0,
            attempted: (m.ops + m.checks.attempted).max(1),
            failed: m.ops_failed + m.checks.failed,
            metrics,
        },
        info: m.info,
        work: m.work,
        notes,
        env: env_block(),
    }
}
