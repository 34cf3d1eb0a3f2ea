//! Cycle-level out-of-order superscalar simulator with a Wattch-style
//! energy model — the evaluation substrate of the reproduction.
//!
//! The paper's substrate is SimpleScalar + Wattch + Cacti. This crate
//! rebuilds the same stack from scratch:
//!
//! * [`pipeline`] — a trace-driven, cycle-level out-of-order core whose
//!   resources map one-to-one onto the 13 design-space parameters;
//! * [`cache`] / [`branch`] — set-associative caches, gshare + BTB;
//! * [`timing`] — Cacti-like structure latency/energy scaling;
//! * [`energy`] — Wattch-style event-based energy accounting;
//! * [`check`] — invariant sanitizer (`ARCHDSE_SANITIZE=1`, always on in
//!   debug builds) that validates occupancy, port, accounting and energy
//!   invariants during and after every run;
//! * [`oracle`] — an independent in-order reference model producing exact
//!   event counts and cycle/energy bounds for differential testing.
//!
//! The entry point is [`simulate`], which runs one benchmark trace on one
//! configuration and returns the paper's four target metrics normalised to
//! a 10 M-instruction phase (the paper's SimPoint interval length).
//!
//! # Examples
//!
//! ```
//! use dse_sim::{simulate, SimOptions};
//! use dse_space::Config;
//! use dse_workload::{Profile, Suite, TraceGenerator};
//!
//! let profile = Profile::template("demo", Suite::SpecCpu2000, 1);
//! let trace = TraceGenerator::new(&profile).generate(12_000);
//! let m = simulate(&Config::baseline(), &trace, SimOptions::with_warmup(2_000));
//! assert!(m.cycles > 0.0 && m.energy > 0.0);
//! assert!((m.ed - m.cycles * m.energy).abs() < 1e-3 * m.ed);
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod check;
pub mod energy;
pub mod obs;
pub mod oracle;
pub mod pipeline;
pub mod timing;

pub use check::CheckError;
pub use obs::{NoObs, SimObs, StageProf, StageTimes, StallProfile, StallReport};
pub use pipeline::{Pipeline, RunRecord, SimOptions, SimResult};

use dse_space::{Config, ConstantParams};
use dse_util::json::{FromJson, Json, JsonError, ToJson};
use dse_workload::Trace;

/// Number of instructions in the paper's reporting phase (one SimPoint
/// interval): all metrics are normalised to this length so that different
/// trace lengths and benchmarks are comparable, exactly as in Fig 4.
pub const PHASE_INSTRUCTIONS: f64 = 10_000_000.0;

/// The paper's four target metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Execution time in cycles (per 10 M-instruction phase).
    Cycles,
    /// Energy in nanojoules (per phase).
    Energy,
    /// Energy-delay product.
    Ed,
    /// Energy-delay-squared product (written "EDD" in the paper).
    Edd,
}

impl Metric {
    /// All four metrics in the paper's order.
    pub const ALL: [Metric; 4] = [Metric::Cycles, Metric::Energy, Metric::Ed, Metric::Edd];
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::Cycles => write!(f, "cycles"),
            Metric::Energy => write!(f, "energy"),
            Metric::Ed => write!(f, "ED"),
            Metric::Edd => write!(f, "EDD"),
        }
    }
}

/// The four target metrics of one simulation, normalised to a
/// 10 M-instruction phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Cycles per phase.
    pub cycles: f64,
    /// Energy per phase in nanojoules.
    pub energy: f64,
    /// Energy × delay.
    pub ed: f64,
    /// Energy × delay².
    pub edd: f64,
}

impl Metrics {
    /// Normalises a raw [`SimResult`] to the 10 M-instruction phase.
    ///
    /// # Panics
    ///
    /// Panics if the result measured zero instructions.
    pub fn from_result(r: &SimResult) -> Self {
        assert!(r.instructions > 0, "result has no measured instructions");
        let scale = PHASE_INSTRUCTIONS / r.instructions as f64;
        let cycles = r.cycles as f64 * scale;
        let energy = r.energy_nj * scale;
        Self {
            cycles,
            energy,
            ed: energy * cycles,
            edd: energy * cycles * cycles,
        }
    }

    /// Reads one metric by name.
    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::Cycles => self.cycles,
            Metric::Energy => self.energy,
            Metric::Ed => self.ed,
            Metric::Edd => self.edd,
        }
    }
}

impl ToJson for Metric {
    fn to_json(&self) -> Json {
        // Bare variant-name strings, matching serde's external tagging so
        // pre-existing cache files stay readable.
        let name = match self {
            Metric::Cycles => "Cycles",
            Metric::Energy => "Energy",
            Metric::Ed => "Ed",
            Metric::Edd => "Edd",
        };
        Json::Str(name.to_string())
    }
}

impl FromJson for Metric {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str()? {
            "Cycles" => Ok(Metric::Cycles),
            "Energy" => Ok(Metric::Energy),
            "Ed" => Ok(Metric::Ed),
            "Edd" => Ok(Metric::Edd),
            other => Err(JsonError::msg(format!("unknown metric `{other}`"))),
        }
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", self.cycles.to_json()),
            ("energy", self.energy.to_json()),
            ("ed", self.ed.to_json()),
            ("edd", self.edd.to_json()),
        ])
    }
}

impl FromJson for Metrics {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let m = Self {
            cycles: f64::from_json(v.field("cycles")?)?,
            energy: f64::from_json(v.field("energy")?)?,
            ed: f64::from_json(v.field("ed")?)?,
            edd: f64::from_json(v.field("edd")?)?,
        };
        if !(m.cycles.is_finite() && m.energy.is_finite() && m.ed.is_finite() && m.edd.is_finite())
        {
            return Err(JsonError::msg("metrics must be finite"));
        }
        Ok(m)
    }
}

impl ToJson for SimResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("instructions", self.instructions.to_json()),
            ("cycles", self.cycles.to_json()),
            ("energy_nj", self.energy_nj.to_json()),
            ("ipc", self.ipc.to_json()),
            ("l1i_miss_rate", self.l1i_miss_rate.to_json()),
            ("l1d_miss_rate", self.l1d_miss_rate.to_json()),
            ("l2_miss_rate", self.l2_miss_rate.to_json()),
            ("bpred_miss_rate", self.bpred_miss_rate.to_json()),
        ])
    }
}

impl FromJson for SimResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            instructions: u64::from_json(v.field("instructions")?)?,
            cycles: u64::from_json(v.field("cycles")?)?,
            energy_nj: f64::from_json(v.field("energy_nj")?)?,
            ipc: f64::from_json(v.field("ipc")?)?,
            l1i_miss_rate: f64::from_json(v.field("l1i_miss_rate")?)?,
            l1d_miss_rate: f64::from_json(v.field("l1d_miss_rate")?)?,
            l2_miss_rate: f64::from_json(v.field("l2_miss_rate")?)?,
            bpred_miss_rate: f64::from_json(v.field("bpred_miss_rate")?)?,
        })
    }
}

/// Simulates `trace` on `cfg` with the standard constant parameters and
/// returns phase-normalised metrics.
///
/// # Panics
///
/// Panics if `cfg` is illegal or the trace is not longer than the warm-up
/// (see [`Pipeline::new`]).
pub fn simulate(cfg: &Config, trace: &Trace, options: SimOptions) -> Metrics {
    let result = Pipeline::new(cfg, &ConstantParams::standard(), trace, options).run();
    record_run(&result);
    Metrics::from_result(&result)
}

/// Bumps the workspace-wide simulation counters for one finished run.
/// Handles are resolved once and cached; the per-run cost is three
/// sharded atomic adds.
fn record_run(result: &SimResult) {
    use dse_obs::registry::Counter;
    use std::sync::{Arc, OnceLock};
    static RUNS: OnceLock<Arc<Counter>> = OnceLock::new();
    static CYCLES: OnceLock<Arc<Counter>> = OnceLock::new();
    static INSTRS: OnceLock<Arc<Counter>> = OnceLock::new();
    RUNS.get_or_init(|| dse_obs::counter("dse_sim_runs_total"))
        .inc();
    CYCLES
        .get_or_init(|| dse_obs::counter("dse_sim_cycles_total"))
        .add(result.cycles);
    INSTRS
        .get_or_init(|| dse_obs::counter("dse_sim_instructions_total"))
        .add(result.instructions);
}

/// Like [`simulate`], but returns a sanitizer violation as an error
/// instead of panicking — the form dataset generation uses so a violation
/// inside a parallel sweep surfaces as a proper error.
pub fn try_simulate(
    cfg: &Config,
    trace: &Trace,
    options: SimOptions,
) -> Result<Metrics, CheckError> {
    let result = Pipeline::new(cfg, &ConstantParams::standard(), trace, options).try_run()?;
    record_run(&result);
    Ok(Metrics::from_result(&result))
}

/// Simulates and returns both the raw result and the normalised metrics.
pub fn simulate_detailed(cfg: &Config, trace: &Trace, options: SimOptions) -> (SimResult, Metrics) {
    let result = Pipeline::new(cfg, &ConstantParams::standard(), trace, options).run();
    record_run(&result);
    let metrics = Metrics::from_result(&result);
    (result, metrics)
}

/// Simulates with stall attribution enabled and returns the metrics plus
/// a [`StallReport`] saying where the cycles went (see [`obs`]).
///
/// The instrumented run produces metrics bit-identical to [`simulate`];
/// only the attribution is extra.
///
/// # Panics
///
/// Panics on an invariant violation, like [`simulate`].
pub fn simulate_profiled(
    cfg: &Config,
    trace: &Trace,
    options: SimOptions,
) -> (Metrics, StallReport) {
    let mut profile = StallProfile::default();
    let record = Pipeline::new(cfg, &ConstantParams::standard(), trace, options)
        .try_run_full_obs(&mut profile)
        .unwrap_or_else(|e| panic!("{e}"));
    record_run(&record.result);
    let metrics = Metrics::from_result(&record.result);
    (metrics, StallReport { profile, record })
}

/// Simulates with host-cycle stage timing enabled and returns the metrics
/// plus a [`StageProf`] attributing stepped-cycle wall time to the five
/// pipeline stages (see [`obs`]).
///
/// Metrics are bit-identical to [`simulate`]; the stage brackets read the
/// host clock around unmodified stage code. Shares are meaningful, raw
/// ticks vary with the host.
///
/// # Panics
///
/// Panics on an invariant violation, like [`simulate`].
pub fn simulate_stage_profiled(
    cfg: &Config,
    trace: &Trace,
    options: SimOptions,
) -> (Metrics, StageProf) {
    let mut prof = StageProf::default();
    let record = Pipeline::new(cfg, &ConstantParams::standard(), trace, options)
        .try_run_full_obs(&mut prof)
        .unwrap_or_else(|e| panic!("{e}"));
    record_run(&record.result);
    (Metrics::from_result(&record.result), prof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_workload::{Profile, Suite, TraceGenerator};

    fn demo_trace(len: usize) -> Trace {
        let p = Profile::template("demo", Suite::SpecCpu2000, 11);
        TraceGenerator::new(&p).generate(len)
    }

    #[test]
    fn metrics_are_consistent_products() {
        let t = demo_trace(10_000);
        let m = simulate(&Config::baseline(), &t, SimOptions::with_warmup(2_000));
        assert!((m.ed - m.cycles * m.energy).abs() <= 1e-9 * m.ed);
        assert!((m.edd - m.ed * m.cycles).abs() <= 1e-9 * m.edd);
    }

    #[test]
    fn phase_normalisation_scales_to_ten_million() {
        let t = demo_trace(10_000);
        let (r, m) = simulate_detailed(&Config::baseline(), &t, SimOptions::with_warmup(2_000));
        let expect = r.cycles as f64 * PHASE_INSTRUCTIONS / r.instructions as f64;
        assert!((m.cycles - expect).abs() < 1e-6);
        // A plausible CPI leaves phase cycles within [2e6, 1e10].
        assert!(m.cycles > 2e6 && m.cycles < 1e10, "cycles {}", m.cycles);
    }

    #[test]
    fn stage_profiled_metrics_are_bit_identical() {
        let t = demo_trace(10_000);
        let opts = SimOptions::with_warmup(2_000);
        let plain = simulate(&Config::baseline(), &t, opts);
        let (m, prof) = simulate_stage_profiled(&Config::baseline(), &t, opts);
        assert_eq!(plain, m, "stage brackets must not perturb results");
        assert!(prof.cycles_stepped > 0);
        assert!(prof.total_ticks() > 0, "clock reads accumulated nothing");
        // Stepped + skipped covers every simulated cycle after warm-up
        // completes; sanity-bound rather than pin exact idle split.
        assert!(prof.cycles_idle > 0, "demo trace should idle-skip");
    }

    #[test]
    fn metric_get_round_trips() {
        let m = Metrics {
            cycles: 1.0,
            energy: 2.0,
            ed: 2.0,
            edd: 2.0,
        };
        assert_eq!(m.get(Metric::Cycles), 1.0);
        assert_eq!(m.get(Metric::Energy), 2.0);
        assert_eq!(m.get(Metric::Ed), 2.0);
        assert_eq!(m.get(Metric::Edd), 2.0);
    }

    #[test]
    fn metric_display_names() {
        let names: Vec<String> = Metric::ALL.iter().map(|m| m.to_string()).collect();
        assert_eq!(names, vec!["cycles", "energy", "ED", "EDD"]);
    }

    #[test]
    fn different_configs_give_different_metrics() {
        let t = demo_trace(10_000);
        let base = simulate(&Config::baseline(), &t, SimOptions::with_warmup(2_000));
        let tiny = Config {
            width: 2,
            rob: 32,
            iq: 8,
            lsq: 8,
            rf: 40,
            rf_read: 4,
            rf_write: 2,
            bpred_k: 1,
            btb_k: 1,
            max_branches: 8,
            icache_kb: 8,
            dcache_kb: 8,
            l2_kb: 256,
        };
        assert!(tiny.is_legal());
        let small = simulate(&tiny, &t, SimOptions::with_warmup(2_000));
        assert!(small.cycles > base.cycles, "small machine must be slower");
    }
}
