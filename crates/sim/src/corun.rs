//! Shared-L2 co-run scenarios: two programs contending for one L2.
//!
//! The paper's response surfaces are all single-program. This module
//! opens a surface the architecture-centric method has never been tested
//! on: two programs co-scheduled on separate cores that share the L2
//! (and the memory bus behind it) — the classic multi-tenant
//! interference setup.
//!
//! # Model
//!
//! A true lockstep two-core simulation would couple the cores' clocks;
//! instead we use a deterministic two-pass *stream-injection* scheme
//! that keeps each lane's cycle-accurate model intact:
//!
//! 1. **Capture pass.** Each program runs solo with L2 stream capture
//!    armed ([`Pipeline::capture_l2_stream`]), recording its L1-filtered
//!    L2 address stream in issue order. Capture changes nothing: the
//!    solo metrics are bit-identical to a plain [`crate::simulate`].
//! 2. **Contention pass.** Each program re-runs with the *other*
//!    program's captured stream injected as an intruder
//!    ([`Pipeline::set_intruder`]): after every own L2 access the next
//!    intruder address (round-robin, wrapping) takes an L2 port slot and
//!    — on a miss — a memory-bus slot, and evicts into the shared L2.
//!    Intruder addresses are rebased into a disjoint region (bit 44 set)
//!    so the co-runner can only *pollute*, never prefetch for its
//!    neighbour — the two programs model separate address spaces.
//!
//! The 1:1 interleave approximates two cores with equal L2 demand rates;
//! honoring each lane's own L1 filtering means a cache-resident program
//! injects few intruder accesses and a streaming one injects many, which
//! is the first-order effect that matters. Everything is deterministic
//! and sanitizer-clean: own counters, miss rates and energy stay
//! own-only (intruder events are accounted separately), so every
//! invariant reconciliation still holds per lane.

use crate::pipeline::{Pipeline, SimOptions};
use crate::{record_metrics, CheckError, Metrics};
use dse_space::{Config, ConstantParams};
use dse_util::json::{Json, ToJson};
use dse_workload::Trace;

/// Disjoint-region rebase for intruder addresses: own traces address
/// well below 2^44, so setting bit 44 guarantees an intruder line never
/// matches an own line (pure pollution, no accidental sharing).
const INTRUDER_REGION: u64 = 1 << 44;

/// One program's view of a co-run: solo vs contended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorunLane {
    /// Phase-normalised metrics of the solo run.
    pub solo: Metrics,
    /// Phase-normalised metrics under L2 contention.
    pub contended: Metrics,
    /// Own L2 miss rate, solo.
    pub solo_l2_miss: f64,
    /// Own L2 miss rate under contention (pollution can only raise it).
    pub contended_l2_miss: f64,
}

impl CorunLane {
    /// Slowdown factor under contention (`contended.cycles /
    /// solo.cycles`; ≥ 1 up to rounding, since contention only delays).
    pub fn slowdown(&self) -> f64 {
        self.contended.cycles / self.solo.cycles
    }
}

impl ToJson for CorunLane {
    fn to_json(&self) -> Json {
        Json::obj([
            ("solo", self.solo.to_json()),
            ("contended", self.contended.to_json()),
            ("solo_l2_miss", self.solo_l2_miss.to_json()),
            ("contended_l2_miss", self.contended_l2_miss.to_json()),
            ("slowdown", self.slowdown().to_json()),
        ])
    }
}

/// Outcome of co-scheduling two programs through a shared L2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorunResult {
    /// First program's solo/contended view.
    pub a: CorunLane,
    /// Second program's solo/contended view.
    pub b: CorunLane,
}

impl ToJson for CorunResult {
    fn to_json(&self) -> Json {
        Json::obj([("a", self.a.to_json()), ("b", self.b.to_json())])
    }
}

/// Co-schedules `trace_a` and `trace_b` on `cfg` with a shared L2 and
/// returns each program's solo and contended metrics.
///
/// Runs four simulations (two capture, two contention passes); fully
/// deterministic for fixed inputs and independent of `ARCHDSE_THREADS`
/// (the passes run serially).
///
/// # Errors
///
/// Returns the first sanitizer violation when the checker is armed.
///
/// # Panics
///
/// Panics if either trace is empty, not longer than the warm-up, or the
/// configuration is illegal (see [`Pipeline::new`]).
pub fn simulate_corun(
    cfg: &Config,
    trace_a: &Trace,
    trace_b: &Trace,
    options: SimOptions,
) -> Result<CorunResult, CheckError> {
    let cons = ConstantParams::standard();
    let capture = |trace: &Trace| -> Result<_, CheckError> {
        let mut p = Pipeline::new(cfg, &cons, trace, options);
        p.capture_l2_stream();
        let (rec, stream) = p.try_run_full_captured()?;
        let metrics = record_metrics(&rec.result);
        Ok((metrics, rec.result.l2_miss_rate, stream))
    };
    let (solo_a, solo_a_l2, stream_a) = capture(trace_a)?;
    let (solo_b, solo_b_l2, stream_b) = capture(trace_b)?;

    let rebase = |stream: Vec<u64>| -> Vec<u64> {
        stream.into_iter().map(|a| a | INTRUDER_REGION).collect()
    };
    let contend = |trace: &Trace, intruder: Vec<u64>| -> Result<_, CheckError> {
        let mut p = Pipeline::new(cfg, &cons, trace, options);
        p.set_intruder(intruder);
        let rec = p.try_run_full()?;
        let metrics = record_metrics(&rec.result);
        Ok((metrics, rec.result.l2_miss_rate))
    };
    let (cont_a, cont_a_l2) = contend(trace_a, rebase(stream_b))?;
    let (cont_b, cont_b_l2) = contend(trace_b, rebase(stream_a))?;

    Ok(CorunResult {
        a: CorunLane {
            solo: solo_a,
            contended: cont_a,
            solo_l2_miss: solo_a_l2,
            contended_l2_miss: cont_a_l2,
        },
        b: CorunLane {
            solo: solo_b,
            contended: cont_b,
            solo_l2_miss: solo_b_l2,
            contended_l2_miss: cont_b_l2,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use dse_workload::{Profile, Suite, TraceGenerator};

    fn trace_of(name: &str) -> Trace {
        let p = dse_workload::suites::all_benchmarks()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap();
        TraceGenerator::new(&p).generate(12_000)
    }

    fn opts() -> SimOptions {
        SimOptions::with_warmup(2_000)
    }

    #[test]
    fn solo_lanes_match_plain_simulate_bit_exactly() {
        let (ta, tb) = (trace_of("gzip"), trace_of("mcf"));
        let r = simulate_corun(&Config::baseline(), &ta, &tb, opts()).unwrap();
        let plain_a = simulate(&Config::baseline(), &ta, opts());
        let plain_b = simulate(&Config::baseline(), &tb, opts());
        assert_eq!(r.a.solo, plain_a, "capture pass must not perturb A");
        assert_eq!(r.b.solo, plain_b, "capture pass must not perturb B");
    }

    #[test]
    fn contention_never_speeds_a_program_up() {
        let (ta, tb) = (trace_of("gzip"), trace_of("mcf"));
        let r = simulate_corun(&Config::baseline(), &ta, &tb, opts()).unwrap();
        assert!(r.a.slowdown() >= 1.0 - 1e-12, "a: {}", r.a.slowdown());
        assert!(r.b.slowdown() >= 1.0 - 1e-12, "b: {}", r.b.slowdown());
        // A memory-bound intruder (mcf) must visibly slow a cache-
        // friendly program's L2 story: pollution cannot lower misses.
        assert!(r.a.contended_l2_miss >= r.a.solo_l2_miss - 1e-12);
        assert!(r.b.contended_l2_miss >= r.b.solo_l2_miss - 1e-12);
    }

    #[test]
    fn corun_is_deterministic_and_sanitizer_clean() {
        let (ta, tb) = (trace_of("parser"), trace_of("art"));
        let sanitized = SimOptions {
            warmup: 2_000,
            sanitize: true,
        };
        let r1 = simulate_corun(&Config::baseline(), &ta, &tb, sanitized).unwrap();
        let r2 = simulate_corun(&Config::baseline(), &ta, &tb, sanitized).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn corun_with_self_is_symmetric() {
        let t = trace_of("gzip");
        let r = simulate_corun(&Config::baseline(), &t, &t, opts()).unwrap();
        assert_eq!(r.a, r.b);
    }

    #[test]
    fn memory_bound_pair_interferes_harder_than_cache_resident_pair() {
        let cold = simulate_corun(
            &Config::baseline(),
            &trace_of("mcf"),
            &trace_of("art"),
            opts(),
        )
        .unwrap();
        let warm = simulate_corun(
            &Config::baseline(),
            &trace_of("parser"),
            &trace_of("bitcount"),
            opts(),
        )
        .unwrap();
        let worst_cold = cold.a.slowdown().max(cold.b.slowdown());
        let worst_warm = warm.a.slowdown().max(warm.b.slowdown());
        assert!(
            worst_cold > worst_warm,
            "memory-bound pair {worst_cold} should exceed cache-resident pair {worst_warm}"
        );
    }

    #[test]
    fn profile_template_traces_generate_small_intruder_streams() {
        // A cache-resident program injects few L2 accesses: its stream
        // must be far shorter than the trace itself (L1 filtering).
        let p = Profile::template("t", Suite::SpecCpu2000, 7);
        let t = TraceGenerator::new(&p).generate(12_000);
        let mut pl = Pipeline::new(&Config::baseline(), &ConstantParams::standard(), &t, opts());
        pl.capture_l2_stream();
        let (_, stream) = pl.try_run_full_captured().unwrap();
        assert!(!stream.is_empty());
        assert!(
            stream.len() < t.len() / 2,
            "stream {} too big",
            stream.len()
        );
    }
}
