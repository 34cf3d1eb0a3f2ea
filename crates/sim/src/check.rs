//! Simulator sanitizer: microarchitectural invariant checking.
//!
//! Every `(config → metric)` point the ML layer learns from is produced by
//! this simulator, so a silent accounting bug poisons the whole
//! reproduction. The [`InvariantChecker`] is the trust anchor: wired into
//! the pipeline, cache, branch and energy layers, it re-derives structural
//! invariants every cycle and reconciles all cross-layer statistics at the
//! end of a run.
//!
//! Enablement policy (see [`sanitize_default`]):
//!
//! * `ARCHDSE_SANITIZE=1` forces the checker on (including release builds);
//! * `ARCHDSE_SANITIZE=0` forces it off (`true`/`false` work too, in any
//!   case; any other value panics, naming the variable);
//! * otherwise it is on in debug builds (so `cargo test` always runs
//!   sanitized) and off in release builds — zero-cost for benchmarks and
//!   dataset generation unless explicitly requested.
//!
//! Checked invariants:
//!
//! * **Commit order** — the ROB retires trace indices in strictly
//!   sequential order and only after their completion cycle has passed;
//! * **Occupancy** — ROB / IQ / LSQ / physical-register occupancy never
//!   exceeds the configured capacity, and every in-flight instruction is
//!   accounted for (fetched = committed + ROB + fetch queue);
//! * **Issue select** — the ready set's popcount equals its running
//!   length, which never exceeds the IQ occupancy; the oldest IQ entry
//!   waits on no producer (all are older, so issued or committed) and is
//!   in the ready set exactly when its ready time has come; at the end of
//!   a run the ready set and every dependant and wakeup list are empty;
//! * **Port grants** — register-file read and write port grants per cycle
//!   never exceed the configured port counts, and memory issues never
//!   exceed the cache ports;
//! * **Cache accounting** — per level, misses ≤ accesses, the pipeline's
//!   event counters agree with the caches' own counters, L1 misses equal
//!   L2 accesses, and L2 misses equal memory accesses;
//! * **Branch accounting** — mispredictions ≤ predictions and predictor
//!   lookups equal the branch count seen by fetch;
//! * **Energy reconciliation** — the per-structure energy breakdown sums
//!   to the reported total, and every component is finite and
//!   non-negative;
//! * **Completion** — the run retires exactly the trace length.

use std::sync::OnceLock;

/// A violated invariant: which check failed, when, and the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Cycle at which the violation was detected (0 for end-of-run checks).
    pub cycle: u64,
    /// Short stable name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable evidence (observed vs expected values).
    pub message: String,
}

impl CheckError {
    /// Builds an error for `invariant` at `cycle`.
    pub fn new(cycle: u64, invariant: &'static str, message: impl Into<String>) -> Self {
        Self {
            cycle,
            invariant,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sanitizer: invariant `{}` violated at cycle {}: {}",
            self.invariant, self.cycle, self.message
        )
    }
}

impl std::error::Error for CheckError {}

/// Environment variable overriding the sanitizer default.
const SANITIZE_ENV: &str = "ARCHDSE_SANITIZE";

/// Whether the sanitizer should be enabled by default for this process:
/// `ARCHDSE_SANITIZE=1` forces on, `=0` forces off, otherwise debug builds
/// (and therefore `cargo test`) sanitize and release builds do not.
///
/// # Panics
///
/// Panics, naming the variable and its value, when `ARCHDSE_SANITIZE` is
/// set to anything but `1`, `0`, `true` or `false` (any case).
pub fn sanitize_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var_os(SANITIZE_ENV) {
        Some(v) => parse_sanitize(&v.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")),
        None => cfg!(debug_assertions),
    })
}

/// Parses an `ARCHDSE_SANITIZE` value: `1`/`true` or `0`/`false` in any
/// case, surrounding whitespace allowed. The error names the variable and
/// the bad value.
fn parse_sanitize(value: &str) -> Result<bool, String> {
    let v = value.trim();
    if v == "1" || v.eq_ignore_ascii_case("true") {
        Ok(true)
    } else if v == "0" || v.eq_ignore_ascii_case("false") {
        Ok(false)
    } else {
        Err(format!(
            "{SANITIZE_ENV}={value:?} is not one of 1, 0, true, false"
        ))
    }
}

/// Occupancy snapshot of the pipeline's windowed structures for one cycle.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    /// Reorder-buffer entries in use.
    pub rob: usize,
    /// Issue-queue entries in use.
    pub iq: usize,
    /// Load/store-queue entries in use.
    pub lsq: u32,
    /// Physical (rename) registers in use.
    pub phys: u32,
    /// Fetch-queue entries in use.
    pub fetch_q: usize,
    /// Unresolved in-flight branches.
    pub branches: usize,
    /// Instructions fetched from the trace so far.
    pub fetched: usize,
    /// Instructions committed so far.
    pub committed: usize,
}

/// Capacity bounds the occupancy must respect (derived from the `Config`).
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// ROB capacity.
    pub rob: usize,
    /// IQ capacity.
    pub iq: usize,
    /// LSQ capacity.
    pub lsq: u32,
    /// Rename (non-architectural) register count.
    pub phys: u32,
    /// Fetch-queue capacity.
    pub fetch_q: usize,
    /// In-flight branch limit.
    pub branches: usize,
}

/// Cycle-by-cycle invariant checker. One instance lives for one pipeline
/// run; the pipeline only calls it when sanitizing is enabled, so the cost
/// when disabled is a skipped `Option` branch per hook.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    next_commit: usize,
}

impl InvariantChecker {
    /// Fresh checker for a new run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called for every retired instruction with its trace index and
    /// completion cycle. Enforces strictly sequential, post-completion
    /// commit.
    pub fn on_commit(&mut self, idx: usize, complete: u64, cycle: u64) -> Result<(), CheckError> {
        if idx != self.next_commit {
            return Err(CheckError::new(
                cycle,
                "commit-order",
                format!(
                    "retired trace index {idx} but expected {} (out-of-order or skipped commit)",
                    self.next_commit
                ),
            ));
        }
        if complete > cycle {
            return Err(CheckError::new(
                cycle,
                "commit-before-complete",
                format!("retired index {idx} completing at cycle {complete} > commit cycle"),
            ));
        }
        self.next_commit += 1;
        Ok(())
    }

    /// Called once per cycle with the current occupancy snapshot.
    pub fn on_cycle(&self, occ: &Occupancy, bounds: &Bounds, cycle: u64) -> Result<(), CheckError> {
        let fail = |invariant, msg: String| Err(CheckError::new(cycle, invariant, msg));
        if occ.rob > bounds.rob {
            return fail("rob-occupancy", format!("{} > {}", occ.rob, bounds.rob));
        }
        if occ.iq > bounds.iq {
            return fail("iq-occupancy", format!("{} > {}", occ.iq, bounds.iq));
        }
        if occ.lsq > bounds.lsq {
            return fail("lsq-occupancy", format!("{} > {}", occ.lsq, bounds.lsq));
        }
        if occ.phys > bounds.phys {
            return fail("rf-occupancy", format!("{} > {}", occ.phys, bounds.phys));
        }
        if occ.fetch_q > bounds.fetch_q {
            return fail(
                "fetchq-occupancy",
                format!("{} > {}", occ.fetch_q, bounds.fetch_q),
            );
        }
        if occ.branches > bounds.branches {
            return fail(
                "branch-limit",
                format!("{} > {}", occ.branches, bounds.branches),
            );
        }
        // Conservation: every fetched instruction is either committed,
        // waiting in the fetch queue, or live in the ROB.
        let accounted = occ.committed + occ.rob + occ.fetch_q;
        if occ.fetched != accounted {
            return fail(
                "inflight-conservation",
                format!(
                    "fetched {} != committed {} + rob {} + fetch_q {}",
                    occ.fetched, occ.committed, occ.rob, occ.fetch_q
                ),
            );
        }
        Ok(())
    }

    /// Called once per cycle with the issue-select state: the ready set's
    /// popcount and running length, the IQ occupancy, and the oldest IQ
    /// entry as `(trace position, pending producers, in the ready set,
    /// ready time)`. A lost wakeup (a producer issued without releasing
    /// its dependant) or a lost or premature ready-set insertion shows up
    /// at the oldest entry, which every such entry eventually becomes.
    pub fn on_select(
        &self,
        cycle: u64,
        ready_popcount: usize,
        ready_len: usize,
        iq: usize,
        oldest: Option<(usize, u8, bool, u64)>,
    ) -> Result<(), CheckError> {
        let fail = |invariant, msg: String| Err(CheckError::new(cycle, invariant, msg));
        if ready_popcount != ready_len {
            return fail(
                "ready-set-length",
                format!("{ready_popcount} bits set, length {ready_len}"),
            );
        }
        if ready_len > iq {
            return fail(
                "ready-set-occupancy",
                format!("{ready_len} ready > {iq} in the IQ"),
            );
        }
        let Some((idx, pending, in_ready_set, ready_at)) = oldest else {
            return Ok(());
        };
        if pending != 0 {
            return fail(
                "lost-wakeup",
                format!("oldest IQ entry {idx} still waits on {pending} producer(s)"),
            );
        }
        if in_ready_set != (ready_at <= cycle) {
            let is = if in_ready_set { "in" } else { "not in" };
            return fail(
                "ready-set-membership",
                format!("oldest IQ entry {idx} ready at {ready_at} but {is} the ready set"),
            );
        }
        Ok(())
    }

    /// Called at the end of each issue select with the port grants used.
    pub fn on_issue(
        &self,
        rf_reads: u32,
        rf_read_ports: u32,
        mem_issues: u32,
        mem_ports: u32,
        cycle: u64,
    ) -> Result<(), CheckError> {
        if rf_reads > rf_read_ports {
            return Err(CheckError::new(
                cycle,
                "rf-read-ports",
                format!("granted {rf_reads} reads with {rf_read_ports} ports"),
            ));
        }
        if mem_issues > mem_ports {
            return Err(CheckError::new(
                cycle,
                "cache-ports",
                format!("issued {mem_issues} memory ops with {mem_ports} cache ports"),
            ));
        }
        Ok(())
    }

    /// Called when a write-back port slot is granted: the slot's grant
    /// count after reservation must not exceed the write-port count.
    pub fn on_writeback_grant(
        &self,
        grants: u32,
        rf_write_ports: u32,
        cycle: u64,
    ) -> Result<(), CheckError> {
        if grants > rf_write_ports {
            return Err(CheckError::new(
                cycle,
                "rf-write-ports",
                format!("granted {grants} writes with {rf_write_ports} ports"),
            ));
        }
        Ok(())
    }

    /// Number of instructions the checker has seen retire.
    pub fn committed(&self) -> usize {
        self.next_commit
    }

    /// End-of-run check: the run must have retired exactly `trace_len`
    /// instructions.
    pub fn on_finish(&self, trace_len: usize) -> Result<(), CheckError> {
        if self.next_commit != trace_len {
            return Err(CheckError::new(
                0,
                "commit-count",
                format!(
                    "retired {} of {} trace instructions",
                    self.next_commit, trace_len
                ),
            ));
        }
        Ok(())
    }
}

/// Reconciles two counts that must be exactly equal, as an end-of-run
/// cross-layer check (e.g. the pipeline's L2 event counter against the L2
/// cache's own access counter).
pub fn reconcile(invariant: &'static str, observed: u64, expected: u64) -> Result<(), CheckError> {
    if observed != expected {
        return Err(CheckError::new(
            0,
            invariant,
            format!("observed {observed}, expected {expected}"),
        ));
    }
    Ok(())
}

/// End-of-run energy reconciliation: every per-structure component must be
/// finite and non-negative, and the breakdown must sum to the reported
/// total within floating-point tolerance.
pub fn check_energy(
    counters: &crate::energy::EnergyCounters,
    model: &crate::energy::EnergyModel,
) -> Result<(), CheckError> {
    let mut sum = 0.0;
    for (name, e) in counters.components_nj(model) {
        if !e.is_finite() || e < 0.0 {
            return Err(CheckError::new(
                0,
                "energy-component",
                format!("component `{name}` is {e} nJ (must be finite and non-negative)"),
            ));
        }
        sum += e;
    }
    let total = counters.total_nj(model);
    let tol = 1e-9 * total.abs().max(1.0);
    if (sum - total).abs() > tol {
        return Err(CheckError::new(
            0,
            "energy-total",
            format!("breakdown sums to {sum} nJ but total is {total} nJ"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Bounds {
        Bounds {
            rob: 96,
            iq: 32,
            lsq: 48,
            phys: 64,
            fetch_q: 16,
            branches: 16,
        }
    }

    fn occ() -> Occupancy {
        Occupancy {
            rob: 10,
            iq: 5,
            lsq: 3,
            phys: 8,
            fetch_q: 4,
            branches: 2,
            fetched: 34,
            committed: 20,
        }
    }

    #[test]
    fn parse_sanitize_accepts_on_off_spellings_only() {
        for on in ["1", "true", "TRUE", " True\n"] {
            assert_eq!(parse_sanitize(on), Ok(true), "{on:?}");
        }
        for off in ["0", "false", "False", "\t0 "] {
            assert_eq!(parse_sanitize(off), Ok(false), "{off:?}");
        }
        for bad in ["on", "off", "", "yes", "2", "1 0"] {
            let err = parse_sanitize(bad).unwrap_err();
            assert!(
                err.contains(SANITIZE_ENV) && err.contains(&format!("{bad:?}")),
                "error for {bad:?} must name the variable and value: {err}"
            );
        }
    }

    #[test]
    fn sequential_commit_passes() {
        let mut c = InvariantChecker::new();
        for i in 0..10 {
            c.on_commit(i, i as u64, 100).unwrap();
        }
        assert_eq!(c.committed(), 10);
        c.on_finish(10).unwrap();
    }

    #[test]
    fn skipped_commit_is_caught() {
        let mut c = InvariantChecker::new();
        c.on_commit(0, 1, 10).unwrap();
        let e = c.on_commit(2, 1, 10).unwrap_err();
        assert_eq!(e.invariant, "commit-order");
        assert!(e.message.contains("expected 1"));
    }

    #[test]
    fn commit_before_completion_is_caught() {
        let mut c = InvariantChecker::new();
        let e = c.on_commit(0, 50, 10).unwrap_err();
        assert_eq!(e.invariant, "commit-before-complete");
    }

    #[test]
    fn occupancy_within_bounds_passes() {
        InvariantChecker::new()
            .on_cycle(&occ(), &bounds(), 7)
            .unwrap();
    }

    #[test]
    fn rob_overflow_is_caught() {
        let mut o = occ();
        o.rob = 97;
        // Keep conservation satisfied so the capacity check is what fires.
        o.fetched = o.committed + o.rob + o.fetch_q;
        let e = InvariantChecker::new()
            .on_cycle(&o, &bounds(), 7)
            .unwrap_err();
        assert_eq!(e.invariant, "rob-occupancy");
    }

    #[test]
    fn leaked_instruction_is_caught() {
        let mut o = occ();
        o.fetched += 1; // one fetched instruction is in no structure
        let e = InvariantChecker::new()
            .on_cycle(&o, &bounds(), 9)
            .unwrap_err();
        assert_eq!(e.invariant, "inflight-conservation");
    }

    #[test]
    fn port_overgrant_is_caught() {
        let c = InvariantChecker::new();
        assert!(c.on_issue(8, 8, 2, 2, 1).is_ok());
        assert_eq!(
            c.on_issue(9, 8, 0, 2, 1).unwrap_err().invariant,
            "rf-read-ports"
        );
        assert_eq!(
            c.on_issue(0, 8, 3, 2, 1).unwrap_err().invariant,
            "cache-ports"
        );
        assert_eq!(
            c.on_writeback_grant(5, 4, 1).unwrap_err().invariant,
            "rf-write-ports"
        );
    }

    #[test]
    fn select_invariants_catch_each_corruption() {
        let c = InvariantChecker::new();
        let ready = Some((7, 0, true, 10));
        let waiting = Some((7, 0, false, 11));
        assert!(c.on_select(10, 2, 2, 4, ready).is_ok());
        assert!(c.on_select(10, 0, 0, 4, waiting).is_ok());
        assert!(c.on_select(10, 0, 0, 0, None).is_ok());
        for ((pop, len, oldest), invariant) in [
            ((2, 3, ready), "ready-set-length"),
            ((5, 5, ready), "ready-set-occupancy"),
            ((0, 0, Some((7, 1, false, 11))), "lost-wakeup"),
            ((0, 0, Some((7, 0, false, 10))), "ready-set-membership"),
            ((1, 1, Some((7, 0, true, 11))), "ready-set-membership"),
        ] {
            let e = c.on_select(10, pop, len, 4, oldest).unwrap_err();
            assert_eq!(e.invariant, invariant);
        }
    }

    #[test]
    fn short_retirement_is_caught() {
        let mut c = InvariantChecker::new();
        c.on_commit(0, 0, 1).unwrap();
        let e = c.on_finish(2).unwrap_err();
        assert_eq!(e.invariant, "commit-count");
        assert!(e.message.contains("1 of 2"));
    }

    #[test]
    fn reconcile_reports_both_values() {
        assert!(reconcile("x", 5, 5).is_ok());
        let e = reconcile("l2-accesses", 7, 9).unwrap_err();
        assert!(e.message.contains('7') && e.message.contains('9'));
    }

    #[test]
    fn error_display_names_the_invariant() {
        let e = CheckError::new(42, "rob-occupancy", "97 > 96");
        let s = e.to_string();
        assert!(s.contains("rob-occupancy") && s.contains("42") && s.contains("97 > 96"));
    }

    #[test]
    fn energy_check_accepts_a_healthy_model() {
        let cfg = dse_space::Config::baseline();
        let model = crate::energy::EnergyModel::new(&cfg, &dse_space::ConstantParams::standard());
        let counters = crate::energy::EnergyCounters {
            fetched: 100,
            cycles: 80,
            rf_reads: 150,
            fu_ops: [90, 4, 4, 2],
            ..Default::default()
        };
        check_energy(&counters, &model).unwrap();
    }

    /// In-repo mutation evidence: corrupting the energy model the way an
    /// accounting bug would (a NaN creeping into a per-event energy, or a
    /// negative leakage) is caught by the reconciliation pass.
    #[test]
    fn corrupted_energy_model_is_caught() {
        let cfg = dse_space::Config::baseline();
        let cons = dse_space::ConstantParams::standard();
        let counters = crate::energy::EnergyCounters {
            fetched: 100,
            cycles: 80,
            ..Default::default()
        };

        let mut nan_model = crate::energy::EnergyModel::new(&cfg, &cons);
        nan_model.fetch_decode = f64::NAN;
        let e = check_energy(&counters, &nan_model).unwrap_err();
        assert_eq!(e.invariant, "energy-component");
        assert!(e.message.contains("fetch-decode"));

        let mut neg_model = crate::energy::EnergyModel::new(&cfg, &cons);
        neg_model.leakage_per_cycle = -0.5;
        let e = check_energy(&counters, &neg_model).unwrap_err();
        assert_eq!(e.invariant, "energy-component");
        assert!(e.message.contains("leakage"));
    }
}
