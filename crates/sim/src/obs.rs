//! Per-stage stall and occupancy attribution for [`crate::Pipeline`].
//!
//! The run loop is generic over a [`SimObs`] observer. The default
//! observer, [`NoObs`], has `ENABLED = false`: every hook sits behind an
//! `if O::ENABLED` that the compiler resolves at monomorphisation time,
//! so the un-instrumented hot loop compiles to exactly the code it was
//! before this module existed — bit-identical results, zero cost
//! (pinned by `tests/golden_sim.rs`).
//!
//! [`StallProfile`] is the real observer: it classifies every stepped
//! cycle by what kept each stage from making progress and tracks
//! high-water occupancies. The taxonomy leans on the stage order inside
//! one cycle (commit → issue → dispatch → fetch): when a stage moved
//! nothing, the end-of-cycle occupancies *are* the occupancies it saw,
//! because no later stage mutates the structures it was blocked on.
//!
//! A finished profile pairs with the run's [`crate::RunRecord`] as a
//! [`StallReport`] — the answer to "where did config X's cycles go".

use crate::check::{Bounds, Occupancy};
use crate::pipeline::RunRecord;
use dse_util::json::{Json, ToJson};

/// What the pipeline did in one stepped (non-skipped) cycle.
#[derive(Debug, Clone)]
pub struct CycleObs {
    /// Instructions committed this cycle.
    pub committed: u32,
    /// Instructions issued this cycle.
    pub issued: u32,
    /// Instructions dispatched (renamed) this cycle.
    pub dispatched: u32,
    /// Instructions fetched this cycle.
    pub fetched: u32,
    /// The ROB was empty when commit ran.
    pub rob_was_empty: bool,
    /// The fetch queue was empty when dispatch ran.
    pub fetch_q_was_empty: bool,
    /// Fetch is redirect-blocked on an unresolved mispredicted branch.
    pub fetch_blocked_mispredict: bool,
    /// Fetch is serving an I-cache miss (`fetch_stall_until` in the
    /// future).
    pub fetch_icache_stall: bool,
    /// The whole trace has been fetched.
    pub trace_exhausted: bool,
    /// End-of-cycle structure occupancies.
    pub occ: Occupancy,
    /// Capacity bounds of this configuration.
    pub bounds: Bounds,
}

/// Host-time cost of each pipeline stage over one stepped cycle, in
/// [`stage_clock`] ticks (TSC reference cycles on x86-64, nanoseconds on
/// the portable fallback). `issue` excludes the writeback-port
/// reservation, which is reported separately as `writeback`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageTimes {
    /// Ticks spent in the commit stage.
    pub commit: u64,
    /// Ticks spent in the issue stage (wakeup-wheel drain, ready-set
    /// select, structural hazards, execute latency, dependant wakeup),
    /// minus the writeback portion.
    pub issue: u64,
    /// Ticks spent reserving register-file write ports (the writeback
    /// sub-stage that runs inside issue).
    pub writeback: u64,
    /// Ticks spent in the dispatch (rename) stage.
    pub dispatch: u64,
    /// Ticks spent in the fetch stage.
    pub fetch: u64,
}

/// Reads the stage-timing clock: the TSC on x86-64 (one `rdtsc`, ~20
/// host cycles), monotonic nanoseconds elsewhere. Only meaningful as
/// differences between two reads on the same thread.
#[inline(always)]
pub fn stage_clock() -> u64 {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        use std::time::Instant;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// [`stage_clock`] when `O` attributes stage time, else 0: one stage
/// bracket, compiled away with the rest when [`SimObs::STAGE_TIMING`] is
/// false.
#[inline(always)]
pub(crate) fn stage_stamp<O: SimObs>() -> u64 {
    if O::STAGE_TIMING {
        stage_clock()
    } else {
        0
    }
}

/// Observer of pipeline execution. The run loop calls the hooks only
/// when `ENABLED` is true, and the check is a monomorphised constant —
/// an observer with `ENABLED = false` costs nothing at all.
pub trait SimObs {
    /// Compile-time switch; hooks are never called when false.
    const ENABLED: bool = true;

    /// Compile-time switch for per-stage host-time attribution: when
    /// true the run loop brackets every stage call with
    /// [`stage_clock`] reads and reports the deltas through
    /// [`SimObs::on_stage_times`]. Off by default — like `ENABLED`,
    /// the brackets are monomorphised away entirely when false, so the
    /// default and stall-profiled paths compile unchanged.
    const STAGE_TIMING: bool = false;

    /// One stepped cycle finished with this outcome.
    fn on_cycle(&mut self, c: &CycleObs);

    /// The idle fast-forward skipped `skipped` provably-inert cycles.
    fn on_idle(&mut self, skipped: u64);

    /// Host-time attribution for one stepped cycle (only called when
    /// [`SimObs::STAGE_TIMING`] is true).
    #[inline]
    fn on_stage_times(&mut self, _t: &StageTimes) {}
}

/// The do-nothing observer ([`crate::Pipeline::try_run_full`] uses it).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoObs;

impl SimObs for NoObs {
    const ENABLED: bool = false;

    #[inline]
    fn on_cycle(&mut self, _c: &CycleObs) {}

    #[inline]
    fn on_idle(&mut self, _skipped: u64) {}
}

/// Two observers of one run, e.g. a [`StallProfile`] and a
/// [`StageProf`]: cycle and stage-time hooks reach the observers that
/// enable them, and both see every idle skip.
impl<A: SimObs, B: SimObs> SimObs for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const STAGE_TIMING: bool = A::STAGE_TIMING || B::STAGE_TIMING;

    fn on_cycle(&mut self, c: &CycleObs) {
        if A::ENABLED {
            self.0.on_cycle(c);
        }
        if B::ENABLED {
            self.1.on_cycle(c);
        }
    }

    fn on_idle(&mut self, skipped: u64) {
        self.0.on_idle(skipped);
        self.1.on_idle(skipped);
    }

    fn on_stage_times(&mut self, t: &StageTimes) {
        if A::STAGE_TIMING {
            self.0.on_stage_times(t);
        }
        if B::STAGE_TIMING {
            self.1.on_stage_times(t);
        }
    }
}

/// Cycle-by-cycle stall attribution over a whole run (warm-up included).
///
/// Every stepped cycle lands in exactly one commit-outcome bucket:
/// `cycles_with_commit`, `commit_stall_rob_empty`, or
/// `commit_stall_head_wait` — so
/// `cycles_stepped == cycles_with_commit + commit_stall_rob_empty +
/// commit_stall_head_wait` always holds, and
/// `cycles_stepped + cycles_idle` is the run's total cycle count.
/// Dispatch and fetch stalls are attributed first-match in the order the
/// hardware would hit them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StallProfile {
    /// Cycles the pipeline actually stepped.
    pub cycles_stepped: u64,
    /// Cycles proven inert and skipped by the event-driven fast-forward.
    pub cycles_idle: u64,
    /// Instructions committed.
    pub instructions: u64,
    /// Stepped cycles in which at least one instruction committed.
    pub cycles_with_commit: u64,
    /// Commit stalled because the ROB was empty (front-end starvation).
    pub commit_stall_rob_empty: u64,
    /// Commit stalled waiting on the ROB head's completion.
    pub commit_stall_head_wait: u64,
    /// Dispatch idled because the fetch queue was empty.
    pub dispatch_stall_upstream: u64,
    /// Dispatch blocked on a full ROB.
    pub dispatch_stall_rob_full: u64,
    /// Dispatch blocked on a full issue queue.
    pub dispatch_stall_iq_full: u64,
    /// Dispatch blocked on a full load/store queue.
    pub dispatch_stall_lsq_full: u64,
    /// Dispatch blocked on rename-register exhaustion.
    pub dispatch_stall_regs_full: u64,
    /// Fetch blocked on an unresolved mispredicted branch.
    pub fetch_stall_mispredict: u64,
    /// Fetch serving an I-cache miss.
    pub fetch_stall_icache: u64,
    /// Fetch blocked on a full fetch queue.
    pub fetch_stall_queue_full: u64,
    /// Fetch held at a branch by the in-flight branch limit.
    pub fetch_stall_branch_limit: u64,
    /// Fetch idle because the trace is fully fetched (drain phase).
    pub fetch_drained: u64,
    /// High-water ROB occupancy.
    pub hw_rob: usize,
    /// High-water issue-queue occupancy.
    pub hw_iq: usize,
    /// High-water load/store-queue occupancy.
    pub hw_lsq: u32,
    /// High-water rename-register usage.
    pub hw_phys: u32,
    /// High-water fetch-queue occupancy.
    pub hw_fetch_q: usize,
    /// High-water unresolved-branch count.
    pub hw_branches: usize,
}

impl StallProfile {
    /// Total run cycles: stepped plus idle-skipped.
    pub fn total_cycles(&self) -> u64 {
        self.cycles_stepped + self.cycles_idle
    }
}

impl SimObs for StallProfile {
    fn on_cycle(&mut self, c: &CycleObs) {
        self.cycles_stepped += 1;
        self.instructions += c.committed as u64;

        if c.committed > 0 {
            self.cycles_with_commit += 1;
        } else if c.rob_was_empty {
            self.commit_stall_rob_empty += 1;
        } else {
            self.commit_stall_head_wait += 1;
        }

        // Dispatch moved nothing: the structures it checks (ROB, IQ,
        // LSQ, registers) are untouched by the later fetch stage, so the
        // end-of-cycle occupancies are the ones that blocked it.
        if c.dispatched == 0 {
            if c.fetch_q_was_empty {
                self.dispatch_stall_upstream += 1;
            } else if c.occ.rob >= c.bounds.rob {
                self.dispatch_stall_rob_full += 1;
            } else if c.occ.iq >= c.bounds.iq {
                self.dispatch_stall_iq_full += 1;
            } else if c.occ.lsq >= c.bounds.lsq {
                self.dispatch_stall_lsq_full += 1;
            } else if c.occ.phys >= c.bounds.phys {
                self.dispatch_stall_regs_full += 1;
            }
        }

        if c.fetched == 0 {
            if c.fetch_blocked_mispredict {
                self.fetch_stall_mispredict += 1;
            } else if c.fetch_icache_stall {
                self.fetch_stall_icache += 1;
            } else if c.trace_exhausted {
                self.fetch_drained += 1;
            } else if c.occ.fetch_q >= c.bounds.fetch_q {
                self.fetch_stall_queue_full += 1;
            } else if c.occ.branches >= c.bounds.branches {
                self.fetch_stall_branch_limit += 1;
            }
        }

        self.hw_rob = self.hw_rob.max(c.occ.rob);
        self.hw_iq = self.hw_iq.max(c.occ.iq);
        self.hw_lsq = self.hw_lsq.max(c.occ.lsq);
        self.hw_phys = self.hw_phys.max(c.occ.phys);
        self.hw_fetch_q = self.hw_fetch_q.max(c.occ.fetch_q);
        self.hw_branches = self.hw_branches.max(c.occ.branches);
    }

    fn on_idle(&mut self, skipped: u64) {
        self.cycles_idle += skipped;
    }
}

/// Per-stage host-cycle-time attribution over a run: where the
/// *simulator's* wall time goes, stage by stage — the measurement that
/// decides which pipeline stage is worth optimising.
///
/// `ENABLED` is false so the per-cycle [`CycleObs`] snapshot is never
/// built: the stage brackets time exactly the un-instrumented stage
/// code, perturbed only by one [`stage_clock`] read per stage boundary
/// (plus one pair around each writeback-port reservation).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageProf {
    /// Cycles the pipeline actually stepped (timed cycles).
    pub cycles_stepped: u64,
    /// Cycles proven inert and skipped by the fast-forward (not timed).
    pub cycles_idle: u64,
    /// Accumulated per-stage ticks.
    pub ticks: StageTimes,
}

impl StageProf {
    /// Total ticks attributed across all five stages.
    pub fn total_ticks(&self) -> u64 {
        let t = &self.ticks;
        t.commit + t.issue + t.writeback + t.dispatch + t.fetch
    }

    /// One stage's share of the total attributed stage time, in [0, 1].
    pub fn share(&self, ticks: u64) -> f64 {
        ticks as f64 / self.total_ticks().max(1) as f64
    }

    /// Folds another run's profile into this one — how callers that
    /// repeat a simulation aggregate its profiles.
    pub fn merge(&mut self, other: &StageProf) {
        self.cycles_stepped += other.cycles_stepped;
        self.cycles_idle += other.cycles_idle;
        self.ticks.commit += other.ticks.commit;
        self.ticks.issue += other.ticks.issue;
        self.ticks.writeback += other.ticks.writeback;
        self.ticks.dispatch += other.ticks.dispatch;
        self.ticks.fetch += other.ticks.fetch;
    }

    /// Renders the profile as aligned human-readable text.
    pub fn pretty(&self) -> String {
        let t = &self.ticks;
        let rows = [
            ("issue", t.issue),
            ("fetch", t.fetch),
            ("dispatch", t.dispatch),
            ("commit", t.commit),
            ("writeback", t.writeback),
        ];
        let mut out = format!(
            "stage time over {} stepped cycles ({} idle-skipped):\n",
            self.cycles_stepped, self.cycles_idle
        );
        for (name, ticks) in rows {
            out.push_str(&format!(
                "  {name:<9} {:>6.1}%  ({ticks} ticks)\n",
                100.0 * self.share(ticks)
            ));
        }
        out
    }
}

impl SimObs for StageProf {
    const ENABLED: bool = false;
    const STAGE_TIMING: bool = true;

    #[inline]
    fn on_cycle(&mut self, _c: &CycleObs) {}

    #[inline]
    fn on_idle(&mut self, skipped: u64) {
        self.cycles_idle += skipped;
    }

    #[inline]
    fn on_stage_times(&mut self, t: &StageTimes) {
        self.cycles_stepped += 1;
        self.ticks.commit += t.commit;
        self.ticks.issue += t.issue;
        self.ticks.writeback += t.writeback;
        self.ticks.dispatch += t.dispatch;
        self.ticks.fetch += t.fetch;
    }
}

impl ToJson for StageProf {
    fn to_json(&self) -> Json {
        let t = &self.ticks;
        let stage = |ticks: u64| {
            Json::obj([
                ("ticks", ticks.to_json()),
                ("share", self.share(ticks).to_json()),
            ])
        };
        Json::obj([
            ("cycles_stepped", self.cycles_stepped.to_json()),
            ("cycles_idle", self.cycles_idle.to_json()),
            ("total_ticks", self.total_ticks().to_json()),
            ("commit", stage(t.commit)),
            ("issue", stage(t.issue)),
            ("writeback", stage(t.writeback)),
            ("dispatch", stage(t.dispatch)),
            ("fetch", stage(t.fetch)),
        ])
    }
}

/// A [`StallProfile`] paired with the run it profiled.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Cycle-level attribution (full run, warm-up included).
    pub profile: StallProfile,
    /// The run's result, measured counters, and energy model.
    pub record: RunRecord,
}

impl StallReport {
    /// Renders the report as aligned human-readable text.
    pub fn pretty(&self) -> String {
        let p = &self.profile;
        let total = p.total_cycles().max(1) as f64;
        let pct = |v: u64| 100.0 * v as f64 / total;
        let r = &self.record.result;
        let c = &self.record.counters;
        let mut out = String::new();
        out.push_str(&format!(
            "cycles {} (stepped {} = {:.1}%, idle-skipped {} = {:.1}%)\n",
            p.total_cycles(),
            p.cycles_stepped,
            pct(p.cycles_stepped),
            p.cycles_idle,
            pct(p.cycles_idle),
        ));
        out.push_str(&format!(
            "instructions {}  ipc {:.3}  energy {:.1} nJ\n",
            p.instructions, r.ipc, r.energy_nj
        ));
        out.push_str("commit:   ");
        out.push_str(&format!(
            "progress {:.1}%  rob-empty {:.1}%  head-wait {:.1}%\n",
            pct(p.cycles_with_commit),
            pct(p.commit_stall_rob_empty),
            pct(p.commit_stall_head_wait),
        ));
        out.push_str("dispatch: ");
        out.push_str(&format!(
            "upstream {:.1}%  rob-full {:.1}%  iq-full {:.1}%  lsq-full {:.1}%  regs-full {:.1}%\n",
            pct(p.dispatch_stall_upstream),
            pct(p.dispatch_stall_rob_full),
            pct(p.dispatch_stall_iq_full),
            pct(p.dispatch_stall_lsq_full),
            pct(p.dispatch_stall_regs_full),
        ));
        out.push_str("fetch:    ");
        out.push_str(&format!(
            "mispredict {:.1}%  icache {:.1}%  queue-full {:.1}%  branch-limit {:.1}%  drained {:.1}%\n",
            pct(p.fetch_stall_mispredict),
            pct(p.fetch_stall_icache),
            pct(p.fetch_stall_queue_full),
            pct(p.fetch_stall_branch_limit),
            pct(p.fetch_drained),
        ));
        out.push_str(&format!(
            "high-water: rob {}  iq {}  lsq {}  regs {}  fetch-q {}  branches {}\n",
            p.hw_rob, p.hw_iq, p.hw_lsq, p.hw_phys, p.hw_fetch_q, p.hw_branches
        ));
        out.push_str(&format!(
            "events: l1i-miss {:.4}  l1d-miss {:.4}  l2-miss {:.4}  bpred-miss {:.4}  mem-accesses {}\n",
            r.l1i_miss_rate, r.l1d_miss_rate, r.l2_miss_rate, r.bpred_miss_rate, c.memory_accesses
        ));
        out
    }
}

impl ToJson for StallProfile {
    fn to_json(&self) -> Json {
        let fields: [(&str, u64); 22] = [
            ("cycles_stepped", self.cycles_stepped),
            ("cycles_idle", self.cycles_idle),
            ("instructions", self.instructions),
            ("cycles_with_commit", self.cycles_with_commit),
            ("commit_stall_rob_empty", self.commit_stall_rob_empty),
            ("commit_stall_head_wait", self.commit_stall_head_wait),
            ("dispatch_stall_upstream", self.dispatch_stall_upstream),
            ("dispatch_stall_rob_full", self.dispatch_stall_rob_full),
            ("dispatch_stall_iq_full", self.dispatch_stall_iq_full),
            ("dispatch_stall_lsq_full", self.dispatch_stall_lsq_full),
            ("dispatch_stall_regs_full", self.dispatch_stall_regs_full),
            ("fetch_stall_mispredict", self.fetch_stall_mispredict),
            ("fetch_stall_icache", self.fetch_stall_icache),
            ("fetch_stall_queue_full", self.fetch_stall_queue_full),
            ("fetch_stall_branch_limit", self.fetch_stall_branch_limit),
            ("fetch_drained", self.fetch_drained),
            ("hw_rob", self.hw_rob as u64),
            ("hw_iq", self.hw_iq as u64),
            ("hw_lsq", self.hw_lsq as u64),
            ("hw_phys", self.hw_phys as u64),
            ("hw_fetch_q", self.hw_fetch_q as u64),
            ("hw_branches", self.hw_branches as u64),
        ];
        Json::obj(fields.map(|(k, v)| (k, v.to_json())))
    }
}

impl ToJson for StallReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("profile", self.profile.to_json()),
            ("result", self.record.result.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{Bounds, Occupancy};

    fn cycle(committed: u32, dispatched: u32, fetched: u32) -> CycleObs {
        CycleObs {
            committed,
            issued: committed,
            dispatched,
            fetched,
            rob_was_empty: false,
            fetch_q_was_empty: false,
            fetch_blocked_mispredict: false,
            fetch_icache_stall: false,
            trace_exhausted: false,
            occ: Occupancy {
                rob: 4,
                iq: 2,
                lsq: 1,
                phys: 8,
                fetch_q: 3,
                branches: 1,
                fetched: 10,
                committed: 6,
            },
            bounds: Bounds {
                rob: 32,
                iq: 8,
                lsq: 8,
                phys: 40,
                fetch_q: 12,
                branches: 8,
            },
        }
    }

    #[test]
    fn commit_buckets_partition_stepped_cycles() {
        let mut p = StallProfile::default();
        p.on_cycle(&cycle(2, 2, 2));
        let mut empty = cycle(0, 0, 0);
        empty.rob_was_empty = true;
        empty.fetch_q_was_empty = true;
        p.on_cycle(&empty);
        p.on_cycle(&cycle(0, 1, 1)); // head wait
        p.on_idle(10);
        assert_eq!(p.cycles_stepped, 3);
        assert_eq!(
            p.cycles_stepped,
            p.cycles_with_commit + p.commit_stall_rob_empty + p.commit_stall_head_wait
        );
        assert_eq!(p.total_cycles(), 13);
        assert_eq!(p.dispatch_stall_upstream, 1);
        assert_eq!(p.instructions, 2);
    }

    #[test]
    fn dispatch_stalls_attribute_first_match() {
        let mut p = StallProfile::default();
        let mut c = cycle(1, 0, 1);
        c.occ.rob = c.bounds.rob; // ROB full wins over IQ full
        c.occ.iq = c.bounds.iq;
        p.on_cycle(&c);
        assert_eq!(p.dispatch_stall_rob_full, 1);
        assert_eq!(p.dispatch_stall_iq_full, 0);

        let mut c = cycle(1, 0, 1);
        c.occ.iq = c.bounds.iq;
        p.on_cycle(&c);
        assert_eq!(p.dispatch_stall_iq_full, 1);
    }

    #[test]
    fn fetch_stalls_attribute_by_cause() {
        let mut p = StallProfile::default();
        let mut c = cycle(1, 1, 0);
        c.fetch_blocked_mispredict = true;
        p.on_cycle(&c);
        let mut c = cycle(1, 1, 0);
        c.fetch_icache_stall = true;
        p.on_cycle(&c);
        let mut c = cycle(1, 1, 0);
        c.trace_exhausted = true;
        p.on_cycle(&c);
        let mut c = cycle(1, 1, 0);
        c.occ.fetch_q = c.bounds.fetch_q;
        p.on_cycle(&c);
        let mut c = cycle(1, 1, 0);
        c.occ.branches = c.bounds.branches;
        p.on_cycle(&c);
        assert_eq!(p.fetch_stall_mispredict, 1);
        assert_eq!(p.fetch_stall_icache, 1);
        assert_eq!(p.fetch_drained, 1);
        assert_eq!(p.fetch_stall_queue_full, 1);
        assert_eq!(p.fetch_stall_branch_limit, 1);
        // A fetch-less cycle with room under the limit has no cause.
        p.on_cycle(&cycle(1, 1, 0));
        assert_eq!(p.fetch_stall_branch_limit, 1);
    }

    #[test]
    fn high_water_marks_track_maxima() {
        let mut p = StallProfile::default();
        let mut c = cycle(1, 1, 1);
        c.occ.rob = 20;
        p.on_cycle(&c);
        let mut c = cycle(1, 1, 1);
        c.occ.rob = 7;
        c.occ.branches = 5;
        p.on_cycle(&c);
        assert_eq!(p.hw_rob, 20);
        assert_eq!(p.hw_branches, 5);
    }

    #[test]
    fn noobs_is_disabled() {
        assert!(!NoObs::ENABLED);
        assert!(StallProfile::ENABLED);
        assert!(!NoObs::STAGE_TIMING);
        assert!(!StallProfile::STAGE_TIMING);
        assert!(StageProf::STAGE_TIMING);
        assert!(!StageProf::ENABLED, "StageProf must skip CycleObs builds");
    }

    #[test]
    fn a_pair_observes_what_each_observer_sees_alone() {
        type Pair = (StallProfile, StageProf);
        assert!(Pair::ENABLED && Pair::STAGE_TIMING);
        assert!(!<(NoObs, NoObs)>::ENABLED && !<(NoObs, StageProf)>::ENABLED);
        let p = dse_workload::Profile::template("pair", dse_workload::Suite::SpecCpu2000, 3);
        let trace = dse_workload::TraceGenerator::new(&p).generate(6_000);
        fn run<O: SimObs>(trace: &dse_workload::Trace, obs: &mut O) -> crate::SimResult {
            let (cfg, cons) = (
                dse_space::Config::baseline(),
                dse_space::ConstantParams::standard(),
            );
            let opts = crate::SimOptions::with_warmup(1_000);
            let p = crate::Pipeline::new(&cfg, &cons, trace, opts);
            p.try_run_full_obs(obs).unwrap().result
        }
        let (mut stall, mut stages) = (StallProfile::default(), StageProf::default());
        let mut pair = Pair::default();
        let results = [
            run(&trace, &mut stall),
            run(&trace, &mut stages),
            run(&trace, &mut pair),
        ];
        assert!(results.iter().all(|r| *r == results[0]));
        let (pair_stall, pair_stages) = &pair;
        assert_eq!(*pair_stall, stall);
        assert_eq!(
            (pair_stages.cycles_stepped, pair_stages.cycles_idle),
            (stages.cycles_stepped, stages.cycles_idle)
        );
    }

    #[test]
    fn stage_prof_accumulates_and_shares() {
        let mut p = StageProf::default();
        p.on_stage_times(&StageTimes {
            commit: 10,
            issue: 60,
            writeback: 5,
            dispatch: 15,
            fetch: 10,
        });
        p.on_stage_times(&StageTimes {
            commit: 0,
            issue: 40,
            writeback: 5,
            dispatch: 5,
            fetch: 50,
        });
        p.on_idle(7);
        assert_eq!(p.cycles_stepped, 2);
        assert_eq!(p.cycles_idle, 7);
        assert_eq!(p.total_ticks(), 200);
        assert!((p.share(p.ticks.issue) - 0.5).abs() < 1e-12);
        let mut q = StageProf::default();
        q.merge(&p);
        q.merge(&p);
        assert_eq!(q.total_ticks(), 400);
        assert_eq!(q.cycles_stepped, 4);
    }

    #[test]
    fn stage_clock_is_monotonic_enough() {
        let a = stage_clock();
        let mut x = 0u64;
        for i in 0..1000u64 {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = stage_clock();
        assert!(b >= a, "stage clock went backwards: {a} -> {b}");
    }
}
