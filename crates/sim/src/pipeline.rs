//! Cycle-level out-of-order superscalar pipeline.
//!
//! Trace-driven: the simulator executes the committed (correct-path)
//! instruction stream and models wrong-path work as front-end bubbles —
//! a mispredicted branch blocks fetch until it resolves and then pays the
//! front-end refill depth, the standard trace-driven approximation used by
//! SimpleScalar's `sim-outorder` in trace mode.
//!
//! Modelled resources, each tied to a design-space parameter:
//!
//! * fetch of `width` instructions per cycle, stopping at taken branches,
//!   I-cache misses and the in-flight branch limit;
//! * rename/dispatch gated by ROB, IQ, LSQ and physical-register
//!   availability (32 architectural registers are reserved out of `rf`);
//! * oldest-first issue gated by operand readiness, issue width,
//!   functional units (width-scaled per Table 2b, divides non-pipelined),
//!   register-file read ports, and cache ports for memory operations;
//! * writeback gated by register-file write ports;
//! * in-order commit of `width` instructions per cycle;
//! * a two-level cache hierarchy with latencies from the Cacti-like model
//!   and bandwidth-limited L2/memory (overlapping misses serialise).
//!
//! # Hot-loop memory layout
//!
//! The steady-state cycle loop performs **zero heap allocation**; every
//! structure is a fixed-capacity buffer allocated at construction, and
//! every ring has a constant power-of-two size, so each mask is a
//! constant and the bounds checks fold away:
//!
//! * the trace is borrowed as structure-of-arrays columns (shared by all
//!   sweep simulations of a benchmark), including a precomputed decode
//!   byte per instruction ([`dse_workload::meta`]) that also carries its
//!   source-operand count;
//! * the ROB and fetch queue hold *consecutive* trace positions by
//!   construction (fetch, dispatch and commit are all in program order),
//!   so both are plain counters: ROB = `[committed, dispatched)`,
//!   fetch queue = `[dispatched, next_fetch)`;
//! * completion times live in a `RING`-slot ring indexed by trace
//!   position, covering the largest in-flight window (ROB + fetch queue);
//!   positions below the commit watermark are complete by definition;
//! * the issue queue is wakeup-driven and lives in the completion ring's
//!   slots: a dispatched entry links itself under each unissued producer
//!   (an intrusive dependant list per slot) and counts its pending
//!   producers; the producer's issue walks its list, and an entry whose
//!   last producer this was is scheduled on the wakeup wheel at its exact
//!   ready cycle. Ready entries sit in a bitset over ring slots, walked
//!   from the commit watermark — that is program order — so select is
//!   oldest-first, and a structurally blocked entry is skipped in favour
//!   of younger ready ones, with no per-cycle scan of waiting entries;
//! * the wakeup wheel is indexed by ready cycle: slot `t & (WAKE_WHEEL-1)`
//!   heads an intrusive list of the entries becoming ready at `t`, and
//!   the issue stage drains exactly one slot per cycle.
//!
//! On top of the layout, the cycle loop fast-forwards over provably idle
//! cycles ([`Pipeline::idle_skip`]): with the ready set empty, the next
//! wheel event is exactly the next cycle issue can act, so the skip
//! lands on it (or earlier, on a commit, fetch or dispatch obligation;
//! fetch held at a branch by the in-flight limit waits for the first
//! known completion among the held branches).
//! Skipping moves *when* the clock advances, never what a stage
//! computes, so metrics are bit-identical to stepping every cycle
//! (pinned by `tests/golden_sim.rs`).

use crate::branch::{Btb, Gshare};
use crate::cache::{Cache, CacheOutcome};
use crate::check::{self, Bounds, CheckError, InvariantChecker, Occupancy};
use crate::energy::{EnergyCounters, EnergyModel};
use crate::obs::{stage_stamp, CycleObs, NoObs, SimObs};
use crate::timing::{MemorySpec, SramSpec};
use dse_space::{Config, ConstantParams};
use dse_workload::{meta, InstrKind, Trace};
/// Architectural registers reserved out of the physical register file.
const ARCH_REGS: u32 = 32;
/// Fetch-queue capacity in multiples of the width.
const FETCH_QUEUE_WIDTHS: usize = 4;
/// Slots of every ring indexed by trace position. It must cover the
/// in-flight [`window`]: 208 positions at the largest legal ROB (160) and
/// width (8), as [`Pipeline::new`] checks.
const RING: usize = 256;
/// Size of the writeback-port reservation ring. Must exceed the span of
/// *live* (still-future) reservations: every reservation lies within
/// `(cycle, cycle + max completion latency]`, where the worst case is a
/// memory access behind an LSQ-bounded L2 bandwidth queue — a few
/// thousand cycles, comfortably below this. Stale (past) slot values can
/// never equal a future probe cycle, so they need no clearing. Kept small
/// on purpose: the ring is probed at random offsets per issued result,
/// and at 8 Ki entries it stays resident in the host cache.
const WB_RING: usize = 1 << 13;
/// Size of the wakeup wheel. Unlike the writeback ring, the wheel need
/// not cover the worst-case ready horizon: beyond-horizon events spill to
/// `wheel_overflow` and migrate in lazily. 8 Ki slots (32 KiB of list
/// heads + 1 KiB of occupancy bits) covers all but deep memory-backlog
/// completions while staying host-cache resident. Every live event lies
/// in `(cycle, cycle + WAKE_WHEEL)`, so a slot names one cycle at a time
/// and needs no tag.
const WAKE_WHEEL: usize = 1 << 13;
/// Largest per-class functional-unit pool (`int_alu` = width ≤ 8).
const MAX_FU: usize = 8;
/// End of an intrusive list (dependant lists, wheel lists).
const NIL: u32 = u32::MAX;
/// Upper bound on one idle fast-forward step ([`Pipeline::idle_skip`]):
/// small enough that lazily-migrated beyond-horizon events are never
/// overrun and a fruitless wheel scan stays cheap, large enough to clear
/// any realistic memory-stall gap in one step (longer stalls take a few
/// steps — skipped cycles mutate nothing, so the split is invisible).
/// Must be below [`WAKE_WHEEL`]: one idle scan then never wraps the
/// wheel, so each occupied slot it meets is an event at the scanned cycle.
const MAX_IDLE_SKIP: u64 = 4096;
const _: () = assert!((MAX_IDLE_SKIP as usize) < WAKE_WHEEL);

/// Options controlling a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Instructions at the head of the trace used to warm caches and
    /// predictors; they are simulated but excluded from the reported
    /// metrics (the paper warms for 10 M instructions before each
    /// SimPoint interval).
    pub warmup: usize,
    /// Force the invariant sanitizer on for this run, regardless of build
    /// type. When `false` the process-wide default applies
    /// ([`check::sanitize_default`]: `ARCHDSE_SANITIZE=1`/`=0` override,
    /// otherwise on in debug builds and off in release builds).
    pub sanitize: bool,
}

impl SimOptions {
    /// Options with the given warm-up and the default sanitizer policy.
    pub const fn with_warmup(warmup: usize) -> Self {
        Self {
            warmup,
            sanitize: false,
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self::with_warmup(5_000)
    }
}

/// Raw outcome of simulating a trace on a configuration (measured portion
/// only, i.e. after warm-up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Measured (post-warm-up) instructions.
    pub instructions: u64,
    /// Cycles taken by the measured instructions.
    pub cycles: u64,
    /// Energy in nanojoules consumed by the measured instructions.
    pub energy_nj: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// L1 I-cache miss rate over the measured portion.
    pub l1i_miss_rate: f64,
    /// L1 D-cache miss rate.
    pub l1d_miss_rate: f64,
    /// L2 miss rate (of L2 accesses).
    pub l2_miss_rate: f64,
    /// Branch direction misprediction rate.
    pub bpred_miss_rate: f64,
}

/// A [`SimResult`] together with the measured event counters and the
/// energy model that priced them — everything a differential test needs to
/// reconcile the run against an independent reference.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The measured-phase result.
    pub result: SimResult,
    /// Event counters for the measured (post-warm-up) portion.
    pub counters: EnergyCounters,
    /// The per-event energy model used to price the counters.
    pub model: EnergyModel,
}

/// Machine statistics at the end of warm-up, subtracted from the
/// end-of-run totals to measure the post-warm-up phase. Each pair is
/// (accesses or predictions, misses).
#[derive(Debug, Clone, Copy, Default)]
struct WarmSnapshot {
    counters: EnergyCounters,
    cycle: u64,
    l1i: (u64, u64),
    l1d: (u64, u64),
    l2: (u64, u64),
    bp: (u64, u64),
}

/// The machine state for one run. Construct via [`Pipeline::new`] and call
/// [`Pipeline::run`].
#[derive(Debug)]
pub struct Pipeline<'t> {
    cfg: Config,
    cons: ConstantParams,
    options: SimOptions,

    // Borrowed structure-of-arrays trace columns.
    kinds: &'t [InstrKind],
    src1: &'t [u32],
    src2: &'t [u32],
    pcs: &'t [u32],
    addrs: &'t [u64],
    takens: &'t [bool],
    targets: &'t [u32],
    metas: &'t [u8],

    icache: Cache,
    gshare: Gshare,
    btb: Btb,
    dcache: Cache,
    l2: Cache,
    energy_model: EnergyModel,
    counters: EnergyCounters,

    l1d_lat: u64,
    l2_lat: u64,
    mem: MemorySpec,
    /// `log2(l1_line_bytes)`: fetch derives the I-cache line by shift.
    l1_line_shift: u32,

    cycle: u64,
    /// Completion (result-available) cycle per in-flight trace position,
    /// indexed by `idx & (RING - 1)`; `u64::MAX` from fetch until
    /// scheduled. Positions below `committed` are complete by definition
    /// (commit requires completion), so the window `[committed,
    /// next_fetch)` — which the ring covers — is the only range consulted.
    complete: Box<[u64; RING]>,

    /// In-order stage cursors over trace positions. The ROB is
    /// `[committed, dispatched)` and the fetch queue `[dispatched,
    /// next_fetch)`; both hold consecutive positions by construction, so
    /// the counters replace the queues outright.
    committed: usize,
    dispatched: usize,
    next_fetch: usize,

    /// Issue-queue occupancy: dispatched entries not yet issued. The
    /// entries themselves are the ring slots of `[committed, dispatched)`
    /// whose completion is still unscheduled; the per-slot arrays below
    /// hold their select state.
    iq_len: usize,
    /// Unissued producers per entry (indexed like `complete`); the entry
    /// is scheduled when this reaches 0.
    pending: Box<[u8; RING]>,
    /// Latest known producer completion per entry: once `pending` is 0,
    /// every operand is available at `ready_at`.
    ready_at: Box<[u64; RING]>,
    /// Head of each producer slot's dependant list: a link
    /// `consumer_slot << 1 | operand`, or [`NIL`]. An entry reading one
    /// producer through both operands links (and counts) it twice.
    dep_head: Box<[u32; RING]>,
    /// Next link after each `consumer_slot << 1 | operand` link.
    dep_next: Box<[u32; 2 * RING]>,
    /// Ready set: one bit per ring slot, set while the entry's operands
    /// are all available and it has not issued. Walking it from
    /// `committed & (RING - 1)` visits entries in program order.
    ready_bits: [u64; RING / 64],
    /// Set bits in `ready_bits`.
    ready_len: usize,
    lsq_occ: u32,
    phys_used: u32,
    rename_regs: u32,

    fetch_stall_until: u64,
    fetch_blocked_on: Option<usize>,
    last_fetch_line: u64,
    /// In-flight branch positions; fixed capacity `cfg.max_branches`.
    /// Resolved entries are retired lazily, only when the limit binds, so
    /// the list may still hold some ([`Pipeline::branch_resolved`]).
    unresolved: Box<[u32]>,
    unresolved_len: usize,

    /// Per-FU-class `busy_until` times: int ALU, int mul/div, FP ALU,
    /// FP mul/div. Fixed arrays; `fu_len` holds the pool sizes.
    fu_busy: [[u64; MAX_FU]; 4],
    fu_len: [u8; 4],
    /// `(result latency, unit occupancy)` per [`InstrKind`] discriminant
    /// ([`exec_table`]); memory kinds also go through `data_access`.
    exec: [(u64, u64); 9],

    /// Writeback-port reservations, a ring indexed by cycle: a slot is
    /// live while `wb_tag` holds its cycle (0 = free: reservations are
    /// strictly positive cycles), with `wb_used` ports taken. Zeroed
    /// arrays keep construction on the allocator's zero-page fast path.
    wb_tag: Box<[u64; WB_RING]>,
    /// Ports taken per live `wb_tag` slot; `rf_write <= width <= 8` fits
    /// a byte, keeping the ring's random probes to a quarter the lines.
    wb_used: Box<[u8; WB_RING]>,

    l2_free_at: u64,
    mem_free_at: u64,

    /// Stage-timing scratch: ticks spent in writeback-port reservation
    /// this cycle. Written only under `SimObs::STAGE_TIMING` (the issue
    /// stage accumulates, the run loop drains); dead otherwise.
    wb_ticks: u64,

    /// Wakeup wheel: slot `t & (WAKE_WHEEL-1)` heads the list of entries
    /// (ring slots, chained through `wake_next`) that become ready at
    /// cycle `t`. A head is live only while its `wheel_bits` bit is set.
    wheel_head: Box<[u32; WAKE_WHEEL]>,
    /// Next entry after each ring slot in its wheel list.
    wake_next: Box<[u32; RING]>,
    /// One bit per wheel slot, set exactly while its list is non-empty;
    /// lets [`Pipeline::idle_skip`] sweep 64 slots per word read.
    wheel_bits: Box<[u64; WAKE_WHEEL / 64]>,
    /// `(ready cycle, ring slot)` events beyond the wheel horizon
    /// (unreachable for legal configurations; kept so the wheel cannot
    /// silently alias).
    wheel_overflow: Vec<(u64, u32)>,

    /// Invariant sanitizer; `None` when disabled, so the per-hook cost of
    /// a non-sanitized run is one skipped `Option` branch.
    checker: Option<InvariantChecker>,
    /// First invariant violation raised from a hook that cannot return a
    /// `Result` directly; drained once per cycle by the run loop.
    check_fail: Option<CheckError>,
}

impl<'t> Pipeline<'t> {
    /// Builds a pipeline for `trace` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or shorter than the warm-up, or the
    /// configuration is illegal or its ROB and width lie beyond the
    /// design-space grid's largest in-flight window.
    pub fn new(cfg: &Config, cons: &ConstantParams, trace: &'t Trace, options: SimOptions) -> Self {
        assert!(cfg.is_legal(), "configuration fails the legality filter");
        assert!(!trace.is_empty(), "trace must not be empty");
        assert!(
            trace.len() > options.warmup,
            "trace ({}) must be longer than the warm-up ({})",
            trace.len(),
            options.warmup
        );
        assert!(trace.len() < u32::MAX as usize, "trace positions fit u32");
        let fu_cfg = cfg.functional_units();
        let fu_len = [
            fu_cfg.int_alu as u8,
            fu_cfg.int_mul as u8,
            fu_cfg.fp_alu as u8,
            fu_cfg.fp_mul as u8,
        ];
        assert!(
            fu_len.iter().all(|&c| c as usize <= MAX_FU),
            "functional-unit pool exceeds MAX_FU"
        );
        assert!(
            cons.l1_line_bytes.is_power_of_two(),
            "l1 line bytes must be a power of two"
        );
        let l1d_spec = SramSpec::ram(cfg.dcache_kb as u64 * 1024);
        let l2_spec = SramSpec::ram(cfg.l2_kb as u64 * 1024);
        let sanitize = options.sanitize || check::sanitize_default();
        // Validate the derived timing/energy specs up front; a failure is
        // reported from the first simulated cycle.
        let check_fail = if sanitize {
            [
                ("l1d", l1d_spec.validate()),
                ("l2", l2_spec.validate()),
                ("memory", MemorySpec::standard().validate()),
            ]
            .into_iter()
            .find_map(|(name, r)| {
                r.err()
                    .map(|m| CheckError::new(0, "timing-spec", format!("{name}: {m}")))
            })
        } else {
            None
        };
        assert!(
            window(cfg.rob as usize, cfg.width as usize) <= RING,
            "in-flight window exceeds RING"
        );
        Self {
            cfg: *cfg,
            cons: *cons,
            options,
            kinds: trace.kinds(),
            src1: trace.src1s(),
            src2: trace.src2s(),
            pcs: trace.pcs(),
            addrs: trace.addrs(),
            takens: trace.takens(),
            targets: trace.targets(),
            metas: trace.metas(),
            icache: Cache::new(
                cfg.icache_kb as u64 * 1024,
                cons.l1_line_bytes,
                cons.l1i_assoc,
            ),
            gshare: Gshare::new(cfg.bpred_k as u64 * 1024),
            btb: Btb::new(cfg.btb_k as u64 * 1024),
            dcache: Cache::new(
                cfg.dcache_kb as u64 * 1024,
                cons.l1_line_bytes,
                cons.l1d_assoc,
            ),
            l2: Cache::new(cfg.l2_kb as u64 * 1024, cons.l2_line_bytes, cons.l2_assoc),
            energy_model: EnergyModel::new(cfg, cons),
            counters: EnergyCounters::default(),
            l1d_lat: l1d_spec.latency_cycles() as u64,
            l2_lat: l2_spec.latency_cycles() as u64,
            mem: MemorySpec::standard(),
            l1_line_shift: cons.l1_line_bytes.trailing_zeros(),
            cycle: 0,
            complete: filled(u64::MAX),
            committed: 0,
            dispatched: 0,
            next_fetch: 0,
            iq_len: 0,
            pending: filled(0),
            ready_at: filled(0),
            dep_head: filled(NIL),
            dep_next: filled(NIL),
            ready_bits: [0; RING / 64],
            ready_len: 0,
            lsq_occ: 0,
            phys_used: 0,
            rename_regs: cfg.rf.saturating_sub(ARCH_REGS).max(4),
            fetch_stall_until: 0,
            fetch_blocked_on: None,
            last_fetch_line: u64::MAX,
            unresolved: vec![0; cfg.max_branches as usize].into_boxed_slice(),
            unresolved_len: 0,
            fu_busy: [[0; MAX_FU]; 4],
            fu_len,
            exec: exec_table(cons),
            wb_tag: filled(0),
            wb_used: filled(0),
            l2_free_at: 0,
            mem_free_at: 0,
            wb_ticks: 0,
            wheel_head: filled(0),
            wake_next: filled(NIL),
            wheel_bits: filled(0),
            wheel_overflow: Vec::with_capacity(16),
            checker: sanitize.then(InvariantChecker::new),
            check_fail,
        }
    }

    /// Capacity bounds the occupancy checks enforce.
    fn bounds(&self) -> Bounds {
        Bounds {
            rob: self.cfg.rob as usize,
            iq: self.cfg.iq as usize,
            lsq: self.cfg.lsq,
            phys: self.rename_regs,
            fetch_q: FETCH_QUEUE_WIDTHS * self.cfg.width as usize,
            branches: self.cfg.max_branches as usize,
        }
    }

    /// Current occupancy snapshot for the sanitizer.
    fn occupancy(&self) -> Occupancy {
        Occupancy {
            rob: self.dispatched - self.committed,
            iq: self.iq_len,
            lsq: self.lsq_occ,
            phys: self.phys_used,
            fetch_q: self.next_fetch - self.dispatched,
            branches: self.unresolved[..self.unresolved_len]
                .iter()
                .filter(|&&b| !self.branch_resolved(b))
                .count(),
            fetched: self.next_fetch,
            committed: self.committed,
        }
    }

    /// Sanitizer hook for the issue-select state. The oldest IQ entry is
    /// the first position past the commit watermark still unscheduled.
    fn check_select(&self, chk: &InvariantChecker) -> Result<(), CheckError> {
        let oldest = (self.committed..self.dispatched)
            .find(|&i| self.completion(i) == u64::MAX)
            .map(|idx| {
                let s = idx & (RING - 1);
                let in_ready_set = self.ready_bits[s >> 6] & (1 << (s & 63)) != 0;
                (idx, self.pending[s], in_ready_set, self.ready_at[s])
            });
        let ready_popcount = popcount(&self.ready_bits);
        chk.on_select(
            self.cycle,
            ready_popcount,
            self.ready_len,
            self.iq_len,
            oldest,
        )
    }

    /// Completion cycle of in-flight position `idx` (ring lookup).
    #[inline]
    fn completion(&self, idx: usize) -> u64 {
        self.complete[idx & (RING - 1)]
    }

    /// Whether the branch at trace position `b` has resolved: committed, or
    /// complete by its ring slot (not stale at or above the watermark).
    #[inline]
    fn branch_resolved(&self, b: u32) -> bool {
        let b = b as usize;
        b < self.committed || self.completion(b) <= self.cycle
    }

    /// Adds the entry at ring slot `s` to the ready set.
    #[inline]
    fn set_ready(&mut self, s: usize) {
        self.ready_bits[(s & (RING - 1)) >> 6] |= 1 << (s & 63);
        self.ready_len += 1;
    }

    /// Schedules the entry at ring slot `s` to become ready at cycle `t`
    /// (strictly in the future: every latency is ≥ 1 cycle).
    #[inline]
    fn wake_at(&mut self, t: u64, s: usize) {
        if t - self.cycle < WAKE_WHEEL as u64 {
            self.push_wheel(t, s);
        } else {
            self.wheel_overflow.push((t, s as u32));
        }
    }

    /// Pushes ring slot `s` onto the wheel list for cycle `t`.
    #[inline]
    fn push_wheel(&mut self, t: u64, s: usize) {
        let slot = (t as usize) & (WAKE_WHEEL - 1);
        let bit = 1u64 << (slot & 63);
        let word = &mut self.wheel_bits[slot >> 6];
        self.wake_next[s & (RING - 1)] = if *word & bit != 0 {
            self.wheel_head[slot]
        } else {
            NIL
        };
        *word |= bit;
        self.wheel_head[slot] = s as u32;
    }

    /// Runs the trace to completion and returns the measured-phase result.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops making progress (a simulator bug, not a
    /// reachable state for legal configurations), or — when the sanitizer
    /// is enabled — if an invariant is violated. Use [`Pipeline::try_run`]
    /// to handle violations as errors instead.
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the trace to completion, returning the first invariant
    /// violation as an error instead of panicking.
    ///
    /// # Panics
    ///
    /// Still panics on deadlock (no forward progress for 2 M cycles).
    pub fn try_run(self) -> Result<SimResult, CheckError> {
        self.try_run_full().map(|rec| rec.result)
    }

    /// Like [`Pipeline::try_run`], but additionally returns the measured
    /// event counters and the energy model so callers can reconcile the
    /// run against an independent reference (see [`crate::oracle`]).
    pub fn try_run_full(self) -> Result<RunRecord, CheckError> {
        self.try_run_full_obs(&mut NoObs)
    }

    /// Like [`Pipeline::try_run_full`], with an observer receiving
    /// per-cycle stage activity (see [`crate::obs`]).
    ///
    /// The hooks are gated on the monomorphised constant
    /// [`SimObs::ENABLED`]: with [`NoObs`] this compiles to exactly the
    /// un-instrumented loop, so results are bit-identical whether or not
    /// a run is observed (pinned by `tests/golden_sim.rs`).
    pub fn try_run_full_obs<O: SimObs>(mut self, obs: &mut O) -> Result<RunRecord, CheckError> {
        let warm = self.run_loop::<O, true>(obs)?;
        self.into_record(warm)
    }

    /// Steps the machine until the whole trace has committed, returning
    /// the statistics snapshot taken at the end of warm-up. Tests step
    /// every cycle (`IDLE_SKIP` false) as the reference for the skip.
    fn run_loop<O: SimObs, const IDLE_SKIP: bool>(
        &mut self,
        obs: &mut O,
    ) -> Result<WarmSnapshot, CheckError> {
        let warmup = self.options.warmup;
        let n = self.kinds.len();
        let mut warm: Option<WarmSnapshot> = None;
        // Last cycle that committed anything (deadlock watchdog).
        let mut last_commit_cycle = 0;

        while self.committed < n {
            if self.step(obs)? > 0 {
                last_commit_cycle = self.cycle;
            }
            assert!(
                self.cycle - last_commit_cycle < 2_000_000,
                "pipeline deadlock at cycle {} (committed {}/{}, cfg {})",
                self.cycle,
                self.committed,
                n,
                self.cfg
            );

            if warm.is_none() && self.committed >= warmup {
                warm = Some(self.warm_snapshot());
            }

            // Event-driven fast-forward: jump the clock over cycles in
            // which no stage can act. Skipped cycles mutate no state, so
            // results are bit-identical to stepping through them.
            if IDLE_SKIP && self.committed < n {
                let skip = self.idle_skip();
                if (O::ENABLED || O::STAGE_TIMING) && skip > 0 {
                    obs.on_idle(skip);
                }
                self.cycle += skip;
                self.counters.cycles += skip;
            }
        }
        Ok(warm.unwrap_or_default())
    }

    /// Steps one cycle — commit, issue, dispatch, fetch — then runs the
    /// observer and sanitizer hooks. Returns the instructions committed.
    /// It and every stage it reaches are inlined whole into the run loop.
    #[inline(always)]
    fn step<O: SimObs>(&mut self, obs: &mut O) -> Result<u32, CheckError> {
        self.cycle += 1;
        self.counters.cycles += 1;

        // Stage-entry facts the observer needs but later stages
        // overwrite; `O::ENABLED` is a monomorphised constant, so the
        // whole block vanishes for the default `NoObs` run.
        let pre = if O::ENABLED {
            Some((
                self.committed >= self.dispatched,
                self.dispatched >= self.next_fetch,
                self.counters,
            ))
        } else {
            None
        };

        // Stage brackets: one clock read per stage boundary.
        let t0 = stage_stamp::<O>();
        let committed_now = self.commit();
        let t1 = stage_stamp::<O>();
        self.issue::<O>();
        let t2 = stage_stamp::<O>();
        self.dispatch();
        let t3 = stage_stamp::<O>();
        self.fetch();

        if O::STAGE_TIMING {
            let t4 = stage_stamp::<O>();
            let wb = std::mem::take(&mut self.wb_ticks);
            obs.on_stage_times(&crate::obs::StageTimes {
                commit: t1.wrapping_sub(t0),
                issue: t2.wrapping_sub(t1).saturating_sub(wb),
                writeback: wb,
                dispatch: t3.wrapping_sub(t2),
                fetch: t4.wrapping_sub(t3),
            });
        }

        if O::ENABLED {
            let (rob_was_empty, fetch_q_was_empty, prev) =
                pre.expect("pre-stage snapshot is taken whenever O::ENABLED");
            obs.on_cycle(&CycleObs {
                committed: committed_now,
                issued: (self.counters.iq_wakeups - prev.iq_wakeups) as u32,
                dispatched: (self.counters.renamed - prev.renamed) as u32,
                fetched: (self.counters.fetched - prev.fetched) as u32,
                rob_was_empty,
                fetch_q_was_empty,
                fetch_blocked_mispredict: self.fetch_blocked_on.is_some(),
                fetch_icache_stall: self.cycle < self.fetch_stall_until,
                trace_exhausted: self.next_fetch >= self.kinds.len(),
                occ: self.occupancy(),
                bounds: self.bounds(),
            });
        }

        if self.checker.is_some() {
            if let Some(e) = self.check_fail.take() {
                return Err(e);
            }
            if let Some(chk) = self.checker.as_ref() {
                chk.on_cycle(&self.occupancy(), &self.bounds(), self.cycle)?;
                self.check_select(chk)?;
            }
        }
        Ok(committed_now)
    }

    /// Final checks and measured-phase result assembly, after the trace
    /// has fully committed.
    fn into_record(mut self, w: WarmSnapshot) -> Result<RunRecord, CheckError> {
        let warmup = self.options.warmup;
        let n = self.kinds.len();

        if let Some(chk) = self.checker.take() {
            self.final_checks(&chk)?;
        }

        let measured = self.counters.since(&w.counters);
        let instructions = (n - warmup.min(n)) as u64;
        let cycles = self.cycle - w.cycle;
        let energy_nj = measured.total_nj(&self.energy_model);
        let rate = |acc: u64, miss: u64, w_acc: u64, w_miss: u64| {
            let a = acc - w_acc;
            if a == 0 {
                0.0
            } else {
                (miss - w_miss) as f64 / a as f64
            }
        };
        let result = SimResult {
            instructions,
            cycles,
            energy_nj,
            ipc: instructions as f64 / cycles.max(1) as f64,
            l1i_miss_rate: rate(
                self.icache.accesses(),
                self.icache.misses(),
                w.l1i.0,
                w.l1i.1,
            ),
            l1d_miss_rate: rate(
                self.dcache.accesses(),
                self.dcache.misses(),
                w.l1d.0,
                w.l1d.1,
            ),
            l2_miss_rate: rate(self.l2.accesses(), self.l2.misses(), w.l2.0, w.l2.1),
            bpred_miss_rate: rate(
                self.gshare.predictions(),
                self.gshare.mispredictions(),
                w.bp.0,
                w.bp.1,
            ),
        };
        Ok(RunRecord {
            result,
            counters: measured,
            model: self.energy_model,
        })
    }

    /// End-of-run reconciliation: the pipeline's event counters, the
    /// caches'/predictor's own statistics, and the energy breakdown must
    /// all agree. Uses the *full-run* counters, before any warm-up
    /// subtraction, so the comparison is exact.
    fn final_checks(&self, chk: &InvariantChecker) -> Result<(), CheckError> {
        let n = self.kinds.len() as u64;
        chk.on_finish(self.kinds.len())?;
        // Nothing may be left in the ready set, on a dependant list or on
        // the wakeup wheel.
        let dep_lists = self.dep_head.iter().filter(|&&h| h != NIL).count();
        let wheel = popcount(&*self.wheel_bits) + self.wheel_overflow.len();
        check::reconcile("ready-set-drained", popcount(&self.ready_bits) as u64, 0)?;
        check::reconcile("dependant-lists-drained", dep_lists as u64, 0)?;
        check::reconcile("wheel-drained", wheel as u64, 0)?;

        // Per-structure self-consistency.
        self.icache.check_invariants("l1i")?;
        self.gshare.check_invariants()?;
        self.btb.check_invariants()?;
        self.dcache.check_invariants("l1d")?;
        self.l2.check_invariants("l2")?;

        // Pipeline event counters vs the structures' own statistics.
        let c = &self.counters;
        let ic_miss = self.icache.misses();
        check::reconcile("icache-accesses", c.icache_accesses, self.icache.accesses())?;
        check::reconcile("dcache-accesses", c.dcache_accesses, self.dcache.accesses())?;
        check::reconcile("l2-accesses", c.l2_accesses, self.l2.accesses())?;
        check::reconcile(
            "l1-misses-feed-l2",
            self.l2.accesses(),
            ic_miss + self.dcache.misses(),
        )?;
        check::reconcile("l2-misses-feed-memory", c.memory_accesses, self.l2.misses())?;
        check::reconcile(
            "bpred-accesses",
            c.bpred_accesses,
            self.gshare.predictions(),
        )?;

        // Every trace instruction flows through each stage exactly once.
        check::reconcile("fetched-count", c.fetched, n)?;
        check::reconcile("renamed-count", c.renamed, n)?;
        check::reconcile("issued-count", c.iq_wakeups, n)?;
        check::reconcile("iq-insert-count", c.iq_inserts, n)?;
        check::reconcile("commit-count", c.rob_reads, n)?;
        check::reconcile("fu-op-count", c.fu_ops.iter().sum(), n)?;
        // ROB is written at dispatch and again at writeback of every
        // result-producing instruction.
        check::reconcile("rob-writes", c.rob_writes, c.renamed + c.rf_writes)?;

        // Energy: the per-structure breakdown must sum to the total and
        // every component must be finite and non-negative.
        check::check_energy(c, &self.energy_model)?;
        Ok(())
    }

    fn warm_snapshot(&self) -> WarmSnapshot {
        WarmSnapshot {
            counters: self.counters,
            cycle: self.cycle,
            l1i: (self.icache.accesses(), self.icache.misses()),
            l1d: (self.dcache.accesses(), self.dcache.misses()),
            l2: (self.l2.accesses(), self.l2.misses()),
            bp: (self.gshare.predictions(), self.gshare.mispredictions()),
        }
    }

    /// Length of an exact idle fast-forward from the current end-of-cycle
    /// state: how many upcoming cycles provably pass with *no* stage able
    /// to act, so the run loop may advance the clock over them in one
    /// step. Returns 0 whenever any stage might act next cycle.
    ///
    /// The per-stage obligations are local:
    ///
    /// * issue acts only while the ready set is non-empty (a structurally
    ///   blocked or width-limited entry retries next cycle) or when a
    ///   wakeup-wheel event fills it — ready cycles are exact, so the next
    ///   event is exactly the next cycle issue can act;
    /// * commit acts only when the ROB head's completion cycle arrives —
    ///   known from the ring, or wake-gated for an unissued head;
    /// * dispatch acts only when the fetch queue is non-empty and its head
    ///   clears the ROB/IQ/LSQ/register caps, all of which change only
    ///   via commit, issue or fetch;
    /// * fetch acts only when unblocked (an issued mispredict resolves at
    ///   its known completion, an unissued one only after a wheel event),
    ///   unstalled (`fetch_stall_until` is known), the queue has room
    ///   (dispatch-gated) and trace instructions remain — and not when
    ///   the next instruction is a branch on the current I-cache line
    ///   with the in-flight branch limit full of unresolved branches:
    ///   that wait ends at the earliest known completion among them (an
    ///   unissued one only after a wheel event).
    ///
    /// Skipped cycles therefore mutate no state — every counter, cache,
    /// predictor and queue is bit-identical to stepping one by one; only
    /// the clock advances, by the same amount either way.
    #[inline(always)]
    fn idle_skip(&self) -> u64 {
        if self.ready_len > 0 {
            return 0;
        }
        // Dispatch must be unable to act on the current head.
        if self.dispatched < self.next_fetch {
            let m = self.metas[self.dispatched];
            let blocked = self.dispatched - self.committed >= self.cfg.rob as usize
                || self.iq_len >= self.cfg.iq as usize
                || (m & meta::IS_MEM != 0 && self.lsq_occ >= self.cfg.lsq)
                || (m & meta::HAS_DEST != 0 && self.phys_used >= self.rename_regs);
            if !blocked {
                return 0;
            }
        }
        // Fetch must be inert.
        let mut bound = self.cycle + MAX_IDLE_SKIP;
        if let Some(b) = self.fetch_blocked_on {
            let done = self.completion(b);
            if done <= self.cycle {
                return 0; // resolves on the next fetch call
            }
            bound = bound.min(done);
        } else if self.cycle < self.fetch_stall_until {
            bound = bound.min(self.fetch_stall_until);
        } else if self.next_fetch < self.kinds.len()
            && self.next_fetch - self.dispatched < FETCH_QUEUE_WIDTHS * self.cfg.width as usize
        {
            // Fetch can act unless a branch with no I-cache access to make
            // waits on a branch limit full of unresolved branches.
            let idx = self.next_fetch;
            if self.metas[idx] & meta::IS_BRANCH == 0
                || (self.pcs[idx] as u64) >> self.l1_line_shift != self.last_fetch_line
                || self.unresolved_len < self.cfg.max_branches as usize
            {
                return 0;
            }
            for &b in &self.unresolved[..self.unresolved_len] {
                if self.branch_resolved(b) {
                    return 0; // retires on the next fetch call
                }
                bound = bound.min(self.completion(b as usize));
            }
        }
        // The ROB head's completion bounds the skip; an unissued head
        // commits only after a wake-driven issue. A width-limited commit
        // can leave the head already complete (`done <= cycle`), in which
        // case commit acts next cycle and the skip collapses to zero.
        if self.committed < self.dispatched {
            let done = self.completion(self.committed);
            if done <= self.cycle {
                return 0;
            }
            bound = bound.min(done);
        }
        // Beyond-horizon events migrate lazily in issue(); never skip past
        // one (the list is almost always empty).
        for &(t, _) in &self.wheel_overflow {
            bound = bound.min(t);
        }
        // The earliest wheel event bounds everything else. The scan range
        // is below MAX_IDLE_SKIP < WAKE_WHEEL and every live event lies in
        // `(cycle, cycle + WAKE_WHEEL)`, so an occupied slot met at `t` is
        // an event at `t`; the occupancy bits cover 64 slots per load.
        let mut t = self.cycle + 1;
        while t < bound {
            let slot = (t as usize) & (WAKE_WHEEL - 1);
            let rem = self.wheel_bits[slot >> 6] >> (slot & 63);
            if rem != 0 {
                bound = bound.min(t + rem.trailing_zeros() as u64);
                break;
            }
            t += (64 - (slot & 63)) as u64;
        }
        bound - (self.cycle + 1)
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------
    /// Retires up to `width` completed instructions; frees their entries once.
    #[inline(always)]
    fn commit(&mut self) -> u32 {
        let (mut n, mut mems, mut dests) = (0, 0, 0);
        while n < self.cfg.width {
            if self.committed >= self.dispatched {
                break; // ROB empty
            }
            let idx = self.committed;
            let done = self.completion(idx);
            if done > self.cycle {
                break;
            }
            if self.checker.is_some() {
                let cycle = self.cycle;
                if let Some(chk) = self.checker.as_mut() {
                    if let Err(e) = chk.on_commit(idx, done, cycle) {
                        self.check_fail.get_or_insert(e);
                    }
                }
            }
            let m = self.metas[idx];
            mems += (m & meta::IS_MEM != 0) as u32;
            dests += (m & meta::HAS_DEST != 0) as u32;
            self.committed += 1;
            n += 1;
        }
        self.lsq_occ -= mems;
        self.phys_used -= dests;
        self.counters.rob_reads += n as u64;
        n
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------
    #[inline(always)]
    fn issue<O: SimObs>(&mut self) {
        let cycle = self.cycle;
        if !self.wheel_overflow.is_empty() {
            // Migrate events that came within the horizon; idle skips
            // never pass one, so none is already due before this cycle.
            let mut i = 0;
            while i < self.wheel_overflow.len() {
                let (t, s) = self.wheel_overflow[i];
                if t - cycle < WAKE_WHEEL as u64 {
                    self.push_wheel(t, s as usize);
                    self.wheel_overflow.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        // Entries becoming ready this cycle join the ready set.
        let slot = (cycle as usize) & (WAKE_WHEEL - 1);
        let bit = 1u64 << (slot & 63);
        if self.wheel_bits[slot >> 6] & bit != 0 {
            self.wheel_bits[slot >> 6] &= !bit;
            let mut s = self.wheel_head[slot];
            while s != NIL {
                self.set_ready(s as usize);
                s = self.wake_next[s as usize];
            }
        }
        if self.ready_len == 0 {
            return;
        }

        // Oldest-first select: walk the ready set from the commit
        // watermark's slot, wrapping once — ring order from there is
        // program order. Issuing only schedules future wakeups, so the
        // word copies being walked stay exact.
        let mut issued = 0u32;
        let mut reads_used = 0u32;
        let mut mem_ports_used = 0u32;
        const WORDS: usize = RING / 64;
        let start = self.committed & (RING - 1);
        let (first, off) = (start >> 6, start & 63);
        let mut unvisited = self.ready_len;
        'select: for k in 0..=WORDS {
            if unvisited == 0 {
                break;
            }
            let w = (first + k) & (WORDS - 1);
            let mut bits = self.ready_bits[w];
            if k == 0 {
                bits &= !0 << off;
            } else if k == WORDS {
                bits &= !(!0 << off);
            }
            while bits != 0 {
                let s = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                unvisited -= 1;
                let idx = self.committed + (s.wrapping_sub(start) & (RING - 1));

                // Register-file read ports.
                let m = self.metas[idx];
                let nsrc = meta::sources(m);
                if reads_used + nsrc > self.cfg.rf_read {
                    continue;
                }
                // Cache ports for memory operations.
                if m & meta::IS_MEM != 0 && mem_ports_used >= self.cons.mem_ports {
                    continue;
                }
                // Functional unit.
                let class = (m & meta::FU_MASK) as usize;
                let pool = self.fu_len[class] as usize;
                let Some(unit) = self.fu_busy[class][..pool].iter().position(|&b| b <= cycle)
                else {
                    continue;
                };

                // --- the instruction issues ---
                let (exec_done, unit_busy_until) = self.execute_latency(m, idx);
                self.fu_busy[class][unit] = unit_busy_until;
                reads_used += nsrc;
                self.counters.rf_reads += nsrc as u64;
                self.counters.iq_wakeups += 1;
                self.counters.fu_ops[class] += 1;
                if m & meta::IS_MEM != 0 {
                    mem_ports_used += 1;
                    self.counters.lsq_searches += 1;
                }

                // Writeback port reservation for result-producing instructions.
                let done = if m & meta::HAS_DEST != 0 {
                    let w0 = stage_stamp::<O>();
                    let slot = self.reserve_wb(exec_done);
                    if O::STAGE_TIMING {
                        self.wb_ticks += stage_stamp::<O>().wrapping_sub(w0);
                    }
                    self.counters.rf_writes += 1;
                    self.counters.rob_writes += 1;
                    slot
                } else {
                    exec_done
                };
                self.complete[s] = done;
                self.ready_bits[w] &= !(1 << (s & 63));
                self.ready_len -= 1;
                self.iq_len -= 1;
                self.wake_dependants(s, done);
                issued += 1;
                if issued == self.cfg.width {
                    break 'select;
                }
            }
        }

        if let Some(chk) = self.checker.as_ref() {
            if let Err(e) = chk.on_issue(
                reads_used,
                self.cfg.rf_read,
                mem_ports_used,
                self.cons.mem_ports,
                self.cycle,
            ) {
                self.check_fail.get_or_insert(e);
            }
        }
    }

    /// Walks the dependant list of the producer at ring slot `p`, which
    /// just issued with result at `done`: each consumer operand's ready
    /// time rises to `done`, and a consumer whose last pending producer
    /// this was is scheduled at its now-final ready time.
    #[inline(always)]
    fn wake_dependants(&mut self, p: usize, done: u64) {
        let mut link = std::mem::replace(&mut self.dep_head[p & (RING - 1)], NIL);
        while link != NIL {
            let c = (link >> 1) as usize & (RING - 1);
            link = self.dep_next[link as usize & (2 * RING - 1)];
            let ready_at = self.ready_at[c].max(done);
            self.ready_at[c] = ready_at;
            self.pending[c] -= 1;
            if self.pending[c] == 0 {
                self.wake_at(ready_at, c);
            }
        }
    }

    /// Returns `(result_ready_cycle, fu_busy_until)` for the instruction
    /// at trace position `idx`, with decode byte `m`, issuing this cycle.
    #[inline(always)]
    fn execute_latency(&mut self, m: u8, idx: usize) -> (u64, u64) {
        let c = self.cycle;
        let (latency, occupancy) = self.exec[self.kinds[idx] as usize];
        let mut done = c + latency;
        if m & meta::IS_MEM != 0 {
            // A store writes its buffer entry in one cycle; the cache
            // update (and any miss traffic) happens off the critical path
            // but still consumes hierarchy bandwidth and energy. A load's
            // result is its data.
            let ready = self.data_access(self.addrs[idx], c);
            if m & meta::HAS_DEST != 0 {
                done = ready;
            }
        }
        (done, c + occupancy)
    }

    /// Performs a data access through D-L1 → L2 → memory, returning the
    /// absolute cycle the data is available. Bandwidth contention is
    /// modelled by single-server queues on L2 and the memory bus.
    fn data_access(&mut self, addr: u64, at: u64) -> u64 {
        self.counters.dcache_accesses += 1;
        let l1_done = at + self.l1d_lat;
        if self.dcache.access(addr) == CacheOutcome::Hit {
            return l1_done;
        }
        self.l2_access(addr, l1_done)
    }

    /// L2 access (shared by I- and D-side), returning data-ready cycle.
    fn l2_access(&mut self, addr: u64, at: u64) -> u64 {
        self.counters.l2_accesses += 1;
        let start = at.max(self.l2_free_at);
        self.l2_free_at = start + 2; // L2 accepts a new access every 2 cycles
        let l2_done = start + self.l2_lat;
        if self.l2.access(addr) == CacheOutcome::Hit {
            return l2_done;
        }
        self.counters.memory_accesses += 1;
        let mstart = l2_done.max(self.mem_free_at);
        self.mem_free_at = mstart + self.mem.occupancy as u64;
        mstart + self.mem.latency as u64
    }

    /// Reserves a register-file write port at or after `at`.
    #[inline(always)]
    fn reserve_wb(&mut self, at: u64) -> u64 {
        let ports = self.cfg.rf_write;
        let mut t = at;
        loop {
            let slot = (t as usize) & (WB_RING - 1);
            if self.wb_tag[slot] != t {
                self.wb_tag[slot] = t;
                self.wb_used[slot] = 1;
                return t;
            }
            if (self.wb_used[slot] as u32) < ports {
                self.wb_used[slot] += 1;
                if let Some(chk) = self.checker.as_ref() {
                    if let Err(e) = chk.on_writeback_grant(self.wb_used[slot] as u32, ports, t) {
                        self.check_fail.get_or_insert(e);
                    }
                }
                return t;
            }
            t += 1;
            // The ring is vastly larger than any realistic backlog; give up
            // gracefully rather than wrapping onto live reservations.
            if t - at >= (WB_RING as u64) / 2 {
                return t;
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (rename)
    // ------------------------------------------------------------------
    #[inline(always)]
    fn dispatch(&mut self) {
        let rob_cap = self.cfg.rob as usize;
        let iq_cap = self.cfg.iq as usize;
        let mut n = 0;
        while n < self.cfg.width {
            if self.dispatched >= self.next_fetch {
                break; // fetch queue empty
            }
            let idx = self.dispatched;
            let m = self.metas[idx];
            let is_mem = m & meta::IS_MEM != 0;
            let has_dest = m & meta::HAS_DEST != 0;
            if self.dispatched - self.committed >= rob_cap
                || self.iq_len >= iq_cap
                || (is_mem && self.lsq_occ >= self.cfg.lsq)
                || (has_dest && self.phys_used >= self.rename_regs)
            {
                break;
            }
            self.dispatched += 1;
            self.iq_len += 1;
            self.link_operands(idx);
            if is_mem {
                self.lsq_occ += 1;
            }
            if has_dest {
                self.phys_used += 1;
            }
            self.counters.renamed += 1;
            self.counters.rob_writes += 1;
            self.counters.iq_inserts += 1;
            n += 1;
        }
    }

    /// Enters the freshly dispatched entry at trace position `idx` into
    /// the select structures: it links under each unissued producer and
    /// takes the latest completion of the issued ones as its ready time.
    /// With no producer pending it is scheduled at once.
    #[inline(always)]
    fn link_operands(&mut self, idx: usize) {
        let s = idx & (RING - 1);
        let mut pending = 0u8;
        let mut ready_at = 0u64;
        for (operand, d) in [self.src1[idx], self.src2[idx]].into_iter().enumerate() {
            if d == 0 {
                continue;
            }
            let p = idx - d as usize;
            if p < self.committed {
                continue;
            }
            let ps = p & (RING - 1);
            let done = self.complete[ps];
            if done == u64::MAX {
                let link = ((s << 1) | operand) as u32;
                self.dep_next[link as usize] = self.dep_head[ps];
                self.dep_head[ps] = link;
                pending += 1;
            } else {
                ready_at = ready_at.max(done);
            }
        }
        self.pending[s] = pending;
        self.ready_at[s] = ready_at;
        if pending == 0 {
            if ready_at <= self.cycle {
                self.set_ready(s);
            } else {
                self.wake_at(ready_at, s);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------
    #[inline(always)]
    fn fetch(&mut self) {
        // A mispredicted branch blocks fetch until it resolves, then the
        // front end refills.
        if let Some(b) = self.fetch_blocked_on {
            let done = self.completion(b);
            if done != u64::MAX && done <= self.cycle {
                self.fetch_stall_until = done + self.cons.frontend_depth as u64;
                self.fetch_blocked_on = None;
            } else {
                return;
            }
        }
        if self.cycle < self.fetch_stall_until {
            return;
        }

        let cap = FETCH_QUEUE_WIDTHS * self.cfg.width as usize;
        let n = self.kinds.len();
        let mut fetched = 0;
        while fetched < self.cfg.width
            && self.next_fetch - self.dispatched < cap
            && self.next_fetch < n
        {
            let idx = self.next_fetch;
            let pc = self.pcs[idx] as u64;

            // I-cache: one access per new line.
            let line = pc >> self.l1_line_shift;
            if line != self.last_fetch_line {
                self.counters.icache_accesses += 1;
                let outcome = self.icache.access(pc);
                self.last_fetch_line = line;
                if outcome == CacheOutcome::Miss {
                    let ready = self.l2_access(pc, self.cycle);
                    self.fetch_stall_until = ready;
                    return;
                }
            }

            let is_branch = self.metas[idx] & meta::IS_BRANCH != 0;
            let limit = self.cfg.max_branches as usize;
            if is_branch && self.unresolved_len == limit {
                // The limit binds: only now retire resolved branches from
                // the in-flight set (in place, in order).
                let mut w = 0;
                for r in 0..limit {
                    let b = self.unresolved[r];
                    self.unresolved[w] = b;
                    w += !self.branch_resolved(b) as usize;
                }
                self.unresolved_len = w;
                if w == limit {
                    return; // in-flight branch limit
                }
            }
            self.complete[idx & (RING - 1)] = u64::MAX;
            self.counters.fetched += 1;
            self.next_fetch += 1;
            fetched += 1;
            if !is_branch {
                continue;
            }
            self.counters.bpred_accesses += 1;
            self.counters.btb_accesses += 1;
            let taken = self.takens[idx];
            let target = self.targets[idx];
            let pred_taken = self.gshare.predict(pc);
            let btb_target = self.btb.lookup(pc);
            // A taken prediction is only useful with a correct target.
            let correct = if taken {
                pred_taken && btb_target == Some(target)
            } else {
                !pred_taken
            };
            self.gshare.update(pc, taken);
            if taken {
                self.btb.update(pc, target);
            }
            self.unresolved[self.unresolved_len] = idx as u32;
            self.unresolved_len += 1;
            if !correct {
                self.fetch_blocked_on = Some(idx);
                return;
            }
            if taken {
                // Redirect: correctly-predicted taken branches end the
                // fetch group.
                self.last_fetch_line = u64::MAX;
                return;
            }
        }
    }
}

/// Positions `[committed, next_fetch)` may span: ROB, fetch queue, slack.
fn window(rob: usize, width: usize) -> usize {
    rob + (FETCH_QUEUE_WIDTHS + 2) * width
}

/// A boxed `[T; N]` of `v`; a zero `v` takes the zeroed-allocation path.
fn filled<T: Clone, const N: usize>(v: T) -> Box<[T; N]> {
    vec![v; N]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!())
}

/// `(result latency, unit occupancy)` per [`InstrKind`] in discriminant
/// order: divides are not pipelined, and a load's result waits on its data.
fn exec_table(c: &ConstantParams) -> [(u64, u64); 9] {
    InstrKind::ALL.map(|kind| match kind {
        InstrKind::IntAlu | InstrKind::Branch => (c.int_alu_latency as u64, 1),
        InstrKind::IntMul => (c.int_mul_latency as u64, 1),
        InstrKind::IntDiv => (c.int_div_latency as u64, c.int_div_latency as u64),
        InstrKind::FpAlu => (c.fp_alu_latency as u64, 1),
        InstrKind::FpMul => (c.fp_mul_latency as u64, 1),
        InstrKind::FpDiv => (c.fp_div_latency as u64, c.fp_div_latency as u64),
        InstrKind::Load | InstrKind::Store => (1, 1),
    })
}

/// Set bits across a bitset's words.
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::StallProfile;
    use dse_workload::{Instr, Trace};

    fn mk_trace(instrs: Vec<Instr>) -> Trace {
        Trace::new("unit", instrs)
    }

    fn alu(pc: u32) -> Instr {
        Instr {
            kind: InstrKind::IntAlu,
            src1: 0,
            src2: 0,
            pc,
            addr: 0,
            taken: false,
            target: 0,
        }
    }

    /// Runs with a quarter of the trace as warm-up so cold-start cache
    /// misses do not dominate these steady-state microbenchmarks.
    fn run(cfg: &Config, trace: &Trace) -> SimResult {
        Pipeline::new(
            cfg,
            &ConstantParams::standard(),
            trace,
            SimOptions::with_warmup(trace.len() / 4),
        )
        .run()
    }

    /// An instruction on the single warm I-cache line the select tests
    /// fetch from (eight 4-byte slots per 32-byte line).
    fn op(i: u32, kind: InstrKind, src1: u32, src2: u32) -> Instr {
        Instr {
            kind,
            src1,
            src2,
            pc: 0x40_0000 + (i % 8) * 4,
            addr: 0x1000_0000 + i as u64 * 8,
            taken: false,
            target: 0,
        }
    }

    /// Per-instruction stage cycles and select state at dispatch.
    #[derive(Debug, Default, Clone, Copy)]
    struct Timing {
        dispatch: u64,
        issue: u64,
        commit: u64,
        pending: u8,
        ready_at: u64,
    }

    impl Pipeline<'_> {
        /// [`Pipeline::try_run`] stepping every cycle, with no idle skip:
        /// the reference the skip must match bit for bit.
        fn run_stepped(mut self) -> Result<SimResult, CheckError> {
            let warm = self.run_loop::<NoObs, false>(&mut NoObs)?;
            self.into_record(warm).map(|rec| rec.result)
        }
    }

    /// Steps `trace` on `cfg` one cycle at a time (no idle skip), checking
    /// the select invariants every cycle, and records each instruction's
    /// timing. The stepped run must take exactly as long as the
    /// idle-skipping [`Pipeline::run`].
    fn timings(cfg: &Config, instrs: Vec<Instr>) -> Vec<Timing> {
        let trace = mk_trace(instrs);
        let n = trace.len();
        let opts = SimOptions {
            warmup: 0,
            sanitize: true,
        };
        let mut p = Pipeline::new(cfg, &ConstantParams::standard(), &trace, opts);
        let mut t = vec![Timing::default(); n];
        while p.committed < n {
            let (committed, dispatched) = (p.committed, p.dispatched);
            p.step(&mut NoObs).unwrap();
            assert!(p.cycle < 100_000, "no progress");
            // Commit runs before issue and issue before dispatch, so the
            // end-of-cycle state shows what each stage did this cycle.
            t[committed..p.committed]
                .iter_mut()
                .for_each(|x| x.commit = p.cycle);
            for (x, i) in t[p.committed..p.dispatched].iter_mut().zip(p.committed..) {
                if x.issue == 0 && p.completion(i) != u64::MAX {
                    x.issue = p.cycle;
                }
            }
            for (x, i) in t[dispatched..p.dispatched].iter_mut().zip(dispatched..) {
                let s = i & (RING - 1);
                (x.dispatch, x.pending, x.ready_at) = (p.cycle, p.pending[s], p.ready_at[s]);
            }
        }
        let stepped = p.cycle;
        let skipped = Pipeline::new(cfg, &ConstantParams::standard(), &trace, opts).run();
        // The measured phase starts after cycle 1 (warm-up 0).
        assert_eq!(skipped.cycles + 1, stepped, "idle skip changed the timing");
        t
    }

    /// Every field of a result, as bits.
    fn bits(r: &SimResult) -> [u64; 8] {
        [
            r.instructions,
            r.cycles,
            r.energy_nj.to_bits(),
            r.ipc.to_bits(),
            r.l1i_miss_rate.to_bits(),
            r.l1d_miss_rate.to_bits(),
            r.l2_miss_rate.to_bits(),
            r.bpred_miss_rate.to_bits(),
        ]
    }

    /// Runs `trace` on `cfg` sanitized, idle-skipping and stepping every
    /// cycle; the two results must agree bit for bit. Returns the
    /// skipping run's stall profile.
    fn skip_matches_stepping(cfg: &Config, trace: &Trace, warmup: usize) -> StallProfile {
        let opts = SimOptions {
            warmup,
            sanitize: true,
        };
        let cons = ConstantParams::standard();
        let mut profile = StallProfile::default();
        let skipped = Pipeline::new(cfg, &cons, trace, opts)
            .try_run_full_obs(&mut profile)
            .unwrap()
            .result;
        let stepped = Pipeline::new(cfg, &cons, trace, opts)
            .run_stepped()
            .unwrap();
        assert_eq!(
            bits(&skipped),
            bits(&stepped),
            "{} on {cfg}: idle skip changed the result",
            trace.name
        );
        profile
    }

    #[test]
    fn idle_skip_over_branch_limit_waits_matches_every_cycle_stepping() {
        // Planted: every branch reads a load that misses to memory (4 KiB
        // stride), so with eight branches in flight fetch waits at the
        // limit for whole memory latencies. The branches are never taken,
        // so after warm-up they are predicted and fetch is not blocked.
        let instrs: Vec<Instr> = (0..6_000u32)
            .map(|i| {
                let pc = 0x40_0000 + (i % 64) * 4;
                match i % 4 {
                    0 => Instr {
                        kind: InstrKind::Load,
                        src1: 0,
                        src2: 0,
                        pc,
                        addr: 0x1000_0000 + i as u64 * 1024,
                        taken: false,
                        target: 0,
                    },
                    1 => Instr {
                        kind: InstrKind::Branch,
                        src1: 1,
                        src2: 0,
                        pc,
                        addr: 0,
                        taken: false,
                        target: 0,
                    },
                    _ => alu(pc),
                }
            })
            .collect();
        let trace = mk_trace(instrs);
        let cfg = Config {
            max_branches: 8,
            ..Config::baseline()
        };
        let p = skip_matches_stepping(&cfg, &trace, 1_000);
        assert!(p.fetch_stall_branch_limit > 0, "{p:?}");
        // Stepping every cycle of those waits would step ~97 % of the
        // run; skipping them leaves ~16 %.
        assert!(
            p.cycles_stepped * 4 < p.total_cycles(),
            "branch-limit waits were stepped: {p:?}"
        );

        // Step to the first skipped wait at the limit with fetch otherwise
        // free to run. Had the branch's line not been fetched yet, its
        // I-cache access would be due next cycle and nothing may be skipped.
        let opts = SimOptions::with_warmup(0);
        let mut s = Pipeline::new(&cfg, &ConstantParams::standard(), &trace, opts);
        while !(s.fetch_blocked_on.is_none()
            && s.cycle >= s.fetch_stall_until
            && s.next_fetch - s.dispatched < FETCH_QUEUE_WIDTHS * cfg.width as usize
            && s.kinds[s.next_fetch] == InstrKind::Branch
            && s.unresolved_len == 8
            && s.idle_skip() > 0)
        {
            s.step(&mut NoObs).unwrap();
            assert!(s.committed < trace.len(), "no branch-limit wait met");
        }
        s.last_fetch_line = u64::MAX;
        assert_eq!(s.idle_skip(), 0, "skipped a pending I-cache access");
    }

    #[test]
    fn lazily_retained_branches_count_as_resolved_once_committed() {
        // One branch per 32 instructions, so the in-flight list keeps
        // committed branches long after the ring reused their slots for
        // loads still waiting on memory.
        let instrs: Vec<Instr> = (0..4_000u32)
            .map(|i| {
                let pc = 0x40_0000 + (i % 256) * 4;
                if i % 32 == 0 {
                    Instr {
                        kind: InstrKind::Branch,
                        pc,
                        ..alu(pc)
                    }
                } else {
                    Instr {
                        kind: InstrKind::Load,
                        addr: 0x1000_0000 + i as u64 * 4096,
                        ..alu(pc)
                    }
                }
            })
            .collect();
        let trace = mk_trace(instrs);
        let cfg = Config {
            max_branches: 8,
            ..Config::baseline()
        };
        let opts = SimOptions {
            warmup: 0,
            sanitize: true,
        };
        let mut p = Pipeline::new(&cfg, &ConstantParams::standard(), &trace, opts);
        while p.committed < trace.len() {
            p.step(&mut NoObs).unwrap();
            let in_flight = (p.committed..p.next_fetch)
                .filter(|&i| p.kinds[i] == InstrKind::Branch && p.completion(i) > p.cycle)
                .count();
            assert_eq!(p.occupancy().branches, in_flight, "cycle {}", p.cycle);
        }
    }

    /// The `sweep` benchmark programs: cache-resident and beyond-L2.
    const SWEEP_PROGRAMS: [&str; 8] = [
        "gzip", "crafty", "sha", "bitcount", "mcf", "art", "swim", "equake",
    ];

    /// The trace of built-in program `name`, `len` instructions long.
    fn built_in_trace(name: &str, len: usize) -> Trace {
        let all = dse_workload::suites::all_benchmarks();
        let profile = all.iter().find(|p| p.name == name).unwrap();
        dse_workload::TraceGenerator::new(profile).generate(len)
    }

    #[test]
    fn idle_skip_matches_every_cycle_stepping_on_built_in_programs() {
        // Debug builds check short traces of a beyond-L2, a streaming FP
        // and a cache-resident program; release builds (a CI stage) the
        // full-length traces of every `sweep` benchmark program.
        let (names, len, warmup): (&[&str], usize, usize) = if cfg!(debug_assertions) {
            (&["mcf", "art", "gzip"], 3_000, 500)
        } else {
            (&SWEEP_PROGRAMS, 30_000, 5_000)
        };
        let mut rng = dse_rng::Xoshiro256::seed_from(0x5EED);
        let mut configs = vec![Config::baseline()];
        configs.extend(dse_space::sample_legal(&mut rng, 2));
        for name in names {
            let trace = built_in_trace(name, len);
            for cfg in &configs {
                for max_branches in [8, 16] {
                    let cfg = Config {
                        max_branches,
                        ..*cfg
                    };
                    skip_matches_stepping(&cfg, &trace, warmup);
                }
            }
        }
    }

    #[test]
    fn ring_covers_the_largest_legal_window() {
        let largest = |p: dse_space::Param| *p.def().values.last().unwrap() as usize;
        let (rob, width) = (
            largest(dse_space::Param::Rob),
            largest(dse_space::Param::Width),
        );
        assert_eq!((rob, width), (160, 8), "the grid changed: recheck RING");
        assert!(window(rob, width) <= RING);
    }

    #[test]
    fn largest_legal_window_matches_every_cycle_stepping() {
        let cfg = Config {
            width: 8,
            rob: 160,
            iq: 80,
            lsq: 80,
            rf: 160,
            rf_read: 16,
            rf_write: 8,
            ..Config::baseline()
        };
        assert!(cfg.is_legal());
        let (len, warmup) = if cfg!(debug_assertions) {
            (3_000, 500)
        } else {
            (30_000, 5_000)
        };
        let (mut hw_rob, mut hw_fetch_q) = (0, 0);
        for name in SWEEP_PROGRAMS {
            let p = skip_matches_stepping(&cfg, &built_in_trace(name, len), warmup);
            hw_rob = hw_rob.max(p.hw_rob);
            hw_fetch_q = hw_fetch_q.max(p.hw_fetch_q);
        }
        // The whole window was in flight at once on some program.
        assert_eq!((hw_rob, hw_fetch_q), (160, FETCH_QUEUE_WIDTHS * 8));
    }

    #[test]
    fn latency_table_matches_the_kind_match() {
        // The per-kind `match` the table replaced.
        fn reference(p: &mut Pipeline<'_>, kind: InstrKind, idx: usize) -> (u64, u64) {
            let (c, k) = (p.cycle, p.cons);
            match kind {
                InstrKind::IntAlu | InstrKind::Branch => (c + k.int_alu_latency as u64, c + 1),
                InstrKind::IntMul => (c + k.int_mul_latency as u64, c + 1),
                InstrKind::IntDiv => (c + k.int_div_latency as u64, c + k.int_div_latency as u64),
                InstrKind::FpAlu => (c + k.fp_alu_latency as u64, c + 1),
                InstrKind::FpMul => (c + k.fp_mul_latency as u64, c + 1),
                InstrKind::FpDiv => (c + k.fp_div_latency as u64, c + k.fp_div_latency as u64),
                InstrKind::Load => (p.data_access(p.addrs[idx], c), c + 1),
                InstrKind::Store => {
                    let _ = p.data_access(p.addrs[idx], c);
                    (c + 1, c + 1)
                }
            }
        }
        let trace = mk_trace(
            (0..)
                .zip(InstrKind::ALL)
                .map(|(i, kind)| op(i, kind, 0, 0))
                .collect(),
        );
        let (cfg, cons) = (Config::baseline(), ConstantParams::standard());
        let opts = SimOptions::with_warmup(0);
        let mut table = Pipeline::new(&cfg, &cons, &trace, opts);
        let mut matched = Pipeline::new(&cfg, &cons, &trace, opts);
        // Cold caches first (memory latency), then warm ones (L1 hits).
        for cycle in [1, 10_000] {
            (table.cycle, matched.cycle) = (cycle, cycle);
            for (idx, kind) in InstrKind::ALL.into_iter().enumerate() {
                assert_eq!(
                    table.execute_latency(trace.metas()[idx], idx),
                    reference(&mut matched, kind, idx),
                    "{kind:?} at cycle {cycle}"
                );
            }
        }
        assert_eq!(table.counters, matched.counters);
    }

    fn wide() -> Config {
        Config {
            width: 8,
            rf_read: 16,
            rf_write: 8,
            ..Config::baseline()
        }
    }

    #[test]
    fn one_producer_feeding_both_operands_wakes_its_consumer_once() {
        let t = timings(
            &wide(),
            vec![
                op(0, InstrKind::IntMul, 0, 0),
                op(1, InstrKind::IntAlu, 1, 1),
            ],
        );
        // Dispatched together: the consumer links under the unissued
        // multiply through both operands.
        assert_eq!(t[1].dispatch, t[0].dispatch);
        assert_eq!(t[1].pending, 2);
        let mul = ConstantParams::standard().int_mul_latency as u64;
        assert_eq!(t[0].issue, t[0].dispatch + 1);
        assert_eq!(t[1].issue, t[0].issue + mul);
    }

    #[test]
    fn entry_with_every_producer_issued_or_committed_schedules_at_dispatch() {
        let cfg = Config {
            width: 2,
            rf_read: 4,
            rf_write: 2,
            ..Config::baseline()
        };
        let mut instrs: Vec<Instr> = (0..12).map(|i| op(i, InstrKind::IntAlu, 0, 0)).collect();
        instrs[10] = op(10, InstrKind::IntDiv, 0, 0);
        // Reads the divide (issued, still executing) and instruction 0
        // (committed).
        instrs.push(op(12, InstrKind::IntAlu, 2, 12));
        instrs.push(op(13, InstrKind::IntAlu, 0, 0));
        instrs.push(op(14, InstrKind::IntAlu, 0, 0));
        // Reads instruction 11 (issued and complete, not yet committed:
        // the older divide holds the ROB head).
        instrs.push(op(15, InstrKind::IntAlu, 4, 0));
        let t = timings(&cfg, instrs);
        let div = ConstantParams::standard().int_div_latency as u64;

        let (c, d) = (t[12], t[10]);
        assert!(t[0].commit <= c.dispatch, "instruction 0 committed first");
        assert!(d.issue <= c.dispatch && c.dispatch < d.issue + div);
        assert_eq!(c.pending, 0);
        assert_eq!(c.ready_at, d.issue + div);
        assert_eq!(c.issue, d.issue + div);

        let (c2, f) = (t[15], t[11]);
        assert!(f.issue < c2.dispatch && c2.dispatch < f.commit);
        assert_eq!(c2.pending, 0);
        assert!(c2.ready_at <= c2.dispatch, "operand already available");
        assert_eq!(c2.issue, c2.dispatch + 1);
    }

    #[test]
    fn older_entry_blocked_on_read_ports_lets_a_younger_one_issue() {
        let cfg = Config {
            rf_read: 2,
            ..Config::baseline()
        };
        let t = timings(
            &cfg,
            vec![
                op(0, InstrKind::IntAlu, 0, 0),
                op(1, InstrKind::IntAlu, 1, 0), // one read
                op(2, InstrKind::IntAlu, 2, 2), // two reads: over the ports
                op(3, InstrKind::IntAlu, 3, 0), // one read: fits
            ],
        );
        assert!(t.iter().all(|x| x.dispatch == t[0].dispatch));
        let ready = t[0].issue + 1;
        assert_eq!(t[1].issue, ready);
        assert_eq!(
            t[3].issue, ready,
            "younger entry issues past the blocked one"
        );
        assert_eq!(t[2].issue, ready + 1);
    }

    #[test]
    fn older_entry_blocked_on_cache_ports_lets_a_younger_one_issue() {
        let ports = ConstantParams::standard().mem_ports;
        assert_eq!(ports, 2, "the trace below saturates two cache ports");
        let t = timings(
            &wide(),
            vec![
                op(0, InstrKind::IntAlu, 0, 0),
                op(1, InstrKind::Load, 1, 0),
                op(2, InstrKind::Load, 2, 0),
                op(3, InstrKind::Load, 3, 0), // third memory op: no port
                op(4, InstrKind::IntAlu, 4, 0),
            ],
        );
        let ready = t[0].issue + 1;
        assert_eq!((t[1].issue, t[2].issue), (ready, ready));
        assert_eq!(
            t[4].issue, ready,
            "younger entry issues past the blocked one"
        );
        assert_eq!(t[3].issue, ready + 1);
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        let trace = mk_trace((0..4000).map(|i| alu(0x40_0000 + (i % 512) * 4)).collect());
        let cfg = Config {
            width: 8,
            rf_read: 16,
            rf_write: 8,
            ..Config::baseline()
        };
        let r = run(&cfg, &trace);
        assert!(r.ipc > 4.0, "ipc {}", r.ipc);
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let mut instrs: Vec<Instr> = (0..4000).map(|i| alu(0x40_0000 + (i % 512) * 4)).collect();
        for ins in instrs.iter_mut().skip(1) {
            ins.src1 = 1; // each depends on its predecessor
        }
        let r = run(&Config::baseline(), &mk_trace(instrs));
        assert!(r.ipc <= 1.05, "ipc {}", r.ipc);
        assert!(r.ipc > 0.5, "ipc {}", r.ipc);
    }

    #[test]
    fn wider_machine_is_faster_on_parallel_code() {
        let trace = mk_trace((0..6000).map(|i| alu(0x40_0000 + (i % 512) * 4)).collect());
        let narrow = run(
            &Config {
                width: 2,
                rf_read: 4,
                rf_write: 2,
                ..Config::baseline()
            },
            &trace,
        );
        let wide = run(
            &Config {
                width: 8,
                rf_read: 16,
                rf_write: 8,
                ..Config::baseline()
            },
            &trace,
        );
        assert!(
            wide.cycles * 2 < narrow.cycles,
            "wide {} narrow {}",
            wide.cycles,
            narrow.cycles
        );
    }

    #[test]
    fn write_ports_throttle_completion() {
        let trace = mk_trace((0..4000).map(|i| alu(0x40_0000 + (i % 256) * 4)).collect());
        let few = run(
            &Config {
                width: 8,
                rf_read: 16,
                rf_write: 1,
                ..Config::baseline()
            },
            &trace,
        );
        let many = run(
            &Config {
                width: 8,
                rf_read: 16,
                rf_write: 8,
                ..Config::baseline()
            },
            &trace,
        );
        assert!(
            few.cycles > many.cycles * 3,
            "few {} many {}",
            few.cycles,
            many.cycles
        );
    }

    #[test]
    fn load_misses_cost_memory_latency() {
        // Strided loads over 16 MB: miss in every level.
        let instrs: Vec<Instr> = (0..2000)
            .map(|i| Instr {
                kind: InstrKind::Load,
                src1: 0,
                src2: 0,
                pc: 0x40_0000 + (i % 64) * 4,
                addr: 0x1000_0000 + i as u64 * 4096,
                taken: false,
                target: 0,
            })
            .collect();
        let r = run(&Config::baseline(), &mk_trace(instrs));
        assert!(r.l1d_miss_rate > 0.95, "l1d miss {}", r.l1d_miss_rate);
        assert!(r.l2_miss_rate > 0.95, "l2 miss {}", r.l2_miss_rate);
        // Bandwidth-bound: at least the bus occupancy per measured load.
        assert!(
            r.cycles > r.instructions * 15,
            "cycles {} too low for memory-bound",
            r.cycles
        );
    }

    #[test]
    fn cache_hits_are_fast() {
        let instrs: Vec<Instr> = (0..4000)
            .map(|i| Instr {
                kind: InstrKind::Load,
                src1: 0,
                src2: 0,
                pc: 0x40_0000 + (i % 64) * 4,
                addr: 0x1000_0000 + (i as u64 % 64) * 8,
                taken: false,
                target: 0,
            })
            .collect();
        let r = run(&Config::baseline(), &mk_trace(instrs));
        assert!(r.l1d_miss_rate < 0.01, "l1d miss {}", r.l1d_miss_rate);
        assert!(r.ipc > 1.0, "ipc {}", r.ipc);
    }

    #[test]
    fn mispredicted_branches_cost_bubbles() {
        // Alternating taken/not-taken is learnable; random is not. Compare
        // a predictable stream against a data-random one.
        let mk = |random: bool| {
            let mut rng = dse_rng::Xoshiro256::seed_from(7);
            let instrs: Vec<Instr> = (0..6000u32)
                .map(|i| {
                    if i % 4 == 3 {
                        let taken = if random { rng.next_bool(0.5) } else { true };
                        Instr {
                            kind: InstrKind::Branch,
                            src1: 1,
                            src2: 0,
                            pc: 0x40_0000 + (i % 256) * 4,
                            addr: 0,
                            taken,
                            target: 0x40_0000 + ((i + 1) % 256) * 4,
                        }
                    } else {
                        alu(0x40_0000 + (i % 256) * 4)
                    }
                })
                .collect();
            mk_trace(instrs)
        };
        let predictable = run(&Config::baseline(), &mk(false));
        let random = run(&Config::baseline(), &mk(true));
        assert!(
            random.cycles as f64 > predictable.cycles as f64 * 1.5,
            "random {} predictable {}",
            random.cycles,
            predictable.cycles
        );
        assert!(random.bpred_miss_rate > 0.3);
        assert!(predictable.bpred_miss_rate < 0.1);
    }

    #[test]
    fn energy_is_positive_and_scales_with_work() {
        // Same warm-up on both runs, so the measured (steady-state) energy
        // must scale with the measured instruction count.
        let mk = |n: u32| mk_trace((0..n).map(|i| alu(0x40_0000 + (i % 128) * 4)).collect());
        let opts = SimOptions::with_warmup(500);
        let cons = ConstantParams::standard();
        let short = Pipeline::new(&Config::baseline(), &cons, &mk(1500), opts).run();
        let long = Pipeline::new(&Config::baseline(), &cons, &mk(4000), opts).run();
        assert!(short.energy_nj > 0.0);
        let per_instr_short = short.energy_nj / short.instructions as f64;
        let per_instr_long = long.energy_nj / long.instructions as f64;
        let ratio = per_instr_long / per_instr_short;
        assert!(
            (0.8..1.2).contains(&ratio),
            "per-instruction energy not stable: {ratio}"
        );
    }

    #[test]
    fn warmup_is_excluded_from_measured_instructions() {
        let trace = mk_trace((0..3000).map(|i| alu(0x40_0000 + (i % 128) * 4)).collect());
        let r = Pipeline::new(
            &Config::baseline(),
            &ConstantParams::standard(),
            &trace,
            SimOptions::with_warmup(1000),
        )
        .run();
        assert_eq!(r.instructions, 2000);
    }

    #[test]
    #[should_panic(expected = "longer than the warm-up")]
    fn warmup_longer_than_trace_panics() {
        let trace = mk_trace(vec![alu(0x40_0000)]);
        let _ = Pipeline::new(
            &Config::baseline(),
            &ConstantParams::standard(),
            &trace,
            SimOptions::with_warmup(10),
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = dse_workload::Profile::template("d", dse_workload::Suite::SpecCpu2000, 5);
        let trace = dse_workload::TraceGenerator::new(&p).generate(8_000);
        let a = run(&Config::baseline(), &trace);
        let b = run(&Config::baseline(), &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn small_rf_strangles_a_wide_machine() {
        let p = dse_workload::Profile::template("rf", dse_workload::Suite::SpecCpu2000, 6);
        let trace = dse_workload::TraceGenerator::new(&p).generate(8_000);
        let small = run(
            &Config {
                rf: 40,
                ..Config::baseline()
            },
            &trace,
        );
        let large = run(
            &Config {
                rf: 160,
                ..Config::baseline()
            },
            &trace,
        );
        assert!(
            small.cycles > large.cycles * 11 / 10,
            "small {} large {}",
            small.cycles,
            large.cycles
        );
    }
}
