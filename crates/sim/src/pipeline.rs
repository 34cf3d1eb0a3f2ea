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
//! structure is a fixed-capacity buffer sized from the [`Config`] at
//! construction:
//!
//! * the trace is borrowed as structure-of-arrays columns (shared by all
//!   sweep simulations of a benchmark), including a precomputed decode
//!   byte per instruction ([`dse_workload::meta`]);
//! * the ROB and fetch queue hold *consecutive* trace positions by
//!   construction (fetch, dispatch and commit are all in program order),
//!   so both are plain counters: ROB = `[committed, dispatched)`,
//!   fetch queue = `[dispatched, next_fetch)`;
//! * completion times live in a power-of-two ring indexed by trace
//!   position, sized to cover the in-flight window (ROB + fetch queue);
//!   positions below the commit watermark are complete by definition;
//! * the issue queue is a fixed array compacted in program order during
//!   the issue scan: entries stay dense and age-sorted for free, and a
//!   cached per-entry ready bound rules most of them out on one compare.
//!   (A fixed-slot layout with a vectorized SSE2 ready sweep was
//!   prototyped and measured: parity on large queues — the scan is
//!   latency-bound on its completion-ring probes, not compare
//!   throughput — and ~1.4× *slower* on small stall-heavy queues, where
//!   the per-scan sweep/sort constant dwarfs the handful of entries the
//!   compaction touches. The compacting scan won on evidence.);
//! * the wakeup heap is a tagged wheel indexed by completion cycle: slot
//!   `t & (WHEEL-1)` holds `t` while a completion is scheduled there, and
//!   the issue stage probes exactly one slot per cycle.
//!
//! On top of the layout, the cycle loop fast-forwards over provably idle
//! cycles ([`Pipeline::idle_skip`]): the issue scan publishes
//! conservative [`PENDING`]-flagged completion lower bounds for unissued
//! entries, caches a per-entry ready bound (`iq_ready`) with a
//! queue-wide minimum (`iq_min_ready`) that elides fruitless scans, and
//! a monotone `wake_floor` frontier bounds the wheel scan. All bounds
//! are conservative — they move *when* work is examined, never what it
//! computes — so metrics are bit-identical to stepping every cycle
//! (pinned by `tests/golden_sim.rs`).

use crate::branch::{Btb, Gshare};
use crate::cache::{Cache, CacheOutcome};
use crate::check::{self, Bounds, CheckError, InvariantChecker, Occupancy};
use crate::energy::{EnergyCounters, EnergyModel};
use crate::obs::{CycleObs, NoObs, SimObs};
use crate::timing::{MemorySpec, SramSpec};
use dse_space::{Config, ConstantParams};
use dse_workload::{meta, InstrKind, Trace};
/// Architectural registers reserved out of the physical register file.
const ARCH_REGS: u32 = 32;
/// Fetch-queue capacity in multiples of the width.
const FETCH_QUEUE_WIDTHS: usize = 4;
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
/// not cover the worst-case completion horizon: each slot stores its
/// exact target cycle, so beyond-horizon events simply spill to
/// `wheel_overflow` and migrate in lazily. 8 Ki slots (64 KiB of tags +
/// 1 KiB of summary bits) covers all but deep memory-backlog
/// completions while staying host-cache resident (a 2 Ki wheel was
/// tried and measured at parity — kept at the writeback ring's size so
/// [`MAX_IDLE_SKIP`] has headroom). Must be ≥ [`MAX_IDLE_SKIP`] so the
/// idle scan's staleness-clearing argument holds (see
/// [`Pipeline::idle_skip`]).
const WAKE_WHEEL: usize = 1 << 13;
/// Largest per-class functional-unit pool (`int_alu` = width ≤ 8).
const MAX_FU: usize = 8;
/// High bit of a completion-ring slot: the value is a *lower bound* on an
/// unissued instruction's completion (published by the issue scan for its
/// dependants), not a scheduled completion. Flagged values exceed every
/// reachable cycle, so commit, fetch-unblock, branch-retire and idle-skip
/// treat them exactly like the `u64::MAX` "unscheduled" sentinel; only
/// the issue scan strips the flag to chain readiness bounds.
const PENDING: u64 = 1 << 63;
/// Upper bound on one idle fast-forward step ([`Pipeline::idle_skip`]):
/// small enough that lazily-migrated beyond-horizon completions are never
/// overrun and a fruitless wheel scan stays cheap, large enough to clear
/// any realistic memory-stall gap in one step (longer stalls take a few
/// steps — skipped cycles mutate nothing, so the split is invisible).
/// Must not exceed [`WAKE_WHEEL`]: one idle scan then never wraps the
/// wheel, which is what lets it clear summary bits for slots it proves
/// empty.
const MAX_IDLE_SKIP: u64 = 4096;
const _: () = assert!(MAX_IDLE_SKIP as usize <= WAKE_WHEEL);

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

/// A co-runner's L1-filtered L2 address stream, injected one access per
/// own L2 access (round-robin arbitration with wrap-around) to model a
/// second program sharing this lane's L2. Intruder accesses pollute the
/// shared L2 contents and occupy L2/memory slots, but are tracked
/// separately so the lane's own counters, miss rates, and energy stay
/// own-only (see [`Pipeline::set_intruder`]).
#[derive(Debug)]
struct IntruderLane {
    addrs: Vec<u64>,
    pos: usize,
    accesses: u64,
    misses: u64,
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
    /// a power-of-two ring indexed by `idx & cmask`; `u64::MAX` from fetch
    /// until scheduled. Positions below `committed` are complete by
    /// definition (commit requires completion), so the window
    /// `[committed, next_fetch)` — which the ring is sized to cover — is
    /// the only range ever consulted.
    complete: Box<[u64]>,
    cmask: usize,

    /// In-order stage cursors over trace positions. The ROB is
    /// `[committed, dispatched)` and the fetch queue `[dispatched,
    /// next_fetch)`; both hold consecutive positions by construction, so
    /// the counters replace the queues outright.
    committed: usize,
    dispatched: usize,
    next_fetch: usize,

    /// Issue-queue entries (trace positions), dense and in program order:
    /// the issue scan compacts survivors in place, so age priority falls
    /// out of array order and removal costs nothing extra.
    iq: Box<[u32]>,
    /// Cached earliest-ready lower bound per `iq` entry (parallel array).
    /// `0` = not yet known. An unexpired bound rules an entry out on one
    /// compare; an expired one forces a re-probe of the completion ring
    /// (bounds under [`PENDING`] are conservative).
    iq_ready: Box<[u64]>,
    /// Live entries in `iq`/`iq_ready`.
    iq_len: usize,
    /// Minimum completion latency per [`InstrKind`] (indexed by the
    /// kind's discriminant): issuing at cycle `c` completes no earlier
    /// than `c + min_lat[kind]`. Tightens the [`PENDING`] chain bounds
    /// the issue scan publishes for unissued entries — a dependant is
    /// then not re-probed during the producer's execute window. Loads use
    /// the L1-hit latency (every slower outcome is later); stores
    /// complete in one cycle; everything else uses its fixed unit
    /// latency, which non-pipelined units and writeback-port queueing can
    /// only exceed.
    min_lat: [u64; 9],
    lsq_occ: u32,
    phys_used: u32,
    rename_regs: u32,

    fetch_stall_until: u64,
    fetch_blocked_on: Option<usize>,
    last_fetch_line: u64,
    /// In-flight (unresolved) branch positions; fixed capacity
    /// `cfg.max_branches`.
    unresolved: Box<[u32]>,
    unresolved_len: usize,

    /// Per-FU-class `busy_until` times: int ALU, int mul/div, FP ALU,
    /// FP mul/div. Fixed arrays; `fu_len` holds the pool sizes.
    fu_busy: [[u64; MAX_FU]; 4],
    fu_len: [u8; 4],

    /// Writeback-port reservations, a ring indexed by cycle: a slot is
    /// live while `wb_tag` holds its cycle (0 = free: reservations are
    /// strictly positive cycles), with `wb_used` ports taken. Zeroed
    /// arrays keep construction on the allocator's zero-page fast path.
    wb_tag: Box<[u64]>,
    /// Ports taken per live `wb_tag` slot; `rf_write <= width <= 8` fits
    /// a byte, keeping the ring's random probes to a quarter the lines.
    wb_used: Box<[u8]>,

    l2_free_at: u64,
    mem_free_at: u64,

    /// When `Some`, every L2-reaching address (the L1-filtered stream)
    /// is recorded in issue order — the co-run driver's capture pass.
    /// `None` (the default) leaves the hot path untouched.
    l2_capture: Option<Vec<u64>>,
    /// When `Some`, a co-runner's address stream is interleaved into the
    /// L2 round-robin (one intruder access per own access). `None` (the
    /// default) is bit-identical to a solo run.
    intruder: Option<IntruderLane>,
    /// True when either `l2_capture` or `intruder` is armed; the one
    /// flag the solo L2 hot path checks before taking the hooked route.
    corun_hooks: bool,

    /// Stage-timing scratch: ticks spent in writeback-port reservation
    /// this cycle. Written only under `SimObs::STAGE_TIMING` (the issue
    /// stage accumulates, the run loop drains); dead otherwise.
    wb_ticks: u64,

    /// Set when an issue attempt failed on a structural hazard (ports,
    /// units, width); forces a rescan next cycle.
    structural_block: bool,
    /// Set by dispatch when entries have landed since the last issue
    /// scan. Fresh entries carry bound `0`, so the next scan picks them
    /// up regardless of `iq_min_ready`; this flag is what forces that
    /// scan (and pins the idle fast-forward) until it runs.
    scan_dirty: bool,
    /// Wakeup wheel: slot `t & (WAKE_WHEEL-1)` holds `t` while a
    /// completion is scheduled at cycle `t`. Stale tags are simply never
    /// equal to the probing cycle, so no clearing pass is needed.
    wheel: Box<[u64]>,
    /// One bit per wheel slot, set when the slot *may* hold a live future
    /// completion (a pure cache over `wheel`: bits go stale when a tag is
    /// overwritten or expires, and are lazily cleared by the idle scan).
    /// Lets [`Pipeline::idle_skip`] sweep 64 slots per word read.
    wheel_bits: Box<[u64]>,
    /// Completions scheduled beyond the wheel horizon (unreachable for
    /// legal configurations; kept so the wheel cannot silently alias).
    wheel_overflow: Vec<u64>,
    /// Scan frontier for [`Pipeline::idle_skip`]: no wheel slot holds a
    /// value `v` with `cycle < v < wake_floor`. Lowered whenever a wake is
    /// scheduled below it, raised as idle scans prove ranges empty — so
    /// consecutive skips never re-read slots already known to be clear.
    wake_floor: u64,
    /// Minimum of `iq_ready` over the current queue (`u64::MAX` when
    /// empty): a lower bound on the earliest cycle *any* queued entry can
    /// become ready. A wakeup below it provably issues nothing, so both
    /// the issue scan and the idle fast-forward ignore such events.
    iq_min_ready: u64,

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
    /// configuration is illegal.
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
        let fetch_cap = FETCH_QUEUE_WIDTHS * cfg.width as usize;
        // The completion ring must cover every position in
        // `[committed, next_fetch)` plus slack for same-cycle transitions.
        let window = cfg.rob as usize + fetch_cap + 2 * cfg.width as usize;
        let csize = window.next_power_of_two();
        // Indexed by `InstrKind` discriminant order: IntAlu, IntMul,
        // IntDiv, FpAlu, FpMul, FpDiv, Load, Store, Branch.
        let min_lat = [
            cons.int_alu_latency as u64,
            cons.int_mul_latency as u64,
            cons.int_div_latency as u64,
            cons.fp_alu_latency as u64,
            cons.fp_mul_latency as u64,
            cons.fp_div_latency as u64,
            l1d_spec.latency_cycles() as u64,
            1,
            cons.int_alu_latency as u64,
        ];
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
            complete: vec![u64::MAX; csize].into_boxed_slice(),
            cmask: csize - 1,
            committed: 0,
            dispatched: 0,
            next_fetch: 0,
            iq: vec![0; cfg.iq as usize].into_boxed_slice(),
            iq_ready: vec![0; cfg.iq as usize].into_boxed_slice(),
            iq_len: 0,
            min_lat,
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
            wb_tag: vec![0; WB_RING].into_boxed_slice(),
            wb_used: vec![0; WB_RING].into_boxed_slice(),
            l2_free_at: 0,
            mem_free_at: 0,
            l2_capture: None,
            intruder: None,
            corun_hooks: false,
            wb_ticks: 0,
            structural_block: false,
            scan_dirty: true,
            wheel: vec![0; WAKE_WHEEL].into_boxed_slice(),
            wheel_bits: vec![0; WAKE_WHEEL / 64].into_boxed_slice(),
            wake_floor: 1,
            iq_min_ready: u64::MAX,
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
            branches: self.unresolved_len,
            fetched: self.next_fetch,
            committed: self.committed,
        }
    }

    /// Completion cycle of in-flight position `idx` (ring lookup).
    #[inline]
    fn completion(&self, idx: usize) -> u64 {
        self.complete[idx & self.cmask]
    }

    /// Earliest cycle at which the operand `d` instructions back from
    /// `idx` can become available: 0 when absent or already committed
    /// (ready now), the scheduled completion once the producer has issued,
    /// a [`PENDING`]-published lower bound while it sits in the IQ, and
    /// `cycle + 1` when nothing is known. The operand is ready exactly
    /// when the bound is `<= self.cycle` (unknown/pending bounds are
    /// always in the future).
    #[inline]
    fn op_bound(&self, idx: usize, d: u32) -> u64 {
        if d == 0 {
            return 0;
        }
        let p = idx - d as usize;
        if p < self.committed {
            return 0;
        }
        let v = self.complete[p & self.cmask];
        if v == u64::MAX {
            self.cycle + 1
        } else if v & PENDING != 0 {
            // An expired lower bound proves nothing: the producer is still
            // unissued, so the operand is at least a cycle away.
            (v & !PENDING).max(self.cycle + 1)
        } else {
            v
        }
    }

    /// Writes wheel slot for cycle `t` (tag + summary bit + floor).
    #[inline]
    fn set_wheel(&mut self, t: u64) {
        let slot = (t as usize) & (WAKE_WHEEL - 1);
        self.wheel[slot] = t;
        self.wheel_bits[slot >> 6] |= 1 << (slot & 63);
        if t < self.wake_floor {
            self.wake_floor = t;
        }
    }

    /// Schedules a wakeup probe for completion cycle `t` (strictly in the
    /// future: every latency is ≥ 1 cycle).
    #[inline]
    fn wake_at(&mut self, t: u64) {
        if t - self.cycle < WAKE_WHEEL as u64 {
            self.set_wheel(t);
        } else {
            self.wheel_overflow.push(t);
        }
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
        let warm = self.run_loop(obs)?;
        self.into_record(warm)
    }

    /// Arms L2 stream capture: the run records every L2-reaching address
    /// (the L1-filtered stream, in issue order). Capture changes no
    /// timing or accounting — the run stays bit-identical to an unarmed
    /// one. Retrieve the stream with [`Pipeline::try_run_full_captured`].
    pub fn capture_l2_stream(&mut self) {
        self.l2_capture = Some(Vec::new());
        self.corun_hooks = true;
    }

    /// Injects `addrs` as a co-running intruder sharing this lane's L2:
    /// after each own L2 access, the next intruder address (round-robin
    /// over `addrs`, wrapping) takes an L2 slot — and, when it misses, a
    /// memory slot — so the own lane queues behind it, and the shared L2
    /// contents reflect both programs. Intruder events are accounted
    /// separately: the lane's counters, miss rates and energy remain
    /// own-only. An empty stream is ignored (no co-runner).
    pub fn set_intruder(&mut self, addrs: Vec<u64>) {
        if !addrs.is_empty() {
            self.intruder = Some(IntruderLane {
                addrs,
                pos: 0,
                accesses: 0,
                misses: 0,
            });
            self.corun_hooks = true;
        }
    }

    /// Like [`Pipeline::try_run_full`], additionally returning the L2
    /// address stream recorded by [`Pipeline::capture_l2_stream`]
    /// (empty if capture was never armed).
    pub fn try_run_full_captured(mut self) -> Result<(RunRecord, Vec<u64>), CheckError> {
        let warm = self.run_loop(&mut NoObs)?;
        let stream = self.l2_capture.take().unwrap_or_default();
        let record = self.into_record(warm)?;
        Ok((record, stream))
    }

    /// Steps the machine until the whole trace has committed, returning
    /// the statistics snapshot taken at the end of warm-up.
    fn run_loop<O: SimObs>(&mut self, obs: &mut O) -> Result<WarmSnapshot, CheckError> {
        let warmup = self.options.warmup;
        let n = self.kinds.len();
        let mut warm: Option<WarmSnapshot> = None;
        // Last cycle that committed anything (deadlock watchdog).
        let mut last_commit_cycle = 0;

        while self.committed < n {
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

            // Stage brackets: one clock read per stage boundary, gated
            // on the monomorphised `STAGE_TIMING` constant so the
            // default (and stall-profiled) loops compile unchanged.
            let t0 = if O::STAGE_TIMING {
                crate::obs::stage_clock()
            } else {
                0
            };
            let committed_now = self.commit();
            let t1 = if O::STAGE_TIMING {
                crate::obs::stage_clock()
            } else {
                0
            };
            if committed_now > 0 {
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

            self.issue::<O>();
            let t2 = if O::STAGE_TIMING {
                crate::obs::stage_clock()
            } else {
                0
            };
            self.dispatch();
            let t3 = if O::STAGE_TIMING {
                crate::obs::stage_clock()
            } else {
                0
            };
            self.fetch();

            if O::STAGE_TIMING {
                let t4 = crate::obs::stage_clock();
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
                    trace_exhausted: self.next_fetch >= n,
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
                }
            }

            if warm.is_none() && self.committed >= warmup {
                warm = Some(self.warm_snapshot());
            }

            // Event-driven fast-forward: jump the clock over cycles in
            // which no stage can act. Skipped cycles mutate no state, so
            // results are bit-identical to stepping through them.
            if self.committed < n {
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
            l2_miss_rate: {
                let (own_acc, own_miss) = self.own_l2_stats();
                rate(own_acc, own_miss, w.l2.0, w.l2.1)
            },
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
        // The L2 totals include any co-running intruder's accesses; the
        // lane's own counters must match the own share exactly.
        let (own_l2_acc, own_l2_miss) = self.own_l2_stats();
        check::reconcile("l2-accesses", c.l2_accesses, own_l2_acc)?;
        check::reconcile(
            "l1-misses-feed-l2",
            own_l2_acc,
            ic_miss + self.dcache.misses(),
        )?;
        check::reconcile("l2-misses-feed-memory", c.memory_accesses, own_l2_miss)?;
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
            l2: self.own_l2_stats(),
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
    /// * issue acts only on a wakeup-wheel event, a pending rescan
    ///   (a fresh dispatch, `scan_dirty`) or a structural retry
    ///   (`structural_block`);
    /// * commit acts only when the ROB head's completion cycle arrives —
    ///   known from the ring, or wake-gated for an unissued head;
    /// * dispatch acts only when the fetch queue is non-empty and its head
    ///   clears the ROB/IQ/LSQ/register caps, all of which change only
    ///   via commit, issue or fetch;
    /// * fetch acts only when unblocked (mispredict resolution is a wheel
    ///   event), unstalled (`fetch_stall_until` is known), the queue has
    ///   room (dispatch-gated) and trace instructions remain. Deferring
    ///   its per-cycle resolved-branch retire is invisible: the retained
    ///   set at the landing cycle is the same either way, and no fetch
    ///   (hence no ring reuse) happens in between.
    ///
    /// Skipped cycles therefore mutate no state — every counter, cache,
    /// predictor and queue is bit-identical to stepping one by one; only
    /// the clock advances, by the same amount either way. (The method is
    /// `&mut self` solely to advance the `wake_floor` scan frontier, a
    /// pure cache over the wheel's contents.)
    fn idle_skip(&mut self) -> u64 {
        if self.scan_dirty || self.structural_block {
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
            // An issued mispredict resolves at its exact completion; its
            // wakeup may be filtered below as fruitless for the IQ, so
            // bound the skip here. (Unissued: gated by `iq_min_ready`.)
            if done != u64::MAX && done & PENDING == 0 {
                bound = bound.min(done);
            }
        } else if self.cycle < self.fetch_stall_until {
            bound = bound.min(self.fetch_stall_until);
        } else if self.next_fetch < self.kinds.len()
            && self.next_fetch - self.dispatched < FETCH_QUEUE_WIDTHS * self.cfg.width as usize
        {
            // Fetch can act (conservatively includes branch-limit waits).
            return 0;
        }
        // The ROB head's completion bounds the skip; an unissued head
        // commits only after a wake-driven issue. A width-limited commit
        // can leave the head already complete (`done <= cycle`), in which
        // case commit acts next cycle and the skip collapses to zero.
        if self.committed < self.dispatched {
            let done = self.completion(self.committed);
            if done != u64::MAX {
                if done <= self.cycle {
                    return 0;
                }
                bound = bound.min(done);
            }
        }
        // Beyond-horizon completions migrate lazily in issue(); never
        // skip past one (the list is almost always empty).
        for &t in &self.wheel_overflow {
            bound = bound.min(t);
        }
        // The earliest scheduled wakeup bounds everything else: scan the
        // wheel across the candidate gap using the per-slot summary
        // bitmap — 64 slots per word read, so a long empty gap costs a
        // handful of loads — with the `wake_floor` frontier making it
        // incremental: slots a previous scan already proved empty are
        // never re-read. Wakeups below `iq_min_ready` are skipped over:
        // the issue scan they would trigger is provably fruitless, and
        // every other stage's obligation is bounded explicitly above. A
        // filtered wakeup ends up behind the landing cycle
        // (`target - 1`), so advancing the frontier over it can never
        // hide a still-future event. (The scan range is < MAX_IDLE_SKIP
        // < WAKE_WHEEL, and any tag in a scanned slot that differs from
        // the probe cycle is provably stale — an equal-slot *future*
        // cycle would have been beyond the wheel horizon at scheduling
        // time — so clearing its summary bit is safe.)
        let mut target = bound;
        let mut t = (self.cycle + 1).max(self.wake_floor);
        while t < target {
            let slot = (t as usize) & (WAKE_WHEEL - 1);
            let word = slot >> 6;
            let off = slot & 63;
            let rem = self.wheel_bits[word] >> off;
            if rem == 0 {
                t += (64 - off) as u64;
                continue;
            }
            let step = rem.trailing_zeros() as u64;
            if step > 0 {
                t += step;
                continue;
            }
            if self.wheel[slot] == t && t >= self.iq_min_ready {
                target = t;
                break;
            }
            // Stale tag, or a filtered wakeup the skip passes over — the
            // slot lands behind the frontier either way.
            self.wheel_bits[word] &= !(1u64 << off);
            t += 1;
        }
        self.wake_floor = target;
        target - (self.cycle + 1)
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------
    fn commit(&mut self) -> u32 {
        let mut n = 0;
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
            if m & meta::IS_MEM != 0 {
                self.lsq_occ -= 1;
            }
            if m & meta::HAS_DEST != 0 {
                self.phys_used -= 1;
            }
            self.counters.rob_reads += 1;
            self.committed += 1;
            n += 1;
        }
        n
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------
    fn issue<O: SimObs>(&mut self) {
        // Probe the wakeup wheel; a scan is only worthwhile when something
        // changed (a completion landed, a dispatch happened, or the last
        // scan failed on a structural hazard that time alone resolves).
        let mut woke = self.wheel[(self.cycle as usize) & (WAKE_WHEEL - 1)] == self.cycle;
        if !self.wheel_overflow.is_empty() {
            let cycle = self.cycle;
            let mut i = 0;
            while i < self.wheel_overflow.len() {
                let t = self.wheel_overflow[i];
                if t <= cycle {
                    woke = true;
                    self.wheel_overflow.swap_remove(i);
                } else if t - cycle < WAKE_WHEEL as u64 {
                    self.set_wheel(t);
                    self.wheel_overflow.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        if !woke && !self.scan_dirty && !self.structural_block {
            return;
        }
        // A wakeup with every cached ready bound still in the future is
        // provably fruitless: bounds are conservative (an entry is never
        // ready before its bound), so the scan would keep every entry and
        // issue nothing. Bounds affect only when work happens, never its
        // outcome, so eliding the scan is bit-exact.
        if !self.scan_dirty && !self.structural_block && self.iq_min_ready > self.cycle {
            return;
        }
        self.scan_dirty = false;
        self.structural_block = false;

        let cycle = self.cycle;
        let mut min = u64::MAX;
        let mut issued = 0u32;
        let mut reads_used = 0u32;
        let mut mem_ports_used = 0u32;
        let len = self.iq_len;
        let mut r = 0usize;
        let mut w = 0usize;
        while r < len {
            if issued >= self.cfg.width {
                break;
            }
            let idx = self.iq[r] as usize;
            let rt = self.iq_ready[r];
            r += 1;

            // Operand readiness (results forward the cycle they complete):
            // an unexpired cached lower bound rules the entry out on one
            // compare; otherwise re-derive the bound from the ring.
            if rt > cycle {
                self.iq[w] = idx as u32;
                self.iq_ready[w] = rt;
                min = min.min(rt);
                w += 1;
                continue;
            }
            let d1 = self.src1[idx];
            let d2 = self.src2[idx];
            let rt = self.op_bound(idx, d1).max(self.op_bound(idx, d2));
            if rt > cycle {
                // Not ready: cache the ready bound and publish a completion
                // lower bound (ready + the kind's minimum latency) so that
                // dependants — later in this same program-ordered scan and
                // in later scans — bound whole chains without re-probing.
                self.iq[w] = idx as u32;
                self.iq_ready[w] = rt;
                self.complete[idx & self.cmask] =
                    (rt + self.min_lat[self.kinds[idx] as usize]) | PENDING;
                min = min.min(rt);
                w += 1;
                continue;
            }

            // Register-file read ports.
            let nsrc = (d1 > 0) as u32 + (d2 > 0) as u32;
            if reads_used + nsrc > self.cfg.rf_read {
                self.structural_block = true;
                self.iq[w] = idx as u32;
                self.iq_ready[w] = rt;
                min = min.min(rt);
                w += 1;
                continue;
            }

            // Cache ports for memory operations.
            let m = self.metas[idx];
            if m & meta::IS_MEM != 0 && mem_ports_used >= self.cons.mem_ports {
                self.structural_block = true;
                self.iq[w] = idx as u32;
                self.iq_ready[w] = rt;
                min = min.min(rt);
                w += 1;
                continue;
            }

            // Functional unit.
            let class = (m & meta::FU_MASK) as usize;
            let pool = self.fu_len[class] as usize;
            let Some(unit) = self.fu_busy[class][..pool].iter().position(|&b| b <= cycle) else {
                self.structural_block = true;
                self.iq[w] = idx as u32;
                self.iq_ready[w] = rt;
                min = min.min(rt);
                w += 1;
                continue;
            };

            // --- the instruction issues ---
            let (exec_done, unit_busy_until) = self.execute_latency(self.kinds[idx], idx);
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
                let slot = if O::STAGE_TIMING {
                    let w0 = crate::obs::stage_clock();
                    let slot = self.reserve_wb(exec_done);
                    self.wb_ticks += crate::obs::stage_clock().wrapping_sub(w0);
                    slot
                } else {
                    self.reserve_wb(exec_done)
                };
                self.counters.rf_writes += 1;
                self.counters.rob_writes += 1;
                slot
            } else {
                exec_done
            };
            self.complete[idx & self.cmask] = done;
            self.wake_at(done);
            issued += 1;
            if issued == self.cfg.width {
                self.structural_block = true; // width-limited: retry next cycle
            }
        }
        // Compact the unexamined tail (the scan stopped at the width limit).
        while r < len {
            self.iq[w] = self.iq[r];
            self.iq_ready[w] = self.iq_ready[r];
            min = min.min(self.iq_ready[w]);
            r += 1;
            w += 1;
        }
        self.iq_len = w;
        self.iq_min_ready = min;

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

    /// Returns `(result_ready_cycle, fu_busy_until)` for the instruction
    /// at trace position `idx` issuing this cycle.
    fn execute_latency(&mut self, kind: InstrKind, idx: usize) -> (u64, u64) {
        let c = self.cycle;
        match kind {
            InstrKind::IntAlu | InstrKind::Branch => (c + self.cons.int_alu_latency as u64, c + 1),
            InstrKind::IntMul => (c + self.cons.int_mul_latency as u64, c + 1),
            InstrKind::IntDiv => {
                let l = self.cons.int_div_latency as u64;
                (c + l, c + l) // non-pipelined
            }
            InstrKind::FpAlu => (c + self.cons.fp_alu_latency as u64, c + 1),
            InstrKind::FpMul => (c + self.cons.fp_mul_latency as u64, c + 1),
            InstrKind::FpDiv => {
                let l = self.cons.fp_div_latency as u64;
                (c + l, c + l) // non-pipelined
            }
            InstrKind::Load => {
                let ready = self.data_access(self.addrs[idx], c);
                (ready, c + 1)
            }
            InstrKind::Store => {
                // The store writes its buffer entry in one cycle; the cache
                // update (and any miss traffic) happens off the critical
                // path but still consumes hierarchy bandwidth and energy.
                let _ = self.data_access(self.addrs[idx], c);
                (c + 1, c + 1)
            }
        }
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
        // Capture/co-run hooks live in the outlined variant so the solo
        // hot path pays exactly one always-false predictable branch.
        if self.corun_hooks {
            return self.l2_access_hooked(addr, at);
        }
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

    /// [`Pipeline::l2_access`] with the stream-capture and intruder
    /// hooks live — only reached when one of them is armed.
    #[cold]
    #[inline(never)]
    fn l2_access_hooked(&mut self, addr: u64, at: u64) -> u64 {
        self.counters.l2_accesses += 1;
        if let Some(cap) = self.l2_capture.as_mut() {
            cap.push(addr);
        }
        let start = at.max(self.l2_free_at);
        self.l2_free_at = start + 2; // L2 accepts a new access every 2 cycles
        let l2_done = start + self.l2_lat;
        let hit = self.l2.access(addr) == CacheOutcome::Hit;
        // Round-robin co-runner: one intruder access follows each own
        // access, taking the next L2 slot and — on a miss — a memory
        // slot ahead of any own miss below, so the own lane feels both
        // port and bus contention as well as capacity pollution.
        if let Some(intr) = self.intruder.as_mut() {
            let ia = intr.addrs[intr.pos];
            intr.pos += 1;
            if intr.pos == intr.addrs.len() {
                intr.pos = 0;
            }
            intr.accesses += 1;
            self.l2_free_at += 2;
            if self.l2.access(ia) != CacheOutcome::Hit {
                intr.misses += 1;
                self.mem_free_at = self.mem_free_at.max(l2_done) + self.mem.occupancy as u64;
            }
        }
        if hit {
            return l2_done;
        }
        self.counters.memory_accesses += 1;
        let mstart = l2_done.max(self.mem_free_at);
        self.mem_free_at = mstart + self.mem.occupancy as u64;
        mstart + self.mem.latency as u64
    }

    /// The lane's own L2 statistics — total minus intruder, so co-run
    /// miss rates and reconciliations describe only this program.
    fn own_l2_stats(&self) -> (u64, u64) {
        match &self.intruder {
            Some(i) => (self.l2.accesses() - i.accesses, self.l2.misses() - i.misses),
            None => (self.l2.accesses(), self.l2.misses()),
        }
    }

    /// Reserves a register-file write port at or after `at`.
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
            // Append in program order; the zero bound marks the entry
            // unexamined, and `scan_dirty` forces the next scan to fold
            // it into `iq_min_ready`.
            self.iq[self.iq_len] = idx as u32;
            self.iq_ready[self.iq_len] = 0;
            self.iq_len += 1;
            self.scan_dirty = true;
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

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------
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
        // Retire resolved branches from the in-flight set (in place, in
        // order). Entries may already be committed; their ring slots are
        // still intact because no fetch has happened since they resolved.
        {
            let mut w = 0usize;
            for r in 0..self.unresolved_len {
                let b = self.unresolved[r];
                if self.complete[(b as usize) & self.cmask] > self.cycle {
                    self.unresolved[w] = b;
                    w += 1;
                }
            }
            self.unresolved_len = w;
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

            if self.metas[idx] & meta::IS_BRANCH != 0 {
                if self.unresolved_len >= self.cfg.max_branches as usize {
                    return; // in-flight branch limit
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
                self.complete[idx & self.cmask] = u64::MAX;
                self.counters.fetched += 1;
                self.next_fetch += 1;
                fetched += 1;
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
            } else {
                self.complete[idx & self.cmask] = u64::MAX;
                self.counters.fetched += 1;
                self.next_fetch += 1;
                fetched += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
