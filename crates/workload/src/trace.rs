//! Synthetic static programs and dynamic instruction traces.
//!
//! A [`TraceGenerator`] first materialises a *static program* from a
//! [`Profile`] — basic blocks of typed instructions with fixed dependency
//! shapes, terminated by branches with assigned behaviour classes — and then
//! walks it to emit a deterministic dynamic [`Trace`]. Instruction-cache and
//! branch-predictor behaviour therefore emerge from real PC reuse, not from
//! injected miss rates.

use crate::profile::{BranchClass, Profile};
use dse_rng::dist::{Categorical, Zipf};
use dse_rng::Xoshiro256;

/// Dynamic instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Floating-point add/sub/compare.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide/sqrt.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
}

impl InstrKind {
    /// All instruction kinds.
    pub const ALL: [InstrKind; 9] = [
        InstrKind::IntAlu,
        InstrKind::IntMul,
        InstrKind::IntDiv,
        InstrKind::FpAlu,
        InstrKind::FpMul,
        InstrKind::FpDiv,
        InstrKind::Load,
        InstrKind::Store,
        InstrKind::Branch,
    ];

    /// Whether this kind accesses data memory.
    pub fn is_mem(self) -> bool {
        matches!(self, InstrKind::Load | InstrKind::Store)
    }

    /// Whether this kind produces a register result.
    pub fn has_dest(self) -> bool {
        !matches!(self, InstrKind::Store | InstrKind::Branch)
    }

    /// Functional-unit class: 0 int ALU / branch / memory, 1 int mul-div,
    /// 2 FP ALU, 3 FP mul-div (Table 2b's width-scaled unit pools).
    pub fn fu_class(self) -> usize {
        match self {
            InstrKind::IntAlu | InstrKind::Branch | InstrKind::Load | InstrKind::Store => 0,
            InstrKind::IntMul | InstrKind::IntDiv => 1,
            InstrKind::FpAlu => 2,
            InstrKind::FpMul | InstrKind::FpDiv => 3,
        }
    }
}

/// Packed per-instruction decode byte, precomputed once per trace so the
/// simulator's hot loop reads one byte instead of matching on
/// [`InstrKind`] repeatedly. See [`meta`] for the bit layout.
pub mod meta {
    use super::{Instr, InstrKind};

    /// Bits 0–1: functional-unit class ([`InstrKind::fu_class`]).
    pub const FU_MASK: u8 = 0b11;
    /// Bit 2: accesses data memory.
    pub const IS_MEM: u8 = 1 << 2;
    /// Bit 3: produces a register result.
    pub const HAS_DEST: u8 = 1 << 3;
    /// Bit 4: conditional branch.
    pub const IS_BRANCH: u8 = 1 << 4;
    /// Bits 5–6: source operands with a register dependency, 0–2.
    pub const SOURCES_SHIFT: u32 = 5;

    /// The source-operand count a decode byte carries.
    #[inline]
    pub fn sources(m: u8) -> u32 {
        (m >> SOURCES_SHIFT) as u32 & 0b11
    }

    /// Packs the decode byte for one instruction.
    pub fn pack(ins: &Instr) -> u8 {
        let kind = ins.kind;
        let sources = (ins.src1 > 0) as u8 + (ins.src2 > 0) as u8;
        (kind.fu_class() as u8)
            | sources << SOURCES_SHIFT
            | if kind.is_mem() { IS_MEM } else { 0 }
            | if kind.has_dest() { HAS_DEST } else { 0 }
            | if kind == InstrKind::Branch {
                IS_BRANCH
            } else {
                0
            }
    }
}

/// One dynamic instruction of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Instruction class.
    pub kind: InstrKind,
    /// Distance (in dynamic instructions) back to the producer of the first
    /// source operand; 0 means no register dependency.
    pub src1: u32,
    /// Same for the second source operand.
    pub src2: u32,
    /// Instruction byte address (4-byte instructions).
    pub pc: u32,
    /// Effective address for loads/stores (0 otherwise).
    pub addr: u64,
    /// Branch outcome (false for non-branches).
    pub taken: bool,
    /// Branch target byte address (0 for non-branches).
    pub target: u32,
}

/// A dynamic instruction trace for one benchmark.
///
/// Stored as a structure of arrays: each [`Instr`] field lives in its own
/// column, plus a precomputed [`meta`] decode byte per instruction. The
/// simulator borrows the columns immutably, so one trace generated per
/// benchmark is shared by every sweep simulation, and the hot loop touches
/// only the columns a stage needs (issue reads dependencies and the decode
/// byte, fetch reads PCs — never the full 40-byte instruction record).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Benchmark name.
    pub name: String,
    kinds: Vec<InstrKind>,
    src1: Vec<u32>,
    src2: Vec<u32>,
    pcs: Vec<u32>,
    addrs: Vec<u64>,
    takens: Vec<bool>,
    targets: Vec<u32>,
    metas: Vec<u8>,
}

impl Trace {
    /// Builds a trace from instructions in program (commit) order.
    pub fn new(name: impl Into<String>, instrs: impl IntoIterator<Item = Instr>) -> Self {
        let it = instrs.into_iter();
        let mut t = Self::with_capacity(name, it.size_hint().0);
        for ins in it {
            t.push(ins);
        }
        t
    }

    /// An empty trace with room for `cap` instructions.
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Self {
        Self {
            name: name.into(),
            kinds: Vec::with_capacity(cap),
            src1: Vec::with_capacity(cap),
            src2: Vec::with_capacity(cap),
            pcs: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
            takens: Vec::with_capacity(cap),
            targets: Vec::with_capacity(cap),
            metas: Vec::with_capacity(cap),
        }
    }

    /// Appends one instruction, deriving its decode byte.
    pub fn push(&mut self, ins: Instr) {
        self.kinds.push(ins.kind);
        self.src1.push(ins.src1);
        self.src2.push(ins.src2);
        self.pcs.push(ins.pc);
        self.addrs.push(ins.addr);
        self.takens.push(ins.taken);
        self.targets.push(ins.target);
        self.metas.push(meta::pack(&ins));
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The instruction at position `i`, reassembled from the columns.
    pub fn get(&self, i: usize) -> Instr {
        Instr {
            kind: self.kinds[i],
            src1: self.src1[i],
            src2: self.src2[i],
            pc: self.pcs[i],
            addr: self.addrs[i],
            taken: self.takens[i],
            target: self.targets[i],
        }
    }

    /// Iterates the instructions in program order (by value, reassembled).
    pub fn iter(&self) -> impl Iterator<Item = Instr> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Instruction-kind column.
    pub fn kinds(&self) -> &[InstrKind] {
        &self.kinds
    }

    /// First-source dependency-distance column (0 = no dependency).
    pub fn src1s(&self) -> &[u32] {
        &self.src1
    }

    /// Second-source dependency-distance column.
    pub fn src2s(&self) -> &[u32] {
        &self.src2
    }

    /// Instruction-address column.
    pub fn pcs(&self) -> &[u32] {
        &self.pcs
    }

    /// Effective-address column (0 for non-memory instructions).
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Branch-outcome column (false for non-branches).
    pub fn takens(&self) -> &[bool] {
        &self.takens
    }

    /// Branch-target column (0 for non-branches).
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Precomputed per-instruction decode bytes (see [`meta`]).
    pub fn metas(&self) -> &[u8] {
        &self.metas
    }

    /// Dynamic count of each instruction kind, indexed by position in
    /// [`InstrKind::ALL`].
    pub fn kind_histogram(&self) -> [u64; 9] {
        let mut h = [0u64; 9];
        for &kind in &self.kinds {
            let idx = InstrKind::ALL.iter().position(|&k| k == kind).unwrap();
            h[idx] += 1;
        }
        h
    }
}

/// Bytes per (synthetic) instruction.
const INSTR_BYTES: u32 = 4;
/// Base address of the code segment.
const CODE_BASE: u32 = 0x0040_0000;
/// Base addresses of the three data regions.
const HOT_BASE: u64 = 0x1000_0000;
const STREAM_BASE: u64 = 0x2000_0000;
const RAND_BASE: u64 = 0x3000_0000;
/// Granularity of hot-set Zipf ranks in bytes.
const HOT_BLOCK: u64 = 64;
/// Maximum number of distinct hot-set ranks (bounds the Zipf CDF size).
const MAX_HOT_RANKS: usize = 65_536;

#[derive(Debug, Clone)]
struct StaticInstr {
    kind: InstrKind,
    d1: u32,
    d2: u32,
    chase: bool,
}

#[derive(Debug, Clone)]
struct StaticBlock {
    /// Index of the first instruction in the flat static instruction array.
    first: usize,
    /// Number of instructions including the terminating branch.
    len: usize,
    /// Behaviour class of the terminating branch.
    class: BranchClass,
    /// Successor block when the branch is taken.
    taken_target: usize,
}

#[derive(Debug, Clone, Default)]
struct BranchState {
    loop_count: u32,
    pattern_pos: u8,
}

/// Deterministic generator of dynamic traces for one [`Profile`].
///
/// # Examples
///
/// ```
/// use dse_workload::{Profile, Suite, TraceGenerator};
///
/// let profile = Profile::template("demo", Suite::SpecCpu2000, 7);
/// let trace = TraceGenerator::new(&profile).generate(500);
/// assert_eq!(trace.len(), 500);
/// // Regenerating is bit-identical.
/// assert_eq!(TraceGenerator::new(&profile).generate(500), trace);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: Profile,
    instrs: Vec<StaticInstr>,
    blocks: Vec<StaticBlock>,
    hot_zipf: Zipf,
    region_choice: Categorical,
    hot_bytes: u64,
    data_bytes: u64,
}

impl TraceGenerator {
    /// Builds the static program for `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`Profile::validate`]; canonical suite
    /// profiles always validate (enforced by tests).
    pub fn new(profile: &Profile) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("profile must be valid: {e}"));
        let mut rng = Xoshiro256::seed_from(profile.seed ^ 0x5741_4C4B); // "WALK"

        let kind_dist = Categorical::new(&[
            profile.w_int_alu,
            profile.w_int_mul,
            profile.w_int_div,
            profile.w_fp_alu,
            profile.w_fp_mul,
            profile.w_fp_div,
            profile.w_load,
            profile.w_store,
        ])
        .expect("validated profile has a usable instruction mix");
        const BODY_KINDS: [InstrKind; 8] = [
            InstrKind::IntAlu,
            InstrKind::IntMul,
            InstrKind::IntDiv,
            InstrKind::FpAlu,
            InstrKind::FpMul,
            InstrKind::FpDiv,
            InstrKind::Load,
            InstrKind::Store,
        ];

        let n_static = (profile.code_kb as usize * 1024) / INSTR_BYTES as usize;
        let mut instrs = Vec::with_capacity(n_static);
        let mut blocks = Vec::new();

        while instrs.len() + 2 < n_static {
            // Block body length: mean block_size including the branch.
            let body =
                sample_block_body(&mut rng, profile.block_size).min(n_static - instrs.len() - 1);
            let first = instrs.len();
            for _ in 0..body {
                let kind = BODY_KINDS[kind_dist.sample(&mut rng)];
                let chase = kind == InstrKind::Load && rng.next_bool(profile.chase_frac);
                let (d1, d2) = sample_deps(&mut rng, profile);
                instrs.push(StaticInstr {
                    kind,
                    d1,
                    d2,
                    chase,
                });
            }
            // Terminating branch: depends on a recent value (its condition).
            let (d1, _) = sample_deps(&mut rng, profile);
            instrs.push(StaticInstr {
                kind: InstrKind::Branch,
                d1: d1.max(1),
                d2: 0,
                chase: false,
            });
            let class = sample_branch_class(&mut rng, profile);
            blocks.push(StaticBlock {
                first,
                len: body + 1,
                class,
                taken_target: 0, // fixed up below once the block count is known
            });
        }
        assert!(!blocks.is_empty(), "static program must have blocks");

        let n_blocks = blocks.len();
        for (i, b) in blocks.iter_mut().enumerate() {
            b.taken_target = pick_taken_target(&mut rng, i, n_blocks, b.class);
        }

        let data_bytes = profile.data_kb as u64 * 1024;
        let hot_bytes = ((data_bytes as f64 * profile.hot_frac) as u64).max(1024);
        let hot_ranks = ((hot_bytes / HOT_BLOCK) as usize).clamp(16, MAX_HOT_RANKS);
        let hot_zipf = Zipf::new(hot_ranks, profile.zipf_s);
        let region_choice = Categorical::new(&[profile.w_hot, profile.w_stream, profile.w_rand])
            .expect("validated profile has usable region weights");

        Self {
            profile: profile.clone(),
            instrs,
            blocks,
            hot_zipf,
            region_choice,
            hot_bytes,
            data_bytes,
        }
    }

    /// The profile this generator was built from.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Number of static instructions (code footprint / 4 bytes).
    pub fn static_len(&self) -> usize {
        self.instrs.len()
    }

    /// Generates a dynamic trace of exactly `len` instructions.
    pub fn generate(&self, len: usize) -> Trace {
        let _span = dse_obs::span!("trace.generate", program = self.profile.name, len = len);
        {
            use dse_obs::registry::Counter;
            use std::sync::{Arc, OnceLock};
            static TRACES: OnceLock<Arc<Counter>> = OnceLock::new();
            TRACES
                .get_or_init(|| dse_obs::counter("dse_workload_traces_total"))
                .inc();
        }
        let mut rng = Xoshiro256::seed_from(self.profile.seed ^ 0x5452_4143); // "TRAC"
        let mut out = Trace::with_capacity(self.profile.name.to_string(), len);
        let mut branch_state = vec![BranchState::default(); self.blocks.len()];
        let mut block = 0usize;
        let mut stream_ptr: u64 = 0;
        let mut last_load: Option<usize> = None;

        while out.len() < len {
            let b = &self.blocks[block];
            let remaining = len - out.len();
            let take = b.len.min(remaining);
            for i in 0..take {
                let s = &self.instrs[b.first + i];
                let pc = CODE_BASE + ((b.first + i) as u32) * INSTR_BYTES;
                let pos = out.len();
                let is_branch = s.kind == InstrKind::Branch;
                let (taken, target) = if is_branch {
                    let taken = self.branch_outcome(&mut rng, block, &mut branch_state[block]);
                    let target_block = &self.blocks[b.taken_target];
                    let target_pc = CODE_BASE + (target_block.first as u32) * INSTR_BYTES;
                    (taken, target_pc)
                } else {
                    (false, 0)
                };
                let addr = if s.kind.is_mem() {
                    self.gen_address(&mut rng, s.chase, &mut stream_ptr)
                } else {
                    0
                };
                // Clamp static dependency distances to the instructions that
                // actually exist; pointer-chasing loads instead depend on the
                // most recent dynamic load.
                let (src1, src2) = if s.chase {
                    let d = last_load.map_or(0, |lp| (pos - lp) as u32);
                    (d, clamp_dep(s.d2, pos))
                } else {
                    (clamp_dep(s.d1, pos), clamp_dep(s.d2, pos))
                };
                if s.kind == InstrKind::Load {
                    last_load = Some(pos);
                }
                out.push(Instr {
                    kind: s.kind,
                    src1,
                    src2,
                    pc,
                    addr,
                    taken,
                    target,
                });
            }
            // Follow the branch (the block's last instruction) if it was
            // emitted in full; otherwise we filled the trace mid-block.
            if take == b.len {
                let taken = out.takens().last().copied().unwrap_or(false);
                block = if taken {
                    b.taken_target
                } else {
                    (block + 1) % self.blocks.len()
                };
                // Rarely teleport to another routine (call/return). Most
                // calls land in the hot code region, concentrating dynamic
                // execution the way real programs do while the tail still
                // touches the whole footprint.
                if rng.next_bool(1.0 / 96.0) {
                    block = random_call_target(&mut rng, self.blocks.len());
                }
            }
        }

        out
    }

    fn branch_outcome(&self, rng: &mut Xoshiro256, block: usize, state: &mut BranchState) -> bool {
        match self.blocks[block].class {
            BranchClass::Biased(p) => rng.next_bool(p),
            BranchClass::Loop(trip) => {
                state.loop_count += 1;
                if state.loop_count >= trip.max(1) {
                    state.loop_count = 0;
                    false
                } else {
                    true
                }
            }
            BranchClass::Pattern(period) => {
                let period = period.max(2);
                state.pattern_pos = (state.pattern_pos + 1) % period;
                // Repeating pattern: taken for the first half of the period.
                state.pattern_pos < period / 2
            }
            BranchClass::Random(p) => rng.next_bool(p),
        }
    }

    fn gen_address(&self, rng: &mut Xoshiro256, chase: bool, stream_ptr: &mut u64) -> u64 {
        if chase {
            // Pointer chasing scatters over the whole footprint.
            return RAND_BASE + (rng.next_range(self.data_bytes) & !7);
        }
        match self.region_choice.sample(rng) {
            0 => {
                let rank = self.hot_zipf.sample(rng) as u64;
                let offset = (rank * HOT_BLOCK) % self.hot_bytes + (rng.next_range(HOT_BLOCK) & !7);
                HOT_BASE + offset
            }
            1 => {
                // Unit-stride array walk (8-byte elements): several
                // consecutive accesses per cache line, as in real loops.
                // The streamed arrays are an eighth of the footprint
                // (capped at 2 MB) and are re-traversed repeatedly, so for
                // mid-sized programs they become L2-resident while the
                // largest programs still overwhelm every cache level.
                let region = (self.data_bytes / 8).clamp(4096, 2 * 1024 * 1024);
                *stream_ptr = (*stream_ptr + 8) % region;
                STREAM_BASE + *stream_ptr
            }
            _ => RAND_BASE + (rng.next_range(self.data_bytes) & !7),
        }
    }
}

fn clamp_dep(d: u32, pos: usize) -> u32 {
    d.min(pos as u32)
}

fn sample_block_body(rng: &mut Xoshiro256, mean_block: f64) -> usize {
    // Body = block minus the branch; at least one body instruction.
    let mean_body = (mean_block - 1.0).max(1.0);
    let p = 1.0 / mean_body;
    (1 + dse_rng::dist::geometric(rng, p.clamp(0.02, 1.0)) as usize).min(64)
}

fn sample_deps(rng: &mut Xoshiro256, profile: &Profile) -> (u32, u32) {
    let one = |rng: &mut Xoshiro256| -> u32 {
        if rng.next_bool(profile.dep_p) {
            (1 + dse_rng::dist::geometric(rng, profile.dep_decay)).min(64) as u32
        } else {
            0
        }
    };
    (one(rng), one(rng))
}

fn sample_branch_class(rng: &mut Xoshiro256, profile: &Profile) -> BranchClass {
    let u = rng.next_f64();
    if u < profile.br_biased {
        // Half the biased branches are biased not-taken.
        if rng.next_bool(0.5) {
            BranchClass::Biased(profile.bias_p)
        } else {
            BranchClass::Biased(1.0 - profile.bias_p)
        }
    } else if u < profile.br_biased + profile.br_loop {
        let trip = (1.0 + dse_rng::dist::exponential(rng, 1.0 / profile.loop_mean)).round();
        BranchClass::Loop(trip.clamp(2.0, 10_000.0) as u32)
    } else if u < profile.br_biased + profile.br_loop + profile.br_pattern {
        BranchClass::Pattern(2 + rng.next_range(6) as u8)
    } else {
        BranchClass::Random(0.3 + 0.4 * rng.next_f64())
    }
}

/// Call-like control transfers: 85 % land in the hot region (the first
/// twelfth of the static program), the rest anywhere.
fn random_call_target(rng: &mut Xoshiro256, n_blocks: usize) -> usize {
    let hot = (n_blocks / 12).max(1);
    if rng.next_bool(0.85) {
        rng.next_index(hot)
    } else {
        rng.next_index(n_blocks)
    }
}

fn pick_taken_target(
    rng: &mut Xoshiro256,
    block: usize,
    n_blocks: usize,
    class: BranchClass,
) -> usize {
    match class {
        BranchClass::Loop(_) => {
            // Loop back-edge: jump a short distance backwards.
            let span = rng.next_range(8) as usize + 1;
            block.saturating_sub(span)
        }
        _ => {
            // Non-loop taken branches jump forward (if/else skips), so the
            // walk always makes progress and cannot be absorbed into a
            // static cycle; occasionally a far jump models a call, biased
            // toward the hot code region as in real programs (a few
            // routines dominate dynamic execution).
            if rng.next_bool(0.9) {
                let span = 1 + rng.next_range(16) as usize;
                (block + span) % n_blocks
            } else {
                random_call_target(rng, n_blocks)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Suite;

    fn profile() -> Profile {
        Profile::template("test", Suite::SpecCpu2000, 42)
    }

    #[test]
    fn decode_byte_carries_the_source_count_of_every_built_in_program() {
        for p in crate::suites::all_benchmarks() {
            let t = TraceGenerator::new(&p).generate(4_000);
            for (i, &m) in t.metas().iter().enumerate() {
                let want = (t.src1s()[i] > 0) as u32 + (t.src2s()[i] > 0) as u32;
                assert_eq!(meta::sources(m), want, "{} instruction {i}", p.name);
            }
        }
    }

    #[test]
    fn generates_exact_length() {
        let g = TraceGenerator::new(&profile());
        for len in [1, 7, 100, 5_000] {
            assert_eq!(g.generate(len).len(), len);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g1 = TraceGenerator::new(&profile()).generate(2_000);
        let g2 = TraceGenerator::new(&profile()).generate(2_000);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seeds_differ() {
        let mut p2 = profile();
        p2.seed = 43;
        let a = TraceGenerator::new(&profile()).generate(1_000);
        let b = TraceGenerator::new(&p2).generate(1_000);
        assert_ne!(a, b);
    }

    #[test]
    fn static_footprint_matches_code_kb() {
        let p = profile();
        let g = TraceGenerator::new(&p);
        let expected = p.code_kb as usize * 1024 / 4;
        // Block construction stops within two instructions of the target.
        assert!(g.static_len() <= expected);
        assert!(g.static_len() >= expected - 64);
    }

    #[test]
    fn branch_fraction_tracks_block_size() {
        let p = profile();
        let t = TraceGenerator::new(&p).generate(50_000);
        let branches = t
            .kinds()
            .iter()
            .filter(|&&k| k == InstrKind::Branch)
            .count();
        let frac = branches as f64 / t.len() as f64;
        let expect = p.branch_fraction();
        assert!(
            (frac - expect).abs() < 0.05,
            "branch fraction {frac} vs expected {expect}"
        );
    }

    #[test]
    fn memory_fraction_tracks_mix() {
        let p = profile();
        let t = TraceGenerator::new(&p).generate(50_000);
        let mem = t.kinds().iter().filter(|k| k.is_mem()).count();
        let frac = mem as f64 / t.len() as f64;
        let expect = p.memory_fraction() * (1.0 - p.branch_fraction());
        assert!(
            (frac - expect).abs() < 0.06,
            "mem fraction {frac} vs expected {expect}"
        );
    }

    #[test]
    fn deps_never_reach_before_trace_start() {
        let t = TraceGenerator::new(&profile()).generate(200);
        for (i, ins) in t.iter().enumerate() {
            assert!(ins.src1 as usize <= i, "src1 at {i}");
            assert!(ins.src2 as usize <= i, "src2 at {i}");
        }
    }

    #[test]
    fn mem_ops_have_addresses_others_do_not() {
        let t = TraceGenerator::new(&profile()).generate(5_000);
        for ins in t.iter() {
            if ins.kind.is_mem() {
                assert_ne!(ins.addr, 0);
            } else {
                assert_eq!(ins.addr, 0);
            }
        }
    }

    #[test]
    fn branches_have_targets() {
        let t = TraceGenerator::new(&profile()).generate(5_000);
        for ins in t.iter() {
            if ins.kind == InstrKind::Branch {
                assert!(ins.target >= CODE_BASE);
            } else {
                assert_eq!(ins.target, 0);
            }
        }
    }

    #[test]
    fn pcs_stay_within_code_footprint() {
        let p = profile();
        let t = TraceGenerator::new(&p).generate(20_000);
        let code_end = CODE_BASE + p.code_kb * 1024;
        for ins in t.iter() {
            assert!(ins.pc >= CODE_BASE && ins.pc < code_end);
        }
    }

    #[test]
    fn bigger_footprint_spreads_addresses() {
        let mut small = profile();
        small.data_kb = 64;
        small.name = "small";
        let mut big = profile();
        big.data_kb = 16_384;
        big.name = "big";
        let span = |p: &Profile| {
            let t = TraceGenerator::new(p).generate(50_000);
            let addrs: Vec<u64> = t
                .iter()
                .filter(|i| i.kind.is_mem())
                .map(|i| i.addr)
                .collect();
            let lines: std::collections::HashSet<u64> = addrs.iter().map(|a| a / 64).collect();
            lines.len()
        };
        let (s, b) = (span(&small), span(&big));
        assert!(b as f64 > s as f64 * 1.5, "big {b} vs small {s}");
    }

    #[test]
    fn kind_histogram_sums_to_len() {
        let t = TraceGenerator::new(&profile()).generate(3_000);
        let h = t.kind_histogram();
        assert_eq!(h.iter().sum::<u64>(), 3_000);
    }

    #[test]
    fn loop_branch_state_produces_mostly_taken() {
        // A profile with only loop branches should have taken rate ≈
        // (trip-1)/trip, i.e. clearly above 50 %.
        let mut p = profile();
        p.br_biased = 0.0;
        p.br_loop = 1.0;
        p.br_pattern = 0.0;
        p.br_random = 0.0;
        p.loop_mean = 10.0;
        let t = TraceGenerator::new(&p).generate(30_000);
        let (taken, total) = t
            .iter()
            .filter(|i| i.kind == InstrKind::Branch)
            .fold((0u32, 0u32), |(tk, tot), i| (tk + i.taken as u32, tot + 1));
        let rate = taken as f64 / total as f64;
        assert!(rate > 0.6, "loop taken rate {rate}");
    }
}
