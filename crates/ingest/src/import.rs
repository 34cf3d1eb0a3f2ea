//! Raw instruction-trace importer.
//!
//! # The trace format (v1)
//!
//! A compact line-based text format that external tools (Pin/DynamoRIO
//! tools, simulator dumps, hand-written microbenchmarks) can emit
//! without a serialisation library. The first non-blank line is the
//! header:
//!
//! ```text
//! #archdse-trace v1 name=<name> [seed=<u64>]
//! ```
//!
//! then one instruction per line, in program order:
//!
//! | line              | meaning                          |
//! |-------------------|----------------------------------|
//! | `A <pc>`          | integer ALU op                   |
//! | `M <pc>`          | integer multiply                 |
//! | `D <pc>`          | integer divide                   |
//! | `F <pc>`          | floating-point ALU op            |
//! | `G <pc>`          | floating-point multiply          |
//! | `H <pc>`          | floating-point divide            |
//! | `L <pc> <addr>`   | load                             |
//! | `S <pc> <addr>`   | store                            |
//! | `B <pc> T\|N`     | branch, taken / not-taken        |
//!
//! `<pc>` and `<addr>` are hexadecimal (optional `0x` prefix). Lines
//! starting with `#` after the header, and blank lines, are comments.
//!
//! # Fitting
//!
//! [`profile_from_trace`] distils the trace into a [`Profile`]
//! deterministically — same bytes, same profile:
//!
//! * **mix** — per-kind dynamic counts, expressed as percentages;
//! * **block size** — instructions per branch, clamped to `[2, 64]`;
//! * **code footprint** — unique PCs × 4 bytes;
//! * **branch classes** — per static branch, from its taken rate `r`:
//!   biased when `r ≥ 0.95` or `r ≤ 0.05` (bias = weighted mean of
//!   `max(r, 1−r)`), loop when `0.5 ≤ r < 0.95` (trip ≈ `1/(1−r)`),
//!   random otherwise; weighted by dynamic frequency. `br_pattern`
//!   stays 0 — patterns are not observable from taken bits alone;
//! * **data footprint** — unique 64-byte lines;
//! * **locality** — `w_stream` from the fraction of accesses within
//!   256 bytes *forward* of the previous access; the hot set is the
//!   smallest count-sorted line prefix covering 80 % of accesses,
//!   giving `hot_frac` and the hot/random weight split; `zipf_s` rises
//!   with the gap between coverage and footprint share (first-order
//!   skew estimate);
//! * **dependencies** — `dep_p`/`dep_decay` keep template defaults:
//!   v1 trace lines carry no register operands, so dependency shape is
//!   unobservable. Documented limitation, not silent behaviour.
//!
//! Input is streamed against [`MAX_TRACE_BYTES`]: an oversized or
//! unbounded source is rejected *at the cap*, never buffered whole.

use std::collections::BTreeMap;
use std::io::BufRead;

use dse_workload::{intern_name, Profile, Suite};

use crate::format::normalize_profile;
use crate::IngestError;

/// Required prefix of the trace header line.
pub const TRACE_MAGIC: &str = "#archdse-trace v1";

/// Hard cap on trace input size (64 MiB). Streaming rejection: the
/// reader is abandoned as soon as the cap is crossed.
pub const MAX_TRACE_BYTES: u64 = 64 << 20;

/// Cache-line granularity used for footprint and locality fitting.
const LINE_BYTES: u64 = 64;

/// Aggregated statistics of one parsed trace.
#[derive(Debug, Default)]
struct TraceStats {
    name: String,
    seed: Option<u64>,
    /// Dynamic counts: int alu/mul/div, fp alu/mul/div, load, store.
    kinds: [u64; 8],
    branches: u64,
    total: u64,
    unique_pcs: std::collections::HashSet<u64>,
    /// Per static-branch PC: (taken, total).
    branch_pcs: BTreeMap<u64, (u64, u64)>,
    /// Per 64-byte line: access count.
    lines: BTreeMap<u64, u64>,
    mem_accesses: u64,
    /// Accesses within (0, 256] bytes forward of the previous access.
    sequential: u64,
    prev_addr: Option<u64>,
}

fn parse_hex(tok: &str, what: &str, line_no: u64) -> Result<u64, IngestError> {
    let digits = tok.strip_prefix("0x").unwrap_or(tok);
    u64::from_str_radix(digits, 16).map_err(|_| {
        IngestError::Parse(format!(
            "trace line {line_no}: bad {what} `{tok}` (expected hex)"
        ))
    })
}

fn parse_header(line: &str, line_no: u64) -> Result<(String, Option<u64>), IngestError> {
    let rest = line.strip_prefix(TRACE_MAGIC).ok_or_else(|| {
        IngestError::Parse(format!(
            "trace line {line_no}: expected header `{TRACE_MAGIC} name=<name>`, found `{}`",
            line.trim_end()
        ))
    })?;
    let mut name = None;
    let mut seed = None;
    for tok in rest.split_ascii_whitespace() {
        if let Some(v) = tok.strip_prefix("name=") {
            name = Some(v.to_string());
        } else if let Some(v) = tok.strip_prefix("seed=") {
            seed = Some(v.parse::<u64>().map_err(|_| {
                IngestError::Parse(format!(
                    "trace line {line_no}: bad seed `{v}` (expected decimal u64)"
                ))
            })?);
        } else {
            return Err(IngestError::Parse(format!(
                "trace line {line_no}: unknown header token `{tok}`"
            )));
        }
    }
    let name = name.ok_or_else(|| {
        IngestError::Parse(format!("trace line {line_no}: header is missing name="))
    })?;
    if !valid_workload_name(&name) {
        return Err(IngestError::Parse(format!(
            "trace line {line_no}: name `{name}` must be 1-64 chars of [A-Za-z0-9._-] starting alphanumeric"
        )));
    }
    Ok((name, seed))
}

/// Name discipline shared by the trace header and the workload store:
/// names travel through CLI arguments, URLs and bare file names.
pub fn valid_workload_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

impl TraceStats {
    fn record_mem(&mut self, addr: u64) {
        self.mem_accesses += 1;
        *self.lines.entry(addr / LINE_BYTES).or_insert(0) += 1;
        if let Some(prev) = self.prev_addr {
            if addr > prev && addr - prev <= 256 {
                self.sequential += 1;
            }
        }
        self.prev_addr = Some(addr);
    }

    fn record_line(&mut self, line: &str, line_no: u64) -> Result<(), IngestError> {
        let mut toks = line.split_ascii_whitespace();
        let op = toks.next().expect("caller skips blank lines");
        let pc_tok = toks.next().ok_or_else(|| {
            IngestError::Parse(format!("trace line {line_no}: missing pc after `{op}`"))
        })?;
        let pc = parse_hex(pc_tok, "pc", line_no)?;
        self.unique_pcs.insert(pc);
        self.total += 1;
        let kind_index = match op {
            "A" => Some(0),
            "M" => Some(1),
            "D" => Some(2),
            "F" => Some(3),
            "G" => Some(4),
            "H" => Some(5),
            "L" => Some(6),
            "S" => Some(7),
            "B" => None,
            other => {
                return Err(IngestError::Parse(format!(
                    "trace line {line_no}: unknown opcode `{other}`"
                )))
            }
        };
        match kind_index {
            Some(i @ (6 | 7)) => {
                self.kinds[i] += 1;
                let addr_tok = toks.next().ok_or_else(|| {
                    IngestError::Parse(format!(
                        "trace line {line_no}: missing address after `{op} {pc_tok}`"
                    ))
                })?;
                self.record_mem(parse_hex(addr_tok, "address", line_no)?);
            }
            Some(i) => self.kinds[i] += 1,
            None => {
                self.branches += 1;
                let outcome = toks.next().ok_or_else(|| {
                    IngestError::Parse(format!(
                        "trace line {line_no}: missing T|N after `B {pc_tok}`"
                    ))
                })?;
                let taken = match outcome {
                    "T" => 1,
                    "N" => 0,
                    other => {
                        return Err(IngestError::Parse(format!(
                            "trace line {line_no}: bad branch outcome `{other}` (expected T or N)"
                        )))
                    }
                };
                let e = self.branch_pcs.entry(pc).or_insert((0, 0));
                e.0 += taken;
                e.1 += 1;
            }
        }
        if let Some(extra) = toks.next() {
            return Err(IngestError::Parse(format!(
                "trace line {line_no}: trailing token `{extra}`"
            )));
        }
        Ok(())
    }
}

/// Parses and fits a trace from any buffered reader, enforcing
/// [`MAX_TRACE_BYTES`].
///
/// # Errors
///
/// [`IngestError::TooLarge`] past the cap, [`IngestError::Parse`] for
/// malformed lines (with line numbers), [`IngestError::Invalid`] for
/// structurally empty or unusable traces.
pub fn profile_from_trace<R: BufRead>(reader: R) -> Result<Profile, IngestError> {
    profile_from_trace_capped(reader, MAX_TRACE_BYTES)
}

/// Like [`profile_from_trace`] with an explicit byte cap (tests use a
/// small cap to prove streaming rejection without 64 MiB fixtures).
pub fn profile_from_trace_capped<R: BufRead>(reader: R, cap: u64) -> Result<Profile, IngestError> {
    // `take(cap + 1)` bounds memory even for a single enormous line:
    // if we ever consume more than `cap` bytes, the input is oversized.
    let mut limited = reader.take(cap + 1);
    let mut consumed: u64 = 0;
    let mut line_no: u64 = 0;
    let mut buf = String::new();
    let mut header: Option<(String, Option<u64>)> = None;
    let mut stats = TraceStats::default();
    loop {
        buf.clear();
        let n = limited
            .read_line(&mut buf)
            .map_err(|e| IngestError::Io(format!("reading trace: {e}")))? as u64;
        if n == 0 {
            break;
        }
        consumed += n;
        if consumed > cap {
            return Err(IngestError::TooLarge {
                bytes: consumed,
                limit: cap,
            });
        }
        line_no += 1;
        let line = buf.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        if header.is_none() {
            header = Some(parse_header(line, line_no)?);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        stats.record_line(line, line_no)?;
    }
    let (name, seed) = header.ok_or_else(|| {
        IngestError::Parse(format!("trace has no header line (`{TRACE_MAGIC} ...`)"))
    })?;
    stats.name = name;
    stats.seed = seed;
    fit_profile(stats)
}

/// Convenience wrapper over an in-memory trace.
pub fn profile_from_trace_str(text: &str) -> Result<Profile, IngestError> {
    profile_from_trace(text.as_bytes())
}

/// FNV-1a over the name: a stable fallback seed when the header omits
/// one, kept in the JSON-safe ≤ 2^53 range.
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h >> 11
}

fn fit_profile(stats: TraceStats) -> Result<Profile, IngestError> {
    if stats.total + stats.branches == 0 {
        return Err(IngestError::Invalid(
            "trace contains no instructions".to_string(),
        ));
    }
    let non_branch: u64 = stats.kinds.iter().sum();
    if non_branch == 0 {
        return Err(IngestError::Invalid(
            "trace contains only branches; the instruction mix would be empty".to_string(),
        ));
    }
    let pct = |c: u64| 100.0 * c as f64 / non_branch as f64;
    let [ia, im, id, fa, fm, fd, ld, st] = stats.kinds.map(pct);

    let block_size = if stats.branches == 0 {
        64.0
    } else {
        (stats.total as f64 / stats.branches as f64).clamp(2.0, 64.0)
    };
    let code_kb = ((stats.unique_pcs.len() as u64 * 4).div_ceil(1024).max(1)).min(4096) as u32;

    // Branch classes from per-PC taken rates, weighted dynamically.
    let mut w_biased = 0u64;
    let mut w_loop = 0u64;
    let mut w_random = 0u64;
    let mut bias_sum = 0.0;
    let mut trip_sum = 0.0;
    for (&_pc, &(taken, total)) in &stats.branch_pcs {
        let r = taken as f64 / total as f64;
        if !(0.05..=0.95).contains(&r) {
            w_biased += total;
            bias_sum += r.max(1.0 - r) * total as f64;
        } else if r >= 0.5 {
            w_loop += total;
            trip_sum += (1.0 / (1.0 - r)).clamp(1.0, 1000.0) * total as f64;
        } else {
            w_random += total;
        }
    }
    let bt = stats.branches;
    let (br_biased, br_loop, br_random) = if bt == 0 {
        (0.6, 0.25, 0.15)
    } else {
        (
            w_biased as f64 / bt as f64,
            w_loop as f64 / bt as f64,
            w_random as f64 / bt as f64,
        )
    };
    let bias_p = if w_biased > 0 {
        (bias_sum / w_biased as f64).clamp(0.5, 1.0)
    } else {
        0.97
    };
    let loop_mean = if w_loop > 0 {
        (trip_sum / w_loop as f64).max(1.0)
    } else {
        12.0
    };

    // Memory locality from the 64-byte line histogram.
    let template = Profile::template("fit", Suite::External, 0);
    let (data_kb, hot_frac, zipf_s, w_hot, w_stream, w_rand);
    if stats.mem_accesses == 0 {
        data_kb = 1;
        hot_frac = 1.0;
        zipf_s = 0.0;
        w_hot = 1.0;
        w_stream = 0.0;
        w_rand = 0.0;
    } else {
        let unique_lines = stats.lines.len() as u64;
        data_kb = ((unique_lines * LINE_BYTES).div_ceil(1024).max(1)).min(u32::MAX as u64) as u32;
        // Hot set: smallest count-sorted prefix covering 80 % of
        // accesses; ties broken by line address for determinism.
        let mut by_count: Vec<(u64, u64)> = stats.lines.iter().map(|(&l, &c)| (l, c)).collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let target = (stats.mem_accesses as f64 * 0.8).ceil() as u64;
        let mut covered = 0u64;
        let mut hot_lines = 0u64;
        for &(_, c) in &by_count {
            covered += c;
            hot_lines += 1;
            if covered >= target {
                break;
            }
        }
        let coverage = covered as f64 / stats.mem_accesses as f64;
        hot_frac = (hot_lines as f64 / unique_lines as f64).clamp(1e-6, 1.0);
        // Uniform access ⇒ coverage ≈ footprint share ⇒ no skew; the
        // wider the gap, the more Zipf-like the distribution.
        zipf_s = (2.0 * (coverage - hot_frac).max(0.0)).clamp(0.0, 2.5);
        let seq = stats.sequential as f64 / stats.mem_accesses as f64;
        w_stream = seq;
        w_hot = coverage * (1.0 - seq);
        w_rand = (1.0 - coverage) * (1.0 - seq);
    }

    let seed = stats.seed.unwrap_or_else(|| name_seed(&stats.name));
    let mut p = Profile {
        name: intern_name(&stats.name),
        suite: Suite::External,
        seed,
        w_int_alu: ia,
        w_int_mul: im,
        w_int_div: id,
        w_fp_alu: fa,
        w_fp_mul: fm,
        w_fp_div: fd,
        w_load: ld,
        w_store: st,
        block_size,
        code_kb,
        br_biased,
        br_loop,
        br_pattern: 0.0,
        br_random,
        bias_p,
        loop_mean,
        // Not observable from v1 trace lines (no register operands);
        // documented template defaults.
        dep_p: template.dep_p,
        dep_decay: template.dep_decay,
        data_kb,
        hot_frac,
        zipf_s,
        w_hot,
        w_stream,
        w_rand,
        chase_frac: 0.0,
    };
    normalize_profile(&mut p);
    p.validate()
        .map_err(|e| IngestError::Invalid(e.to_string()))?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(name: &str) -> String {
        format!("#archdse-trace v1 name={name} seed=99\n")
    }

    /// A small but representative trace: a 4-instruction loop body
    /// (load, two ALU ops, loop branch) iterated with a streaming
    /// pointer, plus a biased exit branch.
    fn looping_trace() -> String {
        let mut t = header("loopy");
        t.push_str("# comment line\n\n");
        for i in 0..100u64 {
            t.push_str(&format!("L 400 {:x}\n", 0x1000 + i * 8));
            t.push_str("A 404\n");
            t.push_str("A 408\n");
            // Loop back-edge: taken 9 of 10 times.
            let outcome = if i % 10 == 9 { "N" } else { "T" };
            t.push_str(&format!("B 40c {outcome}\n"));
            // Strongly biased guard.
            t.push_str(&format!("S 410 {:x}\n", 0x1000 + i * 8 + 4));
            t.push_str(&format!("B 414 {}\n", if i == 50 { "T" } else { "N" }));
        }
        t
    }

    #[test]
    fn imported_trace_decode_bytes_carry_source_counts() {
        let p = profile_from_trace_str(&looping_trace()).unwrap();
        let t = dse_workload::TraceGenerator::new(&p).generate(4_000);
        let mut seen = [0; 3];
        for (i, &m) in t.metas().iter().enumerate() {
            let want = (t.src1s()[i] > 0) as u32 + (t.src2s()[i] > 0) as u32;
            assert_eq!(dse_workload::meta::sources(m), want, "instruction {i}");
            seen[want as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "every count occurs: {seen:?}");
    }

    #[test]
    fn fits_mix_blocks_and_branch_classes_from_a_loop() {
        let p = profile_from_trace_str(&looping_trace()).unwrap();
        assert_eq!(p.name, "loopy");
        assert_eq!(p.seed, 99);
        assert_eq!(p.suite, Suite::External);
        // 100 loads, 200 alu, 100 stores → 25 / 50 / 25 percent.
        assert!((p.w_load - 25.0).abs() < 1e-9, "{}", p.w_load);
        assert!((p.w_int_alu - 50.0).abs() < 1e-9);
        assert!((p.w_store - 25.0).abs() < 1e-9);
        assert_eq!(p.w_fp_alu, 0.0);
        // 600 instructions, 200 branches → block size 3.
        assert!((p.block_size - 3.0).abs() < 1e-9, "{}", p.block_size);
        // One loop branch (rate 0.9), one biased branch (rate 0.01);
        // equal dynamic weight.
        assert!((p.br_loop - 0.5).abs() < 1e-9, "{}", p.br_loop);
        assert!((p.br_biased - 0.5).abs() < 1e-9, "{}", p.br_biased);
        assert_eq!(p.br_pattern, 0.0);
        assert!((p.loop_mean - 10.0).abs() < 1e-6, "{}", p.loop_mean);
        assert!(p.bias_p > 0.98);
        // Streaming loads dominate the access pattern.
        assert!(p.w_stream > 0.3, "{}", p.w_stream);
    }

    #[test]
    fn fitting_is_deterministic() {
        let t = looping_trace();
        assert_eq!(
            profile_from_trace_str(&t).unwrap(),
            profile_from_trace_str(&t).unwrap()
        );
    }

    #[test]
    fn zero_instruction_trace_is_rejected() {
        let err = profile_from_trace_str(&header("empty")).unwrap_err();
        assert!(matches!(err, IngestError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("no instructions"));
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = profile_from_trace_str("A 400\n").unwrap_err();
        assert!(err.to_string().contains("expected header"), "{err}");
        let err = profile_from_trace_str("").unwrap_err();
        assert!(err.to_string().contains("no header"), "{err}");
    }

    #[test]
    fn branch_only_trace_is_rejected() {
        let t = format!("{}B 400 T\nB 400 N\n", header("br"));
        let err = profile_from_trace_str(&t).unwrap_err();
        assert!(err.to_string().contains("only branches"), "{err}");
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let t = format!("{}A 400\nX 404\n", header("bad"));
        let err = profile_from_trace_str(&t).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        assert!(err.to_string().contains("unknown opcode `X`"), "{err}");

        let t = format!("{}L zz 100\n", header("bad2"));
        let err = profile_from_trace_str(&t).unwrap_err();
        assert!(err.to_string().contains("bad pc `zz`"), "{err}");

        let t = format!("{}B 400 T extra\n", header("bad3"));
        let err = profile_from_trace_str(&t).unwrap_err();
        assert!(err.to_string().contains("trailing token `extra`"), "{err}");
    }

    #[test]
    fn oversized_input_is_rejected_at_the_cap_without_buffering() {
        // An endless reader: rejection must come from the cap, not OOM.
        let endless = std::io::BufReader::new(std::io::repeat(b'A'));
        let err = profile_from_trace_capped(endless, 4096).unwrap_err();
        assert!(
            matches!(err, IngestError::TooLarge { limit: 4096, .. }),
            "{err}"
        );
    }

    #[test]
    fn unknown_header_token_is_rejected() {
        let err = profile_from_trace_str("#archdse-trace v1 name=x evil=1\nA 400\n").unwrap_err();
        assert!(err.to_string().contains("unknown header token"), "{err}");
    }

    #[test]
    fn invalid_names_are_rejected() {
        for bad in ["../evil", "a/b", "", "-lead", &"x".repeat(65)] {
            let t = format!("#archdse-trace v1 name={bad}\nA 400\n");
            assert!(
                profile_from_trace_str(&t).is_err(),
                "name `{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn fitted_profiles_pass_validation_and_round_trip() {
        let p = profile_from_trace_str(&looping_trace()).unwrap();
        p.validate().unwrap();
        let text = crate::format::export_profile(&p);
        assert_eq!(crate::format::import_profile(&text).unwrap(), p);
        assert_eq!(
            crate::format::export_profile(&crate::format::import_profile(&text).unwrap()),
            text
        );
    }
}
