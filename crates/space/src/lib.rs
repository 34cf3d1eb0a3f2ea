//! The microarchitectural design space of Dubach, Jones & O'Boyle
//! (MICRO 2007 / IEEE TC 2011).
//!
//! Thirteen superscalar core parameters are varied (the paper's Table 1),
//! giving ~63 billion raw configurations; architectural-sense filters reduce
//! this to ~18–19 billion legal points (§3.1). A further set of parameters is
//! held constant or derived from the pipeline width (Table 2).
//!
//! This crate owns:
//! * the parameter definitions ([`Param`], [`ParamDef`], [`PARAMS`]);
//! * the configuration type ([`Config`]) with the paper's 13-element vector
//!   encoding (e.g. the baseline encodes as
//!   `(4, 96, 32, 48, 96, 8, 4, 16, 4, 16, 32, 32, 2)`);
//! * the legality filter ([`Config::is_legal`]) and uniform random sampling
//!   of legal points ([`sample_legal`]);
//! * the width-derived functional-unit mix and the constant parameters
//!   ([`derived`]).
//!
//! # Examples
//!
//! ```
//! use dse_space::{Config, raw_space_size, sample_legal};
//! use dse_rng::Xoshiro256;
//!
//! let baseline = Config::baseline();
//! assert!(baseline.is_legal());
//! assert_eq!(baseline.to_paper_vector()[0], 4.0); // 4-wide
//! assert_eq!(raw_space_size(), 62_668_800_000);
//!
//! let mut rng = Xoshiro256::seed_from(1);
//! let configs = sample_legal(&mut rng, 10);
//! assert!(configs.iter().all(Config::is_legal));
//! ```

#![warn(missing_docs)]

pub mod derived;
pub mod params;
pub mod sample;

pub use derived::{ConstantParams, FunctionalUnits};
pub use params::{Param, ParamDef, PARAMS, PARAM_COUNT};
pub use sample::{estimate_legal_fraction, neighbors, sample_legal, sample_raw};

use dse_util::json::{Decoded, Event, FromJson, Json, JsonError, Reader, ToJson};

/// One point of the design space: a concrete setting for each of the
/// 13 varied parameters, stored in natural units.
///
/// Construct with [`Config::baseline`], [`Config::from_indices`] or
/// [`Config::from_paper_vector`]; mutate through [`Config::with_param`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    /// Pipeline width (fetch/decode/issue/commit per cycle): 2, 4, 6 or 8.
    pub width: u32,
    /// Reorder-buffer entries: 32–160 step 8.
    pub rob: u32,
    /// Issue-queue entries: 8–80 step 8.
    pub iq: u32,
    /// Load/store-queue entries: 8–80 step 8.
    pub lsq: u32,
    /// Physical register-file registers (per bank): 40–160 step 8.
    pub rf: u32,
    /// Register-file read ports: 2–16 step 2.
    pub rf_read: u32,
    /// Register-file write ports: 1–8 step 1.
    pub rf_write: u32,
    /// Gshare branch-predictor size in K-entries: 1–32 (powers of two).
    pub bpred_k: u32,
    /// Branch-target-buffer size in K-entries: 1, 2 or 4.
    pub btb_k: u32,
    /// Maximum in-flight (unresolved) branches: 8, 16, 24 or 32.
    pub max_branches: u32,
    /// L1 instruction-cache size in KB: 8–128 (powers of two).
    pub icache_kb: u32,
    /// L1 data-cache size in KB: 8–128 (powers of two).
    pub dcache_kb: u32,
    /// Unified L2 cache size in MB-quarters encoded as MB value 0.25–4;
    /// stored as KB to stay integral: 256–4096.
    pub l2_kb: u32,
}

impl Config {
    /// The paper's baseline configuration
    /// `(4, 96, 32, 48, 96, 8, 4, 16, 4, 16, 32, 32, 2)`.
    pub fn baseline() -> Self {
        Self {
            width: 4,
            rob: 96,
            iq: 32,
            lsq: 48,
            rf: 96,
            rf_read: 8,
            rf_write: 4,
            bpred_k: 16,
            btb_k: 4,
            max_branches: 16,
            icache_kb: 32,
            dcache_kb: 32,
            l2_kb: 2048,
        }
    }

    /// Builds a configuration from per-parameter value indices
    /// (index `i` selects `PARAMS[p].values[i]`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for its parameter.
    pub fn from_indices(indices: &[usize; PARAM_COUNT]) -> Self {
        let mut raw = [0u64; PARAM_COUNT];
        for (p, (&idx, def)) in indices.iter().zip(PARAMS.iter()).enumerate() {
            assert!(
                idx < def.values.len(),
                "index {idx} out of range for parameter {p} ({})",
                def.name
            );
            raw[p] = def.values[idx];
        }
        Self::from_raw(&raw)
    }

    /// Returns the per-parameter value indices of this configuration.
    ///
    /// # Panics
    ///
    /// Panics if a field holds a value outside its parameter's value list
    /// (impossible for configurations built through this crate's API).
    pub fn to_indices(&self) -> [usize; PARAM_COUNT] {
        let raw = self.to_raw();
        let mut out = [0usize; PARAM_COUNT];
        for (p, (&v, def)) in raw.iter().zip(PARAMS.iter()).enumerate() {
            out[p] = def
                .index_of(v)
                .unwrap_or_else(|| panic!("value {v} invalid for parameter {}", def.name));
        }
        out
    }

    /// Internal natural-unit vector in [`Param`] order.
    fn from_raw(raw: &[u64; PARAM_COUNT]) -> Self {
        Self {
            width: raw[0] as u32,
            rob: raw[1] as u32,
            iq: raw[2] as u32,
            lsq: raw[3] as u32,
            rf: raw[4] as u32,
            rf_read: raw[5] as u32,
            rf_write: raw[6] as u32,
            bpred_k: raw[7] as u32,
            btb_k: raw[8] as u32,
            max_branches: raw[9] as u32,
            icache_kb: raw[10] as u32,
            dcache_kb: raw[11] as u32,
            l2_kb: raw[12] as u32,
        }
    }

    fn to_raw(&self) -> [u64; PARAM_COUNT] {
        [
            self.width as u64,
            self.rob as u64,
            self.iq as u64,
            self.lsq as u64,
            self.rf as u64,
            self.rf_read as u64,
            self.rf_write as u64,
            self.bpred_k as u64,
            self.btb_k as u64,
            self.max_branches as u64,
            self.icache_kb as u64,
            self.dcache_kb as u64,
            self.l2_kb as u64,
        ]
    }

    /// Returns the value of one parameter in its natural unit.
    pub fn param(&self, p: Param) -> u64 {
        self.to_raw()[p as usize]
    }

    /// Returns a copy with one parameter set to `value` (natural unit).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not one of the parameter's legal values.
    pub fn with_param(&self, p: Param, value: u64) -> Self {
        let def = &PARAMS[p as usize];
        assert!(
            def.index_of(value).is_some(),
            "{value} is not a legal value for {}",
            def.name
        );
        let mut raw = self.to_raw();
        raw[p as usize] = value;
        Self::from_raw(&raw)
    }

    /// Encodes as the paper's 13-element vector: width, ROB, IQ, LSQ, RF,
    /// RF read ports, RF write ports, branch predictor (K-entries),
    /// BTB (K-entries), in-flight branches, I-cache (KB), D-cache (KB),
    /// L2 (MB).
    ///
    /// The baseline encodes as `(4, 96, 32, 48, 96, 8, 4, 16, 4, 16, 32, 32, 2)`,
    /// matching §5.2.1 of the paper.
    pub fn to_paper_vector(&self) -> [f64; PARAM_COUNT] {
        [
            self.width as f64,
            self.rob as f64,
            self.iq as f64,
            self.lsq as f64,
            self.rf as f64,
            self.rf_read as f64,
            self.rf_write as f64,
            self.bpred_k as f64,
            self.btb_k as f64,
            self.max_branches as f64,
            self.icache_kb as f64,
            self.dcache_kb as f64,
            self.l2_kb as f64 / 1024.0,
        ]
    }

    /// Decodes the paper's 13-element vector (see [`Config::to_paper_vector`]).
    ///
    /// # Panics
    ///
    /// Panics if any element is not a legal value for its parameter.
    pub fn from_paper_vector(v: &[f64; PARAM_COUNT]) -> Self {
        let mut raw = [0u64; PARAM_COUNT];
        for (i, (&x, slot)) in v.iter().zip(raw.iter_mut()).enumerate() {
            let scaled = if i == PARAM_COUNT - 1 { x * 1024.0 } else { x };
            *slot = scaled.round() as u64;
        }
        let cfg = Self::from_raw(&raw);
        // Round-trip through indices to validate every value.
        let _ = cfg.to_indices();
        cfg
    }

    /// Feature vector for machine learning: each parameter mapped to
    /// `[0, 1]` by its index position within its value list.
    ///
    /// Index (rather than magnitude) scaling makes the exponentially-spaced
    /// parameters (caches, predictor) behave like the linearly-spaced ones,
    /// which materially improves ANN conditioning.
    pub fn to_features(&self) -> [f64; PARAM_COUNT] {
        let idx = self.to_indices();
        let mut out = [0.0; PARAM_COUNT];
        for (i, (&ix, def)) in idx.iter().zip(PARAMS.iter()).enumerate() {
            let n = def.values.len();
            out[i] = if n > 1 {
                ix as f64 / (n - 1) as f64
            } else {
                0.0
            };
        }
        out
    }

    /// Whether this configuration passes the architectural-sense filters
    /// of §3.1.
    ///
    /// The paper names one rule explicitly (ROB at least as large as the
    /// issue queue) and states others were applied to cut 63 B points to
    /// ~18 B. We apply the following, which reproduces that fraction
    /// (~30 % legal; see [`estimate_legal_fraction`]):
    ///
    /// 1. `iq <= rob` — in-flight instructions live in the ROB (paper's
    ///    explicit example);
    /// 2. `lsq <= rob` — same argument for memory operations;
    /// 3. `rf >= iq` — fewer physical registers than issue-queue slots
    ///    starves rename;
    /// 4. `rf_read <= 2 * width` — more read ports than peak operand
    ///    demand is dead silicon;
    /// 5. `rf_write <= width` — more write ports than commit width likewise;
    /// 6. `l2 >= 4 * max(icache, dcache)` — an L2 smaller than a few times
    ///    L1 is not a meaningful second level.
    pub fn is_legal(&self) -> bool {
        self.iq <= self.rob
            && self.lsq <= self.rob
            && self.rf >= self.iq
            && self.rf_read <= 2 * self.width
            && self.rf_write <= self.width
            && self.l2_kb >= 4 * self.icache_kb.max(self.dcache_kb)
    }

    /// The width-derived functional-unit mix for this configuration
    /// (Table 2b).
    pub fn functional_units(&self) -> FunctionalUnits {
        FunctionalUnits::for_width(self.width)
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::baseline()
    }
}

/// The JSON field names of a [`Config`], in [`Param`] order: the one
/// table the encoder and both decoders share.
const FIELDS: [&str; PARAM_COUNT] = [
    "width",
    "rob",
    "iq",
    "lsq",
    "rf",
    "rf_read",
    "rf_write",
    "bpred_k",
    "btb_k",
    "max_branches",
    "icache_kb",
    "dcache_kb",
    "l2_kb",
];

/// The [`FIELDS`] index of `key`, trying `guess` first: encoders write
/// the fields in table order, so the next expected one usually matches.
fn field_index(key: &str, guess: usize) -> Option<usize> {
    if FIELDS.get(guess) == Some(&key) {
        Some(guess)
    } else {
        FIELDS.iter().position(|&f| f == key)
    }
}

/// The fields of one config object as a decoder met them: the first
/// occurrence of each key counts, later ones are ignored.
struct Fields {
    values: [u32; PARAM_COUNT],
    /// Byte offset of each value (0 when decoded from a tree).
    offsets: [usize; PARAM_COUNT],
    /// Bit `p` is set once field `p` has been met.
    seen: u16,
    /// The lowest-indexed field whose value is not a `u32`, and why.
    bad: Option<(usize, JsonError)>,
}

impl Fields {
    fn new() -> Self {
        Self {
            values: [0; PARAM_COUNT],
            offsets: [0; PARAM_COUNT],
            seen: 0,
            bad: None,
        }
    }

    /// Whether field `p` has been met already.
    fn has(&self, p: usize) -> bool {
        self.seen & (1 << p) != 0
    }

    /// Records the first occurrence of field `p`.
    fn set(&mut self, p: usize, value: Result<u32, JsonError>, offset: usize) {
        self.seen |= 1 << p;
        self.offsets[p] = offset;
        match value {
            Ok(v) => self.values[p] = v,
            Err(_) if matches!(self.bad, Some((q, _)) if q < p) => {}
            Err(e) => self.bad = Some((p, e)),
        }
    }

    /// Checks the fields and assembles the configuration — the one check
    /// both decoders run. Every field must be present and a `u32` (the
    /// first failure in table order wins), then every value must be on
    /// its parameter's list: hand-edited files and request bodies with
    /// out-of-range settings are rejected rather than silently simulated.
    /// `at` is the byte offset of the object itself.
    fn into_config(self, at: usize) -> Result<Config, JsonError> {
        let missing = (!self.seen).trailing_zeros() as usize;
        match self.bad {
            Some((p, e)) if p < missing => {
                return Err(JsonError {
                    offset: self.offsets[p],
                    ..e.in_path(FIELDS[p])
                })
            }
            _ if missing < PARAM_COUNT => {
                return Err(JsonError {
                    offset: at,
                    ..JsonError::missing_field(FIELDS[missing])
                })
            }
            _ => {}
        }
        let raw = self.values.map(u64::from);
        for (p, def) in PARAMS.iter().enumerate() {
            if def.index_of(raw[p]).is_none() {
                let e = JsonError::msg(format!("{} is not a legal value for {}", raw[p], def.name));
                return Err(JsonError {
                    offset: self.offsets[p],
                    ..e.in_path(FIELDS[p])
                });
            }
        }
        Ok(Config::from_raw(&raw))
    }
}

impl Config {
    /// Reads one configuration object from `r` in a single pass, with the
    /// semantics of its [`FromJson`] impl: the first of duplicate keys
    /// wins, unknown keys are skipped, and a missing field or a value off
    /// its parameter's list fails. Errors carry the byte offset of the
    /// value at fault.
    ///
    /// # Errors
    ///
    /// The outer error is a syntax error; the inner one means the
    /// well-formed value is not a legal configuration.
    pub fn from_reader(r: &mut Reader<'_>) -> Result<Decoded<Self>, JsonError> {
        let event = r.value()?;
        let at = r.value_start();
        if event != Event::Obj {
            let tree = r.json_from(event)?;
            return Ok(Self::from_json(&tree).map_err(|e| JsonError { offset: at, ..e }));
        }
        let mut fields = Fields::new();
        let mut next = 0;
        while let Some(key) = r.next_key()? {
            match field_index(&key, next) {
                Some(p) if !fields.has(p) => {
                    let event = r.value()?;
                    let start = r.value_start();
                    let value = match event {
                        Event::Num(x) => u32::from_json(&Json::Num(x)),
                        other => u32::from_json(&r.json_from(other)?),
                    };
                    fields.set(p, value, start);
                    next = p + 1;
                }
                _ => r.skip_value()?,
            }
        }
        Ok(fields.into_config(at))
    }
}

impl ToJson for Config {
    fn to_json(&self) -> Json {
        Json::Obj(
            FIELDS
                .iter()
                .zip(self.to_raw())
                .map(|(key, value)| (key.to_string(), Json::Num(value as f64)))
                .collect(),
        )
    }
}

impl FromJson for Config {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut fields = Fields::new();
        for (key, value) in v.as_object()? {
            match FIELDS.iter().position(|f| f == key) {
                Some(p) if !fields.has(p) => fields.set(p, u32::from_json(value), 0),
                _ => {}
            }
        }
        fields.into_config(0)
    }
}

impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "w{} rob{} iq{} lsq{} rf{}r{}w{} bp{}K btb{}K br{} I{}K D{}K L2:{}K",
            self.width,
            self.rob,
            self.iq,
            self.lsq,
            self.rf,
            self.rf_read,
            self.rf_write,
            self.bpred_k,
            self.btb_k,
            self.max_branches,
            self.icache_kb,
            self.dcache_kb,
            self.l2_kb
        )
    }
}

/// Total number of raw (unfiltered) design points: the product of the
/// 13 parameters' value counts — 62,668,800,000 (the paper's "63 billion").
pub fn raw_space_size() -> u64 {
    PARAMS.iter().map(|d| d.values.len() as u64).product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_space_is_63_billion() {
        assert_eq!(raw_space_size(), 62_668_800_000);
    }

    #[test]
    fn baseline_matches_paper_vector() {
        let v = Config::baseline().to_paper_vector();
        let expected = [
            4.0, 96.0, 32.0, 48.0, 96.0, 8.0, 4.0, 16.0, 4.0, 16.0, 32.0, 32.0, 2.0,
        ];
        assert_eq!(v, expected);
    }

    #[test]
    fn baseline_is_legal() {
        assert!(Config::baseline().is_legal());
    }

    #[test]
    fn paper_vector_round_trips() {
        let cfg = Config::baseline();
        let back = Config::from_paper_vector(&cfg.to_paper_vector());
        assert_eq!(cfg, back);
    }

    #[test]
    fn indices_round_trip() {
        let cfg = Config::baseline();
        let idx = cfg.to_indices();
        assert_eq!(Config::from_indices(&idx), cfg);
    }

    #[test]
    fn with_param_changes_exactly_one_field() {
        let base = Config::baseline();
        let wide = base.with_param(Param::Width, 8);
        assert_eq!(wide.width, 8);
        assert_eq!(wide.rob, base.rob);
        assert_eq!(wide.l2_kb, base.l2_kb);
    }

    #[test]
    #[should_panic(expected = "not a legal value")]
    fn with_param_rejects_illegal_value() {
        Config::baseline().with_param(Param::Width, 5);
    }

    #[test]
    fn filter_rejects_rob_smaller_than_iq() {
        let cfg = Config {
            rob: 32,
            iq: 80,
            lsq: 8,
            ..Config::baseline()
        };
        assert!(!cfg.is_legal());
    }

    #[test]
    fn filter_rejects_overported_rf() {
        let cfg = Config {
            width: 2,
            rf_read: 16,
            rf_write: 1,
            ..Config::baseline()
        };
        assert!(!cfg.is_legal());
    }

    #[test]
    fn filter_rejects_tiny_l2() {
        let cfg = Config {
            icache_kb: 128,
            dcache_kb: 128,
            l2_kb: 256,
            ..Config::baseline()
        };
        assert!(!cfg.is_legal());
    }

    #[test]
    fn features_are_unit_interval() {
        let f = Config::baseline().to_features();
        assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Config::baseline().to_string().is_empty());
    }

    #[test]
    fn json_round_trips() {
        let cfg = Config::baseline();
        let json = dse_util::json::to_string(&cfg);
        let back: Config = dse_util::json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    /// Decodes `text` through the reader, insisting on a complete document.
    fn read(text: &str) -> Result<Decoded<Config>, JsonError> {
        let mut r = Reader::new(text);
        let out = Config::from_reader(&mut r)?;
        r.finish()?;
        Ok(out)
    }

    #[test]
    fn reader_and_tree_decoders_agree() {
        let base = dse_util::json::to_string(&Config::baseline());
        let cases = [
            base.clone(),
            base.replace("\"width\":4", "\"width\":4,\"width\":5"),
            base.replace("\"width\":4", "\"width\":5,\"width\":4"),
            base.replace("\"rob\":96,", ""),
            base.replace("\"rob\":96", "\"rob\":\"96\""),
            base.replace("\"rob\":96", "\"rob\":96.0,\"turbo\":{\"x\":[1]}"),
            base.replace("\"rob\":96", "\"rob\":96.5"),
            base.replace("\"l2_kb\":2048", "\"l2_kb\":2048,\"l\\u0032_kb\":1"),
            base.replace("\"width\":4,\"rob\":96", "\"rob\":96,\"width\":4"),
            "[]".to_string(),
            "{}".to_string(),
        ];
        for text in &cases {
            let tree = dse_util::json::from_str::<Config>(text);
            let pulled = read(text).expect("well-formed");
            assert_eq!(pulled, tree, "{text}");
        }
    }

    #[test]
    fn reader_errors_name_the_field_and_its_offset() {
        let base = dse_util::json::to_string(&Config::baseline());
        let text = base.replace("\"iq\":32", "\"iq\":33");
        let err = read(&text).unwrap().unwrap_err();
        assert_eq!(err.path_string(), "$.iq");
        assert_eq!(err.offset, text.find("33").unwrap());
        assert!(err.message.contains("not a legal value for IQ"), "{err}");
        let text = format!("  {}", base.replace("\"lsq\":48,", ""));
        let err = read(&text).unwrap().unwrap_err();
        assert_eq!(err.message, "missing field `lsq`");
        assert_eq!(err.offset, 2);
        // Of several bad fields the first in table order is reported,
        // whatever their order in the document.
        let text = base
            .replace("\"width\":4", "\"width\":\"4\"")
            .replace("\"rob\":96", "\"rob\":null");
        let reordered = text.replacen(
            "\"width\":\"4\",\"rob\":null",
            "\"rob\":null,\"width\":\"4\"",
            1,
        );
        assert_ne!(text, reordered);
        for text in [text, reordered] {
            let err = read(&text).unwrap().unwrap_err();
            assert_eq!(err.path_string(), "$.width", "{text}");
        }
        // Syntax errors stay outside, even after a bad field.
        let text = base.replace("\"iq\":32", "\"iq\":33").replace('}', "");
        assert_eq!(read(&text).unwrap_err().offset, text.len());
    }

    #[test]
    fn json_rejects_out_of_range_value() {
        let mut v = Config::baseline().to_json();
        if let Json::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "width" {
                    *val = Json::Num(5.0); // 5-wide is not in the value list
                }
            }
        }
        let err = Config::from_json(&v).unwrap_err();
        assert!(err.message.contains("not a legal value"));
    }
}
