//! Minimal JSON value type, writer and pull reader.
//!
//! This replaces `serde`/`serde_json` for the one serialisation job the
//! workspace has: the on-disk dataset cache. The subset implemented is
//! full RFC 8259 JSON on the *parse* side (any well-formed document is
//! accepted, including `\uXXXX` escapes and surrogate pairs) and a
//! deliberately small surface on the *write* side: objects, arrays,
//! strings, booleans, `null`, and numbers.
//!
//! There is one grammar, the pull [`Reader`]: [`Json::parse`] builds its
//! tree from the reader's events, and decoders on hot paths (see
//! `dse-space::Config::from_reader`) read straight into their own types.
//!
//! Numbers are stored as `f64` and written with Rust's shortest
//! round-trip formatting, so `write → parse` reproduces every `f64`
//! bit-exactly (see the round-trip tests). Integers up to 2⁵³ — every
//! count and seed-derived id the workspace stores — survive the same way.
//! The format is byte-compatible with what `serde_json` produced for the
//! same structures (unit enum variants as bare strings, structs as
//! objects), so dataset caches written before this layer existed remain
//! readable.
//!
//! Domain types implement [`ToJson`]/[`FromJson`] by hand; see
//! `dse-space::Config` or `dse-core::SuiteDataset` for the idiom.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved for stable output.
    Obj(Vec<(String, Json)>),
}

/// Error produced by the parser or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset in the input where the parser failed (0 for
    /// conversion errors that could not be located in the input).
    pub offset: usize,
    /// Key path from the document root to the failing value, outermost
    /// segment first. Object keys are stored bare (`"profile"`), array
    /// indices bracketed (`"[3]"`). Empty for parser errors and for
    /// conversions that never descended into a container.
    pub path: Vec<String>,
}

impl JsonError {
    /// A conversion (non-positional) error.
    pub fn msg(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            offset: 0,
            path: Vec::new(),
        }
    }

    /// The error for an object that lacks the field `key`.
    pub fn missing_field(key: &str) -> Self {
        Self::msg(format!("missing field `{key}`"))
    }

    /// Points a conversion error at the byte offset of the value its key
    /// path names in `text`, the document it was converted from. Errors
    /// that already carry an offset, or whose path does not resolve, come
    /// back unchanged.
    #[must_use]
    pub fn located_in(mut self, text: &str) -> Self {
        if self.offset == 0 && !self.path.is_empty() {
            if let Some(offset) = locate(text, &self.path) {
                self.offset = offset;
            }
        }
        self
    }

    /// Prefixes `segment` onto the key path — called by container
    /// conversions as an error propagates outward, so the outermost
    /// frame ends up first.
    #[must_use]
    pub fn in_path(mut self, segment: impl Into<String>) -> Self {
        self.path.insert(0, segment.into());
        self
    }

    /// The key path rendered `$`-rooted, e.g. `$.profile.mix[2]`.
    pub fn path_string(&self) -> String {
        let mut s = String::from("$");
        for seg in &self.path {
            if seg.starts_with('[') {
                s.push_str(seg);
            } else {
                s.push('.');
                s.push_str(seg);
            }
        }
        s
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{} (at byte {})", self.message, self.offset)
        } else {
            write!(
                f,
                "{} (at {}, byte {})",
                self.message,
                self.path_string(),
                self.offset
            )
        }
    }
}

impl std::error::Error for JsonError {}

/// Serialise to a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Deserialise from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, rejecting structurally or semantically
    /// invalid input.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is rejected).
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(text);
        let v = r.read_json()?;
        r.finish()?;
        Ok(v)
    }

    /// Serialises to a compact string (no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The value of an object field.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not an object or lacks the field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::missing_field(key)),
            other => Err(JsonError::msg(format!(
                "expected object with field `{key}`, found {}",
                other.kind()
            ))),
        }
    }

    /// The entries of an object, in document order.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not an object.
    pub fn as_object(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(JsonError::msg(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }

    /// The elements of an array.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not an array.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::msg(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }

    /// The string payload.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::msg(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }

    /// The numeric payload.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not a number.
    #[inline]
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(JsonError::msg(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    /// The numeric payload as a non-negative integer.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not a number with an exact non-negative
    /// integral value within `u64` range.
    #[inline]
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let x = self.as_f64()?;
        // Within [0, 2^53] the cast is exact for integers and truncates
        // anything else, so the round trip tells them apart.
        let n = x as u64;
        if !(0.0..=2f64.powi(53)).contains(&x) || n as f64 != x {
            return Err(JsonError::msg(format!(
                "expected non-negative integer, found {x}"
            )));
        }
        Ok(n)
    }

    /// The boolean payload.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::msg(format!(
                "expected bool, found {}",
                other.kind()
            ))),
        }
    }

    /// Reads and converts an object field, tagging any error with the
    /// field's key path — the idiomatic accessor for `FromJson`
    /// implementations that want actionable nested errors.
    ///
    /// # Errors
    ///
    /// Errors if `self` is not an object, lacks the field, or the field
    /// fails `T`'s conversion; conversion errors carry `key` prefixed
    /// onto their path.
    pub fn get<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json(self.field(key)?).map_err(|e| e.in_path(key))
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Builds an object from `(key, value)` pairs — the idiomatic way for
    /// `ToJson` implementations to stay readable.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Shortest round-trip formatting (Rust's `{:?}` for floats is exact:
/// parsing the output recovers the identical bits), written straight into
/// `out`. Non-finite values have no JSON representation.
fn write_number(x: f64, out: &mut String) {
    assert!(x.is_finite(), "cannot serialise non-finite number {x}");
    // Integral values in the exactly-representable range print without the
    // trailing `.0`, matching what serde_json emitted for integer fields;
    // `-0.0` prints as `0`.
    let written = if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        if x < 0.0 {
            write!(out, "{}", x as i64)
        } else {
            write!(out, "{}", x as u64)
        }
    } else {
        write!(out, "{x:?}")
    };
    written.expect("writing to a String cannot fail");
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting-depth cap: the workspace's documents are ~4 levels deep; a cap
/// keeps maliciously-nested input from overflowing the parser stack.
const MAX_DEPTH: usize = 128;

/// A decode result whose JSON was well-formed: `Err` means the value is
/// not a valid `T`, while a syntax error travels in the reader's own
/// outer `Result`. Keeping the two apart lets a decoder record the first
/// semantic error and still read the rest of the document, so a later
/// syntax error wins, as it does for `Json::parse` + [`FromJson`].
pub type Decoded<T> = Result<T, JsonError>;

/// One step of a [`Reader`]: a complete scalar, or the opening of a
/// container whose contents the caller pulls next.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, borrowed from the input unless it held escapes.
    Str(Cow<'a, str>),
    /// `{` was read; pull its entries with [`Reader::next_key`].
    Obj,
    /// `[` was read; pull its elements with [`Reader::next_item`].
    Arr,
}

/// A pull reader over one JSON document — the workspace's only JSON
/// grammar. [`Json::parse`] builds its tree from these events; decoders
/// that know their schema read straight into their own types instead.
///
/// Protocol: [`Reader::value`] reads the next value. After [`Event::Obj`],
/// call [`Reader::next_key`] until it returns `None`, reading (or
/// [skipping](Reader::skip_value)) one value after each key; after
/// [`Event::Arr`], call [`Reader::next_item`] until it returns `false`,
/// reading one value after each `true`. [`Reader::finish`] then rejects
/// trailing input. Every syntax error carries its byte offset.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Byte offset of the last value [`Reader::value`] started.
    start: usize,
    depth: usize,
    /// Set when a container has just opened: its first entry takes no
    /// comma.
    first: bool,
    /// One bit per open container, set for objects ([`MAX_DEPTH`] bits).
    objects: u128,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's first value.
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            start: 0,
            depth: 0,
            first: false,
            objects: 0,
        }
    }

    /// Byte offset where the most recent [`Reader::value`] began.
    #[inline]
    pub fn value_start(&self) -> usize {
        self.start
    }

    /// Reads the next value: a scalar whole, a container by its opening
    /// bracket.
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset.
    #[inline]
    pub fn value(&mut self) -> Result<Event<'a>, JsonError> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.start = self.pos;
        match self.peek() {
            Some(b'{') => Ok(self.open(true)),
            Some(b'[') => Ok(self.open(false)),
            Some(b'"') => Ok(Event::Str(self.string()?)),
            Some(b't') => self.literal("true", Event::Bool(true)),
            Some(b'f') => self.literal("false", Event::Bool(false)),
            Some(b'n') => self.literal("null", Event::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Event::Num(self.number()?)),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The next key of the innermost open object (the `:` after it is
    /// consumed), or `None` once its `}` is read.
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        debug_assert!(self.in_object(), "next_key outside an object");
        self.skip_ws();
        if std::mem::take(&mut self.first) {
            if self.peek() == Some(b'}') {
                self.close();
                return Ok(None);
            }
        } else {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Whether the innermost open array has another element (read it
    /// next); `false` once its `]` is read.
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        debug_assert!(!self.in_object(), "next_item outside an array");
        self.skip_ws();
        if std::mem::take(&mut self.first) {
            if self.peek() == Some(b']') {
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ => Err(self.err("expected `,` or `]` in array")),
        }
    }

    /// Reads and discards the next value, containers included.
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        let base = self.depth;
        self.value()?;
        // Each pass reads one entry of the innermost open container (a
        // scalar, or the opening of a deeper one) or closes it.
        while self.depth > base {
            let more = if self.in_object() {
                self.next_key()?.is_some()
            } else {
                self.next_item()?
            };
            if more {
                self.value()?;
            }
        }
        Ok(())
    }

    /// Reads the next value as a tree.
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset.
    pub fn read_json(&mut self) -> Result<Json, JsonError> {
        let event = self.value()?;
        self.json_from(event)
    }

    /// Completes the tree of a value whose first event was already read.
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset.
    pub fn json_from(&mut self, event: Event<'a>) -> Result<Json, JsonError> {
        Ok(match event {
            Event::Null => Json::Null,
            Event::Bool(b) => Json::Bool(b),
            Event::Num(x) => Json::Num(x),
            Event::Str(s) => Json::Str(s.into_owned()),
            Event::Obj => {
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.read_json()?;
                    fields.push((key.into_owned(), value));
                }
                Json::Obj(fields)
            }
            Event::Arr => {
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.read_json()?);
                }
                Json::Arr(items)
            }
        })
    }

    /// Decodes the next value through its tree and [`FromJson`] — the
    /// path for small values off the hot path. A conversion error is
    /// located at the byte offset of the value it names.
    ///
    /// # Errors
    ///
    /// The outer error is a syntax error; the inner one a conversion
    /// error.
    pub fn read_from_json<T: FromJson>(&mut self) -> Result<Decoded<T>, JsonError> {
        let event = self.value()?;
        let start = self.start;
        let tree = self.json_from(event)?;
        Ok(T::from_json(&tree).map_err(|e| self.anchor(e, start)))
    }

    /// Reads an array, decoding each element with `item`. The first
    /// element that fails decides the inner error, tagged with its
    /// `[i]`; the rest are still read, so a later syntax error wins.
    ///
    /// # Errors
    ///
    /// The outer error is a syntax error; the inner one means the value
    /// is not an array or an element failed to decode.
    pub fn read_array<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<Decoded<T>, JsonError>,
    ) -> Result<Decoded<Vec<T>>, JsonError> {
        let event = self.value()?;
        if event != Event::Arr {
            let start = self.start;
            let tree = self.json_from(event)?;
            let err = tree.as_array().expect_err("a non-array value");
            return Ok(Err(JsonError {
                offset: start,
                ..err
            }));
        }
        let mut out = Vec::new();
        let mut failed = None;
        let mut i = 0;
        while self.next_item()? {
            match item(self)? {
                Ok(v) => out.push(v),
                Err(e) if failed.is_none() => failed = Some(e.in_path(format!("[{i}]"))),
                Err(_) => {}
            }
            i += 1;
        }
        Ok(failed.map_or(Ok(out), Err))
    }

    /// Rejects anything but whitespace after the document's value.
    ///
    /// # Errors
    ///
    /// The offset of the first trailing character.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// Gives a conversion error of the value that began at `start` (and
    /// ends here) the byte offset its key path addresses.
    fn anchor(&self, e: JsonError, start: usize) -> JsonError {
        let mut e = e.located_in(&self.text[start..self.pos]);
        e.offset += start;
        e
    }

    #[inline]
    fn open(&mut self, object: bool) -> Event<'a> {
        self.pos += 1;
        let bit = 1u128 << self.depth;
        if object {
            self.objects |= bit;
        } else {
            self.objects &= !bit;
        }
        self.depth += 1;
        self.first = true;
        if object {
            Event::Obj
        } else {
            Event::Arr
        }
    }

    #[inline]
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.first = false;
    }

    #[inline]
    fn in_object(&self) -> bool {
        self.depth > 0 && self.objects & (1u128 << (self.depth - 1)) != 0
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
            path: Vec::new(),
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, event: Event<'a>) -> Result<Event<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(event)
        } else {
            Err(self.err(&format!("invalid literal (expected `{word}`)")))
        }
    }

    /// Advances over a run of plain string bytes. The run only ever stops
    /// at an ASCII byte (`"`, `\` or a control character), which cannot
    /// fall inside a multi-byte UTF-8 sequence, so every run is a valid
    /// `str` slice.
    #[inline]
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        let rest = &self.bytes[start..];
        let len = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        self.pos += len;
        &self.text[start..self.pos]
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        // Escape-free strings (all keys and names the workspace writes)
        // borrow from the input.
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        self.escaped(run).map(Cow::Owned)
    }

    /// The rest of a string whose plain prefix `run` stopped short of the
    /// closing quote.
    fn escaped(&mut self, run: &str) -> Result<String, JsonError> {
        let mut out = String::from(run);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape character")),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => out.push_str(self.plain_run()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero digit followed by digits,
        // summed as it is scanned (wrapping past 19 digits, where the
        // sum goes unused).
        let int_start = self.pos;
        let mut n = 0u64;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(&d @ b'0'..=b'9') = self.bytes.get(self.pos) {
                    n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        // Plain integers of up to 19 digits fit a u64, and the u64 → f64
        // conversion rounds to nearest-even exactly as the general parse
        // does, so the fast path yields the same bits.
        let plain = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if plain && self.pos - int_start <= 19 {
            let x = n as f64;
            return Ok(if negative { -x } else { x });
        }
        self.number_tail(start)
    }

    /// The fraction and exponent of a number whose integer part ends here,
    /// then the general parse of the whole token from `start`.
    fn number_tail(&mut self, start: usize) -> Result<f64, JsonError> {
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            self.digits();
        }
        let x: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("number out of range"))?;
        if !x.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(x)
    }
}

// --- blanket and primitive impls -----------------------------------------

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl FromJson for u32 {
    #[inline]
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let x = v.as_u64()?;
        u32::try_from(x).map_err(|_| JsonError::msg(format!("{x} overflows u32")))
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        // Seeds and counts beyond 2^53 are stored as exact decimal strings
        // would be safer, but the workspace keeps all persisted u64s within
        // the f64-exact range; assert rather than lose bits silently.
        assert!(
            *self <= 1u64 << 53,
            "u64 value {self} exceeds the f64-exact range"
        );
        Json::Num(*self as f64)
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_u64()
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        (*self as u64).to_json()
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let x = v.as_u64()?;
        usize::try_from(x).map_err(|_| JsonError::msg(format!("{x} overflows usize")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_string())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.in_path(format!("[{i}]"))))
            .collect()
    }
}

impl<K: Ord + ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

/// Serialises any [`ToJson`] value to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.to_json().write(&mut out);
    out
}

/// Parses a JSON document and converts it to `T`.
///
/// Conversion errors that carry a key path are re-anchored to the byte
/// offset of that path in `text`, so callers see *where* in the document
/// the offending value sits, not just which field it was.
///
/// # Errors
///
/// Returns the first syntax or conversion error.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?).map_err(|e| e.located_in(text))
}

/// Walks `text` to the value addressed by `path` (object keys bare,
/// array indices as `[i]`) and returns its byte offset, or `None` if the
/// path does not resolve — e.g. because it names a missing field.
fn locate(text: &str, path: &[String]) -> Option<usize> {
    let mut r = Reader::new(text);
    let mut event = r.value().ok()?;
    for seg in path {
        if let Some(idx) = seg.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let want: usize = idx.parse().ok()?;
            if event != Event::Arr {
                return None;
            }
            for _ in 0..want {
                if !r.next_item().ok()? {
                    return None;
                }
                r.skip_value().ok()?;
            }
            if !r.next_item().ok()? {
                return None;
            }
        } else {
            if event != Event::Obj {
                return None;
            }
            while r.next_key().ok()?? != seg.as_str() {
                r.skip_value().ok()?;
            }
        }
        event = r.value().ok()?;
    }
    Some(r.value_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("writer output must parse")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.0),
            Json::Num(3.141592653589793),
            Json::Num(1e300),
            Json::Num(-2.2250738585072014e-308),
            Json::Str(String::new()),
            Json::Str("hello \"world\"\n\t\\ ∑ 🎉".to_string()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn f64_bit_exact_round_trip() {
        // A stress sample across the exponent range, including values with
        // no short decimal representation.
        let mut x = 1.0f64;
        for i in 0..200 {
            let v = x * (1.0 + (i as f64) * 1e-13) * if i % 2 == 0 { 1.0 } else { -1.0 };
            let back = round_trip(&Json::Num(v));
            match back {
                Json::Num(y) => assert_eq!(y.to_bits(), v.to_bits(), "value {v}"),
                other => panic!("expected number, got {other:?}"),
            }
            x *= 3.7;
            if !x.is_finite() {
                x = 1.0e-250;
            }
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(96.0).to_string(), "96");
        assert_eq!(Json::Num(-5.0).to_string(), "-5");
        assert_eq!(to_string(&42u32), "42");
        assert_eq!(to_string(&(1u64 << 53)), "9007199254740992");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("name", "gzip".to_json()),
            ("metrics", Json::Arr(vec![Json::Num(1.5), Json::Num(2.5)])),
            (
                "inner",
                Json::obj([("ok", Json::Bool(true)), ("n", Json::Null)]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let text = r#"
            { "a" : [ 1 , 2.5e1 , -3 ] ,
              "b" : "line\nbreak Aé 🎉" }
        "#;
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.field("a").unwrap().as_array().unwrap()[1],
            Json::Num(25.0)
        );
        assert_eq!(v.field("b").unwrap().as_str().unwrap(), "line\nbreak Aé 🎉");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1, 2",
            "[1 2]",
            "{\"a\": }",
            "{\"a\" 1}",
            "{a: 1}",
            "tru",
            "nulll",
            "01",
            "1.",
            "1e",
            "+1",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\ud800 unpaired\"",
            "[1] trailing",
            "[1,]",
            "{\"a\": 1,}",
            "{,}",
            "NaN",
            "Infinity",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn depth_limit_rejects_pathological_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
    }

    #[test]
    fn error_carries_offset() {
        let err = Json::parse("[1, 2, oops]").unwrap_err();
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn field_and_accessor_errors_are_descriptive() {
        let v = Json::parse("{\"x\": 1}").unwrap();
        assert!(v.field("y").unwrap_err().message.contains("missing"));
        assert!(v.field("x").unwrap().as_str().is_err());
        assert!(Json::Num(1.5).as_u64().is_err());
        assert!(Json::Num(-1.0).as_u64().is_err());
    }

    #[test]
    fn vec_and_primitive_traits_round_trip() {
        let xs = vec![1.5f64, -2.25, 1e-12];
        let back: Vec<f64> = from_str(&to_string(&xs)).unwrap();
        assert_eq!(back, xs);
        let n: u32 = from_str("4096").unwrap();
        assert_eq!(n, 4096);
        assert!(from_str::<u32>("4294967296").is_err());
        assert!(from_str::<u32>("3.5").is_err());
    }

    #[test]
    fn get_tags_errors_with_key_path() {
        let v = Json::parse(r#"{"outer": {"inner": "oops"}}"#).unwrap();
        let outer = v.field("outer").unwrap();
        let err = outer.get::<f64>("inner").unwrap_err().in_path("outer");
        assert_eq!(err.path, vec!["outer".to_string(), "inner".to_string()]);
        assert_eq!(err.path_string(), "$.outer.inner");
        let shown = err.to_string();
        assert!(shown.contains("$.outer.inner"), "display: {shown}");
    }

    #[test]
    fn vec_conversion_errors_carry_index_segments() {
        let err = from_str::<Vec<f64>>("[1.0, 2.0, \"x\"]").unwrap_err();
        assert_eq!(err.path, vec!["[2]".to_string()]);
        assert_eq!(err.path_string(), "$[2]");
    }

    #[test]
    fn from_str_locates_conversion_errors_by_byte_offset() {
        let text = r#"{"a": [1, 2], "b": [3, "bad"]}"#;
        #[derive(Debug)]
        struct Two;
        impl FromJson for Two {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let _: Vec<f64> = v.get("a")?;
                let _: Vec<f64> = v.get("b")?;
                Ok(Two)
            }
        }
        let err = from_str::<Two>(text).unwrap_err();
        assert_eq!(err.path_string(), "$.b[1]");
        assert_eq!(err.offset, text.find("\"bad\"").unwrap());
        assert!(err.to_string().contains("byte 23"), "display: {err}");
    }

    #[test]
    fn locate_handles_missing_paths_gracefully() {
        assert_eq!(locate("[1, 2]", &["[5]".to_string()]), None);
        assert_eq!(locate("{\"a\": 1}", &["b".to_string()]), None);
        assert_eq!(locate("17", &["a".to_string()]), None);
        let text = r#"{"a": {"b": [10, 20, 30]}}"#;
        let path = vec!["a".to_string(), "b".to_string(), "[2]".to_string()];
        assert_eq!(locate(text, &path), Some(text.find("30").unwrap()));
    }

    #[test]
    fn parser_errors_keep_the_legacy_display_format() {
        let err = Json::parse("[1, 2, oops]").unwrap_err();
        assert!(err.path.is_empty());
        assert_eq!(err.to_string(), "unexpected character (at byte 7)");
    }

    #[test]
    fn number_output_is_pinned_byte_for_byte() {
        for (x, text) in [
            (0.1, "0.1"),
            (1.0 / 3.0, "0.3333333333333333"),
            (1e-300, "1e-300"),
            (1e300, "1e300"),
            (2f64.powi(53), "9007199254740992"),
            (2f64.powi(53) + 2.0, "9007199254740994.0"),
            (-0.0, "0"),
            (-1.5, "-1.5"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (-2f64.powi(53), "-9007199254740992"),
        ] {
            assert_eq!(Json::Num(x).to_string(), text, "{x:e}");
        }
    }

    #[test]
    fn integer_fast_path_matches_the_general_parse() {
        for text in [
            "0",
            "-0",
            "7",
            "-64",
            "999999999999999",
            "-999999999999999",
            "9007199254740993",
            "9007199254740995",
            "-9223372036854775809",
            "9999999999999999999",
            "18446744073709551617",
            "64.0",
            "6.4e1",
            "-0.0",
        ] {
            let want: f64 = text.parse().unwrap();
            let got = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
    }

    #[test]
    fn reader_pulls_events_and_borrows_plain_strings() {
        let mut r = Reader::new(r#" {"a": [1, "x\ny"], "b\u0063": {}, "d": null} "#);
        assert_eq!(r.value().unwrap(), Event::Obj);
        assert_eq!(r.value_start(), 1);
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("a")), "{key:?}");
        assert_eq!(r.value().unwrap(), Event::Arr);
        assert!(r.next_item().unwrap());
        assert_eq!(r.value().unwrap(), Event::Num(1.0));
        assert!(r.next_item().unwrap());
        assert_eq!(r.value().unwrap(), Event::Str(Cow::Owned("x\ny".into())));
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("bc"));
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("d"));
        assert_eq!(r.value().unwrap(), Event::Null);
        assert_eq!(r.value_start(), r.text.find("null").unwrap());
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn skip_value_consumes_exactly_one_value() {
        let text = r#"[{"a": [[], {"b": [1, {}]}], "c": "]}"}, 2, [3]]"#;
        let mut r = Reader::new(text);
        assert_eq!(r.value().unwrap(), Event::Arr);
        assert!(r.next_item().unwrap());
        r.skip_value().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.value().unwrap(), Event::Num(2.0));
        assert!(r.next_item().unwrap());
        r.skip_value().unwrap();
        assert!(!r.next_item().unwrap());
        r.finish().unwrap();
        // Skipping validates: a broken container still fails.
        let mut r = Reader::new(r#"{"a": [1 2]}"#);
        r.value().unwrap();
        r.next_key().unwrap();
        assert_eq!(r.skip_value().unwrap_err().offset, 9);
    }

    #[test]
    fn read_array_keeps_the_first_element_error_and_reads_on() {
        let decode = |text: &str| {
            let mut r = Reader::new(text);
            let out = r.read_array(|r| r.read_from_json::<u32>())?;
            r.finish()?;
            Ok::<_, JsonError>(out)
        };
        assert_eq!(decode("[1, 2, 3]").unwrap().unwrap(), vec![1, 2, 3]);
        let err = decode(r#"[1, "x", -1]"#).unwrap().unwrap_err();
        assert_eq!(err.path_string(), "$[1]");
        assert_eq!(err.offset, 4);
        let err = decode(r#"{"a": 1}"#).unwrap().unwrap_err();
        assert!(err.message.contains("expected array"), "{err}");
        // A syntax error after a bad element still wins.
        let err = decode(r#"[1, "x", -]"#).unwrap_err();
        assert_eq!(err.message, "invalid number");
        assert_eq!(err.offset, 10);
    }

    #[test]
    fn read_from_json_locates_nested_conversion_errors() {
        let text = r#"[0, {"a": [1, 2], "b": [3, "bad"]}]"#;
        let mut r = Reader::new(text);
        r.value().unwrap();
        r.next_item().unwrap();
        r.skip_value().unwrap();
        r.next_item().unwrap();
        #[derive(Debug)]
        struct Two;
        impl FromJson for Two {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let _: Vec<f64> = v.get("a")?;
                let _: Vec<f64> = v.get("b")?;
                Ok(Two)
            }
        }
        let err = r.read_from_json::<Two>().unwrap().unwrap_err();
        assert_eq!(err.path_string(), "$.b[1]");
        assert_eq!(err.offset, text.find("\"bad\"").unwrap());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writer_rejects_nan() {
        let mut s = String::new();
        Json::Num(f64::NAN).write(&mut s);
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        let s = "\u{01}\u{1F}\u{08}\u{0C}".to_string();
        let v = Json::Str(s.clone());
        assert_eq!(round_trip(&v), v);
        assert!(v.to_string().contains("\\u0001"));
    }
}
