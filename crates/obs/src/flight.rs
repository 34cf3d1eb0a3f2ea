//! The trace recorder: one always-on, bounded ring of recent records —
//! point events and timed spans — for post-hoc debugging and profiling.
//!
//! An **event** ([`event`]/[`event_for`]) marks a point in time: request
//! lifecycle edges, registry/cache lookups, ingest imports, errors. A
//! **span** ([`crate::span!`]) times the scope its guard lives in and is
//! recorded, with `dur_us`, when the guard drops; a span opened while
//! another is live on the same thread becomes its child. Both are one
//! [`Record`] type with one clock, one JSONL writer ([`to_jsonl`]) and
//! one thread-local [`Context`]: the active request id (set by
//! [`scope`]) and the innermost live span. `dse_util::par::par_map`
//! forwards the caller's context to its workers, so work a request fans
//! out keeps both its request id and its span parent — which is how a
//! `GET /v1/obs/flight?request=<id>` dump reconstructs one request's
//! reactor → worker → cache/registry chain, and the spans it caused,
//! from interleaved traffic.
//!
//! Records go to a ring sharded by the recording thread (the
//! [`registry`](crate::registry)'s shard picker): one sequence-number
//! fetch, one clock read and one short critical section on the thread's
//! own shard, never a global lock. Each shard drops its oldest record
//! when full, so at most [`CAPACITY`] records are retained. A run that
//! wants every record (the CLI's `train --obs`) brackets its work with
//! [`start_capture`]/[`finish_capture`]. [`flame`] aggregates span
//! records into the self-time table that [`Flame::render`] prints, for
//! `train --obs pretty` and `archdse obs report` alike.
//!
//! Dump triggers, wired up in `dse-serve`: `GET /v1/obs/flight`,
//! `SIGUSR1` (via [`request_dump`]; the signal handler only flips an
//! atomic, the reactor loop does the writing), and automatically on
//! worker panic or 5xx (only the failing request's records, via
//! [`dump_for`]).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::registry::{thread_shard, SHARDS};

/// Ring shards: every second registry shard shares one, so each of a
/// default server's reactor and worker threads keeps [`SHARD_CAP`]
/// records of its own until more threads than this have recorded.
const RING_SHARDS: usize = SHARDS / 2;
/// Records retained per shard.
const SHARD_CAP: usize = 256;
/// Records retained in total (~2 Ki; one record is under 300 bytes, so
/// the whole recorder stays under 600 KiB).
pub const CAPACITY: usize = RING_SHARDS * SHARD_CAP;
/// Bytes of detail text a record keeps; a longer detail is cut to fit
/// and ends in [`CUT_MARK`].
pub const DETAIL_CAP: usize = 256;
/// Ends a detail that was cut to [`DETAIL_CAP`] bytes.
pub const CUT_MARK: &str = "…";

/// One recorded event or span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Global sequence number (1-based, total order across shards). A
    /// span takes its number when it opens; children name it as `parent`.
    pub seq: u64,
    /// Microseconds since the recorder's first use (a span's start).
    pub ts_us: u64,
    /// Request id active on the recording thread; 0 = none.
    pub request: u64,
    /// `seq` of the enclosing span; 0 = none.
    pub parent: u64,
    /// Event kind or span name, e.g. `"cache.hit"` or `"train_mlp"`.
    pub kind: Cow<'static, str>,
    /// Free-form detail (route, key, outcome, error text); a span's
    /// `key=value` fields.
    pub detail: Detail,
    /// A span's duration in microseconds; `None` for an event.
    pub dur_us: Option<u64>,
}

/// A record's detail text, kept inline: at most [`DETAIL_CAP`] bytes, a
/// longer text cut at a char boundary and marked with [`CUT_MARK`]. Recording thus retains no heap memory, which
/// matters because a retained allocation made on a short-lived
/// `par_map` worker keeps that thread's malloc arena from returning freed
/// memory (retained heap strings raised peak RSS ~20 % on the
/// benchmark's `sweep` workload).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Detail {
    len: usize,
    bytes: [u8; DETAIL_CAP],
}

impl Detail {
    /// `text`, or when it is longer than [`DETAIL_CAP`] bytes, its
    /// longest prefix (cut at a char boundary) that fits with [`CUT_MARK`].
    pub fn new(text: &str) -> Detail {
        let (mut len, mark) = if text.len() <= DETAIL_CAP {
            (text.len(), "")
        } else {
            (DETAIL_CAP - CUT_MARK.len(), CUT_MARK)
        };
        while !text.is_char_boundary(len) {
            len -= 1;
        }
        let mut bytes = [0; DETAIL_CAP];
        bytes[..len].copy_from_slice(&text.as_bytes()[..len]);
        bytes[len..len + mark.len()].copy_from_slice(mark.as_bytes());
        Detail {
            len: len + mark.len(),
            bytes,
        }
    }
}

impl std::ops::Deref for Detail {
    type Target = str;
    fn deref(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len])
            .expect("`Detail::new` keeps a char-boundary prefix of a str")
    }
}

impl std::fmt::Debug for Detail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// What a thread is working on: the records it makes carry both ids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Context {
    /// The active request id; 0 = none.
    pub request: u64,
    /// `seq` of the innermost live span; 0 = none.
    pub span: u64,
}

thread_local! {
    static CONTEXT: Cell<Context> = const { Cell::new(Context { request: 0, span: 0 }) };
}

impl Context {
    /// This thread's context. Capture it before handing work to another
    /// thread and [`enter`](Context::enter) it there.
    pub fn current() -> Context {
        CONTEXT.with(Cell::get)
    }

    /// Makes `self` this thread's context until the guard drops.
    pub fn enter(self) -> ContextGuard {
        ContextGuard {
            prev: CONTEXT.with(|c| c.replace(self)),
        }
    }
}

/// RAII guard restoring the previous [`Context`] on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Context,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// Marks this thread as working on request `id` until the guard drops.
pub fn scope(id: u64) -> ContextGuard {
    Context {
        request: id,
        ..Context::current()
    }
    .enter()
}

/// One shard: slots overwritten oldest-first, and the next slot to write.
/// Like [`Detail`], the slots live in the static itself rather than in a
/// heap buffer that whichever thread records first would allocate.
struct Ring([Option<Record>; SHARD_CAP], usize);

static RINGS: [Mutex<Ring>; RING_SHARDS] =
    [const { Mutex::new(Ring([const { None }; SHARD_CAP], 0)) }; RING_SHARDS];
static SEQ: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);
static CAPTURING: AtomicBool = AtomicBool::new(false);
static CAPTURE: Mutex<Vec<Record>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed) + 1
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn push(r: Record) {
    if CAPTURING.load(Ordering::Relaxed) {
        lock(&CAPTURE).push(r.clone());
    }
    let mut ring = lock(&RINGS[thread_shard() % RING_SHARDS]);
    let i = ring.1;
    ring.0[i] = Some(r);
    ring.1 = (i + 1) % SHARD_CAP;
}

/// Records an event under this thread's active request id.
pub fn event(kind: &'static str, detail: impl AsRef<str>) {
    event_for(Context::current().request, kind, detail);
}

/// Records an event under an explicit request id (0 = none).
pub fn event_for(request: u64, kind: &'static str, detail: impl AsRef<str>) {
    push(Record {
        seq: next_seq(),
        ts_us: now_us(),
        request,
        parent: Context::current().span,
        kind: Cow::Borrowed(kind),
        detail: Detail::new(detail.as_ref()),
        dur_us: None,
    });
}

/// An RAII span guard. Create with [`crate::span!`]; the span becomes
/// this thread's current span, and on drop restores its parent and
/// records itself with its duration.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    seq: u64,
    ts_us: u64,
    name: &'static str,
    fields: String,
    outer: Context,
}

impl Span {
    /// Opens a span; prefer [`crate::span!`], which renders `fields`.
    pub fn start(name: &'static str, fields: String) -> Span {
        let seq = next_seq();
        let outer = CONTEXT.with(|c| {
            c.replace(Context {
                span: seq,
                ..c.get()
            })
        });
        Span {
            seq,
            ts_us: now_us(),
            name,
            fields,
            outer,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = now_us();
        CONTEXT.with(|c| c.set(self.outer));
        push(Record {
            seq: self.seq,
            ts_us: self.ts_us,
            request: self.outer.request,
            parent: self.outer.span,
            kind: Cow::Borrowed(self.name),
            detail: Detail::new(&self.fields),
            dur_us: Some(end.saturating_sub(self.ts_us)),
        });
    }
}

/// Opens a timed span over the enclosing scope.
///
/// `span!("name")` or `span!("name", key = expr, ...)`; the fields are
/// rendered with `Display` as `key=value` pairs separated by spaces. Bind
/// the result (`let _guard = span!(...)`) — dropping it immediately
/// records an empty span.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::flight::Span::start($name, ::std::string::String::new())
    };
    ($name:expr, $key:ident = $val:expr $(, $keys:ident = $vals:expr)* $(,)?) => {
        $crate::flight::Span::start(
            $name,
            ::std::format!(
                ::std::concat!(::std::stringify!($key), "={}" $(, " ", ::std::stringify!($keys), "={}")*),
                $val $(, $vals)*
            ),
        )
    };
}

/// Snapshots all retained records, merged and sorted by sequence number.
///
/// Writers on other threads may record while the dump runs; each shard
/// is snapshotted under its own lock, so every returned record is whole
/// and the result is a consistent (if instantaneously stale) view.
pub fn dump() -> Vec<Record> {
    let mut all: Vec<Record> = Vec::new();
    for shard in &RINGS {
        all.extend(lock(shard).0.iter().flatten().cloned());
    }
    all.sort_unstable_by_key(|r| r.seq);
    all
}

/// [`dump`] filtered to one request id's records.
pub fn dump_for(request: u64) -> Vec<Record> {
    dump()
        .into_iter()
        .filter(|r| r.request == request)
        .collect()
}

/// Starts copying every record into the capture sink (clearing it).
pub fn start_capture() {
    lock(&CAPTURE).clear();
    CAPTURING.store(true, Ordering::Relaxed);
}

/// Stops capturing and returns the captured records sorted by sequence
/// number (empty when no capture was started).
pub fn finish_capture() -> Vec<Record> {
    CAPTURING.store(false, Ordering::Relaxed);
    let mut all = std::mem::take(&mut *lock(&CAPTURE));
    all.sort_unstable_by_key(|r| r.seq);
    all
}

/// Renders records as JSONL, one object per line (trailing newline when
/// non-empty): `seq`, `ts_us`, `request`, `parent`, `kind`, `detail`,
/// and `dur_us` for spans.
pub fn to_jsonl(records: &[Record]) -> String {
    let mut out = String::with_capacity(records.len() * 112);
    for r in records {
        let _ = write!(
            out,
            "{{\"seq\":{},\"ts_us\":{},\"request\":{},\"parent\":{},\"kind\":\"",
            r.seq, r.ts_us, r.request, r.parent
        );
        json_escape_into(&mut out, &r.kind);
        out.push_str("\",\"detail\":\"");
        json_escape_into(&mut out, &r.detail);
        out.push('"');
        if let Some(d) = r.dur_us {
            let _ = write!(out, ",\"dur_us\":{d}");
        }
        out.push_str("}\n");
    }
    out
}

/// Escapes `s` as the inside of a JSON string literal. The recorder has
/// no JSON dependency by design: it only ever writes JSON.
fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Requests an asynchronous dump (async-signal-safe: one atomic store).
/// The serve reactor polls [`take_dump_request`] and writes the dump to
/// stderr from its own loop.
pub fn request_dump() {
    DUMP_REQUESTED.store(true, Ordering::Release);
}

/// Consumes a pending [`request_dump`], returning whether one was set.
pub fn take_dump_request() -> bool {
    DUMP_REQUESTED.swap(false, Ordering::AcqRel)
}

/// One row of the self-time flame table: all spans sharing a name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlameRow<'a> {
    /// Span name.
    pub name: &'a str,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_us: u64,
    /// Summed self times: duration minus the durations of direct
    /// children, clamped at zero per span (parallel children can sum to
    /// more than their parent's wall time).
    pub self_us: u64,
}

/// The span records of a trace, aggregated by [`flame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flame<'a> {
    /// One row per span name, by self time descending, then name.
    pub rows: Vec<FlameRow<'a>>,
    /// Summed durations of the roots: spans whose parent is 0 or not in
    /// the trace (a ring dump may have lost it, or it is still open).
    pub wall_us: u64,
}

/// Aggregates the span records among `records` (events are skipped) into
/// a self-time flame table.
pub fn flame(records: &[Record]) -> Flame<'_> {
    let spans: Vec<(&Record, u64)> = records
        .iter()
        .filter_map(|r| r.dur_us.map(|d| (r, d)))
        .collect();
    let ids: HashSet<u64> = spans.iter().map(|(r, _)| r.seq).collect();
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    let mut wall_us = 0;
    for &(r, d) in &spans {
        if ids.contains(&r.parent) {
            *child_us.entry(r.parent).or_insert(0) += d;
        } else {
            wall_us += d;
        }
    }
    let mut rows: BTreeMap<&str, FlameRow<'_>> = BTreeMap::new();
    for &(r, d) in &spans {
        let row = rows.entry(&r.kind).or_insert_with(|| FlameRow {
            name: &r.kind,
            ..FlameRow::default()
        });
        row.count += 1;
        row.total_us += d;
        row.self_us += d.saturating_sub(child_us.get(&r.seq).copied().unwrap_or(0));
    }
    let mut rows: Vec<FlameRow<'_>> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(b.name)));
    Flame { rows, wall_us }
}

impl Flame<'_> {
    /// Renders the table as aligned text: the `top` hottest rows (all
    /// when `None`), total and self time as ms and as a share of wall
    /// time, then a summary line with the span count, wall time and
    /// self-time coverage.
    pub fn render(&self, top: Option<usize>) -> String {
        let shown = top.unwrap_or(self.rows.len()).min(self.rows.len());
        let pct = |us: u64| 100.0 * us as f64 / self.wall_us.max(1) as f64;
        let w = self.rows.iter().map(|r| r.name.len()).fold(4, usize::max);
        let mut out = format!(
            "{:<w$}  {:>8}  {:>12}  {:>7}  {:>12}  {:>7}\n",
            "span", "count", "total_ms", "total%", "self_ms", "self%"
        );
        for r in &self.rows[..shown] {
            let _ = writeln!(
                out,
                "{:<w$}  {:>8}  {:>12.3}  {:>6.1}%  {:>12.3}  {:>6.1}%",
                r.name,
                r.count,
                r.total_us as f64 / 1e3,
                pct(r.total_us),
                r.self_us as f64 / 1e3,
                pct(r.self_us)
            );
        }
        if shown < self.rows.len() {
            let _ = writeln!(
                out,
                "... {} more spans (raise --top to see them)",
                self.rows.len() - shown
            );
        }
        let self_total: u64 = self.rows.iter().map(|r| r.self_us).sum();
        let _ = writeln!(
            out,
            "\n{} spans, wall {:.3} ms, self-time coverage {:.1}%",
            self.rows.iter().map(|r| r.count).sum::<u64>(),
            self.wall_us as f64 / 1e3,
            pct(self_total)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; tests share it, so each filters by
    // a distinct request id (or unique kind) instead of assuming an
    // empty ring — and tests that assert on retention or use the capture
    // sink run serialized, because a parallel test mapped to the same
    // shard can evict records, and capture is one global switch.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        lock(&SERIAL)
    }

    fn span_rec(seq: u64, parent: u64, name: &'static str, dur_us: u64) -> Record {
        Record {
            seq,
            ts_us: 0,
            request: 0,
            parent,
            kind: Cow::Borrowed(name),
            detail: Detail::new(""),
            dur_us: Some(dur_us),
        }
    }

    #[test]
    fn events_carry_thread_request_scope() {
        let _g = serial();
        let s = scope(771);
        {
            let _inner = scope(202);
            assert_eq!(Context::current().request, 202);
        }
        event("test.scope", "inner");
        let mine = dump_for(771);
        assert_eq!(mine.len(), 1);
        assert_eq!((&*mine[0].kind, &*mine[0].detail), ("test.scope", "inner"));
        assert_eq!(mine[0].dur_us, None);
        drop(s);
        assert_eq!(Context::current().request, 0);
    }

    #[test]
    fn dump_is_sorted_by_seq() {
        let _g = serial();
        for i in 0..20 {
            event_for(772, "test.order", format!("e{i}"));
        }
        let all = dump();
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        let mine: Vec<_> = all.iter().filter(|r| r.request == 772).collect();
        assert_eq!(mine.len(), 20);
        assert_eq!(&*mine[0].detail, "e0");
        assert_eq!(&*mine[19].detail, "e19");
    }

    #[test]
    fn wraparound_keeps_only_recent() {
        let _g = serial();
        // Everything below runs on one thread, hence one shard: pushing
        // far past SHARD_CAP must retain exactly the newest SHARD_CAP.
        let total = SHARD_CAP * 3;
        for i in 0..total {
            event_for(773, "test.wrap", format!("w{i}"));
        }
        let mine = dump_for(773);
        assert!(mine.len() <= SHARD_CAP);
        // The newest event always survives.
        assert_eq!(*mine.last().unwrap().detail, format!("w{}", total - 1));
        // Retained events are the contiguous newest run.
        let first_kept: usize = mine[0].detail[1..].parse().unwrap();
        assert_eq!(mine.len(), total - first_kept);
    }

    #[test]
    fn retention_stays_bounded_without_capture() {
        let _g = serial();
        // Ten times the capacity in events and spans, from more threads
        // than there are shards, with no capture running.
        let threads = 2 * SHARDS;
        let per_thread = 10 * CAPACITY / threads;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let _s = scope(774);
                    for n in 0..per_thread / 2 {
                        event("test.bound", format!("t{t}n{n}"));
                        let _span = crate::span!("test.bound_span", n = n);
                    }
                });
            }
        });
        assert!(dump().len() <= CAPACITY);
        let mine = dump_for(774);
        assert!(!mine.is_empty() && mine.len() <= CAPACITY);
        assert!(finish_capture().is_empty(), "nothing was captured");
    }

    #[test]
    fn spans_nest_restore_context_and_cross_threads() {
        let _g = serial();
        start_capture();
        let inner_seq = {
            let _s = scope(775);
            let outer_span = crate::span!("t.outer");
            let outer = Context::current();
            assert_eq!(outer.span, outer_span.seq);
            let inner_seq = {
                let inner = crate::span!("t.inner", n = 7, tag = "x");
                assert_eq!(Context::current().span, inner.seq, "innermost is current");
                inner.seq
            };
            assert_eq!(Context::current(), outer);
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _ctx = outer.enter();
                    let _child = crate::span!("t.worker");
                });
            });
            inner_seq
        };
        assert_eq!(Context::current(), Context::default());
        let recs = finish_capture();
        let find = |k: &str| recs.iter().find(|r| r.kind == k).unwrap();
        let (outer, inner, worker) = (find("t.outer"), find("t.inner"), find("t.worker"));
        assert_eq!(inner.seq, inner_seq);
        assert_eq!(&*inner.detail, "n=7 tag=x");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.seq);
        assert_eq!(worker.parent, outer.seq);
        for r in [outer, inner, worker] {
            assert_eq!(r.request, 775);
            assert!(r.dur_us.is_some());
        }
        assert!(inner.ts_us + inner.dur_us.unwrap() <= outer.ts_us + outer.dur_us.unwrap());
    }

    #[test]
    fn jsonl_shapes_events_and_spans() {
        let event = Record {
            ts_us: 2,
            request: 3,
            detail: Detail::new("a\"b\\\nc\u{1}"),
            dur_us: None,
            ..span_rec(1, 0, "err", 0)
        };
        assert_eq!(
            to_jsonl(&[event, span_rec(4, 1, "t.json", 5)]),
            concat!(
                r#"{"seq":1,"ts_us":2,"request":3,"parent":0,"kind":"err","detail":"a\"b\\\nc\u0001"}"#,
                "\n",
                r#"{"seq":4,"ts_us":0,"request":0,"parent":1,"kind":"t.json","detail":"","dur_us":5}"#,
                "\n"
            )
        );
    }

    #[test]
    fn detail_is_cut_at_a_char_boundary() {
        // "é" is two bytes and CUT_MARK three, so the kept prefix of an
        // all-"é" text ends one byte short of the cap.
        let long = "é".repeat(DETAIL_CAP);
        let cut = Detail::new(&long);
        assert_eq!(cut.len(), DETAIL_CAP - 1);
        assert!(cut.ends_with(&format!("é{CUT_MARK}")), "{cut:?}");
        assert_eq!(Detail::new(&format!("x{long}")).len(), DETAIL_CAP);
        let fits = "a".repeat(DETAIL_CAP);
        assert_eq!(*Detail::new(&fits), fits);
        assert_eq!(&*Detail::new("short"), "short");
    }

    #[test]
    fn take_dump_request_consumes() {
        assert!(!take_dump_request());
        request_dump();
        assert!(take_dump_request());
        assert!(!take_dump_request());
    }

    #[test]
    fn concurrent_writers_and_dumps_stay_consistent() {
        let _g = serial();
        // Fixed write counts, not a stop flag: on a 1-vCPU host the
        // dumping thread can otherwise finish before any writer runs.
        const PER_WRITER: usize = 300; // > SHARD_CAP: exercises overwrite
        let writers: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for n in 0..PER_WRITER {
                        event_for(800 + t, "test.conc", format!("t{t}n{n}"));
                    }
                })
            })
            .collect();
        // Dump repeatedly while writers hammer the rings: every snapshot
        // must hold whole records in strictly increasing seq order.
        for _ in 0..50 {
            let snap = dump();
            assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
            for r in &snap {
                assert!(!r.kind.is_empty());
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        // After the writers retire, the newest of their events survives
        // in the final dump (it was the last push to its shard's ring
        // before any later test activity).
        let final_dump = dump();
        assert!(final_dump.iter().any(|r| r.kind == "test.conc"));
        assert!(final_dump.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn flame_subtracts_children_clamps_and_roots_orphans() {
        // Two `job`s as long as their parent (they ran in parallel), an
        // `orphan` whose parent is not in the trace (evicted or still
        // open) with one child, and an event, which is skipped.
        let records = [
            span_rec(1, 0, "outer", 100),
            span_rec(2, 1, "job", 100),
            span_rec(3, 1, "job", 100),
            span_rec(9, 7, "orphan", 30),
            span_rec(5, 9, "inner", 10),
            Record {
                dur_us: None,
                ..span_rec(4, 1, "an.event", 0)
            },
        ];
        let f = flame(&records);
        assert_eq!(f.wall_us, 130);
        let rows: Vec<_> = f
            .rows
            .iter()
            .map(|r| (r.name, r.count, r.total_us, r.self_us))
            .collect();
        let want = [
            ("job", 2, 200, 200),
            ("orphan", 1, 30, 20),
            ("inner", 1, 10, 10),
            ("outer", 1, 100, 0),
        ];
        assert_eq!(rows, want);
    }

    #[test]
    fn render_is_aligned_and_honours_top() {
        let records = [
            span_rec(1, 0, "alpha", 3_000),
            span_rec(2, 1, "beta", 1_000),
        ];
        let text = flame(&records).render(Some(1));
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("span ") && lines[0].ends_with("self%"),
            "{text}"
        );
        assert!(
            lines[1].starts_with("alpha") && lines[1].ends_with("66.7%"),
            "{text}"
        );
        let tail = [
            "... 1 more spans (raise --top to see them)",
            "",
            "2 spans, wall 3.000 ms, self-time coverage 100.0%",
        ];
        assert_eq!(lines[2..], tail);
    }
}
