//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap the benchmark's calls into each layer (crate) of the
//! workspace; nothing inside the program under test is instrumented, and
//! the workspace's own tracing stays off so the traced pass runs the same
//! code as the untraced one. Recording is off unless the traced pass turns
//! it on; a span that is off only reads the clock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// The span open on the same thread when this one began, or the
    /// explicit parent of a span started on a worker thread.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `sim.simulate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn since_epoch(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::SeqCst);
}

/// An open span; it closes (and is recorded) when dropped.
pub struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    live: bool,
}

impl Span {
    fn open(name: &'static str, parent: Option<u64>) -> Self {
        let live = ON.load(Ordering::Relaxed);
        let id = if live {
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            STACK.with(|s| s.borrow_mut().push(id));
            id
        } else {
            0
        };
        Self {
            id,
            parent,
            name,
            start: Instant::now(),
            live,
        }
    }

    /// The span's id while recording is on.
    pub fn id(&self) -> Option<u64> {
        self.live.then_some(self.id)
    }

    /// Time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: since_epoch(self.start),
            end_ns: since_epoch(end),
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(record);
        }
    }
}

/// Opens a span whose parent is the innermost span open on this thread.
pub fn span(name: &'static str) -> Span {
    let parent = STACK.with(|s| s.borrow().last().copied());
    Span::open(name, parent)
}

/// Opens a span under an explicit parent — for work a span hands to
/// another thread.
pub fn child_of(name: &'static str, parent: Option<u64>) -> Span {
    Span::open(name, parent)
}

/// Runs `f` inside a span and returns its result and wall time.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let s = span(name);
    let r = f();
    let elapsed = s.elapsed();
    drop(s);
    (r, elapsed)
}

/// Drains every recorded span, in closing order.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned by a panic"))
}

/// Self-time aggregate of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub count: usize,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Aggregates spans by name, largest self time first. A span's self time
/// is its duration minus the union of its children's intervals (clipped
/// to the span), so children running in parallel on other threads are
/// not subtracted twice.
pub fn self_times(spans: &[SpanRecord]) -> Vec<SelfRow> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: Vec<SelfRow> = Vec::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|v| {
                v.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|&(a, b)| b > a)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_unstable();
        let (mut covered, mut cursor) = (0u64, s.start_ns);
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let self_ns = total - covered.min(total);
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.count += 1;
                r.total_ns += total;
                r.self_ns += self_ns;
            }
            None => rows.push(SelfRow {
                name: s.name,
                count: 1,
                total_ns: total,
                self_ns,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// One JSON object per span, one span per line.
pub fn to_jsonl(spans: &[SpanRecord], workload: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{workload}\"}}\n",
            s.id, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, "op", 0, 100),
            // Two overlapping children on different threads cover 10..60.
            rec(2, Some(1), "sim", 10, 50),
            rec(3, Some(1), "sim", 20, 60),
            // A child running past its parent is clipped.
            rec(4, Some(1), "ml", 90, 130),
        ];
        let rows = self_times(&spans);
        let op = rows.iter().find(|r| r.name == "op").unwrap();
        assert_eq!(op.total_ns, 100);
        assert_eq!(op.self_ns, 100 - 50 - 10);
        let sim = rows.iter().find(|r| r.name == "sim").unwrap();
        assert_eq!((sim.count, sim.total_ns, sim.self_ns), (2, 80, 80));
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![rec(1, None, "a", 0, 5), rec(2, Some(1), "b", 1, 2)];
        let text = to_jsonl(&spans, "sweep");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = dse_util::json::Json::parse(line).unwrap();
            assert_eq!(v.field("workload").unwrap().as_str().unwrap(), "sweep");
        }
    }
}
