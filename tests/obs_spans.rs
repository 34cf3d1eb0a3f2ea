//! Workspace-level observability tests.
//!
//! Pins the properties the trace recorder promises its consumers:
//!
//! 1. The span *tree* (names and parent/child edges) produced by a
//!    `par_map` workload is deterministic across thread counts — only
//!    the timings may differ between `ARCHDSE_THREADS=1` and `=4`.
//! 2. `par_map` forwards the caller's request id with its span, so every
//!    record a request fans out to pool threads is attributed to it.
//! 3. The sharded quantile ring reports exact nearest-rank percentiles,
//!    matching an independently sorted copy of the samples.
//!
//! (Bit-identity of the simulator with observation on vs. off is pinned
//! separately in `tests/golden_sim.rs`.)

use std::collections::BTreeMap;
use std::sync::Mutex;

use dse_obs::flight::{self, Record};
use dse_obs::registry::{QuantileRing, SHARDS};
use dse_util::par::{par_map, THREADS_ENV};

/// The capture sink and `ARCHDSE_THREADS` are process-global; every test
/// in this binary serialises on this lock.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` under request id `request` with `ARCHDSE_THREADS` set,
/// returning the records it produced; restores the previous state
/// afterwards.
fn spans_with_threads(threads: &str, request: u64, body: impl FnOnce()) -> Vec<Record> {
    std::env::set_var(THREADS_ENV, threads);
    flight::start_capture();
    {
        let _scope = flight::scope(request);
        body();
    }
    let records = flight::finish_capture();
    std::env::remove_var(THREADS_ENV);
    records
}

/// A thread-count-independent shape signature: sorted multiset of
/// `(name, parent-name, fields)` triples.
fn tree_shape(spans: &[Record]) -> Vec<(String, String, String)> {
    let names: BTreeMap<u64, &str> = spans.iter().map(|s| (s.seq, &*s.kind)).collect();
    let mut shape: Vec<(String, String, String)> = spans
        .iter()
        .map(|s| {
            let parent = names.get(&s.parent).copied().unwrap_or("<root>");
            (s.kind.to_string(), parent.to_string(), s.detail.to_string())
        })
        .collect();
    shape.sort();
    shape
}

/// The workload under test: a root span fanning out to one `work` span
/// per item through the scoped-thread pool.
fn spanned_workload() {
    let _root = dse_obs::span!("root", items = 24);
    let items: Vec<u64> = (0..24).collect();
    let out = par_map(&items, |&i| {
        let _s = dse_obs::span!("work", i = i);
        i * 2
    });
    assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
}

#[test]
fn span_tree_is_deterministic_across_thread_counts() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = spans_with_threads("1", 0, spanned_workload);
    let parallel = spans_with_threads("4", 0, spanned_workload);

    assert_eq!(serial.len(), 25, "one root + 24 work spans");
    assert_eq!(tree_shape(&serial), tree_shape(&parallel));

    // Every worker-thread span must have been re-parented onto the root
    // span that was current when `par_map` spawned the pool.
    for spans in [&serial, &parallel] {
        let root = spans.iter().find(|s| s.kind == "root").unwrap();
        assert_eq!(root.parent, 0);
        for s in spans.iter().filter(|s| s.kind == "work") {
            assert_eq!(s.parent, root.seq, "work span not under root");
        }
    }
}

#[test]
fn par_map_spans_carry_the_scoped_request() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const ID: u64 = 4_242;
    let serial = spans_with_threads("1", ID, spanned_workload);
    let parallel = spans_with_threads("4", ID, spanned_workload);
    for records in [&serial, &parallel] {
        assert_eq!(records.len(), 25);
        for r in records.iter() {
            assert_eq!(r.request, ID, "{} lost the request id", r.kind);
        }
    }
    assert_eq!(tree_shape(&serial), tree_shape(&parallel));
    // The records also reach the ring, where the request's dump finds them.
    let retained = flight::dump_for(ID);
    assert!(retained.iter().any(|r| r.kind == "root"));
}

#[test]
fn spans_nest_and_time_monotonically() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spans = spans_with_threads("2", 0, spanned_workload);
    let by_seq: BTreeMap<u64, &Record> = spans.iter().map(|s| (s.seq, s)).collect();
    let end = |r: &Record| r.ts_us + r.dur_us.unwrap();
    for s in &spans {
        if let Some(p) = by_seq.get(&s.parent) {
            assert!(s.ts_us >= p.ts_us, "child starts before parent");
            assert!(
                end(s) <= end(p),
                "child {} outlives parent {}",
                s.kind,
                p.kind
            );
        }
    }
}

#[test]
fn leave_one_out_splits_into_pool_and_fold_phases() {
    use archdse::core::xval::{loo, EvalConfig};
    use archdse::prelude::*;
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let profiles: Vec<Profile> = archdse::workload::suites::spec2000()
        .into_iter()
        .take(3)
        .collect();
    let spec = DatasetSpec {
        n_configs: 16,
        trace_len: 3_000,
        warmup: 500,
        ..DatasetSpec::tiny()
    };
    let ds = SuiteDataset::generate(&profiles, &spec);
    let cfg = EvalConfig {
        t: 8,
        r: 4,
        repeats: 2,
        seed: 3,
        mlp: MlpConfig {
            epochs: 5,
            ..MlpConfig::default()
        },
    };
    let spans = spans_with_threads("2", 0, || {
        loo(&ds, Suite::SpecCpu2000, Metric::Cycles, &cfg);
    });
    let find = |kind: &str| spans.iter().find(|s| s.kind == kind).unwrap();
    let (root, pools, folds) = (find("xval.loo"), find("xval.pools"), find("xval.folds"));
    assert_eq!((pools.parent, folds.parent), (root.seq, root.seq));
    // Every repeat's pool trains in the one work list under `xval.pools`.
    let trained: Vec<&Record> = spans.iter().filter(|s| s.kind == "train_mlp").collect();
    assert_eq!(trained.len(), 3 * 2);
    assert!(trained.iter().all(|s| s.parent == pools.seq));
    assert!(folds.detail.contains("folds=6"), "{:?}", folds.detail);
}

#[test]
fn quantile_ring_matches_exact_sorted_percentiles() {
    // One thread writes one shard, so size the ring to hold everything.
    let n = 500u64;
    let ring = QuantileRing::new(n as usize * SHARDS);
    // A scrambled but fully known sample set: 1..=500 each exactly once.
    let mut vals: Vec<u64> = (1..=n).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..vals.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        vals.swap(i, (state >> 33) as usize % (i + 1));
    }
    for v in &vals {
        ring.record(*v);
    }
    let mut sorted = ring.samples();
    sorted.sort_unstable();
    assert_eq!(sorted, (1..=n).collect::<Vec<_>>());
    // Nearest-rank: value at index ceil(n*p) - 1 of the sorted samples.
    for (p, want) in [(0.5, 250), (0.95, 475), (0.99, 495), (1.0, 500)] {
        let rank = ((n as f64 * p).ceil() as usize).clamp(1, n as usize);
        assert_eq!(sorted[rank - 1], want);
        assert_eq!(ring.quantile(p), want, "quantile({p})");
    }
    let snap = ring.snapshot();
    assert_eq!(
        (snap.samples, snap.p50, snap.p95, snap.p99),
        (n as usize, 250, 475, 495)
    );
}
