//! Determinism of the owned parallel substrate: results are bit-identical
//! to the serial path and independent of `ARCHDSE_THREADS`.
//!
//! Env-var mutation is process-global, so every test here serialises on
//! one mutex, and each test restores the variable before returning.

use archdse::prelude::*;
use dse_core::dataset::DatasetSpec;
use dse_util::par::{par_map, THREADS_ENV};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(value: &str, body: impl FnOnce() -> R) -> R {
    with_threads_opt(Some(value), body)
}

/// Like [`with_threads`], but `None` runs with `ARCHDSE_THREADS` unset
/// (the default auto-detected thread count).
fn with_threads_opt<R>(value: Option<&str>, body: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    match value {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    let r = body();
    std::env::remove_var(THREADS_ENV);
    r
}

/// The flattened sweep scheduler hands one benchmark × configuration work
/// list to `par_map`, which deals *contiguous chunks* through an atomic
/// cursor. Chunk boundaries move with the thread count, so the property
/// that needs pinning is: over a ragged list (trace lengths 8k/3k/12k,
/// configurations of very different cost), the assembled output is
/// bit-identical for `ARCHDSE_THREADS` ∈ {1, 4, unset}.
#[test]
fn ragged_flattened_grid_matches_across_1_4_and_unset_threads() {
    use dse_sim::{try_simulate, SimOptions};
    use dse_space::sample_legal;
    use dse_workload::Trace;

    let traces: Vec<Trace> = [("gzip", 8_000), ("art", 3_000), ("sha", 12_000)]
        .iter()
        .map(|&(name, len)| {
            let profile = archdse::workload::suites::all_benchmarks()
                .into_iter()
                .find(|p| p.name == name)
                .unwrap();
            TraceGenerator::new(&profile).generate(len)
        })
        .collect();
    let mut rng = dse_rng::Xoshiro256::seed_from(0xF1A7);
    let configs = sample_legal(&mut rng, 6);
    let jobs: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|b| (0..configs.len()).map(move |c| (b, c)))
        .collect();
    let run = || {
        par_map(&jobs, |&(b, c)| {
            try_simulate(&configs[c], &traces[b], SimOptions::with_warmup(1_000))
                .expect("sanitizer-clean simulation")
        })
    };

    let reference = with_threads_opt(Some("1"), run);
    assert_eq!(reference.len(), traces.len() * configs.len());
    for setting in [Some("4"), None] {
        let out = with_threads_opt(setting, run);
        assert_eq!(
            out,
            reference,
            "ARCHDSE_THREADS={} differs from ARCHDSE_THREADS=1",
            setting.unwrap_or("unset")
        );
    }
}

#[test]
fn par_map_bit_identical_to_serial_at_1_2_and_8_threads() {
    // A float-heavy kernel: bit-identity would fail under any reduction
    // reordering, so this checks that per-item results are placed, not
    // combined.
    let items: Vec<u64> = (0..300).collect();
    let kernel = |&x: &u64| {
        let mut acc = x as f64 + 0.5;
        for i in 1..200 {
            acc = (acc * 1.0000001 + (i as f64).sqrt()).sin() + acc;
        }
        acc
    };
    let serial: Vec<f64> = items.iter().map(kernel).collect();
    for threads in ["1", "2", "8"] {
        let par = with_threads(threads, || par_map(&items, kernel));
        assert_eq!(par.len(), serial.len());
        for (i, (p, s)) in par.iter().zip(&serial).enumerate() {
            assert_eq!(
                p.to_bits(),
                s.to_bits(),
                "index {i} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn dataset_generation_is_thread_count_independent() {
    // The acceptance-criterion experiment: >= 64 configs, ARCHDSE_THREADS
    // 1 vs 4 vs unset, bit-identical output.
    let profiles: Vec<Profile> = archdse::workload::suites::spec2000()
        .into_iter()
        .take(2)
        .collect();
    let spec = DatasetSpec {
        n_configs: 64,
        ..DatasetSpec::tiny()
    };

    let t0 = std::time::Instant::now();
    let serial = with_threads("1", || SuiteDataset::generate(&profiles, &spec));
    let serial_time = t0.elapsed();
    let t0 = std::time::Instant::now();
    let parallel = with_threads("4", || SuiteDataset::generate(&profiles, &spec));
    let parallel_time = t0.elapsed();

    assert_eq!(serial, parallel, "dataset differs between 1 and 4 threads");
    let auto = with_threads_opt(None, || SuiteDataset::generate(&profiles, &spec));
    assert_eq!(serial, auto, "dataset differs between 1 thread and unset");
    eprintln!(
        "[par] generate 64 cfgs x 2 benchmarks: 1 thread {:.2}s, 4 threads {:.2}s ({:.2}x)",
        serial_time.as_secs_f64(),
        parallel_time.as_secs_f64(),
        serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-9),
    );
    // The >= 2x speedup claim only holds where 4 workers have 4 cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            parallel_time.as_secs_f64() < serial_time.as_secs_f64() / 2.0,
            "expected >= 2x speedup on a {cores}-core host: serial {serial_time:?}, parallel {parallel_time:?}"
        );
    }
}

#[test]
fn cross_validation_is_thread_count_independent() {
    use archdse::core::xval::{loo, EvalConfig};
    use dse_ml::MlpConfig;

    let mut profiles: Vec<Profile> = archdse::workload::suites::spec2000()
        .into_iter()
        .take(3)
        .collect();
    profiles.extend(archdse::workload::suites::mibench().into_iter().take(1));
    let spec = DatasetSpec {
        n_configs: 40,
        ..DatasetSpec::tiny()
    };
    let cfg = EvalConfig {
        t: 20,
        r: 8,
        repeats: 2,
        seed: 17,
        mlp: MlpConfig {
            epochs: 40,
            ..MlpConfig::default()
        },
    };
    let ds = with_threads("1", || SuiteDataset::generate(&profiles, &spec));
    let a = with_threads("1", || loo(&ds, Suite::SpecCpu2000, Metric::Cycles, &cfg));
    let b = with_threads("3", || loo(&ds, Suite::SpecCpu2000, Metric::Cycles, &cfg));
    assert_eq!(a, b, "cross-validation differs with thread count");
}
