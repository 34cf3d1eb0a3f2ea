//! Shared infrastructure for the experiment binaries (one per paper table
//! and figure).
//!
//! Experiment binaries live in `src/bin/` (`table1`, `fig01` … `fig14`,
//! `ablation_*`) and all draw on the same cached dataset: 45 benchmarks
//! (SPEC CPU 2000 + MiBench stand-ins) × 3,000 shared configurations,
//! generated on first use under `target/dse-datasets/` (override with the
//! `DSE_DATA_DIR` environment variable). Reduced scale for smoke runs can
//! be requested with `DSE_QUICK=1`.
//!
//! `bench_prof` is the one profiling binary: repeated simulations for an
//! external profiler, or `--stages` for the committed stage profile.
//! Performance is measured by the separate `benchmark/` package.

use dse_core::dataset::{DatasetSpec, SuiteDataset};
use std::ffi::OsStr;
use std::path::PathBuf;

/// Directory holding cached datasets: `DSE_DATA_DIR`, or
/// `target/dse-datasets` when unset.
///
/// # Panics
///
/// Panics, naming the variable, if `DSE_DATA_DIR` is set but empty.
pub fn data_dir() -> PathBuf {
    parse_data_dir(std::env::var_os("DSE_DATA_DIR").as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Whether quick (reduced-scale) mode was requested via `DSE_QUICK=1`.
///
/// # Panics
///
/// Panics, naming the variable and its value, if `DSE_QUICK` is set to
/// anything but `0` or `1`.
pub fn quick_mode() -> bool {
    parse_quick(std::env::var_os("DSE_QUICK").as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Parses a `DSE_QUICK` value: unset or `0` is off, `1` is on; anything
/// else is an error naming the variable and the value.
fn parse_quick(value: Option<&OsStr>) -> Result<bool, String> {
    match value {
        None => Ok(false),
        Some(v) if v == "0" => Ok(false),
        Some(v) if v == "1" => Ok(true),
        Some(v) => Err(format!("DSE_QUICK={v:?} must be unset, 0 or 1")),
    }
}

/// Parses a `DSE_DATA_DIR` value: unset means the default directory; an
/// empty value is an error naming the variable.
fn parse_data_dir(value: Option<&OsStr>) -> Result<PathBuf, String> {
    match value {
        None => Ok(PathBuf::from("target/dse-datasets")),
        Some(v) if v.is_empty() => Err("DSE_DATA_DIR is set but empty".to_string()),
        Some(v) => Ok(PathBuf::from(v)),
    }
}

/// The dataset spec used by the experiments: the paper's 3,000-sample
/// protocol, or a reduced spec in quick mode.
pub fn experiment_spec() -> DatasetSpec {
    if quick_mode() {
        DatasetSpec {
            n_configs: 300,
            ..DatasetSpec::default()
        }
    } else {
        DatasetSpec::default()
    }
}

/// Loads (or generates and caches) the full 45-benchmark dataset.
///
/// # Panics
///
/// Panics if the cache directory cannot be created or written.
pub fn full_dataset() -> SuiteDataset {
    let profiles = dse_workload::suites::all_benchmarks();
    SuiteDataset::load_or_generate(&profiles, &experiment_spec(), &data_dir())
        .expect("dataset cache must be readable and writable")
}

/// Number of experiment repetitions (the paper's 20, or 5 in quick mode).
pub fn repeats() -> usize {
    if quick_mode() {
        5
    } else {
        20
    }
}

/// Formats one numeric cell compactly.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 || v.abs() < 1e-2 {
        format!("{v:.3e}")
    } else {
        format!("{v:.2}")
    }
}

/// Prints an aligned text table to stdout.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", joined.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Shared report for Figs 2 and 3: parameter-value frequencies in the
/// best and worst 1 % of configurations for one metric, over SPEC.
pub fn extremes_report(metric: dse_sim::Metric) {
    use dse_core::analysis::{dominant_value, extremes, Extreme};
    use dse_core::dataset::SuiteDataset;
    use dse_space::{Param, PARAMS};

    let full = full_dataset();
    let spec = SuiteDataset {
        spec: full.spec,
        configs: full.configs.clone(),
        benchmarks: full
            .benchmarks
            .iter()
            .filter(|b| b.suite == dse_workload::Suite::SpecCpu2000)
            .cloned()
            .collect(),
    };
    // The six parameters shown in the paper's figures.
    let shown = [
        Param::Width,
        Param::Rob,
        Param::Rf,
        Param::RfRead,
        Param::L2,
        Param::Bpred,
    ];
    for (label, end) in [("best", Extreme::Best), ("worst", Extreme::Worst)] {
        let freqs = extremes(&spec, metric, end, 0.01);
        for p in shown {
            let def = &PARAMS[p as usize];
            let f = &freqs[p as usize];
            let total: usize = f.iter().sum();
            let rows: Vec<Vec<String>> = def
                .values
                .iter()
                .zip(f)
                .map(|(v, &c)| {
                    vec![
                        v.to_string(),
                        c.to_string(),
                        format!("{:.1}%", 100.0 * c as f64 / total as f64),
                    ]
                })
                .collect();
            print_table(
                &format!("{metric} {label} 1%: {} ({})", def.name, def.unit),
                &["value", "count", "share"],
                &rows,
            );
        }
        println!("\ndominant values in the {label} 1% ({metric}):");
        for p in Param::ALL {
            let (v, share) = dominant_value(&freqs, p);
            println!(
                "  {:12} {v:>6}  ({:.0}% of selections)",
                p.to_string(),
                share * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_accepts_unset_zero_and_one_only() {
        assert_eq!(parse_quick(None), Ok(false));
        assert_eq!(parse_quick(Some(OsStr::new("0"))), Ok(false));
        assert_eq!(parse_quick(Some(OsStr::new("1"))), Ok(true));
        for bad in ["yes", "true", "", " 1", "2"] {
            let err = parse_quick(Some(OsStr::new(bad))).unwrap_err();
            assert!(
                err.contains("DSE_QUICK") && err.contains(&format!("{bad:?}")),
                "error for {bad:?} must name the variable and value: {err}"
            );
        }
    }

    #[test]
    fn data_dir_defaults_when_unset_and_rejects_empty() {
        assert_eq!(
            parse_data_dir(None),
            Ok(PathBuf::from("target/dse-datasets"))
        );
        assert_eq!(
            parse_data_dir(Some(OsStr::new("/tmp/ds"))),
            Ok(PathBuf::from("/tmp/ds"))
        );
        let err = parse_data_dir(Some(OsStr::new(""))).unwrap_err();
        assert!(err.contains("DSE_DATA_DIR"), "{err}");
    }
}
