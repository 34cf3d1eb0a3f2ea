//! `compare`: one verdict per (workload, end-to-end metric) between a set
//! of parent runs and a set of change runs.
//!
//! The rules:
//!
//! * a gain needs at least ten pairs (the i-th parent run against the
//!   i-th change run), the change winning at least nine tenths of them
//!   (ties count for neither), and medians further apart than the
//!   parent's quartile spread;
//! * otherwise, when the parent's quartile spread (as a share of its
//!   median) exceeds the metric's bound, the metric is unresolved — unless
//!   every change run reads better than every parent run;
//! * otherwise the change is worse when its median is worse than the
//!   parent's by more than the bound, and within the bound if not.
//!
//! Work counts of runs with the same workload and seed are compared
//! exactly: any difference is reported, whatever the timings say.

use crate::result::{Record, RunResult};
use crate::stats::{median, quartiles};
use dse_util::json::{FromJson, Json};

/// One end-to-end metric's direction and bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Reports malformed JSON or a malformed metric entry.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .field("end_to_end")
        .and_then(|v| v.as_array())
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    list.iter()
        .map(|m| {
            let better: String = m.get("better").map_err(|e| e.to_string())?;
            if better != "higher" && better != "lower" {
                return Err(format!("better must be higher or lower, not {better:?}"));
            }
            Ok(Bound {
                name: m.get("name").map_err(|e| e.to_string())?,
                higher_is_better: better == "higher",
                bound: m.get("bound").map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

/// Parses result files: one JSON object per line, each either a run
/// record or a bare printed result (workload `?`).
///
/// # Errors
///
/// Reports the first line that is neither.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    let docs = text.lines().filter(|l| !l.trim().is_empty());
    for (i, doc) in docs.enumerate() {
        let v = Json::parse(doc).map_err(|e| format!("record {}: {e}", i + 1))?;
        let record = if v.field("workload").is_ok() {
            Record::from_json(&v)
        } else {
            RunResult::from_json(&v).map(|result| Record {
                workload: "?".to_string(),
                seed: 0,
                traced: false,
                result,
                info: Vec::new(),
                work: Vec::new(),
                notes: Vec::new(),
                env: Vec::new(),
            })
        }
        .map_err(|e| format!("record {}: {e}", i + 1))?;
        out.push(record);
    }
    Ok(out)
}

/// The outcome for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the pairing rule.
    Better,
    /// Worse than the parent by more than the bound.
    Worse,
    /// No worse than the bound allows.
    WithinBound,
    /// The parent's own spread exceeds the bound.
    Unresolved,
    /// A work count differs between runs of the same seed.
    WorkChanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::WorkChanged => "work changed",
        }
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric or work-count name.
    pub metric: String,
    /// Parent median (pinned count for work rows).
    pub parent: f64,
    /// Change median (observed count for work rows).
    pub change: f64,
    /// Parent quartile spread as a share of its median.
    pub spread: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

impl Row {
    /// One aligned text line.
    pub fn line(&self) -> String {
        let delta = (self.change - self.parent) / self.parent.abs().max(f64::MIN_POSITIVE);
        format!(
            "{:<8} {:<28} parent {:>14.6} (spread {:>6.2}%)  change {:>14.6} ({:+7.2}%)  wins {:>2}/{:<2}  {}",
            self.workload,
            self.metric,
            self.parent,
            self.spread * 100.0,
            self.change,
            delta * 100.0,
            self.wins,
            self.pairs,
            self.verdict.label()
        )
    }
}

fn verdict(bound: &Bound, parent: &[f64], change: &[f64]) -> (Verdict, f64, usize, usize) {
    let better = |a: f64, b: f64| {
        if bound.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    if parent.len() < 2 || change.is_empty() {
        return (Verdict::Unresolved, f64::NAN, wins, pairs);
    }
    let (p, c) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = (q3 - q1) / p.abs();
    let worsening = if bound.higher_is_better {
        (p - c) / p.abs()
    } else {
        (c - p) / p.abs()
    };
    let v = if pairs >= 10 && wins * 10 >= pairs * 9 && better(c, p) && (c - p).abs() > q3 - q1 {
        Verdict::Better
    } else if spread > bound.bound {
        let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
        if all_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (v, spread, wins, pairs)
}

/// Compares the untraced runs of `change` against those of `parent`.
pub fn compare(bounds: &[Bound], parent: &[Record], change: &[Record]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().filter(|r| !r.traced) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let runs = |set: &[Record]| -> Vec<Record> {
            set.iter()
                .filter(|r| !r.traced && r.workload == w)
                .cloned()
                .collect()
        };
        let (p_runs, c_runs) = (runs(parent), runs(change));
        for b in bounds {
            let values = |runs: &[Record]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.result.metric(&b.name).map(|m| m.value))
                    .collect()
            };
            let (p, c) = (values(&p_runs), values(&c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (v, spread, wins, pairs) = verdict(b, &p, &c);
            rows.push(Row {
                workload: w.to_string(),
                metric: b.name.clone(),
                parent: median(&p),
                change: median(&c),
                spread,
                wins,
                pairs,
                verdict: v,
            });
        }
        // Work counts: same workload and seed must do the same work.
        for pr in &p_runs {
            let Some(cr) = c_runs.iter().find(|r| r.seed == pr.seed) else {
                continue;
            };
            for (name, pv) in &pr.work {
                let cv = cr.work.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
                if cv != Some(*pv) {
                    rows.push(Row {
                        workload: w.to_string(),
                        metric: format!("work.{name} (seed {})", pr.seed),
                        parent: *pv as f64,
                        change: cv.map_or(f64::NAN, |v| v as f64),
                        spread: 0.0,
                        wins: 0,
                        pairs: 1,
                        verdict: Verdict::WorkChanged,
                    });
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Metric;

    fn bound() -> Bound {
        Bound {
            name: "op_ms".to_string(),
            higher_is_better: false,
            bound: 0.1,
        }
    }

    fn runs(values: &[f64], work: u64) -> Vec<Record> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| Record {
                workload: "sweep".to_string(),
                seed: i as u64 + 1,
                traced: false,
                result: RunResult {
                    correct: true,
                    attempted: 1,
                    failed: 0,
                    metrics: vec![Metric::new("op_ms", v, "ms")],
                },
                info: Vec::new(),
                work: vec![("sim.instructions".to_string(), work)],
                notes: Vec::new(),
                env: Vec::new(),
            })
            .collect()
    }

    /// Ten steady parent runs around 100 ms (quartile spread ~1 %).
    fn steady() -> Vec<f64> {
        vec![
            99.0, 100.5, 100.0, 99.5, 101.0, 100.2, 99.8, 100.4, 99.6, 100.1,
        ]
    }

    fn only(rows: &[Row]) -> Verdict {
        assert_eq!(rows.len(), 1, "{rows:?}");
        rows[0].verdict
    }

    #[test]
    fn a_planted_twelve_percent_regression_is_flagged() {
        let change: Vec<f64> = steady().iter().map(|v| v * 1.12).collect();
        let rows = compare(&[bound()], &runs(&steady(), 7), &runs(&change, 7));
        assert_eq!(only(&rows), Verdict::Worse);
    }

    #[test]
    fn a_five_percent_move_is_within_the_bound() {
        let change: Vec<f64> = steady().iter().map(|v| v * 1.05).collect();
        let rows = compare(&[bound()], &runs(&steady(), 7), &runs(&change, 7));
        assert_eq!(only(&rows), Verdict::WithinBound);
    }

    #[test]
    fn a_wide_parent_spread_is_unresolved() {
        let parent = vec![
            80.0, 120.0, 95.0, 130.0, 70.0, 110.0, 90.0, 125.0, 85.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().rev().map(|v| v * 1.12).collect();
        let rows = compare(&[bound()], &runs(&parent, 7), &runs(&change, 7));
        assert_eq!(only(&rows), Verdict::Unresolved);
    }

    #[test]
    fn a_consistent_gain_over_ten_pairs_is_better() {
        let change: Vec<f64> = steady().iter().map(|v| v * 0.8).collect();
        let rows = compare(&[bound()], &runs(&steady(), 7), &runs(&change, 7));
        assert_eq!(only(&rows), Verdict::Better);
        // Nine pairs are not enough to claim a gain.
        let rows = compare(&[bound()], &runs(&steady()[..9], 7), &runs(&change[..9], 7));
        assert_eq!(only(&rows), Verdict::WithinBound);
    }

    #[test]
    fn a_five_percent_work_increase_is_reported_within_the_time_bound() {
        let change: Vec<f64> = steady().iter().map(|v| v * 1.02).collect();
        let rows = compare(&[bound()], &runs(&steady(), 1000), &runs(&change, 1050));
        assert_eq!(rows[0].verdict, Verdict::WithinBound);
        assert_eq!(rows.len(), 11, "one work row per seed");
        assert!(rows[1..].iter().all(|r| r.verdict == Verdict::WorkChanged));
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .unwrap();
        let b = bounds(&text).unwrap();
        assert!(b.iter().any(|b| b.name == "setup_s" && !b.higher_is_better));
        assert!(b.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }

    #[test]
    fn printed_results_and_records_both_parse() {
        let rec = &runs(&[1.0], 3)[0];
        let text = format!(
            "{}\n{}\n",
            dse_util::json::to_string(rec),
            dse_util::json::to_string(&rec.result)
        );
        let parsed = parse_records(&text).unwrap();
        assert_eq!(parsed[0], *rec);
        assert_eq!(parsed[1].workload, "?");
        assert_eq!(parsed[1].result, rec.result);
    }
}
