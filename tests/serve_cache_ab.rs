//! Checker for the committed prediction-cache A/B
//! (`results/serve_cache_ab.jsonl`). DESIGN.md §14 quotes a table of
//! medians taken from it; every quoted median and ratio is recomputed
//! here from the per-run records, to the precision it is quoted at, so
//! the table cannot drift from its artifact.
//!
//! Each line of the artifact is either a run,
//! `{"set", "side": "parent"|"change", "first", "record": <benchmark record>}`,
//! or a line of `archdse-benchmark compare` output, `{"set", "compare"}`.

use dse_util::json::Json;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn runs() -> Vec<Json> {
    read("results/serve_cache_ab.jsonl")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("parse {l:.60}: {e}")))
        .filter(|row| row.field("record").is_ok())
        .collect()
}

fn text(row: &Json, key: &str) -> String {
    row.field(key).and_then(Json::as_str).unwrap().to_string()
}

/// `metric`'s value in a benchmark record: an end-to-end metric, an info
/// row or a traced layer, whichever holds it.
fn value(record: &Json, metric: &str) -> Option<f64> {
    [("result", "metrics"), ("info", ""), ("layers", "")]
        .iter()
        .find_map(|&(outer, inner)| {
            let mut v = record.field(outer).ok()?;
            if !inner.is_empty() {
                v = v.field(inner).ok()?;
            }
            v.field(metric).ok()?.field("value").ok()?.as_f64().ok()
        })
}

fn values(runs: &[Json], set: &str, side: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| text(r, "set") == set && text(r, "side") == side)
        .map(|r| {
            value(r.field("record").unwrap(), metric)
                .unwrap_or_else(|| panic!("{set}/{side} run lacks {metric}"))
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// A quoted number and the half-unit of its last digit, e.g. `"389.2k"`
/// is `(389200, 50)`, `"18.10M"` is `(18.1e6, 5e3)` and `"1.28×"` is
/// `(1.28, 0.005)`.
fn quoted(cell: &str) -> (f64, f64) {
    let cell = cell.trim().trim_end_matches('×');
    let (digits, scale) = match (cell.strip_suffix('k'), cell.strip_suffix('M')) {
        (Some(d), _) => (d, 1e3),
        (_, Some(d)) => (d, 1e6),
        _ => (cell, 1.0),
    };
    let decimals = digits.split_once('.').map_or(0, |(_, f)| f.len());
    let v: f64 = digits
        .parse()
        .unwrap_or_else(|e| panic!("quoted {cell:?}: {e}"));
    (v * scale, 0.5 * scale / 10f64.powi(decimals as i32))
}

/// The rows of DESIGN.md §14's cache A/B table:
/// `[metric, set, parent median, change median, change/parent]`.
fn quoted_rows() -> Vec<Vec<String>> {
    let design = read("DESIGN.md");
    let section = design
        .split("**Prediction cache rebuild.**")
        .nth(1)
        .expect("DESIGN.md §14 has the cache rebuild paragraph");
    let rows: Vec<Vec<String>> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and rule
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('`').to_string())
                .collect()
        })
        .collect();
    assert!(rows.len() >= 4, "cache A/B table has {} rows", rows.len());
    rows
}

fn check(cell: &str, got: f64, what: &str) {
    let (want, tol) = quoted(cell);
    assert!(
        (got - want).abs() <= tol * 1.000_001,
        "{what}: quoted {cell}, the runs give {got}"
    );
}

fn median_of(runs: &[Json], set: &str, side: &str, metric: &str) -> f64 {
    median(values(runs, set, side, metric))
}

#[test]
fn every_quoted_median_matches_the_committed_runs() {
    let runs = runs();
    for row in quoted_rows() {
        let (metric, set) = (&row[0], row[1].split(',').next().unwrap());
        let parent = median_of(&runs, set, "parent", metric);
        let change = median_of(&runs, set, "change", metric);
        let what = format!("DESIGN.md {set} {metric}");
        check(&row[2], parent, &what);
        check(&row[3], change, &what);
        check(&row[4], change / parent, &what);
    }
}

/// README's sentence on the rebuild quotes the `items_per_s` medians,
/// their ratio and the cache phase's fall.
#[test]
fn readme_quotes_the_same_medians() {
    let readme = read("README.md");
    let sentence = readme
        .split("Rebuilding the prediction cache")
        .nth(1)
        .and_then(|s| s.split("DESIGN.md §14)").next())
        .expect("README.md quotes the cache rebuild");
    let cells: Vec<&str> = sentence
        .split(|c: char| c.is_whitespace() || "(),;".contains(c))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_digit()))
        .filter(|w| w.ends_with('k') || w.ends_with('×'))
        .collect();
    let runs = runs();
    let (parent, change) = (
        median_of(&runs, "serve", "parent", "items_per_s"),
        median_of(&runs, "serve", "change", "items_per_s"),
    );
    let cache = median_of(&runs, "phase", "parent", "serve_batch_cache_p50_us")
        / median_of(&runs, "phase", "change", "serve_batch_cache_p50_us");
    assert_eq!(cells.len(), 4, "README.md quotes {cells:?}");
    for (cell, got) in cells.iter().zip([parent, change, change / parent, cache]) {
        check(cell, got, "README.md");
    }
}

/// The cache rebuild does not move the hit rate. The hit rate is not
/// fully deterministic even at the parent (a refit races the other
/// connection's single predicts), so on every seed each change run must
/// read a value inside the range of the parent's runs at that seed; on a
/// seed the parent ran once, that is the same value to every digit.
#[test]
fn hit_rate_stays_within_the_parents_own_range_on_every_seed() {
    let runs = runs();
    let untraced_serve = |side: &'static str| {
        runs.iter().filter(move |r| {
            let record = r.field("record").unwrap();
            record.get::<String>("workload").unwrap() == "serve"
                && !record.get::<bool>("traced").unwrap()
                && text(r, "side") == side
        })
    };
    let seed = |r: &Json| r.field("record").unwrap().get::<f64>("seed").unwrap();
    let hit = |r: &Json| value(r.field("record").unwrap(), "serve_cache_hit_pct").unwrap();
    let mut checked = 0;
    for change in untraced_serve("change") {
        let parent: Vec<f64> = untraced_serve("parent")
            .filter(|p| seed(p) == seed(change))
            .map(hit)
            .collect();
        let (lo, hi) = parent
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let got = hit(change);
        assert!(
            !parent.is_empty() && lo <= got && got <= hi,
            "seed {}: change hit rate {got} outside the parent's {parent:?}",
            seed(change)
        );
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} change runs checked");
}

/// The verdict DESIGN.md quotes for `items_per_s` is the committed
/// `compare` output's, and its win count is recomputed from the pairs.
#[test]
fn quoted_items_per_s_verdict_matches_compare() {
    let rows = read("results/serve_cache_ab.jsonl");
    let line = rows
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|r| r.field("compare").is_ok() && text(r, "set") == "serve")
        .map(|r| text(&r, "compare"))
        .find(|l| l.contains(" items_per_s "))
        .expect("compare output for serve items_per_s");
    let line = line.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(line.ends_with("better"), "{line}");
    let runs = runs();
    let (parent, change) = (
        values(&runs, "serve", "parent", "items_per_s"),
        values(&runs, "serve", "change", "items_per_s"),
    );
    let wins = parent.iter().zip(&change).filter(|(p, c)| c > p).count();
    let quoted = format!("wins {wins}/{}", parent.len());
    assert!(line.contains(&quoted), "{line} vs {quoted}");
    let design = read("DESIGN.md");
    let section = design
        .split("**Prediction cache rebuild.**")
        .nth(1)
        .unwrap();
    assert!(
        section.contains(&format!("{wins}/{}", parent.len())),
        "DESIGN.md win count"
    );
}
