//! Values pinned for seed 1 at the full sizes (`pins.json`).
//!
//! Four groups per workload:
//!
//! * `work` — deterministic work counts of one operation, read from the
//!   library's counters in every untraced run;
//! * `layers` — deterministic counts and simulated statistics of the
//!   per-layer probes, read in every traced run;
//! * `info` — deterministic readings (frontier hypervolume, predictor
//!   error on the frontier);
//! * `exact` — outputs that must repeat bit for bit (the cross-validated
//!   error of `xval`).
//!
//! A mismatch in `exact` fails the run. Any other mismatch is reported as
//! drift: work that grew shows even when every wall-time metric stays
//! within its bound, while a change that legitimately moves a count (an
//! idle-skip change moves the stepped-cycle count) still runs.

use crate::result::Metric;
use crate::{Measured, Sizes, Workload};
use dse_util::json::Json;

/// The seed the values are pinned for.
const PIN_SEED: u64 = 1;

const PINS: &str = include_str!("../pins.json");

/// Outcome of comparing a run against the pins.
#[derive(Debug, Default, PartialEq)]
pub struct PinCheck {
    /// Mismatches of exact outputs.
    pub failures: Vec<String>,
    /// Mismatches of work counts and probe statistics.
    pub drift: Vec<String>,
}

/// Compares observed values against one workload's pinned groups. Values
/// the run did not observe (probe counts in an untraced run) are skipped.
pub fn diff(pinned: &Json, work: &[(String, u64)], layers: &[Metric], info: &[Metric]) -> PinCheck {
    let mut out = PinCheck::default();
    let work: Vec<(String, f64)> = work.iter().map(|(k, v)| (k.clone(), *v as f64)).collect();
    let layers: Vec<(String, f64)> = layers.iter().map(|m| (m.name.clone(), m.value)).collect();
    let info: Vec<(String, f64)> = info.iter().map(|m| (m.name.clone(), m.value)).collect();
    for (group, observed, fails) in [
        ("work", &work, false),
        ("layers", &layers, false),
        ("info", &info, false),
        ("exact", &info, true),
    ] {
        let Ok(Json::Obj(fields)) = pinned.field(group) else {
            continue;
        };
        for (key, want) in fields {
            let Ok(want) = want.as_f64() else {
                continue;
            };
            let Some((_, got)) = observed.iter().find(|(k, _)| k == key) else {
                continue;
            };
            if got.to_bits() != want.to_bits() {
                let rel = (got - want) / want.abs().max(f64::MIN_POSITIVE) * 100.0;
                let note = format!("{group} {key}: pinned {want:?}, got {got:?} ({rel:+.3}%)");
                if fails {
                    out.failures.push(note);
                } else {
                    out.drift.push(note);
                }
            }
        }
    }
    out
}

/// Checks a run against the pins when it ran at the pinned seed and the
/// full sizes.
pub(crate) fn check(workload: Workload, seed: u64, sizes: &Sizes, m: &Measured) -> PinCheck {
    if seed != PIN_SEED || *sizes != Sizes::full() {
        return PinCheck::default();
    }
    let pins = Json::parse(PINS).expect("pins.json is valid JSON");
    match pins.field(workload.name()) {
        Ok(pinned) => diff(pinned, &m.work, &m.layers, &m.info),
        Err(_) => PinCheck::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned() -> Json {
        Json::parse(
            r#"{"work":{"sim.instructions":1000000},"layers":{"sim.cycles_stepped":500},
                "exact":{"xval_rmae_pct":4.75}}"#,
        )
        .unwrap()
    }

    #[test]
    fn pins_file_names_every_workload() {
        let pins = Json::parse(PINS).unwrap();
        for w in Workload::ALL {
            assert!(pins.field(w.name()).is_ok(), "no pins for {}", w.name());
        }
    }

    #[test]
    fn matching_values_pass() {
        let check = diff(
            &pinned(),
            &[("sim.instructions".to_string(), 1_000_000)],
            &[Metric::new("sim.cycles_stepped", 500.0, "count")],
            &[Metric::new("xval_rmae_pct", 4.75, "%")],
        );
        assert_eq!(check, PinCheck::default());
    }

    #[test]
    fn a_planted_five_percent_work_increase_is_reported() {
        let check = diff(
            &pinned(),
            &[("sim.instructions".to_string(), 1_050_000)],
            &[],
            &[],
        );
        assert!(check.failures.is_empty());
        assert_eq!(check.drift.len(), 1);
        assert!(check.drift[0].contains("+5.000%"), "{}", check.drift[0]);
    }

    #[test]
    fn a_planted_wrong_exact_value_fails() {
        let check = diff(
            &pinned(),
            &[],
            &[],
            &[Metric::new("xval_rmae_pct", 4.7500001, "%")],
        );
        assert_eq!(check.failures.len(), 1);
    }
}
