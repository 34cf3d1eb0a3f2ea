//! The explorer's result type: a serializable Pareto frontier.
//!
//! A [`Frontier`] is the full record of one explorer run — the
//! ground-truth nondominated points in canonical order, per-round
//! statistics, and the honest cost ledger (predictor calls vs simulator
//! calls). Serialization is via the workspace JSON layer, whose `f64`
//! formatting is shortest-round-trip bit-exact, so a frontier serialized
//! under any `ARCHDSE_THREADS` setting is byte-identical
//! (pinned by `tests/explore_determinism.rs`).

use crate::objective::{Constraints, Objective};
use crate::ExploreBudget;
use dse_space::Config;
use dse_util::json::{FromJson, Json, JsonError, ToJson};

/// Serialization format version (bump on incompatible change).
pub const FRONTIER_VERSION: u32 = 1;

/// One ground-truth point on (or formerly on) the frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The configuration.
    pub config: Config,
    /// Simulated objective values, one per objective axis.
    pub objectives: Vec<f64>,
    /// Acquisition round that simulated this point (0-based).
    pub round: usize,
}

impl ToJson for FrontierPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("config", self.config.to_json()),
            ("objectives", self.objectives.to_json()),
            ("round", self.round.to_json()),
        ])
    }
}

impl FromJson for FrontierPoint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            config: Config::from_json(v.field("config")?)?,
            objectives: Vec::from_json(v.field("objectives")?)?,
            round: usize::from_json(v.field("round")?)?,
        })
    }
}

/// Per-round accounting, in round order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Candidates scored by the predictor this round.
    pub scored: usize,
    /// Configurations simulated (ground truth) this round.
    pub simulated: usize,
    /// Simulated points the archive accepted this round.
    pub added: usize,
    /// Archive size after the round.
    pub archive: usize,
    /// Normalized archive hypervolume after the round (progress signal;
    /// the normalization frame is the archive's own bounds, so compare
    /// within a run, not across runs).
    pub hypervolume: f64,
}

impl ToJson for RoundStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("round", self.round.to_json()),
            ("scored", self.scored.to_json()),
            ("simulated", self.simulated.to_json()),
            ("added", self.added.to_json()),
            ("archive", self.archive.to_json()),
            ("hypervolume", self.hypervolume.to_json()),
        ])
    }
}

impl FromJson for RoundStats {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            round: usize::from_json(v.field("round")?)?,
            scored: usize::from_json(v.field("scored")?)?,
            simulated: usize::from_json(v.field("simulated")?)?,
            added: usize::from_json(v.field("added")?)?,
            archive: usize::from_json(v.field("archive")?)?,
            hypervolume: f64::from_json(v.field("hypervolume")?)?,
        })
    }
}

/// The result of one explorer run.
#[derive(Debug, Clone, PartialEq)]
pub struct Frontier {
    /// Format version ([`FRONTIER_VERSION`]).
    pub version: u32,
    /// Program the predictor and simulator were evaluated on.
    pub program: String,
    /// The minimized objective.
    pub objective: Objective,
    /// The active constraints (empty string if none).
    pub constraints: Constraints,
    /// The budget the run was launched with.
    pub budget: ExploreBudget,
    /// Ground-truth nondominated points, in the archive's canonical
    /// order (objectives lexicographic, then configuration indices).
    pub points: Vec<FrontierPoint>,
    /// Per-round statistics, in round order.
    pub rounds: Vec<RoundStats>,
    /// Total cheap-oracle (predictor) evaluations.
    pub predictor_calls: u64,
    /// Total expensive-oracle (simulator) runs. The whole point of the
    /// explorer is that this stays a small fraction of the space.
    pub sim_calls: u64,
    /// Whether the run was cancelled before exhausting its budget (the
    /// points are still a valid partial frontier).
    pub cancelled: bool,
}

impl Frontier {
    /// A fixed-width text table of the frontier, one row per point:
    /// objective values then the configuration.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let headers: Vec<String> = self.objective.axes.iter().map(|a| a.to_string()).collect();
        out.push_str("round");
        for h in &headers {
            out.push_str(&format!("  {h:>14}"));
        }
        out.push_str("  config\n");
        for p in &self.points {
            out.push_str(&format!("{:>5}", p.round));
            for v in &p.objectives {
                out.push_str(&format!("  {v:>14.1}"));
            }
            out.push_str(&format!("  {}\n", p.config));
        }
        out
    }
}

impl ToJson for Frontier {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", self.version.to_json()),
            ("program", self.program.to_json()),
            ("objective", self.objective.to_json()),
            ("constraints", self.constraints.to_json()),
            ("budget", self.budget.to_json()),
            ("points", self.points.to_json()),
            ("rounds", self.rounds.to_json()),
            ("predictor_calls", self.predictor_calls.to_json()),
            ("sim_calls", self.sim_calls.to_json()),
            ("cancelled", self.cancelled.to_json()),
        ])
    }
}

impl FromJson for Frontier {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = u32::from_json(v.field("version")?)?;
        if version != FRONTIER_VERSION {
            return Err(JsonError::msg(format!(
                "unsupported frontier version {version} (expected {FRONTIER_VERSION})"
            )));
        }
        let f = Self {
            version,
            program: String::from_json(v.field("program")?)?,
            objective: Objective::from_json(v.field("objective")?)?,
            constraints: Constraints::from_json(v.field("constraints")?)?,
            budget: crate::ExploreBudget::from_json(v.field("budget")?)?,
            points: Vec::from_json(v.field("points")?)?,
            rounds: Vec::from_json(v.field("rounds")?)?,
            predictor_calls: u64::from_json(v.field("predictor_calls")?)?,
            sim_calls: u64::from_json(v.field("sim_calls")?)?,
            cancelled: bool::from_json(v.field("cancelled")?)?,
        };
        let dim = f.objective.dim();
        for p in &f.points {
            if p.objectives.len() != dim {
                return Err(JsonError::msg(format!(
                    "frontier point has {} objective values for a {dim}-axis objective",
                    p.objectives.len()
                )));
            }
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExploreBudget;

    fn sample() -> Frontier {
        Frontier {
            version: FRONTIER_VERSION,
            program: "gzip".to_string(),
            objective: Objective::parse("cycles,energy").unwrap(),
            constraints: Constraints::parse("rob<=96").unwrap(),
            budget: ExploreBudget::tiny(),
            points: vec![FrontierPoint {
                config: Config::baseline(),
                objectives: vec![12345.0, 67.25],
                round: 1,
            }],
            rounds: vec![RoundStats {
                round: 0,
                scored: 64,
                simulated: 8,
                added: 3,
                archive: 3,
                hypervolume: 0.75,
            }],
            predictor_calls: 64,
            sim_calls: 8,
            cancelled: false,
        }
    }

    #[test]
    fn frontier_round_trips_through_json() {
        let f = sample();
        let j = dse_util::json::to_string(&f);
        let back: Frontier = dse_util::json::from_str(&j).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn rejects_wrong_version_and_dimension() {
        let f = sample();
        let j = dse_util::json::to_string(&f);
        let bumped = j.replace("\"version\":1", "\"version\":9");
        assert!(dse_util::json::from_str::<Frontier>(&bumped).is_err());
        let chopped = j.replace("[12345,67.25]", "[12345]");
        assert!(dse_util::json::from_str::<Frontier>(&chopped).is_err());
    }

    #[test]
    fn table_lists_every_point() {
        let f = sample();
        let t = f.table();
        assert!(t.contains("cycles"));
        assert_eq!(t.lines().count(), 1 + f.points.len());
    }
}
