//! Result types: the one-line result every run prints last, and the fuller
//! record it writes beside it for `compare` and the committed baseline.

use dse_util::json::{FromJson, Json, JsonError, ToJson};

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Self {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// `{"<name>": {"value": v, "unit": u}, ...}` in list order.
fn metrics_to_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", m.value.to_json()), ("unit", m.unit.to_json())]),
                )
            })
            .collect(),
    )
}

fn metrics_from_json(v: &Json) -> Result<Vec<Metric>, JsonError> {
    match v {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m.get("value")?,
                    unit: m.get("unit")?,
                })
            })
            .collect(),
        _ => Err(JsonError::msg("metrics must be an object")),
    }
}

/// What a run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced pass) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", self.correct.to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", metrics_to_json(&self.metrics)),
        ])
    }
}

impl FromJson for RunResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            correct: v.get("correct")?,
            attempted: v.get("attempted")?,
            failed: v.get("failed")?,
            metrics: metrics_from_json(v.field("metrics")?).map_err(|e| e.in_path("metrics"))?,
        })
    }
}

/// Everything one run measured, written to `benchmark/out/` beside the
/// printed result.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// The printed result.
    pub result: RunResult,
    /// Further measurements printed for reading, not gated: tail
    /// percentiles with their sample counts, accuracy figures.
    pub info: Vec<Metric>,
    /// Deterministic work counts of one operation (checked against the
    /// pins for seed 1).
    pub work: Vec<(String, u64)>,
    /// Failed checks and counter drift, one line each.
    pub notes: Vec<String>,
    /// Effective settings of the environment knobs the library reads.
    pub env: Vec<(String, String)>,
}

impl ToJson for Record {
    fn to_json(&self) -> Json {
        let work = self.work.iter().map(|(k, v)| (k.clone(), v.to_json()));
        let env = self.env.iter().map(|(k, v)| (k.clone(), v.to_json()));
        Json::obj([
            ("workload", self.workload.to_json()),
            ("seed", self.seed.to_json()),
            ("traced", self.traced.to_json()),
            ("result", self.result.to_json()),
            ("info", metrics_to_json(&self.info)),
            ("work", Json::Obj(work.collect())),
            ("notes", self.notes.to_json()),
            ("env", Json::Obj(env.collect())),
        ])
    }
}

impl FromJson for Record {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let fields = |key: &str| -> Result<&[(String, Json)], JsonError> {
            match v.field(key)? {
                Json::Obj(fields) => Ok(fields),
                _ => Err(JsonError::msg(format!("`{key}` must be an object"))),
            }
        };
        Ok(Self {
            workload: v.get("workload")?,
            seed: v.get("seed")?,
            traced: v.get("traced")?,
            result: v.get("result")?,
            info: metrics_from_json(v.field("info")?).map_err(|e| e.in_path("info"))?,
            work: fields("work")?
                .iter()
                .map(|(k, n)| Ok((k.clone(), n.as_u64()?)))
                .collect::<Result<_, JsonError>>()?,
            notes: v.get("notes")?,
            env: fields("env")?
                .iter()
                .map(|(k, s)| Ok((k.clone(), s.as_str()?.to_string())))
                .collect::<Result<_, JsonError>>()?,
        })
    }
}
