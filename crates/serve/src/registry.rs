//! Model artifact store and registry.
//!
//! An artifact directory persists one JSON file per metric plus a
//! versioned `manifest.json`:
//!
//! ```text
//! models/
//!   manifest.json            {"version":1,"models":[{"metric":"Cycles","file":"model-cycles.json"},...]}
//!   model-cycles.json        one MetricArtifact (see below)
//!   model-energy.json
//! ```
//!
//! Each metric artifact holds everything the online half of the
//! architecture-centric model needs — and nothing else:
//!
//! * the trained per-program ANNs (weights, scalers) of the training
//!   suite;
//! * the shared configuration sample (§3.3) so response indices have a
//!   stable meaning across save/load;
//! * the design table: the training programs' *actual* simulated metric
//!   values at every shared configuration, i.e. the columns of the
//!   paper's equation (5) design matrix.
//!
//! With that, `POST /v1/fit` is [`dse_core::fit_combiner`] over the
//! persisted rows — bit-identical to the library's
//! [`OfflineModel::fit_responses`] path, without the dataset on disk.
//!
//! [`ModelRegistry`] wraps the artifacts behind an `RwLock`: predictions
//! take a read lock, while `/v1/fit` and hot reload take the write lock
//! briefly to swap in new state.

use dse_core::{fit_combiner, OfflineModel, ProgramSpecificPredictor};
use dse_ml::LinearRegression;
use dse_sim::Metric;
use dse_space::Config;
use dse_util::json::{self, FromJson, Json, JsonError, ToJson};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// On-disk schema version of both the manifest and the artifact files.
pub const ARTIFACT_VERSION: u64 = 1;

/// Name of the manifest file inside an artifact directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Everything needed to serve one metric.
#[derive(Debug, Clone)]
pub struct MetricArtifact {
    /// The metric this artifact serves.
    pub metric: Metric,
    /// The trained offline ensemble (one ANN per training program).
    pub offline: OfflineModel,
    /// The shared configuration sample; response indices index this list.
    pub configs: Vec<Config>,
    /// `design[i][j]` = training program `j`'s actual `metric` at
    /// `configs[i]`.
    pub design: Vec<Vec<f64>>,
}

impl MetricArtifact {
    /// Names of the training programs, in design-column order.
    pub fn programs(&self) -> Vec<String> {
        self.offline
            .models()
            .iter()
            .map(|m| m.program().to_string())
            .collect()
    }
}

impl ToJson for MetricArtifact {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", ARTIFACT_VERSION.to_json()),
            ("metric", self.metric.to_json()),
            ("predictors", self.offline.models().to_vec().to_json()),
            ("configs", self.configs.to_json()),
            ("design", self.design.to_json()),
        ])
    }
}

impl FromJson for MetricArtifact {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let version = u64::from_json(v.field("version")?)?;
        if version != ARTIFACT_VERSION {
            return Err(JsonError::msg(format!(
                "unsupported artifact version {version} (expected {ARTIFACT_VERSION})"
            )));
        }
        let metric = Metric::from_json(v.field("metric")?)?;
        let predictors = Vec::<ProgramSpecificPredictor>::from_json(v.field("predictors")?)?;
        let configs = Vec::<Config>::from_json(v.field("configs")?)?;
        let design = Vec::<Vec<f64>>::from_json(v.field("design")?)?;
        if predictors.is_empty() {
            return Err(JsonError::msg("artifact has no predictors"));
        }
        if predictors.iter().any(|p| p.metric() != metric) {
            return Err(JsonError::msg("predictor metric mismatch"));
        }
        if design.len() != configs.len() {
            return Err(JsonError::msg(format!(
                "design table has {} rows for {} configs",
                design.len(),
                configs.len()
            )));
        }
        if design.iter().any(|row| row.len() != predictors.len()) {
            return Err(JsonError::msg("design row width != number of predictors"));
        }
        let rows: Vec<usize> = (0..predictors.len()).collect();
        Ok(Self {
            metric,
            offline: OfflineModel::from_parts(metric, rows, predictors),
            configs,
            design,
        })
    }
}

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// Filesystem error (path and cause).
    Io(String),
    /// A manifest or artifact file did not parse or validate.
    Parse(String),
    /// No artifact is loaded for this metric.
    UnknownMetric(Metric),
    /// The program has not been fitted yet (`POST /v1/fit` first).
    NotFitted {
        /// Requested program id.
        program: String,
        /// Requested metric.
        metric: Metric,
    },
    /// A fit request was malformed (bad index, duplicate, empty…).
    BadRequest(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Parse(e) => write!(f, "parse error: {e}"),
            Self::UnknownMetric(m) => write!(f, "no model loaded for metric {m}"),
            Self::NotFitted { program, metric } => {
                write!(
                    f,
                    "program {program:?} not fitted for {metric}; POST /v1/fit first"
                )
            }
            Self::BadRequest(e) => write!(f, "bad request: {e}"),
        }
    }
}

/// Result summary of an online fit.
#[derive(Debug, Clone)]
pub struct FitSummary {
    /// Program that was fitted.
    pub program: String,
    /// Metric it was fitted for.
    pub metric: Metric,
    /// Fitted per-training-program weights (β₁…β_N).
    pub weights: Vec<f64>,
    /// Fitted intercept (β₀).
    pub intercept: f64,
    /// rmae of the fitted model on the responses themselves (%).
    pub training_rmae: f64,
    /// Number of responses used.
    pub responses: usize,
}

struct Inner {
    models: HashMap<Metric, Arc<MetricArtifact>>,
    /// Combiners by metric, then program, so a lookup borrows the name.
    fitted: HashMap<Metric, HashMap<String, Arc<LinearRegression>>>,
}

/// Thread-safe registry of loaded artifacts and online-fitted programs.
pub struct ModelRegistry {
    dir: PathBuf,
    inner: RwLock<Inner>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().unwrap();
        let fitted: usize = inner.fitted.values().map(HashMap::len).sum();
        f.debug_struct("ModelRegistry")
            .field("dir", &self.dir)
            .field("models", &inner.models.len())
            .field("fitted", &fitted)
            .finish()
    }
}

/// Slug used in artifact file names: `model-<slug>.json`.
fn metric_slug(metric: Metric) -> String {
    metric.to_string().to_lowercase()
}

fn read_to_string(path: &Path) -> Result<String, RegistryError> {
    std::fs::read_to_string(path).map_err(|e| RegistryError::Io(format!("{}: {e}", path.display())))
}

fn load_dir(dir: &Path) -> Result<HashMap<Metric, Arc<MetricArtifact>>, RegistryError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = Json::parse(&read_to_string(&manifest_path)?)
        .map_err(|e| RegistryError::Parse(format!("{}: {e}", manifest_path.display())))?;
    let version =
        u64::from_json(manifest.field("version").map_err(parse_err)?).map_err(parse_err)?;
    if version != ARTIFACT_VERSION {
        return Err(RegistryError::Parse(format!(
            "unsupported manifest version {version}"
        )));
    }
    let mut models = HashMap::new();
    for entry in manifest
        .field("models")
        .map_err(parse_err)?
        .as_array()
        .map_err(parse_err)?
    {
        let metric =
            Metric::from_json(entry.field("metric").map_err(parse_err)?).map_err(parse_err)?;
        let file = String::from_json(entry.field("file").map_err(parse_err)?).map_err(parse_err)?;
        if file.contains(['/', '\\']) || file.contains("..") {
            return Err(RegistryError::Parse(format!(
                "manifest file name {file:?} must be a bare file name"
            )));
        }
        let path = dir.join(&file);
        let artifact: MetricArtifact = json::from_str(&read_to_string(&path)?)
            .map_err(|e| RegistryError::Parse(format!("{}: {e}", path.display())))?;
        if artifact.metric != metric {
            return Err(RegistryError::Parse(format!(
                "{}: artifact metric {} does not match manifest entry {metric}",
                path.display(),
                artifact.metric
            )));
        }
        models.insert(metric, Arc::new(artifact));
    }
    if models.is_empty() {
        return Err(RegistryError::Parse("manifest lists no models".to_string()));
    }
    Ok(models)
}

fn parse_err(e: JsonError) -> RegistryError {
    RegistryError::Parse(e.to_string())
}

impl ModelRegistry {
    /// Loads every artifact listed in `dir`'s manifest.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let dir = dir.into();
        let models = load_dir(&dir)?;
        Ok(Self {
            dir,
            inner: RwLock::new(Inner {
                models,
                fitted: HashMap::new(),
            }),
        })
    }

    /// The artifact directory this registry was opened on.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Re-reads the artifact directory and swaps the loaded models in
    /// atomically. All online fits are dropped (their design columns may
    /// no longer match). Returns the number of models now loaded.
    ///
    /// On error the registry keeps serving its previous state.
    pub fn reload(&self) -> Result<usize, RegistryError> {
        let models = load_dir(&self.dir)?;
        let n = models.len();
        let mut inner = self.inner.write().unwrap();
        inner.models = models;
        inner.fitted.clear();
        Ok(n)
    }

    /// Metrics with a loaded artifact, in [`Metric::ALL`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let inner = self.inner.read().unwrap();
        Metric::ALL
            .iter()
            .copied()
            .filter(|m| inner.models.contains_key(m))
            .collect()
    }

    /// The artifact serving `metric`, if loaded.
    pub fn artifact(&self, metric: Metric) -> Option<Arc<MetricArtifact>> {
        self.inner.read().unwrap().models.get(&metric).cloned()
    }

    /// `(program, metric)` pairs that have been fitted online.
    pub fn fitted(&self) -> Vec<(String, Metric)> {
        let inner = self.inner.read().unwrap();
        let mut out: Vec<_> = (inner.fitted.iter())
            .flat_map(|(&m, programs)| programs.keys().map(move |p| (p.clone(), m)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.to_string().cmp(&b.1.to_string())));
        out
    }

    /// Fits `program` for `metric` from `(response index, simulated
    /// value)` pairs — the paper's equation (5), run on the persisted
    /// design table. Replaces any previous fit of the same pair.
    pub fn fit(
        &self,
        program: &str,
        metric: Metric,
        responses: &[(usize, f64)],
    ) -> Result<FitSummary, RegistryError> {
        if program.is_empty() {
            return Err(RegistryError::BadRequest("empty program id".to_string()));
        }
        if responses.is_empty() {
            return Err(RegistryError::BadRequest("no responses given".to_string()));
        }
        let artifact = self
            .artifact(metric)
            .ok_or(RegistryError::UnknownMetric(metric))?;
        let mut seen = std::collections::HashSet::new();
        for &(idx, value) in responses {
            if idx >= artifact.configs.len() {
                return Err(RegistryError::BadRequest(format!(
                    "response index {idx} out of range (sample has {} configurations)",
                    artifact.configs.len()
                )));
            }
            if !seen.insert(idx) {
                return Err(RegistryError::BadRequest(format!(
                    "duplicate response index {idx}"
                )));
            }
            if !value.is_finite() {
                return Err(RegistryError::BadRequest(format!(
                    "response value at index {idx} is not finite"
                )));
            }
        }
        let rows: Vec<Vec<f64>> = responses
            .iter()
            .map(|&(idx, _)| artifact.design[idx].clone())
            .collect();
        let values: Vec<f64> = responses.iter().map(|&(_, v)| v).collect();
        let reg = fit_combiner(&rows, &values);
        let preds: Vec<f64> = responses
            .iter()
            .map(|&(idx, _)| {
                artifact
                    .offline
                    .predict_with(&reg, &artifact.configs[idx].to_features())
            })
            .collect();
        let training_rmae = dse_ml::stats::rmae(&preds, &values);
        let summary = FitSummary {
            program: program.to_string(),
            metric,
            weights: reg.weights().to_vec(),
            intercept: reg.intercept(),
            training_rmae,
            responses: responses.len(),
        };
        self.inner
            .write()
            .unwrap()
            .fitted
            .entry(metric)
            .or_default()
            .insert(program.to_string(), Arc::new(reg));
        Ok(summary)
    }

    /// The pieces needed to predict `program`'s `metric`: the loaded
    /// artifact and the online-fitted combiner.
    pub fn predictor(
        &self,
        program: &str,
        metric: Metric,
    ) -> Result<(Arc<MetricArtifact>, Arc<LinearRegression>), RegistryError> {
        let inner = self.inner.read().unwrap();
        let artifact = inner
            .models
            .get(&metric)
            .cloned()
            .ok_or(RegistryError::UnknownMetric(metric))?;
        let reg = inner
            .fitted
            .get(&metric)
            .and_then(|programs| programs.get(program))
            .cloned()
            .ok_or_else(|| RegistryError::NotFitted {
                program: program.to_string(),
                metric,
            })?;
        Ok((artifact, reg))
    }

    /// Predicts `program`'s `metric` at `config` (uncached; the server
    /// layers its LRU cache above this).
    pub fn predict(
        &self,
        program: &str,
        metric: Metric,
        config: &Config,
    ) -> Result<f64, RegistryError> {
        let (artifact, reg) = self.predictor(program, metric)?;
        Ok(artifact.offline.predict_with(&reg, &config.to_features()))
    }
}

/// Trains and persists artifacts for `metrics` into `dir`, overwriting
/// existing files: one `model-<metric>.json` per metric plus the
/// manifest. Every benchmark of `ds` becomes a training program; the
/// design table is each program's actual values over the whole shared
/// sample.
///
/// Returns the manifest path.
pub fn save_artifacts(
    dir: &Path,
    ds: &dse_core::SuiteDataset,
    metrics: &[Metric],
    t: usize,
    mlp_cfg: &dse_ml::MlpConfig,
    seed: u64,
) -> Result<PathBuf, RegistryError> {
    assert!(!metrics.is_empty(), "need at least one metric");
    std::fs::create_dir_all(dir)
        .map_err(|e| RegistryError::Io(format!("{}: {e}", dir.display())))?;
    let all_rows: Vec<usize> = (0..ds.benchmarks.len()).collect();
    let all_cfgs: Vec<usize> = (0..ds.n_configs()).collect();
    let mut entries = Vec::new();
    for &metric in metrics {
        let offline = OfflineModel::train(ds, &all_rows, metric, t, mlp_cfg, seed);
        let design = offline.design_rows(
            ds,
            &all_cfgs,
            dse_core::arch_centric::ResponseSource::Actual,
        );
        let artifact = MetricArtifact {
            metric,
            offline,
            configs: ds.configs.clone(),
            design,
        };
        let file = format!("model-{}.json", metric_slug(metric));
        let path = dir.join(&file);
        std::fs::write(&path, json::to_string(&artifact))
            .map_err(|e| RegistryError::Io(format!("{}: {e}", path.display())))?;
        entries.push(Json::obj([
            ("metric", metric.to_json()),
            ("file", file.to_json()),
        ]));
    }
    let manifest = Json::obj([
        ("version", ARTIFACT_VERSION.to_json()),
        ("models", Json::Arr(entries)),
    ]);
    let manifest_path = dir.join(MANIFEST_FILE);
    let mut text = String::new();
    manifest.write(&mut text);
    std::fs::write(&manifest_path, text)
        .map_err(|e| RegistryError::Io(format!("{}: {e}", manifest_path.display())))?;
    Ok(manifest_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_core::dataset::{DatasetSpec, SuiteDataset};
    use dse_ml::MlpConfig;

    fn tiny_dataset() -> SuiteDataset {
        let profiles: Vec<_> = dse_workload::suites::spec2000()
            .into_iter()
            .take(4)
            .collect();
        let spec = DatasetSpec {
            n_configs: 30,
            ..DatasetSpec::tiny()
        };
        SuiteDataset::generate(&profiles, &spec)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dse-serve-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_open_fit_predict_round_trip() {
        let ds = tiny_dataset();
        let dir = temp_dir("roundtrip");
        save_artifacts(&dir, &ds, &[Metric::Cycles], 20, &MlpConfig::default(), 1).unwrap();

        let reg = ModelRegistry::open(&dir).unwrap();
        assert_eq!(reg.metrics(), vec![Metric::Cycles]);
        let artifact = reg.artifact(Metric::Cycles).unwrap();
        assert_eq!(artifact.configs.len(), 30);
        assert_eq!(artifact.design.len(), 30);
        assert_eq!(artifact.design[0].len(), 4);

        // Fit a "new" program from its first 8 simulated responses.
        let responses: Vec<(usize, f64)> = (0..8)
            .map(|i| (i, ds.benchmarks[3].metrics[i].get(Metric::Cycles)))
            .collect();
        let summary = reg.fit("newprog", Metric::Cycles, &responses).unwrap();
        assert_eq!(summary.weights.len(), 4);
        assert!(summary.training_rmae.is_finite());

        let value = reg
            .predict("newprog", Metric::Cycles, &artifact.configs[9])
            .unwrap();
        assert!(value.is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn predict_before_fit_is_not_fitted() {
        let ds = tiny_dataset();
        let dir = temp_dir("notfitted");
        save_artifacts(&dir, &ds, &[Metric::Cycles], 20, &MlpConfig::default(), 1).unwrap();
        let reg = ModelRegistry::open(&dir).unwrap();
        let err = reg
            .predict("ghost", Metric::Cycles, &Config::baseline())
            .unwrap_err();
        assert!(matches!(err, RegistryError::NotFitted { .. }));
        let err = reg
            .predict("ghost", Metric::Energy, &Config::baseline())
            .unwrap_err();
        assert_eq!(err, RegistryError::UnknownMetric(Metric::Energy));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fit_rejects_bad_responses() {
        let ds = tiny_dataset();
        let dir = temp_dir("badfit");
        save_artifacts(&dir, &ds, &[Metric::Cycles], 20, &MlpConfig::default(), 1).unwrap();
        let reg = ModelRegistry::open(&dir).unwrap();
        assert!(matches!(
            reg.fit("p", Metric::Cycles, &[]).unwrap_err(),
            RegistryError::BadRequest(_)
        ));
        assert!(matches!(
            reg.fit("p", Metric::Cycles, &[(999, 1.0)]).unwrap_err(),
            RegistryError::BadRequest(_)
        ));
        assert!(matches!(
            reg.fit("p", Metric::Cycles, &[(0, 1.0), (0, 2.0)])
                .unwrap_err(),
            RegistryError::BadRequest(_)
        ));
        assert!(matches!(
            reg.fit("p", Metric::Cycles, &[(0, f64::NAN)]).unwrap_err(),
            RegistryError::BadRequest(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_drops_online_fits() {
        let ds = tiny_dataset();
        let dir = temp_dir("reload");
        save_artifacts(&dir, &ds, &[Metric::Cycles], 20, &MlpConfig::default(), 1).unwrap();
        let reg = ModelRegistry::open(&dir).unwrap();
        let responses: Vec<(usize, f64)> = (0..6)
            .map(|i| (i, ds.benchmarks[0].metrics[i].get(Metric::Cycles)))
            .collect();
        reg.fit("p", Metric::Cycles, &responses).unwrap();
        assert_eq!(reg.fitted().len(), 1);
        assert_eq!(reg.reload().unwrap(), 1);
        assert!(reg.fitted().is_empty());
    }

    #[test]
    fn open_rejects_missing_and_corrupt_manifests() {
        let dir = temp_dir("corrupt");
        assert!(matches!(
            ModelRegistry::open(&dir).unwrap_err(),
            RegistryError::Io(_)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), "{not json").unwrap();
        assert!(matches!(
            ModelRegistry::open(&dir).unwrap_err(),
            RegistryError::Parse(_)
        ));
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "{\"version\":1,\"models\":[{\"metric\":\"Cycles\",\"file\":\"../evil.json\"}]}",
        )
        .unwrap();
        assert!(matches!(
            ModelRegistry::open(&dir).unwrap_err(),
            RegistryError::Parse(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_json_rejects_inconsistent_tables() {
        let ds = tiny_dataset();
        let dir = temp_dir("inconsistent");
        save_artifacts(&dir, &ds, &[Metric::Cycles], 20, &MlpConfig::default(), 1).unwrap();
        let path = dir.join("model-cycles.json");
        let artifact: MetricArtifact =
            json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // Drop one design row: rows must equal the config count.
        let mut broken = artifact.clone();
        broken.design.pop();
        let err = json::from_str::<MetricArtifact>(&json::to_string(&broken)).unwrap_err();
        assert!(err.to_string().contains("design table"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
