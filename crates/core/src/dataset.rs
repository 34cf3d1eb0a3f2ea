//! Simulated datasets following the paper's sampling protocol (§3.3).
//!
//! One set of configurations is drawn uniformly at random from the legal
//! design space and **every benchmark is simulated on the same set** — the
//! paper simulates the same 3,000 sampled architectures for each program,
//! which is what lets the architecture-centric model reuse the training
//! programs' responses without new simulations (§5.3).

use dse_rng::Xoshiro256;
use dse_sim::{try_simulate, CheckError, Metric, Metrics, SimOptions};
use dse_space::{sample_legal, Config};
use dse_util::json::{FromJson, Json, JsonError, ToJson};
use dse_util::par::par_map;
use dse_workload::{Profile, Suite, TraceGenerator};
use std::io;
use std::path::Path;

/// A sanitizer violation raised while generating a dataset, annotated with
/// the benchmark and configuration that triggered it so a failure deep in
/// a parallel sweep is actionable.
#[derive(Debug, Clone)]
pub struct GenerateError {
    /// Benchmark whose simulation violated an invariant.
    pub benchmark: String,
    /// The configuration being simulated.
    pub config: Config,
    /// The underlying invariant violation.
    pub source: CheckError,
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dataset generation failed on benchmark `{}`, config {}: {}",
            self.benchmark, self.config, self.source
        )
    }
}

impl std::error::Error for GenerateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Parameters of a dataset generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetSpec {
    /// Number of sampled configurations (the paper uses 3,000; the
    /// default here is 1,000 to fit a single-core time budget — see
    /// EXPERIMENTS.md).
    pub n_configs: usize,
    /// Dynamic trace length per benchmark in instructions.
    pub trace_len: usize,
    /// Warm-up instructions excluded from the metrics.
    pub warmup: usize,
    /// Seed for configuration sampling.
    pub seed: u64,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        Self {
            n_configs: 1_000,
            trace_len: 60_000,
            warmup: 15_000,
            seed: 0xD5E,
        }
    }
}

impl DatasetSpec {
    /// The paper's full protocol: 3,000 configurations per benchmark.
    pub fn paper() -> Self {
        Self {
            n_configs: 3_000,
            trace_len: 200_000,
            warmup: 50_000,
            seed: 0xD5E,
        }
    }

    /// A reduced spec for unit tests and examples: few configurations and
    /// short traces, still exercising the full pipeline.
    pub fn tiny() -> Self {
        Self {
            n_configs: 24,
            trace_len: 12_000,
            warmup: 2_000,
            seed: 0xD5E,
        }
    }
}

impl ToJson for DatasetSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n_configs", self.n_configs.to_json()),
            ("trace_len", self.trace_len.to_json()),
            ("warmup", self.warmup.to_json()),
            ("seed", self.seed.to_json()),
        ])
    }
}

impl FromJson for DatasetSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let spec = Self {
            n_configs: usize::from_json(v.field("n_configs")?)?,
            trace_len: usize::from_json(v.field("trace_len")?)?,
            warmup: usize::from_json(v.field("warmup")?)?,
            seed: u64::from_json(v.field("seed")?)?,
        };
        if spec.warmup >= spec.trace_len {
            return Err(JsonError::msg("warmup must be smaller than trace_len"));
        }
        Ok(spec)
    }
}

/// Simulated metrics of one benchmark over the shared configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkData {
    /// Benchmark name.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// One [`Metrics`] per shared configuration (same order as
    /// [`SuiteDataset::configs`]).
    pub metrics: Vec<Metrics>,
    /// Metrics of the paper's baseline configuration, used for
    /// normalisation (Fig 4, Fig 5).
    pub baseline: Metrics,
}

impl BenchmarkData {
    /// The values of one metric across all shared configurations.
    pub fn values(&self, metric: Metric) -> Vec<f64> {
        self.metrics.iter().map(|m| m.get(metric)).collect()
    }

    /// The values of one metric normalised by the baseline configuration.
    pub fn normalized_values(&self, metric: Metric) -> Vec<f64> {
        let base = self.baseline.get(metric);
        self.metrics.iter().map(|m| m.get(metric) / base).collect()
    }
}

impl ToJson for BenchmarkData {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("suite", self.suite.to_json()),
            ("metrics", self.metrics.to_json()),
            ("baseline", self.baseline.to_json()),
        ])
    }
}

impl FromJson for BenchmarkData {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: String::from_json(v.field("name")?)?,
            suite: Suite::from_json(v.field("suite")?)?,
            metrics: Vec::from_json(v.field("metrics")?)?,
            baseline: Metrics::from_json(v.field("baseline")?)?,
        })
    }
}

/// A full dataset: shared configurations × benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteDataset {
    /// The generation parameters.
    pub spec: DatasetSpec,
    /// The shared sampled configurations.
    pub configs: Vec<Config>,
    /// Per-benchmark simulated metrics.
    pub benchmarks: Vec<BenchmarkData>,
}

impl ToJson for SuiteDataset {
    fn to_json(&self) -> Json {
        Json::obj([
            ("spec", self.spec.to_json()),
            ("configs", self.configs.to_json()),
            ("benchmarks", self.benchmarks.to_json()),
        ])
    }
}

impl FromJson for SuiteDataset {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let ds = Self {
            spec: DatasetSpec::from_json(v.field("spec")?)?,
            configs: Vec::from_json(v.field("configs")?)?,
            benchmarks: Vec::from_json(v.field("benchmarks")?)?,
        };
        // Structural consistency: every benchmark must cover the shared
        // configuration sample exactly.
        for b in &ds.benchmarks {
            if b.metrics.len() != ds.configs.len() {
                return Err(JsonError::msg(format!(
                    "benchmark `{}` has {} metric rows for {} configs",
                    b.name,
                    b.metrics.len(),
                    ds.configs.len()
                )));
            }
        }
        Ok(ds)
    }
}

impl SuiteDataset {
    /// Simulates `profiles` over a fresh uniform sample of legal
    /// configurations. The whole benchmark × configuration grid (plus one
    /// baseline cell per benchmark) is flattened into a single work list
    /// of one simulation per item and handed to one
    /// [`dse_util::par::par_map`] call (thread count via
    /// `ARCHDSE_THREADS`): a thread finishing a cheap simulation
    /// immediately pulls work from *any* benchmark instead of idling at a
    /// per-benchmark barrier. Results are bit-identical for every thread
    /// count. Progress (sims completed, sims/sec, ETA)
    /// and a one-line summary are reported at `info` level
    /// (`ARCHDSE_LOG=info`) since full generation takes minutes.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty, the spec's warm-up is not smaller
    /// than the trace length, or (with the sanitizer enabled) a simulation
    /// violates an invariant — use [`SuiteDataset::try_generate`] to
    /// handle violations as errors.
    pub fn generate(profiles: &[Profile], spec: &DatasetSpec) -> Self {
        match Self::try_generate(profiles, spec) {
            Ok(ds) => ds,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`SuiteDataset::generate`], but threads sanitizer violations
    /// out of the parallel sweep as an error naming the benchmark and
    /// configuration instead of panicking mid-`par_map`.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or the spec's warm-up is not smaller
    /// than the trace length (caller bugs, not simulation outcomes).
    pub fn try_generate(profiles: &[Profile], spec: &DatasetSpec) -> Result<Self, GenerateError> {
        assert!(!profiles.is_empty(), "need at least one profile");
        assert!(
            spec.warmup < spec.trace_len,
            "warmup must precede trace end"
        );
        let _gen_span = dse_obs::span!(
            "dataset.generate",
            benchmarks = profiles.len(),
            configs = spec.n_configs
        );
        let mut rng = Xoshiro256::seed_from(spec.seed);
        let configs = sample_legal(&mut rng, spec.n_configs);
        let options = SimOptions::with_warmup(spec.warmup);
        let baseline_cfg = Config::baseline();

        // One trace per benchmark, generated up front and shared read-only
        // by every simulation of that benchmark.
        let traces: Vec<_> = {
            let _span = dse_obs::span!("dataset.traces", count = profiles.len());
            par_map(profiles, |p| {
                TraceGenerator::new(p).generate(spec.trace_len)
            })
        };

        // Flatten the benchmark × configuration grid into a single work
        // list of (benchmark, column) cells. The baseline rides along as a
        // final pseudo-column so it is scheduled like any other cell.
        let sweep_cfgs: Vec<Config> = configs.iter().copied().chain([baseline_cfg]).collect();
        let cols = sweep_cfgs.len();
        let jobs: Vec<(usize, usize)> = (0..profiles.len())
            .flat_map(|b| (0..cols).map(move |c| (b, c)))
            .collect();
        let t0 = std::time::Instant::now();
        let total = profiles.len() * cols;
        // Progress heartbeat: ~10 reports per sweep, each with the
        // completion count, throughput, and a remaining-time estimate.
        let progress_step = (total / 10).max(1);
        let done = std::sync::atomic::AtomicUsize::new(0);
        let sims_counter = dse_obs::counter("dse_core_dataset_sims_total");
        let cells: Vec<Result<Metrics, CheckError>> = {
            let _span = dse_obs::span!("dataset.sweep", sims = total);
            par_map(&jobs, |&(b, c)| {
                let r = try_simulate(&sweep_cfgs[c], &traces[b], options);
                sims_counter.inc();
                let d = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                if d.is_multiple_of(progress_step) || d == total {
                    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
                    let rate = d as f64 / elapsed;
                    dse_obs::log!(
                        info,
                        "[dataset] {d}/{total} sims, {rate:.1} sims/s, eta {:.0}s",
                        (total - d) as f64 / rate.max(1e-9)
                    );
                }
                r
            })
        };
        dse_obs::log!(
            info,
            "[dataset] {} benchmarks x {} configs (+{} baselines) = {} sims in {:.1}s",
            profiles.len(),
            configs.len(),
            profiles.len(),
            jobs.len(),
            t0.elapsed().as_secs_f64()
        );

        // Regroup benchmark-major; `par_map` returns results in input
        // order, which is the (benchmark, column) row-major order — the
        // output is deterministic for any thread count.
        let mut iter = cells.into_iter();
        let mut benchmarks = Vec::with_capacity(profiles.len());
        for p in profiles {
            let mut metrics = Vec::with_capacity(cols);
            for cfg in &sweep_cfgs {
                let m = iter
                    .next()
                    .expect("job list covers the grid")
                    .map_err(|source| GenerateError {
                        benchmark: p.name.to_string(),
                        config: *cfg,
                        source,
                    })?;
                metrics.push(m);
            }
            let baseline = metrics.pop().expect("baseline pseudo-column");
            benchmarks.push(BenchmarkData {
                name: p.name.to_string(),
                suite: p.suite,
                metrics,
                baseline,
            });
        }

        Ok(Self {
            spec: *spec,
            configs,
            benchmarks,
        })
    }

    /// Loads the dataset from `cache_dir` if a file generated with the
    /// same spec and benchmark set exists; otherwise generates and caches
    /// it.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialisation error from reading/writing the
    /// cache, and any sanitizer violation raised during generation
    /// (surfaced as [`io::ErrorKind::InvalidData`]).
    pub fn load_or_generate(
        profiles: &[Profile],
        spec: &DatasetSpec,
        cache_dir: &Path,
    ) -> io::Result<Self> {
        let key = Self::cache_key(profiles, spec);
        let path = cache_dir.join(format!("dse-dataset-{key}.json"));
        if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            let ds: SuiteDataset = dse_util::json::from_str(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            dse_obs::log!(info, "[dataset] loaded cache {}", path.display());
            return Ok(ds);
        }
        let ds = Self::try_generate(profiles, spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::create_dir_all(cache_dir)?;
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, dse_util::json::to_string(&ds))?;
        std::fs::rename(&tmp, &path)?;
        dse_obs::log!(info, "[dataset] cached to {}", path.display());
        Ok(ds)
    }

    fn cache_key(profiles: &[Profile], spec: &DatasetSpec) -> String {
        // Cheap stable fingerprint over names, seeds and the spec.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for p in profiles {
            for b in p.name.bytes() {
                mix(b);
            }
            for b in p.seed.to_le_bytes() {
                mix(b);
            }
        }
        for v in [
            spec.n_configs as u64,
            spec.trace_len as u64,
            spec.warmup as u64,
            spec.seed,
        ] {
            for b in v.to_le_bytes() {
                mix(b);
            }
        }
        format!("{h:016x}")
    }

    /// ML feature vectors of the shared configurations.
    pub fn features(&self) -> Vec<Vec<f64>> {
        self.configs
            .iter()
            .map(|c| c.to_features().to_vec())
            .collect()
    }

    /// Index of a benchmark by name.
    pub fn benchmark_index(&self, name: &str) -> Option<usize> {
        self.benchmarks.iter().position(|b| b.name == name)
    }

    /// Index of a benchmark that must be present.
    ///
    /// # Panics
    ///
    /// Panics with the requested name and the available benchmarks, so a
    /// misspelling is immediately diagnosable.
    pub fn require_benchmark(&self, name: &str) -> usize {
        self.benchmark_index(name).unwrap_or_else(|| {
            let available: Vec<&str> = self.benchmarks.iter().map(|b| b.name.as_str()).collect();
            panic!("benchmark `{name}` is not in the dataset (available: {available:?})")
        })
    }

    /// Number of shared configurations.
    pub fn n_configs(&self) -> usize {
        self.configs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_workload::suites;

    fn tiny_dataset() -> SuiteDataset {
        let profiles: Vec<Profile> = suites::spec2000().into_iter().take(3).collect();
        SuiteDataset::generate(&profiles, &DatasetSpec::tiny())
    }

    #[test]
    fn generate_produces_full_grid() {
        let ds = tiny_dataset();
        assert_eq!(ds.configs.len(), 24);
        assert_eq!(ds.benchmarks.len(), 3);
        for b in &ds.benchmarks {
            assert_eq!(b.metrics.len(), 24);
            assert!(b.metrics.iter().all(|m| m.cycles > 0.0 && m.energy > 0.0));
            assert!(b.baseline.cycles > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let profiles: Vec<Profile> = suites::spec2000().into_iter().take(2).collect();
        let a = SuiteDataset::generate(&profiles, &DatasetSpec::tiny());
        let b = SuiteDataset::generate(&profiles, &DatasetSpec::tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn values_and_normalized_values_are_consistent() {
        let ds = tiny_dataset();
        let b = &ds.benchmarks[0];
        let raw = b.values(Metric::Energy);
        let norm = b.normalized_values(Metric::Energy);
        for (r, n) in raw.iter().zip(&norm) {
            assert!((n * b.baseline.energy - r).abs() < 1e-6 * r);
        }
    }

    #[test]
    fn cache_round_trips() {
        let dir = std::env::temp_dir().join("dse-dataset-test");
        let _ = std::fs::remove_dir_all(&dir);
        let profiles: Vec<Profile> = suites::mibench().into_iter().take(2).collect();
        let spec = DatasetSpec::tiny();
        let a = SuiteDataset::load_or_generate(&profiles, &spec, &dir).unwrap();
        let b = SuiteDataset::load_or_generate(&profiles, &spec, &dir).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_key_distinguishes_specs() {
        let profiles: Vec<Profile> = suites::spec2000().into_iter().take(1).collect();
        let a = SuiteDataset::cache_key(&profiles, &DatasetSpec::tiny());
        let mut other = DatasetSpec::tiny();
        other.seed += 1;
        let b = SuiteDataset::cache_key(&profiles, &other);
        assert_ne!(a, b);
    }

    #[test]
    fn benchmark_index_finds_names() {
        let ds = tiny_dataset();
        assert_eq!(ds.benchmark_index("gzip"), Some(0));
        assert_eq!(ds.benchmark_index("nonexistent"), None);
    }

    #[test]
    fn require_benchmark_reports_the_misspelled_name() {
        let ds = tiny_dataset();
        assert_eq!(ds.require_benchmark("gzip"), 0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ds.require_benchmark("gzpi")
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("gzpi"), "message should name the typo: {msg}");
        assert!(
            msg.contains("gzip"),
            "message should list alternatives: {msg}"
        );
    }

    /// Writes a corrupted dataset cache file for `profiles`+`spec` at the
    /// path `load_or_generate` will look up, by applying `mutate` to the
    /// valid serialised JSON text.
    fn corrupt_cache(
        dir: &Path,
        profiles: &[Profile],
        spec: &DatasetSpec,
        mutate: impl Fn(String) -> String,
    ) {
        let ds = SuiteDataset::generate(profiles, spec);
        let text = mutate(dse_util::json::to_string(&ds));
        let key = SuiteDataset::cache_key(profiles, spec);
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(format!("dse-dataset-{key}.json")), text).unwrap();
    }

    fn load_corrupt_err(label: &str, mutate: impl Fn(String) -> String) -> io::Error {
        let dir = std::env::temp_dir().join(format!("dse-dataset-corrupt-{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        let profiles: Vec<Profile> = suites::mibench().into_iter().take(1).collect();
        let mut spec = DatasetSpec::tiny();
        spec.n_configs = 4;
        corrupt_cache(&dir, &profiles, &spec, mutate);
        let err = SuiteDataset::load_or_generate(&profiles, &spec, &dir)
            .expect_err("corrupt cache must be rejected");
        let _ = std::fs::remove_dir_all(&dir);
        err
    }

    #[test]
    fn cache_with_wrong_row_count_fails_loudly() {
        // Drop one metrics row from the benchmark: the row count no longer
        // matches the shared configuration sample.
        let err = load_corrupt_err("rows", |text| {
            let start = text.find("\"metrics\":[").expect("metrics array") + "\"metrics\":[".len();
            // Remove the first row object `{...},`.
            let end = text[start..].find("},").expect("first row") + start + 2;
            format!("{}{}", &text[..start], &text[end..])
        });
        let msg = err.to_string();
        assert!(msg.contains("metric rows"), "unhelpful message: {msg}");
    }

    #[test]
    fn cache_with_non_finite_metric_fails_loudly() {
        // Overflow a stored number to infinity: 1e999 parses as +inf in
        // most readers; ours rejects it at the JSON layer.
        let err = load_corrupt_err("nonfinite", |text| {
            let pos = text.find("\"cycles\":").expect("a cycles field") + "\"cycles\":".len();
            let end = text[pos..].find([',', '}']).expect("number terminator") + pos;
            format!("{}1e999{}", &text[..pos], &text[end..])
        });
        let msg = err.to_string();
        assert!(
            msg.contains("overflows") || msg.contains("finite"),
            "unhelpful message: {msg}"
        );
    }

    #[test]
    fn cache_with_illegal_config_value_fails_loudly() {
        // Width 5 is not on the paper's parameter grid.
        let err = load_corrupt_err("illegal", |text| {
            let pos = text.find("\"width\":").expect("a width field") + "\"width\":".len();
            let end = text[pos..].find([',', '}']).expect("number terminator") + pos;
            format!("{}5{}", &text[..pos], &text[end..])
        });
        let msg = err.to_string();
        assert!(
            msg.contains("not a legal value") && msg.to_lowercase().contains("width"),
            "unhelpful message: {msg}"
        );
    }

    #[test]
    fn features_match_config_count() {
        let ds = tiny_dataset();
        let f = ds.features();
        assert_eq!(f.len(), ds.n_configs());
        assert!(f.iter().all(|row| row.len() == 13));
    }
}
