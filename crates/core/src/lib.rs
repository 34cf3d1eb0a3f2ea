//! The paper's contribution: an architecture-centric predictor for
//! microarchitectural design-space exploration, plus the evaluation
//! harness that reproduces the paper's experiments.
//!
//! * [`dataset`] — the experimental protocol of §3.3: one shared set of
//!   3,000 uniformly sampled legal configurations, simulated for every
//!   benchmark (generated in parallel and cached on disk);
//! * [`program_specific`] — the state-of-the-art baseline the paper
//!   compares against (Ïpek et al.): one ANN per program trained on that
//!   program's own simulations;
//! * [`arch_centric`] — the paper's model (§5): N offline program-specific
//!   ANNs combined by a linear regressor fitted on R "responses" of the
//!   new program;
//! * [`xval`] — leave-one-out, cross-suite and sweep evaluations
//!   (Figs 9–14);
//! * [`analysis`] — design-space characterisation (Figs 2–5).
//!
//! # Examples
//!
//! ```no_run
//! use dse_core::dataset::{DatasetSpec, SuiteDataset};
//! use dse_core::arch_centric::OfflineModel;
//! use dse_ml::MlpConfig;
//! use dse_sim::Metric;
//!
//! // Simulate the suite (cached after the first run), train offline on all
//! // programs but the last, and predict the last from 32 responses.
//! let profiles = dse_workload::suites::spec2000();
//! let ds = SuiteDataset::generate(&profiles, &DatasetSpec::default());
//! let train: Vec<usize> = (0..ds.benchmarks.len() - 1).collect();
//! let offline = OfflineModel::train(&ds, &train, Metric::Cycles, 512, &MlpConfig::default(), 1);
//! let responses: Vec<usize> = (0..32).collect();
//! let target = ds.benchmarks.last().unwrap();
//! let values: Vec<f64> = responses.iter().map(|&i| target.metrics[i].cycles).collect();
//! let predictor = offline.fit_responses(&ds, &responses, &values);
//! let prediction = predictor.predict(&ds.features()[100]);
//! assert!(prediction > 0.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod arch_centric;
pub mod dataset;
pub mod program_specific;
pub mod xval;

pub use arch_centric::{fit_combiner, ArchCentricPredictor, OfflineModel};
pub use dataset::{BenchmarkData, DatasetSpec, SuiteDataset};
pub use program_specific::ProgramSpecificPredictor;
