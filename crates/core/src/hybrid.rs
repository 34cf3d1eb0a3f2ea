//! Hybrid prediction strategy (§7.2 / §7.3 of the paper).
//!
//! The paper observes that the architecture-centric model's *training*
//! error (its error on the responses themselves) predicts its *testing*
//! error: programs unlike anything in the training set — `art`, `mcf`,
//! `tiff2rgba`, `patricia` — show a high training error. It suggests the
//! designer can use this signal to fall back to a program-specific model
//! for such programs. This module implements that policy.

use crate::arch_centric::{ArchCentricPredictor, OfflineModel};
use crate::dataset::SuiteDataset;
use crate::program_specific::ProgramSpecificPredictor;
use dse_ml::MlpConfig;

/// Which underlying model a [`HybridPredictor`] selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridChoice {
    /// The cross-program model was trusted (training error below the
    /// threshold).
    ArchCentric,
    /// The program looked unlike the training set; a program-specific
    /// model was trained on the same responses instead.
    ProgramSpecific,
}

/// A predictor that picks between the architecture-centric model and a
/// response-trained program-specific model based on the training error.
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    choice: HybridChoice,
    training_error: f64,
    arch: Option<ArchCentricPredictor>,
    program: Option<ProgramSpecificPredictor>,
}

impl HybridPredictor {
    /// Fits the hybrid: the architecture-centric model is fitted on the
    /// responses; if its training error exceeds
    /// `threshold_percent`, a program-specific ANN is trained on the same
    /// `R` simulations and used instead (no additional simulations are
    /// spent either way).
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched responses (see
    /// [`OfflineModel::fit_responses`]).
    pub fn fit(
        offline: &OfflineModel,
        ds: &SuiteDataset,
        response_idxs: &[usize],
        response_values: &[f64],
        threshold_percent: f64,
        mlp_cfg: &MlpConfig,
    ) -> Self {
        let arch = offline.fit_responses(ds, response_idxs, response_values);
        let features = ds.features();
        let preds: Vec<f64> = response_idxs
            .iter()
            .map(|&i| arch.predict(&features[i]))
            .collect();
        let training_error = dse_ml::stats::rmae(&preds, response_values);
        if training_error <= threshold_percent {
            Self {
                choice: HybridChoice::ArchCentric,
                training_error,
                arch: Some(arch),
                program: None,
            }
        } else {
            let tf: Vec<Vec<f64>> = response_idxs.iter().map(|&i| features[i].clone()).collect();
            let program = ProgramSpecificPredictor::train(
                "hybrid-fallback",
                offline.metric(),
                &tf,
                response_values,
                mlp_cfg,
            );
            Self {
                choice: HybridChoice::ProgramSpecific,
                training_error,
                arch: None,
                program: Some(program),
            }
        }
    }

    /// Which model was selected.
    pub fn choice(&self) -> HybridChoice {
        self.choice
    }

    /// The architecture-centric training error that drove the decision.
    pub fn training_error(&self) -> f64 {
        self.training_error
    }

    /// Predicts the target metric for a configuration feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        match self.choice {
            HybridChoice::ArchCentric => self
                .arch
                .as_ref()
                .expect("arch model present for ArchCentric choice")
                .predict(features),
            HybridChoice::ProgramSpecific => self
                .program
                .as_ref()
                .expect("program model present for ProgramSpecific choice")
                .predict(features),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, SuiteDataset};
    use dse_sim::Metric;

    fn dataset() -> SuiteDataset {
        let profiles: Vec<_> = dse_workload::suites::spec2000()
            .into_iter()
            .filter(|p| ["gzip", "parser", "crafty", "gap", "art"].contains(&p.name))
            .collect();
        SuiteDataset::generate(
            &profiles,
            &DatasetSpec {
                n_configs: 60,
                ..DatasetSpec::tiny()
            },
        )
    }

    #[test]
    fn low_threshold_forces_program_specific() {
        let ds = dataset();
        let offline = OfflineModel::train(
            &ds,
            &[0, 1, 2],
            Metric::Cycles,
            40,
            &MlpConfig::default(),
            1,
        );
        let idxs: Vec<usize> = (0..16).collect();
        let vals: Vec<f64> = idxs
            .iter()
            .map(|&i| ds.benchmarks[3].metrics[i].cycles)
            .collect();
        let h = HybridPredictor::fit(&offline, &ds, &idxs, &vals, 0.0, &MlpConfig::default());
        assert_eq!(h.choice(), HybridChoice::ProgramSpecific);
        assert!(h.predict(&ds.features()[20]).is_finite());
    }

    #[test]
    fn high_threshold_keeps_arch_centric() {
        let ds = dataset();
        let offline = OfflineModel::train(
            &ds,
            &[0, 1, 2],
            Metric::Cycles,
            40,
            &MlpConfig::default(),
            1,
        );
        let idxs: Vec<usize> = (0..16).collect();
        let vals: Vec<f64> = idxs
            .iter()
            .map(|&i| ds.benchmarks[3].metrics[i].cycles)
            .collect();
        let h = HybridPredictor::fit(&offline, &ds, &idxs, &vals, 1e9, &MlpConfig::default());
        assert_eq!(h.choice(), HybridChoice::ArchCentric);
        assert!(h.training_error() >= 0.0);
    }

    #[test]
    fn outlier_program_has_higher_training_error_than_typical() {
        // art (trained on none of gzip/parser/crafty/gap's behaviours)
        // should be harder to express as their combination than gap is.
        let ds = dataset();
        let art = ds.require_benchmark("art");
        let gap = ds.require_benchmark("gap");
        let train_for = |target: usize| {
            let rows: Vec<usize> = (0..ds.benchmarks.len()).filter(|&i| i != target).collect();
            let offline =
                OfflineModel::train(&ds, &rows, Metric::Cycles, 40, &MlpConfig::default(), 2);
            let idxs: Vec<usize> = (0..16).collect();
            let vals: Vec<f64> = idxs
                .iter()
                .map(|&i| ds.benchmarks[target].metrics[i].cycles)
                .collect();
            offline.training_error(&ds, &idxs, &vals)
        };
        let e_art = train_for(art);
        let e_gap = train_for(gap);
        assert!(
            e_art > e_gap,
            "art training error ({e_art:.1}) should exceed gap's ({e_gap:.1})"
        );
    }
}
