//! `sweep`: dataset generation over a grid of programs × sampled configs.
//!
//! Simulation pays for every figure, dataset and explore round; here the
//! simulator does nearly all the work and the ML and serving layers none.
//! Half the programs fit in the modelled caches and half have a data
//! footprint far beyond the L2, because the two classes step and idle-skip
//! cycles differently: an issue-stage change and a memory-path or
//! idle-skip change move this workload differently.
//!
//! Every round sweeps fresh trace seeds and a fresh configuration sample,
//! both drawn from the run seed and the round number. The cost of one
//! round varies by several percent with its inputs; a run averages over
//! all of its rounds' inputs, so its throughput depends little on the
//! seed.

use crate::probes::{self, ProbeCtx};
use crate::{
    finish_setups, mix, programs, spans, time_ops, time_setup, work_of, Checks, Measured, Sizes,
};
use dse_core::dataset::{DatasetSpec, SuiteDataset};
use dse_rng::Xoshiro256;
use dse_sim::{simulate, SimOptions};
use dse_space::Config;
use dse_workload::{Profile, Trace};

/// Sizes of the `sweep` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SweepSizes {
    /// Programs simulated.
    pub(crate) programs: &'static [&'static str],
    /// Sampled configurations per program and round.
    pub(crate) configs: usize,
    /// Cells of the warm-up round re-simulated one at a time.
    pub(crate) cells_checked: usize,
    /// Cells of every timed round re-simulated one at a time.
    pub(crate) cells_checked_per_round: usize,
}

impl SweepSizes {
    pub(crate) const FULL: Self = Self {
        programs: &[
            "gzip", "crafty", "sha", "bitcount", "mcf", "art", "swim", "equake",
        ],
        configs: 32,
        cells_checked: 16,
        cells_checked_per_round: 2,
    };
    pub(crate) const SMOKE: Self = Self {
        programs: &["sha", "mcf"],
        configs: 2,
        cells_checked: 2,
        cells_checked_per_round: 1,
    };
}

/// The programs and dataset spec of round `round` (0 is the warm-up).
fn round_inputs(seed: u64, round: u64, sizes: &Sizes) -> (Vec<Profile>, DatasetSpec) {
    let round_seed = mix(seed, round);
    let spec = sizes.spec(sizes.sweep.configs, mix(round_seed, 1));
    (programs(sizes.sweep.programs, round_seed), spec)
}

fn generate(profiles: &[Profile], spec: &DatasetSpec) -> Result<SuiteDataset, String> {
    let _span = spans::span("core.dataset.generate");
    SuiteDataset::try_generate(profiles, spec).map_err(|e| e.to_string())
}

/// Re-simulates `cells` random grid cells one at a time with the scalar
/// simulator; each must equal the dataset's cell bit for bit. `traces[b]`
/// is the trace of `ds.benchmarks[b]`.
fn check_cells(
    traces: &[Trace],
    ds: &SuiteDataset,
    options: SimOptions,
    cells: usize,
    rng: &mut Xoshiro256,
    checks: &mut Checks,
) {
    let columns = ds.n_configs() + 1;
    for _ in 0..cells {
        let (b, c) = (rng.next_index(ds.benchmarks.len()), rng.next_index(columns));
        let bench = &ds.benchmarks[b];
        let (cfg, want) = match ds.configs.get(c) {
            Some(cfg) => (*cfg, bench.metrics[c]),
            None => (Config::baseline(), bench.baseline),
        };
        let got = simulate(&cfg, &traces[b], options);
        checks.check(got == want, || {
            format!(
                "sweep cell {}/{cfg}: grid {want:?}, scalar {got:?}",
                bench.name
            )
        });
    }
}

pub(crate) fn run(seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Measured {
    let s = &sizes.sweep;
    // Set-up: the warm-up round's inputs and their traces.
    let setup = || {
        let (profiles, spec) = round_inputs(seed, 0, sizes);
        let traces: Vec<Trace> = profiles.iter().map(|p| sizes.trace(p)).collect();
        (profiles, spec, traces)
    };
    let ((profiles, spec, traces), first_setup_s) = time_setup(setup);
    let mut m = Measured::default();
    let (first, work) = work_of(|| generate(&profiles, &spec));
    m.work = work;
    let first = match first {
        Ok(ds) => ds,
        Err(e) => {
            m.checks.check(false, || e);
            return m;
        }
    };
    let instructions = (profiles.len() * (s.configs + 1) * sizes.trace_len) as f64;
    let mut rounds = Vec::new();
    let mut errors = 0;
    time_ops(&mut m, sizes, seconds, traced, &mut || {
        let round = rounds.len() as u64 + errors + 1;
        let (profiles, spec) = round_inputs(seed, round, sizes);
        match generate(&profiles, &spec) {
            Ok(ds) => {
                rounds.push((profiles, ds));
                instructions
            }
            Err(_) => {
                errors += 1;
                0.0
            }
        }
    });
    m.ops_failed += errors;
    let mut rng = Xoshiro256::seed_from(mix(seed, 2));
    let options = sizes.options();
    check_cells(
        &traces,
        &first,
        options,
        s.cells_checked,
        &mut rng,
        &mut m.checks,
    );
    for (profiles, ds) in &rounds {
        let traces: Vec<Trace> = profiles.iter().map(|p| sizes.trace(p)).collect();
        let n = s.cells_checked_per_round;
        check_cells(&traces, ds, options, n, &mut rng, &mut m.checks);
    }
    if traced {
        let ctx = ProbeCtx {
            profiles: &profiles,
            dataset: &first,
            seed,
        };
        m.layers = probes::run(&ctx, sizes, &mut m.checks);
    } else {
        finish_setups(&mut m, sizes, first_setup_s, setup);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_wrong_cell_fails_the_check() {
        let sizes = Sizes::smoke();
        let (profiles, spec) = round_inputs(1, 0, &sizes);
        let traces: Vec<Trace> = profiles.iter().map(|p| sizes.trace(p)).collect();
        let mut ds = SuiteDataset::try_generate(&profiles, &spec).unwrap();
        let every_cell = 64;
        let mut checks = Checks::default();
        let mut rng = Xoshiro256::seed_from(5);
        check_cells(
            &traces,
            &ds,
            sizes.options(),
            every_cell,
            &mut rng,
            &mut checks,
        );
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);

        ds.benchmarks[1].metrics[0].cycles *= 1.0 + 1e-12;
        let mut checks = Checks::default();
        let mut rng = Xoshiro256::seed_from(5);
        check_cells(
            &traces,
            &ds,
            sizes.options(),
            every_cell,
            &mut rng,
            &mut checks,
        );
        assert!(checks.failed > 0, "the planted cell went unnoticed");
    }
}
