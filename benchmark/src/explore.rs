//! `explore`: the bring-your-own-program path, the architect's
//! time-to-frontier.
//!
//! A synthetic program goes through the interchange format (export, then
//! import); each operation simulates its R responses, fits the online
//! combiner per metric, and runs the frontier search over (cycles,
//! energy) with the trained registry models as the cheap oracle and the
//! simulator as ground truth. The simulator runs in batches of distinct
//! configurations on one trace, beside ANN scoring and the archive's
//! hypervolume work, so a gain that pays off only on large grids shows
//! less here than on `sweep`.
//!
//! The program comes in a few instances (trace seeds) that rounds rotate
//! through, and the registry is trained on a fixed dataset; every round
//! draws its responses and its search seed from the run seed. The search
//! adapts to what it simulates, so a round's cost varies with its seed and
//! a run averages over its rounds.

use crate::probes::{self, ProbeCtx, TimedOracle, TimedPredictor};
use crate::result::Metric;
use crate::{
    finish_setups, mix, programs, reseeded, spans, time_ops, time_setup, work_of, Checks, Measured,
    ScratchDir, Sizes,
};
use dse_core::dataset::SuiteDataset;
use dse_explore::{
    dominates, Constraints, ExploreBudget, Explorer, Frontier, GroundTruth, MetricPredictor,
    Objective, SimOracle,
};
use dse_ingest::{export_profile, import_profile, synth_profile};
use dse_ml::MlpConfig;
use dse_rng::Xoshiro256;
use dse_serve::{save_artifacts, ModelRegistry, RegistryPredictor};
use dse_sim::{simulate, Metric as Target, SimOptions};
use dse_workload::{Profile, Trace};

/// Sizes of the `explore` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExploreSizes {
    /// Seed of the synthetic program.
    pub(crate) synth_seed: u64,
    /// Instances of the program that rounds rotate through.
    pub(crate) instances: usize,
    /// Training programs of the registry artifacts.
    pub(crate) train_programs: &'static [&'static str],
    /// Sampled configurations of the artifacts.
    pub(crate) configs: usize,
    /// Simulations per training program for the offline ANNs (T).
    pub(crate) t: usize,
    /// Response simulations of the explored program (R).
    pub(crate) r: usize,
    /// Acquisition rounds.
    pub(crate) rounds: usize,
    /// Candidates scored per round.
    pub(crate) candidates: usize,
    /// Simulations per round.
    pub(crate) sims_per_round: usize,
    /// Archive capacity.
    pub(crate) archive_cap: usize,
    /// Frontier points of every timed round re-simulated by the check
    /// (the warm-up round's are all re-simulated).
    pub(crate) points_checked_per_round: usize,
}

impl ExploreSizes {
    pub(crate) const FULL: Self = Self {
        synth_seed: 1,
        instances: 8,
        train_programs: &[
            "gzip", "gcc", "mcf", "crafty", "parser", "swim", "art", "equake",
        ],
        configs: 64,
        t: 64,
        r: 32,
        rounds: 16,
        candidates: 512,
        sims_per_round: 16,
        archive_cap: 64,
        points_checked_per_round: 4,
    };
    pub(crate) const SMOKE: Self = Self {
        synth_seed: 1,
        instances: 2,
        train_programs: &["gzip", "mcf"],
        configs: 6,
        t: 6,
        r: 4,
        rounds: 2,
        candidates: 16,
        sims_per_round: 2,
        archive_cap: 8,
        points_checked_per_round: 1,
    };
}

const OBJECTIVE: &str = "cycles,energy";
const TARGETS: [Target; 2] = [Target::Cycles, Target::Energy];

/// One imported instance of the explored program.
struct Instance {
    program: Profile,
    oracle: SimOracle,
}

struct Ctx {
    instances: Vec<Instance>,
    roundtrip_ok: bool,
    train: Vec<Profile>,
    ds: SuiteDataset,
    registry: ModelRegistry,
    _dir: ScratchDir,
}

fn setup(sizes: &Sizes) -> Result<Ctx, String> {
    let s = &sizes.explore;
    let mut instances = Vec::new();
    let mut roundtrip_ok = true;
    for i in 0..s.instances {
        let synth = reseeded(synth_profile(s.synth_seed, 0), i as u64);
        let text = export_profile(&synth);
        let program = import_profile(&text).map_err(|e| e.to_string())?;
        roundtrip_ok &= export_profile(&program) == text;
        let oracle = SimOracle::new(sizes.trace(&program), sizes.options());
        instances.push(Instance { program, oracle });
    }
    let train = programs(s.train_programs, 0);
    let spec = sizes.spec(s.configs, mix(0, 5));
    let ds = SuiteDataset::try_generate(&train, &spec).map_err(|e| e.to_string())?;
    let dir = ScratchDir::new("explore");
    save_artifacts(&dir.0, &ds, &TARGETS, s.t, &MlpConfig::default(), mix(0, 6))
        .map_err(|e| e.to_string())?;
    let registry = ModelRegistry::open(&dir.0).map_err(|e| e.to_string())?;
    Ok(Ctx {
        instances,
        roundtrip_ok,
        train,
        ds,
        registry,
        _dir: dir,
    })
}

/// One operation: simulate the responses, fit, explore. Round `round`
/// (0 is the warm-up) picks the instance, the responses and the search
/// seed.
fn explore(ctx: &Ctx, s: &ExploreSizes, seed: u64, round: u64) -> Result<Frontier, String> {
    let inst = &ctx.instances[round as usize % ctx.instances.len()];
    let round_seed = mix(seed, 100 + round);
    let name = inst.program.name;
    let responses = Xoshiro256::seed_from(round_seed).sample_indices(s.configs, s.r);
    let cfgs: Vec<_> = responses.iter().map(|&i| ctx.ds.configs[i]).collect();
    let sims = {
        let _span = spans::span("sim.responses");
        inst.oracle.simulate(&cfgs).map_err(|e| e.to_string())?
    };
    {
        let _span = spans::span("serve.registry.fit");
        for target in TARGETS {
            let values: Vec<(usize, f64)> = responses
                .iter()
                .zip(&sims)
                .map(|(&i, m)| (i, m.get(target)))
                .collect();
            ctx.registry
                .fit(name, target, &values)
                .map_err(|e| e.to_string())?;
        }
    }
    let predictor =
        RegistryPredictor::resolve(&ctx.registry, name, &TARGETS).map_err(|e| e.to_string())?;
    let run = spans::span("explore.run");
    let predictor = TimedPredictor::new(&predictor, run.id());
    let oracle = TimedOracle::new(&inst.oracle, run.id());
    Explorer {
        predictor: &predictor,
        oracle: &oracle,
        program: name.to_string(),
        objective: Objective::parse(OBJECTIVE).map_err(|e| e.0)?,
        constraints: Constraints::none(),
        budget: ExploreBudget {
            rounds: s.rounds,
            candidates_per_round: s.candidates,
            sims_per_round: s.sims_per_round,
            archive_cap: s.archive_cap,
            seed: mix(round_seed, 1),
        },
        pool: None,
    }
    .run()
    .map_err(|e| e.to_string())
}

/// Checks one frontier: the points at `picks`, re-simulated alone, must
/// match their archived objectives bit for bit, and no point may
/// dominate another.
fn check_frontier(
    f: &Frontier,
    trace: &Trace,
    options: SimOptions,
    picks: &[usize],
    checks: &mut Checks,
) {
    for &i in picks {
        let p = &f.points[i];
        let got = f.objective.eval(&simulate(&p.config, trace, options));
        checks.check(got == p.objectives, || {
            format!(
                "explore point {}: archived {:?}, re-simulated {got:?}",
                p.config, p.objectives
            )
        });
    }
    let dominated = f.points.iter().any(|a| {
        f.points
            .iter()
            .any(|b| dominates(&a.objectives, &b.objectives))
    });
    checks.check(!dominated && !f.points.is_empty(), || {
        "explore: the archive is empty or holds a dominated point".to_string()
    });
}

pub(crate) fn run(seed: u64, seconds: f64, traced: bool, sizes: &Sizes) -> Measured {
    let s = &sizes.explore;
    let (ctx, first_setup_s) = time_setup(|| setup(sizes));
    let mut m = Measured::default();
    let ctx = match ctx {
        Ok(ctx) => ctx,
        Err(e) => {
            m.checks.check(false, || format!("explore set-up: {e}"));
            return m;
        }
    };
    m.checks.check(ctx.roundtrip_ok, || {
        "explore: profile export→import→export is not byte-identical".to_string()
    });
    let (first, work) = work_of(|| explore(&ctx, s, seed, 0));
    m.work = work;
    let first = match first {
        Ok(f) => f,
        Err(e) => {
            m.checks.check(false, || format!("explore: {e}"));
            return m;
        }
    };
    let items = (s.r as u64 + first.sim_calls) as f64;
    let mut frontiers = Vec::new();
    let mut errors = 0;
    time_ops(&mut m, sizes, seconds, traced, &mut || {
        let round = frontiers.len() as u64 + errors + 1;
        match explore(&ctx, s, seed, round) {
            Ok(f) => {
                frontiers.push((round, f));
                items
            }
            Err(_) => {
                errors += 1;
                0.0
            }
        }
    });
    m.ops_failed += errors;

    let trace = |round: u64| {
        ctx.instances[round as usize % ctx.instances.len()]
            .oracle
            .trace()
    };
    let all: Vec<usize> = (0..first.points.len()).collect();
    check_frontier(&first, trace(0), sizes.options(), &all, &mut m.checks);
    let mut rng = Xoshiro256::seed_from(mix(seed, 9));
    for (round, f) in &frontiers {
        let picks: Vec<usize> = (0..s.points_checked_per_round.min(f.points.len()))
            .map(|_| rng.next_index(f.points.len()))
            .collect();
        check_frontier(f, trace(*round), sizes.options(), &picks, &mut m.checks);
    }

    // Re-running the warm-up round must reproduce it, and leaves its fit
    // in place for measuring the cheap oracle's error on its frontier.
    let again = explore(&ctx, s, seed, 0);
    m.checks.check(again.as_ref() == Ok(&first), || {
        "explore: re-running the warm-up round gave another frontier".to_string()
    });
    let name = ctx.instances[0].program.name;
    if let Ok(predictor) = RegistryPredictor::resolve(&ctx.registry, name, &TARGETS) {
        let mut errs = Vec::new();
        for p in &first.points {
            for (axis, target) in TARGETS.iter().enumerate() {
                let sim = p.objectives[axis];
                errs.push((predictor.predict(&p.config, *target) - sim).abs() / sim * 100.0);
            }
        }
        m.info.push(Metric::new(
            "explore_pred_err_pct",
            errs.iter().sum::<f64>() / errs.len().max(1) as f64,
            "%",
        ));
    }
    if let Some(last) = first.rounds.last() {
        m.info
            .push(Metric::new("explore_hv", last.hypervolume, "ratio"));
    }
    m.info.push(Metric::new(
        "explore_frontier_points",
        first.points.len() as f64,
        "count",
    ));
    if traced {
        let probe = ProbeCtx {
            profiles: &ctx.train,
            dataset: &ctx.ds,
            seed,
        };
        m.layers = probes::run(&probe, sizes, &mut m.checks);
    } else {
        drop(ctx);
        finish_setups(&mut m, sizes, first_setup_s, || setup(sizes));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_explore::{FrontierPoint, FRONTIER_VERSION};
    use dse_space::{sample_legal, Config};

    #[test]
    fn planted_wrong_and_dominated_points_fail_the_check() {
        let sizes = Sizes::smoke();
        let trace = sizes.trace(&synth_profile(1, 0));
        let objective = Objective::parse(OBJECTIVE).unwrap();
        let cfgs: Vec<Config> = sample_legal(&mut Xoshiro256::seed_from(3), 6);
        let points: Vec<FrontierPoint> = cfgs
            .iter()
            .map(|c| FrontierPoint {
                config: *c,
                objectives: objective.eval(&simulate(c, &trace, sizes.options())),
                round: 0,
            })
            .collect();
        let objs: Vec<Vec<f64>> = points.iter().map(|p| p.objectives.clone()).collect();
        let front: Vec<FrontierPoint> = dse_explore::pareto_indices(&objs)
            .into_iter()
            .map(|i| points[i].clone())
            .collect();
        let frontier = |points: Vec<FrontierPoint>| Frontier {
            version: FRONTIER_VERSION,
            program: "synth".to_string(),
            objective: objective.clone(),
            constraints: Constraints::none(),
            budget: ExploreBudget::tiny(),
            points,
            rounds: Vec::new(),
            predictor_calls: 0,
            sim_calls: 0,
            cancelled: false,
        };
        let check = |f: &Frontier| {
            let mut checks = Checks::default();
            let all: Vec<usize> = (0..f.points.len()).collect();
            check_frontier(f, &trace, sizes.options(), &all, &mut checks);
            checks.failed
        };
        assert_eq!(check(&frontier(front.clone())), 0);

        let mut wrong = front.clone();
        wrong[0].objectives[1] *= 1.0 + 1e-12;
        assert_eq!(check(&frontier(wrong)), 1, "a wrong objective value");

        let mut dominated = front.clone();
        let mut worse = front[0].clone();
        worse.objectives = worse.objectives.iter().map(|v| v * 2.0).collect();
        dominated.push(worse);
        assert!(check(&frontier(dominated)) >= 1, "a dominated point");
    }
}
