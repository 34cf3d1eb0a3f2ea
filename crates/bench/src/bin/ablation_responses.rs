//! Ablation: fit the response regression on the training programs'
//! *actual* simulated values (the paper's method) versus on the offline
//! ANNs' *predictions* — quantifying the cost of the ANN approximation
//! in the design matrix.

use dse_core::arch_centric::{OfflineModel, ResponseSource};
use dse_core::xval::Summary;
use dse_ml::stats::{correlation, rmae};
use dse_ml::MlpConfig;
use dse_rng::Xoshiro256;
use dse_sim::Metric;
use dse_workload::Suite;

fn main() {
    let ds = dse_bench::full_dataset();
    let metric = Metric::Cycles;
    let t = 512.min(ds.n_configs() / 2);
    let repeats = dse_bench::repeats().min(10);
    let features = ds.features();
    let rows: Vec<usize> = (0..ds.benchmarks.len())
        .filter(|&i| ds.benchmarks[i].suite == Suite::SpecCpu2000)
        .collect();
    // Both arms share each repeat's pool: one model per benchmark.
    let all: Vec<usize> = (0..ds.benchmarks.len()).collect();
    let seeds: Vec<u64> = (0..repeats).map(|k| 0xAB + k as u64).collect();
    let pools = OfflineModel::train_pools(&ds, &all, metric, t, &MlpConfig::default(), &seeds);

    let mut out = Vec::new();
    for source in [ResponseSource::Actual, ResponseSource::Predicted] {
        let mut errs = Vec::new();
        let mut corrs = Vec::new();
        for (k, pool) in pools.iter().enumerate() {
            for &target in &rows {
                let train_rows: Vec<usize> =
                    rows.iter().copied().filter(|&r| r != target).collect();
                let models = train_rows.iter().map(|&r| pool[r].clone()).collect();
                let offline = OfflineModel::from_parts(metric, train_rows, models);
                let mut rng = Xoshiro256::seed_from(0xAB00 + (k as u64) * 131 + target as u64);
                let idxs = rng.sample_indices(ds.n_configs(), 32);
                let vals: Vec<f64> = idxs
                    .iter()
                    .map(|&i| ds.benchmarks[target].metrics[i].get(metric))
                    .collect();
                let pred = offline.fit_responses_with(&ds, &idxs, &vals, source);
                let preds: Vec<f64> = features.iter().map(|f| pred.predict(f)).collect();
                let actual = ds.benchmarks[target].values(metric);
                errs.push(rmae(&preds, &actual));
                corrs.push(correlation(&preds, &actual));
            }
        }
        let e = Summary::of(&errs);
        let c = Summary::of(&corrs);
        out.push(vec![
            format!("{source:?}"),
            format!("{:.1}", e.mean),
            format!("{:.1}", e.std),
            format!("{:.3}", c.mean),
        ]);
    }
    dse_bench::print_table(
        "Ablation: response design-matrix source (cycles, R=32)",
        &["source", "rmae%", "±", "corr"],
        &out,
    );
}
