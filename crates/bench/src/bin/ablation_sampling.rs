//! Ablation: random vs stratified (metric-quantile) response selection.
//! The paper selects the R responses uniformly at random; stratifying
//! them over one metric's quantiles is the obvious alternative.

use dse_core::arch_centric::OfflineModel;
use dse_core::xval::Summary;
use dse_ml::stats::{correlation, rmae};
use dse_ml::MlpConfig;
use dse_rng::Xoshiro256;
use dse_sim::Metric;
use dse_workload::Suite;

fn stratified(values: &[f64], r: usize, rng: &mut Xoshiro256) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).unwrap());
    let stride = order.len() / r;
    (0..r)
        .map(|k| order[k * stride + rng.next_index(stride.max(1))])
        .collect()
}

fn main() {
    let ds = dse_bench::full_dataset();
    let metric = Metric::Cycles;
    let t = 512.min(ds.n_configs() / 2);
    let repeats = dse_bench::repeats().min(5);
    let features = ds.features();
    let rows: Vec<usize> = (0..ds.benchmarks.len())
        .filter(|&i| ds.benchmarks[i].suite == Suite::SpecCpu2000)
        .collect();
    // Both arms share each repeat's pool: one model per benchmark.
    let all: Vec<usize> = (0..ds.benchmarks.len()).collect();
    let seeds: Vec<u64> = (0..repeats).map(|k| 0x5A + k as u64).collect();
    let pools = OfflineModel::train_pools(&ds, &all, metric, t, &MlpConfig::default(), &seeds);

    let mut table = Vec::new();
    for strat in [false, true] {
        let mut errs = Vec::new();
        let mut corrs = Vec::new();
        for (k, pool) in pools.iter().enumerate() {
            for &target in &rows {
                let train_rows: Vec<usize> =
                    rows.iter().copied().filter(|&r| r != target).collect();
                let models = train_rows.iter().map(|&r| pool[r].clone()).collect();
                let offline = OfflineModel::from_parts(metric, train_rows, models);
                let mut rng = Xoshiro256::seed_from(0x5A00 + (k as u64) * 131 + target as u64);
                let actual = ds.benchmarks[target].values(metric);
                let idxs = if strat {
                    // NOTE: stratifying on the *actual* values is an oracle
                    // (it needs the very data we are trying to avoid
                    // simulating); this bounds the best case.
                    stratified(&actual, 32, &mut rng)
                } else {
                    rng.sample_indices(ds.n_configs(), 32)
                };
                let vals: Vec<f64> = idxs.iter().map(|&i| actual[i]).collect();
                let pred = offline.fit_responses(&ds, &idxs, &vals);
                let preds: Vec<f64> = features.iter().map(|f| pred.predict(f)).collect();
                errs.push(rmae(&preds, &actual));
                corrs.push(correlation(&preds, &actual));
            }
        }
        let e = Summary::of(&errs);
        let c = Summary::of(&corrs);
        table.push(vec![
            if strat {
                "stratified (oracle)"
            } else {
                "random (paper)"
            }
            .to_string(),
            format!("{:.1}", e.mean),
            format!("{:.1}", e.std),
            format!("{:.3}", c.mean),
        ]);
    }
    dse_bench::print_table(
        "Ablation: response sampling strategy (cycles, R=32)",
        &["strategy", "rmae%", "±", "corr"],
        &table,
    );
}
