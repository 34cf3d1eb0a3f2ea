//! Every workload at the smoke sizes, untraced and traced: each run must
//! pass its checks and report exactly the metrics `BENCHMARK.json` lists,
//! with their units, in a result that survives a JSON round trip.

use archdse_benchmark::result::{Record, RunResult};
use archdse_benchmark::{run, Sizes, Workload};
use dse_util::json::{self, FromJson, Json};
use std::time::Instant;

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.field(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| (m.get("name").unwrap(), m.get("unit").unwrap()))
        .collect()
}

#[test]
fn every_workload_reports_every_listed_metric() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<String> = doc
        .field("workloads")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap())
        .collect();
    let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        names, all,
        "BENCHMARK.json lists the workloads the binary runs"
    );

    let start = Instant::now();
    for w in Workload::ALL {
        for traced in [false, true] {
            let record = run(w, 1, 0.0, traced, &Sizes::smoke());
            let label = format!("{} traced={traced}", w.name());
            assert!(record.result.correct, "{label}: {:?}", record.notes);
            assert_eq!(record.result.failed, 0, "{label}: {:?}", record.notes);
            let want = listed(&doc, if traced { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = record
                .result
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect();
            assert_eq!(got, want, "{label}: metrics and units as listed, in order");
            assert!(
                record.result.metrics.iter().all(|m| m.value.is_finite()),
                "{label}"
            );

            let line = json::to_string(&record.result);
            assert!(!line.contains('\n'));
            let back = RunResult::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(
                back, record.result,
                "{label}: the printed result round-trips"
            );
            let full = json::to_string(&record);
            let back = Record::from_json(&Json::parse(&full).unwrap()).unwrap();
            assert_eq!(back, record, "{label}: the record round-trips");
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(elapsed < 10.0, "smoke sizes took {elapsed:.1} s");
}
