//! The layout of the `report --metrics` document: one run per
//! (organization × consumer-count) cell, each carrying its registry's
//! sections and nothing else.

use memsync_bench::{latency_metrics_json, latency_sweep, scenario_grid};
use memsync_trace::{Json, JsonlSink};

#[test]
fn every_run_holds_exactly_the_registry_sections() {
    let doc = latency_metrics_json(&latency_sweep(None::<&mut JsonlSink<Vec<u8>>>));
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .expect("a runs array");
    let cells: Vec<(String, u64)> = runs
        .iter()
        .map(|run| {
            let org = run.get("org").and_then(Json::as_str).expect("org");
            let consumers = run.get("consumers").and_then(Json::as_u64);
            (org.to_owned(), consumers.expect("consumers"))
        })
        .collect();
    let grid: Vec<(String, u64)> = scenario_grid()
        .into_iter()
        .map(|(kind, consumers)| (kind.to_string(), consumers as u64))
        .collect();
    assert_eq!(cells, grid, "one run per scenario_grid cell, in order");
    for (run, (org, consumers)) in runs.iter().zip(&cells) {
        let Some(Json::Obj(sections)) = run.get("metrics") else {
            panic!("{org} x{consumers}: metrics is not an object");
        };
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "counters",
                "highwater",
                "histograms",
                "utilization",
                "latency"
            ],
            "{org} x{consumers}: the registry's sections, and no buckets"
        );
        let pooled = run
            .get("metrics")
            .and_then(|m| m.get("latency"))
            .and_then(|l| l.get("pooled"))
            .and_then(|p| p.get("count"))
            .and_then(Json::as_u64);
        assert!(
            pooled.is_some_and(|n| n > 0),
            "{org} x{consumers}: pooled latency count {pooled:?}"
        );
    }
}
