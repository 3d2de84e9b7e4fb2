//! Runs every workload at smoke scale, untraced and traced, in-process, and
//! holds the output to the contract: every declared metric — and no other —
//! is emitted for every workload, finite; end-to-end metrics are never zero;
//! every correctness gate holds; and the workloads stress the layers their
//! `why` says they do.

use blockstm_benchmark::metrics::{END_TO_END, PER_LAYER};
use blockstm_benchmark::report;
use blockstm_benchmark::run::{run, RunOptions, RunResult};
use blockstm_benchmark::workloads::{all, Scale};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|metric| metric.def.name == name)
        .unwrap_or_else(|| panic!("{}: metric {name} missing", result.workload))
        .spread
        .median
}

#[test]
fn every_declared_metric_is_emitted_for_every_workload() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    // The LogStore directories of p2p-logstore and node-durable go where the
    // system temp dir points; keep them inside the build directory. No other
    // test shares this process.
    std::env::set_var("TMPDIR", &scratch);
    let mut traced: BTreeMap<&'static str, RunResult> = BTreeMap::new();
    for workload in all(Scale::Smoke) {
        for trace in [false, true] {
            let options = RunOptions {
                seed: 7,
                seconds: 0.05,
                trace,
                scale: Scale::Smoke,
                out_dir: scratch.join("contract-out"),
            };
            let result = run(&workload, &options)
                .unwrap_or_else(|err| panic!("{} (trace {trace}): {err}", workload.name));
            assert!(result.correct, "{}: {:?}", workload.name, result.notes);
            assert!(result.attempted >= 1);
            assert_eq!(result.failed, 0, "{}: {:?}", workload.name, result.notes);

            let expected = if trace { PER_LAYER } else { END_TO_END };
            let emitted: Vec<&str> = result.metrics.iter().map(|m| m.def.name).collect();
            let declared: Vec<&str> = expected.iter().map(|def| def.name).collect();
            assert_eq!(emitted, declared, "{} (trace {trace})", workload.name);
            for metric in &result.metrics {
                let v = metric.spread.median;
                assert!(
                    v.is_finite(),
                    "{}: {} = {v}",
                    workload.name,
                    metric.def.name
                );
                if !trace {
                    assert!(
                        v > 0.0,
                        "{}: {} must never be 0",
                        workload.name,
                        metric.def.name
                    );
                }
            }
            // The driver's line parses and holds exactly the four keys.
            let line = serde_json::parse_value_complete(&report::contract_line(&result)).unwrap();
            let serde_json::Value::Object(entries) = &line else {
                panic!("the contract line is an object");
            };
            let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

            if trace {
                let file = options
                    .out_dir
                    .join(format!("trace-{}.json", workload.name));
                let text = std::fs::read_to_string(&file).expect("trace file written");
                assert!(serde_json::parse_value_complete(text.trim()).is_ok());
                traced.insert(workload.name, result);
            }
        }
    }

    // The layer split the workloads were chosen for.
    let hot = value(&traced["p2p-hot"], "scheduler.validation_failures_per_txn")
        + value(&traced["p2p-hot"], "scheduler.dependency_aborts_per_txn");
    let lowconf = value(
        &traced["p2p-lowconf"],
        "scheduler.validation_failures_per_txn",
    ) + value(
        &traced["p2p-lowconf"],
        "scheduler.dependency_aborts_per_txn",
    );
    assert!(
        hot > 0.0 && hot >= 10.0 * lowconf,
        "hot {hot} vs lowconf {lowconf}"
    );

    assert!(value(&traced["fee-delta"], "mvmemory.delta_resolutions_per_txn") > 0.0);
    assert_eq!(
        value(&traced["p2p-hot"], "mvmemory.delta_resolutions_per_txn"),
        0.0
    );

    for name in [
        "p2p-lowconf",
        "p2p-hot",
        "fee-delta",
        "node-saturate",
        "node-paced",
    ] {
        for def in PER_LAYER
            .iter()
            .filter(|def| def.name.starts_with("persist."))
        {
            assert_eq!(value(&traced[name], def.name), 0.0, "{name}: {}", def.name);
        }
    }
    assert!(value(&traced["p2p-logstore"], "persist.disk_reads_per_txn") > 0.0);
    assert!(value(&traced["p2p-logstore"], "persist.get_ns_cold") > 0.0);
    assert!(value(&traced["node-durable"], "persist.bytes_per_commit") > 0.0);
    assert!(value(&traced["node-durable"], "persist.syncs_per_1k_commits") > 0.0);

    let full = value(&traced["node-saturate"], "node.block_fill_avg");
    let aged = value(&traced["node-paced"], "node.block_fill_avg");
    assert!(full > 4.0 * aged, "count-cut {full} vs age-cut {aged}");
}
