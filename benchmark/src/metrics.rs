//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repository root declares the same tables; a
//! self-test holds the two equal. README.md says what each metric means and
//! which end-to-end metric each layer metric is predicted to move.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A smaller value is an improvement.
    Lower,
    /// A larger value is an improvement.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the metric
    /// may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of them
/// (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("committed_tps", "txn/s", Higher, 0.12),
    e2e("commit_latency_ms_p50", "ms", Lower, 0.12),
    e2e("commit_latency_ms_p99", "ms", Lower, 0.15),
    e2e("durable_latency_ms_p50", "ms", Lower, 0.12),
    e2e("durable_latency_ms_p99", "ms", Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// What single layers did (`--trace 1`), grouped by crate. A layer a workload
/// does not use reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // vm
    layer("vm.seq_tps", "txn/s", Higher),
    layer("vm.gas_per_txn", "gas", Lower),
    // core
    layer("core.speedup_vs_seq", "ratio", Higher),
    layer("core.parallel_efficiency", "ratio", Higher),
    layer("core.empty_block_us", "us", Lower),
    layer("core.block_ms_p50", "ms", Lower),
    layer("core.block_ms_p90", "ms", Lower),
    layer("core.incarnations_per_txn", "ratio", Lower),
    layer("core.validations_per_txn", "ratio", Lower),
    layer("core.abort_rate", "ratio", Lower),
    layer("core.commit_lag_avg", "txn", Lower),
    // scheduler
    layer("scheduler.task_ns_solo", "ns", Lower),
    layer("scheduler.task_ns_shared", "ns", Lower),
    layer("scheduler.polls_per_txn", "ratio", Lower),
    layer("scheduler.yields_per_txn", "ratio", Lower),
    layer("scheduler.validation_failures_per_txn", "ratio", Lower),
    layer("scheduler.dependency_aborts_per_txn", "ratio", Lower),
    // mvmemory
    layer("mvmemory.read_ns", "ns", Lower),
    layer("mvmemory.record_ns_per_write", "ns", Lower),
    layer("mvmemory.validate_ns_per_read", "ns", Lower),
    layer("mvmemory.reset_us", "us", Lower),
    layer("mvmemory.cache_hit_share", "ratio", Higher),
    layer("mvmemory.committed_prefix_reads_per_txn", "ratio", Higher),
    layer("mvmemory.delta_resolutions_per_txn", "ratio", Lower),
    layer("mvmemory.delta_chain_len_max", "count", Lower),
    // sync
    layer("sync.pool_roundtrip_us", "us", Lower),
    // storage
    layer("storage.get_ns", "ns", Lower),
    // persist, read side
    layer("persist.get_ns_cold", "ns", Lower),
    layer("persist.get_ns_cached", "ns", Lower),
    layer("persist.prefetch_us_per_block", "us", Lower),
    layer("persist.cache_hit_share", "ratio", Higher),
    layer("persist.disk_reads_per_txn", "ratio", Lower),
    // persist, write side
    layer("persist.append_us_per_batch", "us", Lower),
    layer("persist.syncs_per_1k_commits", "count", Lower),
    layer("persist.bytes_per_commit", "B", Lower),
    layer("persist.stage_durable_ms_p50", "ms", Lower),
    layer("persist.final_flush_ms", "ms", Lower),
    // node
    layer("node.submit_ns_p50", "ns", Lower),
    layer("node.submit_ns_p99", "ns", Lower),
    layer("node.stage_queue_ms_p50", "ms", Lower),
    layer("node.stage_exec_ms_p50", "ms", Lower),
    layer("node.block_fill_avg", "txn", Higher),
    layer("node.backlog_end", "txn", Lower),
    layer("node.backpressure_retries", "count", Lower),
    layer("node.shutdown_drain_ms", "ms", Lower),
    layer("node.chain_sweeps_per_block", "ratio", Lower),
    layer("node.chain_idle_share", "ratio", Lower),
    layer("node.cross_block_aborts_per_block", "ratio", Lower),
    layer("node.runahead_avg", "txn", Higher),
    // bench: the harness itself
    layer("bench.gen_lag_ms_p99", "ms", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.rep_spread_pct", "%", Lower),
    layer("bench.repetitions", "count", Higher),
    layer("bench.latency_samples_per_rep", "count", Higher),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|def| def.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse_value_complete(&text).expect("BENCHMARK.json parses")
    }

    fn string(value: &Value, key: &str) -> String {
        match value.get(key) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    fn array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
        match value.get(key) {
            Some(Value::Array(items)) => items,
            other => panic!("{key}: expected an array, found {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let declared = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = array(&declared, key);
            assert_eq!(entries.len(), table.len(), "{key}: metric count");
            for (entry, def) in entries.iter().zip(table) {
                assert_eq!(string(entry, "name"), def.name);
                assert_eq!(string(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(string(entry, "better"), def.better.as_str(), "{}", def.name);
                match (entry.get("bound"), def.bound) {
                    (Some(Value::Float(bound)), Some(expected)) => {
                        assert_eq!(*bound, expected, "{}", def.name)
                    }
                    (None, None) => {}
                    other => panic!("{}: bound mismatch {other:?}", def.name),
                }
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_seven_workloads() {
        let declared = benchmark_json();
        let workloads = crate::workloads::all(crate::workloads::Scale::Full);
        let entries = array(&declared, "workloads");
        assert_eq!(entries.len(), workloads.len());
        for (entry, workload) in entries.iter().zip(&workloads) {
            assert_eq!(string(entry, "name"), workload.name);
            assert_eq!(string(entry, "why"), workload.why);
        }
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name), "{}", def.name);
            assert!(unit_ok(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} declared twice", def.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|def| def.bound.is_some_and(|b| b <= 0.25)));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    }
}
