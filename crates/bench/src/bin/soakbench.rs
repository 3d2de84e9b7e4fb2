//! Soak benchmark: the node service under sustained traffic.
//!
//! Three sections, all over the ETH-transfer workload and all audited
//! in-binary (exactly-once commits plus the [`ConservationOracle`] over the
//! full committed stream — a soak that corrupts a balance fails loudly):
//!
//! * **saturation** — a closed-loop driver submits as fast as the mempool
//!   admits (retrying on backpressure, never dropping) and the node's
//!   sustained TPS is reported next to a barrier-per-block execution of the
//!   *same formed blocks* on the same thread count, with their ratio. The
//!   ratio is printed, not asserted: on small hosts the driver, the former
//!   and the workers share the cores and it swings run to run. Throughput
//!   regressions are judged by the repository benchmark's `compare`
//!   (`benchmark/run.sh`), not here.
//! * **paced** — open-loop fixed-rate arrivals at roughly half the measured
//!   saturation rate: queueing stays bounded, and the ingest→committed p99
//!   must be finite and reported (histogram count == submitted count).
//! * **bursty** — the same mean rate delivered in mempool-straining bursts.
//!
//! Run with `cargo run -p block-stm-bench --release --bin soakbench`.
//! Set `BLOCK_STM_BENCH_QUICK=1` for the CI smoke grid. Baselines are
//! recorded via `scripts/record-baseline.sh soakbench`.

use block_stm::{BlockStmBuilder, GasSchedule, Vm};
use block_stm_bench::{available_thread_counts, quick_mode};
use block_stm_node::{Node, NodeError, NodeReport};
use block_stm_storage::{AccessPath, InMemoryStorage, StateValue};
use block_stm_workloads::{
    ArrivalProcess, ConservationOracle, EthTransferTransaction, EthTransferWorkload,
};
use serde::Serialize;
use std::time::{Duration, Instant};

type AccountStorage = InMemoryStorage<AccessPath, StateValue>;

const ACCOUNT_POOL: u64 = 1000;
const MAX_BLOCK_TXNS: usize = 512;
const MEMPOOL_CAPACITY: usize = 8192;

#[derive(Debug, Clone, Serialize)]
struct SoakMeasurement {
    section: String,
    threads: usize,
    txns: usize,
    blocks: u64,
    wall_ms: f64,
    node_tps: f64,
    /// Barrier-per-block reference TPS (saturation rows only, else 0).
    barrier_tps: f64,
    /// `node_tps / barrier_tps` (saturation rows only, else 0).
    ratio: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    full_retries: u64,
}

fn tsv_header() -> &'static str {
    "section\tthreads\ttxns\tblocks\twall_ms\tnode_tps\tbarrier_tps\tratio\tp50_us\tp99_us\tmax_us\tfull_retries"
}

impl SoakMeasurement {
    fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.1}\t{:.0}\t{:.0}\t{:.3}\t{}\t{}\t{}\t{}",
            self.section,
            self.threads,
            self.txns,
            self.blocks,
            self.wall_ms,
            self.node_tps,
            self.barrier_tps,
            self.ratio,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.full_retries,
        )
    }
}

fn bench_vm() -> Vm {
    Vm::new(GasSchedule::benchmark())
}

enum Drive {
    /// Closed loop: submit as fast as admission allows.
    Saturate,
    /// Open loop on the given arrival schedule.
    Paced(ArrivalProcess),
}

/// Runs one soak: start a node, drive the workload through it, shut down.
/// Returns the report, the wall time from first submission to complete
/// drain, and how many submissions hit a full mempool.
fn run_soak(
    genesis: &AccountStorage,
    txns: &[EthTransferTransaction],
    threads: usize,
    drive: &Drive,
) -> (NodeReport<EthTransferTransaction>, Duration, u64) {
    let node = Node::builder(bench_vm(), genesis.clone())
        .concurrency(threads)
        .mempool_capacity(MEMPOOL_CAPACITY)
        .max_block_txns(MAX_BLOCK_TXNS)
        .max_wait(Duration::from_millis(5))
        .start()
        .expect("node starts");
    let handle = node.handle();
    let schedule = match drive {
        Drive::Saturate => Vec::new(),
        Drive::Paced(process) => process.schedule(txns.len()),
    };
    let start = Instant::now();
    let mut full_retries = 0u64;
    for (index, txn) in txns.iter().enumerate() {
        if let Some(offset) = schedule.get(index) {
            if let Some(wait) = offset.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
        }
        loop {
            match handle.submit(*txn) {
                Ok(_) => break,
                Err(NodeError::MempoolFull { .. }) => {
                    // Backpressure: retry, never drop (a dropped transaction
                    // would leave a nonce gap poisoning its sender's stream).
                    full_retries += 1;
                    std::thread::sleep(Duration::from_micros(20));
                }
                Err(err) => panic!("soak submission failed: {err}"),
            }
        }
    }
    let report = node.shutdown().expect("clean drain");
    let wall = start.elapsed();
    (report, wall, full_retries)
}

/// Executes the node's formed blocks the pre-service way — one barrier
/// dispatch per block, updates applied between blocks — and returns the wall
/// time. This is the throughput reference the saturation bar compares
/// against.
fn barrier_reference(
    genesis: &AccountStorage,
    blocks: &[Vec<EthTransferTransaction>],
    threads: usize,
) -> Duration {
    let executor = BlockStmBuilder::new(bench_vm())
        .concurrency(threads)
        .build();
    let mut running = genesis.clone();
    let start = Instant::now();
    for block in blocks {
        let output = executor
            .execute_block(block, &running)
            .expect("barrier reference execution failed");
        running.apply_updates(output.updates.iter().cloned());
    }
    start.elapsed()
}

/// Every soak, regardless of section: exactly-once commits and value
/// conservation over the whole committed stream (evolving pre-state).
fn audit(
    label: &str,
    genesis: &AccountStorage,
    oracle: &ConservationOracle,
    report: &NodeReport<EthTransferTransaction>,
) {
    assert!(
        report.committed_exactly_once(),
        "[{label}] commit audit failed: submitted {} txns, audit trail {:?}...",
        report.snapshot.submitted,
        &report.commit_counts[..report.commit_counts.len().min(8)]
    );
    assert_eq!(
        report.blocks.len(),
        report.outputs.len(),
        "[{label}] formed blocks vs engine outputs"
    );
    let mut pre = genesis.clone();
    for (index, (block, output)) in report.blocks.iter().zip(&report.outputs).enumerate() {
        oracle
            .check(&pre, block, &output.updates, &output.outputs)
            .unwrap_or_else(|err| panic!("[{label}] oracle failed on block {index}: {err}"));
        pre.apply_updates(output.updates.iter().cloned());
    }
    let summary = &report.snapshot.ingest_to_committed_us;
    assert_eq!(
        summary.count, report.snapshot.submitted,
        "[{label}] ingest→committed histogram must cover every submission"
    );
    assert!(
        summary.p50 <= summary.p99 && summary.p99 <= summary.max,
        "[{label}] latency percentiles must be monotone: {summary:?}"
    );
}

fn measurement(
    section: &str,
    threads: usize,
    txns: usize,
    report: &NodeReport<EthTransferTransaction>,
    wall: Duration,
    barrier: Option<Duration>,
    full_retries: u64,
) -> SoakMeasurement {
    let node_tps = txns as f64 / wall.as_secs_f64();
    let barrier_tps = barrier.map_or(0.0, |b| txns as f64 / b.as_secs_f64());
    let summary = &report.snapshot.ingest_to_committed_us;
    SoakMeasurement {
        section: section.into(),
        threads,
        txns,
        blocks: report.snapshot.formed_blocks,
        wall_ms: wall.as_secs_f64() * 1e3,
        node_tps,
        barrier_tps,
        ratio: if barrier_tps > 0.0 {
            node_tps / barrier_tps
        } else {
            0.0
        },
        p50_us: summary.p50,
        p99_us: summary.p99,
        max_us: summary.max,
        full_retries,
    }
}

fn main() {
    let quick = quick_mode();
    let txns = if quick { 4_000 } else { 30_000 };
    let reps = if quick { 2 } else { 3 };
    let thread_counts = available_thread_counts();
    let saturation_threads = *thread_counts.last().expect("at least one thread count");

    let workload = EthTransferWorkload::new(ACCOUNT_POOL, txns).with_conflict(20, 4);
    let (genesis, block) = workload.generate();
    let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());

    println!("{}", tsv_header());
    let mut results: Vec<SoakMeasurement> = Vec::new();

    // Saturation: best-of-reps per thread count.
    for &threads in &thread_counts {
        let mut best: Option<SoakMeasurement> = None;
        for _ in 0..reps {
            let (report, wall, retries) = run_soak(&genesis, &block, threads, &Drive::Saturate);
            let label = format!("saturation@{threads}");
            audit(&label, &genesis, &oracle, &report);
            let barrier = barrier_reference(&genesis, &report.blocks, threads);
            let row = measurement(
                "saturation",
                threads,
                txns,
                &report,
                wall,
                Some(barrier),
                retries,
            );
            if best.as_ref().is_none_or(|b| row.ratio > b.ratio) {
                best = Some(row);
            }
        }
        let best = best.expect("at least one rep");
        // The row's `ratio` column is node ÷ barrier throughput.
        println!("{}", best.tsv_row());
        results.push(best);
    }

    // Paced sections run at roughly half the measured saturation rate so the
    // queue stays bounded and the latency distribution is meaningful.
    let saturation_tps = results
        .iter()
        .filter(|row| row.threads == saturation_threads)
        .map(|row| row.node_tps)
        .next_back()
        .expect("saturation row recorded");
    let paced_tps = ((saturation_tps / 2.0) as u64).max(1_000);
    let paced_txns = txns / 2;

    for (section, process) in [
        ("paced", ArrivalProcess::FixedRate { tps: paced_tps }),
        (
            "bursty",
            ArrivalProcess::Bursty {
                burst_size: MAX_BLOCK_TXNS as u64 / 2,
                burst_interval: Duration::from_nanos(
                    (MAX_BLOCK_TXNS as u64 / 2) * 1_000_000_000 / paced_tps,
                ),
            },
        ),
    ] {
        let paced_block = &block[..paced_txns];
        let (report, wall, retries) = run_soak(
            &genesis,
            paced_block,
            saturation_threads,
            &Drive::Paced(process),
        );
        audit(section, &genesis, &oracle, &report);
        let row = measurement(
            section,
            saturation_threads,
            paced_txns,
            &report,
            wall,
            None,
            retries,
        );
        assert!(
            row.p99_us > 0 && row.p99_us < u64::MAX,
            "[{section}] p99 must be finite and non-zero, got {}",
            row.p99_us
        );
        println!("{}", row.tsv_row());
        results.push(row);
    }

    println!(
        "# json: {}",
        serde_json::to_string(&results).expect("measurements serialize")
    );
}
