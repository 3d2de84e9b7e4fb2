//! Executor-reuse benchmark: one persistent `BlockStm` vs. a fresh executor per
//! block, vs. one `BlockStm::execute_chain` dispatch for the whole stream.
//!
//! The paper's setting (§1, §6) is a validator executing *block after block*; this
//! benchmark quantifies why the engine is shaped for that: at small block sizes the
//! per-block setup cost — spawning/joining worker threads plus allocating the
//! multi-version memory, scheduler arrays and output slots — is a measurable fraction
//! of the block time. The `reused` mode builds one [`BlockStm`](block_stm::BlockStm)
//! and hands it every block (workers park in between, arenas are reset in place); the
//! `fresh` mode builds and drops an executor per block, which is what the removed
//! one-shot `ParallelExecutor` flow effectively paid. The `chained` mode goes one
//! step further: the whole stream is a single `execute_chain` dispatch, so workers
//! are unparked **once per chain instead of once per block** — the `pool_wakeups`
//! column (read from the executor's own dispatch counter) drops from `blocks` to 1,
//! and block boundaries cost a commit-gate flip instead of a park/unpark round trip.
//!
//! Gas is `zero_work` so the numbers isolate *engine* cost: with heavy VM work the
//! setup cost shrinks proportionally (also visible here via the diem-p2p rows).
//!
//! Run with `cargo run -p block-stm-bench --release --bin reuse`.
//! Set `BLOCK_STM_BENCH_QUICK=1` for a fast smoke-test grid.

use block_stm::{BlockExecutor, BlockStmBuilder, GasSchedule, Transaction, Vm};
use block_stm_bench::quick_mode;
use block_stm_storage::{InMemoryStorage, Storage};
use block_stm_vm::p2p::P2pFlavor;
use block_stm_workloads::{P2pWorkload, SyntheticWorkload};
use serde::Serialize;
use std::time::Instant;

/// One measured row: a (workload, mode) pair.
#[derive(Debug, Clone, Serialize)]
struct ReuseMeasurement {
    workload: String,
    mode: String,
    block_size: usize,
    threads: usize,
    blocks: usize,
    tps: f64,
    avg_block_ms: f64,
    /// Worker-pool dispatch epochs during the timed run: how many times the
    /// parked worker set was woken. `fresh` and `reused` pay one per block;
    /// `chained` pays one per chain.
    pool_wakeups: u64,
    /// `fresh.avg_block_ms / mode.avg_block_ms` — 1.0 on the `fresh` row.
    speedup_vs_fresh: f64,
}

fn tsv_header() -> &'static str {
    "workload\tmode\tblock_size\tthreads\tblocks\ttps\tavg_block_ms\tpool_wakeups\tspeedup_vs_fresh"
}

impl ReuseMeasurement {
    fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{:.0}\t{:.3}\t{}\t{:.2}",
            self.workload,
            self.mode,
            self.block_size,
            self.threads,
            self.blocks,
            self.tps,
            self.avg_block_ms,
            self.pool_wakeups,
            self.speedup_vs_fresh,
        )
    }
}

/// The naive integration: build (spawns the pool), execute one block, drop
/// (joins the pool). Returns average per-block seconds over `blocks` rounds.
fn run_fresh<T, S>(
    make_executor: impl Fn() -> Box<dyn BlockExecutor<T, S>>,
    block: &[T],
    storage: &S,
    blocks: usize,
) -> f64
where
    T: Transaction,
    S: Storage<T::Key, T::Value>,
{
    // Warm up allocator pools.
    make_executor()
        .execute_block(block, storage)
        .expect("warm-up failed");
    let start = Instant::now();
    for _ in 0..blocks {
        let executor = make_executor();
        executor
            .execute_block(block, storage)
            .expect("block must execute");
    }
    start.elapsed().as_secs_f64() / blocks as f64
}

fn measure_triple<T, S>(
    results: &mut Vec<ReuseMeasurement>,
    workload_name: &str,
    block: &[T],
    storage: &S,
    threads: usize,
    blocks: usize,
    gas: GasSchedule,
) where
    T: Transaction + Clone,
    S: Storage<T::Key, T::Value>,
{
    let make = || -> Box<dyn BlockExecutor<T, S>> {
        Box::new(
            BlockStmBuilder::new(Vm::new(gas))
                .concurrency(threads)
                .build(),
        )
    };
    let fresh_avg = run_fresh(make, block, storage, blocks);

    // Reused: one persistent executor, one pool wakeup per block.
    let reused = BlockStmBuilder::new(Vm::new(gas))
        .concurrency(threads)
        .build();
    reused
        .execute_block(block, storage)
        .expect("warm-up failed");
    let wakeups_before = reused.dispatches();
    let start = Instant::now();
    for _ in 0..blocks {
        reused
            .execute_block(block, storage)
            .expect("block must execute");
    }
    let reused_avg = start.elapsed().as_secs_f64() / blocks as f64;
    let reused_wakeups = reused.dispatches() - wakeups_before;

    // Chained: the whole stream is one dispatch — workers stay unparked across
    // every block boundary and pipeline into the successor while the head
    // drains. (The stream repeats the same block; each re-execution reads the
    // previous round's committed state through the frontier, touching the same
    // keys with the same dependency structure, so the per-block engine work is
    // comparable to the barrier modes.) The same executor serves both modes.
    let stream: Vec<Vec<T>> = (0..blocks).map(|_| block.to_vec()).collect();
    reused
        .execute_chain(&stream[..1], storage)
        .expect("warm-up failed");
    let wakeups_before = reused.dispatches();
    let start = Instant::now();
    reused
        .execute_chain(&stream, storage)
        .expect("chain must execute");
    let chained_avg = start.elapsed().as_secs_f64() / blocks as f64;
    let chained_wakeups = reused.dispatches() - wakeups_before;

    for (mode, avg, wakeups, speedup) in [
        ("fresh", fresh_avg, blocks as u64, 1.0),
        ("reused", reused_avg, reused_wakeups, fresh_avg / reused_avg),
        (
            "chained",
            chained_avg,
            chained_wakeups,
            fresh_avg / chained_avg,
        ),
    ] {
        let row = ReuseMeasurement {
            workload: workload_name.to_string(),
            mode: mode.to_string(),
            block_size: block.len(),
            threads,
            blocks,
            tps: block.len() as f64 / avg,
            avg_block_ms: avg * 1_000.0,
            pool_wakeups: wakeups,
            speedup_vs_fresh: speedup,
        };
        println!("{}", row.tsv_row());
        results.push(row);
    }
}

fn main() {
    let quick = quick_mode();
    // At least 2 workers so the persistent pool (and the fresh mode's per-block
    // spawn/join) is actually exercised, even on a 1-CPU host.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
        .max(2);
    let blocks = if quick { 5 } else { 50 };
    let gas = GasSchedule::zero_work();

    println!(
        "# Reuse: persistent BlockStm vs fresh-executor-per-block vs one chained \
         dispatch, {threads} threads, {blocks} blocks per mode"
    );
    println!("{}", tsv_header());
    let mut results = Vec::new();

    // Synthetic read-modify-write blocks: VM work is negligible, so the rows isolate
    // the engine's per-block setup overhead (the effect the redesign removes).
    for block_size in if quick {
        vec![200usize]
    } else {
        vec![100, 1_000, 5_000]
    } {
        let workload = SyntheticWorkload::new(256, block_size).with_seed(0xE05E);
        let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
        let block = workload.generate_block();
        measure_triple(
            &mut results,
            "synthetic",
            &block,
            &storage,
            threads,
            blocks,
            gas,
        );
    }

    // A realistic payment block for scale: setup cost as a fraction of real work.
    if !quick {
        let workload = P2pWorkload {
            flavor: P2pFlavor::Diem,
            num_accounts: 1_000,
            block_size: 1_000,
            seed: 0xE05E,
            initial_balance: 1_000_000_000,
            max_transfer: 100,
        };
        let (storage, block) = workload.generate();
        measure_triple(
            &mut results,
            "diem-p2p",
            &block,
            &storage,
            threads,
            blocks.min(20),
            gas,
        );
    }

    println!(
        "# json: {}",
        serde_json::to_string(&results).expect("measurements serialize")
    );
}
