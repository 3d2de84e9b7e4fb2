//! Account-model benchmark: ETH-transfer and ERC20 block throughput across the
//! {pool size × Zipf skew × conflict factor} grid, plus a `delta-fee` section
//! isolating the hot-beneficiary aggregator (the same payments with commutative
//! delta fee credits vs classic read-modify-write fees).
//!
//! Each sweep row reports TPS alongside the abort/incarnation counters that
//! explain it (validation failures, dependency aborts, incarnations,
//! committed transactions), so a skew or conflict knob's cost is attributable:
//! `incarnations - committed` is exactly the re-executed work. Every
//! configuration's committed output is additionally checked by the
//! [`ConservationOracle`] — a benchmark run that corrupts a balance or mints
//! value fails loudly instead of recording a fast wrong number.
//!
//! The `delta-fee` section prints the delta / read-modify-write throughput
//! ratio with every transaction crediting the same block beneficiary — under a
//! work-performing gas schedule the RMW shape re-burns real CPU per abort,
//! which is the production case the aggregator API exists for. The ratio is
//! printed, not asserted: throughput regressions are judged by the repository
//! benchmark (`benchmark/run.sh compare`), not by a single noisy run.
//!
//! Run with `cargo run -p block-stm-bench --release --bin accountbench`.
//! Set `BLOCK_STM_BENCH_QUICK=1` for a fast smoke-test grid. Baselines are
//! recorded via `scripts/record-baseline.sh accountbench`.

use block_stm::{AdaptiveExecutor, BlockExecutor, BlockStmBuilder, GasSchedule, Transaction, Vm};
use block_stm_bench::quick_mode;
use block_stm_storage::{AccessPath, InMemoryStorage, StateValue};
use block_stm_workloads::{ConservationOracle, Erc20Workload, EthTransferWorkload, FeeMode};
use serde::Serialize;
use std::time::Instant;

type AccountStorage = InMemoryStorage<AccessPath, StateValue>;

#[derive(Debug, Clone, Serialize)]
struct AccountbenchMeasurement {
    family: String,
    pool: u64,
    /// Zipf exponent in hundredths (0 = uniform senders/receivers).
    zipf_s: u32,
    conflict_pct: u8,
    fee_mode: String,
    threads: usize,
    blocks: usize,
    block_size: usize,
    tps: f64,
    avg_block_ms: f64,
    incarnations: u64,
    validation_failures: u64,
    dependency_aborts: u64,
    committed_txns: u64,
}

fn tsv_header() -> &'static str {
    "family\tpool\tzipf_s\tconflict_pct\tfee_mode\tthreads\tblocks\tblock_size\ttps\tavg_block_ms\tincarnations\tvalidation_failures\tdependency_aborts\tcommitted_txns"
}

impl AccountbenchMeasurement {
    fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.0}\t{:.3}\t{}\t{}\t{}\t{}",
            self.family,
            self.pool,
            self.zipf_s,
            self.conflict_pct,
            self.fee_mode,
            self.threads,
            self.blocks,
            self.block_size,
            self.tps,
            self.avg_block_ms,
            self.incarnations,
            self.validation_failures,
            self.dependency_aborts,
            self.committed_txns,
        )
    }
}

/// Times `blocks` consecutive executions (after one warm-up) and returns the
/// average seconds per block plus the metrics of one representative run.
fn timed_blocks<T>(
    executor: &dyn BlockExecutor<T, AccountStorage>,
    block: &[T],
    storage: &AccountStorage,
    blocks: usize,
) -> (f64, block_stm::MetricsSnapshot)
where
    T: Transaction<Key = AccessPath, Value = StateValue>,
{
    let warmup = executor.execute_block(block, storage).expect("warm-up");
    let start = Instant::now();
    for _ in 0..blocks {
        executor
            .execute_block(block, storage)
            .expect("block executes");
    }
    (
        start.elapsed().as_secs_f64() / blocks as f64,
        warmup.metrics,
    )
}

/// Measures one configuration and asserts conservation on its committed output.
#[allow(clippy::too_many_arguments)]
fn measure_config<T>(
    results: &mut Vec<AccountbenchMeasurement>,
    family: &str,
    fee_mode: &str,
    pool: u64,
    zipf_s: u32,
    conflict_pct: u8,
    block: &[T],
    storage: &AccountStorage,
    oracle: &ConservationOracle,
    engine: &dyn BlockExecutor<T, AccountStorage>,
    threads: usize,
    blocks: usize,
) -> f64
where
    T: block_stm_workloads::accounts::AccountTransaction,
{
    let (avg, metrics) = timed_blocks(engine, block, storage, blocks);

    // The correctness gate: a benchmark row only counts if the block it timed
    // conserved value, kept nonces monotone and routed every fee exactly.
    let output = engine.execute_block(block, storage).expect("audited run");
    oracle
        .check(storage, block, &output.updates, &output.outputs)
        .unwrap_or_else(|violation| {
            panic!("{family} pool={pool} zipf={zipf_s} conflict={conflict_pct}: {violation}")
        });

    let tps = block.len() as f64 / avg;
    let row = AccountbenchMeasurement {
        family: family.to_string(),
        pool,
        zipf_s,
        conflict_pct,
        fee_mode: fee_mode.to_string(),
        threads,
        blocks,
        block_size: block.len(),
        tps,
        avg_block_ms: avg * 1_000.0,
        incarnations: metrics.incarnations,
        validation_failures: metrics.validation_failures,
        dependency_aborts: metrics.dependency_aborts,
        committed_txns: metrics.committed_txns,
    };
    println!("{}", row.tsv_row());
    results.push(row);
    tps
}

fn main() {
    let quick = quick_mode();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
        .max(2);
    let blocks = if quick { 3 } else { 8 };
    let block_size = if quick { 300 } else { 2_000 };
    // Pool sizes: 1k → 1M senders (the ERC20 grid stops at 100k — its genesis
    // carries 5 resources per account instead of 2).
    let eth_pools: &[u64] = if quick {
        &[1_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    let erc20_pools: &[u64] = if quick { &[1_000] } else { &[1_000, 100_000] };
    let zipf_grid: &[u32] = if quick { &[100] } else { &[0, 100, 150] };
    let conflict_grid: &[u8] = &[0, 20];

    println!(
        "# accountbench: account-model families over {{pool x zipf x conflict}}, \
         {threads} threads, {blocks} blocks per config, {block_size} txns per block"
    );
    println!("{}", tsv_header());
    let mut results = Vec::new();

    for &pool in eth_pools {
        // Genesis depends only on the pool size — build it once per pool.
        let storage = EthTransferWorkload::new(pool, block_size).genesis();
        for &zipf_s in zipf_grid {
            for &conflict in conflict_grid {
                let workload = EthTransferWorkload::new(pool, block_size)
                    .with_zipf_s_hundredths(zipf_s)
                    .with_conflict(conflict, 4);
                let block = workload.generate_block();
                let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());
                let engine = BlockStmBuilder::new(Vm::new(GasSchedule::zero_work()))
                    .concurrency(threads)
                    .build();
                measure_config(
                    &mut results,
                    "eth-transfer",
                    "delta",
                    pool,
                    zipf_s,
                    conflict,
                    &block,
                    &storage,
                    &oracle,
                    &engine,
                    threads,
                    blocks,
                );
            }
        }
    }

    for &pool in erc20_pools {
        let storage = Erc20Workload::new(pool, block_size).genesis();
        for &zipf_s in zipf_grid {
            for &conflict in conflict_grid {
                let workload = Erc20Workload::new(pool, block_size)
                    .with_zipf_s_hundredths(zipf_s)
                    .with_conflict(conflict, 4);
                let block = workload.generate_block();
                let oracle = ConservationOracle::new()
                    .with_beneficiary(workload.beneficiary())
                    .with_token(workload.token);
                let engine = BlockStmBuilder::new(Vm::new(GasSchedule::zero_work()))
                    .concurrency(threads)
                    .build();
                measure_config(
                    &mut results,
                    "erc20",
                    "delta",
                    pool,
                    zipf_s,
                    conflict,
                    &block,
                    &storage,
                    &oracle,
                    &engine,
                    threads,
                    blocks,
                );
            }
        }
    }

    // delta-fee: the hot-beneficiary isolation. Same payments, same pool, a
    // work-performing gas schedule with a real sigverify cost — only the fee
    // credit mechanism differs. RMW fees serialize the whole block on the
    // beneficiary balance and re-burn the sigverify work on every abort;
    // delta fees commute.
    let fee_pool = 10_000u64;
    let fee_block_size = if quick { 300 } else { 1_000 };
    let fee_blocks = if quick { 2 } else { 6 };
    let base = EthTransferWorkload::new(fee_pool, fee_block_size)
        .with_zipf_s_hundredths(0)
        .with_conflict(0, 1)
        .with_sigverify_gas(2_000);
    let storage = base.genesis();
    let oracle = ConservationOracle::new().with_beneficiary(base.beneficiary());
    let mut fee_tps = [0.0f64; 2];
    for (slot, mode) in [(0usize, FeeMode::ReadModifyWrite), (1, FeeMode::Delta)] {
        let workload = base.with_fee_mode(mode);
        let block = workload.generate_block();
        let engine = BlockStmBuilder::new(Vm::new(GasSchedule::benchmark()))
            .concurrency(threads)
            .build();
        fee_tps[slot] = measure_config(
            &mut results,
            "eth-fee",
            if slot == 1 { "delta" } else { "rmw" },
            fee_pool,
            0,
            0,
            &block,
            &storage,
            &oracle,
            &engine,
            threads,
            fee_blocks,
        );
    }
    println!(
        "# delta-fee: delta {:.0} tps vs read-modify-write {:.0} tps ({:.2}x)",
        fee_tps[1],
        fee_tps[0],
        fee_tps[1] / fee_tps[0]
    );

    // eth-adaptive: the same ETH-transfer shape dispatched through the
    // per-block adaptive executor — on a 1-CPU host it decides sequential, on
    // a multicore host it speculates; either way the conservation oracle
    // audits the committed output like every other row.
    {
        let pool = 10_000u64;
        let workload = EthTransferWorkload::new(pool, block_size)
            .with_zipf_s_hundredths(100)
            .with_conflict(20, 4);
        let storage = workload.genesis();
        let block = workload.generate_block();
        let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());
        let engine = AdaptiveExecutor::builder(Vm::new(GasSchedule::zero_work()))
            .concurrency(threads)
            .abort_fallback_threshold(4 * block_size as u64)
            .build();
        measure_config(
            &mut results,
            "eth-adaptive",
            "delta",
            pool,
            100,
            20,
            &block,
            &storage,
            &oracle,
            &engine,
            threads,
            blocks,
        );
    }

    println!(
        "# json: {}",
        serde_json::to_string(&results).expect("measurements serialize")
    );
}
