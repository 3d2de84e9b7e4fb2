//! Commit-ladder benchmark: throughput plus commit-lag percentiles of the rolling
//! commit ladder, the delta machinery and chained execution.
//!
//! Three workloads bracket the ladder's behavior:
//!
//! * `read-heavy` — a low-conflict block over a wide key universe with a zero-work
//!   gas schedule, so the numbers isolate *engine* overhead (the drain is a
//!   watermark compare per loop iteration, and the committed-prefix fast path
//!   removes descriptor recording for settled reads);
//! * `long_chain` — every transaction depends on transaction 0 (mass
//!   re-validation behind the hub; the wave bookkeeping's stress case);
//! * `commit_stall` — a conflict-free block whose transaction 0 burns real gas:
//!   everything validates immediately but must wait to commit, maximizing commit
//!   lag.
//!
//! Each row also reports the commit-lag distribution (p50/p99, in transactions),
//! measured in a separate instrumented pass through a `CommitSink` so the
//! throughput rows stay sink-free.
//!
//! `delta-hotspot` — every transaction bumps ONE shared aggregator while burning
//! real gas — compares **delta-on vs delta-off**: commutative deltas execute each
//! transaction exactly once (zero aborts, asserted), while the read-modify-write
//! shape re-burns every incarnation that speculated past an in-flight writer.
//!
//! The last section is the **chain mode**: a stream of 100+ small blocks executed
//! `barrier`-per-block (one `execute_block` per block, updates folded into
//! storage between blocks) vs `chained` (one `ChainExecutor::execute_chain`
//! dispatch pipelining through the cross-block frontier). Sustained TPS is the
//! median of several reps. The chained row's lag columns report the
//! **ingest→committed** distribution in microseconds: every block is ingested
//! when the chain is dispatched, so per-block lag is the time until that block's
//! last transaction commits.
//!
//! The `speedup` column is a printed ratio, never asserted: throughput
//! regressions are judged by the repository benchmark (`benchmark/run.sh
//! compare`), not by a single noisy run.
//!
//! Run with `cargo run -p block-stm-bench --release --bin commitbench`.
//! Set `BLOCK_STM_BENCH_QUICK=1` for a fast smoke-test grid. Baselines are recorded
//! via `scripts/record-baseline.sh commitbench`.

use block_stm::{BlockStmBuilder, CommitEvent, CommitSink, GasSchedule, Vm};
use block_stm_bench::quick_mode;
use block_stm_storage::InMemoryStorage;
use block_stm_vm::synthetic::SyntheticTransaction;
use block_stm_workloads::{
    CommitStallWorkload, DeltaHotspotWorkload, LongChainWorkload, SyntheticWorkload,
};
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Collects per-commit lags for the percentile pass.
#[derive(Default)]
struct LagSink {
    lags: Mutex<Vec<usize>>,
}

impl CommitSink<u64, u64> for LagSink {
    fn on_commit(&self, event: &CommitEvent<'_, u64, u64>) {
        self.lags.lock().push(event.commit_lag());
    }
}

/// Records per-block ingest→committed lag across one chained dispatch.
///
/// Every block of the chain is "ingested" when the chain is dispatched (the
/// first `begin_block`); a block's lag is the time from dispatch until its
/// commit stream ends (`end_block`, right after its last commit).
#[derive(Default)]
struct ChainLagSink {
    state: Mutex<ChainLagState>,
}

#[derive(Default)]
struct ChainLagState {
    dispatched: Option<Instant>,
    completed_us: Vec<usize>,
}

impl ChainLagSink {
    /// Returns per-block lags in microseconds.
    fn finish(&self) -> Vec<usize> {
        std::mem::take(&mut self.state.lock().completed_us)
    }
}

impl CommitSink<u64, u64> for ChainLagSink {
    fn begin_block(&self, _block_size: usize) {
        self.state
            .lock()
            .dispatched
            .get_or_insert_with(Instant::now);
    }

    fn on_commit(&self, _event: &CommitEvent<'_, u64, u64>) {}

    fn end_block(&self, _committed: usize) {
        let mut state = self.state.lock();
        if let Some(dispatched) = state.dispatched {
            let lag = dispatched.elapsed().as_micros() as usize;
            state.completed_us.push(lag);
        }
    }
}

#[derive(Debug, Clone, Serialize)]
struct CommitbenchMeasurement {
    workload: String,
    mode: String,
    threads: usize,
    blocks: usize,
    block_size: usize,
    tps: f64,
    avg_block_ms: f64,
    /// Commit-lag percentiles: in transactions on `ladder` rows, in
    /// microseconds (ingest→committed per block) on the `chained` row,
    /// 0 otherwise.
    lag_p50: usize,
    lag_p99: usize,
    lag_max: usize,
    /// Throughput ratio vs the section's baseline row: `delta-on / delta-off`
    /// or `chained / barrier`; 1.0 on baseline and `ladder` rows.
    speedup: f64,
}

fn tsv_header() -> &'static str {
    "workload\tmode\tthreads\tblocks\tblock_size\ttps\tavg_block_ms\tlag_p50\tlag_p99\tlag_max\tspeedup"
}

impl CommitbenchMeasurement {
    fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{:.0}\t{:.3}\t{}\t{}\t{}\t{:.2}",
            self.workload,
            self.mode,
            self.threads,
            self.blocks,
            self.block_size,
            self.tps,
            self.avg_block_ms,
            self.lag_p50,
            self.lag_p99,
            self.lag_max,
            self.speedup,
        )
    }
}

fn percentile(sorted: &[usize], pct: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Average seconds per block over `blocks` consecutive executions on one executor.
fn timed_blocks(
    executor: &block_stm::BlockStm,
    block: &[SyntheticTransaction],
    storage: &InMemoryStorage<u64, u64>,
    blocks: usize,
) -> f64 {
    executor.execute_block(block, storage).expect("warm-up");
    let start = Instant::now();
    for _ in 0..blocks {
        executor
            .execute_block(block, storage)
            .expect("block executes");
    }
    start.elapsed().as_secs_f64() / blocks as f64
}

#[allow(clippy::too_many_arguments)]
fn measure_workload(
    results: &mut Vec<CommitbenchMeasurement>,
    name: &str,
    block: &[SyntheticTransaction],
    storage: &InMemoryStorage<u64, u64>,
    gas: GasSchedule,
    threads: usize,
    blocks: usize,
) {
    let engine = BlockStmBuilder::new(Vm::new(gas))
        .concurrency(threads)
        .build();
    let avg = timed_blocks(&engine, block, storage, blocks);
    drop(engine);

    // Separate instrumented pass for the lag distribution (one block is enough —
    // the workloads are deterministic; the sink adds its own cost, so the pass is
    // excluded from the throughput rows).
    let sink = Arc::new(LagSink::default());
    let instrumented = BlockStmBuilder::new(Vm::new(gas))
        .concurrency(threads)
        .commit_sink::<u64, u64>(sink.clone())
        .build();
    instrumented
        .execute_block(block, storage)
        .expect("instrumented block executes");
    let mut lags = std::mem::take(&mut *sink.lags.lock());
    lags.sort_unstable();

    let row = CommitbenchMeasurement {
        workload: name.to_string(),
        mode: "ladder".to_string(),
        threads,
        blocks,
        block_size: block.len(),
        tps: block.len() as f64 / avg,
        avg_block_ms: avg * 1_000.0,
        lag_p50: percentile(&lags, 50.0),
        lag_p99: percentile(&lags, 99.0),
        lag_max: lags.last().copied().unwrap_or(0),
        speedup: 1.0,
    };
    println!("{}", row.tsv_row());
    results.push(row);
}

fn main() {
    let quick = quick_mode();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
        .max(2);
    let blocks = if quick { 4 } else { 30 };
    let block_size = if quick { 400 } else { 2_000 };

    println!(
        "# commitbench: rolling commit ladder, {threads} threads, \
         {blocks} blocks per row, {block_size} txns per block"
    );
    println!("{}", tsv_header());
    let mut results = Vec::new();

    // read-heavy: wide key universe, mostly reads, zero-work gas — pure engine
    // overhead.
    let read_heavy = SyntheticWorkload {
        num_keys: 4 * block_size as u64,
        block_size,
        max_reads: 6,
        max_writes: 1,
        conditional_write_pct: 0,
        abort_pct: 0,
        extra_gas: 0,
        seed: 0xC0117,
        hint_accuracy_pct: 100,
    };
    let storage: InMemoryStorage<u64, u64> = read_heavy.initial_state().into_iter().collect();
    let block = read_heavy.generate_block();
    measure_workload(
        &mut results,
        "read-heavy",
        &block,
        &storage,
        GasSchedule::zero_work(),
        threads,
        blocks,
    );

    // long_chain: everything re-validates behind the hub transaction.
    let chain = LongChainWorkload::new(block_size);
    let storage: InMemoryStorage<u64, u64> = chain.initial_state().into_iter().collect();
    let block = chain.generate_block();
    measure_workload(
        &mut results,
        "long_chain",
        &block,
        &storage,
        GasSchedule::zero_work(),
        threads,
        blocks,
    );

    // commit_stall: conflict-free, but txn 0 burns real gas — maximal commit lag.
    let stall =
        CommitStallWorkload::front_staller(block_size, if quick { 20_000 } else { 100_000 });
    let storage: InMemoryStorage<u64, u64> = stall.initial_state().into_iter().collect();
    let block = stall.generate_block();
    measure_workload(
        &mut results,
        "commit_stall",
        &block,
        &storage,
        GasSchedule::benchmark(),
        threads,
        blocks.min(10),
    );

    // delta-hotspot: every transaction bumps ONE hot aggregator and burns real
    // gas work. With deltas on the bumps commute (zero aborts, lazy resolution
    // + commit-time folding; every transaction executes exactly once); with
    // deltas off they are the classic read-modify-write chain, and every
    // incarnation that speculated past an in-flight writer re-burns its gas.
    let delta_block_size = if quick { 400 } else { 1_000 };
    let delta_blocks = if quick { 2 } else { 6 };
    let workload = DeltaHotspotWorkload::new(delta_block_size, 1).with_extra_gas(2_000);
    let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
    let mut mode_tps = [0.0f64; 2];
    for (slot, use_deltas) in [(0usize, false), (1usize, true)] {
        let block = workload.with_deltas(use_deltas).generate_block();
        let engine = BlockStmBuilder::new(Vm::new(GasSchedule::benchmark()))
            .concurrency(threads)
            .build();
        let avg = timed_blocks(&engine, &block, &storage, delta_blocks);
        // Sanity: delta mode must commit without a single aggregator abort.
        if use_deltas {
            let metrics = engine
                .execute_block(&block, &storage)
                .expect("delta block executes")
                .metrics;
            assert_eq!(metrics.validation_failures, 0, "deltas must not abort");
            assert_eq!(metrics.delta_overflow_aborts, 0);
            assert_eq!(metrics.delta_writes, delta_block_size as u64);
        }
        mode_tps[slot] = delta_block_size as f64 / avg;
        let row = CommitbenchMeasurement {
            workload: "delta-hotspot".to_string(),
            mode: if use_deltas { "delta-on" } else { "delta-off" }.to_string(),
            threads,
            blocks: delta_blocks,
            block_size: delta_block_size,
            tps: mode_tps[slot],
            avg_block_ms: avg * 1_000.0,
            lag_p50: 0,
            lag_p99: 0,
            lag_max: 0,
            speedup: if use_deltas {
                mode_tps[1] / mode_tps[0]
            } else {
                1.0
            },
        };
        println!("{}", row.tsv_row());
        results.push(row);
    }

    // chain mode: a long stream of small blocks, barrier-per-block vs one
    // chained dispatch. Small blocks make the boundary cost (park/unpark,
    // drain tail, cold restart) a visible fraction of the block time — the
    // shape cross-block pipelining removes. Rows report the median rep.
    // Both modes keep the small-block shape: that is the regime this mode
    // measures (boundary cost per block), and on a small host it is also the
    // regime where the comparison is meaningful — with large blocks the second
    // worker's speculation cannot overlap with anything and the row would
    // measure core oversubscription instead.
    let chain_stream_len = if quick { 60 } else { 150 };
    let chain_block_size = 50;
    // Reps are cheap at this scale (one rep is tens of milliseconds); a deep
    // median keeps the row out of reach of scheduler jitter.
    let chain_reps = if quick { 9 } else { 11 };
    // Both shapes get the same worker count, so the rows compare boundary
    // cost (a pool dispatch per block vs one gate flip). The 2-thread floor
    // matters on a 1-cpu host: with a single worker `WorkerPool::run`
    // executes inline on the caller thread, the barrier baseline pays no
    // dispatch at all, and the comparison degenerates to parity-under-noise.
    // At >= 2 workers the barrier pays a park/unpark cycle per block while
    // the chain pays one per stream — the boundary cost this mode exists to
    // measure.
    let chain_threads = std::thread::available_parallelism()
        .map(|n| n.get().clamp(2, 8))
        .unwrap_or(2);
    let stream: Vec<Vec<SyntheticTransaction>> = (0..chain_stream_len)
        .map(|i| {
            SyntheticWorkload {
                num_keys: 1_024,
                block_size: chain_block_size,
                max_reads: 3,
                max_writes: 2,
                conditional_write_pct: 0,
                abort_pct: 0,
                extra_gas: 0,
                seed: 0xC4A1 + i as u64,
                hint_accuracy_pct: 100,
            }
            .generate_block()
        })
        .collect();
    let storage: InMemoryStorage<u64, u64> = SyntheticWorkload {
        num_keys: 1_024,
        block_size: chain_block_size,
        max_reads: 3,
        max_writes: 2,
        conditional_write_pct: 0,
        abort_pct: 0,
        extra_gas: 0,
        seed: 0xC4A1,
        hint_accuracy_pct: 100,
    }
    .initial_state()
    .into_iter()
    .collect();
    let total_txns: usize = stream.iter().map(Vec::len).sum();

    // Both shapes stay alive for the whole section and the reps interleave
    // (barrier, chained, barrier, ...), so clock-frequency / cache drift on the
    // shared CI host lands on both sides instead of biasing whichever section
    // ran second. Barrier shape: one persistent executor, one dispatch per
    // block, updates folded into storage between blocks. Chained shape: the
    // whole stream is one dispatch.
    let barrier = BlockStmBuilder::new(Vm::new(GasSchedule::zero_work()))
        .concurrency(chain_threads)
        .build();
    let chain = BlockStmBuilder::new(Vm::new(GasSchedule::zero_work()))
        .concurrency(chain_threads)
        .build_chain();
    barrier
        .execute_block(&stream[0], &storage)
        .expect("barrier warm-up");
    chain
        .execute_chain(&stream[..2], &storage)
        .expect("chain warm-up");
    let mut barrier_secs = Vec::with_capacity(chain_reps);
    let mut chained_secs = Vec::with_capacity(chain_reps);
    for _ in 0..chain_reps {
        let mut running = storage.clone();
        let start = Instant::now();
        for block in &stream {
            let output = barrier
                .execute_block(block, &running)
                .expect("barrier block executes");
            for (key, value) in output.updates {
                running.insert(key, value);
            }
        }
        barrier_secs.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        chain
            .execute_chain(&stream, &storage)
            .expect("chain executes");
        chained_secs.push(start.elapsed().as_secs_f64());
    }
    drop(barrier);

    // Separate instrumented pass: per-block ingest→committed lag through a
    // CommitSink (all blocks are ingested at dispatch; a block's lag is the
    // time until its last transaction commits).
    let lag_sink = Arc::new(ChainLagSink::default());
    let instrumented_chain = BlockStmBuilder::new(Vm::new(GasSchedule::zero_work()))
        .concurrency(chain_threads)
        .commit_sink::<u64, u64>(lag_sink.clone())
        .build_chain();
    let chain_output = instrumented_chain
        .execute_chain(&stream, &storage)
        .expect("instrumented chain executes");
    println!(
        "# chain diagnostics: incarnations={} validations={} validation_failures={} frontier_reads={} \
         cross_block_aborts={} sweeps={} avg_runahead={:.1} idle_ms={:.1}",
        chain_output.metrics.incarnations,
        chain_output.metrics.validations,
        chain_output.metrics.validation_failures,
        chain_output.metrics.frontier_reads,
        chain_output.metrics.chain_cross_block_aborts,
        chain_output.metrics.chain_sweeps,
        chain_output.metrics.avg_chain_runahead(),
        chain_output.metrics.chain_idle_ns as f64 / 1e6,
    );
    let mut lags_us = lag_sink.finish();
    lags_us.sort_unstable();

    let median = |secs: &mut Vec<f64>| -> f64 {
        secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        secs[secs.len() / 2]
    };
    // Rows report the median rep (sustained throughput).
    let barrier_wall = median(&mut barrier_secs);
    let chained_wall = median(&mut chained_secs);
    let barrier_tps = total_txns as f64 / barrier_wall;
    let chained_tps = total_txns as f64 / chained_wall;
    for (mode, wall, tps, lag_stats, speedup) in [
        ("barrier", barrier_wall, barrier_tps, None, 1.0),
        (
            "chained",
            chained_wall,
            chained_tps,
            Some(&lags_us),
            chained_tps / barrier_tps,
        ),
    ] {
        let (lag_p50, lag_p99, lag_max) = match lag_stats {
            Some(lags) => (
                percentile(lags, 50.0),
                percentile(lags, 99.0),
                lags.last().copied().unwrap_or(0),
            ),
            None => (0, 0, 0),
        };
        let row = CommitbenchMeasurement {
            workload: "chain".to_string(),
            mode: mode.to_string(),
            threads: chain_threads,
            blocks: chain_stream_len,
            block_size: chain_block_size,
            tps,
            avg_block_ms: wall * 1_000.0 / chain_stream_len as f64,
            lag_p50,
            lag_p99,
            lag_max,
            speedup,
        };
        println!("{}", row.tsv_row());
        results.push(row);
    }

    println!(
        "# json: {}",
        serde_json::to_string(&results).expect("measurements serialize")
    );
}
