//! Storage-tier benchmark: what the disk tier (`block-stm-persist`) costs and
//! what its two optimizations buy.
//!
//! Three sections:
//!
//! * `execute` — the same ETH-transfer block executed over `InMemoryStorage`,
//!   directly over a cold [`LogStore`] (every base read is a `pread`), and
//!   over a prefetched [`BlockCache`] wrapping that store. Informational: how
//!   far disk-resident base state is from RAM, and how much the cache wins
//!   back.
//! * `read` — the isolated base-read path: scanning every genesis key through
//!   the cold store vs through a prefetched cache (it serves from RAM; the
//!   cold path pays a syscall per read).
//! * `persist` — the commit write path: a stream of committed outputs driven
//!   through [`SyncPersistSink`] (append + fsync inline per commit) vs
//!   [`WriteBehindSink`] (batched frames on a background persister, one
//!   durability barrier at the end) — the point of taking fsync off the
//!   commit drain.
//!
//! The `speedup` column carries both ratios (cached / cold, write-behind /
//! sync). They are printed, not asserted: throughput regressions are judged by
//! the repository benchmark (`benchmark/run.sh compare`), not by a single noisy
//! run. Every durable count and the final persisted state are asserted.
//!
//! Run with `cargo run -p block-stm-bench --release --bin storagebench`.
//! Set `BLOCK_STM_BENCH_QUICK=1` for a fast smoke-test grid. Baselines are
//! recorded via `scripts/record-baseline.sh storagebench`.

use block_stm::{BlockStmBuilder, CommitEvent, CommitSink, Vm};
use block_stm_bench::quick_mode;
use block_stm_persist::testing::TempDir;
use block_stm_persist::{BlockCache, LogStore, SyncPersistSink, WriteBehindSink};
use block_stm_storage::{AccessPath, AccountAddress, StateValue, Storage};
use block_stm_vm::{TransactionOutput, WriteOp};
use block_stm_workloads::{EthTransferTransaction, EthTransferWorkload};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

type DiskStorage = LogStore<AccessPath, StateValue>;

#[derive(Debug, Clone, Serialize)]
struct StoragebenchMeasurement {
    section: String,
    mode: String,
    threads: usize,
    /// Work items: transactions (`execute`), reads (`read`) or commit events
    /// (`persist`).
    items: usize,
    elapsed_ms: f64,
    per_sec: f64,
    /// Ratio vs the section's baseline mode (1.0 on the baseline row).
    speedup: f64,
}

fn tsv_header() -> &'static str {
    "section\tmode\tthreads\titems\telapsed_ms\tper_sec\tspeedup"
}

impl StoragebenchMeasurement {
    fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.3}\t{:.0}\t{:.2}",
            self.section,
            self.mode,
            self.threads,
            self.items,
            self.elapsed_ms,
            self.per_sec,
            self.speedup,
        )
    }
}

fn push_row(
    results: &mut Vec<StoragebenchMeasurement>,
    section: &str,
    mode: &str,
    threads: usize,
    items: usize,
    elapsed: f64,
    speedup: f64,
) {
    let row = StoragebenchMeasurement {
        section: section.to_string(),
        mode: mode.to_string(),
        threads,
        items,
        elapsed_ms: elapsed * 1_000.0,
        per_sec: items as f64 / elapsed,
        speedup,
    };
    println!("{}", row.tsv_row());
    results.push(row);
}

/// Average seconds per block over `blocks` runs (after one warm-up) on any
/// storage backend — the same engine serves all three, through `Storage`.
fn timed_blocks<S>(
    threads: usize,
    block: &[EthTransferTransaction],
    storage: &S,
    blocks: usize,
) -> f64
where
    S: Storage<AccessPath, StateValue>,
{
    let executor = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(threads)
        .build();
    executor.execute_block(block, storage).expect("warm-up");
    let start = Instant::now();
    for _ in 0..blocks {
        executor
            .execute_block(block, storage)
            .expect("block executes");
    }
    start.elapsed().as_secs_f64() / blocks as f64
}

/// A synthetic committed-output stream: two account-resource writes per event,
/// cycling over a bounded address pool (so the log's index stays realistic).
fn synthetic_outputs(
    events: usize,
    accounts: u64,
) -> Vec<TransactionOutput<AccessPath, StateValue>> {
    (0..events)
        .map(|i| {
            let address = AccountAddress::from_index((i as u64 % accounts) + 1);
            TransactionOutput {
                writes: vec![
                    WriteOp::new(
                        AccessPath::balance(address),
                        StateValue::U64(1_000_000 + i as u64),
                    ),
                    WriteOp::new(
                        AccessPath::sequence_number(address),
                        StateValue::U64(i as u64),
                    ),
                ],
                ..TransactionOutput::empty()
            }
        })
        .collect()
}

/// Feeds every output through the sink as an in-order commit stream.
fn drive_commits(
    sink: &dyn CommitSink<AccessPath, StateValue>,
    outputs: &[TransactionOutput<AccessPath, StateValue>],
) {
    sink.begin_block(outputs.len());
    for (txn_idx, output) in outputs.iter().enumerate() {
        sink.on_commit(&CommitEvent {
            txn_idx,
            output,
            resolved_deltas: &[],
            execution_cursor: txn_idx + 1,
        });
    }
    sink.end_block(outputs.len());
}

fn main() {
    let quick = quick_mode();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    let accounts: u64 = if quick { 500 } else { 2_000 };
    let block_size = if quick { 300 } else { 1_000 };
    let blocks = if quick { 2 } else { 8 };
    let read_rounds = if quick { 20 } else { 50 };
    let persist_events = if quick { 800 } else { 8_000 };

    println!(
        "# storagebench: disk tier vs RAM, {threads} threads, {accounts} accounts, \
         {block_size} txns per block, {persist_events} persisted commit events"
    );
    println!("{}", tsv_header());
    let mut results = Vec::new();
    let dir = TempDir::new("storagebench");

    // --- execute: one block, three storage backends -------------------------
    let workload = EthTransferWorkload::new(accounts, block_size);
    let (mem, block) = workload.generate();
    let store = Arc::new(DiskStorage::open(dir.path().join("exec.log")).expect("open log store"));
    store
        .ingest_genesis(&workload.genesis_builder())
        .expect("ingest genesis");

    let mem_avg = timed_blocks(threads, &block, &mem, blocks);
    push_row(
        &mut results,
        "execute",
        "in-memory",
        threads,
        block_size,
        mem_avg,
        1.0,
    );

    let cold_avg = timed_blocks(threads, &block, &*store, blocks);
    push_row(
        &mut results,
        "execute",
        "logstore-cold",
        threads,
        block_size,
        cold_avg,
        mem_avg / cold_avg,
    );

    let cache = BlockCache::new(store.clone());
    cache
        .prefetch_declared(&block)
        .expect("prefetch declared write-sets");
    let cached_avg = timed_blocks(threads, &block, &cache, blocks);
    push_row(
        &mut results,
        "execute",
        "blockcache-prefetched",
        threads,
        block_size,
        cached_avg,
        mem_avg / cached_avg,
    );

    // --- read: the isolated base-read path ----------------------------------
    let keys = store.keys();
    let reads = keys.len() * read_rounds;

    let start = Instant::now();
    let mut present = 0usize;
    for _ in 0..read_rounds {
        for key in &keys {
            if black_box(store.get_value(key).expect("read")).is_some() {
                present += 1;
            }
        }
    }
    let cold_elapsed = start.elapsed().as_secs_f64();
    assert_eq!(present, reads, "every genesis key resolves");
    push_row(
        &mut results,
        "read",
        "logstore-cold",
        1,
        reads,
        cold_elapsed,
        1.0,
    );

    let cache = BlockCache::new(store.clone());
    let prefetched = cache.prefetch(keys.iter().cloned()).expect("prefetch");
    assert_eq!(prefetched, keys.len());
    let start = Instant::now();
    let mut present = 0usize;
    for _ in 0..read_rounds {
        for key in &keys {
            if black_box(cache.get(key)).is_some() {
                present += 1;
            }
        }
    }
    let cached_elapsed = start.elapsed().as_secs_f64();
    assert_eq!(present, reads);
    push_row(
        &mut results,
        "read",
        "blockcache-prefetched",
        1,
        reads,
        cached_elapsed,
        cold_elapsed / cached_elapsed,
    );

    // --- persist: the commit write path -------------------------------------
    let outputs = synthetic_outputs(persist_events, accounts);

    let sync_store =
        Arc::new(DiskStorage::open(dir.path().join("sync.log")).expect("open sync log"));
    let sync_sink = SyncPersistSink::new(sync_store.clone());
    let start = Instant::now();
    drive_commits(&sync_sink, &outputs);
    let durable = sync_sink.flush().expect("sync flush");
    let sync_elapsed = start.elapsed().as_secs_f64();
    assert_eq!(durable, persist_events as u64);
    push_row(
        &mut results,
        "persist",
        "sync",
        1,
        persist_events,
        sync_elapsed,
        1.0,
    );

    let wb_store = Arc::new(DiskStorage::open(dir.path().join("wb.log")).expect("open wb log"));
    let wb_sink = WriteBehindSink::new(wb_store.clone());
    let start = Instant::now();
    drive_commits(&wb_sink, &outputs);
    let durable = wb_sink.flush().expect("write-behind flush");
    let wb_elapsed = start.elapsed().as_secs_f64();
    assert_eq!(durable, persist_events as u64);
    push_row(
        &mut results,
        "persist",
        "write-behind",
        1,
        persist_events,
        wb_elapsed,
        sync_elapsed / wb_elapsed,
    );

    // Both write paths persisted identical final state.
    for key in sync_store.keys() {
        assert_eq!(
            sync_store.get_value(&key).expect("sync read"),
            wb_store.get_value(&key).expect("wb read"),
            "write paths diverged at {key:?}"
        );
    }

    println!(
        "# json: {}",
        serde_json::to_string(&results).expect("measurements serialize")
    );
}
