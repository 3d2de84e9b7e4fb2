//! Disk-tier integration: every engine executing **directly against a
//! [`LogStore`]** must produce byte-for-byte the result it produces over
//! [`InMemoryStorage`], the write-behind commit path must persist exactly the
//! committed prefix (including `BlockLimiter` cuts and materialized delta
//! values), and a simulated crash at a batch boundary must recover to the
//! durable watermark.
//!
//! Notably, *no change to `block-stm-vm` or to any engine was needed* to put
//! the block base on disk: [`LogStore`] and [`BlockCache`] implement the same
//! `Storage` trait the in-memory substrate does, so the executors below are
//! the unmodified engines from the conformance battery, handed a disk-backed
//! storage argument.
//!
//! Crash/recovery failing seeds persist to
//! `proptest-regressions/persistence.txt`.

use block_stm::{
    BlockExecutor, BlockGasLimit, BlockStmBuilder, CommitEvent, CommitSink, SequentialExecutor, Vm,
};
use block_stm_baselines::BohmExecutor;
use block_stm_persist::testing::TempDir;
use block_stm_persist::{BlockCache, LogStore, WriteBehindSink};
use block_stm_storage::{AccessPath, GenesisBuilder, InMemoryStorage, StateValue, Storage};
use block_stm_workloads::accounts::AccountTransaction;
use block_stm_workloads::{ConservationOracle, Erc20Workload, EthTransferWorkload, FeeMode};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

type AccountStorage = InMemoryStorage<AccessPath, StateValue>;
type DiskStorage = LogStore<AccessPath, StateValue>;
type DiskEngines<T> = Vec<(&'static str, Box<dyn BlockExecutor<T, DiskStorage>>)>;

/// Opens a fresh log store under `dir` and writes `genesis` through it.
fn disk_genesis(
    dir: &TempDir,
    file: &str,
    workload_genesis: &GenesisBuilder,
    mem: &AccountStorage,
) -> Arc<DiskStorage> {
    let store = Arc::new(DiskStorage::open(dir.path().join(file)).unwrap());
    let ingested = store.ingest_genesis(workload_genesis).unwrap();
    assert_eq!(ingested as usize, mem.len(), "genesis resource count");
    assert_eq!(store.len(), mem.len());
    // The disk genesis is byte-for-byte the in-memory genesis.
    for (key, value) in mem.iter() {
        assert_eq!(
            store.get_value(key).unwrap().as_ref(),
            Some(value),
            "genesis mismatch on disk at {key:?}"
        );
    }
    store
}

/// Reads every key of a (reopened) log store back into an in-memory storage,
/// so in-memory oracles can run against the disk state.
fn materialize(store: &DiskStorage) -> AccountStorage {
    let mut mem = AccountStorage::with_capacity(store.len());
    for key in store.keys() {
        let value = store.get_value(&key).unwrap().expect("indexed key present");
        mem.insert(key, value);
    }
    mem
}

/// The disk conformance battery: sequential, Block-STM and (on delta-free
/// blocks) Bohm all execute against the `LogStore` directly — plus one
/// Block-STM run through a prefetched [`BlockCache`] — and
/// every result must equal the in-memory sequential reference byte for byte.
/// Afterwards the store is *reopened* (index rebuilt by replay) and the
/// [`ConservationOracle`] re-judges the reference output over the recovered
/// pre-state.
fn disk_conformance_battery<T: AccountTransaction>(
    name: &str,
    block: &[T],
    mem: &AccountStorage,
    genesis: &GenesisBuilder,
    oracle: &ConservationOracle,
    include_bohm: bool,
) {
    let dir = TempDir::new("disk-battery");
    let store = disk_genesis(&dir, "state.log", genesis, mem);

    let sequential = SequentialExecutor::new(Vm::for_testing());
    let reference = sequential.execute_block(block, mem).unwrap();

    for threads in [1usize, 2, 4, 8] {
        let mut engines: DiskEngines<T> = vec![
            (
                "sequential",
                Box::new(SequentialExecutor::new(Vm::for_testing())),
            ),
            (
                "block-stm",
                Box::new(
                    BlockStmBuilder::new(Vm::for_testing())
                        .concurrency(threads)
                        .build(),
                ),
            ),
        ];
        if include_bohm {
            engines.push((
                "bohm",
                Box::new(BohmExecutor::new(Vm::for_testing(), threads)),
            ));
        }
        for (label, engine) in engines {
            let output = engine.execute_block(block, &store).unwrap_or_else(|error| {
                panic!("[{name}] {label} on disk at {threads} threads failed: {error}")
            });
            assert_eq!(
                output.updates, reference.updates,
                "[{name}] {label} on disk at {threads} threads diverged from the in-memory reference"
            );
            assert_eq!(output.outputs.len(), reference.outputs.len());
            for (idx, (d, m)) in output
                .outputs
                .iter()
                .zip(reference.outputs.iter())
                .enumerate()
            {
                assert_eq!(d.writes, m.writes, "[{name}] {label}@{threads} txn {idx}");
                assert_eq!(d.deltas, m.deltas, "[{name}] {label}@{threads} txn {idx}");
                assert_eq!(
                    d.abort_code, m.abort_code,
                    "[{name}] {label}@{threads} txn {idx}"
                );
            }
        }

        // Read-through cache over the same store, prefetched from the block's
        // declared write-sets: same bytes, and the prefetch actually primed it.
        let cache = BlockCache::new(store.clone());
        cache.begin_block();
        let prefetched = cache.prefetch_declared(block).unwrap();
        assert!(prefetched > 0, "[{name}] declared prefetch primed nothing");
        let engine = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build();
        let output = engine.execute_block(block, &cache).unwrap();
        assert_eq!(
            output.updates, reference.updates,
            "[{name}] block-stm through BlockCache at {threads} threads diverged"
        );
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "[{name}] cached run never hit the cache: {stats:?}"
        );
    }

    // The battery only read: the log must still be exactly genesis, and a
    // *reopened* store (fresh handle, index rebuilt by replay) must satisfy
    // the conservation oracle as the pre-state of the reference execution.
    let reopened = DiskStorage::open(store.path()).unwrap();
    assert_eq!(reopened.len(), mem.len());
    assert_eq!(reopened.recovery().truncated_bytes, 0);
    let recovered_pre = materialize(&reopened);
    for (key, value) in mem.iter() {
        assert_eq!(recovered_pre.get(key).as_ref(), Some(value), "{key:?}");
    }
    oracle
        .check(
            &recovered_pre,
            block,
            &reference.updates,
            &reference.outputs,
        )
        .unwrap_or_else(|violation| {
            panic!("[{name}] oracle over the reopened pre-state: {violation}")
        });
}

fn eth_oracle(workload: &EthTransferWorkload) -> ConservationOracle {
    ConservationOracle::new().with_beneficiary(workload.beneficiary())
}

#[test]
fn eth_transfer_blocks_conform_on_disk() {
    let workload = EthTransferWorkload::new(40, 250).with_failures(5, 5);
    let (mem, block) = workload.generate();
    disk_conformance_battery(
        "eth-disk",
        &block,
        &mem,
        &workload.genesis_builder(),
        &eth_oracle(&workload),
        false,
    );
}

#[test]
fn erc20_rmw_blocks_conform_on_disk_including_bohm() {
    let workload = Erc20Workload::new(60, 250)
        .with_fee_mode(FeeMode::ReadModifyWrite)
        .with_mix(50, 20);
    let (mem, block) = workload.generate();
    let oracle = ConservationOracle::new()
        .with_beneficiary(workload.beneficiary())
        .with_token(workload.token);
    disk_conformance_battery(
        "erc20-disk",
        &block,
        &mem,
        &workload.genesis_builder(),
        &oracle,
        true,
    );
}

/// Waits (bounded) until the store's durable watermark reaches `events`,
/// without flushing anything.
fn await_durable(store: &DiskStorage, events: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.durable_watermark() < events {
        assert!(
            Instant::now() < deadline,
            "durable watermark stuck at {} of {events} without a flush",
            store.durable_watermark()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        store.durable_watermark(),
        events,
        "nothing beyond the stream"
    );
}

/// One streamed commit: the transaction index and its materialized deltas.
type StreamedCommit = (usize, Vec<(AccessPath, StateValue)>);

#[derive(Default)]
struct FeeSink {
    commits: Mutex<Vec<StreamedCommit>>,
}

impl CommitSink<AccessPath, StateValue> for FeeSink {
    fn on_commit(&self, event: &CommitEvent<'_, AccessPath, StateValue>) {
        self.commits
            .lock()
            .push((event.txn_idx, event.resolved_deltas.to_vec()));
    }
}

/// The full write-behind loop on an untruncated block: the engine executes
/// against the same `LogStore` the [`WriteBehindSink`] appends to (committed
/// writes are frozen in multi-version memory, so in-flight transactions never
/// observe the mid-block appends), a [`FeeSink`] rides along through the
/// builder's sink fan-out, and after `flush` a reopened store holds exactly
/// genesis + the block's committed updates.
#[test]
fn write_behind_sink_persists_the_whole_block_through_the_store_it_reads() {
    let workload = EthTransferWorkload::new(30, 200).with_failures(5, 5);
    let (mem, block) = workload.generate();
    let sequential = SequentialExecutor::new(Vm::for_testing());
    let reference = sequential.execute_block(&block, &mem).unwrap();

    let dir = TempDir::new("write-behind");
    let store = disk_genesis(&dir, "state.log", &workload.genesis_builder(), &mem);
    let wb = Arc::new(WriteBehindSink::new(store.clone()).with_batch_events(16));
    let fees = Arc::new(FeeSink::default());
    let executor = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(4)
        .commit_sink::<AccessPath, StateValue>(fees.clone())
        .commit_sink::<AccessPath, StateValue>(wb.clone())
        .build();

    let output = executor.execute_block(&block, &*store).unwrap();
    assert_eq!(output.updates, reference.updates);
    // Both fanned-out sinks saw every commit, in preset order.
    let commits = fees.commits.lock();
    assert_eq!(commits.len(), block.len());
    assert!(commits.iter().enumerate().all(|(i, (idx, _))| i == *idx));
    drop(commits);

    let durable = wb.flush().unwrap();
    assert_eq!(durable, block.len() as u64);

    let reopened = DiskStorage::open(store.path()).unwrap();
    assert_eq!(reopened.durable_watermark(), block.len() as u64);
    let mut expected = mem.clone();
    expected.apply_updates(reference.updates.iter().cloned());
    assert_eq!(reopened.len(), expected.len());
    let recovered = materialize(&reopened);
    for (key, value) in expected.iter() {
        assert_eq!(recovered.get(key).as_ref(), Some(value), "{key:?}");
    }
}

/// PR 6's cut × delta regression, extended to disk: a `BlockGasLimit`
/// truncation on a block with pending beneficiary fee *deltas*, executed
/// directly over the log store with a write-behind sink attached, must leave
/// the log holding **exactly** the committed prefix — durable as soon as the
/// cut block's stream ends, before any flush — with the beneficiary balance
/// as a materialized value (the running fee total), never a raw delta.
#[test]
fn gas_limit_cut_persists_exactly_the_committed_prefix_with_materialized_deltas() {
    let workload = EthTransferWorkload::new(30, 200).with_failures(5, 5);
    let (mem, block) = workload.generate();
    let beneficiary_path = AccessPath::balance(workload.beneficiary());
    let sequential = SequentialExecutor::new(Vm::for_testing());
    let full = sequential.execute_block(&block, &mem).unwrap();
    let total_gas: u64 = full.outputs.iter().map(|o| o.gas_used).sum();

    let dir = TempDir::new("cut-delta");
    for cut_pct in [20u64, 55, 90] {
        let budget = total_gas * cut_pct / 100;
        let mut expected_cut = block.len();
        let mut used = 0u64;
        for (idx, output) in full.outputs.iter().enumerate() {
            if used + output.gas_used > budget {
                expected_cut = idx;
                break;
            }
            used += output.gas_used;
        }

        for threads in [1usize, 4] {
            // A fresh store per run: the sink mutates it.
            let file = format!("cut-{cut_pct}-{threads}.log");
            let store = disk_genesis(&dir, &file, &workload.genesis_builder(), &mem);
            let wb = Arc::new(WriteBehindSink::new(store.clone()).with_batch_events(8));
            let fees = Arc::new(FeeSink::default());
            let executor = BlockStmBuilder::new(Vm::for_testing())
                .concurrency(threads)
                .block_limiter::<AccessPath, StateValue>(Arc::new(BlockGasLimit::new(budget)))
                .commit_sink::<AccessPath, StateValue>(fees.clone())
                .commit_sink::<AccessPath, StateValue>(wb.clone())
                .build();

            let output = executor.execute_block(&block, &*store).unwrap();
            let cut = output.truncated_at.unwrap_or(block.len());
            assert_eq!(cut, expected_cut, "cut at {cut_pct}%, {threads} threads");
            assert_eq!(fees.commits.lock().len(), cut);

            let truncated = sequential.execute_block(&block[..cut], &mem).unwrap();
            assert_eq!(output.updates, truncated.updates);

            // The admitted prefix goes to the persister when the cut block's
            // stream ends (`end_block`): it becomes durable with no flush.
            await_durable(&store, cut as u64);

            // Durability barrier, then recover from a fresh handle.
            let durable = wb.flush().unwrap();
            assert_eq!(durable, cut as u64, "watermark counts committed events");
            let reopened = DiskStorage::open(store.path()).unwrap();
            assert_eq!(reopened.durable_watermark(), cut as u64);

            // The log holds exactly genesis + the truncated prefix's updates:
            // nothing from beyond the cut, nothing missing.
            let mut expected = mem.clone();
            expected.apply_updates(truncated.updates.iter().cloned());
            assert_eq!(reopened.len(), expected.len(), "cut {cut_pct}%");
            let recovered = materialize(&reopened);
            for (key, value) in expected.iter() {
                assert_eq!(
                    recovered.get(key).as_ref(),
                    Some(value),
                    "cut {cut_pct}% at {threads} threads, key {key:?}"
                );
            }

            // The beneficiary's fee deltas were persisted materialized: the
            // running sequential fee total as a concrete value.
            let committed_fees =
                truncated.outputs.iter().filter(|o| !o.is_aborted()).count() as u128;
            if committed_fees > 0 {
                let running =
                    workload.initial_balance as u128 + committed_fees * workload.fee as u128;
                assert_eq!(
                    recovered.get(&beneficiary_path),
                    Some(StateValue::U128(running)),
                    "beneficiary total on disk after cut at {cut_pct}%"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash/recovery: a random account block streams through a write-behind
    /// sink whose persister "dies" (silently stops appending — no `abort()`)
    /// after a random number of batches. Reopening the log must recover
    /// exactly the sequential reference state of the first
    /// `durable_watermark()` transactions — no more, no less.
    #[test]
    fn crash_at_a_batch_boundary_recovers_the_durable_prefix(
        num_accounts in 2u64..30,
        block_size in 10usize..80,
        seed in any::<u64>(),
        batch_events in 1u64..16,
        crash_after in 0u64..20,
        threads in 1usize..5,
        bad_nonce in 0u8..20,
        insufficient in 0u8..20,
    ) {
        let workload = EthTransferWorkload::new(num_accounts, block_size)
            .with_seed(seed)
            .with_failures(bad_nonce, insufficient);
        let (mem, block) = workload.generate();

        let dir = TempDir::new("crash-recovery");
        let path = dir.path().join("state.log");
        let store = Arc::new(DiskStorage::open(&path).unwrap());
        store.ingest_genesis(&workload.genesis_builder()).unwrap();
        let sink = Arc::new(
            WriteBehindSink::new(store.clone())
                .with_batch_events(batch_events)
                .with_crash_after_batches(crash_after),
        );
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .commit_sink::<AccessPath, StateValue>(sink.clone())
            .build();
        let output = executor.execute_block(&block, &*store).unwrap();
        prop_assert_eq!(output.outputs.len(), block.len());

        // The simulated crash is silent: flush still acks, with the watermark
        // frozen at the last durable batch — always a batch boundary.
        let durable = sink.flush().unwrap();
        let expected_durable = (crash_after * batch_events).min(block.len() as u64);
        prop_assert_eq!(durable, expected_durable);
        drop(sink);
        drop(store);

        // Reopen: replay rebuilds the index; the recovered state must equal
        // genesis + the sequential execution of the first `durable` txns.
        let reopened: DiskStorage = DiskStorage::open(&path).unwrap();
        prop_assert_eq!(reopened.durable_watermark(), durable);
        let reference = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&block[..durable as usize], &mem)
            .unwrap();
        let mut expected = mem.clone();
        expected.apply_updates(reference.updates.iter().cloned());
        prop_assert_eq!(reopened.len(), expected.len());
        for (key, value) in expected.iter() {
            let on_disk = reopened.get_value(key).unwrap();
            prop_assert_eq!((key, on_disk.as_ref()), (key, Some(value)));
        }
    }
}
