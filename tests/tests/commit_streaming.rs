//! Commit-ladder integration suite: streamed commit order, early halt via
//! `BlockLimiter`, and commit-lag metrics.
//!
//! The acceptance bar of the scheduler's rolling-commit redesign:
//!
//! * the streamed commit order is `0..n`, **exactly once per transaction**, under
//!   arbitrary (property-generated) blocks — whose conflicts induce random abort
//!   schedules — at 1–8 threads;
//! * a `BlockGasLimit` cut mid-block produces exactly the sequential execution of
//!   the truncated block;
//! * the commit-lag and committed-prefix-read metrics are populated;
//! * every sink (directly attached or behind a `MultiSink`) sees each block as
//!   `begin_block(n)`, its commits in order, then `end_block(m)` — `m` the cut
//!   point after a limiter cut — before the next block begins;
//! * at one worker, where every block runs through the sequential loop, the
//!   hooks fire exactly as the ladder fires them: the same call order, the
//!   same cut, the same materialized deltas, the same typed errors and the
//!   same panic containment.

use block_stm::{
    BlockFeed, BlockGasLimit, BlockStmBuilder, CommitEvent, CommitSink, ExecutionError,
    ExecutionFailure, MultiSink, SequentialExecutor, StateReader, Transaction, TransactionContext,
    Vm,
};
use block_stm_storage::InMemoryStorage;
use block_stm_tests::{expected_calls, HookCall, HookLog};
use block_stm_vm::synthetic::SyntheticTransaction;
use block_stm_workloads::{
    CommitStallWorkload, DeltaHotspotWorkload, EthTransferWorkload, LongChainWorkload,
    SyntheticWorkload,
};
use parking_lot::Mutex;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

const KEYS: u64 = 10;

/// Conflict-heavy arbitrary transactions: a small key universe plus deterministic
/// aborts makes validation failures (and therefore random abort schedules inside the
/// engine) common.
fn arb_txn() -> impl Strategy<Value = SyntheticTransaction> {
    (
        vec(0..KEYS, 0..4),
        vec(0..KEYS, 1..3),
        vec(0..KEYS, 0..2),
        any::<u64>(),
        prop_oneof![Just(None), (2u64..5).prop_map(Some)],
    )
        .prop_map(
            |(reads, writes, conditional, salt, abort)| SyntheticTransaction {
                reads,
                writes,
                conditional_writes: conditional,
                salt,
                extra_gas: 0,
                abort_when_divisible_by: abort,
                deltas: vec![],
                delta_limit: u64::MAX as u128,
            },
        )
}

fn initial_storage() -> InMemoryStorage<u64, u64> {
    (0..KEYS).map(|k| (k, k * 13 + 5)).collect()
}

/// A sink recording the exact stream of committed indices.
#[derive(Default)]
struct OrderSink {
    commits: Mutex<Vec<usize>>,
    max_lag: Mutex<usize>,
}

impl CommitSink<u64, u64> for OrderSink {
    fn begin_block(&self, _block_size: usize) {
        self.commits.lock().clear();
        *self.max_lag.lock() = 0;
    }

    fn on_commit(&self, event: &CommitEvent<'_, u64, u64>) {
        self.commits.lock().push(event.txn_idx);
        let mut max_lag = self.max_lag.lock();
        *max_lag = (*max_lag).max(event.commit_lag());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole property: under random abort schedules, the streamed commit
    /// order is `0..n` exactly once, at every thread count.
    #[test]
    fn streamed_commit_order_is_the_preset_order(
        block in vec(arb_txn(), 1..50),
        threads in 1usize..9,
    ) {
        let storage = initial_storage();
        let sink = Arc::new(OrderSink::default());
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .commit_sink::<u64, u64>(sink.clone())
            .build();
        let output = executor.execute_block(&block, &storage).unwrap();
        let commits = sink.commits.lock();
        prop_assert_eq!(&*commits, &(0..block.len()).collect::<Vec<_>>());
        // And the streamed prefix is the real committed result.
        let sequential = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&block, &storage)
            .unwrap();
        prop_assert_eq!(output.updates, sequential.updates);
        prop_assert_eq!(output.metrics.committed_txns, block.len() as u64);
    }

    /// A `BlockGasLimit` cut anywhere in the block equals the sequential engine run
    /// on the truncated block — transactions past the cut are cleanly excluded.
    #[test]
    fn gas_limit_cut_matches_sequential_on_the_truncated_block(
        block in vec(arb_txn(), 2..40),
        threads in 1usize..9,
        cut_fraction in 1u64..100,
    ) {
        let storage = initial_storage();
        let sequential = SequentialExecutor::new(Vm::for_testing());
        let full = sequential.execute_block(&block, &storage).unwrap();
        let total_gas: u64 = full.outputs.iter().map(|o| o.gas_used).sum();
        let budget = total_gas * cut_fraction / 100;
        // The deterministic expected cut: longest prefix within budget.
        let mut expected_cut = block.len();
        let mut used = 0u64;
        for (idx, output) in full.outputs.iter().enumerate() {
            if used + output.gas_used > budget {
                expected_cut = idx;
                break;
            }
            used += output.gas_used;
        }

        let limiter = Arc::new(BlockGasLimit::new(budget));
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .block_limiter::<u64, u64>(limiter)
            .build();
        let output = executor.execute_block(&block, &storage).unwrap();
        let cut = output.truncated_at.unwrap_or(block.len());
        prop_assert_eq!(cut, expected_cut);
        prop_assert_eq!(output.outputs.len(), cut);
        let truncated = sequential.execute_block(&block[..cut], &storage).unwrap();
        prop_assert_eq!(output.updates, truncated.updates);
        for (p, s) in output.outputs.iter().zip(truncated.outputs.iter()) {
            prop_assert_eq!(&p.writes, &s.writes);
            prop_assert_eq!(p.abort_code, s.abort_code);
        }
    }

    /// The sink hook contract: one executor runs the block, an empty block and
    /// the block again; each sink sees exactly `begin(n)`, commits `0..m`,
    /// `end(m)` per block, with `m` the limiter's cut point when one bites —
    /// also through a `MultiSink`.
    #[test]
    fn sinks_see_begin_commits_end_per_block(
        block in vec(arb_txn(), 0..40),
        threads in 1usize..9,
        with_cut in any::<bool>(),
        cut_pct in 0u64..100,
    ) {
        let storage = initial_storage();
        let direct = Arc::new(HookLog::default());
        let fanned = Arc::new(HookLog::default());
        let mut builder = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .commit_sink::<u64, u64>(direct.clone())
            .commit_sink::<u64, u64>(Arc::new(MultiSink::new().with(fanned.clone())));
        if with_cut {
            let full = SequentialExecutor::new(Vm::for_testing())
                .execute_block(&block, &storage)
                .unwrap();
            let total_gas: u64 = full.outputs.iter().map(|o| o.gas_used).sum();
            let budget = total_gas * cut_pct / 100;
            builder = builder.block_limiter::<u64, u64>(Arc::new(BlockGasLimit::new(budget)));
        }
        let executor = builder.build();
        let mut shapes = Vec::new();
        for run in [&block[..], &[], &block[..]] {
            let output = executor.execute_block(run, &storage).unwrap();
            shapes.push((run.len(), output.truncated_at.unwrap_or(run.len())));
        }
        let expected = expected_calls(&shapes);
        prop_assert_eq!(direct.calls(), expected.clone());
        prop_assert_eq!(fanned.calls(), expected);
    }
}

/// The hook contract at every thread count 1–8, with and without a gas cut
/// mid-block, over a conflict-heavy synthetic block.
#[test]
fn hook_contract_holds_at_every_thread_count() {
    let storage = initial_storage();
    let block = SyntheticWorkload::new(KEYS, 60)
        .with_seed(0x23)
        .generate_block();
    let full = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    let half_gas: u64 = full.outputs.iter().map(|o| o.gas_used).sum::<u64>() / 2;
    for threads in 1usize..=8 {
        for budget in [None, Some(half_gas)] {
            let log = Arc::new(HookLog::default());
            let mut builder = BlockStmBuilder::new(Vm::for_testing())
                .concurrency(threads)
                .commit_sink::<u64, u64>(log.clone());
            if let Some(budget) = budget {
                builder = builder.block_limiter::<u64, u64>(Arc::new(BlockGasLimit::new(budget)));
            }
            let executor = builder.build();
            let mut shapes = Vec::new();
            for _ in 0..3 {
                let output = executor.execute_block(&block, &storage).unwrap();
                assert_eq!(output.is_truncated(), budget.is_some(), "{threads} threads");
                shapes.push((block.len(), output.truncated_at.unwrap_or(block.len())));
            }
            assert_eq!(
                log.calls(),
                expected_calls(&shapes),
                "{threads} threads, budget {budget:?}"
            );
            // One worker runs every block through the sequential loop, never
            // on the pool.
            assert_eq!(
                executor.dispatches() == 0,
                threads == 1,
                "{threads} threads"
            );
        }
    }
}

/// The long-chain workload (every transaction depends on txn 0) streams in order
/// and hits the committed-prefix fast path heavily once the hub commits.
#[test]
fn long_chain_streams_in_order_with_prefix_reads() {
    let workload = LongChainWorkload::new(300);
    let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
    let block = workload.generate_block();
    for threads in [1usize, 2, 4, 8] {
        let sink = Arc::new(OrderSink::default());
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .commit_sink::<u64, u64>(sink.clone())
            .build();
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(
            *sink.commits.lock(),
            (0..300).collect::<Vec<_>>(),
            "stream order at {threads} threads"
        );
        let oracle = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&block, &storage)
            .unwrap();
        assert_eq!(output.updates, oracle.updates, "{threads} threads");
        assert_eq!(output.metrics.committed_txns, 300);
    }
}

/// The commit-lag metrics satellite: a commit-stall block must record commits for
/// every transaction, and with multiple workers the execution cursor provably runs
/// ahead of the commit point (positive lag).
#[test]
fn commit_stall_records_commit_lag_metrics() {
    let workload = CommitStallWorkload::front_staller(200, 50_000);
    let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
    let block = workload.generate_block();
    let executor = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(4)
        .build();
    let metrics = executor.execute_block(&block, &storage).unwrap().metrics;
    assert_eq!(metrics.committed_txns, 200);
    assert!(
        metrics.commit_lag_max >= 1,
        "execution must run ahead of the stalled commit point (max lag {})",
        metrics.commit_lag_max
    );
    assert!(metrics.avg_commit_lag() > 0.0);
    assert!(metrics.commit_lag_sum >= metrics.commit_lag_max);
}

/// Sinks and arena reuse compose: one executor streams many blocks back to back,
/// with `begin_block` re-arming the sink in between.
#[test]
fn streaming_survives_arena_reuse_across_blocks() {
    let sink = Arc::new(OrderSink::default());
    let executor = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(4)
        .commit_sink::<u64, u64>(sink.clone())
        .build();
    let mut storage: InMemoryStorage<u64, u64> = initial_storage();
    for round in 0..10u64 {
        let workload = SyntheticWorkload::new(KEYS, 40).with_seed(0x5000 + round);
        let block = workload.generate_block();
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(
            *sink.commits.lock(),
            (0..40).collect::<Vec<_>>(),
            "round {round}"
        );
        storage.apply_updates(output.updates.iter().cloned());
    }
}

/// One streamed commit: index, materialized deltas and execution cursor.
type DeltaCommit = (usize, Vec<(u64, u64)>, usize);

/// A sink collecting every commit's materialized deltas.
#[derive(Default)]
struct ResolvedSink(Mutex<Vec<DeltaCommit>>);

impl CommitSink<u64, u64> for ResolvedSink {
    fn on_commit(&self, event: &CommitEvent<'_, u64, u64>) {
        self.0.lock().push((
            event.txn_idx,
            event.resolved_deltas.to_vec(),
            event.execution_cursor,
        ));
    }
}

/// The materialized deltas a sink receives at one worker equal Block-STM's at
/// two workers, and the execution cursor sits one past each commit.
#[test]
fn one_worker_streams_the_same_resolved_deltas_as_block_stm() {
    let workload = DeltaHotspotWorkload::new(120, 3).with_read_your_delta_pct(30);
    let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
    let block = workload.generate_block();
    let streamed = |threads: usize| {
        let sink = Arc::new(ResolvedSink::default());
        let output = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .commit_sink::<u64, u64>(sink.clone())
            .build()
            .execute_block(&block, &storage)
            .unwrap();
        let commits = std::mem::take(&mut *sink.0.lock());
        (output, commits)
    };
    let (sequential, sequential_commits) = streamed(1);
    assert!(
        sequential_commits
            .iter()
            .any(|(_, resolved, _)| !resolved.is_empty()),
        "the block must carry deltas"
    );
    for (idx, (txn_idx, _, cursor)) in sequential_commits.iter().enumerate() {
        assert_eq!(*txn_idx, idx);
        assert_eq!(*cursor, idx + 1, "the cursor sits one past the commit");
    }
    let resolved = |commits: &[DeltaCommit]| -> Vec<(usize, Vec<(u64, u64)>)> {
        commits
            .iter()
            .map(|(idx, resolved, _)| (*idx, resolved.clone()))
            .collect()
    };
    let (speculative, commits) = streamed(2);
    assert_eq!(speculative.updates, sequential.updates);
    assert_eq!(resolved(&commits), resolved(&sequential_commits));
}

/// Hooks typed for another state model fail a one-worker block with the same
/// typed errors as Block-STM, and the executor stays usable.
#[test]
fn one_worker_reports_both_typed_hook_mismatches() {
    let (account_storage, account_block) = EthTransferWorkload::new(8, 16).generate();
    let storage = initial_storage();
    let block = SyntheticWorkload::new(KEYS, 20).generate_block();
    let sink = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(1)
        .commit_sink::<u64, u64>(Arc::new(HookLog::default()))
        .build();
    let limiter = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(1)
        .block_limiter::<u64, u64>(Arc::new(BlockGasLimit::new(u64::MAX)))
        .build();
    for (executor, hook) in [(sink, "CommitSink"), (limiter, "BlockLimiter")] {
        match executor.execute_block(&account_block, &account_storage) {
            Err(ExecutionError::HookStateModelMismatch { hook: reported }) => {
                assert_eq!(reported, hook)
            }
            other => panic!("expected a {hook} mismatch, got {other:?}"),
        }
        let chain: Vec<Vec<_>> = vec![account_block.clone()];
        match executor.execute_chain(&chain, &account_storage) {
            Err(ExecutionError::HookStateModelMismatch { hook: reported }) => {
                assert_eq!(reported, hook)
            }
            other => panic!("expected a {hook} mismatch on a chain, got {other:?}"),
        }
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(output.num_txns(), 20, "{hook}: the executor survives");
    }
}

/// A transaction that panics when told to.
struct PanickingTxn {
    panics: bool,
}

impl Transaction for PanickingTxn {
    type Key = u64;
    type Value = u64;

    fn execute<R: StateReader<u64, u64>>(
        &self,
        ctx: &mut TransactionContext<'_, u64, u64, R>,
    ) -> Result<(), ExecutionFailure> {
        if self.panics {
            panic!("one-worker transaction logic exploded");
        }
        ctx.write(1, 1);
        Ok(())
    }
}

/// A panicking transaction fails a one-worker block or stream with
/// `WorkerPanic`, its block never ends, and the executor stays usable.
#[test]
fn one_worker_contains_a_panicking_transaction() {
    let storage = initial_storage();
    let log = Arc::new(HookLog::default());
    let executor = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(1)
        .commit_sink::<u64, u64>(log.clone())
        .build();
    let bad: Vec<PanickingTxn> = (0..4).map(|i| PanickingTxn { panics: i == 2 }).collect();
    let expect_panic = |result: Result<(), ExecutionError>| match result {
        Err(ExecutionError::WorkerPanic { workers, detail }) => {
            assert_eq!(workers, 1);
            assert!(detail.contains("exploded"), "detail: {detail}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    };
    expect_panic(executor.execute_block(&bad, &storage).map(|_| ()));
    assert_eq!(
        log.calls(),
        vec![HookCall::Begin(4), HookCall::Commit(0), HookCall::Commit(1)],
        "the failed block's deliveries are abandoned without end_block"
    );
    let pending = Mutex::new(Some(bad));
    let source = move || match pending.lock().take() {
        Some(block) => BlockFeed::Ready(block),
        None => BlockFeed::End,
    };
    expect_panic(executor.execute_stream(&source, &storage).map(|_| ()));
    let healthy: Vec<PanickingTxn> = (0..8).map(|_| PanickingTxn { panics: false }).collect();
    let output = executor.execute_block(&healthy, &storage).unwrap();
    assert_eq!(output.num_txns(), 8);
}
