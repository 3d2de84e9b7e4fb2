//! Chained-execution conformance: [`BlockStm::execute_chain`](block_stm::BlockStm::execute_chain)
//! pipelines a stream of blocks through the cross-block frontier, and its
//! committed output must be **byte-for-byte identical** to executing the same
//! blocks one at a time with a barrier between them (each block's updates
//! applied to storage before the next block starts).
//!
//! Account-model streams are built by splitting one generated block into
//! consecutive chunks: the generators plan per-sender nonces sequentially in
//! block order, so chunking preserves nonce continuity and block `k` carries
//! live read-write dependencies on block `k-1`'s committed state — exactly
//! the cross-block speculation the frontier must get right. Injected failures
//! (bad nonces, insufficient balances) must abort identically in both shapes,
//! and a mid-stream [`BlockGasLimit`] cut must truncate the same blocks at the
//! same transactions. Proptest cases randomize the workload shape, chunking
//! and thread count (1–8); failing seeds persist to
//! `proptest-regressions/chain_execution.txt`. Sinks must see the stream block
//! by block — `begin_block`, the block's commits, `end_block` — on both
//! `execute_chain` and `execute_stream`. At one worker the chain runs each
//! block sequentially, so speculation's own counters (frontier reads, sweeps)
//! are asserted at two workers and more, and read 0 at one.

use block_stm::{
    BlockFeed, BlockGasLimit, BlockOutput, BlockStmBuilder, ChainOutput, MultiSink, Transaction, Vm,
};
use block_stm_storage::{AccessPath, InMemoryStorage, StateValue};
use block_stm_tests::{expected_calls, HookLog};
use block_stm_vm::synthetic::SyntheticTransaction;
use block_stm_vm::AbortCode;
use block_stm_workloads::accounts::AccountTransaction;
use block_stm_workloads::{ConservationOracle, Erc20Workload, EthTransferWorkload, FeeMode};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

type AccountStorage = InMemoryStorage<AccessPath, StateValue>;

/// Splits one generated block into `num_chunks` consecutive chunks (sizes as
/// even as possible). Order is preserved, so per-sender nonce sequences stay
/// coherent across the resulting chain.
fn chunk_into_blocks<T: Clone>(block: &[T], num_chunks: usize) -> Vec<Vec<T>> {
    let total = block.len();
    let base = total / num_chunks;
    let extra = total % num_chunks;
    let mut blocks = Vec::with_capacity(num_chunks);
    let mut cursor = 0;
    for index in 0..num_chunks {
        let len = base + usize::from(index < extra);
        blocks.push(block[cursor..cursor + len].to_vec());
        cursor += len;
    }
    blocks
}

/// The reference shape: execute each block with a full barrier between blocks,
/// folding every block's committed updates into storage before the next block
/// starts. Single-threaded Block-STM so an optional [`BlockGasLimit`] applies
/// with exactly the semantics the chained run uses (one budget per block).
fn barrier_reference<T>(
    blocks: &[Vec<T>],
    storage: &InMemoryStorage<T::Key, T::Value>,
    budget: Option<u64>,
) -> Vec<BlockOutput<T::Key, T::Value>>
where
    T: Transaction,
    T::Key: Ord + Hash,
{
    let mut running = storage.clone();
    let mut outputs = Vec::with_capacity(blocks.len());
    for block in blocks {
        let mut builder = BlockStmBuilder::new(Vm::for_testing()).concurrency(1);
        if let Some(budget) = budget {
            builder =
                builder.block_limiter::<T::Key, T::Value>(Arc::new(BlockGasLimit::new(budget)));
        }
        let output = builder
            .build()
            .execute_block(block, &running)
            .expect("barrier reference execution failed");
        for (key, value) in &output.updates {
            running.insert(key.clone(), value.clone());
        }
        outputs.push(output);
    }
    outputs
}

/// Executes the stream as one pipelined chain dispatch.
fn run_chain<T>(
    blocks: &[Vec<T>],
    storage: &InMemoryStorage<T::Key, T::Value>,
    threads: usize,
    budget: Option<u64>,
) -> ChainOutput<T::Key, T::Value>
where
    T: Transaction,
    T::Key: Ord + Hash,
{
    let mut builder = BlockStmBuilder::new(Vm::for_testing()).concurrency(threads);
    if let Some(budget) = budget {
        builder = builder.block_limiter::<T::Key, T::Value>(Arc::new(BlockGasLimit::new(budget)));
    }
    builder
        .build()
        .execute_chain(blocks, storage)
        .expect("chained execution failed")
}

/// Byte-for-byte equality of the chained output against the barrier reference:
/// per-block committed updates, cut positions, per-transaction write-sets,
/// delta-sets, abort codes and gas, plus the chain's net updates against the
/// fold of the per-block updates.
fn assert_chain_matches_barrier<K, V>(
    label: &str,
    chained: &ChainOutput<K, V>,
    barrier: &[BlockOutput<K, V>],
) where
    K: Ord + Clone + Debug,
    V: Clone + Debug + PartialEq,
{
    assert_eq!(chained.blocks.len(), barrier.len(), "[{label}] block count");
    let mut net: BTreeMap<K, V> = BTreeMap::new();
    for (index, (chain_block, barrier_block)) in
        chained.blocks.iter().zip(barrier.iter()).enumerate()
    {
        assert_eq!(
            chain_block.truncated_at, barrier_block.truncated_at,
            "[{label}] block {index}: cut position diverged"
        );
        assert_eq!(
            chain_block.updates, barrier_block.updates,
            "[{label}] block {index}: committed updates diverged"
        );
        assert_eq!(
            chain_block.outputs.len(),
            barrier_block.outputs.len(),
            "[{label}] block {index}: output count diverged"
        );
        for (idx, (chain_txn, barrier_txn)) in chain_block
            .outputs
            .iter()
            .zip(barrier_block.outputs.iter())
            .enumerate()
        {
            assert_eq!(
                chain_txn.writes, barrier_txn.writes,
                "[{label}] block {index} txn {idx}: write-set diverged"
            );
            assert_eq!(
                chain_txn.deltas, barrier_txn.deltas,
                "[{label}] block {index} txn {idx}: delta-set diverged"
            );
            assert_eq!(
                chain_txn.abort_code, barrier_txn.abort_code,
                "[{label}] block {index} txn {idx}: abort code diverged"
            );
            assert_eq!(
                chain_txn.gas_used, barrier_txn.gas_used,
                "[{label}] block {index} txn {idx}: gas diverged"
            );
        }
        for (key, value) in &barrier_block.updates {
            net.insert(key.clone(), value.clone());
        }
    }
    let expected: Vec<(K, V)> = net.into_iter().collect();
    assert_eq!(
        chained.updates, expected,
        "[{label}] net chain updates diverged from the fold of per-block updates"
    );
}

/// Checks the conservation oracle on every chained block against its own
/// pre-block state (the fold of all earlier blocks' committed updates).
fn check_oracle_per_block<T: AccountTransaction>(
    label: &str,
    oracle: &ConservationOracle,
    blocks: &[Vec<T>],
    storage: &AccountStorage,
    chained: &ChainOutput<AccessPath, StateValue>,
) {
    let mut running = storage.clone();
    for (index, (block, output)) in blocks.iter().zip(chained.blocks.iter()).enumerate() {
        oracle
            .check(&running, block, &output.updates, &output.outputs)
            .unwrap_or_else(|violation| {
                panic!("[{label}] chained block {index} violates the oracle: {violation}")
            });
        for (key, value) in &output.updates {
            running.insert(*key, value.clone());
        }
    }
}

fn eth_oracle(workload: &EthTransferWorkload) -> ConservationOracle {
    ConservationOracle::new().with_beneficiary(workload.beneficiary())
}

fn erc20_oracle(workload: &Erc20Workload) -> ConservationOracle {
    ConservationOracle::new()
        .with_beneficiary(workload.beneficiary())
        .with_token(workload.token)
}

#[test]
fn eth_transfer_stream_matches_barrier_execution_at_every_thread_count() {
    let workload = EthTransferWorkload::new(30, 240).with_conflict(25, 2);
    let (storage, block) = workload.generate();
    let blocks = chunk_into_blocks(&block, 6);
    let barrier = barrier_reference(&blocks, &storage, None);
    let oracle = eth_oracle(&workload);
    for threads in [1usize, 2, 4, 8] {
        let label = format!("eth@{threads}");
        let chained = run_chain(&blocks, &storage, threads, None);
        assert_chain_matches_barrier(&label, &chained, &barrier);
        check_oracle_per_block(&label, &oracle, &blocks, &storage, &chained);
        assert_eq!(chained.metrics.chain_blocks, 6, "[{label}]");
        if threads == 1 {
            // Sequential blocks read earlier blocks' writes from a plain
            // overlay; there is no frontier.
            assert_eq!(chained.metrics.frontier_reads, 0, "[{label}]");
            continue;
        }
        // Chunked nonce sequences span blocks: later blocks must read their
        // senders' advanced nonces through the cross-block frontier.
        assert!(
            chained.metrics.frontier_reads > 0,
            "[{label}] no reads were served from the cross-block frontier"
        );
    }
}

/// Checks one workload's stream at one worker, where every block runs through
/// the sequential loop: `execute_chain` and a dribbling `execute_stream` must
/// both equal the barrier reference and pass the conservation oracle, count
/// every block, never dispatch onto the pool and record no speculation.
fn check_one_worker_stream<T>(
    label: &str,
    oracle: &ConservationOracle,
    blocks: &[Vec<T>],
    storage: &AccountStorage,
) where
    T: AccountTransaction + Clone,
{
    let barrier = barrier_reference(blocks, storage, None);
    let executor = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(1)
        .build();
    let chained = executor
        .execute_chain(blocks, storage)
        .expect("chained execution failed");
    let pending = Mutex::new(blocks.iter().cloned().collect::<VecDeque<_>>());
    let polls = AtomicUsize::new(0);
    let source = move || {
        if polls.fetch_add(1, Ordering::Relaxed) % 3 != 2 {
            return BlockFeed::Pending;
        }
        match pending.lock().unwrap().pop_front() {
            Some(block) => BlockFeed::Ready(block),
            None => BlockFeed::End,
        }
    };
    let streamed = executor
        .execute_stream(&source, storage)
        .expect("streamed execution failed");
    for (shape, output) in [("chain", &chained), ("stream", &streamed)] {
        let label = format!("{label} {shape}");
        assert_chain_matches_barrier(&label, output, &barrier);
        check_oracle_per_block(&label, oracle, blocks, storage, output);
        let metrics = &output.metrics;
        assert_eq!(metrics.chain_blocks, blocks.len() as u64, "[{label}]");
        assert_eq!(metrics.committed_txns, metrics.total_txns, "[{label}]");
        assert_eq!(metrics.incarnations, metrics.total_txns, "[{label}]");
        assert_eq!(metrics.validations, 0, "[{label}]");
        assert_eq!(metrics.frontier_reads, 0, "[{label}]");
        assert_eq!(metrics.chain_sweeps, 0, "[{label}]");
    }
    assert_eq!(
        executor.dispatches(),
        0,
        "[{label}] nothing ran on the pool"
    );
}

#[test]
fn one_worker_chains_and_streams_match_barrier_execution() {
    let eth = EthTransferWorkload::new(30, 240)
        .with_conflict(25, 2)
        .with_failures(15, 10);
    let (storage, block) = eth.generate();
    check_one_worker_stream(
        "eth@1",
        &eth_oracle(&eth),
        &chunk_into_blocks(&block, 6),
        &storage,
    );

    let erc20 = Erc20Workload::new(24, 200)
        .with_mix(50, 20)
        .with_fee_mode(FeeMode::Delta);
    let (storage, block) = erc20.generate();
    check_one_worker_stream(
        "erc20@1",
        &erc20_oracle(&erc20),
        &chunk_into_blocks(&block, 5),
        &storage,
    );
}

#[test]
fn injected_failures_abort_identically_in_chained_and_barrier_execution() {
    let workload = EthTransferWorkload::new(20, 200).with_failures(15, 10);
    let (storage, block) = workload.generate();
    let blocks = chunk_into_blocks(&block, 5);
    let barrier = barrier_reference(&blocks, &storage, None);
    // The injections must actually fire somewhere in the stream.
    let codes: Vec<_> = barrier
        .iter()
        .flat_map(|block| block.outputs.iter())
        .filter_map(|output| output.abort_code)
        .collect();
    assert!(codes.contains(&AbortCode::NonceMismatch), "{codes:?}");
    assert!(codes.contains(&AbortCode::InsufficientBalance), "{codes:?}");
    let oracle = eth_oracle(&workload);
    for threads in [2usize, 8] {
        let label = format!("eth-failures@{threads}");
        let chained = run_chain(&blocks, &storage, threads, None);
        assert_chain_matches_barrier(&label, &chained, &barrier);
        check_oracle_per_block(&label, &oracle, &blocks, &storage, &chained);
    }
}

#[test]
fn erc20_stream_with_allowances_matches_barrier_execution() {
    // transferFrom spends allowances written in earlier chunks, so the stream
    // exercises order-dependent aborts across the block boundary.
    let workload = Erc20Workload::new(24, 200)
        .with_mix(50, 20)
        .with_fee_mode(FeeMode::ReadModifyWrite);
    let (storage, block) = workload.generate();
    let blocks = chunk_into_blocks(&block, 5);
    let barrier = barrier_reference(&blocks, &storage, None);
    let oracle = erc20_oracle(&workload);
    for threads in [1usize, 4] {
        let label = format!("erc20@{threads}");
        let chained = run_chain(&blocks, &storage, threads, None);
        assert_chain_matches_barrier(&label, &chained, &barrier);
        check_oracle_per_block(&label, &oracle, &blocks, &storage, &chained);
    }
}

#[test]
fn mid_stream_gas_cut_truncates_the_same_transactions_chained_and_barriered() {
    let workload = EthTransferWorkload::new(30, 180);
    let (storage, block) = workload.generate();
    let blocks = chunk_into_blocks(&block, 6);
    // A per-block budget below the heaviest block's total gas: at least one
    // block in the stream is cut, and the chain must continue past the cut.
    let no_limit = barrier_reference(&blocks, &storage, None);
    let heaviest: u64 = no_limit
        .iter()
        .map(|block| block.outputs.iter().map(|o| o.gas_used).sum())
        .max()
        .unwrap();
    let budget = heaviest * 7 / 10;
    let barrier = barrier_reference(&blocks, &storage, Some(budget));
    assert!(
        barrier.iter().any(|block| block.truncated_at.is_some()),
        "the gas cut must actually fire somewhere in the stream"
    );
    assert!(
        barrier.iter().any(|block| block.truncated_at.is_none()),
        "some blocks must survive the cut for the stream to stay interesting"
    );
    for threads in [1usize, 2, 4, 8] {
        let chained = run_chain(&blocks, &storage, threads, Some(budget));
        assert_chain_matches_barrier(&format!("eth-cut@{threads}"), &chained, &barrier);
    }
}

/// The sink hook contract on chained streams: at 1–8 threads, sliced and
/// streamed (a source that keeps running dry), with and without a gas cut, and
/// with empty blocks mid-stream and at the end, every sink — directly attached
/// or behind a `MultiSink` — sees each block as `begin(n)`, commits `0..m`,
/// `end(m)`, strictly before the next block's `begin`.
#[test]
fn chain_sinks_see_begin_commits_end_per_block_in_stream_order() {
    let workload = EthTransferWorkload::new(30, 150);
    let (storage, block) = workload.generate();
    let mut blocks = chunk_into_blocks(&block, 5);
    blocks.insert(2, Vec::new());
    blocks.push(Vec::new());
    let heaviest: u64 = barrier_reference(&blocks, &storage, None)
        .iter()
        .map(|block| block.outputs.iter().map(|o| o.gas_used).sum())
        .max()
        .unwrap();
    for budget in [None, Some(heaviest * 7 / 10)] {
        let barrier = barrier_reference(&blocks, &storage, budget);
        let shapes: Vec<(usize, usize)> = blocks
            .iter()
            .zip(&barrier)
            .map(|(block, output)| (block.len(), output.truncated_at.unwrap_or(block.len())))
            .collect();
        let expected = expected_calls(&shapes);
        for threads in 1usize..=8 {
            for streamed in [false, true] {
                let label = format!("threads {threads}, streamed {streamed}, budget {budget:?}");
                let direct = Arc::new(HookLog::default());
                let fanned = Arc::new(HookLog::default());
                let mut builder = BlockStmBuilder::new(Vm::for_testing())
                    .concurrency(threads)
                    .commit_sink::<AccessPath, StateValue>(direct.clone())
                    .commit_sink::<AccessPath, StateValue>(Arc::new(
                        MultiSink::new().with(fanned.clone()),
                    ));
                if let Some(budget) = budget {
                    builder = builder.block_limiter::<AccessPath, StateValue>(Arc::new(
                        BlockGasLimit::new(budget),
                    ));
                }
                let chain = builder.build();
                let chained = if streamed {
                    // Yield a block only every third poll, so the chain runs dry
                    // and announces late heads from its settle path too.
                    let pending = Mutex::new(blocks.iter().cloned().collect::<VecDeque<_>>());
                    let polls = AtomicUsize::new(0);
                    let source = move || {
                        if polls.fetch_add(1, Ordering::Relaxed) % 3 != 2 {
                            return BlockFeed::Pending;
                        }
                        match pending.lock().unwrap().pop_front() {
                            Some(block) => BlockFeed::Ready(block),
                            None => BlockFeed::End,
                        }
                    };
                    chain.execute_stream(&source, &storage)
                } else {
                    chain.execute_chain(&blocks, &storage)
                }
                .expect("chained execution failed");
                assert_chain_matches_barrier(&label, &chained, &barrier);
                assert_eq!(direct.calls(), expected, "[{label}] direct sink");
                assert_eq!(fanned.calls(), expected, "[{label}] MultiSink");
            }
        }
    }
}

#[test]
fn dense_increment_chain_reads_through_the_frontier_and_reports_chain_metrics() {
    // Eight blocks of increments over four hot keys: every block rewrites every
    // key, so block k's committed reads are only correct through the frontier.
    let storage: InMemoryStorage<u64, u64> = (0..4u64).map(|key| (key, 0u64)).collect();
    let blocks: Vec<Vec<SyntheticTransaction>> = (0..8)
        .map(|_| {
            (0..16)
                .map(|i| SyntheticTransaction::increment(i % 4))
                .collect()
        })
        .collect();
    let barrier = barrier_reference(&blocks, &storage, None);
    for threads in [1usize, 4] {
        let label = format!("dense@{threads}");
        let chained = run_chain(&blocks, &storage, threads, None);
        assert_chain_matches_barrier(&label, &chained, &barrier);
        let metrics = &chained.metrics;
        assert_eq!(metrics.chain_blocks, 8, "[{label}]");
        if threads == 1 {
            // Sequential blocks: no sweep, no frontier.
            assert_eq!(metrics.chain_sweeps, 0, "[{label}]");
            assert_eq!(metrics.frontier_reads, 0, "[{label}]");
        } else {
            assert!(
                metrics.chain_sweeps >= 7,
                "[{label}] every advance sweeps its successor at least once: {}",
                metrics.chain_sweeps
            );
            assert!(
                metrics.frontier_reads > 0,
                "[{label}] hot keys must be served from the cross-block frontier"
            );
        }
        // Every hot key was rewritten by the last block (exact values are
        // salt-mixed; byte-for-byte correctness is the barrier check above).
        let keys: Vec<u64> = chained.updates.iter().map(|(key, _)| *key).collect();
        assert_eq!(keys, vec![0, 1, 2, 3], "[{label}]");
        assert!(
            chained.updates.iter().all(|(_, value)| *value != 0),
            "[{label}] final values must differ from genesis"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random ETH-transfer streams: one generated block split into
    /// nonce-coherent chunks, executed chained vs barriered at a drawn thread
    /// count, with and without a per-block gas cut.
    #[test]
    fn random_eth_streams_match_barrier_execution(
        num_accounts in 3u64..30,
        total_txns in 24usize..120,
        num_chunks in 2usize..7,
        seed in any::<u64>(),
        rmw_fees in any::<bool>(),
        bad_nonce in 0u8..20,
        insufficient in 0u8..20,
        threads in 1usize..9,
        with_cut in any::<bool>(),
        budget_pct in 25u64..95,
    ) {
        // The strategy tuple is full: derive the secondary shape knobs from
        // the seed (they only perturb the workload, never the property).
        let zipf_s = (seed % 200) as u32;
        let conflict = ((seed >> 8) % 40) as u8;
        let fee_mode = if rmw_fees { FeeMode::ReadModifyWrite } else { FeeMode::Delta };
        let workload = EthTransferWorkload::new(num_accounts, total_txns)
            .with_seed(seed)
            .with_zipf_s_hundredths(zipf_s)
            .with_conflict(conflict, 2)
            .with_fee_mode(fee_mode)
            .with_failures(bad_nonce, insufficient);
        let (storage, block) = workload.generate();
        let blocks = chunk_into_blocks(&block, num_chunks);

        // Gas per transaction is independent of the limiter, so the uncut
        // reference prices a budget that is guaranteed to bite the heaviest
        // block (and possibly others — equality must hold regardless).
        let budget = if with_cut {
            let heaviest: u64 = barrier_reference(&blocks, &storage, None)
                .iter()
                .map(|block| block.outputs.iter().map(|o| o.gas_used).sum())
                .max()
                .unwrap_or(0);
            Some(heaviest * budget_pct / 100)
        } else {
            None
        };

        let barrier = barrier_reference(&blocks, &storage, budget);
        let chained = run_chain(&blocks, &storage, threads, budget);
        assert_chain_matches_barrier("random-eth", &chained, &barrier);
        prop_assert_eq!(chained.metrics.chain_blocks as usize, blocks.len());
        if budget.is_none() {
            check_oracle_per_block(
                "random-eth",
                &eth_oracle(&workload),
                &blocks,
                &storage,
                &chained,
            );
        }
    }

    /// Random ERC20 streams (transfers, approvals, transferFrom) chunked into
    /// chains: allowance exhaustion and nonce chains cross block boundaries.
    #[test]
    fn random_erc20_streams_match_barrier_execution(
        num_accounts in 3u64..24,
        total_txns in 20usize..90,
        num_chunks in 2usize..6,
        seed in any::<u64>(),
        transfer_pct in 0u8..100,
        approve_pct in 0u8..40,
        rmw_fees in any::<bool>(),
        bad_nonce in 0u8..15,
        threads in 1usize..9,
    ) {
        let insufficient = ((seed >> 16) % 15) as u8;
        let fee_mode = if rmw_fees { FeeMode::ReadModifyWrite } else { FeeMode::Delta };
        let workload = Erc20Workload::new(num_accounts, total_txns)
            .with_seed(seed)
            .with_mix(transfer_pct, approve_pct)
            .with_fee_mode(fee_mode)
            .with_failures(bad_nonce, insufficient);
        let (storage, block) = workload.generate();
        let blocks = chunk_into_blocks(&block, num_chunks);

        let barrier = barrier_reference(&blocks, &storage, None);
        let chained = run_chain(&blocks, &storage, threads, None);
        assert_chain_matches_barrier("random-erc20", &chained, &barrier);
        prop_assert_eq!(chained.metrics.chain_blocks as usize, blocks.len());
        check_oracle_per_block(
            "random-erc20",
            &erc20_oracle(&workload),
            &blocks,
            &storage,
            &chained,
        );
    }
}
