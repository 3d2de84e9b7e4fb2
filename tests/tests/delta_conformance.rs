//! Randomized cross-engine conformance battery for commutative delta writes.
//!
//! Proptest generates blocks mixing full writes, deltas, value reads of
//! aggregators, deterministic aborts, and delta applications near the
//! aggregator bounds (so overflow aborts actually happen). Every block is
//! executed by Block-STM at 1–8 worker threads, and must match the sequential
//! engine **byte-for-byte**: the committed state, each transaction's write-set,
//! delta-set and abort code.
//!
//! Directed tests pin down the headline properties on top: a single hot
//! aggregator commits with zero aggregator-induced aborts (the tentpole's
//! acceptance bar), overflow blocks abort identically to the sequential
//! engine, the commit drain streams materialized delta values, and the delta
//! metrics are populated. Failing proptest seeds persist to
//! `proptest-regressions/delta_conformance.txt` — commit them with the fix.

use block_stm::{BlockStmBuilder, CommitEvent, CommitSink, ExecutionError, SequentialExecutor, Vm};
use block_stm_baselines::{BohmExecutor, LitmExecutor};
use block_stm_storage::InMemoryStorage;
use block_stm_vm::synthetic::SyntheticTransaction;
use block_stm_workloads::{CommitStallWorkload, DeltaHotspotWorkload, LongChainWorkload};
use parking_lot::Mutex;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Key universe: keys `0..AGG_KEYS` are aggregators (initialized near the
/// bound so deltas overflow realistically), the rest are plain locations.
const KEYS: u64 = 10;
const AGG_KEYS: u64 = 4;
/// Aggregator bound. Storage starts aggregators at 500, and generated deltas
/// reach ±150, so chains regularly brush both edges of `[0, LIMIT]`.
const LIMIT: u128 = 600;

fn initial_storage() -> InMemoryStorage<u64, u64> {
    (0..KEYS)
        .map(|k| {
            if k < AGG_KEYS {
                (k, 500)
            } else {
                (k, k * 17 + 3)
            }
        })
        .collect()
}

fn arb_txn() -> impl Strategy<Value = SyntheticTransaction> {
    (
        vec(0..KEYS, 0..3),
        vec(0..KEYS, 0..3),
        vec(0..KEYS, 0..2),
        any::<u64>(),
        prop_oneof![Just(None), (2u64..5).prop_map(Some)],
        vec((0..AGG_KEYS, -150..150i64), 0..3),
    )
        .prop_map(|(reads, mut writes, conditional, salt, abort, deltas)| {
            // Keep at least one effect per transaction.
            if writes.is_empty() && deltas.is_empty() {
                writes.push(salt % KEYS);
            }
            SyntheticTransaction {
                reads,
                writes,
                conditional_writes: conditional,
                salt,
                extra_gas: 0,
                abort_when_divisible_by: abort,
                deltas: deltas
                    .into_iter()
                    .map(|(key, delta)| (key, delta as i128))
                    .collect(),
                delta_limit: LIMIT,
            }
        })
}

/// Runs `block` on delta-aware Block-STM at `threads` workers and asserts
/// byte-for-byte equality with the sequential oracle.
fn assert_conforms(
    block: &[SyntheticTransaction],
    storage: &InMemoryStorage<u64, u64>,
    threads: usize,
) -> Result<(), TestCaseError> {
    let oracle = SequentialExecutor::new(Vm::for_testing())
        .execute_block(block, storage)
        .unwrap();
    let engine = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(threads)
        .build();
    let output = engine.execute_block(block, storage).unwrap();
    prop_assert_eq!((&output.updates, threads), (&oracle.updates, threads));
    prop_assert_eq!(output.outputs.len(), oracle.outputs.len());
    for (idx, (p, s)) in output.outputs.iter().zip(oracle.outputs.iter()).enumerate() {
        prop_assert_eq!((idx, &p.writes), (idx, &s.writes));
        prop_assert_eq!((idx, &p.deltas), (idx, &s.deltas));
        prop_assert_eq!((idx, p.abort_code), (idx, s.abort_code));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_delta_blocks_conform(block in vec(arb_txn(), 1..50), threads in 1usize..9) {
        let storage = initial_storage();
        assert_conforms(&block, &storage, threads)?;
    }

    #[test]
    fn overflow_heavy_blocks_conform(
        // Every transaction is a large bump of one of two aggregators: several
        // must overflow, and which ones depends on the exact preset order.
        bumps in vec((0..2u64, 50..200i64), 4..40),
        threads in 1usize..9,
    ) {
        let storage = initial_storage();
        let block: Vec<SyntheticTransaction> = bumps
            .into_iter()
            .map(|(key, bump)| SyntheticTransaction::delta_add(key, bump as i128, LIMIT))
            .collect();
        assert_conforms(&block, &storage, threads)?;
    }

    #[test]
    fn litm_stays_deterministic_with_deltas(block in vec(arb_txn(), 1..30), threads in 1usize..7) {
        let storage = initial_storage();
        let reference = LitmExecutor::new(Vm::for_testing(), 1)
            .execute_block(&block, &storage)
            .unwrap();
        let run = LitmExecutor::new(Vm::for_testing(), threads)
            .execute_block(&block, &storage)
            .unwrap();
        prop_assert_eq!(reference.updates, run.updates);
        prop_assert_eq!(run.outputs.len(), block.len());
    }
}

/// The tentpole acceptance bar: with one hot aggregator and pure delta bumps,
/// delta-enabled Block-STM commits the whole block with **zero**
/// aggregator-induced aborts — no failed validations, no dependency aborts, no
/// overflow aborts — while matching the sequential state exactly. The delta
/// metrics must be populated (non-zero), per the conformance battery's
/// metrics satellite.
#[test]
fn single_hot_aggregator_commits_with_zero_aborts() {
    let workload = DeltaHotspotWorkload::new(300, 1);
    let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
    let block = workload.generate_block();
    let oracle = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    for threads in [1usize, 2, 4, 8] {
        let engine = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build();
        let output = engine.execute_block(&block, &storage).unwrap();
        assert_eq!(output.updates, oracle.updates, "{threads} threads diverged");
        let m = &output.metrics;
        assert_eq!(
            m.validation_failures, 0,
            "{threads} threads: commuting deltas must never fail validation"
        );
        assert_eq!(
            m.dependency_aborts, 0,
            "{threads} threads: no estimates can exist without aborts"
        );
        assert_eq!(m.delta_overflow_aborts, 0, "{threads} threads");
        assert_eq!(
            m.incarnations, 300,
            "{threads} threads: every transaction executed exactly once"
        );
        assert_eq!(m.committed_txns, 300);
        // The delta metrics are live.
        assert_eq!(m.delta_writes, 300, "{threads} threads");
    }
}

/// Blocks that overflow the aggregator bound must abort exactly the
/// transactions the sequential order aborts, with the typed `DeltaOverflow`
/// code, and the parallel engine must count them in `delta_overflow_aborts`.
#[test]
fn overflow_blocks_abort_like_the_sequential_engine() {
    // Aggregator 0 starts at 500, limit 600: bumps of +60 fit once, then every
    // further one overflows; interleaved -200s free room again but clamp at 0.
    let storage: InMemoryStorage<u64, u64> = initial_storage();
    let block: Vec<SyntheticTransaction> = (0..24)
        .map(|i| {
            let bump = if i % 4 == 3 { -200 } else { 60 };
            SyntheticTransaction::delta_add(0, bump, LIMIT)
        })
        .collect();
    let oracle = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    assert!(
        oracle.aborted_txns() > 0,
        "the block must actually overflow"
    );
    for threads in [1usize, 4] {
        let engine = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build();
        let output = engine.execute_block(&block, &storage).unwrap();
        assert_eq!(output.updates, oracle.updates);
        for (idx, (p, s)) in output.outputs.iter().zip(oracle.outputs.iter()).enumerate() {
            assert_eq!(p.abort_code, s.abort_code, "abort mismatch at txn {idx}");
            assert_eq!(p.deltas, s.deltas, "delta-set mismatch at txn {idx}");
        }
        assert!(
            output.metrics.delta_overflow_aborts >= oracle.aborted_txns() as u64,
            "every sequentially-aborted txn aborts at least once in parallel"
        );
    }
}

/// The delta-mode variants of the commit-ladder adversaries must match their
/// sequential oracles too (the `use_deltas` migration satellite).
#[test]
fn delta_mode_ladder_adversaries_conform() {
    let chain = LongChainWorkload::new(120).with_deltas(true);
    let stall = CommitStallWorkload::front_staller(120, 50).with_deltas(true);
    let cases: Vec<(&str, InMemoryStorage<u64, u64>, Vec<SyntheticTransaction>)> = vec![
        (
            "long_chain",
            chain.initial_state().into_iter().collect(),
            chain.generate_block(),
        ),
        (
            "commit_stall",
            stall.initial_state().into_iter().collect(),
            stall.generate_block(),
        ),
    ];
    let sequential = SequentialExecutor::new(Vm::for_testing());
    for (name, storage, block) in &cases {
        let oracle = sequential.execute_block(block, storage).unwrap();
        for threads in [1usize, 4] {
            let engine = BlockStmBuilder::new(Vm::for_testing())
                .concurrency(threads)
                .build();
            let output = engine.execute_block(block, storage).unwrap();
            assert_eq!(
                output.updates, oracle.updates,
                "{name} at {threads} threads diverged"
            );
            assert!(output.metrics.delta_writes > 0, "{name}");
        }
    }
}

/// One streamed commit: the transaction index and its materialized deltas.
type StreamedCommit = (usize, Vec<(u64, u64)>);

/// A sink collecting the materialized delta values streamed at commit.
#[derive(Default)]
struct DeltaSink {
    resolved: Mutex<Vec<StreamedCommit>>,
}

impl CommitSink<u64, u64> for DeltaSink {
    fn on_commit(&self, event: &CommitEvent<'_, u64, u64>) {
        self.resolved
            .lock()
            .push((event.txn_idx, event.resolved_deltas.to_vec()));
    }
}

/// The commit drain materializes deltas into concrete values at the watermark:
/// a sink sees, per transaction and in preset order, the running aggregator
/// value a sequential execution would hold after that transaction.
#[test]
fn commit_sink_streams_materialized_delta_values() {
    let workload = DeltaHotspotWorkload::new(100, 1);
    let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
    let block = workload.generate_block();
    // The sequential running value after each transaction.
    let mut running = 0u128;
    let expected: Vec<u64> = block
        .iter()
        .map(|txn| {
            running = (running as i128 + txn.deltas[0].1) as u128;
            running as u64
        })
        .collect();
    let sink = Arc::new(DeltaSink::default());
    let engine = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(4)
        .commit_sink::<u64, u64>(sink.clone())
        .build();
    let output = engine.execute_block(&block, &storage).unwrap();
    let streamed = sink.resolved.lock();
    assert_eq!(streamed.len(), 100);
    for (idx, ((txn_idx, resolved), expected_value)) in
        streamed.iter().zip(expected.iter()).enumerate()
    {
        assert_eq!(*txn_idx, idx, "commits stream in preset order");
        assert_eq!(
            resolved,
            &vec![(0u64, *expected_value)],
            "materialized value at txn {idx}"
        );
    }
    // The final streamed value is the committed state.
    assert_eq!(output.get(&0), Some(expected.last().unwrap()));
}

/// Bohm's pre-declared placeholder chains cannot represent deltas: the engine
/// must refuse the block with a typed error rather than commit a wrong state.
#[test]
fn bohm_rejects_delta_blocks_with_a_typed_error() {
    let storage = initial_storage();
    let block = vec![
        SyntheticTransaction::put(7, 1),
        SyntheticTransaction::delta_add(0, 5, LIMIT),
    ];
    let bohm = BohmExecutor::new(Vm::for_testing(), 2);
    match bohm.execute_block(&block, &storage) {
        Err(ExecutionError::DeltasUnsupported { txn_idx }) => assert_eq!(txn_idx, 1),
        other => panic!("expected DeltasUnsupported, got {other:?}"),
    }
    // Delta-free blocks still work.
    let plain = vec![SyntheticTransaction::put(7, 1)];
    assert!(bohm.execute_block(&plain, &storage).is_ok());
}

/// The production shape the aggregator API exists for: an account block whose
/// only shared location is the block beneficiary's fee balance. With delta
/// fees the payments are independent, so the block must commit with **zero**
/// aggregator-induced aborts and exactly one incarnation per transaction —
/// while the read-modify-write fee mode of the very same payments is the
/// inherently conflicted comparison. Bohm rejects the delta-fee variant with
/// its typed error, exactly as for synthetic delta blocks.
#[test]
fn delta_fee_account_block_commits_without_beneficiary_aborts() {
    use block_stm_storage::GenesisBuilder;
    use block_stm_workloads::{EthTransferTransaction, EthTransferWorkload, FeeMode};

    // Disjoint senders and receivers: txn i pays from account i to account
    // n/2 + i, so the beneficiary fee credit is the block's only shared write.
    let shape = EthTransferWorkload::new(300, 0);
    let storage = shape.genesis();
    let block: Vec<EthTransferTransaction> = (0..150)
        .map(|i| EthTransferTransaction {
            sender: GenesisBuilder::account_address(i),
            receiver: GenesisBuilder::account_address(150 + i),
            amount: 100 + i,
            fee: shape.fee,
            expected_nonce: 0,
            beneficiary: shape.beneficiary(),
            fee_mode: FeeMode::Delta,
            sigverify_gas: 0,
        })
        .collect();
    let oracle = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    for threads in [1usize, 2, 4, 8] {
        let engine = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build();
        let output = engine.execute_block(&block, &storage).unwrap();
        assert_eq!(output.updates, oracle.updates, "{threads} threads diverged");
        let m = &output.metrics;
        assert_eq!(
            m.validation_failures, 0,
            "{threads} threads: delta fee credits must never fail validation"
        );
        assert_eq!(m.dependency_aborts, 0, "{threads} threads");
        assert_eq!(m.delta_overflow_aborts, 0, "{threads} threads");
        assert_eq!(
            m.incarnations, 150,
            "{threads} threads: every payment executed exactly once"
        );
        assert_eq!(m.committed_txns, 150);
        assert_eq!(m.delta_writes, 150, "{threads} threads");
    }

    // The same block with delta fees is unusable for Bohm — typed rejection,
    // not silent wrong answers.
    let bohm = BohmExecutor::new(Vm::for_testing(), 2);
    match bohm.execute_block(&block, &storage) {
        Err(ExecutionError::DeltasUnsupported { txn_idx }) => assert_eq!(txn_idx, 0),
        other => panic!("expected DeltasUnsupported, got {other:?}"),
    }
}
