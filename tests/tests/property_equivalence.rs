//! Property-based tests: for *arbitrary* blocks of synthetic read/write transactions,
//! the parallel engines commit exactly the sequential preset-order state, on any
//! thread count. Shrinking gives minimal counterexamples if the engines ever diverge.
//!
//! The wrong-hints suite is the teeth behind the "hints are advisory" claim:
//! arbitrarily wrong *advisory* hints steer the adaptive dispatcher's
//! sequential/parallel choice but must leave the committed output
//! byte-for-byte identical to sequential execution, while an *exact* hint that
//! lies about the write-set must fail a Bohm block (the one engine that trusts
//! declared write-sets) with the typed
//! [`UndeclaredWrite`](block_stm::ExecutionError::UndeclaredWrite) error
//! instead of committing anything.

use block_stm::{
    AdaptiveExecutor, BlockExecutor, BlockStmBuilder, EngineChoice, ExecutionError,
    SequentialExecutor, Vm,
};
use block_stm_baselines::{BohmExecutor, LitmExecutor};
use block_stm_storage::InMemoryStorage;
use block_stm_vm::synthetic::SyntheticTransaction;
use block_stm_vm::{AccessHints, HintedTransaction, Transaction};
use proptest::collection::vec;
use proptest::prelude::*;

const KEYS: u64 = 12;

fn arb_txn() -> impl Strategy<Value = SyntheticTransaction> {
    (
        vec(0..KEYS, 0..4),
        vec(0..KEYS, 1..4),
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
    (0..KEYS).map(|k| (k, k * 17 + 3)).collect()
}

/// Deliberately wrong hints: advisory sets drawn independently of the
/// transaction's real accesses (so they routinely miss real conflicts and
/// invent fake ones), or no hints at all. Never `exact` — exactness is the one
/// correctness-bearing promise, covered by the lying-exact test below.
fn arb_wrong_hints() -> impl Strategy<Value = Option<AccessHints<u64>>> {
    prop_oneof![
        Just(None),
        (vec(0..KEYS, 0..4), vec(0..KEYS, 0..4))
            .prop_map(|(reads, writes)| Some(AccessHints::advisory(reads, writes))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_stm_equals_sequential(block in vec(arb_txn(), 1..60), threads in 1usize..9) {
        let storage = initial_storage();
        let sequential = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&block, &storage)
            .unwrap();
        let parallel = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build()
            .execute_block(&block, &storage)
            .unwrap();
        prop_assert_eq!(parallel.updates, sequential.updates);
        // Committed per-transaction effects must match as well.
        for (p, s) in parallel.outputs.iter().zip(sequential.outputs.iter()) {
            prop_assert_eq!(&p.writes, &s.writes);
            prop_assert_eq!(p.abort_code, s.abort_code);
        }
    }

    #[test]
    fn bohm_equals_sequential(block in vec(arb_txn(), 1..50), threads in 1usize..7) {
        let storage = initial_storage();
        let sequential = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&block, &storage)
            .unwrap();
        let bohm = BohmExecutor::new(Vm::for_testing(), threads)
            .execute_block(&block, &storage)
            .unwrap();
        prop_assert_eq!(bohm.updates, sequential.updates);
    }

    #[test]
    fn litm_is_deterministic_and_complete(block in vec(arb_txn(), 1..40), threads in 1usize..7) {
        let storage = initial_storage();
        let reference = LitmExecutor::new(Vm::for_testing(), 1)
            .execute_block(&block, &storage)
            .unwrap();
        let run = LitmExecutor::new(Vm::for_testing(), threads)
            .execute_block(&block, &storage)
            .unwrap();
        // LiTM commits a different serialization than the preset order, but it must be
        // deterministic (independent of thread count) and commit every transaction.
        prop_assert_eq!(reference.updates, run.updates);
        prop_assert_eq!(run.outputs.len(), block.len());
        prop_assert!(run.metrics.rounds >= 1);
    }

    #[test]
    fn parallel_execution_is_deterministic(block in vec(arb_txn(), 1..40)) {
        let storage = initial_storage();
        // One executor, executed twice: also exercises the arena-reuse path under
        // arbitrary blocks.
        let executor = BlockStmBuilder::new(Vm::for_testing()).concurrency(6).build();
        let first = executor.execute_block(&block, &storage).unwrap();
        let second = executor.execute_block(&block, &storage).unwrap();
        prop_assert_eq!(first.updates, second.updates);
    }

    /// Advisory hints are pure dispatch advice: no matter how wrong they are,
    /// the adaptive dispatcher — deciding from them organically, or forced
    /// parallel with a hair-triggered mid-block fallback — must commit the
    /// sequential preset-order state byte for byte.
    #[test]
    fn arbitrarily_wrong_advisory_hints_never_change_committed_output(
        block in vec((arb_txn(), arb_wrong_hints()), 1..50),
        threads in 1usize..9,
    ) {
        let storage = initial_storage();
        let hinted_block: Vec<_> = block
            .into_iter()
            .map(|(txn, hints)| HintedTransaction::new(txn, hints))
            .collect();
        let sequential = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&hinted_block, &storage)
            .unwrap();

        let engines: Vec<(&str, Box<dyn BlockExecutor<_, _>>)> = vec![
            (
                "adaptive",
                Box::new(
                    AdaptiveExecutor::builder(Vm::for_testing())
                        .concurrency(threads)
                        .build(),
                ),
            ),
            (
                "adaptive(parallel, fallback)",
                Box::new(
                    AdaptiveExecutor::builder(Vm::for_testing())
                        .concurrency(threads)
                        .force_choice(EngineChoice::Parallel)
                        .abort_fallback_threshold(0)
                        .build(),
                ),
            ),
        ];
        for (label, engine) in engines {
            let output = engine.execute_block(&hinted_block, &storage).unwrap();
            prop_assert_eq!((label, &output.updates), (label, &sequential.updates));
            for (idx, (h, s)) in output.outputs.iter().zip(sequential.outputs.iter()).enumerate() {
                prop_assert_eq!((label, idx, &h.writes), (label, idx, &s.writes));
                prop_assert_eq!((label, idx, h.abort_code), (label, idx, s.abort_code));
            }
        }
    }

    /// The flip side: an `exact` hint whose write-set lies (omits a location
    /// the transaction really writes) must fail a Bohm block with the typed
    /// [`UndeclaredWrite`] error naming the liar — never commit a state built
    /// on version chains that miss the write. Every other transaction carries
    /// its own truthful exact hints, so enforcement is per-transaction.
    #[test]
    fn lying_exact_hints_fail_with_undeclared_write(
        block in vec(arb_txn(), 1..30),
        liar_seed in any::<u64>(),
        threads in 1usize..9,
    ) {
        let storage = initial_storage();
        let liar_idx = (liar_seed % block.len() as u64) as usize;
        let hinted_block: Vec<_> = block
            .into_iter()
            .enumerate()
            .map(|(idx, mut txn)| {
                if idx == liar_idx {
                    // The liar must actually perform its writes: disarm the
                    // deterministic abort, then declare an empty exact
                    // write-set (its `writes` strategy is never empty).
                    txn.abort_when_divisible_by = None;
                    let reads = txn.reads.clone();
                    HintedTransaction::new(txn, Some(AccessHints::exact(reads, vec![])))
                } else {
                    let hints = txn.access_hints();
                    HintedTransaction::new(txn, hints)
                }
            })
            .collect();
        let bohm = BohmExecutor::new(Vm::for_testing(), threads);
        match bohm.execute_block(&hinted_block, &storage) {
            Err(ExecutionError::UndeclaredWrite { txn_idx }) => {
                prop_assert_eq!(txn_idx, liar_idx);
            }
            other => return Err(TestCaseError::fail(format!(
                "expected UndeclaredWrite at {liar_idx}, got {other:?}"
            ))),
        }
    }
}
