//! Account-model conformance: ETH-transfer and ERC20 blocks over every engine,
//! judged byte-for-byte against the sequential oracle *and* by the
//! [`ConservationOracle`] — the domain invariants (value conservation, nonce
//! monotonicity, exact fee routing) that hold even if every engine shared a
//! bug.
//!
//! The battery runs Block-STM at 1–8 threads, the sequential baseline, Bohm (on delta-free blocks), the
//! adaptive dispatcher (organic plus every decision path forced via builder
//! knobs, including the mid-block sequential fallback) and LiTM (checked for
//! thread-count determinism and oracle compliance on its own serialization,
//! since it commits a different deterministic order). Proptest
//! cases randomize the workload shape — pool size, Zipf skew, conflict factor,
//! fee mode and injected failures (bad nonces, insufficient balances) that
//! must abort identically everywhere; failing seeds persist to
//! `proptest-regressions/account_conformance.txt`.

use block_stm::{
    AdaptiveExecutor, BlockExecutor, BlockGasLimit, BlockStmBuilder, CommitEvent, CommitSink,
    EngineChoice, SequentialExecutor, Vm,
};
use block_stm_baselines::{BohmExecutor, LitmExecutor};
use block_stm_storage::{AccessPath, InMemoryStorage, StateValue, Storage};
use block_stm_vm::AbortCode;
use block_stm_workloads::accounts::AccountTransaction;
use block_stm_workloads::{
    block_fingerprint, ConservationOracle, Erc20Workload, EthTransferWorkload, FeeMode,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

type AccountStorage = InMemoryStorage<AccessPath, StateValue>;
type NamedEngines<T> = Vec<(&'static str, Box<dyn BlockExecutor<T, AccountStorage>>)>;

/// Runs `block` through every engine and checks (a) byte-for-byte equality
/// with the sequential oracle for order-preserving engines — committed state,
/// per-transaction write-sets, delta-sets and abort codes — and (b) the
/// conservation oracle on *every* engine's own committed output, including
/// LiTM's relaxed serialization.
fn conformance_battery<T: AccountTransaction>(
    name: &str,
    block: &[T],
    storage: &AccountStorage,
    oracle: &ConservationOracle,
    include_bohm: bool,
) {
    let sequential = SequentialExecutor::new(Vm::for_testing());
    let reference = sequential.execute_block(block, storage).unwrap();
    oracle
        .check(storage, block, &reference.updates, &reference.outputs)
        .unwrap_or_else(|violation| panic!("[{name}] sequential violates the oracle: {violation}"));

    let mut litm_reference: Option<Vec<(AccessPath, StateValue)>> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut engines: NamedEngines<T> = vec![(
            "block-stm",
            Box::new(
                BlockStmBuilder::new(Vm::for_testing())
                    .concurrency(threads)
                    .build(),
            ),
        )];
        if include_bohm {
            engines.push((
                "bohm",
                Box::new(BohmExecutor::new(Vm::for_testing(), threads)),
            ));
        }
        // The adaptive dispatcher preserves the preset order no matter which
        // engine it picks, so it belongs in the exact-equality battery: once
        // organically (the block's own signals decide), once per forced
        // decision path, and once with the mid-block abort fallback armed to
        // fire on the very first conflict.
        engines.push((
            "adaptive",
            Box::new(
                AdaptiveExecutor::builder(Vm::for_testing())
                    .concurrency(threads)
                    .build(),
            ),
        ));
        for (label, choice) in [
            ("adaptive(seq)", EngineChoice::Sequential),
            ("adaptive(par)", EngineChoice::Parallel),
        ] {
            engines.push((
                label,
                Box::new(
                    AdaptiveExecutor::builder(Vm::for_testing())
                        .concurrency(threads)
                        .force_choice(choice)
                        .build(),
                ),
            ));
        }
        engines.push((
            "adaptive(fallback)",
            Box::new(
                AdaptiveExecutor::builder(Vm::for_testing())
                    .concurrency(threads)
                    .force_choice(EngineChoice::Parallel)
                    .abort_fallback_threshold(0)
                    .build(),
            ),
        ));
        for (label, engine) in engines {
            let output = engine
                .execute_block(block, storage)
                .unwrap_or_else(|error| {
                    panic!("[{name}] {label} at {threads} threads failed: {error}")
                });
            assert_eq!(
                output.updates, reference.updates,
                "[{name}] {label} at {threads} threads diverged from sequential"
            );
            assert_eq!(output.outputs.len(), reference.outputs.len());
            for (idx, (p, s)) in output
                .outputs
                .iter()
                .zip(reference.outputs.iter())
                .enumerate()
            {
                assert_eq!(
                    p.writes, s.writes,
                    "[{name}] {label}@{threads}: write-set mismatch at txn {idx}"
                );
                assert_eq!(
                    p.deltas, s.deltas,
                    "[{name}] {label}@{threads}: delta-set mismatch at txn {idx}"
                );
                assert_eq!(
                    p.abort_code, s.abort_code,
                    "[{name}] {label}@{threads}: abort mismatch at txn {idx}"
                );
            }
            oracle
                .check(storage, block, &output.updates, &output.outputs)
                .unwrap_or_else(|violation| {
                    panic!("[{name}] {label} at {threads} threads violates the oracle: {violation}")
                });
        }

        // LiTM commits a different deterministic serialization: require
        // thread-count determinism plus full oracle compliance on its own
        // committed output (abort decisions may legitimately differ from the
        // preset order, e.g. nonce chains settled in another order).
        let litm = LitmExecutor::new(Vm::for_testing(), threads);
        let output = litm.execute_block(block, storage).unwrap();
        assert_eq!(output.outputs.len(), block.len());
        let relaxed = litm_reference.get_or_insert_with(|| output.updates.clone());
        assert_eq!(
            &output.updates, relaxed,
            "[{name}] litm is not deterministic across thread counts"
        );
        oracle
            .check(storage, block, &output.updates, &output.outputs)
            .unwrap_or_else(|violation| {
                panic!("[{name}] litm at {threads} threads violates the oracle: {violation}")
            });
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
fn eth_transfer_delta_fee_blocks_conform() {
    let workload = EthTransferWorkload::new(40, 250);
    let (storage, block) = workload.generate();
    conformance_battery("eth-delta", &block, &storage, &eth_oracle(&workload), false);
}

#[test]
fn eth_transfer_rmw_fee_blocks_conform_including_bohm() {
    let workload = EthTransferWorkload::new(40, 250).with_fee_mode(FeeMode::ReadModifyWrite);
    let (storage, block) = workload.generate();
    conformance_battery("eth-rmw", &block, &storage, &eth_oracle(&workload), true);
}

#[test]
fn eth_transfer_with_injected_failures_aborts_identically_everywhere() {
    let workload = EthTransferWorkload::new(25, 300).with_failures(15, 10);
    let (storage, block) = workload.generate();
    // The injections must actually fire.
    let reference = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    let codes: Vec<_> = reference
        .outputs
        .iter()
        .filter_map(|o| o.abort_code)
        .collect();
    assert!(codes.contains(&AbortCode::NonceMismatch), "{codes:?}");
    assert!(codes.contains(&AbortCode::InsufficientBalance), "{codes:?}");
    conformance_battery(
        "eth-failures",
        &block,
        &storage,
        &eth_oracle(&workload),
        false,
    );
}

#[test]
fn eth_transfer_heavy_skew_and_hot_receivers_conform() {
    let workload = EthTransferWorkload::new(200, 300)
        .with_zipf_s_hundredths(150)
        .with_conflict(40, 2);
    let (storage, block) = workload.generate();
    conformance_battery("eth-hot", &block, &storage, &eth_oracle(&workload), false);
}

#[test]
fn eth_transfer_tiny_universe_is_inherently_sequential_but_conforms() {
    let workload = EthTransferWorkload::new(2, 120);
    let (storage, block) = workload.generate();
    conformance_battery(
        "eth-2-accounts",
        &block,
        &storage,
        &eth_oracle(&workload),
        false,
    );
}

#[test]
fn erc20_mixed_blocks_conform() {
    let workload = Erc20Workload::new(60, 250);
    let (storage, block) = workload.generate();
    conformance_battery(
        "erc20-mix",
        &block,
        &storage,
        &erc20_oracle(&workload),
        false,
    );
}

#[test]
fn erc20_rmw_fee_blocks_conform_including_bohm() {
    let workload = Erc20Workload::new(60, 250)
        .with_fee_mode(FeeMode::ReadModifyWrite)
        .with_mix(50, 20);
    let (storage, block) = workload.generate();
    conformance_battery(
        "erc20-rmw",
        &block,
        &storage,
        &erc20_oracle(&workload),
        true,
    );
}

#[test]
fn erc20_transfer_from_heavy_blocks_exhaust_allowances_identically() {
    // 80% transferFrom over a small ring: allowances run dry mid-block, so the
    // battery exercises order-dependent `AllowanceExceeded` aborts.
    let workload = Erc20Workload::new(8, 200)
        .with_mix(10, 10)
        .with_failures(5, 5);
    let (storage, block) = workload.generate();
    let reference = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    let codes: Vec<_> = reference
        .outputs
        .iter()
        .filter_map(|o| o.abort_code)
        .collect();
    assert!(codes.contains(&AbortCode::NonceMismatch), "{codes:?}");
    conformance_battery(
        "erc20-transfer-from",
        &block,
        &storage,
        &erc20_oracle(&workload),
        false,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The conservation-of-value suite: random account workload shapes across
    /// all four engines at a property-drawn thread count (the directed tests
    /// above sweep 1–8 threads on fixed shapes).
    #[test]
    fn random_eth_workloads_conserve_value_on_every_engine(
        num_accounts in 2u64..40,
        block_size in 10usize..100,
        seed in any::<u64>(),
        zipf_s in 0u32..220,
        conflict in 0u8..50,
        rmw_fees in any::<bool>(),
        bad_nonce in 0u8..25,
        insufficient in 0u8..25,
        threads in 1usize..9,
    ) {
        let fee_mode = if rmw_fees { FeeMode::ReadModifyWrite } else { FeeMode::Delta };
        let workload = EthTransferWorkload::new(num_accounts, block_size)
            .with_seed(seed)
            .with_zipf_s_hundredths(zipf_s)
            .with_conflict(conflict, 2)
            .with_fee_mode(fee_mode)
            .with_failures(bad_nonce, insufficient);
        let (storage, block) = workload.generate();
        let oracle = eth_oracle(&workload);
        let sequential = SequentialExecutor::new(Vm::for_testing());
        let reference = sequential.execute_block(&block, &storage).unwrap();
        oracle.check(&storage, &block, &reference.updates, &reference.outputs)
            .map_err(|violation| TestCaseError::fail(format!("sequential: {violation}")))?;

        let mut engines: NamedEngines<_> = vec![
            ("block-stm", Box::new(BlockStmBuilder::new(Vm::for_testing()).concurrency(threads).build())),
        ];
        if rmw_fees {
            engines.push(("bohm", Box::new(BohmExecutor::new(Vm::for_testing(), threads))));
        }
        engines.push(("adaptive", Box::new(AdaptiveExecutor::builder(Vm::for_testing()).concurrency(threads).build())));
        engines.push((
            "adaptive-fallback",
            Box::new(
                AdaptiveExecutor::builder(Vm::for_testing())
                    .concurrency(threads)
                    .force_choice(EngineChoice::Parallel)
                    .abort_fallback_threshold(0)
                    .build(),
            ),
        ));
        for (label, engine) in engines {
            let output = engine.execute_block(&block, &storage).unwrap();
            prop_assert_eq!((label, &output.updates), (label, &reference.updates));
            for (idx, (p, s)) in output.outputs.iter().zip(reference.outputs.iter()).enumerate() {
                prop_assert_eq!((label, idx, p.abort_code), (label, idx, s.abort_code));
                prop_assert_eq!((label, idx, &p.writes), (label, idx, &s.writes));
            }
            oracle.check(&storage, &block, &output.updates, &output.outputs)
                .map_err(|violation| TestCaseError::fail(format!("{label}: {violation}")))?;
        }
        let litm = LitmExecutor::new(Vm::for_testing(), threads)
            .execute_block(&block, &storage)
            .unwrap();
        oracle.check(&storage, &block, &litm.updates, &litm.outputs)
            .map_err(|violation| TestCaseError::fail(format!("litm: {violation}")))?;
    }

    #[test]
    fn random_erc20_workloads_conserve_value_on_every_engine(
        num_accounts in 2u64..30,
        block_size in 10usize..80,
        seed in any::<u64>(),
        zipf_s in 0u32..200,
        transfer_pct in 0u8..100,
        approve_pct in 0u8..40,
        rmw_fees in any::<bool>(),
        bad_nonce in 0u8..20,
        insufficient in 0u8..20,
        threads in 1usize..9,
    ) {
        let fee_mode = if rmw_fees { FeeMode::ReadModifyWrite } else { FeeMode::Delta };
        let workload = Erc20Workload::new(num_accounts, block_size)
            .with_seed(seed)
            .with_zipf_s_hundredths(zipf_s)
            .with_mix(transfer_pct, approve_pct)
            .with_fee_mode(fee_mode)
            .with_failures(bad_nonce, insufficient);
        let (storage, block) = workload.generate();
        let oracle = erc20_oracle(&workload);
        let sequential = SequentialExecutor::new(Vm::for_testing());
        let reference = sequential.execute_block(&block, &storage).unwrap();
        oracle.check(&storage, &block, &reference.updates, &reference.outputs)
            .map_err(|violation| TestCaseError::fail(format!("sequential: {violation}")))?;

        let mut engines: NamedEngines<_> = vec![
            ("block-stm", Box::new(BlockStmBuilder::new(Vm::for_testing()).concurrency(threads).build())),
        ];
        if rmw_fees {
            engines.push(("bohm", Box::new(BohmExecutor::new(Vm::for_testing(), threads))));
        }
        engines.push(("adaptive", Box::new(AdaptiveExecutor::builder(Vm::for_testing()).concurrency(threads).build())));
        engines.push((
            "adaptive-fallback",
            Box::new(
                AdaptiveExecutor::builder(Vm::for_testing())
                    .concurrency(threads)
                    .force_choice(EngineChoice::Parallel)
                    .abort_fallback_threshold(0)
                    .build(),
            ),
        ));
        for (label, engine) in engines {
            let output = engine.execute_block(&block, &storage).unwrap();
            prop_assert_eq!((label, &output.updates), (label, &reference.updates));
            for (idx, (p, s)) in output.outputs.iter().zip(reference.outputs.iter()).enumerate() {
                prop_assert_eq!((label, idx, p.abort_code), (label, idx, s.abort_code));
            }
            oracle.check(&storage, &block, &output.updates, &output.outputs)
                .map_err(|violation| TestCaseError::fail(format!("{label}: {violation}")))?;
        }
        let litm = LitmExecutor::new(Vm::for_testing(), threads)
            .execute_block(&block, &storage)
            .unwrap();
        oracle.check(&storage, &block, &litm.updates, &litm.outputs)
            .map_err(|violation| TestCaseError::fail(format!("litm: {violation}")))?;
    }
}

/// One streamed commit of an account block: the transaction index and the
/// materialized (resolved) delta values it published.
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

/// The PR 4 × PR 5 interaction guard: a `BlockGasLimit` cut on an account
/// block with pending beneficiary deltas must equal the sequential execution
/// of the truncated prefix, and each committed transaction's fee delta must be
/// materialized exactly once (streamed at its commit, never re-applied).
#[test]
fn gas_limit_cut_with_pending_beneficiary_deltas_matches_sequential_prefix() {
    let workload = EthTransferWorkload::new(30, 200).with_failures(5, 5);
    let (storage, block) = workload.generate();
    let beneficiary_path = AccessPath::balance(workload.beneficiary());
    let sequential = SequentialExecutor::new(Vm::for_testing());
    let full = sequential.execute_block(&block, &storage).unwrap();
    let total_gas: u64 = full.outputs.iter().map(|o| o.gas_used).sum();

    for cut_pct in [20u64, 55, 90] {
        let budget = total_gas * cut_pct / 100;
        // The deterministic expected cut: the longest prefix within budget.
        let mut expected_cut = block.len();
        let mut used = 0u64;
        for (idx, output) in full.outputs.iter().enumerate() {
            if used + output.gas_used > budget {
                expected_cut = idx;
                break;
            }
            used += output.gas_used;
        }

        for threads in [1usize, 4, 8] {
            let sink = Arc::new(FeeSink::default());
            let executor = BlockStmBuilder::new(Vm::for_testing())
                .concurrency(threads)
                .block_limiter::<AccessPath, StateValue>(Arc::new(BlockGasLimit::new(budget)))
                .commit_sink::<AccessPath, StateValue>(sink.clone())
                .build();
            let output = executor.execute_block(&block, &storage).unwrap();
            let cut = output.truncated_at.unwrap_or(block.len());
            assert_eq!(
                cut, expected_cut,
                "cut at {cut_pct}% budget, {threads} threads"
            );
            assert_eq!(output.outputs.len(), cut);

            // Truncated result == sequential on the prefix, byte for byte.
            let truncated = sequential.execute_block(&block[..cut], &storage).unwrap();
            assert_eq!(output.updates, truncated.updates);
            for (idx, (p, s)) in output
                .outputs
                .iter()
                .zip(truncated.outputs.iter())
                .enumerate()
            {
                assert_eq!(p.writes, s.writes, "txn {idx}");
                assert_eq!(p.abort_code, s.abort_code, "txn {idx}");
            }
            ConservationOracle::new()
                .with_beneficiary(workload.beneficiary())
                .check(&storage, &block[..cut], &output.updates, &output.outputs)
                .expect("truncated prefix conserves value");

            // Deltas materialized exactly once: each committed successful
            // transaction streams the beneficiary balance exactly once, with
            // the running sequential fee total.
            let commits = sink.commits.lock();
            assert_eq!(commits.len(), cut, "one commit event per committed txn");
            let mut running = workload.initial_balance as u128;
            for ((txn_idx, resolved), seq_output) in commits.iter().zip(truncated.outputs.iter()) {
                let fee_entries: Vec<_> = resolved
                    .iter()
                    .filter(|(path, _)| *path == beneficiary_path)
                    .collect();
                if seq_output.is_aborted() {
                    assert!(
                        fee_entries.is_empty(),
                        "aborted txn {txn_idx} streamed a fee"
                    );
                } else {
                    running += workload.fee as u128;
                    assert_eq!(
                        fee_entries.len(),
                        1,
                        "txn {txn_idx} must materialize its fee exactly once"
                    );
                    assert_eq!(
                        fee_entries[0].1,
                        StateValue::U128(running),
                        "txn {txn_idx} materialized the wrong running fee total"
                    );
                }
            }

            // And the committed post-state agrees with that exactly-once sum.
            let mut post = storage.clone();
            post.apply_updates(output.updates.iter().cloned());
            let final_balance = post.get(&beneficiary_path).unwrap();
            assert_eq!(
                final_balance,
                if running == workload.initial_balance as u128 {
                    StateValue::U64(workload.initial_balance)
                } else {
                    StateValue::U128(running)
                },
                "beneficiary balance after cut at {cut_pct}%"
            );
        }
    }
}

/// Determinism audit: the same workload configuration generates bit-identical
/// blocks and genesis states no matter which thread builds them, and the
/// fingerprints match golden values locked in when the workload was designed —
/// a host-independence tripwire (libm drift, platform float quirks) that keeps
/// bench baselines comparable across machines.
#[test]
fn workload_generation_is_deterministic_across_threads_and_hosts() {
    let eth = EthTransferWorkload::new(1_000, 500).with_zipf_s_hundredths(120);
    let erc20 = Erc20Workload::new(1_000, 500).with_zipf_s_hundredths(80);

    let eth_fp = block_fingerprint(&eth.generate_block());
    let erc20_fp = block_fingerprint(&erc20.generate_block());

    // Concurrent generation on worker threads must reproduce the fingerprints.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                (
                    block_fingerprint(&eth.generate_block()),
                    block_fingerprint(&erc20.generate_block()),
                )
            })
        })
        .collect();
    for handle in handles {
        let (eth_other, erc20_other) = handle.join().unwrap();
        assert_eq!(eth_other, eth_fp, "eth generation raced or diverged");
        assert_eq!(erc20_other, erc20_fp, "erc20 generation raced or diverged");
    }

    // Golden fingerprints: any change here means previously recorded bench
    // baselines are no longer comparable — bump them consciously.
    assert_eq!(
        eth_fp, GOLDEN_ETH_FINGERPRINT,
        "eth golden fingerprint drifted"
    );
    assert_eq!(
        erc20_fp, GOLDEN_ERC20_FINGERPRINT,
        "erc20 golden fingerprint drifted"
    );

    // Genesis is deterministic too (same length, same content).
    let (a, b) = (eth.genesis(), eth.genesis());
    assert_eq!(a.len(), b.len());
    for (key, value) in a.iter() {
        assert_eq!(
            b.get(key).as_ref(),
            Some(value),
            "genesis mismatch at {key:?}"
        );
    }
}

const GOLDEN_ETH_FINGERPRINT: u64 = 8378003452773949508;
const GOLDEN_ERC20_FINGERPRINT: u64 = 2840698508200597582;
