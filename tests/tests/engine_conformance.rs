//! Engine-conformance suite: one shared battery of blocks runs over **every**
//! [`BlockExecutor`] implementation in the workspace — Block-STM, the sequential
//! baseline, Bohm, LiTM and the adaptive dispatcher — at thread counts 1 through 8,
//! through the unified trait instead of bespoke call sites.
//!
//! Engines that preserve the preset order must match the sequential oracle exactly;
//! LiTM (which commits a different deterministic serialization) is checked for
//! determinism across thread counts and completeness instead.

use block_stm::{
    AdaptiveExecutor, BlockExecutor, BlockStmBuilder, EngineChoice, SequentialExecutor, Vm,
};
use block_stm_baselines::{BohmExecutor, LitmExecutor};
use block_stm_storage::InMemoryStorage;
use block_stm_vm::synthetic::SyntheticTransaction;
use block_stm_workloads::{P2pWorkload, SyntheticWorkload};

type Storage = InMemoryStorage<u64, u64>;
type Engine = Box<dyn BlockExecutor<SyntheticTransaction, Storage>>;

/// Every engine in the workspace, configured for `threads` workers. The adaptive
/// dispatcher runs five ways: deciding organically, forced down each of
/// its three engine paths, and forced hinted with a zero abort budget so the
/// mid-block sequential fallback fires whenever the block conflicts at all.
fn engines(threads: usize) -> Vec<Engine> {
    vec![
        Box::new(
            BlockStmBuilder::new(Vm::for_testing())
                .concurrency(threads)
                .build(),
        ),
        Box::new(SequentialExecutor::new(Vm::for_testing())),
        Box::new(BohmExecutor::new(Vm::for_testing(), threads)),
        Box::new(LitmExecutor::new(Vm::for_testing(), threads)),
        Box::new(
            AdaptiveExecutor::builder(Vm::for_testing())
                .concurrency(threads)
                .build(),
        ),
        Box::new(
            AdaptiveExecutor::builder(Vm::for_testing())
                .concurrency(threads)
                .force_choice(EngineChoice::Sequential)
                .build(),
        ),
        Box::new(
            AdaptiveExecutor::builder(Vm::for_testing())
                .concurrency(threads)
                .force_choice(EngineChoice::Parallel)
                .build(),
        ),
        Box::new(
            AdaptiveExecutor::builder(Vm::for_testing())
                .concurrency(threads)
                .force_choice(EngineChoice::Hinted)
                .build(),
        ),
        Box::new(
            AdaptiveExecutor::builder(Vm::for_testing())
                .concurrency(threads)
                .force_choice(EngineChoice::Hinted)
                .abort_fallback_threshold(0)
                .build(),
        ),
    ]
}

fn storage_with_keys(keys: u64) -> Storage {
    (0..keys).map(|k| (k, k * 1_000)).collect()
}

/// The shared battery: runs `block` on every engine at every thread count and checks
/// the conformance contract of each.
fn conformance_battery(name: &str, block: &[SyntheticTransaction], storage: &Storage) {
    let oracle = SequentialExecutor::new(Vm::for_testing())
        .execute_block(block, storage)
        .unwrap();
    // Reference run for order-relaxed engines (LiTM): single-threaded result.
    let mut relaxed_reference = None;
    for threads in [1usize, 2, 4, 8] {
        for engine in engines(threads) {
            let output = engine
                .execute_block(block, storage)
                .unwrap_or_else(|error| {
                    panic!(
                        "[{name}] {} at {threads} threads failed: {error}",
                        engine.name()
                    )
                });
            assert_eq!(
                output.num_txns(),
                block.len(),
                "[{name}] {} at {threads} threads lost outputs",
                engine.name()
            );
            if engine.preserves_preset_order() {
                assert_eq!(
                    output.updates,
                    oracle.updates,
                    "[{name}] {} at {threads} threads diverged from the sequential oracle",
                    engine.name()
                );
            } else {
                let reference = relaxed_reference.get_or_insert_with(|| output.updates.clone());
                assert_eq!(
                    &output.updates,
                    reference,
                    "[{name}] {} is not deterministic across thread counts",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn empty_block_conforms() {
    let storage = storage_with_keys(4);
    conformance_battery("empty", &[], &storage);
}

#[test]
fn random_blocks_conform() {
    for seed in 0..3u64 {
        let workload = SyntheticWorkload::new(16, 120).with_seed(seed);
        let storage: Storage = workload.initial_state().into_iter().collect();
        let block = workload.generate_block();
        conformance_battery("random", &block, &storage);
    }
}

#[test]
fn contention_chain_conforms() {
    // Every transaction reads and writes the same key: the worst case for
    // speculation, and a liveness check for the dependency machinery.
    let storage = storage_with_keys(1);
    let block: Vec<_> = (0..80)
        .map(|_| SyntheticTransaction::increment(0))
        .collect();
    conformance_battery("contention-chain", &block, &storage);
}

#[test]
fn deterministic_aborts_conform() {
    let storage = storage_with_keys(8);
    let block: Vec<_> = (0..60)
        .map(|i| {
            SyntheticTransaction::transfer(i % 8, (i * 3 + 1) % 8, i)
                .with_conditional_writes(vec![(i * 5) % 8 + 100])
                .with_abort_divisor(4)
        })
        .collect();
    conformance_battery("deterministic-aborts", &block, &storage);
}

#[test]
fn engine_names_and_order_contract_are_stable() {
    let names: Vec<&str> = engines(2).iter().map(|engine| engine.name()).collect();
    assert_eq!(
        names,
        vec![
            "block-stm",
            "sequential",
            "bohm",
            "litm",
            "adaptive",
            "adaptive",
            "adaptive",
            "adaptive",
            "adaptive"
        ]
    );
    let order: Vec<bool> = engines(2)
        .iter()
        .map(|engine| engine.preserves_preset_order())
        .collect();
    assert_eq!(
        order,
        vec![true, true, true, false, true, true, true, true, true]
    );
}

/// The tentpole reuse scenario: a single `BlockStm` instance executes 50 consecutive
/// blocks with the state chained block-to-block, and every block matches the
/// sequential oracle executing the same chain.
#[test]
fn single_block_stm_instance_executes_50_chained_blocks() {
    let executor = BlockStmBuilder::new(Vm::for_testing())
        .concurrency(4)
        .build();
    let oracle = SequentialExecutor::new(Vm::for_testing());
    let mut state: Storage = storage_with_keys(24);
    let mut oracle_state = state.clone();
    for round in 0..50u64 {
        let workload = SyntheticWorkload::new(24, 60).with_seed(0xC4A1 + round);
        let block = workload.generate_block();
        let output = executor.execute_block(&block, &state).unwrap();
        let expected = oracle.execute_block(&block, &oracle_state).unwrap();
        assert_eq!(
            output.updates, expected.updates,
            "chained block {round} diverged"
        );
        state.apply_updates(output.updates.iter().cloned());
        oracle_state.apply_updates(expected.updates.iter().cloned());
    }
    assert_eq!(executor.blocks_dispatched(), 50);
}

/// The same chained-reuse contract holds on the paper's p2p workload and storage
/// types (a second `(Key, Value)` instantiation of the same executor API).
#[test]
fn p2p_blocks_conform_through_the_trait() {
    let workload = P2pWorkload::diem(25, 200);
    let (storage, block) = workload.generate();
    let oracle = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    let engines: Vec<
        Box<
            dyn BlockExecutor<
                block_stm_vm::p2p::PeerToPeerTransaction,
                InMemoryStorage<block_stm_storage::AccessPath, block_stm_storage::StateValue>,
            >,
        >,
    > = vec![
        Box::new(
            BlockStmBuilder::new(Vm::for_testing())
                .concurrency(4)
                .build(),
        ),
        Box::new(BohmExecutor::new(Vm::for_testing(), 4)),
    ];
    for engine in engines {
        let output = engine.execute_block(&block, &storage).unwrap();
        assert_eq!(
            output.updates,
            oracle.updates,
            "{} diverged on the p2p workload",
            engine.name()
        );
    }
}

/// The account-model families (ETH transfers, ERC20 tokens) run through the
/// same unified trait. Read-modify-write fee mode keeps the blocks delta-free
/// so the hint-driven Bohm baseline participates; every order-preserving
/// engine must land on the sequential oracle's state.
#[test]
fn account_blocks_conform_through_the_trait() {
    use block_stm_workloads::{Erc20Workload, EthTransferWorkload, FeeMode};

    type AccountStorage =
        InMemoryStorage<block_stm_storage::AccessPath, block_stm_storage::StateValue>;

    fn engines<
        T: block_stm_vm::Transaction<
            Key = block_stm_storage::AccessPath,
            Value = block_stm_storage::StateValue,
        >,
    >() -> Vec<Box<dyn BlockExecutor<T, AccountStorage>>> {
        vec![
            Box::new(
                BlockStmBuilder::new(Vm::for_testing())
                    .concurrency(4)
                    .build(),
            ),
            Box::new(BohmExecutor::new(Vm::for_testing(), 4)),
        ]
    }

    let eth = EthTransferWorkload::new(30, 200).with_fee_mode(FeeMode::ReadModifyWrite);
    let (storage, block) = eth.generate();
    let oracle = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    for engine in engines() {
        let output = engine.execute_block(&block, &storage).unwrap();
        assert_eq!(
            output.updates,
            oracle.updates,
            "{} diverged on the eth-transfer workload",
            engine.name()
        );
    }

    let erc20 = Erc20Workload::new(30, 200).with_fee_mode(FeeMode::ReadModifyWrite);
    let (storage, block) = erc20.generate();
    let oracle = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    for engine in engines() {
        let output = engine.execute_block(&block, &storage).unwrap();
        assert_eq!(
            output.updates,
            oracle.updates,
            "{} diverged on the erc20 workload",
            engine.name()
        );
    }
}
