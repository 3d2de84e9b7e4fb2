//! Cross-engine equivalence: Block-STM and Bohm must commit exactly the state a
//! sequential execution of the preset order commits, for every workload shape, thread
//! count and option combination. This is the paper's own correctness oracle
//! ("the preset order allows us to test correctness by comparing to sequential
//! implementation outputs", §4).

use block_stm::{BlockStmBuilder, SequentialExecutor, Vm};
use block_stm_baselines::BohmExecutor;
use block_stm_storage::InMemoryStorage;
use block_stm_vm::synthetic::SyntheticTransaction;
use block_stm_workloads::{HotspotWorkload, P2pWorkload, SyntheticWorkload};

fn block_stm(threads: usize) -> block_stm::BlockStm {
    BlockStmBuilder::new(Vm::for_testing())
        .concurrency(threads)
        .build()
}

fn check_synthetic_block(
    block: &[SyntheticTransaction],
    storage: &InMemoryStorage<u64, u64>,
    threads: usize,
) {
    let sequential = SequentialExecutor::new(Vm::for_testing())
        .execute_block(block, storage)
        .unwrap();
    let parallel = block_stm(threads).execute_block(block, storage).unwrap();
    assert_eq!(
        parallel.updates, sequential.updates,
        "Block-STM diverged from sequential at {threads} threads"
    );

    let bohm = BohmExecutor::new(Vm::for_testing(), threads)
        .execute_block(block, storage)
        .unwrap();
    assert_eq!(
        bohm.updates, sequential.updates,
        "Bohm diverged from sequential at {threads} threads"
    );
}

#[test]
fn synthetic_workloads_match_across_thread_counts() {
    for seed in 0..4u64 {
        let workload = SyntheticWorkload::new(24, 200).with_seed(seed);
        let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
        let block = workload.generate_block();
        for threads in [1, 2, 4, 8] {
            check_synthetic_block(&block, &storage, threads);
        }
    }
}

#[test]
fn hotspot_workloads_match() {
    for hot_pct in [0u8, 30, 100] {
        let workload = HotspotWorkload::new(150, hot_pct);
        let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
        let block = workload.generate_block();
        check_synthetic_block(&block, &storage, 8);
    }
}

#[test]
fn diem_p2p_block_matches_sequential() {
    let workload = P2pWorkload::diem(50, 400);
    let (storage, block) = workload.generate();
    let sequential = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    for threads in [2, 8] {
        let parallel = block_stm(threads).execute_block(&block, &storage).unwrap();
        assert_eq!(parallel.updates, sequential.updates);
        assert_eq!(parallel.outputs.len(), block.len());
    }
    let bohm = BohmExecutor::new(Vm::for_testing(), 8)
        .execute_block(&block, &storage)
        .unwrap();
    assert_eq!(bohm.updates, sequential.updates);
}

#[test]
fn aptos_p2p_block_matches_sequential() {
    let workload = P2pWorkload::aptos(10, 300);
    let (storage, block) = workload.generate();
    let sequential = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    let parallel = block_stm(6).execute_block(&block, &storage).unwrap();
    assert_eq!(parallel.updates, sequential.updates);
}

#[test]
fn inherently_sequential_two_account_block_matches() {
    // With 2 accounts every transaction conflicts with the previous one.
    let workload = P2pWorkload::diem(2, 250);
    let (storage, block) = workload.generate();
    let sequential = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    let parallel = block_stm(8).execute_block(&block, &storage).unwrap();
    assert_eq!(parallel.updates, sequential.updates);
}

#[test]
fn executor_option_ablations_preserve_correctness() {
    let workload = SyntheticWorkload::new(8, 300).with_seed(99);
    let storage: InMemoryStorage<u64, u64> = workload.initial_state().into_iter().collect();
    let block = workload.generate_block();
    let sequential = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&block, &storage)
        .unwrap();
    // The remaining options steer scheduling only: hints on, and an abort
    // budget too large to trip, alone and together.
    for builder in [
        BlockStmBuilder::new(Vm::for_testing())
            .concurrency(8)
            .use_hints(true),
        BlockStmBuilder::new(Vm::for_testing())
            .concurrency(8)
            .abort_fallback_threshold(u64::MAX),
        BlockStmBuilder::new(Vm::for_testing())
            .concurrency(8)
            .use_hints(true)
            .abort_fallback_threshold(u64::MAX),
    ] {
        let parallel = builder.build().execute_block(&block, &storage).unwrap();
        assert_eq!(parallel.updates, sequential.updates);
    }
}
