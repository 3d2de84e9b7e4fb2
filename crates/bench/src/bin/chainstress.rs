//! Adversarial stress harness for `execute_stream`: a dribbling block source
//! (random `Pending` polls, like a mempool former between cuts), variable
//! block sizes, and per-block conservation + sequential-equivalence oracles.
//!
//! This harness found the commit-ladder claim race (a validation-cursor
//! `fetch_add` advancing past a transaction before its `max_triggered_wave`
//! was stamped, letting the ladder commit a stale older-wave validation).
//! Run it oversubscribed — several instances on few cores — so claimer
//! threads get preempted inside scheduler windows:
//!
//! ```text
//! chainstress [iters] [threads] [fixed_seed]
//! ```
//!
//! Set `BLOCK_STM_CHAIN_AUDIT=1` to re-validate every committed read set at
//! drain time and abort with full wave forensics on the first stale commit.

use block_stm::SequentialExecutor;
use block_stm::{BlockFeed, BlockStmBuilder, Vm};
use block_stm_storage::{AccessPath, InMemoryStorage, StateValue};
use block_stm_workloads::{ConservationOracle, EthTransferTransaction, EthTransferWorkload};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

struct DribbleSource {
    blocks: Mutex<std::collections::VecDeque<Vec<EthTransferTransaction>>>,
    /// Every poll flips a pseudo-random coin: sometimes Pending even though a
    /// block is queued, mimicking a mempool former between cuts.
    rng: Mutex<Lcg>,
    pending_bias: u64,
    polls: AtomicU64,
}

impl block_stm::BlockSource<EthTransferTransaction> for DribbleSource {
    fn next_block(&self) -> BlockFeed<EthTransferTransaction> {
        self.polls.fetch_add(1, Ordering::Relaxed);
        let coin = self.rng.lock().next() % 100;
        if coin < self.pending_bias {
            // Simulate "not formed yet": spin a little, report Pending.
            std::thread::yield_now();
            return BlockFeed::Pending;
        }
        match self.blocks.lock().pop_front() {
            Some(block) => BlockFeed::Ready(block),
            None => BlockFeed::End,
        }
    }
}

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300);
    let threads: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let fixed: Option<u64> = std::env::args().nth(3).and_then(|a| a.parse().ok());
    let mut failures = 0u64;
    for round in 0..iters {
        let iter = fixed.unwrap_or(round);
        let mut rng = Lcg(0x9e3779b97f4a7c15 ^ (iter.wrapping_mul(0xdeadbeef)));
        let txns = 600 + (rng.next() % 600) as usize;
        let accounts = 40 + rng.next() % 40;
        let workload = EthTransferWorkload::new(accounts, txns).with_conflict(25, 2);
        let (genesis, all) = workload.generate();
        let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());

        // Cut into variable-size blocks like a former under bursty arrivals.
        let mut blocks = std::collections::VecDeque::new();
        let mut rest: &[EthTransferTransaction] = &all;
        while !rest.is_empty() {
            let cut = (1 + (rng.next() % 128) as usize).min(rest.len());
            blocks.push_back(rest[..cut].to_vec());
            rest = &rest[cut..];
        }
        let expected_blocks: Vec<Vec<EthTransferTransaction>> = blocks.iter().cloned().collect();
        let source = DribbleSource {
            blocks: Mutex::new(blocks),
            rng: Mutex::new(Lcg(rng.next())),
            pending_bias: 20 + rng.next() % 50,
            polls: AtomicU64::new(0),
        };

        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build_chain();
        let output = chain
            .execute_stream(&source, &genesis)
            .expect("stream execution failed");
        assert_eq!(output.blocks.len(), expected_blocks.len(), "block count");

        // Audit each block: conservation + equality with a sequential run.
        let seq = SequentialExecutor::new(Vm::for_testing());
        let mut pre: InMemoryStorage<AccessPath, StateValue> = genesis.clone();
        for (index, (block, out)) in expected_blocks.iter().zip(&output.blocks).enumerate() {
            if let Err(err) = oracle.check(&pre, block, &out.updates, &out.outputs) {
                eprintln!("iter {iter} threads {threads}: oracle failed on block {index}: {err}");
                failures += 1;
                break;
            }
            let reference = seq
                .execute_block(block, &pre)
                .expect("sequential reference failed");
            let mut chained: Vec<_> = out.updates.clone();
            let mut expected: Vec<_> = reference.updates.clone();
            chained.sort_by_key(|a| a.0);
            expected.sort_by_key(|a| a.0);
            if chained != expected {
                eprintln!(
                    "iter {iter} threads {threads}: updates diverge on block {index} \
                     (len {}, chained {} updates, sequential {} updates)",
                    block.len(),
                    chained.len(),
                    expected.len()
                );
                for (key, value) in &expected {
                    match chained.iter().find(|(k, _)| k == key) {
                        Some((_, got)) if got == value => {}
                        Some((_, got)) => {
                            eprintln!("  key {key:?}: chained {got:?} != sequential {value:?}")
                        }
                        None => eprintln!("  key {key:?}: missing from chained (seq {value:?})"),
                    }
                }
                for (key, value) in &chained {
                    if !expected.iter().any(|(k, _)| k == key) {
                        eprintln!("  key {key:?}: extra in chained ({value:?})");
                    }
                }
                for (txn_idx, (c, s)) in out.outputs.iter().zip(&reference.outputs).enumerate() {
                    if c.writes != s.writes || c.abort_code != s.abort_code {
                        eprintln!(
                            "  txn {txn_idx} ({:?}): chained abort {:?} writes {:?} | sequential abort {:?} writes {:?}",
                            block[txn_idx],
                            c.abort_code,
                            c.writes,
                            s.abort_code,
                            s.writes
                        );
                    }
                }
                failures += 1;
                break;
            }
            pre.apply_updates(out.updates.iter().cloned());
        }
        if round % 25 == 0 {
            eprintln!("round {round}: ok so far (failures {failures})");
        }
    }
    if failures > 0 {
        eprintln!("FAILURES: {failures}");
        std::process::exit(1);
    }
    eprintln!("all {iters} iterations clean at {threads} threads");
}
