//! Deterministic soak battery for the node service ([`block_stm_node::Node`]):
//! the mempool → block former → chained execution loop, driven end to end.
//!
//! What "deterministic" means here: block *formation* depends on timing (how
//! many transactions are queued when a cut becomes due), so block shapes may
//! differ between runs — but every invariant asserted below must hold for
//! every shape:
//!
//! * every submitted transaction commits **exactly once** (the node's
//!   per-submit-id audit trail),
//! * the committed stream satisfies the [`ConservationOracle`] block by block
//!   against the evolving pre-state (no value minted or destroyed, nonces
//!   monotone),
//! * the latency histograms cover every submission and their percentiles are
//!   monotone (p50 ≤ p90 ≤ p99 ≤ max),
//! * shutdown drains cleanly: closed mempool, depth zero, formed == committed.
//!
//! The battery also pins the block former's edge cases (no empty blocks, the
//! max-wait cut for a lone transaction, gas cuts matching a sequential prefix
//! walk, non-blocking typed backpressure) and the fault-injection path: a
//! durability sink whose persister silently dies mid-run must surface
//! [`NodeError::SinkStalled`] at shutdown — never hang, never pass — and a
//! reopened log must recover exactly the durable-watermark prefix. A healthy
//! sink on an idle node must make the last block durable without a flush.

use block_stm::{SequentialExecutor, Vm};
use block_stm_node::{Node, NodeError, NodeReport};
use block_stm_persist::testing::TempDir;
use block_stm_persist::{LogStore, WriteBehindSink};
use block_stm_storage::{AccessPath, InMemoryStorage, StateValue};
use block_stm_workloads::{ConservationOracle, EthTransferTransaction, EthTransferWorkload};
use std::sync::Arc;
use std::time::{Duration, Instant};

type AccountStorage = InMemoryStorage<AccessPath, StateValue>;
type DiskStorage = LogStore<AccessPath, StateValue>;

fn eth_workload(accounts: u64, txns: usize) -> EthTransferWorkload {
    EthTransferWorkload::new(accounts, txns).with_conflict(25, 2)
}

/// Submits every transaction in order, treating a full mempool as
/// backpressure (retry, never drop — a dropped transaction would leave a
/// nonce gap that aborts the rest of its sender's stream).
fn submit_all(node: &Node<EthTransferTransaction>, txns: &[EthTransferTransaction]) {
    let handle = node.handle();
    for txn in txns {
        loop {
            match handle.submit(*txn) {
                Ok(_) => break,
                Err(NodeError::MempoolFull { .. }) => std::thread::yield_now(),
                Err(err) => panic!("submission failed: {err}"),
            }
        }
    }
}

/// The battery's common post-conditions (see module docs).
fn audit_report(
    label: &str,
    genesis: &AccountStorage,
    oracle: &ConservationOracle,
    report: &NodeReport<EthTransferTransaction>,
    expected_txns: u64,
) {
    let snapshot = &report.snapshot;
    assert_eq!(snapshot.submitted, expected_txns, "[{label}] submitted");
    assert_eq!(snapshot.formed_txns, expected_txns, "[{label}] formed");
    assert_eq!(
        snapshot.committed_txns, expected_txns,
        "[{label}] committed"
    );
    assert_eq!(snapshot.mempool_depth, 0, "[{label}] drained");
    assert!(
        report.committed_exactly_once(),
        "[{label}] exactly-once audit failed: {:?}...",
        &report.commit_counts[..report.commit_counts.len().min(8)]
    );

    // Conservation over the full committed stream, block by block against
    // the evolving pre-state.
    assert_eq!(report.blocks.len(), report.outputs.len(), "[{label}]");
    let mut pre = genesis.clone();
    for (index, (block, output)) in report.blocks.iter().zip(&report.outputs).enumerate() {
        assert!(
            !block.is_empty(),
            "[{label}] empty block {index} was formed"
        );
        assert_eq!(
            block.len(),
            output.outputs.len(),
            "[{label}] block {index} output count"
        );
        oracle
            .check(&pre, block, &output.updates, &output.outputs)
            .unwrap_or_else(|err| panic!("[{label}] oracle rejected block {index}: {err}"));
        pre.apply_updates(output.updates.iter().cloned());
    }

    // Histograms: non-empty, covering every submission, monotone.
    for (name, summary) in [
        ("ingest_to_formed", &snapshot.ingest_to_formed_us),
        ("ingest_to_committed", &snapshot.ingest_to_committed_us),
    ] {
        assert_eq!(summary.count, expected_txns, "[{label}] {name} coverage");
        assert!(
            summary.p50 <= summary.p90 && summary.p90 <= summary.p99 && summary.p99 <= summary.max,
            "[{label}] {name} percentiles not monotone: {summary:?}"
        );
    }
}

#[test]
fn soak_commits_every_transaction_exactly_once_at_every_thread_count() {
    let workload = eth_workload(60, 1200);
    let (genesis, txns) = workload.generate();
    let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());
    for threads in [1usize, 2, 4, 8] {
        let node = Node::builder(Vm::for_testing(), genesis.clone())
            .concurrency(threads)
            .mempool_capacity(256)
            .max_block_txns(128)
            .max_wait(Duration::from_millis(2))
            .start()
            .expect("node starts");
        submit_all(&node, &txns);
        let report = node.shutdown().expect("clean drain");
        audit_report(
            &format!("chained@{threads}"),
            &genesis,
            &oracle,
            &report,
            1200,
        );
        // The node executes through the chain pipeline: its per-chain block
        // counter must agree with the former's.
        assert_eq!(
            report.snapshot.engine.chain_blocks, report.snapshot.formed_blocks,
            "[chained@{threads}]"
        );
    }
}

#[test]
fn snapshot_json_round_trips_through_the_stable_encoding() {
    let workload = eth_workload(20, 150);
    let (genesis, txns) = workload.generate();
    let node = Node::builder(Vm::for_testing(), genesis)
        .concurrency(2)
        .max_block_txns(64)
        .start()
        .expect("node starts");
    submit_all(&node, &txns);
    let report = node.shutdown().expect("clean drain");
    let snapshot = &report.snapshot;
    let json = snapshot.to_json();
    let parsed = block_stm_node::NodeSnapshot::from_json(&json).expect("round trip");
    assert_eq!(parsed.submitted, snapshot.submitted);
    assert_eq!(parsed.committed_txns, snapshot.committed_txns);
    assert_eq!(parsed.ingest_to_committed_us.count, 150);
    assert_eq!(parsed.engine.committed_txns, snapshot.engine.committed_txns);
    assert_eq!(parsed.to_json(), json, "re-encoding is stable");
}

#[test]
fn idle_ticks_form_no_empty_blocks() {
    let workload = eth_workload(10, 20);
    let (genesis, txns) = workload.generate();
    let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());
    let node = Node::builder(Vm::for_testing(), genesis.clone())
        .concurrency(2)
        .max_wait(Duration::from_millis(1))
        .start()
        .expect("node starts");
    // Let many empty max-wait ticks elapse before any traffic arrives.
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(
        node.snapshot().formed_blocks,
        0,
        "empty ticks formed blocks"
    );
    submit_all(&node, &txns);
    let report = node.shutdown().expect("clean drain");
    audit_report("idle-ticks", &genesis, &oracle, &report, 20);
}

#[test]
fn max_wait_cuts_a_single_queued_transaction() {
    let workload = eth_workload(10, 1);
    let (genesis, txns) = workload.generate();
    let node = Node::builder(Vm::for_testing(), genesis)
        .concurrency(1)
        .max_block_txns(4096) // the count cut can never fire
        .max_wait(Duration::from_millis(2))
        .start()
        .expect("node starts");
    node.submit(txns[0]).expect("mempool empty");
    // The lone transaction must commit via the age cut — well before any
    // shutdown-triggered drain.
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.snapshot().committed_txns < 1 {
        assert!(
            Instant::now() < deadline,
            "single transaction never committed: max-wait cut did not fire"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = node.shutdown().expect("clean drain");
    assert_eq!(report.snapshot.formed_blocks, 1);
    assert_eq!(report.blocks[0].len(), 1);
    assert!(report.committed_exactly_once());
}

#[test]
fn gas_cut_blocks_equal_the_sequential_prefix_walk() {
    let workload = eth_workload(30, 50);
    let (genesis, txns) = workload.generate();
    let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());
    // A fixed 10-gas estimate and a 95-gas budget: the greedy prefix walk
    // admits exactly 9 transactions per block. The count cut and age cut are
    // parked (max 50 txns queued, hour-long wait), so every cut is either the
    // gas rule at close-triggered drain — deterministic block shapes.
    let node = Node::builder(Vm::for_testing(), genesis.clone())
        .concurrency(2)
        .mempool_capacity(64)
        .max_block_txns(4096)
        .max_wait(Duration::from_secs(3600))
        .gas_budget(95, |_txn: &EthTransferTransaction| 10)
        .start()
        .expect("node starts");
    submit_all(&node, &txns);
    let report = node.shutdown().expect("clean drain");
    audit_report("gas-cut", &genesis, &oracle, &report, 50);
    let sizes: Vec<usize> = report.blocks.iter().map(Vec::len).collect();
    assert_eq!(sizes, vec![9, 9, 9, 9, 9, 5], "greedy 95/10 prefix walk");
    // FIFO forming: the concatenation is exactly the submission order.
    let replayed: Vec<EthTransferTransaction> = report.blocks.iter().flatten().cloned().collect();
    assert_eq!(replayed, txns);
}

#[test]
fn full_mempool_rejects_with_a_typed_error_without_blocking() {
    let workload = eth_workload(10, 5);
    let (genesis, txns) = workload.generate();
    // Cuts are parked until close, so the queue genuinely fills.
    let node = Node::builder(Vm::for_testing(), genesis)
        .concurrency(1)
        .mempool_capacity(4)
        .max_block_txns(4096)
        .max_wait(Duration::from_secs(3600))
        .start()
        .expect("node starts");
    for txn in &txns[..4] {
        node.submit(*txn).expect("below capacity");
    }
    let started = Instant::now();
    match node.submit(txns[4]) {
        Err(NodeError::MempoolFull { capacity }) => assert_eq!(capacity, 4),
        other => panic!("expected MempoolFull, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a full mempool must reject immediately, not block"
    );
    let snapshot = node.snapshot();
    assert_eq!(snapshot.submitted, 4);
    assert_eq!(snapshot.rejected_full, 1);
    let report = node.shutdown().expect("clean drain");
    assert_eq!(report.snapshot.committed_txns, 4);
    assert!(report.committed_exactly_once());
}

/// An idle node must not hold its last block back from disk: fewer
/// transactions than one write-behind batch, then no more traffic — once they
/// commit, the durable watermark reaches the committed count with no flush
/// and no shutdown (the block's end is the cut).
#[test]
fn idle_node_makes_its_last_block_durable_without_a_flush() {
    let workload = eth_workload(20, 20);
    let (genesis, txns) = workload.generate();
    let dir = TempDir::new("node-idle-durable");
    let store = Arc::new(DiskStorage::open(dir.path().join("state.log")).unwrap());
    store.ingest_genesis(&workload.genesis_builder()).unwrap();
    let sink = Arc::new(WriteBehindSink::new(store.clone()));
    let node = Node::builder(Vm::for_testing(), genesis)
        .concurrency(2)
        .max_wait(Duration::from_millis(2))
        .durability(sink)
        .start()
        .expect("node starts");
    submit_all(&node, &txns);

    let deadline = Instant::now() + Duration::from_secs(10);
    while node.snapshot().committed_txns < 20 {
        assert!(Instant::now() < deadline, "transactions never committed");
        std::thread::sleep(Duration::from_millis(1));
    }
    while store.durable_watermark() < 20 {
        assert!(
            Instant::now() < deadline,
            "idle node left its committed transactions pending: durable watermark {} of 20",
            store.durable_watermark()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(store.durable_watermark(), 20);

    let report = node.shutdown().expect("clean drain");
    assert!(report.committed_exactly_once());
    assert_eq!(report.durable_watermark, Some(20));
}

#[test]
fn sink_death_surfaces_sink_stalled_and_recovery_yields_the_durable_prefix() {
    let workload = eth_workload(40, 400);
    let (mem_genesis, txns) = workload.generate();
    let oracle = ConservationOracle::new().with_beneficiary(workload.beneficiary());

    let dir = TempDir::new("node-sink-death");
    let path = dir.path().join("state.log");
    let store = Arc::new(DiskStorage::open(&path).unwrap());
    store.ingest_genesis(&workload.genesis_builder()).unwrap();
    // The persister appends 3 batches of up to 32 events, then silently dies:
    // flush barriers still ack, the watermark just stops advancing — the
    // on-disk signature of a process crash at a batch boundary.
    let sink = Arc::new(
        WriteBehindSink::new(store.clone())
            .with_batch_events(32)
            .with_crash_after_batches(3),
    );

    let node = Node::builder(Vm::for_testing(), mem_genesis.clone())
        .concurrency(2)
        .mempool_capacity(512)
        .max_block_txns(64)
        .max_wait(Duration::from_millis(2))
        .durability(sink.clone())
        .start()
        .expect("node starts");
    submit_all(&node, &txns);

    // Shutdown must complete (the drain itself is unaffected by the dead
    // persister) and must report the stall as a typed error — not hang, and
    // not return a clean report over silently lost data.
    let err = match node.shutdown() {
        Err(err) => err,
        Ok(report) => panic!(
            "shutdown hid the sink death: clean report over {} committed txns",
            report.snapshot.committed_txns
        ),
    };
    let durable = match err {
        NodeError::SinkStalled {
            durable_events,
            committed_events,
        } => {
            assert_eq!(committed_events, 400);
            assert!(
                durable_events < committed_events,
                "stall requires a frozen watermark ({durable_events} vs {committed_events})"
            );
            durable_events
        }
        other => panic!("expected SinkStalled, got {other}"),
    };

    // Recovery: a reopened store replays exactly the durable prefix — the
    // first `durable` transactions of the committed stream (FIFO forming
    // makes that the submission order), nothing more.
    drop(sink);
    drop(store);
    let reopened = DiskStorage::open(&path).unwrap();
    assert_eq!(reopened.durable_watermark(), durable);
    let reference = SequentialExecutor::new(Vm::for_testing())
        .execute_block(&txns[..durable as usize], &mem_genesis)
        .unwrap();
    let mut expected = mem_genesis.clone();
    expected.apply_updates(reference.updates.iter().cloned());
    assert_eq!(reopened.len(), expected.len());
    for (key, value) in expected.iter() {
        assert_eq!(
            reopened.get_value(key).unwrap().as_ref(),
            Some(value),
            "recovered state diverged at {key:?}"
        );
    }
    // The prefix the oracle judges is value-conserving too: recovery never
    // resurrects a partially-applied transaction.
    let _ = oracle;
}
