//! Run the Block-STM engine as a *service*: a long-lived node that ingests
//! transactions continuously instead of executing pre-formed blocks.
//!
//! The paper evaluates Block-STM on fixed blocks; a deployment (Diem/Aptos
//! style) wraps the engine in exactly three more pieces, which this crate
//! provides:
//!
//! * a bounded **mempool** ([`NodeError::MempoolFull`] backpressure, FIFO
//!   admission, per-transaction arrival timestamps),
//! * a **block former** that cuts the queue into blocks by transaction count,
//!   age of the oldest waiter, or estimated gas (reusing the engine's
//!   [`BlockGasLimit`](block_stm::BlockGasLimit) accounting), and
//! * a **continuous execution loop**: one
//!   [`BlockStm::execute_stream`](block_stm::BlockStm::execute_stream)
//!   dispatch whose block source *is* the former, so forming the next block
//!   overlaps with executing the current one and freshly cut blocks enter the
//!   chain's cross-block run-ahead pipeline directly.
//!
//! Observation is first-class: the node keeps ingest→formed and
//! ingest→committed latency histograms
//! ([`LatencyHistogram`](block_stm_metrics::LatencyHistogram)), engine
//! metrics, and counters, all frozen into a JSON-stable [`NodeSnapshot`] —
//! dumped periodically if configured, and always in the final [`NodeReport`]
//! together with a per-transaction exactly-once commit audit.
//!
//! # Shutdown ordering
//!
//! [`Node::shutdown`] is close → drain → flush → report, and the order is
//! load-bearing: closing first bounds the drain; joining the executor *is*
//! the drain barrier (the former reports end-of-stream only once the closed
//! mempool is empty); and the durability flush runs only after the join, so
//! its watermark audit compares against a complete committed count —
//! flushing earlier could misread a healthy sink as stalled (or worse, a
//! stalled sink as healthy). The full argument is in the
//! [`service`](self) module docs.
//!
//! ```
//! use block_stm::Vm;
//! use block_stm_node::Node;
//! use block_stm_workloads::EthTransferWorkload;
//!
//! // 64 accounts, 256 nonce-consecutive transfers to replay as traffic.
//! let workload = EthTransferWorkload::new(64, 256);
//! let (genesis, txns) = workload.generate();
//!
//! let node = Node::builder(Vm::for_testing(), genesis)
//!     .concurrency(2)
//!     .max_block_txns(64)
//!     .start()
//!     .expect("node starts");
//! let handle = node.handle();
//! for txn in txns {
//!     handle.submit(txn).expect("mempool sized for the workload");
//! }
//! let report = node.shutdown().expect("clean drain");
//! assert_eq!(report.snapshot.committed_txns, 256);
//! assert!(report.committed_exactly_once());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod former;
mod mempool;
mod service;

pub use former::GasEstimator;
pub use mempool::SubmitError;
pub use service::{
    DurabilitySink, Node, NodeBuilder, NodeError, NodeHandle, NodeReport, NodeSnapshot,
    SnapshotCallback,
};
