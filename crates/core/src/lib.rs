//! # Block-STM
//!
//! A from-scratch Rust reproduction of **Block-STM** (*"Block-STM: Scaling Blockchain
//! Execution by Turning Ordering Curse to a Performance Blessing"*, PPoPP 2023):
//! a parallel, in-memory execution engine for blocks of transactions whose outcome is
//! guaranteed to equal a sequential execution in the block's *preset order*.
//!
//! ## How it works
//!
//! Transactions are executed speculatively and optimistically by a pool of worker
//! threads. Reads go through a shared **multi-version memory** (one entry per writing
//! transaction per location), so a speculative execution of `tx_j` observes the writes
//! of the highest transaction below `j` that has executed so far. After executing, an
//! incarnation is **validated** by re-reading its read-set; a mismatch aborts it, marks
//! its writes as `ESTIMATE` dependencies and schedules a re-execution. A low-overhead
//! **collaborative scheduler** dispenses execution and validation tasks in index order
//! from a pair of atomic counters, and lazily detects when the whole block has
//! committed.
//!
//! ## The `BlockExecutor` interface
//!
//! Every engine in this workspace — the parallel [`BlockStm`] engine, the
//! [`SequentialExecutor`] baseline, and the Bohm/LiTM comparison engines in
//! `block-stm-baselines` — implements the [`BlockExecutor`] trait: construct the
//! engine once, then hand it block after block. [`BlockStm`] is built via
//! [`BlockStmBuilder`] and is the production shape from the paper's validator setting
//! (§1, §6): it owns a **persistent worker pool** whose threads park between blocks,
//! and per-block structures (multi-version memory arrays, scheduler counters, output
//! slots) are **reset and reused** rather than reallocated — at small block sizes the
//! per-block setup cost would otherwise dominate. Failures (a panicking transaction,
//! a misconfiguration) surface as typed [`ExecutionError`]s, never panics.
//!
//! ## Quickstart
//!
//! ```
//! use block_stm::{BlockExecutor, BlockStmBuilder, SequentialExecutor};
//! use block_stm_storage::InMemoryStorage;
//! use block_stm_vm::synthetic::SyntheticTransaction;
//! use block_stm_vm::Vm;
//!
//! // Pre-block state: two counters.
//! let mut storage = InMemoryStorage::new();
//! storage.insert(0u64, 100u64);
//! storage.insert(1u64, 200u64);
//!
//! // Build the engine ONCE: it keeps a persistent worker pool and reusable
//! // per-block state, and then executes block after block.
//! let executor = BlockStmBuilder::new(Vm::for_testing()).concurrency(4).build();
//!
//! // A block of read-modify-write transactions with a preset order.
//! let block: Vec<SyntheticTransaction> = (0..64)
//!     .map(|i| SyntheticTransaction::transfer(i % 2, (i + 1) % 2, i))
//!     .collect();
//!
//! // Execute in parallel ...
//! let parallel_output = executor.execute_block(&block, &storage).expect("no worker panicked");
//!
//! // ... and sequentially; the committed state must be identical.
//! let sequential = SequentialExecutor::new(Vm::for_testing());
//! let sequential_output = sequential.execute_block(&block, &storage).unwrap();
//! assert_eq!(parallel_output.updates, sequential_output.updates);
//!
//! // The same engine instance keeps serving blocks, reusing its pool and arenas.
//! let again = executor.execute_block(&block, &storage).unwrap();
//! assert_eq!(again.updates, parallel_output.updates);
//! ```
//!
//! ## Streaming outputs: the commit ladder
//!
//! The scheduler commits a **rolling prefix** of the block: as soon as the lowest
//! uncommitted transaction holds a sufficiently fresh passing validation it is
//! committed, permanently exempted from re-validation, and its multi-version entries
//! are frozen for cheap final reads. Downstream consumers do not have to wait for
//! the whole block:
//!
//! * a [`CommitSink`] attached via [`BlockStmBuilder::commit_sink`] receives every
//!   committed `(txn_idx, output)` in preset order, exactly once, while the tail of
//!   the block still speculates;
//! * a [`BlockLimiter`] attached via [`BlockStmBuilder::block_limiter`] can halt the
//!   block early at a committed boundary — [`BlockGasLimit`] implements the classic
//!   block-gas-limit scenario, where transactions past the cut are cleanly excluded
//!   (the result equals a sequential execution of the truncated block, reported via
//!   [`BlockOutput::truncated_at`]).
//!
//! ```
//! use block_stm::{BlockGasLimit, BlockStmBuilder, CommitEvent, CommitSink, Vm};
//! use block_stm_storage::InMemoryStorage;
//! use block_stm_vm::synthetic::SyntheticTransaction;
//! use parking_lot::Mutex;
//! use std::sync::Arc;
//!
//! // A sink that receives committed outputs in order, while the block executes.
//! #[derive(Default)]
//! struct Stream(Mutex<Vec<(usize, u64)>>);
//! impl CommitSink<u64, u64> for Stream {
//!     fn on_commit(&self, event: &CommitEvent<'_, u64, u64>) {
//!         self.0.lock().push((event.txn_idx, event.output.gas_used));
//!     }
//! }
//!
//! let sink = Arc::new(Stream::default());
//! let executor = BlockStmBuilder::new(Vm::for_testing())
//!     .concurrency(4)
//!     .commit_sink::<u64, u64>(sink.clone())
//!     .build();
//!
//! let storage: InMemoryStorage<u64, u64> = (0..8u64).map(|k| (k, 0)).collect();
//! let block: Vec<_> = (0..32).map(|i| SyntheticTransaction::increment(i % 8)).collect();
//! let output = executor.execute_block(&block, &storage).unwrap();
//!
//! // Every transaction was streamed exactly once, in preset order.
//! let streamed = sink.0.lock();
//! assert_eq!(streamed.len(), 32);
//! assert!(streamed.windows(2).all(|w| w[0].0 + 1 == w[1].0));
//! assert!(!output.is_truncated());
//! # let _ = BlockGasLimit::new(1); // linked above for the doc narrative
//! ```
//!
//! The ladder is the engine's only completion mechanism: every block finishes by
//! committing its last transaction, so there is no switch to turn streaming off.
//!
//! ## Chained execution: pipelining across blocks
//!
//! [`BlockStmBuilder::build_chain`] returns a [`ChainExecutor`] that executes a
//! whole *stream* of blocks in one worker-pool dispatch: as block `N`'s commit
//! ladder drains, its committed writes are published to a cross-block frontier
//! overlay and idle workers pipeline into block `N+1`, speculating against it.
//! A commit gate holds block `N+1`'s commits until block `N` has fully
//! committed and a final revalidation sweep has run, so the committed stream is
//! byte-for-byte what a barrier between blocks would produce — while workers
//! are unparked once per chain instead of once per block. The README's
//! "Chained execution" section has a doctested walkthrough; the
//! `block-stm-scheduler` crate docs carry the safety argument.
//!
//! ## Commutative delta writes (aggregators)
//!
//! Hot-key blocks (fee counters, total supply, vote tallies) collapse ordered
//! speculation to sequential speed: every read-modify-write conflicts with every
//! other. [`TransactionContext::apply_delta`] publishes a bounded commutative
//! delta instead of a value; the multi-version memory resolves delta chains
//! lazily, validation compares resolved sums / bounds predicates instead of
//! exact versions, and the commit ladder materializes committed deltas into
//! concrete frozen values (streamed via `CommitEvent::resolved_deltas`). The
//! README's "Delta writes" section has a doctested walkthrough; the
//! `block-stm-mvmemory` crate docs carry the safety argument.
//!
//! ## Hint-guided scheduling and adaptive engine selection
//!
//! Transactions may declare optional [`AccessHints`] (read/write sets, possibly
//! imprecise). With [`BlockStmBuilder::use_hints`] the scheduler pre-registers
//! dependencies on declared read-over-write overlaps, reorders initial
//! executions low-conflict-first (commit order is untouched), and — when every
//! hint in the block is exact — skips validation descriptors for hint-proven
//! private reads. Hints are advisory for scheduling; correctness never depends
//! on them unless they claim exactness, which is then enforced at record time
//! ([`ExecutionError::UndeclaredWrite`]). On top of this, [`AdaptiveExecutor`]
//! picks sequential / parallel / hinted execution **per block** from cheap
//! signals and carries a mid-block escape hatch back to sequential
//! ([`ExecutionError::AbortThresholdExceeded`]). The README's "Adaptive
//! execution" section has a doctested walkthrough; the `block-stm-scheduler`
//! crate docs carry the hint-safety argument.
//!
//! ## Crate layout
//!
//! * [`BlockExecutor`] — the engine-agnostic interface every engine implements.
//! * [`BlockStm`] / [`BlockStmBuilder`] — the Block-STM engine (Algorithm 1 wiring of
//!   the scheduler, multi-version memory and VM) with its persistent worker pool.
//! * [`ChainExecutor`] / [`ChainOutput`] — cross-block pipelining: a stream of
//!   blocks executed back-to-back on one pool dispatch, speculating through the
//!   cross-block frontier.
//! * [`CommitSink`] / [`BlockLimiter`] / [`BlockGasLimit`] — streaming hooks over the
//!   rolling committed prefix.
//! * [`SequentialExecutor`] — the baseline the paper compares against and the
//!   correctness oracle for every other engine.
//! * [`AdaptiveExecutor`] — per-block engine selection over sequential /
//!   parallel / hinted dispatch, with the abort-threshold escape hatch.
//! * [`BlockOutput`] — committed state updates, per-transaction outputs and execution
//!   metrics (plus the [`truncated_at`](BlockOutput::truncated_at) cut marker).
//! * [`ExecutionError`] — typed failures (worker panic, misconfiguration, violated
//!   invariants).
//! * [`ExecutorOptions`] — thread count, hint-guided scheduling and the abort
//!   budget (assembled fluently by [`BlockStmBuilder`]).
//!
//! The building blocks live in sibling crates: `block-stm-mvmemory` (Algorithm 2),
//! `block-stm-scheduler` (Algorithms 4–5), `block-stm-vm` (transaction model and
//! simulated VM), `block-stm-storage` (pre-block state) and `block-stm-sync`
//! (concurrency primitives, including the persistent worker pool).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Compile and run the README's code snippets (e.g. the "streaming outputs"
// CommitSink example) as doctests, so the top-level docs can never rot.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub mod readme_doctests {}

mod adaptive;
mod block_stm;
mod chain;
mod config;
mod errors;
mod executor;
mod hooks;
mod output;
mod sequential;
mod view;

pub use adaptive::{AdaptiveDecision, AdaptiveExecutor, AdaptiveExecutorBuilder, EngineChoice};
pub use block_stm::{BlockStm, BlockStmBuilder};
pub use chain::{BlockFeed, BlockSource, ChainExecutor, ChainOutput};
pub use config::ExecutorOptions;
pub use errors::{ExecutionError, PanicCollector};
pub use executor::BlockExecutor;
pub use hooks::{BlockGasLimit, BlockLimiter, CommitEvent, CommitSink, MultiSink};
pub use output::BlockOutput;
pub use sequential::SequentialExecutor;
pub use view::MVHashMapView;

// Re-exported so executor embedders and benches can drive the multi-version
// memory's cached hot path without a direct dependency on the mvmemory crate.
pub use block_stm_mvmemory::{LocationCache, LocationCacheStats, LocationId};

// Re-export the pieces users need to define and run transactions without adding the
// sibling crates as direct dependencies.
pub use block_stm_metrics::MetricsSnapshot;
pub use block_stm_vm::{
    AbortCode, AccessHints, ExecutionFailure, GasSchedule, HintedTransaction, Incarnation,
    ReadOutcome, StateReader, Transaction, TransactionContext, TransactionOutput, TxnIndex,
    Version, Vm, WriteOp,
};
