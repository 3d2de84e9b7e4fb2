//! Streaming commit hooks: [`CommitSink`] and [`BlockLimiter`].
//!
//! The rolling commit ladder (see `block-stm-scheduler`) commits a growing prefix of
//! the block while the tail still speculates. These hooks let embedders consume that
//! prefix *as it commits* instead of waiting for the whole block:
//!
//! * a [`CommitSink`] receives every committed `(txn_idx, output)` pair **in preset
//!   order, exactly once** — e.g. to stream receipts to a mempool, start state-sync
//!   early, or feed a downstream pipeline;
//! * a [`BlockLimiter`] decides, per committed transaction and in order, whether it
//!   is still included — returning `false` cuts the block cleanly at the committed
//!   boundary: the cut transaction and everything after it are excluded from the
//!   block output, exactly as if the block had been truncated before execution.
//!   [`BlockGasLimit`] is the canonical limiter: stop at the first transaction that
//!   would push cumulative gas past a budget.
//!
//! Both hooks attach to `BlockStmBuilder` once and are reused block after block
//! ([`CommitSink::begin_block`] / [`BlockLimiter::begin_block`] re-arm any per-block
//! state; [`CommitSink::end_block`] marks the moment a block's commit stream is
//! complete). The executor is deliberately *not* generic over the state model, so the
//! hooks are stored type-erased and re-matched against the block's `(Key, Value)`
//! types at execution time; a mismatch is reported as a typed error, never a panic.

use block_stm_vm::{TransactionOutput, TxnIndex};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One committed transaction, delivered to a [`CommitSink`] in preset order.
#[derive(Debug)]
pub struct CommitEvent<'a, K, V> {
    /// Index of the committed transaction.
    pub txn_idx: TxnIndex,
    /// Its final output (the committed incarnation's). Borrowed from the engine's
    /// output slot; clone what must outlive the callback.
    pub output: &'a TransactionOutput<K, V>,
    /// The concrete values the transaction's commutative delta writes
    /// (`output.deltas`) materialized to at commit, in the same order: the commit
    /// drain folds each delta chain against the committed prefix, so sinks can
    /// stream final states without resolving anything. Empty when the
    /// transaction used no deltas.
    pub resolved_deltas: &'a [(K, V)],
    /// Position of the execution cursor when the commit was drained — how far
    /// speculation had run ahead of this commit.
    pub execution_cursor: usize,
}

impl<K, V> CommitEvent<'_, K, V> {
    /// Commit lag in transactions: `execution_cursor - txn_idx`.
    pub fn commit_lag(&self) -> usize {
        self.execution_cursor.saturating_sub(self.txn_idx)
    }
}

/// Streaming consumer of the committed prefix.
///
/// `on_commit` is called once per transaction, in preset order (`0, 1, 2, …`),
/// from whichever worker thread drains the commit ladder — implementations must be
/// `Send + Sync` and should be quick (a slow sink delays the drain, not correctness).
///
/// Per block, a sink sees exactly this sequence, with nothing from another block
/// interleaved (on `BlockStm::execute_block` and chained streams alike):
///
/// ```text
/// begin_block(n)   on_commit(0) … on_commit(m - 1)   end_block(m)
/// ```
///
/// where `m == n`, or `m < n` when a [`BlockLimiter`] cut the block at `m`;
/// an empty block is `begin_block(0)` then `end_block(0)`.
///
/// If `execute_block` returns an error (worker panic, broken invariant), deliveries
/// already made for that block must be considered abandoned along with the block,
/// and its `end_block` is not called.
pub trait CommitSink<K, V>: Send + Sync {
    /// Called once when a block starts executing; re-arm per-block state here.
    fn begin_block(&self, _block_size: usize) {}

    /// Called exactly once per committed transaction, in preset order.
    fn on_commit(&self, event: &CommitEvent<'_, K, V>);

    /// Called once per block, on the draining thread, the moment the block's
    /// commit stream is complete: right after its last `on_commit`, with the
    /// number of transactions committed (the cut point after a limiter cut, `0`
    /// for an empty block). Always precedes the next block's `begin_block` — the
    /// place to flush per-block output without waiting for the next block.
    fn end_block(&self, _committed: usize) {}
}

/// A [`CommitSink`] that fans one commit stream out to several sinks.
///
/// `BlockStmBuilder::commit_sink` already fans out when called repeatedly —
/// every attached sink sees every event, in attach order. `MultiSink` is the
/// same combinator as a value: compose sinks *before* attaching (or nest
/// groups), hand the composite to anything that accepts a single
/// `Arc<dyn CommitSink>`. Delivery guarantees are unchanged — each inner sink
/// observes every commit in preset order, exactly once, and `begin_block` and
/// `end_block` reach each inner sink once per block.
///
/// ```
/// use block_stm::{CommitEvent, CommitSink, MultiSink};
/// use parking_lot::Mutex;
/// use std::sync::Arc;
///
/// #[derive(Default)]
/// struct Collect(Mutex<Vec<usize>>);
/// impl CommitSink<u64, u64> for Collect {
///     fn on_commit(&self, event: &CommitEvent<'_, u64, u64>) {
///         self.0.lock().push(event.txn_idx);
///     }
/// }
///
/// let receipts = Arc::new(Collect::default());
/// let state_sync = Arc::new(Collect::default());
/// let fanout = MultiSink::new()
///     .with(receipts.clone())
///     .with(state_sync.clone());
/// // `fanout` is itself a CommitSink<u64, u64>.
/// ```
pub struct MultiSink<K, V> {
    sinks: Vec<Arc<dyn CommitSink<K, V>>>,
}

impl<K, V> Default for MultiSink<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> MultiSink<K, V> {
    /// An empty fan-out (a no-op sink until sinks are added).
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Adds a sink; events are delivered to sinks in the order they were added.
    pub fn with(mut self, sink: Arc<dyn CommitSink<K, V>>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Number of composed sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the fan-out is empty.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl<K, V> CommitSink<K, V> for MultiSink<K, V>
where
    K: Send + Sync,
    V: Send + Sync,
{
    fn begin_block(&self, block_size: usize) {
        for sink in &self.sinks {
            sink.begin_block(block_size);
        }
    }

    fn on_commit(&self, event: &CommitEvent<'_, K, V>) {
        for sink in &self.sinks {
            sink.on_commit(event);
        }
    }

    fn end_block(&self, committed: usize) {
        for sink in &self.sinks {
            sink.end_block(committed);
        }
    }
}

/// In-order admission control over the committed prefix: the block-gas-limit hook.
///
/// `include_next` is called for each committed transaction in preset order, before
/// it is delivered to any [`CommitSink`]. Returning `false` **cuts the block**: the
/// offered transaction and every higher one are excluded from the block output, the
/// remaining speculation is halted, and the result equals a sequential execution of
/// the truncated block. The cut is deterministic whenever the decision depends only
/// on the (deterministic) committed outputs.
pub trait BlockLimiter<K, V>: Send + Sync {
    /// Called once when a block starts executing; re-arm per-block state here.
    fn begin_block(&self, _block_size: usize) {}

    /// Whether the committed transaction `txn_idx` is still part of the block.
    /// Returning `false` excludes it and everything after it.
    fn include_next(&self, txn_idx: TxnIndex, output: &TransactionOutput<K, V>) -> bool;
}

/// The canonical [`BlockLimiter`]: a block gas budget.
///
/// Transactions are included while cumulative `gas_used` stays within the limit; the
/// first transaction that would exceed it is cut (together with everything above).
/// Because committed outputs equal the sequential execution's, the cut point is
/// deterministic.
#[derive(Debug)]
pub struct BlockGasLimit {
    limit: u64,
    used: AtomicU64,
}

impl BlockGasLimit {
    /// A limiter admitting transactions while cumulative gas stays `<= limit`.
    pub fn new(limit: u64) -> Self {
        Self {
            limit,
            used: AtomicU64::new(0),
        }
    }

    /// The configured gas budget.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Gas admitted so far in the current block.
    pub fn gas_used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

impl<K, V> BlockLimiter<K, V> for BlockGasLimit {
    fn begin_block(&self, _block_size: usize) {
        self.used.store(0, Ordering::Relaxed);
    }

    fn include_next(&self, _txn_idx: TxnIndex, output: &TransactionOutput<K, V>) -> bool {
        // Only the draining thread calls this, in order; plain load/store suffices.
        // Checked addition: an overflowing total trivially exceeds any budget, so
        // it cuts the block rather than wrapping (or panicking in debug builds).
        let admitted = match self
            .used
            .load(Ordering::Relaxed)
            .checked_add(output.gas_used)
        {
            Some(total) if total <= self.limit => total,
            _ => return false,
        };
        self.used.store(admitted, Ordering::Relaxed);
        true
    }
}

/// Type-erased [`CommitSink`], stored on the (state-model-agnostic) executor.
pub(crate) trait ErasedCommitSink: Send + Sync {
    fn begin_block(&self, block_size: usize);
    /// Delivers one commit. Returns `false` if `output` is not the sink's
    /// `TransactionOutput<K, V>` (state-model mismatch).
    fn on_commit_erased(
        &self,
        txn_idx: TxnIndex,
        output: &dyn Any,
        resolved_deltas: &dyn Any,
        execution_cursor: usize,
    ) -> bool;
    fn end_block(&self, committed: usize);
}

pub(crate) struct SinkAdapter<K, V> {
    pub sink: Arc<dyn CommitSink<K, V>>,
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> ErasedCommitSink for SinkAdapter<K, V> {
    fn begin_block(&self, block_size: usize) {
        self.sink.begin_block(block_size);
    }

    fn end_block(&self, committed: usize) {
        self.sink.end_block(committed);
    }

    fn on_commit_erased(
        &self,
        txn_idx: TxnIndex,
        output: &dyn Any,
        resolved_deltas: &dyn Any,
        execution_cursor: usize,
    ) -> bool {
        match (
            output.downcast_ref::<TransactionOutput<K, V>>(),
            resolved_deltas.downcast_ref::<Vec<(K, V)>>(),
        ) {
            (Some(output), Some(resolved_deltas)) => {
                self.sink.on_commit(&CommitEvent {
                    txn_idx,
                    output,
                    resolved_deltas,
                    execution_cursor,
                });
                true
            }
            _ => false,
        }
    }
}

/// Type-erased [`BlockLimiter`], stored on the (state-model-agnostic) executor.
pub(crate) trait ErasedBlockLimiter: Send + Sync {
    fn begin_block(&self, block_size: usize);
    /// `Some(include)` on success, `None` on a state-model mismatch.
    fn include_next_erased(&self, txn_idx: TxnIndex, output: &dyn Any) -> Option<bool>;
}

pub(crate) struct LimiterAdapter<K, V> {
    pub limiter: Arc<dyn BlockLimiter<K, V>>,
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> ErasedBlockLimiter
    for LimiterAdapter<K, V>
{
    fn begin_block(&self, block_size: usize) {
        self.limiter.begin_block(block_size);
    }

    fn include_next_erased(&self, txn_idx: TxnIndex, output: &dyn Any) -> Option<bool> {
        output
            .downcast_ref::<TransactionOutput<K, V>>()
            .map(|output| self.limiter.include_next(txn_idx, output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(gas: u64) -> TransactionOutput<u64, u64> {
        TransactionOutput {
            writes: vec![],
            deltas: vec![],
            gas_used: gas,
            abort_code: None,
            reads_performed: 0,
            work_sink: 0,
        }
    }

    #[test]
    fn gas_limit_cuts_at_the_first_over_budget_txn() {
        let limiter = BlockGasLimit::new(100);
        BlockLimiter::<u64, u64>::begin_block(&limiter, 4);
        assert!(limiter.include_next(0, &output(40)));
        assert!(limiter.include_next(1, &output(60)));
        assert_eq!(limiter.gas_used(), 100);
        assert!(!limiter.include_next(2, &output(1)), "budget exhausted");
        // begin_block re-arms for the next block.
        BlockLimiter::<u64, u64>::begin_block(&limiter, 4);
        assert_eq!(limiter.gas_used(), 0);
        assert!(limiter.include_next(0, &output(100)));
        assert!(!limiter.include_next(1, &output(1)));
    }

    #[test]
    fn gas_limit_overflow_cuts_instead_of_wrapping() {
        let limiter = BlockGasLimit::new(u64::MAX);
        BlockLimiter::<u64, u64>::begin_block(&limiter, 3);
        assert!(limiter.include_next(0, &output(u64::MAX - 1)));
        // The next admission would overflow the cumulative counter: cut, don't wrap.
        assert!(!limiter.include_next(1, &output(2)));
        assert_eq!(limiter.gas_used(), u64::MAX - 1);
    }

    #[test]
    fn commit_event_lag() {
        let out = output(1);
        let event = CommitEvent {
            txn_idx: 3,
            output: &out,
            resolved_deltas: &[],
            execution_cursor: 10,
        };
        assert_eq!(event.commit_lag(), 7);
    }

    #[test]
    fn multi_sink_fans_out_in_attach_order() {
        use parking_lot::Mutex;

        /// `(sink tag, "begin" | "end", argument)` per block-edge call.
        type EdgeLog = Arc<Mutex<Vec<(u32, &'static str, usize)>>>;

        struct Tagged {
            tag: u32,
            log: Arc<Mutex<Vec<(u32, usize)>>>,
            blocks: EdgeLog,
        }

        impl CommitSink<u64, u64> for Tagged {
            fn begin_block(&self, block_size: usize) {
                self.blocks.lock().push((self.tag, "begin", block_size));
            }

            fn on_commit(&self, event: &CommitEvent<'_, u64, u64>) {
                self.log.lock().push((self.tag, event.txn_idx));
            }

            fn end_block(&self, committed: usize) {
                self.blocks.lock().push((self.tag, "end", committed));
            }
        }

        let log = Arc::new(Mutex::new(Vec::new()));
        let blocks = Arc::new(Mutex::new(Vec::new()));
        let tagged = |tag| {
            Arc::new(Tagged {
                tag,
                log: log.clone(),
                blocks: blocks.clone(),
            })
        };
        let fanout = MultiSink::new().with(tagged(1)).with(tagged(2));
        assert_eq!(fanout.len(), 2);
        assert!(!fanout.is_empty());

        fanout.begin_block(5);
        let out = output(1);
        for idx in 0..2 {
            fanout.on_commit(&CommitEvent {
                txn_idx: idx,
                output: &out,
                resolved_deltas: &[],
                execution_cursor: idx + 1,
            });
        }
        fanout.end_block(2);
        assert_eq!(
            *blocks.lock(),
            vec![
                (1, "begin", 5),
                (2, "begin", 5),
                (1, "end", 2),
                (2, "end", 2)
            ]
        );
        assert_eq!(*log.lock(), vec![(1, 0), (2, 0), (1, 1), (2, 1)]);
    }

    #[test]
    fn erased_adapters_reject_foreign_state_models() {
        let limiter = LimiterAdapter::<u64, u64> {
            limiter: Arc::new(BlockGasLimit::new(10)),
        };
        let wrong: TransactionOutput<u64, String> = TransactionOutput::empty();
        assert_eq!(limiter.include_next_erased(0, &wrong), None);
        assert_eq!(limiter.include_next_erased(0, &output(5)), Some(true));
    }
}
