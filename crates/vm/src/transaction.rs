//! The transaction trait and transaction outputs.

use crate::context::TransactionContext;
use crate::delta::{AggregatorValue, DeltaOp};
use crate::errors::{AbortCode, ExecutionFailure};
use crate::view::StateReader;
use std::fmt::Debug;
use std::hash::Hash;

/// Declared read/write access sets for one transaction — plain declared data.
///
/// Block-STM never reads them: it discovers every dependency at run time. The
/// consumers are the Bohm baseline (its pre-built version chains need exact
/// write-sets), the adaptive executor's pre-execution conflict estimate,
/// the persistence layer's commit prefetch (`BlockCache::prefetch_declared`,
/// through [`declared_write_set`](Transaction::declared_write_set)) and
/// benchmark harnesses that want a block's expected read keys.
///
/// Hints may be partial, stale or plain wrong without affecting the committed
/// output of any engine that accepts advisory hints. The one correctness-bearing
/// bit is [`exact`](AccessHints::exact): an exact hint *promises* that `writes`
/// is a superset of every location any execution of the transaction may write
/// (including delta applications). Bohm relies on that promise and enforces it
/// at run time, failing the block with a typed error
/// ([`UndeclaredWrite`](https://docs.rs/block-stm)-style) instead of committing
/// a wrong state when a transaction breaks it. `reads` is always advisory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessHints<K> {
    /// Locations the transaction is expected to read (advisory, may be partial).
    pub reads: Vec<K>,
    /// Locations the transaction is expected to write. Only a superset guarantee
    /// when [`exact`](AccessHints::exact) is set; advisory otherwise.
    pub writes: Vec<K>,
    /// Whether `writes` is guaranteed to cover every possible write.
    pub exact: bool,
}

impl<K> AccessHints<K> {
    /// Exact hints: `writes` is a superset of every possible write.
    pub fn exact(reads: Vec<K>, writes: Vec<K>) -> Self {
        Self {
            reads,
            writes,
            exact: true,
        }
    }

    /// Advisory hints: best-effort sets that engines may only use as a
    /// heuristic (the adaptive executor's conflict estimate), never for
    /// correctness.
    pub fn advisory(reads: Vec<K>, writes: Vec<K>) -> Self {
        Self {
            reads,
            writes,
            exact: false,
        }
    }

    /// Total number of hinted locations (used as a cheap per-txn work estimate).
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Whether both sets are empty.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// A single write produced by a transaction: the new value of one location.
///
/// The paper's write-sets are `(memory location, value)` pairs; we keep the pair as a
/// named struct so baselines and tests can pattern-match on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp<K, V> {
    /// The written location.
    pub key: K,
    /// The new value.
    pub value: V,
}

impl<K, V> WriteOp<K, V> {
    /// Creates a write operation.
    pub fn new(key: K, value: V) -> Self {
        Self { key, value }
    }
}

/// The result of one successful (non-interrupted) transaction execution: the buffered
/// write-set plus bookkeeping the benchmarks report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionOutput<K, V> {
    /// The write-set, deduplicated: the *last* value written per location
    /// (Algorithm 3, Lines 78–81).
    pub writes: Vec<WriteOp<K, V>>,
    /// The delta-set: one merged commutative [`DeltaOp`] per aggregator location
    /// the transaction applied deltas to (disjoint from `writes` — a full write
    /// to the same location absorbs earlier deltas and later deltas fold into
    /// the buffered value). Applied on top of the prior state at commit.
    pub deltas: Vec<(K, DeltaOp)>,
    /// Gas consumed by the execution.
    pub gas_used: u64,
    /// If the transaction aborted deterministically (e.g. insufficient balance), the
    /// abort code. Aborted transactions produce an empty write-set but still commit.
    pub abort_code: Option<AbortCode>,
    /// Number of reads the execution performed (including reads of its own writes).
    pub reads_performed: usize,
    /// Opaque accumulator from the synthetic gas work; folding it into the output
    /// prevents the work loop from being optimized away.
    pub work_sink: u64,
}

impl<K, V> TransactionOutput<K, V> {
    /// An output with no effects (used for deterministically aborted transactions).
    pub fn empty() -> Self {
        Self {
            writes: Vec::new(),
            deltas: Vec::new(),
            gas_used: 0,
            abort_code: None,
            reads_performed: 0,
            work_sink: 0,
        }
    }

    /// Whether the transaction produced any commutative delta writes.
    pub fn has_deltas(&self) -> bool {
        !self.deltas.is_empty()
    }

    /// Whether the transaction aborted deterministically.
    pub fn is_aborted(&self) -> bool {
        self.abort_code.is_some()
    }

    /// Iterates over `(key, value)` pairs of the write-set.
    pub fn write_pairs(&self) -> impl Iterator<Item = (&K, &V)> {
        self.writes.iter().map(|w| (&w.key, &w.value))
    }
}

/// The trait implemented by every transaction type executed by the engines in this
/// workspace ("the smart contract code").
///
/// Implementations perform *all* state access through the provided
/// [`TransactionContext`]: reads via [`TransactionContext::read`] (which transparently
/// checks the transaction's own pending writes first, then asks the engine), writes via
/// [`TransactionContext::write`], and optional extra gas via
/// [`TransactionContext::charge_gas`]. The engine guarantees the context never exposes
/// state written by *higher* transactions in the preset order.
///
/// `execute` must be **deterministic**: given the same values returned by the reads, it
/// must produce the same writes and the same abort decision. This is what lets every
/// engine (and every incarnation) arrive at the same committed state.
pub trait Transaction: Send + Sync {
    /// The memory-location key type. `'static` because executors keep reusable
    /// per-block structures (multi-version memory, output slots) typed by `Key` alive
    /// across blocks; keys are plain data in every realistic state model.
    type Key: Eq + Hash + Ord + Clone + Debug + Send + Sync + 'static;
    /// The value type stored at locations (`'static` for the same reason as `Key`).
    ///
    /// [`AggregatorValue`] gives the engines a total, deterministic embedding of
    /// values into the `u128` aggregator domain so commutative delta writes can
    /// be resolved over any state model. Models that never use deltas implement
    /// it with any canonical embedding (e.g. everything maps to `0`).
    type Value: Clone + PartialEq + Debug + Send + Sync + AggregatorValue + 'static;

    /// Executes the transaction logic against the instrumented context.
    ///
    /// Returning `Err(ExecutionFailure::Dependency(_))` aborts the incarnation because
    /// a read hit an ESTIMATE marker (propagated automatically by `?` on context
    /// reads). Returning `Err(ExecutionFailure::Abort(_))` is a deterministic
    /// transaction abort: the engine commits the transaction with an empty write-set.
    fn execute<R: StateReader<Self::Key, Self::Value>>(
        &self,
        ctx: &mut TransactionContext<'_, Self::Key, Self::Value, R>,
    ) -> Result<(), ExecutionFailure>;

    /// A human-readable label used in logs and benchmark output.
    fn label(&self) -> &'static str {
        "txn"
    }

    /// The transaction's declared access sets, when the model can provide them.
    ///
    /// Block-STM never reads hints (run-time write-set estimation is its whole
    /// point). The consumers are the Bohm baseline, which builds its
    /// placeholder version chains from exact hints when driven through the
    /// engine-agnostic `BlockExecutor` interface; the adaptive executor, which
    /// estimates a block's conflict rate from declared read/write overlaps to
    /// choose sequential or parallel execution; the persistence layer's commit
    /// prefetch (via [`declared_write_set`](Transaction::declared_write_set));
    /// and benchmark harnesses reading the declared read keys. The default
    /// (`None`) opts out: the adaptive executor assumes low conflict, and
    /// engines that *require* hints (Bohm) report a typed error rather than
    /// guess.
    fn access_hints(&self) -> Option<AccessHints<Self::Key>> {
        None
    }

    /// The transaction's *declared* write-set — a superset of every location any
    /// execution of it may write — when the transaction model guarantees one.
    ///
    /// Derived from [`access_hints`](Transaction::access_hints): only an
    /// `exact` hint carries the superset guarantee, so advisory hints yield
    /// `None` here. Kept as a convenience for consumers that only care about
    /// guaranteed write-sets (Bohm's chains, the persistence layer's commit
    /// prefetch); implementors should override `access_hints`, not this.
    fn declared_write_set(&self) -> Option<Vec<Self::Key>> {
        self.access_hints()
            .filter(|hints| hints.exact)
            .map(|hints| hints.writes)
    }
}

/// A transaction wrapper that overrides the hints of its inner transaction.
///
/// Workload generators use this to emit deliberately imprecise or partial hint
/// sets (the accuracy knob of the adaptive benchmarks), and the property tests
/// use it to hand engines *wrong* hints and assert the committed output still
/// matches sequential execution byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintedTransaction<T: Transaction> {
    /// The wrapped transaction; execution delegates to it unchanged.
    pub inner: T,
    /// The hints to expose instead of the inner transaction's own
    /// (`None` = expose no hints at all).
    pub hints: Option<AccessHints<T::Key>>,
}

impl<T: Transaction> HintedTransaction<T> {
    /// Wraps `inner`, exposing `hints` instead of its own.
    pub fn new(inner: T, hints: Option<AccessHints<T::Key>>) -> Self {
        Self { inner, hints }
    }

    /// Wraps `inner`, exposing no hints (the "coverage gap" case).
    pub fn unhinted(inner: T) -> Self {
        Self { inner, hints: None }
    }
}

impl<T: Transaction> Transaction for HintedTransaction<T> {
    type Key = T::Key;
    type Value = T::Value;

    fn execute<R: StateReader<Self::Key, Self::Value>>(
        &self,
        ctx: &mut TransactionContext<'_, Self::Key, Self::Value, R>,
    ) -> Result<(), ExecutionFailure> {
        self.inner.execute(ctx)
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn access_hints(&self) -> Option<AccessHints<Self::Key>> {
        self.hints.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_op_holds_key_and_value() {
        let op = WriteOp::new("k", 7u64);
        assert_eq!(op.key, "k");
        assert_eq!(op.value, 7);
    }

    #[test]
    fn empty_output_has_no_effects() {
        let output: TransactionOutput<u64, u64> = TransactionOutput::empty();
        assert!(output.writes.is_empty());
        assert!(!output.is_aborted());
        assert_eq!(output.gas_used, 0);
    }

    #[test]
    fn write_pairs_iterates_in_order() {
        let output = TransactionOutput {
            writes: vec![WriteOp::new(1u32, 10u32), WriteOp::new(2, 20)],
            deltas: vec![],
            gas_used: 5,
            abort_code: None,
            reads_performed: 0,
            work_sink: 0,
        };
        let pairs: Vec<_> = output.write_pairs().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
    }

    struct NoHints;
    impl Transaction for NoHints {
        type Key = u64;
        type Value = u64;
        fn execute<R: StateReader<u64, u64>>(
            &self,
            _ctx: &mut TransactionContext<'_, u64, u64, R>,
        ) -> Result<(), ExecutionFailure> {
            Ok(())
        }
    }

    #[test]
    fn declared_write_set_requires_exact_hints() {
        struct Advisory;
        impl Transaction for Advisory {
            type Key = u64;
            type Value = u64;
            fn execute<R: StateReader<u64, u64>>(
                &self,
                _ctx: &mut TransactionContext<'_, u64, u64, R>,
            ) -> Result<(), ExecutionFailure> {
                Ok(())
            }
            fn access_hints(&self) -> Option<AccessHints<u64>> {
                Some(AccessHints::advisory(vec![1], vec![2]))
            }
        }
        struct Exact;
        impl Transaction for Exact {
            type Key = u64;
            type Value = u64;
            fn execute<R: StateReader<u64, u64>>(
                &self,
                _ctx: &mut TransactionContext<'_, u64, u64, R>,
            ) -> Result<(), ExecutionFailure> {
                Ok(())
            }
            fn access_hints(&self) -> Option<AccessHints<u64>> {
                Some(AccessHints::exact(vec![1], vec![2]))
            }
        }
        assert_eq!(NoHints.declared_write_set(), None);
        assert_eq!(
            Advisory.declared_write_set(),
            None,
            "advisory hints carry no guarantee"
        );
        assert_eq!(Exact.declared_write_set(), Some(vec![2]));
    }

    #[test]
    fn hinted_transaction_overrides_hints_only() {
        let wrapped = HintedTransaction::new(NoHints, Some(AccessHints::advisory(vec![7], vec![])));
        assert_eq!(
            wrapped.access_hints(),
            Some(AccessHints::advisory(vec![7], vec![]))
        );
        assert_eq!(HintedTransaction::unhinted(NoHints).access_hints(), None);
    }

    #[test]
    fn access_hints_len_counts_both_sets() {
        let hints = AccessHints::exact(vec![1u64, 2], vec![3]);
        assert_eq!(hints.len(), 3);
        assert!(!hints.is_empty());
        assert!(AccessHints::<u64>::advisory(vec![], vec![]).is_empty());
    }

    #[test]
    fn aborted_output_reports_is_aborted() {
        let output: TransactionOutput<u64, u64> = TransactionOutput {
            abort_code: Some(AbortCode::User(3)),
            ..TransactionOutput::empty()
        };
        assert!(output.is_aborted());
    }
}
