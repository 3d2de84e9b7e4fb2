//! The sequential baseline executor, and the in-order loop it shares with
//! [`BlockStm`](crate::BlockStm)'s one-worker path.
//!
//! Executes the block's transactions one after another, in preset order, against the
//! pre-block storage plus the accumulated in-block writes. This is
//!
//! * the **baseline** every figure of the paper compares against, and
//! * the **correctness oracle**: by definition of the problem (§2), every other engine
//!   must commit exactly this executor's final state.
//!
//! [`execute_in_order`] is that loop, written once. `SequentialExecutor` calls it
//! without hooks; a `BlockStm` with one worker calls it for every block it runs,
//! with its commit sinks, its block limiter and (in a chain) the committed
//! writes of earlier blocks.

use crate::errors::ExecutionError;
use crate::executor::BlockExecutor;
use crate::hooks::{ErasedBlockLimiter, ErasedCommitSink};
use crate::output::BlockOutput;
use block_stm_metrics::ExecutionMetrics;
use block_stm_storage::Storage;
use block_stm_vm::{
    AbortCode, AggregatorValue, ReadOutcome, StateReader, Transaction, Vm, VmStatus,
};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// A state view over "pre-block storage + committed writes of earlier blocks +
/// writes of lower transactions", used by [`execute_in_order`].
struct SequentialView<'a, K, V, S> {
    storage: &'a S,
    /// Chains only: the last committed write per key of the stream's earlier
    /// blocks.
    overlay: Option<&'a HashMap<K, V>>,
    /// Writes committed by transactions lower in the block.
    committed: &'a HashMap<K, V>,
}

/// The value `key` holds before the block: the overlay of earlier blocks
/// first, then storage.
fn base_value<K, V, S>(storage: &S, overlay: Option<&HashMap<K, V>>, key: &K) -> Option<V>
where
    K: Eq + Hash,
    V: Clone,
    S: Storage<K, V>,
{
    match overlay.and_then(|overlay| overlay.get(key)) {
        Some(value) => Some(value.clone()),
        None => storage.get(key),
    }
}

impl<K, V, S> StateReader<K, V> for SequentialView<'_, K, V, S>
where
    K: Eq + Hash + Clone + Debug,
    V: Clone + Debug,
    S: Storage<K, V>,
{
    fn read(&self, key: &K) -> ReadOutcome<V> {
        if let Some(value) = self.committed.get(key) {
            return ReadOutcome::Value(value.clone());
        }
        match base_value(self.storage, self.overlay, key) {
            Some(value) => ReadOutcome::Value(value),
            None => ReadOutcome::NotFound,
        }
    }
}

/// Executes `block` in preset order and drives the hooks exactly as the
/// commit ladder's drain does: `begin_block(n)` on every sink and the
/// limiter; per transaction the limiter's `include_next` before anything is
/// applied, then `on_commit` with the materialized deltas and
/// `execution_cursor = txn_idx + 1`; `end_block(m)` once the block is
/// complete or cut. A hook typed for another state model fails the block
/// with [`ExecutionError::HookStateModelMismatch`] (and no `end_block`).
///
/// Reads observe the in-block writes, then `overlay` (the committed writes of
/// a chain's earlier blocks), then `storage`.
pub(crate) fn execute_in_order<T, S>(
    vm: &Vm,
    block: &[T],
    storage: &S,
    overlay: Option<&HashMap<T::Key, T::Value>>,
    sinks: &[Arc<dyn ErasedCommitSink>],
    limiter: Option<&dyn ErasedBlockLimiter>,
) -> Result<BlockOutput<T::Key, T::Value>, ExecutionError>
where
    T: Transaction,
    S: Storage<T::Key, T::Value>,
{
    let num_txns = block.len();
    for sink in sinks {
        sink.begin_block(num_txns);
    }
    if let Some(limiter) = limiter {
        limiter.begin_block(num_txns);
    }
    let metrics = ExecutionMetrics::new();
    metrics.record_block(num_txns);
    let mut committed: HashMap<T::Key, T::Value> = HashMap::new();
    let mut outputs = Vec::with_capacity(num_txns);
    let mut cut = None;

    for (txn_idx, txn) in block.iter().enumerate() {
        metrics.record_incarnation();
        let view = SequentialView {
            storage,
            overlay,
            committed: &committed,
        };
        let output = match vm.execute(txn, &view) {
            VmStatus::Done(output) => output,
            VmStatus::ReadError { blocking_txn_idx } => {
                // A sequential execution can never observe an ESTIMATE; report
                // the broken invariant instead of unwinding.
                return Err(ExecutionError::Internal {
                    detail: format!(
                        "sequential execution observed an ESTIMATE (blocking txn \
                         {blocking_txn_idx})"
                    ),
                });
            }
        };
        metrics.record_delta_writes(output.deltas.len() as u64);
        if output.abort_code == Some(AbortCode::DeltaOverflow) {
            metrics.record_delta_overflow_abort();
        }
        if let Some(limiter) = limiter {
            match limiter.include_next_erased(txn_idx, &output) {
                Some(true) => {}
                Some(false) => {
                    cut = Some(txn_idx);
                    break;
                }
                None => {
                    return Err(ExecutionError::HookStateModelMismatch {
                        hook: "BlockLimiter",
                    })
                }
            }
        }
        for write in &output.writes {
            committed.insert(write.key.clone(), write.value.clone());
        }
        // Commutative delta writes materialize immediately here: the
        // sequential engine always knows the exact prior value. The bounds
        // were checked during execution (the context's probe reads this very
        // state), so a clamped application never actually clamps.
        let mut resolved_deltas: Vec<(T::Key, T::Value)> = Vec::new();
        for (key, op) in &output.deltas {
            let base = match committed.get(key) {
                Some(value) => value.to_aggregator(),
                None => base_value(storage, overlay, key).map_or(0, |value| value.to_aggregator()),
            };
            debug_assert!(
                op.apply_checked(base).is_some(),
                "sequential delta application re-checked out of bounds"
            );
            let value = T::Value::from_aggregator(op.apply_clamped(base));
            if !sinks.is_empty() {
                resolved_deltas.push((key.clone(), value.clone()));
            }
            committed.insert(key.clone(), value);
        }
        for sink in sinks {
            if !sink.on_commit_erased(txn_idx, &output, &resolved_deltas, txn_idx + 1) {
                return Err(ExecutionError::HookStateModelMismatch { hook: "CommitSink" });
            }
        }
        outputs.push(output);
    }
    // Every included transaction commits exactly once, right after it
    // executed: the execution cursor is always one past the commit.
    let included = outputs.len();
    metrics.record_commits(included as u64, included as u64, u64::from(included > 0));
    for sink in sinks {
        sink.end_block(included);
    }
    Ok(
        BlockOutput::new(committed.into_iter().collect(), outputs, metrics.snapshot())
            .with_truncation(cut),
    )
}

/// Executes blocks sequentially in the preset order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor {
    vm: Vm,
}

impl SequentialExecutor {
    /// Creates a sequential executor using the given VM.
    pub fn new(vm: Vm) -> Self {
        Self { vm }
    }

    /// Executes `block` against `storage` and returns the committed output.
    pub fn execute_block<T, S>(
        &self,
        block: &[T],
        storage: &S,
    ) -> Result<BlockOutput<T::Key, T::Value>, ExecutionError>
    where
        T: Transaction,
        S: Storage<T::Key, T::Value>,
    {
        execute_in_order(&self.vm, block, storage, None, &[], None)
    }
}

impl<T, S> BlockExecutor<T, S> for SequentialExecutor
where
    T: Transaction,
    S: Storage<T::Key, T::Value>,
{
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn execute_block(
        &self,
        block: &[T],
        storage: &S,
    ) -> Result<BlockOutput<T::Key, T::Value>, ExecutionError> {
        SequentialExecutor::execute_block(self, block, storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use block_stm_storage::InMemoryStorage;
    use block_stm_vm::synthetic::SyntheticTransaction;

    fn storage_with(pairs: &[(u64, u64)]) -> InMemoryStorage<u64, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn executes_in_preset_order() {
        let storage = storage_with(&[(1, 0)]);
        let block = vec![
            SyntheticTransaction::increment(1),
            SyntheticTransaction::increment(1),
            SyntheticTransaction::increment(1),
        ];
        let executor = SequentialExecutor::new(Vm::for_testing());
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(output.num_txns(), 3);
        assert_eq!(output.updates.len(), 1);
        // Re-running must give the identical result (determinism).
        let again = executor.execute_block(&block, &storage).unwrap();
        assert!(output.state_equals(&again));
    }

    #[test]
    fn later_transactions_see_earlier_writes() {
        let storage = storage_with(&[]);
        let block = vec![
            SyntheticTransaction::put(7, 1),
            // Reads key 7 (written by txn 0) and writes key 8.
            SyntheticTransaction {
                reads: vec![7],
                writes: vec![8],
                conditional_writes: vec![],
                salt: 0,
                extra_gas: 0,
                abort_when_divisible_by: None,
                deltas: vec![],
                delta_limit: u64::MAX as u128,
            },
        ];
        let executor = SequentialExecutor::new(Vm::for_testing());
        let output = executor.execute_block(&block, &storage).unwrap();
        let map = output.state_map();
        assert!(map.contains_key(&7));
        assert!(map.contains_key(&8));

        // Changing txn 0's write value must change txn 1's output too.
        let block2 = vec![SyntheticTransaction::put(7, 2), block[1].clone()];
        let output2 = executor.execute_block(&block2, &storage).unwrap();
        assert_ne!(output.state_map()[&8], output2.state_map()[&8]);
    }

    #[test]
    fn empty_block_produces_empty_output() {
        let storage = storage_with(&[(1, 1)]);
        let executor = SequentialExecutor::new(Vm::for_testing());
        let output = executor
            .execute_block::<SyntheticTransaction, _>(&[], &storage)
            .unwrap();
        assert_eq!(output.num_txns(), 0);
        assert!(output.updates.is_empty());
        assert_eq!(output.metrics.incarnations, 0);
    }

    #[test]
    fn metrics_count_one_incarnation_per_txn() {
        let storage = storage_with(&[]);
        let block: Vec<_> = (0..10).map(|i| SyntheticTransaction::put(i, i)).collect();
        let executor = SequentialExecutor::new(Vm::for_testing());
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(output.metrics.incarnations, 10);
        assert_eq!(output.metrics.total_txns, 10);
        assert_eq!(output.metrics.validations, 0);
    }
}
