//! Per-block adaptive engine selection.
//!
//! Not every block benefits from optimistic parallelism: a tiny block pays more
//! in dispatch than it wins back, and a hot-key block collapses to sequential
//! speed with extra abort work on top. [`AdaptiveExecutor`] picks an engine
//! **per block** from cheap pre-execution signals, and keeps a mid-block escape
//! hatch: if the parallel attempt crosses its abort budget it is halted and the
//! block is re-run sequentially, so the worst case is bounded near sequential
//! cost.
//!
//! The two ways a block can go:
//!
//! * **sequential** — the [`SequentialExecutor`] baseline;
//! * **parallel** — Block-STM speculation on a persistent [`BlockStm`] pool.
//!
//! The decision, in order: a forced choice; else a tiny block or a single
//! worker runs sequentially; else a declared conflict estimate at or above the
//! threshold runs sequentially; else a last-block abort rate at or above the
//! feedback threshold runs sequentially; else the block runs in parallel.
//!
//! The decision inputs are deliberately cheap (one pass over the block's
//! declared [`AccessHints`], no execution): the declared-overlap conflict
//! estimate, the block length, and the previous block's observed abort rate as
//! feedback. Hints only steer this choice — Block-STM itself never reads them.
//! The decision is exported through the block's
//! [`MetricsSnapshot`](block_stm_metrics::MetricsSnapshot)
//! (`adaptive_engine_choice`, `adaptive_fallbacks`).

use crate::block_stm::{BlockStm, BlockStmBuilder};
use crate::errors::ExecutionError;
use crate::executor::BlockExecutor;
use crate::output::BlockOutput;
use crate::sequential::SequentialExecutor;
use block_stm_storage::Storage;
use block_stm_vm::{AccessHints, Transaction, Vm};
use parking_lot::Mutex;
use std::collections::HashSet;

/// Which engine the adaptive executor dispatched (or will dispatch) a block to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The sequential baseline: zero coordination overhead, no speculation.
    Sequential,
    /// Block-STM optimistic parallel execution.
    Parallel,
}

impl EngineChoice {
    /// The stable numeric code exported via the `adaptive_engine_choice`
    /// metric: 1 = sequential, 2 = parallel (3, once hint-guided Block-STM, is
    /// retired).
    pub fn code(self) -> u64 {
        match self {
            EngineChoice::Sequential => 1,
            EngineChoice::Parallel => 2,
        }
    }
}

/// The decision [`AdaptiveExecutor::decide`] made for one block, together with
/// the signals it was made from (exposed for tests and benchmark harnesses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveDecision {
    /// The selected engine.
    pub choice: EngineChoice,
    /// Fraction of transactions whose declared reads overlap a lower
    /// transaction's declared writes — the scheduling-relevant conflict
    /// estimate (0.0 when nothing is hinted: unknown, assumed low).
    pub estimated_conflict_rate: f64,
    /// The previous dispatched block's observed abort rate, if any parallel
    /// block has completed yet (feedback signal).
    pub last_abort_rate: Option<f64>,
}

/// Builder for [`AdaptiveExecutor`]: the underlying engines' knobs plus the
/// decision thresholds. Every threshold has a sensible default; tests force
/// specific decision paths with [`force_choice`](Self::force_choice).
#[derive(Debug, Clone)]
pub struct AdaptiveExecutorBuilder {
    vm: Vm,
    concurrency: usize,
    abort_fallback_threshold: Option<u64>,
    force: Option<EngineChoice>,
    min_parallel_block: usize,
    conflict_sequential_threshold: f64,
    abort_feedback_threshold: f64,
}

impl AdaptiveExecutorBuilder {
    /// Starts a builder with default thresholds.
    pub fn new(vm: Vm) -> Self {
        Self {
            vm,
            concurrency: 0,
            abort_fallback_threshold: None,
            force: None,
            min_parallel_block: 4,
            conflict_sequential_threshold: 0.8,
            abort_feedback_threshold: 0.9,
        }
    }

    /// Worker-thread count for the parallel engine (`0` = one per core).
    pub fn concurrency(mut self, concurrency: usize) -> Self {
        self.concurrency = concurrency;
        self
    }

    /// Arms the mid-block escape hatch: a parallel attempt that aborts more
    /// than `aborts` times is halted and transparently re-run sequentially
    /// (counted in the `adaptive_fallbacks` metric).
    pub fn abort_fallback_threshold(mut self, aborts: u64) -> Self {
        self.abort_fallback_threshold = Some(aborts);
        self
    }

    /// Forces every block to the given engine, bypassing the signals — the
    /// test hook that makes each decision path reachable deterministically.
    pub fn force_choice(mut self, choice: EngineChoice) -> Self {
        self.force = Some(choice);
        self
    }

    /// Blocks shorter than this run sequentially (parallel dispatch overhead
    /// dominates tiny blocks). Default: 4.
    pub fn min_parallel_block(mut self, txns: usize) -> Self {
        self.min_parallel_block = txns;
        self
    }

    /// Estimated conflict rate above which a block runs sequentially: a
    /// declared-(near-)serial block gains nothing from speculation. Default:
    /// 0.8.
    pub fn conflict_sequential_threshold(mut self, fraction: f64) -> Self {
        self.conflict_sequential_threshold = fraction;
        self
    }

    /// Last-block abort rate at or above which the next block falls back to
    /// sequential (feedback loop). Default: 0.9.
    pub fn abort_feedback_threshold(mut self, fraction: f64) -> Self {
        self.abort_feedback_threshold = fraction;
        self
    }

    /// Builds the executor (spawning the parallel engine's persistent pool).
    pub fn build(self) -> AdaptiveExecutor {
        let parallel = {
            let mut builder = BlockStmBuilder::new(self.vm).concurrency(self.concurrency);
            if let Some(aborts) = self.abort_fallback_threshold {
                builder = builder.abort_fallback_threshold(aborts);
            }
            builder.build()
        };
        AdaptiveExecutor {
            sequential: SequentialExecutor::new(self.vm),
            parallel,
            force: self.force,
            min_parallel_block: self.min_parallel_block,
            conflict_sequential_threshold: self.conflict_sequential_threshold,
            abort_feedback_threshold: self.abort_feedback_threshold,
            dispatch: Mutex::new(DispatchState {
                last_abort_rate: None,
                fallbacks: 0,
            }),
        }
    }
}

/// Serialized dispatch bookkeeping: the feedback signal and the cumulative
/// fallback count. Held across a block's execution so its feedback update is
/// atomic with respect to other callers.
#[derive(Debug)]
struct DispatchState {
    last_abort_rate: Option<f64>,
    fallbacks: u64,
}

/// A [`BlockExecutor`] that picks sequential or parallel execution per block —
/// see the [module docs](self) for the decision model.
#[derive(Debug)]
pub struct AdaptiveExecutor {
    sequential: SequentialExecutor,
    parallel: BlockStm,
    force: Option<EngineChoice>,
    min_parallel_block: usize,
    conflict_sequential_threshold: f64,
    abort_feedback_threshold: f64,
    dispatch: Mutex<DispatchState>,
}

impl AdaptiveExecutor {
    /// Shorthand for [`AdaptiveExecutorBuilder::new`].
    pub fn builder(vm: Vm) -> AdaptiveExecutorBuilder {
        AdaptiveExecutorBuilder::new(vm)
    }

    /// An adaptive executor with default thresholds and one worker per core.
    pub fn with_defaults(vm: Vm) -> Self {
        AdaptiveExecutorBuilder::new(vm).build()
    }

    /// The number of workers the parallel engine dispatches (including the
    /// calling thread).
    pub fn concurrency(&self) -> usize {
        self.parallel.concurrency()
    }

    /// Blocks re-run sequentially after a mid-block abort-threshold halt,
    /// since this executor was built.
    pub fn fallbacks(&self) -> u64 {
        self.dispatch.lock().fallbacks
    }

    /// The decision the executor would take for `block` right now, with the
    /// signals behind it. Pure (no execution, no state change): calling
    /// [`execute_block`](Self::execute_block) afterwards may decide differently
    /// only if another thread's block lands in between (feedback moves).
    pub fn decide<T: Transaction>(&self, block: &[T]) -> AdaptiveDecision {
        self.decide_inner(block, self.dispatch.lock().last_abort_rate)
    }

    fn decide_inner<T: Transaction>(
        &self,
        block: &[T],
        last_abort_rate: Option<f64>,
    ) -> AdaptiveDecision {
        // Declared-overlap conflict estimate: the share of transactions whose
        // declared reads overlap a lower transaction's declared writes.
        let hints: Vec<Option<AccessHints<T::Key>>> =
            block.iter().map(|txn| txn.access_hints()).collect();
        let mut written: HashSet<&T::Key> = HashSet::new();
        let mut conflicted = 0usize;
        for h in hints.iter().flatten() {
            if h.reads.iter().any(|key| written.contains(key)) {
                conflicted += 1;
            }
            written.extend(&h.writes);
        }
        let estimated_conflict_rate = conflicted as f64 / block.len().max(1) as f64;

        let choice = if let Some(forced) = self.force {
            forced
        } else if block.len() < self.min_parallel_block || self.parallel.concurrency() <= 1 {
            // Estimated work below the parallel break-even (the simulated VM's
            // gas cost is uniform per transaction, so length is the work
            // estimate), or no parallelism to exploit — e.g. a 1-CPU host.
            EngineChoice::Sequential
        } else if estimated_conflict_rate >= self.conflict_sequential_threshold {
            // Declared (near-)serial: speculation would rediscover the
            // dependency chain through aborts — sequential execution runs the
            // same chain with no coordination at all.
            EngineChoice::Sequential
        } else if last_abort_rate.is_some_and(|rate| rate >= self.abort_feedback_threshold) {
            // Burned last time: don't pay for speculation that mostly aborts.
            EngineChoice::Sequential
        } else {
            EngineChoice::Parallel
        };
        AdaptiveDecision {
            choice,
            estimated_conflict_rate,
            last_abort_rate,
        }
    }

    /// Executes `block` with the per-block engine choice; on a mid-block
    /// abort-threshold halt the block is transparently re-run sequentially.
    /// The committed output is engine-independent; the returned metrics carry
    /// the dispatch decision (`adaptive_engine_choice`) and whether the escape
    /// hatch fired (`adaptive_fallbacks`).
    pub fn execute_block<T, S>(
        &self,
        block: &[T],
        storage: &S,
    ) -> Result<BlockOutput<T::Key, T::Value>, ExecutionError>
    where
        T: Transaction,
        S: Storage<T::Key, T::Value>,
    {
        let mut dispatch = self.dispatch.lock();
        let decision = self.decide_inner(block, dispatch.last_abort_rate);
        match decision.choice {
            EngineChoice::Sequential => {
                let mut output = self.sequential.execute_block(block, storage)?;
                output.metrics.adaptive_engine_choice = EngineChoice::Sequential.code();
                Ok(output)
            }
            EngineChoice::Parallel => match self.parallel.execute_block(block, storage) {
                Ok(mut output) => {
                    dispatch.last_abort_rate = Some(output.metrics.abort_rate());
                    output.metrics.adaptive_engine_choice = EngineChoice::Parallel.code();
                    Ok(output)
                }
                Err(ExecutionError::AbortThresholdExceeded { .. }) => {
                    // The escape hatch: speculation was halted past its abort
                    // budget; the discarded attempt is replaced by a sequential
                    // run and the feedback signal is pinned high so the next
                    // block skips speculation.
                    dispatch.fallbacks += 1;
                    dispatch.last_abort_rate = Some(1.0);
                    let mut output = self.sequential.execute_block(block, storage)?;
                    output.metrics.adaptive_engine_choice = EngineChoice::Sequential.code();
                    output.metrics.adaptive_fallbacks = 1;
                    Ok(output)
                }
                Err(error) => Err(error),
            },
        }
    }
}

impl<T, S> BlockExecutor<T, S> for AdaptiveExecutor
where
    T: Transaction,
    S: Storage<T::Key, T::Value>,
{
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn execute_block(
        &self,
        block: &[T],
        storage: &S,
    ) -> Result<BlockOutput<T::Key, T::Value>, ExecutionError> {
        AdaptiveExecutor::execute_block(self, block, storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use block_stm_storage::InMemoryStorage;
    use block_stm_vm::synthetic::SyntheticTransaction;
    use block_stm_vm::HintedTransaction;

    fn storage_with_keys(keys: u64) -> InMemoryStorage<u64, u64> {
        (0..keys).map(|k| (k, k * 1_000)).collect()
    }

    fn hot_key_block(n: u64) -> Vec<SyntheticTransaction> {
        (0..n).map(|_| SyntheticTransaction::increment(0)).collect()
    }

    #[test]
    fn small_or_single_threaded_blocks_run_sequentially() {
        let executor = AdaptiveExecutor::builder(Vm::for_testing())
            .concurrency(4)
            .build();
        let tiny: Vec<_> = (0..2).map(|i| SyntheticTransaction::put(i, i)).collect();
        let decision = executor.decide(&tiny);
        assert_eq!(decision.choice, EngineChoice::Sequential);

        let single = AdaptiveExecutor::builder(Vm::for_testing())
            .concurrency(1)
            .build();
        let block = hot_key_block(100);
        assert_eq!(single.decide(&block).choice, EngineChoice::Sequential);
        let output = single.execute_block(&block, &storage_with_keys(1)).unwrap();
        assert_eq!(output.metrics.adaptive_engine_choice, 1);
    }

    #[test]
    fn well_hinted_low_conflict_blocks_run_parallel() {
        let executor = AdaptiveExecutor::builder(Vm::for_testing())
            .concurrency(2)
            .build();
        // Fully hinted (SyntheticTransaction emits exact hints), mostly
        // independent: 40 private keys plus a 10-transaction chain on key 0 —
        // some declared conflict, nowhere near the declared-serial cutoff.
        let mut block: Vec<_> = (0..40)
            .map(|i| SyntheticTransaction::put(i + 1, i))
            .collect();
        block.extend((0..10).map(|_| SyntheticTransaction::increment(0)));
        let decision = executor.decide(&block);
        assert_eq!(decision.choice, EngineChoice::Parallel);
        assert!(decision.estimated_conflict_rate > 0.1);
        assert!(decision.estimated_conflict_rate < 0.5);
        let storage = storage_with_keys(41);
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(output.metrics.adaptive_engine_choice, 2);
        let reference = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&block, &storage)
            .unwrap();
        assert_eq!(output.updates, reference.updates);
    }

    #[test]
    fn declared_serial_blocks_run_sequentially_despite_full_hints() {
        let executor = AdaptiveExecutor::builder(Vm::for_testing())
            .concurrency(2)
            .build();
        // A fully hinted read-modify-write chain on one key: every transaction
        // conflicts with its predecessor. Speculation would only rediscover
        // the chain through aborts — sequential execution wins outright.
        let block = hot_key_block(50);
        let decision = executor.decide(&block);
        assert!(decision.estimated_conflict_rate > 0.9);
        assert_eq!(decision.choice, EngineChoice::Sequential);
        let output = executor
            .execute_block(&block, &storage_with_keys(1))
            .unwrap();
        assert_eq!(output.metrics.adaptive_engine_choice, 1);
    }

    #[test]
    fn unhinted_blocks_run_parallel_until_feedback_turns_hot() {
        let executor = AdaptiveExecutor::builder(Vm::for_testing())
            .concurrency(2)
            .build();
        // Strip the hints: conflict estimate 0 → parallel.
        let block: Vec<_> = (0..40)
            .map(|i| HintedTransaction::unhinted(SyntheticTransaction::put(i, i)))
            .collect();
        let decision = executor.decide(&block);
        assert_eq!(decision.choice, EngineChoice::Parallel);
        assert_eq!(decision.estimated_conflict_rate, 0.0);
        let output = executor
            .execute_block(&block, &storage_with_keys(4))
            .unwrap();
        assert_eq!(output.metrics.adaptive_engine_choice, 2);
        // Feedback: pretend the last block burned; the next unhinted block is
        // dispatched sequentially.
        executor.dispatch.lock().last_abort_rate = Some(0.95);
        assert_eq!(executor.decide(&block).choice, EngineChoice::Sequential);
    }

    #[test]
    fn declared_hot_unhinted_blocks_avoid_speculation() {
        let executor = AdaptiveExecutor::builder(Vm::for_testing())
            .concurrency(2)
            .build();
        // Advisory hints count for the estimate: everyone declares a read and
        // write of the same key → conflict estimate ~1.0 → sequential.
        let hot: Vec<_> = (0..40)
            .map(|_| {
                HintedTransaction::new(
                    SyntheticTransaction::increment(0),
                    Some(AccessHints::advisory(vec![0], vec![0])),
                )
            })
            .collect();
        let decision = executor.decide(&hot);
        assert!(decision.estimated_conflict_rate > 0.9);
        assert_eq!(decision.choice, EngineChoice::Sequential);
        // Hinting only a quarter of the same block leaves 9/40 declared
        // conflicts — below the sequential threshold: plain parallel.
        let thin: Vec<_> = (0..40)
            .map(|i| {
                let hints = (i < 10).then(|| AccessHints::advisory(vec![0], vec![0]));
                HintedTransaction::new(SyntheticTransaction::increment(0), hints)
            })
            .collect();
        let decision = executor.decide(&thin);
        assert!(decision.estimated_conflict_rate < 0.5);
        assert_eq!(decision.choice, EngineChoice::Parallel);
    }

    #[test]
    fn forced_choices_reach_every_engine() {
        let storage = storage_with_keys(4);
        let block: Vec<_> = (0..30)
            .map(|i| SyntheticTransaction::transfer(i % 4, (i + 1) % 4, i))
            .collect();
        let reference = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&block, &storage)
            .unwrap();
        for (choice, code) in [(EngineChoice::Sequential, 1), (EngineChoice::Parallel, 2)] {
            let executor = AdaptiveExecutor::builder(Vm::for_testing())
                .concurrency(2)
                .force_choice(choice)
                .build();
            assert_eq!(executor.decide(&block).choice, choice);
            let output = executor.execute_block(&block, &storage).unwrap();
            assert_eq!(output.updates, reference.updates, "choice {choice:?}");
            assert_eq!(output.metrics.adaptive_engine_choice, code);
            assert_eq!(output.metrics.adaptive_fallbacks, 0);
        }
    }

    #[test]
    fn mid_block_abort_threshold_falls_back_to_sequential() {
        // The latch block fails exactly one validation at two workers, so the
        // zero-abort budget trips. The adaptive executor must absorb the typed
        // error and deliver the sequential result.
        let storage = storage_with_keys(2);
        let block = crate::testing::latch_block();
        let executor = AdaptiveExecutor::builder(Vm::for_testing())
            .concurrency(2)
            .force_choice(EngineChoice::Parallel)
            .abort_fallback_threshold(0)
            .build();
        let output = executor.execute_block(&block, &storage).unwrap();
        let reference = SequentialExecutor::new(Vm::for_testing())
            .execute_block(&block, &storage)
            .unwrap();
        assert_eq!(output.updates, reference.updates);
        assert_eq!(output.metrics.adaptive_engine_choice, 1, "fell back");
        assert_eq!(output.metrics.adaptive_fallbacks, 1);
        assert_eq!(executor.fallbacks(), 1);
        // The feedback signal is pinned high after a fallback.
        assert_eq!(executor.dispatch.lock().last_abort_rate, Some(1.0));
    }

    #[test]
    fn trait_object_dispatch_works() {
        let executor: Box<dyn BlockExecutor<SyntheticTransaction, InMemoryStorage<u64, u64>>> =
            Box::new(AdaptiveExecutor::with_defaults(Vm::for_testing()));
        assert_eq!(executor.name(), "adaptive");
        assert!(executor.preserves_preset_order());
        let storage = storage_with_keys(2);
        let block = vec![SyntheticTransaction::increment(0)];
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(output.num_txns(), 1);
    }
}
