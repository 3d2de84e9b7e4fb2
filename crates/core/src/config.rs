//! Executor configuration.

/// Tuning knobs of the [`BlockStm`](crate::BlockStm) engine (assembled fluently by
/// [`BlockStmBuilder`](crate::BlockStmBuilder)).
///
/// The defaults reproduce the configuration evaluated in the paper plus the rolling
/// commit ladder; the individual switches exist so the ablation benchmarks can
/// quantify each optimization (see the `ablation` criterion bench in
/// `crates/bench` and the `commitbench` ladder-on/off comparison).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Number of worker threads. `0` (the default) means "use all available
    /// parallelism", capped at 32 to mirror the paper's setup.
    pub concurrency: usize,
    /// Before re-executing a transaction whose previous incarnation was aborted, scan
    /// its previous read-set for unresolved ESTIMATE markers and register a dependency
    /// instead of paying for a doomed re-execution (the §4 mitigation for VMs that
    /// restart from scratch). Default: `true`.
    pub dependency_recheck: bool,
    /// Allow `finish_execution` / `finish_validation` to hand the follow-up task
    /// directly back to the calling thread instead of routing it through the shared
    /// counters (the paper's cases 1(b)/2(c) optimization). Default: `true`.
    pub task_return_optimization: bool,
    /// Run the scheduler's rolling commit ladder: commit a growing prefix of the
    /// block while the tail speculates, freeze committed entries in the
    /// multi-version memory for cheap final reads, stream outputs to a
    /// [`CommitSink`](crate::CommitSink), and allow a
    /// [`BlockLimiter`](crate::BlockLimiter) to cut the block at a committed
    /// boundary. Disabled only by the `commitbench` ablation. Default: `true`.
    pub rolling_commit: bool,
    /// Shard count of the multi-version memory's concurrent hash map. `None` uses the
    /// default (256).
    pub mvmemory_shards: Option<usize>,
    /// Use declared access hints ([`Transaction::access_hints`]) to guide the
    /// scheduler: pre-register dependencies on declared read/write overlaps,
    /// reorder initial executions low-conflict-first, and (when every hint is
    /// exact) skip validation descriptors for hint-proven private reads. Hints
    /// are advisory for scheduling; correctness never depends on them unless
    /// they claim exactness, which is then enforced at record time. Default:
    /// `false`.
    ///
    /// [`Transaction::access_hints`]: block_stm_vm::Transaction::access_hints
    pub use_hints: bool,
    /// Halt the block with
    /// [`AbortThresholdExceeded`](crate::ExecutionError::AbortThresholdExceeded)
    /// once more than this many validation aborts have occurred — the adaptive
    /// executor's mid-block escape hatch to a sequential re-run. `None` (the
    /// default) never trips.
    pub abort_fallback_threshold: Option<u64>,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        Self {
            concurrency: 0,
            dependency_recheck: true,
            task_return_optimization: true,
            rolling_commit: true,
            mvmemory_shards: None,
            use_hints: false,
            abort_fallback_threshold: None,
        }
    }
}

impl ExecutorOptions {
    /// Options with an explicit worker-thread count and default optimizations.
    pub fn with_concurrency(concurrency: usize) -> Self {
        Self {
            concurrency,
            ..Self::default()
        }
    }

    /// Builder: toggles the dependency re-check optimization.
    pub fn dependency_recheck(mut self, enabled: bool) -> Self {
        self.dependency_recheck = enabled;
        self
    }

    /// Builder: toggles the task-return optimization.
    pub fn task_return_optimization(mut self, enabled: bool) -> Self {
        self.task_return_optimization = enabled;
        self
    }

    /// Builder: toggles the rolling commit ladder.
    pub fn rolling_commit(mut self, enabled: bool) -> Self {
        self.rolling_commit = enabled;
        self
    }

    /// Builder: sets the multi-version memory shard count.
    pub fn mvmemory_shards(mut self, shards: usize) -> Self {
        self.mvmemory_shards = Some(shards);
        self
    }

    /// Builder: toggles hint-guided scheduling.
    pub fn use_hints(mut self, enabled: bool) -> Self {
        self.use_hints = enabled;
        self
    }

    /// Builder: sets the mid-block abort-fallback threshold.
    pub fn abort_fallback_threshold(mut self, aborts: u64) -> Self {
        self.abort_fallback_threshold = Some(aborts);
        self
    }

    /// The number of worker threads to actually spawn: the configured concurrency, or
    /// the machine's available parallelism when unset, never less than 1 and never
    /// more than 32 (the paper's maximum).
    pub fn effective_concurrency(&self) -> usize {
        let requested = if self.concurrency == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.concurrency
        };
        requested.clamp(1, 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_optimizations() {
        let options = ExecutorOptions::default();
        assert!(options.dependency_recheck);
        assert!(options.task_return_optimization);
        assert!(options.rolling_commit, "commit ladder is on by default");
        assert_eq!(options.concurrency, 0);
        assert!(options.mvmemory_shards.is_none());
        assert!(!options.use_hints, "hints are opt-in");
        assert!(options.abort_fallback_threshold.is_none());
    }

    #[test]
    fn effective_concurrency_clamps() {
        assert_eq!(
            ExecutorOptions::with_concurrency(4).effective_concurrency(),
            4
        );
        assert_eq!(
            ExecutorOptions::with_concurrency(1).effective_concurrency(),
            1
        );
        assert_eq!(
            ExecutorOptions::with_concurrency(1_000).effective_concurrency(),
            32
        );
        assert!(ExecutorOptions::default().effective_concurrency() >= 1);
    }

    #[test]
    fn builders_toggle_flags() {
        let options = ExecutorOptions::default()
            .dependency_recheck(false)
            .task_return_optimization(false)
            .rolling_commit(false)
            .mvmemory_shards(64)
            .use_hints(true)
            .abort_fallback_threshold(16);
        assert!(!options.dependency_recheck);
        assert!(!options.task_return_optimization);
        assert!(!options.rolling_commit);
        assert_eq!(options.mvmemory_shards, Some(64));
        assert!(options.use_hints);
        assert_eq!(options.abort_fallback_threshold, Some(16));
    }
}
