//! Executor configuration.

/// Options of the [`BlockStm`](crate::BlockStm) engine (assembled fluently by
/// [`BlockStmBuilder`](crate::BlockStmBuilder)).
///
/// The engine has one algorithm configuration — the paper's, with the §4
/// dependency re-check, task hand-back (cases 1(b)/2(c)) and the rolling commit
/// ladder always on — so the options only size the worker pool and arm the
/// adaptive executor's abort budget. Declared access hints never steer the
/// engine: Block-STM discovers every dependency at run time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Number of worker threads. `0` (the default) means "use all available
    /// parallelism", capped at 32 to mirror the paper's setup.
    pub concurrency: usize,
    /// Halt the block with
    /// [`AbortThresholdExceeded`](crate::ExecutionError::AbortThresholdExceeded)
    /// once more than this many validation aborts have occurred — the adaptive
    /// executor's mid-block escape hatch to a sequential re-run. `None` (the
    /// default) never trips.
    pub abort_fallback_threshold: Option<u64>,
}

impl ExecutorOptions {
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
        // Every paper optimization is unconditional; only the opt-ins remain.
        let options = ExecutorOptions::default();
        assert_eq!(options.concurrency, 0);
        assert!(options.abort_fallback_threshold.is_none());
    }

    #[test]
    fn effective_concurrency_clamps() {
        let with_concurrency = |concurrency| ExecutorOptions {
            concurrency,
            ..ExecutorOptions::default()
        };
        assert_eq!(with_concurrency(4).effective_concurrency(), 4);
        assert_eq!(with_concurrency(1).effective_concurrency(), 1);
        assert_eq!(with_concurrency(1_000).effective_concurrency(), 32);
        assert!(ExecutorOptions::default().effective_concurrency() >= 1);
    }

    #[test]
    fn builders_toggle_flags() {
        let executor = crate::BlockStmBuilder::new(crate::Vm::for_testing())
            .concurrency(3)
            .abort_fallback_threshold(16)
            .build();
        let options = executor.options();
        assert_eq!(options.concurrency, 3);
        assert_eq!(options.abort_fallback_threshold, Some(16));
    }
}
