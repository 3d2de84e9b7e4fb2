//! Typed execution errors.
//!
//! Engine-internal failure conditions surface as [`ExecutionError`] values instead of
//! panics: a panicking transaction is contained to its incarnation and reported, a
//! misconfigured engine refuses the block, and an engine-invariant violation (a bug)
//! is reported with enough context to file it — the caller's process never unwinds
//! because of engine state.

use std::fmt;

/// Why a block could not be executed to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecutionError {
    /// One or more worker incarnations panicked (almost always a panic inside the
    /// transaction's own `execute` logic). The block's results were discarded; the
    /// executor remains usable for subsequent blocks.
    WorkerPanic {
        /// Number of job invocations that panicked.
        workers: usize,
        /// Human-readable panic payload of the first panic observed, if any.
        detail: String,
    },
    /// The engine was asked to run with zero workers — a configuration that can make
    /// no progress on a non-empty block.
    InvalidConcurrency {
        /// The (mis)configured worker count.
        requested: usize,
    },
    /// A transaction finished the block without a committed output — an engine
    /// invariant violation (please report it as a bug).
    MissingOutput {
        /// Index of the transaction with no output.
        txn_idx: usize,
    },
    /// An engine that requires pre-declared write-sets (Bohm) was handed a
    /// transaction whose model does not provide one
    /// (`Transaction::declared_write_set` returned `None`).
    MissingWriteSet {
        /// Index of the transaction without a declared write-set.
        txn_idx: usize,
    },
    /// The externally supplied write-set list does not align with the block.
    WriteSetMismatch {
        /// Number of transactions in the block.
        block_len: usize,
        /// Number of write-sets supplied.
        write_sets_len: usize,
    },
    /// A transaction wrote a location missing from its declared write-set — the
    /// declaration under-approximates the writes, which breaks the contract of
    /// engines that pre-build version chains from it (Bohm) or skip validation
    /// for hint-private reads (hinted Block-STM).
    UndeclaredWrite {
        /// Index of the offending transaction.
        txn_idx: usize,
    },
    /// An engine that requires *exact* access hints (Bohm's pre-built version
    /// chains) was handed a transaction whose hints are advisory
    /// (`AccessHints::exact == false`). Advisory hints carry no write-superset
    /// guarantee, so the engine refuses the block instead of guessing.
    InexactHints {
        /// Index of the transaction with advisory-only hints.
        txn_idx: usize,
    },
    /// The configured abort-fallback threshold was crossed mid-block: the
    /// block's speculation aborted more than
    /// `ExecutorOptions::abort_fallback_threshold` times, the engine halted it
    /// and discarded all speculative results. The adaptive executor catches
    /// this and re-runs the block sequentially; callers driving `BlockStm`
    /// directly can do the same (the engine remains usable).
    AbortThresholdExceeded {
        /// Number of aborts observed when the threshold tripped.
        aborts: u64,
    },
    /// A streaming hook ([`CommitSink`](crate::CommitSink) or
    /// [`BlockLimiter`](crate::BlockLimiter)) was attached for a different state
    /// model (`Key`/`Value` types) than the block being executed. One executor can
    /// serve many state models, but each hook is typed; re-attach a hook matching
    /// the block's types.
    HookStateModelMismatch {
        /// Which hook mismatched (`"CommitSink"` or `"BlockLimiter"`).
        hook: &'static str,
    },
    /// An engine that publishes values into pre-built placeholder chains (Bohm)
    /// was handed a transaction that produced commutative delta writes: without
    /// run-time chain resolution the placeholders cannot represent "add δ to
    /// whatever lands below", so the block is refused instead of committing a
    /// wrong state.
    DeltasUnsupported {
        /// Index of the transaction that produced a delta-set.
        txn_idx: usize,
    },
    /// Any other violated engine invariant (please report it as a bug).
    Internal {
        /// What went wrong.
        detail: String,
    },
}

impl ExecutionError {
    /// Renders a `catch_unwind` payload into a human-readable string for
    /// [`ExecutionError::WorkerPanic::detail`]. Engines use this so the original
    /// panic message (e.g. an index-out-of-bounds from transaction logic) survives
    /// into the typed error.
    pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(message) = payload.downcast_ref::<&str>() {
            (*message).to_string()
        } else if let Some(message) = payload.downcast_ref::<String>() {
            message.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }
}

/// Accumulates caught worker panics during one block execution and converts them
/// into a single [`ExecutionError::WorkerPanic`].
///
/// Every parallel engine follows the same containment pattern — catch the unwind,
/// count it, keep the first payload's message — so the pattern lives here once.
/// All methods take `&self` and are safe to call from any worker thread.
#[derive(Debug, Default)]
pub struct PanicCollector {
    panics: std::sync::atomic::AtomicUsize,
    first_detail: parking_lot::Mutex<String>,
}

impl PanicCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one caught panic, keeping the first payload's rendered message.
    pub fn record(&self, payload: &(dyn std::any::Any + Send)) {
        self.panics
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let mut detail = self.first_detail.lock();
        if detail.is_empty() {
            *detail = ExecutionError::panic_message(payload);
        }
    }

    /// Records `n` panics observed without payloads (e.g. a thread-pool backstop
    /// that only reports a count).
    pub fn record_anonymous(&self, n: usize) {
        self.panics
            .fetch_add(n, std::sync::atomic::Ordering::SeqCst);
    }

    /// Number of panics recorded so far.
    pub fn count(&self) -> usize {
        self.panics.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Consumes the collector: `Some(WorkerPanic)` if anything was recorded.
    pub fn into_error(self) -> Option<ExecutionError> {
        let workers = self.count();
        if workers == 0 {
            None
        } else {
            Some(ExecutionError::WorkerPanic {
                workers,
                detail: self.first_detail.into_inner(),
            })
        }
    }
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::WorkerPanic { workers, detail } => {
                write!(f, "{workers} worker(s) panicked while executing the block")?;
                if !detail.is_empty() {
                    write!(f, ": {detail}")?;
                }
                Ok(())
            }
            ExecutionError::InvalidConcurrency { requested } => {
                write!(
                    f,
                    "invalid concurrency {requested}: at least one worker is required"
                )
            }
            ExecutionError::MissingOutput { txn_idx } => {
                write!(f, "transaction {txn_idx} produced no output (engine bug)")
            }
            ExecutionError::MissingWriteSet { txn_idx } => write!(
                f,
                "transaction {txn_idx} declares no write-set; the Bohm baseline requires \
                 `Transaction::declared_write_set` (Block-STM does not)"
            ),
            ExecutionError::WriteSetMismatch {
                block_len,
                write_sets_len,
            } => write!(
                f,
                "one write-set per transaction is required: block has {block_len} \
                 transaction(s) but {write_sets_len} write-set(s) were supplied"
            ),
            ExecutionError::UndeclaredWrite { txn_idx } => write!(
                f,
                "transaction {txn_idx} wrote a location missing from its declared \
                 write-set (the declaration must be a superset of every possible write)"
            ),
            ExecutionError::InexactHints { txn_idx } => write!(
                f,
                "transaction {txn_idx} provides only advisory access hints \
                 (`AccessHints::exact` is false), but this engine requires an exact \
                 declared write-set to pre-build its version chains"
            ),
            ExecutionError::AbortThresholdExceeded { aborts } => write!(
                f,
                "speculation aborted {aborts} times, crossing the configured \
                 abort-fallback threshold; the block was halted for a sequential re-run"
            ),
            ExecutionError::HookStateModelMismatch { hook } => write!(
                f,
                "the attached {hook} hook is typed for a different (Key, Value) state \
                 model than the executed block"
            ),
            ExecutionError::DeltasUnsupported { txn_idx } => write!(
                f,
                "transaction {txn_idx} produced commutative delta writes, which this \
                 engine's pre-declared placeholder chains cannot represent"
            ),
            ExecutionError::Internal { detail } => write!(f, "engine invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for ExecutionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let panic = ExecutionError::WorkerPanic {
            workers: 2,
            detail: "boom".to_string(),
        };
        assert_eq!(
            panic.to_string(),
            "2 worker(s) panicked while executing the block: boom"
        );
        let panic_no_detail = ExecutionError::WorkerPanic {
            workers: 1,
            detail: String::new(),
        };
        assert_eq!(
            panic_no_detail.to_string(),
            "1 worker(s) panicked while executing the block"
        );
        assert!(ExecutionError::MissingOutput { txn_idx: 7 }
            .to_string()
            .contains("transaction 7"));
        assert!(ExecutionError::MissingWriteSet { txn_idx: 3 }
            .to_string()
            .contains("declared_write_set"));
        assert!(ExecutionError::WriteSetMismatch {
            block_len: 4,
            write_sets_len: 2
        }
        .to_string()
        .contains("4 transaction(s)"));
        assert!(ExecutionError::InexactHints { txn_idx: 5 }
            .to_string()
            .contains("transaction 5"));
        assert!(ExecutionError::AbortThresholdExceeded { aborts: 9 }
            .to_string()
            .contains("9 times"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&ExecutionError::InvalidConcurrency { requested: 0 });
    }
}
