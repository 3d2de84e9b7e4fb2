//! The Block-STM engine (Algorithm 1) behind a persistent worker pool.
//!
//! [`BlockStm`] is the production shape of the parallel executor: it is constructed
//! **once** (via [`BlockStmBuilder`]), owns a pool of worker threads that *park*
//! between blocks, and keeps the per-block structures — the multi-version memory's
//! version arrays, the scheduler's counters and status vector, the per-transaction
//! output slots — alive across [`execute_block`](BlockStm::execute_block) calls,
//! **resetting** them instead of reallocating. At the small block sizes of the
//! paper's Figures 5 and 8 the per-block setup cost (thread spawn/join plus arena
//! allocation) is a measurable fraction of the block time; the `reuse` benchmark in
//! `crates/bench` quantifies the win. The same executor also runs whole streams
//! of blocks in one dispatch ([`execute_chain`](BlockStm::execute_chain),
//! [`execute_stream`](BlockStm::execute_stream), see `chain.rs`); a single block
//! runs in the first slot of the same two-slot arena, without a frontier.
//!
//! # One worker
//!
//! Multi-version memory, the collaborative scheduler and validation earn their
//! cost only when several threads speculate. An executor configured with **one**
//! worker therefore runs every block — of `execute_block`, `execute_chain` and
//! `execute_stream` alike — through the sequential loop that
//! [`SequentialExecutor`](crate::SequentialExecutor) also uses, and never builds
//! the arena, the scheduler or the frontier. The hooks fire exactly as the
//! commit ladder fires them (`begin_block`, the limiter's cut, one `on_commit`
//! per transaction with materialized deltas, `end_block`), a panicking
//! transaction still surfaces as [`ExecutionError::WorkerPanic`], and
//! [`dispatches`](BlockStm::dispatches) stays 0. The metrics of that path count
//! blocks, incarnations (one per transaction), commits and delta writes; every
//! speculation counter (validations, aborts, scheduler polls, location-cache
//! hits, frontier reads, sweeps, run-ahead) reads 0.

use crate::chain::ChainArena;
use crate::config::ExecutorOptions;
use crate::errors::{ExecutionError, PanicCollector};
use crate::executor::BlockExecutor;
use crate::hooks::{
    BlockLimiter, CommitSink, ErasedBlockLimiter, ErasedCommitSink, LimiterAdapter, SinkAdapter,
};
use crate::output::BlockOutput;
use crate::sequential::execute_in_order;
use crate::view::MVHashMapView;
use block_stm_metrics::{ExecutionMetrics, MetricsSnapshot};
use block_stm_mvmemory::{FrontierOverlay, LocationCache, MVMemory};
use block_stm_scheduler::{Scheduler, Task, TaskKind};
use block_stm_storage::Storage;
use block_stm_sync::{Backoff, WorkerPool};
use block_stm_vm::{
    AbortCode, AggregatorValue, Transaction, TransactionOutput, Version, Vm, VmStatus,
};
use parking_lot::Mutex;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Whether the opt-in chained-commit audit is on (`BLOCK_STM_CHAIN_AUDIT=1`):
/// every committed transaction's full read set is re-validated at drain time,
/// when everything below it is final, using the same predicate the executor
/// validates with. Any failure is a stale commit; the audit dumps the failing
/// descriptors plus the scheduler's wave bookkeeping and aborts the process.
/// Diagnostics only — keep it off in production runs.
fn chain_commit_audit_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("BLOCK_STM_CHAIN_AUDIT").is_some())
}
use std::sync::Arc;

/// Builder for [`BlockStm`]: the VM plus the [`ExecutorOptions`] and hooks.
///
/// ```
/// use block_stm::{BlockStmBuilder, Vm};
///
/// let executor = BlockStmBuilder::new(Vm::for_testing())
///     .concurrency(4)
///     .build();
/// assert_eq!(executor.concurrency(), 4);
/// ```
#[derive(Clone)]
pub struct BlockStmBuilder {
    vm: Vm,
    options: ExecutorOptions,
    sinks: Vec<Arc<dyn ErasedCommitSink>>,
    limiter: Option<Arc<dyn ErasedBlockLimiter>>,
}

impl Debug for BlockStmBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStmBuilder")
            .field("options", &self.options)
            .field("num_commit_sinks", &self.sinks.len())
            .field("has_block_limiter", &self.limiter.is_some())
            .finish()
    }
}

impl BlockStmBuilder {
    /// Starts a builder with default options (one worker per available core).
    pub fn new(vm: Vm) -> Self {
        Self {
            vm,
            options: ExecutorOptions::default(),
            sinks: Vec::new(),
            limiter: None,
        }
    }

    /// Sets the worker-thread count (`0` = one per available core, capped at 32).
    pub fn concurrency(mut self, concurrency: usize) -> Self {
        self.options.concurrency = concurrency;
        self
    }

    /// Sets the mid-block abort-fallback threshold: once more than `aborts`
    /// validation aborts occur, the block halts with
    /// [`ExecutionError::AbortThresholdExceeded`] so the caller (the adaptive
    /// executor) can re-run it sequentially.
    pub fn abort_fallback_threshold(mut self, aborts: u64) -> Self {
        self.options.abort_fallback_threshold = Some(aborts);
        self
    }

    /// Attaches a [`CommitSink`]: committed `(txn_idx, output)` pairs are delivered
    /// to it **in preset order, exactly once each**, while the rest of the block is
    /// still executing. The sink is typed by the state model it consumes; executing
    /// a block with different `(Key, Value)` types reports
    /// [`ExecutionError::HookStateModelMismatch`].
    ///
    /// ```
    /// use block_stm::{BlockStmBuilder, CommitEvent, CommitSink, Vm};
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
    /// let sink = Arc::new(Collect::default());
    /// let executor = BlockStmBuilder::new(Vm::for_testing())
    ///     .concurrency(2)
    ///     .commit_sink::<u64, u64>(sink.clone())
    ///     .build();
    /// # let storage: block_stm_storage::InMemoryStorage<u64, u64> =
    /// #     (0..4u64).map(|k| (k, k)).collect();
    /// # let block: Vec<block_stm_vm::synthetic::SyntheticTransaction> =
    /// #     (0..8).map(|i| block_stm_vm::synthetic::SyntheticTransaction::increment(i % 4)).collect();
    /// executor.execute_block(&block, &storage).unwrap();
    /// assert_eq!(*sink.0.lock(), (0..8).collect::<Vec<_>>());
    /// ```
    /// Calling `commit_sink` again **adds** another sink rather than replacing
    /// the first: every attached sink receives every commit event, in attach
    /// order (the builder-level form of [`MultiSink`](crate::MultiSink)). This
    /// is how, e.g., a receipt streamer and a disk persister share one commit
    /// stream.
    pub fn commit_sink<K, V>(mut self, sink: Arc<dyn CommitSink<K, V>>) -> Self
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.sinks.push(Arc::new(SinkAdapter { sink }));
        self
    }

    /// Attaches a [`BlockLimiter`]: it sees each committed output in order and can
    /// cut the block at that committed boundary (see
    /// [`BlockGasLimit`](crate::BlockGasLimit) for the canonical block-gas-limit
    /// use). Transactions past the cut are cleanly excluded — the block output
    /// equals a sequential execution of the truncated block.
    pub fn block_limiter<K, V>(mut self, limiter: Arc<dyn BlockLimiter<K, V>>) -> Self
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.limiter = Some(Arc::new(LimiterAdapter { limiter }));
        self
    }

    /// Builds the executor: spawns the persistent worker pool (threads park until the
    /// first block arrives) and prepares the reusable per-block state.
    pub fn build(self) -> BlockStm {
        let workers = self.options.effective_concurrency();
        BlockStm {
            vm: self.vm,
            // The calling thread participates as worker 0 (like rayon's
            // `in_place_scope`), so the pool itself needs one thread fewer.
            pool: WorkerPool::new(workers.saturating_sub(1)),
            speculative: workers > 1,
            options: self.options,
            sinks: self.sinks,
            limiter: self.limiter,
            state: Mutex::new(None),
        }
    }
}

/// The Block-STM engine: executes block after block of transactions in parallel,
/// committing a state identical to a sequential execution in each block's preset
/// order.
///
/// Construct it once via [`BlockStmBuilder`] and keep it alive for the lifetime of
/// the validator: worker threads park between blocks and per-block structures are
/// reset and reused. Blocks, storage and outputs are borrowed/owned plain data —
/// nothing escapes an [`execute_block`](Self::execute_block) call.
///
/// A panicking transaction does not unwind through the engine: the block fails with
/// [`ExecutionError::WorkerPanic`] and the executor stays usable.
pub struct BlockStm {
    pub(crate) vm: Vm,
    pub(crate) options: ExecutorOptions,
    pub(crate) pool: WorkerPool,
    /// Whether blocks run on Block-STM. With one configured worker nothing
    /// can overlap, so every block runs through the sequential loop instead.
    pub(crate) speculative: bool,
    /// Streaming consumers of the committed prefix (type-erased; see
    /// [`BlockStmBuilder::commit_sink`]). Every sink sees every commit event,
    /// in attach order.
    pub(crate) sinks: Vec<Arc<dyn ErasedCommitSink>>,
    /// In-order admission control over the committed prefix, if attached
    /// (type-erased; see [`BlockStmBuilder::block_limiter`]).
    pub(crate) limiter: Option<Arc<dyn ErasedBlockLimiter>>,
    /// The reusable `ChainArena`, type-erased so one executor can serve any
    /// `(Key, Value)` pair; in a real deployment the pair never changes, so the
    /// downcast always hits and the arena is reused call after call.
    pub(crate) state: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Debug for BlockStm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStm")
            .field("options", &self.options)
            .field("pool_threads", &self.pool.thread_count())
            .finish()
    }
}

impl BlockStm {
    /// Shorthand for [`BlockStmBuilder::new`].
    pub fn builder(vm: Vm) -> BlockStmBuilder {
        BlockStmBuilder::new(vm)
    }

    /// An executor with default options (one worker per available core).
    pub fn with_defaults(vm: Vm) -> Self {
        BlockStmBuilder::new(vm).build()
    }

    /// The configured options.
    pub fn options(&self) -> &ExecutorOptions {
        &self.options
    }

    /// The VM this executor runs transactions with.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The number of workers that execute a (large enough) block, including the
    /// calling thread.
    pub fn concurrency(&self) -> usize {
        self.pool.thread_count() + 1
    }

    /// Number of dispatches onto the persistent pool so far (diagnostics): one
    /// per non-empty [`execute_block`](Self::execute_block) and one per
    /// [`execute_chain`](Self::execute_chain) or
    /// [`execute_stream`](Self::execute_stream) call, however many blocks it
    /// carries — workers are unparked once per dispatch. Always 0 at one worker,
    /// where blocks run sequentially.
    pub fn dispatches(&self) -> u64 {
        self.pool.epochs_run()
    }

    /// Runs `body` — the sequential engine's work for one call — serialized
    /// with other calls on the executor's state lock (the hooks are shared),
    /// with a panic contained into [`ExecutionError::WorkerPanic`].
    pub(crate) fn run_sequentially<R>(
        &self,
        body: impl FnOnce() -> Result<R, ExecutionError>,
    ) -> Result<R, ExecutionError> {
        let _serialized = self.state.lock();
        catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|payload| {
            Err(ExecutionError::WorkerPanic {
                workers: 1,
                detail: ExecutionError::panic_message(&*payload),
            })
        })
    }

    /// Executes `block` against the pre-block `storage`.
    ///
    /// Returns the committed state updates (equal to a sequential execution of the
    /// block), the per-transaction outputs and the engine metrics for this run — or a
    /// typed [`ExecutionError`] if a worker panicked or an engine invariant broke.
    /// The same instance is intended to execute block after block; concurrent calls
    /// from several threads are safe and serialize on the per-block state.
    pub fn execute_block<T, S>(
        &self,
        block: &[T],
        storage: &S,
    ) -> Result<BlockOutput<T::Key, T::Value>, ExecutionError>
    where
        T: Transaction,
        S: Storage<T::Key, T::Value>,
    {
        let num_txns = block.len();
        let sinks = self.sinks.as_slice();
        let limiter = self.limiter.as_deref();
        if !self.speculative {
            return self.run_sequentially(|| {
                execute_in_order(&self.vm, block, storage, None, sinks, limiter)
            });
        }
        if num_txns == 0 {
            for sink in sinks {
                sink.begin_block(0);
                sink.end_block(0);
            }
            if let Some(limiter) = limiter {
                limiter.begin_block(0);
            }
            return Ok(BlockOutput::new(
                Vec::new(),
                Vec::new(),
                MetricsSnapshot::default(),
            ));
        }
        // `effective_concurrency` is clamped to >= 1; the check guards against a
        // future regression turning a stall into a typed error instead of a hang.
        let participants = self.options.effective_concurrency().min(num_txns);
        if participants == 0 {
            return Err(ExecutionError::InvalidConcurrency {
                requested: self.options.concurrency,
            });
        }

        let mut guard = self.state.lock();
        // A single block runs in the chain arena's first slot, without a
        // frontier (a chain call invalidates the slot generations it finds).
        let arena = ChainArena::<T::Key, T::Value>::prepare(&mut guard);
        let state = &mut arena.slots[0].get_mut().state;
        state.reset(num_txns);
        state.metrics.record_block(num_txns);
        for sink in sinks {
            sink.begin_block(num_txns);
        }
        if let Some(limiter) = limiter {
            limiter.begin_block(num_txns);
        }

        let panics = PanicCollector::new();
        let worker = Worker {
            vm: &self.vm,
            options: &self.options,
            block,
            storage,
            mvmemory: &state.mvmemory,
            scheduler: &state.scheduler,
            metrics: &state.metrics,
            outputs: &state.outputs,
            commit_drain: &state.commit_drain,
            sinks,
            limiter,
            frontier: None,
            abort_count: &state.abort_count,
        };
        let no_abort = AtomicBool::new(false);
        let job = |_worker_index: usize| {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // One location cache per worker per block: every location is
                // resolved against the sharded interner at most once. It dies
                // with the job, before the next `MVMemory::reset`, which
                // requires every cell handle to be dropped.
                let cache = RefCell::new(LocationCache::new());
                let mut backoff = Backoff::new();
                // An unbounded stint returns only when the block is done or on
                // an empty poll. Blocks execute in milliseconds, so poll again —
                // but with a bounded spin that degrades to yielding, so an
                // oversubscribed host does not burn a core busy-waiting.
                loop {
                    let (done, progressed) = worker.run_stint(usize::MAX, &no_abort, &cache);
                    if done {
                        break;
                    }
                    if progressed {
                        backoff.reset();
                    }
                    if backoff.will_yield() {
                        worker.metrics.record_scheduler_yield();
                    }
                    backoff.snooze();
                }
                // The block is done (or halted): drain whatever the ladder
                // committed, waiting for the lock so nothing is left behind.
                worker.drain_commits(true);
                worker.record_location_cache(cache);
            }));
            if let Err(payload) = outcome {
                // Contain the panic: release every other worker, record what
                // happened, and let `execute_block` report a typed error. The dirty
                // per-block state is fully reset before the next block.
                // (`&*payload`, not `&payload`: the latter would unsize the Box
                // itself into the `dyn Any` and defeat the downcasts.)
                worker.scheduler.halt();
                panics.record(&*payload);
            }
        };
        let pool_outcome = self.pool.run(participants, &job);

        if let Err(job_panics) = pool_outcome {
            // The job above catches all panics, so this only fires if the catch
            // itself failed — count it rather than trust it cannot happen.
            panics.record_anonymous(job_panics.panicked);
        }
        if let Some(error) = panics.into_error() {
            return Err(error);
        }

        let drain = state.commit_drain.get_mut();
        if let Some(failure) = drain.failure.take() {
            return Err(failure);
        }
        let cut = drain.cut;
        let included = cut.unwrap_or(num_txns);
        debug_assert!(
            cut.is_some() || drain.drained == num_txns,
            "a complete block must have drained every commit"
        );
        // A limiter cut excludes transactions `cut..` entirely: the committed state
        // is the snapshot bounded below the cut, exactly a sequential execution of
        // the truncated block (higher transactions' speculative writes are filtered
        // by the version bound). The drain folded every committed delta chain, so
        // the storage base only backs the resolution rule, never a live chain.
        let base_of = |key: &T::Key| storage.get(key).map(|value| value.to_aggregator());
        let updates = state
            .mvmemory
            .snapshot_prefix_with_base(cut.unwrap_or(num_txns), base_of);
        let mut outputs = Vec::with_capacity(included);
        for (txn_idx, slot) in state.outputs.iter_mut().enumerate().take(included) {
            match slot.get_mut().take() {
                Some(output) => outputs.push(output),
                None => return Err(ExecutionError::MissingOutput { txn_idx }),
            }
        }
        Ok(BlockOutput::new(updates, outputs, state.metrics.snapshot()).with_truncation(cut))
    }
}

impl<T, S> BlockExecutor<T, S> for BlockStm
where
    T: Transaction,
    S: Storage<T::Key, T::Value>,
{
    fn name(&self) -> &'static str {
        "block-stm"
    }

    fn execute_block(
        &self,
        block: &[T],
        storage: &S,
    ) -> Result<BlockOutput<T::Key, T::Value>, ExecutionError> {
        BlockStm::execute_block(self, block, storage)
    }
}

/// One per-transaction output slot, filled by the incarnation that commits.
pub(crate) type OutputSlot<K, V> = Mutex<Option<TransactionOutput<K, V>>>;

/// Progress of the commit drain: how much of the scheduler's committed prefix has
/// been processed (metrics recorded, cells frozen, sink notified, limiter asked).
/// Exactly one thread drains at a time (the mutex); the committed prefix is
/// processed strictly in order, exactly once.
#[derive(Debug)]
pub(crate) struct DrainState<K, V> {
    /// Number of committed transactions fully drained.
    pub(crate) drained: usize,
    /// Set when the block limiter cut the block: index of the first *excluded*
    /// transaction.
    pub(crate) cut: Option<usize>,
    /// A typed failure discovered while draining (hook mismatch, missing output).
    pub(crate) failure: Option<ExecutionError>,
    /// Set once the sinks were sent `end_block` for this block.
    pub(crate) ended: bool,
    /// Chained execution only (stays empty otherwise): last committed write per
    /// key, in commit order. The chain advance harvests the block's `updates`
    /// from this map in O(block writes) — a slot's interner accumulates the
    /// whole *stream's* key universe, so the single-block snapshot scan would
    /// grow with chain length instead.
    pub(crate) block_updates: HashMap<K, V>,
}

impl<K, V> Default for DrainState<K, V> {
    fn default() -> Self {
        Self {
            drained: 0,
            cut: None,
            failure: None,
            ended: false,
            block_updates: HashMap::new(),
        }
    }
}

/// The reusable per-block arena: everything `execute_block` used to allocate fresh
/// per call. Reset is cheap — counters re-armed, maps cleared in place, snapshot
/// cells swapped to a shared empty — and allocation-free once the arena has grown to
/// the steady-state block size.
pub(crate) struct EngineState<K, V> {
    pub(crate) metrics: ExecutionMetrics,
    pub(crate) mvmemory: MVMemory<K, V>,
    pub(crate) scheduler: Scheduler,
    pub(crate) outputs: Vec<OutputSlot<K, V>>,
    pub(crate) commit_drain: Mutex<DrainState<K, V>>,
    /// Validation aborts observed this block, feeding the
    /// [`ExecutorOptions::abort_fallback_threshold`] escape hatch.
    pub(crate) abort_count: AtomicU64,
}

impl<K, V> EngineState<K, V>
where
    K: Eq + Hash + Ord + Clone + Debug + Send + Sync + 'static,
    V: Clone + PartialEq + Debug + Send + Sync + AggregatorValue + 'static,
{
    pub(crate) fn new(num_txns: usize) -> Self {
        Self {
            metrics: ExecutionMetrics::new(),
            mvmemory: MVMemory::new(num_txns),
            scheduler: Scheduler::new(num_txns),
            outputs: (0..num_txns).map(|_| Mutex::new(None)).collect(),
            commit_drain: Mutex::new(DrainState::default()),
            abort_count: AtomicU64::new(0),
        }
    }

    /// Re-arms the arena for the next block, reusing every allocation.
    pub(crate) fn reset(&mut self, num_txns: usize) {
        self.metrics.reset();
        self.mvmemory.reset(num_txns);
        self.scheduler.reset(num_txns);
        self.outputs.truncate(num_txns);
        for slot in &mut self.outputs {
            *slot.get_mut() = None;
        }
        self.outputs.resize_with(num_txns, || Mutex::new(None));
        *self.commit_drain.get_mut() = DrainState::default();
        *self.abort_count.get_mut() = 0;
    }
}

/// Per-block shared context of the worker threads. `Copy`-able by reference only; all
/// fields are shared state borrowed from one slot of the executor's two-slot
/// `ChainArena` (slot 0, without a frontier, for [`BlockStm::execute_block`]).
pub(crate) struct Worker<'a, T: Transaction, S> {
    pub(crate) vm: &'a Vm,
    pub(crate) options: &'a ExecutorOptions,
    pub(crate) block: &'a [T],
    pub(crate) storage: &'a S,
    pub(crate) mvmemory: &'a MVMemory<T::Key, T::Value>,
    pub(crate) scheduler: &'a Scheduler,
    pub(crate) metrics: &'a ExecutionMetrics,
    pub(crate) outputs: &'a [OutputSlot<T::Key, T::Value>],
    pub(crate) commit_drain: &'a Mutex<DrainState<T::Key, T::Value>>,
    pub(crate) sinks: &'a [Arc<dyn ErasedCommitSink>],
    pub(crate) limiter: Option<&'a dyn ErasedBlockLimiter>,
    /// Chained execution only: the cross-block frontier overlay. Reads fall
    /// through to it (stamped), validation checks it, and the commit drain
    /// publishes this block's committed writes into it. `None` for single-block
    /// execution — every chain-specific branch below is compiled around this.
    pub(crate) frontier: Option<&'a FrontierOverlay<T::Key, T::Value>>,
    /// Validation-abort tally feeding the
    /// [`ExecutorOptions::abort_fallback_threshold`] escape hatch.
    pub(crate) abort_count: &'a AtomicU64,
}

// Manual impl: deriving Clone/Copy would add unnecessary bounds on T and S.
impl<T: Transaction, S> Clone for Worker<'_, T, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Transaction, S> Copy for Worker<'_, T, S> {}

impl<T, S> Worker<'_, T, S>
where
    T: Transaction,
    S: Storage<T::Key, T::Value>,
{
    /// The thread main loop (`run()`, Algorithm 1 Lines 1–9), bounded: claims
    /// and [`perform`](Self::perform)s tasks until `budget` task-loop
    /// iterations have run, the block's scheduler reports completion, `abort`
    /// is raised, or a poll finds no ready task. It never spins: the caller
    /// owns the idle policy and the [`LocationCache`]. `execute_block` runs an
    /// unbounded stint with one cache per worker per block; the chain runs
    /// bounded stints with one cache per stint, because a cache holds handles
    /// into its slot's multi-version cells, which must all be dropped before
    /// the slot can be reset for a later block.
    ///
    /// Returns `(done, progressed)`: whether the block's scheduler reports
    /// completion, and whether this stint performed at least one task.
    pub(crate) fn run_stint(
        &self,
        budget: usize,
        abort: &AtomicBool,
        cache: &RefCell<LocationCache<T::Key, T::Value>>,
    ) -> (bool, bool) {
        let mut drained_seen = 0usize;
        let mut iterations = 0usize;
        while iterations < budget && !self.scheduler.done() && !abort.load(Ordering::Relaxed) {
            let Some(task) = self.scheduler.next_task() else {
                self.metrics.record_scheduler_poll();
                break;
            };
            iterations += self.perform(task, cache, &mut drained_seen);
        }
        (self.scheduler.done(), iterations > 0)
    }

    /// Performs one claimed task and every follow-up task the scheduler hands
    /// back (Algorithm 1 Lines 3–8). A claimed task is always completed:
    /// dropping it would stall the scheduler forever. Returns the number of
    /// tasks performed.
    ///
    /// After each task, an opportunistic drain gated on ladder movement: one
    /// lock-free watermark load, and a drain attempt only when the ladder
    /// advanced past `drained_seen`, what this worker last observed. The
    /// cursor advances only when the drain actually ran — a failed try_lock
    /// must not mark the new prefix as seen, or a commit landing just as the
    /// current drainer exits would sit undelivered until the next ladder
    /// movement.
    pub(crate) fn perform(
        &self,
        task: Task,
        cache: &RefCell<LocationCache<T::Key, T::Value>>,
        drained_seen: &mut usize,
    ) -> usize {
        let mut performed = 0;
        let mut next = Some(task);
        while let Some(task) = next {
            next = match task.kind {
                TaskKind::Execution => self.try_execute(task.version, cache),
                TaskKind::Validation => self.needs_reexecution(task),
            };
            performed += 1;
            if self.scheduler.committed_prefix() > *drained_seen {
                if let Some(drained) = self.drain_commits(false) {
                    *drained_seen = drained;
                }
            }
        }
        performed
    }

    /// Flushes a location cache's hit/miss counters into this block's
    /// metrics. Taking the cache by value makes its owner flush it exactly
    /// once.
    pub(crate) fn record_location_cache(&self, cache: RefCell<LocationCache<T::Key, T::Value>>) {
        let stats = cache.into_inner().stats();
        self.metrics
            .record_location_cache(stats.hits, stats.interner_hits, stats.interner_misses);
    }

    /// The pre-block base of `key` in aggregator form: the cross-block frontier
    /// overlay first (a predecessor block's committed write is this block's base
    /// state), then storage. Outside chained execution this is exactly the
    /// storage base. Used wherever an unfolded delta chain needs a base to fold
    /// onto and wherever validation needs the value a fresh base read would
    /// observe.
    pub(crate) fn base_aggregator(&self, key: &T::Key) -> Option<u128> {
        if let Some(frontier) = self.frontier {
            if let Some(value) = frontier.get(key) {
                return Some(value.to_aggregator());
            }
        }
        self.storage.get(key).map(|value| value.to_aggregator())
    }

    /// Processes the scheduler's committed prefix in order, exactly once per
    /// transaction: records the commit-lag metric, freezes the multi-version
    /// entries, asks the [`BlockLimiter`] whether the block continues and delivers
    /// the output to the [`CommitSink`] — then, once the block's stream is complete,
    /// [`CommitSink::end_block`]. One drainer at a time; with
    /// `block_on_lock == false` the call is a cheap no-op when another worker holds
    /// the drain (its loop re-reads the watermark, so nothing is missed for long —
    /// and the post-run blocking drain guarantees completeness).
    ///
    /// Returns the number of commits drained so far, or `None` when the drain lock
    /// was busy and nothing was attempted.
    pub(crate) fn drain_commits(&self, block_on_lock: bool) -> Option<usize> {
        let mut state = if block_on_lock {
            self.commit_drain.lock()
        } else {
            self.commit_drain.try_lock()?
        };
        let drained_before = state.drained;
        let mut lag_sum = 0u64;
        let mut lag_max = 0u64;
        // Chained execution: committed writes (plain and resolved deltas) are
        // collected in commit order and published to the cross-block frontier
        // overlay once per pass, so successor blocks can speculate against them.
        let mut frontier_batch: Vec<(T::Key, T::Value)> = Vec::new();
        while state.cut.is_none() && state.failure.is_none() {
            // Re-read the watermark each iteration: commits that land while we
            // drain are picked up in the same pass.
            if state.drained >= self.scheduler.committed_prefix() {
                break;
            }
            let idx = state.drained;
            let slot = self.outputs[idx].lock();
            let Some(output) = slot.as_ref() else {
                // A committed transaction always has an output; surface the broken
                // invariant instead of unwinding.
                state.failure = Some(ExecutionError::MissingOutput { txn_idx: idx });
                self.scheduler.halt();
                break;
            };
            if let Some(limiter) = self.limiter {
                match limiter.include_next_erased(idx, output) {
                    Some(true) => {}
                    Some(false) => {
                        // Cut at the committed boundary: txns `idx..` are excluded
                        // and the remaining speculation is abandoned (their deltas
                        // are deliberately left unfolded — the snapshot bound
                        // filters them out).
                        state.cut = Some(idx);
                        self.scheduler.halt();
                        break;
                    }
                    None => {
                        state.failure = Some(ExecutionError::HookStateModelMismatch {
                            hook: "BlockLimiter",
                        });
                        self.scheduler.halt();
                        break;
                    }
                }
            }
            // Materialize the committed transaction's deltas before the freeze
            // covers it: the chain is folded (in commit order, so each fold
            // terminates after one step down) into a concrete frozen value, and
            // the resolved pairs are handed to the sink so it can stream final
            // states.
            let resolved_deltas: Vec<(T::Key, T::Value)> = if output.has_deltas() {
                self.mvmemory
                    .materialize_deltas(idx, |key| self.base_aggregator(key))
            } else {
                Vec::new()
            };
            let execution_cursor = self.scheduler.execution_cursor();
            let lag = execution_cursor.saturating_sub(idx) as u64;
            lag_sum += lag;
            lag_max = lag_max.max(lag);
            let mut sink_mismatch = false;
            for sink in self.sinks {
                if !sink.on_commit_erased(idx, output, &resolved_deltas, execution_cursor) {
                    state.failure =
                        Some(ExecutionError::HookStateModelMismatch { hook: "CommitSink" });
                    self.scheduler.halt();
                    sink_mismatch = true;
                    break;
                }
            }
            if sink_mismatch {
                break;
            }
            if let Some(frontier) = self.frontier {
                if chain_commit_audit_enabled() {
                    // Debug audit (BLOCK_STM_CHAIN_AUDIT=1): everything below a
                    // committed transaction is final by the time it drains, so
                    // its read set must still pass the exact validation predicate
                    // the executor uses — every origin type, not just frontier
                    // stamps. A failure here is a stale read that slipped past
                    // validation; dump it and abort so stress harnesses catch
                    // the exact transaction.
                    let failed = self.mvmemory.failed_read_descriptors(
                        idx,
                        |key| self.base_aggregator(key),
                        |key| Some(frontier.stamp_of(key)),
                    );
                    if !failed.is_empty() {
                        for descriptor in &failed {
                            eprintln!(
                                "CHAIN AUDIT: txn {idx} committed with stale read: \
                                 key {:?} recorded origin {:?} current frontier stamp {} \
                                 fresh resolution {}",
                                descriptor.key,
                                descriptor.origin,
                                frontier.stamp_of(&descriptor.key),
                                self.mvmemory
                                    .describe_resolution(descriptor, idx, |key| self
                                        .base_aggregator(key)),
                            );
                        }
                        let (incarnation, status, mtw, required, validated, cursor_idx, wave) =
                            self.scheduler.wave_diagnostics(idx);
                        eprintln!(
                            "CHAIN AUDIT: txn {idx} incarnation {incarnation} status {status:?} \
                             max_triggered_wave {mtw} required_wave {required} \
                             validated_wave {validated:?} cursor ({cursor_idx}, {wave})",
                        );
                        eprintln!(
                            "CHAIN AUDIT: context: committed_prefix {}, gate_open {}, \
                             block_size {}, execution_cursor {}",
                            self.scheduler.committed_prefix(),
                            self.scheduler.commit_gate_open(),
                            self.scheduler.block_size(),
                            execution_cursor,
                        );
                        std::process::abort();
                    }
                }
            }
            if self.frontier.is_some() {
                // Also fold the pairs into the per-block last-write map: the
                // chain advance harvests the block's `updates` from it in
                // O(block writes) instead of scanning the interner, whose key
                // universe grows with the whole stream.
                for write in output.writes.iter() {
                    frontier_batch.push((write.key.clone(), write.value.clone()));
                    state
                        .block_updates
                        .insert(write.key.clone(), write.value.clone());
                }
                for pair in resolved_deltas.iter() {
                    frontier_batch.push(pair.clone());
                    state.block_updates.insert(pair.0.clone(), pair.1.clone());
                }
            }
            drop(slot);
            state.drained += 1;
        }
        if state.drained > drained_before {
            if let Some(frontier) = self.frontier {
                frontier.publish(frontier_batch);
            }
            // Freeze the prefix once per pass: readers at or below the watermark
            // now take the final-read fast path (no read descriptors, nothing
            // to re-validate); and flush the commit-lag metrics in one bulk
            // update.
            self.mvmemory.freeze_committed_prefix(state.drained);
            self.metrics
                .record_commits((state.drained - drained_before) as u64, lag_sum, lag_max);
        }
        // The block's commit stream is complete once every transaction drained
        // or the limiter cut it (`drained` is then the cut point): tell the
        // sinks now, still under the drain lock, so `end_block` follows the last
        // `on_commit` and precedes the next block's `begin_block`.
        if !state.ended
            && state.failure.is_none()
            && (state.cut.is_some() || state.drained == self.block.len())
        {
            state.ended = true;
            for sink in self.sinks {
                sink.end_block(state.drained);
            }
        }
        Some(state.drained)
    }

    /// `try_execute` (Algorithm 1 Lines 10–19): run one incarnation and record its
    /// effects, or register a dependency if it reads an ESTIMATE.
    fn try_execute(
        &self,
        version: Version,
        cache: &RefCell<LocationCache<T::Key, T::Value>>,
    ) -> Option<Task> {
        let txn_idx = version.txn_idx;
        let txn = &self.block[txn_idx];
        loop {
            // §4 mitigation: when the VM must restart from scratch, first check the
            // previous incarnation's read-set for unresolved dependencies; registering
            // one is much cheaper than a doomed re-execution.
            if version.incarnation > 0 {
                if let Some((_, blocking_txn_idx)) =
                    self.mvmemory.first_estimate_in_prior_reads(txn_idx)
                {
                    if self.scheduler.add_dependency(txn_idx, blocking_txn_idx) {
                        return None;
                    }
                    // Dependency resolved in the meantime: fall through and execute.
                    self.metrics.record_dependency_race();
                }
            }

            let mut view =
                MVHashMapView::new(self.mvmemory, self.storage, txn_idx, self.metrics, cache);
            if let Some(frontier) = self.frontier {
                // Chained execution: base reads fall through to the predecessor
                // blocks' committed overlay. The overlay is sealed (frozen) for
                // this block exactly when its commit gate has been opened.
                view = view.with_frontier(frontier, self.scheduler.commit_gate_open());
            }
            self.metrics.record_incarnation();
            match self.vm.execute(txn, &view) {
                VmStatus::ReadError { blocking_txn_idx } => {
                    self.metrics.record_dependency_abort();
                    if self.scheduler.add_dependency(txn_idx, blocking_txn_idx) {
                        // Suspended: the execution task will be re-created when the
                        // blocking transaction finishes (resume_dependencies).
                        return None;
                    }
                    // The dependency was resolved before we could register it:
                    // re-execute immediately (Algorithm 1 Line 15).
                    self.metrics.record_dependency_race();
                    continue;
                }
                VmStatus::Done(output) => {
                    self.metrics
                        .record_committed_prefix_reads(view.committed_final_reads());
                    self.metrics.record_frontier_reads(view.frontier_reads());
                    let (resolutions, chain_len_max) = view.delta_resolution_stats();
                    self.metrics
                        .record_delta_resolutions(resolutions, chain_len_max);
                    if output.abort_code == Some(AbortCode::DeltaOverflow) {
                        self.metrics.record_delta_overflow_abort();
                    }
                    let read_set = view.take_read_set();
                    let write_set: Vec<(T::Key, T::Value)> = output
                        .writes
                        .iter()
                        .map(|write| (write.key.clone(), write.value.clone()))
                        .collect();
                    let delta_set = output.deltas.clone();
                    self.metrics.record_delta_writes(delta_set.len() as u64);
                    let wrote_new_location = self.mvmemory.record_with_cache_deltas(
                        &mut cache.borrow_mut(),
                        version,
                        read_set,
                        write_set,
                        delta_set,
                    );
                    *self.outputs[txn_idx].lock() = Some(output);
                    return self.scheduler.finish_execution(
                        txn_idx,
                        version.incarnation,
                        wrote_new_location,
                    );
                }
            }
        }
    }

    /// `needs_reexecution` (Algorithm 1 Lines 20–26): validate the incarnation's
    /// read-set; on failure, abort it (first failing validation only), convert its
    /// writes to ESTIMATEs and schedule the re-execution. A passing validation
    /// reports the task's wave back to the scheduler, which may advance the commit
    /// ladder (and thereby complete the block).
    fn needs_reexecution(&self, task: Task) -> Option<Task> {
        let Version {
            txn_idx,
            incarnation,
        } = task.version;
        let read_set_valid = if let Some(frontier) = self.frontier {
            // Chained execution: the fresh base a re-read would observe is
            // overlay-first, and stamped `Frontier` descriptors are compared
            // against the key's current overlay stamp.
            self.mvmemory.validate_read_set_with_frontier(
                txn_idx,
                |key| self.base_aggregator(key),
                |key| Some(frontier.stamp_of(key)),
            )
        } else {
            self.mvmemory.validate_read_set_with_base(txn_idx, |key| {
                self.storage.get(key).map(|value| value.to_aggregator())
            })
        };
        let aborted = !read_set_valid && self.scheduler.try_validation_abort(txn_idx, incarnation);
        self.metrics.record_validation(!aborted);
        if aborted && self.frontier.is_some() && !self.scheduler.commit_gate_open() {
            // This block's gate is still closed, so the abort was triggered by a
            // predecessor block's commits invalidating run-ahead speculation.
            self.metrics.record_cross_block_abort();
        }
        if aborted {
            self.mvmemory.convert_writes_to_estimates(txn_idx);
            // Mid-block escape hatch: past the configured abort budget the
            // block is hopelessly contended for optimistic execution — halt it
            // with a typed error so the caller (the adaptive executor) can
            // re-run it sequentially. Not armed in chained execution, whose
            // failure path runs through the chain control instead.
            if self.frontier.is_none() {
                let aborts = self.abort_count.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(threshold) = self.options.abort_fallback_threshold {
                    if aborts > threshold {
                        let mut drain = self.commit_drain.lock();
                        if drain.failure.is_none() && drain.cut.is_none() {
                            drain.failure = Some(ExecutionError::AbortThresholdExceeded { aborts });
                        }
                        drop(drain);
                        self.scheduler.halt();
                    }
                }
            }
        }
        self.scheduler
            .finish_validation(txn_idx, incarnation, task.wave, aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::SequentialExecutor;
    use block_stm_storage::InMemoryStorage;
    use block_stm_vm::synthetic::SyntheticTransaction;
    use block_stm_vm::{ExecutionFailure, StateReader, TransactionContext};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn storage_with_keys(keys: u64) -> InMemoryStorage<u64, u64> {
        (0..keys).map(|k| (k, k * 1_000)).collect()
    }

    fn assert_matches_sequential(
        block: &[SyntheticTransaction],
        storage: &InMemoryStorage<u64, u64>,
        threads: usize,
    ) {
        let parallel = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build();
        let sequential = SequentialExecutor::new(Vm::for_testing());
        let parallel_output = parallel.execute_block(block, storage).unwrap();
        let sequential_output = sequential.execute_block(block, storage).unwrap();
        assert_eq!(
            parallel_output.updates, sequential_output.updates,
            "parallel and sequential committed states diverge"
        );
        assert_eq!(parallel_output.num_txns(), block.len());
        // Per-transaction write-sets must match too (same committed incarnations).
        for (idx, (p, s)) in parallel_output
            .outputs
            .iter()
            .zip(sequential_output.outputs.iter())
            .enumerate()
        {
            assert_eq!(p.writes, s.writes, "write-set mismatch at txn {idx}");
            assert_eq!(p.abort_code, s.abort_code, "abort mismatch at txn {idx}");
        }
    }

    #[test]
    fn empty_block() {
        let storage = storage_with_keys(1);
        let executor = BlockStm::with_defaults(Vm::for_testing());
        let output = executor
            .execute_block::<SyntheticTransaction, _>(&[], &storage)
            .unwrap();
        assert_eq!(output.num_txns(), 0);
        assert!(output.updates.is_empty());
    }

    #[test]
    fn single_transaction_block() {
        let storage = storage_with_keys(2);
        let block = vec![SyntheticTransaction::transfer(0, 1, 42)];
        assert_matches_sequential(&block, &storage, 4);
    }

    #[test]
    fn independent_transactions_all_commit() {
        let storage = storage_with_keys(0);
        let block: Vec<_> = (0..128)
            .map(|i| SyntheticTransaction::put(i, i * 7))
            .collect();
        assert_matches_sequential(&block, &storage, 8);
    }

    #[test]
    fn fully_sequential_chain_matches() {
        // Every transaction reads and writes the same key: worst-case contention.
        let storage = storage_with_keys(1);
        let block: Vec<_> = (0..100)
            .map(|_| SyntheticTransaction::increment(0))
            .collect();
        assert_matches_sequential(&block, &storage, 8);
    }

    #[test]
    fn conditional_writes_and_aborts_match() {
        let storage = storage_with_keys(8);
        let block: Vec<_> = (0..60)
            .map(|i| {
                SyntheticTransaction::transfer(i % 8, (i * 3) % 8, i)
                    .with_conditional_writes(vec![(i * 5) % 8 + 100])
                    .with_abort_divisor(5)
            })
            .collect();
        assert_matches_sequential(&block, &storage, 8);
    }

    #[test]
    fn random_blocks_match_sequential_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(0xB10C_57E0);
        for trial in 0..12 {
            let num_keys = rng.gen_range(2..20u64);
            let block_len = rng.gen_range(1..80usize);
            let storage = storage_with_keys(num_keys);
            let block: Vec<_> = (0..block_len)
                .map(|_| {
                    let reads = (0..rng.gen_range(0..4))
                        .map(|_| rng.gen_range(0..num_keys))
                        .collect();
                    let writes = (0..rng.gen_range(1..4))
                        .map(|_| rng.gen_range(0..num_keys))
                        .collect();
                    let conditional = (0..rng.gen_range(0..2))
                        .map(|_| rng.gen_range(0..num_keys))
                        .collect();
                    SyntheticTransaction {
                        reads,
                        writes,
                        conditional_writes: conditional,
                        salt: rng.gen(),
                        extra_gas: 0,
                        abort_when_divisible_by: if rng.gen_bool(0.2) { Some(3) } else { None },
                        deltas: vec![],
                        delta_limit: u64::MAX as u128,
                    }
                })
                .collect();
            let threads = [1, 2, 4, 8][trial % 4];
            assert_matches_sequential(&block, &storage, threads);
        }
    }

    #[test]
    fn options_ablations_still_match_sequential() {
        // Every option setting changes the schedule only, never the output: an
        // abort budget too large to trip matches the default engine.
        let storage = storage_with_keys(4);
        let block: Vec<_> = (0..80)
            .map(|i| SyntheticTransaction::transfer(i % 4, (i + 1) % 4, i))
            .collect();
        for builder in [
            BlockStmBuilder::new(Vm::for_testing()).concurrency(4),
            BlockStmBuilder::new(Vm::for_testing())
                .concurrency(4)
                .abort_fallback_threshold(u64::MAX),
        ] {
            let parallel = builder.build();
            let sequential = SequentialExecutor::new(Vm::for_testing());
            assert_eq!(
                parallel.execute_block(&block, &storage).unwrap().updates,
                sequential.execute_block(&block, &storage).unwrap().updates
            );
        }
    }

    #[test]
    fn metrics_reflect_at_least_one_incarnation_and_validation_per_txn() {
        let storage = storage_with_keys(4);
        let block: Vec<_> = (0..50)
            .map(|i| SyntheticTransaction::transfer(i % 4, (i + 1) % 4, i))
            .collect();
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .build();
        let output = executor.execute_block(&block, &storage).unwrap();
        assert!(output.metrics.incarnations >= 50);
        assert!(output.metrics.validations >= 50);
        assert_eq!(output.metrics.total_txns, 50);
    }

    #[test]
    fn steady_state_location_accesses_bypass_the_sharded_map() {
        // Acceptance bar of the two-level MVMemory design: once a location is
        // interned, reads and writes to it never touch the sharded map (no
        // shard-lock acquisitions). With one worker — made to speculate, past the
        // sequential path it would otherwise take — the accounting is exact:
        // every transaction resolves key 0 twice (one read, one write), the very
        // first resolution is the global first touch, and everything else must
        // be a per-worker cache hit.
        let storage = storage_with_keys(1);
        let block: Vec<_> = (0..50)
            .map(|_| SyntheticTransaction::increment(0))
            .collect();
        let mut executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(1)
            .build();
        executor.speculative = true;
        let metrics = executor.execute_block(&block, &storage).unwrap().metrics;
        let accesses = metrics.mvmemory_cache_hits
            + metrics.mvmemory_interner_hits
            + metrics.mvmemory_interner_misses;
        assert_eq!(metrics.mvmemory_interner_misses, 1);
        assert_eq!(metrics.mvmemory_interner_hits, 0);
        assert_eq!(metrics.mvmemory_cache_hits, accesses - 1);
        assert!(accesses >= 100, "two resolutions per transaction");

        // Across blocks the interner is recycled, not rebuilt: the next block's
        // first touch finds the location already interned (a read-path hit, no
        // shard write lock), and steady state is again all cache hits.
        let metrics = executor.execute_block(&block, &storage).unwrap().metrics;
        assert_eq!(metrics.mvmemory_interner_misses, 0);
        assert_eq!(metrics.mvmemory_interner_hits, 1);
        assert!(metrics.mvmemory_cache_hits >= 99);
    }

    #[test]
    fn deterministic_across_repeated_parallel_runs() {
        let storage = storage_with_keys(3);
        let block: Vec<_> = (0..120)
            .map(|i| SyntheticTransaction::transfer(i % 3, (i + 1) % 3, i))
            .collect();
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(8)
            .build();
        let reference = executor.execute_block(&block, &storage).unwrap();
        for _ in 0..5 {
            let run = executor.execute_block(&block, &storage).unwrap();
            assert_eq!(reference.updates, run.updates);
        }
    }

    #[test]
    fn one_executor_reuses_state_across_blocks_of_different_sizes() {
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .build();
        let sequential = SequentialExecutor::new(Vm::for_testing());
        let mut storage = storage_with_keys(6);
        let mut oracle = storage.clone();
        // Sizes deliberately grow and shrink to exercise arena resizing both ways.
        for (round, size) in [40usize, 5, 120, 1, 64].into_iter().enumerate() {
            let block: Vec<_> = (0..size as u64)
                .map(|i| SyntheticTransaction::transfer(i % 6, (i + round as u64 + 1) % 6, i))
                .collect();
            let output = executor.execute_block(&block, &storage).unwrap();
            let expected = sequential.execute_block(&block, &oracle).unwrap();
            assert_eq!(output.updates, expected.updates, "round {round}");
            storage.apply_updates(output.updates.iter().cloned());
            oracle.apply_updates(expected.updates.iter().cloned());
        }
        assert_eq!(executor.dispatches(), 5);
    }

    /// A trivial transaction over a string-valued state model, used to prove one
    /// executor can serve different `(Key, Value)` pairs. The newtype supplies the
    /// (degenerate but deterministic) aggregator embedding non-numeric state
    /// models must declare.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    struct Tag(String);

    impl block_stm_vm::AggregatorValue for Tag {
        fn to_aggregator(&self) -> u128 {
            0
        }

        fn from_aggregator(raw: u128) -> Self {
            Tag(raw.to_string())
        }
    }

    struct TagTxn {
        key: u64,
    }

    impl Transaction for TagTxn {
        type Key = u64;
        type Value = Tag;

        fn execute<R: StateReader<u64, Tag>>(
            &self,
            ctx: &mut TransactionContext<'_, u64, Tag, R>,
        ) -> Result<(), ExecutionFailure> {
            let prev = ctx.read(&self.key)?.unwrap_or_default();
            ctx.write(self.key, Tag(format!("{}x", prev.0)));
            Ok(())
        }
    }

    #[test]
    fn one_executor_serves_different_state_models() {
        // Switching the (Key, Value) pair mid-life rebuilds the type-erased arena
        // instead of corrupting it.
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .build();
        let storage = storage_with_keys(4);
        let block: Vec<_> = (0..10)
            .map(|i| SyntheticTransaction::increment(i % 4))
            .collect();
        let first = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(first.num_txns(), 10);

        let string_storage: InMemoryStorage<u64, Tag> = InMemoryStorage::new();
        let string_block: Vec<TagTxn> = (0..6).map(|i| TagTxn { key: i % 2 }).collect();
        let tagged = executor
            .execute_block(&string_block, &string_storage)
            .unwrap();
        assert_eq!(tagged.get(&0), Some(&Tag("xxx".to_string())));
        assert_eq!(tagged.get(&1), Some(&Tag("xxx".to_string())));

        // And back again: the u64 model still works.
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(output.updates, first.updates);
    }

    /// A transaction that panics when executed — drives the worker-panic error path.
    struct PanickingTxn {
        panics: bool,
    }

    impl Transaction for PanickingTxn {
        type Key = u64;
        type Value = u64;

        fn execute<R: StateReader<u64, u64>>(
            &self,
            ctx: &mut TransactionContext<'_, u64, u64, R>,
        ) -> Result<(), ExecutionFailure> {
            if self.panics {
                panic!("transaction logic exploded");
            }
            ctx.write(1, 1);
            Ok(())
        }
    }

    #[test]
    fn panicking_transaction_yields_typed_error_and_executor_survives() {
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .build();
        let storage: InMemoryStorage<u64, u64> = storage_with_keys(2);
        let block: Vec<PanickingTxn> = (0..8).map(|i| PanickingTxn { panics: i == 5 }).collect();
        let err = executor.execute_block(&block, &storage).unwrap_err();
        match &err {
            ExecutionError::WorkerPanic { workers, detail } => {
                assert!(*workers >= 1);
                assert!(
                    detail.contains("transaction logic exploded"),
                    "detail: {detail}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The executor remains fully usable afterwards.
        let healthy: Vec<PanickingTxn> = (0..8).map(|_| PanickingTxn { panics: false }).collect();
        let output = executor.execute_block(&healthy, &storage).unwrap();
        assert_eq!(output.num_txns(), 8);
    }

    /// A sink collecting committed indices + lags, used by the streaming tests.
    #[derive(Default)]
    struct CollectingSink {
        commits: Mutex<Vec<(usize, u64)>>,
        begun: Mutex<Vec<usize>>,
    }

    impl crate::hooks::CommitSink<u64, u64> for CollectingSink {
        fn begin_block(&self, block_size: usize) {
            self.begun.lock().push(block_size);
        }

        fn on_commit(&self, event: &crate::hooks::CommitEvent<'_, u64, u64>) {
            self.commits
                .lock()
                .push((event.txn_idx, event.output.gas_used));
        }
    }

    #[test]
    fn commit_sink_streams_every_txn_exactly_once_in_order() {
        let sink = Arc::new(CollectingSink::default());
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .commit_sink::<u64, u64>(sink.clone())
            .build();
        let storage = storage_with_keys(4);
        let block: Vec<_> = (0..60)
            .map(|i| SyntheticTransaction::transfer(i % 4, (i + 1) % 4, i))
            .collect();
        for round in 0..3 {
            sink.commits.lock().clear();
            let output = executor.execute_block(&block, &storage).unwrap();
            let commits = sink.commits.lock();
            let order: Vec<usize> = commits.iter().map(|(idx, _)| *idx).collect();
            assert_eq!(order, (0..60).collect::<Vec<_>>(), "round {round}");
            // The streamed outputs are the committed ones.
            for ((_, gas), committed) in commits.iter().zip(output.outputs.iter()) {
                assert_eq!(*gas, committed.gas_used, "round {round}");
            }
            assert!(!output.is_truncated());
            assert_eq!(output.metrics.committed_txns, 60, "round {round}");
        }
        assert_eq!(
            *sink.begun.lock(),
            vec![60, 60, 60],
            "begin_block per block"
        );
    }

    #[test]
    fn block_gas_limit_cuts_to_the_sequential_truncated_block() {
        let storage = storage_with_keys(4);
        let block: Vec<_> = (0..40)
            .map(|i| SyntheticTransaction::transfer(i % 4, (i + 1) % 4, i))
            .collect();
        // Find the gas schedule's deterministic per-txn cost from a sequential run,
        // then budget for roughly half the block.
        let sequential = SequentialExecutor::new(Vm::for_testing());
        let full = sequential.execute_block(&block, &storage).unwrap();
        let budget: u64 = full.outputs.iter().take(17).map(|o| o.gas_used).sum();
        let limiter = Arc::new(crate::hooks::BlockGasLimit::new(budget));
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .block_limiter::<u64, u64>(limiter.clone())
            .build();
        let output = executor.execute_block(&block, &storage).unwrap();
        let cut = output.truncated_at.expect("budget must cut the block");
        assert_eq!(cut, 17, "cut at the first over-budget transaction");
        assert_eq!(output.outputs.len(), cut);
        // The committed state equals a sequential execution of the truncated block.
        let truncated = sequential.execute_block(&block[..cut], &storage).unwrap();
        assert_eq!(output.updates, truncated.updates);
        for (p, s) in output.outputs.iter().zip(truncated.outputs.iter()) {
            assert_eq!(p.writes, s.writes);
        }
        // The executor stays fully usable (including un-truncated blocks is
        // impossible with the limiter attached, but a larger budget passes all).
        let generous = Arc::new(crate::hooks::BlockGasLimit::new(u64::MAX));
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .block_limiter::<u64, u64>(generous)
            .build();
        let output = executor.execute_block(&block, &storage).unwrap();
        assert!(!output.is_truncated());
        assert_eq!(output.updates, full.updates);
    }

    #[test]
    fn hooks_report_typed_errors_on_misuse() {
        // Hook typed for a different state model than the block.
        let sink = Arc::new(CollectingSink::default());
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .commit_sink::<u64, u64>(sink)
            .build();
        let string_storage: InMemoryStorage<u64, Tag> = InMemoryStorage::new();
        let string_block: Vec<TagTxn> = (0..4).map(|i| TagTxn { key: i % 2 }).collect();
        match executor.execute_block(&string_block, &string_storage) {
            Err(ExecutionError::HookStateModelMismatch { hook }) => {
                assert_eq!(hook, "CommitSink")
            }
            other => panic!("expected HookStateModelMismatch, got {other:?}"),
        }
        // The same mismatch on the limiter side.
        let limiter = Arc::new(crate::hooks::BlockGasLimit::new(10));
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .block_limiter::<u64, u64>(limiter)
            .build();
        match executor.execute_block(&string_block, &string_storage) {
            Err(ExecutionError::HookStateModelMismatch { hook }) => {
                assert_eq!(hook, "BlockLimiter")
            }
            other => panic!("expected HookStateModelMismatch, got {other:?}"),
        }
    }

    #[test]
    fn commit_lag_and_committed_prefix_read_metrics_are_recorded() {
        // A fully sequential chain: every transaction reads the single hot key, so
        // once the prefix commits, re-executions read it through the frozen fast
        // path. Single worker makes the lag pattern deterministic enough to assert.
        let storage = storage_with_keys(1);
        let block: Vec<_> = (0..50)
            .map(|_| SyntheticTransaction::increment(0))
            .collect();
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .build();
        let metrics = executor.execute_block(&block, &storage).unwrap().metrics;
        assert_eq!(metrics.committed_txns, 50, "the ladder committed every txn");
        assert!(
            metrics.committed_prefix_reads > 0,
            "chain re-executions must hit the frozen committed prefix"
        );
        assert!(
            metrics.commit_lag_max >= 1,
            "speculation must have run ahead of the commit point"
        );
        assert!(metrics.avg_commit_lag() >= 0.0);
    }

    #[test]
    fn hinted_execution_matches_sequential() {
        // SyntheticTransaction declares exact hints; the engine ignores them
        // and discovers the same dependencies at run time.
        let storage = storage_with_keys(8);
        let block: Vec<_> = (0..120)
            .map(|i| {
                SyntheticTransaction::transfer(i % 8, (i * 3) % 8, i)
                    .with_conditional_writes(vec![(i * 5) % 8 + 100])
            })
            .collect();
        for threads in [1, 2, 4] {
            let executor = BlockStmBuilder::new(Vm::for_testing())
                .concurrency(threads)
                .build();
            let sequential = SequentialExecutor::new(Vm::for_testing());
            let output = executor.execute_block(&block, &storage).unwrap();
            let expected = sequential.execute_block(&block, &storage).unwrap();
            assert_eq!(output.updates, expected.updates, "threads={threads}");
        }
    }

    #[test]
    fn wrong_advisory_hints_only_cost_performance() {
        use block_stm_vm::{AccessHints, HintedTransaction};
        // Advisory hints pointing at entirely wrong keys: the engine never
        // reads them, so the committed state still matches sequential.
        let storage = storage_with_keys(4);
        let block: Vec<_> = (0..40)
            .map(|i| {
                HintedTransaction::new(
                    SyntheticTransaction::transfer(i % 4, (i + 1) % 4, i),
                    Some(AccessHints::advisory(
                        vec![100 + (i % 3)],
                        vec![200 + (i % 5)],
                    )),
                )
            })
            .collect();
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .build();
        let sequential = SequentialExecutor::new(Vm::for_testing());
        let output = executor.execute_block(&block, &storage).unwrap();
        let expected = sequential.execute_block(&block, &storage).unwrap();
        assert_eq!(output.updates, expected.updates);
    }

    #[test]
    fn abort_threshold_halts_the_block_with_a_typed_error() {
        // The latch block fails exactly one validation at two workers, which
        // trips the zero-abort budget.
        let storage = storage_with_keys(2);
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .abort_fallback_threshold(0)
            .build();
        match executor.execute_block(&crate::testing::latch_block(), &storage) {
            Err(ExecutionError::AbortThresholdExceeded { aborts }) => assert!(aborts >= 1),
            other => panic!("expected AbortThresholdExceeded, got {other:?}"),
        }
        // The executor survives; an uncontended block sails through.
        let calm: Vec<_> = (0..4).map(|i| SyntheticTransaction::put(i, i)).collect();
        let output = executor.execute_block(&calm, &storage).unwrap();
        assert_eq!(output.num_txns(), 4);
    }

    #[test]
    fn trait_object_dispatch_works() {
        let executor: Box<dyn BlockExecutor<SyntheticTransaction, InMemoryStorage<u64, u64>>> =
            Box::new(
                BlockStmBuilder::new(Vm::for_testing())
                    .concurrency(2)
                    .build(),
            );
        assert_eq!(executor.name(), "block-stm");
        assert!(executor.preserves_preset_order());
        let storage = storage_with_keys(2);
        let block = vec![SyntheticTransaction::increment(0)];
        let output = executor.execute_block(&block, &storage).unwrap();
        assert_eq!(output.num_txns(), 1);
    }
}
