//! Cross-block pipelining: [`BlockStm::execute_chain`] executes a *chain* of
//! blocks, not one block at a time.
//!
//! [`BlockStm::execute_block`] ends every block with a barrier: the pool
//! drains, the caller harvests, the next block starts cold. At realistic block
//! sizes that bubble — the tail of block `N` running on one or two workers
//! while everyone else idles, followed by a full pool round-trip — is a
//! measurable fraction of the block time. A chain call removes it by keeping
//! **two blocks in flight** on one persistent pool dispatch:
//!
//! - Block `N` runs normally and commits through the rolling ladder; every
//!   committed write (plain and resolved delta) is published, in commit order,
//!   into a shared [`FrontierOverlay`] — the **cross-block frontier**.
//! - Block `N+1` starts speculating immediately, with its scheduler's **commit
//!   gate closed**: its base reads fall through to the frontier (recorded as
//!   stamped `Frontier` descriptors) and then to storage, so it executes
//!   against block `N`'s committed prefix *as it grows*.
//! - When block `N` fully commits, the advancing worker harvests its output,
//!   starts a full revalidation sweep on block `N+1` (so every commit there is
//!   backed by a validation that re-checked its frontier stamps against the
//!   now-frozen overlay) and only then opens `N+1`'s gate. See the
//!   `block-stm-scheduler` crate docs for the chain-serializability argument.
//!
//! Slots alternate: while blocks `N` and `N+1` occupy the two engine arenas,
//! the arena of block `N-1` is reset in place for block `N+2`, so a chain of
//! any length reuses exactly two blocks' worth of allocations. The same two-slot
//! arena backs [`BlockStm::execute_block`], which runs its block in slot 0.
//!
//! # Incremental feeds
//!
//! The chain does not require the whole stream up front. Next to
//! [`execute_chain`](BlockStm::execute_chain) (a pre-materialized slice),
//! [`execute_stream`](BlockStm::execute_stream) pulls blocks from a
//! [`BlockSource`] *while the chain runs*: idle workers poll the source, and a
//! block that arrives after the previous head already finished is prepared
//! directly as the new open head (the frontier is frozen at that point, so the
//! fresh block needs no revalidation sweep — the same argument that lets block
//! 0 start with its gate open). This is what a long-lived node needs: blocks
//! are formed from a mempool as traffic arrives, and the stream ends only when
//! the source reports [`BlockFeed::End`].
//!
//! A dynamic stream holds at most `FETCH_AHEAD` blocks: the two slots' and
//! one fetched ahead. A block's handle is released when its slot is re-armed
//! for a later block, and the source is not polled while the stream is full,
//! so a long-lived node's memory does not grow with its input history.
//!
//! # At one worker
//!
//! With one configured worker nothing can overlap, so neither entry point
//! builds the arena, the frontier or the fetch buffer: each block runs through
//! the sequential loop (see `block_stm.rs`), reading in-block writes, then the
//! committed writes of the stream's earlier blocks from a plain overlay, then
//! storage. The hooks fire per block in stream order exactly as above.
//! `execute_stream` pulls straight from the source, executes each block as it
//! arrives and drops it; an empty poll backs off (spin, then yield) and is
//! counted in `chain_idle_ns`, like a chain worker's. `chain_blocks` still
//! counts every block; `chain_sweeps`, `chain_runahead_*`, `frontier_reads`
//! and `chain_cross_block_aborts` read 0.

use crate::block_stm::{BlockStm, EngineState, Worker};
use crate::config::ExecutorOptions;
use crate::errors::{ExecutionError, PanicCollector};
use crate::hooks::{ErasedBlockLimiter, ErasedCommitSink};
use crate::output::BlockOutput;
use crate::sequential::execute_in_order;
use block_stm_metrics::{ExecutionMetrics, MetricsSnapshot};
use block_stm_mvmemory::{FrontierOverlay, LocationCache};
use block_stm_storage::Storage;
use block_stm_sync::Backoff;
use block_stm_vm::{AggregatorValue, Transaction, Vm};
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Task-loop iterations a worker spends on one block before re-reading the
/// chain's control state. Large enough to amortize the slot lock and the
/// per-stint location cache, small enough that slot recycling (which must wait
/// out every in-flight stint on the old block) never stalls noticeably.
const STINT_BUDGET: usize = 512;

/// Blocks pulled from a [`BlockSource`] in one poll, bounding the time a worker
/// spends holding the fetch lock while its peers execute.
const MAX_PULLS_PER_POLL: usize = 16;

/// One pull from a [`BlockSource`].
#[derive(Debug)]
pub enum BlockFeed<T> {
    /// The next block of the stream, in stream order.
    Ready(Vec<T>),
    /// No block is available *yet* — the chain keeps executing what it has and
    /// polls again.
    Pending,
    /// The stream is complete; once every fetched block commits, the chain
    /// call returns.
    End,
}

/// An incremental feed of blocks for [`BlockStm::execute_stream`].
///
/// `next_block` is called by chain workers (serialized — never concurrently)
/// whenever they have pipeline capacity, so an implementation is free to *form*
/// the block on demand, e.g. by cutting a mempool. Returning
/// [`BlockFeed::Pending`] must not block: the chain turns it into bounded
/// idle backoff and polls again.
pub trait BlockSource<T>: Send + Sync {
    /// Pulls the next block, if one is available.
    fn next_block(&self) -> BlockFeed<T>;
}

impl<T, F> BlockSource<T> for F
where
    F: Fn() -> BlockFeed<T> + Send + Sync,
{
    fn next_block(&self) -> BlockFeed<T> {
        self()
    }
}

/// The committed result of a whole chain.
#[derive(Debug, Clone)]
pub struct ChainOutput<K, V> {
    /// Per-block outputs, in stream order — each byte-for-byte what a
    /// barrier-per-block execution of the same stream would have produced
    /// (including `truncated_at` for blocks cut by a
    /// [`BlockLimiter`](crate::BlockLimiter)).
    pub blocks: Vec<BlockOutput<K, V>>,
    /// The chain's net committed state updates, sorted by key: for every key
    /// any block wrote, the last committed value in the stream.
    pub updates: Vec<(K, V)>,
    /// Merged engine metrics: the element-wise sum of every block's snapshot
    /// plus the chain-level counters (`chain_blocks`, `chain_runahead_*`,
    /// `frontier_reads`, `chain_cross_block_aborts`, `chain_sweeps`,
    /// `chain_idle_ns`).
    pub metrics: MetricsSnapshot,
}

impl<K, V> ChainOutput<K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Number of blocks executed.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total committed transactions across the chain (excludes transactions
    /// past a limiter cut).
    pub fn total_txns(&self) -> usize {
        self.blocks.iter().map(BlockOutput::num_txns).sum()
    }
}

/// One of the two alternating engine arenas. `generation` is the chain index of
/// the block the arena currently belongs to; a worker that locks a slot checks
/// the generation before touching the state, so a recycled slot is never
/// mistaken for the block it used to hold.
pub(crate) struct ChainSlot<K, V> {
    generation: usize,
    pub(crate) state: EngineState<K, V>,
}

/// The executor's reusable arena: two engine-state slots plus the chain-level
/// metrics recorder. Type-erased behind the executor's state mutex and reused
/// call after call; a single block borrows slot 0.
pub(crate) struct ChainArena<K, V> {
    pub(crate) slots: [RwLock<ChainSlot<K, V>>; 2],
    chain_metrics: ExecutionMetrics,
}

impl<K, V> ChainArena<K, V>
where
    K: Eq + Hash + Ord + Clone + Debug + Send + Sync + 'static,
    V: Clone + PartialEq + Debug + Send + Sync + AggregatorValue + 'static,
{
    fn new() -> Self {
        Self {
            slots: [
                RwLock::new(ChainSlot {
                    generation: usize::MAX,
                    state: EngineState::new(0),
                }),
                RwLock::new(ChainSlot {
                    generation: usize::MAX,
                    state: EngineState::new(0),
                }),
            ],
            chain_metrics: ExecutionMetrics::new(),
        }
    }

    /// Fetches the arena for this `(K, V)` pair out of the type-erased slot —
    /// or builds a fresh one on first use / state-model change.
    pub(crate) fn prepare(slot: &mut Option<Box<dyn Any + Send>>) -> &mut Self {
        let reusable = matches!(slot, Some(state) if state.is::<Self>());
        if !reusable {
            *slot = Some(Box::new(Self::new()));
        }
        slot.as_mut()
            .and_then(|state| state.downcast_mut::<Self>())
            .expect("slot was just populated with a ChainArena of this type")
    }
}

/// Progress of one position in the (possibly still-arriving) block stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockStatus {
    /// The block is available; payload is its transaction count.
    Ready(usize),
    /// The source has not produced this block yet.
    Pending,
    /// The stream ended before this position.
    Ended,
}

/// A borrowed view of one block, valid for the duration of a stint.
enum BlockRef<'a, T> {
    Slice(&'a [T]),
    Shared(Arc<Vec<T>>),
}

impl<T> std::ops::Deref for BlockRef<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            BlockRef::Slice(block) => block,
            BlockRef::Shared(block) => block,
        }
    }
}

/// Blocks a dynamic stream holds at most: the two slots' blocks plus one
/// fetched ahead, so a handoff can re-arm the freed slot at once. The source
/// is not polled past this; undelivered work stays with the source.
const FETCH_AHEAD: usize = 3;

/// The fetched, not yet released blocks of a dynamic stream.
struct Fetched<T> {
    /// Blocks released so far: `blocks[0]` is stream block `released`.
    released: usize,
    blocks: VecDeque<Arc<Vec<T>>>,
}

impl<T> Fetched<T> {
    /// Blocks fetched so far, released ones included.
    fn len(&self) -> usize {
        self.released + self.blocks.len()
    }

    /// Stream block `index`, which must be fetched and not yet released.
    fn get(&self, index: usize) -> &Arc<Vec<T>> {
        index
            .checked_sub(self.released)
            .and_then(|offset| self.blocks.get(offset))
            .expect("only fetched, unreleased blocks are looked up")
    }
}

/// The dynamic half of [`BlockStream`]: blocks pulled from a source so far.
struct DynamicStore<'a, T> {
    source: &'a dyn BlockSource<T>,
    /// Fetched blocks, in stream order. A block is released once its slot is
    /// re-armed for a later block — the slot's write lock has then waited
    /// out every stint on it, and those held their own clone — and the
    /// source is polled only while fewer than [`FETCH_AHEAD`] are held.
    fetched: RwLock<Fetched<T>>,
    /// Serializes pulls from the source; the flag records that the source
    /// reported [`BlockFeed::End`]. Only ever `try_lock`ed.
    ended: Mutex<bool>,
}

/// The chain's view of its input: either a pre-materialized slice
/// ([`BlockStm::execute_chain`]) or an incrementally fetched stream
/// ([`BlockStm::execute_stream`]). All methods are lock-light and safe to
/// call from any worker.
enum BlockStore<'a, T> {
    Slice(&'a [Vec<T>]),
    Dynamic(DynamicStore<'a, T>),
}

struct BlockStream<'a, T> {
    store: BlockStore<'a, T>,
    /// Total number of blocks in the stream; `usize::MAX` until the end is
    /// known. Workers exit once the head reaches this.
    total: AtomicUsize,
}

impl<'a, T> BlockStream<'a, T> {
    fn from_slice(blocks: &'a [Vec<T>]) -> Self {
        Self {
            store: BlockStore::Slice(blocks),
            total: AtomicUsize::new(blocks.len()),
        }
    }

    fn from_source(source: &'a dyn BlockSource<T>) -> Self {
        Self {
            store: BlockStore::Dynamic(DynamicStore {
                source,
                fetched: RwLock::new(Fetched {
                    released: 0,
                    blocks: VecDeque::new(),
                }),
                ended: Mutex::new(false),
            }),
            total: AtomicUsize::new(usize::MAX),
        }
    }

    fn total(&self) -> usize {
        self.total.load(Ordering::SeqCst)
    }

    fn status(&self, index: usize) -> BlockStatus {
        match &self.store {
            BlockStore::Slice(blocks) => {
                if index < blocks.len() {
                    BlockStatus::Ready(blocks[index].len())
                } else {
                    BlockStatus::Ended
                }
            }
            BlockStore::Dynamic(store) => {
                let fetched = store.fetched.read();
                if index < fetched.len() {
                    BlockStatus::Ready(fetched.get(index).len())
                } else if self.total() != usize::MAX {
                    BlockStatus::Ended
                } else {
                    BlockStatus::Pending
                }
            }
        }
    }

    /// The block at `index`, which must already be fetched (callers only ask
    /// for blocks whose slot they observed prepared).
    fn block(&self, index: usize) -> BlockRef<'a, T> {
        match &self.store {
            BlockStore::Slice(blocks) => BlockRef::Slice(&blocks[index]),
            BlockStore::Dynamic(store) => BlockRef::Shared(store.fetched.read().get(index).clone()),
        }
    }

    /// Drops the stream's handle on block `index`, the oldest unreleased one.
    fn release(&self, index: usize) {
        if let BlockStore::Dynamic(store) = &self.store {
            let mut fetched = store.fetched.write();
            debug_assert_eq!(index, fetched.released, "blocks are released in order");
            fetched.blocks.pop_front();
            fetched.released += 1;
        }
    }

    /// Pulls newly available blocks from the source, bounded per call and to
    /// [`FETCH_AHEAD`] unreleased blocks. Returns whether anything changed (a
    /// block arrived or the end was discovered). A lost `try_lock` race
    /// returns `false` — some other worker is pulling.
    fn poll(&self) -> bool {
        let BlockStore::Dynamic(store) = &self.store else {
            return false;
        };
        let Some(mut ended) = store.ended.try_lock() else {
            return false;
        };
        if *ended {
            return false;
        }
        let mut progressed = false;
        for _ in 0..MAX_PULLS_PER_POLL {
            if store.fetched.read().blocks.len() >= FETCH_AHEAD {
                break;
            }
            match store.source.next_block() {
                BlockFeed::Ready(block) => {
                    store.fetched.write().blocks.push_back(Arc::new(block));
                    progressed = true;
                }
                BlockFeed::Pending => break,
                BlockFeed::End => {
                    *ended = true;
                    self.total
                        .store(store.fetched.read().len(), Ordering::SeqCst);
                    progressed = true;
                    break;
                }
            }
        }
        progressed
    }
}

/// Handoff bookkeeping, all guarded by the advance mutex. `advanced` blocks are
/// fully harvested; `prepared` is the stream prefix whose slots are
/// initialized; `announced` is the stream prefix the sinks/limiter have seen a
/// `begin_block` for. A run-ahead block can be prepared but not announced;
/// the head is always announced exactly when it is prepared.
struct AdvanceState {
    advanced: usize,
    prepared: usize,
    announced: usize,
}

/// Per-call shared control state of the chain workers.
struct ChainControl<K, V> {
    /// Index of the oldest un-harvested block — the chain's head. Workers stint
    /// on `active_block` first and opportunistically on `active_block + 1`.
    active_block: AtomicUsize,
    /// Raised on the first failure (panic, hook mismatch, engine invariant);
    /// every worker exits its loop promptly once set.
    failed: AtomicBool,
    /// The first typed failure observed.
    failure: Mutex<Option<ExecutionError>>,
    /// Serializes block handoffs and slot preparation (every slot *writer*
    /// lives under this mutex). Only `try_lock` is ever used — a worker holding
    /// a slot read guard must never block here (the recycling write lock waits
    /// on those readers).
    advance: Mutex<AdvanceState>,
    /// Frontier publication count already covered by an intermediate
    /// revalidation sweep of the successor block (throttles sweeps to one per
    /// publication batch across all workers).
    swept_publications: AtomicU64,
    /// Harvested per-block outputs, filled in stream order by the advancing
    /// worker.
    results: Mutex<Vec<Option<BlockOutput<K, V>>>>,
}

impl<K, V> ChainControl<K, V> {
    fn fail(&self, error: ExecutionError) {
        let mut failure = self.failure.lock();
        if failure.is_none() {
            *failure = Some(error);
        }
        self.failed.store(true, Ordering::SeqCst);
    }
}

/// Chained execution: one persistent pool dispatch executes a whole stream of
/// blocks back-to-back, with each block speculating against its predecessor's
/// committed prefix through the cross-block frontier. Attached
/// [`CommitSink`](crate::CommitSink)s and the
/// [`BlockLimiter`](crate::BlockLimiter) see blocks strictly in stream order.
impl BlockStm {
    /// Executes the stream of `blocks` against the pre-chain `storage`,
    /// pipelining adjacent blocks through the cross-block frontier.
    ///
    /// Returns per-block outputs identical to executing the blocks one at a
    /// time with a barrier between them (each block applied to storage before
    /// the next), plus the chain's net state updates and merged metrics. The
    /// committed stream equals a sequential execution of the concatenated
    /// blocks in preset order — see the scheduler crate docs for the argument.
    pub fn execute_chain<T, S>(
        &self,
        blocks: &[Vec<T>],
        storage: &S,
    ) -> Result<ChainOutput<T::Key, T::Value>, ExecutionError>
    where
        T: Transaction,
        S: Storage<T::Key, T::Value>,
    {
        if blocks.is_empty() {
            return Ok(ChainOutput {
                blocks: Vec::new(),
                updates: Vec::new(),
                metrics: MetricsSnapshot::default(),
            });
        }
        if !self.speculative {
            return self.run_sequentially(|| {
                let mut chain = SequentialChain::new(self, storage);
                for block in blocks {
                    chain.execute(block)?;
                }
                Ok(chain.finish(0))
            });
        }
        self.run_chain(BlockStream::from_slice(blocks), storage)
    }

    /// Executes an *incrementally fed* stream of blocks: blocks are pulled from
    /// `source` while the chain runs, so block formation (e.g. cutting a
    /// mempool) overlaps with execution. Everything else matches
    /// [`execute_chain`](Self::execute_chain): per-block outputs equal a
    /// barrier-per-block execution of the same stream, sinks and the limiter
    /// see blocks strictly in stream order, and the call returns once the
    /// source reports [`BlockFeed::End`] and every fetched block has
    /// committed. A source that never ends makes this a service loop that
    /// only returns on failure.
    pub fn execute_stream<T, S>(
        &self,
        source: &dyn BlockSource<T>,
        storage: &S,
    ) -> Result<ChainOutput<T::Key, T::Value>, ExecutionError>
    where
        T: Transaction,
        S: Storage<T::Key, T::Value>,
    {
        if !self.speculative {
            return self.run_sequentially(|| {
                // Pull, execute, drop: nothing but the committed overlay
                // outlives a block. Idle polls back off exactly like the
                // chain workers' (spin, then yield), and are timed the same.
                let mut chain = SequentialChain::new(self, storage);
                let mut backoff = Backoff::new();
                let mut idle_ns = 0u64;
                loop {
                    match source.next_block() {
                        BlockFeed::Ready(block) => {
                            chain.execute(&block)?;
                            backoff.reset();
                        }
                        BlockFeed::Pending => {
                            let idle_start = Instant::now();
                            backoff.snooze();
                            idle_ns += idle_start.elapsed().as_nanos() as u64;
                        }
                        BlockFeed::End => return Ok(chain.finish(idle_ns)),
                    }
                }
            });
        }
        self.run_chain(BlockStream::from_source(source), storage)
    }

    fn run_chain<T, S>(
        &self,
        stream: BlockStream<'_, T>,
        storage: &S,
    ) -> Result<ChainOutput<T::Key, T::Value>, ExecutionError>
    where
        T: Transaction,
        S: Storage<T::Key, T::Value>,
    {
        let mut guard = self.state.lock();
        let arena = ChainArena::<T::Key, T::Value>::prepare(&mut guard);
        arena.chain_metrics.reset();
        // Invalidate slot generations left over from a previous chain so a
        // stream whose first blocks arrive late can never alias them.
        for slot in &mut arena.slots {
            slot.get_mut().generation = usize::MAX;
        }
        let sinks = self.sinks.as_slice();
        let limiter = self.limiter.as_deref();

        let frontier = FrontierOverlay::<T::Key, T::Value>::new();
        let control = ChainControl::<T::Key, T::Value> {
            active_block: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            failure: Mutex::new(None),
            advance: Mutex::new(AdvanceState {
                advanced: 0,
                prepared: 0,
                announced: 0,
            }),
            swept_publications: AtomicU64::new(0),
            results: Mutex::new(Vec::new()),
        };
        let panics = PanicCollector::new();
        let arena = &*arena;
        let stream = &stream;
        let shared = ChainShared {
            vm: &self.vm,
            options: &self.options,
            stream,
            storage,
            sinks,
            limiter,
            frontier: &frontier,
            arena,
            control: &control,
        };
        // Pull whatever the source already has and prepare the initial slots
        // (head gate open, run-ahead gated) before dispatching, so a
        // pre-materialized chain starts exactly as it always did. A dynamic
        // source may well have nothing yet — workers then poll it.
        {
            stream.poll();
            let mut st = control.advance.lock();
            shared.settle(&mut st);
        }
        if stream.total() == 0 {
            return Ok(ChainOutput {
                blocks: Vec::new(),
                updates: Vec::new(),
                metrics: MetricsSnapshot::default(),
            });
        }

        let job = |_worker_index: usize| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| shared.worker_loop())) {
                // Contain the panic exactly like the single-block engine:
                // record it, raise the failure flag (workers poll it every
                // stint) and halt whatever schedulers are reachable without
                // blocking.
                control.failed.store(true, Ordering::SeqCst);
                for slot in &arena.slots {
                    if let Some(slot) = slot.try_read() {
                        slot.state.scheduler.halt();
                    }
                }
                panics.record(&*payload);
            }
        };
        let participants = self.options.effective_concurrency();
        let pool_outcome = self.pool.run(participants, &job);
        if let Err(job_panics) = pool_outcome {
            panics.record_anonymous(job_panics.panicked);
        }
        if let Some(error) = panics.into_error() {
            return Err(error);
        }
        if let Some(error) = control.failure.lock().take() {
            return Err(error);
        }

        let total = stream.total();
        let mut results = control.results.into_inner();
        if total == usize::MAX || results.len() != total {
            return Err(ExecutionError::Internal {
                detail: format!(
                    "chain finished with {} of {} blocks harvested",
                    results.len(),
                    if total == usize::MAX { 0 } else { total }
                ),
            });
        }
        let mut outputs = Vec::with_capacity(total);
        for (index, result) in results.iter_mut().enumerate() {
            match result.take() {
                Some(output) => outputs.push(output),
                None => {
                    return Err(ExecutionError::Internal {
                        detail: format!("chain finished without harvesting block {index}"),
                    })
                }
            }
        }
        let mut metrics = outputs
            .iter()
            .fold(MetricsSnapshot::default(), |acc, output| {
                acc.merge(&output.metrics)
            });
        metrics = metrics.merge(&arena.chain_metrics.snapshot());
        Ok(ChainOutput {
            blocks: outputs,
            updates: frontier.into_sorted_updates(),
            metrics,
        })
    }
}

/// A chain on the sequential engine: each block runs through the in-order
/// loop, reading the committed writes of earlier blocks from a plain overlay,
/// so no arena, scheduler or frontier is ever built.
struct SequentialChain<'a, K, V, S> {
    executor: &'a BlockStm,
    storage: &'a S,
    /// Last committed write per key over the blocks executed so far.
    overlay: HashMap<K, V>,
    blocks: Vec<BlockOutput<K, V>>,
    chain_metrics: ExecutionMetrics,
}

impl<'a, K, V, S> SequentialChain<'a, K, V, S>
where
    K: Eq + Hash + Ord + Clone + Debug + Send + Sync + 'static,
    V: Clone + PartialEq + Debug + Send + Sync + AggregatorValue + 'static,
    S: Storage<K, V>,
{
    fn new(executor: &'a BlockStm, storage: &'a S) -> Self {
        Self {
            executor,
            storage,
            overlay: HashMap::new(),
            blocks: Vec::new(),
            chain_metrics: ExecutionMetrics::new(),
        }
    }

    fn execute<T>(&mut self, block: &[T]) -> Result<(), ExecutionError>
    where
        T: Transaction<Key = K, Value = V>,
    {
        let output = execute_in_order(
            &self.executor.vm,
            block,
            self.storage,
            Some(&self.overlay),
            &self.executor.sinks,
            self.executor.limiter.as_deref(),
        )?;
        self.overlay.extend(output.updates.iter().cloned());
        // Nothing runs ahead of a sequential block.
        self.chain_metrics.record_chain_block(0);
        self.blocks.push(output);
        Ok(())
    }

    fn finish(self, idle_ns: u64) -> ChainOutput<K, V> {
        self.chain_metrics.record_chain_idle_ns(idle_ns);
        let metrics = self
            .blocks
            .iter()
            .fold(self.chain_metrics.snapshot(), |acc, output| {
                acc.merge(&output.metrics)
            });
        let mut updates: Vec<(K, V)> = self.overlay.into_iter().collect();
        updates.sort_by(|a, b| a.0.cmp(&b.0));
        ChainOutput {
            blocks: self.blocks,
            updates,
            metrics,
        }
    }
}

/// Everything a chain worker borrows for the duration of one chain call.
/// Shared by reference into the pool job.
struct ChainShared<'a, T: Transaction, S> {
    vm: &'a Vm,
    options: &'a ExecutorOptions,
    stream: &'a BlockStream<'a, T>,
    storage: &'a S,
    sinks: &'a [Arc<dyn ErasedCommitSink>],
    limiter: Option<&'a dyn ErasedBlockLimiter>,
    frontier: &'a FrontierOverlay<T::Key, T::Value>,
    arena: &'a ChainArena<T::Key, T::Value>,
    control: &'a ChainControl<T::Key, T::Value>,
}

impl<T, S> ChainShared<'_, T, S>
where
    T: Transaction,
    S: Storage<T::Key, T::Value>,
{
    /// Builds the per-stint worker context over a slot's engine state.
    fn worker_over<'s>(
        &'s self,
        state: &'s EngineState<T::Key, T::Value>,
        block: &'s [T],
    ) -> Worker<'s, T, S> {
        Worker {
            vm: self.vm,
            options: self.options,
            block,
            storage: self.storage,
            mvmemory: &state.mvmemory,
            scheduler: &state.scheduler,
            metrics: &state.metrics,
            outputs: &state.outputs,
            commit_drain: &state.commit_drain,
            sinks: self.sinks,
            limiter: self.limiter,
            frontier: Some(self.frontier),
            abort_count: &state.abort_count,
        }
    }

    /// Runs one bounded stint on block `index`, held in `state`. Its location
    /// cache is scoped to the stint: it holds handles into this slot's
    /// multi-version cells, which must all be dropped before the slot can be
    /// reset for a later block of the chain. Returns `(done, progressed)`.
    fn stint(&self, state: &EngineState<T::Key, T::Value>, index: usize) -> (bool, bool) {
        let block = self.stream.block(index);
        let worker = self.worker_over(state, &block);
        let cache = RefCell::new(LocationCache::new());
        let outcome = worker.run_stint(STINT_BUDGET, &self.control.failed, &cache);
        worker.record_location_cache(cache);
        outcome
    }

    /// Re-arms the slot of stream block `index` for it (gated unless
    /// `gate_open`) and releases the block the slot held before: the write
    /// lock has waited out every stint on it. Callers hold the advance mutex.
    fn prepare_slot(&self, index: usize, len: usize, gate_open: bool) {
        let mut slot = self.arena.slots[index % 2].write();
        let previous = std::mem::replace(&mut slot.generation, index);
        slot.state.reset(len);
        slot.state.metrics.record_block(len);
        slot.state.scheduler.set_commit_gate(gate_open);
        drop(slot);
        if previous != usize::MAX {
            self.stream.release(previous);
        }
    }

    /// Calls `begin_block` on every sink and the limiter — the stream-order
    /// announcement that hooks key their per-block state off.
    fn announce(&self, block_size: usize) {
        for sink in self.sinks {
            sink.begin_block(block_size);
        }
        if let Some(limiter) = self.limiter {
            limiter.begin_block(block_size);
        }
    }

    /// Prepares whatever slots newly fetched blocks allow, under the advance
    /// mutex. Covers the two situations `try_advance` cannot: the initial
    /// prepare of blocks 0/1, and a head that arrived *after* its predecessor
    /// was already harvested (the stream ran dry). In the latter case the
    /// frontier is frozen — every older block has committed and published — so
    /// the fresh head starts with its gate open and needs no revalidation
    /// sweep, exactly like block 0. Returns whether any slot was prepared.
    fn settle(&self, st: &mut AdvanceState) -> bool {
        if self.control.failed.load(Ordering::SeqCst) {
            return false;
        }
        let mut progressed = false;
        if st.prepared == st.advanced {
            // No block in flight: prepare the head, announced and gate-open.
            if let BlockStatus::Ready(len) = self.stream.status(st.advanced) {
                debug_assert_eq!(st.announced, st.advanced, "head announced before prepared");
                self.announce(len);
                st.announced = st.advanced + 1;
                self.prepare_slot(st.advanced, len, true);
                st.prepared = st.advanced + 1;
                progressed = true;
            }
        }
        if st.prepared == st.advanced + 1 {
            // Head in flight, run-ahead slot free: prepare the successor gated.
            if let BlockStatus::Ready(len) = self.stream.status(st.prepared) {
                self.prepare_slot(st.prepared, len, false);
                st.prepared += 1;
                progressed = true;
            }
        }
        progressed
    }

    /// Feeds the stream: pulls newly available blocks from the source and
    /// prepares slots for them. Called by workers with nothing to execute.
    fn poll_stream(&self) -> bool {
        let mut progressed = self.stream.poll();
        if let Some(mut st) = self.control.advance.try_lock() {
            progressed |= self.settle(&mut st);
        }
        progressed
    }

    /// One worker's chain main loop: stint on the head block, opportunistically
    /// on its successor, advance the chain when the head completes, poll the
    /// block source when idle, back off when nothing moves. Exits when the
    /// chain is fully advanced or failed.
    fn worker_loop(&self) {
        let control = self.control;
        let mut backoff = Backoff::new();
        let mut idle_ns = 0u64;
        loop {
            if control.failed.load(Ordering::SeqCst) {
                break;
            }
            let head = control.active_block.load(Ordering::SeqCst);
            if head >= self.stream.total() {
                break;
            }
            let mut progressed = false;
            let mut head_done = false;
            if let Some(slot) = self.arena.slots[head % 2].try_read() {
                if slot.generation == head {
                    let publications_before = self.frontier.publications();
                    let (done, stint_progressed) = self.stint(&slot.state, head);
                    head_done = done;
                    progressed |= stint_progressed;
                    if self.frontier.publications() > publications_before {
                        self.sweep_successor(head);
                    }
                }
            }
            // The stint guard must be dropped before advancing: the advance
            // recycles this very slot with a write lock once the handoff is
            // done. (`try_read` guards drop at the end of the `if let` above.)
            if head_done {
                // Only a performed handoff counts as progress: a worker that
                // loses the advance race (a peer holds the mutex, or the chain
                // already moved on) must not claim it — treating the lost race
                // as progress hot-spins the loser and starves the advancing
                // worker on small hosts. Instead it falls through to the
                // successor stint below and turns the wait into run-ahead.
                progressed |= self.try_advance(head);
            }
            if !progressed {
                // No work on the head: speculate on the gated successor.
                if let Some(slot) = self.arena.slots[(head + 1) % 2].try_read() {
                    if slot.generation == head + 1 {
                        let (_, stint_progressed) = self.stint(&slot.state, head + 1);
                        progressed |= stint_progressed;
                    }
                }
            }
            if !progressed {
                // Still nothing: see whether the source has new blocks for the
                // free slot (or the head itself, if the stream had run dry).
                progressed |= self.poll_stream();
            }
            if progressed {
                backoff.reset();
            } else {
                // Nothing to do on either in-flight block right now. This is
                // the pipelined replacement for the park/unpark bubble of
                // barrier-per-block execution — measure it.
                let idle_start = Instant::now();
                backoff.snooze();
                idle_ns += idle_start.elapsed().as_nanos() as u64;
            }
        }
        self.arena.chain_metrics.record_chain_idle_ns(idle_ns);
    }

    /// Starts an intermediate full-revalidation sweep on the gated successor of
    /// `head` after new frontier publications, throttled to one sweep per
    /// publication batch chain-wide. Purely a performance lever: it invalidates
    /// stale run-ahead speculation early. Safety never depends on these sweeps —
    /// only on the mandatory pre-gate-open sweep in [`try_advance`](Self::try_advance).
    fn sweep_successor(&self, head: usize) {
        if let Some(slot) = self.arena.slots[(head + 1) % 2].try_read() {
            if slot.generation != head + 1
                || slot.state.scheduler.commit_gate_open()
                || slot.state.scheduler.execution_cursor() == 0
            {
                // Nothing speculated yet (or the slot already moved on): leave
                // the publication batch unconsumed so the first stint that does
                // run ahead gets swept against it.
                return;
            }
            let publications = self.frontier.publications();
            let seen = self.control.swept_publications.load(Ordering::SeqCst);
            if publications <= seen
                || self
                    .control
                    .swept_publications
                    .compare_exchange(seen, publications, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
            {
                return;
            }
            slot.state.scheduler.trigger_full_revalidation();
            self.arena.chain_metrics.record_chain_sweep();
        }
    }

    /// Advances the chain past completed block `head`: harvest its output,
    /// open the successor's gate (after the mandatory revalidation sweep) and
    /// recycle the freed slot for block `head + 2`. Exactly one worker performs
    /// a given handoff; the others return immediately and re-read
    /// `active_block`. Returns whether **this** call changed chain state — a
    /// lost `try_lock` race or an already-advanced chain is *not* progress for
    /// the caller, and must feed its backoff.
    ///
    /// Locking protocol: the advance mutex is only ever `try_lock`ed, and the
    /// caller holds **no** slot guard. Inside, the only blocking acquisitions
    /// are slot read locks (writers exist solely under this same mutex) and the
    /// recycling write lock, which waits out bounded stints only.
    fn try_advance(&self, head: usize) -> bool {
        let control = self.control;
        let Some(mut st) = control.advance.try_lock() else {
            return false;
        };
        if st.advanced != head || control.failed.load(Ordering::SeqCst) {
            return false;
        }
        let block = self.stream.block(head);
        let block_size = block.len();

        // Phase 1: final drain + harvest of the completed head block.
        {
            let slot = self.arena.slots[head % 2].read();
            debug_assert_eq!(slot.generation, head, "advance raced a recycle");
            let state = &slot.state;
            let worker = self.worker_over(state, &block);
            worker.drain_commits(true);
            let (cut, failure, block_updates) = {
                let mut drain = state.commit_drain.lock();
                (
                    drain.cut,
                    drain.failure.take(),
                    std::mem::take(&mut drain.block_updates),
                )
            };
            if let Some(failure) = failure {
                control.fail(failure);
                return true;
            }
            let included = cut.unwrap_or(block_size);
            if cut.is_none() && state.scheduler.committed_prefix() != block_size {
                // Only reachable when the chain is failing concurrently: a
                // worker panic halted this scheduler mid-block after setting
                // the failure flag (done-without-full-commit has no other
                // cause). Bail; the caller reports the recorded panic.
                return true;
            }
            // The block's state updates were harvested incrementally by the
            // commit drain (last committed write per key, in commit order —
            // exactly what a post-hoc snapshot would resolve). Avoiding the
            // snapshot matters here: the slot's location interner accumulates
            // the whole *stream's* key universe, so `snapshot_prefix_with_base`
            // would scan O(stream keys) per block instead of O(block writes).
            let updates: Vec<_> = block_updates.into_iter().collect();
            let mut outputs = Vec::with_capacity(included);
            for (txn_idx, output_slot) in state.outputs.iter().enumerate().take(included) {
                match output_slot.lock().take() {
                    Some(output) => outputs.push(output),
                    None => {
                        control.fail(ExecutionError::MissingOutput { txn_idx });
                        return true;
                    }
                }
            }
            let output =
                BlockOutput::new(updates, outputs, state.metrics.snapshot()).with_truncation(cut);
            let mut results = control.results.lock();
            if results.len() <= head {
                results.resize_with(head + 1, || None);
            }
            results[head] = Some(output);
        }
        // Phase 3 may release this block; the stream's handle is the last.
        drop(block);

        // Phase 2: hand the commit stream to the successor, in stream order —
        // hooks learn about block `head + 1` before its first commit can be
        // drained, and the gate opens only after the mandatory sweep.
        st.advanced = head + 1;
        match self.stream.status(head + 1) {
            BlockStatus::Ready(successor_size) => {
                self.announce(successor_size);
                st.announced = head + 2;
                if st.prepared >= head + 2 {
                    // The successor has been speculating in the other slot.
                    let slot = self.arena.slots[(head + 1) % 2].read();
                    debug_assert_eq!(slot.generation, head + 1, "successor slot not prepared");
                    let runahead =
                        slot.state.scheduler.execution_cursor().min(successor_size) as u64;
                    self.arena.chain_metrics.record_chain_block(runahead);
                    // The frontier is frozen from the successor's point of view
                    // (its predecessors have all committed and published).
                    // Sweep, then open: the ladder's wave-freshness rule now
                    // rejects any validation that predates this sweep, so no
                    // stale frontier read can commit.
                    slot.state.scheduler.trigger_full_revalidation();
                    self.arena.chain_metrics.record_chain_sweep();
                    slot.state.scheduler.set_commit_gate(true);
                } else {
                    // The successor arrived only after the head was already
                    // running: nothing has speculated on it, the frontier is
                    // frozen — prepare it directly as the open head, no sweep
                    // needed (same argument as block 0).
                    debug_assert_eq!(st.prepared, head + 1, "exactly the head was in flight");
                    self.arena.chain_metrics.record_chain_block(0);
                    self.prepare_slot(head + 1, successor_size, true);
                    st.prepared = head + 2;
                }
            }
            BlockStatus::Pending | BlockStatus::Ended => {
                // Stream end, or the source has nothing ready yet — in the
                // latter case `settle` prepares the next head (announced and
                // gate-open) when it arrives.
                self.arena.chain_metrics.record_chain_block(0);
            }
        }
        control.active_block.store(head + 1, Ordering::SeqCst);

        // Phase 3: recycle the freed slot for block `head + 2`, gated. The
        // write lock waits out any straggler stint still holding the old
        // generation (each such stint is bounded and exits fast on the `done`
        // scheduler); new stints check the generation and move on.
        if st.prepared == head + 2 {
            if let BlockStatus::Ready(next_size) = self.stream.status(head + 2) {
                self.prepare_slot(head + 2, next_size, false);
                st.prepared = head + 3;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_stm::BlockStmBuilder;
    use crate::hooks::BlockGasLimit;
    use block_stm_storage::InMemoryStorage;
    use block_stm_vm::synthetic::SyntheticTransaction;
    use block_stm_vm::{ExecutionFailure, StateReader, TransactionContext};

    fn storage_with_keys(keys: u64) -> InMemoryStorage<u64, u64> {
        (0..keys).map(|k| (k, k * 1_000)).collect()
    }

    /// Barrier-per-block reference: execute each block with the single-block
    /// engine, applying its updates to a running storage between blocks.
    fn barrier_reference(
        blocks: &[Vec<SyntheticTransaction>],
        storage: &InMemoryStorage<u64, u64>,
        threads: usize,
    ) -> (Vec<BlockOutput<u64, u64>>, InMemoryStorage<u64, u64>) {
        let executor = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build();
        let mut running = storage.clone();
        let mut outputs = Vec::new();
        for block in blocks {
            let output = executor.execute_block(block, &running).unwrap();
            for (key, value) in &output.updates {
                running.insert(*key, *value);
            }
            outputs.push(output);
        }
        (outputs, running)
    }

    fn assert_chain_matches_barrier(
        blocks: &[Vec<SyntheticTransaction>],
        storage: &InMemoryStorage<u64, u64>,
        threads: usize,
    ) -> ChainOutput<u64, u64> {
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(threads)
            .build();
        let chained = chain.execute_chain(blocks, storage).unwrap();
        let (reference, _) = barrier_reference(blocks, storage, threads);
        assert_eq!(chained.blocks.len(), reference.len());
        for (index, (c, r)) in chained.blocks.iter().zip(reference.iter()).enumerate() {
            assert_eq!(c.updates, r.updates, "block {index} updates diverge");
            assert_eq!(
                c.outputs.len(),
                r.outputs.len(),
                "block {index} output count diverges"
            );
            for (txn_idx, (co, ro)) in c.outputs.iter().zip(r.outputs.iter()).enumerate() {
                assert_eq!(
                    co.writes, ro.writes,
                    "block {index} txn {txn_idx} write-set diverges"
                );
                assert_eq!(co.abort_code, ro.abort_code);
            }
            assert_eq!(c.truncated_at, r.truncated_at, "block {index} cut diverges");
        }
        chained
    }

    #[test]
    fn empty_chain() {
        let chain = BlockStmBuilder::new(Vm::for_testing()).build();
        let storage = storage_with_keys(1);
        let output = chain
            .execute_chain::<SyntheticTransaction, _>(&[], &storage)
            .unwrap();
        assert_eq!(output.num_blocks(), 0);
        assert!(output.updates.is_empty());
    }

    #[test]
    fn single_block_chain_matches_single_block_execution() {
        let storage = storage_with_keys(4);
        let blocks = vec![(0..8)
            .map(|i| SyntheticTransaction::increment(i % 4))
            .collect::<Vec<_>>()];
        assert_chain_matches_barrier(&blocks, &storage, 4);
    }

    #[test]
    fn chained_blocks_read_their_predecessors_writes() {
        // Block k increments the same hot keys; values must accumulate across
        // blocks exactly as in barrier execution.
        let storage = storage_with_keys(4);
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..12)
            .map(|_| {
                (0..16)
                    .map(|i| SyntheticTransaction::increment(i % 4))
                    .collect()
            })
            .collect();
        for threads in [1, 2, 4] {
            let chained = assert_chain_matches_barrier(&blocks, &storage, threads);
            assert_eq!(chained.metrics.chain_blocks, 12);
        }
    }

    #[test]
    fn empty_blocks_flow_through_the_chain() {
        let storage = storage_with_keys(4);
        let blocks: Vec<Vec<SyntheticTransaction>> = vec![
            Vec::new(),
            (0..8)
                .map(|i| SyntheticTransaction::increment(i % 4))
                .collect(),
            Vec::new(),
            Vec::new(),
            (0..8)
                .map(|i| SyntheticTransaction::increment(i % 4))
                .collect(),
            Vec::new(),
        ];
        assert_chain_matches_barrier(&blocks, &storage, 4);
    }

    #[test]
    fn chain_net_updates_equal_final_barrier_state() {
        let storage = storage_with_keys(6);
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..8)
            .map(|b| {
                (0..10)
                    .map(|i| SyntheticTransaction::transfer((b + i) % 6, (b + i + 1) % 6, 3))
                    .collect()
            })
            .collect();
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .build();
        let chained = chain.execute_chain(&blocks, &storage).unwrap();
        let (outputs, _) = barrier_reference(&blocks, &storage, 4);
        // The net updates must equal folding every block's updates in order.
        let mut folded = std::collections::BTreeMap::new();
        for output in &outputs {
            for (key, value) in &output.updates {
                folded.insert(*key, *value);
            }
        }
        assert_eq!(
            chained.updates,
            folded.into_iter().collect::<Vec<_>>(),
            "chain net updates diverge from folded barrier updates"
        );
    }

    #[test]
    fn mid_chain_gas_cut_truncates_one_block_and_continues() {
        let storage = storage_with_keys(4);
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..4)
            .map(|_| {
                (0..10)
                    .map(|i| SyntheticTransaction::increment(i % 4))
                    .collect()
            })
            .collect();
        // Budget covering exactly the first 7 transactions of each (identical)
        // block, derived from a sequential run so the cut is deterministic.
        let sequential = crate::sequential::SequentialExecutor::new(Vm::for_testing());
        let full = sequential.execute_block(&blocks[0], &storage).unwrap();
        let budget: u64 = full.outputs.iter().take(7).map(|o| o.gas_used).sum();
        let limit = Arc::new(BlockGasLimit::new(budget));
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .block_limiter::<u64, u64>(limit.clone())
            .build();
        let chained = chain.execute_chain(&blocks, &storage).unwrap();

        let barrier = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .block_limiter::<u64, u64>(limit)
            .build();
        let mut running = storage.clone();
        for (index, block) in blocks.iter().enumerate() {
            let reference = barrier.execute_block(block, &running).unwrap();
            for (key, value) in &reference.updates {
                running.insert(*key, *value);
            }
            let chained_block = &chained.blocks[index];
            assert_eq!(chained_block.truncated_at, reference.truncated_at);
            assert_eq!(chained_block.updates, reference.updates);
            assert_eq!(
                chained_block.truncated_at,
                Some(7),
                "cut after 7 transactions"
            );
        }
    }

    #[test]
    fn chain_metrics_count_blocks_and_sweeps() {
        let storage = storage_with_keys(4);
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..6)
            .map(|_| {
                (0..12)
                    .map(|i| SyntheticTransaction::increment(i % 4))
                    .collect()
            })
            .collect();
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .build();
        let output = chain.execute_chain(&blocks, &storage).unwrap();
        assert_eq!(output.metrics.chain_blocks, 6);
        // One mandatory pre-gate-open sweep per handoff with a successor.
        assert!(output.metrics.chain_sweeps >= 5);
        assert_eq!(output.total_txns(), 6 * 12);
    }

    #[test]
    fn executor_is_reusable_across_chains() {
        let storage = storage_with_keys(4);
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..5)
            .map(|_| {
                (0..8)
                    .map(|i| SyntheticTransaction::increment(i % 4))
                    .collect()
            })
            .collect();
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(4)
            .build();
        let first = chain.execute_chain(&blocks, &storage).unwrap();
        let second = chain.execute_chain(&blocks, &storage).unwrap();
        assert_eq!(first.updates, second.updates);
        assert_eq!(chain.dispatches(), 2);
    }

    #[test]
    fn delta_writes_accumulate_across_chained_blocks() {
        // Commutative deltas on a hot key must fold onto the *predecessor
        // block's* committed value (the frontier overlay), not raw storage.
        let storage = storage_with_keys(3);
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..10)
            .map(|_| {
                (0..8)
                    .map(|i| SyntheticTransaction::delta_add(i % 2, 5, u128::MAX))
                    .collect()
            })
            .collect();
        for threads in [1, 4] {
            let chained = assert_chain_matches_barrier(&blocks, &storage, threads);
            // Key 0 starts at 0 and receives 4 deltas of 5 per block.
            let final_key0 = chained
                .updates
                .iter()
                .find(|(key, _)| *key == 0)
                .map(|(_, value)| *value);
            assert_eq!(final_key0, Some(10 * 4 * 5));
        }
    }

    /// A source that yields its blocks only every `stride`-th call, so the
    /// chain repeatedly runs dry and must take the late-arrival prepare path.
    struct DribbleSource {
        blocks: Mutex<std::collections::VecDeque<Vec<SyntheticTransaction>>>,
        calls: AtomicUsize,
        stride: usize,
    }

    impl BlockSource<SyntheticTransaction> for DribbleSource {
        fn next_block(&self) -> BlockFeed<SyntheticTransaction> {
            let calls = self.calls.fetch_add(1, Ordering::SeqCst);
            if calls % self.stride != self.stride - 1 {
                return BlockFeed::Pending;
            }
            match self.blocks.lock().pop_front() {
                Some(block) => BlockFeed::Ready(block),
                None => BlockFeed::End,
            }
        }
    }

    #[test]
    fn streamed_chain_matches_slice_execution() {
        let storage = storage_with_keys(4);
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..10)
            .map(|_| {
                (0..12)
                    .map(|i| SyntheticTransaction::increment(i % 4))
                    .collect()
            })
            .collect();
        for threads in [1, 2, 4] {
            let chain = BlockStmBuilder::new(Vm::for_testing())
                .concurrency(threads)
                .build();
            let source = DribbleSource {
                blocks: Mutex::new(blocks.iter().cloned().collect()),
                calls: AtomicUsize::new(0),
                stride: 7,
            };
            let streamed = chain.execute_stream(&source, &storage).unwrap();
            let sliced = chain.execute_chain(&blocks, &storage).unwrap();
            assert_eq!(streamed.num_blocks(), blocks.len());
            assert_eq!(streamed.updates, sliced.updates);
            assert_eq!(streamed.metrics.chain_blocks, blocks.len() as u64);
            for (index, (s, r)) in streamed.blocks.iter().zip(sliced.blocks.iter()).enumerate() {
                assert_eq!(s.updates, r.updates, "block {index} updates diverge");
            }
        }
    }

    #[test]
    fn streamed_chain_accepts_closures_as_sources() {
        let storage = storage_with_keys(4);
        let pending = Mutex::new(
            (0..4)
                .map(|_| {
                    (0..8)
                        .map(|i| SyntheticTransaction::increment(i % 4))
                        .collect::<Vec<_>>()
                })
                .collect::<std::collections::VecDeque<_>>(),
        );
        let source = move || match pending.lock().pop_front() {
            Some(block) => BlockFeed::Ready(block),
            None => BlockFeed::End,
        };
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .build();
        let output = chain.execute_stream(&source, &storage).unwrap();
        assert_eq!(output.num_blocks(), 4);
        assert_eq!(output.total_txns(), 32);
    }

    #[test]
    fn empty_stream_returns_no_blocks() {
        let chain = BlockStmBuilder::new(Vm::for_testing()).build();
        let storage = storage_with_keys(1);
        let source = || BlockFeed::<SyntheticTransaction>::End;
        let output = chain.execute_stream(&source, &storage).unwrap();
        assert_eq!(output.num_blocks(), 0);
        assert!(output.updates.is_empty());
        // And the executor remains reusable for a real stream afterwards.
        let blocks = vec![vec![SyntheticTransaction::increment(0)]];
        let output = chain.execute_chain(&blocks, &storage).unwrap();
        assert_eq!(output.num_blocks(), 1);
    }

    #[test]
    fn streamed_gas_cut_matches_barrier() {
        let storage = storage_with_keys(4);
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..4)
            .map(|_| {
                (0..10)
                    .map(|i| SyntheticTransaction::increment(i % 4))
                    .collect()
            })
            .collect();
        let sequential = crate::sequential::SequentialExecutor::new(Vm::for_testing());
        let full = sequential.execute_block(&blocks[0], &storage).unwrap();
        let budget: u64 = full.outputs.iter().take(7).map(|o| o.gas_used).sum();
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .block_limiter::<u64, u64>(Arc::new(BlockGasLimit::new(budget)))
            .build();
        let source = DribbleSource {
            blocks: Mutex::new(blocks.iter().cloned().collect()),
            calls: AtomicUsize::new(0),
            stride: 5,
        };
        let streamed = chain.execute_stream(&source, &storage).unwrap();
        for (index, block) in streamed.blocks.iter().enumerate() {
            assert_eq!(block.truncated_at, Some(7), "block {index} cut diverges");
        }
    }

    /// A transaction that counts the blocks alive: the first transaction of
    /// each block holds a token that is counted up when the block is formed
    /// and down when the block is dropped.
    struct CountedTxn {
        inner: SyntheticTransaction,
        _token: Option<AliveToken>,
    }

    struct AliveToken(Arc<AtomicUsize>);

    impl Drop for AliveToken {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl Transaction for CountedTxn {
        type Key = u64;
        type Value = u64;

        fn execute<R: StateReader<u64, u64>>(
            &self,
            ctx: &mut TransactionContext<'_, u64, u64, R>,
        ) -> Result<(), ExecutionFailure> {
            self.inner.execute(ctx)
        }
    }

    #[test]
    fn a_long_stream_holds_a_bounded_number_of_blocks() {
        // 200 blocks dribble in at two workers; the source checks, whenever it
        // forms a block, how many of the blocks it formed are still alive.
        let storage = storage_with_keys(4);
        let alive = Arc::new(AtomicUsize::new(0));
        let max_alive = AtomicUsize::new(0);
        let formed = AtomicUsize::new(0);
        let calls = AtomicUsize::new(0);
        let source = || {
            if calls.fetch_add(1, Ordering::SeqCst) % 3 != 2 {
                return BlockFeed::Pending;
            }
            let index = formed.fetch_add(1, Ordering::SeqCst);
            if index == 200 {
                return BlockFeed::End;
            }
            let now_alive = alive.fetch_add(1, Ordering::SeqCst) + 1;
            max_alive.fetch_max(now_alive, Ordering::SeqCst);
            BlockFeed::Ready(
                (0..8u64)
                    .map(|i| CountedTxn {
                        inner: SyntheticTransaction::increment((i + index as u64) % 4),
                        _token: (i == 0).then(|| AliveToken(alive.clone())),
                    })
                    .collect(),
            )
        };
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .build();
        let output = chain.execute_stream(&source, &storage).unwrap();
        assert_eq!(output.num_blocks(), 200);
        let max_alive = max_alive.load(Ordering::SeqCst);
        assert!(max_alive <= FETCH_AHEAD, "{max_alive} blocks alive at once");
        assert_eq!(alive.load(Ordering::SeqCst), 0, "every block was dropped");
    }

    /// A transaction that panics when executed — drives the chain's panic
    /// containment path.
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
                panic!("chained transaction logic exploded");
            }
            ctx.write(1, 1);
            Ok(())
        }
    }

    #[test]
    fn panicking_transaction_fails_the_chain_but_not_the_executor() {
        let storage = storage_with_keys(4);
        let bad: Vec<Vec<PanickingTxn>> = vec![
            (0..4).map(|_| PanickingTxn { panics: false }).collect(),
            vec![PanickingTxn { panics: true }],
        ];
        let good: Vec<Vec<PanickingTxn>> =
            vec![(0..8).map(|_| PanickingTxn { panics: false }).collect()];
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .build();
        let err = chain.execute_chain(&bad, &storage).unwrap_err();
        match &err {
            ExecutionError::WorkerPanic { workers, detail } => {
                assert!(*workers >= 1);
                assert!(detail.contains("exploded"), "detail: {detail}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The executor stays usable.
        let output = chain.execute_chain(&good, &storage).unwrap();
        assert_eq!(output.num_blocks(), 1);
    }
}
