//! The node service: wiring mempool → block former → chained execution.
//!
//! A [`Node`] owns three cooperating pieces:
//!
//! * the bounded [`Mempool`](crate::mempool) that producers submit into,
//! * a [`BlockFormer`](crate::former) cut policy (count / age / gas), and
//! * an executor thread that runs the formed blocks continuously.
//!
//! In the default [`EngineMode::Chained`] the executor thread makes a single
//! [`ChainExecutor::execute_stream`] dispatch whose [`BlockSource`] *is* the
//! block former: idle engine workers poll the source, so block formation and
//! execution overlap and a block cut while block `k` executes becomes block
//! `k+1`'s run-ahead work. Commit sinks (including a durability sink) stream
//! the committed prefix in preset order exactly as in a one-shot chain
//! dispatch. [`EngineMode::Adaptive`] instead runs each formed block through
//! an [`AdaptiveExecutor`] with a barrier between blocks — per-block engine
//! selection, but no cross-block pipelining and no commit sinks.
//!
//! # Shutdown and drain ordering
//!
//! [`Node::shutdown`] performs, strictly in this order:
//!
//! 1. **Close** the mempool: new submissions fail with
//!    [`NodeError::MempoolClosed`]; queued transactions stay.
//! 2. **Drain**: closing makes every subsequent forming attempt due, so the
//!    former cuts the remaining queue into final blocks and then reports
//!    [`BlockFeed::End`]. The executor returns once every formed block has
//!    committed; joining it is therefore the drain barrier.
//! 3. **Flush** durability: only after the engine returned is the committed
//!    stream complete, so the durability barrier's watermark can be compared
//!    against the number of committed transactions. A sink whose persister
//!    died mid-run acks the flush without advancing the watermark — the
//!    comparison turns that silent data loss into [`NodeError::SinkStalled`].
//! 4. **Report**: counters, histograms and per-transaction commit counts are
//!    frozen into the final [`NodeReport`].
//!
//! Steps 2 and 3 cannot be swapped: flushing before the engine returns would
//! race the flush barrier against in-flight commit deliveries and could
//! misdiagnose a healthy sink as stalled. Step 1 must precede step 2 or the
//! drain would never terminate under sustained load.
//!
//! [`BlockFeed::End`]: block_stm::BlockFeed::End
//! [`BlockSource`]: block_stm::BlockSource
//! [`ChainExecutor::execute_stream`]: block_stm::ChainExecutor::execute_stream

use crate::former::{BlockFormer, FormOutcome, FormedBlock, GasEstimator};
use crate::mempool::{Mempool, SubmitError};
use block_stm::{
    AdaptiveExecutor, BlockFeed, BlockGasLimit, BlockLimiter, BlockOutput, BlockSource,
    BlockStmBuilder, CommitEvent, CommitSink, ExecutionError, MetricsSnapshot, Transaction, Vm,
};
use block_stm_metrics::{LatencyHistogram, LatencySummary};
use block_stm_persist::{PersistCodec, SyncPersistSink, WriteBehindSink};
use block_stm_storage::InMemoryStorage;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the adaptive executor thread sleeps between forming attempts when
/// nothing is due (the chained engine instead backs off inside its worker
/// loop, so it needs no poll interval here).
const IDLE_POLL: Duration = Duration::from_micros(200);

fn micros(duration: Duration) -> u64 {
    duration.as_micros().min(u64::MAX as u128) as u64
}

/// Which execution engine the node's executor thread drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// One [`ChainExecutor`](block_stm::ChainExecutor) stream dispatch:
    /// cross-block pipelining, commit sinks and durability supported.
    Chained,
    /// Per-block [`AdaptiveExecutor`] dispatch with barriers between blocks:
    /// adaptive engine selection, but no sinks (the adaptive executor has no
    /// commit-streaming surface), so durability cannot be attached.
    Adaptive,
}

/// Errors surfaced by the node API.
#[derive(Debug)]
pub enum NodeError {
    /// The mempool is at capacity; the submission was rejected, not queued.
    MempoolFull {
        /// The configured capacity bound.
        capacity: usize,
    },
    /// The node is shutting down; no new submissions are accepted.
    MempoolClosed,
    /// The node was configured inconsistently (e.g. sinks on the adaptive
    /// engine).
    Config {
        /// What was wrong.
        detail: String,
    },
    /// The execution engine failed.
    Execution(ExecutionError),
    /// The durability sink reported an I/O failure.
    Durability {
        /// The underlying persistence error.
        detail: String,
    },
    /// The durability sink acknowledged the final flush but its watermark
    /// covers fewer commit events than the node delivered: the background
    /// persister died mid-run and data past the watermark was lost.
    SinkStalled {
        /// Commit events the sink made durable (net of the pre-existing
        /// watermark at node start).
        durable_events: u64,
        /// Commit events the node delivered to sinks.
        committed_events: u64,
    },
    /// An internal invariant failed (e.g. the executor thread panicked).
    Internal {
        /// What failed.
        detail: String,
    },
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::MempoolFull { capacity } => {
                write!(f, "mempool full (capacity {capacity})")
            }
            NodeError::MempoolClosed => write!(f, "mempool closed"),
            NodeError::Config { detail } => write!(f, "invalid node configuration: {detail}"),
            NodeError::Execution(err) => write!(f, "execution failed: {err}"),
            NodeError::Durability { detail } => write!(f, "durability failure: {detail}"),
            NodeError::SinkStalled {
                durable_events,
                committed_events,
            } => write!(
                f,
                "durability sink stalled: {durable_events} of {committed_events} \
                 committed events durable"
            ),
            NodeError::Internal { detail } => write!(f, "internal node error: {detail}"),
        }
    }
}

impl std::error::Error for NodeError {}

/// A [`CommitSink`] that additionally offers a durability barrier, so the
/// node can verify at shutdown that everything it committed is on disk.
pub trait DurabilitySink<K, V>: CommitSink<K, V> {
    /// Blocks until every commit event delivered so far is durable and
    /// returns the sink's cumulative durable watermark (in commit events).
    fn flush_durable(&self) -> Result<u64, String>;
}

impl<K, V> DurabilitySink<K, V> for WriteBehindSink<K, V>
where
    K: PersistCodec + Eq + Hash + Clone + Send + Sync + 'static,
    V: PersistCodec + Clone + Send + Sync + 'static,
{
    fn flush_durable(&self) -> Result<u64, String> {
        self.flush().map_err(|err| err.to_string())
    }
}

impl<K, V> DurabilitySink<K, V> for SyncPersistSink<K, V>
where
    K: PersistCodec + Eq + Hash + Clone + Send + Sync + 'static,
    V: PersistCodec + Clone + Send + Sync + 'static,
{
    fn flush_durable(&self) -> Result<u64, String> {
        self.flush().map_err(|err| err.to_string())
    }
}

/// Adapter: attaches a [`DurabilitySink`] to the engine's commit-sink chain.
struct ForwardSink<K, V>(Arc<dyn DurabilitySink<K, V>>);

impl<K, V> CommitSink<K, V> for ForwardSink<K, V> {
    fn begin_block(&self, block_size: usize) {
        self.0.begin_block(block_size);
    }

    fn on_commit(&self, event: &CommitEvent<'_, K, V>) {
        self.0.on_commit(event);
    }

    fn end_block(&self, committed: usize) {
        self.0.end_block(committed);
    }
}

/// A point-in-time view of the node's counters and latency distributions,
/// with a stable JSON encoding for dumps and baselines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// Microseconds since the node started.
    pub uptime_us: u64,
    /// Transactions admitted into the mempool.
    pub submitted: u64,
    /// Submissions rejected because the mempool was at capacity.
    pub rejected_full: u64,
    /// Transactions currently queued in the mempool.
    pub mempool_depth: u64,
    /// Blocks cut by the block former.
    pub formed_blocks: u64,
    /// Transactions across all formed blocks.
    pub formed_txns: u64,
    /// Transactions committed by the engine (delivered to sinks in chained
    /// mode; per-block output size in adaptive mode).
    pub committed_txns: u64,
    /// Ingest→formed latency distribution, microseconds.
    pub ingest_to_formed_us: LatencySummary,
    /// Ingest→committed latency distribution, microseconds.
    pub ingest_to_committed_us: LatencySummary,
    /// Engine metrics. Live per-block in adaptive mode; in chained mode the
    /// stream dispatch reports once at completion, so mid-run dumps show the
    /// previous dispatch (zeros before the first completes).
    pub engine: MetricsSnapshot,
}

impl NodeSnapshot {
    /// Serializes to the stable JSON form (same encoder the engine baselines
    /// use).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("NodeSnapshot serialization is infallible")
    }

    /// Parses a snapshot from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The final accounting returned by [`Node::shutdown`].
pub struct NodeReport<T: Transaction> {
    /// The node's final counters and latency distributions.
    pub snapshot: NodeSnapshot,
    /// Every formed block, in stream order (empty when block retention was
    /// disabled via [`NodeBuilder::retain_blocks`]).
    pub blocks: Vec<Vec<T>>,
    /// Per-block engine outputs, index-aligned with `blocks`.
    pub outputs: Vec<BlockOutput<T::Key, T::Value>>,
    /// Net committed state updates across the whole run, sorted by key.
    pub updates: Vec<(T::Key, T::Value)>,
    /// `(submit_id, times_committed)` sorted by id — the exactly-once audit
    /// trail (chained mode counts sink deliveries; adaptive counts per-block
    /// outputs).
    pub commit_counts: Vec<(u64, u64)>,
    /// The durability sink's final watermark, if one was attached.
    pub durable_watermark: Option<u64>,
}

impl<T: Transaction> NodeReport<T> {
    /// Whether every submitted transaction committed exactly once: the audit
    /// trail covers the dense id range `0..submitted` with every count 1.
    pub fn committed_exactly_once(&self) -> bool {
        self.commit_counts.len() as u64 == self.snapshot.submitted
            && self
                .commit_counts
                .iter()
                .enumerate()
                .all(|(index, (id, count))| *id == index as u64 && *count == 1)
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    rejected_full: AtomicU64,
    formed_blocks: AtomicU64,
    formed_txns: AtomicU64,
    committed_txns: AtomicU64,
}

/// Per-block bookkeeping handed from the former to the commit sink.
struct BlockMeta {
    ids: Vec<u64>,
    arrivals: Vec<Instant>,
}

struct NodeShared<T: Transaction> {
    mempool: Mempool<T>,
    counters: Counters,
    started: Instant,
    ingest_to_formed: Mutex<LatencyHistogram>,
    ingest_to_committed: Mutex<LatencyHistogram>,
    engine_metrics: Mutex<MetricsSnapshot>,
    commit_counts: Mutex<HashMap<u64, u64>>,
    pending_meta: Mutex<VecDeque<BlockMeta>>,
    formed_log: Mutex<Vec<Vec<T>>>,
    retain_blocks: bool,
    track_meta: bool,
}

impl<T: Transaction + Clone> NodeShared<T> {
    fn submit(&self, txn: T) -> Result<u64, NodeError> {
        match self.mempool.submit(txn) {
            Ok(id) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                // `or_insert` (not `insert`): the block former may race ahead
                // and commit this id before we get here — never clobber a
                // recorded commit back to zero.
                self.commit_counts.lock().entry(id).or_insert(0);
                Ok(id)
            }
            Err(SubmitError::Full { capacity }) => {
                self.counters.rejected_full.fetch_add(1, Ordering::Relaxed);
                Err(NodeError::MempoolFull { capacity })
            }
            Err(SubmitError::Closed) => Err(NodeError::MempoolClosed),
        }
    }

    fn note_formed(&self, block: &FormedBlock<T>) {
        self.counters.formed_blocks.fetch_add(1, Ordering::Relaxed);
        self.counters
            .formed_txns
            .fetch_add(block.txns.len() as u64, Ordering::Relaxed);
        let now = Instant::now();
        {
            let mut histogram = self.ingest_to_formed.lock();
            for arrived in &block.arrivals {
                histogram.record(micros(now.saturating_duration_since(*arrived)));
            }
        }
        if self.track_meta {
            self.pending_meta.lock().push_back(BlockMeta {
                ids: block.ids.clone(),
                arrivals: block.arrivals.clone(),
            });
        }
        if self.retain_blocks {
            self.formed_log.lock().push(block.txns.clone());
        }
    }

    fn note_committed(&self, ids: &[u64], arrivals: &[Instant], done: Instant) {
        {
            let mut histogram = self.ingest_to_committed.lock();
            for arrived in arrivals {
                histogram.record(micros(done.saturating_duration_since(*arrived)));
            }
        }
        {
            let mut counts = self.commit_counts.lock();
            for id in ids {
                *counts.entry(*id).or_insert(0) += 1;
            }
        }
        self.counters
            .committed_txns
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            uptime_us: micros(self.started.elapsed()),
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            rejected_full: self.counters.rejected_full.load(Ordering::Relaxed),
            mempool_depth: self.mempool.len() as u64,
            formed_blocks: self.counters.formed_blocks.load(Ordering::Relaxed),
            formed_txns: self.counters.formed_txns.load(Ordering::Relaxed),
            committed_txns: self.counters.committed_txns.load(Ordering::Relaxed),
            ingest_to_formed_us: self.ingest_to_formed.lock().summary(),
            ingest_to_committed_us: self.ingest_to_committed.lock().summary(),
            engine: *self.engine_metrics.lock(),
        }
    }
}

/// The chained engine's [`BlockSource`]: every poll is a forming attempt.
struct ChainSource<T: Transaction> {
    shared: Arc<NodeShared<T>>,
    former: BlockFormer<T>,
}

impl<T: Transaction + Clone> BlockSource<T> for ChainSource<T> {
    fn next_block(&self) -> BlockFeed<T> {
        match self.former.try_form(&self.shared.mempool, Instant::now()) {
            FormOutcome::Formed(block) => {
                self.shared.note_formed(&block);
                BlockFeed::Ready(block.txns)
            }
            FormOutcome::NotYet => BlockFeed::Pending,
            FormOutcome::Drained => BlockFeed::End,
        }
    }
}

/// The node's own commit sink (chained mode): matches commit deliveries with
/// the per-block metadata queued at forming time, recording ingest→committed
/// latencies and the exactly-once audit counts.
struct LatencySink<T: Transaction> {
    shared: Arc<NodeShared<T>>,
    current: Mutex<Option<BlockMeta>>,
}

impl<T: Transaction + Clone> CommitSink<T::Key, T::Value> for LatencySink<T> {
    fn begin_block(&self, _block_size: usize) {
        // Blocks are announced to sinks strictly in stream order, so the
        // oldest queued metadata is this block's.
        let meta = self.shared.pending_meta.lock().pop_front();
        *self.current.lock() = meta;
    }

    fn on_commit(&self, event: &CommitEvent<'_, T::Key, T::Value>) {
        let now = Instant::now();
        let current = self.current.lock();
        if let Some(meta) = current.as_ref() {
            if let (Some(id), Some(arrived)) = (
                meta.ids.get(event.txn_idx),
                meta.arrivals.get(event.txn_idx),
            ) {
                self.shared.note_committed(
                    std::slice::from_ref(id),
                    std::slice::from_ref(arrived),
                    now,
                );
                return;
            }
        }
        // Metadata should always line up; count the commit even if it didn't.
        self.shared
            .counters
            .committed_txns
            .fetch_add(1, Ordering::Relaxed);
    }
}

struct ExecutionBundle<K, V> {
    outputs: Vec<BlockOutput<K, V>>,
    updates: Vec<(K, V)>,
    metrics: MetricsSnapshot,
}

type Outcome<T> =
    Result<ExecutionBundle<<T as Transaction>::Key, <T as Transaction>::Value>, ExecutionError>;

/// Callback invoked with each periodic snapshot.
pub type SnapshotCallback = Arc<dyn Fn(&NodeSnapshot) + Send + Sync>;

/// Configures and starts a [`Node`].
pub struct NodeBuilder<T: Transaction + Clone + 'static> {
    vm: Vm,
    storage: InMemoryStorage<T::Key, T::Value>,
    concurrency: Option<usize>,
    mempool_capacity: usize,
    max_block_txns: usize,
    max_wait: Duration,
    gas_budget: Option<u64>,
    estimator: GasEstimator<T>,
    engine: EngineMode,
    sinks: Vec<Arc<dyn CommitSink<T::Key, T::Value>>>,
    durability: Option<Arc<dyn DurabilitySink<T::Key, T::Value>>>,
    snapshot_every: Option<Duration>,
    on_snapshot: Option<SnapshotCallback>,
    retain_blocks: bool,
}

impl<T: Transaction + Clone + 'static> NodeBuilder<T> {
    /// Starts configuring a node that executes over `storage` with `vm`.
    pub fn new(vm: Vm, storage: InMemoryStorage<T::Key, T::Value>) -> Self {
        NodeBuilder {
            vm,
            storage,
            concurrency: None,
            mempool_capacity: 8192,
            max_block_txns: 512,
            max_wait: Duration::from_millis(10),
            gas_budget: None,
            estimator: Arc::new(|_| 1),
            engine: EngineMode::Chained,
            sinks: Vec::new(),
            durability: None,
            snapshot_every: None,
            on_snapshot: None,
            retain_blocks: true,
        }
    }

    /// Engine worker threads (defaults to the engine's own default).
    pub fn concurrency(mut self, concurrency: usize) -> Self {
        self.concurrency = Some(concurrency);
        self
    }

    /// Mempool capacity bound (submissions beyond it are rejected).
    pub fn mempool_capacity(mut self, capacity: usize) -> Self {
        self.mempool_capacity = capacity;
        self
    }

    /// The count cut: a block is formed once this many transactions queue.
    pub fn max_block_txns(mut self, txns: usize) -> Self {
        self.max_block_txns = txns.max(1);
        self
    }

    /// The age cut: a block is formed once the oldest queued transaction has
    /// waited this long, even if the block is otherwise small.
    pub fn max_wait(mut self, wait: Duration) -> Self {
        self.max_wait = wait;
        self
    }

    /// The gas cut: blocks are additionally capped by estimated gas, using
    /// `estimator` as the pre-execution gas guess per transaction.
    pub fn gas_budget(
        mut self,
        budget: u64,
        estimator: impl Fn(&T) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.gas_budget = Some(budget);
        self.estimator = Arc::new(estimator);
        self
    }

    /// Selects the execution engine (default [`EngineMode::Chained`]).
    pub fn engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a commit sink (chained mode only).
    pub fn commit_sink(mut self, sink: Arc<dyn CommitSink<T::Key, T::Value>>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Attaches a durability sink (chained mode only): it receives the
    /// committed stream like any sink, and shutdown runs its barrier and
    /// audits the watermark against the committed count.
    pub fn durability(mut self, sink: Arc<dyn DurabilitySink<T::Key, T::Value>>) -> Self {
        self.durability = Some(sink);
        self
    }

    /// Emits a [`NodeSnapshot`] every `every` (to `callback`, or as a JSON
    /// line on stdout if none is set).
    pub fn snapshot_every(mut self, every: Duration) -> Self {
        self.snapshot_every = Some(every);
        self
    }

    /// Overrides where periodic snapshots go.
    pub fn on_snapshot(mut self, callback: SnapshotCallback) -> Self {
        self.on_snapshot = Some(callback);
        self
    }

    /// Whether formed blocks are retained for the final report (default on;
    /// turn off for long soaks where the transaction log would dominate
    /// memory).
    pub fn retain_blocks(mut self, retain: bool) -> Self {
        self.retain_blocks = retain;
        self
    }

    /// Validates the configuration and starts the node's threads.
    pub fn start(self) -> Result<Node<T>, NodeError> {
        if self.engine == EngineMode::Adaptive && !self.sinks.is_empty() {
            return Err(NodeError::Config {
                detail: "commit sinks require the chained engine".into(),
            });
        }
        if self.engine == EngineMode::Adaptive && self.durability.is_some() {
            return Err(NodeError::Config {
                detail: "durability requires the chained engine".into(),
            });
        }

        let shared = Arc::new(NodeShared {
            mempool: Mempool::new(self.mempool_capacity),
            counters: Counters::default(),
            started: Instant::now(),
            ingest_to_formed: Mutex::new(LatencyHistogram::new()),
            ingest_to_committed: Mutex::new(LatencyHistogram::new()),
            engine_metrics: Mutex::new(MetricsSnapshot::default()),
            commit_counts: Mutex::new(HashMap::new()),
            pending_meta: Mutex::new(VecDeque::new()),
            formed_log: Mutex::new(Vec::new()),
            retain_blocks: self.retain_blocks,
            track_meta: self.engine == EngineMode::Chained,
        });

        // Baseline the watermark before any block commits: genesis ingestion
        // advances it too, and the shutdown stall audit must count only
        // events this node produced.
        let durable_baseline = match &self.durability {
            Some(sink) => sink
                .flush_durable()
                .map_err(|detail| NodeError::Durability { detail })?,
            None => 0,
        };

        let former = BlockFormer {
            max_block_txns: self.max_block_txns,
            max_wait: self.max_wait,
            limiter: self.gas_budget.map(|budget| {
                Arc::new(BlockGasLimit::new(budget)) as Arc<dyn BlockLimiter<T::Key, T::Value>>
            }),
            estimator: self.estimator,
        };

        let outcome: Arc<Mutex<Option<Outcome<T>>>> = Arc::new(Mutex::new(None));
        let executor = match self.engine {
            EngineMode::Chained => spawn_chained(
                self.vm,
                self.storage,
                self.concurrency,
                self.sinks,
                self.durability.clone(),
                shared.clone(),
                former,
                outcome.clone(),
            ),
            EngineMode::Adaptive => spawn_adaptive(
                self.vm,
                self.storage,
                self.concurrency,
                shared.clone(),
                former,
                outcome.clone(),
            ),
        }
        .map_err(|err| NodeError::Internal {
            detail: format!("failed to spawn executor thread: {err}"),
        })?;

        let monitor = self.snapshot_every.map(|every| {
            let stop = Arc::new(AtomicBool::new(false));
            let callback = self.on_snapshot.unwrap_or_else(|| {
                Arc::new(|snapshot: &NodeSnapshot| {
                    println!("{}", snapshot.to_json());
                })
            });
            let monitor_shared = shared.clone();
            let monitor_stop = stop.clone();
            let handle = std::thread::Builder::new()
                .name("block-stm-node-monitor".into())
                .spawn(move || {
                    while !monitor_stop.load(Ordering::Acquire) {
                        std::thread::park_timeout(every);
                        if monitor_stop.load(Ordering::Acquire) {
                            break;
                        }
                        callback(&monitor_shared.snapshot());
                    }
                })
                .expect("failed to spawn monitor thread");
            (stop, handle)
        });

        Ok(Node {
            shared,
            executor: Some(executor),
            monitor,
            outcome,
            durability: self.durability,
            durable_baseline,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_chained<T: Transaction + Clone + 'static>(
    vm: Vm,
    storage: InMemoryStorage<T::Key, T::Value>,
    concurrency: Option<usize>,
    sinks: Vec<Arc<dyn CommitSink<T::Key, T::Value>>>,
    durability: Option<Arc<dyn DurabilitySink<T::Key, T::Value>>>,
    shared: Arc<NodeShared<T>>,
    former: BlockFormer<T>,
    outcome: Arc<Mutex<Option<Outcome<T>>>>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("block-stm-node-executor".into())
        .spawn(move || {
            let mut builder = BlockStmBuilder::new(vm);
            if let Some(concurrency) = concurrency {
                builder = builder.concurrency(concurrency);
            }
            builder = builder.commit_sink(Arc::new(LatencySink {
                shared: shared.clone(),
                current: Mutex::new(None),
            }) as Arc<dyn CommitSink<T::Key, T::Value>>);
            for sink in sinks {
                builder = builder.commit_sink(sink);
            }
            if let Some(durable) = durability {
                builder = builder.commit_sink(
                    Arc::new(ForwardSink(durable)) as Arc<dyn CommitSink<T::Key, T::Value>>
                );
            }
            let chain = builder.build_chain();
            let source = ChainSource {
                shared: shared.clone(),
                former,
            };
            let result = chain
                .execute_stream(&source, &storage)
                .map(|output| ExecutionBundle {
                    outputs: output.blocks,
                    updates: output.updates,
                    metrics: output.metrics,
                });
            if let Ok(bundle) = &result {
                *shared.engine_metrics.lock() = bundle.metrics;
            }
            *outcome.lock() = Some(result);
        })
}

fn spawn_adaptive<T: Transaction + Clone + 'static>(
    vm: Vm,
    storage: InMemoryStorage<T::Key, T::Value>,
    concurrency: Option<usize>,
    shared: Arc<NodeShared<T>>,
    former: BlockFormer<T>,
    outcome: Arc<Mutex<Option<Outcome<T>>>>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("block-stm-node-executor".into())
        .spawn(move || {
            let mut builder = AdaptiveExecutor::builder(vm);
            if let Some(concurrency) = concurrency {
                builder = builder.concurrency(concurrency);
            }
            let adaptive = builder.build();
            let mut running = storage;
            let mut outputs = Vec::new();
            let mut metrics = MetricsSnapshot::default();
            let mut net: BTreeMap<T::Key, T::Value> = BTreeMap::new();
            let result = loop {
                match former.try_form(&shared.mempool, Instant::now()) {
                    FormOutcome::Formed(block) => {
                        shared.note_formed(&block);
                        match adaptive.execute_block(&block.txns, &running) {
                            Ok(output) => {
                                shared.note_committed(&block.ids, &block.arrivals, Instant::now());
                                for (key, value) in &output.updates {
                                    running.insert(key.clone(), value.clone());
                                    net.insert(key.clone(), value.clone());
                                }
                                metrics = metrics.merge(&output.metrics);
                                *shared.engine_metrics.lock() = metrics;
                                outputs.push(output);
                            }
                            Err(err) => break Err(err),
                        }
                    }
                    FormOutcome::NotYet => std::thread::sleep(IDLE_POLL),
                    FormOutcome::Drained => {
                        break Ok(ExecutionBundle {
                            outputs,
                            updates: net.into_iter().collect(),
                            metrics,
                        })
                    }
                }
            };
            *outcome.lock() = Some(result);
        })
}

/// A running node service. See the module docs for the lifecycle.
pub struct Node<T: Transaction + Clone + 'static> {
    shared: Arc<NodeShared<T>>,
    executor: Option<JoinHandle<()>>,
    monitor: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
    outcome: Arc<Mutex<Option<Outcome<T>>>>,
    durability: Option<Arc<dyn DurabilitySink<T::Key, T::Value>>>,
    durable_baseline: u64,
}

/// A cloneable submission/observation handle onto a running [`Node`].
pub struct NodeHandle<T: Transaction> {
    shared: Arc<NodeShared<T>>,
}

impl<T: Transaction> Clone for NodeHandle<T> {
    fn clone(&self) -> Self {
        NodeHandle {
            shared: self.shared.clone(),
        }
    }
}

impl<T: Transaction + Clone> NodeHandle<T> {
    /// Submits a transaction. Never blocks: a full mempool returns
    /// [`NodeError::MempoolFull`] immediately.
    pub fn submit(&self, txn: T) -> Result<u64, NodeError> {
        self.shared.submit(txn)
    }

    /// A point-in-time snapshot of the node's counters and latencies.
    pub fn snapshot(&self) -> NodeSnapshot {
        self.shared.snapshot()
    }

    /// Transactions currently queued in the mempool.
    pub fn mempool_depth(&self) -> usize {
        self.shared.mempool.len()
    }
}

impl<T: Transaction + Clone + 'static> Node<T> {
    /// Starts configuring a node. Equivalent to [`NodeBuilder::new`].
    pub fn builder(vm: Vm, storage: InMemoryStorage<T::Key, T::Value>) -> NodeBuilder<T> {
        NodeBuilder::new(vm, storage)
    }

    /// A cloneable handle for submitters and observers.
    pub fn handle(&self) -> NodeHandle<T> {
        NodeHandle {
            shared: self.shared.clone(),
        }
    }

    /// Submits a transaction (see [`NodeHandle::submit`]).
    pub fn submit(&self, txn: T) -> Result<u64, NodeError> {
        self.shared.submit(txn)
    }

    /// A point-in-time snapshot of the node's counters and latencies.
    pub fn snapshot(&self) -> NodeSnapshot {
        self.shared.snapshot()
    }

    /// Gracefully stops the node: close → drain → flush → report, in that
    /// order (see the module docs for why the order is forced).
    pub fn shutdown(mut self) -> Result<NodeReport<T>, NodeError> {
        self.shared.mempool.close();
        if let Some(handle) = self.executor.take() {
            handle.join().map_err(|_| NodeError::Internal {
                detail: "executor thread panicked".into(),
            })?;
        }
        if let Some((stop, handle)) = self.monitor.take() {
            stop.store(true, Ordering::Release);
            handle.thread().unpark();
            let _ = handle.join();
        }
        let bundle = self
            .outcome
            .lock()
            .take()
            .ok_or_else(|| NodeError::Internal {
                detail: "executor thread exited without reporting an outcome".into(),
            })?
            .map_err(NodeError::Execution)?;

        let durable_watermark = match &self.durability {
            Some(sink) => {
                let watermark = sink
                    .flush_durable()
                    .map_err(|detail| NodeError::Durability { detail })?;
                let durable_events = watermark.saturating_sub(self.durable_baseline);
                let committed_events = self.shared.counters.committed_txns.load(Ordering::Relaxed);
                if durable_events < committed_events {
                    return Err(NodeError::SinkStalled {
                        durable_events,
                        committed_events,
                    });
                }
                Some(watermark)
            }
            None => None,
        };

        let snapshot = self.shared.snapshot();
        let mut commit_counts: Vec<(u64, u64)> = self
            .shared
            .commit_counts
            .lock()
            .iter()
            .map(|(id, count)| (*id, *count))
            .collect();
        commit_counts.sort_unstable();
        let blocks = std::mem::take(&mut *self.shared.formed_log.lock());
        Ok(NodeReport {
            snapshot,
            blocks,
            outputs: bundle.outputs,
            updates: bundle.updates,
            commit_counts,
            durable_watermark,
        })
    }
}

impl<T: Transaction + Clone + 'static> Drop for Node<T> {
    fn drop(&mut self) {
        // A dropped (not shut down) node still closes and joins so the
        // executor thread never outlives the storage it borrows.
        self.shared.mempool.close();
        if let Some(handle) = self.executor.take() {
            let _ = handle.join();
        }
        if let Some((stop, handle)) = self.monitor.take() {
            stop.store(true, Ordering::Release);
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}
