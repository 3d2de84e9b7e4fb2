//! The system under test, behind one adapter: **the only file that names a
//! type of the repository**.
//!
//! Everything else in the benchmark sees plain numbers, durations and the
//! small structs defined here, so a refactor of the engine, node or persist
//! APIs is absorbed by editing this file alone and the harness — workloads,
//! pacing, statistics, reports — stays frozen across it. For the same reason
//! the adapter uses only builder defaults plus `.concurrency`, `.commit_sink`,
//! `.durability`, `max_block_txns`, `max_wait` and `mempool_capacity`: no
//! ablation knob that a later simplification may delete.
//!
//! Three groups: [`BlockSystem`] (the `execute_block` loop), [`NodeSystem`]
//! (the node service) and the `driver_*` functions that time calls into one
//! layer's public functions from outside.

use crate::pacing::Admission;
use crate::stamps::Stamps;
use crate::workloads::{BlockFamily, BlockShape, NodeShape};
use block_stm::{
    BlockOutput, BlockStm, BlockStmBuilder, CommitEvent, CommitSink, GasSchedule, MetricsSnapshot,
    SequentialExecutor, Transaction, TransactionOutput, Version, Vm,
};
use block_stm_mvmemory::{MVMemory, MVReadOutput, ReadDescriptor};
use block_stm_node::{DurabilitySink, Node, NodeError, NodeHandle};
use block_stm_persist::testing::TempDir;
use block_stm_persist::{BlockCache, LogStore, WriteBehindSink};
use block_stm_scheduler::{Scheduler, Task};
use block_stm_storage::{AccessPath, GenesisBuilder, InMemoryStorage, StateValue, Storage};
use block_stm_sync::WorkerPool;
use block_stm_vm::p2p::PeerToPeerTransaction;
use block_stm_workloads::{
    ArrivalProcess, ConservationOracle, EthTransferTransaction, EthTransferWorkload, FeeMode,
    P2pWorkload,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Key = AccessPath;
type Val = StateValue;
type Ram = InMemoryStorage<Key, Val>;
type Disk = LogStore<Key, Val>;
type Output = BlockOutput<Key, Val>;

fn vm() -> Vm {
    Vm::new(GasSchedule::benchmark())
}

/// Derives the seed of input `index` from the run's `--seed`, so every block
/// of a run differs and the same `--seed` reproduces all of them.
fn mix(seed: u64, index: u64) -> u64 {
    (seed ^ 0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB))
}

// ---------------------------------------------------------------------------
// Counters read at the API boundary
// ---------------------------------------------------------------------------

/// Engine counters summed over the calls of a timed section, as plain data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub txns: u64,
    pub incarnations: u64,
    pub validations: u64,
    pub validation_failures: u64,
    pub dependency_aborts: u64,
    pub scheduler_polls: u64,
    pub scheduler_yields: u64,
    pub location_cache_hits: u64,
    pub location_resolutions: u64,
    pub committed_txns: u64,
    pub commit_lag_sum: u64,
    pub committed_prefix_reads: u64,
    pub delta_resolutions: u64,
    pub delta_chain_len_max: u64,
    pub chain_blocks: u64,
    pub chain_runahead_sum: u64,
    pub chain_cross_block_aborts: u64,
    pub chain_sweeps: u64,
    pub chain_idle_ns: u64,
    /// Gas charged to the committed incarnations.
    pub gas: u64,
}

impl EngineCounts {
    fn add_metrics(&mut self, m: &MetricsSnapshot) {
        self.txns += m.total_txns;
        self.incarnations += m.incarnations;
        self.validations += m.validations;
        self.validation_failures += m.validation_failures;
        self.dependency_aborts += m.dependency_aborts;
        self.scheduler_polls += m.scheduler_polls;
        self.scheduler_yields += m.scheduler_yields;
        self.location_cache_hits += m.mvmemory_cache_hits;
        self.location_resolutions +=
            m.mvmemory_cache_hits + m.mvmemory_interner_hits + m.mvmemory_interner_misses;
        self.committed_txns += m.committed_txns;
        self.commit_lag_sum += m.commit_lag_sum;
        self.committed_prefix_reads += m.committed_prefix_reads;
        self.delta_resolutions += m.delta_resolutions;
        self.delta_chain_len_max = self.delta_chain_len_max.max(m.delta_chain_len_max);
        self.chain_blocks += m.chain_blocks;
        self.chain_runahead_sum += m.chain_runahead_sum;
        self.chain_cross_block_aborts += m.chain_cross_block_aborts;
        self.chain_sweeps += m.chain_sweeps;
        self.chain_idle_ns += m.chain_idle_ns;
    }

    fn add_outputs(&mut self, outputs: &[TransactionOutput<Key, Val>]) {
        for output in outputs {
            self.gas += output.gas_used;
        }
    }
}

/// Disk-tier counters of a timed section (all zero when no store is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistCounts {
    pub disk_reads: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub frames_appended: u64,
    pub syncs: u64,
    /// Bytes the log file grew by.
    pub log_bytes: u64,
    /// Commit events made durable.
    pub commit_events: u64,
}

/// Named, timed phases of a set-up, in the order they ran.
#[derive(Debug, Default)]
pub struct Phases(pub Vec<(&'static str, Duration)>);

impl Phases {
    fn time<R>(&mut self, name: &'static str, work: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = work();
        self.0.push((name, start.elapsed()));
        result
    }
}

/// The benchmark's commit sink: stamps every delivery into [`Stamps`].
struct StampSink {
    stamps: Arc<Stamps>,
    traced: bool,
}

impl CommitSink<Key, Val> for StampSink {
    fn begin_block(&self, block_size: usize) {
        self.stamps.begin_block(block_size, self.traced);
    }

    fn on_commit(&self, _event: &CommitEvent<'_, Key, Val>) {
        self.stamps.on_commit();
    }
}

fn stamp_sink(stamps: &Arc<Stamps>, traced: bool) -> Arc<dyn CommitSink<Key, Val>> {
    Arc::new(StampSink {
        stamps: stamps.clone(),
        traced,
    })
}

// ---------------------------------------------------------------------------
// Block workloads
// ---------------------------------------------------------------------------

enum Blocks {
    P2p(Vec<Vec<PeerToPeerTransaction>>),
    Eth(Vec<Vec<EthTransferTransaction>>),
}

impl Blocks {
    fn len(&self) -> usize {
        match self {
            Blocks::P2p(blocks) => blocks.len(),
            Blocks::Eth(blocks) => blocks.len(),
        }
    }

    /// Runs `f` on block `index` with its concrete transaction type.
    fn with<R>(&self, index: usize, f: impl BlockFn<R>) -> R {
        match self {
            Blocks::P2p(blocks) => f.call(&blocks[index]),
            Blocks::Eth(blocks) => f.call(&blocks[index]),
        }
    }
}

/// A closure generic over the block's transaction type.
trait BlockFn<R> {
    fn call<T: Transaction<Key = Key, Value = Val>>(self, block: &[T]) -> R;
}

fn block_inputs(shape: &BlockShape, seed: u64) -> (GenesisBuilder, Blocks) {
    let indices = 0..shape.distinct_blocks as u64;
    match shape.family {
        BlockFamily::P2p => {
            let workload = P2pWorkload::diem(shape.accounts, shape.block_txns);
            let genesis = GenesisBuilder::new(workload.num_accounts)
                .initial_balance(workload.initial_balance);
            let blocks = indices
                .map(|k| workload.with_seed(mix(seed, k)).generate_block())
                .collect();
            (genesis, Blocks::P2p(blocks))
        }
        BlockFamily::FeeDelta => {
            let workload = EthTransferWorkload::new(shape.accounts, shape.block_txns)
                .with_zipf_s_hundredths(0)
                .with_conflict(0, 1)
                .with_fee_mode(FeeMode::Delta);
            let blocks = indices
                .map(|k| workload.with_seed(mix(seed, k)).generate_block())
                .collect();
            (workload.genesis_builder(), Blocks::Eth(blocks))
        }
    }
}

enum Store {
    Ram(Ram),
    /// `cache` is declared before `dir` so the file is closed before the
    /// directory is removed.
    Disk {
        cache: BlockCache<Key, Val>,
        _dir: TempDir,
    },
}

fn disk_store(label: &str, genesis: &GenesisBuilder) -> Result<(Arc<Disk>, TempDir), String> {
    let dir = TempDir::new(label);
    let store = Disk::open(dir.path().join("state.log")).map_err(|err| err.to_string())?;
    store
        .ingest_genesis(genesis)
        .map_err(|err| err.to_string())?;
    Ok((Arc::new(store), dir))
}

/// The sequential execution of a block workload's distinct blocks: the
/// correctness reference, and the `vm` layer's own throughput.
pub struct BlockReference {
    updates: Vec<Vec<(Key, Val)>>,
    /// The first block's per-transaction outputs: what the `mvmemory` driver
    /// replays.
    first_outputs: Vec<TransactionOutput<Key, Val>>,
    /// Transactions executed.
    pub txns: u64,
    /// Gas they were charged.
    pub gas: u64,
    /// Wall time of the sequential pass.
    pub wall: Duration,
}

impl BlockReference {
    /// Regenerates the inputs from `seed` (independently of any
    /// [`BlockSystem`], which also cross-checks that generation is
    /// deterministic) and executes every distinct block sequentially against
    /// the in-memory pre-state.
    pub fn compute(shape: &BlockShape, seed: u64) -> Result<Self, String> {
        struct Run<'a>(&'a SequentialExecutor, &'a Ram);
        impl BlockFn<Result<(Output, Duration), String>> for Run<'_> {
            fn call<T: Transaction<Key = Key, Value = Val>>(
                self,
                block: &[T],
            ) -> Result<(Output, Duration), String> {
                let start = Instant::now();
                let output = self.0.execute_block(block, self.1);
                let wall = start.elapsed();
                output.map(|o| (o, wall)).map_err(|err| err.to_string())
            }
        }
        let (genesis, blocks) = block_inputs(shape, seed);
        let storage = genesis.build();
        let sequential = SequentialExecutor::new(vm());
        let mut reference = BlockReference {
            updates: Vec::new(),
            first_outputs: Vec::new(),
            txns: 0,
            gas: 0,
            wall: Duration::ZERO,
        };
        for index in 0..blocks.len() {
            let (output, wall) = blocks.with(index, Run(&sequential, &storage))?;
            reference.txns += output.outputs.len() as u64;
            reference.gas += output.total_gas();
            reference.wall += wall;
            reference.updates.push(output.updates);
            if index == 0 {
                reference.first_outputs = output.outputs;
            }
        }
        Ok(reference)
    }
}

/// A persistent `BlockStm` engine, its pre-state and its pre-generated blocks.
pub struct BlockSystem {
    engine: BlockStm,
    blocks: Blocks,
    store: Store,
    outputs: Vec<Option<Output>>,
    warmup_blocks: usize,
    disk_reads_at_start: u64,
}

impl BlockSystem {
    /// Genesis, input generation, engine construction and warm-up. The sink
    /// stamps every commit — warm-up included — into `stamps`.
    pub fn setup(
        shape: &BlockShape,
        seed: u64,
        threads: usize,
        stamps: &Arc<Stamps>,
        traced: bool,
        phases: &mut Phases,
    ) -> Result<Self, String> {
        let (genesis, blocks) = phases.time("setup.inputs", || block_inputs(shape, seed));
        let store = phases.time("setup.genesis", || -> Result<Store, String> {
            if shape.on_disk {
                let (store, dir) = disk_store("blocks", &genesis)?;
                Ok(Store::Disk {
                    cache: BlockCache::new(store),
                    _dir: dir,
                })
            } else {
                Ok(Store::Ram(genesis.build()))
            }
        })?;
        let engine = phases.time("setup.engine", || {
            BlockStmBuilder::new(vm())
                .concurrency(threads)
                .commit_sink(stamp_sink(stamps, traced))
                .build()
        });
        let mut system = BlockSystem {
            engine,
            outputs: (0..blocks.len()).map(|_| None).collect(),
            blocks,
            store,
            warmup_blocks: shape.warmup_blocks,
            disk_reads_at_start: 0,
        };
        phases.time("warmup", || -> Result<(), String> {
            for index in 0..system.warmup_blocks {
                system.execute(index % system.blocks.len())?;
            }
            Ok(())
        })?;
        system.outputs.iter_mut().for_each(|slot| *slot = None);
        if let Store::Disk { cache, .. } = &system.store {
            system.disk_reads_at_start = cache.store().stats().disk_reads;
        }
        Ok(system)
    }

    /// Number of distinct blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Transactions in block `index`.
    fn block_txns(&self, index: usize) -> usize {
        match &self.blocks {
            Blocks::P2p(blocks) => blocks[index].len(),
            Blocks::Eth(blocks) => blocks[index].len(),
        }
    }

    /// **The timed call**: executes block `index` against the fixed pre-state
    /// and keeps its output for [`verify`](Self::verify). With the pre-state on
    /// disk the call includes the cache's block boundary and declared-set
    /// prefetch, as an embedder would issue them. (`advance_block` is not
    /// called: the pre-state is fixed, so no block's writes are absorbed.)
    pub fn execute(&mut self, index: usize) -> Result<(), String> {
        struct Run<'a>(&'a BlockStm, &'a Store);
        impl BlockFn<Result<Output, String>> for Run<'_> {
            fn call<T: Transaction<Key = Key, Value = Val>>(
                self,
                block: &[T],
            ) -> Result<Output, String> {
                match self.1 {
                    Store::Ram(storage) => self.0.execute_block(block, storage),
                    Store::Disk { cache, .. } => {
                        cache.begin_block();
                        cache
                            .prefetch_declared(block)
                            .map_err(|err| err.to_string())?;
                        self.0.execute_block(block, cache)
                    }
                }
                .map_err(|err| err.to_string())
            }
        }
        let output = self.blocks.with(index, Run(&self.engine, &self.store))?;
        self.outputs[index] = Some(output);
        Ok(())
    }

    /// Engine counters summed over the kept outputs.
    pub fn counts(&self) -> EngineCounts {
        let mut counts = EngineCounts::default();
        for output in self.outputs.iter().flatten() {
            counts.add_metrics(&output.metrics);
            counts.add_outputs(&output.outputs);
        }
        counts
    }

    /// Disk-tier counters since the warm-up ended.
    pub fn persist_counts(&self) -> PersistCounts {
        match &self.store {
            Store::Ram(_) => PersistCounts::default(),
            Store::Disk { cache, .. } => {
                let cache_stats = cache.stats();
                PersistCounts {
                    disk_reads: cache.store().stats().disk_reads - self.disk_reads_at_start,
                    cache_hits: cache_stats.hits,
                    cache_misses: cache_stats.misses,
                    ..PersistCounts::default()
                }
            }
        }
    }

    /// The correctness gate: every kept output's `updates` must be byte-equal
    /// to the sequential reference's. Returns `(attempted, failed)` in
    /// transactions; a block that was never executed counts as failed.
    pub fn verify(&self, reference: &BlockReference) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        for (index, expected) in reference.updates.iter().enumerate() {
            let txns = self.block_txns(index) as u64;
            attempted += txns;
            let matches = self.outputs[index]
                .as_ref()
                .is_some_and(|output| output.updates == *expected);
            if !matches {
                failed += txns;
            }
        }
        (attempted, failed)
    }
}

// ---------------------------------------------------------------------------
// Node workloads
// ---------------------------------------------------------------------------

fn node_workload(shape: &NodeShape, seed: u64) -> EthTransferWorkload {
    EthTransferWorkload::new(shape.accounts, shape.warmup_txns + shape.timed_txns).with_seed(seed)
}

/// How long a node may take to commit its warm-up traffic before the run is
/// abandoned (a wedged node must fail the run, not hang it).
const WARMUP_TIMEOUT: Duration = Duration::from_secs(60);

struct Durable {
    sink: Arc<WriteBehindSink<Key, Val>>,
    store: Arc<Disk>,
    /// Log size, frames and syncs after genesis ingestion, before any commit.
    log_bytes_at_start: u64,
    frames_at_start: u64,
    syncs_at_start: u64,
    dir: TempDir,
}

fn log_bytes(store: &Disk) -> u64 {
    std::fs::metadata(store.path()).map_or(0, |meta| meta.len())
}

/// What a node repetition left behind, as plain data.
#[derive(Debug, Default)]
pub struct NodeOutcome {
    /// Wall time of `Node::shutdown` (close, drain, flush, report).
    pub shutdown: Duration,
    pub counts: EngineCounts,
    pub persist: PersistCounts,
    pub formed_blocks: u64,
    pub formed_txns: u64,
    pub committed_txns: u64,
    /// One line per violated correctness gate; empty when all hold.
    pub violations: Vec<String>,
}

/// A running node service, the stream it is fed and the stamps its sink fills.
pub struct NodeSystem {
    node: Node<EthTransferTransaction>,
    handle: NodeHandle<EthTransferTransaction>,
    stream: Vec<EthTransferTransaction>,
    genesis: Ram,
    oracle: ConservationOracle,
    durable: Option<Durable>,
}

impl NodeSystem {
    /// Genesis, stream generation, store and node construction, and warm-up:
    /// the first `warmup_txns` of the stream are submitted closed-loop and
    /// waited for, so the timed stream meets a node with sized arenas, a warm
    /// pool and (when durable) an open log.
    pub fn setup(
        shape: &NodeShape,
        seed: u64,
        threads: usize,
        stamps: &Arc<Stamps>,
        traced: bool,
        phases: &mut Phases,
    ) -> Result<Self, String> {
        let workload = node_workload(shape, seed);
        let stream = phases.time("setup.inputs", || workload.generate_block());
        let genesis = phases.time("setup.genesis", || workload.genesis());
        let durable = if shape.durable {
            Some(phases.time("setup.store", || -> Result<Durable, String> {
                let (store, dir) = disk_store("node", &workload.genesis_builder())?;
                let stats = store.stats();
                Ok(Durable {
                    sink: Arc::new(WriteBehindSink::new(store.clone())),
                    log_bytes_at_start: log_bytes(&store),
                    frames_at_start: stats.frames_appended,
                    syncs_at_start: stats.syncs,
                    store,
                    dir,
                })
            })?)
        } else {
            None
        };
        let node = phases.time("setup.node", || {
            let mut builder = Node::builder(vm(), genesis.clone())
                .concurrency(threads)
                .mempool_capacity(shape.mempool_capacity)
                .max_block_txns(shape.max_block_txns)
                .max_wait(Duration::from_millis(shape.max_wait_ms))
                .commit_sink(stamp_sink(stamps, traced));
            if let Some(durable) = &durable {
                builder =
                    builder.durability(durable.sink.clone() as Arc<dyn DurabilitySink<Key, Val>>);
            }
            builder.start().map_err(|err| err.to_string())
        })?;
        let system = NodeSystem {
            handle: node.handle(),
            node,
            stream,
            genesis,
            oracle: ConservationOracle::new().with_beneficiary(workload.beneficiary()),
            durable,
        };
        phases.time("warmup", || -> Result<(), String> {
            for id in 0..shape.warmup_txns as u64 {
                while system.submit(id) == Admission::Full {
                    std::thread::yield_now();
                }
            }
            let deadline = Instant::now() + WARMUP_TIMEOUT;
            while stamps.committed() < shape.warmup_txns as u64 {
                if Instant::now() > deadline {
                    return Err("the node did not commit its warm-up traffic".into());
                }
                std::thread::yield_now();
            }
            Ok(())
        })?;
        Ok(system)
    }

    /// Submits transaction `id` of the stream. Ids must be submitted in
    /// order, each until accepted: the node assigns dense ids first-in
    /// first-out, which is what lets the sink map commits back to them.
    pub fn submit(&self, id: u64) -> Admission {
        match self.handle.submit(self.stream[id as usize]) {
            Ok(assigned) => {
                debug_assert_eq!(assigned, id, "the node assigns dense FIFO ids");
                Admission::Accepted
            }
            Err(NodeError::MempoolFull { .. }) => Admission::Full,
            Err(err) => panic!("submission {id} failed: {err}"),
        }
    }

    /// Transactions queued in the mempool right now.
    pub fn mempool_depth(&self) -> usize {
        self.handle.mempool_depth()
    }

    /// The store's durable watermark in commit events; `None` without a
    /// durability tier.
    pub fn durable_watermark(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .map(|durable| durable.store.durable_watermark())
    }

    /// The durability barrier: blocks until every commit delivered so far is
    /// fsynced; returns the watermark.
    pub fn flush_durable(&self) -> Result<u64, String> {
        match &self.durable {
            Some(durable) => durable.sink.flush().map_err(|err| err.to_string()),
            None => Ok(0),
        }
    }

    /// Shuts the node down and runs the correctness gates: exactly-once
    /// commits, value conservation over every formed block, and — with a
    /// durability tier — a reopen of the log that must recover exactly the
    /// committed state and a watermark equal to the committed count.
    pub fn finish(self) -> NodeOutcome {
        let NodeSystem {
            node,
            handle,
            stream,
            genesis,
            oracle,
            durable,
            ..
        } = self;
        drop(handle);
        let mut outcome = NodeOutcome::default();
        let start = Instant::now();
        let report = match node.shutdown() {
            Ok(report) => report,
            Err(err) => {
                outcome.violations.push(format!("shutdown failed: {err}"));
                return outcome;
            }
        };
        outcome.shutdown = start.elapsed();
        let snapshot = &report.snapshot;
        outcome.formed_blocks = snapshot.formed_blocks;
        outcome.formed_txns = snapshot.formed_txns;
        outcome.committed_txns = snapshot.committed_txns;
        outcome.counts.add_metrics(&snapshot.engine);

        if !report.committed_exactly_once() {
            outcome.violations.push(format!(
                "exactly-once audit failed: {} submitted, {} audited",
                snapshot.submitted,
                report.commit_counts.len()
            ));
        }
        if report.blocks.concat() != stream {
            outcome
                .violations
                .push("formed blocks are not the submitted stream in order".into());
        }
        let mut state = genesis;
        for (index, (block, output)) in report.blocks.iter().zip(&report.outputs).enumerate() {
            outcome.counts.add_outputs(&output.outputs);
            if let Err(err) = oracle.check(&state, block, &output.updates, &output.outputs) {
                outcome
                    .violations
                    .push(format!("conservation oracle, block {index}: {err}"));
            }
            state.apply_updates(output.updates.iter().cloned());
        }

        if let Some(Durable {
            sink,
            store,
            log_bytes_at_start,
            frames_at_start,
            syncs_at_start,
            dir,
        }) = durable
        {
            let stats = store.stats();
            outcome.persist = PersistCounts {
                frames_appended: stats.frames_appended - frames_at_start,
                syncs: stats.syncs - syncs_at_start,
                log_bytes: log_bytes(&store).saturating_sub(log_bytes_at_start),
                commit_events: store.durable_watermark(),
                ..PersistCounts::default()
            };
            let path = store.path().to_path_buf();
            drop(sink);
            drop(store);
            match Disk::open(&path) {
                Ok(reopened) => {
                    let watermark = reopened.recovery().durable_watermark;
                    if watermark != outcome.committed_txns {
                        outcome.violations.push(format!(
                            "recovered watermark {watermark} != committed {}",
                            outcome.committed_txns
                        ));
                    }
                    let stale = report
                        .updates
                        .iter()
                        .filter(|(key, value)| reopened.get(key).as_ref() != Some(value))
                        .count();
                    if stale > 0 {
                        outcome.violations.push(format!(
                            "{stale} of {} committed locations differ after reopening the log",
                            report.updates.len()
                        ));
                    }
                }
                Err(err) => outcome.violations.push(format!("reopening the log: {err}")),
            }
            drop(dir);
        }
        outcome
    }
}

/// The sequential execution of a node workload's whole stream as one block:
/// the `vm` layer's own throughput on these inputs.
pub fn node_sequential_pass(shape: &NodeShape, seed: u64) -> Result<(u64, u64, Duration), String> {
    let workload = node_workload(shape, seed);
    let (genesis, stream) = workload.generate();
    let start = Instant::now();
    let output = SequentialExecutor::new(vm())
        .execute_block(&stream, &genesis)
        .map_err(|err| err.to_string())?;
    Ok((stream.len() as u64, output.total_gas(), start.elapsed()))
}

/// When transaction `index` of a fixed-rate stream is due, nanoseconds after
/// the stream's start.
pub fn fixed_rate_offset_ns(tps: u64, index: u64) -> u64 {
    ArrivalProcess::FixedRate { tps }.offset(index).as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Layer drivers: time one crate's public functions from outside
// ---------------------------------------------------------------------------

fn nanos_per(total: Duration, operations: u64) -> f64 {
    crate::stats::ratio(total.as_nanos() as f64, operations as f64)
}

/// `core`: microseconds per `execute_block` of a one-transaction block —
/// reset, pool wake and collection with (next to) no work in between.
pub fn driver_empty_block_us(threads: usize, iterations: usize) -> Result<f64, String> {
    let (storage, block) = P2pWorkload::diem(2, 1).generate();
    let engine = BlockStmBuilder::new(vm()).concurrency(threads).build();
    let mut walls: Vec<u64> = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        let output = engine
            .execute_block(&block, &storage)
            .map_err(|err| err.to_string())?;
        walls.push(start.elapsed().as_nanos() as u64);
        black_box(output);
    }
    Ok(crate::stats::quantile(&mut walls, 0.5) as f64 / 1e3)
}

/// `scheduler`: nanoseconds per task when `threads` threads drive
/// `next_task` / `finish_execution` / `finish_validation` with empty bodies
/// over `blocks` blocks of `block_txns` transactions (two tasks each).
pub fn driver_scheduler_task_ns(threads: usize, block_txns: usize, blocks: usize) -> f64 {
    let schedulers: Vec<Scheduler> = (0..blocks).map(|_| Scheduler::new(block_txns)).collect();
    let work = |scheduler: &Scheduler| {
        let mut task: Option<Task> = None;
        while !scheduler.done() {
            task = match task.take() {
                Some(t) if t.is_execution() => {
                    scheduler.finish_execution(t.version.txn_idx, t.version.incarnation, false)
                }
                Some(t) => scheduler.finish_validation(
                    t.version.txn_idx,
                    t.version.incarnation,
                    t.wave,
                    false,
                ),
                None => {
                    let next = scheduler.next_task();
                    if next.is_none() {
                        std::hint::spin_loop();
                    }
                    next
                }
            };
        }
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| schedulers.iter().for_each(work));
        }
        schedulers.iter().for_each(work);
    });
    nanos_per(start.elapsed(), (2 * block_txns * blocks) as u64)
}

/// `mvmemory` timings from replaying a sequential run, single-threaded.
#[derive(Debug, Clone, Copy, Default)]
pub struct MvMemoryTimings {
    pub read_ns: f64,
    pub record_ns_per_write: f64,
    pub validate_ns_per_read: f64,
    pub reset_us: f64,
}

/// `mvmemory`: replays the first distinct block's declared reads and the
/// sequential run's write- and delta-sets through `read` / `record` /
/// `validate_read_set` / `reset`, `rounds` times. A location the transaction
/// only adds a delta to is not read: the engine never reads it either, and
/// with no commit drain here to materialize deltas the chain under it would
/// grow to the whole block.
pub fn driver_mvmemory(
    shape: &BlockShape,
    seed: u64,
    reference: &BlockReference,
    rounds: usize,
) -> MvMemoryTimings {
    struct ReadKeys;
    impl BlockFn<Vec<Vec<Key>>> for ReadKeys {
        fn call<T: Transaction<Key = Key, Value = Val>>(self, block: &[T]) -> Vec<Vec<Key>> {
            block
                .iter()
                .map(|txn| {
                    txn.access_hints()
                        .map_or_else(Vec::new, |hints| hints.reads)
                })
                .collect()
        }
    }
    let (_, blocks) = block_inputs(shape, seed);
    let read_keys = blocks.with(0, ReadKeys);
    let outputs = &reference.first_outputs;
    let block_txns = read_keys.len();
    let mut memory: MVMemory<Key, Val> = MVMemory::new(block_txns);
    let mut read = Duration::ZERO;
    let mut record = Duration::ZERO;
    let mut validate = Duration::ZERO;
    let mut reset = Duration::ZERO;
    let (mut reads, mut writes) = (0u64, 0u64);
    for _ in 0..rounds {
        for (txn_idx, (keys, output)) in read_keys.iter().zip(outputs).enumerate() {
            let start = Instant::now();
            let read_set: Vec<ReadDescriptor<Key>> = keys
                .iter()
                .filter(|key| output.deltas.iter().all(|(delta_key, _)| delta_key != *key))
                .map(|key| match memory.read(key, txn_idx) {
                    MVReadOutput::Versioned(version, _) => {
                        ReadDescriptor::from_version(*key, version)
                    }
                    MVReadOutput::Resolved { accumulated, .. } => {
                        ReadDescriptor::from_resolved(*key, accumulated)
                    }
                    MVReadOutput::NotFound | MVReadOutput::Dependency(_) => {
                        ReadDescriptor::from_storage(*key)
                    }
                })
                .collect();
            read += start.elapsed();
            reads += read_set.len() as u64;

            let write_set: Vec<(Key, Val)> = output
                .writes
                .iter()
                .map(|write| (write.key, write.value.clone()))
                .collect();
            writes += (write_set.len() + output.deltas.len()) as u64;
            let start = Instant::now();
            black_box(memory.record_with_deltas(
                Version::new(txn_idx, 0),
                read_set,
                write_set,
                output.deltas.clone(),
            ));
            record += start.elapsed();

            let start = Instant::now();
            black_box(memory.validate_read_set(txn_idx));
            validate += start.elapsed();
        }
        let start = Instant::now();
        memory.reset(block_txns);
        reset += start.elapsed();
    }
    MvMemoryTimings {
        read_ns: nanos_per(read, reads),
        record_ns_per_write: nanos_per(record, writes),
        validate_ns_per_read: nanos_per(validate, reads),
        reset_us: nanos_per(reset, rounds as u64) / 1e3,
    }
}

/// `sync`: microseconds per `WorkerPool::run` of an empty job on `threads`
/// participants (the caller is one of them).
pub fn driver_pool_roundtrip_us(threads: usize, iterations: usize) -> f64 {
    let pool = WorkerPool::new(threads.saturating_sub(1));
    let start = Instant::now();
    for _ in 0..iterations {
        pool.run(threads, &|worker| {
            black_box(worker);
        })
        .expect("an empty job cannot panic");
    }
    nanos_per(start.elapsed(), iterations as u64) / 1e3
}

/// The locations the first distinct block writes: the key sample of the
/// storage-tier drivers.
fn key_sample(reference: &BlockReference) -> Vec<Key> {
    reference.updates[0].iter().map(|(key, _)| *key).collect()
}

fn time_gets(storage: &impl Storage<Key, Val>, keys: &[Key], rounds: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..rounds {
        for key in keys {
            black_box(storage.get(key));
        }
    }
    nanos_per(start.elapsed(), (keys.len() * rounds) as u64)
}

/// `storage`: nanoseconds per `InMemoryStorage::get` over the key sample.
pub fn driver_storage_get_ns(
    shape: &BlockShape,
    seed: u64,
    reference: &BlockReference,
    rounds: usize,
) -> f64 {
    let (genesis, _) = block_inputs(shape, seed);
    time_gets(&genesis.build(), &key_sample(reference), rounds)
}

/// `persist` read-side timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistReadTimings {
    pub get_ns_cold: f64,
    pub get_ns_cached: f64,
    pub prefetch_us_per_block: f64,
}

/// `persist`, read side: `LogStore::get` straight off the log, the same
/// keys through a prefetched `BlockCache`, and the block-boundary prefetch.
pub fn driver_persist_reads(
    shape: &BlockShape,
    seed: u64,
    reference: &BlockReference,
    rounds: usize,
) -> Result<PersistReadTimings, String> {
    struct Prefetch<'a>(&'a BlockCache<Key, Val>);
    impl BlockFn<Result<Duration, String>> for Prefetch<'_> {
        fn call<T: Transaction<Key = Key, Value = Val>>(
            self,
            block: &[T],
        ) -> Result<Duration, String> {
            let start = Instant::now();
            self.0.begin_block();
            self.0
                .prefetch_declared(block)
                .map_err(|err| err.to_string())?;
            Ok(start.elapsed())
        }
    }
    let (genesis, blocks) = block_inputs(shape, seed);
    let (store, _dir) = disk_store("driver-reads", &genesis)?;
    let keys = key_sample(reference);
    let get_ns_cold = time_gets(&*store, &keys, rounds);
    let cache = BlockCache::new(store);
    let mut prefetch = Duration::ZERO;
    for _ in 0..rounds {
        prefetch += blocks.with(0, Prefetch(&cache))?;
    }
    Ok(PersistReadTimings {
        get_ns_cold,
        get_ns_cached: time_gets(&cache, &keys, rounds),
        prefetch_us_per_block: nanos_per(prefetch, rounds as u64) / 1e3,
    })
}

/// `persist`, write side: microseconds per `LogStore::append_batch`
/// (frame, fdatasync, index, watermark) of `batch_txns` ETH transfers' worth
/// of committed state.
pub fn driver_persist_append_us(
    shape: &NodeShape,
    seed: u64,
    batch_txns: usize,
    batches: usize,
) -> Result<f64, String> {
    let workload = node_workload(shape, seed);
    let (store, _dir) = disk_store("driver-append", &workload.genesis_builder())?;
    // One balance and one sequence number per transaction is the shape of an
    // ETH transfer's committed writes; the values do not matter to the log.
    let batch: Vec<(Key, Val)> = workload
        .genesis()
        .iter()
        .take(2 * batch_txns)
        .map(|(key, value)| (*key, value.clone()))
        .collect();
    let start = Instant::now();
    for _ in 0..batches {
        store
            .append_batch(&batch, batch_txns as u64)
            .map_err(|err| err.to_string())?;
    }
    Ok(nanos_per(start.elapsed(), batches as u64) / 1e3)
}
