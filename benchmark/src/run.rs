//! Runs one workload: repetitions of set-up, timed section and correctness
//! gate until `--seconds` of timed work are done, then (traced runs only) the
//! layer drivers; reduces the repetitions to one median per metric.
//!
//! A repetition does a fixed count of work over inputs regenerated from the
//! seed, so repetitions of one run — and of two runs with the same seed — are
//! the same work, and what differs between them is noise. Every metric is
//! computed per repetition and the median is reported, with the extremes kept
//! as the spread; `--seconds` only decides how many repetitions there are.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::pacing::{self, GeneratorReport, StampClock};
use crate::stamps::{Stage, Stamps, UNSET};
use crate::stats::{quantile_sorted, ratio, Spread};
use crate::sut::{
    self, BlockReference, BlockSystem, EngineCounts, NodeOutcome, NodeSystem, PersistCounts, Phases,
};
use crate::trace::Tracer;
use crate::workloads::{BlockFamily, BlockShape, NodeShape, Scale, Shape, Workload};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What `--seed`, `--seconds`, `--trace` and `--smoke` select.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Timed work per run, seconds.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced repetitions, run the layer
    /// drivers, report the per-layer metrics and write the trace file.
    pub trace: bool,
    pub scale: Scale,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// One reported metric: its declaration and its value over the repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub def: &'static MetricDef,
    pub spread: Spread,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: &'static str,
    /// Every correctness gate held in every repetition.
    pub correct: bool,
    /// Transactions handed to the system in timed sections.
    pub attempted: u64,
    /// Of those, the transactions of repetitions that violated a correctness
    /// gate, and — when most repetitions of an open-loop run were overloaded —
    /// of the overloaded ones; each also misses any latency limit.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), in table order.
    pub metrics: Vec<MetricValue>,
    /// Violated gates and overloaded repetitions, one line each.
    pub notes: Vec<String>,
}

/// Worker threads for block workloads (`T`) and for node workloads
/// (`T_node`, which leaves one hardware thread to the generator).
pub fn thread_counts() -> (usize, usize) {
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    (hardware, hardware.saturating_sub(1).max(1))
}

const MIN_REPS_UNTRACED: usize = 3;
/// Two untraced and two traced repetitions at least.
const MIN_REPS_TRACED: usize = 4;
const MAX_REPS: usize = 64;
/// Open loop: a repetition whose generator ran later than this at its 99th
/// percentile measured the generator, not the node.
const MAX_GENERATOR_LAG_NS: u64 = 1_000_000;
/// How long the generator waits for the last commit before giving up.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(60);

/// One repetition's numbers.
#[derive(Debug, Default)]
struct Rep {
    traced: bool,
    setup: Duration,
    /// Length of the timed section.
    timed: Duration,
    /// `committed_tps` and the four latency quantiles, in [`END_TO_END`] order.
    e2e: [f64; 5],
    latency_samples: usize,
    /// Per-layer metrics this repetition can compute on its own.
    layer: BTreeMap<&'static str, f64>,
    attempted: u64,
    /// Correctness gates this repetition violated.
    violations: Vec<String>,
    /// Open loop: why this repetition measured an overloaded node or a late
    /// generator instead of the node at the scheduled rate.
    overload: Vec<String>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The `low` and `high` quantiles of `ns` in milliseconds; `(0, 0)` for an
/// empty sample (a stage nothing went through).
fn quantiles_ms(mut ns: Vec<u64>, low: f64, high: f64) -> (f64, f64) {
    if ns.is_empty() {
        return (0.0, 0.0);
    }
    ns.sort_unstable();
    (
        ms(quantile_sorted(&ns, low)),
        ms(quantile_sorted(&ns, high)),
    )
}

fn quantile_of(ns: Vec<u64>, q: f64) -> u64 {
    if ns.is_empty() {
        0
    } else {
        quantile_sorted(&sorted(ns), q)
    }
}

fn sorted(mut ns: Vec<u64>) -> Vec<u64> {
    ns.sort_unstable();
    ns
}

/// The count-derived per-layer metrics of one repetition.
fn count_metrics(
    layer: &mut BTreeMap<&'static str, f64>,
    counts: &EngineCounts,
    persist: &PersistCounts,
    threads: usize,
    wall_ns: u64,
) {
    let per_txn = |count: u64| ratio(count as f64, counts.txns as f64);
    let per_block = |count: u64| ratio(count as f64, counts.chain_blocks as f64);
    layer.insert("vm.gas_per_txn", per_txn(counts.gas));
    layer.insert("core.incarnations_per_txn", per_txn(counts.incarnations));
    layer.insert("core.validations_per_txn", per_txn(counts.validations));
    layer.insert(
        "core.abort_rate",
        ratio(
            counts.validation_failures as f64,
            counts.incarnations as f64,
        ),
    );
    layer.insert(
        "core.commit_lag_avg",
        ratio(counts.commit_lag_sum as f64, counts.committed_txns as f64),
    );
    layer.insert("scheduler.polls_per_txn", per_txn(counts.scheduler_polls));
    layer.insert("scheduler.yields_per_txn", per_txn(counts.scheduler_yields));
    layer.insert(
        "scheduler.validation_failures_per_txn",
        per_txn(counts.validation_failures),
    );
    layer.insert(
        "scheduler.dependency_aborts_per_txn",
        per_txn(counts.dependency_aborts),
    );
    layer.insert(
        "mvmemory.cache_hit_share",
        ratio(
            counts.location_cache_hits as f64,
            counts.location_resolutions as f64,
        ),
    );
    layer.insert(
        "mvmemory.committed_prefix_reads_per_txn",
        per_txn(counts.committed_prefix_reads),
    );
    layer.insert(
        "mvmemory.delta_resolutions_per_txn",
        per_txn(counts.delta_resolutions),
    );
    layer.insert(
        "mvmemory.delta_chain_len_max",
        counts.delta_chain_len_max as f64,
    );
    layer.insert(
        "persist.cache_hit_share",
        ratio(
            persist.cache_hits as f64,
            (persist.cache_hits + persist.cache_misses) as f64,
        ),
    );
    layer.insert("persist.disk_reads_per_txn", per_txn(persist.disk_reads));
    layer.insert(
        "persist.syncs_per_1k_commits",
        1e3 * ratio(persist.syncs as f64, persist.commit_events as f64),
    );
    layer.insert(
        "persist.bytes_per_commit",
        ratio(persist.log_bytes as f64, persist.commit_events as f64),
    );
    layer.insert(
        "node.chain_sweeps_per_block",
        per_block(counts.chain_sweeps),
    );
    layer.insert(
        "node.chain_idle_share",
        ratio(counts.chain_idle_ns as f64, wall_ns as f64 * threads as f64),
    );
    layer.insert(
        "node.cross_block_aborts_per_block",
        per_block(counts.chain_cross_block_aborts),
    );
    layer.insert("node.runahead_avg", per_block(counts.chain_runahead_sum));
}

/// Turns a set-up's phases into consecutive spans starting at `start_ns`.
fn setup_spans(tracer: &mut Tracer, phases: &Phases, start_ns: u64, rep: u64) {
    let mut cursor = start_ns;
    for (name, duration) in &phases.0 {
        let end = cursor + duration.as_nanos() as u64;
        tracer.span(0, name, cursor, end, rep);
        cursor = end;
    }
}

// ---------------------------------------------------------------------------
// Block workloads
// ---------------------------------------------------------------------------

fn block_rep(
    shape: &BlockShape,
    options: &RunOptions,
    threads: usize,
    traced: bool,
    rep_index: u64,
    tracer: Option<&mut Tracer>,
    reference: &mut Option<BlockReference>,
) -> Result<Rep, String> {
    let warmup_txns = shape.warmup_blocks * shape.block_txns;
    let timed_txns = shape.distinct_blocks * shape.block_txns;
    let stamps = Arc::new(Stamps::new(warmup_txns + timed_txns));
    let mut phases = Phases::default();

    let setup_start_ns = stamps.now_ns();
    let setup_start = Instant::now();
    let mut system =
        BlockSystem::setup(shape, options.seed, threads, &stamps, traced, &mut phases)?;
    let setup = setup_start.elapsed();

    // The timed section: every distinct block once, one caller, closed loop.
    let mut calls: Vec<Range<u64>> = Vec::with_capacity(system.num_blocks());
    let timed_start_ns = stamps.now_ns();
    for index in 0..system.num_blocks() {
        let start_ns = stamps.now_ns();
        system.execute(index)?;
        calls.push(start_ns..stamps.now_ns());
    }
    let wall_ns = stamps.now_ns() - timed_start_ns;

    // A transaction is handed to the system when its block is.
    let timed_ids = warmup_txns as u64..(warmup_txns + timed_txns) as u64;
    for id in timed_ids.clone() {
        let call = &calls[(id - timed_ids.start) as usize / shape.block_txns];
        stamps.set(Stage::Due, id, call.start);
    }
    let latencies = stamps.intervals(Stage::Due, Stage::Committed, timed_ids.clone());
    let latency_samples = latencies.len();
    let (p50, p99) = quantiles_ms(latencies, 0.50, 0.99);

    if reference.is_none() {
        *reference = Some(BlockReference::compute(shape, options.seed)?);
    }
    let (attempted, failed) = system.verify(reference.as_ref().expect("computed above"));
    let mut violations = Vec::new();
    if failed > 0 {
        violations.push(format!(
            "{failed} of {attempted} transactions are in blocks whose updates differ from the \
             sequential execution"
        ));
    }
    if latency_samples as u64 != attempted {
        violations.push(format!(
            "{latency_samples} commit stamps for {attempted} transactions"
        ));
    }

    let mut layer = BTreeMap::new();
    count_metrics(
        &mut layer,
        &system.counts(),
        &system.persist_counts(),
        threads,
        wall_ns,
    );
    let (block_p50, block_p90) = quantiles_ms(
        calls.iter().map(|call| call.end - call.start).collect(),
        0.50,
        0.90,
    );
    layer.insert("core.block_ms_p50", block_p50);
    layer.insert("core.block_ms_p90", block_p90);

    if let Some(tracer) = tracer {
        setup_spans(tracer, &phases, setup_start_ns, rep_index);
        for (index, call) in calls.iter().enumerate() {
            tracer.span(0, "block", call.start, call.end, index as u64);
        }
    }

    Ok(Rep {
        traced,
        setup,
        timed: Duration::from_nanos(wall_ns),
        // Nothing is written to disk, so a commit is final: durable latency
        // is commit latency.
        e2e: [
            ratio(timed_txns as f64, wall_ns as f64 / 1e9),
            p50,
            p99,
            p50,
            p99,
        ],
        latency_samples,
        layer,
        attempted,
        violations,
        overload: Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// Node workloads
// ---------------------------------------------------------------------------

/// What the generator thread brings back.
struct Generated {
    report: GeneratorReport,
    backlog_end: usize,
    last_commit_ns: u64,
    final_flush: Duration,
    timed_out: bool,
}

/// The generator thread: submits the timed stream, samples the durable
/// watermark between submissions, waits for the last commit, then runs the
/// durability barrier and stamps whatever became durable through it.
fn generate(
    system: &NodeSystem,
    stamps: &Stamps,
    shape: &NodeShape,
    ids: Range<u64>,
    traced: bool,
) -> Generated {
    let mut next_durable = 0u64;
    let mut sample_durable = |now_ns: u64| {
        if let Some(watermark) = system.durable_watermark() {
            while next_durable < watermark {
                stamps.set(Stage::Durable, next_durable, now_ns);
                next_durable += 1;
            }
        }
    };
    let offset = shape
        .rate_tps
        .map(|tps| move |index: u64| sut::fixed_rate_offset_ns(tps, index));
    let report = pacing::drive(
        &StampClock::new(stamps),
        stamps,
        ids.clone(),
        offset.as_ref().map(|f| f as &dyn Fn(u64) -> u64),
        traced,
        |id| system.submit(id),
        &mut sample_durable,
    );
    let backlog_end = system.mempool_depth();

    let deadline = Instant::now() + COMMIT_TIMEOUT;
    let mut timed_out = false;
    while stamps.committed() < ids.end {
        if Instant::now() > deadline {
            timed_out = true;
            break;
        }
        sample_durable(stamps.now_ns());
        std::thread::yield_now();
    }
    let last_commit_ns = stamps.get(Stage::Committed, ids.end - 1);

    let flush_start = Instant::now();
    let flushed = system.flush_durable();
    let final_flush = flush_start.elapsed();
    sample_durable(stamps.now_ns());
    Generated {
        report,
        backlog_end,
        last_commit_ns,
        final_flush,
        timed_out: timed_out || flushed.is_err(),
    }
}

/// `begin_block → the block's last commit` per formed block, from a traced
/// repetition's stamps (ids of one block share their dispatch stamp).
fn node_block_walls(stamps: &Stamps, ids: Range<u64>) -> Vec<u64> {
    let mut walls = Vec::new();
    let mut current: Option<(u64, u64)> = None;
    for id in ids {
        let (dispatched, committed) = (
            stamps.get(Stage::Dispatched, id),
            stamps.get(Stage::Committed, id),
        );
        if dispatched == UNSET || committed == UNSET {
            continue;
        }
        match &mut current {
            Some((start, end)) if *start == dispatched => *end = committed,
            _ => {
                if let Some((start, end)) = current {
                    walls.push(end.saturating_sub(start));
                }
                current = Some((dispatched, committed));
            }
        }
    }
    if let Some((start, end)) = current {
        walls.push(end.saturating_sub(start));
    }
    walls
}

fn node_txn_spans(tracer: &mut Tracer, stamps: &Stamps, ids: Range<u64>, durable: bool) {
    const CHAIN: [(&str, Stage, Stage); 5] = [
        ("txn.wait", Stage::Due, Stage::SubmitStart),
        ("txn.submit", Stage::SubmitStart, Stage::SubmitEnd),
        ("txn.queue", Stage::SubmitEnd, Stage::Dispatched),
        ("txn.exec", Stage::Dispatched, Stage::Committed),
        ("txn.durable", Stage::Committed, Stage::Durable),
    ];
    let last = if durable {
        Stage::Durable
    } else {
        Stage::Committed
    };
    for id in ids {
        let (due, end) = (stamps.get(Stage::Due, id), stamps.get(last, id));
        if due == UNSET || end == UNSET {
            continue;
        }
        let root = tracer.span(0, "txn", due, end.max(due), id);
        for (name, from, to) in CHAIN {
            let (start, end) = (stamps.get(from, id), stamps.get(to, id));
            if start != UNSET && end != UNSET {
                tracer.span(root, name, start, end.max(start), id);
            }
        }
    }
}

fn node_rep(
    shape: &NodeShape,
    options: &RunOptions,
    threads: usize,
    traced: bool,
    rep_index: u64,
    tracer: Option<&mut Tracer>,
) -> Result<Rep, String> {
    let total = (shape.warmup_txns + shape.timed_txns) as u64;
    let timed_ids = shape.warmup_txns as u64..total;
    let stamps = Arc::new(Stamps::new(total as usize));
    let mut phases = Phases::default();

    let setup_start_ns = stamps.now_ns();
    let setup_start = Instant::now();
    let system = NodeSystem::setup(shape, options.seed, threads, &stamps, traced, &mut phases)?;
    let setup = setup_start.elapsed();

    // The timed section runs on the one generator thread; this thread waits.
    let generated = std::thread::scope(|scope| {
        scope
            .spawn(|| generate(&system, &stamps, shape, timed_ids.clone(), traced))
            .join()
    })
    .map_err(|_| "the generator thread panicked".to_string())?;
    let outcome: NodeOutcome = system.finish();

    let mut violations = outcome.violations.clone();
    if generated.timed_out {
        violations.push("the node did not commit or flush the stream in time".into());
    }
    let lag_p99 = quantile_of(generated.report.lateness_ns.clone(), 0.99);
    let mut overload = Vec::new();
    if shape.rate_tps.is_some() {
        // Open loop: a repetition describes the node at the scheduled rate
        // only while the node keeps up and the generator keeps its schedule.
        if lag_p99 > MAX_GENERATOR_LAG_NS {
            overload.push(format!("generator lateness p99 {:.3} ms", ms(lag_p99)));
        }
        if generated.backlog_end > 2 * shape.max_block_txns {
            overload.push(format!(
                "{} transactions queued when the last arrival was sent",
                generated.backlog_end
            ));
        }
        if generated.report.refused > 0 {
            overload.push(format!("{} submissions refused", generated.report.refused));
        }
    }

    let wall_ns = generated
        .last_commit_ns
        .saturating_sub(generated.report.first_submit_ns);
    let commit = stamps.intervals(Stage::Due, Stage::Committed, timed_ids.clone());
    let latency_samples = commit.len();
    if latency_samples != shape.timed_txns {
        violations.push(format!(
            "{latency_samples} commit stamps for {} transactions",
            shape.timed_txns
        ));
    }
    let (commit_p50, commit_p99) = quantiles_ms(commit, 0.50, 0.99);
    let (durable_p50, durable_p99) = if shape.durable {
        let durable = stamps.intervals(Stage::Due, Stage::Durable, timed_ids.clone());
        if durable.len() != shape.timed_txns {
            violations.push(format!(
                "{} durable stamps for {} transactions",
                durable.len(),
                shape.timed_txns
            ));
        }
        quantiles_ms(durable, 0.50, 0.99)
    } else {
        // No disk tier: a commit is final.
        (commit_p50, commit_p99)
    };

    let mut layer = BTreeMap::new();
    count_metrics(
        &mut layer,
        &outcome.counts,
        &outcome.persist,
        threads,
        wall_ns,
    );
    layer.insert(
        "node.block_fill_avg",
        ratio(outcome.formed_txns as f64, outcome.formed_blocks as f64),
    );
    layer.insert("node.backlog_end", generated.backlog_end as f64);
    layer.insert("node.backpressure_retries", generated.report.refused as f64);
    layer.insert(
        "node.shutdown_drain_ms",
        outcome.shutdown.as_secs_f64() * 1e3,
    );
    layer.insert("bench.gen_lag_ms_p99", ms(lag_p99));
    if shape.durable {
        layer.insert(
            "persist.stage_durable_ms_p50",
            ms(quantile_of(
                stamps.intervals(Stage::Committed, Stage::Durable, timed_ids.clone()),
                0.50,
            )),
        );
        layer.insert(
            "persist.final_flush_ms",
            generated.final_flush.as_secs_f64() * 1e3,
        );
    }
    if traced {
        let stage = |from, to, q| quantile_of(stamps.intervals(from, to, timed_ids.clone()), q);
        let submit =
            sorted(stamps.intervals(Stage::SubmitStart, Stage::SubmitEnd, timed_ids.clone()));
        if !submit.is_empty() {
            layer.insert("node.submit_ns_p50", quantile_sorted(&submit, 0.50) as f64);
            layer.insert("node.submit_ns_p99", quantile_sorted(&submit, 0.99) as f64);
        }
        layer.insert(
            "node.stage_queue_ms_p50",
            ms(stage(Stage::SubmitEnd, Stage::Dispatched, 0.50)),
        );
        layer.insert(
            "node.stage_exec_ms_p50",
            ms(stage(Stage::Dispatched, Stage::Committed, 0.50)),
        );
        let (block_p50, block_p90) =
            quantiles_ms(node_block_walls(&stamps, timed_ids.clone()), 0.50, 0.90);
        layer.insert("core.block_ms_p50", block_p50);
        layer.insert("core.block_ms_p90", block_p90);
    }
    if let Some(tracer) = tracer {
        setup_spans(tracer, &phases, setup_start_ns, rep_index);
        node_txn_spans(tracer, &stamps, timed_ids.clone(), shape.durable);
    }

    Ok(Rep {
        traced,
        setup,
        timed: Duration::from_nanos(wall_ns),
        e2e: [
            ratio(shape.timed_txns as f64, wall_ns as f64 / 1e9),
            commit_p50,
            commit_p99,
            durable_p50,
            durable_p99,
        ],
        latency_samples,
        layer,
        attempted: shape.timed_txns as u64,
        violations,
        overload,
    })
}

// ---------------------------------------------------------------------------
// Layer drivers and the reduction
// ---------------------------------------------------------------------------

/// Iterations per driver: enough for a stable mean at full scale, a token
/// amount for smoke runs.
struct DriverSizes {
    empty_blocks: usize,
    scheduler_blocks: usize,
    mvmemory_rounds: usize,
    pool_roundtrips: usize,
    get_rounds: usize,
    append_batches: usize,
}

impl DriverSizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => DriverSizes {
                empty_blocks: 2_000,
                scheduler_blocks: 200,
                mvmemory_rounds: 20,
                pool_roundtrips: 5_000,
                get_rounds: 20,
                append_batches: 100,
            },
            Scale::Smoke => DriverSizes {
                empty_blocks: 50,
                scheduler_blocks: 5,
                mvmemory_rounds: 2,
                pool_roundtrips: 100,
                get_rounds: 2,
                append_batches: 5,
            },
        }
    }
}

/// Transactions per block the scheduler driver claims tasks over (the block
/// workloads' block size).
const SCHEDULER_DRIVER_TXNS: usize = 1_000;
/// The commits one paced block hands to the log in one batch.
const APPEND_DRIVER_TXNS: usize = 40;

/// Times each layer's public functions from outside. `driver_shape` is the
/// block the mvmemory and storage drivers replay: the workload's own first
/// block, or for a node workload one block of its transaction family over its
/// account universe.
fn run_drivers(
    layer: &mut BTreeMap<&'static str, f64>,
    workload: &Workload,
    options: &RunOptions,
    threads: usize,
    block_reference: Option<&BlockReference>,
) -> Result<(), String> {
    let sizes = DriverSizes::of(options.scale);
    layer.insert(
        "core.empty_block_us",
        sut::driver_empty_block_us(threads, sizes.empty_blocks)?,
    );
    layer.insert(
        "scheduler.task_ns_solo",
        sut::driver_scheduler_task_ns(1, SCHEDULER_DRIVER_TXNS, sizes.scheduler_blocks),
    );
    layer.insert(
        "scheduler.task_ns_shared",
        sut::driver_scheduler_task_ns(threads, SCHEDULER_DRIVER_TXNS, sizes.scheduler_blocks),
    );
    layer.insert(
        "sync.pool_roundtrip_us",
        sut::driver_pool_roundtrip_us(threads, sizes.pool_roundtrips),
    );

    let (driver_shape, owned_reference);
    let reference = match (workload.shape, block_reference) {
        (Shape::Block(shape), Some(reference)) => {
            // Block k's inputs depend only on the seed and k, so one block is
            // the workload's own first block.
            driver_shape = BlockShape {
                distinct_blocks: 1,
                ..shape
            };
            reference
        }
        (Shape::Block(_), None) => return Err("block reference missing".into()),
        (Shape::Node(shape), _) => {
            driver_shape = BlockShape {
                family: BlockFamily::FeeDelta,
                accounts: shape.accounts,
                block_txns: shape.max_block_txns,
                distinct_blocks: 1,
                warmup_blocks: 0,
                on_disk: false,
            };
            owned_reference = BlockReference::compute(&driver_shape, options.seed)?;
            &owned_reference
        }
    };
    let mv = sut::driver_mvmemory(
        &driver_shape,
        options.seed,
        reference,
        sizes.mvmemory_rounds,
    );
    layer.insert("mvmemory.read_ns", mv.read_ns);
    layer.insert("mvmemory.record_ns_per_write", mv.record_ns_per_write);
    layer.insert("mvmemory.validate_ns_per_read", mv.validate_ns_per_read);
    layer.insert("mvmemory.reset_us", mv.reset_us);
    layer.insert(
        "storage.get_ns",
        sut::driver_storage_get_ns(&driver_shape, options.seed, reference, sizes.get_rounds),
    );

    // The disk tier's drivers run only where the workload uses that side of it.
    match workload.shape {
        Shape::Block(shape) if shape.on_disk => {
            let reads = sut::driver_persist_reads(
                &driver_shape,
                options.seed,
                reference,
                sizes.get_rounds,
            )?;
            layer.insert("persist.get_ns_cold", reads.get_ns_cold);
            layer.insert("persist.get_ns_cached", reads.get_ns_cached);
            layer.insert("persist.prefetch_us_per_block", reads.prefetch_us_per_block);
        }
        Shape::Node(shape) if shape.durable => {
            layer.insert(
                "persist.append_us_per_batch",
                sut::driver_persist_append_us(
                    &shape,
                    options.seed,
                    APPEND_DRIVER_TXNS,
                    sizes.append_batches,
                )?,
            );
        }
        _ => {}
    }
    Ok(())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    Spread::of(&values.collect::<Vec<_>>()).map_or(0.0, |spread| spread.median)
}

/// Runs `workload` once under `options`.
pub fn run(workload: &Workload, options: &RunOptions) -> Result<RunResult, String> {
    let (block_threads, node_threads) = thread_counts();
    let threads = match workload.shape {
        Shape::Block(_) => block_threads,
        Shape::Node(_) => node_threads,
    };
    let min_reps = if options.trace {
        MIN_REPS_TRACED
    } else {
        MIN_REPS_UNTRACED
    };
    let mut tracer = Tracer::new();
    let mut block_reference = None;
    let mut reps: Vec<Rep> = Vec::new();
    let mut timed = 0.0;
    while (timed < options.seconds || reps.len() < min_reps) && reps.len() < MAX_REPS {
        let rep_index = reps.len() as u64;
        // A traced run alternates, so both kinds see the same machine state.
        let traced = options.trace && rep_index % 2 == 1;
        // The trace file holds the first traced repetition.
        let tracer = (traced && rep_index == 1).then_some(&mut tracer);
        let rep = match &workload.shape {
            Shape::Block(shape) => block_rep(
                shape,
                options,
                threads,
                traced,
                rep_index,
                tracer,
                &mut block_reference,
            )?,
            Shape::Node(shape) => node_rep(shape, options, threads, traced, rep_index, tracer)?,
        };
        timed += rep.timed.as_secs_f64();
        reps.push(rep);
    }

    // Every metric is a median over the repetitions, so a minority of
    // overloaded repetitions (the generator lost its processor for a moment)
    // is an outlier the medians already discard. When most were overloaded the
    // medians describe an overloaded node, and those transactions failed.
    let overloaded = reps.iter().filter(|rep| !rep.overload.is_empty()).count();
    let run_overloaded = 2 * overloaded > reps.len();
    let attempted = reps.iter().map(|rep| rep.attempted).sum();
    let failed = reps
        .iter()
        .filter(|rep| !rep.violations.is_empty() || (run_overloaded && !rep.overload.is_empty()))
        .map(|rep| rep.attempted)
        .sum();
    let correct = reps.iter().all(|rep| rep.violations.is_empty());
    let notes: Vec<String> = reps
        .iter()
        .enumerate()
        .flat_map(|(index, rep)| {
            let violations = rep
                .violations
                .iter()
                .map(move |v| format!("rep {index}: {v}"));
            let overload = rep
                .overload
                .iter()
                .map(move |o| format!("rep {index}: overloaded: {o}"));
            violations.chain(overload)
        })
        .collect();

    // End-to-end numbers always come from untraced repetitions.
    let spread_of = |values: Vec<f64>| Spread::of(&values).expect("at least one repetition");
    let e2e: Vec<Spread> = (0..5)
        .map(|index| {
            spread_of(
                reps.iter()
                    .filter(|rep| !rep.traced)
                    .map(|rep| rep.e2e[index])
                    .collect(),
            )
        })
        .collect();
    let metrics = if options.trace {
        per_layer_metrics(
            workload,
            options,
            threads,
            &reps,
            &e2e,
            block_reference.as_ref(),
        )?
    } else {
        // [`END_TO_END`] order: the five per-repetition metrics, then memory,
        // then set-up.
        let setup = spread_of(reps.iter().map(|rep| rep.setup.as_secs_f64()).collect());
        let spreads = e2e.into_iter().chain([Spread::point(peak_rss_mb()), setup]);
        END_TO_END
            .iter()
            .zip(spreads)
            .map(|(def, spread)| MetricValue { def, spread })
            .collect()
    };

    if options.trace {
        let path = options
            .out_dir
            .join(format!("trace-{}.json", workload.name));
        tracer
            .write(workload.name, &path)
            .map_err(|err| format!("writing {}: {err}", path.display()))?;
    }
    Ok(RunResult {
        workload: workload.name,
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn per_layer_metrics(
    workload: &Workload,
    options: &RunOptions,
    threads: usize,
    reps: &[Rep],
    e2e: &[Spread],
    block_reference: Option<&BlockReference>,
) -> Result<Vec<MetricValue>, String> {
    // Each repetition's own layer metrics, reduced to their median over the
    // repetitions that have them (stage metrics exist only in traced ones).
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for def in PER_LAYER {
        let values: Vec<f64> = reps
            .iter()
            .filter_map(|rep| rep.layer.get(def.name).copied())
            .collect();
        if let Some(spread) = Spread::of(&values) {
            layer.insert(def.name, spread.median);
        }
    }

    let untraced_tps = e2e[0].median;
    let traced_tps = median_of(reps.iter().filter(|rep| rep.traced).map(|rep| rep.e2e[0]));
    let (sequential_txns, sequential_wall) = match (&workload.shape, block_reference) {
        (Shape::Block(_), Some(reference)) => (reference.txns, reference.wall),
        (Shape::Node(shape), _) => {
            let (txns, _gas, wall) = sut::node_sequential_pass(shape, options.seed)?;
            (txns, wall)
        }
        (Shape::Block(_), None) => return Err("block reference missing".into()),
    };
    let seq_tps = ratio(sequential_txns as f64, sequential_wall.as_secs_f64());
    layer.insert("vm.seq_tps", seq_tps);
    let speedup = ratio(untraced_tps, seq_tps);
    layer.insert("core.speedup_vs_seq", speedup);
    layer.insert("core.parallel_efficiency", speedup / threads as f64);

    run_drivers(&mut layer, workload, options, threads, block_reference)?;

    layer.insert(
        "bench.trace_overhead_pct",
        100.0 * ratio(untraced_tps - traced_tps, untraced_tps),
    );
    let worst_spread = e2e.iter().map(Spread::relative).fold(0.0, f64::max);
    layer.insert("bench.rep_spread_pct", 100.0 * worst_spread);
    layer.insert("bench.repetitions", reps.len() as f64);
    layer.insert(
        "bench.latency_samples_per_rep",
        median_of(reps.iter().map(|rep| rep.latency_samples as f64)),
    );

    Ok(PER_LAYER
        .iter()
        .map(|def| MetricValue {
            def,
            // A layer the workload does not use did nothing: 0.
            spread: Spread::point(layer.get(def.name).copied().unwrap_or(0.0)),
        })
        .collect())
}
