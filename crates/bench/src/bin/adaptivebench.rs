//! Adaptive-dispatch benchmark: the {conflict rate × txn cost × hint accuracy}
//! grid, each row executed by all four engine shapes — sequential, plain
//! Block-STM, hinted Block-STM and the per-block [`AdaptiveExecutor`] — over
//! identical hinted blocks.
//!
//! Each row prints the adaptive executor's throughput against the best and the
//! worst single engine (its decision inputs are exactly the row knobs: declared
//! conflicts, block length, hint coverage, last-block abort feedback), and the
//! run ends with the grid's worst adaptive / best ratio and its most polarized
//! row. Those ratios are printed, not asserted: throughput regressions are
//! judged by the repository benchmark (`benchmark/run.sh compare`), not by a
//! single noisy run.
//!
//! One bar is asserted because it counts work instead of timing it: on a
//! high-conflict exact-hint chain at 2 workers, hinted Block-STM must finish
//! with strictly fewer failed validations plus incarnations than unhinted
//! Block-STM (pre-registered dependencies replace doomed speculation).
//!
//! Every row's committed output is checked against the sequential oracle —
//! a fast wrong answer fails loudly.
//!
//! Run with `cargo run -p block-stm-bench --release --bin adaptivebench`.
//! Set `BLOCK_STM_BENCH_QUICK=1` for a fast smoke-test grid. Baselines are
//! recorded via `scripts/record-baseline.sh adaptivebench`.

use block_stm::{
    AdaptiveExecutor, BlockExecutor, BlockStmBuilder, GasSchedule, HintedTransaction,
    SequentialExecutor, Transaction, Vm,
};
use block_stm_bench::quick_mode;
use block_stm_storage::InMemoryStorage;
use block_stm_vm::synthetic::SyntheticTransaction;
use block_stm_workloads::SyntheticWorkload;
use serde::Serialize;
use std::time::Instant;

type HintedTxn = HintedTransaction<SyntheticTransaction>;
type Store = InMemoryStorage<u64, u64>;

#[derive(Debug, Clone, Serialize)]
struct AdaptivebenchMeasurement {
    conflict: String,
    extra_gas: u64,
    hint_accuracy_pct: u8,
    engine: String,
    threads: usize,
    blocks: usize,
    block_size: usize,
    tps: f64,
    min_block_ms: f64,
    engine_choice: u64,
    incarnations: u64,
    validation_failures: u64,
    hint_preregistered_deps: u64,
    hints_skipped_validations: u64,
    adaptive_fallbacks: u64,
}

fn tsv_header() -> &'static str {
    "conflict\textra_gas\thint_accuracy_pct\tengine\tthreads\tblocks\tblock_size\ttps\
     \tmin_block_ms\tengine_choice\tincarnations\tvalidation_failures\
     \thint_preregistered_deps\thints_skipped_validations\tadaptive_fallbacks"
}

impl AdaptivebenchMeasurement {
    fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.0}\t{:.3}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.conflict,
            self.extra_gas,
            self.hint_accuracy_pct,
            self.engine,
            self.threads,
            self.blocks,
            self.block_size,
            self.tps,
            self.min_block_ms,
            self.engine_choice,
            self.incarnations,
            self.validation_failures,
            self.hint_preregistered_deps,
            self.hints_skipped_validations,
            self.adaptive_fallbacks,
        )
    }
}

/// Times one block execution.
fn timed_block(
    engine: &dyn BlockExecutor<HintedTxn, Store>,
    block: &[HintedTxn],
    storage: &Store,
) -> f64 {
    let start = Instant::now();
    engine
        .execute_block(block, storage)
        .expect("block executes");
    start.elapsed().as_secs_f64()
}

struct GridRowOutcome {
    best_single_tps: f64,
    worst_single_tps: f64,
    worst_single_engine: String,
    adaptive_tps: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_row(
    results: &mut Vec<AdaptivebenchMeasurement>,
    conflict: &str,
    num_keys: u64,
    extra_gas: u64,
    accuracy: u8,
    block_size: usize,
    blocks: usize,
    threads: usize,
    gas: GasSchedule,
) -> GridRowOutcome {
    let workload = SyntheticWorkload {
        num_keys,
        block_size,
        max_reads: 3,
        max_writes: 2,
        conditional_write_pct: 0,
        abort_pct: 0,
        extra_gas,
        seed: 0xADA9 ^ num_keys ^ extra_gas ^ accuracy as u64,
        hint_accuracy_pct: accuracy,
    };
    let block = workload.generate_hinted_block();
    let storage: Store = workload.initial_state().into_iter().collect();

    let sequential = SequentialExecutor::new(Vm::new(gas));
    let parallel = BlockStmBuilder::new(Vm::new(gas))
        .concurrency(threads)
        .build();
    let hinted = BlockStmBuilder::new(Vm::new(gas))
        .concurrency(threads)
        .use_hints(true)
        .build();
    // One worker per core: on a 1-CPU host the adaptive executor correctly
    // refuses to timeshare speculation and dispatches sequentially.
    let adaptive = AdaptiveExecutor::builder(Vm::new(gas))
        .abort_fallback_threshold(4 * block_size as u64)
        .build();

    let engines: [(&str, &dyn BlockExecutor<HintedTxn, Store>); 4] = [
        ("sequential", &sequential),
        ("parallel", &parallel),
        ("hinted", &hinted),
        ("adaptive", &adaptive),
    ];

    // Warm up every engine (which also settles the adaptive feedback signal),
    // then time the engines in **interleaved rounds** and keep each engine's
    // fastest block: a noisy neighbor on the CI host can only slow a run down,
    // so the per-engine minimum is the robust capability estimate, and the
    // interleaving spreads any sustained load spike across all four engines
    // instead of burying one engine's whole sample window under it.
    for (_, engine) in engines {
        engine.execute_block(&block, &storage).expect("warm-up");
    }
    let mut fastest = [f64::INFINITY; 4];
    for _ in 0..blocks {
        for (slot, (_, engine)) in engines.iter().enumerate() {
            fastest[slot] = fastest[slot].min(timed_block(*engine, &block, &storage));
        }
    }

    let mut oracle_updates: Option<Vec<(u64, u64)>> = None;
    let mut best_single_tps = 0.0f64;
    let mut worst_single_tps = f64::INFINITY;
    let mut worst_single_engine = String::new();
    let mut adaptive_tps = 0.0f64;
    for (slot, (name, engine)) in engines.iter().enumerate() {
        let name = *name;
        let audited = engine.execute_block(&block, &storage).expect("audited run");
        let metrics = audited.metrics;
        match &oracle_updates {
            None => oracle_updates = Some(audited.updates),
            Some(expected) => assert_eq!(
                &audited.updates, expected,
                "{name} diverged from the sequential oracle on \
                 conflict={conflict} gas={extra_gas} accuracy={accuracy}"
            ),
        }
        let tps = block.len() as f64 / fastest[slot];
        if name == "adaptive" {
            adaptive_tps = tps;
        } else {
            best_single_tps = best_single_tps.max(tps);
            if tps < worst_single_tps {
                worst_single_tps = tps;
                worst_single_engine = name.to_string();
            }
        }
        let row = AdaptivebenchMeasurement {
            conflict: conflict.to_string(),
            extra_gas,
            hint_accuracy_pct: accuracy,
            engine: name.to_string(),
            threads: if name == "sequential" { 1 } else { threads },
            blocks,
            block_size,
            tps,
            min_block_ms: fastest[slot] * 1_000.0,
            engine_choice: metrics.adaptive_engine_choice,
            incarnations: metrics.incarnations,
            validation_failures: metrics.validation_failures,
            hint_preregistered_deps: metrics.hint_preregistered_deps,
            hints_skipped_validations: metrics.hints_skipped_validations,
            adaptive_fallbacks: metrics.adaptive_fallbacks,
        };
        println!("{}", row.tsv_row());
        results.push(row);
    }
    GridRowOutcome {
        best_single_tps,
        worst_single_tps,
        worst_single_engine,
        adaptive_tps,
    }
}

/// The high-conflict exact-hint bar: a read-modify-write chain on one key at
/// 2 workers. Hinted dispatch pre-registers every link of the chain, so each
/// transaction executes once and validates cleanly; unhinted speculation pays
/// for the same block with aborted incarnations. Compared via the metrics
/// counters (failed validations + incarnations), not wall clock.
fn run_hint_metrics_bar(chain_len: usize, blocks: usize) {
    let gas = GasSchedule::benchmark();
    let inner: Vec<SyntheticTransaction> = (0..chain_len)
        .map(|_| SyntheticTransaction::increment(0).with_extra_gas(1_000))
        .collect();
    let exact: Vec<HintedTxn> = inner
        .iter()
        .map(|txn| HintedTransaction::new(txn.clone(), txn.access_hints()))
        .collect();
    let unhinted: Vec<HintedTxn> = inner
        .iter()
        .map(|txn| HintedTransaction::unhinted(txn.clone()))
        .collect();
    let storage: Store = [(0u64, 0u64)].into_iter().collect();

    let hinted_engine = BlockStmBuilder::new(Vm::new(gas))
        .concurrency(2)
        .use_hints(true)
        .build();
    let plain_engine = BlockStmBuilder::new(Vm::new(gas)).concurrency(2).build();

    let mut hinted_total = 0u64;
    let mut unhinted_total = 0u64;
    let mut preregistered = 0u64;
    for _ in 0..blocks {
        let h = hinted_engine
            .execute_block(&exact, &storage)
            .expect("hinted");
        let u = plain_engine
            .execute_block(&unhinted, &storage)
            .expect("unhinted");
        assert_eq!(h.updates, u.updates, "hint chain diverged");
        assert_eq!(
            h.metrics.validation_failures, 0,
            "a fully pre-registered chain must validate cleanly"
        );
        hinted_total += h.metrics.validation_failures + h.metrics.incarnations;
        unhinted_total += u.metrics.validation_failures + u.metrics.incarnations;
        preregistered += h.metrics.hint_preregistered_deps;
    }
    println!(
        "# hint-metrics bar: chain={chain_len} x {blocks} blocks @ 2 workers — hinted \
         failed+incarnations={hinted_total} (preregistered={preregistered}), \
         unhinted={unhinted_total}"
    );
    assert!(
        hinted_total < unhinted_total,
        "hinted Block-STM must do strictly less abort work than unhinted on the \
         high-conflict exact-hint chain: hinted={hinted_total} unhinted={unhinted_total}"
    );
}

fn main() {
    let quick = quick_mode();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
        .max(2);
    let blocks = if quick { 5 } else { 7 };
    let block_size = if quick { 300 } else { 1_000 };
    let gas = GasSchedule::benchmark();
    let accuracies: &[u8] = if quick { &[0, 100] } else { &[0, 50, 100] };
    let costs: &[u64] = if quick { &[0] } else { &[0, 1_500] };

    println!(
        "# adaptivebench: engine shapes over {{conflict x txn cost x hint accuracy}}, \
         {threads} threads for single parallel engines, {blocks} timed blocks per row, \
         {block_size} txns per block"
    );
    println!("{}", tsv_header());

    let mut results = Vec::new();
    let mut worst_ratio = f64::INFINITY;
    let mut worst_spread = 0.0f64;
    let mut polarized: Option<(String, GridRowOutcome)> = None;
    for &(conflict, keys_factor) in &[("low", 0u64), ("high", 1)] {
        let num_keys = if keys_factor == 0 {
            4 * block_size as u64
        } else {
            16
        };
        for &extra_gas in costs {
            for &accuracy in accuracies {
                let outcome = run_row(
                    &mut results,
                    conflict,
                    num_keys,
                    extra_gas,
                    accuracy,
                    block_size,
                    blocks,
                    threads,
                    gas,
                );
                worst_ratio = worst_ratio.min(outcome.adaptive_tps / outcome.best_single_tps);
                let spread = outcome.best_single_tps / outcome.worst_single_tps;
                if spread > worst_spread {
                    worst_spread = spread;
                    polarized = Some((
                        format!("conflict={conflict} gas={extra_gas} accuracy={accuracy}"),
                        outcome,
                    ));
                }
            }
        }
    }

    // The most polarized row is where committing to one engine up front loses
    // the most.
    let (row_label, outcome) = polarized.expect("grid is non-empty");
    println!("# worst adaptive / best single engine ratio over the grid: {worst_ratio:.2}x");
    println!(
        "# most polarized row: {row_label} (spread {worst_spread:.2}x, loser \
         {} at {:.0} tps, adaptive {:.0} tps)",
        outcome.worst_single_engine, outcome.worst_single_tps, outcome.adaptive_tps
    );

    run_hint_metrics_bar(if quick { 200 } else { 400 }, if quick { 3 } else { 6 });

    println!(
        "# json: {}",
        serde_json::to_string(&results).expect("measurements serialize")
    );
}
