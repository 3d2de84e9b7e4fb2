//! MVMemory microbenchmark: the old shard-lock data path vs the two-level
//! interned path, on the three access patterns that dominate Block-STM blocks.
//!
//! * `read-heavy` — speculative reads of already-written locations at random
//!   transaction bounds (the validation/execution steady state);
//! * `write-heavy` — incarnations whose write-sets shift between rounds, forcing
//!   structural inserts and removals;
//! * `reexec-heavy` — the abort cycle: `convert_writes_to_estimates` followed by a
//!   re-record of the same write-set (an in-place entry overwrite under the cell
//!   lock on the new path, tree mutation under the shard write lock on the old one);
//! * `delta-hotspot` — one hot counter bumped by every transaction, `eager-rmw`
//!   (read + full write) vs `lazy-delta` (delta entry + commit-order fold via
//!   `materialize_deltas`). This isolates the *micro-level* cost of the delta
//!   entry lifecycle; the engine-level payoff (no re-executions under
//!   contention) is what `commitbench`'s delta-hotspot rows measure;
//! * `contended-2t` — two threads, each owning half the transactions, record and
//!   read 16 shared locations: the one pattern where the per-location lock is
//!   contended. Only the `interned-cell` row runs it (the reconstruction is
//!   single-threaded by construction).
//!
//! The `sharded-btree` rows reconstruct the pre-interner design exactly as the seed
//! implemented it: SipHash (`RandomState`) shard selection, one `RwLock` per shard,
//! and a `BTreeMap<TxnIndex, entry>` per location. The `interned-cell` rows drive
//! the real [`MVMemory`] through a per-worker [`LocationCache`], i.e. the executor's
//! actual hot path. Both run the identical operation sequence single-threaded, so
//! the ratio isolates per-access synchronization and hashing cost — the quantity
//! the two-level redesign targets (its scaling benefits come on top), except
//! `contended-2t`, which runs on two threads.
//!
//! Run with `cargo run -p block-stm-bench --release --bin mvbench`.
//! Set `BLOCK_STM_BENCH_QUICK=1` for a fast smoke-test grid. Baselines are recorded
//! via `scripts/record-baseline.sh mvbench`.

use block_stm_bench::quick_mode;
use block_stm_mvmemory::{LocationCache, MVMemory, MVReadOutput, ReadDescriptor};
use block_stm_sync::ShardedMap;
use block_stm_vm::{DeltaOp, Version};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64: deterministic pseudo-random operation streams without pulling the
/// rand shim into the measurement loop.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The operations each implementation must support; mirrors the MVMemory subset the
/// executor drives (reads, records, abort marking, block-boundary reset).
trait MvImpl {
    const NAME: &'static str;
    /// Speculative read below `txn`; returns a fingerprint of the outcome so the
    /// driver can fold it into a checksum (keeps the optimizer honest and catches
    /// divergence between the two implementations).
    fn read(&mut self, key: u64, txn: usize) -> u64;
    /// Record one incarnation's write-set.
    fn record(&mut self, txn: usize, incarnation: usize, writes: &[(u64, u64)]);
    /// Mark the last write-set of `txn` as estimates (abort path).
    fn convert_to_estimates(&mut self, txn: usize);
    /// Block boundary: drain per-block state, exactly as the executor does between
    /// `execute_block` calls.
    fn new_block(&mut self);
}

/// The seed's data path (pre-interner), reconstructed verbatim in miniature:
/// `ShardedMap` with SipHash + per-location `BTreeMap` under the shard lock, and
/// per-transaction last-written sets driving removals on re-record.
struct ShardedBtree {
    data: ShardedMap<u64, BTreeMap<usize, LegacyEntry>, RandomState>,
    last_written: Vec<Mutex<Vec<u64>>>,
}

#[derive(Clone)]
enum LegacyEntry {
    Write(usize, Arc<u64>),
    Estimate,
}

impl ShardedBtree {
    fn new(num_txns: usize) -> Self {
        Self {
            data: ShardedMap::new(256),
            last_written: (0..num_txns).map(|_| Mutex::default()).collect(),
        }
    }
}

impl MvImpl for ShardedBtree {
    const NAME: &'static str = "sharded-btree";

    fn read(&mut self, key: u64, txn: usize) -> u64 {
        self.data.read_with(&key, |tree| match tree {
            None => 0,
            Some(tree) => match tree.range(..txn).next_back() {
                None => 0,
                Some((&idx, LegacyEntry::Estimate)) => 1 ^ (idx as u64) << 1,
                Some((&idx, LegacyEntry::Write(incarnation, value))) => {
                    (idx as u64)
                        ^ ((*incarnation as u64) << 20)
                        ^ ({
                            let v: u64 = **value;
                            v
                        } << 32)
                }
            },
        })
    }

    fn record(&mut self, txn: usize, incarnation: usize, writes: &[(u64, u64)]) {
        for (key, value) in writes {
            self.data.mutate(*key, |tree| {
                tree.insert(txn, LegacyEntry::Write(incarnation, Arc::new(*value)));
            });
        }
        let mut prev = self.last_written[txn].lock();
        for unwritten in prev
            .iter()
            .filter(|loc| !writes.iter().any(|(key, _)| key == *loc))
        {
            self.data.mutate_and_maybe_remove(unwritten, |tree| {
                tree.remove(&txn);
                tree.is_empty()
            });
        }
        prev.clear();
        prev.extend(writes.iter().map(|(key, _)| *key));
    }

    fn convert_to_estimates(&mut self, txn: usize) {
        let prev = self.last_written[txn].lock();
        for location in prev.iter() {
            self.data.mutate_if_present(location, |tree| {
                if let Some(entry) = tree.get_mut(&txn) {
                    *entry = LegacyEntry::Estimate;
                }
            });
        }
    }

    fn new_block(&mut self) {
        // The seed's reset: clear the map and the written-location sets in
        // place (both keep capacity).
        self.data.clear();
        for locations in &mut self.last_written {
            locations.get_mut().clear();
        }
    }
}

/// The new two-level path: the real `MVMemory` driven through a per-worker
/// location cache, exactly like one executor worker.
struct InternedCell {
    memory: MVMemory<u64, u64>,
    cache: LocationCache<u64, u64>,
}

impl InternedCell {
    fn new(num_txns: usize) -> Self {
        Self {
            memory: MVMemory::new(num_txns),
            cache: LocationCache::new(),
        }
    }
}

impl MvImpl for InternedCell {
    const NAME: &'static str = "interned-cell";

    fn read(&mut self, key: u64, txn: usize) -> u64 {
        fingerprint(
            self.memory
                .read_with_cache(&mut self.cache, &key, txn)
                .output,
        )
    }

    fn record(&mut self, txn: usize, incarnation: usize, writes: &[(u64, u64)]) {
        let read_set: Vec<ReadDescriptor<u64>> = Vec::new();
        self.memory.record_with_cache(
            &mut self.cache,
            Version::new(txn, incarnation),
            read_set,
            writes.to_vec(),
        );
    }

    fn convert_to_estimates(&mut self, txn: usize) {
        self.memory.convert_writes_to_estimates(txn);
    }

    fn new_block(&mut self) {
        // Worker caches die with the block (they pin cells), then the reset
        // recycles cells in place.
        let block_size = self.memory.block_size();
        self.cache = LocationCache::new();
        self.memory.reset(block_size);
    }
}

/// The checksum contribution of one read outcome (matches `ShardedBtree::read`).
fn fingerprint(output: MVReadOutput<u64>) -> u64 {
    match output {
        MVReadOutput::NotFound => 0,
        MVReadOutput::Dependency(idx) => 1 ^ (idx as u64) << 1,
        MVReadOutput::Versioned(version, value) => {
            (version.txn_idx as u64) ^ ((version.incarnation as u64) << 20) ^ (value << 32)
        }
        // The legacy comparison drives no deltas; resolved reads appear only
        // in the delta-chain scenario, which fingerprints the sum.
        MVReadOutput::Resolved { accumulated, .. } => 2 ^ ((accumulated as u64) << 2),
    }
}

struct PatternSizes {
    num_txns: usize,
    locations: u64,
    writes_per_txn: usize,
    read_ops: usize,
    /// Incarnation rounds per block (all patterns bound per-block work and reset
    /// at block boundaries, as in production).
    rounds_per_block: usize,
    blocks: usize,
}

/// Seeds one transaction's write-set for a round: `writes_per_txn` locations at an
/// offset derived from the transaction index. The round shift (13, coprime to the
/// stride 7) makes consecutive rounds' write-sets fully disjoint in `(txn,
/// location)` pairs — `write-heavy` therefore measures pure structural churn
/// (entry inserts and removals), the old design's best case (a `BTreeMap` insert).
fn initial_writes(sizes: &PatternSizes, txn: usize, round: usize) -> Vec<(u64, u64)> {
    (0..sizes.writes_per_txn)
        .map(|w| {
            let key = (txn * 31 + w * 7 + round * 13) as u64 % sizes.locations;
            (key, (txn * 1_000 + round) as u64)
        })
        .collect()
}

/// `read-heavy`: populate once, then hammer speculative reads at random bounds.
fn run_read_heavy<M: MvImpl>(mv: &mut M, sizes: &PatternSizes) -> (u64, u64) {
    for txn in 0..sizes.num_txns {
        mv.record(txn, 0, &initial_writes(sizes, txn, 0));
    }
    let mut rng = SplitMix(0xBEEF);
    let mut checksum = 0u64;
    for _ in 0..sizes.read_ops {
        let bits = rng.next();
        let key = bits % sizes.locations;
        let txn = (bits >> 40) as usize % sizes.num_txns + 1;
        checksum = checksum.wrapping_add(mv.read(key, txn));
    }
    (sizes.read_ops as u64, checksum)
}

/// `write-heavy`: every round each transaction records a *fully shifted* write-set,
/// so every write is a fresh `(txn, location)` pair — structural inserts plus
/// removals. Block boundaries every
/// `rounds_per_block` rounds drain per-block state on both implementations.
fn run_write_heavy<M: MvImpl>(mv: &mut M, sizes: &PatternSizes) -> (u64, u64) {
    let mut ops = 0u64;
    let mut round = 0;
    for _block in 0..sizes.blocks {
        mv.new_block();
        for incarnation in 0..sizes.rounds_per_block {
            for txn in 0..sizes.num_txns {
                let writes = initial_writes(sizes, txn, round);
                mv.record(txn, incarnation, &writes);
                ops += writes.len() as u64;
            }
            round += 1;
        }
    }
    let mut checksum = 0u64;
    for txn in (0..sizes.num_txns).step_by(7) {
        checksum = checksum.wrapping_add(mv.read(txn as u64 % sizes.locations, txn + 1));
    }
    (ops, checksum)
}

/// `reexec-heavy`: the abort cycle — estimates then an in-place re-record of the
/// *same* write-set, plus one dependency-check read per transaction per round.
fn run_reexec_heavy<M: MvImpl>(mv: &mut M, sizes: &PatternSizes) -> (u64, u64) {
    let write_sets: Vec<Vec<(u64, u64)>> = (0..sizes.num_txns)
        .map(|txn| initial_writes(sizes, txn, 0))
        .collect();
    let mut ops = 0u64;
    let mut checksum = 0u64;
    for _block in 0..sizes.blocks {
        mv.new_block();
        for (txn, writes) in write_sets.iter().enumerate() {
            mv.record(txn, 0, writes);
        }
        for incarnation in 1..=sizes.rounds_per_block {
            for (txn, writes) in write_sets.iter().enumerate() {
                mv.convert_to_estimates(txn);
                checksum = checksum.wrapping_add(mv.read(writes[0].0, txn + 1));
                mv.record(txn, incarnation, writes);
                ops += writes.len() as u64 * 2 + 1; // estimate + rewrite per location, 1 read
            }
        }
    }
    (ops, checksum)
}

/// `contended-2t`: two threads on 16 shared locations, the per-location lock's
/// contended case. Thread `t` owns the transactions `txn % 2 == t` (one mutator
/// per transaction, as in the engine); every round it records each owned
/// transaction's two writes, reads two locations below it, and marks every
/// fourth round's writes as estimates. The checksum depends on the interleaving,
/// so it only keeps the optimizer honest.
fn run_contended(sizes: &PatternSizes) -> MvbenchMeasurement {
    const THREADS: usize = 2;
    const LOCATIONS: u64 = 16;
    let mut memory: MVMemory<u64, u64> = MVMemory::new(sizes.num_txns);
    let mut ops = 0u64;
    let mut checksum = 0u64;
    let start = Instant::now();
    for _block in 0..sizes.blocks {
        memory.reset(sizes.num_txns);
        let shared = &memory;
        let per_thread: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        let mut cache = LocationCache::new();
                        let (mut ops, mut checksum) = (0u64, 0u64);
                        for round in 0..sizes.rounds_per_block {
                            for txn in (t..sizes.num_txns).step_by(THREADS) {
                                let value = (txn * 1_000 + round) as u64;
                                let writes = vec![
                                    ((txn * 3 + round) as u64 % LOCATIONS, value),
                                    ((txn * 5 + round + 1) as u64 % LOCATIONS, value),
                                ];
                                shared.record_with_cache(
                                    &mut cache,
                                    Version::new(txn, round),
                                    Vec::new(),
                                    writes,
                                );
                                for offset in 0..2 {
                                    let key = (txn + offset) as u64 % LOCATIONS;
                                    let read = shared.read_with_cache(&mut cache, &key, txn);
                                    checksum = checksum.wrapping_add(fingerprint(read.output));
                                }
                                if round % 4 == 3 {
                                    shared.convert_writes_to_estimates(txn);
                                }
                                ops += 4;
                            }
                        }
                        (ops, checksum)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("contended worker panicked"))
                .collect()
        });
        for (thread_ops, thread_checksum) in per_thread {
            ops += thread_ops;
            checksum = checksum.wrapping_add(thread_checksum);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    MvbenchMeasurement {
        pattern: "contended-2t".to_string(),
        implementation: InternedCell::NAME.to_string(),
        threads: THREADS,
        ops,
        elapsed_s: elapsed,
        mops_per_sec: ops as f64 / elapsed / 1e6,
        speedup_vs_sharded: 1.0,
        checksum,
    }
}

#[derive(Debug, Clone, Serialize)]
struct MvbenchMeasurement {
    pattern: String,
    implementation: String,
    threads: usize,
    ops: u64,
    elapsed_s: f64,
    mops_per_sec: f64,
    /// new-path ops/sec over old-path ops/sec; filled on the single-threaded
    /// `interned-cell` rows (1.0 on `contended-2t`, which has no old-path row).
    speedup_vs_sharded: f64,
    checksum: u64,
}

fn tsv_header() -> &'static str {
    "pattern\timplementation\tthreads\tops\telapsed_s\tmops_per_sec\tspeedup_vs_sharded"
}

impl MvbenchMeasurement {
    fn tsv_row(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{:.4}\t{:.3}\t{:.2}",
            self.pattern,
            self.implementation,
            self.threads,
            self.ops,
            self.elapsed_s,
            self.mops_per_sec,
            self.speedup_vs_sharded,
        )
    }
}

fn measure<M: MvImpl>(
    pattern: &str,
    sizes: &PatternSizes,
    mut mv: M,
    run: impl Fn(&mut M, &PatternSizes) -> (u64, u64),
) -> MvbenchMeasurement {
    let start = Instant::now();
    let (ops, checksum) = run(&mut mv, sizes);
    let elapsed = start.elapsed().as_secs_f64();
    MvbenchMeasurement {
        pattern: pattern.to_string(),
        implementation: M::NAME.to_string(),
        threads: 1,
        ops,
        elapsed_s: elapsed,
        mops_per_sec: ops as f64 / elapsed / 1e6,
        speedup_vs_sharded: 1.0,
        checksum,
    }
}

/// The `delta-hotspot` scenario: every transaction bumps ONE hot location, at
/// the MVMemory level. `eager-rmw` is what a counter contract must do without
/// aggregator support — read the current value, publish a full write.
/// `lazy-delta` is the aggregator path — publish a delta entry (no read), and
/// fold it at the commit boundary exactly as the executor's drain does
/// (`materialize_deltas` in commit order). Both end each block with the same
/// committed value, which the checksum cross-checks.
fn run_delta_hotspot(sizes: &PatternSizes) -> (MvbenchMeasurement, MvbenchMeasurement) {
    const HOT: u64 = 0;
    let blocks = sizes.blocks * 2;

    // eager-rmw rows: read + full write per transaction.
    let mut memory: MVMemory<u64, u64> = MVMemory::new(sizes.num_txns);
    let mut cache;
    let mut ops = 0u64;
    let mut checksum = 0u64;
    let start = Instant::now();
    for _block in 0..blocks {
        cache = LocationCache::new();
        memory.reset(sizes.num_txns);
        for txn in 0..sizes.num_txns {
            let base = match memory.read_with_cache(&mut cache, &HOT, txn).output {
                MVReadOutput::Versioned(_, value) => value,
                MVReadOutput::NotFound => 0,
                other => panic!("unexpected {other:?}"),
            };
            memory.record_with_cache(
                &mut cache,
                Version::new(txn, 0),
                vec![],
                vec![(HOT, base + 1)],
            );
            ops += 2;
        }
        checksum = checksum.wrapping_add(match memory.read(&HOT, sizes.num_txns) {
            MVReadOutput::Versioned(_, value) => value,
            other => panic!("unexpected {other:?}"),
        });
    }
    let eager_elapsed = start.elapsed().as_secs_f64();
    let eager = MvbenchMeasurement {
        pattern: "delta-hotspot".to_string(),
        implementation: "eager-rmw".to_string(),
        threads: 1,
        ops,
        elapsed_s: eager_elapsed,
        mops_per_sec: ops as f64 / eager_elapsed / 1e6,
        speedup_vs_sharded: 1.0,
        checksum,
    };

    // lazy-delta rows: delta entry + commit-order fold, no read.
    let mut ops = 0u64;
    let mut lazy_checksum = 0u64;
    let start = Instant::now();
    for _block in 0..blocks {
        cache = LocationCache::new();
        memory.reset(sizes.num_txns);
        for txn in 0..sizes.num_txns {
            memory.record_with_cache_deltas(
                &mut cache,
                Version::new(txn, 0),
                vec![],
                vec![],
                vec![(HOT, DeltaOp::add_u64(1))],
            );
            // The commit drain folds each committed delta in order.
            memory.materialize_deltas(txn, |_| None);
            ops += 2;
        }
        lazy_checksum = lazy_checksum.wrapping_add(match memory.read(&HOT, sizes.num_txns) {
            MVReadOutput::Versioned(_, value) => value,
            other => panic!("unexpected {other:?}"),
        });
    }
    let lazy_elapsed = start.elapsed().as_secs_f64();
    assert_eq!(checksum, lazy_checksum, "delta-hotspot: modes diverged");
    let lazy = MvbenchMeasurement {
        pattern: "delta-hotspot".to_string(),
        implementation: "lazy-delta".to_string(),
        threads: 1,
        ops,
        elapsed_s: lazy_elapsed,
        mops_per_sec: ops as f64 / lazy_elapsed / 1e6,
        speedup_vs_sharded: eager_elapsed / lazy_elapsed,
        checksum: lazy_checksum,
    };
    (eager, lazy)
}

fn main() {
    let quick = quick_mode();
    let scale = if quick { 1 } else { 10 };
    let sizes = PatternSizes {
        num_txns: 512,
        locations: 2_048,
        writes_per_txn: 8,
        read_ops: 200_000 * scale,
        rounds_per_block: 8,
        blocks: 5 * scale,
    };

    println!(
        "# mvbench: old shard-lock MVMemory path vs two-level interned path, \
         single-threaded except contended-2t, {} txns x {} locations",
        sizes.num_txns, sizes.locations
    );
    println!("{}", tsv_header());

    type Runner<M> = fn(&mut M, &PatternSizes) -> (u64, u64);
    let patterns: [(&str, Runner<ShardedBtree>, Runner<InternedCell>); 3] = [
        ("read-heavy", run_read_heavy, run_read_heavy),
        ("write-heavy", run_write_heavy, run_write_heavy),
        ("reexec-heavy", run_reexec_heavy, run_reexec_heavy),
    ];

    let mut results = Vec::new();
    for (pattern, legacy_run, interned_run) in patterns {
        let legacy = measure(
            pattern,
            &sizes,
            ShardedBtree::new(sizes.num_txns),
            legacy_run,
        );
        let mut interned = measure(
            pattern,
            &sizes,
            InternedCell::new(sizes.num_txns),
            interned_run,
        );
        assert_eq!(
            legacy.checksum, interned.checksum,
            "{pattern}: implementations diverged"
        );
        interned.speedup_vs_sharded = interned.mops_per_sec / legacy.mops_per_sec;
        println!("{}", legacy.tsv_row());
        println!("{}", interned.tsv_row());
        results.push(legacy);
        results.push(interned);
    }

    let (eager, lazy) = run_delta_hotspot(&sizes);
    println!("{}", eager.tsv_row());
    println!("{}", lazy.tsv_row());
    results.push(eager);
    results.push(lazy);

    let contended = run_contended(&sizes);
    println!("{}", contended.tsv_row());
    results.push(contended);

    println!(
        "# json: {}",
        serde_json::to_string(&results).expect("measurements serialize")
    );
}
