//! The live, thread-shared metrics recorder.

use crate::snapshot::MetricsSnapshot;
use block_stm_sync::PaddedAtomicU64;

/// Thread-safe execution metrics shared by all worker threads of one block execution.
///
/// All recording methods take `&self` and are wait-free (a single relaxed
/// `fetch_add`); the recorder can therefore be shared freely behind an `Arc` or a
/// plain reference inside `std::thread::scope`.
#[derive(Debug, Default)]
pub struct ExecutionMetrics {
    /// Number of transactions in the executed block.
    total_txns: PaddedAtomicU64,
    /// Total incarnations executed (including the first execution of each transaction).
    incarnations: PaddedAtomicU64,
    /// Total validation tasks performed.
    validations: PaddedAtomicU64,
    /// Validations that failed and led to a successful abort.
    validation_failures: PaddedAtomicU64,
    /// Executions aborted early because they read an `ESTIMATE` marker.
    dependency_aborts: PaddedAtomicU64,
    /// Executions that re-tried immediately because `add_dependency` lost its race
    /// (the blocking transaction finished before the dependency could be registered).
    dependency_races: PaddedAtomicU64,
    /// Engine-specific round counter (LiTM commit rounds; unused by Block-STM).
    rounds: PaddedAtomicU64,
    /// Blocked-read spin iterations (Bohm baseline only).
    blocked_read_spins: PaddedAtomicU64,
    /// `Scheduler.next_task()` calls that returned no task (worker had to poll again).
    scheduler_polls: PaddedAtomicU64,
    /// Idle polls that escalated from spinning to `thread::yield_now` because the
    /// spin budget was exhausted (oversubscribed host or a long sequential tail).
    scheduler_yields: PaddedAtomicU64,
    /// Location resolutions served by a per-worker cache (no shared-state access).
    mvmemory_cache_hits: PaddedAtomicU64,
    /// Worker-cache misses resolved by the interner's read path (the location was
    /// already interned by another worker; one shard read lock).
    mvmemory_interner_hits: PaddedAtomicU64,
    /// Global location first touches: the access interned the location (shard write
    /// lock + cell allocation).
    mvmemory_interner_misses: PaddedAtomicU64,
    /// Transactions committed by the rolling commit ladder.
    committed_txns: PaddedAtomicU64,
    /// Sum over all commits of the commit lag — how many transactions the execution
    /// cursor had run ahead of the committing one (`execution_cursor - txn_idx`).
    commit_lag_sum: PaddedAtomicU64,
    /// Largest commit lag observed in the block.
    commit_lag_max: PaddedAtomicU64,
    /// Reads served entirely from the frozen committed prefix (final: recorded no
    /// validation descriptor).
    committed_prefix_reads: PaddedAtomicU64,
    /// Commutative delta writes recorded into the multi-version memory.
    delta_writes: PaddedAtomicU64,
    /// Reads/probes that resolved through at least one delta entry (lazy chain
    /// resolutions).
    delta_resolutions: PaddedAtomicU64,
    /// Longest delta chain any single resolution walked through.
    delta_chain_len_max: PaddedAtomicU64,
    /// Incarnations that aborted deterministically with `DeltaOverflow` (an
    /// aggregator bounds violation).
    delta_overflow_aborts: PaddedAtomicU64,
    /// Blocks executed as part of a chained (pipelined) stream.
    chain_blocks: PaddedAtomicU64,
    /// Sum over chained blocks of the successor's execution cursor at the moment
    /// its predecessor fully committed — how many transactions of the next block
    /// had already started speculating ("run-ahead depth").
    chain_runahead_sum: PaddedAtomicU64,
    /// Deepest run-ahead observed at any block handoff in the chain.
    chain_runahead_max: PaddedAtomicU64,
    /// Reads that fell through a block's multi-version map to the cross-block
    /// frontier overlay (stamped frontier descriptors recorded).
    frontier_reads: PaddedAtomicU64,
    /// Validation aborts suffered by a block whose commit gate was still closed —
    /// i.e. speculation invalidated by a *predecessor* block's commits
    /// (cross-block dependency aborts).
    chain_cross_block_aborts: PaddedAtomicU64,
    /// Full-revalidation sweeps triggered by frontier publication (including the
    /// mandatory sweep before each gate opening).
    chain_sweeps: PaddedAtomicU64,
    /// Nanoseconds workers spent idle-polling while a chain was active — the
    /// inter-block bubble a barrier-per-block executor would pay in park/unpark
    /// and dispatch latency instead.
    chain_idle_ns: PaddedAtomicU64,
}

impl ExecutionMetrics {
    /// Creates a zeroed recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the size of the block being executed.
    pub fn record_block(&self, num_txns: usize) {
        self.total_txns.add(num_txns as u64);
    }

    /// Records that one incarnation was executed (successfully or not).
    pub fn record_incarnation(&self) {
        self.incarnations.increment();
    }

    /// Records a validation task and its outcome (`passed == false` means the
    /// validation failed and the incarnation was aborted by this thread).
    pub fn record_validation(&self, passed: bool) {
        self.validations.increment();
        if !passed {
            self.validation_failures.increment();
        }
    }

    /// Records an execution aborted early due to a dependency (ESTIMATE read).
    pub fn record_dependency_abort(&self) {
        self.dependency_aborts.increment();
    }

    /// Records an `add_dependency` race that resulted in an immediate re-execution.
    pub fn record_dependency_race(&self) {
        self.dependency_races.increment();
    }

    /// Records `n` engine rounds (used by the LiTM baseline).
    pub fn record_rounds(&self, n: u64) {
        self.rounds.add(n);
    }

    /// Records `n` spin iterations on a blocked read (Bohm baseline).
    pub fn record_blocked_read_spins(&self, n: u64) {
        self.blocked_read_spins.add(n);
    }

    /// Records an empty-handed `next_task` poll by a worker thread.
    pub fn record_scheduler_poll(&self) {
        self.scheduler_polls.increment();
    }

    /// Records an idle poll that yielded the thread to the OS scheduler instead of
    /// spinning (the worker's bounded-spin fallback).
    pub fn record_scheduler_yield(&self) {
        self.scheduler_yields.increment();
    }

    /// Flushes one worker's location-cache counters (bulk add: workers accumulate
    /// these locally, without atomics, and report once per block).
    pub fn record_location_cache(&self, hits: u64, interner_hits: u64, interner_misses: u64) {
        self.mvmemory_cache_hits.add(hits);
        self.mvmemory_interner_hits.add(interner_hits);
        self.mvmemory_interner_misses.add(interner_misses);
    }

    /// Records one rolling commit with its lag (`execution_cursor - txn_idx` at
    /// commit-drain time: how far speculation had run ahead of the committed
    /// prefix).
    pub fn record_commit(&self, lag: u64) {
        self.record_commits(1, lag, lag);
    }

    /// Bulk form of [`record_commit`](Self::record_commit): one flush per commit
    /// drain pass (the drain accumulates locally, like the location caches).
    pub fn record_commits(&self, commits: u64, lag_sum: u64, lag_max: u64) {
        self.committed_txns.add(commits);
        self.commit_lag_sum.add(lag_sum);
        self.commit_lag_max.fetch_max(lag_max);
    }

    /// Flushes one incarnation's count of reads served entirely from the frozen
    /// committed prefix (final reads that recorded no validation descriptor).
    pub fn record_committed_prefix_reads(&self, reads: u64) {
        if reads > 0 {
            self.committed_prefix_reads.add(reads);
        }
    }

    /// Records `n` commutative delta writes published by one incarnation.
    pub fn record_delta_writes(&self, n: u64) {
        if n > 0 {
            self.delta_writes.add(n);
        }
    }

    /// Flushes one incarnation's delta-resolution counters: how many reads/probes
    /// walked a delta chain, and the longest chain observed.
    pub fn record_delta_resolutions(&self, resolutions: u64, chain_len_max: u64) {
        if resolutions > 0 {
            self.delta_resolutions.add(resolutions);
            self.delta_chain_len_max.fetch_max(chain_len_max);
        }
    }

    /// Records one deterministic `DeltaOverflow` abort (aggregator bounds
    /// violation).
    pub fn record_delta_overflow_abort(&self) {
        self.delta_overflow_aborts.increment();
    }

    /// Records one chained-block handoff: the predecessor fully committed while
    /// the successor's execution cursor had already reached `runahead`
    /// transactions (0 = no pipelining benefit for this boundary).
    pub fn record_chain_block(&self, runahead: u64) {
        self.chain_blocks.increment();
        self.chain_runahead_sum.add(runahead);
        self.chain_runahead_max.fetch_max(runahead);
    }

    /// Flushes one incarnation's count of reads served through the cross-block
    /// frontier overlay (stamped descriptors).
    pub fn record_frontier_reads(&self, reads: u64) {
        if reads > 0 {
            self.frontier_reads.add(reads);
        }
    }

    /// Records a validation abort that hit a block whose commit gate was still
    /// closed: the speculation was invalidated by a predecessor block's commits.
    pub fn record_cross_block_abort(&self) {
        self.chain_cross_block_aborts.increment();
    }

    /// Records one frontier-driven full-revalidation sweep.
    pub fn record_chain_sweep(&self) {
        self.chain_sweeps.increment();
    }

    /// Flushes nanoseconds one worker spent idle-polling while the chain was
    /// active (bulk add, reported per worker).
    pub fn record_chain_idle_ns(&self, ns: u64) {
        if ns > 0 {
            self.chain_idle_ns.add(ns);
        }
    }

    /// Freezes the counters into a plain snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            total_txns: self.total_txns.load(),
            incarnations: self.incarnations.load(),
            validations: self.validations.load(),
            validation_failures: self.validation_failures.load(),
            dependency_aborts: self.dependency_aborts.load(),
            dependency_races: self.dependency_races.load(),
            rounds: self.rounds.load(),
            blocked_read_spins: self.blocked_read_spins.load(),
            scheduler_polls: self.scheduler_polls.load(),
            scheduler_yields: self.scheduler_yields.load(),
            mvmemory_cache_hits: self.mvmemory_cache_hits.load(),
            mvmemory_interner_hits: self.mvmemory_interner_hits.load(),
            mvmemory_interner_misses: self.mvmemory_interner_misses.load(),
            committed_txns: self.committed_txns.load(),
            commit_lag_sum: self.commit_lag_sum.load(),
            commit_lag_max: self.commit_lag_max.load(),
            committed_prefix_reads: self.committed_prefix_reads.load(),
            delta_writes: self.delta_writes.load(),
            delta_resolutions: self.delta_resolutions.load(),
            delta_chain_len_max: self.delta_chain_len_max.load(),
            delta_overflow_aborts: self.delta_overflow_aborts.load(),
            chain_blocks: self.chain_blocks.load(),
            chain_runahead_sum: self.chain_runahead_sum.load(),
            chain_runahead_max: self.chain_runahead_max.load(),
            frontier_reads: self.frontier_reads.load(),
            chain_cross_block_aborts: self.chain_cross_block_aborts.load(),
            chain_sweeps: self.chain_sweeps.load(),
            chain_idle_ns: self.chain_idle_ns.load(),
            // Adaptive-dispatch fields are set by the AdaptiveExecutor on the
            // snapshot it returns; the per-block recorder has no view of them.
            adaptive_engine_choice: 0,
            adaptive_fallbacks: 0,
        }
    }

    /// Resets every counter to zero so the recorder can be reused for another block.
    pub fn reset(&self) {
        self.total_txns.reset();
        self.incarnations.reset();
        self.validations.reset();
        self.validation_failures.reset();
        self.dependency_aborts.reset();
        self.dependency_races.reset();
        self.rounds.reset();
        self.blocked_read_spins.reset();
        self.scheduler_polls.reset();
        self.scheduler_yields.reset();
        self.mvmemory_cache_hits.reset();
        self.mvmemory_interner_hits.reset();
        self.mvmemory_interner_misses.reset();
        self.committed_txns.reset();
        self.commit_lag_sum.reset();
        self.commit_lag_max.reset();
        self.committed_prefix_reads.reset();
        self.delta_writes.reset();
        self.delta_resolutions.reset();
        self.delta_chain_len_max.reset();
        self.delta_overflow_aborts.reset();
        self.chain_blocks.reset();
        self.chain_runahead_sum.reset();
        self.chain_runahead_max.reset();
        self.frontier_reads.reset();
        self.chain_cross_block_aborts.reset();
        self.chain_sweeps.reset();
        self.chain_idle_ns.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn reset_zeroes_every_counter() {
        let metrics = ExecutionMetrics::new();
        metrics.record_block(10);
        metrics.record_incarnation();
        metrics.record_validation(false);
        metrics.record_dependency_abort();
        metrics.record_dependency_race();
        metrics.record_rounds(2);
        metrics.record_blocked_read_spins(7);
        metrics.record_scheduler_poll();
        metrics.record_scheduler_yield();
        metrics.record_location_cache(5, 2, 1);
        metrics.record_commit(3);
        metrics.record_committed_prefix_reads(4);
        metrics.record_delta_writes(2);
        metrics.record_delta_resolutions(3, 5);
        metrics.record_delta_overflow_abort();
        metrics.record_chain_block(6);
        metrics.record_frontier_reads(9);
        metrics.record_cross_block_abort();
        metrics.record_chain_sweep();
        metrics.record_chain_idle_ns(1_000);
        metrics.reset();
        let snap = metrics.snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let metrics = Arc::new(ExecutionMetrics::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        metrics.record_incarnation();
                        metrics.record_validation(i % 10 == 0);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.incarnations, 80_000);
        assert_eq!(snap.validations, 80_000);
        assert_eq!(snap.validation_failures, 8 * 9_000);
    }
}
