//! Frozen, serializable metrics snapshots.

use serde::{Deserialize, Serialize};

/// A frozen copy of [`ExecutionMetrics`](crate::ExecutionMetrics) counters.
///
/// Snapshots are plain data: they can be compared, serialized (the `fig*` harnesses
/// emit them as JSON alongside throughput rows) and aggregated.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Number of transactions in the block.
    pub total_txns: u64,
    /// Total incarnations executed.
    pub incarnations: u64,
    /// Total validation tasks performed.
    pub validations: u64,
    /// Validations that failed and aborted an incarnation.
    pub validation_failures: u64,
    /// Executions aborted early on an `ESTIMATE` read.
    pub dependency_aborts: u64,
    /// `add_dependency` races resolved by immediate re-execution.
    pub dependency_races: u64,
    /// Engine-specific rounds (LiTM).
    pub rounds: u64,
    /// Spin iterations on blocked reads (Bohm).
    pub blocked_read_spins: u64,
    /// Empty-handed `next_task` polls by worker threads (Block-STM).
    pub scheduler_polls: u64,
    /// Idle polls that fell back from spinning to an OS-level yield (Block-STM's
    /// bounded-spin worker loop).
    pub scheduler_yields: u64,
    /// Location resolutions served by per-worker caches (zero shard-lock accesses).
    pub mvmemory_cache_hits: u64,
    /// Worker-cache misses served by the interner's shard read path.
    pub mvmemory_interner_hits: u64,
    /// Global location first touches (shard write lock + cell allocation).
    pub mvmemory_interner_misses: u64,
    /// Transactions committed by the rolling commit ladder.
    pub committed_txns: u64,
    /// Sum of per-commit lags (`execution_cursor - txn_idx` at commit-drain time).
    pub commit_lag_sum: u64,
    /// Largest commit lag observed in the block.
    pub commit_lag_max: u64,
    /// Reads served entirely from the frozen committed prefix (no validation
    /// descriptor recorded).
    pub committed_prefix_reads: u64,
    /// Commutative delta writes recorded into the multi-version memory.
    pub delta_writes: u64,
    /// Reads/probes that lazily resolved through at least one delta entry.
    pub delta_resolutions: u64,
    /// Longest delta chain any single resolution walked through.
    pub delta_chain_len_max: u64,
    /// Incarnations aborted deterministically on an aggregator bounds violation.
    pub delta_overflow_aborts: u64,
    /// Blocks executed as part of a chained (pipelined) stream.
    pub chain_blocks: u64,
    /// Sum over chained-block handoffs of how far the successor block's execution
    /// cursor had already run ahead when its predecessor fully committed.
    pub chain_runahead_sum: u64,
    /// Deepest run-ahead observed at any chained-block handoff.
    pub chain_runahead_max: u64,
    /// Reads that fell through to the cross-block frontier overlay (stamped
    /// frontier descriptors recorded).
    pub frontier_reads: u64,
    /// Validation aborts of transactions in a block whose commit gate was still
    /// closed — speculation invalidated by a predecessor block's commits.
    pub chain_cross_block_aborts: u64,
    /// Frontier-driven full-revalidation sweeps (incl. the mandatory pre-gate-open
    /// sweep per chained block).
    pub chain_sweeps: u64,
    /// Nanoseconds workers spent idle-polling while a chain was active (the
    /// pipelined substitute for inter-block park/unpark bubbles).
    pub chain_idle_ns: u64,
    /// Dependencies pre-registered from declared access hints before workers
    /// started (hinted transactions parked on their declared writer).
    pub hint_preregistered_deps: u64,
    /// Reads whose validation descriptors were skipped because exact access
    /// hints prove no lower transaction can write the key.
    pub hints_skipped_validations: u64,
    /// Which engine the adaptive executor dispatched the block to: 0 = not an
    /// adaptive run, 1 = sequential, 2 = parallel Block-STM, 3 = hinted
    /// Block-STM. Merges as `max` (the "most parallel" choice wins) so
    /// aggregated rows still show whether parallelism was ever engaged.
    pub adaptive_engine_choice: u64,
    /// Blocks the adaptive executor re-ran sequentially after the parallel
    /// attempt crossed the abort-fallback threshold mid-block.
    pub adaptive_fallbacks: u64,
}

impl MetricsSnapshot {
    /// Serializes the snapshot to its stable JSON form — a flat object keyed
    /// by the field names above. This is the one wire format shared by the
    /// node's periodic dump, bench `# json:` baselines and tests; both ends go
    /// through the same serde codec, so a dump recorded by one can always be
    /// read back by the others.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("MetricsSnapshot is plain data and always serializes")
    }

    /// Parses a snapshot back from [`to_json`](Self::to_json) output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Fraction of incarnations that were aborted by a failed validation.
    /// Returns 0.0 when no incarnations were recorded.
    pub fn abort_rate(&self) -> f64 {
        if self.incarnations == 0 {
            0.0
        } else {
            self.validation_failures as f64 / self.incarnations as f64
        }
    }

    /// Average number of incarnations per transaction (1.0 is the optimum: every
    /// transaction executed exactly once).
    pub fn re_execution_ratio(&self) -> f64 {
        if self.total_txns == 0 {
            0.0
        } else {
            self.incarnations as f64 / self.total_txns as f64
        }
    }

    /// Average number of validations per transaction.
    pub fn validation_ratio(&self) -> f64 {
        if self.total_txns == 0 {
            0.0
        } else {
            self.validations as f64 / self.total_txns as f64
        }
    }

    /// Average commit lag in transactions: how far, on average, the execution
    /// cursor had run ahead of each committing transaction. 0.0 when nothing was
    /// committed through the ladder.
    pub fn avg_commit_lag(&self) -> f64 {
        if self.committed_txns == 0 {
            0.0
        } else {
            self.commit_lag_sum as f64 / self.committed_txns as f64
        }
    }

    /// Average run-ahead depth at chained-block handoffs: how many transactions
    /// of the next block had already started speculating, on average, when its
    /// predecessor fully committed. 0.0 outside chained execution.
    pub fn avg_chain_runahead(&self) -> f64 {
        if self.chain_blocks == 0 {
            0.0
        } else {
            self.chain_runahead_sum as f64 / self.chain_blocks as f64
        }
    }

    /// Element-wise sum of two snapshots (useful when aggregating repeated runs).
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            total_txns: self.total_txns + other.total_txns,
            incarnations: self.incarnations + other.incarnations,
            validations: self.validations + other.validations,
            validation_failures: self.validation_failures + other.validation_failures,
            dependency_aborts: self.dependency_aborts + other.dependency_aborts,
            dependency_races: self.dependency_races + other.dependency_races,
            rounds: self.rounds + other.rounds,
            blocked_read_spins: self.blocked_read_spins + other.blocked_read_spins,
            scheduler_polls: self.scheduler_polls + other.scheduler_polls,
            scheduler_yields: self.scheduler_yields + other.scheduler_yields,
            mvmemory_cache_hits: self.mvmemory_cache_hits + other.mvmemory_cache_hits,
            mvmemory_interner_hits: self.mvmemory_interner_hits + other.mvmemory_interner_hits,
            mvmemory_interner_misses: self.mvmemory_interner_misses
                + other.mvmemory_interner_misses,
            committed_txns: self.committed_txns + other.committed_txns,
            commit_lag_sum: self.commit_lag_sum + other.commit_lag_sum,
            commit_lag_max: self.commit_lag_max.max(other.commit_lag_max),
            committed_prefix_reads: self.committed_prefix_reads + other.committed_prefix_reads,
            delta_writes: self.delta_writes + other.delta_writes,
            delta_resolutions: self.delta_resolutions + other.delta_resolutions,
            delta_chain_len_max: self.delta_chain_len_max.max(other.delta_chain_len_max),
            delta_overflow_aborts: self.delta_overflow_aborts + other.delta_overflow_aborts,
            chain_blocks: self.chain_blocks + other.chain_blocks,
            chain_runahead_sum: self.chain_runahead_sum + other.chain_runahead_sum,
            chain_runahead_max: self.chain_runahead_max.max(other.chain_runahead_max),
            frontier_reads: self.frontier_reads + other.frontier_reads,
            chain_cross_block_aborts: self.chain_cross_block_aborts
                + other.chain_cross_block_aborts,
            chain_sweeps: self.chain_sweeps + other.chain_sweeps,
            chain_idle_ns: self.chain_idle_ns + other.chain_idle_ns,
            hint_preregistered_deps: self.hint_preregistered_deps + other.hint_preregistered_deps,
            hints_skipped_validations: self.hints_skipped_validations
                + other.hints_skipped_validations,
            adaptive_engine_choice: self
                .adaptive_engine_choice
                .max(other.adaptive_engine_choice),
            adaptive_fallbacks: self.adaptive_fallbacks + other.adaptive_fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            total_txns: 100,
            incarnations: 120,
            validations: 150,
            validation_failures: 20,
            dependency_aborts: 5,
            dependency_races: 1,
            rounds: 0,
            blocked_read_spins: 0,
            scheduler_polls: 3,
            scheduler_yields: 1,
            mvmemory_cache_hits: 900,
            mvmemory_interner_hits: 40,
            mvmemory_interner_misses: 60,
            committed_txns: 100,
            commit_lag_sum: 250,
            commit_lag_max: 9,
            committed_prefix_reads: 120,
            delta_writes: 30,
            delta_resolutions: 12,
            delta_chain_len_max: 4,
            delta_overflow_aborts: 1,
            chain_blocks: 4,
            chain_runahead_sum: 20,
            chain_runahead_max: 8,
            frontier_reads: 35,
            chain_cross_block_aborts: 2,
            chain_sweeps: 5,
            chain_idle_ns: 10_000,
            hint_preregistered_deps: 7,
            hints_skipped_validations: 55,
            adaptive_engine_choice: 2,
            adaptive_fallbacks: 1,
        }
    }

    #[test]
    fn ratios_computed_correctly() {
        let snap = sample();
        assert!((snap.abort_rate() - 20.0 / 120.0).abs() < 1e-12);
        assert!((snap.re_execution_ratio() - 1.2).abs() < 1e-12);
        assert!((snap.validation_ratio() - 1.5).abs() < 1e-12);
        assert!((snap.avg_commit_lag() - 2.5).abs() < 1e-12);
        assert!((snap.avg_chain_runahead() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.abort_rate(), 0.0);
        assert_eq!(snap.re_execution_ratio(), 0.0);
        assert_eq!(snap.validation_ratio(), 0.0);
        assert_eq!(snap.avg_commit_lag(), 0.0);
        assert_eq!(snap.avg_chain_runahead(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let merged = sample().merge(&sample());
        assert_eq!(merged.total_txns, 200);
        assert_eq!(merged.incarnations, 240);
        assert_eq!(merged.mvmemory_cache_hits, 1800);
        assert_eq!(merged.mvmemory_interner_misses, 120);
        assert_eq!(merged.committed_txns, 200);
        assert_eq!(merged.commit_lag_sum, 500);
        assert_eq!(merged.commit_lag_max, 9, "max merges as max, not sum");
        assert_eq!(merged.committed_prefix_reads, 240);
        assert_eq!(merged.delta_writes, 60);
        assert_eq!(merged.delta_resolutions, 24);
        assert_eq!(merged.delta_chain_len_max, 4, "max merges as max");
        assert_eq!(merged.delta_overflow_aborts, 2);
        assert_eq!(merged.chain_blocks, 8);
        assert_eq!(merged.chain_runahead_sum, 40);
        assert_eq!(merged.chain_runahead_max, 8, "max merges as max");
        assert_eq!(merged.frontier_reads, 70);
        assert_eq!(merged.chain_cross_block_aborts, 4);
        assert_eq!(merged.chain_sweeps, 10);
        assert_eq!(merged.chain_idle_ns, 20_000);
        assert_eq!(merged.hint_preregistered_deps, 14);
        assert_eq!(merged.hints_skipped_validations, 110);
        assert_eq!(
            merged.adaptive_engine_choice, 2,
            "engine choice merges as max, not sum"
        );
        assert_eq!(merged.adaptive_fallbacks, 2);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let snap = sample();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn stable_json_helpers_round_trip() {
        let snap = sample();
        let json = snap.to_json();
        // The stable format is a flat object keyed by field names.
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"committed_txns\":100"));
        assert!(json.contains("\"chain_blocks\":4"));
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        assert!(MetricsSnapshot::from_json("not json").is_err());
    }
}
