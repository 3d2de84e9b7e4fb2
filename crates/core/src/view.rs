//! The parallel executor's state view: multi-version memory first, storage second,
//! with read-set capture (Algorithm 3's read interception) and delta-aware
//! resolution.

use block_stm_metrics::ExecutionMetrics;
use block_stm_mvmemory::{FrontierOverlay, LocationCache, MVMemory, MVReadOutput, ReadDescriptor};
use block_stm_storage::Storage;
use block_stm_vm::{AggregatorValue, DeltaOp, DeltaProbe, ReadOutcome, StateReader, TxnIndex};
use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::hash::Hash;

/// The view handed to the VM while executing one incarnation of transaction `txn_idx`
/// inside the parallel executor.
///
/// A read is served by the multi-version memory (the highest write of a *lower*
/// transaction, with delta chains lazily resolved against the storage base), falling
/// back to pre-block storage when no such write exists, and is recorded in the
/// incarnation's read-set together with what validation must re-check:
///
/// * a full write → the observed **version** ([`ReadDescriptor::from_version`]);
/// * a storage fall-through → the ⊥ descriptor ([`ReadDescriptor::from_storage`]);
/// * a delta-chain resolution → the accumulated **sum**
///   ([`ReadDescriptor::from_resolved`]) — versions along the chain stay free;
/// * a delta application's bounds check ([`StateReader::probe_delta`]) → only the
///   **predicate outcome** ([`ReadDescriptor::from_delta_probe`]), which is what
///   lets interleaved in-bounds deltas commute instead of conflicting.
///
/// If the multi-version memory reports an ESTIMATE anywhere in the resolution, the
/// read outcome is a dependency and nothing is recorded — the incarnation will
/// abort.
///
/// Locations are resolved through the worker's [`LocationCache`]: the view borrows
/// the cache that outlives it (one cache per worker per block), so repeated accesses
/// to the same location — within this incarnation or any other incarnation this
/// worker executes — skip the multi-version memory's sharded map entirely.
///
/// **Committed-prefix fast path:** when every transaction below this one has already
/// committed (the rolling commit ladder's frozen prefix), a read's outcome is final
/// for the rest of the block — it is served through the cheaper committed cell path
/// and **no read descriptor is recorded**, so the incarnation's validation has
/// nothing to re-check for it. The count of such reads is surfaced via
/// [`committed_final_reads`](Self::committed_final_reads) and flushed into the
/// `committed_prefix_reads` metric by the executor.
pub struct MVHashMapView<'a, K, V, S> {
    mvmemory: &'a MVMemory<K, V>,
    storage: &'a S,
    txn_idx: TxnIndex,
    metrics: &'a ExecutionMetrics,
    cache: &'a RefCell<LocationCache<K, V>>,
    /// Chained execution: the committed writes of predecessor blocks, layered
    /// between this block's multi-version map and `storage`. `None` outside a
    /// chain (single-block semantics are unchanged).
    frontier: Option<&'a FrontierOverlay<K, V>>,
    /// Chained execution: whether the frontier can no longer change for this
    /// block (its predecessor has fully committed and published — observed as
    /// the block's commit gate being open at view creation). While unsealed,
    /// the committed-prefix fast path must not skip descriptors for reads that
    /// rest on the frontier.
    frontier_sealed: bool,
    captured_reads: RefCell<Vec<ReadDescriptor<K>>>,
    committed_final_reads: Cell<u64>,
    frontier_reads: Cell<u64>,
    delta_resolutions: Cell<u64>,
    delta_chain_len_max: Cell<u64>,
}

impl<'a, K, V, S> MVHashMapView<'a, K, V, S>
where
    K: Eq + Hash + Clone + Debug,
    V: Clone + Debug + AggregatorValue,
    S: Storage<K, V>,
{
    /// Creates a view for one incarnation of `txn_idx`, resolving locations through
    /// the worker's `cache`.
    pub fn new(
        mvmemory: &'a MVMemory<K, V>,
        storage: &'a S,
        txn_idx: TxnIndex,
        metrics: &'a ExecutionMetrics,
        cache: &'a RefCell<LocationCache<K, V>>,
    ) -> Self {
        Self {
            mvmemory,
            storage,
            txn_idx,
            metrics,
            cache,
            frontier: None,
            frontier_sealed: false,
            captured_reads: RefCell::new(Vec::new()),
            committed_final_reads: Cell::new(0),
            frontier_reads: Cell::new(0),
            delta_resolutions: Cell::new(0),
            delta_chain_len_max: Cell::new(0),
        }
    }

    /// Layers a cross-block frontier overlay between the multi-version map and
    /// storage (chained execution). Reads that fall through this block's map
    /// consult the overlay first and record **stamped** frontier descriptors
    /// ([`ReadDescriptor::from_frontier`]) so validation detects predecessor
    /// commits that landed after the read. `sealed` declares that the overlay
    /// is already final for this block (the predecessor fully committed before
    /// this incarnation started — i.e. the block's commit gate was open), which
    /// re-enables the committed-prefix descriptor-skip for frontier-resting
    /// reads.
    pub fn with_frontier(mut self, frontier: &'a FrontierOverlay<K, V>, sealed: bool) -> Self {
        self.frontier = Some(frontier);
        self.frontier_sealed = sealed;
        self
    }

    /// The transaction index this view serves.
    pub fn txn_idx(&self) -> TxnIndex {
        self.txn_idx
    }

    /// Consumes the view, returning the captured read-set (passed to
    /// `MVMemory::record`).
    pub fn take_read_set(self) -> Vec<ReadDescriptor<K>> {
        self.captured_reads.into_inner()
    }

    /// Number of reads captured so far (diagnostics).
    pub fn reads_captured(&self) -> usize {
        self.captured_reads.borrow().len()
    }

    /// Number of reads served entirely from the frozen committed prefix (final:
    /// recorded no descriptor). Flushed into the `committed_prefix_reads` metric by
    /// the executor before the read-set is taken.
    pub fn committed_final_reads(&self) -> u64 {
        self.committed_final_reads.get()
    }

    /// Number of reads/probes that lazily resolved through at least one delta
    /// entry, and the longest chain observed. Flushed into the
    /// `delta_resolutions` / `delta_chain_len_max` metrics by the executor.
    pub fn delta_resolution_stats(&self) -> (u64, u64) {
        (self.delta_resolutions.get(), self.delta_chain_len_max.get())
    }

    /// Number of reads served from the cross-block frontier overlay — stamped
    /// speculative reads while the frontier is live, plus final reads once it
    /// sealed. Flushed into the `frontier_reads` metric by the executor.
    pub fn frontier_reads(&self) -> u64 {
        self.frontier_reads.get()
    }

    /// The block-wide metrics recorder this view reports to. Per-read events are not
    /// recorded (they would contend on shared counters in the hottest path); the
    /// recorder is exposed so custom transaction runners can record task-level events.
    pub fn metrics(&self) -> &ExecutionMetrics {
        self.metrics
    }

    fn note_chain(&self, chain_len: usize) {
        if chain_len > 0 {
            self.delta_resolutions.set(self.delta_resolutions.get() + 1);
            self.delta_chain_len_max
                .set(self.delta_chain_len_max.get().max(chain_len as u64));
        }
    }

    /// The aggregator base below this block's multi-version map: the frontier
    /// overlay (latest predecessor-committed value) first, then pre-chain
    /// storage. Outside a chain this is plain storage.
    fn storage_base(&self, key: &K) -> Option<u128> {
        if let Some(frontier) = self.frontier {
            if let Some(value) = frontier.get(key) {
                return Some(value.to_aggregator());
            }
        }
        self.storage.get(key).map(|value| value.to_aggregator())
    }

    /// Whether a committed-prefix-final read may skip its validation
    /// descriptor. Outside a chain: always. Inside a chain: only for values
    /// served by this block's own committed entries (`resting_on_own_map`), or
    /// for any read once the frontier is sealed — an unsealed frontier can
    /// still be overwritten by predecessor commits, so reads resting on it are
    /// *not* final even below this block's watermark.
    fn may_skip_descriptor(&self, resting_on_own_map: bool) -> bool {
        self.frontier.is_none() || self.frontier_sealed || resting_on_own_map
    }
}

impl<K, V, S> StateReader<K, V> for MVHashMapView<'_, K, V, S>
where
    K: Eq + Hash + Clone + Debug,
    V: Clone + Debug + AggregatorValue,
    S: Storage<K, V>,
{
    fn read(&self, key: &K) -> ReadOutcome<V> {
        // Note: per-read metric counters are deliberately NOT recorded here — a shared
        // atomic increment per read would put two highly contended cache lines on the
        // hottest path of every worker thread. The location-cache hit/miss counters
        // (and the view's delta-resolution counters) accumulate locally and are
        // flushed once per incarnation/block.
        let read = self.mvmemory.read_with_cache_base(
            &mut self.cache.borrow_mut(),
            key,
            self.txn_idx,
            || self.storage_base(key),
        );
        self.note_chain(read.delta_chain_len);
        if read.committed_final {
            // Every transaction below this one has committed, so within this
            // block the outcome can never change. Outside a chain (or once the
            // frontier sealed) that makes the read final — no descriptor. In an
            // unsealed chain only values served by this block's own committed
            // entries are final; reads resting on the frontier fall through to
            // the speculative paths below, which stamp them.
            let skip = self.may_skip_descriptor(matches!(
                read.output,
                MVReadOutput::Versioned(..) | MVReadOutput::Dependency(_)
            ));
            if skip {
                self.committed_final_reads
                    .set(self.committed_final_reads.get() + 1);
                return match read.output {
                    MVReadOutput::Versioned(_, value) => ReadOutcome::Value(value),
                    MVReadOutput::Resolved { accumulated, .. } => {
                        ReadOutcome::Value(V::from_aggregator(accumulated))
                    }
                    MVReadOutput::NotFound => {
                        if let Some(frontier) = self.frontier {
                            if let Some(value) = frontier.get(key) {
                                // Final (the frontier is sealed here), but still a
                                // cross-block read: count it so the metric reflects
                                // every read the overlay serves.
                                self.frontier_reads.set(self.frontier_reads.get() + 1);
                                return ReadOutcome::Value(value);
                            }
                        }
                        match self.storage.get(key) {
                            Some(value) => ReadOutcome::Value(value),
                            None => ReadOutcome::NotFound,
                        }
                    }
                    MVReadOutput::Dependency(blocking_txn_idx) => {
                        debug_assert!(false, "ESTIMATE below the committed prefix");
                        ReadOutcome::Dependency(blocking_txn_idx)
                    }
                };
            }
        }
        match read.output {
            MVReadOutput::Versioned(version, value) => {
                self.captured_reads.borrow_mut().push(
                    ReadDescriptor::from_version(key.clone(), version).with_location(read.id),
                );
                ReadOutcome::Value(value)
            }
            MVReadOutput::Resolved { accumulated, .. } => {
                // Validation compares the resolved sum, not the chain's versions:
                // lower deltas may reorder or re-execute freely as long as the sum
                // the VM observed is unchanged. (In a chain the fresh resolution
                // runs against the overlay-aware base, so a frontier change under
                // the chain changes the sum and fails validation.)
                self.captured_reads.borrow_mut().push(
                    ReadDescriptor::from_resolved(key.clone(), accumulated).with_location(read.id),
                );
                ReadOutcome::Value(V::from_aggregator(accumulated))
            }
            MVReadOutput::NotFound => {
                if let Some(frontier) = self.frontier {
                    // The read rests on the cross-block frontier: record the
                    // overlay's publication stamp for the key (0 = absent) so
                    // validation catches any later predecessor commit to it.
                    let (stamp, value) = frontier.get_stamped(key);
                    self.frontier_reads.set(self.frontier_reads.get() + 1);
                    self.captured_reads.borrow_mut().push(
                        ReadDescriptor::from_frontier(key.clone(), stamp).with_location(read.id),
                    );
                    return match value.or_else(|| self.storage.get(key)) {
                        Some(value) => ReadOutcome::Value(value),
                        None => ReadOutcome::NotFound,
                    };
                }
                self.captured_reads
                    .borrow_mut()
                    .push(ReadDescriptor::from_storage(key.clone()).with_location(read.id));
                match self.storage.get(key) {
                    Some(value) => ReadOutcome::Value(value),
                    None => ReadOutcome::NotFound,
                }
            }
            MVReadOutput::Dependency(blocking_txn_idx) => {
                // The incarnation is about to abort; its partial read-set is discarded
                // along with it, so there is nothing to record.
                ReadOutcome::Dependency(blocking_txn_idx)
            }
        }
    }

    fn probe_delta(&self, key: &K, prior: i128, op: DeltaOp) -> DeltaProbe {
        let probe = self.mvmemory.probe_delta_with_cache(
            &mut self.cache.borrow_mut(),
            key,
            self.txn_idx,
            prior,
            op,
            || self.storage_base(key),
        );
        self.note_chain(probe.chain_len);
        match probe.outcome {
            Ok(in_bounds) => {
                // `committed_final` was loaded before the resolution, so it
                // describes the state the predicate was actually evaluated
                // against — a commit landing mid-probe cannot cause a needed
                // descriptor to be skipped. In an unsealed chain the predicate
                // additionally rests on the mutable frontier base, so the skip
                // is only taken once the frontier sealed.
                if probe.committed_final && self.may_skip_descriptor(false) {
                    // Below the frozen committed prefix the base can never change:
                    // the predicate is final and needs no descriptor.
                    self.committed_final_reads
                        .set(self.committed_final_reads.get() + 1);
                } else {
                    self.captured_reads.borrow_mut().push(
                        ReadDescriptor::from_delta_probe(key.clone(), prior, op, in_bounds)
                            .with_location(probe.id),
                    );
                }
                if in_bounds {
                    DeltaProbe::InBounds
                } else {
                    DeltaProbe::OutOfBounds
                }
            }
            Err(blocking_txn_idx) => DeltaProbe::Dependency(blocking_txn_idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use block_stm_mvmemory::ReadOrigin;
    use block_stm_storage::InMemoryStorage;
    use block_stm_vm::Version;

    fn fixture() -> (
        MVMemory<u64, u64>,
        InMemoryStorage<u64, u64>,
        ExecutionMetrics,
    ) {
        let mvmemory = MVMemory::new(8);
        let mut storage = InMemoryStorage::new();
        storage.insert(1, 100);
        storage.insert(2, 200);
        (mvmemory, storage, ExecutionMetrics::new())
    }

    #[test]
    fn reads_prefer_multiversion_over_storage() {
        let (mvmemory, storage, metrics) = fixture();
        mvmemory.record(Version::new(1, 0), vec![], vec![(1, 111)]);
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache);
        assert_eq!(view.read(&1), ReadOutcome::Value(111));
        assert_eq!(view.read(&2), ReadOutcome::Value(200));
        assert_eq!(view.read(&9), ReadOutcome::NotFound);
        let reads = view.take_read_set();
        assert_eq!(reads.len(), 3);
        assert_eq!(
            reads[0].origin,
            ReadOrigin::MultiVersion(Version::new(1, 0))
        );
        assert!(reads[0].id.is_resolved(), "hot-path descriptors carry ids");
        assert_eq!(reads[1].origin, ReadOrigin::Storage);
        assert_eq!(reads[2].origin, ReadOrigin::Storage);
        // All three locations are now memoized in the worker cache.
        assert_eq!(cache.borrow().len(), 3);
    }

    #[test]
    fn own_index_writes_are_invisible() {
        let (mvmemory, storage, metrics) = fixture();
        mvmemory.record(Version::new(3, 0), vec![], vec![(1, 333)]);
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache);
        // txn 3 must not see its own (or higher) multi-version entries: value comes
        // from storage.
        assert_eq!(view.read(&1), ReadOutcome::Value(100));
    }

    #[test]
    fn estimates_surface_as_dependencies_and_are_not_recorded() {
        let (mvmemory, storage, metrics) = fixture();
        mvmemory.record(Version::new(1, 0), vec![], vec![(1, 111)]);
        mvmemory.convert_writes_to_estimates(1);
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache);
        assert_eq!(view.read(&1), ReadOutcome::Dependency(1));
        assert_eq!(view.reads_captured(), 0);
    }

    #[test]
    fn committed_prefix_reads_skip_descriptor_capture() {
        let (mvmemory, storage, metrics) = fixture();
        mvmemory.record(Version::new(0, 0), vec![], vec![(1, 111)]);
        // Transactions 0 and 1 committed: a reader at index 2 sees only final state.
        mvmemory.freeze_committed_prefix(2);
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 2, &metrics, &cache);
        assert_eq!(view.read(&1), ReadOutcome::Value(111));
        // Storage fall-throughs below the watermark are final too.
        assert_eq!(view.read(&2), ReadOutcome::Value(200));
        assert_eq!(
            view.reads_captured(),
            0,
            "final reads record no descriptors"
        );
        assert_eq!(view.committed_final_reads(), 2);
        // A reader above the watermark still captures descriptors.
        let speculative = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache);
        assert_eq!(speculative.read(&1), ReadOutcome::Value(111));
        assert_eq!(speculative.reads_captured(), 1);
        assert_eq!(speculative.committed_final_reads(), 0);
    }

    #[test]
    fn cache_is_shared_across_views_of_one_worker() {
        let (mvmemory, storage, metrics) = fixture();
        mvmemory.record(Version::new(0, 0), vec![], vec![(1, 111)]);
        let cache = RefCell::new(LocationCache::new());
        let first = MVHashMapView::new(&mvmemory, &storage, 2, &metrics, &cache);
        assert_eq!(first.read(&1), ReadOutcome::Value(111));
        drop(first);
        let second = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache);
        assert_eq!(second.read(&1), ReadOutcome::Value(111));
        let stats = cache.borrow().stats();
        // One global first touch by record(), one interner hit by the first view,
        // then a pure cache hit for the second view.
        assert_eq!(stats.interner_hits, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn delta_chains_resolve_against_the_storage_base_and_record_sums() {
        let (mvmemory, storage, metrics) = fixture();
        // Key 1 holds 100 in storage; txn 1 applies +5 as a delta.
        mvmemory.record_with_deltas(
            Version::new(1, 0),
            vec![],
            vec![],
            vec![(1, block_stm_vm::DeltaOp::add(5, 1_000))],
        );
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache);
        assert_eq!(view.read(&1), ReadOutcome::Value(105));
        let (resolutions, chain_max) = view.delta_resolution_stats();
        assert_eq!((resolutions, chain_max), (1, 1));
        let reads = view.take_read_set();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].origin, ReadOrigin::Resolved { accumulated: 105 });
    }

    #[test]
    fn probes_record_predicates_and_stay_in_bounds_across_base_changes() {
        let (mvmemory, storage, metrics) = fixture();
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache);
        let op = block_stm_vm::DeltaOp::add(50, 200);
        // Base is storage's 100: 100 + 50 <= 200.
        assert_eq!(view.probe_delta(&1, 0, op), DeltaProbe::InBounds);
        // 100 + 50 + 51 > 200.
        assert_eq!(
            view.probe_delta(&1, 50, block_stm_vm::DeltaOp::add(51, 200)),
            DeltaProbe::OutOfBounds
        );
        let reads = view.take_read_set();
        assert_eq!(reads.len(), 2);
        assert_eq!(
            reads[0].origin,
            ReadOrigin::DeltaProbe {
                prior: 0,
                op,
                in_bounds: true
            }
        );
        match reads[1].origin {
            ReadOrigin::DeltaProbe { in_bounds, .. } => assert!(!in_bounds),
            other => panic!("unexpected origin {other:?}"),
        }
    }

    #[test]
    fn frontier_reads_are_stamped_and_shadowed_by_own_block_writes() {
        let (mvmemory, storage, metrics) = fixture();
        let frontier: FrontierOverlay<u64, u64> = FrontierOverlay::new();
        frontier.publish(vec![(1u64, 150u64), (5, 500)]);
        mvmemory.record(Version::new(1, 0), vec![], vec![(5, 555)]);
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache)
            .with_frontier(&frontier, false);
        // Key 1: absent from this block's map → served by the overlay (150
        // shadows storage's 100) with a stamped frontier descriptor.
        assert_eq!(view.read(&1), ReadOutcome::Value(150));
        // Key 5: this block's own write shadows the overlay — version descriptor.
        assert_eq!(view.read(&5), ReadOutcome::Value(555));
        // Key 2: absent from map *and* overlay → storage value, stamp 0.
        assert_eq!(view.read(&2), ReadOutcome::Value(200));
        // Key 9: absent everywhere.
        assert_eq!(view.read(&9), ReadOutcome::NotFound);
        assert_eq!(view.frontier_reads(), 3);
        let reads = view.take_read_set();
        assert_eq!(reads.len(), 4);
        match reads[0].origin {
            ReadOrigin::Frontier { stamp } => assert_ne!(stamp, 0),
            other => panic!("unexpected origin {other:?}"),
        }
        assert_eq!(
            reads[1].origin,
            ReadOrigin::MultiVersion(Version::new(1, 0))
        );
        assert_eq!(reads[2].origin, ReadOrigin::Frontier { stamp: 0 });
        assert_eq!(reads[3].origin, ReadOrigin::Frontier { stamp: 0 });
        // A later predecessor commit to key 2 bumps its stamp: the recorded
        // descriptor no longer validates.
        mvmemory.record(Version::new(3, 0), reads.clone(), vec![]);
        assert!(mvmemory.validate_read_set_with_frontier(
            3,
            |key| frontier
                .get(key)
                .or_else(|| storage.get(key))
                .map(|value| value as u128),
            |key| Some(frontier.stamp_of(key)),
        ));
        frontier.publish(vec![(2u64, 201u64)]);
        assert!(!mvmemory.validate_read_set_with_frontier(
            3,
            |key| frontier
                .get(key)
                .or_else(|| storage.get(key))
                .map(|value| value as u128),
            |key| Some(frontier.stamp_of(key)),
        ));
    }

    #[test]
    fn unsealed_frontier_disables_committed_final_skip_for_base_reads() {
        let (mvmemory, storage, metrics) = fixture();
        let frontier: FrontierOverlay<u64, u64> = FrontierOverlay::new();
        let cache = RefCell::new(LocationCache::new());
        // Nothing committed in this block: txn 0 is trivially committed-final,
        // but its base reads rest on the (still mutable) frontier and must
        // record stamped descriptors while unsealed ...
        let view = MVHashMapView::new(&mvmemory, &storage, 0, &metrics, &cache)
            .with_frontier(&frontier, false);
        assert_eq!(view.read(&1), ReadOutcome::Value(100));
        assert_eq!(view.committed_final_reads(), 0);
        assert_eq!(view.reads_captured(), 1);
        // ... and once sealed the skip returns.
        let sealed = MVHashMapView::new(&mvmemory, &storage, 0, &metrics, &cache)
            .with_frontier(&frontier, true);
        assert_eq!(sealed.read(&1), ReadOutcome::Value(100));
        assert_eq!(sealed.committed_final_reads(), 1);
        assert_eq!(sealed.reads_captured(), 0);
    }

    #[test]
    fn sealed_committed_final_fallthrough_serves_the_overlay_value() {
        let (mvmemory, storage, metrics) = fixture();
        let frontier: FrontierOverlay<u64, u64> = FrontierOverlay::new();
        frontier.publish(vec![(2u64, 222u64)]);
        mvmemory.freeze_committed_prefix(1);
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 1, &metrics, &cache)
            .with_frontier(&frontier, true);
        // Final fall-through must still layer overlay over storage.
        assert_eq!(view.read(&2), ReadOutcome::Value(222));
        assert_eq!(view.committed_final_reads(), 1);
        assert_eq!(view.reads_captured(), 0);
    }

    #[test]
    fn probes_surface_estimates_as_dependencies() {
        let (mvmemory, storage, metrics) = fixture();
        mvmemory.record_with_deltas(
            Version::new(1, 0),
            vec![],
            vec![],
            vec![(1, block_stm_vm::DeltaOp::add(1, 1_000))],
        );
        mvmemory.convert_writes_to_estimates(1);
        let cache = RefCell::new(LocationCache::new());
        let view = MVHashMapView::new(&mvmemory, &storage, 3, &metrics, &cache);
        assert_eq!(
            view.probe_delta(&1, 0, block_stm_vm::DeltaOp::add(1, 1_000)),
            DeltaProbe::Dependency(1)
        );
        assert_eq!(view.reads_captured(), 0);
    }
}
