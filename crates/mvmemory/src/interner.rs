//! Location interning: access path → dense id + lock-free cell handle.
//!
//! Level 1 of the two-level multi-version memory. The paper's "concurrent hashmap
//! over access paths" (§4) survives here only as the *interner*: each access path is
//! resolved through the sharded map **once per block**, yielding a dense
//! [`LocationId`] and a shared handle to the location's
//! [`VersionedCell`](block_stm_sync::VersionedCell). Every later access goes through
//! one of two cheaper routes:
//!
//! * a **per-worker [`LocationCache`]** — a plain (unsynchronized) FxHash map owned
//!   by one worker thread, memoizing `key → (id, cell)` for the block. A cache hit
//!   costs one fast hash and zero shard-lock acquisitions.
//! * the **id registry** — a lock-free `id → cell` array (RCU-published chunks of
//!   `OnceLock` slots) used by validation and abort handling, which see locations as
//!   the [`LocationId`]s recorded in read/write sets rather than as keys.
//!
//! Ids are assigned densely from 0 in first-touch order and stay stable across
//! [`Interner::reset`], which also *recycles* the cells: between blocks (under
//! `&mut`, the RCU quiescent point) every cell is cleared in place instead of
//! reallocated, so steady-state blocks do no interning work for previously seen
//! access paths beyond the per-worker cache warm-up. The one exception is key
//! *churn*: workloads that touch fresh access paths every block would grow the
//! interner without bound, so `reset` fully re-arms (drops every interning) once
//! the location count has doubled since the working set was last measured —
//! memory then tracks ~2× the live working set, while stable key sets never pay a
//! re-arm.

use crate::entry::MVEntry;
use block_stm_sync::{FxHashMap, ShardedMap, SnapshotPtr, VersionedCell};
use parking_lot::Mutex;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Dense per-block identifier of an interned memory location.
///
/// Ids index the lock-free registry used by validation; `u32` keeps read-set
/// descriptors small. [`LocationId::UNRESOLVED`] marks descriptors built outside the
/// interned hot path (tests, external callers) — consumers fall back to key lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocationId(u32);

impl LocationId {
    /// Sentinel for descriptors whose location was never interned.
    pub const UNRESOLVED: LocationId = LocationId(u32::MAX);

    /// Returns `true` unless this is the [`UNRESOLVED`](Self::UNRESOLVED) sentinel.
    pub fn is_resolved(self) -> bool {
        self != Self::UNRESOLVED
    }

    /// The dense index this id maps to in the registry.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The lock-free cell type of one interned location: entries are either full
/// values or commutative [`DeltaOp`](block_stm_vm::DeltaOp) writes.
pub(crate) type LocationCell<V> = VersionedCell<MVEntry<V>>;

/// A resolved location: its dense id plus the shared versioned cell.
#[derive(Debug)]
pub(crate) struct Interned<V> {
    pub id: LocationId,
    pub cell: Arc<LocationCell<V>>,
}

// Manual impl: the derive would add an unnecessary `V: Clone` bound.
impl<V> Clone for Interned<V> {
    fn clone(&self) -> Self {
        Self {
            id: self.id,
            cell: Arc::clone(&self.cell),
        }
    }
}

/// Registry chunk size; chunks are append-only and shared between registry
/// snapshots, so growth republishes only the (tiny) outer chunk list.
const REGISTRY_CHUNK: usize = 256;

/// Below this many interned locations the doubling heuristic never re-arms: the
/// bookkeeping of a small interner is cheaper than re-interning a hot set.
const PRUNE_MIN_LOCATIONS: u32 = 16_384;

type RegistryChunk<V> = Arc<Vec<OnceLock<Arc<LocationCell<V>>>>>;

/// Lock-free `LocationId → cell` lookup: an RCU-published list of `OnceLock` chunks.
///
/// `get` is two atomic loads plus an index; `set` is called once per id (under the
/// interner's first-touch path) and only takes the growth mutex when a new chunk is
/// needed. A reader holding a pre-growth snapshot simply misses brand-new ids and
/// falls back to key lookup — correct, merely slower, and only possible in the
/// instant around a first touch.
struct Registry<V> {
    chunks: SnapshotPtr<Vec<RegistryChunk<V>>>,
    grow: Mutex<()>,
}

impl<V> Registry<V> {
    fn new() -> Self {
        Self {
            chunks: SnapshotPtr::new(Vec::new()),
            grow: Mutex::new(()),
        }
    }

    fn get(&self, id: LocationId) -> Option<&Arc<LocationCell<V>>> {
        let index = id.index();
        let chunks = self.chunks.load();
        chunks
            .get(index / REGISTRY_CHUNK)?
            .get(index % REGISTRY_CHUNK)?
            .get()
    }

    fn set(&self, id: LocationId, cell: Arc<LocationCell<V>>) {
        let index = id.index();
        let chunk_index = index / REGISTRY_CHUNK;
        if self.chunks.load().len() <= chunk_index {
            let _guard = self.grow.lock();
            let current = self.chunks.load();
            if current.len() <= chunk_index {
                let mut grown = current.clone();
                while grown.len() <= chunk_index {
                    grown.push(Arc::new(
                        (0..REGISTRY_CHUNK).map(|_| OnceLock::new()).collect(),
                    ));
                }
                self.chunks.publish(grown);
            }
        }
        let chunks = self.chunks.load();
        let slot = &chunks[chunk_index][index % REGISTRY_CHUNK];
        let inserted = slot.set(cell).is_ok();
        debug_assert!(inserted, "registry id {index} set twice");
    }

    /// Drops every registration, chunk and parked snapshot (the interner's full
    /// re-arm path).
    fn clear(&mut self) {
        self.chunks.set(Vec::new());
    }

    /// Recycles every registered cell in place for the next block. `&mut self` is
    /// the quiescent point required by the RCU reclamation contract, and — caches
    /// having been dropped — the registry is the sole owner of each cell, so the
    /// walk is `Arc::get_mut` + [`VersionedCell::reset`] per location with no
    /// reallocation. A cell (or whole chunk) pinned by a leaked external handle is
    /// replaced instead.
    fn reset_cells(&mut self) {
        self.chunks.quiesce();
        for shared_chunk in self.chunks.get_mut() {
            match Arc::get_mut(shared_chunk) {
                Some(chunk) => {
                    for slot in chunk.iter_mut() {
                        if let Some(shared_cell) = slot.get_mut() {
                            match Arc::get_mut(shared_cell) {
                                Some(cell) => cell.reset(),
                                // A stale external handle pins the old cell; give
                                // the location a fresh one rather than sharing
                                // state with the holdout.
                                None => *shared_cell = Arc::new(LocationCell::new()),
                            }
                        }
                    }
                }
                // The chunk itself is pinned (leaked registry snapshot): replace it
                // wholesale with fresh cells under the same ids.
                None => {
                    let rebuilt: Vec<OnceLock<Arc<LocationCell<V>>>> = shared_chunk
                        .iter()
                        .map(|slot| {
                            let fresh = OnceLock::new();
                            if slot.get().is_some() {
                                fresh.set(Arc::new(LocationCell::new())).ok();
                            }
                            fresh
                        })
                        .collect();
                    *shared_chunk = Arc::new(rebuilt);
                }
            }
        }
    }
}

/// The block-scoped location interner: sharded first-touch map + id registry.
///
/// The map stores only the dense id per key; the registry owns the cells. Between
/// blocks the registry is therefore the *sole* owner (worker caches have been
/// dropped), which lets [`reset`](Interner::reset) recycle every cell in place with
/// a plain chunk walk — no map iteration, no re-registration, no handle churn.
pub(crate) struct Interner<K, V> {
    map: ShardedMap<K, LocationId>,
    registry: Registry<V>,
    next_id: AtomicU32,
    /// The interned-location count measured one block after the last full re-arm —
    /// the working-set estimate the doubling heuristic compares against. Mutated
    /// only under `&mut` (reset).
    prune_baseline: u32,
    /// Set by a full re-arm so the next reset re-measures the working set.
    rearmed: bool,
}

impl<K, V> Debug for Interner<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interner")
            .field("locations", &self.next_id.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K, V> Interner<K, V>
where
    K: Eq + Hash + Clone,
{
    pub fn new(shards: usize) -> Self {
        Self {
            map: ShardedMap::new(shards),
            registry: Registry::new(),
            next_id: AtomicU32::new(0),
            prune_baseline: 0,
            rearmed: true,
        }
    }

    /// Number of interned locations (== the next id to assign).
    pub fn len(&self) -> usize {
        self.next_id.load(Ordering::Relaxed) as usize
    }

    /// Read-only lookup: resolves `key` if it was already interned. One shard read
    /// lock; does not create a cell.
    pub fn lookup(&self, key: &K) -> Option<Interned<V>> {
        let id = self.map.read_with(key, |entry| entry.copied())?;
        let cell = Arc::clone(self.registry.get(id)?);
        Some(Interned { id, cell })
    }

    /// Resolves `key`, interning it on first touch. Returns the entry and whether
    /// this call performed the interning (`true` == global first touch, i.e. a shard
    /// write-lock acquisition and a fresh cell).
    pub fn resolve(&self, key: &K) -> (Interned<V>, bool) {
        if let Some(found) = self.lookup(key) {
            return (found, false);
        }
        let (id, first_touch) = self.map.get_or_insert_with(key.clone(), || {
            let id = LocationId(self.next_id.fetch_add(1, Ordering::Relaxed));
            self.registry.set(id, Arc::new(LocationCell::new()));
            id
        });
        let cell = Arc::clone(
            self.registry
                .get(id)
                .expect("an interned id is always registered"),
        );
        (Interned { id, cell }, first_touch)
    }

    /// Lock-free `id → cell` lookup through the registry.
    pub fn cell_by_id(&self, id: LocationId) -> Option<&Arc<LocationCell<V>>> {
        self.registry.get(id)
    }

    /// Invokes `f` on every interned `(key, cell)` pair (shard by shard; cold path).
    pub fn for_each(&self, mut f: impl FnMut(&K, &Arc<LocationCell<V>>)) {
        self.map.for_each(|key, id| {
            if let Some(cell) = self.registry.get(*id) {
                f(key, cell);
            }
        });
    }

    /// Re-arms the interner for the next block: every cell is cleared **in place**
    /// (recycled) under its existing id, so previously seen access paths keep their
    /// interning across blocks and the key map is not even touched. Requires
    /// `&mut self`: exclusive access is the quiescent point at which all RCU garbage
    /// is reclaimed, and callers must have dropped per-worker caches (their `Arc`
    /// clones) beforehand — a cell that is still externally referenced is replaced
    /// instead of recycled.
    ///
    /// Growth bound: once the location count exceeds [`PRUNE_MIN_LOCATIONS`] *and*
    /// has doubled since the working set was last measured, the interner instead
    /// drops **all** interning (map, registry, ids) and lets the next block
    /// re-intern its live set. Under per-block key churn this caps memory at ~2×
    /// the working set; a stable key set never doubles and is never dropped.
    pub fn reset(&mut self) {
        let interned = *self.next_id.get_mut();
        if self.rearmed {
            self.prune_baseline = interned.max(PRUNE_MIN_LOCATIONS);
            self.rearmed = false;
        }
        if interned > PRUNE_MIN_LOCATIONS && interned / 2 >= self.prune_baseline {
            self.map.clear();
            self.registry.clear();
            *self.next_id.get_mut() = 0;
            self.rearmed = true;
            return;
        }
        self.registry.reset_cells();
    }
}

/// Statistics of one per-worker [`LocationCache`], flushed into the block metrics
/// when the worker finishes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LocationCacheStats {
    /// Accesses resolved entirely inside the worker cache (no shared-state touch).
    pub hits: u64,
    /// Cache misses resolved by the sharded map's read path (another worker had
    /// already interned the location).
    pub interner_hits: u64,
    /// Global first touches: the access interned the location (shard write lock).
    pub interner_misses: u64,
}

/// A per-worker memoization of `key → (LocationId, cell)`.
///
/// One instance per worker thread per block, used without any synchronization: a
/// steady-state access resolves its location with a single FxHash lookup and then
/// operates on the lock-free cell directly — zero shard-lock acquisitions and zero
/// SipHash work, which is the acceptance bar of the two-level design.
#[derive(Debug)]
pub struct LocationCache<K, V> {
    /// `key → index into entries`; the index is copied out of the map so the hit
    /// path does exactly one hash lookup (returning `&Interned` straight from the
    /// map would extend its borrow across the miss path's inserts).
    map: FxHashMap<K, u32>,
    entries: Vec<Interned<V>>,
    stats: LocationCacheStats,
}

impl<K, V> Default for LocationCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> LocationCache<K, V> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            map: FxHashMap::default(),
            entries: Vec::new(),
            stats: LocationCacheStats::default(),
        }
    }

    /// Number of memoized locations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no location has been resolved through this cache yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The hit/miss counters accumulated so far.
    pub fn stats(&self) -> LocationCacheStats {
        self.stats
    }
}

impl<K, V> LocationCache<K, V>
where
    K: Eq + Hash + Clone,
{
    /// Resolves `key` through the cache — one fast-hash lookup on a hit — falling
    /// back to (and memoizing from) the interner on a miss.
    pub(crate) fn resolve(&mut self, interner: &Interner<K, V>, key: &K) -> &Interned<V> {
        let slot = match self.map.get(key) {
            Some(&slot) => {
                self.stats.hits += 1;
                slot
            }
            None => {
                let (entry, first_touch) = interner.resolve(key);
                if first_touch {
                    self.stats.interner_misses += 1;
                } else {
                    self.stats.interner_hits += 1;
                }
                let slot = u32::try_from(self.entries.len()).expect("cache outgrew u32 indices");
                self.entries.push(entry);
                self.map.insert(key.clone(), slot);
                slot
            }
        };
        &self.entries[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_assigns_dense_ids_in_first_touch_order() {
        let interner: Interner<u64, u64> = Interner::new(8);
        let (a, first_a) = interner.resolve(&10);
        let (b, first_b) = interner.resolve(&20);
        let (a2, first_a2) = interner.resolve(&10);
        assert!(first_a && first_b && !first_a2);
        assert_eq!(a.id.index(), 0);
        assert_eq!(b.id.index(), 1);
        assert_eq!(a.id, a2.id);
        assert!(Arc::ptr_eq(&a.cell, &a2.cell));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn registry_lookup_matches_interned_cells_across_chunks() {
        let interner: Interner<u64, u64> = Interner::new(8);
        // Cross several chunk boundaries.
        let entries: Vec<_> = (0..600u64).map(|k| interner.resolve(&k).0).collect();
        for entry in &entries {
            let from_registry = interner.cell_by_id(entry.id).expect("registered");
            assert!(Arc::ptr_eq(from_registry, &entry.cell));
        }
        assert!(interner.cell_by_id(LocationId(600)).is_none());
        assert!(interner.cell_by_id(LocationId::UNRESOLVED).is_none());
    }

    #[test]
    fn reset_recycles_cells_and_keeps_ids_stable() {
        let mut interner: Interner<u64, u64> = Interner::new(8);
        let (entry, _) = interner.resolve(&7);
        entry.cell.write(3, 0, MVEntry::Value(42));
        let id = entry.id;
        let cell_ptr = Arc::as_ptr(&entry.cell);
        drop(entry); // emulate caches being dropped before reset
        interner.reset();
        let (after, first_touch) = interner.resolve(&7);
        assert!(!first_touch, "location stays interned across blocks");
        assert_eq!(after.id, id);
        assert_eq!(
            Arc::as_ptr(&after.cell),
            cell_ptr,
            "cell recycled, not reallocated"
        );
        assert_eq!(after.cell.live_entries(), 0, "cell cleared");
        assert_eq!(
            after.cell.slot_count(),
            1,
            "slots kept for in-place revival"
        );
        assert!(Arc::ptr_eq(
            interner.cell_by_id(id).expect("re-registered"),
            &after.cell
        ));
    }

    #[test]
    fn unbounded_key_churn_triggers_a_full_rearm() {
        let mut interner: Interner<u64, u64> = Interner::new(16);
        let churn_per_block = (PRUNE_MIN_LOCATIONS / 2) as u64;
        let mut fresh_key = 0u64;
        let mut max_interned = 0;
        let mut rearmed = false;
        for _block in 0..8 {
            for _ in 0..churn_per_block {
                let (entry, _) = interner.resolve(&fresh_key);
                entry.cell.write(0, 0, MVEntry::Value(fresh_key));
                fresh_key += 1;
            }
            max_interned = max_interned.max(interner.len());
            interner.reset();
            if interner.len() == 0 {
                rearmed = true;
            }
        }
        assert!(rearmed, "churn never triggered a re-arm");
        // Memory is capped at twice the measured working set (floored at the
        // pruning minimum) rather than the total number of keys ever touched
        // (8 blocks x churn here).
        assert!(
            max_interned <= 2 * PRUNE_MIN_LOCATIONS as usize,
            "interner grew to {max_interned} entries"
        );
        // After a re-arm the interner serves fresh blocks correctly.
        let (entry, first_touch) = interner.resolve(&fresh_key);
        assert!(first_touch);
        entry.cell.write(1, 0, MVEntry::Value(7));
        assert!(matches!(
            entry.cell.read(2),
            block_stm_sync::versioned_cell::CellRead::Value {
                value: &MVEntry::Value(7),
                ..
            }
        ));
    }

    #[test]
    fn stable_key_sets_are_never_rearmed() {
        let mut interner: Interner<u64, u64> = Interner::new(16);
        let keys: Vec<u64> = (0..1_000).collect();
        let first_ids: Vec<LocationId> = keys.iter().map(|k| interner.resolve(k).0.id).collect();
        for _block in 0..10 {
            interner.reset();
            for (key, expected) in keys.iter().zip(&first_ids) {
                let (entry, first_touch) = interner.resolve(key);
                assert!(!first_touch, "stable key was dropped");
                assert_eq!(entry.id, *expected, "stable key changed id");
            }
        }
    }

    #[test]
    fn reset_replaces_cells_pinned_by_stale_handles() {
        let mut interner: Interner<u64, u64> = Interner::new(8);
        let (entry, _) = interner.resolve(&7);
        let stale = Arc::clone(&entry.cell);
        drop(entry);
        interner.reset();
        let (after, _) = interner.resolve(&7);
        assert!(!Arc::ptr_eq(&after.cell, &stale), "pinned cell replaced");
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let interner: Interner<u64, u64> = Interner::new(8);
        // Another "worker" interns key 5 first.
        interner.resolve(&5);
        let mut cache: LocationCache<u64, u64> = LocationCache::new();
        cache.resolve(&interner, &5); // interner hit
        cache.resolve(&interner, &5); // cache hit
        cache.resolve(&interner, &9); // global first touch
        cache.resolve(&interner, &9); // cache hit
        assert_eq!(
            cache.stats(),
            LocationCacheStats {
                hits: 2,
                interner_hits: 1,
                interner_misses: 1,
            }
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_first_touches_agree_on_one_cell_per_key() {
        let interner: Arc<Interner<u64, u64>> = Arc::new(Interner::new(16));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let interner = Arc::clone(&interner);
                std::thread::spawn(move || {
                    let mut cache = LocationCache::new();
                    let mut seen = Vec::new();
                    for round in 0..200u64 {
                        let key = (t + round) % 32;
                        let entry = cache.resolve(&interner, &key).clone();
                        seen.push((key, entry.id, Arc::as_ptr(&entry.cell) as usize));
                    }
                    seen
                })
            })
            .collect();
        let mut by_key: std::collections::HashMap<u64, (LocationId, usize)> =
            std::collections::HashMap::new();
        for handle in handles {
            for (key, id, cell) in handle.join().unwrap() {
                let entry = by_key.entry(key).or_insert((id, cell));
                assert_eq!(entry.0, id, "two ids for key {key}");
                assert_eq!(entry.1, cell, "two cells for key {key}");
            }
        }
        assert_eq!(interner.len(), 32);
        // Dense: every id below len is registered.
        for id in 0..32u32 {
            assert!(interner.cell_by_id(LocationId(id)).is_some());
        }
    }
}
