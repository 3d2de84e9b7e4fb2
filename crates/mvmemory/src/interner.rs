//! Location interning: access path → dense id + shared cell handle.
//!
//! Level 1 of the two-level multi-version memory. The paper's "concurrent hashmap
//! over access paths" (§4) survives here only as the *interner*: each access path is
//! resolved through the sharded map **once per block**, yielding a dense
//! [`LocationId`] and a shared handle to the location's [`LocationCell`]. Every
//! later access goes through one of two cheaper routes:
//!
//! * a **per-worker [`LocationCache`]** — a plain (unsynchronized) FxHash map owned
//!   by one worker thread, memoizing `key → (id, cell)` for the block. A cache hit
//!   costs one fast hash and zero shard-lock acquisitions.
//! * the **id registry** — an `id → cell` vector behind a read-write lock, used by
//!   validation and abort handling, which see locations as the [`LocationId`]s
//!   recorded in read/write sets rather than as keys. A lookup runs its closure
//!   under the read guard; only a global first touch takes the write lock.
//!
//! Ids are assigned densely from 0 in first-touch order and stay stable across
//! [`Interner::reset`], which also *recycles* the cells: between blocks every cell
//! is cleared in place instead of reallocated, so steady-state blocks do no
//! interning work for previously seen access paths beyond the per-worker cache
//! warm-up. The one exception is key *churn*: workloads that touch fresh access
//! paths every block would grow the interner without bound, so `reset` fully
//! re-arms (drops every interning) once the location count has doubled since the
//! working set was last measured — memory then tracks ~2× the live working set,
//! while stable key sets never pay a re-arm.
//!
//! Lock order: a shard lock may be held while the registry is locked (first
//! touch), and the registry's read guard while a cell is locked; never the
//! reverse.

pub(crate) use crate::versioned_cell::LocationCell;
use block_stm_sync::{FxHashMap, ShardedMap};
use parking_lot::RwLock;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// Dense per-block identifier of an interned memory location.
///
/// Ids index the registry used by validation; `u32` keeps read-set descriptors
/// small. [`LocationId::UNRESOLVED`] marks descriptors built outside the
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

/// Below this many interned locations the doubling heuristic never re-arms: the
/// bookkeeping of a small interner is cheaper than re-interning a hot set.
const PRUNE_MIN_LOCATIONS: u32 = 16_384;

/// The block-scoped location interner: sharded first-touch map + id registry.
///
/// The map stores only the dense id per key; the registry owns the cells. Between
/// blocks the registry is therefore the *sole* owner (worker caches have been
/// dropped), which lets [`reset`](Interner::reset) recycle every cell in place with
/// a plain walk — no map iteration, no re-registration, no handle churn.
pub(crate) struct Interner<K, V> {
    map: ShardedMap<K, LocationId>,
    /// `id → cell`: a location's id is its index, pushed under the write lock
    /// by the first touch.
    registry: RwLock<Vec<Arc<LocationCell<V>>>>,
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
            .field("locations", &self.len())
            .finish()
    }
}

impl<K, V> Interner<K, V> {
    /// Number of interned locations (== the next id to assign).
    pub fn len(&self) -> usize {
        self.registry.read().len()
    }

    /// `id → cell` lookup through the registry: runs `f` under the read guard.
    pub fn with_cell<R>(&self, id: LocationId, f: impl FnOnce(&LocationCell<V>) -> R) -> Option<R> {
        self.registry.read().get(id.index()).map(|cell| f(cell))
    }
}

impl<K, V> Interner<K, V>
where
    K: Eq + Hash + Clone,
{
    pub fn new(shards: usize) -> Self {
        Self {
            map: ShardedMap::new(shards),
            registry: RwLock::new(Vec::new()),
            prune_baseline: 0,
            rearmed: true,
        }
    }

    /// Read-only lookup: runs `f` on `key`'s cell if the key was already
    /// interned. One shard read lock, then the registry's; creates no cell.
    pub fn with_cell_of_key<R>(&self, key: &K, f: impl FnOnce(&LocationCell<V>) -> R) -> Option<R> {
        let id = self.map.read_with(key, |entry| entry.copied())?;
        self.with_cell(id, f)
    }

    /// Resolves `key`, interning it on first touch. Returns the entry and whether
    /// this call performed the interning (`true` == global first touch, i.e. a shard
    /// write-lock acquisition and a fresh cell).
    pub fn resolve(&self, key: &K) -> (Interned<V>, bool) {
        let (id, first_touch) = match self.map.read_with(key, |entry| entry.copied()) {
            Some(id) => (id, false),
            None => self.map.get_or_insert_with(key.clone(), || {
                let mut registry = self.registry.write();
                let id =
                    LocationId(u32::try_from(registry.len()).expect("location ids fit in u32"));
                registry.push(Arc::new(LocationCell::new()));
                id
            }),
        };
        let cell = Arc::clone(&self.registry.read()[id.index()]);
        (Interned { id, cell }, first_touch)
    }

    /// Invokes `f` on every interned `(key, cell)` pair (shard by shard; cold path).
    pub fn for_each(&self, mut f: impl FnMut(&K, &LocationCell<V>)) {
        self.map.for_each(|key, id| {
            self.with_cell(*id, |cell| f(key, cell));
        });
    }

    /// Re-arms the interner for the next block: every cell is cleared **in place**
    /// (recycled) under its existing id, so previously seen access paths keep their
    /// interning across blocks and the key map is not even touched. Callers must
    /// have dropped per-worker caches (their `Arc` clones) beforehand — a cell that
    /// is still externally referenced is replaced instead of recycled, so the
    /// stale holder never observes the next block.
    ///
    /// Growth bound: once the location count exceeds [`PRUNE_MIN_LOCATIONS`] *and*
    /// has doubled since the working set was last measured, the interner instead
    /// drops **all** interning (map, registry, ids) and lets the next block
    /// re-intern its live set. Under per-block key churn this caps memory at ~2×
    /// the working set; a stable key set never doubles and is never dropped.
    pub fn reset(&mut self) {
        let registry = self.registry.get_mut();
        let interned = registry.len() as u32;
        if self.rearmed {
            self.prune_baseline = interned.max(PRUNE_MIN_LOCATIONS);
            self.rearmed = false;
        }
        if interned > PRUNE_MIN_LOCATIONS && interned / 2 >= self.prune_baseline {
            self.map.clear();
            registry.clear();
            self.rearmed = true;
            return;
        }
        for shared in registry.iter_mut() {
            match Arc::get_mut(shared) {
                Some(cell) => cell.reset(),
                None => *shared = Arc::new(LocationCell::new()),
            }
        }
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
/// operates on the cell directly — zero shard-lock acquisitions and zero
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
    use crate::entry::MVEntry;

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
        // Enough locations that the registry grows several times.
        let entries: Vec<_> = (0..600u64).map(|k| interner.resolve(&k).0).collect();
        for entry in &entries {
            let same = interner.with_cell(entry.id, |cell| std::ptr::eq(cell, &*entry.cell));
            assert_eq!(same, Some(true), "registered");
        }
        assert!(interner.with_cell(LocationId(600), |_| ()).is_none());
        assert!(interner.with_cell(LocationId::UNRESOLVED, |_| ()).is_none());
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
        assert_eq!(after.cell.len(), 0, "cell cleared");
        assert_eq!(
            interner.with_cell(id, |cell| std::ptr::eq(cell, &*after.cell)),
            Some(true),
            "re-registered"
        );
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
        let read = entry.cell.with_entries_below(2, |entries| {
            entries
                .last()
                .and_then(|entry| entry.payload.as_value().copied())
        });
        assert_eq!(read, Some(7));
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
            assert!(interner.with_cell(LocationId(id), |_| ()).is_some());
        }
    }
}
