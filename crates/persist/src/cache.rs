//! A block-scoped, read-through cache over a [`LogStore`].
//!
//! Execution engines fall through to [`Storage`] for every key the current
//! block has not written below the reading transaction — on a disk-backed
//! store that is one positioned read per fall-through. [`BlockCache`] sits in
//! between: the first read of a key pays the disk read (including a cached
//! *negative* result for absent keys, which account workloads hit constantly
//! for untouched resources), every later read in the block is a hash lookup.
//!
//! The cache is **block-scoped by design**: the embedder calls
//! [`BlockCache::begin_block`] between blocks, which drops every entry. That
//! makes coherence trivial — within one block the underlying store only gains
//! keys the engines never read through (committed writes are served by the
//! engines' multi-version memory, not by storage) — and bounds the footprint
//! to one block's access set.
//!
//! [`BlockCache::prefetch`] warms the cache ahead of execution from a
//! declared or predicted access set using [`LogStore::read_coalesced`], which
//! turns thousands of scattered point reads into a few large sequential ones.
//! [`BlockCache::prefetch_declared`] derives that set from the block's
//! [`Transaction::declared_write_set`] hints where the transaction model
//! provides them.

use crate::codec::PersistCodec;
use crate::errors::PersistError;
use crate::log::LogStore;
use block_stm_storage::Storage;
use block_stm_vm::Transaction;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hit/miss counters of one cache (monotonic over its lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the cache (including cached negatives).
    pub hits: u64,
    /// Reads that had to go to the log store.
    pub misses: u64,
    /// Entries loaded by prefetching.
    pub prefetched: u64,
}

/// Block-scoped read-through cache; see the module docs.
pub struct BlockCache<K, V> {
    store: Arc<LogStore<K, V>>,
    /// `None` = the store confirmed the key is absent (cached negative).
    entries: RwLock<HashMap<K, Option<V>>>,
    /// Block-boundary counter: bumped by every [`begin_block`](Self::begin_block)
    /// (invalidate) and [`advance_block`](Self::advance_block) (absorb), so an
    /// embedder can tell which boundary a cached view belongs to.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    prefetched: AtomicU64,
}

impl<K, V> BlockCache<K, V>
where
    K: PersistCodec + Eq + Hash + Clone,
    V: PersistCodec + Clone,
{
    /// A fresh, empty cache over `store`.
    pub fn new(store: Arc<LogStore<K, V>>) -> Self {
        Self {
            store,
            entries: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            prefetched: AtomicU64::new(0),
        }
    }

    /// The log store this cache reads through to.
    pub fn store(&self) -> &Arc<LogStore<K, V>> {
        &self.store
    }

    /// Starts a new block: drops every cached entry and advances the epoch.
    /// Call between blocks — this is what keeps the cache trivially coherent
    /// with commits persisted by a sink after the previous block. The
    /// keep-everything alternative is [`advance_block`](Self::advance_block).
    pub fn begin_block(&self) {
        self.entries.write().clear();
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of block boundaries this cache has crossed (via
    /// [`begin_block`](Self::begin_block) or
    /// [`advance_block`](Self::advance_block)).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Crosses a block boundary by **absorbing** the committed writes instead
    /// of dropping the cache: every `(key, value)` in `committed` replaces (or
    /// seeds) its cache entry, every other entry stays valid and keeps serving
    /// hits. Advances the epoch.
    ///
    /// Coherence contract: `committed` must cover every mutation the
    /// underlying store received since the previous boundary — which is
    /// exactly a block's (or a whole chain's) committed `updates`, the same
    /// stream a persisting [`CommitSink`](block_stm::CommitSink) appends to
    /// the log. Chained execution uses this between chains:
    /// `BlockStm::execute_chain` resolves cross-block reads through its
    /// in-memory frontier while the chain runs, and the net updates are absorbed here so
    /// the *next* chain starts warm instead of re-reading disk.
    pub fn advance_block<I>(&self, committed: I)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let mut entries = self.entries.write();
        for (key, value) in committed {
            entries.insert(key, Some(value));
        }
        drop(entries);
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Warms the cache with `keys` (primed from a declared or predicted access
    /// set) using one coalesced disk pass; already-cached keys are skipped.
    /// Returns how many entries were loaded, counting cached negatives.
    pub fn prefetch<I>(&self, keys: I) -> Result<usize, PersistError>
    where
        I: IntoIterator<Item = K>,
    {
        let wanted: Vec<K> = {
            let entries = self.entries.read();
            keys.into_iter()
                .filter(|key| !entries.contains_key(key))
                .collect()
        };
        if wanted.is_empty() {
            return Ok(0);
        }
        let fetched = self.store.read_coalesced(wanted)?;
        let loaded = fetched.len();
        let mut entries = self.entries.write();
        for (key, value) in fetched {
            entries.insert(key, value);
        }
        self.prefetched.fetch_add(loaded as u64, Ordering::Relaxed);
        Ok(loaded)
    }

    /// Prefetches the union of the block's [`Transaction::declared_write_set`]
    /// hints — for account workloads the write set (sender, receiver, fee
    /// accounts) is also the hot read set. Transactions without a declaration
    /// contribute nothing; their reads fall back to read-through.
    pub fn prefetch_declared<T>(&self, block: &[T]) -> Result<usize, PersistError>
    where
        T: Transaction<Key = K>,
    {
        let mut keys: Vec<K> = Vec::new();
        for txn in block {
            if let Some(declared) = txn.declared_write_set() {
                keys.extend(declared);
            }
        }
        self.prefetch(keys)
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prefetched: self.prefetched.load(Ordering::Relaxed),
        }
    }
}

/// The engines read through the cache exactly as they would read the store.
///
/// Like [`LogStore`]'s implementation, `get` panics on I/O failure or on-disk
/// corruption (the trait has no error channel and a silent `None` would be
/// wrong); the parallel engine contains the panic as a typed worker error.
impl<K, V> Storage<K, V> for BlockCache<K, V>
where
    K: PersistCodec + Eq + Hash + Clone + Send + Sync,
    V: PersistCodec + Clone + Send + Sync,
{
    fn get(&self, key: &K) -> Option<V> {
        if let Some(cached) = self.entries.read().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = self
            .store
            .get_value(key)
            .expect("log store read failed (I/O error or corruption)");
        self.entries.write().insert(key.clone(), value.clone());
        value
    }

    fn contains(&self, key: &K) -> bool {
        if let Some(cached) = self.entries.read().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached.is_some();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Storage::contains(&*self.store, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;

    fn cached_store(dir: &TempDir) -> BlockCache<u64, u64> {
        let store = Arc::new(LogStore::open(dir.path().join("log")).expect("open"));
        store.ingest((0..100u64).map(|k| (k, k * 2))).unwrap();
        BlockCache::new(store)
    }

    #[test]
    fn second_read_is_served_from_memory() {
        let dir = TempDir::new("cache-hit");
        let cache = cached_store(&dir);
        let before = cache.store().stats().disk_reads;
        assert_eq!(Storage::get(&cache, &7), Some(14));
        assert_eq!(cache.store().stats().disk_reads, before + 1);
        assert_eq!(Storage::get(&cache, &7), Some(14));
        assert_eq!(cache.store().stats().disk_reads, before + 1, "cache hit");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn negative_results_are_cached_too() {
        let dir = TempDir::new("cache-negative");
        let cache = cached_store(&dir);
        assert_eq!(Storage::get(&cache, &999), None);
        let reads = cache.store().stats().disk_reads;
        assert_eq!(Storage::get(&cache, &999), None);
        assert!(!Storage::contains(&cache, &999));
        assert_eq!(cache.store().stats().disk_reads, reads);
    }

    #[test]
    fn prefetch_coalesces_and_later_reads_hit() {
        let dir = TempDir::new("cache-prefetch");
        let cache = cached_store(&dir);
        let loaded = cache.prefetch((0..100u64).chain([555])).unwrap();
        assert_eq!(loaded, 101);
        let reads_after_prefetch = cache.store().stats().disk_reads;
        assert!(
            reads_after_prefetch <= 4,
            "prefetch should coalesce, used {reads_after_prefetch} reads"
        );
        for key in 0..100u64 {
            assert_eq!(Storage::get(&cache, &key), Some(key * 2));
        }
        assert_eq!(Storage::get(&cache, &555), None);
        assert_eq!(cache.store().stats().disk_reads, reads_after_prefetch);
        // Prefetching again is a no-op: everything is already cached.
        assert_eq!(cache.prefetch(0..100u64).unwrap(), 0);
    }

    #[test]
    fn advance_block_absorbs_committed_writes_and_keeps_the_rest() {
        let dir = TempDir::new("cache-advance");
        let cache = cached_store(&dir);
        assert_eq!(cache.epoch(), 0);
        assert_eq!(Storage::get(&cache, &1), Some(2));
        assert_eq!(Storage::get(&cache, &2), Some(4));
        // A sink persists a block's commits…
        cache.store().append_batch(&[(1u64, 999u64)], 1).unwrap();
        let reads_before = cache.store().stats().disk_reads;
        // …absorbing them replaces the stale entry and keeps the others warm.
        cache.advance_block([(1u64, 999u64)]);
        assert_eq!(cache.epoch(), 1);
        assert_eq!(Storage::get(&cache, &1), Some(999));
        assert_eq!(Storage::get(&cache, &2), Some(4));
        assert_eq!(
            cache.store().stats().disk_reads,
            reads_before,
            "absorbed boundary must not cost disk reads"
        );
        // The invalidating boundary also advances the epoch.
        cache.begin_block();
        assert_eq!(cache.epoch(), 2);
    }

    #[test]
    fn chained_execution_streams_through_the_persist_tier() {
        use crate::sink::WriteBehindSink;
        use block_stm::BlockStmBuilder;
        use block_stm_vm::synthetic::SyntheticTransaction;
        use block_stm_vm::Vm;

        let dir = TempDir::new("cache-chain");
        let store = Arc::new(LogStore::open(dir.path().join("log")).expect("open"));
        store.ingest((0..4u64).map(|k| (k, 0u64))).unwrap();
        let cache = BlockCache::new(store.clone());
        let sink = Arc::new(WriteBehindSink::new(store.clone()));
        let chain = BlockStmBuilder::new(Vm::for_testing())
            .concurrency(2)
            .commit_sink::<u64, u64>(sink.clone())
            .build();

        // The chain reads its base state through the cache; cross-block reads
        // resolve in the executor's frontier, so the cache stays coherent (it
        // only ever serves the pre-chain state during the chain).
        let blocks: Vec<Vec<SyntheticTransaction>> = (0..6)
            .map(|_| {
                (0..8)
                    .map(|i| SyntheticTransaction::increment(i % 4))
                    .collect()
            })
            .collect();
        let output = chain.execute_chain(&blocks, &cache).unwrap();
        sink.flush().unwrap();

        // The committed stream reached the log in stream order: the store's
        // latest value per key equals the chain's net update.
        for (key, value) in &output.updates {
            assert_eq!(store.get_value(key).unwrap(), Some(*value));
        }
        // Until the boundary the cache still serves the pre-chain base…
        assert_eq!(Storage::get(&cache, &0), Some(0));
        // …absorbing the chain's net updates flips it to the post-chain state
        // without a single disk read.
        let reads_before = cache.store().stats().disk_reads;
        cache.advance_block(output.updates.iter().cloned());
        for (key, value) in &output.updates {
            assert_eq!(Storage::get(&cache, key), Some(*value));
        }
        assert_eq!(cache.store().stats().disk_reads, reads_before);
        assert_eq!(cache.epoch(), 1);
    }

    #[test]
    fn begin_block_drops_all_entries() {
        let dir = TempDir::new("cache-scope");
        let cache = cached_store(&dir);
        assert_eq!(Storage::get(&cache, &1), Some(2));
        // A commit sink appends a new value between blocks…
        cache.store().append_batch(&[(1u64, 999u64)], 1).unwrap();
        // …the stale entry survives until the block boundary…
        assert_eq!(Storage::get(&cache, &1), Some(2));
        // …and the next block observes the committed value.
        cache.begin_block();
        assert_eq!(Storage::get(&cache, &1), Some(999));
    }
}
