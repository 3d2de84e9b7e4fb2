//! The `MVMemory` data structure (Algorithm 2), on the two-level lock-free layout,
//! extended with commutative **delta** entries.
//!
//! See the crate docs for the design. In short: locations are *interned* (level 1)
//! into dense [`LocationId`]s with one lock-free cell each (level 2); the
//! per-location lock-protected `BTreeMap` of the original design is gone.
//! Steady-state reads and writes resolve locations through per-worker
//! [`LocationCache`]s and then operate on cells without any lock.
//!
//! Each cell entry is an [`MVEntry`]: a full value, or a [`DeltaOp`] that applies
//! commutatively on top of whatever the lower entries (or the storage base)
//! resolve to. A read whose highest lower entry is a delta **lazily resolves the
//! chain** — walking down live entries, accumulating deltas, until the nearest
//! full write (or the storage base supplied by the caller) — and reports
//! [`MVReadOutput::Resolved`] carrying the accumulated sum, which is exactly what
//! validation needs (see the crate docs for the safety argument).

use crate::entry::MVEntry;
use crate::interner::{Interner, LocationCache, LocationCell, LocationId};
use crate::read_set::{ReadDescriptor, ReadOrigin};
use block_stm_sync::versioned_cell::CellRead;
use block_stm_sync::{PaddedAtomicUsize, RcuCell};
use block_stm_vm::{AggregatorValue, DeltaOp, Incarnation, TxnIndex, Version};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// Shard count of the interner map (first-touch path only).
const INTERNER_SHARDS: usize = 256;

/// Result of a speculative [`MVMemory::read`] on behalf of transaction `txn_idx`
/// (mirrors the `OK` / `NOT_FOUND` / `READ_ERROR` statuses of the paper, plus the
/// delta-resolution outcome). The value is an owned clone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MVReadOutput<V> {
    /// The highest write below `txn_idx` is a full write: its version and value.
    Versioned(Version, V),
    /// The highest entries below `txn_idx` form a delta chain: `accumulated` is
    /// the chain resolved onto its base — the full write at `base_version`, or
    /// the caller-supplied storage base (`base_version == None`). Validation
    /// compares this **sum**, not the versions along the chain, which is what
    /// lets interleaved in-bounds deltas commute.
    Resolved {
        /// Version of the full write the chain bottomed out at, if any.
        base_version: Option<Version>,
        /// The resolved aggregator value (base plus every delta, clamped).
        accumulated: u128,
    },
    /// No transaction below `txn_idx` wrote this location; the caller should fall
    /// back to pre-block storage.
    NotFound,
    /// The resolution hit an ESTIMATE marker left by an aborted incarnation of
    /// the given transaction: the caller has a dependency on it.
    Dependency(TxnIndex),
}

impl<V> MVReadOutput<V> {
    /// Returns the versioned value, if the read was served by one full write.
    pub fn as_versioned(&self) -> Option<(Version, &V)> {
        match self {
            MVReadOutput::Versioned(version, value) => Some((*version, value)),
            _ => None,
        }
    }

    /// Returns `true` for [`MVReadOutput::Dependency`].
    pub fn is_dependency(&self) -> bool {
        matches!(self, MVReadOutput::Dependency(_))
    }
}

/// Borrowed result of resolving one location for one reader: the internal
/// equivalent of [`MVReadOutput`] that borrows the base value instead of cloning
/// it (validation and snapshotting work on sums and never clone).
#[derive(Debug, PartialEq, Eq)]
enum ResolvedRead<'a, V> {
    /// The highest lower entry is a full write.
    Versioned(Version, &'a V),
    /// A delta chain resolved onto `base_version` (or the storage base).
    Resolved {
        base_version: Option<Version>,
        accumulated: u128,
        chain_len: usize,
    },
    /// No lower entry exists.
    NotFound,
    /// The walk hit an ESTIMATE left by the given transaction.
    Dependency(TxnIndex),
}

impl<V> ResolvedRead<'_, V> {
    /// Number of delta entries the resolution walked through.
    fn chain_len(&self) -> usize {
        match self {
            ResolvedRead::Resolved { chain_len, .. } => *chain_len,
            _ => 0,
        }
    }

    fn to_owned(&self) -> MVReadOutput<V>
    where
        V: Clone,
    {
        match self {
            ResolvedRead::Versioned(version, value) => {
                MVReadOutput::Versioned(*version, (*value).clone())
            }
            ResolvedRead::Resolved {
                base_version,
                accumulated,
                ..
            } => MVReadOutput::Resolved {
                base_version: *base_version,
                accumulated: *accumulated,
            },
            ResolvedRead::NotFound => MVReadOutput::NotFound,
            ResolvedRead::Dependency(blocking) => MVReadOutput::Dependency(*blocking),
        }
    }
}

/// Result of a cached hot-path read ([`MVMemory::read_with_cache`]): the location's
/// interned id, the read outcome, and whether the outcome is **final** — every
/// transaction below the reader has committed, so the value can never change for the
/// rest of the block and the read needs no validation descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRead<V> {
    /// The location's interned id (stamped into read-set descriptors).
    pub id: LocationId,
    /// The read outcome (owned clone of the value, if any).
    pub output: MVReadOutput<V>,
    /// `true` iff the read was served entirely from the frozen committed prefix
    /// (see [`MVMemory::freeze_committed_prefix`]): the executor may skip recording
    /// a read descriptor for it.
    pub committed_final: bool,
    /// Number of delta entries the read resolved through (0 for plain reads;
    /// feeds the `delta_resolutions` / `delta_chain_len_max` metrics).
    pub delta_chain_len: usize,
}

/// Result of a delta bounds probe ([`MVMemory::probe_delta_with_cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The location's interned id (stamped into the probe's read descriptor so
    /// validation resolves through the lock-free id registry, not by key hash).
    pub id: LocationId,
    /// `Ok(in_bounds)`, or `Err(blocking_txn_idx)` when the resolution hit an
    /// ESTIMATE.
    pub outcome: Result<bool, TxnIndex>,
    /// Number of delta entries the resolution walked through.
    pub chain_len: usize,
    /// `true` iff the predicate was evaluated entirely against the frozen
    /// committed prefix (loaded *before* the resolution): the base can never
    /// change again, so no validation descriptor is needed.
    pub committed_final: bool,
}

/// One location written by a transaction's last finished incarnation: the key plus
/// its interned id (the id makes abort/removal handling a lock-free registry lookup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrittenLocation<K> {
    /// The written access path.
    pub key: K,
    /// Its interned location id.
    pub id: LocationId,
}

/// The shared multi-version memory for one block execution.
///
/// `K` is the memory-location (access-path) type and `V` the stored value type. The
/// structure is sized for a fixed block of `block_size` transactions and is shared by
/// reference across all worker threads.
#[derive(Debug)]
pub struct MVMemory<K, V> {
    /// Level 1: `location → (id, cell)` interning; the only place the sharded map is
    /// touched. Steady-state accesses resolve through per-worker [`LocationCache`]s.
    interner: Interner<K, V>,
    /// Per transaction: the locations written by its last finished incarnation.
    last_written_locations: Vec<RcuCell<Vec<WrittenLocation<K>>>>,
    /// Per transaction: the read-set recorded by its last finished incarnation.
    last_read_set: Vec<RcuCell<Vec<ReadDescriptor<K>>>>,
    /// Length of the committed prefix frozen by the executor: every entry written by
    /// a transaction below this index is final for the rest of the block.
    committed_watermark: PaddedAtomicUsize,
    block_size: usize,
}

impl<K, V> MVMemory<K, V>
where
    K: Eq + Hash + Clone + Debug,
    V: Debug + AggregatorValue,
{
    /// Creates the multi-version memory for a block of `block_size` transactions.
    pub fn new(block_size: usize) -> Self {
        Self {
            interner: Interner::new(INTERNER_SHARDS),
            last_written_locations: (0..block_size).map(|_| RcuCell::new(Vec::new())).collect(),
            last_read_set: (0..block_size).map(|_| RcuCell::new(Vec::new())).collect(),
            committed_watermark: PaddedAtomicUsize::new(0),
            block_size,
        }
    }

    /// Freezes the committed prefix at `prefix` transactions: the executor's commit
    /// ladder guarantees every transaction below `prefix` is committed, so their
    /// entries are final. Reads wholly below the watermark take the cheap
    /// no-revalidation path ([`read_with_cache`](Self::read_with_cache) reports them
    /// as `committed_final`). Monotone within a block; [`reset`](Self::reset)
    /// re-arms it.
    ///
    /// Callers that use deltas must fold each committed transaction's delta
    /// entries first ([`materialize_deltas`](Self::materialize_deltas)), so
    /// below-watermark reads find concrete values.
    pub fn freeze_committed_prefix(&self, prefix: usize) {
        debug_assert!(prefix <= self.block_size);
        debug_assert!(prefix >= self.committed_watermark.load());
        self.committed_watermark.store(prefix);
    }

    /// The frozen committed-prefix length (see
    /// [`freeze_committed_prefix`](Self::freeze_committed_prefix)).
    pub fn committed_prefix(&self) -> usize {
        self.committed_watermark.load()
    }

    /// Number of transactions in the block this memory serves.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of distinct locations interned so far.
    pub fn interned_locations(&self) -> usize {
        self.interner.len()
    }

    /// Re-arms the memory for a new block of `block_size` transactions. The interner
    /// keeps every `location → id` assignment and **recycles** the versioned cells
    /// in place (cleared, not reallocated), and the per-transaction snapshot arrays
    /// are swapped to a shared empty snapshot instead of reallocating.
    ///
    /// Requires `&mut self`: exclusive access proves no worker thread still reads
    /// from the previous block — this is the RCU quiescent point at which all
    /// garbage parked by the lock-free cells is freed. Workers must drop their
    /// [`LocationCache`]s before the reset (a cell pinned by a stale cache handle is
    /// replaced instead of recycled).
    pub fn reset(&mut self, block_size: usize) {
        self.interner.reset();
        self.block_size = block_size;
        self.committed_watermark.store(0);
        // One shared empty snapshot per array: re-arming a transaction is a pointer
        // swap, not an allocation.
        let empty_locations: Arc<Vec<WrittenLocation<K>>> = Arc::new(Vec::new());
        self.last_written_locations.truncate(block_size);
        for cell in &self.last_written_locations {
            cell.store_arc(Arc::clone(&empty_locations));
        }
        while self.last_written_locations.len() < block_size {
            self.last_written_locations.push(RcuCell::new(Vec::new()));
        }
        let empty_reads: Arc<Vec<ReadDescriptor<K>>> = Arc::new(Vec::new());
        self.last_read_set.truncate(block_size);
        for cell in &self.last_read_set {
            cell.store_arc(Arc::clone(&empty_reads));
        }
        while self.last_read_set.len() < block_size {
            self.last_read_set.push(RcuCell::new(Vec::new()));
        }
    }

    /// Resolves the entry chain of one cell for a reader at `txn_idx`: the highest
    /// live entry strictly below the reader if it is a full write, otherwise the
    /// delta chain accumulated down to the nearest full write or the storage base
    /// (`base_of`, consulted at most once; `None` means "absent", which reads as
    /// aggregator `0`). `committed == true` takes the cheaper frozen-prefix cell
    /// reads (no seqlock re-check).
    ///
    /// The walk is a sequence of independent lock-free cell reads, not an atomic
    /// snapshot — standard Block-STM speculation: any torn interleaving is caught
    /// by (re-)validation, and the validation run that commits a transaction
    /// observes settled entries (see the crate docs).
    fn resolve_cell<'a>(
        cell: &'a LocationCell<V>,
        txn_idx: TxnIndex,
        committed: bool,
        base_of: impl FnOnce() -> Option<u128>,
    ) -> ResolvedRead<'a, V> {
        let mut deltas: Vec<DeltaOp> = Vec::new();
        let mut bound = txn_idx;
        loop {
            let read = if committed {
                cell.read_committed(bound)
            } else {
                cell.read(bound)
            };
            match read {
                CellRead::Missing => {
                    if deltas.is_empty() {
                        return ResolvedRead::NotFound;
                    }
                    let base = base_of().unwrap_or(0);
                    return ResolvedRead::Resolved {
                        base_version: None,
                        accumulated: Self::fold_chain(base, &deltas),
                        chain_len: deltas.len(),
                    };
                }
                CellRead::Estimate { txn_idx: blocking } => {
                    return ResolvedRead::Dependency(blocking)
                }
                CellRead::Value {
                    txn_idx: writer,
                    incarnation,
                    value,
                } => {
                    let version = Version::new(writer, incarnation);
                    match value {
                        MVEntry::Value(value) => {
                            if deltas.is_empty() {
                                return ResolvedRead::Versioned(version, value);
                            }
                            return ResolvedRead::Resolved {
                                base_version: Some(version),
                                accumulated: Self::fold_chain(value.to_aggregator(), &deltas),
                                chain_len: deltas.len(),
                            };
                        }
                        MVEntry::Delta(op) => {
                            deltas.push(*op);
                            bound = writer;
                        }
                    }
                }
            }
        }
    }

    /// Applies a chain of deltas (collected top → bottom) onto `base`, bottom-up.
    ///
    /// Clamped application keeps doomed speculative interleavings deterministic;
    /// on settled (committed) state the clamp never engages, because every
    /// application's bounds predicate was validated against exactly that state.
    fn fold_chain(base: u128, deltas_top_down: &[DeltaOp]) -> u128 {
        deltas_top_down
            .iter()
            .rev()
            .fold(base, |acc, op| op.apply_clamped(acc))
    }

    /// Builds the merged entry list of one incarnation: full writes then deltas
    /// (disjoint keys by the context's contract; on violation, later entries win
    /// via the recording loop's last-wins dedup).
    fn merge_effects(write_set: Vec<(K, V)>, delta_set: Vec<(K, DeltaOp)>) -> Vec<(K, MVEntry<V>)> {
        let mut entries = Vec::with_capacity(write_set.len() + delta_set.len());
        entries.extend(
            write_set
                .into_iter()
                .map(|(key, value)| (key, MVEntry::Value(value))),
        );
        entries.extend(
            delta_set
                .into_iter()
                .map(|(key, op)| (key, MVEntry::Delta(op))),
        );
        entries
    }

    /// Records the results of an execution (`record`, Lines 36–42), resolving
    /// locations through the shared interner.
    ///
    /// Applies the write-set to the per-location cells, updates the
    /// written-locations and read-set snapshots, and returns `true` iff the
    /// incarnation wrote to at least one location its previous incarnation did not
    /// write (the `wrote_new_location` indicator consumed by
    /// `Scheduler.finish_execution`).
    pub fn record(
        &self,
        version: Version,
        read_set: Vec<ReadDescriptor<K>>,
        write_set: Vec<(K, V)>,
    ) -> bool {
        self.record_with_deltas(version, read_set, write_set, Vec::new())
    }

    /// [`record`](Self::record) with a delta-set: deltas publish [`MVEntry::Delta`]
    /// entries and otherwise follow exactly the full-write lifecycle (ESTIMATE
    /// marking, tombstoning, `wrote_new_location` accounting).
    pub fn record_with_deltas(
        &self,
        version: Version,
        read_set: Vec<ReadDescriptor<K>>,
        write_set: Vec<(K, V)>,
        delta_set: Vec<(K, DeltaOp)>,
    ) -> bool {
        let Version {
            txn_idx,
            incarnation,
        } = version;
        debug_assert!(txn_idx < self.block_size);
        let effects = Self::merge_effects(write_set, delta_set);
        let mut new_locations = Vec::with_capacity(effects.len());
        let mut pending = effects.into_iter();
        while let Some((key, entry)) = pending.next() {
            // Last write wins on duplicate keys (and keeps the one-publish-per-
            // incarnation contract of `VersionedCell::write`).
            if pending.as_slice().iter().any(|(later, _)| *later == key) {
                continue;
            }
            let interned = self.interner.resolve(&key).0;
            interned.cell.write(txn_idx, incarnation, entry);
            new_locations.push(WrittenLocation {
                key,
                id: interned.id,
            });
        }
        self.finish_record(version, read_set, new_locations)
    }

    /// [`record`](Self::record) through a per-worker [`LocationCache`]: the hot path
    /// used by the parallel executor, which resolves every location with a fast
    /// local hash lookup (no shard lock and no handle cloning once cached).
    pub fn record_with_cache(
        &self,
        cache: &mut LocationCache<K, V>,
        version: Version,
        read_set: Vec<ReadDescriptor<K>>,
        write_set: Vec<(K, V)>,
    ) -> bool {
        self.record_with_cache_deltas(cache, version, read_set, write_set, Vec::new())
    }

    /// [`record_with_cache`](Self::record_with_cache) with a delta-set.
    pub fn record_with_cache_deltas(
        &self,
        cache: &mut LocationCache<K, V>,
        version: Version,
        read_set: Vec<ReadDescriptor<K>>,
        write_set: Vec<(K, V)>,
        delta_set: Vec<(K, DeltaOp)>,
    ) -> bool {
        let Version {
            txn_idx,
            incarnation,
        } = version;
        debug_assert!(txn_idx < self.block_size);
        let effects = Self::merge_effects(write_set, delta_set);
        let mut new_locations = Vec::with_capacity(effects.len());
        let mut pending = effects.into_iter();
        while let Some((key, entry)) = pending.next() {
            // Last write wins on duplicate keys (see `record`).
            if pending.as_slice().iter().any(|(later, _)| *later == key) {
                continue;
            }
            let interned = cache.resolve(&self.interner, &key);
            interned.cell.write(txn_idx, incarnation, entry);
            let id = interned.id;
            new_locations.push(WrittenLocation { key, id });
        }
        self.finish_record(version, read_set, new_locations)
    }

    fn finish_record(
        &self,
        version: Version,
        read_set: Vec<ReadDescriptor<K>>,
        new_locations: Vec<WrittenLocation<K>>,
    ) -> bool {
        let wrote_new_location =
            self.rcu_update_written_locations(version.txn_idx, version.incarnation, new_locations);
        self.last_read_set[version.txn_idx].store(read_set);
        wrote_new_location
    }

    /// Updates `last_written_locations[txn_idx]`, tombstones entries the new
    /// incarnation no longer writes, and reports whether a location was written for
    /// the first time (`rcu_update_written_locations`, Lines 30–35). Removal is a
    /// flag store on the owned slot — no tree surgery, no map mutation.
    fn rcu_update_written_locations(
        &self,
        txn_idx: TxnIndex,
        incarnation: Incarnation,
        new_locations: Vec<WrittenLocation<K>>,
    ) -> bool {
        let prev_locations = self.last_written_locations[txn_idx].load();
        for unwritten in prev_locations
            .iter()
            .filter(|prev| !new_locations.iter().any(|new| new.id == prev.id))
        {
            let removed = self.with_cell_of(unwritten, |cell| cell.remove(txn_idx, incarnation));
            debug_assert!(
                removed == Some(true),
                "entry for a previously written location must exist"
            );
        }
        let wrote_new_location = new_locations
            .iter()
            .any(|new| !prev_locations.iter().any(|prev| prev.id == new.id));
        self.last_written_locations[txn_idx].store(new_locations);
        wrote_new_location
    }

    /// Resolves a previously written location to its cell and applies `f`: a
    /// lock-free registry lookup with no handle cloning (written locations always
    /// carry resolved ids; the key fallback only covers a registry snapshot that
    /// predates the id's chunk).
    fn with_cell_of<R>(
        &self,
        location: &WrittenLocation<K>,
        f: impl FnOnce(&LocationCell<V>) -> R,
    ) -> Option<R> {
        if let Some(cell) = self.interner.cell_by_id(location.id) {
            return Some(f(cell));
        }
        self.interner
            .lookup(&location.key)
            .map(|entry| f(&entry.cell))
    }

    /// Replaces every entry written by `txn_idx`'s last finished incarnation with an
    /// ESTIMATE marker (`convert_writes_to_estimates`, Lines 43–46). Called by the
    /// thread that successfully aborted the incarnation, *before* the transaction is
    /// re-scheduled for execution. A pure flag store per location — the slot arrays
    /// and the interner map are untouched. Delta entries are marked exactly like
    /// full writes: a resolution walking through the marker reports the dependency.
    pub fn convert_writes_to_estimates(&self, txn_idx: TxnIndex) {
        let prev_locations = self.last_written_locations[txn_idx].load();
        for location in prev_locations.iter() {
            let marked = self.with_cell_of(location, |cell| cell.mark_estimate(txn_idx));
            debug_assert!(
                marked == Some(true),
                "entry for a previously written location must exist"
            );
        }
    }

    /// Speculative read of `location` on behalf of transaction `txn_idx`
    /// (`read`, Lines 47–54): returns the entry written by the highest transaction
    /// with index strictly below `txn_idx` (resolving delta chains lazily — see
    /// [`MVReadOutput::Resolved`]), a dependency if the resolution hits an
    /// ESTIMATE, or `NotFound` if no lower transaction wrote the location.
    ///
    /// A chain that bottoms out at storage resolves against base `0` here; use
    /// [`read_with_base`](Self::read_with_base) (or the cached executor paths) to
    /// supply the real storage base.
    pub fn read(&self, location: &K, txn_idx: TxnIndex) -> MVReadOutput<V>
    where
        V: Clone,
    {
        self.read_with_base(location, txn_idx, || None)
    }

    /// [`read`](Self::read) with an explicit storage-base resolver, consulted (at
    /// most once) when a delta chain reaches pre-block storage.
    pub fn read_with_base(
        &self,
        location: &K,
        txn_idx: TxnIndex,
        base_of: impl FnOnce() -> Option<u128>,
    ) -> MVReadOutput<V>
    where
        V: Clone,
    {
        match self.interner.lookup(location) {
            None => MVReadOutput::NotFound,
            Some(interned) => {
                Self::resolve_cell(&interned.cell, txn_idx, false, base_of).to_owned()
            }
        }
    }

    /// Hot-path speculative read through a per-worker [`LocationCache`]: resolves
    /// the location with a local fast-hash lookup (interning it globally on the
    /// block-wide first touch), then reads the lock-free cell. Returns the interned
    /// id — callers stamp it into read-set descriptors so validation can skip key
    /// hashing entirely.
    ///
    /// When every transaction below the reader has committed (the frozen prefix,
    /// see [`freeze_committed_prefix`](Self::freeze_committed_prefix)), the read
    /// takes the cheaper committed cell path and is reported `committed_final`:
    /// its outcome can never change for the rest of the block, so the executor
    /// skips the read descriptor entirely — validation has nothing to re-check.
    pub fn read_with_cache(
        &self,
        cache: &mut LocationCache<K, V>,
        location: &K,
        txn_idx: TxnIndex,
    ) -> CachedRead<V>
    where
        V: Clone,
    {
        self.read_with_cache_base(cache, location, txn_idx, || None)
    }

    /// [`read_with_cache`](Self::read_with_cache) with an explicit storage-base
    /// resolver for delta chains that reach pre-block storage (the executor's
    /// view passes a storage lookup).
    pub fn read_with_cache_base(
        &self,
        cache: &mut LocationCache<K, V>,
        location: &K,
        txn_idx: TxnIndex,
        base_of: impl FnOnce() -> Option<u128>,
    ) -> CachedRead<V>
    where
        V: Clone,
    {
        // Load the watermark before the cell: the watermark only grows, so a read
        // that observes `txn_idx <= watermark` is entirely below committed — and
        // therefore immutable (and delta-folded) — entries.
        let committed_final = txn_idx <= self.committed_watermark.load();
        let interned = cache.resolve(&self.interner, location);
        let resolved = Self::resolve_cell(&interned.cell, txn_idx, committed_final, base_of);
        CachedRead {
            id: interned.id,
            delta_chain_len: resolved.chain_len(),
            output: resolved.to_owned(),
            committed_final,
        }
    }

    /// Speculative bounds probe for a delta application by `txn_idx` (the
    /// executor's `probe_delta` hot path): resolves the chain below the reader
    /// and evaluates `op`'s bounds predicate on top of it (plus the
    /// transaction's own prior cumulative delta).
    pub fn probe_delta_with_cache(
        &self,
        cache: &mut LocationCache<K, V>,
        location: &K,
        txn_idx: TxnIndex,
        prior: i128,
        op: DeltaOp,
        base_of: impl FnOnce() -> Option<u128>,
    ) -> ProbeOutcome {
        // The watermark is loaded BEFORE the resolution (like the read path's
        // `committed_final`): the flag must describe the state the predicate
        // was actually evaluated against, so callers can rely on it to decide
        // whether a validation descriptor is needed. A second, later load
        // could observe a commit that landed after a speculative base was
        // read — and wrongly skip the descriptor.
        let committed_final = txn_idx <= self.committed_watermark.load();
        let interned = cache.resolve(&self.interner, location);
        // `base_of` serves double duty: the chain's storage bottom inside the
        // resolution, or — when no entry exists at all — the probe's own base.
        let mut storage_base = Some(base_of);
        let mut deferred_base = || storage_base.take().expect("base consulted once")();
        let resolved =
            Self::resolve_cell(&interned.cell, txn_idx, committed_final, &mut deferred_base);
        let chain_len = resolved.chain_len();
        let outcome = match resolved {
            ResolvedRead::Versioned(_, value) => Ok(op.in_bounds_on(value.to_aggregator(), prior)),
            ResolvedRead::Resolved { accumulated, .. } => Ok(op.in_bounds_on(accumulated, prior)),
            ResolvedRead::NotFound => Ok(op.in_bounds_on(deferred_base().unwrap_or(0), prior)),
            ResolvedRead::Dependency(blocking) => Err(blocking),
        };
        ProbeOutcome {
            id: interned.id,
            outcome,
            chain_len,
            committed_final,
        }
    }

    /// Validates the read-set recorded by `txn_idx`'s last finished incarnation
    /// (`validate_read_set`, Lines 62–72): re-reads every location and compares the
    /// observed origin against the recorded descriptor — exact versions for full
    /// writes, **resolved sums** for chain reads and **bounds predicates** for
    /// delta probes.
    ///
    /// Delta descriptors whose chain bottoms out at storage resolve against base
    /// `0` here; executors use
    /// [`validate_read_set_with_base`](Self::validate_read_set_with_base).
    pub fn validate_read_set(&self, txn_idx: TxnIndex) -> bool {
        self.validate_read_set_with_base(txn_idx, |_| None)
    }

    /// [`validate_read_set`](Self::validate_read_set) with a storage-base
    /// resolver (`key → aggregator base`) for delta chains that reach pre-block
    /// storage.
    pub fn validate_read_set_with_base(
        &self,
        txn_idx: TxnIndex,
        base_of: impl Fn(&K) -> Option<u128>,
    ) -> bool {
        // Outside chained execution no frontier exists: a `Frontier` descriptor
        // can only be stale tooling state, and the conservative answer (abort)
        // is the safe one.
        self.validate_read_set_with_frontier(txn_idx, base_of, |_| None)
    }

    /// [`validate_read_set_with_base`](Self::validate_read_set_with_base) for
    /// chained execution: `frontier_stamp_of` resolves a key's **current**
    /// publication stamp in the cross-block [`FrontierOverlay`] (`None` when no
    /// frontier is attached — every `Frontier` descriptor then fails).
    ///
    /// A [`ReadOrigin::Frontier`] descriptor holds iff the multi-version map
    /// still has no lower entry for the location *and* the overlay still
    /// carries exactly the stamp the read observed — stamps are unique per
    /// publication, so stamp equality implies the observed value is unchanged,
    /// and a predecessor-block commit that overwrote the key since the read is
    /// guaranteed to fail the check.
    pub fn validate_read_set_with_frontier(
        &self,
        txn_idx: TxnIndex,
        base_of: impl Fn(&K) -> Option<u128>,
        frontier_stamp_of: impl Fn(&K) -> Option<u64>,
    ) -> bool {
        let prior_reads = self.last_read_set[txn_idx].load();
        prior_reads.iter().all(|descriptor| {
            self.descriptor_still_holds(descriptor, txn_idx, &base_of, &frontier_stamp_of)
        })
    }

    /// Diagnostic: formats what a fresh resolution of `descriptor`'s location
    /// observes for a reader at `txn_idx` (version, resolved sum, absence, or
    /// a blocking estimate). Used by the opt-in chained-commit audit to report
    /// the state a stale descriptor diverged from. Not on any hot path.
    pub fn describe_resolution(
        &self,
        descriptor: &ReadDescriptor<K>,
        txn_idx: TxnIndex,
        base_of: impl Fn(&K) -> Option<u128>,
    ) -> String
    where
        V: std::fmt::Debug,
    {
        self.resolve_descriptor_with(
            descriptor,
            txn_idx,
            || base_of(&descriptor.key),
            |read| format!("{read:?}"),
        )
    }

    /// Diagnostic twin of
    /// [`validate_read_set_with_frontier`](Self::validate_read_set_with_frontier):
    /// returns the descriptors that no longer hold instead of a bare boolean,
    /// so audit tooling can report exactly which read went stale. Not on any
    /// hot path.
    pub fn failed_read_descriptors(
        &self,
        txn_idx: TxnIndex,
        base_of: impl Fn(&K) -> Option<u128>,
        frontier_stamp_of: impl Fn(&K) -> Option<u64>,
    ) -> Vec<ReadDescriptor<K>> {
        self.last_read_set[txn_idx]
            .load()
            .iter()
            .filter(|descriptor| {
                !self.descriptor_still_holds(descriptor, txn_idx, &base_of, &frontier_stamp_of)
            })
            .cloned()
            .collect()
    }

    fn descriptor_still_holds(
        &self,
        descriptor: &ReadDescriptor<K>,
        txn_idx: TxnIndex,
        base_of: &impl Fn(&K) -> Option<u128>,
        frontier_stamp_of: &impl Fn(&K) -> Option<u64>,
    ) -> bool {
        self.resolve_descriptor_with(
            descriptor,
            txn_idx,
            || base_of(&descriptor.key),
            |read| {
                Self::origin_matches(
                    read,
                    descriptor.origin,
                    || base_of(&descriptor.key),
                    || frontier_stamp_of(&descriptor.key),
                )
            },
        )
    }

    /// Re-resolves a descriptor's location: by interned id through the lock-free
    /// registry when resolved (no hashing), falling back to key lookup otherwise.
    /// Both validation and the dependency pre-check dispatch through here so the
    /// two paths cannot diverge. `base_of` supplies the storage base for chains
    /// that bottom out below the block — it must match what the recording read
    /// used, or sum comparisons would be inconsistent.
    fn resolve_descriptor_with<R>(
        &self,
        descriptor: &ReadDescriptor<K>,
        txn_idx: TxnIndex,
        base_of: impl FnOnce() -> Option<u128>,
        f: impl FnOnce(ResolvedRead<'_, V>) -> R,
    ) -> R {
        if descriptor.id.is_resolved() {
            if let Some(cell) = self.interner.cell_by_id(descriptor.id) {
                return f(Self::resolve_cell(cell, txn_idx, false, base_of));
            }
        }
        match self.interner.lookup(&descriptor.key) {
            None => f(ResolvedRead::NotFound),
            Some(interned) => f(Self::resolve_cell(&interned.cell, txn_idx, false, base_of)),
        }
    }

    /// The aggregator value a fresh resolution observes, for sum/predicate
    /// comparisons: a full write's embedded value, a chain's accumulated sum
    /// (the resolution already folded the storage base in when it bottomed out
    /// there), or the storage base itself when no entry exists.
    fn observed_sum(
        read: &ResolvedRead<'_, V>,
        storage_base: impl FnOnce() -> Option<u128>,
    ) -> Option<u128> {
        match read {
            ResolvedRead::Versioned(_, value) => Some(value.to_aggregator()),
            ResolvedRead::Resolved { accumulated, .. } => Some(*accumulated),
            ResolvedRead::NotFound => Some(storage_base().unwrap_or(0)),
            ResolvedRead::Dependency(_) => None,
        }
    }

    fn origin_matches(
        read: ResolvedRead<'_, V>,
        origin: ReadOrigin,
        storage_base: impl FnOnce() -> Option<u128>,
        frontier_stamp: impl FnOnce() -> Option<u64>,
    ) -> bool {
        match origin {
            // Entry present as one full write: must match the exact version
            // observed before (Line 70–71; a prior storage read also fails here,
            // as does a location that grew a delta chain on top).
            ReadOrigin::MultiVersion(version) => match read {
                ResolvedRead::Versioned(observed, _) => observed == version,
                _ => false,
            },
            // Previously read from storage: only valid if nothing in the
            // multi-version map serves the location now (Line 68–69).
            ReadOrigin::Storage => matches!(read, ResolvedRead::NotFound),
            // Previously resolved through a delta chain: the fresh resolution
            // must yield the same sum — the versions along the chain are free to
            // differ (that freedom is the commutativity win). A chain folded
            // into a single committed value, or collapsed back to storage, still
            // passes when the sum is unchanged.
            ReadOrigin::Resolved { accumulated } => {
                Self::observed_sum(&read, storage_base) == Some(accumulated)
            }
            // A delta probe re-evaluates its bounds predicate on the fresh base:
            // the base may change arbitrarily as long as the outcome agrees.
            ReadOrigin::DeltaProbe {
                prior,
                op,
                in_bounds,
            } => match Self::observed_sum(&read, storage_base) {
                Some(base) => op.in_bounds_on(base, prior) == in_bounds,
                None => false,
            },
            // Chained execution: the read fell through to the cross-block
            // frontier overlay. It holds iff nothing in the multi-version map
            // serves the location now (like a storage read) AND the overlay
            // still carries exactly the stamp the read observed — a
            // predecessor-block commit that overwrote the key bumped the stamp
            // and fails the check.
            ReadOrigin::Frontier { stamp } => {
                matches!(read, ResolvedRead::NotFound) && frontier_stamp() == Some(stamp)
            }
        }
    }

    /// Returns the read-set recorded by the last finished incarnation of `txn_idx`.
    /// Used by the executor's "check known dependencies before re-executing"
    /// optimization (§4) and by tests.
    pub fn last_read_set(&self, txn_idx: TxnIndex) -> Arc<Vec<ReadDescriptor<K>>> {
        self.last_read_set[txn_idx].load()
    }

    /// Returns the locations written by the last finished incarnation of `txn_idx`.
    pub fn last_written_locations(&self, txn_idx: TxnIndex) -> Arc<Vec<WrittenLocation<K>>> {
        self.last_written_locations[txn_idx].load()
    }

    /// Scans the prior read-set of `txn_idx` and returns the first location currently
    /// marked as an ESTIMATE, if any, together with the blocking transaction index.
    /// This is the §4 mitigation for VMs that must restart from scratch: before paying
    /// for a full re-execution, cheaply check whether a known dependency is still
    /// unresolved. Like validation, the scan runs on ids: registry lookups plus
    /// lock-free cell reads — for delta descriptors the whole chain is walked, since
    /// an ESTIMATE anywhere in it blocks the resolution.
    pub fn first_estimate_in_prior_reads(&self, txn_idx: TxnIndex) -> Option<(K, TxnIndex)> {
        let prior_reads = self.last_read_set[txn_idx].load();
        for descriptor in prior_reads.iter() {
            // The storage base is irrelevant here: only ESTIMATEs matter.
            let blocking = self.resolve_descriptor_with(
                descriptor,
                txn_idx,
                || None,
                |read| match read {
                    ResolvedRead::Dependency(blocking) => Some(blocking),
                    _ => None,
                },
            );
            if let Some(blocking) = blocking {
                return Some((descriptor.key.clone(), blocking));
            }
        }
        None
    }

    /// Folds the delta entries of **committed** transaction `txn_idx` into
    /// concrete [`MVEntry::Value`] entries, and returns the materialized
    /// `(key, value)` pairs (for streaming sinks).
    ///
    /// Called by the commit drain, in commit order, before
    /// [`freeze_committed_prefix`](Self::freeze_committed_prefix) covers the
    /// transaction: every lower transaction is already committed and folded, so
    /// each resolution terminates after at most one step down. The republish
    /// reuses the committed incarnation number — both payloads resolve to the
    /// same value, so concurrent readers observe no semantic change (see the
    /// `VersionedCell::write` contract note).
    ///
    /// `base_of` supplies the storage base for chains that bottom out below the
    /// block.
    pub fn materialize_deltas(
        &self,
        txn_idx: TxnIndex,
        base_of: impl Fn(&K) -> Option<u128>,
    ) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let locations = self.last_written_locations[txn_idx].load();
        let mut materialized = Vec::new();
        for location in locations.iter() {
            let folded = self.with_cell_of(location, |cell| {
                let resolved =
                    Self::resolve_cell(cell, txn_idx + 1, false, || base_of(&location.key));
                match resolved {
                    ResolvedRead::Resolved { accumulated, .. } => {
                        // The top of the chain is this transaction's own delta
                        // entry (it committed with one recorded); fold the
                        // resolved value into it in place.
                        let incarnation = match cell.read(txn_idx + 1) {
                            CellRead::Value {
                                txn_idx: writer,
                                incarnation,
                                ..
                            } if writer == txn_idx => incarnation,
                            other => {
                                debug_assert!(
                                    false,
                                    "committed delta writer lost its entry: {other:?}"
                                );
                                return None;
                            }
                        };
                        let value = V::from_aggregator(accumulated);
                        cell.write(txn_idx, incarnation, MVEntry::Value(value.clone()));
                        Some(value)
                    }
                    // A full write at the top: nothing to fold.
                    _ => None,
                }
            });
            if let Some(Some(value)) = folded {
                materialized.push((location.key.clone(), value));
            }
        }
        materialized
    }

    /// Produces the final per-location values after all transactions committed
    /// (`snapshot`, Lines 55–61): for every location touched during the block, the
    /// value written by the highest transaction. Locations whose highest entry is an
    /// ESTIMATE (impossible after commit) or that only ever held tombstones are
    /// skipped, matching the paper's `status = OK` filter. Unresolved delta chains
    /// fold against base `0`; executors use
    /// [`snapshot_prefix_with_base`](Self::snapshot_prefix_with_base).
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        V: Clone,
    {
        self.snapshot_prefix(self.block_size)
    }

    /// Like [`snapshot`](Self::snapshot) but bounded: for every location touched
    /// during the block, the value written by the highest transaction *below
    /// `bound`*. Used by the executor when a `BlockLimiter` cuts the block at a
    /// committed boundary — the result equals a sequential execution of the
    /// truncated block, with writes of excluded (possibly half-executed) higher
    /// transactions filtered out by the version bound.
    pub fn snapshot_prefix(&self, bound: usize) -> Vec<(K, V)>
    where
        V: Clone,
    {
        self.snapshot_prefix_with_base(bound, |_| None)
    }

    /// [`snapshot_prefix`](Self::snapshot_prefix) with a storage-base resolver
    /// for delta chains that bottom out below the block (chains not yet folded
    /// by [`materialize_deltas`](Self::materialize_deltas)).
    pub fn snapshot_prefix_with_base(
        &self,
        bound: usize,
        base_of: impl Fn(&K) -> Option<u128>,
    ) -> Vec<(K, V)>
    where
        V: Clone,
    {
        debug_assert!(bound <= self.block_size);
        let mut output = Vec::new();
        self.interner.for_each(|key, cell| {
            match Self::resolve_cell(cell, bound, false, || base_of(key)) {
                ResolvedRead::Versioned(_, value) => output.push((key.clone(), value.clone())),
                ResolvedRead::Resolved { accumulated, .. } => {
                    output.push((key.clone(), V::from_aggregator(accumulated)))
                }
                ResolvedRead::NotFound | ResolvedRead::Dependency(_) => {}
            }
        });
        output
    }

    /// Number of live `(location, txn_idx)` entries; exposed for tests and metrics.
    pub fn entry_count(&self) -> usize {
        let mut count = 0;
        self.interner.for_each(|_, cell| {
            count += cell.live_entries();
        });
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Memory = MVMemory<u64, u64>;

    fn descriptor_mv(key: u64, txn: TxnIndex, inc: usize) -> ReadDescriptor<u64> {
        ReadDescriptor::from_version(key, Version::new(txn, inc))
    }

    #[test]
    fn read_returns_not_found_when_empty() {
        let memory = Memory::new(4);
        assert!(matches!(memory.read(&1, 2), MVReadOutput::NotFound));
    }

    #[test]
    fn read_returns_highest_lower_write() {
        let memory = Memory::new(8);
        memory.record(Version::new(1, 0), vec![], vec![(10, 100)]);
        memory.record(Version::new(3, 0), vec![], vec![(10, 300)]);
        memory.record(Version::new(6, 0), vec![], vec![(10, 600)]);

        // tx5 must see tx3's write even though tx6 also wrote (paper's example).
        assert_eq!(
            memory.read(&10, 5),
            MVReadOutput::Versioned(Version::new(3, 0), 300)
        );
        // tx1 sees nothing (only writes by strictly lower transactions are visible).
        assert!(matches!(memory.read(&10, 1), MVReadOutput::NotFound));
        // tx2 sees tx1's write.
        assert_eq!(
            memory.read(&10, 2),
            MVReadOutput::Versioned(Version::new(1, 0), 100)
        );
    }

    #[test]
    fn record_reports_new_locations_only_when_write_set_grows() {
        let memory = Memory::new(4);
        assert!(memory.record(Version::new(2, 0), vec![], vec![(1, 10), (2, 20)]));
        // Same locations on re-execution: not a new location.
        assert!(!memory.record(Version::new(2, 1), vec![], vec![(1, 11), (2, 21)]));
        // Subset: still not a new location.
        assert!(!memory.record(Version::new(2, 2), vec![], vec![(1, 12)]));
        // A location outside the previous write-set: new.
        assert!(memory.record(Version::new(2, 3), vec![], vec![(1, 13), (3, 30)]));
    }

    #[test]
    fn record_removes_entries_no_longer_written() {
        let memory = Memory::new(4);
        memory.record(Version::new(1, 0), vec![], vec![(1, 10), (2, 20)]);
        assert_eq!(memory.entry_count(), 2);
        memory.record(Version::new(1, 1), vec![], vec![(2, 21)]);
        assert_eq!(memory.entry_count(), 1);
        assert!(matches!(memory.read(&1, 3), MVReadOutput::NotFound));
        assert_eq!(
            memory.read(&2, 3),
            MVReadOutput::Versioned(Version::new(1, 1), 21)
        );
    }

    #[test]
    fn duplicate_keys_in_one_write_set_apply_last_wins_once() {
        // A duplicated key must publish exactly once per incarnation (the
        // VersionedCell seqlock contract) with the last value winning, matching
        // the old BTreeMap insert-overwrite semantics.
        let memory = Memory::new(4);
        let mut cache = LocationCache::new();
        memory.record(Version::new(1, 0), vec![], vec![(5, 50), (5, 51), (6, 60)]);
        assert_eq!(
            memory.read(&5, 3),
            MVReadOutput::Versioned(Version::new(1, 0), 51)
        );
        assert_eq!(memory.entry_count(), 2);
        memory.record_with_cache(
            &mut cache,
            Version::new(1, 1),
            vec![],
            vec![(5, 52), (5, 53)],
        );
        assert_eq!(
            memory.read(&5, 3),
            MVReadOutput::Versioned(Version::new(1, 1), 53)
        );
        // Location 6 left the write-set: removed.
        assert!(matches!(memory.read(&6, 3), MVReadOutput::NotFound));
    }

    #[test]
    fn estimates_block_lower_priority_reads() {
        let memory = Memory::new(4);
        memory.record(Version::new(1, 0), vec![], vec![(5, 50)]);
        memory.convert_writes_to_estimates(1);
        match memory.read(&5, 3) {
            MVReadOutput::Dependency(blocking) => assert_eq!(blocking, 1),
            other => panic!("expected dependency, got {other:?}"),
        }
        // The writer itself (and lower transactions) is unaffected.
        assert!(matches!(memory.read(&5, 1), MVReadOutput::NotFound));
    }

    #[test]
    fn next_incarnation_overwrites_estimates() {
        let memory = Memory::new(4);
        memory.record(Version::new(1, 0), vec![], vec![(5, 50)]);
        memory.convert_writes_to_estimates(1);
        memory.record(Version::new(1, 1), vec![], vec![(5, 51)]);
        assert_eq!(
            memory.read(&5, 2),
            MVReadOutput::Versioned(Version::new(1, 1), 51)
        );
    }

    #[test]
    fn estimate_not_overwritten_is_removed_when_next_incarnation_skips_location() {
        let memory = Memory::new(4);
        memory.record(Version::new(1, 0), vec![], vec![(5, 50), (6, 60)]);
        memory.convert_writes_to_estimates(1);
        // Next incarnation writes only location 5: the estimate at 6 must be removed.
        memory.record(Version::new(1, 1), vec![], vec![(5, 51)]);
        assert!(matches!(memory.read(&6, 3), MVReadOutput::NotFound));
    }

    #[test]
    fn validate_read_set_passes_for_matching_versions() {
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(7, 70)]);
        let read_set = vec![descriptor_mv(7, 0, 0), ReadDescriptor::from_storage(8)];
        memory.record(Version::new(2, 0), read_set, vec![(9, 90)]);
        assert!(memory.validate_read_set(2));
    }

    #[test]
    fn validate_read_set_fails_on_version_change() {
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(7, 70)]);
        memory.record(Version::new(2, 0), vec![descriptor_mv(7, 0, 0)], vec![]);
        // Transaction 0 re-executes (incarnation 1) and writes a new version.
        memory.record(Version::new(0, 1), vec![], vec![(7, 71)]);
        assert!(!memory.validate_read_set(2));
    }

    #[test]
    fn validate_read_set_fails_on_new_intervening_write() {
        let memory = Memory::new(4);
        // Transaction 2 read location 7 from storage.
        memory.record(
            Version::new(2, 0),
            vec![ReadDescriptor::from_storage(7)],
            vec![],
        );
        assert!(memory.validate_read_set(2));
        // Later, transaction 1 writes location 7: the storage read is stale.
        memory.record(Version::new(1, 0), vec![], vec![(7, 70)]);
        assert!(!memory.validate_read_set(2));
    }

    #[test]
    fn validate_read_set_fails_on_estimate() {
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(7, 70)]);
        memory.record(Version::new(2, 0), vec![descriptor_mv(7, 0, 0)], vec![]);
        memory.convert_writes_to_estimates(0);
        assert!(!memory.validate_read_set(2));
    }

    #[test]
    fn validate_read_set_fails_when_entry_disappears() {
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(7, 70)]);
        memory.record(Version::new(2, 0), vec![descriptor_mv(7, 0, 0)], vec![]);
        // Transaction 0 re-executes and no longer writes location 7.
        memory.record(Version::new(0, 1), vec![], vec![]);
        assert!(!memory.validate_read_set(2));
    }

    #[test]
    fn snapshot_returns_highest_writes() {
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(1, 10), (2, 20)]);
        memory.record(Version::new(2, 0), vec![], vec![(2, 22), (3, 33)]);
        let mut snapshot = memory.snapshot();
        snapshot.sort_unstable();
        assert_eq!(snapshot, vec![(1, 10), (2, 22), (3, 33)]);
    }

    #[test]
    fn first_estimate_in_prior_reads_detects_unresolved_dependency() {
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(7, 70)]);
        memory.record(Version::new(2, 0), vec![descriptor_mv(7, 0, 0)], vec![]);
        assert_eq!(memory.first_estimate_in_prior_reads(2), None);
        memory.convert_writes_to_estimates(0);
        assert_eq!(memory.first_estimate_in_prior_reads(2), Some((7, 0)));
    }

    #[test]
    fn estimate_is_invisible_to_writer_and_lower_transactions() {
        // Algorithm 2: a read by txn j scans entries strictly below j. An
        // ESTIMATE left by txn 3 must therefore block only higher-indexed
        // readers; the writer itself and lower transactions fall through.
        let memory = Memory::new(8);
        memory.record(Version::new(3, 0), vec![], vec![(7, 70)]);
        memory.convert_writes_to_estimates(3);

        assert!(matches!(memory.read(&7, 3), MVReadOutput::NotFound));
        assert!(matches!(memory.read(&7, 2), MVReadOutput::NotFound));
        for reader in [4, 5, 7] {
            match memory.read(&7, reader) {
                MVReadOutput::Dependency(blocking) => assert_eq!(blocking, 3),
                other => panic!("reader {reader}: expected dependency, got {other:?}"),
            }
        }
    }

    #[test]
    fn estimate_shadows_only_until_a_higher_write_exists() {
        // A reader above a later real write sees that write; a reader between
        // the estimate and the later write still hits the dependency.
        let memory = Memory::new(8);
        memory.record(Version::new(2, 0), vec![], vec![(9, 20)]);
        memory.record(Version::new(5, 0), vec![], vec![(9, 50)]);
        memory.convert_writes_to_estimates(2);

        match memory.read(&9, 4) {
            MVReadOutput::Dependency(blocking) => assert_eq!(blocking, 2),
            other => panic!("expected dependency on 2, got {other:?}"),
        }
        assert_eq!(
            memory.read(&9, 7),
            MVReadOutput::Versioned(Version::new(5, 0), 50)
        );
    }

    #[test]
    fn first_estimate_in_prior_reads_ignores_resolved_estimates() {
        // The dependency re-check (Algorithm 4's optimization) reports only
        // reads whose entry is *currently* an ESTIMATE: once the blocker
        // re-executes, the recorded read no longer blocks.
        let memory = Memory::new(8);
        memory.record(Version::new(1, 0), vec![], vec![(5, 50)]);
        memory.record(
            Version::new(3, 0),
            vec![descriptor_mv(5, 1, 0)],
            vec![(6, 60)],
        );
        memory.convert_writes_to_estimates(1);
        assert_eq!(memory.first_estimate_in_prior_reads(3), Some((5, 1)));

        memory.record(Version::new(1, 1), vec![], vec![(5, 51)]);
        assert_eq!(memory.first_estimate_in_prior_reads(3), None);
    }

    #[test]
    fn reset_clears_state_and_supports_resizing() {
        let mut memory = Memory::new(4);
        memory.record(
            Version::new(1, 0),
            vec![descriptor_mv(9, 0, 0)],
            vec![(5, 50), (6, 60)],
        );
        memory.convert_writes_to_estimates(1);
        assert!(memory.entry_count() > 0);

        memory.reset(4);
        assert_eq!(memory.entry_count(), 0);
        assert!(matches!(memory.read(&5, 3), MVReadOutput::NotFound));
        assert!(memory.last_read_set(1).is_empty());
        assert!(memory.last_written_locations(1).is_empty());
        // A fresh block records cleanly after the reset.
        memory.record(Version::new(0, 0), vec![], vec![(5, 51)]);
        assert_eq!(
            memory.read(&5, 2),
            MVReadOutput::Versioned(Version::new(0, 0), 51)
        );

        // Growing and shrinking across resets.
        memory.reset(8);
        assert_eq!(memory.block_size(), 8);
        memory.record(Version::new(7, 0), vec![], vec![(1, 10)]);
        assert!(memory.validate_read_set(7));
        memory.reset(2);
        assert_eq!(memory.block_size(), 2);
        assert_eq!(memory.entry_count(), 0);
    }

    #[test]
    fn reset_keeps_interned_locations_but_hides_their_old_values() {
        let mut memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(5, 50)]);
        assert_eq!(memory.interned_locations(), 1);
        memory.reset(4);
        // The interning survives (no re-hash next block) but the data is gone.
        assert_eq!(memory.interned_locations(), 1);
        assert!(matches!(memory.read(&5, 3), MVReadOutput::NotFound));
        assert!(memory.snapshot().is_empty());
    }

    #[test]
    fn cached_reads_and_records_agree_with_uncached_paths() {
        let memory = Memory::new(8);
        let mut cache = LocationCache::new();
        // Record through the cache, as the executor does.
        memory.record_with_cache(&mut cache, Version::new(1, 0), vec![], vec![(10, 100)]);
        let first = memory.read_with_cache(&mut cache, &10, 5);
        assert_eq!(
            first.output,
            MVReadOutput::Versioned(Version::new(1, 0), 100)
        );
        assert!(first.id.is_resolved());
        assert!(!first.committed_final, "nothing frozen yet");
        assert_eq!(first.delta_chain_len, 0, "no deltas involved");
        // The uncached read sees the same state.
        assert_eq!(memory.read(&10, 5), first.output);
        // And the id is stable across repeated cached reads.
        let again = memory.read_with_cache(&mut cache, &10, 5);
        assert_eq!(first.id, again.id);
        let stats = cache.stats();
        assert_eq!(stats.interner_misses, 1);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn interned_descriptors_validate_without_key_fallback() {
        let memory = Memory::new(8);
        let mut cache = LocationCache::new();
        memory.record_with_cache(&mut cache, Version::new(0, 0), vec![], vec![(7, 70)]);
        let read = memory.read_with_cache(&mut cache, &7, 2);
        let version = match read.output {
            MVReadOutput::Versioned(version, _) => version,
            other => panic!("unexpected {other:?}"),
        };
        let descriptor = ReadDescriptor::from_version(7, version).with_location(read.id);
        memory.record_with_cache(&mut cache, Version::new(2, 0), vec![descriptor], vec![]);
        assert!(memory.validate_read_set(2));
        // The id-based path notices the version change like the key path would.
        memory.record_with_cache(&mut cache, Version::new(0, 1), vec![], vec![(7, 71)]);
        assert!(!memory.validate_read_set(2));
    }

    #[test]
    fn frozen_prefix_reads_are_final_and_skip_revalidation_bookkeeping() {
        let memory = Memory::new(8);
        let mut cache = LocationCache::new();
        memory.record(Version::new(0, 0), vec![], vec![(5, 50)]);
        memory.record(Version::new(1, 0), vec![], vec![(6, 60)]);
        // Nothing frozen: reads are speculative.
        assert!(!memory.read_with_cache(&mut cache, &5, 2).committed_final);
        // Transactions 0 and 1 commit; the executor freezes the prefix.
        memory.freeze_committed_prefix(2);
        assert_eq!(memory.committed_prefix(), 2);
        // A reader at or below the watermark sees only committed entries: final.
        let read = memory.read_with_cache(&mut cache, &5, 2);
        assert!(read.committed_final);
        assert_eq!(read.output, MVReadOutput::Versioned(Version::new(0, 0), 50));
        // Storage fall-throughs below the watermark are final too.
        let missing = memory.read_with_cache(&mut cache, &99, 2);
        assert!(missing.committed_final);
        assert_eq!(missing.output, MVReadOutput::NotFound);
        // A reader above the watermark may still observe speculative writes.
        let above = memory.read_with_cache(&mut cache, &6, 3);
        assert!(!above.committed_final);
        assert_eq!(
            above.output,
            MVReadOutput::Versioned(Version::new(1, 0), 60)
        );
        // reset() re-arms the watermark.
        let mut memory = memory;
        drop(cache);
        memory.reset(8);
        assert_eq!(memory.committed_prefix(), 0);
    }

    #[test]
    fn snapshot_prefix_filters_writes_of_excluded_transactions() {
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(1, 10), (2, 20)]);
        memory.record(Version::new(1, 0), vec![], vec![(2, 21)]);
        memory.record(Version::new(3, 0), vec![], vec![(2, 23), (9, 90)]);
        // Cutting after txn 1 excludes txn 3's writes entirely.
        let mut prefix = memory.snapshot_prefix(2);
        prefix.sort_unstable();
        assert_eq!(prefix, vec![(1, 10), (2, 21)]);
        // The full snapshot still sees the highest writers.
        let mut full = memory.snapshot();
        full.sort_unstable();
        assert_eq!(full, vec![(1, 10), (2, 23), (9, 90)]);
        // A zero-length prefix commits nothing.
        assert!(memory.snapshot_prefix(0).is_empty());
    }

    #[test]
    fn concurrent_recorders_and_readers_do_not_lose_writes() {
        use std::sync::Arc as StdArc;
        let memory = StdArc::new(Memory::new(64));
        let writers: Vec<_> = (0..8usize)
            .map(|t| {
                let memory = StdArc::clone(&memory);
                std::thread::spawn(move || {
                    let mut cache = LocationCache::new();
                    for txn in (t..64).step_by(8) {
                        memory.record_with_cache(
                            &mut cache,
                            Version::new(txn, 0),
                            vec![],
                            vec![(txn as u64 % 16, txn as u64)],
                        );
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        // Every location must now return the highest writer below 64.
        for location in 0..16u64 {
            match memory.read(&location, 64) {
                MVReadOutput::Versioned(version, value) => {
                    assert_eq!(version.txn_idx as u64 % 16, location);
                    assert_eq!(value, version.txn_idx as u64);
                    // The highest txn writing `location` is location + 48.
                    assert_eq!(version.txn_idx as u64, location + 48);
                }
                other => panic!("location {location}: unexpected {other:?}"),
            }
        }
    }

    // ---------------------------------------------------------------------
    // Delta (aggregator) entries
    // ---------------------------------------------------------------------

    fn delta(amount: i128) -> DeltaOp {
        DeltaOp::add(amount, 1_000_000)
    }

    fn record_delta(memory: &Memory, version: Version, key: u64, amount: i128) {
        memory.record_with_deltas(version, vec![], vec![], vec![(key, delta(amount))]);
    }

    #[test]
    fn delta_chains_resolve_down_to_the_nearest_full_write() {
        let memory = Memory::new(8);
        memory.record(Version::new(0, 0), vec![], vec![(7, 100)]);
        record_delta(&memory, Version::new(1, 0), 7, 5);
        record_delta(&memory, Version::new(3, 0), 7, -2);
        // A reader above both deltas resolves base 100 + 5 - 2.
        assert_eq!(
            memory.read(&7, 5),
            MVReadOutput::Resolved {
                base_version: Some(Version::new(0, 0)),
                accumulated: 103,
            }
        );
        // A reader between the deltas sees only the first.
        assert_eq!(
            memory.read(&7, 2),
            MVReadOutput::Resolved {
                base_version: Some(Version::new(0, 0)),
                accumulated: 105,
            }
        );
        // A full write above the chain shadows it entirely.
        memory.record(Version::new(4, 0), vec![], vec![(7, 9)]);
        assert_eq!(
            memory.read(&7, 6),
            MVReadOutput::Versioned(Version::new(4, 0), 9)
        );
    }

    #[test]
    fn delta_chains_bottom_out_at_the_supplied_storage_base() {
        let memory = Memory::new(8);
        record_delta(&memory, Version::new(2, 0), 7, 10);
        // No base supplied: the chain folds onto 0.
        assert_eq!(
            memory.read(&7, 5),
            MVReadOutput::Resolved {
                base_version: None,
                accumulated: 10,
            }
        );
        // Base supplied (the executor's storage fallback).
        assert_eq!(
            memory.read_with_base(&7, 5, || Some(90)),
            MVReadOutput::Resolved {
                base_version: None,
                accumulated: 100,
            }
        );
        let mut cache = LocationCache::new();
        let read = memory.read_with_cache_base(&mut cache, &7, 5, || Some(90));
        assert_eq!(read.delta_chain_len, 1);
        assert_eq!(
            read.output,
            MVReadOutput::Resolved {
                base_version: None,
                accumulated: 100,
            }
        );
    }

    #[test]
    fn estimate_marked_delta_slots_block_resolution() {
        let memory = Memory::new(8);
        memory.record(Version::new(0, 0), vec![], vec![(7, 100)]);
        record_delta(&memory, Version::new(2, 0), 7, 1);
        memory.convert_writes_to_estimates(2);
        match memory.read(&7, 5) {
            MVReadOutput::Dependency(blocking) => assert_eq!(blocking, 2),
            other => panic!("expected dependency, got {other:?}"),
        }
        // Readers below the estimate are unaffected.
        assert_eq!(
            memory.read(&7, 1),
            MVReadOutput::Versioned(Version::new(0, 0), 100)
        );
        // The next incarnation clears the path again.
        record_delta(&memory, Version::new(2, 1), 7, 4);
        assert_eq!(
            memory.read(&7, 5),
            MVReadOutput::Resolved {
                base_version: Some(Version::new(0, 0)),
                accumulated: 104,
            }
        );
    }

    #[test]
    fn resolved_descriptors_validate_by_sum_not_by_version() {
        let memory = Memory::new(8);
        memory.record(Version::new(0, 0), vec![], vec![(7, 100)]);
        record_delta(&memory, Version::new(1, 0), 7, 5);
        // Txn 4 resolved the chain to 105 and recorded a sum descriptor.
        memory.record(
            Version::new(4, 0),
            vec![ReadDescriptor::from_resolved(7, 105)],
            vec![],
        );
        assert!(memory.validate_read_set(4));
        // Txn 1 re-executes with a *different* incarnation but the same delta:
        // versions changed, the sum did not — validation still passes.
        record_delta(&memory, Version::new(1, 1), 7, 5);
        assert!(memory.validate_read_set(4));
        // A second delta below the reader changes the sum: validation fails.
        record_delta(&memory, Version::new(2, 0), 7, 1);
        assert!(!memory.validate_read_set(4));
    }

    #[test]
    fn delta_probe_descriptors_validate_by_predicate() {
        let memory = Memory::new(8);
        memory.record(Version::new(0, 0), vec![], vec![(7, 100)]);
        // Txn 4 probed "+50 within limit 200 on top of base"; base was 100.
        let op = DeltaOp::add(50, 200);
        memory.record(
            Version::new(4, 0),
            vec![ReadDescriptor::from_delta_probe(7, 0, op, true)],
            vec![(9, 9)],
        );
        assert!(memory.validate_read_set(4));
        // The base moves to 120: still in bounds, still valid — this is the
        // commutativity win.
        memory.record(Version::new(1, 0), vec![], vec![(7, 120)]);
        assert!(memory.validate_read_set(4));
        // The base moves to 180: the predicate flips, validation fails.
        memory.record(Version::new(1, 1), vec![], vec![(7, 180)]);
        assert!(!memory.validate_read_set(4));
    }

    #[test]
    fn probe_with_cache_resolves_chains_and_reports_dependencies() {
        let memory = Memory::new(8);
        let mut cache = LocationCache::new();
        memory.record(Version::new(0, 0), vec![], vec![(7, 100)]);
        record_delta(&memory, Version::new(1, 0), 7, 50);
        let probe =
            memory.probe_delta_with_cache(&mut cache, &7, 4, 0, DeltaOp::add(49, 200), || None);
        assert_eq!(probe.outcome, Ok(true));
        assert_eq!(probe.chain_len, 1);
        assert!(probe.id.is_resolved(), "probe descriptors carry ids");
        assert!(!probe.committed_final, "nothing frozen yet");
        let probe =
            memory.probe_delta_with_cache(&mut cache, &7, 4, 0, DeltaOp::add(51, 200), || None);
        assert_eq!(probe.outcome, Ok(false));
        memory.convert_writes_to_estimates(1);
        let probe =
            memory.probe_delta_with_cache(&mut cache, &7, 4, 0, DeltaOp::add(1, 200), || None);
        assert_eq!(probe.outcome, Err(1));
    }

    #[test]
    fn materialize_deltas_folds_committed_chains_in_place() {
        let memory = Memory::new(8);
        memory.record(Version::new(0, 0), vec![], vec![(7, 100)]);
        record_delta(&memory, Version::new(1, 0), 7, 5);
        record_delta(&memory, Version::new(2, 0), 7, 7);
        // Commit order: txn 0 (full write, nothing to fold), then 1, then 2.
        assert!(memory.materialize_deltas(0, |_| None).is_empty());
        assert_eq!(memory.materialize_deltas(1, |_| None), vec![(7, 105)]);
        assert_eq!(memory.materialize_deltas(2, |_| None), vec![(7, 112)]);
        memory.freeze_committed_prefix(3);
        // Below-watermark readers now find concrete folded values.
        let mut cache = LocationCache::new();
        let read = memory.read_with_cache(&mut cache, &7, 3);
        assert!(read.committed_final);
        assert_eq!(
            read.output,
            MVReadOutput::Versioned(Version::new(2, 0), 112)
        );
        assert_eq!(read.delta_chain_len, 0, "chain folded away");
        // The snapshot needs no base once everything is folded.
        let mut snapshot = memory.snapshot();
        snapshot.sort_unstable();
        assert_eq!(snapshot, vec![(7, 112)]);
    }

    #[test]
    fn materialize_deltas_uses_the_storage_base() {
        let memory = Memory::new(4);
        record_delta(&memory, Version::new(0, 0), 9, 25);
        assert_eq!(
            memory.materialize_deltas(0, |key| (*key == 9).then_some(50)),
            vec![(9, 75)]
        );
        assert_eq!(
            memory.read(&9, 2),
            MVReadOutput::Versioned(Version::new(0, 0), 75)
        );
    }

    #[test]
    fn snapshot_resolves_unfolded_chains_with_the_base_resolver() {
        // Ladder-off mode: nothing ever materializes, the snapshot must fold.
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(1, 10)]);
        record_delta(&memory, Version::new(1, 0), 1, 5);
        record_delta(&memory, Version::new(2, 0), 9, 3);
        let mut snapshot = memory.snapshot_prefix_with_base(4, |key| (*key == 9).then_some(40));
        snapshot.sort_unstable();
        assert_eq!(snapshot, vec![(1, 15), (9, 43)]);
        // Cutting below the deltas excludes them.
        let prefix = memory.snapshot_prefix_with_base(1, |key| (*key == 9).then_some(40));
        assert_eq!(prefix, vec![(1, 10)]);
    }

    #[test]
    fn removed_delta_entries_drop_out_of_resolution() {
        let memory = Memory::new(4);
        memory.record(Version::new(0, 0), vec![], vec![(7, 100)]);
        record_delta(&memory, Version::new(1, 0), 7, 5);
        // The next incarnation of txn 1 no longer touches the aggregator.
        memory.record(Version::new(1, 1), vec![], vec![]);
        assert_eq!(
            memory.read(&7, 3),
            MVReadOutput::Versioned(Version::new(0, 0), 100)
        );
    }
}
