//! The multi-version memory of Block-STM (Algorithm 2 of the paper).
//!
//! `MVMemory` is the shared, in-memory, multi-version data structure through which
//! speculative transaction executions communicate. For every memory location it stores
//! *one entry per transaction that wrote it*, tagged with the writer's version
//! (transaction index + incarnation number) — hence "multi-version". A read by
//! transaction `tx_j` returns the value written by the *highest transaction below `j`*
//! in the preset serialization order, or falls through to pre-block storage when no
//! such write exists. Aborted incarnations leave `ESTIMATE` markers on the locations
//! they wrote so lower-priority speculations register dependencies instead of reading
//! stale values.
//!
//! # The two-level layout
//!
//! §4 of the paper describes the data map as "a concurrent hashmap over access
//! paths, with lock-protected search trees for efficient txn_idx-based look-ups".
//! This crate keeps that design and takes the hash map off the hot path:
//!
//! * **Level 1 — location interning.** Each access path is resolved through the
//!   sharded hash map **once** per block, yielding a dense [`LocationId`] and a
//!   shared handle to the location's cell. Workers memoize the resolution in a
//!   per-worker [`LocationCache`] (a plain FxHash map, no synchronization), so a
//!   steady-state access performs **zero shard-lock acquisitions and zero
//!   SipHash work**. Validation and abort handling do not even hash: read/write
//!   sets carry `LocationId`s, resolved through an `id → cell` registry behind a
//!   read-write lock that only a location's first touch writes.
//! * **Level 2 — versioned cells.** The per-location "lock-protected search tree"
//!   is one mutex over a `Vec` of entries sorted by transaction index. A write
//!   binary-searches and overwrites or inserts; `ESTIMATE` marking sets a flag;
//!   removal deletes the entry. A read takes the lock once and walks a whole
//!   delta chain inside it; the lock is a leaf, so no storage or frontier lookup
//!   ever runs under it.
//!
//! The module exposes exactly the operations of Algorithm 2:
//!
//! | Paper                              | Here                                             |
//! |------------------------------------|--------------------------------------------------|
//! | `record(version, rs, ws)`          | [`MVMemory::record`] / [`MVMemory::record_with_cache_deltas`] |
//! | `convert_writes_to_estimates(i)`   | [`MVMemory::convert_writes_to_estimates`]        |
//! | `read(location, i)`                | [`MVMemory::read`] / [`MVMemory::read_with_cache_base`] |
//! | `validate_read_set(i)`             | [`MVMemory::validate_read_set_with_base`]        |
//! | `snapshot()`                       | [`MVMemory::snapshot_prefix_with_base`]          |
//!
//! plus read-set descriptor types shared with the executor.
//!
//! # Commutative delta writes and the lazy-resolution safety argument
//!
//! Every cell entry is an [`MVEntry`]: a **full write** or a **delta**
//! ([`block_stm_vm::DeltaOp`]) — a commutative `+δ` with bounds that applies on
//! top of whatever the lower entries resolve to. A read whose highest lower
//! entry is a delta walks the chain down to the nearest full write (or the
//! pre-block storage base) and reports [`MVReadOutput::Resolved`] with the
//! accumulated sum. Nothing about the *versions* along the chain is recorded in
//! the read-set — only the sum ([`ReadOrigin::Resolved`]) or, for a delta
//! application's own bounds check, only the predicate outcome
//! ([`ReadOrigin::DeltaProbe`]).
//!
//! **Why validating sums/predicates preserves sequential equivalence.** The VM
//! is deterministic *given the values its reads observed*. A resolved read
//! hands the VM exactly `from_aggregator(accumulated)`, so any two states that
//! resolve to the same `accumulated` make the incarnation behave identically —
//! re-validating the sum is therefore precisely as strong as re-validating the
//! value, and strictly weaker than re-validating versions (which is the point:
//! a lower delta writer re-executing with the same delta, or two deltas
//! swapping order, changes versions but not the sum). Likewise a delta
//! application observes nothing of the state except "did my bounds check
//! pass?": the incarnation's behavior depends only on that boolean, so
//! re-validating the *predicate outcome* against the fresh base suffices. The
//! commit ladder's rule (see `block-stm-scheduler`) guarantees the validation
//! that commits transaction `k` runs against the final entries below `k` —
//! any later change below `k` starts a fresh wave and forces a re-validation —
//! so at commit time the sums and predicates were checked against exactly the
//! state a sequential execution would have presented. Delta applications whose
//! predicate fails on that final state abort deterministically with
//! `AbortCode::DeltaOverflow`, exactly like the sequential engine.
//!
//! At the commit watermark the drain **materializes** each committed
//! transaction's deltas ([`MVMemory::materialize_deltas`]): the chain is folded
//! into one concrete frozen value (in place, same version), so committed-prefix
//! reads, streaming sinks and the final snapshot see plain values and
//! steady-state chain length tracks the commit lag, not the block size.
//!
//! # Example: the worker hot path
//!
//! ```
//! use block_stm_mvmemory::{LocationCache, MVMemory, MVReadOutput};
//! use block_stm_vm::Version;
//!
//! let memory: MVMemory<u64, u64> = MVMemory::new(4);
//! // Each worker owns one cache per block; resolutions are memoized locally.
//! let mut cache = LocationCache::new();
//! memory.record_with_cache(&mut cache, Version::new(0, 0), vec![], vec![(7, 70)]);
//! let read = memory.read_with_cache(&mut cache, &7, 2);
//! assert!(read.id.is_resolved());
//! assert_eq!(read.output, MVReadOutput::Versioned(Version::new(0, 0), 70));
//! // Nothing is committed yet, so the read is speculative ...
//! assert!(!read.committed_final);
//! // ... until the executor freezes the committed prefix past the reader: then the
//! // same read is final and needs no validation descriptor.
//! memory.freeze_committed_prefix(2);
//! assert!(memory.read_with_cache(&mut cache, &7, 2).committed_final);
//! // Steady state: the repeated accesses were served by the worker cache.
//! assert_eq!(cache.stats().interner_misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entry;
mod frontier;
mod interner;
mod mvmemory;
mod read_set;
mod versioned_cell;

pub use entry::MVEntry;
pub use frontier::{FrontierOverlay, FRONTIER_ABSENT};
pub use interner::{LocationCache, LocationCacheStats, LocationId};
pub use mvmemory::{CachedRead, MVMemory, MVReadOutput, ProbeOutcome, WrittenLocation};
pub use read_set::{ReadDescriptor, ReadOrigin};
