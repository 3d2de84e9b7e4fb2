//! Disk-backed storage tier for the Block-STM reproduction.
//!
//! Everything below the engines so far lived in memory; this crate adds the
//! persistence story without touching a single engine trait:
//!
//! * [`LogStore`] — a single-file, append-only record log (length-prefixed,
//!   checksummed frames, batched fsync) with an in-memory `key → offset`
//!   index rebuilt on open by a replay scan. It implements the same
//!   [`Storage`](block_stm_storage::Storage) trait as `InMemoryStorage`, so
//!   the sequential baseline, Block-STM (ladder on or off) and Bohm all
//!   execute directly against disk state unchanged.
//! * [`WriteBehindSink`] — a [`CommitSink`](block_stm::CommitSink) that moves
//!   durability off the critical path: commit events are batched in memory
//!   and a background persister thread appends + fsyncs them, publishing a
//!   **durable watermark**. A batch is cut when a block's last commit drains
//!   (and every `batch_events` events inside large blocks), so the watermark
//!   trails a commit by about one block's execution, not by the wait for the
//!   next block. [`SyncPersistSink`] is the fsync-per-commit baseline it is
//!   measured against.
//! * [`BlockCache`] — a block-scoped read-through cache over the log with
//!   coalesced prefetch from declared/predicted access sets.
//!
//! There are no external storage dependencies: the file format, checksums and
//! codec ([`PersistCodec`]) are self-contained, so the workspace still builds
//! fully offline.
//!
//! # The durable-watermark safety argument
//!
//! The rolling commit ladder guarantees commit events are delivered to sinks
//! **in preset order, exactly once**, and only for transactions the block
//! limiter admitted. The persistence tier extends that chain to disk:
//!
//! 1. The write-behind persister receives batches in delivery order over a
//!    FIFO channel, so the log's frame order is commit order, and the values
//!    it persists are final (full writes plus commit-time *resolved* delta
//!    values — raw deltas never reach disk).
//! 2. [`LogStore::append_batch`] orders each append as *disk first, index
//!    second, watermark last*: the frame is written and fsynced before its
//!    index entries are published, and the watermark is advanced (with
//!    `Release` ordering) only after that. A watermark of `w` therefore
//!    **never claims more than the disk holds**: the effects of the first `w`
//!    commit events are fsynced, in order, with nothing missing in between.
//! 3. A crash can only tear the *tail* of the file (appends are sequential;
//!    frames after the last fsync may be partial). Recovery replays frames
//!    front-to-back, stops at the first length or checksum violation, and
//!    truncates there — landing exactly on a batch boundary, i.e. on some
//!    previously-published watermark. Recovered state is the committed prefix
//!    `0..w` applied to genesis: equal to a sequential execution of the first
//!    `w` transactions of the (possibly limiter-truncated) block.
//!
//! Consumers that must not outrun durability (state sync, receipts) read
//! [`LogStore::durable_watermark`] or call [`WriteBehindSink::flush`], the
//! explicit barrier that pushes pending batches through and waits for the
//! fsync.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod codec;
mod errors;
mod log;
mod sink;
pub mod testing;

pub use cache::{BlockCache, CacheStats};
pub use codec::{CodecError, PersistCodec};
pub use errors::PersistError;
pub use log::{crc32, LogStore, LogStoreStats, RecoveryReport};
pub use sink::{SyncPersistSink, WriteBehindSink};
