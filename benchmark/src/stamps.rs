//! Raw per-transaction time stamps, held in arrays allocated before the timed
//! section, and the mapping from commit deliveries back to submit ids.
//!
//! The system under test admits transactions first-in first-out with dense
//! ids and commits in preset order, so the k-th `on_commit` a sink sees is
//! submit id k, and the k-th block announced to it covers the next
//! `block_size` ids. [`CommitMap`] is that arithmetic; [`Stamps`] stores a
//! nanosecond stamp per id and per stage. Latencies are computed from these
//! stamps after the run, never from a histogram.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A stamp slot that was never written.
pub const UNSET: u64 = u64::MAX;

/// Maps a sink's `begin_block` / `on_commit` deliveries to submit ids.
///
/// The two counters are independent because a pipelined engine announces
/// block N+1 (`begin_block`) before block N's last commit is delivered.
#[derive(Debug, Default)]
pub struct CommitMap {
    announced: AtomicU64,
    committed: AtomicU64,
}

impl CommitMap {
    /// A map with nothing announced or committed.
    pub fn new() -> Self {
        Self::default()
    }

    /// A block of `block_size` transactions was handed to the engine: returns
    /// the submit ids it holds.
    pub fn begin_block(&self, block_size: usize) -> Range<u64> {
        let start = self
            .announced
            .fetch_add(block_size as u64, Ordering::Relaxed);
        start..start + block_size as u64
    }

    /// One commit was delivered: returns the submit id it belongs to.
    pub fn on_commit(&self) -> u64 {
        self.committed.fetch_add(1, Ordering::Relaxed)
    }

    /// Commits delivered so far.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }
}

/// The stages a transaction is stamped at. `Due`, `Committed` and `Durable`
/// are always recorded; the others only in a traced repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// When the schedule (open loop) or the client (closed loop) wanted it sent.
    Due = 0,
    /// Just before the first `submit` attempt.
    SubmitStart = 1,
    /// Just after `submit` admitted it.
    SubmitEnd = 2,
    /// Its block's `begin_block` at the benchmark sink.
    Dispatched = 3,
    /// Its `on_commit` at the benchmark sink.
    Committed = 4,
    /// The durable watermark was first seen past its commit index.
    Durable = 5,
}

const STAGES: usize = 6;

/// Per-transaction, per-stage nanosecond stamps relative to one origin.
///
/// Slots are atomics only so that the sink (an engine thread), the generator
/// and the harness can share the arrays without a lock; each slot has one
/// writer. Readers run after the writing threads were joined.
pub struct Stamps {
    origin: Instant,
    slots: [Vec<AtomicU64>; STAGES],
    map: CommitMap,
}

impl Stamps {
    /// Arrays for `capacity` transactions, every slot [`UNSET`].
    pub fn new(capacity: usize) -> Self {
        Stamps {
            origin: Instant::now(),
            slots: std::array::from_fn(|_| (0..capacity).map(|_| AtomicU64::new(UNSET)).collect()),
            map: CommitMap::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Stamps `stage` of transaction `id` (ids past the capacity are dropped;
    /// the harness sizes the arrays for everything it submits).
    pub fn set(&self, stage: Stage, id: u64, ns: u64) {
        if let Some(slot) = self.slots[stage as usize].get(id as usize) {
            slot.store(ns, Ordering::Release);
        }
    }

    /// The stamp of `stage` for `id`, or [`UNSET`].
    pub fn get(&self, stage: Stage, id: u64) -> u64 {
        self.slots[stage as usize]
            .get(id as usize)
            .map_or(UNSET, |slot| slot.load(Ordering::Acquire))
    }

    /// Sink side: a block was announced. Stamps `Dispatched` for its ids when
    /// `traced`.
    pub fn begin_block(&self, block_size: usize, traced: bool) {
        let ids = self.map.begin_block(block_size);
        if traced {
            let now = self.now_ns();
            for id in ids {
                self.set(Stage::Dispatched, id, now);
            }
        }
    }

    /// Sink side: a commit was delivered. Stamps `Committed` for its id.
    pub fn on_commit(&self) {
        let now = self.now_ns();
        let id = self.map.on_commit();
        self.set(Stage::Committed, id, now);
    }

    /// Commits delivered so far.
    pub fn committed(&self) -> u64 {
        self.map.committed()
    }

    /// `to - from` in nanoseconds for every id in `ids` where both stamps are
    /// set and ordered; an unset or inverted pair is skipped.
    pub fn intervals(&self, from: Stage, to: Stage, ids: Range<u64>) -> Vec<u64> {
        ids.filter_map(|id| {
            let (start, end) = (self.get(from, id), self.get(to, id));
            (start != UNSET && end != UNSET).then(|| end.saturating_sub(start))
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_index_maps_to_submit_id_with_interleaved_begin_block() {
        let map = CommitMap::new();
        // Block 0 (ids 0..3) starts and commits two of its three transactions.
        assert_eq!(map.begin_block(3), 0..3);
        assert_eq!(map.on_commit(), 0);
        assert_eq!(map.on_commit(), 1);
        // Chained mode: block 1 (ids 3..5) is announced before block 0's last
        // commit arrives. The commit counter must not be disturbed.
        assert_eq!(map.begin_block(2), 3..5);
        assert_eq!(map.on_commit(), 2, "block 0's last commit is still id 2");
        assert_eq!(map.on_commit(), 3);
        // An empty block consumes no ids.
        assert_eq!(map.begin_block(0), 5..5);
        assert_eq!(map.begin_block(1), 5..6);
        assert_eq!(map.on_commit(), 4);
        assert_eq!(map.on_commit(), 5);
        assert_eq!(map.committed(), 6);
    }

    #[test]
    fn stamps_record_per_stage_and_skip_unset_pairs() {
        let stamps = Stamps::new(4);
        for id in 0..4 {
            stamps.set(Stage::Due, id, 100 * id);
        }
        stamps.begin_block(2, true);
        stamps.on_commit();
        stamps.on_commit();
        stamps.begin_block(2, false);
        stamps.on_commit();
        assert_ne!(stamps.get(Stage::Dispatched, 1), UNSET);
        assert_eq!(
            stamps.get(Stage::Dispatched, 2),
            UNSET,
            "untraced blocks leave the dispatch stamp unset"
        );
        assert_eq!(stamps.get(Stage::Committed, 3), UNSET);
        // Only ids 0..3 have both ends; id 3 never committed.
        assert_eq!(
            stamps.intervals(Stage::Due, Stage::Committed, 0..4).len(),
            3
        );
        // Out-of-range ids are ignored, never a panic.
        stamps.set(Stage::Due, 99, 1);
        assert_eq!(stamps.get(Stage::Due, 99), UNSET);
    }

    #[test]
    fn inverted_stamp_pairs_saturate_to_zero() {
        let stamps = Stamps::new(1);
        stamps.set(Stage::SubmitEnd, 0, 50);
        stamps.set(Stage::Dispatched, 0, 40);
        assert_eq!(
            stamps.intervals(Stage::SubmitEnd, Stage::Dispatched, 0..1),
            vec![0]
        );
    }
}
