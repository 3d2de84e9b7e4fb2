//! The cross-block frontier overlay for chained execution.
//!
//! When `BlockStm::execute_chain` runs blocks back-to-back, block `N+1` begins
//! speculating while block `N` is still committing. Block `N+1`'s reads that
//! fall through its own multi-version map must observe the **latest committed
//! value across all predecessor blocks**, falling through to the immutable
//! pre-chain storage base below that. [`FrontierOverlay`] is that layer: a
//! concurrent `key → (stamp, value)` map that the predecessor's commit drain
//! publishes into, in commit order, while successor workers read from it.
//!
//! ## Why stamps
//!
//! A read served by the overlay is *not* final while the predecessor block is
//! still running — a later predecessor commit may overwrite the key. Plain
//! `ReadOrigin::Storage` descriptors validate as "the location is still absent
//! from the multi-version map", which would let a stale overlay read pass
//! validation. Every publication therefore assigns the key a fresh **stamp**
//! from a monotone counter; the read descriptor records the stamp it observed
//! ([`ReadOrigin::Frontier`](crate::ReadOrigin::Frontier)) and validation
//! re-checks stamp equality. Stamps are unique per publication and keys are
//! never removed, so stamp equality implies the read's value is still exactly
//! what a fresh read would observe (`stamp == 0` ⇔ the key is absent and the
//! read bottomed out in the immutable storage base).

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

/// Stamp value meaning "the key is absent from the overlay".
pub const FRONTIER_ABSENT: u64 = 0;

/// Latest committed value per key across all predecessor blocks of a chain,
/// with a per-key publication stamp (see the module docs for the validation
/// protocol). Shared by reference between the predecessor's commit drain
/// (writer) and the successor's workers (readers).
#[derive(Debug)]
pub struct FrontierOverlay<K, V> {
    entries: RwLock<HashMap<K, (u64, V)>>,
    /// Monotone publication counter; stamps start at 1 so 0 can mean "absent".
    next_stamp: AtomicU64,
    /// Number of `publish` batches applied (diagnostics / tests).
    publications: AtomicU64,
}

impl<K, V> Default for FrontierOverlay<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> FrontierOverlay<K, V> {
    /// An empty overlay (chain start: every read falls through to storage).
    pub fn new() -> Self {
        Self {
            entries: RwLock::new(HashMap::new()),
            next_stamp: AtomicU64::new(1),
            publications: AtomicU64::new(0),
        }
    }
}

impl<K, V> FrontierOverlay<K, V>
where
    K: Eq + Hash + Clone + Debug,
    V: Clone + Debug,
{
    /// The value committed for `key` by the predecessor blocks, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        self.entries.read().get(key).map(|(_, value)| value.clone())
    }

    /// The value together with its publication stamp: `(FRONTIER_ABSENT, None)`
    /// when no predecessor block committed a write to `key`. The pair is read
    /// under one lock acquisition, so the stamp always describes exactly the
    /// returned value.
    pub fn get_stamped(&self, key: &K) -> (u64, Option<V>) {
        match self.entries.read().get(key) {
            Some((stamp, value)) => (*stamp, Some(value.clone())),
            None => (FRONTIER_ABSENT, None),
        }
    }

    /// The current publication stamp of `key` (`FRONTIER_ABSENT` when the key
    /// is not in the overlay). This is what validation compares against the
    /// stamp recorded by the read.
    pub fn stamp_of(&self, key: &K) -> u64 {
        self.entries
            .read()
            .get(key)
            .map_or(FRONTIER_ABSENT, |(stamp, _)| *stamp)
    }

    /// Publishes one batch of committed writes (upserts; the chain state model
    /// has no deletions). Every touched key receives a fresh stamp, so any
    /// in-flight speculative read of an overwritten key fails its stamp check
    /// and re-executes. Called by the predecessor's commit drain in commit
    /// order — later publications of the same key overwrite earlier ones,
    /// which is exactly "latest committed value wins".
    pub fn publish<I>(&self, writes: I)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let mut writes = writes.into_iter().peekable();
        if writes.peek().is_none() {
            return;
        }
        let mut entries = self.entries.write();
        for (key, value) in writes {
            let stamp = self.next_stamp.fetch_add(1, Ordering::Relaxed);
            entries.insert(key, (stamp, value));
        }
        self.publications.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of distinct keys the chain has committed so far.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether no predecessor block has committed any write yet.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Number of non-empty `publish` batches applied so far.
    pub fn publications(&self) -> u64 {
        self.publications.load(Ordering::Relaxed)
    }

    /// Drains the overlay into a sorted `(key, value)` list — the chain's final
    /// committed state delta over the storage base.
    pub fn into_sorted_updates(self) -> Vec<(K, V)>
    where
        K: Ord,
    {
        let mut updates: Vec<(K, V)> = self
            .entries
            .into_inner()
            .into_iter()
            .map(|(key, (_, value))| (key, value))
            .collect();
        updates.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_keys_read_as_stamp_zero() {
        let overlay: FrontierOverlay<u64, u64> = FrontierOverlay::new();
        assert!(overlay.is_empty());
        assert_eq!(overlay.get_stamped(&7), (FRONTIER_ABSENT, None));
        assert_eq!(overlay.stamp_of(&7), FRONTIER_ABSENT);
        assert_eq!(overlay.get(&7), None);
    }

    #[test]
    fn publish_assigns_fresh_stamps_and_latest_value_wins() {
        let overlay = FrontierOverlay::new();
        overlay.publish(vec![(1u64, 10u64), (2, 20)]);
        let (stamp_a, value) = overlay.get_stamped(&1);
        assert_eq!(value, Some(10));
        assert_ne!(stamp_a, FRONTIER_ABSENT);

        // A later publication of the same key overwrites it with a new stamp:
        // any read that captured `stamp_a` must fail validation.
        overlay.publish(vec![(1u64, 11u64)]);
        let (stamp_b, value) = overlay.get_stamped(&1);
        assert_eq!(value, Some(11));
        assert!(stamp_b > stamp_a);
        assert_eq!(overlay.stamp_of(&1), stamp_b);

        // Untouched keys keep their stamp (reads of key 2 stay valid).
        let (stamp_2, value_2) = overlay.get_stamped(&2);
        assert_eq!(value_2, Some(20));
        assert_ne!(stamp_2, stamp_a);
        assert_ne!(stamp_2, stamp_b);

        assert_eq!(overlay.len(), 2);
        assert_eq!(overlay.publications(), 2);
    }

    #[test]
    fn empty_publish_is_a_no_op() {
        let overlay: FrontierOverlay<u64, u64> = FrontierOverlay::new();
        overlay.publish(Vec::new());
        assert_eq!(overlay.publications(), 0);
        assert!(overlay.is_empty());
    }

    #[test]
    fn into_sorted_updates_returns_final_state() {
        let overlay = FrontierOverlay::new();
        overlay.publish(vec![(3u64, 30u64), (1, 10)]);
        overlay.publish(vec![(2u64, 20u64), (1, 11)]);
        assert_eq!(
            overlay.into_sorted_updates(),
            vec![(1, 11), (2, 20), (3, 30)]
        );
    }
}
