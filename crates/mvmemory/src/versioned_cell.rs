//! The multi-version cell of one memory location: one mutex over the location's
//! entries, kept sorted by transaction index.
//!
//! This is the paper's "lock-protected search tree" (§4) with a sorted `Vec` in
//! place of the tree. A location has few writers per block, so a binary search
//! plus an occasional shifted insert costs less than tree nodes, and the `Vec`
//! keeps its capacity from block to block. Every operation takes the lock once:
//! a reader walks a whole delta chain inside one acquisition
//! ([`LocationCell::with_entries_below`]).
//!
//! The lock is a leaf: while it is held, no other lock is taken and no storage,
//! frontier or sink callback runs. The caller walks the entries, drops the guard,
//! and only then folds a chain onto a storage base.

use crate::entry::MVEntry;
use parking_lot::Mutex;

/// What one transaction's last finished incarnation left at this location.
#[derive(Debug)]
pub(crate) struct Entry<V> {
    /// Index of the writing transaction (the sort key).
    pub txn_idx: usize,
    /// Incarnation that produced the payload.
    pub incarnation: usize,
    /// Set when the incarnation was aborted: readers above it have a dependency.
    pub estimate: bool,
    /// A full value or a commutative delta.
    pub payload: MVEntry<V>,
}

/// The versioned entries of one location. Per transaction there is at most one
/// mutator at a time (the scheduler serializes a transaction's incarnations);
/// readers are unrestricted.
#[derive(Debug)]
pub(crate) struct LocationCell<V> {
    entries: Mutex<Vec<Entry<V>>>,
}

impl<V> LocationCell<V> {
    pub fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Publishes `payload` as the write of `(txn_idx, incarnation)`: overwrites
    /// the transaction's entry (clearing an ESTIMATE) or inserts one.
    pub fn write(&self, txn_idx: usize, incarnation: usize, payload: MVEntry<V>) {
        let entry = Entry {
            txn_idx,
            incarnation,
            estimate: false,
            payload,
        };
        let mut entries = self.entries.lock();
        match entries.binary_search_by_key(&txn_idx, |entry| entry.txn_idx) {
            Ok(pos) => entries[pos] = entry,
            Err(pos) => entries.insert(pos, entry),
        }
    }

    /// Replaces the payload of `txn_idx`'s entry and keeps its version: the
    /// commit drain folding a committed delta into the equal concrete value.
    /// Returns `false` if the transaction holds no entry.
    pub fn refine(&self, txn_idx: usize, payload: MVEntry<V>) -> bool {
        self.with_entry(txn_idx, |entry| entry.payload = payload)
    }

    /// Marks `txn_idx`'s entry as an ESTIMATE. Returns `false` if the
    /// transaction holds no entry (callers treat that as an accounting bug).
    pub fn mark_estimate(&self, txn_idx: usize) -> bool {
        self.with_entry(txn_idx, |entry| entry.estimate = true)
    }

    /// Deletes `txn_idx`'s entry: its latest incarnation no longer writes this
    /// location. Returns `false` if no entry exists.
    pub fn remove(&self, txn_idx: usize) -> bool {
        let mut entries = self.entries.lock();
        match entries.binary_search_by_key(&txn_idx, |entry| entry.txn_idx) {
            Ok(pos) => {
                entries.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    fn with_entry(&self, txn_idx: usize, f: impl FnOnce(&mut Entry<V>)) -> bool {
        let mut entries = self.entries.lock();
        match entries.binary_search_by_key(&txn_idx, |entry| entry.txn_idx) {
            Ok(pos) => {
                f(&mut entries[pos]);
                true
            }
            Err(_) => false,
        }
    }

    /// Runs `f` under the lock on the entries strictly below `bound`, in
    /// ascending `txn_idx` order (Algorithm 2's `read` scans them from the top).
    pub fn with_entries_below<R>(&self, bound: usize, f: impl FnOnce(&[Entry<V>]) -> R) -> R {
        let entries = self.entries.lock();
        let end = entries.partition_point(|entry| entry.txn_idx < bound);
        f(&entries[..end])
    }

    /// Number of entries (tests and metrics).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Clears the cell for the next block and keeps its capacity.
    pub fn reset(&mut self) {
        self.entries.get_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    /// The highest entry strictly below a bound, with the value cloned out.
    #[derive(Debug, PartialEq, Eq)]
    enum CellRead {
        Value {
            txn_idx: usize,
            incarnation: usize,
            value: u64,
        },
        Estimate {
            txn_idx: usize,
        },
        Missing,
    }

    fn read(cell: &LocationCell<u64>, bound: usize) -> CellRead {
        cell.with_entries_below(bound, |entries| match entries.last() {
            None => CellRead::Missing,
            Some(entry) if entry.estimate => CellRead::Estimate {
                txn_idx: entry.txn_idx,
            },
            Some(entry) => CellRead::Value {
                txn_idx: entry.txn_idx,
                incarnation: entry.incarnation,
                value: *entry.payload.as_value().expect("tests write full values"),
            },
        })
    }

    fn write(cell: &LocationCell<u64>, txn_idx: usize, incarnation: usize, value: u64) {
        cell.write(txn_idx, incarnation, MVEntry::Value(value));
    }

    #[test]
    fn empty_cell_reads_missing() {
        let cell: LocationCell<u64> = LocationCell::new();
        assert_eq!(read(&cell, 5), CellRead::Missing);
        assert_eq!(cell.len(), 0);
    }

    #[test]
    fn read_returns_highest_lower_entry() {
        let cell = LocationCell::new();
        write(&cell, 1, 0, 100);
        write(&cell, 3, 0, 300);
        write(&cell, 6, 0, 600);
        match read(&cell, 5) {
            CellRead::Value {
                txn_idx,
                incarnation,
                value,
            } => {
                assert_eq!((txn_idx, incarnation, value), (3, 0, 300));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(read(&cell, 1), CellRead::Missing);
        assert!(matches!(
            read(&cell, usize::MAX),
            CellRead::Value { txn_idx: 6, .. }
        ));
    }

    #[test]
    fn rewrite_is_in_place_and_bumps_incarnation() {
        let cell = LocationCell::new();
        write(&cell, 2, 0, 10);
        write(&cell, 2, 1, 11);
        match read(&cell, 4) {
            CellRead::Value {
                incarnation, value, ..
            } => {
                assert_eq!(incarnation, 1);
                assert_eq!(value, 11);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(cell.len(), 1);
    }

    #[test]
    fn estimate_and_tombstone_transitions() {
        let cell = LocationCell::new();
        write(&cell, 2, 0, 20);
        assert!(cell.mark_estimate(2));
        assert_eq!(read(&cell, 5), CellRead::Estimate { txn_idx: 2 });
        // The writer itself looks below its own index: no entry.
        assert_eq!(read(&cell, 2), CellRead::Missing);
        // Next incarnation stops writing the location.
        assert!(cell.remove(2));
        assert_eq!(read(&cell, 5), CellRead::Missing);
        assert_eq!(cell.len(), 0);
        // A later incarnation writes it again.
        write(&cell, 2, 2, 22);
        assert!(matches!(
            read(&cell, 5),
            CellRead::Value { incarnation: 2, .. }
        ));
    }

    #[test]
    fn reads_on_settled_prefixes_skip_removed_entries() {
        let cell = LocationCell::new();
        write(&cell, 0, 0, 5);
        write(&cell, 2, 1, 25);
        write(&cell, 4, 0, 45);
        cell.remove(2); // txn 2's final incarnation stopped writing
        let txn0 = CellRead::Value {
            txn_idx: 0,
            incarnation: 0,
            value: 5,
        };
        let txn4 = CellRead::Value {
            txn_idx: 4,
            incarnation: 0,
            value: 45,
        };
        for (bound, expected) in [(1usize, &txn0), (3, &txn0), (5, &txn4), (8, &txn4)] {
            assert_eq!(&read(&cell, bound), expected, "bound {bound}");
        }
        assert_eq!(read(&cell, 0), CellRead::Missing);
        match read(&cell, 3) {
            CellRead::Value { txn_idx, value, .. } => assert_eq!((txn_idx, value), (0, 5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tombstones_are_skipped_during_reads() {
        let cell = LocationCell::new();
        write(&cell, 1, 0, 1);
        write(&cell, 4, 0, 4);
        cell.remove(4);
        match read(&cell, 6) {
            CellRead::Value { txn_idx, value, .. } => {
                assert_eq!((txn_idx, value), (1, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_slots_reject_estimate_and_remove() {
        let cell: LocationCell<u64> = LocationCell::new();
        assert!(!cell.mark_estimate(3));
        assert!(!cell.remove(3));
        assert!(!cell.refine(3, MVEntry::Value(0)));
    }

    #[test]
    fn reset_clears_slots() {
        let mut cell = LocationCell::new();
        for txn in 0..8 {
            write(&cell, txn, 0, txn as u64);
        }
        assert_eq!(cell.len(), 8);
        cell.reset();
        assert_eq!(cell.len(), 0);
        assert_eq!(read(&cell, 8), CellRead::Missing);
        write(&cell, 1, 0, 9);
        assert_eq!(cell.len(), 1);
        match read(&cell, 5) {
            CellRead::Value {
                txn_idx,
                incarnation,
                value,
            } => assert_eq!((txn_idx, incarnation, value), (1, 0, 9)),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// 8 threads (4 single-writer mutators, 4 readers) race writes, estimates,
    /// removals and reads. Readers assert that an observed `(incarnation, value)`
    /// pair is always consistent.
    #[test]
    fn eight_thread_publish_read_races_stay_consistent() {
        const TXNS_PER_WRITER: usize = 4;
        const ROUNDS: usize = 300;
        let cell: Arc<LocationCell<u64>> = Arc::new(LocationCell::new());
        let stop = Arc::new(AtomicBool::new(false));
        // Writers start only once every reader runs: on a loaded host the
        // writers, spawned first, could otherwise finish before any read.
        let start = Arc::new(Barrier::new(8));

        // value = txn * 1_000_000 + incarnation: readers can re-derive the expected
        // value from the version they observed.
        let writers: Vec<_> = (0..4usize)
            .map(|w| {
                let cell = Arc::clone(&cell);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    // Writer w exclusively owns transactions w, 4+w, 8+w, 12+w —
                    // the single-mutator-per-transaction contract.
                    for round in 0..ROUNDS {
                        for t in 0..TXNS_PER_WRITER {
                            let txn = t * 4 + w;
                            let incarnation = round * 3;
                            write(
                                &cell,
                                txn,
                                incarnation,
                                (txn * 1_000_000 + incarnation) as u64,
                            );
                            cell.mark_estimate(txn);
                            let next = incarnation + 1;
                            if round % 5 == w % 5 {
                                cell.remove(txn);
                            } else {
                                write(&cell, txn, next, (txn * 1_000_000 + next) as u64);
                            }
                        }
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4usize)
            .map(|r| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut observed = 0u64;
                    let mut bound = r + 1;
                    while !stop.load(Ordering::Relaxed) {
                        match read(&cell, bound) {
                            CellRead::Value {
                                txn_idx,
                                incarnation,
                                value,
                            } => {
                                assert!(txn_idx < bound);
                                assert_eq!(
                                    value,
                                    (txn_idx * 1_000_000 + incarnation) as u64,
                                    "torn (version, value) pair"
                                );
                                observed += 1;
                            }
                            CellRead::Estimate { txn_idx } => assert!(txn_idx < bound),
                            CellRead::Missing => {}
                        }
                        bound = bound % 16 + 1;
                    }
                    observed
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mut total_observed = 0;
        for reader in readers {
            total_observed += reader.join().unwrap();
        }
        assert!(total_observed > 0, "readers never observed a value");
        // Final state is deterministic per txn: last round had incarnation 3*(ROUNDS-1)+1
        // either written or removed.
        let final_inc = (ROUNDS - 1) * 3 + 1;
        for txn in 0..16 {
            let w = txn % 4;
            let removed = (ROUNDS - 1) % 5 == w % 5;
            match read(&cell, txn + 1) {
                CellRead::Value {
                    txn_idx,
                    incarnation,
                    value,
                } => {
                    if removed {
                        // Removed: the read falls through to a lower entry.
                        assert!(txn_idx < txn, "txn {txn} should be removed");
                        assert_eq!(value, (txn_idx * 1_000_000 + incarnation) as u64);
                    } else {
                        assert_eq!(txn_idx, txn);
                        assert_eq!(incarnation, final_inc);
                        assert_eq!(value, (txn * 1_000_000 + final_inc) as u64);
                    }
                }
                CellRead::Missing => {
                    assert!(removed, "txn {txn} should hold its final write");
                }
                other => panic!("txn {txn}: unexpected final state {other:?}"),
            }
        }
    }
}
