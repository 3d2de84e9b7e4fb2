//! Commit sinks that persist the committed prefix to a [`LogStore`].
//!
//! [`WriteBehindSink`] is the production path: `on_commit` only clones the
//! committed records into an in-memory batch, and a background persister
//! thread appends batches to the log and publishes the durable watermark. The
//! commit drain never waits for `fsync`, so execution throughput is decoupled
//! from disk latency; durability is explicit — [`WriteBehindSink::flush`] is
//! the barrier that waits until everything delivered so far is on disk.
//!
//! [`SyncPersistSink`] appends and fsyncs inline from `on_commit`. It exists
//! as the honest baseline `storagebench` compares the write-behind path
//! against (and as the simplest possible durable sink).
//!
//! Both sinks persist **resolved delta values, never raw deltas**: the commit
//! drain materializes each commutative delta against the committed prefix and
//! hands the concrete value in [`CommitEvent::resolved_deltas`], so the log
//! always holds final state and recovery needs no delta replay logic.

use crate::codec::PersistCodec;
use crate::errors::PersistError;
use crate::log::LogStore;
use block_stm::{CommitEvent, CommitSink};
use parking_lot::Mutex;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Default commit events per write-behind batch.
const DEFAULT_BATCH_EVENTS: u64 = 64;

/// Records accumulated for the persister, counted in commit events.
struct PendingBatch<K, V> {
    entries: Vec<(K, V)>,
    events: u64,
}

impl<K, V> PendingBatch<K, V> {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            events: 0,
        }
    }

    fn take(&mut self) -> Option<(Vec<(K, V)>, u64)> {
        if self.events == 0 && self.entries.is_empty() {
            return None;
        }
        let events = std::mem::take(&mut self.events);
        Some((std::mem::take(&mut self.entries), events))
    }
}

enum Cmd<K, V> {
    /// Append these records and advance the watermark by `events`.
    Batch { entries: Vec<(K, V)>, events: u64 },
    /// Durability barrier: ack once every batch sent before it is on disk.
    Flush(mpsc::Sender<()>),
}

/// A [`CommitSink`] that persists committed state off the critical path.
///
/// Batches of committed `(key, value)` records — full writes plus resolved
/// deltas — are handed to a background persister thread, which appends one
/// checksummed frame per batch and fsyncs it before publishing the advanced
/// durable watermark. A batch is cut every [`batch_events`] commit events and
/// when a block's last commit drains ([`CommitSink::end_block`]), so the
/// durable watermark trails a commit by about one block's execution plus one
/// append — never by the wait for the next block. A block-limiter cut
/// persists **exactly the truncated prefix**: sinks are only ever shown
/// commits the limiter admitted.
///
/// [`batch_events`]: WriteBehindSink::with_batch_events
pub struct WriteBehindSink<K, V> {
    store: Arc<LogStore<K, V>>,
    /// Atomic only because the builder-style setters keep `self` by value and
    /// the type has a `Drop` impl (which forbids struct-update moves).
    batch_events: AtomicU64,
    pending: Mutex<PendingBatch<K, V>>,
    sender: Mutex<Option<mpsc::Sender<Cmd<K, V>>>>,
    persister: Mutex<Option<JoinHandle<()>>>,
    /// First persister I/O failure, surfaced by the next `flush`.
    error: Arc<Mutex<Option<PersistError>>>,
    /// Set once an error was surfaced (or the persister is gone).
    failed: AtomicBool,
}

impl<K, V> WriteBehindSink<K, V>
where
    K: PersistCodec + Eq + Hash + Clone + Send + Sync + 'static,
    V: PersistCodec + Send + 'static,
{
    /// Spawns the background persister over `store` with the default batch
    /// size.
    pub fn new(store: Arc<LogStore<K, V>>) -> Self {
        Self::spawn(store, DEFAULT_BATCH_EVENTS, None)
    }

    /// Sets how many commit events accumulate before a batch is cut (the end
    /// of a block always cuts one regardless). This bounds batches inside large
    /// blocks: smaller batches shrink their durability lag, larger batches
    /// amortize more fsyncs.
    pub fn with_batch_events(self, batch_events: u64) -> Self {
        self.batch_events
            .store(batch_events.max(1), Ordering::Relaxed);
        self
    }

    /// Fault injection for crash/recovery tests: the persister appends the
    /// first `batches` batches normally and then *silently stops persisting* —
    /// exactly what a process death at a batch boundary looks like to the
    /// on-disk log. Flush barriers still ack (so tests never hang), but the
    /// durable watermark stops advancing.
    pub fn with_crash_after_batches(self, batches: u64) -> Self {
        // Restart the persister with the crash knob armed.
        let store = self.store.clone();
        let batch_events = self.batch_events.load(Ordering::Relaxed);
        drop(self);
        Self::spawn(store, batch_events, Some(batches))
    }

    fn spawn(store: Arc<LogStore<K, V>>, batch_events: u64, crash_after: Option<u64>) -> Self {
        let (sender, receiver) = mpsc::channel::<Cmd<K, V>>();
        let error: Arc<Mutex<Option<PersistError>>> = Arc::new(Mutex::new(None));
        let persister = {
            let store = store.clone();
            let error = error.clone();
            std::thread::Builder::new()
                .name("block-stm-persister".into())
                .spawn(move || {
                    let mut appended = 0u64;
                    while let Ok(cmd) = receiver.recv() {
                        match cmd {
                            Cmd::Batch { entries, events } => {
                                if crash_after.is_some_and(|limit| appended >= limit) {
                                    continue; // "Crashed": the log never sees this batch.
                                }
                                if error.lock().is_some() {
                                    continue; // Already failing; don't pile up errors.
                                }
                                if let Err(e) = store.append_batch(&entries, events) {
                                    *error.lock() = Some(e);
                                }
                                appended += 1;
                            }
                            Cmd::Flush(ack) => {
                                // Everything sent before this barrier has been
                                // appended (or recorded as an error) above.
                                let _ = ack.send(());
                            }
                        }
                    }
                })
                .expect("spawn persister thread")
        };
        Self {
            store,
            batch_events: AtomicU64::new(batch_events.max(1)),
            pending: Mutex::new(PendingBatch::new()),
            sender: Mutex::new(Some(sender)),
            persister: Mutex::new(Some(persister)),
            error,
            failed: AtomicBool::new(false),
        }
    }

    /// The log store this sink persists into.
    pub fn store(&self) -> &Arc<LogStore<K, V>> {
        &self.store
    }

    /// Sends `batch` to the persister; returns whether the persister is still
    /// accepting work.
    fn send(&self, entries: Vec<(K, V)>, events: u64) -> bool {
        let sender = self.sender.lock();
        match sender.as_ref() {
            Some(sender) => sender.send(Cmd::Batch { entries, events }).is_ok(),
            None => false,
        }
    }

    fn cut_pending(&self) {
        let batch = self.pending.lock().take();
        if let Some((entries, events)) = batch {
            if !self.send(entries, events) {
                self.failed.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Durability barrier: pushes the pending batch through the persister,
    /// waits until every batch delivered so far is appended and fsynced, and
    /// returns the durable watermark. Surfaces the first persister I/O failure
    /// as an error; after that the sink reports [`PersistError::PersisterUnavailable`].
    pub fn flush(&self) -> Result<u64, PersistError> {
        self.cut_pending();
        let (ack_tx, ack_rx) = mpsc::channel();
        let sent = {
            let sender = self.sender.lock();
            match sender.as_ref() {
                Some(sender) => sender.send(Cmd::Flush(ack_tx)).is_ok(),
                None => false,
            }
        };
        if !sent || ack_rx.recv().is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
        if let Some(error) = self.error.lock().take() {
            self.failed.store(true, Ordering::Relaxed);
            return Err(error);
        }
        if self.failed.load(Ordering::Relaxed) {
            return Err(PersistError::PersisterUnavailable);
        }
        Ok(self.store.durable_watermark())
    }

    /// Flushes, stops the persister thread and joins it; returns the final
    /// durable watermark. Dropping the sink does the same minus error
    /// reporting.
    pub fn close(self) -> Result<u64, PersistError> {
        let result = self.flush();
        self.shutdown();
        result
    }

    fn shutdown(&self) {
        // Dropping the sender ends the persister's recv loop.
        drop(self.sender.lock().take());
        if let Some(handle) = self.persister.lock().take() {
            let _ = handle.join();
        }
    }
}

impl<K, V> Drop for WriteBehindSink<K, V> {
    fn drop(&mut self) {
        // `close` already shut down if it ran; `shutdown` is idempotent. Push
        // any pending batch through first so a plain drop is still durable
        // (without error reporting — use `close` to observe failures).
        let batch = self.pending.lock().take();
        if let Some((entries, events)) = batch {
            if let Some(sender) = self.sender.lock().as_ref() {
                let _ = sender.send(Cmd::Batch { entries, events });
            }
        }
        drop(self.sender.lock().take());
        if let Some(handle) = self.persister.lock().take() {
            let _ = handle.join();
        }
    }
}

impl<K, V> CommitSink<K, V> for WriteBehindSink<K, V>
where
    K: PersistCodec + Eq + Hash + Clone + Send + Sync + 'static,
    V: PersistCodec + Clone + Send + Sync + 'static,
{
    fn end_block(&self, _committed: usize) {
        // The block's last commit just drained: hand its tail to the persister
        // now rather than when the next block begins, so an idle stream's last
        // block becomes durable too.
        self.cut_pending();
    }

    fn on_commit(&self, event: &CommitEvent<'_, K, V>) {
        let mut pending = self.pending.lock();
        for write in &event.output.writes {
            pending
                .entries
                .push((write.key.clone(), write.value.clone()));
        }
        for (key, value) in event.resolved_deltas {
            pending.entries.push((key.clone(), value.clone()));
        }
        pending.events += 1;
        let batch = if pending.events >= self.batch_events.load(Ordering::Relaxed) {
            pending.take()
        } else {
            None
        };
        drop(pending);
        if let Some((entries, events)) = batch {
            if !self.send(entries, events) {
                self.failed.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// A [`CommitSink`] that appends and fsyncs **inline** from `on_commit`: one
/// frame and one `fdatasync` per commit event, on the draining thread.
///
/// Maximum durability lag of zero, maximum cost — this is the baseline the
/// write-behind sink is measured against in `storagebench`.
pub struct SyncPersistSink<K, V> {
    store: Arc<LogStore<K, V>>,
    error: Mutex<Option<PersistError>>,
}

impl<K, V> SyncPersistSink<K, V>
where
    K: PersistCodec + Eq + Hash + Clone,
    V: PersistCodec,
{
    /// A sink persisting synchronously into `store`.
    pub fn new(store: Arc<LogStore<K, V>>) -> Self {
        Self {
            store,
            error: Mutex::new(None),
        }
    }

    /// The log store this sink persists into.
    pub fn store(&self) -> &Arc<LogStore<K, V>> {
        &self.store
    }

    /// Returns the durable watermark, or the first append failure. (There is
    /// nothing to flush — every commit was already fsynced.)
    pub fn flush(&self) -> Result<u64, PersistError> {
        match self.error.lock().take() {
            Some(error) => Err(error),
            None => Ok(self.store.durable_watermark()),
        }
    }
}

impl<K, V> CommitSink<K, V> for SyncPersistSink<K, V>
where
    K: PersistCodec + Eq + Hash + Clone + Send + Sync + 'static,
    V: PersistCodec + Clone + Send + Sync + 'static,
{
    fn on_commit(&self, event: &CommitEvent<'_, K, V>) {
        if self.error.lock().is_some() {
            return;
        }
        let mut entries: Vec<(K, V)> =
            Vec::with_capacity(event.output.writes.len() + event.resolved_deltas.len());
        for write in &event.output.writes {
            entries.push((write.key.clone(), write.value.clone()));
        }
        for (key, value) in event.resolved_deltas {
            entries.push((key.clone(), value.clone()));
        }
        if let Err(e) = self.store.append_batch(&entries, 1) {
            *self.error.lock() = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;
    use block_stm_vm::{TransactionOutput, WriteOp};
    use std::time::{Duration, Instant};

    fn output(writes: &[(u64, u64)]) -> TransactionOutput<u64, u64> {
        TransactionOutput {
            writes: writes.iter().map(|&(k, v)| WriteOp::new(k, v)).collect(),
            ..TransactionOutput::empty()
        }
    }

    fn commit(sink: &dyn CommitSink<u64, u64>, idx: usize, out: &TransactionOutput<u64, u64>) {
        sink.on_commit(&CommitEvent {
            txn_idx: idx,
            output: out,
            resolved_deltas: &[],
            execution_cursor: idx + 1,
        });
    }

    #[test]
    fn write_behind_persists_after_flush() {
        let dir = TempDir::new("sink-wb");
        let store = Arc::new(LogStore::open(dir.path().join("log")).unwrap());
        let sink = WriteBehindSink::new(store.clone()).with_batch_events(2);
        sink.begin_block(3);
        commit(&sink, 0, &output(&[(1, 10)]));
        commit(&sink, 1, &output(&[(2, 20)]));
        commit(&sink, 2, &output(&[(1, 11)]));
        let watermark = sink.flush().unwrap();
        assert_eq!(watermark, 3);
        assert_eq!(store.get_value(&1).unwrap(), Some(11));
        assert_eq!(store.get_value(&2).unwrap(), Some(20));
        assert_eq!(sink.close().unwrap(), 3);
    }

    #[test]
    fn end_block_makes_the_block_durable_without_a_flush() {
        let dir = TempDir::new("sink-end-block");
        let store = Arc::new(LogStore::open(dir.path().join("log")).unwrap());
        let sink = WriteBehindSink::new(store.clone());
        sink.begin_block(2);
        commit(&sink, 0, &output(&[(1, 10)]));
        commit(&sink, 1, &output(&[(2, 20)]));
        assert_eq!(store.durable_watermark(), 0, "below batch_events: pending");
        sink.end_block(2);
        let deadline = Instant::now() + Duration::from_secs(10);
        while store.durable_watermark() < 2 {
            assert!(
                Instant::now() < deadline,
                "end_block never reached the disk"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(store.get_value(&2).unwrap(), Some(20));
    }

    #[test]
    fn resolved_deltas_are_persisted_as_values() {
        let dir = TempDir::new("sink-deltas");
        let store = Arc::new(LogStore::open(dir.path().join("log")).unwrap());
        let sink = WriteBehindSink::new(store.clone());
        let out = output(&[]);
        sink.on_commit(&CommitEvent {
            txn_idx: 0,
            output: &out,
            resolved_deltas: &[(7, 700)],
            execution_cursor: 1,
        });
        sink.flush().unwrap();
        assert_eq!(store.get_value(&7).unwrap(), Some(700));
    }

    #[test]
    fn drop_without_close_still_persists_pending() {
        let dir = TempDir::new("sink-drop");
        let path = dir.path().join("log");
        {
            let store = Arc::new(LogStore::open(&path).unwrap());
            let sink = WriteBehindSink::new(store).with_batch_events(1000);
            commit(&sink, 0, &output(&[(5, 50)]));
            // Dropped with the batch still pending.
        }
        let store: LogStore<u64, u64> = LogStore::open(&path).unwrap();
        assert_eq!(store.get_value(&5).unwrap(), Some(50));
        assert_eq!(store.durable_watermark(), 1);
    }

    #[test]
    fn crash_knob_stops_persisting_at_a_batch_boundary() {
        let dir = TempDir::new("sink-crash");
        let path = dir.path().join("log");
        {
            let store = Arc::new(LogStore::open(&path).unwrap());
            let sink = WriteBehindSink::new(store)
                .with_batch_events(2)
                .with_crash_after_batches(1);
            for idx in 0..6usize {
                commit(&sink, idx, &output(&[(idx as u64, 100 + idx as u64)]));
            }
            // Flush still acks after the simulated crash; the watermark is
            // frozen at the single durable batch.
            assert_eq!(sink.flush().unwrap(), 2);
        }
        let store: LogStore<u64, u64> = LogStore::open(&path).unwrap();
        assert_eq!(store.durable_watermark(), 2);
        assert_eq!(store.get_value(&0).unwrap(), Some(100));
        assert_eq!(store.get_value(&1).unwrap(), Some(101));
        assert_eq!(store.get_value(&2).unwrap(), None, "beyond the crash");
    }

    #[test]
    fn sync_sink_is_durable_per_commit() {
        let dir = TempDir::new("sink-sync");
        let store = Arc::new(LogStore::open(dir.path().join("log")).unwrap());
        let sink = SyncPersistSink::new(store.clone());
        commit(&sink, 0, &output(&[(1, 10)]));
        // No flush needed: the event is already on disk.
        assert_eq!(store.durable_watermark(), 1);
        commit(&sink, 1, &output(&[(2, 20)]));
        assert_eq!(sink.flush().unwrap(), 2);
        assert_eq!(store.get_value(&2).unwrap(), Some(20));
    }
}
