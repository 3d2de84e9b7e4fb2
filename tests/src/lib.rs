//! Integration-test crate for the Block-STM reproduction.
//!
//! The tests themselves live in the `tests/` directory as integration tests that
//! exercise the public APIs of the workspace crates together (engine
//! equivalence, balance conservation, determinism, stress). This library only
//! holds helpers shared by several of those suites.

use block_stm::{CommitEvent, CommitSink};
use std::sync::Mutex;

/// One [`CommitSink`] call, as recorded by a [`HookLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookCall {
    /// `begin_block(block_size)`.
    Begin(usize),
    /// `on_commit` of this transaction index.
    Commit(usize),
    /// `end_block(committed)`.
    End(usize),
}

/// A [`CommitSink`] (for any state model) that records every hook call in
/// arrival order, to check the per-block contract against [`expected_calls`].
#[derive(Debug, Default)]
pub struct HookLog(Mutex<Vec<HookCall>>);

impl HookLog {
    /// Every call recorded so far, in arrival order.
    pub fn calls(&self) -> Vec<HookCall> {
        self.0.lock().unwrap().clone()
    }

    fn push(&self, call: HookCall) {
        self.0.lock().unwrap().push(call);
    }
}

impl<K, V> CommitSink<K, V> for HookLog {
    fn begin_block(&self, block_size: usize) {
        self.push(HookCall::Begin(block_size));
    }

    fn on_commit(&self, event: &CommitEvent<'_, K, V>) {
        self.push(HookCall::Commit(event.txn_idx));
    }

    fn end_block(&self, committed: usize) {
        self.push(HookCall::End(committed));
    }
}

/// The exact call sequence the [`CommitSink`] contract prescribes for a stream
/// of blocks given as `(block_size, committed)`: per block `Begin(block_size)`,
/// `Commit(0..committed)`, `End(committed)`, nothing interleaved.
pub fn expected_calls(blocks: &[(usize, usize)]) -> Vec<HookCall> {
    blocks
        .iter()
        .flat_map(|&(block_size, committed)| {
            std::iter::once(HookCall::Begin(block_size))
                .chain((0..committed).map(HookCall::Commit))
                .chain(std::iter::once(HookCall::End(committed)))
        })
        .collect()
}
