//! Property-based model test: the two-level `MVMemory` must behave
//! exactly like a trivial sequential reference model under arbitrary interleaved
//! record / re-record (with implicit removals) / estimate sequences — now
//! including commutative **delta** entries — observed through every
//! `(location, reader)` pair after every step.
//!
//! The reference model is the paper's semantics (plus the delta extension)
//! written in the most obvious way: a map of per-location `BTreeMap<txn, entry>`
//! search trees, with reads that walk the tree downwards accumulating deltas
//! until a full value, an ESTIMATE or the bottom. If the interner, the id
//! registry, the sorted per-location entry vectors, removal or the lazy
//! chain-resolution path ever diverge from those semantics, some read observes
//! it and shrinking produces a minimal op sequence. Delta slots marked ESTIMATE
//! and reads that resolve across a [`MVMemory::reset`] are covered explicitly.

use block_stm_mvmemory::{LocationCache, MVMemory, MVReadOutput};
use block_stm_vm::{DeltaOp, Version};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

const KEYS: u64 = 6;
const TXNS: usize = 8;
/// Shared aggregator bound; small enough that negative chains clamp at 0 in
/// realistic sequences, large enough that sums rarely clamp at the top.
const LIMIT: u128 = 1_000;

#[derive(Debug, Clone)]
enum Op {
    /// The next incarnation of `txn` records this write-set and delta-set
    /// (locations the previous incarnation wrote but this one does not are
    /// removed, per Algorithm 2; duplicate keys between the sets resolve
    /// last-wins, i.e. the delta).
    Record {
        txn: usize,
        writes: Vec<(u64, u64)>,
        deltas: Vec<(u64, i128)>,
    },
    /// Abort `txn`'s last finished incarnation: its writes (full *and* delta)
    /// become ESTIMATEs.
    Estimate { txn: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..TXNS,
            vec((0..KEYS, 0..200u64), 0..3),
            vec((0..KEYS, -30..30i64), 0..3),
        )
            .prop_map(|(txn, writes, deltas)| Op::Record {
                txn,
                writes,
                deltas: deltas
                    .into_iter()
                    .map(|(key, delta)| (key, delta as i128))
                    .collect(),
            }),
        (0..TXNS).prop_map(|txn| Op::Estimate { txn }),
    ]
}

/// One model entry: the writer's incarnation plus its payload (`None` payload =
/// ESTIMATE marker).
#[derive(Debug, Clone, Copy)]
enum ModelPayload {
    Value(u64),
    Delta(DeltaOp),
}

type ModelEntry = (usize, Option<ModelPayload>);

/// The sequential reference: per-location ordered maps, per-transaction write-set
/// bookkeeping, applied single-threadedly.
#[derive(Default)]
struct Model {
    data: BTreeMap<u64, BTreeMap<usize, ModelEntry>>,
    last_written: Vec<Vec<u64>>,
    incarnations: Vec<usize>,
}

impl Model {
    fn new() -> Self {
        Self {
            data: BTreeMap::new(),
            last_written: vec![Vec::new(); TXNS],
            incarnations: vec![0; TXNS],
        }
    }

    fn record(&mut self, txn: usize, writes: &[(u64, u64)], deltas: &[(u64, i128)]) -> usize {
        let incarnation = self.incarnations[txn];
        self.incarnations[txn] += 1;
        // Same merge rule as MVMemory: full writes first, deltas after,
        // last-wins per key.
        let mut effects: Vec<(u64, ModelPayload)> = writes
            .iter()
            .map(|(key, value)| (*key, ModelPayload::Value(*value)))
            .collect();
        effects.extend(
            deltas
                .iter()
                .map(|(key, delta)| (*key, ModelPayload::Delta(DeltaOp::add(*delta, LIMIT)))),
        );
        let mut new_keys: Vec<u64> = Vec::new();
        for i in 0..effects.len() {
            let (key, payload) = effects[i];
            if effects[i + 1..].iter().any(|(later, _)| *later == key) {
                continue;
            }
            self.data
                .entry(key)
                .or_default()
                .insert(txn, (incarnation, Some(payload)));
            new_keys.push(key);
        }
        let prev = std::mem::replace(&mut self.last_written[txn], new_keys.clone());
        for unwritten in prev.iter().filter(|key| !new_keys.contains(key)) {
            if let Some(tree) = self.data.get_mut(unwritten) {
                tree.remove(&txn);
            }
        }
        incarnation
    }

    fn estimate(&mut self, txn: usize) {
        for key in &self.last_written[txn] {
            if let Some(entry) = self.data.get_mut(key).and_then(|tree| tree.get_mut(&txn)) {
                entry.1 = None;
            }
        }
    }

    /// The obvious downward walk: accumulate deltas until a full value, an
    /// estimate, or the bottom (base 0 — the model has no storage).
    fn read(&self, key: u64, bound: usize) -> MVReadOutput<u64> {
        let Some(tree) = self.data.get(&key) else {
            return MVReadOutput::NotFound;
        };
        let mut deltas: Vec<DeltaOp> = Vec::new();
        for (&txn, (incarnation, payload)) in tree.range(..bound).rev() {
            match payload {
                None => return MVReadOutput::Dependency(txn),
                Some(ModelPayload::Value(value)) => {
                    let version = Version::new(txn, *incarnation);
                    if deltas.is_empty() {
                        return MVReadOutput::Versioned(version, *value);
                    }
                    let accumulated = deltas
                        .iter()
                        .rev()
                        .fold(*value as u128, |acc, op| op.apply_clamped(acc));
                    return MVReadOutput::Resolved {
                        base_version: Some(version),
                        accumulated,
                    };
                }
                Some(ModelPayload::Delta(op)) => deltas.push(*op),
            }
        }
        if deltas.is_empty() {
            MVReadOutput::NotFound
        } else {
            let accumulated = deltas
                .iter()
                .rev()
                .fold(0u128, |acc, op| op.apply_clamped(acc));
            MVReadOutput::Resolved {
                base_version: None,
                accumulated,
            }
        }
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (key, _) in self.data.iter() {
            match self.read(*key, TXNS) {
                MVReadOutput::Versioned(_, value) => out.push((*key, value)),
                MVReadOutput::Resolved { accumulated, .. } => {
                    out.push((*key, accumulated.min(u64::MAX as u128) as u64))
                }
                MVReadOutput::NotFound | MVReadOutput::Dependency(_) => {}
            }
        }
        out
    }

    fn entry_count(&self) -> usize {
        self.data.values().map(BTreeMap::len).sum()
    }
}

fn apply_op(
    op: &Op,
    step: usize,
    model: &mut Model,
    memory: &MVMemory<u64, u64>,
    cache: &mut LocationCache<u64, u64>,
) {
    match op {
        Op::Record {
            txn,
            writes,
            deltas,
        } => {
            let incarnation = model.record(*txn, writes, deltas);
            let delta_ops: Vec<(u64, DeltaOp)> = deltas
                .iter()
                .map(|(key, delta)| (*key, DeltaOp::add(*delta, LIMIT)))
                .collect();
            // Alternate between the plain and cache-threaded record paths.
            if step.is_multiple_of(2) {
                memory.record_with_deltas(
                    Version::new(*txn, incarnation),
                    vec![],
                    writes.clone(),
                    delta_ops,
                );
            } else {
                memory.record_with_cache_deltas(
                    cache,
                    Version::new(*txn, incarnation),
                    vec![],
                    writes.clone(),
                    delta_ops,
                );
            }
        }
        Op::Estimate { txn } => {
            model.estimate(*txn);
            memory.convert_writes_to_estimates(*txn);
        }
    }
}

fn assert_all_reads_match(
    model: &Model,
    memory: &MVMemory<u64, u64>,
    cache: &mut LocationCache<u64, u64>,
    step: usize,
) -> Result<(), TestCaseError> {
    for key in 0..KEYS {
        for bound in 0..=TXNS {
            let expected = model.read(key, bound);
            // Exercise both the interner path and the worker-cache path.
            let uncached = memory.read(&key, bound);
            let cached = memory.read_with_cache(cache, &key, bound).output;
            // The shim's prop_assert_eq takes no format args; encode the context in
            // a tuple so a failure still names the step and read.
            prop_assert_eq!(
                (step, key, bound, "uncached", &uncached),
                (step, key, bound, "uncached", &expected)
            );
            prop_assert_eq!(
                (step, key, bound, "cached", &cached),
                (step, key, bound, "cached", &expected)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mvmemory_matches_sequential_reference_model(ops in vec(arb_op(), 1..40)) {
        let memory: MVMemory<u64, u64> = MVMemory::new(TXNS);
        let mut cache = LocationCache::new();
        let mut model = Model::new();
        for (step, op) in ops.iter().enumerate() {
            apply_op(op, step, &mut model, &memory, &mut cache);
            assert_all_reads_match(&model, &memory, &mut cache, step)?;
        }
        let mut snapshot = memory.snapshot();
        snapshot.sort_unstable();
        prop_assert_eq!(snapshot, model.snapshot());
        prop_assert_eq!(memory.entry_count(), model.entry_count());
    }

    #[test]
    fn model_equivalence_survives_block_resets(
        first in vec(arb_op(), 1..20),
        second in vec(arb_op(), 1..20),
    ) {
        // The reset must hide every previous-block value (including delta
        // entries) while recycling cells and keeping interning; the second block
        // must then behave like a fresh memory — in particular, a delta chain in
        // the second block must never resolve through a stale first-block base.
        let mut memory: MVMemory<u64, u64> = MVMemory::new(TXNS);
        let mut model = Model::new();
        let mut cache: LocationCache<u64, u64> = LocationCache::new();
        for (step, op) in first.iter().enumerate() {
            apply_op(op, step, &mut model, &memory, &mut cache);
        }
        drop(cache); // caches must not outlive the block
        memory.reset(TXNS);
        let mut model = Model::new();
        let mut cache = LocationCache::new();
        for (step, op) in second.iter().enumerate() {
            apply_op(op, step, &mut model, &memory, &mut cache);
            assert_all_reads_match(&model, &memory, &mut cache, step)?;
        }
    }

    #[test]
    fn estimated_delta_slots_block_resolution_until_reexecution(
        base in 0..200u64,
        lower_delta in -30..30i64,
        upper_delta in -30..30i64,
    ) {
        // Directed shape of the delta lifecycle: value below, two deltas above,
        // the middle one aborted. Readers above the estimate must block; after
        // the re-execution the chain resolves again, matching the model.
        let memory: MVMemory<u64, u64> = MVMemory::new(TXNS);
        let mut model = Model::new();
        let mut cache = LocationCache::new();
        let ops = [
            Op::Record { txn: 0, writes: vec![(0, base)], deltas: vec![] },
            Op::Record { txn: 2, writes: vec![], deltas: vec![(0, lower_delta as i128)] },
            Op::Record { txn: 4, writes: vec![], deltas: vec![(0, upper_delta as i128)] },
            Op::Estimate { txn: 2 },
        ];
        for (step, op) in ops.iter().enumerate() {
            apply_op(op, step, &mut model, &memory, &mut cache);
        }
        prop_assert_eq!(memory.read(&0, 5), MVReadOutput::Dependency(2));
        prop_assert_eq!(memory.read(&0, 2), MVReadOutput::Versioned(Version::new(0, 0), base));
        assert_all_reads_match(&model, &memory, &mut cache, 4)?;
        // The blocker re-executes with a different delta: resolution works again.
        apply_op(
            &Op::Record { txn: 2, writes: vec![], deltas: vec![(0, upper_delta as i128)] },
            5,
            &mut model,
            &memory,
            &mut cache,
        );
        assert_all_reads_match(&model, &memory, &mut cache, 5)?;
    }
}
