//! The collaborative scheduler (Algorithms 4 and 5) with the rolling commit ladder.

use crate::status::TxnStatus;
use crate::task::{Task, Wave};
use block_stm_sync::{AtomicMinCounter, CachePadded, PaddedAtomicBool, PaddedAtomicUsize};
use block_stm_vm::{Incarnation, TxnIndex, Version};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Incarnation number, lifecycle status and the commit ladder's wave bookkeeping,
/// protected together by one mutex (the paper's
/// `txn_status[txn_idx] = mutex((incarnation_number, status))`, extended).
#[derive(Debug, Clone, Copy)]
struct StatusEntry {
    incarnation: Incarnation,
    status: TxnStatus,
    /// Highest wave at which the validation cursor claimed this transaction while it
    /// was validatable. The commit ladder refuses to commit an incarnation whose
    /// passing validation is older than this (a newer sweep has reached the
    /// transaction, so a fresher validation is required or already in flight).
    max_triggered_wave: Wave,
    /// Wave of the validation task last handed directly back to the executing thread
    /// by `finish_execution` (the cursor will never revisit the transaction for it,
    /// so the requirement is recorded here instead of via `max_triggered_wave`).
    required_wave: Wave,
    /// Highest wave at which a validation of the *current* incarnation passed.
    /// Cleared on abort.
    validated_wave: Option<Wave>,
}

impl StatusEntry {
    fn initial() -> Self {
        Self {
            incarnation: 0,
            status: TxnStatus::ReadyToExecute,
            max_triggered_wave: 0,
            required_wave: 0,
            validated_wave: None,
        }
    }
}

/// Packs the validation cursor: low 32 bits index, high 32 bits wave.
#[inline]
const fn pack_cursor(idx: usize, wave: Wave) -> u64 {
    ((wave as u64) << 32) | idx as u64
}

/// Unpacks the validation cursor into `(idx, wave)`.
#[inline]
const fn unpack_cursor(packed: u64) -> (usize, Wave) {
    ((packed & u32::MAX as u64) as usize, (packed >> 32) as Wave)
}

/// The Block-STM collaborative scheduler for one block execution.
///
/// The scheduler is shared by reference across worker threads while a block executes;
/// all hot-path methods take `&self`. Between blocks, an owning executor may call
/// [`reset`](Self::reset) (which requires `&mut self`, i.e. proof of exclusive
/// access) to reuse the per-transaction arrays for the next block instead of
/// reallocating them.
///
/// See the crate docs for the commit ladder design and its safety argument.
#[derive(Debug)]
pub struct Scheduler {
    block_size: usize,
    /// Index of the next transaction to try to execute (cursor of the ordered set `E`).
    execution_idx: AtomicMinCounter,
    /// Packed validation cursor: `(wave << 32) | idx`. The index is the cursor of the
    /// ordered set `V`; the wave increments on every decrease, so a claimed
    /// validation task knows how fresh it is (commit ladder bookkeeping).
    validation_idx: CachePadded<AtomicU64>,
    /// Set once the block is complete (the ladder reached `block_size`) or the
    /// scheduler was halted.
    done_marker: PaddedAtomicBool,
    /// Set by [`halt`](Self::halt): the block was cut short (worker panic or a
    /// `BlockLimiter` boundary) rather than run to completion.
    halted: PaddedAtomicBool,
    /// Chained execution's commit gate (open by default). While closed, the
    /// commit ladder does not advance — the block may execute and validate
    /// speculatively, but nothing commits and the done marker stays down. A
    /// `ChainExecutor` keeps a successor block's gate closed until its
    /// predecessor has fully committed, then triggers a full revalidation
    /// sweep and opens the gate (see
    /// [`set_commit_gate`](Self::set_commit_gate) for the safety protocol).
    commit_gate_open: PaddedAtomicBool,
    /// The commit ladder cursor: index of the lowest uncommitted transaction. Only
    /// the thread holding the mutex advances it; `commit_watermark` mirrors it for
    /// lock-free reads.
    commit_cursor: CachePadded<Mutex<usize>>,
    /// Lock-free mirror of the commit cursor (the committed prefix length).
    commit_watermark: PaddedAtomicUsize,
    /// Per transaction: indices of transactions waiting for it to re-execute.
    txn_dependency: Vec<CachePadded<Mutex<Vec<TxnIndex>>>>,
    /// Per transaction: current incarnation number, status and wave bookkeeping.
    txn_status: Vec<CachePadded<Mutex<StatusEntry>>>,
    /// Hint-guided initial execution order: the execution counter dispenses
    /// *positions*, and `initial_order[pos]` is the transaction executed at
    /// position `pos` (`None` = identity, the paper's index order). Purely a
    /// scheduling heuristic — validation, the commit ladder and the preset
    /// serialization order are untouched (see
    /// [`set_initial_order`](Self::set_initial_order)).
    initial_order: Option<Vec<TxnIndex>>,
    /// Inverse permutation: `order_position[txn_idx]` is the position of
    /// `txn_idx` in `initial_order`. Empty when `initial_order` is `None`.
    order_position: Vec<usize>,
}

impl Scheduler {
    /// Creates a scheduler for a block of `block_size` transactions.
    pub fn new(block_size: usize) -> Self {
        assert!(
            block_size < u32::MAX as usize,
            "block size must fit the packed validation cursor"
        );
        Self {
            block_size,
            execution_idx: AtomicMinCounter::new(0),
            validation_idx: CachePadded::new(AtomicU64::new(pack_cursor(0, 0))),
            done_marker: PaddedAtomicBool::new(false),
            halted: PaddedAtomicBool::new(false),
            commit_gate_open: PaddedAtomicBool::new(true),
            commit_cursor: CachePadded::new(Mutex::new(0)),
            commit_watermark: PaddedAtomicUsize::new(0),
            txn_dependency: (0..block_size)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
            txn_status: (0..block_size)
                .map(|_| CachePadded::new(Mutex::new(StatusEntry::initial())))
                .collect(),
            initial_order: None,
            order_position: Vec::new(),
        }
    }

    /// Re-arms the scheduler for a new block of `block_size` transactions, reusing
    /// the per-transaction arrays (and their heap allocations) instead of building a
    /// fresh scheduler.
    ///
    /// Requires `&mut self`: the borrow checker thereby proves no worker thread still
    /// holds a reference from the previous block.
    pub fn reset(&mut self, block_size: usize) {
        assert!(
            block_size < u32::MAX as usize,
            "block size must fit the packed validation cursor"
        );
        self.block_size = block_size;
        self.execution_idx.store(0);
        *self.validation_idx.get_mut() = pack_cursor(0, 0);
        self.done_marker.store(false);
        self.halted.store(false);
        self.commit_gate_open.store(true);
        *self.commit_cursor.get_mut() = 0;
        self.commit_watermark.store(0);
        self.txn_dependency.truncate(block_size);
        for cell in &mut self.txn_dependency {
            cell.get_mut().clear();
        }
        while self.txn_dependency.len() < block_size {
            self.txn_dependency
                .push(CachePadded::new(Mutex::new(Vec::new())));
        }
        self.txn_status.truncate(block_size);
        for cell in &mut self.txn_status {
            *cell.get_mut() = StatusEntry::initial();
        }
        while self.txn_status.len() < block_size {
            self.txn_status
                .push(CachePadded::new(Mutex::new(StatusEntry::initial())));
        }
        // Hints are per block: the next block must opt in again.
        self.initial_order = None;
        self.order_position.clear();
    }

    /// Installs a hint-guided **initial execution order** for this block: the
    /// execution counter dispenses positions `0, 1, 2, ...` and position `pos`
    /// executes transaction `order[pos]` (low-conflict transactions first, per
    /// the hint partition). `order` must be a permutation of
    /// `0..block_size()`.
    ///
    /// This is purely a dispensing heuristic and cannot affect the committed
    /// output: the validation cursor, the wave bookkeeping and the commit
    /// ladder all operate on *transaction indices* exactly as before, so the
    /// preset serialization order is preserved no matter how execution is
    /// permuted — a mis-ordered speculation is caught by validation like any
    /// other stale read.
    ///
    /// Requires `&mut self` (called between [`reset`](Self::reset) and the
    /// block's first task claim, while no worker holds a reference).
    pub fn set_initial_order(&mut self, order: Vec<TxnIndex>) {
        assert_eq!(order.len(), self.block_size, "order must cover the block");
        self.order_position.clear();
        self.order_position.resize(self.block_size, usize::MAX);
        for (pos, &txn_idx) in order.iter().enumerate() {
            assert!(
                txn_idx < self.block_size && self.order_position[txn_idx] == usize::MAX,
                "initial order must be a permutation of 0..block_size"
            );
            self.order_position[txn_idx] = pos;
        }
        self.initial_order = Some(order);
    }

    /// Pre-registers a **hinted dependency** before the block starts: `txn_idx`
    /// is parked (it will fail every `try_incarnate` until woken) and is added
    /// to `blocking_txn_idx`'s dependency list, exactly as if it had executed,
    /// read an ESTIMATE of the blocker and aborted — minus the doomed
    /// speculative execution. When the blocker finishes its next incarnation,
    /// `finish_execution` resumes `txn_idx` through the ordinary
    /// `resume_dependencies` path.
    ///
    /// Returns `false` (and registers nothing) unless `txn_idx` is still in its
    /// untouched initial state, so at most one pre-dependency can be installed
    /// per transaction. Stale or wrong hints cannot affect the output: parking
    /// only delays the first execution, and the woken incarnation validates
    /// like any other.
    ///
    /// Requires `&mut self` (no worker is running, so no lock ordering or
    /// wake race to consider — in particular the blocker cannot have finished
    /// executing yet).
    pub fn preregister_dependency(
        &mut self,
        txn_idx: TxnIndex,
        blocking_txn_idx: TxnIndex,
    ) -> bool {
        assert!(
            blocking_txn_idx < txn_idx && txn_idx < self.block_size,
            "pre-registered dependencies point to lower transactions in the block"
        );
        let entry = self.txn_status[txn_idx].get_mut();
        if entry.status != TxnStatus::ReadyToExecute || entry.incarnation != 0 {
            return false;
        }
        entry.status = TxnStatus::Aborting;
        self.txn_dependency[blocking_txn_idx]
            .get_mut()
            .push(txn_idx);
        true
    }

    /// Maps an execution-counter position to the transaction dispensed there.
    #[inline]
    fn txn_at_position(&self, pos: usize) -> TxnIndex {
        match &self.initial_order {
            Some(order) if pos < order.len() => order[pos],
            _ => pos,
        }
    }

    /// Maps a transaction index to its execution-counter position.
    #[inline]
    fn position_of(&self, txn_idx: TxnIndex) -> usize {
        if self.initial_order.is_some() {
            self.order_position[txn_idx]
        } else {
            txn_idx
        }
    }

    /// Raises the done marker immediately, releasing every worker from its run loop.
    ///
    /// Used by executors to cut a block short: after a worker died mid-block (the
    /// results are discarded) or when a `BlockLimiter` declared the committed prefix
    /// long enough (the results up to the executor's cut are kept — the prefix below
    /// [`committed_prefix`](Self::committed_prefix) is already final and is not
    /// disturbed by the halt). The scheduler must be [`reset`](Self::reset) before
    /// the next block.
    pub fn halt(&self) {
        self.halted.store(true);
        self.done_marker.store(true);
    }

    /// Whether [`halt`](Self::halt) cut this block short.
    pub fn halted(&self) -> bool {
        self.halted.load()
    }

    /// Opens or closes the chained-execution **commit gate** (open by default;
    /// [`reset`](Self::reset) re-opens it).
    ///
    /// While the gate is closed the commit ladder is frozen at its current
    /// boundary: execution and validation tasks are dispensed normally — the
    /// block speculates at full speed — but no transaction transitions to
    /// `Committed`, the committed watermark does not move, and the done marker
    /// stays down. A `ChainExecutor` closes the gate of block `N+1` while
    /// block `N` is still committing (so `N+1` can never commit a read of a
    /// not-yet-final cross-block frontier), and opens it only **after** the
    /// frontier is final *and* a [`trigger_full_revalidation`] sweep has
    /// started a fresh validation wave — the ladder's wave-freshness rule then
    /// guarantees every commit is backed by a validation that began after the
    /// frontier froze.
    ///
    /// Opening the gate re-attempts the ladder immediately, so a block whose
    /// validations all passed while gated does not wait for another
    /// validation event.
    ///
    /// [`trigger_full_revalidation`]: Self::trigger_full_revalidation
    pub fn set_commit_gate(&self, open: bool) {
        self.commit_gate_open.store(open);
        if open {
            self.advance_commit_ladder();
        }
    }

    /// Whether the chained-execution commit gate is open (see
    /// [`set_commit_gate`](Self::set_commit_gate)).
    pub fn commit_gate_open(&self) -> bool {
        self.commit_gate_open.load()
    }

    /// Starts a fresh validation wave covering the whole block: lowers the
    /// validation cursor to 0 (if it is not already there) and returns the
    /// wave at which transactions will now (re-)validate.
    ///
    /// Chained execution calls this when the cross-block frontier advances —
    /// most importantly once the predecessor block has fully committed, right
    /// before opening the successor's commit gate: the commit rule's
    /// `validated_wave >= max_triggered_wave` freshness check then rejects any
    /// validation that predates the sweep, so stale frontier reads (caught by
    /// their stamped descriptors) can never be committed.
    pub fn trigger_full_revalidation(&self) -> Wave {
        self.decrease_validation_idx(0)
    }

    /// Number of transactions in the block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// `done()` (Line 101): whether the block is complete and threads may exit their
    /// run loop. Raised exactly when
    /// [`committed_prefix`](Self::committed_prefix) reaches
    /// [`block_size`](Self::block_size) (or on [`halt`](Self::halt)).
    pub fn done(&self) -> bool {
        self.done_marker.load()
    }

    /// Length of the committed prefix: every transaction below this index is
    /// `Committed` — its output, write-set and multi-version entries are final.
    /// Monotonically increasing within a block; lock-free.
    pub fn committed_prefix(&self) -> usize {
        self.commit_watermark.load()
    }

    /// Position of the execution cursor, clamped to the block size. The distance
    /// `execution_cursor() - committed_prefix()` is the commit lag: how far
    /// speculation has run ahead of the committed prefix. (With a hinted
    /// initial order installed this counts dispensed *positions*, not
    /// transaction indices.)
    pub fn execution_cursor(&self) -> usize {
        self.execution_idx.load().min(self.block_size)
    }

    /// Current incarnation number of `txn_idx` (used by executors for bookkeeping and
    /// by tests).
    pub fn incarnation_of(&self, txn_idx: TxnIndex) -> Incarnation {
        self.txn_status[txn_idx].lock().incarnation
    }

    /// Current status of `txn_idx` (test/diagnostic helper).
    pub fn status_of(&self, txn_idx: TxnIndex) -> TxnStatus {
        self.txn_status[txn_idx].lock().status
    }

    /// Diagnostic snapshot of one transaction's commit-freshness state plus the
    /// validation cursor: `(incarnation, status, max_triggered_wave,
    /// required_wave, validated_wave, cursor_idx, cursor_wave)`. Used by the
    /// opt-in chained-commit audit; not on any hot path.
    #[allow(clippy::type_complexity)]
    pub fn wave_diagnostics(
        &self,
        txn_idx: TxnIndex,
    ) -> (
        Incarnation,
        TxnStatus,
        Wave,
        Wave,
        Option<Wave>,
        usize,
        Wave,
    ) {
        let entry = self.txn_status[txn_idx].lock();
        let (cursor_idx, cursor_wave) = self.validation_cursor();
        (
            entry.incarnation,
            entry.status,
            entry.max_triggered_wave,
            entry.required_wave,
            entry.validated_wave,
            cursor_idx,
            cursor_wave,
        )
    }

    /// Capacity of the dependency list slot of `txn_idx` (steady-state allocation
    /// test hook).
    #[doc(hidden)]
    pub fn dependency_capacity(&self, txn_idx: TxnIndex) -> usize {
        self.txn_dependency[txn_idx].lock().capacity()
    }

    /// `decrease_execution_idx` (Lines 98–100). The counter lives in
    /// *position* space, so the target transaction is translated through the
    /// hinted initial order (identity without one).
    fn decrease_execution_idx(&self, target_idx: TxnIndex) {
        self.execution_idx.decrease(self.position_of(target_idx));
    }

    /// `decrease_validation_idx` (Lines 103–105), wave-stamped: lowering the cursor
    /// starts a new validation wave. Returns the wave at which transactions from
    /// `target_idx` upward will (re-)validate — the new wave if this call lowered the
    /// cursor, the current wave if it already was at or below the target.
    fn decrease_validation_idx(&self, target_idx: TxnIndex) -> Wave {
        let mut current = self.validation_idx.load(Ordering::SeqCst);
        loop {
            let (idx, wave) = unpack_cursor(current);
            if idx <= target_idx {
                return wave;
            }
            match self.validation_idx.compare_exchange(
                current,
                pack_cursor(target_idx, wave + 1),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return wave + 1,
                Err(observed) => current = observed,
            }
        }
    }

    /// The current `(index, wave)` of the validation cursor.
    fn validation_cursor(&self) -> (usize, Wave) {
        unpack_cursor(self.validation_idx.load(Ordering::SeqCst))
    }

    /// `check_done` (Lines 106–109), derived from the commit ladder instead of the
    /// paper's double collect: the block is done exactly when the committed prefix
    /// covers it, so this simply attempts a ladder advance (which raises the done
    /// marker at the end).
    fn check_done(&self) {
        if !self.done_marker.load() {
            self.advance_commit_ladder();
        }
    }

    /// The post-validation commit hook: advances the commit ladder while the lowest
    /// uncommitted transaction has a sufficiently fresh passing validation.
    ///
    /// A transaction `k` commits when, under its status lock:
    ///
    /// 1. its status is `Validated` for the current incarnation, with the passing
    ///    validation's wave `w_V = validated_wave`;
    /// 2. `w_V >= max(max_triggered_wave, required_wave)` — no newer sweep has
    ///    reached the transaction, and the validation handed back after its last
    ///    execution (if any) has completed;
    /// 3. the validation cursor `(idx, wave)` satisfies `idx > k || wave <= w_V` — a
    ///    sweep that could carry an unseen invalidation is not still below `k`.
    ///
    /// See the crate docs for why 1–3 imply the incarnation's reads equal the final
    /// committed state (the safety argument).
    fn advance_commit_ladder(&self) {
        let mut next = self.commit_cursor.lock();
        loop {
            if !self.commit_gate_open.load() {
                // Chained execution: the predecessor block has not fully
                // committed, so nothing here may commit yet (and the done
                // marker stays down). The gate owner re-attempts the ladder
                // when it opens the gate.
                return;
            }
            if *next == self.block_size {
                self.done_marker.store(true);
                return;
            }
            if self.halted.load() {
                // A halt freezes the ladder at the current boundary; the executor
                // decides what to keep.
                return;
            }
            let mut entry = self.txn_status[*next].lock();
            let committable = entry.status == TxnStatus::Validated
                && match entry.validated_wave {
                    Some(validated) => {
                        let fresh_enough =
                            validated >= entry.max_triggered_wave.max(entry.required_wave);
                        let (cursor_idx, cursor_wave) = self.validation_cursor();
                        fresh_enough && (cursor_idx > *next || cursor_wave <= validated)
                    }
                    None => false,
                };
            if !committable {
                return;
            }
            entry.status = TxnStatus::Committed;
            drop(entry);
            *next += 1;
            self.commit_watermark.store(*next);
        }
    }

    /// `try_incarnate` (Lines 110–117): claims the next incarnation of `txn_idx` for
    /// execution if (and only if) the transaction is `READY_TO_EXECUTE`. Unlike the
    /// paper's pseudo-code there is no active-task count to maintain: completion
    /// comes from the commit ladder, not from the double collect.
    fn try_incarnate(&self, txn_idx: TxnIndex) -> Option<Version> {
        if txn_idx < self.block_size {
            let mut entry = self.txn_status[txn_idx].lock();
            if entry.status == TxnStatus::ReadyToExecute {
                entry.status = TxnStatus::Executing;
                return Some(Version::new(txn_idx, entry.incarnation));
            }
        }
        None
    }

    /// `next_version_to_execute` (Lines 118–124).
    fn next_version_to_execute(&self) -> Option<Version> {
        if self.execution_idx.load() >= self.block_size {
            self.check_done();
            return None;
        }
        let idx_to_execute = self.txn_at_position(self.execution_idx.fetch_and_increment());
        self.try_incarnate(idx_to_execute)
    }

    /// `next_version_to_validate` (Lines 125–136). Claims the next validatable
    /// transaction under the cursor and stamps the cursor's wave into both the
    /// returned task and the transaction's `max_triggered_wave` (the commit ladder's
    /// freshness floor). Committed transactions are never validatable: the committed
    /// prefix is permanently exempt from re-validation.
    ///
    /// The wave is stamped *before* the cursor advances, under the transaction's
    /// status lock, with the advance itself a CAS performed while the lock is
    /// still held. This ordering is load-bearing for the commit ladder's rule 2:
    /// the ladder's rule 3 treats `cursor > k` as proof that the cursor's wave
    /// has been stamped into `max_triggered_wave[k]` (or that `k` needs no
    /// stamp). A simple `fetch_add` claim would open a window — cursor already
    /// past `k`, stamp not yet taken — in which the ladder can commit `k`
    /// against a stale older-wave validation; the claimer then finds `k`
    /// `Committed`, discards the fresh validation that would have caught the
    /// stale read, and the miscommit stands.
    fn next_version_to_validate(&self) -> Option<Task> {
        let (idx, _) = self.validation_cursor();
        if idx >= self.block_size {
            self.check_done();
            return None;
        }
        let mut current = self.validation_idx.load(Ordering::SeqCst);
        loop {
            let (idx_to_validate, wave) = unpack_cursor(current);
            if idx_to_validate >= self.block_size {
                break;
            }
            let entry_guard = &mut *self.txn_status[idx_to_validate].lock();
            let validatable = entry_guard.status.is_validatable();
            if validatable {
                entry_guard.max_triggered_wave = entry_guard.max_triggered_wave.max(wave);
            }
            match self.validation_idx.compare_exchange(
                current,
                pack_cursor(idx_to_validate + 1, wave),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    if validatable {
                        return Some(Task::validation(
                            Version::new(idx_to_validate, entry_guard.incarnation),
                            wave,
                        ));
                    }
                    // Claimed a transaction with nothing to validate right now
                    // (not yet executed, aborting, or already committed); its
                    // freshness is covered by `required_wave` at hand-back or
                    // by a later sweep.
                    break;
                }
                Err(observed) => {
                    // Lost the claim (another claimer advanced, or a decrease
                    // started a new wave). The stamp taken above is at most
                    // conservative — it can only demand a fresher validation.
                    current = observed;
                }
            }
        }
        None
    }

    /// `next_task` (Lines 137–146): hands the calling thread the lowest-indexed ready
    /// task, preferring validation when the validation cursor is behind the execution
    /// cursor. (With a hinted initial order the execution counter counts
    /// *positions*, so the comparison degrades to a heuristic — either branch
    /// is correct, it only biases which task kind is tried first.)
    pub fn next_task(&self) -> Option<Task> {
        let (validation_idx, _) = self.validation_cursor();
        if validation_idx < self.execution_idx.load() {
            self.next_version_to_validate()
        } else {
            self.next_version_to_execute().map(Task::execution)
        }
    }

    /// `add_dependency` (Lines 147–154): records that `txn_idx` must wait for
    /// `blocking_txn_idx` to finish its next incarnation (because `txn_idx` read an
    /// ESTIMATE written by it).
    ///
    /// Returns `false` when the race described in §3.3 is detected: the blocking
    /// transaction finished executing before the dependency could be registered — the
    /// caller should simply re-execute immediately.
    pub fn add_dependency(&self, txn_idx: TxnIndex, blocking_txn_idx: TxnIndex) -> bool {
        debug_assert!(
            blocking_txn_idx < txn_idx,
            "dependencies point to lower txns"
        );
        // Lock order: dependency list of the blocking transaction first, then statuses.
        // This is the only place two locks are held simultaneously (Claim 5).
        let mut dependency_guard = self.txn_dependency[blocking_txn_idx].lock();
        if self.txn_status[blocking_txn_idx]
            .lock()
            .status
            .writes_settled()
        {
            // Dependency resolved before locking: the caller re-executes immediately.
            // (`Executed`, `Validated` or `Committed` — the blocker's writes are in
            // place. Registering on a `Committed` blocker in particular would park
            // the caller forever: committed transactions never resume dependents.)
            return false;
        }
        {
            let mut entry = self.txn_status[txn_idx].lock();
            debug_assert_eq!(entry.status, TxnStatus::Executing);
            entry.status = TxnStatus::Aborting;
        }
        dependency_guard.push(txn_idx);
        true
    }

    /// `set_ready_status` (Lines 155–158): moves an `ABORTING(i)` transaction to
    /// `READY_TO_EXECUTE(i + 1)`, invalidating any recorded passing validation.
    fn set_ready_status(&self, txn_idx: TxnIndex) {
        let mut entry = self.txn_status[txn_idx].lock();
        debug_assert_eq!(entry.status, TxnStatus::Aborting);
        entry.incarnation += 1;
        entry.status = TxnStatus::ReadyToExecute;
        entry.validated_wave = None;
    }

    /// `resume_dependencies` (Lines 159–164): wakes every transaction that was waiting
    /// on the just-finished one and makes sure the execution cursor will revisit them.
    fn resume_dependencies(&self, dependent_txn_indices: &[TxnIndex]) {
        for &dep_txn_idx in dependent_txn_indices {
            self.set_ready_status(dep_txn_idx);
        }
        // The execution counter is in position space: lower it to the earliest
        // *dispensed position* among the woken transactions (identical to the
        // minimum index without a hinted order).
        if let Some(&first_dependency) = dependent_txn_indices
            .iter()
            .min_by_key(|&&dep| self.position_of(dep))
        {
            self.decrease_execution_idx(first_dependency);
        }
    }

    /// `finish_execution` (Lines 165–175): called after an incarnation's effects were
    /// recorded in the multi-version memory.
    ///
    /// When the validation cursor has already run past the transaction, its (re-)
    /// validation is handed straight back to the caller (the paper's case 1(b)
    /// optimization), stamped with the wave it must satisfy; if the incarnation
    /// wrote a location its predecessor did not, the cursor is additionally lowered
    /// to `txn_idx + 1` so every higher transaction re-validates on a fresh wave.
    pub fn finish_execution(
        &self,
        txn_idx: TxnIndex,
        incarnation: Incarnation,
        wrote_new_path: bool,
    ) -> Option<Task> {
        {
            let mut entry = self.txn_status[txn_idx].lock();
            debug_assert_eq!(entry.status, TxnStatus::Executing);
            debug_assert_eq!(entry.incarnation, incarnation);
            entry.status = TxnStatus::Executed;
        }
        let mut drained = std::mem::take(&mut *self.txn_dependency[txn_idx].lock());
        self.resume_dependencies(&drained);
        if drained.capacity() > 0 {
            // Return the drained buffer to its slot so steady-state wake cycles
            // allocate nothing. If a new dependency raced in meanwhile (the slot
            // has its own buffer again), keep that one.
            drained.clear();
            let mut slot = self.txn_dependency[txn_idx].lock();
            if slot.capacity() == 0 {
                *slot = drained;
            }
        }

        let (validation_idx, current_wave) = self.validation_cursor();
        if validation_idx <= txn_idx {
            // The cursor has yet to reach this transaction: its validation will be
            // claimed through `next_task`.
            return None;
        }
        // Higher transactions have already been (or are being) validated against a
        // state that did not include this incarnation's writes.
        let wave = if wrote_new_path {
            // Re-validate the whole suffix on a fresh wave; this transaction itself
            // is covered by the task handed back.
            self.decrease_validation_idx(txn_idx + 1)
        } else {
            current_wave
        };
        self.txn_status[txn_idx].lock().required_wave = wave;
        Some(Task::validation(Version::new(txn_idx, incarnation), wave))
    }

    /// `try_validation_abort` (Lines 176–181): claims the right to abort incarnation
    /// `incarnation` of `txn_idx`. Only the first failing validation per incarnation
    /// succeeds; committed transactions can never be aborted.
    pub fn try_validation_abort(&self, txn_idx: TxnIndex, incarnation: Incarnation) -> bool {
        let mut entry = self.txn_status[txn_idx].lock();
        if entry.incarnation == incarnation && entry.status.is_validatable() {
            entry.status = TxnStatus::Aborting;
            true
        } else {
            false
        }
    }

    /// `finish_validation` (Lines 182–191): called after a validation task completes.
    ///
    /// On abort, schedules the re-execution (possibly returning it directly to the
    /// caller) and re-validation of higher transactions. On a pass, records the
    /// validation's wave, promotes the incarnation to `Validated`, and — when the
    /// transaction sits at the commit boundary — runs the commit ladder.
    pub fn finish_validation(
        &self,
        txn_idx: TxnIndex,
        incarnation: Incarnation,
        wave: Wave,
        aborted: bool,
    ) -> Option<Task> {
        if aborted {
            self.set_ready_status(txn_idx);
            self.decrease_validation_idx(txn_idx + 1);
            if self.execution_idx.load() > self.position_of(txn_idx) {
                // The execution cursor already passed it: hand the re-execution
                // straight back (the paper's case 2(c)).
                return self.try_incarnate(txn_idx).map(Task::execution);
            }
        } else {
            let mut entry = self.txn_status[txn_idx].lock();
            // Stale validations (a different incarnation, or a transaction that
            // committed or aborted meanwhile) record nothing.
            if entry.incarnation == incarnation && entry.status.is_validatable() {
                entry.status = TxnStatus::Validated;
                entry.validated_wave =
                    Some(entry.validated_wave.map_or(wave, |prev| prev.max(wave)));
                let at_commit_boundary = self.commit_watermark.load() == txn_idx;
                drop(entry);
                if at_commit_boundary {
                    self.advance_commit_ladder();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// `next_task` may legitimately return `None` a few times while the validation
    /// cursor runs ahead of transactions that have not executed yet (the paper's run
    /// loop simply retries); this helper retries a bounded number of times.
    fn claim(scheduler: &Scheduler) -> Task {
        for _ in 0..100 {
            if let Some(task) = scheduler.next_task() {
                return task;
            }
        }
        panic!("no task became available");
    }

    /// Finishes a validation task as passing, passing its version/wave through.
    fn pass_validation(scheduler: &Scheduler, task: Task) -> Option<Task> {
        assert!(task.is_validation());
        scheduler.finish_validation(
            task.version.txn_idx,
            task.version.incarnation,
            task.wave,
            false,
        )
    }

    #[test]
    fn initial_tasks_are_executions_in_order() {
        let scheduler = Scheduler::new(3);
        let t0 = claim(&scheduler);
        assert_eq!(t0, Task::execution(Version::new(0, 0)));
        let t1 = claim(&scheduler);
        assert_eq!(t1, Task::execution(Version::new(1, 0)));
    }

    #[test]
    fn empty_block_terminates_immediately() {
        let scheduler = Scheduler::new(0);
        assert!(!scheduler.done());
        assert!(scheduler.next_task().is_none());
        assert!(scheduler.done());
        assert_eq!(scheduler.committed_prefix(), 0);
    }

    #[test]
    fn simple_block_runs_to_completion_single_threaded() {
        let n = 4;
        let scheduler = Scheduler::new(n);
        let mut executed = vec![0usize; n];
        let mut validated = vec![0usize; n];
        let mut pending: Option<Task> = None;
        let mut steps = 0;
        while !scheduler.done() {
            steps += 1;
            assert!(steps < 1_000, "scheduler did not terminate");
            let task = match pending.take() {
                Some(task) => Some(task),
                None => scheduler.next_task(),
            };
            let Some(task) = task else { continue };
            match task.kind {
                TaskKind::Execution => {
                    executed[task.version.txn_idx] += 1;
                    pending = scheduler.finish_execution(
                        task.version.txn_idx,
                        task.version.incarnation,
                        true,
                    );
                }
                TaskKind::Validation => {
                    validated[task.version.txn_idx] += 1;
                    pending = pass_validation(&scheduler, task);
                }
            }
        }
        assert!(executed.iter().all(|&count| count == 1));
        assert!(validated.iter().all(|&count| count >= 1));
        // The commit ladder committed the whole block, in order.
        assert_eq!(scheduler.committed_prefix(), n);
        for txn_idx in 0..n {
            assert_eq!(scheduler.status_of(txn_idx), TxnStatus::Committed);
        }
    }

    #[test]
    fn finish_execution_without_new_path_returns_validation_task() {
        let scheduler = Scheduler::new(2);
        // Claiming the second execution task makes the validation cursor attempt (and
        // skip) transaction 0, leaving validation_idx == 1.
        let e0 = claim(&scheduler);
        let e1 = claim(&scheduler);
        assert_eq!(e0, Task::execution(Version::new(0, 0)));
        assert_eq!(e1, Task::execution(Version::new(1, 0)));
        // txn 1: validation cursor (1) is not strictly above it, so nothing is handed
        // back — its validation will be claimed through next_task later.
        assert_eq!(scheduler.finish_execution(1, 0, false), None);
        // txn 0: the validation cursor already ran past it and no new location was
        // written, so its validation task is handed straight back to the caller
        // (case 1(b) of the paper), stamped with the current wave (0).
        let handed_back = scheduler.finish_execution(0, 0, false);
        assert_eq!(handed_back, Some(Task::validation(Version::new(0, 0), 0)));
        assert_eq!(pass_validation(&scheduler, handed_back.unwrap()), None);
        assert_eq!(scheduler.committed_prefix(), 1);
        // The remaining validation (txn 1) is claimed through the shared cursor.
        let v1 = claim(&scheduler);
        assert_eq!(v1, Task::validation(Version::new(1, 0), 0));
        assert_eq!(pass_validation(&scheduler, v1), None);
        assert!(scheduler.done(), "last commit raises the done marker");
        assert_eq!(scheduler.committed_prefix(), 2);
    }

    #[test]
    fn wrote_new_path_hands_back_validation_and_sweeps_suffix() {
        let scheduler = Scheduler::new(3);
        let executions: Vec<Task> = (0..3).map(|_| claim(&scheduler)).collect();
        assert!(executions.iter().all(|task| task.is_execution()));
        // All three claimed: the validation cursor sits at 2 (it skipped 0 and 1).
        // txn 0 wrote a new location: its own validation is handed back on the new
        // wave and the cursor is lowered to 1 for the suffix.
        let handed_back = scheduler.finish_execution(0, 0, true).unwrap();
        assert_eq!(handed_back, Task::validation(Version::new(0, 0), 1));
        assert_eq!(scheduler.validation_cursor(), (1, 1));
        scheduler.finish_execution(1, 0, false);
        scheduler.finish_execution(2, 0, false);
        assert_eq!(pass_validation(&scheduler, handed_back), None);
        // Suffix validations are claimed on wave 1.
        let v1 = claim(&scheduler);
        assert_eq!(v1, Task::validation(Version::new(1, 0), 1));
        let v2 = claim(&scheduler);
        assert_eq!(v2, Task::validation(Version::new(2, 0), 1));
        pass_validation(&scheduler, v1);
        pass_validation(&scheduler, v2);
        assert!(scheduler.done());
        assert_eq!(scheduler.committed_prefix(), 3);
    }

    #[test]
    fn failed_validation_returns_re_execution_task_and_bumps_incarnation() {
        let scheduler = Scheduler::new(3);
        // Claim all executions first (so no validation task interleaves), then finish
        // them without new paths so no validation is handed back for txns 1 and 2.
        let executions: Vec<Task> = (0..3).map(|_| claim(&scheduler)).collect();
        assert!(executions.iter().all(|task| task.is_execution()));
        let v0 = scheduler.finish_execution(0, 0, false).unwrap();
        assert_eq!(v0, Task::validation(Version::new(0, 0), 0));
        // The cursor (at 2) ran past txn 1 as well: its validation comes back too.
        let _v1 = scheduler.finish_execution(1, 0, false).unwrap();
        assert_eq!(scheduler.finish_execution(2, 0, false), None);
        // The handed-back validation of txn 0 fails.
        assert!(scheduler.try_validation_abort(0, 0));
        // Second abort attempt for the same incarnation must fail.
        assert!(!scheduler.try_validation_abort(0, 0));
        let followup = scheduler.finish_validation(0, 0, v0.wave, true).unwrap();
        assert_eq!(followup, Task::execution(Version::new(0, 1)));
        assert_eq!(scheduler.incarnation_of(0), 1);
        assert_eq!(scheduler.status_of(0), TxnStatus::Executing);
    }

    #[test]
    fn failed_validation_schedules_revalidation_of_higher_transactions() {
        let scheduler = Scheduler::new(3);
        let executions: Vec<Task> = (0..3).map(|_| claim(&scheduler)).collect();
        assert!(executions.iter().all(|task| task.is_execution()));
        let v0 = scheduler.finish_execution(0, 0, false).unwrap();
        // The validation cursor (at 2) already ran past txn 1 too, so its validation
        // is handed back as well; txn 2's is claimed through the cursor.
        let v1 = scheduler.finish_execution(1, 0, false).unwrap();
        assert_eq!(v1, Task::validation(Version::new(1, 0), 0));
        assert_eq!(scheduler.finish_execution(2, 0, false), None);
        let v2 = claim(&scheduler);
        assert_eq!(v2, Task::validation(Version::new(2, 0), 0));
        // txn 1's validation fails.
        assert!(scheduler.try_validation_abort(1, 0));
        let reexec = scheduler
            .finish_validation(1, 0, v1.wave, true)
            .expect("re-execution comes straight back");
        assert_eq!(reexec, Task::execution(Version::new(1, 1)));
        // The abort lowered the validation cursor to 2 on a fresh wave.
        assert_eq!(scheduler.validation_cursor(), (2, 1));
        // The other validations pass (txn 2's is now stale in wave terms).
        assert_eq!(pass_validation(&scheduler, v0), None);
        assert_eq!(pass_validation(&scheduler, v2), None);
        assert_eq!(scheduler.committed_prefix(), 1, "only txn 0 commits so far");
        // txn 1 re-executes without a new path: its validation is handed back on the
        // current wave.
        let v1_again = scheduler
            .finish_execution(1, 1, false)
            .expect("validation task should be returned to the caller");
        assert_eq!(v1_again, Task::validation(Version::new(1, 1), 1));
        assert_eq!(pass_validation(&scheduler, v1_again), None);
        assert_eq!(scheduler.committed_prefix(), 2);
        // txn 2 must re-validate on wave 1 before it can commit: the wave-0 pass
        // recorded above is too old (a fresh sweep covers it).
        let v2_again = claim(&scheduler);
        assert_eq!(v2_again, Task::validation(Version::new(2, 0), 1));
        assert_eq!(pass_validation(&scheduler, v2_again), None);
        assert!(scheduler.done());
        assert_eq!(scheduler.committed_prefix(), 3);
    }

    #[test]
    fn stale_wave_validation_does_not_commit() {
        // The commit ladder's freshness rule in isolation: a passing validation from
        // an old wave must not commit a transaction a newer sweep has reached.
        let scheduler = Scheduler::new(2);
        let _e0 = claim(&scheduler);
        let _e1 = claim(&scheduler);
        let v0 = scheduler.finish_execution(0, 0, false).unwrap();
        scheduler.finish_execution(1, 0, false);
        pass_validation(&scheduler, v0);
        assert_eq!(scheduler.committed_prefix(), 1);
        // txn 1's validation is claimed on wave 0 ...
        let v1 = claim(&scheduler);
        assert_eq!(v1, Task::validation(Version::new(1, 0), 0));
        // ... but before it reports, something lowers the cursor (as a lower txn's
        // re-execution with a new write path would).
        assert_eq!(scheduler.decrease_validation_idx(1), 1);
        // The wave-0 pass is recorded but does not commit: max_triggered_wave will
        // reach 1 when the new sweep claims txn 1.
        let v1_swept = claim(&scheduler);
        assert_eq!(v1_swept, Task::validation(Version::new(1, 0), 1));
        pass_validation(&scheduler, v1);
        assert_eq!(
            scheduler.committed_prefix(),
            1,
            "wave-0 validation is stale once the wave-1 sweep claimed the txn"
        );
        assert!(!scheduler.done());
        // The fresh validation commits it.
        pass_validation(&scheduler, v1_swept);
        assert_eq!(scheduler.committed_prefix(), 2);
        assert!(scheduler.done());
    }

    #[test]
    fn committed_transactions_are_exempt_from_revalidation_and_abort() {
        let scheduler = Scheduler::new(2);
        let _e0 = claim(&scheduler);
        let _e1 = claim(&scheduler);
        let v0 = scheduler.finish_execution(0, 0, false).unwrap();
        scheduler.finish_execution(1, 0, false);
        pass_validation(&scheduler, v0);
        assert_eq!(scheduler.status_of(0), TxnStatus::Committed);
        // A stale validation of the committed incarnation can neither abort it ...
        assert!(!scheduler.try_validation_abort(0, 0));
        // ... nor is it ever claimed again: lowering the cursor to 0 sweeps over the
        // committed transaction without producing a task for it.
        scheduler.decrease_validation_idx(0);
        let swept = claim(&scheduler);
        assert_eq!(
            swept.version.txn_idx, 1,
            "the sweep skips the committed transaction"
        );
        assert_eq!(scheduler.status_of(0), TxnStatus::Committed);
    }

    #[test]
    fn closed_commit_gate_freezes_ladder_and_done_marker() {
        let scheduler = Scheduler::new(2);
        scheduler.set_commit_gate(false);
        assert!(!scheduler.commit_gate_open());
        let _e0 = claim(&scheduler);
        let _e1 = claim(&scheduler);
        assert_eq!(scheduler.finish_execution(1, 0, false), None);
        let v0 = scheduler.finish_execution(0, 0, false).unwrap();
        pass_validation(&scheduler, v0);
        let v1 = claim(&scheduler);
        pass_validation(&scheduler, v1);
        // Fully executed and validated, but the gate holds everything back:
        // nothing commits and the done marker stays down (chained workers must
        // keep serving this block's tasks).
        assert_eq!(scheduler.committed_prefix(), 0);
        assert!(!scheduler.done());
        assert_eq!(scheduler.status_of(0), TxnStatus::Validated);
        // Opening the gate re-attempts the ladder: the validated prefix commits
        // without any further validation event.
        scheduler.set_commit_gate(true);
        assert_eq!(scheduler.committed_prefix(), 2);
        assert!(scheduler.done());
    }

    #[test]
    fn gate_open_after_full_revalidation_rejects_stale_validations() {
        // The chain protocol: sweep *then* open. Validations that predate the
        // sweep must not commit, even though they passed.
        let scheduler = Scheduler::new(2);
        scheduler.set_commit_gate(false);
        let _e0 = claim(&scheduler);
        let _e1 = claim(&scheduler);
        assert_eq!(scheduler.finish_execution(1, 0, false), None);
        let v0 = scheduler.finish_execution(0, 0, false).unwrap();
        pass_validation(&scheduler, v0);
        let v1 = claim(&scheduler);
        pass_validation(&scheduler, v1);
        // Frontier froze: start the mandatory fresh wave, then open the gate.
        let wave = scheduler.trigger_full_revalidation();
        assert!(wave >= 1);
        scheduler.set_commit_gate(true);
        assert_eq!(
            scheduler.committed_prefix(),
            0,
            "wave-stale validations must not commit after the sweep"
        );
        // Only validations claimed at (or after) the sweep's wave commit.
        let v0_fresh = claim(&scheduler);
        assert_eq!(v0_fresh, Task::validation(Version::new(0, 0), wave));
        pass_validation(&scheduler, v0_fresh);
        assert_eq!(scheduler.committed_prefix(), 1);
        let v1_fresh = claim(&scheduler);
        assert_eq!(v1_fresh, Task::validation(Version::new(1, 0), wave));
        pass_validation(&scheduler, v1_fresh);
        assert_eq!(scheduler.committed_prefix(), 2);
        assert!(scheduler.done());
    }

    #[test]
    fn reset_reopens_the_commit_gate() {
        let mut scheduler = Scheduler::new(1);
        scheduler.set_commit_gate(false);
        scheduler.reset(1);
        assert!(scheduler.commit_gate_open());
    }

    #[test]
    fn add_dependency_registers_and_resumes() {
        let scheduler = Scheduler::new(3);
        let e0 = claim(&scheduler);
        let e1 = claim(&scheduler);
        let e2 = claim(&scheduler);
        assert!(e0.is_execution() && e1.is_execution() && e2.is_execution());
        // txn2 discovers a dependency on txn0 (still executing): must register.
        assert!(scheduler.add_dependency(2, 0));
        assert_eq!(scheduler.status_of(2), TxnStatus::Aborting);
        // txn0 finishes: txn2 must be resumed with incarnation 1. txn0's own
        // (re-)validation comes straight back because the cursor had run past it.
        let v0 = scheduler
            .finish_execution(0, 0, true)
            .expect("validation handed back");
        assert_eq!(scheduler.status_of(2), TxnStatus::ReadyToExecute);
        assert_eq!(scheduler.incarnation_of(2), 1);
        // txn1 finishes too (the cursor was lowered to 1, so nothing is handed back).
        assert_eq!(scheduler.finish_execution(1, 0, true), None);
        // Remaining work completes: validations of 0 and 1, then execution of 2, etc.
        let mut pending: Option<Task> = Some(v0);
        let mut guard = 0;
        let mut executed_txn2_again = false;
        while !scheduler.done() {
            guard += 1;
            assert!(guard < 100);
            let task = pending.take().or_else(|| scheduler.next_task());
            let Some(task) = task else { continue };
            match task.kind {
                TaskKind::Execution => {
                    if task.version.txn_idx == 2 {
                        executed_txn2_again = true;
                        assert_eq!(task.version.incarnation, 1);
                    }
                    pending = scheduler.finish_execution(
                        task.version.txn_idx,
                        task.version.incarnation,
                        false,
                    );
                }
                TaskKind::Validation => {
                    pending = pass_validation(&scheduler, task);
                }
            }
        }
        assert!(executed_txn2_again);
        assert_eq!(scheduler.committed_prefix(), 3);
    }

    #[test]
    fn add_dependency_refuses_committed_blockers() {
        // Regression: a committed blocker never calls finish_execution again, so
        // registering a dependency on it would park the caller forever. The §3.3
        // race check must treat Committed (not just Executed/Validated) as
        // "writes are in place — re-execute immediately".
        let scheduler = Scheduler::new(2);
        let _e0 = claim(&scheduler);
        let e1 = claim(&scheduler);
        assert_eq!(e1, Task::execution(Version::new(1, 0)));
        // txn 0 executes, validates and commits while txn 1 is still executing.
        let v0 = scheduler.finish_execution(0, 0, false).unwrap();
        pass_validation(&scheduler, v0);
        assert_eq!(scheduler.status_of(0), TxnStatus::Committed);
        // txn 1 read txn 0's ESTIMATE earlier and only now reports the dependency:
        // it must be refused (caller re-executes), not registered.
        assert!(!scheduler.add_dependency(1, 0));
        assert_eq!(scheduler.status_of(1), TxnStatus::Executing);
        scheduler.finish_execution(1, 0, false);
    }

    #[test]
    fn add_dependency_detects_race_with_finished_blocking_txn() {
        let scheduler = Scheduler::new(2);
        let e0 = claim(&scheduler);
        let e1 = claim(&scheduler);
        assert!(e0.is_execution() && e1.is_execution());
        // txn0 finishes before txn1 can register its dependency.
        scheduler.finish_execution(0, 0, true);
        assert!(!scheduler.add_dependency(1, 0));
        // txn1 is still executing and can finish normally.
        assert_eq!(scheduler.status_of(1), TxnStatus::Executing);
        scheduler.finish_execution(1, 0, true);
    }

    #[test]
    fn dependency_wake_cycles_reuse_the_drained_vector() {
        // Satellite: resume_dependencies/add_dependency must not allocate a fresh
        // Vec per wake cycle in steady state. The drained buffer is handed back to
        // its slot after the wake, so after the first cycle the capacity is stable
        // and non-zero across arbitrarily many cycles (and survives reset()).
        let mut scheduler = Scheduler::new(2);
        assert_eq!(scheduler.dependency_capacity(0), 0);
        let mut stable_capacity = None;
        for cycle in 0..50 {
            let e0 = claim(&scheduler);
            assert_eq!(e0.version.txn_idx, 0, "cycle {cycle}");
            let e1 = claim(&scheduler);
            assert_eq!(e1.version.txn_idx, 1, "cycle {cycle}");
            assert!(scheduler.add_dependency(1, 0));
            // Waking txn 1 drains the dependency list and must return the buffer.
            let followup = scheduler.finish_execution(0, 0, true);
            let capacity = scheduler.dependency_capacity(0);
            assert!(capacity > 0, "buffer was not returned on cycle {cycle}");
            match stable_capacity {
                None => stable_capacity = Some(capacity),
                Some(expected) => assert_eq!(
                    capacity, expected,
                    "steady-state capacity changed on cycle {cycle}"
                ),
            }
            // Unwind the block: validate txn 0, execute + validate txn 1, then
            // reset for the next cycle.
            let mut pending = followup;
            let mut guard = 0;
            while !scheduler.done() {
                guard += 1;
                assert!(guard < 100);
                let Some(task) = pending.take().or_else(|| scheduler.next_task()) else {
                    continue;
                };
                pending = match task.kind {
                    TaskKind::Execution => scheduler.finish_execution(
                        task.version.txn_idx,
                        task.version.incarnation,
                        false,
                    ),
                    TaskKind::Validation => pass_validation(&scheduler, task),
                };
            }
            scheduler.reset(2);
            // reset() clears the lists but keeps their buffers.
            assert_eq!(
                scheduler.dependency_capacity(0),
                stable_capacity.unwrap(),
                "reset dropped the dependency buffer on cycle {cycle}"
            );
        }
    }

    #[test]
    fn try_validation_abort_rejects_stale_incarnations() {
        let scheduler = Scheduler::new(1);
        let e0 = claim(&scheduler);
        assert!(e0.is_execution());
        scheduler.finish_execution(0, 0, true);
        // Wrong incarnation number: no abort.
        assert!(!scheduler.try_validation_abort(0, 1));
        // Correct incarnation: abort succeeds exactly once.
        assert!(scheduler.try_validation_abort(0, 0));
        assert!(!scheduler.try_validation_abort(0, 0));
    }

    #[test]
    fn multithreaded_happy_path_executes_every_txn_exactly_once() {
        let n = 200;
        let scheduler = Arc::new(Scheduler::new(n));
        let executions = Arc::new(Mutex::new(HashMap::<usize, usize>::new()));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let scheduler = Arc::clone(&scheduler);
                let executions = Arc::clone(&executions);
                std::thread::spawn(move || {
                    let mut task: Option<Task> = None;
                    while !scheduler.done() {
                        match task.take() {
                            Some(t) if t.is_execution() => {
                                *executions.lock().entry(t.version.txn_idx).or_insert(0) += 1;
                                task = scheduler.finish_execution(
                                    t.version.txn_idx,
                                    t.version.incarnation,
                                    false,
                                );
                            }
                            Some(t) => {
                                task = scheduler.finish_validation(
                                    t.version.txn_idx,
                                    t.version.incarnation,
                                    t.wave,
                                    false,
                                );
                            }
                            None => {
                                task = scheduler.next_task();
                                if task.is_none() {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                    // Drain a task claimed right before the done marker rose, so the
                    // active-task accounting balances.
                    if let Some(t) = task {
                        if t.is_validation() {
                            scheduler.finish_validation(
                                t.version.txn_idx,
                                t.version.incarnation,
                                t.wave,
                                false,
                            );
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let executions = executions.lock();
        assert_eq!(executions.len(), n);
        assert!(executions.values().all(|&count| count == 1));
        assert_eq!(scheduler.committed_prefix(), n);
    }

    #[test]
    fn status_walks_the_lattice_through_the_public_api() {
        // Drive one transaction through the full lifecycle using only scheduler
        // entry points, asserting the observable status after each step:
        // READY_TO_EXECUTE(0) -> EXECUTING(0) -> EXECUTED(0) -> ABORTING(0)
        // -> READY_TO_EXECUTE(1) -> EXECUTING(1) -> EXECUTED(1) -> VALIDATED(1)
        // -> COMMITTED(1).
        let scheduler = Scheduler::new(1);
        assert_eq!(scheduler.status_of(0), TxnStatus::ReadyToExecute);
        assert_eq!(scheduler.incarnation_of(0), 0);

        let task = claim(&scheduler);
        assert_eq!(task, Task::execution(Version::new(0, 0)));
        assert_eq!(scheduler.status_of(0), TxnStatus::Executing);

        assert!(scheduler.finish_execution(0, 0, true).is_none());
        assert_eq!(scheduler.status_of(0), TxnStatus::Executed);

        // Its validation is claimed through the cursor and fails: only the first
        // abort claim for the incarnation wins.
        let v0 = claim(&scheduler);
        assert_eq!(v0, Task::validation(Version::new(0, 0), 0));
        assert!(scheduler.try_validation_abort(0, 0));
        assert_eq!(scheduler.status_of(0), TxnStatus::Aborting);
        assert!(
            !scheduler.try_validation_abort(0, 0),
            "an incarnation can only be aborted once"
        );

        // finish_validation schedules the re-execution; with the task-return
        // optimization the next incarnation comes straight back.
        let requeued = scheduler.finish_validation(0, 0, v0.wave, true);
        assert_eq!(requeued, Some(Task::execution(Version::new(0, 1))));
        assert_eq!(scheduler.incarnation_of(0), 1);
        assert_eq!(scheduler.status_of(0), TxnStatus::Executing);

        // The second incarnation executes, validates and commits. The validation
        // cursor already ran past the transaction, so its re-validation is handed
        // straight back.
        let v = scheduler
            .finish_execution(0, 1, false)
            .expect("validation handed back");
        assert_eq!(scheduler.status_of(0), TxnStatus::Executed);
        assert_eq!(v, Task::validation(Version::new(0, 1), 0));
        pass_validation(&scheduler, v);
        assert_eq!(scheduler.status_of(0), TxnStatus::Committed);
        assert!(scheduler.done());
    }

    #[test]
    fn add_dependency_aborts_executing_txn_until_blocker_finishes() {
        let scheduler = Scheduler::new(3);
        let e0 = claim(&scheduler);
        let e1 = claim(&scheduler);
        assert_eq!(e0, Task::execution(Version::new(0, 0)));
        assert_eq!(e1, Task::execution(Version::new(1, 0)));

        // txn 1 read an ESTIMATE of txn 0: it suspends (EXECUTING -> ABORTING).
        assert!(scheduler.add_dependency(1, 0));
        assert_eq!(scheduler.status_of(1), TxnStatus::Aborting);

        // When txn 0 finishes, txn 1 is resumed as READY_TO_EXECUTE(1).
        scheduler.finish_execution(0, 0, true);
        assert_eq!(scheduler.status_of(1), TxnStatus::ReadyToExecute);
        assert_eq!(scheduler.incarnation_of(1), 1);

        // Once the blocker has already executed, add_dependency refuses and
        // the caller re-executes immediately (the §3.3 race). Pending
        // validations come first (the cursor prefers the lowest index); drain
        // them until txn 1's re-execution is handed out.
        let e1_again = loop {
            let task = claim(&scheduler);
            match task.kind {
                TaskKind::Validation => {
                    pass_validation(&scheduler, task);
                }
                TaskKind::Execution => break task,
            }
        };
        assert_eq!(e1_again, Task::execution(Version::new(1, 1)));
        assert!(!scheduler.add_dependency(1, 0));
        assert_eq!(scheduler.status_of(1), TxnStatus::Executing);
    }

    /// Drives a scheduler to completion single-threaded, counting executions.
    fn drive_to_completion(scheduler: &Scheduler) -> Vec<usize> {
        let mut executed = vec![0usize; scheduler.block_size()];
        let mut pending: Option<Task> = None;
        let mut steps = 0;
        while !scheduler.done() {
            steps += 1;
            assert!(steps < 10_000, "scheduler did not terminate");
            let Some(task) = pending.take().or_else(|| scheduler.next_task()) else {
                continue;
            };
            pending = match task.kind {
                TaskKind::Execution => {
                    executed[task.version.txn_idx] += 1;
                    scheduler.finish_execution(task.version.txn_idx, task.version.incarnation, true)
                }
                TaskKind::Validation => scheduler.finish_validation(
                    task.version.txn_idx,
                    task.version.incarnation,
                    task.wave,
                    false,
                ),
            };
        }
        executed
    }

    #[test]
    fn check_done_and_commit_ladder_agree_on_termination() {
        // The done marker rises exactly when the committed prefix covers the
        // block: never before, and with every transaction committed and both
        // cursors past the block once it has.
        for n in [1usize, 2, 5, 17] {
            let scheduler = Scheduler::new(n);
            let mut pending: Option<Task> = None;
            let mut steps = 0;
            while !scheduler.done() {
                steps += 1;
                assert!(steps < 10_000, "scheduler did not terminate (n = {n})");
                assert!(scheduler.committed_prefix() < n, "done lags the ladder");
                let Some(task) = pending.take().or_else(|| scheduler.next_task()) else {
                    continue;
                };
                pending = match task.kind {
                    TaskKind::Execution => scheduler.finish_execution(
                        task.version.txn_idx,
                        task.version.incarnation,
                        true,
                    ),
                    TaskKind::Validation => pass_validation(&scheduler, task),
                };
            }
            assert_eq!(pending, None, "no task outlives the block (n = {n})");
            assert_eq!(scheduler.committed_prefix(), n);
            assert_eq!(scheduler.execution_cursor(), n);
            assert!(scheduler.validation_cursor().0 >= n);
            for txn_idx in 0..n {
                assert_eq!(scheduler.status_of(txn_idx), TxnStatus::Committed);
            }
            assert!(!scheduler.halted());
        }
    }

    #[test]
    fn reset_rearms_for_a_new_block_reusing_arrays() {
        let mut scheduler = Scheduler::new(3);
        let executed = drive_to_completion(&scheduler);
        assert!(executed.iter().all(|&count| count == 1));
        assert!(scheduler.done());
        assert_eq!(scheduler.committed_prefix(), 3);

        // Same size: statuses, cursors, commit ladder and the done marker all re-arm.
        scheduler.reset(3);
        assert!(!scheduler.done());
        assert_eq!(scheduler.execution_cursor(), 0);
        assert_eq!(scheduler.committed_prefix(), 0);
        for txn_idx in 0..3 {
            assert_eq!(scheduler.status_of(txn_idx), TxnStatus::ReadyToExecute);
            assert_eq!(scheduler.incarnation_of(txn_idx), 0);
        }
        let executed = drive_to_completion(&scheduler);
        assert!(executed.iter().all(|&count| count == 1));

        // Growing and shrinking across resets works too.
        scheduler.reset(7);
        assert_eq!(scheduler.block_size(), 7);
        assert_eq!(drive_to_completion(&scheduler).len(), 7);
        assert_eq!(scheduler.committed_prefix(), 7);
        scheduler.reset(1);
        assert_eq!(scheduler.block_size(), 1);
        assert_eq!(drive_to_completion(&scheduler), vec![1]);
    }

    #[test]
    fn halt_releases_the_run_loop_and_freezes_the_ladder() {
        let scheduler = Scheduler::new(100);
        let _claimed = claim(&scheduler);
        assert!(!scheduler.done());
        scheduler.halt();
        assert!(scheduler.done());
        assert!(scheduler.halted());
        // The committed prefix stays where the halt found it.
        assert_eq!(scheduler.committed_prefix(), 0);
        // After a reset, the scheduler is fully usable again.
        let mut scheduler = scheduler;
        scheduler.reset(2);
        assert!(!scheduler.done());
        assert!(!scheduler.halted());
        assert!(drive_to_completion(&scheduler).iter().all(|&c| c == 1));
    }

    #[test]
    fn halt_mid_block_keeps_the_committed_prefix() {
        let scheduler = Scheduler::new(3);
        let _e0 = claim(&scheduler);
        let _e1 = claim(&scheduler);
        let v0 = scheduler.finish_execution(0, 0, false).unwrap();
        pass_validation(&scheduler, v0);
        assert_eq!(scheduler.committed_prefix(), 1);
        scheduler.halt();
        assert!(scheduler.done());
        // Committed prefix survives the halt; nothing further commits.
        assert_eq!(scheduler.committed_prefix(), 1);
        assert_eq!(scheduler.status_of(0), TxnStatus::Committed);
    }

    #[test]
    fn multithreaded_with_random_aborts_commits_every_txn() {
        // Validations randomly abort (once per incarnation, bounded by a per-txn cap)
        // to exercise the re-execution, re-validation and commit-ladder paths under
        // concurrency.
        let n = 120;
        let scheduler = Arc::new(Scheduler::new(n));
        let abort_budget: Arc<Vec<PaddedAtomicUsize>> =
            Arc::new((0..n).map(|_| PaddedAtomicUsize::new(2)).collect());
        let threads: Vec<_> = (0..8)
            .map(|seed| {
                let scheduler = Arc::clone(&scheduler);
                let abort_budget = Arc::clone(&abort_budget);
                std::thread::spawn(move || {
                    let mut rng_state: u64 = 0x1234_5678 + seed as u64;
                    let mut task: Option<Task> = None;
                    while !scheduler.done() {
                        match task.take() {
                            Some(t) if t.is_execution() => {
                                task = scheduler.finish_execution(
                                    t.version.txn_idx,
                                    t.version.incarnation,
                                    (t.version.txn_idx + t.version.incarnation) % 3 == 0,
                                );
                            }
                            Some(t) => {
                                rng_state ^= rng_state << 13;
                                rng_state ^= rng_state >> 7;
                                rng_state ^= rng_state << 17;
                                let idx = t.version.txn_idx;
                                let want_abort =
                                    rng_state.is_multiple_of(4) && abort_budget[idx].load() > 0;
                                let aborted = want_abort
                                    && scheduler.try_validation_abort(idx, t.version.incarnation);
                                if aborted {
                                    abort_budget[idx].decrement();
                                }
                                task = scheduler.finish_validation(
                                    idx,
                                    t.version.incarnation,
                                    t.wave,
                                    aborted,
                                );
                            }
                            None => {
                                task = scheduler.next_task();
                                if task.is_none() {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert!(scheduler.done());
        assert_eq!(scheduler.committed_prefix(), n);
        // Every transaction must have finished in the COMMITTED state.
        for txn_idx in 0..n {
            assert_eq!(scheduler.status_of(txn_idx), TxnStatus::Committed);
        }
    }

    #[test]
    fn initial_order_dispenses_executions_in_hinted_order() {
        let mut scheduler = Scheduler::new(4);
        scheduler.set_initial_order(vec![2, 0, 3, 1]);
        let claimed: Vec<usize> = (0..4).map(|_| claim(&scheduler).version.txn_idx).collect();
        assert_eq!(claimed, vec![2, 0, 3, 1]);
    }

    #[test]
    fn initial_order_block_completes_and_commits_in_preset_order() {
        // Run the single-threaded drive loop under a reversed initial order:
        // the block must still commit 0..n in preset order.
        let n = 6;
        let mut scheduler = Scheduler::new(n);
        scheduler.set_initial_order((0..n).rev().collect());
        let executed = drive_to_completion(&scheduler);
        assert!(executed.iter().all(|&count| count == 1));
        assert_eq!(scheduler.committed_prefix(), n);
        for txn_idx in 0..n {
            assert_eq!(scheduler.status_of(txn_idx), TxnStatus::Committed);
        }
    }

    #[test]
    fn reset_clears_the_initial_order() {
        let mut scheduler = Scheduler::new(3);
        scheduler.set_initial_order(vec![2, 1, 0]);
        scheduler.reset(3);
        let claimed: Vec<usize> = (0..3).map(|_| claim(&scheduler).version.txn_idx).collect();
        assert_eq!(claimed, vec![0, 1, 2], "reset restores index order");
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn initial_order_rejects_non_permutations() {
        let mut scheduler = Scheduler::new(3);
        scheduler.set_initial_order(vec![0, 0, 1]);
    }

    #[test]
    fn preregistered_dependency_parks_until_blocker_finishes() {
        let mut scheduler = Scheduler::new(3);
        assert!(scheduler.preregister_dependency(2, 0));
        // Only one pre-dependency per transaction: the second refuses.
        assert!(!scheduler.preregister_dependency(2, 1));
        // txn 2 is parked: the dispenser skips it (claims 0 then 1, never 2).
        let e0 = claim(&scheduler);
        let e1 = claim(&scheduler);
        assert_eq!(e0.version.txn_idx, 0);
        assert_eq!(e1.version.txn_idx, 1);
        assert_eq!(scheduler.status_of(2), TxnStatus::Aborting);
        // The blocker finishing execution wakes txn 2 through the ordinary
        // resume path, at incarnation 1.
        scheduler.finish_execution(0, 0, false);
        assert_eq!(scheduler.status_of(2), TxnStatus::ReadyToExecute);
        assert_eq!(scheduler.incarnation_of(2), 1);
        let woken = claim(&scheduler);
        assert!(woken.is_execution());
        assert_eq!(woken.version, Version::new(2, 1));
    }

    #[test]
    fn preregistration_composes_with_initial_order_under_concurrency() {
        // A dependency chain pre-registered on top of a reversed initial order,
        // driven by 4 threads: every transaction still commits exactly once in
        // preset order. This is the hinted configuration the core engine uses.
        let n = 64;
        let mut scheduler = Scheduler::new(n);
        scheduler.set_initial_order((0..n).rev().collect());
        for txn_idx in (1..n).step_by(2) {
            assert!(scheduler.preregister_dependency(txn_idx, txn_idx - 1));
        }
        let scheduler = Arc::new(scheduler);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let scheduler = Arc::clone(&scheduler);
                std::thread::spawn(move || {
                    let mut task: Option<Task> = None;
                    while !scheduler.done() {
                        match task.take() {
                            Some(t) if t.is_execution() => {
                                task = scheduler.finish_execution(
                                    t.version.txn_idx,
                                    t.version.incarnation,
                                    false,
                                );
                            }
                            Some(t) => {
                                task = scheduler.finish_validation(
                                    t.version.txn_idx,
                                    t.version.incarnation,
                                    t.wave,
                                    false,
                                );
                            }
                            None => {
                                task = scheduler.next_task();
                                if task.is_none() {
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(scheduler.committed_prefix(), n);
        for txn_idx in 0..n {
            assert_eq!(scheduler.status_of(txn_idx), TxnStatus::Committed);
        }
    }
}
