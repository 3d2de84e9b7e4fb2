//! The Block-STM collaborative scheduler (Algorithms 4 and 5 of the paper) with a
//! **rolling commit ladder**.
//!
//! # Task dispensing (Algorithms 4–5)
//!
//! The scheduler coordinates execution and validation tasks among worker threads while
//! preserving the preset serialization order. Conceptually it maintains two ordered
//! sets — pending *executions* `E` and pending *validations* `V` — and always hands a
//! thread the task with the smallest transaction index. Because concurrent priority
//! queues are hard to scale, both ordered sets are realized as a single atomic counter
//! (`execution_idx` / `validation_idx`) combined with a per-transaction status array:
//! a thread claims an index with `fetch_and_increment` and then checks whether that
//! transaction actually has a ready task; adding a task for transaction `i` lowers the
//! counter back to `i`.
//!
//! # The status lattice
//!
//! Each transaction's current incarnation walks this lattice (the paper's Figure 2
//! extended with the two commit states):
//!
//! ```text
//!                      (read hit an ESTIMATE)
//!          +--------------- ABORTING(i) <--------------------+
//!          |                   ^      ^                      |
//!          v                   |      | (validation failed)  |
//!  READY_TO_EXECUTE(i+1)       |      |                      |
//!                              |      |                      |
//!  READY_TO_EXECUTE(i) --> EXECUTING(i) --> EXECUTED(i) --> VALIDATED(i)
//!                                                                |
//!                                             (lowest uncommitted, fresh wave)
//!                                                                v
//!                                                          COMMITTED(i)   [terminal]
//! ```
//!
//! `VALIDATED` records that a validation of the current incarnation passed (at a
//! particular *wave*, see below); `COMMITTED` is terminal — a committed transaction is
//! permanently exempt from re-validation and re-execution, its output is final, and
//! its multi-version entries can be frozen for direct reads.
//!
//! # The commit ladder
//!
//! Instead of the block "finishing" only when the paper's double-collect `check_done`
//! fires, a `commit` cursor walks the block front to back: whenever the lowest
//! uncommitted transaction holds a sufficiently fresh passing validation, it is
//! committed and the cursor advances ([`Scheduler::committed_prefix`]). Block
//! completion is *derived* from the ladder — `done()` rises exactly when
//! `committed_prefix() == block_size()` — and downstream consumers can stream the
//! committed prefix while the tail of the block still speculates.
//!
//! ## Waves
//!
//! The validation cursor is packed as `(wave, index)`: every decrease of the cursor
//! starts a new **wave**, and a claimed validation task is stamped with the wave it
//! was claimed at. The per-transaction bookkeeping records
//!
//! * `max_triggered_wave` — the newest wave whose sweep claimed this transaction,
//! * `required_wave` — the wave of the validation task last handed directly back by
//!   `finish_execution` (the cursor never revisits the transaction for it), and
//! * `validated_wave` — the newest wave at which a validation of the current
//!   incarnation passed (cleared on abort).
//!
//! ## Safety argument (why committing is sound)
//!
//! Transaction `k` commits only when, atomically under its status lock:
//!
//! 1. `status == VALIDATED` with `validated_wave = Some(w_V)` (a validation of the
//!    *current* incarnation passed; aborts clear the field),
//! 2. `w_V >= max(max_triggered_wave, required_wave)`, and
//! 3. the validation cursor `(idx, wave)` satisfies `idx > k || wave <= w_V`.
//!
//! Every event that can invalidate `k`'s reads — a lower transaction aborting (its
//! writes become ESTIMATEs) or re-executing (new versions, possibly at new locations)
//! — is followed, before the responsible thread does anything else, by a cursor
//! decrease to a target `<= k`, creating a fresh wave `w`. The decrease is a SeqCst
//! RMW on the cursor, and the invalidating stores happen before it; therefore any
//! validation *claimed at wave `>= w`* observes the event when it re-reads, and
//! cannot pass while `k`'s recorded reads are stale. So a *passing* validation at
//! wave `>= w` certifies freshness with respect to every invalidation up to `w`.
//!
//! Now suppose `k` satisfies 1–3 but some invalidating decrease `D` (target `<= k`,
//! wave `w > w_V`) exists. By 3, either the cursor's wave is `<= w_V < w` —
//! impossible, waves are monotone — or the cursor index is past `k`, so after `D`
//! the cursor swept from `D`'s target up through `k` and *claimed* index `k` at some
//! wave `>= w`. If `k` was validatable at that claim, `max_triggered_wave >= w > w_V`
//! contradicts 2. If it was not, `k`'s current incarnation finished executing only
//! after that sweep passed, so its `finish_execution` either saw the cursor above `k`
//! and stamped `required_wave >= w` (contradicting 2), or saw it at or below `k` —
//! lowered again by a later decrease — and the re-sweep that must then pass `k`
//! re-enters the previous cases. Hence no such `D` exists, `w_V`
//! certifies freshness against every invalidation, and since the ladder commits in
//! index order, all lower transactions are already committed and can never create new
//! invalidations: `k`'s reads equal the final committed state. ∎
//!
//! Liveness: the cursor only moves forward between decreases, idle workers keep
//! claiming until it passes the block, and every claim either produces a validation
//! (whose completion raises `validated_wave` to the claim's wave) or proves the
//! transaction is mid-transition (whose completion schedules a fresh validation); the
//! ladder therefore always advances eventually. The ladder is the only completion
//! mechanism: the paper's double collect (`decrease_cnt` plus `num_active_tasks`,
//! Theorem 1) is not implemented, so no task pays for an active-task counter.
//!
//! # Chained execution: the commit gate and the cross-block frontier
//!
//! `BlockStm::execute_chain` (in `block-stm-core`) runs a *stream* of blocks on
//! one worker pool: block `N+1` starts speculating while block `N` is still
//! committing. Two scheduler primitives make that safe:
//!
//! * [`Scheduler::set_commit_gate`] — while the gate is closed, the commit ladder
//!   is frozen: tasks are dispensed normally (the block executes and validates at
//!   full speed) but nothing commits and `done()` stays down.
//! * [`Scheduler::trigger_full_revalidation`] — lowers the validation cursor to 0,
//!   starting a fresh wave that covers the whole block.
//!
//! ## Chain-serializability safety argument
//!
//! Claim: the concatenated committed output stream of the chain equals a
//! sequential execution of the concatenated blocks.
//!
//! Block `N+1` reads locations its own multi-version map cannot serve from the
//! **frontier overlay** — the committed writes of blocks `<= N`, published in
//! commit order by the predecessor's drain — falling through to the immutable
//! pre-chain storage below it. Such a read records a *stamped* frontier
//! descriptor (`ReadOrigin::Frontier` in `block-stm-mvmemory`): the overlay
//! assigns every published key a fresh stamp from a monotone counter, and
//! validation passes only if the key still carries exactly the observed stamp.
//! Stamps are unique per publication and keys are never removed, so **stamp
//! equality implies the read observed the value a fresh read would observe**.
//!
//! The gate turns that per-read check into a commit-time guarantee. The
//! protocol is: block `N+1`'s gate stays closed while block `N` runs; when
//! block `N` has fully committed (the overlay now holds the final frontier for
//! `N+1`), the chain executor first calls `trigger_full_revalidation` on
//! `N+1` and only then opens its gate. Consider any transaction `k` of `N+1`
//! that commits. By commit rule 2 above, `validated_wave >= max_triggered_wave`,
//! and the pre-open sweep raised `max_triggered_wave` (or `required_wave`, by
//! the same case analysis as the ladder argument) for every transaction to at
//! least the sweep's wave — so the validation backing `k`'s commit was *claimed
//! at or after the sweep*, i.e. it re-checked `k`'s frontier stamps strictly
//! after the overlay froze. A passing check against the frozen overlay means
//! `k` read exactly the final committed state of blocks `<= N`; the ladder
//! argument above then gives, by induction over blocks, that `k`'s reads equal
//! the state a sequential execution of the concatenated blocks would present.
//! Publications *during* block `N`'s drain can additionally trigger
//! intermediate sweeps — that is purely a liveness/performance measure (it
//! re-executes doomed speculation early); soundness needs only the final,
//! mandatory sweep-then-open ordering. ∎
//!
//! The public API mirrors the paper's function names one-to-one so the correctness
//! argument of Appendix A maps directly onto this code:
//! [`Scheduler::next_task`], [`Scheduler::add_dependency`],
//! [`Scheduler::finish_execution`], [`Scheduler::try_validation_abort`],
//! [`Scheduler::finish_validation`], [`Scheduler::done`] — plus the ladder's
//! [`Scheduler::committed_prefix`] and [`Scheduler::halt`] (early halt at a committed
//! boundary).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scheduler;
mod status;
mod task;

pub use scheduler::Scheduler;
pub use status::TxnStatus;
pub use task::{Task, TaskKind, Wave};
