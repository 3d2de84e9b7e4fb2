//! Concurrency substrate for the Block-STM reproduction.
//!
//! The production Block-STM implementation inside `aptos-core` relies on a handful of
//! low-level concurrency building blocks: cache-padded atomic counters (to avoid false
//! sharing between the scheduler's hot counters) and a concurrent hash map over access
//! paths (the `data` map of the `MVMemory` module).
//!
//! This crate provides those building blocks from scratch, on top of `std::sync::atomic`
//! and `parking_lot` locks only. Everything here is safe Rust **except** one audited
//! `unsafe` module: [`worker_pool`] (the lifetime erasure every persistent scoped
//! thread pool — rayon, crossbeam — needs to run borrowed jobs on long-lived
//! threads), which carries its own soundness argument.
//!
//! Modules:
//!
//! * [`padded`] — [`CachePadded`](padded::CachePadded) wrapper and padded atomic counters.
//! * [`fxhash`] — [`FxBuildHasher`](fxhash::FxBuildHasher), the fast multiply-xor
//!   hasher used for shard selection and the per-worker location caches.
//! * [`sharded_map`] — [`ShardedMap`](sharded_map::ShardedMap), a lock-sharded hash map
//!   used by `MVMemory` as the concurrent map over access paths (interning only on
//!   the current hot path; steady-state accesses go through per-worker caches).
//! * [`backoff`] — [`Backoff`](backoff::Backoff), exponential spin/yield backoff for
//!   bounded busy-waiting (used by the Bohm baseline when a read blocks on a
//!   not-yet-produced version).
//! * [`min_counter`] — [`AtomicMinCounter`](min_counter::AtomicMinCounter), an atomic
//!   counter supporting `fetch_add` and decrease-to-minimum, the primitive behind the
//!   scheduler's `execution_idx` / `validation_idx`.
//! * [`worker_pool`] — [`WorkerPool`](worker_pool::WorkerPool), a persistent pool of
//!   parked worker threads that executes one borrowed job per block (the thread pool
//!   behind the `BlockStm` engine).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod fxhash;
pub mod min_counter;
pub mod padded;
pub mod sharded_map;
pub mod worker_pool;

pub use backoff::Backoff;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use min_counter::AtomicMinCounter;
pub use padded::{CachePadded, PaddedAtomicBool, PaddedAtomicU64, PaddedAtomicUsize};
pub use sharded_map::ShardedMap;
pub use worker_pool::{JobPanics, WorkerPool};
