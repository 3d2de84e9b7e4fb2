//! Cache-line padding to avoid false sharing.
//!
//! The Block-STM scheduler keeps several very hot atomics (`execution_idx`,
//! `validation_idx`, the commit watermark and done marker) that are touched by every
//! worker thread. Placing them on the same cache line would serialize those updates
//! through cache-coherence traffic; the paper explicitly mentions using "the standard
//! cache padding technique to mitigate false sharing" (§4). [`CachePadded`] aligns its
//! contents to a 128-byte boundary (two 64-byte lines, matching the prefetcher pair on
//! most x86-64 and Apple silicon parts) and pads the value out to that size.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Pads and aligns a value to 128 bytes so that two [`CachePadded`] values never share
/// a cache line (nor a spatial-prefetch pair of lines).
#[derive(Default, Debug)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line padded cell.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consumes the wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        Self::new(self.value.clone())
    }
}

/// A cache-padded `AtomicUsize` with convenience accessors.
///
/// All operations use [`Ordering::SeqCst`]: the scheduler's commit-ladder safety
/// argument is stated under sequential consistency, which keeps it easy to check.
/// The cost is negligible relative to transaction execution.
#[derive(Default, Debug)]
pub struct PaddedAtomicUsize {
    inner: CachePadded<AtomicUsize>,
}

impl PaddedAtomicUsize {
    /// Creates a counter with the given initial value.
    pub const fn new(value: usize) -> Self {
        Self {
            inner: CachePadded::new(AtomicUsize::new(value)),
        }
    }

    /// Loads the current value.
    pub fn load(&self) -> usize {
        self.inner.load(Ordering::SeqCst)
    }

    /// Stores a new value.
    pub fn store(&self, value: usize) {
        self.inner.store(value, Ordering::SeqCst);
    }

    /// Atomically adds `delta` and returns the previous value.
    pub fn fetch_add(&self, delta: usize) -> usize {
        self.inner.fetch_add(delta, Ordering::SeqCst)
    }

    /// Atomically subtracts `delta` and returns the previous value.
    ///
    /// # Panics
    /// Panics in debug builds if the counter would underflow (this indicates a
    /// counter accounting bug, e.g. decrementing the same count twice).
    pub fn fetch_sub(&self, delta: usize) -> usize {
        let prev = self.inner.fetch_sub(delta, Ordering::SeqCst);
        debug_assert!(prev >= delta, "atomic counter underflow: {prev} - {delta}");
        prev
    }

    /// Atomically increments and returns the previous value.
    pub fn increment(&self) -> usize {
        self.fetch_add(1)
    }

    /// Atomically decrements and returns the previous value.
    pub fn decrement(&self) -> usize {
        self.fetch_sub(1)
    }

    /// Atomically lowers the value to `min(current, target)` and returns the value
    /// observed before the operation.
    pub fn fetch_min(&self, target: usize) -> usize {
        self.inner.fetch_min(target, Ordering::SeqCst)
    }

    /// Exposes the raw atomic for callers that need compare-exchange loops.
    pub fn raw(&self) -> &AtomicUsize {
        &self.inner
    }
}

/// A cache-padded `AtomicU64` counter (used by the metrics crate).
#[derive(Default, Debug)]
pub struct PaddedAtomicU64 {
    inner: CachePadded<AtomicU64>,
}

impl PaddedAtomicU64 {
    /// Creates a counter with the given initial value.
    pub const fn new(value: u64) -> Self {
        Self {
            inner: CachePadded::new(AtomicU64::new(value)),
        }
    }

    /// Loads the current value (relaxed: metrics do not order other memory accesses).
    pub fn load(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }

    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.inner.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn increment(&self) {
        self.add(1);
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.inner.store(0, Ordering::Relaxed);
    }

    /// Stores the maximum of the current value and `value`.
    pub fn fetch_max(&self, value: u64) {
        self.inner.fetch_max(value, Ordering::Relaxed);
    }
}

/// A cache-padded `AtomicBool` (the scheduler's `done_marker`).
#[derive(Default, Debug)]
pub struct PaddedAtomicBool {
    inner: CachePadded<AtomicBool>,
}

impl PaddedAtomicBool {
    /// Creates a flag with the given initial value.
    pub const fn new(value: bool) -> Self {
        Self {
            inner: CachePadded::new(AtomicBool::new(value)),
        }
    }

    /// Loads the current value.
    pub fn load(&self) -> bool {
        self.inner.load(Ordering::SeqCst)
    }

    /// Stores a new value.
    pub fn store(&self, value: bool) {
        self.inner.store(value, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cache_padded_is_at_least_128_bytes_and_aligned() {
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    }

    #[test]
    fn cache_padded_deref_roundtrip() {
        let mut cell = CachePadded::new(41u32);
        *cell += 1;
        assert_eq!(*cell, 42);
        assert_eq!(cell.into_inner(), 42);
    }

    #[test]
    fn padded_usize_basic_ops() {
        let counter = PaddedAtomicUsize::new(10);
        assert_eq!(counter.load(), 10);
        assert_eq!(counter.increment(), 10);
        assert_eq!(counter.decrement(), 11);
        assert_eq!(counter.fetch_add(5), 10);
        assert_eq!(counter.fetch_sub(3), 15);
        assert_eq!(counter.load(), 12);
        counter.store(100);
        assert_eq!(counter.load(), 100);
    }

    #[test]
    fn padded_usize_fetch_min_only_lowers() {
        let counter = PaddedAtomicUsize::new(10);
        assert_eq!(counter.fetch_min(5), 10);
        assert_eq!(counter.load(), 5);
        assert_eq!(counter.fetch_min(8), 5);
        assert_eq!(counter.load(), 5);
    }

    #[test]
    fn padded_bool_store_load() {
        let flag = PaddedAtomicBool::new(false);
        assert!(!flag.load());
        flag.store(true);
        assert!(flag.load());
    }

    #[test]
    fn padded_u64_metrics_ops() {
        let counter = PaddedAtomicU64::new(0);
        counter.increment();
        counter.add(9);
        assert_eq!(counter.load(), 10);
        counter.fetch_max(5);
        assert_eq!(counter.load(), 10);
        counter.fetch_max(25);
        assert_eq!(counter.load(), 25);
        counter.reset();
        assert_eq!(counter.load(), 0);
    }

    #[test]
    fn padded_usize_concurrent_increments_are_not_lost() {
        let counter = Arc::new(PaddedAtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        counter.increment();
                    }
                })
            })
            .collect();
        for handle in threads {
            handle.join().unwrap();
        }
        assert_eq!(counter.load(), 80_000);
    }
}
