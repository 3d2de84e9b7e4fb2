//! Read-set descriptors.

use crate::interner::LocationId;
use block_stm_vm::{DeltaOp, Version};

/// Where a speculative read obtained its value from.
///
/// The paper stores, per read, "the version of the transaction (during the execution
/// of which the value was written), or ⊥ if the value was read from storage"
/// (§3.1.2). Validation compares these descriptors against a fresh read.
///
/// The two delta-aware origins deliberately validate something *weaker* than an
/// exact version — that weakening is what makes commutative writes commute:
///
/// * [`ReadOrigin::Resolved`] records the **sum** a delta chain resolved to;
///   validation passes as long as a fresh resolution yields the same sum, no
///   matter which (re-)ordering of lower deltas produced it.
/// * [`ReadOrigin::DeltaProbe`] records only the **bounds predicate** of one
///   delta application; validation passes as long as the application would
///   still succeed (or still fail) against the fresh base — the base value
///   itself is free to change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    /// The value was written by the given version (transaction index, incarnation).
    MultiVersion(Version),
    /// The value (or absence of one) came from pre-block storage — the ⊥ descriptor.
    Storage,
    /// The value was resolved through a delta chain; validation re-resolves and
    /// compares the accumulated sum (not the versions along the chain).
    Resolved {
        /// The resolved aggregator value observed by the read.
        accumulated: u128,
    },
    /// A delta application's speculative bounds probe; validation re-resolves
    /// the base and compares the predicate outcome.
    DeltaProbe {
        /// The transaction's own cumulative delta on the location before this
        /// application.
        prior: i128,
        /// The applied op (delta and bound).
        op: DeltaOp,
        /// Whether the application was in bounds when probed.
        in_bounds: bool,
    },
    /// Chained execution: the read fell through the multi-version map to the
    /// **cross-block frontier overlay** (the committed writes of predecessor
    /// blocks, see [`FrontierOverlay`](crate::FrontierOverlay)). Unlike
    /// [`ReadOrigin::Storage`], the frontier *can* change while the reader's
    /// block speculates — the predecessor block is still committing — so the
    /// descriptor records the overlay's per-key publication stamp and
    /// validation re-checks that the key still carries exactly that stamp
    /// (stamps are unique per publication, so stamp equality implies value
    /// equality). `stamp == 0` means the key was absent from the overlay and
    /// the read bottomed out in immutable pre-chain storage.
    Frontier {
        /// The overlay's publication stamp for the key at read time
        /// (0 = absent).
        stamp: u64,
    },
}

/// One entry of an incarnation's read-set: which location was read and what version
/// served it.
///
/// Descriptors produced on the executor's hot path also carry the location's
/// interned [`LocationId`], which lets validation and dependency re-checks resolve
/// the location through the id registry instead of re-hashing the key.
/// Descriptors built by hand (tests, external tooling) default to
/// [`LocationId::UNRESOLVED`] and are validated through the key-lookup fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadDescriptor<K> {
    /// The location read.
    pub key: K,
    /// The interned id of `key`, or [`LocationId::UNRESOLVED`].
    pub id: LocationId,
    /// The observed origin (version or storage).
    pub origin: ReadOrigin,
}

impl<K> ReadDescriptor<K> {
    /// A read served by the multi-version map.
    pub fn from_version(key: K, version: Version) -> Self {
        Self {
            key,
            id: LocationId::UNRESOLVED,
            origin: ReadOrigin::MultiVersion(version),
        }
    }

    /// A read served by (or falling through to) pre-block storage.
    pub fn from_storage(key: K) -> Self {
        Self {
            key,
            id: LocationId::UNRESOLVED,
            origin: ReadOrigin::Storage,
        }
    }

    /// A read resolved through a delta chain to `accumulated`.
    pub fn from_resolved(key: K, accumulated: u128) -> Self {
        Self {
            key,
            id: LocationId::UNRESOLVED,
            origin: ReadOrigin::Resolved { accumulated },
        }
    }

    /// A delta application's bounds probe and its observed outcome.
    pub fn from_delta_probe(key: K, prior: i128, op: DeltaOp, in_bounds: bool) -> Self {
        Self {
            key,
            id: LocationId::UNRESOLVED,
            origin: ReadOrigin::DeltaProbe {
                prior,
                op,
                in_bounds,
            },
        }
    }

    /// A chained-execution read that fell through to the cross-block frontier
    /// overlay, stamped with the overlay's publication stamp for the key
    /// (0 = absent from the overlay).
    pub fn from_frontier(key: K, stamp: u64) -> Self {
        Self {
            key,
            id: LocationId::UNRESOLVED,
            origin: ReadOrigin::Frontier { stamp },
        }
    }

    /// Attaches the interned location id (executor hot path).
    pub fn with_location(mut self, id: LocationId) -> Self {
        self.id = id;
        self
    }

    /// Returns the observed version, or `None` for storage, resolved, probe and
    /// frontier reads (which validate by value/predicate/stamp rather than by
    /// version).
    pub fn version(&self) -> Option<Version> {
        match self.origin {
            ReadOrigin::MultiVersion(version) => Some(version),
            ReadOrigin::Storage
            | ReadOrigin::Resolved { .. }
            | ReadOrigin::DeltaProbe { .. }
            | ReadOrigin::Frontier { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_accessor_distinguishes_origins() {
        let v = Version::new(2, 1);
        assert_eq!(ReadDescriptor::from_version("k", v).version(), Some(v));
        assert_eq!(ReadDescriptor::from_storage("k").version(), None);
    }

    #[test]
    fn descriptors_compare_by_key_and_origin() {
        let a = ReadDescriptor::from_version(1u64, Version::new(0, 0));
        let b = ReadDescriptor::from_version(1u64, Version::new(0, 1));
        let c = ReadDescriptor::from_storage(1u64);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn hand_built_descriptors_are_unresolved() {
        assert!(!ReadDescriptor::from_storage(1u64).id.is_resolved());
        assert!(!ReadDescriptor::from_version(1u64, Version::new(0, 0))
            .id
            .is_resolved());
    }
}
