//! **GridSync** — result collection.
//!
//! The Lemma-1 key set replicates a location only to cells after its home
//! in row-major order (see `icpe_index::grid`), so every neighbor pair is
//! discovered exactly once and the live collection needs no dedup: each
//! grid-query subtask hands its window's pairs straight to the sync-merge
//! aggregation tree, whose finalizer runs DBSCAN. [`SyncStatus`] is the
//! `STATUS` view of that tree: its shape, and the cumulative pair/seal
//! counters the finalizer owns and publishes.
//!
//! [`PairCollector`] canonicalizes and deduplicates, yielding exact set
//! semantics for `RJ(O, ε)` from a scheme that does find pairs twice — the
//! SRJ baseline's full-region replication and the Lemma-1 ablation bench,
//! which counts what it suppresses.

use crate::query::NeighborPair;
use std::collections::HashSet;

/// Collects neighbor pairs from all cells, deduplicating.
#[derive(Debug, Default)]
pub struct PairCollector {
    seen: HashSet<NeighborPair>,
    duplicates: usize,
}

impl PairCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one canonical pair; returns `true` if it was new.
    pub fn add(&mut self, pair: NeighborPair) -> bool {
        debug_assert!(pair.0 <= pair.1, "pairs must be canonicalized");
        if self.seen.insert(pair) {
            true
        } else {
            self.duplicates += 1;
            false
        }
    }

    /// Adds many pairs.
    pub fn extend(&mut self, pairs: impl IntoIterator<Item = NeighborPair>) {
        for p in pairs {
            self.add(p);
        }
    }

    /// Number of distinct pairs collected.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True if no pairs were collected.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// How many duplicate discoveries were suppressed.
    pub fn duplicates(&self) -> usize {
        self.duplicates
    }

    /// Consumes the collector, returning the distinct pairs (sorted, for
    /// deterministic downstream processing).
    pub fn into_pairs(self) -> Vec<NeighborPair> {
        let mut v: Vec<NeighborPair> = self.seen.into_iter().collect();
        v.sort_unstable();
        v
    }
}

/// A point-in-time view of the sync-merge tree's gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SyncStatus {
    /// Configured aggregation-tree fanin.
    pub fanin: usize,
    /// Interior combiner levels between the grid-query subtasks and the
    /// finalizer (0 when `parallelism ≤ fanin` — the flat funnel).
    pub levels: usize,
    /// Neighbor pairs merged across all sealed windows (cumulative).
    pub pairs_merged: u64,
    /// Windows sealed through the merge tree (cumulative).
    pub windows_sealed: u64,
}

impl SyncStatus {
    /// The shape of a tree reducing `width` producers at fanin `fanin`
    /// (clamped to ≥ 2, as the tree clamps it), counters zero.
    pub fn tree(width: usize, fanin: usize) -> SyncStatus {
        let fanin = fanin.max(2);
        // Interior levels: how many times the width must divide by the
        // fanin before one slot can absorb it.
        let mut levels = 0usize;
        let mut width = width.max(1);
        while width > fanin {
            width = width.div_ceil(fanin);
            levels += 1;
        }
        SyncStatus {
            fanin,
            levels,
            ..SyncStatus::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_types::ObjectId;

    fn p(a: u32, b: u32) -> NeighborPair {
        (ObjectId(a), ObjectId(b))
    }

    #[test]
    fn dedup_and_count() {
        let mut c = PairCollector::new();
        assert!(c.add(p(1, 2)));
        assert!(!c.add(p(1, 2)));
        assert!(c.add(p(2, 3)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.duplicates(), 1);
        assert_eq!(c.into_pairs(), vec![p(1, 2), p(2, 3)]);
    }

    #[test]
    fn extend_and_sorted_output() {
        let mut c = PairCollector::new();
        c.extend([p(5, 9), p(1, 2), p(5, 9), p(0, 7)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.duplicates(), 1);
        assert_eq!(c.into_pairs(), vec![p(0, 7), p(1, 2), p(5, 9)]);
    }

    #[test]
    fn empty_collector() {
        let c = PairCollector::new();
        assert!(c.is_empty());
        assert!(c.into_pairs().is_empty());
    }

    #[test]
    fn sync_stats_levels_follow_the_tree_shape() {
        assert_eq!(SyncStatus::tree(1, 4).levels, 0);
        assert_eq!(SyncStatus::tree(4, 4).levels, 0, "flat funnel");
        assert_eq!(SyncStatus::tree(8, 4).levels, 1, "8 → 2 → final");
        assert_eq!(SyncStatus::tree(8, 2).levels, 2, "8 → 4 → 2 → final");
        assert_eq!(SyncStatus::tree(9, 2).levels, 3, "9 → 5 → 3 → 2 → final");
        assert_eq!(SyncStatus::tree(3, 1).fanin, 2, "fanin clamps to 2");
    }
}
