//! **GridSync** — result collection.
//!
//! The Lemma-1 key set replicates a location only to cells after its home
//! in row-major order (see `icpe_index::grid`), so every neighbor pair is
//! discovered exactly once and the live collection needs no dedup: each
//! grid-query subtask hands its window's pairs straight to the sync-merge
//! aggregation tree, whose finalizer runs DBSCAN. [`SyncStats`] is the
//! shared observability surface of that tree: its shape plus cumulative
//! pair/seal counters, read by `STATUS` endpoints and restored from
//! checkpoints so the gauges survive a restart.
//!
//! [`PairCollector`] canonicalizes and deduplicates, yielding exact set
//! semantics for `RJ(O, ε)` from a scheme that does find pairs twice — the
//! SRJ baseline's full-region replication and the Lemma-1 ablation bench,
//! which counts what it suppresses.

use crate::query::NeighborPair;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Shared gauges of the sync-merge tree. Wrap in `Arc`; the tree finalizer
/// writes, status endpoints read. The authoritative counters live in the
/// finalizer (and in its checkpoint piece); this surface only mirrors them
/// for live observability.
#[derive(Debug)]
pub struct SyncStats {
    fanin: usize,
    levels: usize,
    pairs_merged: AtomicU64,
    windows_sealed: AtomicU64,
}

impl SyncStats {
    /// Gauges for a tree reducing `width` producers at fanin `fanin`.
    pub fn new(width: usize, fanin: usize) -> Self {
        let fanin = fanin.max(2);
        // Interior levels: how many times the width must divide by the
        // fanin before one slot can absorb it.
        let mut levels = 0usize;
        let mut width = width.max(1);
        while width > fanin {
            width = width.div_ceil(fanin);
            levels += 1;
        }
        SyncStats {
            fanin,
            levels,
            pairs_merged: AtomicU64::new(0),
            windows_sealed: AtomicU64::new(0),
        }
    }

    /// The finalizer sealed one merged window of `pairs` neighbor pairs.
    pub fn note_window_sealed(&self, pairs: u64) {
        self.pairs_merged.fetch_add(pairs, Ordering::Relaxed);
        self.windows_sealed.fetch_add(1, Ordering::Relaxed);
    }

    /// Rehydrates the cumulative counters from a checkpoint's sync
    /// section, so a restored deployment's gauges stay cumulative.
    pub fn restore(&self, pairs_merged: u64, windows_sealed: u64) {
        self.pairs_merged.store(pairs_merged, Ordering::Relaxed);
        self.windows_sealed.store(windows_sealed, Ordering::Relaxed);
    }

    /// The current gauge snapshot.
    pub fn status(&self) -> SyncStatus {
        SyncStatus {
            fanin: self.fanin,
            levels: self.levels,
            pairs_merged: self.pairs_merged.load(Ordering::Relaxed),
            windows_sealed: self.windows_sealed.load(Ordering::Relaxed),
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
        assert_eq!(SyncStats::new(1, 4).status().levels, 0);
        assert_eq!(SyncStats::new(4, 4).status().levels, 0, "flat funnel");
        assert_eq!(SyncStats::new(8, 4).status().levels, 1, "8 → 2 → final");
        assert_eq!(SyncStats::new(8, 2).status().levels, 2, "8 → 4 → 2 → final");
        assert_eq!(
            SyncStats::new(9, 2).status().levels,
            3,
            "9 → 5 → 3 → 2 → final"
        );
    }

    #[test]
    fn sync_stats_seal_and_status() {
        let stats = SyncStats::new(2, 4);
        stats.note_window_sealed(10);
        let s = stats.status();
        assert_eq!(s.pairs_merged, 10);
        assert_eq!(s.windows_sealed, 1);
        stats.note_window_sealed(0);
        let s = stats.status();
        assert_eq!(s.pairs_merged, 10);
        assert_eq!(s.windows_sealed, 2, "empty windows seal too");
    }

    #[test]
    fn sync_stats_restore_is_cumulative() {
        let stats = SyncStats::new(3, 2);
        stats.restore(100, 40);
        stats.note_window_sealed(5);
        let s = stats.status();
        assert_eq!(s.pairs_merged, 105);
        assert_eq!(s.windows_sealed, 41);
        assert_eq!(s.fanin, 2);
        assert_eq!(s.levels, 1, "3 → 2 → final");
    }
}
