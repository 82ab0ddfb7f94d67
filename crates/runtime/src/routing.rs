//! The dynamic routing table behind [`Exchange::Dynamic`].
//!
//! A static keyed exchange fixes `subtask = hash(key) % N` forever; on
//! spatially skewed streams (urban hotspots) that overloads whichever
//! subtask the hot cells hash to while its siblings idle. The
//! [`RoutingTable`] makes the key→subtask map *data*: a shared,
//! epoch-versioned overlay of explicit assignments for the hot keys, with
//! consistent-hash fallback for everything unlisted — so an empty table is
//! byte-for-byte equivalent to the static exchange, and a controller can
//! swap in better placements while the dataflow runs.
//!
//! The table itself is policy-free: *what* to assign where is the load
//! balancer's job (see `icpe-cluster`); *when* a swap is safe is the
//! pipeline's job (at snapshot-boundary ticks, so no in-flight window ever
//! splits across two epochs). This layer only guarantees that lookups are
//! cheap (a read lock per keyed record) and swaps are atomic.

use icpe_types::shard::subtask_for;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time view of the routing layer, for `STATUS` endpoints and
/// benches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoutingStatus {
    /// Current routing epoch (0 until the first swap).
    pub epoch: u64,
    /// Keys with an explicit assignment (the rest fall back to hashing).
    pub mapped_keys: usize,
    /// Keys whose effective route changed, cumulative over all epochs.
    pub cells_migrated: u64,
    /// Max per-subtask load observed in the most recent accounted window.
    pub max_subtask_load: f64,
    /// Mean per-subtask load in that window.
    pub mean_subtask_load: f64,
}

impl RoutingStatus {
    /// `max / mean` subtask load of the last accounted window (1.0 =
    /// perfectly balanced; `N` = everything on one of `N` subtasks).
    pub fn imbalance(&self) -> f64 {
        if self.mean_subtask_load <= 0.0 {
            1.0
        } else {
            self.max_subtask_load / self.mean_subtask_load
        }
    }
}

/// An epoch-versioned key-hash→subtask map with consistent-hash fallback,
/// shared between the routers that consult it and the controller that
/// swaps it (wrap in `Arc`).
#[derive(Debug, Default)]
pub struct RoutingTable {
    /// Explicit routes, keyed by the same hash [`Routing::Key`] carries.
    map: RwLock<HashMap<u64, usize>>,
    epoch: AtomicU64,
    cells_migrated: AtomicU64,
    /// Last-window subtask loads, as f64 bits (observability only).
    max_load_bits: AtomicU64,
    mean_load_bits: AtomicU64,
}

impl RoutingTable {
    /// An empty table at epoch 0 — routes exactly like the static exchange
    /// until the first [`RoutingTable::install`].
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// The subtask for `key_hash` at parallelism `n`: the explicit
    /// assignment when one exists *and* still names a live subtask,
    /// otherwise the consistent-hash fallback. An assignment to a subtask
    /// `≥ n` (a table restored into a smaller deployment) falls back
    /// rather than routing out of range.
    pub fn subtask(&self, key_hash: u64, n: usize) -> usize {
        if let Some(&s) = self.map.read().get(&key_hash) {
            if s < n {
                return s;
            }
        }
        subtask_for(key_hash, n)
    }

    /// Current epoch (0 until the first install).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically replaces the table: `assignments` becomes the complete
    /// explicit overlay (keys removed from it merge back to hash
    /// fallback), the epoch becomes `epoch`, and `migrated` keys are added
    /// to the cumulative migration counter. Readers see either the old
    /// table or the new one, never a mix.
    pub fn install(&self, epoch: u64, assignments: HashMap<u64, usize>, migrated: u64) {
        let mut map = self.map.write();
        *map = assignments;
        self.epoch.store(epoch, Ordering::Release);
        drop(map);
        self.cells_migrated.fetch_add(migrated, Ordering::Relaxed);
    }

    /// Records the per-subtask load summary of the most recently accounted
    /// window (pure observability; does not affect routing).
    pub fn note_window_loads(&self, max: f64, mean: f64) {
        self.max_load_bits.store(max.to_bits(), Ordering::Relaxed);
        self.mean_load_bits.store(mean.to_bits(), Ordering::Relaxed);
    }

    /// The current status snapshot.
    pub fn status(&self) -> RoutingStatus {
        RoutingStatus {
            epoch: self.epoch(),
            mapped_keys: self.map.read().len(),
            cells_migrated: self.cells_migrated.load(Ordering::Relaxed),
            max_subtask_load: f64::from_bits(self.max_load_bits.load(Ordering::Relaxed)),
            mean_subtask_load: f64::from_bits(self.mean_load_bits.load(Ordering::Relaxed)),
        }
    }

    /// The explicit overlay as a plain map (for checkpointing controllers).
    pub fn assignments(&self) -> HashMap<u64, usize> {
        self.map.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_matches_consistent_hash() {
        let t = RoutingTable::new();
        for h in 0..200u64 {
            for n in 1..6 {
                assert_eq!(t.subtask(h, n), subtask_for(h, n));
            }
        }
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.status().mapped_keys, 0);
    }

    #[test]
    fn install_overrides_and_unmapped_fall_back() {
        let t = RoutingTable::new();
        t.install(1, HashMap::from([(77u64, 3usize)]), 1);
        assert_eq!(t.subtask(77, 4), 3);
        assert_eq!(t.subtask(78, 4), subtask_for(78, 4));
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.status().cells_migrated, 1);

        // A later install replaces the overlay wholesale.
        t.install(2, HashMap::from([(78u64, 0usize)]), 2);
        assert_eq!(t.subtask(77, 4), subtask_for(77, 4), "77 merged back");
        assert_eq!(t.subtask(78, 4), 0);
        assert_eq!(t.status().cells_migrated, 3, "counter is cumulative");
    }

    #[test]
    fn out_of_range_assignment_falls_back() {
        // A table learned at parallelism 8, consulted at parallelism 2.
        let t = RoutingTable::new();
        t.install(1, HashMap::from([(5u64, 7usize)]), 1);
        assert!(t.subtask(5, 2) < 2);
        assert_eq!(t.subtask(5, 2), subtask_for(5, 2));
        assert_eq!(t.subtask(5, 8), 7, "still honored where it fits");
    }

    #[test]
    fn status_reports_window_loads() {
        let t = RoutingTable::new();
        assert_eq!(t.status().imbalance(), 1.0, "no data → balanced");
        t.note_window_loads(90.0, 30.0);
        let s = t.status();
        assert_eq!(s.max_subtask_load, 90.0);
        assert_eq!(s.mean_subtask_load, 30.0);
        assert!((s.imbalance() - 3.0).abs() < 1e-12);
    }
}
