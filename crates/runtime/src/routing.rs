//! The routing table of an adaptively keyed hop.
//!
//! A static keyed exchange fixes `subtask = hash(key) % N` forever; on
//! spatially skewed streams (urban hotspots) that overloads whichever
//! subtask the hot cells hash to while its siblings idle. A
//! [`RoutingTable`] makes the key→subtask map *data*: explicit assignments
//! for the hot keys, with consistent-hash fallback for everything unlisted
//! — so an empty table routes exactly like the static exchange.
//!
//! A table is an immutable value, stamped with the epoch that produced it.
//! The controller that plans placements builds a new table per epoch and
//! hands it, behind an `Arc`, to whoever splits a window by destination;
//! nothing reads a shared, mutable table at send time. *What* to assign
//! where is the load balancer's job (see `icpe-cluster`); *which windows*
//! a table applies to is the pipeline's (each window is split under
//! exactly one table).

use icpe_types::shard::subtask_for;
use std::collections::HashMap;

/// A point-in-time view of the routing layer, for `STATUS` endpoints and
/// benches, filled from the owners of each number (the controller's epoch
/// and migration gauges, the load tracker's last sealed window).
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

/// One epoch's key-hash→subtask map with consistent-hash fallback.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingTable {
    epoch: u64,
    /// Explicit routes, keyed by the key's routing hash.
    map: HashMap<u64, usize>,
}

impl RoutingTable {
    /// The table of `epoch`: `assignments` is the complete explicit
    /// overlay; every other key falls back to hashing.
    pub fn new(epoch: u64, assignments: HashMap<u64, usize>) -> Self {
        RoutingTable {
            epoch,
            map: assignments,
        }
    }

    /// The subtask for `key_hash` at parallelism `n`: the explicit
    /// assignment when one exists *and* names a live subtask, otherwise
    /// the consistent-hash fallback. An assignment to a subtask `≥ n` (a
    /// table restored into a smaller deployment) falls back rather than
    /// routing out of range.
    pub fn subtask(&self, key_hash: u64, n: usize) -> usize {
        if let Some(&s) = self.map.get(&key_hash) {
            if s < n {
                return s;
            }
        }
        subtask_for(key_hash, n)
    }

    /// The epoch this table belongs to (0 = the static placement).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Keys with an explicit assignment.
    pub fn mapped_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_matches_consistent_hash() {
        let t = RoutingTable::default();
        for h in 0..200u64 {
            for n in 1..6 {
                assert_eq!(t.subtask(h, n), subtask_for(h, n));
            }
        }
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.mapped_keys(), 0);
    }

    #[test]
    fn explicit_entries_win_and_unmapped_keys_fall_back() {
        let t = RoutingTable::new(1, HashMap::from([(77u64, 3usize)]));
        assert_eq!(t.subtask(77, 4), 3);
        assert_eq!(t.subtask(78, 4), subtask_for(78, 4));
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.mapped_keys(), 1);
    }

    #[test]
    fn out_of_range_assignment_falls_back() {
        // A table learned at parallelism 8, consulted at parallelism 2.
        let t = RoutingTable::new(1, HashMap::from([(5u64, 7usize)]));
        assert!(t.subtask(5, 2) < 2);
        assert_eq!(t.subtask(5, 2), subtask_for(5, 2));
        assert_eq!(t.subtask(5, 8), 7, "still honored where it fits");
    }

    #[test]
    fn status_reports_window_loads() {
        assert_eq!(
            RoutingStatus::default().imbalance(),
            1.0,
            "no data → balanced"
        );
        let s = RoutingStatus {
            max_subtask_load: 90.0,
            mean_subtask_load: 30.0,
            ..RoutingStatus::default()
        };
        assert!((s.imbalance() - 3.0).abs() < 1e-12);
    }
}
