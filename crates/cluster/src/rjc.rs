//! **RJC** — the paper's range-join based clustering method, assembled.
//!
//! GridAllocate (Lemma 1) → per-cell GridQuery (Lemma 2) → GridSync →
//! DBSCAN. This is the engine form that processes one snapshot at a time;
//! the streaming deployment in `icpe-core` runs the same components as
//! pipeline operators across parallel subtasks.
//!
//! GridSync here is a concatenation and a sort: the Lemma-1 key set only
//! reaches cells after a location's home in row-major order, so each pair
//! is found in exactly one cell and nothing needs deduplicating.

use crate::allocate::grid_allocate;
use crate::dbscan::{dbscan_from_pairs, DbscanOutcome};
use crate::query::{CellQueryEngine, NeighborPair};
use crate::SnapshotClusterer;
use icpe_index::{Grid, GridKey};
use icpe_types::{ClusterSnapshot, DbscanParams, DistanceMetric, ObjectId, Snapshot};
use std::collections::HashMap;

/// Configuration and engine for RJC clustering.
#[derive(Debug, Clone)]
pub struct RjcClusterer {
    grid: Grid,
    eps: f64,
    metric: DistanceMetric,
    dbscan: DbscanParams,
}

impl RjcClusterer {
    /// Creates the clusterer. `lg` is the grid cell width, `dbscan.eps` the
    /// join/clustering distance threshold.
    pub fn new(lg: f64, dbscan: DbscanParams, metric: DistanceMetric) -> Self {
        RjcClusterer {
            grid: Grid::new(lg),
            eps: dbscan.eps,
            metric,
            dbscan,
        }
    }

    /// The grid in use.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Computes the exact range join `RJ(S_t, ε)` of one snapshot (sorted
    /// canonical pairs, each found once).
    pub fn range_join(&self, snapshot: &Snapshot) -> Vec<NeighborPair> {
        let objects = grid_allocate(snapshot, &self.grid, self.eps);
        // Group by cell (the keyed exchange of the streaming deployment).
        let mut cells: HashMap<GridKey, Vec<&crate::gridobject::GridObject>> = HashMap::new();
        for o in &objects {
            cells.entry(o.key).or_default().push(o);
        }
        let mut pairs: Vec<NeighborPair> = Vec::new();
        for (_, cell_objects) in cells {
            let mut engine = CellQueryEngine::new(self.eps, self.metric);
            for o in cell_objects.iter().filter(|o| !o.is_query) {
                engine.push_data(o.id, o.location, &mut pairs);
            }
            for o in cell_objects.iter().filter(|o| o.is_query) {
                engine.push_query(o.id, o.location, &mut pairs);
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Full clustering of one snapshot with role details.
    pub fn cluster_detailed(&self, snapshot: &Snapshot) -> DbscanOutcome {
        let pairs = self.range_join(snapshot);
        let ids: Vec<ObjectId> = snapshot.entries.iter().map(|e| e.id).collect();
        dbscan_from_pairs(snapshot.time, &ids, &pairs, &self.dbscan)
    }
}

impl SnapshotClusterer for RjcClusterer {
    fn name(&self) -> &'static str {
        "RJC"
    }

    fn cluster(&self, snapshot: &Snapshot) -> ClusterSnapshot {
        self.cluster_detailed(snapshot).snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{naive_dbscan, naive_range_join};
    use icpe_types::{Point, Timestamp};

    fn snap(points: &[(u32, f64, f64)]) -> Snapshot {
        Snapshot::from_pairs(
            Timestamp(0),
            points
                .iter()
                .map(|&(id, x, y)| (ObjectId(id), Point::new(x, y))),
        )
    }

    fn grid_points(n: u32, spread: f64) -> Vec<(u32, f64, f64)> {
        // Deterministic pseudo-random scatter.
        (0..n)
            .map(|i| {
                let x = ((i as u64 * 2654435761) % 1000) as f64 / 1000.0 * spread;
                let y = ((i as u64 * 40503) % 1000) as f64 / 1000.0 * spread;
                (i, x, y)
            })
            .collect()
    }

    #[test]
    fn range_join_matches_naive_on_scatter() {
        let pts = grid_points(300, 50.0);
        let s = snap(&pts);
        for (lg, eps) in [(5.0, 2.0), (1.0, 2.0), (10.0, 0.5), (3.0, 3.0)] {
            let rjc = RjcClusterer::new(
                lg,
                DbscanParams::new(eps, 5).unwrap(),
                DistanceMetric::Chebyshev,
            );
            let got = rjc.range_join(&s);
            let want = naive_range_join(&s, eps, DistanceMetric::Chebyshev);
            assert_eq!(got, want, "lg={lg} eps={eps}");
        }
    }

    #[test]
    fn range_join_matches_naive_under_l1_and_l2() {
        let pts = grid_points(200, 30.0);
        let s = snap(&pts);
        for metric in [DistanceMetric::L1, DistanceMetric::L2] {
            let rjc = RjcClusterer::new(4.0, DbscanParams::new(2.5, 5).unwrap(), metric);
            assert_eq!(rjc.range_join(&s), naive_range_join(&s, 2.5, metric));
        }
    }

    #[test]
    fn clustering_matches_naive_dbscan() {
        let pts = grid_points(250, 25.0);
        let s = snap(&pts);
        let params = DbscanParams::new(1.5, 4).unwrap();
        let rjc = RjcClusterer::new(3.0, params, DistanceMetric::Chebyshev);
        let got = rjc.cluster(&s);
        let want = naive_dbscan(&s, &params, DistanceMetric::Chebyshev);
        assert_eq!(got.clusters.len(), want.clusters.len());
        // Core-point sets must agree exactly; border assignment between
        // multiple adjacent clusters may legitimately differ, so compare the
        // multiset of cluster sizes and the union of members.
        let sizes = |cs: &ClusterSnapshot| {
            let mut v: Vec<usize> = cs.clusters.iter().map(|c| c.len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes(&got), sizes(&want));
        let members = |cs: &ClusterSnapshot| {
            let mut v: Vec<ObjectId> = cs
                .clusters
                .iter()
                .flat_map(|c| c.members().iter().copied())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(members(&got), members(&want));
    }

    #[test]
    fn paper_fig2_time3_cluster() {
        // Figure 2 at time 3: o3..o7 are cores, o2 and o8 density-reachable,
        // forming the single cluster {o2..o8} with minPts = 3.
        // Construct coordinates matching that structure (eps = 1,
        // chebyshev): chain with a dense middle.
        let s = snap(&[
            (2, 0.0, 0.0),
            (3, 1.0, 0.0),
            (4, 1.5, 0.5),
            (5, 2.0, 0.0),
            (6, 2.5, 0.5),
            (7, 3.0, 0.0),
            (8, 4.0, 0.0),
            (1, 9.0, 9.0), // far away
        ]);
        let params = DbscanParams::new(1.0, 3).unwrap();
        let rjc = RjcClusterer::new(1.0, params, DistanceMetric::Chebyshev);
        let out = rjc.cluster_detailed(&s);
        assert_eq!(out.snapshot.clusters.len(), 1);
        let members = out.snapshot.clusters[0].members();
        assert_eq!(
            members,
            (2..=8).map(ObjectId).collect::<Vec<_>>().as_slice()
        );
        assert!(out.noise.contains(&ObjectId(1)));
    }

    #[test]
    fn same_row_pairs_are_found_exactly_once() {
        // Each pair straddles a column boundary of one grid row: both
        // partners lie in the other's upper half-region, so the paper's key
        // set finds it from both cells. The cell order finds it once, with
        // nothing deduplicating the output.
        let s = snap(&[(1, 0.9, 5.0), (2, 1.1, 5.0), (3, 2.9, 5.0), (4, 3.1, 5.0)]);
        let rjc = RjcClusterer::new(
            1.0,
            DbscanParams::new(0.5, 2).unwrap(),
            DistanceMetric::Chebyshev,
        );
        let pairs = rjc.range_join(&s);
        assert_eq!(
            pairs,
            vec![(ObjectId(1), ObjectId(2)), (ObjectId(3), ObjectId(4))]
        );
    }

    #[test]
    fn empty_snapshot_clusters_to_nothing() {
        let rjc = RjcClusterer::new(
            1.0,
            DbscanParams::new(0.5, 2).unwrap(),
            DistanceMetric::Chebyshev,
        );
        let cs = rjc.cluster(&Snapshot::new(Timestamp(7)));
        assert!(cs.clusters.is_empty());
        assert_eq!(cs.time, Timestamp(7));
    }
}
