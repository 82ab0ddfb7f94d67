//! **SRJ** — the comparison baseline of §7.1 (\[36\] extended with DBSCAN).
//!
//! The state-of-the-art distributed streaming range join before this paper:
//! every location is replicated to **all** cells intersecting its full range
//! region (no Lemma 1), each cell **builds its R-tree first and queries
//! afterwards** (no Lemma 2 interleaving), and the resulting duplicates are
//! removed at collection time. Identical output to RJC, strictly more work —
//! which is exactly what Figures 10–11 measure.

use crate::allocate::grid_allocate_full;
use crate::dbscan::dbscan_from_pairs;
use crate::query::{canonical, NeighborPair};
use crate::sync::PairCollector;
use crate::SnapshotClusterer;
use icpe_index::{Grid, GridKey, RTree};
use icpe_types::{ClusterSnapshot, DbscanParams, DistanceMetric, ObjectId, Point, Snapshot};
use std::collections::HashMap;

/// Configuration and engine for the SRJ baseline.
#[derive(Debug, Clone)]
pub struct SrjClusterer {
    grid: Grid,
    eps: f64,
    metric: DistanceMetric,
    dbscan: DbscanParams,
}

impl SrjClusterer {
    /// Creates the baseline clusterer.
    pub fn new(lg: f64, dbscan: DbscanParams, metric: DistanceMetric) -> Self {
        SrjClusterer {
            grid: Grid::new(lg),
            eps: dbscan.eps,
            metric,
            dbscan,
        }
    }

    /// Range join via full replication and build-then-query.
    pub fn range_join(&self, snapshot: &Snapshot) -> Vec<NeighborPair> {
        let objects = grid_allocate_full(snapshot, &self.grid, self.eps);
        let mut cells: HashMap<GridKey, Vec<&crate::gridobject::GridObject>> = HashMap::new();
        for o in &objects {
            cells.entry(o.key).or_default().push(o);
        }
        let mut collector = PairCollector::new();
        for (_, cell_objects) in cells {
            // Build the complete local index first …
            let mut items: Vec<(Point, ObjectId)> = cell_objects
                .iter()
                .filter(|o| !o.is_query)
                .map(|o| (o.location, o.id))
                .collect();
            let tree = RTree::bulk_load_with_max_entries(16, &mut items);
            // … then run every range query against it (data + query objects).
            let mut hits = Vec::new();
            for o in &cell_objects {
                hits.clear();
                tree.query_within(&o.location, self.eps, self.metric, &mut hits);
                for (_, &other) in &hits {
                    if other != o.id {
                        collector.add(canonical(o.id, other));
                    }
                }
            }
        }
        collector.into_pairs()
    }

    /// Full clustering of one snapshot.
    pub fn cluster_snapshot(&self, snapshot: &Snapshot) -> ClusterSnapshot {
        let pairs = self.range_join(snapshot);
        let ids: Vec<ObjectId> = snapshot.entries.iter().map(|e| e.id).collect();
        dbscan_from_pairs(snapshot.time, &ids, &pairs, &self.dbscan).snapshot
    }
}

impl SnapshotClusterer for SrjClusterer {
    fn name(&self) -> &'static str {
        "SRJ"
    }

    fn cluster(&self, snapshot: &Snapshot) -> ClusterSnapshot {
        self.cluster_snapshot(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_range_join;
    use crate::rjc::RjcClusterer;
    use icpe_types::Timestamp;

    fn snap(points: &[(u32, f64, f64)]) -> Snapshot {
        Snapshot::from_pairs(
            Timestamp(0),
            points
                .iter()
                .map(|&(id, x, y)| (ObjectId(id), Point::new(x, y))),
        )
    }

    fn scatter(n: u32, spread: f64) -> Vec<(u32, f64, f64)> {
        (0..n)
            .map(|i| {
                let x = ((i as u64 * 2654435761) % 1000) as f64 / 1000.0 * spread;
                let y = ((i as u64 * 40503) % 1000) as f64 / 1000.0 * spread;
                (i, x, y)
            })
            .collect()
    }

    #[test]
    fn srj_matches_naive_join() {
        let s = snap(&scatter(250, 40.0));
        let srj = SrjClusterer::new(
            4.0,
            DbscanParams::new(1.8, 5).unwrap(),
            DistanceMetric::Chebyshev,
        );
        assert_eq!(
            srj.range_join(&s),
            naive_range_join(&s, 1.8, DistanceMetric::Chebyshev)
        );
    }

    #[test]
    fn srj_and_rjc_agree_exactly() {
        let s = snap(&scatter(300, 30.0));
        let params = DbscanParams::new(1.2, 4).unwrap();
        let srj = SrjClusterer::new(3.0, params, DistanceMetric::Chebyshev);
        let rjc = RjcClusterer::new(3.0, params, DistanceMetric::Chebyshev);
        assert_eq!(srj.range_join(&s), rjc.range_join(&s));
        assert_eq!(srj.cluster(&s), rjc.cluster(&s));
    }

    #[test]
    fn empty_snapshot() {
        let srj = SrjClusterer::new(
            1.0,
            DbscanParams::new(0.5, 2).unwrap(),
            DistanceMetric::Chebyshev,
        );
        assert!(srj
            .cluster(&Snapshot::new(Timestamp(0)))
            .clusters
            .is_empty());
    }
}
