//! **GDC** — the grid-based DBSCAN baseline of §7.1 (\[14\] adapted).
//!
//! A centralized grid DBSCAN: the space is divided by the (small) distance
//! threshold ε itself rather than by a tunable cell width, neighborhoods are
//! found by scanning the 3×3 surrounding cells without any local index, and
//! clustering runs in a single partition. The paper observes that dividing
//! by ε "results in too many partitions" — small cells mean a large hash map
//! and heavy per-cell overhead, which is what this faithful re-implementation
//! exhibits. Results are identical to RJC/SRJ.

use crate::dbscan::dbscan_from_pairs;
use crate::query::{canonical, NeighborPair};
use crate::SnapshotClusterer;
use icpe_types::{ClusterSnapshot, DbscanParams, DistanceMetric, ObjectId, Snapshot};
use std::collections::HashMap;

/// Configuration and engine for the GDC baseline.
#[derive(Debug, Clone)]
pub struct GdcClusterer {
    metric: DistanceMetric,
    dbscan: DbscanParams,
}

impl GdcClusterer {
    /// Creates the baseline clusterer. GDC takes no grid-width parameter:
    /// it always divides space by ε (hence its flat curves in Figure 11).
    pub fn new(dbscan: DbscanParams, metric: DistanceMetric) -> Self {
        GdcClusterer { metric, dbscan }
    }

    /// Neighborhood pairs via the ε-grid: each point checks the 3×3 block of
    /// ε-cells around its own.
    pub fn range_join(&self, snapshot: &Snapshot) -> Vec<NeighborPair> {
        let eps = self.dbscan.eps;
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        let key = |x: f64, y: f64| ((x / eps).floor() as i64, (y / eps).floor() as i64);
        for (i, e) in snapshot.entries.iter().enumerate() {
            cells
                .entry(key(e.location.x, e.location.y))
                .or_default()
                .push(i);
        }
        let entries = &snapshot.entries;
        let mut out = Vec::new();
        for (&(cx, cy), members) in &cells {
            // In-cell pairs.
            for (a_pos, &a) in members.iter().enumerate() {
                for &b in &members[a_pos + 1..] {
                    if self
                        .metric
                        .within(&entries[a].location, &entries[b].location, eps)
                    {
                        out.push(canonical(entries[a].id, entries[b].id));
                    }
                }
            }
            // Cross-cell pairs: check the 4 "forward" neighbor cells so each
            // unordered cell pair is visited once.
            for (dx, dy) in [(1, 0), (-1, 1), (0, 1), (1, 1)] {
                let Some(other) = cells.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &a in members {
                    for &b in other {
                        if self
                            .metric
                            .within(&entries[a].location, &entries[b].location, eps)
                        {
                            out.push(canonical(entries[a].id, entries[b].id));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Full clustering of one snapshot.
    pub fn cluster_snapshot(&self, snapshot: &Snapshot) -> ClusterSnapshot {
        let pairs = self.range_join(snapshot);
        let ids: Vec<ObjectId> = snapshot.entries.iter().map(|e| e.id).collect();
        dbscan_from_pairs(snapshot.time, &ids, &pairs, &self.dbscan).snapshot
    }
}

impl SnapshotClusterer for GdcClusterer {
    fn name(&self) -> &'static str {
        "GDC"
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
    use icpe_types::{Point, Timestamp};

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
    fn gdc_matches_naive_join() {
        let s = snap(&scatter(250, 40.0));
        for metric in [
            DistanceMetric::Chebyshev,
            DistanceMetric::L1,
            DistanceMetric::L2,
        ] {
            let gdc = GdcClusterer::new(DbscanParams::new(1.8, 5).unwrap(), metric);
            assert_eq!(gdc.range_join(&s), naive_range_join(&s, 1.8, metric));
        }
    }

    #[test]
    fn gdc_and_rjc_clusters_agree() {
        let s = snap(&scatter(300, 25.0));
        let params = DbscanParams::new(1.0, 4).unwrap();
        let gdc = GdcClusterer::new(params, DistanceMetric::Chebyshev);
        let rjc = RjcClusterer::new(2.0, params, DistanceMetric::Chebyshev);
        assert_eq!(gdc.cluster(&s), rjc.cluster(&s));
    }

    #[test]
    fn handles_negative_coordinates() {
        let s = snap(&[(1, -0.4, -0.4), (2, 0.4, 0.4), (3, -5.0, 3.0)]);
        let gdc = GdcClusterer::new(
            DbscanParams::new(1.0, 2).unwrap(),
            DistanceMetric::Chebyshev,
        );
        assert_eq!(gdc.range_join(&s), vec![(ObjectId(1), ObjectId(2))]);
    }

    #[test]
    fn empty_snapshot() {
        let gdc = GdcClusterer::new(
            DbscanParams::new(1.0, 2).unwrap(),
            DistanceMetric::Chebyshev,
        );
        assert!(gdc
            .cluster(&Snapshot::new(Timestamp(0)))
            .clusters
            .is_empty());
    }
}
