//! The assembled two-layer GR-index for one snapshot.
//!
//! `GrIndex` partitions a snapshot's locations by grid cell and builds one
//! R-tree per cell. In the streaming pipeline only the grid layer is live
//! (GridAllocate computes keys; GridQuery sweeps each cell's x-sorted
//! objects instead of building its R-tree); this assembled form serves the
//! offline/centralized path, the SRJ baseline, and as a reference for tests.

use crate::{Grid, GridKey, RTree};
use icpe_types::{DistanceMetric, ObjectId, Point, Snapshot};
use std::collections::HashMap;

/// A two-layer index over one snapshot: global grid, local R-tree per cell.
#[derive(Debug)]
pub struct GrIndex {
    grid: Grid,
    cells: HashMap<GridKey, RTree<ObjectId>>,
    len: usize,
}

impl GrIndex {
    /// Builds the index over a snapshot with grid cell width `lg`.
    pub fn build(snapshot: &Snapshot, lg: f64) -> Self {
        Self::build_from_pairs(snapshot.entries.iter().map(|e| (e.id, e.location)), lg)
    }

    /// Builds the index from raw `(id, location)` pairs.
    pub fn build_from_pairs(pairs: impl IntoIterator<Item = (ObjectId, Point)>, lg: f64) -> Self {
        let grid = Grid::new(lg);
        let mut buckets: HashMap<GridKey, Vec<(Point, ObjectId)>> = HashMap::new();
        let mut len = 0usize;
        for (id, p) in pairs {
            buckets.entry(grid.key_of(p)).or_default().push((p, id));
            len += 1;
        }
        let cells = buckets
            .into_iter()
            .map(|(k, mut items)| {
                (
                    k,
                    RTree::bulk_load_with_max_entries(
                        crate::rtree::DEFAULT_MAX_ENTRIES,
                        &mut items,
                    ),
                )
            })
            .collect();
        GrIndex { grid, cells, len }
    }

    /// The grid layer.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of indexed locations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no locations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of non-empty grid cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Range query: all `(id, location)` within `eps` of `center` under
    /// `metric` (Definition 10; the center itself is reported if indexed).
    pub fn range_query(
        &self,
        center: &Point,
        eps: f64,
        metric: DistanceMetric,
    ) -> Vec<(ObjectId, Point)> {
        let mut out = Vec::new();
        let region = icpe_types::Rect::padded_range_region(*center, eps);
        for key in self.grid.keys_in_rect(&region) {
            if let Some(tree) = self.cells.get(&key) {
                let mut hits = Vec::new();
                tree.query_within(center, eps, metric, &mut hits);
                out.extend(hits.into_iter().map(|(p, id)| (*id, *p)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_types::Timestamp;

    fn snap(points: &[(u32, f64, f64)]) -> Snapshot {
        Snapshot::from_pairs(
            Timestamp(0),
            points
                .iter()
                .map(|&(id, x, y)| (ObjectId(id), Point::new(x, y))),
        )
    }

    #[test]
    fn build_and_count() {
        let s = snap(&[(1, 0.0, 0.0), (2, 10.0, 10.0), (3, 0.5, 0.5)]);
        let idx = GrIndex::build(&s, 2.0);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.num_cells(), 2);
        assert!(!idx.is_empty());
    }

    #[test]
    fn range_query_matches_brute_force() {
        let pts: Vec<(u32, f64, f64)> = (0..200)
            .map(|i| {
                let x = ((i * 37) % 100) as f64 * 0.9;
                let y = ((i * 53) % 100) as f64 * 1.1;
                (i, x, y)
            })
            .collect();
        let s = snap(&pts);
        let idx = GrIndex::build(&s, 7.0);
        let metric = DistanceMetric::Chebyshev;
        for &(qid, qx, qy) in pts.iter().step_by(17) {
            let center = Point::new(qx, qy);
            let mut got: Vec<u32> = idx
                .range_query(&center, 5.0, metric)
                .into_iter()
                .map(|(id, _)| id.0)
                .collect();
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .filter(|&&(_, x, y)| metric.within(&center, &Point::new(x, y), 5.0))
                .map(|&(id, _, _)| id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "query at object {qid}");
            assert!(got.contains(&qid), "center must see itself");
        }
    }

    #[test]
    fn empty_snapshot() {
        let idx = GrIndex::build(&Snapshot::new(Timestamp(0)), 1.0);
        assert!(idx.is_empty());
        assert!(idx
            .range_query(&Point::new(0.0, 0.0), 10.0, DistanceMetric::L2)
            .is_empty());
    }
}
