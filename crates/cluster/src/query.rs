//! **GridQuery** — Algorithm 2 of the paper.
//!
//! The paper builds a local R-tree per grid cell and probes it
//! *query-then-insert* (Lemma 2). Here one engine serves every cell of a
//! subtask ([`CellQueryEngine::clear`] between cells) and its storage is a
//! flat, x-sorted array of the cell's data objects instead of a tree: at
//! the grid widths the deployment uses (`lg = 8 ε`) a cell holds a few to a
//! few dozen objects, where building a tree costs more than the probes it
//! saves. [`CellQueryEngine::run_cell`] sorts the cell's data objects by
//! `x`; each then probes the objects stored before it — exactly the data
//! objects that precede it in that order — and is appended (Lemma 2 with
//! arrival order = x order). Every same-cell pair is thus reported exactly
//! once, by whichever partner comes later. Query objects only probe and are
//! never stored.
//!
//! A probe is a sweep: binary-search the first stored `x` inside the padded
//! range rectangle, scan forward until `x` leaves it, and test each
//! candidate with the same rectangle + metric predicate the R-tree uses.
//! That is `O(log n + n·2ε/lg + k)` per probe, so a cell much wider than ε
//! stays cheap without an occupancy cutoff.

use crate::balance::CellLoad;
use crate::gridobject::GridObject;
use icpe_index::GridKey;
use icpe_types::{DistanceMetric, ObjectId, Point, Rect};

/// A neighbor pair `(u, v)` with `d(u, v) ≤ ε`, canonicalized to `u < v`.
pub type NeighborPair = (ObjectId, ObjectId);

/// The per-cell range-query engine: one instance is reused across the
/// cells of a snapshot (and across snapshots) through [`clear`](Self::clear),
/// so after warm-up the cell loop allocates nothing.
#[derive(Debug)]
pub struct CellQueryEngine {
    eps: f64,
    metric: DistanceMetric,
    /// The stored data objects' locations, ascending by `x`
    /// (`f64::total_cmp`), parallel to `ids`.
    points: Vec<Point>,
    ids: Vec<ObjectId>,
    /// `run_cell`'s scratch: the cell's data objects, sorted by `x` before
    /// they are pushed.
    staged: Vec<(Point, ObjectId)>,
}

impl CellQueryEngine {
    /// Creates an empty engine.
    pub fn new(eps: f64, metric: DistanceMetric) -> Self {
        CellQueryEngine {
            eps,
            metric,
            points: Vec::new(),
            ids: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Forgets the stored data objects (keeping the buffers), so the engine
    /// can serve the next cell.
    pub fn clear(&mut self) {
        self.points.clear();
        self.ids.clear();
    }

    /// Processes a data object: probe the objects stored so far, then store
    /// it (Lemma 2, Algorithm 2 lines 2–4). Emits discovered pairs. The
    /// object is inserted at its place in `x` order — an append when data
    /// objects arrive sorted by `x`, as [`run_cell`](Self::run_cell) pushes
    /// them.
    pub fn push_data(&mut self, id: ObjectId, location: Point, out: &mut Vec<NeighborPair>) {
        self.probe(id, location, out);
        let at = self
            .points
            .partition_point(|p| p.x.total_cmp(&location.x).is_le());
        self.points.insert(at, location);
        self.ids.insert(at, id);
    }

    /// Processes a query object: probe only (Algorithm 2 lines 5–6).
    pub fn push_query(&mut self, id: ObjectId, location: Point, out: &mut Vec<NeighborPair>) {
        self.probe(id, location, out);
    }

    /// Processes a full cell worth of grid objects: the data objects in `x`
    /// order, then the query objects. Callers may pass them interleaved and
    /// in any order; the pairs reported are the same.
    pub fn run_cell(&mut self, objects: &[GridObject], out: &mut Vec<NeighborPair>) {
        self.staged.clear();
        self.staged.reserve(objects.len());
        self.staged.extend(
            objects
                .iter()
                .filter(|o| !o.is_query)
                .map(|o| (o.location, o.id)),
        );
        self.staged
            .sort_unstable_by(|(a, _), (b, _)| a.x.total_cmp(&b.x));
        // One allocation each when the engine is fresh, none once warm.
        self.points.reserve(self.staged.len());
        self.ids.reserve(self.staged.len());
        for i in 0..self.staged.len() {
            let (location, id) = self.staged[i];
            self.push_data(id, location, out);
        }
        for o in objects.iter().filter(|o| o.is_query) {
            self.push_query(o.id, o.location, out);
        }
    }

    /// Number of data objects stored so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no data objects are stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Reports every stored object within ε of `center` (other than `id`
    /// itself): the stored objects whose `x` lies in the padded range
    /// rectangle are one contiguous run of the sorted array.
    fn probe(&self, id: ObjectId, center: Point, out: &mut Vec<NeighborPair>) {
        let rect = Rect::padded_range_region(center, self.eps);
        let start = self.points.partition_point(|p| p.x < rect.min_x);
        for (p, &other) in self.points[start..].iter().zip(&self.ids[start..]) {
            if p.x > rect.max_x {
                break;
            }
            // The R-tree's filter + refinement expression, so both report
            // identical sets at boundary distances.
            if rect.contains_point(p) && self.metric.within(&center, p, self.eps) && other != id {
                out.push(canonical(id, other));
            }
        }
    }
}

/// GridQuery over many cells' grid objects (one window of one subtask, or
/// a whole snapshot): sorts `objects` by cell once, then runs `engine` on
/// each run of equal keys. `on_cell` hears each cell's load: how many grid
/// objects it held and how many pairs it added to `out`.
pub fn query_cells(
    engine: &mut CellQueryEngine,
    objects: &mut [GridObject],
    out: &mut Vec<NeighborPair>,
    mut on_cell: impl FnMut(GridKey, CellLoad),
) {
    objects.sort_unstable_by_key(|o| o.key);
    for cell in objects.chunk_by(|a, b| a.key == b.key) {
        let before = out.len();
        engine.clear();
        engine.run_cell(cell, out);
        let load = CellLoad {
            records: cell.len() as u64,
            pairs: (out.len() - before) as u64,
        };
        on_cell(cell[0].key, load);
    }
}

/// Orders a pair so the smaller id comes first.
#[inline]
pub fn canonical(a: ObjectId, b: ObjectId) -> NeighborPair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_range_join;
    use icpe_types::{Snapshot, Timestamp};
    use std::time::{Duration, Instant};

    fn oid(v: u32) -> ObjectId {
        ObjectId(v)
    }

    #[test]
    fn lemma2_reports_each_same_cell_pair_once() {
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(0.0, 0.0), &mut out);
        engine.push_data(oid(2), Point::new(0.5, 0.5), &mut out);
        engine.push_data(oid(3), Point::new(0.7, 0.7), &mut out);
        out.sort_unstable();
        assert_eq!(
            out,
            vec![(oid(1), oid(2)), (oid(1), oid(3)), (oid(2), oid(3))]
        );
        assert_eq!(engine.len(), 3);
    }

    #[test]
    fn query_objects_probe_but_do_not_insert() {
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(0.0, 0.0), &mut out);
        engine.push_query(oid(9), Point::new(0.5, 0.5), &mut out);
        assert_eq!(out, vec![(oid(1), oid(9))]);
        assert_eq!(engine.len(), 1, "query object must not be inserted");
        // A second identical query still sees only the data object.
        out.clear();
        engine.push_query(oid(10), Point::new(0.5, 0.5), &mut out);
        assert_eq!(out, vec![(oid(1), oid(10))]);
    }

    #[test]
    fn run_cell_reorders_interleaved_objects() {
        let k = GridKey::new(0, 0);
        let t = Timestamp(0);
        // Query object listed before the data objects it must see.
        let objs = vec![
            GridObject::query(k, oid(9), Point::new(0.5, 0.5), t),
            GridObject::data(k, oid(1), Point::new(0.0, 0.0), t),
            GridObject::data(k, oid(2), Point::new(0.9, 0.9), t),
        ];
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.run_cell(&objs, &mut out);
        out.sort_unstable();
        assert_eq!(
            out,
            vec![(oid(1), oid(2)), (oid(1), oid(9)), (oid(2), oid(9))]
        );
    }

    #[test]
    fn metric_is_respected() {
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::L1);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(0.0, 0.0), &mut out);
        // L1 distance 1.6 > 1.0, Chebyshev 0.8 ≤ 1.0 → excluded under L1.
        engine.push_data(oid(2), Point::new(0.8, 0.8), &mut out);
        assert!(out.is_empty());
        // Object 3 is within L1 range of both earlier objects:
        // d(1,3) = 1.0 and d(2,3) = 0.6.
        engine.push_data(oid(3), Point::new(0.5, 0.5), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(oid(1), oid(3)), (oid(2), oid(3))]);
    }

    #[test]
    fn duplicate_locations_pair_up() {
        let mut engine = CellQueryEngine::new(0.5, DistanceMetric::Chebyshev);
        let mut out = Vec::new();
        engine.push_data(oid(1), Point::new(2.0, 2.0), &mut out);
        engine.push_data(oid(2), Point::new(2.0, 2.0), &mut out);
        assert_eq!(out, vec![(oid(1), oid(2))]);
    }

    #[test]
    fn canonical_orders_ids() {
        assert_eq!(canonical(oid(5), oid(3)), (oid(3), oid(5)));
        assert_eq!(canonical(oid(3), oid(5)), (oid(3), oid(5)));
        assert_eq!(canonical(oid(4), oid(4)), (oid(4), oid(4)));
    }

    #[test]
    fn query_cells_runs_each_cell_on_its_own() {
        let t = Timestamp(0);
        let (a, b) = (GridKey::new(0, 0), GridKey::new(1, 0));
        let at = Point::new(0.5, 0.5);
        // Interleaved cells, all objects at one location: pairs form only
        // within a cell.
        let mut objects = vec![
            GridObject::data(a, oid(1), at, t),
            GridObject::data(b, oid(2), at, t),
            GridObject::data(a, oid(3), at, t),
            GridObject::query(b, oid(4), at, t),
        ];
        let mut engine = CellQueryEngine::new(1.0, DistanceMetric::Chebyshev);
        let (mut out, mut loads) = (Vec::new(), Vec::new());
        query_cells(&mut engine, &mut objects, &mut out, |cell, load| {
            loads.push((cell, load))
        });
        out.sort_unstable();
        assert_eq!(out, vec![(oid(1), oid(3)), (oid(2), oid(4))]);
        loads.sort_unstable_by_key(|&(cell, _)| cell);
        let load = CellLoad {
            records: 2,
            pairs: 1,
        };
        assert_eq!(loads, vec![(a, load), (b, load)]);
    }

    /// One cell 64 ε wide holding 5 000 objects — the worst case for a
    /// nested loop — still sweeps exactly: each probe scans ≈ 2ε/lg of the
    /// cell.
    #[test]
    fn degenerate_occupancy_equals_brute_force_quickly() {
        let (eps, lg, n) = (1.0, 64.0, 5_000u64);
        let scatter = |i: u64, m: u64| (i.wrapping_mul(m) % 100_003) as f64 / 100_003.0 * lg;
        let snapshot = Snapshot::from_pairs(
            Timestamp(0),
            (0..n).map(|i| {
                let p = Point::new(scatter(i, 2_654_435_761), scatter(i, 40_503));
                (oid(i as u32), p)
            }),
        );
        let objects: Vec<GridObject> = snapshot
            .entries
            .iter()
            .map(|e| GridObject::data(GridKey::new(0, 0), e.id, e.location, snapshot.time))
            .collect();
        for metric in [
            DistanceMetric::L1,
            DistanceMetric::L2,
            DistanceMetric::Chebyshev,
        ] {
            let mut out = Vec::new();
            let started = Instant::now();
            CellQueryEngine::new(eps, metric).run_cell(&objects, &mut out);
            let elapsed = started.elapsed();
            out.sort_unstable();
            assert_eq!(out, naive_range_join(&snapshot, eps, metric));
            assert!(!out.is_empty());
            assert!(
                elapsed < Duration::from_secs(1),
                "{metric:?}: {elapsed:?} for one 5 000-object cell"
            );
        }
    }
}
