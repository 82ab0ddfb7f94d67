//! **GridAllocate** — Algorithm 1 of the paper.
//!
//! For every location of a snapshot, emit one *data object* for its home
//! cell and *query objects* for the other cells that may hold join partners.
//! With Lemma 1 only the cells intersecting the **upper half** of the range
//! region are probed, and of those only the cells after the home cell in
//! row-major order (`icpe_index::grid`): join symmetry recovers the lower
//! half and the home-row cells to the left, so every pair is found once.

use crate::gridobject::GridObject;
use icpe_index::Grid;
use icpe_types::Snapshot;

/// Algorithm 1: allocates a snapshot's locations to grid cells using the
/// Lemma-1 (upper-half) replication scheme.
pub fn grid_allocate(snapshot: &Snapshot, grid: &Grid, eps: f64) -> Vec<GridObject> {
    let mut out = Vec::with_capacity(snapshot.len() * 2);
    grid_allocate_into(snapshot, grid, eps, &mut out);
    out
}

/// [`grid_allocate`] appending to `out`: with a reused buffer, allocation
/// stops once `out` has grown to a window's size.
pub fn grid_allocate_into(snapshot: &Snapshot, grid: &Grid, eps: f64, out: &mut Vec<GridObject>) {
    let time = snapshot.time;
    for entry in &snapshot.entries {
        let (id, location) = (entry.id, entry.location);
        out.push(GridObject::data(grid.key_of(location), id, location, time));
        grid.for_each_lemma1_key(location, eps, |key| {
            out.push(GridObject::query(key, id, location, time));
        });
    }
}

/// The full-region variant (no Lemma 1): query objects are emitted for every
/// cell intersecting the complete range region. Used by the SRJ baseline and
/// by the Lemma-1 ablation bench.
pub fn grid_allocate_full(snapshot: &Snapshot, grid: &Grid, eps: f64) -> Vec<GridObject> {
    let mut out = Vec::with_capacity(snapshot.len() * 2);
    for entry in &snapshot.entries {
        let (id, location) = (entry.id, entry.location);
        out.push(GridObject::data(
            grid.key_of(location),
            id,
            location,
            snapshot.time,
        ));
        for key in grid.full_query_keys(location, eps) {
            out.push(GridObject::query(key, id, location, snapshot.time));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_types::{ObjectId, Point, Timestamp};

    fn snapshot_of(points: &[(u32, f64, f64)]) -> Snapshot {
        Snapshot::from_pairs(
            Timestamp(0),
            points
                .iter()
                .map(|&(id, x, y)| (ObjectId(id), Point::new(x, y))),
        )
    }

    #[test]
    fn each_location_gets_exactly_one_data_object() {
        let s = snapshot_of(&[(1, 0.5, 0.5), (2, 5.5, 5.5), (3, 0.6, 0.6)]);
        let grid = Grid::new(1.0);
        let objs = grid_allocate(&s, &grid, 0.3);
        let data: Vec<_> = objs.iter().filter(|o| !o.is_query).collect();
        assert_eq!(data.len(), 3);
        for d in data {
            assert_eq!(d.key, grid.key_of(d.location));
        }
    }

    #[test]
    fn query_objects_never_target_the_home_cell() {
        let s = snapshot_of(&[(1, 0.95, 0.95)]);
        let grid = Grid::new(1.0);
        for o in grid_allocate(&s, &grid, 0.2) {
            if o.is_query {
                assert_ne!(o.key, grid.key_of(o.location));
            }
        }
    }

    #[test]
    fn lemma1_emits_at_most_upper_half_cells() {
        // Centered point, eps < cell width: the upper half-region spans
        // ≤ 2 rows × ≤ 3 columns. The cell order keeps the home-row cell
        // right of home and the ≤ 3 cells of the row above → ≤ 4 query
        // objects; the full variant spans ≤ 9 cells → ≤ 8 query objects.
        let s = snapshot_of(&[(1, 10.5, 10.5)]);
        let grid = Grid::new(1.0);
        let lemma1 = grid_allocate(&s, &grid, 0.9);
        let full = grid_allocate_full(&s, &grid, 0.9);
        let q1 = lemma1.iter().filter(|o| o.is_query).count();
        let qf = full.iter().filter(|o| o.is_query).count();
        assert!(q1 <= 4, "lemma1 replicated to {q1} cells");
        assert!(qf <= 8, "full replicated to {qf} cells");
        assert!(q1 < qf, "Lemma 1 must replicate strictly less here");
    }

    #[test]
    fn replication_grows_with_eps() {
        let s = snapshot_of(&[(1, 50.0, 50.0)]);
        let grid = Grid::new(1.0);
        let small = grid_allocate(&s, &grid, 0.5).len();
        let large = grid_allocate(&s, &grid, 3.5).len();
        assert!(large > small);
    }

    #[test]
    fn empty_snapshot_allocates_nothing() {
        let s = Snapshot::new(Timestamp(4));
        let grid = Grid::new(1.0);
        assert!(grid_allocate(&s, &grid, 1.0).is_empty());
    }

    #[test]
    fn time_is_propagated() {
        let s = Snapshot::from_pairs(Timestamp(9), [(ObjectId(1), Point::new(0.0, 0.0))]);
        let grid = Grid::new(1.0);
        for o in grid_allocate(&s, &grid, 2.0) {
            assert_eq!(o.time, Timestamp(9));
        }
    }
}
