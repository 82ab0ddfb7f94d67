//! The global grid layer of the GR-index.
//!
//! Grid cells are the paper's distribution keys: records with the same cell
//! key are routed to the same `GridQuery` subtask. This module computes cell
//! keys (`⟨⌊x/lg⌋, ⌊y/lg⌋⟩`, §5.1 "Key Computation") and the replication key
//! sets of the range join:
//!
//! * [`Grid::lemma1_query_keys`] — the cells intersecting the **upper half**
//!   of the range region (Lemma 1) that come **after** the home cell in
//!   row-major `(y, x)` order, which suffice for a self-join and find every
//!   cross-cell pair exactly once;
//! * [`Grid::full_query_keys`] — the cells intersecting the **full** range
//!   region, used by the SRJ baseline (and by plain, non-join range queries).
//!
//! Why the cell order makes the join exactly-once: take two points within ε
//! whose home cells `A < B` differ. `B` holds the second point, so it meets
//! the first point's upper half-region (a later row lies above; a later
//! column of the same row meets the region's home-row strip), and it comes
//! after `A` — so the first point sends a query object to `B`. `A` comes
//! before `B`, so the second point never sends one to `A`. Same-cell pairs
//! are reported once by Lemma 2. This is the reference-point rule of
//! distributed spatial joins (Dittrich & Seeger, ICDE 2000) at cell
//! granularity; it drops only the home-row cells left of home from the
//! paper's set.
//!
//! A key is a uniform-grid cell and nothing finer: the adaptive balancer
//! moves whole cells between subtasks.

use icpe_types::{Point, Rect};
use std::fmt;

/// A grid cell key `⟨⌊x/lg⌋, ⌊y/lg⌋⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridKey {
    /// Column index.
    pub x: i64,
    /// Row index.
    pub y: i64,
}

impl GridKey {
    /// Creates a key from raw column/row indices.
    pub fn new(x: i64, y: i64) -> Self {
        GridKey { x, y }
    }
}

impl fmt::Display for GridKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.x, self.y)
    }
}

/// A uniform grid with cell width `lg`.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    cell_width: f64,
}

impl Grid {
    /// Creates a grid; `cell_width` must be positive and finite.
    pub fn new(cell_width: f64) -> Self {
        assert!(
            cell_width > 0.0 && cell_width.is_finite(),
            "grid cell width must be positive and finite, got {cell_width}"
        );
        Grid { cell_width }
    }

    /// The cell width `lg`.
    #[inline]
    pub fn cell_width(&self) -> f64 {
        self.cell_width
    }

    /// The key of the cell containing `p`.
    #[inline]
    pub fn key_of(&self, p: Point) -> GridKey {
        GridKey::new(
            (p.x / self.cell_width).floor() as i64,
            (p.y / self.cell_width).floor() as i64,
        )
    }

    /// The spatial extent of a cell.
    pub fn cell_rect(&self, key: GridKey) -> Rect {
        let w = self.cell_width;
        Rect::new(
            key.x as f64 * w,
            key.y as f64 * w,
            (key.x + 1) as f64 * w,
            (key.y + 1) as f64 * w,
        )
    }

    /// Calls `f` with the key of every cell that intersects `rect`, in
    /// row-major `(y, x)` order.
    #[inline]
    fn for_each_key_in_rect(&self, rect: &Rect, mut f: impl FnMut(GridKey)) {
        let w = self.cell_width;
        let x0 = (rect.min_x / w).floor() as i64;
        let x1 = (rect.max_x / w).floor() as i64;
        let y0 = (rect.min_y / w).floor() as i64;
        let y1 = (rect.max_y / w).floor() as i64;
        for y in y0..=y1 {
            for x in x0..=x1 {
                f(GridKey::new(x, y));
            }
        }
    }

    /// All cell keys whose cells intersect `rect`.
    pub fn keys_in_rect(&self, rect: &Rect) -> Vec<GridKey> {
        let mut out = Vec::new();
        self.for_each_key_in_rect(rect, |k| out.push(k));
        out
    }

    /// Calls `f` with each key of the Lemma 1 replication set of `p` (see
    /// [`Grid::lemma1_query_keys`]) without collecting them — the
    /// allocation-free walk GridAllocate runs per location.
    #[inline]
    pub fn for_each_lemma1_key(&self, p: Point, eps: f64, mut f: impl FnMut(GridKey)) {
        let home = self.key_of(p);
        self.for_each_key_in_rect(&Rect::padded_upper_range_region(p, eps), |k| {
            if (k.y, k.x) > (home.y, home.x) {
                f(k);
            }
        });
    }

    /// Lemma 1 replication set: the keys of the cells intersecting the upper
    /// half of the range region, `[x−ε, x+ε] × [y, y+ε]`, that come strictly
    /// **after** the home cell of `p` in row-major `(y, x)` order. The home
    /// cell receives `p` as a data object instead; the home-row cells left of
    /// home are the ones whose pairs with `p` are found from their side.
    pub fn lemma1_query_keys(&self, p: Point, eps: f64) -> Vec<GridKey> {
        let mut keys = Vec::new();
        self.for_each_lemma1_key(p, eps, |k| keys.push(k));
        keys
    }

    /// Full replication set (no Lemma 1): the keys of all cells intersecting
    /// the complete range region, excluding the home cell. Used by SRJ.
    pub fn full_query_keys(&self, p: Point, eps: f64) -> Vec<GridKey> {
        let home = self.key_of(p);
        let mut keys = self.keys_in_rect(&Rect::padded_range_region(p, eps));
        keys.retain(|&k| k != home);
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_key_example() {
        // §5.1: o5 = (4, 8) with lg = 3 → key ⟨1, 2⟩.
        let g = Grid::new(3.0);
        assert_eq!(g.key_of(Point::new(4.0, 8.0)), GridKey::new(1, 2));
    }

    #[test]
    fn keys_handle_negative_coordinates() {
        let g = Grid::new(2.0);
        assert_eq!(g.key_of(Point::new(-0.5, -3.5)), GridKey::new(-1, -2));
        assert_eq!(g.key_of(Point::new(0.0, 0.0)), GridKey::new(0, 0));
    }

    #[test]
    fn cell_rect_round_trips_key() {
        let g = Grid::new(2.5);
        for key in [GridKey::new(0, 0), GridKey::new(3, -2), GridKey::new(-4, 7)] {
            let r = g.cell_rect(key);
            // Center of the cell maps back to the key.
            assert_eq!(g.key_of(r.center()), key);
        }
    }

    #[test]
    fn keys_in_rect_covers_the_rect() {
        let g = Grid::new(1.0);
        let keys = g.keys_in_rect(&Rect::new(0.5, 0.5, 2.5, 1.5));
        // x ∈ {0,1,2}, y ∈ {0,1}
        assert_eq!(keys.len(), 6);
        assert!(keys.contains(&GridKey::new(2, 1)));
        assert!(keys.contains(&GridKey::new(0, 0)));
    }

    #[test]
    fn lemma1_keys_cover_upper_half_only() {
        // p = (1.5, 1.5) is the center of cell (1,1); with eps = 0.5 the
        // upper half-region [x−ε, x+ε] × [y, y+ε] is [1.0, 2.0] × [1.5, 2.0],
        // touching columns {1,2} × rows {1,2} exactly. The assertions below
        // check: the home cell (1,1) is excluded, the three other overlapped
        // cells (2,1), (1,2), (2,2) are present, the boundary pad may add at
        // most the column to the left in the row above (region edge sits
        // exactly on x = 1.0, so ≤ 4 keys total), no key lies below the home
        // row, and the home-row cell left of home is not in the set — it
        // comes before home in the cell order.
        let g = Grid::new(1.0);
        let p = Point::new(1.5, 1.5);
        let keys = g.lemma1_query_keys(p, 0.5);
        assert!(!keys.contains(&GridKey::new(1, 1)), "home excluded");
        for k in [GridKey::new(2, 1), GridKey::new(1, 2), GridKey::new(2, 2)] {
            assert!(keys.contains(&k), "missing {k}");
        }
        assert!(keys.len() <= 4);
        assert!(keys.iter().all(|k| k.y >= 1), "no cells below the home row");
        assert!(
            !keys.contains(&GridKey::new(0, 1)),
            "the home-row cell left of home is earlier in the cell order"
        );
    }

    #[test]
    fn lemma1_keys_all_come_after_home() {
        // ε wider than the cell: the region spans several columns on each
        // side of home, and only the cells after home stay.
        let g = Grid::new(1.0);
        let p = Point::new(5.5, 5.5);
        let home = g.key_of(p);
        let keys = g.lemma1_query_keys(p, 2.2);
        assert!(keys.iter().all(|k| (k.y, k.x) > (home.y, home.x)));
        for x in 6..=7 {
            assert!(
                keys.contains(&GridKey::new(x, 5)),
                "home row, right of home"
            );
        }
        for x in 3..=7 {
            assert!(keys.contains(&GridKey::new(x, 6)), "row above, all columns");
        }
    }

    #[test]
    fn lemma1_is_a_subset_of_full_keys() {
        let g = Grid::new(3.0);
        let p = Point::new(10.3, 22.9);
        let eps = 4.2;
        let full = g.full_query_keys(p, eps);
        for k in g.lemma1_query_keys(p, eps) {
            assert!(full.contains(&k));
        }
        // Full region also covers cells strictly below the home row.
        assert!(full.len() > g.lemma1_query_keys(p, eps).len());
    }

    #[test]
    fn paper_o9_example_full_region() {
        // §5.2: o9's range region intersects g5, g6, g9, g10 (a 2×2 block).
        // Model: cell width 3, o9 near the top-left corner of cell ⟨1,1⟩.
        let g = Grid::new(3.0);
        let o9 = Point::new(3.5, 5.5);
        let eps = 1.0;
        let mut full: Vec<GridKey> = g.keys_in_rect(&Rect::range_region(o9, eps));
        full.sort();
        assert_eq!(
            full,
            vec![
                GridKey::new(0, 1),
                GridKey::new(0, 2),
                GridKey::new(1, 1),
                GridKey::new(1, 2),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "grid cell width")]
    fn zero_cell_width_panics() {
        Grid::new(0.0);
    }
}
