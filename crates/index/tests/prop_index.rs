//! Property-based tests: R-tree ≡ brute force, grid coverage lemmas,
//! replication-scheme candidate pairs ≡ brute force.

use icpe_index::{Grid, GridKey, RTree};
use icpe_types::{DistanceMetric, Point, Rect};
use proptest::prelude::*;

const METRICS: [DistanceMetric; 3] = [
    DistanceMetric::L1,
    DistanceMetric::L2,
    DistanceMetric::Chebyshev,
];

fn arb_point() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(), 0..max)
}

/// Dense point sets: many ε-pairs, many pairs straddling cell borders.
fn arb_cluster(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (-15.0f64..15.0, -15.0f64..15.0).prop_map(|(x, y)| Point::new(x, y)),
        0..max,
    )
}

/// The ε-pairs a replication scheme discovers, **with multiplicity**, as
/// the pipeline reports them: a data object goes to its home cell, query
/// objects to the replication keys, and each cell runs Lemma 2 — every
/// same-cell data pair once, every query object against the cell's data
/// objects — with the exact ε test under `metric` at the probe. Sorted,
/// since pairs are visited in `(i, j)` order.
fn discovered_pairs(
    points: &[Point],
    eps: f64,
    metric: DistanceMetric,
    keys_of: impl Fn(Point) -> (GridKey, Vec<GridKey>),
) -> Vec<(usize, usize)> {
    let placed: Vec<(GridKey, Vec<GridKey>)> = points.iter().map(|&p| keys_of(p)).collect();
    let mut out = Vec::new();
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if !metric.within(&points[i], &points[j], eps) {
                continue;
            }
            let (hi, ki) = &placed[i];
            let (hj, kj) = &placed[j];
            let found =
                usize::from(hi == hj) + usize::from(ki.contains(hj)) + usize::from(kj.contains(hi));
            out.extend(std::iter::repeat_n((i, j), found));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_insert_equals_brute_force(points in arb_points(300), q in arb_point(), eps in 0.1f64..30.0) {
        let mut tree = RTree::with_max_entries(8);
        for (i, p) in points.iter().enumerate() {
            tree.insert(*p, i);
        }
        tree.check_invariants();
        let rect = Rect::range_region(q, eps);
        let mut got: Vec<usize> = tree.query_rect_vec(&rect).iter().map(|(_, v)| **v).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = points.iter().enumerate()
            .filter(|(_, p)| rect.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rtree_bulk_load_equals_incremental(points in arb_points(300), q in arb_point(), eps in 0.1f64..30.0) {
        let mut inc = RTree::with_max_entries(8);
        for (i, p) in points.iter().enumerate() {
            inc.insert(*p, i);
        }
        let items: Vec<(Point, usize)> = points.iter().copied().zip(0..).collect();
        let bulk = RTree::bulk_load(items);
        if !points.is_empty() {
            bulk.check_invariants();
        }
        prop_assert_eq!(inc.len(), bulk.len());

        let rect = Rect::range_region(q, eps);
        let mut a: Vec<usize> = inc.query_rect_vec(&rect).iter().map(|(_, v)| **v).collect();
        let mut b: Vec<usize> = bulk.query_rect_vec(&rect).iter().map(|(_, v)| **v).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rtree_metric_query_equals_brute_force(
        points in arb_points(200),
        q in arb_point(),
        eps in 0.1f64..20.0,
        metric_idx in 0usize..3,
    ) {
        let metric = [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Chebyshev][metric_idx];
        let mut tree = RTree::with_max_entries(6);
        for (i, p) in points.iter().enumerate() {
            tree.insert(*p, i);
        }
        let mut out = Vec::new();
        tree.query_within(&q, eps, metric, &mut out);
        let mut got: Vec<usize> = out.iter().map(|(_, v)| **v).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = points.iter().enumerate()
            .filter(|(_, p)| metric.within(&q, p, eps))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn grid_key_is_consistent_with_cell_rect(p in arb_point(), lg in 0.05f64..20.0) {
        let g = Grid::new(lg);
        let key = g.key_of(p);
        let rect = g.cell_rect(key);
        // The point lies in its cell (half-open semantics may put boundary
        // points in the neighbor; containment check is closed, so inclusion
        // always holds on the closed rect).
        prop_assert!(rect.contains_point(&p), "point {:?} not in cell rect {:?}", p, rect);
        // The cell is among the keys covering any rect containing p.
        let covering = g.keys_in_rect(&Rect::range_region(p, 0.01));
        prop_assert!(covering.contains(&key));
    }

    /// The heart of Lemma 1 with the cell order: for any pair within ε under
    /// L1, L2 or Chebyshev whose home cells differ, the point whose home
    /// comes first in row-major `(y, x)` order sends a query object to the
    /// later home, and the later point never sends one to the earlier home
    /// — so the pair is found exactly once. (Same-home pairs are Lemma 2's,
    /// reported once in-cell.) `flat` pins both points to one `y`, the
    /// edge where the half-region's lower edge passes through the partner.
    #[test]
    fn lemma1_replication_covers_all_pairs(
        a in arb_point(),
        dx in -5.0f64..5.0,
        dy in -5.0f64..5.0,
        flat in prop::bool::ANY,
        lg in 0.5f64..10.0,
        eps in 0.5f64..5.0,
        metric_ix in 0usize..3,
    ) {
        let metric = METRICS[metric_ix];
        let dy = if flat { 0.0 } else { dy };
        // Scale the offset into the ε-ball of the metric.
        let d = Point::new(0.0, 0.0).distance(&Point::new(dx, dy), metric);
        let s = if d > eps { eps / d } else { 1.0 };
        let b = Point::new(a.x + dx * s, a.y + dy * s);
        if !metric.within(&a, &b, eps) {
            return; // rounding put the partner just outside ε
        }
        let g = Grid::new(lg);
        let (home_a, home_b) = (g.key_of(a), g.key_of(b));
        if home_a == home_b {
            return;
        }
        let ((early, early_home), (late, late_home)) =
            if (home_a.y, home_a.x) < (home_b.y, home_b.x) {
                ((a, home_a), (b, home_b))
            } else {
                ((b, home_b), (a, home_a))
            };
        prop_assert!(
            g.lemma1_query_keys(early, eps).contains(&late_home),
            "earlier {:?} (home {}) does not reach later {:?} (home {}) under {:?}",
            early, early_home, late, late_home, metric
        );
        prop_assert!(
            !g.lemma1_query_keys(late, eps).contains(&early_home),
            "later {:?} (home {}) reaches earlier {:?} (home {}): the pair is found twice",
            late, late_home, early, early_home
        );
    }

    /// Candidate pairs ≡ brute force, as multisets: for arbitrary point
    /// sets, all three metrics and ε both below and above the cell width,
    /// the Lemma-1 replication set finds every ε-pair exactly once. The
    /// full-region set (SRJ's) finds cross-cell pairs from both cells by
    /// design, so it is compared as a set. `lattice` snaps the points to a
    /// half-unit lattice: points on cell borders, shared rows and equal `y`.
    #[test]
    fn candidate_pairs_equal_brute_force(
        points in arb_cluster(60),
        lattice in prop::bool::ANY,
        lg in 0.5f64..10.0,
        eps in 0.5f64..5.0,
        metric_ix in 0usize..3,
    ) {
        let metric = METRICS[metric_ix];
        let points: Vec<Point> = if lattice {
            let snap = |v: f64| (v * 2.0).round() / 2.0;
            points.iter().map(|p| Point::new(snap(p.x), snap(p.y))).collect()
        } else {
            points
        };
        let g = Grid::new(lg);
        let mut brute = Vec::new();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if metric.within(&points[i], &points[j], eps) {
                    brute.push((i, j));
                }
            }
        }

        let lemma1 = discovered_pairs(&points, eps, metric, |p| {
            (g.key_of(p), g.lemma1_query_keys(p, eps))
        });
        let mut full = discovered_pairs(&points, eps, metric, |p| {
            (g.key_of(p), g.full_query_keys(p, eps))
        });
        full.dedup();

        prop_assert_eq!(&lemma1, &brute, "lemma1 ≠ brute force as a multiset ({:?})", metric);
        prop_assert_eq!(&full, &brute, "full ≠ brute force ({:?})", metric);
    }

    #[test]
    fn nearest_k_equals_brute_force(
        points in arb_points(200),
        q in arb_point(),
        k in 1usize..12,
        metric_idx in 0usize..3,
    ) {
        let metric = [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Chebyshev][metric_idx];
        let mut tree = RTree::with_max_entries(6);
        for (i, p) in points.iter().enumerate() {
            tree.insert(*p, i);
        }
        let got = tree.nearest_k(&q, k, metric);
        let mut want: Vec<f64> = points.iter().map(|p| p.distance(&q, metric)).collect();
        want.sort_by(f64::total_cmp);
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for ((_, _, d), w) in got.iter().zip(&want) {
            prop_assert!((d - w).abs() < 1e-9, "dist {} vs brute {}", d, w);
        }
        // Sorted ascending.
        prop_assert!(got.windows(2).all(|w| w[0].2 <= w[1].2));
    }
}
