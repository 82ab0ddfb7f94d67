//! Property-based tests: R-tree ≡ brute force, grid coverage lemmas,
//! replication-scheme candidate pairs ≡ brute force.

use icpe_index::{GrIndex, Grid, GridKey, RTree};
use icpe_types::{DistanceMetric, ObjectId, Point, Rect};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_point() -> impl Strategy<Value = Point> {
    (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(), 0..max)
}

/// The ε-pairs a replication scheme discovers: a pair `(i, j)` is reported
/// iff the points are within Chebyshev ε **and** they meet in some cell —
/// one partner's home key lies in the other's `{home} ∪ query keys` set.
/// This mirrors the pipeline exactly (data object to the home cell, query
/// objects to the replication keys, exact ε check at the probe).
fn discovered_pairs(
    points: &[Point],
    eps: f64,
    keys_of: impl Fn(Point) -> (GridKey, Vec<GridKey>),
) -> BTreeSet<(usize, usize)> {
    let placed: Vec<(GridKey, Vec<GridKey>)> = points.iter().map(|&p| keys_of(p)).collect();
    let mut out = BTreeSet::new();
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if !DistanceMetric::Chebyshev.within(&points[i], &points[j], eps) {
                continue;
            }
            let (hi, ki) = &placed[i];
            let (hj, kj) = &placed[j];
            if hi == hj || ki.contains(hj) || kj.contains(hi) {
                out.insert((i, j));
            }
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

    /// The heart of Lemma 1: for any pair (a, b) within Chebyshev distance
    /// eps, at least one direction of the replication scheme finds the pair:
    /// either b's home cell is in a's Lemma-1 key set (or equals a's home),
    /// or a's home cell is in b's Lemma-1 key set (or equals b's home).
    #[test]
    fn lemma1_replication_covers_all_pairs(
        a in arb_point(),
        dx in -5.0f64..5.0,
        dy in -5.0f64..5.0,
        lg in 0.5f64..10.0,
        eps in 0.5f64..5.0,
    ) {
        let b = Point::new(a.x + dx.clamp(-eps, eps), a.y + dy.clamp(-eps, eps));
        prop_assert!(DistanceMetric::Chebyshev.within(&a, &b, eps + 1e-9));
        let g = Grid::new(lg);
        let home_a = g.key_of(a);
        let home_b = g.key_of(b);

        let a_reaches_b = home_a == home_b || g.lemma1_query_keys(a, eps).contains(&home_b);
        let b_reaches_a = home_b == home_a || g.lemma1_query_keys(b, eps).contains(&home_a);
        prop_assert!(
            a_reaches_b || b_reaches_a,
            "pair not covered: a={:?} (home {}), b={:?} (home {})",
            a, home_a, b, home_b
        );
    }

    /// Candidate pairs ≡ brute force: for arbitrary point sets and ε, the
    /// ε-pairs discovered through the Lemma-1 replication set and through
    /// the full-region set (SRJ's) are both exactly the brute-force
    /// ε-pairs — neither scheme drops a true pair.
    #[test]
    fn candidate_pairs_equal_brute_force(
        points in arb_points(40),
        lg in 0.5f64..10.0,
        eps in 0.5f64..5.0,
    ) {
        let g = Grid::new(lg);
        let mut brute = BTreeSet::new();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if DistanceMetric::Chebyshev.within(&points[i], &points[j], eps) {
                    brute.insert((i, j));
                }
            }
        }

        let lemma1 =
            discovered_pairs(&points, eps, |p| (g.key_of(p), g.lemma1_query_keys(p, eps)));
        let full = discovered_pairs(&points, eps, |p| (g.key_of(p), g.full_query_keys(p, eps)));

        prop_assert_eq!(&lemma1, &brute, "lemma1 ≠ brute force");
        prop_assert_eq!(&full, &brute, "full ≠ brute force");
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

    #[test]
    fn gr_index_range_query_equals_brute_force(
        points in arb_points(250),
        q in arb_point(),
        eps in 0.1f64..15.0,
        lg in 0.5f64..20.0,
    ) {
        let pairs: Vec<(ObjectId, Point)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u32), *p))
            .collect();
        let idx = GrIndex::build_from_pairs(pairs.clone(), lg);
        let metric = DistanceMetric::Chebyshev;
        let mut got: Vec<u32> = idx.range_query(&q, eps, metric).into_iter().map(|(id, _)| id.0).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = pairs.iter()
            .filter(|(_, p)| metric.within(&q, p, eps))
            .map(|(id, _)| id.0)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
