//! Property-based tests: all three clustering methods ≡ the naive oracle on
//! random point sets, across metrics and grid widths; GridQuery's per-cell
//! sweep ≡ brute force ≡ the R-tree engine it replaced.

use icpe_cluster::naive::{naive_dbscan, naive_range_join};
use icpe_cluster::query::{canonical, NeighborPair};
use icpe_cluster::{
    dbscan_from_pairs, CellQueryEngine, GdcClusterer, GridObject, RjcClusterer, SnapshotClusterer,
    SrjClusterer,
};
use icpe_index::{GridKey, RTree};
use icpe_types::{
    ClusterSnapshot, DbscanParams, DistanceMetric, ObjectId, Point, Rect, Snapshot, Timestamp,
};
use proptest::prelude::*;

fn snapshot_strategy(max_points: usize) -> impl Strategy<Value = Snapshot> {
    prop::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 0..max_points).prop_map(|pts| {
        Snapshot::from_pairs(
            Timestamp(0),
            pts.into_iter()
                .enumerate()
                .map(|(i, (x, y))| (ObjectId(i as u32), Point::new(x, y))),
        )
    })
}

fn metric_strategy() -> impl Strategy<Value = DistanceMetric> {
    prop::sample::select(vec![
        DistanceMetric::L1,
        DistanceMetric::L2,
        DistanceMetric::Chebyshev,
    ])
}

/// Cluster snapshots are comparable after normalization; border points can
/// legitimately attach to different (adjacent) clusters, so compare the
/// member multiset and the cluster count.
fn comparable(cs: &ClusterSnapshot) -> (usize, Vec<ObjectId>) {
    let mut members: Vec<ObjectId> = cs
        .clusters
        .iter()
        .flat_map(|c| c.members().iter().copied())
        .collect();
    members.sort_unstable();
    (cs.clusters.len(), members)
}

/// A seeded Fisher–Yates shuffle (xorshift64; the shim has no shuffle
/// strategy).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// The grid width of the kernel properties' cells; ε is drawn below, at and
/// above `CELL_LG / 8`, the ratio the deployment runs at.
const CELL_LG: f64 = 8.0;

/// One cell's grid objects (shuffled, data and query interleaved, unique
/// ids) and an ε. Locations are either continuous or on a lattice of
/// `CELL_LG / steps` — a multiple of most ε values, so pairs at exactly ε,
/// equal `x` coordinates and duplicate locations are common (`steps = 1`
/// puts the whole cell on one location). ε = 0 is the exact-duplicate
/// join; at the origin its rounding pad vanishes too, so there the range
/// rectangle's edges are the sweep's exact bounds.
fn cell_strategy() -> impl Strategy<Value = (Vec<GridObject>, f64)> {
    let objects = prop::collection::vec(
        (
            0u32..32,
            0u32..32,
            0.0f64..CELL_LG,
            0.0f64..CELL_LG,
            prop::bool::weighted(0.3),
        ),
        0..60,
    );
    (
        objects,
        prop::sample::select(vec![0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 6.5]),
        prop::sample::select(vec![1u32, 2, 4, 32]),
        prop::sample::select(vec![0.0, 0.0, -CELL_LG, 1000.0]),
        prop::bool::weighted(0.75),
        0u64..1_000_000,
    )
        .prop_map(|(objects, eps, steps, origin, lattice, seed)| {
            let step = CELL_LG / f64::from(steps);
            let cell = (origin / CELL_LG).floor() as i64;
            let key = GridKey::new(cell, cell);
            let mut objects: Vec<GridObject> = objects
                .into_iter()
                .enumerate()
                .map(|(i, (kx, ky, fx, fy, is_query))| {
                    let (x, y) = if lattice {
                        (f64::from(kx % steps) * step, f64::from(ky % steps) * step)
                    } else {
                        (fx, fy)
                    };
                    let (id, at) = (ObjectId(i as u32), Point::new(origin + x, origin + y));
                    if is_query {
                        GridObject::query(key, id, at, Timestamp(0))
                    } else {
                        GridObject::data(key, id, at, Timestamp(0))
                    }
                })
                .collect();
            shuffle(&mut objects, seed);
            (objects, eps)
        })
}

/// The R-tree's range predicate, `center` probing `p`.
fn in_range(center: Point, p: Point, eps: f64, metric: DistanceMetric) -> bool {
    Rect::padded_range_region(center, eps).contains_point(&p) && metric.within(&center, &p, eps)
}

/// Every data–data pair once (the later-listed object probing) plus every
/// query–data pair, by exhaustive test; sorted.
fn brute_force_cell(objects: &[GridObject], eps: f64, metric: DistanceMetric) -> Vec<NeighborPair> {
    let data: Vec<&GridObject> = objects.iter().filter(|o| !o.is_query).collect();
    let mut out = Vec::new();
    for (j, b) in data.iter().enumerate() {
        for a in &data[..j] {
            if in_range(b.location, a.location, eps, metric) {
                out.push(canonical(a.id, b.id));
            }
        }
    }
    for q in objects.iter().filter(|o| o.is_query) {
        for d in &data {
            if d.id != q.id && in_range(q.location, d.location, eps, metric) {
                out.push(canonical(q.id, d.id));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The R-tree engine GridQuery ran before the sweep: data objects in input
/// order probe the tree, then are inserted (Lemma 2); query objects probe
/// the full tree. Sorted.
fn rtree_cell(objects: &[GridObject], eps: f64, metric: DistanceMetric) -> Vec<NeighborPair> {
    let mut tree: RTree<ObjectId> = RTree::new();
    let (mut hits, mut out) = (Vec::new(), Vec::new());
    let data = objects.iter().filter(|o| !o.is_query);
    for o in data.chain(objects.iter().filter(|o| o.is_query)) {
        hits.clear();
        tree.query_payloads_within(&o.location, eps, metric, &mut hits);
        out.extend(
            hits.iter()
                .filter(|&&h| h != o.id)
                .map(|&h| canonical(o.id, h)),
        );
        if !o.is_query {
            tree.insert(o.location, o.id);
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rjc_join_equals_naive(
        snap in snapshot_strategy(120),
        eps in 0.1f64..8.0,
        lg in 0.5f64..15.0,
        metric in metric_strategy(),
    ) {
        let rjc = RjcClusterer::new(lg, DbscanParams::new(eps, 3).unwrap(), metric);
        prop_assert_eq!(rjc.range_join(&snap), naive_range_join(&snap, eps, metric));
    }

    #[test]
    fn srj_join_equals_naive(
        snap in snapshot_strategy(100),
        eps in 0.1f64..8.0,
        lg in 0.5f64..15.0,
        metric in metric_strategy(),
    ) {
        let srj = SrjClusterer::new(lg, DbscanParams::new(eps, 3).unwrap(), metric);
        prop_assert_eq!(srj.range_join(&snap), naive_range_join(&snap, eps, metric));
    }

    #[test]
    fn gdc_join_equals_naive(
        snap in snapshot_strategy(100),
        eps in 0.1f64..8.0,
        metric in metric_strategy(),
    ) {
        let gdc = GdcClusterer::new(DbscanParams::new(eps, 3).unwrap(), metric);
        prop_assert_eq!(gdc.range_join(&snap), naive_range_join(&snap, eps, metric));
    }

    #[test]
    fn all_methods_cluster_identically(
        snap in snapshot_strategy(90),
        eps in 0.2f64..6.0,
        lg in 0.5f64..12.0,
        min_pts in 1usize..8,
    ) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let metric = DistanceMetric::Chebyshev;
        let rjc = RjcClusterer::new(lg, params, metric).cluster(&snap);
        let srj = SrjClusterer::new(lg, params, metric).cluster(&snap);
        let gdc = GdcClusterer::new(params, metric).cluster(&snap);
        let oracle = naive_dbscan(&snap, &params, metric);

        prop_assert_eq!(comparable(&rjc), comparable(&oracle));
        prop_assert_eq!(comparable(&srj), comparable(&oracle));
        prop_assert_eq!(comparable(&gdc), comparable(&oracle));
    }

    /// Core points (whose cluster assignment is deterministic) must be
    /// grouped identically by RJC and the oracle: same partition, not just
    /// the same membership multiset.
    #[test]
    fn rjc_core_partition_matches_oracle(
        snap in snapshot_strategy(80),
        eps in 0.2f64..6.0,
        min_pts in 2usize..6,
    ) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let metric = DistanceMetric::Chebyshev;
        let detailed = RjcClusterer::new(3.0, params, metric).cluster_detailed(&snap);
        let oracle = naive_dbscan(&snap, &params, metric);

        // Map each core to its cluster index in both partitions; the induced
        // equivalence relations over cores must coincide.
        let core_set: std::collections::HashSet<ObjectId> =
            detailed.cores.iter().copied().collect();
        let cluster_of = |cs: &ClusterSnapshot, id: ObjectId| -> Option<usize> {
            cs.clusters.iter().position(|c| c.contains(id))
        };
        for &a in &detailed.cores {
            for &b in &detailed.cores {
                if core_set.contains(&a) && core_set.contains(&b) {
                    let same_rjc =
                        cluster_of(&detailed.snapshot, a) == cluster_of(&detailed.snapshot, b);
                    let same_oracle = cluster_of(&oracle, a) == cluster_of(&oracle, b);
                    prop_assert_eq!(same_rjc, same_oracle,
                        "cores {:?} {:?} grouped differently", a, b);
                }
            }
        }
    }

    /// DBSCAN depends on the pair multiset only: the pipeline hands it the
    /// grid-query subtasks' pairs in tree arrival order, unsorted, so any
    /// permutation of the pair list must leave the whole outcome —
    /// clusters, cores, borders, noise — identical.
    #[test]
    fn dbscan_from_pairs_is_pair_order_invariant(
        snap in snapshot_strategy(100),
        eps in 0.2f64..6.0,
        min_pts in 1usize..8,
        metric in metric_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let ids: Vec<ObjectId> = snap.entries.iter().map(|e| e.id).collect();
        let sorted = naive_range_join(&snap, eps, metric);
        let want = dbscan_from_pairs(snap.time, &ids, &sorted, &params);
        let mut permuted = sorted.clone();
        shuffle(&mut permuted, seed);
        prop_assert_eq!(dbscan_from_pairs(snap.time, &ids, &permuted, &params), want);
        permuted.reverse();
        prop_assert_eq!(dbscan_from_pairs(snap.time, &ids, &permuted, &params), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// GridQuery's kernel: on any cell, a reused engine (`clear` +
    /// `run_cell`) reports exactly the brute-force pair multiset, and
    /// exactly the R-tree engine's.
    #[test]
    fn cell_sweep_equals_brute_force_and_rtree(
        (objects, eps) in cell_strategy(),
        (previous, _) in cell_strategy(),
        metric in metric_strategy(),
    ) {
        let mut engine = CellQueryEngine::new(eps, metric);
        engine.run_cell(&previous, &mut Vec::new());
        engine.clear();
        let mut got = Vec::new();
        engine.run_cell(&objects, &mut got);
        got.sort_unstable();
        prop_assert_eq!(&got, &brute_force_cell(&objects, eps, metric));
        prop_assert_eq!(&got, &rtree_cell(&objects, eps, metric));
    }

    /// The incremental API shares the sweep's storage: data objects pushed
    /// one by one in any order (then the query objects) report the same
    /// pair multiset as `run_cell`.
    #[test]
    fn unsorted_pushes_equal_run_cell(
        (objects, eps) in cell_strategy(),
        metric in metric_strategy(),
    ) {
        let mut want = Vec::new();
        CellQueryEngine::new(eps, metric).run_cell(&objects, &mut want);
        want.sort_unstable();
        let mut engine = CellQueryEngine::new(eps, metric);
        let mut got = Vec::new();
        let (queries, data): (Vec<&GridObject>, Vec<&GridObject>) =
            objects.iter().partition(|o| o.is_query);
        for o in &data {
            engine.push_data(o.id, o.location, &mut got);
        }
        for o in &queries {
            engine.push_query(o.id, o.location, &mut got);
        }
        got.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(engine.len(), data.len());
    }
}
