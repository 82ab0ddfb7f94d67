//! Property-based tests: all three clustering methods ≡ the naive oracle on
//! random point sets, across metrics and grid widths.

use icpe_cluster::naive::{naive_dbscan, naive_range_join};
use icpe_cluster::{
    dbscan_from_pairs, GdcClusterer, RjcClusterer, SnapshotClusterer, SrjClusterer,
};
use icpe_types::{
    ClusterSnapshot, DbscanParams, DistanceMetric, ObjectId, Point, Snapshot, Timestamp,
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
