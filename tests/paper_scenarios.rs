//! The paper's running examples, reconstructed geometrically and run
//! through the full system (not just the enumeration layer).

mod common;

use common::{drive, run_every_engine};
use icpe::core::{IcpeConfig, IcpeEngine};
use icpe::pattern::unique_object_sets;
use icpe::types::{Constraints, ObjectId, Pattern, Point, Snapshot, Timestamp};

/// Builds the Figure-2 trajectories as geometry: eight objects over eight
/// ticks whose DBSCAN clusters (ε = 1, minPts = 2, Chebyshev) reproduce the
/// figure's grouping. Positions: co-clustered objects are placed within ε
/// chains; others far apart.
fn fig2_snapshots() -> Vec<Snapshot> {
    // Per tick: list of groups; objects in the same group are placed close.
    let groups_per_tick: Vec<Vec<Vec<u32>>> = vec![
        vec![vec![1, 2], vec![3, 4], vec![5, 6, 7], vec![8]],
        vec![vec![1, 2], vec![3, 4, 5], vec![6, 7], vec![8]],
        vec![vec![2, 3, 4, 5, 6, 7, 8], vec![1]],
        vec![vec![1, 2], vec![3, 4, 5, 6, 7], vec![8]],
        vec![vec![1, 2], vec![4, 5], vec![6, 7], vec![3], vec![8]],
        vec![vec![3, 4, 5, 6], vec![7, 8], vec![1], vec![2]],
        vec![vec![1, 2], vec![4, 5, 6, 7], vec![3], vec![8]],
        vec![vec![5, 6, 7, 8], vec![1], vec![2], vec![3], vec![4]],
    ];
    groups_per_tick
        .into_iter()
        .enumerate()
        .map(|(t, groups)| {
            let mut entries = Vec::new();
            for (gi, group) in groups.iter().enumerate() {
                // Groups spaced 100 apart; members chained 0.8 apart (≤ ε).
                let gx = gi as f64 * 100.0;
                for (mi, &id) in group.iter().enumerate() {
                    entries.push((ObjectId(id), Point::new(gx + mi as f64 * 0.8, 0.0)));
                }
            }
            Snapshot::from_pairs(Timestamp(t as u32 + 1), entries)
        })
        .collect()
}

fn fig2_config(constraints: Constraints) -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(constraints)
        .epsilon(1.0)
        .min_pts(2)
        .build()
        .expect("valid config")
}

#[test]
fn fig2_cp_2_4_2_2_finds_o4o5_and_o6o7() {
    // §3.1: "if the current time is 5, {o4,o5} and {o6,o7} are CP(2,4,2,2)
    // patterns where T = ⟨2,3,4,5⟩".
    let cfg = fig2_config(Constraints::new(2, 4, 2, 2).expect("valid"));
    for (name, patterns) in run_every_engine(&cfg, &fig2_snapshots()) {
        let sets = unique_object_sets(&patterns);
        assert!(
            sets.contains(&vec![ObjectId(4), ObjectId(5)]),
            "{name}: {sets:?}"
        );
        assert!(
            sets.contains(&vec![ObjectId(6), ObjectId(7)]),
            "{name}: {sets:?}"
        );
    }
}

#[test]
fn fig2_cp_3_4_2_2_finds_o4o5o6_with_the_papers_witness() {
    // §3.1: "no CP(3,4,2,2) pattern exists until time 7, where {o4,o5,o6}
    // qualifies with T = ⟨3,4,6,7⟩".
    let patterns = drive(
        IcpeEngine::new(fig2_config(Constraints::new(3, 4, 2, 2).expect("valid"))),
        &fig2_snapshots(),
    );
    let target: Vec<ObjectId> = vec![ObjectId(4), ObjectId(5), ObjectId(6)];
    let found: Vec<&Pattern> = patterns.iter().filter(|p| p.objects == target).collect();
    assert!(!found.is_empty(), "{patterns:?}");
    // At least one report carries exactly the paper's witness sequence.
    let witness: Vec<u32> = vec![3, 4, 6, 7];
    assert!(
        found
            .iter()
            .any(|p| { p.times.times().iter().map(|t| t.0).collect::<Vec<_>>() == witness }),
        "no report with T = ⟨3,4,6,7⟩: {found:?}"
    );
    // And nothing qualifies strictly before time 7.
    for p in &patterns {
        if p.objects.len() >= 3 {
            assert!(p.times.max().unwrap().0 >= 7, "{p}");
        }
    }
}

#[test]
fn fig2_time3_dbscan_cluster_matches_the_paper() {
    // §3.2: at time 3 (ε as in the figure, minPts = 3), o3…o7 are cores,
    // o2 and o8 density-reachable: one cluster {o2,…,o8}.
    use icpe::cluster::{RjcClusterer, SnapshotClusterer};
    let snaps = fig2_snapshots();
    let clusterer = RjcClusterer::new(
        8.0,
        icpe::types::DbscanParams::new(1.0, 3).expect("valid"),
        icpe::types::DistanceMetric::Chebyshev,
    );
    let cs = clusterer.cluster(&snaps[2]); // time 3
    assert_eq!(cs.clusters.len(), 1);
    assert_eq!(
        cs.clusters[0].members(),
        (2..=8).map(ObjectId).collect::<Vec<_>>().as_slice()
    );
}

#[test]
fn fig1_prediction_patterns() {
    // Figure 1: P1 = {o1,o2}, P2 = {o3,o5}, P3 = {o4,o6} travel together
    // along different routes; o7 is independent. Reconstruct with three
    // parallel corridors.
    let mut snaps = Vec::new();
    for t in 0..10u32 {
        let x = t as f64 * 2.0;
        snaps.push(Snapshot::from_pairs(
            Timestamp(t),
            [
                (ObjectId(1), Point::new(x, 0.0)),
                (ObjectId(2), Point::new(x + 0.4, 0.2)),
                (ObjectId(3), Point::new(x, 50.0)),
                (ObjectId(5), Point::new(x + 0.4, 50.2)),
                (ObjectId(4), Point::new(x, 100.0)),
                (ObjectId(6), Point::new(x + 0.4, 100.2)),
                (ObjectId(7), Point::new(-x, 150.0)),
            ],
        ));
    }
    let cfg = IcpeConfig::builder()
        .constraints(Constraints::new(2, 6, 3, 2).expect("valid"))
        .epsilon(1.0)
        .min_pts(2)
        .build()
        .expect("valid config");
    let mut engine = IcpeEngine::new(cfg);
    let mut patterns = Vec::new();
    for s in snaps {
        patterns.extend(engine.push_snapshot(s));
    }
    patterns.extend(engine.finish());
    let sets = unique_object_sets(&patterns);
    assert_eq!(
        sets,
        vec![
            vec![ObjectId(1), ObjectId(2)],
            vec![ObjectId(3), ObjectId(5)],
            vec![ObjectId(4), ObjectId(6)],
        ]
    );
}
