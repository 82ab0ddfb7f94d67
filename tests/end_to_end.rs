//! Cross-crate integration: generators → clustering → enumeration, in both
//! deployment forms, validated against the exhaustive oracle.

mod common;

use common::run_every_engine;
use icpe::core::{IcpeConfig, IcpeEngine, IcpePipeline};
use icpe::gen::{GroupWalkConfig, GroupWalkGenerator};
use icpe::pattern::reference::ExhaustiveMiner;
use icpe::pattern::{unique_object_sets, Semantics};
use icpe::types::{Constraints, ObjectId, Pattern, Snapshot};

fn workload(gap_len: u32, seed: u64) -> (GroupWalkGenerator, Vec<Snapshot>) {
    let gen = GroupWalkGenerator::new(GroupWalkConfig {
        num_objects: 36,
        num_groups: 3,
        group_size: 5,
        num_snapshots: 50,
        active_len: 12,
        gap_len,
        cohesion_radius: 0.6,
        dispersal_radius: 40.0,
        seed,
        ..GroupWalkConfig::default()
    });
    let snaps = gen.snapshots();
    (gen, snaps)
}

fn config() -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(Constraints::new(4, 15, 6, 4).expect("valid"))
        .epsilon(1.8)
        .min_pts(4)
        .parallelism(3)
        .build()
        .expect("valid config")
}

fn run_sync(cfg: &IcpeConfig, snaps: &[Snapshot]) -> Vec<Pattern> {
    common::drive(IcpeEngine::new(cfg.clone()), snaps)
}

#[test]
fn planted_groups_are_recovered_by_every_engine() {
    let (gen, snaps) = workload(0, 21);
    for (name, patterns) in run_every_engine(&config(), &snaps) {
        let sets = unique_object_sets(&patterns);
        for group in gen.planted_groups() {
            assert!(
                sets.contains(&group),
                "{name} missed planted group {group:?}"
            );
        }
    }
}

#[test]
fn episodic_groups_respect_temporal_constraints() {
    // With on/off episodes (12 on, 5 off > G=4), patterns must not span the
    // dispersal gaps.
    let gen = GroupWalkGenerator::new(GroupWalkConfig {
        num_objects: 24,
        num_groups: 2,
        group_size: 5,
        num_snapshots: 60,
        active_len: 12,
        gap_len: 5,
        cohesion_radius: 0.6,
        dispersal_radius: 50.0,
        seed: 33,
        ..GroupWalkConfig::default()
    });
    let snaps = gen.snapshots();
    // K = 10 fits inside one 12-tick episode; the 5-tick dispersal gap
    // exceeds G = 4, so no sequence may bridge episodes.
    let cfg = IcpeConfig::builder()
        .constraints(Constraints::new(4, 10, 6, 4).expect("valid"))
        .epsilon(1.8)
        .min_pts(4)
        .build()
        .expect("valid config");
    let patterns = run_sync(&cfg, &snaps);
    assert!(!patterns.is_empty());
    for p in &patterns {
        assert!(p.satisfies(&cfg.constraints), "{p}");
        // Witness must lie within a single active episode (period 17).
        let first = p.times.min().unwrap().0;
        let last = p.times.max().unwrap().0;
        assert_eq!(first / 17, last / 17, "pattern bridges episodes: {p}");
    }
}

#[test]
fn all_engines_match_the_oracle_on_the_cluster_stream() {
    let (_, snaps) = workload(3, 55);
    // Cluster once with RJC, mine with all engines + oracle.
    let clusterer = icpe::cluster::RjcClusterer::new(
        14.4,
        icpe::types::DbscanParams::new(1.8, 4).expect("valid"),
        icpe::types::DistanceMetric::Chebyshev,
    );
    use icpe::cluster::SnapshotClusterer;
    let stream: Vec<_> = snaps.iter().map(|s| clusterer.cluster(s)).collect();

    let constraints = Constraints::new(4, 15, 6, 4).expect("valid");
    let mut miner = ExhaustiveMiner::new();
    for cs in &stream {
        miner.push(cs.clone());
    }
    let oracle = miner.mine_object_sets(&constraints, Semantics::Subsequence);

    use icpe::pattern::{BaselineEngine, EngineConfig, FbaEngine, PatternEngine, VbaEngine};
    let ec = EngineConfig::new(constraints);
    let engines: Vec<Box<dyn PatternEngine>> = vec![
        Box::new(BaselineEngine::new(ec)),
        Box::new(FbaEngine::new(ec)),
        Box::new(VbaEngine::new(ec)),
    ];
    for mut engine in engines {
        let mut out = Vec::new();
        for cs in &stream {
            out.extend(engine.push(cs));
        }
        out.extend(engine.finish());
        assert_eq!(
            unique_object_sets(&out),
            oracle,
            "{} disagrees with oracle",
            engine.name()
        );
    }
}

#[test]
fn pipeline_equals_sync_engine_on_generated_workloads() {
    let (_, snaps) = workload(3, 77);
    let cfg = config();
    let sync_sets = unique_object_sets(&run_sync(&cfg, &snaps));

    // Convert snapshots back into a record stream for the pipeline.
    let mut records = Vec::new();
    for s in &snaps {
        for e in &s.entries {
            records.push(icpe::types::GpsRecord::new(
                e.id,
                e.location,
                s.time,
                e.last_time,
            ));
        }
    }
    let out = IcpePipeline::run(&cfg, records);
    assert_eq!(unique_object_sets(&out.patterns), sync_sets);
    assert_eq!(out.metrics.snapshots, snaps.len());
}

#[test]
fn noise_objects_never_form_patterns() {
    // All noise (zero groups): no pattern should survive CP(4, 15, 6, 4).
    let gen = GroupWalkGenerator::new(GroupWalkConfig {
        num_objects: 30,
        num_groups: 0,
        group_size: 1,
        num_snapshots: 40,
        area: 400.0, // sparse
        seed: 91,
        ..GroupWalkConfig::default()
    });
    let patterns = run_sync(&config(), &gen.snapshots());
    let sets = unique_object_sets(&patterns);
    // With a sparse arena random walkers may briefly cluster, but holding
    // together for K=15 of 40 ticks is (deterministically, for this seed)
    // impossible.
    assert!(sets.is_empty(), "phantom patterns: {sets:?}");
}

#[test]
fn subsets_of_discovered_groups_also_qualify() {
    let (gen, snaps) = workload(0, 101);
    let sets = unique_object_sets(&run_sync(&config(), &snaps));
    // For each planted 5-group, each of its 5 4-subsets must also appear
    // (M = 4): Definition 4 is monotone downward on the object set.
    for group in gen.planted_groups() {
        for skip in 0..group.len() {
            let subset: Vec<ObjectId> = group
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, &o)| o)
                .collect();
            assert!(sets.contains(&subset), "missing subset {subset:?}");
        }
    }
}
