//! Failure injection and robustness of the streaming deployment: disorder,
//! skew, degenerate parameters, empty input.

use icpe::core::{IcpeConfig, IcpePipeline};
use icpe::gen::{
    disorder_gps, BrinkhoffConfig, BrinkhoffGenerator, DisorderConfig, GroupWalkConfig,
    GroupWalkGenerator,
};
use icpe::pattern::unique_object_sets;
use icpe::types::{Constraints, GpsRecord, ObjectId, Point, Timestamp};

fn base_config() -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(Constraints::new(2, 8, 4, 2).expect("valid"))
        .epsilon(1.5)
        .min_pts(2)
        .parallelism(4)
        .build()
        .expect("valid config")
}

#[test]
fn disorder_injection_does_not_change_results() {
    let gen = BrinkhoffGenerator::new(BrinkhoffConfig {
        num_objects: 60,
        num_ticks: 60,
        seed: 5,
        ..BrinkhoffConfig::default()
    });
    let ordered = gen.traces().to_gps_records();
    let clean = unique_object_sets(&IcpePipeline::run(&base_config(), ordered.clone()).patterns);

    for (prob, disp, seed) in [(0.1, 16, 1u64), (0.3, 48, 2), (0.5, 60, 3)] {
        let shuffled = disorder_gps(
            ordered.clone(),
            DisorderConfig {
                delay_probability: prob,
                max_displacement: disp,
                seed,
            },
        );
        let messy = unique_object_sets(&IcpePipeline::run(&base_config(), shuffled).patterns);
        assert_eq!(
            messy, clean,
            "disorder p={prob} disp={disp} changed results"
        );
    }
}

#[test]
fn heavily_skewed_keys_still_complete() {
    // Every object in one grid cell: a single GridQuery subtask receives
    // all the work; the pipeline must still finish and find the group.
    let mut records = Vec::new();
    for t in 0..20u32 {
        let last = (t > 0).then(|| Timestamp(t - 1));
        for i in 0..12u32 {
            records.push(GpsRecord::new(
                ObjectId(i),
                Point::new(0.2 + (i as f64) * 0.05, 0.3),
                Timestamp(t),
                last,
            ));
        }
    }
    let out = IcpePipeline::run(&base_config(), records);
    let sets = unique_object_sets(&out.patterns);
    assert!(!sets.is_empty());
    assert_eq!(out.metrics.snapshots, 20);
}

#[test]
fn degenerate_constraints_run() {
    // The smallest legal constraint set: CP(2, 1, 1, 1).
    let cfg = IcpeConfig::builder()
        .constraints(Constraints::new(2, 1, 1, 1).expect("valid"))
        .epsilon(1.0)
        .min_pts(2)
        .parallelism(2)
        .build()
        .expect("valid config");
    let mut records = Vec::new();
    for t in 0..5u32 {
        let last = (t > 0).then(|| Timestamp(t - 1));
        records.push(GpsRecord::new(
            ObjectId(1),
            Point::new(0.0, 0.0),
            Timestamp(t),
            last,
        ));
        records.push(GpsRecord::new(
            ObjectId(2),
            Point::new(0.5, 0.5),
            Timestamp(t),
            last,
        ));
    }
    let out = IcpePipeline::run(&cfg, records);
    let sets = unique_object_sets(&out.patterns);
    assert_eq!(sets, vec![vec![ObjectId(1), ObjectId(2)]]);
}

#[test]
fn objects_appearing_and_disappearing_mid_stream() {
    let mut records = Vec::new();
    // Object 1 reports the whole stream; object 2 joins at t=10 and leaves
    // at t=25; both co-located throughout 10..=25.
    for t in 0..40u32 {
        let last1 = (t > 0).then(|| Timestamp(t - 1));
        records.push(GpsRecord::new(
            ObjectId(1),
            Point::new(1.0, 1.0),
            Timestamp(t),
            last1,
        ));
        if (10..=25).contains(&t) {
            let last2 = (t > 10).then(|| Timestamp(t - 1));
            records.push(GpsRecord::new(
                ObjectId(2),
                Point::new(1.3, 1.1),
                Timestamp(t),
                last2,
            ));
        }
    }
    let out = IcpePipeline::run(&base_config(), records);
    let sets = unique_object_sets(&out.patterns);
    assert_eq!(sets, vec![vec![ObjectId(1), ObjectId(2)]]);
    // Witness times must fall inside the co-presence interval.
    for p in &out.patterns {
        for t in p.times.times() {
            assert!((10..=25).contains(&t.0), "{p}");
        }
    }
}

#[test]
fn vba_latency_tradeoff_is_observable() {
    // VBA reports patterns only after episodes close (Lemma 7); FBA reports
    // them as soon as the η-window completes. On a stream that keeps a group
    // together until the very end, FBA reports during the run while VBA
    // reports at finish() — the §6.3 latency-for-throughput trade.
    let gen = GroupWalkGenerator::new(GroupWalkConfig {
        num_objects: 12,
        num_groups: 1,
        group_size: 4,
        num_snapshots: 40,
        cohesion_radius: 0.5,
        seed: 17,
        ..GroupWalkConfig::default()
    });
    let snaps = gen.snapshots();

    use icpe::cluster::RjcClusterer;
    use icpe::core::IcpeEngine;
    use icpe::pattern::VbaEngine;
    let cfg = IcpeConfig::builder()
        .constraints(Constraints::new(3, 10, 5, 2).expect("valid"))
        .epsilon(1.5)
        .min_pts(3)
        .build()
        .expect("valid config");
    let mut vba = IcpeEngine::with_parts(
        RjcClusterer::new(cfg.lg, cfg.dbscan, cfg.metric),
        VbaEngine::new(cfg.engine_config()),
    );
    let mut fba = IcpeEngine::new(cfg);
    let mut fba_mid = 0usize;
    let mut vba_mid = 0usize;
    for s in &snaps {
        fba_mid += fba.push_snapshot(s.clone()).len();
        vba_mid += vba.push_snapshot(s.clone()).len();
    }
    let fba_end = fba.finish().len();
    let vba_end = vba.finish().len();
    assert!(fba_mid > 0, "FBA must report during the stream");
    assert_eq!(vba_mid, 0, "VBA must hold open episodes");
    assert!(vba_end > 0, "VBA must report at closure");
    assert!(fba_mid + fba_end > 0 && vba_mid + vba_end > 0);
}

#[test]
fn single_record_stream() {
    let records = vec![GpsRecord::new(
        ObjectId(1),
        Point::new(0.0, 0.0),
        Timestamp(0),
        None,
    )];
    let out = IcpePipeline::run(&base_config(), records);
    assert!(out.patterns.is_empty());
}
