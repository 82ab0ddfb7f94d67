//! Property-based end-to-end test: the distributed pipeline (which
//! enumerates with FBA) and the synchronous engine report identical pattern
//! sets on randomized planted workloads, whichever enumeration engine the
//! synchronous side runs, at any parallelism — so BA and VBA stay
//! cross-checked against the live engine.

use icpe_cluster::{RjcClusterer, SnapshotClusterer};
use icpe_core::{IcpeConfig, IcpeEngine, IcpePipeline};
use icpe_gen::{GroupWalkConfig, GroupWalkGenerator};
use icpe_pattern::{unique_object_sets, BaselineEngine, PatternEngine, VbaEngine};
use icpe_types::{Constraints, GpsRecord, Pattern, Snapshot};
use proptest::prelude::*;

/// Every pattern `engine` reports on `snaps`, end-of-stream flush included.
fn drive<C: SnapshotClusterer, E: PatternEngine>(
    mut engine: IcpeEngine<C, E>,
    snaps: &[Snapshot],
) -> Vec<Pattern> {
    let mut out = Vec::new();
    for s in snaps {
        out.extend(engine.push_snapshot(s.clone()));
    }
    out.extend(engine.finish());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_equals_engine_on_random_workloads(
        seed in 0u64..1_000,
        num_groups in 1usize..4,
        group_size in 3usize..6,
        gap_len in 0u32..4,
        parallelism in 1usize..5,
        kind_idx in 0usize..3,
    ) {
        let gen = GroupWalkGenerator::new(GroupWalkConfig {
            num_objects: num_groups * group_size + 8,
            num_groups,
            group_size,
            num_snapshots: 30,
            active_len: 10,
            gap_len,
            cohesion_radius: 0.6,
            seed,
            ..GroupWalkConfig::default()
        });
        let snaps = gen.snapshots();
        let config = IcpeConfig::builder()
            .constraints(Constraints::new(3, 8, 4, 3).expect("valid"))
            .epsilon(1.6)
            .min_pts(3)
            .parallelism(parallelism)
            .build()
            .expect("valid config");

        // Synchronous engine, enumerating with BA, FBA or VBA.
        let rjc = RjcClusterer::new(config.lg, config.dbscan, config.metric);
        let engine = config.engine_config();
        let (kind, sync_patterns) = match kind_idx {
            0 => ("BA", drive(IcpeEngine::with_parts(rjc, BaselineEngine::new(engine)), &snaps)),
            1 => ("FBA", drive(IcpeEngine::new(config.clone()), &snaps)),
            _ => ("VBA", drive(IcpeEngine::with_parts(rjc, VbaEngine::new(engine)), &snaps)),
        };

        // Distributed pipeline (FBA) over the equivalent record stream.
        let mut records: Vec<GpsRecord> = Vec::new();
        for s in &snaps {
            for e in &s.entries {
                records.push(GpsRecord::new(e.id, e.location, s.time, e.last_time));
            }
        }
        let out = IcpePipeline::run(&config, records);

        prop_assert_eq!(
            unique_object_sets(&out.patterns),
            unique_object_sets(&sync_patterns),
            "kind {} parallelism {}",
            kind,
            parallelism
        );
    }
}
