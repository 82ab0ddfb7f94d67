//! Property tests for FBA checkpoint/restore — the one enumeration engine
//! whose state checkpoints: canonical (byte-identical) re-serialization,
//! behavioural equivalence on arbitrary cluster streams, and the owner
//! split a resharding restore relies on.

use icpe_pattern::{EngineConfig, FbaEngine, PatternEngine};
use icpe_types::{ClusterSnapshot, Constraints, EngineCheckpoint, ObjectId, Pattern, Timestamp};
use proptest::prelude::*;

fn constraints() -> Constraints {
    // CP(2, 3, 1, 2): small enough that random streams regularly produce
    // patterns, with η = (3−1)·1 + 2 + 1 − 1 = 4 keeping windows open
    // across cuts.
    Constraints::new(2, 3, 1, 2).unwrap()
}

/// One cluster per tick from the generated member sets (dense stream).
fn stream(spec: &[Vec<u32>]) -> Vec<ClusterSnapshot> {
    spec.iter()
        .enumerate()
        .map(|(t, members)| {
            let mut ids: Vec<ObjectId> = members.iter().map(|&v| ObjectId(v)).collect();
            ids.sort_unstable();
            ids.dedup();
            ClusterSnapshot::from_groups(Timestamp(t as u32), [ids])
        })
        .collect()
}

fn keys(patterns: &[Pattern]) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut out: Vec<(Vec<u32>, Vec<u32>)> = patterns
        .iter()
        .map(|p| {
            (
                p.objects.iter().map(|o| o.0).collect(),
                p.times.times().iter().map(|t| t.0).collect(),
            )
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fba_checkpoint_restore_equivalence(
        spec in prop::collection::vec(prop::collection::vec(0u32..8, 0..5), 1..24),
        cut_frac in 0usize..100,
    ) {
        let snaps = stream(&spec);
        let cut = snaps.len() * cut_frac / 100;
        let config = EngineConfig::new(constraints());
        let mut original = FbaEngine::new(config);
        let mut reference = FbaEngine::new(config);
        let mut got = Vec::new();
        let mut want = Vec::new();
        for s in &snaps[..cut] {
            got.extend(original.push(s));
            want.extend(reference.push(s));
        }
        let ckpt = original.checkpoint();

        // Canonical form: serialize → parse → restore → checkpoint is
        // byte-identical.
        let json = serde_json::to_string(&ckpt).unwrap();
        let parsed: EngineCheckpoint = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&parsed, &ckpt);
        let mut restored = FbaEngine::from_checkpoint(config, &parsed, |_| true).unwrap();
        let json2 = serde_json::to_string(&restored.checkpoint()).unwrap();
        prop_assert_eq!(json2, json, "re-serialization is not canonical");

        // Behaviour: restored engine + suffix == uninterrupted engine.
        for s in &snaps[cut..] {
            got.extend(restored.push(s));
            want.extend(reference.push(s));
        }
        got.extend(restored.finish());
        want.extend(reference.finish());
        prop_assert_eq!(keys(&got), keys(&want));
    }
}

/// Splitting a checkpoint across disjoint owner filters and merging the
/// re-checkpointed pieces reproduces the original — the resharding
/// invariant the distributed restore relies on.
#[test]
fn owner_filter_partition_roundtrip() {
    let config = EngineConfig::new(constraints());
    let mut engine = FbaEngine::new(config);
    for t in 0..6u32 {
        engine.push(&ClusterSnapshot::from_groups(
            Timestamp(t),
            [
                vec![ObjectId(1), ObjectId(2), ObjectId(3)],
                vec![ObjectId(7), ObjectId(8)],
            ],
        ));
    }
    let full = engine.checkpoint();
    let pieces: Vec<EngineCheckpoint> = (0..3)
        .map(|i| {
            FbaEngine::from_checkpoint(config, &full, |o| o.0 % 3 == i)
                .unwrap()
                .checkpoint()
        })
        .collect();
    let merged = EngineCheckpoint::merge(pieces);
    assert_eq!(merged, full);
}
