//! Golden-fixture guard for the checkpoint schema.
//!
//! The on-disk checkpoint format is a promise to every running deployment:
//! any change to the checkpoint structs (fields added/removed/renamed/
//! reordered — field order is part of the JSON bytes) must bump
//! [`CHECKPOINT_VERSION`] so restore can refuse incompatible files instead
//! of silently misreading them. This test pins the serialized bytes of a
//! canonical sample against `tests/fixtures/checkpoint_v<N>.json` and
//! fails when the schema drifts without a version bump.
//!
//! After an intentional schema change: bump `CHECKPOINT_VERSION`, then
//! regenerate the fixture with
//! `ICPE_REGEN_FIXTURE=1 cargo test -p icpe-types --test checkpoint_schema`
//! and delete the previous version's file: only
//! `checkpoint_v{CHECKPOINT_VERSION}.json` is ever read, and restore refuses
//! every other version outright, so a predecessor fixture guards nothing.

use icpe_types::{
    AlignerCheckpoint, CellAssignment, CellLoadCheckpoint, ChainCheckpoint, EngineCheckpoint,
    HistoryRowCheckpoint, ObjectId, ObsCheckpoint, ObsCounterEntry, PipelineCheckpoint, Point,
    ProgressCheckpoint, RoutingCheckpoint, Snapshot, Timestamp, WindowOwnerCheckpoint,
    CHECKPOINT_VERSION,
};

/// A canonical sample exercising every field of every checkpoint struct.
fn sample() -> PipelineCheckpoint {
    let mut buffered = Snapshot::new(Timestamp(41));
    buffered.push(ObjectId(3), Point::new(1.5, -2.0), Some(Timestamp(40)));
    buffered.push(ObjectId(9), Point::new(0.0, 7.25), None);
    PipelineCheckpoint {
        version: CHECKPOINT_VERSION,
        seq: 12,
        records_ingested: 4096,
        aligner: AlignerCheckpoint {
            buffers: vec![buffered],
            chains: vec![
                ChainCheckpoint {
                    id: ObjectId(3),
                    clarified: Some(40),
                    waiting: vec![(42, 44)],
                },
                ChainCheckpoint {
                    id: ObjectId(9),
                    clarified: None,
                    waiting: vec![],
                },
            ],
            sealed_up_to: Some(41),
            max_seen: 44,
            late_dropped: 5,
        },
        engine: EngineCheckpoint {
            last_time: Some(40),
            window_owners: vec![WindowOwnerCheckpoint {
                owner: ObjectId(3),
                starts: vec![38, 40],
                history: vec![HistoryRowCheckpoint {
                    time: 38,
                    members: vec![ObjectId(5), ObjectId(9)],
                }],
            }],
        },
        progress: ProgressCheckpoint {
            windows_sealed: 40,
            pairs_merged: 512,
        },
        routing: Some(RoutingCheckpoint {
            epoch: 7,
            assignments: vec![
                CellAssignment {
                    x: -3,
                    y: 2,
                    subtask: 0,
                },
                CellAssignment {
                    x: 9,
                    y: 8,
                    subtask: 2,
                },
            ],
            loads: vec![CellLoadCheckpoint {
                x: 9,
                y: 8,
                load_milli: 12345,
            }],
            cells_migrated: 9,
        }),
        obs: ObsCheckpoint {
            counters: vec![
                ObsCounterEntry {
                    stage: "align".into(),
                    name: "stage_batches_in_total".into(),
                    value: 64,
                },
                ObsCounterEntry {
                    stage: "align".into(),
                    name: "stage_records_in_total".into(),
                    value: 4096,
                },
                ObsCounterEntry {
                    stage: "grid-query".into(),
                    name: "exchange_blocked_seconds_total".into(),
                    value: 2_500_000,
                },
            ],
        },
    }
}

fn fixture_path() -> String {
    format!(
        "{}/tests/fixtures/checkpoint_v{}.json",
        env!("CARGO_MANIFEST_DIR"),
        CHECKPOINT_VERSION
    )
}

#[test]
fn schema_change_requires_version_bump() {
    let json = serde_json::to_string(&sample()).unwrap();
    let path = fixture_path();
    if std::env::var("ICPE_REGEN_FIXTURE").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(&path).parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{json}\n")).unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing fixture for checkpoint schema v{CHECKPOINT_VERSION} at {path}; \
             after bumping CHECKPOINT_VERSION, regenerate it with \
             ICPE_REGEN_FIXTURE=1 cargo test -p icpe-types --test checkpoint_schema"
        )
    });
    assert_eq!(
        json,
        fixture.trim_end(),
        "checkpoint schema bytes changed without a CHECKPOINT_VERSION bump \
         (or the fixture is stale): bump the version in \
         crates/types/src/checkpoint.rs and regenerate the fixture with \
         ICPE_REGEN_FIXTURE=1 cargo test -p icpe-types --test checkpoint_schema"
    );
    // And the pinned bytes restore losslessly.
    let parsed: PipelineCheckpoint = serde_json::from_str(fixture.trim_end()).unwrap();
    assert_eq!(parsed, sample());
}

/// The guard has teeth against drift: a schema change that slips through
/// without a version bump (simulated here by renaming a field in the pinned
/// bytes) both breaks the byte comparison the guard performs and refuses to
/// restore — so it cannot silently misread old files either way.
#[test]
fn guard_fails_on_schema_drift_without_version_bump() {
    let fixture = std::fs::read_to_string(fixture_path()).unwrap();
    let pinned = fixture.trim_end();
    let drifted = pinned.replace("\"max_seen\":", "\"maximum_seen\":");
    assert_ne!(drifted, pinned, "simulated drift must change the bytes");
    assert_ne!(
        serde_json::to_string(&sample()).unwrap(),
        drifted,
        "the guard's byte comparison catches the drift"
    );
    assert!(
        serde_json::from_str::<PipelineCheckpoint>(&drifted).is_err(),
        "drifted bytes must not restore as the current schema"
    );
}

/// A version bump without a regenerated fixture is itself a failure: the
/// fixture for the *current* version must be committed and must carry the
/// current version number inside.
#[test]
fn fixture_for_current_version_is_committed() {
    let path = fixture_path();
    assert!(
        std::path::Path::new(&path).exists(),
        "no fixture at {path}: after bumping CHECKPOINT_VERSION, regenerate \
         it with ICPE_REGEN_FIXTURE=1 cargo test -p icpe-types --test \
         checkpoint_schema and commit the file"
    );
    let parsed: PipelineCheckpoint =
        serde_json::from_str(std::fs::read_to_string(&path).unwrap().trim_end()).unwrap();
    assert_eq!(
        parsed.version, CHECKPOINT_VERSION,
        "fixture was written for a different schema version"
    );
}

/// The v8 fixture's pinned bytes: its sync section still carried the sync
/// shards' `duplicates` counter and their `pending` pair windows, and its
/// progress section the counters v10 derives or renamed.
const V8_BYTES: &str = r#"{"version":8,"seq":12,"records_ingested":4096,"aligner":{"buffers":[{"time":41,"entries":[{"id":3,"location":{"x":1.5,"y":-2.0},"last_time":40},{"id":9,"location":{"x":0.0,"y":7.25},"last_time":null}]}],"chains":[{"id":3,"clarified":40,"waiting":[[42,44]]},{"id":9,"clarified":null,"waiting":[]}],"sealed_up_to":41,"max_seen":44,"late_dropped":5},"engine":{"last_time":40,"window_owners":[{"owner":3,"starts":[38,40],"history":[{"time":38,"members":[5,9]}]}]},"progress":{"snapshots_completed":40,"late_records":5,"max_sealed":40},"routing":{"epoch":7,"assignments":[{"x":-3,"y":2,"subtask":0},{"x":9,"y":8,"subtask":2}],"loads":[{"x":9,"y":8,"load_milli":12345}],"cells_migrated":9},"sync":{"pairs_merged":512,"duplicates":31,"windows_sealed":40,"pending":[{"time":42,"pairs":[[3,5],[3,9]]}]},"obs":{"counters":[{"stage":"align","name":"stage_batches_in_total","value":64},{"stage":"align","name":"stage_records_in_total","value":4096},{"stage":"grid-query","name":"exchange_blocked_seconds_total","value":2500000}]}}"#;

/// The v9 fixture's pinned bytes: `progress` still copied the aligner's
/// late-drop count and frontier, and the sync finalizer's counters had a
/// section of their own.
const V9_BYTES: &str = r#"{"version":9,"seq":12,"records_ingested":4096,"aligner":{"buffers":[{"time":41,"entries":[{"id":3,"location":{"x":1.5,"y":-2.0},"last_time":40},{"id":9,"location":{"x":0.0,"y":7.25},"last_time":null}]}],"chains":[{"id":3,"clarified":40,"waiting":[[42,44]]},{"id":9,"clarified":null,"waiting":[]}],"sealed_up_to":41,"max_seen":44,"late_dropped":5},"engine":{"last_time":40,"window_owners":[{"owner":3,"starts":[38,40],"history":[{"time":38,"members":[5,9]}]}]},"progress":{"snapshots_completed":40,"late_records":5,"max_sealed":40},"routing":{"epoch":7,"assignments":[{"x":-3,"y":2,"subtask":0},{"x":9,"y":8,"subtask":2}],"loads":[{"x":9,"y":8,"load_milli":12345}],"cells_migrated":9},"sync":{"pairs_merged":512,"windows_sealed":40},"obs":{"counters":[{"stage":"align","name":"stage_batches_in_total","value":64},{"stage":"align","name":"stage_records_in_total","value":4096},{"stage":"grid-query","name":"exchange_blocked_seconds_total","value":2500000}]}}"#;

/// The version field alone. Every schema's JSON carries it, and the reader
/// skips fields it does not know, so any version's bytes parse as this.
#[derive(serde::Deserialize)]
struct VersionProbe {
    version: u32,
}

/// A predecessor's bytes are refused: they name their own version, not
/// this binary's, and their body does not parse as the current schema (its
/// progress section lacks `windows_sealed`) — so a store loading them fails
/// with a decode error instead of restoring a half-read cut.
fn assert_refused_by_version(bytes: &str, found: u32) {
    let probe: VersionProbe = serde_json::from_str(bytes).unwrap();
    assert_eq!(probe.version, found);
    assert_ne!(probe.version, CHECKPOINT_VERSION);
    let err = serde_json::from_str::<PipelineCheckpoint>(bytes)
        .expect_err("a predecessor body must not parse as the current schema");
    assert!(err.to_string().contains("windows_sealed"), "{err}");
}

#[test]
fn v8_checkpoint_is_refused_by_version() {
    assert_refused_by_version(V8_BYTES, 8);
}

#[test]
fn v9_checkpoint_is_refused_by_version() {
    assert_refused_by_version(V9_BYTES, 9);
}
