//! Property tests for the checkpoint store: any truncation or single-byte
//! corruption of a checkpoint file is rejected with a typed error — never
//! a panic, and never a silently wrong checkpoint.

use icpe_persist::{CheckpointStore, PersistError};
use icpe_types::{
    AlignerCheckpoint, EngineCheckpoint, ObsCheckpoint, ObsCounterEntry, PipelineCheckpoint,
    ProgressCheckpoint, CHECKPOINT_VERSION,
};
use proptest::prelude::*;

fn sample() -> PipelineCheckpoint {
    PipelineCheckpoint {
        version: CHECKPOINT_VERSION,
        seq: 3,
        records_ingested: 123,
        aligner: AlignerCheckpoint {
            buffers: Vec::new(),
            chains: Vec::new(),
            sealed_up_to: Some(7),
            max_seen: 9,
            late_dropped: 1,
            duplicates: 0,
        },
        engine: EngineCheckpoint::empty(),
        progress: ProgressCheckpoint {
            windows_sealed: 7,
            pairs_merged: 64,
        },
        routing: None,
        obs: ObsCheckpoint {
            counters: vec![ObsCounterEntry {
                stage: "align".to_string(),
                name: "stage_records_in_total".to_string(),
                value: 123,
            }],
        },
    }
}

fn store(tag: u64) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("icpe-prop-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::open(dir, 2).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_at_any_point_is_a_typed_error(cut_frac in 0usize..100) {
        let store = store(1);
        let path = store.save(1, &sample()).unwrap();
        let full = std::fs::read(&path).unwrap();
        let cut = full.len() * cut_frac / 100;
        std::fs::write(&path, &full[..cut]).unwrap();
        match store.load::<PipelineCheckpoint>(&path) {
            Ok(ckpt) => prop_assert_eq!(ckpt, sample(), "only a complete file may load"),
            Err(
                PersistError::Truncated { .. }
                | PersistError::Corrupt { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::Io(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn single_byte_corruption_never_loads_wrong_data(pos_frac in 0usize..100, flip in 1u8..255) {
        let store = store(2);
        let path = store.save(1, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (bytes.len() - 1) * pos_frac / 100;
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        // A flip in ignorable whitespace may still load — but then it must
        // load the *right* data; any other outcome is a (typed) error.
        if let Ok(ckpt) = store.load::<PipelineCheckpoint>(&path) {
            prop_assert_eq!(ckpt, sample());
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
