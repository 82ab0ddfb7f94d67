//! Crash-recovery equivalence: the headline proof of the checkpoint layer.
//!
//! For a planted-pattern stream, a run that is killed at an arbitrary
//! record and restored from its checkpoint must seal **exactly** the same
//! patterns as an uninterrupted run — as a multiset, each exactly once:
//! the pre-crash deliveries up to the checkpoint plus the resumed run's
//! deliveries partition the continuous run's output.
//!
//! Cut points exercised: a snapshot/window boundary, mid-window, the very
//! start, near the end, and — via a disordered stream — a cut landing
//! while late records are still within their grace (the aligner holds
//! buffered, unsealed snapshots that must survive the restore).

use icpe::core::{IcpeConfig, IcpePipeline, PipelineEvent};
use icpe::gen::{GroupWalkConfig, GroupWalkGenerator};
use icpe::persist::CheckpointStore;
use icpe::runtime::AlignerConfig;
use icpe::types::{GpsRecord, Pattern};
use std::sync::{Arc, Mutex};

const NUM_OBJECTS: usize = 30; // records per tick (every object reports)
const NUM_TICKS: u32 = 30;

fn generator() -> GroupWalkGenerator {
    GroupWalkGenerator::new(GroupWalkConfig {
        num_objects: NUM_OBJECTS,
        num_groups: 3,
        group_size: 5,
        num_snapshots: NUM_TICKS,
        seed: 7,
        ..GroupWalkConfig::default()
    })
}

fn records() -> Vec<GpsRecord> {
    generator().traces().to_gps_records()
}

fn config() -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(icpe::types::Constraints::new(4, 8, 4, 2).unwrap())
        .epsilon(2.5)
        .min_pts(4)
        .parallelism(3)
        .aligner(AlignerConfig {
            max_lag: 64,
            emit_empty: true,
            lateness: 4,
        })
        .build()
        .unwrap()
}

/// The exactly-once identity of a delivered pattern.
fn key(p: &Pattern) -> (Vec<u32>, Vec<u32>) {
    (
        p.objects.iter().map(|o| o.0).collect(),
        p.times.times().iter().map(|t| t.0).collect(),
    )
}

fn sorted_keys(patterns: &[Pattern]) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut keys: Vec<_> = patterns.iter().map(key).collect();
    keys.sort();
    keys
}

fn run_continuous(cfg: &IcpeConfig, records: &[GpsRecord]) -> Vec<(Vec<u32>, Vec<u32>)> {
    let out = IcpePipeline::run(cfg, records.to_vec());
    sorted_keys(&out.patterns)
}

/// Runs the stream with a kill at `cut` + checkpoint-restore, returning the
/// union of pre-crash deliveries (up to the checkpoint) and the resumed
/// run's deliveries.
fn run_with_crash(
    cfg: &IcpeConfig,
    records: &[GpsRecord],
    cut: usize,
) -> Vec<(Vec<u32>, Vec<u32>)> {
    let pre: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&pre);
    let live = IcpePipeline::launch(cfg, move |e| {
        if let PipelineEvent::Pattern(p) = e {
            sink.lock().unwrap().push(p);
        }
    });
    for r in &records[..cut] {
        live.push(*r).unwrap();
    }
    let ckpt = live.checkpoint().unwrap();
    assert_eq!(
        ckpt.records_ingested as usize, cut,
        "the barrier names the exact cut"
    );
    // Everything delivered by the time checkpoint() returns is pre-cut;
    // snapshot it, then crash without finishing (flush events discarded —
    // a real crash would never have emitted them).
    let delivered = pre.lock().unwrap().clone();
    drop(live);

    let post: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&post);
    let resumed = IcpePipeline::launch_from(cfg, &ckpt, move |e| {
        if let PipelineEvent::Pattern(p) = e {
            sink.lock().unwrap().push(p);
        }
    })
    .expect("checkpoint restores");
    for r in &records[cut..] {
        resumed.push(*r).unwrap();
    }
    let report = resumed.finish();
    assert_eq!(
        report.snapshots, NUM_TICKS as usize,
        "restored progress gauges stay cumulative across the crash"
    );

    let mut all = delivered;
    all.extend(post.lock().unwrap().clone());
    sorted_keys(&all)
}

/// Cut points per the issue: window boundary, mid-window, degenerate edges.
fn cut_points(total: usize) -> Vec<usize> {
    vec![
        NUM_OBJECTS * 10,      // exactly at a snapshot/window boundary
        NUM_OBJECTS * 14 + 13, // mid-window, mid-tick
        1,                     // before anything could seal
        total - 7,             // near the end, engines full of open windows
    ]
}

#[test]
fn fba_recovery_is_equivalent_at_every_cut_point() {
    let records = records();
    let cfg = config();
    let want = run_continuous(&cfg, &records);
    assert!(!want.is_empty(), "workload must plant detectable groups");

    // Ground truth contains the planted groups.
    let object_sets: std::collections::BTreeSet<Vec<u32>> =
        want.iter().map(|(objs, _)| objs.clone()).collect();
    for group in generator().planted_groups() {
        let ids: Vec<u32> = group.iter().map(|o| o.0).collect();
        assert!(
            object_sets.contains(&ids),
            "planted group {ids:?} missing from the reference run"
        );
    }

    for cut in cut_points(records.len()) {
        let got = run_with_crash(&cfg, &records, cut);
        assert_eq!(
            got, want,
            "kill at record {cut} changed the sealed pattern multiset"
        );
    }
}

#[test]
fn recovery_during_late_record_grace_is_equivalent() {
    // Disorder the stream within the aligner's lateness allowance (swap
    // whole-tick displacements, preserving per-object order), then cut
    // mid-grace: the checkpoint must carry buffered unsealed snapshots and
    // half-connected chains.
    let mut records = records();
    let n = records.len();
    for i in (0..n.saturating_sub(NUM_OBJECTS)).step_by(2 * NUM_OBJECTS) {
        records.swap(i, i + NUM_OBJECTS);
    }
    let cfg = config();
    let want = run_continuous(&cfg, &records);
    assert!(!want.is_empty());
    for cut in [NUM_OBJECTS * 12 + 5, NUM_OBJECTS * 20 + 1] {
        let got = run_with_crash(&cfg, &records, cut);
        assert_eq!(got, want, "disordered kill at {cut} diverged");
    }
}

#[test]
fn recovery_through_the_on_disk_store_is_equivalent() {
    // Same harness, but the checkpoint takes the full disk round trip:
    // atomic write, CRC verification, reload — proving the persisted form
    // (not just the in-memory one) carries the whole state.
    let records = records();
    let cfg = config();
    let want = run_continuous(&cfg, &records);

    let dir = std::env::temp_dir().join(format!("icpe-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir, 2).unwrap();

    let pre: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&pre);
    let live = IcpePipeline::launch(&cfg, move |e| {
        if let PipelineEvent::Pattern(p) = e {
            sink.lock().unwrap().push(p);
        }
    });
    let cut = NUM_OBJECTS * 17 + 11;
    for r in &records[..cut] {
        live.push(*r).unwrap();
    }
    let ckpt = live.checkpoint().unwrap();
    store.save(ckpt.seq, &ckpt).unwrap();
    let delivered = pre.lock().unwrap().clone();
    drop(live);

    let (seq, loaded): (u64, icpe::types::PipelineCheckpoint) =
        store.load_latest().unwrap().expect("checkpoint on disk");
    assert_eq!(seq, ckpt.seq);
    assert_eq!(loaded, ckpt, "disk round trip is lossless");

    let post: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&post);
    let resumed = IcpePipeline::launch_from(&cfg, &loaded, move |e| {
        if let PipelineEvent::Pattern(p) = e {
            sink.lock().unwrap().push(p);
        }
    })
    .unwrap();
    for r in &records[cut..] {
        resumed.push(*r).unwrap();
    }
    resumed.finish();

    let mut all = delivered;
    all.extend(post.lock().unwrap().clone());
    assert_eq!(sorted_keys(&all), want);
    let _ = std::fs::remove_dir_all(&dir);
}
