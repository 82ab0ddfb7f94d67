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
//!
//! The restored deployment runs at a different parallelism and aligner
//! shard count than the one that wrote the cut, and its status surface is
//! held to the same standard as its output: right after `launch_from` it
//! reads the cut's numbers, and after `finish` every number that is not a
//! wall-clock measurement equals the uninterrupted run's.

use icpe::core::{IcpeConfig, IcpePipeline, PipelineEvent, StatusSnapshot};
use icpe::gen::{GroupWalkConfig, GroupWalkGenerator};
use icpe::persist::CheckpointStore;
use icpe::runtime::AlignerConfig;
use icpe::types::{GpsRecord, ObjectId, Pattern, PipelineCheckpoint, Point, Timestamp};
use std::sync::{Arc, Mutex};

const NUM_OBJECTS: usize = 30; // records per tick (every object reports)
const NUM_TICKS: u32 = 30;
/// The tick at whose start a newcomer's first report arrives, far behind.
const LATE_AT: u32 = 15;

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

/// The planted-pattern stream, plus a newcomer whose first report (tick 2)
/// arrives at the start of tick [`LATE_AT`] — beyond the aligner's
/// lateness, so it is dropped and counted — and which then reports on time,
/// chained to the dropped report, until the end.
fn records() -> Vec<GpsRecord> {
    let id = ObjectId(10_000);
    let at = |t: u32| Point::new(-500.0, t as f64);
    let mut out = Vec::new();
    for (i, r) in generator()
        .traces()
        .to_gps_records()
        .into_iter()
        .enumerate()
    {
        if i % NUM_OBJECTS == 0 {
            let t = (i / NUM_OBJECTS) as u32;
            if t == LATE_AT {
                out.push(GpsRecord::new(id, at(2), Timestamp(2), None));
            }
            if t >= LATE_AT {
                let last = if t == LATE_AT { 2 } else { t - 1 };
                out.push(GpsRecord::new(
                    id,
                    at(t),
                    Timestamp(t),
                    Some(Timestamp(last)),
                ));
            }
        }
        out.push(r);
    }
    out
}

fn config() -> IcpeConfig {
    config_at(3, 3)
}

/// The deployment a checkpoint is restored into: the same job at another
/// parallelism and aligner shard count.
fn resume_config() -> IcpeConfig {
    config_at(5, 2)
}

fn config_at(parallelism: usize, shards: usize) -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(icpe::types::Constraints::new(4, 8, 4, 2).unwrap())
        .epsilon(2.5)
        .min_pts(4)
        .parallelism(parallelism)
        .align_shards(shards)
        .aligner(AlignerConfig {
            max_lag: 64,
            emit_empty: true,
            lateness: 4,
        })
        .build()
        .unwrap()
}

/// The numbers of a status reading that are not wall-clock measurements
/// and do not depend on the deployment's shape: what a crash and a
/// restore elsewhere must leave exactly as an uninterrupted run has them.
#[derive(Debug, PartialEq)]
struct Conserved {
    records_late: u64,
    aligner_late_dropped: u64,
    aligner_sealed_frontier: u64,
    aligned_frontier: Option<u32>,
    sealed_frontier: Option<u32>,
    snapshots: usize,
    sync_pairs_merged: u64,
    sync_windows_sealed: u64,
    cells_migrated: u64,
}

impl Conserved {
    fn read(s: &StatusSnapshot) -> Conserved {
        Conserved {
            records_late: s.progress.late_records,
            aligner_late_dropped: s.align.late_dropped,
            aligner_sealed_frontier: s.align.sealed_up_to,
            aligned_frontier: s.progress.max_ingested,
            sealed_frontier: s.progress.max_sealed,
            snapshots: s.report.snapshots,
            sync_pairs_merged: s.sync.pairs_merged,
            sync_windows_sealed: s.sync.windows_sealed,
            cells_migrated: s.routing.cells_migrated,
        }
    }

    /// What a status reading must show of `ckpt` before any replayed
    /// record: every number the cut holds, or derives.
    fn at_cut(ckpt: &PipelineCheckpoint) -> Conserved {
        let max_sealed = ckpt.max_sealed().unwrap();
        Conserved {
            records_late: ckpt.aligner.late_dropped,
            aligner_late_dropped: ckpt.aligner.late_dropped,
            aligner_sealed_frontier: ckpt.aligner.sealed_up_to.unwrap_or(0) as u64,
            aligned_frontier: max_sealed,
            sealed_frontier: max_sealed,
            snapshots: ckpt.progress.windows_sealed as usize,
            sync_pairs_merged: ckpt.progress.pairs_merged,
            sync_windows_sealed: ckpt.progress.windows_sealed,
            cells_migrated: ckpt.routing.as_ref().map_or(0, |r| r.cells_migrated),
        }
    }
}

/// The exactly-once identity of a delivered pattern.
type Key = (Vec<u32>, Vec<u32>);

fn key(p: &Pattern) -> Key {
    (
        p.objects.iter().map(|o| o.0).collect(),
        p.times.times().iter().map(|t| t.0).collect(),
    )
}

fn sorted_keys(patterns: &[Pattern]) -> Vec<Key> {
    let mut keys: Vec<_> = patterns.iter().map(key).collect();
    keys.sort();
    keys
}

/// An uninterrupted run: its delivered keys and its final status numbers.
fn run_continuous(cfg: &IcpeConfig, records: &[GpsRecord]) -> (Vec<Key>, Conserved) {
    let delivered: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&delivered);
    let live = IcpePipeline::launch(cfg, move |e| {
        if let PipelineEvent::Pattern(p) = e {
            sink.lock().unwrap().push(p);
        }
    });
    let status = live.status().clone();
    for r in records {
        live.push(*r).unwrap();
    }
    live.finish();
    let keys = sorted_keys(&delivered.lock().unwrap());
    (keys, Conserved::read(&status.snapshot()))
}

/// Runs the stream with a kill at `cut` + checkpoint-restore into
/// [`resume_config`], returning the union of pre-crash deliveries (up to
/// the checkpoint) and the resumed run's deliveries, and the resumed run's
/// final status numbers.
fn run_with_crash(cfg: &IcpeConfig, records: &[GpsRecord], cut: usize) -> (Vec<Key>, Conserved) {
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
    let resumed = IcpePipeline::launch_from(&resume_config(), &ckpt, move |e| {
        if let PipelineEvent::Pattern(p) = e {
            sink.lock().unwrap().push(p);
        }
    })
    .expect("checkpoint restores");
    let status = resumed.status().clone();
    assert_eq!(
        Conserved::read(&status.snapshot()),
        Conserved::at_cut(&ckpt),
        "the restored operators publish the cut before any record flows (cut {cut})"
    );
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
    (sorted_keys(&all), Conserved::read(&status.snapshot()))
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
    let (want, status) = run_continuous(&cfg, &records);
    assert!(!want.is_empty(), "workload must plant detectable groups");
    assert_eq!(
        status.records_late, 1,
        "the newcomer's first report is dropped"
    );

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
        let (got, got_status) = run_with_crash(&cfg, &records, cut);
        assert_eq!(
            got, want,
            "kill at record {cut} changed the sealed pattern multiset"
        );
        assert_eq!(
            got_status, status,
            "kill at record {cut} changed the status"
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
    let (want, status) = run_continuous(&cfg, &records);
    assert!(!want.is_empty());
    for cut in [NUM_OBJECTS * 12 + 5, NUM_OBJECTS * 20 + 1] {
        let (got, got_status) = run_with_crash(&cfg, &records, cut);
        assert_eq!(got, want, "disordered kill at {cut} diverged");
        assert_eq!(
            got_status, status,
            "disordered kill at {cut} changed the status"
        );
    }
}

#[test]
fn recovery_through_the_on_disk_store_is_equivalent() {
    // Same harness, but the checkpoint takes the full disk round trip:
    // atomic write, CRC verification, reload — proving the persisted form
    // (not just the in-memory one) carries the whole state.
    let records = records();
    let cfg = config();
    let (want, _) = run_continuous(&cfg, &records);

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
