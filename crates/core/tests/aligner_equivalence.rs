//! Property-based proof that sharding the aligner head is invisible to
//! detection semantics: on randomized, out-of-order skewed workloads the
//! sharded TimeAligner + fused GridAllocate head seals the *exact same
//! pattern multiset* — and drops the *exact same late records* — as the
//! serial head (align_shards = 1, parallelism = 1), across arbitrary shard
//! counts, batch sizes, both aggregation-tree shapes, and a
//! checkpoint/restore cut that resumes on a *different* shard count.
//!
//! Why this must hold: the seal decision is a global min-over-chains
//! frontier, and the sharded head keeps it global — the serial router owns
//! every chain and classifies each record Keep/Late in ingest order exactly
//! as the serial `TimeAligner` would, before any shard-parallel work
//! happens. The shards only buffer rows and run the stateless per-record
//! cell assignment; the merge tree reassembles per-time partials whose row
//! sets are disjoint by construction. Nothing downstream of the routing
//! decision can change *which* records participate, so the sealed pattern
//! multiset is pinned to the serial semantics.

use icpe_core::{BalancerConfig, IcpeConfig, IcpePipeline, PipelineEvent};
use icpe_gen::{HotspotConfig, HotspotGenerator};
use icpe_runtime::{AlignerConfig, TimeAligner};
use icpe_types::{Constraints, GpsRecord, Pattern};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

mod common;
use common::multiset;

/// The delivered patterns plus the late-drop total of one run (see
/// [`common::run_collecting`]).
fn run_collecting(config: &IcpeConfig, records: &[GpsRecord], chunk: usize) -> (Vec<Pattern>, u64) {
    let out = common::run_collecting(config, records, chunk);
    (out.patterns, out.report.late_records)
}

/// 36 objects reporting every tick: 36 records per window.
const RECORDS_PER_TICK: usize = 36;

fn skewed_records(seed: u64, ticks: u32) -> Vec<GpsRecord> {
    HotspotGenerator::new(HotspotConfig {
        num_objects: RECORDS_PER_TICK,
        num_ticks: ticks,
        area: 120.0,
        num_sites: 9,
        zipf_s: 1.4,
        retarget_every: 12,
        speed: 10.0,
        seed,
        ..HotspotConfig::default()
    })
    .traces()
    .to_gps_records()
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Bounded arrival-order scramble: each record may arrive up to roughly two
/// windows away from its in-order slot — the everyday disorder the §4
/// last-time chaining exists to absorb.
fn scramble(records: &mut [GpsRecord], seed: u64) {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let n = records.len();
    for i in 0..n {
        let span = (xorshift(&mut s) % (2 * RECORDS_PER_TICK as u64)) as usize;
        let j = (i + span).min(n - 1);
        records.swap(i, j);
    }
}

/// Pulls every ~`every`-th record whose position lies in `src` and
/// re-inserts the group at `dest` — a partition of the input stream healing
/// long after the fact. Records displaced past the forced-seal horizon land
/// as genuine late arrivals at the min-over-frontiers boundary.
fn displace(
    records: Vec<GpsRecord>,
    seed: u64,
    src: std::ops::Range<usize>,
    dest: usize,
    every: u64,
) -> Vec<GpsRecord> {
    let mut s = seed | 1;
    let mut kept = Vec::with_capacity(records.len());
    let mut moved = Vec::new();
    for (i, r) in records.into_iter().enumerate() {
        if src.contains(&i) && xorshift(&mut s).is_multiple_of(every) {
            moved.push(r);
        } else {
            kept.push(r);
        }
    }
    let dest = dest.min(kept.len());
    kept.splice(dest..dest, moved);
    kept
}

/// The serial §4 oracle: feed the identical arrival sequence through a
/// plain single-threaded [`TimeAligner`] and report how many records it
/// drops as late. The sharded head must agree record-for-record.
fn serial_late_count(records: &[GpsRecord], aligner: AlignerConfig) -> u64 {
    let mut oracle = TimeAligner::new(aligner);
    let mut scratch = Vec::new();
    for r in records {
        oracle.push_into(*r, &mut scratch);
        scratch.clear();
    }
    oracle.late_dropped()
}

fn config(
    parallelism: usize,
    shards: usize,
    batch: usize,
    fanin: usize,
    aligner: AlignerConfig,
) -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(Constraints::new(3, 6, 3, 2).expect("valid"))
        .epsilon(1.0)
        .min_pts(3)
        .parallelism(parallelism)
        .align_shards(shards)
        .sync_fanin(fanin)
        .batch_size(batch)
        .aligner(aligner)
        // Migrate at the slightest imbalance, every window: the balancer
        // runs in the frontier router and every shard splits a window by
        // the table its `Seal` carries, so keeping it hot proves each
        // window still lands under one epoch on every shard.
        .rebalance(BalancerConfig {
            theta: 1.01,
            cooldown_windows: 0,
            ..BalancerConfig::default()
        })
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharded ≡ serial, arbitrary shard counts decoupled from
    /// the body parallelism, arbitrary batch and ingest-chunk sizes, both
    /// sync-tree shapes (fanin 2 = the deepest tree, larger = flatter), on
    /// out-of-order input. The baseline is the parallelism-1 /
    /// single-shard deployment whose head degenerates to the pre-sharding
    /// serial aligner.
    #[test]
    fn sharded_head_seals_identical_pattern_multisets(
        seed in 0u64..500,
        parallelism in 2usize..5,
        shards in 1usize..6,
        batch in 1usize..64,
        chunk in 1usize..80,
        deep_tree in proptest::bool::ANY,
    ) {
        let fanin = if deep_tree { 2 } else { shards.max(2) };
        let mut records = skewed_records(seed, 24);
        scramble(&mut records, seed ^ 0xA5A5);
        let aligner = AlignerConfig::default();
        let (want, want_late) =
            run_collecting(&config(1, 1, 1, 2, aligner), &records, 1);
        let (got, got_late) =
            run_collecting(&config(parallelism, shards, batch, fanin, aligner), &records, chunk);
        prop_assert_eq!(
            got_late,
            want_late,
            "late-drop decisions diverged: shards {}",
            shards
        );
        prop_assert_eq!(
            multiset(&got),
            multiset(&want),
            "parallelism {} shards {} batch {} chunk {} fanin {}",
            parallelism,
            shards,
            batch,
            chunk,
            fanin
        );
    }

    /// A checkpoint cut mid-disorder, resumed on a *different* aligner shard
    /// count (and the other tree shape), still seals the uninterrupted
    /// serial multiset: the router piece carries the chains and the global
    /// frontier, the buffer-only shard pieces re-partition to whatever
    /// `hash_id(owner) % N'` says on the new deployment, and no sealed or
    /// buffered row is lost or doubled in the move.
    #[test]
    fn reshard_restore_matches_uninterrupted_serial(
        seed in 0u64..500,
        parallelism in 2usize..5,
        shards in 1usize..6,
        shard_delta in 1usize..5,
        batch in 1usize..64,
        cut_windows in 8u32..16,
        deep_tree in proptest::bool::ANY,
    ) {
        // Guaranteed different shard count on resume (delta ∈ 1..=4 mod 5).
        let resume_shards = (shards - 1 + shard_delta) % 5 + 1;
        prop_assert_ne!(resume_shards, shards);
        let fanin = if deep_tree { 2 } else { shards.max(2) };
        let resume_fanin = if deep_tree { resume_shards.max(2) } else { 2 };
        let mut records = skewed_records(seed, 24);
        scramble(&mut records, seed ^ 0x5A5A);
        // Stragglers from the first twelve windows resurface at the end:
        // whatever the forced-seal horizon has passed by then must be
        // dropped identically on both sides of the cut.
        let records = displace(
            records,
            seed | 1,
            0..12 * RECORDS_PER_TICK,
            usize::MAX,
            5,
        );
        let aligner = AlignerConfig::default();
        let (want, want_late) =
            run_collecting(&config(1, 1, 1, 2, aligner), &records, 1);

        let cut = (cut_windows as usize * RECORDS_PER_TICK).min(records.len());
        let cfg = config(parallelism, shards, batch, fanin, aligner);
        let pre: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&pre);
        let live = IcpePipeline::launch(&cfg, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        });
        for slice in records[..cut].chunks(batch) {
            live.push_batch(slice.to_vec()).unwrap();
        }
        let ckpt = live.checkpoint().unwrap();
        prop_assert_eq!(ckpt.records_ingested as usize, cut, "exact record-granular cut");
        let delivered_before = pre.lock().unwrap().clone();
        drop(live); // crash: the end-of-stream flush is discarded

        let resume_cfg = config(parallelism, resume_shards, batch, resume_fanin, aligner);
        let post: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&post);
        let resumed = IcpePipeline::launch_from(&resume_cfg, &ckpt, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        })
        .unwrap();
        for slice in records[cut..].chunks(batch) {
            resumed.push_batch(slice.to_vec()).unwrap();
        }
        let report = resumed.finish();

        prop_assert_eq!(
            report.late_records,
            want_late,
            "late total across the reshard cut must match the serial run"
        );
        let mut got = delivered_before;
        got.extend(post.lock().unwrap().clone());
        prop_assert_eq!(
            multiset(&got),
            multiset(&want),
            "shards {}→{} batch {} cut {} fanin {}→{}",
            shards,
            resume_shards,
            batch,
            cut,
            fanin,
            resume_fanin
        );
    }
}

/// A tight horizon so displaced stragglers reliably cross the forced-seal
/// boundary: times lagging more than 6 intervals behind the newest witness
/// stop blocking, and anything resurfacing behind the sealed frontier must
/// drop.
const TIGHT: AlignerConfig = AlignerConfig {
    max_lag: 6,
    emit_empty: true,
    lateness: 2,
};

/// Late-data torture at the min-over-frontiers seal boundary: a partition
/// of the stream heals after the forced-seal horizon has passed it, and the
/// sharded head must make the *identical* drop decision for every straggler
/// that the serial `TimeAligner` makes — not merely a similar count on a
/// similar workload, but equality against the exact oracle on the exact
/// arrival sequence, across shard counts.
#[test]
fn late_boundary_drops_match_the_serial_aligner_oracle() {
    let mut records = skewed_records(11, 24);
    scramble(&mut records, 0xDECAF);
    let records = displace(records, 13, 0..14 * RECORDS_PER_TICK, usize::MAX, 5);
    let oracle = serial_late_count(&records, TIGHT);
    assert!(oracle > 0, "workload must actually exercise the late path");

    let (want, serial_late) = run_collecting(&config(1, 1, 1, 2, TIGHT), &records, 1);
    assert_eq!(
        serial_late, oracle,
        "the serial pipeline head is the oracle's twin"
    );
    for shards in [2usize, 4] {
        let (got, late) = run_collecting(&config(3, shards, 16, 2, TIGHT), &records, 24);
        assert_eq!(
            late, oracle,
            "shards {shards}: sharded head must drop exactly the oracle's set"
        );
        assert_eq!(multiset(&got), multiset(&want), "shards {shards}");
    }
}

/// Counter conservation across a reshard cycle: the per-shard checkpoint
/// pieces must *sum* to the serial totals (late drops land both before and
/// after the cut here), and restoring onto a different shard count must not
/// multiply them — merged totals are credited to the router piece exactly
/// once, and a second checkpoint after the reshard still reads the serial
/// count.
#[test]
fn late_counters_survive_a_reshard_cycle_without_multiplication() {
    let mut records = skewed_records(17, 28);
    scramble(&mut records, 0xBEEF);
    // Two partitions heal mid-stream: one before the cut, one after.
    let records = displace(
        records,
        19,
        0..6 * RECORDS_PER_TICK,
        18 * RECORDS_PER_TICK,
        3,
    );
    let records = displace(
        records,
        23,
        7 * RECORDS_PER_TICK..12 * RECORDS_PER_TICK,
        23 * RECORDS_PER_TICK,
        3,
    );
    let cut = 20 * RECORDS_PER_TICK;
    let oracle_cut = serial_late_count(&records[..cut], TIGHT);
    let oracle_full = serial_late_count(&records, TIGHT);
    assert!(oracle_cut > 0, "drops must land before the cut");
    assert!(oracle_full > oracle_cut, "and more after it");

    let cfg = config(3, 3, 16, 2, TIGHT);
    let live = IcpePipeline::launch(&cfg, |_| {});
    for slice in records[..cut].chunks(16) {
        live.push_batch(slice.to_vec()).unwrap();
    }
    let ckpt = live.checkpoint().unwrap();
    assert_eq!(
        ckpt.aligner.late_dropped, oracle_cut,
        "merged shard pieces must sum to the serial drop count"
    );
    assert_eq!(
        live.status().progress().late_records,
        oracle_cut,
        "records_late reads the router's one late-drop gauge"
    );
    drop(live);

    // Resume on a different shard count; the restored gauge resumes from
    // the cut instead of zero.
    let resume_cfg = config(3, 5, 16, 2, TIGHT);
    let resumed = IcpePipeline::launch_from(&resume_cfg, &ckpt, |_| {}).unwrap();
    assert_eq!(
        resumed.status().align().late_dropped,
        oracle_cut,
        "restored late gauge seeds from the checkpoint"
    );
    for slice in records[cut..].chunks(16) {
        resumed.push_batch(slice.to_vec()).unwrap();
    }
    let ckpt2 = resumed.checkpoint().unwrap();
    assert_eq!(
        ckpt2.aligner.late_dropped, oracle_full,
        "a reshard cycle must neither multiply nor lose late credit"
    );
    let report = resumed.finish();
    assert_eq!(report.late_records, oracle_full);
}

/// The head's gauges track the sharded deployment while it runs: shard
/// count, live chains, and a sealed frontier that has actually advanced.
#[test]
fn aligner_gauges_track_the_sharded_head() {
    let records = skewed_records(29, 24);
    let cfg = config(2, 4, 16, 2, AlignerConfig::default());
    let live = IcpePipeline::launch(&cfg, |_| {});
    for slice in records.chunks(16) {
        live.push_batch(slice.to_vec()).unwrap();
    }
    // A checkpoint round-trips through every stage, so the gauges published
    // on the router thread are current when it returns.
    let _ = live.checkpoint().unwrap();
    let status = live.status().align();
    assert_eq!(status.shards, 4);
    assert!(status.chains > 0, "36 live trajectories must register");
    assert!(status.sealed_up_to > 0, "frontier must have advanced");
    assert!(
        status.min_shard_frontier <= status.max_shard_frontier,
        "frontier range is ordered"
    );
    assert!(status.imbalance() >= 1.0);
    live.finish();
}
