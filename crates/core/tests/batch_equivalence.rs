//! Property-based proof that micro-batch vectorization is invisible to
//! detection semantics: on randomized skewed workloads the batched
//! pipeline seals the *exact same pattern multiset* as the record-at-a-time
//! (batch size 1) pipeline — for all three enumeration engines, across a
//! checkpoint/restore cut, and with the hotspot balancer forcing mid-stream
//! routing migrations on top.
//!
//! Why this must hold: batch buffers only defer *when* records cross an
//! exchange hop, never where they go or in what per-channel order; and
//! every broadcast-routed punctuation (snapshot tick, checkpoint barrier)
//! flushes the buffers first, so ticks and barriers land between batches
//! exactly as they landed between records.

use icpe_core::{BalancerConfig, EnumeratorKind, IcpeConfig, IcpePipeline, PipelineEvent};
use icpe_gen::{HotspotConfig, HotspotGenerator};
use icpe_types::{Constraints, GpsRecord, Pattern};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

mod common;
use common::{multiset, run_collecting};

fn skewed_records(seed: u64, objects: usize, ticks: u32) -> Vec<GpsRecord> {
    HotspotGenerator::new(HotspotConfig {
        num_objects: objects,
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

fn config(
    kind: EnumeratorKind,
    parallelism: usize,
    batch: usize,
    adaptive: bool,
    sync_fanin: usize,
) -> IcpeConfig {
    let mut b = IcpeConfig::builder()
        .constraints(Constraints::new(3, 6, 3, 2).expect("valid"))
        .epsilon(1.0)
        .min_pts(3)
        .parallelism(parallelism)
        .sync_fanin(sync_fanin)
        .enumerator(kind)
        .batch_size(batch);
    if adaptive {
        // Migrate at the slightest imbalance, every window: the point is
        // to force as many mid-stream migrations as possible while the
        // batched hops are in play.
        b = b.rebalance(BalancerConfig {
            theta: 1.01,
            cooldown_windows: 0,
            ..BalancerConfig::default()
        });
    }
    b.build().expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Batched ≡ unbatched, all engines, arbitrary batch and ingest-chunk
    /// sizes — across the sharded-sync axis too: the tree fanin (2 = the
    /// deepest tree, N = the flat funnel) must be invisible to the sealed
    /// multiset, and the serial seed it is compared against is the
    /// parallelism-1 deployment whose sync path degenerates to the
    /// pre-sharding single funnel.
    #[test]
    fn batched_pipeline_seals_identical_pattern_multisets(
        seed in 0u64..500,
        parallelism in 2usize..5,
        kind_idx in 0usize..3,
        batch in 2usize..96,
        chunk in 1usize..80,
        deep_tree in proptest::bool::ANY,
    ) {
        let kind = [
            EnumeratorKind::Baseline,
            EnumeratorKind::Fba,
            EnumeratorKind::Vba,
        ][kind_idx];
        // fanin ∈ {2, N}: the deepest aggregation tree vs the flat funnel.
        let fanin = if deep_tree { 2 } else { parallelism.max(2) };
        let records = skewed_records(seed, 36, 24);
        let want = run_collecting(&config(kind, 1, 1, false, 2), &records, 1).patterns;
        let got =
            run_collecting(&config(kind, parallelism, batch, false, fanin), &records, chunk).patterns;
        prop_assert_eq!(
            multiset(&got),
            multiset(&want),
            "kind {:?} parallelism {} batch {} chunk {} fanin {}",
            kind,
            parallelism,
            batch,
            chunk,
            fanin
        );
    }

    /// Batched + forced rebalance migrations + a checkpoint/restore cut
    /// mid-stream ≡ an uninterrupted unbatched static run — and the
    /// restored pipeline may even resume with a *different* batch size
    /// (batching is transport, not state). With parallelism > 2 and
    /// fanin 2 the barrier aligns through tree-*interior* combiner levels
    /// on both sides of the cut, and the restored deployment may run a
    /// different tree shape than the one that wrote the checkpoint.
    #[test]
    fn batched_restore_with_migrations_matches_unbatched(
        seed in 0u64..500,
        parallelism in 2usize..5,
        kind_idx in 0usize..3,
        batch in 2usize..96,
        resume_batch in 1usize..96,
        cut_windows in 8u32..16,
        deep_tree in proptest::bool::ANY,
    ) {
        let kind = [
            EnumeratorKind::Baseline,
            EnumeratorKind::Fba,
            EnumeratorKind::Vba,
        ][kind_idx];
        // fanin ∈ {2, N}; the resumed deployment uses the other shape.
        let fanin = if deep_tree { 2 } else { parallelism.max(2) };
        let resume_fanin = if deep_tree { parallelism.max(2) } else { 2 };
        let records = skewed_records(seed, 36, 24);
        let want = run_collecting(&config(kind, 1, 1, false, 2), &records, 1).patterns;

        // Cut at a record boundary of `cut_windows` full windows (36
        // records per tick: every object reports every tick).
        let cut = (cut_windows as usize * 36).min(records.len());
        let cfg = config(kind, parallelism, batch, true, fanin);
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

        let resume_cfg = config(kind, parallelism, resume_batch, true, resume_fanin);
        let post: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&post);
        let resumed = IcpePipeline::launch_from(&resume_cfg, &ckpt, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        })
        .unwrap();
        for slice in records[cut..].chunks(resume_batch) {
            resumed.push_batch(slice.to_vec()).unwrap();
        }
        resumed.finish();

        let mut got = delivered_before;
        got.extend(post.lock().unwrap().clone());
        prop_assert_eq!(
            multiset(&got),
            multiset(&want),
            "kind {:?} parallelism {} batch {} resume_batch {} cut {} fanin {}→{}",
            kind,
            parallelism,
            batch,
            resume_batch,
            cut,
            fanin,
            resume_fanin
        );
    }
}

/// Deterministic companion: the adaptive run in the proptest really does
/// migrate mid-stream under batching (so the combined property is not
/// vacuously passing on routing epoch 0).
#[test]
fn batched_migrations_actually_happen() {
    let records = skewed_records(7, 36, 24);
    let cfg = config(EnumeratorKind::Fba, 4, 64, true, 2);
    let live = IcpePipeline::launch(&cfg, |_| {});
    for slice in records.chunks(64) {
        live.push_batch(slice.to_vec()).unwrap();
    }
    let ckpt = live.checkpoint().unwrap();
    live.finish();
    let routing = ckpt.routing.expect("adaptive checkpoint carries routing");
    assert!(
        routing.epoch > 0,
        "expected mid-stream migrations on the skewed workload"
    );
}
