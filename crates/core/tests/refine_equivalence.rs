//! Property-based proof that sub-cell refinement is invisible to detection
//! semantics: on randomized skewed workloads, with the balancer forced to
//! split hot cells (and, in the thrash shape, to coalesce them right back),
//! the pipeline seals the *exact same pattern multiset* as the unrefined
//! static deployment — for all three enumeration engines, and across a
//! checkpoint/restore cut taken mid-refinement onto a *different*
//! parallelism and shard count.
//!
//! Why this must hold: `refine_expand` re-keys each window's objects onto
//! the balancer's current sub-cell tier with ε-padded replication at
//! sub-cell borders (the candidate pair set is provably unchanged — see
//! `prop_index.rs`), and splits/coalesces land strictly between windows,
//! so every window's cells are keyed under exactly one tree wherever the
//! routing table places them.

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

/// `refined`: `None` = static unrefined baseline; `Some(coalesce_frac)` =
/// adaptive with refinement forced on (split at 5% of a fair share, depth
/// up to 2). A high `coalesce_frac` deliberately breaks hysteresis so
/// cells split and coalesce back window after window — the thrash shape.
fn config(
    kind: EnumeratorKind,
    parallelism: usize,
    refined: Option<f64>,
    sync_fanin: usize,
) -> IcpeConfig {
    let mut b = IcpeConfig::builder()
        .constraints(Constraints::new(3, 6, 3, 2).expect("valid"))
        .epsilon(1.0)
        .min_pts(3)
        .parallelism(parallelism)
        .sync_fanin(sync_fanin)
        .enumerator(kind);
    if let Some(coalesce_frac) = refined {
        b = b
            .rebalance(BalancerConfig {
                theta: 1.01,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            })
            .refine_max_depth(2)
            .refine_split_frac(0.05)
            .refine_coalesce_frac(coalesce_frac);
    }
    b.build().expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Refined ≡ unrefined, all engines, forced splits — in both the
    /// hysteresis shape (cells stay split once hot) and the thrash shape
    /// (cells coalesce right back, exercising the re-key paths in both
    /// directions every few windows).
    #[test]
    fn refined_routing_seals_identical_pattern_multisets(
        seed in 0u64..500,
        parallelism in 2usize..5,
        kind_idx in 0usize..3,
        thrash in proptest::bool::ANY,
    ) {
        let kind = [
            EnumeratorKind::Baseline,
            EnumeratorKind::Fba,
            EnumeratorKind::Vba,
        ][kind_idx];
        let coalesce_frac = if thrash { 0.4 } else { 0.02 };
        let records = skewed_records(seed, 36, 24);
        let want = run_collecting(&config(kind, parallelism, None, 2), &records, 1).patterns;
        let got =
            run_collecting(&config(kind, parallelism, Some(coalesce_frac), 2), &records, 1).patterns;
        prop_assert_eq!(
            multiset(&got),
            multiset(&want),
            "kind {:?} parallelism {} thrash {}",
            kind,
            parallelism,
            thrash
        );
    }

    /// A checkpoint cut with sub-cells active restores onto a *different*
    /// parallelism (and shard count) and still seals the uninterrupted
    /// static run's multiset: the refinement tree rides the checkpoint,
    /// the restored balancer re-places sub-cell keys across the new
    /// subtask count, and no window is torn by the cut.
    #[test]
    fn restore_mid_refinement_onto_different_parallelism(
        seed in 0u64..500,
        kind_idx in 0usize..3,
        cut_windows in 8u32..16,
        grow in proptest::bool::ANY,
    ) {
        let kind = [
            EnumeratorKind::Baseline,
            EnumeratorKind::Fba,
            EnumeratorKind::Vba,
        ][kind_idx];
        let (p_before, p_after) = if grow { (2, 4) } else { (4, 2) };
        let records = skewed_records(seed, 36, 24);
        let want = run_collecting(&config(kind, p_before, None, 2), &records, 1).patterns;

        // Cut at a record boundary of `cut_windows` full windows (36
        // records per tick: every object reports every tick).
        let cut = (cut_windows as usize * 36).min(records.len());
        let cfg = config(kind, p_before, Some(0.02), 2);
        let pre: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&pre);
        let live = IcpePipeline::launch(&cfg, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        });
        for r in &records[..cut] {
            live.push(*r).unwrap();
        }
        let ckpt = live.checkpoint().unwrap();
        let delivered_before = pre.lock().unwrap().clone();
        drop(live); // crash: the end-of-stream flush is discarded

        let routing_ckpt = ckpt.routing.clone().expect("adaptive checkpoints carry routing");
        let cfg2 = config(kind, p_after, Some(0.02), 2);
        let post: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&post);
        let resumed = IcpePipeline::launch_from(&cfg2, &ckpt, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        })
        .unwrap();
        prop_assert_eq!(
            resumed.status().routing().epoch, routing_ckpt.epoch,
            "restore must resume on the checkpointed routing epoch"
        );
        for r in &records[cut..] {
            resumed.push(*r).unwrap();
        }
        resumed.finish();

        let mut got = delivered_before;
        got.extend(post.lock().unwrap().clone());
        prop_assert_eq!(
            multiset(&got),
            multiset(&want),
            "kind {:?} {}→{} cut {} refinements {}",
            kind,
            p_before,
            p_after,
            cut,
            routing_ckpt.refinements.len()
        );
    }
}

/// Deterministic companion: on a seed known to run hot, the cut really is
/// mid-refinement — the checkpoint carries an active tree and a non-zero
/// split count (so the proptests above are not vacuously passing with
/// refinement never triggering).
#[test]
fn forced_splits_actually_happen() {
    let records = skewed_records(7, 36, 24);
    let cfg = config(EnumeratorKind::Fba, 4, Some(0.02), 2);
    let live = IcpePipeline::launch(&cfg, |_| {});
    for r in &records[..(16 * 36).min(records.len())] {
        live.push(*r).unwrap();
    }
    let ckpt = live.checkpoint().unwrap();
    let status = live.status().routing();
    live.finish();
    let routing = ckpt.routing.expect("adaptive checkpoint carries routing");
    assert!(
        !routing.refinements.is_empty(),
        "expected an active refinement tree at the cut"
    );
    assert!(
        routing.splits > 0,
        "expected splits on the hotspot workload"
    );
    assert!(
        routing.assignments.iter().any(|a| a.level > 0),
        "sub-cell keys reach the placement"
    );
    assert!(status.refined_cells > 0, "STATUS gauges mirror the tree");
    assert!(status.splits > 0);
}
