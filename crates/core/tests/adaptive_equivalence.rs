//! Property-based proof that adaptive (hotspot-rebalanced) routing is
//! invisible to detection semantics: on randomized skewed workloads, with
//! the balancer forced to migrate essentially every window, the pipeline
//! seals the *exact same pattern multiset* as static routing — also
//! across a checkpoint/restore cut taken mid-migration (the restored
//! deployment must also resume on the checkpointed routing epoch).
//!
//! Why this must hold: a cell's objects all route to whichever subtask
//! the table names, and the table only swaps at window boundaries — so
//! every window's cell group is processed whole, wherever it lands.

use icpe_cluster::{grid_allocate, query_cells, CellQueryEngine};
use icpe_core::{BalancerConfig, IcpeConfig, IcpePipeline, PipelineEvent};
use icpe_gen::{HotspotConfig, HotspotGenerator};
use icpe_index::Grid;
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

fn config(parallelism: usize, adaptive: bool, sync_fanin: usize) -> IcpeConfig {
    let mut b = IcpeConfig::builder()
        .constraints(Constraints::new(3, 6, 3, 2).expect("valid"))
        .epsilon(1.0)
        .min_pts(3)
        .parallelism(parallelism)
        .sync_fanin(sync_fanin);
    if adaptive {
        // Migrate at the slightest imbalance, every window: the point is
        // to force as many mid-stream migrations as possible.
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

    /// Adaptive ≡ static, forced migrations — on both
    /// sharded-sync tree shapes (fanin 2 = interior combiner levels,
    /// fanin N = flat funnel): cell migrations re-route *query* work
    /// while the pair→shard keying stays fixed, so the merge path must
    /// absorb arbitrarily re-placed windows unchanged.
    #[test]
    fn adaptive_routing_seals_identical_pattern_multisets(
        seed in 0u64..500,
        parallelism in 2usize..5,
        deep_tree in proptest::bool::ANY,
    ) {
        let fanin = if deep_tree { 2 } else { parallelism.max(2) };
        let records = skewed_records(seed, 36, 24);
        let want = run_collecting(&config(parallelism, false, fanin), &records, 1);
        let got = run_collecting(&config(parallelism, true, fanin), &records, 1);
        prop_assert_eq!(
            multiset(&got.patterns),
            multiset(&want.patterns),
            "parallelism {} epoch {} fanin {}",
            parallelism,
            got.status.routing().epoch,
            fanin
        );
    }

    /// Adaptive with a checkpoint/restore cut mid-migration ≡ an
    /// uninterrupted static run, and the restored pipeline resumes on the
    /// checkpointed routing epoch. With parallelism > 2 at fanin 2 the
    /// barrier that takes the cut aligns at tree-*interior* combiner
    /// slots, which is exactly where a misaligned barrier would capture a
    /// torn window. `resize` restores onto the same parallelism, or grows
    /// 2 → 4, or shrinks 4 → 2 — the shrink drops every learned pin that
    /// names a subtask the restored deployment lacks.
    #[test]
    fn restore_mid_migration_resumes_on_checkpointed_epoch(
        seed in 0u64..500,
        parallelism in 2usize..5,
        cut_windows in 8u32..16,
        deep_tree in proptest::bool::ANY,
        resize in 0usize..3,
    ) {
        let (p_before, p_after) = [(parallelism, parallelism), (2, 4), (4, 2)][resize];
        let fanin = |p: usize| if deep_tree { 2 } else { p.max(2) };
        let records = skewed_records(seed, 36, 24);
        let want =
            run_collecting(&config(p_before, false, fanin(p_before)), &records, 1).patterns;

        // Cut at a record boundary of `cut_windows` full windows (36
        // records per tick: every object reports every tick).
        let cut = (cut_windows as usize * 36).min(records.len());
        let cfg = config(p_before, true, fanin(p_before));
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
        let post: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&post);
        let cfg = config(p_after, true, fanin(p_after));
        let resumed = IcpePipeline::launch_from(&cfg, &ckpt, move |e| {
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
            "parallelism {}→{} cut {} ckpt epoch {}",
            p_before,
            p_after,
            cut,
            routing_ckpt.epoch
        );
    }
}

/// Deterministic companion: on a seed known to migrate, the checkpoint's
/// routing section is populated and the epoch really advanced before the
/// cut (so the proptest above is not vacuously passing on epoch 0).
#[test]
fn forced_migrations_actually_happen() {
    let records = skewed_records(7, 36, 24);
    let cfg = config(4, true, 2);
    let live = IcpePipeline::launch(&cfg, |_| {});
    for r in &records[..(16 * 36).min(records.len())] {
        live.push(*r).unwrap();
    }
    let ckpt = live.checkpoint().unwrap();
    live.finish();
    let routing = ckpt.routing.expect("adaptive checkpoint carries routing");
    assert!(
        routing.epoch > 0,
        "expected mid-stream migrations on the skewed workload"
    );
    assert!(routing.cells_migrated > 0);
    assert!(!routing.loads.is_empty(), "learned loads are checkpointed");
}

/// Per-cell loads exist only where the balancer consumes them. A static
/// deployment keeps the per-subtask window totals STATUS reads, one per
/// sealed window, and no cell windows. An adaptive one keeps, per window,
/// exactly the cells and loads that GridAllocate and the cell queries make
/// of that window's snapshot. Both total a window alike.
#[test]
fn per_cell_loads_are_kept_only_under_adaptive_routing() {
    let gen = HotspotGenerator::new(HotspotConfig {
        num_objects: 36,
        num_ticks: 24,
        area: 120.0,
        num_sites: 9,
        zipf_s: 1.4,
        seed: 7,
        ..HotspotConfig::default()
    });
    let records = gen.traces().to_gps_records();

    let plain = run_collecting(&config(3, false, 3), &records, 1).status;
    assert!(plain.sealed_cell_windows().is_empty());
    assert!(plain.routing().mean_subtask_load > 0.0);
    let sealed = plain.sync().windows_sealed;
    assert_eq!(plain.imbalance_series().len() as u64, sealed);
    assert_eq!(sealed, 24, "every tick seals");

    let cfg = config(3, true, 3);
    let adaptive = run_collecting(&cfg, &records, 1).status;
    let grid = Grid::new(cfg.lg);
    let eps = cfg.dbscan.eps;
    let mut engine = CellQueryEngine::new(eps, cfg.metric);
    let mut want = Vec::new();
    for snapshot in gen.traces().to_snapshots() {
        let mut objects = grid_allocate(&snapshot, &grid, eps);
        let (mut cells, mut pairs, mut records) = (Vec::new(), Vec::new(), 0);
        query_cells(&mut engine, &mut objects, &mut pairs, |cell, load| {
            records += load.records;
            cells.push((cell, load.weight()));
        });
        assert_eq!(records, objects.len() as u64);
        want.push((snapshot.time.0, cells));
    }
    assert_eq!(adaptive.sealed_cell_windows(), want);
    // Both report the last window's subtask totals: its objects and pairs.
    let last: u64 = want
        .last()
        .expect("windows")
        .1
        .iter()
        .map(|&(_, w)| w)
        .sum();
    for status in [&plain, &adaptive] {
        assert_eq!(
            (status.routing().mean_subtask_load * 3.0).round() as u64,
            last
        );
    }
}
