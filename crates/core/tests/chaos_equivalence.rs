//! Chaos equivalence: the self-healing pipeline under deterministic fault
//! injection delivers **exactly** what an uninterrupted run delivers.
//!
//! The harness (see `icpe_runtime::FaultPlan`) keys every fault to a
//! logical position — stage, subtask, per-subtask batch ordinal — so a
//! supervised run and its baseline process identical inputs and the fault
//! fires at an identical record boundary every time. The supervised run
//! then must:
//!
//! * seal the **identical pattern multiset** (duplicates included — a
//!   pattern delivered twice across the recovery cut would show up here),
//! * seal every snapshot **exactly once**,
//! * conserve every status number that is not a wall-clock measurement
//!   (late drops, merged pairs, sealed windows, completed snapshots, the
//!   frontiers, and cells migrated under adaptive routing) — each is
//!   published by its one owner, which the relaunched generation restores
//!   from the cut, so replay re-earns the post-cut span exactly once,
//! * end `Healthy`, with the restart on the books and every armed fault
//!   point fired.
//!
//! The matrix crosses fault kinds (worker panic, worker stall, delayed
//! exchange send) and fault sites (align-route, align-shard, grid-query,
//! sync-merge-final, enumerate) with parallelism 1 / 2 / 4; a proptest then randomizes the
//! fault site over randomized workloads.

use icpe_cluster::BalancerConfig;
use icpe_core::{HealthState, IcpeConfig, PipelineStatus, Supervision};
use icpe_runtime::FaultPlan;
use icpe_types::{Constraints, GpsRecord, Pattern};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::multiset;

const SNAPSHOTS: usize = 12;

fn records(seed: u64) -> Vec<GpsRecord> {
    icpe_gen::GroupWalkGenerator::new(icpe_gen::GroupWalkConfig {
        num_objects: 18,
        num_groups: 2,
        group_size: 4,
        num_snapshots: SNAPSHOTS as u32,
        seed,
        ..icpe_gen::GroupWalkConfig::default()
    })
    .traces()
    .to_gps_records()
}

/// Small batches keep fault-point batch ordinals dense (every generation
/// sees several batches per stage per snapshot), so injected faults fire
/// deterministically early in the stream.
fn config(n: usize, fault: Option<&str>) -> IcpeConfig {
    config_with(n, fault, None)
}

fn config_with(n: usize, fault: Option<&str>, rebalance: Option<BalancerConfig>) -> IcpeConfig {
    let mut b = IcpeConfig::builder()
        .constraints(Constraints::new(3, 4, 2, 2).unwrap())
        .epsilon(2.5)
        .min_pts(3)
        .parallelism(n)
        .batch_size(4);
    if let Some(balancer) = rebalance {
        b = b.rebalance(balancer);
    }
    if let Some(spec) = fault {
        b = b
            .supervised(Supervision {
                backoff: std::time::Duration::from_millis(1),
                checkpoint_every_records: Some(24),
                ..Supervision::default()
            })
            .fault_plan(Arc::new(FaultPlan::from_spec(spec).unwrap()));
    }
    b.build().unwrap()
}

struct RunOutput {
    patterns: Vec<Pattern>,
    seals: Vec<u32>,
    conserved: Conserved,
    final_health: HealthState,
    restarts: u64,
}

/// The status numbers a recovery must leave exactly as an uninterrupted
/// run has them: everything but wall-clock measurements, configuration,
/// and the last window's per-subtask load split (telemetry, not a count).
#[derive(Debug, PartialEq)]
struct Conserved {
    records_late: u64,
    aligner_late_dropped: u64,
    aligner_sealed_frontier: u64,
    aligned_frontier: Option<u32>,
    sealed_frontier: Option<u32>,
    in_flight: usize,
    snapshots: usize,
    sync_pairs_merged: u64,
    sync_windows_sealed: u64,
    routing_epoch: u64,
    cells_migrated: u64,
}

impl Conserved {
    fn read(status: &PipelineStatus) -> Conserved {
        let s = status.snapshot();
        Conserved {
            records_late: s.progress.late_records,
            aligner_late_dropped: s.align.late_dropped,
            aligner_sealed_frontier: s.align.sealed_up_to,
            aligned_frontier: s.progress.max_ingested,
            sealed_frontier: s.progress.max_sealed,
            in_flight: s.progress.in_flight,
            snapshots: s.report.snapshots,
            sync_pairs_merged: s.sync.pairs_merged,
            sync_windows_sealed: s.sync.windows_sealed,
            routing_epoch: s.routing.epoch,
            cells_migrated: s.routing.cells_migrated,
        }
    }
}

fn run(config: &IcpeConfig, records: &[GpsRecord]) -> RunOutput {
    let out = common::run_collecting(config, records, 1);
    RunOutput {
        patterns: out.patterns,
        seals: out.seals,
        conserved: Conserved::read(&out.status),
        final_health: out.status.health(),
        restarts: out
            .status
            .obs()
            .counter("supervisor", 0, "pipeline_restarts_total")
            .get(),
    }
}

/// One supervised-vs-baseline comparison under `spec`.
fn assert_chaos_equivalence(n: usize, spec: &str, seed: u64) {
    assert_chaos_equivalence_with(n, spec, seed, None);
}

/// [`assert_chaos_equivalence`] with adaptive routing configured; returns
/// the baseline's status numbers.
fn assert_chaos_equivalence_with(
    n: usize,
    spec: &str,
    seed: u64,
    rebalance: Option<BalancerConfig>,
) -> Conserved {
    let input = records(seed);
    let baseline = run(&config_with(n, None, rebalance), &input);
    assert!(
        !baseline.patterns.is_empty(),
        "workload must plant detectable groups (n={n} seed={seed})"
    );

    let chaotic = config_with(n, Some(spec), rebalance);
    let plan = chaotic.runtime.fault.clone().unwrap();
    let healed = run(&chaotic, &input);

    assert!(
        plan.exhausted(),
        "a fault point never fired (n={n} spec={spec}): {:?}",
        plan.points()
            .iter()
            .filter(|p| !p.fired())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        multiset(&healed.patterns),
        multiset(&baseline.patterns),
        "healed multiset diverged (n={n} spec={spec})"
    );
    let mut seals = healed.seals.clone();
    seals.sort_unstable();
    assert_eq!(
        seals,
        (0..SNAPSHOTS as u32).collect::<Vec<_>>(),
        "every snapshot seals exactly once (n={n} spec={spec})"
    );
    assert_eq!(
        healed.conserved.snapshots, SNAPSHOTS,
        "progress counters conserved (n={n} spec={spec})"
    );
    assert_eq!(
        healed.conserved, baseline.conserved,
        "status numbers conserved (n={n} spec={spec})"
    );
    assert_eq!(
        healed.final_health,
        HealthState::Healthy,
        "pipeline ends healthy (n={n} spec={spec})"
    );
    baseline.conserved
}

#[test]
fn panic_mid_stream_heals_identically_across_parallelism() {
    // (parallelism, fault site): every pipeline stage takes a hit
    // somewhere in the matrix, including a subtask other than 0.
    for (n, spec) in [
        (1, "panic@enumerate:0:1"),
        (2, "panic@grid-query:1:1"),
        (4, "panic@align-route:0:2"),
    ] {
        assert_chaos_equivalence(n, spec, 0xC0FFEE);
    }
}

#[test]
fn align_shard_panic_heals_identically() {
    // A dying aligner shard leaves its siblings' batches of the windows it
    // never ticked open at every grid-query subtask. Those windows must not
    // seal short of the dead shard's objects: only the replay from the cut
    // may deliver them, each exactly once.
    for (n, spec) in [
        (2, "panic@align-shard:1:1"),
        (3, "panic@align-shard:0:2"),
        (4, "panic@align-shard:2:3"),
    ] {
        assert_chaos_equivalence(n, spec, 0xC0FFEE);
    }
}

#[test]
fn double_panic_and_stall_heal_identically() {
    // Two failures in one run (two recovery cycles), plus a stalled
    // grid-query subtask exercising barrier alignment in the sync-merge
    // tree under a slow producer.
    assert_chaos_equivalence(
        2,
        "panic@align-route:0:1;panic@enumerate:1:2;stall@grid-query:1:0:25",
        0xC0FFEE,
    );
}

#[test]
fn delayed_exchange_send_is_invisible() {
    // DelaySend holds one outbound batch back without losing it — ordering
    // within a channel is preserved, so detection must not notice.
    assert_chaos_equivalence(
        2,
        "delay@grid-query:0:1:30;panic@sync-merge-final:0:0",
        0xBEEF,
    );
}

#[test]
fn adaptive_routing_heals_with_migrations_conserved() {
    // Pair loads reach the balancer with the pipeline's in-flight lag, so
    // the window a pair count lands in is timing. Weighing pairs 0 leaves
    // the balancer the exact per-window record counts alone — the same
    // decisions run to run — so a restart must re-earn exactly the
    // migrations its cut did not hold: no more (the pre-crash span counted
    // twice), no fewer.
    let balancer = BalancerConfig {
        theta: 1.1,
        cooldown_windows: 0,
        sync_pair_weight: 0.0,
        ..BalancerConfig::default()
    };
    for (n, spec) in [(2, "panic@grid-query:1:3"), (3, "panic@align-route:0:5")] {
        let baseline = assert_chaos_equivalence_with(n, spec, 0xC0FFEE, Some(balancer));
        assert!(
            baseline.cells_migrated > 0,
            "the workload must migrate cells (n={n}): {baseline:?}"
        );
    }
}

/// The load tracker rewinds to the cut with the rest of the status
/// surface: the windows grid-query reported after the cut are reported
/// again by the replay, and the per-window series holds each window once.
#[test]
fn supervised_replay_reports_each_window_once() {
    const TICKS: u32 = 30;
    let input = icpe_gen::GroupWalkGenerator::new(icpe_gen::GroupWalkConfig {
        num_objects: 18,
        num_groups: 2,
        group_size: 4,
        num_snapshots: TICKS,
        seed: 0xC0FFEE,
        ..icpe_gen::GroupWalkConfig::default()
    })
    .traces()
    .to_gps_records();
    let config = IcpeConfig::builder()
        .constraints(Constraints::new(3, 4, 2, 2).unwrap())
        .epsilon(2.5)
        .min_pts(3)
        .parallelism(2)
        .batch_size(4)
        .supervised(Supervision {
            backoff: std::time::Duration::from_millis(1),
            checkpoint_every_records: Some(64),
            ..Supervision::default()
        })
        .fault_plan(Arc::new(
            FaultPlan::from_spec("panic@grid-query:0:20").unwrap(),
        ))
        .build()
        .unwrap();
    let plan = config.runtime.fault.clone().unwrap();
    let out = common::run_collecting(&config, &input, 1);
    assert!(plan.exhausted(), "the grid-query panic fired");
    let windows: Vec<u32> = out
        .status
        .imbalance_series()
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    assert_eq!(windows, (0..TICKS).collect::<Vec<_>>());
}

#[test]
fn restart_counters_land_in_the_registry() {
    let input = records(7);
    let cfg = config(2, Some("panic@align-route:0:2"));
    let healed = run(&cfg, &input);
    assert!(
        healed.restarts >= 1,
        "pipeline_restarts_total accounted the recovery"
    );
    assert_eq!(healed.final_health, HealthState::Healthy);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Randomized chaos: any single panic at a random (stage, subtask,
    /// ordinal) over a randomized workload heals to the uninterrupted
    /// run's exact delivery multiset.
    #[test]
    fn random_panic_site_heals_identically(
        seed in 0u64..1_000,
        n in 1usize..=3,
        site_ix in 0usize..5,
        subtask in 0usize..3,
        ordinal in 0u64..3,
    ) {
        let site = [
            "align-route",
            "align-shard",
            "grid-query",
            "sync-merge-final",
            "enumerate",
        ][site_ix];
        // The frontier router and the tree finalizer are single subtasks;
        // the other sites run n.
        let single = site == "align-route" || site == "sync-merge-final";
        let subtask = if single { 0 } else { subtask % n };
        // Low ordinals on a busy stage always fire; the finalizer sees one
        // batch per window, so keep its ordinal at 0.
        let ordinal = if site == "sync-merge-final" { 0 } else { ordinal };
        let spec = format!("panic@{site}:{subtask}:{ordinal}");
        assert_chaos_equivalence(n, &spec, seed);
    }
}
