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
//! * conserve the progress counters (`snapshots` in the final report),
//! * end `Healthy`, with the restart on the books and every armed fault
//!   point fired.
//!
//! The matrix crosses fault kinds (worker panic, worker stall, delayed
//! exchange send) and fault sites (align-route, grid-query,
//! sync-merge-final, enumerate) with parallelism 1 / 2 / 4; a proptest then randomizes the
//! fault site over randomized workloads.

use icpe_core::{HealthState, IcpeConfig, Supervision};
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
    let mut b = IcpeConfig::builder()
        .constraints(Constraints::new(3, 4, 2, 2).unwrap())
        .epsilon(2.5)
        .min_pts(3)
        .parallelism(n)
        .batch_size(4);
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
    snapshots: u64,
    final_health: HealthState,
    restarts: u64,
}

fn run(config: &IcpeConfig, records: &[GpsRecord]) -> RunOutput {
    let out = common::run_collecting(config, records, 1);
    RunOutput {
        patterns: out.patterns,
        seals: out.seals,
        snapshots: out.report.snapshots as u64,
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
    let input = records(seed);
    let baseline = run(&config(n, None), &input);
    assert!(
        !baseline.patterns.is_empty(),
        "workload must plant detectable groups (n={n} seed={seed})"
    );

    let chaotic = config(n, Some(spec));
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
        healed.snapshots, SNAPSHOTS as u64,
        "progress counters conserved (n={n} spec={spec})"
    );
    assert_eq!(
        healed.final_health,
        HealthState::Healthy,
        "pipeline ends healthy (n={n} spec={spec})"
    );
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
        site_ix in 0usize..4,
        subtask in 0usize..3,
        ordinal in 0u64..3,
    ) {
        let site = ["align-route", "grid-query", "sync-merge-final", "enumerate"][site_ix];
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
