//! The live traced run: passes through the real parallel deployment with
//! `instrument(true)`, read back from the registry the program exposes
//! through `LivePipeline::obs()`, plus the special passes (mid-stream
//! checkpoint, supervision, an injected panic). None of these numbers is
//! an end-to-end metric; they say where an end-to-end change came from.

use crate::oracle::{Oracle, Tally};
use crate::passes::{detect_latencies_ms, run_pass, run_pass_with, Load};
use crate::procstat::cpu_seconds;
use crate::stats::percentile;
use crate::workload::{Workload, PARALLELISM};
use icpe_core::Supervision;
use icpe_persist::CheckpointStore;
use icpe_runtime::{FaultPlan, Gauge, MetricRegistry};
use icpe_types::{GpsRecord, PipelineCheckpoint};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The dataflow's stages, aggregation-tree levels summed under the stage.
pub const STAGES: [&str; 7] = [
    "align-route",
    "align-shard",
    "snap-merge",
    "grid-query",
    "sync-shard",
    "sync-merge",
    "enumerate",
];

/// The stage a registry label belongs to (`sync-merge-l0` → `sync-merge`).
fn stage_of(label: &str) -> Option<&'static str> {
    STAGES.iter().copied().find(|s| {
        label == *s
            || label
                .strip_prefix(s)
                .is_some_and(|rest| rest.starts_with('-'))
    })
}

pub struct LiveTrace {
    pub metrics: Vec<(String, f64)>,
    pub tally: Tally,
    /// The passes that failed verification, by name.
    pub failed_passes: Vec<String>,
    /// The stage with the most time blocked in front of it: its upstream
    /// waits while it is busy.
    pub bottleneck: &'static str,
    pub untraced_rps: f64,
}

/// The queue-depth gauges of every hop, registered up front (the pipeline
/// then shares the cells) so a pass can be sampled with atomic loads only.
fn depth_gauges(obs: &MetricRegistry) -> Vec<Gauge> {
    // The hops of the fixed deployment, labelled by receiving stage: at
    // parallelism 2 each aggregation tree is its finalizer alone.
    const HOPS: [&str; 8] = [
        "align-route",
        "align-shard",
        "snap-merge-final",
        "grid-query",
        "sync-shard",
        "sync-merge-final",
        "enumerate",
        "sink",
    ];
    HOPS.iter()
        .flat_map(|hop| (0..PARALLELISM).map(move |d| (hop, d)))
        .map(|(hop, d)| obs.gauge(hop, d, "exchange_queue_depth"))
        .collect()
}

fn supervised(workload: &Workload, fault: Option<Arc<FaultPlan>>) -> icpe_core::IcpeConfig {
    workload.tuned(false, |b| {
        let b = b.supervised(Supervision::default());
        match fault {
            Some(plan) => b.fault_plan(plan),
            None => b,
        }
    })
}

/// Runs the traced passes. `ckpt_dir` is where the persisted checkpoint is
/// written (and removed again).
pub fn live_trace(
    workload: &Workload,
    records: &[GpsRecord],
    oracle: &Oracle,
    serial_cpu_s_per_mrec: f64,
    ckpt_dir: &Path,
) -> std::io::Result<LiveTrace> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut tally = Tally::default();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), value));
    let n = records.len();
    let mut failed_passes = Vec::new();
    let mut account = |name: &str, pass: Tally| {
        tally.add(pass);
        if pass.failed > 0 {
            failed_passes.push(format!("{name} pass: {} failed", pass.failed));
        }
    };

    // Mid-stream checkpoint: the barrier's round trip through the running
    // dataflow, then the checkpoint through the persistence layer. This
    // pass goes first: the first pass of a process also grows the heap, and
    // the two passes compared for `trace_overhead` should both run warm.
    let mut barrier_ms = 0.0;
    let mut checkpoint: Option<PipelineCheckpoint> = None;
    let (ckpt_pass, _) = run_pass_with(
        &workload.config(false),
        records,
        oracle,
        Load::Saturate,
        |pushed, live| {
            if checkpoint.is_none() && pushed >= n / 2 {
                let started = Instant::now();
                checkpoint = live.checkpoint().ok();
                barrier_ms = started.elapsed().as_secs_f64() * 1e3;
            }
        },
    );
    account("checkpoint", ckpt_pass.tally);
    let checkpoint = checkpoint.ok_or_else(|| std::io::Error::other("checkpoint refused"))?;
    let store = CheckpointStore::open(ckpt_dir, 1).map_err(std::io::Error::other)?;
    let started = Instant::now();
    let path = store
        .save(checkpoint.seq, &checkpoint)
        .map_err(std::io::Error::other)?;
    let save_ms = started.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(&path)?.len();
    let started = Instant::now();
    let loaded: PipelineCheckpoint = store.load(&path).map_err(std::io::Error::other)?;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_dir_all(ckpt_dir)?;
    if loaded != checkpoint {
        return Err(std::io::Error::other(
            "checkpoint changed on its way through the store",
        ));
    }
    put("core.checkpoint.barrier_ms", barrier_ms);
    put("persist.store.save_ms", save_ms);
    put("persist.store.load_ms", load_ms);
    put("persist.store.bytes", bytes as f64);

    // Untraced reference pass: throughput and CPU of the plain deployment.
    let cpu0 = cpu_seconds().unwrap_or(0.0);
    let (plain, _) = run_pass(&workload.config(false), records, oracle, Load::Saturate);
    let parallel_cpu_s_per_mrec = (cpu_seconds().unwrap_or(0.0) - cpu0) / n as f64 * 1e6;
    let untraced_rps = plain.records_per_s(n);
    account("untraced", plain.tally);

    // Traced pass: the same job with stage and exchange instrumentation on.
    let mut depth_max = 0u64;
    let mut gauges: Option<Vec<Gauge>> = None;
    let (traced, obs) = run_pass_with(
        &workload.config(true),
        records,
        oracle,
        Load::Saturate,
        |pushed, live| {
            let gauges = gauges.get_or_insert_with(|| depth_gauges(live.obs()));
            if pushed % 1024 < 64 {
                depth_max = depth_max.max(gauges.iter().map(Gauge::get).max().unwrap_or(0));
            }
        },
    );
    account("traced", traced.tally);
    let mut busy = [0.0f64; STAGES.len()];
    for (label, seconds) in obs.stage_seconds() {
        if let Some(stage) = stage_of(&label) {
            busy[STAGES
                .iter()
                .position(|s| *s == stage)
                .expect("known stage")] += seconds;
        }
    }
    let mut blocked = [0.0f64; STAGES.len()];
    let mut blocked_total = 0.0;
    for row in obs.counter_checkpoint().counters {
        if row.name == "exchange_blocked_seconds_total" {
            let seconds = row.value as f64 / 1e9;
            blocked_total += seconds;
            if let Some(stage) = stage_of(&row.stage) {
                blocked[STAGES
                    .iter()
                    .position(|s| *s == stage)
                    .expect("known stage")] += seconds;
            }
        }
    }
    let busy_total: f64 = busy.iter().sum();
    for (i, stage) in STAGES.iter().enumerate() {
        put(&format!("core.stage.{stage}.busy_s"), busy[i]);
        put(
            &format!("core.stage.{stage}.share"),
            busy[i] / busy_total.max(1e-12),
        );
        put(&format!("core.stage.{stage}.blocked_s"), blocked[i]);
    }
    let bottleneck = STAGES[blocked
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)];
    put("runtime.exchange.blocked_s", blocked_total);
    put("runtime.exchange.queue_depth_max", depth_max as f64);
    put(
        "core.pipeline.trace_overhead",
        1.0 - traced.records_per_s(n) / untraced_rps.max(1e-9),
    );
    put(
        "core.pipeline.parallel_cost",
        parallel_cpu_s_per_mrec / serial_cpu_s_per_mrec.max(1e-12),
    );

    // Supervision: what the supervisor costs when nothing fails, and what
    // one worker panic costs.
    let (calm, _) = run_pass(&supervised(workload, None), records, oracle, Load::Saturate);
    account("supervised", calm.tally);
    put(
        "core.supervisor.overhead",
        1.0 - calm.records_per_s(n) / untraced_rps.max(1e-9),
    );
    // Batch ordinals are the fault plan's only clock. An enumeration
    // subtask gets at least one batch per tick (the broadcast tick travels
    // as a batch of its own), so ordinal ticks/2 is reached at or before
    // mid-stream however the data batches happened to be cut.
    let ticks = n / workload.objects;
    let plan = Arc::new(
        FaultPlan::from_spec(&format!("panic@enumerate:0:{}", (ticks / 2).max(1)))
            .map_err(std::io::Error::other)?,
    );
    let (healed, obs) = run_pass(
        &supervised(workload, Some(Arc::clone(&plan))),
        records,
        oracle,
        Load::Saturate,
    );
    // What this pass delivered wrongly is reported, not counted as failed:
    // the run's `failed` covers the fault-free job, and a recovery that
    // delivers a pattern twice is a finding about the supervisor.
    let misdelivered = healed.tally.failed;
    account(
        "supervised+panic",
        Tally {
            failed: 0,
            ..healed.tally
        },
    );
    if !plan.exhausted() {
        return Err(std::io::Error::other("the injected panic never fired"));
    }
    put(
        "core.supervisor.recovery_ms",
        obs.gauge("supervisor", 0, "mean_recovery_ms").get() as f64,
    );
    put(
        "core.supervisor.replayed_records",
        obs.counter("supervisor", 0, "replayed_records_total").get() as f64,
    );
    put("core.supervisor.misdelivered", misdelivered as f64);

    // The generator's own validity, from a short open-loop pass.
    let group = workload.objects;
    let short = &records[..(records.len() / 2)
        .next_multiple_of(group)
        .min(records.len())];
    let short_oracle = Oracle::run(workload, short);
    let (paced, _) = run_pass(
        &workload.config(false),
        short,
        &short_oracle,
        Load::Paced {
            ticks_per_s: workload.paced_ticks_per_s,
            group_records: group,
        },
    );
    account("short paced", paced.tally);
    // The tail of accept → detect latency. Not an end-to-end metric: on
    // this host its run-to-run spread (15–60 %) is wider than any bound
    // the benchmark could hold it to.
    let mut latencies = detect_latencies_ms(&short_oracle, &paced, group);
    put(
        "detect_p99_ms",
        percentile(&mut latencies, 0.99).unwrap_or(0.0),
    );
    let report = paced.open_loop.expect("a paced pass reports its loop");
    put("loadgen.lag_p99_ms", report.lag_p99_ms);
    put("loadgen.backlog_growth_rps", report.backlog_growth_rps);

    Ok(LiveTrace {
        metrics,
        tally,
        failed_passes,
        bottleneck,
        untraced_rps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_levels_fold_into_their_stage() {
        assert_eq!(stage_of("sync-merge-l0"), Some("sync-merge"));
        assert_eq!(stage_of("snap-merge-final"), Some("snap-merge"));
        assert_eq!(stage_of("grid-query"), Some("grid-query"));
        assert_eq!(stage_of("align-router"), None);
        assert_eq!(stage_of("sink"), None);
    }
}
