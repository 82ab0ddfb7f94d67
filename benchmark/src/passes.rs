//! One pass of a record stream through the in-process deployment
//! (`IcpePipeline::launch`): closed loop or open loop.

use crate::loadgen::{open_loop, OpenLoopReport};
use crate::oracle::{verify, Delivered, EdgeCounts, Oracle, Tally};
use icpe_core::{IcpeConfig, IcpePipeline, LivePipeline};
use icpe_runtime::MetricRegistry;
use icpe_types::GpsRecord;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one pass did.
#[derive(Debug)]
pub struct PassOutcome {
    /// First push → `finish()` returned and everything delivered.
    pub wall_s: f64,
    pub tally: Tally,
    pub delivered: Delivered,
    /// The generator's own report (open loop only).
    pub open_loop: Option<OpenLoopReport>,
}

impl PassOutcome {
    pub fn records_per_s(&self, records: usize) -> f64 {
        records as f64 / self.wall_s.max(1e-9)
    }
}

/// How a pass offers its records.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Closed loop, one client: push as fast as the channel accepts.
    Saturate,
    /// Open loop: release `group_records` records every `1 / ticks_per_s`.
    Paced {
        ticks_per_s: u32,
        group_records: usize,
    },
}

/// Pushes `records` in ingest batches, calling `after_batch(records pushed
/// so far)` after each; returns how many were refused (the pipeline hung up).
fn push_all(
    live: &LivePipeline,
    records: &[GpsRecord],
    batch: usize,
    mut after_batch: impl FnMut(usize),
) -> u64 {
    let mut pushed = 0;
    for chunk in records.chunks(batch) {
        if live.push_batch(chunk.to_vec()).is_err() {
            return (records.len() - pushed) as u64;
        }
        pushed += chunk.len();
        after_batch(pushed);
    }
    0
}

/// Runs one pass; also hands back the pipeline's metric registry (filled
/// only when `config.instrument` is on).
pub fn run_pass(
    config: &IcpeConfig,
    records: &[GpsRecord],
    oracle: &Oracle,
    load: Load,
) -> (PassOutcome, MetricRegistry) {
    run_pass_with(config, records, oracle, load, |_, _| {})
}

/// [`run_pass`] with a hook called after each ingest batch of a saturating
/// pass (`records pushed so far`, the pipeline) — the traced run samples
/// queue depths and takes its mid-stream checkpoint through it.
pub fn run_pass_with(
    config: &IcpeConfig,
    records: &[GpsRecord],
    oracle: &Oracle,
    load: Load,
    mut after_batch: impl FnMut(usize, &LivePipeline),
) -> (PassOutcome, MetricRegistry) {
    let sink = Arc::new(Mutex::new(Delivered::expecting(oracle)));
    let events = Arc::clone(&sink);
    let live = IcpePipeline::launch(config, move |event| {
        events.lock().expect("sink poisoned").on_event(event);
    });
    let obs = live.obs().clone();
    let batch = config.runtime.batch_size.max(1);
    let mut refused = 0u64;
    let started = Instant::now();
    let report = match load {
        Load::Saturate => {
            refused = push_all(&live, records, batch, |pushed| after_batch(pushed, &live));
            None
        }
        Load::Paced {
            ticks_per_s,
            group_records,
        } => {
            let groups = records.len().div_ceil(group_records) as u32;
            Some(open_loop(
                ticks_per_s,
                groups,
                group_records,
                |k| {
                    let from = k as usize * group_records;
                    let to = (from + group_records).min(records.len());
                    refused += push_all(&live, &records[from..to], batch, |_| {});
                },
                || sink.lock().expect("sink poisoned").sealed,
            ))
        }
    };
    let metrics = live.finish();
    let wall_s = started.elapsed().as_secs_f64();
    let delivered = std::mem::replace(
        &mut *sink.lock().expect("sink poisoned"),
        Delivered::expecting(oracle),
    );
    let tally = verify(
        oracle,
        &delivered,
        EdgeCounts {
            offered: records.len() as u64,
            refused,
            late_dropped: metrics.late_records,
            lines_lost: 0,
        },
    );
    (
        PassOutcome {
            wall_s,
            tally,
            delivered,
            open_loop: report,
        },
        obs,
    )
}

/// Accept → detect latencies of a paced pass, milliseconds: for every
/// snapshot a record sealed, the delivery of its `SnapshotSealed` minus the
/// instant that record was *due* (not when it was actually sent).
pub fn detect_latencies_ms(
    oracle: &Oracle,
    outcome: &PassOutcome,
    group_records: usize,
) -> Vec<f64> {
    let Some(report) = &outcome.open_loop else {
        return Vec::new();
    };
    oracle
        .trigger
        .iter()
        .enumerate()
        .filter_map(|(i, trigger)| {
            let due = report
                .schedule
                .due(trigger.as_ref()? / group_records as u32);
            let sealed = outcome.delivered.sealed_at(i)?;
            Some(sealed.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect()
}
