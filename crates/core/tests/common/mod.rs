//! The run-and-collect scaffold the equivalence batteries share: launch a
//! pipeline, push the records, finish, and hand back everything a battery
//! compares — so "what a run delivered" is defined in one place.
//!
//! Each battery is its own test crate and reads only the fields it needs.
#![allow(dead_code)]

use icpe_core::{IcpeConfig, IcpePipeline, PipelineEvent, PipelineStatus};
use icpe_runtime::MetricsReport;
use icpe_types::{GpsRecord, ObjectId, Pattern, Timestamp};
use std::sync::{Arc, Mutex};

/// What one finished run delivered and reported.
pub struct RunOutput {
    /// Every delivered pattern, in delivery order.
    pub patterns: Vec<Pattern>,
    /// Every `SnapshotSealed` time, in delivery order.
    pub seals: Vec<u32>,
    /// The final metrics (`snapshots`, `late_records`, …).
    pub report: MetricsReport,
    /// The status surface, still readable after the run (routing epoch,
    /// health, the registry's restart counters, …).
    pub status: PipelineStatus,
}

/// Runs the pipeline pushing records in ingest chunks of `chunk` (1 = the
/// single-record `push` path), collecting every delivery.
pub fn run_collecting(config: &IcpeConfig, records: &[GpsRecord], chunk: usize) -> RunOutput {
    let patterns: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
    let seals: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let (p, s) = (Arc::clone(&patterns), Arc::clone(&seals));
    let live = IcpePipeline::launch(config, move |event| match event {
        PipelineEvent::Pattern(pattern) => p.lock().unwrap().push(pattern),
        PipelineEvent::SnapshotSealed { time } => s.lock().unwrap().push(time),
    });
    let status = live.status().clone();
    if chunk <= 1 {
        for r in records {
            live.push(*r).unwrap();
        }
    } else {
        for slice in records.chunks(chunk) {
            live.push_batch(slice.to_vec()).unwrap();
        }
    }
    let report = live.finish();
    let patterns = std::mem::take(&mut *patterns.lock().unwrap());
    let seals = std::mem::take(&mut *seals.lock().unwrap());
    RunOutput {
        patterns,
        seals,
        report,
        status,
    }
}

/// Canonical multiset form: every pattern (duplicates included) as a
/// sortable key.
pub fn multiset(patterns: &[Pattern]) -> Vec<(Vec<ObjectId>, Vec<Timestamp>)> {
    let mut out: Vec<(Vec<ObjectId>, Vec<Timestamp>)> = patterns
        .iter()
        .map(|p| (p.objects.clone(), p.times.times().to_vec()))
        .collect();
    out.sort();
    out
}
