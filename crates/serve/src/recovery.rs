//! Serve-side durability: the checkpoint policy, the on-disk serve
//! checkpoint (pipeline state + edge counters), and edge-counter
//! rehydration.
//!
//! Every per-trajectory state of a server lives in the pipeline: the edge
//! pushes link-less records, and the frontier router's §4 chains both link
//! them and reject stale ticks. So the pipeline's checkpoint
//! ([`PipelineCheckpoint`]) is the whole detection state of a restart. A
//! [`ServeCheckpoint`] adds the interval the edge projected clock times
//! with (a restart under another interval is refused) and the cumulative
//! `STATUS` counters, in one atomic file.

use crate::stats::ServerStats;
use icpe_types::PipelineCheckpoint;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// When and where a server writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory the checkpoint files live in (created if absent).
    pub dir: PathBuf,
    /// Interval between periodic checkpoints.
    pub every: Duration,
    /// How many checkpoints to retain (minimum 1).
    pub retain: usize,
}

impl CheckpointPolicy {
    /// A policy checkpointing into `dir` every 30 s, keeping the last 3.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every: Duration::from_secs(30),
            retain: 3,
        }
    }

    /// Overrides the checkpoint interval.
    pub fn every(mut self, every: Duration) -> CheckpointPolicy {
        self.every = every;
        self
    }

    /// Overrides the retention count.
    pub fn retain(mut self, retain: usize) -> CheckpointPolicy {
        self.retain = retain.max(1);
        self
    }
}

/// Cumulative network-edge counters that must survive a restart (a server
/// that forgets how many records it served is lying to its operators).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeStatsCheckpoint {
    /// Records pushed into the pipeline, stale ticks included: the cut's
    /// `records_ingested` (see [`ServerStats::records_in`]).
    pub records_in: u64,
    /// Ingest micro-batches pushed (mean-batch-fill gauge numerator's
    /// partner; cumulative like `records_in`).
    pub ingest_batches: u64,
    /// Lines refused at the edge (malformed, non-finite).
    pub records_rejected: u64,
    /// Bytes read from producer sockets.
    pub bytes_in: u64,
    /// Pattern events published.
    pub patterns_out: u64,
    /// Snapshot-sealed events published.
    pub snapshots_sealed: u64,
    /// Newest discretized tick accepted at the edge, as `tick + 1`
    /// (0 = none).
    pub ingested_tick: u64,
}

impl EdgeStatsCheckpoint {
    /// Captures the edge counters alongside the pipeline cut `pipeline`.
    /// Records pushed is exact — the cut counts them in channel order —
    /// while the other counters tick outside the cut and are approximate.
    pub fn capture(stats: &ServerStats, pipeline: &PipelineCheckpoint) -> EdgeStatsCheckpoint {
        EdgeStatsCheckpoint {
            records_in: pipeline.records_ingested,
            ingest_batches: stats.ingest_batches.load(Ordering::Relaxed),
            records_rejected: stats.records_rejected.load(Ordering::Relaxed),
            bytes_in: stats.bytes_in.load(Ordering::Relaxed),
            patterns_out: stats.patterns_out.load(Ordering::Relaxed),
            snapshots_sealed: stats.snapshots_sealed.load(Ordering::Relaxed),
            ingested_tick: stats.raw_ingested_tick(),
        }
    }

    /// Rehydrates the counters into a fresh stats block.
    pub fn restore(&self, stats: &ServerStats) {
        stats.records_in.store(self.records_in, Ordering::Relaxed);
        stats
            .ingest_batches
            .store(self.ingest_batches, Ordering::Relaxed);
        stats
            .records_rejected
            .store(self.records_rejected, Ordering::Relaxed);
        stats.bytes_in.store(self.bytes_in, Ordering::Relaxed);
        stats
            .patterns_out
            .store(self.patterns_out, Ordering::Relaxed);
        stats
            .snapshots_sealed
            .store(self.snapshots_sealed, Ordering::Relaxed);
        stats.restore_ingested_tick(self.ingested_tick);
    }
}

/// Everything a serve instance needs to restart as if it never stopped:
/// the pipeline's consistent cut, the interval the edge discretized with,
/// and the cumulative edge counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeCheckpoint {
    /// The embedded pipeline's checkpoint.
    pub pipeline: PipelineCheckpoint,
    /// Seconds per tick the edge projected clock times with.
    pub interval: f64,
    /// Cumulative `STATUS` counters.
    pub stats: EdgeStatsCheckpoint,
}
