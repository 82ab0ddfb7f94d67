//! Per-snapshot latency and throughput measurement.
//!
//! The paper reports two performance measures (§7): the **average latency**
//! per snapshot (time from a snapshot entering the pipeline to its results
//! being emitted) and the **throughput** in snapshots processed per second
//! (tps). `PipelineMetrics` is a thread-safe recorder shared by the ingest
//! and sink stages.

use crate::obs::Histogram;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Inner {
    ingest: HashMap<u32, Instant>,
    /// Cumulative log-bucketed latency distribution. Constant memory and
    /// O(buckets) reporting regardless of run length — `report()` runs on
    /// every `STATUS` request, so it must never sort a sample window.
    latency: Histogram,
    /// Total snapshots completed (ingest + done), across the whole run.
    completed: usize,
    first_done: Option<Instant>,
    last_done: Option<Instant>,
    /// Records that arrived after their snapshot sealed and were dropped.
    late_records: u64,
    /// Largest snapshot time that entered the pipeline.
    max_ingested: Option<u32>,
    /// Largest snapshot time fully processed.
    max_sealed: Option<u32>,
}

/// A cloneable, thread-safe latency/throughput recorder keyed by snapshot
/// time.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    inner: Arc<Mutex<Inner>>,
}

impl PipelineMetrics {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks snapshot `t` as having entered the pipeline.
    pub fn mark_ingest(&self, t: u32) {
        let mut inner = self.inner.lock();
        inner.ingest.entry(t).or_insert_with(Instant::now);
        inner.max_ingested = Some(inner.max_ingested.map_or(t, |m| m.max(t)));
    }

    /// Marks snapshot `t` as fully processed (results emitted).
    pub fn mark_done(&self, t: u32) {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        if let Some(start) = inner.ingest.remove(&t) {
            inner.completed += 1;
            inner.latency.record(now - start);
        }
        inner.first_done.get_or_insert(now);
        inner.last_done = Some(now);
        inner.max_sealed = Some(inner.max_sealed.map_or(t, |m| m.max(t)));
    }

    /// Counts records dropped for arriving after their snapshot sealed.
    pub fn mark_late(&self, n: u64) {
        self.inner.lock().late_records += n;
    }

    /// Rehydrates the cumulative gauges from a checkpoint so a restored
    /// pipeline's observability continues where the old one stopped instead
    /// of resetting to zero. Latency samples are wall-clock and cannot
    /// meaningfully survive a process boundary; they restart empty.
    pub fn restore(&self, progress: &icpe_types::ProgressCheckpoint) {
        let mut inner = self.inner.lock();
        inner.completed = progress.snapshots_completed as usize;
        inner.late_records = progress.late_records;
        // At a consistent cut nothing is in flight: everything ingested has
        // sealed, so both frontiers resume at the sealed frontier and any
        // in-flight ingest marks from before the cut are void (in-process
        // recovery reuses the same metrics handle across generations).
        inner.ingest.clear();
        inner.max_ingested = progress.max_sealed;
        inner.max_sealed = progress.max_sealed;
    }

    /// Live position of the stream: how far ingestion has advanced, how far
    /// processing has caught up, and the resulting per-stage lag — the
    /// serving layer's health gauges.
    pub fn progress(&self) -> StreamProgress {
        let inner = self.inner.lock();
        StreamProgress {
            max_ingested: inner.max_ingested,
            max_sealed: inner.max_sealed,
            in_flight: inner.ingest.len(),
            late_records: inner.late_records,
        }
    }

    /// Summarizes what was recorded so far. O(buckets) — never O(samples):
    /// mean and max come exact from the histogram's sum/max cells, the
    /// percentiles from a bucket walk.
    pub fn report(&self) -> MetricsReport {
        let inner = self.inner.lock();
        let lat = inner.latency.snapshot();
        let span = match (inner.first_done, inner.last_done) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => Duration::ZERO,
        };
        let throughput = if span.is_zero() || inner.completed < 2 {
            f64::NAN
        } else {
            // First completion starts the clock, so completed-1 completions
            // happen within `span`.
            (inner.completed - 1) as f64 / span.as_secs_f64()
        };
        MetricsReport {
            snapshots: inner.completed,
            avg_latency: lat.mean(),
            p50_latency: lat.quantile(0.50),
            p95_latency: lat.quantile(0.95),
            max_latency: lat.max(),
            throughput_tps: throughput,
            late_records: inner.late_records,
        }
    }
}

/// Live stream-position gauges (see [`PipelineMetrics::progress`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamProgress {
    /// Largest snapshot time that entered the pipeline, if any.
    pub max_ingested: Option<u32>,
    /// Largest snapshot time fully processed, if any.
    pub max_sealed: Option<u32>,
    /// Snapshots currently between ingest and completion.
    pub in_flight: usize,
    /// Records dropped for arriving after their snapshot sealed.
    pub late_records: u64,
}

impl StreamProgress {
    /// Snapshots of lag between ingestion and completed processing.
    pub fn lag(&self) -> u32 {
        match (self.max_ingested, self.max_sealed) {
            (Some(i), Some(s)) => i.saturating_sub(s),
            (Some(i), None) => i.saturating_add(1),
            _ => 0,
        }
    }
}

/// Summary statistics over the recorded snapshots. Counts, mean, and max
/// are cumulative and exact over the whole run; the percentiles are
/// log-bucketed (≤ 25 % relative error) so reporting stays O(buckets) no
/// matter how long the server has been sealing snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsReport {
    /// Number of snapshots with both ingest and done marks.
    pub snapshots: usize,
    /// Mean end-to-end latency.
    pub avg_latency: Duration,
    /// Median latency.
    pub p50_latency: Duration,
    /// 95th-percentile latency.
    pub p95_latency: Duration,
    /// Worst latency.
    pub max_latency: Duration,
    /// Snapshots per second between the first and last completion
    /// (`NaN` when fewer than two snapshots completed).
    pub throughput_tps: f64,
    /// Records dropped for arriving after their snapshot sealed.
    pub late_records: u64,
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} snapshots | avg {:.3} ms | p50 {:.3} ms | p95 {:.3} ms | max {:.3} ms | {:.1} tps",
            self.snapshots,
            self.avg_latency.as_secs_f64() * 1e3,
            self.p50_latency.as_secs_f64() * 1e3,
            self.p95_latency.as_secs_f64() * 1e3,
            self.max_latency.as_secs_f64() * 1e3,
            self.throughput_tps,
        )?;
        if self.late_records > 0 {
            write!(f, " | {} late dropped", self.late_records)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report() {
        let m = PipelineMetrics::new();
        let r = m.report();
        assert_eq!(r.snapshots, 0);
        assert_eq!(r.avg_latency, Duration::ZERO);
        assert!(r.throughput_tps.is_nan());
    }

    #[test]
    fn latency_is_recorded_per_snapshot() {
        let m = PipelineMetrics::new();
        m.mark_ingest(1);
        m.mark_ingest(2);
        std::thread::sleep(Duration::from_millis(2));
        m.mark_done(1);
        m.mark_done(2);
        let r = m.report();
        assert_eq!(r.snapshots, 2);
        assert!(r.avg_latency >= Duration::from_millis(2));
        assert!(r.max_latency >= r.p50_latency);
    }

    #[test]
    fn done_without_ingest_is_ignored_for_latency() {
        let m = PipelineMetrics::new();
        m.mark_done(9);
        assert_eq!(m.report().snapshots, 0);
    }

    #[test]
    fn duplicate_ingest_keeps_first_timestamp() {
        let m = PipelineMetrics::new();
        m.mark_ingest(1);
        std::thread::sleep(Duration::from_millis(2));
        m.mark_ingest(1); // ignored
        m.mark_done(1);
        assert!(m.report().avg_latency >= Duration::from_millis(2));
    }

    #[test]
    fn latency_history_is_cumulative_in_constant_memory() {
        // Far more samples than the old 8192-sample sliding window: the
        // histogram keeps the full cumulative distribution in constant
        // memory, and reporting no longer sorts anything.
        let m = PipelineMetrics::new();
        let n = 50_000u32;
        for t in 0..n {
            m.mark_ingest(t);
            m.mark_done(t);
        }
        let r = m.report();
        assert_eq!(r.snapshots, n as usize, "count stays cumulative");
        assert_eq!(m.inner.lock().latency.snapshot().count(), n as u64);
        assert!(r.p50_latency <= r.p95_latency);
        assert!(r.p95_latency <= r.max_latency);
    }

    #[test]
    fn restore_rehydrates_cumulative_gauges() {
        let m = PipelineMetrics::new();
        m.restore(&icpe_types::ProgressCheckpoint {
            snapshots_completed: 40,
            late_records: 3,
            max_sealed: Some(39),
        });
        let p = m.progress();
        assert_eq!(p.late_records, 3);
        assert_eq!(p.max_sealed, Some(39));
        assert_eq!(p.max_ingested, Some(39));
        assert_eq!(p.lag(), 0, "nothing in flight at a consistent cut");
        assert_eq!(m.report().snapshots, 40);
        // New work keeps accumulating on top of the restored base.
        m.mark_ingest(40);
        m.mark_done(40);
        assert_eq!(m.report().snapshots, 41);
        assert_eq!(m.progress().max_sealed, Some(40));
    }

    #[test]
    fn shared_across_threads() {
        let m = PipelineMetrics::new();
        let m2 = m.clone();
        for t in 0..50 {
            m.mark_ingest(t);
        }
        let h = std::thread::spawn(move || {
            for t in 0..50 {
                m2.mark_done(t);
            }
        });
        h.join().unwrap();
        let r = m.report();
        assert_eq!(r.snapshots, 50);
        assert!(r.throughput_tps > 0.0);
    }
}
