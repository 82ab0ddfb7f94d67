//! Per-snapshot latency and throughput measurement.
//!
//! The paper reports two performance measures (§7): the **average latency**
//! per snapshot (time from a snapshot entering the pipeline to its results
//! being emitted) and the **throughput** in snapshots processed per second
//! (tps). Their numbers live in the [`MetricRegistry`](crate::MetricRegistry);
//! this module holds the [`WindowClock`] that times each window, and the
//! views [`MetricsReport`] and [`StreamProgress`].

use crate::obs::HistogramSnapshot;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Start instants of the windows between release and completion, oldest
/// first. Windows are released in ascending time order and complete in the
/// order they were released, so a FIFO is the whole index: memory is
/// bounded by the windows in flight, never by the run's length.
#[derive(Debug)]
pub struct WindowClock {
    /// The time base of [`WindowClock::stamp`].
    epoch: Instant,
    started: Mutex<VecDeque<(u32, Instant)>>,
}

impl Default for WindowClock {
    fn default() -> Self {
        WindowClock {
            epoch: Instant::now(),
            started: Mutex::new(VecDeque::new()),
        }
    }
}

impl WindowClock {
    /// Window `t` entered the pipeline. A time already started keeps its
    /// first instant.
    pub fn start(&self, t: u32) {
        let now = Instant::now();
        let mut started = self.started.lock();
        if started.back().is_none_or(|&(last, _)| t > last) {
            started.push_back((t, now));
        }
    }

    /// Window `t` completed: its latency since [`start`](Self::start), or
    /// `None` for a window this clock never started. Older windows still
    /// queued never completed (a stream torn down mid-window) and are
    /// discarded.
    pub fn stop(&self, t: u32) -> Option<Duration> {
        let now = Instant::now();
        let mut started = self.started.lock();
        while let Some(&(s, at)) = started.front() {
            if s > t {
                return None;
            }
            started.pop_front();
            if s == t {
                return Some(now - at);
            }
        }
        None
    }

    /// Windows started and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.started.lock().len()
    }

    /// Forgets every in-flight window (a restart replays them from the
    /// cut, and their clocks start again).
    pub fn clear(&self) {
        self.started.lock().clear();
    }

    /// Nanoseconds since this clock was created, at least 1 — the time
    /// base of the sink's completion stamps, where 0 means "none yet".
    pub fn stamp(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).max(1)
    }
}

/// Live stream-position gauges (see `PipelineStatus::progress` in
/// `icpe-core`).
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
    /// Windows completed (sealed through enumeration).
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

impl MetricsReport {
    /// The summary of what the sink published: `completed` windows, their
    /// latency distribution, the [`WindowClock::stamp`]s of the first and
    /// last completion (0 = none yet), and the late-drop count. O(buckets).
    pub fn new(
        completed: u64,
        latency: &HistogramSnapshot,
        first_done: u64,
        last_done: u64,
        late_records: u64,
    ) -> MetricsReport {
        let span = Duration::from_nanos(last_done.saturating_sub(first_done));
        let throughput = if first_done == 0 || span.is_zero() || completed < 2 {
            f64::NAN
        } else {
            // First completion starts the clock, so completed-1 completions
            // happen within `span`.
            (completed - 1) as f64 / span.as_secs_f64()
        };
        MetricsReport {
            snapshots: completed as usize,
            avg_latency: latency.mean(),
            p50_latency: latency.quantile(0.50),
            p95_latency: latency.quantile(0.95),
            max_latency: latency.max(),
            throughput_tps: throughput,
            late_records,
        }
    }
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
    use crate::obs::Histogram;

    #[test]
    fn empty_report() {
        let r = MetricsReport::new(0, &Histogram::default().snapshot(), 0, 0, 0);
        assert_eq!(r.snapshots, 0);
        assert_eq!(r.avg_latency, Duration::ZERO);
        assert!(r.throughput_tps.is_nan());
    }

    #[test]
    fn latency_is_recorded_per_snapshot() {
        let clock = WindowClock::default();
        clock.start(1);
        clock.start(2);
        assert_eq!(clock.in_flight(), 2);
        std::thread::sleep(Duration::from_millis(2));
        assert!(clock.stop(1).unwrap() >= Duration::from_millis(2));
        assert!(clock.stop(2).unwrap() >= Duration::from_millis(2));
        assert_eq!(clock.in_flight(), 0);
    }

    #[test]
    fn done_without_ingest_is_ignored_for_latency() {
        let clock = WindowClock::default();
        assert_eq!(clock.stop(9), None);
        clock.start(10);
        assert_eq!(clock.stop(9), None, "a window before the oldest start");
        assert_eq!(clock.in_flight(), 1, "and it leaves the clock alone");
    }

    #[test]
    fn duplicate_ingest_keeps_first_timestamp() {
        let clock = WindowClock::default();
        clock.start(1);
        std::thread::sleep(Duration::from_millis(2));
        clock.start(1); // ignored
        assert_eq!(clock.in_flight(), 1);
        assert!(clock.stop(1).unwrap() >= Duration::from_millis(2));
    }

    #[test]
    fn latency_history_is_cumulative_in_constant_memory() {
        // Far more windows than any queue bound: the clock holds only the
        // windows in flight, and the histogram the cumulative distribution.
        let clock = WindowClock::default();
        let latency = Histogram::default();
        let n = 50_000u32;
        for t in 0..n {
            clock.start(t);
            latency.record(clock.stop(t).unwrap());
        }
        assert!(
            clock.started.lock().capacity() < 16,
            "clock memory is O(in flight)"
        );
        let snap = latency.snapshot();
        let r = MetricsReport::new(n as u64, &snap, 1, clock.stamp(), 0);
        assert_eq!(r.snapshots, n as usize, "count stays cumulative");
        assert_eq!(snap.count(), n as u64);
        assert!(r.p50_latency <= r.p95_latency);
        assert!(r.p95_latency <= r.max_latency);
    }

    #[test]
    fn shared_across_threads() {
        let clock = std::sync::Arc::new(WindowClock::default());
        for t in 0..50 {
            clock.start(t);
        }
        let first = clock.stamp();
        let remote = std::sync::Arc::clone(&clock);
        let h = std::thread::spawn(move || (0..50).filter(|&t| remote.stop(t).is_some()).count());
        assert_eq!(
            h.join().unwrap(),
            50,
            "every window completes on the other thread"
        );
        std::thread::sleep(Duration::from_millis(1));
        let r = MetricsReport::new(
            50,
            &Histogram::default().snapshot(),
            first,
            clock.stamp(),
            0,
        );
        assert!(r.throughput_tps > 0.0);
    }
}
