//! The load generator: one thread, closed loop (as fast as the pipeline
//! accepts) or open loop (on a schedule the pipeline cannot slow).

use crate::stats::{percentile, slope};
use std::time::{Duration, Instant};

/// The open loop's schedule: release group `k` is due at
/// `start + k / rate`, whatever happened to the groups before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub ticks_per_s: u32,
}

impl Schedule {
    pub fn due(&self, group: u32) -> Instant {
        self.start + Duration::from_secs_f64(f64::from(group) / f64::from(self.ticks_per_s))
    }
}

/// How the open loop itself behaved — the pass is only a latency
/// measurement if the generator kept its schedule and the pipeline kept up.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopReport {
    pub schedule: Schedule,
    /// p99 over release groups of (actual release − due), milliseconds.
    pub lag_p99_ms: f64,
    /// Least-squares slope of the backlog (records offered − records in
    /// sealed snapshots) over the pass, records per second.
    pub backlog_growth_rps: f64,
    /// Offered rate, records per second.
    pub offered_rps: f64,
}

/// Generator lag above this makes a paced pass invalid.
pub const MAX_LAG_P99_MS: f64 = 2.0;
/// Backlog growth above this share of the offered rate makes it invalid.
pub const MAX_BACKLOG_GROWTH_SHARE: f64 = 0.01;

impl OpenLoopReport {
    pub fn valid(&self) -> bool {
        self.lag_p99_ms <= MAX_LAG_P99_MS
            && self.backlog_growth_rps <= MAX_BACKLOG_GROWTH_SHARE * self.offered_rps
    }
}

/// Releases `groups` groups of `group_records` records on schedule.
/// `release(k)` sends group `k` (and may block under backpressure — the
/// schedule does not move, so the wait shows up as lag on later groups);
/// `sealed()` is the number of snapshots delivered so far.
pub fn open_loop(
    ticks_per_s: u32,
    groups: u32,
    group_records: usize,
    mut release: impl FnMut(u32),
    sealed: impl Fn() -> u32,
) -> OpenLoopReport {
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        ticks_per_s,
    };
    let mut lags_ms = Vec::with_capacity(groups as usize);
    let mut at_s = Vec::with_capacity(groups as usize);
    let mut backlog = Vec::with_capacity(groups as usize);
    for k in 0..groups {
        let due = schedule.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let released = Instant::now();
        lags_ms.push(released.saturating_duration_since(due).as_secs_f64() * 1e3);
        at_s.push(released.duration_since(schedule.start).as_secs_f64());
        // Snapshots seal a fixed number of ticks behind the newest one
        // offered; that constant offset does not change the slope.
        backlog.push((f64::from(k) - f64::from(sealed())) * group_records as f64);
        release(k);
    }
    // The first tenth fills the pipeline (and the aligner's lateness
    // allowance): not growth.
    let skip = groups as usize / 10;
    OpenLoopReport {
        schedule,
        lag_p99_ms: percentile(&mut lags_ms, 0.99).unwrap_or(0.0),
        backlog_growth_rps: slope(&at_s[skip..], &backlog[skip..]).unwrap_or(0.0),
        offered_rps: f64::from(ticks_per_s) * group_records as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn latency_is_stamped_from_due_time_and_a_stalled_sink_shows_as_lag() {
        // The "pipeline" blocks the generator for 30 ms on group 5 (a full
        // channel behind a stalled sink).
        let releases = Cell::new(Vec::new());
        let report = open_loop(
            500,
            40,
            10,
            |k| {
                if k == 5 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                let mut seen = releases.take();
                seen.push((k, Instant::now()));
                releases.set(seen);
            },
            || 0,
        );
        let releases = releases.take();
        assert_eq!(releases.len(), 40);
        // Due times are a pure function of the schedule...
        let period = Duration::from_millis(2);
        assert_eq!(
            report.schedule.due(6) - report.schedule.due(5),
            period,
            "schedule does not move"
        );
        // ...so group 6, released ≥ 28 ms behind schedule, is stamped with
        // that wait, and the generator reports it as its own lag.
        let (_, at) = releases[6];
        assert!(at.duration_since(report.schedule.due(6)) >= Duration::from_millis(27));
        assert!(report.lag_p99_ms >= 27.0, "{}", report.lag_p99_ms);
        assert!(!report.valid());
        // The loop catches up rather than shifting everything: the last
        // group is back on schedule.
        let (_, last) = releases[39];
        assert!(last.duration_since(report.schedule.due(39)) < Duration::from_millis(20));
    }

    #[test]
    fn a_sink_that_falls_behind_shows_as_backlog_growth() {
        // Seals one snapshot per two released groups: the backlog grows by
        // half the offered rate.
        let released = Cell::new(0u32);
        let report = open_loop(
            1000,
            200,
            10,
            |_| released.set(released.get() + 1),
            || released.get() / 2,
        );
        let share = report.backlog_growth_rps / report.offered_rps;
        assert!((0.4..0.6).contains(&share), "{share}");
        assert!(!report.valid());

        let released = Cell::new(0u32);
        let report = open_loop(
            1000,
            200,
            10,
            |_| released.set(released.get() + 1),
            || released.get().saturating_sub(3),
        );
        assert!(report.backlog_growth_rps.abs() < 0.01 * report.offered_rps);
    }
}
