//! Time discretization (Definition 1 of the paper).
//!
//! Maps real clock times to indices of fixed-duration intervals. The interval
//! duration must be chosen with the dataset's sampling rate in mind (the
//! paper uses 1 s for Brinkhoff and 5 s for GeoLife/Taxi): too small and
//! trajectories look gappy; too large and distinct reports collapse into one
//! snapshot.

use crate::{GpsRecord, RawRecord, Timestamp, TypeError};

/// Maps raw clock times to discretized [`Timestamp`]s: a pure function of
/// the stream epoch and the interval duration, with no per-trajectory
/// state.
///
/// A discretized record carries no *last time* link: the time aligner
/// chains a link-less record to its trajectory's live chain (paper §4),
/// and rejects it as a duplicate when that chain is already clarified
/// through its tick — several raw reports of one trajectory collapsing
/// into one interval keep only the first, the artifact the paper flags.
#[derive(Debug, Clone, Copy)]
pub struct Discretizer {
    epoch: f64,
    interval: f64,
}

impl Discretizer {
    /// Creates a discretizer with the given stream epoch (the clock time that
    /// maps to interval 0) and interval duration in seconds.
    pub fn new(epoch: f64, interval: f64) -> Result<Self, TypeError> {
        if interval <= 0.0 || !interval.is_finite() {
            return Err(TypeError::InvalidInterval(interval));
        }
        Ok(Discretizer { epoch, interval })
    }

    /// The interval duration in seconds.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Maps a raw clock time to its interval index. Times before the epoch
    /// clamp to interval 0.
    pub fn discretize_time(&self, time: f64) -> Timestamp {
        let idx = ((time - self.epoch) / self.interval).floor();
        Timestamp(if idx < 0.0 { 0 } else { idx as u32 })
    }

    /// Discretizes one raw record into a link-less [`GpsRecord`].
    ///
    /// Returns `None` when the record's clock time is not finite (it names
    /// no interval).
    pub fn push(&mut self, raw: &RawRecord) -> Option<GpsRecord> {
        raw.time
            .is_finite()
            .then(|| GpsRecord::new(raw.id, raw.location, self.discretize_time(raw.time), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectId, Point};

    fn raw(id: u32, t: f64) -> RawRecord {
        RawRecord::new(ObjectId(id), Point::new(0.0, 0.0), t)
    }

    #[test]
    fn rejects_bad_interval() {
        assert!(Discretizer::new(0.0, 0.0).is_err());
        assert!(Discretizer::new(0.0, -5.0).is_err());
        assert!(Discretizer::new(0.0, f64::NAN).is_err());
        assert!(Discretizer::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn paper_example_discretization() {
        // Paper §3.1: epoch 13:00:20, 5 s intervals; times 21,24,28,32,42 s
        // after 13:00:00 discretize to 0,0,1,2,4.
        let d = Discretizer::new(20.0, 5.0).unwrap();
        assert_eq!(d.discretize_time(21.0), Timestamp(0));
        assert_eq!(d.discretize_time(24.0), Timestamp(0));
        assert_eq!(d.discretize_time(28.0), Timestamp(1));
        assert_eq!(d.discretize_time(32.0), Timestamp(2));
        assert_eq!(d.discretize_time(42.0), Timestamp(4));
    }

    #[test]
    fn push_projects_without_a_link() {
        let mut d = Discretizer::new(0.0, 5.0).unwrap();
        let r = d.push(&raw(1, 6.0)).unwrap();
        assert_eq!(
            (r.id, r.time, r.last_time),
            (ObjectId(1), Timestamp(1), None)
        );
        // No per-trajectory memory: a repeat of the same interval projects
        // the same way (the aligner, not the discretizer, rejects it).
        assert_eq!(d.push(&raw(1, 9.0)).unwrap().time, Timestamp(1));
        assert!(d.push(&raw(1, f64::NAN)).is_none());
        assert!(d.push(&raw(1, f64::INFINITY)).is_none());
    }

    #[test]
    fn pre_epoch_times_clamp_to_zero() {
        let d = Discretizer::new(100.0, 5.0).unwrap();
        assert_eq!(d.discretize_time(3.0), Timestamp(0));
    }
}
