//! Time sequences (Definitions 1–3 of the paper).

use crate::{Timestamp, TypeError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A strictly increasing sequence of discretized timestamps.
///
/// The temporal component of a co-movement pattern. Provides the paper's
/// Definition 2 (*L-consecutive*: every maximal consecutive segment has
/// length ≥ L) and Definition 3 (*G-connected*: every gap between neighboring
/// times is ≤ G).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TimeSequence(Vec<Timestamp>);

impl TimeSequence {
    /// The empty sequence.
    pub fn new() -> Self {
        TimeSequence(Vec::new())
    }

    /// Builds a sequence from raw interval indices, validating strict
    /// monotonicity.
    pub fn from_raw(times: impl IntoIterator<Item = u32>) -> Result<Self, TypeError> {
        let mut seq = TimeSequence::new();
        for t in times {
            seq.push(Timestamp(t))?;
        }
        Ok(seq)
    }

    /// Adopts a vector the caller built strictly increasing, as is: no
    /// re-validation pass and no growth (the flat [`crate::PatternBatch`]
    /// materializes witnesses through here, one exact-size allocation).
    pub(crate) fn from_ascending(times: Vec<Timestamp>) -> Self {
        debug_assert!(times.windows(2).all(|w| w[0] < w[1]));
        TimeSequence(times)
    }

    /// Appends a timestamp; it must exceed the current last element.
    pub fn push(&mut self, t: Timestamp) -> Result<(), TypeError> {
        if let Some(&last) = self.0.last() {
            if t <= last {
                return Err(TypeError::NonMonotonicTime {
                    prev: last.0,
                    next: t.0,
                });
            }
        }
        self.0.push(t);
        Ok(())
    }

    /// Number of elements, `|T|`.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the sequence has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The elements in increasing order.
    pub fn times(&self) -> &[Timestamp] {
        &self.0
    }

    /// The last (largest) time, `max(T)`.
    pub fn max(&self) -> Option<Timestamp> {
        self.0.last().copied()
    }

    /// The first (smallest) time.
    pub fn min(&self) -> Option<Timestamp> {
        self.0.first().copied()
    }

    /// Maximal consecutive segments as `(start, length)` pairs.
    ///
    /// `⟨1,2,4,5,6⟩` has segments `(1,2)` and `(4,3)`.
    pub fn segments(&self) -> Vec<(Timestamp, usize)> {
        let mut out = Vec::new();
        let mut iter = self.0.iter().copied();
        let Some(first) = iter.next() else {
            return out;
        };
        let mut start = first;
        let mut len = 1usize;
        let mut prev = first;
        for t in iter {
            if t.0 == prev.0 + 1 {
                len += 1;
            } else {
                out.push((start, len));
                start = t;
                len = 1;
            }
            prev = t;
        }
        out.push((start, len));
        out
    }

    /// Length of the last maximal consecutive segment (`|T_l|` in Lemma 5);
    /// zero for the empty sequence.
    pub fn last_segment_len(&self) -> usize {
        let mut len = 0usize;
        let mut expected: Option<u32> = None;
        for t in self.0.iter().rev() {
            match expected {
                None => {
                    len = 1;
                    expected = t.0.checked_sub(1);
                }
                Some(e) if t.0 == e => {
                    len += 1;
                    expected = t.0.checked_sub(1);
                }
                _ => break,
            }
        }
        len
    }

    /// Definition 2: every maximal consecutive segment has length ≥ `l`.
    ///
    /// The empty sequence is vacuously L-consecutive.
    pub fn is_l_consecutive(&self, l: usize) -> bool {
        self.segments().iter().all(|&(_, len)| len >= l)
    }

    /// Definition 3: every gap between neighboring times is ≤ `g`.
    pub fn is_g_connected(&self, g: u32) -> bool {
        self.0.windows(2).all(|w| w[1].0 - w[0].0 <= g)
    }

    /// True if the sequence witnesses the temporal part of a
    /// `CP(M, K, L, G)` pattern: `|T| ≥ k`, L-consecutive and G-connected.
    pub fn satisfies_klg(&self, k: usize, l: usize, g: u32) -> bool {
        self.len() >= k && self.is_l_consecutive(l) && self.is_g_connected(g)
    }
}

impl fmt::Display for TimeSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "⟩")
    }
}

impl From<TimeSequence> for Vec<Timestamp> {
    fn from(seq: TimeSequence) -> Self {
        seq.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_enforces_strict_monotonicity() {
        let mut t = TimeSequence::new();
        t.push(Timestamp(1)).unwrap();
        t.push(Timestamp(2)).unwrap();
        assert!(t.push(Timestamp(2)).is_err());
        assert!(t.push(Timestamp(1)).is_err());
        t.push(Timestamp(9)).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn paper_example_segments() {
        // T = ⟨1,2,4,5,6⟩ is 2-consecutive and 2-connected (paper §3.1).
        let t = TimeSequence::from_raw([1, 2, 4, 5, 6]).unwrap();
        assert_eq!(t.segments(), vec![(Timestamp(1), 2), (Timestamp(4), 3)]);
        assert!(t.is_l_consecutive(2));
        assert!(!t.is_l_consecutive(3));
        assert!(t.is_g_connected(2));
        assert!(!t.is_g_connected(1));
        assert_eq!(t.last_segment_len(), 3);
        assert_eq!(t.max(), Some(Timestamp(6)));
        assert_eq!(t.min(), Some(Timestamp(1)));
    }

    #[test]
    fn paper_example_t2_is_not_a_segment() {
        // T2 = ⟨1,2,4,5⟩: not one segment because time 3 is missing.
        let t = TimeSequence::from_raw([1, 2, 4, 5]).unwrap();
        assert_eq!(t.segments().len(), 2);
    }

    #[test]
    fn single_segment_detection() {
        let t = TimeSequence::from_raw([3, 4, 5, 6]).unwrap();
        assert_eq!(t.segments(), vec![(Timestamp(3), 4)]);
        assert_eq!(t.last_segment_len(), 4);
        assert!(t.satisfies_klg(4, 2, 2));
        assert!(t.satisfies_klg(4, 4, 1));
        assert!(!t.satisfies_klg(5, 2, 2));
    }

    #[test]
    fn empty_sequence_properties() {
        let t = TimeSequence::new();
        assert!(t.is_empty());
        assert!(t.segments().is_empty());
        assert_eq!(t.last_segment_len(), 0);
        assert!(t.is_l_consecutive(5));
        assert!(t.is_g_connected(1));
        assert!(!t.satisfies_klg(1, 1, 1));
        assert_eq!(t.max(), None);
    }

    #[test]
    fn singleton_sequence() {
        let t = TimeSequence::from_raw([7]).unwrap();
        assert_eq!(t.segments(), vec![(Timestamp(7), 1)]);
        assert_eq!(t.last_segment_len(), 1);
        assert!(t.is_g_connected(0));
        assert!(t.satisfies_klg(1, 1, 1));
    }

    #[test]
    fn co_movement_example_from_fig2() {
        // O = {o4,o5,o6} with T = ⟨3,4,6,7⟩ is CP(3,4,2,2)-valid temporally.
        let t = TimeSequence::from_raw([3, 4, 6, 7]).unwrap();
        assert!(t.satisfies_klg(4, 2, 2));
        // but fails when gaps may not exceed 1
        assert!(!t.satisfies_klg(4, 2, 1));
    }

    #[test]
    fn zero_timestamp_segment_at_origin() {
        let t = TimeSequence::from_raw([0, 1, 2]).unwrap();
        assert_eq!(t.last_segment_len(), 3);
        assert_eq!(t.segments(), vec![(Timestamp(0), 3)]);
    }

    #[test]
    fn display_formats_like_the_paper() {
        let t = TimeSequence::from_raw([1, 2, 4]).unwrap();
        assert_eq!(t.to_string(), "⟨1, 2, 4⟩");
    }

    #[test]
    fn from_raw_rejects_unordered_input() {
        assert!(TimeSequence::from_raw([3, 1]).is_err());
        assert!(TimeSequence::from_raw([3, 3]).is_err());
    }
}
