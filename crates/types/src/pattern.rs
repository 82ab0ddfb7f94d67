//! Discovered co-movement patterns.

use crate::{Constraints, ObjectId, TimeSequence, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A discovered co-movement pattern: the object set `O` and a witnessing
/// time sequence `T` (Definition 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pattern {
    /// The co-moving objects, sorted ascending.
    pub objects: Vec<ObjectId>,
    /// The witnessing time sequence.
    pub times: TimeSequence,
}

impl Pattern {
    /// Creates a pattern, sorting and deduplicating the object set.
    pub fn new(mut objects: Vec<ObjectId>, times: TimeSequence) -> Self {
        objects.sort_unstable();
        objects.dedup();
        Pattern { objects, times }
    }

    /// Verifies all five constraints *except closeness* (which is a property
    /// of the cluster stream, not of the pattern object itself).
    pub fn satisfies(&self, c: &Constraints) -> bool {
        self.objects.len() >= c.m() && self.times.satisfies_klg(c.k(), c.l(), c.g())
    }

    /// True if `other`'s objects are a subset of ours and `other`'s times are
    /// a subset of ours — i.e. `self` subsumes `other`.
    pub fn subsumes(&self, other: &Pattern) -> bool {
        is_subset(&other.objects, &self.objects)
            && is_subset_ts(other.times.times(), self.times.times())
    }
}

/// Many patterns in five flat vectors — what an enumeration engine emits
/// per tick. Object ids and witness times are concatenated, delimited by
/// end offsets; a witness is stored once and shared by every pattern that
/// names its index (the subsets of one co-moving group mostly share one),
/// so appending a pattern is a short `memcpy` and two integer pushes, and a
/// cleared batch re-fills without allocating. A [`Pattern`] is materialized
/// from it only where one is consumed ([`PatternRef::to_pattern`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternBatch {
    ids: Vec<ObjectId>,
    /// Per pattern: end of its ids in `ids`.
    id_ends: Vec<u32>,
    times: Vec<Timestamp>,
    /// Per witness: end of its times in `times`.
    time_ends: Vec<u32>,
    /// Per pattern: index of its witness.
    witness: Vec<u32>,
}

/// One pattern of a [`PatternBatch`], borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternRef<'a> {
    /// The co-moving objects, ascending.
    pub objects: &'a [ObjectId],
    /// The witnessing times, strictly increasing.
    pub times: &'a [Timestamp],
}

impl PatternRef<'_> {
    /// The owned pattern: one exact-size allocation per field, nothing
    /// sorted or re-validated (the batch only ever holds ascending lists).
    pub fn to_pattern(&self) -> Pattern {
        Pattern {
            objects: self.objects.to_vec(),
            times: TimeSequence::from_ascending(self.times.to_vec()),
        }
    }
}

fn end_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a pattern batch holds fewer than 2^32 ids and times")
}

impl PatternBatch {
    /// The empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.witness.len()
    }

    /// True when the batch holds no pattern.
    pub fn is_empty(&self) -> bool {
        self.witness.is_empty()
    }

    /// Empties the batch, keeping its capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.id_ends.clear();
        self.times.clear();
        self.time_ends.clear();
        self.witness.clear();
    }

    /// Stores a witnessing time sequence (strictly increasing) and returns
    /// its index, to be named by the patterns it witnesses.
    pub fn push_witness(&mut self, times: impl IntoIterator<Item = Timestamp>) -> u32 {
        let from = self.times.len();
        self.times.extend(times);
        debug_assert!(self.times[from..].windows(2).all(|w| w[0] < w[1]));
        self.time_ends.push(end_offset(self.times.len()));
        end_offset(self.time_ends.len() - 1)
    }

    /// Appends a pattern: its objects (ascending, distinct) and the index
    /// [`PatternBatch::push_witness`] returned for its witness.
    pub fn push(&mut self, objects: &[ObjectId], witness: u32) {
        debug_assert!(objects.windows(2).all(|w| w[0] < w[1]));
        assert!(
            (witness as usize) < self.time_ends.len(),
            "pattern names a witness the batch does not hold"
        );
        self.ids.extend_from_slice(objects);
        self.id_ends.push(end_offset(self.ids.len()));
        self.witness.push(witness);
    }

    /// Appends an owned pattern with a witness of its own.
    pub fn push_pattern(&mut self, pattern: &Pattern) {
        let witness = self.push_witness(pattern.times.times().iter().copied());
        self.push(&pattern.objects, witness);
    }

    /// The `i`-th pattern.
    pub fn get(&self, i: usize) -> PatternRef<'_> {
        let start_of = |ends: &[u32], i: usize| if i == 0 { 0 } else { ends[i - 1] as usize };
        let w = self.witness[i] as usize;
        PatternRef {
            objects: &self.ids[start_of(&self.id_ends, i)..self.id_ends[i] as usize],
            times: &self.times[start_of(&self.time_ends, w)..self.time_ends[w] as usize],
        }
    }

    /// The patterns in emission order.
    pub fn iter(&self) -> impl Iterator<Item = PatternRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every pattern, owned.
    pub fn to_patterns(&self) -> Vec<Pattern> {
        self.iter().map(|p| p.to_pattern()).collect()
    }
}

fn is_subset<T: Ord>(small: &[T], big: &[T]) -> bool {
    // Both sorted; classic merge scan.
    let mut i = 0;
    for item in small {
        while i < big.len() && big[i] < *item {
            i += 1;
        }
        if i >= big.len() || big[i] != *item {
            return false;
        }
        i += 1;
    }
    true
}

fn is_subset_ts(small: &[crate::Timestamp], big: &[crate::Timestamp]) -> bool {
    is_subset(small, big)
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, o) in self.objects.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{o}")?;
        }
        write!(f, "}} @ {}", self.times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(v: u32) -> ObjectId {
        ObjectId(v)
    }

    #[test]
    fn pattern_sorts_objects() {
        let p = Pattern::new(
            vec![oid(4), oid(2), oid(4)],
            TimeSequence::from_raw([1, 2]).unwrap(),
        );
        assert_eq!(p.objects, vec![oid(2), oid(4)]);
    }

    #[test]
    fn satisfies_checks_m_and_klg() {
        let c = Constraints::new(3, 4, 2, 2).unwrap();
        let good = Pattern::new(
            vec![oid(4), oid(5), oid(6)],
            TimeSequence::from_raw([3, 4, 6, 7]).unwrap(),
        );
        assert!(good.satisfies(&c));

        let too_few_objects = Pattern::new(
            vec![oid(4), oid(5)],
            TimeSequence::from_raw([3, 4, 6, 7]).unwrap(),
        );
        assert!(!too_few_objects.satisfies(&c));

        let bad_times = Pattern::new(
            vec![oid(4), oid(5), oid(6)],
            TimeSequence::from_raw([3, 4, 6]).unwrap(),
        );
        assert!(!bad_times.satisfies(&c));
    }

    #[test]
    fn subsumption() {
        let big = Pattern::new(
            vec![oid(1), oid(2), oid(3)],
            TimeSequence::from_raw([1, 2, 3, 4]).unwrap(),
        );
        let small = Pattern::new(
            vec![oid(1), oid(3)],
            TimeSequence::from_raw([2, 3]).unwrap(),
        );
        assert!(big.subsumes(&small));
        assert!(!small.subsumes(&big));
        assert!(big.subsumes(&big));

        let disjoint = Pattern::new(vec![oid(9)], TimeSequence::from_raw([1]).unwrap());
        assert!(!big.subsumes(&disjoint));
    }

    #[test]
    fn batch_shares_witnesses_and_round_trips() {
        let mut batch = PatternBatch::new();
        assert!(batch.is_empty());
        let w = batch.push_witness([3, 4, 6].map(Timestamp));
        batch.push(&[oid(1), oid(2)], w);
        batch.push(&[oid(1), oid(2), oid(5)], w);
        let lone = Pattern::new(vec![oid(9), oid(7)], TimeSequence::new());
        batch.push_pattern(&lone);
        assert_eq!(batch.len(), 3);
        let shared = TimeSequence::from_raw([3, 4, 6]).unwrap();
        assert_eq!(
            batch.to_patterns(),
            vec![
                Pattern::new(vec![oid(1), oid(2)], shared.clone()),
                Pattern::new(vec![oid(1), oid(2), oid(5)], shared),
                lone,
            ]
        );
        batch.clear();
        assert_eq!(batch.iter().count(), 0);
    }

    #[test]
    fn display_reads_naturally() {
        let p = Pattern::new(
            vec![oid(5), oid(6)],
            TimeSequence::from_raw([2, 3]).unwrap(),
        );
        assert_eq!(p.to_string(), "{o5, o6} @ ⟨2, 3⟩");
    }
}
