//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::RngExt;
use std::ops::{Range, RangeInclusive};

/// Admissible sizes for a generated collection.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Smallest size, inclusive.
    pub lo: usize,
    /// Largest size, inclusive.
    pub hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// A strategy generating vectors whose elements come from `element` and
/// whose length is drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.random_range(self.size.lo..=self.size.hi);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}
