//! Bit strings — the compression layer of FBA and VBA (§6.2–6.3).
//!
//! A trajectory's cluster co-membership with the partition owner is one bit
//! per discretized time. The Baseline stores `O(2^n)` subsets; a bit string
//! stores `O(η)` bits per trajectory, and candidate combination is a word-
//! parallel `AND` (the paper's "Bit Operation").

use crate::runs::{witness_span, Run, Semantics};

/// The maximal runs of 1-bits of a packed bit string, ascending, found by
/// `trailing_zeros` scans — one pair per run however long the string. Bit
/// `j` of `words[w]` is position `64·w + j`.
#[derive(Debug, Clone)]
pub struct WordRuns<'a> {
    words: &'a [u64],
    pos: u32,
}

/// Scans `words` for runs from position 0.
pub fn word_runs(words: &[u64]) -> WordRuns<'_> {
    WordRuns { words, pos: 0 }
}

impl WordRuns<'_> {
    /// Position of the first bit equal to `one` at or after `from`, or the
    /// length of the string in bits.
    fn seek(&self, from: u32, one: bool) -> u32 {
        let flip = if one { 0 } else { !0 };
        let mut mask = !0u64 << (from % 64);
        for (w, &word) in self.words.iter().enumerate().skip((from / 64) as usize) {
            let hits = (word ^ flip) & mask;
            if hits != 0 {
                return w as u32 * 64 + hits.trailing_zeros();
            }
            mask = !0;
        }
        self.words.len() as u32 * 64
    }
}

impl Iterator for WordRuns<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let start = self.seek(self.pos, true);
        if start as usize == self.words.len() * 64 {
            return None;
        }
        let end = self.seek(start, false);
        self.pos = end;
        Some(Run {
            start,
            len: end - start,
        })
    }
}

/// A packed bit string of fixed length.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// All-zero string of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitString {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds from booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut s = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                s.set(i);
            }
        }
        s
    }

    /// Builds from a `1`/`0` ASCII string (test/diagnostic convenience;
    /// mirrors the paper's `110111` notation).
    pub fn from_str01(s: &str) -> Self {
        let bits: Vec<bool> = s
            .chars()
            .map(|c| match c {
                '1' => true,
                '0' => false,
                _ => panic!("bit strings contain only 0 and 1, got {c:?}"),
            })
            .collect();
        Self::from_bools(&bits)
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the string has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Appends one bit (grows the string by one).
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if bit {
            self.set(self.len - 1);
        }
    }

    /// Number of 1-bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Word-parallel `B[O] = B[O] & other` (the paper's bit operation).
    /// Both strings must have equal length.
    pub fn and_assign(&mut self, other: &BitString) {
        assert_eq!(self.len, other.len, "AND of unequal-length bit strings");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `a & b` as a new string.
    pub fn and(&self, other: &BitString) -> BitString {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Number of trailing 0-bits (from the logical end); `len` if all zero.
    pub fn trailing_zeros(&self) -> usize {
        for i in (0..self.len).rev() {
            if self.get(i) {
                return self.len - 1 - i;
            }
        }
        self.len
    }

    /// Truncates to the first `new_len` bits.
    pub fn truncate(&mut self, new_len: usize) {
        assert!(new_len <= self.len);
        self.len = new_len;
        self.words.truncate(new_len.div_ceil(64));
        // Clear any bits beyond the new logical end in the last word.
        let rem = new_len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The maximal runs of 1-bits, as positions `0..len`.
    pub fn runs(&self) -> Vec<Run> {
        word_runs(&self.words).collect()
    }

    /// Validity against `(K, L, G)` under the given semantics.
    pub fn satisfies_klg(&self, k: usize, l: usize, g: u32, semantics: Semantics) -> bool {
        witness_span(word_runs(&self.words), k, l, g, semantics).is_some()
    }

    /// A witnessing sequence of bit positions, if valid.
    pub fn witness(&self, k: usize, l: usize, g: u32, semantics: Semantics) -> Option<Vec<u32>> {
        let span = witness_span(word_runs(&self.words), k, l, g, semantics)?;
        Some(span.times(word_runs(&self.words)).collect())
    }

    /// The positions of the 1-bits.
    pub fn ones(&self) -> Vec<u32> {
        (0..self.len)
            .filter(|&i| self.get(i))
            .map(|i| i as u32)
            .collect()
    }
}

impl std::fmt::Display for BitString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_round_trip() {
        let s = BitString::from_str01("110111");
        assert_eq!(s.len(), 6);
        assert_eq!(s.count_ones(), 5);
        assert_eq!(s.to_string(), "110111");
        assert!(s.get(0) && s.get(1) && !s.get(2));
    }

    #[test]
    fn paper_fig8_bit_operations() {
        // B[{o5,o6}] = B[o5] & B[o6] = 110111;
        // B[{o5,o6,o7}] = ... = 110011.
        let o5 = BitString::from_str01("111111");
        let o6 = BitString::from_str01("110111");
        let o7 = BitString::from_str01("110011");
        assert_eq!(o5.and(&o6).to_string(), "110111");
        assert_eq!(o5.and(&o6).and(&o7).to_string(), "110011");
    }

    #[test]
    fn paper_fig8_candidate_filtering() {
        // K=4, L=2: o5 = 111111 and o6 = 110111 are valid; o8 = 100000 is
        // not. Note on o7 = 110011: Figure 8 of the paper marks it valid
        // under G = 2, but its times {0,1,4,5} have a neighboring difference
        // of 3, violating Definition 3 (`T[i+1] − T[i] ≤ G`). We implement
        // Definition 3 strictly (the η formula and Lemma 6 also use the
        // difference form), so 110011 needs G = 3. See DESIGN.md.
        let sem = Semantics::Subsequence;
        assert!(BitString::from_str01("111111").satisfies_klg(4, 2, 2, sem));
        assert!(BitString::from_str01("110111").satisfies_klg(4, 2, 2, sem));
        assert!(!BitString::from_str01("110011").satisfies_klg(4, 2, 2, sem));
        assert!(BitString::from_str01("110011").satisfies_klg(4, 2, 3, sem));
        assert!(!BitString::from_str01("100000").satisfies_klg(4, 2, 2, sem));
        // Same under the paper's greedy check.
        let gr = Semantics::PaperGreedy;
        assert!(BitString::from_str01("110011").satisfies_klg(4, 2, 3, gr));
        assert!(!BitString::from_str01("100000").satisfies_klg(4, 2, 2, gr));
    }

    #[test]
    fn push_and_grow_across_word_boundary() {
        let mut s = BitString::zeros(0);
        for i in 0..130 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 44);
        assert!(s.get(129) && !s.get(128));
    }

    #[test]
    fn trailing_zeros_and_truncate() {
        let mut s = BitString::from_str01("1101000");
        assert_eq!(s.trailing_zeros(), 3);
        s.truncate(4);
        assert_eq!(s.to_string(), "1101");
        assert_eq!(s.trailing_zeros(), 0);
        // Truncation must clear dropped bits so a later push sees zeros.
        s.truncate(3);
        s.push(false);
        assert_eq!(s.to_string(), "1100");
        assert_eq!(BitString::zeros(5).trailing_zeros(), 5);
    }

    #[test]
    fn runs_extraction() {
        let s = BitString::from_str01("110111001");
        assert_eq!(
            s.runs(),
            vec![
                Run { start: 0, len: 2 },
                Run { start: 3, len: 3 },
                Run { start: 8, len: 1 }
            ]
        );
        assert!(BitString::zeros(8).runs().is_empty());
    }

    #[test]
    fn word_runs_cross_word_boundaries() {
        let mut s = BitString::zeros(200);
        for i in (3..5).chain(60..130).chain(191..200) {
            s.set(i);
        }
        let run = |start, len| Run { start, len };
        assert_eq!(s.runs(), vec![run(3, 2), run(60, 70), run(191, 9)]);
        // A run reaching the last bit of the last word ends with the words.
        assert_eq!(word_runs(&[!0, !0]).collect::<Vec<_>>(), vec![run(0, 128)]);
        assert_eq!(word_runs(&[]).count(), 0);
    }

    #[test]
    fn ones_positions() {
        assert_eq!(BitString::from_str01("0101").ones(), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "unequal-length")]
    fn and_length_mismatch_panics() {
        let a = BitString::zeros(4);
        let b = BitString::zeros(5);
        let _ = a.and(&b);
    }

    #[test]
    fn large_and_is_wordwise() {
        let mut a = BitString::zeros(200);
        let mut b = BitString::zeros(200);
        for i in (0..200).step_by(2) {
            a.set(i);
        }
        for i in (0..200).step_by(3) {
            b.set(i);
        }
        let c = a.and(&b);
        for i in 0..200 {
            assert_eq!(c.get(i), i % 6 == 0);
        }
    }
}
