//! Temporal validity over runs of co-clustered times.
//!
//! Both bit strings (FBA/VBA) and raw time lists (BA, oracle) reduce to the
//! same structure: maximal *runs* of consecutive times at which a candidate
//! group was co-clustered. Validity of a candidate against `(K, L, G)` is
//! decided here, under either of two semantics (see [`Semantics`]), and a
//! witnessing time sequence can be extracted for reporting.

/// A maximal run of consecutive co-clustered times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// First time of the run.
    pub start: u32,
    /// Number of consecutive times (≥ 1).
    pub len: u32,
}

impl Run {
    /// The last time of the run.
    #[inline]
    pub fn end(&self) -> u32 {
        self.start + self.len - 1
    }
}

/// Builds maximal runs from a strictly increasing time list.
pub fn runs_from_times(times: &[u32]) -> Vec<Run> {
    let mut out: Vec<Run> = Vec::new();
    for &t in times {
        match out.last_mut() {
            Some(run) if t == run.end() + 1 => run.len += 1,
            Some(run) => {
                debug_assert!(t > run.end(), "times must be strictly increasing");
                out.push(Run { start: t, len: 1 });
            }
            None => out.push(Run { start: t, len: 1 }),
        }
    }
    out
}

/// How candidate validity against `(K, L, G)` is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// Existence semantics (Definition 4): valid iff *some* sub-sequence of
    /// the co-clustered times satisfies the constraints. Complete, and makes
    /// validity anti-monotone under intersection (candidate pruning is
    /// lossless).
    #[default]
    Subsequence,
    /// The paper's literal Lemma-5/6 greedy verification, attempted from
    /// every possible start time (which is what the per-snapshot windows of
    /// Algorithms 3–4 amount to). Slightly stricter than existence: a doomed
    /// short segment between two good ones kills the candidate.
    PaperGreedy,
}

/// Where in a run list a witnessing time sequence lies: the times of
/// `[from, to)` that fall in runs at least `min_run` long once clipped to
/// that range. Finding one allocates nothing; [`WitnessSpan::times`] then
/// yields the sequence itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessSpan {
    from: u32,
    to: u32,
    min_run: u32,
}

impl WitnessSpan {
    /// The witnessing times, given the run list the span was found in.
    pub fn times(self, runs: impl Iterator<Item = Run>) -> impl Iterator<Item = u32> {
        runs.skip_while(move |run| run.start < self.from)
            .take_while(move |run| run.start < self.to)
            .map(move |run| run.start..(run.start + run.len).min(self.to))
            .filter(move |times| times.end - times.start >= self.min_run)
            .flatten()
    }
}

/// Finds a witness for the runs (ascending, maximal) against `(k, l, g)`
/// under `semantics`, or `None` if they are invalid. The iterator is cloned
/// to restart a scan, so it should be cheap to clone (a slice iterator, a
/// [`crate::bitstring::WordRuns`]).
pub fn witness_span(
    runs: impl Iterator<Item = Run> + Clone,
    k: usize,
    l: usize,
    g: u32,
    semantics: Semantics,
) -> Option<WitnessSpan> {
    match semantics {
        Semantics::Subsequence => max_chain(runs, k, l, g),
        Semantics::PaperGreedy => {
            let mut rest = runs;
            loop {
                let from_here = rest.clone();
                rest.next()?;
                if let Some(span) = greedy_from(from_here, k, l, g) {
                    return Some(span);
                }
            }
        }
    }
}

/// Decides validity of the run list against `(k, l, g)` under `semantics`.
pub fn runs_valid(runs: &[Run], k: usize, l: usize, g: u32, semantics: Semantics) -> bool {
    witness_span(runs.iter().copied(), k, l, g, semantics).is_some()
}

/// Extracts a witnessing time sequence if the runs are valid.
pub fn runs_witness(
    runs: &[Run],
    k: usize,
    l: usize,
    g: u32,
    semantics: Semantics,
) -> Option<Vec<u32>> {
    let span = witness_span(runs.iter().copied(), k, l, g, semantics)?;
    Some(span.times(runs.iter().copied()).collect())
}

/// Existence semantics: drop runs shorter than `l` (no valid sequence can
/// use any of their times), then chain the surviving runs while inter-run
/// gaps stay ≤ `g`; valid iff some chain accumulates ≥ `k` times. The
/// witness is the chain with the largest total (the first, on ties).
///
/// Optimality argument: every segment of a valid `T` lies inside a run of
/// length ≥ `l`; taking *whole* runs maximizes counts and minimizes the gaps
/// between consecutive elements, and including an extra (long-enough) run in
/// a chain never breaks it. Hence checking maximal chains of full surviving
/// runs is exact.
fn max_chain(runs: impl Iterator<Item = Run>, k: usize, l: usize, g: u32) -> Option<WitnessSpan> {
    // (first time of the chain, last time of the chain, times in it)
    let mut best: Option<(u32, u32, usize)> = None;
    let mut cur: Option<(u32, u32, usize)> = None;
    for run in runs {
        if (run.len as usize) < l {
            continue; // dropped run; does not break the chain by itself
        }
        let (from, _, total) = match cur {
            Some((from, prev_end, total)) if run.start - prev_end <= g => {
                (from, run.end(), total + run.len as usize)
            }
            _ => (run.start, run.end(), run.len as usize),
        };
        cur = Some((from, run.end(), total));
        if best.is_none_or(|(_, _, t)| total > t) {
            best = cur;
        }
    }
    best.filter(|&(_, _, total)| total >= k)
        .map(|(from, end, _)| WitnessSpan {
            from,
            to: end + 1,
            min_run: l as u32,
        })
}

/// The paper's greedy verification (Algorithm 3 lines 4–12) started at the
/// first of `runs`: walk runs left to right, discarding on a short last
/// segment at a jump (Lemma 5) or a gap exceeding `g` (Lemma 6); succeed as
/// soon as the accumulated count reaches `k` with a full final segment.
fn greedy_from(runs: impl Iterator<Item = Run>, k: usize, l: usize, g: u32) -> Option<WitnessSpan> {
    let mut total = 0usize;
    let mut first: Option<u32> = None;
    let mut prev: Option<Run> = None;
    for run in runs {
        if let Some(p) = prev {
            // Maximal runs are separated by ≥ 1 missing time, so the jump is
            // never adjacent: Lemma 5 discards iff the previous segment is
            // short, Lemma 6 iff the gap exceeds G.
            if (p.len as usize) < l || run.start - p.end() > g {
                return None;
            }
        }
        let from = *first.get_or_insert(run.start);
        // Valid mid-run once the current segment reaches max(l, k − total).
        let need = l.max(k.saturating_sub(total)) as u32;
        if run.len >= need {
            return Some(WitnessSpan {
                from,
                to: run.start + need,
                min_run: 1,
            });
        }
        total += run.len as usize;
        prev = Some(run);
    }
    None
}

/// The literal Algorithm-3 verification for one window: greedy from the
/// window's own start (the first run), not from every start. Each later
/// start has its own window in BA/FBA, which is where the "any start"
/// behaviour of [`Semantics::PaperGreedy`] comes from.
pub fn runs_witness_anchored(runs: &[Run], k: usize, l: usize, g: u32) -> Option<Vec<u32>> {
    let span = greedy_from(runs.iter().copied(), k, l, g)?;
    Some(span.times(runs.iter().copied()).collect())
}

/// Test-only exhaustive oracle: tries every subset of the times (must be
/// small). Used by property tests to pin down [`Semantics::Subsequence`].
pub fn exhaustive_subsequence_valid(times: &[u32], k: usize, l: usize, g: u32) -> bool {
    assert!(times.len() <= 20, "exhaustive oracle limited to 20 times");
    let n = times.len();
    'mask: for mask in 1u32..(1 << n) {
        let chosen: Vec<u32> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| times[i])
            .collect();
        if chosen.len() < k {
            continue;
        }
        // G-connected?
        if chosen.windows(2).any(|w| w[1] - w[0] > g) {
            continue;
        }
        // L-consecutive?
        for run in runs_from_times(&chosen) {
            if (run.len as usize) < l {
                continue 'mask;
            }
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn runs(times: &[u32]) -> Vec<Run> {
        runs_from_times(times)
    }

    /// The witness extraction this module shipped before [`WitnessSpan`]:
    /// run-indexed and `Vec`-building. Kept as the model the span form is
    /// checked against.
    mod model {
        use super::super::{Run, Semantics};

        pub fn witness(
            runs: &[Run],
            k: usize,
            l: usize,
            g: u32,
            semantics: Semantics,
        ) -> Option<Vec<u32>> {
            match semantics {
                Semantics::Subsequence => subsequence_witness(runs, k, l, g),
                Semantics::PaperGreedy => {
                    (0..runs.len()).find_map(|i| greedy_from(runs, i, k, l, g))
                }
            }
        }

        fn subsequence_witness(runs: &[Run], k: usize, l: usize, g: u32) -> Option<Vec<u32>> {
            let mut best: Option<(usize, usize, usize)> = None;
            let mut cur: Option<(usize, u32, usize)> = None;
            for (i, run) in runs.iter().enumerate() {
                if (run.len as usize) < l {
                    continue;
                }
                cur = match cur {
                    Some((s, prev_end, total)) if run.start - prev_end <= g => {
                        Some((s, run.end(), total + run.len as usize))
                    }
                    _ => Some((i, run.end(), run.len as usize)),
                };
                let (s, _, total) = cur.unwrap();
                if best.is_none_or(|(_, _, t)| total > t) {
                    best = Some((s, i, total));
                }
            }
            let (chain_start, chain_end, total) = best?;
            if total < k {
                return None;
            }
            let mut times = Vec::with_capacity(total);
            for run in &runs[chain_start..=chain_end] {
                if (run.len as usize) >= l {
                    times.extend(run.start..=run.end());
                }
            }
            Some(times)
        }

        pub fn greedy_from(
            runs: &[Run],
            start_idx: usize,
            k: usize,
            l: usize,
            g: u32,
        ) -> Option<Vec<u32>> {
            let mut total = 0usize;
            let mut prev: Option<Run> = None;
            for run in &runs[start_idx..] {
                if let Some(p) = prev {
                    if (p.len as usize) < l || run.start - p.end() > g {
                        return None;
                    }
                }
                let need = l.max(k.saturating_sub(total)) as u32;
                if run.len >= need {
                    let mut times = Vec::new();
                    for r in &runs[start_idx..] {
                        if r.start == run.start {
                            times.extend(r.start..r.start + need);
                            return Some(times);
                        }
                        times.extend(r.start..=r.end());
                    }
                    unreachable!("current run is always reached");
                }
                total += run.len as usize;
                prev = Some(*run);
            }
            None
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The span form finds exactly the witness the run-indexed model
        /// built, under both semantics and anchored at the first run.
        #[test]
        fn witness_span_matches_the_model(
            bits in prop::collection::vec(prop::bool::ANY, 0..40),
            k in 1usize..9,
            l in 1usize..5,
            g in 1u32..5,
        ) {
            let times: Vec<u32> = (0..bits.len() as u32).filter(|&i| bits[i as usize]).collect();
            let r = runs(&times);
            for s in [Semantics::Subsequence, Semantics::PaperGreedy] {
                prop_assert_eq!(
                    runs_witness(&r, k, l, g, s),
                    model::witness(&r, k, l, g, s),
                    "{:?} on {:?} k={} l={} g={}", s, times, k, l, g
                );
            }
            let anchored = if r.is_empty() { None } else { model::greedy_from(&r, 0, k, l, g) };
            prop_assert_eq!(runs_witness_anchored(&r, k, l, g), anchored);
        }
    }

    #[test]
    fn runs_from_times_builds_maximal_runs() {
        assert_eq!(
            runs(&[1, 2, 4, 5, 6, 9]),
            vec![
                Run { start: 1, len: 2 },
                Run { start: 4, len: 3 },
                Run { start: 9, len: 1 }
            ]
        );
        assert!(runs(&[]).is_empty());
        assert_eq!(runs(&[7]), vec![Run { start: 7, len: 1 }]);
    }

    #[test]
    fn paper_example_valid_under_both() {
        // T = ⟨3,4,6,7⟩ with (K,L,G) = (4,2,2).
        let r = runs(&[3, 4, 6, 7]);
        for s in [Semantics::Subsequence, Semantics::PaperGreedy] {
            assert!(runs_valid(&r, 4, 2, 2, s), "{s:?}");
        }
    }

    #[test]
    fn short_run_blocks_greedy_but_not_subsequence() {
        // The divergence case: {1,2} · {4} · {6,7} with (K,L,G) = (4,2,4).
        // A valid sub-sequence {1,2,6,7} exists (gap 4 ≤ G) but every greedy
        // start dies on the doomed singleton run.
        let r = runs(&[1, 2, 4, 6, 7]);
        assert!(runs_valid(&r, 4, 2, 4, Semantics::Subsequence));
        assert!(!runs_valid(&r, 4, 2, 4, Semantics::PaperGreedy));
        // The exhaustive oracle agrees with subsequence semantics.
        assert!(exhaustive_subsequence_valid(&[1, 2, 4, 6, 7], 4, 2, 4));
    }

    #[test]
    fn greedy_succeeds_from_later_start() {
        // {1} · {3,4,5,6}: greedy from the first run dies (short segment),
        // greedy from the second succeeds. (K,L,G) = (4,2,2).
        let r = runs(&[1, 3, 4, 5, 6]);
        assert!(runs_valid(&r, 4, 2, 2, Semantics::PaperGreedy));
        assert!(runs_valid(&r, 4, 2, 2, Semantics::Subsequence));
    }

    #[test]
    fn gap_beyond_g_invalidates() {
        let r = runs(&[1, 2, 3, 10, 11, 12]);
        for s in [Semantics::Subsequence, Semantics::PaperGreedy] {
            assert!(!runs_valid(&r, 6, 3, 2, s));
            // Each side alone has only 3 times < K = 6.
        }
        // But K = 3 is satisfiable by either side.
        assert!(runs_valid(&r, 3, 3, 2, Semantics::Subsequence));
    }

    #[test]
    fn witness_is_valid_and_consistent() {
        let r = runs(&[1, 2, 4, 5, 6, 9, 10]);
        for s in [Semantics::Subsequence, Semantics::PaperGreedy] {
            if runs_valid(&r, 4, 2, 2, s) {
                let w = runs_witness(&r, 4, 2, 2, s).unwrap();
                assert!(w.len() >= 4);
                assert!(w.windows(2).all(|x| x[1] - x[0] <= 2));
                for run in runs_from_times(&w) {
                    assert!(run.len >= 2);
                }
            }
        }
    }

    #[test]
    fn greedy_witness_stops_at_first_valid_point() {
        // Runs {1,2,3,4,5}: K=3, L=2 → witness should be the 3-prefix.
        let r = runs(&[1, 2, 3, 4, 5]);
        let w = runs_witness(&r, 3, 2, 1, Semantics::PaperGreedy).unwrap();
        assert_eq!(w, vec![1, 2, 3]);
    }

    #[test]
    fn empty_runs_are_invalid() {
        for s in [Semantics::Subsequence, Semantics::PaperGreedy] {
            assert!(!runs_valid(&[], 1, 1, 1, s));
            assert!(runs_witness(&[], 1, 1, 1, s).is_none());
        }
    }

    #[test]
    fn single_long_run_valid() {
        let r = runs(&[5, 6, 7, 8]);
        for s in [Semantics::Subsequence, Semantics::PaperGreedy] {
            assert!(runs_valid(&r, 4, 4, 1, s));
            assert!(!runs_valid(&r, 5, 4, 1, s));
        }
    }

    #[test]
    fn dropped_run_does_not_break_chain() {
        // {1,2} · {4} · {6,7}: after dropping the short run {4}, the gap
        // between the kept runs is 6−2 = 4.
        let r = runs(&[1, 2, 4, 6, 7]);
        assert!(runs_valid(&r, 4, 2, 4, Semantics::Subsequence));
        assert!(!runs_valid(&r, 4, 2, 3, Semantics::Subsequence));
    }
}
