//! **FBA** — Fixed-length Bit Compression based Algorithm (Algorithm 4).
//!
//! Per window: an η-bit string per partition member (Definition 13), read
//! in place from the owner's bit table; only members whose own string
//! already satisfies `(K, L, G)` stay (the candidate set `C`); patterns are
//! then enumerated apriori-style from cardinality `M − 1`, depth first,
//! combining candidates with word-parallel `AND`s on a reusable stack and
//! appending each pattern to a flat [`PatternBatch`]. Storage drops from
//! `O(2^n)` to `O(η·n)`; enumeration from `O(2^n)` to
//! `O(|R|·|C| + C(|C|, M−1))`; and nothing is allocated per window or per
//! pattern.

use crate::bitstring::word_runs;
use crate::engine::{EngineConfig, PatternEngine, Window, WindowTable};
use crate::partition::Partition;
use crate::runs::witness_span;
use icpe_types::{CheckpointError, EngineCheckpoint, ObjectId, Pattern, PatternBatch, Timestamp};

/// The FBA pattern-enumeration engine.
#[derive(Debug)]
pub struct FbaEngine {
    config: EngineConfig,
    windows: WindowTable,
    kernel: Kernel,
    /// The batch behind the `Vec<Pattern>` view of the kernel.
    view: PatternBatch,
}

impl FbaEngine {
    /// Creates the engine.
    pub fn new(config: EngineConfig) -> Self {
        Self::over(config, WindowTable::new(&config.constraints))
    }

    fn over(config: EngineConfig, windows: WindowTable) -> Self {
        FbaEngine {
            config,
            windows,
            kernel: Kernel::default(),
            view: PatternBatch::new(),
        }
    }

    /// Rebuilds an FBA engine from a checkpoint, loading only owners for
    /// which `keep` returns true (restore-time resharding).
    pub fn from_checkpoint(
        config: EngineConfig,
        ckpt: &EngineCheckpoint,
        keep: impl Fn(ObjectId) -> bool,
    ) -> Result<Self, CheckpointError> {
        let windows = WindowTable::restore(&config.constraints, ckpt, keep)?;
        Ok(Self::over(config, windows))
    }

    /// Captures the engine's full streaming state in durable form.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        self.windows.checkpoint()
    }

    /// [`PatternEngine::push_partitions`] in flat form — the enumeration
    /// stage's entry point: `partitions` is drained (its capacity stays
    /// with the caller) and the patterns are appended to `out`, without
    /// allocating per pattern.
    pub fn push_partitions_into(
        &mut self,
        time: Timestamp,
        partitions: &mut Vec<Partition>,
        out: &mut PatternBatch,
    ) {
        let FbaEngine {
            config,
            windows,
            kernel,
            ..
        } = self;
        windows.push_partitions(time, partitions, |window| {
            kernel.enumerate(config, window, out)
        });
        partitions.clear();
    }

    /// [`PatternEngine::finish`] in flat form.
    pub fn finish_into(&mut self, out: &mut PatternBatch) {
        let FbaEngine {
            config,
            windows,
            kernel,
            ..
        } = self;
        windows.finish(|window| kernel.enumerate(config, window, out));
    }

    /// Runs `fill` on the view batch and materializes what it appended.
    fn viewed(&mut self, fill: impl FnOnce(&mut Self, &mut PatternBatch)) -> Vec<Pattern> {
        let mut batch = std::mem::take(&mut self.view);
        fill(self, &mut batch);
        let patterns = batch.to_patterns();
        batch.clear();
        self.view = batch;
        patterns
    }
}

/// The enumeration kernel's reusable buffers. Candidate-based enumeration
/// (shared conceptually with VBA) grows object sets from cardinality
/// `M − 1`, extending only with larger candidate indices (each set is
/// generated once), pruning sets whose combined bit string is invalid.
/// Under subsequence semantics validity is anti-monotone in the number of
/// objects, so pruning is lossless. (Under [`crate::Semantics::PaperGreedy`]
/// the candidate filter is the paper's literal rule and is knowingly lossy;
/// see the crate docs.)
#[derive(Debug, Default)]
struct Kernel {
    /// The window's candidates, ascending, and their strings (one row of
    /// `words` words each).
    candidates: Vec<ObjectId>,
    strings: Vec<u64>,
    /// The object set being grown: the owner, then the chosen candidates —
    /// ascending, because an owner's partition holds larger ids only.
    chosen: Vec<ObjectId>,
    /// Row `d`: the AND of the strings of the first `d` chosen candidates.
    stack: Vec<u64>,
    /// The string whose witness was stored last in this window (all zero,
    /// which no valid string is, until one has been), and that witness: the
    /// subsets of one group mostly AND to the same string.
    memo: Vec<u64>,
    memo_witness: u32,
}

impl Kernel {
    /// Enumerates one window's patterns into `out`.
    fn enumerate(&mut self, config: &EngineConfig, window: Window<'_>, out: &mut PatternBatch) {
        let c = &config.constraints;
        self.candidates.clear();
        self.strings.clear();
        // Candidate filtering: B[oi] must itself satisfy (K, L, G).
        for (member, string) in window.partition() {
            if witness_span(word_runs(string), c.k(), c.l(), c.g(), config.semantics).is_some() {
                self.candidates.push(member);
                self.strings.extend_from_slice(string);
            }
        }
        if self.candidates.len() < c.m() - 1 {
            return;
        }
        self.chosen.clear();
        self.chosen.push(window.owner);
        self.stack.clear();
        self.stack
            .resize((self.candidates.len() + 1) * window.words, !0);
        self.memo.clear();
        self.memo.resize(window.words, 0);
        self.extend(config, &window, 0, None, out);
    }

    /// Extends the chosen set with every candidate from index `from` on.
    /// `witness` is the chosen set's own witness, if it is a pattern.
    fn extend(
        &mut self,
        config: &EngineConfig,
        window: &Window<'_>,
        from: usize,
        witness: Option<u32>,
        out: &mut PatternBatch,
    ) {
        let c = &config.constraints;
        let (need, words) = (c.m() - 1, window.words);
        let depth = self.chosen.len() - 1;
        // Stop where too few candidates remain to reach cardinality M − 1.
        let last = self.candidates.len() - need.saturating_sub(depth + 1);
        for cand in from..last {
            let (below, above) = self.stack.split_at_mut((depth + 1) * words);
            let (parent, child) = (&below[depth * words..], &mut above[..words]);
            let string = &self.strings[cand * words..(cand + 1) * words];
            let mut ones = 0;
            for ((c, &p), &s) in child.iter_mut().zip(parent).zip(string) {
                *c = p & s;
                ones += c.count_ones() as usize;
            }
            // Fewer than K common times: no superset can be valid either.
            if ones < c.k() {
                continue;
            }
            let unchanged = *child == *parent;
            self.chosen.push(self.candidates[cand]);
            let mut found = None;
            if depth + 1 >= need {
                found = match witness {
                    Some(w) if unchanged => Some(w),
                    _ => self.witness_of(config, window, depth + 1, out),
                };
                if let Some(w) = found {
                    out.push(&self.chosen, w);
                }
            }
            if found.is_some() || depth + 1 < need {
                self.extend(config, window, cand + 1, found, out);
            }
            self.chosen.pop();
        }
    }

    /// The witness of stack row `depth`, stored in `out`; `None` if the
    /// string is invalid.
    fn witness_of(
        &mut self,
        config: &EngineConfig,
        window: &Window<'_>,
        depth: usize,
        out: &mut PatternBatch,
    ) -> Option<u32> {
        let c = &config.constraints;
        let string = &self.stack[depth * window.words..(depth + 1) * window.words];
        if self.memo != string {
            let span = witness_span(word_runs(string), c.k(), c.l(), c.g(), config.semantics)?;
            let times = span.times(word_runs(string));
            self.memo_witness = out.push_witness(times.map(|j| Timestamp(window.start + j)));
            self.memo.copy_from_slice(string);
        }
        Some(self.memo_witness)
    }
}

impl PatternEngine for FbaEngine {
    fn name(&self) -> &'static str {
        "FBA"
    }

    fn significance(&self) -> usize {
        self.config.constraints.m()
    }

    fn push_partitions(&mut self, time: Timestamp, mut partitions: Vec<Partition>) -> Vec<Pattern> {
        self.viewed(|engine, batch| engine.push_partitions_into(time, &mut partitions, batch))
    }

    fn finish(&mut self) -> Vec<Pattern> {
        self.viewed(|engine, batch| engine.finish_into(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::unique_object_sets;
    use icpe_types::{ClusterSnapshot, Constraints};

    fn oid(v: u32) -> ObjectId {
        ObjectId(v)
    }

    fn cs(t: u32, groups: &[&[u32]]) -> ClusterSnapshot {
        ClusterSnapshot::from_groups(
            Timestamp(t),
            groups
                .iter()
                .map(|g| g.iter().copied().map(ObjectId).collect::<Vec<_>>()),
        )
    }

    fn run_stream(engine: &mut FbaEngine, stream: &[ClusterSnapshot]) -> Vec<Pattern> {
        let mut out = Vec::new();
        for s in stream {
            out.extend(engine.push(s));
        }
        out.extend(engine.finish());
        out
    }

    #[test]
    fn detects_persistent_group() {
        let c = Constraints::new(3, 4, 2, 2).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..8).map(|t| cs(t, &[&[1, 2, 3]])).collect();
        let patterns = run_stream(&mut engine, &stream);
        let sets = unique_object_sets(&patterns);
        assert!(sets.contains(&vec![oid(1), oid(2), oid(3)]));
        for p in &patterns {
            assert!(p.satisfies(&c));
        }
    }

    #[test]
    fn paper_fig8_enumeration() {
        // Subtask of o4 at time 3, P3(o4) = {o5,o6,o7,o8}; bits per Fig. 8:
        // B[o5]=111111, B[o6]=110111, B[o7]=110011, B[o8]=100000 over times
        // 3..=8. The paper runs this with G = 2, but o7's times have a
        // neighboring difference of 3, so under a strict Definition 3 the
        // figure's candidate set requires G = 3 (see DESIGN.md); the
        // structure of the example is otherwise unchanged: o5–o7 are
        // candidates, o8 is filtered out, and every combination with o4 is
        // a pattern.
        let bits = |s: &str| -> Vec<bool> { s.chars().map(|c| c == '1').collect() };
        let b5 = bits("111111");
        let b6 = bits("110111");
        let b7 = bits("110011");
        let b8 = bits("100000");
        let mut stream = Vec::new();
        for (j, t) in (3u32..=8).enumerate() {
            let mut cluster: Vec<u32> = vec![4];
            if b5[j] {
                cluster.push(5);
            }
            if b6[j] {
                cluster.push(6);
            }
            if b7[j] {
                cluster.push(7);
            }
            if b8[j] {
                cluster.push(8);
            }
            stream.push(cs(t, &[&cluster]));
        }
        let c = Constraints::new(3, 4, 2, 3).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        // Patterns of size ≥ 3 containing o4:
        assert!(sets.contains(&vec![oid(4), oid(5), oid(6)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(4), oid(5), oid(7)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(4), oid(6), oid(7)]), "{sets:?}");
        assert!(
            sets.contains(&vec![oid(4), oid(5), oid(6), oid(7)]),
            "{sets:?}"
        );
        // o8's string 100000 fails (K,L,G); no pattern contains o8.
        assert!(sets.iter().all(|s| !s.contains(&oid(8))));
    }

    #[test]
    fn partition_wider_than_a_word_yields_only_what_persists() {
        // 70 objects share a cluster once; the owner and the members at
        // positions 9, 64 and 68 of its partition then stay together for a
        // whole window. Member masks used to be one `u64` (`1 << i`), so
        // position 64 aliased position 0 and object 1 joined the patterns.
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let crowd: Vec<u32> = (0..70).collect();
        let four = [0u32, 10, 65, 69];
        let mut stream = vec![cs(0, &[&crowd])];
        stream.extend((1..c.eta() as u32).map(|t| cs(t, &[&four])));
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        assert_eq!(sets.len(), 11, "the subsets of the four of size ≥ 2");
        assert!(sets.iter().all(|s| s.iter().all(|o| four.contains(&o.0))));

        // The exhaustive miner expands every subset of a cluster, so it gets
        // the crowd cut to thirteen — objects seen together once are in no
        // pattern (K = 4), whichever of them are kept.
        let mut miner = crate::reference::ExhaustiveMiner::new();
        let cut: Vec<u32> = (0..=10).chain([65, 69]).collect();
        miner.push(cs(0, &[&cut]));
        stream[1..].iter().for_each(|s| miner.push(s.clone()));
        assert_eq!(
            sets,
            miner.mine_object_sets(&c, crate::Semantics::Subsequence)
        );
    }

    #[test]
    fn m_equals_two_enumerates_singletons() {
        let c = Constraints::new(2, 3, 1, 2).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..6).map(|t| cs(t, &[&[7, 9]])).collect();
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        assert!(sets.contains(&vec![oid(7), oid(9)]));
    }

    #[test]
    fn no_false_patterns_on_disjoint_groups() {
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        // {1,2} and {3,4} never share a cluster.
        let stream: Vec<ClusterSnapshot> = (0..8).map(|t| cs(t, &[&[1, 2], &[3, 4]])).collect();
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        for s in &sets {
            assert!(
                s == &vec![oid(1), oid(2)] || s == &vec![oid(3), oid(4)],
                "unexpected pattern {s:?}"
            );
        }
        assert_eq!(sets.len(), 2);
    }
}
