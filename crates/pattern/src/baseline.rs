//! **BA** — the Baseline engine (Algorithm 3): SPARE adapted to streams.
//!
//! For every window start, enumerate *all* subsets of the owner's partition
//! with `|O| ≥ M − 1` and verify each against the following η − 1 partitions
//! — `O(η · 2^|P|)` time per window, the exponential cost the bit
//! compression of FBA/VBA eliminates. Partitions beyond a configurable size
//! are skipped and counted ([`BaselineEngine::skipped_partitions`]), which is
//! the honest version of "B cannot run on large datasets" (Figure 12).

use crate::bitstring::word_runs;
use crate::engine::{EngineConfig, PatternEngine, Window, WindowTable};
use crate::runs::{runs_from_times, runs_witness, runs_witness_anchored, Semantics};
use icpe_types::{CheckpointError, EngineCheckpoint, ObjectId, Pattern, TimeSequence};

/// The Baseline pattern-enumeration engine.
#[derive(Debug)]
pub struct BaselineEngine {
    config: EngineConfig,
    windows: WindowTable,
    skipped: usize,
}

impl BaselineEngine {
    /// Creates the engine.
    pub fn new(config: EngineConfig) -> Self {
        BaselineEngine {
            windows: WindowTable::new(&config.constraints),
            config,
            skipped: 0,
        }
    }

    /// Number of partitions skipped because they exceeded
    /// [`EngineConfig::max_baseline_partition`].
    pub fn skipped_partitions(&self) -> usize {
        self.skipped
    }

    /// Rebuilds a Baseline engine from a checkpoint, loading only owners
    /// for which `keep` returns true. The skipped-partition counter is
    /// rehydrated: an incomplete result must stay marked incomplete across
    /// a restore.
    pub fn from_checkpoint(
        config: EngineConfig,
        ckpt: &EngineCheckpoint,
        keep: impl Fn(ObjectId) -> bool,
    ) -> Result<Self, CheckpointError> {
        if ckpt.kind != "BA" {
            return Err(CheckpointError::EngineMismatch {
                checkpoint: ckpt.kind.clone(),
                config: "BA".into(),
            });
        }
        Ok(BaselineEngine {
            windows: WindowTable::restore(
                &config.constraints,
                ckpt.last_time,
                &ckpt.window_owners,
                keep,
            )?,
            config,
            skipped: ckpt.skipped_partitions as usize,
        })
    }

    /// Enumerates one window into `out`. A subset is a `u64` mask over the
    /// partition, so a partition of 64 or more members is skipped and
    /// counted whatever the configured limit.
    fn process(
        config: &EngineConfig,
        skipped: &mut usize,
        window: Window<'_>,
        out: &mut Vec<Pattern>,
    ) {
        let members: Vec<ObjectId> = window.partition().map(|(member, _)| member).collect();
        let n = members.len();
        if n > config.max_baseline_partition.min(63) {
            *skipped += 1;
            return;
        }
        let c = &config.constraints;
        let need = c.m() - 1; // owner is implicit
        if n < need {
            return;
        }
        // Per window offset, which partition members are with the owner
        // (the table holds the transpose: per member, at which offsets).
        let mut masks = vec![0u64; window.words * 64];
        for (i, (_, string)) in window.partition().enumerate() {
            for j in word_runs(string).flat_map(|run| run.start..=run.end()) {
                masks[j as usize] |= 1 << i;
            }
        }

        // Enumerate every subset with |O| ≥ M − 1 (the exponential loop).
        for subset in 1u64..(1u64 << n) {
            if (subset.count_ones() as usize) < need {
                continue;
            }
            // Times (window offsets) at which the whole subset stays with
            // the owner. Offset 0 always qualifies by construction.
            let times: Vec<u32> = masks
                .iter()
                .enumerate()
                .filter(|(_, &mask)| subset & mask == subset)
                .map(|(j, _)| j as u32)
                .collect();
            debug_assert_eq!(times.first(), Some(&0));
            let runs = runs_from_times(&times);
            // Under the paper's greedy semantics the window verifies only
            // from its own start (offset 0, Algorithm 3 line 3: T = {t});
            // later starts have their own windows.
            let witness = match config.semantics {
                Semantics::Subsequence => {
                    runs_witness(&runs, c.k(), c.l(), c.g(), Semantics::Subsequence)
                }
                Semantics::PaperGreedy => runs_witness_anchored(&runs, c.k(), c.l(), c.g()),
            };
            let Some(witness) = witness else {
                continue;
            };
            let mut objects: Vec<ObjectId> = (0..n)
                .filter(|i| subset & (1 << i) != 0)
                .map(|i| members[i])
                .collect();
            objects.push(window.owner);
            let times = TimeSequence::from_raw(witness.into_iter().map(|j| window.start + j))
                .expect("witness offsets are strictly increasing");
            out.push(Pattern::new(objects, times));
        }
    }
}

impl PatternEngine for BaselineEngine {
    fn name(&self) -> &'static str {
        "BA"
    }

    fn significance(&self) -> usize {
        self.config.constraints.m()
    }

    fn push_partitions(
        &mut self,
        time: icpe_types::Timestamp,
        partitions: Vec<crate::partition::Partition>,
    ) -> Vec<Pattern> {
        let BaselineEngine {
            config,
            windows,
            skipped,
        } = self;
        let mut out = Vec::new();
        windows.push_partitions(time, &partitions, |window| {
            Self::process(config, skipped, window, &mut out)
        });
        out
    }

    fn finish(&mut self) -> Vec<Pattern> {
        let BaselineEngine {
            config,
            windows,
            skipped,
        } = self;
        let mut out = Vec::new();
        windows.finish(|window| Self::process(config, skipped, window, &mut out));
        out
    }

    fn overflowed_partitions(&self) -> usize {
        self.skipped
    }

    fn checkpoint(&self) -> Option<EngineCheckpoint> {
        let (last_time, window_owners) = self.windows.checkpoint();
        Some(EngineCheckpoint {
            kind: "BA".into(),
            last_time,
            skipped_partitions: self.skipped as u64,
            window_owners,
            vba_owners: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::unique_object_sets;
    use icpe_types::{ClusterSnapshot, Constraints, Timestamp};

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

    fn run_stream(engine: &mut BaselineEngine, stream: &[ClusterSnapshot]) -> Vec<Pattern> {
        let mut out = Vec::new();
        for s in stream {
            out.extend(engine.push(s));
        }
        out.extend(engine.finish());
        out
    }

    #[test]
    fn detects_a_simple_persistent_group() {
        // {1,2,3} together for 4 consecutive times; CP(3,4,2,2).
        let c = Constraints::new(3, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..8).map(|t| cs(t, &[&[1, 2, 3]])).collect();
        let patterns = run_stream(&mut engine, &stream);
        let sets = unique_object_sets(&patterns);
        assert!(sets.contains(&vec![oid(1), oid(2), oid(3)]));
        // All reported patterns satisfy the constraints.
        for p in &patterns {
            assert!(p.satisfies(&c), "{p}");
        }
    }

    #[test]
    fn paper_fig2_cp_patterns() {
        // Figure 2 / §3.1: with CP(2,4,2,2), {o4,o5} and {o6,o7} qualify by
        // time 5 with T = ⟨2,3,4,5⟩; with CP(3,4,2,2), {o4,o5,o6} qualifies
        // at time 7 with T = ⟨3,4,6,7⟩.
        // Cluster stream transcribed from the figure (times 1..=8):
        let stream = vec![
            cs(1, &[&[1, 2], &[3, 4], &[5, 6, 7]]),
            cs(2, &[&[1, 2], &[3, 4, 5], &[6, 7]]),
            cs(3, &[&[2, 3, 4, 5, 6, 7, 8]]),
            cs(4, &[&[1, 2], &[3, 4, 5, 6, 7]]),
            cs(5, &[&[1, 2], &[4, 5], &[6, 7]]),
            cs(6, &[&[3, 4, 5, 6], &[7, 8]]),
            cs(7, &[&[1, 2], &[4, 5, 6, 7]]),
            cs(8, &[&[5, 6, 7, 8]]),
        ];
        let c2 = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c2));
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        assert!(sets.contains(&vec![oid(4), oid(5)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(6), oid(7)]), "{sets:?}");

        let c3 = Constraints::new(3, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c3));
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        assert!(sets.contains(&vec![oid(4), oid(5), oid(6)]), "{sets:?}");
    }

    #[test]
    fn gap_exceeding_g_splits_patterns() {
        // Together at times 0..=3 and 8..=11, gap 5 > G=2: each episode
        // yields the pattern, but no sequence spans the gap.
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c));
        let mut stream = Vec::new();
        for t in 0..12u32 {
            let together = t <= 3 || t >= 8;
            stream.push(if together {
                cs(t, &[&[1, 2]])
            } else {
                cs(t, &[])
            });
        }
        let patterns = run_stream(&mut engine, &stream);
        assert!(!patterns.is_empty());
        for p in &patterns {
            assert!(p.satisfies(&c));
            let times = p.times.times();
            let all_early = times.iter().all(|t| t.0 <= 3);
            let all_late = times.iter().all(|t| t.0 >= 8);
            assert!(all_early || all_late, "sequence spans the gap: {p}");
        }
    }

    #[test]
    fn oversized_partition_is_skipped_and_counted() {
        let c = Constraints::new(2, 2, 1, 2).unwrap();
        let mut cfg = EngineConfig::new(c);
        cfg.max_baseline_partition = 4;
        let mut engine = BaselineEngine::new(cfg);
        let big: Vec<u32> = (1..=10).collect();
        let refs: Vec<&[u32]> = vec![&big];
        let stream: Vec<ClusterSnapshot> = (0..4).map(|t| cs(t, &refs)).collect();
        let _ = run_stream(&mut engine, &stream);
        assert!(engine.skipped_partitions() > 0);
    }

    #[test]
    fn partition_of_64_or_more_is_skipped_whatever_the_limit() {
        // A subset is a `u64` mask: 69 members cannot be enumerated, and
        // must not be aliased onto the first 64 either.
        let c = Constraints::new(2, 2, 1, 2).unwrap();
        let mut cfg = EngineConfig::new(c);
        cfg.max_baseline_partition = usize::MAX;
        let mut engine = BaselineEngine::new(cfg);
        let partition = |members: Vec<u32>| crate::partition::Partition {
            owner: oid(0),
            members: members.into_iter().map(ObjectId).collect(),
        };
        let mut found = engine.push_partitions(Timestamp(0), vec![partition((1..70).collect())]);
        found.extend(engine.push_partitions(Timestamp(1), vec![partition(vec![69])]));
        found.extend(engine.push_partitions(Timestamp(2), vec![partition(vec![69])]));
        found.extend(engine.finish());
        assert_eq!(engine.skipped_partitions(), 1, "the window of 69 members");
        assert_eq!(unique_object_sets(&found), vec![vec![oid(0), oid(69)]]);
    }

    #[test]
    fn no_patterns_below_duration() {
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..3).map(|t| cs(t, &[&[1, 2]])).collect();
        let patterns = run_stream(&mut engine, &stream);
        assert!(patterns.is_empty(), "{patterns:?}");
    }
}
