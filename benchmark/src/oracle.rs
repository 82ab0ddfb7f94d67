//! What a correct run must deliver: the serial oracle, the order-free
//! pattern fingerprint it is compared by, the sink that accumulates what a
//! run did deliver, and the failure count between the two.

use crate::workload::{mix, Workload};
use icpe_cluster::{RjcClusterer, SnapshotClusterer};
use icpe_core::{IcpeEngine, PipelineEvent};
use icpe_pattern::{reference::ExhaustiveMiner, unique_object_sets, Semantics};
use icpe_runtime::TimeAligner;
use icpe_types::{GpsRecord, Pattern, Snapshot};
use std::time::{Duration, Instant};

/// A multiset of patterns reduced to a commutative sum of per-pattern
/// hashes plus a count: equal multisets give equal fingerprints whatever
/// the delivery order, and the sink never has to store a pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: u64,
    pub sum: u64,
}

impl Fingerprint {
    /// Adds one pattern given as its object ids and witnessing times.
    pub fn add(&mut self, objects: impl Iterator<Item = u32>, times: impl Iterator<Item = u32>) {
        // Ids and times are folded through separate chains so that moving
        // a value from one list to the other changes the hash.
        let mut h = 0x1CBE_u64;
        for id in objects {
            h = mix(h ^ u64::from(id));
        }
        h = mix(h ^ 0xFFFF_FFFF_FFFF);
        for t in times {
            h = mix(h ^ u64::from(t));
        }
        self.sum = self.sum.wrapping_add(h);
        self.count += 1;
    }

    pub fn add_pattern(&mut self, p: &Pattern) {
        self.add(
            p.objects.iter().map(|o| o.0),
            p.times.times().iter().map(|t| t.0),
        );
    }
}

/// What the serial oracle says a run over one record stream must produce.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub patterns: Fingerprint,
    pub late_dropped: u64,
    /// Time of the first sealed snapshot; snapshot times are dense from it.
    pub first_time: u32,
    /// Per snapshot (index = time − `first_time`): the index of the record
    /// whose push made it sealable, `None` when only end of stream did.
    pub trigger: Vec<Option<u32>>,
    /// Wall-clock seconds the serial job took, the oracle's own
    /// fingerprinting excluded (→ `core.engine.serial_rps`).
    pub serial_wall_s: f64,
}

impl Oracle {
    /// Runs the serial job — `TimeAligner` feeding `IcpeEngine`, which is
    /// `StreamingEngine::push` unrolled so that each seal can be pinned to
    /// the record that caused it (a unit test holds the two equal).
    pub fn run(workload: &Workload, records: &[GpsRecord]) -> Oracle {
        let config = workload.serial_config();
        let mut aligner = TimeAligner::new(config.aligner);
        let mut engine = IcpeEngine::new(config);
        let mut patterns = Fingerprint::default();
        let mut trigger = Vec::new();
        let mut first_time = None;
        let mut sealed: Vec<Snapshot> = Vec::new();
        // Fingerprinting what each seal found is the oracle's bookkeeping,
        // not the serial job: it is timed per seal and taken off the clock.
        let mut bookkeeping = Duration::ZERO;
        let mut seal = |snapshot: Snapshot, cause: Option<u32>| {
            let first = *first_time.get_or_insert(snapshot.time.0);
            assert_eq!(
                snapshot.time.0,
                first + trigger.len() as u32,
                "the aligner seals dense, ascending snapshots"
            );
            trigger.push(cause);
            let found = engine.push_snapshot(snapshot);
            let noted = Instant::now();
            found.iter().for_each(|p| patterns.add_pattern(p));
            drop(found);
            bookkeeping += noted.elapsed();
        };
        let started = Instant::now();
        for (i, record) in records.iter().enumerate() {
            aligner.push_into(*record, &mut sealed);
            for snapshot in sealed.drain(..) {
                seal(snapshot, Some(i as u32));
            }
        }
        for snapshot in aligner.flush() {
            seal(snapshot, None);
        }
        let last = engine.finish();
        let serial_wall_s = (started.elapsed() - bookkeeping).as_secs_f64();
        last.iter().for_each(|p| patterns.add_pattern(p));
        Oracle {
            patterns,
            late_dropped: aligner.late_dropped(),
            first_time: first_time.unwrap_or(0),
            trigger,
            serial_wall_s,
        }
    }

    pub fn snapshots(&self) -> u64 {
        self.trigger.len() as u64
    }
}

/// Cross-checks the streaming engine against the exhaustive offline miner
/// (`icpe_pattern::reference`) on a 1/20-scale cut of the workload: the
/// first twentieth of the object ids (whole planted groups — ids are
/// contiguous per group) over the first `ticks` ticks. Returns the number
/// of object sets both agree on, or the disagreement.
///
/// The miner expands every subset of every cluster and refuses clusters
/// above 16 members; a cut holding one cannot be mined (`Ok(None)`).
pub fn reference_check(
    workload: &Workload,
    records: &[GpsRecord],
    ticks: u32,
) -> Result<Option<usize>, String> {
    let keep = (workload.objects / 20).max(16) as u32;
    let cut: Vec<GpsRecord> = records
        .iter()
        .filter(|r| r.id.0 < keep && r.time.0 < ticks)
        .copied()
        .collect();
    let config = workload.serial_config();
    let clusterer = RjcClusterer::new(config.lg, config.dbscan, config.metric);
    let mut aligner = TimeAligner::new(config.aligner);
    let mut engine = IcpeEngine::new(config.clone());
    let mut miner = ExhaustiveMiner::new();
    let mut found: Vec<Pattern> = Vec::new();
    let mut snapshots: Vec<Snapshot> = Vec::new();
    for r in &cut {
        aligner.push_into(*r, &mut snapshots);
    }
    snapshots.extend(aligner.flush());
    for snapshot in snapshots {
        let clusters = clusterer.cluster(&snapshot);
        if clusters.clusters.iter().any(|c| c.len() > 16) {
            return Ok(None);
        }
        miner.push(clusters);
        found.extend(engine.push_snapshot(snapshot));
    }
    found.extend(engine.finish());
    let got = unique_object_sets(&found);
    let want = miner.mine_object_sets(&config.constraints, Semantics::default());
    if got == want {
        Ok(Some(got.len()))
    } else {
        Err(format!(
            "streaming engine found {} object sets, exhaustive miner {}",
            got.len(),
            want.len()
        ))
    }
}

/// What a run delivered, accumulated event by event. Shared by the
/// in-process sink callback and the TCP subscriber reader.
#[derive(Debug)]
pub struct Delivered {
    pub patterns: Fingerprint,
    first_time: u32,
    /// Per expected snapshot: how often it was sealed, and when first.
    seal_count: Vec<u8>,
    sealed_at: Vec<Option<Instant>>,
    /// Seal events for snapshots the oracle does not know.
    pub unknown_seals: u64,
    /// Number of snapshots sealed so far (the open loop reads this to
    /// follow the backlog).
    pub sealed: u32,
}

impl Delivered {
    pub fn expecting(oracle: &Oracle) -> Delivered {
        let n = oracle.trigger.len();
        Delivered {
            patterns: Fingerprint::default(),
            first_time: oracle.first_time,
            seal_count: vec![0; n],
            sealed_at: vec![None; n],
            unknown_seals: 0,
            sealed: 0,
        }
    }

    pub fn seal(&mut self, time: u32, at: Instant) {
        let slot = time
            .checked_sub(self.first_time)
            .map(|i| i as usize)
            .filter(|&i| i < self.seal_count.len());
        match slot {
            Some(i) => {
                self.seal_count[i] = self.seal_count[i].saturating_add(1);
                self.sealed_at[i].get_or_insert(at);
            }
            None => self.unknown_seals += 1,
        }
        self.sealed += 1;
    }

    pub fn on_event(&mut self, event: PipelineEvent) {
        match event {
            PipelineEvent::Pattern(p) => self.patterns.add_pattern(&p),
            PipelineEvent::SnapshotSealed { time } => self.seal(time, Instant::now()),
        }
    }

    /// When snapshot number `index` (time − first time) was first sealed.
    pub fn sealed_at(&self, index: usize) -> Option<Instant> {
        self.sealed_at.get(index).copied().flatten()
    }

    /// Snapshots sealed zero times or more than once, plus seals of
    /// snapshots that should not exist.
    pub fn missealed(&self) -> u64 {
        self.seal_count.iter().filter(|&&c| c != 1).count() as u64 + self.unknown_seals
    }
}

/// The operations one pass attempted and how many of them failed — the
/// benchmark's `error_share` is `failed / attempted`, summed over passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything outside the event stream that can go wrong in a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeCounts {
    /// Records offered to the pipeline or written to the socket.
    pub offered: u64,
    /// Pushes refused, lines rejected or quarantined at the server edge.
    pub refused: u64,
    /// Late drops the run reported.
    pub late_dropped: u64,
    /// Subscriber lines lost: subscribers shed, unparsable lines.
    pub lines_lost: u64,
}

/// Compares a pass with the oracle.
///
/// attempted = records offered + snapshots expected + patterns expected;
/// failed = pushes refused + |late drops − oracle's| + snapshots sealed
/// zero or two times + patterns missing or extra + subscriber lines lost.
/// A fingerprint mismatch at equal count means at least one pattern was
/// swapped for another: one missing and one extra.
pub fn verify(oracle: &Oracle, delivered: &Delivered, edge: EdgeCounts) -> Tally {
    let want = oracle.patterns;
    let got = delivered.patterns;
    let mut pattern_failures = want.count.abs_diff(got.count);
    if pattern_failures == 0 && want.sum != got.sum {
        pattern_failures = 2;
    }
    Tally {
        attempted: edge.offered + oracle.snapshots() + want.count,
        failed: edge.refused
            + edge.late_dropped.abs_diff(oracle.late_dropped)
            + delivered.missealed()
            + pattern_failures
            + edge.lines_lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, WORKLOADS};
    use icpe_core::StreamingEngine;
    use icpe_types::{ObjectId, TimeSequence};

    fn pattern(objects: &[u32], times: &[u32]) -> Pattern {
        Pattern::new(
            objects.iter().copied().map(ObjectId).collect(),
            TimeSequence::from_raw(times.iter().copied()).unwrap(),
        )
    }

    fn fingerprint(patterns: &[Pattern]) -> Fingerprint {
        let mut f = Fingerprint::default();
        for p in patterns {
            f.add_pattern(p);
        }
        f
    }

    #[test]
    fn fingerprint_ignores_order_and_sees_one_missing_or_doubled_pattern() {
        let a = pattern(&[1, 2, 3], &[4, 5, 6]);
        let b = pattern(&[1, 2, 4], &[4, 5, 6]);
        let c = pattern(&[1, 2, 3], &[4, 5, 7]);
        let all = fingerprint(&[a.clone(), b.clone(), c.clone()]);
        assert_eq!(all, fingerprint(&[c.clone(), a.clone(), b.clone()]));
        assert_ne!(all, fingerprint(&[a.clone(), b.clone()]));
        assert_ne!(
            all,
            fingerprint(&[a.clone(), b.clone(), c.clone(), c.clone()])
        );
        // Same count, one pattern swapped for a near twin.
        assert_ne!(all, fingerprint(&[a.clone(), b.clone(), b.clone()]));
        // Ids and times do not alias.
        assert_ne!(
            fingerprint(&[pattern(&[1, 2], &[3])]),
            fingerprint(&[pattern(&[1], &[2, 3])])
        );
        // A duplicate is not cancelled out (as an xor would).
        assert_ne!(fingerprint(&[a.clone(), a.clone()]), fingerprint(&[]));
    }

    #[test]
    fn oracle_equals_streaming_engine_on_every_workload() {
        for w in &WORKLOADS {
            let records = w.records(3, 40);
            let oracle = Oracle::run(w, &records);
            let mut engine = StreamingEngine::new(w.serial_config());
            let mut want = Fingerprint::default();
            for r in &records {
                engine.push(*r).iter().for_each(|p| want.add_pattern(p));
            }
            engine.finish().iter().for_each(|p| want.add_pattern(p));
            assert_eq!(oracle.patterns, want, "{}", w.name);
            assert_eq!(oracle.late_dropped, engine.late_dropped(), "{}", w.name);
            assert_eq!(
                oracle.snapshots(),
                engine.engine().timings().snapshots as u64,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn triggers_match_a_step_by_step_aligner_replay() {
        // In order: with lateness 2, snapshot t seals on the first record
        // of tick t + 3.
        let w = find("convoy_mix").unwrap();
        let records = w.records(5, 30);
        let oracle = Oracle::run(w, &records);
        assert_eq!(oracle.first_time, 0);
        assert_eq!(oracle.trigger.len(), 30);
        for (t, trigger) in oracle.trigger.iter().enumerate() {
            let want = (t + 3 < 30).then(|| ((t + 3) * w.objects) as u32);
            assert_eq!(*trigger, want, "snapshot {t}");
        }

        // Disordered: replay record by record through a fresh aligner and
        // note, for every snapshot, the push that returned it.
        let w = find("sparse_disorder").unwrap();
        let records = w.records(5, 30);
        let oracle = Oracle::run(w, &records);
        let mut aligner = TimeAligner::new(w.aligner());
        let mut replay = vec![None; oracle.trigger.len()];
        for (i, r) in records.iter().enumerate() {
            for snapshot in aligner.push(*r) {
                replay[(snapshot.time.0 - oracle.first_time) as usize] = Some(i as u32);
            }
        }
        assert_eq!(oracle.trigger, replay);
        assert_eq!(oracle.late_dropped, aligner.late_dropped());
        assert!(
            oracle.late_dropped > 0,
            "the disorder reaches past lateness"
        );
        assert!(
            oracle
                .trigger
                .windows(2)
                .all(|w| w[0] <= w[1] || w[1].is_none()),
            "triggers ascend with snapshot time"
        );
    }

    #[test]
    fn a_sink_that_drops_one_pattern_fails_verification() {
        let w = find("convoy_mix").unwrap();
        let records = w.records(9, 40);
        let oracle = Oracle::run(w, &records);
        assert!(oracle.patterns.count > 0);
        let edge = EdgeCounts {
            offered: records.len() as u64,
            ..EdgeCounts::default()
        };

        let replay = |skip: Option<u64>| {
            let mut delivered = Delivered::expecting(&oracle);
            let mut engine = StreamingEngine::new(w.serial_config());
            let mut seen = 0;
            let mut deliver = |patterns: Vec<Pattern>, delivered: &mut Delivered| {
                for p in patterns {
                    if Some(seen) != skip {
                        delivered.on_event(PipelineEvent::Pattern(p));
                    }
                    seen += 1;
                }
            };
            for r in &records {
                let before = engine.engine().timings().snapshots;
                let patterns = engine.push(*r);
                deliver(patterns, &mut delivered);
                for t in before..engine.engine().timings().snapshots {
                    delivered.on_event(PipelineEvent::SnapshotSealed { time: t as u32 });
                }
            }
            let before = engine.engine().timings().snapshots;
            let patterns = engine.finish();
            deliver(patterns, &mut delivered);
            for t in before..engine.engine().timings().snapshots {
                delivered.on_event(PipelineEvent::SnapshotSealed { time: t as u32 });
            }
            verify(&oracle, &delivered, edge)
        };

        let clean = replay(None);
        assert_eq!(clean.failed, 0);
        assert_eq!(
            clean.attempted,
            records.len() as u64 + 40 + oracle.patterns.count
        );
        let broken = replay(Some(oracle.patterns.count / 2));
        assert_eq!(broken.failed, 1, "one dropped pattern is one failure");
    }

    #[test]
    fn verify_counts_each_kind_of_failure() {
        let w = find("sparse_disorder").unwrap();
        let records = w.records(1, 30);
        let oracle = Oracle::run(w, &records);
        let mut delivered = Delivered::expecting(&oracle);
        let now = Instant::now();
        // Snapshot 0 twice, snapshot 1 never, one seal out of range.
        delivered.seal(oracle.first_time, now);
        delivered.seal(oracle.first_time, now);
        for t in 2..30 {
            delivered.seal(oracle.first_time + t, now);
        }
        delivered.seal(oracle.first_time + 500, now);
        let edge = EdgeCounts {
            offered: records.len() as u64,
            refused: 3,
            late_dropped: oracle.late_dropped + 2,
            lines_lost: 1,
        };
        assert_eq!(verify(&oracle, &delivered, edge).failed, 3 + 2 + 3 + 1);
    }

    #[test]
    fn reference_miner_agrees_on_the_scaled_cut() {
        for name in ["convoy_mix", "pattern_heavy", "serve_fanout"] {
            let w = find(name).unwrap();
            let sets = reference_check(w, &w.records(2, 40), 40).unwrap();
            assert!(sets.unwrap() > 0, "{name}: the cut holds planted groups");
        }
    }
}
