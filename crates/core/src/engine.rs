//! The deterministic, in-process ICPE engine.

use crate::config::{ClustererKind, EnumeratorKind, IcpeConfig};
use icpe_cluster::{GdcClusterer, RjcClusterer, SnapshotClusterer, SrjClusterer};
use icpe_pattern::{BaselineEngine, FbaEngine, PatternEngine, VbaEngine};
use icpe_types::{
    CheckpointError, ClusterSnapshot, EngineCheckpoint, ObsCheckpoint, Pattern, PipelineCheckpoint,
    ProgressCheckpoint, Snapshot, CHECKPOINT_VERSION,
};
use std::time::Duration;

/// Per-phase timing accumulated by [`IcpeEngine`] — the decomposition behind
/// the stacked latency bars of Figures 12–13.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Total time spent in the clustering phase.
    pub clustering: Duration,
    /// Total time spent in the enumeration phase.
    pub enumeration: Duration,
    /// Number of snapshots processed.
    pub snapshots: usize,
    /// Sum of cluster sizes and cluster count (for the average-cluster-size
    /// series of Figures 12–13).
    pub cluster_members: usize,
    /// Number of clusters seen.
    pub clusters: usize,
}

impl PhaseTimings {
    /// Mean clustering latency per snapshot.
    pub fn avg_clustering(&self) -> Duration {
        checked_div(self.clustering, self.snapshots)
    }

    /// Mean enumeration latency per snapshot.
    pub fn avg_enumeration(&self) -> Duration {
        checked_div(self.enumeration, self.snapshots)
    }

    /// Mean cluster size over the stream.
    pub fn avg_cluster_size(&self) -> f64 {
        if self.clusters == 0 {
            0.0
        } else {
            self.cluster_members as f64 / self.clusters as f64
        }
    }
}

fn checked_div(d: Duration, n: usize) -> Duration {
    if n == 0 {
        Duration::ZERO
    } else {
        d / n as u32
    }
}

/// The synchronous ICPE engine: push snapshots in time order, collect
/// patterns. Snapshots must be dense in time (every tick, possibly empty);
/// [`icpe_gen::TraceSet::to_snapshots`]-style input or the runtime's aligner
/// output both satisfy this.
///
/// This is the home of the paper's comparison baselines: it runs every
/// [`ClustererKind`] and every [`EnumeratorKind`], where
/// [`IcpePipeline`](crate::IcpePipeline) runs RJC with FBA only.
pub struct IcpeEngine {
    clusterer: Box<dyn SnapshotClusterer + Send>,
    enumerator: Enumerator,
    timings: PhaseTimings,
}

/// The enumeration phase: FBA, the one engine whose state checkpoints, or
/// a serial-only §7.2 baseline (BA, VBA).
enum Enumerator {
    Fba(Box<FbaEngine>),
    Comparison(Box<dyn PatternEngine + Send>),
}

impl Enumerator {
    fn engine(&self) -> &dyn PatternEngine {
        match self {
            Enumerator::Fba(fba) => fba.as_ref(),
            Enumerator::Comparison(engine) => engine.as_ref(),
        }
    }

    fn engine_mut(&mut self) -> &mut dyn PatternEngine {
        match self {
            Enumerator::Fba(fba) => fba.as_mut(),
            Enumerator::Comparison(engine) => engine.as_mut(),
        }
    }
}

impl IcpeEngine {
    /// Builds the engine from a configuration.
    pub fn new(config: IcpeConfig) -> Self {
        let clusterer: Box<dyn SnapshotClusterer + Send> = match config.clusterer {
            ClustererKind::Rjc => {
                Box::new(RjcClusterer::new(config.lg, config.dbscan, config.metric))
            }
            ClustererKind::Srj => {
                Box::new(SrjClusterer::new(config.lg, config.dbscan, config.metric))
            }
            ClustererKind::Gdc => Box::new(GdcClusterer::new(config.dbscan, config.metric)),
        };
        let engine_config = config.engine_config();
        let enumerator = match config.enumerator {
            EnumeratorKind::Fba => Enumerator::Fba(Box::new(FbaEngine::new(engine_config))),
            EnumeratorKind::Baseline => {
                Enumerator::Comparison(Box::new(BaselineEngine::new(engine_config)))
            }
            EnumeratorKind::Vba => Enumerator::Comparison(Box::new(VbaEngine::new(engine_config))),
        };
        IcpeEngine {
            clusterer,
            enumerator,
            timings: PhaseTimings::default(),
        }
    }

    /// Builds the engine with its FBA state restored from a checkpoint
    /// (the clustering phase is stateless across snapshots and starts
    /// fresh). Phase timings are wall-clock and restart at zero. A
    /// configuration enumerating with BA or VBA is refused: their state
    /// does not checkpoint.
    pub fn from_checkpoint(
        config: IcpeConfig,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let mut engine = IcpeEngine::new(config.clone());
        if !matches!(engine.enumerator, Enumerator::Fba(_)) {
            return Err(CheckpointError::Invalid(format!(
                "only FBA enumeration state restores; the configuration runs {}",
                engine.enumerator.engine().name()
            )));
        }
        let fba = FbaEngine::from_checkpoint(config.engine_config(), ckpt, |_| true)?;
        engine.enumerator = Enumerator::Fba(Box::new(fba));
        Ok(engine)
    }

    /// Captures the enumeration engine's streaming state in durable form;
    /// `None` unless it is FBA.
    pub fn checkpoint_enumerator(&self) -> Option<EngineCheckpoint> {
        match &self.enumerator {
            Enumerator::Fba(fba) => Some(fba.checkpoint()),
            Enumerator::Comparison(_) => None,
        }
    }

    /// Clusters one snapshot and feeds the result to the enumeration engine;
    /// returns any patterns that became reportable.
    pub fn push_snapshot(&mut self, snapshot: Snapshot) -> Vec<Pattern> {
        let t0 = std::time::Instant::now();
        let clusters = self.clusterer.cluster(&snapshot);
        let t1 = std::time::Instant::now();
        let patterns = self.enumerator.engine_mut().push(&clusters);
        let t2 = std::time::Instant::now();

        self.timings.clustering += t1 - t0;
        self.timings.enumeration += t2 - t1;
        self.timings.snapshots += 1;
        self.timings.clusters += clusters.clusters.len();
        self.timings.cluster_members += clusters
            .clusters
            .iter()
            .map(icpe_types::Cluster::len)
            .sum::<usize>();
        patterns
    }

    /// Feeds an externally clustered snapshot (skips the clustering phase).
    pub fn push_cluster_snapshot(&mut self, clusters: &ClusterSnapshot) -> Vec<Pattern> {
        let t1 = std::time::Instant::now();
        let patterns = self.enumerator.engine_mut().push(clusters);
        self.timings.enumeration += t1.elapsed();
        self.timings.snapshots += 1;
        patterns
    }

    /// Flushes the enumeration engine at end of stream.
    pub fn finish(&mut self) -> Vec<Pattern> {
        self.enumerator.engine_mut().finish()
    }

    /// The per-phase timings accumulated so far.
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Names of the configured methods, `(clusterer, enumerator)`.
    pub fn method_names(&self) -> (&'static str, &'static str) {
        (self.clusterer.name(), self.enumerator.engine().name())
    }

    /// Partitions the enumerator refused (Baseline blow-up guard; 0 for
    /// FBA/VBA). Non-zero means the pattern result is incomplete.
    pub fn overflowed_partitions(&self) -> usize {
        self.enumerator.engine().overflowed_partitions()
    }
}

/// Push-based façade over [`IcpeEngine`]: accepts raw, possibly
/// out-of-order GPS records and runs the §4 time-alignment inline, so a
/// single-threaded deployment consumes the same wire input as the
/// distributed pipeline. Patterns come back from each push as their
/// snapshots seal.
pub struct StreamingEngine {
    aligner: icpe_runtime::TimeAligner,
    engine: IcpeEngine,
    records_ingested: u64,
}

impl StreamingEngine {
    /// Builds the engine; `config.aligner` controls sealing behavior.
    pub fn new(config: IcpeConfig) -> Self {
        StreamingEngine {
            aligner: icpe_runtime::TimeAligner::new(config.aligner),
            engine: IcpeEngine::new(config),
            records_ingested: 0,
        }
    }

    /// Captures the engine's full streaming state — the single-threaded
    /// analogue of [`crate::LivePipeline::checkpoint`], sharing the same
    /// [`PipelineCheckpoint`] schema; `None` unless the enumerator is FBA.
    /// `seq` is caller-assigned.
    pub fn checkpoint(&self, seq: u64) -> Option<PipelineCheckpoint> {
        let engine = self.engine.checkpoint_enumerator()?;
        Some(PipelineCheckpoint {
            version: CHECKPOINT_VERSION,
            seq,
            records_ingested: self.records_ingested,
            // Single-threaded: no merge tree counts pairs.
            progress: ProgressCheckpoint {
                windows_sealed: self.engine.timings.snapshots as u64,
                pairs_merged: 0,
            },
            aligner: self.aligner.checkpoint(),
            engine,
            // No keyed exchange, nothing to route, and no stage registry.
            routing: None,
            obs: ObsCheckpoint::default(),
        })
    }

    /// Rebuilds a streaming engine from a checkpoint; feeding it the input
    /// stream from record `checkpoint.records_ingested` onward resumes the
    /// run as if it never stopped. Refused, like
    /// [`IcpeEngine::from_checkpoint`], unless the enumerator is FBA.
    pub fn from_checkpoint(
        config: IcpeConfig,
        ckpt: &PipelineCheckpoint,
    ) -> Result<Self, CheckpointError> {
        ckpt.check_version()?;
        ckpt.max_sealed()?;
        let aligner = icpe_runtime::TimeAligner::from_checkpoint(config.aligner, &ckpt.aligner);
        let mut engine = IcpeEngine::from_checkpoint(config, &ckpt.engine)?;
        engine.timings.snapshots = ckpt.progress.windows_sealed as usize;
        Ok(StreamingEngine {
            aligner,
            engine,
            records_ingested: ckpt.records_ingested,
        })
    }

    /// Ingests one record; processes any snapshots that became sealable and
    /// returns the patterns that became reportable.
    pub fn push(&mut self, record: icpe_types::GpsRecord) -> Vec<Pattern> {
        self.records_ingested += 1;
        let mut patterns = Vec::new();
        for snapshot in self.aligner.push(record) {
            patterns.extend(self.engine.push_snapshot(snapshot));
        }
        patterns
    }

    /// Ends the stream: seals everything buffered and flushes the
    /// enumeration engine.
    pub fn finish(&mut self) -> Vec<Pattern> {
        let mut patterns = Vec::new();
        for snapshot in self.aligner.flush() {
            patterns.extend(self.engine.push_snapshot(snapshot));
        }
        patterns.extend(self.engine.finish());
        patterns
    }

    /// Records dropped for arriving after their snapshot sealed.
    pub fn late_dropped(&self) -> u64 {
        self.aligner.late_dropped()
    }

    /// The wrapped synchronous engine (timings, method names).
    pub fn engine(&self) -> &IcpeEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnumeratorKind;
    use icpe_pattern::unique_object_sets;
    use icpe_types::{Constraints, ObjectId, Point, Timestamp};

    fn config(enumerator: EnumeratorKind) -> IcpeConfig {
        IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .enumerator(enumerator)
            .build()
            .unwrap()
    }

    /// Three objects walking together, two wandering far away.
    fn walking_snapshots(ticks: u32) -> Vec<Snapshot> {
        (0..ticks)
            .map(|t| {
                let base = t as f64 * 0.5;
                Snapshot::from_pairs(
                    Timestamp(t),
                    [
                        (ObjectId(1), Point::new(base, 0.0)),
                        (ObjectId(2), Point::new(base + 0.3, 0.3)),
                        (ObjectId(3), Point::new(base + 0.6, 0.0)),
                        (ObjectId(8), Point::new(100.0 + base, 50.0)),
                        (ObjectId(9), Point::new(-100.0, 50.0 - base)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn end_to_end_detects_the_walking_group() {
        for kind in [
            EnumeratorKind::Baseline,
            EnumeratorKind::Fba,
            EnumeratorKind::Vba,
        ] {
            let mut engine = IcpeEngine::new(config(kind));
            let mut patterns = Vec::new();
            for s in walking_snapshots(10) {
                patterns.extend(engine.push_snapshot(s));
            }
            patterns.extend(engine.finish());
            let sets = unique_object_sets(&patterns);
            assert!(
                sets.contains(&vec![ObjectId(1), ObjectId(2), ObjectId(3)]),
                "{kind:?}: {sets:?}"
            );
            // The far-away wanderers never cluster.
            assert!(sets
                .iter()
                .all(|s| !s.contains(&ObjectId(8)) && !s.contains(&ObjectId(9))));
        }
    }

    #[test]
    fn timings_accumulate() {
        let mut engine = IcpeEngine::new(config(EnumeratorKind::Fba));
        for s in walking_snapshots(6) {
            engine.push_snapshot(s);
        }
        let t = engine.timings();
        assert_eq!(t.snapshots, 6);
        assert!(t.avg_cluster_size() >= 3.0);
        assert!(t.clustering > Duration::ZERO);
    }

    #[test]
    fn all_clusterers_agree_end_to_end() {
        let mut results = Vec::new();
        for kind in [ClustererKind::Rjc, ClustererKind::Srj, ClustererKind::Gdc] {
            let cfg = IcpeConfig::builder()
                .constraints(Constraints::new(3, 4, 2, 2).unwrap())
                .epsilon(1.0)
                .min_pts(3)
                .clusterer(kind)
                .build()
                .unwrap();
            let mut engine = IcpeEngine::new(cfg);
            let mut patterns = Vec::new();
            for s in walking_snapshots(10) {
                patterns.extend(engine.push_snapshot(s));
            }
            patterns.extend(engine.finish());
            results.push(unique_object_sets(&patterns));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn method_names_are_exposed() {
        let engine = IcpeEngine::new(config(EnumeratorKind::Vba));
        assert_eq!(engine.method_names(), ("RJC", "VBA"));
    }

    #[test]
    fn streaming_engine_checkpoint_restore_is_equivalent() {
        // Reference: uninterrupted run.
        let mut records = Vec::new();
        for s in walking_snapshots(12) {
            let last = (s.time.0 > 0).then(|| Timestamp(s.time.0 - 1));
            for e in &s.entries {
                records.push(icpe_types::GpsRecord::new(e.id, e.location, s.time, last));
            }
        }
        let fba = config(EnumeratorKind::Fba);
        let mut full = StreamingEngine::new(fba.clone());
        let mut want = Vec::new();
        for r in &records {
            want.extend(full.push(*r));
        }
        want.extend(full.finish());

        // Interrupted run: checkpoint mid-stream, restore, continue.
        let mut first = StreamingEngine::new(fba.clone());
        let mut got = Vec::new();
        let cut = records.len() / 2;
        for r in &records[..cut] {
            got.extend(first.push(*r));
        }
        let ckpt = first.checkpoint(1).unwrap();
        assert_eq!(ckpt.records_ingested as usize, cut);
        drop(first); // crash

        // BA and VBA state does not checkpoint: a VBA engine refuses to
        // resume FBA's, with a typed error rather than a panic.
        let vba = StreamingEngine::from_checkpoint(config(EnumeratorKind::Vba), &ckpt);
        assert!(matches!(vba, Err(CheckpointError::Invalid(_))));

        let mut second = StreamingEngine::from_checkpoint(fba, &ckpt).unwrap();
        for r in &records[cut..] {
            got.extend(second.push(*r));
        }
        got.extend(second.finish());
        assert_eq!(unique_object_sets(&got), unique_object_sets(&want));
        assert_eq!(second.engine().timings().snapshots, 12);
    }

    #[test]
    fn streaming_engine_matches_snapshot_engine_under_disorder() {
        // Same workload via push_snapshot (ordered) and via raw records in
        // scrambled arrival order: the aligner must make them identical.
        let mut reference = IcpeEngine::new(config(EnumeratorKind::Fba));
        let mut want = Vec::new();
        for s in walking_snapshots(10) {
            want.extend(reference.push_snapshot(s));
        }
        want.extend(reference.finish());

        let mut records = Vec::new();
        for s in walking_snapshots(10) {
            let last = if s.time.0 == 0 {
                None
            } else {
                Some(Timestamp(s.time.0 - 1))
            };
            for e in &s.entries {
                records.push(icpe_types::GpsRecord::new(e.id, e.location, s.time, last));
            }
        }
        // Bounded scramble: disjoint swaps displacing records by exactly one
        // tick (5 records per tick), within the aligner's lateness allowance.
        let n = records.len();
        for i in (0..n.saturating_sub(5)).step_by(10) {
            records.swap(i, i + 5);
        }

        let mut streaming = StreamingEngine::new(config(EnumeratorKind::Fba));
        let mut got = Vec::new();
        for r in records {
            got.extend(streaming.push(r));
        }
        got.extend(streaming.finish());
        assert_eq!(streaming.late_dropped(), 0);
        assert_eq!(unique_object_sets(&got), unique_object_sets(&want));
        assert_eq!(streaming.engine().timings().snapshots, 10);
    }

    #[test]
    fn hostile_sealed_frontier_is_refused_by_both_restore_paths() {
        // `sealed_up_to: Some(0)` names no sealed window; deriving the last
        // one from it would underflow. Both restore paths refuse it.
        let fba = config(EnumeratorKind::Fba);
        let mut ckpt = StreamingEngine::new(fba.clone()).checkpoint(1).unwrap();
        ckpt.aligner.sealed_up_to = Some(0);
        assert!(matches!(
            StreamingEngine::from_checkpoint(fba.clone(), &ckpt),
            Err(CheckpointError::Invalid(_))
        ));
        assert!(matches!(
            crate::IcpePipeline::launch_from(&fba, &ckpt, |_| {}),
            Err(CheckpointError::Invalid(_))
        ));
    }
}
