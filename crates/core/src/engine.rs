//! The deterministic, in-process ICPE engine.

use crate::config::IcpeConfig;
use icpe_cluster::{RjcClusterer, SnapshotClusterer};
use icpe_pattern::{FbaEngine, PatternEngine};
use icpe_types::{
    CheckpointError, EngineCheckpoint, ObsCheckpoint, Pattern, PipelineCheckpoint,
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
/// `icpe_gen::TraceSet::to_snapshots`-style input or the runtime's aligner
/// output both satisfy this.
///
/// [`IcpeEngine::new`] builds the deployment's pair — RJC clustering, FBA
/// enumeration — the one whose state checkpoints. [`IcpeEngine::with_parts`]
/// builds any other pair, which is how the figure harnesses and the tests
/// run the paper's §7 comparison baselines (SRJ, GDC; BA, VBA).
pub struct IcpeEngine<C = RjcClusterer, E = FbaEngine> {
    clusterer: C,
    enumerator: E,
    timings: PhaseTimings,
}

impl IcpeEngine {
    /// Builds the deployment's engine (RJC + FBA) from a configuration.
    pub fn new(config: IcpeConfig) -> Self {
        IcpeEngine::with_parts(
            RjcClusterer::new(config.lg, config.dbscan, config.metric),
            FbaEngine::new(config.engine_config()),
        )
    }

    /// Builds the engine with its FBA state restored from a checkpoint
    /// (the clustering phase is stateless across snapshots and starts
    /// fresh). Phase timings are wall-clock and restart at zero.
    pub fn from_checkpoint(
        config: IcpeConfig,
        ckpt: &EngineCheckpoint,
    ) -> Result<Self, CheckpointError> {
        let fba = FbaEngine::from_checkpoint(config.engine_config(), ckpt, |_| true)?;
        Ok(IcpeEngine::with_parts(
            RjcClusterer::new(config.lg, config.dbscan, config.metric),
            fba,
        ))
    }

    /// Captures the enumeration engine's streaming state in durable form.
    pub fn checkpoint_enumerator(&self) -> EngineCheckpoint {
        self.enumerator.checkpoint()
    }
}

impl<C: SnapshotClusterer, E: PatternEngine> IcpeEngine<C, E> {
    /// Builds the engine from a clusterer and an enumeration engine.
    pub fn with_parts(clusterer: C, enumerator: E) -> Self {
        IcpeEngine {
            clusterer,
            enumerator,
            timings: PhaseTimings::default(),
        }
    }

    /// Clusters one snapshot and feeds the result to the enumeration engine;
    /// returns any patterns that became reportable.
    pub fn push_snapshot(&mut self, snapshot: Snapshot) -> Vec<Pattern> {
        let t0 = std::time::Instant::now();
        let clusters = self.clusterer.cluster(&snapshot);
        let t1 = std::time::Instant::now();
        let patterns = self.enumerator.push(&clusters);
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

    /// Flushes the enumeration engine at end of stream.
    pub fn finish(&mut self) -> Vec<Pattern> {
        self.enumerator.finish()
    }

    /// The per-phase timings accumulated so far.
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Partitions the enumerator refused (Baseline blow-up guard; 0 for
    /// FBA/VBA). Non-zero means the pattern result is incomplete.
    pub fn overflowed_partitions(&self) -> usize {
        self.enumerator.overflowed_partitions()
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
    /// [`PipelineCheckpoint`] schema. `seq` is caller-assigned.
    pub fn checkpoint(&self, seq: u64) -> PipelineCheckpoint {
        PipelineCheckpoint {
            version: CHECKPOINT_VERSION,
            seq,
            records_ingested: self.records_ingested,
            // Single-threaded: no merge tree counts pairs.
            progress: ProgressCheckpoint {
                windows_sealed: self.engine.timings.snapshots as u64,
                pairs_merged: 0,
            },
            aligner: self.aligner.checkpoint(),
            engine: self.engine.checkpoint_enumerator(),
            // No keyed exchange, nothing to route, and no stage registry.
            routing: None,
            obs: ObsCheckpoint::default(),
        }
    }

    /// Rebuilds a streaming engine from a checkpoint; feeding it the input
    /// stream from record `checkpoint.records_ingested` onward resumes the
    /// run as if it never stopped.
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

    /// The wrapped synchronous engine (timings).
    pub fn engine(&self) -> &IcpeEngine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_cluster::{GdcClusterer, SrjClusterer};
    use icpe_pattern::{unique_object_sets, BaselineEngine, VbaEngine};
    use icpe_types::{Constraints, ObjectId, Point, Timestamp};

    fn config() -> IcpeConfig {
        IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .build()
            .unwrap()
    }

    fn rjc(cfg: &IcpeConfig) -> RjcClusterer {
        RjcClusterer::new(cfg.lg, cfg.dbscan, cfg.metric)
    }

    /// The object sets an engine finds on `walking_snapshots(ticks)`.
    fn walking_sets<C: SnapshotClusterer, E: PatternEngine>(
        mut engine: IcpeEngine<C, E>,
        ticks: u32,
    ) -> Vec<Vec<ObjectId>> {
        let mut patterns = Vec::new();
        for s in walking_snapshots(ticks) {
            patterns.extend(engine.push_snapshot(s));
        }
        patterns.extend(engine.finish());
        unique_object_sets(&patterns)
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
        let cfg = config();
        let ba = IcpeEngine::with_parts(rjc(&cfg), BaselineEngine::new(cfg.engine_config()));
        let vba = IcpeEngine::with_parts(rjc(&cfg), VbaEngine::new(cfg.engine_config()));
        let runs = [
            ("BA", walking_sets(ba, 10)),
            ("FBA", walking_sets(IcpeEngine::new(cfg.clone()), 10)),
            ("VBA", walking_sets(vba, 10)),
        ];
        for (name, sets) in runs {
            assert!(
                sets.contains(&vec![ObjectId(1), ObjectId(2), ObjectId(3)]),
                "{name}: {sets:?}"
            );
            // The far-away wanderers never cluster.
            assert!(sets
                .iter()
                .all(|s| !s.contains(&ObjectId(8)) && !s.contains(&ObjectId(9))));
        }
    }

    #[test]
    fn timings_accumulate() {
        let mut engine = IcpeEngine::new(config());
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
        let cfg = config();
        let fba = || FbaEngine::new(cfg.engine_config());
        let rjc = walking_sets(IcpeEngine::with_parts(rjc(&cfg), fba()), 10);
        let srj = SrjClusterer::new(cfg.lg, cfg.dbscan, cfg.metric);
        let gdc = GdcClusterer::new(cfg.dbscan, cfg.metric);
        assert_eq!(rjc, walking_sets(IcpeEngine::with_parts(srj, fba()), 10));
        assert_eq!(rjc, walking_sets(IcpeEngine::with_parts(gdc, fba()), 10));
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
        let fba = config();
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
        let ckpt = first.checkpoint(1);
        assert_eq!(ckpt.records_ingested as usize, cut);
        drop(first); // crash

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
        let mut reference = IcpeEngine::new(config());
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

        let mut streaming = StreamingEngine::new(config());
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
        let fba = config();
        let mut ckpt = StreamingEngine::new(fba.clone()).checkpoint(1);
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
