//! Measurement helpers shared by the harness binaries.
//!
//! The paper reports two metrics (§7 "Performance Metrics"): the **average
//! latency** per snapshot and the **throughput** in snapshots per second.
//! Clustering rows measure the clustering phase alone (Figures 10–11);
//! detection rows measure the full two-phase flow with the per-phase split
//! shown as stacked bars in Figures 12–13.

use icpe_cluster::SnapshotClusterer;
use icpe_core::IcpeEngine;
use icpe_pattern::PatternEngine;
use icpe_types::Snapshot;
use std::time::Instant;

/// One measured point of a clustering experiment.
#[derive(Debug, Clone, Copy)]
pub struct ClusteringRow {
    /// Mean per-snapshot latency in milliseconds.
    pub avg_latency_ms: f64,
    /// Snapshots processed per second.
    pub throughput_tps: f64,
    /// Mean cluster size over the run.
    pub avg_cluster_size: f64,
}

/// Runs a clusterer over a snapshot stream and measures it.
pub fn measure_clustering(
    clusterer: &(dyn SnapshotClusterer + Send),
    snapshots: &[Snapshot],
) -> ClusteringRow {
    let started = Instant::now();
    let mut members = 0usize;
    let mut clusters = 0usize;
    for s in snapshots {
        let cs = clusterer.cluster(s);
        clusters += cs.clusters.len();
        members += cs.clusters.iter().map(|c| c.len()).sum::<usize>();
    }
    let total = started.elapsed();
    let n = snapshots.len().max(1);
    ClusteringRow {
        avg_latency_ms: total.as_secs_f64() * 1e3 / n as f64,
        throughput_tps: n as f64 / total.as_secs_f64().max(1e-12),
        avg_cluster_size: if clusters == 0 {
            0.0
        } else {
            members as f64 / clusters as f64
        },
    }
}

/// One measured point of a full-detection experiment.
#[derive(Debug, Clone, Copy)]
pub struct DetectionRow {
    /// Mean clustering latency per snapshot (ms) — the lower bar segment.
    pub clustering_ms: f64,
    /// Mean enumeration latency per snapshot (ms) — the upper bar segment.
    pub enumeration_ms: f64,
    /// Snapshots per second over the whole run.
    pub throughput_tps: f64,
    /// Mean cluster size (the line series of Figures 12–13).
    pub avg_cluster_size: f64,
    /// Patterns reported (windows × sets; not deduplicated).
    pub patterns: usize,
    /// Partitions the engine refused (Baseline guard; 0 for FBA/VBA).
    /// Non-zero = the paper's "B cannot run" regime.
    pub overflowed: usize,
}

impl DetectionRow {
    /// Total mean latency (both phases).
    pub fn total_ms(&self) -> f64 {
        self.clustering_ms + self.enumeration_ms
    }
}

/// Runs a two-phase engine over a snapshot stream and measures it.
pub fn measure_detection<C: SnapshotClusterer, E: PatternEngine>(
    mut engine: IcpeEngine<C, E>,
    snapshots: &[Snapshot],
) -> DetectionRow {
    let started = Instant::now();
    let mut patterns = 0usize;
    for s in snapshots {
        patterns += engine.push_snapshot(s.clone()).len();
    }
    patterns += engine.finish().len();
    let total = started.elapsed();
    let t = engine.timings();
    let n = snapshots.len().max(1);
    DetectionRow {
        clustering_ms: t.avg_clustering().as_secs_f64() * 1e3,
        enumeration_ms: t.avg_enumeration().as_secs_f64() * 1e3,
        throughput_tps: n as f64 / total.as_secs_f64().max(1e-12),
        avg_cluster_size: t.avg_cluster_size(),
        patterns,
        overflowed: engine.overflowed_partitions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_cluster::RjcClusterer;
    use icpe_core::IcpeConfig;
    use icpe_types::{Constraints, DbscanParams, DistanceMetric, ObjectId, Point, Timestamp};

    fn snapshots() -> Vec<Snapshot> {
        // Four well-separated groups of five (one cluster each; keeping
        // clusters small bounds the pattern count, which is exponential in
        // cluster size by problem definition).
        (0..10)
            .map(|t| {
                Snapshot::from_pairs(
                    Timestamp(t),
                    (0..20).map(|i| {
                        (
                            ObjectId(i),
                            Point::new((i % 5) as f64 * 0.3 + (i / 5) as f64 * 100.0, t as f64),
                        )
                    }),
                )
            })
            .collect()
    }

    #[test]
    fn clustering_measurement_is_sane() {
        let rjc = RjcClusterer::new(
            4.0,
            DbscanParams::new(1.0, 3).unwrap(),
            DistanceMetric::Chebyshev,
        );
        let row = measure_clustering(&rjc, &snapshots());
        assert!(row.avg_latency_ms > 0.0);
        assert!(row.throughput_tps > 0.0);
        assert!(row.avg_cluster_size > 0.0);
    }

    #[test]
    fn detection_measurement_is_sane() {
        let config = IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .build()
            .unwrap();
        let row = measure_detection(IcpeEngine::new(config), &snapshots());
        assert!(row.total_ms() > 0.0);
        assert!(row.throughput_tps > 0.0);
        assert!(row.patterns > 0);
    }
}
