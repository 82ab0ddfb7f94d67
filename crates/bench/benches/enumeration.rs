//! Enumeration-engine comparison: BA vs. FBA vs. VBA on a planted cluster
//! stream — the exponential-to-linear claim of §6, measured — and what one
//! pattern costs each engine on the two pattern-producing shapes of the
//! repo benchmark (`ns_per_pattern/*`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use icpe_bench::pattern_workload;
use icpe_cluster::{RjcClusterer, SnapshotClusterer};
use icpe_pattern::partition::Partition;
use icpe_pattern::{
    id_partitions, BaselineEngine, EngineConfig, FbaEngine, PatternEngine, VbaEngine,
};
use icpe_types::{
    ClusterSnapshot, Constraints, DbscanParams, DistanceMetric, ObjectId, PatternBatch, Timestamp,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn cluster_stream(objects: usize, ticks: u32) -> Vec<ClusterSnapshot> {
    let (_, traces) = pattern_workload(objects, ticks, 0xBE);
    let clusterer = RjcClusterer::new(
        16.0,
        DbscanParams::new(2.0, 4).unwrap(),
        DistanceMetric::Chebyshev,
    );
    traces
        .to_snapshots()
        .iter()
        .map(|s| clusterer.cluster(s))
        .collect()
}

fn run(engine: &mut dyn PatternEngine, stream: &[ClusterSnapshot]) -> usize {
    let mut n = 0;
    for cs in stream {
        n += engine.push(cs).len();
    }
    n + engine.finish().len()
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumeration");
    group.sample_size(10);
    let constraints = Constraints::new(3, 10, 4, 2).unwrap();
    let config = EngineConfig::new(constraints);

    for objects in [60usize, 120] {
        let stream = cluster_stream(objects, 60);
        group.bench_with_input(BenchmarkId::new("BA", objects), &stream, |b, s| {
            b.iter(|| black_box(run(&mut BaselineEngine::new(config), s)))
        });
        group.bench_with_input(BenchmarkId::new("FBA", objects), &stream, |b, s| {
            b.iter(|| black_box(run(&mut FbaEngine::new(config), s)))
        });
        group.bench_with_input(BenchmarkId::new("VBA", objects), &stream, |b, s| {
            b.iter(|| black_box(run(&mut VbaEngine::new(config), s)))
        });
    }
    group.finish();
}

/// A convoy shape of the repo benchmark, as per-tick partitions: `groups`
/// convoys of `size`, each together for `active` ticks then apart for 3,
/// staggered convoy by convoy.
struct Shape {
    name: &'static str,
    groups: u32,
    size: u32,
    active: u32,
    constraints: (usize, usize, usize, u32),
}

const SHAPES: [Shape; 2] = [
    // Subset count dominates: ~1 800 patterns per tick from 80 objects.
    Shape {
        name: "pattern_heavy",
        groups: 10,
        size: 8,
        active: 40,
        constraints: (3, 6, 2, 2),
    },
    // Per-window set-up dominates: 22 patterns per convoy-tick at best,
    // episodes barely longer than a window (η = 12).
    Shape {
        name: "convoy_mix",
        groups: 111,
        size: 6,
        active: 12,
        constraints: (4, 8, 4, 2),
    },
];

const TICKS: u32 = 200;

impl Shape {
    fn config(&self) -> EngineConfig {
        let (m, k, l, g) = self.constraints;
        EngineConfig::new(Constraints::new(m, k, l, g).unwrap())
    }

    fn stream(&self) -> Vec<Vec<Partition>> {
        let m = self.constraints.0;
        (0..TICKS)
            .map(|t| {
                let together =
                    (0..self.groups).filter(|g| (t + 4 * g) % (self.active + 3) < self.active);
                let clusters = together.map(|g| {
                    (self.size * g..self.size * (g + 1))
                        .map(ObjectId)
                        .collect::<Vec<_>>()
                });
                id_partitions(&ClusterSnapshot::from_groups(Timestamp(t), clusters), m)
            })
            .collect()
    }
}

/// Times `pass` (which returns how many patterns it produced) ten times
/// after a warm-up and prints the median per pattern. `pass` gets a fresh
/// copy of the stream each time, cloned off the clock.
fn report(
    name: &str,
    stream: &[Vec<Partition>],
    mut pass: impl FnMut(Vec<Vec<Partition>>) -> usize,
) {
    let patterns = pass(stream.to_vec());
    let mut samples: Vec<Duration> = (0..10)
        .map(|_| {
            let input = stream.to_vec();
            let started = Instant::now();
            assert_eq!(black_box(pass(input)), patterns);
            started.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!(
        "{name:<40} {:>8.1} ns/pattern ({patterns} patterns, {:.2} ms per pass; median of 10)",
        median.as_nanos() as f64 / patterns.max(1) as f64,
        median.as_secs_f64() * 1e3,
    );
}

/// The live path: `push_partitions_into` a reused batch (native for FBA,
/// the provided wrapper for BA and VBA).
fn flat_pass(engine: &mut dyn PatternEngine, stream: Vec<Vec<Partition>>) -> usize {
    let mut batch = PatternBatch::new();
    let mut patterns = 0;
    for (t, mut partitions) in stream.into_iter().enumerate() {
        batch.clear();
        engine.push_partitions_into(Timestamp(t as u32), &mut partitions, &mut batch);
        patterns += batch.len();
    }
    batch.clear();
    engine.finish_into(&mut batch);
    patterns + batch.len()
}

fn bench_ns_per_pattern(_: &mut Criterion) {
    for shape in &SHAPES {
        let (config, stream) = (shape.config(), shape.stream());
        let id = |engine: &str| format!("ns_per_pattern/{}/{engine}", shape.name);
        report(&id("BA"), &stream, |s| {
            flat_pass(&mut BaselineEngine::new(config), s)
        });
        report(&id("FBA"), &stream, |s| {
            flat_pass(&mut FbaEngine::new(config), s)
        });
        report(&id("VBA"), &stream, |s| {
            flat_pass(&mut VbaEngine::new(config), s)
        });
        // The `Vec<Pattern>` view of the same kernel: two allocations per
        // pattern on top.
        report(&id("FBA_as_vec"), &stream, |s| {
            let mut engine = FbaEngine::new(config);
            let mut patterns = 0;
            for (t, partitions) in s.into_iter().enumerate() {
                patterns +=
                    black_box(engine.push_partitions(Timestamp(t as u32), partitions)).len();
            }
            patterns + engine.finish().len()
        });
    }
}

criterion_group!(benches, bench_engines, bench_ns_per_pattern);
criterion_main!(benches);
