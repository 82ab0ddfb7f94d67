//! GridQuery's per-cell kernel: the x-sorted sweep (`CellQueryEngine`,
//! reused across cells) against the paper's local R-tree (a fresh
//! incremental `RTree` per cell, probed query-then-insert), in ns per grid
//! object, across cell occupancies 2 / 8 / 40 / 400 / 4 000 at grid widths
//! 8 ε (the deployment's) and 64 ε (cells much wider than the ε-window).
//! Each cell holds its data objects spread over the cell plus one query
//! replica per four, in the ε-band below and left of it.
//!
//! Lines read `ns_per_object/lg<w>eps/occ<n>/<engine>`.

use criterion::{criterion_group, criterion_main, Criterion};
use icpe_cluster::query::{canonical, NeighborPair};
use icpe_cluster::{CellQueryEngine, GridObject};
use icpe_index::{GridKey, RTree};
use icpe_types::{DistanceMetric, ObjectId, Point, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const EPS: f64 = 1.0;
const METRIC: DistanceMetric = DistanceMetric::Chebyshev;
/// Grid objects per pass, spread over as many cells as the occupancy needs.
const OBJECTS_PER_PASS: usize = 40_000;

fn cells(occupancy: usize, lg: f64, seed: u64) -> Vec<Vec<GridObject>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u32;
    let t = Timestamp(0);
    (0..(OBJECTS_PER_PASS / occupancy).max(1))
        .map(|c| {
            let key = GridKey::new(c as i64, 0);
            let x0 = c as f64 * lg;
            (0..occupancy + occupancy / 4)
                .map(|i| {
                    let id = ObjectId(next_id);
                    next_id += 1;
                    if i < occupancy {
                        let at =
                            Point::new(x0 + rng.random_range(0.0..lg), rng.random_range(0.0..lg));
                        GridObject::data(key, id, at, t)
                    } else {
                        let at = Point::new(
                            x0 + rng.random_range(-EPS..lg),
                            rng.random_range(-EPS..0.0),
                        );
                        GridObject::query(key, id, at, t)
                    }
                })
                .collect()
        })
        .collect()
}

/// The live kernel: one engine for every cell.
fn sweep_pass(cells: &[Vec<GridObject>], pairs: &mut Vec<NeighborPair>) -> usize {
    let mut engine = CellQueryEngine::new(EPS, METRIC);
    pairs.clear();
    for cell in cells {
        engine.clear();
        engine.run_cell(cell, pairs);
    }
    pairs.len()
}

/// The paper's local index: a fresh R-tree per cell, data objects probing
/// then inserting, query objects probing the full tree.
fn rtree_pass(cells: &[Vec<GridObject>], pairs: &mut Vec<NeighborPair>) -> usize {
    let mut hits = Vec::new();
    pairs.clear();
    for cell in cells {
        let mut tree: RTree<ObjectId> = RTree::new();
        let data = cell.iter().filter(|o| !o.is_query);
        for o in data.chain(cell.iter().filter(|o| o.is_query)) {
            hits.clear();
            tree.query_payloads_within(&o.location, EPS, METRIC, &mut hits);
            pairs.extend(
                hits.iter()
                    .filter(|&&h| h != o.id)
                    .map(|&h| canonical(o.id, h)),
            );
            if !o.is_query {
                tree.insert(o.location, o.id);
            }
        }
    }
    pairs.len()
}

/// One pass over every cell, returning the pairs found.
type Pass = fn(&[Vec<GridObject>], &mut Vec<NeighborPair>) -> usize;

/// Median ns per grid object over `samples` passes.
fn report(name: &str, cells: &[Vec<GridObject>], samples: usize, pass: Pass) -> usize {
    let objects: usize = cells.iter().map(Vec::len).sum();
    let mut pairs = Vec::new();
    let found = pass(cells, &mut pairs);
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            assert_eq!(black_box(pass(cells, &mut pairs)), found);
            started.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    println!(
        "{name:<40} {:>9.1} ns/object ({objects} objects, {found} pairs; median of {samples})",
        median.as_nanos() as f64 / objects as f64,
    );
    found
}

fn bench_ns_per_object(_: &mut Criterion) {
    for lg_eps in [8u32, 64] {
        let lg = f64::from(lg_eps) * EPS;
        for occupancy in [2usize, 8, 40, 400, 4_000] {
            let cells = cells(occupancy, lg, u64::from(lg_eps) << 32 | occupancy as u64);
            let samples = if occupancy >= 4_000 { 5 } else { 11 };
            let id = |engine: &str| format!("ns_per_object/lg{lg_eps}eps/occ{occupancy}/{engine}");
            let sweep = report(&id("sweep"), &cells, samples, sweep_pass);
            let rtree = report(&id("rtree"), &cells, samples, rtree_pass);
            assert_eq!(sweep, rtree, "both engines find every pair once");
        }
    }
}

criterion_group!(benches, bench_ns_per_object);
criterion_main!(benches);
