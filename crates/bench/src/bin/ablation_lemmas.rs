//! Ablation — what each pruning lemma of §5.2 is worth.
//!
//! Four range-join configurations over the same snapshots:
//!
//! * `L1+L2` — upper-half replication (Lemma 1) and query-during-build
//!   (Lemma 2): the paper's RJC;
//! * `L1 only` — upper-half replication, but build-then-query;
//! * `L2 only` — full-region replication, query-during-build;
//! * `none` — full replication, build-then-query: the SRJ baseline.
//!
//! All four compute the same join (asserted); the table shows the work each
//! lemma removes, including the duplicate discoveries a `PairCollector`
//! suppresses. Lemma 1's key set keeps only cells after home in row-major
//! order, so `L1+L2` finds every pair exactly once and its dups column
//! reads 0. The other rows still find pairs twice: full replication from
//! both cells of a cross-cell pair, build-then-query from both ends of a
//! same-cell pair. Lemma 1's saving also shows in the replicas column.

use icpe_bench::{build_traces, extent, BenchParams, Dataset};
use icpe_cluster::allocate::{grid_allocate, grid_allocate_full};
use icpe_cluster::query::{canonical, NeighborPair};
use icpe_cluster::sync::PairCollector;
use icpe_cluster::CellQueryEngine;
use icpe_index::{Grid, GridKey, RTree};
use icpe_types::{DistanceMetric, ObjectId, Point, Snapshot};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let params = BenchParams::default();
    params.print_header("Ablation — Lemma 1 (replication) and Lemma 2 (query-during-build)");

    let traces = build_traces(Dataset::Taxi, &params);
    let snapshots = traces.to_snapshots();
    let ext = extent(&traces);
    let eps = params.eps_default * ext;
    let grid = Grid::new(params.lg_default * ext);
    let metric = DistanceMetric::Chebyshev;

    println!(
        "\n{:<10} {:>12} {:>12} {:>14} {:>12}",
        "config", "avg ms", "tps", "replicas/snap", "dups/snap"
    );
    let mut reference: Option<usize> = None;
    for (name, lemma1, lemma2) in [
        ("L1+L2", true, true),
        ("L1 only", true, false),
        ("L2 only", false, true),
        ("none", false, false),
    ] {
        let started = Instant::now();
        let mut pairs_total = 0usize;
        let mut replicas = 0usize;
        let mut dups = 0usize;
        for s in &snapshots {
            let (pairs, stats) = join(s, &grid, eps, metric, lemma1, lemma2);
            pairs_total += pairs.len();
            replicas += stats.0;
            dups += stats.1;
        }
        let total = started.elapsed();
        let n = snapshots.len().max(1);
        match reference {
            None => reference = Some(pairs_total),
            Some(r) => assert_eq!(r, pairs_total, "{name} computed a different join!"),
        }
        println!(
            "{:<10} {:>12.3} {:>12.0} {:>14.1} {:>12.1}",
            name,
            total.as_secs_f64() * 1e3 / n as f64,
            n as f64 / total.as_secs_f64().max(1e-12),
            replicas as f64 / n as f64,
            dups as f64 / n as f64,
        );
    }
    println!(
        "\nall four configurations produced the identical {} join pairs ✓",
        reference.unwrap_or(0)
    );
}

/// Runs one configurable range join; returns the pairs and
/// `(grid objects emitted, duplicate discoveries suppressed)`.
fn join(
    snapshot: &Snapshot,
    grid: &Grid,
    eps: f64,
    metric: DistanceMetric,
    lemma1: bool,
    lemma2: bool,
) -> (Vec<NeighborPair>, (usize, usize)) {
    let objects = if lemma1 {
        grid_allocate(snapshot, grid, eps)
    } else {
        grid_allocate_full(snapshot, grid, eps)
    };
    let replicas = objects.len();
    let mut cells: HashMap<GridKey, Vec<&icpe_cluster::GridObject>> = HashMap::new();
    for o in &objects {
        cells.entry(o.key).or_default().push(o);
    }
    let mut collector = PairCollector::new();
    let mut scratch: Vec<NeighborPair> = Vec::new();
    for (_, cell) in cells {
        scratch.clear();
        if lemma2 {
            let mut engine = CellQueryEngine::new(eps, metric);
            for o in cell.iter().filter(|o| !o.is_query) {
                engine.push_data(o.id, o.location, &mut scratch);
            }
            for o in cell.iter().filter(|o| o.is_query) {
                engine.push_query(o.id, o.location, &mut scratch);
            }
        } else {
            let mut items: Vec<(Point, ObjectId)> = cell
                .iter()
                .filter(|o| !o.is_query)
                .map(|o| (o.location, o.id))
                .collect();
            let tree = RTree::bulk_load_with_max_entries(16, &mut items);
            let mut hits = Vec::new();
            for o in &cell {
                hits.clear();
                tree.query_within(&o.location, eps, metric, &mut hits);
                for (_, &other) in &hits {
                    if other != o.id {
                        scratch.push(canonical(o.id, other));
                    }
                }
            }
        }
        collector.extend(scratch.drain(..));
    }
    let dups = collector.duplicates();
    (collector.into_pairs(), (replicas, dups))
}
