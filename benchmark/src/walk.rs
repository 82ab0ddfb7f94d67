//! The layer walk: a serial replica of the job assembled from the layers'
//! public functions, timed call by call from the outside. One trace per
//! snapshot (trace id = snapshot time), each layer's span a child of
//! `walk.snapshot`. The replica must find the oracle's patterns, or it is
//! not measuring the job.

use crate::oracle::{Fingerprint, Oracle};
use crate::serve::WireStream;
use crate::trace::{Recorder, Span};
use crate::workload::{Workload, ALIGN_SHARDS};
use icpe_cluster::{dbscan_from_pairs, grid_allocate, CellQueryEngine, GridObject, PairCollector};
use icpe_index::{Grid, GridKey, RTree};
use icpe_pattern::{id_partitions, EngineConfig, FbaEngine, PatternEngine};
use icpe_runtime::{ShardedAligner, TimeAligner};
use icpe_serve::hub::Hub;
use icpe_serve::protocol::EventKind;
use icpe_serve::{PatternEvent, SnapshotEvent, Topic, WireRecord};
use icpe_types::{Discretizer, GpsRecord, ObjectId, Pattern, RawRecord, Snapshot};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const ROOT: &str = "walk.snapshot";
/// The layers whose busy time the walk adds up, in job order.
pub const LAYERS: [&str; 7] = [
    "runtime.aligner",
    "cluster.allocate",
    "cluster.query",
    "cluster.sync",
    "cluster.dbscan",
    "pattern.partition",
    "pattern.enumerate",
];
/// Every this-many-th snapshot has its cells replayed into a bare `RTree`.
const RTREE_REPLAY_EVERY: u32 = 8;
/// Records, and events, the edge-codec loops are timed over.
const CODEC_SAMPLE: usize = 100_000;

/// What the walk measured: the layer metrics by name and the spans.
pub struct Walk {
    pub metrics: Vec<(&'static str, f64)>,
    pub recorder: Recorder,
    /// Whether the replica found exactly the oracle's patterns and late
    /// drops.
    pub faithful: bool,
}

impl Walk {
    /// A measured metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// A layer's share of the walk's total layer busy time.
    pub fn share(&self, layer: &str) -> f64 {
        let total: f64 = LAYERS.iter().map(|l| self.recorder.busy_s(l)).sum();
        self.recorder.busy_s(layer) / total.max(1e-12)
    }
}

/// Counts per value, for exact percentiles of small integers.
struct Histogram(Vec<u64>);

impl Histogram {
    fn add(&mut self, value: usize) {
        if value >= self.0.len() {
            self.0.resize(value + 1, 0);
        }
        self.0[value] += 1;
    }

    fn percentile(&self, q: f64) -> f64 {
        let total: u64 = self.0.iter().sum();
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (value, &count) in self.0.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return value as f64;
            }
        }
        0.0
    }
}

#[derive(Default)]
struct Counts {
    objects: u64,
    grid_objects: u64,
    cells: u64,
    pairs_out: u64,
    duplicates: u64,
    clusters: u64,
    cluster_members: u64,
    partitions: u64,
    patterns: u64,
    build_ns: u64,
    build_points: u64,
    probe_ns: u64,
    probes: u64,
    hits: u64,
}

/// One snapshot through cluster and pattern layers, span by span.
struct SnapshotWalker {
    grid: Grid,
    eps: f64,
    metric: icpe_types::DistanceMetric,
    dbscan: icpe_types::DbscanParams,
    m: usize,
    engine: FbaEngine,
    counts: Counts,
    occupancy: Histogram,
    found: Fingerprint,
    /// The first patterns found, kept for the event-codec timing.
    sample: Vec<Pattern>,
}

impl SnapshotWalker {
    fn walk(&mut self, snapshot: Snapshot, rec: &mut Recorder) {
        let t = snapshot.time.0;
        let start_ns = rec.now_ns();
        let parent = Some(ROOT);
        self.counts.objects += snapshot.len() as u64;

        let (objects, _) = rec.time("cluster.allocate", t, parent, || {
            grid_allocate(&snapshot, &self.grid, self.eps)
        });
        self.counts.grid_objects += objects.len() as u64;

        // The keyed exchange of the deployment: group by cell, then one
        // Lemma-2 engine per cell.
        let (eps, metric) = (self.eps, self.metric);
        let ((cells, raw_pairs), _) = rec.time("cluster.query", t, parent, || {
            let mut cells: HashMap<GridKey, Vec<GridObject>> = HashMap::new();
            for o in &objects {
                cells.entry(o.key).or_default().push(*o);
            }
            let mut pairs = Vec::new();
            for cell in cells.values() {
                CellQueryEngine::new(eps, metric).run_cell(cell, &mut pairs);
            }
            (cells, pairs)
        });
        self.counts.cells += cells.len() as u64;
        self.counts.pairs_out += raw_pairs.len() as u64;
        for cell in cells.values() {
            self.occupancy.add(cell.len());
        }
        if t.is_multiple_of(RTREE_REPLAY_EVERY) {
            self.replay_rtree(&cells);
        }

        let pairs_in = raw_pairs.len();
        let (pairs, _) = rec.time("cluster.sync", t, parent, || {
            let mut collector = PairCollector::new();
            collector.extend(raw_pairs);
            collector.into_pairs()
        });
        self.counts.duplicates += (pairs_in - pairs.len()) as u64;

        let ids: Vec<ObjectId> = snapshot.entries.iter().map(|e| e.id).collect();
        let (outcome, _) = rec.time("cluster.dbscan", t, parent, || {
            dbscan_from_pairs(snapshot.time, &ids, &pairs, &self.dbscan)
        });
        self.counts.clusters += outcome.snapshot.clusters.len() as u64;
        self.counts.cluster_members += outcome
            .snapshot
            .clusters
            .iter()
            .map(|c| c.len() as u64)
            .sum::<u64>();

        let (partitions, _) = rec.time("pattern.partition", t, parent, || {
            id_partitions(&outcome.snapshot, self.m)
        });
        self.counts.partitions += partitions.len() as u64;

        let (patterns, _) = rec.time("pattern.enumerate", t, parent, || {
            self.engine.push_partitions(snapshot.time, partitions)
        });
        self.take(patterns);

        rec.push(Span {
            name: ROOT,
            trace: t,
            parent: None,
            start_ns,
            end_ns: rec.now_ns(),
        });
    }

    fn take(&mut self, patterns: Vec<Pattern>) {
        self.counts.patterns += patterns.len() as u64;
        for p in patterns {
            self.found.add_pattern(&p);
            if self.sample.len() < CODEC_SAMPLE {
                self.sample.push(p);
            }
        }
    }

    /// Replays each cell's points into a bare `RTree`: insert every data
    /// point, then probe with every object of the cell.
    fn replay_rtree(&mut self, cells: &HashMap<GridKey, Vec<GridObject>>) {
        let mut hits: Vec<ObjectId> = Vec::new();
        for cell in cells.values() {
            let started = Instant::now();
            let mut tree: RTree<ObjectId> = RTree::new();
            let mut points = 0;
            for o in cell.iter().filter(|o| !o.is_query) {
                tree.insert(o.location, o.id);
                points += 1;
            }
            let built = Instant::now();
            for o in cell {
                hits.clear();
                tree.query_payloads_within(&o.location, self.eps, self.metric, &mut hits);
                self.counts.hits += hits.len() as u64;
            }
            self.counts.probe_ns += built.elapsed().as_nanos() as u64;
            self.counts.build_ns += (built - started).as_nanos() as u64;
            self.counts.build_points += points;
            self.counts.probes += cell.len() as u64;
        }
    }
}

/// `total / n`, 0 when there was nothing to divide among.
fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Walks the whole record stream.
pub fn layer_walk(workload: &Workload, records: &[GpsRecord], oracle: &Oracle) -> Walk {
    let config = workload.serial_config();
    let mut rec = Recorder::new();
    let mut aligner = TimeAligner::new(config.aligner);
    let mut walker = SnapshotWalker {
        grid: Grid::new(config.lg),
        eps: config.dbscan.eps,
        metric: config.metric,
        dbscan: config.dbscan,
        m: config.constraints.m(),
        engine: FbaEngine::new(EngineConfig::new(config.constraints)),
        counts: Counts::default(),
        occupancy: Histogram(Vec::new()),
        found: Fingerprint::default(),
        sample: Vec::new(),
    };

    // The aligner is timed per ingest batch (a span per record would cost
    // more than the push it times); the batch's span joins the trace of
    // the next snapshot to seal.
    let mut sealed: Vec<Snapshot> = Vec::new();
    let mut pending_max = 0usize;
    let mut next_trace = oracle.first_time;
    for chunk in records.chunks(config.runtime.batch_size.max(1)) {
        rec.time("runtime.aligner", next_trace, Some(ROOT), || {
            for r in chunk {
                aligner.push_into(*r, &mut sealed);
            }
        });
        pending_max = pending_max.max(aligner.pending() + sealed.len());
        for snapshot in sealed.drain(..) {
            next_trace = snapshot.time.0 + 1;
            walker.walk(snapshot, &mut rec);
        }
    }
    let (flushed, _) = rec.time("runtime.aligner", next_trace, Some(ROOT), || {
        aligner.flush()
    });
    for snapshot in flushed {
        walker.walk(snapshot, &mut rec);
    }
    let (last, _) = rec.time("pattern.enumerate", next_trace, Some(ROOT), || {
        walker.engine.finish()
    });
    walker.take(last);

    let faithful = walker.found == oracle.patterns && aligner.late_dropped() == oracle.late_dropped;
    let c = &walker.counts;
    let busy = |layer: &str| rec.busy_s(layer);
    let layer_busy: f64 = LAYERS.iter().map(|l| busy(l)).sum();
    let n = records.len() as u64;
    let mut metrics = vec![
        (
            "runtime.aligner.ns_per_rec",
            per(busy("runtime.aligner") * 1e9, n),
        ),
        ("runtime.aligner.pending_max", pending_max as f64),
        (
            "runtime.aligner.late_dropped",
            aligner.late_dropped() as f64,
        ),
        ("cluster.allocate.busy_s", busy("cluster.allocate")),
        (
            "cluster.allocate.replication",
            per(c.grid_objects as f64, c.objects),
        ),
        ("cluster.query.busy_s", busy("cluster.query")),
        (
            "cluster.query.ns_per_object",
            per(busy("cluster.query") * 1e9, c.grid_objects),
        ),
        ("cluster.query.cells", c.cells as f64),
        (
            "cluster.query.occupancy_p50",
            walker.occupancy.percentile(0.5),
        ),
        (
            "cluster.query.occupancy_p95",
            walker.occupancy.percentile(0.95),
        ),
        ("cluster.query.pairs_out", c.pairs_out as f64),
        (
            "index.rtree.build_ns_per_point",
            per(c.build_ns as f64, c.build_points),
        ),
        (
            "index.rtree.probe_ns_per_query",
            per(c.probe_ns as f64, c.probes),
        ),
        ("index.rtree.hits_per_probe", per(c.hits as f64, c.probes)),
        ("cluster.sync.busy_s", busy("cluster.sync")),
        (
            "cluster.sync.dup_ratio",
            per(c.duplicates as f64, c.pairs_out),
        ),
        ("cluster.dbscan.busy_s", busy("cluster.dbscan")),
        ("cluster.dbscan.clusters", c.clusters as f64),
        (
            "cluster.dbscan.mean_cluster_size",
            per(c.cluster_members as f64, c.clusters),
        ),
        ("pattern.partition.busy_s", busy("pattern.partition")),
        ("pattern.partition.partitions", c.partitions as f64),
        ("pattern.enumerate.busy_s", busy("pattern.enumerate")),
        ("pattern.enumerate.patterns_out", c.patterns as f64),
        (
            "pattern.enumerate.ns_per_pattern",
            per(busy("pattern.enumerate") * 1e9, c.patterns),
        ),
        (
            "core.engine.serial_rps",
            n as f64 / oracle.serial_wall_s.max(1e-9),
        ),
        (
            "core.engine.walk_coverage",
            layer_busy / oracle.serial_wall_s.max(1e-9),
        ),
    ];
    metrics.push((
        "runtime.sharded_aligner.route_ns_per_rec",
        route_ns_per_rec(workload, records),
    ));
    metrics.extend(edge_codecs(records, &walker.sample, oracle));
    Walk {
        metrics,
        recorder: rec,
        faithful,
    }
}

/// The serial frontier router's share of the head: `route` + `drain_sealed`
/// per record, exactly as `align-route` calls them.
fn route_ns_per_rec(workload: &Workload, records: &[GpsRecord]) -> f64 {
    let mut router = ShardedAligner::new(workload.aligner(), ALIGN_SHARDS);
    let mut sealed = Vec::new();
    let started = Instant::now();
    for r in records {
        std::hint::black_box(router.route(r));
        router.drain_sealed(&mut sealed);
        sealed.clear();
    }
    per(started.elapsed().as_nanos() as f64, records.len() as u64)
}

/// The serve edge's codecs and fan-out, called directly: discretize and
/// parse per record, encode and publish per event.
fn edge_codecs(
    records: &[GpsRecord],
    patterns: &[Pattern],
    oracle: &Oracle,
) -> Vec<(&'static str, f64)> {
    let records = &records[..records.len().min(CODEC_SAMPLE)];

    let raws: Vec<RawRecord> = records
        .iter()
        .map(|r| RawRecord::new(r.id, r.location, f64::from(r.time.0)))
        .collect();
    let mut discretizer = Discretizer::new(0.0, 1.0).expect("a 1 s interval is valid");
    let started = Instant::now();
    for raw in &raws {
        std::hint::black_box(discretizer.push(raw));
    }
    let discretize_ns = started.elapsed().as_nanos() as f64;

    let wire = WireStream::render(records);
    let started = Instant::now();
    for line in wire.lines() {
        std::hint::black_box(WireRecord::parse(line).ok());
    }
    let parse_ns = started.elapsed().as_nanos() as f64;

    // The events of the job: its patterns, or — where a workload has none
    // — its snapshot notices.
    let started = Instant::now();
    let lines: Vec<Arc<str>> = if patterns.is_empty() {
        (0..oracle.snapshots() as u32)
            .map(|i| SnapshotEvent {
                event: "snapshot".to_string(),
                time: oracle.first_time + i,
                patterns: 0,
            })
            .map(|e| serde_json::to_string(&e).expect("event serializes"))
            .map(|s| Arc::from(s.as_str()))
            .collect()
    } else {
        patterns
            .iter()
            .map(|p| {
                serde_json::to_string(&PatternEvent::from_pattern(p)).expect("event serializes")
            })
            .map(|s| Arc::from(s.as_str()))
            .collect()
    };
    let encode_ns = started.elapsed().as_nanos() as f64;

    let hub = Hub::new(lines.len() + 1);
    let subscriber = hub.subscribe(Topic::All);
    let kind = if patterns.is_empty() {
        EventKind::Snapshot
    } else {
        EventKind::Pattern
    };
    let started = Instant::now();
    for line in &lines {
        std::hint::black_box(hub.publish(kind, line));
    }
    let publish_ns = started.elapsed().as_nanos() as f64;
    assert_eq!(subscriber.lines().len(), lines.len(), "nothing was shed");

    vec![
        (
            "types.discretize.ns_per_rec",
            per(discretize_ns, raws.len() as u64),
        ),
        (
            "serve.protocol.parse_ns_per_rec",
            per(parse_ns, records.len() as u64),
        ),
        (
            "serve.protocol.encode_ns_per_event",
            per(encode_ns, lines.len() as u64),
        ),
        (
            "serve.hub.publish_ns_per_event",
            per(publish_ns, lines.len() as u64),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn the_walk_is_a_faithful_replica_on_every_workload() {
        for w in &WORKLOADS {
            let records = w.records(4, 40);
            let oracle = Oracle::run(w, &records);
            let walk = layer_walk(w, &records, &oracle);
            assert!(walk.faithful, "{}", w.name);
            let get = |name: &str| {
                walk.metric(name)
                    .unwrap_or_else(|| panic!("{name} missing"))
            };
            assert_eq!(
                get("pattern.enumerate.patterns_out"),
                oracle.patterns.count as f64
            );
            assert_eq!(
                get("runtime.aligner.late_dropped"),
                oracle.late_dropped as f64
            );
            assert!(get("cluster.allocate.replication") >= 1.0);
            // One root span per snapshot, each layer span inside its root.
            let roots: Vec<&Span> = walk
                .recorder
                .spans
                .iter()
                .filter(|s| s.name == ROOT)
                .collect();
            assert_eq!(roots.len() as u64, oracle.snapshots(), "{}", w.name);
            for s in walk
                .recorder
                .spans
                .iter()
                .filter(|s| s.name == "cluster.query")
            {
                let root = roots.iter().find(|r| r.trace == s.trace).unwrap();
                assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
            }
        }
    }

    #[test]
    fn histogram_percentiles_are_exact() {
        let mut h = Histogram(Vec::new());
        for v in [1usize, 1, 2, 3, 30] {
            h.add(v);
        }
        assert_eq!(h.percentile(0.5), 2.0);
        assert_eq!(h.percentile(0.95), 30.0);
        assert_eq!(h.percentile(0.2), 1.0);
    }
}
