//! Server-side counters behind the `STATUS` endpoint.

use icpe_core::StatusSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Lock-free counters shared by every connection handler. Pipeline-side
/// numbers (latency, sealing frontier, late drops) come from the pipeline's
/// [`StatusSnapshot`]; this struct holds the network-edge view.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    /// Producer connections currently open.
    pub producers: AtomicU64,
    /// Subscriber connections currently open.
    pub subscribers: AtomicU64,
    /// Valid records pushed into the pipeline. A stale or repeated tick is
    /// among them until the pipeline's router rejects it: `STATUS` reports
    /// this minus the router's duplicate count as `records_in`.
    pub records_in: AtomicU64,
    /// Ingest micro-batches pushed into the pipeline (each batch is one
    /// channel operation; `records_in / ingest_batches` is the mean batch
    /// fill).
    pub ingest_batches: AtomicU64,
    /// Lines refused at the edge (malformed, non-finite). `STATUS` adds
    /// the router's duplicates to report `records_rejected`.
    pub records_rejected: AtomicU64,
    /// Malformed lines moved to the dead-letter ring (a subset of
    /// `records_rejected`: parse failures only, not stale ticks).
    pub records_quarantined: AtomicU64,
    /// Bytes read from producer sockets.
    pub bytes_in: AtomicU64,
    /// Pattern events published.
    pub patterns_out: AtomicU64,
    /// Snapshot-sealed events published.
    pub snapshots_sealed: AtomicU64,
    /// Subscribers disconnected for not keeping up.
    pub subscribers_shed: AtomicU64,
    /// Newest discretized tick accepted at the edge, stored as `tick + 1`
    /// (0 = nothing ingested yet).
    ingested_tick: AtomicU64,
    /// Checkpoints written since start (periodic + final).
    pub checkpoints_written: AtomicU64,
    /// Last written checkpoint's sequence number, stored as `seq + 1`
    /// (0 = none yet).
    last_checkpoint_seq: AtomicU64,
}

impl ServerStats {
    /// Fresh counters; the uptime clock starts now.
    pub fn new() -> Self {
        ServerStats {
            started: Instant::now(),
            producers: AtomicU64::new(0),
            subscribers: AtomicU64::new(0),
            records_in: AtomicU64::new(0),
            ingest_batches: AtomicU64::new(0),
            records_rejected: AtomicU64::new(0),
            records_quarantined: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            patterns_out: AtomicU64::new(0),
            snapshots_sealed: AtomicU64::new(0),
            subscribers_shed: AtomicU64::new(0),
            ingested_tick: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            last_checkpoint_seq: AtomicU64::new(0),
        }
    }

    /// Counts one ingest micro-batch of `records` records pushed into the
    /// pipeline.
    pub fn note_batch(&self, records: u64) {
        self.records_in.fetch_add(records, Ordering::Relaxed);
        self.ingest_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successfully written checkpoint for the `STATUS` block.
    pub fn note_checkpoint(&self, seq: u64) {
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
        self.last_checkpoint_seq
            .fetch_max(seq + 1, Ordering::Relaxed);
    }

    /// Marks the checkpoint this instance resumed from (without counting it
    /// as written by this instance).
    pub fn restore_checkpoint_seq(&self, seq: u64) {
        self.last_checkpoint_seq
            .fetch_max(seq + 1, Ordering::Relaxed);
    }

    /// Last written checkpoint's sequence number, if any.
    pub fn last_checkpoint_seq(&self) -> Option<u64> {
        match self.last_checkpoint_seq.load(Ordering::Relaxed) {
            0 => None,
            s => Some(s - 1),
        }
    }

    /// The raw `tick + 1` edge-frontier encoding (checkpoint capture).
    pub fn raw_ingested_tick(&self) -> u64 {
        self.ingested_tick.load(Ordering::Relaxed)
    }

    /// Rehydrates the edge frontier from its raw `tick + 1` encoding.
    pub fn restore_ingested_tick(&self, raw: u64) {
        self.ingested_tick.fetch_max(raw, Ordering::Relaxed);
    }

    /// Advances the edge's newest-accepted-tick gauge.
    pub fn note_ingested_tick(&self, tick: u32) {
        self.ingested_tick
            .fetch_max(tick as u64 + 1, Ordering::Relaxed);
    }

    /// Newest discretized tick accepted at the edge, if any.
    pub fn ingested_tick(&self) -> Option<u32> {
        match self.ingested_tick.load(Ordering::Relaxed) {
            0 => None,
            t => Some((t - 1) as u32),
        }
    }

    /// Seconds since the server started.
    pub fn uptime(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// `(records_in, records_rejected)` as `STATUS` reports them: the stale
    /// or repeated ticks the pipeline's router rejected move from pushed to
    /// rejected.
    fn accepted_and_rejected(&self, pipeline: &StatusSnapshot) -> (u64, u64) {
        let duplicates = pipeline.align.duplicates;
        (
            self.records_in
                .load(Ordering::Relaxed)
                .saturating_sub(duplicates),
            self.records_rejected.load(Ordering::Relaxed) + duplicates,
        )
    }

    /// Renders the `STATUS` response: one `key=value` per line, stable keys,
    /// merging the network-edge counters with one reading of the pipeline's
    /// status surface — progress and latency, the routing layer's
    /// epoch/load-balance gauges, the sync-merge tree's shape and pair/seal
    /// gauges, the sharded aligner head's chain/frontier gauges, and the
    /// supervision health.
    pub fn render(&self, pipeline: &StatusSnapshot, max_subscriber_queue_depth: usize) -> String {
        let uptime = self.uptime();
        let (records_in, records_rejected) = self.accepted_and_rejected(pipeline);
        let StatusSnapshot {
            health,
            progress,
            report,
            routing: r,
            sync: s,
            align: a,
        } = pipeline;
        let mut out = String::with_capacity(512);
        let mut line = |k: &str, v: String| {
            out.push_str(k);
            out.push('=');
            out.push_str(&v);
            out.push('\n');
        };
        line("service", "icpe-serve".into());
        line("uptime_s", format!("{uptime:.3}"));
        line(
            "producers",
            self.producers.load(Ordering::Relaxed).to_string(),
        );
        line(
            "subscribers",
            self.subscribers.load(Ordering::Relaxed).to_string(),
        );
        line("records_in", records_in.to_string());
        line("records_rejected", records_rejected.to_string());
        line(
            "records_quarantined",
            self.records_quarantined.load(Ordering::Relaxed).to_string(),
        );
        line("records_late", progress.late_records.to_string());
        line(
            "records_per_s",
            format!("{:.1}", records_in as f64 / uptime.max(1e-9)),
        );
        // Ingest vectorization: how many records ride each pipeline push.
        // 1.0 = record-at-a-time (idle producers); approaching the
        // configured ingest batch = saturated edge.
        let batches = self.ingest_batches.load(Ordering::Relaxed);
        let pushed = self.records_in.load(Ordering::Relaxed);
        line("ingest_batches", batches.to_string());
        line(
            "mean_batch_fill",
            format!("{:.2}", pushed as f64 / batches.max(1) as f64),
        );
        line(
            "bytes_in",
            self.bytes_in.load(Ordering::Relaxed).to_string(),
        );
        line(
            "snapshots_sealed",
            self.snapshots_sealed.load(Ordering::Relaxed).to_string(),
        );
        let patterns_out = self.patterns_out.load(Ordering::Relaxed);
        line("patterns_emitted", patterns_out.to_string());
        line(
            "patterns_per_s",
            format!("{:.1}", patterns_out as f64 / uptime.max(1e-9)),
        );
        line(
            "subscribers_shed",
            self.subscribers_shed.load(Ordering::Relaxed).to_string(),
        );
        // Proactive delivery health: how deep the fullest subscriber queue
        // currently is. Climbing toward the configured queue bound means a
        // consumer is about to be shed — visible before the disconnect.
        line(
            "max_subscriber_queue_depth",
            max_subscriber_queue_depth.to_string(),
        );
        // Per-stage frontiers: what the edge accepted, what the aligner
        // released into clustering, what enumeration completed. The gap
        // between neighbors is each stage's lag in snapshots.
        let edge = self.ingested_tick();
        let fmt_frontier = |t: Option<u32>| t.map_or_else(|| "none".into(), |t| t.to_string());
        line("ingest_frontier", fmt_frontier(edge));
        line("aligned_frontier", fmt_frontier(progress.max_ingested));
        line("sealed_frontier", fmt_frontier(progress.max_sealed));
        line(
            "align_lag_snapshots",
            match (edge, progress.max_ingested) {
                (Some(e), Some(a)) => e.saturating_sub(a).to_string(),
                (Some(e), None) => (e + 1).to_string(),
                _ => "0".into(),
            },
        );
        line("detect_lag_snapshots", progress.lag().to_string());
        line("in_flight_snapshots", progress.in_flight.to_string());
        // The sharded aligner head: how the trajectory chains spread across
        // the shards and how far apart the per-shard frontiers run (a wide
        // spread means one shard's slow trajectories hold the global seal
        // back).
        line("aligner_shards", a.shards.to_string());
        line("aligner_chains", a.chains.to_string());
        line("aligner_max_shard_chains", a.max_shard_chains.to_string());
        line("aligner_late_dropped", a.late_dropped.to_string());
        line("aligner_sealed_frontier", a.sealed_up_to.to_string());
        line(
            "aligner_min_shard_frontier",
            a.min_shard_frontier.to_string(),
        );
        line(
            "aligner_max_shard_frontier",
            a.max_shard_frontier.to_string(),
        );
        line("aligner_shard_imbalance", format!("{:.3}", a.imbalance()));
        // Durability: how far recovery could rewind to, and how often
        // checkpoints land.
        line(
            "checkpoint_seq",
            self.last_checkpoint_seq()
                .map_or_else(|| "none".into(), |s| s.to_string()),
        );
        line(
            "checkpoints_written",
            self.checkpoints_written.load(Ordering::Relaxed).to_string(),
        );
        // Adaptive routing: which placement epoch is live, how much has
        // moved, and how evenly the grid stage's last window spread. All
        // zeros under static routing that never measured a window (absent
        // keys would break `key=value` consumers).
        line("routing_epoch", r.epoch.to_string());
        line("cells_mapped", r.mapped_keys.to_string());
        line("cells_migrated", r.cells_migrated.to_string());
        line("max_subtask_load", format!("{:.1}", r.max_subtask_load));
        line("mean_subtask_load", format!("{:.1}", r.mean_subtask_load));
        line("subtask_imbalance", format!("{:.3}", r.imbalance()));
        // The sync-merge tree: how deep it runs and what it has merged.
        // Per-subtask grid-query load is the routing keys' split above.
        line("sync_fanin", s.fanin.to_string());
        line("sync_tree_levels", s.levels.to_string());
        line("sync_pairs_merged", s.pairs_merged.to_string());
        line("sync_windows_sealed", s.windows_sealed.to_string());
        line(
            "avg_latency_ms",
            format!("{:.3}", report.avg_latency.as_secs_f64() * 1e3),
        );
        line(
            "p95_latency_ms",
            format!("{:.3}", report.p95_latency.as_secs_f64() * 1e3),
        );
        line("throughput_tps", format!("{:.1}", report.throughput_tps));
        line("health", health.as_str().into());
        out
    }

    /// Renders the network-edge counters in Prometheus text exposition
    /// format — the serve-level half of the `METRICS` endpoint (the
    /// pipeline's per-stage families come from its
    /// [`icpe_runtime::MetricRegistry`]). Every value is finite: the
    /// `NaN` that [`MetricsReport::throughput_tps`] reports before two
    /// snapshots complete renders as `0`, because `NaN` is not a valid
    /// exposition-format sample and would poison scrapers.
    ///
    /// [`MetricsReport::throughput_tps`]: icpe_runtime::MetricsReport
    pub fn render_prometheus(
        &self,
        pipeline: &StatusSnapshot,
        max_subscriber_queue_depth: usize,
    ) -> String {
        let StatusSnapshot {
            health,
            progress,
            report,
            ..
        } = pipeline;
        let (records_in, records_rejected) = self.accepted_and_rejected(pipeline);
        let mut out = String::with_capacity(1024);
        let mut family = |name: &str, kind: &str, help: &str, value: String| {
            out.push_str(&format!("# HELP icpe_serve_{name} {help}\n"));
            out.push_str(&format!("# TYPE icpe_serve_{name} {kind}\n"));
            out.push_str(&format!("icpe_serve_{name} {value}\n"));
        };
        let count = |v: u64| v.to_string();
        family(
            "records_in_total",
            "counter",
            "Valid records accepted into the pipeline.",
            count(records_in),
        );
        family(
            "records_rejected_total",
            "counter",
            "Lines refused (malformed, non-finite, stale/duplicate tick).",
            count(records_rejected),
        );
        family(
            "records_quarantined_total",
            "counter",
            "Malformed producer lines moved to the dead-letter ring.",
            count(self.records_quarantined.load(Ordering::Relaxed)),
        );
        family(
            "records_late_total",
            "counter",
            "Records dropped for arriving after their snapshot sealed.",
            count(progress.late_records),
        );
        family(
            "ingest_batches_total",
            "counter",
            "Ingest micro-batches pushed into the pipeline.",
            count(self.ingest_batches.load(Ordering::Relaxed)),
        );
        family(
            "bytes_in_total",
            "counter",
            "Bytes read from producer sockets.",
            count(self.bytes_in.load(Ordering::Relaxed)),
        );
        family(
            "patterns_emitted_total",
            "counter",
            "Pattern events published.",
            count(self.patterns_out.load(Ordering::Relaxed)),
        );
        family(
            "snapshots_sealed_total",
            "counter",
            "Snapshot-sealed events published.",
            count(self.snapshots_sealed.load(Ordering::Relaxed)),
        );
        family(
            "subscribers_shed_total",
            "counter",
            "Subscribers disconnected for not keeping up.",
            count(self.subscribers_shed.load(Ordering::Relaxed)),
        );
        family(
            "checkpoints_written_total",
            "counter",
            "Checkpoints written since start (periodic + final).",
            count(self.checkpoints_written.load(Ordering::Relaxed)),
        );
        family(
            "producers",
            "gauge",
            "Producer connections currently open.",
            count(self.producers.load(Ordering::Relaxed)),
        );
        family(
            "subscribers",
            "gauge",
            "Subscriber connections currently open.",
            count(self.subscribers.load(Ordering::Relaxed)),
        );
        family(
            "max_subscriber_queue_depth",
            "gauge",
            "Depth of the fullest subscriber queue (shedding nears at the configured bound).",
            count(max_subscriber_queue_depth as u64),
        );
        family(
            "in_flight_snapshots",
            "gauge",
            "Snapshots currently between ingest and completion.",
            count(progress.in_flight as u64),
        );
        family(
            "uptime_seconds",
            "gauge",
            "Seconds since the server started.",
            format!("{:.3}", self.uptime()),
        );
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        family(
            "throughput_tps",
            "gauge",
            "Snapshots sealed per second (0 until two snapshots complete).",
            format!("{:.3}", finite(report.throughput_tps)),
        );
        family(
            "avg_latency_seconds",
            "gauge",
            "Mean end-to-end snapshot latency.",
            format!("{:.9}", finite(report.avg_latency.as_secs_f64())),
        );
        family(
            "p95_latency_seconds",
            "gauge",
            "95th-percentile end-to-end snapshot latency.",
            format!("{:.9}", finite(report.p95_latency.as_secs_f64())),
        );
        family(
            "health",
            "gauge",
            "Pipeline supervision health (0=healthy 1=recovering 2=degraded 3=failed).",
            count(*health as u64),
        );
        out
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses a rendered status block back into `(key, value)` pairs — the
/// client-side half of the `STATUS` exchange.
pub fn parse_status(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_stable_keys() {
        let stats = ServerStats::new();
        stats.records_in.store(42, Ordering::Relaxed);
        let pipeline = StatusSnapshot::default();
        let text = stats.render(&pipeline, 0);
        let kv = parse_status(&text);
        let get = |k: &str| {
            kv.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing key {k}"))
        };
        assert_eq!(get("service"), "icpe-serve");
        assert_eq!(get("records_in"), "42");
        assert_eq!(get("ingest_frontier"), "none");
        assert_eq!(get("detect_lag_snapshots"), "0");
        assert!(get("records_per_s").parse::<f64>().unwrap() > 0.0);

        stats.note_ingested_tick(6);
        stats.note_ingested_tick(3);
        assert_eq!(stats.ingested_tick(), Some(6));
        let kv = parse_status(&stats.render(&pipeline, 0));
        let frontier = kv.iter().find(|(k, _)| k == "ingest_frontier").unwrap();
        assert_eq!(frontier.1, "6");
        let lag = kv.iter().find(|(k, _)| k == "align_lag_snapshots").unwrap();
        assert_eq!(lag.1, "7", "7 snapshots admitted, none aligned yet");
    }

    #[test]
    fn render_includes_throughput_gauges() {
        let stats = ServerStats::new();
        let pipeline = StatusSnapshot::default();
        // No batches yet: fill renders 0 (guarded division), rates render.
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("ingest_batches"), "0");
        assert_eq!(get("mean_batch_fill"), "0.00");
        assert_eq!(get("patterns_per_s"), "0.0");

        stats.note_batch(48);
        stats.note_batch(16);
        stats.patterns_out.store(7, Ordering::Relaxed);
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("records_in"), "64");
        assert_eq!(get("ingest_batches"), "2");
        assert_eq!(get("mean_batch_fill"), "32.00");
        assert!(get("records_per_s").parse::<f64>().unwrap() > 0.0);
        assert!(get("patterns_per_s").parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn render_includes_sync_gauges() {
        let stats = ServerStats::new();
        let pipeline = StatusSnapshot::default();
        // Before any window the keys still render, zeroed.
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("sync_fanin"), "0");
        assert_eq!(get("sync_pairs_merged"), "0");
        assert_eq!(get("sync_windows_sealed"), "0");

        let sync = icpe_core::SyncStatus {
            fanin: 4,
            levels: 1,
            pairs_merged: 4096,
            windows_sealed: 120,
        };
        let pipeline = StatusSnapshot { sync, ..pipeline };
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("sync_fanin"), "4");
        assert_eq!(get("sync_tree_levels"), "1");
        assert_eq!(get("sync_pairs_merged"), "4096");
        assert_eq!(get("sync_windows_sealed"), "120");
    }

    #[test]
    fn render_includes_aligner_gauges() {
        let stats = ServerStats::new();
        let pipeline = StatusSnapshot::default();
        // Before any record the keys still render, zeroed.
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("aligner_shards"), "0");
        assert_eq!(get("aligner_chains"), "0");
        assert_eq!(get("aligner_sealed_frontier"), "0");
        assert_eq!(get("aligner_shard_imbalance"), "1.000");

        let align = icpe_core::AlignerStatus {
            shards: 4,
            chains: 36,
            max_shard_chains: 18,
            late_dropped: 7,
            duplicates: 0,
            sealed_up_to: 21,
            min_shard_frontier: 20,
            max_shard_frontier: 24,
        };
        let pipeline = StatusSnapshot { align, ..pipeline };
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("aligner_shards"), "4");
        assert_eq!(get("aligner_chains"), "36");
        assert_eq!(get("aligner_max_shard_chains"), "18");
        assert_eq!(get("aligner_late_dropped"), "7");
        assert_eq!(get("aligner_sealed_frontier"), "21");
        assert_eq!(get("aligner_min_shard_frontier"), "20");
        assert_eq!(get("aligner_max_shard_frontier"), "24");
        assert_eq!(get("aligner_shard_imbalance"), "2.000");
    }

    #[test]
    fn router_duplicates_count_as_rejected_not_in() {
        let stats = ServerStats::new();
        stats.note_batch(10);
        stats.records_rejected.store(2, Ordering::Relaxed);
        let mut pipeline = StatusSnapshot::default();
        pipeline.align.duplicates = 3;
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("records_in"), "7");
        assert_eq!(get("records_rejected"), "5");
        // The batch fill counts what was pushed.
        assert_eq!(get("mean_batch_fill"), "10.00");
        let exposition = stats.render_prometheus(&pipeline, 0);
        let sample = |family: &str| {
            exposition
                .lines()
                .find_map(|l| l.strip_prefix(&format!("icpe_serve_{family} ")))
                .unwrap()
                .to_string()
        };
        assert_eq!(sample("records_in_total"), "7");
        assert_eq!(sample("records_rejected_total"), "5");
    }

    #[test]
    fn render_includes_routing_gauges() {
        let stats = ServerStats::new();
        let pipeline = StatusSnapshot::default();
        // Under static routing the keys still render, zeroed.
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("routing_epoch"), "0");
        assert_eq!(get("cells_migrated"), "0");
        assert_eq!(get("subtask_imbalance"), "1.000");

        let routing = icpe_core::RoutingStatus {
            epoch: 3,
            mapped_keys: 5,
            cells_migrated: 11,
            max_subtask_load: 60.0,
            mean_subtask_load: 20.0,
        };
        let pipeline = StatusSnapshot {
            routing,
            ..pipeline
        };
        let kv = parse_status(&stats.render(&pipeline, 0));
        let get = |k: &str| kv.iter().find(|(key, _)| key == k).unwrap().1.clone();
        assert_eq!(get("routing_epoch"), "3");
        assert_eq!(get("cells_mapped"), "5");
        assert_eq!(get("cells_migrated"), "11");
        assert_eq!(get("max_subtask_load"), "60.0");
        assert_eq!(get("mean_subtask_load"), "20.0");
        assert_eq!(get("subtask_imbalance"), "3.000");
    }
}
