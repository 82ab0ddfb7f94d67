//! The status surface of a live deployment: a view over the metric
//! registry, where each status number's one owner publishes it.

use crate::config::IcpeConfig;
use icpe_cluster::balance::{imbalance, LoadTracker};
use icpe_cluster::sync::SyncStatus;
use icpe_index::GridKey;
use icpe_runtime::{
    AlignerStatus, Gauge, Histogram, MetricRegistry, MetricsReport, RoutingStatus, StreamProgress,
    WindowClock,
};
use icpe_types::ObsCheckpoint;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// The supervised pipeline's health, as a state machine:
///
/// ```text
/// Healthy ──stage failure──► Recovering ──relaunch + replay ok──► Healthy
///    ▲                           │  ▲                             (or Degraded once
///    └───────────────────────────┘  └──another failure────┐        > half the restart
///                                                         │        budget is spent)
///                            restart budget exhausted ──► Failed (terminal)
/// ```
///
/// Unsupervised pipelines always report `Healthy`; their failure mode is
/// the pre-existing panic out of
/// [`LivePipeline::finish`](crate::LivePipeline::finish).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Running normally.
    #[default]
    Healthy,
    /// A stage died; the supervisor is relaunching from the latest cut.
    Recovering,
    /// Recovered, but more than half the restart budget is spent.
    Degraded,
    /// Restart budget exhausted; the pipeline is down for good (pushes are
    /// discarded, checkpoints fail — nothing blocks).
    Failed,
}

impl HealthState {
    /// Lowercase wire name (`STATUS`'s `health=` value).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Recovering => "recovering",
            HealthState::Degraded => "degraded",
            HealthState::Failed => "failed",
        }
    }
}

/// One point-in-time reading of every surface behind [`PipelineStatus`] —
/// what the serve tier's `STATUS` and `METRICS` renderers consume.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatusSnapshot {
    /// Supervision health.
    pub health: HealthState,
    /// Stream-position gauges (ingested vs. sealed frontier, late drops).
    pub progress: StreamProgress,
    /// Latency/throughput summary.
    pub report: MetricsReport,
    /// The grid stage's routing layer (epoch, migrations, load split).
    pub routing: RoutingStatus,
    /// The sync-merge tree.
    pub sync: SyncStatus,
    /// The sharded aligner head.
    pub align: AlignerStatus,
}

/// The registry cells behind every status number, registered once per
/// deployment. Each has one owner — the one thread that changes it — which
/// publishes it as it changes and again when the operator is built: a
/// restored operator publishes its checkpointed value, so status reads the
/// cut before the first replayed record. Frontiers hold `t + 1`, 0 for
/// none (the aligner's `sealed_up_to` convention).
#[derive(Debug, Clone)]
pub(crate) struct StatusGauges {
    // align-route: the chains, the late-drop and duplicate counts, the
    // seal frontier, the frontier of windows released downstream, and the
    // balancer's routing epoch, pinned cells and migrations.
    pub(crate) chains: Gauge,
    pub(crate) max_shard_chains: Gauge,
    pub(crate) late_dropped: Gauge,
    pub(crate) duplicates: Gauge,
    pub(crate) sealed_up_to: Gauge,
    pub(crate) min_shard_frontier: Gauge,
    pub(crate) max_shard_frontier: Gauge,
    pub(crate) aligned_up_to: Gauge,
    pub(crate) routing_epoch: Gauge,
    pub(crate) cells_mapped: Gauge,
    pub(crate) cells_migrated: Gauge,
    // sync-merge-final: its cumulative counters.
    pub(crate) pairs_merged: Gauge,
    pub(crate) windows_sealed: Gauge,
    // sink: completions, stamped on the window clock, and their latency.
    pub(crate) windows_completed: Gauge,
    pub(crate) completed_up_to: Gauge,
    pub(crate) first_completion: Gauge,
    pub(crate) last_completion: Gauge,
    pub(crate) latency: Histogram,
}

impl StatusGauges {
    fn register(obs: &MetricRegistry) -> StatusGauges {
        let gauge = |stage, name| obs.gauge(stage, 0, name);
        StatusGauges {
            chains: gauge("align-route", "aligner_chains"),
            max_shard_chains: gauge("align-route", "aligner_max_shard_chains"),
            late_dropped: gauge("align-route", "aligner_late_dropped"),
            duplicates: gauge("align-route", "aligner_duplicates"),
            sealed_up_to: gauge("align-route", "aligner_sealed_up_to"),
            min_shard_frontier: gauge("align-route", "aligner_min_shard_frontier"),
            max_shard_frontier: gauge("align-route", "aligner_max_shard_frontier"),
            aligned_up_to: gauge("align-route", "aligned_up_to"),
            routing_epoch: gauge("align-route", "routing_epoch"),
            cells_mapped: gauge("align-route", "cells_mapped"),
            cells_migrated: gauge("align-route", "cells_migrated"),
            pairs_merged: gauge("sync-merge-final", "sync_pairs_merged"),
            windows_sealed: gauge("sync-merge-final", "sync_windows_sealed"),
            windows_completed: gauge("sink", "windows_completed"),
            completed_up_to: gauge("sink", "completed_up_to"),
            first_completion: gauge("sink", "first_completion_ns"),
            last_completion: gauge("sink", "last_completion_ns"),
            latency: obs.histogram("sink", 0, "window_latency_seconds"),
        }
    }
}

/// A frontier as its gauge holds it: `t + 1`, 0 for none.
pub(crate) fn up_to(t: Option<u32>) -> u64 {
    t.map_or(0, |t| t as u64 + 1)
}

fn frontier(gauge: &Gauge) -> Option<u32> {
    (gauge.get() as u32).checked_sub(1)
}

/// The one live status surface of a deployment: health, stream progress,
/// latency, the routing layer, the sync merge path, the aligner head, and
/// the metric registry + event journal. Every number is read from the
/// registry (see `StatusGauges`); besides it this holds the load tracker,
/// the window clock and configuration. Cloneable and independent of the
/// [`LivePipeline`](crate::LivePipeline)'s lifetime, so status endpoints
/// and benches keep reading after `finish` and, under supervision, across
/// dataflow generations.
#[derive(Debug, Clone)]
pub struct PipelineStatus {
    pub(crate) obs: MetricRegistry,
    /// Handles into `obs`, not copies.
    pub(crate) gauges: StatusGauges,
    pub(crate) tracker: Arc<LoadTracker>,
    pub(crate) clock: Arc<WindowClock>,
    /// Aligner shards and sync-tree fanin, reported as configured.
    shards: usize,
    fanin: usize,
    health: Arc<AtomicU8>,
}

impl PipelineStatus {
    pub(crate) fn new(config: &IcpeConfig) -> PipelineStatus {
        let obs = MetricRegistry::new();
        PipelineStatus {
            gauges: StatusGauges::register(&obs),
            obs,
            tracker: Arc::new(LoadTracker::new(
                config.parallelism,
                config.rebalance.is_some(),
            )),
            clock: Arc::new(WindowClock::default()),
            shards: config.align_shards.max(1),
            fanin: config.sync_fanin,
            health: Arc::new(AtomicU8::new(HealthState::Healthy as u8)),
        }
    }

    /// The pipeline's current [`HealthState`]. Always `Healthy` for an
    /// unsupervised launch.
    pub fn health(&self) -> HealthState {
        match self.health.load(Ordering::Relaxed) {
            1 => HealthState::Recovering,
            2 => HealthState::Degraded,
            3 => HealthState::Failed,
            _ => HealthState::Healthy,
        }
    }

    pub(crate) fn set_health(&self, state: HealthState) {
        self.health.store(state as u8, Ordering::Relaxed);
    }

    /// Live stream-position gauges (ingested vs. sealed frontier, lag,
    /// late-record count).
    pub fn progress(&self) -> StreamProgress {
        let g = &self.gauges;
        StreamProgress {
            max_ingested: frontier(&g.aligned_up_to),
            max_sealed: frontier(&g.completed_up_to),
            in_flight: self.clock.in_flight(),
            late_records: g.late_dropped.get(),
        }
    }

    /// The latency/throughput summary so far.
    pub fn report(&self) -> MetricsReport {
        let g = &self.gauges;
        MetricsReport::new(
            g.windows_completed.get(),
            &g.latency.snapshot(),
            g.first_completion.get(),
            g.last_completion.get(),
            g.late_dropped.get(),
        )
    }

    /// The grid stage's routing status: epoch, table size, cumulative
    /// migrations, and the per-subtask load split of the most recently
    /// completed window.
    pub fn routing(&self) -> RoutingStatus {
        let g = &self.gauges;
        let mut status = RoutingStatus {
            epoch: g.routing_epoch.get(),
            mapped_keys: g.cells_mapped.get() as usize,
            cells_migrated: g.cells_migrated.get(),
            ..RoutingStatus::default()
        };
        if let Some((_, loads)) = self.tracker.last_sealed() {
            let total: u64 = loads.iter().sum();
            status.mean_subtask_load = total as f64 / loads.len().max(1) as f64;
            status.max_subtask_load = loads.iter().copied().max().unwrap_or(0) as f64;
        }
        status
    }

    /// The sync-merge tree's gauges: its shape and cumulative pair/seal
    /// counters.
    pub fn sync(&self) -> SyncStatus {
        SyncStatus {
            pairs_merged: self.gauges.pairs_merged.get(),
            windows_sealed: self.gauges.windows_sealed.get(),
            ..SyncStatus::tree(self.tracker.parallelism(), self.fanin)
        }
    }

    /// The sharded aligner head's gauges: chain counts, per-shard frontier
    /// spread, the sealed frontier, and the late-drop and duplicate
    /// counters.
    pub fn align(&self) -> AlignerStatus {
        let g = &self.gauges;
        AlignerStatus {
            shards: self.shards,
            chains: g.chains.get(),
            max_shard_chains: g.max_shard_chains.get(),
            late_dropped: g.late_dropped.get(),
            duplicates: g.duplicates.get(),
            sealed_up_to: g.sealed_up_to.get(),
            min_shard_frontier: g.min_shard_frontier.get(),
            max_shard_frontier: g.max_shard_frontier.get(),
        }
    }

    /// The metric registry and event journal — everything behind the
    /// serving layer's `METRICS` and `EVENTS` endpoints. The status gauges
    /// and the window-latency histogram are always registered; the stage
    /// and exchange families only when the pipeline was launched with
    /// [`instrument`](crate::IcpeConfigBuilder::instrument) on. Journal
    /// events are emitted either way.
    pub fn obs(&self) -> &MetricRegistry {
        &self.obs
    }

    /// Every surface above, read once.
    pub fn snapshot(&self) -> StatusSnapshot {
        StatusSnapshot {
            health: self.health(),
            progress: self.progress(),
            report: self.report(),
            routing: self.routing(),
            sync: self.sync(),
            align: self.align(),
        }
    }

    /// `max/mean` GridQuery subtask load per completed window, ascending
    /// by window time — the series the skew bench computes p95 imbalance
    /// from.
    pub fn imbalance_series(&self) -> Vec<(u32, f64)> {
        self.tracker
            .sealed_windows()
            .into_iter()
            .map(|(t, loads)| (t, imbalance(&loads)))
            .collect()
    }

    /// Per-window per-cell loads of sealed windows (hindsight analyses;
    /// see [`LoadTracker::sealed_cell_windows`]). Kept under adaptive
    /// routing only: empty on a static deployment.
    pub fn sealed_cell_windows(&self) -> Vec<(u32, Vec<(GridKey, u64)>)> {
        self.tracker.sealed_cell_windows()
    }

    /// Rewinds what no operator republishes to a cut: the registry's
    /// counters to `obs` (empty on a fresh launch), the clocks of windows
    /// in flight, which replay starts again, and the load tracker to the
    /// windows through `max_sealed`, the cut's last sealed window (replay
    /// reports every later window again).
    pub(crate) fn reset_to(&self, obs: &ObsCheckpoint, max_sealed: Option<u32>) {
        // The registry's event journal is deliberately NOT reset: journal
        // seqs stay monotonic across generations so `EVENTS since-seq`
        // consumers never see time move backwards; only the counters rewind
        // to the cut.
        self.obs.reset_counters_to(obs);
        self.clock.clear();
        self.tracker.rewind(max_sealed);
    }
}
