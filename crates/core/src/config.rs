//! ICPE configuration: every knob of Table 3 plus deployment options.

use icpe_cluster::BalancerConfig;
use icpe_pattern::Semantics;
use icpe_runtime::{AlignerConfig, FaultPlan, RuntimeConfig};
use icpe_types::{Constraints, DbscanParams, DistanceMetric, TypeError};
use std::sync::Arc;
use std::time::Duration;

/// Self-healing supervision policy (see `IcpePipeline::launch` with
/// [`IcpeConfigBuilder::supervised`]): how the supervisor restarts the
/// dataflow after a subtask dies, and how often it takes automatic
/// checkpoints to bound the replay buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervision {
    /// Restart attempts before the pipeline goes terminally `Failed`.
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per consecutive restart.
    pub backoff: Duration,
    /// Backoff ceiling for the exponential schedule.
    pub max_backoff: Duration,
    /// Take an automatic checkpoint every this many ingested records
    /// (`None` disables them). Record-count cadence keeps the cut — and
    /// therefore recovery — deterministic, and bounds both the replay
    /// buffer and the dedup ledger the supervisor keeps between cuts.
    pub checkpoint_every_records: Option<u64>,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            max_restarts: 5,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            checkpoint_every_records: Some(8192),
        }
    }
}

/// The clustering method: RJC, the paper's range-join clustering
/// (GridAllocate + GridQuery with Lemmas 1–2, then DBSCAN), the only one
/// the deployment runs.
///
/// Selects nothing: [`IcpeConfigBuilder::clusterer`] stores no value. The
/// §7.1 baselines (SRJ, GDC) run on
/// [`IcpeEngine::with_parts`](crate::IcpeEngine::with_parts). The type is
/// kept because the benchmark package names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClustererKind {
    /// The paper's range-join clustering.
    Rjc,
}

/// Default fanin of the sync-merge aggregation tree over the grid-query
/// subtasks: how many partials each combiner absorbs. 4 keeps the tree at
/// most one interior level deep up to parallelism 16 while still fanning
/// the object-id unions out; `≥ N` degrades to a flat N → 1 funnel.
pub const DEFAULT_SYNC_FANIN: usize = 4;

/// The enumeration engine: FBA, fixed-length bit compression, the only
/// one the deployment runs and the one whose state checkpoints.
///
/// Selects nothing: [`IcpeConfigBuilder::enumerator`] stores no value. The
/// §7.2 baselines (BA, VBA) run on
/// [`IcpeEngine::with_parts`](crate::IcpeEngine::with_parts). The type is
/// kept because the benchmark package names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumeratorKind {
    /// Fixed-length bit compression.
    Fba,
}

/// Full ICPE configuration. Build with [`IcpeConfig::builder`].
#[derive(Debug, Clone)]
pub struct IcpeConfig {
    /// Grid cell width `lg` of the GR-index.
    pub lg: f64,
    /// DBSCAN density parameters (ε, minPts).
    pub dbscan: DbscanParams,
    /// Distance metric (defaults to Chebyshev — the paper's square range
    /// region; see `icpe-types`).
    pub metric: DistanceMetric,
    /// The `CP(M, K, L, G)` pattern constraints.
    pub constraints: Constraints,
    /// Temporal validity semantics (default: Definition-4 subsequence).
    pub semantics: Semantics,
    /// Parallelism `N` of the keyed stages (GridQuery, enumeration) in the
    /// streaming deployment — the paper's machine count — and the width of
    /// the sync-merge tree.
    pub parallelism: usize,
    /// Fanin of the sync-merge tree (clamped ≥ 2), the deployment's only
    /// aggregation tree: the `N` grid-query subtasks' pair shares reduce
    /// through ⌈N/fanin⌉ combiners per level down to the DBSCAN finalizer.
    pub sync_fanin: usize,
    /// Parallelism of the sharded aligner head (TimeAligner + fused
    /// GridAllocate), keyed by trajectory id; each shard sends every
    /// grid-query subtask its objects of a window directly. Defaults to
    /// `parallelism`; `1` degenerates to a single aligner shard behind the
    /// frontier router.
    pub align_shards: usize,
    /// Runtime channel capacity (backpressure depth).
    pub runtime: RuntimeConfig,
    /// Stream time-alignment settings.
    pub aligner: AlignerConfig,
    /// Hotspot-aware adaptive cell routing for the keyed GridQuery stage:
    /// `Some` runs the load balancer (see `icpe_cluster::balance`) and
    /// swaps cell→subtask routes at window boundaries; `None` (default)
    /// keeps the paper's static `hash(cell) % N` exchange.
    pub rebalance: Option<BalancerConfig>,
    /// Per-stage/per-exchange instrumentation (default `true`): every
    /// stage records batch-processing-time histograms and records in/out,
    /// every exchange hop records queue depth and blocked-send time, into
    /// the pipeline's metric registry. `false` registers no stage or
    /// exchange families (the baseline `bench_throughput --check` compares
    /// overhead against); the status gauges and event journal always exist.
    pub instrument: bool,
    /// Self-healing supervision: `Some` makes `IcpePipeline::launch` wrap
    /// the dataflow in a supervisor that catches subtask panics, restores
    /// the latest (in-memory) checkpoint, replays the records since the
    /// cut, and suppresses duplicate deliveries across the recovery —
    /// `None` (default) keeps the fail-fast behavior where a subtask panic
    /// propagates out of `LivePipeline::finish`.
    pub supervision: Option<Supervision>,
}

impl IcpeConfig {
    /// Starts a builder with the Table-3 default shape (clustering defaults
    /// must still be scaled to the workload's coordinate units via
    /// [`IcpeConfigBuilder::epsilon`] / [`IcpeConfigBuilder::grid_width`]).
    pub fn builder() -> IcpeConfigBuilder {
        IcpeConfigBuilder::default()
    }

    /// The engine-side configuration for the pattern phase: what an
    /// enumeration engine handed to
    /// [`IcpeEngine::with_parts`](crate::IcpeEngine::with_parts) is built
    /// from.
    pub fn engine_config(&self) -> icpe_pattern::EngineConfig {
        let mut cfg = icpe_pattern::EngineConfig::new(self.constraints);
        cfg.semantics = self.semantics;
        cfg
    }
}

/// Builder for [`IcpeConfig`].
#[derive(Debug, Clone)]
pub struct IcpeConfigBuilder {
    lg: Option<f64>,
    eps: f64,
    min_pts: usize,
    metric: DistanceMetric,
    constraints: Option<Constraints>,
    semantics: Semantics,
    parallelism: usize,
    sync_fanin: usize,
    align_shards: Option<usize>,
    runtime: RuntimeConfig,
    aligner: AlignerConfig,
    rebalance: Option<BalancerConfig>,
    instrument: bool,
    supervision: Option<Supervision>,
}

impl Default for IcpeConfigBuilder {
    fn default() -> Self {
        IcpeConfigBuilder {
            lg: None,
            eps: 1.0,
            min_pts: 10,
            metric: DistanceMetric::Chebyshev,
            constraints: None,
            semantics: Semantics::default(),
            parallelism: 4,
            sync_fanin: DEFAULT_SYNC_FANIN,
            align_shards: None,
            runtime: RuntimeConfig::default(),
            aligner: AlignerConfig::default(),
            rebalance: None,
            instrument: true,
            supervision: None,
        }
    }
}

impl IcpeConfigBuilder {
    /// Sets the pattern constraints `CP(M, K, L, G)` (required).
    pub fn constraints(mut self, c: Constraints) -> Self {
        self.constraints = Some(c);
        self
    }

    /// Sets the DBSCAN distance threshold ε (required in workload units).
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets DBSCAN's `minPts` (default 10, the paper's fixed value).
    pub fn min_pts(mut self, min_pts: usize) -> Self {
        self.min_pts = min_pts;
        self
    }

    /// Sets the grid cell width `lg` (default: `8 × ε`, a mid-range choice
    /// on the paper's Figure-11 sweet spot).
    pub fn grid_width(mut self, lg: f64) -> Self {
        self.lg = Some(lg);
        self
    }

    /// Sets the distance metric.
    pub fn metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the temporal validity semantics.
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Names the clustering method; RJC is the only one, so this stores
    /// nothing.
    pub fn clusterer(self, _kind: ClustererKind) -> Self {
        self
    }

    /// Names the enumeration engine; FBA is the only one, so this stores
    /// nothing.
    pub fn enumerator(self, _kind: EnumeratorKind) -> Self {
        self
    }

    /// Sets the keyed-stage parallelism `N`.
    pub fn parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// Sets the sync-merge tree's fanin (default [`DEFAULT_SYNC_FANIN`],
    /// clamped ≥ 2). `fanin ≥ N` collapses the tree to a flat N → 1
    /// funnel.
    pub fn sync_fanin(mut self, fanin: usize) -> Self {
        self.sync_fanin = fanin.max(2);
        self
    }

    /// Sets the aligner-head shard count (default: follow `parallelism`,
    /// clamped ≥ 1). The sealed output is shard-count-invariant — the
    /// equivalence battery in `aligner_equivalence.rs` pins this — so the
    /// knob is purely a throughput/latency trade.
    pub fn align_shards(mut self, shards: usize) -> Self {
        self.align_shards = Some(shards.max(1));
        self
    }

    /// Overrides the runtime settings.
    pub fn runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the records-per-batch of every exchange hop (micro-batch
    /// vectorization; default [`icpe_runtime::DEFAULT_BATCH_SIZE`]). `1`
    /// restores record-at-a-time transfers — the pre-batching dataflow and
    /// the baseline `bench_throughput` compares against. Batching is
    /// invisible to detection semantics: ticks and checkpoint barriers
    /// always land between batches, so the sealed pattern multiset is
    /// identical at every batch size.
    pub fn batch_size(mut self, records: usize) -> Self {
        self.runtime.batch_size = records.max(1);
        self
    }

    /// Sets the inter-subtask channel capacity in batches (backpressure
    /// depth; default 64). A batch
    /// ships at `batch_size` rows, so a hop holds about
    /// `channel_capacity × batch_size` rows.
    pub fn channel_capacity(mut self, batches: usize) -> Self {
        self.runtime.channel_capacity = batches.max(1);
        self
    }

    /// Overrides the aligner settings.
    pub fn aligner(mut self, aligner: AlignerConfig) -> Self {
        self.aligner = aligner;
        self
    }

    /// Enables hotspot-aware adaptive cell routing with the given
    /// balancer settings ([`BalancerConfig::default`] for the stock
    /// thresholds).
    pub fn rebalance(mut self, config: BalancerConfig) -> Self {
        self.rebalance = Some(config);
        self
    }

    /// Toggles per-stage/per-exchange instrumentation (default `true`;
    /// `false` registers no stage or exchange families, the status gauges
    /// still exist).
    pub fn instrument(mut self, on: bool) -> Self {
        self.instrument = on;
        self
    }

    /// Enables self-healing supervision with the given restart/backoff
    /// policy ([`Supervision::default`] for the stock one).
    pub fn supervised(mut self, policy: Supervision) -> Self {
        self.supervision = Some(policy);
        self
    }

    /// Installs a deterministic fault-injection plan (the chaos harness):
    /// worker panics/stalls and exchange delays/drops fire at the keyed
    /// logical positions. Checkpoint-write faults from the same plan are
    /// wired separately, at the persist layer. Testing only.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.runtime.fault = Some(plan);
        self
    }

    /// Validates and builds the configuration.
    pub fn build(self) -> Result<IcpeConfig, TypeError> {
        let constraints = self.constraints.ok_or_else(|| {
            TypeError::InvalidConstraints("constraints(M,K,L,G) must be provided".into())
        })?;
        let dbscan = DbscanParams::new(self.eps, self.min_pts)?;
        let lg = self.lg.unwrap_or(8.0 * self.eps);
        if lg <= 0.0 || !lg.is_finite() {
            return Err(TypeError::InvalidDbscanParams(format!(
                "grid width must be positive and finite, got {lg}"
            )));
        }
        Ok(IcpeConfig {
            lg,
            dbscan,
            metric: self.metric,
            constraints,
            semantics: self.semantics,
            parallelism: self.parallelism,
            sync_fanin: self.sync_fanin,
            align_shards: self.align_shards.unwrap_or(self.parallelism).max(1),
            runtime: self.runtime,
            aligner: self.aligner,
            rebalance: self.rebalance,
            instrument: self.instrument,
            supervision: self.supervision,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_constraints() {
        assert!(IcpeConfig::builder().build().is_err());
    }

    #[test]
    fn builder_defaults_are_sane() {
        let c = IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(0.5)
            .build()
            .unwrap();
        assert_eq!(c.lg, 4.0); // 8 × ε
        assert_eq!(c.dbscan.min_pts, 10);
        assert!(c.parallelism >= 1);
    }

    #[test]
    fn builder_rejects_bad_eps() {
        let b = IcpeConfig::builder()
            .constraints(Constraints::new(2, 2, 1, 1).unwrap())
            .epsilon(-1.0);
        assert!(b.build().is_err());
    }

    #[test]
    fn parallelism_clamps_to_one() {
        let c = IcpeConfig::builder()
            .constraints(Constraints::new(2, 2, 1, 1).unwrap())
            .parallelism(0)
            .build()
            .unwrap();
        assert_eq!(c.parallelism, 1);
    }

    #[test]
    fn align_shards_follows_parallelism_unless_set() {
        let c = IcpeConfig::builder()
            .constraints(Constraints::new(2, 2, 1, 1).unwrap())
            .parallelism(6)
            .build()
            .unwrap();
        assert_eq!(c.align_shards, 6);
        let c = IcpeConfig::builder()
            .constraints(Constraints::new(2, 2, 1, 1).unwrap())
            .parallelism(6)
            .align_shards(0)
            .build()
            .unwrap();
        assert_eq!(c.align_shards, 1, "explicit value clamps to ≥ 1");
    }

    #[test]
    fn sync_fanin_defaults_and_clamps() {
        let c = IcpeConfig::builder()
            .constraints(Constraints::new(2, 2, 1, 1).unwrap())
            .build()
            .unwrap();
        assert_eq!(c.sync_fanin, DEFAULT_SYNC_FANIN);
        let c = IcpeConfig::builder()
            .constraints(Constraints::new(2, 2, 1, 1).unwrap())
            .sync_fanin(0)
            .build()
            .unwrap();
        assert_eq!(c.sync_fanin, 2);
    }
}
