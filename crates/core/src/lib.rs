//! # icpe-core — the assembled ICPE framework
//!
//! Ties the substrates together into the paper's processing flow (Fig. 3):
//!
//! ```text
//! streaming GPS records
//!   → Discretization          (icpe-types::Discretizer: clock time → tick;
//!                              stateless, records leave it link-less)
//!   → Time alignment          (icpe-runtime::TimeAligner, §4 "last time":
//!                              the one per-trajectory state — it links
//!                              link-less records and rejects stale ticks)
//!   → Indexed clustering      (icpe-cluster: GridAllocate → GridQuery →
//!                              GridSync → DBSCAN, §5)
//!   → Pattern enumeration     (icpe-pattern: FBA, §6)
//!   → co-movement patterns
//! ```
//!
//! Two deployment forms are provided:
//!
//! * [`IcpeEngine`] — a deterministic, single-threaded engine processing one
//!   snapshot at a time. The reference form: used by correctness tests, the
//!   per-phase latency benchmarks, and as the simplest API entry point.
//!   `IcpeEngine::new` runs RJC + FBA; [`IcpeEngine::with_parts`] runs any
//!   §7 baseline pair (SRJ/GDC clustering, BA/VBA enumeration).
//! * [`pipeline::IcpePipeline`] — the distributed streaming deployment on
//!   `icpe-runtime`: parallel keyed GridQuery subtasks, parallel keyed
//!   enumeration subtasks, broadcast snapshot-boundary ticks, and
//!   latency/throughput metrics — the paper's Flink job, in-process. Runs
//!   either batch ([`IcpePipeline::run`]) or live
//!   ([`IcpePipeline::launch`]): records pushed through a bounded channel,
//!   results delivered to a sink callback — the form the `icpe-serve`
//!   network layer deploys.

pub mod config;
pub mod engine;
pub mod pipeline;
pub mod status;

pub use config::{
    ClustererKind, EnumeratorKind, IcpeConfig, IcpeConfigBuilder, Supervision, DEFAULT_SYNC_FANIN,
};
pub use engine::{IcpeEngine, StreamingEngine};
pub use icpe_cluster::{BalancerConfig, SyncStatus};
pub use icpe_runtime::AlignerStatus;
pub use icpe_runtime::RoutingStatus;
pub use pipeline::{IcpePipeline, LivePipeline, PipelineEvent, PipelineOutput, RecordSender};
pub use status::{HealthState, PipelineStatus, StatusSnapshot};
