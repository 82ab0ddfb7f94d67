//! # icpe-runtime — a minimal pipelined stream-processing runtime
//!
//! The paper deploys ICPE on Apache Flink, relying on three platform
//! primitives: **keyed partitioning** (`keyBy` on a grid key or trajectory
//! id), **pipelined tuple-at-a-time transfer** between operators, and
//! **operator-local state** in parallel subtasks. This crate provides exactly
//! those primitives as an in-process, multi-threaded dataflow:
//!
//! * [`Stream`] — a builder for linear dataflows; every stage runs `p`
//!   parallel subtasks on OS threads connected by bounded crossbeam channels
//!   (bounded = natural backpressure, Flink's pipelined transfer mode).
//!   Transfers are **vectorized**: channels carry micro-batches (`Vec<T>`)
//!   assembled by per-destination router buffers, amortizing channel
//!   synchronization exactly as Flink's network buffers amortize theirs;
//! * [`Exchange`] — the routing strategy between consecutive stages
//!   (key-hash, round-robin, or broadcast);
//! * [`Envelope`] — the one message shape of a punctuated hop (keyed data,
//!   broadcast snapshot ticks and checkpoint barriers), with
//!   [`WindowAlign`] counting punctuation to a subtask's upstream width;
//! * [`Operator`] — the subtask logic: process one record (or one batch via
//!   [`Operator::process_batch`]), emit any number;
//! * [`TimeAligner`] — the paper's §4 stream-synchronization mechanism: the
//!   per-record *"last time"* link is chained to decide when a snapshot is
//!   complete and may be sealed, even under out-of-order arrival;
//! * [`MetricRegistry`] — the one place a pipeline's numbers live (the
//!   per-snapshot latency and throughput of every experiment in the paper
//!   included): atomic counters/gauges/histograms keyed
//!   `stage/subtask/name`, plus a bounded structured event journal. A
//!   [`Stream::instrument`]ed dataflow also records per-batch processing
//!   time and records in/out at every stage and queue depth plus
//!   blocked-send time at every exchange hop.
//!
//! The "cluster" of the paper (1 master + 10 slaves) maps to stage
//! parallelism: Figure 14's `N` machines become `N` subtasks per stage.

pub mod aligner;
pub mod envelope;
pub mod exchange;
pub mod fault;
pub mod metrics;
pub mod obs;
pub mod operator;
pub mod routing;
pub mod stream;

pub use aligner::{AlignerConfig, AlignerStatus, Routed, ShardedAligner, TimeAligner};
pub use envelope::{BarrierSeq, Envelope, Partial, TreeCombiner, WindowAlign};
pub use exchange::{Disconnected, Exchange, Routing};
pub use fault::{FaultKind, FaultPlan, FaultPoint, StageFailure};
pub use metrics::{MetricsReport, StreamProgress, WindowClock};
pub use obs::{
    Counter, ExchangeObs, Gauge, Histogram, HistogramSnapshot, MetricRegistry, ObsEvent,
    ObsEventKind, StageObs,
};
pub use operator::{filter_fn, flat_map_fn, map_fn, Collector, Operator};
pub use routing::{RoutingStatus, RoutingTable};
pub use stream::{
    ingest_channel, RuntimeConfig, Stream, StreamHandle, TreeSlot, DEFAULT_BATCH_SIZE,
};
