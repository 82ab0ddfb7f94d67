//! # icpe-serve — the network-facing ingestion & pattern-delivery edge
//!
//! Everything upstream of this crate is an in-process dataflow; this crate
//! makes it a *service*. GPS records arrive over TCP from many concurrent
//! producers, flow through the live [`icpe_core::IcpePipeline`], and
//! detected co-movement patterns are pushed to TCP subscribers with bounded
//! latency — the paper's deployment story (devices → Flink job → consumers)
//! with `std::net` in place of the cluster fabric.
//!
//! ## Wire protocol (newline-delimited text; see [`protocol`])
//!
//! A connection's first line picks its role:
//!
//! | first line          | role       | then |
//! |---------------------|------------|------|
//! | a record line       | producer   | one record per line, CSV `obj_id,time,x,y` or NDJSON `{"id":…,"time":…,"x":…,"y":…}`, auto-detected per line |
//! | `SUBSCRIBE <topic>` | subscriber | server streams NDJSON events (`patterns`, `snapshots`, or `all`) |
//! | `STATUS`            | status     | server writes a `key=value` block and closes |
//! | `METRICS`           | metrics    | server writes the per-stage/per-exchange metric families in Prometheus text exposition format and closes |
//! | `EVENTS [since]`    | events     | server writes the retained journal entries with `seq > since` (one JSON object per line) and closes |
//!
//! Producers are stamped and validated server-side: clock times are
//! discretized to ticks ([`icpe_types::Discretizer`]), each record gets its
//! trajectory's §4 *last time* link, and malformed / non-finite / stale
//! lines are counted and dropped — the pipeline only ever sees well-formed,
//! per-trajectory-monotone records.
//!
//! ## Backpressure & shedding
//!
//! * **Ingest is lossless and blocking**: the pipeline's input channel is
//!   bounded, so when detection falls behind, producer handlers block,
//!   kernel TCP buffers fill, and producers throttle (end-to-end flow
//!   control, no unbounded queue).
//! * **Delivery is non-blocking and shedding**: each subscriber has a
//!   bounded event queue; a subscriber that lags more than the queue bound
//!   is disconnected (after its backlog drains) rather than allowed to
//!   stall ingestion. See [`hub::Hub`].
//!
//! ## Pieces
//!
//! * [`Server`] — accept loop + thread-per-connection handlers;
//! * [`loadgen`] — a `gen`-backed TCP load generator (soak-test the server
//!   with planted ground-truth groups);
//! * [`client`] — blocking subscriber/status/producer helpers;
//! * `icpe-serve` binary — run a standalone server from the CLI.

pub mod client;
pub mod hub;
pub mod loadgen;
pub mod protocol;
pub mod recovery;
pub mod server;
pub mod stats;

pub use client::{fetch_events, fetch_metrics, fetch_status, EventFollower, Subscription};
pub use protocol::{Command, Event, PatternEvent, SnapshotEvent, Topic, WireRecord};
pub use recovery::{CheckpointPolicy, ServeCheckpoint};
pub use server::{ServeConfig, Server};
pub use stats::ServerStats;
