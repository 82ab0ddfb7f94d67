//! # icpe-types — data model for co-movement pattern detection
//!
//! The vocabulary of the ICPE system (VLDB'19): GPS records, discretized
//! timestamps, snapshots, time sequences, DBSCAN parameters, and the general
//! co-movement pattern constraints `CP(M, K, L, G)`.
//!
//! Everything downstream — the GR-index, the range-join clustering, and the
//! three pattern-enumeration engines — is written against these types.

pub mod checkpoint;
pub mod constraints;
pub mod discretize;
pub mod error;
pub mod ids;
pub mod pattern;
pub mod point;
pub mod record;
pub mod shard;
pub mod snapshot;
pub mod timeseq;

pub use checkpoint::{
    AlignerCheckpoint, CellAssignment, CellLoadCheckpoint, ChainCheckpoint, CheckpointError,
    DiscretizerCheckpoint, EngineCheckpoint, HistoryRowCheckpoint, ObsCheckpoint, ObsCounterEntry,
    PipelineCheckpoint, ProgressCheckpoint, RoutingCheckpoint, TrajectoryStamp,
    WindowOwnerCheckpoint, CHECKPOINT_VERSION,
};
pub use constraints::{Constraints, DbscanParams};
pub use discretize::Discretizer;
pub use error::TypeError;
pub use ids::{ObjectId, Timestamp};
pub use pattern::{Pattern, PatternBatch, PatternRef};
pub use point::{DistanceMetric, Point, Rect};
pub use record::{GpsRecord, RawRecord};
pub use snapshot::{Cluster, ClusterSnapshot, Snapshot, SnapshotEntry};
pub use timeseq::TimeSequence;
