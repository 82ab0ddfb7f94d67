//! The checkpoint data model: versioned, serde-backed snapshots of every
//! piece of long-lived detection state.
//!
//! The paper's job is stateful — open enumeration windows, per-member bit
//! strings, and the §4 time-alignment chains all live in operator memory —
//! so a crash forgets every candidate the stream has accumulated. These
//! types are the durable form of that state. They live in `icpe-types`
//! (rather than next to the live structures they mirror) so every layer of
//! the stack — `icpe-runtime`, `icpe-pattern`, `icpe-core`, `icpe-serve`,
//! `icpe-persist` — can speak the same schema without dependency cycles.
//!
//! ## Canonical form
//!
//! Producers of these types MUST emit canonical order: collections that are
//! hash maps in live state are sorted by their key (owner id, member id,
//! trajectory id) before serialization, and times ascend. This makes the
//! byte stream a pure function of the logical state: serialize → deserialize
//! → re-serialize is byte-identical, which the recovery property tests pin
//! down and the on-disk CRC relies on.
//!
//! ## Versioning
//!
//! [`CHECKPOINT_VERSION`] names the schema of [`PipelineCheckpoint`]. Any
//! change to these structs (field added/removed/renamed/reordered — field
//! order is part of the JSON byte format) must bump it; a golden-fixture
//! test in this crate fails otherwise, and restore refuses checkpoints whose
//! embedded version differs from the binary's.

use crate::ids::ObjectId;
use crate::snapshot::Snapshot;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Schema version embedded in every [`PipelineCheckpoint`]. Bump on ANY
/// change to the checkpoint structs (the golden-fixture schema test
/// enforces this).
///
/// v2: added the optional `routing` section (adaptive cell routing:
/// epoch, explicit cell→subtask assignments, learned per-cell loads).
///
/// v3: added the optional `sync` section (sharded GridSync merge tree:
/// cumulative dedup/seal counters plus any pending pair partitions,
/// captured as per-subtask pieces merged at the sink like the engine
/// section).
///
/// v4: added the optional `obs` section (cumulative metric-registry
/// counters summed per `(stage, name)` at the cut, so per-stage
/// observability survives a restore instead of resetting to zero).
///
/// v5: the `aligner` section is now assembled from per-shard pieces
/// (sharded aligner head): the frontier router deposits chains + counters,
/// each aligner shard deposits its buffered rows, and
/// [`AlignerCheckpoint::merge`] canonicalizes buffered snapshot rows by
/// object id — so the bytes are a pure function of the logical state
/// regardless of the writing deployment's shard count. The struct fields
/// are unchanged, but the canonical row order within `buffers` differs
/// from v4's arrival order, so v4 files are refused rather than reread
/// under the new canon.
///
/// v6: the `routing` section carried a recursive 2×2 sub-cell tier: a
/// per-cell `level`, the per-base-cell depth tree and split/coalesce
/// counters.
///
/// v7: that tier is gone — adaptive routing places whole grid cells only.
/// [`CellAssignment`] and [`CellLoadCheckpoint`] lose `level`, and
/// [`RoutingCheckpoint`] loses the depth tree and its two counters. v6
/// directories are refused, not upgraded.
///
/// v8: FBA is the only engine whose state checkpoints, so the engine
/// section is FBA's window table alone: [`EngineCheckpoint`] loses its
/// `kind` discriminator, the Baseline's skipped-partition counter and
/// VBA's per-owner episode lists (and their two structs). v7 directories
/// are refused, not upgraded.
///
/// v9: neighbor pairs are exactly-once at the source (the Lemma-1 key set
/// keeps only cells after home), so the keyed dedup shards ahead of the
/// merge tree and their state are gone: `SyncCheckpoint` is the tree
/// finalizer's two counters, without `duplicates` or `pending` (and its
/// per-window struct). v8 directories are refused, not upgraded.
///
/// v10: each number is stored once. [`ProgressCheckpoint`] is the two
/// counters no other section holds (windows sealed, pairs merged), so
/// `SyncCheckpoint` and the `sync` section are gone; the late-drop count
/// and the sealed frontier it copied are derived from the aligner section
/// on restore. `obs` is no longer optional. A v9 body does not parse as
/// v10 (its progress lacks `windows_sealed`): v9 files are refused at load.
pub const CHECKPOINT_VERSION: u32 = 10;

/// Errors raised when restoring state from a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint was written by a different schema version.
    UnsupportedVersion {
        /// Version found in the checkpoint.
        found: u32,
        /// Version this binary supports.
        supported: u32,
    },
    /// The checkpoint is structurally valid JSON but semantically broken
    /// (e.g. a pending window start that is no open window), or the
    /// configuration cannot resume it (an engine other than FBA).
    Invalid(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint schema version {found} is not supported (this binary speaks {supported})"
            ),
            CheckpointError::Invalid(msg) => write!(f, "invalid checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One trajectory's §4 *last time* chaining state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainCheckpoint {
    /// The trajectory.
    pub id: ObjectId,
    /// Largest time through which this trajectory's reports are fully
    /// known.
    pub clarified: Option<u32>,
    /// Received records whose `last_time` link has not connected yet, as
    /// `(last_time, own_time)` pairs in ascending `last_time` order.
    pub waiting: Vec<(u32, u32)>,
}

/// Durable form of the [`TimeAligner`](crate::Snapshot)-owning runtime
/// state: buffered (unsealed) snapshots, per-trajectory chains, the sealed
/// frontier, and the observability counters that must survive a restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlignerCheckpoint {
    /// Buffered, not-yet-sealed snapshots in ascending time order.
    pub buffers: Vec<Snapshot>,
    /// Per-trajectory chaining state, ascending by trajectory id.
    pub chains: Vec<ChainCheckpoint>,
    /// All times `< sealed_up_to` are sealed; `None` until the first seal.
    pub sealed_up_to: Option<u32>,
    /// Largest record time seen.
    pub max_seen: u32,
    /// Records dropped for arriving after their snapshot sealed
    /// (cumulative; rehydrated on restore so observability does not reset).
    pub late_dropped: u64,
}

impl AlignerCheckpoint {
    /// A checkpoint for an aligner that has seen nothing.
    pub fn empty() -> AlignerCheckpoint {
        AlignerCheckpoint {
            buffers: Vec::new(),
            chains: Vec::new(),
            sealed_up_to: None,
            max_seen: 0,
            late_dropped: 0,
        }
    }

    /// Merges per-shard aligner checkpoints into one deployment-independent
    /// checkpoint, mirroring [`EngineCheckpoint::merge`]: the late-drop
    /// counter sums, the clock fields (`sealed_up_to`, `max_seen`) take the
    /// max, chains concatenate and re-sort by trajectory id (shards own
    /// disjoint ids), and buffered snapshots union by time with their rows
    /// canonically sorted by id — so the merged bytes are a pure function
    /// of the logical state, independent of how many shards wrote pieces.
    pub fn merge(pieces: Vec<AlignerCheckpoint>) -> AlignerCheckpoint {
        let mut merged = AlignerCheckpoint::empty();
        let mut buffers: BTreeMap<u32, Snapshot> = BTreeMap::new();
        for piece in pieces {
            merged.late_dropped += piece.late_dropped;
            merged.max_seen = merged.max_seen.max(piece.max_seen);
            merged.sealed_up_to = match (merged.sealed_up_to, piece.sealed_up_to) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            merged.chains.extend(piece.chains);
            for snap in piece.buffers {
                buffers
                    .entry(snap.time.0)
                    .or_insert_with(|| Snapshot::new(snap.time))
                    .entries
                    .extend(snap.entries);
            }
        }
        merged.chains.sort_by_key(|c| c.id);
        merged.buffers = buffers
            .into_values()
            .filter(|s| !s.is_empty())
            .map(|mut s| {
                s.entries.sort_by_key(|e| e.id);
                s
            })
            .collect();
        merged
    }

    /// The restore piece for one aligner shard at the restored deployment:
    /// buffered rows and chains filtered to the trajectories `keep` selects
    /// (the same owner → shard mapping the head's exchange routes by), the
    /// clock fields replicated, and the cumulative late-drop counter
    /// included only when `with_counters` — restore it into one shard, or
    /// the next checkpoint's merge would multiply it by the shard count.
    pub fn piece(&self, with_counters: bool, keep: impl Fn(ObjectId) -> bool) -> AlignerCheckpoint {
        AlignerCheckpoint {
            buffers: self
                .buffers
                .iter()
                .filter_map(|s| {
                    let entries: Vec<_> =
                        s.entries.iter().filter(|e| keep(e.id)).copied().collect();
                    (!entries.is_empty()).then_some(Snapshot {
                        time: s.time,
                        entries,
                    })
                })
                .collect(),
            chains: self.chains.iter().filter(|c| keep(c.id)).cloned().collect(),
            sealed_up_to: self.sealed_up_to,
            max_seen: self.max_seen,
            late_dropped: if with_counters { self.late_dropped } else { 0 },
        }
    }
}

/// One buffered partition row of an owner's η-window history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRowCheckpoint {
    /// The discretized time of this row.
    pub time: u32,
    /// The owner's partition members at that time, ascending.
    pub members: Vec<ObjectId>,
}

/// Open η-window state for one partition owner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowOwnerCheckpoint {
    /// The partition owner.
    pub owner: ObjectId,
    /// Pending window start times, ascending (the release queue).
    pub starts: Vec<u32>,
    /// Buffered partition history rows, ascending by time.
    pub history: Vec<HistoryRowCheckpoint>,
}

/// Durable form of the FBA engine's state — the only enumeration engine
/// whose state checkpoints: its η-window table, one entry per owner with
/// a window pending.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Last cluster-snapshot time the engine ticked through.
    pub last_time: Option<u32>,
    /// Open η-window state per owner, ascending by owner id.
    pub window_owners: Vec<WindowOwnerCheckpoint>,
}

impl EngineCheckpoint {
    /// A checkpoint for an engine that has seen nothing.
    pub fn empty() -> EngineCheckpoint {
        EngineCheckpoint {
            last_time: None,
            window_owners: Vec::new(),
        }
    }

    /// Merges per-subtask engine checkpoints (disjoint owner sets, shared
    /// clock) into one deployment-independent checkpoint. Owners are
    /// re-sorted so the merged form is canonical regardless of the
    /// parallelism that produced the pieces.
    pub fn merge(pieces: Vec<EngineCheckpoint>) -> EngineCheckpoint {
        let mut merged = EngineCheckpoint::empty();
        for piece in pieces {
            // Every subtask sees every broadcast tick, so the clocks agree;
            // take the max to be safe against empty subtasks.
            merged.last_time = merged.last_time.max(piece.last_time);
            merged.window_owners.extend(piece.window_owners);
        }
        merged.window_owners.sort_by_key(|o| o.owner);
        merged
    }
}

/// One explicit cell→subtask route of the adaptive routing table. Cells
/// are stored by grid coordinate (not key hash): hashes are process-local
/// (see `shard`), so restore re-derives them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellAssignment {
    /// Cell column index.
    pub x: i64,
    /// Cell row index.
    pub y: i64,
    /// The subtask this cell is pinned to. Restoring at a smaller
    /// parallelism drops assignments whose subtask no longer exists (they
    /// fall back to consistent hashing until the balancer re-learns).
    pub subtask: u32,
}

/// One cell's learned load (EWMA of records + pairs per window), in
/// milli-units so the byte format stays integer-exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLoadCheckpoint {
    /// Cell column index.
    pub x: i64,
    /// Cell row index.
    pub y: i64,
    /// EWMA load × 1000, rounded.
    pub load_milli: u64,
}

/// Durable form of the adaptive routing layer: the epoch-versioned
/// cell→subtask table plus the load statistics it was learned from, so a
/// restored deployment resumes on the learned placement instead of
/// re-discovering every hotspot from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingCheckpoint {
    /// Routing epoch at the cut (0 = never rebalanced; every table swap
    /// increments it).
    pub epoch: u64,
    /// Explicit assignments, ascending by `(x, y)`. Unlisted cells route
    /// by consistent hash.
    pub assignments: Vec<CellAssignment>,
    /// Learned per-cell loads, ascending by `(x, y)`.
    pub loads: Vec<CellLoadCheckpoint>,
    /// Cells whose route changed across all epochs so far (cumulative
    /// observability counter; survives restore).
    pub cells_migrated: u64,
}

/// One cumulative metric-registry counter at the checkpoint cut, summed
/// across the subtasks of its stage (the restored deployment may use a
/// different parallelism, so only the per-stage total is meaningful).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsCounterEntry {
    /// The stage (or exchange-hop receiving stage) that owns the counter.
    pub stage: String,
    /// The metric family name (e.g. `stage_records_in_total`). Names
    /// ending in `seconds_total` hold nanoseconds.
    pub name: String,
    /// Cumulative value at the cut.
    pub value: u64,
}

/// Durable form of the metric registry's cumulative counters, canonically
/// sorted by `(stage, name)` with zero-valued series omitted. Gauges and
/// histogram samples are wall-clock-bound and restart empty.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsCheckpoint {
    /// Counter totals, ascending by `(stage, name)`.
    pub counters: Vec<ObsCounterEntry>,
}

/// The cumulative progress counters no other section holds, frozen at the
/// cut; the operators that own them publish them again on restore.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgressCheckpoint {
    /// Windows sealed through enumeration before the cut (the sink's
    /// completed count; the sync-merge finalizer's seal count equals it at
    /// every cut).
    pub windows_sealed: u64,
    /// Neighbor pairs merged across those windows (the sync-merge
    /// finalizer's counter, deposited as the barrier aligns there).
    pub pairs_merged: u64,
}

/// A complete, consistent snapshot of a detection pipeline: everything
/// needed to resume the job as if it had never stopped, provided the input
/// stream is replayed from `records_ingested`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// Monotone checkpoint sequence number within one pipeline run.
    pub seq: u64,
    /// Records the aligner consumed before the checkpoint barrier — the
    /// replay offset: feed the restored pipeline the input stream starting
    /// at this record index and the run is equivalent to an uninterrupted
    /// one.
    pub records_ingested: u64,
    /// Time-alignment state.
    pub aligner: AlignerCheckpoint,
    /// Merged enumeration-engine state (deployment-independent: restore
    /// may use a different parallelism).
    pub engine: EngineCheckpoint,
    /// Progress counters at the cut.
    pub progress: ProgressCheckpoint,
    /// Adaptive routing state (`None` when the deployment routes
    /// statically or runs a clusterer without a keyed grid stage).
    pub routing: Option<RoutingCheckpoint>,
    /// Cumulative metric-registry counters at the cut (empty when the
    /// writer registered none).
    pub obs: ObsCheckpoint,
}

impl PipelineCheckpoint {
    /// Validates the embedded schema version.
    pub fn check_version(&self) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: self.version,
                supported: CHECKPOINT_VERSION,
            });
        }
        Ok(())
    }

    /// The largest window sealed before the cut, derived from the aligner's
    /// frontier (`sealed_up_to` is `u + 1` once `u` sealed). A frontier of
    /// `Some(0)` names no window — no aligner writes it — and is refused as
    /// [`CheckpointError::Invalid`] rather than underflowing.
    pub fn max_sealed(&self) -> Result<Option<u32>, CheckpointError> {
        match self.aligner.sealed_up_to {
            Some(0) => Err(CheckpointError::Invalid(
                "aligner.sealed_up_to is Some(0): no window precedes it".into(),
            )),
            up_to => Ok(up_to.map(|u| u - 1)),
        }
    }
}

/// One trajectory's server-side stamping state (see
/// [`Discretizer`](crate::Discretizer)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryStamp {
    /// The trajectory.
    pub id: ObjectId,
    /// Last discretized tick emitted for it.
    pub last_tick: u32,
}

/// Durable form of the server-side [`Discretizer`](crate::Discretizer):
/// without it, a restarted server would re-admit duplicate ticks and break
/// every trajectory's *last time* chain across the restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscretizerCheckpoint {
    /// Clock time mapping to interval 0.
    pub epoch: f64,
    /// Interval duration in seconds.
    pub interval: f64,
    /// Per-trajectory last emitted tick, ascending by trajectory id.
    pub last_seen: Vec<TrajectoryStamp>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Timestamp;

    fn sample_engine() -> EngineCheckpoint {
        EngineCheckpoint {
            last_time: Some(7),
            window_owners: vec![WindowOwnerCheckpoint {
                owner: ObjectId(3),
                starts: vec![5, 7],
                history: vec![HistoryRowCheckpoint {
                    time: 5,
                    members: vec![ObjectId(4), ObjectId(9)],
                }],
            }],
        }
    }

    #[test]
    fn version_check() {
        let mut ckpt = PipelineCheckpoint {
            version: CHECKPOINT_VERSION,
            seq: 1,
            records_ingested: 10,
            aligner: AlignerCheckpoint {
                buffers: vec![Snapshot::new(Timestamp(3))],
                chains: Vec::new(),
                sealed_up_to: Some(3),
                max_seen: 4,
                late_dropped: 2,
            },
            engine: sample_engine(),
            progress: ProgressCheckpoint {
                windows_sealed: 3,
                pairs_merged: 120,
            },
            routing: Some(RoutingCheckpoint {
                epoch: 4,
                assignments: vec![CellAssignment {
                    x: -2,
                    y: 5,
                    subtask: 1,
                }],
                loads: vec![CellLoadCheckpoint {
                    x: -2,
                    y: 5,
                    load_milli: 1500,
                }],
                cells_migrated: 3,
            }),
            obs: ObsCheckpoint {
                counters: vec![ObsCounterEntry {
                    stage: "align".into(),
                    name: "stage_records_in_total".into(),
                    value: 10,
                }],
            },
        };
        assert!(ckpt.check_version().is_ok());
        ckpt.version = CHECKPOINT_VERSION + 1;
        assert_eq!(
            ckpt.check_version(),
            Err(CheckpointError::UnsupportedVersion {
                found: CHECKPOINT_VERSION + 1,
                supported: CHECKPOINT_VERSION
            })
        );
    }

    #[test]
    fn max_sealed_derives_from_the_aligner_frontier() {
        let mut ckpt = PipelineCheckpoint {
            version: CHECKPOINT_VERSION,
            seq: 1,
            records_ingested: 0,
            aligner: AlignerCheckpoint::empty(),
            engine: EngineCheckpoint::empty(),
            progress: ProgressCheckpoint::default(),
            routing: None,
            obs: ObsCheckpoint::default(),
        };
        assert_eq!(ckpt.max_sealed(), Ok(None), "nothing sealed yet");
        ckpt.aligner.sealed_up_to = Some(5);
        assert_eq!(ckpt.max_sealed(), Ok(Some(4)));
        ckpt.aligner.sealed_up_to = Some(0);
        assert!(
            matches!(ckpt.max_sealed(), Err(CheckpointError::Invalid(_))),
            "a hostile Some(0) is refused, not underflowed"
        );
    }

    #[test]
    fn merge_sums_and_sorts() {
        let a = sample_engine();
        let b = EngineCheckpoint {
            last_time: Some(7),
            window_owners: vec![WindowOwnerCheckpoint {
                owner: ObjectId(1),
                starts: vec![7],
                history: Vec::new(),
            }],
        };
        let merged = EngineCheckpoint::merge(vec![a, b]);
        assert_eq!(merged.last_time, Some(7));
        let owners: Vec<u32> = merged.window_owners.iter().map(|o| o.owner.0).collect();
        assert_eq!(owners, vec![1, 3], "owners re-sorted canonically");
        assert_eq!(EngineCheckpoint::merge(Vec::new()).last_time, None);
    }

    #[test]
    fn aligner_merge_sums_counters_and_canonicalizes_rows() {
        let mut shard_a = Snapshot::new(Timestamp(4));
        shard_a.push(ObjectId(9), crate::Point::new(1.0, 0.0), Some(Timestamp(3)));
        let mut shard_b = Snapshot::new(Timestamp(4));
        shard_b.push(ObjectId(2), crate::Point::new(0.0, 1.0), None);
        let router = AlignerCheckpoint {
            buffers: Vec::new(),
            chains: vec![
                ChainCheckpoint {
                    id: ObjectId(9),
                    clarified: Some(4),
                    waiting: Vec::new(),
                },
                ChainCheckpoint {
                    id: ObjectId(2),
                    clarified: Some(3),
                    waiting: vec![(5, 6)],
                },
            ],
            sealed_up_to: Some(4),
            max_seen: 6,
            late_dropped: 3,
        };
        let piece = |snap: Snapshot| AlignerCheckpoint {
            buffers: vec![snap],
            chains: Vec::new(),
            sealed_up_to: None,
            max_seen: 0,
            late_dropped: 0,
        };
        // Piece order must not matter: the merged form is canonical.
        let m1 = AlignerCheckpoint::merge(vec![
            router.clone(),
            piece(shard_a.clone()),
            piece(shard_b.clone()),
        ]);
        let m2 = AlignerCheckpoint::merge(vec![piece(shard_b), router, piece(shard_a)]);
        assert_eq!(m1, m2, "merge is independent of piece order");
        assert_eq!(m1.late_dropped, 3);
        assert_eq!(m1.sealed_up_to, Some(4));
        assert_eq!(m1.max_seen, 6);
        let chain_ids: Vec<u32> = m1.chains.iter().map(|c| c.id.0).collect();
        assert_eq!(chain_ids, vec![2, 9], "chains re-sorted canonically");
        assert_eq!(m1.buffers.len(), 1);
        let row_ids: Vec<u32> = m1.buffers[0].entries.iter().map(|e| e.id.0).collect();
        assert_eq!(row_ids, vec![2, 9], "rows sorted by id within a time");
    }

    #[test]
    fn aligner_piece_owner_filters_and_restores_counters_once() {
        let mut buffered = Snapshot::new(Timestamp(7));
        buffered.push(ObjectId(1), crate::Point::new(0.0, 0.0), None);
        buffered.push(ObjectId(2), crate::Point::new(1.0, 0.0), Some(Timestamp(6)));
        buffered.push(ObjectId(4), crate::Point::new(2.0, 0.0), None);
        let merged = AlignerCheckpoint {
            buffers: vec![buffered],
            chains: vec![
                ChainCheckpoint {
                    id: ObjectId(1),
                    clarified: Some(7),
                    waiting: Vec::new(),
                },
                ChainCheckpoint {
                    id: ObjectId(2),
                    clarified: Some(6),
                    waiting: Vec::new(),
                },
            ],
            sealed_up_to: Some(7),
            max_seen: 9,
            late_dropped: 5,
        };
        let even = merged.piece(true, |o| o.0 % 2 == 0);
        assert_eq!(even.late_dropped, 5, "counters restore into one shard");
        let even_rows: Vec<u32> = even.buffers[0].entries.iter().map(|e| e.id.0).collect();
        assert_eq!(even_rows, vec![2, 4]);
        assert_eq!(even.chains.len(), 1);
        assert_eq!(even.chains[0].id, ObjectId(2));
        assert_eq!(even.sealed_up_to, Some(7), "clock fields replicate");
        assert_eq!(even.max_seen, 9);
        let odd = merged.piece(false, |o| o.0 % 2 == 1);
        assert_eq!(odd.late_dropped, 0, "only one piece carries the counter");
        let odd_rows: Vec<u32> = odd.buffers[0].entries.iter().map(|e| e.id.0).collect();
        assert_eq!(odd_rows, vec![1]);
        // Times with no surviving rows vanish from the piece.
        let none = merged.piece(false, |_| false);
        assert!(none.buffers.is_empty());
        // A reshard round-trip conserves the totals: merging every piece
        // back yields the counters exactly once.
        let roundtrip = AlignerCheckpoint::merge(vec![even, odd]);
        assert_eq!(roundtrip.late_dropped, merged.late_dropped);
        assert_eq!(roundtrip, merged);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let ckpt = AlignerCheckpoint {
            buffers: vec![Snapshot::new(Timestamp(9))],
            chains: vec![ChainCheckpoint {
                id: ObjectId(1),
                clarified: Some(8),
                waiting: vec![(10, 12)],
            }],
            sealed_up_to: Some(9),
            max_seen: 12,
            late_dropped: 4,
        };
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: AlignerCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn errors_display() {
        let e = CheckpointError::UnsupportedVersion {
            found: 8,
            supported: 9,
        };
        assert!(e.to_string().contains('8') && e.to_string().contains('9'));
        assert!(CheckpointError::Invalid("x".into())
            .to_string()
            .contains('x'));
    }
}
