//! # icpe-cluster — indexed clustering of streaming snapshots
//!
//! The first phase of ICPE (§5): for every snapshot, compute the range join
//! `RJ(S_t, ε)` and feed it to DBSCAN. This crate implements:
//!
//! * [`gridobject`] — Definition 12's `GridObject` replication records;
//! * [`allocate`] — **GridAllocate** (Algorithm 1): key computation and the
//!   Lemma-1 upper-half replication;
//! * [`query`] — **GridQuery** (Algorithm 2): a per-cell x-sorted sweep
//!   with the Lemma-2 query-during-build trick;
//! * [`sync`] — **GridSync**: the sync-merge tree's status view, and pair
//!   deduplication for the schemes that find pairs twice (SRJ, ablations);
//! * [`dbscan`] — DBSCAN over the neighbor-pair stream (union-find closure
//!   of the core-point graph, O(pairs));
//! * [`rjc`] — the assembled RJC clustering method (ours);
//! * [`srj`] — the SRJ baseline: full-region replication, build-then-query;
//! * [`gdc`] — the GDC baseline: ε-width grid DBSCAN without R-trees;
//! * [`naive`] — O(n²) reference implementations used as test oracles;
//! * [`balance`] — hotspot-aware load accounting and the cell→subtask
//!   rebalancing controller behind the pipeline's adaptive routing.

pub mod allocate;
pub mod balance;
pub mod dbscan;
pub mod gdc;
pub mod gridobject;
pub mod naive;
pub mod query;
pub mod rjc;
pub mod srj;
pub mod sync;

pub use allocate::{grid_allocate, grid_allocate_full, grid_allocate_into};
pub use balance::{BalanceOutcome, BalancerConfig, CellLoad, LoadBalancer, LoadTracker};
pub use dbscan::{dbscan_from_pairs, DbscanOutcome};
pub use gdc::GdcClusterer;
pub use gridobject::GridObject;
pub use query::{query_cells, CellQueryEngine};
pub use rjc::RjcClusterer;
pub use srj::SrjClusterer;
pub use sync::{PairCollector, SyncStatus};

use icpe_types::{ClusterSnapshot, Snapshot};

/// A per-snapshot clustering method: consumes a snapshot, returns its
/// cluster snapshot. Implemented by RJC, SRJ and GDC so the benchmark
/// harness can swap them uniformly.
pub trait SnapshotClusterer {
    /// Human-readable name ("RJC", "SRJ", "GDC").
    fn name(&self) -> &'static str;

    /// Clusters one snapshot.
    fn cluster(&self, snapshot: &Snapshot) -> ClusterSnapshot;
}
