//! # icpe-index — the layers of the GR-index
//!
//! The paper accelerates the per-snapshot range join with a two-layer index
//! (§5.1): a **global grid** that maps locations to cells (the distribution
//! keys of the stream runtime) and a **local R-tree** per grid cell.
//!
//! This crate provides both layers from scratch; no type assembles them.
//! The live GridQuery keeps the grid but replaces the local R-tree with an
//! x-sorted sweep per cell (`icpe_cluster::query`): cells hold a few dozen
//! objects at most, too few for a tree to pay for its build. The R-tree
//! serves the SRJ baseline and the ablation / benchmark replays.
//!
//! * [`rtree::RTree`] — an arena-based R-tree over points with incremental
//!   insertion (the paper's Lemma-2 *query-during-build* trick), STR bulk
//!   loading (used by the SRJ baseline's build-then-query strategy) and
//!   rectangle / metric range queries;
//! * [`grid::Grid`] — cell-key computation (`⟨⌊x/lg⌋, ⌊y/lg⌋⟩`) plus the
//!   Lemma-1 *upper-half* replication key sets.

pub mod grid;
pub mod rtree;

pub use grid::{Grid, GridKey};
pub use rtree::RTree;
