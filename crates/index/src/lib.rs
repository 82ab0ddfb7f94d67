//! # icpe-index — the two-layer GR-index
//!
//! The paper accelerates the per-snapshot range join with a two-layer index
//! (§5.1): a **global grid** that maps locations to cells (the distribution
//! keys of the stream runtime) and a **local R-tree** per grid cell.
//!
//! This crate provides both layers from scratch:
//!
//! * [`rtree::RTree`] — an arena-based R-tree over points with incremental
//!   insertion (needed for the Lemma-2 *query-during-build* trick), STR bulk
//!   loading (used by the SRJ baseline's build-then-query strategy) and
//!   rectangle / metric range queries;
//! * [`grid::Grid`] — cell-key computation (`⟨⌊x/lg⌋, ⌊y/lg⌋⟩`) plus the
//!   Lemma-1 *upper-half* replication key sets;
//! * [`gr::GrIndex`] — the assembled two-layer index for one snapshot.

pub mod gr;
pub mod grid;
pub mod rtree;

pub use gr::GrIndex;
pub use grid::{Grid, GridKey};
pub use rtree::RTree;
