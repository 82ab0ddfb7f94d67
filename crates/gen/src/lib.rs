//! # icpe-gen — trajectory workload generators
//!
//! The paper evaluates on GeoLife (real), a proprietary Hangzhou Taxi
//! dataset, and trajectories from the Brinkhoff network-based generator on
//! the Las Vegas road network. The real datasets are not redistributable, so
//! this crate provides synthetic equivalents that match their published
//! statistics and — more importantly for the experiments — their structural
//! knobs: spatial density, cluster-size distribution, co-travel group
//! structure, and sampling cadence. See DESIGN.md §4 for the substitution
//! rationale.
//!
//! * [`network`] — a synthetic road network with shortest-path routing (the
//!   substrate of the Brinkhoff-style generator);
//! * [`brinkhoff`] — network-constrained moving objects with per-class
//!   speeds and re-routing, 1 s sampling (the paper's synthetic dataset);
//! * [`group_walk`] — planted co-movement groups with known ground truth;
//!   the correctness workload for the pattern engines;
//! * [`geolife`] / [`taxi`] — presets shaped like the two real datasets;
//! * [`hotspot`] — Zipf-skewed site popularity with a drifting hotspot
//!   center: the adversarial input for hotspot-aware repartitioning;
//! * [`stream`] — trace → snapshot / raw-record conversion, disorder
//!   injection for the time-aligner, id churn, and Table-2-style dataset
//!   statistics.

pub mod brinkhoff;
pub mod geolife;
pub mod group_walk;
pub mod hotspot;
pub mod io;
pub mod network;
pub mod stream;
pub mod taxi;

pub use brinkhoff::{BrinkhoffConfig, BrinkhoffGenerator};
pub use geolife::{GeoLifeConfig, GeoLifeGenerator};
pub use group_walk::{GroupWalkConfig, GroupWalkGenerator};
pub use hotspot::{HotspotConfig, HotspotGenerator};
pub use network::RoadNetwork;
pub use stream::{
    churn_ids, dataset_stats, disorder_gps, to_raw_records, DatasetStats, DisorderConfig, TraceSet,
};
pub use taxi::{TaxiConfig, TaxiGenerator};
