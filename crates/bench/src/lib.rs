//! # icpe-bench — the evaluation harness (§7 of the paper)
//!
//! One binary per table/figure regenerates the corresponding experiment;
//! `cargo bench` runs the Criterion micro-benchmarks (component ablations).
//!
//! ```text
//! cargo run -p icpe-bench --release --bin table2_datasets
//! cargo run -p icpe-bench --release --bin fig10_clustering_vs_eps
//! cargo run -p icpe-bench --release --bin fig11_clustering_vs_lg
//! cargo run -p icpe-bench --release --bin fig12_detection_vs_or
//! cargo run -p icpe-bench --release --bin fig13_detection_vs_eps
//! cargo run -p icpe-bench --release --bin fig14_detection_vs_n
//! cargo run -p icpe-bench --release --bin fig15_enum_constraints
//! ```
//!
//! The workloads are scaled-down substitutes for the paper's datasets (see
//! DESIGN.md §4); scale can be raised with the environment variables
//! `ICPE_BENCH_OBJECTS` and `ICPE_BENCH_TICKS`. Absolute numbers differ from
//! the paper's 11-node cluster; EXPERIMENTS.md records whether the *shapes*
//! reproduce.
//!
//! The §7 comparison methods are built directly, never selected through
//! `IcpeConfig` (which configures the deployment, RJC + FBA, only): the
//! clustering figures call each clusterer, and the detection figures hand
//! [`measure_detection`] an `IcpeEngine::with_parts(clusterer, enumerator)`.

pub mod measure;
pub mod params;
pub mod workloads;

pub use measure::{measure_clustering, measure_detection, ClusteringRow, DetectionRow};
pub use params::{BenchParams, Dataset};
pub use workloads::{build_traces, extent, object_ratio, pattern_workload};

/// Parses `--flag value` from a raw argv slice, falling back to `default`
/// when the flag is absent or unparsable — the shared CLI helper of the
/// bench binaries.
pub fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
