//! Figure 12 — pattern-detection latency/throughput and average cluster
//! size vs. the object ratio `Or`, for the B / F / V methods.
//!
//! Or subsamples the population evenly, so the planted groups — and hence
//! the clusters — thin out at low Or and reach full size at 100%, exactly
//! the cluster-size growth the paper's figure shows. Expected shape
//! (paper): B only runs while clusters are small (its partition guard fires
//! at high Or — reported as "n/a"); F has the best per-snapshot latency of
//! the complete methods, V the best throughput; everything degrades as Or
//! grows.

use icpe_bench::workloads::{object_sample, pattern_workload_sized};
use icpe_bench::{measure_detection, BenchParams, DetectionRow};
use icpe_cluster::RjcClusterer;
use icpe_core::{IcpeConfig, IcpeEngine};
use icpe_pattern::{BaselineEngine, EngineConfig, VbaEngine};
use icpe_types::{Constraints, Snapshot};

fn main() {
    let params = BenchParams::default();
    params.print_header("Figure 12 — Pattern Detection vs. Or (object ratio)");

    // Large planted groups so clusters are big at Or = 100%.
    let (_, full_traces) = pattern_workload_sized(params.objects, params.ticks, 14, 0xF16);
    let constraints = params.constraints;

    println!(
        "\n{:>5} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8}",
        "Or", "B ms", "F ms", "V ms", "B tps", "F tps", "V tps", "avg|C|"
    );
    for &ratio in &params.or_values {
        let traces = object_sample(&full_traces, ratio);
        let snapshots = traces.to_snapshots();
        let mut lat = Vec::new();
        let mut tps = Vec::new();
        let mut avg_cluster = 0.0;
        for row in measure_methods(&config_for(constraints, &params), &snapshots) {
            avg_cluster = row.avg_cluster_size;
            if row.overflowed > 0 {
                // The paper's "B cannot run": the exponential enumeration
                // exceeded the partition guard.
                lat.push("n/a".to_string());
                tps.push("n/a".to_string());
            } else {
                lat.push(format!("{:.3}", row.total_ms()));
                tps.push(format!("{:.0}", row.throughput_tps));
            }
        }
        println!(
            "{:>4.0}% | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8.1}",
            ratio * 100.0,
            lat[0],
            lat[1],
            lat[2],
            tps[0],
            tps[1],
            tps[2],
            avg_cluster,
        );
    }
    println!("\n'n/a' = the Baseline's exponential enumeration exceeded its partition");
    println!("guard — the paper's 'B cannot run' regime (it appears past Or = 60%).");
}

/// The B, F and V rows, in that order, each on RJC clustering.
fn measure_methods(config: &IcpeConfig, snapshots: &[Snapshot]) -> [DetectionRow; 3] {
    let rjc = || RjcClusterer::new(config.lg, config.dbscan, config.metric);
    let engine = config.engine_config();
    // B refuses partitions beyond 2^10 subsets; F and V have no guard.
    let ba = BaselineEngine::new(EngineConfig {
        max_baseline_partition: 10,
        ..engine
    });
    let vba = VbaEngine::new(engine);
    [
        measure_detection(IcpeEngine::with_parts(rjc(), ba), snapshots),
        measure_detection(IcpeEngine::new(config.clone()), snapshots),
        measure_detection(IcpeEngine::with_parts(rjc(), vba), snapshots),
    ]
}

fn config_for(constraints: Constraints, params: &BenchParams) -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(constraints)
        .epsilon(2.0) // group cohesion is ~0.7; arena 250
        .min_pts(params.min_pts)
        .build()
        .expect("valid config")
}
