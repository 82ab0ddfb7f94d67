//! Figure 13 — pattern-detection latency/throughput and average cluster
//! size vs. ε, for the F and V methods.
//!
//! Expected shape (paper): both degrade as ε grows (larger join search
//! space *and* larger clusters to enumerate); F keeps the latency edge,
//! V the throughput edge.

use icpe_bench::{measure_detection, pattern_workload, BenchParams};
use icpe_cluster::RjcClusterer;
use icpe_core::{IcpeConfig, IcpeEngine};
use icpe_pattern::VbaEngine;

fn main() {
    let params = BenchParams::default();
    params.print_header("Figure 13 — Pattern Detection vs. ε");

    let (_, traces) = pattern_workload(params.objects, params.ticks, 0xF17);
    let snapshots = traces.to_snapshots();

    println!(
        "\n{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>8}",
        "eps", "F ms", "V ms", "F tps", "V tps", "avg|C|"
    );
    // ε sweep in workload units around the group cohesion scale.
    for eps in [1.0, 1.5, 2.0, 3.0, 4.5, 6.0] {
        let config = IcpeConfig::builder()
            .constraints(params.constraints)
            .epsilon(eps)
            .min_pts(params.min_pts)
            .build()
            .expect("valid config");
        let vba = IcpeEngine::with_parts(
            RjcClusterer::new(config.lg, config.dbscan, config.metric),
            VbaEngine::new(config.engine_config()),
        );
        let f = measure_detection(IcpeEngine::new(config), &snapshots);
        let v = measure_detection(vba, &snapshots);
        println!(
            "{:>8.2} | {:>9.3} {:>9.3} | {:>9.0} {:>9.0} | {:>8.1}",
            eps,
            f.total_ms(),
            v.total_ms(),
            f.throughput_tps,
            v.throughput_tps,
            v.avg_cluster_size,
        );
    }
}
