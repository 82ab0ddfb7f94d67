//! Figure 14 — pattern-detection latency/throughput vs. the number of
//! "machines" N, for the F method.
//!
//! N maps to the parallelism of the keyed stages (GridQuery, enumeration)
//! of the streaming pipeline — DESIGN.md §4 documents the cluster→threads
//! substitution. The pipeline enumerates with FBA only, so this figure
//! reports the F series; V is compared against F on the serial engine in
//! `fig12` and `fig13`. Expected shape (paper): latency falls and
//! throughput rises with N.

use icpe_bench::BenchParams;
use icpe_core::{IcpeConfig, IcpePipeline};

fn main() {
    let params = BenchParams::default();
    params.print_header("Figure 14 — Pattern Detection vs. N (parallelism)");

    // A heavier workload than the other figures: the keyed stages must
    // dominate for parallelism to show (the paper's cluster has real
    // per-snapshot work; at toy scale the exchange overhead wins).
    let (_, traces) =
        icpe_bench::workloads::pattern_workload_sized(params.objects * 3, params.ticks, 10, 0xF18);
    let records = traces.to_gps_records();
    println!(
        "streaming {} records through the distributed pipeline\n",
        records.len()
    );

    println!("{:>3} | {:>10} | {:>10}", "N", "F ms", "F tps");
    for &n in &params.n_values {
        let config = IcpeConfig::builder()
            .constraints(params.constraints)
            .epsilon(2.0)
            .min_pts(params.min_pts)
            .parallelism(n)
            .build()
            .expect("valid config");
        let out = IcpePipeline::run(&config, records.clone());
        println!(
            "{:>3} | {:>10.3} | {:>10.0}",
            n,
            out.metrics.avg_latency.as_secs_f64() * 1e3,
            out.metrics.throughput_tps,
        );
    }
}
