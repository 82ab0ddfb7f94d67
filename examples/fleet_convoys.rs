//! Fleet convoys: find taxis that travel together through a road network.
//!
//! Runs the Taxi-shaped workload (hot-spot-biased fleet on a synthetic urban
//! grid, 5 s sampling) through the **distributed streaming pipeline** and
//! reports convoys — the trajectory-compression / fleet-management use case
//! from the paper's introduction — together with the pipeline's latency and
//! throughput. The pipeline enumerates with FBA.
//!
//! ```text
//! cargo run --release --example fleet_convoys
//! ```

use icpe::core::{IcpeConfig, IcpePipeline};
use icpe::gen::{TaxiConfig, TaxiGenerator};
use icpe::pattern::PatternSummary;
use icpe::types::Constraints;

fn main() {
    let generator = TaxiGenerator::new(TaxiConfig {
        num_objects: 150,
        num_ticks: 120,
        seed: 2026,
        ..TaxiConfig::default()
    });
    let traces = generator.traces();
    let records = traces.to_gps_records();
    println!(
        "taxi workload: {} taxis, {} records, {} hotspots",
        traces.num_trajectories(),
        records.len(),
        generator.hotspots().len(),
    );

    // Convoys: ≥ 3 taxis within ε of each other for ≥ 12 ticks (one minute
    // at 5 s sampling), in stretches of ≥ 6 ticks with gaps ≤ 3.
    let constraints = Constraints::new(3, 12, 6, 3).expect("valid constraints");

    let config = IcpeConfig::builder()
        .constraints(constraints)
        .epsilon(3.0)
        .min_pts(3)
        .parallelism(4)
        .build()
        .expect("valid configuration");

    let out = IcpePipeline::run(&config, records);
    let summary = PatternSummary::from_reports(&out.patterns);
    println!(
        "\n[FBA] {} convoy reports, {} distinct fleets, {} maximal | {}",
        summary.reports,
        summary.distinct_sets,
        summary.maximal.len(),
        out.metrics,
    );
    for p in summary.maximal.iter().take(5) {
        println!("  convoy {p}");
    }
    if summary.maximal.len() > 5 {
        println!("  … and {} more", summary.maximal.len() - 5);
    }
}
