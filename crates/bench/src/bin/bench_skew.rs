//! Skew bench — static `hash(cell) % N` vs. hotspot-aware adaptive
//! routing on the Zipf moving-hotspot workload.
//!
//! Measures, per routing mode: pipeline throughput, average latency, and
//! the per-window `max/mean` GridQuery subtask-load ratio (p95 and mean
//! over all windows; 1.0 = perfectly balanced, `N` = everything on one
//! subtask). The adaptive run also yields the **hindsight-LPT oracle
//! floor**: per window, the actual observed cell loads are LPT-packed into
//! `N` bins — the best any cell-granularity placement could have done —
//! and each mode's `gap_to_floor` (its p95 over the oracle p95) lands in
//! the `BENCH_skew.json` summary, next to the host's CPU count. Only an
//! adaptive deployment keeps per-cell loads (its balancer consumes them);
//! a cell's load — its objects and its pairs — does not depend on where
//! the cell is placed, so the one floor serves both modes.
//!
//! ```text
//! bench_skew [--check] [--objects N] [--ticks T] [--parallelism P]
//!            [--theta F] [--out PATH]
//!
//! --check   CI smoke mode: assert the balancer migrated, and that
//!           adaptive imbalance beats static by a generous margin (p95
//!           ratio ≥ 1.2×) at no worse than 0.6× throughput; exit
//!           non-zero otherwise.
//! ```

use icpe_bench::arg;
use icpe_core::{BalancerConfig, IcpeConfig, IcpePipeline, PipelineEvent};
use icpe_gen::{HotspotConfig, HotspotGenerator};
use icpe_types::{Constraints, GpsRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
struct RunStats {
    throughput_tps: f64,
    avg_latency_ms: f64,
    p95_imbalance: f64,
    mean_imbalance: f64,
    routing_epoch: u64,
    cells_migrated: u64,
    patterns: u64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 1.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one pipeline; returns its stats, its hindsight-oracle p95 (1.0
/// for a static run, which keeps no per-cell loads), and its per-window
/// imbalance series (so `--series` prints the very run the summary numbers
/// came from).
fn run(
    config: &IcpeConfig,
    records: &[GpsRecord],
    parallelism: usize,
) -> (RunStats, f64, Vec<(u32, f64)>) {
    let patterns = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&patterns);
    let live = IcpePipeline::launch(config, move |e| {
        if let PipelineEvent::Pattern(_) = e {
            sink.fetch_add(1, Ordering::Relaxed);
        }
    });
    let routing = live.status().clone();
    for r in records {
        live.push(*r).expect("pipeline alive");
    }
    let report = live.finish();
    let status = routing.routing();
    let series = routing.imbalance_series();
    let mut ratios: Vec<f64> = series.iter().map(|&(_, ratio)| ratio).collect();
    let mean = if ratios.is_empty() {
        1.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));

    // Hindsight floor over this run's own observed windows: per window,
    // LPT-pack the actual cell loads — the best any cell-granularity
    // placement could have done.
    let mut oracle_ratios: Vec<f64> = Vec::new();
    for (_, cells) in routing.sealed_cell_windows() {
        let mut weights: Vec<u64> = cells.iter().map(|&(_, w)| w).collect();
        weights.sort_unstable_by(|a, b| b.cmp(a));
        let mut bins = vec![0u64; parallelism];
        for w in weights {
            *bins.iter_mut().min().expect("bins") += w;
        }
        let total: u64 = bins.iter().sum();
        if total > 0 {
            let mean = total as f64 / parallelism as f64;
            oracle_ratios.push(*bins.iter().max().expect("bins") as f64 / mean);
        }
    }
    oracle_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    let stats = RunStats {
        throughput_tps: report.throughput_tps,
        avg_latency_ms: report.avg_latency.as_secs_f64() * 1e3,
        p95_imbalance: percentile(&ratios, 0.95),
        mean_imbalance: mean,
        routing_epoch: status.epoch,
        cells_migrated: status.cells_migrated,
        patterns: patterns.load(Ordering::Relaxed),
    };
    (stats, percentile(&oracle_ratios, 0.95), series)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let objects: usize = arg(&args, "--objects", 600);
    let ticks: u32 = arg(&args, "--ticks", 120);
    let parallelism: usize = arg(&args, "--parallelism", 8);
    let theta: f64 = arg(&args, "--theta", 1.05);
    let cooldown: u32 = arg(&args, "--cooldown", 0);
    let decay: f64 = arg(&args, "--decay", 0.5);
    // The measured metric is the GridQuery stage's records+pairs split, so
    // the planner optimizes the same objective here (the serve default of
    // 2.0 also counts each pair's hand-off into the sync-merge tree, which
    // this bench does not measure).
    let pair_weight: f64 = arg(&args, "--pair-weight", 1.0);
    // Bounded in-flight data, as any deployed streaming system runs: with
    // the library default (1024 batches/channel) the whole bench workload
    // fits in channel buffers, the finalizer races tens of windows ahead
    // of the query stage, and the balancer plans every boundary blind —
    // no pair feedback ever arrives in time. A small bound keeps the
    // stages within a few windows of each other, the regime the paper's
    // feedback loop (and serve's socket backpressure) operates in. Same
    // setting for both modes.
    let channel_capacity: usize = arg(&args, "--channel-capacity", 16);
    let out: String = arg(&args, "--out", "BENCH_skew.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Workload shape: long hot-site dwell (travel is load the balancer
    // cannot predict) and strong Zipf skew — the regime static hashing
    // handles worst; see the generator docs for the knobs.
    let defaults = HotspotConfig::default();
    let gen = HotspotGenerator::new(HotspotConfig {
        num_objects: objects,
        num_ticks: ticks,
        zipf_s: arg(&args, "--zipf", 1.6),
        orbit_turns: arg(&args, "--orbit", defaults.orbit_turns),
        retarget_every: arg(&args, "--retarget", 100),
        ..defaults
    });
    let records = gen.traces().to_gps_records();
    println!("skew bench — Zipf moving-hotspot workload");
    println!(
        "  objects {objects}, ticks {ticks}, parallelism {parallelism}, θ {theta}, \
         host cpus {host_cpus}"
    );
    println!("  {} records\n", records.len());

    let build = |adaptive: bool| {
        // min_pts above the squad size: lone squads still produce the
        // range-join pairs that load the grid stage, but only genuine
        // slot-sharing crowds cluster — keeping enumeration cheap so the
        // bench measures the clustering stage the balancer repartitions.
        // Grid width: finer than the 8×ε default so a hotspot spans
        // several cells — cells are the atomic unit of routing (Figure 11
        // shows clustering itself is flat across this range).
        let mut b = IcpeConfig::builder()
            .constraints(Constraints::new(4, 8, 4, 2).expect("valid constraints"))
            .epsilon(1.0)
            .grid_width(arg(&args, "--lg", 8.0))
            .min_pts(5)
            .parallelism(parallelism)
            .channel_capacity(channel_capacity);
        if adaptive {
            b = b.rebalance(BalancerConfig {
                theta,
                cooldown_windows: cooldown,
                decay,
                sync_pair_weight: pair_weight,
                ..BalancerConfig::default()
            });
        }
        b.build().expect("valid config")
    };

    // The oracle floor comes from the adaptive run's observed windows.
    let (static_run, _, static_series) = run(&build(false), &records, parallelism);
    let (adaptive_run, oracle_p95, adaptive_series) = run(&build(true), &records, parallelism);
    let gap = |p95: f64| p95 / oracle_p95.max(1.0);

    if args.iter().any(|a| a == "--series") {
        for (name, series) in [("static", &static_series), ("adaptive", &adaptive_series)] {
            let series: Vec<String> = series.iter().map(|(t, r)| format!("{t}:{r:.2}")).collect();
            println!("{name} series: {}", series.join(" "));
        }
    }

    println!(
        "{:>10} | {:>9} {:>9} | {:>8} {:>8} {:>8} | {:>6} {:>9}",
        "mode", "tps", "ms", "p95 imb", "avg imb", "gap", "epoch", "migrated"
    );
    for (name, s) in [("static", &static_run), ("adaptive", &adaptive_run)] {
        println!(
            "{:>10} | {:>9.1} {:>9.3} | {:>8.3} {:>8.3} {:>8.3} | {:>6} {:>9}",
            name,
            s.throughput_tps,
            s.avg_latency_ms,
            s.p95_imbalance,
            s.mean_imbalance,
            gap(s.p95_imbalance),
            s.routing_epoch,
            s.cells_migrated
        );
    }
    println!("    oracle | hindsight-LPT floor p95 {oracle_p95:.3}");
    let improvement = static_run.p95_imbalance / adaptive_run.p95_imbalance.max(1.0);
    let tps_ratio = adaptive_run.throughput_tps / static_run.throughput_tps.max(1e-9);
    println!("\np95 imbalance improvement: {improvement:.2}× (throughput ratio {tps_ratio:.2})");
    assert_eq!(
        static_run.patterns, adaptive_run.patterns,
        "routing must not change the sealed pattern multiset"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"skew\",\n",
            "  \"workload\": {{\"kind\": \"hotspot\", \"objects\": {objects}, \"ticks\": {ticks}, \"zipf_s\": {zipf}}},\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"parallelism\": {parallelism},\n",
            "  \"theta\": {theta},\n",
            "  \"oracle_p95\": {oracle:.3},\n",
            "  \"static\": {{\"throughput_tps\": {s_tps:.1}, \"avg_latency_ms\": {s_ms:.3}, \"p95_imbalance\": {s_p95:.3}, \"mean_imbalance\": {s_mean:.3}, \"gap_to_floor\": {s_gap:.3}}},\n",
            "  \"adaptive\": {{\"throughput_tps\": {a_tps:.1}, \"avg_latency_ms\": {a_ms:.3}, \"p95_imbalance\": {a_p95:.3}, \"mean_imbalance\": {a_mean:.3}, \"gap_to_floor\": {a_gap:.3}, \"routing_epoch\": {a_epoch}, \"cells_migrated\": {a_migr}}},\n",
            "  \"p95_imbalance_improvement\": {imp:.3},\n",
            "  \"throughput_ratio\": {tps_ratio:.3},\n",
            "  \"patterns\": {patterns}\n",
            "}}\n"
        ),
        objects = objects,
        ticks = ticks,
        zipf = arg(&args, "--zipf", 1.6),
        host_cpus = host_cpus,
        parallelism = parallelism,
        theta = theta,
        oracle = oracle_p95,
        s_tps = static_run.throughput_tps,
        s_ms = static_run.avg_latency_ms,
        s_p95 = static_run.p95_imbalance,
        s_mean = static_run.mean_imbalance,
        s_gap = gap(static_run.p95_imbalance),
        a_tps = adaptive_run.throughput_tps,
        a_ms = adaptive_run.avg_latency_ms,
        a_p95 = adaptive_run.p95_imbalance,
        a_mean = adaptive_run.mean_imbalance,
        a_gap = gap(adaptive_run.p95_imbalance),
        a_epoch = adaptive_run.routing_epoch,
        a_migr = adaptive_run.cells_migrated,
        imp = improvement,
        tps_ratio = tps_ratio,
        patterns = static_run.patterns,
    );
    std::fs::write(&out, json).expect("write bench summary");
    println!("wrote {out}");

    if check {
        // Generous CI bounds: the full-scale run demonstrates ≥ 2×; the
        // smoke run only guards against regressions (and flaky machines).
        assert!(
            adaptive_run.routing_epoch > 0,
            "CHECK FAILED: the balancer never migrated on a Zipf hotspot workload"
        );
        assert!(
            improvement >= 1.2,
            "CHECK FAILED: adaptive p95 imbalance {:.3} not ≥1.2× better than static {:.3}",
            adaptive_run.p95_imbalance,
            static_run.p95_imbalance
        );
        assert!(
            tps_ratio >= 0.6,
            "CHECK FAILED: adaptive throughput dropped to {tps_ratio:.2}× of static"
        );
        println!("CHECK OK");
    }
}
