//! End-to-end throughput bench — the repo's first records/second baseline,
//! and the proof run of the vectorized micro-batch dataflow.
//!
//! Two measurement paths over the same group-walk workload:
//!
//! * **in-process**: records pre-materialized, pushed through
//!   `IcpePipeline::launch` as fast as the dataflow accepts them, wall
//!   clock from first push to `finish()` — the §8-style "how many points
//!   per second can the job absorb" number, sweeping the exchange-hop
//!   batch size (batch 1 = the record-at-a-time dataflow this PR
//!   replaces) and the keyed-stage parallelism;
//! * **serve edge**: the same records streamed over real TCP through a
//!   full `icpe-serve` instance by the `gen`-backed load generator, wall
//!   clock from first byte to `Server::finish()` — the number a fleet of
//!   reporting devices would actually observe.
//!
//! Writes a `BENCH_throughput.json` summary. The sealed **pattern
//! multiset** is asserted identical across every batch size and
//! parallelism (via an order-independent fingerprint — batching and
//! sharding must be invisible to detection semantics), and the serve-edge
//! delivery count must match it exactly-once.
//!
//! ```text
//! bench_throughput [--check] [--objects N] [--ticks T] [--parallelism P]
//!                  [--batches 1,4,16,64,256] [--fanin F]
//!                  [--serve-producers K] [--scaling-floor X]
//!                  [--overhead-cap F] [--out PATH]
//!
//! --check   CI smoke mode: assert the default batch size beats batch 1 by
//!           a generous margin (≥1.2× records/s) at parallelism P, that
//!           N = P in-process beats N = 1 by the scaling floor (default
//!           1.2×; the serial-tail regression gate — enforced only on
//!           hosts with ≥2 CPUs, where wall-clock parallelism exists),
//!           that the serve edge sustains ≥5k records/s, that stage
//!           instrumentation costs at most `--overhead-cap` (default 5%)
//!           of throughput vs an `instrument(false)` run, and that the
//!           busy-time bottleneck is not a serial head stage (the sharded
//!           aligner gate: `align`/`allocate`/`align-route` ranking first
//!           means the head re-serialized) — exit non-zero otherwise.
//! ```
//!
//! The summary also records where the wall clock goes: per-stage busy
//! seconds (from the metric registry's `stage_batch_seconds` histograms)
//! as shares of total stage time, plus the resulting bottleneck stage.

use icpe_bench::{arg, workloads::pattern_workload};
use icpe_core::{IcpeConfig, IcpePipeline, PipelineEvent, DEFAULT_SYNC_FANIN};
use icpe_runtime::MetricRegistry;
use icpe_serve::{loadgen, loadgen::LoadConfig, ServeConfig, Server, Subscription, Topic};
use icpe_types::{Constraints, GpsRecord, ObjectId, Pattern, Timestamp};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct RunStats {
    records_per_s: f64,
    avg_latency_ms: f64,
    patterns: u64,
    /// Order-independent hash of the sealed pattern multiset (objects +
    /// witnessing times of every pattern, duplicates included).
    fingerprint: u64,
    elapsed_s: f64,
}

fn config(parallelism: usize, batch: usize, fanin: usize) -> IcpeConfig {
    config_with_instrument(parallelism, batch, fanin, true)
}

fn config_with_instrument(
    parallelism: usize,
    batch: usize,
    fanin: usize,
    instrument: bool,
) -> IcpeConfig {
    // Group-walk workload with real co-movement so every stage (grid join,
    // DBSCAN, enumeration) does genuine work; constraints sized so pattern
    // volume stays a workload, not a blowup.
    IcpeConfig::builder()
        .constraints(Constraints::new(4, 8, 4, 2).expect("valid constraints"))
        .epsilon(1.0)
        .min_pts(5)
        .parallelism(parallelism)
        .sync_fanin(fanin)
        .batch_size(batch)
        .instrument(instrument)
        .build()
        .expect("valid config")
}

/// The multiset fingerprint of a pattern set: canonicalize each pattern to
/// `(objects, times)`, sort the whole collection, hash. Runs with equal
/// fingerprints sealed the identical pattern multiset.
fn fingerprint(patterns: &mut [(Vec<ObjectId>, Vec<Timestamp>)]) -> u64 {
    patterns.sort();
    let mut h = DefaultHasher::new();
    for (objects, times) in patterns.iter() {
        objects.hash(&mut h);
        for t in times {
            t.0.hash(&mut h);
        }
    }
    h.finish()
}

/// In-process run: push every record, drain to completion, measure wall
/// clock around the whole ingest+drain.
fn run_inprocess(config: &IcpeConfig, records: &[GpsRecord]) -> RunStats {
    run_inprocess_obs(config, records).0
}

/// Like [`run_inprocess`], also returning the pipeline's metric registry
/// (without stage families when the config runs with `instrument(false)`).
fn run_inprocess_obs(config: &IcpeConfig, records: &[GpsRecord]) -> (RunStats, MetricRegistry) {
    let patterns: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&patterns);
    let live = IcpePipeline::launch(config, move |e| {
        if let PipelineEvent::Pattern(p) = e {
            sink.lock().expect("pattern sink poisoned").push(p);
        }
    });
    let obs = live.obs().clone();
    let batch = config.runtime.batch_size.max(1);
    let started = Instant::now();
    let mut iter = records.iter().copied();
    loop {
        let chunk: Vec<GpsRecord> = iter.by_ref().take(batch).collect();
        if chunk.is_empty() {
            break;
        }
        live.push_batch(chunk).expect("pipeline alive");
    }
    let report = live.finish();
    let elapsed = started.elapsed().as_secs_f64();
    let patterns = std::mem::take(&mut *patterns.lock().expect("pattern sink poisoned"));
    let mut keys: Vec<(Vec<ObjectId>, Vec<Timestamp>)> = patterns
        .into_iter()
        .map(|p| (p.objects, p.times.times().to_vec()))
        .collect();
    let count = keys.len() as u64;
    (
        RunStats {
            records_per_s: records.len() as f64 / elapsed.max(1e-9),
            avg_latency_ms: report.avg_latency.as_secs_f64() * 1e3,
            patterns: count,
            fingerprint: fingerprint(&mut keys),
            elapsed_s: elapsed,
        },
        obs,
    )
}

/// Serve-edge run: full TCP round trip through an `icpe-serve` instance.
fn run_serve(
    parallelism: usize,
    batch: usize,
    fanin: usize,
    traces: &icpe_gen::TraceSet,
    producers: usize,
    records: usize,
) -> RunStats {
    let mut serve = ServeConfig::new(config(parallelism, batch, fanin));
    serve.ingest_batch = batch;
    // The publish side must absorb the pipeline's event bursts without
    // shedding our counting subscriber (we assert exactly-once delivery
    // end to end, so a shed would break the count).
    serve.subscriber_queue = 1 << 16;
    let server = Server::start(serve).expect("bind server");
    let addr = server.local_addr().to_string();
    // A real subscriber counts every delivered pattern event — the number
    // a downstream consumer actually receives, including the end-of-stream
    // flush (`finish` closes the subscription after draining its backlog).
    let subscription = Subscription::connect(&addr, Topic::Patterns).expect("subscribe");
    let counter = std::thread::spawn(move || {
        subscription
            .collect_lines()
            .map(|lines| lines.len() as u64)
            .unwrap_or(0)
    });
    let started = Instant::now();
    let report = loadgen::run(
        &addr,
        traces,
        &LoadConfig {
            producers,
            ..LoadConfig::default()
        },
    )
    .expect("load generator");
    assert_eq!(report.records_sent as usize, records);
    let metrics = server.finish();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(metrics.late_records, 0, "serve edge must not drop records");
    let patterns = counter.join().expect("subscriber thread");
    RunStats {
        records_per_s: records as f64 / elapsed.max(1e-9),
        avg_latency_ms: metrics.avg_latency.as_secs_f64() * 1e3,
        patterns,
        fingerprint: 0, // delivered as wire lines; compared by count
        elapsed_s: elapsed,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let objects: usize = arg(&args, "--objects", 1200);
    let ticks: u32 = arg(&args, "--ticks", 200);
    let parallelism: usize = arg(&args, "--parallelism", 8);
    let fanin: usize = arg(&args, "--fanin", DEFAULT_SYNC_FANIN);
    let scaling_floor: f64 = arg(&args, "--scaling-floor", 1.2);
    let overhead_cap: f64 = arg(&args, "--overhead-cap", 0.05);
    let serve_producers: usize = arg(&args, "--serve-producers", 4);
    let batches_arg: String = arg(&args, "--batches", "1,4,16,64,256".to_string());
    let out: String = arg(&args, "--out", "BENCH_throughput.json".to_string());
    let batches: Vec<usize> = batches_arg
        .split(',')
        .filter_map(|b| b.trim().parse().ok())
        .collect();

    let (_, traces) = pattern_workload(objects, ticks, 0xB47C);
    let records = traces.to_gps_records();
    println!("throughput bench — group-walk workload");
    println!(
        "  objects {objects}, ticks {ticks}, {} records, parallelism {parallelism}, sync fanin {fanin}\n",
        records.len()
    );

    // Batch-size sweep at fixed parallelism.
    println!(
        "{:>16} | {:>12} {:>10} {:>9} {:>10}",
        "mode", "records/s", "ms/snap", "elapsed", "patterns"
    );
    let mut batch_rows = Vec::new();
    for &batch in &batches {
        let stats = run_inprocess(&config(parallelism, batch, fanin), &records);
        println!(
            "{:>16} | {:>12.0} {:>10.3} {:>8.2}s {:>10}",
            format!("batch {batch}"),
            stats.records_per_s,
            stats.avg_latency_ms,
            stats.elapsed_s,
            stats.patterns
        );
        batch_rows.push((batch, stats));
    }
    let base = batch_rows
        .iter()
        .find(|(b, _)| *b == 1)
        .map(|&(_, s)| s)
        .unwrap_or_else(|| run_inprocess(&config(parallelism, 1, fanin), &records));
    for (b, s) in &batch_rows {
        assert_eq!(
            s.fingerprint, base.fingerprint,
            "batch size {b} changed the sealed pattern multiset"
        );
    }
    let default_batch = icpe_runtime::DEFAULT_BATCH_SIZE;
    let best = batch_rows
        .iter()
        .max_by(|a, b| a.1.records_per_s.total_cmp(&b.1.records_per_s))
        .map(|&(b, s)| (b, s))
        .expect("at least one batch size");
    let tuned = batch_rows
        .iter()
        .find(|(b, _)| *b == default_batch)
        .map(|&(_, s)| s)
        .unwrap_or(best.1);
    let speedup = tuned.records_per_s / base.records_per_s.max(1e-9);
    let best_speedup = best.1.records_per_s / base.records_per_s.max(1e-9);
    println!(
        "\nbatch {default_batch} vs batch 1: {speedup:.2}× records/s \
         (best: batch {} at {best_speedup:.2}×)",
        best.0
    );

    // Parallelism sweep at the default batch size (and at batch 1 for the
    // batching comparison). Every row must seal the identical pattern
    // multiset — the sync-merge tree included, and (since `align_shards` follows
    // the parallelism) the sharded TimeAligner + fused GridAllocate head
    // widens with every row too.
    let mut scale_rows = Vec::new();
    for p in [1usize, 2, 4, parallelism] {
        if scale_rows.iter().any(|&(q, _, _)| q == p) {
            continue;
        }
        let unbatched = run_inprocess(&config(p, 1, fanin), &records);
        let batched = run_inprocess(&config(p, default_batch, fanin), &records);
        println!(
            "{:>16} | {:>12.0} vs {:>10.0} unbatched ({:.2}×)",
            format!("N = {p}"),
            batched.records_per_s,
            unbatched.records_per_s,
            batched.records_per_s / unbatched.records_per_s.max(1e-9)
        );
        assert_eq!(
            batched.fingerprint, base.fingerprint,
            "parallelism {p} changed the sealed pattern multiset"
        );
        assert_eq!(
            unbatched.fingerprint, base.fingerprint,
            "parallelism {p} (unbatched) changed the sealed pattern multiset"
        );
        scale_rows.push((p, batched, unbatched));
    }

    // The scaling headline: in-process N = P vs N = 1 at the
    // default batch size. Before the merge path was parallelized this
    // ratio sat at ≈1.0 even on multi-core hosts — the serial tail
    // (align/allocate/sync funnel) capped the whole dataflow. The ratio
    // only *means* scaling where threads can actually run concurrently,
    // so the gate is conditioned on the host's CPU count: on a single-CPU
    // host the same ratio measures scheduler overhead, and enforcing a
    // floor there would gate on noise.
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let scaling_gate = if host_cpus >= 2 {
        "enforced"
    } else {
        "skipped_single_cpu_host"
    };
    let n1 = scale_rows
        .iter()
        .find(|&&(p, _, _)| p == 1)
        .map(|&(_, b, _)| b)
        .expect("N = 1 row always measured");
    let np = scale_rows
        .iter()
        .find(|&&(p, _, _)| p == parallelism)
        .map(|&(_, b, _)| b)
        .expect("N = parallelism row always measured");
    let scaling_speedup = np.records_per_s / n1.records_per_s.max(1e-9);
    println!(
        "\nscaling: N = {parallelism} at {:.0} records/s vs N = 1 at {:.0} \
         ({scaling_speedup:.2}×, floor {scaling_floor:.2}×, {host_cpus} host cpus, gate {scaling_gate})",
        np.records_per_s, n1.records_per_s
    );

    // Instrumentation overhead + per-stage time share: the observability
    // layer is always-on in production configs, so its cost is part of the
    // bench contract. Best-of-two per side — wall clock on a shared (or
    // single-CPU) host is noisy, and the *minimum* achievable elapsed time
    // is the comparable quantity.
    let cfg_on = config(parallelism, default_batch, fanin);
    let cfg_off = config_with_instrument(parallelism, default_batch, fanin, false);
    let mut rps_on = f64::MIN;
    let mut stage_secs: Vec<(String, f64)> = Vec::new();
    // Input batches aligner shard 0 processed in a pass over this stream,
    // the smaller of the two passes (batches close early when a queue
    // runs dry, so the count varies a little with timing).
    let mut shard0_batches = u64::MAX;
    for _ in 0..2 {
        let (stats, obs) = run_inprocess_obs(&cfg_on, &records);
        let batches = obs.counter("align-shard", 0, "stage_batches_in_total");
        shard0_batches = shard0_batches.min(batches.get());
        if stats.records_per_s > rps_on {
            rps_on = stats.records_per_s;
            stage_secs = obs.stage_seconds();
        }
    }
    let mut rps_off = f64::MIN;
    for _ in 0..2 {
        rps_off = rps_off.max(run_inprocess(&cfg_off, &records).records_per_s);
    }
    // Negative overhead is measurement noise (instrumented run happened to
    // win); report it as measured, gate on the cap.
    let overhead = 1.0 - rps_on / rps_off.max(1e-9);
    println!(
        "\ninstrumentation: {rps_on:.0} records/s on vs {rps_off:.0} off \
         ({:.1}% overhead, cap {:.0}%)",
        overhead * 100.0,
        overhead_cap * 100.0
    );

    // Where the wall clock goes: per-stage `process_batch` seconds from the
    // instrumented run, as shares of the total across all stages. With N
    // subtasks per keyed stage the shares sum busy time, not wall clock —
    // the point is the *ranking* (which stage to optimize next).
    let total_stage_secs: f64 = stage_secs.iter().map(|(_, s)| s).sum();
    let mut shares: Vec<(String, f64, f64)> = stage_secs
        .iter()
        .map(|(stage, secs)| (stage.clone(), *secs, secs / total_stage_secs.max(1e-9)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\n{:>20} | {:>9} {:>7}", "stage", "busy s", "share");
    for (stage, secs, share) in &shares {
        println!("{stage:>20} | {secs:>9.3} {:>6.1}%", share * 100.0);
    }
    let bottleneck_stage = shares
        .first()
        .map(|(s, _, _)| s.clone())
        .unwrap_or_else(|| "none".to_string());

    // Recovery path: the same workload through a supervised pipeline with
    // one mid-stream injected panic — what a failure costs in wall clock
    // (time from failure detection to replay completion) and in replayed
    // records. Informational: recorded in the summary, not `--check`-gated.
    let (recovery_ms, replayed_records, recoveries) = {
        // Panic aligner shard 0 halfway through its share of the stream,
        // whatever the workload scale and parallelism: the shard sees only
        // its own rows, so the ordinal comes from the batches it counted in
        // the instrumented passes. (Not the serial router: it drains its
        // ingest channel eagerly into a handful of giant batches, so its
        // batch ordinals don't track stream position.)
        let mid_batch = (shard0_batches / 2).max(1);
        let fault = icpe_runtime::FaultPlan::from_spec(&format!("panic@align-shard:0:{mid_batch}"))
            .expect("valid fault spec");
        let fault = std::sync::Arc::new(fault);
        let cfg = IcpeConfig::builder()
            .constraints(Constraints::new(4, 8, 4, 2).expect("valid constraints"))
            .epsilon(1.0)
            .min_pts(5)
            .parallelism(parallelism)
            .sync_fanin(fanin)
            .batch_size(default_batch)
            .supervised(icpe_core::Supervision {
                checkpoint_every_records: Some(8192),
                ..icpe_core::Supervision::default()
            })
            .fault_plan(Arc::clone(&fault))
            .build()
            .expect("valid supervised config");
        let live = IcpePipeline::launch(&cfg, |_| {});
        let obs = live.obs().clone();
        let mut iter = records.iter().copied();
        loop {
            let chunk: Vec<GpsRecord> = iter.by_ref().take(default_batch).collect();
            if chunk.is_empty() {
                break;
            }
            live.push_batch(chunk).expect("supervised pipeline alive");
        }
        live.finish();
        assert!(fault.exhausted(), "the injected panic never fired");
        (
            obs.gauge("supervisor", 0, "mean_recovery_ms").get(),
            obs.counter("supervisor", 0, "replayed_records_total").get(),
            obs.counter("supervisor", 0, "pipeline_recoveries_total")
                .get(),
        )
    };
    println!(
        "\nrecovery (1 injected panic, checkpoint every 8192 records): \
         {recoveries} recovery in {recovery_ms} ms, {replayed_records} records replayed"
    );

    // Serve edge: the same workload through real TCP.
    let serve = run_serve(
        parallelism,
        default_batch,
        fanin,
        &traces,
        serve_producers,
        records.len(),
    );
    println!(
        "\nserve edge ({serve_producers} producers over TCP): {:.0} records/s, {} patterns",
        serve.records_per_s, serve.patterns
    );
    assert_eq!(
        serve.patterns, base.patterns,
        "the TCP path must deliver exactly the in-process pattern count"
    );

    let batch_json: Vec<String> = batch_rows
        .iter()
        .map(|(b, s)| {
            format!(
                "    {{\"batch\": {b}, \"records_per_s\": {:.0}, \"avg_latency_ms\": {:.3}, \"patterns\": {}}}",
                s.records_per_s, s.avg_latency_ms, s.patterns
            )
        })
        .collect();
    let scale_json: Vec<String> = scale_rows
        .iter()
        .map(|(p, batched, unbatched)| {
            format!(
                "    {{\"parallelism\": {p}, \"records_per_s\": {:.0}, \"unbatched_records_per_s\": {:.0}, \"speedup\": {:.3}}}",
                batched.records_per_s,
                unbatched.records_per_s,
                batched.records_per_s / unbatched.records_per_s.max(1e-9)
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"throughput\",\n",
            "  \"workload\": {{\"kind\": \"group_walk\", \"objects\": {objects}, \"ticks\": {ticks}, \"records\": {records}}},\n",
            "  \"parallelism\": {parallelism},\n",
            "  \"default_batch\": {default_batch},\n",
            "  \"sync_fanin\": {fanin},\n",
            "  \"batch_sweep\": [\n{batch_sweep}\n  ],\n",
            "  \"parallelism_sweep\": [\n{scale_sweep}\n  ],\n",
            "  \"speedup_vs_unbatched\": {speedup:.3},\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"scaling_speedup\": {scaling:.3},\n",
            "  \"scaling_floor\": {floor:.3},\n",
            "  \"scaling_gate\": \"{scaling_gate}\",\n",
            "  \"instrumentation\": {{\"records_per_s_on\": {rps_on:.0}, \"records_per_s_off\": {rps_off:.0}, \"overhead\": {overhead:.4}, \"overhead_cap\": {overhead_cap:.4}}},\n",
            "  \"stage_time_share\": [\n{stage_share}\n  ],\n",
            "  \"bottleneck_stage\": \"{bottleneck_stage}\",\n",
            "  \"serve_edge\": {{\"producers\": {producers}, \"records_per_s\": {serve_rps:.0}, \"patterns\": {serve_patterns}}},\n",
            "  \"recovery\": {{\"recoveries\": {recoveries}, \"recovery_ms\": {recovery_ms}, \"replayed_records\": {replayed_records}}},\n",
            "  \"recovery_ms\": {recovery_ms},\n",
            "  \"replayed_records\": {replayed_records},\n",
            "  \"patterns\": {patterns}\n",
            "}}\n"
        ),
        objects = objects,
        ticks = ticks,
        records = records.len(),
        parallelism = parallelism,
        default_batch = default_batch,
        fanin = fanin,
        batch_sweep = batch_json.join(",\n"),
        scale_sweep = scale_json.join(",\n"),
        speedup = speedup,
        host_cpus = host_cpus,
        scaling = scaling_speedup,
        floor = scaling_floor,
        scaling_gate = scaling_gate,
        rps_on = rps_on,
        rps_off = rps_off,
        overhead = overhead,
        overhead_cap = overhead_cap,
        stage_share = shares
            .iter()
            .map(|(stage, secs, share)| format!(
                "    {{\"stage\": \"{stage}\", \"seconds\": {secs:.3}, \"share\": {share:.3}}}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        bottleneck_stage = bottleneck_stage,
        producers = serve_producers,
        serve_rps = serve.records_per_s,
        serve_patterns = serve.patterns,
        recoveries = recoveries,
        recovery_ms = recovery_ms,
        replayed_records = replayed_records,
        patterns = base.patterns,
    );
    std::fs::write(&out, json).expect("write bench summary");
    println!("wrote {out}");

    if check {
        // Generous CI bounds (shared runners are noisy); the committed
        // BENCH_throughput.json records the full-scale results.
        assert!(
            speedup >= 1.2,
            "CHECK FAILED: batch {default_batch} only {speedup:.2}× over batch 1"
        );
        if host_cpus >= 2 {
            assert!(
                scaling_speedup >= scaling_floor,
                "CHECK FAILED: N = {parallelism} only {scaling_speedup:.2}× over N = 1 \
                 (floor {scaling_floor:.2}×) — the serial merge tail is back"
            );
        } else {
            println!(
                "CHECK NOTE: scaling floor not enforced — single-CPU host, \
                 wall-clock N = {parallelism} vs N = 1 measures scheduler \
                 overhead instead of the merge path"
            );
        }
        assert!(
            serve.records_per_s >= 5_000.0,
            "CHECK FAILED: serve edge sustained only {:.0} records/s",
            serve.records_per_s
        );
        assert!(
            overhead <= overhead_cap,
            "CHECK FAILED: instrumentation costs {:.1}% throughput \
             (cap {:.0}%) — a hot-path metric grew a lock or allocation",
            overhead * 100.0,
            overhead_cap * 100.0
        );
        // The point of sharding the head: with N subtasks everywhere, a
        // serial stage at the top would cap the whole dataflow, so the
        // busy-time ranking must not crown one. (`align`/`allocate` are the
        // pre-sharding stage names — tripping on them means the topology
        // regressed outright; `align-route` is the residual serial router,
        // which only hashes, seals, and forwards.) Busy seconds, not wall
        // clock, so the ranking is meaningful on single-CPU hosts too.
        if parallelism >= 2 {
            let serial_head = ["align", "allocate", "align-route"];
            assert!(
                !serial_head.contains(&bottleneck_stage.as_str()),
                "CHECK FAILED: bottleneck stage is {bottleneck_stage} — \
                 the aligner head is serial again"
            );
        }
        println!("CHECK OK");
    }
}
