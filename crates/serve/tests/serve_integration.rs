//! End-to-end tests of the serve subsystem over real TCP on an ephemeral
//! port: producer → server → pipeline → subscriber, with planted
//! ground-truth groups so the expected patterns are known exactly.

use icpe_core::{IcpeConfig, IcpePipeline};
use icpe_gen::{DisorderConfig, GroupWalkConfig, GroupWalkGenerator};
use icpe_runtime::AlignerConfig;
use icpe_serve::loadgen::{self, LoadConfig};
use icpe_serve::{client, Event, ServeConfig, Server, Subscription, Topic};
use icpe_types::Constraints;
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;

fn engine_config(parallelism: usize) -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(Constraints::new(4, 8, 4, 2).unwrap())
        .epsilon(2.5)
        .min_pts(4)
        .parallelism(parallelism)
        // Generous alignment allowances: the producers race (bounded by
        // the server's skew window) *and* scramble their own streams, so
        // give first records comfortable headroom before their snapshot
        // seals.
        .aligner(AlignerConfig {
            max_lag: 64,
            emit_empty: true,
            lateness: 16,
        })
        .build()
        .unwrap()
}

fn planted_generator(num_snapshots: u32) -> GroupWalkGenerator {
    GroupWalkGenerator::new(GroupWalkConfig {
        num_objects: 30,
        num_groups: 3,
        group_size: 5,
        num_snapshots,
        seed: 7,
        ..GroupWalkConfig::default()
    })
}

/// Blocks until the hub has registered a subscriber. `SUBSCRIBE` has no
/// reply: `Subscription::connect` returns once the line is sent, and
/// events published before the handler registers are not that
/// subscriber's to see — so producing must wait for the registration.
fn wait_for_subscriber(server: &Server) {
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.stats().subscribers.load(Ordering::Relaxed) == 0 {
        assert!(
            std::time::Instant::now() < give_up,
            "subscriber was never registered"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Pattern events keyed by (objects, times) — the exactly-once identity.
fn pattern_keys(events: &[Event]) -> Vec<(Vec<u32>, Vec<u32>)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Pattern(p) => Some((p.objects.clone(), p.times.clone())),
            Event::Snapshot(_) => None,
        })
        .collect()
}

#[test]
fn planted_patterns_reach_subscriber_exactly_once() {
    let generator = planted_generator(30);
    let traces = generator.traces();

    // Ground truth: the same records through the in-process batch pipeline.
    let reference = IcpePipeline::run(&engine_config(3), traces.to_gps_records());
    let mut expected: Vec<(Vec<u32>, Vec<u32>)> = reference
        .patterns
        .iter()
        .map(|p| {
            (
                p.objects.iter().map(|o| o.0).collect(),
                p.times.times().iter().map(|t| t.0).collect(),
            )
        })
        .collect();
    expected.sort();
    assert!(
        !expected.is_empty(),
        "workload must plant detectable groups"
    );

    let server = Server::start(ServeConfig::new(engine_config(3))).unwrap();
    let addr = server.local_addr().to_string();

    let subscriber = Subscription::connect(&addr, Topic::All).unwrap();
    let collector = std::thread::spawn(move || subscriber.collect_events().unwrap());
    wait_for_subscriber(&server);

    // Three producers, both wire formats, cross-object disorder (per-object
    // order preserved — the §4 stream model).
    let report = loadgen::run(
        &addr,
        &traces,
        &LoadConfig {
            producers: 3,
            json_fraction: 0.34,
            disorder: Some(DisorderConfig {
                delay_probability: 0.3,
                max_displacement: 40,
                seed: 11,
            }),
            ..LoadConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.records_sent, 30 * 30);

    let metrics = server.finish();
    let events = collector.join().unwrap();

    // Stamping accepted everything: no record was late or malformed.
    assert_eq!(metrics.late_records, 0, "disorder was within lateness");
    assert_eq!(metrics.snapshots, 30, "every snapshot sealed");

    // Every reference pattern arrives exactly once, and nothing else.
    let mut got = pattern_keys(&events);
    let got_len = got.len();
    got.sort();
    let deduped: BTreeSet<_> = got.iter().cloned().collect();
    assert_eq!(deduped.len(), got_len, "no pattern delivered twice");
    assert_eq!(
        got, expected,
        "subscriber saw exactly the reference patterns"
    );

    // The planted groups are among the delivered object sets.
    let delivered_sets: BTreeSet<Vec<u32>> = got.iter().map(|(objs, _)| objs.clone()).collect();
    for group in planted_generator(30).planted_groups() {
        let ids: Vec<u32> = group.iter().map(|o| o.0).collect();
        assert!(
            delivered_sets.contains(&ids),
            "planted group {ids:?} missing from {delivered_sets:?}"
        );
    }

    // Snapshot events arrived in order and account for every pattern.
    let sealed: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            Event::Snapshot(s) => Some(s.time),
            Event::Pattern(_) => None,
        })
        .collect();
    assert_eq!(sealed, (0..30).collect::<Vec<_>>());
    let per_window: HashMap<u32, usize> =
        events.iter().fold(HashMap::new(), |mut acc, e| match e {
            Event::Pattern(p) => {
                *acc.entry(*p.times.last().unwrap()).or_insert(0) += 1;
                acc
            }
            Event::Snapshot(_) => acc,
        });
    // A snapshot event counts the patterns that closed at its time and
    // were delivered before the seal notice; patterns flushed at end of
    // stream arrive after their window's seal, so the count is a lower
    // bound of the per-window total.
    let mut counted = 0usize;
    for event in &events {
        if let Event::Snapshot(s) = event {
            assert!(
                s.patterns as usize <= per_window.get(&s.time).copied().unwrap_or(0),
                "snapshot {} says {} patterns, window only had {:?}",
                s.time,
                s.patterns,
                per_window.get(&s.time)
            );
            counted += s.patterns as usize;
        }
    }
    assert!(counted <= got_len);
}

#[test]
fn slow_subscriber_is_shed_without_stalling_ingestion() {
    // Tiny population, many ticks: a long event stream (patterns +
    // snapshot notices) that overflows both the slow subscriber's queue
    // and the TCP buffers in front of it.
    let generator = GroupWalkGenerator::new(GroupWalkConfig {
        num_objects: 6,
        num_groups: 1,
        group_size: 4,
        num_snapshots: 16_000,
        seed: 13,
        ..GroupWalkConfig::default()
    });
    let traces = generator.traces();

    let engine = IcpeConfig::builder()
        .constraints(Constraints::new(3, 8, 4, 2).unwrap())
        .epsilon(2.5)
        .min_pts(3)
        .parallelism(2)
        .build()
        .unwrap();
    let mut config = ServeConfig::new(engine);
    // Must exceed the pipeline sink's burst size (one channel's worth of
    // events can be published back-to-back after a scheduling hiccup —
    // and the sharded aligner head runs more subtask threads, so under a
    // loaded test machine those hiccups pile higher) so the draining
    // subscriber survives, while the wedged subscriber — whose TCP
    // buffers absorb only a couple thousand events before its writer
    // blocks — still overflows it well within the run.
    config.subscriber_queue = 8192;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().to_string();

    // The slow subscriber subscribes and then never reads.
    let mut slow = TcpStream::connect(&addr).unwrap();
    slow.write_all(b"SUBSCRIBE all\n").unwrap();
    slow.flush().unwrap();

    // The fast subscriber drains continuously on its own thread — raw
    // lines, parsed after the drain, so reading outpaces the publisher.
    let fast = Subscription::connect(&addr, Topic::All).unwrap();
    let collector = std::thread::spawn(move || fast.collect_lines().unwrap());

    let report = loadgen::run(
        &addr,
        &traces,
        &LoadConfig {
            producers: 2,
            ..LoadConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.records_sent, 6 * 16_000);

    // The wedged subscriber must be shed while the run is still going —
    // poll the live counter (shedding happens when its queue overflows).
    let mut shed = 0;
    for _ in 0..2000 {
        shed = server.shed_count();
        if shed >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(shed >= 1, "wedged subscriber was never shed");
    // The shed is visible on the STATUS wire, not just in-process.
    let status_shed: u64 = client::fetch_status(&addr)
        .unwrap()
        .iter()
        .find(|(k, _)| k == "subscribers_shed")
        .unwrap()
        .1
        .parse()
        .unwrap();
    assert!(status_shed >= 1, "STATUS reports subscribers_shed=0");

    // finish() must complete despite the wedged subscriber: ingestion and
    // sealing never waited on it.
    let metrics = server.finish();
    assert_eq!(metrics.snapshots, 16_000, "every snapshot sealed");

    let lines = collector.join().unwrap();
    let events: Vec<Event> = lines.iter().map(|l| Event::parse(l).unwrap()).collect();
    let snapshots_seen = events
        .iter()
        .filter(|e| matches!(e, Event::Snapshot(_)))
        .count();
    assert_eq!(snapshots_seen, 16_000, "fast subscriber saw every snapshot");
    drop(slow);
}

#[test]
fn shed_subscriber_backfills_sealed_patterns_via_events_since_seq() {
    use icpe_serve::EventFollower;

    // Small population, many ticks: enough event volume that the wedged
    // subscriber's TCP buffers fill and the hub sheds it, while a
    // rate-capped load keeps the journal growing slower than the follower
    // polls (its cursor must stay inside the bounded event ring for the
    // backfill to be gapless).
    let generator = GroupWalkGenerator::new(GroupWalkConfig {
        num_objects: 6,
        num_groups: 1,
        group_size: 4,
        num_snapshots: 4_000,
        seed: 13,
        ..GroupWalkConfig::default()
    });
    let traces = generator.traces();

    let engine = || {
        IcpeConfig::builder()
            .constraints(Constraints::new(3, 8, 4, 2).unwrap())
            .epsilon(2.5)
            .min_pts(3)
            .parallelism(2)
            .build()
            .unwrap()
    };
    // Reference multiset from the in-process batch pipeline (includes the
    // end-of-stream flush, so it is a superset of what seals mid-run).
    let mut reference: HashMap<(Vec<u32>, Vec<u32>), usize> = HashMap::new();
    for p in &IcpePipeline::run(&engine(), traces.to_gps_records()).patterns {
        let key = (
            p.objects.iter().map(|o| o.0).collect(),
            p.times.times().iter().map(|t| t.0).collect(),
        );
        *reference.entry(key).or_insert(0) += 1;
    }

    let mut config = ServeConfig::new(engine());
    config.subscriber_queue = 64;
    config.journal_patterns = true;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().to_string();

    // The doomed subscriber: subscribes to everything and never reads.
    let mut slow = TcpStream::connect(&addr).unwrap();
    slow.write_all(b"SUBSCRIBE all\n").unwrap();
    slow.flush().unwrap();

    let load_addr = addr.clone();
    let loader = std::thread::spawn(move || {
        loadgen::run(
            &load_addr,
            &traces,
            &LoadConfig {
                producers: 2,
                // Paced so pattern_sealed production stays well under the
                // journal ring's eviction horizon even when this test
                // shares one CPU with the rest of the suite.
                target_records_per_s: Some(6_000),
                ..LoadConfig::default()
            },
        )
        .unwrap()
    });

    // The shed subscriber's recovery path: page the journal over the wire
    // with `EVENTS since-seq`, cursor advancing per page — reconnecting
    // (with retry/backoff built into the follower) instead of holding a
    // stream open.
    let mut follower = EventFollower::new(&addr, 0);
    let mut backfilled: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
    let mut saw_shed_event = false;
    let ingest_page =
        |lines: Vec<String>, backfilled: &mut Vec<(Vec<u32>, Vec<u32>)>, saw_shed: &mut bool| {
            for line in lines {
                let v: serde::Value = serde_json::from_str(&line).unwrap();
                let event = v
                    .field("event", "obs event")
                    .ok()
                    .and_then(|e| e.as_str())
                    .unwrap_or_default()
                    .to_string();
                match event.as_str() {
                    "pattern_sealed" => {
                        let ids = |name: &str| -> Vec<u32> {
                            v.field(name, "pattern_sealed")
                                .unwrap()
                                .as_seq()
                                .unwrap()
                                .iter()
                                .map(|x| match x {
                                    serde::Value::Int(i) => *i as u32,
                                    other => panic!("non-integer id {other:?}"),
                                })
                                .collect()
                        };
                        backfilled.push((ids("objects"), ids("times")));
                    }
                    "subscriber_shed" => *saw_shed = true,
                    _ => {}
                }
            }
        };
    // Page as fast as the wire allows while the run is live — the cursor
    // must stay within one ring capacity of the journal head through event
    // bursts — and defer JSON parsing until the stream quiesces.
    let mut pages: Vec<Vec<String>> = Vec::new();
    while !loader.is_finished() {
        pages.push(follower.poll().unwrap());
    }
    let report = loader.join().unwrap();
    assert_eq!(report.records_sent, 6 * 4_000);
    // Quiesce: keep paging until the journal stops growing.
    let mut idle_polls = 0;
    while idle_polls < 10 {
        let page = follower.poll().unwrap();
        if page.is_empty() {
            idle_polls += 1;
        } else {
            idle_polls = 0;
            pages.push(page);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    for page in pages {
        ingest_page(page, &mut backfilled, &mut saw_shed_event);
    }

    // The wedged subscriber was shed, and the shed itself is visible in
    // the journal the reconnected consumer paged through.
    assert!(server.shed_count() >= 1, "wedged subscriber was never shed");
    assert!(
        saw_shed_event,
        "subscriber_shed missing from EVENTS backfill"
    );

    // Exactly once: the journal emits one pattern_sealed per delivered
    // pattern (same code path as the patterns_emitted counter), so a
    // gapless, duplicate-free backfill matches the counter exactly.
    let emitted: u64 = client::fetch_status(&addr)
        .unwrap()
        .iter()
        .find(|(k, _)| k == "patterns_emitted")
        .unwrap()
        .1
        .parse()
        .unwrap();
    assert!(!backfilled.is_empty(), "no patterns sealed mid-run");
    assert_eq!(
        backfilled.len() as u64,
        emitted,
        "EVENTS backfill saw every sealed pattern exactly once"
    );
    // And every backfilled pattern is a real one: within the reference
    // run's multiset (the flush-tail of the reference may exceed what
    // sealed mid-run, never the reverse).
    let mut seen: HashMap<(Vec<u32>, Vec<u32>), usize> = HashMap::new();
    for key in &backfilled {
        *seen.entry(key.clone()).or_insert(0) += 1;
    }
    for (key, count) in &seen {
        assert!(
            reference.get(key).is_some_and(|r| r >= count),
            "backfilled pattern {key:?} (x{count}) not in the reference run"
        );
    }

    server.finish();
    drop(slow);
}

#[test]
fn status_endpoint_reports_counters_and_rejects() {
    let server = Server::start(ServeConfig::new(engine_config(2))).unwrap();
    let addr = server.local_addr().to_string();

    // 3 valid records (one per tick so none is a stale duplicate), plus
    // malformed and stale lines that must be counted as rejected.
    client::send_lines(
        &addr,
        [
            "1,0.0,1.0,2.0".to_string(),
            "1,1.0,1.5,2.0".to_string(),
            "not,a,record,x".to_string(),
            "{\"id\":1,\"time\":2.0,\"x\":2.0,\"y\":2.0}".to_string(),
            "1,0.5,9.9,9.9".to_string(), // stale: tick 0 already reported
        ],
    )
    .unwrap();

    // Poll until the handler has consumed the lines.
    let mut status = Vec::new();
    for _ in 0..500 {
        status = client::fetch_status(&addr).unwrap();
        let records_in = status
            .iter()
            .find(|(k, _)| k == "records_in")
            .map(|(_, v)| v.clone());
        if records_in.as_deref() == Some("3") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let get = |key: &str| {
        status
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing status key {key}"))
    };
    assert_eq!(get("service"), "icpe-serve");
    assert_eq!(get("records_in"), "3");
    assert_eq!(get("records_rejected"), "2");
    assert_eq!(get("ingest_frontier"), "2");
    assert!(get("uptime_s").parse::<f64>().unwrap() >= 0.0);
    assert!(get("records_per_s").parse::<f64>().unwrap() > 0.0);
    // The hub health gauge is part of the stable STATUS surface: no
    // subscriber is connected, so the fullest queue is empty.
    assert_eq!(get("max_subscriber_queue_depth"), "0");
    assert_eq!(get("subscribers_shed"), "0");
    // The sharded aligner head reports on the same stable surface: shard
    // count follows the engine parallelism and nothing arrived late. (The
    // chain gauge is published asynchronously by the router thread, so only
    // its range is stable here: object 1 is at most one chain.)
    assert_eq!(get("aligner_shards"), "2");
    assert!(get("aligner_chains").parse::<u64>().unwrap() <= 1);
    assert_eq!(get("aligner_late_dropped"), "0");
    assert!(get("aligner_shard_imbalance").parse::<f64>().unwrap() >= 1.0);

    // In-process view agrees with the wire view.
    let text = server.status_text();
    assert!(text.contains("records_in=3"), "{text}");
    server.finish();
}

/// A producer line nesting arrays deep is one rejected record, not a stack
/// overflow: at 3 000 levels (under the 4 KiB line bound) the JSON parser
/// bounds its recursion, at 10 000 the line bound rejects it first. Either
/// way the connection handler survives, ingests the valid records behind
/// the lines, and the server still answers `STATUS`.
#[test]
fn deeply_nested_json_line_is_rejected_not_fatal() {
    let server = Server::start(ServeConfig::new(engine_config(1))).unwrap();
    let addr = server.local_addr().to_string();
    client::send_lines(
        &addr,
        [
            format!("{{\"id\":{}", "[".repeat(10_000)),
            format!("{{\"id\":{}", "[".repeat(3_000)),
            "1,0.0,1.0,2.0".to_string(),
            "1,1.0,1.5,2.0".to_string(),
            "1,2.0,2.0,2.0".to_string(),
        ],
    )
    .unwrap();
    let mut status = Vec::new();
    for _ in 0..500 {
        status = client::fetch_status(&addr).unwrap();
        if status.iter().any(|(k, v)| k == "records_in" && v == "3") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let get = |key: &str| {
        status
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing status key {key}"))
    };
    assert_eq!(get("records_in"), "3");
    assert_eq!(get("records_rejected"), "2");
    server.finish();
}

/// The wire contract of `STATUS` and the serve half of `METRICS`: every key
/// and family, in order, as a client reads them off the socket. Dashboards
/// and the CI smokes match on these names, so a refactor of the status
/// plumbing must not drop, rename or reorder one.
#[test]
fn status_keys_and_serve_metric_families_are_pinned() {
    let server = Server::start(ServeConfig::new(engine_config(2))).unwrap();
    let addr = server.local_addr().to_string();
    let keys: Vec<String> = client::fetch_status(&addr)
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let want = "service uptime_s producers subscribers records_in records_rejected \
        records_quarantined records_late records_per_s ingest_batches mean_batch_fill \
        bytes_in snapshots_sealed patterns_emitted patterns_per_s subscribers_shed \
        max_subscriber_queue_depth ingest_frontier aligned_frontier sealed_frontier \
        align_lag_snapshots detect_lag_snapshots in_flight_snapshots aligner_shards \
        aligner_chains aligner_max_shard_chains aligner_late_dropped \
        aligner_sealed_frontier aligner_min_shard_frontier aligner_max_shard_frontier \
        aligner_shard_imbalance checkpoint_seq checkpoints_written routing_epoch \
        cells_mapped cells_migrated max_subtask_load mean_subtask_load subtask_imbalance \
        sync_fanin sync_tree_levels sync_pairs_merged sync_windows_sealed avg_latency_ms \
        p95_latency_ms throughput_tps health";
    assert_eq!(keys, want.split_whitespace().collect::<Vec<_>>());
    assert_eq!(keys.len(), 47);

    let exposition = client::fetch_metrics(&addr).unwrap();
    let families: Vec<&str> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE icpe_serve_"))
        .map(|l| l.split(' ').next().expect("family name"))
        .collect();
    let want = "records_in_total records_rejected_total records_quarantined_total \
        records_late_total ingest_batches_total bytes_in_total patterns_emitted_total \
        snapshots_sealed_total subscribers_shed_total checkpoints_written_total producers \
        subscribers max_subscriber_queue_depth in_flight_snapshots uptime_seconds \
        throughput_tps avg_latency_seconds p95_latency_seconds health";
    assert_eq!(families, want.split_whitespace().collect::<Vec<_>>());
    // Every serve-level sample belongs to a declared family.
    let samples = exposition.lines().filter(|l| l.starts_with("icpe_serve_"));
    assert_eq!(samples.count(), families.len());
    server.finish();
}

/// Golden test for the METRICS exposition: the metric-family names are a
/// stable interface (dashboards key on them), every pipeline stage and
/// exchange hop reports, and every sample value is finite — a NaN from a
/// zero-duration rate would poison Prometheus `rate()` queries.
#[test]
fn metrics_and_events_endpoints_expose_the_pipeline() {
    // Single in-order producer, tight alignment: windows seal (and the
    // journal fills) while the server is still up to be scraped.
    let engine = IcpeConfig::builder()
        .constraints(Constraints::new(4, 8, 4, 2).unwrap())
        .epsilon(2.5)
        .min_pts(4)
        .parallelism(2)
        .aligner(AlignerConfig {
            max_lag: 8,
            emit_empty: true,
            lateness: 0,
        })
        .build()
        .unwrap();
    let server = Server::start(ServeConfig::new(engine)).unwrap();
    let addr = server.local_addr().to_string();

    let traces = planted_generator(20).traces();
    let report = loadgen::run(
        &addr,
        &traces,
        &LoadConfig {
            producers: 1,
            ..LoadConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.records_sent, 30 * 20);

    // Poll until detection has progressed end-to-end: the enumerate stage
    // registered samples and at least one window-sealed journal entry is
    // retained.
    let mut text = String::new();
    let mut journal: Vec<String> = Vec::new();
    for _ in 0..2000 {
        text = client::fetch_metrics(&addr).unwrap();
        journal = client::fetch_events(&addr, 0).unwrap();
        if text.contains("stage=\"enumerate\"")
            && journal.iter().any(|l| l.contains("window_sealed"))
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Stable family names, all present with their exposition type headers.
    for family in [
        "# TYPE icpe_stage_batches_in_total counter",
        "# TYPE icpe_stage_records_in_total counter",
        "# TYPE icpe_stage_records_out_total counter",
        "# TYPE icpe_stage_batch_seconds histogram",
        "# TYPE icpe_exchange_blocked_seconds_total counter",
        "# TYPE icpe_exchange_queue_depth gauge",
        "# TYPE icpe_serve_records_in_total counter",
        "# TYPE icpe_serve_records_rejected_total counter",
        "# TYPE icpe_serve_snapshots_sealed_total counter",
        "# TYPE icpe_serve_subscribers_shed_total counter",
        "# TYPE icpe_serve_max_subscriber_queue_depth gauge",
        "# TYPE icpe_serve_throughput_tps gauge",
        "# TYPE icpe_serve_avg_latency_seconds gauge",
    ] {
        assert!(text.contains(family), "missing family: {family}\n{text}");
    }

    // Every stage of the RJC topology reports: the sharded head (frontier
    // router, aligner shards), the keyed grid stages, the exchange-only
    // sink hop, and the sync tree's finalizer.
    for stage in [
        "align-route",
        "align-shard",
        "grid-query",
        "sync-merge-final",
        "enumerate",
        "sink",
    ] {
        assert!(
            text.contains(&format!("stage=\"{stage}\"")),
            "stage {stage} missing from exposition:\n{text}"
        );
    }

    // Every sample line parses as a finite number (`le="+Inf"` lives in the
    // label set, never in the value position).
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let value = line.rsplit(' ').next().unwrap();
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value in {line:?}"));
        assert!(parsed.is_finite(), "non-finite sample: {line}");
    }

    // The journal is NDJSON with strictly increasing seqs, and the
    // since-seq cursor pages precisely.
    assert!(!journal.is_empty());
    let seq_of = |line: &str| -> u64 {
        let rest = line.strip_prefix("{\"seq\":").expect("journal line shape");
        rest[..rest.find(',').unwrap()].parse().unwrap()
    };
    let seqs: Vec<u64> = journal.iter().map(|l| seq_of(l)).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seqs increase: {seqs:?}"
    );
    let rest = client::fetch_events(&addr, seqs[0]).unwrap();
    assert_eq!(rest.len(), journal.len() - 1, "since-seq skips the cursor");
    assert!(
        client::fetch_events(&addr, *seqs.last().unwrap())
            .unwrap()
            .is_empty(),
        "nothing beyond the newest seq"
    );

    // Counters only move forward: a second scrape never regresses.
    let records_sample = |t: &str| -> f64 {
        t.lines()
            .find(|l| l.starts_with("icpe_serve_records_in_total"))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap()
    };
    let again = client::fetch_metrics(&addr).unwrap();
    assert!(records_sample(&again) >= records_sample(&text));
    assert_eq!(records_sample(&again), 600.0, "all sent records counted");

    server.finish();
}

#[test]
fn idle_producer_with_no_valid_records_does_not_throttle_the_fleet() {
    let server = Server::start(ServeConfig::new(engine_config(1))).unwrap();
    let addr = server.local_addr().to_string();

    // A connection that registers as a producer (its first line is a
    // record-shaped parse failure) but never contributes a valid record.
    // It must not count as "slowest producer" in the skew window.
    let mut idle = TcpStream::connect(&addr).unwrap();
    idle.write_all(b"not,a,valid,record\n").unwrap();
    idle.flush().unwrap();

    // A healthy producer streams 200 ticks; with the idle producer pinning
    // the fleet at tick 0 this would crawl at ~2 s per admitted record.
    let started = std::time::Instant::now();
    client::send_records(
        &addr,
        (0..200).map(|t| icpe_serve::WireRecord {
            id: 1,
            time: t as f64,
            x: 0.0,
            y: 0.0,
        }),
        false,
    )
    .unwrap();
    let mut accepted = String::new();
    for _ in 0..2000 {
        accepted = client::fetch_status(&addr)
            .unwrap()
            .iter()
            .find(|(k, _)| k == "records_in")
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        if accepted == "200" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(accepted, "200");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(8),
        "ingest crawled: {:?} — idle producer throttled the fleet",
        started.elapsed()
    );
    drop(idle);
    server.finish();
}

#[test]
fn peer_sending_an_endless_line_is_disconnected() {
    let mut config = ServeConfig::new(engine_config(1));
    config.max_consecutive_parse_errors = 8;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().to_string();

    // 10 MiB and no newline: one rejected line, but each `MAX_LINE_BYTES`
    // of it spends one unit of the error budget, so the handler drops the
    // peer at the 8th — after reading 32 KiB, not the whole flood.
    let mut peer = std::net::TcpStream::connect(&addr).unwrap();
    let chunk = vec![b'x'; 64 << 10];
    for _ in 0..(10 << 20) / chunk.len() {
        if std::io::Write::write_all(&mut peer, &chunk).is_err() {
            break; // reset by the server: disconnected mid-flood
        }
    }
    // Whether or not the flood fit in the socket buffers, the server has
    // closed the connection: the read ends instead of timing out.
    peer.set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    match std::io::Read::read(&mut peer, &mut [0u8; 16]) {
        Ok(n) => assert_eq!(n, 0, "producers are never written to"),
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "the server kept the peer: {e}"
        ),
    }
    // The handler counted the line before it closed the connection.
    let status = client::fetch_status(&addr).unwrap();
    let value = |key: &str| {
        status
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(value("records_rejected").as_deref(), Some("1"), "one line");
    assert_eq!(value("records_quarantined").as_deref(), Some("1"));
    server.finish();
}

#[test]
fn producer_with_persistent_garbage_is_disconnected() {
    let mut config = ServeConfig::new(engine_config(1));
    config.max_consecutive_parse_errors = 8;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr().to_string();

    // 50 garbage lines: the connection must be dropped at the 8th, and the
    // server must stay healthy for well-formed producers afterwards.
    client::send_lines(&addr, (0..50).map(|i| format!("garbage line {i}"))).unwrap();
    client::send_lines(&addr, ["7,0.0,1.0,1.0".to_string()]).unwrap();

    // The two connections are handled on their own threads, so the good
    // record can be counted before the garbage handler has counted its
    // lines: wait for both.
    let mut accepted = String::new();
    let mut rejected = 0u64;
    for _ in 0..500 {
        let status = client::fetch_status(&addr).unwrap();
        let value = |key: &str| {
            status
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        accepted = value("records_in");
        rejected = value("records_rejected").parse().unwrap_or(0);
        if accepted == "1" && rejected >= 8 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(accepted, "1", "server kept serving after garbage producer");
    assert!((8..=50).contains(&rejected), "rejected {rejected} lines");
    server.finish();
}
