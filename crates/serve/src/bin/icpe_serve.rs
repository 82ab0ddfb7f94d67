//! Standalone `icpe-serve` server.
//!
//! ```text
//! icpe-serve [ADDR]
//!
//! ADDR  bind address, default 127.0.0.1:7200 (port 0 = ephemeral)
//!
//! Environment overrides (workload units):
//!   ICPE_EPS       DBSCAN ε                  (default 2.5)
//!   ICPE_MINPTS    DBSCAN minPts             (default 4)
//!   ICPE_M/K/L/G   CP(M,K,L,G) constraints   (default 4,8,4,2)
//!   ICPE_N         keyed-stage parallelism   (default 4)
//!   ICPE_SYNC_FANIN  aggregation-tree fanin (default 4, clamped ≥ 2):
//!                    the N grid-query subtasks' pair shares reduce
//!                    through ⌈N/fanin⌉ combiners per level down to the
//!                    DBSCAN finalizer (the aligner shards' snapshot
//!                    partials likewise); fanin ≥ N is a flat N → 1 funnel
//!   ICPE_INTERVAL  seconds per tick          (default 1.0)
//!
//! Micro-batch vectorization (see the README "Performance" section):
//!   ICPE_BATCH         records per exchange-hop batch inside the
//!                      pipeline (default 64; 1 = record-at-a-time)
//!   ICPE_INGEST_BATCH  records stamped + pushed per ingest-edge lock
//!                      hold (default 64; 1 = record-at-a-time)
//!
//! Hotspot-aware adaptive routing (static `hash(cell) % N` unless θ set):
//!   ICPE_REBALANCE_THETA     hot threshold θ — rebalance when the max
//!                            subtask load exceeds θ × the mean (1.5 is a
//!                            reasonable start; setting this enables the
//!                            balancer)
//!   ICPE_REBALANCE_COOLDOWN  min windows between table swaps (default 2)
//!   ICPE_REBALANCE_CELLS     explicit cell-pin budget (default 256)
//!   (Placement moves whole grid cells; a hot cell is never split.)
//!
//! Durability (off unless a directory is given):
//!   ICPE_CHECKPOINT_DIR     checkpoint directory; the server resumes from
//!                           the newest readable checkpoint in it at start
//!   ICPE_CHECKPOINT_SECS    periodic checkpoint interval   (default 30)
//!   ICPE_CHECKPOINT_RETAIN  checkpoints kept               (default 3)
//!
//! Self-healing & chaos (see the README "Fault tolerance" section):
//!   ICPE_SUPERVISED     1 = run the pipeline under the supervisor: worker
//!                       panics are caught, the pipeline relaunches from
//!                       its latest checkpoint and replays (default off)
//!   ICPE_MAX_RESTARTS   supervised restart budget          (default 5)
//!   ICPE_CHECKPOINT_EVERY_RECORDS
//!                       supervisor-internal checkpoint cadence in records
//!                       (default 8192; bounds replay after a failure)
//!   ICPE_FAULT          deterministic fault plan, e.g.
//!                       `panic@grid-query:0:3;ckpttorn@2` — injects the
//!                       listed one-shot faults (chaos testing only)
//!   ICPE_SOCKET_TIMEOUT_SECS
//!                       per-connection socket read/write timeout; silent
//!                       dead peers are dropped cleanly (default 0 = none)
//!   ICPE_JOURNAL_PATTERNS
//!                       1 = journal every sealed pattern so shed
//!                       subscribers can backfill with `EVENTS since-seq`
//!                       (default 0: pattern volume can evict operational
//!                       events from the bounded journal ring)
//! ```
//!
//! Feed it with `icpe_serve::loadgen` (see `examples/streaming_live.rs`),
//! or any TCP producer speaking the line protocol; watch it with
//! `printf 'STATUS\n' | nc <addr>`.

use icpe_core::{BalancerConfig, IcpeConfig};
use icpe_serve::{CheckpointPolicy, ServeConfig, Server};
use icpe_types::Constraints;

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7200".to_string());

    let constraints = Constraints::new(
        env_parse("ICPE_M", 4),
        env_parse("ICPE_K", 8),
        env_parse("ICPE_L", 4),
        env_parse("ICPE_G", 2),
    )
    .expect("valid CP(M,K,L,G) constraints");
    let mut engine = IcpeConfig::builder()
        .constraints(constraints)
        .epsilon(env_parse("ICPE_EPS", 2.5))
        .min_pts(env_parse("ICPE_MINPTS", 4))
        .parallelism(env_parse("ICPE_N", 4))
        .sync_fanin(env_parse("ICPE_SYNC_FANIN", icpe_core::DEFAULT_SYNC_FANIN))
        .batch_size(env_parse("ICPE_BATCH", icpe_runtime::DEFAULT_BATCH_SIZE));
    if let Ok(theta) = std::env::var("ICPE_REBALANCE_THETA") {
        let theta: f64 = theta.parse().expect("ICPE_REBALANCE_THETA is a number");
        engine = engine.rebalance(BalancerConfig {
            theta,
            cooldown_windows: env_parse("ICPE_REBALANCE_COOLDOWN", 2),
            max_mapped_cells: env_parse("ICPE_REBALANCE_CELLS", 256),
            ..BalancerConfig::default()
        });
    }
    if env_parse("ICPE_SUPERVISED", 0u8) != 0 {
        engine = engine.supervised(icpe_core::Supervision {
            max_restarts: env_parse("ICPE_MAX_RESTARTS", 5),
            checkpoint_every_records: Some(env_parse("ICPE_CHECKPOINT_EVERY_RECORDS", 8192)),
            ..icpe_core::Supervision::default()
        });
    }
    if let Ok(spec) = std::env::var("ICPE_FAULT") {
        let plan = icpe_runtime::FaultPlan::from_spec(&spec).expect("valid ICPE_FAULT spec");
        engine = engine.fault_plan(std::sync::Arc::new(plan));
    }
    let engine = engine.build().expect("valid engine configuration");

    let mut config = ServeConfig::new(engine);
    config.addr = addr;
    config.interval = env_parse("ICPE_INTERVAL", 1.0);
    config.ingest_batch = env_parse("ICPE_INGEST_BATCH", icpe_runtime::DEFAULT_BATCH_SIZE);
    if let Ok(dir) = std::env::var("ICPE_CHECKPOINT_DIR") {
        config = config.with_checkpoints(
            CheckpointPolicy::new(dir)
                .every(std::time::Duration::from_secs_f64(env_parse(
                    "ICPE_CHECKPOINT_SECS",
                    30.0,
                )))
                .retain(env_parse("ICPE_CHECKPOINT_RETAIN", 3)),
        );
    }

    let server = Server::start(config).expect("bind and start server");
    println!("icpe-serve listening on {}", server.local_addr());
    if let Some(seq) = server.stats().last_checkpoint_seq() {
        println!("  resumed from checkpoint seq {seq}");
    }
    println!("  producers:    connect and send `obj_id,time,x,y` lines");
    println!("  subscribers:  send `SUBSCRIBE patterns` (or snapshots | all)");
    println!("  status:       send `STATUS`");

    // Serve until killed; print a status line every 10 s.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(10));
        let status = server.status_text();
        let pick = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{key}=")).map(str::to_string))
                .unwrap_or_else(|| "?".into())
        };
        println!(
            "[status] health={} records_in={} records_per_s={} snapshots_sealed={} patterns={} subscribers={} shed={} epoch={} imbalance={} sync_pairs={} sync_windows={}",
            pick("health"),
            pick("records_in"),
            pick("records_per_s"),
            pick("snapshots_sealed"),
            pick("patterns_emitted"),
            pick("subscribers"),
            pick("subscribers_shed"),
            pick("routing_epoch"),
            pick("subtask_imbalance"),
            pick("sync_pairs_merged"),
            pick("sync_windows_sealed"),
        );
    }
}
