//! Churn soak: a server fed a constant population whose ids keep being
//! replaced must hold constant state.
//!
//! Trackers issue a fresh id on every occlusion or id switch, so the ids
//! ever seen grow without bound while the live population does not. One
//! producer streams a group walk under `icpe_gen::churn_ids`; at fixed tick
//! intervals the soak waits for the edge to quiesce and for a periodic
//! checkpoint cut after it, then samples that checkpoint's size on disk and
//! the `aligner_chains` gauge. After a warm-up, neither may grow: state
//! kept per id ever seen (as opposed to per live id) shows up as checkpoint
//! bytes rising with every sample.

use icpe_core::IcpeConfig;
use icpe_runtime::AlignerConfig;
use icpe_serve::recovery::CheckpointPolicy;
use icpe_serve::{client, ServeConfig, Server, WireRecord};
use icpe_types::Constraints;
use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const POPULATION: usize = 48;
const TICKS: u32 = 600;
/// Ticks between samples.
const EVERY: u32 = 50;
/// Samples discarded while the chains, buffers and windows fill up.
const WARM_UP: usize = 2;

fn server_config(dir: &Path) -> ServeConfig {
    let engine = IcpeConfig::builder()
        .constraints(Constraints::new(4, 8, 4, 2).unwrap())
        .epsilon(2.5)
        .min_pts(4)
        .parallelism(2)
        .aligner(AlignerConfig {
            max_lag: 8,
            emit_empty: true,
            lateness: 2,
        })
        .build()
        .unwrap();
    let mut config = ServeConfig::new(engine).with_checkpoints(
        CheckpointPolicy::new(dir)
            .every(Duration::from_millis(10))
            .retain(4),
    );
    // One producer: no fleet to line up, and a small skew keeps the
    // aligner's lateness (and so its buffered rows) small.
    config.max_producer_skew = 1;
    config.startup_grace = Duration::ZERO;
    config
}

fn status_value(addr: &str, key: &str) -> String {
    client::fetch_status(addr)
        .unwrap()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing status key {key}"))
}

/// `checkpoint_seq` as a number (0 before the first checkpoint).
fn checkpoint_seq(addr: &str) -> u64 {
    status_value(addr, "checkpoint_seq").parse().unwrap_or(0)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Size of the newest checkpoint file in `dir`.
fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    loop {
        let newest = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "icpe"))
            .max();
        // Retention may delete the file between listing and reading it.
        if let Some(Ok(meta)) = newest.map(std::fs::metadata) {
            return meta.len();
        }
    }
}

/// Asserts that no sample after the warm-up exceeds the first one after
/// it by more than `ratio`.
fn assert_flat(what: &str, samples: &[u64], ratio: f64) {
    let base = samples[WARM_UP] as f64;
    for (k, &s) in samples.iter().enumerate().skip(WARM_UP) {
        assert!(
            s as f64 <= base * ratio,
            "{what} grew under id churn: sample {k} is {s}, against {base} after warm-up \
             (all samples: {samples:?})"
        );
    }
}

#[test]
fn state_stays_flat_under_id_churn() {
    let dir: PathBuf = std::env::temp_dir().join(format!("icpe-churn-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(server_config(&dir)).unwrap();
    let addr = server.local_addr().to_string();

    let walk = icpe_gen::GroupWalkGenerator::new(icpe_gen::GroupWalkConfig {
        num_objects: POPULATION,
        num_groups: POPULATION / 4,
        group_size: 4,
        num_snapshots: TICKS,
        seed: 11,
        ..icpe_gen::GroupWalkConfig::default()
    })
    .traces();
    let records = icpe_gen::churn_ids(&walk, 8.0, 11).to_gps_records();
    let mut producer = BufWriter::new(TcpStream::connect(&addr).unwrap());
    let (mut bytes, mut chains) = (Vec::new(), Vec::new());
    let mut sent = 0usize;
    for chunk in records.chunks(POPULATION * EVERY as usize) {
        for r in chunk {
            let wire = WireRecord {
                id: r.id.0,
                time: f64::from(r.time.0),
                x: r.location.x,
                y: r.location.y,
            };
            writeln!(producer, "{}", wire.to_csv()).unwrap();
        }
        producer.flush().unwrap();
        sent += chunk.len();
        wait_until("the edge to take every record", || {
            status_value(&addr, "records_in") == sent.to_string()
        });
        // The checkpoint in flight may have cut before the last records:
        // wait for the one after it.
        let seq = checkpoint_seq(&addr);
        wait_until("a checkpoint after the records", || {
            checkpoint_seq(&addr) >= seq + 2
        });
        bytes.push(newest_checkpoint_bytes(&dir));
        chains.push(status_value(&addr, "aligner_chains").parse().unwrap());
    }
    drop(producer);
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(bytes.len(), (TICKS / EVERY) as usize);
    assert_flat("checkpoint bytes", &bytes, 1.25);
    assert_flat("live chains", &chains, 1.5);
    // The live chains are the population plus ids not yet lagged out, not
    // every id ever seen.
    let seen = (POPULATION as f64 * (1.0 + f64::from(TICKS) / 8.0)) as u64;
    assert!(
        *chains.iter().max().unwrap() < seen / 10,
        "chains {chains:?} against ≈ {seen} ids seen"
    );
}
