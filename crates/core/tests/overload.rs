//! Overload: a sink that stops consuming must stop the producer — after a
//! bounded number of records, whatever the stream's length — and once the
//! sink drains again the run must complete as if nothing had happened.
//!
//! What bounds the records a stalled pipeline holds: every hop is a set of
//! bounded channels of `channel_capacity` batches, a batch ships once it
//! holds `batch_size` rows (messages that are vectors of rows count their
//! length), and every row or tick in flight stands for at most one record
//! or one window of them. Nothing in that product grows with the stream.

use icpe_core::{IcpeConfig, IcpePipeline, PipelineEvent, StreamingEngine};
use icpe_types::{Constraints, GpsRecord, Pattern};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::multiset;

const OBJECTS: usize = 12;
const TICKS: u32 = 7000;
const CAPACITY: usize = 2;
const BATCH: usize = 16;
/// The sealed time whose delivery parks the sink.
const PARK_AT: u32 = 1000;
/// The channels between `push_batch` and the sink callback, one per
/// receiving subtask: ingest, align-route, 2 × align-shard, 2 ×
/// grid-query, sync-merge, 2 × enumerate, sink.
const CHANNELS: usize = 10;
/// Per channel: its batches, plus one filling on the sending side and one
/// being processed on the receiving side; a batch ships below
/// `2 × BATCH` rows (under `BATCH`, plus the message that filled it — no
/// message here carries more than a window's `OBJECTS` < `BATCH` rows);
/// a row is a record or a tick standing for a window of `OBJECTS` records.
/// Then the windows the aligner itself holds open (lateness 2, plus the
/// one being filled). A ceiling, not an estimate: broadcast ticks travel
/// as batches of their own, so the run holds a few hundred records.
const IN_FLIGHT_BOUND: usize = CHANNELS * (CAPACITY + 2) * (2 * BATCH) * OBJECTS + 3 * OBJECTS;

fn records() -> Vec<GpsRecord> {
    let mut records = icpe_gen::GroupWalkGenerator::new(icpe_gen::GroupWalkConfig {
        num_objects: OBJECTS,
        num_groups: 2,
        group_size: 4,
        num_snapshots: TICKS,
        seed: 0x0E7,
        ..icpe_gen::GroupWalkConfig::default()
    })
    .traces()
    .to_gps_records();
    // Mild disorder, which the last-time chaining absorbs …
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..records.len() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        if s.is_multiple_of(16) {
            let j = (i + (s >> 8) as usize % (2 * OBJECTS)).min(records.len() - 1);
            records.swap(i, j);
        }
    }
    // … and three trajectories whose first report (no link to wait on)
    // turns up six ticks late: dropped, and counted. The late count is part
    // of what must survive the stall.
    let first_reports: Vec<GpsRecord> = {
        let (late, on_time) = records
            .iter()
            .partition(|r| r.last_time.is_none() && r.id.0 % 4 == 3);
        records = on_time;
        late
    };
    assert_eq!(first_reports.len(), 3);
    records.splice(6 * OBJECTS..6 * OBJECTS, first_reports);
    records
}

fn config() -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(Constraints::new(3, 4, 2, 2).unwrap())
        .epsilon(2.5)
        .min_pts(3)
        .parallelism(2)
        .align_shards(2)
        .channel_capacity(CAPACITY)
        .batch_size(BATCH)
        .build()
        .unwrap()
}

#[test]
fn a_blocked_sink_stops_the_producer_after_a_bounded_number_of_records() {
    let input = records();
    let total = input.len();
    assert!(
        total > 4 * IN_FLIGHT_BOUND,
        "the stream ({total}) must dwarf the bound ({IN_FLIGHT_BOUND})"
    );
    let config = config();
    let mut oracle = StreamingEngine::new(config.clone());
    let mut want: Vec<Pattern> = input.iter().flat_map(|r| oracle.push(*r)).collect();
    want.extend(oracle.finish());
    assert!(!want.is_empty(), "the workload plants detectable groups");
    assert!(oracle.late_dropped() > 0, "the workload drops late records");

    // The sink dawdles for a thousand windows, so that the producer fills
    // every queue on the way with full batches, then parks until the gate
    // opens.
    let (gate, parked) = mpsc::channel::<()>();
    let delivered: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&delivered);
    let live = IcpePipeline::launch(&config, move |event| match event {
        PipelineEvent::Pattern(pattern) => sink.lock().unwrap().push(pattern),
        PipelineEvent::SnapshotSealed { time: PARK_AT } => {
            parked.recv().expect("the test opens the gate");
        }
        PipelineEvent::SnapshotSealed { time } if time < PARK_AT => {
            std::thread::sleep(Duration::from_micros(200));
        }
        PipelineEvent::SnapshotSealed { .. } => {}
    });

    let sender = live.sender();
    let accepted = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&accepted);
    let producer = std::thread::spawn(move || {
        for chunk in input.chunks(BATCH) {
            sender.push_batch(chunk.to_vec()).expect("pipeline alive");
            counter.fetch_add(chunk.len(), Ordering::SeqCst);
        }
    });

    // "push_batch stopped returning": no batch accepted for a full second.
    // (A slow host can only make this fire early, on a smaller count.)
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut last, mut since) = (0, Instant::now());
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = accepted.load(Ordering::SeqCst);
        if now != last {
            (last, since) = (now, Instant::now());
        } else if now > 0 && since.elapsed() >= Duration::from_secs(1) {
            break;
        }
        assert!(Instant::now() < deadline, "the producer never stalled");
    }
    // Windows through `PARK_AT` were delivered whole; the rest of what
    // was accepted is in flight.
    let in_flight = last - (PARK_AT as usize + 1) * OBJECTS;
    assert!(
        in_flight <= IN_FLIGHT_BOUND,
        "a stalled pipeline holds {in_flight} records ({last} of {total} accepted); the hops bound it at {IN_FLIGHT_BOUND}"
    );

    gate.send(()).expect("the sink is parked on the gate");
    producer.join().expect("producer panicked");
    let report = live.finish();
    assert_eq!(accepted.load(Ordering::SeqCst), total);
    assert_eq!(report.late_records, oracle.late_dropped());
    assert_eq!(
        multiset(&delivered.lock().unwrap()),
        multiset(&want),
        "the stalled run delivered a different pattern multiset"
    );
}
