//! Tear-down and lateness tests for the live-serving entry points: a
//! downstream consumer that hangs up must stop every upstream subtask
//! cleanly (no panic, no deadlock), and records arriving after their
//! snapshot sealed must be counted and dropped deterministically — exactly
//! the failure modes a network serving layer exercises.

use icpe_runtime::{
    ingest_channel, map_fn, AlignerConfig, Collector, Exchange, Operator, RuntimeConfig, Stream,
    TimeAligner,
};
use icpe_types::{GpsRecord, ObjectId, Point, Timestamp};
use std::time::Duration;

fn cfg() -> RuntimeConfig {
    RuntimeConfig {
        channel_capacity: 8,
        batch_size: 4,
        fault: None,
    }
}

fn rec(id: u32, t: u32, last: Option<u32>) -> GpsRecord {
    GpsRecord::new(
        ObjectId(id),
        Point::new(t as f64, id as f64),
        Timestamp(t),
        last.map(Timestamp),
    )
}

/// Joins with a watchdog so a regression deadlocks the test, not CI.
fn join_within(handle: icpe_runtime::StreamHandle, secs: u64) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("dataflow did not wind down after consumer hangup (deadlock?)");
}

#[test]
fn receiver_drop_stops_single_stage_source() {
    // Effectively unbounded source; tiny channels so the source is deep in
    // backpressure when the consumer leaves.
    let (receiver, handle) = Stream::source(cfg(), 1, |_| 0..u64::MAX).into_receiver();
    for _ in 0..100 {
        receiver.recv().unwrap(); // whole batches
    }
    drop(receiver);
    join_within(handle, 10);
}

#[test]
fn receiver_drop_cascades_through_parallel_stages() {
    let (receiver, handle) = Stream::source(cfg(), 2, |i| (i as u64)..u64::MAX)
        .apply("inc", 3, Exchange::Rebalance, |_| map_fn(|x: u64| x + 1))
        .apply("key", 2, Exchange::key_by(|x: &u64| *x), |_| {
            map_fn(|x: u64| x)
        })
        .into_receiver();
    for _ in 0..50 {
        receiver.recv().unwrap();
    }
    drop(receiver);
    join_within(handle, 10);
}

#[test]
fn receiver_drop_reaches_stateful_operator_finish_without_panic() {
    // An operator with buffered state: hangup must not panic it even though
    // its `finish` output has nowhere to go.
    struct Buffer(Vec<u64>);
    impl Operator<u64, u64> for Buffer {
        fn process(&mut self, input: u64, out: &mut Collector<u64>) {
            self.0.push(input);
            if self.0.len() >= 10 {
                out.emit_all(self.0.drain(..));
            }
        }
        fn finish(&mut self, out: &mut Collector<u64>) {
            out.emit_all(self.0.drain(..));
        }
    }
    let (receiver, handle) = Stream::source(cfg(), 1, |_| 0..u64::MAX)
        .apply("buffer", 2, Exchange::Rebalance, |_| Buffer(Vec::new()))
        .into_receiver();
    receiver.recv().unwrap();
    drop(receiver);
    join_within(handle, 10);
}

#[test]
fn from_channel_source_delivers_live_pushes_in_order() {
    let (sender, source) = ingest_channel::<u64>(4);
    let (receiver, handle) = Stream::from_channel(cfg(), source)
        .apply("inc", 1, Exchange::Rebalance, |_| map_fn(|x: u64| x + 1))
        .into_receiver();
    let producer = std::thread::spawn(move || {
        for x in 0..1000u64 {
            sender.send(x).unwrap();
        }
        // Dropping the sender ends the stream.
    });
    let got: Vec<u64> = receiver.iter().flatten().collect();
    producer.join().unwrap();
    assert_eq!(got, (1..=1000).collect::<Vec<_>>());
    join_within(handle, 10);
}

#[test]
fn from_channel_producer_observes_consumer_hangup() {
    let (sender, source) = ingest_channel::<u64>(2);
    let (receiver, handle) = Stream::from_channel(cfg(), source).into_receiver();
    sender.send(7).unwrap();
    assert_eq!(receiver.recv(), Ok(vec![7]));
    drop(receiver);
    // The forwarder notices the hangup when it routes its next record:
    // pushes must start failing instead of blocking forever.
    let mut failed = false;
    for x in 0..100u64 {
        if sender.send(x).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "sender never observed the dataflow shutdown");
    join_within(handle, 10);
}

#[test]
fn late_records_are_dropped_and_counted_deterministically() {
    let mut aligner = TimeAligner::new(AlignerConfig {
        max_lag: 2,
        emit_empty: true,
        lateness: 0,
    });
    aligner.push(rec(1, 0, None));
    for t in 1..8 {
        aligner.push(rec(1, t, Some(t - 1)));
    }
    assert_eq!(aligner.late_dropped(), 0);

    // Two ancient records: both must be dropped and counted, repeatably.
    assert!(aligner.push(rec(2, 0, None)).is_empty());
    assert!(aligner.push(rec(2, 1, Some(0))).is_empty());
    assert_eq!(aligner.late_dropped(), 2);

    // The stream keeps sealing afterwards — the dropped records' chain
    // information was still absorbed, so object 2 cannot stall sealing.
    let mut sealed = Vec::new();
    for t in 8..16 {
        sealed.extend(aligner.push(rec(1, t, Some(t - 1))));
        sealed.extend(aligner.push(rec(2, t, Some(if t == 8 { 1 } else { t - 1 }))));
    }
    assert!(
        sealed.iter().any(|s| s.time.0 >= 8),
        "sealing stalled after late drops: {:?}",
        sealed.iter().map(|s| s.time.0).collect::<Vec<_>>()
    );
    assert_eq!(aligner.late_dropped(), 2, "no spurious late counts");
}
