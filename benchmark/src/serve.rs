//! One pass of a record stream through `icpe-serve` over real TCP: the
//! benchmark's own CSV writer on one producer connection, its own reader
//! on one `SUBSCRIBE all` connection. Latency closes when the subscriber
//! has read the snapshot's event line.

use crate::loadgen::open_loop;
use crate::oracle::{verify, Delivered, EdgeCounts, Oracle};
use crate::passes::{Load, PassOutcome};
use icpe_core::IcpeConfig;
use icpe_serve::{ServeConfig, Server, WireRecord};
use icpe_types::GpsRecord;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Lines a subscriber may lag before the hub sheds it. The publisher never
/// waits for a subscriber, so in a closed loop the queue must hold the
/// burst the pipeline can get ahead by — here, a whole pass's events.
const SUBSCRIBER_QUEUE: usize = 1 << 19;

/// The server configuration of every TCP pass: defaults, except that the
/// environment cannot change it, the subscriber queue is sized as above,
/// and the 250 ms start-up grace (which exists to line up a fleet of
/// producers; there is one) is off.
fn serve_config(engine: &IcpeConfig) -> ServeConfig {
    let mut config = ServeConfig::new(engine.clone());
    config.subscriber_queue = SUBSCRIBER_QUEUE;
    config.startup_grace = Duration::ZERO;
    config.socket_timeout = None;
    config.journal_patterns = false;
    config
}

/// A record stream rendered to the wire once, during set-up.
pub struct WireStream {
    bytes: Vec<u8>,
    /// Byte offset one past each record's line.
    line_end: Vec<usize>,
}

impl WireStream {
    /// CSV lines (`WireRecord::to_csv`), tick `t` stamped as second `t` of
    /// the server's 1 s interval.
    pub fn render(records: &[GpsRecord]) -> WireStream {
        let mut bytes = Vec::with_capacity(records.len() * 40);
        let mut line_end = Vec::with_capacity(records.len());
        for r in records {
            let wire = WireRecord {
                id: r.id.0,
                time: f64::from(r.time.0),
                x: r.location.x,
                y: r.location.y,
            };
            bytes.extend_from_slice(wire.to_csv().as_bytes());
            bytes.push(b'\n');
            line_end.push(bytes.len());
        }
        WireStream { bytes, line_end }
    }

    pub fn records(&self) -> usize {
        self.line_end.len()
    }

    /// The rendered lines, one per record.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        std::str::from_utf8(&self.bytes)
            .expect("CSV lines are ASCII")
            .lines()
    }

    /// The bytes of records `from..to`.
    fn slice(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 {
            0
        } else {
            self.line_end[from - 1]
        };
        &self.bytes[start..self.line_end[to - 1]]
    }
}

/// One subscriber event line, borrowed into reused buffers.
#[derive(Debug, PartialEq, Eq)]
enum WireEvent {
    Pattern,
    Snapshot(u32),
}

/// Parses the integers of `"key":[1,2,3]` into `out`.
fn int_list(line: &str, key: &str, out: &mut Vec<u32>) -> Option<()> {
    out.clear();
    let body = &line[line.find(key)? + key.len()..];
    let body = &body[..body.find(']')?];
    for n in body.split(',').filter(|n| !n.is_empty()) {
        out.push(n.trim().parse().ok()?);
    }
    Some(())
}

/// Reads one NDJSON event line as `icpe-serve` renders it; a pattern's
/// ids and times land in `objects` and `times`.
fn parse_event(line: &str, objects: &mut Vec<u32>, times: &mut Vec<u32>) -> Option<WireEvent> {
    if line.contains("\"event\":\"pattern\"") {
        int_list(line, "\"objects\":[", objects)?;
        int_list(line, "\"times\":[", times)?;
        Some(WireEvent::Pattern)
    } else if line.contains("\"event\":\"snapshot\"") {
        let key = "\"time\":";
        let rest = &line[line.find(key)? + key.len()..];
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        Some(WireEvent::Snapshot(rest[..digits].parse().ok()?))
    } else {
        None
    }
}

/// Reads the subscription to end of stream into `sink`; returns the number
/// of lines it could not read as events.
fn read_subscription(stream: TcpStream, sink: &Mutex<Delivered>) -> u64 {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let (mut objects, mut times) = (Vec::new(), Vec::new());
    let mut line = String::new();
    let mut lost = 0u64;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return lost,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut sink = sink.lock().expect("sink poisoned");
        match parse_event(&line, &mut objects, &mut times) {
            Some(WireEvent::Pattern) => sink
                .patterns
                .add(objects.iter().copied(), times.iter().copied()),
            Some(WireEvent::Snapshot(time)) => sink.seal(time, Instant::now()),
            None => lost += 1,
        }
    }
}

/// Starts a server and shuts it down again — the "first launch/bind" share
/// of set-up.
pub fn bind_once(engine: &IcpeConfig) -> std::io::Result<()> {
    Server::start(serve_config(engine))?.finish();
    Ok(())
}

/// Runs one pass over TCP. Mirrors [`crate::passes::run_pass`].
pub fn run_pass(
    engine: &IcpeConfig,
    stream: &WireStream,
    oracle: &Oracle,
    load: Load,
) -> std::io::Result<PassOutcome> {
    let server = Server::start(serve_config(engine))?;
    let addr = server.local_addr();
    let sink = Arc::new(Mutex::new(Delivered::expecting(oracle)));

    let mut subscriber = TcpStream::connect(addr)?;
    subscriber.set_nodelay(true)?;
    subscriber.write_all(b"SUBSCRIBE all\n")?;
    // Events published before the hub knows the subscriber would be lost:
    // wait until it is registered.
    let give_up = Instant::now() + Duration::from_secs(10);
    while server.stats().subscribers.load(Ordering::Relaxed) == 0 {
        if Instant::now() > give_up {
            return Err(std::io::Error::other(
                "the server never registered the subscriber",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let reader_sink = Arc::clone(&sink);
    let reader = std::thread::Builder::new()
        .name("bench-subscriber".into())
        .spawn(move || read_subscription(subscriber, &reader_sink))?;

    let started = Instant::now();
    let mut producer = TcpStream::connect(addr)?;
    producer.set_nodelay(true)?;
    let mut write_error = None;
    let report = match load {
        Load::Saturate => {
            write_error = producer.write_all(&stream.bytes).err();
            None
        }
        Load::Paced {
            ticks_per_s,
            group_records,
        } => {
            let groups = stream.records().div_ceil(group_records) as u32;
            Some(open_loop(
                ticks_per_s,
                groups,
                group_records,
                |k| {
                    let from = k as usize * group_records;
                    let to = (from + group_records).min(stream.records());
                    if write_error.is_none() {
                        write_error = producer.write_all(stream.slice(from, to)).err();
                    }
                },
                || sink.lock().expect("sink poisoned").sealed,
            ))
        }
    };
    // End of stream: the handler reads to EOF, then `finish` drains the
    // pipeline and closes the subscription behind its last line.
    producer.shutdown(Shutdown::Write).ok();
    drop(producer);
    // Wait until the handler has dealt with every line (accepted or
    // rejected) before `finish`: a handler that has not picked its
    // connection up yet is invisible to the server's own drain, and its
    // records would be refused. `finish` consumes the server, so the
    // counters are read here.
    let offered = stream.records() as u64;
    let stats = server.stats();
    let give_up = Instant::now() + Duration::from_secs(10);
    while stats.records_in.load(Ordering::Relaxed) + stats.records_rejected.load(Ordering::Relaxed)
        < offered
        && write_error.is_none()
        && Instant::now() < give_up
    {
        std::thread::sleep(Duration::from_micros(200));
    }
    let accepted = stats.records_in.load(Ordering::Relaxed);
    let shed = server.shed_count();
    let metrics = server.finish();
    let unreadable = reader.join().expect("subscriber reader panicked");
    let wall_s = started.elapsed().as_secs_f64();

    // Not accepted: rejected or quarantined by the server, or never
    // written (a failed write). Refused all the same.
    let refused = offered.saturating_sub(accepted);
    if let Some(e) = write_error {
        eprintln!("producer write failed: {e}");
    }
    let delivered = std::mem::replace(
        &mut *sink.lock().expect("sink poisoned"),
        Delivered::expecting(oracle),
    );
    let tally = verify(
        oracle,
        &delivered,
        EdgeCounts {
            offered,
            refused,
            late_dropped: metrics.late_records,
            lines_lost: unreadable + shed,
        },
    );
    Ok(PassOutcome {
        wall_s,
        tally,
        delivered,
        open_loop: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_serve::{PatternEvent, SnapshotEvent};

    #[test]
    fn event_lines_parse_as_the_server_renders_them() {
        let (mut objects, mut times) = (Vec::new(), Vec::new());
        let pattern = serde_json::to_string(&PatternEvent {
            event: "pattern".into(),
            objects: vec![3, 14, 15],
            times: vec![9, 10, 12, 13],
        })
        .unwrap();
        assert_eq!(
            parse_event(&pattern, &mut objects, &mut times),
            Some(WireEvent::Pattern)
        );
        assert_eq!(
            (objects.as_slice(), times.as_slice()),
            (&[3, 14, 15][..], &[9, 10, 12, 13][..])
        );

        let snapshot = serde_json::to_string(&SnapshotEvent {
            event: "snapshot".into(),
            time: 812,
            patterns: 7,
        })
        .unwrap();
        assert_eq!(
            parse_event(&snapshot, &mut objects, &mut times),
            Some(WireEvent::Snapshot(812))
        );
        assert_eq!(
            parse_event("ERR unknown topic", &mut objects, &mut times),
            None
        );
        assert_eq!(
            parse_event("{\"event\":\"pattern\"}", &mut objects, &mut times),
            None
        );
    }

    #[test]
    fn wire_stream_slices_on_record_boundaries() {
        let w = crate::workload::find("serve_fanout").unwrap();
        let records = w.records(1, 24);
        let stream = WireStream::render(&records);
        assert_eq!(stream.records(), records.len());
        // The second tick's release group.
        let n = w.objects;
        let text = std::str::from_utf8(stream.slice(n, 2 * n)).unwrap();
        assert_eq!(text.lines().count(), n);
        let first = WireRecord::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!((first.id, first.time), (records[n].id.0, 1.0));
        assert_eq!(first.x, records[n].location.x);
    }
}
