//! Fuzz battery for every parser that takes bytes from outside the
//! process: the producer line protocol (`WireRecord::parse`, CSV and
//! NDJSON), a connection's command line (`Command::parse`), the subscriber
//! event line (`Event::parse`) and checkpoint files
//! (`CheckpointStore::load`).
//!
//! Each parser gets mangled forms of valid inputs: truncations, bit flips,
//! deep nesting, long strings, huge numbers, non-UTF-8 bytes and noise. It
//! must answer every one with a value or an error, never a panic. Each
//! parser also gets one size-doubling check: twice the bytes may take at
//! most three times as long (a quadratic parser takes four), and either
//! size must parse within the 10 s the JSON shim's
//! `long_strings_parse_in_linear_time` allows its 2 MiB string.

use icpe_core::{BalancerConfig, IcpeConfig, IcpePipeline};
use icpe_persist::{crc32, CheckpointStore, FORMAT_VERSION};
use icpe_serve::recovery::EdgeStatsCheckpoint;
use icpe_serve::{Command, Event, PatternEvent, ServeCheckpoint, WireRecord};
use icpe_types::{ChainCheckpoint, Constraints, ObjectId, Pattern, TimeSequence};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const RECORD_LINES: &[&str] = &[
    "7,12.5,1.0,-2.25",
    " 3 , 4 , 5 , 6 ",
    r#"{"id":3,"time":1.5,"x":2.0,"y":-1.0}"#,
    r#"{"time":0,"y":1e3,"x":-0.5,"id":4294967295}"#,
];

const COMMAND_LINES: &[&str] = &[
    "SUBSCRIBE patterns",
    "SUBSCRIBE",
    "SUBSCRIBE all",
    "STATUS",
    "METRICS",
    "EVENTS",
    "EVENTS 42",
];

const EVENT_LINES: &[&str] = &[
    r#"{"event":"pattern","objects":[1,2,3],"times":[4,5,6,7]}"#,
    r#"{"event":"snapshot","time":9,"patterns":2}"#,
    r#"{"event":"pattern","objects":[],"times":[]}"#,
];

/// Inserts `bytes` at `at` (wrapped into the input's length).
fn splice(out: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    let at = at % (out.len() + 1);
    out.splice(at..at, bytes.iter().copied());
}

/// A number no field can hold: overflowing, underflowing, or just long.
fn huge_number(len: usize, kind: u8) -> String {
    let digits = "9".repeat(1 + len % 2000);
    match kind % 5 {
        0 => format!("1e{digits}"),
        1 => format!("-0.{}1e-999", "0".repeat(len % 2000)),
        2 => "18446744073709551616".to_string(),
        3 => digits,
        _ => format!("{digits}.{digits}"),
    }
}

/// One mangled form of `seed`; `kind` picks the mangling, `a`, `b` and
/// `byte` parameterize it.
fn mangle(seed: &[u8], kind: usize, a: usize, b: usize, byte: u8) -> Vec<u8> {
    let mut out = seed.to_vec();
    match kind {
        0 => out.truncate(a % (seed.len() + 1)),
        1 => {
            for i in 0..=(b % 8) {
                let n = out.len().max(1);
                if let Some(at) = out.get_mut((a + i * 31) % n) {
                    *at ^= 1 << ((byte as usize + i) % 8);
                }
            }
        }
        2 => {
            let open: &str = if byte.is_multiple_of(2) {
                "["
            } else {
                r#"{"k":"#
            };
            splice(&mut out, a, open.repeat(1 + b % 5000).as_bytes());
        }
        3 => {
            let close = if byte.is_multiple_of(2) { "\"" } else { "" };
            let text = format!("\"{}{close}", r#"ab\"éé\n✓"#.repeat(1 + b % 4000));
            splice(&mut out, a, text.as_bytes());
        }
        4 => splice(&mut out, a, huge_number(b, byte).as_bytes()),
        5 => splice(&mut out, a, &[0xFF, 0xC0, 0x80, 0xED, 0xA0, byte]),
        _ => {
            out = (0..b % 512)
                .map(|i| (a.wrapping_mul(i + 1) >> (i % 7)) as u8 ^ byte)
                .collect()
        }
    }
    out
}

/// A hostile line: a mangled form of one of `seeds`.
fn hostile(seeds: &'static [&'static str]) -> impl Strategy<Value = Vec<u8>> {
    (
        0..seeds.len(),
        0usize..7,
        0usize..1 << 16,
        0usize..1 << 16,
        0u8..=255,
    )
        .prop_map(move |(seed, kind, a, b, byte)| mangle(seeds[seed].as_bytes(), kind, a, b, byte))
}

/// The text a parser sees of `bytes`. The server refuses a non-UTF-8 line
/// before any parser runs; the lossy form still reaches the parsers with
/// replacement characters where the bad bytes were.
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The calling thread's CPU time: time spent preempted on a busy host does
/// not count, and a parse of twice the bytes is not charged for being more
/// likely to lose the CPU midway.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_time() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    let ok = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) } == 0;
    ok.then(|| Duration::new(t.sec as u64, t.nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_time() -> Option<Duration> {
    None
}

/// Asserts that parsing `make(2n)` takes at most three times as long as
/// parsing `make(n)`, in thread CPU time (wall-clock time where that is
/// unavailable). Best of seven interleaved runs per size.
fn assert_linear<T>(what: &str, n: usize, make: impl Fn(usize) -> T, parse: impl Fn(&T)) {
    let (small, large) = (make(n), make(2 * n));
    let time = |input: &T| {
        let (cpu, wall) = (thread_cpu_time(), Instant::now());
        parse(input);
        match (cpu, thread_cpu_time()) {
            (Some(start), Some(end)) => end - start,
            _ => wall.elapsed(),
        }
    };
    let (mut t1, mut t2) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        t1 = t1.min(time(&small));
        t2 = t2.min(time(&large));
    }
    assert!(t2 < Duration::from_secs(10), "{what}: {t2:?} for 2n");
    assert!(
        t2 <= 3 * t1,
        "{what}: doubling the input took {t1:?} → {t2:?}, more than linear"
    );
}

/// A serve checkpoint as a real run writes it: the pipeline's cut (with
/// adaptive routing, so every section is populated) mid-stream, grown by
/// `chains` more live trajectory chains, and the edge counters.
fn checkpoint_with_chains(chains: usize) -> ServeCheckpoint {
    static PIPELINE: OnceLock<icpe_types::PipelineCheckpoint> = OnceLock::new();
    let pipeline = PIPELINE.get_or_init(|| {
        let config = IcpeConfig::builder()
            .constraints(Constraints::new(3, 6, 3, 2).unwrap())
            .epsilon(2.5)
            .min_pts(3)
            .parallelism(2)
            .rebalance(BalancerConfig::default())
            .build()
            .unwrap();
        let records = icpe_gen::GroupWalkGenerator::new(icpe_gen::GroupWalkConfig {
            num_objects: 30,
            num_groups: 3,
            group_size: 5,
            num_snapshots: 30,
            seed: 7,
            ..icpe_gen::GroupWalkConfig::default()
        })
        .traces()
        .to_gps_records();
        let live = IcpePipeline::launch(&config, |_| {});
        live.push_batch(records[..records.len() / 2].to_vec())
            .unwrap();
        let cut = live.checkpoint().unwrap();
        live.finish();
        cut
    });
    let mut pipeline = pipeline.clone();
    pipeline
        .aligner
        .chains
        .extend((0..chains as u32).map(|i| ChainCheckpoint {
            id: ObjectId(1_000 + i),
            clarified: Some(i % 97),
            waiting: Vec::new(),
        }));
    ServeCheckpoint {
        pipeline,
        interval: 1.0,
        stats: EdgeStatsCheckpoint {
            records_in: 450,
            ingest_batches: 8,
            records_rejected: 3,
            bytes_in: 9000,
            patterns_out: 12,
            snapshots_sealed: 14,
            ingested_tick: 15,
        },
    }
}

/// A fresh checkpoint directory for one test, removed when dropped.
struct TempStore(CheckpointStore);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let dir = std::env::temp_dir().join(format!("icpe-fuzz-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempStore(CheckpointStore::open(dir, 2).unwrap())
    }

    /// Writes `bytes` as checkpoint 1 and returns its path.
    fn write(&self, bytes: &[u8]) -> PathBuf {
        let path = self.0.path_for(1);
        std::fs::write(&path, bytes).unwrap();
        path
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0.dir());
    }
}

/// `payload` framed as the store frames it, with a header that matches, so
/// the payload reaches the JSON parser.
fn framed(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "ICPE-CHECKPOINT v{FORMAT_VERSION} seq=1 crc32={:08x} len={}\n",
        crc32(payload),
        payload.len()
    );
    [header.as_bytes(), payload, b"\n"].concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn record_lines_never_panic(line in hostile(RECORD_LINES)) {
        let _ = WireRecord::parse(&text(&line));
    }

    #[test]
    fn command_lines_never_panic(line in hostile(COMMAND_LINES)) {
        let _ = Command::parse(&text(&line));
    }

    #[test]
    fn event_lines_never_panic(line in hostile(EVENT_LINES)) {
        let _ = Event::parse(&text(&line));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mangled files: the raw file (the header check is the first line of
    /// defence) or the payload re-framed under a matching header (so the
    /// mangled JSON reaches the parser).
    #[test]
    fn mangled_checkpoint_files_never_panic(
        kind in 0usize..7,
        a in 0usize..1 << 20,
        b in 0usize..1 << 16,
        byte in 0u8..=255,
        reframe in proptest::bool::ANY,
    ) {
        let store = TempStore::new("mangled");
        let path = store.0.save(1, &checkpoint_with_chains(40)).unwrap();
        let file = std::fs::read(&path).unwrap();
        let bytes = if reframe {
            let payload_at = file.iter().position(|&c| c == b'\n').unwrap() + 1;
            let payload = &file[payload_at..file.len() - 1];
            framed(&mangle(payload, kind, a, b, byte))
        } else {
            mangle(&file, kind, a, b, byte)
        };
        let path = store.write(&bytes);
        let _ = store.0.load::<ServeCheckpoint>(&path);
    }
}

#[test]
fn record_lines_parse_in_linear_time() {
    // A CSV time with n digits, and an NDJSON line with an n-byte string
    // field the record does not have.
    assert_linear(
        "csv",
        1 << 16,
        |n| format!("7,0.{}1,1.0,2.0", "0".repeat(n)),
        |line| assert!(WireRecord::parse(line).is_ok()),
    );
    assert_linear(
        "ndjson",
        1 << 16,
        |n| {
            format!(
                r#"{{"id":1,"time":2,"x":3,"y":4,"pad":"{}"}}"#,
                "é".repeat(n / 2)
            )
        },
        |line| {
            let _ = WireRecord::parse(line);
        },
    );
}

#[test]
fn command_lines_parse_in_linear_time() {
    assert_linear(
        "command",
        1 << 18,
        |n| format!("SUBSCRIBE {}", "Patterns".repeat(n / 8)),
        |line| assert_eq!(Command::parse(line), Some(Command::Subscribe(None))),
    );
}

#[test]
fn event_lines_parse_in_linear_time() {
    let line = |n: usize| {
        let pattern = Pattern {
            objects: (0..n as u32).map(ObjectId).collect(),
            times: TimeSequence::from_raw(0..n as u32).unwrap(),
        };
        let mut line = String::new();
        PatternEvent::write_line(&pattern, &mut line);
        line
    };
    assert_linear("event", 1 << 12, line, |line| {
        assert!(matches!(Event::parse(line), Ok(Event::Pattern(_))))
    });
}

#[test]
fn checkpoint_files_load_in_linear_time() {
    let store = TempStore::new("linear");
    assert_linear(
        "checkpoint",
        1 << 12,
        |n| store.0.save(n as u64, &checkpoint_with_chains(n)).unwrap(),
        |path| {
            store.0.load::<ServeCheckpoint>(path).unwrap();
        },
    );
}

/// The doubling check is not vacuous: a parse that rescans the rest of
/// its input at every byte fails it.
#[test]
#[should_panic(expected = "more than linear")]
fn the_doubling_check_catches_a_quadratic_parse() {
    assert_linear(
        "quadratic",
        1 << 11,
        |n| vec![1u8; n],
        |bytes| {
            let rescans: u64 = (0..bytes.len())
                .map(|i| bytes[i..].iter().map(|&b| b as u64).sum::<u64>())
                .sum();
            std::hint::black_box(rescans);
        },
    );
}
