//! The wire protocol: newline-delimited text on every connection.
//!
//! A connection's first line decides its role:
//!
//! * `SUBSCRIBE <topic>` — the connection becomes a **subscriber**; the
//!   server streams NDJSON events (`topic` ∈ `patterns`, `snapshots`,
//!   `all`) until the subscriber disconnects, is shed, or the stream ends.
//! * `STATUS` — the server writes a `key=value` status block and closes.
//! * anything else — the connection is a **producer**; every line is one
//!   GPS record in either of two formats, auto-detected per line:
//!   * CSV: `obj_id,time,x,y` (`time` in seconds since the stream epoch);
//!   * NDJSON: `{"id":7,"time":12.5,"x":1.0,"y":2.0}`.
//!
//! Producers are fire-and-forget: malformed or stale lines are counted and
//! skipped, valid records are stamped (discretized time + per-trajectory
//! *last time* link) and pushed into the pipeline. Event lines pushed to
//! subscribers are NDJSON:
//!
//! * `{"event":"pattern","objects":[1,2,3],"times":[4,5,6,7]}`
//! * `{"event":"snapshot","time":9,"patterns":2}`

use icpe_types::Pattern;
use serde::{Deserialize, Serialize};

/// A record as it appears on the wire, before stamping/validation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireRecord {
    /// Reporting object id.
    pub id: u32,
    /// Clock time in seconds since the stream epoch.
    pub time: f64,
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// Why an ingest line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad record line: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl WireRecord {
    /// Parses one ingest line (CSV or NDJSON, auto-detected) and validates
    /// that the coordinates and time are finite.
    pub fn parse(line: &str) -> Result<WireRecord, ParseError> {
        let line = line.trim();
        let record = if line.starts_with('{') {
            serde_json::from_str::<WireRecord>(line)
                .map_err(|e| ParseError(format!("ndjson: {e}")))?
        } else {
            let mut parts = line.split(',');
            let mut next = |what: &str| {
                parts
                    .next()
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| ParseError(format!("missing field `{what}`")))
            };
            let id = next("obj_id")?
                .parse::<u32>()
                .map_err(|e| ParseError(format!("obj_id: {e}")))?;
            let time = next("time")?
                .parse::<f64>()
                .map_err(|e| ParseError(format!("time: {e}")))?;
            let x = next("x")?
                .parse::<f64>()
                .map_err(|e| ParseError(format!("x: {e}")))?;
            let y = next("y")?
                .parse::<f64>()
                .map_err(|e| ParseError(format!("y: {e}")))?;
            if parts.next().is_some() {
                return Err(ParseError("too many fields".into()));
            }
            WireRecord { id, time, x, y }
        };
        if !record.time.is_finite() || !record.x.is_finite() || !record.y.is_finite() {
            return Err(ParseError("non-finite time or coordinates".into()));
        }
        Ok(record)
    }

    /// Renders the CSV form of this record.
    pub fn to_csv(&self) -> String {
        format!("{},{},{},{}", self.id, self.time, self.x, self.y)
    }

    /// Renders the NDJSON form of this record.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("wire record serializes")
    }
}

/// What a subscriber asked to receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topic {
    /// Pattern events only.
    Patterns,
    /// Snapshot-sealed events only.
    Snapshots,
    /// Everything.
    All,
}

impl Topic {
    /// Parses the argument of a `SUBSCRIBE` line.
    pub fn parse(s: &str) -> Option<Topic> {
        match s.trim().to_ascii_lowercase().as_str() {
            "patterns" => Some(Topic::Patterns),
            "snapshots" => Some(Topic::Snapshots),
            "all" | "" => Some(Topic::All),
            _ => None,
        }
    }

    /// Whether events of `kind` are delivered under this subscription.
    pub fn accepts(&self, kind: EventKind) -> bool {
        matches!(
            (self, kind),
            (Topic::All, _)
                | (Topic::Patterns, EventKind::Pattern)
                | (Topic::Snapshots, EventKind::Snapshot)
        )
    }
}

/// What the first line of a connection asks for; any other first line is
/// a producer's first record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `SUBSCRIBE [topic]`; `None` names an unknown topic.
    Subscribe(Option<Topic>),
    /// `STATUS`.
    Status,
    /// `METRICS`.
    Metrics,
    /// `EVENTS [since-seq]` (0 when absent); `None` when the argument is
    /// not a sequence number.
    Events(Option<u64>),
}

impl Command {
    /// Parses a connection's first line; `None` when it is no command.
    pub fn parse(line: &str) -> Option<Command> {
        let line = line.trim();
        if let Some(topic) = line.strip_prefix("SUBSCRIBE") {
            return Some(Command::Subscribe(Topic::parse(topic)));
        }
        match line {
            "STATUS" => return Some(Command::Status),
            "METRICS" => return Some(Command::Metrics),
            _ => {}
        }
        let since = line
            .strip_prefix("EVENTS")
            .filter(|arg| arg.is_empty() || arg.starts_with(' '))?;
        Some(Command::Events(match since.trim() {
            "" => Some(0),
            n => n.parse().ok(),
        }))
    }
}

/// Discriminates the two event-line kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A co-movement pattern.
    Pattern,
    /// A snapshot-sealed notice.
    Snapshot,
}

/// A pattern event as serialized to subscribers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternEvent {
    /// Always `"pattern"`.
    pub event: String,
    /// The co-moving object ids, ascending.
    pub objects: Vec<u32>,
    /// The witnessing time sequence (discretized ticks).
    pub times: Vec<u32>,
}

impl PatternEvent {
    /// Builds the event for a detected pattern.
    pub fn from_pattern(p: &Pattern) -> PatternEvent {
        PatternEvent {
            event: "pattern".to_string(),
            objects: p.objects.iter().map(|o| o.0).collect(),
            times: p.times.times().iter().map(|t| t.0).collect(),
        }
    }

    /// Renders the event line of `p` into `line` (cleared first): byte for
    /// byte `serde_json::to_string(&PatternEvent::from_pattern(p))`, written
    /// digit by digit into the caller's reused buffer — no event, no `Value`
    /// tree, no intermediate strings.
    pub fn write_line(p: &Pattern, line: &mut String) {
        line.clear();
        line.push_str("{\"event\":\"pattern\",\"objects\":");
        push_list(line, p.objects.iter().map(|o| o.0));
        line.push_str(",\"times\":");
        push_list(line, p.times.times().iter().map(|t| t.0));
        line.push('}');
    }
}

/// Appends `[a,b,…]` in decimal.
fn push_list(out: &mut String, values: impl Iterator<Item = u32>) {
    out.push('[');
    for (i, mut v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend(digits[at..].iter().map(|&d| d as char));
    }
    out.push(']');
}

/// A snapshot-sealed event as serialized to subscribers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotEvent {
    /// Always `"snapshot"`.
    pub event: String,
    /// The sealed snapshot's discretized time.
    pub time: u32,
    /// Patterns whose witnessing sequence ended at this snapshot.
    pub patterns: u32,
}

/// A parsed subscriber event line.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A pattern event.
    Pattern(PatternEvent),
    /// A snapshot-sealed event.
    Snapshot(SnapshotEvent),
}

impl Event {
    /// Parses one NDJSON event line from a subscription stream.
    pub fn parse(line: &str) -> Result<Event, ParseError> {
        let value =
            serde_json::parse(line.trim()).map_err(|e| ParseError(format!("event: {e}")))?;
        let kind = value
            .field("event", "Event")
            .ok()
            .and_then(|v| v.as_str())
            .map(str::to_owned)
            .ok_or_else(|| ParseError("missing `event` discriminator".into()))?;
        match kind.as_str() {
            "pattern" => serde_json::from_value::<PatternEvent>(&value)
                .map(Event::Pattern)
                .map_err(|e| ParseError(format!("pattern event: {e}"))),
            "snapshot" => serde_json::from_value::<SnapshotEvent>(&value)
                .map(Event::Snapshot)
                .map_err(|e| ParseError(format!("snapshot event: {e}"))),
            other => Err(ParseError(format!("unknown event kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_types::{ObjectId, TimeSequence};
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    #[test]
    fn written_lines_equal_serialized_events() {
        let mut rng = StdRng::seed_from_u64(0x11E);
        // Ascending values with every digit count, lists of 0, 1 and more.
        let list = |rng: &mut StdRng| -> Vec<u32> {
            let len = rng.random_range(0..6usize);
            let mut next = 0u64;
            (0..len)
                .map_while(|_| {
                    let digits = rng.random_range(0..10u32);
                    next += 1 + rng.random_range(0..10u64.pow(digits));
                    u32::try_from(next).ok()
                })
                .collect()
        };
        let mut line = String::new();
        for case in 0..2_000 {
            let pattern = Pattern {
                objects: list(&mut rng).into_iter().map(ObjectId).collect(),
                times: TimeSequence::from_raw(list(&mut rng)).unwrap(),
            };
            PatternEvent::write_line(&pattern, &mut line);
            let event = PatternEvent::from_pattern(&pattern);
            assert_eq!(line, serde_json::to_string(&event).unwrap(), "case {case}");
            assert_eq!(Event::parse(&line).unwrap(), Event::Pattern(event));
        }
        let extremes = Pattern {
            objects: vec![ObjectId(0), ObjectId(u32::MAX)],
            times: TimeSequence::from_raw([u32::MAX]).unwrap(),
        };
        PatternEvent::write_line(&extremes, &mut line);
        let event = PatternEvent::from_pattern(&extremes);
        assert_eq!(line, serde_json::to_string(&event).unwrap());
    }

    #[test]
    fn first_lines_classify() {
        let parse = Command::parse;
        assert_eq!(parse(" STATUS\r\n"), Some(Command::Status));
        assert_eq!(parse("METRICS"), Some(Command::Metrics));
        assert_eq!(
            parse("SUBSCRIBE"),
            Some(Command::Subscribe(Some(Topic::All)))
        );
        assert_eq!(
            parse("SUBSCRIBE Patterns"),
            Some(Command::Subscribe(Some(Topic::Patterns)))
        );
        assert_eq!(parse("SUBSCRIBE bogus"), Some(Command::Subscribe(None)));
        assert_eq!(parse("EVENTS"), Some(Command::Events(Some(0))));
        assert_eq!(parse("EVENTS  17 "), Some(Command::Events(Some(17))));
        assert_eq!(parse("EVENTS -1"), Some(Command::Events(None)));
        // Records, and words that merely start like a command.
        for line in ["7,1.0,2.0,3.0", "EVENTS17", "STATUSES", "status", ""] {
            assert_eq!(parse(line), None, "{line:?}");
        }
    }

    #[test]
    fn csv_lines_parse() {
        let r = WireRecord::parse("7,12.5,1.0,-2.25").unwrap();
        assert_eq!(
            r,
            WireRecord {
                id: 7,
                time: 12.5,
                x: 1.0,
                y: -2.25
            }
        );
        // Whitespace tolerated, integer time tolerated.
        assert_eq!(WireRecord::parse(" 3 , 4 , 5 , 6 ").unwrap().id, 3);
    }

    #[test]
    fn json_lines_parse_and_round_trip() {
        let r = WireRecord::parse(r#"{"id":7,"time":12.5,"x":1.0,"y":-2.25}"#).unwrap();
        assert_eq!(r.id, 7);
        assert_eq!(WireRecord::parse(&r.to_json()).unwrap(), r);
        assert_eq!(WireRecord::parse(&r.to_csv()).unwrap(), r);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "1,2,3",
            "1,2,3,4,5",
            "x,2,3,4",
            "1,nan,3,4",
            "1,inf,3,4",
            "{\"id\":1}",
            "{not json",
            "-1,2,3,4",
        ] {
            assert!(WireRecord::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn topics_filter_events() {
        assert_eq!(Topic::parse("patterns"), Some(Topic::Patterns));
        assert_eq!(Topic::parse(" ALL "), Some(Topic::All));
        assert_eq!(Topic::parse("nope"), None);
        assert!(Topic::Patterns.accepts(EventKind::Pattern));
        assert!(!Topic::Patterns.accepts(EventKind::Snapshot));
        assert!(Topic::All.accepts(EventKind::Snapshot));
    }

    #[test]
    fn events_round_trip() {
        let p = Pattern::new(
            vec![ObjectId(2), ObjectId(1)],
            TimeSequence::from_raw([3, 4, 5]).unwrap(),
        );
        let event = PatternEvent::from_pattern(&p);
        let line = serde_json::to_string(&event).unwrap();
        assert_eq!(Event::parse(&line).unwrap(), Event::Pattern(event));

        // The hand-rendered line is the serialized event, byte for byte.
        let mut direct = String::from("stale");
        PatternEvent::write_line(&p, &mut direct);
        assert_eq!(direct, line);

        let s = SnapshotEvent {
            event: "snapshot".into(),
            time: 9,
            patterns: 2,
        };
        let line = serde_json::to_string(&s).unwrap();
        assert_eq!(Event::parse(&line).unwrap(), Event::Snapshot(s));
        assert!(Event::parse("{\"event\":\"mystery\"}").is_err());
    }
}
