//! Spans recorded from the benchmark's side of each call into a layer.
//! They stay in memory while the run measures and are written out when it
//! ends.

use serde::Value;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call (or group of calls) into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<module>`, or `walk.snapshot` for the per-snapshot root.
    pub name: &'static str,
    /// The trace this span belongs to: the snapshot's time.
    pub trace: u32,
    /// Name of the span that caused this one, within the same trace.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans against one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `name` around `call`; returns its result and the span's
    /// duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u32,
        parent: Option<&'static str>,
        call: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }

    /// Records a span whose interval was measured by the caller.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Total seconds under `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(name))
            .map(Span::seconds)
            .sum();
        self.busy_s(name) - children
    }

    /// Writes `{"spans":[{name,trace,parent,start_ns,end_ns},…],"metrics":{…}}`.
    pub fn write(&self, path: &Path, metrics: &[(String, f64)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"spans\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"trace\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.trace,
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        let metrics = Value::Map(
            metrics
                .iter()
                .map(|(name, value)| (name.clone(), Value::Float(*value)))
                .collect(),
        );
        let metrics = serde_json::to_string(&metrics).map_err(std::io::Error::other)?;
        writeln!(out, "],\n\"metrics\":{metrics}}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new();
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            trace: 4,
            parent,
            start_ns,
            end_ns,
        };
        r.push(span("walk.snapshot", None, 0, 1_000_000_000));
        r.push(span("cluster.query", Some("walk.snapshot"), 0, 600_000_000));
        r.push(span(
            "cluster.sync",
            Some("walk.snapshot"),
            600_000_000,
            900_000_000,
        ));
        assert!((r.busy_s("walk.snapshot") - 1.0).abs() < 1e-12);
        assert!((r.self_s("walk.snapshot") - 0.1).abs() < 1e-12);
        assert!((r.self_s("cluster.query") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn written_trace_parses_back() {
        let mut r = Recorder::new();
        r.time("cluster.query", 9, Some("walk.snapshot"), || ());
        r.time("walk.snapshot", 9, None, || ());
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace.json");
        r.write(&path, &[("cluster.query.busy_s".to_string(), 0.25)])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let value = serde_json::parse(&text).unwrap();
        let spans = value.field("spans", "trace").unwrap().as_seq().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].field("parent", "span").unwrap().as_str(),
            Some("walk.snapshot")
        );
        assert_eq!(spans[1].field("parent", "span").unwrap(), &Value::Null);
    }
}
