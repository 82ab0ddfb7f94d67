//! Unified per-stage observability: metric registry, log-bucketed
//! histograms, and a bounded structured event journal.
//!
//! The paper's evaluation (§7) reports only end-to-end latency and
//! throughput; production streaming detectors need *per-stage* visibility
//! to locate hotspots before rebalancing them. This module provides the one
//! registry every pipeline number is read from:
//!
//! * [`MetricRegistry`] — a cloneable handle to atomic **counters**,
//!   **gauges**, and **histograms** keyed by `stage/subtask/name`.
//!   Registration takes a lock once (at stage build time); the hot path is
//!   sampling-free relaxed atomics.
//! * [`Histogram`] — HDR-style log-linear buckets over nanoseconds (4
//!   sub-buckets per power of two, ≤ 25 % quantile error), with exact sum,
//!   count, and max. Reporting is O(buckets), never O(samples).
//! * [`StageObs`] / [`ExchangeObs`] — the two instrumentation points the
//!   runtime threads through every dataflow: per-batch processing time and
//!   records/batches in/out around `Operator::process_batch`, and
//!   per-destination queue depth plus blocked-send (backpressure) time at
//!   each exchange hop.
//! * [`ObsEvent`] — a bounded ring journal of typed events (window sealed,
//!   barrier passed, cell migrated, subscriber shed, late batch dropped)
//!   with monotonic sequence numbers, drained by the serve tier's `EVENTS`
//!   endpoint.
//!
//! A pipeline's status gauges are operator state: each has one owning
//! operator, which publishes it, and checkpoints it with its own state.
//! Stage and exchange counters exist only in an instrumented dataflow and
//! survive checkpoint/restore here: the driver captures
//! [`MetricRegistry::counter_checkpoint`] into the `PipelineCheckpoint` and
//! a restored registry is re-credited via [`MetricRegistry::restore`]
//! (summed across subtasks, credited to subtask 0).

use icpe_types::{ObsCheckpoint, ObsCounterEntry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Sub-bucket resolution: 2 bits → 4 log-linear sub-buckets per octave.
const SUB_BITS: u32 = 2;
/// Smallest resolved magnitude: 2^10 ns ≈ 1 µs (everything below lands in
/// the first bucket).
const MIN_EXP: u32 = 10;
/// Largest resolved magnitude: 2^35 ns ≈ 34 s (everything above is counted
/// in the overflow bucket, reported only under `+Inf`).
const MAX_EXP: u32 = 35;
/// Fine buckets between the two magnitudes.
const BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) << SUB_BITS;

/// Events retained by the journal ring buffer. Sized so an `EVENTS
/// since-seq` follower paging over a live stream has seconds — not
/// hundreds of milliseconds — of slack before eviction outruns it, even
/// with per-pattern journaling enabled (a rendered event is ~100 bytes,
/// so the ring tops out around 1 MB per registry).
pub const EVENT_CAPACITY: usize = 8192;

/// Fine-bucket index for a nanosecond value; `None` means overflow.
fn bucket_index(ns: u64) -> Option<usize> {
    if ns < (1 << MIN_EXP) {
        return Some(0);
    }
    let e = 63 - ns.leading_zeros();
    if e >= MAX_EXP {
        return None;
    }
    let sub = ((ns >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    Some((((e - MIN_EXP) as usize) << SUB_BITS) + sub)
}

/// Upper bound (ns) of a fine bucket: values in the bucket are `< bound`.
fn bucket_bound_ns(idx: usize) -> u64 {
    let e = MIN_EXP + (idx >> SUB_BITS) as u32;
    let sub = (idx & ((1 << SUB_BITS) - 1)) as u64;
    (1u64 << e) + ((sub + 1) << (e - SUB_BITS))
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    sum_ns: AtomicU64,
    count: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn observe_ns(&self, ns: u64) {
        match bucket_index(ns) {
            Some(idx) => self.buckets[idx].fetch_add(1, Relaxed),
            None => self.overflow.fetch_add(1, Relaxed),
        };
        self.sum_ns.fetch_add(ns, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            overflow: self.overflow.load(Relaxed),
            sum_ns: self.sum_ns.load(Relaxed),
            count: self.count.load(Relaxed),
            max_ns: self.max_ns.load(Relaxed),
        }
    }
}

/// A cloneable handle to one registered (or standalone) histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one duration sample (relaxed atomics; no lock).
    pub fn record(&self, d: Duration) {
        self.core
            .observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one raw nanosecond sample.
    pub fn observe_ns(&self, ns: u64) {
        self.core.observe_ns(ns);
    }

    /// A point-in-time copy of the bucket counts for O(buckets) reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

/// Point-in-time histogram counts (see [`Histogram::snapshot`]).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    overflow: u64,
    sum_ns: u64,
    count: u64,
    max_ns: u64,
}

impl HistogramSnapshot {
    /// Total samples observed (cumulative over the run).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples above the histogram ceiling (counted only under `+Inf`).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Exact mean of all samples (sum and count are exact even though
    /// quantiles are bucketed).
    pub fn mean(&self) -> Duration {
        match self.sum_ns.checked_div(self.count) {
            Some(mean_ns) => Duration::from_nanos(mean_ns),
            None => Duration::ZERO,
        }
    }

    /// Exact maximum sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns)
    }

    /// Bucketed quantile: the upper bound of the bucket containing the
    /// `q`-th sample, clamped to the exact max (≤ 25 % relative error from
    /// the log-linear bucket width).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_nanos(bucket_bound_ns(idx).min(self.max_ns));
            }
        }
        Duration::from_nanos(self.max_ns)
    }
}

/// A cloneable monotonic counter (relaxed atomic adds on the hot path).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.cell.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

/// A cloneable last-value gauge (relaxed atomic store on the hot path).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Stores the latest sampled value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Relaxed);
    }

    /// Last sampled value.
    pub fn get(&self) -> u64 {
        self.cell.load(Relaxed)
    }
}

/// Registry key; ordered by (name, stage, subtask) so rendering groups
/// every series of a metric family under one `# TYPE` header.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    stage: String,
    subtask: u32,
}

#[derive(Debug)]
struct CounterCell {
    cell: Arc<AtomicU64>,
    /// The atomic holds nanoseconds; render as fractional seconds. Derived
    /// from the metric name (`*seconds_total`).
    nanos: bool,
}

#[derive(Debug, Default)]
struct Journal {
    events: VecDeque<ObsEvent>,
    next_seq: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<MetricKey, CounterCell>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<HistogramCore>>>,
    journal: Mutex<Journal>,
}

/// One structured journal entry with its monotonic sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotonic sequence number (1-based; never reused within a process).
    pub seq: u64,
    /// What happened.
    pub kind: ObsEventKind,
}

/// Typed journal events — the state transitions an operator debugging the
/// pipeline needs a history of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEventKind {
    /// A snapshot window fully sealed (results emitted downstream).
    WindowSealed {
        /// The snapshot time that sealed.
        time: u32,
    },
    /// A checkpoint barrier completed its pass through the pipeline.
    BarrierPassed {
        /// The checkpoint sequence number.
        checkpoint_seq: u64,
    },
    /// The hotspot repartitioner installed a new routing epoch.
    CellMigrated {
        /// The routing epoch just installed.
        epoch: u64,
        /// Cells that changed owner in this epoch.
        cells: u64,
    },
    /// A slow subscriber's queue overflowed and it was disconnected.
    SubscriberShed {
        /// The shed subscriber's connection id.
        subscriber: u64,
    },
    /// Records arrived after their snapshot sealed and were dropped.
    LateBatchDropped {
        /// How many records the aligner dropped in this batch.
        records: u64,
    },
    /// A supervised subtask died (panic caught at the worker boundary).
    StageFailed {
        /// Stage name of the dead worker.
        stage: String,
        /// Subtask index of the dead worker.
        subtask: u64,
    },
    /// The supervisor began tearing down and relaunching the pipeline.
    PipelineRecovering {
        /// 1-based restart attempt number.
        restart: u64,
    },
    /// The pipeline came back up and finished replaying buffered records.
    PipelineRecovered {
        /// 1-based restart attempt number that succeeded.
        restart: u64,
        /// Records replayed from the post-checkpoint buffer.
        replayed: u64,
    },
    /// The supervisor exhausted its restart budget; the pipeline is
    /// terminally failed.
    PipelineFailed {
        /// Restart attempts consumed before giving up.
        restarts: u64,
    },
    /// `load_latest` skipped a torn or corrupt checkpoint on disk and fell
    /// back to an older one.
    CheckpointSkipped {
        /// Sequence number of the skipped checkpoint.
        seq: u64,
        /// Why it was unreadable (rendered `PersistError`).
        reason: String,
    },
    /// Malformed producer lines were moved to the dead-letter buffer.
    RecordQuarantined {
        /// Producer connection id the lines came from.
        conn: u64,
        /// How many lines this event covers.
        records: u64,
    },
    /// A pattern was sealed and delivered downstream. Journaled at the
    /// delivery edge so a subscriber shed mid-stream can reconnect and
    /// backfill what it missed with `EVENTS since-seq` (best-effort: the
    /// journal is a bounded ring, so backfill reaches at most
    /// [`EVENT_CAPACITY`] events into the past).
    PatternSealed {
        /// Object ids in the pattern.
        objects: Vec<u32>,
        /// Snapshot times the pattern spans.
        times: Vec<u32>,
    },
}

impl ObsEvent {
    /// One-line JSON rendering for the `EVENTS` wire endpoint.
    pub fn render_json(&self) -> String {
        match &self.kind {
            ObsEventKind::WindowSealed { time } => {
                format!(
                    "{{\"seq\":{},\"event\":\"window_sealed\",\"time\":{}}}",
                    self.seq, time
                )
            }
            ObsEventKind::BarrierPassed { checkpoint_seq } => format!(
                "{{\"seq\":{},\"event\":\"barrier_passed\",\"checkpoint_seq\":{}}}",
                self.seq, checkpoint_seq
            ),
            ObsEventKind::CellMigrated { epoch, cells } => format!(
                "{{\"seq\":{},\"event\":\"cell_migrated\",\"epoch\":{},\"cells\":{}}}",
                self.seq, epoch, cells
            ),
            ObsEventKind::SubscriberShed { subscriber } => format!(
                "{{\"seq\":{},\"event\":\"subscriber_shed\",\"subscriber\":{}}}",
                self.seq, subscriber
            ),
            ObsEventKind::LateBatchDropped { records } => format!(
                "{{\"seq\":{},\"event\":\"late_batch_dropped\",\"records\":{}}}",
                self.seq, records
            ),
            ObsEventKind::StageFailed { stage, subtask } => format!(
                "{{\"seq\":{},\"event\":\"stage_failed\",\"stage\":\"{}\",\"subtask\":{}}}",
                self.seq,
                json_escape(stage),
                subtask
            ),
            ObsEventKind::PipelineRecovering { restart } => format!(
                "{{\"seq\":{},\"event\":\"pipeline_recovering\",\"restart\":{}}}",
                self.seq, restart
            ),
            ObsEventKind::PipelineRecovered { restart, replayed } => format!(
                "{{\"seq\":{},\"event\":\"pipeline_recovered\",\"restart\":{},\"replayed\":{}}}",
                self.seq, restart, replayed
            ),
            ObsEventKind::PipelineFailed { restarts } => format!(
                "{{\"seq\":{},\"event\":\"pipeline_failed\",\"restarts\":{}}}",
                self.seq, restarts
            ),
            ObsEventKind::CheckpointSkipped { seq, reason } => format!(
                "{{\"seq\":{},\"event\":\"checkpoint_skipped\",\"checkpoint_seq\":{},\"reason\":\"{}\"}}",
                self.seq,
                seq,
                json_escape(reason)
            ),
            ObsEventKind::RecordQuarantined { conn, records } => format!(
                "{{\"seq\":{},\"event\":\"record_quarantined\",\"conn\":{},\"records\":{}}}",
                self.seq, conn, records
            ),
            ObsEventKind::PatternSealed { objects, times } => format!(
                "{{\"seq\":{},\"event\":\"pattern_sealed\",\"objects\":{},\"times\":{}}}",
                self.seq,
                render_u32_array(objects),
                render_u32_array(times)
            ),
        }
    }
}

/// `[1,2,3]` — JSON array of numbers without pulling in a serializer.
fn render_u32_array(values: &[u32]) -> String {
    let mut out = String::with_capacity(2 + values.len() * 4);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Minimal JSON string escaping for event fields that carry free text
/// (error messages, stage names): backslash, quote, and control bytes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The cloneable registry handle shared by every stage, exchange hop, and
/// the serve tier. All clones see one underlying store.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(stage: &str, subtask: usize, name: &str) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            stage: stage.to_string(),
            subtask: subtask as u32,
        }
    }

    /// Registers (or retrieves) the counter `stage/subtask/name`. Names
    /// ending in `seconds_total` hold nanoseconds and render as seconds.
    pub fn counter(&self, stage: &str, subtask: usize, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock();
        let cell = counters
            .entry(Self::key(stage, subtask, name))
            .or_insert_with(|| CounterCell {
                cell: Arc::new(AtomicU64::new(0)),
                nanos: name.ends_with("seconds_total"),
            });
        Counter {
            cell: Arc::clone(&cell.cell),
        }
    }

    /// Registers (or retrieves) the gauge `stage/subtask/name`.
    pub fn gauge(&self, stage: &str, subtask: usize, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock();
        let cell = gauges
            .entry(Self::key(stage, subtask, name))
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Gauge {
            cell: Arc::clone(cell),
        }
    }

    /// Registers (or retrieves) the histogram `stage/subtask/name`
    /// (nanosecond samples, rendered in seconds).
    pub fn histogram(&self, stage: &str, subtask: usize, name: &str) -> Histogram {
        let mut histograms = self.inner.histograms.lock();
        let core = histograms
            .entry(Self::key(stage, subtask, name))
            .or_default();
        Histogram {
            core: Arc::clone(core),
        }
    }

    /// Appends a typed event to the bounded journal; returns its sequence
    /// number. The ring keeps the most recent [`EVENT_CAPACITY`] entries.
    pub fn emit(&self, kind: ObsEventKind) -> u64 {
        let mut journal = self.inner.journal.lock();
        journal.next_seq += 1;
        let seq = journal.next_seq;
        if journal.events.len() >= EVENT_CAPACITY {
            journal.events.pop_front();
        }
        journal.events.push_back(ObsEvent { seq, kind });
        seq
    }

    /// Events with `seq > since`, oldest first. `since = 0` drains the
    /// whole retained window.
    pub fn events_since(&self, since: u64) -> Vec<ObsEvent> {
        let journal = self.inner.journal.lock();
        journal
            .events
            .iter()
            .filter(|e| e.seq > since)
            .cloned()
            .collect()
    }

    /// The sequence number of the newest event (0 when none were emitted).
    pub fn last_seq(&self) -> u64 {
        self.inner.journal.lock().next_seq
    }

    /// Cumulative counter values for the checkpoint: summed across
    /// subtasks, keyed `(stage, name)`, canonically sorted, zeros omitted.
    pub fn counter_checkpoint(&self) -> ObsCheckpoint {
        let counters = self.inner.counters.lock();
        let mut per: BTreeMap<(String, String), u64> = BTreeMap::new();
        for (key, cell) in counters.iter() {
            let v = cell.cell.load(Relaxed);
            if v > 0 {
                *per.entry((key.stage.clone(), key.name.clone()))
                    .or_default() += v;
            }
        }
        ObsCheckpoint {
            counters: per
                .into_iter()
                .map(|((stage, name), value)| ObsCounterEntry { stage, name, value })
                .collect(),
        }
    }

    /// Re-credits checkpointed counter totals so a restored pipeline's
    /// cumulative observability continues where the old process stopped.
    /// Totals land on subtask 0 of each stage (the deployment may have a
    /// different parallelism; only the per-stage sum is meaningful).
    pub fn restore(&self, ckpt: &ObsCheckpoint) {
        for row in &ckpt.counters {
            self.counter(&row.stage, 0, &row.name).add(row.value);
        }
    }

    /// Rewinds every registered counter to a checkpoint: all cells are
    /// zeroed, then the checkpointed totals are re-credited to subtask 0.
    /// Used by in-process recovery, where the relaunched generation shares
    /// this registry's cells with the dead one — replay then re-accumulates
    /// the post-checkpoint span exactly once. Gauges are left alone (the
    /// new generation overwrites them) and histograms keep their samples
    /// (latency distributions are informational, not conserved).
    pub fn reset_counters_to(&self, ckpt: &ObsCheckpoint) {
        {
            let counters = self.inner.counters.lock();
            for cell in counters.values() {
                cell.cell.store(0, Relaxed);
            }
        }
        self.restore(ckpt);
    }

    /// Wall-clock seconds spent in `process_batch` per stage (summed over
    /// subtasks), sorted by stage name — the bench's per-stage time-share
    /// table.
    pub fn stage_seconds(&self) -> Vec<(String, f64)> {
        let histograms = self.inner.histograms.lock();
        let mut per: BTreeMap<String, u64> = BTreeMap::new();
        for (key, core) in histograms.iter() {
            if key.name == "stage_batch_seconds" {
                *per.entry(key.stage.clone()).or_default() += core.sum_ns.load(Relaxed);
            }
        }
        per.into_iter()
            .map(|(s, ns)| (s, ns as f64 / 1e9))
            .collect()
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, `icpe_`-prefixed, with `stage`/`subtask` labels. Histogram
    /// buckets are coalesced to power-of-two bounds (the fine sub-buckets
    /// stay internal to quantile math).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        {
            let counters = self.inner.counters.lock();
            let mut family = String::new();
            for (key, cell) in counters.iter() {
                if key.name != family {
                    family = key.name.clone();
                    let _ = writeln!(out, "# TYPE icpe_{family} counter");
                }
                let series = format!(
                    "icpe_{}{{stage=\"{}\",subtask=\"{}\"}}",
                    key.name, key.stage, key.subtask
                );
                if cell.nanos {
                    let _ = writeln!(out, "{series} {:.9}", cell.cell.load(Relaxed) as f64 / 1e9);
                } else {
                    let _ = writeln!(out, "{series} {}", cell.cell.load(Relaxed));
                }
            }
        }
        {
            let gauges = self.inner.gauges.lock();
            let mut family = String::new();
            for (key, cell) in gauges.iter() {
                if key.name != family {
                    family = key.name.clone();
                    let _ = writeln!(out, "# TYPE icpe_{family} gauge");
                }
                let _ = writeln!(
                    out,
                    "icpe_{}{{stage=\"{}\",subtask=\"{}\"}} {}",
                    key.name,
                    key.stage,
                    key.subtask,
                    cell.load(Relaxed)
                );
            }
        }
        {
            let histograms = self.inner.histograms.lock();
            let mut family = String::new();
            for (key, core) in histograms.iter() {
                if key.name != family {
                    family = key.name.clone();
                    let _ = writeln!(out, "# TYPE icpe_{family} histogram");
                }
                let snap = core.snapshot();
                let labels = format!("stage=\"{}\",subtask=\"{}\"", key.stage, key.subtask);
                let mut cumulative = 0u64;
                let mut idx = 0usize;
                for e in (MIN_EXP + 1)..=MAX_EXP {
                    let upto = ((e - MIN_EXP) as usize) << SUB_BITS;
                    while idx < upto {
                        cumulative += snap.buckets[idx];
                        idx += 1;
                    }
                    let _ = writeln!(
                        out,
                        "icpe_{}_bucket{{{labels},le=\"{:.9}\"}} {cumulative}",
                        key.name,
                        (1u64 << e) as f64 / 1e9
                    );
                }
                let _ = writeln!(
                    out,
                    "icpe_{}_bucket{{{labels},le=\"+Inf\"}} {}",
                    key.name, snap.count
                );
                let _ = writeln!(
                    out,
                    "icpe_{}_sum{{{labels}}} {:.9}",
                    key.name,
                    snap.sum_ns as f64 / 1e9
                );
                let _ = writeln!(out, "icpe_{}_count{{{labels}}} {}", key.name, snap.count);
            }
        }
        out
    }
}

/// Per-subtask stage instrumentation: batches/records in, records out, and
/// the per-batch processing-time histogram. Created once per subtask at
/// stage build time; the hot path is four relaxed atomic operations per
/// batch.
#[derive(Debug, Clone)]
pub struct StageObs {
    batches_in: Counter,
    records_in: Counter,
    records_out: Counter,
    batch_seconds: Histogram,
}

impl StageObs {
    /// Registers the stage family for `stage`/`subtask`.
    pub fn new(registry: &MetricRegistry, stage: &str, subtask: usize) -> Self {
        StageObs {
            batches_in: registry.counter(stage, subtask, "stage_batches_in_total"),
            records_in: registry.counter(stage, subtask, "stage_records_in_total"),
            records_out: registry.counter(stage, subtask, "stage_records_out_total"),
            batch_seconds: registry.histogram(stage, subtask, "stage_batch_seconds"),
        }
    }

    /// Records one processed batch: input size, emitted records, and the
    /// time spent inside `process_batch` (routing/backpressure excluded —
    /// that is the exchange hop's measurement).
    pub fn batch(&self, records_in: usize, records_out: u64, elapsed: Duration) {
        self.batches_in.add(1);
        self.records_in.add(records_in as u64);
        self.records_out.add(records_out);
        self.batch_seconds.record(elapsed);
    }
}

/// Per-exchange-hop instrumentation, labelled by the *receiving* stage:
/// for each destination subtask, cumulative time spent inside the
/// (blocking, bounded) channel send — the backpressure signal — and the
/// last observed queue depth in batches.
#[derive(Debug, Clone)]
pub struct ExchangeObs {
    blocked: Vec<Counter>,
    depth: Vec<Gauge>,
}

impl ExchangeObs {
    /// Registers the exchange family for the hop into `stage` with
    /// `destinations` downstream subtasks.
    pub fn new(registry: &MetricRegistry, stage: &str, destinations: usize) -> Self {
        ExchangeObs {
            blocked: (0..destinations)
                .map(|d| registry.counter(stage, d, "exchange_blocked_seconds_total"))
                .collect(),
            depth: (0..destinations)
                .map(|d| registry.gauge(stage, d, "exchange_queue_depth"))
                .collect(),
        }
    }

    /// Records one shipped batch: how long the send blocked and the queue
    /// depth (in batches) observed right after it.
    pub fn sent(&self, dest: usize, blocked: Duration, queue_len: usize) {
        self.blocked[dest].add(blocked.as_nanos() as u64);
        self.depth[dest].set(queue_len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let reg = MetricRegistry::new();
        let a = reg.counter("align", 0, "stage_records_in_total");
        let b = reg.counter("align", 0, "stage_records_in_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7, "same key shares one cell");
        let other = reg.counter("align", 1, "stage_records_in_total");
        assert_eq!(other.get(), 0, "different subtask is a different series");
    }

    #[test]
    fn gauge_keeps_last_value() {
        let reg = MetricRegistry::new();
        let g = reg.gauge("grid-query", 2, "exchange_queue_depth");
        g.set(9);
        g.set(4);
        assert_eq!(reg.gauge("grid-query", 2, "exchange_queue_depth").get(), 4);
    }

    #[test]
    fn histogram_quantiles_are_bucket_accurate() {
        let h = Histogram::default();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.max(), Duration::from_millis(100));
        // Exact mean from the exact sum.
        assert_eq!(snap.mean(), Duration::from_micros(50500));
        // Bucketed quantiles: within the 25 % log-linear bucket width.
        let p50 = snap.quantile(0.50).as_secs_f64();
        assert!((0.050..=0.0625).contains(&p50), "p50 {p50}");
        let p95 = snap.quantile(0.95).as_secs_f64();
        assert!((0.095..=0.1).contains(&p95), "p95 {p95}");
        assert!(snap.quantile(1.0) <= snap.max());
    }

    #[test]
    fn histogram_handles_extremes() {
        let h = Histogram::default();
        h.observe_ns(0);
        h.observe_ns(50); // below the 1 µs floor
        h.record(Duration::from_secs(120)); // above the 34 s ceiling
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.overflow(), 1, "the 120 s sample overflowed");
        assert_eq!(snap.max(), Duration::from_secs(120));
        assert_eq!(snap.quantile(1.0), Duration::from_secs(120));
        assert!(snap.quantile(0.34) <= Duration::from_micros(2));
    }

    #[test]
    fn fine_buckets_cover_the_range_monotonically() {
        let mut prev = 0;
        for idx in 0..BUCKETS {
            let bound = bucket_bound_ns(idx);
            assert!(bound > prev, "bounds must increase at {idx}");
            prev = bound;
            // A value just under the bound maps into a bucket ≤ idx.
            assert!(bucket_index(bound - 1).unwrap() <= idx);
        }
        assert_eq!(bucket_index(1u64 << MAX_EXP), None, "ceiling overflows");
    }

    #[test]
    fn journal_is_bounded_with_monotonic_seqs() {
        let reg = MetricRegistry::new();
        for t in 0..(EVENT_CAPACITY as u32 + 10) {
            reg.emit(ObsEventKind::WindowSealed { time: t });
        }
        let all = reg.events_since(0);
        assert_eq!(all.len(), EVENT_CAPACITY, "ring stays bounded");
        assert_eq!(all.first().unwrap().seq, 11, "oldest entries evicted");
        assert_eq!(reg.last_seq(), EVENT_CAPACITY as u64 + 10);
        let tail = reg.events_since(reg.last_seq() - 2);
        assert_eq!(tail.len(), 2);
        assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn events_render_as_one_json_line() {
        let reg = MetricRegistry::new();
        reg.emit(ObsEventKind::CellMigrated { epoch: 3, cells: 7 });
        let line = reg.events_since(0)[0].render_json();
        assert_eq!(
            line,
            "{\"seq\":1,\"event\":\"cell_migrated\",\"epoch\":3,\"cells\":7}"
        );
    }

    #[test]
    fn recovery_events_render_as_one_json_line() {
        let reg = MetricRegistry::new();
        reg.emit(ObsEventKind::StageFailed {
            stage: "grid-query".into(),
            subtask: 1,
        });
        reg.emit(ObsEventKind::PipelineRecovering { restart: 1 });
        reg.emit(ObsEventKind::PipelineRecovered {
            restart: 1,
            replayed: 42,
        });
        reg.emit(ObsEventKind::PipelineFailed { restarts: 3 });
        reg.emit(ObsEventKind::CheckpointSkipped {
            seq: 7,
            reason: "checksum mismatch: \"bad\"".into(),
        });
        reg.emit(ObsEventKind::RecordQuarantined {
            conn: 4,
            records: 2,
        });
        let events = reg.events_since(0);
        assert_eq!(
            events[0].render_json(),
            "{\"seq\":1,\"event\":\"stage_failed\",\"stage\":\"grid-query\",\"subtask\":1}"
        );
        assert_eq!(
            events[1].render_json(),
            "{\"seq\":2,\"event\":\"pipeline_recovering\",\"restart\":1}"
        );
        assert_eq!(
            events[2].render_json(),
            "{\"seq\":3,\"event\":\"pipeline_recovered\",\"restart\":1,\"replayed\":42}"
        );
        assert_eq!(
            events[3].render_json(),
            "{\"seq\":4,\"event\":\"pipeline_failed\",\"restarts\":3}"
        );
        assert_eq!(
            events[4].render_json(),
            "{\"seq\":5,\"event\":\"checkpoint_skipped\",\"checkpoint_seq\":7,\
             \"reason\":\"checksum mismatch: \\\"bad\\\"\"}"
        );
        assert_eq!(
            events[5].render_json(),
            "{\"seq\":6,\"event\":\"record_quarantined\",\"conn\":4,\"records\":2}"
        );
    }

    #[test]
    fn pattern_sealed_renders_its_identity_arrays() {
        let reg = MetricRegistry::new();
        reg.emit(ObsEventKind::PatternSealed {
            objects: vec![3, 1, 4],
            times: vec![7, 8],
        });
        assert_eq!(
            reg.events_since(0)[0].render_json(),
            "{\"seq\":1,\"event\":\"pattern_sealed\",\"objects\":[3,1,4],\"times\":[7,8]}"
        );
    }

    #[test]
    fn reset_counters_to_rewinds_to_the_checkpoint() {
        let reg = MetricRegistry::new();
        reg.counter("align", 0, "stage_records_in_total").add(100);
        let ckpt = reg.counter_checkpoint();
        // Post-checkpoint progress on several subtasks…
        reg.counter("align", 0, "stage_records_in_total").add(30);
        reg.counter("align", 1, "stage_records_in_total").add(20);
        reg.counter("grid-query", 0, "stage_batches_in_total")
            .add(5);
        // …is discarded by the rewind; the checkpointed span survives.
        reg.reset_counters_to(&ckpt);
        assert_eq!(reg.counter_checkpoint(), ckpt);
        assert_eq!(reg.counter("align", 0, "stage_records_in_total").get(), 100);
        assert_eq!(reg.counter("align", 1, "stage_records_in_total").get(), 0);
        assert_eq!(
            reg.counter("grid-query", 0, "stage_batches_in_total").get(),
            0
        );
    }

    #[test]
    fn counter_checkpoint_round_trips_through_restore() {
        let reg = MetricRegistry::new();
        reg.counter("align", 0, "stage_records_in_total").add(100);
        reg.counter("align", 1, "stage_records_in_total").add(50);
        reg.counter("grid-query", 0, "stage_batches_in_total")
            .add(7);
        reg.counter("grid-query", 0, "stage_records_out_total"); // zero: omitted
        let ckpt = reg.counter_checkpoint();
        assert_eq!(ckpt.counters.len(), 2, "zeros omitted, subtasks summed");
        assert_eq!(ckpt.counters[0].stage, "align");
        assert_eq!(ckpt.counters[0].value, 150);

        let restored = MetricRegistry::new();
        restored.restore(&ckpt);
        assert_eq!(restored.counter_checkpoint(), ckpt, "restore is lossless");
    }

    #[test]
    fn prometheus_rendering_is_parseable_and_grouped() {
        let reg = MetricRegistry::new();
        reg.counter("align", 0, "stage_records_in_total").add(5);
        reg.counter("align", 0, "exchange_blocked_seconds_total")
            .add(1_500_000_000);
        reg.gauge("align", 0, "exchange_queue_depth").set(3);
        reg.histogram("align", 0, "stage_batch_seconds")
            .record(Duration::from_millis(2));
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE icpe_stage_records_in_total counter"));
        assert!(text.contains("icpe_stage_records_in_total{stage=\"align\",subtask=\"0\"} 5"));
        assert!(
            text.contains("icpe_exchange_blocked_seconds_total{stage=\"align\",subtask=\"0\"} 1.5"),
            "nanosecond counters render as seconds: {text}"
        );
        assert!(text.contains("# TYPE icpe_exchange_queue_depth gauge"));
        assert!(text.contains("# TYPE icpe_stage_batch_seconds histogram"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains("icpe_stage_batch_seconds_count{stage=\"align\",subtask=\"0\"} 1"));
        // Every sample value parses as a finite number.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            let v: f64 = value.parse().unwrap_or_else(|_| panic!("bad value {line}"));
            assert!(v.is_finite(), "non-finite sample: {line}");
        }
        // Histogram bucket counts are monotonically non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts regressed: {line}");
            last = v;
        }
    }

    #[test]
    fn stage_seconds_sums_subtasks() {
        let reg = MetricRegistry::new();
        reg.histogram("grid-query", 0, "stage_batch_seconds")
            .record(Duration::from_millis(30));
        reg.histogram("grid-query", 1, "stage_batch_seconds")
            .record(Duration::from_millis(10));
        reg.histogram("align", 0, "stage_batch_seconds")
            .record(Duration::from_millis(5));
        let shares = reg.stage_seconds();
        assert_eq!(shares.len(), 2);
        assert_eq!(shares[0].0, "align");
        assert!((shares[1].1 - 0.040).abs() < 1e-9);
    }

    #[test]
    fn stage_and_exchange_obs_record() {
        let reg = MetricRegistry::new();
        let stage = StageObs::new(&reg, "align", 0);
        stage.batch(64, 60, Duration::from_micros(100));
        stage.batch(1, 1, Duration::from_micros(50));
        assert_eq!(reg.counter("align", 0, "stage_batches_in_total").get(), 2);
        assert_eq!(reg.counter("align", 0, "stage_records_in_total").get(), 65);
        assert_eq!(reg.counter("align", 0, "stage_records_out_total").get(), 61);
        assert_eq!(
            reg.histogram("align", 0, "stage_batch_seconds")
                .snapshot()
                .count(),
            2
        );

        let hop = ExchangeObs::new(&reg, "grid-query", 2);
        hop.sent(1, Duration::from_millis(3), 17);
        assert_eq!(
            reg.counter("grid-query", 1, "exchange_blocked_seconds_total")
                .get(),
            3_000_000
        );
        assert_eq!(reg.gauge("grid-query", 1, "exchange_queue_depth").get(), 17);
        assert_eq!(reg.gauge("grid-query", 0, "exchange_queue_depth").get(), 0);
    }
}
