//! The TCP server: accept loop, per-connection threads, pipeline wiring.
//!
//! Deployment shape (thread-per-connection, `std::net` only):
//!
//! ```text
//! producers ──TCP──▶ ingest handlers ──bounded channel──▶ IcpePipeline
//!                      (parse, tick,     (backpressure)      (launch)
//!                       validate)                               │ events
//!                                                               ▼
//! subscribers ◀─TCP── writer loops ◀─bounded queues── Hub ◀─ callback
//!                                      (shed slow)
//! ```
//!
//! Backpressure story: the ingest channel is bounded, so when clustering
//! falls behind, ingest handlers block on `push`, the kernel's TCP receive
//! buffers fill, and producers throttle — end-to-end flow control with no
//! unbounded queue anywhere. Subscribers are the opposite: they must never
//! slow ingestion, so their queues are bounded and *non-blocking*; a
//! subscriber that cannot keep up is shed (disconnected) rather than obeyed.
//!
//! The edge keeps no per-trajectory state. A handler projects each record's
//! clock time to its tick and pushes it without a *last time* link; the
//! pipeline's frontier router chains it to its trajectory's live chain and
//! rejects a stale or repeated tick there (see `icpe_runtime::aligner`).
//! So producers take no lock to stamp, and a checkpoint is the pipeline's
//! cut plus counters, taken without stopping them.

use crate::hub::Hub;
use crate::protocol::{Command, EventKind, PatternEvent, SnapshotEvent, Topic, WireRecord};
use crate::recovery::{CheckpointPolicy, EdgeStatsCheckpoint, ServeCheckpoint};
use crate::stats::ServerStats;
use crossbeam::channel::Receiver;
use icpe_core::{
    HealthState, IcpeConfig, IcpePipeline, LivePipeline, PipelineEvent, PipelineStatus,
    RecordSender,
};
use icpe_persist::CheckpointStore;
use icpe_runtime::{MetricsReport, ObsEventKind};
use icpe_types::{Discretizer, GpsRecord, ObjectId, Point, RawRecord};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::thread::JoinHandle;

/// Configuration of an [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// The detection configuration the embedded pipeline runs.
    pub engine: IcpeConfig,
    /// Seconds per discretized snapshot interval (Definition 1); producers'
    /// `time` fields are divided by this to obtain ticks.
    pub interval: f64,
    /// Per-subscriber event-queue bound; a subscriber lagging this many
    /// events behind is shed. Size it to the burst tolerance wanted: the
    /// publisher never waits, so bursts larger than the queue shed even an
    /// otherwise-healthy consumer.
    pub subscriber_queue: usize,
    /// A producer connection is dropped after this many *consecutive*
    /// malformed lines (defense against non-protocol peers).
    pub max_consecutive_parse_errors: usize,
    /// Maximum ticks a producer may run ahead of the slowest connected
    /// producer before its pushes block (ingestion-edge skew control).
    /// Independent producers race arbitrarily — without this bound, a fast
    /// producer's stream makes every slower producer's records arrive
    /// "late" and be dropped. The server also raises the engine's aligner
    /// lateness to cover this skew.
    pub max_producer_skew: u32,
    /// Startup grace: for this long after the first producer registers, no
    /// producer may advance past tick `max_producer_skew`. Closes the
    /// fleet-connection race — skew control can only see producers that
    /// have already said something, and without the grace a producer
    /// connecting a few milliseconds late finds the stream sealed past its
    /// data.
    pub startup_grace: std::time::Duration,
    /// Records per ingest micro-batch: a producer handler gathers up to
    /// this many *already-buffered* lines, then pushes and counts the
    /// whole batch in one pipeline channel operation. Gathering never waits
    /// for the network — a slow producer ships batches of one (no added
    /// latency), a saturating one ships full batches. `1` restores
    /// record-at-a-time ingestion.
    pub ingest_batch: usize,
    /// Durability policy. When set, the server (a) resumes from the newest
    /// readable checkpoint in the policy's directory at startup, (b) writes
    /// periodic checkpoints while running, and (c) supports
    /// [`Server::suspend`] (final checkpoint + restartable shutdown).
    /// `None` (the default) keeps the server fully in-memory.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Socket read/write timeout applied to every accepted connection.
    /// A producer that goes silent for this long (dead peer, half-open
    /// connection after a network partition) is dropped cleanly — its
    /// gathered records are flushed first — instead of pinning its handler
    /// thread forever; a subscriber whose peer stops reading errors out of
    /// its write instead of blocking the writer loop. `None` (the default)
    /// trusts the kernel's TCP keepalive, i.e. effectively never. Also
    /// settable via the `ICPE_SOCKET_TIMEOUT_SECS` environment variable
    /// (picked up by [`ServeConfig::new`]; `0` disables).
    pub socket_timeout: Option<std::time::Duration>,
    /// Journal every sealed pattern as a `pattern_sealed` event, so a
    /// subscriber shed for falling behind can reconnect and backfill its
    /// gap with `EVENTS since-seq`. Off by default: pattern volume can
    /// dwarf the journal's bounded ring and evict the operational events
    /// (seals, failures, recoveries) it exists to retain. Also settable
    /// via the `ICPE_JOURNAL_PATTERNS` environment variable (picked up by
    /// [`ServeConfig::new`]; any value other than `0` enables).
    pub journal_patterns: bool,
}

impl ServeConfig {
    /// Defaults: ephemeral localhost port, 1 s intervals, 1024-line
    /// subscriber queues.
    pub fn new(engine: IcpeConfig) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            engine,
            interval: 1.0,
            subscriber_queue: 1024,
            max_consecutive_parse_errors: 64,
            max_producer_skew: 8,
            startup_grace: std::time::Duration::from_millis(250),
            ingest_batch: icpe_runtime::DEFAULT_BATCH_SIZE,
            checkpoint: None,
            socket_timeout: socket_timeout_from_env(),
            journal_patterns: journal_patterns_from_env(),
        }
    }

    /// Enables durability under `policy`.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Sets the per-connection socket read/write timeout.
    pub fn with_socket_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.socket_timeout = (!timeout.is_zero()).then_some(timeout);
        self
    }
}

/// `ICPE_JOURNAL_PATTERNS` environment default for
/// [`ServeConfig::journal_patterns`] (unset, unparsable, or `0` = off).
fn journal_patterns_from_env() -> bool {
    std::env::var("ICPE_JOURNAL_PATTERNS")
        .ok()
        .and_then(|v| v.parse::<u8>().ok())
        .is_some_and(|v| v != 0)
}

/// `ICPE_SOCKET_TIMEOUT_SECS` environment default for
/// [`ServeConfig::socket_timeout`] (unset, unparsable, or `0` = no timeout).
fn socket_timeout_from_env() -> Option<std::time::Duration> {
    std::env::var("ICPE_SOCKET_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&s| s > 0.0 && s.is_finite())
        .map(std::time::Duration::from_secs_f64)
}

/// Ingestion-edge stream synchronization: tracks each connected producer's
/// newest pushed tick and blocks a producer that would run more than
/// `max_skew` ticks ahead of the slowest other producer. This bounds the
/// cross-producer disorder the aligner must absorb, turning "fast producer
/// causes slow producer's records to be dropped as late" into plain
/// backpressure on the fast producer's socket.
///
/// The check runs per record but costs no syscall on the common path:
/// waiters are woken only when some producer's frontier rises (once per
/// tick, not per record) or a producer deregisters, and the clock is read
/// only while the startup grace may still hold or a record is about to
/// wait. Grace expiry and the 2 s cap are re-checked by the waiters' own
/// 20 ms timed wait.
struct SkewLimiter {
    state: std::sync::Mutex<SkewState>,
    cond: std::sync::Condvar,
    max_skew: u32,
    grace: std::time::Duration,
}

struct SkewState {
    /// Producer conn id → newest tick pushed (`None` until a first record
    /// is admitted — a producer that has said nothing valid yet must not
    /// hold the fleet back).
    frontiers: HashMap<u64, Option<u32>>,
    /// When the first producer registered: starts the grace window. Set
    /// once, never reset.
    grace_start: Option<std::time::Instant>,
    /// The grace window has elapsed (monotone: once set, the clock is no
    /// longer read for it).
    grace_over: bool,
}

impl SkewState {
    fn in_grace(&mut self, grace: std::time::Duration) -> bool {
        if self.grace_over {
            return false;
        }
        let Some(started) = self.grace_start else {
            return false;
        };
        self.grace_over = started.elapsed() >= grace;
        !self.grace_over
    }
}

impl SkewLimiter {
    fn new(max_skew: u32, grace: std::time::Duration) -> Self {
        SkewLimiter {
            state: std::sync::Mutex::new(SkewState {
                frontiers: HashMap::new(),
                grace_start: None,
                grace_over: false,
            }),
            cond: std::sync::Condvar::new(),
            max_skew,
            grace,
        }
    }

    /// Registers a producer with no frontier yet. Wakes nobody: a producer
    /// without an admitted record does not count towards anyone's skew.
    fn register(&self, id: u64) {
        let mut state = self.state.lock().expect("skew lock");
        state.frontiers.insert(id, None);
        state
            .grace_start
            .get_or_insert_with(std::time::Instant::now);
    }

    fn deregister(&self, id: u64) {
        self.state.lock().expect("skew lock").frontiers.remove(&id);
        self.cond.notify_all();
    }

    /// Blocks until `tick` is within `max_skew` of the slowest *other*
    /// registered producer — and, during the startup grace, until the
    /// fleet has had time to connect — then records `tick` as this
    /// producer's frontier. A 2 s cap bounds pathological cases (e.g. a
    /// producer whose stream legitimately starts far in the future): after
    /// it, the record is admitted anyway and the aligner's lateness policy
    /// decides. Returns whether this producer's frontier rose, the only
    /// case in which waiting producers are woken.
    fn admit(&self, id: u64, tick: u32) -> bool {
        let mut state = self.state.lock().expect("skew lock");
        let mut deadline = None;
        loop {
            // Only producers with at least one admitted record count: a
            // connection that has produced nothing valid (all lines
            // malformed or stale) must not hold the fleet back.
            let min_other = state
                .frontiers
                .iter()
                .filter(|(&other, _)| other != id)
                .filter_map(|(_, &t)| t)
                .min();
            let within_skew = match min_other {
                None => true, // no other active producer to synchronize with
                Some(m) => tick <= m.saturating_add(self.max_skew),
            };
            if within_skew && !(tick > self.max_skew && state.in_grace(self.grace)) {
                break;
            }
            let now = std::time::Instant::now();
            if now >= *deadline.get_or_insert(now + std::time::Duration::from_secs(2)) {
                break;
            }
            let (guard, _) = self
                .cond
                .wait_timeout(state, std::time::Duration::from_millis(20))
                .expect("skew lock");
            state = guard;
        }
        let frontier = state.frontiers.entry(id).or_insert(None);
        let rose = frontier.is_none_or(|t| tick > t);
        if rose {
            *frontier = Some(tick);
        }
        drop(state);
        if rose {
            self.cond.notify_all();
        }
        rose
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    stats: ServerStats,
    hub: Hub,
    /// The clock-time → tick projection, a pure function of the fixed
    /// epoch/interval pair; each producer handler runs its own copy.
    projector: Discretizer,
    /// Producer handle into the pipeline; `None` once draining started.
    ingest: Mutex<Option<RecordSender>>,
    /// The pipeline's one status surface, behind `STATUS`, `METRICS` and
    /// `EVENTS`; its journal is also the sink for serve-originated events
    /// (subscriber shedding, quarantines). Set once, right after launch —
    /// the pipeline's event callback already holds this struct by then.
    pipeline: OnceLock<PipelineStatus>,
    /// Dead-letter ring: the most recent malformed producer lines, kept for
    /// post-mortem inspection (`Server::dead_letters`). Bounded — quarantine
    /// must never become the unbounded queue the rest of the edge avoids.
    dead_letters: Mutex<std::collections::VecDeque<String>>,
    /// Cross-producer skew control.
    skew: SkewLimiter,
    /// Per-connection socket read/write timeout (see
    /// [`ServeConfig::socket_timeout`]).
    socket_timeout: Option<std::time::Duration>,
    /// Journal sealed patterns for `EVENTS since-seq` backfill (see
    /// [`ServeConfig::journal_patterns`]).
    journal_patterns: bool,
    shutting_down: AtomicBool,
    /// Set by [`Server::suspend`] after its final checkpoint: events
    /// produced by the teardown flush are covered by the checkpoint and
    /// will be re-delivered by the resumed instance — publishing them here
    /// too would break exactly-once across the restart.
    suppress_events: AtomicBool,
    /// Open connections, for forced shutdown at drain time. Subscribers
    /// are marked so a clean shutdown can cut producers off while letting
    /// subscriber writers flush their backlog.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    next_conn_id: AtomicU64,
    /// Connections accepted but not yet classified (see [`Unclassified`]).
    /// Shutdown waits for these as well as for producers, so it cannot cut
    /// ingest under a producer whose first line is still unread.
    unclassified: AtomicU64,
    max_consecutive_parse_errors: usize,
    ingest_batch: usize,
}

struct ConnEntry {
    stream: TcpStream,
    is_subscriber: bool,
}

impl Shared {
    /// The pipeline's status surface. Connections are accepted only after
    /// [`Server::start`] published it.
    fn status(&self) -> &PipelineStatus {
        self.pipeline
            .get()
            .expect("the pipeline launches before any connection is served")
    }

    /// Appends a serve-originated event to the pipeline's journal (a no-op
    /// in the instant between launch and the status surface's publication).
    fn journal(&self, event: ObsEventKind) {
        if let Some(status) = self.pipeline.get() {
            status.obs().emit(event);
        }
    }

    fn register_conn(&self, stream: &TcpStream) -> u64 {
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.conns.lock().insert(
                id,
                ConnEntry {
                    stream: clone,
                    is_subscriber: false,
                },
            );
        }
        id
    }

    fn mark_subscriber(&self, id: u64) {
        if let Some(entry) = self.conns.lock().get_mut(&id) {
            entry.is_subscriber = true;
        }
    }

    fn unregister_conn(&self, id: u64) {
        self.conns.lock().remove(&id);
    }

    /// Force-closes connections; `subscribers_too` keeps or cuts the
    /// delivery side.
    fn close_conns(&self, subscribers_too: bool) {
        let mut conns = self.conns.lock();
        conns.retain(|_, entry| {
            if entry.is_subscriber && !subscribers_too {
                return true;
            }
            let _ = entry.stream.shutdown(Shutdown::Both);
            false
        });
    }

    /// True while a producer is connected or an accepted connection has
    /// not yet said what it is. Reads `unclassified` first: a handler
    /// counts itself as a producer *before* releasing its unclassified
    /// place, so a zero read here makes that producer count visible below.
    fn ingest_edge_busy(&self) -> bool {
        self.unclassified.load(Ordering::SeqCst) > 0
            || self.stats.producers.load(Ordering::SeqCst) > 0
    }
}

/// An accepted connection's place in [`Shared::unclassified`]: taken
/// before its handler thread spawns, released (dropped) once the handler
/// has counted itself as a producer or registered as a subscriber — or
/// the connection ended.
struct Unclassified(Arc<Shared>);

impl Unclassified {
    fn new(shared: Arc<Shared>) -> Self {
        shared.unclassified.fetch_add(1, Ordering::SeqCst);
        Unclassified(shared)
    }
}

impl Drop for Unclassified {
    fn drop(&mut self) {
        self.0.unclassified.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The periodic checkpoint worker: a thread plus its stop signal.
struct CheckpointWorker {
    handle: JoinHandle<()>,
    stop: Arc<(StdMutex<bool>, Condvar)>,
}

impl CheckpointWorker {
    fn stop_and_join(self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cvar.notify_all();
        let _ = self.handle.join();
    }
}

/// A running `icpe-serve` instance (see the crate docs for the protocol).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    pipeline: Option<LivePipeline>,
    accept: Option<JoinHandle<()>>,
    store: Option<CheckpointStore>,
    ckpt_worker: Option<CheckpointWorker>,
    clean_shutdown: bool,
}

impl Server {
    /// Binds, launches the embedded pipeline, and starts accepting
    /// connections. With a checkpoint policy configured, the server first
    /// looks for the newest readable checkpoint in the policy's directory
    /// and — if one exists — resumes from it: aligner chains, open pattern
    /// windows, and cumulative counters all pick up where the previous
    /// instance stopped.
    pub fn start(mut config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        // Durability: open the store and load the resume point up front so
        // a broken checkpoint directory fails the start, not a later write.
        let store = match &config.checkpoint {
            Some(policy) => {
                let mut store = CheckpointStore::open(&policy.dir, policy.retain)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                // Chaos harness: route the engine fault plan's checkpoint
                // points (`ckptfail@SEQ` / `ckpttorn@SEQ`) into the persist
                // layer's write-fault shim, so one deterministic plan drives
                // worker, exchange, AND durability faults.
                if let Some(plan) = &config.engine.runtime.fault {
                    let plan = Arc::clone(plan);
                    store = store.with_fault_hook(Arc::new(move |seq| {
                        match plan.checkpoint_fault(seq) {
                            Some(icpe_runtime::FaultKind::CheckpointFail) => {
                                Some(icpe_persist::SaveFault::Fail)
                            }
                            Some(icpe_runtime::FaultKind::CheckpointTorn) => {
                                Some(icpe_persist::SaveFault::Torn)
                            }
                            _ => None,
                        }
                    }));
                }
                Some(store)
            }
            None => None,
        };
        // Torn/corrupt files on the way to the newest readable checkpoint
        // are skipped, not fatal — collected here and journaled once the
        // registry is up, so `EVENTS` shows what recovery walked past.
        let (resume, skipped): (Option<(u64, ServeCheckpoint)>, Vec<_>) = match &store {
            Some(store) => store
                .load_latest_with_skips()
                .map_err(|e| std::io::Error::other(e.to_string()))?,
            None => (None, Vec::new()),
        };

        if let Some((_, ckpt)) = &resume {
            if ckpt.interval != config.interval {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "checkpoint was written with interval {} but the config asks for {}",
                        ckpt.interval, config.interval
                    ),
                ));
            }
        }
        let projector = Discretizer::new(0.0, config.interval)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;

        // The aligner must tolerate the full disorder the edge can admit:
        // the admitted-frontier gap (`max_producer_skew`) plus one ingest
        // batch's tick span (gathered records are admitted before they are
        // pushed; the gather bounds the span to `max_producer_skew`, so the
        // pushed gap is at most twice the skew). `max_lag` must exceed the
        // same bound or a slower producer's chains get retired — and its
        // buffered batch dropped late — while its records sit in a batch.
        let edge_disorder = 2 * config.max_producer_skew + 2;
        config.engine.aligner.lateness = config.engine.aligner.lateness.max(edge_disorder);
        config.engine.aligner.max_lag = config.engine.aligner.max_lag.max(2 * edge_disorder);

        let shared = Arc::new(Shared {
            stats: ServerStats::new(),
            hub: Hub::new(config.subscriber_queue),
            projector,
            ingest: Mutex::new(None),
            pipeline: OnceLock::new(),
            dead_letters: Mutex::new(std::collections::VecDeque::new()),
            skew: SkewLimiter::new(config.max_producer_skew, config.startup_grace),
            socket_timeout: config.socket_timeout,
            journal_patterns: config.journal_patterns,
            shutting_down: AtomicBool::new(false),
            suppress_events: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
            unclassified: AtomicU64::new(0),
            max_consecutive_parse_errors: config.max_consecutive_parse_errors.max(1),
            ingest_batch: config.ingest_batch.max(1),
        });
        if let Some((seq, ckpt)) = &resume {
            ckpt.stats.restore(&shared.stats);
            shared.stats.restore_checkpoint_seq(*seq);
        }

        // Pipeline → hub bridge. Runs on the pipeline driver thread; only
        // non-blocking work happens here (render + try_send fan-out), and
        // rendering is skipped entirely when no subscriber wants the kind.
        let bridge = Arc::clone(&shared);
        let mut patterns_per_time: HashMap<u32, u32> = HashMap::new();
        // The pattern event line being rendered, reused from event to event.
        let mut line = String::new();
        let on_event = move |event| {
            if bridge.suppress_events.load(Ordering::SeqCst) {
                // Suspending: everything from here on is covered by the
                // final checkpoint and re-delivered after the restart.
                return;
            }
            match event {
                PipelineEvent::Pattern(p) => {
                    bridge.stats.patterns_out.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = p.times.max() {
                        *patterns_per_time.entry(t.0).or_insert(0) += 1;
                    }
                    // Journal every sealed pattern (opt-in): a subscriber
                    // shed for falling behind can reconnect and backfill
                    // what it missed with `EVENTS since-seq` (bounded by
                    // the journal ring).
                    if bridge.journal_patterns {
                        bridge.journal(ObsEventKind::PatternSealed {
                            objects: p.objects.iter().map(|o| o.0).collect(),
                            times: p.times.times().iter().map(|t| t.0).collect(),
                        });
                    }
                    let shed = bridge.hub.publish_with(EventKind::Pattern, || {
                        PatternEvent::write_line(&p, &mut line);
                        Arc::from(line.as_str())
                    });
                    note_shed(&bridge, &shed);
                }
                PipelineEvent::SnapshotSealed { time } => {
                    bridge
                        .stats
                        .snapshots_sealed
                        .fetch_add(1, Ordering::Relaxed);
                    let count = patterns_per_time.remove(&time).unwrap_or(0);
                    // Windows closing after this seal (and the end-of-stream
                    // flush) may still add patterns for earlier times; those
                    // entries would otherwise accumulate forever. Anything at or
                    // below the seal frontier can no longer be reported in a
                    // seal notice, so drop it.
                    patterns_per_time.retain(|&t, _| t > time);
                    let shed = bridge.hub.publish_with(EventKind::Snapshot, || {
                        let event = SnapshotEvent {
                            event: "snapshot".to_string(),
                            time,
                            patterns: count,
                        };
                        Arc::from(
                            serde_json::to_string(&event)
                                .expect("snapshot event serializes")
                                .as_str(),
                        )
                    });
                    note_shed(&bridge, &shed);
                }
            }
        };
        let pipeline = match &resume {
            Some((_, ckpt)) => IcpePipeline::launch_from(&config.engine, &ckpt.pipeline, on_event)
                .map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
                })?,
            None => IcpePipeline::launch(&config.engine, on_event),
        };
        *shared.ingest.lock() = Some(pipeline.sender());
        shared
            .pipeline
            .set(pipeline.status().clone())
            .expect("the status surface is published exactly once");
        if !skipped.is_empty() {
            for skip in &skipped {
                shared.journal(ObsEventKind::CheckpointSkipped {
                    seq: skip.seq,
                    reason: skip.reason.clone(),
                });
            }
            eprintln!(
                "icpe-serve: skipped {} unreadable checkpoint(s) while resuming",
                skipped.len()
            );
        }

        // Periodic checkpointing: barrier through the live pipeline, then
        // one atomic file with the edge state captured at the same cut.
        let ckpt_worker = match (&store, &config.checkpoint) {
            (Some(store), Some(policy)) => Some(spawn_checkpoint_worker(
                Arc::clone(&shared),
                pipeline.sender(),
                store.clone(),
                policy.every,
            )),
            _ => None,
        };

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("failed to spawn accept thread");

        Ok(Server {
            addr,
            shared,
            pipeline: Some(pipeline),
            accept: Some(accept),
            store,
            ckpt_worker,
            clean_shutdown: false,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current status block, as served by the `STATUS` endpoint.
    pub fn status_text(&self) -> String {
        render_status(&self.shared)
    }

    /// The pipeline's current supervision health. An unsupervised engine
    /// is always `Healthy`.
    pub fn health(&self) -> HealthState {
        self.shared.status().health()
    }

    /// A snapshot of the dead-letter ring: the most recent malformed
    /// producer lines (oldest first, bounded).
    pub fn dead_letters(&self) -> Vec<String> {
        self.shared.dead_letters.lock().iter().cloned().collect()
    }

    /// The current Prometheus exposition block, as served by the `METRICS`
    /// endpoint: the pipeline's per-stage/per-exchange families followed by
    /// the serve-level edge families.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.shared)
    }

    /// Network-edge counters (shared with the handlers; live).
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Total subscribers shed since start.
    pub fn shed_count(&self) -> u64 {
        self.shared.hub.shed_count()
    }

    /// Drains and shuts down: stops accepting, grants departed producers a
    /// grace period to be fully consumed, closes every remaining
    /// connection, ends the record stream, waits for the pipeline to seal
    /// what was ingested, and closes all subscriptions (each drains its
    /// backlog to its socket first). Returns the pipeline's final metrics.
    ///
    /// This is the **end of the stream**: the enumeration engines flush
    /// their open windows and those final patterns are delivered — and any
    /// periodic checkpoints are deleted, because resuming a *finished*
    /// stream from one would resurrect flushed windows and re-deliver
    /// their patterns. To stop mid-stream and continue later, use
    /// [`Server::suspend`] instead (its final checkpoint is kept).
    ///
    /// Panics if a pipeline subtask panicked.
    pub fn finish(mut self) -> MetricsReport {
        self.drain_ingest_edge();
        // Cut the ingest side only: subscriber sockets must stay open so
        // the events produced while draining still reach them.
        *self.shared.ingest.lock() = None;
        self.shared.close_conns(false);
        let report = self
            .pipeline
            .take()
            .expect("pipeline present until finish")
            .finish();
        // End every subscription; each writer flushes its backlog to its
        // socket and closes it (EOF to the consumer).
        self.shared.hub.close();
        if let Some(store) = &self.store {
            let _ = store.clear();
        }
        self.clean_shutdown = true;
        report
    }

    /// Suspends the server mid-stream (the SIGTERM path): drains connected
    /// producers, writes one final checkpoint covering **every** ingested
    /// record, then tears the pipeline down with its end-of-stream flush
    /// *suppressed* — those flush patterns come from windows still open at
    /// the cut, which the checkpoint preserves, so the resumed instance
    /// delivers them (exactly once) when the windows genuinely close.
    /// A subsequent [`Server::start`] with the same policy resumes from
    /// this checkpoint.
    ///
    /// Fails when no checkpoint policy is configured or the final
    /// checkpoint cannot be taken/written; the server is shut down (without
    /// the checkpoint) either way.
    pub fn suspend(mut self) -> std::io::Result<MetricsReport> {
        self.drain_ingest_edge();
        let result = self.final_checkpoint();
        if result.is_ok() {
            // Everything after the checkpoint barrier is teardown flush:
            // covered by the checkpoint, re-delivered after restart.
            self.shared.suppress_events.store(true, Ordering::SeqCst);
        }
        *self.shared.ingest.lock() = None;
        self.shared.close_conns(false);
        let report = self
            .pipeline
            .take()
            .expect("pipeline present until finish")
            .finish();
        self.shared.hub.close();
        self.clean_shutdown = true;
        result.map(|()| report)
    }

    /// Shared shutdown prologue: stop accepting, let departed producers be
    /// fully consumed, stop the periodic checkpoint worker (it holds a
    /// producer handle that would otherwise keep the stream open forever).
    fn drain_ingest_edge(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Grace: a producer that closed its side may still have records in
        // kernel buffers; its handler exits once it drains to EOF. A
        // connection accepted just before the accept loop stopped may not
        // have read its first line yet — it is waited for too. Only
        // connections that stay open past the deadline are cut off.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while self.shared.ingest_edge_busy() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        if let Some(worker) = self.ckpt_worker.take() {
            worker.stop_and_join();
        }
    }

    /// Takes and persists the suspend-time checkpoint.
    fn final_checkpoint(&self) -> std::io::Result<()> {
        let store = self.store.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "suspend requires a checkpoint policy (ServeConfig::with_checkpoints)",
            )
        })?;
        let pipeline = self.pipeline.as_ref().expect("pipeline present");
        write_checkpoint(&self.shared, &pipeline.sender(), store).map_err(std::io::Error::other)?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.clean_shutdown {
            // finish() ran: subscriber writers are flushing their final
            // backlogs — leave their sockets to close naturally.
            return;
        }
        // Finish not called: detach. Stop accepting and close sockets, but
        // do not block on the pipeline (beyond stopping the checkpoint
        // worker, whose producer handle would keep the stream open).
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(worker) = self.ckpt_worker.take() {
            worker.stop_and_join();
        }
        *self.shared.ingest.lock() = None;
        self.shared.close_conns(true);
        self.shared.hub.close();
    }
}

/// Accounts a publish's shed subscribers: the cumulative edge counter plus
/// one typed journal entry per shed connection, so `EVENTS` shows *which*
/// subscriber was dropped and when relative to the stream's other
/// transitions.
fn note_shed(shared: &Shared, shed: &[u64]) {
    if shed.is_empty() {
        return;
    }
    shared
        .stats
        .subscribers_shed
        .fetch_add(shed.len() as u64, Ordering::Relaxed);
    for &id in shed {
        shared.journal(ObsEventKind::SubscriberShed { subscriber: id });
    }
}

/// Takes one serve checkpoint — the pipeline's barrier cut plus the edge
/// counters — and persists it atomically. Producers keep pushing while the
/// barrier travels: every per-trajectory state is in the pipeline and cut
/// there in channel order, so the edge has nothing to hold still.
fn write_checkpoint(
    shared: &Shared,
    sender: &RecordSender,
    store: &CheckpointStore,
) -> Result<u64, String> {
    let pipeline = sender.checkpoint().map_err(|e| e.to_string())?;
    let seq = pipeline.seq;
    let checkpoint = ServeCheckpoint {
        stats: EdgeStatsCheckpoint::capture(&shared.stats, &pipeline),
        interval: shared.projector.interval(),
        pipeline,
    };
    store.save(seq, &checkpoint).map_err(|e| e.to_string())?;
    shared.stats.note_checkpoint(seq);
    Ok(seq)
}

/// Spawns the periodic checkpoint thread. The worker owns a producer
/// handle into the pipeline; it must be stopped before the stream can end
/// (see [`Server::finish`]).
fn spawn_checkpoint_worker(
    shared: Arc<Shared>,
    sender: RecordSender,
    store: CheckpointStore,
    every: std::time::Duration,
) -> CheckpointWorker {
    let stop = Arc::new((StdMutex::new(false), Condvar::new()));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("serve-checkpoint".into())
        .spawn(move || {
            let (lock, cvar) = &*thread_stop;
            loop {
                let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
                if *guard {
                    return;
                }
                let (guard, _) = cvar
                    .wait_timeout(guard, every)
                    .unwrap_or_else(|e| e.into_inner());
                if *guard {
                    return;
                }
                drop(guard);
                if write_checkpoint(&shared, &sender, &store).is_err() {
                    // Pipeline gone (shutdown race) or disk failure; the
                    // next tick retries, and shutdown stops the loop.
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                }
            }
        })
        .expect("failed to spawn checkpoint thread");
    CheckpointWorker { handle, stop }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if let Ok(stream) = stream {
            spawn_handler(&shared, stream);
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The kernel completed these handshakes before shutdown woke
            // this loop (the wake-up connection queues behind them): a
            // producer may already have written its whole stream and
            // closed. Serve the backlog, then stop accepting.
            if listener.set_nonblocking(true).is_ok() {
                while let Ok((stream, _)) = listener.accept() {
                    stream.set_nonblocking(false).ok();
                    spawn_handler(&shared, stream);
                }
            }
            return;
        }
    }
}

/// Hands an accepted connection to its own handler thread, counted as
/// [`Unclassified`] from before the spawn.
fn spawn_handler(shared: &Arc<Shared>, stream: TcpStream) {
    let pending = Unclassified::new(Arc::clone(shared));
    let conn_shared = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name("serve-conn".into())
        .spawn(move || {
            let _ = handle_connection(conn_shared, stream, pending);
        });
}

fn handle_connection(
    shared: Arc<Shared>,
    stream: TcpStream,
    pending: Unclassified,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    // Idle-dead defense: a silent producer or a subscriber that stopped
    // reading errors its handler out instead of pinning the thread (and,
    // for producers, the skew limiter's frontier) forever.
    stream.set_read_timeout(shared.socket_timeout).ok();
    stream.set_write_timeout(shared.socket_timeout).ok();
    let conn_id = shared.register_conn(&stream);
    let result = dispatch(&shared, stream, conn_id, pending);
    shared.unregister_conn(conn_id);
    result
}

/// The longest line the serve edge reads. A record is under 100 bytes and
/// a command shorter still; a longer line is garbage, and is never held
/// whole.
const MAX_LINE_BYTES: usize = 4 * 1024;

/// What one [`read_line_bounded`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineRead {
    /// End of stream, nothing read.
    Eof,
    /// One line, newline included (the stream's last line may lack it).
    Line,
    /// [`MAX_LINE_BYTES`] bytes and no newline: the head of an over-long
    /// line, whose rest the next reads return.
    Overlong,
}

/// Reads one line into `line` (cleared first) through the reader's buffer,
/// never holding more than [`MAX_LINE_BYTES`] bytes of it.
fn read_line_bounded(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<LineRead> {
    line.clear();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        let room = &buf[..buf.len().min(MAX_LINE_BYTES - line.len())];
        let newline = room.iter().position(|&b| b == b'\n');
        let take = newline.map_or(room.len(), |i| i + 1);
        line.extend_from_slice(&room[..take]);
        reader.consume(take);
        if newline.is_some() {
            return Ok(LineRead::Line);
        }
        if line.len() == MAX_LINE_BYTES {
            return Ok(LineRead::Overlong);
        }
    }
}

/// The text of a line [`read_line_bounded`] returned: `None` for an
/// over-long or non-UTF-8 line, which is garbage.
fn line_text(line: &[u8], read: LineRead) -> Option<&str> {
    (read == LineRead::Line)
        .then(|| std::str::from_utf8(line).ok())
        .flatten()
}

fn dispatch(
    shared: &Arc<Shared>,
    stream: TcpStream,
    conn_id: u64,
    pending: Unclassified,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut first = Vec::with_capacity(MAX_LINE_BYTES);
    let read = read_line_bounded(&mut reader, &mut first)?;
    if read == LineRead::Eof {
        return Ok(());
    }
    // A garbage first line is no command: the producer path rejects it.
    // Read-only queries neither ingest nor subscribe: classified at once.
    match line_text(&first, read).and_then(Command::parse) {
        Some(Command::Subscribe(topic)) => {
            shared.mark_subscriber(conn_id);
            serve_subscriber(shared, stream, topic, pending)
        }
        Some(Command::Status) => {
            drop(pending);
            serve_status(shared, stream)
        }
        Some(Command::Metrics) => {
            drop(pending);
            serve_metrics(shared, stream)
        }
        Some(Command::Events(since)) => {
            drop(pending);
            serve_events(shared, stream, since)
        }
        None => serve_producer(shared, reader, (first, read), conn_id, pending),
    }
}

/// Producer connection: every line is one record; parse → tick → push.
fn serve_producer(
    shared: &Arc<Shared>,
    mut reader: BufReader<TcpStream>,
    first_line: (Vec<u8>, LineRead),
    conn_id: u64,
    pending: Unclassified,
) -> std::io::Result<()> {
    let Some(sender) = shared.ingest.lock().clone() else {
        return Ok(()); // draining: refuse new records
    };
    shared.stats.producers.fetch_add(1, Ordering::SeqCst);
    drop(pending);
    shared.skew.register(conn_id);
    let mut quarantined = 0u64;
    let result = producer_loop(
        shared,
        &mut reader,
        first_line,
        sender,
        conn_id,
        &mut quarantined,
    );
    shared.skew.deregister(conn_id);
    shared.stats.producers.fetch_sub(1, Ordering::Relaxed);
    // One journal entry per connection that produced garbage: which peer,
    // how many lines — the per-line payloads are in the dead-letter ring.
    if quarantined > 0 {
        shared.journal(ObsEventKind::RecordQuarantined {
            conn: conn_id,
            records: quarantined,
        });
    }
    result
}

/// Most recent malformed lines kept for inspection (older ones rotate out).
const DEAD_LETTER_CAPACITY: usize = 256;

/// Moves one malformed producer line into the bounded dead-letter ring.
fn quarantine_line(shared: &Shared, line: &str, quarantined: &mut u64) {
    *quarantined += 1;
    shared
        .stats
        .records_quarantined
        .fetch_add(1, Ordering::Relaxed);
    let mut ring = shared.dead_letters.lock();
    if ring.len() >= DEAD_LETTER_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(line.trim_end().to_string());
}

fn producer_loop(
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    first_line: (Vec<u8>, LineRead),
    sender: RecordSender,
    conn_id: u64,
    quarantined: &mut u64,
) -> std::io::Result<()> {
    let ingest_batch = shared.ingest_batch;
    let span_bound = shared.skew.max_skew;
    let mut discretizer = shared.projector;
    let (mut line, mut read) = first_line;
    // The line in hand is the rest of an over-long line already rejected.
    let mut tail = false;
    let mut consecutive_errors = 0usize;
    let mut records: Vec<GpsRecord> = Vec::with_capacity(ingest_batch);
    let mut eof = false;
    while !eof {
        // Gather: parse the line in hand, then keep pulling lines for as
        // long as complete lines are *already buffered* and the batch has
        // room. Gathering never waits on the socket, so a trickling
        // producer ships batches of one while a saturating one fills whole
        // batches.
        // Projected tick range of the gathered batch. The span is bounded
        // by `max_producer_skew`: gathered records are *admitted* (visible
        // to the skew limiter) before they are *pushed*, so an unbounded
        // batch span would let the pushed frontier lag the admitted one by
        // the whole batch — far enough for the aligner to retire this
        // producer's chains and drop the batch's records as late once it
        // finally lands.
        let mut tick_range: Option<(u32, u32)> = None;
        loop {
            shared
                .stats
                .bytes_in
                .fetch_add(line.len() as u64, Ordering::Relaxed);
            let text = line_text(&line, read).filter(|_| !tail);
            if text.is_none_or(|text| !text.trim().is_empty()) {
                let wire = text.and_then(|text| WireRecord::parse(text).ok());
                let raw =
                    wire.map(|w| RawRecord::new(ObjectId(w.id), Point::new(w.x, w.y), w.time));
                match raw.and_then(|raw| discretizer.push(&raw)) {
                    Some(record) => {
                        consecutive_errors = 0;
                        // Tick-span bound: ship the batch gathered so far
                        // before this record would stretch it past the
                        // skew window.
                        let tick = record.time.0;
                        let (lo, hi) = tick_range
                            .map_or((tick, tick), |(lo, hi)| (lo.min(tick), hi.max(tick)));
                        if hi - lo > span_bound && !records.is_empty() {
                            if !flush_batch(shared, &sender, &mut records) {
                                return Ok(()); // pipeline gone
                            }
                            tick_range = Some((tick, tick));
                        } else {
                            tick_range = Some((lo, hi));
                        }
                        // Hold this producer to the cross-producer skew
                        // window per record, exactly as in record-at-a-time
                        // ingestion. The admit wait can stretch to seconds
                        // and must not hold the batch hostage — at most a
                        // skew window's worth of gathered records rides
                        // the wait.
                        shared.skew.admit(conn_id, tick);
                        records.push(record);
                    }
                    None => {
                        // A line is one rejected record, but each
                        // `MAX_LINE_BYTES` of it spends one unit of the
                        // error budget: a line without end drops its peer.
                        if !tail {
                            shared
                                .stats
                                .records_rejected
                                .fetch_add(1, Ordering::Relaxed);
                            quarantine_line(shared, &String::from_utf8_lossy(&line), quarantined);
                        }
                        consecutive_errors += 1;
                        if consecutive_errors >= shared.max_consecutive_parse_errors {
                            // Dropping the peer must not drop the valid
                            // records gathered before its garbage.
                            let _ = flush_batch(shared, &sender, &mut records);
                            return Ok(());
                        }
                    }
                }
            }
            tail = read == LineRead::Overlong;
            if records.len() >= ingest_batch || !reader.buffer().contains(&b'\n') {
                break;
            }
            match read_line_bounded(reader, &mut line) {
                Ok(LineRead::Eof) => {
                    eof = true;
                    break;
                }
                Ok(next) => read = next,
                Err(e) => {
                    // Connection died mid-gather: the records already
                    // gathered were valid and admitted — deliver them.
                    let _ = flush_batch(shared, &sender, &mut records);
                    return Err(e);
                }
            }
        }

        if !flush_batch(shared, &sender, &mut records) {
            return Ok(()); // pipeline gone
        }

        if eof {
            return Ok(());
        }
        // No shutdown-flag check here: during drain, a departed producer's
        // buffered records must still be consumed (until EOF); producers
        // that stay open are cut off by `finish` closing their socket.
        read = read_line_bounded(reader, &mut line)?;
        if read == LineRead::Eof {
            return Ok(());
        }
    }
    Ok(())
}

/// Pushes and counts one gathered ingest batch in one channel operation.
/// Push may block under backpressure. A stale or repeated tick travels
/// with the batch: the pipeline's router rejects it, and `STATUS` counts
/// it as rejected rather than in. Returns `false` when the pipeline is
/// gone.
fn flush_batch(shared: &Shared, sender: &RecordSender, records: &mut Vec<GpsRecord>) -> bool {
    let Some(max_tick) = records.iter().map(|r| r.time.0).max() else {
        return true;
    };
    let accepted = records.len() as u64;
    // The next batch fills about as full: size its buffer once.
    let next = Vec::with_capacity(records.len());
    if sender.push_batch(std::mem::replace(records, next)).is_err() {
        return false; // pipeline gone
    }
    shared.stats.note_batch(accepted);
    shared.stats.note_ingested_tick(max_tick);
    true
}

/// Subscriber connection: register with the hub, then become the writer
/// loop. Ends when the peer disconnects, the hub sheds us, or the stream
/// ends — the backlog is always flushed first.
fn serve_subscriber(
    shared: &Arc<Shared>,
    stream: TcpStream,
    topic: Option<Topic>,
    pending: Unclassified,
) -> std::io::Result<()> {
    let Some(topic) = topic else {
        let mut w = BufWriter::new(stream);
        writeln!(w, "ERR unknown topic (use: patterns | snapshots | all)")?;
        return w.flush();
    };
    let subscription = shared.hub.subscribe(topic);
    drop(pending);
    shared.stats.subscribers.fetch_add(1, Ordering::Relaxed);
    let result = write_lines(subscription.lines(), stream);
    shared.hub.unsubscribe(subscription.id);
    shared.stats.subscribers.fetch_sub(1, Ordering::Relaxed);
    result
}

/// Subscriber write buffer: one `write` carries up to this many bytes of a
/// burst.
const SUBSCRIBER_WRITE_BUFFER: usize = 64 * 1024;

/// The subscriber writer loop: each line followed by `\n`, until the line
/// stream ends or `out` fails (peer gone). It blocks for a line, then
/// drains whatever else is already queued into the buffer and flushes once
/// the queue is empty — a lone line goes out at once, a burst goes out in
/// as few writes as the buffer allows.
fn write_lines(lines: &Receiver<Arc<str>>, out: impl Write) -> std::io::Result<()> {
    let mut out = BufWriter::with_capacity(SUBSCRIBER_WRITE_BUFFER, out);
    while let Ok(first) = lines.recv() {
        for line in std::iter::once(first).chain(lines.try_iter()) {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
    }
    Ok(())
}

/// Assembles the `STATUS` block: the edge counters plus one reading of
/// the pipeline's status surface.
fn render_status(shared: &Shared) -> String {
    shared
        .stats
        .render(&shared.status().snapshot(), shared.hub.max_queue_depth())
}

/// `STATUS` connection: one text block, then close.
fn serve_status(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    let mut w = BufWriter::new(stream);
    w.write_all(render_status(shared).as_bytes())?;
    w.flush()
}

/// Assembles the `METRICS` exposition: per-stage/per-exchange pipeline
/// families first, then the serve-level edge families. The two renders use
/// disjoint prefixes (`icpe_` vs `icpe_serve_`), so concatenation keeps
/// every family's samples contiguous as the exposition format requires.
fn render_metrics(shared: &Shared) -> String {
    let status = shared.status();
    let mut text = status.obs().render_prometheus();
    text.push_str(
        &shared
            .stats
            .render_prometheus(&status.snapshot(), shared.hub.max_queue_depth()),
    );
    text
}

/// `METRICS` connection: one Prometheus text-exposition block, then close.
fn serve_metrics(shared: &Arc<Shared>, stream: TcpStream) -> std::io::Result<()> {
    let mut w = BufWriter::new(stream);
    w.write_all(render_metrics(shared).as_bytes())?;
    w.flush()
}

/// `EVENTS [since-seq]` connection: the journal's retained entries with
/// sequence numbers strictly greater than `since-seq` (default 0 = all
/// retained), one JSON object per line, then close. Consumers page by
/// passing the last `seq` they saw.
fn serve_events(
    shared: &Arc<Shared>,
    stream: TcpStream,
    since: Option<u64>,
) -> std::io::Result<()> {
    let mut w = BufWriter::new(stream);
    let Some(since) = since else {
        writeln!(w, "ERR usage: EVENTS [since-seq]")?;
        return w.flush();
    };
    for event in shared.status().obs().events_since(since) {
        writeln!(w, "{}", event.render_json())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn line_reads_never_hold_more_than_the_bound() {
        // 10 MiB without a newline, then two short lines.
        let flood = std::io::Read::chain(
            std::io::Read::take(std::io::repeat(b'x'), 10 << 20),
            &b"a,1,2,3\nlast"[..],
        );
        let mut reader = BufReader::new(flood);
        let mut line = Vec::with_capacity(MAX_LINE_BYTES);
        let mut overlong = 0;
        loop {
            let read = read_line_bounded(&mut reader, &mut line).unwrap();
            assert!(line.len() <= MAX_LINE_BYTES && line.capacity() <= MAX_LINE_BYTES);
            match read {
                LineRead::Overlong => overlong += 1,
                _ => break,
            }
        }
        assert_eq!(overlong, (10 << 20) / MAX_LINE_BYTES);
        assert_eq!(line, b"a,1,2,3\n", "the line after the flood reads whole");
        assert_eq!(
            read_line_bounded(&mut reader, &mut line).unwrap(),
            LineRead::Line
        );
        assert_eq!(line, b"last", "a last line may lack its newline");
        assert_eq!(
            read_line_bounded(&mut reader, &mut line).unwrap(),
            LineRead::Eof
        );
    }

    /// Runs `admit(id, tick)` on its own thread; the returned receiver
    /// yields how long the call took once it returns.
    fn admit_in_background(
        limiter: &Arc<SkewLimiter>,
        id: u64,
        tick: u32,
    ) -> mpsc::Receiver<Duration> {
        let (tx, rx) = mpsc::channel();
        let limiter = Arc::clone(limiter);
        std::thread::spawn(move || {
            let started = Instant::now();
            limiter.admit(id, tick);
            let _ = tx.send(started.elapsed());
        });
        rx
    }

    fn assert_waiting(admit: &mpsc::Receiver<Duration>, why: &str) {
        assert!(
            admit.recv_timeout(Duration::from_millis(100)).is_err(),
            "{why}"
        );
    }

    fn assert_released(admit: &mpsc::Receiver<Duration>, why: &str) -> Duration {
        let took = admit
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("{why}"));
        assert!(took < Duration::from_secs(2), "{why}: released by the cap");
        took
    }

    /// Under `max_skew` 2 and no grace, producer 1 is at tick 0 and
    /// producer 2 at tick 2; producer 2 then offers tick 5 and waits.
    fn blocked_pair() -> (Arc<SkewLimiter>, mpsc::Receiver<Duration>) {
        let limiter = Arc::new(SkewLimiter::new(2, Duration::ZERO));
        limiter.register(1);
        limiter.register(2);
        assert!(limiter.admit(1, 0));
        assert!(limiter.admit(2, 2));
        let admit = admit_in_background(&limiter, 2, 5);
        assert_waiting(&admit, "tick 5 is 5 ahead of producer 1");
        (limiter, admit)
    }

    #[test]
    fn skew_wait_ends_when_the_slow_frontier_rises() {
        let (limiter, admit) = blocked_pair();
        assert!(limiter.admit(1, 2));
        assert_waiting(&admit, "tick 5 is still 3 ahead of producer 1");
        assert!(limiter.admit(1, 3));
        assert_released(&admit, "producer 1 reached 3 = 5 - max_skew");
    }

    #[test]
    fn skew_wait_ends_when_the_slow_producer_deregisters() {
        let (limiter, admit) = blocked_pair();
        limiter.deregister(1);
        assert_released(&admit, "no other producer is left");
    }

    #[test]
    fn records_at_or_below_the_own_frontier_admit_without_a_wake_up() {
        let limiter = SkewLimiter::new(2, Duration::ZERO);
        limiter.register(1);
        assert!(limiter.admit(1, 5), "first record sets the frontier");
        assert!(!limiter.admit(1, 5), "same tick: no rise, no wake-up");
        assert!(!limiter.admit(1, 3), "older tick: no rise, no wake-up");
        assert!(limiter.admit(1, 6), "a new tick wakes the waiters");
    }

    #[test]
    fn grace_holds_ticks_past_max_skew_until_it_ends() {
        let grace = Duration::from_millis(300);
        let registered = Instant::now();
        let limiter = Arc::new(SkewLimiter::new(2, grace));
        limiter.register(1);
        assert!(limiter.admit(1, 2), "tick <= max_skew admits during grace");
        assert!(registered.elapsed() < grace);
        let admit = admit_in_background(&limiter, 1, 3);
        assert_waiting(&admit, "tick 3 > max_skew waits during grace");
        assert_released(&admit, "grace is over");
        assert!(registered.elapsed() >= grace);
        assert!(limiter.state.lock().unwrap().grace_over, "grace ends once");
    }

    #[test]
    fn the_two_second_cap_admits_a_record_that_never_fits() {
        let limiter = SkewLimiter::new(2, Duration::ZERO);
        limiter.register(1);
        limiter.register(2);
        assert!(limiter.admit(1, 0));
        let started = Instant::now();
        assert!(limiter.admit(2, 100));
        let took = started.elapsed();
        assert!(took >= Duration::from_secs(2), "admitted early: {took:?}");
        assert!(took < Duration::from_secs(4), "cap overshot: {took:?}");
    }

    /// A `Write` that records its bytes and counts `write` and `flush`
    /// calls.
    #[derive(Clone, Default)]
    struct CountingWriter(Arc<Mutex<Written>>);

    #[derive(Default)]
    struct Written {
        bytes: Vec<u8>,
        writes: usize,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut w = self.0.lock();
            w.writes += 1;
            w.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.lock().flushes += 1;
            Ok(())
        }
    }

    /// What the per-line writer (write, `\n`, flush per line) put on the
    /// wire.
    fn per_line_bytes(lines: &[String]) -> Vec<u8> {
        let mut out = Vec::new();
        for line in lines {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        out
    }

    fn queued(lines: &[String]) -> Receiver<Arc<str>> {
        let (tx, rx) = bounded(lines.len().max(1));
        for line in lines {
            tx.send(Arc::from(line.as_str())).unwrap();
        }
        rx
    }

    #[test]
    fn queued_lines_go_out_in_order_in_one_flush() {
        let lines: Vec<String> = (0..100).map(|i| format!("{{\"seq\":{i}}}")).collect();
        let out = CountingWriter::default();
        write_lines(&queued(&lines), out.clone()).unwrap();
        let written = out.0.lock();
        assert_eq!(written.bytes, per_line_bytes(&lines));
        assert_eq!(written.flushes, 1);
        assert_eq!(written.writes, 1, "a burst under 64 KiB is one write");
    }

    #[test]
    fn a_lone_line_is_flushed_before_the_loop_blocks_again() {
        let (tx, rx) = bounded::<Arc<str>>(16);
        let out = CountingWriter::default();
        let writer = {
            let out = out.clone();
            std::thread::spawn(move || write_lines(&rx, out))
        };
        let wait_for = |bytes: &[u8], flushes: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                {
                    let w = out.0.lock();
                    if w.bytes == bytes && w.flushes == flushes {
                        return;
                    }
                }
                assert!(Instant::now() < deadline, "line not flushed");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        tx.send(Arc::from("first")).unwrap();
        wait_for(b"first\n", 1);
        tx.send(Arc::from("second")).unwrap();
        wait_for(b"first\nsecond\n", 2);
        drop(tx);
        writer.join().unwrap().unwrap();
        assert_eq!(out.0.lock().flushes, 2);
    }

    #[test]
    fn coalesced_bytes_equal_the_per_line_output() {
        // Mixed sizes: empty, multi-byte UTF-8, one line past the buffer,
        // and enough lines that one burst spans several buffer fills.
        let mut lines: Vec<String> = vec![String::new(), "é→✓".to_string()];
        lines.push("x".repeat(SUBSCRIBER_WRITE_BUFFER + 17));
        lines.extend(
            (0..3000).map(|i| format!("{{\"line\":{i},\"pad\":\"{}\"}}", "y".repeat(i % 97))),
        );
        let out = CountingWriter::default();
        write_lines(&queued(&lines), out.clone()).unwrap();
        let written = out.0.lock();
        assert_eq!(written.bytes, per_line_bytes(&lines));
        assert_eq!(written.flushes, 1);
        assert!(written.writes > 1 && written.writes < lines.len());
    }
}
