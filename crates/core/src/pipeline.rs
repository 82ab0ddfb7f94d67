//! The distributed streaming deployment (the paper's Flink job, Fig. 5).
//!
//! ```text
//! Source(1) → AlignRoute(1) → AlignShard+GridAllocate(S, keyBy id)
//!     → GridQuery(N, keyBy grid cell)    ┐  keyed data,
//!     → SyncMerge+DBSCAN(tree, fanin f)  │  broadcast per-snapshot ticks
//!     → Enumerate(N, keyBy owner id)     ┘
//!     → Sink(1)
//! ```
//!
//! Snapshot boundaries travel as broadcast *ticks* (the runtime equivalent
//! of Flink punctuation/watermarks): a keyed subtask knows a snapshot's
//! contribution is complete when it has seen the boundary tick from each of
//! its upstream producers. Latency is measured from the frontier router
//! sealing a snapshot until all enumeration subtasks have reported its tick
//! done; throughput is completed snapshots per second — the two measures
//! of §7.
//!
//! ## The sharded aligner head
//!
//! §4 time alignment decomposes by trajectory id — every chain is
//! per-trajectory state — but the *seal decision* is global: a record is
//! late iff its time is below the min-over-all-chains frontier at the
//! moment it enters the stream. So the head splits into a thin serial
//! **frontier router** (`align-route`) holding the chains partitioned per
//! shard (seal = min over shard frontiers; it buffers no rows) and `S`
//! **aligner shards** (`align-shard`, keyed by `hash_id(id) % S`) holding
//! the buffered snapshot rows of their trajectories. The router forwards
//! each kept record to its shard and broadcasts `Seal` punctuation as
//! times become sealable (a window's latency clock starts there). Each
//! shard then runs GridAllocate over its rows and sends each grid-query
//! subtask its objects of the window in one batch — the paper's
//! GridAllocate flatMap feeding `keyBy(cell)`; no window is ever assembled
//! in one place. Chain work, row buffering, cell assignment and the keyed
//! split all scale with `S`; only the frontier bookkeeping (a hash+compare
//! per record) stays serial.
//!
//! This is the one dataflow the deployment runs, with one enumeration
//! engine: FBA. The paper's comparison baselines — the §7.1 clusterers SRJ
//! and GDC, the §7.2 enumerators BA and VBA — run on the serial
//! [`IcpeEngine::with_parts`](crate::IcpeEngine::with_parts) and in the
//! figure harnesses; no configuration selects them.
//!
//! Every keyed hop carries the runtime's [`Envelope`]: keyed data, broadcast
//! snapshot ticks, broadcast checkpoint barriers — one message shape, one
//! exchange constructor, one tick/barrier counter ([`WindowAlign`]).
//!
//! Neighbor pairs are exactly-once at the source: the Lemma-1 key set
//! replicates a location only to cells after its home in row-major order
//! (`icpe_index::grid`), so every pair is found in exactly one cell. Each
//! grid-query subtask therefore feeds its window's pairs straight into the
//! `sync-merge` tree, with no dedup stage between them.
//!
//! Two entry points are provided:
//!
//! * [`IcpePipeline::run`] — batch: feed a pre-built record vector, block
//!   until completion, collect everything (the evaluation-harness form);
//! * [`IcpePipeline::launch`] — live: the dataflow runs on background
//!   threads, records are **pushed** through a bounded channel as they
//!   arrive ([`LivePipeline::push`]), and results are **delivered to a sink
//!   callback** ([`PipelineEvent`]) the moment they are produced. This is
//!   the deployment form the `icpe-serve` network layer builds on; the
//!   channel bound gives end-to-end backpressure from clustering all the
//!   way back to the TCP socket.
//!
//! ## Checkpointing (the recovery story)
//!
//! The job is stateful: the aligner's chains and buffered rows and the
//! FBA engines' open windows are exactly what a crash would
//! forget. [`LivePipeline::checkpoint`] captures them *consistently*
//! without stopping the world, Flink/Chandy–Lamport style: a **barrier**
//! message is enqueued on the ingest channel behind every record pushed so
//! far and flows through the dataflow along the same FIFO channels as
//! data —
//!
//! * the frontier router snapshots its chains + counters into the token
//!   and forwards the barrier; each aligner shard deposits its buffered
//!   rows as a buffer-only piece (the sink later merges router + shard
//!   pieces into one canonical, deployment-independent aligner section —
//!   restore may therefore use a different shard count);
//! * the clustering stages forward it (their per-snapshot buffers are
//!   provably empty at a barrier: the barrier trails the boundary tick of
//!   every sealed snapshot, and ticks flush those buffers);
//! * each enumeration subtask snapshots its engine at the barrier — by
//!   which point it has processed exactly the snapshots the aligner sealed
//!   before the barrier, nothing more — and emits the piece to the sink;
//! * the sink merges the `N` engine pieces with the aligner state into one
//!   deployment-independent [`PipelineCheckpoint`] and fulfils the request.
//!
//! The cut is exact: `records_ingested` counts the records consumed before
//! the barrier, so replaying the input from that offset into
//! [`IcpePipeline::launch_from`] resumes the run as if it never stopped.
//! Restore re-shards engine state by owner hash, so the restored deployment
//! may use a different parallelism than the one that wrote the checkpoint.
//!
//! ## Adaptive cell routing (hotspot-aware repartitioning)
//!
//! With [`rebalance`](crate::IcpeConfigBuilder::rebalance) set, the
//! frontier router owns the [`LoadBalancer`] and cells route through an
//! epoch-stamped [`RoutingTable`] instead of a fixed `hash(cell) % N`:
//!
//! * every GridQuery subtask hands each window's per-cell loads (objects
//!   plus pairs) to a shared [`LoadTracker`] as one run in cell order,
//!   merged when the window seals (static routing reports totals only);
//! * the router counts each open window's grid objects per cell (home
//!   cell and Lemma-1 replicas of every kept record); when it seals
//!   windows the balancer places them on those counts and the tracker's
//!   pair feedback and — when a hot placement is detected — the router
//!   builds the next epoch's table;
//! * the `Seal` carries the table (an `Arc`), and each shard splits every
//!   window the Seal lists by it. A window's objects are therefore split
//!   under exactly one epoch, on every shard: migrations can never split
//!   a window's cell across subtasks, which is why adaptive and static
//!   routing provably seal identical pattern multisets.
//!
//! The learned placement (epoch, explicit assignments, decayed cell
//! loads) rides in the checkpoint's `routing` section, so a restored
//! deployment resumes on the checkpointed epoch instead of re-learning
//! every hotspot.

use crate::config::{IcpeConfig, Supervision};
use crate::status::{up_to, HealthState, PipelineStatus, StatusGauges};
use icpe_cluster::balance::{CellLoad, LoadBalancer, LoadTracker};
use icpe_cluster::query::NeighborPair;
use icpe_cluster::{
    dbscan_from_pairs, grid_allocate_into, query_cells, CellQueryEngine, GridObject,
};
use icpe_index::{Grid, GridKey};
use icpe_pattern::partition::Partition;
use icpe_pattern::{id_partitions, FbaEngine};
use icpe_runtime::{
    ingest_channel, BarrierSeq, Collector, Disconnected, Envelope, Exchange, MetricRegistry,
    MetricsReport, ObsEventKind, Operator, Partial, Routed, Routing, RoutingTable, ShardedAligner,
    StageFailure, Stream, TreeCombiner, WindowAlign,
};
use icpe_types::shard::{hash_id, stable_hash, subtask_for};
use icpe_types::{
    AlignerCheckpoint, CheckpointError, DbscanParams, EngineCheckpoint, GpsRecord, ObjectId,
    ObsCheckpoint, Pattern, PatternBatch, PipelineCheckpoint, ProgressCheckpoint,
    RoutingCheckpoint, Snapshot, Timestamp, CHECKPOINT_VERSION,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What a pipeline run produces.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Every reported pattern (across all windows; dedupe with
    /// [`icpe_pattern::unique_object_sets`] if only the sets matter).
    pub patterns: Vec<Pattern>,
    /// Latency/throughput summary.
    pub metrics: MetricsReport,
}

/// An output of the live pipeline, delivered to the sink callback the
/// moment the dataflow produces it.
#[derive(Debug, Clone)]
pub enum PipelineEvent {
    /// A co-movement pattern became reportable.
    Pattern(Pattern),
    /// Every enumeration subtask finished snapshot `time`. Patterns whose
    /// enumeration window closed by `time` have been delivered; windows
    /// still open (and the end-of-stream flush) may deliver further
    /// patterns later, including some whose witnessing sequence ends at or
    /// before `time`.
    SnapshotSealed {
        /// The completed snapshot's discretized time.
        time: u32,
    },
}

/// What travels on the ingest channel: data (single records or whole
/// ingest-edge batches), or a checkpoint barrier.
#[derive(Debug, Clone)]
enum InputMsg {
    Record(GpsRecord),
    /// A pre-assembled micro-batch ([`RecordSender::push_batch`]): one
    /// channel operation for many records. The align stage consumes it
    /// record-by-record, so the checkpoint cut's `records_ingested` count
    /// stays record-granular.
    Batch(Vec<GpsRecord>),
    Barrier(Arc<BarrierRequest>),
}

/// A pending checkpoint request, created by [`RecordSender::checkpoint`]
/// and fulfilled by the sink once every engine piece has arrived.
#[derive(Debug)]
struct BarrierRequest {
    seq: u64,
    reply: crossbeam::channel::Sender<PipelineCheckpoint>,
}

/// The barrier as it travels *after* the align stage: the request plus the
/// state captured at the cut so far.
#[derive(Debug)]
pub(crate) struct BarrierToken {
    request: Arc<BarrierRequest>,
    /// The aligner state captured at the ingest point: the frontier
    /// router's piece (chains + counters + clock fields, no rows).
    aligner: AlignerCheckpoint,
    records_ingested: u64,
    /// Filled by the aligner shards as the barrier passes them: one
    /// buffer-only piece per shard (their unsealed rows). The sink merges
    /// these with the router's piece into the canonical aligner section.
    aligner_shards: Mutex<Vec<AlignerCheckpoint>>,
    /// The router's balancer at the cut; `None` under static routing.
    routing: Option<RoutingCheckpoint>,
    /// Filled by the sync-merge finalizer as the barrier aligns there: its
    /// cumulative pair counter.
    pairs_merged: AtomicU64,
}

impl BarrierSeq for BarrierToken {
    fn seq(&self) -> u64 {
        self.request.seq
    }
}

/// A cloneable handle for pushing records into a running [`LivePipeline`]
/// (one per producer; many producers may feed one pipeline).
#[derive(Debug, Clone)]
pub struct RecordSender {
    inner: crossbeam::channel::Sender<InputMsg>,
    /// Checkpoint sequence numbers, shared by every handle of one pipeline.
    ckpt_seq: Arc<AtomicU64>,
}

impl RecordSender {
    /// Pushes one record, blocking while the pipeline's ingest buffer is
    /// full (backpressure). Fails once the pipeline has shut down.
    pub fn push(&self, record: GpsRecord) -> Result<(), Disconnected> {
        self.inner
            .send(InputMsg::Record(record))
            .map_err(|_| Disconnected)
    }

    /// Pushes a whole micro-batch in one channel operation — the vectorized
    /// ingest edge (`icpe-serve` forwards per-connection batches, link-less,
    /// through this). Order within the batch is preserved; a batch is
    /// equivalent to pushing its records one by one, only cheaper. Blocks
    /// under backpressure; fails once the pipeline has shut down.
    pub fn push_batch(&self, records: Vec<GpsRecord>) -> Result<(), Disconnected> {
        if records.is_empty() {
            return Ok(());
        }
        self.inner
            .send(InputMsg::Batch(records))
            .map_err(|_| Disconnected)
    }

    /// Requests a consistent checkpoint and blocks until the barrier has
    /// traversed the dataflow (behind every record pushed before this
    /// call) and the assembled [`PipelineCheckpoint`] comes back. Fails
    /// once the pipeline has shut down.
    pub fn checkpoint(&self) -> Result<PipelineCheckpoint, Disconnected> {
        let (reply, rx) = crossbeam::channel::bounded(1);
        let seq = self.ckpt_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner
            .send(InputMsg::Barrier(Arc::new(BarrierRequest { seq, reply })))
            .map_err(|_| Disconnected)?;
        rx.recv().map_err(|_| Disconnected)
    }
}

/// A running streaming deployment (see [`IcpePipeline::launch`]).
///
/// Dropping the handle without calling [`LivePipeline::finish`] detaches
/// the dataflow: it keeps draining already-pushed records on its background
/// threads and winds down at end of stream.
#[derive(Debug)]
pub struct LivePipeline {
    input: Option<RecordSender>,
    driver: Option<JoinHandle<()>>,
    status: PipelineStatus,
}

impl LivePipeline {
    /// A fresh producer handle. The stream ends only when *every* producer
    /// handle (and the pipeline's own, released by
    /// [`LivePipeline::finish`]) has been dropped.
    pub fn sender(&self) -> RecordSender {
        self.input
            .clone()
            .expect("LivePipeline::sender called after finish")
    }

    /// Pushes one record through the pipeline's own producer handle.
    pub fn push(&self, record: GpsRecord) -> Result<(), Disconnected> {
        self.input
            .as_ref()
            .expect("LivePipeline::push called after finish")
            .push(record)
    }

    /// Pushes a whole micro-batch through the pipeline's own producer
    /// handle (see [`RecordSender::push_batch`]).
    pub fn push_batch(&self, records: Vec<GpsRecord>) -> Result<(), Disconnected> {
        self.input
            .as_ref()
            .expect("LivePipeline::push_batch called after finish")
            .push_batch(records)
    }

    /// Takes a consistent checkpoint of the running pipeline (see the
    /// module docs): blocks until the barrier has flowed through every
    /// stage, typically well under the time the pipeline needs to drain
    /// its in-flight snapshots. Concurrent pushes are fine — the cut lands
    /// at whatever point the barrier enters the ingest channel, and the
    /// returned checkpoint's `records_ingested` names that point exactly.
    pub fn checkpoint(&self) -> Result<PipelineCheckpoint, Disconnected> {
        self.input
            .as_ref()
            .expect("LivePipeline::checkpoint called after finish")
            .checkpoint()
    }

    /// The deployment's one status surface (see [`PipelineStatus`]). Clone
    /// it to keep reading after [`LivePipeline::finish`].
    pub fn status(&self) -> &PipelineStatus {
        &self.status
    }

    /// Shorthand for `status().obs()`: the metric registry and event
    /// journal.
    pub fn obs(&self) -> &MetricRegistry {
        self.status.obs()
    }

    /// Ends the stream (drops this handle's sender) and blocks until the
    /// dataflow drains; returns the final metrics. Producer handles from
    /// [`LivePipeline::sender`] keep the stream open until they drop too.
    ///
    /// Panics if a dataflow subtask panicked.
    pub fn finish(mut self) -> MetricsReport {
        self.input = None;
        if let Some(driver) = self.driver.take() {
            if let Err(payload) = driver.join() {
                std::panic::resume_unwind(payload);
            }
        }
        self.status.report()
    }
}

/// The distributed ICPE deployment.
pub struct IcpePipeline;

impl IcpePipeline {
    /// Launches the dataflow in live (push-based) mode: records enter
    /// through [`LivePipeline::push`] / [`RecordSender::push`] and every
    /// result is handed to `on_event` as soon as it exists. `on_event` runs
    /// on the pipeline's driver thread; keep it cheap or hand off to a
    /// queue (as `icpe-serve`'s fan-out hub does).
    pub fn launch(
        config: &IcpeConfig,
        on_event: impl FnMut(PipelineEvent) + Send + 'static,
    ) -> LivePipeline {
        Self::launch_with(config, ResumeState::fresh(config), None, on_event)
    }

    /// Launches the dataflow resuming from a checkpoint: the aligner, the
    /// enumeration engines, and the progress gauges pick up exactly where
    /// the checkpoint cut them, and the producers are expected to replay
    /// the input stream from record `checkpoint.records_ingested` onward.
    /// Parallelism may differ from the writing deployment's (state
    /// re-shards by owner hash).
    pub fn launch_from(
        config: &IcpeConfig,
        checkpoint: &PipelineCheckpoint,
        on_event: impl FnMut(PipelineEvent) + Send + 'static,
    ) -> Result<LivePipeline, CheckpointError> {
        let resume = ResumeState::from_checkpoint(config, checkpoint)?;
        Ok(Self::launch_with(
            config,
            resume,
            Some(checkpoint),
            on_event,
        ))
    }

    /// Both launch paths: one dataflow generation driven directly, or —
    /// with [`Supervision`] configured — behind a supervisor thread.
    /// Producers then feed the supervisor, which relays into the current
    /// dataflow *generation*, buffers every record since the latest
    /// checkpoint cut (`latest`, when resuming), and — when a stage dies —
    /// tears the generation down, relaunches from that cut under the
    /// policy's exponential backoff, and replays the buffer. The
    /// [`PipelineStatus`] survives generations, as does the event sink.
    fn launch_with(
        config: &IcpeConfig,
        resume: ResumeState,
        latest: Option<&PipelineCheckpoint>,
        on_event: impl FnMut(PipelineEvent) + Send + 'static,
    ) -> LivePipeline {
        let status = PipelineStatus::new(config);
        status.reset_to(&resume.obs, resume.max_sealed);
        let ckpt_seq = Arc::new(AtomicU64::new(resume.next_seq.saturating_sub(1)));
        let (inner, driver) = match config.supervision.clone() {
            None => launch_generation(config, resume, &status, None, None, on_event),
            Some(policy) => {
                let (outer_tx, outer_rx) =
                    ingest_channel::<InputMsg>(config.runtime.channel_capacity);
                let supervisor = Supervisor {
                    config: config.clone(),
                    policy,
                    status: status.clone(),
                    ledger: Arc::new(Mutex::new(DeliveryLedger::default())),
                    sink: Arc::new(Mutex::new(Box::new(on_event))),
                    outer: outer_rx,
                    ckpt_seq: Arc::clone(&ckpt_seq),
                    latest: latest.cloned(),
                    pending_cut: None,
                    buffer: Vec::new(),
                    restarts_used: 0,
                    restarts_total: 0,
                    recoveries_total: 0,
                    recovery_nanos_total: 0,
                    replayed_total: 0,
                };
                let first = supervisor.spawn_generation(resume);
                let driver = std::thread::Builder::new()
                    .name("icpe-supervisor".into())
                    .spawn(move || supervisor.run(first))
                    .expect("failed to spawn pipeline supervisor thread");
                (outer_tx, driver)
            }
        };
        LivePipeline {
            input: Some(RecordSender { inner, ckpt_seq }),
            driver: Some(driver),
            status,
        }
    }

    /// Runs the full dataflow over a (possibly out-of-order) stream of
    /// discretized GPS records, blocking until completion. Batch façade
    /// over [`IcpePipeline::launch`]; the input is chunked into ingest
    /// micro-batches of the configured batch size.
    pub fn run(config: &IcpeConfig, records: Vec<GpsRecord>) -> PipelineOutput {
        let collected: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&collected);
        let live = IcpePipeline::launch(config, move |event| {
            if let PipelineEvent::Pattern(p) = event {
                sink.lock().expect("pattern sink poisoned").push(p);
            }
        });
        let batch = config.runtime.batch_size.max(1);
        let mut iter = records.into_iter();
        loop {
            let chunk: Vec<GpsRecord> = iter.by_ref().take(batch).collect();
            if chunk.is_empty() {
                break;
            }
            if live.push_batch(chunk).is_err() {
                break; // pipeline died; finish() will propagate the panic
            }
        }
        let metrics = live.finish();
        let patterns = std::mem::take(&mut *collected.lock().expect("pattern sink poisoned"));
        PipelineOutput { patterns, metrics }
    }
}

// ---- supervision -----------------------------------------------------------

/// Spawns one dataflow *generation*: the ingest channel plus the driver
/// thread running [`drive`] against the shared status surface. Both launch
/// paths go through here; the supervised one passes a failure channel
/// (stage panics report instead of poisoning the process) and the delivery
/// ledger (exactly-once output across recovery cuts). Returns once every
/// operator is built, and so has published its restored gauges.
fn launch_generation(
    config: &IcpeConfig,
    resume: ResumeState,
    status: &PipelineStatus,
    failures: Option<crossbeam::channel::Sender<StageFailure>>,
    ledger: Option<Arc<Mutex<DeliveryLedger>>>,
    on_event: impl FnMut(PipelineEvent) + Send + 'static,
) -> (crossbeam::channel::Sender<InputMsg>, JoinHandle<()>) {
    let (input, records) = ingest_channel::<InputMsg>(config.runtime.channel_capacity);
    let (config, status) = (config.clone(), status.clone());
    let (built, operators_built) = crossbeam::channel::bounded::<()>(1);
    let driver = std::thread::Builder::new()
        .name("icpe-driver".into())
        .spawn(move || {
            drive(
                config, records, resume, status, failures, ledger, built, on_event,
            )
        })
        .expect("failed to spawn pipeline driver thread");
    // Disconnects when `drive` drops `built`: after building, or unwinding.
    let _ = operators_built.recv();
    (input, driver)
}

/// What one sink delivery is keyed by in the [`DeliveryLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LedgerKey {
    /// A pattern, by stable 64-bit content hash (a collision would wrongly
    /// suppress one delivery in ~2⁻⁶⁴ of replayed pairs — accepted).
    Pattern(u64),
    /// A `SnapshotSealed { time }` notification.
    Sealed(u32),
}

/// Exactly-once output accounting across recovery cuts.
///
/// Replaying from a checkpoint re-runs everything after the cut, so the
/// relaunched generation re-emits deliveries the crashed one already made.
/// The ledger counts, per key, how many copies the user has *seen* since
/// the latest committed cut (`seen`) and how many the current generation
/// has *emitted* since that cut (`emitted`): an emission is delivered only
/// once it exceeds the seen count. Replay emits a sub-multiset of the
/// uninterrupted stream (the dataflow is deterministic from a cut), so
/// per-key counting suppresses exactly the duplicates — no more, no less.
///
/// A barrier in flight opens a *cut window* (first engine piece at the
/// sink) holding next-epoch maps; deliveries from subtasks that already
/// deposited their piece are post-cut and land there. When the last piece
/// arrives the window commits — on the driver thread, immediately before
/// the checkpoint reply is sent, so no delivery can slip between the cut
/// and the epoch swap. A crash mid-window aborts it, folding the window's
/// deliveries back into `seen` (they are user-visible and post-*previous*-
/// cut, which is what recovery will replay from). Supervised pipelines
/// serialize barriers, so at most one window is ever open.
#[derive(Debug, Default)]
struct DeliveryLedger {
    seen: HashMap<LedgerKey, u64>,
    emitted: HashMap<LedgerKey, u64>,
    cutting: Option<CutWindow>,
}

/// A barrier mid-assembly: which enumeration subtasks the barrier already
/// passed, and the next epoch's ledger maps.
#[derive(Debug, Default)]
struct CutWindow {
    passed: std::collections::HashSet<usize>,
    seen: HashMap<LedgerKey, u64>,
    emitted: HashMap<LedgerKey, u64>,
}

impl DeliveryLedger {
    /// Accounts one emission by `subtask`; true when it must reach the
    /// user, false when it replays a delivery the user already saw.
    fn admit(&mut self, subtask: usize, key: LedgerKey) -> bool {
        let epoch = match &mut self.cutting {
            Some(cut) if cut.passed.contains(&subtask) => (&mut cut.seen, &mut cut.emitted),
            _ => (&mut self.seen, &mut self.emitted),
        };
        let emitted = epoch.1.entry(key).or_insert(0);
        *emitted += 1;
        let seen = epoch.0.entry(key).or_insert(0);
        if *emitted <= *seen {
            return false;
        }
        *seen += 1;
        true
    }

    /// Accounts a completed snapshot seal. Seals are never ambiguous: a
    /// pre-cut seal completes before the assembly does (every subtask's
    /// `Done` precedes its engine piece) and a post-cut seal completes
    /// after commit, so the current epoch is always the right one.
    fn admit_sealed(&mut self, time: u32) -> bool {
        let key = LedgerKey::Sealed(time);
        let emitted = self.emitted.entry(key).or_insert(0);
        *emitted += 1;
        let seen = self.seen.entry(key).or_insert(0);
        if *emitted <= *seen {
            return false;
        }
        *seen += 1;
        true
    }

    /// The barrier passed enumeration subtask `subtask` (its engine piece
    /// reached the sink): subsequent emissions from it are post-cut.
    fn subtask_passed(&mut self, subtask: usize) {
        self.cutting
            .get_or_insert_with(CutWindow::default)
            .passed
            .insert(subtask);
    }

    /// The checkpoint assembled: everything user-visible before the cut is
    /// inside it, so the window's maps become the whole ledger.
    fn commit_cut(&mut self) {
        let cut = self.cutting.take().unwrap_or_default();
        self.seen = cut.seen;
        self.emitted = cut.emitted;
    }

    /// A new generation restarts from the latest *committed* cut: its
    /// emission counters reset; the user-visible history — including an
    /// aborted window's, which is post-that-cut — stays to be replayed
    /// against.
    fn on_restart(&mut self) {
        if let Some(cut) = self.cutting.take() {
            for (key, n) in cut.seen {
                *self.seen.entry(key).or_insert(0) += n;
            }
        }
        self.emitted.clear();
    }
}

/// One spawned dataflow generation, as the supervisor sees it.
struct Generation {
    input: crossbeam::channel::Sender<InputMsg>,
    driver: JoinHandle<()>,
    failures: crossbeam::channel::Receiver<StageFailure>,
    /// Keeps the failure channel's send side open for the generation's
    /// lifetime so `failures.try_recv()` distinguishes "no report yet"
    /// from noise; workers hold clones only while alive.
    keepalive: crossbeam::channel::Sender<StageFailure>,
}

/// The self-healing wrapper around the dataflow (see
/// [`IcpePipeline::launch`] with [`Supervision`] configured): relays
/// producer input into the current generation, buffers records since the
/// latest cut, takes automatic checkpoints on the policy's record cadence,
/// and restarts crashed generations from the cut with bounded exponential
/// backoff until the restart budget runs out.
struct Supervisor {
    config: IcpeConfig,
    policy: Supervision,
    status: PipelineStatus,
    ledger: Arc<Mutex<DeliveryLedger>>,
    /// The user's event sink, shared across generations (each generation's
    /// driver funnels admitted deliveries through it).
    sink: EventSink,
    outer: crossbeam::channel::Receiver<InputMsg>,
    ckpt_seq: Arc<AtomicU64>,
    /// The latest fully assembled checkpoint — the recovery cut.
    latest: Option<PipelineCheckpoint>,
    /// The reply slot of a barrier that was in flight when its generation
    /// died. The sink commits the delivery ledger to the new cut
    /// immediately before replying, so if the reply made it out we must
    /// adopt that cut — recovering from the older one would replay
    /// deliveries the ledger no longer remembers suppressing.
    pending_cut: Option<crossbeam::channel::Receiver<PipelineCheckpoint>>,
    /// Every record relayed since that cut, in order: the replay source.
    buffer: Vec<GpsRecord>,
    restarts_used: u32,
    // Supervisor-owned cumulative totals. The registry's counters rewind to
    // the cut on every recovery, so these re-credit afterwards — restart
    // accounting must never be undone by the very recovery it counts.
    restarts_total: u64,
    recoveries_total: u64,
    recovery_nanos_total: u64,
    replayed_total: u64,
}

type EventSink = Arc<Mutex<Box<dyn FnMut(PipelineEvent) + Send>>>;

/// How long the supervisor waits on producer input before polling the
/// failure channel (failure-detection latency when the stream idles).
const SUPERVISOR_POLL: std::time::Duration = std::time::Duration::from_millis(20);

impl Supervisor {
    fn run(mut self, first: Generation) {
        let mut gen = Some(first);
        loop {
            let Some(g) = gen.as_ref() else {
                // Terminal `Failed`: swallow input so producers never hang;
                // dropping a barrier's reply sender fails its checkpoint()
                // call cleanly. Ends when every producer handle is gone.
                for msg in self.outer.iter() {
                    drop(msg);
                }
                return;
            };
            if let Ok(failure) = g.failures.try_recv() {
                let dead = gen.take().expect("generation present");
                gen = self.recover(dead, failure);
                continue;
            }
            match self.outer.recv_timeout(SUPERVISOR_POLL) {
                Ok(msg) => {
                    let g = gen.as_mut().expect("generation present");
                    if let Err(failure) = self.relay_into(g, msg) {
                        let dead = gen.take().expect("generation present");
                        gen = self.recover(dead, failure);
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    let last = gen.take().expect("generation present");
                    self.wind_down(last);
                    return;
                }
            }
        }
    }

    /// Forwards one producer message into the live generation, buffering
    /// data for replay and expanding barriers into supervised checkpoints.
    /// `Err` carries the stage failure that killed the generation.
    fn relay_into(&mut self, gen: &mut Generation, msg: InputMsg) -> Result<(), StageFailure> {
        match msg {
            InputMsg::Record(record) => {
                self.buffer.push(record);
                gen.input
                    .send(InputMsg::Record(record))
                    .map_err(|_| self.death_report(gen))?;
            }
            InputMsg::Batch(batch) => {
                self.buffer.extend_from_slice(&batch);
                gen.input
                    .send(InputMsg::Batch(batch))
                    .map_err(|_| self.death_report(gen))?;
            }
            InputMsg::Barrier(request) => {
                // The producer's own checkpoint doubles as the recovery
                // cut. On failure the request is dropped — its caller
                // unblocks with Disconnected — and recovery proceeds.
                let checkpoint = self.take_checkpoint(gen, request.seq)?;
                let _ = request.reply.send(checkpoint);
                return Ok(());
            }
        }
        if let Some(every) = self.policy.checkpoint_every_records {
            if self.buffer.len() as u64 >= every {
                let seq = self.ckpt_seq.fetch_add(1, Ordering::Relaxed) + 1;
                self.take_checkpoint(gen, seq)?;
            }
        }
        Ok(())
    }

    /// Injects a barrier and blocks for the assembled checkpoint; success
    /// advances the recovery cut and empties the replay buffer.
    fn take_checkpoint(
        &mut self,
        gen: &mut Generation,
        seq: u64,
    ) -> Result<PipelineCheckpoint, StageFailure> {
        let (reply, rx) = crossbeam::channel::bounded(1);
        if gen
            .input
            .send(InputMsg::Barrier(Arc::new(BarrierRequest { seq, reply })))
            .is_err()
        {
            self.pending_cut = Some(rx);
            return Err(self.death_report(gen));
        }
        // Polls rather than blocks: if a worker dies while the barrier is
        // in flight the cut can never assemble (the dead subtask's engine
        // piece is missing) while the rest of the generation idles waiting
        // for input that only this supervisor can provide — a deadlock
        // unless the failure report preempts the wait. On failure the rx
        // is parked in `pending_cut`; `respawn` re-checks it after the
        // driver is joined, when the reply is either there or never coming.
        loop {
            match rx.recv_timeout(SUPERVISOR_POLL) {
                Ok(checkpoint) => {
                    self.latest = Some(checkpoint.clone());
                    self.buffer.clear();
                    return Ok(checkpoint);
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    if let Ok(failure) = gen.failures.try_recv() {
                        self.pending_cut = Some(rx);
                        return Err(failure);
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    self.pending_cut = Some(rx);
                    return Err(self.death_report(gen));
                }
            }
        }
    }

    /// The failure report behind a dead ingest channel — gives the panic
    /// report a moment to arrive before synthesizing a generic one.
    fn death_report(&self, gen: &Generation) -> StageFailure {
        gen.failures
            .recv_timeout(std::time::Duration::from_millis(200))
            .unwrap_or_else(|_| StageFailure {
                stage: "pipeline".into(),
                subtask: 0,
                cause: "generation terminated unexpectedly".into(),
            })
    }

    /// Tears down a dead generation, then restarts from the latest cut.
    fn recover(&mut self, gen: Generation, failure: StageFailure) -> Option<Generation> {
        self.teardown(gen);
        self.respawn(failure)
    }

    /// Completes a generation's teardown: close its ingest, join its
    /// driver. A driver panic is the user's sink callback panicking —
    /// that is not a stage failure, and propagates out of `finish()` just
    /// as it does unsupervised.
    fn teardown(&self, gen: Generation) {
        let Generation { input, driver, .. } = gen;
        drop(input);
        if let Err(payload) = driver.join() {
            std::panic::resume_unwind(payload);
        }
    }

    /// The recovery loop: backoff, rewind the shared surfaces to the cut,
    /// relaunch, replay the buffer. Returns the healthy new generation, or
    /// `None` once the restart budget is spent (pipeline terminally
    /// [`HealthState::Failed`]).
    fn respawn(&mut self, failure: StageFailure) -> Option<Generation> {
        self.status.set_health(HealthState::Recovering);
        let started = Instant::now();
        self.status.obs.emit(ObsEventKind::StageFailed {
            stage: failure.stage.clone(),
            subtask: failure.subtask as u64,
        });
        eprintln!("icpe-core: {failure}; recovering from latest checkpoint");
        // The dying generation's driver is joined by now, so a barrier that
        // was in flight when it died has either delivered its checkpoint or
        // never will. If it delivered, the sink committed the ledger to
        // that cut right before replying — adopt it so the replay cut and
        // the ledger agree (the buffer holds nothing newer than the
        // barrier: the supervisor relays nothing while a cut is pending).
        if let Some(rx) = self.pending_cut.take() {
            if let Ok(checkpoint) = rx.try_recv() {
                self.latest = Some(checkpoint);
                self.buffer.clear();
            }
        }
        loop {
            if self.restarts_used >= self.policy.max_restarts {
                self.status.set_health(HealthState::Failed);
                self.status.obs.emit(ObsEventKind::PipelineFailed {
                    restarts: self.restarts_used as u64,
                });
                self.sync_supervisor_metrics();
                eprintln!(
                    "icpe-core: restart budget exhausted after {} attempts; pipeline failed",
                    self.restarts_used
                );
                return None;
            }
            self.restarts_used += 1;
            self.restarts_total += 1;
            let attempt = self.restarts_used;
            self.status.obs.emit(ObsEventKind::PipelineRecovering {
                restart: attempt as u64,
            });
            std::thread::sleep(self.backoff_for(attempt));
            let resume = match &self.latest {
                Some(ckpt) => match ResumeState::from_checkpoint(&self.config, ckpt) {
                    Ok(resume) => resume,
                    // Unreachable for a checkpoint this supervisor
                    // assembled (validated by construction); a fresh
                    // restart is the only remaining move.
                    Err(e) => {
                        eprintln!("icpe-core: latest checkpoint unusable ({e}); restarting fresh");
                        ResumeState::fresh(&self.config)
                    }
                },
                None => ResumeState::fresh(&self.config),
            };
            self.status.reset_to(&resume.obs, resume.max_sealed);
            self.ledger
                .lock()
                .expect("delivery ledger poisoned")
                .on_restart();
            self.sync_supervisor_metrics();
            let gen = self.spawn_generation(resume);
            let batch = self.config.runtime.batch_size.max(1);
            let mut replayed = 0u64;
            let mut died_mid_replay = false;
            for chunk in self.buffer.chunks(batch) {
                if gen.input.send(InputMsg::Batch(chunk.to_vec())).is_err() {
                    died_mid_replay = true;
                    break;
                }
                replayed += chunk.len() as u64;
            }
            if died_mid_replay {
                self.teardown(gen);
                continue;
            }
            self.recoveries_total += 1;
            self.recovery_nanos_total += started.elapsed().as_nanos() as u64;
            self.replayed_total += replayed;
            self.status.obs.emit(ObsEventKind::PipelineRecovered {
                restart: attempt as u64,
                replayed,
            });
            self.sync_supervisor_metrics();
            self.status
                .set_health(if self.restarts_used * 2 > self.policy.max_restarts {
                    HealthState::Degraded
                } else {
                    HealthState::Healthy
                });
            return Some(gen);
        }
    }

    fn backoff_for(&self, attempt: u32) -> std::time::Duration {
        let doubled = self
            .policy
            .backoff
            .checked_mul(1u32 << (attempt - 1).min(16))
            .unwrap_or(self.policy.max_backoff);
        doubled.min(self.policy.max_backoff)
    }

    /// Every producer handle dropped: flush the final generation (engines
    /// emit their end-of-stream patterns through the ledgered sink) and
    /// heal failures that strike *during* that flush, so `finish()` still
    /// returns the complete output.
    fn wind_down(&mut self, gen: Generation) {
        let mut gen = gen;
        loop {
            let Generation {
                input,
                driver,
                failures,
                keepalive,
            } = gen;
            drop(input);
            if let Err(payload) = driver.join() {
                std::panic::resume_unwind(payload);
            }
            drop(keepalive);
            match failures.try_recv() {
                Ok(failure) => match self.respawn(failure) {
                    Some(next) => gen = next,
                    None => return,
                },
                Err(_) => return,
            }
        }
    }

    /// Re-credits the supervisor's own cumulative counters after a registry
    /// rewind (counters named per the `seconds_total`-holds-nanos registry
    /// convention), and refreshes the mean-recovery gauge.
    fn sync_supervisor_metrics(&self) {
        let top_up = |name: &str, total: u64| {
            let c = self.status.obs.counter("supervisor", 0, name);
            c.add(total.saturating_sub(c.get()));
        };
        top_up("pipeline_restarts_total", self.restarts_total);
        top_up("pipeline_recoveries_total", self.recoveries_total);
        top_up("recovery_seconds_total", self.recovery_nanos_total);
        top_up("replayed_records_total", self.replayed_total);
        let mean_ms = self
            .recovery_nanos_total
            .checked_div(self.recoveries_total)
            .unwrap_or(0)
            / 1_000_000;
        self.status
            .obs
            .gauge("supervisor", 0, "mean_recovery_ms")
            .set(mean_ms);
    }

    fn spawn_generation(&self, resume: ResumeState) -> Generation {
        let (failure_tx, failure_rx) = crossbeam::channel::bounded(64);
        let sink = Arc::clone(&self.sink);
        let on_event = move |event: PipelineEvent| {
            (sink.lock().expect("event sink poisoned"))(event);
        };
        let (input, driver) = launch_generation(
            &self.config,
            resume,
            &self.status,
            Some(failure_tx.clone()),
            Some(Arc::clone(&self.ledger)),
            on_event,
        );
        Generation {
            input,
            driver,
            failures: failure_rx,
            keepalive: failure_tx,
        }
    }
}

// ---- restore plumbing ------------------------------------------------------

/// Everything a (re)started dataflow begins from. For a fresh launch this
/// is empty state; for a restore it is fully validated before any thread
/// spawns, so a bad checkpoint fails the launch instead of panicking a
/// subtask later.
struct ResumeState {
    /// The checkpoint's merged aligner section (`None` on a fresh launch):
    /// the sharded head rebuilds its router (chains + counters) and
    /// owner-filters the buffered rows onto the restored deployment's
    /// aligner shards from this — possibly at a different shard count than
    /// the one that wrote it. Also the source of the restored late-drop
    /// count.
    aligner_ckpt: Option<AlignerCheckpoint>,
    /// One pre-built engine per enumeration subtask.
    engines: Vec<FbaEngine>,
    /// The adaptive-routing controller (`None` under static routing),
    /// pre-seeded from the checkpoint's routing section on restore.
    balancer: Option<LoadBalancer>,
    /// The cut's windows sealed and pairs merged (zero on a fresh launch).
    progress: ProgressCheckpoint,
    /// The last window sealed before the cut, from the aligner section.
    max_sealed: Option<u32>,
    /// The checkpoint's cumulative stage/exchange counters (empty on a
    /// fresh launch); rehydrated into the new deployment's
    /// [`MetricRegistry`] before any stage thread spawns.
    obs: ObsCheckpoint,
    records_ingested: u64,
    next_seq: u64,
}

impl ResumeState {
    fn fresh(config: &IcpeConfig) -> ResumeState {
        let engine_config = config.engine_config();
        ResumeState {
            aligner_ckpt: None,
            engines: (0..config.parallelism)
                .map(|_| FbaEngine::new(engine_config))
                .collect(),
            balancer: config
                .rebalance
                .map(|bc| LoadBalancer::new(bc, config.parallelism)),
            progress: ProgressCheckpoint::default(),
            max_sealed: None,
            obs: ObsCheckpoint::default(),
            records_ingested: 0,
            next_seq: 1,
        }
    }

    fn from_checkpoint(
        config: &IcpeConfig,
        ckpt: &PipelineCheckpoint,
    ) -> Result<ResumeState, CheckpointError> {
        ckpt.check_version()?;
        let max_sealed = ckpt.max_sealed()?;
        let n = config.parallelism;
        let engine_config = config.engine_config();
        let engines = (0..n)
            .map(|i| {
                // The same owner→subtask mapping the keyed exchange uses,
                // so each subtask loads exactly the owners routed to it.
                FbaEngine::from_checkpoint(engine_config, &ckpt.engine, |owner| {
                    subtask_for(hash_id(owner), n) == i
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Resume the learned cell placement when both the checkpoint
        // carries one and the configuration still wants adaptive routing;
        // a static restore of an adaptive checkpoint simply ignores it
        // (the table is a performance hint, never correctness state).
        let balancer = config.rebalance.map(|bc| {
            let mut balancer = match &ckpt.routing {
                Some(routing) => LoadBalancer::from_checkpoint(bc, n, routing),
                None => LoadBalancer::new(bc, n),
            };
            // The cut's buffered rows belong to windows the restored router
            // has yet to seal: they count as if they had just arrived.
            let (grid, eps) = (Grid::new(config.lg), config.dbscan.eps);
            for snapshot in &ckpt.aligner.buffers {
                for entry in &snapshot.entries {
                    balancer.count(snapshot.time.0, entry.location, &grid, eps);
                }
            }
            balancer
        });
        Ok(ResumeState {
            aligner_ckpt: Some(ckpt.aligner.clone()),
            engines,
            balancer,
            progress: ckpt.progress.clone(),
            max_sealed,
            obs: ckpt.obs.clone(),
            records_ingested: ckpt.records_ingested,
            next_seq: ckpt.seq + 1,
        })
    }
}

/// Driver-thread body of a launched pipeline: builds the dataflow with a
/// channel source, drops `built` once every operator exists, and drains the
/// dataflow into the event callback.
#[allow(clippy::too_many_arguments)]
fn drive(
    config: IcpeConfig,
    records: crossbeam::channel::Receiver<InputMsg>,
    mut resume: ResumeState,
    status: PipelineStatus,
    failures: Option<crossbeam::channel::Sender<StageFailure>>,
    ledger: Option<Arc<Mutex<DeliveryLedger>>>,
    built: crossbeam::channel::Sender<()>,
    mut on_event: impl FnMut(PipelineEvent) + Send + 'static,
) {
    let n = config.parallelism;
    // The sink's gauges; completion stamps and latency samples are
    // wall-clock history, not state at the cut.
    let gauges = &status.gauges;
    let mut completed = resume.progress.windows_sealed;
    gauges.windows_completed.set(completed);
    gauges.completed_up_to.set(up_to(resume.max_sealed));
    let engine_cells: Vec<Mutex<Option<FbaEngine>>> = std::mem::take(&mut resume.engines)
        .into_iter()
        .map(|e| Mutex::new(Some(e)))
        .collect();

    // Every hop whose messages carry a vector of rows says so (`weigh`):
    // its batches then fill by rows, and `channel_capacity` bounds what is
    // in flight in records rather than in messages of whatever size.
    let mut source = Stream::from_channel(config.runtime.clone(), records).weigh(|msg| match msg {
        InputMsg::Batch(records) => records.len(),
        InputMsg::Record(_) | InputMsg::Barrier(_) => 1,
    });
    if let Some(reports) = failures {
        // Every stage declared below runs panic-isolated: a dying subtask
        // reports a typed StageFailure to the supervisor instead of
        // poisoning the process, and the teardown cascade quiesces the
        // survivors.
        source = source.supervise(reports);
    }
    if config.instrument {
        // Every stage declared below records per-batch latency and
        // record counts; every exchange hop records queue depth and
        // blocked-send time. With `instrument` off the stages carry no
        // observation state at all — the bench's no-op baseline.
        source = source.instrument(&status.obs);
    }
    let partitions = cluster_stages(source, &config, &status, resume);
    let outputs = partitions.apply(
        "enumerate",
        n,
        Exchange::envelope(|(_, partition): &(u32, Partition)| {
            Routing::Key(hash_id(partition.owner))
        }),
        move |i| EnumerateOp {
            subtask: i,
            engine: engine_cells[i]
                .lock()
                .expect("engine cell poisoned")
                .take()
                .expect("each enumerate subtask starts once"),
            pending: Vec::new(),
            pending_time: 0,
            found: PatternBatch::new(),
        },
    );
    let outputs = outputs.weigh(|msg| match msg {
        OutMsg::Patterns { batch, .. } => batch.len(),
        OutMsg::Done(_) | OutMsg::Checkpoint { .. } => 1,
    });
    drop(built);

    let obs = &status.obs;
    let mut done: WindowAlign<()> = WindowAlign::new(n);
    // In-flight checkpoint assemblies: seq → collected engine pieces.
    let mut pending_ckpts: HashMap<u64, (Arc<BarrierToken>, Vec<EngineCheckpoint>)> =
        HashMap::new();
    outputs.for_each(|msg| match msg {
        OutMsg::Patterns { subtask, batch } => {
            // The one place a pattern becomes an owned `Pattern`: built,
            // delivered and freed on this thread.
            for pattern in batch.iter().map(|p| p.to_pattern()) {
                // Under supervision the ledger suppresses re-deliveries of
                // patterns the crashed generation already surfaced post-cut.
                let admit = match &ledger {
                    Some(ledger) => ledger
                        .lock()
                        .expect("delivery ledger poisoned")
                        .admit(subtask, LedgerKey::Pattern(stable_hash(&pattern))),
                    None => true,
                };
                if admit {
                    on_event(PipelineEvent::Pattern(pattern));
                }
            }
        }
        OutMsg::Done(t) => {
            if done.tick(t).is_some() {
                // Progress accounting always runs — the sink resumed at
                // the cut, and replayed seals re-earn their place in it.
                // Only the *user-facing* sealed notification is
                // exactly-once.
                completed += 1;
                gauges.windows_completed.set(completed);
                gauges.completed_up_to.set(up_to(Some(t)));
                if let Some(latency) = status.clock.stop(t) {
                    gauges.latency.record(latency);
                }
                let now = status.clock.stamp();
                if gauges.first_completion.get() == 0 {
                    gauges.first_completion.set(now);
                }
                gauges.last_completion.set(now);
                obs.emit(ObsEventKind::WindowSealed { time: t });
                let admit = match &ledger {
                    Some(ledger) => ledger
                        .lock()
                        .expect("delivery ledger poisoned")
                        .admit_sealed(t),
                    None => true,
                };
                if admit {
                    on_event(PipelineEvent::SnapshotSealed { time: t });
                }
            }
        }
        OutMsg::Checkpoint {
            subtask,
            token,
            engine,
        } => {
            if let Some(ledger) = &ledger {
                ledger
                    .lock()
                    .expect("delivery ledger poisoned")
                    .subtask_passed(subtask);
            }
            let entry = pending_ckpts
                .entry(token.request.seq)
                .or_insert_with(|| (Arc::clone(&token), Vec::new()));
            entry.1.push(engine);
            if entry.1.len() == n {
                let (token, pieces) = pending_ckpts.remove(&token.request.seq).unwrap();
                let engine = EngineCheckpoint::merge(pieces);
                // By the time the last engine piece arrives here, the
                // barrier has aligned through the sync-merge finalizer (its
                // channel sends happen-before the enumeration pieces'), so
                // the token holds its pair count. Same happens-before
                // argument for the aligner shards: each
                // deposits its buffer-only piece before forwarding the
                // barrier to grid-query. The router's piece
                // (chains + counters) plus the shard pieces merge into one
                // canonical, shard-count-independent aligner section.
                let mut aligner_pieces = vec![token.aligner.clone()];
                aligner_pieces.append(
                    &mut token
                        .aligner_shards
                        .lock()
                        .expect("aligner shard slot poisoned"),
                );
                let aligner = AlignerCheckpoint::merge(aligner_pieces);
                let checkpoint = PipelineCheckpoint {
                    version: CHECKPOINT_VERSION,
                    seq: token.request.seq,
                    records_ingested: token.records_ingested,
                    // Every pre-cut window's `Done` precedes its subtask's
                    // engine piece and every post-cut one follows it, so
                    // the sink has completed exactly the cut's windows.
                    progress: ProgressCheckpoint {
                        windows_sealed: completed,
                        pairs_merged: token.pairs_merged.load(Ordering::Relaxed),
                    },
                    aligner,
                    engine,
                    // Taken by the router with its piece; `None` under
                    // static routing.
                    routing: token.routing.clone(),
                    // The registry's cumulative counters at (just after)
                    // the cut — a restored deployment's METRICS totals
                    // continue from here.
                    obs: obs.counter_checkpoint(),
                };
                obs.emit(ObsEventKind::BarrierPassed {
                    checkpoint_seq: token.request.seq,
                });
                // The cut commits on this thread, immediately before the
                // reply: once the supervisor receives the checkpoint, the
                // ledger provably holds only post-cut deliveries (nothing
                // is delivered between these two statements).
                if let Some(ledger) = &ledger {
                    ledger
                        .lock()
                        .expect("delivery ledger poisoned")
                        .commit_cut();
                }
                // The requester may have given up (timeout/shutdown);
                // nothing to do then.
                let _ = token.request.reply.send(checkpoint);
            }
        }
    });
}

/// Builds the clustering dataflow — alignment head included — producing
/// the keyed partition stream consumed by enumeration: frontier router →
/// aligner shards with fused GridAllocate and the keyed split → GridQuery
/// → sync-merge tree with DBSCAN.
fn cluster_stages(
    source: Stream<InputMsg>,
    config: &IcpeConfig,
    status: &PipelineStatus,
    resume: ResumeState,
) -> Stream<PartMsg> {
    let n = config.parallelism;
    let m = config.constraints.m();
    let dbscan = config.dbscan;
    let metric = config.metric;
    let lg = config.lg;
    let eps = dbscan.eps;
    let shards = config.align_shards;
    let ResumeState {
        aligner_ckpt,
        balancer,
        progress,
        max_sealed,
        records_ingested,
        ..
    } = resume;
    // The frontier router: the one serial subtask, owning the chains
    // (partitioned by shard), the global seal frontier and — in adaptive
    // mode — the balancer. On restore it rebuilds from the checkpoint's
    // canonical aligner section — at this deployment's shard count, which
    // may differ from the one that wrote it.
    let router = match &aligner_ckpt {
        Some(ckpt) => ShardedAligner::from_checkpoint(config.aligner, shards, ckpt),
        None => ShardedAligner::new(config.aligner, shards),
    };
    status.gauges.aligned_up_to.set(up_to(max_sealed));
    let route = AlignRouteOp::new(router, status.clone(), records_ingested, balancer, config);
    let routed = source.single("align-route", Exchange::Rebalance, route);
    let routed = routed.weigh(|msg| {
        msg.rows(|data| match data {
            RouteData::Records { records, .. } => records.len(),
            RouteData::Seal { .. } => 1,
        })
    });
    // S aligner shards, keyed by trajectory: each buffers the rows of its
    // trajectories and — at the router's Seal punctuation — runs
    // GridAllocate over them and sends each grid-query subtask its share.
    let grid_batches = routed.apply(
        "align-shard",
        shards,
        Exchange::envelope(|msg: &RouteData| match msg {
            RouteData::Records { shard, .. } => Routing::Key(*shard as u64),
            RouteData::Seal { .. } => Routing::Broadcast,
        }),
        move |i| {
            let mut buffers = BTreeMap::new();
            if let Some(ckpt) = aligner_ckpt.as_ref() {
                // The same owner→shard mapping the exchange routes by, so
                // each shard reloads exactly the buffered rows it will
                // keep receiving.
                let piece = ckpt.piece(false, |owner| subtask_for(hash_id(owner), shards) == i);
                for snapshot in piece.buffers {
                    buffers.insert(snapshot.time.0, snapshot);
                }
            }
            AlignShardOp::new(i, Grid::new(lg), eps, buffers, n)
        },
    );
    let grid_batches = grid_batches.weigh(|msg| msg.rows(|batch| batch.objects.len()));
    // Each batch goes to the subtask it names; grid-query aligns over S.
    let tracker = Arc::clone(&status.tracker);
    let partials = grid_batches.apply(
        "grid-query",
        n,
        Exchange::envelope(|batch: &GridBatch| Routing::Key(batch.dest as u64)),
        move |subtask| QueryOp {
            subtask,
            tracker: Arc::clone(&tracker),
            engine: CellQueryEngine::new(eps, metric),
            align: WindowAlign::new(shards),
            loads: Vec::new(),
            pairs: Vec::new(),
        },
    );
    let partials = partials.weigh(|msg| msg.rows(|(_, partial)| partial.pairs.len()));
    // The finalizer resumes the cut's counters.
    let gauges = &status.gauges;
    gauges.pairs_merged.set(progress.pairs_merged);
    gauges.windows_sealed.set(progress.windows_sealed);
    let gauges = gauges.clone();
    // Each pair is found in exactly one cell, so the grid-query subtasks'
    // window shares are disjoint and reduce through the aggregation tree
    // as they are, down to the one finalizer that runs DBSCAN and seals the
    // window.
    partials.reduce_tree(
        "sync-merge",
        n,
        config.sync_fanin,
        |slot| TreeCombiner::new(slot.inputs),
        move |inputs| MergeFinalOp {
            m,
            dbscan,
            pairs_merged: progress.pairs_merged,
            windows_sealed: progress.windows_sealed,
            gauges,
            align: WindowAlign::new(inputs),
        },
    )
}

// ---- messages --------------------------------------------------------------

/// The barrier as every hop after the frontier router carries it.
type Token = Arc<BarrierToken>;

/// Frontier router → aligner shards. The router flushes every record
/// bucket before emitting a `Seal`, so on each shard channel the rows of a
/// time always precede the punctuation listing it. The barrier carries the
/// router's piece; width-1 upstream, so shards forward it without
/// alignment counting.
type RouteMsg = Envelope<RouteData, Token>;

#[derive(Debug, Clone)]
enum RouteData {
    /// Kept records of one shard's trajectories, arrival order preserved;
    /// keyed by the owning shard.
    Records { shard: u32, records: Vec<GpsRecord> },
    /// These times sealed (ascending): flush their buffered rows through
    /// GridAllocate, split the objects by `table` (`None`: static hash
    /// placement), and tick grid-query. Broadcast — one message per router
    /// batch however many times it sealed.
    Seal {
        times: Vec<u32>,
        table: Option<Arc<RoutingTable>>,
    },
}

/// Aligner shards → GridQuery: one shard's grid objects of window `time`
/// that route to grid-query subtask `dest`. Shards own disjoint
/// trajectories, so a subtask's window is the concatenation of its
/// batches — and the range join is provably object-order-invariant.
#[derive(Debug, Clone)]
struct GridBatch {
    time: u32,
    dest: u32,
    objects: Vec<GridObject>,
}

type GridMsg = Envelope<GridBatch, Token>;

/// GridQuery → aggregation tree → finalizer: one producer's share of a
/// window's pairs.
type MergeMsg = Envelope<(u32, MergeAcc), Token>;

/// A window's merged pairs plus the (sorted, deduplicated) object ids they
/// mention — carried alongside so object-set union happens in the tree
/// instead of as one big serial sort at the root.
#[derive(Debug, Clone, Default)]
struct MergeAcc {
    pairs: Vec<NeighborPair>,
    objects: Vec<ObjectId>,
}

impl Partial for MergeAcc {
    fn absorb(&mut self, other: MergeAcc) {
        // Each pair is found in exactly one cell, so producers hold disjoint
        // pair sets and concatenation is exact; the object lists can
        // overlap across producers and merge sorted.
        self.pairs.absorb(other.pairs);
        self.objects = merge_sorted_ids(std::mem::take(&mut self.objects), other.objects);
    }
}

/// Merges two ascending, deduplicated id lists into one (the tree's
/// object-set union; linear, allocation-exact).
fn merge_sorted_ids(a: Vec<ObjectId>, b: Vec<ObjectId>) -> Vec<ObjectId> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    // Take the smaller head; an id on both sides advances both (dedup).
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sync-merge/DBSCAN → Enumerate: one id-partition of window `time`, keyed
/// by its owner.
type PartMsg = Envelope<(u32, Partition), Token>;

/// Enumerate → Sink. Pattern and checkpoint messages carry the emitting
/// subtask so the sink's delivery ledger can classify emissions against an
/// in-flight barrier (FIFO per subtask: everything after a subtask's
/// engine piece is post-cut).
#[derive(Debug, Clone)]
enum OutMsg {
    /// Everything one subtask found at one tick (or at end of stream);
    /// never empty.
    Patterns {
        subtask: usize,
        batch: PatternBatch,
    },
    Done(u32),
    /// One subtask's engine state at the barrier.
    Checkpoint {
        subtask: usize,
        token: Token,
        engine: EngineCheckpoint,
    },
}

// ---- operators -------------------------------------------------------------

/// The frontier router of the sharded head: the one serial subtask. Owns
/// the §4 chains, partitioned by destination shard, and the global seal
/// frontier (a record is late iff its time is below the min over every
/// shard's frontier — a per-shard decision would drop records the serial
/// aligner keeps, or keep records it drops). Per record it does a hash,
/// a chain advance, and a bucket push; the buffering, allocate, and
/// flush work all live on the shards. Also the window boundary (clock
/// start, routing table) and the checkpoint cut: the authoritative record
/// count, the router's chains + counters piece and the balancer.
struct AlignRouteOp {
    router: ShardedAligner,
    /// The journal, window clock, load tracker and the router's gauges.
    status: PipelineStatus,
    /// The late-drop count the journal has reported so far.
    reported_late: u64,
    records_ingested: u64,
    /// Per-shard outgoing record buckets of the batch being processed.
    buckets: Vec<Vec<GpsRecord>>,
    /// Times sealed by the batch being processed, ascending.
    sealed: Vec<u32>,
    /// `Some` in adaptive mode: the balancer, which counts every kept
    /// record's grid objects (on `grid`, at `eps`) and places each window
    /// as it seals, and its current placement as the table windows are
    /// split by (rebuilt once per plan).
    adaptive: Option<(LoadBalancer, Arc<RoutingTable>)>,
    grid: Grid,
    eps: f64,
}

impl AlignRouteOp {
    /// The router's operator; publishes its (possibly restored) gauges.
    fn new(
        router: ShardedAligner,
        status: PipelineStatus,
        records_ingested: u64,
        balancer: Option<LoadBalancer>,
        config: &IcpeConfig,
    ) -> AlignRouteOp {
        let adaptive = balancer.map(|b| {
            let table = RoutingTable::new(b.epoch(), b.table_assignments());
            (b, Arc::new(table))
        });
        let op = AlignRouteOp {
            reported_late: router.late_dropped_total(),
            buckets: vec![Vec::new(); router.shards()],
            router,
            status,
            records_ingested,
            sealed: Vec::new(),
            adaptive,
            grid: Grid::new(config.lg),
            eps: config.dbscan.eps,
        };
        op.publish(true);
        op
    }

    /// Window-boundary rebalancing, once per `Seal`: the balancer places
    /// the sealed windows on their exact per-cell counts and the pair
    /// feedback of every window grid-query has finished since; a plan
    /// becomes the next epoch's table. Returns the table the `Seal`
    /// carries (`None` under static routing).
    fn rebalance(&mut self, times: &[u32]) -> Option<Arc<RoutingTable>> {
        let (balancer, table) = self.adaptive.as_mut()?;
        if let Some(plan) = balancer.place(times, self.status.tracker.drain_cells()) {
            self.status.obs.emit(ObsEventKind::CellMigrated {
                epoch: plan.epoch,
                cells: plan.migrated,
            });
            *table = Arc::new(RoutingTable::new(plan.epoch, plan.assignments));
        }
        Some(Arc::clone(table))
    }

    /// Publishes the head's gauges — the per-shard frontier spread, O(shards)
    /// index lookups, and the routing gauges only when times `sealed`.
    fn publish(&self, sealed: bool) {
        let (g, router) = (&self.status.gauges, &self.router);
        let (chains, max_shard_chains) = router.chain_counts();
        g.chains.set(chains);
        g.max_shard_chains.set(max_shard_chains);
        g.late_dropped.set(router.late_dropped_total());
        g.duplicates.set(router.duplicates());
        g.sealed_up_to
            .set(router.sealed_up_to().unwrap_or(0) as u64);
        if sealed {
            let (min, max) = router.frontier_range();
            g.min_shard_frontier.set(min as u64);
            g.max_shard_frontier.set(max as u64);
            let (epoch, mapped, migrated) = self.adaptive.as_ref().map_or((0, 0, 0), |(b, t)| {
                (t.epoch(), t.mapped_keys() as u64, b.cells_migrated())
            });
            g.routing_epoch.set(epoch);
            g.cells_mapped.set(mapped);
            g.cells_migrated.set(migrated);
        }
    }

    fn ingest_one(&mut self, record: GpsRecord) {
        self.records_ingested += 1;
        match self.router.route(&record) {
            Routed::Keep { shard } => {
                if let Some((balancer, _)) = &mut self.adaptive {
                    balancer.count(record.time.0, record.location, &self.grid, self.eps);
                }
                self.buckets[shard].push(record);
                // Drain after every kept record, exactly as the serial
                // aligner drains per push: drain frequency decides when
                // lagging chains retire, and retirement timing is part of
                // the seal semantics the equivalence tests pin.
                self.router.drain_sealed(&mut self.sealed);
            }
            Routed::Late { .. } | Routed::Duplicate => {}
        }
    }

    /// Emits the batch's record buckets, then its seal punctuation —
    /// in that order, so a row can never chase its own seal. (A record
    /// of time `t` arriving after `t` sealed within the same batch is
    /// impossible: the router classifies it late the moment `t` seals.)
    fn flush_batch(&mut self, out: &mut Collector<RouteMsg>) {
        for (shard, bucket) in self.buckets.iter_mut().enumerate() {
            if !bucket.is_empty() {
                // The next ingest batch fills this bucket about as full:
                // size its replacement once instead of regrowing it.
                let next = Vec::with_capacity(bucket.len());
                out.emit(Envelope::Data(RouteData::Records {
                    shard: shard as u32,
                    records: std::mem::replace(bucket, next),
                }));
            }
        }
        let times = std::mem::take(&mut self.sealed);
        self.emit_seal(times, out);
    }

    /// Emits the seal punctuation for `times` (if any) — the windows'
    /// boundary: their clocks start and their table is chosen here —
    /// journals the batch's late drops and republishes the head gauges.
    fn emit_seal(&mut self, times: Vec<u32>, out: &mut Collector<RouteMsg>) {
        let sealed = !times.is_empty();
        if sealed {
            let table = self.rebalance(&times);
            for &t in &times {
                self.status.clock.start(t);
            }
            let last = times.last().copied();
            self.status.gauges.aligned_up_to.set(up_to(last));
            out.emit(Envelope::Data(RouteData::Seal { times, table }));
        }
        let total = self.router.late_dropped_total();
        if total > self.reported_late {
            self.status.obs.emit(ObsEventKind::LateBatchDropped {
                records: total - self.reported_late,
            });
            self.reported_late = total;
        }
        self.publish(sealed);
    }
}

impl Operator<InputMsg, RouteMsg> for AlignRouteOp {
    fn process(&mut self, input: InputMsg, out: &mut Collector<RouteMsg>) {
        match input {
            InputMsg::Record(record) => {
                self.ingest_one(record);
                self.flush_batch(out);
            }
            InputMsg::Batch(records) => {
                for record in records {
                    self.ingest_one(record);
                }
                self.flush_batch(out);
            }
            InputMsg::Barrier(request) => {
                // Buckets and seals of earlier messages are already
                // flushed, so everything sealed before the cut precedes
                // the token on every shard channel.
                out.emit(Envelope::Barrier(Arc::new(BarrierToken {
                    request,
                    aligner: self.router.checkpoint(),
                    records_ingested: self.records_ingested,
                    aligner_shards: Mutex::new(Vec::new()),
                    routing: self.adaptive.as_ref().map(|(b, _)| b.checkpoint()),
                    pairs_merged: AtomicU64::new(0),
                })));
            }
        }
    }

    fn finish(&mut self, out: &mut Collector<RouteMsg>) {
        // End of stream: seal everything still buffered (plus the gap
        // times an emit-empty aligner owes), mirroring the serial flush.
        let times = self.router.flush_times();
        self.emit_seal(times, out);
    }
}

/// One aligner shard with GridAllocate fused in: buffers the rows of its
/// trajectories per snapshot time, and at the router's `Seal` punctuation
/// flushes each listed time through cell assignment (Algorithm 1 with the
/// Lemma-1 upper-half replication — a per-record stateless map, so fusing
/// it here costs the shard nothing extra and removes a serial stage),
/// splits the grid objects by the Seal's routing table and sends each
/// grid-query subtask its share. At a barrier it deposits its unsealed
/// rows as a buffer-only checkpoint piece — the only state it holds.
struct AlignShardOp {
    shard: usize,
    grid: Grid,
    eps: f64,
    /// Buffered rows of this shard's trajectories, keyed by snapshot time.
    buffers: BTreeMap<u32, Snapshot>,
    /// A sealed window's grid objects, reused across windows.
    objects: Vec<GridObject>,
    /// The window's objects per grid-query subtask.
    parts: Vec<Vec<GridObject>>,
}

impl AlignShardOp {
    /// Shard `shard` holding `buffers`, splitting for `n` grid-query
    /// subtasks.
    fn new(shard: usize, grid: Grid, eps: f64, buffers: BTreeMap<u32, Snapshot>, n: usize) -> Self {
        let (objects, parts) = (Vec::new(), vec![Vec::new(); n]);
        AlignShardOp {
            shard,
            grid,
            eps,
            buffers,
            objects,
            parts,
        }
    }

    /// Flushes sealed time `t`: this shard's rows through GridAllocate,
    /// one batch per grid-query subtask they route to under `table` (hash
    /// placement without one), then the tick. Every shard ticks every
    /// sealed time — empty-handed shards included — so grid-query's
    /// alignment count is exact and empty windows still seal downstream.
    fn seal(&mut self, t: u32, table: Option<&RoutingTable>, out: &mut Collector<GridMsg>) {
        if let Some(snapshot) = self.buffers.remove(&t) {
            grid_allocate_into(&snapshot, &self.grid, self.eps, &mut self.objects);
            let n = self.parts.len();
            for o in self.objects.drain(..) {
                let h = stable_hash(&o.key);
                let dest = table.map_or_else(|| subtask_for(h, n), |table| table.subtask(h, n));
                self.parts[dest].push(o);
            }
            for (dest, part) in self.parts.iter_mut().enumerate() {
                if !part.is_empty() {
                    // The next window sends about as many here: size the
                    // replacement once instead of regrowing it.
                    let next = Vec::with_capacity(part.len());
                    out.emit(Envelope::Data(GridBatch {
                        time: t,
                        dest: dest as u32,
                        objects: std::mem::replace(part, next),
                    }));
                }
            }
        }
        out.emit(Envelope::Tick(t));
    }
}

impl Operator<RouteMsg, GridMsg> for AlignShardOp {
    fn process(&mut self, msg: RouteMsg, out: &mut Collector<GridMsg>) {
        match msg {
            Envelope::Data(RouteData::Records { shard, records }) => {
                debug_assert_eq!(
                    shard as usize, self.shard,
                    "records routed to their trajectory's shard"
                );
                for r in records {
                    self.buffers
                        .entry(r.time.0)
                        .or_insert_with(|| Snapshot::new(r.time))
                        .push(r.id, r.location, r.last_time);
                }
            }
            Envelope::Data(RouteData::Seal { times, table }) => {
                for t in times {
                    self.seal(t, table.as_deref(), out);
                }
            }
            Envelope::Tick(_) => unreachable!("the router seals with Seal punctuation only"),
            Envelope::Barrier(token) => {
                // The rows still buffered here are exactly the cut's
                // unsealed rows of this shard's trajectories; chains,
                // counters, and clock fields travel in the router's piece.
                token
                    .aligner_shards
                    .lock()
                    .expect("aligner shard slot poisoned")
                    .push(AlignerCheckpoint {
                        buffers: self.buffers.values().cloned().collect(),
                        ..AlignerCheckpoint::empty()
                    });
                out.emit(Envelope::Barrier(token));
            }
        }
    }
}

/// GridQuery (Algorithm 2) as a keyed operator: one subtask owns many cells;
/// each window's batches from the `S` aligner shards collect until the
/// `S`-th tick, then run cell by cell through [`query_cells`]. Each flush
/// reports the subtask's window load to the shared [`LoadTracker`] — with
/// its per-cell loads, in key order, when a balancer repartitions on them —
/// and hands the window's pairs, with the object ids they mention, to the
/// sync-merge tree.
struct QueryOp {
    subtask: usize,
    tracker: Arc<LoadTracker>,
    engine: CellQueryEngine,
    /// The open windows' objects: the first batch kept by move, the rest
    /// appended.
    align: WindowAlign<Vec<GridObject>>,
    /// The window's per-cell loads, reused across ticks; stays empty
    /// unless the tracker keeps per-cell loads.
    loads: Vec<(GridKey, CellLoad)>,
    /// The window's pairs, reused across ticks: it ships as an exact-size
    /// copy, so this buffer stops growing after the first ticks.
    pairs: Vec<NeighborPair>,
}

impl QueryOp {
    fn flush_time(&mut self, t: u32, mut objects: Vec<GridObject>, out: &mut Collector<MergeMsg>) {
        self.pairs.clear();
        self.loads.clear();
        let per_cell = self.tracker.per_cell();
        query_cells(
            &mut self.engine,
            &mut objects,
            &mut self.pairs,
            |cell, load| {
                if per_cell {
                    self.loads.push((cell, load));
                }
            },
        );
        // Each object sits in one cell and each pair is found in one.
        let load = (objects.len() + self.pairs.len()) as u64;
        self.tracker
            .record_window(t, self.subtask, load, &self.loads);
        if !self.pairs.is_empty() {
            // The object-id union of this subtask's pairs, computed here (in
            // parallel across subtasks) so the finalizer only merges sorted
            // lists instead of sorting the whole window's ids serially.
            let mut objects: Vec<ObjectId> = self.pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
            objects.sort_unstable();
            objects.dedup();
            let pairs = self.pairs.clone();
            out.emit(Envelope::Data((t, MergeAcc { pairs, objects })));
        }
        out.emit(Envelope::Tick(t));
    }
}

impl Operator<GridMsg, MergeMsg> for QueryOp {
    fn process(&mut self, msg: GridMsg, out: &mut Collector<MergeMsg>) {
        match msg {
            Envelope::Data(GridBatch { time, objects, .. }) => {
                self.align.absorb(time, |acc| acc.absorb(objects));
            }
            Envelope::Tick(t) => {
                if let Some(objects) = self.align.tick(t) {
                    self.flush_time(t, objects, out);
                }
            }
            // Aligned, the barrier trails every shard's tick of every
            // window sealed before the cut, and those ticks flushed the
            // windows — so the subtask holds no state belonging to the cut.
            Envelope::Barrier(token) => {
                if self.align.barrier(token.seq()) {
                    out.emit(Envelope::Barrier(token));
                }
            }
        }
    }
}

/// The root of the sync aggregation tree: merges the last partials, runs
/// DBSCAN over the window's global pair set and seals the window —
/// id-partitioning the clusters for the keyed enumeration stage.
struct MergeFinalOp {
    m: usize,
    dbscan: DbscanParams,
    pairs_merged: u64,
    windows_sealed: u64,
    gauges: StatusGauges,
    align: WindowAlign<MergeAcc>,
}

impl Operator<MergeMsg, PartMsg> for MergeFinalOp {
    fn process(&mut self, msg: MergeMsg, out: &mut Collector<PartMsg>) {
        match msg {
            Envelope::Data((time, partial)) => self.align.absorb(time, |acc| acc.absorb(partial)),
            Envelope::Tick(time) => {
                if let Some(acc) = self.align.tick(time) {
                    let outcome =
                        dbscan_from_pairs(Timestamp(time), &acc.objects, &acc.pairs, &self.dbscan);
                    for partition in id_partitions(&outcome.snapshot, self.m) {
                        out.emit(Envelope::Data((time, partition)));
                    }
                    out.emit(Envelope::Tick(time));
                    self.pairs_merged += acc.pairs.len() as u64;
                    self.windows_sealed += 1;
                    self.gauges.pairs_merged.set(self.pairs_merged);
                    self.gauges.windows_sealed.set(self.windows_sealed);
                }
            }
            Envelope::Barrier(token) => {
                if self.align.barrier(token.seq()) {
                    token
                        .pairs_merged
                        .store(self.pairs_merged, Ordering::Relaxed);
                    out.emit(Envelope::Barrier(token));
                }
            }
        }
    }
}

/// One enumeration subtask: owns the FBA state for the owner ids routed to
/// it, advances time on broadcast ticks.
struct EnumerateOp {
    subtask: usize,
    engine: FbaEngine,
    /// The partitions of the tick in progress. Sync-merge is one FIFO
    /// producer: all of tick `t`'s partitions precede `Tick(t)`.
    pending: Vec<Partition>,
    pending_time: u32,
    /// What the engine found at the tick in progress. It ships as an
    /// exact-size copy, so this buffer stops growing after the first ticks.
    found: PatternBatch,
}

impl EnumerateOp {
    fn ship_found(&mut self, out: &mut Collector<OutMsg>) {
        if !self.found.is_empty() {
            out.emit(OutMsg::Patterns {
                subtask: self.subtask,
                batch: self.found.clone(),
            });
            self.found.clear();
        }
    }
}

impl Operator<PartMsg, OutMsg> for EnumerateOp {
    fn process(&mut self, msg: PartMsg, out: &mut Collector<OutMsg>) {
        match msg {
            Envelope::Data((time, partition)) => {
                debug_assert!(self.pending.is_empty() || self.pending_time == time);
                self.pending_time = time;
                self.pending.push(partition);
            }
            Envelope::Tick(t) => {
                debug_assert!(self.pending.is_empty() || self.pending_time == t);
                self.engine
                    .push_partitions_into(Timestamp(t), &mut self.pending, &mut self.found);
                self.ship_found(out);
                out.emit(OutMsg::Done(t));
            }
            Envelope::Barrier(token) => {
                // At the barrier this subtask has ticked through exactly
                // the snapshots sealed before the cut; its engine state is
                // the consistent one to capture.
                out.emit(OutMsg::Checkpoint {
                    subtask: self.subtask,
                    token,
                    engine: self.engine.checkpoint(),
                });
            }
        }
    }

    fn finish(&mut self, out: &mut Collector<OutMsg>) {
        self.engine.finish_into(&mut self.found);
        self.ship_found(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_pattern::unique_object_sets;
    use icpe_types::{Constraints, Point};

    /// Three co-walking objects + two wanderers, as pre-discretized records.
    fn walking_records(ticks: u32) -> Vec<GpsRecord> {
        let mut out = Vec::new();
        for t in 0..ticks {
            let base = t as f64 * 0.5;
            let last = if t == 0 { None } else { Some(Timestamp(t - 1)) };
            for (id, p) in [
                (1u32, Point::new(base, 0.0)),
                (2, Point::new(base + 0.3, 0.3)),
                (3, Point::new(base + 0.6, 0.0)),
                (8, Point::new(100.0 + base, 50.0)),
                (9, Point::new(-100.0, 50.0 - base)),
            ] {
                out.push(GpsRecord::new(ObjectId(id), p, Timestamp(t), last));
            }
        }
        out
    }

    fn config(n: usize) -> IcpeConfig {
        IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .parallelism(n)
            .build()
            .unwrap()
    }

    #[test]
    fn pipeline_detects_the_walking_group() {
        let out = IcpePipeline::run(&config(3), walking_records(10));
        let sets = unique_object_sets(&out.patterns);
        assert!(
            sets.contains(&vec![ObjectId(1), ObjectId(2), ObjectId(3)]),
            "{sets:?}"
        );
        assert_eq!(out.metrics.snapshots, 10);
    }

    #[test]
    fn pipeline_matches_sync_engine() {
        let cfg = config(4);
        let out = IcpePipeline::run(&cfg, walking_records(12));
        let pipeline_sets = unique_object_sets(&out.patterns);

        let mut engine = crate::engine::IcpeEngine::new(cfg);
        let mut patterns = Vec::new();
        for t in 0..12u32 {
            let base = t as f64 * 0.5;
            let snap = Snapshot::from_pairs(
                Timestamp(t),
                [
                    (ObjectId(1), Point::new(base, 0.0)),
                    (ObjectId(2), Point::new(base + 0.3, 0.3)),
                    (ObjectId(3), Point::new(base + 0.6, 0.0)),
                    (ObjectId(8), Point::new(100.0 + base, 50.0)),
                    (ObjectId(9), Point::new(-100.0, 50.0 - base)),
                ],
            );
            patterns.extend(engine.push_snapshot(snap));
        }
        patterns.extend(engine.finish());
        assert_eq!(pipeline_sets, unique_object_sets(&patterns));
    }

    #[test]
    fn pipeline_parallelism_does_not_change_results() {
        let base = unique_object_sets(&IcpePipeline::run(&config(1), walking_records(10)).patterns);
        for n in [2, 4, 8] {
            let out = IcpePipeline::run(&config(n), walking_records(10));
            assert_eq!(unique_object_sets(&out.patterns), base, "N = {n}");
        }
    }

    #[test]
    fn sync_tree_fanin_does_not_change_results() {
        let base = unique_object_sets(&IcpePipeline::run(&config(1), walking_records(10)).patterns);
        for fanin in [2usize, 3, 8] {
            let cfg = IcpeConfig::builder()
                .constraints(Constraints::new(3, 4, 2, 2).unwrap())
                .epsilon(1.0)
                .min_pts(3)
                .parallelism(8)
                .sync_fanin(fanin)
                .build()
                .unwrap();
            let out = IcpePipeline::run(&cfg, walking_records(10));
            assert_eq!(unique_object_sets(&out.patterns), base, "fanin = {fanin}");
        }
    }

    #[test]
    fn sync_gauges_report_the_sharded_merge() {
        let live = IcpePipeline::launch(&config(4), |_| {});
        let status = live.status().clone();
        for r in walking_records(10) {
            live.push(r).unwrap();
        }
        live.finish();
        let status = status.sync();
        assert_eq!(status.fanin, crate::config::DEFAULT_SYNC_FANIN);
        assert_eq!(
            status.levels, 0,
            "4 grid-query subtasks at fanin 4 is a flat funnel"
        );
        assert_eq!(status.windows_sealed, 10);
        assert!(
            status.pairs_merged > 0,
            "the walking trio produces pairs every window: {status:?}"
        );

        // A deeper tree exposes interior levels.
        let cfg = IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .parallelism(8)
            .sync_fanin(2)
            .build()
            .unwrap();
        let live = IcpePipeline::launch(&cfg, |_| {});
        assert_eq!(live.status().sync().levels, 2, "8 → 4 → 2 → final");
        for r in walking_records(6) {
            live.push(r).unwrap();
        }
        live.finish();
    }

    #[test]
    fn pipeline_handles_out_of_order_records() {
        // Swap some records around within a small window; the aligner must
        // still produce identical results.
        let mut records = walking_records(10);
        let n = records.len();
        for i in (0..n - 3).step_by(3) {
            records.swap(i, i + 3);
        }
        let out = IcpePipeline::run(&config(2), records);
        let sets = unique_object_sets(&out.patterns);
        assert!(sets.contains(&vec![ObjectId(1), ObjectId(2), ObjectId(3)]));
    }

    #[test]
    fn empty_input_produces_nothing() {
        let out = IcpePipeline::run(&config(2), Vec::new());
        assert!(out.patterns.is_empty());
        assert_eq!(out.metrics.snapshots, 0);
    }

    /// Records whose hot cells all hash-route to one GridQuery subtask:
    /// co-walking triples parked at cell centers chosen (at grid width
    /// `8.0`, parallelism `n`) to collide under `hash(cell) % n` — the
    /// skew adaptive routing exists to fix.
    fn colliding_hot_records(n: usize, groups: usize, ticks: u32) -> Vec<GpsRecord> {
        let grid = Grid::new(8.0);
        let target = subtask_for(
            stable_hash(&grid.key_of(icpe_types::Point::new(4.0, 4.0))),
            n,
        );
        let mut centers = Vec::new();
        let mut x = 4.0f64;
        while centers.len() < groups {
            let p = icpe_types::Point::new(x, 4.0);
            if subtask_for(stable_hash(&grid.key_of(p)), n) == target {
                centers.push(p);
            }
            x += 8.0;
        }
        let mut out = Vec::new();
        for t in 0..ticks {
            let last = if t == 0 { None } else { Some(Timestamp(t - 1)) };
            for (g, c) in centers.iter().enumerate() {
                for k in 0..3u32 {
                    let id = ObjectId(100 * (g as u32 + 1) + k);
                    let p = icpe_types::Point::new(c.x + 0.3 * k as f64, c.y + 0.2 * k as f64);
                    out.push(GpsRecord::new(id, p, Timestamp(t), last));
                }
            }
        }
        out
    }

    #[test]
    fn adaptive_routing_migrates_hot_cells_and_preserves_results() {
        let n = 4;
        let records = colliding_hot_records(n, 6, 16);
        let static_cfg = config(n);
        let want = unique_object_sets(&IcpePipeline::run(&static_cfg, records.clone()).patterns);
        assert!(!want.is_empty(), "the hot groups must co-move");

        let adaptive_cfg = IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .parallelism(n)
            .rebalance(icpe_cluster::BalancerConfig {
                theta: 1.1,
                cooldown_windows: 0,
                ..icpe_cluster::BalancerConfig::default()
            })
            .build()
            .unwrap();
        let got: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        let live = IcpePipeline::launch(&adaptive_cfg, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        });
        let routing = live.status().clone();
        for r in &records {
            live.push(*r).unwrap();
        }
        live.finish();

        assert_eq!(
            unique_object_sets(&got.lock().unwrap()),
            want,
            "adaptive and static routing seal the same patterns"
        );
        let status = routing.routing();
        assert!(
            status.epoch > 0,
            "colliding hot cells must trigger a rebalance: {status:?}"
        );
        assert!(status.cells_migrated > 0);

        // The placement actually helps. Under static `hash(cell) % N`
        // routing every hot cell collides on one subtask (imbalance = N);
        // after migration the late windows must sit far below that. (With
        // micro-batched hops the swap can even land before the first
        // window routes — windows co-batched with the decision route under
        // the new epoch — so the first window may already be balanced and
        // a falling-series assertion would be vacuous.)
        let series = routing.imbalance_series();
        let last = series.last().expect("windows sealed").1;
        assert!(
            last < n as f64 / 2.0,
            "late windows must be balanced well below the colliding static \
             placement (imbalance {n}): {series:?}"
        );
    }

    /// The epoch switch is per window: two shards handed one `Seal` whose
    /// table moves cells send all of a cell's objects, from both shards, to
    /// one subtask — the table's, or the hash fallback where the table has
    /// no live entry.
    #[test]
    fn one_seal_routes_each_cell_of_every_shard_to_one_subtask() {
        let (n, grid) = (4, Grid::new(2.0));
        let at = |id: u32| Point::new((id * 7 % 40) as f64 / 2.0, (id * 13 % 40) as f64 / 2.0);
        let hash = |id: u32| stable_hash(&grid.key_of(at(id)));
        // Even objects' cells move one subtask on; object 0's cell names a
        // subtask this deployment lacks.
        let mut moves: HashMap<u64, usize> = (2..200)
            .step_by(4)
            .map(|id| (hash(id), (subtask_for(hash(id), n) + 1) % n))
            .collect();
        moves.insert(hash(0), n + 3);
        let table = Some(Arc::new(RoutingTable::new(1, moves.clone())));
        let mut dest_of: HashMap<GridKey, u32> = HashMap::new();
        for shard in 0..2u32 {
            let rows = (shard..200).step_by(2).map(|id| (ObjectId(id), at(id)));
            let buffers = BTreeMap::from([(0, Snapshot::from_pairs(Timestamp(0), rows))]);
            let mut op = AlignShardOp::new(shard as usize, grid, 1.0, buffers, n);
            let (times, table, mut out) = (vec![0], table.clone(), Collector::new());
            op.process(Envelope::Data(RouteData::Seal { times, table }), &mut out);
            let msgs: Vec<GridMsg> = out.drain().collect();
            assert!(matches!(msgs.last(), Some(Envelope::Tick(0))));
            for msg in msgs {
                let Envelope::Data(batch) = msg else {
                    continue;
                };
                for o in batch.objects {
                    let h = stable_hash(&o.key);
                    let want = moves.get(&h).copied().filter(|&s| s < n);
                    assert_eq!(batch.dest as usize, want.unwrap_or(subtask_for(h, n)));
                    assert_eq!(*dest_of.entry(o.key).or_insert(batch.dest), batch.dest);
                }
            }
        }
        let moved = dest_of
            .iter()
            .filter(|(k, &d)| d as usize != subtask_for(stable_hash(k), n));
        assert!(moved.count() > 0, "the table moved cells");
    }

    #[test]
    fn live_launch_delivers_patterns_and_seal_events() {
        let events: Arc<Mutex<Vec<PipelineEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let live = IcpePipeline::launch(&config(3), move |e| {
            sink.lock().unwrap().push(e);
        });
        for r in walking_records(10) {
            live.push(r).unwrap();
        }
        let report = live.finish();
        assert_eq!(report.snapshots, 10);

        let events = events.lock().unwrap();
        let sealed: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                PipelineEvent::SnapshotSealed { time } => Some(*time),
                _ => None,
            })
            .collect();
        assert_eq!(sealed, (0..10).collect::<Vec<_>>(), "sealed in order");
        let patterns: Vec<Pattern> = events
            .iter()
            .filter_map(|e| match e {
                PipelineEvent::Pattern(p) => Some(p.clone()),
                _ => None,
            })
            .collect();
        let sets = unique_object_sets(&patterns);
        assert!(sets.contains(&vec![ObjectId(1), ObjectId(2), ObjectId(3)]));
    }

    #[test]
    fn live_launch_supports_many_producers() {
        let live = IcpePipeline::launch(&config(2), |_| {});
        let records = walking_records(12);
        // Interleave the stream across four concurrent producers, keyed so
        // each object's records stay with one producer (preserving per-id
        // order, as TCP connections do).
        let mut handles = Vec::new();
        for p in 0..4u32 {
            let sender = live.sender();
            let my_records: Vec<GpsRecord> = records
                .iter()
                .filter(|r| r.id.0 % 4 == p)
                .copied()
                .collect();
            handles.push(std::thread::spawn(move || {
                for r in my_records {
                    sender.push(r).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = live.finish();
        assert_eq!(report.snapshots, 12);
    }

    #[test]
    fn live_progress_gauges_advance() {
        let live = IcpePipeline::launch(&config(1), |_| {});
        for r in walking_records(8) {
            live.push(r).unwrap();
        }
        let before = live.status().progress();
        let report = live.finish();
        assert_eq!(report.snapshots, 8);
        // After finish, everything ingested has sealed.
        assert!(before.max_ingested.unwrap_or(0) <= 7);
    }

    #[test]
    fn live_checkpoint_names_the_exact_cut() {
        let live = IcpePipeline::launch(&config(2), |_| {});
        let records = walking_records(10);
        for r in &records[..25] {
            live.push(*r).unwrap();
        }
        let ckpt = live.checkpoint().unwrap();
        assert_eq!(ckpt.version, CHECKPOINT_VERSION);
        assert_eq!(ckpt.seq, 1);
        assert_eq!(
            ckpt.records_ingested, 25,
            "the barrier trails exactly the pushed records"
        );
        assert_eq!(
            ckpt.progress.windows_sealed,
            ckpt.aligner.sealed_up_to.unwrap_or(0) as u64,
            "every snapshot the aligner sealed before the cut has flowed \
             through enumeration by the time the checkpoint assembles"
        );
        // A second checkpoint advances the sequence.
        for r in &records[25..30] {
            live.push(*r).unwrap();
        }
        let ckpt2 = live.checkpoint().unwrap();
        assert_eq!(ckpt2.seq, 2);
        assert_eq!(ckpt2.records_ingested, 30);
        for r in &records[30..] {
            live.push(*r).unwrap();
        }
        let report = live.finish();
        assert_eq!(report.snapshots, 10);
    }

    #[test]
    fn checkpoint_restore_resumes_the_live_run() {
        // Push half the stream, checkpoint, "crash" (drop), restore into a
        // new pipeline, push the rest: pattern sets must match an
        // uninterrupted run.
        let cfg = config(3);
        let records = walking_records(12);
        let full = IcpePipeline::run(&cfg, records.clone());
        let want = unique_object_sets(&full.patterns);

        let pre: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&pre);
        let live = IcpePipeline::launch(&cfg, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        });
        let cut = 5 * 7; // 7 full ticks of 5 records
        for r in &records[..cut] {
            live.push(*r).unwrap();
        }
        let ckpt = live.checkpoint().unwrap();
        assert_eq!(ckpt.records_ingested as usize, cut);
        let delivered_before = pre.lock().unwrap().clone();
        drop(live); // crash: never finished, flush events discarded

        let post: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&post);
        let resumed = IcpePipeline::launch_from(&cfg, &ckpt, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        })
        .unwrap();
        for r in &records[cut..] {
            resumed.push(*r).unwrap();
        }
        let report = resumed.finish();
        assert_eq!(report.snapshots, 12, "restored gauges stayed cumulative");

        let mut got = delivered_before;
        got.extend(post.lock().unwrap().clone());
        assert_eq!(unique_object_sets(&got), want);
    }

    #[test]
    fn checkpoint_restore_preserves_cumulative_obs_counters() {
        // The registry's cumulative counters ride in the checkpoint and
        // survive a kill + restore: immediately after launch_from (no
        // replayed record has flowed yet) the restored registry reproduces
        // the cut exactly, and further input only grows the totals.
        let cfg = config(2);
        let records = walking_records(10);
        let live = IcpePipeline::launch(&cfg, |_| {});
        for r in &records[..25] {
            live.push(*r).unwrap();
        }
        let ckpt = live.checkpoint().unwrap();
        let cut = ckpt.obs.clone();
        let records_at_cut = |c: &ObsCheckpoint| {
            c.counters
                .iter()
                .find(|e| e.stage == "align-route" && e.name == "stage_records_in_total")
                .map(|e| e.value)
                .unwrap_or(0)
        };
        // 25 data records + 1 barrier message: the counters count dataflow
        // messages, control messages included.
        assert_eq!(
            records_at_cut(&cut),
            26,
            "the router stage counted every pre-cut message: {cut:?}"
        );
        drop(live); // crash

        let resumed = IcpePipeline::launch_from(&cfg, &ckpt, |_| {}).unwrap();
        // Fresh stage registrations are zero-valued and zeros are omitted
        // from the checkpoint form, so the equality is exact.
        assert_eq!(
            resumed.obs().counter_checkpoint(),
            cut,
            "restored counters reproduce the cut before any record flows"
        );
        let registry = resumed.obs().clone();
        for r in &records[25..] {
            resumed.push(*r).unwrap();
        }
        resumed.finish();
        let after = registry.counter_checkpoint();
        assert_eq!(
            records_at_cut(&after),
            records.len() as u64 + 1, // 50 data messages + the one barrier
            "replayed input accumulates on top of the restored base"
        );
    }

    #[test]
    fn uninstrumented_launch_registers_no_metrics_but_checkpoints_fine() {
        let cfg = IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .parallelism(2)
            .instrument(false)
            .build()
            .unwrap();
        let live = IcpePipeline::launch(&cfg, |_| {});
        for r in walking_records(6) {
            live.push(r).unwrap();
        }
        let ckpt = live.checkpoint().unwrap();
        assert_eq!(
            ckpt.obs,
            ObsCheckpoint {
                counters: Vec::new()
            },
            "no families registered, so the obs section is empty"
        );
        assert!(live.obs().stage_seconds().is_empty());
        // The journal is independent of metric instrumentation: window
        // seals and the barrier pass are recorded either way.
        assert!(live.obs().last_seq() > 0);
        live.finish();
    }

    #[test]
    fn restore_reshards_across_different_parallelism() {
        let records = walking_records(12);
        let want = pattern_counts(&IcpePipeline::run(&config(2), records.clone()).patterns);

        let pre: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&pre);
        let live = IcpePipeline::launch(&config(2), move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        });
        let cut = 5 * 9; // η = 6: some windows released, some still open
        for r in &records[..cut] {
            live.push(*r).unwrap();
        }
        let ckpt = live.checkpoint().unwrap();
        let mut got = pre.lock().unwrap().clone();
        assert!(
            !got.is_empty(),
            "FBA reports windows released before the cut"
        );
        assert!(
            !ckpt.engine.window_owners.is_empty(),
            "and holds open windows across it"
        );
        drop(live);

        // Resume with parallelism 5 — state re-shards by owner hash.
        let post: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&post);
        let resumed = IcpePipeline::launch_from(&config(5), &ckpt, move |e| {
            if let PipelineEvent::Pattern(p) = e {
                sink.lock().unwrap().push(p);
            }
        })
        .unwrap();
        for r in &records[cut..] {
            resumed.push(*r).unwrap();
        }
        resumed.finish();
        got.extend(post.lock().unwrap().clone());
        assert_eq!(pattern_counts(&got), want);
    }

    #[test]
    fn launch_from_rejects_mismatched_checkpoints() {
        let live = IcpePipeline::launch(&config(2), |_| {});
        live.push(walking_records(1)[0]).unwrap();
        let mut ckpt = live.checkpoint().unwrap();
        live.finish();

        ckpt.version += 1;
        let err = IcpePipeline::launch_from(&config(2), &ckpt, |_| {})
            .err()
            .unwrap();
        assert!(matches!(err, CheckpointError::UnsupportedVersion { .. }));
    }

    // ---- supervision -------------------------------------------------------

    /// Small batches keep fault-point batch ordinals dense (every
    /// generation sees several batches per stage), so injected panics fire
    /// deterministically across restarts.
    fn supervised_config(n: usize, fault: &str) -> IcpeConfig {
        IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .parallelism(n)
            .batch_size(4)
            .supervised(Supervision {
                backoff: std::time::Duration::from_millis(1),
                checkpoint_every_records: Some(16),
                ..Supervision::default()
            })
            .fault_plan(Arc::new(icpe_runtime::FaultPlan::from_spec(fault).unwrap()))
            .build()
            .unwrap()
    }

    /// Pattern multiset (not just unique sets): exactly-once must also hold
    /// per duplicate delivery.
    fn pattern_counts(patterns: &[Pattern]) -> HashMap<u64, usize> {
        let mut counts = HashMap::new();
        for p in patterns {
            *counts.entry(stable_hash(p)).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn supervised_pipeline_heals_an_injected_panic() {
        let baseline = IcpePipeline::run(&config(2), walking_records(10));

        let cfg = supervised_config(2, "panic@align-route:0:2");
        let plan = cfg.runtime.fault.clone().unwrap();
        let patterns: Arc<Mutex<Vec<Pattern>>> = Arc::new(Mutex::new(Vec::new()));
        let sealed: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let (p, s) = (Arc::clone(&patterns), Arc::clone(&sealed));
        let live = IcpePipeline::launch(&cfg, move |event| match event {
            PipelineEvent::Pattern(pat) => p.lock().unwrap().push(pat),
            PipelineEvent::SnapshotSealed { time } => s.lock().unwrap().push(time),
        });
        assert_eq!(live.status().health(), HealthState::Healthy);
        let obs = live.obs().clone();
        for r in walking_records(10) {
            live.push(r).unwrap();
        }
        let report = live.finish();

        assert!(plan.exhausted(), "the injected panic fired");
        assert!(
            obs.counter("supervisor", 0, "pipeline_restarts_total")
                .get()
                >= 1,
            "a restart was accounted"
        );
        assert!(
            obs.counter("supervisor", 0, "pipeline_recoveries_total")
                .get()
                >= 1,
            "a recovery completed"
        );
        // Exactly-once across the recovery cut: the healed run's delivered
        // pattern multiset matches an uninterrupted run's, and every
        // snapshot seals exactly once.
        let got = patterns.lock().unwrap();
        assert_eq!(pattern_counts(&got), pattern_counts(&baseline.patterns));
        let mut seals = sealed.lock().unwrap().clone();
        seals.sort_unstable();
        assert_eq!(seals, (0..10).collect::<Vec<_>>(), "seals exactly once");
        assert_eq!(report.snapshots, 10, "progress counters conserved");
    }

    #[test]
    fn supervised_health_transitions_to_recovering_and_back() {
        let cfg = supervised_config(2, "panic@align-route:0:1");
        let live = IcpePipeline::launch(&cfg, |_| {});
        let status = live.status().clone();
        for r in walking_records(10) {
            live.push(r).unwrap();
        }
        // The panic fires while records flow; poll for the round trip.
        let mut saw_non_healthy = false;
        for _ in 0..500 {
            if status.health() != HealthState::Healthy {
                saw_non_healthy = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        live.finish();
        // Whether or not the poll caught the transient Recovering window,
        // the pipeline must end Healthy with the restart on the books.
        let _ = saw_non_healthy;
        assert_eq!(status.health(), HealthState::Healthy);
    }

    #[test]
    fn supervised_pipeline_fails_terminally_without_hanging() {
        let mut cfg = supervised_config(
            1,
            "panic@align-route:0:0;panic@align-route:0:1;panic@align-route:0:2",
        );
        cfg.supervision = Some(Supervision {
            max_restarts: 2,
            backoff: std::time::Duration::from_millis(1),
            checkpoint_every_records: Some(16),
            ..Supervision::default()
        });
        let live = IcpePipeline::launch(&cfg, |_| {});
        let status = live.status().clone();
        for r in walking_records(10) {
            // Pushes must never hang or panic, even once the pipeline is
            // terminally down (they are discarded).
            live.push(r).unwrap();
        }
        for _ in 0..5000 {
            if status.health() == HealthState::Failed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(status.health(), HealthState::Failed, "restart budget spent");
        // A checkpoint request against a failed pipeline errors instead of
        // blocking forever.
        assert!(live.checkpoint().is_err());
        live.finish();
    }

    #[test]
    fn supervised_without_faults_matches_unsupervised() {
        let baseline = IcpePipeline::run(&config(3), walking_records(10));
        let cfg = IcpeConfig::builder()
            .constraints(Constraints::new(3, 4, 2, 2).unwrap())
            .epsilon(1.0)
            .min_pts(3)
            .parallelism(3)
            .supervised(Supervision::default())
            .build()
            .unwrap();
        let out = IcpePipeline::run(&cfg, walking_records(10));
        assert_eq!(
            pattern_counts(&out.patterns),
            pattern_counts(&baseline.patterns)
        );
        assert_eq!(out.metrics.snapshots, 10);
    }
}
