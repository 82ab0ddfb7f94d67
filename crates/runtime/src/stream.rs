//! The dataflow builder: sources, parallel stages, sinks.
//!
//! Stages are spawned lazily: declaring stage *i+1* fixes the routing of
//! stage *i*'s output, at which point stage *i*'s subtask threads start.
//! End-of-stream is signalled by channel disconnection — when every upstream
//! sender is dropped, a subtask drains its channel, calls
//! [`Operator::finish`], and drops its own senders, cascading shutdown
//! through the pipeline.
//!
//! ## Vectorized micro-batches
//!
//! Inter-stage channels carry `Vec<T>` batches; each subtask's output
//! [`Router`] buffers records per destination and ships whole buffers (see
//! the `exchange` module docs for the flush rules). Operators receive whole
//! batches through [`Operator::process_batch`] — by default that unrolls to
//! the per-record [`Operator::process`], so operators are batching-agnostic
//! unless they override it to amortize per-batch work. A subtask about to
//! block on an empty input channel first flushes its output buffers, so
//! batching raises throughput under load without adding latency when the
//! stream is idle.

use crate::exchange::{Exchange, Router, SendFault};
use crate::fault::{panic_cause, FaultKind, FaultPlan, StageFailure};
use crate::obs::{ExchangeObs, MetricRegistry, StageObs};
use crate::operator::{Collector, Operator};
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Runtime knobs shared by every stage of a dataflow.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Capacity of each inter-subtask channel, **in batches**. Bounded
    /// channels give the pipelined backpressure Flink's network stack
    /// provides; a batch ships once it holds `batch_size` rows, so a
    /// channel holds about `channel_capacity × batch_size` rows (a single
    /// message larger than a batch travels as a batch of its own).
    pub channel_capacity: usize,
    /// Rows per destination batch buffer before a size flush (see the
    /// `exchange` module docs). `1` restores record-at-a-time sends.
    pub batch_size: usize,
    /// Deterministic fault injection (chaos testing): consulted by every
    /// worker before each batch and by every exchange hop before each
    /// send. `None` (the default) is branch-per-batch free of any fault
    /// bookkeeping.
    pub fault: Option<Arc<FaultPlan>>,
}

/// The default records-per-batch of every exchange hop (and of the serve
/// tier's ingest edge). Chosen from the `bench_throughput` sweep: well past
/// the knee where channel synchronization stops dominating, small enough
/// that per-channel buffering stays negligible.
pub const DEFAULT_BATCH_SIZE: usize = 64;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            // From a sweep of 4 … 1024 over the five `benchmark/` workloads:
            // throughput is flat from 32 up and falls below 16, while peak
            // RSS grows with every step (everything a hop may queue, it
            // does queue once one stage runs ahead of the next).
            channel_capacity: 64,
            batch_size: DEFAULT_BATCH_SIZE,
            fault: None,
        }
    }
}

/// Which slot of a [`Stream::reduce_tree`] reduction an operator occupies:
/// the level (0 = first combiner level above the producing stage), the
/// subtask index within that level, and how many upstream producers feed
/// the slot — the count punctuation/barrier alignment at the slot waits
/// for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeSlot {
    /// Combiner level, counted from the producing stage upward.
    pub level: usize,
    /// Subtask index within the level (`0..⌈prev_width/fanin⌉`).
    pub subtask: usize,
    /// Upstream subtasks routed to this slot (≤ fanin; the last slot of a
    /// level may receive fewer).
    pub inputs: usize,
}

/// A subtask of the most recently declared stage that has not started yet:
/// given its output router, it spawns its thread.
type PendingSubtask<T> = Box<dyn FnOnce(Router<T>) -> JoinHandle<()> + Send>;

/// A partially built dataflow whose last stage produces records of type `T`.
pub struct Stream<T> {
    pending: Vec<PendingSubtask<T>>,
    handles: Vec<JoinHandle<()>>,
    config: RuntimeConfig,
    /// Rows one record of this stream counts toward batch fill on the hop
    /// that ships it (see [`Stream::weigh`]).
    rows: fn(&T) -> usize,
    /// When set (see [`Stream::instrument`]), every stage declared from
    /// here on records per-batch processing time and records/batches
    /// in/out, and every exchange hop records queue depth plus
    /// blocked-send time, into this registry.
    obs: Option<MetricRegistry>,
    /// When set (see [`Stream::supervise`]), a panicking subtask declared
    /// from here on is *isolated*: the unwind is caught at the thread
    /// boundary, a typed [`StageFailure`] is reported on this channel, and
    /// the worker exits cleanly (its dropped channels cascade teardown
    /// through the rest of the generation). Without a supervisor, panics
    /// propagate to the driver via `join` exactly as before.
    supervisor: Option<Sender<StageFailure>>,
}

/// Runs `body` under the stream's failure policy: supervised workers catch
/// the unwind and report a typed failure; unsupervised workers let it
/// propagate to the thread boundary (and from there to the driver's join).
fn run_worker(
    supervisor: Option<Sender<StageFailure>>,
    stage: &str,
    subtask: usize,
    body: impl FnOnce(),
) {
    match supervisor {
        None => body(),
        Some(tx) => {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                // Receiver gone (supervisor already tearing down): the
                // worker still exits cleanly — that is the point.
                let _ = tx.send(StageFailure {
                    stage: stage.to_string(),
                    subtask,
                    cause: panic_cause(payload.as_ref()),
                });
            }
        }
    }
}

/// Applies a worker-scoped fault (consulted once per input batch).
fn apply_worker_fault(plan: &FaultPlan, stage: &str, subtask: usize, batch: u64) {
    match plan.worker_fault(stage, subtask, batch) {
        Some(FaultKind::Panic) => {
            panic!("injected fault: panic at stage `{stage}` subtask {subtask} batch {batch}")
        }
        Some(FaultKind::Stall(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
        _ => {}
    }
}

impl<T: Send + Clone + 'static> Stream<T> {
    /// Declares a source stage with `parallelism` subtasks; subtask `i`
    /// iterates the iterator produced by `make(i)`.
    pub fn source<I, F>(config: RuntimeConfig, parallelism: usize, make: F) -> Stream<T>
    where
        I: Iterator<Item = T> + Send + 'static,
        F: Fn(usize) -> I,
    {
        assert!(parallelism >= 1, "source parallelism must be ≥ 1");
        let mut pending: Vec<PendingSubtask<T>> = Vec::with_capacity(parallelism);
        for i in 0..parallelism {
            let iter = make(i);
            pending.push(Box::new(move |mut router: Router<T>| {
                std::thread::Builder::new()
                    .name(format!("source-{i}"))
                    .spawn(move || {
                        for item in iter {
                            if router.route(item).is_err() {
                                return; // downstream gone; stop producing
                            }
                        }
                        let _ = router.flush();
                    })
                    .expect("failed to spawn source thread")
            }));
        }
        Stream {
            pending,
            handles: Vec::new(),
            config,
            rows: |_| 1,
            obs: None,
            supervisor: None,
        }
    }

    /// Declares a push-based source stage fed from an external channel: the
    /// dataflow's input arrives through the returned [`Sender`]-side of
    /// `receiver`'s channel rather than from a pre-built iterator. This is
    /// the live-ingestion hook: a network front-end (or any producer thread)
    /// pushes records while the dataflow runs, with the channel's bound
    /// providing end-to-end backpressure. The stream ends when every sender
    /// for `receiver`'s channel has been dropped.
    ///
    /// When the ingest channel runs dry the source flushes its partial
    /// output batches before blocking, so a quiet producer's records (and
    /// checkpoint barriers) never sit in a batch buffer waiting for
    /// traffic.
    pub fn from_channel(config: RuntimeConfig, receiver: Receiver<T>) -> Stream<T> {
        let pending: Vec<PendingSubtask<T>> = vec![Box::new(move |mut router: Router<T>| {
            std::thread::Builder::new()
                .name("source-channel".into())
                .spawn(move || {
                    loop {
                        let item = match receiver.try_recv() {
                            Ok(item) => item,
                            Err(TryRecvError::Empty) => {
                                if router.flush().is_err() {
                                    return;
                                }
                                match receiver.recv() {
                                    Ok(item) => item,
                                    Err(_) => break, // all producers gone
                                }
                            }
                            Err(TryRecvError::Disconnected) => break,
                        };
                        if router.route(item).is_err() {
                            return; // downstream gone; stop forwarding
                        }
                    }
                    let _ = router.flush();
                })
                .expect("failed to spawn channel-source thread")
        })];
        Stream {
            pending,
            handles: Vec::new(),
            config,
            rows: |_| 1,
            obs: None,
            supervisor: None,
        }
    }

    /// Declares how many rows one record of this stream carries, for
    /// records that are vectors in disguise (an ingest batch, one shard's
    /// share of a window). The hop out of this stage then fills its batches
    /// by rows instead of by messages, which is what keeps a channel of
    /// `channel_capacity` batches bounded in rows. Undeclared, a record
    /// counts 1; a record declaring 0 counts 1 too.
    pub fn weigh(mut self, rows: fn(&T) -> usize) -> Stream<T> {
        self.rows = rows;
        self
    }

    /// Attaches a supervisor: every stage declared *after* this call runs
    /// its subtasks behind a `catch_unwind` boundary — a panic becomes a
    /// typed [`StageFailure`] on `failures` and a clean thread exit (whose
    /// dropped channels cascade teardown through the generation) instead
    /// of an unwind that [`Stream::for_each`]/[`StreamHandle::join`] would
    /// re-raise on the driver. Source stages carry no operator code and
    /// stay unsupervised.
    pub fn supervise(mut self, failures: Sender<StageFailure>) -> Stream<T> {
        self.supervisor = Some(failures);
        self
    }

    /// Attaches a metric registry: every stage declared *after* this call
    /// is instrumented (per-batch processing-time histogram, records and
    /// batches in/out per subtask) and so is every exchange hop into it
    /// (per-destination queue depth and blocked-send time). The hot path
    /// stays sampling-free relaxed atomics; an uninstrumented dataflow
    /// pays one branch per batch.
    pub fn instrument(mut self, registry: &MetricRegistry) -> Stream<T> {
        self.obs = Some(registry.clone());
        self
    }

    /// Declares a processing stage: `parallelism` subtasks, each running the
    /// operator produced by `factory(subtask_index)`, fed from the previous
    /// stage through `exchange` routing.
    pub fn apply<O, Op, F>(
        mut self,
        name: &str,
        parallelism: usize,
        exchange: Exchange<T>,
        factory: F,
    ) -> Stream<O>
    where
        O: Send + Clone + 'static,
        Op: Operator<T, O> + 'static,
        F: Fn(usize) -> Op,
    {
        assert!(parallelism >= 1, "stage parallelism must be ≥ 1");
        // Channels feeding this new stage (batch-granular).
        let (senders, receivers): (Vec<_>, Vec<Receiver<Vec<T>>>) = (0..parallelism)
            .map(|_| bounded(self.config.channel_capacity))
            .unzip();
        // The hop into this stage is labelled with the *receiving* stage
        // name; the counters are shared across upstream subtask clones so
        // they aggregate per destination.
        let hop_obs = self
            .obs
            .as_ref()
            .map(|reg| ExchangeObs::new(reg, name, parallelism));
        let hop_fault = self
            .config
            .fault
            .as_ref()
            .map(|plan| SendFault::new(Arc::clone(plan), name));
        let template = Router::new(
            senders,
            exchange,
            self.config.batch_size,
            self.rows,
            hop_obs,
        )
        .with_fault(hop_fault);

        // Fix the routing of the previous stage → spawn its subtasks now.
        let mut handles = std::mem::take(&mut self.handles);
        for (i, start) in self.pending.drain(..).enumerate() {
            handles.push(start(template.clone_for_subtask(i)));
        }
        drop(template); // subtasks hold their own sender clones

        // The new stage's subtasks start once *their* output routing is known.
        let mut pending: Vec<PendingSubtask<O>> = Vec::with_capacity(parallelism);
        for (i, rx) in receivers.into_iter().enumerate() {
            let mut op = factory(i);
            let thread_name = format!("{name}-{i}");
            let stage = name.to_string();
            let stage_obs = self.obs.as_ref().map(|reg| StageObs::new(reg, name, i));
            let supervisor = self.supervisor.clone();
            let fault = self.config.fault.clone();
            pending.push(Box::new(move |mut router: Router<O>| {
                std::thread::Builder::new()
                    .name(thread_name)
                    .spawn(move || {
                        run_worker(supervisor, &stage, i, || {
                            let mut collector = Collector::new();
                            let mut batch_no = 0u64;
                            loop {
                                let batch = match rx.try_recv() {
                                    Ok(batch) => batch,
                                    Err(TryRecvError::Empty) => {
                                        // About to wait: ship partial output
                                        // batches so downstream keeps working.
                                        if router.flush().is_err() {
                                            return;
                                        }
                                        match rx.recv() {
                                            Ok(batch) => batch,
                                            Err(_) => break, // upstream done
                                        }
                                    }
                                    Err(TryRecvError::Disconnected) => break,
                                };
                                if let Some(plan) = &fault {
                                    apply_worker_fault(plan, &stage, i, batch_no);
                                }
                                batch_no += 1;
                                let batch_len = batch.len();
                                let started = stage_obs.as_ref().map(|_| Instant::now());
                                op.process_batch(batch, &mut collector);
                                // Processing time only: routing (and any
                                // backpressure blocking) is the exchange hop's
                                // measurement, taken separately.
                                let elapsed = started.map(|t| t.elapsed());
                                let mut emitted = 0u64;
                                for out in collector.drain() {
                                    emitted += 1;
                                    if router.route(out).is_err() {
                                        return;
                                    }
                                }
                                if let (Some(obs), Some(elapsed)) = (&stage_obs, elapsed) {
                                    obs.batch(batch_len, emitted, elapsed);
                                }
                            }
                            op.finish(&mut collector);
                            for out in collector.drain() {
                                if router.route(out).is_err() {
                                    return;
                                }
                            }
                            let _ = router.flush();
                        });
                    })
                    .expect("failed to spawn stage thread")
            }));
        }
        Stream {
            pending,
            handles,
            config: self.config,
            rows: |_| 1,
            obs: self.obs,
            supervisor: self.supervisor,
        }
    }

    /// Declares a **single-subtask** stage from an operator *value*.
    ///
    /// The typed alternative to `apply(name, 1, exchange, factory)` for
    /// stages that are parallelism-1 by design (aligners, centralized
    /// collectors, tree finalizers): the operator moves straight into the
    /// one subtask, so there is no factory closure to misconfigure and no
    /// stringly `expect("… has parallelism 1")` cell dance — a stage that
    /// must not be replicated *cannot* be replicated, by construction.
    pub fn single<O, Op>(self, name: &str, exchange: Exchange<T>, op: Op) -> Stream<O>
    where
        O: Send + Clone + 'static,
        Op: Operator<T, O> + 'static,
    {
        let cell = Mutex::new(Some(op));
        self.apply(name, 1, exchange, move |_| {
            cell.lock()
                .expect("single-stage operator cell poisoned")
                .take()
                .expect("single() spawns exactly one subtask")
        })
    }

    /// Declares an **N → 1 tree-aggregation reduction** over the previous
    /// stage's `width` subtasks: interior *combiner* levels of at most
    /// `fanin` inputs each, then one *finalizer* subtask producing the
    /// reduced output stream.
    ///
    /// ```text
    /// width partials → ⌈width/fanin⌉ combiners → … → 1 finalizer
    /// ```
    ///
    /// Records are routed by their **producer's subtask index**
    /// ([`Exchange::FanIn`]): producer `i` of a level feeds slot
    /// `i / fanin` of the next, so messages carry no sender tag. Each slot
    /// is told how many inputs feed it (`TreeSlot::inputs`), which is what
    /// punctuation/barrier alignment at that slot must count to.
    ///
    /// Ordering guarantee: everything one producer emits flows to exactly
    /// one slot of the next level over one FIFO channel, so per-producer
    /// order is preserved along every root-ward path — aligned punctuation
    /// (each slot forwarding only after all `inputs` copies arrived) stays
    /// aligned at every level of the tree.
    ///
    /// With `width ≤ fanin` (including `width == 1`) there are no interior
    /// levels and the finalizer performs the whole merge — `fanin >= N`
    /// degrades to the flat N → 1 funnel this combinator replaces. `fanin`
    /// is clamped to ≥ 2.
    pub fn reduce_tree<O, C, Fin, CombF, FinF>(
        self,
        name: &str,
        width: usize,
        fanin: usize,
        combiner: CombF,
        finalizer: FinF,
    ) -> Stream<O>
    where
        O: Send + Clone + 'static,
        C: Operator<T, T> + 'static,
        Fin: Operator<T, O> + 'static,
        CombF: Fn(TreeSlot) -> C,
        FinF: FnOnce(usize) -> Fin,
    {
        let fanin = fanin.max(2);
        let mut width = width.max(1);
        // Combiners forward the producers' record type, weighed alike.
        let rows = self.rows;
        let mut stream = self;
        let mut level = 0usize;
        while width > fanin {
            let next = width.div_ceil(fanin);
            let prev_width = width;
            stream = stream.apply(
                &format!("{name}-l{level}"),
                next,
                Exchange::FanIn(fanin),
                |i| {
                    combiner(TreeSlot {
                        level,
                        subtask: i,
                        inputs: fanin.min(prev_width - i * fanin),
                    })
                },
            );
            stream = stream.weigh(rows);
            width = next;
            level += 1;
        }
        stream.single(
            &format!("{name}-final"),
            Exchange::Rebalance,
            finalizer(width),
        )
    }

    /// Terminal: drains the dataflow on the calling thread, invoking `sink`
    /// for every record of the final stage, then joins all subtask threads.
    ///
    /// Panics if any subtask panicked.
    pub fn for_each(mut self, mut sink: impl FnMut(T)) {
        let (sender, receiver) = bounded::<Vec<T>>(self.config.channel_capacity);
        let hop_obs = self
            .obs
            .as_ref()
            .map(|reg| ExchangeObs::new(reg, "sink", 1));
        let template = Router::new(
            vec![sender],
            Exchange::Rebalance,
            self.config.batch_size,
            self.rows,
            hop_obs,
        );
        let mut handles = std::mem::take(&mut self.handles);
        for (i, start) in self.pending.drain(..).enumerate() {
            handles.push(start(template.clone_for_subtask(i)));
        }
        drop(template);
        for batch in receiver.iter() {
            for record in batch {
                sink(record);
            }
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Terminal: finalizes the dataflow and hands back a [`Receiver`] of the
    /// final stage's output batches plus a [`StreamHandle`] for joining the
    /// subtask threads. The pull-based dual of [`Stream::from_channel`]: a
    /// consumer (e.g. a network fan-out) drains results at its own pace, and
    /// **dropping the receiver early tears the whole dataflow down
    /// cleanly** — every upstream subtask observes the disconnect on its
    /// next send and exits without panicking.
    pub fn into_receiver(mut self) -> (Receiver<Vec<T>>, StreamHandle) {
        let (sender, receiver) = bounded::<Vec<T>>(self.config.channel_capacity);
        let hop_obs = self
            .obs
            .as_ref()
            .map(|reg| ExchangeObs::new(reg, "sink", 1));
        let template = Router::new(
            vec![sender],
            Exchange::Rebalance,
            self.config.batch_size,
            self.rows,
            hop_obs,
        );
        let mut handles = std::mem::take(&mut self.handles);
        for (i, start) in self.pending.drain(..).enumerate() {
            handles.push(start(template.clone_for_subtask(i)));
        }
        drop(template);
        (receiver, StreamHandle { handles })
    }

    /// Terminal: collects the final stage's output into a vector
    /// (arrival order).
    pub fn collect_vec(self) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each(|r| out.push(r));
        out
    }

    /// Terminal: runs the dataflow to completion, discarding output.
    pub fn run(self) {
        self.for_each(|_| {});
    }
}

/// Join handle for a dataflow finalized with [`Stream::into_receiver`].
pub struct StreamHandle {
    handles: Vec<JoinHandle<()>>,
}

impl StreamHandle {
    /// Waits for every subtask thread to exit. Panics if any subtask
    /// panicked (propagating the payload), mirroring [`Stream::for_each`].
    pub fn join(self) {
        for h in self.handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// True once every subtask thread has exited (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.handles.iter().all(JoinHandle::is_finished)
    }
}

/// Re-exported channel constructor so dataflow drivers can build the
/// ingestion channel for [`Stream::from_channel`] without depending on the
/// channel crate directly.
pub fn ingest_channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    bounded(capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{flat_map_fn, map_fn};

    fn cfg() -> RuntimeConfig {
        RuntimeConfig {
            channel_capacity: 16,
            batch_size: 4,
            fault: None,
        }
    }

    #[test]
    fn source_to_sink_round_trip() {
        let out = Stream::source(cfg(), 1, |_| 0..100u64).collect_vec();
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Single source, single sink channel → order preserved.
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_source_produces_all_partitions() {
        let out = Stream::source(cfg(), 4, |i| {
            let base = i as u64 * 100;
            base..base + 100
        })
        .collect_vec();
        assert_eq!(out.len(), 400);
        let mut sorted = out;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn map_stage_transforms_in_parallel() {
        let out = Stream::source(cfg(), 2, |i| (0..50u64).map(move |x| x + i as u64 * 50))
            .apply("double", 3, Exchange::Rebalance, |_| map_fn(|x: u64| x * 2))
            .collect_vec();
        let mut sorted = out;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn key_by_keeps_keys_on_one_subtask() {
        // Tag each record with the subtask that processed it; verify each key
        // lands on exactly one subtask.
        let out = Stream::source(cfg(), 2, |i| (0..200u64).map(move |x| x + i as u64 * 200))
            .apply("tag", 4, Exchange::key_by(|x: &u64| x % 10), |subtask| {
                map_fn(move |x: u64| (x % 10, subtask))
            })
            .collect_vec();
        assert_eq!(out.len(), 400);
        let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (key, subtask) in out {
            let prev = owner.insert(key, subtask);
            if let Some(p) = prev {
                assert_eq!(p, subtask, "key {key} visited two subtasks");
            }
        }
    }

    #[test]
    fn per_key_fifo_order_is_preserved_through_key_by() {
        // One source subtask, keyed exchange: records of the same key must
        // arrive in emission order at the (single) owning subtask.
        let out = Stream::source(cfg(), 1, |_| (0..300u64).map(|x| (x % 3, x)))
            .apply(
                "observe",
                3,
                Exchange::key_by(|(k, _): &(u64, u64)| *k),
                |_| map_fn(|rec: (u64, u64)| rec),
            )
            .collect_vec();
        let mut last_seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (k, v) in out {
            if let Some(prev) = last_seen.insert(k, v) {
                assert!(v > prev, "key {k}: {v} arrived after {prev}");
            }
        }
    }

    #[test]
    fn flat_map_and_stateful_finish() {
        struct Count(u64);
        impl Operator<u64, u64> for Count {
            fn process(&mut self, _input: u64, _out: &mut Collector<u64>) {
                self.0 += 1;
            }
            fn finish(&mut self, out: &mut Collector<u64>) {
                out.emit(self.0);
            }
        }
        let out = Stream::source(cfg(), 1, |_| 0..100u64)
            .apply("expand", 2, Exchange::Rebalance, |_| {
                flat_map_fn(|x: u64| vec![x, x])
            })
            .apply("count", 2, Exchange::Rebalance, |_| Count(0))
            .collect_vec();
        // Two counters, together they saw 200 records.
        assert_eq!(out.iter().sum::<u64>(), 200);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn broadcast_reaches_every_subtask() {
        struct Count(u64);
        impl Operator<u64, u64> for Count {
            fn process(&mut self, _input: u64, _out: &mut Collector<u64>) {
                self.0 += 1;
            }
            fn finish(&mut self, out: &mut Collector<u64>) {
                out.emit(self.0);
            }
        }
        let out = Stream::source(cfg(), 1, |_| 0..50u64)
            .apply("count", 3, Exchange::Broadcast, |_| Count(0))
            .collect_vec();
        assert_eq!(out, vec![50, 50, 50]);
    }

    #[test]
    fn batch_size_does_not_change_stage_results() {
        for batch_size in [1usize, 3, 7, 64, 1024] {
            let config = RuntimeConfig {
                channel_capacity: 8,
                batch_size,
                fault: None,
            };
            let out = Stream::source(config, 2, |i| (0..100u64).map(move |x| x * 2 + i as u64))
                .apply("inc", 3, Exchange::Rebalance, |_| map_fn(|x: u64| x + 1))
                .apply("key", 2, Exchange::key_by(|x: &u64| *x), |_| {
                    map_fn(|x: u64| x)
                })
                .collect_vec();
            let mut sorted = out;
            sorted.sort_unstable();
            let mut want: Vec<u64> = (0..200u64).map(|x| x + 1).collect();
            want.sort_unstable();
            assert_eq!(sorted, want, "batch_size {batch_size}");
        }
    }

    #[test]
    fn operators_can_override_process_batch() {
        // An operator that emits one record per *batch* proves the runtime
        // actually delivers multi-record batches under sustained input.
        struct BatchSizes;
        impl Operator<u64, usize> for BatchSizes {
            fn process(&mut self, _input: u64, _out: &mut Collector<usize>) {
                unreachable!("process_batch overridden");
            }
            fn process_batch(&mut self, batch: Vec<u64>, out: &mut Collector<usize>) {
                out.emit(batch.len());
            }
        }
        let config = RuntimeConfig {
            channel_capacity: 16,
            batch_size: 8,
            fault: None,
        };
        let sizes = Stream::source(config, 1, |_| 0..64u64)
            .apply("sizes", 1, Exchange::Rebalance, |_| BatchSizes)
            .collect_vec();
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        assert!(
            sizes.iter().any(|&s| s > 1),
            "a saturated source must produce multi-record batches: {sizes:?}"
        );
    }

    #[test]
    fn backpressure_does_not_deadlock() {
        // Tiny channels, fast producer, slow consumer.
        let config = RuntimeConfig {
            channel_capacity: 2,
            batch_size: 4,
            fault: None,
        };
        let out = Stream::source(config, 1, |_| 0..2000u64)
            .apply("slow", 1, Exchange::Rebalance, |_| {
                map_fn(|x: u64| {
                    if x.is_multiple_of(512) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    x
                })
            })
            .collect_vec();
        assert_eq!(out.len(), 2000);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn subtask_panic_propagates_to_driver() {
        Stream::source(cfg(), 1, |_| 0..10u64)
            .apply("bomb", 1, Exchange::Rebalance, |_| {
                map_fn(|x: u64| {
                    if x == 5 {
                        panic!("boom");
                    }
                    x
                })
            })
            .run();
    }

    #[test]
    fn supervised_panic_is_reported_not_propagated() {
        let (failures, reports) = bounded(16);
        Stream::source(cfg(), 1, |_| 0..10u64)
            .supervise(failures)
            .apply("bomb", 2, Exchange::Rebalance, |_| {
                map_fn(|x: u64| {
                    if x == 5 {
                        panic!("boom");
                    }
                    x
                })
            })
            .run();
        let failure = reports.try_recv().expect("failure report");
        assert_eq!(failure.stage, "bomb");
        assert!(failure.subtask < 2);
        assert!(failure.cause.contains("boom"), "cause: {}", failure.cause);
    }

    #[test]
    fn injected_panic_fires_at_the_keyed_batch() {
        let plan = FaultPlan::new()
            .point("work", 0, 1, crate::fault::FaultKind::Panic)
            .build();
        let config = RuntimeConfig {
            fault: Some(Arc::clone(&plan)),
            ..cfg()
        };
        let (failures, reports) = bounded(16);
        Stream::source(config, 1, |_| 0..100u64)
            .supervise(failures)
            .apply("work", 1, Exchange::Rebalance, |_| map_fn(|x: u64| x))
            .run();
        let failure = reports.try_recv().expect("failure report");
        assert_eq!(failure.stage, "work");
        assert!(failure.cause.contains("injected fault"));
        assert!(plan.exhausted());
    }

    #[test]
    fn single_stage_moves_the_operator_in() {
        struct Sum(u64);
        impl Operator<u64, u64> for Sum {
            fn process(&mut self, input: u64, _out: &mut Collector<u64>) {
                self.0 += input;
            }
            fn finish(&mut self, out: &mut Collector<u64>) {
                out.emit(self.0);
            }
        }
        let out = Stream::source(cfg(), 4, |i| {
            let base = i as u64 * 10;
            base..base + 10
        })
        .single("sum", Exchange::Rebalance, Sum(0))
        .collect_vec();
        assert_eq!(out, vec![(0..40u64).sum::<u64>()], "exactly one subtask");
    }

    /// A reduce_tree slot that sums its inputs and emits the total once
    /// its last input closes.
    struct TreeSum(u64);
    impl Operator<u64, u64> for TreeSum {
        fn process(&mut self, v: u64, _out: &mut Collector<u64>) {
            self.0 += v;
        }
        fn finish(&mut self, out: &mut Collector<u64>) {
            out.emit(self.0);
        }
    }

    #[test]
    fn reduce_tree_sums_across_levels() {
        for (width, fanin) in [
            (1usize, 2usize),
            (2, 2),
            (5, 2),
            (8, 2),
            (8, 3),
            (8, 8),
            (9, 4),
        ] {
            let out = Stream::source(cfg(), width, |i| {
                let base = i as u64 * 100;
                std::iter::once((base..base + 100).sum::<u64>())
            })
            .reduce_tree("tree", width, fanin, |_| TreeSum(0), |_| TreeSum(0))
            .collect_vec();
            let want: u64 = (0..width as u64 * 100).sum();
            assert_eq!(out, vec![want], "width {width} fanin {fanin}");
        }
    }

    #[test]
    fn reduce_tree_slots_partition_the_producers() {
        // Record which slot each producer's records reach at level 0 of an
        // 8-wide fanin-3 tree: slots must own disjoint contiguous groups
        // of sizes 3, 3, 2. The payload names its producer only so the
        // test can see it — routing goes by the sending subtask's index.
        let seen: std::sync::Arc<Mutex<Vec<(TreeSlot, usize)>>> =
            std::sync::Arc::new(Mutex::new(Vec::new()));
        struct Observe {
            slot: TreeSlot,
            seen: std::sync::Arc<Mutex<Vec<(TreeSlot, usize)>>>,
        }
        impl Operator<usize, usize> for Observe {
            fn process(&mut self, from: usize, out: &mut Collector<usize>) {
                self.seen.lock().unwrap().push((self.slot, from));
                out.emit(from);
            }
        }
        let sink = std::sync::Arc::clone(&seen);
        let out = Stream::source(cfg(), 8, std::iter::once)
            .reduce_tree(
                "observe",
                8,
                3,
                move |slot: TreeSlot| Observe {
                    slot,
                    seen: std::sync::Arc::clone(&sink),
                },
                |inputs| {
                    assert_eq!(inputs, 3, "⌈8/3⌉ = 3 combiners feed the finalizer");
                    map_fn(|from: usize| from)
                },
            )
            .collect_vec();
        assert_eq!(out.len(), 8);
        for (slot, from) in seen.lock().unwrap().iter() {
            assert_eq!(slot.level, 0);
            assert_eq!(from / 3, slot.subtask, "producer {from} in slot {slot:?}");
            assert_eq!(slot.inputs, 3usize.min(8 - slot.subtask * 3));
        }
    }

    #[test]
    fn instrumented_stream_records_stage_and_exchange_metrics() {
        let reg = MetricRegistry::new();
        Stream::source(cfg(), 1, |_| 0..100u64)
            .instrument(&reg)
            .apply("double", 2, Exchange::Rebalance, |_| map_fn(|x: u64| x * 2))
            .run();
        let sum =
            |metric: &str| -> u64 { (0..2).map(|i| reg.counter("double", i, metric).get()).sum() };
        assert_eq!(sum("stage_records_in_total"), 100);
        assert_eq!(sum("stage_records_out_total"), 100);
        let batches = sum("stage_batches_in_total");
        assert!(batches >= 2, "each subtask saw at least one batch");
        let samples: u64 = (0..2)
            .map(|i| {
                reg.histogram("double", i, "stage_batch_seconds")
                    .snapshot()
                    .count()
            })
            .sum();
        assert_eq!(samples, batches, "one latency sample per batch");
        let text = reg.render_prometheus();
        assert!(
            text.contains("icpe_exchange_queue_depth{stage=\"double\",subtask=\"0\"}"),
            "exchange hop into the stage is instrumented: {text}"
        );
        assert!(text.contains("stage=\"sink\""), "sink hop instrumented");
        let stages: Vec<String> = reg.stage_seconds().into_iter().map(|(s, _)| s).collect();
        assert_eq!(stages, vec!["double"]);
    }

    #[test]
    fn uninstrumented_stream_registers_nothing() {
        let reg = MetricRegistry::new();
        // No .instrument() call: the registry stays empty.
        Stream::source(cfg(), 1, |_| 0..10u64)
            .apply("noop", 1, Exchange::Rebalance, |_| map_fn(|x: u64| x))
            .run();
        assert_eq!(reg.render_prometheus(), "");
    }

    #[test]
    fn three_stage_pipeline_end_to_end() {
        let out = Stream::source(cfg(), 2, |i| (0..100u64).map(move |x| x * 2 + i as u64))
            .apply("inc", 3, Exchange::Rebalance, |_| map_fn(|x: u64| x + 1))
            .apply("key-square", 2, Exchange::key_by(|x: &u64| *x), |_| {
                map_fn(|x: u64| x * x)
            })
            .collect_vec();
        assert_eq!(out.len(), 200);
        let sum: u64 = out.iter().sum();
        let want: u64 = (0..200u64).map(|x| (x + 1) * (x + 1)).sum();
        assert_eq!(sum, want);
    }
}
