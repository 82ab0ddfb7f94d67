//! Record routing between consecutive pipeline stages.
//!
//! Since the micro-batch refactor the inter-stage channels carry
//! **batches** (`Vec<T>`) instead of single records: the [`Router`] buffers
//! keyed/round-robin records per destination and ships a whole buffer in
//! one channel operation, amortizing the send/recv synchronization that
//! otherwise dominates at high record rates. Three events flush a buffer:
//!
//! * **size** — the buffer reached the configured batch size, counted in
//!   *rows*: a record that is a vector in disguise (an ingest batch, one
//!   shard's share of a window) counts its length where the hop was
//!   declared with [`Stream::weigh`](crate::Stream::weigh), so a channel of
//!   `channel_capacity` batches holds a bounded number of rows whatever the
//!   messages carry;
//! * **idle** — the owning subtask is about to block on an empty input
//!   channel and calls [`Router::flush`] (the runtime does this), so
//!   batching never adds latency when the stream is slow;
//! * **punctuation** — any broadcast-routed record (snapshot-boundary
//!   ticks, checkpoint barriers) flushes *every* buffer before it is sent,
//!   so punctuation always lands **between** batches and the per-channel
//!   FIFO order "data before its tick/barrier" is preserved exactly as in
//!   the record-at-a-time dataflow.

use crate::envelope::Envelope;
use crate::fault::{FaultKind, FaultPlan};
use crate::obs::ExchangeObs;
use crate::routing::RoutingTable;
use crossbeam::channel::Sender;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Chaos hook on one subtask's outbound hop: consulted before every batch
/// send, keyed by the *receiving* stage's name (the same label the hop's
/// instrumentation uses), the sending subtask, and a subtask-local send
/// ordinal. See [`FaultPlan::send_fault`].
pub(crate) struct SendFault {
    plan: Arc<FaultPlan>,
    stage: String,
    subtask: usize,
    sends: Cell<u64>,
}

impl SendFault {
    pub(crate) fn new(plan: Arc<FaultPlan>, stage: &str) -> Self {
        SendFault {
            plan,
            stage: stage.to_string(),
            subtask: 0,
            sends: Cell::new(0),
        }
    }

    fn for_subtask(&self, subtask: usize) -> Self {
        SendFault {
            plan: Arc::clone(&self.plan),
            stage: self.stage.clone(),
            subtask,
            sends: Cell::new(0),
        }
    }

    /// Returns `true` when the batch about to be sent must be dropped.
    fn before_send(&self) -> bool {
        let ordinal = self.sends.get();
        self.sends.set(ordinal + 1);
        match self.plan.send_fault(&self.stage, self.subtask, ordinal) {
            Some(FaultKind::DelaySend(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                false
            }
            Some(FaultKind::DropSend) => true,
            _ => false,
        }
    }
}

/// Routing failed because the downstream stage hung up (all of its
/// receivers were dropped) — the upstream subtask should stop producing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "downstream stage disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Per-record routing decision for [`Exchange::PerRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Route to the subtask owning this key hash.
    Key(u64),
    /// Copy to every subtask (punctuation/ticks).
    Broadcast,
}

/// How records are distributed from one stage's subtasks to the next
/// stage's subtasks — the Flink exchange patterns the paper relies on.
pub enum Exchange<T> {
    /// Hash partitioning: records with equal keys go to the same subtask
    /// (Flink's `keyBy`). The closure maps a record to its key hash.
    KeyBy(Arc<dyn Fn(&T) -> u64 + Send + Sync>),
    /// Round-robin distribution (Flink's `rebalance`).
    Rebalance,
    /// Every record is copied to every subtask (requires `T: Clone`).
    Broadcast,
    /// Mixed mode: each record chooses keyed or broadcast routing — the
    /// pattern ICPE uses to interleave keyed data with broadcast
    /// snapshot-boundary ticks (Flink jobs do this with `keyBy` plus
    /// broadcast watermarks).
    PerRecord(Arc<dyn Fn(&T) -> Routing + Send + Sync>),
    /// [`Exchange::PerRecord`] whose keyed decisions consult a shared,
    /// swappable [`RoutingTable`] instead of raw `hash % N`: explicit
    /// assignments win, unmapped keys fall back to consistent hashing (an
    /// empty table routes exactly like `PerRecord`). The table is shared
    /// with a controller that installs new epochs while the dataflow runs —
    /// the adaptive half of hotspot-aware repartitioning.
    Dynamic(Arc<RoutingTable>, Arc<dyn Fn(&T) -> Routing + Send + Sync>),
    /// Tree fan-in: everything upstream subtask `i` emits goes to subtask
    /// `i / fanin` — the routing of one
    /// [`Stream::reduce_tree`](crate::Stream::reduce_tree) level. The
    /// router knows its own subtask index, so records carry no sender tag.
    FanIn(usize),
}

impl<T> Exchange<T> {
    /// Convenience constructor for [`Exchange::KeyBy`].
    pub fn key_by(f: impl Fn(&T) -> u64 + Send + Sync + 'static) -> Self {
        Exchange::KeyBy(Arc::new(f))
    }

    /// Convenience constructor for [`Exchange::PerRecord`].
    pub fn per_record(f: impl Fn(&T) -> Routing + Send + Sync + 'static) -> Self {
        Exchange::PerRecord(Arc::new(f))
    }

    /// Convenience constructor for [`Exchange::Dynamic`].
    pub fn dynamic(
        table: Arc<RoutingTable>,
        f: impl Fn(&T) -> Routing + Send + Sync + 'static,
    ) -> Self {
        Exchange::Dynamic(table, Arc::new(f))
    }
}

/// The per-record decision of every [`Envelope`] hop: data routes as
/// `route` says, punctuation broadcasts.
fn envelope_routing<D, B>(
    route: impl Fn(&D) -> Routing + Send + Sync + 'static,
) -> impl Fn(&Envelope<D, B>) -> Routing + Send + Sync + 'static {
    move |msg| match msg {
        Envelope::Data(data) => route(data),
        Envelope::Tick(_) | Envelope::Barrier(_) => Routing::Broadcast,
    }
}

impl<D, B> Exchange<Envelope<D, B>> {
    /// The exchange of a punctuated hop: `route` places each data payload
    /// (normally [`Routing::Key`]), ticks and barriers reach every subtask.
    pub fn envelope(route: impl Fn(&D) -> Routing + Send + Sync + 'static) -> Self {
        Exchange::per_record(envelope_routing(route))
    }

    /// [`Exchange::envelope`] whose keyed decisions consult a swappable
    /// [`RoutingTable`] (see [`Exchange::Dynamic`]).
    pub fn envelope_via(
        table: Arc<RoutingTable>,
        route: impl Fn(&D) -> Routing + Send + Sync + 'static,
    ) -> Self {
        Exchange::dynamic(table, envelope_routing(route))
    }
}

impl<T> Clone for Exchange<T> {
    fn clone(&self) -> Self {
        match self {
            Exchange::KeyBy(f) => Exchange::KeyBy(Arc::clone(f)),
            Exchange::Rebalance => Exchange::Rebalance,
            Exchange::Broadcast => Exchange::Broadcast,
            Exchange::PerRecord(f) => Exchange::PerRecord(Arc::clone(f)),
            Exchange::Dynamic(t, f) => Exchange::Dynamic(Arc::clone(t), Arc::clone(f)),
            Exchange::FanIn(fanin) => Exchange::FanIn(*fanin),
        }
    }
}

impl<T> std::fmt::Debug for Exchange<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exchange::KeyBy(_) => write!(f, "KeyBy"),
            Exchange::Rebalance => write!(f, "Rebalance"),
            Exchange::Broadcast => write!(f, "Broadcast"),
            Exchange::PerRecord(_) => write!(f, "PerRecord"),
            Exchange::Dynamic(t, _) => write!(f, "Dynamic(epoch {})", t.epoch()),
            Exchange::FanIn(fanin) => write!(f, "FanIn({fanin})"),
        }
    }
}

/// Where one record goes (computed before touching the buffers, so the
/// strategy borrow ends before the mutable buffer access).
enum Dest {
    Idx(usize),
    RoundRobin,
    All,
}

/// One upstream subtask's routing handle: a set of batch senders (one per
/// downstream subtask), per-destination batch buffers, and the exchange
/// strategy.
///
/// Each subtask owns its own `Router` clone so round-robin counters and
/// batch buffers are subtask-local, exactly like Flink's per-channel
/// rebalance and per-channel network buffers.
pub struct Router<T> {
    senders: Vec<Sender<Vec<T>>>,
    bufs: Vec<Vec<T>>,
    /// Rows buffered per destination: `rows` summed over the buffer.
    fill: Vec<usize>,
    strategy: Exchange<T>,
    /// Rows per destination buffer before a size flush (≥ 1; 1 restores
    /// record-at-a-time behaviour, each record its own batch).
    batch: usize,
    /// How many rows one record counts toward `batch` (see
    /// [`Stream::weigh`](crate::Stream::weigh)).
    rows: fn(&T) -> usize,
    rr: usize,
    /// The upstream subtask this clone serves ([`Exchange::FanIn`] routes
    /// on it).
    subtask: usize,
    /// Per-destination backpressure/queue-depth instrumentation, shared by
    /// every upstream subtask's clone (the counters aggregate per
    /// destination). `None` on uninstrumented dataflows: the hot path pays
    /// one branch.
    obs: Option<ExchangeObs>,
    /// Chaos hook (delay/drop a send); `None` outside chaos runs.
    fault: Option<SendFault>,
}

impl<T> Router<T> {
    pub(crate) fn new(
        senders: Vec<Sender<Vec<T>>>,
        strategy: Exchange<T>,
        batch: usize,
        rows: fn(&T) -> usize,
        obs: Option<ExchangeObs>,
    ) -> Self {
        debug_assert!(!senders.is_empty());
        Router {
            bufs: senders.iter().map(|_| Vec::new()).collect(),
            fill: vec![0; senders.len()],
            senders,
            strategy,
            batch: batch.max(1),
            rows,
            rr: 0,
            subtask: 0,
            obs,
            fault: None,
        }
    }

    /// Arms the chaos hook on this hop (builder style; template routers
    /// pass it on to every subtask clone).
    pub(crate) fn with_fault(mut self, fault: Option<SendFault>) -> Self {
        self.fault = fault;
        self
    }

    pub(crate) fn clone_for_subtask(&self, subtask: usize) -> Self {
        Router {
            senders: self.senders.clone(),
            bufs: self.senders.iter().map(|_| Vec::new()).collect(),
            fill: vec![0; self.senders.len()],
            strategy: self.strategy.clone(),
            batch: self.batch,
            rows: self.rows,
            // Stagger round-robin starts so subtasks do not all hammer
            // downstream subtask 0 first.
            rr: subtask % self.senders.len(),
            subtask,
            obs: self.obs.clone(),
            fault: self.fault.as_ref().map(|f| f.for_subtask(subtask)),
        }
    }

    /// Routes one record into its destination's batch buffer, shipping the
    /// buffer when it reaches the batch size. Broadcast-routed records
    /// flush every buffer first and then travel as their own batch, so
    /// punctuation lands between batches. Blocks when the target channel
    /// is full (backpressure). Returns `Err` when the downstream stage is
    /// gone.
    pub fn route(&mut self, record: T) -> Result<(), Disconnected>
    where
        T: Clone,
    {
        let n = self.senders.len() as u64;
        let dest = match &self.strategy {
            Exchange::KeyBy(f) => Dest::Idx((f(&record) % n) as usize),
            Exchange::Rebalance => Dest::RoundRobin,
            Exchange::Broadcast => Dest::All,
            Exchange::PerRecord(f) => match f(&record) {
                Routing::Key(k) => Dest::Idx((k % n) as usize),
                Routing::Broadcast => Dest::All,
            },
            Exchange::Dynamic(table, f) => match f(&record) {
                Routing::Key(k) => Dest::Idx(table.subtask(k, self.senders.len())),
                Routing::Broadcast => Dest::All,
            },
            Exchange::FanIn(fanin) => Dest::Idx(self.subtask / fanin),
        };
        match dest {
            Dest::Idx(idx) => self.push_to(idx, record),
            Dest::RoundRobin => {
                let idx = self.rr;
                self.rr = (self.rr + 1) % self.senders.len();
                self.push_to(idx, record)
            }
            Dest::All => self.broadcast(record),
        }
    }

    /// Ships every non-empty batch buffer downstream. The runtime calls
    /// this before a subtask blocks on an empty input channel (so batching
    /// never trades latency) and at end of stream; operators never see
    /// partial batches held back indefinitely.
    pub fn flush(&mut self) -> Result<(), Disconnected> {
        for idx in 0..self.senders.len() {
            self.flush_one(idx)?;
        }
        Ok(())
    }

    fn push_to(&mut self, idx: usize, record: T) -> Result<(), Disconnected> {
        let rows = (self.rows)(&record).max(1);
        let buf = &mut self.bufs[idx];
        if buf.capacity() == 0 {
            // Room for a full batch of records this size.
            buf.reserve_exact(self.batch.div_ceil(rows));
        }
        buf.push(record);
        self.fill[idx] += rows;
        if self.fill[idx] >= self.batch {
            self.flush_one(idx)?;
        }
        Ok(())
    }

    fn flush_one(&mut self, idx: usize) -> Result<(), Disconnected> {
        if self.bufs[idx].is_empty() {
            return Ok(());
        }
        self.fill[idx] = 0;
        let batch = std::mem::take(&mut self.bufs[idx]);
        self.send_to(idx, batch)
    }

    /// Ships one batch to destination `idx`, timing the (blocking, bounded)
    /// send and sampling the queue depth when the hop is instrumented — the
    /// per-exchange backpressure signal.
    fn send_to(&self, idx: usize, batch: Vec<T>) -> Result<(), Disconnected> {
        if let Some(fault) = &self.fault {
            if fault.before_send() {
                return Ok(()); // injected drop: the batch is lost by design
            }
        }
        match &self.obs {
            Some(obs) => {
                let started = Instant::now();
                let result = self.senders[idx].send(batch).map_err(|_| Disconnected);
                obs.sent(idx, started.elapsed(), self.senders[idx].len());
                result
            }
            None => self.senders[idx].send(batch).map_err(|_| Disconnected),
        }
    }

    fn broadcast(&mut self, record: T) -> Result<(), Disconnected>
    where
        T: Clone,
    {
        // Punctuation cut: everything routed before this record reaches
        // its subtask before the broadcast does.
        self.flush()?;
        let last = self.senders.len() - 1;
        for idx in 0..last {
            self.send_to(idx, vec![record.clone()])?;
        }
        self.send_to(last, vec![record])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, Receiver};

    fn routers_and_receivers(
        n: usize,
        strategy: Exchange<u64>,
        batch: usize,
    ) -> (Router<u64>, Vec<Receiver<Vec<u64>>>) {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| bounded(64)).unzip();
        (
            Router::new(senders, strategy, batch, |_| 1, None),
            receivers,
        )
    }

    fn drain(rx: &Receiver<Vec<u64>>) -> Vec<u64> {
        rx.try_iter().flatten().collect()
    }

    #[test]
    fn key_by_is_deterministic_per_key() {
        let (mut r, rx) = routers_and_receivers(4, Exchange::key_by(|x: &u64| *x), 2);
        for v in [5u64, 5, 5, 9, 9] {
            r.route(v).unwrap();
        }
        r.flush().unwrap();
        drop(r);
        let counts: Vec<usize> = rx.iter().map(|c| drain(c).len()).collect();
        // key 5 → subtask 1, key 9 → subtask 1 (9 % 4 = 1)... both to 1.
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert_eq!(counts[1], 5);
    }

    #[test]
    fn rebalance_spreads_evenly() {
        let (mut r, rx) = routers_and_receivers(3, Exchange::Rebalance, 4);
        for v in 0..9u64 {
            r.route(v).unwrap();
        }
        r.flush().unwrap();
        drop(r);
        for c in rx {
            assert_eq!(drain(&c).len(), 3);
        }
    }

    #[test]
    fn broadcast_copies_to_all() {
        let (mut r, rx) = routers_and_receivers(3, Exchange::Broadcast, 8);
        r.route(7).unwrap();
        r.route(8).unwrap();
        drop(r);
        for c in rx {
            assert_eq!(drain(&c), vec![7, 8]);
        }
    }

    #[test]
    fn per_record_mixes_keyed_and_broadcast() {
        // Even records keyed, odd records broadcast.
        let (mut r, rx) = routers_and_receivers(
            3,
            Exchange::per_record(|x: &u64| {
                if x.is_multiple_of(2) {
                    Routing::Key(*x)
                } else {
                    Routing::Broadcast
                }
            }),
            16,
        );
        r.route(6).unwrap(); // key 6 → subtask 0 (buffered)
        r.route(1).unwrap(); // broadcast: flushes the buffer first
        drop(r);
        let got: Vec<Vec<u64>> = rx.iter().map(drain).collect();
        assert_eq!(got[0], vec![6, 1], "buffered data precedes punctuation");
        assert_eq!(got[1], vec![1]);
        assert_eq!(got[2], vec![1]);
    }

    #[test]
    fn size_flush_ships_full_batches_without_explicit_flush() {
        let (mut r, rx) = routers_and_receivers(1, Exchange::key_by(|_| 0), 3);
        for v in 0..6u64 {
            r.route(v).unwrap();
        }
        // Two full batches of 3 shipped by size alone.
        let batches: Vec<Vec<u64>> = rx[0].try_iter().collect();
        assert_eq!(batches, vec![vec![0, 1, 2], vec![3, 4, 5]]);
        r.route(6).unwrap();
        assert_eq!(rx[0].try_iter().count(), 0, "partial batch stays buffered");
        r.flush().unwrap();
        assert_eq!(rx[0].try_iter().collect::<Vec<_>>(), vec![vec![6]]);
    }

    #[test]
    fn weighed_records_fill_a_batch_by_their_rows() {
        // Batch size 4 rows; a record weighs its length.
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..1).map(|_| bounded::<Vec<Vec<u8>>>(8)).unzip();
        let mut r = Router::new(senders, Exchange::Rebalance, 4, Vec::len, None);
        r.route(vec![0; 3]).unwrap(); // 3 rows: buffered
        r.route(vec![0; 2]).unwrap(); // 5 rows ≥ 4: both ship
        r.route(vec![0; 9]).unwrap(); // a record past the batch size ships alone
        r.route(vec![]).unwrap(); // an empty record still counts one row
        let shipped: Vec<Vec<usize>> = receivers[0]
            .try_iter()
            .map(|batch| batch.iter().map(Vec::len).collect())
            .collect();
        assert_eq!(shipped, vec![vec![3, 2], vec![9]]);
        r.flush().unwrap();
        assert_eq!(
            receivers[0].try_iter().count(),
            1,
            "the empty record waited"
        );
    }

    #[test]
    fn dynamic_follows_table_swaps_and_falls_back() {
        let table = Arc::new(RoutingTable::new());
        let (mut r, rx) = routers_and_receivers(
            4,
            Exchange::dynamic(Arc::clone(&table), |x: &u64| {
                if *x == u64::MAX {
                    Routing::Broadcast
                } else {
                    Routing::Key(*x)
                }
            }),
            1,
        );
        r.route(6).unwrap(); // unmapped: hash fallback 6 % 4 = 2
        table.install(1, std::collections::HashMap::from([(6u64, 0usize)]));
        r.route(6).unwrap(); // mapped: subtask 0
        r.route(u64::MAX).unwrap(); // broadcast unaffected by the table
        drop(r);
        let got: Vec<Vec<u64>> = rx.iter().map(drain).collect();
        assert_eq!(got[0], vec![6, u64::MAX]);
        assert_eq!(got[2], vec![6, u64::MAX]);
        assert_eq!(got[1], vec![u64::MAX]);
        assert_eq!(got[3], vec![u64::MAX]);
    }

    #[test]
    fn route_fails_when_downstream_dropped() {
        let (mut r, rx) = routers_and_receivers(2, Exchange::Rebalance, 1);
        drop(rx);
        assert!(r.route(1).is_err());
    }

    #[test]
    fn instrumented_router_counts_blocked_sends_and_depth() {
        let reg = crate::obs::MetricRegistry::new();
        let obs = ExchangeObs::new(&reg, "down", 2);
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..2).map(|_| bounded::<Vec<u64>>(64)).unzip();
        let mut r = Router::new(senders, Exchange::key_by(|x: &u64| *x), 2, |_| 1, Some(obs));
        for v in [0u64, 0, 0, 1, 1] {
            r.route(v).unwrap();
        }
        r.flush().unwrap();
        // Destination 0 received two batches ([0,0] by size, [0] by flush),
        // destination 1 one batch; depth gauges saw the queue afterwards.
        assert_eq!(receivers[0].len(), 2);
        assert_eq!(reg.gauge("down", 0, "exchange_queue_depth").get(), 2);
        assert_eq!(reg.gauge("down", 1, "exchange_queue_depth").get(), 1);
        // The send timer ran (value may round to zero ns on a fast path,
        // so just assert the series exists via a second handle).
        let _ = reg
            .counter("down", 0, "exchange_blocked_seconds_total")
            .get();
    }

    #[test]
    fn send_faults_drop_exactly_the_keyed_batch() {
        let plan = FaultPlan::new()
            .point("down", 0, 0, FaultKind::DropSend)
            .point("down", 0, 1, FaultKind::DelaySend(1))
            .build();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..1).map(|_| bounded::<Vec<u64>>(8)).unzip();
        let template = Router::new(senders, Exchange::Rebalance, 2, |_| 1, None)
            .with_fault(Some(SendFault::new(plan, "down")));
        let mut r = template.clone_for_subtask(0);
        drop(template);
        r.route(1).unwrap();
        r.route(2).unwrap(); // size flush → send #0 → injected drop
        r.route(3).unwrap();
        r.flush().unwrap(); // send #1 → delayed, then delivered
        r.route(4).unwrap();
        r.flush().unwrap(); // send #2 → plan exhausted, normal
        drop(r);
        assert_eq!(drain(&receivers[0]), vec![3, 4], "batch [1,2] was dropped");
    }

    #[test]
    fn subtask_clones_stagger_round_robin() {
        let (r, rx) = routers_and_receivers(2, Exchange::Rebalance, 1);
        let mut r0 = r.clone_for_subtask(0);
        let mut r1 = r.clone_for_subtask(1);
        r0.route(10).unwrap(); // → subtask 0
        r1.route(20).unwrap(); // → subtask 1 (staggered start)
        drop((r, r0, r1));
        assert_eq!(drain(&rx[0]), vec![10]);
        assert_eq!(drain(&rx[1]), vec![20]);
    }
}
