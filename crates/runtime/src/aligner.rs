//! Stream time synchronization via *"last time"* chaining (paper §4).
//!
//! Flink does not deliver records in global time order, but pattern
//! detection must process snapshots in ascending time order. The paper's
//! mechanism: every record carries the discretized time of its trajectory's
//! *previous* report. Chaining these links tells the system, per trajectory,
//! through which time its reports are fully known — and therefore when a
//! snapshot can no longer gain members and may be sealed.
//!
//! Example from the paper: for records `r1, r3` of one trajectory where
//! `r3.last_time = 2`, the system must keep waiting for `r2`; but if
//! `r5.last_time = 3`, no record was reported at time 4 and the system need
//! not wait for one.
//!
//! A time `u` is sealed when (a) some record with a strictly later time has
//! been witnessed (so `u` is in the past of the stream) and (b) every known
//! trajectory either is clarified through `u` or has lagged out (see
//! [`AlignerConfig::max_lag`]).
//!
//! A record without a link (a trajectory's first report, or a source that
//! sends none, such as the serve edge) starts or extends its trajectory's
//! live chain at its own time. In arrival order that is exactly the link a
//! per-trajectory stamper would have written, so the chains are the only
//! per-trajectory state: a link-less record whose live chain is already
//! clarified through its tick is a duplicate (a second report in one
//! interval, or a stale one) and is rejected and counted, not buffered.

use icpe_types::shard::{hash_id, subtask_for};
use icpe_types::{AlignerCheckpoint, ChainCheckpoint, GpsRecord, ObjectId, Snapshot, Timestamp};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Configuration of the [`TimeAligner`].
#[derive(Debug, Clone, Copy)]
pub struct AlignerConfig {
    /// A trajectory whose clarified time lags more than this many intervals
    /// behind the newest witnessed time is considered departed and stops
    /// blocking progress. (Unbounded waiting would stall the stream when a
    /// device goes offline; Flink jobs use idle-source timeouts the same
    /// way.)
    pub max_lag: u32,
    /// Emit empty snapshots for times at which no object reported. Keeps the
    /// snapshot stream dense in time, which the enumeration engines rely on
    /// for gap bookkeeping.
    pub emit_empty: bool,
    /// Extra intervals a time stays open beyond the newest witnessed time.
    /// The *last-time* chaining decides exactly when **known** trajectories
    /// are complete, but a trajectory's very first record carries no link —
    /// only this watermark-style allowance protects it from arriving after
    /// its snapshot sealed.
    pub lateness: u32,
}

impl Default for AlignerConfig {
    fn default() -> Self {
        AlignerConfig {
            max_lag: 16,
            emit_empty: true,
            lateness: 2,
        }
    }
}

/// Per-trajectory chaining state.
#[derive(Debug, Default)]
struct Chain {
    /// Largest time through which this trajectory's reports are fully known.
    clarified: Option<u32>,
    /// Received records whose `last_time` link has not connected yet,
    /// keyed by that `last_time` (value: the record's own time).
    waiting: BTreeMap<u32, u32>,
}

/// Buffers out-of-order [`GpsRecord`]s and seals [`Snapshot`]s in strictly
/// increasing time order once their membership can no longer change.
///
/// A one-shard [`ShardedAligner`] decides every drop and seal; this type
/// adds the rows. So the serial and the sharded head share one seal loop,
/// and the sharded head's output equals this one's by construction.
#[derive(Debug)]
pub struct TimeAligner {
    router: ShardedAligner,
    /// Buffered (not yet sealed) snapshot contents by time.
    buffers: BTreeMap<u32, Snapshot>,
    /// Reused scratch: the times the router sealed on the current push.
    sealed: Vec<u32>,
}

impl TimeAligner {
    /// Creates an aligner.
    pub fn new(config: AlignerConfig) -> Self {
        TimeAligner {
            router: ShardedAligner::new(config, 1),
            buffers: BTreeMap::new(),
            sealed: Vec::new(),
        }
    }

    /// Ingests one record; returns any snapshots that became sealable,
    /// in ascending time order. Allocation-free callers (the vectorized
    /// align stage) use [`TimeAligner::push_into`] with a reused buffer.
    pub fn push(&mut self, rec: GpsRecord) -> Vec<Snapshot> {
        let mut out = Vec::new();
        self.push_into(rec, &mut out);
        out
    }

    /// Ingests one record, appending any snapshots that became sealable to
    /// `out` in ascending time order — [`TimeAligner::push`] without the
    /// per-record result vector, for batch processing with reused scratch.
    /// A record below the sealed frontier is dropped (and counted; see
    /// [`TimeAligner::late_dropped`]), and so is a link-less duplicate
    /// (see [`TimeAligner::duplicates`]).
    pub fn push_into(&mut self, rec: GpsRecord, out: &mut Vec<Snapshot>) {
        if !matches!(self.router.route(&rec), Routed::Keep { .. }) {
            return;
        }
        self.buffers
            .entry(rec.time.0)
            .or_insert_with(|| Snapshot::new(rec.time))
            .push(rec.id, rec.location, rec.last_time);
        self.router.drain_sealed(&mut self.sealed);
        for u in self.sealed.drain(..) {
            out.push(take_snapshot(&mut self.buffers, u));
        }
    }

    /// Seals everything still buffered (end of stream).
    pub fn flush(&mut self) -> Vec<Snapshot> {
        let times = self.router.flush_times();
        times
            .into_iter()
            .map(|u| take_snapshot(&mut self.buffers, u))
            .collect()
    }

    /// Number of buffered (unsealed) snapshots.
    pub fn pending(&self) -> usize {
        self.buffers.len()
    }

    /// How many records were dropped for arriving after their snapshot
    /// sealed. Dropping is deterministic: a record is late iff its time is
    /// below the sealed frontier at arrival, regardless of thread timing.
    pub fn late_dropped(&self) -> u64 {
        self.router.late_dropped_total()
    }

    /// How many link-less records were rejected because their
    /// trajectory's live chain was already clarified through their tick.
    pub fn duplicates(&self) -> u64 {
        self.router.duplicates()
    }

    /// Captures the aligner's full state in durable, canonical form:
    /// buffered snapshots ascend by time, chains by trajectory id, waiting
    /// links by `last_time` — so the checkpoint bytes are a pure function
    /// of the logical state (serialize → restore → serialize is
    /// byte-identical).
    pub fn checkpoint(&self) -> AlignerCheckpoint {
        AlignerCheckpoint {
            buffers: self.buffers.values().cloned().collect(),
            ..self.router.checkpoint()
        }
    }

    /// Rebuilds an aligner from a checkpoint; behaviour on subsequent
    /// records is identical to the aligner the checkpoint was taken from
    /// (including the late-drop counter, which must not reset to zero).
    pub fn from_checkpoint(config: AlignerConfig, ckpt: &AlignerCheckpoint) -> Self {
        TimeAligner {
            router: ShardedAligner::from_checkpoint(config, 1, ckpt),
            // The router tracks non-empty times only, as a live aligner
            // buffers them.
            buffers: ckpt
                .buffers
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| (s.time.0, s.clone()))
                .collect(),
            sealed: Vec::new(),
        }
    }
}

/// The sealed snapshot at `u`: its buffered rows, or an empty snapshot for
/// an `emit_empty` gap.
fn take_snapshot(buffers: &mut BTreeMap<u32, Snapshot>, u: u32) -> Snapshot {
    buffers
        .remove(&u)
        .unwrap_or_else(|| Snapshot::new(Timestamp(u)))
}

impl Chain {
    /// The clarified time as the seal test reads it: a chain that has only
    /// waiting links so far counts as clarified through 0.
    fn clarified_or_zero(&self) -> u32 {
        self.clarified.unwrap_or(0)
    }

    /// Whether this chain is clarified through `rec`'s tick.
    fn covers(&self, rec: &GpsRecord) -> bool {
        self.clarified.is_some_and(|c| c >= rec.time.0)
    }

    /// Advances the clarification chain with one record's last-time link.
    fn advance(&mut self, rec: &GpsRecord) {
        let t = rec.time.0;
        match rec.last_time {
            // First report of the trajectory: the chain starts here.
            None => self.clarified = Some(self.clarified.map_or(t, |c| c.max(t))),
            Some(lt) => match self.clarified {
                Some(c) if lt.0 == c => self.clarified = Some(t),
                Some(c) if lt.0 < c => {
                    // Link points below the clarified frontier (predecessor
                    // was dropped after a retirement): fast-forward.
                    self.clarified = Some(c.max(t));
                }
                _ => {
                    self.waiting.insert(lt.0, t);
                }
            },
        }
        // Consume any waiting links that now connect.
        while let Some(c) = self.clarified {
            match self.waiting.remove(&c) {
                Some(next_t) => self.clarified = Some(next_t),
                None => break,
            }
        }
    }

    fn checkpoint(&self, id: ObjectId) -> ChainCheckpoint {
        ChainCheckpoint {
            id,
            clarified: self.clarified,
            waiting: self.waiting.iter().map(|(&lt, &t)| (lt, t)).collect(),
        }
    }
}

/// Whether a chain clarified through `clarified` has lagged out: its known
/// end is more than `max_lag` behind the newest witnessed time. Monotone in
/// `clarified` — if a chain has not lagged out, none ahead of it has.
fn lagged_out(clarified: u32, max_lag: u32, max_seen: u32) -> bool {
    clarified.saturating_add(max_lag) < max_seen
}

/// One map of §4 chains plus its **frontier index**: how many live chains
/// sit at each clarified time. The seal test asks "is any chain behind
/// `u`, and has it lagged out?" — a question about the smallest clarified
/// time only, which the index answers without visiting a chain. Owned by
/// [`ShardedAligner`], one per shard ([`TimeAligner`] runs a one-shard
/// router). Derived state: checkpoints carry the chains,
/// [`ChainIndex::restore`] recounts.
#[derive(Debug, Default)]
struct ChainIndex {
    chains: HashMap<ObjectId, Chain>,
    /// Live chains per [`Chain::clarified_or_zero`]; the first key is the
    /// chain furthest behind.
    by_clarified: BTreeMap<u32, u32>,
    /// Chains visited by retirement passes — the work the index exists to
    /// avoid, counted so a test can hold it to O(records).
    #[cfg(test)]
    visited: u64,
}

impl ChainIndex {
    /// Whether `rec` is a link-less report its trajectory's live chain
    /// already covers — a duplicate.
    fn covers(&self, rec: &GpsRecord) -> bool {
        rec.last_time.is_none() && self.chains.get(&rec.id).is_some_and(|c| c.covers(rec))
    }

    /// Advances (creating it if need be) the chain of `rec`'s trajectory,
    /// moving it between index buckets when its clarified time changes.
    fn advance(&mut self, rec: &GpsRecord) {
        let (chain, before) = match self.chains.entry(rec.id) {
            Entry::Occupied(e) => {
                let chain = e.into_mut();
                let before = chain.clarified_or_zero();
                (chain, Some(before))
            }
            Entry::Vacant(e) => (e.insert(Chain::default()), None),
        };
        chain.advance(rec);
        let after = chain.clarified_or_zero();
        if before == Some(after) {
            return;
        }
        if let Some(before) = before {
            self.uncount(before);
        }
        self.count(after);
    }

    fn count(&mut self, clarified: u32) {
        *self.by_clarified.entry(clarified).or_insert(0) += 1;
    }

    fn uncount(&mut self, clarified: u32) {
        let n = self
            .by_clarified
            .get_mut(&clarified)
            .expect("every live chain is counted at its clarified time");
        *n -= 1;
        if *n == 0 {
            self.by_clarified.remove(&clarified);
        }
    }

    /// The §4 retire-or-block test for candidate seal time `u`: whether any
    /// chain blocks the seal, retiring (removing) the chains behind `u`
    /// that have lagged out. Observably the full scan it replaces — visit
    /// every chain, drop the lagged-out ones behind `u`, report whether a
    /// live one remains behind `u` — but since lagging out is monotone in
    /// the clarified time, the smallest index key decides: at or past `u`,
    /// nothing is behind; behind but live, it blocks and nothing can
    /// retire; only a lagged-out smallest bucket needs the pass over the
    /// chains, which then removes at least one. The test is pure per chain,
    /// so OR-ing it over a partition of the chains equals running it over
    /// their union.
    fn blocks(&mut self, u: u32, max_lag: u32, max_seen: u32) -> bool {
        let Some(slowest) = self.slowest_behind(u) else {
            return false;
        };
        if !lagged_out(slowest, max_lag, max_seen) {
            return true;
        }
        // A chain whose newest *known* report is also ancient is departed;
        // one whose clarified end is ancient but whose frontier is recent
        // is stuck on a lost link — retire it too, otherwise it would
        // stall the stream forever.
        #[cfg(test)]
        {
            self.visited += self.chains.len() as u64;
        }
        let retired = |clarified: u32| clarified < u && lagged_out(clarified, max_lag, max_seen);
        self.chains
            .retain(|_, chain| !retired(chain.clarified_or_zero()));
        while let Some(bucket) = self.by_clarified.first_entry() {
            if !retired(*bucket.key()) {
                break;
            }
            bucket.remove();
        }
        self.slowest_behind(u).is_some()
    }

    /// The smallest clarified time of a live chain, if it is behind `u`.
    fn slowest_behind(&self, u: u32) -> Option<u32> {
        self.by_clarified.keys().next().copied().filter(|&c| c < u)
    }

    /// The first time this map's own chains could still block: one past the
    /// slowest chain that has not lagged out, `cap` when there is none.
    fn frontier(&self, cap: u32, max_lag: u32, max_seen: u32) -> u32 {
        // `lagged_out` without the saturation: the live keys are exactly
        // those at or past `max_seen - max_lag`.
        self.by_clarified
            .range(max_seen.saturating_sub(max_lag)..)
            .next()
            .map_or(cap, |(&slowest, _)| cap.min(slowest.saturating_add(1)))
    }

    fn len(&self) -> usize {
        self.chains.len()
    }

    fn checkpoint(&self) -> impl Iterator<Item = ChainCheckpoint> + '_ {
        self.chains.iter().map(|(&id, chain)| chain.checkpoint(id))
    }

    /// Re-inserts a checkpointed chain, counting it into the index.
    fn restore(&mut self, c: &ChainCheckpoint) {
        let chain = Chain {
            clarified: c.clarified,
            waiting: c.waiting.iter().copied().collect(),
        };
        self.count(chain.clarified_or_zero());
        self.chains.insert(c.id, chain);
    }
}

/// Routing decision of [`ShardedAligner::route`] for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// Buffer the record's row on this aligner shard.
    Keep {
        /// Destination shard, `hash_id(object_id) % shards`.
        shard: usize,
    },
    /// The record arrived after its snapshot sealed: drop the row. The
    /// chain advance already happened in the owning shard's map (the
    /// record's synchronization information stays valid), and the drop was
    /// counted against that shard.
    Late {
        /// Shard whose late counter absorbed the drop.
        shard: usize,
    },
    /// A link-less record whose trajectory's live chain is already
    /// clarified through its tick: a duplicate or stale report. Dropped
    /// and counted; the chain is untouched.
    Duplicate,
}

/// The sharded head's frontier router: the serial [`TimeAligner`] minus the
/// row buffers (a [`TimeAligner`] is this router with one shard, plus its
/// rows).
///
/// Sharding the aligner splits its state in two. The *rows* of each
/// buffered snapshot partition cleanly by trajectory id and live on the N
/// aligner shards. The *seal decision* does not: a record is late iff its
/// time is below the **global** sealed frontier at the moment it enters the
/// stream, and that frontier is the min over every trajectory's chain — so
/// the §4 chain state is partitioned per shard *inside* this router, which
/// runs serially at the ingest point, and seal = min over the per-shard
/// frontiers. (Deciding drops against per-shard local frontiers would drop
/// records the serial aligner keeps whenever one shard runs ahead; deciding
/// them downstream would make the outcome depend on thread timing.)
///
/// Per record the router answers "which shard, or late?" via
/// [`route`](ShardedAligner::route); after kept records,
/// [`drain_sealed`](ShardedAligner::drain_sealed) yields the times that
/// became sealable — the `Seal` punctuation broadcast to the shards, which
/// then emit their partial snapshots for merging. The sequence of sealed
/// times and every drop decision are bit-for-bit the serial aligner's:
/// both heads run the very same `ChainIndex`, and the per-shard seal test
/// unions to the serial one.
#[derive(Debug)]
pub struct ShardedAligner {
    config: AlignerConfig,
    shards: usize,
    /// §4 chains, partitioned by `hash_id(object_id) % shards` — the same
    /// key the aligner shards buffer rows under.
    chains: Vec<ChainIndex>,
    /// Times with at least one buffered row on some shard. Presence is all
    /// the router needs: the serial aligner only ever buffers non-empty
    /// snapshots, so `occupied` mirrors its `buffers.keys()` exactly.
    occupied: BTreeSet<u32>,
    /// All times `< sealed_up_to` are sealed; `None` until the first seal.
    sealed_up_to: Option<u32>,
    /// Largest record time seen.
    max_seen: u32,
    /// Late drops per shard. The decision is the router's, but the count is
    /// attributed to the shard owning the trajectory so gauges and
    /// checkpoint pieces mirror a per-shard deployment; the serial count is
    /// the sum.
    late_dropped: Vec<u64>,
    /// Link-less records rejected as duplicates ([`Routed::Duplicate`]).
    duplicates: u64,
}

impl ShardedAligner {
    /// Creates a router for `shards` aligner shards (clamped to ≥ 1).
    pub fn new(config: AlignerConfig, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedAligner {
            config,
            shards,
            chains: (0..shards).map(|_| ChainIndex::default()).collect(),
            occupied: BTreeSet::new(),
            sealed_up_to: None,
            max_seen: 0,
            late_dropped: vec![0; shards],
            duplicates: 0,
        }
    }

    /// Number of aligner shards this router feeds.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning a trajectory's rows and chain (no hash with one
    /// shard).
    pub fn shard_of(&self, id: ObjectId) -> usize {
        if self.shards == 1 {
            0
        } else {
            subtask_for(hash_id(id), self.shards)
        }
    }

    /// Routes one record: the late test and the chain advance of
    /// [`TimeAligner::push_into`], which runs this very method. The caller
    /// forwards `Keep` rows to their shard, then calls
    /// [`drain_sealed`](ShardedAligner::drain_sealed) — once per record, in
    /// arrival order, exactly as the serial aligner drains after every
    /// kept record (drain frequency affects chain retirement timing, so it
    /// is part of the equivalence contract).
    pub fn route(&mut self, rec: &GpsRecord) -> Routed {
        let t = rec.time.0;
        let shard = self.shard_of(rec.id);
        // The duplicate test comes first, so a stale tick of a live
        // trajectory is a duplicate whether or not its window has sealed.
        if self.chains[shard].covers(rec) {
            self.duplicates += 1;
            return Routed::Duplicate;
        }
        if let Some(s) = self.sealed_up_to {
            if t < s {
                // Arrived after its snapshot was sealed (lag exceeded):
                // dropped, deterministically, and counted. The record's
                // *synchronization information* stays valid — advancing the
                // chain keeps the trajectory's later records from waiting
                // forever on a link that will never connect (which would
                // stall sealing until retirement).
                self.late_dropped[shard] += 1;
                self.chains[shard].advance(rec);
                return Routed::Late { shard };
            }
        }
        self.max_seen = self.max_seen.max(t);
        self.occupied.insert(t);
        self.chains[shard].advance(rec);
        Routed::Keep { shard }
    }

    /// Appends the times that became sealable, ascending — the seal loop
    /// [`TimeAligner::push_into`] runs too. A listed time is either
    /// occupied (some shard holds rows for it) or an `emit_empty` gap; with
    /// `emit_empty` off, unoccupied times seal silently and are not listed.
    pub fn drain_sealed(&mut self, out: &mut Vec<u32>) {
        loop {
            let u = match self.sealed_up_to {
                Some(s) => s,
                // Nothing sealed yet: start at the earliest buffered time.
                None => match self.occupied.iter().next() {
                    Some(&t) => t,
                    None => break,
                },
            };
            if !self.can_seal(u) {
                break;
            }
            if self.occupied.remove(&u) || self.config.emit_empty {
                out.push(u);
            }
            self.sealed_up_to = Some(u + 1);
        }
    }

    fn can_seal(&mut self, u: u32) -> bool {
        if u.saturating_add(self.config.lateness) >= self.max_seen {
            return false;
        }
        // Every shard runs the test, blocked or not: it is also what
        // retires that shard's lagged-out chains.
        let mut blocked = false;
        for chains in &mut self.chains {
            blocked |= chains.blocks(u, self.config.max_lag, self.max_seen);
        }
        !blocked
    }

    /// Seals everything still buffered (end of stream), returning the times
    /// to emit in ascending order, including the `emit_empty` gap times.
    pub fn flush_times(&mut self) -> Vec<u32> {
        let mut out = Vec::new();
        let times: Vec<u32> = self.occupied.iter().copied().collect();
        for t in times {
            if self.config.emit_empty {
                if let Some(s) = self.sealed_up_to {
                    out.extend(s..t);
                }
            }
            self.occupied.remove(&t);
            out.push(t);
            self.sealed_up_to = Some(t + 1);
        }
        out
    }

    /// Number of buffered (unsealed) snapshot times across all shards.
    pub fn pending(&self) -> usize {
        self.occupied.len()
    }

    /// Total late drops across shards — equals the serial aligner's count
    /// on the same stream.
    pub fn late_dropped_total(&self) -> u64 {
        self.late_dropped.iter().sum()
    }

    /// Late drops attributed to one shard.
    pub fn shard_late_dropped(&self, shard: usize) -> u64 {
        self.late_dropped[shard]
    }

    /// Link-less records rejected as duplicates so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// The sealed frontier: all times `< sealed_up_to` are sealed.
    pub fn sealed_up_to(&self) -> Option<u32> {
        self.sealed_up_to
    }

    /// `(total, max per shard)` live chain counts.
    pub fn chain_counts(&self) -> (u64, u64) {
        let mut total = 0u64;
        let mut max = 0u64;
        for chains in &self.chains {
            let n = chains.len() as u64;
            total += n;
            max = max.max(n);
        }
        (total, max)
    }

    /// `(min, max)` of the per-shard frontiers — the first time each
    /// shard's own chains could still block. Gauge-only (the seal decision
    /// never reads this): a shard's frontier is capped by the lateness
    /// watermark and held back by its slowest chain that has not lagged
    /// out, so the spread is a live measure of shard skew. One index lookup
    /// per shard.
    pub fn frontier_range(&self) -> (u32, u32) {
        let cap = self.max_seen.saturating_sub(self.config.lateness);
        let frontiers = self
            .chains
            .iter()
            .map(|chains| chains.frontier(cap, self.config.max_lag, self.max_seen));
        let min_f = frontiers.clone().min().unwrap_or(0);
        (min_f, frontiers.max().unwrap_or(0))
    }

    /// The router's checkpoint piece: chains (canonically sorted), clock
    /// fields, and the summed drop counters — everything except the buffered
    /// rows, which the aligner shards deposit as their own pieces.
    /// [`AlignerCheckpoint::merge`] of the router piece plus the shard
    /// pieces reproduces the serial aligner's checkpoint of the same state.
    pub fn checkpoint(&self) -> AlignerCheckpoint {
        let mut chains: Vec<ChainCheckpoint> = self
            .chains
            .iter()
            .flat_map(|shard| shard.checkpoint())
            .collect();
        chains.sort_by_key(|c| c.id);
        AlignerCheckpoint {
            buffers: Vec::new(),
            chains,
            sealed_up_to: self.sealed_up_to,
            max_seen: self.max_seen,
            late_dropped: self.late_dropped_total(),
            duplicates: self.duplicates,
        }
    }

    /// Rebuilds a router from a (merged) checkpoint onto `shards` shards —
    /// possibly a different count than the checkpoint was written under:
    /// chains rebucket by the hash, `occupied` rebuilds from the buffered
    /// times, and the late counter is credited to shard 0 **only**. The
    /// counter is a merged total; splitting or replicating it across shards
    /// would multiply it at the next merge, so exactly one shard carries
    /// it.
    pub fn from_checkpoint(config: AlignerConfig, shards: usize, ckpt: &AlignerCheckpoint) -> Self {
        let shards = shards.max(1);
        let mut chains: Vec<ChainIndex> = (0..shards).map(|_| ChainIndex::default()).collect();
        for c in &ckpt.chains {
            chains[subtask_for(hash_id(c.id), shards)].restore(c);
        }
        let mut late_dropped = vec![0; shards];
        late_dropped[0] = ckpt.late_dropped;
        ShardedAligner {
            config,
            shards,
            chains,
            occupied: ckpt
                .buffers
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| s.time.0)
                .collect(),
            sealed_up_to: ckpt.sealed_up_to,
            max_seen: ckpt.max_seen,
            late_dropped,
            duplicates: ckpt.duplicates,
        }
    }
}

/// Point-in-time view of the sharded aligner head, for STATUS/METRICS.
/// `Default` is the zeroed view of a head that has seen nothing yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlignerStatus {
    /// Number of aligner shards (the head's parallelism).
    pub shards: usize,
    /// Live trajectory chains across all shards.
    pub chains: u64,
    /// Chains on the most loaded shard.
    pub max_shard_chains: u64,
    /// Records dropped for arriving after their snapshot sealed.
    pub late_dropped: u64,
    /// Link-less records rejected as duplicates of their live chain.
    pub duplicates: u64,
    /// The sealed frontier (0 until the first seal).
    pub sealed_up_to: u64,
    /// Smallest per-shard frontier — the shard holding sealing back.
    pub min_shard_frontier: u64,
    /// Largest per-shard frontier — the shard running furthest ahead.
    pub max_shard_frontier: u64,
}

impl AlignerStatus {
    /// Chain-count skew: max shard load over the ideal even share. 1.0 is
    /// perfectly balanced; `shards` is everything on one shard.
    pub fn imbalance(&self) -> f64 {
        if self.chains == 0 {
            1.0
        } else {
            self.max_shard_chains as f64 * self.shards as f64 / self.chains as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_types::Point;

    fn rec(id: u32, t: u32, last: Option<u32>) -> GpsRecord {
        GpsRecord::new(
            ObjectId(id),
            Point::new(t as f64, id as f64),
            Timestamp(t),
            last.map(Timestamp),
        )
    }

    fn aligner() -> TimeAligner {
        TimeAligner::new(AlignerConfig {
            max_lag: 100,
            emit_empty: true,
            lateness: 0,
        })
    }

    #[test]
    fn in_order_single_object_seals_previous_times() {
        let mut a = aligner();
        // Time 0 cannot seal yet: nothing newer witnessed.
        assert!(a.push(rec(1, 0, None)).is_empty());
        let out = a.push(rec(1, 1, Some(0)));
        // Time 0 is now complete (object 1 clarified through 1).
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, Timestamp(0));
        assert_eq!(out[0].len(), 1);
    }

    #[test]
    fn paper_example_waits_for_r2_but_not_r4() {
        let mut a = aligner();
        // tr = {r1, r2, r3, r5}; receive r1 then r3 (r3.last_time = 2).
        assert!(a.push(rec(1, 1, None)).is_empty());
        let out = a.push(rec(1, 3, Some(2)));
        // Snapshot 1 seals (r2 cannot change it), but snapshot 2 must wait
        // for the still-missing r2.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, Timestamp(1));

        // r2 arrives: chain connects 1→2→3; snapshot 2 seals.
        let out = a.push(rec(1, 2, Some(1)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, Timestamp(2));

        // r5 with last_time 3: no record was reported at time 4, so the
        // system does not wait — snapshot 3 and the empty snapshot 4 seal.
        let out = a.push(rec(1, 5, Some(3)));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].time, Timestamp(3));
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[1].time, Timestamp(4));
        assert!(out[1].is_empty());
    }

    #[test]
    fn two_objects_block_until_both_clarified() {
        let mut a = aligner();
        a.push(rec(1, 0, None));
        a.push(rec(2, 0, None));
        let out = a.push(rec(1, 1, Some(0)));
        assert_eq!(out.len(), 1, "time 0 sealable: both clarified ≥ 0");
        assert_eq!(out[0].time, Timestamp(0));
        assert_eq!(out[0].len(), 2);

        let out = a.push(rec(1, 2, Some(1)));
        assert!(out.is_empty(), "time 1 blocked by object 2");

        let out = a.push(rec(2, 1, Some(0)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, Timestamp(1));
        assert_eq!(out[0].len(), 2);
    }

    #[test]
    fn out_of_order_across_objects_is_reordered() {
        let mut a = aligner();
        let mut sealed = Vec::new();
        sealed.extend(a.push(rec(2, 1, None)));
        sealed.extend(a.push(rec(1, 0, None)));
        sealed.extend(a.push(rec(1, 1, Some(0))));
        sealed.extend(a.push(rec(2, 2, Some(1))));
        sealed.extend(a.push(rec(1, 2, Some(1))));
        sealed.extend(a.flush());
        let times: Vec<u32> = sealed.iter().map(|s| s.time.0).collect();
        assert_eq!(times, vec![0, 1, 2], "sealed in ascending order");
        // Snapshot 1 contains both objects despite reversed arrival.
        assert_eq!(sealed[1].len(), 2);
    }

    #[test]
    fn out_of_order_within_object_chains_via_last_time() {
        let mut a = aligner();
        assert!(a.push(rec(1, 0, None)).is_empty());
        // Records at times 2 and 3 arrive before the record at time 1.
        let out = a.push(rec(1, 2, Some(1)));
        // Snapshot 0 seals (the object is clarified through 0 and time 2 was
        // witnessed); snapshots 1 and 2 must wait for the missing link.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].time, Timestamp(0));
        assert!(a.push(rec(1, 3, Some(2))).is_empty());
        let out = a.push(rec(1, 1, Some(0)));
        // Chain connects 0→1→2→3: snapshots 1 and 2 seal.
        let times: Vec<u32> = out.iter().map(|s| s.time.0).collect();
        assert_eq!(times, vec![1, 2]);
    }

    #[test]
    fn lagging_object_is_retired_after_max_lag() {
        let mut a = TimeAligner::new(AlignerConfig {
            max_lag: 3,
            emit_empty: true,
            lateness: 0,
        });
        a.push(rec(1, 0, None));
        a.push(rec(2, 0, None));
        // Object 1 keeps reporting; object 2 goes silent.
        let mut sealed = Vec::new();
        for t in 1..10 {
            sealed.extend(a.push(rec(1, t, Some(t - 1))));
        }
        assert!(
            sealed.iter().any(|s| s.time.0 >= 4),
            "sealing resumed past the lagged object, sealed: {:?}",
            sealed.iter().map(|s| s.time.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn flush_seals_remaining_buffered_times_with_gaps() {
        let mut a = aligner();
        let mut out = Vec::new();
        out.extend(a.push(rec(1, 2, None)));
        out.extend(a.push(rec(1, 5, Some(2))));
        out.extend(a.flush());
        let times: Vec<u32> = out.iter().map(|s| s.time.0).collect();
        assert_eq!(times, vec![2, 3, 4, 5]);
        assert!(out[1].is_empty() && out[2].is_empty());
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn no_empty_snapshots_when_disabled() {
        let mut a = TimeAligner::new(AlignerConfig {
            max_lag: 100,
            emit_empty: false,
            lateness: 0,
        });
        let mut out = Vec::new();
        out.extend(a.push(rec(1, 2, None)));
        out.extend(a.push(rec(1, 5, Some(2))));
        out.extend(a.flush());
        let times: Vec<u32> = out.iter().map(|s| s.time.0).collect();
        assert_eq!(times, vec![2, 5]);
    }

    #[test]
    fn late_record_for_sealed_snapshot_is_dropped() {
        let mut a = TimeAligner::new(AlignerConfig {
            max_lag: 2,
            emit_empty: true,
            lateness: 0,
        });
        a.push(rec(1, 0, None));
        for t in 1..8 {
            a.push(rec(1, t, Some(t - 1)));
        }
        // Object 2's ancient record arrives after time 0 was sealed.
        let out = a.push(rec(2, 0, None));
        assert!(out.is_empty(), "late record must not reopen sealed times");
    }

    #[test]
    fn restart_after_retirement_does_not_stall() {
        let mut a = TimeAligner::new(AlignerConfig {
            max_lag: 2,
            emit_empty: true,
            lateness: 0,
        });
        a.push(rec(1, 0, None));
        a.push(rec(2, 0, None));
        let mut sealed = Vec::new();
        for t in 1..8 {
            sealed.extend(a.push(rec(1, t, Some(t - 1))));
        }
        // Object 2 comes back with a link into its retired past.
        sealed.extend(a.push(rec(2, 8, Some(0))));
        for t in 8..12 {
            sealed.extend(a.push(rec(1, t + 1, Some(t))));
        }
        let max_sealed = sealed.iter().map(|s| s.time.0).max().unwrap();
        assert!(max_sealed >= 8, "stream stalled at {max_sealed}");
    }

    #[test]
    fn duplicate_interval_reports_are_dropped() {
        let mut a = aligner();
        let mut sealed = a.push(rec(1, 0, None));
        // A second link-less report in interval 0: the live chain is
        // clarified through 0 already, so it is a duplicate, not a row.
        sealed.extend(a.push(rec(1, 0, None)));
        sealed.extend(a.push(rec(1, 1, None)));
        sealed.extend(a.flush());
        assert_eq!(a.duplicates(), 1);
        assert_eq!(a.late_dropped(), 0);
        let rows: Vec<(u32, usize)> = sealed.iter().map(|s| (s.time.0, s.len())).collect();
        assert_eq!(rows, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn last_time_chains_per_trajectory() {
        // In arrival order, a link-less record advances its chain exactly
        // as the link a per-trajectory stamper would write: same seals,
        // same chains, rows differing only in the link they carry.
        let linked = [
            rec(1, 0, None),
            rec(2, 1, None),
            rec(1, 2, Some(0)),
            rec(2, 3, Some(1)),
            rec(1, 5, Some(2)),
            rec(2, 6, Some(3)),
        ];
        let mut a = aligner();
        let mut b = aligner();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for r in linked {
            out_a.extend(a.push(r));
            out_b.extend(b.push(GpsRecord {
                last_time: None,
                ..r
            }));
            let chains = |x: &TimeAligner| x.checkpoint().chains;
            assert_eq!(chains(&a), chains(&b), "after {r:?}");
        }
        let unlinked = |snaps: &[Snapshot]| -> Vec<(u32, Vec<u32>)> {
            snaps
                .iter()
                .map(|s| (s.time.0, s.entries.iter().map(|e| e.id.0).collect()))
                .collect()
        };
        assert!(!out_a.is_empty());
        assert_eq!(unlinked(&out_a), unlinked(&out_b));
        assert_eq!(b.duplicates(), 0);
    }

    #[test]
    fn out_of_order_raw_records_are_dropped() {
        let mut a = aligner();
        a.push(rec(1, 5, None));
        // Tick 3 is behind the live chain (clarified through 5): rejected
        // as a duplicate even though time 3 has not sealed.
        assert!(a.push(rec(1, 3, None)).is_empty());
        assert_eq!((a.duplicates(), a.late_dropped()), (1, 0));
        // A linked record is never judged a duplicate: its link says where
        // it belongs.
        a.push(rec(1, 4, Some(3)));
        assert_eq!(a.duplicates(), 1);
    }

    #[test]
    fn stale_record_of_a_retired_trajectory_is_late_not_duplicate() {
        let mut a = TimeAligner::new(AlignerConfig {
            max_lag: 2,
            emit_empty: true,
            lateness: 0,
        });
        a.push(rec(1, 0, None));
        a.push(rec(2, 0, None));
        for t in 1..8 {
            a.push(rec(1, t, None));
        }
        // Object 2 lagged out and its chain retired: the chain that could
        // have called its stale tick a duplicate is gone, so the record is
        // judged by the seal frontier alone.
        assert_eq!(a.checkpoint().chains.len(), 1, "object 2 retired");
        a.push(rec(2, 0, None));
        assert_eq!((a.duplicates(), a.late_dropped()), (0, 1));
        // Its next record starts a fresh chain without a link and holds
        // the seal back like any live chain.
        a.push(rec(2, 8, None));
        let ckpt = a.checkpoint();
        let chain = ckpt.chains.iter().find(|c| c.id == ObjectId(2)).unwrap();
        assert_eq!((chain.clarified, chain.waiting.len()), (Some(8), 0));
    }

    #[test]
    fn checkpoint_round_trip_preserves_stamping() {
        let config = AlignerConfig {
            max_lag: 100,
            emit_empty: true,
            lateness: 2,
        };
        let mut a = TimeAligner::new(config);
        a.push(rec(2, 5, None));
        a.push(rec(1, 3, None));
        a.push(rec(1, 3, None));
        let ckpt = a.checkpoint();
        assert_eq!(ckpt.duplicates, 1);
        let mut b = TimeAligner::from_checkpoint(config, &ckpt);
        assert_eq!(b.checkpoint(), ckpt, "checkpoint round-trips exactly");
        // The duplicate tick is still rejected after the restore, and the
        // counter continues from its base.
        for x in [&mut a, &mut b] {
            assert!(x.push(rec(1, 3, None)).is_empty());
            x.push(rec(1, 7, None));
        }
        assert_eq!((a.duplicates(), b.duplicates()), (2, 2));
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    #[test]
    fn empty_aligner_flush_is_empty() {
        let mut a = aligner();
        assert!(a.flush().is_empty());
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        // Build a mid-stream aligner with buffered snapshots, a waiting
        // link, and a late drop; checkpoint it; feed the same suffix to the
        // original and the restored aligner and compare everything.
        let config = AlignerConfig {
            max_lag: 4,
            emit_empty: true,
            lateness: 1,
        };
        let mut a = TimeAligner::new(config);
        a.push(rec(1, 0, None));
        a.push(rec(2, 0, None));
        for t in 1..6 {
            a.push(rec(1, t, Some(t - 1)));
        }
        // Object 2's ancient record is now late (dropped + counted).
        a.push(rec(2, 1, Some(0)));
        // A waiting link: record at time 7 before its predecessor at 6.
        a.push(rec(1, 7, Some(6)));

        let ckpt = a.checkpoint();
        assert!(ckpt.late_dropped >= 1, "late drop was recorded");
        let mut b = TimeAligner::from_checkpoint(config, &ckpt);
        assert_eq!(b.checkpoint(), ckpt, "checkpoint round-trips exactly");

        let suffix: Vec<GpsRecord> = vec![
            rec(1, 6, Some(5)),
            rec(1, 8, Some(7)),
            rec(1, 9, Some(8)),
            rec(2, 9, None),
        ];
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for r in suffix {
            out_a.extend(a.push(r));
            out_b.extend(b.push(r));
        }
        out_a.extend(a.flush());
        out_b.extend(b.flush());
        assert_eq!(out_a, out_b, "restored aligner diverged");
        assert_eq!(a.late_dropped(), b.late_dropped());
    }

    #[test]
    fn restored_aligner_keeps_counting_late_records_from_its_base() {
        // The restore path (core's align stage) must rehydrate the counter
        // rather than reset observability to zero.
        let config = AlignerConfig {
            max_lag: 2,
            emit_empty: true,
            lateness: 0,
        };
        let mut a = TimeAligner::new(config);
        a.push(rec(1, 0, None));
        for t in 1..8 {
            a.push(rec(1, t, Some(t - 1)));
        }
        a.push(rec(2, 0, None)); // late → dropped
        let ckpt = a.checkpoint();
        assert_eq!(ckpt.late_dropped, 1);

        let mut restored = TimeAligner::from_checkpoint(config, &ckpt);
        restored.push(rec(2, 1, Some(0))); // another late record
        assert_eq!(restored.late_dropped(), 2, "one rehydrated + one new");
    }

    #[test]
    fn lateness_protects_late_first_records() {
        // Object 2's very first record (no last-time link) arrives one tick
        // late; with lateness ≥ 1 it must not be dropped.
        let mut a = TimeAligner::new(AlignerConfig {
            max_lag: 100,
            emit_empty: true,
            lateness: 1,
        });
        let mut sealed = Vec::new();
        sealed.extend(a.push(rec(1, 0, None)));
        sealed.extend(a.push(rec(1, 1, Some(0))));
        sealed.extend(a.push(rec(2, 0, None))); // late first record
        sealed.extend(a.push(rec(1, 2, Some(1))));
        sealed.extend(a.flush());
        let s0 = sealed.iter().find(|s| s.time == Timestamp(0)).unwrap();
        assert_eq!(s0.len(), 2, "late first record was dropped");
    }

    // ---- sharded head ----------------------------------------------------

    /// Reference harness for the sharded head: the router plus per-shard
    /// row buffers, reassembling full snapshots at seal — what the
    /// pipeline's shard stages + merge tree do across threads, done inline
    /// so outputs can be compared record-for-record against the serial
    /// aligner.
    struct ShardedHarness {
        router: ShardedAligner,
        buffers: Vec<BTreeMap<u32, Snapshot>>,
    }

    impl ShardedHarness {
        fn new(config: AlignerConfig, shards: usize) -> Self {
            ShardedHarness {
                router: ShardedAligner::new(config, shards),
                buffers: (0..shards.max(1)).map(|_| BTreeMap::new()).collect(),
            }
        }

        fn push(&mut self, r: GpsRecord) -> Vec<Snapshot> {
            match self.router.route(&r) {
                Routed::Late { .. } | Routed::Duplicate => return Vec::new(),
                Routed::Keep { shard } => {
                    self.buffers[shard]
                        .entry(r.time.0)
                        .or_insert_with(|| Snapshot::new(r.time))
                        .push(r.id, r.location, r.last_time);
                }
            }
            let mut times = Vec::new();
            self.router.drain_sealed(&mut times);
            times.into_iter().map(|t| self.collect(t)).collect()
        }

        fn collect(&mut self, t: u32) -> Snapshot {
            let mut entries = Vec::new();
            for shard in &mut self.buffers {
                if let Some(s) = shard.remove(&t) {
                    entries.extend(s.entries);
                }
            }
            entries.sort_by_key(|e| e.id);
            Snapshot {
                time: Timestamp(t),
                entries,
            }
        }

        fn flush(&mut self) -> Vec<Snapshot> {
            self.router
                .flush_times()
                .into_iter()
                .map(|t| self.collect(t))
                .collect()
        }
    }

    /// Snapshot rows in canonical (id) order, for comparing the serial
    /// aligner's arrival-ordered rows against shard-merged ones.
    fn normalized(mut s: Snapshot) -> Snapshot {
        s.entries.sort_by_key(|e| e.id);
        s
    }

    fn normalized_ckpt(mut c: AlignerCheckpoint) -> AlignerCheckpoint {
        for snap in &mut c.buffers {
            snap.entries.sort_by_key(|e| e.id);
        }
        c
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A deterministic stream with silent ticks (link gaps) and bounded
    /// out-of-order swaps.
    fn disordered_stream(seed: u64, objects: u32, ticks: u32) -> Vec<GpsRecord> {
        let mut rng = seed;
        let mut recs: Vec<GpsRecord> = Vec::new();
        for id in 1..=objects {
            let mut prev: Option<u32> = None;
            for t in 0..ticks {
                if lcg(&mut rng).is_multiple_of(4) {
                    continue; // silent tick: the next link skips over it
                }
                recs.push(rec(id, t, prev));
                prev = Some(t);
            }
        }
        recs.sort_by_key(|r| r.time.0);
        for i in 0..recs.len() {
            let j = i + (lcg(&mut rng) as usize % 7).min(recs.len() - 1 - i);
            recs.swap(i, j);
        }
        recs
    }

    #[test]
    fn sharded_router_matches_serial_on_disordered_streams() {
        let configs = [
            AlignerConfig {
                max_lag: 6,
                emit_empty: true,
                lateness: 1,
            },
            // Tight lag + zero lateness: forces retirements and late drops.
            AlignerConfig {
                max_lag: 3,
                emit_empty: true,
                lateness: 0,
            },
            AlignerConfig {
                max_lag: 100,
                emit_empty: false,
                lateness: 0,
            },
        ];
        for config in configs {
            for seed in [1u64, 7, 42] {
                for shards in [1usize, 2, 3, 5] {
                    let mut serial = TimeAligner::new(config);
                    let mut sharded = ShardedHarness::new(config, shards);
                    let mut out_serial = Vec::new();
                    let mut out_sharded = Vec::new();
                    for r in disordered_stream(seed, 6, 40) {
                        out_serial.extend(serial.push(r).into_iter().map(normalized));
                        out_sharded.extend(sharded.push(r));
                    }
                    out_serial.extend(serial.flush().into_iter().map(normalized));
                    out_sharded.extend(sharded.flush());
                    assert_eq!(
                        out_serial, out_sharded,
                        "diverged: seed {seed}, {shards} shards"
                    );
                    assert_eq!(
                        serial.late_dropped(),
                        sharded.router.late_dropped_total(),
                        "late counts diverged: seed {seed}, {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_late_boundary_matches_serial_drop_decisions() {
        // One trajectory races ahead on its shard; the other crawls at the
        // seal boundary on a different shard. Records landing exactly at
        // the min-over-frontiers boundary must drop iff the serial aligner
        // drops them — lateness is strict (`t < sealed_up_to`), so `s - 1`
        // drops and `s` itself is kept.
        let config = AlignerConfig {
            max_lag: 4,
            emit_empty: true,
            lateness: 0,
        };
        let probe = ShardedAligner::new(config, 2);
        let fast = (1..100)
            .find(|&i| probe.shard_of(ObjectId(i)) == 0)
            .unwrap();
        let slow = (1..100)
            .find(|&i| probe.shard_of(ObjectId(i)) == 1)
            .unwrap();

        let mut serial = TimeAligner::new(config);
        let mut sharded = ShardedHarness::new(config, 2);
        let mut out_serial = Vec::new();
        let mut out_sharded = Vec::new();
        let feed = |serial: &mut TimeAligner,
                    sharded: &mut ShardedHarness,
                    out_serial: &mut Vec<Snapshot>,
                    out_sharded: &mut Vec<Snapshot>,
                    r: GpsRecord| {
            out_serial.extend(serial.push(r).into_iter().map(normalized));
            out_sharded.extend(sharded.push(r));
        };

        feed(
            &mut serial,
            &mut sharded,
            &mut out_serial,
            &mut out_sharded,
            rec(fast, 0, None),
        );
        feed(
            &mut serial,
            &mut sharded,
            &mut out_serial,
            &mut out_sharded,
            rec(slow, 0, None),
        );
        // The fast shard runs far ahead; the slow trajectory retires once
        // its clarified end lags more than max_lag behind.
        for t in 1..12 {
            feed(
                &mut serial,
                &mut sharded,
                &mut out_serial,
                &mut out_sharded,
                rec(fast, t, Some(t - 1)),
            );
        }
        let s = serial.checkpoint().sealed_up_to.expect("sealing advanced");
        assert_eq!(sharded.router.sealed_up_to(), Some(s), "frontiers agree");
        assert!(s >= 2, "the slow shard no longer holds the frontier");

        // Exactly at the boundary from the slow trajectory's shard.
        assert_eq!(
            sharded.router.route(&rec(slow, s - 1, Some(0))),
            Routed::Late { shard: 1 },
            "one tick below the frontier drops"
        );
        let before = serial.late_dropped();
        out_serial.extend(
            serial
                .push(rec(slow, s - 1, Some(0)))
                .into_iter()
                .map(normalized),
        );
        assert_eq!(serial.late_dropped(), before + 1, "serial dropped it too");

        match sharded.router.route(&rec(slow, s, Some(s - 1))) {
            Routed::Keep { shard } => {
                assert_eq!(shard, 1);
                sharded.buffers[1]
                    .entry(s)
                    .or_insert_with(|| Snapshot::new(Timestamp(s)))
                    .push(
                        ObjectId(slow),
                        rec(slow, s, Some(s - 1)).location,
                        Some(Timestamp(s - 1)),
                    );
                let mut times = Vec::new();
                sharded.router.drain_sealed(&mut times);
                out_sharded.extend(times.into_iter().map(|t| sharded.collect(t)));
            }
            other => panic!("record at the frontier itself must be kept, got {other:?}"),
        }
        out_serial.extend(
            serial
                .push(rec(slow, s, Some(s - 1)))
                .into_iter()
                .map(normalized),
        );

        out_serial.extend(serial.flush().into_iter().map(normalized));
        out_sharded.extend(sharded.flush());
        assert_eq!(out_serial, out_sharded, "sealed outputs diverged");
        assert_eq!(serial.late_dropped(), sharded.router.late_dropped_total());
        assert_eq!(
            sharded.router.shard_late_dropped(1),
            sharded.router.late_dropped_total(),
            "drops attributed to the owning shard"
        );
    }

    #[test]
    fn sharded_reshard_cycle_conserves_state_and_counters() {
        // Run sharded at S=3 with late drops, checkpoint (router piece +
        // per-shard buffer pieces, merged), restore onto S=5, continue, and
        // compare everything against an uninterrupted serial aligner. The
        // merged counter must restore exactly once (credited to shard 0),
        // not once per shard.
        let config = AlignerConfig {
            max_lag: 3,
            emit_empty: true,
            lateness: 0,
        };
        let mut serial = TimeAligner::new(config);
        let mut sharded = ShardedHarness::new(config, 3);
        let stream = disordered_stream(9, 5, 30);
        let (prefix, suffix) = stream.split_at(stream.len() / 2);

        let mut out_serial = Vec::new();
        let mut out_sharded = Vec::new();
        for r in prefix {
            out_serial.extend(serial.push(*r).into_iter().map(normalized));
            out_sharded.extend(sharded.push(*r));
        }
        // Force a late drop at the cut so the counter is non-zero.
        if let Some(s) = serial.checkpoint().sealed_up_to {
            if s > 0 {
                let late = rec(5, s - 1, None);
                out_serial.extend(serial.push(late).into_iter().map(normalized));
                out_sharded.extend(sharded.push(late));
            }
        }
        assert!(serial.late_dropped() > 0, "cut must carry a live counter");

        // Checkpoint: router piece + one buffer-only piece per shard.
        let mut pieces = vec![sharded.router.checkpoint()];
        for shard in &sharded.buffers {
            pieces.push(AlignerCheckpoint {
                buffers: shard.values().cloned().collect(),
                ..AlignerCheckpoint::empty()
            });
        }
        let merged = AlignerCheckpoint::merge(pieces);
        assert_eq!(
            merged,
            normalized_ckpt(serial.checkpoint()),
            "merged pieces reproduce the serial checkpoint"
        );

        // Restore onto a different shard count.
        let mut restored = ShardedHarness::new(config, 5);
        restored.router = ShardedAligner::from_checkpoint(config, 5, &merged);
        for (i, shard) in restored.buffers.iter_mut().enumerate() {
            let piece = merged.piece(false, |id| subtask_for(hash_id(id), 5) == i);
            *shard = piece.buffers.into_iter().map(|s| (s.time.0, s)).collect();
        }
        assert_eq!(
            restored.router.late_dropped_total(),
            merged.late_dropped,
            "restored total intact"
        );
        assert_eq!(
            restored.router.shard_late_dropped(0),
            merged.late_dropped,
            "counter credited to shard 0 only"
        );

        let mut out_restored = out_sharded.clone();
        for r in suffix {
            out_serial.extend(serial.push(*r).into_iter().map(normalized));
            out_restored.extend(restored.push(*r));
        }
        out_serial.extend(serial.flush().into_iter().map(normalized));
        out_restored.extend(restored.flush());
        assert_eq!(out_serial, out_restored, "restore onto 5 shards diverged");
        assert_eq!(serial.late_dropped(), restored.router.late_dropped_total());

        // A second checkpoint cycle must not multiply the counter.
        let merged2 = AlignerCheckpoint::merge(vec![restored.router.checkpoint()]);
        assert_eq!(merged2.late_dropped, serial.late_dropped());
    }

    #[test]
    fn sharded_gauges_report_chains_frontiers_and_drops() {
        let config = AlignerConfig {
            max_lag: 100,
            emit_empty: true,
            lateness: 0,
        };
        let mut sharded = ShardedHarness::new(config, 2);
        let probe = &sharded.router;
        let a = (1..100)
            .find(|&i| probe.shard_of(ObjectId(i)) == 0)
            .unwrap();
        let b = (1..100)
            .find(|&i| probe.shard_of(ObjectId(i)) == 1)
            .unwrap();
        sharded.push(rec(a, 0, None));
        sharded.push(rec(b, 0, None));
        sharded.push(rec(a, 5, Some(0)));
        let router = &sharded.router;
        let (chains, max_shard_chains) = router.chain_counts();
        assert_eq!((chains, max_shard_chains), (2, 1));
        let status = AlignerStatus {
            shards: router.shards(),
            chains,
            max_shard_chains,
            ..AlignerStatus::default()
        };
        assert!(
            (status.imbalance() - 1.0).abs() < 1e-9,
            "perfectly balanced"
        );
        // Shard a is clarified through 5 (frontier capped at max_seen);
        // shard b is stuck at 1.
        assert_eq!(router.frontier_range(), (1, 5));
        assert_eq!(router.sealed_up_to(), Some(1), "time 0 sealed");
        assert_eq!(router.late_dropped_total(), 0);
    }

    // ---- frontier index vs the full scan it replaced ------------------------

    /// The seal test as it was before the frontier index, verbatim: visit
    /// every chain, retire the lagged-out ones behind `u`, report whether a
    /// live one remains behind `u`. The reference [`ChainIndex::blocks`] is
    /// held to.
    fn scan_chains(
        chains: &mut HashMap<ObjectId, Chain>,
        u: u32,
        max_lag: u32,
        max_seen: u32,
    ) -> bool {
        let mut blocked = false;
        chains.retain(|_, chain| {
            let clarified = chain.clarified.unwrap_or(0);
            if clarified >= u {
                return true;
            }
            if clarified.saturating_add(max_lag) < max_seen {
                return false;
            }
            blocked = true;
            true
        });
        blocked
    }

    /// The head as it was before the index — one plain chain map, the full
    /// scan on every seal test — reduced to what both entry points must
    /// reproduce: the drop decision, the sealed times, the chain state.
    struct ScanHead {
        config: AlignerConfig,
        chains: HashMap<ObjectId, Chain>,
        occupied: BTreeSet<u32>,
        sealed_up_to: Option<u32>,
        max_seen: u32,
        late_dropped: u64,
        duplicates: u64,
        /// Chains visited by seal tests (cf. `ChainIndex::visited`).
        visited: u64,
    }

    impl ScanHead {
        fn new(config: AlignerConfig) -> Self {
            ScanHead {
                config,
                chains: HashMap::new(),
                occupied: BTreeSet::new(),
                sealed_up_to: None,
                max_seen: 0,
                late_dropped: 0,
                duplicates: 0,
                visited: 0,
            }
        }

        /// One record: `(kept, times sealed by it)`.
        fn push(&mut self, rec: &GpsRecord) -> (bool, Vec<u32>) {
            let t = rec.time.0;
            if rec.last_time.is_none() && self.chains.get(&rec.id).is_some_and(|c| c.covers(rec)) {
                self.duplicates += 1;
                return (false, Vec::new());
            }
            if self.sealed_up_to.is_some_and(|s| t < s) {
                self.late_dropped += 1;
                self.chains.entry(rec.id).or_default().advance(rec);
                return (false, Vec::new());
            }
            self.max_seen = self.max_seen.max(t);
            self.occupied.insert(t);
            self.chains.entry(rec.id).or_default().advance(rec);
            let mut sealed = Vec::new();
            loop {
                let u = match (self.sealed_up_to, self.occupied.first()) {
                    (Some(s), _) => s,
                    (None, Some(&t)) => t,
                    (None, None) => break,
                };
                if u.saturating_add(self.config.lateness) >= self.max_seen {
                    break;
                }
                self.visited += self.chains.len() as u64;
                if scan_chains(&mut self.chains, u, self.config.max_lag, self.max_seen) {
                    break;
                }
                if self.occupied.remove(&u) || self.config.emit_empty {
                    sealed.push(u);
                }
                self.sealed_up_to = Some(u + 1);
            }
            (true, sealed)
        }

        /// Everything but the rows, in checkpoint form.
        fn state(&self) -> AlignerCheckpoint {
            let mut chains: Vec<ChainCheckpoint> = self
                .chains
                .iter()
                .map(|(&id, chain)| chain.checkpoint(id))
                .collect();
            chains.sort_by_key(|c| c.id);
            AlignerCheckpoint {
                buffers: Vec::new(),
                chains,
                sealed_up_to: self.sealed_up_to,
                max_seen: self.max_seen,
                late_dropped: self.late_dropped,
                duplicates: self.duplicates,
            }
        }
    }

    /// `ShardedAligner::frontier_range` as it was before the index: every
    /// chain of every shard visited.
    fn scan_frontier_range(router: &ShardedAligner) -> (u32, u32) {
        let cap = router.max_seen.saturating_sub(router.config.lateness);
        let mut min_f = u32::MAX;
        let mut max_f = 0u32;
        for shard in &router.chains {
            let mut f = cap;
            for chain in shard.chains.values() {
                let clarified = chain.clarified.unwrap_or(0);
                if clarified.saturating_add(router.config.max_lag) < router.max_seen {
                    continue; // lagged out: no longer holds the frontier back
                }
                f = f.min(clarified.saturating_add(1));
            }
            min_f = min_f.min(f);
            max_f = max_f.max(f);
        }
        (min_f, max_f)
    }

    /// [`TimeAligner::push`] in the model's terms.
    fn push_serial(aligner: &mut TimeAligner, r: &GpsRecord) -> (bool, Vec<u32>) {
        let dropped = |a: &TimeAligner| a.late_dropped() + a.duplicates();
        let before = dropped(aligner);
        let sealed = aligner.push(*r).iter().map(|s| s.time.0).collect();
        (dropped(aligner) == before, sealed)
    }

    /// [`ShardedAligner::route`] + `drain_sealed`, as the router stage calls
    /// them, in the model's terms.
    fn push_sharded(router: &mut ShardedAligner, r: &GpsRecord) -> (bool, Vec<u32>) {
        let mut sealed = Vec::new();
        match router.route(r) {
            Routed::Keep { .. } => {
                router.drain_sealed(&mut sealed);
                (true, sealed)
            }
            Routed::Late { .. } | Routed::Duplicate => (false, sealed),
        }
    }

    /// A hostile stream: silent ticks (links skip them), lost records (the
    /// next link points at a report that never arrives, so the chain sticks
    /// until it lags out), long absences (whole chains lag out and restart
    /// with a link into their retired past), and bounded out-of-order
    /// arrival.
    fn hostile_stream(seed: u64, objects: u32, ticks: u32, displacement: usize) -> Vec<GpsRecord> {
        let mut rng = seed;
        let mut recs: Vec<GpsRecord> = Vec::new();
        for id in 1..=objects {
            let mut prev: Option<u32> = None;
            let mut t = 0;
            while t < ticks {
                match lcg(&mut rng) % 20 {
                    0..=2 => {}                                // silent tick
                    3 => prev = Some(t),                       // reported, lost on the way
                    4 => t += 4 + (lcg(&mut rng) % 30) as u32, // long absence
                    _ => {
                        recs.push(rec(id, t, prev));
                        prev = Some(t);
                    }
                }
                t += 1;
            }
        }
        recs.sort_by_key(|r| r.time.0);
        for i in 0..recs.len() {
            let j = i + (lcg(&mut rng) as usize % displacement).min(recs.len() - 1 - i);
            recs.swap(i, j);
        }
        recs
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// Both index-driven entry points agree with the full-scan model
        /// after **every** push — drop decision, sealed times, late count,
        /// chain state, frontier gauges — across a mid-stream checkpoint →
        /// restore of the serial aligner and a 2 → 3 reshard of the router
        /// (the model runs through uninterrupted).
        #[test]
        fn index_matches_the_full_scan_model_on_every_push(
            seed in 0u64..u64::MAX,
            objects in 1u32..9,
            ticks in 8u32..90,
            displacement in 1usize..40,
            max_lag in 1u32..24,
            lateness in proptest::sample::select(vec![0u32, 2, 18]),
            emit_empty in proptest::bool::ANY,
            cut_pct in 0usize..100,
        ) {
            let config = AlignerConfig { max_lag, emit_empty, lateness };
            let stream = hostile_stream(seed, objects, ticks, displacement);
            let cut = stream.len() * cut_pct / 100;
            let mut model = ScanHead::new(config);
            let mut serial = TimeAligner::new(config);
            let mut router = ShardedAligner::new(config, 2);
            for (i, r) in stream.iter().enumerate() {
                if i == cut {
                    serial = TimeAligner::from_checkpoint(config, &serial.checkpoint());
                    // The router's piece carries no rows; one placeholder
                    // row per buffered time stands in for the shard pieces.
                    let mut merged = router.checkpoint();
                    merged.buffers = model
                        .occupied
                        .iter()
                        .map(|&t| {
                            let mut rows = Snapshot::new(Timestamp(t));
                            rows.push(ObjectId(0), Point::new(0.0, 0.0), None);
                            rows
                        })
                        .collect();
                    router = ShardedAligner::from_checkpoint(config, 3, &merged);
                }
                let want = model.push(r);
                proptest::prop_assert_eq!(&push_serial(&mut serial, r), &want, "serial, record {}", i);
                proptest::prop_assert_eq!(&push_sharded(&mut router, r), &want, "sharded, record {}", i);
                let state = model.state();
                let serial_ckpt = serial.checkpoint();
                proptest::prop_assert_eq!(
                    serial_ckpt.buffers.iter().map(|s| s.time.0).collect::<Vec<_>>(),
                    model.occupied.iter().copied().collect::<Vec<_>>(),
                    "serial buffered times, record {}", i
                );
                proptest::prop_assert_eq!(
                    &AlignerCheckpoint { buffers: Vec::new(), ..serial_ckpt },
                    &state,
                    "serial state, record {}", i
                );
                proptest::prop_assert_eq!(&router.checkpoint(), &state, "sharded state, record {}", i);
                proptest::prop_assert_eq!(router.pending(), model.occupied.len());
                proptest::prop_assert_eq!(
                    router.frontier_range(),
                    scan_frontier_range(&router),
                    "frontier gauges, record {}",
                    i
                );
            }
        }
    }

    #[test]
    fn delayed_records_do_not_make_the_seal_test_visit_chains() {
        // 300 trajectories reporting every tick, one record in ten swapped
        // up to three ticks' worth of positions ahead: some chain is nearly
        // always behind the seal candidate, which is when the full scan
        // revisits every chain on every push. Behind-but-live chains are
        // the index's O(1) case; only a retirement pass visits chains.
        let (objects, ticks) = (300u32, 60u32);
        let mut rng = 0xD15C0u64;
        let mut stream: Vec<GpsRecord> = (0..ticks)
            .flat_map(|t| (0..objects).map(move |id| rec(id, t, t.checked_sub(1))))
            .collect();
        for i in 0..stream.len() {
            if lcg(&mut rng).is_multiple_of(10) {
                let ahead = 1 + lcg(&mut rng) as usize % (3 * objects as usize);
                let last = stream.len() - 1;
                stream.swap(i, (i + ahead).min(last));
            }
        }
        let config = AlignerConfig::default();
        let mut model = ScanHead::new(config);
        let mut serial = TimeAligner::new(config);
        let mut router = ShardedAligner::new(config, 2);
        for r in &stream {
            let want = model.push(r);
            assert_eq!(push_serial(&mut serial, r), want);
            assert_eq!(push_sharded(&mut router, r), want);
        }
        let records = stream.len() as u64;
        let sharded_visits: u64 = router.chains.iter().map(|shard| shard.visited).sum();
        assert!(
            model.visited > 20 * records,
            "the stream must hold the frontier back: the full scan visited {} chains for {records} records",
            model.visited
        );
        let serial_visits = serial.router.chains[0].visited;
        assert!(
            serial_visits <= records && sharded_visits <= records,
            "seal tests visited {serial_visits} (serial) / {sharded_visits} (sharded) chains for {records} records"
        );
    }
}
