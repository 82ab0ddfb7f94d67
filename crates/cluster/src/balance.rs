//! Hotspot-aware load balancing for the keyed GridQuery stage.
//!
//! The paper keys GridQuery work by grid cell and lets the platform hash
//! cells onto subtasks. On skewed urban traffic (downtown hotspots,
//! rush-hour corridors) a handful of cells carry most of the objects —
//! and whatever subtask they hash to becomes the straggler that caps the
//! Figure-14 scaling curve. This module supplies the two policy pieces of
//! the adaptive alternative:
//!
//! * [`LoadTracker`] — shared accounting written by the GridQuery
//!   subtasks: per-subtask window totals for observability and benches,
//!   and — only where a balancer drains them — per-cell load (buffered
//!   objects + produced pairs) per window, sent as one sorted run per
//!   subtask and merged when the window seals;
//! * [`LoadBalancer`] — the controller (run by the frontier router, which
//!   sees every record before it is routed, at snapshot boundaries):
//!   counts each open window's grid objects per cell, maintains decayed
//!   per-cell load estimates, detects hot placements (`max > θ × mean`),
//!   and produces a [`RebalancePlan`] that *splits* the hot cells out of
//!   their hash buckets onto explicitly assigned subtasks
//!   (largest-load-first onto the least-loaded subtask) while cold cells
//!   *merge* back to the consistent-hash default.
//!
//! The balancer is deliberately mechanism-free: it never touches a
//! routing table or a channel. The pipeline turns a plan into an
//! `icpe-runtime` `RoutingTable` at a window boundary and splits every
//! window under exactly one table, so a swap can never split a window's
//! cell across subtasks.
//!
//! The unit of placement is a whole grid cell: a single cell hotter than
//! a subtask's fair share stays on one subtask. Splitting such cells into
//! routable sub-cells was measured on the skew bench and moved neither the
//! p95 imbalance nor throughput beyond run-to-run noise.

use icpe_index::{Grid, GridKey};
use icpe_types::shard::{stable_hash, subtask_for};
use icpe_types::{CellAssignment, CellLoadCheckpoint, Point, RoutingCheckpoint};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Mutex;

/// One cell's observed load in one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellLoad {
    /// Grid objects (data + query replicas) buffered for the cell.
    pub records: u64,
    /// Neighbor pairs the cell's range join produced.
    pub pairs: u64,
}

impl CellLoad {
    /// The scalar load the balancer optimizes: buffering plus join output.
    pub fn weight(&self) -> u64 {
        self.records + self.pairs
    }
}

/// Per-window, per-subtask accounting shared between the GridQuery
/// subtasks (writers) and the balancer / status endpoints (readers).
/// Wrap in `Arc`; all methods take `&self`.
///
/// Every deployment keeps the per-subtask window totals (STATUS and the
/// imbalance series read them). Per-cell loads exist only for a consumer:
/// a tracker built with `per_cell` (adaptive routing, where the balancer
/// drains them) merges each window's per-subtask sorted runs; one built
/// without it takes totals only, and its cell histories stay empty.
#[derive(Debug)]
pub struct LoadTracker {
    parallelism: usize,
    per_cell: bool,
    inner: Mutex<TrackerInner>,
}

/// Per-subtask history bound: `sealed` keeps the newest this-many
/// windows (tiny rows — `parallelism` integers each) for status gauges
/// and bench series. A days-long serve deployment must not grow
/// per-window state without bound.
const MAX_WINDOW_HISTORY: usize = 4096;

/// Per-cell history bounds, much tighter than [`MAX_WINDOW_HISTORY`]
/// because these rows hold an entry per active cell: `sealed_cells`
/// (read only by the skew bench's hindsight oracle) keeps this many
/// windows, and `ready` — drained at every window boundary by the
/// balancer — drops its oldest past this when the drain falls behind.
const MAX_CELL_WINDOW_HISTORY: usize = 512;
const MAX_READY_BACKLOG: usize = 64;

/// One window's per-cell loads: ascending by cell, one entry per cell.
pub type CellRun = Vec<(GridKey, CellLoad)>;

#[derive(Debug, Default)]
struct TrackerInner {
    /// Per-cell loads of windows that have fully sealed, awaiting the
    /// balancer's drain — one entry per window. Only whole windows land
    /// here: folding a partially flushed window into the balancer's
    /// estimates would make a cell's load appear to halve and double with
    /// scheduling luck, and the balancer would chase that noise with
    /// useless migrations.
    ready: VecDeque<(u32, CellRun)>,
    /// Open windows: the reported subtask runs and totals, and how many
    /// subtasks reported.
    open: BTreeMap<u32, WindowAcc>,
    /// Sealed windows (every subtask reported), ascending by time.
    sealed: VecDeque<(u32, Vec<u64>)>,
    /// Per-cell weights of sealed windows (for hindsight analyses).
    sealed_cells: VecDeque<(u32, Vec<(GridKey, u64)>)>,
}

#[derive(Debug, Default)]
struct WindowAcc {
    /// The reporting subtasks' runs, concatenated.
    cells: CellRun,
    loads: Vec<u64>,
    reports: usize,
}

/// Appends to a history ring, dropping its oldest entry at `cap`.
fn push_bounded<T>(ring: &mut VecDeque<T>, item: T, cap: usize) {
    if ring.len() == cap {
        ring.pop_front();
    }
    ring.push_back(item);
}

/// Merges concatenated sorted runs into one [`CellRun`]: the stable sort
/// merges the presorted runs it finds, and the loads of a cell that
/// appears more than once add up.
fn merge_runs(mut cells: CellRun) -> CellRun {
    cells.sort_by_key(|&(cell, _)| cell);
    cells.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1.records += next.1.records;
            kept.1.pairs += next.1.pairs;
        }
        same
    });
    cells
}

impl LoadTracker {
    /// A tracker for `parallelism` GridQuery subtasks that keeps per-cell
    /// loads only when `per_cell` is set.
    pub fn new(parallelism: usize, per_cell: bool) -> Self {
        LoadTracker {
            parallelism: parallelism.max(1),
            per_cell,
            inner: Mutex::new(TrackerInner::default()),
        }
    }

    /// The subtask count the tracker was sized for.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Whether the tracker keeps per-cell loads (see [`LoadTracker::new`]).
    pub fn per_cell(&self) -> bool {
        self.per_cell
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TrackerInner> {
        self.inner.lock().expect("load tracker poisoned")
    }

    /// Records one subtask's report for window `time`: its total `load`
    /// and, on a per-cell tracker, its cells as one run ascending by cell
    /// (empty otherwise). Every subtask reports every window (ticks are
    /// broadcast), so the window seals at the `parallelism`-th report; the
    /// runs are then merged, and the window's per-cell loads become
    /// drainable as one consistent unit.
    pub fn record_window(
        &self,
        time: u32,
        subtask: usize,
        load: u64,
        cells: &[(GridKey, CellLoad)],
    ) {
        let n = self.parallelism;
        let mut inner = self.lock();
        let acc = inner.open.entry(time).or_default();
        if acc.loads.is_empty() {
            acc.loads = vec![0; n];
        }
        if let Some(slot) = acc.loads.get_mut(subtask) {
            *slot += load;
        }
        if self.per_cell {
            acc.cells.extend_from_slice(cells);
        }
        acc.reports += 1;
        if acc.reports < n {
            return;
        }
        let acc = inner.open.remove(&time).expect("window present");
        push_bounded(&mut inner.sealed, (time, acc.loads), MAX_WINDOW_HISTORY);
        if !self.per_cell {
            return;
        }
        // Merge off the lock. Windows still land in time order: window
        // `time + 1` cannot seal before this subtask reports it, which
        // follows this call.
        drop(inner);
        let cells = merge_runs(acc.cells);
        let weights = cells.iter().map(|&(c, l)| (c, l.weight())).collect();
        let mut inner = self.lock();
        push_bounded(
            &mut inner.sealed_cells,
            (time, weights),
            MAX_CELL_WINDOW_HISTORY,
        );
        push_bounded(&mut inner.ready, (time, cells), MAX_READY_BACKLOG);
    }

    /// Per-window per-cell loads of sealed windows, ascending by time —
    /// what an oracle placement (hindsight LPT per window) is computed
    /// from in the skew bench. Empty on a tracker without `per_cell`.
    pub fn sealed_cell_windows(&self) -> Vec<(u32, Vec<(GridKey, u64)>)> {
        self.lock().sealed_cells.iter().cloned().collect()
    }

    /// Takes the per-cell loads of every window sealed since the last
    /// drain — whole windows only, one entry per window in time order, so
    /// a consumer can decay-fold them window by window no matter how many
    /// sealed between two drains (backpressure makes seals arrive in
    /// bursts; folding a burst as if it were one window whipsaws any
    /// decayed estimate by the burst length).
    pub fn drain_cells(&self) -> Vec<(u32, CellRun)> {
        self.lock().ready.drain(..).collect()
    }

    /// All sealed windows so far, `(time, per-subtask loads)` ascending —
    /// the imbalance series the skew bench reports on.
    pub fn sealed_windows(&self) -> Vec<(u32, Vec<u64>)> {
        self.lock().sealed.iter().cloned().collect()
    }

    /// The most recently sealed window, if any.
    pub fn last_sealed(&self) -> Option<(u32, Vec<u64>)> {
        self.lock().sealed.back().cloned()
    }

    /// Forgets every window after `through` (all of them for `None`),
    /// sealed or still open: a replay from a cut whose last sealed window
    /// is `through` reports them again.
    pub fn rewind(&self, through: Option<u32>) {
        let kept = |t: u32| through.is_some_and(|c| t <= c);
        let mut inner = self.lock();
        inner.open.clear();
        inner.ready.retain(|(t, _)| kept(*t));
        inner.sealed.retain(|(t, _)| kept(*t));
        inner.sealed_cells.retain(|(t, _)| kept(*t));
    }
}

/// `max / mean` of one window's per-subtask loads (1.0 = perfectly
/// balanced; `N` = all load on one of `N` subtasks). Empty or idle
/// windows count as balanced.
pub fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    *loads.iter().max().expect("nonempty") as f64 / mean
}

/// Tuning knobs of the [`LoadBalancer`].
#[derive(Debug, Clone, Copy)]
pub struct BalancerConfig {
    /// Hot threshold θ: rebalance when the projected max subtask load
    /// exceeds `θ ×` the mean. Values near 1 rebalance aggressively;
    /// values ≥ the parallelism never trigger.
    pub theta: f64,
    /// Minimum windows between table swaps (migration hysteresis).
    pub cooldown_windows: u32,
    /// Per-window decay of the cell-load estimate: `estimate = decay ×
    /// estimate + observed`. 0 = last window only; 0.5 halves history
    /// each window.
    pub decay: f64,
    /// Maximum cells pinned explicitly (the routing-table budget); the
    /// rest stay on consistent hashing.
    pub max_mapped_cells: usize,
    /// How much each produced pair weighs in the cell-load model, against
    /// 1 per record. The subtask that discovers a pair also pays for it
    /// after the probe: it stores the pair, sorts the pair's ids into the
    /// window's object union and ships both into the sync-merge tree. The
    /// default (`2.0`) counts the probe hit and that hand-off, so
    /// pair-heavy cells migrate sooner; `1.0` counts the probe hit only.
    pub sync_pair_weight: f64,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            theta: 1.5,
            cooldown_windows: 2,
            decay: 0.5,
            max_mapped_cells: 256,
            sync_pair_weight: 2.0,
        }
    }
}

/// A routing-table replacement the balancer wants installed at the next
/// window boundary.
#[derive(Debug, Clone)]
pub struct RebalancePlan {
    /// The epoch the new table carries.
    pub epoch: u64,
    /// The complete explicit overlay, keyed by the cell's routing hash.
    pub assignments: HashMap<u64, usize>,
    /// Cells whose effective subtask changes with this plan.
    pub migrated: u64,
}

/// What one window-boundary evaluation concluded.
#[derive(Debug, Clone)]
pub struct BalanceOutcome {
    /// Projected max per-subtask load under the *current* routing.
    pub max_load: f64,
    /// Projected mean per-subtask load.
    pub mean_load: f64,
    /// The table swap to install, when the imbalance warranted one.
    pub plan: Option<RebalancePlan>,
}

/// The hotspot controller. Single-owner (the frontier router); shares
/// nothing but the [`LoadTracker`] it drains.
#[derive(Debug)]
pub struct LoadBalancer {
    config: BalancerConfig,
    parallelism: usize,
    /// Decayed per-cell *record* estimates, folded once per window
    /// boundary from the allocate-side accounting (immediate: known the
    /// moment objects are routed).
    rec_estimates: HashMap<GridKey, f64>,
    /// Decayed per-cell *pair* estimates, folded once per sealed window
    /// from the query-side feedback (lagged by the pipeline's in-flight
    /// depth). Kept as a separate pool because the two signals arrive on
    /// different cadences — folding lagged bursts into one shared EWMA
    /// makes the estimate whipsaw by the burst length.
    pair_estimates: HashMap<GridKey, f64>,
    /// Per-cell pair *rate* `pairs / records`, EWMA-blended from the same
    /// query-side feedback. Range-join pairs come from squads — tight
    /// within-ε crowds of bounded size — so a cell's pair count scales
    /// *linearly* with its occupancy, at a rate set by how crowded its
    /// squads are. The rate drifts far slower than the occupancy itself,
    /// so `rate × (current records)` predicts the outgoing window's pair
    /// load from the exact record counts — where the lagged pair pool
    /// trails every hotspot movement by the whole pipeline depth.
    /// Ephemeral like the pair pool: rebuilt from feedback after a
    /// restore.
    pair_rate: HashMap<GridKey, f64>,
    /// Exact per-cell record counts of the most recently observed window.
    /// The pipeline observes each window's records right before it
    /// evaluates, so these are the counts of the very window the next
    /// placement will route, and the planner optimizes the real objective
    /// rather than a decayed blend of history. Empty until the first
    /// observation (e.g. right after a restore), when planning falls back
    /// to the EWMA pools.
    last_records: HashMap<GridKey, f64>,
    /// Per-cell grid-object counts of the windows not yet placed (see
    /// [`LoadBalancer::count`]). Not checkpointed: a restore recounts the
    /// cut's buffered rows.
    open: BTreeMap<u32, HashMap<GridKey, u64>>,
    /// The explicit overlay currently in force (mirrors the installed
    /// routing table; this controller is its only writer).
    assignments: HashMap<GridKey, usize>,
    epoch: u64,
    cells_migrated: u64,
    windows_since_swap: u32,
}

impl LoadBalancer {
    /// A fresh balancer at epoch 0 (pure consistent hashing).
    pub fn new(config: BalancerConfig, parallelism: usize) -> Self {
        LoadBalancer {
            config,
            parallelism: parallelism.max(1),
            rec_estimates: HashMap::new(),
            pair_estimates: HashMap::new(),
            pair_rate: HashMap::new(),
            last_records: HashMap::new(),
            open: BTreeMap::new(),
            assignments: HashMap::new(),
            epoch: 0,
            cells_migrated: 0,
            windows_since_swap: 0,
        }
    }

    /// Rebuilds a balancer from its checkpoint, dropping assignments that
    /// name subtasks beyond the (possibly smaller) restored parallelism.
    pub fn from_checkpoint(
        config: BalancerConfig,
        parallelism: usize,
        ckpt: &RoutingCheckpoint,
    ) -> Self {
        let n = parallelism.max(1);
        LoadBalancer {
            config,
            parallelism: n,
            rec_estimates: ckpt
                .loads
                .iter()
                .map(|l| (GridKey::new(l.x, l.y), l.load_milli as f64 / 1e3))
                .collect(),
            pair_estimates: HashMap::new(),
            pair_rate: HashMap::new(),
            last_records: HashMap::new(),
            open: BTreeMap::new(),
            assignments: ckpt
                .assignments
                .iter()
                .filter(|a| (a.subtask as usize) < n)
                .map(|a| (GridKey::new(a.x, a.y), a.subtask as usize))
                .collect(),
            epoch: ckpt.epoch,
            cells_migrated: ckpt.cells_migrated,
            windows_since_swap: 0,
        }
    }

    /// The canonical durable form of the learned placement.
    pub fn checkpoint(&self) -> RoutingCheckpoint {
        let mut assignments: Vec<CellAssignment> = self
            .assignments
            .iter()
            .map(|(k, &s)| CellAssignment {
                x: k.x,
                y: k.y,
                subtask: s as u32,
            })
            .collect();
        assignments.sort_by_key(|a| (a.x, a.y));
        let mut loads: Vec<CellLoadCheckpoint> = self
            .weights()
            .iter()
            .map(|(k, &w)| CellLoadCheckpoint {
                x: k.x,
                y: k.y,
                load_milli: (w * 1e3).round() as u64,
            })
            .collect();
        loads.sort_by_key(|l| (l.x, l.y));
        RoutingCheckpoint {
            epoch: self.epoch,
            assignments,
            loads,
            cells_migrated: self.cells_migrated,
        }
    }

    /// Current routing epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cells migrated across all epochs so far.
    pub fn cells_migrated(&self) -> u64 {
        self.cells_migrated
    }

    /// The current explicit overlay keyed by routing hash — what a
    /// restored deployment installs into its table before the first
    /// record flows.
    pub fn table_assignments(&self) -> HashMap<u64, usize> {
        self.assignments
            .iter()
            .map(|(k, &s)| (stable_hash(k), s))
            .collect()
    }

    /// The subtask a cell currently routes to.
    fn route(&self, cell: &GridKey) -> usize {
        match self.assignments.get(cell) {
            Some(&s) if s < self.parallelism => s,
            _ => subtask_for(stable_hash(cell), self.parallelism),
        }
    }

    /// The per-cell weight model the planner optimizes. When the exact
    /// record counts of the window about to be routed are in hand, the
    /// model IS that window: exact records plus `rate × records`
    /// predicted pairs — the same quantity the per-window imbalance metric
    /// measures, so the planner optimizes the real objective instead of a
    /// decayed blend of history. Before the first observation (fresh start
    /// or right after a restore) it falls back to the EWMA pools.
    fn weights(&self) -> HashMap<GridKey, f64> {
        if self.last_records.is_empty() {
            let mut out = self.rec_estimates.clone();
            for (cell, w) in &self.pair_estimates {
                *out.entry(*cell).or_insert(0.0) += w;
            }
            return out;
        }
        let mut out = self.last_records.clone();
        for (cell, w) in out.iter_mut() {
            let r = self.last_records[cell];
            // Learned rate first; the additive pool backstops cells whose
            // rate is still unknown — it lives in EWMA units
            // (≈ window/(1−decay)), so one (1−decay) factor converts it
            // to this window's scale.
            *w += match self.pair_rate.get(cell) {
                Some(&rate) => self.config.sync_pair_weight * rate * r,
                None => {
                    (1.0 - self.config.decay)
                        * self.pair_estimates.get(cell).copied().unwrap_or(0.0)
                }
            };
        }
        out
    }

    /// Folds one window boundary's worth of allocate-side record counts:
    /// decay, add, and drop cells with no occupancy this window — their
    /// squads moved on, and balancing that phantom mass would misplace
    /// real load (a vacated cell re-enters through hash fallback when
    /// traffic returns).
    pub fn observe_records(&mut self, observed: &HashMap<GridKey, u64>) {
        if observed.is_empty() {
            // No information, not "everything vacated": an idle boundary
            // (stream gap, or the first boundary after a restore, before
            // any window has been emitted) must not erode the model —
            // in particular not the checkpoint-restored estimates.
            return;
        }
        for w in self.rec_estimates.values_mut() {
            *w *= self.config.decay;
        }
        for (cell, &records) in observed {
            *self.rec_estimates.entry(*cell).or_insert(0.0) += records as f64;
        }
        self.last_records = observed.iter().map(|(&c, &r)| (c, r as f64)).collect();
        self.rec_estimates
            .retain(|cell, w| *w > 1e-3 && observed.contains_key(cell));
        self.pair_estimates
            .retain(|cell, _| self.rec_estimates.contains_key(cell));
        self.pair_rate
            .retain(|cell, _| self.rec_estimates.contains_key(cell));
        self.windows_since_swap = self.windows_since_swap.saturating_add(1);
    }

    /// Folds ONE sealed window's pair counts from the query-side
    /// feedback (one entry per cell, as [`LoadTracker::drain_cells`]
    /// yields them). Call once per sealed window (in time order) — the
    /// decay-per-fold is what normalizes bursts of late feedback.
    pub fn observe_pairs_window(&mut self, observed: &[(GridKey, CellLoad)]) {
        for w in self.pair_estimates.values_mut() {
            *w *= self.config.decay;
        }
        for (cell, load) in observed {
            // Pairs only refresh cells the record pool still considers
            // occupied; feedback for vacated cells is history.
            if !self.rec_estimates.contains_key(cell) {
                continue;
            }
            // Each pair is weighted by its full downstream cost:
            // query-side discovery plus its share of the sync merge path.
            *self.pair_estimates.entry(*cell).or_insert(0.0) +=
                load.pairs as f64 * self.config.sync_pair_weight;
            // The rate is the scale-free form of the same feedback: pairs
            // per record learned where the pairs were *measured* transfers
            // across hotspot drift.
            self.blend_rate(*cell, load.pairs as f64 / (load.records.max(1) as f64));
        }
        self.pair_estimates.retain(|_, w| *w > 1e-3);
    }

    /// EWMA-blends one observed pair rate (pairs per record) into the
    /// per-cell coefficient; the first observation seeds it directly.
    fn blend_rate(&mut self, cell: GridKey, obs_rate: f64) {
        let d = self.config.decay;
        let rate = self.pair_rate.entry(cell).or_insert(obs_rate);
        *rate = d * *rate + (1.0 - d) * obs_rate;
    }

    /// Projects per-subtask loads under the routing currently in force
    /// and — when the hot threshold trips and the cooldown has passed —
    /// plans a migration. Returns `None` while no load has ever been
    /// observed.
    ///
    /// Call once per window boundary, after
    /// [`LoadBalancer::observe_records`] has folded the outgoing window:
    /// placement then plans on the exact record distribution of the
    /// window it is about to route.
    pub fn evaluate(&mut self) -> Option<BalanceOutcome> {
        let estimates = self.weights();
        if estimates.is_empty() {
            return None;
        }
        let n = self.parallelism;
        let mut loads = vec![0.0f64; n];
        for (cell, &w) in &estimates {
            loads[self.route(cell)] += w;
        }
        let total: f64 = loads.iter().sum();
        let mean = total / n as f64;
        let max = loads.iter().cloned().fold(0.0, f64::max);

        let hot = mean > 0.0 && max > self.config.theta * mean;
        let plan = if !hot || n < 2 || self.windows_since_swap <= self.config.cooldown_windows {
            None
        } else {
            self.plan_placement(&estimates, &mut loads, mean)
        };
        Some(BalanceOutcome {
            max_load: max,
            mean_load: mean,
            plan,
        })
    }

    /// Counts the grid objects GridAllocate makes of one `location` of
    /// window `time` — its home cell and its Lemma-1 replicas — into the
    /// window's per-cell distribution, which [`LoadBalancer::place`] plans
    /// on when the window seals.
    pub fn count(&mut self, time: u32, location: Point, grid: &Grid, eps: f64) {
        let cells = self.open.entry(time).or_default();
        *cells.entry(grid.key_of(location)).or_default() += 1;
        grid.for_each_lemma1_key(location, eps, |cell| *cells.entry(cell).or_default() += 1);
    }

    /// The window boundary of a controller that counts every record before
    /// it is routed: folds the counted objects of the sealed windows
    /// `times` (ascending) and each window of query-side pair `feedback`
    /// (from [`LoadTracker::drain_cells`]), then evaluates once. Returns
    /// the table swap the sealed windows must be routed under, if any.
    pub fn place(&mut self, times: &[u32], feedback: Vec<(u32, CellRun)>) -> Option<RebalancePlan> {
        for t in times {
            let records = self.open.remove(t).unwrap_or_default();
            self.observe_records(&records);
        }
        for (_, cells) in feedback {
            self.observe_pairs_window(&cells);
        }
        self.evaluate().and_then(|outcome| outcome.plan)
    }

    /// Test/embedding convenience: fold one fully observed window
    /// (records + pairs arriving together, one entry per cell) and
    /// evaluate.
    pub fn on_window_boundary(
        &mut self,
        observed: &[(GridKey, CellLoad)],
    ) -> Option<BalanceOutcome> {
        let records: HashMap<GridKey, u64> = observed
            .iter()
            .filter(|(_, l)| l.records > 0)
            .map(|&(c, l)| (c, l.records))
            .collect();
        self.observe_records(&records);
        self.observe_pairs_window(observed);
        self.evaluate()
    }

    /// Incremental migration: repeatedly *split* the heaviest-loaded cell
    /// that fits off the hottest subtask onto the coldest one, keeping the
    /// rest of the placement untouched. Stability is the point — a
    /// from-scratch re-placement (LPT over every cell) rewrites hundreds
    /// of routes per epoch and chases its own estimation noise on a moving
    /// hotspot; moving a handful of cells from hot to cold each boundary
    /// tracks the drift with bounded churn. Returns `None` when no single
    /// move improves the split (e.g. one atomic cell *is* the hotspot —
    /// cell-granularity routing cannot split below a cell).
    fn plan_placement(
        &mut self,
        estimates: &HashMap<GridKey, f64>,
        loads: &mut [f64],
        mean: f64,
    ) -> Option<RebalancePlan> {
        let n = self.parallelism;
        // Cells grouped by their current subtask, heaviest first.
        let mut by_subtask: Vec<Vec<(GridKey, f64)>> = vec![Vec::new(); n];
        for (&cell, &w) in estimates {
            by_subtask[self.route(&cell)].push((cell, w));
        }
        for cells in &mut by_subtask {
            cells.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("loads are finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
        }

        let mut migrated = 0u64;
        // Budget: a few moves per boundary keeps any one swap cheap; the
        // next boundary continues where this one stopped.
        for _ in 0..4 * n {
            let hot = (0..n)
                .max_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite"))
                .expect("n ≥ 1");
            let cold = (0..n)
                .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).expect("finite"))
                .expect("n ≥ 1");
            let gap = loads[hot] - loads[cold];
            if loads[hot] <= self.config.theta * mean || gap <= f64::EPSILON {
                break;
            }
            // The best single move halves the gap: the cell whose weight
            // is closest to gap/2 (strictly below gap, or the move makes
            // things worse). `by_subtask[hot]` is sorted heaviest-first,
            // so scan until weights drop below the improvement bound.
            let pick = by_subtask[hot]
                .iter()
                .enumerate()
                .filter(|(_, (_, w))| *w < gap)
                .min_by(|(_, (_, a)), (_, (_, b))| {
                    (a - gap / 2.0)
                        .abs()
                        .partial_cmp(&(b - gap / 2.0).abs())
                        .expect("finite")
                })
                .map(|(i, &(cell, w))| (i, cell, w));
            let Some((idx, cell, w)) = pick else {
                break; // hot subtask holds one atomic mega-cell
            };
            by_subtask[hot].remove(idx);
            by_subtask[cold].push((cell, w));
            loads[hot] -= w;
            loads[cold] += w;
            if cold == subtask_for(stable_hash(&cell), n) {
                self.assignments.remove(&cell); // merged back to fallback
            } else {
                self.assignments.insert(cell, cold);
            }
            migrated += 1;
        }
        if migrated == 0 {
            return None;
        }

        // Housekeeping: drop pins for cells that have gone cold (decayed
        // out of the estimates — they carry no current traffic, so no
        // route effectively changes), and enforce the overlay budget by
        // unpinning the lightest cells. A budget eviction DOES change a
        // live route (a pin exists only where it differs from the hash
        // fallback), so it counts as a migration.
        self.assignments
            .retain(|cell, _| estimates.contains_key(cell));
        if self.assignments.len() > self.config.max_mapped_cells {
            let mut pinned: Vec<(GridKey, f64)> = self
                .assignments
                .keys()
                .map(|&c| (c, estimates.get(&c).copied().unwrap_or(0.0)))
                .collect();
            pinned.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            let excess = self.assignments.len() - self.config.max_mapped_cells;
            for (cell, _) in pinned.into_iter().take(excess) {
                self.assignments.remove(&cell);
                migrated += 1;
            }
        }

        self.epoch += 1;
        self.cells_migrated += migrated;
        self.windows_since_swap = 0;
        Some(RebalancePlan {
            epoch: self.epoch,
            assignments: self.table_assignments(),
            migrated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn load(records: u64, pairs: u64) -> CellLoad {
        CellLoad { records, pairs }
    }

    /// Cells that hash-route to one subtask at parallelism 4 — the
    /// adversarial placement a Zipf hotspot produces by accident.
    fn colliding_cells(n: usize, count: usize) -> Vec<GridKey> {
        let target = subtask_for(stable_hash(&GridKey::new(0, 0)), n);
        let mut out = vec![GridKey::new(0, 0)];
        let mut x = 1i64;
        while out.len() < count {
            let k = GridKey::new(x, 0);
            if subtask_for(stable_hash(&k), n) == target {
                out.push(k);
            }
            x += 1;
        }
        out
    }

    #[test]
    fn place_plans_on_the_counted_objects_of_the_sealed_windows() {
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.1,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            4,
        );
        let grid = Grid::new(1.0);
        let hot = colliding_cells(4, 4);
        for cell in &hot {
            // Cell centres, far from the edges: no Lemma-1 replicas.
            let at = Point::new(cell.x as f64 + 0.5, 0.5);
            for _ in 0..10 {
                b.count(3, at, &grid, 0.1);
            }
        }
        assert_eq!(b.open[&3].values().sum::<u64>(), 40);
        assert!(b.place(&[], Vec::new()).is_none(), "nothing sealed yet");
        let plan = b
            .place(&[3], Vec::new())
            .expect("four hot cells on one subtask");
        assert!(plan.migrated > 0);
        assert!(b.open.is_empty(), "the sealed window's counts are folded");
    }

    #[test]
    fn tracker_seals_windows_after_all_reports() {
        let t = LoadTracker::new(3, false);
        t.record_window(0, 0, 10, &[]);
        t.record_window(0, 1, 0, &[]);
        assert!(t.last_sealed().is_none(), "one report missing");
        t.record_window(0, 2, 5, &[]);
        assert_eq!(t.last_sealed(), Some((0, vec![10, 0, 5])));
        assert_eq!(t.sealed_windows().len(), 1);
        assert!(t.sealed_cell_windows().is_empty(), "totals only");
        assert!(t.drain_cells().is_empty(), "totals only");
    }

    #[test]
    fn tracker_rewind_forgets_windows_after_the_cut() {
        let t = LoadTracker::new(2, true);
        let cell = [(GridKey::new(1, 1), load(1, 0))];
        for time in 0..4 {
            t.record_window(time, 0, 1, &cell);
            t.record_window(time, 1, 1, &[]);
        }
        t.record_window(4, 0, 1, &cell);
        t.rewind(Some(1));
        let times = |w: Vec<(u32, Vec<u64>)>| w.into_iter().map(|(t, _)| t).collect::<Vec<_>>();
        assert_eq!(times(t.sealed_windows()), vec![0, 1]);
        assert_eq!(t.sealed_cell_windows().len(), 2);
        assert_eq!(t.drain_cells().len(), 2);
        // The half-reported window 4 is gone too: replay reports it anew,
        // and it seals at its second report, not its first.
        t.record_window(4, 0, 1, &cell);
        assert_eq!(times(t.sealed_windows()), vec![0, 1]);
        t.rewind(None);
        assert!(t.sealed_windows().is_empty() && t.last_sealed().is_none());
    }

    #[test]
    fn tracker_drains_whole_windows_only() {
        let t = LoadTracker::new(2, true);
        let run = [
            (GridKey::new(1, 1), load(4, 6)),
            (GridKey::new(1, 1), load(1, 0)),
            (GridKey::new(2, 2), load(2, 0)),
        ];
        t.record_window(0, 0, 13, &run);
        assert!(
            t.drain_cells().is_empty(),
            "half-reported windows must not leak into the estimates"
        );
        t.record_window(0, 1, 0, &[]);
        let drained = t.drain_cells();
        assert_eq!(drained.len(), 1, "one whole window");
        let (time, cells) = &drained[0];
        assert_eq!(*time, 0);
        assert_eq!(
            cells,
            &vec![
                (GridKey::new(1, 1), load(5, 6)),
                (GridKey::new(2, 2), load(2, 0))
            ]
        );
        assert_eq!(
            t.sealed_cell_windows(),
            vec![(0, vec![(GridKey::new(1, 1), 11), (GridKey::new(2, 2), 2)])]
        );
        assert!(t.drain_cells().is_empty(), "drain resets");
    }

    /// The old accounting: every reported cell folded into a map.
    fn fold_into_map<'a>(
        runs: impl IntoIterator<Item = &'a (GridKey, CellLoad)>,
    ) -> HashMap<GridKey, CellLoad> {
        let mut map: HashMap<GridKey, CellLoad> = HashMap::new();
        for &(cell, l) in runs {
            let e = map.entry(cell).or_default();
            e.records += l.records;
            e.pairs += l.pairs;
        }
        map
    }

    #[test]
    fn batched_reports_drain_like_per_cell_reports() {
        // Each subtask reports its window's cells as one sorted run; the
        // drained per-cell loads are the sums the per-cell reports would
        // have accumulated, one entry per cell in key order.
        let t = LoadTracker::new(2, true);
        let first = [
            (GridKey::new(0, 0), load(3, 1)),
            (GridKey::new(0, 1), load(2, 0)),
            (GridKey::new(5, 5), load(1, 1)),
        ];
        let second = [
            (GridKey::new(-1, 2), load(1, 0)),
            (GridKey::new(5, 5), load(7, 4)),
            (GridKey::new(5, 5), load(1, 2)),
        ];
        t.record_window(4, 0, 8, &first);
        t.record_window(4, 1, 15, &second);
        let drained = t.drain_cells();
        assert_eq!(drained.len(), 1);
        let (time, cells) = &drained[0];
        assert_eq!(*time, 4);
        assert!(cells.windows(2).all(|w| w[0].0 < w[1].0), "{cells:?}");
        let merged: HashMap<GridKey, CellLoad> = cells.iter().copied().collect();
        assert_eq!(merged, fold_into_map(first.iter().chain(&second)));
        assert_eq!(merged[&GridKey::new(5, 5)], load(9, 7));
    }

    #[test]
    fn imbalance_math() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert_eq!(imbalance(&[10, 10]), 1.0);
        assert_eq!(imbalance(&[40, 0, 0, 0]), 4.0);
    }

    #[test]
    fn balancer_splits_colliding_hot_cells() {
        let n = 4;
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.2,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            n,
        );
        let cells = colliding_cells(n, 4);
        let observed: Vec<_> = cells.iter().map(|&c| (c, load(100, 100))).collect();
        let outcome = b.on_window_boundary(&observed).expect("load observed");
        assert!(
            outcome.max_load / outcome.mean_load > 1.2,
            "collisions must look hot"
        );
        let plan = outcome.plan.expect("rebalance triggered");
        assert_eq!(plan.epoch, 1);
        assert!(plan.migrated >= 3, "4 equal cells spread over 4 subtasks");

        // Re-projection under the new placement is balanced: feed the
        // same observation again and expect no further plan.
        let observed: Vec<_> = cells.iter().map(|&c| (c, load(100, 100))).collect();
        let outcome = b.on_window_boundary(&observed).expect("load observed");
        assert!(
            outcome.plan.is_none(),
            "already balanced: max {} mean {}",
            outcome.max_load,
            outcome.mean_load
        );
        assert!(outcome.max_load / outcome.mean_load <= 1.2);
    }

    #[test]
    fn cooldown_defers_consecutive_swaps() {
        let n = 4;
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.2,
                cooldown_windows: 3,
                ..BalancerConfig::default()
            },
            n,
        );
        let cells = colliding_cells(n, 4);
        for round in 0..4 {
            let observed: Vec<_> = cells.iter().map(|&c| (c, load(50, 0))).collect();
            let outcome = b.on_window_boundary(&observed).expect("load observed");
            if round < 3 {
                assert!(outcome.plan.is_none(), "round {round} inside cooldown");
            } else {
                assert!(outcome.plan.is_some(), "cooldown passed");
            }
        }
    }

    #[test]
    fn single_subtask_never_plans() {
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.0,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            1,
        );
        let outcome = b
            .on_window_boundary(&[(GridKey::new(0, 0), load(1000, 0))])
            .expect("load observed");
        assert!(outcome.plan.is_none());
    }

    #[test]
    fn checkpoint_round_trips_placement() {
        let n = 4;
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.1,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            n,
        );
        let cells = colliding_cells(n, 5);
        let observed: Vec<_> = cells.iter().map(|&c| (c, load(80, 20))).collect();
        b.on_window_boundary(&observed).expect("load observed");
        assert_eq!(b.epoch(), 1);

        let ckpt = b.checkpoint();
        assert_eq!(ckpt.epoch, 1);
        assert!(ckpt
            .assignments
            .windows(2)
            .all(|w| (w[0].x, w[0].y) < (w[1].x, w[1].y)));
        let restored = LoadBalancer::from_checkpoint(BalancerConfig::default(), n, &ckpt);
        assert_eq!(restored.epoch(), 1);
        assert_eq!(restored.cells_migrated(), b.cells_migrated());
        assert_eq!(restored.table_assignments(), b.table_assignments());
        assert_eq!(restored.checkpoint(), ckpt, "canonical form is stable");
    }

    #[test]
    fn empty_observation_preserves_restored_estimates() {
        // The first post-restore boundary runs before any window has been
        // emitted: an empty observation must not wipe the checkpointed
        // model (that is the whole point of persisting the loads).
        let n = 4;
        let mut b = LoadBalancer::new(
            BalancerConfig {
                theta: 1.1,
                cooldown_windows: 0,
                ..BalancerConfig::default()
            },
            n,
        );
        let observed: Vec<_> = colliding_cells(n, 4)
            .into_iter()
            .map(|c| (c, load(80, 20)))
            .collect();
        b.on_window_boundary(&observed).expect("load observed");
        let ckpt = b.checkpoint();
        assert!(!ckpt.loads.is_empty());

        let mut restored = LoadBalancer::from_checkpoint(BalancerConfig::default(), n, &ckpt);
        restored.observe_records(&HashMap::new());
        restored.observe_records(&HashMap::new());
        assert_eq!(
            restored.checkpoint().loads,
            ckpt.loads,
            "idle boundaries must not erode the restored model"
        );
    }

    #[test]
    fn tracker_history_is_bounded() {
        for per_cell in [false, true] {
            let t = LoadTracker::new(1, per_cell);
            for time in 0..(super::MAX_WINDOW_HISTORY as u32 + 50) {
                let cells = [(GridKey::new(0, 0), load(1, 0))];
                t.record_window(time, 0, 1, if per_cell { &cells } else { &[] });
            }
            // Nothing drains here; every ring must stay bounded and keep
            // the newest windows.
            let sealed = t.sealed_windows();
            assert_eq!(sealed.len(), super::MAX_WINDOW_HISTORY);
            assert_eq!(sealed.first().expect("nonempty").0, 50, "oldest dropped");
            assert_eq!(
                t.last_sealed().expect("nonempty").0,
                sealed.last().unwrap().0
            );
            let cells = t.sealed_cell_windows();
            let ready = t.drain_cells();
            if per_cell {
                assert_eq!(cells.len(), super::MAX_CELL_WINDOW_HISTORY);
                assert_eq!(ready.len(), super::MAX_READY_BACKLOG);
                let newest = super::MAX_WINDOW_HISTORY as u32 + 49;
                assert_eq!(cells.last().expect("nonempty").0, newest);
                assert_eq!(ready.last().expect("nonempty").0, newest);
                assert!(ready.windows(2).all(|w| w[0].0 + 1 == w[1].0));
            } else {
                assert!(cells.is_empty() && ready.is_empty());
            }
        }
    }

    #[test]
    fn restore_at_smaller_parallelism_drops_dead_subtasks() {
        let ckpt = RoutingCheckpoint {
            epoch: 3,
            assignments: vec![
                CellAssignment {
                    x: 0,
                    y: 0,
                    subtask: 1,
                },
                CellAssignment {
                    x: 1,
                    y: 0,
                    subtask: 6,
                },
            ],
            loads: Vec::new(),
            cells_migrated: 2,
        };
        let b = LoadBalancer::from_checkpoint(BalancerConfig::default(), 2, &ckpt);
        let table = b.table_assignments();
        assert_eq!(table.len(), 1, "subtask-6 pin dropped at parallelism 2");
        assert_eq!(table[&stable_hash(&GridKey::new(0, 0))], 1);
    }

    /// A balancer that plans at the slightest imbalance, every window.
    fn eager() -> BalancerConfig {
        BalancerConfig {
            theta: 1.1,
            cooldown_windows: 0,
            ..BalancerConfig::default()
        }
    }

    /// Counts `records` grid objects of `cell` into window `time`, as
    /// [`LoadBalancer::count`] does one object at a time.
    fn count_records(b: &mut LoadBalancer, time: u32, cell: GridKey, records: u64) {
        *b.open.entry(time).or_default().entry(cell).or_default() += records;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random per-subtask sorted runs, repeated keys included, drain
        /// to the per-cell sums the old map fold made; and a balancer fed
        /// the merged runs plans exactly like one fed the map.
        #[test]
        fn merged_runs_fold_like_the_cell_map(
            n in 2usize..5,
            windows in prop::collection::vec(
                prop::collection::vec((0i64..12, 0i64..3, 1u64..20, 0u64..3), 0..40),
                1..12,
            ),
        ) {
            let tracker = LoadTracker::new(n, true);
            let mut by_runs = LoadBalancer::new(eager(), n);
            let mut by_map = LoadBalancer::new(eager(), n);
            for (t, reports) in windows.iter().enumerate() {
                let t = t as u32;
                // Deal the reports to subtasks; each sends a sorted run.
                let mut runs: Vec<CellRun> = vec![Vec::new(); n];
                for (i, &(x, y, records, rate)) in reports.iter().enumerate() {
                    // An integer pair rate keeps every estimate dyadic,
                    // so float sums cannot depend on map iteration order.
                    let load = CellLoad { records, pairs: records * rate };
                    runs[(i * 7 + x as usize) % n].push((GridKey::new(x, y), load));
                }
                for run in &mut runs {
                    run.sort_by_key(|&(cell, _)| cell);
                }
                for (subtask, run) in runs.iter().enumerate() {
                    let total = run.iter().map(|(_, l)| l.weight()).sum();
                    tracker.record_window(t, subtask, total, run);
                }
                let map = fold_into_map(runs.iter().flatten());
                for (&cell, l) in &map {
                    for b in [&mut by_runs, &mut by_map] {
                        count_records(b, t, cell, l.records);
                    }
                }
                let drained = tracker.drain_cells();
                prop_assert_eq!(drained.len(), 1);
                let merged = &drained[0].1;
                prop_assert!(merged.windows(2).all(|w| w[0].0 < w[1].0));
                let as_map: HashMap<GridKey, CellLoad> = merged.iter().copied().collect();
                prop_assert_eq!(&as_map, &map);
                let plan = |p: Option<RebalancePlan>| p.map(|p| (p.epoch, p.migrated, p.assignments));
                let want = plan(by_map.place(&[t], vec![(t, map.into_iter().collect())]));
                let got = plan(by_runs.place(&[t], drained));
                prop_assert_eq!(got, want, "window {}", t);
            }
        }
    }
}
