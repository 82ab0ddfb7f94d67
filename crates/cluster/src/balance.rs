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
//!   subtasks: per-cell load (buffered objects + produced pairs) per
//!   window, plus per-subtask window totals for observability and benches;
//! * [`LoadBalancer`] — the controller (run by the single allocate
//!   subtask at snapshot boundaries): maintains decayed per-cell load
//!   estimates, detects hot placements (`max > θ × mean`), and produces a
//!   [`RebalancePlan`] that *splits* the hot cells out of their hash
//!   buckets onto explicitly assigned subtasks (largest-load-first onto
//!   the least-loaded subtask) while cold cells *merge* back to the
//!   consistent-hash default.
//!
//! The balancer is deliberately mechanism-free: it never touches a
//! routing table or a channel. The pipeline installs the plan into an
//! `icpe-runtime` `RoutingTable` at a window boundary — the only point
//! where no per-cell buffer is live, so a swap can never split an
//! in-flight window across subtasks.
//!
//! The unit of placement is a whole grid cell: a single cell hotter than
//! a subtask's fair share stays on one subtask. Splitting such cells into
//! routable sub-cells was measured on the skew bench and moved neither the
//! p95 imbalance nor throughput beyond run-to-run noise.

use icpe_index::GridKey;
use icpe_types::shard::{stable_hash, subtask_for};
use icpe_types::{CellAssignment, CellLoadCheckpoint, RoutingCheckpoint};
use std::collections::{BTreeMap, HashMap};
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
#[derive(Debug)]
pub struct LoadTracker {
    parallelism: usize,
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
/// windows, and `ready` — drained promptly whenever a balancer runs —
/// drops its oldest past this when nothing drains (static routing).
const MAX_CELL_WINDOW_HISTORY: usize = 512;
const MAX_READY_BACKLOG: usize = 64;

#[derive(Debug, Default)]
struct TrackerInner {
    /// Per-cell loads of windows that have fully sealed, awaiting the
    /// balancer's drain — one entry per window. Only whole windows land
    /// here: folding a partially flushed window into the balancer's
    /// estimates would make a cell's load appear to halve and double with
    /// scheduling luck, and the balancer would chase that noise with
    /// useless migrations.
    ready: Vec<(u32, HashMap<GridKey, CellLoad>)>,
    /// Open windows: per-cell and per-subtask loads plus how many
    /// subtasks reported.
    open: BTreeMap<u32, WindowAcc>,
    /// Sealed windows (every subtask reported), ascending by time.
    sealed: Vec<(u32, Vec<u64>)>,
    /// Per-cell loads of sealed windows (for hindsight analyses).
    sealed_cells: Vec<(u32, Vec<(GridKey, u64)>)>,
}

#[derive(Debug, Default)]
struct WindowAcc {
    cells: HashMap<GridKey, CellLoad>,
    loads: Vec<u64>,
    reports: usize,
}

impl LoadTracker {
    /// A tracker for `parallelism` GridQuery subtasks.
    pub fn new(parallelism: usize) -> Self {
        LoadTracker {
            parallelism: parallelism.max(1),
            inner: Mutex::new(TrackerInner::default()),
        }
    }

    /// The subtask count the tracker was sized for.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Records a batch of cells' loads in window `time` (called by the
    /// owning subtask once per window flush, with every cell it ran — one
    /// lock acquisition per batch). Loads of a cell reported more than once
    /// add up. The loads stay staged until the whole window seals.
    pub fn record_cells(&self, time: u32, cells: &[(GridKey, CellLoad)]) {
        if cells.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("load tracker poisoned");
        let window = &mut inner.open.entry(time).or_default().cells;
        for &(cell, load) in cells {
            let entry = window.entry(cell).or_default();
            entry.records += load.records;
            entry.pairs += load.pairs;
        }
    }

    /// Records one subtask's total load for window `time`. Every subtask
    /// reports every window (ticks are broadcast), so the window seals at
    /// the `parallelism`-th report — at which point its per-cell loads
    /// become drainable as one consistent unit.
    pub fn record_window(&self, time: u32, subtask: usize, load: u64) {
        let n = self.parallelism;
        let mut inner = self.inner.lock().expect("load tracker poisoned");
        let acc = inner.open.entry(time).or_default();
        if acc.loads.is_empty() {
            acc.loads = vec![0; n];
        }
        if let Some(slot) = acc.loads.get_mut(subtask) {
            *slot += load;
        }
        acc.reports += 1;
        if acc.reports >= n {
            let acc = inner.open.remove(&time).expect("window present");
            let mut cells: Vec<(GridKey, u64)> =
                acc.cells.iter().map(|(&c, l)| (c, l.weight())).collect();
            cells.sort_by_key(|&(c, _)| c);
            inner.ready.push((time, acc.cells));
            inner.sealed.push((time, acc.loads));
            inner.sealed_cells.push((time, cells));
            let excess = inner.sealed.len().saturating_sub(MAX_WINDOW_HISTORY);
            if excess > 0 {
                inner.sealed.drain(..excess);
            }
            let excess = inner
                .sealed_cells
                .len()
                .saturating_sub(MAX_CELL_WINDOW_HISTORY);
            if excess > 0 {
                inner.sealed_cells.drain(..excess);
            }
            let excess = inner.ready.len().saturating_sub(MAX_READY_BACKLOG);
            if excess > 0 {
                inner.ready.drain(..excess);
            }
        }
    }

    /// Per-window per-cell loads of sealed windows, ascending by time —
    /// what an oracle placement (hindsight LPT per window) is computed
    /// from in the skew bench.
    pub fn sealed_cell_windows(&self) -> Vec<(u32, Vec<(GridKey, u64)>)> {
        self.inner
            .lock()
            .expect("load tracker poisoned")
            .sealed_cells
            .clone()
    }

    /// Takes the per-cell loads of every window sealed since the last
    /// drain — whole windows only, one entry per window in time order, so
    /// a consumer can decay-fold them window by window no matter how many
    /// sealed between two drains (backpressure makes seals arrive in
    /// bursts; folding a burst as if it were one window whipsaws any
    /// decayed estimate by the burst length).
    pub fn drain_cells(&self) -> Vec<(u32, HashMap<GridKey, CellLoad>)> {
        std::mem::take(&mut self.inner.lock().expect("load tracker poisoned").ready)
    }

    /// All sealed windows so far, `(time, per-subtask loads)` ascending —
    /// the imbalance series the skew bench reports on.
    pub fn sealed_windows(&self) -> Vec<(u32, Vec<u64>)> {
        self.inner
            .lock()
            .expect("load tracker poisoned")
            .sealed
            .clone()
    }

    /// The most recently sealed window, if any.
    pub fn last_sealed(&self) -> Option<(u32, Vec<u64>)> {
        self.inner
            .lock()
            .expect("load tracker poisoned")
            .sealed
            .last()
            .cloned()
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

/// The hotspot controller. Single-owner (the allocate subtask); shares
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
    /// feedback. Call once per sealed window (in time order) — the
    /// decay-per-fold is what normalizes bursts of late feedback.
    pub fn observe_pairs_window(&mut self, observed: &HashMap<GridKey, CellLoad>) {
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

    /// Test/embedding convenience: fold one fully observed window
    /// (records + pairs arriving together) and evaluate.
    pub fn on_window_boundary(
        &mut self,
        observed: HashMap<GridKey, CellLoad>,
    ) -> Option<BalanceOutcome> {
        let records: HashMap<GridKey, u64> = observed
            .iter()
            .filter(|(_, l)| l.records > 0)
            .map(|(&c, l)| (c, l.records))
            .collect();
        self.observe_records(&records);
        self.observe_pairs_window(&observed);
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
    fn tracker_seals_windows_after_all_reports() {
        let t = LoadTracker::new(3);
        t.record_window(0, 0, 10);
        t.record_window(0, 1, 0);
        assert!(t.last_sealed().is_none(), "one report missing");
        t.record_window(0, 2, 5);
        assert_eq!(t.last_sealed(), Some((0, vec![10, 0, 5])));
        assert_eq!(t.sealed_windows().len(), 1);
    }

    #[test]
    fn tracker_drains_whole_windows_only() {
        let t = LoadTracker::new(2);
        t.record_cells(
            0,
            &[
                (GridKey::new(1, 1), load(4, 6)),
                (GridKey::new(1, 1), load(1, 0)),
                (GridKey::new(2, 2), load(2, 0)),
            ],
        );
        t.record_window(0, 0, 11);
        assert!(
            t.drain_cells().is_empty(),
            "half-reported windows must not leak into the estimates"
        );
        t.record_window(0, 1, 2);
        let drained = t.drain_cells();
        assert_eq!(drained.len(), 1, "one whole window");
        let (time, cells) = &drained[0];
        assert_eq!(*time, 0);
        assert_eq!(cells[&GridKey::new(1, 1)].weight(), 11);
        assert_eq!(cells[&GridKey::new(2, 2)].weight(), 2);
        assert!(t.drain_cells().is_empty(), "drain resets");
    }

    #[test]
    fn batched_reports_drain_like_per_cell_reports() {
        // Two subtasks own disjoint cells; each reports its window's cells
        // in one batch, and the drained per-cell loads are the sums the
        // per-cell reports would have accumulated.
        let t = LoadTracker::new(2);
        let first = [
            (GridKey::new(0, 0), load(3, 1)),
            (GridKey::new(0, 1), load(2, 0)),
        ];
        let second = [
            (GridKey::new(5, 5), load(7, 4)),
            (GridKey::new(-1, 2), load(1, 0)),
            (GridKey::new(5, 5), load(1, 2)),
        ];
        t.record_cells(4, &first);
        t.record_window(4, 0, 6);
        t.record_cells(4, &second);
        t.record_cells(4, &[]);
        t.record_window(4, 1, 15);
        let drained = t.drain_cells();
        assert_eq!(drained.len(), 1);
        let (time, cells) = &drained[0];
        assert_eq!(*time, 4);
        let mut expected: HashMap<GridKey, CellLoad> = HashMap::new();
        for &(cell, l) in first.iter().chain(&second) {
            let e = expected.entry(cell).or_default();
            e.records += l.records;
            e.pairs += l.pairs;
        }
        assert_eq!(cells, &expected);
        assert_eq!(cells[&GridKey::new(5, 5)], load(8, 6));
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
        let mut observed = HashMap::new();
        for &c in &cells {
            observed.insert(c, load(100, 100));
        }
        let outcome = b.on_window_boundary(observed).expect("load observed");
        assert!(
            outcome.max_load / outcome.mean_load > 1.2,
            "collisions must look hot"
        );
        let plan = outcome.plan.expect("rebalance triggered");
        assert_eq!(plan.epoch, 1);
        assert!(plan.migrated >= 3, "4 equal cells spread over 4 subtasks");

        // Re-projection under the new placement is balanced: feed the
        // same observation again and expect no further plan.
        let mut observed = HashMap::new();
        for &c in &cells {
            observed.insert(c, load(100, 100));
        }
        let outcome = b.on_window_boundary(observed).expect("load observed");
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
            let mut observed = HashMap::new();
            for &c in &cells {
                observed.insert(c, load(50, 0));
            }
            let outcome = b.on_window_boundary(observed).expect("load observed");
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
            .on_window_boundary(HashMap::from([(GridKey::new(0, 0), load(1000, 0))]))
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
        let mut observed = HashMap::new();
        for &c in &cells {
            observed.insert(c, load(80, 20));
        }
        b.on_window_boundary(observed).expect("load observed");
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
        let mut observed = HashMap::new();
        for &c in &colliding_cells(n, 4) {
            observed.insert(c, load(80, 20));
        }
        b.on_window_boundary(observed).expect("load observed");
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
        let t = LoadTracker::new(1);
        for time in 0..(super::MAX_WINDOW_HISTORY as u32 + 50) {
            t.record_cells(time, &[(GridKey::new(0, 0), load(1, 0))]);
            t.record_window(time, 0, 1);
        }
        // Nothing drains in static mode; every buffer must stay bounded.
        assert_eq!(t.sealed_windows().len(), super::MAX_WINDOW_HISTORY);
        assert_eq!(
            t.sealed_cell_windows().len(),
            super::MAX_CELL_WINDOW_HISTORY
        );
        assert_eq!(t.drain_cells().len(), super::MAX_READY_BACKLOG);
        assert_eq!(
            t.sealed_windows().first().expect("nonempty").0,
            50,
            "oldest windows are the ones dropped"
        );
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
}
