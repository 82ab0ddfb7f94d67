//! The row model of the η-window state and of FBA's enumeration — what
//! shipped before the bit table ([`crate::engine`]) and the depth-first
//! kernel ([`crate::fba`]) — kept, test-only, as the reference the live
//! code is proven equal to: per owner a `BTreeMap` of partition rows, a
//! window copied out as η rows, one heap [`BitString`] rebuilt per member
//! per window, and level-by-level apriori over `(Vec<usize>, BitString)`
//! entries.

use crate::bitstring::BitString;
use crate::engine::{EngineConfig, PatternEngine};
use crate::fba::FbaEngine;
use crate::partition::Partition;
use crate::runs::Semantics;
use icpe_types::{
    Constraints, EngineCheckpoint, HistoryRowCheckpoint, ObjectId, Pattern, PatternBatch,
    TimeSequence, Timestamp, WindowOwnerCheckpoint,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// One ready-to-process window: the owner's partitions over
/// `[start, start + window.len())`; `window[0]` is the candidates' pool.
struct WindowTask {
    owner: ObjectId,
    start: u32,
    window: Vec<Arc<[ObjectId]>>,
}

/// Buffers each owner's partitions, schedules a window per (owner, start
/// time where the owner has a partition), and releases windows once η
/// snapshots are available (or at end of stream).
struct RowWindows {
    eta: u32,
    histories: HashMap<ObjectId, BTreeMap<u32, Arc<[ObjectId]>>>,
    starts: HashMap<ObjectId, VecDeque<u32>>,
    /// deadline time → owners whose oldest pending start completes then.
    deadlines: BTreeMap<u32, Vec<ObjectId>>,
    last_time: Option<u32>,
}

impl RowWindows {
    fn new(constraints: &Constraints) -> Self {
        RowWindows {
            eta: constraints.eta() as u32,
            histories: HashMap::new(),
            starts: HashMap::new(),
            deadlines: BTreeMap::new(),
            last_time: None,
        }
    }

    fn push_partitions(&mut self, time: Timestamp, partitions: Vec<Partition>) -> Vec<WindowTask> {
        let t = time.0;
        if let Some(prev) = self.last_time {
            assert!(t > prev, "cluster snapshots must arrive in time order");
        }
        self.last_time = Some(t);
        for part in partitions {
            self.histories
                .entry(part.owner)
                .or_default()
                .insert(t, Arc::from(part.members));
            self.starts.entry(part.owner).or_default().push_back(t);
            self.deadlines
                .entry(t + self.eta - 1)
                .or_default()
                .push(part.owner);
        }
        let mut tasks = Vec::new();
        let due: Vec<u32> = self.deadlines.range(..=t).map(|(&d, _)| d).collect();
        for d in due {
            for owner in self.deadlines.remove(&d).unwrap() {
                tasks.push(self.release(owner, d + 1 - self.eta));
            }
        }
        tasks
    }

    fn finish(&mut self) -> Vec<WindowTask> {
        let Some(last) = self.last_time else {
            return Vec::new();
        };
        let mut pending: Vec<(u32, ObjectId)> = Vec::new();
        for (&owner, starts) in &self.starts {
            pending.extend(starts.iter().map(|&s| (s, owner)));
        }
        pending.sort_unstable();
        let tasks = pending
            .into_iter()
            .map(|(start, owner)| WindowTask {
                owner,
                start,
                window: self.window_slice(owner, start, last.min(start + self.eta - 1)),
            })
            .collect();
        self.histories.clear();
        self.starts.clear();
        self.deadlines.clear();
        tasks
    }

    fn checkpoint(&self) -> (Option<u32>, Vec<WindowOwnerCheckpoint>) {
        let mut owners: Vec<WindowOwnerCheckpoint> = self
            .starts
            .iter()
            .map(|(&owner, starts)| WindowOwnerCheckpoint {
                owner,
                starts: starts.iter().copied().collect(),
                history: self
                    .histories
                    .get(&owner)
                    .map(|h| {
                        h.iter()
                            .map(|(&time, members)| HistoryRowCheckpoint {
                                time,
                                members: members.to_vec(),
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect();
        owners.sort_by_key(|o| o.owner);
        (self.last_time, owners)
    }

    fn restore(
        constraints: &Constraints,
        last_time: Option<u32>,
        owners: &[WindowOwnerCheckpoint],
        keep: impl Fn(ObjectId) -> bool,
    ) -> Self {
        let mut ws = RowWindows::new(constraints);
        ws.last_time = last_time;
        for o in owners.iter().filter(|o| keep(o.owner)) {
            if !o.starts.is_empty() {
                ws.starts
                    .insert(o.owner, o.starts.iter().copied().collect());
                for &s in &o.starts {
                    ws.deadlines
                        .entry(s + ws.eta - 1)
                        .or_default()
                        .push(o.owner);
                }
            }
            if !o.history.is_empty() {
                ws.histories.insert(
                    o.owner,
                    o.history
                        .iter()
                        .map(|row| (row.time, Arc::from(row.members.as_slice())))
                        .collect(),
                );
            }
        }
        ws
    }

    fn release(&mut self, owner: ObjectId, start: u32) -> WindowTask {
        let popped = self
            .starts
            .get_mut(&owner)
            .and_then(|q| q.pop_front())
            .expect("deadline for owner without pending start");
        assert_eq!(popped, start, "window starts must release in order");
        let window = self.window_slice(owner, start, start + self.eta - 1);
        // Prune history no future window of this owner can reference.
        match self.starts.get(&owner).and_then(|q| q.front().copied()) {
            Some(f) => {
                let hist = self.histories.get_mut(&owner).unwrap();
                *hist = hist.split_off(&f);
            }
            None => {
                self.histories.remove(&owner);
                self.starts.remove(&owner);
            }
        }
        WindowTask {
            owner,
            start,
            window,
        }
    }

    fn window_slice(&self, owner: ObjectId, start: u32, end: u32) -> Vec<Arc<[ObjectId]>> {
        let hist = self.histories.get(&owner);
        (start..=end)
            .map(|j| {
                hist.and_then(|h| h.get(&j))
                    .cloned()
                    .unwrap_or_else(|| Arc::from(Vec::new()))
            })
            .collect()
    }
}

/// FBA over the row model.
struct RowFba {
    config: EngineConfig,
    windows: RowWindows,
}

impl RowFba {
    fn new(config: EngineConfig) -> Self {
        RowFba {
            windows: RowWindows::new(&config.constraints),
            config,
        }
    }

    fn from_checkpoint(
        config: EngineConfig,
        ckpt: &EngineCheckpoint,
        keep: impl Fn(ObjectId) -> bool,
    ) -> Self {
        RowFba {
            windows: RowWindows::restore(
                &config.constraints,
                ckpt.last_time,
                &ckpt.window_owners,
                keep,
            ),
            config,
        }
    }

    fn push_partitions(&mut self, time: Timestamp, partitions: Vec<Partition>) -> Vec<Pattern> {
        let tasks = self.windows.push_partitions(time, partitions);
        tasks.into_iter().flat_map(|t| self.process(t)).collect()
    }

    fn finish(&mut self) -> Vec<Pattern> {
        let tasks = self.windows.finish();
        tasks.into_iter().flat_map(|t| self.process(t)).collect()
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        let (last_time, window_owners) = self.windows.checkpoint();
        EngineCheckpoint {
            kind: "FBA".into(),
            last_time,
            skipped_partitions: 0,
            window_owners,
            vba_owners: Vec::new(),
        }
    }

    fn process(&self, task: WindowTask) -> Vec<Pattern> {
        let c = &self.config.constraints;
        let members = task.window[0].clone();
        if members.len() < c.m() - 1 {
            return Vec::new();
        }
        // Definition 13: B[oi][j] = 1 iff owner and oi share a cluster at
        // offset j.
        let strings: Vec<BitString> = members
            .iter()
            .map(|m| {
                let bits: Vec<bool> = task.window.iter().map(|row| row.contains(m)).collect();
                BitString::from_bools(&bits)
            })
            .collect();
        let candidates: Vec<usize> = (0..members.len())
            .filter(|&i| strings[i].satisfies_klg(c.k(), c.l(), c.g(), self.config.semantics))
            .collect();
        if candidates.len() < c.m() - 1 {
            return Vec::new();
        }
        enumerate_candidates(
            &candidates,
            &strings,
            &members,
            task.owner,
            task.start,
            c,
            self.config.semantics,
        )
    }
}

/// Level-by-level apriori: grow object sets from cardinality `M − 1`,
/// extending only with larger candidate indices, pruning sets whose
/// combined bit string is invalid.
fn enumerate_candidates(
    candidates: &[usize],
    strings: &[BitString],
    members: &[ObjectId],
    owner: ObjectId,
    start: u32,
    c: &Constraints,
    semantics: Semantics,
) -> Vec<Pattern> {
    let mut out = Vec::new();
    let mut level: Vec<(Vec<usize>, BitString)> = Vec::new();
    build_combinations(candidates, c.m() - 1, 0, &mut Vec::new(), &mut |chosen| {
        let mut bits = strings[chosen[0]].clone();
        for &i in &chosen[1..] {
            bits.and_assign(&strings[i]);
        }
        level.push((chosen.to_vec(), bits));
    });
    while !level.is_empty() {
        let mut next: Vec<(Vec<usize>, BitString)> = Vec::new();
        for (set, bits) in level {
            let Some(witness) = bits.witness(c.k(), c.l(), c.g(), semantics) else {
                continue;
            };
            let mut objects: Vec<ObjectId> = set.iter().map(|&i| members[i]).collect();
            objects.push(owner);
            let times = TimeSequence::from_raw(witness.into_iter().map(|j| start + j))
                .expect("witness offsets are strictly increasing");
            out.push(Pattern::new(objects, times));
            let max_idx = *set.last().unwrap();
            for &cand in candidates.iter().filter(|&&i| i > max_idx) {
                let mut ext_set = set.clone();
                ext_set.push(cand);
                next.push((ext_set, bits.and(&strings[cand])));
            }
        }
        level = next;
    }
    out
}

/// Calls `f` for every size-`k` combination of `pool` (ascending order).
fn build_combinations(
    pool: &[usize],
    k: usize,
    from: usize,
    combo: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if combo.len() == k {
        f(combo);
        return;
    }
    for i in from..pool.len() {
        if pool.len() - i < k - combo.len() {
            break;
        }
        combo.push(pool[i]);
        build_combinations(pool, k, i + 1, combo, f);
        combo.pop();
    }
}

/// What happens at one tick of a generated stream: `None` — the tick is
/// skipped altogether (a time jump); otherwise the tick's clusters, as a
/// group number per object (0 = in no cluster).
type Tick = Option<Vec<u32>>;

/// Random cluster streams over `objects` objects: members join and leave
/// (a fresh assignment is drawn every few ticks only, so groups persist
/// long enough to make patterns), ticks with no cluster at all, ticks
/// skipped outright, owners that vanish and return inside η.
fn arb_ticks(objects: usize, ticks: usize) -> impl Strategy<Value = Vec<Tick>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u32..3, objects),
            0u32..10,
            prop::collection::vec(0usize..objects, 0..3),
        ),
        2..ticks,
    )
    .prop_map(|draws| {
        let mut held: Vec<u32> = Vec::new();
        draws
            .into_iter()
            .map(|(fresh, fate, leavers)| {
                match fate {
                    0 => return None,             // skipped tick
                    1 => return Some(Vec::new()), // silent tick
                    2 | 3 => held = fresh,
                    _ if held.is_empty() => held = fresh,
                    _ => {}
                }
                // A few objects drop out of their group for this tick only.
                let mut now = held.clone();
                for &o in &leavers {
                    now[o] = 0;
                }
                Some(now)
            })
            .collect()
    })
}

fn partitions_of(groups: &[u32], m: usize) -> Vec<Partition> {
    let mut clusters: BTreeMap<u32, Vec<ObjectId>> = BTreeMap::new();
    for (object, &group) in groups.iter().enumerate() {
        if group > 0 {
            clusters
                .entry(group)
                .or_default()
                .push(ObjectId(object as u32));
        }
    }
    let snapshot = icpe_types::ClusterSnapshot::from_groups(Timestamp(0), clusters.into_values());
    crate::partition::id_partitions(&snapshot, m)
}

fn sorted(mut patterns: Vec<Pattern>) -> Vec<Pattern> {
    patterns.sort_by(|a, b| (&a.objects, a.times.times()).cmp(&(&b.objects, b.times.times())));
    patterns
}

fn json(ckpt: &EngineCheckpoint) -> String {
    serde_json::to_string(ckpt).expect("engine checkpoints serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The bit table and the depth-first kernel against the row model:
    /// after every tick the emitted pattern multiset (objects and witness
    /// times) is equal and the checkpoints serialize byte-identically —
    /// across a mid-stream `checkpoint → from_checkpoint(keep)` cut onto an
    /// owner filter, truncated windows at `finish` included — and the
    /// `Vec<Pattern>` view equals the flat form materialized.
    #[test]
    fn table_and_kernel_equal_the_row_model(
        ticks in arb_ticks(7, 220),
        (m, k, l, g) in (2usize..6, 2usize..7, 1usize..4, 1u32..4),
        // η = (⌈K/L⌉ − 1)(G − 1) + K + L − 1 grows with G at small K: the
        // stretched settings reach η = 141, rows of two and three words,
        // with windows that still fall due inside a 220-tick stream.
        stretch in prop::sample::select(vec![0u32, 12, 25]),
        greedy in prop::bool::ANY,
        cut_at in 0usize..220,
        keep_mod in 1u32..4,
    ) {
        let constraints = Constraints::new(m, k, l.min(k), g + stretch).expect("valid constraints");
        let semantics = if greedy { Semantics::PaperGreedy } else { Semantics::Subsequence };
        let config = EngineConfig::new(constraints).with_semantics(semantics);
        let keep = |o: ObjectId| o.0.is_multiple_of(keep_mod);

        let mut live = FbaEngine::new(config);
        let mut flat = FbaEngine::new(config);
        let mut model = RowFba::new(config);
        let mut batch = PatternBatch::new();
        for (t, tick) in ticks.iter().enumerate() {
            let Some(groups) = tick else { continue };
            if t == cut_at {
                // Each side restores from what the other wrote.
                let (by_table, by_rows) = (live.checkpoint().unwrap(), model.checkpoint());
                prop_assert_eq!(json(&by_table), json(&by_rows));
                live = FbaEngine::from_checkpoint(config, &by_rows, keep).unwrap();
                flat = FbaEngine::from_checkpoint(config, &by_rows, keep).unwrap();
                model = RowFba::from_checkpoint(config, &by_table, keep);
            }
            let mut parts = partitions_of(groups, m);
            let time = Timestamp(t as u32);
            let got = sorted(live.push_partitions(time, parts.clone()));
            let want = sorted(model.push_partitions(time, parts.clone()));
            prop_assert_eq!(&got, &want, "tick {}", t);
            batch.clear();
            flat.push_partitions_into(time, &mut parts, &mut batch);
            prop_assert!(parts.is_empty(), "the flat form drains its input");
            prop_assert_eq!(sorted(batch.to_patterns()), got, "flat form, tick {}", t);
            prop_assert_eq!(json(&live.checkpoint().unwrap()), json(&model.checkpoint()));
        }
        let got = sorted(live.finish());
        prop_assert_eq!(&got, &sorted(model.finish()), "finish");
        batch.clear();
        flat.finish_into(&mut batch);
        prop_assert_eq!(sorted(batch.to_patterns()), got, "flat form, finish");
        prop_assert_eq!(json(&live.checkpoint().unwrap()), json(&model.checkpoint()));
    }
}

#[test]
fn combinations_generator_is_exhaustive_and_canonical() {
    let pool = [2usize, 5, 7, 9];
    let mut seen = Vec::new();
    build_combinations(&pool, 2, 0, &mut Vec::new(), &mut |c| {
        seen.push(c.to_vec());
    });
    assert_eq!(
        seen,
        vec![
            vec![2, 5],
            vec![2, 7],
            vec![2, 9],
            vec![5, 7],
            vec![5, 9],
            vec![7, 9]
        ]
    );
    // k = 0 yields exactly the empty combination (M = 2 base case).
    let mut count = 0;
    build_combinations(&pool, 0, 0, &mut Vec::new(), &mut |_| count += 1);
    assert_eq!(count, 1);
}
