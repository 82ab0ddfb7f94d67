//! The common pattern-engine interface and the shared η-window state of BA
//! and FBA: one bit table per partition owner.

use crate::partition::{id_partitions, Partition};
use crate::runs::Semantics;
use icpe_types::{
    CheckpointError, ClusterSnapshot, Constraints, EngineCheckpoint, HistoryRowCheckpoint,
    ObjectId, Pattern, PatternBatch, Timestamp, WindowOwnerCheckpoint,
};
use std::collections::BTreeMap;

/// Configuration shared by all three enumeration engines.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The `CP(M, K, L, G)` constraints.
    pub constraints: Constraints,
    /// Validity semantics (see [`Semantics`]).
    pub semantics: Semantics,
    /// Baseline guard: partitions larger than this are skipped (and counted)
    /// instead of enumerating `2^n` subsets — the paper's "B cannot run on
    /// large datasets" behaviour, made explicit.
    pub max_baseline_partition: usize,
}

impl EngineConfig {
    /// Default engine configuration for the given constraints.
    pub fn new(constraints: Constraints) -> Self {
        EngineConfig {
            constraints,
            semantics: Semantics::default(),
            max_baseline_partition: 22,
        }
    }

    /// Overrides the validity semantics.
    pub fn with_semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }
}

/// A streaming pattern-enumeration engine. Cluster snapshots must be pushed
/// in strictly increasing time order (the runtime's time aligner guarantees
/// a dense, ordered stream).
pub trait PatternEngine {
    /// Engine name ("BA", "FBA", "VBA").
    fn name(&self) -> &'static str;

    /// Ingests one cluster snapshot; returns patterns that became reportable.
    fn push(&mut self, snapshot: &ClusterSnapshot) -> Vec<Pattern> {
        let parts = id_partitions(snapshot, self.significance());
        self.push_partitions(snapshot.time, parts)
    }

    /// The engine's significance constraint `M` (used by the default
    /// [`PatternEngine::push`] to compute partitions).
    fn significance(&self) -> usize;

    /// Ingests the id-based partitions of one time tick directly — the entry
    /// point of the distributed deployment, where a keyed exchange delivers
    /// each subtask only the partitions of the owners it is responsible for
    /// (plus empty ticks to advance time).
    fn push_partitions(&mut self, time: Timestamp, partitions: Vec<Partition>) -> Vec<Pattern>;

    /// Flushes at end of stream; returns the remaining patterns.
    fn finish(&mut self) -> Vec<Pattern>;

    /// [`PatternEngine::push_partitions`] in flat form: `partitions` is
    /// drained (its capacity stays with the caller) and the patterns are
    /// appended to `out`. FBA enumerates straight into the batch without
    /// allocating per pattern; the provided form wraps `push_partitions`.
    fn push_partitions_into(
        &mut self,
        time: Timestamp,
        partitions: &mut Vec<Partition>,
        out: &mut PatternBatch,
    ) {
        for pattern in self.push_partitions(time, std::mem::take(partitions)) {
            out.push_pattern(&pattern);
        }
    }

    /// [`PatternEngine::finish`] in flat form.
    fn finish_into(&mut self, out: &mut PatternBatch) {
        for pattern in self.finish() {
            out.push_pattern(&pattern);
        }
    }

    /// How many partitions this engine refused to enumerate (the Baseline's
    /// exponential-blow-up guard; always 0 for FBA/VBA). Non-zero means the
    /// result is incomplete — the paper's "B cannot run on large datasets".
    fn overflowed_partitions(&self) -> usize {
        0
    }

    /// Captures the engine's full streaming state in durable form, or
    /// `None` for engines that do not support checkpointing (the default).
    /// Restore is per-engine ([`FbaEngine::from_checkpoint`] etc.) because
    /// it needs the concrete type back.
    fn checkpoint(&self) -> Option<EngineCheckpoint> {
        None
    }
}

/// Deduplicates patterns by object set (the same set may be reported from
/// several windows with different witnessing sequences).
pub fn unique_object_sets(patterns: &[Pattern]) -> Vec<Vec<ObjectId>> {
    let mut sets: Vec<Vec<ObjectId>> = patterns.iter().map(|p| p.objects.clone()).collect();
    sets.sort();
    sets.dedup();
    sets
}

/// One released enumeration window, read in place from its owner's bit
/// table: per recent co-member of the owner, its η-bit string (Definition
/// 13) — bit `j` set iff it shared the owner's cluster at `start + j`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<'a> {
    pub owner: ObjectId,
    pub start: u32,
    /// Words per string, `⌈η/64⌉`.
    pub words: usize,
    /// The owner's recent co-members, ascending, and their strings.
    members: &'a [ObjectId],
    bits: &'a [u64],
}

impl<'a> Window<'a> {
    /// The owner's partition at `start` — the candidates' pool: each member
    /// (ascending) whose string has bit 0 set, with that string. The other
    /// co-members joined the owner later in the window.
    pub fn partition(&self) -> impl Iterator<Item = (ObjectId, &'a [u64])> + 'a {
        let rows = self.bits.chunks_exact(self.words);
        self.members
            .iter()
            .copied()
            .zip(rows)
            .filter(|(_, row)| row[0] & 1 != 0)
    }
}

/// One owner's open windows as a bit table: row 0 marks the pending window
/// starts, row `i + 1` the times `members[i]` shared the owner's cluster;
/// bit `j` of every row is time `base + j`. `base` is the oldest pending
/// start, so the table spans fewer than η bits and the next window to
/// release is the table itself, unshifted.
#[derive(Debug)]
struct OwnerTable {
    base: u32,
    members: Vec<ObjectId>,
    bits: Vec<u64>,
}

impl OwnerTable {
    fn new(words: usize) -> Self {
        OwnerTable {
            base: 0,
            members: Vec::new(),
            bits: vec![0; words],
        }
    }

    /// True while some window of this owner has not been released.
    fn pending(&self, words: usize) -> bool {
        self.bits[..words].iter().any(|&w| w != 0)
    }

    /// The row index of `member`, inserted (all zero) if new. `from` is a
    /// lower bound on the answer, for ascending callers.
    fn row_of(&mut self, member: ObjectId, from: usize, words: usize) -> usize {
        let at = from + self.members[from..].partition_point(|&m| m < member);
        if self.members.get(at) != Some(&member) {
            self.members.insert(at, member);
            let row = (at + 1) * words;
            self.bits.splice(row..row, std::iter::repeat_n(0, words));
        }
        at
    }

    /// Marks time `t` as a window start shared with `members` (ascending).
    fn record(&mut self, t: u32, members: &[ObjectId], words: usize) {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        if !self.pending(words) {
            self.base = t;
        }
        let (word, bit) = word_bit(t - self.base);
        debug_assert!(word < words, "an owner's table spans fewer than η bits");
        self.bits[word] |= bit;
        let mut at = 0;
        for &member in members {
            at = self.row_of(member, at, words);
            self.bits[(at + 1) * words + word] |= bit;
        }
    }

    /// Drops the oldest pending start: `base` moves to the next one, every
    /// row shifts down by the difference, and members left without a bit
    /// leave the roster.
    fn advance(&mut self, words: usize) {
        self.bits[0] &= !1;
        let next = self.bits[..words]
            .iter()
            .position(|&w| w != 0)
            .map(|w| w as u32 * 64 + self.bits[w].trailing_zeros());
        let Some(shift) = next else {
            self.members.clear();
            self.bits.truncate(words);
            return;
        };
        self.base += shift;
        shift_down(&mut self.bits[..words], shift);
        let mut kept = 0;
        for i in 0..self.members.len() {
            let row = (i + 1) * words..(i + 2) * words;
            shift_down(&mut self.bits[row.clone()], shift);
            if self.bits[row.clone()].iter().any(|&w| w != 0) {
                self.members[kept] = self.members[i];
                self.bits.copy_within(row, (kept + 1) * words);
                kept += 1;
            }
        }
        self.members.truncate(kept);
        self.bits.truncate((kept + 1) * words);
    }
}

/// The word index and mask of bit `j`.
fn word_bit(j: u32) -> (usize, u64) {
    ((j / 64) as usize, 1 << (j % 64))
}

/// Whether bit `j` of a packed row is set.
fn has_bit(row: &[u64], j: u32) -> bool {
    let (word, bit) = word_bit(j);
    row[word] & bit != 0
}

/// Shifts a packed row towards bit 0 by `shift` bits.
fn shift_down(row: &mut [u64], shift: u32) {
    let (skip, bits) = ((shift / 64) as usize, shift % 64);
    for i in 0..row.len() {
        let low = row.get(i + skip).copied().unwrap_or(0);
        let high = row.get(i + skip + 1).copied().unwrap_or(0);
        row[i] = if bits == 0 {
            low
        } else {
            low >> bits | high << (64 - bits)
        };
    }
}

/// Shared η-window state of BA and FBA: every owner's partitions of the
/// last η ticks as a bit table, a window per (owner, time the owner had a
/// partition), released once η snapshots are available (or at end of
/// stream). A window started at `s` is due at `s + η − 1`; owners are
/// visited in id order.
#[derive(Debug)]
pub(crate) struct WindowTable {
    eta: u32,
    /// Words per table row, `⌈η/64⌉`.
    words: usize,
    owners: BTreeMap<ObjectId, OwnerTable>,
    last_time: Option<u32>,
}

impl WindowTable {
    pub fn new(constraints: &Constraints) -> Self {
        let eta = constraints.eta();
        WindowTable {
            eta: eta as u32,
            words: eta.div_ceil(64),
            owners: BTreeMap::new(),
            last_time: None,
        }
    }

    /// Ingests the partitions of one time tick, handing every window that
    /// became due to `on_window`.
    pub fn push_partitions(
        &mut self,
        time: Timestamp,
        partitions: &[Partition],
        mut on_window: impl FnMut(Window<'_>),
    ) {
        let t = time.0;
        let (eta, words) = (self.eta, self.words);
        if let Some(prev) = self.last_time {
            assert!(t > prev, "cluster snapshots must arrive in time order");
            if t - prev > 1 {
                // Windows that fell due in the ticks skipped end before `t`:
                // release them before `t` enters any table, which also keeps
                // every table within η bits of its base.
                self.release(|base| t - 1 - base >= eta - 1, &mut on_window);
            }
        }
        self.last_time = Some(t);
        for part in partitions {
            self.owners
                .entry(part.owner)
                .or_insert_with(|| OwnerTable::new(words))
                .record(t, &part.members, words);
        }
        self.release(|base| t - base >= eta - 1, &mut on_window);
    }

    /// Flushes the remaining (truncated) windows at end of stream.
    pub fn finish(&mut self, mut on_window: impl FnMut(Window<'_>)) {
        self.release(|_| true, &mut on_window);
    }

    /// Releases, oldest first, every owner's windows whose start satisfies
    /// `due`, and forgets the owners left with none pending.
    fn release(&mut self, due: impl Fn(u32) -> bool, on_window: &mut impl FnMut(Window<'_>)) {
        let words = self.words;
        self.owners.retain(|&owner, table| {
            while table.pending(words) && due(table.base) {
                on_window(Window {
                    owner,
                    start: table.base,
                    words,
                    members: &table.members,
                    bits: &table.bits[words..],
                });
                table.advance(words);
            }
            table.pending(words)
        });
    }

    /// Captures the open-window state in durable, canonical form: owners
    /// ascend by id, starts and history rows by time, and a history row is
    /// the owner's partition at one pending start.
    pub(crate) fn checkpoint(&self) -> (Option<u32>, Vec<WindowOwnerCheckpoint>) {
        let words = self.words;
        let owners = self
            .owners
            .iter()
            .map(|(&owner, table)| {
                let starts: Vec<u32> = (0..self.eta)
                    .filter(|&j| has_bit(&table.bits[..words], j))
                    .collect();
                let history = starts
                    .iter()
                    .map(|&j| {
                        let rows = table.bits[words..].chunks_exact(words);
                        HistoryRowCheckpoint {
                            time: table.base + j,
                            members: (table.members.iter().zip(rows))
                                .filter(|(_, row)| has_bit(row, j))
                                .map(|(&member, _)| member)
                                .collect(),
                        }
                    })
                    .collect();
                WindowOwnerCheckpoint {
                    owner,
                    starts: starts.iter().map(|&j| table.base + j).collect(),
                    history,
                }
            })
            .collect();
        (self.last_time, owners)
    }

    /// Rebuilds the window state from a checkpoint, keeping only owners for
    /// which `keep` returns true (the restore-time resharding hook: a
    /// restored deployment may run a different parallelism, and each
    /// subtask loads only the owners routed to it). Every pending start
    /// must still be open at `last_time` under these constraints' η, and
    /// every history row must sit at one of them — what any checkpoint
    /// written under the same constraints satisfies.
    pub(crate) fn restore(
        constraints: &Constraints,
        last_time: Option<u32>,
        owners: &[WindowOwnerCheckpoint],
        keep: impl Fn(ObjectId) -> bool,
    ) -> Result<Self, CheckpointError> {
        let mut table = WindowTable::new(constraints);
        table.last_time = last_time;
        let (eta, words) = (table.eta, table.words);
        for o in owners.iter().filter(|o| keep(o.owner)) {
            let invalid = |what: &str| {
                CheckpointError::Invalid(format!(
                    "window state of owner {}: {what} (η = {eta}; was the checkpoint \
                     written under other constraints?)",
                    o.owner
                ))
            };
            let open = |s: u32| last_time.is_some_and(|last| s <= last && last - s < eta - 1);
            if !o.starts.windows(2).all(|w| w[0] < w[1]) {
                return Err(invalid("pending starts do not ascend"));
            }
            if !o.starts.iter().all(|&s| open(s)) {
                return Err(invalid("a pending start is not an open window"));
            }
            if let Some(row) = o.history.iter().find(|r| !o.starts.contains(&r.time)) {
                return Err(invalid(&format!(
                    "history row at {} starts no window",
                    row.time
                )));
            }
            // Starts first: they ascend, so the oldest becomes the base.
            let mut owner = OwnerTable::new(words);
            for &s in &o.starts {
                owner.record(s, &[], words);
            }
            for row in &o.history {
                let mut members = row.members.clone();
                members.sort_unstable();
                members.dedup();
                owner.record(row.time, &members, words);
            }
            if owner.pending(words) {
                table.owners.insert(o.owner, owner);
            }
        }
        Ok(table)
    }
}

/// Validity semantics re-export for engine configs.
pub use crate::runs::Semantics as EngineSemantics;

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(v: u32) -> ObjectId {
        ObjectId(v)
    }

    fn cs(t: u32, groups: &[&[u32]]) -> ClusterSnapshot {
        ClusterSnapshot::from_groups(
            Timestamp(t),
            groups
                .iter()
                .map(|g| g.iter().copied().map(ObjectId).collect::<Vec<_>>()),
        )
    }

    fn constraints() -> Constraints {
        // K = 2, L = 1, G = 2 → η = (2−1)×1 + 2 + 1 − 1 = 3.
        Constraints::new(2, 2, 1, 2).unwrap()
    }

    /// A released window, owned: `(owner, start, partition with strings)`.
    /// Strings are rendered `0`/`1` over the first `eta` bits.
    type Released = (u32, u32, Vec<(u32, String)>);

    fn render(window: Window<'_>, eta: usize) -> Released {
        let partition = window
            .partition()
            .map(|(member, row)| {
                let bits = (0..eta as u32).map(|j| if has_bit(row, j) { '1' } else { '0' });
                (member.0, bits.collect())
            })
            .collect();
        (window.owner.0, window.start, partition)
    }

    fn push(table: &mut WindowTable, snapshot: ClusterSnapshot) -> Vec<Released> {
        let eta = table.eta as usize;
        let mut released = Vec::new();
        table.push_partitions(snapshot.time, &id_partitions(&snapshot, 2), |w| {
            released.push(render(w, eta))
        });
        released
    }

    fn finish(table: &mut WindowTable) -> Vec<Released> {
        let eta = table.eta as usize;
        let mut released = Vec::new();
        table.finish(|w| released.push(render(w, eta)));
        released
    }

    #[test]
    fn window_releases_after_eta_snapshots() {
        let c = constraints();
        assert_eq!(c.eta(), 3);
        let mut table = WindowTable::new(&c);
        assert!(push(&mut table, cs(0, &[&[1, 2]])).is_empty());
        assert!(push(&mut table, cs(1, &[&[1, 2]])).is_empty());
        let released = push(&mut table, cs(2, &[&[1, 2]]));
        assert_eq!(released, vec![(1, 0, vec![(2, "111".into())])]);
    }

    #[test]
    fn missing_times_are_zero_bits() {
        let mut table = WindowTable::new(&constraints());
        push(&mut table, cs(0, &[&[1, 2]]));
        push(&mut table, cs(1, &[]));
        let released = push(&mut table, cs(2, &[]));
        assert_eq!(released, vec![(1, 0, vec![(2, "100".into())])]);
        assert!(
            table.owners.is_empty(),
            "an owner with no window pending is forgotten"
        );
    }

    #[test]
    fn finish_truncates_windows() {
        let mut table = WindowTable::new(&constraints());
        push(&mut table, cs(5, &[&[1, 2]]));
        push(&mut table, cs(6, &[&[1, 2]]));
        let released = finish(&mut table);
        assert_eq!(
            released,
            vec![
                (1, 5, vec![(2, "110".into())]),
                (1, 6, vec![(2, "100".into())]),
            ]
        );
        assert!(finish(&mut table).is_empty());
    }

    #[test]
    fn members_that_join_later_are_not_in_the_partition() {
        let mut table = WindowTable::new(&constraints());
        push(&mut table, cs(0, &[&[1, 5]]));
        push(&mut table, cs(1, &[&[1, 3, 5]]));
        let released = push(&mut table, cs(2, &[&[1, 3]]));
        // Window 0's partition is {5}; 3 sits in the table for windows 1, 2.
        assert_eq!(released, vec![(1, 0, vec![(5, "110".into())])]);
        let released = finish(&mut table);
        assert_eq!(
            released[0],
            (1, 1, vec![(3, "110".into()), (5, "100".into())])
        );
        assert_eq!(released[1], (1, 2, vec![(3, "100".into())]));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut table = WindowTable::new(&constraints());
        push(&mut table, cs(3, &[&[1, 2]]));
        push(&mut table, cs(3, &[&[1, 2]]));
    }

    #[test]
    fn multiple_owners_release_independently() {
        let mut table = WindowTable::new(&constraints());
        push(&mut table, cs(0, &[&[1, 2], &[5, 6]]));
        push(&mut table, cs(1, &[&[5, 6]]));
        let released = push(&mut table, cs(2, &[]));
        let owners: Vec<u32> = released.iter().map(|r| r.0).collect();
        assert_eq!(owners, vec![1, 5], "owners are visited in id order");
        // Owner 5's second start is still pending.
        assert_eq!(finish(&mut table), vec![(5, 1, vec![(6, "100".into())])]);
    }

    #[test]
    fn skipped_ticks_release_the_windows_that_fell_due_meanwhile() {
        let mut table = WindowTable::new(&constraints());
        push(&mut table, cs(0, &[&[1, 2]]));
        push(&mut table, cs(1, &[&[1, 2]]));
        // Time jumps to 9: both windows ended before it and must not see it.
        let released = push(&mut table, cs(9, &[&[1, 2]]));
        assert_eq!(
            released,
            vec![
                (1, 0, vec![(2, "110".into())]),
                (1, 1, vec![(2, "100".into())]),
            ]
        );
        assert_eq!(finish(&mut table), vec![(1, 9, vec![(2, "100".into())])]);
    }

    #[test]
    fn rows_shift_across_word_boundaries() {
        // K = L = 40 → η = 79: a row is two words.
        let c = Constraints::new(2, 40, 40, 1).unwrap();
        assert_eq!((c.eta(), c.eta().div_ceil(64)), (79, 2));
        let mut table = WindowTable::new(&c);
        let mut released = Vec::new();
        for t in 0..100 {
            let together = t % 70 != 3;
            let groups: &[&[u32]] = if together { &[&[1, 2]] } else { &[] };
            released.extend(push(&mut table, cs(t, groups)));
        }
        // The window started at 4 covers 4 ..= 82 and misses tick 73 only.
        let (_, _, partition) = released.iter().find(|r| r.1 == 4).unwrap();
        let want: String = (4..83).map(|t| if t == 73 { '0' } else { '1' }).collect();
        assert_eq!(partition, &vec![(2, want)]);
        assert!(released.iter().all(|r| r.1 != 3 && r.1 != 73));
    }

    #[test]
    fn restore_rejects_state_that_does_not_fit_the_window() {
        let c = constraints();
        let mut table = WindowTable::new(&c);
        push(&mut table, cs(4, &[&[1, 2]]));
        push(&mut table, cs(5, &[&[1, 2]]));
        let (last, owners) = table.checkpoint();
        assert_eq!(owners[0].starts, vec![4, 5]);
        let restore = |last, owners: &[WindowOwnerCheckpoint]| {
            WindowTable::restore(&c, last, owners, |_| true).map(|t| t.checkpoint())
        };
        assert_eq!(restore(last, &owners).unwrap(), (last, owners.clone()));

        let invalid = |last, owners: &[WindowOwnerCheckpoint]| {
            matches!(restore(last, owners), Err(CheckpointError::Invalid(_)))
        };
        // A start whose window closed before `last_time` (η is 3).
        assert!(invalid(Some(7), &owners));
        assert!(invalid(None, &owners));
        let mut stray = owners.clone();
        stray[0].history[0].time = 3;
        assert!(invalid(last, &stray), "a history row outside every start");
        let mut unordered = owners.clone();
        unordered[0].starts.reverse();
        assert!(invalid(last, &unordered));
        // A filtered-out owner is not even looked at.
        assert!(WindowTable::restore(&c, None, &owners, |o| o != oid(1)).is_ok());
    }
}
