//! The punctuation envelope: the one message shape every keyed hop of a
//! dataflow carries, and the alignment protocol that goes with it.
//!
//! Keyed data travels to the subtask owning its key; **punctuation** — a
//! snapshot-boundary [`Tick`](Envelope::Tick) or a checkpoint
//! [`Barrier`](Envelope::Barrier) — is broadcast, and the router flushes
//! every batch buffer before it (see the `exchange` module), so on each
//! channel a window's data always precedes the punctuation closing it. A
//! subtask fed by `inputs` upstream producers therefore knows a window is
//! complete at the `inputs`-th copy of its tick, and that a checkpoint cut
//! is consistent at the `inputs`-th copy of its barrier: [`WindowAlign`]
//! is that counter, [`TreeCombiner`] the interior slot of a
//! [`Stream::reduce_tree`](crate::Stream::reduce_tree) built on it.

use crate::operator::{Collector, Operator};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One inter-stage message: keyed data or broadcast punctuation.
/// [`Exchange::envelope`](crate::Exchange::envelope) routes it.
#[derive(Debug, Clone)]
pub enum Envelope<D, B> {
    /// A keyed payload belonging to some open window.
    Data(D),
    /// Snapshot boundary: the sender has emitted everything of window `t`.
    Tick(u32),
    /// Checkpoint barrier: trails everything the sender emitted before the
    /// cut. The token carries whatever state the cut collects on its way.
    Barrier(B),
}

impl<D, B> Envelope<D, B> {
    /// The rows this message counts toward batch fill (see
    /// [`Stream::weigh`](crate::Stream::weigh)): `data_rows` of a payload,
    /// one for punctuation.
    pub fn rows(&self, data_rows: impl FnOnce(&D) -> usize) -> usize {
        match self {
            Envelope::Data(data) => data_rows(data),
            Envelope::Tick(_) | Envelope::Barrier(_) => 1,
        }
    }
}

/// What barrier alignment needs from a barrier token: the checkpoint's
/// sequence number, so copies of concurrent barriers are counted apart.
pub trait BarrierSeq {
    /// The checkpoint sequence number this token belongs to.
    fn seq(&self) -> u64;
}

impl<T: BarrierSeq> BarrierSeq for Arc<T> {
    fn seq(&self) -> u64 {
        (**self).seq()
    }
}

/// A per-window partial aggregate that merges with its peers — the payload
/// of a reduction tree, travelling as `Data((time, partial))`.
pub trait Partial: Default {
    /// Folds another producer's partial of the same window into this one.
    fn absorb(&mut self, other: Self);
}

/// Concatenation, for partials whose producers own disjoint shares.
impl<T> Partial for Vec<T> {
    fn absorb(&mut self, other: Self) {
        if self.is_empty() {
            *self = other;
        } else {
            self.extend(other);
        }
    }
}

/// The tick/barrier counter of one subtask fed by `inputs` upstream
/// producers: open-window accumulators sealed at the `inputs`-th tick, and
/// barrier copies counted to the same width. Every fan-in of the dataflow
/// — tree combiners, tree finalizers, the sink — aligns
/// through this one type, so a fix to alignment semantics lands in exactly
/// one place.
#[derive(Debug)]
pub struct WindowAlign<A> {
    inputs: usize,
    pending: BTreeMap<u32, (A, usize)>,
    barriers: HashMap<u64, usize>,
}

impl<A: Default> WindowAlign<A> {
    /// An aligner for a subtask with `inputs` upstream producers.
    pub fn new(inputs: usize) -> Self {
        WindowAlign {
            inputs,
            pending: BTreeMap::new(),
            barriers: HashMap::new(),
        }
    }

    /// Folds one producer's data into window `time`'s accumulator.
    pub fn absorb(&mut self, time: u32, fold: impl FnOnce(&mut A)) {
        fold(&mut self.pending.entry(time).or_default().0);
    }

    /// Counts one producer's tick for window `time`; returns the sealed
    /// accumulator once every input has ticked.
    pub fn tick(&mut self, time: u32) -> Option<A> {
        let entry = self.pending.entry(time).or_default();
        entry.1 += 1;
        (entry.1 == self.inputs).then(|| self.pending.remove(&time).expect("window present").0)
    }

    /// Counts one producer's barrier copy; returns `true` once the barrier
    /// has aligned (every input delivered its copy). Every window sealed
    /// before the cut has sealed here by then. Windows after the cut may
    /// be open — a producer whose copy arrived keeps sending while the
    /// barrier is still travelling on its peers' channels — but none of
    /// them can have sealed: a window seals at the tick of its last
    /// producer, and on that producer's channel the tick trails its copy.
    pub fn barrier(&mut self, seq: u64) -> bool {
        let count = self.barriers.entry(seq).or_insert(0);
        *count += 1;
        if *count < self.inputs {
            return false;
        }
        self.barriers.remove(&seq);
        true
    }

    /// The windows still open, ascending by time (checkpoint pieces).
    pub fn open_windows(&self) -> impl Iterator<Item = (u32, &A)> {
        self.pending.iter().map(|(&time, (acc, _))| (time, acc))
    }
}

/// The interior slot of a reduction tree: merges the per-window partials of
/// its `inputs` producers and forwards one combined partial plus the tick
/// per window; barriers align here exactly as at every other fan-in, so a
/// cut stays consistent at every tree level.
#[derive(Debug)]
pub struct TreeCombiner<P> {
    align: WindowAlign<P>,
}

impl<P: Partial> TreeCombiner<P> {
    /// A combiner for a slot with `inputs` upstream producers
    /// ([`TreeSlot::inputs`](crate::TreeSlot)).
    pub fn new(inputs: usize) -> Self {
        TreeCombiner {
            align: WindowAlign::new(inputs),
        }
    }
}

impl<P, B> Operator<Envelope<(u32, P), B>, Envelope<(u32, P), B>> for TreeCombiner<P>
where
    P: Partial + Send,
    B: BarrierSeq,
{
    fn process(&mut self, msg: Envelope<(u32, P), B>, out: &mut Collector<Envelope<(u32, P), B>>) {
        match msg {
            Envelope::Data((time, partial)) => self.align.absorb(time, |acc| acc.absorb(partial)),
            Envelope::Tick(time) => {
                if let Some(acc) = self.align.tick(time) {
                    out.emit(Envelope::Data((time, acc)));
                    out.emit(Envelope::Tick(time));
                }
            }
            Envelope::Barrier(token) => {
                if self.align.barrier(token.seq()) {
                    out.emit(Envelope::Barrier(token));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_seals_on_the_inputs_th_tick() {
        let mut align: WindowAlign<Vec<u32>> = WindowAlign::new(3);
        align.absorb(7, |acc| acc.push(1));
        assert_eq!(align.tick(7), None);
        // Windows interleave: a later window's ticks count separately.
        assert_eq!(align.tick(8), None);
        align.absorb(7, |acc| acc.push(2));
        assert_eq!(align.tick(7), None);
        assert_eq!(
            align.open_windows().map(|(t, _)| t).collect::<Vec<_>>(),
            [7, 8]
        );
        assert_eq!(align.tick(7), Some(vec![1, 2]), "third of three inputs");
        // A window nobody sent data for still seals, empty.
        assert_eq!(align.tick(8), None);
        assert_eq!(align.tick(8), Some(Vec::new()));
        assert_eq!(align.open_windows().count(), 0);
    }

    #[test]
    fn barrier_aligns_on_the_inputs_th_copy_per_seq() {
        let mut align: WindowAlign<()> = WindowAlign::new(2);
        assert!(!align.barrier(1));
        // One producer races ahead to the next checkpoint: its copy must
        // not complete the previous barrier.
        assert!(!align.barrier(2));
        assert!(align.barrier(1));
        assert!(align.barrier(2));
        // Width 1 aligns immediately.
        assert!(WindowAlign::<()>::new(1).barrier(9));
    }

    #[test]
    fn windows_after_the_cut_stay_open_across_alignment() {
        // Producer 0 delivers the barrier, then keeps going: window 5 (after
        // the cut) gets its data and tick before producer 1's copy lands.
        let mut align: WindowAlign<Vec<u32>> = WindowAlign::new(2);
        assert!(!align.barrier(1));
        align.absorb(5, |acc| acc.push(0));
        assert_eq!(align.tick(5), None);
        assert!(align.barrier(1), "aligned with window 5 still open");
        align.absorb(5, |acc| acc.push(1));
        assert_eq!(align.tick(5), Some(vec![0, 1]), "sealed after the cut");
    }
}
