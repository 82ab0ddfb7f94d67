//! The punctuation envelope through a real dataflow: the envelope exchange
//! (keyed data, broadcast ticks and barriers, per-producer order kept) and
//! a reduction tree of [`TreeCombiner`]s aligning both kinds of punctuation
//! at every level.

use icpe_runtime::{
    map_fn, BarrierSeq, Envelope, Exchange, Routing, RuntimeConfig, Stream, TreeCombiner,
};

#[derive(Debug, Clone, PartialEq)]
struct Cut(u64);
impl BarrierSeq for Cut {
    fn seq(&self) -> u64 {
        self.0
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        channel_capacity: 16,
        batch_size: 4,
        fault: None,
    }
}

/// 8 producers → fanin-3 tree of [`TreeCombiner`]s → finalizer: every
/// window reaches the root as 3 combined partials covering all 8
/// producers followed by 3 ticks, and the barrier arrives once per
/// root input, after everything.
#[test]
fn tree_combiners_merge_partials_and_align_punctuation() {
    type Msg = Envelope<(u32, Vec<usize>), Cut>;
    let out: Vec<Msg> = Stream::source(config(), 8, |i| {
        (0..3u32)
            .flat_map(move |t| [Envelope::Data((t, vec![i])), Envelope::Tick(t)])
            .chain([Envelope::Barrier(Cut(1))])
    })
    .reduce_tree(
        "tree",
        8,
        3,
        |slot| TreeCombiner::new(slot.inputs),
        |inputs| {
            assert_eq!(inputs, 3);
            map_fn(|msg: Msg| msg)
        },
    )
    .collect_vec();
    for t in 0..3u32 {
        let mut producers: Vec<usize> = out
            .iter()
            .filter_map(|m| match m {
                Envelope::Data((time, p)) if *time == t => Some(p.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        producers.sort_unstable();
        assert_eq!(producers, (0..8).collect::<Vec<_>>(), "window {t}");
        let ticks = out
            .iter()
            .filter(|m| matches!(m, Envelope::Tick(time) if *time == t));
        assert_eq!(ticks.count(), 3, "one tick per combiner, window {t}");
    }
    let barriers = out.iter().filter(|m| matches!(m, Envelope::Barrier(_)));
    assert_eq!(barriers.count(), 3, "one aligned barrier per combiner");
    assert_eq!(out.len(), 3 * (3 + 3) + 3);
}

#[test]
fn envelope_exchange_keys_data_and_broadcasts_punctuation() {
    type Msg = Envelope<u64, Cut>;
    // Each of 3 subtasks echoes what it receives, tagged with itself.
    let out: Vec<(usize, Msg)> = Stream::source(config(), 1, |_| {
        (0..30u64)
            .map(Envelope::Data)
            .chain([Envelope::Tick(0)])
            .chain((30..40u64).map(Envelope::Data))
            .chain([Envelope::Barrier(Cut(5)), Envelope::Tick(1)])
    })
    .apply(
        "echo",
        3,
        Exchange::envelope(|k: &u64| Routing::Key(*k)),
        |subtask| map_fn(move |msg: Msg| (subtask, msg)),
    )
    .collect_vec();
    for subtask in 0..3usize {
        let seen: Vec<&Msg> = out
            .iter()
            .filter(|(s, _)| *s == subtask)
            .map(|(_, m)| m)
            .collect();
        // Data is keyed: exactly the keys ≡ subtask (mod 3), ascending —
        // the producer's order survives the hop.
        let data: Vec<u64> = seen
            .iter()
            .filter_map(|m| match m {
                Envelope::Data(k) => Some(*k),
                _ => None,
            })
            .collect();
        let want: Vec<u64> = (0..40u64).filter(|k| *k as usize % 3 == subtask).collect();
        assert_eq!(data, want, "subtask {subtask}");
        // Punctuation reaches every subtask, in order, and lands
        // between the data it separates.
        let position = |wanted: &dyn Fn(&Msg) -> bool| {
            seen.iter().position(|m| wanted(m)).expect("punctuation")
        };
        let tick0 = position(&|m| matches!(m, Envelope::Tick(0)));
        let barrier = position(&|m| matches!(m, Envelope::Barrier(Cut(5))));
        let tick1 = position(&|m| matches!(m, Envelope::Tick(1)));
        assert!(tick0 < barrier && barrier < tick1, "subtask {subtask}");
        for (i, m) in seen.iter().enumerate() {
            if let Envelope::Data(k) = m {
                assert_eq!(i < tick0, *k < 30, "key {k} on the wrong side of tick 0");
                assert!(i < barrier, "all data precedes the barrier");
            }
        }
    }
}
