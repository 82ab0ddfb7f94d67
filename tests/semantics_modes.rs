//! The two temporal-validity semantics at the system level: the default
//! subsequence mode is complete w.r.t. Definition 4; the paper's greedy mode
//! is a strict subset and diverges exactly where DESIGN.md §6b predicts.

mod common;

use common::run_every_engine;
use icpe::core::IcpeConfig;
use icpe::pattern::{unique_object_sets, Semantics};
use icpe::types::{Constraints, ObjectId, Point, Snapshot, Timestamp};

/// Two objects co-located at exactly the given ticks, apart otherwise.
fn co_location_stream(co_ticks: &[u32], horizon: u32) -> Vec<Snapshot> {
    (0..horizon)
        .map(|t| {
            let together = co_ticks.contains(&t);
            let b = if together {
                Point::new(0.5, 0.0)
            } else {
                Point::new(500.0, 500.0)
            };
            Snapshot::from_pairs(
                Timestamp(t),
                [(ObjectId(1), Point::new(0.0, 0.0)), (ObjectId(2), b)],
            )
        })
        .collect()
}

/// Unique object sets per engine (BA, FBA, VBA) under `semantics`.
fn run(semantics: Semantics, stream: &[Snapshot]) -> Vec<(&'static str, Vec<Vec<ObjectId>>)> {
    let cfg = IcpeConfig::builder()
        .constraints(Constraints::new(2, 4, 2, 4).expect("valid"))
        .epsilon(1.0)
        .min_pts(2)
        .semantics(semantics)
        .build()
        .expect("valid config");
    run_every_engine(&cfg, stream)
        .into_iter()
        .map(|(name, patterns)| (name, unique_object_sets(&patterns)))
        .collect()
}

#[test]
fn divergence_case_doomed_middle_segment() {
    // Co-cluster times {1,2,4,6,7} under CP(2,4,2,4): the valid subsequence
    // {1,2,6,7} exists (Definition 4 satisfied), but the paper's greedy
    // verification dies on the doomed singleton run {4} from every start.
    let stream = co_location_stream(&[1, 2, 4, 6, 7], 14);
    let pair = vec![ObjectId(1), ObjectId(2)];

    let sub = run(Semantics::Subsequence, &stream);
    let greedy = run(Semantics::PaperGreedy, &stream);
    for ((name, sub), (_, greedy)) in sub.iter().zip(&greedy) {
        assert!(sub.contains(&pair), "{name} subsequence missed the pattern");
        assert!(
            !greedy.contains(&pair),
            "{name} greedy unexpectedly found the pattern"
        );
    }
}

#[test]
fn greedy_and_subsequence_agree_on_clean_sequences() {
    // A single long run: both semantics find the pair.
    let stream = co_location_stream(&[3, 4, 5, 6, 7], 14);
    let pair = vec![ObjectId(1), ObjectId(2)];
    for sem in [Semantics::Subsequence, Semantics::PaperGreedy] {
        for (name, sets) in run(sem, &stream) {
            assert!(sets.contains(&pair), "{name}/{sem:?}");
        }
    }
}

#[test]
fn greedy_reports_are_a_subset_of_subsequence_reports() {
    // On a messier stream, every greedy-reported set must also be reported
    // under subsequence semantics (greedy is strictly stricter).
    let stream = co_location_stream(&[0, 1, 3, 5, 6, 9, 10, 11, 13], 20);
    let sub = run(Semantics::Subsequence, &stream);
    let greedy = run(Semantics::PaperGreedy, &stream);
    for ((name, sub), (_, greedy)) in sub.iter().zip(&greedy) {
        for s in greedy {
            assert!(sub.contains(s), "{name}: greedy-only set {s:?}");
        }
    }
}
