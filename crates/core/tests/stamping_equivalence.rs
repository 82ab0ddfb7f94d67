//! Stamping equivalence: the router's chains stamp link-less records
//! exactly as a per-trajectory stamper at the edge would.
//!
//! The serve edge used to keep its own map of each trajectory's last tick:
//! it dropped a record at or below that tick and wrote the tick into the
//! next record's *last time* link. The edge now pushes link-less records,
//! and the frontier router chains each one to its trajectory's live chain,
//! rejecting it as a duplicate when the chain is already clarified through
//! its tick. `ReferenceStamper` below is the old map, kept as the
//! reference:
//!
//! * while no trajectory stays silent longer than `max_lag` (so no chain
//!   retires), feeding a stream link-less and feeding it stamped by the
//!   reference give the same sealed snapshots, patterns and seals, the same
//!   late drops, and as many router duplicates as the reference dropped;
//! * under id churn (ids retire for good and fresh ones appear), the
//!   link-less stream still seals the serial oracle's pattern multiset.

use icpe_core::{IcpeConfig, StreamingEngine};
use icpe_runtime::{AlignerConfig, TimeAligner};
use icpe_types::{Constraints, GpsRecord, ObjectId, Point, Snapshot, Timestamp};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::multiset;

/// The per-trajectory stamper the serve edge ran before stamping moved to
/// the router: a tick at or below the trajectory's last tick is dropped,
/// and every other record links to that last tick.
#[derive(Default)]
struct ReferenceStamper {
    last_seen: HashMap<ObjectId, Timestamp>,
    dropped: u64,
}

impl ReferenceStamper {
    fn stamp(&mut self, r: &GpsRecord) -> Option<GpsRecord> {
        let last = self.last_seen.get(&r.id).copied();
        if last.is_some_and(|last| r.time <= last) {
            self.dropped += 1;
            return None;
        }
        self.last_seen.insert(r.id, r.time);
        Some(GpsRecord {
            last_time: last,
            ..*r
        })
    }
}

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Link-less reports of `objects` trajectories over `ticks` ticks, in two
/// co-moving groups: each skips a tick now and then (never two in a row),
/// and some report a tick twice or report a stale tick again. The
/// trajectories are spread over three producers, each sending its own in
/// time order; arrival interleaves the producers at random, none more than
/// three ticks ahead of the slowest (one past the aligner's lateness, so
/// some records arrive late). Every trajectory reports until the end: none
/// goes silent for long.
fn stream(seed: u64, objects: u32, ticks: u32) -> Vec<GpsRecord> {
    const PRODUCERS: usize = 3;
    let mut s = seed.wrapping_mul(2).wrapping_add(1);
    let mut producers: Vec<Vec<GpsRecord>> = vec![Vec::new(); PRODUCERS];
    let mut last: HashMap<u32, u32> = HashMap::new();
    for t in 0..ticks {
        for id in 0..objects {
            let at = |tick: u32, s: &mut u64| {
                let jitter = (lcg(s) % 100) as f64 / 100.0;
                let group = f64::from(id % 2) * 20.0;
                let p = Point::new(group + f64::from(tick) + jitter, group + jitter);
                GpsRecord::new(ObjectId(id), p, Timestamp(tick), None)
            };
            let out = &mut producers[id as usize % PRODUCERS];
            let skipped_last = last.get(&id).is_some_and(|&l| l + 1 < t);
            if t > 0 && !skipped_last && lcg(&mut s).is_multiple_of(8) {
                continue;
            }
            out.push(at(t, &mut s));
            last.insert(id, t);
            match lcg(&mut s) % 12 {
                0 => out.push(at(t, &mut s)),
                1 if t >= 2 => out.push(at(t - 1 - (lcg(&mut s) % 2) as u32, &mut s)),
                _ => {}
            }
        }
    }
    let mut next = [0usize; PRODUCERS];
    let mut arrival = Vec::new();
    loop {
        let head = |p: usize| producers[p].get(next[p]).map(|r| r.time.0);
        let Some(slowest) = (0..PRODUCERS).filter_map(head).min() else {
            return arrival;
        };
        let ready: Vec<usize> = (0..PRODUCERS)
            .filter(|&p| head(p).is_some_and(|t| t <= slowest + 3))
            .collect();
        let p = ready[lcg(&mut s) as usize % ready.len()];
        arrival.push(producers[p][next[p]]);
        next[p] += 1;
    }
}

const ALIGNER: AlignerConfig = AlignerConfig {
    max_lag: 16,
    emit_empty: true,
    lateness: 2,
};

fn deployment(parallelism: usize, batch: usize) -> IcpeConfig {
    IcpeConfig::builder()
        .constraints(Constraints::new(3, 4, 2, 1).unwrap())
        .epsilon(2.5)
        .min_pts(3)
        .parallelism(parallelism)
        .align_shards(parallelism)
        .batch_size(batch)
        .aligner(ALIGNER)
        .build()
        .unwrap()
}

/// A sealed snapshot's time and its rows as `(id, x bits, y bits)`,
/// without their links.
type Rows = (u32, Vec<(u32, u64, u64)>);

/// The sealed snapshots of a serial aligner, plus its late-drop and
/// duplicate counts.
fn serial(records: &[GpsRecord]) -> (Vec<Rows>, u64, u64) {
    let mut aligner = TimeAligner::new(ALIGNER);
    let mut sealed: Vec<Snapshot> = Vec::new();
    for r in records {
        aligner.push_into(*r, &mut sealed);
    }
    sealed.extend(aligner.flush());
    let rows = sealed
        .iter()
        .map(|s| {
            let mut rows: Vec<_> = s
                .entries
                .iter()
                .map(|e| (e.id.0, e.location.x.to_bits(), e.location.y.to_bits()))
                .collect();
            rows.sort_unstable();
            (s.time.0, rows)
        })
        .collect();
    (rows, aligner.late_dropped(), aligner.duplicates())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn router_stamping_equals_edge_stamping(
        seed in 0u64..10_000,
        objects in 6u32..12,
        ticks in 12u32..30,
        parallelism in 1usize..4,
        batch in 1usize..32,
    ) {
        let linkless = stream(seed, objects, ticks);
        let mut reference = ReferenceStamper::default();
        let stamped: Vec<GpsRecord> =
            linkless.iter().filter_map(|r| reference.stamp(r)).collect();
        prop_assert!(reference.dropped > 0, "the stream repeats ticks");

        let (rows_a, late_a, dups_a) = serial(&linkless);
        let (rows_b, late_b, dups_b) = serial(&stamped);
        prop_assert_eq!(rows_a, rows_b, "sealed snapshots differ");
        prop_assert_eq!(late_a, late_b, "late drops differ");
        prop_assert_eq!((dups_a, dups_b), (reference.dropped, 0));

        let config = deployment(parallelism, batch);
        let a = common::run_collecting(&config, &linkless, batch);
        let b = common::run_collecting(&config, &stamped, batch);
        prop_assert_eq!(&a.seals, &b.seals, "seal sequences differ");
        prop_assert_eq!(multiset(&a.patterns), multiset(&b.patterns));
        prop_assert_eq!(a.report.late_records, late_a);
        prop_assert_eq!(b.report.late_records, late_a);
        prop_assert_eq!(a.status.align().duplicates, reference.dropped);
        prop_assert_eq!(b.status.align().duplicates, 0);
    }

    #[test]
    fn churned_link_less_streams_seal_the_oracle_multiset(
        seed in 0u64..10_000,
        mean_lifetime in 6u32..16,
        parallelism in 1usize..4,
        batch in 1usize..32,
    ) {
        let walk = icpe_gen::GroupWalkGenerator::new(icpe_gen::GroupWalkConfig {
            num_objects: 24,
            num_groups: 6,
            group_size: 4,
            num_snapshots: 40,
            seed,
            ..icpe_gen::GroupWalkConfig::default()
        })
        .traces();
        let linked =
            icpe_gen::churn_ids(&walk, f64::from(mean_lifetime), seed).to_gps_records();
        let config = deployment(parallelism, batch);
        let mut oracle = StreamingEngine::new(deployment(1, 1));
        let mut want = Vec::new();
        for r in &linked {
            want.extend(oracle.push(*r));
        }
        want.extend(oracle.finish());
        prop_assert!(!want.is_empty(), "churned groups still co-move");

        let linkless: Vec<GpsRecord> =
            linked.iter().map(|r| GpsRecord { last_time: None, ..*r }).collect();
        let got = common::run_collecting(&config, &linkless, batch);
        prop_assert_eq!(multiset(&got.patterns), multiset(&want));
        prop_assert_eq!(got.report.late_records, 0);
        prop_assert_eq!(got.status.align().duplicates, 0);
    }
}
