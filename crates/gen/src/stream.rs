//! Trace containers and conversions to the pipeline's input formats.

use icpe_types::{ObjectId, Point, RawRecord, Snapshot, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// A set of discrete-time traces: per object, the (tick, location) samples
/// it reported, in increasing tick order.
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    traces: BTreeMap<ObjectId, Vec<(u32, Point)>>,
}

impl TraceSet {
    /// An empty trace set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sample; ticks per object must increase.
    pub fn push(&mut self, id: ObjectId, tick: u32, location: Point) {
        let trace = self.traces.entry(id).or_default();
        if let Some(&(last, _)) = trace.last() {
            assert!(tick > last, "trace ticks must be strictly increasing");
        }
        trace.push((tick, location));
    }

    /// Number of trajectories.
    pub fn num_trajectories(&self) -> usize {
        self.traces.len()
    }

    /// Total number of samples across all trajectories.
    pub fn num_locations(&self) -> usize {
        self.traces.values().map(Vec::len).sum()
    }

    /// The trace of one object.
    pub fn trace(&self, id: ObjectId) -> Option<&[(u32, Point)]> {
        self.traces.get(&id).map(Vec::as_slice)
    }

    /// Iterates `(id, samples)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &[(u32, Point)])> {
        self.traces.iter().map(|(&id, v)| (id, v.as_slice()))
    }

    /// Converts into a dense snapshot sequence covering `[0, max_tick]`
    /// (ticks without reports become empty snapshots).
    pub fn to_snapshots(&self) -> Vec<Snapshot> {
        let max_tick = self
            .traces
            .values()
            .filter_map(|t| t.last().map(|&(tick, _)| tick))
            .max();
        let Some(max_tick) = max_tick else {
            return Vec::new();
        };
        let mut snaps: Vec<Snapshot> = (0..=max_tick)
            .map(|t| Snapshot::new(Timestamp(t)))
            .collect();
        for (&id, trace) in &self.traces {
            let mut last: Option<u32> = None;
            for &(tick, loc) in trace {
                snaps[tick as usize].push(id, loc, last.map(Timestamp));
                last = Some(tick);
            }
        }
        snaps
    }

    /// Flattens into discretized GPS records carrying the per-trajectory
    /// *last time* links (what a positioning device reports), ordered by
    /// time then id. The input format of the streaming pipeline.
    pub fn to_gps_records(&self) -> Vec<icpe_types::GpsRecord> {
        let mut out: Vec<icpe_types::GpsRecord> = Vec::with_capacity(self.num_locations());
        for (&id, trace) in &self.traces {
            let mut last: Option<u32> = None;
            for &(tick, loc) in trace {
                out.push(icpe_types::GpsRecord::new(
                    id,
                    loc,
                    Timestamp(tick),
                    last.map(Timestamp),
                ));
                last = Some(tick);
            }
        }
        out.sort_by(|a, b| a.time.cmp(&b.time).then(a.id.cmp(&b.id)));
        out
    }

    /// Flattens into raw GPS records with real clock times
    /// (`tick × interval` seconds), ordered by time then id.
    pub fn to_records(&self, interval: f64) -> Vec<RawRecord> {
        let mut out: Vec<RawRecord> = self
            .traces
            .iter()
            .flat_map(|(&id, trace)| {
                trace
                    .iter()
                    .map(move |&(tick, loc)| RawRecord::new(id, loc, tick as f64 * interval))
            })
            .collect();
        out.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.id.cmp(&b.id)));
        out
    }
}

/// Controls the out-of-order record injection of [`to_raw_records`].
#[derive(Debug, Clone, Copy)]
pub struct DisorderConfig {
    /// Probability that a record is delayed.
    pub delay_probability: f64,
    /// Maximum delay, in positions within the stream.
    pub max_displacement: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DisorderConfig {
    fn default() -> Self {
        DisorderConfig {
            delay_probability: 0.1,
            max_displacement: 32,
            seed: 0xD15C0,
        }
    }
}

/// Produces the raw record stream with bounded out-of-order arrival — the
/// adversarial input for the §4 time-alignment mechanism. Per-object order
/// is preserved only in *time*, not in arrival position.
pub fn to_raw_records(
    traces: &TraceSet,
    interval: f64,
    disorder: DisorderConfig,
) -> Vec<RawRecord> {
    let mut records = traces.to_records(interval);
    let mut rng = StdRng::seed_from_u64(disorder.seed);
    // Fisher–Yates-style bounded displacement: walk backwards, occasionally
    // swapping a record with a later position.
    let n = records.len();
    for i in 0..n {
        if rng.random_bool(disorder.delay_probability) {
            let j = (i + 1 + rng.random_range(0..disorder.max_displacement)).min(n - 1);
            records.swap(i, j);
        }
    }
    records
}

/// Bounded out-of-order shuffling of a discretized record stream (same
/// scheme as [`to_raw_records`], for pipeline inputs).
pub fn disorder_gps(
    mut records: Vec<icpe_types::GpsRecord>,
    disorder: DisorderConfig,
) -> Vec<icpe_types::GpsRecord> {
    let mut rng = StdRng::seed_from_u64(disorder.seed);
    let n = records.len();
    for i in 0..n {
        if rng.random_bool(disorder.delay_probability) {
            let j = (i + 1 + rng.random_range(0..disorder.max_displacement)).min(n - 1);
            records.swap(i, j);
        }
    }
    records
}

/// Identity churn: every trajectory keeps its samples, but after a
/// geometric lifetime (mean `mean_lifetime` samples, ≥ 1) it continues under
/// a fresh id — a video tracker's id switch after an occlusion, or a device
/// logging off and on. The population at each tick is unchanged while the
/// ids ever seen grow with the stream. Fresh ids count up from one past the
/// largest input id and are never reused.
pub fn churn_ids(traces: &TraceSet, mean_lifetime: f64, seed: u64) -> TraceSet {
    assert!(mean_lifetime >= 1.0, "an id lasts at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = traces.traces.keys().last().map_or(0, |id| id.0 + 1);
    let mut out = TraceSet::new();
    for (&id, trace) in &traces.traces {
        let mut current = id;
        for (i, &(tick, location)) in trace.iter().enumerate() {
            if i > 0 && rng.random_bool(1.0 / mean_lifetime) {
                current = ObjectId(fresh);
                fresh += 1;
            }
            out.push(current, tick, location);
        }
    }
    out
}

/// Table-2-style dataset statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of trajectories.
    pub trajectories: usize,
    /// Total number of reported locations.
    pub locations: usize,
    /// Number of distinct snapshot ticks spanned.
    pub snapshots: usize,
    /// Approximate storage size in bytes (24 bytes per record: id + x + y +
    /// time, the paper's CSV-scale accounting).
    pub storage_bytes: usize,
}

/// Computes dataset statistics for a trace set.
pub fn dataset_stats(traces: &TraceSet) -> DatasetStats {
    let locations = traces.num_locations();
    let snapshots = traces
        .iter()
        .filter_map(|(_, t)| t.last().map(|&(tick, _)| tick as usize + 1))
        .max()
        .unwrap_or(0);
    DatasetStats {
        trajectories: traces.num_trajectories(),
        locations,
        snapshots,
        storage_bytes: locations * 24,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_traces() -> TraceSet {
        let mut t = TraceSet::new();
        t.push(ObjectId(1), 0, Point::new(0.0, 0.0));
        t.push(ObjectId(1), 1, Point::new(1.0, 0.0));
        t.push(ObjectId(1), 3, Point::new(2.0, 0.0)); // skips tick 2
        t.push(ObjectId(2), 1, Point::new(5.0, 5.0));
        t
    }

    #[test]
    fn snapshots_are_dense_and_carry_last_time() {
        let snaps = sample_traces().to_snapshots();
        assert_eq!(snaps.len(), 4);
        assert_eq!(snaps[0].len(), 1);
        assert_eq!(snaps[1].len(), 2);
        assert!(snaps[2].is_empty());
        assert_eq!(snaps[3].len(), 1);
        // last_time chain of object 1: None, 0, 1.
        assert_eq!(snaps[0].entries[0].last_time, None);
        let o1_at_1 = snaps[1]
            .entries
            .iter()
            .find(|e| e.id == ObjectId(1))
            .unwrap();
        assert_eq!(o1_at_1.last_time, Some(Timestamp(0)));
        assert_eq!(snaps[3].entries[0].last_time, Some(Timestamp(1)));
    }

    #[test]
    fn churn_keeps_every_sample_under_short_lived_ids() {
        let walk = crate::GroupWalkGenerator::new(crate::GroupWalkConfig {
            num_objects: 40,
            num_snapshots: 300,
            ..crate::GroupWalkConfig::default()
        })
        .traces();
        let churned = churn_ids(&walk, 10.0, 7);
        // Same samples per tick, now under ≈ 40 + 299 · 40 / 10 ids whose
        // mean lifetime is near the configured one.
        let per_tick = |t: &TraceSet| {
            let mut n = vec![0usize; 300];
            t.iter()
                .flat_map(|(_, s)| s)
                .for_each(|&(tick, _)| n[tick as usize] += 1);
            n
        };
        assert_eq!(per_tick(&churned), per_tick(&walk));
        let ids = churned.num_trajectories();
        assert!((1000..1400).contains(&ids), "{ids} ids");
        let mean = churned.num_locations() as f64 / ids as f64;
        assert!((7.0..11.0).contains(&mean), "mean lifetime {mean}");
        for (_, samples) in churned.iter() {
            let (first, last) = (samples[0].0, samples[samples.len() - 1].0);
            assert_eq!(samples.len() as u32, last - first + 1, "ticks contiguous");
        }
        let again = churn_ids(&walk, 10.0, 7).to_gps_records();
        assert_eq!(churned.to_gps_records(), again, "seeded");
    }

    #[test]
    fn records_are_time_ordered() {
        let recs = sample_traces().to_records(5.0);
        assert_eq!(recs.len(), 4);
        assert!(recs.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(recs[0].time, 0.0);
        assert_eq!(recs.last().unwrap().time, 15.0);
    }

    #[test]
    fn disorder_preserves_multiset() {
        let traces = sample_traces();
        let ordered = traces.to_records(1.0);
        let disordered = to_raw_records(
            &traces,
            1.0,
            DisorderConfig {
                delay_probability: 0.9,
                max_displacement: 3,
                seed: 42,
            },
        );
        assert_eq!(ordered.len(), disordered.len());
        let key = |r: &RawRecord| (r.id.0, (r.time * 1000.0) as i64);
        let mut a: Vec<_> = ordered.iter().map(key).collect();
        let mut b: Vec<_> = disordered.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_count_correctly() {
        let stats = dataset_stats(&sample_traces());
        assert_eq!(stats.trajectories, 2);
        assert_eq!(stats.locations, 4);
        assert_eq!(stats.snapshots, 4);
        assert_eq!(stats.storage_bytes, 96);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_trace_panics() {
        let mut t = TraceSet::new();
        t.push(ObjectId(1), 5, Point::new(0.0, 0.0));
        t.push(ObjectId(1), 5, Point::new(1.0, 0.0));
    }

    #[test]
    fn empty_trace_set() {
        let t = TraceSet::new();
        assert!(t.to_snapshots().is_empty());
        assert_eq!(dataset_stats(&t).snapshots, 0);
    }
}
