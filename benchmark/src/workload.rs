//! The five workloads: what each is for, its fixed parameters, the
//! pipeline configuration it runs under and its seeded record generator.
//!
//! Everything here is a constant: no size, rate or seed is derived from
//! the host or from a measurement, so two commits always run the same
//! job. The stream length follows `--seconds` (see [`Workload::ticks`]).

use icpe_core::{ClustererKind, EnumeratorKind, IcpeConfig, IcpeConfigBuilder};
use icpe_gen::{disorder_gps, DisorderConfig};
use icpe_runtime::AlignerConfig;
use icpe_types::{Constraints, GpsRecord, ObjectId, Point, Timestamp};

/// Keyed-stage parallelism of every benchmark deployment.
pub const PARALLELISM: usize = 2;
/// Aligner-head shards of every benchmark deployment.
pub const ALIGN_SHARDS: usize = 2;
/// The DBSCAN distance threshold ε of every workload (the unit the other
/// lengths below are stated in).
pub const EPS: f64 = 1.0;
/// Share of the sustainable rate the open loop offers (the paced tick
/// rates below were set to about this share of the `throughput_rps`
/// measured when the benchmark was defined).
pub const PACED_LOAD_SHARE: f64 = 0.4;

/// How a workload produces its records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `groups` convoys of `group_size`, each walking together for
    /// `active_len` ticks then dispersing for `gap_len`, each inside a
    /// territory of its own (homes on a square lattice `territory` apart),
    /// so that no two convoys ever meet; the remaining objects walk alone
    /// across the whole area. Episodes are staggered convoy by convoy.
    ///
    /// The seed moves every object but never the structure: the number of
    /// convoys in range of each other, and so the pattern volume, is the
    /// same for every seed, and no tick carries every convoy's episode end
    /// at once. That keeps run-to-run spread a property of the system, not
    /// of the draw.
    Convoys(Convoys),
    /// Independent walkers stepping `step` per tick (reflecting at the
    /// border) in a square of side `area`.
    Walkers { area: f64, step: f64 },
    /// One object per point of a square lattice of the given `spacing`,
    /// re-jittered by up to `jitter` every tick, the stream then disordered:
    /// each record is delayed with probability `delay_probability` by up
    /// to `max_displacement_ticks` ticks' worth of stream positions.
    Lattice {
        spacing: f64,
        jitter: f64,
        delay_probability: f64,
        max_displacement_ticks: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Records per tick — also the open loop's release group.
    pub objects: usize,
    /// Open-loop release rate, ticks per second.
    pub paced_ticks_per_s: u32,
    pub shape: Shape,
    pub constraints: (usize, usize, usize, u32),
    pub min_pts: usize,
    /// Whether the job runs behind `icpe-serve` over TCP.
    pub over_tcp: bool,
}

/// The aligner settings `icpe-serve` raises an engine to for its default
/// `max_producer_skew` of 8 (`lateness = 2·skew + 2`, `max_lag` twice
/// that). `serve_fanout` sets them up front so that the oracle, the
/// in-process passes and the server all seal on the same records.
const SERVE_ALIGNER: AlignerConfig = AlignerConfig {
    max_lag: 36,
    emit_empty: true,
    lateness: 18,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "convoy_mix",
        why: "the representative job: 111 convoys of 6 among 1334 lone walkers, every layer works (walk shares: enumerate .51, query .22, allocate .08, dbscan .07, aligner .06, sync .05); general claims go here",
        objects: 2000,
        paced_ticks_per_s: 280,
        shape: Shape::Convoys(Convoys {
            groups: 111,
            group_size: 6,
            territory: 30.0,
            active_len: 12,
            gap_len: 3,
        }),
        constraints: (4, 8, 4, 2),
        min_pts: 5,
        over_tcp: false,
    },
    Workload {
        name: "dense_join",
        why: "isolates grid join, pair sync and DBSCAN: walkers with ~2 eps-neighbours that reshuffle every tick, ~40 objects per cell, nothing co-moves (walk shares: query+sync+dbscan .86, enumerate .00)",
        objects: 2500,
        paced_ticks_per_s: 280,
        shape: Shape::Walkers {
            area: 70.7,
            step: 3.0,
        },
        constraints: (4, 8, 4, 2),
        min_pts: 12,
        over_tcp: false,
    },
    Workload {
        name: "pattern_heavy",
        why: "isolates enumeration: 10 well-separated convoys of 8 with long episodes under CP(3,6,2,2), ~1800 patterns per tick from 80 records (walk shares: enumerate .94, query .02)",
        objects: 80,
        paced_ticks_per_s: 280,
        shape: Shape::Convoys(Convoys {
            groups: 10,
            group_size: 8,
            territory: 30.0,
            active_len: 40,
            gap_len: 3,
        }),
        constraints: (3, 6, 2, 2),
        min_pts: 5,
        over_tcp: false,
    },
    Workload {
        name: "sparse_disorder",
        why: "isolates the aligner head and the exchange hops: a lattice with no pair within 4 eps (0 pairs, 0 patterns), 10% of records delayed, a few hundred beyond lateness (walk share: aligner .84)",
        objects: 900,
        paced_ticks_per_s: 280,
        shape: Shape::Lattice {
            spacing: 5.0,
            jitter: 0.4,
            delay_probability: 0.1,
            max_displacement_ticks: 3.0,
        },
        constraints: (4, 8, 4, 2),
        min_pts: 5,
        over_tcp: false,
    },
    Workload {
        name: "serve_fanout",
        why: "the path a user sees: the convoy_mix generator at 0.4 scale through icpe-serve over TCP, one CSV producer, one subscriber; parse, stamp, hub and socket cost (0.52M rec/s vs 1.26M in process)",
        objects: 800,
        paced_ticks_per_s: 280,
        shape: Shape::Convoys(Convoys {
            groups: 44,
            group_size: 6,
            territory: 30.0,
            active_len: 12,
            gap_len: 3,
        }),
        constraints: (4, 8, 4, 2),
        min_pts: 5,
        over_tcp: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Stream length for a run of `seconds`: the open loop gets a third of
    /// the run at `paced_ticks_per_s`, and every pass replays the same stream.
    pub fn ticks(&self, seconds: f64) -> u32 {
        ((f64::from(self.paced_ticks_per_s) * seconds / 3.0).round() as u32).max(24)
    }

    /// The aligner settings of this workload's deployment.
    pub fn aligner(&self) -> AlignerConfig {
        if self.over_tcp {
            SERVE_ALIGNER
        } else {
            AlignerConfig::default()
        }
    }

    fn builder(&self) -> IcpeConfigBuilder {
        let (m, k, l, g) = self.constraints;
        IcpeConfig::builder()
            .constraints(Constraints::new(m, k, l, g).expect("workload constraints are valid"))
            .epsilon(EPS)
            .min_pts(self.min_pts)
            .grid_width(8.0 * EPS)
            .clusterer(ClustererKind::Rjc)
            .enumerator(EnumeratorKind::Fba)
            .aligner(self.aligner())
    }

    /// The fixed parallel deployment (default batch size and sync fanin,
    /// rebalance off). End-to-end numbers run with `instrument` off.
    pub fn config(&self, instrument: bool) -> IcpeConfig {
        self.tuned(instrument, |b| b)
    }

    /// [`Workload::config`] with extra builder settings (supervision, a
    /// fault plan) for the traced run's special passes.
    pub fn tuned(
        &self,
        instrument: bool,
        extra: impl FnOnce(IcpeConfigBuilder) -> IcpeConfigBuilder,
    ) -> IcpeConfig {
        extra(
            self.builder()
                .parallelism(PARALLELISM)
                .align_shards(ALIGN_SHARDS)
                .instrument(instrument),
        )
        .build()
        .expect("workload configuration is valid")
    }

    /// The single-threaded configuration the oracle and the layer walk use.
    pub fn serial_config(&self) -> IcpeConfig {
        self.builder()
            .parallelism(1)
            .instrument(false)
            .build()
            .expect("workload configuration is valid")
    }

    /// The workload's record stream for `seed`, `ticks` ticks long, in
    /// arrival order. The same `(seed, ticks)` gives the same bytes.
    pub fn records(&self, seed: u64, ticks: u32) -> Vec<GpsRecord> {
        // Each workload draws from its own stream of the run's seed.
        let seed = mix(seed ^ mix(self.name.len() as u64 ^ (self.objects as u64) << 8));
        match self.shape {
            Shape::Convoys(convoys) => convoys.records(self.objects, ticks, seed),
            Shape::Walkers { area, step } => walkers(self.objects, ticks, area, step, seed),
            Shape::Lattice {
                spacing,
                jitter,
                delay_probability,
                max_displacement_ticks,
            } => disorder_gps(
                lattice(self.objects, ticks, spacing, jitter, seed),
                DisorderConfig {
                    delay_probability,
                    max_displacement: (max_displacement_ticks * self.objects as f64) as usize,
                    seed: mix(seed),
                },
            ),
        }
    }
}

/// SplitMix64's output function: a cheap, well-mixed 64-bit permutation.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 generator — all the randomness the benchmark's own
/// generators need, with no dependency and a fixed algorithm.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

fn link(tick: u32) -> Option<Timestamp> {
    tick.checked_sub(1).map(Timestamp)
}

/// The parameters of [`Shape::Convoys`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convoys {
    pub groups: usize,
    pub group_size: usize,
    /// Distance between neighbouring convoys' homes.
    pub territory: f64,
    pub active_len: u32,
    pub gap_len: u32,
}

/// Members keep within this of their leader while a convoy is together.
const COHESION: f64 = 0.7;
/// Members sit this far from their leader while a convoy is dispersed:
/// too far apart to cluster, near enough to stay in the territory.
const DISPERSAL: (f64, f64) = (3.0, 6.0);
/// A leader turns back this far from the edge of its territory, which
/// keeps dispersed members of neighbouring convoys more than 4 ε apart.
const TERRITORY_MARGIN: f64 = 9.0;

/// One random-walk step of length `speed` inside `[lo, hi]²`; a step that
/// would leave turns the walker around instead.
fn step(pos: &mut Point, heading: &mut f64, speed: f64, lo: Point, hi: Point, rng: &mut SplitMix) {
    *heading += rng.range(-0.5, 0.5);
    let (x, y) = (pos.x + heading.cos() * speed, pos.y + heading.sin() * speed);
    if x < lo.x || x > hi.x || y < lo.y || y > hi.y {
        *heading += std::f64::consts::PI;
    } else {
        *pos = Point::new(x, y);
    }
}

impl Convoys {
    fn records(&self, objects: usize, ticks: u32, seed: u64) -> Vec<GpsRecord> {
        assert!(
            self.groups * self.group_size <= objects,
            "convoys exceed the population"
        );
        let mut rng = SplitMix(seed);
        let side = (self.groups as f64).sqrt().ceil() as usize;
        let area = side as f64 * self.territory;
        let roam = self.territory / 2.0 - TERRITORY_MARGIN;
        let homes: Vec<Point> = (0..self.groups)
            .map(|g| {
                Point::new(
                    ((g % side) as f64 + 0.5) * self.territory,
                    ((g / side) as f64 + 0.5) * self.territory,
                )
            })
            .collect();
        let mut leaders: Vec<(Point, f64)> = homes
            .iter()
            .map(|h| {
                let at = Point::new(h.x + rng.range(-roam, roam), h.y + rng.range(-roam, roam));
                (at, rng.range(0.0, std::f64::consts::TAU))
            })
            .collect();
        let members = self.groups * self.group_size;
        let mut offsets = vec![Point::new(0.0, 0.0); members];
        let mut loners: Vec<(Point, f64)> = (members..objects)
            .map(|_| {
                let at = Point::new(rng.range(0.0, area), rng.range(0.0, area));
                (at, rng.range(0.0, std::f64::consts::TAU))
            })
            .collect();
        let period = self.active_len + self.gap_len;
        let mut out = Vec::with_capacity(objects * ticks as usize);
        for tick in 0..ticks {
            for (g, (leader, heading)) in leaders.iter_mut().enumerate() {
                let home = homes[g];
                step(
                    leader,
                    heading,
                    2.0,
                    Point::new(home.x - roam, home.y - roam),
                    Point::new(home.x + roam, home.y + roam),
                    &mut rng,
                );
                // Convoy g's episodes run g/groups of a period ahead.
                let phase = (tick + (g as u32 * period) / self.groups as u32) % period;
                let together = phase < self.active_len;
                for m in 0..self.group_size {
                    let id = g * self.group_size + m;
                    if phase == self.active_len {
                        let angle = rng.range(0.0, std::f64::consts::TAU);
                        let radius = rng.range(DISPERSAL.0, DISPERSAL.1);
                        offsets[id] = Point::new(angle.cos() * radius, angle.sin() * radius);
                    }
                    let spread = if together {
                        Point::new(0.0, 0.0)
                    } else {
                        offsets[id]
                    };
                    let at = Point::new(
                        leader.x + spread.x + rng.range(-COHESION, COHESION),
                        leader.y + spread.y + rng.range(-COHESION, COHESION),
                    );
                    out.push(GpsRecord::new(
                        ObjectId(id as u32),
                        at,
                        Timestamp(tick),
                        link(tick),
                    ));
                }
            }
            for (i, (at, heading)) in loners.iter_mut().enumerate() {
                step(
                    at,
                    heading,
                    3.0,
                    Point::new(0.0, 0.0),
                    Point::new(area, area),
                    &mut rng,
                );
                let id = (members + i) as u32;
                out.push(GpsRecord::new(
                    ObjectId(id),
                    *at,
                    Timestamp(tick),
                    link(tick),
                ));
            }
        }
        out
    }
}

fn walkers(objects: usize, ticks: u32, area: f64, step: f64, seed: u64) -> Vec<GpsRecord> {
    let mut rng = SplitMix(seed);
    let mut at: Vec<Point> = (0..objects)
        .map(|_| Point::new(rng.range(0.0, area), rng.range(0.0, area)))
        .collect();
    let reflect = |v: f64| {
        if v < 0.0 {
            -v
        } else if v > area {
            2.0 * area - v
        } else {
            v
        }
    };
    let mut out = Vec::with_capacity(objects * ticks as usize);
    for tick in 0..ticks {
        for (id, p) in at.iter_mut().enumerate() {
            let heading = rng.range(0.0, std::f64::consts::TAU);
            p.x = reflect(p.x + heading.cos() * step);
            p.y = reflect(p.y + heading.sin() * step);
            out.push(GpsRecord::new(
                ObjectId(id as u32),
                *p,
                Timestamp(tick),
                link(tick),
            ));
        }
    }
    out
}

fn lattice(objects: usize, ticks: u32, spacing: f64, jitter: f64, seed: u64) -> Vec<GpsRecord> {
    let mut rng = SplitMix(seed);
    let side = (objects as f64).sqrt().ceil() as usize;
    let mut out = Vec::with_capacity(objects * ticks as usize);
    for tick in 0..ticks {
        for id in 0..objects {
            let (col, row) = (id % side, id / side);
            let p = Point::new(
                col as f64 * spacing + rng.range(-jitter, jitter),
                row as f64 * spacing + rng.range(-jitter, jitter),
            );
            out.push(GpsRecord::new(
                ObjectId(id as u32),
                p,
                Timestamp(tick),
                link(tick),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(records: &[GpsRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            out.extend(r.id.0.to_le_bytes());
            out.extend(r.time.0.to_le_bytes());
            out.extend(r.location.x.to_bits().to_le_bytes());
            out.extend(r.location.y.to_bits().to_le_bytes());
            out.extend(r.last_time.map_or(u32::MAX, |t| t.0).to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_records() {
        for w in &WORKLOADS {
            let a = w.records(7, 30);
            assert_eq!(bytes(&a), bytes(&w.records(7, 30)), "{}", w.name);
            assert_ne!(bytes(&a), bytes(&w.records(8, 30)), "{}", w.name);
            assert_eq!(a.len(), w.objects * 30, "{}", w.name);
        }
    }

    #[test]
    fn convoys_never_come_within_four_eps_of_each_other() {
        for name in ["convoy_mix", "pattern_heavy", "serve_fanout"] {
            let w = find(name).unwrap();
            let Shape::Convoys(Convoys {
                groups, group_size, ..
            }) = w.shape
            else {
                panic!("{name} is made of convoys");
            };
            let members = groups * group_size;
            let records = w.records(11, 60);
            for tick in records.chunks(w.objects) {
                // Ids are contiguous per convoy; compare every member with
                // the members of the convoys after its own.
                for (i, a) in tick[..members].iter().enumerate() {
                    let next_convoy = (i / group_size + 1) * group_size;
                    for b in &tick[next_convoy..members] {
                        let d = a.location.chebyshev(&b.location);
                        assert!(
                            d > 4.0 * EPS,
                            "{name}: {:?} and {:?} are {d} apart",
                            a.id,
                            b.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lattice_keeps_every_pair_beyond_four_eps() {
        let Shape::Lattice {
            spacing, jitter, ..
        } = find("sparse_disorder").unwrap().shape
        else {
            panic!("sparse_disorder is a lattice");
        };
        assert!(spacing - 2.0 * jitter > 4.0 * EPS);
    }

    #[test]
    fn dense_join_density_gives_about_two_neighbours() {
        let w = find("dense_join").unwrap();
        let Shape::Walkers { area, step } = w.shape else {
            panic!("dense_join is walkers");
        };
        // Chebyshev ε-ball: a square of side 2ε.
        let neighbours = w.objects as f64 / (area * area) * (2.0 * EPS) * (2.0 * EPS);
        assert!((1.8..2.2).contains(&neighbours), "{neighbours}");
        assert!(step >= 3.0 * EPS);
    }
}
