//! Aligner-head micro-benchmarks: the §4 last-time chaining per record, in
//! order and with 10 % of the records delayed (a delayed record holds the
//! seal frontier back, which is when the seal test used to rescan every
//! chain on every push), through both entry points — the serial
//! [`TimeAligner`] and the sharded head's [`ShardedAligner`] router.
//!
//! Every stream is exactly 100 000 records, so a reported time of `x ms`
//! per pass is `10·x ns` per record.

use criterion::{criterion_group, criterion_main, Criterion};
use icpe_gen::{disorder_gps, DisorderConfig};
use icpe_runtime::{AlignerConfig, Routed, ShardedAligner, TimeAligner};
use icpe_types::{GpsRecord, ObjectId, Point, Timestamp};
use std::hint::black_box;

const OBJECTS: u32 = 500;
const TICKS: u32 = 200;

fn in_order() -> Vec<GpsRecord> {
    let mut out = Vec::with_capacity((OBJECTS * TICKS) as usize);
    for t in 0..TICKS {
        for id in 0..OBJECTS {
            out.push(GpsRecord::new(
                ObjectId(id),
                Point::new(id as f64 * 5.0, t as f64),
                Timestamp(t),
                t.checked_sub(1).map(Timestamp),
            ));
        }
    }
    out
}

/// One record in ten swapped up to three ticks' worth of stream positions
/// ahead — the `sparse_disorder` shape of the repo benchmark.
fn delayed() -> Vec<GpsRecord> {
    disorder_gps(
        in_order(),
        DisorderConfig {
            delay_probability: 0.1,
            max_displacement: 3 * OBJECTS as usize,
            seed: 0xA11C,
        },
    )
}

fn bench_aligner(c: &mut Criterion) {
    let config = AlignerConfig::default();
    let mut group = c.benchmark_group("aligner_100k_records");
    group.sample_size(10);
    for (name, records) in [("in_order", in_order()), ("delayed_10pct", delayed())] {
        group.bench_function(format!("time_aligner/{name}"), |b| {
            b.iter(|| {
                let mut aligner = TimeAligner::new(config);
                let mut sealed = Vec::new();
                let mut snapshots = 0usize;
                for &r in &records {
                    aligner.push_into(r, &mut sealed);
                    snapshots += sealed.drain(..).count();
                }
                black_box(snapshots + aligner.flush().len())
            })
        });
        group.bench_function(format!("sharded_aligner_2/{name}"), |b| {
            b.iter(|| {
                let mut router = ShardedAligner::new(config, 2);
                let mut times = Vec::new();
                for r in &records {
                    if let Routed::Keep { .. } = router.route(r) {
                        router.drain_sealed(&mut times);
                    }
                }
                black_box(times.len() + router.flush_times().len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_aligner);
criterion_main!(benches);
