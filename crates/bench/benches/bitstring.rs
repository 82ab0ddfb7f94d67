//! Bit-compression micro-benchmarks: the word-parallel AND and the
//! (K,L,G)-validity check that replace the Baseline's exponential subset
//! storage (§6.2).

use criterion::{criterion_group, criterion_main, Criterion};
use icpe_pattern::{BitString, Semantics};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn random_bits(len: usize, density: f64, seed: u64) -> BitString {
    let mut rng = StdRng::seed_from_u64(seed);
    let bools: Vec<bool> = (0..len).map(|_| rng.random_bool(density)).collect();
    BitString::from_bools(&bools)
}

fn bench_and(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitstring_and");
    for len in [64usize, 1024] {
        let a = random_bits(len, 0.7, 1);
        let b = random_bits(len, 0.7, 2);
        group.bench_function(format!("and_{len}"), |bencher| {
            bencher.iter(|| black_box(a.and(&b).count_ones()))
        });
    }
    group.finish();
}

fn bench_validity(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitstring_validity");
    let strings: Vec<BitString> = (0..64).map(|i| random_bits(256, 0.6, i)).collect();
    for (name, sem) in [
        ("subsequence", Semantics::Subsequence),
        ("paper_greedy", Semantics::PaperGreedy),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut valid = 0usize;
                for s in &strings {
                    if s.satisfies_klg(20, 5, 3, sem) {
                        valid += 1;
                    }
                }
                black_box(valid)
            })
        });
    }
    group.finish();
}

/// Run extraction and witness search are `trailing_zeros` word scans: the
/// cost follows the number of runs, not the number of bits.
fn bench_word_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitstring_word_scan");
    for (name, density) in [("dense_0.9", 0.9), ("mixed_0.6", 0.6)] {
        let strings: Vec<BitString> = (0..64).map(|i| random_bits(256, density, i)).collect();
        group.bench_function(format!("runs/{name}"), |b| {
            b.iter(|| black_box(strings.iter().map(|s| s.runs().len()).sum::<usize>()))
        });
        group.bench_function(format!("witness/{name}"), |b| {
            b.iter(|| {
                let witnesses = strings
                    .iter()
                    .filter_map(|s| s.witness(20, 5, 3, Semantics::Subsequence));
                black_box(witnesses.map(|w| w.len()).sum::<usize>())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_and, bench_validity, bench_word_scan);
criterion_main!(benches);
