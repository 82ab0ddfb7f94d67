//! Order statistics over samples: the benchmark reports medians and
//! percentiles, never means, so one stalled sample cannot move a metric.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank method:
/// the smallest sample with at least `q` of the samples at or below it.
/// Sorts in place. `None` on an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The `q`-quantile of `samples` (in arrival order) in calm conditions:
/// the samples are cut into `segments` equal consecutive runs, each run
/// gives its own [`percentile`], and the lower quartile of those (nearest
/// rank) is the answer.
///
/// On a shared host a 4-second pass is disturbed for a second here, a
/// dozen samples there, in a different place every run; the plain quantile
/// then spreads 10–25 % between identical runs. Interference only ever
/// adds latency, so the calmest quarter of the pass is what the system
/// itself did — and a change to the system shifts every segment, calm ones
/// included.
pub fn calm_percentile(samples: &[f64], q: f64, segments: usize) -> Option<f64> {
    let len = samples.len() / segments.max(1);
    if len == 0 {
        return percentile(&mut samples.to_vec(), q);
    }
    let mut per_segment: Vec<f64> = samples
        .chunks_exact(len)
        .take(segments)
        .filter_map(|segment| percentile(&mut segment.to_vec(), q))
        .collect();
    percentile(&mut per_segment, 0.25)
}

/// The median, averaging the two middle samples of an even count.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// Run-to-run spread of a metric as a share of its median: the distance
/// between the first and third quartile (the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)`) for four or more runs, the full
/// range for two or three, `None` for fewer — one run has no spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    let med = median(&mut v)?;
    let n = v.len();
    if n < 2 || med == 0.0 {
        return None;
    }
    let width = if n < 4 {
        v[n - 1] - v[0]
    } else {
        let quartile = |k: usize| {
            let pos = (k * (n + 1)) as f64 / 4.0;
            let lo = (pos.floor() as usize).clamp(1, n - 1);
            v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
        };
        quartile(3) - quartile(1)
    };
    Some(width / med.abs())
}

/// Least-squares slope of `ys` over `xs` (`None` when fewer than two
/// points or the xs do not vary).
pub fn slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return None;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for i in 0..n {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    (sxx > 0.0).then(|| sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic scramble of `0..n` (so the reference below has to
    /// sort to find anything).
    fn scrambled(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn percentile_matches_a_sorted_reference() {
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1200] {
            let mut reference = scrambled(n);
            reference.sort_by(f64::total_cmp);
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                let got = percentile(&mut scrambled(n), q).unwrap();
                // Reference definition, counted out: the smallest value
                // with at least q·n samples at or below it.
                let want = *reference
                    .iter()
                    .find(|&&v| {
                        let at_or_below = reference.iter().filter(|&&w| w <= v).count();
                        at_or_below as f64 >= q * n as f64
                    })
                    .unwrap();
                assert_eq!(got, want, "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn p99_of_1200_leaves_twelve_beyond() {
        let mut v = scrambled(1200);
        let p99 = percentile(&mut v, 0.99).unwrap();
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 12);
    }

    #[test]
    fn calm_percentile_ignores_disturbed_stretches_but_follows_a_shift() {
        // 1000 samples around 2.0, the same in every stretch.
        let calm: Vec<f64> = (0..1000).map(|i| 2.0 + (i % 100) as f64 / 100.0).collect();
        let base = calm_percentile(&calm, 0.5, 10).unwrap();
        assert!((base - 2.49).abs() < 1e-9, "{base}");
        // Six of the ten stretches run 40 % slow (a noisy neighbour): the
        // plain median follows them, the calm one does not move.
        let mut disturbed = calm.clone();
        for v in disturbed[200..800].iter_mut() {
            *v *= 1.4;
        }
        assert!(percentile(&mut disturbed.clone(), 0.5).unwrap() > 1.1 * base);
        assert_eq!(calm_percentile(&disturbed, 0.5, 10), Some(base));
        // The whole pass 30 % slower: every stretch says so.
        let slower: Vec<f64> = calm.iter().map(|v| v * 1.3).collect();
        let moved = calm_percentile(&slower, 0.5, 10).unwrap();
        assert!((moved / base - 1.3).abs() < 1e-9);
        // Too few samples to cut up: the plain percentile.
        assert_eq!(calm_percentile(&[1.0, 3.0, 2.0], 0.5, 10), Some(2.0));
        assert_eq!(calm_percentile(&[], 0.5, 10), None);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn spread_is_pythons_exclusive_quartiles_over_the_median() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = spread(&[8.0, 1.0, 4.0, 2.0]).unwrap();
        assert!((s - (7.0 - 1.25) / 3.0).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[5.0]), None);
        assert_eq!(spread(&[4.0, 6.0]), Some(0.4));
    }

    #[test]
    fn slope_recovers_a_line() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 7.0).collect();
        assert!((slope(&xs, &ys).unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(slope(&[1.0, 1.0], &[2.0, 3.0]), None);
    }
}
