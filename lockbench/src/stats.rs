//! Order statistics used by every reported number.

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `sorted`, which must be
/// ascending and nonempty: the smallest sample with at least `p·n` samples
/// at or below it. Latency percentiles use this, so a reported p99 is
/// always a latency that was actually observed.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile rank {p} outside (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(p25, p50, p75)` of `values` in any order. p25 and p75 follow Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// and p50 is `statistics.median`, so the spread the benchmark reports is
/// the spread a reader recomputes from the per-run values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    let mid = if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    };
    if n == 1 {
        return (d[0], d[0], d[0]);
    }
    // statistics.quantiles, method="exclusive", n=4: m = len + 1, and cut
    // point i interpolates between the 1-based order statistics j and j+1
    // with j = i·m div 4 clamped to 1..len-1.
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (cut(1), mid, cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from statistics.quantiles(d, n=4) and
        // statistics.median(d) under CPython 3.11.
        type Case<'a> = (&'a [f64], (f64, f64, f64));
        let cases: [Case; 5] = [
            (
                &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
                (2.75, 5.5, 8.25),
            ),
            (&[3., 1., 2.], (1.0, 2.0, 3.0)),
            (&[5., 1.], (0.0, 3.0, 6.0)),
            (&[1., 2., 3., 4.], (1.25, 2.5, 3.75)),
            (&[10., 20., 30., 40., 50.], (15.0, 30.0, 45.0)),
        ];
        for (d, want) in cases {
            assert_eq!(quartiles(d), want, "{d:?}");
            assert_eq!(median(d), want.1, "{d:?}");
        }
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let d: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&d, 0.5), 50);
        assert_eq!(percentile(&d, 0.99), 99);
        assert_eq!(percentile(&d, 1.0), 100);
        assert_eq!(percentile(&d, 0.001), 1);
        assert_eq!(percentile(&[42u32], 0.99), 42);
        // 1000 samples: p99 is the 990th smallest, not an interpolation.
        let d: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&d, 0.99), 990);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile::<u32>(&[], 0.5);
    }
}
