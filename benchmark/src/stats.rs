//! The arithmetic a wrong number would hide in: exact percentiles on stored
//! samples, best-block selection, and the median / quartiles `compare` and
//! the spread check use.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least `pct` percent of the samples at or below it. With 100 samples
/// the p90 is the 90th smallest, leaving ten beyond it. Exact — a stored
/// sample, never an interpolation or a histogram bucket edge.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// Sort a copy of `samples` ascending (total order; timings are never NaN).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, counts, bytes).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The contract's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The best block's value: interference on a shared guest only ever adds
/// time, so the least-disturbed block is the estimate — the minimum of a
/// lower-is-better metric, the maximum of a higher-is-better one.
pub fn best_block(per_block: &[f64], better: Better) -> f64 {
    assert!(!per_block.is_empty(), "best of no blocks");
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    per_block.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

/// Median: the middle sample, or the mean of the middle two.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the same rule the acceptance check
/// of a benchmark applies to its ten-run spread. One sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let s = sorted(samples);
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let cut = |i: usize| {
        let m = s.len() + 1;
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0
/// and the samples agree).
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// By how much `b` is worse than `a`, as a share of `a`; negative when `b`
/// is better. Two zeros agree; anything against a zero base is infinitely
/// worse (or better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let diff = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if diff == 0.0 {
        0.0
    } else if a == 0.0 {
        diff.signum() * f64::INFINITY
    } else {
        diff / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_stored_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 90), 90.0); // ten samples beyond it
        assert_eq!(percentile(&s, 100), 100.0);
        assert_eq!(percentile(&s, 1), 1.0);
        // five samples: p50 is the third, p90 the fifth
        let s = [10.0, 20.0, 30.0, 40.0, 1000.0];
        assert_eq!(percentile(&s, 50), 30.0);
        assert_eq!(percentile(&s, 90), 1000.0);
        // never interpolates
        assert_eq!(percentile(&[1.0, 2.0], 50), 1.0);
        assert_eq!(percentile(&[7.5], 90), 7.5);
    }

    #[test]
    fn five_query_round_puts_p50_and_p90_inside_one_mode() {
        // 20 rounds of five queries with distinct latency modes: the pooled
        // p50 is a sample of the third-slowest query and the p90 a sample of
        // the slowest — never the step between two.
        let mut pooled = Vec::new();
        for round in 0..20 {
            for (q, base) in [1.0, 2.0, 4.0, 8.0, 16.0].into_iter().enumerate() {
                pooled.push(base + 0.001 * f64::from(round) + 0.0001 * q as f64);
            }
        }
        let s = sorted(&pooled);
        assert!((4.0..4.1).contains(&percentile(&s, 50)));
        assert!((16.0..16.1).contains(&percentile(&s, 90)));
    }

    #[test]
    fn best_block_takes_min_or_max_by_direction() {
        let blocks = [3.0, 2.5, 4.0, 2.75];
        assert_eq!(best_block(&blocks, Better::Lower), 2.5);
        assert_eq!(best_block(&blocks, Better::Higher), 4.0);
        assert_eq!(best_block(&[9.0], Better::Lower), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([2, 4, 4, 5, 7], n=4) == [3.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 4.0, 2.0, 5.0, 4.0]), (3.0, 6.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Lower) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worse_by(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
