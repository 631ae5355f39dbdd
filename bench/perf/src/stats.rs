//! Order statistics the benchmark reports: nearest-rank percentiles,
//! medians, the quartile spread the contract judges steadiness by, and
//! the geometric mean (Fig. 6's aggregate).

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`): the
/// smallest sample with at least `p` % of the samples at or below it.
/// With 13 samples p95 is therefore the maximum. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile — printed beside every percentile so a reader can tell a
/// supported tail (≥ 10 beyond) from a maximum in disguise.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (mean of the two middle samples for even counts). `None`
/// when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the rule the benchmark contract
/// measures spread with. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; 0 below two
/// samples or for a zero median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    match (quartiles(samples), median(samples)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// How far the second-smallest sample lies above the smallest, as a
/// share of it: the spread that matters when the smallest is what is
/// reported. 0 below two samples.
pub fn runner_up_gap(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted[..] {
        [best, next, ..] if best != 0.0 => (next - best) / best.abs(),
        _ => 0.0,
    }
}

/// Geometric mean over the positive entries, plus how many entries
/// were skipped (planner-answered queries have zero simulated time).
/// `None` when nothing survives.
pub fn geomean_positive(values: &[f64]) -> (Option<f64>, usize) {
    let kept: Vec<f64> = values.iter().copied().filter(|v| v.is_finite() && *v > 0.0).collect();
    let skipped = values.len() - kept.len();
    if kept.is_empty() {
        return (None, skipped);
    }
    (Some((kept.iter().map(|v| v.ln()).sum::<f64>() / kept.len() as f64).exp()), skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edge_cases() {
        assert_eq!(percentile(&[], 50.0), None);
        // n = 1: every percentile is the sample
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        // n = 13 (one SSB pass): p50 is the 7th, p95 the maximum
        let thirteen: Vec<f64> = (1..=13).rev().map(f64::from).collect();
        assert_eq!(percentile(&thirteen, 50.0), Some(7.0));
        assert_eq!(percentile(&thirteen, 95.0), Some(13.0));
        assert_eq!(samples_beyond(13, 95.0), 0);
        // n = 364 (the stream's query arrivals): rank ceil(345.8) = 346
        let many: Vec<f64> = (1..=364).map(f64::from).collect();
        assert_eq!(percentile(&many, 95.0), Some(346.0));
        assert_eq!(percentile(&many, 50.0), Some(182.0));
        assert_eq!(samples_beyond(364, 95.0), 18);
        assert_eq!(percentile(&many, 100.0), Some(364.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let (g, skipped) = geomean_positive(&[2.0, 8.0, 0.0]);
        assert!((g.unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(skipped, 1);
        assert_eq!(geomean_positive(&[0.0]), (None, 1));
        assert!((runner_up_gap(&[1.3, 1.0, 1.1, 2.0]) - 0.1).abs() < 1e-12);
        assert_eq!(runner_up_gap(&[1.0]), 0.0);
    }
}
