//! The estimators every reported timing goes through.
//!
//! Interference on a shared 2-vCPU guest is one-sided (a co-tenant only
//! ever makes a slot slower) and arrives in bursts of seconds, so:
//!
//! * where the work per slot is deterministic (`direct-*`), each slot
//!   keeps its **best** time over passes that are seconds apart, and the
//!   percentiles are taken over slots afterwards;
//! * where queueing between callers is part of the answer (`wire-*`), a
//!   pass is the unit: percentiles and throughput are taken **per pass**
//!   and the pass at the **quiet quartile** — the value a quarter of the
//!   passes are at least as good as — is reported, so slow stretches
//!   covering up to three quarters of the run leave it alone. (Probe:
//!   45 passes of `wire-hot` over 60 s read p50 4.6–5.1 ms for 36 passes
//!   and 5.3–5.55 ms for the last 9; a median over passes moves with the
//!   length of such a stretch, the quiet quartile does not.)

/// Nearest-rank percentile of an ascending slice: the value at index
/// `ceil(p * n) - 1`. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[percentile_index(sorted.len(), p)]
}

/// Index [`percentile`] reads for a sample of `n`.
pub fn percentile_index(n: usize, p: f64) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 1.0);
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the `p` percentile's index in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - percentile_index(n, p)
}

/// The rule for the tail figure: a percentile is reported only when at
/// least ten samples lie beyond it (p90 needs `n >= 100`).
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample, so absent layers read 0).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-slot best over passes: `passes[p][slot]` → `best[slot]`.
pub fn slot_best(passes: &[Vec<f64>]) -> Vec<f64> {
    let slots = passes.first().map_or(0, Vec::len);
    (0..slots)
        .map(|s| passes.iter().map(|p| p[s]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// For each slot, the pass in which it was fastest — so a slot's phase
/// split is read from the same run as its reported time.
pub fn slot_best_pass(passes: &[Vec<f64>]) -> Vec<usize> {
    let slots = passes.first().map_or(0, Vec::len);
    (0..slots)
        .map(|s| {
            (0..passes.len())
                .min_by(|&a, &b| passes[a][s].partial_cmp(&passes[b][s]).expect("no NaN"))
                .expect("at least one pass")
        })
        .collect()
}

/// The per-pass figure at the quiet quartile: with the passes ordered
/// from best to worst, the nearest-rank 25th percentile (the best of up
/// to four passes, the second best of five to eight, …).
pub fn quiet_quartile<P>(passes: &[P], per_pass: impl Fn(&P) -> f64, lower_is_better: bool) -> f64 {
    let mut v = sorted(&passes.iter().map(per_pass).collect::<Vec<_>>());
    if !lower_is_better {
        v.reverse();
    }
    percentile(&v, 0.25)
}

/// `(max - min) / median`.
pub fn range_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[v.len() - 1] - v[0]) / median(values)
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the figure the acceptance
/// protocol computes — as `(q1, q3)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // 1-based rank k*(n+1)/4, linearly interpolated; `delta` is taken
        // after the clamp, as Python does.
        let j = ((k * (n + 1)) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_index_is_nearest_rank() {
        assert_eq!(percentile_index(100, 0.5), 49);
        assert_eq!(percentile_index(100, 0.9), 89);
        assert_eq!(percentile_index(160, 0.9), 143);
        assert_eq!(percentile_index(1, 0.9), 0);
        assert_eq!(percentile_index(7, 1.0), 6);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_is_supported(100, 0.9));
        assert!(!tail_is_supported(99, 0.9));
        assert!(tail_is_supported(160, 0.9));
        // p99 at Q=160 would rest on one sample.
        assert_eq!(samples_beyond(160, 0.99), 1);
        assert!(!tail_is_supported(160, 0.99));
    }

    #[test]
    fn slot_best_is_per_slot_not_per_pass() {
        // Pass 1 is hit by a burst in its second half, pass 2 in its
        // first: no pass is clean, every slot is.
        let passes = vec![
            vec![10.0, 11.0, 30.0, 31.0],
            vec![28.0, 29.0, 12.0, 13.0],
            vec![10.5, 40.0, 12.5, 40.0],
        ];
        assert_eq!(slot_best(&passes), vec![10.0, 11.0, 12.0, 13.0]);
        assert_eq!(slot_best_pass(&passes), vec![0, 0, 1, 1]);
    }

    #[test]
    fn quiet_quartile_ignores_a_slow_stretch() {
        // Eight passes, the last five inside a slow stretch.
        let p50 = [5.0, 4.8, 4.9, 5.6, 5.5, 5.7, 5.6, 5.8];
        assert_eq!(quiet_quartile(&p50, |&x| x, true), 4.9);
        let qps = [400.0, 415.0, 410.0, 350.0, 360.0, 355.0, 352.0, 349.0];
        assert_eq!(quiet_quartile(&qps, |&x| x, false), 410.0);
        // Up to four passes: the best one.
        assert_eq!(quiet_quartile(&[7.0, 6.0, 9.0], |&x| x, true), 6.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_spread(&[16.0, 1.0, 4.0, 2.0, 8.0]) - 10.5 / 4.0).abs() < 1e-12);
        assert!((range_spread(&[2.0, 4.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
    }
}
