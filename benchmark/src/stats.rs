//! Order statistics for the report: every timing is a median over rounds
//! with its quartiles and sample count; latencies are percentiles of the
//! raw per-op samples of one trial.

/// Median, quartiles and sample count of one metric's per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (any order). Panics on an empty slice: a metric
    /// with no samples is a harness bug, not a measurement.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "metric has no samples");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: quantile_sorted(&v, 0.5),
            q1: quantile_sorted(&v, 0.25),
            q3: quantile_sorted(&v, 0.75),
            n: v.len(),
        }
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in [0, 1]).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Percentile `p` of raw latency samples (reorders `samples`).
///
/// The clock reads whole nanoseconds, so a tight distribution piles
/// thousands of samples on one value. Each value `x` is therefore treated
/// as the bin `[x - 0.5, x + 0.5)` with its samples spread evenly across
/// it (the grouped-data percentile), which moves with the share of samples
/// on either side instead of sticking to one integer.
pub fn percentile_ns(samples: &mut [u32], p: f64) -> f64 {
    assert!(!samples.is_empty(), "latency trial recorded no samples");
    let target = (p / 100.0).clamp(0.0, 1.0) * samples.len() as f64;
    let idx = (target.ceil() as usize).clamp(1, samples.len()) - 1;
    let x = *samples.select_nth_unstable(idx).1;
    let below = samples.iter().filter(|&&v| v < x).count() as f64;
    let at = samples.iter().filter(|&&v| v == x).count() as f64;
    x as f64 - 0.5 + ((target - below) / at).clamp(0.0, 1.0)
}

/// Mean of the middle half of raw latency samples, p25 to p75 (reorders
/// `samples`).
///
/// The typical latency, for distributions with two humps: a kv op is fast
/// on a hot key and slower on a cold one, the median sits in the thin
/// valley between the two humps, and it jumps across the valley when the
/// share of hot keys moves by a few percent (`kv-read`: 9 % spread of the
/// stm ÷ lock ratio of medians over ten runs). This mean moves in
/// proportion.
pub fn mid_mean_ns(samples: &mut [u32]) -> f64 {
    assert!(!samples.is_empty(), "latency trial recorded no samples");
    samples.sort_unstable();
    let n = samples.len();
    let mid = &samples[n / 4..(n - n / 4).max(n / 4 + 1)];
    mid.iter().map(|&v| v as f64).sum::<f64>() / mid.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.n, 4);
        assert!((s.iqr_share() - 0.6).abs() < 1e-12);
        let odd = Summary::of(&[9.0, 7.0, 8.0]);
        assert_eq!((odd.q1, odd.median, odd.q3), (7.5, 8.0, 8.5));
        let one = Summary::of(&[5.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (5.0, 5.0, 5.0, 1));
    }

    #[test]
    fn percentile_interpolates_inside_the_clock_bin() {
        // 1..=100, one sample per value: p50 is the upper edge of bin 50.
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut v, 50.0), 50.5);
        assert_eq!(percentile_ns(&mut v, 99.0), 99.5);
        assert_eq!(percentile_ns(&mut v, 100.0), 100.5);
        // Ties: 60 % of the samples read 227, 40 % read 228; the median sits
        // five sixths of the way through the 227 bin.
        let mut tied = vec![227u32; 600];
        tied.extend(vec![228u32; 400]);
        let p50 = percentile_ns(&mut tied, 50.0);
        assert!((p50 - (226.5 + 500.0 / 600.0)).abs() < 1e-9, "{p50}");
        // A lone outlier does not reach p99 but owns p99.95.
        let mut skew = vec![1u32; 999];
        skew.push(1_000_000);
        assert!(percentile_ns(&mut skew, 99.0) < 1.5);
        assert!(percentile_ns(&mut skew, 99.95) > 999_999.0);
        let mut one = vec![7u32];
        assert_eq!(percentile_ns(&mut one, 99.0), 7.49);
    }

    #[test]
    fn mid_mean_ignores_both_tails_and_weighs_both_humps() {
        // Two humps: 60 % at 100, 40 % at 200. The middle half holds 35
        // points of the first and 15 of the second.
        let mut v = vec![100u32; 60];
        v.extend(vec![200u32; 40]);
        v.reverse();
        assert_eq!(mid_mean_ns(&mut v), (35.0 * 100.0 + 15.0 * 200.0) / 50.0);
        // Tails do not matter.
        let mut t: Vec<u32> = (1..=8).collect();
        t[7] = 1_000_000;
        t[0] = 0;
        assert_eq!(mid_mean_ns(&mut t), 4.5);
        assert_eq!(mid_mean_ns(&mut [7]), 7.0);
    }

    #[test]
    fn zero_median_has_zero_spread() {
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).iqr_share(), 0.0);
    }
}
