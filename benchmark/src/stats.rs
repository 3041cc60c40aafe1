//! Order statistics and the log₂-bucket histogram the traced run keeps
//! for every span kind.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` (ascending), by the
/// nearest-rank rule: the smallest value with at least `q·n` samples at or
/// below it. `None` on an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle values on an even count).
/// `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it (99.9, 99, 90 or 50), as a quantile in `[0, 1]`.
pub fn highest_supported_quantile(n: usize) -> f64 {
    match n {
        10_000.. => 0.999,
        1_000.. => 0.99,
        100.. => 0.9,
        _ => 0.5,
    }
}

/// A histogram of nanosecond durations in power-of-two buckets: bucket `k`
/// counts values in `[2^k, 2^(k+1))` (bucket 0 also takes zero). Constant
/// size, so the traced run can keep one per span kind for every span it
/// sees, not only the ones it stores in full.
#[derive(Clone, Debug)]
pub struct Log2Hist {
    buckets: [u64; 40],
    count: u64,
    sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 40],
            count: 0,
            sum: 0,
        }
    }
}

impl Log2Hist {
    /// Record one duration.
    pub fn record(&mut self, ns: u64) {
        let bucket = (63 - ns.max(1).leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += ns;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the recorded durations, exact.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded duration (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile: the true
    /// quantile lies in `[bound / 2, bound)`. 0 when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return 1u64 << (k + 1);
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1));
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn supported_quantile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_quantile(10_000), 0.999);
        assert_eq!(highest_supported_quantile(2_000), 0.99);
        assert_eq!(highest_supported_quantile(999), 0.9);
        assert_eq!(highest_supported_quantile(100), 0.9);
        assert_eq!(highest_supported_quantile(99), 0.5);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Log2Hist::default();
        for ns in [0, 1, 2, 3, 4, 1000, 1024, 1 << 45] {
            h.record(ns);
        }
        assert_eq!(h.count(), 8);
        // 0 and 1 share bucket 0; 2 and 3 bucket 1; 4 bucket 2.
        assert_eq!(h.quantile_bound(0.25), 2);
        assert_eq!(h.quantile_bound(0.5), 4);
        // 1000 is in [512, 1024), 1024 in [1024, 2048).
        assert_eq!(h.quantile_bound(0.75), 1024);
        assert_eq!(h.quantile_bound(0.875), 2048);
        assert_eq!(Log2Hist::default().quantile_bound(0.5), 0);
        assert_eq!(Log2Hist::default().mean(), 0.0);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Log2Hist::default();
        h.record(10);
        h.record(30);
        assert_eq!(h.sum(), 40);
        assert_eq!(h.mean(), 20.0);
    }
}
