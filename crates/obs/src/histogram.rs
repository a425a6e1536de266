//! Log-bucketed histogram for latency-style distributions.
//!
//! Values are assigned to buckets whose upper bounds grow geometrically, so a
//! fixed, small number of buckets covers nine decades (microseconds to
//! kiloseconds) with bounded relative error. Quantiles are answered from the
//! bucket upper bound, which keeps them conservative (never under-reported).

/// Number of buckets per decade. 16 sub-buckets bounds the relative
/// quantile error at roughly `10^(1/16) - 1` ≈ 15%.
const BUCKETS_PER_DECADE: usize = 16;
/// Smallest resolvable value; everything below lands in bucket 0.
const MIN_VALUE: f64 = 1e-6;
/// Total decades covered above `MIN_VALUE`.
const DECADES: usize = 9;
const NUM_BUCKETS: usize = BUCKETS_PER_DECADE * DECADES + 1;

/// A fixed-size log-bucketed histogram over non-negative `f64` samples.
///
/// Tracks exact `count`, `sum`, `min`, and `max` alongside the bucket
/// counts, so means and extremes are precise even though quantiles are
/// bucket-resolution approximations.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for `value`. Values at or below `MIN_VALUE` map to 0;
    /// values beyond the covered range clamp into the last bucket.
    fn bucket_index(value: f64) -> usize {
        // NaN also lands here: `<=` is false for NaN, so check it explicitly
        // rather than relying on a negated comparison.
        if value <= MIN_VALUE || value.is_nan() {
            return 0;
        }
        let decades_above = (value / MIN_VALUE).log10();
        let idx = (decades_above * BUCKETS_PER_DECADE as f64).ceil() as usize;
        idx.min(NUM_BUCKETS - 1)
    }

    /// Upper bound of bucket `idx` (the largest value that maps into it).
    fn bucket_upper_bound(idx: usize) -> f64 {
        if idx == 0 {
            return MIN_VALUE;
        }
        let idx = idx.min(NUM_BUCKETS - 1);
        MIN_VALUE * 10f64.powf(idx as f64 / BUCKETS_PER_DECADE as f64)
    }

    /// Record one sample. Negative and NaN samples are clamped to zero —
    /// the histogram models non-negative durations.
    pub fn record(&mut self, value: f64) {
        self.record_many(value, 1);
    }

    /// Record `n` identical samples in one bucket update. Counts
    /// saturate rather than wrap, so pathological inputs can never
    /// overflow quantile accounting.
    fn record_many(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let value = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        let idx = Self::bucket_index(value);
        self.buckets[idx] = self.buckets[idx].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum += value * n as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact maximum of recorded samples (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact minimum of recorded samples (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, reported as the upper bound of
    /// the bucket containing the q-th sample. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; q=0 means the first sample.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= target {
                // The exact max is a tighter bound than the last bucket edge.
                return Self::bucket_upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// The fixed report quantiles in one bucket pass: p50, p95, p99,
    /// and p999 (with exact min/max bounds applied, like
    /// [`LogHistogram::quantile`]).
    pub fn quantiles(&self) -> Quantiles {
        let mut out = [0.0f64; 4];
        if self.count == 0 {
            return Quantiles::from_array(out);
        }
        let targets = Quantiles::FRACTIONS.map(|q| {
            ((q * self.count as f64).ceil() as u64)
                .max(1)
                .min(self.count)
        });
        let mut seen = 0u64;
        let mut next = 0usize;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            while next < targets.len() && seen >= targets[next] {
                out[next] = Self::bucket_upper_bound(idx).min(self.max);
                next += 1;
            }
            if next == targets.len() {
                break;
            }
        }
        for slot in out.iter_mut().skip(next) {
            *slot = self.max;
        }
        Quantiles::from_array(out)
    }
}

/// The report-grade quantile set of a [`LogHistogram`], computed in a
/// single pass by [`LogHistogram::quantiles`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quantiles {
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Quantiles {
    /// The quantile fractions, in ascending order.
    pub const FRACTIONS: [f64; 4] = [0.50, 0.95, 0.99, 0.999];

    fn from_array(values: [f64; 4]) -> Quantiles {
        Quantiles {
            p50: values[0],
            p95: values[1],
            p99: values[2],
            p999: values[3],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0;
        let mut v = 1e-7;
        while v < 1e4 {
            let idx = LogHistogram::bucket_index(v);
            assert!(idx >= prev, "index decreased at {v}");
            prev = idx;
            v *= 1.07;
        }
    }

    #[test]
    fn value_maps_below_its_bucket_upper_bound() {
        for &v in &[1e-6, 3.3e-5, 0.002, 0.02, 1.0, 17.5, 999.0] {
            let idx = LogHistogram::bucket_index(v);
            assert!(
                v <= LogHistogram::bucket_upper_bound(idx) * (1.0 + 1e-12),
                "{v} exceeds bound of bucket {idx}"
            );
            if idx > 0 {
                assert!(
                    v > LogHistogram::bucket_upper_bound(idx - 1) * (1.0 - 1e-12),
                    "{v} should not fit in bucket {}",
                    idx - 1
                );
            }
        }
    }

    #[test]
    fn quantile_brackets_true_value() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1ms .. 1s
        }
        let p50 = h.quantile(0.5);
        // Upper-bound reporting: at or above the true median, within one
        // bucket's relative width (~15%).
        assert!((0.5..=0.5 * 1.16).contains(&p50), "p50 = {p50}");
        let p95 = h.quantile(0.95);
        assert!((0.95..=0.95 * 1.16).contains(&p95), "p95 = {p95}");
        assert_eq!(h.quantile(1.0), 1.0);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        let mut h = LogHistogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn quantiles_struct_matches_individual_queries() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000 {
            h.record(i as f64 * 1e-4);
        }
        let q = h.quantiles();
        assert_eq!(q.p50, h.quantile(0.50));
        assert_eq!(q.p95, h.quantile(0.95));
        assert_eq!(q.p99, h.quantile(0.99));
        assert_eq!(q.p999, h.quantile(0.999));
        assert!(q.p50 <= q.p95 && q.p95 <= q.p99 && q.p99 <= q.p999);
        assert!((0.5..=0.5 * 1.16).contains(&q.p50), "p50 = {}", q.p50);
        assert!((0.999..=1.0).contains(&q.p999), "p999 = {}", q.p999);
    }

    #[test]
    fn p0_and_p100_hit_first_and_last_samples() {
        let mut h = LogHistogram::new();
        h.record(2e-3);
        h.record(0.5);
        h.record(40.0);
        // q = 0 targets the first sample's bucket; the bucket upper
        // bound brackets it within one bucket's relative width.
        let p0 = h.quantile(0.0);
        assert!((2e-3..=2e-3 * 1.16).contains(&p0), "p0 = {p0}");
        // q = 1 is exact: the upper bound is capped by the exact max.
        assert_eq!(h.quantile(1.0), 40.0);
        // Out-of-range inputs clamp rather than panic.
        assert_eq!(h.quantile(-3.0), p0);
        assert_eq!(h.quantile(7.0), 40.0);
    }

    #[test]
    fn single_sample_answers_every_quantile_exactly() {
        let mut h = LogHistogram::new();
        h.record(0.0123);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            // min(exact max) makes a one-sample histogram exact at any q.
            assert_eq!(h.quantile(q), 0.0123, "q = {q}");
        }
        let qs = h.quantiles();
        assert_eq!(
            (qs.p50, qs.p95, qs.p99, qs.p999),
            (0.0123, 0.0123, 0.0123, 0.0123)
        );
    }

    #[test]
    fn bucket_boundary_values_stay_in_their_bucket() {
        // A value recorded exactly at a bucket's upper bound must be
        // reported at (not above) that bound.
        for idx in [0, 1, 16, 80, NUM_BUCKETS - 1] {
            let bound = LogHistogram::bucket_upper_bound(idx);
            let mut h = LogHistogram::new();
            h.record(bound);
            let p100 = h.quantile(1.0);
            assert_eq!(p100, bound.min(h.max()), "bucket {idx}");
            assert!(
                h.quantile(0.5) <= bound * (1.0 + 1e-12),
                "bucket {idx}: median {} above bound {bound}",
                h.quantile(0.5)
            );
        }
    }

    #[test]
    fn underflow_lands_in_bucket_zero() {
        let mut h = LogHistogram::new();
        h.record(1e-9); // below MIN_VALUE
        h.record(MIN_VALUE);
        assert_eq!(h.count(), 2);
        // Both samples share bucket 0; every quantile is its bound,
        // tightened to the exact max.
        assert_eq!(h.quantile(0.5), MIN_VALUE);
        assert_eq!(h.quantile(1.0), MIN_VALUE);
        assert_eq!(h.min(), 1e-9);
    }

    #[test]
    fn overflow_is_capped_by_exact_max() {
        let mut h = LogHistogram::new();
        h.record(5e9); // beyond the covered decades
        let last_bound = LogHistogram::bucket_upper_bound(usize::MAX);
        assert!(h.max() > last_bound);
        assert_eq!(h.quantile(0.999), last_bound);
        assert_eq!(h.quantiles().p999, last_bound);
    }

    #[test]
    fn saturating_counts_never_wrap() {
        let mut h = LogHistogram::new();
        h.record_many(1e-3, u64::MAX);
        h.record_many(2.0, 5);
        // count saturates instead of wrapping past zero.
        assert_eq!(h.count(), u64::MAX);
        // Quantile accounting stays finite and ordered under saturation.
        let q = h.quantiles();
        assert!(q.p50 >= 1e-3 && q.p50 <= 2.0);
        assert!(q.p999 <= 2.0);
    }

    #[test]
    fn record_many_zero_is_a_no_op() {
        let mut h = LogHistogram::new();
        h.record_many(1.0, 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let mut h = LogHistogram::new();
        h.record(1e12);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1e12);
        // Quantile is capped by the exact max.
        let last_bound = LogHistogram::bucket_upper_bound(usize::MAX);
        assert_eq!(h.quantile(0.5), last_bound.min(1e12));
    }
}
