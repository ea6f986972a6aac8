//! Log-linear histograms for latency/size distributions.
//!
//! Values are bucketed with 16 linear sub-buckets per power of two
//! (relative error ≤ 1/16 above 16), the classic HDR layout. Bucket
//! indices are pure integer math so two runs that record the same
//! values produce bit-identical histograms.

/// Sub-buckets per binary magnitude (16 ⇒ 4 bits of mantissa kept).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Maps a value to its bucket index. Continuous: bucket lower bounds
/// are 0,1,..,15,16,17,..,31,32,34,.. (step doubles each magnitude).
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let mag = 63 - value.leading_zeros(); // >= SUB_BITS
    let group = (mag - SUB_BITS) as usize;
    let sub = ((value >> (mag - SUB_BITS)) & (SUB - 1)) as usize;
    SUB as usize + group * SUB as usize + sub
}

/// The smallest value mapping to `index` (the bucket's lower bound).
pub(crate) fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB as usize {
        return index as u64;
    }
    let group = (index - SUB as usize) / SUB as usize;
    let sub = ((index - SUB as usize) % SUB as usize) as u64;
    (SUB + sub) << group
}

/// A log-linear histogram with exact count/sum/min/max.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub(crate) fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, rounded down, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (0.0–1.0) as the lower bound of the bucket
    /// holding the target rank; exact for values below 16, within
    /// 1/16 relative error above. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let mut target = (q * self.count as f64).ceil() as u64;
        if target == 0 {
            target = 1;
        }
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(bucket_lower_bound(idx).max(self.min).min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_continuous_and_monotone() {
        let mut prev = bucket_index(0);
        assert_eq!(prev, 0);
        for v in 1..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx == prev || idx == prev + 1, "gap at {v}");
            prev = idx;
        }
    }

    #[test]
    fn lower_bound_inverts_index() {
        for idx in 0..200 {
            let lb = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lb), idx, "bucket {idx} lb {lb}");
            if lb > 0 {
                assert_eq!(bucket_index(lb - 1), idx - 1);
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(7));
        assert_eq!(h.quantile(1.0), Some(15));
    }

    #[test]
    fn quantiles_at_bucket_boundaries() {
        let mut h = Histogram::new();
        // 100 observations of exactly 1024 (a bucket lower bound).
        for _ in 0..100 {
            h.record(1024);
        }
        assert_eq!(h.quantile(0.5), Some(1024));
        assert_eq!(h.quantile(0.99), Some(1024));
        assert_eq!(h.max(), 1024);
        // One outlier at the top: p99 over 101 obs still in the 1024
        // bucket, p100 reaches the outlier's bucket.
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), Some(1024));
        assert_eq!(h.quantile(1.0), Some(1 << 20));
    }

    #[test]
    fn bounded_relative_error() {
        let mut h = Histogram::new();
        h.record(1000);
        let q = h.quantile(0.5).unwrap();
        assert!(q <= 1000 && 1000 - q <= 1000 / 16 + 1, "q={q}");
    }
}
