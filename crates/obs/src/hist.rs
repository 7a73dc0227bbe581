//! The bounded log-linear histogram — the workspace's one distribution
//! type.
//!
//! HDR-style buckets: every power of two is split into 32 equal
//! sub-buckets, and values below 64 get unit-width buckets, so they are
//! recorded exactly. Above that a bucket is at most `1/32` of its lower
//! edge wide, which bounds the relative error of every percentile. The bucket array is fixed-size (boxed, so
//! the type stays cheap to move): recording is O(1) with no allocation,
//! memory does not grow with the sample count, and two histograms
//! [`FixedHistogram::merge`] by adding counts — the
//! fold-at-the-epoch-boundary pattern — which conserves every bucket and
//! the exact `count`/`sum`/`min`/`max` books.

/// Sub-buckets per power of two (the `1/32` relative bucket width).
const SUB_BUCKETS: usize = 32;

/// Number of histogram buckets: 64 unit-width buckets for `0..64`, then
/// 32 per power of two from `2^6` up to `2^64`.
pub const BUCKETS: usize = 2 * SUB_BUCKETS + (64 - 6) * SUB_BUCKETS;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// A bounded log-linear histogram over `u64` samples (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty; [`FixedHistogram::min`] reports 0 then.
    min: u64,
    max: u64,
}

impl Default for FixedHistogram {
    fn default() -> Self {
        FixedHistogram { counts: Box::new([0; BUCKETS]), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl FixedHistogram {
    /// An empty histogram.
    pub fn new() -> FixedHistogram {
        FixedHistogram::default()
    }

    /// The bucket index a value lands in.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        // Drop enough low bits that the remaining mantissa fits in
        // `[SUB_BUCKETS, 2 * SUB_BUCKETS)`; values below that keep shift 0.
        let shift = (64 - v.leading_zeros()).saturating_sub(SUB_BITS + 1);
        ((shift as usize) << SUB_BITS) + (v >> shift) as usize
    }

    /// The number of low bits bucket `i` ignores (its width is `2^shift`).
    fn shift_of(i: usize) -> u32 {
        ((i >> SUB_BITS) as u32).saturating_sub(1)
    }

    /// Inclusive lower edge of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        let shift = Self::shift_of(i);
        ((i - ((shift as usize) << SUB_BITS)) as u64) << shift
    }

    /// Inclusive upper edge of bucket `i` (`u64::MAX` for the last one).
    pub fn bucket_hi(i: usize) -> u64 {
        Self::bucket_lo(i) + ((1u64 << Self::shift_of(i)) - 1)
    }

    /// Records one sample (O(1), allocation-free).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self` by adding bucket counts — the epoch
    /// boundary fold. Afterwards every bucket and book equals what
    /// recording both inputs into one histogram would have produced.
    pub fn merge(&mut self, other: &FixedHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Nearest-rank `q`-quantile **upper bound**: the upper edge of the
    /// bucket holding the rank, clamped to the recorded maximum. Never
    /// below the exact nearest-rank sample, exact below 64, and at most
    /// `1/32` above it beyond that. 0 if empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as a sparse JSON object keyed by bucket
    /// lower edge, e.g. `{"3": 2, "1024": 7}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = (0..BUCKETS)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| format!("\"{}\": {}", Self::bucket_lo(i), self.counts[i]))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_monotone_and_cover() {
        assert_eq!(FixedHistogram::bucket_lo(0), 0);
        assert_eq!(FixedHistogram::bucket_hi(BUCKETS - 1), u64::MAX);
        for i in 1..BUCKETS {
            assert_eq!(FixedHistogram::bucket_lo(i), FixedHistogram::bucket_hi(i - 1) + 1);
            assert!(FixedHistogram::bucket_lo(i) <= FixedHistogram::bucket_hi(i));
        }
        for v in [0u64, 1, 2, 3, 4, 7, 8, 63, 64, 65, 1023, 1024, 12_602, u64::MAX] {
            let b = FixedHistogram::bucket_of(v);
            assert!(FixedHistogram::bucket_lo(b) <= v && v <= FixedHistogram::bucket_hi(b), "{v}");
        }
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = FixedHistogram::new();
        assert_eq!((h.min(), h.max(), h.percentile(0.9), h.to_json()), (0, 0, 0, "{}".into()));
        for v in [0u64, 1, 1, 2, 5, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 109);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(1), 2);
        assert_eq!(h.percentile(0.5), 2, "small values are exact");
        assert_eq!(h.percentile(1.0), 100, "p100 clamps to the recorded max");
        assert_eq!(h.to_json(), r#"{"0": 1, "1": 2, "2": 1, "5": 1, "100": 1}"#);
    }

    #[test]
    fn merge_conserves_counts() {
        let mut a = FixedHistogram::new();
        let mut b = FixedHistogram::new();
        for v in 0..50u64 {
            a.record(v * 3);
            b.record(v * 7 + 1);
        }
        let (ca, cb) = (a.count(), b.count());
        let per_bucket: Vec<u64> =
            (0..BUCKETS).map(|i| a.bucket_count(i) + b.bucket_count(i)).collect();
        a.merge(&b);
        assert_eq!(a.count(), ca + cb);
        assert_eq!(a.min(), 0);
        for (i, &want) in per_bucket.iter().enumerate() {
            assert_eq!(a.bucket_count(i), want, "bucket {i}");
        }
    }
}
