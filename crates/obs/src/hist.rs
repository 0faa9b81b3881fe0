//! Log-linear histograms: bounded-memory latency distributions with
//! monotone quantiles and an exact, sum-preserving total.
//!
//! Values are bucketed HDR-style: each power-of-two octave is split into
//! [`SUB`] linear sub-buckets, so relative error is bounded by `1/SUB`
//! (6.25%) at any magnitude while the whole `u64` range fits in under a
//! thousand buckets. `count`, `sum`, `min`, and `max` are tracked
//! exactly, so the recorded mass is preserved bit-for-bit even though
//! individual samples are quantized.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sub-buckets per power-of-two octave (must be a power of two).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index for a value: exact below `SUB`, log-linear above.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // 2^e <= v < 2^(e+1), e >= SUB_BITS
        let shift = e - SUB_BITS;
        let sub = (v >> shift) & (SUB - 1);
        (SUB + (shift as u64) * SUB + sub) as usize
    }
}

/// Largest value a bucket can hold (the quantile representative, before
/// clamping to the observed `[min, max]`).
fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let shift = (idx - SUB) / SUB;
        let sub = (idx - SUB) % SUB;
        // Upper bound of [ (SUB+sub) << shift, (SUB+sub+1) << shift ).
        let lo = (SUB + sub) << shift;
        let width = 1u64 << shift;
        lo + (width - 1)
    }
}

#[derive(Debug)]
struct Inner {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// A point-in-time view of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of every recorded sample (not quantized).
    pub sum: u128,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A log-linear latency histogram.
///
/// Handles are cheap clones of shared state. Record wall-clock spans with
/// [`Histogram::span`] and virtual-time or pre-measured latencies with
/// [`Histogram::observe`].
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<Inner>>);

impl Histogram {
    /// A fresh, unregistered, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let mut h = self.0.lock().expect("histogram poisoned");
        h.counts[bucket_index(v)] += 1;
        h.count += 1;
        h.sum += v as u128;
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// Starts a wall-clock span; the elapsed nanoseconds are recorded
    /// when the guard drops.
    pub fn span(&self) -> SpanGuard {
        SpanGuard {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.lock().expect("histogram poisoned").count
    }

    /// Exact sum of every recorded sample: one lock, no quantile walk
    /// (cheaper than [`Histogram::snapshot`] when only the total is read).
    pub fn sum(&self) -> u128 {
        self.0.lock().expect("histogram poisoned").sum
    }

    /// The value at quantile `q` in `[0, 1]`, or 0 when empty.
    ///
    /// Quantiles are monotone in `q` and always within the observed
    /// `[min, max]`; `quantile(1.0)` is the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        let h = self.0.lock().expect("histogram poisoned");
        Histogram::quantile_locked(&h, q)
    }

    fn quantile_locked(h: &Inner, q: f64) -> u64 {
        if h.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
        let mut seen = 0u64;
        for (idx, &c) in h.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the bucket representative into the exactly
                // tracked range so quantiles never exceed the true max
                // (nor undershoot the true min), keeping p50 <= p95 <=
                // p99 <= max monotone even within one bucket.
                return bucket_upper(idx).clamp(h.min, h.max);
            }
        }
        h.max
    }

    /// A consistent point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = self.0.lock().expect("histogram poisoned");
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
            p50: Histogram::quantile_locked(&h, 0.50),
            p95: Histogram::quantile_locked(&h, 0.95),
            p99: Histogram::quantile_locked(&h, 0.99),
        }
    }
}

/// Drop guard returned by [`Histogram::span`]: records the elapsed
/// wall-clock nanoseconds into the histogram when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    hist: Histogram,
    start: Instant,
}

impl SpanGuard {
    /// Ends the span early, returning the recorded nanoseconds.
    pub fn finish(self) -> u64 {
        self.start.elapsed().as_nanos() as u64
        // Drop records it.
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_u64_in_order() {
        // Exact region, boundaries, and monotone indices.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        let mut last = 0usize;
        for shift in 0..60 {
            let v = 17u64 << shift;
            let idx = bucket_index(v);
            assert!(idx >= last, "indices monotone at {v}");
            assert!(idx < BUCKETS);
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_upper_bounds_its_members() {
        for &v in &[0u64, 1, 15, 16, 17, 100, 1000, 1 << 20, u64::MAX / 3] {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "upper({idx}) >= {v}");
            // Relative error of the representative is bounded.
            if v >= SUB {
                let err = (bucket_upper(idx) - v) as f64 / v as f64;
                assert!(err <= 1.0 / SUB as f64, "err {err} at {v}");
            }
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, (1..=1000u128).sum::<u128>());
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // 6.25% quantization error budget.
        assert!((470..=540).contains(&s.p50), "p50 {}", s.p50);
        assert!((900..=1000).contains(&s.p95), "p95 {}", s.p95);
        assert!((950..=1000).contains(&s.p99), "p99 {}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn single_value_quantiles_collapse() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(1_000);
        }
        let s = h.snapshot();
        // All quantiles clamp to the exact observed value.
        assert_eq!((s.p50, s.p95, s.p99, s.max), (1_000, 1_000, 1_000, 1_000));
        assert_eq!(s.sum, 100_000);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn span_records_elapsed() {
        let h = Histogram::new();
        {
            let _g = h.span();
            std::hint::black_box(0);
        }
        assert_eq!(h.count(), 1);
    }
}
