//! Counters and log-scale histograms.
//!
//! All metric types are lock-free on the hot path: handles wrap
//! `Arc<Atomic…>` cells resolved once from the global registry, so an
//! instrumented inner loop pays one relaxed load (the enabled check) plus
//! one atomic RMW per event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::collector::enabled;

/// A monotonic counter handle. Cheap to clone; resolve once per hot loop
/// via [`crate::counter`].
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (no-op while observability is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `b` holds values with bit-length `b`,
/// i.e. `[2^(b-1), 2^b)`; bucket 0 holds zero.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-scale histogram over `u64` samples.
///
/// Values land in power-of-two buckets by bit length, so the histogram
/// covers the full `u64` range in 65 cells with ≤ 2× relative error on
/// percentile readouts — plenty for iteration counts, microsecond
/// durations and overflow tallies.
#[derive(Debug)]
pub struct Histogram {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

pub(crate) fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Representative (upper-bound) value of a bucket.
pub(crate) fn bucket_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl Histogram {
    pub(crate) fn record_raw(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// A histogram handle resolved from the registry.
#[derive(Debug, Clone)]
pub struct HistogramHandle(pub(crate) Arc<Histogram>);

impl HistogramHandle {
    /// A standalone histogram detached from the global registry and its
    /// enabled gate. Subsystems that must account unconditionally (the
    /// serving daemon's latency accounting) use this with
    /// [`Self::record_always`], so their bookkeeping runs even while
    /// flow observability stays off and artifacts stay byte-identical.
    #[must_use]
    pub fn standalone() -> Self {
        Self(Arc::new(Histogram::default()))
    }

    /// Records one sample (no-op while observability is disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if enabled() {
            self.0.record_raw(value);
        }
    }

    /// Records one sample unconditionally, bypassing the global enable
    /// gate — for [standalone](Self::standalone) histograms that must
    /// count regardless of whether flow observability is on.
    #[inline]
    pub fn record_always(&self, value: u64) {
        self.0.record_raw(value);
    }

    /// Records `|value| * scale` rounded down — the idiom for signed or
    /// fractional samples such as annealing cost deltas.
    #[inline]
    pub fn record_scaled(&self, value: f64, scale: f64) {
        if enabled() {
            let scaled = (value.abs() * scale).min(u64::MAX as f64);
            self.0.record_raw(scaled as u64);
        }
    }

    /// An immutable snapshot for readout.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from(&*self.0)
    }
}

/// Immutable view of a histogram for percentile readout and export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples (wraps above `u64::MAX`).
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
    /// `(bucket_upper_bound, sample_count)` for every non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl From<&Histogram> for HistogramSnapshot {
    fn from(h: &Histogram) -> Self {
        let buckets = h
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some((bucket_bound(b), count))
            })
            .collect();
        Self {
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile `p` in `[0, 100]`: the upper bound of the
    /// bucket containing the p-th ranked sample (0 when empty). The true
    /// maximum caps the readout so p100 is exact.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut cumulative = 0u64;
        for &(bound, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn percentiles_bound_true_values_within_2x() {
        crate::set_enabled(true);
        let h = HistogramHandle(Arc::new(Histogram::default()));
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        let p50 = snap.percentile(50.0);
        // True median 500; log buckets land it in (256, 511].
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        assert!(p50 >= 500 / 2);
        assert_eq!(snap.percentile(100.0), 1000);
        assert!(snap.percentile(1.0) <= 31);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = HistogramHandle(Arc::new(Histogram::default()));
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.percentile(99.0), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn empty_histogram_every_percentile_is_zero() {
        let h = HistogramHandle(Arc::new(Histogram::default()));
        let snap = h.snapshot();
        for q in [0.0, 1.0, 50.0, 95.0, 99.9, 100.0] {
            assert_eq!(snap.percentile(q), 0, "p{q} of empty histogram");
        }
    }

    #[test]
    fn single_sample_histogram_is_that_sample_at_every_percentile() {
        crate::set_enabled(true);
        let h = HistogramHandle(Arc::new(Histogram::default()));
        h.record(42);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        for q in [0.0, 50.0, 99.0, 100.0] {
            // The max cap clamps the log-bucket bound to the true value.
            assert_eq!(snap.percentile(q), 42, "p{q}");
        }
        assert_eq!(snap.mean(), 42.0);
    }

    #[test]
    fn standalone_histograms_record_unconditionally() {
        // No set_enabled here: record_always must count regardless of
        // the global gate (shared with concurrently running tests).
        let h = HistogramHandle::standalone();
        h.record_always(7);
        h.record_always(9);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 16);
        assert_eq!(snap.percentile(100.0), 9);
    }

    #[test]
    fn zero_valued_samples_are_counted_not_dropped() {
        crate::set_enabled(true);
        let h = HistogramHandle(Arc::new(Histogram::default()));
        h.record(0);
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.percentile(100.0), 0);
        assert_eq!(snap.mean(), 0.0);
    }
}
