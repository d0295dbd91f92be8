//! Log-bucketed latency histograms.
//!
//! An HDR-style fixed layout: 65 power-of-two buckets, where bucket 0
//! holds the value `0` and bucket `b` (for `b >= 1`) holds values in
//! `[2^(b-1), 2^b - 1]`. Recording is one `leading_zeros` and one array
//! increment, quantiles are a linear walk over 65 slots, and two
//! histograms merge by adding bucket counts — so per-thread histograms
//! recorded by `relational::parallel` workers aggregate into one account
//! without locks on the record path.
//!
//! Quantile estimates return the *upper bound* of the bucket containing
//! the requested rank (clamped to the observed maximum), which makes them
//! a deterministic function of the bucket counts alone: merging
//! per-thread histograms yields bit-identical quantiles to recording the
//! concatenated samples single-threaded.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of buckets: value 0, plus one bucket per power of two up to
/// `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A fixed-layout log-bucketed histogram of `u64` samples (typically
/// nanoseconds).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index of `v`: 0 for 0, else `64 - leading_zeros(v)`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `b` can hold.
#[inline]
fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// An empty histogram (const, so registries can hold them in statics).
    pub const fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        if v > self.max {
            self.max = v;
        }
        if v < self.min {
            self.min = v;
        }
    }

    /// Adds every bucket of `other` into `self`. Merging per-thread
    /// histograms this way is exactly equivalent to recording the
    /// concatenated samples into one histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        if other.max > self.max {
            self.max = other.max;
        }
        if other.min < self.min {
            self.min = other.min;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample, or zero when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest sample, or zero when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The raw bucket counts (index 0 = value 0, index `b` = values in
    /// `[2^(b-1), 2^b - 1]`).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the upper edge
    /// of the bucket containing the sample of rank `ceil(q * count)`,
    /// clamped to the observed maximum. Returns zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let mut rank = (q * self.count as f64).ceil() as u64;
        if rank == 0 {
            rank = 1;
        }
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A point-in-time quantile summary of one histogram — the exportable
/// face of [`Histogram`], consumed by benchmarks and renderers
/// that need the quantiles without holding the bucket array.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample (zero when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

impl Histogram {
    /// The quantile summary of this histogram.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
        }
    }
}

// ---- the named registry spans record into ----

static REGISTRY: Mutex<BTreeMap<&'static str, Histogram>> = Mutex::new(BTreeMap::new());

/// Records `v` into the process-wide histogram named `name`. Span drops
/// call this, so worker threads spawned by `relational::parallel` all
/// aggregate into the same per-span-name account.
pub fn record_named(name: &'static str, v: u64) {
    let mut map = REGISTRY.lock().expect("histogram registry poisoned");
    map.entry(name).or_default().record(v);
}

/// A copy of every named histogram, sorted by name.
pub fn histograms_snapshot() -> Vec<(&'static str, Histogram)> {
    REGISTRY
        .lock()
        .expect("histogram registry poisoned")
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

/// The quantile summary of one named histogram, or `None` when nothing
/// was recorded under `name`.
pub fn summary_named(name: &str) -> Option<HistSummary> {
    REGISTRY
        .lock()
        .expect("histogram registry poisoned")
        .iter()
        .find(|(k, _)| **k == name)
        .map(|(_, h)| h.summary())
}

/// Clears the named-histogram registry (tests and fresh CLI runs).
pub fn clear_histograms() {
    REGISTRY
        .lock()
        .expect("histogram registry poisoned")
        .clear();
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the named histograms as an aligned table: one row per span
/// name with count, p50, p90, p99 and max.
pub fn render_histograms() -> String {
    let snap = histograms_snapshot();
    let mut out = String::new();
    out.push_str("-- LATENCY HISTOGRAMS (per span name)\n");
    if snap.is_empty() {
        out.push_str("   (no spans recorded)\n");
        return out;
    }
    let width = snap.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(4);
    out.push_str(&format!(
        "   {:<width$}  {:>8}  {:>9}  {:>9}  {:>9}  {:>9}\n",
        "span", "count", "p50", "p90", "p99", "max"
    ));
    for (name, h) in &snap {
        out.push_str(&format!(
            "   {:<width$}  {:>8}  {:>9}  {:>9}  {:>9}  {:>9}\n",
            name,
            h.count(),
            fmt_ns(h.p50()),
            fmt_ns(h.p90()),
            fmt_ns(h.p99()),
            fmt_ns(h.max()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 1..64 {
            assert_eq!(bucket_of(bucket_upper(b)), b, "upper edge stays in bucket");
            assert_eq!(bucket_of(bucket_upper(b) + 1), b + 1);
        }
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 50_000, 50_000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.min(), 1);
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let samples_a = [0u64, 5, 17, 300, 4096, u64::MAX];
        let samples_b = [1u64, 1, 2, 900_000, 12];
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut all = Histogram::new();
        for v in samples_a {
            ha.record(v);
            all.record(v);
        }
        for v in samples_b {
            hb.record(v);
            all.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha, all);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(ha.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p99(), 0);
    }
}
