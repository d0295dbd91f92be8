//! Exact order statistics over raw samples. Every percentile the
//! benchmark reports comes from here, never from a bucketed histogram.

use std::time::Instant;

/// The `q`-quantile (`0.0..=1.0`) of ascending `sorted` samples, by linear
/// interpolation between the two closest ranks. `None` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (any order). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Raw latency samples in nanoseconds, summarised on demand.
#[derive(Default, Clone)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    /// Records one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Appends another set of samples.
    pub fn extend(&mut self, other: &Latencies) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile in microseconds. `None` without samples.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let mut us: Vec<f64> = self.0.iter().map(|&ns| ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        quantile_sorted(&us, q)
    }
}

/// Elapsed nanoseconds of an `Instant`, saturating.
pub fn nanos_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Flushes every dirty page to disk and waits for it, so that a timed step
/// does not share the disk with writeback left over by the step before
/// (a 6 MB checkpoint, a deleted store). Called only between timed steps.
pub fn settle_disk() {
    #[cfg(unix)]
    {
        extern "C" {
            fn sync();
        }
        // SAFETY: `sync` is the POSIX call that schedules and (on Linux)
        // waits for writeback of all dirty data; it takes no arguments and
        // cannot fail.
        unsafe { sync() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn latencies_report_exact_values() {
        let mut l = Latencies::default();
        for ns in [1_000, 3_000, 2_000] {
            l.push(ns);
        }
        assert_eq!(l.quantile_us(0.5), Some(2.0));
        assert_eq!(l.len(), 3);
    }
}
