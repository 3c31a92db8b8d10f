//! The latency histogram: serving latency distributions.
//!
//! The serving front-end (`bamboo-serving`) stamps every request's
//! lifecycle into the ordinary event rings, and the fold
//! ([`crate::analyze::ObservedGraph`]) pairs each request's admit and
//! complete timestamps; [`LatencyHistogram`] is the one distribution
//! type the analyses, the serving report and the scope plane record
//! those spans into.

use std::fmt::Write as _;

/// Sub-buckets per power-of-two octave: ~3% relative resolution,
/// HDR-histogram style (log-bucketed, fixed memory, any range).
const SUBS: u64 = 32;
/// Values below `SUBS * 2` get exact unit buckets.
const LINEAR_LIMIT: u64 = SUBS * 2;

/// A log-bucketed latency histogram (HDR style): exact below 64,
/// ~3%-relative-error buckets above, O(1) record, fixed memory.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    buckets: Vec<(usize, u64)>, // sparse (bucket index, count), sorted
    count: u64,
    sum: u64,
    max: u64,
    min: u64, // meaningful only when count > 0
}

fn bucket_of(value: u64) -> usize {
    if value < LINEAR_LIMIT {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as u64; // >= 6
    let sub = (value >> (octave - 5)) & (SUBS - 1);
    (LINEAR_LIMIT + (octave - 6) * SUBS + sub) as usize
}

/// Upper bound of the values mapping to `bucket` (the quantile
/// estimate the histogram reports).
fn bucket_top(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < LINEAR_LIMIT {
        return bucket;
    }
    let rel = bucket - LINEAR_LIMIT;
    let octave = rel / SUBS + 6;
    let sub = rel % SUBS;
    // Bucket covers [base + sub*w, base + (sub+1)*w) where w = 2^(octave-5).
    (1u64 << octave) + (sub + 1) * (1u64 << (octave - 5)) - 1
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_of(value);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Folds another histogram's samples into this one (used to
    /// aggregate per-window histograms into run totals).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded sample (exact, not bucketed; 0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in [0, 1]: the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`,
    /// clamped to the observed `[min, max]` range.
    ///
    /// Edge cases are explicit rather than incidental:
    /// * **empty** → 0 for every `q`;
    /// * **single sample** → that exact sample for every `q` (the
    ///   clamp collapses the bucket estimate onto the one value);
    /// * **high quantiles on small windows** (e.g. p999 with fewer than
    ///   1000 samples) → the exact observed max, never a bucket top
    ///   above anything that was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_top(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// p50 shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// p99 shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// p999 shorthand.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// One-line human summary (`unit` is a label, e.g. "us").
    pub fn summary(&self, unit: &str) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "n={} mean={:.1}{unit} p50={}{unit} p99={}{unit} p999={}{unit} max={}{unit}",
            self.count,
            self.mean(),
            self.p50(),
            self.p99(),
            self.p999(),
            self.max
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::graph::{ObsRequest, ObservedGraph};
    use crate::event::{Event, EventKind};
    use crate::report::TelemetryReport;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, 5, 17, 63] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.p50(), 5);
        assert_eq!(h.max(), 63);
        assert_eq!(h.quantile(1.0), 63);
    }

    #[test]
    fn large_values_stay_within_relative_error() {
        let mut h = LatencyHistogram::new();
        for v in [1_000u64, 10_000, 100_000, 1_000_000, 123_456_789] {
            h.record(v);
            let est = bucket_top(bucket_of(v));
            assert!(est >= v, "estimate {est} below sample {v}");
            assert!(
                (est - v) as f64 / v as f64 <= 1.0 / SUBS as f64,
                "estimate {est} more than 1/{SUBS} above {v}"
            );
        }
    }

    #[test]
    fn quantiles_order_and_clamp_to_max() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let (p50, p99, p999) = (h.p50(), h.p99(), h.p999());
        assert!(p50 <= p99 && p99 <= p999);
        assert!(p999 <= h.max());
        // p50 of 100..100_000 uniform is ~50_000; the bucket estimate
        // must land within one bucket width (~3%).
        assert!((45_000..=55_000).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_window_reports_the_sample_exactly() {
        // 10_000 falls in a ~3%-wide bucket whose top is above the
        // sample; every quantile must still report the sample itself.
        let mut h = LatencyHistogram::new();
        h.record(10_000);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 10_000, "q={q}");
        }
        assert_eq!(h.min(), 10_000);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn p999_on_small_windows_is_the_observed_max() {
        // With fewer than 1000 samples the p999 rank lands on the last
        // sample; the estimate must be the exact max, not a bucket top.
        let mut h = LatencyHistogram::new();
        for v in [70_000u64, 80_000, 90_001] {
            h.record(v);
        }
        assert_eq!(h.p999(), 90_001);
        assert_eq!(h.quantile(1.0), 90_001);
        // And the low end clamps to the observed min.
        assert!(h.quantile(0.0) >= 70_000);
    }

    #[test]
    fn merge_combines_counts_min_max_and_quantiles() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [100u64, 200, 300] {
            a.record(v);
        }
        for v in [5u64, 50_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 50_000);
        assert_eq!(a.sum(), 100 + 200 + 300 + 5 + 50_000);
        assert_eq!(a.quantile(0.0), 5);
        assert_eq!(a.quantile(1.0), 50_000);
        // Merging an empty histogram is a no-op.
        let before = a.count();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), before);
        // Merging into an empty histogram copies min/max.
        let mut c = LatencyHistogram::new();
        c.merge(&a);
        assert_eq!(c.min(), 5);
        assert_eq!(c.max(), 50_000);
    }

    #[test]
    fn stats_pair_admit_and_complete_by_request() {
        let ev = |ts, kind, a, b| Event {
            ts,
            kind,
            core: 9,
            a,
            b,
            c: 0,
        };
        let report = TelemetryReport {
            events: vec![
                ev(10, EventKind::ReqArrive, 1, 1),
                ev(11, EventKind::ReqAdmit, 1, 1),
                ev(20, EventKind::ReqArrive, 2, 1),
                ev(21, EventKind::ReqShed, 2, 2),
                ev(511, EventKind::ReqComplete, 1, 37),
            ],
            ..TelemetryReport::empty()
        };
        let graph = ObservedGraph::from_report(&report);
        let count =
            |keep: fn(&ObsRequest) -> bool| graph.requests.iter().filter(|r| keep(r)).count();
        assert_eq!(count(|r| r.arrived.is_some()), 2);
        assert_eq!(count(|r| r.admitted.is_some()), 1);
        assert_eq!(count(|r| r.shed), 1);
        assert_eq!(count(|r| r.completed.is_some()), 1);
        let latency = graph.latency();
        assert_eq!(latency.count(), 1);
        assert_eq!(latency.max(), 500);
        let row = graph.request(1).expect("request 1 row");
        assert_eq!(row.invocations, 37);
        assert_eq!(row.arrived, Some(10));
        assert!(graph.request(3).is_none());
        assert_eq!(graph.completed_requests(), vec![1]);
    }
}
