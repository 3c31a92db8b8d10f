//! A metrics registry cheap enough to leave compiled in.
//!
//! Three metric shapes:
//!
//! * [`Counter`] — monotonically increasing `u64` (atomic add);
//! * [`Gauge`] — last-write-wins `i64` (atomic store);
//! * [`Histogram`] — log-2 bucketed value distribution (one atomic add
//!   per recorded value, no allocation).
//!
//! Plus [`Series`], an append-only numeric sequence for low-volume
//! trajectories (e.g. the DSA best-cost curve) where order matters.
//!
//! Handles obtained from a *disabled* [`crate::Telemetry`] carry `None`
//! inside and compile down to a branch on a niche-optimized option —
//! recording through them is a no-op with no atomic traffic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the underlying
/// cell. A default-constructed counter is a detached no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    pub(crate) fn live(cell: Arc<AtomicU64>) -> Self {
        Counter(Some(cell))
    }

    /// A counter that records nothing.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// A live counter registered under no name.
    pub fn detached() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op counter).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins signed gauge. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    pub(crate) fn live(cell: Arc<AtomicI64>) -> Self {
        Gauge(Some(cell))
    }

    /// A gauge that records nothing.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn adjust(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op gauge).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Number of log-2 buckets: values 0, 1, 2-3, 4-7, ... up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    pub(crate) fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        let idx = bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Bucket index for value `v`: bucket 0 holds 0, bucket `i` (i ≥ 1)
/// holds values in `[2^(i-1), 2^i)`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `idx` (see [`bucket_index`]).
pub fn bucket_floor(idx: u32) -> u64 {
    if idx == 0 {
        0
    } else {
        1u64 << (idx - 1)
    }
}

/// A log-2 bucketed histogram handle. Cloning shares the underlying
/// cell.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    pub(crate) fn live(cell: Arc<HistogramCell>) -> Self {
        Histogram(Some(cell))
    }

    /// A histogram that records nothing.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.record(v);
        }
    }
}

/// An append-only numeric series (ordered, low volume — each append may
/// allocate, so keep these off hot paths).
#[derive(Clone, Debug, Default)]
pub struct Series(Option<Arc<Mutex<Vec<u64>>>>);

impl Series {
    pub(crate) fn live(cell: Arc<Mutex<Vec<u64>>>) -> Self {
        Series(Some(cell))
    }

    /// A series that records nothing.
    pub fn noop() -> Self {
        Series(None)
    }

    /// Appends one point.
    pub fn push(&self, v: u64) {
        if let Some(cell) = &self.0 {
            if let Ok(mut vec) = cell.lock() {
                vec.push(v);
            }
        }
    }

    /// Appends every point of `vs`.
    pub fn extend(&self, vs: &[u64]) {
        if let Some(cell) = &self.0 {
            if let Ok(mut vec) = cell.lock() {
                vec.extend_from_slice(vs);
            }
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty `(bucket_index, count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the floor of the bucket
    /// containing the `q`-th ranked observation.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        bucket_floor(self.buckets.last().map_or(0, |&(i, _)| i))
    }
}

/// Point-in-time copy of every metric in a registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Series contents by name.
    pub series: BTreeMap<String, Vec<u64>>,
}

/// Named metric storage. Registration (name lookup/insert) takes a lock
/// and may allocate; do it once at setup and hold on to the returned
/// handle — recording through a handle is lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    series: Mutex<BTreeMap<String, Arc<Mutex<Vec<u64>>>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it if needed.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("metrics registry");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter::live(cell)
    }

    /// Returns the gauge named `name`, creating it if needed.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("metrics registry");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)))
            .clone();
        Gauge::live(cell)
    }

    /// Returns the histogram named `name`, creating it if needed.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("metrics registry");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCell::new()))
            .clone();
        Histogram::live(cell)
    }

    /// Returns the series named `name`, creating it if needed.
    pub fn series(&self, name: &str) -> Series {
        let mut map = self.series.lock().expect("metrics registry");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(Vec::new())))
            .clone();
        Series::live(cell)
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let series = self
            .series
            .lock()
            .expect("metrics registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.lock().expect("series").clone()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("dispatch");
        let b = reg.counter("dispatch");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("dispatch").get(), 5);
        assert_eq!(reg.snapshot().counters["dispatch"], 5);
    }

    #[test]
    fn noop_handles_record_nothing() {
        let c = Counter::noop();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(7);
        assert_eq!(g.get(), 0);
        Histogram::noop().record(3);
        Series::noop().push(3);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(3), 4);
    }

    #[test]
    fn histogram_quantiles_are_bucket_floors() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [1u64, 2, 2, 3, 900] {
            h.record(v);
        }
        let snap = &reg.snapshot().histograms["lat"];
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 908);
        assert_eq!(snap.quantile(0.5), 2); // 3rd ranked value is 2 → bucket [2,4)
        assert_eq!(snap.quantile(1.0), 512); // 900 lands in [512,1024)
        assert!((snap.mean() - 181.6).abs() < 1e-9);
    }

    #[test]
    fn gauges_and_series() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(3);
        g.adjust(-1);
        assert_eq!(g.get(), 2);
        let s = reg.series("traj");
        s.push(10);
        s.extend(&[9, 8]);
        assert_eq!(reg.snapshot().series["traj"], vec![10, 9, 8]);
    }
}
