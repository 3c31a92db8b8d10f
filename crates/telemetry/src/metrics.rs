//! A metrics registry cheap enough to leave compiled in.
//!
//! Two metric shapes:
//!
//! * [`Counter`] — monotonically increasing `u64` (atomic add);
//! * [`Gauge`] — last-write-wins `i64` (atomic store).
//!
//! Plus [`Series`], an append-only numeric sequence for low-volume
//! trajectories (e.g. the DSA best-cost curve) where order matters.
//! Latency distributions are not recorded here: they are derived from
//! the event stream into a
//! [`LatencyHistogram`](crate::analyze::LatencyHistogram).
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

    /// Current value (0 for a no-op gauge).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
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

/// Point-in-time copy of every metric in a registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
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
        Series::noop().push(3);
    }

    #[test]
    fn gauges_and_series() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(3);
        assert_eq!(g.get(), 3);
        let s = reg.series("traj");
        s.push(10);
        s.extend(&[9, 8]);
        assert_eq!(reg.snapshot().series["traj"], vec![10, 9, 8]);
    }
}
