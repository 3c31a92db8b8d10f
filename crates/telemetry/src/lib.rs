#![warn(missing_docs)]

//! # bamboo-telemetry
//!
//! Low-overhead observability for the Bamboo runtime, scheduler, and
//! DSA optimizer, designed to stay compiled in:
//!
//! * **Event recording** — each worker owns a preallocated
//!   [`ring::EventRing`] and records fixed-size [`Event`]s (task
//!   dispatch start/end, lock acquire/fail/retry, object send/receive
//!   with byte counts, queue-depth samples) with no locks and no
//!   allocation on the hot path.
//! * **Metrics** — a [`metrics::MetricsRegistry`] of atomic counters,
//!   gauges, and series.
//! * **Exporters** — Chrome `chrome://tracing` JSON ([`chrome`],
//!   including predicted-vs-observed side-by-side rendering of
//!   [`bamboo_schedule::trace::ExecutionTrace`]) and metrics JSON dumps
//!   ([`summary`]).
//! * **Analysis** — one fold over the event stream and one per-core
//!   ledger walk, with every diagnosis a view over them ([`analyze`]).
//!
//! The cost contract: [`Telemetry::disabled`] hands out sinks and
//! metric handles that are `None` inside, so every recording call is a
//! single pattern-match on a niche-optimized `Option` — no atomics, no
//! branches into cold code, and **zero heap allocation**, verifiable
//! via [`Telemetry::heap_allocations`].
//!
//! # Examples
//!
//! ```
//! use bamboo_telemetry::{Telemetry, TimeUnit};
//!
//! let telemetry = Telemetry::enabled(2);
//! telemetry.set_time_unit(TimeUnit::Cycles);
//! let dispatches = telemetry.counter("runtime.dispatches");
//! let mut worker = telemetry.worker(0);
//! worker.task_start(100, 3, 0, 0);
//! worker.task_end(180, 3, 0, 0);
//! dispatches.inc();
//! drop(worker); // submits the worker's ring
//! let report = telemetry.report();
//! assert_eq!(report.events.len(), 2);
//! assert_eq!(report.metrics.counters["runtime.dispatches"], 1);
//! ```

pub mod analyze;
pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod report;
pub mod ring;
pub mod scope;
pub mod summary;

pub use event::{Event, EventKind, Timestamp, NO_ID};
pub use metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot, Series};
pub use report::TelemetryReport;
pub use scope::{ScopeConfig, ScopeHandle, ScopeRecorder, ScopeSnapshot};

use bamboo_schedule::dsa::DsaStats;
use ring::EventRing;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-worker ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Time base of a session's timestamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TimeUnit {
    /// Wall-clock nanoseconds since session creation (threaded executor).
    #[default]
    Nanos,
    /// Virtual cycles (virtual executor, scheduling simulator).
    Cycles,
}

#[derive(Debug)]
struct Inner {
    cores: usize,
    ring_capacity: usize,
    unit: AtomicU8,
    start: Instant,
    rings: Mutex<Vec<EventRing>>,
    metrics: MetricsRegistry,
    /// Heap allocations performed *by telemetry itself* (ring and
    /// metric-handle setup). Recording events never increments this.
    allocations: AtomicU64,
}

/// Handle to one recording session. Cloning is cheap (an `Arc` bump)
/// and every clone feeds the same session.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A live session for `cores` workers with the default per-worker
    /// ring capacity.
    pub fn enabled(cores: usize) -> Self {
        Self::with_capacity(cores, DEFAULT_RING_CAPACITY)
    }

    /// A live session with an explicit per-worker ring capacity.
    pub fn with_capacity(cores: usize, ring_capacity: usize) -> Self {
        let inner = Inner {
            cores,
            ring_capacity: ring_capacity.max(1),
            unit: AtomicU8::new(TimeUnit::Nanos as u8),
            start: Instant::now(),
            rings: Mutex::new(Vec::with_capacity(cores + 4)),
            metrics: MetricsRegistry::new(),
            allocations: AtomicU64::new(0),
        };
        Telemetry {
            inner: Some(Arc::new(inner)),
        }
    }

    /// The no-op session: every sink and handle it hands out records
    /// nothing and allocates nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this session records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Declares the time base recorded timestamps are in. Executors
    /// call this once before recording; exporters read it to scale
    /// timestamps.
    pub fn set_time_unit(&self, unit: TimeUnit) {
        if let Some(inner) = &self.inner {
            inner.unit.store(unit as u8, Ordering::Relaxed);
        }
    }

    /// The session's time base.
    pub fn time_unit(&self) -> TimeUnit {
        match self.inner.as_ref().map(|i| i.unit.load(Ordering::Relaxed)) {
            Some(u) if u == TimeUnit::Cycles as u8 => TimeUnit::Cycles,
            _ => TimeUnit::Nanos,
        }
    }

    /// Nanoseconds since session creation (0 when disabled).
    #[inline]
    pub fn now(&self) -> Timestamp {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_nanos() as Timestamp,
            None => 0,
        }
    }

    /// Creates the event sink for worker `core`. Allocates the worker's
    /// ring up front (counted in [`Self::heap_allocations`]); recording
    /// through the sink never allocates. Dropping the sink submits its
    /// ring back to the session.
    pub fn worker(&self, core: usize) -> WorkerSink {
        match &self.inner {
            Some(inner) => {
                inner.allocations.fetch_add(1, Ordering::Relaxed);
                WorkerSink {
                    inner: Some(Arc::clone(inner)),
                    ring: Some(EventRing::new(core as u32, inner.ring_capacity)),
                    start: inner.start,
                }
            }
            None => WorkerSink::disabled(),
        }
    }

    /// The counter named `name` (a shared no-op when disabled).
    /// Registration may allocate; call at setup, not per task.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => {
                inner.allocations.fetch_add(1, Ordering::Relaxed);
                inner.metrics.counter(name)
            }
            None => Counter::noop(),
        }
    }

    /// The counter named `name`, or a [`Counter::detached`] one when
    /// disabled: for a fact its caller reports either way, so one cell
    /// serves both the report and the named metric.
    pub fn tally(&self, name: &str) -> Counter {
        if self.is_enabled() {
            self.counter(name)
        } else {
            Counter::detached()
        }
    }

    /// The gauge named `name` (a shared no-op when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => {
                inner.allocations.fetch_add(1, Ordering::Relaxed);
                inner.metrics.gauge(name)
            }
            None => Gauge::noop(),
        }
    }

    /// The series named `name` (a shared no-op when disabled).
    pub fn series(&self, name: &str) -> Series {
        match &self.inner {
            Some(inner) => {
                inner.allocations.fetch_add(1, Ordering::Relaxed);
                inner.metrics.series(name)
            }
            None => Series::noop(),
        }
    }

    /// Heap allocations telemetry has performed on this session's
    /// behalf (ring creation + metric registrations). Always 0 for a
    /// disabled session — this is the hook the runtime's overhead-guard
    /// test asserts on.
    pub fn heap_allocations(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.allocations.load(Ordering::Relaxed))
    }

    /// Records a DSA optimizer run: iteration/simulation counts,
    /// pruning acceptance rate, and the best-cost trajectory.
    pub fn record_dsa(&self, stats: &DsaStats) {
        if !self.is_enabled() {
            return;
        }
        self.counter("dsa.iterations").add(stats.iterations as u64);
        self.counter("dsa.simulations")
            .add(stats.simulations as u64);
        self.counter("dsa.candidates_evaluated")
            .add(stats.candidates_evaluated as u64);
        self.counter("dsa.survivors").add(stats.survivors as u64);
        self.counter("dsa.cache_hits").add(stats.cache_hits as u64);
        self.counter("dsa.cache_misses")
            .add(stats.cache_misses as u64);
        self.counter("dsa.cache_evictions")
            .add(stats.cache_evictions as u64);
        self.gauge("dsa.best_makespan")
            .set(stats.best_makespan as i64);
        self.gauge("dsa.acceptance_rate_pct")
            .set((stats.acceptance_rate() * 100.0).round() as i64);
        self.gauge("dsa.cache_hit_rate_pct")
            .set((stats.cache_hit_rate() * 100.0).round() as i64);
        self.series("dsa.best_makespan_trajectory")
            .extend(&stats.trajectory);
    }

    /// Merges every submitted ring into one ordered [`TelemetryReport`]
    /// and snapshots the metrics. Drop (or [`WorkerSink::submit`]) all
    /// sinks first — rings still held by live sinks are not included.
    pub fn report(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::empty();
        };
        let rings: Vec<EventRing> = match inner.rings.lock() {
            Ok(mut rings) => rings.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        let mut dropped = 0;
        let mut covered_from = 0;
        let mut events: Vec<Event> = Vec::new();
        for ring in rings {
            let overwritten = ring.dropped();
            let kept = ring.drain_ordered();
            if overwritten > 0 {
                dropped += overwritten;
                covered_from = covered_from.max(kept.first().map_or(0, |e| e.ts));
            }
            events.extend(kept);
        }
        events.sort_by_key(|e| (e.ts, e.core));
        // Cut every core to the window all rings still cover, so no
        // analysis sees one core's history without the others'.
        let cut = events.partition_point(|e| e.ts < covered_from);
        events.drain(..cut);
        dropped += cut as u64;
        TelemetryReport {
            unit: self.time_unit(),
            wall_ns: inner.start.elapsed().as_nanos() as u64,
            cores: inner.cores,
            events,
            dropped,
            covered_from,
            metrics: inner.metrics.snapshot(),
        }
    }
}

/// A worker-owned event sink. Not `Clone` — exclusive ownership is what
/// makes recording lock-free. Recording into a disabled sink is a no-op.
#[derive(Debug)]
pub struct WorkerSink {
    inner: Option<Arc<Inner>>,
    ring: Option<EventRing>,
    start: Instant,
}

impl WorkerSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        WorkerSink {
            inner: None,
            ring: None,
            start: Instant::now(),
        }
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Nanoseconds since the owning session's creation. Returns 0 when
    /// disabled, so callers can pass it straight through without
    /// guarding (the recording call is a no-op anyway).
    #[inline]
    pub fn now(&self) -> Timestamp {
        if self.inner.is_some() {
            self.start.elapsed().as_nanos() as Timestamp
        } else {
            0
        }
    }

    #[inline]
    fn push(&mut self, ts: Timestamp, kind: EventKind, a: u64, b: u64, c: u64) {
        if let Some(ring) = &mut self.ring {
            let core = ring.core();
            ring.push(Event {
                ts,
                kind,
                core,
                a,
                b,
                c,
            });
        }
    }

    /// Records a task body starting (`inv` is the invocation id minted
    /// at formation; pass [`NO_ID`] when the executor has none).
    #[inline]
    pub fn task_start(&mut self, ts: Timestamp, task: u64, instance: u64, inv: u64) {
        self.push(ts, EventKind::TaskStart, task, instance, inv);
    }

    /// Records a task body finishing.
    #[inline]
    pub fn task_end(&mut self, ts: Timestamp, task: u64, instance: u64, inv: u64) {
        self.push(ts, EventKind::TaskEnd, task, instance, inv);
    }

    /// Records a successful parameter-lock acquisition after `retries`
    /// failed attempts.
    #[inline]
    pub fn lock_acquired(&mut self, ts: Timestamp, classes: u64, retries: u64, inv: u64) {
        self.push(ts, EventKind::LockAcquired, classes, retries, inv);
    }

    /// Records a failed try-lock-all attempt (the invocation re-queues).
    #[inline]
    pub fn lock_failed(&mut self, ts: Timestamp, classes: u64, task: u64, inv: u64) {
        self.push(ts, EventKind::LockFailed, classes, task, inv);
    }

    /// Records an object send of `bytes` toward `dest_core`; `msg` is
    /// the message id the matching receive will carry ([`NO_ID`] when
    /// the executor does not track messages).
    #[inline]
    pub fn obj_send(&mut self, ts: Timestamp, bytes: u64, dest_core: u64, msg: u64) {
        self.push(ts, EventKind::ObjSend, bytes, dest_core, msg);
    }

    /// Records an object receive of `bytes` from `src_core`
    /// ([`NO_ID`] when the source is unknown).
    #[inline]
    pub fn obj_recv(&mut self, ts: Timestamp, bytes: u64, src_core: u64, msg: u64) {
        self.push(ts, EventKind::ObjRecv, bytes, src_core, msg);
    }

    /// Records a queue occupancy sample.
    #[inline]
    pub fn queue_depth(&mut self, ts: Timestamp, queued: u64, ready: u64) {
        self.push(ts, EventKind::QueueDepth, queued, ready, 0);
    }

    /// Records the formation of invocation `inv` of `task` at
    /// `instance`: the queue-enter timestamp the analysis layer pairs
    /// with the eventual [`EventKind::TaskStart`] to measure queue
    /// wait. `request` is the serving request the invocation belongs to
    /// (0 for batch runs); it is packed into the high 32 bits of the
    /// instance word (see [`event::pack_inv_request`]) so request
    /// attribution costs no extra event.
    #[inline]
    pub fn inv_queued(&mut self, ts: Timestamp, inv: u64, instance: u64, task: u64, request: u64) {
        self.push(
            ts,
            EventKind::InvQueued,
            inv,
            event::pack_inv_request(instance, request),
            task,
        );
    }

    /// Records one causal edge: invocation `inv` consumed an object
    /// released/created by `producer` ([`NO_ID`] for the startup
    /// object), delivered by message `msg`.
    #[inline]
    pub fn inv_link(&mut self, ts: Timestamp, inv: u64, producer: u64, msg: u64) {
        self.push(ts, EventKind::InvLink, inv, producer, msg);
    }

    /// Records that invocation `inv` was stolen from `victim`'s run
    /// queue by this worker.
    #[inline]
    pub fn steal(&mut self, ts: Timestamp, inv: u64, victim: u64) {
        self.push(ts, EventKind::Steal, inv, victim, 0);
    }

    /// Records an injected fault firing (`fault.*` namespace): `code`
    /// is one of [`event::fault_code`], `detail` is code-specific, and
    /// `id` the message/invocation hit ([`NO_ID`] for core faults).
    #[inline]
    pub fn fault(&mut self, ts: Timestamp, code: u64, detail: u64, id: u64) {
        self.push(ts, EventKind::Fault, code, detail, id);
    }

    /// Records a completed recovery action (`recover.*` namespace):
    /// `code` is one of [`event::recover_code`].
    #[inline]
    pub fn recover(&mut self, ts: Timestamp, code: u64, detail: u64, id: u64) {
        self.push(ts, EventKind::Recover, code, detail, id);
    }

    /// Records a serving request arriving at the ingress; `source` is
    /// one of [`event::arrival_source`].
    #[inline]
    pub fn req_arrive(&mut self, ts: Timestamp, request: u64, source: u64) {
        self.push(ts, EventKind::ReqArrive, request, source, 0);
    }

    /// Records a serving request passing admission; `batch` is the
    /// number of requests injected in the same micro-batch tick.
    #[inline]
    pub fn req_admit(&mut self, ts: Timestamp, request: u64, batch: u64) {
        self.push(ts, EventKind::ReqAdmit, request, batch, 0);
    }

    /// Records a serving request shed at admission; `reason` is one of
    /// [`event::shed_reason`].
    #[inline]
    pub fn req_shed(&mut self, ts: Timestamp, request: u64, reason: u64) {
        self.push(ts, EventKind::ReqShed, request, reason, 0);
    }

    /// Records a serving request completing (its outstanding-invocation
    /// refcount reached zero); `invocations` is the request's executed
    /// invocation count.
    #[inline]
    pub fn req_complete(&mut self, ts: Timestamp, request: u64, invocations: u64) {
        self.push(ts, EventKind::ReqComplete, request, invocations, 0);
    }

    /// Records a hot-relayout drain at a migrated instance's old host
    /// (`relayout.*` namespace): `epoch` is the layout epoch that took
    /// effect, `instance` the migrated instance, `drained` the buffered
    /// objects re-sent to the new host.
    #[inline]
    pub fn relayout(&mut self, ts: Timestamp, epoch: u64, instance: u64, drained: u64) {
        self.push(ts, EventKind::Relayout, epoch, instance, drained);
    }

    /// Submits the ring back to the session explicitly (Drop does the
    /// same; this form makes the handoff visible at call sites).
    pub fn submit(mut self) {
        self.submit_ring();
    }

    fn submit_ring(&mut self) {
        if let (Some(inner), Some(ring)) = (self.inner.take(), self.ring.take()) {
            // `if let Ok` rather than unwrap: submitting from a worker
            // unwinding after a panic must not abort via double panic.
            if let Ok(mut rings) = inner.rings.lock() {
                rings.push(ring);
            }
        }
    }
}

impl Drop for WorkerSink {
    fn drop(&mut self) {
        self.submit_ring();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_session_is_fully_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        let mut sink = telemetry.worker(0);
        assert!(!sink.is_enabled());
        sink.task_start(1, 0, 0, 0);
        sink.task_end(2, 0, 0, 0);
        telemetry.counter("x").add(5);
        telemetry.record_dsa(&DsaStats::default());
        drop(sink);
        let report = telemetry.report();
        assert!(report.events.is_empty());
        assert!(report.metrics.counters.is_empty());
        assert_eq!(telemetry.heap_allocations(), 0);
    }

    #[test]
    fn events_merge_ordered_across_workers() {
        let telemetry = Telemetry::with_capacity(2, 128);
        telemetry.set_time_unit(TimeUnit::Cycles);
        let mut w0 = telemetry.worker(0);
        let mut w1 = telemetry.worker(1);
        w1.task_start(5, 1, 0, 0);
        w0.task_start(2, 0, 0, 0);
        w0.task_end(4, 0, 0, 0);
        w1.task_end(9, 1, 0, 0);
        w0.submit();
        drop(w1);
        let report = telemetry.report();
        assert_eq!(report.unit, TimeUnit::Cycles);
        let ts: Vec<u64> = report.events.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 4, 5, 9]);
        assert_eq!(report.active_cores(), vec![0, 1]);
        assert_eq!(report.dropped, 0);
        // Nothing dropped, nothing cut: the ledger starts at 0.
        assert_eq!(report.covered_from, 0);
        assert_eq!(analyze::Ledger::from_report(&report).start, 0);
    }

    #[test]
    fn sinks_record_across_threads() {
        let telemetry = Telemetry::enabled(4);
        let handles: Vec<_> = (0..4)
            .map(|core| {
                let t = telemetry.clone();
                std::thread::spawn(move || {
                    let mut sink = t.worker(core);
                    for i in 0..100 {
                        sink.task_start(i * 10, i, 0, i);
                        sink.task_end(i * 10 + 5, i, 0, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = telemetry.report();
        assert_eq!(report.events.len(), 4 * 200);
        assert_eq!(report.active_cores().len(), 4);
    }

    #[test]
    fn allocations_are_setup_only() {
        let telemetry = Telemetry::with_capacity(2, 64);
        let before_workers = telemetry.heap_allocations();
        assert_eq!(before_workers, 0);
        let mut w0 = telemetry.worker(0);
        let c = telemetry.counter("dispatches");
        let after_setup = telemetry.heap_allocations();
        assert_eq!(after_setup, 2);
        for i in 0..10_000u64 {
            w0.task_start(i, 0, 0, 0);
            w0.task_end(i, 0, 0, 0);
            c.inc();
        }
        // Recording 20k events through a 64-slot ring allocated nothing.
        assert_eq!(telemetry.heap_allocations(), after_setup);
        drop(w0);
        let report = telemetry.report();
        assert!(report.dropped > 0);
    }

    /// One ring wraps and the other does not: the report keeps only
    /// the window both cover, and the ledger partitions that window
    /// instead of charging the lost prefix to whatever the wrapped
    /// core's first retained event names.
    #[test]
    fn a_wrapped_ring_cuts_every_core_to_the_covered_window() {
        let telemetry = Telemetry::with_capacity(2, 64);
        telemetry.set_time_unit(TimeUnit::Cycles);
        let mut w0 = telemetry.worker(0);
        let mut w1 = telemetry.worker(1);
        // Core 0: 50 bodies of 5 cycles every 10; 100 events into 64
        // slots, so the ring keeps bodies 18..50 (from cycle 180).
        for i in 0..50 {
            w0.task_start(10 * i, 0, 0, i);
            w0.task_end(10 * i + 5, 0, 0, i);
        }
        // Core 1: one body before the covered window, one inside it.
        w1.task_start(0, 1, 0, 100);
        w1.task_end(100, 1, 0, 100);
        w1.obj_recv(150, 64, 0, 7);
        w1.task_start(200, 1, 0, 101);
        w1.task_end(400, 1, 0, 101);
        drop((w0, w1));
        let report = telemetry.report();
        assert_eq!(report.covered_from, 180);
        assert!(report.events.iter().all(|e| e.ts >= report.covered_from));
        assert_eq!(report.dropped, 36 + 3, "overwritten plus cut");
        // By hand, over [180, 495]: core 0 computes 32 bodies of 5 and
        // waits 5 before each but the first; core 1 waits 20, computes
        // 200 and idles from 400.
        let ledger = analyze::Ledger::from_report(&report);
        assert_eq!((ledger.start, ledger.span), (180, 315));
        let buckets = |row: &analyze::CoreLedger| (row.compute, row.queue_wait, row.idle);
        assert_eq!(buckets(&ledger.cores[0]), (160, 155, 0));
        assert_eq!(buckets(&ledger.cores[1]), (200, 20, 95));
        for row in &ledger.cores {
            assert_eq!(row.total(), ledger.span);
        }
    }

    #[test]
    fn dsa_stats_land_in_metrics() {
        let telemetry = Telemetry::enabled(1);
        let stats = DsaStats {
            iterations: 7,
            simulations: 30,
            candidates_evaluated: 40,
            survivors: 22,
            cache_hits: 6,
            cache_misses: 30,
            delta_hits: 0,
            cache_evictions: 2,
            trajectory: vec![900, 700, 650],
            best_makespan: 650,
        };
        telemetry.record_dsa(&stats);
        let m = telemetry.report().metrics;
        assert_eq!(m.counters["dsa.iterations"], 7);
        assert_eq!(m.counters["dsa.simulations"], 30);
        assert_eq!(m.counters["dsa.cache_hits"], 6);
        assert_eq!(m.counters["dsa.cache_misses"], 30);
        assert_eq!(m.counters["dsa.cache_evictions"], 2);
        assert_eq!(m.gauges["dsa.best_makespan"], 650);
        assert_eq!(m.gauges["dsa.acceptance_rate_pct"], 55);
        assert_eq!(m.gauges["dsa.cache_hit_rate_pct"], 17);
        assert_eq!(
            m.series["dsa.best_makespan_trajectory"],
            vec![900, 700, 650]
        );
    }
}
