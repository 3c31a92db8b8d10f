//! bamboo-scope: the live observability plane for resident deployments.
//!
//! Event rings are drained *after* a run ([`crate::Telemetry::report`]
//! is destructive), so a resident serving deployment would be a black
//! box while it is live. This module closes that gap: the serving
//! driver — which already sees every request lifecycle transition
//! (arrive, admit, shed, complete) — feeds a shared [`ScopeRecorder`],
//! and any number of [`ScopeHandle`] clones snapshot it on demand
//! while traffic is still flowing.
//!
//! Three concerns, all bounded-memory and O(1) per request:
//!
//! * **Sliding-window live metrics** — tumbling windows of
//!   [`ScopeConfig::window`] width, each carrying counters and a
//!   [`LatencyHistogram`]; snapshots expose per-window p50/p99/p999,
//!   throughput, shed rate, and SLO burn-rate (the fraction of the
//!   error budget the window consumed, so `> 1.0` means the SLO is
//!   burning faster than sustainable).
//! * **Tail-based sampling** — per window the recorder keeps the
//!   slowest-K completed request ids, every shed request id (capped),
//!   and a seeded reservoir of the rest. Full span trees (see
//!   [`crate::analyze::scope`]) are materialized *only* for sampled
//!   ids, so tracing overhead stays bounded at high rps.
//! * **Deterministic exports** — [`ScopeSnapshot::to_json`] and
//!   [`ScopeSnapshot::to_prometheus`] render from integers and seeded
//!   decisions only; under stepped pacing (virtual clock) snapshots
//!   are byte-identical across thread counts.
//!
//! Timestamps are microseconds on whatever clock the feeder chooses:
//! the serving driver uses its virtual arrival clock under
//! `Pacing::Stepped` (deterministic) and wall time since start under
//! `Pacing::Wall`. Latencies are arrival→completion, so they include
//! micro-batching delay (unlike the admit→complete latencies in
//! `ServingReport`).

use crate::analyze::serving::LatencyHistogram;
use crate::json::write_f64;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Closed windows retained for snapshots (older ones roll off).
const WINDOWS_KEPT: usize = 8;

/// Slowest completed requests sampled per window.
pub const SLOW_K: usize = 4;

/// Reservoir size for non-tail completed requests per window.
pub const RESERVOIR: usize = 4;

/// Shed/errored request ids sampled per window (the rest are counted
/// but not sampled).
const SHED_CAP: usize = 16;

/// Seed of the reservoir's splitmix64 stream (decisions are a pure
/// function of the seed and arrival order).
const SAMPLE_SEED: u64 = 0x0005_c09e_5eed;

/// Configuration of the live scope plane.
#[derive(Clone, Debug)]
pub struct ScopeConfig {
    /// Tumbling window width.
    pub window: Duration,
    /// Latency SLO threshold in microseconds; 0 disables burn-rate
    /// tracking.
    pub slo_us: u64,
    /// SLO attainment target (e.g. 0.999 = p999 under `slo_us`); the
    /// error budget is `1 - slo_target`.
    pub slo_target: f64,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            window: Duration::from_secs(1),
            slo_us: 0,
            slo_target: 0.999,
        }
    }
}

impl ScopeConfig {
    /// Sets the tumbling window width.
    pub fn with_window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }

    /// Sets the latency SLO: `slo_us` threshold and attainment target
    /// (error budget = `1 - target`).
    pub fn with_slo(mut self, slo_us: u64, target: f64) -> Self {
        self.slo_us = slo_us;
        self.slo_target = target.clamp(0.0, 1.0 - 1e-9);
        self
    }

    fn window_us(&self) -> u64 {
        (self.window.as_micros() as u64).max(1)
    }
}

/// Why a request was sampled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleReason {
    /// Among the slowest-K completions of its window.
    Slow,
    /// Shed at admission (always interesting).
    Shed,
    /// Picked by the seeded reservoir.
    Reservoir,
}

impl SampleReason {
    /// Short stable label (exports, check names).
    pub fn label(self) -> &'static str {
        match self {
            SampleReason::Slow => "slow",
            SampleReason::Shed => "shed",
            SampleReason::Reservoir => "reservoir",
        }
    }
}

/// One sampled request: the ids span trees get materialized for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampledRequest {
    /// Request id.
    pub request: u64,
    /// Arrival→completion latency in µs (0 for shed requests).
    pub latency_us: u64,
    /// Why it was kept.
    pub reason: SampleReason,
    /// Index of the window it completed (or was shed) in.
    pub window: u64,
}

#[derive(Clone, Debug, Default)]
struct Window {
    index: u64,
    start_us: u64,
    arrivals: u64,
    admitted: u64,
    shed: u64,
    completed: u64,
    invocations: u64,
    slo_violations: u64,
    latency: LatencyHistogram,
    /// The K largest (latency, request) pairs, ascending by latency.
    slow: Vec<(u64, u64)>,
    /// Seeded reservoir over completions (latency, request).
    reservoir: Vec<(u64, u64)>,
    reservoir_seen: u64,
    shed_ids: Vec<u64>,
    shed_dropped: u64,
}

struct ScopeState {
    config: ScopeConfig,
    window_us: u64,
    current: Window,
    closed: VecDeque<Window>,
    /// In-flight requests: (request, arrive_us), sorted by request id.
    pending: Vec<(u64, u64)>,
    sampled: Vec<SampledRequest>,
    totals: Window,
    rng: u64,
}

/// Appends one window's sample picks (slowest-K descending, then shed,
/// then reservoir minus slow duplicates) to `out`.
fn finalize_window_samples(w: &Window, out: &mut Vec<SampledRequest>) {
    for &(latency_us, request) in w.slow.iter().rev() {
        out.push(SampledRequest {
            request,
            latency_us,
            reason: SampleReason::Slow,
            window: w.index,
        });
    }
    for &request in &w.shed_ids {
        out.push(SampledRequest {
            request,
            latency_us: 0,
            reason: SampleReason::Shed,
            window: w.index,
        });
    }
    for &(latency_us, request) in &w.reservoir {
        if w.slow.iter().any(|&(_, r)| r == request) {
            continue;
        }
        out.push(SampledRequest {
            request,
            latency_us,
            reason: SampleReason::Reservoir,
            window: w.index,
        });
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ScopeState {
    fn roll(&mut self, now_us: u64) {
        if now_us < self.current.start_us + self.window_us {
            return;
        }
        let closed = std::mem::take(&mut self.current);
        self.finalize_samples(&closed);
        self.closed.push_back(closed);
        while self.closed.len() > WINDOWS_KEPT {
            self.closed.pop_front();
        }
        // Jump straight to the window containing `now` — idle gaps do
        // not materialize empty windows.
        let start = now_us / self.window_us * self.window_us;
        self.current = Window {
            index: start / self.window_us,
            start_us: start,
            ..Window::default()
        };
        // Sampled spans of windows that rolled off are dropped too.
        let oldest = self.closed.front().map_or(self.current.index, |w| w.index);
        self.sampled.retain(|s| s.window >= oldest);
    }

    /// Turns a window's provisional sample sets into final
    /// [`SampledRequest`] rows (slowest-K win over the reservoir).
    fn finalize_samples(&mut self, w: &Window) {
        finalize_window_samples(w, &mut self.sampled);
    }

    fn arrive(&mut self, now_us: u64, request: u64) {
        self.roll(now_us);
        self.current.arrivals += 1;
        self.totals.arrivals += 1;
        if let Err(pos) = self.pending.binary_search_by_key(&request, |&(r, _)| r) {
            self.pending.insert(pos, (request, now_us));
        }
    }

    fn admit(&mut self, now_us: u64, request: u64) {
        self.roll(now_us);
        let _ = request;
        self.current.admitted += 1;
        self.totals.admitted += 1;
    }

    fn shed(&mut self, now_us: u64, request: u64) {
        self.roll(now_us);
        self.current.shed += 1;
        self.totals.shed += 1;
        if let Ok(pos) = self.pending.binary_search_by_key(&request, |&(r, _)| r) {
            self.pending.remove(pos);
        }
        if self.current.shed_ids.len() < SHED_CAP {
            self.current.shed_ids.push(request);
        } else {
            self.current.shed_dropped += 1;
        }
    }

    fn complete(&mut self, now_us: u64, request: u64, invocations: u64) {
        self.roll(now_us);
        let arrive_us = match self.pending.binary_search_by_key(&request, |&(r, _)| r) {
            Ok(pos) => self.pending.remove(pos).1,
            Err(_) => now_us, // lifecycle started before scope attached
        };
        let latency_us = now_us.saturating_sub(arrive_us);
        let w = &mut self.current;
        w.completed += 1;
        w.invocations += invocations;
        w.latency.record(latency_us);
        self.totals.completed += 1;
        self.totals.invocations += invocations;
        self.totals.latency.record(latency_us);
        if self.config.slo_us > 0 && latency_us > self.config.slo_us {
            w.slo_violations += 1;
            self.totals.slo_violations += 1;
        }
        // Slowest-K: keep the K largest, ascending.
        let pos = w
            .slow
            .partition_point(|&(l, r)| (l, r) < (latency_us, request));
        if w.slow.len() < SLOW_K {
            w.slow.insert(pos, (latency_us, request));
        } else if pos > 0 {
            w.slow.insert(pos, (latency_us, request));
            w.slow.remove(0);
        }
        // Seeded reservoir over all completions of the window.
        w.reservoir_seen += 1;
        if w.reservoir.len() < RESERVOIR {
            w.reservoir.push((latency_us, request));
        } else {
            let j = splitmix64(&mut self.rng) % w.reservoir_seen;
            if (j as usize) < w.reservoir.len() {
                w.reservoir[j as usize] = (latency_us, request);
            }
        }
    }

    fn snapshot(&self) -> ScopeSnapshot {
        let mut windows: Vec<WindowSnapshot> = self
            .closed
            .iter()
            .map(|w| WindowSnapshot::of(w, &self.config, self.window_us))
            .collect();
        // The live (partial) window comes last; its rate is computed
        // over the full window width, so it under-reports until close.
        if self.current.arrivals + self.current.shed + self.current.completed > 0 {
            windows.push(WindowSnapshot::of(
                &self.current,
                &self.config,
                self.window_us,
            ));
        }
        let mut sampled = self.sampled.clone();
        // The live window's provisional picks are included so a
        // mid-run snapshot always has something to trace.
        finalize_window_samples(&self.current, &mut sampled);
        ScopeSnapshot {
            window_us: self.window_us,
            slo_us: self.config.slo_us,
            slo_target: self.config.slo_target,
            in_flight: self.pending.len() as u64,
            totals: WindowSnapshot::of(&self.totals, &self.config, self.window_us),
            windows,
            sampled,
        }
    }
}

/// Live metrics of one window (or of the run totals).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnapshot {
    /// Window index (`start_us / window_us`; 0 for totals).
    pub index: u64,
    /// Window start on the feeder's clock, µs.
    pub start_us: u64,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed.
    pub shed: u64,
    /// Requests completed.
    pub completed: u64,
    /// Invocations those completions executed.
    pub invocations: u64,
    /// Completions over the SLO threshold.
    pub slo_violations: u64,
    /// Median arrival→completion latency, µs.
    pub p50_us: u64,
    /// p99 latency, µs.
    pub p99_us: u64,
    /// p999 latency, µs.
    pub p999_us: u64,
    /// Max latency, µs.
    pub max_us: u64,
    /// Completions per second over the window width.
    pub throughput_rps: f64,
    /// Shed fraction of arrivals (0 when no arrivals).
    pub shed_rate: f64,
    /// SLO burn-rate: violation fraction over the error budget.
    /// 1.0 = consuming the budget exactly; 0 when the SLO is disabled
    /// or nothing completed.
    pub burn_rate: f64,
}

impl WindowSnapshot {
    fn of(w: &Window, config: &ScopeConfig, window_us: u64) -> Self {
        let shed_rate = if w.arrivals == 0 {
            0.0
        } else {
            w.shed as f64 / w.arrivals as f64
        };
        let budget = 1.0 - config.slo_target;
        let burn_rate = if config.slo_us == 0 || w.completed == 0 || budget <= 0.0 {
            0.0
        } else {
            (w.slo_violations as f64 / w.completed as f64) / budget
        };
        WindowSnapshot {
            index: w.index,
            start_us: w.start_us,
            arrivals: w.arrivals,
            admitted: w.admitted,
            shed: w.shed,
            completed: w.completed,
            invocations: w.invocations,
            slo_violations: w.slo_violations,
            p50_us: w.latency.p50(),
            p99_us: w.latency.p99(),
            p999_us: w.latency.p999(),
            max_us: w.latency.max(),
            throughput_rps: w.completed as f64 * 1_000_000.0 / window_us as f64,
            shed_rate,
            burn_rate,
        }
    }

    fn json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"index\":{},\"start_us\":{},\"arrivals\":{},\"admitted\":{},\"shed\":{},\"completed\":{},\"invocations\":{},\"slo_violations\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}",
            self.index,
            self.start_us,
            self.arrivals,
            self.admitted,
            self.shed,
            self.completed,
            self.invocations,
            self.slo_violations,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
        );
        out.push_str(",\"throughput_rps\":");
        write_f64(out, self.throughput_rps);
        out.push_str(",\"shed_rate\":");
        write_f64(out, self.shed_rate);
        out.push_str(",\"burn_rate\":");
        write_f64(out, self.burn_rate);
        out.push('}');
    }
}

/// A point-in-time view of the scope plane: run totals, the retained
/// windows (oldest first, live partial window last), and the sampled
/// request ids span trees should be materialized for.
#[derive(Clone, Debug, PartialEq)]
pub struct ScopeSnapshot {
    /// Window width, µs.
    pub window_us: u64,
    /// SLO threshold, µs (0 = disabled).
    pub slo_us: u64,
    /// SLO attainment target.
    pub slo_target: f64,
    /// Requests arrived but neither shed nor completed yet.
    pub in_flight: u64,
    /// Whole-run aggregates (the `index`/`start_us`/rate fields are
    /// computed over one window width and only meaningful per window).
    pub totals: WindowSnapshot,
    /// Retained windows, oldest first; the live partial window last.
    pub windows: Vec<WindowSnapshot>,
    /// Sampled requests across the retained windows.
    pub sampled: Vec<SampledRequest>,
}

impl ScopeSnapshot {
    /// Serializes the snapshot as JSON. Rendering is deterministic:
    /// identical snapshots produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"scope\":{");
        let _ = write!(
            out,
            "\"window_us\":{},\"slo_us\":{},\"slo_target\":",
            self.window_us, self.slo_us
        );
        write_f64(&mut out, self.slo_target);
        let _ = write!(out, ",\"in_flight\":{},\"totals\":", self.in_flight);
        self.totals.json(&mut out);
        out.push_str(",\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            w.json(&mut out);
        }
        out.push_str("],\"sampled\":[");
        for (i, s) in self.sampled.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"request\":{},\"latency_us\":{},\"reason\":\"{}\",\"window\":{}}}",
                s.request,
                s.latency_us,
                s.reason.label(),
                s.window
            );
        }
        out.push_str("]}}");
        out
    }

    /// Renders the snapshot as Prometheus text exposition format
    /// (`scope.*` namespace → `bamboo_scope_*` metric family).
    /// Windowed gauges report the most recent *closed* window when one
    /// exists, else the live partial window.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let t = &self.totals;
        out.push_str("# TYPE bamboo_scope_requests_total counter\n");
        for (phase, n) in [
            ("arrived", t.arrivals),
            ("admitted", t.admitted),
            ("shed", t.shed),
            ("completed", t.completed),
        ] {
            let _ = writeln!(out, "bamboo_scope_requests_total{{phase=\"{phase}\"}} {n}");
        }
        out.push_str("# TYPE bamboo_scope_in_flight gauge\n");
        let _ = writeln!(out, "bamboo_scope_in_flight {}", self.in_flight);
        out.push_str("# TYPE bamboo_scope_latency_us summary\n");
        for (q, v) in [("0.5", t.p50_us), ("0.99", t.p99_us), ("0.999", t.p999_us)] {
            let _ = writeln!(out, "bamboo_scope_latency_us{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "bamboo_scope_latency_us_max {}", t.max_us);
        // Per-window gauges: last closed window if any, else the live
        // partial one (the last entry is the live window only when it
        // has activity, so prefer the second-to-last when present).
        let live = self.windows.last();
        let closed = if self.windows.len() >= 2 {
            self.windows.get(self.windows.len() - 2)
        } else {
            None
        };
        if let Some(w) = closed.or(live) {
            out.push_str("# TYPE bamboo_scope_window_throughput_rps gauge\n");
            let mut line = format!(
                "bamboo_scope_window_throughput_rps{{window=\"{}\"}} ",
                w.index
            );
            write_f64(&mut line, w.throughput_rps);
            let _ = writeln!(out, "{line}");
            out.push_str("# TYPE bamboo_scope_window_shed_rate gauge\n");
            let mut line = format!("bamboo_scope_window_shed_rate{{window=\"{}\"}} ", w.index);
            write_f64(&mut line, w.shed_rate);
            let _ = writeln!(out, "{line}");
            out.push_str("# TYPE bamboo_scope_slo_burn_rate gauge\n");
            let mut line = format!("bamboo_scope_slo_burn_rate{{window=\"{}\"}} ", w.index);
            write_f64(&mut line, w.burn_rate);
            let _ = writeln!(out, "{line}");
        }
        out.push_str("# TYPE bamboo_scope_sampled_spans gauge\n");
        let _ = writeln!(out, "bamboo_scope_sampled_spans {}", self.sampled.len());
        out
    }

    /// The sampled request ids, deduplicated, ascending.
    pub fn sampled_requests(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.sampled.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The writer side of the scope plane. The serving driver owns one and
/// calls [`ScopeRecorder::arrive`] / [`ScopeRecorder::admit`] /
/// [`ScopeRecorder::shed`] / [`ScopeRecorder::complete`] as requests
/// move through their lifecycle; every call is O(1) amortized and
/// touches only fixed-size state.
#[derive(Clone)]
pub struct ScopeRecorder {
    state: Arc<Mutex<ScopeState>>,
}

impl std::fmt::Debug for ScopeRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopeRecorder").finish_non_exhaustive()
    }
}

impl ScopeRecorder {
    /// A recorder with the given configuration.
    pub fn new(config: ScopeConfig) -> Self {
        let window_us = config.window_us();
        ScopeRecorder {
            state: Arc::new(Mutex::new(ScopeState {
                config,
                window_us,
                current: Window::default(),
                closed: VecDeque::new(),
                pending: Vec::new(),
                sampled: Vec::new(),
                totals: Window::default(),
                rng: SAMPLE_SEED,
            })),
        }
    }

    /// A reader handle; any number of clones can snapshot concurrently
    /// with recording.
    pub fn handle(&self) -> ScopeHandle {
        ScopeHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Records a request arriving at the ingress.
    pub fn arrive(&self, now_us: u64, request: u64) {
        if let Ok(mut s) = self.state.lock() {
            s.arrive(now_us, request);
        }
    }

    /// Records a request passing admission.
    pub fn admit(&self, now_us: u64, request: u64) {
        if let Ok(mut s) = self.state.lock() {
            s.admit(now_us, request);
        }
    }

    /// Records a request shed at admission.
    pub fn shed(&self, now_us: u64, request: u64) {
        if let Ok(mut s) = self.state.lock() {
            s.shed(now_us, request);
        }
    }

    /// Records a request completing with `invocations` executed.
    pub fn complete(&self, now_us: u64, request: u64, invocations: u64) {
        if let Ok(mut s) = self.state.lock() {
            s.complete(now_us, request, invocations);
        }
    }

    /// Snapshots the plane (same view a [`ScopeHandle`] gets).
    pub fn snapshot(&self) -> ScopeSnapshot {
        self.handle().snapshot()
    }
}

/// The reader side: snapshot live metrics and sampling decisions on
/// demand, from any thread, while the deployment keeps serving.
#[derive(Clone)]
pub struct ScopeHandle {
    state: Arc<Mutex<ScopeState>>,
}

impl std::fmt::Debug for ScopeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopeHandle").finish_non_exhaustive()
    }
}

impl ScopeHandle {
    /// A point-in-time view of windows, totals, and sampled requests.
    pub fn snapshot(&self) -> ScopeSnapshot {
        match self.state.lock() {
            Ok(s) => s.snapshot(),
            Err(poisoned) => poisoned.into_inner().snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(window_ms: u64) -> ScopeRecorder {
        ScopeRecorder::new(
            ScopeConfig::default()
                .with_window(Duration::from_millis(window_ms))
                .with_slo(1_000, 0.99),
        )
    }

    #[test]
    fn windows_roll_and_retain() {
        let r = recorder(1); // 1000µs windows
        for i in 0..10u64 {
            let t = i * 500;
            r.arrive(t, i + 1);
            r.complete(t + 10, i + 1, 3);
        }
        let snap = r.snapshot();
        assert_eq!(snap.totals.completed, 10);
        assert_eq!(snap.totals.invocations, 30);
        assert!(snap.windows.len() >= 2);
        // Windows are ordered and disjoint.
        for pair in snap.windows.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
        let completed: u64 = snap.windows.iter().map(|w| w.completed).sum();
        assert_eq!(completed, 10);
    }

    #[test]
    fn slowest_k_and_shed_requests_are_sampled() {
        let r = recorder(10); // one 10ms window
        for i in 1..=20u64 {
            r.arrive(i * 10, i);
            // Request 7 is the slowest, 13 second-slowest.
            let latency = match i {
                7 => 5_000,
                13 => 3_000,
                _ => 100,
            };
            r.complete(i * 10 + latency, i, 1);
        }
        r.arrive(500, 99);
        r.shed(500, 99);
        let snap = r.snapshot();
        let slow: Vec<u64> = snap
            .sampled
            .iter()
            .filter(|s| s.reason == SampleReason::Slow)
            .map(|s| s.request)
            .collect();
        assert_eq!(slow, vec![7, 13, 20, 19], "slowest first, ties by id");
        assert!(snap
            .sampled
            .iter()
            .any(|s| s.reason == SampleReason::Shed && s.request == 99));
        // SLO 1000µs at target 0.99: 2 violations / 20 completed over a
        // 0.01 budget = burn rate 10.
        assert!((snap.totals.burn_rate - 10.0).abs() < 1e-9);
        assert_eq!(snap.totals.slo_violations, 2);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let run = || {
            let r = recorder(1);
            for i in 0..50u64 {
                r.arrive(i * 100, i + 1);
                if i % 7 == 3 {
                    r.shed(i * 100, i + 1);
                } else {
                    r.complete(i * 100 + 37 * (i % 5), i + 1, i % 3 + 1);
                }
            }
            r.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    #[test]
    fn exports_render_expected_families() {
        let r = recorder(1);
        r.arrive(0, 1);
        r.complete(200, 1, 2);
        r.arrive(1500, 2);
        r.complete(1700, 2, 2);
        let snap = r.snapshot();
        let json = snap.to_json();
        for key in [
            "\"window_us\":1000",
            "\"totals\":",
            "\"windows\":[",
            "\"sampled\":[",
            "\"burn_rate\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let prom = snap.to_prometheus();
        for family in [
            "bamboo_scope_requests_total{phase=\"completed\"} 2",
            "bamboo_scope_latency_us{quantile=\"0.99\"}",
            "bamboo_scope_slo_burn_rate",
            "bamboo_scope_sampled_spans",
        ] {
            assert!(prom.contains(family), "missing {family} in {prom}");
        }
    }

    #[test]
    fn in_flight_tracks_pending_requests() {
        let r = recorder(1);
        r.arrive(0, 1);
        r.arrive(10, 2);
        r.admit(20, 1);
        r.admit(20, 2);
        assert_eq!(r.snapshot().in_flight, 2);
        r.complete(100, 1, 1);
        assert_eq!(r.snapshot().in_flight, 1);
        r.complete(120, 2, 1);
        let snap = r.snapshot();
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.totals.admitted, 2);
    }

    #[test]
    fn old_windows_and_their_samples_roll_off() {
        let r = ScopeRecorder::new(ScopeConfig::default().with_window(Duration::from_millis(1)));
        let total = 2 * WINDOWS_KEPT as u64;
        for i in 0..total {
            let t = i * 1_000; // one request per window
            r.arrive(t, i + 1);
            r.complete(t + 50, i + 1, 1);
        }
        let snap = r.snapshot();
        assert!(
            snap.windows.len() <= WINDOWS_KEPT + 1,
            "kept closed windows + live partial"
        );
        let oldest = snap.windows[0].index;
        assert!(oldest > 0, "the first windows rolled off");
        assert!(snap.sampled.iter().all(|s| s.window >= oldest));
        assert_eq!(snap.totals.completed, total, "totals survive roll-off");
    }
}
