//! `serve-steady` and `serve-backlog`: a resident deployment behind
//! `DeploymentHandle::serve` + `serve_channel`, loaded by the
//! benchmark's generator thread through `IngressHandle::submit`.

use crate::batch::{set_ledger_shares, Counters};
use crate::generator::{self, Schedule, Sent, MAX_LATE_P99_US};
use crate::measure::{geomean, median, p50_p90_across, quantile, quartiles, sorted, tail_quantile};
use crate::metrics::Report;
use crate::plan::{derive_seed, plan_once, verify_virtual, Planned, Subject};
use crate::trace::Tracer;
use crate::{overhead_pct, Config, Measured};
use bamboo::telemetry::analyze::{span_trees, Ledger, SpanBreakdown};
use bamboo::{
    DeploymentHandle, MachineDescription, ScopeConfig, ServingOptions, ServingReport, Telemetry,
};
use bamboo_apps::Scale;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Requests per second per worker on `serve-steady`: about a quarter
/// of what the resident KMeans deployment drains when saturated.
const STEADY_RPS_PER_WORKER: f64 = 1_000.0;
/// Paced requests sent to a fresh server before anything is timed.
const WARMUP_REQUESTS: usize = 200;
/// The generator starts this long after the server is ready, so the
/// driver is already waiting on the ingress when the first request is
/// due.
const LEAD: Duration = Duration::from_millis(5);
/// Event ring per worker for the traced legs: large enough that no
/// event of a leg is overwritten (a request records about 250).
const RING_EVENTS: usize = 1 << 17;
/// Requests of the traced steady leg (bounded by [`RING_EVENTS`]).
const TRACED_REQUESTS: f64 = 1_000.0;

/// `serve-steady` takes its percentiles per window of this length and
/// reports the median window, so that a host stall costs one window.
const WINDOW: Duration = Duration::from_secs(1);

/// What a leg switches on besides the workload itself.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    Nothing,
    Telemetry,
    Scope,
}

/// One app planned for W cores and the exact work of one request.
pub struct Resident {
    subject: Subject,
    planned: Planned,
    workers: usize,
}

/// One loaded interval on one server.
pub struct Leg {
    /// Due-to-complete latency of every completed request, in due
    /// order, microseconds.
    pub latency_us: Vec<f64>,
    /// The part of it before the server admitted the request.
    pub ingress_wait_us: Vec<f64>,
    pub sent: Sent,
    /// First due instant to last completion, seconds.
    pub span_s: f64,
    /// Requests not yet complete at the last due instant.
    pub backlog_end: usize,
    pub report: ServingReport,
    pub telemetry: Option<Telemetry>,
    /// Request ids of the completed requests, in due order.
    pub requests: Vec<u64>,
    /// When each of them was due.
    due_at: Vec<Instant>,
}

impl Resident {
    pub fn setup(cfg: &Config, app: &str, stream: u64) -> Result<Self, String> {
        let workers = cfg.host.worker_threads;
        let machine = MachineDescription::n_cores(workers);
        let bench = bamboo_apps::by_name(app).ok_or(format!("no app called {app}"))?;
        let subject = Subject::app(bench, Scale::Small, 1);
        let planned = plan_once(&subject, &machine, derive_seed(cfg.seed, stream))?;
        verify_virtual(&subject, &planned, &machine)?;
        Ok(Resident {
            subject,
            planned,
            workers,
        })
    }

    fn name(&self) -> &str {
        self.subject.name()
    }

    /// Task invocations one request executes: the program's own count.
    fn invocations_per_request(&self) -> u64 {
        self.planned.single.invocations
    }

    /// Starts a server, warms it up, then offers `schedule` and waits
    /// for the last completion. Server start, warm-up and stop are
    /// outside the timed interval. Failed operations are counted into
    /// `measured`: a refused submission, a request that never
    /// completed, a completion with the wrong invocation count.
    pub fn serve(
        &self,
        schedule: &Schedule,
        warmup_rate: f64,
        observe: Observe,
        measured: &mut Measured,
    ) -> Result<Leg, String> {
        let name = self.name();
        let telemetry = (observe == Observe::Telemetry)
            .then(|| Telemetry::with_capacity(self.workers, RING_EVENTS));
        let mut handle = DeploymentHandle::deploy(&self.planned.compiler, &self.planned.plan);
        if let Some(telemetry) = &telemetry {
            handle = handle.with_telemetry(telemetry.clone());
        }
        if observe == Observe::Scope {
            handle = handle.with_scope(ScopeConfig::default());
        }
        let mut session = handle
            .serve(ServingOptions::new())
            .map_err(|e| format!("{name}: server start: {e}"))?;

        let drive = |session: &mut bamboo::ServingSession, schedule: &Schedule| {
            let (handle, ingress) = bamboo::serving::channel(schedule.due.len() + 1);
            let start = Instant::now() + LEAD;
            let (sent, served) = std::thread::scope(|scope| {
                // The handle moves into the generator and drops with it:
                // that is what ends `serve_channel`.
                let generator = scope.spawn(move || generator::run(schedule, start, &handle));
                let served = session.serve_channel(ingress);
                (generator.join().expect("generator thread"), served)
            });
            served
                .and_then(|()| session.await_idle())
                .map(|()| (sent, start))
                .map_err(|e| format!("{name}: serving: {e}"))
        };

        let warm_s = WARMUP_REQUESTS as f64 / warmup_rate;
        let warmup = Schedule::poisson(warmup_rate, warm_s, 1);
        let (warm_sent, _) = drive(&mut session, &warmup)?;
        let warm = (warmup.due.len() - warm_sent.refused.len()) as u64;

        let (sent, start) = drive(&mut session, schedule)?;
        let report = session
            .stop()
            .map_err(|e| format!("{name}: server stop: {e}"))?;

        // The k-th accepted submission is the k-th request id after the
        // warm-up's (ids are minted in injection order, from 1).
        let admit_to_complete: HashMap<u64, u64> = report
            .completions
            .iter()
            .zip(&report.raw_latency_us)
            .map(|(c, us)| (c.request, *us))
            .collect();
        let completed: HashMap<u64, _> =
            report.completions.iter().map(|c| (c.request, *c)).collect();
        let accepted: Vec<usize> = (0..schedule.due.len())
            .filter(|k| !sent.refused.contains(k))
            .collect();
        let last_due = start + schedule.due.last().copied().unwrap_or_default();
        let mut leg = Leg {
            latency_us: Vec::with_capacity(schedule.due.len()),
            ingress_wait_us: Vec::with_capacity(schedule.due.len()),
            span_s: 0.0,
            backlog_end: 0,
            requests: Vec::with_capacity(schedule.due.len()),
            due_at: Vec::with_capacity(schedule.due.len()),
            telemetry,
            sent,
            report,
        };
        measured.attempted += schedule.due.len() as u64;
        for _ in &leg.sent.refused {
            measured.fail(format!("{name}: the ingress refused a submission"));
        }
        let mut last_completion = start;
        for (nth, k) in accepted.into_iter().enumerate() {
            let request = warm + 1 + nth as u64;
            let Some(done) = completed.get(&request) else {
                measured.fail(format!("{name}: request {request} never completed"));
                continue;
            };
            if done.invocations != self.invocations_per_request() {
                measured.fail(format!(
                    "{name}: request {request} ran {} invocations, the program has {}",
                    done.invocations,
                    self.invocations_per_request()
                ));
                continue;
            }
            let due = start + schedule.due[k];
            let us = done
                .completed_at
                .saturating_duration_since(due)
                .as_secs_f64()
                * 1e6;
            leg.latency_us.push(us);
            leg.ingress_wait_us
                .push((us - admit_to_complete[&request] as f64).max(0.0));
            leg.requests.push(request);
            leg.due_at.push(due);
            last_completion = last_completion.max(done.completed_at);
            leg.backlog_end += usize::from(done.completed_at > last_due);
        }
        let first_due = start + schedule.due.first().copied().unwrap_or_default();
        leg.span_s = last_completion
            .saturating_duration_since(first_due)
            .as_secs_f64();
        Ok(leg)
    }
}

impl Leg {
    fn completed_rps(&self) -> f64 {
        self.latency_us.len() as f64 / self.span_s
    }

    /// The latencies grouped by the window their request was due in.
    fn windows(&self, window: Duration) -> Vec<Vec<f64>> {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (due, latency) in self.due_at.iter().zip(&self.latency_us) {
            let since = due.saturating_duration_since(self.due_at[0]);
            let w = (since.as_secs_f64() / window.as_secs_f64()) as usize;
            if windows.len() <= w {
                windows.resize_with(w + 1, Vec::new);
            }
            windows[w].push(*latency);
        }
        windows
    }

    /// Records each request as a span with its two halves: waiting at
    /// the ingress until admitted, then being served by the runtime.
    fn record_spans(&self, tracer: &mut Tracer) {
        for (((request, due), latency), wait) in self
            .requests
            .iter()
            .zip(&self.due_at)
            .zip(&self.latency_us)
            .zip(&self.ingress_wait_us)
        {
            let due = *due;
            let admitted = due + Duration::from_secs_f64(wait / 1e6);
            let done = due + Duration::from_secs_f64(latency / 1e6);
            let parent = tracer.record("request", *request, due, done, None);
            tracer.record(
                "serving.ingress_wait",
                *request,
                due,
                admitted,
                Some(parent),
            );
            tracer.record(
                "runtime.threaded.request",
                *request,
                admitted,
                done,
                Some(parent),
            );
        }
    }
}

/// The runtime's own accounts of a leg served with telemetry on: the
/// per-core ledger and the per-request span partition, each as shares
/// that sum to 1.
fn set_telemetry_shares(leg: &Leg, report: &mut Report) {
    let Some(telemetry) = &leg.telemetry else {
        return;
    };
    let recorded = telemetry.report();
    set_ledger_shares(&Ledger::from_report(&recorded).totals(), report);
    let mut sum = SpanBreakdown::default();
    for tree in span_trees(&recorded, &leg.requests) {
        let b = tree.breakdown;
        sum.total += b.total;
        sum.compute += b.compute;
        sum.lock_wait += b.lock_wait;
        sum.queue_wait += b.queue_wait;
        sum.routing += b.routing;
        sum.idle += b.idle;
    }
    let total = sum.total.max(1) as f64;
    report.set("span.compute_share", sum.compute as f64 / total);
    report.set("span.lock_wait_share", sum.lock_wait as f64 / total);
    report.set("span.queue_wait_share", sum.queue_wait as f64 / total);
    report.set("span.routing_share", sum.routing as f64 / total);
    report.set("span.idle_share", sum.idle as f64 / total);
}

/// `serve-steady`: independent arrivals, shallow queues.
pub struct Steady {
    resident: Resident,
    rate: f64,
    seed: u64,
}

impl Steady {
    /// Plans KMeans (small input) for W cores and serves a short
    /// warm-up on a throw-away server.
    pub fn setup(cfg: &Config) -> Result<Self, String> {
        let resident = Resident::setup(cfg, "KMeans", 0)?;
        let this = Steady {
            rate: STEADY_RPS_PER_WORKER * resident.workers as f64,
            resident,
            seed: derive_seed(cfg.seed, 100),
        };
        let mut warm = Measured::default();
        let short = Schedule::poisson(this.rate, 0.1, this.seed);
        this.resident
            .serve(&short, this.rate, Observe::Nothing, &mut warm)?;
        warm.into_result().map(|()| this)
    }

    /// Offers the seeded Poisson schedule for `seconds` at the fixed
    /// rate and returns the leg with the end-to-end figures filled in.
    pub fn measure(&self, seconds: f64, observe: Observe) -> (Measured, Option<Leg>) {
        let mut measured = Measured::default();
        let schedule = Schedule::poisson(self.rate, seconds, self.seed);
        let served = self
            .resident
            .serve(&schedule, self.rate, observe, &mut measured);
        let leg = match served {
            Ok(leg) => leg,
            Err(why) => {
                measured.attempted = measured.attempted.max(1);
                measured.fail(why);
                return (measured, None);
            }
        };
        let latency = sorted(&leg.latency_us);
        let late = sorted(&leg.sent.late_us);
        measured.samples = latency.len();
        match p50_p90_across(&leg.windows(WINDOW)) {
            Some((p50, p90)) => {
                measured.op_p50_ms = p50 / 1e3;
                measured.op_p90_ms = p90.map(|us| us / 1e3);
                measured.ops_per_s = leg.completed_rps();
                let (q1, q2, q3) = quartiles(&latency);
                measured.quartiles_ms = (q1 / 1e3, q2 / 1e3, q3 / 1e3);
            }
            None => measured.fail("no request completed".into()),
        }
        // Validity: a late generator has added its own delay to every
        // latency, so the figures would not describe the system.
        let late_p99 = quantile(&late, 0.99);
        if late_p99 > MAX_LATE_P99_US {
            measured.notes.push(format!(
                "unresolved: the generator ran {late_p99:.0} us late at p99 (limit {MAX_LATE_P99_US} us), \
                 so the latency figures include its delay"
            ));
        }
        (measured, Some(leg))
    }

    /// Per-layer metrics of an untraced leg.
    pub fn layers(&self, leg: &Leg, report: &mut Report) {
        let n = leg.latency_us.len();
        let latency = sorted(&leg.latency_us);
        let late = sorted(&leg.sent.late_us);
        report.set_quantile("serving.gen_late_p50_us", quantile(&late, 0.5), late.len());
        if let Some(p99) = tail_quantile(&late, 0.99) {
            report.set_quantile("serving.gen_late_p99_us", p99, late.len());
        }
        report.set_quantile(
            "serving.ingress_wait_p50_us",
            median(&leg.ingress_wait_us),
            n,
        );
        let admit: Vec<f64> = leg
            .report
            .raw_latency_us
            .iter()
            .map(|&us| us as f64)
            .collect();
        let admit = sorted(&admit);
        report.set_quantile(
            "serving.server.admit_p50_us",
            quantile(&admit, 0.5),
            admit.len(),
        );
        if let Some(p99) = tail_quantile(&admit, 0.99) {
            report.set_quantile("serving.server.admit_p99_us", p99, admit.len());
        }
        if let Some(p99) = tail_quantile(&latency, 0.99) {
            report.set_quantile("serving.lat_p99_us", p99, n);
        }
        if let Some(p999) = tail_quantile(&latency, 0.999) {
            report.set_quantile("serving.lat_p999_us", p999, n);
        }
        report.set("serving.completed_rps", leg.completed_rps());
        report.set("serving.backlog_end", leg.backlog_end as f64);
        let executor = &leg.report.executor;
        report.set(
            "runtime.threaded.inv_per_req",
            executor.invocations as f64 / leg.report.completed.max(1) as f64,
        );
        let mut counters = Counters::default();
        counters.add(executor);
        counters.set(report);
    }

    /// The traced legs: one with telemetry on (ledger, span trees, the
    /// benchmark's request spans), one with the scope plane on. Each
    /// reports its cost against `untraced_p50_ms`.
    pub fn trace(
        &self,
        seconds: f64,
        untraced_p50_ms: f64,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Measured {
        let traced_s = seconds.min(TRACED_REQUESTS / self.rate);
        let (mut measured, leg) = self.measure(traced_s, Observe::Telemetry);
        if let Some(leg) = leg {
            leg.record_spans(tracer);
            set_telemetry_shares(&leg, report);
            report.set(
                "telemetry.overhead_pct",
                overhead_pct(measured.op_p50_ms, untraced_p50_ms),
            );
        }
        let (scoped, leg) = self.measure(seconds, Observe::Scope);
        if leg.is_some() {
            report.set(
                "telemetry.scope_overhead_pct",
                overhead_pct(scoped.op_p50_ms, untraced_p50_ms),
            );
        }
        measured.absorb(scoped);
        measured
    }

    /// A deployment for the single-layer probes.
    pub fn planned(&self) -> &Planned {
        &self.resident.planned
    }
}

/// Requests per burst: deep enough that the drain takes most of a
/// second, so the formation scan over queued objects is what is timed.
const BURSTS: [(&str, usize); 2] = [("KMeans", 4_000), ("Fractal", 500)];
/// Quarter-depth bursts per app for the depth penalty.
const QUARTER_BURSTS: usize = 3;

/// `serve-backlog`: every request of a burst due at the same instant.
pub struct Backlog {
    apps: Vec<(Resident, usize)>,
}

/// The drains of one app.
#[derive(Default)]
struct Drains {
    rps: Vec<f64>,
    /// Latencies of each burst, microseconds.
    bursts_us: Vec<Vec<f64>>,
    wall_core_ns: f64,
    invocations: f64,
}

impl Backlog {
    /// Plans both apps for W cores and drains one quarter-depth burst
    /// of each on a throw-away server.
    pub fn setup(cfg: &Config) -> Result<Self, String> {
        let mut apps = Vec::new();
        for (stream, (app, burst)) in BURSTS.iter().enumerate() {
            apps.push((Resident::setup(cfg, app, stream as u64)?, *burst));
        }
        let this = Backlog { apps };
        let mut warm = Measured::default();
        this.drain_each(4, 1, Observe::Nothing, &mut warm)?;
        warm.into_result().map(|()| this)
    }

    /// One burst of `1/divisor` depth on a fresh server.
    fn drain(
        &self,
        app: usize,
        divisor: usize,
        observe: Observe,
        measured: &mut Measured,
        into: &mut Drains,
    ) -> Result<Leg, String> {
        let (resident, burst) = &self.apps[app];
        let schedule = Schedule::burst(burst / divisor);
        let warmup_rate = STEADY_RPS_PER_WORKER * resident.workers as f64;
        let leg = resident.serve(&schedule, warmup_rate, observe, measured)?;
        if !leg.latency_us.is_empty() {
            into.rps.push(leg.completed_rps());
            into.bursts_us.push(leg.latency_us.clone());
            into.wall_core_ns += leg.span_s * 1e9 * resident.workers as f64;
            into.invocations +=
                (leg.latency_us.len() as u64 * resident.invocations_per_request()) as f64;
        }
        Ok(leg)
    }

    /// `rounds` bursts of `1/divisor` depth per app, apps alternating.
    fn drain_each(
        &self,
        divisor: usize,
        rounds: usize,
        observe: Observe,
        measured: &mut Measured,
    ) -> Result<(Vec<Drains>, Vec<Leg>), String> {
        let mut drains: Vec<Drains> = self.apps.iter().map(|_| Drains::default()).collect();
        let mut legs = Vec::new();
        for _ in 0..rounds {
            for (app, into) in drains.iter_mut().enumerate() {
                legs.push(self.drain(app, divisor, observe, measured, into)?);
            }
        }
        Ok((drains, legs))
    }

    /// Full-depth bursts, apps alternating, until `seconds` have
    /// passed (server starts and stops included in that budget, not in
    /// any drain time).
    pub fn measure(&self, seconds: f64, report: Option<&mut Report>) -> Measured {
        let mut measured = Measured::default();
        let mut counters = Counters::default();
        let mut drains: Vec<Drains> = self.apps.iter().map(|_| Drains::default()).collect();
        let started = Instant::now();
        let mut round = 0;
        while round < 2 || started.elapsed().as_secs_f64() < seconds {
            for (app, into) in drains.iter_mut().enumerate() {
                match self.drain(app, 1, Observe::Nothing, &mut measured, into) {
                    Ok(leg) => counters.add(&leg.report.executor),
                    Err(why) => {
                        measured.attempted += 1;
                        measured.fail(why);
                    }
                }
            }
            round += 1;
        }
        // Per app: the median burst's latency p50 and p90, and the
        // median drain rate; then the geometric mean over the apps.
        let per_app: Option<Vec<_>> = drains
            .iter()
            .map(|d| p50_p90_across(&d.bursts_us).map(|(p50, p90)| (p50, p90, median(&d.rps))))
            .collect();
        match per_app {
            Some(apps) => {
                let p50s: Vec<f64> = apps.iter().map(|a| a.0).collect();
                let p90s: Option<Vec<f64>> = apps.iter().map(|a| a.1).collect();
                let rates: Vec<f64> = apps.iter().map(|a| a.2).collect();
                measured.op_p50_ms = geomean(&p50s) / 1e3;
                measured.op_p90_ms = p90s.map(|p90s| geomean(&p90s) / 1e3);
                measured.ops_per_s = geomean(&rates);
                // For the reader: the quartiles of all latencies, in
                // units of each app's own median so the apps can mix.
                let relative: Vec<f64> = drains
                    .iter()
                    .zip(&p50s)
                    .flat_map(|(d, p50)| d.bursts_us.iter().flatten().map(move |us| us / p50))
                    .collect();
                measured.samples = relative.len();
                let (q1, q2, q3) = quartiles(&relative);
                let p50 = measured.op_p50_ms;
                measured.quartiles_ms = (q1 * p50, q2 * p50, q3 * p50);
            }
            None => measured.fail("an app completed no request".into()),
        }
        if let Some(report) = report {
            self.layers(&drains, report);
            counters.set(report);
        }
        measured
    }

    fn layers(&self, drains: &[Drains], report: &mut Report) {
        for ((resident, _), d) in self.apps.iter().zip(drains) {
            if d.rps.is_empty() {
                continue;
            }
            let metric = match resident.name() {
                "KMeans" => "serving.drain_rps.KMeans",
                _ => "serving.drain_rps.Fractal",
            };
            report.set_quantile(metric, median(&d.rps), d.rps.len());
        }
        let sum = |f: fn(&Drains) -> f64| drains.iter().map(f).sum::<f64>();
        report.set(
            "serving.drain_ns_per_inv",
            sum(|d| d.wall_core_ns) / sum(|d| d.invocations).max(1.0),
        );
    }

    /// The traced legs: quarter-depth bursts without and with
    /// telemetry. The first gives the depth penalty against
    /// `full_rps` (per-app median drain rates at full depth), the
    /// second the cost of telemetry, the ledger and the span trees.
    pub fn trace(&self, tracer: &mut Tracer, report: &mut Report) -> Measured {
        let mut measured = Measured::default();
        let quarter = self.drain_each(4, QUARTER_BURSTS, Observe::Nothing, &mut measured);
        let traced = self.drain_each(4, QUARTER_BURSTS, Observe::Telemetry, &mut measured);
        let (quarter, traced) = match (quarter, traced) {
            (Ok((quarter, _)), Ok(traced)) => (quarter, traced),
            (Err(why), _) | (_, Err(why)) => {
                measured.attempted += 1;
                measured.fail(why);
                return measured;
            }
        };
        let full: Vec<f64> = ["serving.drain_rps.KMeans", "serving.drain_rps.Fractal"]
            .iter()
            .filter_map(|m| report.get(m))
            .map(|v| v.value)
            .collect();
        let shallow: Vec<f64> = quarter.iter().map(|d| median(&d.rps)).collect();
        if full.len() == shallow.len() {
            let ratios: Vec<f64> = shallow.iter().zip(&full).map(|(q, f)| q / f).collect();
            report.set("serving.backlog_penalty", geomean(&ratios));
        }
        let (traced_drains, traced_legs) = traced;
        let slowdowns: Vec<f64> = shallow
            .iter()
            .zip(&traced_drains)
            .map(|(plain, with)| plain / median(&with.rps))
            .collect();
        report.set(
            "telemetry.overhead_pct",
            (geomean(&slowdowns) - 1.0) * 100.0,
        );
        // The first traced leg is KMeans: its ledger and span trees
        // stand for the workload (the partition code is the same).
        if let Some(leg) = traced_legs.first() {
            leg.record_spans(tracer);
            set_telemetry_shares(leg, report);
            report.set(
                "runtime.threaded.inv_per_req",
                leg.report.executor.invocations as f64 / leg.report.completed.max(1) as f64,
            );
        }
        measured
    }

    /// A deployment for the single-layer probes.
    pub fn planned(&self) -> &Planned {
        &self.apps[0].0.planned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Host;

    fn cfg() -> Config {
        Config {
            seed: 11,
            host: Host::with_threads(2),
        }
    }

    #[test]
    fn every_request_completes_with_the_exact_invocation_count() {
        let steady = Steady::setup(&cfg()).unwrap();
        let (measured, leg) = steady.measure(0.2, Observe::Telemetry);
        let leg = leg.unwrap();
        assert_eq!(measured.attempted as usize, leg.sent.late_us.len());
        assert_eq!(measured.failed, 0, "{:?}", measured.failures);
        assert_eq!(leg.latency_us.len(), leg.sent.late_us.len());
        assert!(leg.latency_us.iter().all(|us| *us > 0.0));
        assert!(leg
            .latency_us
            .iter()
            .zip(&leg.ingress_wait_us)
            .all(|(total, wait)| wait <= total));

        // Ledger and span shares each sum to 1.
        let mut report = Report::default();
        set_telemetry_shares(&leg, &mut report);
        for (prefix, parts) in [
            (
                "runtime.threaded",
                &[
                    "compute",
                    "lock_wait",
                    "queue_wait",
                    "steal",
                    "routing",
                    "idle",
                ][..],
            ),
            (
                "span",
                &["compute", "lock_wait", "queue_wait", "routing", "idle"][..],
            ),
        ] {
            let sum: f64 = parts
                .iter()
                .map(|p| report.get(&format!("{prefix}.{p}_share")).unwrap().value)
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "{prefix} shares sum to {sum}");
        }
        let mut tracer = Tracer::new();
        leg.record_spans(&mut tracer);
        assert_eq!(tracer.total("request").1, leg.requests.len());
        assert_eq!(
            tracer.self_ns("request"),
            0,
            "the two halves cover a request"
        );
    }

    #[test]
    fn a_wrong_invocation_count_is_a_failed_operation() {
        let mut resident = Resident::setup(&cfg(), "KMeans", 0).unwrap();
        resident.planned.single.invocations += 1;
        let mut measured = Measured::default();
        let leg = resident
            .serve(
                &Schedule::burst(5),
                2_000.0,
                Observe::Nothing,
                &mut measured,
            )
            .unwrap();
        assert_eq!(measured.attempted, 5);
        assert_eq!(measured.failed, 5);
        assert!(leg.latency_us.is_empty());
    }
}
