//! The serving loop: a resident deployment fed by an arrival process.
//!
//! A [`ServingSession`] wraps a [`ResidentRun`] (workers live, waiting) and
//! drives it open-loop: the arrival clock advances by each gap the
//! [`ArrivalProcess`] yields regardless of what the executor is doing,
//! so offered load past capacity shows up as latency and shed — never
//! as a silently slowed generator.
//!
//! Arrivals that land within one *batch window* coalesce into a
//! micro-batch injected with a single ledger/router pass per request
//! but one clock advance per tick — the cheap way to absorb bursty
//! processes whose instantaneous rate far exceeds the tick rate.
//!
//! Two pacing modes:
//!
//! - [`Pacing::Wall`] — gaps are slept; latencies are real wall time
//!   including queueing delay. The mode the load-sweep benchmark uses.
//! - [`Pacing::Stepped`] — gaps advance a virtual clock only, and the
//!   executor drains fully after every micro-batch; completions within
//!   a tick are ordered by request id. Same seed ⇒ same admission
//!   decisions, same injection order, same completion order, at any
//!   worker-thread count — the mode the determinism tests use.

use crate::admission::{AdmissionControl, AdmissionVerdict};
use crate::arrivals::ArrivalProcess;
use crate::error::ServingError;
use crate::ingress::{ChannelIngress, Drained};
use bamboo_runtime::ledger::Completion;
use bamboo_runtime::{
    AdaptReport, AdaptiveController, Deployment, NativePayload, RelayoutHandle, ResidentRun,
    RunOptions, ThreadedExecutor, ThreadedReport,
};
use bamboo_telemetry::analyze::LatencyHistogram;
use bamboo_telemetry::event::arrival_source;
use bamboo_telemetry::scope::{ScopeConfig, ScopeHandle, ScopeRecorder, ScopeSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the server treats arrival gaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Sleep each gap: real open-loop load, wall-clock latencies.
    #[default]
    Wall,
    /// Advance a virtual clock only and drain the executor after every
    /// micro-batch: deterministic end-to-end, used by tests.
    Stepped,
}

/// Serving configuration.
#[derive(Debug, Default)]
pub struct ServingOptions {
    /// Admission policy applied to every arrival.
    pub admission: AdmissionControl,
    /// Gap handling (see [`Pacing`]).
    pub pacing: Pacing,
    /// Live observability plane (`None` = off, zero overhead). When
    /// set, the server feeds a [`ScopeRecorder`] from the request
    /// lifecycle and [`ServingSession::scope`] exposes live snapshots.
    pub scope: Option<ScopeConfig>,
}

impl ServingOptions {
    /// Defaults: open admission, wall pacing, no scope plane. The same
    /// as [`ServingOptions::default`].
    pub fn new() -> Self {
        ServingOptions::default()
    }

    /// Sets the admission policy.
    pub fn with_admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the pacing mode.
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Enables the live scope plane with `config`.
    pub fn with_scope(mut self, config: ScopeConfig) -> Self {
        self.scope = Some(config);
        self
    }
}

/// Everything a serving run produced.
#[derive(Debug)]
pub struct ServingReport {
    /// Arrivals offered by the process.
    pub arrivals: u64,
    /// Arrivals admitted and injected.
    pub admitted: u64,
    /// Arrivals shed at admission (either policy).
    pub shed: u64,
    /// Sheds attributed to the token bucket.
    pub shed_rate_limit: u64,
    /// Sheds attributed to queue depth.
    pub shed_queue_depth: u64,
    /// Requests whose work drained to zero.
    pub completed: u64,
    /// Admit→complete wall latency per completed request, microseconds,
    /// in completion-detection order ([`Self::latency`] buckets them).
    pub raw_latency_us: Vec<u64>,
    /// Every completion, in detection order (request-id order within a
    /// tick under [`Pacing::Stepped`]).
    pub completions: Vec<Completion>,
    /// The adaptive controller's activity, when the run was started
    /// with an [`bamboo_runtime::AdaptPolicy`].
    pub adapt: Option<AdaptReport>,
    /// The scope plane's final snapshot, when the run was served with
    /// [`ServingOptions::with_scope`].
    pub scope: Option<ScopeSnapshot>,
    /// The resident executor's final report.
    pub executor: ThreadedReport,
}

impl ServingReport {
    /// The admit→complete latencies as a histogram (quantiles within
    /// its ~3% bucket resolution; [`Self::raw_latency_us`] is exact).
    pub fn latency(&self) -> LatencyHistogram {
        let mut histogram = LatencyHistogram::new();
        for &us in &self.raw_latency_us {
            histogram.record(us);
        }
        histogram
    }

    /// One-line latency summary.
    pub fn latency_summary(&self) -> String {
        format!(
            "arrivals={} admitted={} shed={} completed={} latency[{}]",
            self.arrivals,
            self.admitted,
            self.shed,
            self.completed,
            self.latency().summary("us"),
        )
    }
}

/// Micro-batch cap: at most this many admitted arrivals are injected
/// per tick.
const MAX_BATCH: usize = 8;

/// Arrivals separated by gaps at or below this coalesce into the
/// current micro-batch.
const BATCH_WINDOW: Duration = Duration::from_micros(100);

/// The id of the first shed arrival; the n-th shed gets
/// `SHED_ID_BASE + n`. Admitted requests count up from 1 and never
/// reach it, so a shed id names no admitted request.
const SHED_ID_BASE: u64 = 1 << 63;

/// How often the wall-pacing driver ticks the adaptive controller.
const WALL_ADAPT_CADENCE: Duration = Duration::from_millis(10);

/// How the server drives the adaptive controller, when the run was
/// started with an `AdaptPolicy`.
///
/// Stepped pacing ticks *synchronously* after each micro-batch's drain
/// — the executor is idle at that point, so the estimator snapshot,
/// the seeded DSA search, and therefore every migration decision are
/// deterministic at any worker-thread count. Wall pacing ticks from a
/// background thread against real elapsed time.
enum AdaptDriver {
    Off,
    Stepped(Box<AdaptiveController>),
    Wall {
        stop: Arc<AtomicBool>,
        thread: std::thread::JoinHandle<AdaptReport>,
    },
}

impl AdaptDriver {
    /// Stops the driver and returns the controller's report (`None`
    /// when adaptation was off).
    fn finish(self) -> Option<AdaptReport> {
        match self {
            AdaptDriver::Off => None,
            AdaptDriver::Stepped(ctrl) => Some(ctrl.into_report()),
            AdaptDriver::Wall { stop, thread } => {
                stop.store(true, Ordering::Relaxed);
                Some(thread.join().expect("adapt driver thread panicked"))
            }
        }
    }
}

/// A resident deployment being served: offer traffic, read the live
/// layout through [`Self::relayout_handle`], stop for the report.
/// Create with `DeploymentHandle::serve` (or [`ServingSession::start`]),
/// drive with [`ServingSession::serve`] /
/// [`ServingSession::serve_channel`], end with [`ServingSession::stop`].
pub struct ServingSession {
    run: ResidentRun,
    adapt: AdaptDriver,
    admission: AdmissionControl,
    pacing: Pacing,
    /// Virtual arrival clock: the sum of all gaps so far. Wall pacing
    /// sleeps until `started + clock`; the admission bucket always
    /// refills from this clock so both pacings decide identically.
    clock: Duration,
    started: Instant,
    /// Live scope plane; fed from the driver so stepped pacing stays
    /// deterministic (all feeds happen on the serving thread, on the
    /// virtual clock).
    scope: Option<ScopeRecorder>,
    admit_at: HashMap<u64, Instant>,
    raw_latency_us: Vec<u64>,
    completions: Vec<Completion>,
    arrivals: u64,
    admitted: u64,
    shed: u64,
    shed_rate_limit: u64,
    shed_queue_depth: u64,
}

impl ServingSession {
    /// Starts `deployment` resident and wraps it in a session.
    ///
    /// # Errors
    ///
    /// [`ServingError::Exec`] when the deployment cannot start (e.g. an
    /// interpreted program).
    pub fn start(
        deployment: &Deployment,
        run_options: RunOptions,
        options: ServingOptions,
    ) -> Result<Self, ServingError> {
        let started = Instant::now();
        // The run only arms its estimator on the policy; the session
        // drives the controller per the pacing mode.
        let policy = run_options.adapt.clone();
        let run = ThreadedExecutor::default().start(deployment, run_options)?;
        let adapt = match policy {
            None => AdaptDriver::Off,
            Some(policy) => {
                let controller = AdaptiveController::new(policy, run.relayout_handle());
                match options.pacing {
                    Pacing::Stepped => AdaptDriver::Stepped(Box::new(controller)),
                    Pacing::Wall => {
                        let stop = Arc::new(AtomicBool::new(false));
                        let flag = stop.clone();
                        let thread = std::thread::spawn(move || {
                            let mut controller = controller;
                            while !flag.load(Ordering::Relaxed) {
                                // A rejected commit (e.g. a core died
                                // under chaos) leaves the run intact;
                                // keep serving on the current layout.
                                let _ = controller.tick(started.elapsed());
                                std::thread::sleep(WALL_ADAPT_CADENCE);
                            }
                            controller.into_report()
                        });
                        AdaptDriver::Wall { stop, thread }
                    }
                }
            }
        };
        Ok(ServingSession {
            run,
            adapt,
            admission: options.admission,
            pacing: options.pacing,
            clock: Duration::ZERO,
            started,
            scope: options.scope.map(ScopeRecorder::new),
            admit_at: HashMap::new(),
            raw_latency_us: Vec::new(),
            completions: Vec::new(),
            arrivals: 0,
            admitted: 0,
            shed: 0,
            shed_rate_limit: 0,
            shed_queue_depth: 0,
        })
    }

    /// Requests admitted but not yet complete.
    pub fn outstanding(&self) -> usize {
        self.run.outstanding()
    }

    /// Whether the runtime's request ledger is fully drained.
    pub fn ledger_is_empty(&self) -> bool {
        self.run.ledger_is_empty()
    }

    /// The live run's layout and epoch (epoch 0 until the first hot
    /// relayout commits); the handle stays readable after
    /// [`Self::stop`].
    pub fn relayout_handle(&self) -> RelayoutHandle {
        self.run.relayout_handle()
    }

    /// A handle onto the live scope plane (`None` unless the session
    /// was started with a scope config). Snapshots can be taken from
    /// any thread while the deployment keeps serving.
    pub fn scope(&self) -> Option<ScopeHandle> {
        self.scope.as_ref().map(ScopeRecorder::handle)
    }

    /// The scope plane's clock, microseconds: the virtual arrival
    /// clock under stepped pacing (deterministic at any thread count),
    /// wall time since start otherwise.
    fn scope_now_us(&self) -> u64 {
        match self.pacing {
            Pacing::Stepped => self.clock.as_micros() as u64,
            Pacing::Wall => self.started.elapsed().as_micros() as u64,
        }
    }

    /// Offers `total` arrivals from `process`, open-loop: each arrival
    /// advances the clock by the process's gap, passes admission, and
    /// (if admitted) joins the current micro-batch; `make` builds the
    /// root payload per admitted request, keyed by its request id.
    /// Completions are collected as they surface; call
    /// [`Self::stop`] (or [`Self::await_idle`]) afterwards to wait for
    /// stragglers.
    ///
    /// # Errors
    ///
    /// [`ServingError::Exec`] when the executor fails underneath
    /// (stepped pacing drains between ticks and surfaces failures
    /// immediately; wall pacing surfaces them on the next poll).
    pub fn serve(
        &mut self,
        process: &mut dyn ArrivalProcess,
        total: usize,
        mut make: impl FnMut(u64) -> NativePayload,
    ) -> Result<(), ServingError> {
        let source = process.source_tag();
        let mut batch: Vec<NativePayload> = Vec::new();
        for _ in 0..total {
            let gap = process.next_gap();
            if !batch.is_empty() && (gap > BATCH_WINDOW || batch.len() >= MAX_BATCH) {
                self.flush(std::mem::take(&mut batch))?;
            }
            self.advance(gap)?;
            if let Some(payload) = self.offer(source, batch.len(), &mut make) {
                batch.push(payload);
            }
        }
        if !batch.is_empty() {
            self.flush(batch)?;
        }
        Ok(())
    }

    /// Serves payloads submitted through a [`ChannelIngress`] until
    /// every [`crate::IngressHandle`] is dropped and the queue is
    /// drained. Admission applies to each submission; the arrival
    /// clock is wall time (there is no process to pace).
    ///
    /// # Errors
    ///
    /// [`ServingError::Exec`] when the executor fails underneath.
    pub fn serve_channel(&mut self, mut ingress: ChannelIngress) -> Result<(), ServingError> {
        loop {
            match ingress.drain_timeout(Duration::from_millis(1)) {
                Drained::Closed => return Ok(()),
                Drained::Empty => {
                    self.poll()?;
                }
                Drained::Payload(first) => {
                    self.clock = self.started.elapsed();
                    let mut batch = Vec::new();
                    if let Some(p) = self.offer_payload(arrival_source::CHANNEL, 0, first) {
                        batch.push(p);
                    }
                    // Coalesce whatever else is already queued.
                    while batch.len() < MAX_BATCH {
                        match ingress.try_drain() {
                            Drained::Payload(p) => {
                                if let Some(p) =
                                    self.offer_payload(arrival_source::CHANNEL, batch.len(), p)
                                {
                                    batch.push(p);
                                }
                            }
                            Drained::Empty | Drained::Closed => break,
                        }
                    }
                    if !batch.is_empty() {
                        self.flush(batch)?;
                    }
                }
            }
        }
    }

    /// Advances the arrival clock by `gap` (sleeping under wall
    /// pacing) and polls completions.
    fn advance(&mut self, gap: Duration) -> Result<(), ServingError> {
        self.clock += gap;
        if self.pacing == Pacing::Wall {
            let target = self.started + self.clock;
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        self.poll()
    }

    /// Runs admission on one arrival, records it, and builds its
    /// payload if admitted. `queued` is how many admitted arrivals are
    /// already waiting in the current micro-batch.
    fn offer(
        &mut self,
        source: u64,
        queued: usize,
        make: &mut impl FnMut(u64) -> NativePayload,
    ) -> Option<NativePayload> {
        let snow = self.scope_now_us();
        let ts = self.run.driver_sink().now();
        self.arrivals += 1;
        // The backlog is every admitted request not yet complete, plus
        // the batch-mates ahead of this arrival. Stepped pacing drains
        // after every micro-batch, so there it is the batch alone.
        let verdict = self
            .admission
            .decide(self.clock, self.run.outstanding() + queued);
        let request = match verdict {
            // Ids are minted in injection order, and `queued`
            // batch-mates inject first.
            AdmissionVerdict::Admit => self.run.next_request_id() + queued as u64,
            AdmissionVerdict::Shed(_) => SHED_ID_BASE + self.shed,
        };
        self.run.driver_sink().req_arrive(ts, request, source);
        if let Some(scope) = &self.scope {
            scope.arrive(snow, request);
        }
        match verdict {
            AdmissionVerdict::Admit => Some(make(request)),
            AdmissionVerdict::Shed(reason) => {
                self.run.driver_sink().req_shed(ts, request, reason.tag());
                if let Some(scope) = &self.scope {
                    scope.shed(snow, request);
                }
                self.shed += 1;
                match reason {
                    crate::error::ShedReason::RateLimit => self.shed_rate_limit += 1,
                    crate::error::ShedReason::QueueDepth => self.shed_queue_depth += 1,
                }
                None
            }
        }
    }

    /// [`Self::offer`] for an already-built payload (channel
    /// ingress); sheds drop the payload.
    fn offer_payload(
        &mut self,
        source: u64,
        queued: usize,
        payload: NativePayload,
    ) -> Option<NativePayload> {
        let mut slot = Some(payload);
        self.offer(source, queued, &mut |_| slot.take().expect("one payload"))
    }

    /// Injects a micro-batch and, under stepped pacing, drains the
    /// executor so the tick's completions surface deterministically.
    fn flush(&mut self, batch: Vec<NativePayload>) -> Result<(), ServingError> {
        let now = Instant::now();
        let snow = self.scope_now_us();
        let ids = self.run.inject_batch(batch);
        self.admitted += ids.len() as u64;
        for id in ids {
            if let Some(scope) = &self.scope {
                scope.admit(snow, id);
            }
            self.admit_at.insert(id, now);
        }
        if self.pacing == Pacing::Stepped {
            self.run.drain()?;
            let mut tick: Vec<Completion> = self.run.try_completions();
            tick.sort_by_key(|c| c.request);
            for c in tick {
                self.record(c);
            }
            // Synchronous controller tick at the drained point: the
            // executor is idle, so the estimator snapshot (and thus
            // the migration decision) is a pure function of the
            // arrival history — deterministic at any thread count.
            if let AdaptDriver::Stepped(controller) = &mut self.adapt {
                controller.tick(self.clock)?;
            }
        }
        Ok(())
    }

    /// Collects surfaced completions and checks executor health.
    fn poll(&mut self) -> Result<(), ServingError> {
        for c in self.run.try_completions() {
            self.record(c);
        }
        match self.run.failure() {
            Some(err) => Err(err.into()),
            None => Ok(()),
        }
    }

    fn record(&mut self, c: Completion) {
        if let Some(admitted) = self.admit_at.remove(&c.request) {
            let us = c
                .completed_at
                .saturating_duration_since(admitted)
                .as_micros() as u64;
            self.raw_latency_us.push(us);
        }
        if let Some(scope) = &self.scope {
            scope.complete(self.scope_now_us(), c.request, c.invocations);
        }
        self.completions.push(c);
    }

    /// Waits until every admitted request completes (or the executor
    /// fails).
    ///
    /// # Errors
    ///
    /// [`ServingError::Exec`] with the executor's first unrecoverable
    /// fault; outstanding requests of a failed run never complete.
    pub fn await_idle(&mut self) -> Result<(), ServingError> {
        self.run.drain()?;
        self.poll()
    }

    /// Waits for outstanding requests, shuts the deployment down, and
    /// returns the combined report (admission, latency, relayout and
    /// adaptation sections).
    ///
    /// # Errors
    ///
    /// [`ServingError::Exec`] with the executor's first unrecoverable
    /// fault (shutdown never hangs on a failed run).
    pub fn stop(mut self) -> Result<ServingReport, ServingError> {
        let idle = self.await_idle();
        // Stop the controller before the workers: a commit landing
        // mid-shutdown would be harmless but pointless.
        let adapt = self.adapt.finish();
        // Always stop the workers — even on a failed run — so a typed
        // error never leaks live threads.
        let executor = self.run.shutdown();
        let scope = self.scope.as_ref().map(ScopeRecorder::snapshot);
        idle?;
        let executor = executor?;
        Ok(ServingReport {
            arrivals: self.arrivals,
            admitted: self.admitted,
            shed: self.shed,
            shed_rate_limit: self.shed_rate_limit,
            shed_queue_depth: self.shed_queue_depth,
            completed: self.completions.len() as u64,
            raw_latency_us: self.raw_latency_us,
            completions: self.completions,
            adapt,
            scope,
            executor,
        })
    }
}
