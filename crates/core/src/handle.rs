//! The deployment lifecycle: `deploy → run | serve → adapt → snapshot/stop`.
//!
//! Before 0.7 the end-to-end flow was stitched from loose parts — build
//! a [`Deployment`], pick a `ThreadedExecutor`, hand both plus a
//! [`RunOptions`] to `run`/`start`, or thread them through
//! [`Server::start`] for serving — and the adaptive re-layout loop
//! (PR 7) would have added yet another handle to juggle. The
//! [`DeploymentHandle`] collapses that into one lifecycle object:
//!
//! ```text
//!   DeploymentHandle::deploy(&compiler, &plan)   // or ::from_deployment
//!       .with_telemetry(..)                      // RunOptions builders
//!       .with_adapt(AdaptPolicy::new(machine))   // arm the doctor→DSA loop
//!       .run()                                   // batch: one shot, report
//!       .serve(ServingOptions::new())            // resident: ServingSession
//!       .start()                                 // resident: raw ResidentRun
//! ```
//!
//! A handle is consumed by whichever terminal you pick — `run` for
//! batch, `serve` for the open-loop serving front-end, `start` for
//! direct control of the resident run (tests, custom drivers). The
//! serving path returns a [`ServingSession`] whose
//! [`snapshot`](ServingSession::snapshot) exposes the layout as a
//! *versioned artifact* ([`LayoutEpoch`]): epoch 0 is the synthesized
//! plan, and every hot relayout committed by the adaptive controller
//! bumps the epoch while the session keeps serving.

use crate::error::Error;
use crate::Compiler;
use bamboo_runtime::{
    AdaptPolicy, Deployment, FaultSpec, NativePayload, ResidentRun, RunOptions, ThreadedExecutor,
    ThreadedReport,
};
use bamboo_schedule::{Layout, SynthesisResult};
use bamboo_serving::{
    ArrivalProcess, ChannelIngress, ScopeConfig, ScopeHandle, Server, ServingOptions, ServingReport,
};
use bamboo_telemetry::Telemetry;
use std::fmt;

/// A versioned layout artifact: which [`Layout`] routed the deployment
/// at a given adaptation epoch.
///
/// Epoch 0 is the synthesized plan; each committed hot relayout bumps
/// the epoch by one and overlays the migrated groups' new cores on the
/// topology. Doctor verdicts, serving reports, and `relayout.*`
/// telemetry all stamp the epoch they observed, so post-hoc analysis
/// can attribute every window to the layout that produced it.
#[derive(Clone, Debug)]
pub struct LayoutEpoch {
    /// The adaptation epoch (0 = the synthesized layout, before any
    /// hot relayout).
    pub epoch: u64,
    /// The layout live at that epoch.
    pub layout: Layout,
}

impl LayoutEpoch {
    /// Whether this is the synthesized (pre-adaptation) layout.
    pub fn is_initial(&self) -> bool {
        self.epoch == 0
    }
}

impl fmt::Display for LayoutEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layout@epoch{} ({} instances)",
            self.epoch,
            self.layout.instances.len()
        )
    }
}

/// One deployment, one lifecycle: configure with the builder methods,
/// then consume with [`run`](Self::run) (batch),
/// [`serve`](Self::serve) (open-loop serving), or
/// [`start`](Self::start) (raw resident run).
///
/// See the [module docs](self) for the lifecycle diagram. All
/// [`RunOptions`] builders are mirrored here, so callers never need to
/// name `RunOptions` at all.
pub struct DeploymentHandle {
    deployment: Deployment,
    options: RunOptions,
    scope: Option<ScopeConfig>,
}

impl DeploymentHandle {
    /// Bundles `compiler`'s program and lock plans with `plan`'s graph
    /// and layout into a runnable handle (epoch-0 layout).
    pub fn deploy(compiler: &Compiler, plan: &SynthesisResult) -> Self {
        Self::from_deployment(compiler.deploy(plan))
    }

    /// Wraps an already-assembled [`Deployment`] (hand-made layouts,
    /// tests).
    pub fn from_deployment(deployment: Deployment) -> Self {
        DeploymentHandle {
            deployment,
            options: RunOptions::default(),
            scope: None,
        }
    }

    /// Sets the batch run's startup payload (ignored by the resident
    /// terminals, which inject per request).
    pub fn with_startup(mut self, payload: NativePayload) -> Self {
        self.options = self.options.with_startup(payload);
        self
    }

    /// Attaches a telemetry session.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.options = self.options.with_telemetry(telemetry);
        self
    }

    /// Arms the adaptive re-layout loop: the run carries a live Markov
    /// estimator and (under [`serve`](Self::serve)) an
    /// [`AdaptiveController`](bamboo_runtime::AdaptiveController) that
    /// hot-migrates groups when the re-estimated model says a better
    /// layout exists.
    pub fn with_adapt(mut self, policy: AdaptPolicy) -> Self {
        self.options = self.options.with_adapt(policy);
        self
    }

    /// Injects a deterministic fault schedule.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.options = self.options.with_faults(faults);
        self
    }

    /// Arms the live observability plane (`bamboo-scope`, DESIGN.md
    /// §17) for the [`serve`](Self::serve) terminal: sliding-window
    /// latency quantiles, shed rate, SLO burn-rate, and tail-based span
    /// sampling, snapshotted on demand through
    /// [`ServingSession::scope`]. Ignored by the batch terminals.
    ///
    /// A scope config set explicitly on the [`ServingOptions`] passed
    /// to `serve` wins over this one.
    pub fn with_scope(mut self, config: ScopeConfig) -> Self {
        self.scope = Some(config);
        self
    }

    /// The deployment artifact this handle will run.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The synthesized (epoch-0) layout artifact.
    pub fn planned_layout(&self) -> LayoutEpoch {
        LayoutEpoch {
            epoch: 0,
            layout: self.deployment.layout.clone(),
        }
    }

    /// Terminal: runs the deployment as one batch job (the whole run is
    /// a single request) and returns the executor's report.
    ///
    /// # Errors
    ///
    /// Executor failures ([`Error::Exec`], [`Error::CoreLost`]).
    pub fn run(self) -> Result<ThreadedReport, Error> {
        ThreadedExecutor::default()
            .run(&self.deployment, self.options)
            .map_err(Into::into)
    }

    /// Terminal: starts the deployment resident and hands back the raw
    /// [`ResidentRun`] — per-request injection, completions, and the
    /// [`RelayoutHandle`](bamboo_runtime::RelayoutHandle) for direct
    /// (non-controller) hot migration. Tests and custom drivers use
    /// this; most callers want [`serve`](Self::serve).
    ///
    /// # Errors
    ///
    /// [`Error::Exec`] when the deployment cannot start.
    pub fn start(self) -> Result<ResidentRun, Error> {
        ThreadedExecutor::default()
            .start(&self.deployment, self.options)
            .map_err(Into::into)
    }

    /// Terminal: starts the deployment resident behind the serving
    /// front-end (admission, pacing, micro-batching, latency
    /// accounting) and returns the live [`ServingSession`].
    ///
    /// # Errors
    ///
    /// [`Error::Exec`] when the deployment cannot start.
    pub fn serve(self, options: ServingOptions) -> Result<ServingSession, Error> {
        let mut options = options;
        if options.scope.is_none() {
            options.scope = self.scope;
        }
        let server = Server::start(
            &ThreadedExecutor::default(),
            &self.deployment,
            self.options,
            options,
        )?;
        Ok(ServingSession { server })
    }
}

/// A live serving deployment: offer traffic, snapshot the (possibly
/// adapting) layout, stop for the report.
///
/// Produced by [`DeploymentHandle::serve`]. Wraps [`Server`] with the
/// unified [`Error`] surface and the [`LayoutEpoch`] artifact;
/// [`server_mut`](Self::server_mut) reaches the full serving API.
pub struct ServingSession {
    server: Server,
}

impl ServingSession {
    /// Offers `total` open-loop arrivals from `process`; `make` builds
    /// each admitted request's root payload, keyed by request id.
    ///
    /// # Errors
    ///
    /// [`Error::Exec`] when the executor fails underneath,
    /// [`Error::RelayoutFailed`] when a stepped-pacing adaptation
    /// commit is rejected.
    pub fn serve(
        &mut self,
        process: &mut dyn ArrivalProcess,
        total: usize,
        make: impl FnMut(u64) -> NativePayload,
    ) -> Result<(), Error> {
        self.server.serve(process, total, make).map_err(Into::into)
    }

    /// Serves payloads submitted through a [`ChannelIngress`] until
    /// every handle is dropped and the queue drains.
    ///
    /// # Errors
    ///
    /// [`Error::Exec`] when the executor fails underneath.
    pub fn serve_channel(&mut self, ingress: ChannelIngress) -> Result<(), Error> {
        self.server.serve_channel(ingress).map_err(Into::into)
    }

    /// Waits until every admitted request completes.
    ///
    /// # Errors
    ///
    /// [`Error::Exec`] with the executor's first unrecoverable fault.
    pub fn await_idle(&mut self) -> Result<(), Error> {
        self.server.await_idle().map_err(Into::into)
    }

    /// Snapshot: the layout currently routing the deployment, stamped
    /// with its adaptation epoch. Epoch 0 until the first hot relayout
    /// commits.
    pub fn snapshot(&self) -> LayoutEpoch {
        LayoutEpoch {
            epoch: self.server.layout_epoch(),
            layout: self.server.current_layout(),
        }
    }

    /// Instances migrated by hot relayouts so far.
    pub fn relayouts(&self) -> u64 {
        self.server.relayouts()
    }

    /// The live observability handle (`None` unless the session was
    /// started with a scope config, via
    /// [`DeploymentHandle::with_scope`] or
    /// [`ServingOptions::with_scope`]). The handle is cloneable and
    /// snapshot-safe from other threads while the session keeps
    /// serving.
    pub fn scope(&self) -> Option<ScopeHandle> {
        self.server.scope_handle()
    }

    /// Requests admitted but not yet complete.
    pub fn outstanding(&self) -> usize {
        self.server.outstanding()
    }

    /// The underlying server (full serving API: admission stats,
    /// latency summaries, completions).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Mutable access to the underlying server.
    pub fn server_mut(&mut self) -> &mut Server {
        &mut self.server
    }

    /// Terminal: waits for outstanding requests, shuts the deployment
    /// down, and returns the combined report (admission, latency,
    /// relayout, and adaptation sections).
    ///
    /// # Errors
    ///
    /// [`Error::Exec`] with the executor's first unrecoverable fault.
    pub fn stop(self) -> Result<ServingReport, Error> {
        self.server.finish().map_err(Into::into)
    }
}
