//! The deployment lifecycle: `deploy → run | serve → adapt → stop`.
//!
//! The [`DeploymentHandle`] is the one lifecycle object from a
//! [`Deployment`] to a finished run:
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
//! direct control of the resident run (tests, custom drivers). Both
//! resident terminals read the live layout through their
//! [`RelayoutHandle`](bamboo_runtime::RelayoutHandle): epoch 0 is the
//! synthesized plan ([`DeploymentHandle::deployment`]'s layout), and
//! every hot relayout committed by the adaptive controller bumps the
//! epoch while the session keeps serving.

use crate::error::Error;
use crate::Compiler;
use bamboo_runtime::{
    AdaptPolicy, Deployment, FaultSpec, NativePayload, ResidentRun, RunOptions, ThreadedExecutor,
    ThreadedReport,
};
use bamboo_schedule::SynthesisResult;
use bamboo_serving::{ScopeConfig, ServingOptions, ServingSession};
use bamboo_telemetry::Telemetry;

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

    /// The deployment artifact this handle will run; its `layout` is
    /// the synthesized (epoch-0) layout.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
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
    pub fn serve(self, mut options: ServingOptions) -> Result<ServingSession, Error> {
        if options.scope.is_none() {
            options.scope = self.scope;
        }
        Ok(ServingSession::start(
            &self.deployment,
            self.options,
            options,
        )?)
    }
}
