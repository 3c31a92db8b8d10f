//! Deployment-centric execution API.
//!
//! A [`Deployment`] bundles everything a synthesized implementation
//! needs to execute — the program, the (preprocessed) group graph, the
//! core layout, and the lock plans — into one artifact. Both executors
//! consume it: [`crate::ThreadedExecutor::run`] takes `&Deployment`
//! directly, and [`crate::VirtualExecutor::over`] borrows from the same
//! value, so predicted-vs-observed comparisons are guaranteed to run
//! the identical plan.
//!
//! [`RunOptions`] carries what a caller sets per run: the startup
//! payload, the telemetry session, fault injection and adaptive
//! re-layout.

use crate::adapt::AdaptPolicy;
use crate::chaos::FaultSpec;
use crate::program::{NativePayload, Program};
use bamboo_analysis::DisjointnessAnalysis;
use bamboo_schedule::{GroupGraph, Layout, SynthesisResult};
use bamboo_telemetry::Telemetry;

/// A fully synthesized, executable plan: `(program, graph, layout,
/// locks)` as one artifact.
///
/// Build one from a [`SynthesisResult`] with
/// [`Deployment::from_synthesis`], or assemble the parts explicitly
/// with [`Deployment::new`] (hand-made layouts, tests).
#[derive(Clone, Debug)]
pub struct Deployment {
    /// The executable program (spec + bodies).
    pub program: Program,
    /// The group graph the layout refers to.
    pub graph: GroupGraph,
    /// Group instances mapped to cores.
    pub layout: Layout,
    /// Lock plans from the disjointness analysis.
    pub locks: DisjointnessAnalysis,
}

impl Deployment {
    /// Bundles the four artifacts into a deployment.
    pub fn new(
        program: Program,
        graph: GroupGraph,
        layout: Layout,
        locks: DisjointnessAnalysis,
    ) -> Self {
        Deployment {
            program,
            graph,
            layout,
            locks,
        }
    }

    /// Builds a deployment from a synthesizer result: the graph and the
    /// winning layout are taken from `synthesis`, the program and lock
    /// plans from the compile side.
    pub fn from_synthesis(
        program: &Program,
        locks: &DisjointnessAnalysis,
        synthesis: &SynthesisResult,
    ) -> Self {
        Deployment {
            program: program.clone(),
            graph: synthesis.graph.clone(),
            layout: synthesis.layout.clone(),
            locks: locks.clone(),
        }
    }

    /// Number of cores the layout targets.
    pub fn core_count(&self) -> usize {
        self.layout.core_count
    }
}

/// Per-run configuration for [`crate::ThreadedExecutor::run`].
///
/// Not `Clone`: the startup payload is an owned `Box<dyn Any>`.
///
/// ```
/// use bamboo_runtime::RunOptions;
/// use bamboo_telemetry::Telemetry;
///
/// let opts = RunOptions::default().with_telemetry(Telemetry::enabled(4));
/// assert!(opts.telemetry.is_enabled());
/// assert!(opts.faults.is_none());
/// ```
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Payload for the startup object (`Box::new(())` when `None`).
    pub startup: Option<NativePayload>,
    /// Telemetry session to record into ([`Telemetry::disabled`] makes
    /// every recording site a no-op).
    pub telemetry: Telemetry,
    /// Deterministic fault injection (`None` = fault-free). Compiled
    /// into a [`crate::chaos::FaultPlan`] against the deployment's
    /// steal topology at run start; the resulting fault schedule is
    /// reported in `ThreadedReport::fault_schedule`.
    pub faults: Option<FaultSpec>,
    /// Online adaptive re-layout (`None` = the synthesized layout runs
    /// unchanged). Arms the live profile estimator; the serving
    /// front-end drives an [`crate::adapt::AdaptiveController`] under
    /// the policy.
    pub adapt: Option<AdaptPolicy>,
}

impl RunOptions {
    /// Sets the startup object's payload.
    #[must_use]
    pub fn with_startup(mut self, payload: NativePayload) -> Self {
        self.startup = Some(payload);
        self
    }

    /// Records the run into `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Arms online adaptive re-layout under `policy`.
    #[must_use]
    pub fn with_adapt(mut self, policy: AdaptPolicy) -> Self {
        self.adapt = Some(policy);
        self
    }

    /// Injects the given faults into the run (see [`FaultSpec`]).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// The bootstrap plan of `program` as a deployment, for tests that
/// hold a bare [`Program`] rather than an analysed compiler.
#[cfg(test)]
pub(crate) fn bootstrap(program: Program, locks: DisjointnessAnalysis) -> Deployment {
    let dependence = bamboo_analysis::DependenceAnalysis::run(&program.spec);
    let cstg = bamboo_analysis::Cstg::build(&program.spec, &dependence);
    let (graph, layout) = bamboo_schedule::bootstrap_plan(&program.spec, &cstg);
    Deployment::new(program, graph, layout, locks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pick_the_optimized_hot_path() {
        let opts = RunOptions::default();
        assert!(opts.startup.is_none());
        assert!(!opts.telemetry.is_enabled());
        assert!(opts.faults.is_none());
        assert!(opts.adapt.is_none());
    }
}
