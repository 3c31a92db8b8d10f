//! Online adaptive re-layout: the doctor→DSA loop closed at runtime.
//!
//! The synthesis pipeline places groups on cores using a *profiled*
//! Markov model. When the live workload drifts from that profile — a
//! serving mix shifts, a phase change alters exit rates — the static
//! layout's load balance decays. This module closes the loop while the
//! deployment keeps running:
//!
//! 1. a [`LiveEstimator`](bamboo_telemetry::analyze::LiveEstimator)
//!    (fed by the executor on every invocation)
//!    re-estimates the Markov model — exit rates, per-exit cycles,
//!    allocation counts — from live telemetry;
//! 2. the [`AdaptiveController`] periodically snapshots that estimate,
//!    re-runs incremental DSA against it (reusing its [`SimCache`]
//!    across ticks while the estimated profile is unchanged), and
//! 3. when the predicted improvement clears a hysteresis threshold,
//!    commits a *hot migration* of the diverging instances through
//!    [`RelayoutHandle::migrate`](crate::threaded::RelayoutHandle::migrate)
//!    — queues drain, the live assignment swaps, the layout epoch bumps,
//!    and not a single in-flight request is lost or double-counted.
//!
//! The controller is deliberately passive: it only acts when [`tick`]
//! is called. Stepped-pacing serving drivers tick synchronously between
//! micro-batches (deterministic decisions at any worker-thread count);
//! wall-pacing drivers tick from a background thread.
//!
//! [`tick`]: AdaptiveController::tick

use crate::threaded::RelayoutHandle;
use bamboo_machine::MachineDescription;
use bamboo_profile::Profile;
use bamboo_schedule::{
    optimize_with_cache, simulate, DsaOptions, InstanceId, SimCache, SimOptions,
};
use bamboo_telemetry::analyze::{profile_fingerprint, rate_divergence};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// A hot-relayout commit was rejected. The batch is validated before
/// anything mutates, so a failed commit leaves the run exactly as it
/// was.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RelayoutError {
    /// A move named an instance the layout does not contain.
    UnknownInstance {
        /// The out-of-range instance index.
        instance: usize,
    },
    /// A move named a destination core outside the deployment.
    UnknownCore {
        /// The out-of-range core index.
        core: usize,
    },
    /// A move's destination, or the moved instance's current host, was
    /// killed by fault injection.
    DeadCore {
        /// The dead core.
        core: usize,
    },
}

impl fmt::Display for RelayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelayoutError::UnknownInstance { instance } => {
                write!(f, "relayout names unknown instance {instance}")
            }
            RelayoutError::UnknownCore { core } => {
                write!(f, "relayout names unknown core {core}")
            }
            RelayoutError::DeadCore { core } => {
                write!(f, "relayout targets dead core {core}")
            }
        }
    }
}

impl Error for RelayoutError {}

/// How many recently departed/adopted layout fingerprints the
/// controller remembers to suppress flapping (A→B→A→B oscillation
/// under an alternating workload mix).
const FLAP_MEMORY: usize = 4;

/// Seed of the controller's DSA search (decision determinism).
const SEARCH_SEED: u64 = 0xB00;

/// Input label stamped on the controller's snapshot profiles.
const SNAPSHOT_INPUT: &str = "live";

/// The controller's incremental DSA search: cut down from the offline
/// synthesis defaults (12 iterations, 6 moves per layout, 16
/// candidates, serial evaluation), because a tick shares the machine
/// with the workload it is optimizing. Replay is off: estimated
/// profiles carry aggregate rates, not sequences.
fn search_options() -> DsaOptions {
    let mut dsa = DsaOptions {
        max_iterations: 12,
        moves_per_layout: 6,
        max_candidates: 16,
        threads: 1,
        ..DsaOptions::default()
    };
    dsa.sim.replay = false;
    dsa
}

/// Configuration of the adaptive re-layout controller. Part of
/// [`RunOptions`](crate::deploy::RunOptions): pass one via
/// [`with_adapt`](crate::deploy::RunOptions::with_adapt) to arm the
/// live estimator, then drive an [`AdaptiveController`] against the
/// run's relayout handle (the serving front-end does this
/// automatically). The controller decides on every tick; the driver
/// provides the cadence.
#[derive(Clone, Debug)]
pub struct AdaptPolicy {
    /// Fractional predicted-makespan improvement a candidate layout
    /// must clear before a migration commits (the hysteresis
    /// threshold). `0.05` = 5%.
    pub min_improvement: f64,
    /// Relayout budget per [`window`](Self::window): further decisions
    /// in the same window are skipped, bounding migration churn.
    pub max_relayouts_per_window: u32,
    /// The budget window.
    pub window: Duration,
    /// Invocations the estimator must have observed before the first
    /// decision; below this the model is noise.
    pub min_invocations: u64,
    /// The machine model the controller simulates against (normally
    /// the deployment's synthesis machine).
    pub machine: MachineDescription,
    /// Static profile completing the live estimate for tasks not yet
    /// observed, and the reference for divergence reporting.
    pub baseline: Option<Profile>,
}

impl AdaptPolicy {
    /// A policy with adaptive defaults for `machine`: 5% improvement
    /// threshold, at most 2 relayouts per second, 64-invocation warmup.
    pub fn new(machine: MachineDescription) -> Self {
        AdaptPolicy {
            min_improvement: 0.05,
            max_relayouts_per_window: 2,
            window: Duration::from_secs(1),
            min_invocations: 64,
            machine,
            baseline: None,
        }
    }

    /// Sets the hysteresis improvement threshold (fractional).
    #[must_use]
    pub fn with_min_improvement(mut self, min_improvement: f64) -> Self {
        self.min_improvement = min_improvement;
        self
    }

    /// Sets the relayout budget: at most `relayouts` commits per
    /// `window`.
    #[must_use]
    pub fn with_budget(mut self, relayouts: u32, window: Duration) -> Self {
        self.max_relayouts_per_window = relayouts;
        self.window = window;
        self
    }

    /// Sets the estimator warmup (invocations before the first
    /// decision).
    #[must_use]
    pub fn with_min_invocations(mut self, min_invocations: u64) -> Self {
        self.min_invocations = min_invocations;
        self
    }

    /// Completes the live estimate with a static profile (tasks not
    /// yet observed take its statistics) and enables divergence
    /// reporting against it.
    #[must_use]
    pub fn with_baseline(mut self, baseline: Profile) -> Self {
        self.baseline = Some(baseline);
        self
    }
}

/// What the controller did over its lifetime, for reports and
/// `tests/adapt.rs`'s divergence check.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdaptReport {
    /// Ticks received (including warmup ones).
    pub ticks: u64,
    /// Ticks that ran a full estimate→simulate→optimize decision.
    pub decisions: u64,
    /// Relayout batches committed.
    pub relayouts: u64,
    /// Decisions whose winning layout was suppressed because it was
    /// recently departed or adopted (anti-flap memory).
    pub skipped_hysteresis: u64,
    /// Last observed↔baseline exit-rate divergence measured *before*
    /// the first committed relayout ([`rate_divergence`]).
    pub pre_divergence: Option<f64>,
    /// Last divergence measured *after* the first committed relayout.
    pub post_divergence: Option<f64>,
    /// Epochs the committed batches published, in commit order.
    pub epochs: Vec<u64>,
}

/// The adaptive re-layout controller. Owns a [`RelayoutHandle`] onto a
/// live resident run plus the cross-tick search state (persistent
/// [`SimCache`], seeded RNG, anti-flap memory, relayout budget window).
/// See the module docs for the loop it closes.
pub struct AdaptiveController {
    policy: AdaptPolicy,
    dsa: DsaOptions,
    handle: RelayoutHandle,
    cache: SimCache,
    /// Fingerprint of the estimated profile the cache was filled
    /// under; when the estimate moves, the cache is invalid (results
    /// are a function of the profile) and is dropped.
    profile_fp: u64,
    /// Fingerprints of recently departed/adopted layouts; a winning
    /// candidate matching one is suppressed (flap damping).
    recent: VecDeque<u64>,
    window_start: Option<Duration>,
    window_count: u32,
    rng: StdRng,
    report: AdaptReport,
}

impl AdaptiveController {
    /// A controller driving `handle` under `policy`.
    pub fn new(policy: AdaptPolicy, handle: RelayoutHandle) -> Self {
        AdaptiveController {
            policy,
            dsa: search_options(),
            handle,
            cache: SimCache::new(),
            profile_fp: 0,
            recent: VecDeque::new(),
            window_start: None,
            window_count: 0,
            rng: StdRng::seed_from_u64(SEARCH_SEED),
            report: AdaptReport::default(),
        }
    }

    /// The controller's activity so far.
    pub fn report(&self) -> &AdaptReport {
        &self.report
    }

    /// Consumes the controller, returning its final report.
    pub fn into_report(self) -> AdaptReport {
        self.report
    }

    /// One controller step at run-relative time `now` (the caller's
    /// clock: wall time for background drivers, virtual step time for
    /// stepped-pacing drivers — determinism follows from the caller's
    /// clock, the seeded search, and the estimator's drained-queue
    /// snapshot points). Runs the estimate→simulate→optimize decision
    /// once the warmup gate passes; commits a hot migration when the
    /// winning layout clears the improvement threshold, the anti-flap
    /// memory and the relayout budget.
    ///
    /// Returns the committed epoch, or `None` when no migration was
    /// warranted.
    ///
    /// # Errors
    ///
    /// Propagates [`RelayoutError`] from a rejected commit (e.g. a
    /// destination core died between the decision and the commit).
    pub fn tick(&mut self, now: Duration) -> Result<Option<u64>, RelayoutError> {
        self.report.ticks += 1;
        let Some(estimator) = self.handle.estimator() else {
            return Ok(None);
        };
        if estimator.invocations() < self.policy.min_invocations {
            return Ok(None);
        }
        self.report.decisions += 1;

        // 1. Re-estimate the Markov model from live telemetry.
        let profile = estimator.snapshot(SNAPSHOT_INPUT, self.policy.baseline.as_ref());
        if let Some(baseline) = &self.policy.baseline {
            let divergence = rate_divergence(&profile, baseline);
            if self.report.relayouts == 0 {
                self.report.pre_divergence = Some(divergence);
            } else {
                self.report.post_divergence = Some(divergence);
            }
        }
        let fp = profile_fingerprint(&profile);
        if fp != self.profile_fp {
            // Memoized results are a function of the profile.
            self.cache = SimCache::new();
            self.profile_fp = fp;
        }

        // 2. Incremental DSA from the live layout under the estimate.
        let (spec, graph) = (self.handle.spec(), self.handle.graph());
        let current = self.handle.current_layout();
        // Only the live layout's makespan is read: no trace.
        let here = simulate(
            spec,
            graph,
            &current,
            &profile,
            &self.policy.machine,
            &SimOptions {
                collect_trace: false,
                ..self.dsa.sim.clone()
            },
        );
        let current_fp = current.fingerprint(graph);
        let (best, best_result, _stats) = optimize_with_cache(
            spec,
            graph,
            &profile,
            &self.policy.machine,
            vec![current.clone()],
            &self.dsa,
            &mut self.rng,
            &mut self.cache,
        );

        // 3. Hysteresis: only a clear predicted win is worth churn.
        if here.makespan == 0 {
            return Ok(None);
        }
        let improvement =
            (here.makespan as f64 - best_result.makespan as f64) / here.makespan as f64;
        if improvement < self.policy.min_improvement {
            return Ok(None);
        }

        // 4. Diff the winner against the live assignment.
        let mut moves: Vec<(InstanceId, usize)> = Vec::new();
        for (i, inst) in best.instances.iter().enumerate() {
            let live = current.instances[i].core.index();
            let target = inst.core.index();
            if target == live || self.handle.is_core_dead(target) || self.handle.is_core_dead(live)
            {
                continue;
            }
            moves.push((InstanceId(i as u32), target));
        }
        if moves.is_empty() {
            return Ok(None);
        }

        // 5. Anti-flap: suppress a winner we recently departed or
        // adopted (an alternating mix would otherwise bounce the same
        // instances back and forth every window).
        let best_fp = best.fingerprint(graph);
        if self.recent.contains(&best_fp) {
            self.report.skipped_hysteresis += 1;
            return Ok(None);
        }

        // 6. Budget: bounded churn per window.
        match self.window_start {
            Some(start) if now < start + self.policy.window => {
                if self.window_count >= self.policy.max_relayouts_per_window {
                    return Ok(None);
                }
            }
            _ => {
                self.window_start = Some(now);
                self.window_count = 0;
            }
        }

        // 7. Commit.
        let epoch = self.handle.migrate(&moves)?;
        self.window_count += 1;
        self.report.relayouts += 1;
        self.report.epochs.push(epoch);
        for fp in [current_fp, best_fp] {
            if !self.recent.contains(&fp) {
                self.recent.push_back(fp);
                if self.recent.len() > FLAP_MEMORY {
                    self.recent.pop_front();
                }
            }
        }
        Ok(Some(epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relayout_error_displays() {
        assert_eq!(
            RelayoutError::UnknownInstance { instance: 7 }.to_string(),
            "relayout names unknown instance 7"
        );
        assert_eq!(
            RelayoutError::UnknownCore { core: 9 }.to_string(),
            "relayout names unknown core 9"
        );
        assert_eq!(
            RelayoutError::DeadCore { core: 3 }.to_string(),
            "relayout targets dead core 3"
        );
    }

    #[test]
    fn policy_builders_compose() {
        let machine = bamboo_machine::MachineDescription::tilepro64();
        let policy = AdaptPolicy::new(machine)
            .with_min_improvement(0.2)
            .with_budget(1, Duration::from_millis(500))
            .with_min_invocations(8);
        assert_eq!(policy.min_improvement, 0.2);
        assert_eq!(policy.max_relayouts_per_window, 1);
        assert_eq!(policy.window, Duration::from_millis(500));
        assert_eq!(policy.min_invocations, 8);
    }
}
