//! The doctor's regression gate.
//!
//! Every check compares a fresh observation of the build under test
//! against a reference that needs no recorded file and holds on any
//! host:
//!
//! * the threaded run's invocation count must equal the virtual
//!   executor's on the same deployment **exactly** — a mismatch is a
//!   functional regression, not noise;
//! * lock retries per invocation get a small absolute tolerance band —
//!   this is the check that catches an accidentally introduced retry
//!   loop (the synthetic-slowdown acceptance test);
//! * the observed critical path must do *some* compute — a near-zero
//!   compute share means the executor spent the run waiting, which no
//!   amount of machine noise explains;
//! * the serving, adaptive, scope and chaos probes account for every
//!   request, fault and span exactly.
//!
//! Throughput and latency are not gated here: the repository's one
//! benchmark (`BENCHMARK.json`) measures them, paired against the
//! parent build on the same host.

use crate::json::{self, write_str};
use std::fmt::Write as _;

/// Absolute slack on lock retries per invocation.
pub const RETRY_SLACK_PER_INVOCATION: f64 = 0.25;
/// Minimum compute share of the observed critical path.
pub const COMPUTE_SHARE_FLOOR: f64 = 0.01;

/// One benchmark's threaded run on the build under test.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Benchmark name (e.g. `"KMeans"`).
    pub name: String,
    /// Invocations the threaded run executed.
    pub invocations: f64,
    /// Invocations the virtual executor runs on the same deployment.
    pub expected_invocations: f64,
    /// Lock retries of the threaded run.
    pub lock_retries: f64,
    /// Compute share of the observed critical path (0..=1).
    pub compute_share: f64,
}

/// One evaluated tolerance check.
#[derive(Clone, Debug)]
pub struct Check {
    /// Benchmark the check belongs to.
    pub bench: String,
    /// Stable check identifier.
    pub name: &'static str,
    /// The measured value.
    pub observed: f64,
    /// The boundary it was compared against.
    pub limit: f64,
    /// Whether the check passed.
    pub pass: bool,
    /// Human-readable comparison.
    pub detail: String,
}

/// The gate's complete output.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Every evaluated check.
    pub checks: Vec<Check>,
}

impl Verdict {
    /// Whether every check passed.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Number of failed checks.
    pub fn failures(&self) -> usize {
        self.checks.iter().filter(|c| !c.pass).count()
    }

    /// Renders the verdict as an aligned table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "regression gate: {} ({} checks, {} failed)\n",
            if self.pass() { "PASS" } else { "FAIL" },
            self.checks.len(),
            self.failures(),
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  [{}] {:<12} {:<28} {}",
                if c.pass { "ok" } else { "FAIL" },
                c.bench,
                c.name,
                c.detail
            );
        }
        out
    }

    /// Serializes the verdict as a JSON document (the CI artifact).
    ///
    /// When any `serving-*` (or `adapt-*`, `scope-*`) checks are
    /// present a `serving` (`adapt`, `scope`) section summarizes them,
    /// so CI jobs gating only on one surface can read one member
    /// instead of filtering the flat check list.
    pub fn json(&self) -> String {
        let mut out = format!("{{\"pass\":{}", self.pass());
        let serving: Vec<&Check> = self
            .checks
            .iter()
            .filter(|c| c.name.starts_with("serving-"))
            .collect();
        if !serving.is_empty() {
            let _ = write!(
                out,
                ",\"serving\":{{\"pass\":{},\"checks\":{},\"failed\":{}}}",
                serving.iter().all(|c| c.pass),
                serving.len(),
                serving.iter().filter(|c| !c.pass).count(),
            );
        }
        let adapt: Vec<&Check> = self
            .checks
            .iter()
            .filter(|c| c.name.starts_with("adapt-"))
            .collect();
        if !adapt.is_empty() {
            let _ = write!(
                out,
                ",\"adapt\":{{\"pass\":{},\"checks\":{},\"failed\":{}}}",
                adapt.iter().all(|c| c.pass),
                adapt.len(),
                adapt.iter().filter(|c| !c.pass).count(),
            );
        }
        let scope: Vec<&Check> = self
            .checks
            .iter()
            .filter(|c| c.name.starts_with("scope-"))
            .collect();
        if !scope.is_empty() {
            let _ = write!(
                out,
                ",\"scope\":{{\"pass\":{},\"checks\":{},\"failed\":{}}}",
                scope.iter().all(|c| c.pass),
                scope.len(),
                scope.iter().filter(|c| !c.pass).count(),
            );
        }
        out.push_str(",\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"bench\":");
            write_str(&mut out, &c.bench);
            out.push_str(",\"check\":");
            write_str(&mut out, c.name);
            out.push_str(",\"observed\":");
            json::write_f64(&mut out, c.observed);
            out.push_str(",\"limit\":");
            json::write_f64(&mut out, c.limit);
            let _ = write!(out, ",\"pass\":{}", c.pass);
            out.push_str(",\"detail\":");
            write_str(&mut out, &c.detail);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// One benchmark's chaos-run measurements: a clean (fault-free) run and
/// two same-seed faulty runs under the default fault plan.
#[derive(Clone, Debug, Default)]
pub struct ChaosObservation {
    /// Benchmark name.
    pub name: String,
    /// Rendered fault schedule of the first faulty run.
    pub schedule_a: String,
    /// Rendered fault schedule of the second same-seed faulty run.
    pub schedule_b: String,
    /// Result checksum of the fault-free run.
    pub clean_checksum: u64,
    /// Result checksum of the first faulty run.
    pub faulty_checksum: u64,
    /// Result checksum of the second faulty run.
    pub faulty_checksum_b: u64,
    /// Whether every run terminated (no hang, no error).
    pub terminated: bool,
    /// Faults that actually fired in the first faulty run.
    pub faults_injected: u64,
}

/// Evaluates chaos observations: the determinism contract (same seed ⇒
/// byte-identical fault schedule) and recovery transparency (faulty
/// output identical to the fault-free run), per benchmark.
///
/// `chaos-fault-activity` is a meta-check on the harness itself: a plan
/// that injects nothing would make the other checks vacuous. Boolean
/// outcomes are encoded 1.0/0.0 in [`Check::observed`].
pub fn evaluate_chaos(observations: &[ChaosObservation]) -> Vec<Check> {
    let mut checks = Vec::new();
    for obs in observations {
        checks.push(check(
            &obs.name,
            "chaos-terminates",
            if obs.terminated { 1.0 } else { 0.0 },
            1.0,
            obs.terminated,
            "==",
        ));
        let schedules_match = !obs.schedule_a.is_empty() && obs.schedule_a == obs.schedule_b;
        checks.push(Check {
            bench: obs.name.clone(),
            name: "chaos-schedule-deterministic",
            observed: if schedules_match { 1.0 } else { 0.0 },
            limit: 1.0,
            pass: schedules_match,
            detail: if schedules_match {
                "same seed, byte-identical fault schedule".into()
            } else {
                format!(
                    "schedules diverge:\n    a: {}\n    b: {}",
                    obs.schedule_a.replace('\n', "; "),
                    obs.schedule_b.replace('\n', "; ")
                )
            },
        });
        let outputs_match = obs.faulty_checksum == obs.clean_checksum
            && obs.faulty_checksum_b == obs.clean_checksum;
        checks.push(Check {
            bench: obs.name.clone(),
            name: "chaos-output-identical",
            observed: obs.faulty_checksum as f64,
            limit: obs.clean_checksum as f64,
            pass: outputs_match,
            detail: format!(
                "clean {:#x} vs faulty {:#x}/{:#x}",
                obs.clean_checksum, obs.faulty_checksum, obs.faulty_checksum_b
            ),
        });
        checks.push(check(
            &obs.name,
            "chaos-fault-activity",
            obs.faults_injected as f64,
            1.0,
            obs.faults_injected >= 1,
            ">=",
        ));
    }
    checks
}

/// One application's serving probe on the build under test: a short
/// fixed-seed open-loop run at a load far below what any host sustains.
#[derive(Clone, Debug, Default)]
pub struct ServingObservation {
    /// Application name.
    pub name: String,
    /// Requests past admission.
    pub admitted: f64,
    /// Requests whose ledger entry reached zero.
    pub completed: f64,
    /// Requests refused at admission.
    pub shed: f64,
    /// Invocations shed on the router's overflow path.
    pub router_shed: f64,
}

/// Evaluates serving observations, returning checks to append to the
/// verdict (they also feed the verdict's `serving` JSON section).
///
/// Request accounting is exact on any host: every admitted request must
/// complete, and a clean low-load probe must shed nothing, at admission
/// or on the router.
pub fn evaluate_serving(observations: &[ServingObservation]) -> Vec<Check> {
    let mut checks = Vec::new();
    for obs in observations {
        checks.push(check(
            &obs.name,
            "serving-completions-exact",
            obs.completed,
            obs.admitted,
            obs.completed == obs.admitted && obs.admitted > 0.0,
            "==",
        ));
        checks.push(check(
            &obs.name,
            "serving-shed-clean",
            obs.shed + obs.router_shed,
            0.0,
            obs.shed + obs.router_shed == 0.0,
            "==",
        ));
    }
    checks
}

/// One application's live adaptive-probe numbers on the build under
/// test: a deterministic (stepped-pacing, fixed-seed) serve from a
/// deliberately stale layout with the re-layout controller armed.
#[derive(Clone, Debug, Default)]
pub struct AdaptObservation {
    /// Application name.
    pub name: String,
    /// Hot relayouts the controller committed.
    pub relayouts: f64,
    /// Requests past admission.
    pub admitted: f64,
    /// Requests whose ledger entry reached zero.
    pub completed: f64,
    /// Observed↔baseline exit-rate divergence before the first
    /// relayout, when measured.
    pub pre_divergence: Option<f64>,
    /// Divergence after the last relayout, when measured.
    pub post_divergence: Option<f64>,
}

/// Post-relayout divergence may exceed the pre-relayout one by this
/// factor before `adapt-improves-or-holds` fails — migrating must never
/// make the model fit *worse*, but the two snapshots are estimated from
/// different (arrival-dependent) sample counts, so an exact `<=` would
/// flake on estimator noise.
pub const ADAPT_DIVERGENCE_SLACK: f64 = 1.10;

/// Evaluates the adaptive re-layout loop, returning `adapt-*` checks to
/// append to the verdict (they also feed the verdict's `adapt` JSON
/// section). Per observation: at least one hot relayout committed,
/// exact request accounting, and the observed↔model rate divergence no
/// worse than before (`adapt-improves-or-holds`, within
/// [`ADAPT_DIVERGENCE_SLACK`]).
pub fn evaluate_adapt_probe(observations: &[AdaptObservation]) -> Vec<Check> {
    let mut checks = Vec::new();
    for obs in observations {
        checks.push(check(
            &obs.name,
            "adapt-relayout-occurred",
            obs.relayouts,
            1.0,
            obs.relayouts >= 1.0,
            ">=",
        ));
        checks.push(check(
            &obs.name,
            "adapt-completions-exact",
            obs.completed,
            obs.admitted,
            obs.completed == obs.admitted && obs.admitted > 0.0,
            "==",
        ));
        // "Holds" is trivially true when nothing migrated (no post
        // snapshot) or the baseline model was never attached.
        let (observed, limit, pass) = match (obs.pre_divergence, obs.post_divergence) {
            (Some(pre), Some(post)) => {
                let limit = pre * ADAPT_DIVERGENCE_SLACK;
                (post, limit, post <= limit)
            }
            (pre, _) => (0.0, pre.unwrap_or(0.0), true),
        };
        checks.push(check(
            &obs.name,
            "adapt-improves-or-holds",
            observed,
            limit,
            pass,
            "<=",
        ));
    }
    checks
}

/// One application's live scope-probe numbers on the build under test:
/// a deterministic (stepped-pacing, fixed-seed) serve with the live
/// observability plane armed, plus the span trees reconstructed for the
/// tail-sampled requests.
#[derive(Clone, Debug, Default)]
pub struct ScopeObservation {
    /// Application name.
    pub name: String,
    /// Arrivals the scope snapshot counted.
    pub arrived: f64,
    /// Admissions the scope snapshot counted.
    pub admitted: f64,
    /// Completions the scope snapshot counted.
    pub completed: f64,
    /// Sheds the scope snapshot counted.
    pub shed: f64,
    /// Tail-sampled requests whose span tree was reconstructed.
    pub trees: f64,
    /// Whether every reconstructed span tree's breakdown (compute +
    /// lock-wait + queue-wait + routing + idle) summed to its total
    /// latency *exactly*.
    pub partition_exact: bool,
}

/// Evaluates the live observability plane, returning `scope-*` checks
/// to append to the verdict (they also feed the verdict's `scope` JSON
/// section). Per observation: the snapshot's request accounting
/// balances exactly (arrived = admitted + shed, completed = admitted on
/// a drained run), at least one request was tail-sampled, and every
/// sampled span tree partitions its latency exactly.
pub fn evaluate_scope_probe(observations: &[ScopeObservation]) -> Vec<Check> {
    let mut checks = Vec::new();
    for obs in observations {
        let balanced = obs.arrived == obs.admitted + obs.shed
            && obs.completed == obs.admitted
            && obs.admitted > 0.0;
        checks.push(Check {
            bench: obs.name.clone(),
            name: "scope-accounting-exact",
            observed: obs.completed,
            limit: obs.admitted,
            pass: balanced,
            detail: format!(
                "arrived {} = admitted {} + shed {}, completed {}",
                obs.arrived, obs.admitted, obs.shed, obs.completed
            ),
        });
        checks.push(check(
            &obs.name,
            "scope-sampled-trees",
            obs.trees,
            1.0,
            obs.trees >= 1.0,
            ">=",
        ));
        checks.push(check(
            &obs.name,
            "scope-partition-exact",
            if obs.partition_exact { 1.0 } else { 0.0 },
            1.0,
            obs.partition_exact,
            "==",
        ));
    }
    checks
}

fn check(
    bench: &str,
    name: &'static str,
    observed: f64,
    limit: f64,
    pass: bool,
    cmp: &str,
) -> Check {
    Check {
        bench: bench.to_string(),
        name,
        observed,
        limit,
        pass,
        detail: format!("observed {observed:.3} {cmp} {limit:.3}"),
    }
}

/// Evaluates the threaded runs: per observation, the invocation count
/// against the virtual executor's, lock retries per invocation, and the
/// critical path's compute share.
pub fn evaluate(observations: &[Observation]) -> Verdict {
    let mut checks = Vec::new();
    for obs in observations {
        checks.push(check(
            &obs.name,
            "invocations-exact",
            obs.invocations,
            obs.expected_invocations,
            obs.invocations == obs.expected_invocations,
            "==",
        ));
        let rpi = if obs.invocations > 0.0 {
            obs.lock_retries / obs.invocations
        } else {
            0.0
        };
        checks.push(check(
            &obs.name,
            "retries-per-invocation",
            rpi,
            RETRY_SLACK_PER_INVOCATION,
            rpi <= RETRY_SLACK_PER_INVOCATION,
            "<=",
        ));
        checks.push(check(
            &obs.name,
            "critpath-compute-share",
            obs.compute_share,
            COMPUTE_SHARE_FLOOR,
            obs.compute_share >= COMPUTE_SHARE_FLOOR,
            ">=",
        ));
    }
    Verdict { checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn healthy_observation() -> Observation {
        Observation {
            name: "KMeans".into(),
            invocations: 37.0,
            expected_invocations: 37.0,
            lock_retries: 0.0,
            compute_share: 0.4,
        }
    }

    #[test]
    fn healthy_run_passes() {
        let verdict = evaluate(&[healthy_observation()]);
        assert!(verdict.pass(), "{}", verdict.table());
        assert_eq!(verdict.checks.len(), 3);
    }

    #[test]
    fn injected_retry_loop_fails_the_gate() {
        let mut obs = healthy_observation();
        // A lock-retry loop makes every invocation retry at least once:
        // 37 invocations, 40 retries — way past the 0.25/invocation band.
        obs.lock_retries = 40.0;
        let verdict = evaluate(&[obs]);
        assert!(!verdict.pass());
        let failed: Vec<&Check> = verdict.checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "retries-per-invocation");
        assert_eq!(failed[0].limit, RETRY_SLACK_PER_INVOCATION);
    }

    #[test]
    fn invocation_drift_and_missing_bench_fail() {
        // One invocation short of the virtual executor's count.
        let mut obs = healthy_observation();
        obs.invocations = 36.0;
        let verdict = evaluate(&[obs]);
        assert!(verdict
            .checks
            .iter()
            .any(|c| c.name == "invocations-exact" && !c.pass));
        // A threaded run that never got going: nothing executed, nothing
        // on the critical path.
        let mut obs = healthy_observation();
        obs.invocations = 0.0;
        obs.compute_share = 0.0;
        let verdict = evaluate(&[obs]);
        assert!(!verdict.pass());
        for name in ["invocations-exact", "critpath-compute-share"] {
            assert!(
                verdict.checks.iter().any(|c| c.name == name && !c.pass),
                "{name}"
            );
        }
    }

    fn healthy_chaos_observation() -> ChaosObservation {
        ChaosObservation {
            name: "KMeans".into(),
            schedule_a: "kill core 3 after 2 dispatches\ndrop 2% of messages".into(),
            schedule_b: "kill core 3 after 2 dispatches\ndrop 2% of messages".into(),
            clean_checksum: 0xdead_beef,
            faulty_checksum: 0xdead_beef,
            faulty_checksum_b: 0xdead_beef,
            terminated: true,
            faults_injected: 5,
        }
    }

    #[test]
    fn healthy_chaos_run_passes() {
        let checks = evaluate_chaos(&[healthy_chaos_observation()]);
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn chaos_divergence_and_corruption_fail() {
        let mut obs = healthy_chaos_observation();
        obs.schedule_b = "kill core 5 after 2 dispatches".into();
        let checks = evaluate_chaos(&[obs]);
        let sched = checks
            .iter()
            .find(|c| c.name == "chaos-schedule-deterministic")
            .unwrap();
        assert!(!sched.pass);
        assert!(sched.detail.contains("diverge"), "{}", sched.detail);

        let mut obs = healthy_chaos_observation();
        obs.faulty_checksum_b = 1;
        let checks = evaluate_chaos(&[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "chaos-output-identical" && !c.pass));

        let mut obs = healthy_chaos_observation();
        obs.terminated = false;
        obs.faults_injected = 0;
        let checks = evaluate_chaos(&[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "chaos-terminates" && !c.pass));
        assert!(checks
            .iter()
            .any(|c| c.name == "chaos-fault-activity" && !c.pass));

        // An empty schedule must not pass vacuously.
        let mut obs = healthy_chaos_observation();
        obs.schedule_a = String::new();
        obs.schedule_b = String::new();
        let checks = evaluate_chaos(&[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "chaos-schedule-deterministic" && !c.pass));
    }

    fn healthy_serving_observation(name: &str) -> ServingObservation {
        ServingObservation {
            name: name.into(),
            admitted: 64.0,
            completed: 64.0,
            shed: 0.0,
            router_shed: 0.0,
        }
    }

    #[test]
    fn healthy_serving_run_passes() {
        let checks = evaluate_serving(&[healthy_serving_observation("KMeans")]);
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn serving_loss_shed_and_latency_fail() {
        let failed = |obs: ServingObservation, name: &str| {
            evaluate_serving(&[obs])
                .iter()
                .any(|c| c.name == name && !c.pass)
        };
        // A lost completion (request ledger leak) is a functional bug.
        let mut obs = healthy_serving_observation("KMeans");
        obs.completed = 63.0;
        assert!(failed(obs, "serving-completions-exact"));
        // A probe that admitted nothing must not pass vacuously.
        let mut obs = healthy_serving_observation("KMeans");
        obs.admitted = 0.0;
        obs.completed = 0.0;
        assert!(failed(obs, "serving-completions-exact"));
        // Shedding far below any host's capacity is a regression in
        // admission or the router, not host noise.
        let mut obs = healthy_serving_observation("KMeans");
        obs.shed = 2.0;
        assert!(failed(obs, "serving-shed-clean"));
        let mut obs = healthy_serving_observation("KMeans");
        obs.router_shed = 1.0;
        assert!(failed(obs, "serving-shed-clean"));
        // Latency and throughput belong to the benchmark, not the gate.
        assert!(evaluate_serving(&[healthy_serving_observation("KMeans")])
            .iter()
            .all(|c| c.name.starts_with("serving-") && c.pass));
    }

    #[test]
    fn serving_section_appears_in_verdict_json() {
        let mut verdict = Verdict::default();
        // Without serving checks, no serving section.
        let doc = crate::json::parse(&verdict.json()).unwrap();
        assert!(doc.get("serving").is_none());
        verdict
            .checks
            .extend(evaluate_serving(&[healthy_serving_observation("KMeans")]));
        let doc = crate::json::parse(&verdict.json()).unwrap();
        let serving = doc.get("serving").expect("serving section");
        assert_eq!(serving.get("pass"), Some(&Value::Bool(true)));
        assert_eq!(serving.get("checks").and_then(Value::as_f64), Some(2.0));
        assert_eq!(serving.get("failed").and_then(Value::as_f64), Some(0.0));
        // A failing serving check flips the section.
        let mut obs = healthy_serving_observation("KMeans");
        obs.completed = 0.0;
        verdict.checks = evaluate_serving(&[obs]);
        let doc = crate::json::parse(&verdict.json()).unwrap();
        let serving = doc.get("serving").expect("serving section");
        assert_eq!(serving.get("pass"), Some(&Value::Bool(false)));
    }

    fn healthy_adapt_observation(name: &str) -> AdaptObservation {
        AdaptObservation {
            name: name.into(),
            relayouts: 1.0,
            admitted: 24.0,
            completed: 24.0,
            pre_divergence: Some(0.4),
            post_divergence: Some(0.2),
        }
    }

    #[test]
    fn healthy_adapt_probe_passes() {
        let obs = [
            healthy_adapt_observation("KMeans"),
            healthy_adapt_observation("Series"),
        ];
        let checks = evaluate_adapt_probe(&obs);
        assert_eq!(checks.len(), 6);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        assert!(checks.iter().any(|c| c.name == "adapt-improves-or-holds"));
    }

    #[test]
    fn adapt_regressions_fail() {
        let failed = |obs: AdaptObservation, name: &str| {
            evaluate_adapt_probe(&[obs, healthy_adapt_observation("Series")])
                .iter()
                .any(|c| c.name == name && !c.pass)
        };
        // No relayout on the stale-layout probe: the loop is dead.
        let mut obs = healthy_adapt_observation("KMeans");
        obs.relayouts = 0.0;
        assert!(failed(obs, "adapt-relayout-occurred"));
        // A migration that loses a request is a ledger bug.
        let mut obs = healthy_adapt_observation("KMeans");
        obs.completed = 23.0;
        assert!(failed(obs, "adapt-completions-exact"));
        // Divergence clearly worse after migrating fails improves-or-holds.
        let mut obs = healthy_adapt_observation("KMeans");
        obs.pre_divergence = Some(0.1);
        obs.post_divergence = Some(0.5);
        assert!(failed(obs, "adapt-improves-or-holds"));
        // ...but no relayout (no post snapshot) holds trivially.
        let mut obs = healthy_adapt_observation("KMeans");
        obs.post_divergence = None;
        assert!(evaluate_adapt_probe(&[obs])
            .iter()
            .all(|c| c.name != "adapt-improves-or-holds" || c.pass));
    }

    #[test]
    fn adapt_section_appears_in_verdict_json() {
        let mut verdict = Verdict::default();
        let doc = crate::json::parse(&verdict.json()).unwrap();
        assert!(doc.get("adapt").is_none());
        verdict.checks.extend(evaluate_adapt_probe(&[
            healthy_adapt_observation("KMeans"),
            healthy_adapt_observation("Series"),
        ]));
        let doc = crate::json::parse(&verdict.json()).unwrap();
        let adapt = doc.get("adapt").expect("adapt section");
        assert_eq!(adapt.get("pass"), Some(&Value::Bool(true)));
        assert_eq!(adapt.get("failed").and_then(Value::as_f64), Some(0.0));
    }

    fn healthy_scope_observation(name: &str) -> ScopeObservation {
        ScopeObservation {
            name: name.into(),
            arrived: 26.0,
            admitted: 24.0,
            completed: 24.0,
            shed: 2.0,
            trees: 4.0,
            partition_exact: true,
        }
    }

    #[test]
    fn healthy_scope_probe_passes() {
        let checks = evaluate_scope_probe(&[healthy_scope_observation("KMeans")]);
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        assert!(checks.iter().any(|c| c.name == "scope-partition-exact"));
    }

    #[test]
    fn scope_regressions_fail() {
        let failed = |obs: ScopeObservation, name: &str| {
            evaluate_scope_probe(&[obs])
                .iter()
                .any(|c| c.name == name && !c.pass)
        };
        // A snapshot that loses a request fails accounting.
        let mut obs = healthy_scope_observation("KMeans");
        obs.completed = 23.0;
        assert!(failed(obs, "scope-accounting-exact"));
        // So does one whose arrivals do not balance admissions + sheds.
        let mut obs = healthy_scope_observation("KMeans");
        obs.shed = 1.0;
        assert!(failed(obs, "scope-accounting-exact"));
        // An inexact partition is a reconstruction bug.
        let mut obs = healthy_scope_observation("KMeans");
        obs.partition_exact = false;
        assert!(failed(obs, "scope-partition-exact"));
        // No sampled trees means the sampler is dead.
        let mut obs = healthy_scope_observation("KMeans");
        obs.trees = 0.0;
        assert!(failed(obs, "scope-sampled-trees"));
    }

    #[test]
    fn scope_section_appears_in_verdict_json() {
        let mut verdict = Verdict::default();
        let doc = crate::json::parse(&verdict.json()).unwrap();
        assert!(doc.get("scope").is_none());
        verdict
            .checks
            .extend(evaluate_scope_probe(&[healthy_scope_observation("KMeans")]));
        let doc = crate::json::parse(&verdict.json()).unwrap();
        let scope = doc.get("scope").expect("scope section");
        assert_eq!(scope.get("pass"), Some(&Value::Bool(true)));
        assert_eq!(scope.get("checks").and_then(Value::as_f64), Some(3.0));
        assert_eq!(scope.get("failed").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn verdict_json_parses_back() {
        let verdict = evaluate(&[healthy_observation()]);
        let doc = crate::json::parse(&verdict.json()).unwrap();
        assert_eq!(doc.get("pass"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("checks").unwrap().as_arr().unwrap().len(), 3);
    }

    /// The full `--check` verdict over healthy observations: the doctor's
    /// app lists through all four evaluators, in the doctor's order.
    fn golden_verdict() -> Verdict {
        let threaded: Vec<Observation> = [("FilterBank", 13.0), ("KMeans", 37.0)]
            .into_iter()
            .map(|(name, invocations)| Observation {
                name: name.into(),
                invocations,
                expected_invocations: invocations,
                lock_retries: 0.0,
                compute_share: 0.035,
            })
            .collect();
        let apps = ["FilterBank", "KMeans", "MonteCarlo", "Series"];
        let mut verdict = evaluate(&threaded);
        let serving: Vec<_> = apps.map(healthy_serving_observation).into();
        verdict.checks.extend(evaluate_serving(&serving));
        let adapt: Vec<_> = apps.map(healthy_adapt_observation).into();
        verdict.checks.extend(evaluate_adapt_probe(&adapt));
        let scope: Vec<_> = apps.map(healthy_scope_observation).into();
        verdict.checks.extend(evaluate_scope_probe(&scope));
        verdict
    }

    #[test]
    fn golden_check_verdict_is_pinned() {
        let verdict = golden_verdict();
        assert!(verdict.pass(), "{}", verdict.table());
        let pairs: Vec<String> = verdict
            .checks
            .iter()
            .map(|c| format!("{} {}", c.bench, c.name))
            .collect();
        let mut expected = Vec::new();
        for app in ["FilterBank", "KMeans"] {
            for check in [
                "invocations-exact",
                "retries-per-invocation",
                "critpath-compute-share",
            ] {
                expected.push(format!("{app} {check}"));
            }
        }
        let apps = ["FilterBank", "KMeans", "MonteCarlo", "Series"];
        for checks in [
            &["serving-completions-exact", "serving-shed-clean"][..],
            &[
                "adapt-relayout-occurred",
                "adapt-completions-exact",
                "adapt-improves-or-holds",
            ],
            &[
                "scope-accounting-exact",
                "scope-sampled-trees",
                "scope-partition-exact",
            ],
        ] {
            for app in apps {
                for check in checks {
                    expected.push(format!("{app} {check}"));
                }
            }
        }
        assert_eq!(pairs.len(), 38);
        assert_eq!(pairs, expected);
        assert_eq!(verdict.json(), GOLDEN_JSON);
    }

    const GOLDEN_JSON: &str = concat!(
        r#"{"pass":true,"serving":{"pass":true,"checks":8,"failed":0},"adapt":{"pass":true,"checks":12,"failed":0},"scope":{"pass":true,"checks":12,"failed":0},"checks":["#,
        r#"{"bench":"FilterBank","check":"invocations-exact","observed":13,"limit":13,"pass":true,"detail":"observed 13.000 == 13.000"},"#,
        r#"{"bench":"FilterBank","check":"retries-per-invocation","observed":0,"limit":0.25,"pass":true,"detail":"observed 0.000 <= 0.250"},"#,
        r#"{"bench":"FilterBank","check":"critpath-compute-share","observed":0.035,"limit":0.01,"pass":true,"detail":"observed 0.035 >= 0.010"},"#,
        r#"{"bench":"KMeans","check":"invocations-exact","observed":37,"limit":37,"pass":true,"detail":"observed 37.000 == 37.000"},"#,
        r#"{"bench":"KMeans","check":"retries-per-invocation","observed":0,"limit":0.25,"pass":true,"detail":"observed 0.000 <= 0.250"},"#,
        r#"{"bench":"KMeans","check":"critpath-compute-share","observed":0.035,"limit":0.01,"pass":true,"detail":"observed 0.035 >= 0.010"},"#,
        r#"{"bench":"FilterBank","check":"serving-completions-exact","observed":64,"limit":64,"pass":true,"detail":"observed 64.000 == 64.000"},"#,
        r#"{"bench":"FilterBank","check":"serving-shed-clean","observed":0,"limit":0,"pass":true,"detail":"observed 0.000 == 0.000"},"#,
        r#"{"bench":"KMeans","check":"serving-completions-exact","observed":64,"limit":64,"pass":true,"detail":"observed 64.000 == 64.000"},"#,
        r#"{"bench":"KMeans","check":"serving-shed-clean","observed":0,"limit":0,"pass":true,"detail":"observed 0.000 == 0.000"},"#,
        r#"{"bench":"MonteCarlo","check":"serving-completions-exact","observed":64,"limit":64,"pass":true,"detail":"observed 64.000 == 64.000"},"#,
        r#"{"bench":"MonteCarlo","check":"serving-shed-clean","observed":0,"limit":0,"pass":true,"detail":"observed 0.000 == 0.000"},"#,
        r#"{"bench":"Series","check":"serving-completions-exact","observed":64,"limit":64,"pass":true,"detail":"observed 64.000 == 64.000"},"#,
        r#"{"bench":"Series","check":"serving-shed-clean","observed":0,"limit":0,"pass":true,"detail":"observed 0.000 == 0.000"},"#,
        r#"{"bench":"FilterBank","check":"adapt-relayout-occurred","observed":1,"limit":1,"pass":true,"detail":"observed 1.000 >= 1.000"},"#,
        r#"{"bench":"FilterBank","check":"adapt-completions-exact","observed":24,"limit":24,"pass":true,"detail":"observed 24.000 == 24.000"},"#,
        r#"{"bench":"FilterBank","check":"adapt-improves-or-holds","observed":0.2,"limit":0.44000000000000006,"pass":true,"detail":"observed 0.200 <= 0.440"},"#,
        r#"{"bench":"KMeans","check":"adapt-relayout-occurred","observed":1,"limit":1,"pass":true,"detail":"observed 1.000 >= 1.000"},"#,
        r#"{"bench":"KMeans","check":"adapt-completions-exact","observed":24,"limit":24,"pass":true,"detail":"observed 24.000 == 24.000"},"#,
        r#"{"bench":"KMeans","check":"adapt-improves-or-holds","observed":0.2,"limit":0.44000000000000006,"pass":true,"detail":"observed 0.200 <= 0.440"},"#,
        r#"{"bench":"MonteCarlo","check":"adapt-relayout-occurred","observed":1,"limit":1,"pass":true,"detail":"observed 1.000 >= 1.000"},"#,
        r#"{"bench":"MonteCarlo","check":"adapt-completions-exact","observed":24,"limit":24,"pass":true,"detail":"observed 24.000 == 24.000"},"#,
        r#"{"bench":"MonteCarlo","check":"adapt-improves-or-holds","observed":0.2,"limit":0.44000000000000006,"pass":true,"detail":"observed 0.200 <= 0.440"},"#,
        r#"{"bench":"Series","check":"adapt-relayout-occurred","observed":1,"limit":1,"pass":true,"detail":"observed 1.000 >= 1.000"},"#,
        r#"{"bench":"Series","check":"adapt-completions-exact","observed":24,"limit":24,"pass":true,"detail":"observed 24.000 == 24.000"},"#,
        r#"{"bench":"Series","check":"adapt-improves-or-holds","observed":0.2,"limit":0.44000000000000006,"pass":true,"detail":"observed 0.200 <= 0.440"},"#,
        r#"{"bench":"FilterBank","check":"scope-accounting-exact","observed":24,"limit":24,"pass":true,"detail":"arrived 26 = admitted 24 + shed 2, completed 24"},"#,
        r#"{"bench":"FilterBank","check":"scope-sampled-trees","observed":4,"limit":1,"pass":true,"detail":"observed 4.000 >= 1.000"},"#,
        r#"{"bench":"FilterBank","check":"scope-partition-exact","observed":1,"limit":1,"pass":true,"detail":"observed 1.000 == 1.000"},"#,
        r#"{"bench":"KMeans","check":"scope-accounting-exact","observed":24,"limit":24,"pass":true,"detail":"arrived 26 = admitted 24 + shed 2, completed 24"},"#,
        r#"{"bench":"KMeans","check":"scope-sampled-trees","observed":4,"limit":1,"pass":true,"detail":"observed 4.000 >= 1.000"},"#,
        r#"{"bench":"KMeans","check":"scope-partition-exact","observed":1,"limit":1,"pass":true,"detail":"observed 1.000 == 1.000"},"#,
        r#"{"bench":"MonteCarlo","check":"scope-accounting-exact","observed":24,"limit":24,"pass":true,"detail":"arrived 26 = admitted 24 + shed 2, completed 24"},"#,
        r#"{"bench":"MonteCarlo","check":"scope-sampled-trees","observed":4,"limit":1,"pass":true,"detail":"observed 4.000 >= 1.000"},"#,
        r#"{"bench":"MonteCarlo","check":"scope-partition-exact","observed":1,"limit":1,"pass":true,"detail":"observed 1.000 == 1.000"},"#,
        r#"{"bench":"Series","check":"scope-accounting-exact","observed":24,"limit":24,"pass":true,"detail":"arrived 26 = admitted 24 + shed 2, completed 24"},"#,
        r#"{"bench":"Series","check":"scope-sampled-trees","observed":4,"limit":1,"pass":true,"detail":"observed 4.000 >= 1.000"},"#,
        r#"{"bench":"Series","check":"scope-partition-exact","observed":1,"limit":1,"pass":true,"detail":"observed 1.000 == 1.000"}]}"#,
    );
}
