//! The CI perf-regression gate.
//!
//! `BENCH_threaded.json` (written by the bench crate's A/B harness on a
//! reference machine) is the baseline; a fresh run on the current build
//! is the observation. The gate's checks are chosen to be meaningful on
//! a *different* machine than the one that recorded the baseline:
//!
//! * invocation counts are deterministic and must match **exactly** —
//!   a mismatch is a functional regression, not noise;
//! * lock retries per invocation get a small absolute tolerance band —
//!   this is the check that catches an accidentally introduced retry
//!   loop (the synthetic-slowdown acceptance test);
//! * throughput and speedup get generous floors (CI containers are
//!   slow and noisy, but a real regression collapses them by integer
//!   factors);
//! * the observed critical path must do *some* compute — a near-zero
//!   compute share means the executor spent the run waiting, which no
//!   amount of machine noise explains.

use crate::json::{self, write_str, Value};
use std::fmt::Write as _;

/// Absolute slack on lock retries per invocation.
pub const RETRY_SLACK_PER_INVOCATION: f64 = 0.25;
/// Observed throughput must reach this fraction of the recorded one.
pub const THROUGHPUT_FLOOR_FRACTION: f64 = 0.05;
/// Observed dispatch speedup must reach this fraction of the recorded one.
pub const SPEEDUP_FLOOR_FRACTION: f64 = 0.35;
/// Minimum compute share of the observed critical path.
pub const COMPUTE_SHARE_FLOOR: f64 = 0.01;

/// One benchmark's recorded reference numbers (the `optimized` row of
/// `BENCH_threaded.json`, plus the A/B speedup).
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineBench {
    /// Benchmark name as recorded (e.g. `"KMeans"`).
    pub name: String,
    /// Invocations per run (deterministic).
    pub invocations: f64,
    /// Lock retries per run.
    pub lock_retries: f64,
    /// Best wall time over the recorded reps, microseconds.
    pub best_wall_us: f64,
    /// Invocations dispatched per millisecond.
    pub throughput: f64,
    /// Optimized-over-baseline dispatch-throughput speedup.
    pub speedup: f64,
}

/// The parsed baseline file.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Core count of the machine model the deployments were planned for.
    pub machine_cores: u64,
    /// One entry per recorded benchmark.
    pub benches: Vec<BaselineBench>,
}

/// Parses a `BENCH_threaded.json` document.
///
/// # Errors
///
/// Returns a message when the text is not JSON or required members are
/// missing/mistyped.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = json::parse(text)?;
    let machine_cores = doc
        .get("machine_cores")
        .and_then(Value::as_f64)
        .ok_or("missing machine_cores")? as u64;
    let Some(Value::Obj(benches)) = doc.get("benches") else {
        return Err("missing benches object".into());
    };
    let mut out = Vec::with_capacity(benches.len());
    for (name, bench) in benches {
        let optimized = bench
            .get("optimized")
            .ok_or_else(|| format!("{name}: missing optimized"))?;
        let field = |key: &str| -> Result<f64, String> {
            optimized
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: missing optimized.{key}"))
        };
        out.push(BaselineBench {
            name: name.clone(),
            invocations: field("invocations")?,
            lock_retries: field("lock_retries")?,
            best_wall_us: field("best_wall_us")?,
            throughput: field("throughput_inv_per_ms")?,
            speedup: bench
                .get("dispatch_throughput_speedup")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: missing dispatch_throughput_speedup"))?,
        });
    }
    Ok(Baseline {
        machine_cores,
        benches: out,
    })
}

/// One benchmark's numbers measured on the build under test.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Benchmark name; matched against [`BaselineBench::name`].
    pub name: String,
    /// Invocations per run.
    pub invocations: f64,
    /// Lock retries per run.
    pub lock_retries: f64,
    /// Best wall time, microseconds.
    pub best_wall_us: f64,
    /// Invocations dispatched per millisecond.
    pub throughput: f64,
    /// Optimized-over-baseline dispatch-throughput speedup.
    pub speedup: f64,
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

/// One application's recorded serving reference numbers (from
/// `BENCH_serving.json`, written by the bench crate's `serving` harness).
#[derive(Clone, Debug, PartialEq)]
pub struct ServingBaselineBench {
    /// Application name as recorded (e.g. `"KMeans"`).
    pub name: String,
    /// p99 latency of an uncontended (solo) request, microseconds.
    pub solo_p99_us: f64,
    /// The p99 service-level objective the sweep held, microseconds.
    pub slo_p99_us: f64,
    /// Highest offered load (requests/second) that met the SLO with
    /// zero shedding.
    pub max_sustainable_rps: f64,
    /// The recorded adaptive-vs-frozen comparison, when the recording
    /// harness ran one (absent on baselines from before the adaptive
    /// re-layout loop existed).
    pub adapt: Option<AdaptBaseline>,
    /// The recorded scope-off-vs-scope-on overhead comparison, when the
    /// recording harness ran one (absent on baselines from before the
    /// live observability plane existed).
    pub scope: Option<ScopeBaseline>,
}

/// One application's recorded scope-overhead numbers (the `scope`
/// member of a `BENCH_serving.json` bench): two legs serve the same
/// seeded traffic at the recorded operating point, one with the live
/// observability plane off and one with it on.
#[derive(Clone, Debug, PartialEq)]
pub struct ScopeBaseline {
    /// p99 with the scope plane off, microseconds.
    pub off_p99_us: f64,
    /// p99 with the scope plane on, microseconds.
    pub on_p99_us: f64,
    /// Completed requests/second with the scope plane off.
    pub off_rps: f64,
    /// Completed requests/second with the scope plane on.
    pub on_rps: f64,
}

/// One application's recorded adaptive-vs-frozen numbers (the `adapt`
/// member of a `BENCH_serving.json` bench): both legs serve the same
/// shifting bursty mix from the same deliberately stale layout; the
/// frozen leg keeps it, the adaptive leg hot-migrates off it.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptBaseline {
    /// p99 of the mix under the stale layout, microseconds.
    pub frozen_p99_us: f64,
    /// p99 of the mix under the layout the controller converged on
    /// (the post-relayout latency), microseconds.
    pub adaptive_p99_us: f64,
    /// Hot relayouts the adaptive leg committed.
    pub relayouts: f64,
    /// Every leg completed every admitted request.
    pub exact: bool,
}

/// The parsed `BENCH_serving.json` baseline.
#[derive(Clone, Debug, Default)]
pub struct ServingBaseline {
    /// Core count of the machine model the deployments were planned for.
    pub machine_cores: u64,
    /// SLO multiplier over solo p99 the recording sweep used.
    pub slo_multiplier: f64,
    /// One entry per recorded application.
    pub benches: Vec<ServingBaselineBench>,
}

/// Parses a `BENCH_serving.json` document.
///
/// # Errors
///
/// Returns a message when the text is not JSON or required members are
/// missing/mistyped.
pub fn parse_serving_baseline(text: &str) -> Result<ServingBaseline, String> {
    let doc = json::parse(text)?;
    let top = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing {key}"))
    };
    let machine_cores = top("machine_cores")? as u64;
    let slo_multiplier = top("slo_multiplier")?;
    let Some(Value::Obj(benches)) = doc.get("benches") else {
        return Err("missing benches object".into());
    };
    let mut out = Vec::with_capacity(benches.len());
    for (name, bench) in benches {
        let field = |key: &str| -> Result<f64, String> {
            bench
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: missing {key}"))
        };
        let adapt = match bench.get("adapt") {
            None => None,
            Some(adapt) => {
                let afield = |key: &str| -> Result<f64, String> {
                    adapt
                        .get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{name}: missing adapt.{key}"))
                };
                Some(AdaptBaseline {
                    frozen_p99_us: afield("frozen_p99_us")?,
                    adaptive_p99_us: afield("adaptive_p99_us")?,
                    relayouts: afield("relayouts")?,
                    exact: matches!(adapt.get("exact"), Some(Value::Bool(true))),
                })
            }
        };
        let scope = match bench.get("scope") {
            None => None,
            Some(scope) => {
                let sfield = |key: &str| -> Result<f64, String> {
                    scope
                        .get(key)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{name}: missing scope.{key}"))
                };
                Some(ScopeBaseline {
                    off_p99_us: sfield("off_p99_us")?,
                    on_p99_us: sfield("on_p99_us")?,
                    off_rps: sfield("off_rps")?,
                    on_rps: sfield("on_rps")?,
                })
            }
        };
        out.push(ServingBaselineBench {
            name: name.clone(),
            solo_p99_us: field("solo_p99_us")?,
            slo_p99_us: field("slo_p99_us")?,
            max_sustainable_rps: field("max_sustainable_rps")?,
            adapt,
            scope,
        });
    }
    Ok(ServingBaseline {
        machine_cores,
        slo_multiplier,
        benches: out,
    })
}

/// One application's serving numbers measured on the build under test:
/// a short fixed-seed open-loop run at a fraction of the recorded
/// sustainable load.
#[derive(Clone, Debug, Default)]
pub struct ServingObservation {
    /// Application name; matched against [`ServingBaselineBench::name`].
    pub name: String,
    /// Offered load of the probe run, requests/second.
    pub offered_rps: f64,
    /// Completed requests per second of wall time.
    pub completed_rps: f64,
    /// Requests past admission.
    pub admitted: f64,
    /// Requests whose ledger entry reached zero.
    pub completed: f64,
    /// Requests refused at admission.
    pub shed: f64,
    /// Invocations shed on the router's overflow path.
    pub router_shed: f64,
    /// Observed p99 latency, microseconds.
    pub p99_us: f64,
}

/// Observed p99 may exceed the recorded SLO by this factor — the
/// baseline host and the gating host can differ wildly, but a real
/// latency regression (a stalled ledger, a lost completion retried into
/// a timeout) blows past any constant factor.
pub const SERVING_P99_HOST_SLACK: f64 = 20.0;
/// Observed completion throughput must reach this fraction of the
/// recorded max sustainable load.
pub const SERVING_THROUGHPUT_FLOOR_FRACTION: f64 = 0.05;

/// Evaluates serving observations against the `BENCH_serving.json`
/// baseline, returning checks to append to the verdict (they also feed
/// the verdict's `serving` JSON section).
///
/// Request accounting is exact on any host — every admitted request
/// must complete and a clean low-load probe must shed nothing, at
/// admission or on the router. Latency and throughput get the usual
/// cross-host slack: p99 within [`SERVING_P99_HOST_SLACK`]× the
/// recorded SLO, completion throughput above
/// [`SERVING_THROUGHPUT_FLOOR_FRACTION`] of the recorded sustainable
/// load.
pub fn evaluate_serving(
    baseline: &ServingBaseline,
    observations: &[ServingObservation],
) -> Vec<Check> {
    let mut checks = Vec::new();
    for base in &baseline.benches {
        let Some(obs) = observations.iter().find(|o| o.name == base.name) else {
            checks.push(check(
                &base.name,
                "serving-bench-present",
                0.0,
                1.0,
                false,
                "must be",
            ));
            continue;
        };
        checks.push(check(
            &base.name,
            "serving-completions-exact",
            obs.completed,
            obs.admitted,
            obs.completed == obs.admitted && obs.admitted > 0.0,
            "==",
        ));
        checks.push(check(
            &base.name,
            "serving-shed-clean",
            obs.shed + obs.router_shed,
            0.0,
            obs.shed + obs.router_shed == 0.0,
            "==",
        ));
        let p99_limit = base.slo_p99_us * SERVING_P99_HOST_SLACK;
        checks.push(check(
            &base.name,
            "serving-p99-slo",
            obs.p99_us,
            p99_limit,
            obs.p99_us <= p99_limit,
            "<=",
        ));
        let floor = base.max_sustainable_rps * SERVING_THROUGHPUT_FLOOR_FRACTION;
        checks.push(check(
            &base.name,
            "serving-throughput-floor",
            obs.completed_rps,
            floor,
            obs.completed_rps >= floor,
            ">=",
        ));
    }
    checks
}

/// One application's live adaptive-probe numbers on the build under
/// test: a deterministic (stepped-pacing, fixed-seed) serve from a
/// deliberately stale layout with the re-layout controller armed.
#[derive(Clone, Debug, Default)]
pub struct AdaptObservation {
    /// Application name; matched against [`ServingBaselineBench::name`].
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
/// How many recorded apps the adaptive leg must beat the frozen leg on
/// (post-relayout p99 strictly below the stale layout's).
pub const ADAPT_BASELINE_MIN_WINS: f64 = 2.0;

/// Evaluates the adaptive re-layout loop, returning `adapt-*` checks to
/// append to the verdict (they also feed the verdict's `adapt` JSON
/// section). No-op when the baseline predates the adaptive recording
/// (no bench has an `adapt` member).
///
/// Two kinds of evidence:
///
/// * **recorded** — the baseline's own adaptive-vs-frozen comparison
///   must be exact everywhere and the adaptive leg must win on at least
///   [`ADAPT_BASELINE_MIN_WINS`] recorded apps;
/// * **live** — per observed probe, the controller must commit at least
///   one hot relayout, account for every request exactly, and leave the
///   observed↔model rate divergence no worse than before
///   (`adapt-improves-or-holds`, within [`ADAPT_DIVERGENCE_SLACK`]).
pub fn evaluate_adapt(baseline: &ServingBaseline, observations: &[AdaptObservation]) -> Vec<Check> {
    let recorded: Vec<(&ServingBaselineBench, &AdaptBaseline)> = baseline
        .benches
        .iter()
        .filter_map(|b| b.adapt.as_ref().map(|a| (b, a)))
        .collect();
    if recorded.is_empty() {
        return Vec::new();
    }
    let mut checks = Vec::new();
    let wins = recorded
        .iter()
        .filter(|(_, a)| a.adaptive_p99_us < a.frozen_p99_us)
        .count() as f64;
    checks.push(check(
        "aggregate",
        "adapt-baseline-p99-wins",
        wins,
        ADAPT_BASELINE_MIN_WINS.min(recorded.len() as f64),
        wins >= ADAPT_BASELINE_MIN_WINS.min(recorded.len() as f64),
        ">=",
    ));
    for (base, adapt) in &recorded {
        checks.push(check(
            &base.name,
            "adapt-baseline-exact",
            if adapt.exact { 1.0 } else { 0.0 },
            1.0,
            adapt.exact,
            "==",
        ));
        let Some(obs) = observations.iter().find(|o| o.name == base.name) else {
            checks.push(check(
                &base.name,
                "adapt-bench-present",
                0.0,
                1.0,
                false,
                "must be",
            ));
            continue;
        };
        checks.extend(evaluate_adapt_probe(std::slice::from_ref(obs)));
    }
    checks
}

/// The live-probe subset of the `adapt-*` checks — per observation: at
/// least one hot relayout committed, exact request accounting, and
/// `adapt-improves-or-holds`. Standalone entry point for the doctor's
/// `--adapt-smoke` mode, which has no recorded baseline to gate against.
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
    /// Application name; matched against [`ServingBaselineBench::name`].
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

/// Scope-on p99 may exceed scope-off p99 by this factor before
/// `scope-baseline-p99-overhead` fails (the ≤3% overhead budget,
/// recorded on the baseline host so it is exempt from cross-host
/// slack).
pub const SCOPE_P99_OVERHEAD_SLACK: f64 = 1.03;
/// Scope-on completion throughput must reach this fraction of the
/// scope-off throughput recorded at the same operating point.
pub const SCOPE_THROUGHPUT_FLOOR_FRACTION: f64 = 0.97;

/// Evaluates the live observability plane, returning `scope-*` checks
/// to append to the verdict (they also feed the verdict's `scope` JSON
/// section). No-op when the baseline predates the scope recording (no
/// bench has a `scope` member).
///
/// Two kinds of evidence:
///
/// * **recorded** — the baseline's own scope-off-vs-scope-on comparison
///   was measured on one host at one operating point, so it gates the
///   overhead budget tightly: scope-on p99 within
///   [`SCOPE_P99_OVERHEAD_SLACK`]× of scope-off, scope-on throughput
///   above [`SCOPE_THROUGHPUT_FLOOR_FRACTION`] of scope-off;
/// * **live** — per observed probe, the snapshot's request accounting
///   must balance exactly and every tail-sampled span tree must
///   partition its latency exactly ([`evaluate_scope_probe`]).
pub fn evaluate_scope(baseline: &ServingBaseline, observations: &[ScopeObservation]) -> Vec<Check> {
    let recorded: Vec<(&ServingBaselineBench, &ScopeBaseline)> = baseline
        .benches
        .iter()
        .filter_map(|b| b.scope.as_ref().map(|s| (b, s)))
        .collect();
    if recorded.is_empty() {
        return Vec::new();
    }
    let mut checks = Vec::new();
    for (base, scope) in &recorded {
        let p99_limit = scope.off_p99_us * SCOPE_P99_OVERHEAD_SLACK;
        checks.push(check(
            &base.name,
            "scope-baseline-p99-overhead",
            scope.on_p99_us,
            p99_limit,
            scope.on_p99_us <= p99_limit,
            "<=",
        ));
        let rps_floor = scope.off_rps * SCOPE_THROUGHPUT_FLOOR_FRACTION;
        checks.push(check(
            &base.name,
            "scope-baseline-throughput",
            scope.on_rps,
            rps_floor,
            scope.on_rps >= rps_floor,
            ">=",
        ));
        let Some(obs) = observations.iter().find(|o| o.name == base.name) else {
            checks.push(check(
                &base.name,
                "scope-bench-present",
                0.0,
                1.0,
                false,
                "must be",
            ));
            continue;
        };
        checks.extend(evaluate_scope_probe(std::slice::from_ref(obs)));
    }
    checks
}

/// The live-probe subset of the `scope-*` checks — per observation:
/// the snapshot's request accounting balances exactly (arrived =
/// admitted + shed, completed = admitted on a drained run) and every
/// tail-sampled span tree partitions its latency exactly. Standalone
/// entry point for the doctor's `--scope-smoke` mode, which has no
/// recorded baseline to gate against.
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

/// Evaluates every observation against its recorded baseline.
///
/// A baseline benchmark with no matching observation fails its
/// `bench-present` check; observations without a baseline are ignored
/// (new benchmarks gate only once recorded).
pub fn evaluate(baseline: &Baseline, observations: &[Observation]) -> Verdict {
    let mut checks = Vec::new();
    for base in &baseline.benches {
        let Some(obs) = observations.iter().find(|o| o.name == base.name) else {
            checks.push(check(
                &base.name,
                "bench-present",
                0.0,
                1.0,
                false,
                "must be",
            ));
            continue;
        };
        checks.push(check(
            &base.name,
            "invocations-exact",
            obs.invocations,
            base.invocations,
            obs.invocations == base.invocations,
            "==",
        ));
        let base_rpi = if base.invocations > 0.0 {
            base.lock_retries / base.invocations
        } else {
            0.0
        };
        let obs_rpi = if obs.invocations > 0.0 {
            obs.lock_retries / obs.invocations
        } else {
            0.0
        };
        let rpi_limit = base_rpi + RETRY_SLACK_PER_INVOCATION;
        checks.push(check(
            &base.name,
            "retries-per-invocation",
            obs_rpi,
            rpi_limit,
            obs_rpi <= rpi_limit,
            "<=",
        ));
        let throughput_floor = base.throughput * THROUGHPUT_FLOOR_FRACTION;
        checks.push(check(
            &base.name,
            "throughput-floor",
            obs.throughput,
            throughput_floor,
            obs.throughput >= throughput_floor,
            ">=",
        ));
        let speedup_floor = base.speedup * SPEEDUP_FLOOR_FRACTION;
        checks.push(check(
            &base.name,
            "speedup-floor",
            obs.speedup,
            speedup_floor,
            obs.speedup >= speedup_floor,
            ">=",
        ));
        checks.push(check(
            &base.name,
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

    const BASELINE: &str = r#"{
      "machine_cores": 62,
      "scale": "small",
      "reps": 15,
      "benches": {
        "KMeans": {
          "baseline": { "best_wall_us": 2747, "invocations": 37, "throughput_inv_per_ms": 13.47, "lock_retries": 0, "steals": 0 },
          "optimized": { "best_wall_us": 1816, "median_wall_us": 2286, "invocations": 37, "throughput_inv_per_ms": 20.37, "lock_retries": 0, "steals": 0 },
          "dispatch_throughput_speedup": 1.512
        }
      }
    }"#;

    fn healthy_observation() -> Observation {
        Observation {
            name: "KMeans".into(),
            invocations: 37.0,
            lock_retries: 0.0,
            best_wall_us: 2500.0,
            throughput: 14.0,
            speedup: 1.3,
            compute_share: 0.4,
        }
    }

    #[test]
    fn baseline_parses() {
        let baseline = parse_baseline(BASELINE).unwrap();
        assert_eq!(baseline.machine_cores, 62);
        assert_eq!(baseline.benches.len(), 1);
        let km = &baseline.benches[0];
        assert_eq!(km.name, "KMeans");
        assert_eq!(km.invocations, 37.0);
        assert_eq!(km.throughput, 20.37);
        assert_eq!(km.speedup, 1.512);
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("nonsense").is_err());
    }

    #[test]
    fn healthy_run_passes() {
        let baseline = parse_baseline(BASELINE).unwrap();
        let verdict = evaluate(&baseline, &[healthy_observation()]);
        assert!(verdict.pass(), "{}", verdict.table());
        assert_eq!(verdict.checks.len(), 5);
    }

    #[test]
    fn injected_retry_loop_fails_the_gate() {
        let baseline = parse_baseline(BASELINE).unwrap();
        let mut obs = healthy_observation();
        // A lock-retry loop makes every invocation retry at least once:
        // 37 invocations, 40 retries — way past the 0.25/invocation band.
        obs.lock_retries = 40.0;
        let verdict = evaluate(&baseline, &[obs]);
        assert!(!verdict.pass());
        let failed: Vec<&Check> = verdict.checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "retries-per-invocation");
    }

    #[test]
    fn invocation_drift_and_missing_bench_fail() {
        let baseline = parse_baseline(BASELINE).unwrap();
        let mut obs = healthy_observation();
        obs.invocations = 36.0;
        let verdict = evaluate(&baseline, &[obs]);
        assert!(verdict
            .checks
            .iter()
            .any(|c| c.name == "invocations-exact" && !c.pass));
        let verdict = evaluate(&baseline, &[]);
        assert!(!verdict.pass());
        assert!(verdict
            .checks
            .iter()
            .any(|c| c.name == "bench-present" && !c.pass));
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

    const SERVING_BASELINE: &str = r#"{
      "machine_cores": 8,
      "scale": "small",
      "seed": 42,
      "slo_multiplier": 10.0,
      "benches": {
        "KMeans": {
          "solo_p99_us": 900.0, "slo_p99_us": 9000.0, "max_sustainable_rps": 1600.0,
          "at_sustainable": { "offered_rps": 1600.0, "p50_us": 700.0, "p99_us": 4100.0, "p999_us": 5000.0, "admitted": 40, "completed": 40, "shed": 0 }
        }
      }
    }"#;

    fn healthy_serving_observation() -> ServingObservation {
        ServingObservation {
            name: "KMeans".into(),
            offered_rps: 160.0,
            completed_rps: 152.5,
            admitted: 24.0,
            completed: 24.0,
            shed: 0.0,
            router_shed: 0.0,
            p99_us: 2400.0,
        }
    }

    #[test]
    fn serving_baseline_parses() {
        let baseline = parse_serving_baseline(SERVING_BASELINE).unwrap();
        assert_eq!(baseline.machine_cores, 8);
        assert_eq!(baseline.slo_multiplier, 10.0);
        assert_eq!(baseline.benches.len(), 1);
        let km = &baseline.benches[0];
        assert_eq!(km.name, "KMeans");
        assert_eq!(km.solo_p99_us, 900.0);
        assert_eq!(km.slo_p99_us, 9000.0);
        assert_eq!(km.max_sustainable_rps, 1600.0);
        assert!(parse_serving_baseline("{}").is_err());
        assert!(parse_serving_baseline("nonsense").is_err());
    }

    #[test]
    fn healthy_serving_run_passes() {
        let baseline = parse_serving_baseline(SERVING_BASELINE).unwrap();
        let checks = evaluate_serving(&baseline, &[healthy_serving_observation()]);
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    }

    #[test]
    fn serving_loss_shed_and_latency_fail() {
        let baseline = parse_serving_baseline(SERVING_BASELINE).unwrap();
        // A lost completion (request ledger leak) is a functional bug.
        let mut obs = healthy_serving_observation();
        obs.completed = 23.0;
        let checks = evaluate_serving(&baseline, &[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "serving-completions-exact" && !c.pass));
        // Shedding at 5% of the recorded sustainable load is a
        // regression in admission or the router, not host noise.
        let mut obs = healthy_serving_observation();
        obs.shed = 2.0;
        let checks = evaluate_serving(&baseline, &[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "serving-shed-clean" && !c.pass));
        let mut obs = healthy_serving_observation();
        obs.router_shed = 1.0;
        let checks = evaluate_serving(&baseline, &[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "serving-shed-clean" && !c.pass));
        // p99 past the host-slack band fails.
        let mut obs = healthy_serving_observation();
        obs.p99_us = 9000.0 * SERVING_P99_HOST_SLACK + 1.0;
        let checks = evaluate_serving(&baseline, &[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "serving-p99-slo" && !c.pass));
        // Collapsed completion throughput fails.
        let mut obs = healthy_serving_observation();
        obs.completed_rps = 1600.0 * SERVING_THROUGHPUT_FLOOR_FRACTION - 1.0;
        let checks = evaluate_serving(&baseline, &[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "serving-throughput-floor" && !c.pass));
        // Missing app fails its presence check.
        let checks = evaluate_serving(&baseline, &[]);
        assert!(checks
            .iter()
            .any(|c| c.name == "serving-bench-present" && !c.pass));
    }

    #[test]
    fn serving_section_appears_in_verdict_json() {
        let baseline = parse_serving_baseline(SERVING_BASELINE).unwrap();
        let mut verdict = Verdict::default();
        // Without serving checks, no serving section.
        let doc = crate::json::parse(&verdict.json()).unwrap();
        assert!(doc.get("serving").is_none());
        verdict.checks.extend(evaluate_serving(
            &baseline,
            &[healthy_serving_observation()],
        ));
        let doc = crate::json::parse(&verdict.json()).unwrap();
        let serving = doc.get("serving").expect("serving section");
        assert_eq!(serving.get("pass"), Some(&crate::json::Value::Bool(true)));
        assert_eq!(serving.get("checks").and_then(Value::as_f64), Some(4.0));
        assert_eq!(serving.get("failed").and_then(Value::as_f64), Some(0.0));
        // A failing serving check flips the section.
        let mut obs = healthy_serving_observation();
        obs.completed = 0.0;
        verdict.checks = evaluate_serving(&baseline, &[obs]);
        let doc = crate::json::parse(&verdict.json()).unwrap();
        let serving = doc.get("serving").expect("serving section");
        assert_eq!(serving.get("pass"), Some(&crate::json::Value::Bool(false)));
    }

    const ADAPT_BASELINE: &str = r#"{
      "machine_cores": 8,
      "scale": "small",
      "seed": 42,
      "slo_multiplier": 10.0,
      "benches": {
        "KMeans": {
          "solo_p99_us": 900.0, "slo_p99_us": 9000.0, "max_sustainable_rps": 1600.0,
          "adapt": { "frozen_p99_us": 4300.0, "adaptive_p99_us": 1900.0, "midrun_p99_us": 5100.0, "relayouts": 1, "layout_epoch": 1, "decisions": 18, "pre_divergence": 0.31, "post_divergence": 0.12, "exact": true }
        },
        "Series": {
          "solo_p99_us": 230.0, "slo_p99_us": 5000.0, "max_sustainable_rps": 6400.0,
          "adapt": { "frozen_p99_us": 2200.0, "adaptive_p99_us": 2100.0, "relayouts": 1, "exact": true }
        }
      }
    }"#;

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
    fn adapt_baseline_parses_and_stays_optional() {
        // Pre-adaptive baselines (no adapt member) still parse.
        let old = parse_serving_baseline(SERVING_BASELINE).unwrap();
        assert!(old.benches[0].adapt.is_none());
        assert!(evaluate_adapt(&old, &[]).is_empty());

        let baseline = parse_serving_baseline(ADAPT_BASELINE).unwrap();
        let km = baseline
            .benches
            .iter()
            .find(|b| b.name == "KMeans")
            .unwrap();
        let adapt = km.adapt.as_ref().expect("adapt section parsed");
        assert_eq!(adapt.frozen_p99_us, 4300.0);
        assert_eq!(adapt.adaptive_p99_us, 1900.0);
        assert_eq!(adapt.relayouts, 1.0);
        assert!(adapt.exact);
    }

    #[test]
    fn healthy_adapt_probe_passes() {
        let baseline = parse_serving_baseline(ADAPT_BASELINE).unwrap();
        let obs = [
            healthy_adapt_observation("KMeans"),
            healthy_adapt_observation("Series"),
        ];
        let checks = evaluate_adapt(&baseline, &obs);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        assert!(checks.iter().any(|c| c.name == "adapt-baseline-p99-wins"));
        assert!(checks.iter().any(|c| c.name == "adapt-improves-or-holds"));
    }

    #[test]
    fn adapt_regressions_fail() {
        let baseline = parse_serving_baseline(ADAPT_BASELINE).unwrap();
        // No relayout on the stale-layout probe: the loop is dead.
        let mut obs = healthy_adapt_observation("KMeans");
        obs.relayouts = 0.0;
        let checks = evaluate_adapt(&baseline, &[obs, healthy_adapt_observation("Series")]);
        assert!(checks
            .iter()
            .any(|c| c.name == "adapt-relayout-occurred" && !c.pass));
        // A migration that loses a request is a ledger bug.
        let mut obs = healthy_adapt_observation("KMeans");
        obs.completed = 23.0;
        let checks = evaluate_adapt(&baseline, &[obs, healthy_adapt_observation("Series")]);
        assert!(checks
            .iter()
            .any(|c| c.name == "adapt-completions-exact" && !c.pass));
        // Divergence clearly worse after migrating fails improves-or-holds.
        let mut obs = healthy_adapt_observation("KMeans");
        obs.pre_divergence = Some(0.1);
        obs.post_divergence = Some(0.5);
        let checks = evaluate_adapt(&baseline, &[obs, healthy_adapt_observation("Series")]);
        assert!(checks
            .iter()
            .any(|c| c.name == "adapt-improves-or-holds" && !c.pass));
        // ...but no relayout (no post snapshot) holds trivially.
        let mut obs = healthy_adapt_observation("KMeans");
        obs.post_divergence = None;
        let checks = evaluate_adapt(&baseline, &[obs, healthy_adapt_observation("Series")]);
        assert!(checks
            .iter()
            .all(|c| c.name != "adapt-improves-or-holds" || c.pass));
        // A missing probe fails presence.
        let checks = evaluate_adapt(&baseline, &[healthy_adapt_observation("KMeans")]);
        assert!(checks
            .iter()
            .any(|c| c.name == "adapt-bench-present" && !c.pass));
    }

    #[test]
    fn adapt_baseline_wins_check_counts() {
        let mut baseline = parse_serving_baseline(ADAPT_BASELINE).unwrap();
        // Flip both recorded comparisons to losses: the aggregate check
        // fails even though every live probe is healthy.
        for bench in &mut baseline.benches {
            if let Some(adapt) = &mut bench.adapt {
                adapt.adaptive_p99_us = adapt.frozen_p99_us + 1.0;
            }
        }
        let obs = [
            healthy_adapt_observation("KMeans"),
            healthy_adapt_observation("Series"),
        ];
        let checks = evaluate_adapt(&baseline, &obs);
        let wins = checks
            .iter()
            .find(|c| c.name == "adapt-baseline-p99-wins")
            .unwrap();
        assert!(!wins.pass);
        assert_eq!(wins.observed, 0.0);
    }

    #[test]
    fn adapt_section_appears_in_verdict_json() {
        let baseline = parse_serving_baseline(ADAPT_BASELINE).unwrap();
        let mut verdict = Verdict::default();
        let doc = crate::json::parse(&verdict.json()).unwrap();
        assert!(doc.get("adapt").is_none());
        verdict.checks.extend(evaluate_adapt(
            &baseline,
            &[
                healthy_adapt_observation("KMeans"),
                healthy_adapt_observation("Series"),
            ],
        ));
        let doc = crate::json::parse(&verdict.json()).unwrap();
        let adapt = doc.get("adapt").expect("adapt section");
        assert_eq!(adapt.get("pass"), Some(&crate::json::Value::Bool(true)));
        assert_eq!(adapt.get("failed").and_then(Value::as_f64), Some(0.0));
    }

    const SCOPE_BASELINE: &str = r#"{
      "machine_cores": 8,
      "scale": "small",
      "seed": 42,
      "slo_multiplier": 10.0,
      "benches": {
        "KMeans": {
          "solo_p99_us": 900.0, "slo_p99_us": 9000.0, "max_sustainable_rps": 1600.0,
          "scope": { "off_p99_us": 4000.0, "on_p99_us": 4080.0, "off_rps": 1500.0, "on_rps": 1490.0 }
        }
      }
    }"#;

    fn healthy_scope_observation() -> ScopeObservation {
        ScopeObservation {
            name: "KMeans".into(),
            arrived: 26.0,
            admitted: 24.0,
            completed: 24.0,
            shed: 2.0,
            trees: 4.0,
            partition_exact: true,
        }
    }

    #[test]
    fn scope_baseline_parses_and_stays_optional() {
        // Pre-scope baselines (no scope member) still parse.
        let old = parse_serving_baseline(SERVING_BASELINE).unwrap();
        assert!(old.benches[0].scope.is_none());
        assert!(evaluate_scope(&old, &[]).is_empty());

        let baseline = parse_serving_baseline(SCOPE_BASELINE).unwrap();
        let scope = baseline.benches[0].scope.as_ref().expect("scope parsed");
        assert_eq!(scope.off_p99_us, 4000.0);
        assert_eq!(scope.on_p99_us, 4080.0);
        assert_eq!(scope.off_rps, 1500.0);
        assert_eq!(scope.on_rps, 1490.0);
    }

    #[test]
    fn healthy_scope_probe_passes() {
        let baseline = parse_serving_baseline(SCOPE_BASELINE).unwrap();
        let checks = evaluate_scope(&baseline, &[healthy_scope_observation()]);
        assert_eq!(checks.len(), 5);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        assert!(checks
            .iter()
            .any(|c| c.name == "scope-baseline-p99-overhead"));
        assert!(checks.iter().any(|c| c.name == "scope-partition-exact"));
    }

    #[test]
    fn scope_regressions_fail() {
        // Recorded overhead past the 3% budget fails.
        let mut baseline = parse_serving_baseline(SCOPE_BASELINE).unwrap();
        if let Some(scope) = &mut baseline.benches[0].scope {
            scope.on_p99_us = scope.off_p99_us * SCOPE_P99_OVERHEAD_SLACK + 1.0;
        }
        let checks = evaluate_scope(&baseline, &[healthy_scope_observation()]);
        assert!(checks
            .iter()
            .any(|c| c.name == "scope-baseline-p99-overhead" && !c.pass));
        // Collapsed scope-on throughput fails.
        let mut baseline = parse_serving_baseline(SCOPE_BASELINE).unwrap();
        if let Some(scope) = &mut baseline.benches[0].scope {
            scope.on_rps = scope.off_rps * SCOPE_THROUGHPUT_FLOOR_FRACTION - 1.0;
        }
        let checks = evaluate_scope(&baseline, &[healthy_scope_observation()]);
        assert!(checks
            .iter()
            .any(|c| c.name == "scope-baseline-throughput" && !c.pass));
        // A snapshot that loses a request fails accounting.
        let baseline = parse_serving_baseline(SCOPE_BASELINE).unwrap();
        let mut obs = healthy_scope_observation();
        obs.completed = 23.0;
        let checks = evaluate_scope(&baseline, &[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "scope-accounting-exact" && !c.pass));
        // An inexact partition is a reconstruction bug.
        let mut obs = healthy_scope_observation();
        obs.partition_exact = false;
        let checks = evaluate_scope(&baseline, &[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "scope-partition-exact" && !c.pass));
        // No sampled trees means the sampler is dead.
        let mut obs = healthy_scope_observation();
        obs.trees = 0.0;
        let checks = evaluate_scope(&baseline, &[obs]);
        assert!(checks
            .iter()
            .any(|c| c.name == "scope-sampled-trees" && !c.pass));
        // A missing probe fails presence.
        let checks = evaluate_scope(&baseline, &[]);
        assert!(checks
            .iter()
            .any(|c| c.name == "scope-bench-present" && !c.pass));
    }

    #[test]
    fn scope_section_appears_in_verdict_json() {
        let baseline = parse_serving_baseline(SCOPE_BASELINE).unwrap();
        let mut verdict = Verdict::default();
        let doc = crate::json::parse(&verdict.json()).unwrap();
        assert!(doc.get("scope").is_none());
        verdict
            .checks
            .extend(evaluate_scope(&baseline, &[healthy_scope_observation()]));
        let doc = crate::json::parse(&verdict.json()).unwrap();
        let scope = doc.get("scope").expect("scope section");
        assert_eq!(scope.get("pass"), Some(&crate::json::Value::Bool(true)));
        assert_eq!(scope.get("checks").and_then(Value::as_f64), Some(5.0));
        assert_eq!(scope.get("failed").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn verdict_json_parses_back() {
        let baseline = parse_baseline(BASELINE).unwrap();
        let verdict = evaluate(&baseline, &[healthy_observation()]);
        let doc = crate::json::parse(&verdict.json()).unwrap();
        assert_eq!(doc.get("pass"), Some(&crate::json::Value::Bool(true)));
        assert_eq!(doc.get("checks").unwrap().as_arr().unwrap().len(), 5);
    }
}
