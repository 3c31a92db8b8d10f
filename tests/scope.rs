//! bamboo-scope integration tests: live per-request tracing, tail-based
//! sampling, and SLO burn-rate on resident deployments (DESIGN.md §17).
//!
//! The acceptance criterion under test throughout: for every
//! tail-sampled request the reconstructed span tree *partitions* the
//! admit→complete latency exactly — compute + lock-wait + queue-wait +
//! routing + idle sums to the total with no residue — and under stepped
//! pacing the whole scope plane (window snapshots, samples, exports) is
//! byte-identical across worker thread counts.

use bamboo::telemetry::analyze;
use bamboo::telemetry::scope::{RESERVOIR, SLOW_K};
use bamboo::{
    DeploymentHandle, MachineDescription, Pacing, Poisson, ScopeConfig, ScopeSnapshot,
    ServingOptions, ServingReport, Telemetry, TelemetryReport,
};
use bamboo_apps::{by_name, Scale};
use std::time::Duration;

const SEED: u64 = 42;

/// Serves `total` stepped Poisson arrivals on a fresh deployment of
/// `bench_name` synthesized for `cores`, with telemetry recording and
/// the given scope config; returns the serving report and the recorded
/// telemetry.
fn scoped_run(
    bench_name: &str,
    cores: usize,
    scope: ScopeConfig,
    rate: f64,
    total: usize,
) -> (ServingReport, TelemetryReport) {
    let bench = by_name(bench_name).expect("benchmark exists");
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(cores);
    let plan = compiler.plan("scope", &machine, SEED).expect("profile run");
    // Workers plus the serving driver's own ring.
    let telemetry = Telemetry::enabled(cores + 1);
    let mut session = DeploymentHandle::from_deployment(plan.deployment)
        .with_telemetry(telemetry.clone())
        .with_scope(scope)
        .serve(ServingOptions::new().with_pacing(Pacing::Stepped))
        .expect("server starts");
    let mut arrivals = Poisson::new(rate, SEED);
    session
        .serve(&mut arrivals, total, |_| Box::new(()))
        .expect("serving run");
    let report = session.stop().expect("serving finish");
    (report, telemetry.report())
}

fn snapshot_of(report: &ServingReport) -> ScopeSnapshot {
    report.scope.clone().expect("scope was configured")
}

/// Acceptance: every tail-sampled request's span tree partitions its
/// latency exactly — the five components sum to admit→complete with no
/// residue — and the snapshot's own accounting is exact. Four apps, 48
/// stepped Poisson arrivals each at 2 000 req/s on 8 cores.
#[test]
fn tail_sampled_span_trees_partition_latency_exactly() {
    for bench in ["filterbank", "kmeans", "montecarlo", "series"] {
        let total = 48;
        let (report, observed) = scoped_run(
            bench,
            8,
            ScopeConfig::default()
                .with_window(Duration::from_millis(5))
                .with_slo(50_000, 0.99),
            2_000.0,
            total,
        );
        let snapshot = snapshot_of(&report);

        // Exact accounting, cross-checked against the serving ledger.
        assert_eq!(snapshot.totals.arrivals, report.arrivals, "{bench}");
        assert_eq!(
            snapshot.totals.arrivals,
            snapshot.totals.admitted + snapshot.totals.shed,
            "{bench}: arrivals partition into admitted + shed"
        );
        assert_eq!(snapshot.totals.completed, report.completed, "{bench}");
        assert!(snapshot.totals.admitted > 0, "{bench}: nothing admitted");
        assert_eq!(
            snapshot.totals.completed, snapshot.totals.admitted,
            "{bench}: every admitted request completed"
        );
        assert_eq!(
            snapshot.in_flight, 0,
            "{bench}: nothing in flight after stop"
        );

        let sampled = snapshot.sampled_requests();
        assert!(!sampled.is_empty(), "{bench}: tail sampler kept nothing");
        let trees = analyze::span_trees(&observed, &sampled);
        assert_eq!(
            trees.len(),
            sampled.len(),
            "{bench}: every sampled completion reconstructs"
        );
        for tree in &trees {
            assert!(!tree.invocations.is_empty(), "{bench}: empty span tree");
            assert_eq!(
                tree.breakdown.component_sum(),
                tree.breakdown.total,
                "{bench}: request {} leaves {} ns unattributed",
                tree.request,
                tree.breakdown.total as i64 - tree.breakdown.component_sum() as i64
            );
            assert!(tree.breakdown.compute > 0, "{bench}: no compute attributed");
            let rendered = tree.render("ns");
            assert!(
                rendered.contains(&format!("request {}", tree.request)),
                "{bench}: render misses the request id"
            );
        }
    }
}

/// Satellite: under stepped pacing the scope plane runs on the virtual
/// arrival clock, so the JSON and Prometheus exports are byte-identical
/// at 1 worker thread and at 8 — and across repeated 8-thread runs.
#[test]
fn stepped_snapshots_are_byte_identical_across_thread_counts() {
    let run = |cores: usize| -> (String, String) {
        let (report, _) = scoped_run(
            "kmeans",
            cores,
            ScopeConfig::default()
                .with_window(Duration::from_millis(2))
                .with_slo(20_000, 0.999),
            2_000.0,
            16,
        );
        let snapshot = snapshot_of(&report);
        (snapshot.to_json(), snapshot.to_prometheus())
    };
    let one = run(1);
    let eight_a = run(8);
    let eight_b = run(8);
    assert_eq!(
        one, eight_a,
        "scope snapshot diverged between 1 and 8 threads"
    );
    assert_eq!(eight_a, eight_b, "same-seed 8-thread snapshots diverged");
}

/// Tail sampling keeps the slowest-K plus a bounded seeded reservoir
/// per window — never the full stream — and every kept id is a real
/// request from this run, deduplicated and ascending.
#[test]
fn tail_sampling_is_bounded_and_well_formed() {
    let budget = SLOW_K + RESERVOIR;
    let total = 30;
    let (report, _) = scoped_run(
        "filterbank",
        8,
        ScopeConfig::default().with_window(Duration::from_millis(5)),
        2_000.0,
        total,
    );
    let snapshot = snapshot_of(&report);

    // Per-window budget: slowest-K + reservoir (no sheds on a clean run).
    assert_eq!(snapshot.totals.shed, 0, "clean run shed");
    assert!(
        snapshot.windows.iter().any(|w| w.completed > budget as u64),
        "no window completes more than the budget, so the bound is untested"
    );
    for w in &snapshot.windows {
        let kept = snapshot
            .sampled
            .iter()
            .filter(|s| s.window == w.index)
            .count();
        assert!(
            kept <= budget,
            "window {} kept {kept} > budget {budget}",
            w.index
        );
    }
    assert!(
        (snapshot.sampled.len() as u64) < total as u64,
        "sampler kept the full stream"
    );

    let ids = snapshot.sampled_requests();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(ids, sorted, "sampled ids not deduplicated ascending");
    for id in &ids {
        assert!(
            *id >= 1 && *id <= total as u64,
            "sampled id {id} outside the request range"
        );
    }
    // No sample claims a latency beyond the recorded maximum.
    for s in &snapshot.sampled {
        assert!(
            s.latency_us <= snapshot.totals.max_us,
            "sample {} claims {}µs beyond the max {}µs",
            s.request,
            s.latency_us,
            snapshot.totals.max_us
        );
    }
}

/// The live handle on a serving session yields concurrent snapshots
/// whose exports carry the `bamboo_scope_*` metric families, with
/// burn-rate consistent with the recorded SLO violations.
#[test]
fn live_handle_exports_are_consistent() {
    let bench = by_name("kmeans").expect("benchmark exists");
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(8);
    let plan = compiler.plan("scope", &machine, SEED).expect("profile run");
    let mut session = DeploymentHandle::from_deployment(plan.deployment)
        .with_scope(
            ScopeConfig::default()
                .with_window(Duration::from_millis(5))
                // A 1µs SLO the tail must violate: burn-rate lights up.
                .with_slo(1, 0.999),
        )
        .serve(ServingOptions::new().with_pacing(Pacing::Stepped))
        .expect("server starts");
    let handle = session.scope().expect("scope handle is live");

    let mut arrivals = Poisson::new(2_000.0, SEED);
    session
        .serve(&mut arrivals, 12, |_| Box::new(()))
        .expect("serving run");
    // Mid-session snapshot: drained after stepped serve, so all 12 done.
    let live = handle.snapshot();
    assert_eq!(live.totals.completed, 12);
    let report = session.stop().expect("serving finish");
    let snapshot = snapshot_of(&report);
    assert_eq!(snapshot.totals.completed, live.totals.completed);

    // The tail violated the 1µs SLO (same-tick completions land at
    // 0µs under stepped pacing, so not necessarily all of them), and
    // the burn-rate is exactly the violation fraction over the 0.1%
    // error budget.
    let violations = snapshot.totals.slo_violations;
    assert!(violations > 0, "1µs SLO never violated");
    assert!(violations <= snapshot.totals.completed);
    let expected_burn =
        (violations as f64 / snapshot.totals.completed as f64) / (1.0 - snapshot.slo_target);
    assert!(
        (snapshot.totals.burn_rate - expected_burn).abs() < 1e-9,
        "burn rate {} != violations/budget {}",
        snapshot.totals.burn_rate,
        expected_burn
    );
    assert!(
        snapshot.totals.burn_rate > 1.0,
        "burn rate {} under a hot SLO",
        snapshot.totals.burn_rate
    );

    let json = snapshot.to_json();
    for key in [
        "\"scope\"",
        "\"totals\"",
        "\"windows\"",
        "\"sampled\"",
        "\"burn_rate\"",
        "\"p99_us\"",
    ] {
        assert!(json.contains(key), "JSON export misses {key}");
    }
    let prom = snapshot.to_prometheus();
    for family in [
        "bamboo_scope_requests_total",
        "bamboo_scope_latency_us",
        "bamboo_scope_window_throughput_rps",
        "bamboo_scope_slo_burn_rate",
        "bamboo_scope_sampled_spans",
        "bamboo_scope_in_flight",
    ] {
        assert!(prom.contains(family), "Prometheus export misses {family}");
    }
}

/// A scope config set on the `ServingOptions` wins over the handle's;
/// with neither, the report carries no snapshot and serving is
/// unchanged (scope-off is the default).
#[test]
fn scope_is_opt_in_and_options_take_precedence() {
    let bench = by_name("filterbank").expect("benchmark exists");
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(8);
    let plan = compiler.plan("scope", &machine, SEED).expect("profile run");

    // Off by default.
    let mut session = DeploymentHandle::from_deployment(plan.deployment.clone())
        .serve(ServingOptions::new().with_pacing(Pacing::Stepped))
        .expect("server starts");
    assert!(session.scope().is_none(), "scope on without opt-in");
    let mut arrivals = Poisson::new(1_000.0, 3);
    session
        .serve(&mut arrivals, 4, |_| Box::new(()))
        .expect("serve");
    let report = session.stop().expect("finish");
    assert!(report.scope.is_none(), "snapshot on a scope-off run");
    assert_eq!(report.completed, 4);

    // Options-level config wins over the handle's.
    let session = DeploymentHandle::from_deployment(plan.deployment)
        .with_scope(ScopeConfig::default().with_slo(77, 0.5))
        .serve(
            ServingOptions::new()
                .with_pacing(Pacing::Stepped)
                .with_scope(ScopeConfig::default().with_slo(123_456, 0.9)),
        )
        .expect("server starts");
    let handle = session.scope().expect("scope handle is live");
    let snap = handle.snapshot();
    assert_eq!(snap.slo_us, 123_456, "options-level scope config lost");
    assert!((snap.slo_target - 0.9).abs() < 1e-9);
    session.stop().expect("finish");
}
