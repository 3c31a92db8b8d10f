//! Serving integration tests: resident deployments, the request
//! ledger, admission control, and chaos interplay (DESIGN.md §15).
//!
//! The acceptance criterion under test throughout: per-request
//! completion is *exact* — a request's completion fires iff all the
//! invocations it transitively spawned finished, with the tally
//! verified against the deterministic virtual executor's causal graph.

use bamboo::telemetry::analyze::ObservedGraph;
use bamboo::telemetry::event::{shed_reason, EventKind};
use bamboo::{
    AdmissionControl, Deployment, DeploymentHandle, Error, ExecConfig, FaultSpec, KillTarget,
    MachineDescription, NativePayload, Pacing, Poisson, RecoveryPolicy, RunOptions, ServingOptions,
    ServingReport, Telemetry, ThreadedExecutor, TokenBucket, Trace, VirtualExecutor,
};
use bamboo_apps::{by_name, Scale};
use std::time::Duration;

/// Profiles `bench_name` at small scale, synthesizes for `cores` cores
/// with a fixed seed, and deploys (same recipe as the doctor tests).
fn deploy_for(bench_name: &str, cores: usize, seed: u64) -> (Deployment, MachineDescription) {
    let bench = by_name(bench_name).expect("benchmark exists");
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(cores);
    let plan = compiler
        .plan("serving", &machine, seed)
        .expect("profile run");
    (plan.deployment, machine)
}

/// Invocations one full workload executes, from the virtual executor's
/// causal graph over the same deployment.
fn predicted_invocations(deployment: &Deployment, machine: &MachineDescription) -> u64 {
    let config = ExecConfig {
        collect_trace: true,
        ..ExecConfig::default()
    };
    let mut exec = VirtualExecutor::over(deployment, machine, config);
    let trace = exec
        .run(None)
        .expect("virtual run")
        .trace
        .expect("trace requested");
    trace.tasks.len() as u64
}

/// Serves `total` Poisson arrivals through `handle` and returns the
/// report.
fn serve_poisson(
    handle: DeploymentHandle,
    options: ServingOptions,
    rate: f64,
    seed: u64,
    total: usize,
) -> Result<ServingReport, Error> {
    let mut session = handle.serve(options)?;
    let mut arrivals = Poisson::new(rate, seed);
    session.serve(&mut arrivals, total, |_| Box::new(()))?;
    Ok(session.stop()?)
}

/// Acceptance: every request's completion tally equals the invocation
/// count of the virtual executor's causal graph — even under wall
/// pacing where requests overlap arbitrarily on the cores — and the
/// `serving.*` events in the telemetry rings reconstruct the same
/// counts with a full latency distribution.
#[test]
fn per_request_completion_is_exact_against_virtual_graph() {
    for bench in ["kmeans", "filterbank"] {
        let (deployment, machine) = deploy_for(bench, 8, 42);
        let expected = predicted_invocations(&deployment, &machine);
        assert!(expected > 0, "{bench}: virtual graph is non-trivial");

        let telemetry = Telemetry::enabled(9); // 8 workers + driver
        let total = 12;
        let report = serve_poisson(
            DeploymentHandle::from_deployment(deployment).with_telemetry(telemetry.clone()),
            ServingOptions::new(),
            800.0,
            7,
            total,
        )
        .expect("serving run");

        assert_eq!(report.arrivals, total as u64, "{bench}");
        assert_eq!(report.admitted, total as u64, "{bench}");
        assert_eq!(report.completed, total as u64, "{bench}");
        assert_eq!(report.completions.len(), total, "{bench}");
        for c in &report.completions {
            assert_eq!(
                c.invocations, expected,
                "{bench}: request {} tallied {} invocations, virtual graph has {}",
                c.request, c.invocations, expected
            );
        }
        assert_eq!(
            report.executor.invocations,
            expected * total as u64,
            "{bench}: executor total is the sum of per-request tallies"
        );

        // The same numbers fall out of the recorded event rings.
        let graph = ObservedGraph::from_report(&telemetry.report());
        let rows = &graph.requests;
        assert_eq!(
            rows.iter().filter(|r| r.arrived.is_some()).count(),
            total,
            "{bench}"
        );
        assert_eq!(
            rows.iter().filter(|r| r.admitted.is_some()).count(),
            total,
            "{bench}"
        );
        assert_eq!(rows.iter().filter(|r| r.shed).count(), 0, "{bench}");
        assert_eq!(
            rows.iter().filter(|r| r.completed.is_some()).count(),
            total,
            "{bench}"
        );
        let latency = graph.latency();
        assert_eq!(latency.count(), total as u64, "{bench}");
        assert!(latency.p99() >= latency.p50(), "{bench}");
        for r in rows {
            assert_eq!(r.invocations, expected, "{bench}: request {}", r.id);
        }
    }
}

/// Satellite: under stepped pacing the same seed yields the same
/// per-request completion order and tallies at 1 worker thread and at
/// 8 — and byte-identical reports across repeated 8-thread runs.
#[test]
fn stepped_completion_order_is_thread_count_invariant() {
    let stepped = || ServingOptions::new().with_pacing(Pacing::Stepped);
    let run = |cores: usize| -> Vec<(u64, u64)> {
        let (deployment, _machine) = deploy_for("kmeans", cores, 42);
        let report = serve_poisson(
            DeploymentHandle::from_deployment(deployment),
            stepped(),
            2_000.0,
            9,
            10,
        )
        .expect("stepped run");
        assert_eq!(report.completed, 10);
        report
            .completions
            .iter()
            .map(|c| (c.request, c.invocations))
            .collect()
    };
    let one = run(1);
    let eight_a = run(8);
    let eight_b = run(8);
    let order = |v: &[(u64, u64)]| v.iter().map(|&(r, _)| r).collect::<Vec<_>>();
    assert_eq!(
        order(&one),
        order(&eight_a),
        "completion order diverged between 1 and 8 threads"
    );
    assert_eq!(eight_a, eight_b, "same-seed 8-thread runs diverged");
}

/// Satellite: after a drain the request ledger is empty — no leaked
/// per-request entries, nothing outstanding.
#[test]
fn ledger_is_empty_after_drain() {
    let (deployment, _machine) = deploy_for("filterbank", 8, 42);
    let mut session = DeploymentHandle::from_deployment(deployment)
        .serve(ServingOptions::new())
        .expect("session starts");
    let mut arrivals = Poisson::new(500.0, 3);
    session
        .serve(&mut arrivals, 8, |_| Box::new(()))
        .expect("serve");
    session.await_idle().expect("drain");
    assert_eq!(session.outstanding(), 0);
    assert!(session.ledger_is_empty(), "ledger leaked entries");
    let report = session.stop().expect("stop");
    assert_eq!(report.admitted, 8);
    assert_eq!(report.completed, 8);
}

/// A clean run — no faults, offered load far under capacity, open
/// admission — completes every request and sheds nothing anywhere:
/// neither at serving admission nor on the router's shed-on-overflow
/// path (`router.shed` / [`bamboo::ThreadedReport::router_shed`]). Four
/// apps, 64 Poisson arrivals each at 800 req/s on 8 cores.
#[test]
fn clean_run_sheds_nothing() {
    let total = 64;
    for bench in ["filterbank", "kmeans", "montecarlo", "series"] {
        let (deployment, _machine) = deploy_for(bench, 8, 42);
        let report = serve_poisson(
            DeploymentHandle::from_deployment(deployment),
            ServingOptions::new(),
            800.0,
            42,
            total,
        )
        .expect("clean run");
        assert_eq!(report.admitted, total as u64, "{bench}");
        assert_eq!(report.completed, report.admitted, "{bench}");
        assert_eq!(report.shed, 0, "{bench}: admission shed on a clean run");
        assert_eq!(report.shed_rate_limit, 0, "{bench}");
        assert_eq!(report.shed_queue_depth, 0, "{bench}");
        assert_eq!(
            report.executor.router_shed, 0,
            "{bench}: router shed invocations on a clean run"
        );
    }
}

/// Deep parameter sets: 1500 requests due at the same instant on two
/// workers, so every request's objects are buffered side by side.
/// Formation must keep requests apart at any depth — each completes
/// with exactly the program's invocation count — and the drain leaves
/// the ledger empty.
#[test]
fn same_instant_burst_completes_every_request_exactly() {
    let (deployment, machine) = deploy_for("kmeans", 2, 42);
    let expected = predicted_invocations(&deployment, &machine);
    assert_eq!(expected, 37, "KMeans at Scale::Small");
    let total = 1500;
    let mut session = DeploymentHandle::from_deployment(deployment)
        .serve(ServingOptions::new())
        .expect("session starts");
    let mut arrivals = Trace::replay(vec![Duration::ZERO]);
    session
        .serve(&mut arrivals, total, |_| Box::new(()))
        .expect("serve");
    session.await_idle().expect("drain");
    assert!(session.ledger_is_empty(), "ledger leaked entries");
    let report = session.stop().expect("stop");
    assert_eq!(report.completed, total as u64);
    assert_eq!(report.completions.len(), total);
    for c in &report.completions {
        assert_eq!(c.invocations, expected, "request {}", c.request);
    }
    assert_eq!(report.executor.invocations, expected * total as u64);
}

/// Both counts stay exact when objects are handed over on their own
/// core without a message: on one worker every hand-off is local, on two
/// most are. Each request completes with exactly the program's
/// invocation count, and quiescence leaves no activity and no ledger
/// entry behind.
#[test]
fn resident_counts_stay_exact_on_one_and_two_workers() {
    for cores in [1, 2] {
        let (deployment, machine) = deploy_for("kmeans", cores, 42);
        let expected = predicted_invocations(&deployment, &machine);
        assert_eq!(expected, 37, "KMeans at Scale::Small");
        let total = 60;
        let mut run = ThreadedExecutor::default()
            .start(&deployment, RunOptions::default())
            .expect("resident start");
        run.inject_batch((0..total).map(|_| Box::new(()) as NativePayload).collect());
        run.drain().expect("drain");
        assert_eq!(run.outstanding(), 0, "{cores} workers");
        assert!(run.ledger_is_empty(), "{cores} workers: ledger leaked");
        let completions = run.try_completions();
        assert_eq!(completions.len(), total, "{cores} workers");
        for c in &completions {
            assert_eq!(c.invocations, expected, "request {}", c.request);
        }
        let report = run.shutdown().expect("shutdown");
        assert_eq!(report.invocations, expected * total as u64);
        assert_eq!(report.lock_retries, 0, "KMeans is all-disjoint");
    }
}

/// `drain()` returns only after every completion is on the channel, the
/// order stepped serving relies on when it reads `try_completions()`
/// right after a drain. Each of 300 inject-drain-read cycles, on one
/// and on two workers, finds exactly the request it injected, with the
/// program's invocation count.
#[test]
fn drain_then_try_completions_finds_every_completion() {
    for cores in [1, 2] {
        let (deployment, machine) = deploy_for("kmeans", cores, 42);
        let expected = predicted_invocations(&deployment, &machine);
        assert_eq!(expected, 37, "KMeans at Scale::Small");
        let mut run = ThreadedExecutor::default()
            .start(&deployment, RunOptions::default())
            .expect("resident start");
        for cycle in 0..300 {
            let request = run.inject(Box::new(()));
            run.drain().expect("drain");
            let completions = run.try_completions();
            assert_eq!(completions.len(), 1, "{cores} workers, cycle {cycle}");
            assert_eq!(completions[0].request, request, "{cores} workers");
            assert_eq!(completions[0].invocations, expected, "{cores} workers");
        }
        assert!(run.ledger_is_empty(), "{cores} workers: ledger leaked");
        run.shutdown().expect("shutdown");
    }
}

/// Admission control sheds typed and accounted: a one-token bucket
/// against a burst admits exactly what the bucket sustains, every
/// refusal lands in the rate-limit tally, and nothing admitted is
/// lost.
#[test]
fn token_bucket_sheds_are_typed_and_accounted() {
    let (deployment, _machine) = deploy_for("filterbank", 8, 42);
    // 50/s sustained, burst 2, offered ~2000/s in stepped (virtual)
    // time: most arrivals must shed.
    let options = ServingOptions::new()
        .with_pacing(Pacing::Stepped)
        .with_admission(AdmissionControl::open().with_rate(TokenBucket::new(50.0, 2.0)));
    let report = serve_poisson(
        DeploymentHandle::from_deployment(deployment),
        options,
        2_000.0,
        5,
        30,
    )
    .expect("rate-limited run");
    assert_eq!(report.arrivals, 30);
    assert_eq!(report.admitted + report.shed, report.arrivals);
    assert!(report.shed > 0, "bucket never refused");
    assert_eq!(report.shed, report.shed_rate_limit);
    assert_eq!(report.shed_queue_depth, 0);
    assert_eq!(
        report.completed, report.admitted,
        "admitted requests all completed"
    );
}

/// Queue-depth admission end to end: stepped arrivals at 20 000 req/s
/// mostly land within one batch window of each other, so micro-batches
/// fill to the depth bound of 4 and the arrivals behind them shed.
/// Every shed is typed, admitted requests all complete, each shed
/// carries an id of its own that no admitted request shares, and the
/// shed request ids are the same at 1 worker thread and at 8.
#[test]
fn queue_depth_sheds_are_typed_and_thread_count_invariant() {
    let run = |cores: usize| -> Vec<u64> {
        let (deployment, _machine) = deploy_for("kmeans", cores, 42);
        // Workers plus the serving driver's own ring.
        let telemetry = Telemetry::enabled(cores + 1);
        let options = ServingOptions::new()
            .with_pacing(Pacing::Stepped)
            .with_admission(AdmissionControl::open().with_max_ingress_depth(4));
        let report = serve_poisson(
            DeploymentHandle::from_deployment(deployment).with_telemetry(telemetry.clone()),
            options,
            20_000.0,
            3,
            60,
        )
        .expect("depth-bounded run");
        assert!(
            report.shed_queue_depth > 0,
            "{cores}: depth bound never shed"
        );
        assert_eq!(report.shed_rate_limit, 0);
        assert_eq!(report.shed, report.shed_queue_depth);
        assert_eq!(report.admitted + report.shed, report.arrivals);
        assert_eq!(report.admitted, report.completed, "{cores}");
        let sheds: Vec<(u64, u64)> = telemetry
            .report()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::ReqShed)
            .map(|e| (e.a, e.b))
            .collect();
        assert_eq!(sheds.len() as u64, report.shed, "{cores}");
        assert!(
            sheds
                .iter()
                .all(|&(_, reason)| reason == shed_reason::QUEUE_DEPTH),
            "{cores}: untyped shed in {sheds:?}"
        );
        let mut ids: Vec<u64> = sheds.into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        let distinct = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), distinct, "{cores}: two sheds share an id");
        for c in &report.completions {
            assert!(
                ids.binary_search(&c.request).is_err(),
                "{cores}: shed id {} names a completed request",
                c.request
            );
        }
        ids
    };
    assert_eq!(run(1), run(8), "shed ids diverged between 1 and 8 threads");
}

/// The channel ingress refuses over-capacity submissions with the
/// typed overload error, which converts into `bamboo::Error::Overloaded`.
#[test]
fn channel_overflow_is_typed_overloaded() {
    let (handle, _ingress) = bamboo::serving::channel(1);
    handle.submit(Box::new(())).expect("first fits");
    let err: Error = handle.submit(Box::new(())).unwrap_err().into();
    assert!(
        matches!(err, Error::Overloaded { .. }),
        "unexpected error: {err:?}"
    );
}

/// Chaos interplay: an expendable-core kill mid-stream is absorbed by
/// failover — every admitted request still completes with the exact
/// invocation tally.
#[test]
fn expendable_kill_mid_request_still_completes_every_request() {
    let (deployment, machine) = deploy_for("kmeans", 8, 42);
    let expected = predicted_invocations(&deployment, &machine);
    let handle = DeploymentHandle::from_deployment(deployment)
        .with_faults(FaultSpec::seeded(7).with_kill(KillTarget::Expendable, 1));
    let report =
        serve_poisson(handle, ServingOptions::new(), 500.0, 13, 6).expect("recovered chaos run");
    assert_eq!(report.completed, 6, "a request was lost to the kill");
    for c in &report.completions {
        assert_eq!(
            c.invocations, expected,
            "request {} tally drifted under failover",
            c.request
        );
    }
}

/// Chaos interplay: an unrecoverable kill fails the serving run with
/// the typed `CoreLost` — it never hangs waiting for a completion that
/// cannot come.
#[test]
fn unrecoverable_kill_is_typed_core_lost_not_a_hang() {
    let (deployment, _machine) = deploy_for("fractal", 8, 42);
    // Kill every core before its first dispatch, recovery disabled.
    let spec = (0..8).fold(
        FaultSpec::seeded(7).with_recovery(RecoveryPolicy::Disabled),
        |s, c| s.with_kill(KillTarget::Core(c), 0),
    );
    let mut session = DeploymentHandle::from_deployment(deployment)
        .with_faults(spec)
        .serve(ServingOptions::new())
        .expect("session starts");
    let mut arrivals = Poisson::new(1_000.0, 1);
    // serve() may or may not observe the failure depending on when the
    // kill lands; stop() must surface it either way (and always
    // stops the workers, so the error path never leaks threads).
    let served = session.serve(&mut arrivals, 2, |_| Box::new(()));
    let finished = session.stop().map(|_| ());
    let err: Error = match served.and(finished) {
        Err(e) => e.into(),
        Ok(()) => panic!("unrecovered kill did not fail the serving run"),
    };
    assert!(
        matches!(err, Error::CoreLost { .. }),
        "unexpected error: {err:?}"
    );
}
