//! Chaos integration tests: deterministic fault injection and recovery
//! in the threaded executor (DESIGN.md §14).
//!
//! The CI `chaos-smoke` matrix sweeps `BAMBOO_CHAOS_THREADS` and
//! `BAMBOO_CHAOS_SEED` over these tests; unset, they run at 8 threads
//! with seed 7. The determinism contract is checked on what the plan
//! *schedules* (the rendered schedule string) and on *results* (final
//! payload checksums) — never on wall-clock-dependent tallies.

use bamboo::telemetry::analyze;
use bamboo::telemetry::event::{fault_code, EventKind};
use bamboo::{
    Compiler, Deployment, ExecError, FaultSpec, KillTarget, MachineDescription, RecoveryPolicy,
    RunOptions, Telemetry, ThreadedExecutor,
};
use bamboo_apps::{all, by_name, Benchmark, Scale};
use std::time::Duration;

/// Thread count for every chaos run (CI matrix override).
fn threads() -> usize {
    std::env::var("BAMBOO_CHAOS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// Fault-plan seed (CI matrix override).
fn seed() -> u64 {
    std::env::var("BAMBOO_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

/// Profiles, synthesizes (fixed seed 42, matching `bamboo-doctor`), and
/// deploys `bench` for a `cores`-core machine.
fn deploy(bench: &dyn Benchmark, cores: usize) -> (Compiler, Deployment) {
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(cores);
    let plan = compiler.plan("chaos", &machine, 42).expect("profile run");
    (compiler, plan.deployment)
}

/// On every benchmark: a clean run, then two runs under the seeded
/// default fault plan. Both faulty runs terminate, render the same
/// fault schedule, inject at least one fault, and produce the clean
/// run's output.
#[test]
fn same_seed_runs_are_schedule_and_payload_deterministic() {
    for bench in all() {
        let name = bench.name();
        let (compiler, deployment) = deploy(bench.as_ref(), threads());
        let exec = ThreadedExecutor::default();
        let clean = exec
            .run(&deployment, RunOptions::default())
            .expect("clean run");
        let clean_sum = bench.threaded_checksum(&compiler, &clean);

        let chaos_run = || {
            exec.run(
                &deployment,
                RunOptions::default().with_faults(FaultSpec::default_plan(seed())),
            )
            .unwrap_or_else(|e| panic!("{name}: chaos run failed: {e}"))
        };
        let a = chaos_run();
        let b = chaos_run();

        // Identical seed + thread count ⇒ byte-identical fault schedule.
        let schedule = a
            .fault_schedule
            .as_deref()
            .expect("chaos run renders its schedule");
        assert!(
            schedule.contains("chaos schedule"),
            "{name}: unexpected schedule: {schedule}"
        );
        assert_eq!(
            a.fault_schedule, b.fault_schedule,
            "{name}: same-seed schedules diverged"
        );

        // The default plan must actually bite, and recovery must be
        // transparent: both faulty results equal the fault-free result.
        assert!(
            a.faults_injected >= 1,
            "{name}: default plan injected nothing"
        );
        assert_eq!(bench.threaded_checksum(&compiler, &a), clean_sum, "{name}");
        assert_eq!(bench.threaded_checksum(&compiler, &b), clean_sum, "{name}");
    }
}

#[test]
fn expendable_kill_recovers_on_every_benchmark() {
    let spec = FaultSpec::seeded(seed()).with_kill(KillTarget::Expendable, 1);
    for bench in all() {
        let (compiler, deployment) = deploy(bench.as_ref(), threads());
        let exec = ThreadedExecutor::default();
        let clean = exec
            .run(&deployment, RunOptions::default())
            .expect("clean run");
        let clean_sum = bench.threaded_checksum(&compiler, &clean);
        let run = exec
            .run(&deployment, RunOptions::default().with_faults(spec.clone()))
            .unwrap_or_else(|e| panic!("{}: kill run failed: {e}", bench.name()));
        // A kill either resolved (and the run recovered) or was skipped
        // because no core was expendable; the schedule says which.
        let schedule = run.fault_schedule.as_deref().expect("schedule rendered");
        assert!(
            schedule.contains("kill"),
            "{}: no kill line in {schedule}",
            bench.name()
        );
        assert_eq!(
            bench.threaded_checksum(&compiler, &run),
            clean_sum,
            "{}: kill recovery corrupted the result",
            bench.name()
        );
    }
}

#[test]
fn drops_and_delays_are_transparent() {
    let bench = by_name("series").expect("registered");
    // On one core no message crosses cores, and the faults still fire:
    // they are keyed by message id, not by the path the message takes.
    for cores in [threads(), 1] {
        let (compiler, deployment) = deploy(bench.as_ref(), cores);
        let exec = ThreadedExecutor::default();
        let clean = exec
            .run(&deployment, RunOptions::default())
            .expect("clean run");
        let clean_sum = bench.threaded_checksum(&compiler, &clean);
        // Aggressive wire faults, no kills: 10% first-transmission drops
        // and 10% 30µs delays must be absorbed by redelivery alone.
        let spec = FaultSpec::seeded(seed())
            .with_drops(100)
            .with_delays(100, Duration::from_micros(30));
        let run = exec
            .run(&deployment, RunOptions::default().with_faults(spec))
            .expect("wire faults never fail a run below the redelivery bound");
        assert!(
            run.faults_injected >= 1,
            "{cores} cores: 10% drop/delay rates injected nothing"
        );
        assert_eq!(
            bench.threaded_checksum(&compiler, &run),
            clean_sum,
            "{cores} cores"
        );
    }
}

#[test]
fn kill_without_recovery_is_a_typed_error_not_a_hang() {
    let bench = by_name("fractal").expect("registered");
    let (_compiler, deployment) = deploy(bench.as_ref(), threads());
    let exec = ThreadedExecutor::default();
    // Kill every core before its first dispatch so the failure fires
    // regardless of where the startup object lands, and disable
    // recovery: the run must return `CoreLost`, not hang.
    let spec = (0..threads()).fold(
        FaultSpec::seeded(seed()).with_recovery(RecoveryPolicy::Disabled),
        |s, c| s.with_kill(KillTarget::Core(c), 0),
    );
    let err = exec
        .run(&deployment, RunOptions::default().with_faults(spec))
        .expect_err("unrecovered kill must fail the run");
    assert!(
        matches!(err, ExecError::CoreLost { .. }),
        "unexpected error: {err:?}"
    );
}

#[test]
fn diagnosis_attributes_slowdown_to_injected_faults() {
    let bench = by_name("montecarlo").expect("registered");
    let (_compiler, deployment) = deploy(bench.as_ref(), threads());
    let telemetry = Telemetry::enabled(threads());
    let options = RunOptions {
        telemetry: telemetry.clone(),
        ..RunOptions::default()
    }
    .with_faults(FaultSpec::default_plan(seed()));
    let run = ThreadedExecutor::default()
        .run(&deployment, options)
        .expect("chaos run");
    assert!(run.faults_injected >= 1, "default plan injected nothing");
    let diagnosis = analyze::diagnose(&telemetry.report(), None);
    assert!(
        diagnosis
            .findings
            .iter()
            .any(|f| f.rule.starts_with("injected-")),
        "no fault-attribution finding among {:?}",
        diagnosis
            .findings
            .iter()
            .map(|f| f.rule)
            .collect::<Vec<_>>()
    );
}

/// The worker's two timing faults: a stall on the core hosting the
/// startup group, due after its first dispatch, and a slowdown on every
/// invocation's first lock attempt. Both only cost time, so the result
/// equals the fault-free run's; the report and the event stream count
/// each one that fired.
#[test]
fn stalls_and_lock_slowdowns_fire_and_are_transparent() {
    let bench = by_name("kmeans").expect("registered");
    let (compiler, deployment) = deploy(bench.as_ref(), threads());
    let exec = ThreadedExecutor::default();
    let clean = exec
        .run(&deployment, RunOptions::default())
        .expect("clean run");
    let clean_sum = bench.threaded_checksum(&compiler, &clean);

    let startup = deployment.graph.startup_group;
    let host = deployment
        .layout
        .instances
        .iter()
        .find(|inst| inst.group == startup)
        .expect("startup group is placed")
        .core
        .index();
    let spec = FaultSpec::seeded(seed())
        .with_stall(host, 1, Duration::from_millis(1))
        .with_lock_slowdown(1000, Duration::from_micros(20));
    let telemetry = Telemetry::enabled(threads());
    let run = exec
        .run(
            &deployment,
            RunOptions::default()
                .with_telemetry(telemetry.clone())
                .with_faults(spec),
        )
        .expect("timing faults never fail a run");
    assert_eq!(bench.threaded_checksum(&compiler, &run), clean_sum);
    // One stall plus one slowdown per invocation (first attempts only).
    assert_eq!(run.faults_injected, 1 + run.invocations);

    let events = telemetry.report().events;
    let faults = |code: u64| {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Fault && e.a == code)
            .count() as u64
    };
    assert_eq!(faults(fault_code::CORE_STALL), 1);
    assert_eq!(faults(fault_code::LOCK_SLOW), run.invocations);
}
