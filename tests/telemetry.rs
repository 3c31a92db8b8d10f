//! Integration tests for the telemetry subsystem (observability across
//! the compiler, scheduler, and executors).
//!
//! Covers the acceptance criteria end to end: Chrome-trace structural
//! validation on a real benchmark, byte-identical determinism of
//! exported virtual traces, the predicted-vs-observed side-by-side
//! export, and DSA search statistics flowing into the metrics registry.

use bamboo::telemetry::analyze::Ledger;
use bamboo::telemetry::{chrome, json, summary, EventKind};
use bamboo::{
    simulate, Compiler, ExecConfig, MachineDescription, Plan, SimOptions, Telemetry,
    VirtualExecutor,
};
use bamboo_apps::{by_name, Scale};

/// Plans `bench_name` at small scale for `cores` cores with a fixed
/// seed.
fn plan_for(bench_name: &str, cores: usize, seed: u64) -> (Compiler, Plan, MachineDescription) {
    let bench = by_name(bench_name).expect("benchmark exists");
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(cores);
    let plan = compiler
        .plan("telemetry", &machine, seed)
        .expect("profile run");
    (compiler, plan, machine)
}

/// Acceptance criterion: the Chrome trace exported from a benchmark run
/// parses, every event carries pid/tid/ph/ts, and every core that
/// recorded anything shows up in the timeline.
#[test]
fn exported_chrome_trace_has_valid_structure() {
    let (compiler, plan, machine) = plan_for("kmeans", 8, 17);
    let telemetry = Telemetry::enabled(8);
    let config = ExecConfig {
        collect_trace: true,
        telemetry: telemetry.clone(),
        ..ExecConfig::default()
    };
    let mut exec = VirtualExecutor::over(&plan.deployment, &machine, config);
    let run = exec.run(None).expect("benchmark runs");
    assert!(run.quiesced);

    let report = telemetry.report();
    assert!(
        !report.events.is_empty(),
        "an enabled session records events"
    );
    assert_eq!(
        report.dropped, 0,
        "default ring capacity holds a small-scale run"
    );
    let active = report.active_cores();
    assert!(active.len() >= 2, "synthesized layout uses multiple cores");

    let text = chrome::report_json(&report, &compiler.program.spec, "kmeans (observed)");
    let doc = json::parse(&text).expect("exported trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());
    for event in events {
        for field in ["ph", "pid", "tid", "ts", "name"] {
            assert!(
                event.get(field).is_some(),
                "event missing {field}: {event:?}"
            );
        }
    }
    // Every active core contributes at least one non-metadata event.
    for core in &active {
        let on_core = events
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() != Some("M")
                    && e.get("tid").unwrap().as_f64() == Some(*core as f64)
            })
            .count();
        assert!(
            on_core >= 1,
            "core {core} recorded events but exported none"
        );
    }
    // One complete ("X") slice per dispatched task.
    let slices = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
        .count() as u64;
    assert_eq!(slices, run.invocations);

    // The per-core table and the metrics dump render from the same
    // report.
    let table = Ledger::from_report(&report).table();
    for core in &active {
        assert!(
            table.contains(&format!("\n{core:>4} ")),
            "summary row for core {core}"
        );
    }
    let metrics = summary::metrics_json(&report.metrics);
    json::parse(&metrics).expect("metrics dump is valid JSON");
}

/// Satellite: determinism regression — two virtual executions of the
/// same program + layout export byte-identical traces and identical
/// telemetry event streams.
#[test]
fn virtual_traces_are_byte_identical_across_runs() {
    let run_once = || {
        let (compiler, plan, machine) = plan_for("series", 4, 99);
        let telemetry = Telemetry::enabled(4);
        let config = ExecConfig {
            collect_trace: true,
            telemetry: telemetry.clone(),
            ..ExecConfig::default()
        };
        let mut exec = VirtualExecutor::over(&plan.deployment, &machine, config);
        let run = exec.run(None).expect("benchmark runs");
        let trace = run.trace.expect("trace collection was requested");
        let trace_json = chrome::execution_trace_json(&trace, &compiler.program.spec, "observed");
        let report_json = chrome::report_json(
            &telemetry.report(),
            &compiler.program.spec,
            "series (observed)",
        );
        (trace_json, report_json)
    };
    let (trace_a, report_a) = run_once();
    let (trace_b, report_b) = run_once();
    assert_eq!(trace_a, trace_b, "executor traces must be byte-identical");
    assert_eq!(
        report_a, report_b,
        "telemetry event streams must be byte-identical"
    );
}

/// Satellite: the simulator's predicted timeline and the executor's
/// observed timeline render side by side in one Chrome trace document.
#[test]
fn predicted_and_observed_traces_export_side_by_side() {
    let (compiler, plan, machine) = plan_for("montecarlo", 8, 23);
    let sim = simulate(
        &compiler.program.spec,
        &plan.deployment.graph,
        &plan.deployment.layout,
        &plan.profile,
        &machine,
        &SimOptions {
            collect_trace: true,
            ..SimOptions::default()
        },
    );
    let predicted = sim.trace.expect("simulator trace was requested");

    let config = ExecConfig {
        collect_trace: true,
        ..ExecConfig::default()
    };
    let mut exec = VirtualExecutor::over(&plan.deployment, &machine, config);
    let run = exec.run(None).expect("benchmark runs");
    let observed = run.trace.expect("executor trace was requested");

    let text = chrome::side_by_side_json(&predicted, &observed, &compiler.program.spec);
    let doc = json::parse(&text).expect("side-by-side export is valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    for pid in [chrome::PID_PREDICTED, chrome::PID_OBSERVED] {
        assert!(
            events.iter().any(|e| {
                e.get("pid").unwrap().as_f64() == Some(pid as f64)
                    && e.get("ph").unwrap().as_str() == Some("X")
            }),
            "process {pid} has no task slices"
        );
    }
}

/// Tentpole wiring: [`Telemetry::record_dsa`] records the
/// DSA optimizer's search statistics — iteration/simulation counters,
/// acceptance rate, and the best-cost convergence trajectory.
#[test]
fn dsa_statistics_flow_into_telemetry() {
    let (_, plan, _) = plan_for("kmeans", 8, 5);
    let telemetry = Telemetry::enabled(1);
    telemetry.record_dsa(&plan.synthesis.stats);

    let metrics = telemetry.report().metrics;
    assert!(metrics.counters["dsa.iterations"] >= 1);
    assert!(metrics.counters["dsa.simulations"] >= 1);
    assert!(metrics.counters["dsa.candidates_evaluated"] >= 1);
    let rate = metrics.gauges["dsa.acceptance_rate_pct"];
    assert!(
        (0..=100).contains(&rate),
        "acceptance rate {rate}% out of range"
    );
    assert_eq!(
        metrics.gauges["dsa.best_makespan"],
        plan.synthesis.stats.best_makespan as i64
    );

    let trajectory = &metrics.series["dsa.best_makespan_trajectory"];
    assert!(
        !trajectory.is_empty(),
        "trajectory records per-iteration best cost"
    );
    assert!(
        trajectory.windows(2).all(|w| w[1] <= w[0]),
        "best-cost trajectory must be non-increasing: {trajectory:?}"
    );
    assert_eq!(
        *trajectory.last().unwrap(),
        plan.synthesis.stats.best_makespan
    );
}

/// The event stream recorded during a virtual run is consistent with
/// the run report: one task start/end pair per invocation and one send
/// event per inter-core transfer.
#[test]
fn telemetry_events_match_run_report() {
    let (_, plan, machine) = plan_for("filterbank", 8, 41);
    let telemetry = Telemetry::enabled(8);
    let config = ExecConfig {
        telemetry: telemetry.clone(),
        ..ExecConfig::default()
    };
    let mut exec = VirtualExecutor::over(&plan.deployment, &machine, config);
    let run = exec.run(None).expect("benchmark runs");

    let report = telemetry.report();
    assert_eq!(report.count(EventKind::TaskStart) as u64, run.invocations);
    assert_eq!(report.count(EventKind::TaskEnd) as u64, run.invocations);
    assert_eq!(report.count(EventKind::ObjSend) as u64, run.transfers);
    assert!(report.last_ts() <= run.makespan);
}
