//! Exports a `chrome://tracing` timeline and a metrics dump for one of
//! the paper's six benchmarks, using the telemetry subsystem.
//!
//! The trace file holds two processes: the scheduling simulator's
//! *predicted* timeline (pid 1) and the virtual executor's *observed*
//! telemetry recording (pid 2) — load it in `chrome://tracing` or
//! Perfetto to compare them side by side (the paper's Fig. 6/9 view).
//!
//! Usage: `cargo run -p bamboo-bench --bin trace_dump [-- <benchmark> [cores]]`
//!
//! `<benchmark>` is one of the names `bamboo_apps::all()` reports
//! (default `kmeans`); `cores` defaults to 8. Output goes to
//! `results/trace_<benchmark>.json` and `results/metrics_<benchmark>.json`.
//!
//! With `--request <id|all>` the tool instead serves a short
//! deterministic (stepped-pacing, fixed-seed) open-loop session with
//! telemetry recording, reconstructs the per-request span tree(s), and
//! prints the causal forest with the exact latency partition (compute /
//! lock-wait / queue-wait / routing / idle) — the offline view of the
//! `bamboo-scope` live plane (DESIGN.md §17).

use bamboo::telemetry::analyze;
use bamboo::telemetry::chrome::{ChromeTrace, PID_OBSERVED, PID_PREDICTED};
use bamboo::telemetry::summary;
use bamboo::{
    simulate, DeploymentHandle, ExecConfig, MachineDescription, Pacing, Poisson, ServingOptions,
    SimOptions, Telemetry, VirtualExecutor,
};
use bamboo_apps::{all, by_name, Benchmark, Scale};

/// Requests served by the `--request` session — enough traffic that
/// requests overlap and the queue/lock/routing components show up.
const REQUEST_DUMP_REQS: usize = 32;

/// `--request` mode: serve a deterministic session and print the span
/// tree(s) for `which` (a request id, or `all`).
fn dump_request(bench: &dyn Benchmark, cores: usize, which: &str) {
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(cores);
    let plan = compiler
        .plan("trace_dump", &machine, 17)
        .expect("profile run");
    // Workers plus the serving driver's own ring.
    let telemetry = Telemetry::enabled(cores + 1);
    let mut session = DeploymentHandle::from_deployment(plan.deployment)
        .with_telemetry(telemetry.clone())
        .serve(ServingOptions::new().with_pacing(Pacing::Stepped))
        .expect("server starts");
    let mut arrivals = Poisson::new(2_000.0, 17);
    session
        .serve(&mut arrivals, REQUEST_DUMP_REQS, |_| Box::new(()))
        .expect("serving run");
    let report = session.stop().expect("serving finish");
    let observed = telemetry.report();

    let graph = analyze::ObservedGraph::from_report(&observed);
    let completed = graph.completed_requests();
    let wanted: Vec<u64> = if which == "all" {
        completed.clone()
    } else {
        match which.parse::<u64>() {
            Ok(id) => vec![id],
            Err(_) => {
                eprintln!("invalid request id `{which}`; expected a number or `all`");
                std::process::exit(2);
            }
        }
    };
    let trees = graph.span_trees(&wanted);
    if trees.is_empty() {
        eprintln!("request(s) {wanted:?} not found in the session; completed ids: {completed:?}");
        std::process::exit(1);
    }
    println!(
        "{} on {cores} cores: {} requests served, {} span tree(s) reconstructed (unit: ns)\n",
        bench.name(),
        report.completed,
        trees.len(),
    );
    for tree in &trees {
        print!("{}", tree.render("ns"));
    }
}

fn main() {
    let mut positional = Vec::new();
    let mut request: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--request" {
            match it.next() {
                Some(v) => request = Some(v),
                None => {
                    eprintln!("--request requires a value (a request id or `all`)");
                    std::process::exit(2);
                }
            }
        } else {
            positional.push(arg);
        }
    }
    let name = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "kmeans".to_string());
    let cores: usize = match positional.get(1) {
        None => 8,
        Some(c) => match c.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("invalid core count `{c}`; expected a positive integer");
                std::process::exit(2);
            }
        },
    };
    let Some(bench) = by_name(&name) else {
        let names: Vec<&str> = all().iter().map(|b| b.name()).collect();
        eprintln!("unknown benchmark `{name}`; expected one of {names:?}");
        std::process::exit(2);
    };
    if let Some(which) = request {
        dump_request(bench.as_ref(), cores, &which);
        return;
    }

    // Profile, synthesize a layout, and predict its timeline.
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(cores);
    let plan = compiler
        .plan("trace_dump", &machine, 17)
        .expect("profile run");
    let telemetry = Telemetry::enabled(cores);
    telemetry.record_dsa(&plan.synthesis.stats);
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

    // Execute the plan with telemetry recording.
    let config = ExecConfig {
        telemetry: telemetry.clone(),
        ..ExecConfig::default()
    };
    let mut exec = VirtualExecutor::over(&plan.deployment, &machine, config);
    let run = exec.run(None).expect("benchmark runs");
    let report = telemetry.report();

    // Predicted timeline next to the observed recording, one document.
    let mut trace = ChromeTrace::new();
    if let Some(predicted) = &sim.trace {
        trace.push_execution_trace(
            PID_PREDICTED,
            "predicted (simulator)",
            predicted,
            &compiler.program.spec,
        );
    }
    trace.push_report(
        PID_OBSERVED,
        &format!("{name} (observed)"),
        &report,
        &compiler.program.spec,
    );

    std::fs::create_dir_all("results").expect("create results/");
    let trace_path = format!("results/trace_{name}.json");
    std::fs::write(&trace_path, trace.finish()).expect("write trace");
    let metrics_path = format!("results/metrics_{name}.json");
    std::fs::write(&metrics_path, summary::metrics_json(&report.metrics)).expect("write metrics");

    println!(
        "{name} on {cores} cores: predicted makespan {} cycles, observed {} cycles ({} tasks, {} transfers)",
        sim.makespan, run.makespan, run.invocations, run.transfers
    );
    print!("{}", analyze::Ledger::from_report(&report).table());
    println!("wrote {trace_path} and {metrics_path}");
}
