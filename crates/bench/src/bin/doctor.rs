//! `bamboo-doctor`: causal critical-path attribution over observed
//! telemetry.
//!
//! Runs a benchmark under the threaded executor with telemetry enabled
//! *and* under the virtual executor with trace collection, then prints
//! the reconstruction stats, the per-core time-breakdown ledger, the
//! observed critical path, and the ranked findings — including
//! predicted-vs-observed divergence against the virtual trace.
//! `--json PATH` additionally writes the machine-readable diagnosis.
//!
//! `cargo run --release -p bamboo-bench --bin bamboo-doctor -- kmeans --cores 8`
//!
//! `--chaos` runs the observed execution under the seeded default fault
//! plan (`FaultSpec::default_plan`, seed `--chaos-seed`); the diagnosis
//! then includes the `fault.*`-attribution findings plus the rendered
//! schedule.
//!
//! The doctor diagnoses; it does not gate. The properties the
//! repository promises are asserted by its cargo tests (DESIGN.md §12
//! maps each check the doctor used to run to the test that holds it).

use bamboo::telemetry::analyze;
use bamboo::{
    Compiler, Deployment, ExecConfig, FaultSpec, MachineDescription, RunOptions, Telemetry,
    ThreadedExecutor, VirtualExecutor,
};
use bamboo_apps::{by_name, Benchmark, Scale};
use std::process::ExitCode;

/// Synthesis seed of the diagnosed deployment.
const SEED: u64 = 42;

/// What `--help` prints.
const USAGE: &str =
    "usage: bamboo-doctor [BENCH] [--cores N] [--json PATH] [--chaos] [--chaos-seed N]";

struct Args {
    chaos: bool,
    chaos_seed: u64,
    bench: String,
    cores: usize,
    json_out: Option<String>,
}

/// The parsed arguments, or `None` when `--help` asked for the usage.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        chaos: false,
        chaos_seed: 7,
        bench: "kmeans".to_string(),
        cores: 8,
        json_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--chaos" => args.chaos = true,
            "--chaos-seed" => {
                args.chaos_seed = value("--chaos-seed")?
                    .parse()
                    .map_err(|e| format!("--chaos-seed: {e}"))?;
            }
            "--cores" => {
                args.cores = value("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?;
            }
            "--json" => args.json_out = Some(value("--json")?),
            "--help" | "-h" => return Ok(None),
            name if !name.starts_with('-') => args.bench = name.to_string(),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(Some(args))
}

/// Profiles, synthesizes (fixed seed), and deploys `bench` for `machine`.
fn deployment_for(bench: &dyn Benchmark, machine: &MachineDescription) -> (Compiler, Deployment) {
    let compiler = bench.compiler(Scale::Small);
    let plan = compiler.plan("doctor", machine, SEED).expect("profile run");
    (compiler, plan.deployment)
}

/// One telemetry-enabled threaded run, optionally under an injected
/// fault plan; returns the recorded report and the executor's run
/// report.
fn observed_run(
    deployment: &Deployment,
    cores: usize,
    faults: Option<FaultSpec>,
) -> (bamboo::TelemetryReport, bamboo::ThreadedReport) {
    let telemetry = Telemetry::enabled(cores);
    let options = RunOptions {
        telemetry: telemetry.clone(),
        faults,
        ..RunOptions::default()
    };
    let run = ThreadedExecutor::default()
        .run(deployment, options)
        .expect("observed run");
    (telemetry.report(), run)
}

fn diagnose(args: &Args) -> Result<(), String> {
    let bench = by_name(&args.bench).ok_or(format!("unknown benchmark {:?}", args.bench))?;
    let machine = MachineDescription::n_cores(args.cores);
    let (compiler, deployment) = deployment_for(bench.as_ref(), &machine);

    println!(
        "bamboo-doctor: diagnosing {} on {} cores (threaded observed vs virtual predicted){}\n",
        bench.name(),
        args.cores,
        if args.chaos { " under chaos" } else { "" },
    );
    let faults = args.chaos.then(|| FaultSpec::default_plan(args.chaos_seed));
    let (report, run) = observed_run(&deployment, args.cores, faults);

    // The virtual executor's trace over the same deployment is the
    // prediction the observed run is compared against.
    let config = ExecConfig {
        collect_trace: true,
        ..ExecConfig::default()
    };
    let mut virtual_exec = VirtualExecutor::over(&deployment, &machine, config);
    let predicted = virtual_exec
        .run(None)
        .expect("virtual run")
        .trace
        .expect("trace requested");

    let diagnosis = analyze::diagnose(&report, Some(&predicted));
    print!("{}", diagnosis.summary(Some(&compiler.program.spec)));
    println!(
        "\nthreaded run: {} invocations, {} steals, {} lock retries, wall {:?}",
        run.invocations, run.steals, run.lock_retries, run.wall,
    );
    if let Some(schedule) = &run.fault_schedule {
        println!(
            "\nfault schedule (seed {}): {} fault(s) injected, {} recovery action(s)\n{}",
            args.chaos_seed, run.faults_injected, run.recovery_actions, schedule,
        );
    }
    if let Some(path) = &args.json_out {
        std::fs::write(path, diagnosis.json()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args {
        None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(args) => diagnose(&args).map_err(|msg| format!("bamboo-doctor: {msg}")),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
