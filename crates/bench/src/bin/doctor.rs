//! `bamboo-doctor`: causal critical-path attribution and regression
//! gating over observed telemetry.
//!
//! Two modes:
//!
//! * **diagnose** (default): runs a benchmark under the threaded
//!   executor with telemetry enabled *and* under the virtual executor
//!   with trace collection, then prints the reconstruction stats, the
//!   per-core time-breakdown ledger, the observed critical path, and
//!   the ranked findings — including predicted-vs-observed divergence
//!   against the virtual trace. `--json PATH` additionally writes the
//!   machine-readable diagnosis.
//!
//!   `cargo run --release -p bamboo-bench --bin bamboo-doctor -- kmeans --cores 8`
//!
//! * **`--check`**: the CI regression gate. Reads no file: every check
//!   holds its observation against a reference measured in the same
//!   process. [`THREADED_APPS`] run once each on the 62-core machine
//!   model with telemetry (invocations exact against the virtual
//!   executor on the same deployment, lock retries per invocation, the
//!   critical path's compute share); [`PROBE_APPS`] then each serve a
//!   short fixed-seed open-loop probe at [`SERVING_CHECK_RPS`] (exact
//!   request accounting, zero shedding at admission and on the router),
//!   the `--adapt-smoke` probe and the `--scope-smoke` probe. The
//!   verdict JSON artifact summarizes the `serving-*`, `adapt-*` and
//!   `scope-*` checks in sections of their own; the command exits
//!   non-zero if any check fails. Throughput and latency are the
//!   benchmark's (`BENCHMARK.json`), not the gate's.
//!
//!   `cargo run --release -p bamboo-bench --bin bamboo-doctor -- --check --out doctor_verdict.json`
//!
//! * **`--check --chaos`**: the fault-injection gate. Every benchmark
//!   runs clean once and twice under the seeded default fault plan
//!   (`FaultSpec::default_plan`); the chaos checks require termination,
//!   a byte-identical fault schedule across the two same-seed runs, and
//!   faulty output identical to the fault-free run. `--chaos-seed` and
//!   `--chaos-cores` pick the plan seed and thread count (the CI matrix
//!   sweeps both).
//!
//!   `cargo run --release -p bamboo-bench --bin bamboo-doctor -- --check --chaos --chaos-seed 7 --chaos-cores 16`
//!
//!   `--chaos` also composes with diagnose mode: the observed run
//!   executes under the fault plan and the diagnosis includes the
//!   `fault.*`-attribution findings plus the rendered schedule.
//!
//! * **`--adapt-smoke`**: the adaptive re-layout smoke gate. Serves one
//!   app (default `kmeans`) under a shifting bursty mix from a
//!   deliberately stale layout — every instance squeezed onto core 0 —
//!   with the re-layout controller armed under stepped pacing, then
//!   requires at least one committed hot relayout, exact request
//!   accounting, and post-relayout model divergence no worse than pre
//!   (`adapt-improves-or-holds`). Writes the same verdict JSON artifact
//!   as `--check`, which runs this probe on every one of [`PROBE_APPS`].
//!
//!   `cargo run --release -p bamboo-bench --bin bamboo-doctor -- --adapt-smoke --out doctor_verdict.json`
//!
//! * **`--scope-smoke`**: the live-observability smoke gate. Serves one
//!   app (default `kmeans`) under stepped pacing with telemetry *and*
//!   the scope plane armed, reconstructs the span tree of every
//!   tail-sampled request, and requires exact snapshot accounting
//!   (arrived = admitted + shed, completed = admitted), at least one
//!   sampled tree, and an exact latency partition per tree
//!   (`scope-partition-exact`). Writes the verdict JSON plus the scope
//!   snapshot (`--snapshot-out`, default `scope_snapshot.json`) and its
//!   Prometheus rendering alongside, as CI artifacts. `--check` runs this
//!   probe on every one of [`PROBE_APPS`].
//!
//!   `cargo run --release -p bamboo-bench --bin bamboo-doctor -- --scope-smoke --out doctor_verdict.json`

use bamboo::telemetry::analyze::{self, gate};
use bamboo::{
    AdaptPolicy, Bursty, Compiler, CoreId, Deployment, DeploymentHandle, ExecConfig, FaultSpec,
    MachineDescription, Pacing, Poisson, RunOptions, ScopeConfig, ScopeSnapshot, Server,
    ServingOptions, SynthesisOptions, Telemetry, ThreadedExecutor,
};
use bamboo_apps::{all, by_name, Benchmark, Scale};
use rand::SeedableRng;
use std::process::ExitCode;

/// Synthesis and arrival seed of every `--check` deployment and probe.
const SEED: u64 = 42;
/// Apps whose threaded runs `--check` gates, in check order.
const THREADED_APPS: [&str; 2] = ["FilterBank", "KMeans"];
/// Apps the serving, adaptive and scope probes of `--check` serve, in
/// check order.
const PROBE_APPS: [&str; 4] = ["FilterBank", "KMeans", "MonteCarlo", "Series"];
/// Cores of the machine model the `--check` probes deploy for.
const PROBE_CORES: usize = 8;
/// Requests per serving probe run in `--check` mode.
const SERVING_CHECK_REQS: usize = 64;
/// Serving probe offered load, requests/second: far enough under what
/// any probed app sustains that a healthy build completes everything
/// without shedding, even on a slow host.
const SERVING_CHECK_RPS: f64 = 800.0;
/// Requests per adaptive-probe run (`--adapt-smoke` and the `adapt-*`
/// checks of `--check`). Enough for the controller to warm past its
/// invocation gate and commit a relayout off the stale layout; under
/// stepped pacing the decision sequence is deterministic, so more
/// requests buy nothing.
const ADAPT_CHECK_REQS: usize = 32;
/// Requests per scope-probe run (`--scope-smoke` and the `scope-*`
/// checks of `--check`). Enough to fill several tumbling windows and
/// populate the slowest-K + reservoir samplers; under stepped pacing
/// the sampling decisions are deterministic.
const SCOPE_CHECK_REQS: usize = 48;

struct Args {
    check: bool,
    adapt_smoke: bool,
    scope_smoke: bool,
    chaos: bool,
    chaos_seed: u64,
    chaos_cores: usize,
    bench: String,
    cores: usize,
    json_out: Option<String>,
    snapshot_out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        adapt_smoke: false,
        scope_smoke: false,
        chaos: false,
        chaos_seed: 7,
        chaos_cores: 16,
        bench: "kmeans".to_string(),
        cores: 8,
        json_out: None,
        snapshot_out: "scope_snapshot.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--check" => args.check = true,
            "--adapt-smoke" => args.adapt_smoke = true,
            "--scope-smoke" => args.scope_smoke = true,
            "--chaos" => args.chaos = true,
            "--chaos-seed" => {
                args.chaos_seed = value("--chaos-seed")?
                    .parse()
                    .map_err(|e| format!("--chaos-seed: {e}"))?;
            }
            "--chaos-cores" => {
                args.chaos_cores = value("--chaos-cores")?
                    .parse()
                    .map_err(|e| format!("--chaos-cores: {e}"))?;
            }
            "--cores" => {
                args.cores = value("--cores")?
                    .parse()
                    .map_err(|e| format!("--cores: {e}"))?;
            }
            "--json" | "--out" => args.json_out = Some(value(&arg)?),
            "--snapshot-out" => args.snapshot_out = value("--snapshot-out")?,
            "--help" | "-h" => {
                return Err(concat!(
                    "usage: bamboo-doctor [BENCH] [--cores N] [--json PATH] [--chaos] [--chaos-seed N]\n",
                    "       bamboo-doctor --check [--out PATH]\n",
                    "       bamboo-doctor --check --chaos [--chaos-seed N] [--chaos-cores N] [--out PATH]\n",
                    "       bamboo-doctor --adapt-smoke [BENCH] [--cores N] [--out PATH]\n",
                    "       bamboo-doctor --scope-smoke [BENCH] [--cores N] [--out PATH] [--snapshot-out PATH]"
                )
                .to_string());
            }
            name if !name.starts_with('-') => args.bench = name.to_string(),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

/// Profiles, synthesizes (fixed seed), and deploys `bench` for `machine`.
fn deployment_for(bench: &dyn Benchmark, machine: &MachineDescription) -> (Compiler, Deployment) {
    let compiler = bench.compiler(Scale::Small);
    let (profile, _, ()) = compiler
        .profile_run(None, "doctor", |_| ())
        .expect("profile run");
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let plan = compiler.synthesize(&profile, machine, &SynthesisOptions::default(), &mut rng);
    let deployment = compiler.deploy(&plan);
    (compiler, deployment)
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

/// Serves a short fixed-seed open-loop Poisson probe against `bench` at
/// [`SERVING_CHECK_RPS`], for the `serving-*` gate checks.
fn serving_observation(
    bench: &dyn Benchmark,
    machine: &MachineDescription,
) -> Result<gate::ServingObservation, String> {
    let (_compiler, deployment) = deployment_for(bench, machine);
    let exec = ThreadedExecutor::default();
    let mut server = Server::start(
        &exec,
        &deployment,
        RunOptions::default(),
        ServingOptions::new(),
    )
    .map_err(|e| format!("{}: server start failed: {e}", bench.name()))?;
    let mut arrivals = Poisson::new(SERVING_CHECK_RPS, SEED);
    server
        .serve(&mut arrivals, SERVING_CHECK_REQS, |_| Box::new(()))
        .map_err(|e| format!("{}: probe serve failed: {e}", bench.name()))?;
    server
        .await_idle()
        .map_err(|e| format!("{}: probe drain failed: {e}", bench.name()))?;
    let report = server
        .finish()
        .map_err(|e| format!("{}: probe finish failed: {e}", bench.name()))?;
    Ok(gate::ServingObservation {
        name: bench.name().to_string(),
        admitted: report.admitted as f64,
        completed: report.completed as f64,
        shed: report.shed as f64,
        router_shed: report.executor.router_shed as f64,
    })
}

/// Serves a deterministic adaptive probe against `bench` for the
/// `adapt-*` gate checks: stepped pacing, fixed seeds, a shifting
/// bursty mix, and a deliberately stale starting layout (every instance
/// squeezed onto core 0) the armed controller should hot-migrate off.
fn adapt_observation(
    bench: &dyn Benchmark,
    machine: &MachineDescription,
) -> Result<gate::AdaptObservation, String> {
    let compiler = bench.compiler(Scale::Small);
    let (profile, _, ()) = compiler
        .profile_run(None, "doctor", |_| ())
        .map_err(|e| format!("{}: profile failed: {e}", bench.name()))?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
    let plan = compiler.synthesize(&profile, machine, &SynthesisOptions::default(), &mut rng);
    let mut deployment = compiler.deploy(&plan);
    for inst in &mut deployment.layout.instances {
        inst.core = CoreId::new(0);
    }
    let policy = AdaptPolicy::new(machine.clone())
        .with_min_invocations(16)
        .with_baseline(profile)
        .with_seed(SEED);
    let mut session = DeploymentHandle::from_deployment(deployment)
        .with_adapt(policy)
        .serve(ServingOptions::new().with_pacing(Pacing::Stepped))
        .map_err(|e| format!("{}: adaptive probe start failed: {e}", bench.name()))?;
    let mut arrivals = Bursty::new(400.0, 4_000.0, 0.2, SEED);
    session
        .serve(&mut arrivals, ADAPT_CHECK_REQS, |_| Box::new(()))
        .map_err(|e| format!("{}: adaptive probe serve failed: {e}", bench.name()))?;
    let report = session
        .stop()
        .map_err(|e| format!("{}: adaptive probe finish failed: {e}", bench.name()))?;
    let adapt = report.adapt.clone().unwrap_or_default();
    Ok(gate::AdaptObservation {
        name: bench.name().to_string(),
        relayouts: adapt.relayouts as f64,
        admitted: report.admitted as f64,
        completed: report.completed as f64,
        pre_divergence: adapt.pre_divergence,
        post_divergence: adapt.post_divergence,
    })
}

/// `--adapt-smoke`: serve one app under the shifting mix with the
/// controller armed and gate on its `adapt-*` checks.
fn adapt_smoke_mode(args: &Args) -> Result<bool, String> {
    let bench = by_name(&args.bench).ok_or(format!("unknown benchmark {:?}", args.bench))?;
    let machine = MachineDescription::n_cores(args.cores);
    println!(
        "bamboo-doctor: adaptive re-layout smoke on {} ({} cores, {} requests)\n",
        bench.name(),
        args.cores,
        ADAPT_CHECK_REQS,
    );
    let obs = adapt_observation(bench.as_ref(), &machine)?;
    println!(
        "adapted {:<12} {}/{} completed, {} relayout(s), divergence {} -> {}",
        obs.name,
        obs.completed,
        obs.admitted,
        obs.relayouts,
        obs.pre_divergence
            .map_or("unmeasured".to_string(), |d| format!("{d:.4}")),
        obs.post_divergence
            .map_or("unmeasured".to_string(), |d| format!("{d:.4}")),
    );
    let verdict = gate::Verdict {
        checks: gate::evaluate_adapt_probe(&[obs]),
    };
    println!("\n{}", verdict.table());
    let out = args.json_out.as_deref().unwrap_or("doctor_verdict.json");
    std::fs::write(out, verdict.json()).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(verdict.pass())
}

/// Serves a deterministic scope probe against `bench` for the `scope-*`
/// gate checks: stepped pacing, fixed seeds, telemetry and the live
/// observability plane both armed. Returns the gate observation, the
/// final scope snapshot, and the span trees materialized for its
/// tail-sampled request ids.
fn scope_observation(
    bench: &dyn Benchmark,
    machine: &MachineDescription,
) -> Result<
    (
        gate::ScopeObservation,
        ScopeSnapshot,
        Vec<analyze::SpanTree>,
    ),
    String,
> {
    let (_compiler, deployment) = deployment_for(bench, machine);
    // Workers plus the serving driver's own ring.
    let telemetry = Telemetry::enabled(machine.core_count() + 1);
    let scope = ScopeConfig::default()
        .with_window(std::time::Duration::from_millis(5))
        .with_slo(50_000, 0.99)
        .with_sampling(4, 4);
    let mut session = DeploymentHandle::from_deployment(deployment)
        .with_telemetry(telemetry.clone())
        .with_scope(scope)
        .serve(ServingOptions::new().with_pacing(Pacing::Stepped))
        .map_err(|e| format!("{}: scope probe start failed: {e}", bench.name()))?;
    let mut arrivals = Poisson::new(2_000.0, SEED);
    session
        .serve(&mut arrivals, SCOPE_CHECK_REQS, |_| Box::new(()))
        .map_err(|e| format!("{}: scope probe serve failed: {e}", bench.name()))?;
    let report = session
        .stop()
        .map_err(|e| format!("{}: scope probe finish failed: {e}", bench.name()))?;
    let snapshot = report
        .scope
        .clone()
        .ok_or_else(|| format!("{}: scope plane armed but no snapshot", bench.name()))?;
    let observed = telemetry.report();
    let trees = analyze::span_trees(&observed, &snapshot.sampled_requests());
    let partition_exact = !trees.is_empty()
        && trees
            .iter()
            .all(|t| t.breakdown.component_sum() == t.breakdown.total);
    let t = &snapshot.totals;
    Ok((
        gate::ScopeObservation {
            name: bench.name().to_string(),
            arrived: t.arrivals as f64,
            admitted: t.admitted as f64,
            completed: t.completed as f64,
            shed: t.shed as f64,
            trees: trees.len() as f64,
            partition_exact,
        },
        snapshot,
        trees,
    ))
}

/// `--scope-smoke`: serve one app with the scope plane armed and gate
/// on its `scope-*` checks.
/// Writes the scope snapshot and its Prometheus rendering next to the
/// verdict, as CI artifacts.
fn scope_smoke_mode(args: &Args) -> Result<bool, String> {
    let bench = by_name(&args.bench).ok_or(format!("unknown benchmark {:?}", args.bench))?;
    let machine = MachineDescription::n_cores(args.cores);
    println!(
        "bamboo-doctor: live observability smoke on {} ({} cores, {} requests)\n",
        bench.name(),
        args.cores,
        SCOPE_CHECK_REQS,
    );
    let (obs, snapshot, trees) = scope_observation(bench.as_ref(), &machine)?;
    println!(
        "scoped {:<12} {} arrived = {} admitted + {} shed, {} completed, {} sampled tree(s), partition {}",
        obs.name,
        obs.arrived,
        obs.admitted,
        obs.shed,
        obs.completed,
        trees.len(),
        if obs.partition_exact { "exact" } else { "INEXACT" },
    );
    println!();
    for tree in &trees {
        print!("{}", tree.render("ns"));
    }
    let verdict = gate::Verdict {
        checks: gate::evaluate_scope_probe(&[obs]),
    };
    println!("\n{}", verdict.table());
    let out = args.json_out.as_deref().unwrap_or("doctor_verdict.json");
    std::fs::write(out, verdict.json()).map_err(|e| format!("write {out}: {e}"))?;
    let snap_out = &args.snapshot_out;
    std::fs::write(snap_out, snapshot.to_json()).map_err(|e| format!("write {snap_out}: {e}"))?;
    let prom_out = format!("{}.prom", snap_out.trim_end_matches(".json"));
    std::fs::write(&prom_out, snapshot.to_prometheus())
        .map_err(|e| format!("write {prom_out}: {e}"))?;
    println!("wrote {out}, {snap_out}, {prom_out}");
    Ok(verdict.pass())
}

fn diagnose_mode(args: &Args) -> Result<(), String> {
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
    let mut virtual_exec =
        compiler.executor(&deployment.graph, &deployment.layout, &machine, config);
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

/// Runs one benchmark clean and twice under the same seeded fault plan,
/// producing the observation the chaos gate checks evaluate.
fn chaos_observation(
    bench: &dyn Benchmark,
    machine: &MachineDescription,
    seed: u64,
) -> Result<gate::ChaosObservation, String> {
    let (compiler, deployment) = deployment_for(bench, machine);
    let exec = ThreadedExecutor::default();
    let clean = exec
        .run(&deployment, RunOptions::default())
        .map_err(|e| format!("{}: clean run failed: {e}", bench.name()))?;
    let clean_checksum = bench.threaded_checksum(&compiler, &clean);

    // Two independent runs with identical seed and thread count: the
    // determinism contract requires byte-identical schedules, and
    // recovery transparency requires both outputs to match the clean
    // run. A faulty run that errors out still yields an observation —
    // `terminated: false` fails the `chaos-terminates` check rather
    // than aborting the whole gate.
    let faulty = || {
        exec.run(
            &deployment,
            RunOptions::default().with_faults(FaultSpec::default_plan(seed)),
        )
    };
    let mut terminated = true;
    let mut observe = |label: &str| match faulty() {
        Ok(run) => (
            run.fault_schedule.clone().unwrap_or_default(),
            bench.threaded_checksum(&compiler, &run),
            run.faults_injected,
        ),
        Err(err) => {
            eprintln!("warning: {} faulty run {label} failed: {err}", bench.name());
            terminated = false;
            (String::new(), 0, 0)
        }
    };
    let (schedule_a, faulty_checksum, faults_injected) = observe("a");
    let (schedule_b, faulty_checksum_b, _) = observe("b");
    Ok(gate::ChaosObservation {
        name: bench.name().to_string(),
        schedule_a,
        schedule_b,
        clean_checksum,
        faulty_checksum,
        faulty_checksum_b,
        terminated,
        faults_injected,
    })
}

/// `--check --chaos`: the fault-injection gate. Every benchmark must
/// terminate under the default fault plan, reproduce the same fault
/// schedule for the same seed, and produce output identical to its
/// fault-free run.
fn chaos_check_mode(args: &Args) -> Result<bool, String> {
    let machine = MachineDescription::n_cores(args.chaos_cores);
    println!(
        "bamboo-doctor: chaos gate on {} cores, seed {}\n",
        args.chaos_cores, args.chaos_seed,
    );
    let mut observations = Vec::new();
    for bench in all() {
        let obs = chaos_observation(bench.as_ref(), &machine, args.chaos_seed)?;
        println!(
            "chaos {:<12} clean {:#018x} faulty {:#018x}/{:#018x}, {} fault(s) injected",
            obs.name,
            obs.clean_checksum,
            obs.faulty_checksum,
            obs.faulty_checksum_b,
            obs.faults_injected,
        );
        observations.push(obs);
    }
    let verdict = gate::Verdict {
        checks: gate::evaluate_chaos(&observations),
    };
    println!("\n{}", verdict.table());
    let out = args.json_out.as_deref().unwrap_or("doctor_verdict.json");
    std::fs::write(out, verdict.json()).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(verdict.pass())
}

/// Looks up an app of the doctor's fixed `--check` lists.
fn app(name: &str) -> Result<Box<dyn Benchmark>, String> {
    by_name(name).ok_or(format!("app {name:?} not in the app registry"))
}

fn check_mode(args: &Args) -> Result<bool, String> {
    let machine = MachineDescription::tilepro64();
    let mut observations = Vec::new();
    for name in THREADED_APPS {
        let bench = app(name)?;
        let (compiler, deployment) = deployment_for(bench.as_ref(), &machine);
        // The virtual executor on the same deployment is the exact
        // reference for the invocation count.
        let expected = compiler
            .executor(
                &deployment.graph,
                &deployment.layout,
                &machine,
                ExecConfig::default(),
            )
            .run(None)
            .map_err(|e| format!("{name}: virtual run failed: {e}"))?
            .invocations;
        // One telemetry-enabled run supplies the invocations, the lock
        // retries and the observed critical path, which must spend some
        // of its span computing.
        let (report, run) = observed_run(&deployment, machine.core_count(), None);
        let diagnosis = analyze::diagnose(&report, None);
        let compute_share = diagnosis.path.as_ref().map_or(0.0, |p| p.compute_share());
        println!(
            "measured {name:<12} {} invocations (virtual {expected}), {} retries, compute share {compute_share:.2}",
            run.invocations, run.lock_retries,
        );
        observations.push(gate::Observation {
            name: bench.name().to_string(),
            invocations: run.invocations as f64,
            expected_invocations: expected as f64,
            lock_retries: run.lock_retries as f64,
            compute_share,
        });
    }
    let mut verdict = gate::evaluate(&observations);

    let machine = MachineDescription::n_cores(PROBE_CORES);
    let mut serving = Vec::new();
    for name in PROBE_APPS {
        let obs = serving_observation(app(name)?.as_ref(), &machine)?;
        println!(
            "served {name:<12} {}/{} completed at {SERVING_CHECK_RPS:.0} rps offered, {} shed",
            obs.completed, obs.admitted, obs.shed,
        );
        serving.push(obs);
    }
    verdict.checks.extend(gate::evaluate_serving(&serving));

    let mut adapt = Vec::new();
    for name in PROBE_APPS {
        let obs = adapt_observation(app(name)?.as_ref(), &machine)?;
        println!(
            "adapted {name:<12} {}/{} completed, {} relayout(s), divergence {} -> {}",
            obs.completed,
            obs.admitted,
            obs.relayouts,
            obs.pre_divergence
                .map_or("unmeasured".to_string(), |d| format!("{d:.4}")),
            obs.post_divergence
                .map_or("unmeasured".to_string(), |d| format!("{d:.4}")),
        );
        adapt.push(obs);
    }
    verdict.checks.extend(gate::evaluate_adapt_probe(&adapt));

    let mut scope = Vec::new();
    for name in PROBE_APPS {
        let (obs, _, _) = scope_observation(app(name)?.as_ref(), &machine)?;
        println!(
            "scoped {name:<12} {} arrived = {} admitted + {} shed, {} sampled tree(s), partition {}",
            obs.arrived,
            obs.admitted,
            obs.shed,
            obs.trees,
            if obs.partition_exact { "exact" } else { "INEXACT" },
        );
        scope.push(obs);
    }
    verdict.checks.extend(gate::evaluate_scope_probe(&scope));

    println!("\n{}", verdict.table());
    let out = args.json_out.as_deref().unwrap_or("doctor_verdict.json");
    std::fs::write(out, verdict.json()).map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(verdict.pass())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.adapt_smoke {
        adapt_smoke_mode(&args)
    } else if args.scope_smoke {
        scope_smoke_mode(&args)
    } else {
        match (args.check, args.chaos) {
            (true, true) => chaos_check_mode(&args),
            (true, false) => check_mode(&args),
            (false, _) => diagnose_mode(&args).map(|()| true),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bamboo-doctor: {msg}");
            ExitCode::FAILURE
        }
    }
}
