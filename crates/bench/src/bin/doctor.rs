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
//! * **`--check`**: the CI regression gate. Re-measures every benchmark
//!   recorded in `BENCH_threaded.json` (same machine model, scale, and
//!   synthesis seed as the recording harness in
//!   `crates/bench/benches/threaded.rs`), evaluates the tolerance
//!   checks in `bamboo::telemetry::analyze::gate`, writes the verdict
//!   JSON artifact, and exits non-zero if any check fails. When
//!   `BENCH_serving.json` is present (recorded by
//!   `crates/bench/benches/serving.rs`), the gate additionally serves a
//!   short fixed-seed open-loop probe per recorded app and appends the
//!   `serving-*` checks — exact request accounting (admitted ==
//!   completed), zero shedding at admission and on the router, p99
//!   within a host-slack band of the recorded SLO, and a completion-
//!   throughput floor — summarized in the verdict JSON's `serving`
//!   section.
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
//!   as `--check`. When `BENCH_serving.json` carries recorded `adapt`
//!   sections, `--check` additionally runs this probe per recorded app
//!   and appends the full `adapt-*` check set.
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
//!   Prometheus rendering alongside, as CI artifacts. When
//!   `BENCH_serving.json` carries recorded `scope` sections, `--check`
//!   additionally runs this probe per recorded app and appends the full
//!   `scope-*` check set (including the recorded ≤3% overhead budget).
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

/// Synthesis seed shared with the recording harness — the deployment
/// (and therefore the invocation count) must match the baseline's.
const SEED: u64 = 42;
/// Measured reps per configuration in `--check` mode. Fewer than the
/// recording harness (15): the gate's floors are generous, so a cheap
/// best-of-5 estimate is plenty.
const CHECK_REPS: usize = 5;
/// Requests per serving probe run in `--check` mode.
const SERVING_CHECK_REQS: usize = 64;
/// Serving probe offered load as a fraction of the recorded sustainable
/// rate — far enough under it that a healthy build completes everything
/// without shedding even on a much slower host, high enough that the
/// completion throughput clears the gate's floor.
const SERVING_CHECK_LOAD_FRACTION: f64 = 0.25;
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
    baseline_path: String,
    serving_baseline_path: String,
}

fn parse_args() -> Result<Args, String> {
    let default_baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_threaded.json");
    let default_serving_baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
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
        baseline_path: default_baseline.to_string(),
        serving_baseline_path: default_serving_baseline.to_string(),
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
            "--baseline" => args.baseline_path = value("--baseline")?,
            "--serving-baseline" => args.serving_baseline_path = value("--serving-baseline")?,
            "--help" | "-h" => {
                return Err(concat!(
                    "usage: bamboo-doctor [BENCH] [--cores N] [--json PATH] [--chaos] [--chaos-seed N]\n",
                    "       bamboo-doctor --check [--baseline PATH] [--serving-baseline PATH] [--out PATH]\n",
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

/// Best wall time (µs), invocation count, and lock retries over `reps`
/// telemetry-free runs of one configuration.
fn measure(deployment: &Deployment, baseline: bool, reps: usize) -> (f64, u64, u64) {
    let exec = ThreadedExecutor::default();
    let options = || {
        if baseline {
            RunOptions::baseline()
        } else {
            RunOptions::default()
        }
    };
    let _ = exec.run(deployment, options()).expect("warmup run");
    let mut best_us = f64::INFINITY;
    let mut invocations = 0;
    let mut retries = 0;
    for _ in 0..reps {
        let report = exec.run(deployment, options()).expect("measured run");
        best_us = best_us.min(report.wall.as_secs_f64() * 1e6);
        invocations = report.invocations;
        retries = report.lock_retries;
    }
    (best_us, invocations, retries)
}

/// Serves a short fixed-seed open-loop Poisson probe against `bench` at
/// a fraction of its recorded sustainable load, for the `serving-*`
/// gate checks. Completion throughput is measured from first arrival to
/// drain (excluding worker spawn and shutdown).
fn serving_observation(
    bench: &dyn Benchmark,
    machine: &MachineDescription,
    base: &gate::ServingBaselineBench,
) -> Result<gate::ServingObservation, String> {
    let (_compiler, deployment) = deployment_for(bench, machine);
    let exec = ThreadedExecutor::default();
    // Warmup rep (thread spawn paths, allocator).
    exec.run(&deployment, RunOptions::default())
        .map_err(|e| format!("{}: warmup failed: {e}", bench.name()))?;
    let offered_rps = (base.max_sustainable_rps * SERVING_CHECK_LOAD_FRACTION).max(200.0);
    let mut server = Server::start(
        &exec,
        &deployment,
        RunOptions::default(),
        ServingOptions::new(),
    )
    .map_err(|e| format!("{}: server start failed: {e}", bench.name()))?;
    let mut arrivals = Poisson::new(offered_rps, SEED);
    let t0 = std::time::Instant::now();
    server
        .serve(&mut arrivals, SERVING_CHECK_REQS, |_| Box::new(()))
        .map_err(|e| format!("{}: probe serve failed: {e}", bench.name()))?;
    server
        .await_idle()
        .map_err(|e| format!("{}: probe drain failed: {e}", bench.name()))?;
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let report = server
        .finish()
        .map_err(|e| format!("{}: probe finish failed: {e}", bench.name()))?;
    Ok(gate::ServingObservation {
        name: bench.name().to_string(),
        offered_rps,
        completed_rps: report.completed as f64 / elapsed,
        admitted: report.admitted as f64,
        completed: report.completed as f64,
        shed: report.shed as f64,
        router_shed: report.executor.router_shed as f64,
        p99_us: report.latency_us.p99() as f64,
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
/// controller armed and gate on the live `adapt-*` checks alone (no
/// recorded baseline needed).
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
/// on the live `scope-*` checks alone (no recorded baseline needed).
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
        "\nthreaded run: {} invocations, {} steals, {} lock retries, {} router contentions, wall {:?}",
        run.invocations, run.steals, run.lock_retries, run.router_contention, run.wall,
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

fn check_mode(args: &Args) -> Result<bool, String> {
    let text = std::fs::read_to_string(&args.baseline_path)
        .map_err(|e| format!("read {}: {e}", args.baseline_path))?;
    let baseline = gate::parse_baseline(&text)?;
    let machine = MachineDescription::tilepro64();
    if machine.core_count() as u64 != baseline.machine_cores {
        eprintln!(
            "warning: baseline recorded for {} cores, gating against {}",
            baseline.machine_cores,
            machine.core_count(),
        );
    }

    let mut observations = Vec::new();
    for base in &baseline.benches {
        let Some(bench) = by_name(&base.name) else {
            eprintln!(
                "warning: baseline bench {:?} not in the app registry; skipping",
                base.name
            );
            continue;
        };
        let (_compiler, deployment) = deployment_for(bench.as_ref(), &machine);
        let (base_us, base_inv, _) = measure(&deployment, true, CHECK_REPS);
        let (opt_us, invocations, lock_retries) = measure(&deployment, false, CHECK_REPS);
        let throughput = invocations as f64 / (opt_us / 1e3);
        let speedup = (invocations as f64 / opt_us) / (base_inv as f64 / base_us);

        // One telemetry-enabled run for the causal health check: the
        // observed critical path must spend some of its span computing.
        let (report, _) = observed_run(&deployment, machine.core_count(), None);
        let diagnosis = analyze::diagnose(&report, None);
        let compute_share = diagnosis.path.as_ref().map_or(0.0, |p| p.compute_share());

        println!(
            "measured {:<12} {invocations} invocations, {lock_retries} retries, best {opt_us:.0}µs, \
             {throughput:.2} inv/ms, {speedup:.2}x, compute share {compute_share:.2}",
            base.name,
        );
        observations.push(gate::Observation {
            name: base.name.clone(),
            invocations: invocations as f64,
            lock_retries: lock_retries as f64,
            best_wall_us: opt_us,
            throughput,
            speedup,
            compute_share,
        });
    }

    let mut verdict = gate::evaluate(&baseline, &observations);

    // Serving checks, gated on the recording from the `serving` bench
    // harness. A missing recording is a warning, not a failure, so the
    // gate still works on checkouts that never ran the full bench.
    match std::fs::read_to_string(&args.serving_baseline_path) {
        Ok(text) => {
            let serving_baseline = gate::parse_serving_baseline(&text)?;
            let serving_machine =
                MachineDescription::n_cores(serving_baseline.machine_cores as usize);
            let mut serving_observations = Vec::new();
            for base in &serving_baseline.benches {
                let Some(bench) = by_name(&base.name) else {
                    eprintln!(
                        "warning: serving baseline bench {:?} not in the app registry; skipping",
                        base.name,
                    );
                    continue;
                };
                let obs = serving_observation(bench.as_ref(), &serving_machine, base)?;
                println!(
                    "served {:<12} {}/{} completed at {:.0} rps offered, p99 {:.0}µs, {} shed",
                    base.name, obs.completed, obs.admitted, obs.offered_rps, obs.p99_us, obs.shed,
                );
                serving_observations.push(obs);
            }
            verdict.checks.extend(gate::evaluate_serving(
                &serving_baseline,
                &serving_observations,
            ));

            // Adaptive re-layout checks, gated on recorded `adapt`
            // sections (absent on baselines from before the loop
            // existed — nothing to gate then).
            let mut adapt_observations = Vec::new();
            for base in &serving_baseline.benches {
                if base.adapt.is_none() {
                    continue;
                }
                let Some(bench) = by_name(&base.name) else {
                    continue;
                };
                let obs = adapt_observation(bench.as_ref(), &serving_machine)?;
                println!(
                    "adapted {:<12} {}/{} completed, {} relayout(s), divergence {} -> {}",
                    base.name,
                    obs.completed,
                    obs.admitted,
                    obs.relayouts,
                    obs.pre_divergence
                        .map_or("unmeasured".to_string(), |d| format!("{d:.4}")),
                    obs.post_divergence
                        .map_or("unmeasured".to_string(), |d| format!("{d:.4}")),
                );
                adapt_observations.push(obs);
            }
            verdict
                .checks
                .extend(gate::evaluate_adapt(&serving_baseline, &adapt_observations));

            // Live-observability checks, gated on recorded `scope`
            // sections (absent on baselines from before the scope
            // plane existed — nothing to gate then).
            let mut scope_observations = Vec::new();
            for base in &serving_baseline.benches {
                if base.scope.is_none() {
                    continue;
                }
                let Some(bench) = by_name(&base.name) else {
                    continue;
                };
                let (obs, _, _) = scope_observation(bench.as_ref(), &serving_machine)?;
                println!(
                    "scoped {:<12} {} arrived = {} admitted + {} shed, {} sampled tree(s), partition {}",
                    base.name,
                    obs.arrived,
                    obs.admitted,
                    obs.shed,
                    obs.trees,
                    if obs.partition_exact { "exact" } else { "INEXACT" },
                );
                scope_observations.push(obs);
            }
            verdict
                .checks
                .extend(gate::evaluate_scope(&serving_baseline, &scope_observations));
        }
        Err(err) => eprintln!(
            "warning: no serving baseline at {} ({err}); skipping serving-* checks",
            args.serving_baseline_path,
        ),
    }

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
