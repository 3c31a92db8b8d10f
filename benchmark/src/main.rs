//! The repository's benchmark: planning, batch execution and serving,
//! measured from outside through the public API of `bamboo` and
//! `bamboo_apps`. See `benchmark/README.md` for every workload and
//! metric; `BENCHMARK.json` at the root is generated from
//! [`metrics`].
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]]
//! cargo run ... -- --agree [--seed <u64>] [--seconds <n>]
//! cargo run ... -- --manifest
//! ```

mod batch;
mod generator;
mod measure;
mod metrics;
mod plan;
mod probes;
mod serve;
mod trace;

use measure::{median, quartiles, Host, OpLog};
use metrics::{Better, Report, END_TO_END, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// Times set-up runs; `setup_s` is the median, so one cold start does
/// not decide it.
const SETUP_REPS: usize = 5;

/// What every workload is given.
pub struct Config {
    pub seed: u64,
    pub host: Host,
}

/// The outcome of one timed region: operations attempted and failed,
/// and the three timing figures every workload reports.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the reader.
    pub failures: Vec<String>,
    /// Remarks on validity that are not failures: a figure measured on
    /// a host too disturbed to resolve it.
    pub notes: Vec<String>,
    pub op_p50_ms: f64,
    /// Refused (`None`) with fewer than ten samples beyond it.
    pub op_p90_ms: Option<f64>,
    pub ops_per_s: f64,
    /// First quartile, median and third quartile of the operation
    /// time in milliseconds, for the reader.
    pub quartiles_ms: (f64, f64, f64),
    /// Operations the percentiles were taken from.
    pub samples: usize,
}

impl Measured {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Adds another region's operations and failures.
    pub fn absorb(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.notes.extend(other.notes);
    }

    /// Fills the timing figures of a closed-loop region: the median
    /// pass, the pass at the 90th percentile of slowdown (given enough
    /// operations), and operations per second of measured time.
    pub fn finish_closed_loop(&mut self, log: &OpLog) {
        self.samples = log.count();
        match log.pass_p50_ms() {
            Some(p50) => {
                self.op_p50_ms = p50;
                self.op_p90_ms = log.pass_p90_ms();
                self.ops_per_s = log.count() as f64 / log.busy_s();
                let (q1, q2, q3) = quartiles(&log.slowdowns());
                self.quartiles_ms = (q1 * p50, q2 * p50, q3 * p50);
            }
            None => self.fail("a program was never planned or run successfully".into()),
        }
    }

    /// Files an untraced region's figures, and the process's peak
    /// memory now that it has ended (before tracing adds its own),
    /// under their per-layer names.
    fn set_untraced(&self, report: &mut Report) {
        report.set_quantile("op.untraced_p50_ms", self.op_p50_ms, self.samples);
        if let Some(p90) = self.op_p90_ms {
            report.set_quantile("op.untraced_p90_ms", p90, self.samples);
        }
        if let Some(rss) = measure::peak_rss_mb() {
            report.set("process.peak_rss_mb", rss);
        }
    }

    /// The first failure as an error: for set-up, where any failed
    /// operation means the workload cannot be measured.
    pub fn into_result(self) -> Result<(), String> {
        self.failures.into_iter().next().map_or(Ok(()), Err)
    }

    fn set_end_to_end(&self, report: &mut Report) {
        report.set_quantile("op_p50_ms", self.op_p50_ms, self.samples);
        report.set("ops_per_s", self.ops_per_s);
    }
}

/// Sets a workload up [`SETUP_REPS`] times, keeps the last, and
/// reports the median set-up time.
fn set_up<W>(report: &mut Report, setup: impl Fn() -> Result<W, String>) -> Result<W, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let workload = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(workload);
    }
    report.set_quantile("setup_s", median(&times), SETUP_REPS);
    Ok(last.expect("SETUP_REPS is positive"))
}

/// Where `--trace 1` writes the spans: the benchmark's own `out/`.
fn trace_path(workload: &str) -> PathBuf {
    let package = std::env::var_os("CARGO_MANIFEST_DIR").map_or("benchmark".into(), PathBuf::from);
    package.join("out").join(format!("trace-{workload}.json"))
}

/// Cost of a traced region's `op_p50_ms` against the untraced one's,
/// percent; 0 when a failed region left either figure unset.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if traced > 0.0 && untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Runs one workload. Untraced, the whole of `seconds` is one timed
/// region and yields the end-to-end metrics. Traced, the first half is
/// the same untraced region (the reference the overhead is taken
/// against) and the rest repeats the work under spans and telemetry
/// for the per-layer metrics.
fn run(
    workload: &str,
    cfg: &Config,
    seconds: f64,
    traced: bool,
) -> Result<(Report, Measured), String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let workers = cfg.host.worker_threads;
    let timed = if traced { seconds / 2.0 } else { seconds };
    let mut measured;
    match workload {
        "plan62" => {
            let mut w = set_up(&mut report, || plan::Plan62::setup(cfg))?;
            (measured, _) = w.measure(timed, None);
            measured.set_untraced(&mut report);
            if traced {
                let (under_spans, _) = w.measure(timed, Some(&mut tracer));
                w.layers(&tracer, &mut report);
                report.set(
                    "telemetry.overhead_pct",
                    overhead_pct(under_spans.op_p50_ms, measured.op_p50_ms),
                );
                measured.absorb(under_spans);
            }
        }
        "batch-fine" | "batch-coarse" => {
            let programs = if workload == "batch-fine" {
                batch::FINE
            } else {
                batch::COARSE
            };
            let mut w = set_up(&mut report, || batch::Batch::setup(cfg, &programs))?;
            let log;
            (measured, log) = w.measure(timed, None);
            measured.set_untraced(&mut report);
            if traced {
                let (under_telemetry, _) = w.measure(timed, Some(&mut tracer));
                w.layers(&log, &mut report)?;
                probes::run(w.first(), workers, &mut report);
                report.set(
                    "telemetry.overhead_pct",
                    overhead_pct(under_telemetry.op_p50_ms, measured.op_p50_ms),
                );
                measured.absorb(under_telemetry);
            }
        }
        "serve-steady" => {
            let w = set_up(&mut report, || serve::Steady::setup(cfg))?;
            let (waited_s, wake_us) = generator::settle();
            let leg;
            (measured, leg) = w.measure(timed, serve::Observe::Nothing);
            measured.set_untraced(&mut report);
            measured.notes.push(format!(
                "waited {waited_s:.2} s for the host to settle; waking a parked thread then took {wake_us:.1} us"
            ));
            if let (true, Some(leg)) = (traced, leg) {
                w.layers(&leg, &mut report);
                let observed = w.trace(timed / 2.0, measured.op_p50_ms, &mut tracer, &mut report);
                probes::run(w.planned(), workers, &mut report);
                measured.absorb(observed);
            }
        }
        "serve-backlog" => {
            let w = set_up(&mut report, || serve::Backlog::setup(cfg))?;
            measured = w.measure(timed, traced.then_some(&mut report));
            measured.set_untraced(&mut report);
            if traced {
                let observed = w.trace(&mut tracer, &mut report);
                probes::run(w.planned(), workers, &mut report);
                measured.absorb(observed);
            }
        }
        other => return Err(format!("unknown workload {other}")),
    }
    if traced {
        report.set("trace.spans", tracer.spans().len() as f64);
        tracer
            .write_json(&trace_path(workload), workload, cfg.host)
            .map_err(|e| format!("writing the trace: {e}"))?;
    } else {
        measured.set_end_to_end(&mut report);
    }
    Ok((report, measured))
}

/// Prints one run: a header with the host fingerprint, every metric as
/// `name value unit [n=samples]`, the operation counts, and last the
/// result object.
fn print_run(workload: &str, args: &Args, host: Host, report: &Report, measured: &Measured) {
    println!(
        "# workload={workload} seed={} seconds={} trace={} host_threads={} worker_threads={} oversubscribed={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.host_threads,
        host.worker_threads,
        host.oversubscribed()
    );
    for (name, v, unit) in report.rows(args.trace) {
        match v.samples {
            Some(n) => println!("{name} {} {unit} n={n}", v.value),
            None => println!("{name} {} {unit}", v.value),
        }
    }
    let (q1, q2, q3) = measured.quartiles_ms;
    let p90 = measured.op_p90_ms.map_or(
        "refused (fewer than ten samples beyond it)".to_string(),
        |p90| format!("{p90:.4} ms"),
    );
    println!(
        "# operation time: quartiles {q1:.4} / {q2:.4} / {q3:.4} ms, 90th percentile {p90} (n={})",
        measured.samples
    );
    println!("attempted {} count", measured.attempted);
    println!("failed {} count", measured.failed);
    for why in &measured.failures {
        println!("# failed: {why}");
    }
    for note in &measured.notes {
        println!("# {note}");
    }
    println!(
        "{}",
        metrics::result_json(report, args.trace, measured.attempted, measured.failed)
    );
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    agree: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        agree: false,
        manifest: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds is a whole number from 1 to 60".into());
                }
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` for 1.
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--agree" => args.agree = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs this program again as a child, one workload per process so
/// that peak memory is the workload's own, and returns its output.
fn child(workload: &str, args: &Args) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// The value printed for `metric` in a child's output.
fn printed(output: &str, metric: &str) -> Option<f64> {
    output.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(metric)).then(|| words.next()?.parse().ok())?
    })
}

/// `--agree`: two full sets of end-to-end runs back to back. Fails if
/// an operation failed or if any metric of the second set is worse
/// than the first by more than its bound.
fn agree(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        let mut outputs = Vec::new();
        for w in &WORKLOADS {
            let (ok, output) = child(w.name, args)?;
            println!("## set {set}: {}\n{output}", w.name);
            outputs.push((ok, output));
        }
        sets.push(outputs);
    }
    let mut agreed = true;
    println!("## agreement (second set against the first, bound in brackets)");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let ((ok_a, a), (ok_b, b)) = (&sets[0][i], &sets[1][i]);
        if !(*ok_a && *ok_b) {
            println!("{} FAILED: a run did not succeed", w.name);
            agreed = false;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (printed(a, m.name), printed(b, m.name)) else {
                println!("{} {} MISSING", w.name, m.name);
                agreed = false;
                continue;
            };
            let worse = match m.better {
                Better::Lower => vb / va - 1.0,
                Better::Higher => va / vb - 1.0,
            };
            let verdict = if worse <= m.bound { "ok" } else { "DISAGREE" };
            agreed &= worse <= m.bound;
            println!(
                "{} {} {va} -> {vb} {} worse by {:+.2}% [{:.0}%] {verdict}",
                w.name,
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(agreed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if args.agree {
        return match agree(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("--workload <name|all> is required; workloads:");
        for w in &WORKLOADS {
            eprintln!("  {}: {}", w.name, w.why);
        }
        return ExitCode::from(2);
    };
    if workload == "all" {
        let mut ok = true;
        for w in &WORKLOADS {
            match child(w.name, &args) {
                Ok((succeeded, output)) => {
                    print!("{output}");
                    ok &= succeeded;
                }
                Err(why) => {
                    eprintln!("{why}");
                    ok = false;
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let cfg = Config {
        seed: args.seed,
        host: Host::detect(),
    };
    match run(workload, &cfg, args.seconds as f64, args.trace) {
        Ok((report, measured)) => {
            print_run(workload, &args, cfg.host, &report, &measured);
            if measured.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("{workload}: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_values_are_found_by_metric_name() {
        let output = "# header\nop_p50_ms 12.5 ms n=40\nops_per_s 80.25 1/s\n{\"json\": 1}\n";
        assert_eq!(printed(output, "op_p50_ms"), Some(12.5));
        assert_eq!(printed(output, "ops_per_s"), Some(80.25));
        assert_eq!(printed(output, "op_p90_ms"), None);
    }

    /// `plan62` under spans: the stage spans cover a pass, the plans
    /// equal the one-call plans (the workload's own check), and every
    /// planning metric is set.
    #[test]
    fn plan62_spans_cover_a_pass() {
        let cfg = Config {
            seed: 5,
            host: Host::detect(),
        };
        let mut w = plan::Plan62::setup(&cfg).unwrap();
        let mut tracer = Tracer::new();
        let (measured, log) = w.measure(0.0, Some(&mut tracer));
        assert_eq!(measured.failed, 0, "{:?}", measured.failures);
        assert_eq!(log.count() as u64, measured.attempted);
        assert!(measured.op_p50_ms > 0.0 && measured.op_p90_ms.is_none());
        let mut report = Report::default();
        w.layers(&tracer, &mut report);
        let residue = report.get("plan.residue_pct").unwrap().value;
        assert!((0.0..5.0).contains(&residue), "residue {residue}%");
        assert!(report.get("plan.speedup62").unwrap().value > 10.0);
        assert!(report.get("schedule.sim.error_pct").unwrap().value < 1.0);
        for name in [
            "lang.compile_source_us",
            "analysis.dependence_us",
            "analysis.cstg_us",
            "analysis.disjoint_us",
            "runtime.virtual_exec.profile_us",
            "runtime.virtual_exec.inv_per_s",
            "schedule.groups.build_us",
            "schedule.transforms.replication_us",
            "schedule.mapping.initial_us",
            "schedule.dsa.optimize_us",
            "schedule.dsa.sims_per_s",
            "schedule.dsa.iterations",
            "schedule.dsa.simulations",
            "schedule.sim.ns_per_task",
            "schedule.critpath.us_per_trace",
            "schedule.layout.fingerprint_ns",
            "schedule.simcache.lookup_ns",
            "runtime.deploy.deploy_us",
        ] {
            assert!(report.get(name).unwrap().value > 0.0, "{name}");
        }
    }
}
