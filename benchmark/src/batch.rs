//! `batch-fine` and `batch-coarse`: `DeploymentHandle::run()` on
//! W-core deployments, every run's output compared with the serial
//! baseline.

use crate::measure::{median, ms, OpLog};
use crate::metrics::Report;
use crate::plan::{derive_seed, plan_once, verify_virtual, Planned, Subject};
use crate::trace::Tracer;
use crate::{Config, Measured};
use bamboo::telemetry::analyze::{CoreLedger, Ledger};
use bamboo::{DeploymentHandle, MachineDescription, Telemetry, ThreadedReport};
use bamboo_apps::Scale;
use std::time::Instant;

/// Task bodies of 2-10 us: dispatch is about half of all core time.
pub const FINE: [&str; 3] = ["KMeans", "Tracking", "MonteCarlo"];
/// Task bodies of 20-200 us: bodies dominate.
pub const COARSE: [&str; 3] = ["FilterBank", "Fractal", "Series"];

/// Repetitions of the serial baseline whose median wall time stands
/// for the body time of one run.
const SERIAL_REPS: usize = 5;
/// Runs of each deployment before the timed region (thread spawn
/// paths, allocator).
const WARMUP_RUNS: usize = 3;

pub struct Batch {
    subjects: Vec<Subject>,
    planned: Vec<Planned>,
    workers: usize,
    /// Counters of the runs so far, for the per-layer rates.
    counters: Counters,
    ledger: CoreLedger,
}

/// The executor's counters summed over runs or servers.
#[derive(Default)]
pub struct Counters {
    invocations: u64,
    steals: u64,
    lock_retries: u64,
    router_contention: u64,
    router_shed: u64,
}

impl Counters {
    pub fn add(&mut self, executor: &ThreadedReport) {
        self.invocations += executor.invocations;
        self.steals += executor.steals;
        self.lock_retries += executor.lock_retries;
        self.router_contention += executor.router_contention;
        self.router_shed += executor.router_shed;
    }

    /// Reports each counter per thousand invocations.
    pub fn set(&self, report: &mut Report) {
        let kinv = self.invocations.max(1) as f64 / 1e3;
        for (metric, count) in [
            ("runtime.threaded.steals_per_kinv", self.steals),
            ("runtime.threaded.lock_retries_per_kinv", self.lock_retries),
            (
                "runtime.threaded.router_contention_per_kinv",
                self.router_contention,
            ),
            ("runtime.threaded.router_shed_per_kinv", self.router_shed),
        ] {
            report.set(metric, count as f64 / kinv);
        }
    }
}

impl Batch {
    /// Builds, profiles and synthesizes each program for W cores,
    /// checks the plan on the virtual executor, runs the serial
    /// baselines and warms the deployments up.
    pub fn setup(cfg: &Config, programs: &[&str]) -> Result<Self, String> {
        let workers = cfg.host.worker_threads;
        let machine = MachineDescription::n_cores(workers);
        let mut this = Batch {
            subjects: Vec::new(),
            planned: Vec::new(),
            workers,
            counters: Counters::default(),
            ledger: CoreLedger::default(),
        };
        for (p, name) in programs.iter().enumerate() {
            let bench = bamboo_apps::by_name(name).ok_or(format!("no app called {name}"))?;
            let subject = Subject::app(bench, Scale::Original, SERIAL_REPS);
            let planned = plan_once(&subject, &machine, derive_seed(cfg.seed, p as u64))?;
            verify_virtual(&subject, &planned, &machine)?;
            this.subjects.push(subject);
            this.planned.push(planned);
        }
        for p in 0..this.subjects.len() {
            for _ in 0..WARMUP_RUNS {
                this.run_once(p, None)?;
            }
        }
        this.counters = Counters::default();
        Ok(this)
    }

    /// One `DeploymentHandle::run()`, timed from outside, then checked.
    fn run_once(&mut self, p: usize, telemetry: Option<Telemetry>) -> Result<f64, String> {
        let (subject, planned) = (&self.subjects[p], &self.planned[p]);
        let mut handle = DeploymentHandle::deploy(&planned.compiler, &planned.plan);
        if let Some(telemetry) = &telemetry {
            handle = handle.with_telemetry(telemetry.clone());
        }
        let t = Instant::now();
        let run = handle.run();
        let took = ms(t.elapsed());
        let name = subject.name();
        let report = run.map_err(|e| format!("{name}: threaded run: {e}"))?;
        let Subject::App { bench, serial, .. } = subject else {
            unreachable!("batch workloads run the native apps");
        };
        let got = bench.threaded_checksum(&planned.compiler, &report);
        if got != serial.checksum {
            return Err(format!(
                "{name}: threaded checksum {got:#x} != serial {:#x}",
                serial.checksum
            ));
        }
        if report.invocations != planned.single.invocations {
            return Err(format!(
                "{name}: {} invocations on {} cores, {} on one",
                report.invocations, self.workers, planned.single.invocations
            ));
        }
        self.counters.add(&report);
        if let Some(telemetry) = telemetry {
            let totals = Ledger::from_report(&telemetry.report()).totals();
            self.ledger.compute += totals.compute;
            self.ledger.lock_wait += totals.lock_wait;
            self.ledger.queue_wait += totals.queue_wait;
            self.ledger.steal += totals.steal;
            self.ledger.routing += totals.routing;
            self.ledger.idle += totals.idle;
        }
        Ok(took)
    }

    /// Interleaved passes over the programs until `seconds` have
    /// passed. With a tracer every run records telemetry and a span.
    pub fn measure(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> (Measured, OpLog) {
        let mut log = OpLog::new(self.subjects.len(), 1);
        let mut measured = Measured::default();
        let started = Instant::now();
        let mut pass = 0u64;
        while pass == 0 || started.elapsed().as_secs_f64() < seconds {
            let open_pass = tracer.as_mut().map(|t| t.enter("batch.pass", pass));
            for p in 0..self.subjects.len() {
                let telemetry = tracer.is_some().then(|| Telemetry::enabled(self.workers));
                let open = tracer
                    .as_mut()
                    .map(|t| t.enter("runtime.threaded.run", pass));
                let ran = self.run_once(p, telemetry);
                if let (Some(t), Some(open)) = (tracer.as_mut(), open) {
                    t.exit(open);
                }
                measured.attempted += 1;
                match ran {
                    Ok(took) => log.record(p, 0, took),
                    Err(why) => measured.fail(why),
                }
            }
            if let (Some(t), Some(open)) = (tracer.as_mut(), open_pass) {
                t.exit(open);
            }
            pass += 1;
        }
        measured.finish_closed_loop(&log);
        (measured, log)
    }

    /// `start()` then `shutdown()` with nothing injected: what every
    /// batch run pays for its threads.
    fn spawn_join_us(&self) -> Result<f64, String> {
        let planned = &self.planned[0];
        let mut samples = Vec::new();
        for _ in 0..30 {
            let handle = DeploymentHandle::deploy(&planned.compiler, &planned.plan);
            let t = Instant::now();
            let resident = handle.start().map_err(|e| format!("resident start: {e}"))?;
            resident
                .shutdown()
                .map_err(|e| format!("resident shutdown: {e}"))?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&samples))
    }

    /// Per-layer metrics from the untraced timings (`untraced`), the
    /// counters of every run, and the traced runs' ledgers.
    pub fn layers(&self, untraced: &OpLog, report: &mut Report) -> Result<(), String> {
        let spawn_join_us = self.spawn_join_us()?;
        report.set("runtime.threaded.spawn_join_us", spawn_join_us);
        let w = self.workers as f64;
        let (mut wall_ns, mut core_ns, mut body_ns, mut invocations) = (0.0, 0.0, 0.0, 0.0);
        for (p, subject) in self.subjects.iter().enumerate() {
            let Subject::App { serial_wall, .. } = subject else {
                continue;
            };
            let Some(run_ms) = untraced.program_ms(p) else {
                continue;
            };
            wall_ns += run_ms * 1e6 - spawn_join_us * 1e3;
            core_ns += w * run_ms * 1e6;
            body_ns += serial_wall.as_secs_f64() * 1e9;
            invocations += self.planned[p].single.invocations as f64;
        }
        report.set("runtime.threaded.ns_per_inv", wall_ns / invocations);
        report.set(
            "runtime.threaded.nonbody_ns_per_inv",
            (w * wall_ns - body_ns) / invocations,
        );
        report.set(
            "runtime.threaded.nonbody_share",
            (core_ns - body_ns) / core_ns,
        );

        self.counters.set(report);
        set_ledger_shares(&self.ledger, report);
        Ok(())
    }

    /// A deployment for the single-layer probes.
    pub fn first(&self) -> &Planned {
        &self.planned[0]
    }
}

/// The six shares of all core time; they sum to 1 because the ledger
/// partitions every core's span.
pub fn set_ledger_shares(ledger: &CoreLedger, report: &mut Report) {
    let total = ledger.total().max(1) as f64;
    report.set(
        "runtime.threaded.compute_share",
        ledger.compute as f64 / total,
    );
    report.set(
        "runtime.threaded.lock_wait_share",
        ledger.lock_wait as f64 / total,
    );
    report.set(
        "runtime.threaded.queue_wait_share",
        ledger.queue_wait as f64 / total,
    );
    report.set("runtime.threaded.steal_share", ledger.steal as f64 / total);
    report.set(
        "runtime.threaded.routing_share",
        ledger.routing as f64 / total,
    );
    report.set("runtime.threaded.idle_share", ledger.idle as f64 / total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Host;

    #[test]
    fn ledger_shares_sum_to_one_on_a_real_run() {
        let cfg = Config {
            seed: 3,
            host: Host::with_threads(2),
        };
        let mut batch = Batch::setup(&cfg, &["Series"]).unwrap();
        let mut tracer = Tracer::new();
        let (measured, log) = batch.measure(0.05, Some(&mut tracer));
        assert!(measured.attempted >= 1);
        assert_eq!(measured.failed, 0, "{:?}", measured.failures);
        let mut report = Report::default();
        batch.layers(&log, &mut report).unwrap();
        let shares: f64 = [
            "compute",
            "lock_wait",
            "queue_wait",
            "steal",
            "routing",
            "idle",
        ]
        .iter()
        .map(|s| {
            let name = format!("runtime.threaded.{s}_share");
            report.get(&name).unwrap().value
        })
        .sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        assert!(report.get("runtime.threaded.compute_share").unwrap().value > 0.0);
        assert!(tracer.total("runtime.threaded.run").1 >= 1);
    }
}
