//! Single-layer probes: one public call of one layer, timed alone in a
//! loop. They give the cost a layer adds per use when nothing else
//! contends, the figure an end-to-end saving is checked against.

use crate::measure::median;
use crate::metrics::Report;
use crate::plan::Planned;
use bamboo::runtime::ShardedRouter;
use bamboo::{AdmissionControl, FlagSet, RequestLedger, Telemetry};
use crossbeam::channel::unbounded;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls per timed batch and batches per probe: the median batch is
/// reported, so a host stall costs one batch, not the figure.
const CALLS: u32 = 20_000;
const BATCHES: usize = 9;

/// Median nanoseconds per call over [`BATCHES`] batches of `calls`.
fn ns_per_call(calls: u32, mut batch: impl FnMut(u32)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(calls);
            t.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
        })
        .collect();
    median(&samples)
}

/// Runs every probe; `planned` supplies a W-core layout to route on.
pub fn run(planned: &Planned, workers: usize, report: &mut Report) {
    // The runtime's inter-core channel, same thread: no wake-up.
    let (tx, rx) = unbounded::<u64>();
    let send_recv = ns_per_call(CALLS, |n| {
        for i in 0..n {
            tx.send(u64::from(i)).expect("receiver is alive");
            black_box(rx.recv().expect("sender is alive"));
        }
    });
    report.set_quantile("crossbeam.channel.send_recv_ns", send_recv, BATCHES);

    // Two threads, one message in flight: every receive finds the
    // other side parked, as a worker is when a request arrives.
    let (to_echo, echo_in) = unbounded::<u64>();
    let (echo_out, from_echo) = unbounded::<u64>();
    let pingpong = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = echo_in.recv() {
                if echo_out.send(v).is_err() {
                    break;
                }
            }
        });
        let ns = ns_per_call(CALLS / 10, |n| {
            for i in 0..n {
                to_echo.send(u64::from(i)).expect("echo thread is alive");
                black_box(from_echo.recv().expect("echo thread is alive"));
            }
        });
        drop(to_echo);
        ns
    });
    report.set_quantile("crossbeam.channel.pingpong_ns", pingpong, BATCHES);

    // One routing decision on the core's own stripe: where does the
    // startup object go after its first transition?
    let spec = &planned.compiler.program.spec;
    let (graph, layout) = (&planned.plan.graph, &planned.plan.layout);
    let router = ShardedRouter::new(workers, workers, Telemetry::disabled().counter("probe"));
    let home = layout.instances_of(graph.startup_group)[0];
    let flags = FlagSet::new().with(spec.startup.flag, true);
    let route = ns_per_call(CALLS, |n| {
        for _ in 0..n {
            black_box(router.route_transition(
                0,
                spec,
                graph,
                layout,
                home,
                spec.startup.class,
                black_box(flags),
                None,
            ));
        }
    });
    report.set_quantile("runtime.router.route_ns", route, BATCHES);

    // Opening and completing a request in the ledger.
    let (ledger, completions) = RequestLedger::new();
    let inc_dec = ns_per_call(CALLS, |n| {
        for i in 0..n {
            ledger.inc(u64::from(i));
            black_box(ledger.dec(u64::from(i)));
        }
        completions.try_iter().for_each(drop);
    });
    report.set_quantile("runtime.ledger.inc_dec_ns", inc_dec, BATCHES);

    // A submission into an ingress with room. The filled channels
    // outlive the timed batches, so freeing them is not counted.
    let mut filled = Vec::with_capacity(BATCHES);
    let submit = ns_per_call(CALLS, |n| {
        let (handle, ingress) = bamboo::serving::channel(n as usize + 1);
        for _ in 0..n {
            black_box(handle.submit(Box::new(())).is_ok());
        }
        filled.push((handle, ingress));
    });
    drop(filled);
    report.set_quantile("serving.ingress.submit_ns", submit, BATCHES);

    let mut admission = AdmissionControl::open();
    let decide = ns_per_call(CALLS, |n| {
        for i in 0..n {
            black_box(admission.decide(Duration::from_micros(u64::from(i)), black_box(3)));
        }
    });
    report.set_quantile("serving.admission.decide_ns", decide, BATCHES);

    // Recording one event into an enabled worker sink.
    let telemetry = Telemetry::enabled(1);
    let mut sink = telemetry.worker(0);
    let record = ns_per_call(CALLS, |n| {
        for i in 0..n {
            let ts = sink.now();
            sink.task_start(ts, 1, 2, u64::from(i));
        }
    });
    report.set_quantile("telemetry.record_ns", record, BATCHES);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_once, Subject};
    use bamboo::MachineDescription;
    use bamboo_apps::Scale;

    #[test]
    fn every_probe_reports_a_positive_cost() {
        let subject = Subject::app(bamboo_apps::by_name("kmeans").unwrap(), Scale::Small, 1);
        let planned = plan_once(&subject, &MachineDescription::n_cores(2), 1).unwrap();
        let mut report = Report::default();
        run(&planned, 2, &mut report);
        for name in [
            "crossbeam.channel.send_recv_ns",
            "crossbeam.channel.pingpong_ns",
            "runtime.router.route_ns",
            "runtime.ledger.inc_dec_ns",
            "serving.ingress.submit_ns",
            "serving.admission.decide_ns",
            "telemetry.record_ns",
        ] {
            let v = report.get(name).unwrap_or_else(|| panic!("{name} not set"));
            assert!(v.value > 0.0, "{name} = {}", v.value);
        }
        let one_way = report.get("crossbeam.channel.send_recv_ns").unwrap().value;
        let round_trip = report.get("crossbeam.channel.pingpong_ns").unwrap().value;
        assert!(
            round_trip > one_way,
            "a wake-up costs more than a queue operation"
        );
    }
}
