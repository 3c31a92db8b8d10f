//! Every name the benchmark prints: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! root of the repository is generated from these tables
//! (`--manifest`), and a test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 12;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric a user of the system sees. `bound` is the share of the
/// parent commit's median by which it may get worse before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of a single layer. Not gated.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "plan62",
        why: "source to 62-core deployment for the six apps and the keyword DSL: only the frontend, the profiling run and synthesis work, so a runtime change must move nothing here",
    },
    WorkloadSpec {
        name: "batch-fine",
        why: "batch runs of KMeans, Tracking and MonteCarlo: task bodies of 2-10 us, so dispatch (channel, router, parameter sets, locks) is about half of all core time",
    },
    WorkloadSpec {
        name: "batch-coarse",
        why: "batch runs of FilterBank, Fractal and Series: bodies of 20-200 us dominate, the control on which a dispatch optimisation predicts no change",
    },
    WorkloadSpec {
        name: "serve-steady",
        why: "resident KMeans under seeded Poisson arrivals at a quarter of capacity: queues stay shallow and workers park, so latency is wake-up, channel hops, locks and ledger",
    },
    WorkloadSpec {
        name: "serve-backlog",
        why: "the same resident runtime with every request of a burst due at once: parameter sets and run queues are deep, so the formation scan sets the drain rate",
    },
];

/// The bounds are as wide as the contract allows. On the two-thread
/// shared host this was written on, identical work timed minutes apart
/// differs by 10-17 % wherever both hardware threads are used (see the
/// README's reference figures), and a bound narrower than the host's
/// own drift would reject changes at random.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [Layer; 69] = [
    // Planning (plan62).
    layer("lang.compile_source_us", "us", Lower),
    layer("analysis.dependence_us", "us", Lower),
    layer("analysis.cstg_us", "us", Lower),
    layer("analysis.disjoint_us", "us", Lower),
    layer("runtime.virtual_exec.profile_us", "us", Lower),
    layer("runtime.virtual_exec.inv_per_s", "1/s", Higher),
    layer("schedule.groups.build_us", "us", Lower),
    layer("schedule.transforms.replication_us", "us", Lower),
    layer("schedule.mapping.initial_us", "us", Lower),
    layer("schedule.dsa.optimize_us", "us", Lower),
    layer("schedule.dsa.sims_per_s", "1/s", Higher),
    layer("schedule.dsa.iterations", "count", Lower),
    layer("schedule.dsa.simulations", "count", Lower),
    layer("schedule.dsa.cache_hit_share", "ratio", Higher),
    layer("schedule.dsa.delta_hit_share", "ratio", Higher),
    layer("schedule.sim.ns_per_task", "ns", Lower),
    layer("schedule.critpath.us_per_trace", "us", Lower),
    layer("schedule.layout.fingerprint_ns", "ns", Lower),
    layer("schedule.simcache.lookup_ns", "ns", Lower),
    layer("schedule.sim.error_pct", "%", Lower),
    layer("runtime.deploy.deploy_us", "us", Lower),
    layer("plan.residue_pct", "%", Lower),
    layer("plan.speedup62", "ratio", Higher),
    // The threaded runtime (batch-fine, batch-coarse; counters on the
    // serving workloads too).
    layer("runtime.threaded.spawn_join_us", "us", Lower),
    layer("runtime.threaded.ns_per_inv", "ns", Lower),
    layer("runtime.threaded.nonbody_ns_per_inv", "ns", Lower),
    layer("runtime.threaded.nonbody_share", "ratio", Lower),
    layer("runtime.threaded.steals_per_kinv", "count", Lower),
    layer("runtime.threaded.lock_retries_per_kinv", "count", Lower),
    layer(
        "runtime.threaded.router_contention_per_kinv",
        "count",
        Lower,
    ),
    layer("runtime.threaded.router_shed_per_kinv", "count", Lower),
    layer("runtime.threaded.compute_share", "ratio", Higher),
    layer("runtime.threaded.lock_wait_share", "ratio", Lower),
    layer("runtime.threaded.queue_wait_share", "ratio", Lower),
    layer("runtime.threaded.steal_share", "ratio", Lower),
    layer("runtime.threaded.routing_share", "ratio", Lower),
    layer("runtime.threaded.idle_share", "ratio", Lower),
    layer("runtime.threaded.inv_per_req", "count", Lower),
    // Single-layer probes (every executed workload).
    layer("crossbeam.channel.send_recv_ns", "ns", Lower),
    layer("crossbeam.channel.pingpong_ns", "ns", Lower),
    layer("runtime.router.route_ns", "ns", Lower),
    layer("runtime.ledger.inc_dec_ns", "ns", Lower),
    layer("serving.ingress.submit_ns", "ns", Lower),
    layer("serving.admission.decide_ns", "ns", Lower),
    layer("telemetry.record_ns", "ns", Lower),
    // Serving (serve-steady, serve-backlog).
    layer("serving.gen_late_p50_us", "us", Lower),
    layer("serving.gen_late_p99_us", "us", Lower),
    layer("serving.ingress_wait_p50_us", "us", Lower),
    layer("serving.server.admit_p50_us", "us", Lower),
    layer("serving.server.admit_p99_us", "us", Lower),
    layer("serving.lat_p99_us", "us", Lower),
    layer("serving.lat_p999_us", "us", Lower),
    layer("serving.completed_rps", "1/s", Higher),
    layer("serving.backlog_end", "count", Lower),
    layer("span.compute_share", "ratio", Higher),
    layer("span.lock_wait_share", "ratio", Lower),
    layer("span.queue_wait_share", "ratio", Lower),
    layer("span.routing_share", "ratio", Lower),
    layer("span.idle_share", "ratio", Lower),
    layer("serving.drain_rps.KMeans", "1/s", Higher),
    layer("serving.drain_rps.Fractal", "1/s", Higher),
    layer("serving.drain_ns_per_inv", "ns", Lower),
    layer("serving.backlog_penalty", "ratio", Lower),
    // Cost of observing (every workload).
    layer("telemetry.overhead_pct", "%", Lower),
    layer("telemetry.scope_overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
    layer("op.untraced_p50_ms", "ms", Lower),
    layer("op.untraced_p90_ms", "ms", Lower),
    layer("process.peak_rss_mb", "MB", Lower),
];

/// A measured value and, for a quantile, the samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: Option<usize>,
}

/// The metrics one run measured, by registered name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, Value>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

impl Report {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name no table lists, or a value that is not finite:
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(name, value, None);
    }

    /// Sets a quantile together with its sample count.
    pub fn set_quantile(&mut self, name: &'static str, value: f64, samples: usize) {
        self.insert(name, value, Some(samples));
    }

    fn insert(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        assert!(unit_of(name).is_some(), "unregistered metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite");
        self.values.insert(name, Value { value, samples });
    }

    /// The value set for `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }

    /// The metrics of one kind in table order as `(name, value, unit)`.
    /// A per-layer metric the workload's timed region never entered
    /// reads 0; an end-to-end metric must have been set.
    pub fn rows(&self, per_layer: bool) -> Vec<(&'static str, Value, &'static str)> {
        let zero = Value {
            value: 0.0,
            samples: None,
        };
        if per_layer {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.get(m.name).unwrap_or(zero), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self.get(m.name);
                    (
                        m.name,
                        v.expect("every end-to-end metric is measured"),
                        m.unit,
                    )
                })
                .collect()
        }
    }
}

/// The final line of a run: one JSON object with the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(report: &Report, per_layer: bool, attempted: u64, failed: u64) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, v, unit)) in report.rows(per_layer).into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            v.value
        );
    }
    out.push_str("}}");
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            let ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
                "{unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up time has the largest bound");
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(on_disk, manifest(), "regenerate with --manifest");
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_asked_metrics() {
        let mut report = Report::default();
        for m in &END_TO_END {
            report.set(m.name, 1.25);
        }
        report.set_quantile("serving.lat_p99_us", 900.5, 24_000);
        let e2e = result_json(&report, false, 10, 0);
        assert_eq!(e2e.matches("\"unit\"").count(), END_TO_END.len());
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(e2e.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!e2e.contains("serving.lat_p99_us"));
        let layers = result_json(&report, true, 10, 1);
        assert!(layers.starts_with("{\"correct\": false"));
        assert!(layers.contains("\"serving.lat_p99_us\": {\"value\": 900.5, \"unit\": \"us\"}"));
        assert!(layers.contains("\"plan.residue_pct\": {\"value\": 0, \"unit\": \"%\"}"));
        assert!(!layers.contains("setup_s"));
        assert_eq!(layers.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "unregistered metric")]
    fn a_misspelt_metric_is_a_bug() {
        Report::default().set("op_p50", 1.0);
    }
}
