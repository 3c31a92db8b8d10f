//! Finding generators: local pathologies and predicted-vs-observed
//! divergence scoring.
//!
//! Local rules need only the observed execution: lock contention,
//! steal pressure, per-core load imbalance, and wait-dominated critical
//! paths. Divergence rules align the observed causal graph against the
//! virtual executor's predicted [`ExecutionTrace`] over the same
//! deployment: the invocation-count and causal-edge multisets must
//! match exactly (they are determined by the program, not the
//! schedule), while per-task time shares and utilization may drift and
//! are scored.

use super::findings::{Evidence, Finding, Severity};
use super::graph::ObservedGraph;
use super::ledger::Ledger;
use super::path::ObservedPath;
use crate::event::{fault_code, recover_code};
use bamboo_schedule::trace::ExecutionTrace;
use std::collections::HashMap;

/// Findings derivable from the observed execution alone.
pub fn local_findings(
    graph: &ObservedGraph,
    ledger: &Ledger,
    path: Option<&ObservedPath>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let n = graph.invocations.len();
    if n == 0 {
        return out;
    }

    if let Some(path) = path {
        // The anchor finding: where the makespan went. Always present,
        // so every diagnosis has at least one ranked entry.
        let mut evidence: Vec<Evidence> = path
            .steps
            .iter()
            .max_by_key(|s| s.end.saturating_sub(s.start))
            .map(|s| {
                Evidence::at(
                    format!("longest path step: task {} (invocation {})", s.task, s.inv),
                    (s.start, s.end),
                    s.core,
                )
            })
            .into_iter()
            .collect();
        evidence.push(Evidence::note(format!(
            "path compute {} vs wait {} ({} resource-delayed steps)",
            path.compute, path.wait, path.resource_delayed
        )));
        out.push(Finding {
            rule: "critical-path",
            severity: Severity::Info,
            score: path.wait as f64,
            message: format!(
                "critical path covers {} of {} invocations; compute is {:.1}% of makespan {}",
                path.steps.len(),
                n,
                100.0 * path.compute_share(),
                path.makespan
            ),
            evidence,
        });

        if path.compute_share() < 0.5 {
            out.push(Finding {
                rule: "wait-dominated-path",
                severity: Severity::Warning,
                score: 1.0 - path.compute_share(),
                message: format!(
                    "the critical path waits more than it computes ({:.1}% compute)",
                    100.0 * path.compute_share()
                ),
                evidence: vec![Evidence::note(format!(
                    "wait {} vs compute {}; queue waits on path: {}",
                    path.wait,
                    path.compute,
                    path.steps.iter().map(|s| s.queue_wait).sum::<u64>()
                ))],
            });
        }
    }

    let retries: u64 = graph.invocations.iter().map(|inv| inv.retries).sum();
    if retries > 0 {
        let per_inv = retries as f64 / n as f64;
        let mut worst: Vec<_> = graph.invocations.iter().filter(|i| i.retries > 0).collect();
        worst.sort_by_key(|i| std::cmp::Reverse(i.retries));
        let evidence = worst
            .iter()
            .take(3)
            .map(|i| {
                Evidence::at(
                    format!("task {} invocation {}: {} retries", i.task, i.id, i.retries),
                    (i.queued, i.start),
                    i.core,
                )
            })
            .collect();
        out.push(Finding {
            rule: "lock-contention",
            severity: if per_inv > 1.0 { Severity::Critical } else { Severity::Warning },
            score: per_inv,
            message: format!(
                "{retries} failed try-lock-all attempts across {n} invocations ({per_inv:.2}/invocation)"
            ),
            evidence,
        });
    }

    let stolen: Vec<_> = graph.stolen().collect();
    if !stolen.is_empty() {
        let ratio = stolen.len() as f64 / n as f64;
        let evidence = stolen
            .iter()
            .take(3)
            .map(|i| {
                Evidence::at(
                    format!(
                        "invocation {} of task {} stolen from core {}",
                        i.id,
                        i.task,
                        i.stolen_from.unwrap_or(0)
                    ),
                    (i.queued, i.start),
                    i.core,
                )
            })
            .collect();
        out.push(Finding {
            rule: "steal-storm",
            severity: if ratio > 0.25 && stolen.len() >= 4 {
                Severity::Warning
            } else {
                Severity::Info
            },
            score: ratio,
            message: format!(
                "{} of {} invocations were work-stolen ({:.0}%) — the planned layout underfeeds some cores",
                stolen.len(),
                n,
                100.0 * ratio
            ),
            evidence,
        });
    }

    let active: Vec<_> = ledger.cores.iter().filter(|row| row.compute > 0).collect();
    if active.len() >= 2 {
        let mean = active.iter().map(|r| r.compute).sum::<u64>() as f64 / active.len() as f64;
        let busiest = active.iter().max_by_key(|r| r.compute).unwrap();
        let lightest = active.iter().min_by_key(|r| r.compute).unwrap();
        let ratio = busiest.compute as f64 / mean;
        if ratio > 1.5 {
            out.push(Finding {
                rule: "load-imbalance",
                severity: Severity::Warning,
                score: ratio,
                message: format!(
                    "core {} carries {:.1}x the mean compute load",
                    busiest.core, ratio
                ),
                evidence: vec![
                    Evidence::at(
                        format!(
                            "busiest: core {} computed {}",
                            busiest.core, busiest.compute
                        ),
                        (ledger.start, ledger.start + ledger.span),
                        busiest.core,
                    ),
                    Evidence::at(
                        format!(
                            "lightest active: core {} computed {}",
                            lightest.core, lightest.compute
                        ),
                        (ledger.start, ledger.start + ledger.span),
                        lightest.core,
                    ),
                ],
            });
        }
    }

    out
}

/// Findings attributing slowdown to *injected* faults: when the run
/// carried a chaos plan, every `fault.*` event names its cause
/// precisely, so the diagnosis can say "core 3 was killed and peers
/// absorbed its work" instead of guessing from symptoms. Recovery
/// events are matched against their faults to price the recovery cost.
pub fn fault_findings(graph: &ObservedGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    let (faults, recovers) = (&graph.faults, &graph.recoveries);

    // Core kills: name the dead core and price its failover.
    for kill in faults.iter().filter(|e| e.a == fault_code::CORE_KILL) {
        let dead_core = kill.b;
        let drained = recovers
            .iter()
            .filter(|e| e.a == recover_code::FAILOVER_DRAIN && u64::from(e.core) == dead_core)
            .map(|e| e.b)
            .sum::<u64>();
        let rerouted = recovers
            .iter()
            .filter(|e| e.a == recover_code::REROUTE)
            .count();
        out.push(Finding {
            rule: "injected-core-kill",
            severity: Severity::Warning,
            score: 1.0 + drained as f64 + rerouted as f64,
            message: format!(
                "core {dead_core} was killed by the fault plan; {drained} buffered object(s) \
                 failed over and {rerouted} send(s) re-routed to live replicas"
            ),
            evidence: vec![Evidence::at(
                format!("fault.core_kill on core {dead_core}"),
                (kill.ts, kill.ts),
                kill.core,
            )],
        });
    }

    // Message drops: redelivery pressure is injected latency, not a
    // runtime defect.
    let drops: Vec<_> = faults
        .iter()
        .filter(|e| e.a == fault_code::MSG_DROP)
        .collect();
    if !drops.is_empty() {
        let attempts: u64 = drops.iter().map(|e| e.b).sum();
        let redelivered = recovers
            .iter()
            .filter(|e| e.a == recover_code::REDELIVER)
            .count();
        let worst = drops.iter().max_by_key(|e| e.b).expect("non-empty drops");
        out.push(Finding {
            rule: "injected-message-drops",
            severity: Severity::Info,
            score: attempts as f64,
            message: format!(
                "{} message(s) were dropped by the fault plan ({attempts} simulated \
                 retransmission(s), {redelivered} redelivered with backoff)",
                drops.len()
            ),
            evidence: vec![Evidence::at(
                format!("worst message {} needed {} attempt(s)", worst.c, worst.b),
                (worst.ts, worst.ts),
                worst.core,
            )],
        });
    }

    // Stalls, delays, and lock slowdowns: pure injected latency.
    let latency: Vec<_> = faults
        .iter()
        .filter(|e| {
            matches!(
                e.a,
                fault_code::CORE_STALL | fault_code::MSG_DELAY | fault_code::LOCK_SLOW
            )
        })
        .collect();
    if !latency.is_empty() {
        let injected_ns: u64 = latency.iter().map(|e| e.b).sum();
        let worst = latency
            .iter()
            .max_by_key(|e| e.b)
            .expect("non-empty latency faults");
        out.push(Finding {
            rule: "injected-latency",
            severity: Severity::Info,
            score: injected_ns as f64,
            message: format!(
                "{} stall/delay/slowdown fault(s) injected ~{injected_ns} ns of artificial latency",
                latency.len()
            ),
            evidence: vec![Evidence::at(
                format!(
                    "largest single injection: {} ns on core {}",
                    worst.b, worst.core
                ),
                (worst.ts, worst.ts),
                worst.core,
            )],
        });
    }

    out
}

/// Findings from aligning the observed graph against the virtual
/// executor's predicted trace over the same deployment.
pub fn predicted_vs_observed(graph: &ObservedGraph, predicted: &ExecutionTrace) -> Vec<Finding> {
    let mut out = Vec::new();
    if graph.invocations.is_empty() || predicted.tasks.is_empty() {
        return out;
    }

    // Invocation counts per task are schedule-independent: any mismatch
    // means the executors disagree about the program itself.
    let obs_counts = graph.task_counts();
    let mut pred_counts: HashMap<u64, u64> = HashMap::new();
    for t in &predicted.tasks {
        *pred_counts.entry(t.task.index() as u64).or_insert(0) += 1;
    }
    let mut count_diffs: Vec<(u64, u64, u64)> = Vec::new();
    let mut tasks: Vec<u64> = obs_counts
        .keys()
        .chain(pred_counts.keys())
        .copied()
        .collect();
    tasks.sort_unstable();
    tasks.dedup();
    for task in tasks {
        let obs = obs_counts.get(&task).copied().unwrap_or(0);
        let pred = pred_counts.get(&task).copied().unwrap_or(0);
        if obs != pred {
            count_diffs.push((task, pred, obs));
        }
    }
    if !count_diffs.is_empty() {
        let score: u64 = count_diffs.iter().map(|(_, p, o)| p.abs_diff(*o)).sum();
        out.push(Finding {
            rule: "rate-matching-violation",
            severity: Severity::Critical,
            score: score as f64,
            message: format!(
                "invocation counts diverge from the prediction for {} task(s)",
                count_diffs.len()
            ),
            evidence: count_diffs
                .iter()
                .take(5)
                .map(|(task, pred, obs)| {
                    Evidence::note(format!("task {task}: predicted {pred}, observed {obs}"))
                })
                .collect(),
        });
    }

    // The causal-edge multiset ((producer task, consumer task) pairs)
    // is likewise determined by the dataflow, not the schedule.
    let obs_pairs = graph.edge_task_pairs();
    let mut pred_pairs: HashMap<(u64, u64), u64> = HashMap::new();
    for t in &predicted.tasks {
        for d in predicted.deps_of(t) {
            if let Some(p) = d.producer {
                let ptask = predicted.tasks[p].task.index() as u64;
                *pred_pairs
                    .entry((ptask, t.task.index() as u64))
                    .or_insert(0) += 1;
            }
        }
    }
    let mut pairs: Vec<(u64, u64)> = obs_pairs.keys().chain(pred_pairs.keys()).copied().collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut edge_diffs: Vec<((u64, u64), u64, u64)> = Vec::new();
    for pair in pairs {
        let obs = obs_pairs.get(&pair).copied().unwrap_or(0);
        let pred = pred_pairs.get(&pair).copied().unwrap_or(0);
        if obs != pred {
            edge_diffs.push((pair, pred, obs));
        }
    }
    if !edge_diffs.is_empty() {
        let score: u64 = edge_diffs.iter().map(|(_, p, o)| p.abs_diff(*o)).sum();
        out.push(Finding {
            rule: "causal-edge-divergence",
            severity: Severity::Critical,
            score: score as f64,
            message: format!(
                "{} causal task-pair edge(s) differ between prediction and observation",
                edge_diffs.len()
            ),
            evidence: edge_diffs
                .iter()
                .take(5)
                .map(|((p, c), pred, obs)| {
                    Evidence::note(format!(
                        "edge task {p} -> task {c}: predicted x{pred}, observed x{obs}"
                    ))
                })
                .collect(),
        });
    }

    // Per-task busy-time shares: the profile the synthesis optimized
    // for vs what really ran. Units differ (cycles vs ns), so compare
    // normalized shares.
    let mut obs_busy: HashMap<u64, u64> = HashMap::new();
    for inv in &graph.invocations {
        *obs_busy.entry(inv.task).or_insert(0) += inv.duration();
    }
    let mut pred_busy: HashMap<u64, u64> = HashMap::new();
    for t in &predicted.tasks {
        *pred_busy.entry(t.task.index() as u64).or_insert(0) += t.duration();
    }
    let obs_total: u64 = obs_busy.values().sum();
    let pred_total: u64 = pred_busy.values().sum();
    if obs_total > 0 && pred_total > 0 {
        let mut drifts: Vec<(u64, f64, f64)> = Vec::new();
        for (&task, &busy) in &obs_busy {
            let obs_share = busy as f64 / obs_total as f64;
            let pred_share = pred_busy.get(&task).copied().unwrap_or(0) as f64 / pred_total as f64;
            if (obs_share - pred_share).abs() > 0.15 {
                drifts.push((task, pred_share, obs_share));
            }
        }
        if !drifts.is_empty() {
            drifts.sort_by(|a, b| (b.2 - b.1).abs().total_cmp(&(a.2 - a.1).abs()));
            let score = drifts
                .iter()
                .map(|(_, p, o)| (o - p).abs())
                .fold(0.0, f64::max);
            out.push(Finding {
                rule: "task-weight-divergence",
                severity: Severity::Warning,
                score,
                message: format!(
                    "{} task(s) consume a different share of busy time than profiled",
                    drifts.len()
                ),
                evidence: drifts
                    .iter()
                    .take(3)
                    .map(|(task, pred, obs)| {
                        Evidence::note(format!(
                            "task {task}: predicted {:.0}% of busy time, observed {:.0}%",
                            100.0 * pred,
                            100.0 * obs
                        ))
                    })
                    .collect(),
            });
        }
    }

    // Utilization drift is informational: real schedulers rarely hit
    // simulated packing.
    let obs_trace = graph.to_trace();
    let obs_cores = {
        let mut cores: Vec<u32> = graph.invocations.iter().map(|i| i.core).collect();
        cores.sort_unstable();
        cores.dedup();
        cores.len()
    };
    let pred_cores = {
        let mut cores: Vec<usize> = predicted.tasks.iter().map(|t| t.core.index()).collect();
        cores.sort_unstable();
        cores.dedup();
        cores.len()
    };
    let obs_util = obs_trace.utilization(obs_cores.max(1));
    let pred_util = predicted.utilization(pred_cores.max(1));
    if (obs_util - pred_util).abs() > 0.25 {
        out.push(Finding {
            rule: "utilization-divergence",
            severity: Severity::Info,
            score: (obs_util - pred_util).abs(),
            message: format!(
                "observed utilization {:.0}% vs predicted {:.0}%",
                100.0 * obs_util,
                100.0 * pred_util
            ),
            evidence: vec![Evidence::note(format!(
                "observed over {obs_cores} active core(s), predicted over {pred_cores}"
            ))],
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::testutil::two_core_report;
    use bamboo_lang::ids::TaskId;
    use bamboo_machine::CoreId;
    use bamboo_schedule::trace::{DataDep, TraceTask};
    use bamboo_schedule::InstanceId;

    fn tt(
        id: usize,
        task: usize,
        core: usize,
        start: u64,
        end: u64,
        deps: Vec<DataDep>,
    ) -> (TraceTask, Vec<DataDep>) {
        (
            TraceTask {
                id,
                task: TaskId::new(task),
                instance: InstanceId(task as u32),
                core: CoreId::new(core),
                start,
                end,
                deps: bamboo_schedule::trace::DepRange::default(),
                prev_on_core: None,
            },
            deps,
        )
    }

    /// A prediction whose counts/edges match the observed fixture:
    /// startup -> work x2 -> reduce, plus the accumulator edge.
    fn matching_prediction() -> ExecutionTrace {
        let parts = vec![
            tt(
                0,
                0,
                0,
                0,
                1000,
                vec![DataDep {
                    producer: None,
                    arrival: 0,
                }],
            ),
            tt(
                1,
                1,
                0,
                1000,
                2200,
                vec![DataDep {
                    producer: Some(0),
                    arrival: 1000,
                }],
            ),
            tt(
                2,
                1,
                1,
                1000,
                2000,
                vec![DataDep {
                    producer: Some(0),
                    arrival: 1000,
                }],
            ),
            tt(
                3,
                2,
                0,
                2200,
                8200,
                vec![
                    DataDep {
                        producer: Some(0),
                        arrival: 1050,
                    },
                    DataDep {
                        producer: Some(1),
                        arrival: 2200,
                    },
                    DataDep {
                        producer: Some(2),
                        arrival: 2100,
                    },
                ],
            ),
        ];
        let mut trace = ExecutionTrace {
            makespan: 8200,
            ..ExecutionTrace::default()
        };
        for (task, deps) in parts {
            trace.push_task(task, &deps);
        }
        trace
    }

    #[test]
    fn local_findings_always_include_the_critical_path() {
        let graph = ObservedGraph::from_report(&two_core_report());
        let ledger = Ledger::from_report(&two_core_report());
        let path = ObservedPath::from_graph(&graph);
        let findings = local_findings(&graph, &ledger, Some(&path));
        assert!(findings.iter().any(|f| f.rule == "critical-path"));
        // The fixture has one lock retry and one steal.
        assert!(findings.iter().any(|f| f.rule == "lock-contention"));
        assert!(findings.iter().any(|f| f.rule == "steal-storm"));
        for f in &findings {
            assert!(!f.evidence.is_empty(), "{} has no evidence", f.rule);
        }
    }

    #[test]
    fn matching_prediction_raises_no_critical_findings() {
        let graph = ObservedGraph::from_report(&two_core_report());
        let findings = predicted_vs_observed(&graph, &matching_prediction());
        assert!(
            !findings.iter().any(|f| f.severity == Severity::Critical),
            "{findings:?}"
        );
    }

    #[test]
    fn missing_invocation_is_a_rate_matching_violation() {
        let graph = ObservedGraph::from_report(&two_core_report());
        let mut predicted = matching_prediction();
        predicted.tasks.remove(2); // drop one work invocation
        let findings = predicted_vs_observed(&graph, &predicted);
        let rate = findings
            .iter()
            .find(|f| f.rule == "rate-matching-violation")
            .expect("count mismatch flagged");
        assert_eq!(rate.severity, Severity::Critical);
        assert!(rate.evidence.iter().any(|e| e.detail.contains("task 1")));
    }

    #[test]
    fn rewired_edge_is_a_causal_divergence() {
        let graph = ObservedGraph::from_report(&two_core_report());
        let mut predicted = matching_prediction();
        // Rewire the accumulator edge: reduce's first dep now claims to
        // come from a work invocation instead of startup.
        let first_dep = predicted.tasks[3].deps.start as usize;
        predicted.deps[first_dep].producer = Some(1);
        let findings = predicted_vs_observed(&graph, &predicted);
        assert!(
            findings.iter().any(|f| f.rule == "causal-edge-divergence"),
            "{findings:?}"
        );
    }

    #[test]
    fn empty_inputs_produce_no_findings() {
        let graph = ObservedGraph::default();
        assert!(predicted_vs_observed(&graph, &matching_prediction()).is_empty());
        let ledger = Ledger::default();
        assert!(local_findings(&graph, &ledger, None).is_empty());
    }

    #[test]
    fn fault_findings_attribute_injected_faults() {
        use crate::event::{Event, EventKind};
        use crate::report::TelemetryReport;
        let mut report = TelemetryReport::empty();
        report.events = vec![
            Event {
                ts: 10,
                kind: EventKind::Fault,
                core: 2,
                a: fault_code::CORE_KILL,
                b: 2,
                c: u64::MAX,
            },
            Event {
                ts: 12,
                kind: EventKind::Recover,
                core: 2,
                a: recover_code::FAILOVER_DRAIN,
                b: 3,
                c: u64::MAX,
            },
            Event {
                ts: 14,
                kind: EventKind::Recover,
                core: 0,
                a: recover_code::REROUTE,
                b: 1,
                c: 9,
            },
            Event {
                ts: 20,
                kind: EventKind::Fault,
                core: 0,
                a: fault_code::MSG_DROP,
                b: 2,
                c: 9,
            },
            Event {
                ts: 21,
                kind: EventKind::Recover,
                core: 0,
                a: recover_code::REDELIVER,
                b: 2,
                c: 9,
            },
            Event {
                ts: 30,
                kind: EventKind::Fault,
                core: 1,
                a: fault_code::MSG_DELAY,
                b: 50_000,
                c: 11,
            },
        ];
        let findings = fault_findings(&ObservedGraph::from_report(&report));
        let kill = findings
            .iter()
            .find(|f| f.rule == "injected-core-kill")
            .expect("kill finding");
        assert!(kill.message.contains("core 2"), "{}", kill.message);
        assert!(
            kill.message.contains("3 buffered object(s)"),
            "{}",
            kill.message
        );
        let drops = findings
            .iter()
            .find(|f| f.rule == "injected-message-drops")
            .expect("drop finding");
        assert!(drops.message.contains("1 message(s)"), "{}", drops.message);
        assert!(findings.iter().any(|f| f.rule == "injected-latency"));
        for f in &findings {
            assert!(!f.evidence.is_empty(), "{} has no evidence", f.rule);
        }
    }

    #[test]
    fn fault_free_report_yields_no_fault_findings() {
        assert!(fault_findings(&ObservedGraph::from_report(&two_core_report())).is_empty());
        assert!(fault_findings(&ObservedGraph::default()).is_empty());
    }
}
