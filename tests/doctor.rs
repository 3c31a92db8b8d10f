//! Integration tests for `bamboo::telemetry::analyze` (the
//! `bamboo-doctor` analysis layer) over real executor runs.
//!
//! Covers the PR's acceptance criteria end to end: the causal graph
//! reconstructed from a threaded run matches the virtual executor's
//! edge list on real benchmarks, stolen invocations stay linked to
//! their original producers, and a full diagnosis yields an exact
//! per-core time breakdown plus ranked findings.

use bamboo::schedule::bootstrap_plan;
use bamboo::telemetry::analyze::{diagnose, ObservedGraph, ObservedPath};
use bamboo::{
    body, Compiler, CoreId, Deployment, ExecConfig, ExecutionTrace, FlagExpr, Layout,
    MachineDescription, NativeBody, ProgramBuilder, Replication, RunOptions, Telemetry,
    TelemetryReport, ThreadedExecutor, ThreadedReport, VirtualExecutor,
};
use bamboo_apps::{by_name, Scale};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Profiles `bench_name` at small scale, synthesizes for `machine` with
/// a fixed seed, and deploys.
fn deploy_for(bench_name: &str, machine: &MachineDescription, seed: u64) -> (Compiler, Deployment) {
    let bench = by_name(bench_name).expect("benchmark exists");
    let compiler = bench.compiler(Scale::Small);
    let plan = compiler.plan("doctor", machine, seed).expect("profile run");
    (compiler, plan.deployment)
}

/// One telemetry-enabled threaded run.
fn observed_run(deployment: &Deployment, cores: usize) -> (TelemetryReport, ThreadedReport) {
    let telemetry = Telemetry::enabled(cores);
    let options = RunOptions {
        telemetry: telemetry.clone(),
        ..RunOptions::default()
    };
    let run = ThreadedExecutor::default()
        .run(deployment, options)
        .expect("threaded run");
    (telemetry.report(), run)
}

/// The virtual executor's trace over the same deployment.
fn predicted_trace(deployment: &Deployment, machine: &MachineDescription) -> ExecutionTrace {
    let config = ExecConfig {
        collect_trace: true,
        ..ExecConfig::default()
    };
    let mut exec = VirtualExecutor::over(deployment, machine, config);
    exec.run(None)
        .expect("virtual run")
        .trace
        .expect("trace requested")
}

/// A trace's causal edge list as a `(producer task, consumer task)`
/// multiset (external/startup edges excluded) — the same fingerprint
/// [`ObservedGraph::edge_task_pairs`] computes for observed runs.
fn trace_edge_pairs(trace: &ExecutionTrace) -> HashMap<(u64, u64), u64> {
    let mut pairs = HashMap::new();
    for t in &trace.tasks {
        for dep in trace.deps_of(t) {
            if let Some(p) = dep.producer {
                let key = (trace.tasks[p].task.index() as u64, t.task.index() as u64);
                *pairs.entry(key).or_insert(0) += 1;
            }
        }
    }
    pairs
}

/// The causal graph reconstructed from observed telemetry carries
/// exactly the data edges the deterministic virtual executor predicts —
/// per-task invocation counts and the (producer task, consumer task)
/// edge multiset both match — on real benchmarks, planned for 8 cores
/// and for the 62-core TILEPro64 model. Both apps are all-disjoint, so
/// no invocation retries its locks, and the observed critical path
/// spends at least 1 % of its span computing.
#[test]
fn observed_causal_edges_match_virtual_executor() {
    for machine in [
        MachineDescription::n_cores(8),
        MachineDescription::tilepro64(),
    ] {
        for bench in ["kmeans", "filterbank"] {
            let cores = machine.core_count();
            let (_, deployment) = deploy_for(bench, &machine, 42);
            let (report, run) = observed_run(&deployment, cores);
            let graph = ObservedGraph::from_report(&report);
            assert_eq!(
                graph.incomplete, 0,
                "{bench}/{cores}: ring held the whole run"
            );
            assert_eq!(
                graph.invocations.len() as u64,
                run.invocations,
                "{bench}/{cores}"
            );
            assert_eq!(run.lock_retries, 0, "{bench}/{cores}: all-disjoint");
            let share = ObservedPath::from_graph(&graph).compute_share();
            assert!(
                share >= 0.01,
                "{bench}/{cores}: critical path compute share {share}"
            );

            let predicted = predicted_trace(&deployment, &machine);
            let predicted_counts: HashMap<u64, u64> =
                predicted.tasks.iter().fold(HashMap::new(), |mut acc, t| {
                    *acc.entry(t.task.index() as u64).or_insert(0) += 1;
                    acc
                });
            assert_eq!(
                graph.task_counts(),
                predicted_counts,
                "{bench}/{cores}: per-task counts"
            );
            assert_eq!(
                graph.edge_task_pairs(),
                trace_edge_pairs(&predicted),
                "{bench}/{cores}: causal edge multiset"
            );
        }
    }
}

/// Satellite: a work-stolen invocation's received objects still link to
/// the invocation that actually produced them — theft changes where the
/// body runs, never who enabled it.
///
/// The steal is forced, not hoped for. `startup` (core 0) creates three
/// `Work` items for a group with one instance on core 0 and one on
/// core 1; round-robin puts items 0 and 2 on core 0 — queued there
/// together before `startup` returns — and item 1 on core 1. The bodies
/// of items 0 and 2 each wait for the other to have started, which can
/// only happen on two cores, and item 1 waits for either of them, so
/// core 1 finishes it while core 0 sits in a body with the other item
/// still queued, and takes that one. (The waits give up after ten
/// seconds so a missing steal fails the assertion below, not the build.)
#[test]
fn stolen_invocations_link_to_original_producers() {
    let armed = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU64::new(0));
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("forced-steal");
    let s = b.class("StartupObject", &["initialstate"]);
    let w = b.class("Work", &["ready"]);
    let init = b.flag(s, "initialstate");
    let ready = b.flag(w, "ready");
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .alloc(w, &[(ready, true)], &[])
        .exit("", |e| e.set(0, init, false))
        .body(body(|ctx| {
            for item in 0..3usize {
                ctx.create(0, item);
            }
            0
        }))
        .finish();
    let (gate, count) = (armed.clone(), started.clone());
    let work = b
        .task("work")
        .param("w", w, FlagExpr::flag(ready))
        .exit("", |e| e.set(0, ready, false))
        .body(body(move |ctx| {
            let item = *ctx.param::<usize>(0);
            if gate.load(Ordering::SeqCst) {
                count.fetch_or(1 << item, Ordering::SeqCst);
                let awaited = [0b100, 0b101, 0b001][item];
                let deadline = Instant::now() + Duration::from_secs(10);
                while count.load(Ordering::SeqCst) & awaited == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            0
        }))
        .finish();
    let compiler = Compiler::from_native(b.build().expect("valid program"));
    let (graph, _) = bootstrap_plan(&compiler.program.spec, &compiler.cstg);
    let work_group = graph.group_of_task(work).expect("work is grouped");
    let mut replication = Replication::serial(&graph);
    replication.copies[work_group.index()] = 2;
    let core_lists: Vec<Vec<CoreId>> = replication
        .copies
        .iter()
        .map(|&copies| (0..copies).map(CoreId::new).collect())
        .collect();
    let layout = Layout::new(&graph, &replication, 2, &core_lists);
    let deployment = Deployment::new(
        compiler.program.clone(),
        graph,
        layout,
        compiler.locks.clone(),
    );
    let machine = MachineDescription::n_cores(2);
    let predicted_pairs = trace_edge_pairs(&predicted_trace(&deployment, &machine));

    armed.store(true, Ordering::SeqCst);
    let (report, run) = observed_run(&deployment, 2);
    assert_eq!(run.invocations, 4);
    let graph = ObservedGraph::from_report(&report);
    let stolen: Vec<_> = graph.stolen().collect();
    // `run.steals` counts steal *events*; the graph records distinct
    // stolen *invocations*. A stolen invocation that fails its locks
    // re-queues on the thief (same id) and can be stolen again, so
    // events can exceed invocations — never the other way around.
    assert!(
        !stolen.is_empty() && (stolen.len() as u64) <= run.steals,
        "{} stolen invocations vs {} steal events",
        stolen.len(),
        run.steals,
    );
    let task_of: HashMap<u64, u64> = graph
        .invocations
        .iter()
        .map(|inv| (inv.id, inv.task))
        .collect();
    for inv in stolen {
        let victim = inv.stolen_from.expect("stolen() filters on this");
        assert_ne!(victim, inv.core, "thieves only scan other cores' queues");
        for dep in &inv.deps {
            let Some(producer) = dep.producer else {
                continue;
            };
            // The ObjRecv of the object the thief consumed matches the
            // ObjSend the original producer emitted: same message id,
            // send before receive, producer a real invocation.
            let ptask = task_of.get(&producer).copied().unwrap_or_else(|| {
                panic!(
                    "dep of stolen invocation {} names unknown producer {producer}",
                    inv.id
                )
            });
            let sent = dep.sent.expect("producer's ObjSend recorded");
            let received = dep.received.expect("victim's ObjRecv recorded");
            assert!(sent <= received, "send {sent} after receive {received}");
            assert!(
                predicted_pairs.contains_key(&(ptask, inv.task)),
                "edge task{ptask}->task{} not predicted by the virtual executor",
                inv.task,
            );
        }
    }
}

/// Acceptance: a full diagnosis of kmeans on 8 cores yields a per-core
/// breakdown that sums to the span exactly (well within the 1%
/// criterion), an observed critical path, and at least one ranked
/// finding.
#[test]
fn kmeans_diagnosis_breaks_down_wall_time_exactly() {
    let machine = MachineDescription::n_cores(8);
    let (compiler, deployment) = deploy_for("kmeans", &machine, 42);
    let (report, _) = observed_run(&deployment, 8);
    let predicted = predicted_trace(&deployment, &machine);
    let diagnosis = diagnose(&report, Some(&predicted));

    assert_eq!(diagnosis.ledger.cores.len(), 8);
    for row in &diagnosis.ledger.cores {
        assert_eq!(
            row.total(),
            diagnosis.ledger.span,
            "core {} ledger partitions the span",
            row.core
        );
    }
    let path = diagnosis.path.as_ref().expect("causal linkage recorded");
    assert!(!path.steps.is_empty());
    assert!(path.makespan > 0);
    assert!(
        !diagnosis.findings.is_empty(),
        "at least one ranked finding"
    );
    // The summary renders with real task names from the program spec.
    let summary = diagnosis.summary(Some(&compiler.program.spec));
    assert!(summary.contains("per-core time breakdown"), "{summary}");
    assert!(summary.contains("observed critical path"), "{summary}");
}
