//! Online adaptive re-layout integration tests (DESIGN.md §16): the
//! doctor→DSA loop closed at runtime with hot group migration, behind
//! the `DeploymentHandle` lifecycle.
//!
//! Three claims under test:
//!
//! 1. **Determinism** — under stepped pacing the controller's decisions
//!    (tick/decision/relayout counts, committed epochs, final core
//!    assignment) are a pure function of the seeded policy and the
//!    drained estimator snapshots, so same-seed runs are identical even
//!    though the workers race on real threads.
//! 2. **Transparency** — a forced mid-run hot migration never changes
//!    results: on all six apps the threaded checksum equals the clean
//!    (never-migrated) run's, and the request ledger stays exact.
//! 3. **Hysteresis** — the improvement threshold and the per-window
//!    budget bound migration churn under an alternating bursty mix; an
//!    unreachable threshold commits nothing at all.

use bamboo::prelude::*;
use bamboo::schedule::{bootstrap_plan, InstanceId, Layout, Replication};
use bamboo::telemetry::EventKind;
use bamboo::{CoreId, Pacing, RelayoutHandle, ServingOptions, ServingReport, Telemetry};
use bamboo_apps::{all, by_name, Benchmark, Scale};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Profiles `bench` at small scale, synthesizes for `cores` cores with
/// a fixed seed, and returns the compiler + deployment + profile.
fn deploy(bench: &dyn Benchmark, cores: usize) -> (Compiler, Deployment, Profile) {
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(cores);
    let plan = compiler.plan("adapt", &machine, 42).expect("profile run");
    (compiler, plan.deployment, plan.profile)
}

/// The same deployment with every instance squeezed onto core 0 — a
/// deliberately terrible starting layout the controller should improve
/// on as soon as the live model warms up.
fn squeezed(deployment: &Deployment) -> Deployment {
    let mut d = deployment.clone();
    for inst in &mut d.layout.instances {
        inst.core = CoreId::new(0);
    }
    d
}

/// Serves `total` bursty arrivals (arrival seed `seed`) under stepped
/// pacing with adaptation armed, returning the report and the final
/// per-instance cores. The relayout handle's epoch, read after `stop`,
/// agrees with the report's and with the controller's last commit.
fn serve_adaptive(
    deployment: &Deployment,
    policy: AdaptPolicy,
    total: usize,
    seed: u64,
) -> (ServingReport, Vec<usize>) {
    let mut session = DeploymentHandle::from_deployment(deployment.clone())
        .with_adapt(policy)
        .serve(ServingOptions::new().with_pacing(Pacing::Stepped))
        .expect("server starts");
    // A shifting Markov-modulated mix: calm 400/s with 4000/s bursts.
    let mut arrivals = Bursty::new(400.0, 4_000.0, 0.2, seed);
    session
        .serve(&mut arrivals, total, |request| Box::new(request))
        .expect("serve");
    let live = session.relayout_handle();
    let cores = live
        .current_layout()
        .instances
        .iter()
        .map(|inst| inst.core.index())
        .collect();
    let report = session.stop().expect("stop");
    let epochs = &report.adapt.as_ref().expect("adaptation was armed").epochs;
    assert_eq!(live.layout_epoch(), report.executor.layout_epoch);
    assert_eq!(live.layout_epoch(), epochs.last().copied().unwrap_or(0));
    (report, cores)
}

/// A policy tuned for tests: warmed up fast, baseline divergence
/// reporting on.
fn test_policy(cores: usize, profile: &Profile) -> AdaptPolicy {
    AdaptPolicy::new(MachineDescription::n_cores(cores))
        .with_min_invocations(16)
        .with_baseline(profile.clone())
}

/// Determinism: same seed + stepped pacing ⇒ byte-identical controller
/// reports and final assignments across repeated runs, at more than
/// one worker-thread count — and from the squeezed layout the
/// controller actually commits at least one hot relayout with every
/// request accounted exactly.
#[test]
fn stepped_adapt_decisions_are_deterministic() {
    let total = 24;
    for cores in [2, 8] {
        let bench = by_name("kmeans").expect("registered");
        let (_compiler, deployment, profile) = deploy(bench.as_ref(), cores);
        let bad = squeezed(&deployment);
        let run = || serve_adaptive(&bad, test_policy(cores, &profile), total, 17);
        let (report_a, cores_a) = run();
        let (report_b, cores_b) = run();

        let adapt_a = report_a.adapt.clone().expect("adaptation was armed");
        let adapt_b = report_b.adapt.clone().expect("adaptation was armed");
        assert_eq!(adapt_a, adapt_b, "{cores} cores: controller diverged");
        assert_eq!(cores_a, cores_b, "{cores} cores: final layouts diverged");
        assert_eq!(
            report_a.executor.layout_epoch, report_b.executor.layout_epoch,
            "{cores} cores: epochs diverged"
        );

        // The acceptance bar: the shifting mix provokes ≥1 hot
        // relayout off the squeezed layout, and nothing is lost or
        // double-counted.
        if cores > 1 {
            assert!(
                adapt_a.relayouts >= 1,
                "{cores} cores: controller never migrated off the squeezed layout: {adapt_a:?}"
            );
            assert!(
                cores_a.iter().any(|&c| c != 0),
                "{cores} cores: assignment still all on core 0"
            );
        }
        assert_eq!(report_a.completed, total as u64, "requests lost");
        assert_eq!(report_a.admitted, total as u64);
        assert_eq!(
            report_a.completions.len(),
            total,
            "duplicate or missing completions"
        );
        let mut requests: Vec<u64> = report_a.completions.iter().map(|c| c.request).collect();
        requests.sort_unstable();
        requests.dedup();
        assert_eq!(requests.len(), total, "a completion fired twice");
        // Epochs commit in strictly increasing order.
        assert!(
            adapt_a.epochs.windows(2).all(|w| w[0] < w[1]),
            "epochs not strictly increasing: {:?}",
            adapt_a.epochs
        );
        assert_eq!(adapt_a.epochs.len() as u64, adapt_a.relayouts);
    }
}

/// Transparency: on all six apps, forcing a hot relayout mid-request —
/// every instance shifted one core to the right while the workload is
/// in flight — leaves the result checksum identical to a clean run's,
/// the epoch bumped, and the ledger empty.
#[test]
fn forced_midrun_relayout_preserves_checksums_on_all_apps() {
    for bench in all() {
        let (compiler, deployment, _profile) = deploy(bench.as_ref(), 8);
        let clean = ThreadedExecutor::default()
            .run(&deployment, RunOptions::default())
            .expect("clean run");
        let clean_sum = bench.threaded_checksum(&compiler, &clean);

        let mut run = DeploymentHandle::from_deployment(deployment.clone())
            .start()
            .expect("resident start");
        let handle = run.relayout_handle();
        run.inject(Box::new(()));
        // Rotate every instance one core to the right, mid-flight.
        let cores = deployment.core_count();
        let moves: Vec<(InstanceId, usize)> = handle
            .current_layout()
            .instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstanceId(i as u32), (inst.core.index() + 1) % cores))
            .collect();
        let epoch = handle.migrate(&moves).expect("relayout commits");
        assert_eq!(
            epoch,
            1,
            "{}: first relayout publishes epoch 1",
            bench.name()
        );
        run.drain().expect("drain");
        assert!(run.ledger_is_empty(), "{}: ledger leaked", bench.name());
        let report = run.shutdown().expect("shutdown");

        assert_eq!(report.layout_epoch, 1, "{}", bench.name());
        assert!(
            report.relayouts >= 1,
            "{}: no instances moved",
            bench.name()
        );
        assert_eq!(
            bench.threaded_checksum(&compiler, &report),
            clean_sum,
            "{}: checksum changed across a hot relayout",
            bench.name()
        );
    }
}

/// A relayout that lands between two hand-offs to the same instance
/// loses nothing. Everything starts on core 0, where `gen` hands one
/// `Item` per invocation straight to the `fold` instance beside it; the
/// `gen` body itself moves that instance to core 1 a third of the way
/// through and back at two thirds, so items handed over before a move
/// sit buffered (or in a formed invocation) on the old core while later
/// ones go to the new one. Every item must still reach the accumulator.
#[test]
fn relayout_between_handoffs_delivers_every_object() {
    const ITEMS: i64 = 300;
    let target: Arc<Mutex<Option<(RelayoutHandle, InstanceId)>>> = Arc::default();
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("handoff-relayout");
    let s = b.class("StartupObject", &["initialstate"]);
    let gen = b.class("Gen", &["go"]);
    let item = b.class("Item", &["ready"]);
    let acc = b.class("Acc", &["open"]);
    let init = b.flag(s, "initialstate");
    let go = b.flag(gen, "go");
    let ready = b.flag(item, "ready");
    let open = b.flag(acc, "open");
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .alloc(gen, &[(go, true)], &[])
        .alloc(acc, &[(open, true)], &[])
        .exit("", |e| e.set(0, init, false))
        .body(body(|ctx| {
            ctx.create(0, 0i64);
            ctx.create(1, (0i64, 0i64));
            0
        }))
        .finish();
    let relayout = target.clone();
    b.task("gen")
        .param("g", gen, FlagExpr::flag(go))
        .alloc(item, &[(ready, true)], &[])
        .exit("again", |e| e)
        .exit("done", |e| e.set(0, go, false))
        .body(body(move |ctx| {
            let next = ctx.param_mut::<i64>(0);
            *next += 1;
            let k = *next;
            ctx.create(0, k);
            if k == ITEMS / 3 || k == 2 * ITEMS / 3 {
                let to = usize::from(k == ITEMS / 3);
                let armed = relayout.lock().expect("target mutex");
                let (handle, fold_inst) = armed.as_ref().expect("armed before injection");
                handle
                    .migrate(&[(*fold_inst, to)])
                    .expect("relayout commits");
            }
            usize::from(k == ITEMS)
        }))
        .finish();
    let fold = b
        .task("fold")
        .param("a", acc, FlagExpr::flag(open))
        .param("i", item, FlagExpr::flag(ready))
        .exit("", |e| e.set(1, ready, false))
        .body(body(|ctx| {
            let k = *ctx.param::<i64>(1);
            let (sum, count) = ctx.param_mut::<(i64, i64)>(0);
            *sum += k;
            *count += 1;
            0
        }))
        .finish();
    let compiler = Compiler::from_native(b.build().expect("valid program"));
    let (graph, layout) = bootstrap_plan(&compiler.program.spec, &compiler.cstg);
    let (program, locks) = (compiler.program.clone(), compiler.locks.clone());
    let mut deployment = Deployment::new(program, graph, layout, locks);
    deployment.layout.core_count = 2;
    let fold_group = deployment.graph.group_of_task(fold).expect("grouped");
    let fold_inst = deployment.layout.instances_of(fold_group)[0];

    let mut run = ThreadedExecutor::default()
        .start(&deployment, RunOptions::default())
        .expect("resident start");
    *target.lock().expect("target mutex") = Some((run.relayout_handle(), fold_inst));
    run.inject(Box::new(()));
    run.drain().expect("drain");
    assert_eq!(run.outstanding(), 0);
    assert!(run.ledger_is_empty(), "ledger leaked");
    let report = run.shutdown().expect("shutdown");
    // The handle keeps the run's shared state alive, and the body holds
    // the handle: drop it so the run is freed.
    target.lock().expect("target mutex").take();
    assert_eq!(report.layout_epoch, 2);
    assert_eq!(report.relayouts, 2);
    assert_eq!(report.invocations, 1 + 2 * ITEMS as u64);
    assert_eq!(
        report.payloads_of::<(i64, i64)>(acc),
        [&(ITEMS * (ITEMS + 1) / 2, ITEMS)]
    );
}

/// A hot migration keeps round-robin fairness. `gen`'s one instance
/// hands one untagged `Item` per invocation to a `consume` group with a
/// copy on each of two cores, so the copies alternate. After an odd
/// number of items `gen` moves its own instance to the other core (that
/// invocation creates nothing) and carries on: its round-robin counter
/// belongs to the instance, not the core, so the alternation continues
/// where it stopped and each copy consumes exactly half of the items.
#[test]
fn migration_keeps_round_robin_continuity() {
    const ITEMS: i64 = 40;
    const BEFORE_MOVE: i64 = 7;
    let target: Arc<Mutex<Option<(RelayoutHandle, InstanceId)>>> = Arc::default();
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("round-robin-relayout");
    let s = b.class("StartupObject", &["initialstate"]);
    let gen = b.class("Gen", &["go"]);
    let item = b.class("Item", &["ready"]);
    let init = b.flag(s, "initialstate");
    let go = b.flag(gen, "go");
    let ready = b.flag(item, "ready");
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .alloc(gen, &[(go, true)], &[])
        .exit("", |e| e.set(0, init, false))
        .body(body(|ctx| {
            ctx.create(0, 0i64);
            0
        }))
        .finish();
    let relayout = target.clone();
    let gen_task = b
        .task("gen")
        .param("g", gen, FlagExpr::flag(go))
        .alloc(item, &[(ready, true)], &[])
        .exit("again", |e| e)
        .exit("done", |e| e.set(0, go, false))
        .body(body(move |ctx| {
            let calls = ctx.param_mut::<i64>(0);
            *calls += 1;
            let n = *calls;
            if n == BEFORE_MOVE + 1 {
                let armed = relayout.lock().expect("target mutex");
                let (handle, gen_inst) = armed.as_ref().expect("armed before injection");
                handle.migrate(&[(*gen_inst, 1)]).expect("relayout commits");
                return 0;
            }
            ctx.create(0, n);
            let made = if n > BEFORE_MOVE { n - 1 } else { n };
            usize::from(made == ITEMS)
        }))
        .finish();
    let consume = b
        .task("consume")
        .param("i", item, FlagExpr::flag(ready))
        .exit("", |e| e.set(0, ready, false))
        .body(body(|_| 0))
        .finish();
    let compiler = Compiler::from_native(b.build().expect("valid program"));
    let (graph, layout) = bootstrap_plan(&compiler.program.spec, &compiler.cstg);
    let (program, locks) = (compiler.program.clone(), compiler.locks.clone());
    let mut deployment = Deployment::new(program, graph, layout, locks);
    let graph = &deployment.graph;
    let consume_group = graph.group_of_task(consume).expect("grouped");
    let copies: Vec<usize> = (0..graph.groups.len())
        .map(|g| if g == consume_group.index() { 2 } else { 1 })
        .collect();
    let cores: Vec<Vec<CoreId>> = copies
        .iter()
        .map(|&n| (0..n).map(CoreId::new).collect())
        .collect();
    deployment.layout = Layout::new(graph, &Replication { copies }, 2, &cores);
    let gen_group = graph.group_of_task(gen_task).expect("grouped");
    let gen_inst = deployment.layout.instances_of(gen_group)[0];
    let replicas = deployment.layout.instances_of(consume_group).to_vec();

    let telemetry = Telemetry::enabled(2);
    let options = RunOptions::default().with_telemetry(telemetry.clone());
    let mut run = ThreadedExecutor::default()
        .start(&deployment, options)
        .expect("resident start");
    *target.lock().expect("target mutex") = Some((run.relayout_handle(), gen_inst));
    run.inject(Box::new(()));
    run.drain().expect("drain");
    let report = run.shutdown().expect("shutdown");
    target.lock().expect("target mutex").take();
    assert_eq!(report.relayouts, 1);
    assert_eq!(report.invocations, 1 + (ITEMS as u64 + 1) + ITEMS as u64);
    // Which copy consumed each item: the instance of every `consume`
    // invocation's start event, whichever core ran it.
    let events = telemetry.report().events;
    for replica in replicas {
        let consumed = events
            .iter()
            .filter(|e| {
                e.kind == EventKind::TaskStart
                    && e.a == consume.index() as u64
                    && e.b == u64::from(replica.0)
            })
            .count();
        assert_eq!(consumed as i64, ITEMS / 2, "{replica} consumed {consumed}");
    }
}

/// A relayout rejected up front (dead/unknown target) mutates nothing:
/// the epoch stays, and the typed error surfaces through
/// `bamboo::Error` with a source chain.
#[test]
fn rejected_relayout_is_typed_and_mutates_nothing() {
    let bench = by_name("filterbank").expect("registered");
    let (_compiler, deployment, _profile) = deploy(bench.as_ref(), 4);
    let mut run = DeploymentHandle::from_deployment(deployment)
        .start()
        .expect("resident start");
    let handle = run.relayout_handle();
    let err = handle
        .migrate(&[(InstanceId(0), 99)])
        .expect_err("out-of-range core must be rejected");
    assert_eq!(err, RelayoutError::UnknownCore { core: 99 });
    assert_eq!(handle.layout_epoch(), 0, "failed commit bumped the epoch");
    let unified: Error = err.into();
    assert!(matches!(unified, Error::RelayoutFailed(_)));
    assert!(
        std::error::Error::source(&unified).is_some(),
        "RelayoutFailed must chain to the runtime error"
    );
    run.inject(Box::new(()));
    run.drain().expect("run unaffected by the rejected commit");
    run.shutdown().expect("shutdown");
}

/// Hysteresis: under the same alternating bursty mix, (a) an
/// unreachable improvement threshold commits zero relayouts, and (b) a
/// one-per-hour budget bounds churn to a single commit no matter how
/// often the controller decides.
#[test]
fn hysteresis_prevents_flapping_under_alternating_mix() {
    let bench = by_name("kmeans").expect("registered");
    let (_compiler, deployment, profile) = deploy(bench.as_ref(), 8);
    let bad = squeezed(&deployment);
    let total = 24;

    // (a) Unreachable threshold: the controller decides but never acts.
    let frozen_policy = test_policy(8, &profile).with_min_improvement(f64::INFINITY);
    let (report, cores) = serve_adaptive(&bad, frozen_policy, total, 17);
    let adapt = report.adapt.expect("adaptation armed");
    assert!(adapt.decisions >= 1, "controller never warmed up");
    assert_eq!(adapt.relayouts, 0, "infinite hysteresis still migrated");
    assert_eq!(report.executor.layout_epoch, 0);
    assert!(
        cores.iter().all(|&c| c == 0),
        "layout moved without a commit"
    );
    assert_eq!(report.completed, total as u64);

    // (b) Tight budget: one relayout per (hour-long) window, so the
    // alternating mix cannot bounce instances back and forth.
    let budgeted_policy = test_policy(8, &profile).with_budget(1, Duration::from_secs(3600));
    let (report, _cores) = serve_adaptive(&bad, budgeted_policy, total, 17);
    let adapt = report.adapt.expect("adaptation armed");
    assert!(
        adapt.relayouts <= 1,
        "budget of 1/window exceeded: {adapt:?}"
    );
    assert!(
        adapt.decisions > adapt.relayouts,
        "every decision committed — the budget gate never engaged: {adapt:?}"
    );
    assert_eq!(report.completed, total as u64);
}

/// Post-relayout divergence may exceed the pre-relayout one by this
/// factor: migrating must never make the model fit worse, but the two
/// snapshots are estimated from different sample counts.
const DIVERGENCE_SLACK: f64 = 1.10;

/// The armed estimator feeds divergence reporting, and adapting off the
/// squeezed layout does not make the model fit worse. On four apps, 32
/// bursty arrivals each on 8 cores: the report carries a pre-relayout
/// divergence, at least one relayout commits, every admitted request
/// completes, and the post-relayout divergence stays within
/// [`DIVERGENCE_SLACK`] of the pre-relayout one.
#[test]
fn divergence_is_reported_against_the_baseline() {
    let total = 32;
    for name in ["filterbank", "kmeans", "montecarlo", "series"] {
        let bench = by_name(name).expect("registered");
        let (_compiler, deployment, profile) = deploy(bench.as_ref(), 8);
        let bad = squeezed(&deployment);
        let (report, _) = serve_adaptive(&bad, test_policy(8, &profile), total, 42);
        let adapt = report.adapt.expect("adaptation armed");
        assert!(adapt.relayouts >= 1, "{name}: no relayout: {adapt:?}");
        assert_eq!(report.admitted, total as u64, "{name}");
        assert_eq!(report.completed, report.admitted, "{name}");
        let pre = adapt
            .pre_divergence
            .expect("baseline attached ⇒ pre-divergence measured");
        assert!(
            pre.is_finite() && pre >= 0.0,
            "{name}: divergence {pre} out of range"
        );
        let post = adapt
            .post_divergence
            .expect("relayout committed ⇒ post-divergence measured");
        assert!(
            post.is_finite() && post <= pre * DIVERGENCE_SLACK,
            "{name}: divergence {pre} -> {post}"
        );
    }
}
