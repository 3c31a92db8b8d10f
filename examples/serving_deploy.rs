//! A resident deployment under open-loop traffic: build a native
//! fan-out/reduce program, synthesize a layout for eight cores, keep
//! the deployment resident through the [`DeploymentHandle`] lifecycle,
//! and feed it bursty arrivals — each arrival becomes an independent
//! *request* whose completion the request ledger detects exactly (no
//! global quiescence). The adaptive re-layout loop is armed: the run
//! re-estimates its Markov model live and hot-migrates groups when the
//! DSA finds a better layout. Prints the admit→complete latency
//! distribution, the layout epoch served last, and the `serving.*`
//! view reconstructed from the telemetry rings.
//!
//! Run with: `cargo run --example serving_deploy`

use bamboo::prelude::*;
use bamboo::telemetry::analyze::ObservedGraph;

/// Squares `n` numbers per request and reduces them to a sum.
fn build_program(n: i64) -> Compiler {
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("serving-deploy");
    let s = b.class("StartupObject", &["initialstate"]);
    let w = b.class("Work", &["ready", "done"]);
    let acc = b.class("Acc", &["open", "closed"]);
    let init = b.flag(s, "initialstate");
    let ready = b.flag(w, "ready");
    let done = b.flag(w, "done");
    let open = b.flag(acc, "open");
    let closed = b.flag(acc, "closed");
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .alloc(w, &[(ready, true)], &[])
        .alloc(acc, &[(open, true)], &[])
        .exit("", |e| e.set(0, init, false))
        .body(body(move |ctx| {
            for i in 0..n {
                ctx.create(0, i);
            }
            ctx.create(1, (0i64, 0i64, n));
            ctx.charge(50);
            0
        }))
        .finish();
    b.task("work")
        .param("w", w, FlagExpr::flag(ready))
        .exit("", |e| e.set(0, ready, false).set(0, done, true))
        .body(body(|ctx| {
            let v = ctx.param_mut::<i64>(0);
            *v *= *v;
            ctx.charge(500);
            0
        }))
        .finish();
    b.task("reduce")
        .param("a", acc, FlagExpr::flag(open))
        .param("w", w, FlagExpr::flag(done))
        .exit("more", |e| e.set(1, done, false))
        .exit("finish", |e| {
            e.set(0, open, false)
                .set(0, closed, true)
                .set(1, done, false)
        })
        .body(body(|ctx| {
            let w = *ctx.param::<i64>(1);
            let a = ctx.param_mut::<(i64, i64, i64)>(0);
            a.0 += w;
            a.1 += 1;
            let finished = a.1 == a.2;
            ctx.charge(30);
            if finished {
                1
            } else {
                0
            }
        }))
        .finish();
    Compiler::from_native(b.build().expect("valid program"))
}

fn main() -> Result<(), Error> {
    let compiler = build_program(16);

    // Profile on one core, synthesize for eight, bundle the artifact.
    let machine = MachineDescription::n_cores(8);
    let plan = compiler.plan("serving-demo", &machine, 11)?;
    let handle = DeploymentHandle::from_deployment(plan.deployment);
    println!(
        "deployment: layout@epoch0 ({} instances) over {} cores, kept resident",
        handle.deployment().layout.instances.len(),
        handle.deployment().core_count()
    );

    // Workers plus the driver's pseudo-core, so the serving events land
    // in the same rings as the executor's.
    let telemetry = Telemetry::enabled(handle.deployment().core_count() + 1);

    // A Markov-modulated arrival process: calm stretches around 300
    // req/s punctuated by 3000 req/s bursts.
    let mut arrivals = Bursty::new(300.0, 3_000.0, 0.15, 7);
    let total = 48;

    let mut session = handle
        .with_telemetry(telemetry.clone())
        // Arm the doctor→DSA loop: re-estimate the model from live
        // telemetry and hot-migrate groups when a better layout clears
        // the hysteresis threshold.
        .with_adapt(AdaptPolicy::new(machine.clone()))
        .serve(ServingOptions::new())?;
    session.serve(&mut arrivals, total, |request| Box::new(request))?;
    // The live layout and its epoch: bumped by every hot relayout the
    // controller committed, still readable after the session stops.
    let live = session.relayout_handle();
    let report = session.stop()?;
    let layout = live.current_layout();
    println!(
        "layout:   served last on layout@epoch{} ({} instances on {} cores)",
        live.layout_epoch(),
        layout.instances.len(),
        layout.cores_used()
    );
    assert_eq!(live.layout_epoch(), report.executor.layout_epoch);

    println!("served:   {}", report.latency_summary());
    let latency = report.latency();
    println!(
        "latency:  p50 {}µs  p99 {}µs  p999 {}µs  max {}µs",
        latency.p50(),
        latency.p99(),
        latency.p999(),
        latency.max(),
    );
    let first = report.completions.first().expect("at least one request");
    println!(
        "ledger:   {} completions, {} invocations each (request {} tallied {})",
        report.completions.len(),
        first.invocations,
        first.request,
        first.invocations,
    );
    assert_eq!(report.completed, total as u64);
    assert_eq!(report.shed, 0);
    assert_eq!(report.executor.router_shed, 0);

    // The same story, reconstructed purely from the recorded
    // `serving.*` events (ring timestamps are nanoseconds).
    let graph = ObservedGraph::from_report(&telemetry.report());
    let rows = &graph.requests;
    println!(
        "rings:    {} arrivals, {} admitted, {} shed, {} completed, p99 {}µs",
        rows.iter().filter(|r| r.arrived.is_some()).count(),
        rows.iter().filter(|r| r.admitted.is_some()).count(),
        rows.iter().filter(|r| r.shed).count(),
        rows.iter().filter(|r| r.completed.is_some()).count(),
        graph.latency().p99() / 1_000,
    );
    Ok(())
}
