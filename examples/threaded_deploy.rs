//! The deployment lifecycle API on real threads: build a native
//! fan-out/reduce program, profile + synthesize a layout, bundle it
//! into a [`DeploymentHandle`], and run the *same artifact* on the
//! virtual-time executor and on the threaded executor (with work
//! stealing and telemetry) — then hand the recorded telemetry to the
//! `bamboo-doctor` analyzer for a causal diagnosis of the observed
//! run.
//!
//! Run with: `cargo run --example threaded_deploy`

use bamboo::prelude::*;
use bamboo::schedule::sim::kernel::PAYLOAD_WORDS;

fn build_program(n: i64) -> Compiler {
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("threaded-deploy");
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
            ctx.charge(2_000);
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
            ctx.charge(80);
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
    let n = 64i64;
    let compiler = build_program(n);

    // Profile on one core, synthesize for eight, deploy.
    let machine = MachineDescription::n_cores(8);
    let plan = compiler.plan("deploy-demo", &machine, 11)?;
    let single = plan.single;

    // One lifecycle handle; the virtual executor predicts over the same
    // deployment artifact before the threaded run consumes it.
    let handle = DeploymentHandle::from_deployment(plan.deployment);
    println!(
        "deployment: layout@epoch0 ({} instances) over {} cores",
        handle.deployment().layout.instances.len(),
        handle.deployment().core_count()
    );

    let mut virt = VirtualExecutor::over(handle.deployment(), &machine, ExecConfig::default());
    let predicted = virt.run(None)?;
    println!(
        "virtual:  {} invocations, {} cycles ({:.2}x over 1 core)",
        predicted.invocations,
        predicted.makespan,
        single.makespan as f64 / predicted.makespan as f64
    );

    let telemetry = Telemetry::enabled(handle.deployment().core_count());
    let deployment = handle.deployment().clone();
    let observed = handle.with_telemetry(telemetry.clone()).run()?;
    println!(
        "threaded: {} invocations in {:?} ({} stolen, {} lock retries, ended at epoch {})",
        observed.invocations,
        observed.wall,
        observed.steals,
        observed.lock_retries,
        observed.layout_epoch
    );

    // Fallible result extraction through the unified error type.
    let acc_class = compiler
        .program
        .spec
        .class_by_name("Acc")
        .expect("declared above");
    let accs = observed.try_payloads_of::<(i64, i64, i64)>(acc_class)?;
    let expected: i64 = (0..n).map(|i| i * i).sum();
    println!("sum of squares 0..{n}: {} (expected {expected})", accs[0].0);
    assert_eq!(accs[0].0, expected);

    let report = telemetry.report();
    println!(
        "telemetry: {} dispatches, {} objects sent",
        report.metrics.counters["threaded.dispatches"],
        report.metrics.counters["threaded.bytes_sent"] / (PAYLOAD_WORDS * 8)
    );

    // Doctor pass: reconstruct the causal graph from the recorded
    // events, break each core's wall time down, attribute the observed
    // critical path, and rank findings against the virtual executor's
    // prediction of the same deployment.
    let mut virt = VirtualExecutor::over(
        &deployment,
        &machine,
        ExecConfig {
            collect_trace: true,
            ..ExecConfig::default()
        },
    );
    let trace = virt.run(None)?.trace.expect("trace requested");
    let diagnosis = bamboo::telemetry::analyze::diagnose(&report, Some(&trace));
    println!("\n{}", diagnosis.summary(Some(&compiler.program.spec)));
    Ok(())
}
