//! Integration tests: the full pipeline across crates — DSL frontend,
//! analyses, synthesis, and all three executors must agree.

use bamboo::schedule::bootstrap_plan;
use bamboo::FlagExpr;
use bamboo::{
    body, Compiler, Deployment, ExecConfig, MachineDescription, NativeBody, ProgramBuilder,
    RunOptions, SynthesisOptions, ThreadedExecutor, VirtualExecutor,
};
use rand::SeedableRng;

const PIPELINE_SRC: &str = r#"
    class StartupObject { flag initialstate; }
    class Job {
        flag raw; flag cooked; flag plated;
        int value;
        Job(int v) { this.value = v; }
    }
    class Counter {
        flag open; flag closed;
        int sum; int seen; int expected;
        Counter(int expected) { this.expected = expected; }
        boolean take(Job j) {
            this.sum = this.sum + j.value;
            this.seen = this.seen + 1;
            return this.seen == this.expected;
        }
    }
    task startup(StartupObject s in initialstate) {
        for (int i = 0; i < 12; i = i + 1) {
            Job j = new Job(i + 1){ raw := true };
        }
        Counter c = new Counter(12){ open := true };
        taskexit(s: initialstate := false);
    }
    task cook(Job j in raw) {
        j.value = j.value * j.value;
        taskexit(j: raw := false, cooked := true);
    }
    task plate(Job j in cooked) {
        j.value = j.value + 1000;
        taskexit(j: cooked := false, plated := true);
    }
    task tally(Counter c in open, Job j in plated) {
        boolean full = c.take(j);
        if (full) { taskexit(c: open := false, closed := true; j: plated := false); }
        taskexit(j: plated := false);
    }
"#;

/// Sum of (i+1)^2 + 1000 for i in 0..12.
const EXPECTED_SUM: i64 = 650 + 12 * 1000;

fn counter_sum(compiler: &Compiler, exec: &bamboo::VirtualExecutor<'_>) -> String {
    let class = compiler
        .program
        .spec
        .class_by_name("Counter")
        .expect("class exists");
    let obj = exec.store.live_of_class(class)[0];
    let r = match exec.store.get(obj).payload {
        bamboo::runtime::PayloadSlot::Interp(r) => r,
        _ => unreachable!(),
    };
    format!("{}", exec.interp_heap().expect("interpreted").field(r, 0))
}

#[test]
fn dsl_pipeline_agrees_across_core_counts() {
    let compiler = Compiler::from_source("pipeline", PIPELINE_SRC).expect("compiles");
    let (profile, single, sum1) = compiler
        .profile_run(None, "t", |e| counter_sum(&compiler, e))
        .expect("runs");
    assert_eq!(sum1, EXPECTED_SUM.to_string());

    for cores in [2usize, 5, 13] {
        let machine = MachineDescription::n_cores(cores);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cores as u64);
        let plan = compiler.synthesize(&profile, &machine, &SynthesisOptions::default(), &mut rng);
        let deployment = compiler.deploy(&plan);
        let mut exec = VirtualExecutor::over(&deployment, &machine, ExecConfig::default());
        let report = exec.run(None).expect("runs");
        assert!(report.quiesced);
        assert_eq!(counter_sum(&compiler, &exec), EXPECTED_SUM.to_string());
        if cores > 1 {
            assert!(
                report.makespan < single.makespan,
                "no speedup on {cores} cores"
            );
        }
    }
}

fn native_squares(n: i64) -> Compiler {
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("squares");
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
            ctx.charge(10);
            0
        }))
        .finish();
    b.task("square")
        .param("w", w, FlagExpr::flag(ready))
        .exit("", |e| e.set(0, ready, false).set(0, done, true))
        .body(body(|ctx| {
            let v = ctx.param_mut::<i64>(0);
            *v *= *v;
            ctx.charge(500);
            0
        }))
        .finish();
    b.task("fold")
        .param("a", acc, FlagExpr::flag(open))
        .param("w", w, FlagExpr::flag(done))
        .exit("more", |e| e.set(1, done, false))
        .exit("done", |e| {
            e.set(0, open, false)
                .set(0, closed, true)
                .set(1, done, false)
        })
        .body(body(|ctx| {
            let w = *ctx.param::<i64>(1);
            let a = ctx.param_mut::<(i64, i64, i64)>(0);
            a.0 += w;
            a.1 += 1;
            let fin = a.1 == a.2;
            ctx.charge(50);
            if fin {
                1
            } else {
                0
            }
        }))
        .finish();
    Compiler::from_native(b.build().expect("valid program"))
}

#[test]
fn virtual_and_threaded_executors_agree() {
    let n = 20i64;
    let expected: i64 = (0..n).map(|i| i * i).sum();
    let compiler = native_squares(n);
    let (profile, _, virt_sum) = compiler
        .profile_run(None, "t", |exec| {
            let acc = compiler.program.spec.class_by_name("Acc").expect("exists");
            let obj = exec.store.live_of_class(acc)[0];
            exec.payload::<(i64, i64, i64)>(obj).0
        })
        .expect("virtual run");
    assert_eq!(virt_sum, expected);

    // Synthesize a 6-core layout and run it with real threads.
    let machine = MachineDescription::n_cores(6);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let plan = compiler.synthesize(&profile, &machine, &SynthesisOptions::default(), &mut rng);
    let deployment = compiler.deploy(&plan);
    let report = ThreadedExecutor::default()
        .run(&deployment, RunOptions::default())
        .expect("threaded run");
    assert_eq!(report.invocations, 1 + 2 * n as u64);
    let acc = compiler.program.spec.class_by_name("Acc").expect("exists");
    let sums = report.payloads_of::<(i64, i64, i64)>(acc);
    assert_eq!(sums.len(), 1);
    assert_eq!(sums[0].0, expected);
}

/// A `Deployment` built from a `SynthesisResult` carries exactly the
/// synthesized plan, and both executors consume the same artifact with
/// matching results.
#[test]
fn deployment_round_trips_the_synthesis_result() {
    let n = 12i64;
    let expected: i64 = (0..n).map(|i| i * i).sum();
    let compiler = native_squares(n);
    let (profile, _, ()) = compiler.profile_run(None, "t", |_| ()).expect("profiles");
    let machine = MachineDescription::n_cores(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let plan = compiler.synthesize(&profile, &machine, &SynthesisOptions::default(), &mut rng);

    // Round trip: the deployment embeds the synthesized graph + layout.
    let deployment = Deployment::from_synthesis(&compiler.program, &compiler.locks, &plan);
    assert_eq!(deployment.core_count(), plan.layout.core_count);
    assert_eq!(
        deployment.layout.instances.len(),
        plan.layout.instances.len()
    );
    assert_eq!(deployment.graph.groups.len(), plan.graph.groups.len());
    // Compiler::deploy is the same construction.
    assert_eq!(
        compiler.deploy(&plan).layout.instances.len(),
        plan.layout.instances.len()
    );

    // The same artifact feeds both executors.
    let mut virt = VirtualExecutor::over(&deployment, &machine, ExecConfig::default());
    let vreport = virt.run(None).expect("virtual run");
    assert!(vreport.quiesced);
    let acc = compiler.program.spec.class_by_name("Acc").expect("exists");
    let vsum = virt
        .payload::<(i64, i64, i64)>(virt.store.live_of_class(acc)[0])
        .0;
    assert_eq!(vsum, expected);

    let treport = ThreadedExecutor::default()
        .run(&deployment, RunOptions::default())
        .expect("threaded run");
    assert_eq!(treport.invocations, vreport.invocations);
    assert_eq!(treport.payloads_of::<(i64, i64, i64)>(acc)[0].0, expected);
}

#[test]
fn single_core_layout_runs_any_program() {
    let compiler = native_squares(5);
    let (graph, layout) = bootstrap_plan(&compiler.program.spec, &compiler.cstg);
    let machine = MachineDescription::n_cores(1);
    let (program, locks) = (&compiler.program, &compiler.locks);
    let config = ExecConfig::default();
    let mut exec = VirtualExecutor::new(program, &graph, &layout, &machine, locks, config);
    let report = exec.run(None).expect("runs");
    assert!(report.quiesced);
    assert_eq!(report.invocations, 11);
}

#[test]
fn reference_driver_and_runtime_agree_on_dsl_program() {
    let compiled = bamboo::lang::compile_source("pipeline", PIPELINE_SRC).expect("compiles");
    // Reference semantics.
    let mut driver = bamboo::lang::interp::ReferenceDriver::new(&compiled);
    let ref_report = driver.run(10_000).expect("reference run");
    assert!(ref_report.quiesced);
    // Runtime semantics.
    let compiler = Compiler::from_source("pipeline", PIPELINE_SRC).expect("compiles");
    let (_, report, ()) = compiler.profile_run(None, "t", |_| ()).expect("runs");
    assert_eq!(report.invocations as usize, ref_report.invocations.len());
}

/// Tag-hash routing (§4.3.4): a two-parameter task whose parameters share
/// a tag may be replicated; same-tagged objects must then be routed to the
/// same replica so pairs always meet. A generator task mints one fresh tag
/// per pair (`new tag` per invocation, as the paper's library idiom does),
/// and the join asserts it always received a matching pair — across
/// synthesized multi-core layouts.
#[test]
fn tagged_pairs_meet_across_replicated_instances() {
    let pairs = 24;
    let src = format!(
        r#"
        class StartupObject {{ flag initialstate; }}
        class Gen {{ flag go; int next; int total; Gen(int total) {{ this.total = total; }} }}
        class Left {{ flag ready; flag joined; int id; Left(int id) {{ this.id = id; }} }}
        class Right {{ flag ready; int id; int partner; Right(int id) {{ this.id = id; this.partner = 0 - 1; }} }}
        tagtype link;
        task startup(StartupObject s in initialstate) {{
            Gen g = new Gen({pairs}){{ go := true }};
            taskexit(s: initialstate := false);
        }}
        task generate(Gen g in go) {{
            tag t = new tag(link);
            Left l = new Left(g.next){{ ready := true, add t }};
            Right r = new Right(g.next){{ ready := true, add t }};
            g.next = g.next + 1;
            if (g.next == g.total) {{ taskexit(g: go := false); }}
            taskexit(g: go := true);
        }}
        task join(Left l in ready with link t, Right r in ready with link t) {{
            r.partner = l.id;
            taskexit(l: ready := false, joined := true, clear t; r: ready := false, clear t);
        }}
        "#
    );
    let compiler = Compiler::from_source("tagged", &src).expect("compiles");
    let join = compiler
        .program
        .spec
        .task_by_name("join")
        .expect("declared");
    assert!(compiler.program.spec.task(join).all_params_share_tag());

    let check = |exec: &bamboo::VirtualExecutor<'_>| {
        let right = compiler
            .program
            .spec
            .class_by_name("Right")
            .expect("declared");
        let heap = exec.interp_heap().expect("interpreted");
        let mut joined = 0;
        for obj in exec.store.live_of_class(right) {
            let r = match exec.store.get(obj).payload {
                bamboo::runtime::PayloadSlot::Interp(r) => r,
                _ => unreachable!(),
            };
            let id = format!("{}", heap.field(r, 0));
            let partner = format!("{}", heap.field(r, 1));
            assert_eq!(id, partner, "right {id} joined with left {partner}");
            joined += 1;
        }
        joined
    };

    // Single core.
    let (profile, _, joined) = compiler.profile_run(None, "t", check).expect("runs");
    assert_eq!(joined, pairs);

    // Synthesized multi-core layouts (the join group may be replicated;
    // tag-hash routing must keep pairs together).
    for cores in [3usize, 8] {
        let machine = MachineDescription::n_cores(cores);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cores as u64);
        let plan = compiler.synthesize(&profile, &machine, &SynthesisOptions::default(), &mut rng);
        let deployment = compiler.deploy(&plan);
        let mut exec = VirtualExecutor::over(&deployment, &machine, ExecConfig::default());
        let report = exec.run(None).expect("runs");
        assert!(report.quiesced);
        assert_eq!(check(&exec), pairs, "pairs lost on {cores} cores");
    }
}

/// The interpreter's float arithmetic is ordinary f64: a Fourier
/// coefficient computed by the DSL must be bit-identical to the native
/// Rust kernel computing the same sum.
#[test]
fn dsl_float_math_matches_native_bit_for_bit() {
    let points = 64;
    let src = format!(
        r#"
        class StartupObject {{ flag initialstate; }}
        class Out {{
            flag done;
            float a1;
            Out() {{}}
            void compute() {{
                int points = {points};
                float pi = 3.141592653589793;
                float dx = 2.0 / itof(points);
                float ak = 0.0;
                for (int i = 0; i <= points; i = i + 1) {{
                    float x = itof(i) * dx;
                    float w = 1.0;
                    if (i == 0) {{ w = 0.5; }}
                    if (i == points) {{ w = 0.5; }}
                    float f = pow(x + 1.0, x);
                    float phase = pi * 1.0 * x;
                    ak = ak + w * f * cos(phase) * dx;
                }}
                this.a1 = ak / 2.0;
            }}
        }}
        task startup(StartupObject s in initialstate) {{
            Out o = new Out(){{ done := true }};
            o.compute();
            taskexit(s: initialstate := false);
        }}
        task sink(Out o in done) {{ taskexit(o: done := false); }}
        "#
    );
    let compiler = Compiler::from_source("parity", &src).expect("compiles");
    let (_, _, dsl_a1) = compiler
        .profile_run(None, "t", |exec| {
            let out = compiler
                .program
                .spec
                .class_by_name("Out")
                .expect("declared");
            let obj = exec.store.live_of_class(out)[0];
            let r = match exec.store.get(obj).payload {
                bamboo::runtime::PayloadSlot::Interp(r) => r,
                _ => unreachable!(),
            };
            match exec.interp_heap().expect("interp").field(r, 0) {
                bamboo::lang::interp::Value::Float(v) => *v,
                other => panic!("unexpected {other:?}"),
            }
        })
        .expect("runs");
    let native = bamboo_apps::series::fourier_coefficients(1, 1, points)[0].0;
    assert_eq!(
        dsl_a1.to_bits(),
        native.to_bits(),
        "dsl {dsl_a1} vs native {native}"
    );
}

/// SCC tree preprocessing end-to-end: two producer tasks feed the same
/// consumer class, so the preprocessing duplicates the consumer group
/// (one copy per work source, §4.3.2). Execution must route each
/// producer's objects to its own copy and still total correctly.
#[test]
fn diamond_producers_duplicate_the_consumer_group() {
    let src = r#"
        class StartupObject { flag initialstate; }
        class AWork { flag ready; int v; AWork(int v) { this.v = v; } }
        class BWork { flag ready; int v; BWork(int v) { this.v = v; } }
        class CItem { flag ready; flag done; int v; CItem(int v) { this.v = v; } }
        class Total {
            flag open; flag closed;
            int sum; int seen; int expected;
            Total(int expected) { this.expected = expected; }
        }
        task startup(StartupObject s in initialstate) {
            for (int i = 0; i < 5; i = i + 1) {
                AWork a = new AWork(i){ ready := true };
                BWork b = new BWork(i * 10){ ready := true };
            }
            Total t = new Total(10){ open := true };
            taskexit(s: initialstate := false);
        }
        task produceFromA(AWork a in ready) {
            CItem c = new CItem(a.v + 1){ ready := true };
            taskexit(a: ready := false);
        }
        task produceFromB(BWork b in ready) {
            CItem c = new CItem(b.v + 2){ ready := true };
            taskexit(b: ready := false);
        }
        task consume(CItem c in ready) {
            c.v = c.v * 3;
            taskexit(c: ready := false, done := true);
        }
        task total(Total t in open, CItem c in done) {
            t.sum = t.sum + c.v;
            t.seen = t.seen + 1;
            if (t.seen == t.expected) { taskexit(t: open := false, closed := true; c: done := false); }
            taskexit(c: done := false);
        }
    "#;
    // Expected: A side contributes 3*(i+1) for i in 0..5 = 3*15 = 45;
    // B side contributes 3*(10i+2) = 3*(0+10+20+30+40 + 5*2) = 330.
    let expected = 45 + 330;
    let compiler = Compiler::from_source("diamond", src).expect("compiles");
    let (profile, _, sum1) = compiler
        .profile_run(None, "t", |e| {
            let class = compiler
                .program
                .spec
                .class_by_name("Total")
                .expect("declared");
            let obj = e.store.live_of_class(class)[0];
            let r = match e.store.get(obj).payload {
                bamboo::runtime::PayloadSlot::Interp(r) => r,
                _ => unreachable!(),
            };
            format!("{}", e.interp_heap().expect("interp").field(r, 0))
        })
        .expect("runs");
    assert_eq!(sum1, expected.to_string());

    // The preprocessed graph duplicated the CItem group per source.
    let graph = bamboo::schedule::scc_tree_transform(&compiler.graph_with_profile(&profile));
    let citem = compiler
        .program
        .spec
        .class_by_name("CItem")
        .expect("declared");
    let consume = compiler
        .program
        .spec
        .task_by_name("consume")
        .expect("declared");
    let copies = graph
        .groups
        .iter()
        .filter(|g| g.classes.contains(&citem) && g.has_task(consume))
        .count();
    assert_eq!(copies, 2, "consumer group duplicated once per producer");

    // And a synthesized multi-core run still totals correctly.
    let machine = MachineDescription::n_cores(6);
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let plan = compiler.synthesize(&profile, &machine, &SynthesisOptions::default(), &mut rng);
    let deployment = compiler.deploy(&plan);
    let mut exec = VirtualExecutor::over(&deployment, &machine, ExecConfig::default());
    let report = exec.run(None).expect("runs");
    assert!(report.quiesced);
    let class = compiler
        .program
        .spec
        .class_by_name("Total")
        .expect("declared");
    let obj = exec.store.live_of_class(class)[0];
    let r = match exec.store.get(obj).payload {
        bamboo::runtime::PayloadSlot::Interp(r) => r,
        _ => unreachable!(),
    };
    let sum = format!("{}", exec.interp_heap().expect("interp").field(r, 0));
    assert_eq!(sum, expected.to_string());
}

/// Transactional capture: an object whose state satisfies several task
/// guards sits in several parameter sets; it must still be consumed by
/// exactly one invocation (reservation = the virtual-time analog of
/// holding its lock).
#[test]
fn overlapping_guards_consume_each_object_once() {
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("overlap");
    let s = b.class("StartupObject", &["initialstate"]);
    let w = b.class("W", &["hot"]);
    let init = b.flag(s, "initialstate");
    let hot = b.flag(w, "hot");
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .alloc(w, &[(hot, true)], &[])
        .exit("", |e| e.set(0, init, false))
        .body(body(|ctx| {
            for i in 0..10i64 {
                ctx.create(0, i);
            }
            ctx.charge(5);
            0
        }))
        .finish();
    for name in ["eatA", "eatB"] {
        b.task(name)
            .param("w", w, FlagExpr::flag(hot))
            .exit("", |e| e.set(0, hot, false))
            .body(body(|ctx| {
                ctx.charge(100);
                0
            }))
            .finish();
    }
    let compiler = Compiler::from_native(b.build().expect("valid"));
    let (_, report, ()) = compiler.profile_run(None, "t", |_| ()).expect("runs");
    assert_eq!(report.invocations, 11, "each object consumed exactly once");
}

/// A Mandelbrot row computed in the DSL must reproduce the native
/// kernel's escape-iteration counts exactly (integer loop + f64
/// comparisons under the interpreter).
#[test]
fn dsl_mandelbrot_matches_native_kernel() {
    let (width, height, max_iter) = (24usize, 8usize, 50u32);
    let y = 3usize; // the row both sides compute
    let src = format!(
        r#"
        class StartupObject {{ flag initialstate; }}
        class Row {{
            flag done;
            int[] counts;
            Row() {{ this.counts = new int[{width}]; }}
            void render() {{
                int width = {width};
                int height = {height};
                int maxIter = {max_iter};
                float ci = 0.0 - 1.0 + 2.0 * itof({y}) / itof(height);
                for (int x = 0; x < width; x = x + 1) {{
                    float cr = 0.0 - 2.5 + 3.5 * itof(x) / itof(width);
                    float zr = 0.0;
                    float zi = 0.0;
                    int iter = 0;
                    boolean go = true;
                    while (go) {{
                        if (iter >= maxIter) {{ go = false; }}
                        else {{
                            if (zr * zr + zi * zi > 4.0) {{ go = false; }}
                            else {{
                                float nzr = zr * zr - zi * zi + cr;
                                zi = 2.0 * zr * zi + ci;
                                zr = nzr;
                                iter = iter + 1;
                            }}
                        }}
                    }}
                    this.counts[x] = iter;
                }}
            }}
        }}
        task startup(StartupObject s in initialstate) {{
            Row r = new Row(){{ done := true }};
            r.render();
            taskexit(s: initialstate := false);
        }}
        task sink(Row r in done) {{ taskexit(r: done := false); }}
        "#
    );
    let compiler = Compiler::from_source("mandel", &src).expect("compiles");
    let (_, _, dsl_counts) = compiler
        .profile_run(None, "t", |exec| {
            let row = compiler
                .program
                .spec
                .class_by_name("Row")
                .expect("declared");
            let obj = exec.store.live_of_class(row)[0];
            let r = match exec.store.get(obj).payload {
                bamboo::runtime::PayloadSlot::Interp(r) => r,
                _ => unreachable!(),
            };
            let heap = exec.interp_heap().expect("interp");
            let arr = match heap.field(r, 0) {
                bamboo::lang::interp::Value::Ref(a) => *a,
                other => panic!("unexpected {other:?}"),
            };
            heap.array(arr)
                .iter()
                .map(|v| match v {
                    bamboo::lang::interp::Value::Int(i) => *i as u32,
                    other => panic!("unexpected {other:?}"),
                })
                .collect::<Vec<u32>>()
        })
        .expect("runs");
    let params = bamboo_apps::fractal::Params {
        width,
        height,
        bands: height, // one row per band
        max_iter,
    };
    let (native_counts, _) = bamboo_apps::fractal::render_band(&params, y, 1);
    assert_eq!(dsl_counts, native_counts);
}

/// Virtual-time execution is deterministic: profiling runs record equal
/// profiles, and two runs of the same layout produce identical traces,
/// invocation for invocation.
#[test]
fn virtual_execution_is_deterministic() {
    use bamboo_apps::Benchmark as _;
    let bench = bamboo_apps::montecarlo::MonteCarlo;
    let compiler = bench.compiler(bamboo_apps::Scale::Small);
    let machine = MachineDescription::n_cores(5);
    let plan = compiler.plan("t", &machine, 9).expect("plans");
    // The startup invocation allocates at several sites; its record must
    // list them in one order on every run.
    for _ in 0..8 {
        let (again, _, ()) = compiler.profile_run(None, "t", |_| ()).expect("profiles");
        assert_eq!(again, plan.profile, "profiling runs disagree");
    }
    let run = || {
        let config = ExecConfig {
            collect_trace: true,
            ..ExecConfig::default()
        };
        let mut exec = VirtualExecutor::over(&plan.deployment, &machine, config);
        exec.run(None).expect("runs").trace.expect("trace")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.tasks.len(), b.tasks.len());
    for (x, y) in a.tasks.iter().zip(&b.tasks) {
        assert_eq!(
            (x.task, x.core, x.start, x.end),
            (y.task, y.core, y.start, y.end)
        );
    }
}
