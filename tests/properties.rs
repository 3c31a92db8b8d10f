//! Property-based tests (proptest) over the system's core invariants:
//! flag algebra, guard evaluation, the union-find, the Markov model,
//! lexer/parser totality, and — most importantly — the end-to-end
//! invariant that randomly generated fan-out/reduce programs compute the
//! same result on one virtual core, on many virtual cores, and serially.

use bamboo::analysis::UnionFind;
use bamboo::lang::ids::{FlagId, TaskId};
use bamboo::lang::spec::{FlagExpr, FlagSet};
use bamboo::profile::{MarkovModel, ProfileCollector};
use bamboo::{
    body, Compiler, ExecConfig, MachineDescription, NativeBody, ProgramBuilder, SynthesisOptions,
};
use proptest::prelude::*;
use rand::SeedableRng;

// ---- flag algebra -------------------------------------------------------

proptest! {
    #[test]
    fn flagset_union_is_commutative_and_idempotent(a in any::<u64>(), b in any::<u64>()) {
        let (fa, fb) = (FlagSet::from_bits(a), FlagSet::from_bits(b));
        prop_assert_eq!(fa.union(fb), fb.union(fa));
        prop_assert_eq!(fa.union(fa), fa);
        // Masking by the union leaves both operands unchanged.
        prop_assert_eq!(fa.masked(fa.union(fb)), fa);
    }

    #[test]
    fn flagset_iter_round_trips(bits in any::<u64>()) {
        let set = FlagSet::from_bits(bits);
        let rebuilt: FlagSet = set.iter().collect();
        prop_assert_eq!(rebuilt, set);
        prop_assert_eq!(set.len(), bits.count_ones() as usize);
    }

    #[test]
    fn guard_de_morgan(bits in any::<u64>(), i in 0usize..64, j in 0usize..64) {
        let flags = FlagSet::from_bits(bits);
        let a = FlagExpr::flag(FlagId::new(i));
        let b = FlagExpr::flag(FlagId::new(j));
        let lhs = a.clone().and(b.clone()).not();
        let rhs = a.clone().not().or(b.clone().not());
        prop_assert_eq!(lhs.eval(flags), rhs.eval(flags));
        // Double negation.
        prop_assert_eq!(a.clone().not().not().eval(flags), a.eval(flags));
    }
}

// ---- union-find ---------------------------------------------------------

proptest! {
    #[test]
    fn union_find_matches_naive_partition(
        unions in proptest::collection::vec((0usize..24, 0usize..24), 0..40)
    ) {
        let mut uf = UnionFind::new(24);
        // Naive: label vector, relabel on union.
        let mut labels: Vec<usize> = (0..24).collect();
        for (a, b) in unions {
            uf.union(a, b);
            let (la, lb) = (labels[a], labels[b]);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for x in 0..24 {
            for y in 0..24 {
                prop_assert_eq!(uf.same(x, y), labels[x] == labels[y]);
            }
        }
    }
}

// ---- lexer / parser totality ---------------------------------------------

proptest! {
    #[test]
    fn lexer_and_parser_never_panic(src in "[ -~\\n]{0,200}") {
        // Any outcome is fine; panics are not.
        if let Ok(tokens) = bamboo::lang::lexer::lex(&src) {
            let _ = bamboo::lang::parser::parse(tokens);
        }
    }

    #[test]
    fn generated_task_declarations_parse(
        n_flags in 1usize..4,
        n_tasks in 1usize..4,
    ) {
        let mut src = String::from("class StartupObject { flag initialstate; }\n");
        src.push_str("class W {\n");
        for f in 0..n_flags {
            src.push_str(&format!("    flag f{f};\n"));
        }
        src.push_str("}\n");
        src.push_str(
            "task startup(StartupObject s in initialstate) { taskexit(s: initialstate := false); }\n",
        );
        for t in 0..n_tasks {
            let guard = format!("f{}", t % n_flags);
            let clear = format!("f{}", t % n_flags);
            src.push_str(&format!(
                "task t{t}(W w in {guard}) {{ taskexit(w: {clear} := false); }}\n"
            ));
        }
        let compiled = bamboo::lang::compile_source("gen", &src);
        prop_assert!(compiled.is_ok(), "generated source failed: {:?}", compiled.err());
    }
}

// ---- Markov model ---------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn markov_exit_frequencies_match_profile(counts in proptest::collection::vec(1u64..20, 2..4)) {
        // Build a synthetic one-task profile with the given exit counts.
        let mut b: ProgramBuilder<()> = ProgramBuilder::new("m");
        let s = b.class("StartupObject", &["initialstate"]);
        let init = b.flag(s, "initialstate");
        let mut tb = b.task("t").param("s", s, FlagExpr::flag(init));
        for _ in 0..counts.len() {
            tb = tb.exit("", |e| e);
        }
        tb.body(()).finish();
        let spec = b.build().expect("valid").spec;
        let mut collector = ProfileCollector::new(&spec, "x");
        for (e, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                collector.record(TaskId::new(0), bamboo::ExitId::new(e), 10, &[]);
            }
        }
        let profile = collector.finish();
        // Without replay, over exactly one profile-length horizon the
        // count-matching rule reproduces the counts exactly.
        let total: u64 = counts.iter().sum();
        let mut model = MarkovModel::without_replay(&profile);
        let mut predicted = vec![0u64; counts.len()];
        for _ in 0..total {
            predicted[model.predict(TaskId::new(0)).exit.index()] += 1;
        }
        prop_assert_eq!(&predicted, &counts);
        // With replay, the exact recorded order comes back.
        let mut replay = MarkovModel::new(&profile);
        for rec in &profile.tasks[0].sequence {
            prop_assert_eq!(replay.predict(TaskId::new(0)).exit.index(), rec.exit as usize);
        }
    }
}

// ---- end-to-end: random programs, serial == parallel ----------------------

/// Builds a fan-out/reduce program over arbitrary work values.
fn fanout_program(values: Vec<i64>) -> Compiler {
    let n = values.len() as i64;
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("prop-fanout");
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
            for &v in &values {
                ctx.create(0, v);
            }
            ctx.create(1, (0i64, 0i64, n));
            ctx.charge(5);
            0
        }))
        .finish();
    b.task("work")
        .param("w", w, FlagExpr::flag(ready))
        .exit("", |e| e.set(0, ready, false).set(0, done, true))
        .body(body(|ctx| {
            let v = ctx.param_mut::<i64>(0);
            *v = v.wrapping_mul(3).wrapping_add(1);
            ctx.charge(100);
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
            a.0 = a.0.wrapping_add(w);
            a.1 += 1;
            let fin = a.1 == a.2;
            ctx.charge(20);
            if fin {
                1
            } else {
                0
            }
        }))
        .finish();
    Compiler::from_native(b.build().expect("valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn random_fanout_program_is_core_count_invariant(
        values in proptest::collection::vec(-1000i64..1000, 1..24),
        cores in 2usize..9,
        seed in 0u64..1000,
    ) {
        let expected: i64 = values.iter().map(|v| v.wrapping_mul(3).wrapping_add(1)).sum();
        let compiler = fanout_program(values);
        let acc_class = compiler.program.spec.class_by_name("Acc").expect("exists");

        // One core.
        let (profile, _, one) = compiler
            .profile_run(None, "p", |exec| {
                exec.payload::<(i64, i64, i64)>(exec.store.live_of_class(acc_class)[0]).0
            })
            .expect("runs");
        prop_assert_eq!(one, expected);

        // Synthesized multi-core.
        let machine = MachineDescription::n_cores(cores);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let plan = compiler.synthesize(&profile, &machine, &SynthesisOptions::default(), &mut rng);
        let mut exec = compiler.executor(&plan.graph, &plan.layout, &machine, ExecConfig::default());
        let report = exec.run(None).expect("runs");
        prop_assert!(report.quiesced);
        let many = exec.payload::<(i64, i64, i64)>(exec.store.live_of_class(acc_class)[0]).0;
        prop_assert_eq!(many, expected);
    }

    #[test]
    fn trace_invariants_hold_for_random_layout_seeds(seed in 0u64..500) {
        let compiler = fanout_program((0..10).collect());
        let (profile, _, ()) = compiler.profile_run(None, "p", |_| ()).expect("runs");
        let machine = MachineDescription::n_cores(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let plan = compiler.synthesize(&profile, &machine, &SynthesisOptions::default(), &mut rng);
        let config = ExecConfig { collect_trace: true, ..ExecConfig::default() };
        let mut exec = compiler.executor(&plan.graph, &plan.layout, &machine, config);
        let report = exec.run(None).expect("runs");
        let trace = report.trace.expect("requested");
        // Work conservation: every invocation appears exactly once.
        prop_assert_eq!(trace.tasks.len() as u64, report.invocations);
        // No core runs two invocations at once, and starts respect data.
        for t in &trace.tasks {
            prop_assert!(t.start >= trace.data_ready(t));
            if let Some(prev) = t.prev_on_core {
                prop_assert!(trace.tasks[prev].end <= t.start);
            }
        }
        // The makespan is at least the critical path's work.
        let cp = bamboo::schedule::critical_path(&trace);
        let cp_work: u64 = cp.iter().map(|&i| trace.tasks[i].duration()).sum();
        prop_assert!(report.makespan >= cp_work);
    }
}

// ---- chaos: router re-striping ---------------------------------------------

proptest! {
    /// Dead-core re-striping (DESIGN.md §14): for any subset of dead
    /// cores, `restripe` is a total function onto the live cores, and
    /// over a dense key range each live core's load is within 1 of
    /// uniform. With every candidate dead it returns `None` (the caller
    /// fails the run with a typed error instead of routing blind).
    #[test]
    fn restripe_is_total_and_balanced_over_live_cores(
        cores in 1usize..12,
        dead_mask in any::<u16>(),
    ) {
        use bamboo::runtime::Liveness;
        let router = Liveness::new(cores);
        let candidates: Vec<usize> = (0..cores).collect();
        for c in 0..cores {
            if dead_mask & (1 << c) != 0 {
                router.mark_dead(c);
            }
        }
        let live: Vec<usize> =
            candidates.iter().copied().filter(|&c| !router.is_dead(c)).collect();
        prop_assert_eq!(router.live_count(), live.len());

        let keys: u64 = 10_000;
        let mut load = vec![0u64; cores];
        for key in 0..keys {
            match router.restripe(&candidates, key) {
                Some(c) => {
                    prop_assert!(!router.is_dead(c), "routed key {key} to dead core {c}");
                    load[c] += 1;
                }
                None => prop_assert!(live.is_empty(), "None with {} live cores", live.len()),
            }
        }
        if !live.is_empty() {
            prop_assert_eq!(load.iter().sum::<u64>(), keys, "restripe must be total");
            let floor = keys / live.len() as u64;
            for &c in &live {
                prop_assert!(
                    load[c] == floor || load[c] == floor + 1,
                    "core {} took {} of {} keys over {} live cores",
                    c, load[c], keys, live.len()
                );
            }
        }
    }
}

// ---- ASTG soundness --------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Dependence-analysis soundness: every concrete abstract state an
    /// execution reaches (masked to guard-relevant flags) must have a node
    /// in the class's ASTG.
    #[test]
    fn astg_covers_every_reachable_state(
        stages in 2usize..5,
        objects in 1usize..5,
        with_skip in any::<bool>(),
    ) {
        // Build a staged DSL program: objects move f0 -> f1 -> ... -> f_k,
        // optionally skipping a stage via a second exit.
        let mut src = String::from("class StartupObject { flag initialstate; }\nclass W {\n");
        for i in 0..=stages {
            src.push_str(&format!("    flag f{i};\n"));
        }
        src.push_str("    int hops;\n}\n");
        src.push_str("task startup(StartupObject s in initialstate) {\n");
        src.push_str(&format!(
            "    for (int i = 0; i < {objects}; i = i + 1) {{ W w = new W(){{ f0 := true }}; }}\n"
        ));
        src.push_str("    taskexit(s: initialstate := false);\n}\n");
        for i in 0..stages {
            let next = i + 1;
            let skip = (i + 2).min(stages);
            if with_skip && skip != next {
                src.push_str(&format!(
                    "task t{i}(W w in f{i}) {{\n\
                         w.hops = w.hops + 1;\n\
                         if (w.hops % 2 == 0) {{ taskexit(w: f{i} := false, f{skip} := true); }}\n\
                         taskexit(w: f{i} := false, f{next} := true);\n\
                     }}\n"
                ));
            } else {
                src.push_str(&format!(
                    "task t{i}(W w in f{i}) {{ w.hops = w.hops + 1; taskexit(w: f{i} := false, f{next} := true); }}\n"
                ));
            }
        }
        let compiled = bamboo::lang::compile_source("staged", &src).expect("staged program compiles");
        let dependence = bamboo::DependenceAnalysis::run(&compiled.spec);
        let relevant = compiled.spec.guard_relevant_flags();

        let mut driver = bamboo::lang::interp::ReferenceDriver::new(&compiled);
        let mut steps = 0;
        loop {
            // Check every live object's (masked) state has an ASTG node.
            for (obj, meta) in driver.meta.clone() {
                let class = driver.interp.heap.class_of(obj);
                let masked = meta.flags.masked(relevant[class.index()]);
                let state = bamboo::analysis::AbstractState::from_flags(masked);
                let astg = dependence.astg(class);
                prop_assert!(
                    astg.find(&state).is_some(),
                    "class {} reached state {:?} missing from its ASTG",
                    compiled.spec.class(class).name,
                    masked
                );
            }
            match driver.step().expect("no traps") {
                Some(_) => {
                    steps += 1;
                    prop_assert!(steps < 10_000, "did not quiesce");
                }
                None => break,
            }
        }
    }
}

// ---- pretty-printer round trip ---------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Printing a parsed program and re-parsing the output yields the same
    /// AST (modulo spans), for generated programs over randomized shapes.
    #[test]
    fn pretty_print_round_trips_generated_programs(
        n_flags in 1usize..4,
        n_fields in 0usize..3,
        n_tasks in 1usize..4,
        use_tags in any::<bool>(),
    ) {
        let mut src = String::new();
        if use_tags {
            src.push_str("tagtype link;\n");
        }
        src.push_str("class StartupObject { flag initialstate; }\nclass W {\n");
        for f in 0..n_flags {
            src.push_str(&format!("    flag f{f};\n"));
        }
        for f in 0..n_fields {
            src.push_str(&format!("    int v{f};\n"));
        }
        src.push_str("}\n");
        src.push_str("task startup(StartupObject s in initialstate) {\n");
        if use_tags {
            src.push_str("    tag t = new tag(link);\n    W w = new W(){ f0 := true, add t };\n");
        } else {
            src.push_str("    W w = new W(){ f0 := true };\n");
        }
        src.push_str("    taskexit(s: initialstate := false);\n}\n");
        for t in 0..n_tasks {
            let g = t % n_flags;
            src.push_str(&format!(
                "task t{t}(W w in f{g} or (f0 and !f{g})) {{\n    taskexit(w: f{g} := false);\n}}\n"
            ));
        }
        let unit = bamboo::lang::parser::parse(bamboo::lang::lexer::lex(&src).expect("lex"))
            .expect("parse");
        let printed = bamboo::lang::pretty::unit_to_source(&unit);
        let reparsed =
            bamboo::lang::parser::parse(bamboo::lang::lexer::lex(&printed).expect("relex"))
                .expect("reparse");
        prop_assert!(
            bamboo::lang::pretty::units_equal_modulo_spans(&unit, &reparsed),
            "round trip diverged for:\n{printed}"
        );
    }
}

// ---- disjointness analysis ground truth ------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Generated two-parameter tasks either store a cross-parameter
    /// reference (directly, through a method, or through a shared fresh
    /// object) or only read; the analysis verdict must match the ground
    /// truth exactly on these shapes.
    #[test]
    fn disjointness_verdict_matches_construction(
        kind in 0usize..5,
    ) {
        let (body_src, shares) = match kind {
            // Read-only accumulation: disjoint.
            0 => ("a.total = a.total + b.v;", false),
            // Direct cross-parameter store: shares.
            1 => ("a.kept = b;", true),
            // Store through a method: shares.
            2 => ("a.keep(b);", true),
            // Each param gets its own fresh node: disjoint.
            3 => ("a.n = new Node(); b.n = new Node();", false),
            // Both params reference one fresh node: shares.
            _ => ("Node shared = new Node(); a.n = shared; b.n = shared;", true),
        };
        let src = format!(
            r#"
            class StartupObject {{ flag initialstate; }}
            class Node {{ int v; }}
            class A {{
                flag on;
                int total;
                B kept;
                Node n;
                void keep(B b) {{ this.kept = b; }}
            }}
            class B {{ flag on; int v; Node n; }}
            task startup(StartupObject s in initialstate) {{
                A a = new A(){{ on := true }};
                B b = new B(){{ on := true }};
                taskexit(s: initialstate := false);
            }}
            task pair(A a in on, B b in on) {{
                {body_src}
                taskexit(a: on := false; b: on := false);
            }}
            "#
        );
        let compiler = Compiler::from_source("disjoint-prop", &src).expect("compiles");
        let pair = compiler.program.spec.task_by_name("pair").expect("declared");
        prop_assert_eq!(
            compiler.locks.lock_plan(pair).has_sharing(),
            shares,
            "kind {} misjudged",
            kind
        );
    }
}
