//! The simulator against its oracle (DESIGN.md §18).
//!
//! Everything that scores a layout — `simulate`, the DSA optimizer, the
//! adaptive controller — runs the arena `SimEngine`. It is only allowed
//! to be the simulator because it is bit-identical to the straightforward
//! `sim::reference` implementation, which exists for these tests:
//!
//! * a differential sweep over **all six benchmark applications** at two
//!   seeds on the 62-core model: random layouts, the synthesized winner,
//!   and a random move chain from it each simulate three ways — oracle,
//!   one engine reused across every layout, one-shot `simulate` — and
//!   must agree on every result field including the full trace;
//! * a proptest that **random transform chains stay on the oracle** on a
//!   small over-replicated fan-out program, the engine reused along the
//!   chain so state leaking from one simulation into the next would show;
//! * a hand-built program whose trace depends on **where a failed pick
//!   leaves the entries it had picked** (the formation rule, DESIGN.md
//!   §18);
//! * a proptest that **the routing table decides as the reference
//!   router does** on the six apps' 2-core and 62-core plans, round-robin
//!   counters included (the oracle routes through its own `Router`).

use bamboo::lang::ids::{AllocSiteId, TagVarId};
use bamboo::machine::CoreId;
use bamboo::profile::profile::InvocationRecord;
use bamboo::profile::{ExitStats, TaskProfile};
use bamboo::schedule::critpath::apply_move;
use bamboo::schedule::routing::bump;
use bamboo::schedule::sim::reference;
use bamboo::schedule::{
    compute_replication, random_layouts, simulate, Group, GroupId, InstanceId, Layout,
    MoveProposal, Replication, RouteDecision, RouteTable, Router, SimEngine, SimOptions,
    SimProgram, SimResult,
};
use bamboo::{
    body, ClassId, Compiler, FlagExpr, FlagId, FlagSet, GroupGraph, MachineDescription, NativeBody,
    Profile, ProgramBuilder, ProgramSpec, SynthesisOptions, TaskId,
};
use bamboo_apps::{all, Scale};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Every field of a [`SimResult`], the trace included.
fn agree(got: &SimResult, oracle: &SimResult) -> Result<(), String> {
    let same = got.makespan == oracle.makespan
        && got.completed == oracle.completed
        && got.invocations == oracle.invocations
        && got.utilization.to_bits() == oracle.utilization.to_bits()
        && got.trace == oracle.trace;
    if same {
        Ok(())
    } else {
        Err(format!(
            "makespan {} vs {}, completed {} vs {}, invocations {} vs {}, utilization {} vs {}, \
             traces equal: {}",
            got.makespan,
            oracle.makespan,
            got.completed,
            oracle.completed,
            got.invocations,
            oracle.invocations,
            got.utilization,
            oracle.utilization,
            got.trace == oracle.trace,
        ))
    }
}

/// `layout` with one or two random instances (never instance 0, matching
/// the optimizer's move generators) moved to random cores.
fn random_child(layout: &Layout, rng: &mut StdRng) -> Layout {
    let mut child = layout.clone();
    for _ in 0..1 + rng.gen_range(0..2) {
        let instance = InstanceId(rng.gen_range(1..layout.instances.len()) as u32);
        let to_core = CoreId::new(rng.gen_range(0..layout.core_count));
        child = apply_move(&child, MoveProposal { instance, to_core });
    }
    child
}

#[test]
fn engine_matches_oracle_on_all_six_apps() {
    let machine = MachineDescription::tilepro64();
    let synthesis = SynthesisOptions::default();
    let opts = &synthesis.dsa.sim;
    for bench in all() {
        let name = bench.name();
        let compiler = bench.compiler(Scale::Small);
        let (profile, _, ()) = compiler
            .profile_run(None, "t", |_| ())
            .expect("profile run");
        let spec = &*compiler.program.spec;
        for seed in [4242u64, 1717] {
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = compiler.synthesize(&profile, &machine, &synthesis, &mut rng);
            let graph = &plan.graph;
            let oracle_of = |layout: &Layout| {
                reference::simulate(spec, graph, layout, &profile, &machine, opts)
            };

            // The estimate a plan records is the oracle's, bit for bit.
            agree(&plan.estimate, &oracle_of(&plan.layout))
                .unwrap_or_else(|e| panic!("{name} seed {seed}: recorded estimate: {e}"));

            let mut layouts =
                random_layouts(graph, &plan.replication, machine.core_count(), 6, &mut rng);
            layouts.push(plan.layout.clone());
            for _ in 0..24 {
                let next = random_child(layouts.last().expect("winner pushed"), &mut rng);
                layouts.push(next);
            }

            let program = SimProgram::new(spec, graph, &profile, &machine, opts);
            let mut engine = SimEngine::new(&program);
            for (i, layout) in layouts.iter().enumerate() {
                let oracle = oracle_of(layout);
                agree(&engine.simulate(layout, opts.collect_trace), &oracle).unwrap_or_else(|e| {
                    panic!("{name} seed {seed} layout {i}: reused engine: {e}")
                });
                agree(
                    &simulate(spec, graph, layout, &profile, &machine, opts),
                    &oracle,
                )
                .unwrap_or_else(|e| panic!("{name} seed {seed} layout {i}: one-shot: {e}"));
            }
        }
    }
}

// ---- transform-chain proptest ---------------------------------------------

/// A small fan-out/reduce program (cheap to simulate thousands of
/// times) used as the proptest substrate.
fn fanout_compiler() -> Compiler {
    let n = 8i64;
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("oracle-prop");
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
            for v in 0..n {
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

/// Shared proptest fixture: spec, preprocessed graph, profile, and an
/// over-replicated replication (extra copies guarantee instances that
/// never receive work, the shape the six apps' layouts lack).
fn fixture() -> &'static (ProgramSpec, GroupGraph, Profile, Replication) {
    static FIXTURE: OnceLock<(ProgramSpec, GroupGraph, Profile, Replication)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let compiler = fanout_compiler();
        let (profile, _, ()) = compiler.profile_run(None, "p", |_| ()).expect("runs");
        let spec = (*compiler.program.spec).clone();
        let graph = bamboo::schedule::scc_tree_transform(&compiler.graph_with_profile(&profile));
        let mut repl = compute_replication(&spec, &graph, &profile, 4);
        for (g, copies) in repl.copies.iter_mut().enumerate() {
            if bamboo::schedule::GroupId(g as u32) != graph.startup_group {
                *copies += 3;
            }
        }
        (spec, graph, profile, repl)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Walk a chain of random move/swap transforms from a random layout,
    /// simulating every step on one reused engine: each result must
    /// equal a from-scratch oracle simulation of that layout, bit for
    /// bit, trace included.
    #[test]
    fn transform_chains_stay_on_the_oracle(
        seed in 0u64..300,
        chain in 2usize..10,
    ) {
        let (spec, graph, profile, repl) = fixture();
        let machine = MachineDescription::n_cores(4);
        let opts = SimOptions { collect_trace: true, ..SimOptions::default() };
        let program = SimProgram::new(spec, graph, profile, &machine, &opts);
        let mut engine = SimEngine::new(&program);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layout = random_layouts(graph, repl, 4, 1, &mut rng).remove(0);
        for step in 0..=chain {
            let oracle = reference::simulate(spec, graph, &layout, profile, &machine, &opts);
            let verdict = agree(&engine.simulate(&layout, true), &oracle);
            prop_assert!(verdict.is_ok(), "step {}: {:?}", step, verdict);
            layout = random_child(&layout, &mut rng);
        }
    }
}

// ---- the formation rule on a hand-built program ---------------------------

/// A program whose trace depends on where a failed pick leaves its
/// entries. `quad(T t, A a, A b, B d)` binds `t` and `a` through one tag,
/// takes any `A` as `b`, and gets its `B` last; `claim(T, C)` consumes
/// the first `T`. Every task sits in one group on one core, so objects
/// arrive in release order:
///
/// 1. `A_e` (tag 1, from `startup`), then `W` (untagged, from `emit`),
///    enter both `A` slots. `T1` (tag 1, from `emit`) arrives: `quad`
///    picks `T1`, `A_e` for `a`, skips `A_e` for `b` and picks `W`
///    behind it, then misses on `d`. `claim` takes `T1`.
/// 2. `mk` releases `T2` and `A_z` (tag 2), then `B`. With `T2` and
///    `A_z` in, `quad`'s tagged slot `a` holds `A_e` and the untagged
///    `W` ahead of `A_z`: the pick takes `A_z` and misses on `d` again.
/// 3. `B` completes `quad`, whose `b` is the first `A` in its slot.
///    A failed pick leaves every entry where it was, so that is `A_e`;
///    restoring `W` to the front in step 1 would make it `W`, which
///    another invocation produced at another time.
///
/// Returns the spec, its one-group graph and a profile of one recorded
/// invocation per task, each allocating one object per site.
fn formation_program() -> (ProgramSpec, GroupGraph, Profile) {
    let mut b: ProgramBuilder<()> = ProgramBuilder::new("formation");
    let s = b.class("StartupObject", &["initialstate"]);
    let init = b.flag(s, "initialstate");
    let [a, bee, c, p, seed, t] =
        ["A", "B", "C", "P", "Seed", "T"].map(|name| b.class(name, &["f"]));
    let f = FlagId::new(0);
    let k = b.tag_type("K");
    let tag = TagVarId::new(0);
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .new_tag_var(k, "n")
        .alloc(a, &[(f, true)], &[tag])
        .alloc(c, &[(f, true)], &[])
        .alloc(p, &[(f, true)], &[tag])
        .alloc(seed, &[(f, true)], &[])
        .exit("", |e| e.set(0, init, false))
        .body(())
        .finish();
    b.task("emit")
        .param("p", p, FlagExpr::flag(f))
        .with_tag(k, "n")
        .alloc(a, &[(f, true)], &[])
        .alloc(t, &[(f, true)], &[tag])
        .exit("", |e| e.set(0, f, false))
        .body(())
        .finish();
    b.task("mk")
        .param("s", seed, FlagExpr::flag(f))
        .new_tag_var(k, "n")
        .alloc(t, &[(f, true)], &[tag])
        .alloc(a, &[(f, true)], &[tag])
        .alloc(bee, &[(f, true)], &[])
        .exit("", |e| e.set(0, f, false))
        .body(())
        .finish();
    b.task("quad")
        .param("t", t, FlagExpr::flag(f))
        .with_tag(k, "n")
        .param("a", a, FlagExpr::flag(f))
        .with_tag(k, "n")
        .param("b", a, FlagExpr::flag(f))
        .param("d", bee, FlagExpr::flag(f))
        .exit("", |e| {
            e.set(0, f, false)
                .set(1, f, false)
                .set(2, f, false)
                .set(3, f, false)
        })
        .body(())
        .finish();
    b.task("claim")
        .param("t", t, FlagExpr::flag(f))
        .param("c", c, FlagExpr::flag(f))
        .exit("", |e| e.set(0, f, false).set(1, f, false))
        .body(())
        .finish();
    let spec = b.build().expect("valid program").spec;
    let graph = GroupGraph {
        groups: vec![Group {
            tasks: (0..spec.tasks.len()).map(TaskId::new).collect(),
            states: Vec::new(),
            classes: (0..spec.classes.len()).map(ClassId::new).collect(),
            origin: 0,
        }],
        new_edges: Vec::new(),
        startup_group: GroupId(0),
    };
    let tasks = spec
        .tasks
        .iter()
        .map(|task| {
            let sites = task.alloc_sites.len();
            TaskProfile {
                exits: vec![ExitStats {
                    count: 1,
                    total_cycles: 10,
                    site_allocs: vec![1; sites],
                }],
                sequence: vec![InvocationRecord {
                    exit: 0,
                    cycles: 10,
                    allocs: (0..sites as u16).map(|site| (site, 1)).collect(),
                }],
            }
        })
        .collect();
    let profile = Profile {
        program: spec.name.clone(),
        input: "hand-built".to_string(),
        tasks,
        total_cycles: 50,
    };
    (spec, graph, profile)
}

#[test]
fn failed_picks_leave_their_entries_in_place() {
    let (spec, graph, profile) = formation_program();
    let layout = Layout::single_core(&graph);
    let machine = MachineDescription::n_cores(1);
    let opts = SimOptions {
        collect_trace: true,
        ..SimOptions::default()
    };
    let oracle = reference::simulate(&spec, &graph, &layout, &profile, &machine, &opts);
    let program = SimProgram::new(&spec, &graph, &profile, &machine, &opts);
    agree(&SimEngine::new(&program).simulate(&layout, true), &oracle)
        .unwrap_or_else(|e| panic!("engine vs oracle: {e}"));
    assert!(oracle.completed);
    assert_eq!(oracle.invocations, spec.tasks.len());
    let trace = oracle.trace.as_ref().expect("traced");
    let quad = spec.task_by_name("quad").expect("declared");
    let quad = trace
        .tasks
        .iter()
        .find(|task| task.task == quad)
        .expect("quad formed");
    // `b` is `A_e`, released by `startup` (trace id 0), not `W` from `emit`.
    assert_eq!(trace.deps_of(quad)[2].producer, Some(0));
}

// ---- the routing table against the reference router -----------------------

/// The six apps at small scale, each with its 2-core and its 62-core
/// plan: `(spec, graph, layout)`.
fn routed_plans() -> &'static Vec<(ProgramSpec, GroupGraph, Layout)> {
    static PLANS: OnceLock<Vec<(ProgramSpec, GroupGraph, Layout)>> = OnceLock::new();
    PLANS.get_or_init(|| {
        let mut plans = Vec::new();
        for bench in all() {
            let compiler = bench.compiler(Scale::Small);
            let (profile, _, ()) = compiler
                .profile_run(None, "t", |_| ())
                .expect("profile run");
            for machine in [
                MachineDescription::n_cores(2),
                MachineDescription::tilepro64(),
            ] {
                let mut rng = StdRng::seed_from_u64(42);
                let synthesis = SynthesisOptions::default();
                let plan = compiler.synthesize(&profile, &machine, &synthesis, &mut rng);
                plans.push(((*compiler.program.spec).clone(), plan.graph, plan.layout));
            }
        }
        plans
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// The same random queries to a `RouteTable` with its counters and to
    /// a fresh reference `Router`: transitions of a random class in any
    /// flag valuation at a random home, and allocations at a random
    /// instance by one of its group's tasks at one of that task's sites,
    /// each untagged or tagged. Every decision is equal, and exactly an
    /// untagged pick among copies advances one counter: the querying
    /// instance's, for the chosen task or site.
    #[test]
    fn route_table_matches_the_reference_router(
        which in 0usize..12,
        queries in collection::vec((0u8..4, any::<u64>(), any::<u64>(), any::<u64>()), 1..64),
    ) {
        let (spec, graph, layout) = &routed_plans()[which];
        let table = RouteTable::new(spec, graph);
        let (flows, sites) = table.counter_lens(layout.instances.len());
        let (mut flow_rr, mut site_rr) = (vec![0; flows], vec![0; sites]);
        let mut router = Router::new();
        let n_tasks = spec.tasks.len();
        let n_sites = sites / layout.instances.len();
        let instances = layout.instances.len() as u64;
        for (kind, r1, r2, r3) in queries {
            let tag = (kind % 2 == 1).then_some(r1 >> 8);
            let mut advanced = None;
            if kind < 2 {
                let class = ClassId::new((r1 % spec.classes.len() as u64) as usize);
                let width = spec.class(class).flags.len();
                let flags = FlagSet::from_bits(r2 & ((1u64 << width) - 1));
                let home = InstanceId((r3 % instances) as u32);
                let want = router.route_transition(spec, graph, layout, home, class, flags, tag);
                let got = table.route_transition(layout, home, class, flags, tag, |at| {
                    advanced = Some(at);
                    bump(&mut flow_rr[at])
                });
                prop_assert_eq!(got, want);
                let moved = match got {
                    RouteDecision::Move(dest) => Some(dest),
                    _ => None,
                };
                prop_assert_eq!(advanced.is_some(), tag.is_none() && moved.is_some());
                if let (Some(at), Some(dest)) = (advanced, moved) {
                    prop_assert_eq!(at / n_tasks, home.index());
                    let group = &graph.groups[layout.instances[dest.index()].group.index()];
                    prop_assert!(group.has_task(TaskId::new(at % n_tasks)));
                }
            } else {
                let from = InstanceId((r1 % instances) as u32);
                let tasks = &graph.groups[layout.instances[from.index()].group.index()].tasks;
                if tasks.is_empty() {
                    continue;
                }
                let task = tasks[(r2 % tasks.len() as u64) as usize];
                let task_sites = spec.task(task).alloc_sites.len() as u64;
                if task_sites == 0 {
                    continue;
                }
                let site = AllocSiteId::new((r3 % task_sites) as usize);
                let want = router.route_new(spec, graph, layout, from, task, site, tag);
                let got = table.route_new(layout, from, task, site, tag, |at| {
                    advanced = Some(at);
                    bump(&mut site_rr[at])
                });
                prop_assert_eq!(got, want);
                let site_base: usize = spec.tasks[..task.index()]
                    .iter()
                    .map(|t| t.alloc_sites.len())
                    .sum();
                let counter = from.index() * n_sites + site_base + site.index();
                prop_assert_eq!(advanced, tag.is_none().then_some(counter));
            }
        }
    }
}
