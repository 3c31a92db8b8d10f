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
//!   chain so state leaking from one simulation into the next would show.

use bamboo::machine::CoreId;
use bamboo::schedule::critpath::apply_move;
use bamboo::schedule::sim::reference;
use bamboo::schedule::{
    compute_replication, random_layouts, simulate, InstanceId, Layout, MoveProposal, Replication,
    SimEngine, SimOptions, SimProgram, SimResult,
};
use bamboo::{
    body, Compiler, FlagExpr, GroupGraph, MachineDescription, NativeBody, Profile, ProgramBuilder,
    ProgramSpec, SynthesisOptions,
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
