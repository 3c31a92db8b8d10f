//! The simulator: the [`kernel`](super::kernel) driven by profile
//! predictions, bit-identical to the `super::reference` oracle but built
//! to be called hundreds of times per DSA run. Per-program tables live
//! in a shared [`SimProgram`]; the kernel's arenas, its trace buffer
//! and the prediction streams persist in a [`SimEngine`] across calls.
//!
//! The engine's [`Source`] adds three things to the kernel:
//!
//! * **Prediction streams are layout-invariant.** The Markov model's
//!   per-task state advances only on `predict(t)` calls for that task,
//!   so the *i*-th prediction of task *t* is the same in every candidate
//!   simulation. Each task's stream is materialized lazily once and every
//!   simulation walks a cursor over it.
//! * **Release-time stamps.** An object whose next consumer is already
//!   determined binds that task's next prediction when it is released
//!   (see the oracle's `stamp`).
//! * **Tags compare by hash.** A task that mints tags mints a fresh
//!   hash; created tagged objects carry it, or else their creator's first
//!   tagged parameter's.

use crate::critpath::MoveBasis;
use crate::groups::GroupGraph;
use crate::layout::Layout;
use crate::sim::kernel::{Invocation, Kernel, Objects, Source, Tables, UNTAGGED};
use crate::sim::{SimOptions, SimResult, DISPATCH_OVERHEAD, HORIZON};
use crate::trace::ExecutionTrace;
use bamboo_lang::ids::{AllocSiteId, ParamIdx, TaskId};
use bamboo_lang::spec::ProgramSpec;
use bamboo_machine::MachineDescription;
use bamboo_profile::{Cycles, MarkovModel, Prediction, Profile};
use std::convert::Infallible;
use std::sync::Arc;

/// Immutable tables shared by every simulation of one `(spec, graph,
/// profile, machine, opts)` tuple — i.e. by all candidate evaluations of
/// one DSA run. Layout-independent by construction; `Sync`, so worker
/// engines on different threads can share one program.
pub struct SimProgram<'a> {
    pub(crate) spec: &'a ProgramSpec,
    pub(crate) profile: &'a Profile,
    pub(crate) opts: SimOptions,
    tables: Tables<'a>,
    /// Per-task: was the task ever profiled (can its record be replayed)?
    task_profiled: Vec<bool>,
    /// Per-task: does the task mint a fresh tag instance?
    task_mints_tag: Vec<bool>,
}

impl<'a> SimProgram<'a> {
    /// Precomputes the shared tables. `opts.collect_trace` is ignored —
    /// tracing is chosen per [`SimEngine::simulate`] call.
    pub fn new(
        spec: &'a ProgramSpec,
        graph: &'a GroupGraph,
        profile: &'a Profile,
        machine: &'a MachineDescription,
        opts: &SimOptions,
    ) -> Self {
        let n_tasks = spec.tasks.len();
        SimProgram {
            spec,
            profile,
            opts: opts.clone(),
            tables: Tables::new(spec, graph, machine),
            task_profiled: (0..n_tasks)
                .map(|t| profile.task(TaskId::new(t)).invocations() > 0)
                .collect(),
            task_mints_tag: spec
                .tasks
                .iter()
                .map(|task| task.tag_vars.iter().any(|v| !v.from_param))
                .collect(),
        }
    }
}

/// A reusable simulation engine over one [`SimProgram`].
///
/// Not `Sync` — each worker thread owns its own engine (they duplicate
/// the lazily-grown prediction streams, which is cheap and keeps results
/// deterministic without any cross-thread coordination).
pub struct SimEngine<'a> {
    kernel: Kernel,
    predictor: Predictor<'a>,
}

/// The engine's [`Source`]: every invocation's outcome is a prediction.
struct Predictor<'a> {
    program: &'a SimProgram<'a>,
    // Persistent across simulations: the prediction streams.
    markov: MarkovModel<'a>,
    streams: Vec<Vec<Prediction>>,
    // Per-simulation state.
    cursors: Vec<u32>,
    /// Per object: `(task + 1, stream index)` of its release-time stamp,
    /// `(0, 0)` when unstamped.
    obj_pred: Vec<(u32, u32)>,
    /// Per invocation: `(task, stream index)` of its prediction.
    inv_pred: Vec<(u32, u32)>,
    /// Tag hash bound by the pick in progress.
    required_hash: u64,
    next_tag_hash: u64,
}

impl<'a> SimEngine<'a> {
    /// Creates an engine over `program` with empty prediction streams.
    pub fn new(program: &'a SimProgram<'a>) -> Self {
        let n_tasks = program.spec.tasks.len();
        SimEngine {
            kernel: Kernel::default(),
            predictor: Predictor {
                program,
                markov: if program.opts.replay {
                    MarkovModel::new(program.profile)
                } else {
                    MarkovModel::without_replay(program.profile)
                },
                streams: vec![Vec::new(); n_tasks],
                cursors: vec![0; n_tasks],
                obj_pred: Vec::new(),
                inv_pred: Vec::new(),
                required_hash: UNTAGGED,
                next_tag_hash: 1,
            },
        }
    }

    /// Runs one simulation of `layout`, reusing all engine state.
    /// `collect_trace` overrides the program's `opts.collect_trace`.
    pub fn simulate(&mut self, layout: &Layout, collect_trace: bool) -> SimResult {
        let (mut result, trace) = self.run(layout, collect_trace);
        result.trace = trace.map(Arc::new);
        result
    }

    /// Simulates `layout` with a trace and derives its [`MoveBasis`].
    /// The trace stays in the engine, whose next call refills it; the
    /// result carries none.
    pub(crate) fn score(&mut self, layout: &Layout) -> (SimResult, MoveBasis) {
        let (result, trace) = self.run(layout, true);
        let trace = trace.expect("traced run");
        let basis = MoveBasis::of(&trace, layout);
        self.kernel.recycle(trace);
        (result, basis)
    }

    fn run(&mut self, layout: &Layout, collect_trace: bool) -> (SimResult, Option<ExecutionTrace>) {
        let program = self.predictor.program;
        self.predictor.reset();
        let Ok(out) = self.kernel.run(
            &program.tables,
            layout,
            &mut self.predictor,
            collect_trace,
            HORIZON,
            u64::MAX,
        );
        let utilization = if out.makespan == 0 {
            0.0
        } else {
            out.busy as f64 / (out.makespan as f64 * layout.cores_used() as f64)
        };
        let result = SimResult {
            makespan: out.makespan,
            completed: out.completed,
            invocations: out.invocations as usize,
            utilization,
            trace: None,
        };
        (result, out.trace)
    }
}

impl Predictor<'_> {
    fn reset(&mut self) {
        self.cursors.iter_mut().for_each(|c| *c = 0);
        self.obj_pred.clear();
        self.inv_pred.clear();
        self.next_tag_hash = 1;
    }

    /// Consumes the next prediction of `task`'s stream, materializing it
    /// on first use.
    #[inline]
    fn take_pred(&mut self, task: u32) -> u32 {
        let t = task as usize;
        let at = self.cursors[t];
        if at as usize == self.streams[t].len() {
            let pred = self.markov.predict(TaskId::new(t));
            self.streams[t].push(pred);
        }
        self.cursors[t] = at + 1;
        at
    }

    #[inline]
    fn prediction(&self, inv: u32) -> &Prediction {
        let (t, at) = self.inv_pred[inv as usize];
        &self.streams[t as usize][at as usize]
    }
}

impl Source for Predictor<'_> {
    type Error = Infallible;

    #[inline]
    fn begin_pick(&mut self, _task: TaskId) {
        self.required_hash = UNTAGGED;
    }

    #[inline]
    fn bind(&mut self, objs: &Objects, _task: TaskId, _param: usize, obj: u32) -> bool {
        let tag = objs.tag[obj as usize];
        if tag == UNTAGGED || (self.required_hash != UNTAGGED && self.required_hash != tag) {
            return false;
        }
        self.required_hash = tag;
        true
    }

    /// The primary object's release-time stamp is this invocation's
    /// record; stamping guarantees a stamped object can only be consumed
    /// by the stamped task.
    fn formed(&mut self, inv: Invocation<'_>) {
        let first = inv.params[0] as usize;
        let pred = match self.obj_pred[first] {
            (0, _) => {
                let t = inv.task.index() as u32;
                (t, self.take_pred(t))
            }
            (t, at) => {
                self.obj_pred[first] = (0, 0);
                (t - 1, at)
            }
        };
        self.inv_pred.push(pred);
    }

    #[inline]
    fn start(&mut self, inv: Invocation<'_>, _now: Cycles, _: u64) -> Result<Cycles, Infallible> {
        Ok(self.prediction(inv.id).cycles + DISPATCH_OVERHEAD)
    }

    /// Applies the predicted exit. Created tagged objects carry the
    /// task's freshly minted hash, or else its first tagged parameter's.
    fn complete(
        &mut self,
        objs: &mut Objects,
        inv: Invocation<'_>,
        created: &mut Vec<(AllocSiteId, u64)>,
    ) {
        let tspec = self.program.spec.task(inv.task);
        let inherited = if self.program.task_mints_tag[inv.task.index()] {
            self.next_tag_hash += 1;
            self.next_tag_hash
        } else {
            let mut tags = inv.params.iter().map(|&o| objs.tag[o as usize]);
            tags.find(|&t| t != UNTAGGED).unwrap_or(UNTAGGED)
        };
        let pred = self.prediction(inv.id);
        let exit = tspec.exit(pred.exit);
        for (p, &obj) in inv.params.iter().enumerate() {
            let flags = &mut objs.flags[obj as usize];
            *flags = exit.apply_flags(ParamIdx::new(p), *flags);
        }
        for &(site, count) in &pred.allocs {
            let tagged = !tspec.alloc_sites[site.index()].bound_tags.is_empty();
            let tag = if tagged { inherited } else { UNTAGGED };
            created.extend((0..count).map(|_| (site, tag)));
        }
    }

    /// Binds the next replayed profile record to `obj` at release time
    /// (see the oracle's `stamp` in `super::reference` for the full
    /// rationale). Never-profiled tasks can't be replayed — their
    /// objects stay unstamped (formation-order fallback).
    fn released(&mut self, objs: &Objects, obj: u32) {
        let (program, o) = (self.program, obj as usize);
        let consumer = (program.tables.routes)
            .sole_consumer(objs.class[o], objs.flags[o])
            .filter(|t| program.task_profiled[t.index()]);
        let stamp = consumer.map_or((0, 0), |t| {
            (t.index() as u32 + 1, self.take_pred(t.index() as u32))
        });
        match self.obj_pred.get_mut(o) {
            Some(slot) => *slot = stamp,
            None => self.obj_pred.push(stamp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::random_layouts;
    use crate::preprocess::scc_tree_transform;
    use crate::sim::{reference, simulate};
    use crate::testutil::kc_setup;
    use crate::transforms::compute_replication;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_results_equal(fast: &SimResult, oracle: &SimResult, what: &str) {
        assert_eq!(fast.makespan, oracle.makespan, "{what}: makespan");
        assert_eq!(fast.completed, oracle.completed, "{what}: completed");
        assert_eq!(fast.invocations, oracle.invocations, "{what}: invocations");
        assert_eq!(
            fast.utilization.to_bits(),
            oracle.utilization.to_bits(),
            "{what}: utilization"
        );
        assert_eq!(fast.trace, oracle.trace, "{what}: trace");
    }

    /// The engine must be bit-identical to the oracle simulator —
    /// including the full trace (the "event multiset") — on a spread of
    /// random layouts, with and without tracing, reusing one engine.
    #[test]
    fn engine_matches_reference_on_random_layouts() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let mut rng = StdRng::seed_from_u64(97);
        let layouts = random_layouts(&graph, &repl, 4, 12, &mut rng);
        for collect_trace in [true, false] {
            let opts = SimOptions {
                collect_trace,
                ..SimOptions::default()
            };
            let program = SimProgram::new(&spec, &graph, &profile, &machine, &opts);
            let mut engine = SimEngine::new(&program);
            for (i, layout) in layouts.iter().enumerate() {
                let oracle = reference::simulate(&spec, &graph, layout, &profile, &machine, &opts);
                let fast = engine.simulate(layout, collect_trace);
                assert_results_equal(&fast, &oracle, &format!("layout {i}"));
            }
        }
    }

    /// Replay-off (the Figure 9 ablation) must agree too — it exercises
    /// the count-matching model through the shared prediction streams.
    #[test]
    fn engine_matches_reference_without_replay() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let mut rng = StdRng::seed_from_u64(31);
        let layouts = random_layouts(&graph, &repl, 4, 6, &mut rng);
        let opts = SimOptions {
            collect_trace: true,
            replay: false,
        };
        let program = SimProgram::new(&spec, &graph, &profile, &machine, &opts);
        let mut engine = SimEngine::new(&program);
        for (i, layout) in layouts.iter().enumerate() {
            let oracle = reference::simulate(&spec, &graph, layout, &profile, &machine, &opts);
            let fast = engine.simulate(layout, true);
            assert_results_equal(&fast, &oracle, &format!("no-replay layout {i}"));
        }
    }

    #[test]
    fn one_shot_simulate_matches_reference() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let layout = random_layouts(&graph, &repl, 4, 1, &mut rng).remove(0);
        let opts = SimOptions {
            collect_trace: true,
            ..SimOptions::default()
        };
        let oracle = reference::simulate(&spec, &graph, &layout, &profile, &machine, &opts);
        let fast = simulate(&spec, &graph, &layout, &profile, &machine, &opts);
        assert_results_equal(&fast, &oracle, "one-shot");
    }
}
