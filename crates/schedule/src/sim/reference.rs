//! The oracle simulator: a direct, allocation-heavy implementation of
//! the scheduling semantics. [`super::fast`] — the engine everything
//! else runs — is defined as "bit-identical to this" and differentially
//! tested against [`simulate`]. Keep it simple; optimize the engine
//! instead.
//!
//! Test-only by convention, not by `#[cfg(test)]`: the six-app
//! differential (`tests/sim_oracle.rs`) lives in the workspace's root
//! `tests/` and needs `bamboo-apps`, which depends on `bamboo`, which
//! depends on this crate — a `cfg(test)` item is invisible from there.
//! Hence `#[doc(hidden)] pub`, and no re-export from the crate root.

use crate::groups::GroupGraph;
use crate::layout::{InstanceId, Layout, RouteDecision, Router};
use crate::sim::kernel::PAYLOAD_WORDS;
use crate::sim::{SimOptions, SimResult, DISPATCH_OVERHEAD, HORIZON};
use crate::trace::{DataDep, ExecutionTrace, TraceTask};
use bamboo_analysis::cstg::enabled_params;
use bamboo_lang::ids::{ClassId, ParamIdx, TaskId};
use bamboo_lang::spec::{FlagSet, ProgramSpec};
use bamboo_machine::{CoreId, MachineDescription};
use bamboo_profile::{Cycles, MarkovModel, Prediction, Profile};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// An abstract simulated object.
#[derive(Clone, Debug)]
struct SimObject {
    class: bamboo_lang::ids::ClassId,
    flags: FlagSet,
    home: InstanceId,
    /// Hash standing in for tag-instance identity (objects tagged together
    /// share it).
    tag_hash: Option<u64>,
    /// The invocation that last released this object (for trace edges).
    producer: Option<usize>,
    /// Arrival time at the current home core.
    arrival: Cycles,
    /// Set once the object is reserved by a pending invocation or dead.
    consumed: bool,
    /// Replayed profile record bound to this object at *release* time —
    /// the moment it entered its current `(class, flags)` state — when
    /// that state enables exactly one `(task, param 0)` dispatch entry.
    /// Release order is the serial program order the profile recorded;
    /// arrival and start order are scheduling artifacts (mesh distance
    /// reorders deliveries, queue depth delays starts), so binding the
    /// record any later hands this object's cycles to whichever
    /// invocation the simulated schedule happens to assemble first.
    pred: Option<Prediction>,
}

/// A formed invocation waiting in a core's ready queue.
#[derive(Clone, Debug)]
struct ReadyInvocation {
    task: TaskId,
    instance: InstanceId,
    objs: Vec<usize>,
    /// The invocation's profile record: the primary (param 0) object's
    /// release-time stamp when it has one (see [`SimObject::pred`]), or
    /// the task's next sequential record otherwise.
    pred: Prediction,
}

struct Simulator<'a> {
    spec: &'a ProgramSpec,
    graph: &'a GroupGraph,
    layout: &'a Layout,
    machine: &'a MachineDescription,
    opts: &'a SimOptions,
    profile: &'a Profile,
    markov: MarkovModel<'a>,
    router: Router,
    objects: Vec<SimObject>,
    /// Param sets: per instance, per (task, param) key.
    param_sets: Vec<Vec<VecDeque<usize>>>,
    /// (task, param) keys per instance (aligned with `param_sets`).
    param_keys: Vec<Vec<(TaskId, ParamIdx)>>,
    /// FIFO ready queue per core.
    ready: Vec<VecDeque<ReadyInvocation>>,
    /// Memoized stamping decision per `(class, flags)`: the unique
    /// primary-consumer task, if any (see [`SimObject::pred`]).
    stamp_memo: HashMap<(ClassId, u64), Option<TaskId>>,
    /// Core busy state: current invocation, its prediction, and its trace
    /// record id (when tracing).
    running: Vec<Option<(ReadyInvocation, Prediction, Option<usize>)>>,
    /// Event queue keyed by (time, sequence).
    events: BinaryHeap<Reverse<(Cycles, u64, EventKey)>>,
    seq: u64,
    now: Cycles,
    next_tag_hash: u64,
    trace: Vec<TraceTask>,
    trace_deps: Vec<DataDep>,
    last_on_core: Vec<Option<usize>>,
    invocations: usize,
    busy: Cycles,
    makespan: Cycles,
}

/// Orderable event payload (usize indexes into side tables).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKey {
    Arrival(usize),
    CoreFree(u32),
}

/// Simulates `layout` from scratch on the oracle. Same contract as
/// [`super::simulate`].
pub fn simulate(
    spec: &ProgramSpec,
    graph: &GroupGraph,
    layout: &Layout,
    profile: &Profile,
    machine: &MachineDescription,
    opts: &SimOptions,
) -> SimResult {
    Simulator::new(spec, graph, layout, profile, machine, opts).run()
}

impl<'a> Simulator<'a> {
    fn new(
        spec: &'a ProgramSpec,
        graph: &'a GroupGraph,
        layout: &'a Layout,
        profile: &'a Profile,
        machine: &'a MachineDescription,
        opts: &'a SimOptions,
    ) -> Self {
        // Precompute (task, param) slots per instance: every task of the
        // instance's group contributes one slot per parameter.
        let mut param_keys = Vec::with_capacity(layout.instances.len());
        let mut param_sets = Vec::with_capacity(layout.instances.len());
        for inst in &layout.instances {
            let group = &graph.groups[inst.group.index()];
            let mut keys = Vec::new();
            for task in &group.tasks {
                for p in 0..spec.task(*task).params.len() {
                    keys.push((*task, ParamIdx::new(p)));
                }
            }
            param_sets.push(vec![VecDeque::new(); keys.len()]);
            param_keys.push(keys);
        }
        Simulator {
            spec,
            graph,
            layout,
            machine,
            opts,
            profile,
            markov: if opts.replay {
                MarkovModel::new(profile)
            } else {
                MarkovModel::without_replay(profile)
            },
            router: Router::new(),
            objects: Vec::new(),
            param_sets,
            param_keys,
            stamp_memo: HashMap::new(),
            ready: vec![VecDeque::new(); layout.core_count],
            running: vec![None; layout.core_count],
            events: BinaryHeap::new(),
            seq: 0,
            now: 0,
            next_tag_hash: 1,
            trace: Vec::new(),
            trace_deps: Vec::new(),
            last_on_core: vec![None; layout.core_count],
            invocations: 0,
            busy: 0,
            makespan: 0,
        }
    }

    fn push_event(&mut self, time: Cycles, key: EventKey) {
        self.seq += 1;
        self.events.push(Reverse((time, self.seq, key)));
    }

    fn run(mut self) -> SimResult {
        // Inject the startup object.
        let startup_inst = self.layout.instances_of(self.graph.startup_group)[0];
        let flags = FlagSet::new().with(self.spec.startup.flag, true);
        let obj = self.objects.len();
        self.objects.push(SimObject {
            class: self.spec.startup.class,
            flags,
            home: startup_inst,
            tag_hash: None,
            producer: None,
            arrival: 0,
            consumed: false,
            pred: None,
        });
        self.stamp(obj);
        self.push_event(0, EventKey::Arrival(obj));

        while let Some(Reverse((time, _, key))) = self.events.pop() {
            if time > HORIZON {
                self.makespan = HORIZON;
                return self.finish(false);
            }
            self.now = time;
            self.makespan = self.makespan.max(time);
            match key {
                EventKey::Arrival(obj) => self.handle_arrival(obj),
                EventKey::CoreFree(core) => self.handle_core_free(CoreId(core)),
            }
        }
        self.finish(true)
    }

    fn finish(self, completed: bool) -> SimResult {
        let utilization = if self.makespan == 0 {
            0.0
        } else {
            self.busy as f64 / (self.makespan as f64 * self.layout.cores_used() as f64)
        };
        SimResult {
            makespan: self.makespan,
            completed,
            invocations: self.invocations,
            utilization,
            trace: if self.opts.collect_trace {
                Some(std::sync::Arc::new(ExecutionTrace {
                    tasks: self.trace,
                    deps: self.trace_deps,
                    makespan: self.makespan,
                }))
            } else {
                None
            },
        }
    }

    /// Binds the next replayed profile record to `obj` at release time.
    ///
    /// An object is *released* when it enters a new `(class, flags)`
    /// state: at allocation, at startup injection, and after every
    /// parameter transition. Release order across the simulation tracks
    /// the serial program order the profile recorded (a producer's
    /// allocations are stamped in program order before any transfer
    /// latency can reorder their arrivals), so when the state enables
    /// exactly one `(task, param 0)` dispatch entry the task's next
    /// sequential record belongs to *this* object — the same
    /// data-follows-object identity the executor gets for free by
    /// running real code. Ambiguous states (several enabled entries, or
    /// a non-primary parameter) are left unstamped and fall back to
    /// formation-order prediction.
    fn stamp(&mut self, obj: usize) {
        let class = self.objects[obj].class;
        let flags = self.objects[obj].flags;
        let key = (class, flags.bits());
        let task = match self.stamp_memo.get(&key) {
            Some(t) => *t,
            None => {
                let enabled = enabled_params(self.spec, class, flags);
                let t = match enabled.as_slice() {
                    // Never-profiled tasks can't be replayed — leave
                    // their objects unstamped (formation-order fallback).
                    [(t, p)] if p.index() == 0 && self.profile.task(*t).invocations() > 0 => {
                        Some(*t)
                    }
                    _ => None,
                };
                self.stamp_memo.insert(key, t);
                t
            }
        };
        self.objects[obj].pred = task.map(|t| self.markov.predict(t));
    }

    /// Delivers an object to its home instance's parameter sets and tries
    /// to form invocations.
    fn handle_arrival(&mut self, obj: usize) {
        let home = self.objects[obj].home;
        let class = self.objects[obj].class;
        let flags = self.objects[obj].flags;
        let mut touched = false;
        for (slot, (task, param)) in self.param_keys[home.index()].iter().enumerate() {
            let pspec = &self.spec.task(*task).params[param.index()];
            if pspec.class == class && pspec.guard.eval(flags) {
                self.param_sets[home.index()][slot].push_back(obj);
                touched = true;
            }
        }
        if touched {
            self.try_form_invocations(home);
        } else {
            // No local slot matches: forward to the consuming group.
            let hash = self.objects[obj].tag_hash;
            if let RouteDecision::Move(dest) = self.router.route_transition(
                self.spec,
                self.graph,
                self.layout,
                home,
                class,
                flags,
                hash,
            ) {
                let from_core = self.layout.core_of(home);
                let to_core = self.layout.core_of(dest);
                let cost = self
                    .machine
                    .transfer_cycles(from_core, to_core, PAYLOAD_WORDS);
                self.objects[obj].home = dest;
                self.objects[obj].arrival = self.now + cost;
                self.push_event(self.now + cost, EventKey::Arrival(obj));
            }
        }
        let core = self.layout.core_of(home);
        self.maybe_start(core);
    }

    /// Forms as many ready invocations at `instance` as possible.
    fn try_form_invocations(&mut self, instance: InstanceId) {
        let core = self.layout.core_of(instance);
        loop {
            let mut formed = false;
            let tasks: Vec<TaskId> = {
                let group =
                    &self.graph.groups[self.layout.instances[instance.index()].group.index()];
                group.tasks.clone()
            };
            for task in tasks {
                if let Some(objs) = self.match_task(instance, task) {
                    for &o in &objs {
                        self.objects[o].consumed = true;
                    }
                    // The primary object's release-time stamp is this
                    // invocation's record; stamping guarantees a stamped
                    // object can only be consumed by the stamped task.
                    let pred = match objs.first().and_then(|&o| self.objects[o].pred.take()) {
                        Some(p) => p,
                        None => self.markov.predict(task),
                    };
                    self.ready[core.index()].push_back(ReadyInvocation {
                        task,
                        instance,
                        objs,
                        pred,
                    });
                    formed = true;
                }
            }
            if !formed {
                break;
            }
        }
    }

    /// Attempts to assemble one invocation of `task` at `instance`:
    /// a live object per parameter, tag-consistent.
    fn match_task(&mut self, instance: InstanceId, task: TaskId) -> Option<Vec<usize>> {
        let tspec = self.spec.task(task);
        let n = tspec.params.len();
        let keys = &self.param_keys[instance.index()];
        let mut chosen: Vec<usize> = Vec::with_capacity(n);
        let mut picked: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut required_hash: Option<u64> = None;
        for p in 0..n {
            let slot = keys
                .iter()
                .position(|(t, pi)| *t == task && pi.index() == p)
                .expect("param slot exists");
            let set = &mut self.param_sets[instance.index()][slot];
            // Drop stale entries lazily.
            let pspec = &tspec.params[p];
            let mut found = None;
            let mut scan = 0;
            while scan < set.len() {
                let cand = set[scan];
                let o = &self.objects[cand];
                if o.consumed || !pspec.guard.eval(o.flags) || chosen.contains(&cand) {
                    if o.consumed || !pspec.guard.eval(o.flags) {
                        set.remove(scan);
                        continue;
                    }
                    scan += 1;
                    continue;
                }
                // Tag consistency across constrained parameters.
                if !pspec.tags.is_empty() {
                    match (required_hash, o.tag_hash) {
                        (_, None) => {
                            scan += 1;
                            continue;
                        }
                        (Some(h), Some(oh)) if h != oh => {
                            scan += 1;
                            continue;
                        }
                        _ => {}
                    }
                }
                found = Some((scan, cand));
                break;
            }
            match found {
                Some((idx, cand)) => {
                    set.remove(idx);
                    if !pspec.tags.is_empty() {
                        required_hash = self.objects[cand].tag_hash;
                    }
                    chosen.push(cand);
                    picked.push((slot, idx));
                }
                None => {
                    // A failed pick leaves every set as it was, minus
                    // stale entries: each pick goes back where it was.
                    for ((slot, idx), o) in picked.into_iter().zip(chosen) {
                        self.param_sets[instance.index()][slot].insert(idx, o);
                    }
                    return None;
                }
            }
        }
        if chosen.is_empty() {
            return None;
        }
        Some(chosen)
    }

    /// Starts the next ready invocation on `core` if it is idle.
    fn maybe_start(&mut self, core: CoreId) {
        if self.running[core.index()].is_some() {
            return;
        }
        let Some(inv) = self.ready[core.index()].pop_front() else {
            return;
        };
        let pred = inv.pred.clone();
        let duration = pred.cycles + DISPATCH_OVERHEAD;
        let start = self.now;
        let end = start + duration;
        self.busy += duration;
        self.invocations += 1;

        if self.opts.collect_trace {
            let dep_start = self.trace_deps.len() as u32;
            for &o in &inv.objs {
                self.trace_deps.push(DataDep {
                    producer: self.objects[o].producer,
                    arrival: self.objects[o].arrival,
                });
            }
            let deps = crate::trace::DepRange {
                start: dep_start,
                len: inv.objs.len() as u32,
            };
            let id = self.trace.len();
            self.trace.push(TraceTask {
                id,
                task: inv.task,
                instance: inv.instance,
                core,
                start,
                end,
                deps,
                prev_on_core: self.last_on_core[core.index()],
            });
            self.last_on_core[core.index()] = Some(id);
        }

        // Completion is handled at CoreFree.
        let trace_id = if self.opts.collect_trace {
            Some(self.trace.len() - 1)
        } else {
            None
        };
        self.running[core.index()] = Some((inv, pred, trace_id));
        self.push_event(end, EventKey::CoreFree(core.0));
    }

    fn handle_core_free(&mut self, core: CoreId) {
        let (inv, pred, trace_id) = self.running[core.index()].take().expect("core was running");
        let tspec = self.spec.task(inv.task);
        let exit = tspec.exit(pred.exit);

        // Tag hash for routing: inherit the first tagged parameter's hash,
        // or mint one if the task creates tags.
        let param_hash = inv.objs.iter().find_map(|&o| self.objects[o].tag_hash);
        let minted_hash = if tspec.tag_vars.iter().any(|v| !v.from_param) {
            self.next_tag_hash += 1;
            Some(self.next_tag_hash)
        } else {
            None
        };

        // Parameter transitions: every surviving object is re-released in
        // its new flag state and re-stamped (release order, not delivery
        // order, carries the profile's serial identity).
        for (p, &obj) in inv.objs.iter().enumerate() {
            let new_flags = exit.apply_flags(ParamIdx::new(p), self.objects[obj].flags);
            self.objects[obj].flags = new_flags;
            self.objects[obj].consumed = false;
            self.objects[obj].producer = trace_id;
            let class = self.objects[obj].class;
            let hash = self.objects[obj].tag_hash;
            match self.router.route_transition(
                self.spec,
                self.graph,
                self.layout,
                self.objects[obj].home,
                class,
                new_flags,
                hash,
            ) {
                RouteDecision::Stay => {
                    self.stamp(obj);
                    self.objects[obj].arrival = self.now;
                    self.push_event(self.now, EventKey::Arrival(obj));
                }
                RouteDecision::Move(dest) => {
                    self.stamp(obj);
                    let from_core = self.layout.core_of(self.objects[obj].home);
                    let to_core = self.layout.core_of(dest);
                    let cost = self
                        .machine
                        .transfer_cycles(from_core, to_core, PAYLOAD_WORDS);
                    self.objects[obj].home = dest;
                    self.objects[obj].arrival = self.now + cost;
                    self.push_event(self.now + cost, EventKey::Arrival(obj));
                }
                RouteDecision::Dead => {
                    self.objects[obj].consumed = true;
                    self.objects[obj].pred = None;
                }
            }
        }

        // Allocations.
        for (site, count) in &pred.allocs {
            let site_spec = &tspec.alloc_sites[site.index()];
            let tagged = !site_spec.bound_tags.is_empty();
            for _ in 0..*count {
                let hash = if tagged {
                    minted_hash.or(param_hash)
                } else {
                    None
                };
                let dest = self.router.route_new(
                    self.spec,
                    self.graph,
                    self.layout,
                    inv.instance,
                    inv.task,
                    *site,
                    hash,
                );
                let from_core = self.layout.core_of(inv.instance);
                let to_core = self.layout.core_of(dest);
                let cost = self
                    .machine
                    .transfer_cycles(from_core, to_core, PAYLOAD_WORDS);
                let obj = self.objects.len();
                self.objects.push(SimObject {
                    class: site_spec.class,
                    flags: site_spec.initial_flag_set(),
                    home: dest,
                    tag_hash: hash,
                    producer: trace_id,
                    arrival: self.now + cost,
                    consumed: false,
                    pred: None,
                });
                self.stamp(obj);
                self.push_event(self.now + cost, EventKey::Arrival(obj));
            }
        }

        self.maybe_start(core);
    }
}

#[cfg(test)]
mod tests {
    use crate::groups::GroupGraph;
    use crate::layout::Layout;
    use crate::preprocess::scc_tree_transform;
    use crate::sim::{simulate, SimOptions, SimResult};
    use crate::testutil::kc_setup;
    use crate::transforms::compute_replication;
    use bamboo_machine::{CoreId, MachineDescription};

    fn sim_kc(core_count: usize) -> (SimResult, u64) {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::n_cores(core_count.max(1));
        let repl = compute_replication(&spec, &graph, &profile, core_count);
        let process = spec.task_by_name("processText").unwrap();
        let text_group = graph.group_of_task(process).unwrap();
        let cores: Vec<Vec<CoreId>> = graph
            .groups
            .iter()
            .enumerate()
            .map(|(g, _)| {
                (0..repl.copies[g])
                    .map(|c| {
                        if crate::groups::GroupId(g as u32) == text_group {
                            CoreId::new(c % core_count)
                        } else {
                            CoreId::new(0)
                        }
                    })
                    .collect()
            })
            .collect();
        let layout = Layout::new(&graph, &repl, core_count, &cores);
        let opts = SimOptions {
            collect_trace: true,
            ..SimOptions::default()
        };
        let result = simulate(&spec, &graph, &layout, &profile, &machine, &opts);
        (result, profile.total_cycles)
    }

    #[test]
    fn single_core_simulation_completes_all_invocations() {
        let (result, _) = sim_kc(1);
        assert!(result.completed);
        // 1 startup + 4 process + 4 merge = 9.
        assert_eq!(result.invocations, 9);
    }

    #[test]
    fn multi_core_is_faster_than_single_core() {
        let (one, _) = sim_kc(1);
        let (four, _) = sim_kc(4);
        assert!(four.completed);
        assert!(
            four.makespan < one.makespan,
            "{} !< {}",
            four.makespan,
            one.makespan
        );
    }

    #[test]
    fn single_core_makespan_close_to_serial_cycles() {
        let (result, serial) = sim_kc(1);
        // Makespan = serial work + dispatch overheads; within 20%.
        assert!(result.makespan >= serial);
        assert!((result.makespan as f64) < serial as f64 * 1.2);
    }

    #[test]
    fn trace_is_consistent() {
        let (result, _) = sim_kc(4);
        let trace = result.trace.expect("trace requested");
        assert_eq!(trace.tasks.len(), result.invocations);
        for t in &trace.tasks {
            assert!(t.start <= t.end);
            assert!(t.start >= trace.data_ready(t));
            if let Some(prev) = t.prev_on_core {
                assert!(trace.tasks[prev].end <= t.start);
                assert_eq!(trace.tasks[prev].core, t.core);
            }
        }
        assert_eq!(trace.makespan, result.makespan);
    }

    #[test]
    fn simulation_is_deterministic() {
        let (a, _) = sim_kc(4);
        let (b, _) = sim_kc(4);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.invocations, b.invocations);
    }
}
