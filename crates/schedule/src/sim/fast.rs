//! The arena/SoA simulation engine — the simulator.
//!
//! Bit-identical to the `super::reference` oracle, but built to be called
//! hundreds of times per DSA run. All per-simulation setup the oracle
//! pays on every call is either hoisted into a shared [`SimProgram`]
//! (the routing table, slot tables, payload sizes, transfer-cost
//! matrices) or kept in the [`SimEngine`] across calls (prediction
//! streams, object/event arenas that reset without deallocating).
//!
//! The two load-bearing observations:
//!
//! * **Prediction streams are layout-invariant.** The Markov model's
//!   per-task state advances only on `predict(t)` calls for that task,
//!   so the *i*-th prediction of task *t* is the same in every candidate
//!   simulation regardless of how the event interleaving differs. The
//!   engine materializes each task's stream lazily once and every
//!   simulation just walks a cursor over it — no per-call model state,
//!   no per-prediction allocation.
//! * **Routing is static.** Where an object goes next depends only on
//!   `(spec, graph)` and the layout's instances, so the engine routes
//!   through the one [`RouteTable`] the runtime uses; only the
//!   round-robin counters (per-simulation state) reset per call.
//!
//! Object state is struct-of-arrays (`obj_*` vectors) and invocations
//! live in a flat arena, so the event-loop hot path walks contiguous
//! memory instead of chasing `Vec<VecDeque<Box<…>>>` indirections.

use crate::formation::{self, Miss, Probe, SlotTable};
use crate::groups::GroupGraph;
use crate::layout::{InstanceId, Layout, RouteDecision};
use crate::routing::{bump, RouteTable};
use crate::sim::{SimOptions, SimResult};
use crate::trace::{DataDep, ExecutionTrace, TraceTask};
use bamboo_lang::ids::{ClassId, ParamIdx, TaskId};
use bamboo_lang::spec::{FlagSet, ProgramSpec, MAX_PARAMS};
use bamboo_machine::{CoreId, MachineDescription};
use bamboo_profile::{Cycles, MarkovModel, Profile};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

const NONE_U32: u32 = u32::MAX;

/// Packed event key: `time (64) | seq (32) | payload (32)`, ordered by
/// `(time, seq)` because `seq` is unique per event. A single `u128`
/// comparison replaces the tuple's field-by-field compare in the event
/// heap, and the heap elements shrink to one machine-word pair — both
/// measurable in the event loop, which is the engine's hottest path.
#[inline]
fn pack_event(time: Cycles, seq: u32, payload: u32) -> u128 {
    ((time as u128) << 64) | ((seq as u128) << 32) | payload as u128
}

/// Payload bit 31 selects the event kind; the low 31 bits carry the
/// object id (arrivals) or core id (core-free).
const EV_CORE_FREE: u32 = 1 << 31;

/// Immutable tables shared by every simulation of one `(spec, graph,
/// profile, machine, opts)` tuple — i.e. by all candidate evaluations of
/// one DSA run. Layout-independent by construction; `Sync`, so worker
/// engines on different threads can share one program.
pub struct SimProgram<'a> {
    pub(crate) spec: &'a ProgramSpec,
    pub(crate) graph: &'a GroupGraph,
    pub(crate) profile: &'a Profile,
    pub(crate) machine: &'a MachineDescription,
    pub(crate) opts: SimOptions,
    /// Slot table per group, in the oracle's slot order.
    slot_tables: Vec<SlotTable>,
    routes: RouteTable,
    n_tasks: usize,
    /// Per-task: was the task ever profiled (can its record be replayed)?
    task_profiled: Vec<bool>,
    /// Per-task: does the task mint a fresh tag instance?
    task_mints_tag: Vec<bool>,
    /// Payload words per class (`SimOptions::payload_words_of`).
    class_words: Vec<u64>,
    startup_flags: FlagSet,
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
        let class_words = (0..spec.classes.len())
            .map(|c| opts.payload_words_of(ClassId::new(c)))
            .collect();
        SimProgram {
            spec,
            graph,
            profile,
            machine,
            opts: opts.clone(),
            slot_tables: SlotTable::per_group(spec, graph),
            routes: RouteTable::new(spec, graph),
            n_tasks,
            task_profiled: (0..n_tasks)
                .map(|t| profile.task(TaskId::new(t)).invocations() > 0)
                .collect(),
            task_mints_tag: spec
                .tasks
                .iter()
                .map(|task| task.tag_vars.iter().any(|v| !v.from_param))
                .collect(),
            class_words,
            startup_flags: FlagSet::new().with(spec.startup.flag, true),
        }
    }
}

/// A reusable simulation engine over one [`SimProgram`].
///
/// Not `Sync` — each worker thread owns its own engine (they duplicate
/// the lazily-grown prediction streams, which is cheap and keeps results
/// deterministic without any cross-thread coordination).
pub struct SimEngine<'a> {
    program: &'a SimProgram<'a>,
    // Persistent across simulations: the prediction streams.
    markov: MarkovModel<'a>,
    streams: Vec<Vec<bamboo_profile::Prediction>>,
    // Layout-shape tables (rebuilt when the instance structure changes).
    shape: Vec<u32>,
    inst_slot_base: Vec<u32>,
    core_count: usize,
    xfer_base: Vec<Cycles>,
    xfer_word: Cycles,
    // Per-simulation state, reset (not reallocated) every call.
    inst_core: Vec<u32>,
    obj_class: Vec<ClassId>,
    obj_flags: Vec<FlagSet>,
    obj_home: Vec<u32>,
    obj_tag: Vec<u64>,
    obj_producer: Vec<u32>,
    obj_arrival: Vec<Cycles>,
    obj_consumed: Vec<bool>,
    obj_pred: Vec<(u32, u32)>,
    param_sets: Vec<VecDeque<u32>>,
    ready: Vec<VecDeque<u32>>,
    inv_task: Vec<u32>,
    inv_instance: Vec<u32>,
    inv_objs: Vec<(u32, u32)>,
    inv_obj_pool: Vec<u32>,
    inv_pred: Vec<(u32, u32)>,
    running: Vec<(u32, u32)>,
    events: BinaryHeap<Reverse<u128>>,
    /// Zero-delay events scheduled *at the current timestamp* bypass the
    /// heap: they are already in `(time, seq)` order relative to each
    /// other (FIFO = seq order), so only a peek-compare against the heap
    /// head is needed to interleave them exactly where the heap would
    /// have popped them. Local (same-core) object hand-offs make this
    /// the majority of all events.
    now_events: VecDeque<u64>,
    cursors: Vec<u32>,
    /// Round-robin counters per `(instance, alloc site)` and per
    /// `(instance, task)`, indexed by the routing table.
    site_rr: Vec<usize>,
    flow_rr: Vec<usize>,
    last_on_core: Vec<u32>,
    trace: Vec<TraceTask>,
    trace_deps: Vec<DataDep>,
    collect_trace: bool,
    seq: u32,
    now: Cycles,
    next_tag_hash: u64,
    invocations: usize,
    busy: Cycles,
    makespan: Cycles,
}

impl<'a> SimEngine<'a> {
    /// Creates an engine over `program` with empty prediction streams.
    pub fn new(program: &'a SimProgram<'a>) -> Self {
        SimEngine {
            program,
            markov: if program.opts.replay {
                MarkovModel::new(program.profile)
            } else {
                MarkovModel::without_replay(program.profile)
            },
            streams: vec![Vec::new(); program.n_tasks],
            shape: Vec::new(),
            inst_slot_base: Vec::new(),
            core_count: 0,
            xfer_base: Vec::new(),
            xfer_word: 0,
            inst_core: Vec::new(),
            obj_class: Vec::new(),
            obj_flags: Vec::new(),
            obj_home: Vec::new(),
            obj_tag: Vec::new(),
            obj_producer: Vec::new(),
            obj_arrival: Vec::new(),
            obj_consumed: Vec::new(),
            obj_pred: Vec::new(),
            param_sets: Vec::new(),
            ready: Vec::new(),
            inv_task: Vec::new(),
            inv_instance: Vec::new(),
            inv_objs: Vec::new(),
            inv_obj_pool: Vec::new(),
            inv_pred: Vec::new(),
            running: Vec::new(),
            events: BinaryHeap::new(),
            now_events: VecDeque::new(),
            cursors: vec![0; program.n_tasks],
            site_rr: Vec::new(),
            flow_rr: Vec::new(),
            last_on_core: Vec::new(),
            trace: Vec::new(),
            trace_deps: Vec::new(),
            collect_trace: false,
            seq: 0,
            now: 0,
            next_tag_hash: 1,
            invocations: 0,
            busy: 0,
            makespan: 0,
        }
    }

    /// Rebuilds the layout-shape tables when the instance structure
    /// (instance → group assignment, core count) changes. Within one DSA
    /// run every candidate shares one shape, so this runs once.
    fn ensure_shape(&mut self, layout: &Layout) {
        let program = self.program;
        let same_shape = self.shape.len() == layout.instances.len()
            && layout
                .instances
                .iter()
                .zip(&self.shape)
                .all(|(inst, &g)| inst.group.0 == g)
            && self.core_count == layout.core_count;
        if same_shape {
            return;
        }
        self.shape = layout.instances.iter().map(|inst| inst.group.0).collect();
        self.inst_slot_base = Vec::with_capacity(layout.instances.len());
        let mut total_slots = 0u32;
        for inst in &layout.instances {
            self.inst_slot_base.push(total_slots);
            total_slots += program.slot_tables[inst.group.index()].slots().len() as u32;
        }
        self.param_sets = vec![VecDeque::new(); total_slots as usize];
        let (flows, sites) = program.routes.counter_lens(layout.instances.len());
        self.flow_rr = vec![0; flows];
        self.site_rr = vec![0; sites];
        if self.core_count != layout.core_count {
            self.core_count = layout.core_count;
            self.ready = vec![VecDeque::new(); layout.core_count];
            self.running = vec![(0, NONE_U32); layout.core_count];
            self.last_on_core = vec![NONE_U32; layout.core_count];
            // Transfer costs are linear in payload words; memoize the
            // fixed (base + hops) part per core pair and the per-word
            // slope once.
            let cc = layout.core_count;
            let mut base = vec![0; cc * cc];
            let mut word = 0;
            for f in 0..cc {
                for t in 0..cc {
                    if f != t {
                        let c0 = program
                            .machine
                            .transfer_cycles(CoreId::new(f), CoreId::new(t), 0);
                        let c1 = program
                            .machine
                            .transfer_cycles(CoreId::new(f), CoreId::new(t), 1);
                        base[f * cc + t] = c0;
                        word = c1 - c0;
                    }
                }
            }
            self.xfer_base = base;
            self.xfer_word = word;
        }
    }

    #[inline]
    fn transfer(&self, from: u32, to: u32, words: u64) -> Cycles {
        if from == to {
            0
        } else {
            self.xfer_base[from as usize * self.core_count + to as usize] + words * self.xfer_word
        }
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
    fn push_event(&mut self, time: Cycles, payload: u32) {
        self.seq += 1;
        if time == self.now {
            self.now_events
                .push_back(((self.seq as u64) << 32) | payload as u64);
        } else {
            self.events
                .push(Reverse(pack_event(time, self.seq, payload)));
        }
    }

    /// Pops the globally next event in `(time, seq)` order, merging the
    /// current-timestamp FIFO with the heap. FIFO entries all carry
    /// `time == self.now`; the heap may still hold same-timestamp events
    /// with smaller sequence numbers (pushed from earlier timestamps),
    /// which must pop first — the packed-key compare settles it exactly.
    #[inline]
    fn next_event(&mut self) -> Option<u128> {
        match (self.events.peek(), self.now_events.front()) {
            (Some(&Reverse(heaped)), Some(&queued)) => {
                let fifo_key = ((self.now as u128) << 64) | queued as u128;
                if heaped < fifo_key {
                    self.events.pop();
                    Some(heaped)
                } else {
                    self.now_events.pop_front();
                    Some(fifo_key)
                }
            }
            (Some(&Reverse(heaped)), None) => {
                self.events.pop();
                Some(heaped)
            }
            (None, Some(&queued)) => {
                let fifo_key = ((self.now as u128) << 64) | queued as u128;
                self.now_events.pop_front();
                Some(fifo_key)
            }
            (None, None) => None,
        }
    }

    fn reset(&mut self, layout: &Layout) {
        self.ensure_shape(layout);
        self.inst_core.clear();
        self.inst_core
            .extend(layout.instances.iter().map(|inst| inst.core.0));
        self.obj_class.clear();
        self.obj_flags.clear();
        self.obj_home.clear();
        self.obj_tag.clear();
        self.obj_producer.clear();
        self.obj_arrival.clear();
        self.obj_consumed.clear();
        self.obj_pred.clear();
        for set in &mut self.param_sets {
            set.clear();
        }
        for queue in &mut self.ready {
            queue.clear();
        }
        self.inv_task.clear();
        self.inv_instance.clear();
        self.inv_objs.clear();
        self.inv_obj_pool.clear();
        self.inv_pred.clear();
        self.running.iter_mut().for_each(|r| *r = (0, NONE_U32));
        self.events.clear();
        self.now_events.clear();
        self.cursors.iter_mut().for_each(|c| *c = 0);
        self.site_rr.iter_mut().for_each(|c| *c = 0);
        self.flow_rr.iter_mut().for_each(|c| *c = 0);
        self.last_on_core.iter_mut().for_each(|l| *l = NONE_U32);
        self.trace.clear();
        self.trace_deps.clear();
        self.seq = 0;
        self.now = 0;
        self.next_tag_hash = 1;
        self.invocations = 0;
        self.busy = 0;
        self.makespan = 0;
    }

    /// Runs one simulation of `layout`, reusing all engine state.
    /// `collect_trace` overrides the program's `opts.collect_trace`.
    pub fn simulate(&mut self, layout: &Layout, collect_trace: bool) -> SimResult {
        self.reset(layout);
        self.collect_trace = collect_trace;
        let program = self.program;

        // Inject the startup object.
        let startup_inst = layout.instances_of(program.graph.startup_group)[0];
        let obj = self.push_object(
            program.spec.startup.class,
            program.startup_flags,
            startup_inst.0,
            0,
            NONE_U32,
            0,
        );
        self.stamp(obj);
        self.push_event(0, obj);

        let mut completed = true;
        while let Some(key) = self.next_event() {
            let time = (key >> 64) as Cycles;
            if time > program.opts.horizon {
                self.makespan = program.opts.horizon;
                completed = false;
                break;
            }
            self.now = time;
            self.makespan = self.makespan.max(time);
            let payload = key as u32;
            if payload & EV_CORE_FREE == 0 {
                self.handle_arrival(layout, payload);
            } else {
                self.handle_core_free(layout, payload & !EV_CORE_FREE);
            }
        }
        self.finish(layout, completed)
    }

    fn finish(&mut self, layout: &Layout, completed: bool) -> SimResult {
        let utilization = if self.makespan == 0 {
            0.0
        } else {
            self.busy as f64 / (self.makespan as f64 * layout.cores_used() as f64)
        };
        SimResult {
            makespan: self.makespan,
            completed,
            invocations: self.invocations,
            utilization,
            trace: if self.collect_trace {
                Some(Arc::new(ExecutionTrace {
                    tasks: std::mem::take(&mut self.trace),
                    deps: std::mem::take(&mut self.trace_deps),
                    makespan: self.makespan,
                }))
            } else {
                None
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn push_object(
        &mut self,
        class: ClassId,
        flags: FlagSet,
        home: u32,
        tag: u64,
        producer: u32,
        arrival: Cycles,
    ) -> u32 {
        let id = self.obj_class.len() as u32;
        self.obj_class.push(class);
        self.obj_flags.push(flags);
        self.obj_home.push(home);
        self.obj_tag.push(tag);
        self.obj_producer.push(producer);
        self.obj_arrival.push(arrival);
        self.obj_consumed.push(false);
        self.obj_pred.push((0, 0));
        id
    }

    /// Binds the next replayed profile record to `obj` at release time
    /// (see the oracle's `stamp` in `super::reference` for the full
    /// rationale).
    fn stamp(&mut self, obj: u32) {
        let program = self.program;
        let o = obj as usize;
        // Never-profiled tasks can't be replayed — leave their objects
        // unstamped (formation-order fallback).
        let task = program
            .routes
            .sole_consumer(self.obj_class[o], self.obj_flags[o])
            .filter(|t| program.task_profiled[t.index()]);
        self.obj_pred[o] = match task {
            Some(t) => {
                let t = t.index() as u32;
                let at = self.take_pred(t);
                (t + 1, at)
            }
            None => (0, 0),
        };
    }

    /// Routes an object of `class` whose flags just became `flags` at
    /// `home`; a zero `tag` is untagged.
    fn route_transition(
        &mut self,
        layout: &Layout,
        home: u32,
        class: ClassId,
        flags: FlagSet,
        tag: u64,
    ) -> RouteDecision {
        let flow_rr = &mut self.flow_rr;
        self.program.routes.route_transition(
            layout,
            InstanceId(home),
            class,
            flags,
            (tag != 0).then_some(tag),
            |at| bump(&mut flow_rr[at]),
        )
    }

    /// Delivers an object to its home instance's parameter sets and
    /// tries to form invocations.
    fn handle_arrival(&mut self, layout: &Layout, obj: u32) {
        let program = self.program;
        let home = self.obj_home[obj as usize];
        let class = self.obj_class[obj as usize];
        let flags = self.obj_flags[obj as usize];
        let group = self.shape[home as usize] as usize;
        let base = self.inst_slot_base[home as usize] as usize;
        let mut touched = false;
        for offset in program.slot_tables[group].accepting(class, flags) {
            self.param_sets[base + offset].push_back(obj);
            touched = true;
        }
        if touched {
            self.try_form_invocations(home);
        } else {
            // No local slot matches: forward to the consuming group.
            let tag = self.obj_tag[obj as usize];
            if let RouteDecision::Move(dest) =
                self.route_transition(layout, home, class, flags, tag)
            {
                self.send_to(obj, dest.0);
            }
        }
        let core = self.inst_core[home as usize];
        self.maybe_start(core);
    }

    /// Sends `obj` from its home instance to `dest` (which may be the
    /// home itself): it arrives there after the transfer.
    fn send_to(&mut self, obj: u32, dest: u32) {
        let o = obj as usize;
        let words = self.program.class_words[self.obj_class[o].index()];
        let from = self.inst_core[self.obj_home[o] as usize];
        let cost = self.transfer(from, self.inst_core[dest as usize], words);
        self.obj_home[o] = dest;
        self.obj_arrival[o] = self.now + cost;
        self.push_event(self.now + cost, obj);
    }

    /// Forms as many ready invocations at `instance` as possible.
    ///
    /// The scan repeats until a full pass forms nothing. A task whose
    /// pick missed with [`Miss::Empty`] — some parameter slot held no
    /// live guard-passing object at all — is skipped for the rest of the
    /// call: parameter sets only shrink while forming (objects are
    /// consumed, never released, until the invocation completes), so an
    /// empty slot stays empty. A [`Miss::Blocked`] (tag consistency or
    /// object sharing) is *not* permanent — consuming a mismatched head
    /// object can unblock it — and stays unmasked.
    fn try_form_invocations(&mut self, instance: u32) {
        let program = self.program;
        let core = self.inst_core[instance as usize];
        let group = self.shape[instance as usize] as usize;
        let mut dead_mask: u64 = 0;
        loop {
            let mut formed = false;
            for (ti, &task) in program.graph.groups[group].tasks.iter().enumerate() {
                if ti < 64 && dead_mask & (1 << ti) != 0 {
                    continue;
                }
                let objs_start = self.inv_obj_pool.len();
                if let Err(miss) = self.match_task(instance, task) {
                    if miss == Miss::Empty && ti < 64 {
                        dead_mask |= 1 << ti;
                    }
                    continue;
                }
                let n = self.inv_obj_pool.len() - objs_start;
                // The primary object's release-time stamp is this
                // invocation's record; stamping guarantees a stamped
                // object can only be consumed by the stamped task.
                let first = self.inv_obj_pool[objs_start] as usize;
                let pred = if self.obj_pred[first].0 != 0 {
                    let (t, at) = self.obj_pred[first];
                    self.obj_pred[first] = (0, 0);
                    (t - 1, at)
                } else {
                    let t = task.index() as u32;
                    let at = self.take_pred(t);
                    (t, at)
                };
                let inv = self.inv_task.len() as u32;
                self.inv_task.push(task.index() as u32);
                self.inv_instance.push(instance);
                self.inv_objs.push((objs_start as u32, n as u32));
                self.inv_pred.push(pred);
                self.ready[core as usize].push_back(inv);
                formed = true;
            }
            if !formed {
                break;
            }
        }
    }

    /// Forms one invocation of `task` at `instance` when its parameter
    /// sets hold a live, tag-consistent object per parameter: the chosen
    /// objects are marked consumed and appended to the invocation object
    /// pool in parameter order. Tags compare by hash; an object sitting
    /// in several of the task's slots is picked at most once.
    fn match_task(&mut self, instance: u32, task: TaskId) -> Result<(), Miss> {
        let table = &self.program.slot_tables[self.shape[instance as usize] as usize];
        let span = table.task_slots(task);
        let slots = &table.slots()[span.clone()];
        let base = self.inst_slot_base[instance as usize] as usize;
        let sets = &mut self.param_sets[base + span.start..base + span.end];
        let (consumed, flags, tags) = (&self.obj_consumed, &self.obj_flags, &self.obj_tag);
        let mut chosen = [0u32; MAX_PARAMS];
        let mut n = 0;
        let mut required_hash = 0u64;
        let picked = formation::pick(sets, |p, &cand| {
            let slot = &slots[p];
            let o = cand as usize;
            if consumed[o] || !slot.guard.eval(flags[o]) {
                return Probe::Stale;
            }
            if chosen[..n].contains(&cand) {
                return Probe::Skip;
            }
            if slot.tagged {
                let tag = tags[o];
                if tag == 0 || (required_hash != 0 && required_hash != tag) {
                    return Probe::Skip;
                }
                required_hash = tag;
            }
            chosen[n] = cand;
            n += 1;
            Probe::Fits
        })?;
        for obj in picked.take(sets) {
            self.obj_consumed[obj as usize] = true;
            self.inv_obj_pool.push(obj);
        }
        Ok(())
    }

    /// Starts the next ready invocation on `core` if it is idle.
    fn maybe_start(&mut self, core: u32) {
        if self.running[core as usize].0 != 0 {
            return;
        }
        let Some(inv) = self.ready[core as usize].pop_front() else {
            return;
        };
        let (pt, pi) = self.inv_pred[inv as usize];
        let duration =
            self.streams[pt as usize][pi as usize].cycles + self.program.opts.dispatch_overhead;
        let start = self.now;
        let end = start + duration;
        self.busy += duration;
        self.invocations += 1;

        let trace_id = if self.collect_trace {
            let (objs_start, objs_len) = self.inv_objs[inv as usize];
            let dep_start = self.trace_deps.len() as u32;
            for i in objs_start..objs_start + objs_len {
                let o = self.inv_obj_pool[i as usize];
                self.trace_deps.push(DataDep {
                    producer: match self.obj_producer[o as usize] {
                        NONE_U32 => None,
                        p => Some(p as usize),
                    },
                    arrival: self.obj_arrival[o as usize],
                });
            }
            let deps = crate::trace::DepRange {
                start: dep_start,
                len: objs_len,
            };
            let id = self.trace.len();
            self.trace.push(TraceTask {
                id,
                task: TaskId::new(self.inv_task[inv as usize] as usize),
                instance: InstanceId(self.inv_instance[inv as usize]),
                core: CoreId(core),
                start,
                end,
                deps,
                prev_on_core: match self.last_on_core[core as usize] {
                    NONE_U32 => None,
                    p => Some(p as usize),
                },
            });
            self.last_on_core[core as usize] = id as u32;
            id as u32
        } else {
            NONE_U32
        };

        // Completion is handled at CoreFree.
        self.running[core as usize] = (inv + 1, trace_id);
        self.push_event(end, EV_CORE_FREE | core);
    }

    fn handle_core_free(&mut self, layout: &Layout, core: u32) {
        let program = self.program;
        let (inv_plus, trace_id) =
            std::mem::replace(&mut self.running[core as usize], (0, NONE_U32));
        assert!(inv_plus != 0, "core was running");
        let inv = (inv_plus - 1) as usize;
        let task = self.inv_task[inv];
        let instance = self.inv_instance[inv];
        let (pt, pi) = self.inv_pred[inv];
        let exit_id = self.streams[pt as usize][pi as usize].exit;
        let tspec = program.spec.task(TaskId::new(task as usize));
        let exit = tspec.exit(exit_id);
        let (objs_start, objs_len) = self.inv_objs[inv];
        let objs = objs_start as usize..(objs_start + objs_len) as usize;

        // Tag hash for routing: inherit the first tagged parameter's
        // hash, or mint one if the task creates tags.
        let param_hash = self.inv_obj_pool[objs.clone()]
            .iter()
            .map(|&o| self.obj_tag[o as usize])
            .find(|&t| t != 0)
            .unwrap_or(0);
        let minted_hash = if program.task_mints_tag[task as usize] {
            self.next_tag_hash += 1;
            self.next_tag_hash
        } else {
            0
        };

        // Parameter transitions: every surviving object is re-released
        // in its new flag state and re-stamped (release order, not
        // delivery order, carries the profile's serial identity).
        for p in 0..objs_len as usize {
            let obj = self.inv_obj_pool[objs_start as usize + p] as usize;
            let new_flags = exit.apply_flags(ParamIdx::new(p), self.obj_flags[obj]);
            self.obj_flags[obj] = new_flags;
            self.obj_consumed[obj] = false;
            if self.collect_trace {
                self.obj_producer[obj] = trace_id;
            }
            let class = self.obj_class[obj];
            let tag = self.obj_tag[obj];
            let home = self.obj_home[obj];
            match self.route_transition(layout, home, class, new_flags, tag) {
                RouteDecision::Stay => {
                    self.stamp(obj as u32);
                    self.send_to(obj as u32, home);
                }
                RouteDecision::Move(dest) => {
                    self.stamp(obj as u32);
                    self.send_to(obj as u32, dest.0);
                }
                RouteDecision::Dead => {
                    self.obj_consumed[obj] = true;
                    self.obj_pred[obj] = (0, 0);
                }
            }
        }

        // Allocations.
        let n_allocs = self.streams[pt as usize][pi as usize].allocs.len();
        for ai in 0..n_allocs {
            let (site, count) = self.streams[pt as usize][pi as usize].allocs[ai];
            let site_spec = &tspec.alloc_sites[site.index()];
            let tagged = !site_spec.bound_tags.is_empty();
            let (class, flags) = (site_spec.class, site_spec.initial_flag_set());
            let words = program.class_words[class.index()];
            for _ in 0..count {
                let tag = if tagged {
                    if minted_hash != 0 {
                        minted_hash
                    } else {
                        param_hash
                    }
                } else {
                    0
                };
                let site_rr = &mut self.site_rr;
                let dest = program
                    .routes
                    .route_new(
                        layout,
                        InstanceId(instance),
                        TaskId::new(task as usize),
                        site,
                        (tag != 0).then_some(tag),
                        |at| bump(&mut site_rr[at]),
                    )
                    .0;
                let cost = self.transfer(
                    self.inst_core[instance as usize],
                    self.inst_core[dest as usize],
                    words,
                );
                let obj = self.push_object(class, flags, dest, tag, trace_id, self.now + cost);
                self.stamp(obj);
                self.push_event(self.now + cost, obj);
            }
        }

        self.maybe_start(core);
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
            ..SimOptions::default()
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
