//! The discrete-event kernel: the one dispatch loop the simulator and
//! the virtual executor both run (paper §4.4 and Figure 9).
//!
//! The kernel owns *when* things happen: the event queue, per-core ready
//! queues and running slots, per-instance parameter sets and formation
//! over their [`SlotTable`]s, the [`RouteTable`] and its round-robin
//! counters, transfer costs, the [`Objects`] columns, the trace and the
//! stop check. A [`Source`] supplies *what* an invocation does: which
//! tags bind, how long it runs, which exit it takes and what it creates.
//!
//! Events pop in `(time, seq)` order, `seq` counting pushed events, so
//! ties at one timestamp resolve first-pushed-first. Events due at the
//! current timestamp bypass the heap through a FIFO, which pops them in
//! the same order; no other tie-break exists.

use crate::formation::{self, Miss, Probe, SlotTable};
use crate::groups::GroupGraph;
use crate::layout::{InstanceId, Layout, RouteDecision};
use crate::routing::{bump, RouteTable};
use crate::trace::{DataDep, DepRange, ExecutionTrace, TraceTask};
use bamboo_lang::ids::{AllocSiteId, ClassId, TaskId};
use bamboo_lang::spec::{FlagSet, ProgramSpec, MAX_PARAMS};
use bamboo_machine::{CoreId, MachineDescription};
use bamboo_profile::Cycles;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The tag-hash column's value for an object that carries no tag.
pub const UNTAGGED: u64 = u64::MAX;

/// Payload bit 31 of an event selects core-free; the low 31 bits carry
/// the object id (arrivals) or core id (core-free).
const EV_CORE_FREE: u32 = 1 << 31;

/// Payload size of every object in words, for transfer costs. The
/// simulator and the virtual executor both charge it, so their
/// makespans agree (Figure 9).
pub const PAYLOAD_WORDS: u64 = 16;

/// Layout-independent dispatch tables of one `(spec, graph, machine)`,
/// shared by every run over them.
pub struct Tables<'a> {
    spec: &'a ProgramSpec,
    graph: &'a GroupGraph,
    machine: &'a MachineDescription,
    slot_tables: Vec<SlotTable>,
    pub(crate) routes: RouteTable,
}

impl<'a> Tables<'a> {
    /// Builds the tables.
    pub fn new(
        spec: &'a ProgramSpec,
        graph: &'a GroupGraph,
        machine: &'a MachineDescription,
    ) -> Self {
        Tables {
            spec,
            graph,
            machine,
            slot_tables: SlotTable::per_group(spec, graph),
            routes: RouteTable::new(spec, graph),
        }
    }
}

/// The kernel's per-object columns, indexed by object id: dense from 0
/// in creation order, the startup object first.
#[derive(Default)]
pub struct Objects {
    /// Class.
    pub class: Vec<ClassId>,
    /// Current flag valuation.
    pub flags: Vec<FlagSet>,
    /// The instance the object lives at (or is in flight to).
    pub home: Vec<u32>,
    /// Routing hash of the object's tag, or [`UNTAGGED`].
    pub tag: Vec<u64>,
    /// Picked by an unfinished invocation, or out of dispatch.
    consumed: Vec<bool>,
    /// Latest arrival time, and the trace id of the invocation that
    /// last released the object (trace data edges).
    arrival: Vec<Cycles>,
    producer: Vec<Option<u32>>,
}

impl Objects {
    fn clear(&mut self) {
        self.class.clear();
        self.flags.clear();
        self.home.clear();
        self.tag.clear();
        self.consumed.clear();
        self.arrival.clear();
        self.producer.clear();
    }

    fn push(
        &mut self,
        class: ClassId,
        flags: FlagSet,
        home: u32,
        tag: u64,
        producer: Option<u32>,
    ) -> u32 {
        self.class.push(class);
        self.flags.push(flags);
        self.home.push(home);
        self.tag.push(tag);
        self.consumed.push(false);
        self.arrival.push(0);
        self.producer.push(producer);
        self.class.len() as u32 - 1
    }
}

/// A formed invocation, as the kernel shows it to its [`Source`].
#[derive(Clone, Copy, Debug)]
pub struct Invocation<'k> {
    /// Dense per run, in formation order.
    pub id: u32,
    /// The task.
    pub task: TaskId,
    /// The instance it was formed at.
    pub instance: InstanceId,
    /// The core that instance runs on.
    pub core: CoreId,
    /// The parameter objects, in parameter order.
    pub params: &'k [u32],
}

/// The invocation arena: `(task, instance, params range)` per
/// invocation over one parameter pool.
#[derive(Default)]
struct Invocations {
    meta: Vec<(TaskId, InstanceId, u32, u32)>,
    params: Vec<u32>,
}

impl Invocations {
    fn get(&self, id: u32, core: u32) -> Invocation<'_> {
        let (task, instance, start, len) = self.meta[id as usize];
        Invocation {
            id,
            task,
            instance,
            core: CoreId(core),
            params: &self.params[start as usize..(start + len) as usize],
        }
    }
}

/// Where an invocation's outcome comes from: the kernel's one seam.
/// Runs are monomorphised over their source, so a no-op hook is free.
pub trait Source {
    /// Why a run ends early.
    type Error;

    /// A pick of `task` begins: forget the tags bound so far.
    fn begin_pick(&mut self, task: TaskId);

    /// Whether live, guard-passing, not yet picked `obj` fits tagged
    /// parameter `param` of `task` under the tags bound by the pick's
    /// earlier parameters; binds its tags if so.
    fn bind(&mut self, objs: &Objects, task: TaskId, param: usize, obj: u32) -> bool;

    /// `inv` was formed and queued on its core.
    fn formed(&mut self, inv: Invocation<'_>);

    /// `inv` starts at `now`; `enqueued` counts parameter-set deliveries
    /// on its core since the core last started one. Returns its duration.
    fn start(
        &mut self,
        inv: Invocation<'_>,
        now: Cycles,
        enqueued: u64,
    ) -> Result<Cycles, Self::Error>;

    /// `inv` completes: apply its exit to its parameters' `flags` and
    /// `tag`, and push `(site, tag hash)` per object it created, in
    /// creation order.
    fn complete(
        &mut self,
        objs: &mut Objects,
        inv: Invocation<'_>,
        created: &mut Vec<(AllocSiteId, u64)>,
    );

    /// `obj` was released into dispatch: created, or routed on after its
    /// invocation completed.
    fn released(&mut self, _objs: &Objects, _obj: u32) {}

    /// An object arrived at `core`, whose ready queue holds `queued`
    /// invocations.
    fn arrived(&mut self, _now: Cycles, _core: u32, _queued: usize) {}

    /// An object left core `from` for core `to`.
    fn sent(&mut self, _now: Cycles, _from: u32, _to: u32) {}
}

/// What a run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Completion time (the horizon, when stopped there).
    pub makespan: Cycles,
    /// Whether the run drained all work.
    pub completed: bool,
    /// Invocations started.
    pub invocations: u64,
    /// Sum of invocation durations.
    pub busy: Cycles,
    /// Object sends between two different cores.
    pub transfers: u64,
    /// The trace, when requested.
    pub trace: Option<ExecutionTrace>,
}

/// The kernel's arenas. They persist across runs and reset without
/// deallocating, so a caller scoring many layouts reuses one kernel.
#[derive(Default)]
pub struct Kernel {
    // Layout-shape tables, rebuilt when the instance structure changes.
    shape: Vec<u32>,
    inst_slot_base: Vec<u32>,
    core_count: usize,
    xfer_base: Vec<Cycles>,
    xfer_word: Cycles,
    // Per-run state.
    inst_core: Vec<u32>,
    objs: Objects,
    param_sets: Vec<VecDeque<u32>>,
    ready: Vec<VecDeque<u32>>,
    /// Per core: the running invocation and its trace id.
    running: Vec<Option<(u32, Option<u32>)>>,
    /// Per core: parameter-set deliveries since its last start.
    enqueued: Vec<u64>,
    invs: Invocations,
    events: BinaryHeap<Reverse<u128>>,
    /// Events due at the current timestamp: `seq << 32 | payload`.
    now_events: VecDeque<u64>,
    /// Round-robin counters per `(instance, alloc site)` and per
    /// `(instance, task)`, indexed by the routing table.
    site_rr: Vec<usize>,
    flow_rr: Vec<usize>,
    created: Vec<(AllocSiteId, u64)>,
    last_on_core: Vec<Option<u32>>,
    seq: u32,
    now: Cycles,
    out: Outcome,
    /// A trace handed back by [`Self::recycle`]: the next traced run
    /// refills its buffers instead of allocating new ones.
    spare: Option<ExecutionTrace>,
}

impl Kernel {
    /// Runs `layout` from the startup object until no work is left, or
    /// until the first event past `horizon` or more than `budget` started
    /// invocations, with `source` supplying every invocation's outcome.
    ///
    /// # Errors
    ///
    /// Returns the first error `source` raises; the run ends there.
    pub fn run<S: Source>(
        &mut self,
        tables: &Tables<'_>,
        layout: &Layout,
        source: &mut S,
        collect_trace: bool,
        horizon: Cycles,
        budget: u64,
    ) -> Result<Outcome, S::Error> {
        self.reset(tables, layout);
        let trace = collect_trace.then(|| {
            let mut trace = self.spare.take().unwrap_or_default();
            trace.tasks.clear();
            trace.deps.clear();
            trace
        });
        self.out = Outcome {
            trace,
            ..Outcome::default()
        };
        let pass = Pass {
            t: tables,
            layout,
            src: source,
        };
        pass.run(self, horizon, budget)?;
        let mut out = std::mem::take(&mut self.out);
        if let Some(trace) = &mut out.trace {
            trace.makespan = out.makespan;
        }
        Ok(out)
    }

    /// Takes back a trace an earlier [`Self::run`] returned, for the next
    /// traced run to reuse.
    pub(crate) fn recycle(&mut self, trace: ExecutionTrace) {
        self.spare = Some(trace);
    }

    fn reset(&mut self, tables: &Tables<'_>, layout: &Layout) {
        let groups = layout.instances.iter().map(|inst| inst.group.0);
        if self.core_count != layout.core_count || !self.shape.iter().copied().eq(groups) {
            self.reshape(tables, layout);
        }
        self.inst_core.clear();
        self.inst_core
            .extend(layout.instances.iter().map(|inst| inst.core.0));
        self.objs.clear();
        self.param_sets.iter_mut().for_each(VecDeque::clear);
        self.ready.iter_mut().for_each(VecDeque::clear);
        self.running.iter_mut().for_each(|r| *r = None);
        self.enqueued.iter_mut().for_each(|e| *e = 0);
        self.invs.meta.clear();
        self.invs.params.clear();
        self.events.clear();
        self.now_events.clear();
        self.site_rr.iter_mut().for_each(|c| *c = 0);
        self.flow_rr.iter_mut().for_each(|c| *c = 0);
        self.last_on_core.iter_mut().for_each(|l| *l = None);
        (self.seq, self.now) = (0, 0);
    }

    /// Rebuilds the layout-shape tables for a new instance structure.
    /// Every candidate of one DSA search shares one shape.
    fn reshape(&mut self, tables: &Tables<'_>, layout: &Layout) {
        self.shape = layout.instances.iter().map(|inst| inst.group.0).collect();
        self.inst_slot_base.clear();
        let mut total_slots = 0u32;
        for inst in &layout.instances {
            self.inst_slot_base.push(total_slots);
            total_slots += tables.slot_tables[inst.group.index()].slots().len() as u32;
        }
        self.param_sets = vec![VecDeque::new(); total_slots as usize];
        let (flows, sites) = tables.routes.counter_lens(layout.instances.len());
        (self.flow_rr, self.site_rr) = (vec![0; flows], vec![0; sites]);
        let (cc, machine) = (layout.core_count, tables.machine);
        self.core_count = cc;
        self.ready = vec![VecDeque::new(); cc];
        self.running = vec![None; cc];
        self.enqueued = vec![0; cc];
        self.last_on_core = vec![None; cc];
        // Transfer costs are linear in payload words: memoize the fixed
        // (base + hops) part per core pair and the per-word slope.
        self.xfer_base = vec![0; cc * cc];
        for f in 0..cc {
            for t in (0..cc).filter(|&t| t != f) {
                let (from, to) = (CoreId::new(f), CoreId::new(t));
                let c0 = machine.transfer_cycles(from, to, 0);
                self.xfer_base[f * cc + t] = c0;
                self.xfer_word = machine.transfer_cycles(from, to, 1) - c0;
            }
        }
    }

    #[inline]
    fn push_event(&mut self, time: Cycles, payload: u32) {
        self.seq += 1;
        if time == self.now {
            self.now_events
                .push_back(((self.seq as u64) << 32) | payload as u64);
        } else {
            let key = ((time as u128) << 64) | ((self.seq as u128) << 32) | payload as u128;
            self.events.push(Reverse(key));
        }
    }

    /// Pops the next event in `(time, seq)` order as a packed `time (64)
    /// | seq (32) | payload (32)` key. The heap may still hold events at
    /// the current timestamp with smaller `seq`s (pushed earlier), which
    /// pop before the FIFO's.
    #[inline]
    fn next_event(&mut self) -> Option<u128> {
        let fifo = self
            .now_events
            .front()
            .map(|&queued| ((self.now as u128) << 64) | queued as u128);
        match (self.events.peek(), fifo) {
            (Some(&Reverse(heaped)), Some(queued)) if heaped < queued => {
                self.events.pop().map(|r| r.0)
            }
            (_, Some(_)) => self.now_events.pop_front().and(fifo),
            (_, None) => self.events.pop().map(|r| r.0),
        }
    }
}

/// One run in progress: the tables, layout and source the kernel runs
/// over; its methods take the kernel's state as an argument.
struct Pass<'r, 'a, S> {
    t: &'r Tables<'a>,
    layout: &'r Layout,
    src: &'r mut S,
}

impl<S: Source> Pass<'_, '_, S> {
    /// The event loop.
    fn run(mut self, k: &mut Kernel, horizon: Cycles, budget: u64) -> Result<(), S::Error> {
        let spec = self.t.spec;
        let startup = self.layout.instances_of(self.t.graph.startup_group)[0];
        let flags = FlagSet::new().with(spec.startup.flag, true);
        let obj = k
            .objs
            .push(spec.startup.class, flags, startup.0, UNTAGGED, None);
        self.src.released(&k.objs, obj);
        k.push_event(0, obj);

        while let Some(key) = k.next_event() {
            let time = (key >> 64) as Cycles;
            if time > horizon || k.out.invocations > budget {
                k.out.makespan = k.out.makespan.max(time).min(horizon);
                return Ok(());
            }
            k.now = time;
            k.out.makespan = k.out.makespan.max(time);
            let payload = key as u32;
            if payload & EV_CORE_FREE == 0 {
                self.arrival(k, payload)?;
            } else {
                self.core_free(k, payload & !EV_CORE_FREE)?;
            }
        }
        k.out.completed = true;
        Ok(())
    }

    /// Delivers an object to every slot of its home instance that
    /// accepts it and forms what it can; an object no slot there accepts
    /// is forwarded to its consuming group.
    fn arrival(&mut self, k: &mut Kernel, obj: u32) -> Result<(), S::Error> {
        let o = obj as usize;
        let (home, class, flags) = (k.objs.home[o], k.objs.class[o], k.objs.flags[o]);
        let core = k.inst_core[home as usize];
        self.src.arrived(k.now, core, k.ready[core as usize].len());
        let group = k.shape[home as usize] as usize;
        let base = k.inst_slot_base[home as usize] as usize;
        let mut touched = false;
        for offset in self.t.slot_tables[group].accepting(class, flags) {
            k.param_sets[base + offset].push_back(obj);
            touched = true;
        }
        if touched {
            k.enqueued[core as usize] += 1;
            self.form(k, home);
        } else if let RouteDecision::Move(dest) = self.route_transition(k, obj) {
            self.send(k, obj, dest.0);
        }
        self.maybe_start(k, core)
    }

    /// Where `obj`, in its current state, goes next from its home.
    fn route_transition(&mut self, k: &mut Kernel, obj: u32) -> RouteDecision {
        let (objs, flow_rr) = (&k.objs, &mut k.flow_rr);
        let (o, tag) = (obj as usize, objs.tag[obj as usize]);
        self.t.routes.route_transition(
            self.layout,
            InstanceId(objs.home[o]),
            objs.class[o],
            objs.flags[o],
            (tag != UNTAGGED).then_some(tag),
            |at| bump(&mut flow_rr[at]),
        )
    }

    /// Sends `obj` from its home instance to `dest` (possibly the home
    /// itself); it arrives after the transfer. Only a send between two
    /// different cores is a transfer.
    fn send(&mut self, k: &mut Kernel, obj: u32, dest: u32) {
        let o = obj as usize;
        let (from, to) = (
            k.inst_core[k.objs.home[o] as usize],
            k.inst_core[dest as usize],
        );
        let mut cost = 0;
        if from != to {
            k.out.transfers += 1;
            self.src.sent(k.now, from, to);
            cost = k.xfer_base[from as usize * k.core_count + to as usize]
                + PAYLOAD_WORDS * k.xfer_word;
        }
        k.objs.home[o] = dest;
        k.objs.arrival[o] = k.now + cost;
        k.push_event(k.now + cost, obj);
    }

    /// Forms as many ready invocations at `instance` as possible.
    ///
    /// The scan repeats until a full pass forms nothing. A task whose
    /// pick missed with [`Miss::Empty`] is skipped for the rest of the
    /// call: parameter sets only shrink while forming, so an empty slot
    /// stays empty. A [`Miss::Blocked`] (tags, or an object picked twice)
    /// is not permanent and stays unmasked.
    fn form(&mut self, k: &mut Kernel, instance: u32) {
        let tables = self.t;
        let core = k.inst_core[instance as usize];
        let group = k.shape[instance as usize] as usize;
        let mut dead_mask: u64 = 0;
        loop {
            let mut formed = false;
            for (ti, &task) in tables.graph.groups[group].tasks.iter().enumerate() {
                if ti < 64 && dead_mask & (1 << ti) != 0 {
                    continue;
                }
                let start = k.invs.params.len() as u32;
                if let Err(miss) = self.pick(k, instance, task) {
                    if miss == Miss::Empty && ti < 64 {
                        dead_mask |= 1 << ti;
                    }
                    continue;
                }
                let invs = &mut k.invs;
                let len = invs.params.len() as u32 - start;
                let inv = invs.meta.len() as u32;
                invs.meta.push((task, InstanceId(instance), start, len));
                k.ready[core as usize].push_back(inv);
                self.src.formed(k.invs.get(inv, core));
                formed = true;
            }
            if !formed {
                return;
            }
        }
    }

    /// Picks one invocation of `task` at `instance`: a live, guard-
    /// passing object per parameter, each picked once, whose tags the
    /// source binds. The chosen objects are marked consumed and appended
    /// to the parameter pool in parameter order.
    fn pick(&mut self, k: &mut Kernel, instance: u32, task: TaskId) -> Result<(), Miss> {
        let table = &self.t.slot_tables[k.shape[instance as usize] as usize];
        let span = table.task_slots(task);
        let slots = &table.slots()[span.clone()];
        let base = k.inst_slot_base[instance as usize] as usize;
        let sets = &mut k.param_sets[base + span.start..base + span.end];
        let (objs, src) = (&k.objs, &mut *self.src);
        src.begin_pick(task);
        let mut chosen = [0u32; MAX_PARAMS];
        let mut n = 0;
        let picked = formation::pick(sets, |p, &cand| {
            let slot = &slots[p];
            if objs.consumed[cand as usize] || !slot.guard.eval(objs.flags[cand as usize]) {
                return Probe::Stale;
            }
            if chosen[..n].contains(&cand) || (slot.tagged && !src.bind(objs, task, p, cand)) {
                return Probe::Skip;
            }
            chosen[n] = cand;
            n += 1;
            Probe::Fits
        })?;
        for obj in picked.take(sets) {
            k.objs.consumed[obj as usize] = true;
            k.invs.params.push(obj);
        }
        Ok(())
    }

    /// Starts the next ready invocation on `core` if it is idle.
    fn maybe_start(&mut self, k: &mut Kernel, core: u32) -> Result<(), S::Error> {
        let c = core as usize;
        if k.running[c].is_some() {
            return Ok(());
        }
        let Some(inv) = k.ready[c].pop_front() else {
            return Ok(());
        };
        let invocation = k.invs.get(inv, core);
        let enqueued = std::mem::take(&mut k.enqueued[c]);
        let duration = self.src.start(invocation, k.now, enqueued)?;
        let (start, end) = (k.now, k.now + duration);
        k.out.busy += duration;
        k.out.invocations += 1;
        let mut trace_id = None;
        if let Some(trace) = &mut k.out.trace {
            let dep_start = trace.deps.len() as u32;
            trace
                .deps
                .extend(invocation.params.iter().map(|&o| DataDep {
                    producer: k.objs.producer[o as usize].map(|p| p as usize),
                    arrival: k.objs.arrival[o as usize],
                }));
            let id = trace.tasks.len();
            trace.tasks.push(TraceTask {
                id,
                task: invocation.task,
                instance: invocation.instance,
                core: invocation.core,
                start,
                end,
                deps: DepRange {
                    start: dep_start,
                    len: invocation.params.len() as u32,
                },
                prev_on_core: k.last_on_core[c].replace(id as u32).map(|p| p as usize),
            });
            trace_id = Some(id as u32);
        }
        k.running[c] = Some((inv, trace_id));
        k.push_event(end, EV_CORE_FREE | core);
        Ok(())
    }

    /// Completes the invocation running on `core`: its parameters are
    /// released in their new states and routed on, its created objects
    /// are routed to their consumers, and the core starts its next one.
    fn core_free(&mut self, k: &mut Kernel, core: u32) -> Result<(), S::Error> {
        let (inv, trace_id) = k.running[core as usize].take().expect("core was running");
        let (task, instance, start, len) = k.invs.meta[inv as usize];
        let mut created = std::mem::take(&mut k.created);
        created.clear();
        self.src
            .complete(&mut k.objs, k.invs.get(inv, core), &mut created);

        for at in start..start + len {
            let obj = k.invs.params[at as usize];
            let o = obj as usize;
            k.objs.consumed[o] = false;
            k.objs.producer[o] = trace_id;
            let dest = match self.route_transition(k, obj) {
                RouteDecision::Stay => k.objs.home[o],
                RouteDecision::Move(dest) => dest.0,
                RouteDecision::Dead => {
                    k.objs.consumed[o] = true;
                    continue;
                }
            };
            self.src.released(&k.objs, obj);
            self.send(k, obj, dest);
        }

        for &(site, tag) in &created {
            let site_rr = &mut k.site_rr;
            let tag_hash = (tag != UNTAGGED).then_some(tag);
            let dest = self
                .t
                .routes
                .route_new(self.layout, instance, task, site, tag_hash, |at| {
                    bump(&mut site_rr[at])
                });
            let site = &self.t.spec.task(task).alloc_sites[site.index()];
            let flags = site.initial_flag_set();
            let obj = k.objs.push(site.class, flags, instance.0, tag, trace_id);
            self.src.released(&k.objs, obj);
            self.send(k, obj, dest.0);
        }
        k.created = created;
        self.maybe_start(k, core)
    }
}
