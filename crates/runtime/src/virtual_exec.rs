//! The virtual-time executor.
//!
//! Executes a Bamboo program *for real* — task bodies run, data
//! structures mutate, results are produced — on N virtual cores whose
//! clocks advance according to the cost model and the machine's network
//! model. A single host thread drives a discrete-event loop identical in
//! structure to the scheduling simulator's, so the two are directly
//! comparable (the paper's Figure 9 experiment): the simulator uses
//! Markov-model *predictions* where this executor uses *actual* bodies,
//! exits, and allocation counts.
//!
//! With a single-core layout this is the sequential reference executor
//! used for profiling bootstrap and the 1-core Bamboo measurements.

use crate::cost::CostModel;
use crate::program::{NativePayload, Program, TaskCtx};
use crate::store::{ObjId, ObjectStore, PayloadSlot, RtObject};
use bamboo_analysis::DisjointnessAnalysis;
use bamboo_lang::ids::TagTypeId;
use bamboo_lang::ids::{ExitId, ParamIdx, TaskId};
use bamboo_lang::interp::{Interp, TagInstance};
use bamboo_lang::spec::FlagSet;
use bamboo_machine::MachineDescription;
use bamboo_profile::{Cycles, Profile, ProfileCollector};
use bamboo_schedule::formation::{self, Probe, SlotTable};
use bamboo_schedule::routing::{bump, RouteTable};
use bamboo_schedule::trace::{DataDep, ExecutionTrace, TraceTask};
use bamboo_schedule::{GroupGraph, InstanceId, Layout, RouteDecision};
use bamboo_telemetry::{Telemetry, TimeUnit, WorkerSink};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::error::Error;
use std::fmt;

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Dispatch cost model.
    pub cost: CostModel,
    /// Record an execution trace.
    pub collect_trace: bool,
    /// Collect a profile, labeled with this input name.
    pub profile_input: Option<String>,
    /// Abort after this many invocations (divergence guard).
    pub max_invocations: u64,
    /// Estimated object payload size in words (transfer costs).
    pub payload_words: u64,
    /// Per-class payload overrides (falls back to `payload_words`).
    pub payload_words_per_class: std::collections::HashMap<bamboo_lang::ids::ClassId, u64>,
    /// Telemetry session events are recorded into (timestamps in virtual
    /// cycles). Disabled by default; recording costs nothing then.
    pub telemetry: Telemetry,
}

impl ExecConfig {
    /// Payload size for `class`.
    pub fn payload_words_of(&self, class: bamboo_lang::ids::ClassId) -> u64 {
        self.payload_words_per_class
            .get(&class)
            .copied()
            .unwrap_or(self.payload_words)
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            cost: CostModel::DEFAULT,
            collect_trace: false,
            profile_input: None,
            max_invocations: 50_000_000,
            payload_words: 16,
            payload_words_per_class: std::collections::HashMap::new(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// An interpreted body trapped.
    Trap(String),
    /// The invocation budget was exhausted.
    Diverged(u64),
    /// The threaded executor was asked to run an interpreted program.
    NativeOnly,
    /// A core was killed (fault injection) and its work could not be
    /// recovered — recovery disabled, or a stranded group had no live
    /// host. The run terminates with this error instead of hanging in
    /// quiescence.
    CoreLost {
        /// The dead core.
        core: usize,
    },
    /// A message exhausted its redelivery budget or deadline under
    /// injected drops and was declared permanently lost.
    MessageLost {
        /// The lost message's id.
        msg: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Trap(msg) => write!(f, "runtime trap: {msg}"),
            ExecError::Diverged(n) => write!(f, "exceeded invocation budget of {n}"),
            ExecError::NativeOnly => write!(f, "this executor requires native task bodies"),
            ExecError::CoreLost { core } => {
                write!(
                    f,
                    "core {core} was lost and its work could not be recovered"
                )
            }
            ExecError::MessageLost { msg } => {
                write!(
                    f,
                    "message {msg} exceeded its redelivery budget and was lost"
                )
            }
        }
    }
}

impl Error for ExecError {}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Virtual completion time.
    pub makespan: Cycles,
    /// Invocations executed.
    pub invocations: u64,
    /// Cycles charged by task bodies (the "C version" work).
    pub body_cycles: Cycles,
    /// Cycles added by the runtime (dispatch, locks, enqueues, allocs).
    pub overhead_cycles: Cycles,
    /// Inter-core object transfers performed.
    pub transfers: u64,
    /// Whether the run drained all work (vs. hitting the budget).
    pub quiesced: bool,
    /// The trace, when requested.
    pub trace: Option<ExecutionTrace>,
    /// The profile, when requested.
    pub profile: Option<Profile>,
}

/// A formed invocation.
#[derive(Clone, Debug)]
struct ReadyInv {
    task: TaskId,
    instance: InstanceId,
    objs: Vec<ObjId>,
    tag_env: Vec<Option<TagInstance>>,
}

/// A created object awaiting registration at invocation completion.
struct CreatedRt {
    site: bamboo_lang::ids::AllocSiteId,
    payload: PayloadSlot,
    tags: Vec<(TagTypeId, TagInstance)>,
}

/// Completion state of a running invocation.
struct Running {
    inv: ReadyInv,
    exit: ExitId,
    created: Vec<CreatedRt>,
    trace_id: Option<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKey {
    Arrival(u32),
    CoreFree(u32),
}

/// The virtual-time executor. See the module docs.
pub struct VirtualExecutor<'p> {
    program: &'p Program,
    graph: &'p GroupGraph,
    layout: &'p Layout,
    machine: &'p MachineDescription,
    locks: &'p DisjointnessAnalysis,
    config: ExecConfig,
    /// The object store (inspect after `run` for results).
    pub store: ObjectStore,
    interp: Option<Interp<'p>>,
    routes: RouteTable,
    /// Round-robin counters per `(instance, task)` and per `(instance,
    /// alloc site)`, indexed by `routes`.
    flow_rr: Vec<usize>,
    site_rr: Vec<usize>,
    /// Slot table per group.
    slot_tables: Vec<SlotTable>,
    /// Parameter sets per instance, one per slot of its group's table.
    param_sets: Vec<Vec<VecDeque<ObjId>>>,
    ready: Vec<VecDeque<ReadyInv>>,
    running: Vec<Option<Running>>,
    events: BinaryHeap<Reverse<(Cycles, u64, EventKey)>>,
    seq: u64,
    now: Cycles,
    makespan: Cycles,
    invocations: u64,
    body_cycles: Cycles,
    overhead_cycles: Cycles,
    transfers: u64,
    trace: Vec<TraceTask>,
    trace_deps: Vec<DataDep>,
    last_on_core: Vec<Option<usize>>,
    collector: Option<ProfileCollector>,
    /// Producer invocation per object (trace data edges).
    producers: Vec<Option<usize>>,
    /// Latest arrival time per object.
    arrivals: Vec<Cycles>,
    /// Deferred interpreter trap, surfaced from the event loop.
    trap: Option<String>,
    /// Enqueue cycles accrued on each core since its last dispatch; folded
    /// into the next invocation's duration so virtual time and the
    /// overhead accounting agree.
    pending_enqueue: Vec<Cycles>,
    /// Per-core telemetry sinks (empty when telemetry is disabled).
    /// Created at the start of `run`, submitted when the report is built.
    sinks: Vec<WorkerSink>,
}

impl<'p> VirtualExecutor<'p> {
    /// Creates an executor over `layout`.
    pub fn new(
        program: &'p Program,
        graph: &'p GroupGraph,
        layout: &'p Layout,
        machine: &'p MachineDescription,
        locks: &'p DisjointnessAnalysis,
        config: ExecConfig,
    ) -> Self {
        let spec = &program.spec;
        let slot_tables = SlotTable::per_group(spec, graph);
        let routes = RouteTable::new(spec, graph);
        let (flows, sites) = routes.counter_lens(layout.instances.len());
        let param_sets = layout
            .instances
            .iter()
            .map(|inst| vec![VecDeque::new(); slot_tables[inst.group.index()].slots().len()])
            .collect();
        let interp = program.compiled().map(|c| Interp::new(c));
        let collector = config
            .profile_input
            .as_ref()
            .map(|input| ProfileCollector::new(spec, input.clone()));
        VirtualExecutor {
            program,
            graph,
            layout,
            machine,
            locks,
            config,
            store: ObjectStore::new(),
            interp,
            routes,
            flow_rr: vec![0; flows],
            site_rr: vec![0; sites],
            slot_tables,
            param_sets,
            ready: vec![VecDeque::new(); layout.core_count],
            running: (0..layout.core_count).map(|_| None).collect(),
            events: BinaryHeap::new(),
            seq: 0,
            now: 0,
            makespan: 0,
            invocations: 0,
            body_cycles: 0,
            overhead_cycles: 0,
            transfers: 0,
            trace: Vec::new(),
            trace_deps: Vec::new(),
            last_on_core: vec![None; layout.core_count],
            collector,
            producers: Vec::new(),
            arrivals: Vec::new(),
            trap: None,
            pending_enqueue: vec![0; layout.core_count],
            sinks: Vec::new(),
        }
    }

    /// Creates an executor over a [`Deployment`](crate::Deployment) —
    /// the same artifact [`crate::ThreadedExecutor::run`] consumes, so
    /// predicted-vs-observed comparisons are guaranteed to execute the
    /// identical plan.
    pub fn over(
        deployment: &'p crate::deploy::Deployment,
        machine: &'p MachineDescription,
        config: ExecConfig,
    ) -> Self {
        VirtualExecutor::new(
            &deployment.program,
            &deployment.graph,
            &deployment.layout,
            machine,
            &deployment.locks,
            config,
        )
    }

    fn push_event(&mut self, time: Cycles, key: EventKey) {
        self.seq += 1;
        self.events.push(Reverse((time, self.seq, key)));
    }

    /// Runs the program to quiescence.
    ///
    /// `startup` provides the startup object's payload for native
    /// programs (ignored for interpreted programs, whose startup object
    /// is allocated in the interpreter heap).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Trap`] if an interpreted body traps, or
    /// [`ExecError::Diverged`] past the invocation budget.
    pub fn run(&mut self, startup: Option<NativePayload>) -> Result<RunReport, ExecError> {
        let telemetry = self.config.telemetry.clone();
        if telemetry.is_enabled() {
            telemetry.set_time_unit(TimeUnit::Cycles);
            self.sinks = (0..self.layout.core_count)
                .map(|c| telemetry.worker(c))
                .collect();
        }
        let spec = self.program.spec.clone();
        let startup_inst = self.layout.instances_of(self.graph.startup_group)[0];
        let payload = match &mut self.interp {
            Some(interp) => PayloadSlot::Interp(interp.alloc_raw(spec.startup.class)),
            None => PayloadSlot::Native(startup.unwrap_or_else(|| Box::new(()))),
        };
        let flags = FlagSet::new().with(spec.startup.flag, true);
        let obj = self
            .store
            .alloc(spec.startup.class, flags, vec![], startup_inst, payload);
        self.push_event(0, EventKey::Arrival(obj.0));

        while let Some(Reverse((time, _, key))) = self.events.pop() {
            self.now = time;
            self.makespan = self.makespan.max(time);
            match key {
                EventKey::Arrival(id) => self.handle_arrival(ObjId(id)),
                EventKey::CoreFree(core) => self.handle_core_free(core as usize)?,
            }
            if let Some(msg) = self.trap.take() {
                return Err(ExecError::Trap(msg));
            }
            if self.invocations > self.config.max_invocations {
                return Err(ExecError::Diverged(self.config.max_invocations));
            }
        }
        Ok(self.report(true))
    }

    fn report(&mut self, quiesced: bool) -> RunReport {
        // Hand the event rings back so `config.telemetry.report()` sees
        // this run's events without waiting for the executor to drop.
        for sink in self.sinks.drain(..) {
            sink.submit();
        }
        RunReport {
            makespan: self.makespan,
            invocations: self.invocations,
            body_cycles: self.body_cycles,
            overhead_cycles: self.overhead_cycles,
            transfers: self.transfers,
            quiesced,
            trace: if self.config.collect_trace {
                Some(ExecutionTrace {
                    tasks: std::mem::take(&mut self.trace),
                    deps: std::mem::take(&mut self.trace_deps),
                    makespan: self.makespan,
                })
            } else {
                None
            },
            profile: self.collector.take().map(|mut c| {
                c.record_overhead(self.overhead_cycles);
                c.finish()
            }),
        }
    }

    /// Returns a reference to the interpreter heap (interpreted programs).
    pub fn interp_heap(&self) -> Option<&bamboo_lang::interp::Heap> {
        self.interp.as_ref().map(|i| &i.heap)
    }

    /// Returns captured `print` output (interpreted programs).
    pub fn interp_output(&self) -> Option<&str> {
        self.interp.as_ref().map(|i| i.output.as_str())
    }

    /// Downcasts the payload of `id` (native programs).
    ///
    /// # Panics
    ///
    /// Panics if the payload was taken or is not a `T`.
    pub fn payload<T: 'static>(&self, id: ObjId) -> &T {
        match &self.store.get(id).payload {
            PayloadSlot::Native(p) => p.downcast_ref::<T>().expect("payload type mismatch"),
            other => panic!("payload of {id} unavailable: {other:?}"),
        }
    }

    // ---- dispatch ------------------------------------------------------

    fn handle_arrival(&mut self, obj: ObjId) {
        let home = self.store.get(obj).home;
        let class = self.store.get(obj).class;
        let flags = self.store.get(obj).flags;
        let core = self.layout.core_of(home).index();
        if !self.sinks.is_empty() {
            let bytes = self.config.payload_words_of(class) * 8;
            let queued = self.ready[core].len() as u64;
            let sink = &mut self.sinks[core];
            sink.obj_recv(self.now, bytes, u64::MAX, u64::MAX);
            sink.queue_depth(self.now, queued, 0);
        }
        let group = self.layout.instances[home.index()].group.index();
        let mut touched = false;
        for slot in self.slot_tables[group].accepting(class, flags) {
            self.param_sets[home.index()][slot].push_back(obj);
            touched = true;
        }
        if touched {
            self.pending_enqueue[core] += self.config.cost.enqueue;
            self.try_form_invocations(home);
        } else {
            // No slot here matches: the consuming task lives in another
            // group (or nowhere). Forward the object like a transition.
            if let RouteDecision::Move(dest) = self.route_transition(obj) {
                self.move_to(obj, dest);
            }
        }
        self.maybe_start(core);
    }

    /// Where `obj`, in its current state, goes next from its home.
    fn route_transition(&mut self, obj: ObjId) -> RouteDecision {
        let o = self.store.get(obj);
        let flow_rr = &mut self.flow_rr;
        self.routes
            .route_transition(self.layout, o.home, o.class, o.flags, o.tag_hash(), |at| {
                bump(&mut flow_rr[at])
            })
    }

    /// Moves `obj` from its home instance to `dest`: one counted
    /// transfer, arriving after its cost.
    fn move_to(&mut self, obj: ObjId, dest: InstanceId) {
        let (class, home) = (self.store.get(obj).class, self.store.get(obj).home);
        let words = self.config.payload_words_of(class);
        let (from, to) = (self.layout.core_of(home), self.layout.core_of(dest));
        let cost = self.machine.transfer_cycles(from, to, words);
        self.transfers += 1;
        if !self.sinks.is_empty() {
            self.sinks[from.index()].obj_send(self.now, words * 8, to.index() as u64, u64::MAX);
        }
        self.store.get_mut(obj).home = dest;
        self.set_arrival(obj, self.now + cost);
        self.push_event(self.now + cost, EventKey::Arrival(obj.0));
    }

    fn try_form_invocations(&mut self, instance: InstanceId) {
        let core = self.layout.core_of(instance).index();
        let graph = self.graph;
        let tasks = &graph.groups[self.layout.instances[instance.index()].group.index()].tasks;
        loop {
            let mut formed = false;
            for &task in tasks {
                if let Some((objs, tag_env)) = self.match_task(instance, task) {
                    self.ready[core].push_back(ReadyInv {
                        task,
                        instance,
                        objs,
                        tag_env,
                    });
                    formed = true;
                }
            }
            if !formed {
                break;
            }
        }
    }

    /// Tries to assemble one invocation of `task` at `instance`:
    /// one live object per parameter with consistent tag bindings. Objects
    /// chosen are removed from the task's parameter sets at this instance
    /// and reserved (they are "locked" for the invocation — in virtual
    /// time the try-lock always succeeds because reservation is atomic).
    fn match_task(
        &mut self,
        instance: InstanceId,
        task: TaskId,
    ) -> Option<(Vec<ObjId>, Vec<Option<TagInstance>>)> {
        let tspec = self.program.spec.task(task);
        let table = &self.slot_tables[self.layout.instances[instance.index()].group.index()];
        let span = table.task_slots(task);
        let slots = &table.slots()[span.clone()];
        let sets = &mut self.param_sets[instance.index()][span];
        let store = &self.store;
        let mut chosen: Vec<ObjId> = Vec::with_capacity(slots.len());
        let mut tag_env: Vec<Option<TagInstance>> = vec![None; tspec.tag_vars.len()];
        let picked = formation::pick(sets, |p, &cand| {
            let o: &RtObject = store.get(cand);
            // Reserved objects are stale too: their invocation's
            // completion re-delivers them, creating fresh entries.
            if o.reserved
                || !slots[p].guard.eval(o.flags)
                || matches!(o.payload, PayloadSlot::Taken)
                || o.home != instance
            {
                return Probe::Stale;
            }
            if chosen.contains(&cand) {
                return Probe::Skip;
            }
            match tspec.params[p].bind_tags(&o.tags, &tag_env) {
                Some(updates) => {
                    for (v, inst) in updates {
                        tag_env[v] = Some(inst);
                    }
                    chosen.push(cand);
                    Probe::Fits
                }
                None => Probe::Skip,
            }
        })
        .ok()?;
        picked.take(sets).for_each(drop);
        // Reserve the chosen objects: an object whose state satisfies
        // several task guards sits in several parameter sets, and without
        // the reservation a second invocation could capture it before
        // this one completes (transactional semantics forbid that — in
        // the threaded executor the object's lock plays this role).
        for &obj in &chosen {
            self.store.get_mut(obj).reserved = true;
        }
        Some((chosen, tag_env))
    }

    fn maybe_start(&mut self, core: usize) {
        if self.running[core].is_some() {
            return;
        }
        let Some(mut inv) = self.ready[core].pop_front() else {
            return;
        };
        let spec = self.program.spec.clone();
        let tspec = spec.task(inv.task);

        // Mint fresh tag instances for body-created tag variables.
        tspec.mint_tags(&mut inv.tag_env, || self.store.mint_tag());

        // Execute the body now; effects apply at completion time.
        let (exit, charged, created) = match self.program.native_body(inv.task) {
            Some(body) => {
                let body = body.clone();
                let mut payloads: Vec<NativePayload> = inv
                    .objs
                    .iter()
                    .map(|&o| self.store.take_native(o))
                    .collect();
                let mut ctx =
                    TaskCtx::new(&mut payloads, tspec.alloc_sites.len(), tspec.exits.len());
                let exit_idx = body(&mut ctx);
                let exit = ExitId::new(ctx.check_exit(exit_idx));
                let (charged, created_native) = ctx.finish();
                for (&o, p) in inv.objs.iter().zip(payloads) {
                    self.store.put_native(o, p);
                }
                let created: Vec<CreatedRt> = created_native
                    .into_iter()
                    .map(|(site, payload)| {
                        let site = bamboo_lang::ids::AllocSiteId::new(site);
                        CreatedRt {
                            site,
                            payload: PayloadSlot::Native(payload),
                            tags: tspec.created_tags(site, &inv.tag_env),
                        }
                    })
                    .collect();
                (exit, charged, created)
            }
            None => {
                let interp = self
                    .interp
                    .as_mut()
                    .expect("interpreted program has interp");
                let refs: Vec<bamboo_lang::interp::ObjRef> = inv
                    .objs
                    .iter()
                    .map(|&o| match self.store.get(o).payload {
                        PayloadSlot::Interp(r) => r,
                        _ => unreachable!("interpreted payloads are ObjRefs"),
                    })
                    .collect();
                let outcome = interp
                    .run_task(inv.task, &refs, inv.tag_env.clone())
                    .map_err(|e| e.message.clone());
                let outcome = match outcome {
                    Ok(o) => o,
                    Err(msg) => {
                        // Defer the error to the event loop via a poisoned
                        // running slot; simplest is to panic in debug, but
                        // we surface it as a trap.
                        self.running[core] = None;
                        self.trap = Some(msg);
                        return;
                    }
                };
                inv.tag_env = outcome.tag_env.clone();
                let created = outcome
                    .created
                    .iter()
                    .map(|c| CreatedRt {
                        site: c.site,
                        payload: PayloadSlot::Interp(c.obj),
                        tags: c.tags.clone(),
                    })
                    .collect();
                (outcome.exit, outcome.cycles, created)
            }
        };

        let n_created = created.len();
        let overhead = self.config.cost.invocation_overhead(inv.objs.len())
            + self.config.cost.alloc * n_created as Cycles
            + std::mem::take(&mut self.pending_enqueue[core]);
        let duration = charged + overhead;
        self.body_cycles += charged;
        self.overhead_cycles += overhead;
        self.invocations += 1;

        if let Some(collector) = &mut self.collector {
            let allocs: Vec<(bamboo_lang::ids::AllocSiteId, u64)> = {
                let mut counts = std::collections::HashMap::new();
                for c in &created {
                    *counts.entry(c.site).or_insert(0u64) += 1;
                }
                counts.into_iter().collect()
            };
            collector.record(inv.task, exit, charged, &allocs);
        }

        let trace_id = if self.config.collect_trace {
            let dep_start = self.trace_deps.len() as u32;
            for &o in &inv.objs {
                self.trace_deps.push(DataDep {
                    producer: self.producers.get(o.index()).copied().flatten(),
                    arrival: self.arrivals.get(o.index()).copied().unwrap_or(0),
                });
            }
            let deps = bamboo_schedule::trace::DepRange {
                start: dep_start,
                len: inv.objs.len() as u32,
            };
            let id = self.trace.len();
            self.trace.push(TraceTask {
                id,
                task: inv.task,
                instance: inv.instance,
                core: self.layout.core_of(inv.instance),
                start: self.now,
                end: self.now + duration,
                deps,
                prev_on_core: self.last_on_core[core],
            });
            self.last_on_core[core] = Some(id);
            Some(id)
        } else {
            None
        };

        let end = self.now + duration;
        if !self.sinks.is_empty() {
            // Virtual dispatch is transactional with atomic reservation,
            // so lock acquisition always succeeds with zero retries.
            let sink = &mut self.sinks[core];
            sink.lock_acquired(self.now, inv.objs.len() as u64, 0, u64::MAX);
            sink.task_start(
                self.now,
                inv.task.index() as u64,
                inv.instance.index() as u64,
                u64::MAX,
            );
            sink.task_end(
                end,
                inv.task.index() as u64,
                inv.instance.index() as u64,
                u64::MAX,
            );
        }
        self.running[core] = Some(Running {
            inv,
            exit,
            created,
            trace_id,
        });
        self.push_event(end, EventKey::CoreFree(core as u32));
    }

    fn handle_core_free(&mut self, core: usize) -> Result<(), ExecError> {
        if let Some(msg) = self.trap.take() {
            return Err(ExecError::Trap(msg));
        }
        let Some(Running {
            inv,
            exit,
            created,
            trace_id,
        }) = self.running[core].take()
        else {
            return Ok(());
        };
        let spec = self.program.spec.clone();
        let tspec = spec.task(inv.task);

        // Shared-lock directive: merge lock classes of grouped params.
        for group in &self.locks.lock_plans[inv.task.index()].groups {
            for pair in group.windows(2) {
                self.store
                    .merge_locks(inv.objs[pair[0].index()], inv.objs[pair[1].index()]);
            }
        }

        // Exit actions.
        for (p, &obj) in inv.objs.iter().enumerate() {
            let o = self.store.get_mut(obj);
            tspec.apply_exit(
                exit,
                ParamIdx::new(p),
                &mut o.flags,
                &mut o.tags,
                &inv.tag_env,
            );
        }

        // Route parameters (releasing their reservations first).
        for &obj in &inv.objs {
            self.store.get_mut(obj).reserved = false;
            if let Some(id) = trace_id {
                self.set_producer(obj, Some(id));
            }
            match self.route_transition(obj) {
                RouteDecision::Stay => {
                    self.set_arrival(obj, self.now);
                    self.push_event(self.now, EventKey::Arrival(obj.0));
                }
                RouteDecision::Move(dest) => self.move_to(obj, dest),
                RouteDecision::Dead => {
                    // The object leaves dispatch; its payload stays
                    // available for result extraction.
                }
            }
        }

        // Register created objects.
        for c in created {
            let site_spec = &tspec.alloc_sites[c.site.index()];
            let hash = c.tags.first().map(|(_, i)| i.0);
            let site_rr = &mut self.site_rr;
            let dest =
                self.routes
                    .route_new(self.layout, inv.instance, inv.task, c.site, hash, |at| {
                        bump(&mut site_rr[at])
                    });
            let cost = self.machine.transfer_cycles(
                self.layout.core_of(inv.instance),
                self.layout.core_of(dest),
                self.config.payload_words_of(site_spec.class),
            );
            if cost > 0 {
                self.transfers += 1;
                if !self.sinks.is_empty() {
                    let bytes = self.config.payload_words_of(site_spec.class) * 8;
                    let dest_core = self.layout.core_of(dest).index() as u64;
                    self.sinks[core].obj_send(self.now, bytes, dest_core, u64::MAX);
                }
            }
            let obj = self.store.alloc(
                site_spec.class,
                site_spec.initial_flag_set(),
                c.tags,
                dest,
                c.payload,
            );
            self.set_producer(obj, trace_id);
            self.set_arrival(obj, self.now + cost);
            self.push_event(self.now + cost, EventKey::Arrival(obj.0));
        }

        self.maybe_start(core);
        Ok(())
    }

    fn set_producer(&mut self, obj: ObjId, producer: Option<usize>) {
        if self.producers.len() <= obj.index() {
            self.producers.resize(obj.index() + 1, None);
        }
        self.producers[obj.index()] = producer;
    }

    fn set_arrival(&mut self, obj: ObjId, time: Cycles) {
        if self.arrivals.len() <= obj.index() {
            self.arrivals.resize(obj.index() + 1, 0);
        }
        self.arrivals[obj.index()] = time;
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    //! Fixtures shared between the virtual and threaded executor tests.
    use super::*;
    use crate::program::{body, NativeBody};
    use bamboo_analysis::astg::DependenceAnalysis;
    use bamboo_analysis::cstg::Cstg;
    use bamboo_lang::builder::ProgramBuilder;
    use bamboo_lang::spec::FlagExpr;
    use bamboo_machine::CoreId;
    use bamboo_profile::ProfileCollector;
    use bamboo_schedule::transforms::Replication;

    /// A native fan-out/reduce program: startup creates N work items and
    /// one accumulator; `work` squares each item; `reduce` folds items
    /// into the accumulator.
    pub(crate) fn native_program(n: i64) -> Program {
        let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("fanout");
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
                ctx.charge(1000);
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
                ctx.charge(60);
                if finished {
                    1
                } else {
                    0
                }
            }))
            .finish();
        Program::from_native(b.build().unwrap())
    }

    /// Builds the analyses + a layout spreading the work group over
    /// `cores` cores.
    pub(crate) fn fanout_setup(
        n: i64,
        cores: usize,
    ) -> (
        Program,
        GroupGraph,
        Layout,
        MachineDescription,
        DisjointnessAnalysis,
    ) {
        let program = native_program(n);
        let analysis = DependenceAnalysis::run(&program.spec);
        let cstg = Cstg::build(&program.spec, &analysis);
        let empty_profile = ProfileCollector::new(&program.spec, "bootstrap").finish();
        let graph = GroupGraph::build(&program.spec, &cstg, &empty_profile);
        let layout = if cores == 1 {
            Layout::single_core(&graph)
        } else {
            let mut repl = Replication::serial(&graph);
            let work_group = graph
                .group_of_task(program.spec.task_by_name("work").unwrap())
                .unwrap();
            repl.copies[work_group.index()] = cores;
            let core_lists: Vec<Vec<CoreId>> = graph
                .groups
                .iter()
                .enumerate()
                .map(|(g, _)| {
                    (0..repl.copies[g])
                        .map(|c| {
                            if bamboo_schedule::GroupId(g as u32) == work_group {
                                CoreId::new(c % cores)
                            } else {
                                CoreId::new(0)
                            }
                        })
                        .collect()
                })
                .collect();
            Layout::new(&graph, &repl, cores, &core_lists)
        };
        let machine = MachineDescription::n_cores(cores);
        let locks = DisjointnessAnalysis::all_disjoint(&program.spec);
        (program, graph, layout, machine, locks)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{fanout_setup, native_program};
    use super::*;
    use bamboo_analysis::astg::DependenceAnalysis;
    use bamboo_analysis::cstg::Cstg;
    use bamboo_lang::ids::ParamIdx;
    use bamboo_machine::CoreId;
    use bamboo_profile::ProfileCollector;
    use bamboo_schedule::transforms::Replication;

    fn run_native(cores: usize, n: i64, config: ExecConfig) -> (RunReport, i64) {
        let (program, graph, layout, machine, locks) = fanout_setup(n, cores);
        let mut exec = VirtualExecutor::new(&program, &graph, &layout, &machine, &locks, config);
        let report = exec.run(None).unwrap();
        let acc_class = program.spec.class_by_name("Acc").unwrap();
        let accs = exec.store.live_of_class(acc_class);
        assert_eq!(accs.len(), 1);
        let total = exec.payload::<(i64, i64, i64)>(accs[0]).0;
        (report, total)
    }

    #[test]
    fn native_single_core_computes_correct_result() {
        let (report, total) = run_native(1, 10, ExecConfig::default());
        assert!(report.quiesced);
        // 1 startup + 10 work + 10 reduce.
        assert_eq!(report.invocations, 21);
        // sum of squares 0..10 = 285.
        assert_eq!(total, 285);
    }

    #[test]
    fn native_multi_core_same_result_faster() {
        let (one, t1) = run_native(1, 16, ExecConfig::default());
        let (four, t4) = run_native(4, 16, ExecConfig::default());
        assert_eq!(t1, t4);
        assert!(
            four.makespan < one.makespan,
            "{} !< {}",
            four.makespan,
            one.makespan
        );
        assert!(four.transfers > 0);
    }

    #[test]
    fn overhead_is_separated_from_body_cycles() {
        let (report, _) = run_native(1, 8, ExecConfig::default());
        // bodies: 50 + 8*1000 + 8*60 = 8530.
        assert_eq!(report.body_cycles, 8530);
        assert!(report.overhead_cycles > 0);
        assert_eq!(report.makespan, report.body_cycles + report.overhead_cycles);
    }

    #[test]
    fn free_cost_model_has_zero_overhead() {
        let config = ExecConfig {
            cost: CostModel::FREE,
            ..ExecConfig::default()
        };
        let (report, _) = run_native(1, 8, config);
        assert_eq!(report.overhead_cycles, 0);
        assert_eq!(report.makespan, report.body_cycles);
    }

    #[test]
    fn profile_collection_records_all_tasks() {
        let config = ExecConfig {
            profile_input: Some("original".to_string()),
            ..ExecConfig::default()
        };
        let (report, _) = run_native(1, 10, config);
        let profile = report.profile.unwrap();
        assert_eq!(profile.tasks.len(), 3);
        assert_eq!(profile.tasks[1].invocations(), 10);
        // reduce: 9 "more" exits + 1 "finish" exit.
        assert_eq!(profile.tasks[2].exits[0].count, 9);
        assert_eq!(profile.tasks[2].exits[1].count, 1);
        // startup allocated 10 Work and 1 Acc.
        assert_eq!(profile.tasks[0].exits[0].site_allocs, vec![10, 1]);
    }

    #[test]
    fn virtual_run_records_cycle_accurate_events() {
        use bamboo_telemetry::EventKind;
        let config = ExecConfig {
            collect_trace: true,
            telemetry: Telemetry::enabled(3),
            ..ExecConfig::default()
        };
        let telemetry = config.telemetry.clone();
        let (report, _) = run_native(3, 12, config);
        let t = telemetry.report();
        assert_eq!(t.unit, TimeUnit::Cycles);
        assert_eq!(t.count(EventKind::TaskStart) as u64, report.invocations);
        assert_eq!(t.count(EventKind::TaskEnd) as u64, report.invocations);
        // Every counted transfer shows up as exactly one send event.
        assert_eq!(t.count(EventKind::ObjSend) as u64, report.transfers);
        // Virtual reservation never retries locks.
        assert_eq!(t.count(EventKind::LockAcquired) as u64, report.invocations);
        assert_eq!(t.count(EventKind::LockFailed), 0);
        // Event timestamps live on the same clock as the makespan.
        assert!(t.last_ts() <= report.makespan);
        // The telemetry task slices agree with the collected trace.
        let trace = report.trace.unwrap();
        let trace_busy: u64 = trace.tasks.iter().map(|tt| tt.end - tt.start).sum();
        let mut event_busy = 0;
        let mut open = std::collections::HashMap::new();
        for e in &t.events {
            match e.kind {
                EventKind::TaskStart => {
                    open.insert(e.core, e.ts);
                }
                EventKind::TaskEnd => {
                    event_busy += e.ts - open.remove(&e.core).unwrap();
                }
                _ => {}
            }
        }
        assert_eq!(event_busy, trace_busy);
    }

    #[test]
    fn trace_is_consistent_with_report() {
        let config = ExecConfig {
            collect_trace: true,
            ..ExecConfig::default()
        };
        let (report, _) = run_native(4, 12, config);
        let trace = report.trace.unwrap();
        assert_eq!(trace.tasks.len() as u64, report.invocations);
        for t in &trace.tasks {
            assert!(t.start >= trace.data_ready(t));
        }
        assert_eq!(trace.makespan, report.makespan);
    }

    #[test]
    fn interpreted_program_runs_and_matches_reference_driver() {
        let src = r#"
            class StartupObject { flag initialstate; }
            class Text {
                flag process; flag submit;
                int count; int sectionId;
                Text(int id) { this.sectionId = id; }
                void process() { this.count = this.sectionId * 3 + 1; }
            }
            class Results {
                flag finished;
                int total; int merged; int expected;
                Results(int expected) { this.expected = expected; }
                boolean mergeResult(Text tp) {
                    this.total = this.total + tp.count;
                    this.merged = this.merged + 1;
                    return this.merged == this.expected;
                }
            }
            task startup(StartupObject s in initialstate) {
                for (int i = 0; i < 4; i = i + 1) {
                    Text tp = new Text(i){ process := true };
                }
                Results rp = new Results(4){ finished := false };
                taskexit(s: initialstate := false);
            }
            task processText(Text tp in process) {
                tp.process();
                taskexit(tp: process := false, submit := true);
            }
            task mergeIntermediateResult(Results rp in !finished, Text tp in submit) {
                boolean allprocessed = rp.mergeResult(tp);
                if (allprocessed) {
                    taskexit(rp: finished := true; tp: submit := false);
                }
                taskexit(tp: submit := false);
            }
        "#;
        let compiled = bamboo_lang::compile_source("kc", src).unwrap();
        // Reference result.
        let mut driver = bamboo_lang::interp::ReferenceDriver::new(&compiled);
        driver.run(1000).unwrap();
        let results_class = compiled.spec.class_by_name("Results").unwrap();
        let ref_obj = driver.objects_of(results_class)[0];
        let ref_total = driver.interp.heap.field(ref_obj, 0).clone();

        // Virtual executor on 1 and 3 cores.
        for cores in [1usize, 3] {
            let locks = DisjointnessAnalysis::run(&compiled.spec, &compiled.ir);
            let program = Program::from_compiled(compiled.clone());
            let analysis = DependenceAnalysis::run(&program.spec);
            let cstg = Cstg::build(&program.spec, &analysis);
            let empty = ProfileCollector::new(&program.spec, "bootstrap").finish();
            let graph = GroupGraph::build(&program.spec, &cstg, &empty);
            let layout = if cores == 1 {
                Layout::single_core(&graph)
            } else {
                let mut repl = Replication::serial(&graph);
                let g = graph
                    .group_of_task(program.spec.task_by_name("processText").unwrap())
                    .unwrap();
                repl.copies[g.index()] = cores;
                let core_lists: Vec<Vec<CoreId>> = graph
                    .groups
                    .iter()
                    .enumerate()
                    .map(|(gi, _)| {
                        (0..repl.copies[gi])
                            .map(|c| {
                                if bamboo_schedule::GroupId(gi as u32) == g {
                                    CoreId::new(c % cores)
                                } else {
                                    CoreId::new(0)
                                }
                            })
                            .collect()
                    })
                    .collect();
                Layout::new(&graph, &repl, cores, &core_lists)
            };
            let machine = MachineDescription::n_cores(cores);
            let mut exec = VirtualExecutor::new(
                &program,
                &graph,
                &layout,
                &machine,
                &locks,
                ExecConfig::default(),
            );
            let report = exec.run(None).unwrap();
            assert!(report.quiesced);
            assert_eq!(report.invocations, 9);
            let results = exec.store.live_of_class(results_class);
            assert_eq!(results.len(), 1);
            let r = match exec.store.get(results[0]).payload {
                PayloadSlot::Interp(r) => r,
                _ => unreachable!(),
            };
            let total = exec.interp_heap().unwrap().field(r, 0).clone();
            assert_eq!(total, ref_total);
        }
    }

    #[test]
    fn lock_classes_merge_for_sharing_tasks() {
        // Build a native program where reduce stores references (declared
        // via with_shared) and check the lock classes merged.
        let (program, graph, layout, machine, locks) = fanout_setup(4, 1);
        let _ = native_program; // fixture also exercised directly elsewhere
        let reduce = program.spec.task_by_name("reduce").unwrap();
        let locks = locks.with_shared(reduce, &[ParamIdx::new(0), ParamIdx::new(1)]);
        let mut exec = VirtualExecutor::new(
            &program,
            &graph,
            &layout,
            &machine,
            &locks,
            ExecConfig::default(),
        );
        exec.run(None).unwrap();
        let acc_class = program.spec.class_by_name("Acc").unwrap();
        let work_class = program.spec.class_by_name("Work").unwrap();
        let acc = exec.store.live_of_class(acc_class)[0];
        let works = exec.store.live_of_class(work_class);
        let acc_lock = exec.store.lock_of(acc);
        for w in works {
            assert_eq!(exec.store.lock_of(w), acc_lock);
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::tests_support::fanout_setup;
    use super::*;
    use crate::program::{body, NativeBody};
    use bamboo_analysis::astg::DependenceAnalysis;
    use bamboo_analysis::cstg::Cstg;
    use bamboo_lang::builder::ProgramBuilder;
    use bamboo_lang::spec::FlagExpr;
    use bamboo_profile::ProfileCollector;

    /// A task that re-enables itself forever.
    fn livelock_program() -> Program {
        let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("livelock");
        let s = b.class("StartupObject", &["initialstate"]);
        let init = b.flag(s, "initialstate");
        b.task("spin")
            .param("s", s, FlagExpr::flag(init))
            .exit("again", |e| e.set(0, init, true))
            .body(body(|ctx| {
                ctx.charge(1);
                0
            }))
            .finish();
        Program::from_native(b.build().expect("valid"))
    }

    #[test]
    fn divergent_program_hits_the_invocation_budget() {
        let program = livelock_program();
        let analysis = DependenceAnalysis::run(&program.spec);
        let cstg = Cstg::build(&program.spec, &analysis);
        let empty = ProfileCollector::new(&program.spec, "x").finish();
        let graph = GroupGraph::build(&program.spec, &cstg, &empty);
        let layout = Layout::single_core(&graph);
        let machine = MachineDescription::n_cores(1);
        let locks = DisjointnessAnalysis::all_disjoint(&program.spec);
        let config = ExecConfig {
            max_invocations: 500,
            ..ExecConfig::default()
        };
        let mut exec = VirtualExecutor::new(&program, &graph, &layout, &machine, &locks, config);
        let err = exec.run(None).unwrap_err();
        assert_eq!(err, ExecError::Diverged(500));
    }

    #[test]
    fn interpreted_trap_surfaces_as_exec_error() {
        let compiled = bamboo_lang::compile_source(
            "trap",
            r#"
            class StartupObject { flag initialstate; }
            task boom(StartupObject s in initialstate) {
                int zero = 0;
                int x = 1 / zero;
                taskexit(s: initialstate := false);
            }
            "#,
        )
        .expect("compiles");
        let locks = DisjointnessAnalysis::run(&compiled.spec, &compiled.ir);
        let program = Program::from_compiled(compiled);
        let analysis = DependenceAnalysis::run(&program.spec);
        let cstg = Cstg::build(&program.spec, &analysis);
        let empty = ProfileCollector::new(&program.spec, "x").finish();
        let graph = GroupGraph::build(&program.spec, &cstg, &empty);
        let layout = Layout::single_core(&graph);
        let machine = MachineDescription::n_cores(1);
        let mut exec = VirtualExecutor::new(
            &program,
            &graph,
            &layout,
            &machine,
            &locks,
            ExecConfig::default(),
        );
        match exec.run(None) {
            Err(ExecError::Trap(msg)) => assert!(msg.contains("division by zero"), "{msg}"),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn exec_error_display_is_informative() {
        assert!(ExecError::Diverged(7).to_string().contains('7'));
        assert!(ExecError::Trap("x".into()).to_string().contains("trap"));
        assert!(ExecError::NativeOnly.to_string().contains("native"));
    }

    #[test]
    fn cost_model_free_vs_default_changes_only_overhead() {
        let (program, graph, layout, machine, locks) = fanout_setup(6, 1);
        let run = |cost| {
            let config = ExecConfig {
                cost,
                ..ExecConfig::default()
            };
            let mut exec =
                VirtualExecutor::new(&program, &graph, &layout, &machine, &locks, config);
            exec.run(None).expect("runs")
        };
        let free = run(CostModel::FREE);
        let paid = run(CostModel::DEFAULT);
        assert_eq!(free.body_cycles, paid.body_cycles);
        assert_eq!(free.invocations, paid.invocations);
        assert!(paid.makespan > free.makespan);
    }
}

#[cfg(test)]
mod payload_tests {
    use super::tests_support::fanout_setup;
    use super::*;

    #[test]
    fn heavier_per_class_payloads_slow_transfers() {
        let (program, graph, layout, machine, locks) = fanout_setup(12, 4);
        let run = |config: ExecConfig| {
            let mut exec =
                VirtualExecutor::new(&program, &graph, &layout, &machine, &locks, config);
            exec.run(None).expect("runs").makespan
        };
        let light = run(ExecConfig::default());
        let work_class = program.spec.class_by_name("Work").expect("exists");
        let mut heavy_cfg = ExecConfig::default();
        heavy_cfg
            .payload_words_per_class
            .insert(work_class, 100_000);
        let heavy = run(heavy_cfg);
        assert!(
            heavy > light,
            "heavy payloads must cost time: {heavy} !> {light}"
        );
    }
}
