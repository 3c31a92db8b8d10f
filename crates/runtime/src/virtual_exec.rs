//! The virtual-time executor.
//!
//! Executes a Bamboo program *for real* — task bodies run, data
//! structures mutate, results are produced — on N virtual cores whose
//! clocks advance by the cost model and the machine's network model. It
//! runs the scheduling simulator's event
//! [`kernel`](bamboo_schedule::sim::kernel), with task bodies (native or
//! interpreted) as the [`Source`] of each invocation's exit, cycles and
//! created objects where the simulator reads profile predictions. So
//! the two are directly comparable (the paper's Figure 9 experiment).
//!
//! Virtual time is one host thread's business, but native bodies need
//! not wait for it. A formed invocation holds all its parameter objects
//! until it completes, and no body sees anything but its parameters, so
//! a formed native body can run as soon as it is formed. On a host with
//! spare hardware threads a body thread per spare thread runs queued
//! bodies ahead, newest first and only while at least three are queued,
//! which leaves the kernel the ones it starts next. The kernel takes
//! each result when the invocation starts and does everything else
//! there — tag minting, created tags, profile, cost, telemetry — so a
//! run's report, profile, trace and payloads are the same at any thread
//! count. Interpreted programs (the interpreter heap is one value) and
//! native programs whose lock plans merge parameters (their objects may
//! share heap) run every body inline at its start.
//!
//! With a single-core layout this is the sequential reference executor
//! used for profiling bootstrap and the 1-core Bamboo measurements.

use crate::cost;
use crate::program::{NativeBody, NativePayload, Program, TaskCtx};
use crate::store::{ObjId, ObjectStore, PayloadSlot};
use bamboo_analysis::DisjointnessAnalysis;
use bamboo_lang::ids::{AllocSiteId, ExitId, ParamIdx, TagTypeId, TaskId};
use bamboo_lang::interp::{Interp, ObjRef, TagInstance};
use bamboo_machine::MachineDescription;
use bamboo_profile::{Cycles, Profile, ProfileCollector};
use bamboo_schedule::sim::kernel::{
    Invocation, Kernel, Objects, Source, Tables, PAYLOAD_WORDS, UNTAGGED,
};
use bamboo_schedule::trace::ExecutionTrace;
use bamboo_schedule::{GroupGraph, Layout};
use bamboo_telemetry::{Telemetry, TimeUnit, WorkerSink};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Record an execution trace.
    pub collect_trace: bool,
    /// Collect a profile, labeled with this input name.
    pub profile_input: Option<String>,
    /// Abort after this many invocations (divergence guard).
    pub max_invocations: u64,
    /// Telemetry session events are recorded into (timestamps in virtual
    /// cycles). Disabled by default; recording costs nothing then.
    pub telemetry: Telemetry,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            collect_trace: false,
            profile_input: None,
            max_invocations: 50_000_000,
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

/// A created object awaiting registration at invocation completion:
/// its site, payload and tags.
type Created = (AllocSiteId, PayloadSlot, Vec<(TagTypeId, TagInstance)>);

/// A formed invocation's state between formation and completion.
struct Pending {
    /// Tag bindings: from formation, then minted, then as the body left
    /// them.
    tag_env: Vec<Option<TagInstance>>,
    exit: ExitId,
    created: Vec<Created>,
}

/// The virtual-time executor. See the module docs.
pub struct VirtualExecutor<'p> {
    program: &'p Program,
    layout: &'p Layout,
    locks: &'p DisjointnessAnalysis,
    config: ExecConfig,
    /// The object store (inspect after `run` for results).
    pub store: ObjectStore,
    interp: Option<Interp<'p>>,
    tables: Tables<'p>,
    kernel: Kernel,
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
        VirtualExecutor {
            program,
            layout,
            locks,
            tables: Tables::new(&program.spec, graph, machine),
            config,
            store: ObjectStore::new(),
            interp: program.compiled().map(|c| Interp::new(c)),
            kernel: Kernel::default(),
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
    ///
    /// # Panics
    ///
    /// Panics when called a second time: one executor runs once. A
    /// native body's panic propagates from here when its invocation
    /// starts, whichever host thread ran the body.
    pub fn run(&mut self, startup: Option<NativePayload>) -> Result<RunReport, ExecError> {
        assert!(self.store.is_empty(), "a VirtualExecutor runs once");
        let telemetry = &self.config.telemetry;
        let sinks = if telemetry.is_enabled() {
            telemetry.set_time_unit(TimeUnit::Cycles);
            (0..self.layout.core_count)
                .map(|c| telemetry.worker(c))
                .collect()
        } else {
            Vec::new()
        };
        let spec = &self.program.spec;
        let payload = match &mut self.interp {
            Some(interp) => PayloadSlot::Interp(interp.alloc_raw(spec.startup.class)),
            None => PayloadSlot::Native(startup.unwrap_or_else(|| Box::new(()))),
        };
        // The kernel numbers objects as the store does: the startup
        // object is 0, created objects follow in creation order.
        self.store.alloc(spec.startup.class, vec![], payload);
        #[cfg(test)]
        tests_support::RAN_AHEAD.set(None);
        let run_ahead = self.program.is_native()
            && !self.locks.lock_plans.iter().any(|plan| plan.has_sharing());
        let mut bodies = Bodies {
            program: self.program,
            locks: self.locks,
            store: &mut self.store,
            interp: self.interp.as_mut(),
            collector: self
                .config
                .profile_input
                .as_ref()
                .map(|input| ProfileCollector::new(spec, input.clone())),
            sinks,
            tag_env: Vec::new(),
            pending: Vec::new(),
            ahead: run_ahead.then(RunAhead::new).flatten(),
            body_cycles: 0,
            overhead_cycles: 0,
        };
        let out = self.kernel.run(
            &self.tables,
            self.layout,
            &mut bodies,
            self.config.collect_trace,
            Cycles::MAX,
            self.config.max_invocations,
        );
        if let Some(ahead) = bodies.ahead.take() {
            ahead.settle(bodies.store);
        }
        let out = out?;
        if !out.completed {
            return Err(ExecError::Diverged(self.config.max_invocations));
        }
        // Hand the event rings back so `config.telemetry.report()` sees
        // this run's events without waiting for the executor to drop.
        for sink in bodies.sinks.drain(..) {
            sink.submit();
        }
        let overhead_cycles = bodies.overhead_cycles;
        Ok(RunReport {
            makespan: out.makespan,
            invocations: out.invocations,
            body_cycles: bodies.body_cycles,
            overhead_cycles,
            transfers: out.transfers,
            quiesced: true,
            trace: out.trace,
            profile: bodies.collector.take().map(|mut c| {
                c.record_overhead(overhead_cycles);
                c.finish()
            }),
        })
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
}

/// The executor's [`Source`]: each invocation's outcome comes from
/// running its body.
struct Bodies<'e, 'p> {
    program: &'p Program,
    locks: &'p DisjointnessAnalysis,
    store: &'e mut ObjectStore,
    interp: Option<&'e mut Interp<'p>>,
    collector: Option<ProfileCollector>,
    /// Per-core telemetry sinks (empty when telemetry is disabled).
    sinks: Vec<WorkerSink>,
    /// Tags bound by the pick in progress, and per invocation id.
    tag_env: Vec<Option<TagInstance>>,
    pending: Vec<Pending>,
    /// Body threads, when native bodies may run ahead of their start.
    ahead: Option<RunAhead>,
    body_cycles: Cycles,
    overhead_cycles: Cycles,
}

/// The kernel's routing hash of an object carrying `tags`.
fn tag_hash(tags: &[(TagTypeId, TagInstance)]) -> u64 {
    tags.first().map_or(UNTAGGED, |(_, inst)| inst.0)
}

impl Bodies<'_, '_> {
    /// Runs `inv`'s body: its exit, charged cycles and created objects.
    fn execute(
        &mut self,
        inv: Invocation<'_>,
    ) -> Result<(ExitId, Cycles, Vec<Created>), ExecError> {
        let tspec = self.program.spec.task(inv.task);
        let pending = &mut self.pending[inv.id as usize];
        if self.program.is_native() {
            let ran = match &mut self.ahead {
                Some(ahead) => ahead.take(inv.id),
                None => Job::take(self.program, self.store, inv).run(),
            };
            ran.job.put_back(self.store);
            let created = (ran.created.into_iter())
                .map(|(site, payload)| {
                    let site = AllocSiteId::new(site);
                    let tags = tspec.created_tags(site, &pending.tag_env);
                    (site, PayloadSlot::Native(payload), tags)
                })
                .collect();
            return Ok((ExitId::new(ran.exit), ran.charged, created));
        }
        let refs: Vec<ObjRef> = inv
            .params
            .iter()
            .map(|&o| match self.store.get(ObjId(o)).payload {
                PayloadSlot::Interp(r) => r,
                _ => unreachable!("interpreted payloads are ObjRefs"),
            })
            .collect();
        let interp = self.interp.as_mut().expect("interpreted program");
        let outcome = (interp.run_task(inv.task, &refs, std::mem::take(&mut pending.tag_env)))
            .map_err(|e| ExecError::Trap(e.message))?;
        pending.tag_env = outcome.tag_env;
        let created = (outcome.created.into_iter())
            .map(|c| (c.site, PayloadSlot::Interp(c.obj), c.tags))
            .collect();
        Ok((outcome.exit, outcome.cycles, created))
    }
}

impl Source for Bodies<'_, '_> {
    type Error = ExecError;

    fn begin_pick(&mut self, task: TaskId) {
        self.tag_env.clear();
        self.tag_env
            .resize(self.program.spec.task(task).tag_vars.len(), None);
    }

    fn bind(&mut self, _objs: &Objects, task: TaskId, param: usize, obj: u32) -> bool {
        let tags = &self.store.get(ObjId(obj)).tags;
        match self.program.spec.task(task).params[param].bind_tags(tags, &self.tag_env) {
            Some(updates) => {
                for (v, inst) in updates {
                    self.tag_env[v] = Some(inst);
                }
                true
            }
            None => false,
        }
    }

    fn formed(&mut self, inv: Invocation<'_>) {
        debug_assert_eq!(inv.id as usize, self.pending.len());
        self.pending.push(Pending {
            tag_env: std::mem::take(&mut self.tag_env),
            exit: ExitId::new(0),
            created: Vec::new(),
        });
        if let Some(ahead) = &mut self.ahead {
            ahead.queue(inv.id, Job::take(self.program, self.store, inv));
        }
    }

    fn start(
        &mut self,
        inv: Invocation<'_>,
        now: Cycles,
        enqueued: u64,
    ) -> Result<Cycles, ExecError> {
        // Mint fresh tag instances for body-created tag variables.
        let tspec = self.program.spec.task(inv.task);
        let store = &mut *self.store;
        tspec.mint_tags(&mut self.pending[inv.id as usize].tag_env, || {
            store.mint_tag()
        });

        // Execute the body now; effects apply at completion time.
        let (exit, charged, created) = self.execute(inv)?;
        let overhead = cost::DISPATCH
            + cost::LOCK_PER_PARAM * inv.params.len() as Cycles
            + cost::ALLOC * created.len() as Cycles
            + cost::ENQUEUE * enqueued;
        let duration = charged + overhead;
        self.body_cycles += charged;
        self.overhead_cycles += overhead;

        if let Some(collector) = &mut self.collector {
            // Counted in site order, so identical runs record identical
            // profiles.
            let mut sites: Vec<AllocSiteId> = created.iter().map(|c| c.0).collect();
            sites.sort_unstable();
            let allocs: Vec<(AllocSiteId, u64)> = (sites.chunk_by(|a, b| a == b))
                .map(|run| (run[0], run.len() as u64))
                .collect();
            collector.record(inv.task, exit, charged, &allocs);
        }

        if let Some(sink) = self.sinks.get_mut(inv.core.index()) {
            // Virtual dispatch is transactional with atomic reservation,
            // so lock acquisition always succeeds with zero retries.
            let (task, instance) = (inv.task.index() as u64, inv.instance.index() as u64);
            sink.lock_acquired(now, inv.params.len() as u64, 0, u64::MAX);
            sink.task_start(now, task, instance, u64::MAX);
            sink.task_end(now + duration, task, instance, u64::MAX);
        }
        let pending = &mut self.pending[inv.id as usize];
        pending.exit = exit;
        pending.created = created;
        Ok(duration)
    }

    fn complete(
        &mut self,
        objs: &mut Objects,
        inv: Invocation<'_>,
        created: &mut Vec<(AllocSiteId, u64)>,
    ) {
        let tspec = self.program.spec.task(inv.task);
        let pending = &mut self.pending[inv.id as usize];
        let (tag_env, exit) = (std::mem::take(&mut pending.tag_env), pending.exit);
        let made = std::mem::take(&mut pending.created);

        // Shared-lock directive: merge lock classes of grouped params.
        for group in &self.locks.lock_plans[inv.task.index()].groups {
            for pair in group.windows(2) {
                self.store.merge_locks(
                    ObjId(inv.params[pair[0].index()]),
                    ObjId(inv.params[pair[1].index()]),
                );
            }
        }

        // Exit actions.
        for (p, &obj) in inv.params.iter().enumerate() {
            let tags = &mut self.store.get_mut(ObjId(obj)).tags;
            let o = obj as usize;
            tspec.apply_exit(exit, ParamIdx::new(p), &mut objs.flags[o], tags, &tag_env);
            objs.tag[o] = tag_hash(tags);
        }

        // Register created objects, in the order the kernel numbers them.
        for (site, payload, tags) in made {
            created.push((site, tag_hash(&tags)));
            (self.store).alloc(tspec.alloc_sites[site.index()].class, tags, payload);
        }
    }

    fn arrived(&mut self, now: Cycles, core: u32, queued: usize) {
        if let Some(sink) = self.sinks.get_mut(core as usize) {
            sink.obj_recv(now, PAYLOAD_WORDS * 8, u64::MAX, u64::MAX);
            sink.queue_depth(now, queued as u64, 0);
        }
    }

    fn sent(&mut self, now: Cycles, from: u32, to: u32) {
        if let Some(sink) = self.sinks.get_mut(from as usize) {
            sink.obj_send(now, PAYLOAD_WORDS * 8, to as u64, u64::MAX);
        }
    }
}

/// Bodies a body thread leaves queued for the kernel: it takes a job
/// only while more than this many are queued. The kernel starts the
/// oldest next, so a body thread that took them would make the kernel
/// wait where it could have run the body itself.
const KEPT_FOR_KERNEL: usize = 2;

/// Host threads a run can spare for bodies: all but the kernel's.
fn spare_threads() -> usize {
    #[cfg(test)]
    if tests_support::FORCE_INLINE.get() {
        return 0;
    }
    static SPARE: OnceLock<usize> = OnceLock::new();
    *SPARE.get_or_init(|| thread::available_parallelism().map_or(0, |n| n.get() - 1))
}

/// A formed native invocation's body with its parameter payloads, which
/// stay out of the store until the invocation starts.
struct Job {
    body: NativeBody,
    params: Vec<u32>,
    payloads: Vec<NativePayload>,
    sites: usize,
    exits: usize,
}

/// A job whose body ran: the job (its payloads as the body left them),
/// the checked exit index, the charged cycles and the created objects.
struct Ran {
    job: Job,
    exit: usize,
    charged: Cycles,
    created: Vec<(usize, NativePayload)>,
}

impl Job {
    /// Takes `inv`'s parameter payloads out of `store`.
    fn take(program: &Program, store: &mut ObjectStore, inv: Invocation<'_>) -> Job {
        let tspec = program.spec.task(inv.task);
        Job {
            body: program
                .native_body(inv.task)
                .expect("native program")
                .clone(),
            params: inv.params.to_vec(),
            payloads: (inv.params.iter())
                .map(|&o| store.take_native(ObjId(o)))
                .collect(),
            sites: tspec.alloc_sites.len(),
            exits: tspec.exits.len(),
        }
    }

    fn run(mut self) -> Ran {
        let mut ctx = TaskCtx::new(&mut self.payloads, self.sites, self.exits);
        let exit = (self.body)(&mut ctx);
        let exit = ctx.check_exit(exit);
        let (charged, created) = ctx.finish();
        Ran {
            job: self,
            exit,
            charged,
            created,
        }
    }

    /// Returns the parameter payloads to `store`.
    fn put_back(self, store: &mut ObjectStore) {
        for (&o, payload) in self.params.iter().zip(self.payloads) {
            store.put_native(ObjId(o), payload);
        }
    }
}

/// The body threads' side of [`RunAhead`].
#[derive(Default)]
struct Shared {
    state: Mutex<Queue>,
    /// Body threads wait here for a deep enough queue.
    work: Condvar,
    /// The kernel waits here for a body another thread runs.
    done: Condvar,
}

#[derive(Default)]
struct Queue {
    /// Jobs nobody has taken, by invocation id (formation order).
    queued: BTreeMap<u32, Job>,
    /// Bodies run before their invocation started, by invocation id.
    finished: HashMap<u32, thread::Result<Ran>>,
    /// Body threads waiting on `work`.
    idle: usize,
    /// Whether the kernel waits on `done`.
    waiting: bool,
    /// Set when the run ends: body threads exit.
    closed: bool,
    /// Bodies the body threads ran.
    #[cfg(test)]
    ran_ahead: u64,
}

impl Shared {
    /// Locks the queue. Bodies run outside the lock, so a panic never
    /// poisons it with a half-made change.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn body_thread(&self) {
        let mut q = self.lock();
        while !q.closed {
            if q.queued.len() <= KEPT_FOR_KERNEL {
                q.idle += 1;
                q = self.work.wait(q).unwrap_or_else(|e| e.into_inner());
                q.idle -= 1;
                continue;
            }
            let (id, job) = q.queued.pop_last().expect("queue is deep");
            drop(q);
            let ran = panic::catch_unwind(AssertUnwindSafe(|| job.run()));
            q = self.lock();
            q.finished.insert(id, ran);
            #[cfg(test)]
            {
                q.ran_ahead += 1;
            }
            if q.waiting {
                self.done.notify_one();
            }
        }
    }
}

/// Runs formed native bodies on spare hardware threads ahead of their
/// start (see the module docs). The threads are spawned when the queue
/// first gets deep enough for them.
struct RunAhead {
    shared: Arc<Shared>,
    spare: usize,
    threads: Vec<JoinHandle<()>>,
}

impl RunAhead {
    /// `None` on a host with no thread to spare.
    fn new() -> Option<RunAhead> {
        let spare = spare_threads();
        (spare > 0).then(|| RunAhead {
            shared: Arc::default(),
            spare,
            threads: Vec::new(),
        })
    }

    /// Queues formed invocation `id`'s body.
    fn queue(&mut self, id: u32, job: Job) {
        let mut q = self.shared.lock();
        q.queued.insert(id, job);
        if q.queued.len() <= KEPT_FOR_KERNEL {
            return;
        }
        if q.idle > 0 {
            self.shared.work.notify_one();
        }
        drop(q);
        while self.spare > 0 {
            self.spare -= 1;
            let shared = Arc::clone(&self.shared);
            // A host that cannot start a thread runs the bodies inline.
            if let Ok(handle) = thread::Builder::new()
                .name("bamboo-body".into())
                .spawn(move || shared.body_thread())
            {
                self.threads.push(handle);
            }
        }
    }

    /// Invocation `id`'s body outcome, now that it starts: run ahead, or
    /// run here if still queued. While another thread runs it, the
    /// kernel runs the oldest queued body instead of waiting.
    ///
    /// # Panics
    ///
    /// Resumes the body's panic, wherever the body ran.
    fn take(&mut self, id: u32) -> Ran {
        let mut q = self.shared.lock();
        let ran = loop {
            if let Some(job) = q.queued.remove(&id) {
                drop(q);
                return job.run();
            }
            if let Some(ran) = q.finished.remove(&id) {
                break ran;
            }
            if let Some((other, job)) = q.queued.pop_first() {
                drop(q);
                let ran = panic::catch_unwind(AssertUnwindSafe(|| job.run()));
                q = self.shared.lock();
                q.finished.insert(other, ran);
                continue;
            }
            q.waiting = true;
            q = self.shared.done.wait(q).unwrap_or_else(|e| e.into_inner());
            q.waiting = false;
        };
        drop(q);
        ran.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Stops and joins the body threads.
    fn close(&mut self) {
        self.shared.lock().closed = true;
        self.shared.work.notify_all();
        for handle in self.threads.drain(..) {
            // Bodies run under `catch_unwind`: a body thread never panics.
            let _ = handle.join();
        }
    }

    /// Ends the run's run-ahead: joins the body threads and returns every
    /// payload still held by a job to `store`. Only a run that stopped
    /// early leaves jobs; a body that ran ahead of an invocation the run
    /// never started leaves its changes on its parameters' payloads, and
    /// its created objects are dropped.
    fn settle(mut self, store: &mut ObjectStore) {
        self.close();
        let mut q = self.shared.lock();
        #[cfg(test)]
        tests_support::RAN_AHEAD.set(Some(q.ran_ahead));
        for job in std::mem::take(&mut q.queued).into_values() {
            job.put_back(store);
        }
        // A job whose body panicked lost its payloads with it.
        for ran in std::mem::take(&mut q.finished).into_values().flatten() {
            ran.job.put_back(store);
        }
    }
}

impl Drop for RunAhead {
    /// A run that unwinds still joins its body threads.
    fn drop(&mut self) {
        self.close();
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
    use std::cell::Cell;

    thread_local! {
        /// Set to run every body of this thread's runs inline.
        pub(crate) static FORCE_INLINE: Cell<bool> = const { Cell::new(false) };
        /// Bodies the body threads ran in this thread's last run, `None`
        /// if no run used them.
        pub(crate) static RAN_AHEAD: Cell<Option<u64>> = const { Cell::new(None) };
    }

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

    /// The analyses + a layout spreading [`native_program`]'s work group
    /// over `cores` cores.
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
        spread_work(native_program(n), cores)
    }

    /// The analyses + a layout spreading the group of `program`'s `work`
    /// task over `cores` cores.
    pub(crate) fn spread_work(
        program: Program,
        cores: usize,
    ) -> (
        Program,
        GroupGraph,
        Layout,
        MachineDescription,
        DisjointnessAnalysis,
    ) {
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
        // Dispatches: 1 startup + 8 work + 8 reduce. Locked parameters:
        // 1 + 8 + 2*8. Allocations: the startup's 8 Work and 1 Acc.
        // Parameter-set enqueues: the startup object, the 9 created
        // objects, 8 done Work and the Acc after each of its 7 "more"
        // exits.
        assert_eq!(report.invocations, 17);
        assert_eq!(
            report.overhead_cycles,
            17 * cost::DISPATCH + 25 * cost::LOCK_PER_PARAM + 9 * cost::ALLOC + 25 * cost::ENQUEUE
        );
        assert_eq!(report.makespan, report.body_cycles + report.overhead_cycles);
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
        // Every counted transfer shows up as exactly one send event, and
        // only a send between two different cores is one.
        assert_eq!(t.count(EventKind::ObjSend) as u64, report.transfers);
        assert!(report.transfers > 0);
        for e in t.events.iter().filter(|e| e.kind == EventKind::ObjSend) {
            assert_ne!(e.b, e.core as u64, "a send to its own core at {}", e.ts);
        }
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
mod ahead_tests {
    //! Run-ahead changes when a body runs, never what a run produces.
    use super::tests_support::{spread_work, FORCE_INLINE, RAN_AHEAD};
    use super::*;
    use crate::program::body;
    use bamboo_lang::builder::ProgramBuilder;
    use bamboo_lang::spec::FlagExpr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    const ITEMS: i64 = 64;

    /// A deep fan-out: `startup` creates `n` items and an accumulator;
    /// `work` mixes its item in a loop, charges by item, takes exit
    /// "even" or "odd" and creates a `Note` for every third item;
    /// `reduce` folds the items into the accumulator. Item `panic_at`'s
    /// body panics. With `hold`, item 1's body waits (ten seconds at
    /// most) until item `hold`'s body has started: on one core the
    /// kernel runs item 1 itself with every other item queued, so only
    /// a body thread can start item `hold` meanwhile.
    fn deep_fanout(n: i64, panic_at: Option<i64>, hold: Option<i64>) -> Program {
        let started: Arc<Vec<AtomicBool>> =
            Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("deep-fanout");
        let s = b.class("StartupObject", &["initialstate"]);
        let w = b.class("Work", &["ready", "done"]);
        let acc = b.class("Acc", &["open", "closed"]);
        let note = b.class("Note", &["fresh"]);
        let init = b.flag(s, "initialstate");
        let ready = b.flag(w, "ready");
        let done = b.flag(w, "done");
        let open = b.flag(acc, "open");
        let closed = b.flag(acc, "closed");
        let fresh = b.flag(note, "fresh");
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
            .alloc(note, &[(fresh, true)], &[])
            .exit("even", |e| e.set(0, ready, false).set(0, done, true))
            .exit("odd", |e| e.set(0, ready, false).set(0, done, true))
            .body(body(move |ctx| {
                let item = *ctx.param::<i64>(0);
                started[item as usize].store(true, Ordering::SeqCst);
                if Some(item) == panic_at {
                    panic!("work item {item} failed");
                }
                if let (1, Some(h)) = (item, hold) {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !started[h as usize].load(Ordering::SeqCst) && Instant::now() < deadline {
                        thread::yield_now();
                    }
                }
                let mut x = item as u64 + 1;
                for _ in 0..2_000 {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                }
                *ctx.param_mut::<i64>(0) = (x >> 33) as i64;
                ctx.charge(1000 + 13 * (item % 7) as Cycles);
                if item % 3 == 0 {
                    ctx.create(0, (item, x));
                }
                (item % 2) as usize
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
                usize::from(finished)
            }))
            .finish();
        Program::from_native(b.build().unwrap())
    }

    /// What one run produced: the report, the telemetry events and every
    /// object's payload, as text; and the bodies run ahead.
    struct Observed {
        report: String,
        events: String,
        payloads: Vec<String>,
        ran_ahead: Option<u64>,
    }

    fn digest(payload: &NativePayload) -> String {
        if let Some(item) = payload.downcast_ref::<i64>() {
            item.to_string()
        } else if let Some(note) = payload.downcast_ref::<(i64, u64)>() {
            format!("{note:?}")
        } else if let Some(acc) = payload.downcast_ref::<(i64, i64, i64)>() {
            format!("{acc:?}")
        } else {
            "startup".to_string()
        }
    }

    fn observe(program: Program, cores: usize, inline: bool) -> Observed {
        let (program, graph, layout, machine, locks) = spread_work(program, cores);
        let config = ExecConfig {
            collect_trace: true,
            profile_input: Some("deep".to_string()),
            telemetry: Telemetry::enabled(cores),
            ..ExecConfig::default()
        };
        let telemetry = config.telemetry.clone();
        let mut exec = VirtualExecutor::new(&program, &graph, &layout, &machine, &locks, config);
        FORCE_INLINE.set(inline);
        let report = exec.run(None);
        FORCE_INLINE.set(false);
        let payloads = (exec.store.iter())
            .map(|(id, obj)| match &obj.payload {
                PayloadSlot::Native(p) => format!("{id} {}", digest(p)),
                other => format!("{id} {other:?}"),
            })
            .collect();
        Observed {
            report: format!("{:?}", report.expect("runs")),
            events: format!("{:?}", telemetry.report().events),
            payloads,
            ran_ahead: RAN_AHEAD.get(),
        }
    }

    #[test]
    fn run_ahead_is_invisible() {
        let parallel = spare_threads() > 0;
        for cores in [1, 4] {
            let hold = (parallel && cores == 1).then_some(ITEMS - 1);
            let ahead = observe(deep_fanout(ITEMS, None, hold), cores, false);
            let inline = observe(deep_fanout(ITEMS, None, None), cores, true);
            assert_eq!(ahead.report, inline.report, "report on {cores} cores");
            assert_eq!(ahead.events, inline.events, "telemetry on {cores} cores");
            assert_eq!(ahead.payloads, inline.payloads, "payloads on {cores} cores");
            assert_eq!(inline.ran_ahead, None);
            if hold.is_some() {
                assert!(
                    ahead.ran_ahead >= Some(1),
                    "no body ran ahead: {:?}",
                    ahead.ran_ahead
                );
            }
            // 64 items, 22 notes, one accumulator, the startup object.
            assert_eq!(inline.payloads.len(), 88);
            assert!(
                inline.report.contains("invocations: 129"),
                "{}",
                inline.report
            );
        }
    }

    #[test]
    fn a_panicking_body_panics_the_run() {
        // With a body thread, item 1 holds the kernel until item 40 has
        // started there, so the panic happens on the body thread.
        let hold = (spare_threads() > 0).then_some(40);
        for (inline, hold) in [(false, hold), (true, None)] {
            let (program, graph, layout, machine, locks) =
                spread_work(deep_fanout(ITEMS, Some(40), hold), 1);
            let mut exec = VirtualExecutor::new(
                &program,
                &graph,
                &layout,
                &machine,
                &locks,
                ExecConfig::default(),
            );
            FORCE_INLINE.set(inline);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| exec.run(None)));
            FORCE_INLINE.set(false);
            let payload = caught.expect_err("the run panics");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert_eq!(message, "work item 40 failed", "inline: {inline}");
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use crate::program::{body, NativeBody};
    use bamboo_lang::builder::ProgramBuilder;
    use bamboo_lang::spec::FlagExpr;

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

    /// `startup` creates `n` spinners, each of which re-enables itself
    /// forever: the run stops with most of them formed and queued.
    fn spinners_program(n: i64) -> Program {
        let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("spinners");
        let s = b.class("StartupObject", &["initialstate"]);
        let spinner = b.class("Spinner", &["ready"]);
        let init = b.flag(s, "initialstate");
        let ready = b.flag(spinner, "ready");
        b.task("startup")
            .param("s", s, FlagExpr::flag(init))
            .alloc(spinner, &[(ready, true)], &[])
            .exit("", |e| e.set(0, init, false))
            .body(body(move |ctx| {
                for i in 0..n {
                    ctx.create(0, i);
                }
                0
            }))
            .finish();
        b.task("spin")
            .param("w", spinner, FlagExpr::flag(ready))
            .exit("again", |e| e.set(0, ready, true))
            .body(body(|ctx| {
                *ctx.param_mut::<i64>(0) += 1;
                ctx.charge(1);
                0
            }))
            .finish();
        Program::from_native(b.build().expect("valid"))
    }

    #[test]
    fn divergent_program_hits_the_invocation_budget() {
        // The spinners keep a deep queue, so body threads run ahead of
        // invocations the run never starts; their payloads come back.
        for program in [livelock_program(), spinners_program(64)] {
            let locks = DisjointnessAnalysis::all_disjoint(&program.spec);
            let deploy = crate::deploy::bootstrap(program, locks);
            let machine = MachineDescription::n_cores(1);
            let config = ExecConfig {
                max_invocations: 500,
                ..ExecConfig::default()
            };
            let mut exec = VirtualExecutor::over(&deploy, &machine, config);
            let err = exec.run(None).unwrap_err();
            assert_eq!(err, ExecError::Diverged(500));
            for (id, obj) in exec.store.iter() {
                assert!(
                    matches!(obj.payload, PayloadSlot::Native(_)),
                    "{id} of {:?}: {:?}",
                    deploy.program,
                    obj.payload
                );
            }
        }
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
        let deploy = crate::deploy::bootstrap(Program::from_compiled(compiled), locks);
        let machine = MachineDescription::n_cores(1);
        let mut exec = VirtualExecutor::over(&deploy, &machine, ExecConfig::default());
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
}

#[cfg(test)]
mod payload_tests {
    use super::tests_support::fanout_setup;
    use super::*;

    /// Transfer cost reaches the makespan: the same fan-out runs slower
    /// on a machine that charges more cycles per payload word.
    #[test]
    fn heavier_transfers_slow_the_makespan() {
        let (program, graph, layout, machine, locks) = fanout_setup(12, 4);
        let run = |machine: &MachineDescription| {
            let config = ExecConfig::default();
            let mut exec = VirtualExecutor::new(&program, &graph, &layout, machine, &locks, config);
            exec.run(None).expect("runs").makespan
        };
        let light = run(&machine);
        let heavy = run(&MachineDescription::new(
            "heavy",
            2,
            2,
            vec![],
            700,
            2,
            220,
            6_250,
        ));
        assert!(
            heavy > light,
            "heavy payloads must cost time: {heavy} !> {light}"
        );
    }
}
