//! One core of the threaded executor, as step functions over a [`Port`].
//!
//! [`CoreState`] is what a core owns: its parameter sets
//! ([`WorkerSets`]), dispatch count, steal rotation and live/dead mode.
//! Its steps — [`CoreState::on_message`], [`CoreState::next_invocation`]
//! and [`CoreState::run`] — reach what another core can observe only
//! through the [`Port`].
//!
//! **Design rule.** Every ordering decision lives here; a `Port` method
//! performs exactly one primitive (one lock, one shared cell read or
//! update, or one channel operation). So an invocation is counted before
//! it is queued, an adopted leftover is counted only while its request is
//! open, a delivery redirects first, and an idle core publishes idleness,
//! re-checks its queue, then parks — each written once, below. The
//! threaded executor's `Port` is its shared state plus one thread per
//! core; the test explorer's passes one baton between the cores at every
//! `Port` call, so a seeded scheduler owns the interleaving. Nothing here
//! is shared between threads: no synchronisation primitive, no spawn.

use crate::adapt::RelayoutError;
use crate::chaos::{FaultPlan, FaultSpec, MAX_REDELIVERIES, MESSAGE_DEADLINE};
use crate::deploy::Deployment;
use crate::ledger::Completion;
use crate::program::{NativePayload, Program, TaskCtx};
use crate::virtual_exec::ExecError;
use bamboo_analysis::DisjointnessAnalysis;
use bamboo_lang::ids::{AllocSiteId, ClassId, ExitId, ParamIdx, TagTypeId, TaskId};
use bamboo_lang::interp::TagInstance;
use bamboo_lang::spec::{FlagSet, ProgramSpec};
use bamboo_schedule::formation::{self, Probe, SlotTable};
use bamboo_schedule::sim::kernel::PAYLOAD_WORDS;
use bamboo_schedule::{GroupGraph, InstanceId, Layout, RouteDecision, RouteTable};
use bamboo_telemetry::analyze::LiveEstimator;
use bamboo_telemetry::event::{fault_code, recover_code};
use bamboo_telemetry::{WorkerSink, NO_ID};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// An object in flight or enqueued at a worker.
pub(crate) struct TObject {
    pub(crate) class: ClassId,
    pub(crate) flags: FlagSet,
    pub(crate) tags: Vec<(TagTypeId, TagInstance)>,
    pub(crate) payload: NativePayload,
    /// Lock class in the lock table, or [`UNSHARED`] until a
    /// shared-lock directive first groups the object with another.
    pub(crate) lock: usize,
    /// Invocation that released or created this object ([`NO_ID`] for
    /// a root): the consumer's causal edge survives forwarding and steals.
    pub(crate) producer: u64,
    /// Message id minted by the send currently carrying the object.
    pub(crate) msg: u64,
    /// Core that performed that send ([`NO_ID`] for the driver).
    pub(crate) src_core: u64,
    /// The request of the root object this one descends from (request
    /// isolation — see `InstanceSets`); a batch run is one request.
    pub(crate) request: u64,
    /// Instance the carrying send targeted: re-read on delivery, so an
    /// object that raced a hot relayout chases its instance.
    pub(crate) instance: InstanceId,
}

pub(crate) enum Message {
    Deliver(Box<TObject>),
    /// Wakes a blocked worker so it re-checks its run queue and its
    /// steal peers. Holds no ledger unit.
    Poke,
    /// A request completed: evict its leftover buffered objects to the
    /// graveyard. Holds no ledger unit.
    Sweep(u64),
    /// A hot relayout moved `instance` off this core: re-send its
    /// buffered objects to the new host. Holds a ledger unit of each
    /// listed request: those open when the host switched.
    Migrate(InstanceId, Vec<u64>),
    Shutdown,
}

/// [`TObject::lock`] of an object that belongs to no lock class: the
/// worker holding its `Box` owns it, so dispatch takes no lock for it.
pub(crate) const UNSHARED: usize = usize::MAX;

/// Estimated wire size of one object for telemetry: the payload words
/// the simulator and the virtual executor charge per transfer.
const OBJ_BYTES_ESTIMATE: u64 = PAYLOAD_WORDS * 8;

/// Soft bound on each worker's run queue: a worker forming invocations
/// past it sheds the surplus to a less loaded same-group core.
const RUN_QUEUE_CAPACITY: usize = 256;

/// The facts a run counts, each exactly once: the report field and the
/// named telemetry counter ([`Fact::NAMES`]) read the same cell.
#[derive(Clone, Copy)]
pub(crate) enum Fact {
    Dispatches,
    Steals,
    LockRetries,
    Sheds,
    Faults,
    Recoveries,
    Migrations,
    BytesSent,
}

impl Fact {
    /// Each fact's telemetry counter, in discriminant order.
    pub(crate) const NAMES: [&'static str; 8] = [
        "threaded.dispatches",
        "threaded.steals",
        "threaded.lock_retries",
        "router.shed",
        "chaos.faults",
        "chaos.recoveries",
        "relayout.migrations",
        "threaded.bytes_sent",
    ];
}

/// What every core of a run reads and none writes.
pub(crate) struct Plan {
    pub(crate) program: Program,
    pub(crate) graph: GroupGraph,
    /// The synthesis layout; its `core` fields are epoch 0, the live
    /// placement is [`Port::core_of`].
    pub(crate) layout: Layout,
    /// Slot table per group.
    pub(crate) slot_tables: Vec<SlotTable>,
    pub(crate) routes: RouteTable,
    pub(crate) locks: DisjointnessAnalysis,
    /// Compiled fault-injection plan (`None` = fault-free run).
    pub(crate) chaos: Option<FaultPlan>,
    /// The epoch-0 steal topology: the cores hosting each group
    /// (stealable when ≥ 2), `hosted[core][group]`, and each core's
    /// victims (cores sharing a multi-core group with it).
    pub(crate) group_cores: Vec<Vec<usize>>,
    pub(crate) hosted: Vec<Vec<bool>>,
    pub(crate) steal_peers: Vec<Vec<usize>>,
    /// Resident mode: a completed request's leftovers are swept at once
    /// (batch runs drain them at shutdown).
    pub(crate) sweep_on_complete: bool,
}

impl Plan {
    /// The plan of `deployment` under `faults`. The fault plan is
    /// compiled against the steal topology, so kill targeting can prove
    /// every victim's groups survive elsewhere.
    pub(crate) fn new(
        deployment: &Deployment,
        faults: Option<&FaultSpec>,
        sweep_on_complete: bool,
    ) -> Self {
        let (program, graph, layout) = (&deployment.program, &deployment.graph, &deployment.layout);
        let (core_count, group_count) = (layout.core_count, graph.groups.len());
        let mut hosted = vec![vec![false; group_count]; core_count];
        for inst in &layout.instances {
            hosted[inst.core.index()][inst.group.index()] = true;
        }
        let group_cores: Vec<Vec<usize>> = (0..group_count)
            .map(|g| (0..core_count).filter(|&c| hosted[c][g]).collect())
            .collect();
        let shared = |c: usize, peer: usize| {
            peer != c
                && group_cores
                    .iter()
                    .any(|cs| cs.len() > 1 && cs.contains(&c) && cs.contains(&peer))
        };
        let steal_peers = (0..core_count)
            .map(|c| (0..core_count).filter(|&peer| shared(c, peer)).collect())
            .collect();
        Plan {
            program: program.clone(),
            graph: graph.clone(),
            layout: layout.clone(),
            slot_tables: SlotTable::per_group(&program.spec, graph),
            routes: RouteTable::new(&program.spec, graph),
            locks: deployment.locks.clone(),
            chaos: faults.map(|spec| FaultPlan::compile(spec, &group_cores, &hosted)),
            group_cores,
            hosted,
            steal_peers,
            sweep_on_complete,
        }
    }

    pub(crate) fn spec(&self) -> &ProgramSpec {
        &self.program.spec
    }

    pub(crate) fn cores(&self) -> usize {
        self.layout.core_count
    }

    pub(crate) fn group_of_instance(&self, inst: InstanceId) -> usize {
        self.layout.instances[inst.index()].group.index()
    }

    pub(crate) fn slot_table(&self, inst: InstanceId) -> &SlotTable {
        &self.slot_tables[self.group_of_instance(inst)]
    }

    fn recovery_enabled(&self) -> bool {
        self.chaos.as_ref().is_some_and(FaultPlan::recovery_enabled)
    }
}

/// Everything one core can observe of the others, one primitive per
/// method, so a test `Port` that preempts at every call preempts at the
/// real interleaving points. Generic, never `dyn`, so the hot path stays
/// monomorphic. `plan`, `count`, `add_cycles` and `estimator` touch
/// nothing another core decides on.
pub(crate) trait Port {
    /// The held locks of one invocation's lock classes.
    type Guards;
    fn plan(&self) -> &Plan;
    fn count(&self, fact: Fact, n: u64);
    fn add_cycles(&self, cycles: u64);
    fn estimator(&self) -> Option<&LiveEstimator>;
    // Mailboxes: `park` blocks until a message arrives or `timeout`
    // passes (`None`).
    fn send(&self, core: usize, msg: Message);
    fn try_recv(&self, core: usize) -> Option<Message>;
    fn park(&self, core: usize, timeout: Option<Duration>) -> Option<Message>;
    fn mailbox_len(&self, core: usize) -> usize;
    // Run queues, in dispatch order: oldest request first, then FIFO
    // within a request. Below `bound` entries, `push_ready` inserts
    // behind every entry of the same or an older request and returns
    // the depth it found; `pop_ready` takes the front, the oldest open
    // request's oldest invocation. `steal_from` takes the rearmost entry
    // of a group `thief` hosts (`Plan::hosted`) — the newest request's —
    // unless the victim's queue is contended or holds none. Every insert
    // goes through `push_ready`, so a lock retry lands behind its own
    // request's entries only, and a shed lands on the peer in the same
    // order.
    fn push_ready(&self, core: usize, inv: PendingInv, bound: usize) -> Result<usize, Full>;
    fn pop_ready(&self, core: usize) -> Option<PendingInv>;
    fn steal_from(&self, victim: usize, thief: usize) -> Option<PendingInv>;
    fn ready_len(&self, core: usize) -> usize;
    fn ready_any(&self, core: usize, pred: impl Fn(&PendingInv) -> bool) -> bool;
    // The request ledger ([`crate::RequestLedger`]); `finish` releases
    // an executed invocation's unit and charges it to its request.
    fn inc(&self, request: u64);
    fn inc_if_open(&self, request: u64) -> bool;
    fn dec(&self, request: u64) -> Option<Completion>;
    fn finish(&self, request: u64) -> Option<Completion>;
    fn outstanding(&self) -> usize;
    // The lock table: try-lock all of `ids`' classes, add one, merge two.
    fn try_lock_all(&self, ids: &[usize]) -> Option<Self::Guards>;
    fn fresh_lock(&self) -> usize;
    fn merge_locks(&self, a: usize, b: usize);
    // The live assignment, the relayout epoch, and liveness. `assign`
    // and `mark_dead` move hosts inside [`crate::RequestLedger::hold_open`]
    // and return the requests it holds.
    fn core_of(&self, inst: InstanceId) -> usize;
    fn assign(&self, inst: InstanceId, core: usize) -> Vec<u64>;
    fn epoch(&self) -> u64;
    fn bump_epoch(&self) -> u64;
    fn is_dead(&self, core: usize) -> bool;
    fn mark_dead(&self, core: usize) -> Vec<u64>;
    // Id mints (from 1) and round-robin counters (old value).
    fn mint_inv(&self) -> u64;
    fn mint_msg(&self) -> u64;
    fn mint_tag(&self) -> TagInstance;
    fn next_flow(&self, at: usize) -> usize;
    fn next_site(&self, at: usize) -> usize;
    // The graveyard; the first fault (which wakes the driver); wake-ups.
    fn bury(&self, obj: Box<TObject>);
    fn fail(&self, err: ExecError);
    fn failed(&self) -> bool;
    fn wake_driver(&self);
    // Parking: swap `core`'s idle flag; hold the caller (zero yields).
    fn swap_idle(&self, core: usize, idle: bool) -> bool;
    fn pause(&self, pause: Duration);
}

/// Wakes `core` if parked: at most one poke per park, none to a runner.
fn poke<P: Port>(port: &P, core: usize) {
    if port.swap_idle(core, false) {
        port.send(core, Message::Poke);
    }
}

/// Queues `inv` on `core`'s run queue, whatever its depth.
fn queue<P: Port>(port: &P, core: usize, inv: PendingInv) {
    let unbounded = port.push_ready(core, inv, usize::MAX);
    debug_assert!(unbounded.is_ok());
}

/// Releases one ledger unit of `request` (see [`completed`]).
pub(crate) fn release<P: Port>(port: &P, request: u64, sink: &mut WorkerSink) {
    completed(port, port.dec(request), sink);
}

/// After a release: the one that completed its request records the
/// event and, in resident mode, broadcasts a sweep; closing the last
/// open request wakes the driver.
fn completed<P: Port>(port: &P, done: Option<Completion>, sink: &mut WorkerSink) {
    let Some(done) = done else {
        return;
    };
    sink.req_complete(sink.now(), done.request, done.invocations);
    if port.plan().sweep_on_complete {
        for core in 0..port.plan().cores() {
            port.send(core, Message::Sweep(done.request));
        }
    }
    if port.outstanding() == 0 {
        port.wake_driver();
    }
}

/// Sends `obj` toward `instance` as core `src` ([`NO_ID`] for the
/// driver): stamps a fresh message id, records the `ObjSend`, counts the
/// message's ledger unit and posts it to the live destination core. Out
/// of an invocation executing on core `local`, a send to `local` itself
/// returns the object to take in directly: no message, no message unit.
///
/// Under a fault plan this is the wire: the message id decides (a pure
/// hash of the seed) whether the message is dropped — redelivered with
/// backoff — or delayed. An object bound for a dead core is retargeted
/// to a live replica ([`failover`]); with none the run fails with
/// [`ExecError::CoreLost`]. An `adopted` drain leftover is counted only
/// while its request is open; a closed request's retires instead.
pub(crate) fn send<P: Port>(
    port: &P,
    src: u64,
    instance: InstanceId,
    mut obj: Box<TObject>,
    sink: &mut WorkerSink,
    adopted: bool,
    local: Option<usize>,
) -> Option<Box<TObject>> {
    // Taken before any fault pause and before the hand-off, so the
    // send never postdates the matching receive.
    let ts = sink.now();
    let msg = port.mint_msg();
    obj.msg = msg;
    obj.src_core = src;
    obj.instance = instance;
    // Simulated wire faults apply to worker sends only; the driver's
    // startup injection is exempt so every run has work to lose. They
    // are keyed by message id alone, so they fire the same whether or
    // not the message then crosses cores.
    if let Some(plan) = port.plan().chaos.as_ref().filter(|_| src != NO_ID) {
        let drops = plan.drop_attempts(msg);
        if drops > 0 {
            port.count(Fact::Faults, u64::from(drops));
            sink.fault(sink.now(), fault_code::MSG_DROP, u64::from(drops), msg);
            let mut lost = drops >= MAX_REDELIVERIES;
            let mut waited = Duration::ZERO;
            for attempt in 0..drops {
                let pause = plan.backoff(attempt);
                if waited + pause > MESSAGE_DEADLINE {
                    lost = true;
                    break;
                }
                waited += pause;
                port.pause(pause);
            }
            if lost {
                port.fail(ExecError::MessageLost { msg });
                sink.obj_send(ts, OBJ_BYTES_ESTIMATE, port.core_of(instance) as u64, msg);
                port.bury(obj);
                return None;
            }
            port.count(Fact::Recoveries, 1);
            sink.recover(sink.now(), recover_code::REDELIVER, u64::from(drops), msg);
        }
        if let Some(delay) = plan.delay_of(msg) {
            port.count(Fact::Faults, 1);
            let nanos = delay.as_nanos() as u64;
            sink.fault(sink.now(), fault_code::MSG_DELAY, nanos, msg);
            port.pause(delay);
        }
    }
    let mut core = port.core_of(instance);
    if port.is_dead(core) {
        // Tag-mates fail over together, as routing sent them together.
        let key = obj.tags.first().map_or(msg, |(_, tag)| tag.0);
        match failover(port, instance, key) {
            Some(replica) => {
                obj.instance = replica;
                core = port.core_of(replica);
                port.count(Fact::Recoveries, 1);
                sink.recover(sink.now(), recover_code::REROUTE, core as u64, msg);
            }
            None => {
                port.fail(ExecError::CoreLost { core });
                sink.obj_send(ts, OBJ_BYTES_ESTIMATE, core as u64, msg);
                port.bury(obj);
                return None;
            }
        }
    }
    if adopted && !port.inc_if_open(obj.request) {
        // The request completed while this leftover sat buffered.
        // Retire it where `Sweep` or shutdown would have put it.
        port.bury(obj);
        return None;
    }
    sink.obj_send(ts, OBJ_BYTES_ESTIMATE, core as u64, msg);
    port.count(Fact::BytesSent, OBJ_BYTES_ESTIMATE);
    if local == Some(core) {
        return Some(obj);
    }
    if !adopted {
        port.inc(obj.request);
    }
    port.send(core, Message::Deliver(obj));
    None
}

/// Injects `payload` as the root object of `request` (the startup class
/// with its startup flag set), round-robin across the startup group's
/// instances: request 1 lands on instance 0.
pub(crate) fn inject<P: Port>(
    port: &P,
    payload: NativePayload,
    request: u64,
    sink: &mut WorkerSink,
) {
    let (plan, spec) = (port.plan(), port.plan().spec());
    let instances = plan.layout.instances_of(plan.graph.startup_group);
    let instance = instances[((request - 1) as usize) % instances.len()];
    let obj = Box::new(TObject {
        class: spec.startup.class,
        flags: FlagSet::new().with(spec.startup.flag, true),
        tags: Vec::new(),
        payload,
        lock: UNSHARED,
        producer: NO_ID,
        msg: NO_ID,
        src_core: NO_ID,
        request,
        instance,
    });
    send(port, NO_ID, instance, obj, sink, false, None);
}

/// The replica an object bound for `instance` on a dead core is re-sent
/// to: an instance of the same group the *live* assignment places on a
/// live core, picked by `key` (replicas are interchangeable, as for
/// stealing); `None` with recovery off or no live replica left.
fn failover<P: Port>(port: &P, instance: InstanceId, key: u64) -> Option<InstanceId> {
    let plan = port.plan();
    if !plan.recovery_enabled() {
        return None;
    }
    let group = plan.layout.instances[instance.index()].group;
    let live: Vec<InstanceId> = (plan.layout.instances_of(group).iter())
        .copied()
        .filter(|&replica| !port.is_dead(port.core_of(replica)))
        .collect();
    (!live.is_empty()).then(|| live[(key % live.len() as u64) as usize])
}

/// Commits one batch of hot migrations (see
/// [`crate::RelayoutHandle::migrate`]); callers serialise commits.
pub(crate) fn migrate<P: Port>(
    port: &P,
    moves: &[(InstanceId, usize)],
) -> Result<u64, RelayoutError> {
    let plan = port.plan();
    for &(inst, to) in moves {
        if inst.index() >= plan.layout.instances.len() {
            return Err(RelayoutError::UnknownInstance {
                instance: inst.index(),
            });
        }
        if to >= plan.cores() {
            return Err(RelayoutError::UnknownCore { core: to });
        }
        // An instance on a dead core has its objects failed over to
        // live hosts: moving it would split objects routed together.
        if let Some(core) = [to, port.core_of(inst)]
            .into_iter()
            .find(|&c| port.is_dead(c))
        {
            return Err(RelayoutError::DeadCore { core });
        }
    }
    let mut sources = Vec::new();
    for &(inst, to) in moves {
        let from = port.core_of(inst);
        if from != to {
            sources.push((from, inst, port.assign(inst, to)));
        }
    }
    if sources.is_empty() {
        return Ok(port.epoch());
    }
    let epoch = port.bump_epoch();
    port.count(Fact::Migrations, sources.len() as u64);
    for (from, inst, held) in sources {
        port.send(from, Message::Migrate(inst, held));
    }
    Ok(epoch)
}

/// A formed invocation held in a run queue.
#[allow(clippy::vec_box)] // objects stay boxed so routing re-sends them without moving
pub(crate) struct PendingInv {
    /// Run-unique id, carried by every telemetry event about it.
    pub(crate) id: u64,
    task: TaskId,
    pub(crate) instance: InstanceId,
    objs: Vec<Box<TObject>>,
    tag_env: TagEnv,
    /// Failed try-lock-all attempts this invocation has survived.
    retries: u64,
    /// The request of every parameter (sets never mix requests); run
    /// queues order by it.
    pub(crate) request: u64,
}

#[cfg(test)]
impl PendingInv {
    /// A parameterless invocation of task 0, for run-queue tests.
    pub(crate) fn stub(id: u64, instance: InstanceId, request: u64) -> Self {
        PendingInv {
            id,
            task: TaskId::new(0),
            instance,
            objs: Vec::new(),
            tag_env: Vec::new(),
            retries: 0,
            request,
        }
    }
}

/// An invocation a full run queue turned away, with the depth it found.
pub(crate) type Full = (PendingInv, usize);

/// One request's buffered objects at an instance: a FIFO per slot.
pub(crate) type Bucket = Vec<VecDeque<Box<TObject>>>;

/// The tag instance bound to each of a task's tag variables.
pub(crate) type TagEnv = Vec<Option<TagInstance>>;

/// One hosted instance's parameter sets (§4.6: one per slot of the
/// group's [`SlotTable`]), in one bucket per request: formation looks at
/// one bucket and a completed request is swept by dropping its bucket —
/// request isolation is structural. Buckets drain in ascending request.
#[derive(Default)]
pub(crate) struct InstanceSets {
    pub(crate) buckets: BTreeMap<u64, Bucket>,
    /// Candidates [`Self::form`] examined (the depth test's probe).
    #[cfg(test)]
    pub(crate) candidates: u64,
}

impl InstanceSets {
    /// Buffers `obj` in `slot` of its request's bucket; returns the task
    /// the slot belongs to.
    pub(crate) fn push(&mut self, table: &SlotTable, slot: usize, obj: Box<TObject>) -> TaskId {
        self.buckets
            .entry(obj.request)
            .or_insert_with(|| table.slots().iter().map(|_| VecDeque::new()).collect())[slot]
            .push_back(obj);
        table.slots()[slot].task
    }

    /// Removes one full parameter set of `task` from `request`'s bucket,
    /// with the tag environment it bound. Buffered objects never change
    /// state and sit in one slot each: only the tags decide.
    #[allow(clippy::vec_box)] // see `PendingInv::objs`
    pub(crate) fn form(
        &mut self,
        table: &SlotTable,
        spec: &ProgramSpec,
        task: TaskId,
        request: u64,
    ) -> Option<(Vec<Box<TObject>>, TagEnv)> {
        let tspec = spec.task(task);
        #[cfg(test)]
        let candidates = &mut self.candidates;
        let sets = &mut self.buckets.get_mut(&request)?[table.task_slots(task)];
        let mut tag_env: TagEnv = vec![None; tspec.tag_vars.len()];
        let picked = formation::pick(sets, |p, cand| {
            #[cfg(test)]
            {
                *candidates += 1;
            }
            match tspec.params[p].bind_tags(&cand.tags, &tag_env) {
                Some(updates) => {
                    for (v, instn) in updates {
                        tag_env[v] = Some(instn);
                    }
                    Probe::Fits
                }
                None => Probe::Skip,
            }
        })
        .ok()?;
        Some((picked.take(sets).collect(), tag_env))
    }

    /// Removes every buffered object: ascending request, then slot
    /// order, then FIFO.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = Box<TObject>> {
        std::mem::take(&mut self.buckets)
            .into_values()
            .flat_map(|bucket| bucket.into_iter().flatten())
    }
}

/// The parameter sets of every instance the core hosts or hosted (a
/// `Migrate` drain empties those), created as objects arrive.
#[derive(Default)]
pub(crate) struct WorkerSets {
    pub(crate) hosted: BTreeMap<InstanceId, InstanceSets>,
}

impl WorkerSets {
    /// Removes every buffered object of a completed `request`: its count
    /// reaching zero is final, so these are its finished objects.
    pub(crate) fn sweep(&mut self, request: u64) -> impl Iterator<Item = Box<TObject>> + '_ {
        self.hosted.values_mut().flat_map(move |sets| {
            sets.buckets
                .remove(&request)
                .into_iter()
                .flatten()
                .flatten()
        })
    }
}

/// One core of the threaded executor. See the module docs.
pub(crate) struct CoreState {
    core: usize,
    pub(crate) sets: WorkerSets,
    /// Completed dispatches; faults are scheduled at exact counts.
    dispatched: u64,
    steal_rotation: usize,
    /// Killed: the core only forwards late arrivals.
    dead: bool,
    sink: WorkerSink,
}

impl CoreState {
    pub(crate) fn new(core: usize, sink: WorkerSink) -> Self {
        CoreState {
            core,
            sets: WorkerSets::default(),
            dispatched: 0,
            steal_rotation: core,
            dead: false,
            sink,
        }
    }

    /// The core's life: a pending message, else the next invocation
    /// (faults are due at exact dispatch counts), else idling — until
    /// `Shutdown`; leftover buffered objects then retire to the graveyard.
    pub(crate) fn work<P: Port>(&mut self, port: &P) {
        self.tick(port);
        loop {
            // A poke only wakes the loop, which goes on to its queue.
            match port.try_recv(self.core) {
                Some(Message::Poke) | None => {}
                Some(msg) => {
                    if self.on_message(port, msg) {
                        break;
                    }
                    continue;
                }
            }
            if let Some(inv) = self.next_invocation(port) {
                self.run(port, inv);
                self.dispatched += 1;
                self.tick(port);
                continue;
            }
            if let Some(msg) = self.idle(port) {
                if self.on_message(port, msg) {
                    break;
                }
            }
        }
        for sets in self.sets.hosted.values_mut() {
            for obj in sets.drain() {
                port.bury(obj);
            }
        }
    }

    /// Handles one message off the core's mailbox; returns whether the
    /// core must stop (`Shutdown`).
    pub(crate) fn on_message<P: Port>(&mut self, port: &P, msg: Message) -> bool {
        match msg {
            Message::Deliver(obj) => {
                // Take it in (or forward it, on a dead core), then
                // release the message's ledger unit: everything it
                // formed or re-sent carries its own, counted first.
                let request = obj.request;
                if self.dead {
                    // A late arrival: re-sent, so it fails over.
                    let (src, inst) = (self.core as u64, obj.instance);
                    send(port, src, inst, obj, &mut self.sink, false, None);
                } else {
                    self.take_in(port, obj);
                }
                release(port, request, &mut self.sink);
            }
            Message::Sweep(request) => {
                for obj in self.sets.sweep(request) {
                    port.bury(obj);
                }
            }
            Message::Migrate(inst, held) => {
                // A dead core's sets were drained at its death.
                if !self.dead {
                    self.migrate_drain(port, inst);
                }
                for request in held {
                    release(port, request, &mut self.sink);
                }
            }
            Message::Shutdown => return true,
            Message::Poke => {}
        }
        false
    }

    /// The invocation to run next: the front of the local run queue,
    /// else one stolen from a same-group peer. A dead core runs none.
    pub(crate) fn next_invocation<P: Port>(&mut self, port: &P) -> Option<PendingInv> {
        if self.dead {
            return None;
        }
        port.pop_ready(self.core).or_else(|| self.steal(port))
    }

    /// Nothing to run: publish idleness, re-check the queue (an enqueue
    /// may have raced), then park. A dead core instead re-pokes its live
    /// steal peers (one mid-park at the first poke would sleep through
    /// the steal it owes) and waits briefly.
    fn idle<P: Port>(&mut self, port: &P) -> Option<Message> {
        let core = self.core;
        if self.dead {
            for &peer in &port.plan().steal_peers[core] {
                if !port.is_dead(peer) {
                    poke(port, peer);
                }
            }
            let msg = port.park(core, Some(Duration::from_millis(1)));
            if msg.is_none() && port.ready_len(core) == 0 && !port.failed() {
                port.pause(Duration::ZERO);
            }
            return msg;
        }
        port.swap_idle(core, true);
        if port.ready_len(core) > 0 {
            port.swap_idle(core, false);
            return None;
        }
        let msg = port.park(core, None);
        port.swap_idle(core, false);
        msg
    }

    /// Steals an invocation whose group this core hosts from the back of
    /// a peer's queue, the newest request's (owners work the front); the
    /// rotation spreads thieves across victims.
    fn steal<P: Port>(&mut self, port: &P) -> Option<PendingInv> {
        let plan = port.plan();
        let thief = self.core;
        let peers = &plan.steal_peers[thief];
        self.steal_rotation = self.steal_rotation.wrapping_add(1);
        for i in 0..peers.len() {
            let victim = peers[(i + self.steal_rotation) % peers.len()];
            if let Some(inv) = port.steal_from(victim, thief) {
                port.count(Fact::Steals, 1);
                self.sink.steal(self.sink.now(), inv.id, victim as u64);
                return Some(inv);
            }
        }
        None
    }

    /// The faults due at this dispatch count: a stall, then the kill.
    fn tick<P: Port>(&mut self, port: &P) {
        let Some(plan) = &port.plan().chaos else {
            return;
        };
        if let Some(stall) = plan.stall_at(self.core, self.dispatched) {
            port.count(Fact::Faults, 1);
            let nanos = stall.as_nanos() as u64;
            self.sink
                .fault(self.sink.now(), fault_code::CORE_STALL, nanos, NO_ID);
            port.pause(stall);
        }
        if plan
            .kill_after(self.core)
            .is_some_and(|k| self.dispatched >= k)
        {
            self.die(port);
        }
    }

    /// The die sequence: the core stops dispatching, peers steal its
    /// queue, its buffered objects are re-sent as adopted, and it then
    /// only forwards late arrivals. With recovery off, or a queued
    /// invocation no live core may steal, the run fails with
    /// [`ExecError::CoreLost`] instead: typed, immediate, no hang.
    fn die<P: Port>(&mut self, port: &P) {
        let core = self.core;
        port.count(Fact::Faults, 1);
        self.sink
            .fault(self.sink.now(), fault_code::CORE_KILL, core as u64, NO_ID);
        // Held until the drain below has re-sent this core's buffered
        // objects: their mates fail over meanwhile.
        let held = port.mark_dead(core);
        self.dead = true;
        let plan = port.plan();
        let rescuers: Vec<usize> = (0..plan.cores())
            .filter(|&c| plan.steal_peers[c].contains(&core) && !port.is_dead(c))
            .collect();
        let stranded = port.ready_any(core, |inv| {
            let group = plan.group_of_instance(inv.instance);
            !rescuers.iter().any(|&c| plan.hosted[c][group])
        });
        if !plan.recovery_enabled() || stranded {
            port.fail(ExecError::CoreLost { core });
        } else {
            // This core is dead already, so each adopted re-send fails over.
            let mut moved = 0u64;
            for (&inst, sets) in self.sets.hosted.iter_mut() {
                for obj in sets.drain() {
                    send(port, core as u64, inst, obj, &mut self.sink, true, None);
                    moved += 1;
                }
            }
            port.count(Fact::Recoveries, 1);
            let now = self.sink.now();
            self.sink
                .recover(now, recover_code::FAILOVER_DRAIN, moved, NO_ID);
        }
        for request in held {
            release(port, request, &mut self.sink);
        }
    }

    /// Re-sends a migrated-away instance's buffered objects, adopted, to
    /// its new host; emits one `Relayout` event (epoch, instance, count).
    pub(crate) fn migrate_drain<P: Port>(&mut self, port: &P, inst: InstanceId) {
        let (src, mut moved) = (self.core as u64, 0u64);
        // The emptied sets stay: the instance may have migrated back.
        if let Some(sets) = self.sets.hosted.get_mut(&inst) {
            for obj in sets.drain() {
                send(port, src, inst, obj, &mut self.sink, true, None);
                moved += 1;
            }
        }
        let ts = self.sink.now();
        self.sink
            .relayout(ts, port.epoch(), inst.index() as u64, moved);
    }

    /// No slot on this core accepts `obj`: forwards it to the consuming
    /// group, or retires it if no task can ever consume it.
    fn forward_or_retire<P: Port>(&mut self, port: &P, obj: Box<TObject>) {
        let hash = obj.tags.first().map(|(_, i)| i.0);
        match route_transition(port, obj.instance, obj.class, obj.flags, hash) {
            // Forwarding keeps the object's original producer: the
            // eventual consumer's causal edge must point at whoever
            // released the object, not at the hop that relayed it.
            RouteDecision::Move(dest) => {
                let src = self.core as u64;
                send(port, src, dest, obj, &mut self.sink, false, None);
            }
            _ => port.bury(obj),
        }
    }

    /// Takes one object in (off the mailbox, or from an invocation
    /// executing here): buffer or forward it and form every invocation it
    /// completes. The caller's ledger unit covers it. Forming only the
    /// task whose slot it landed in, for its request, is complete: only
    /// this function writes the sets, and it loops until no pick remains.
    fn take_in<P: Port>(&mut self, port: &P, obj: Box<TObject>) {
        if self.sink.is_enabled() {
            let ts = self.sink.now();
            self.sink
                .obj_recv(ts, OBJ_BYTES_ESTIMATE, obj.src_core, obj.msg);
            let ready = port.ready_len(self.core) as u64;
            let mailbox = port.mailbox_len(self.core) as u64;
            self.sink.queue_depth(ts, mailbox, ready);
        }
        let request = obj.request;
        let Some((inst, task)) = self.deliver(port, obj) else {
            return;
        };
        let plan = port.plan();
        let table = plan.slot_table(inst);
        loop {
            let sets = self.sets.hosted.get_mut(&inst).expect("delivered there");
            let Some((objs, tag_env)) = sets.form(table, plan.spec(), task, request) else {
                break;
            };
            // Record formation and its causal edges before the
            // invocation becomes stealable.
            let id = port.mint_inv();
            if self.sink.is_enabled() {
                let ts = self.sink.now();
                let (instance, task_ix) = (inst.index() as u64, task.index() as u64);
                self.sink.inv_queued(ts, id, instance, task_ix, request);
                for obj in &objs {
                    self.sink.inv_link(ts, id, obj.producer, obj.msg);
                }
            }
            // Count the invocation *before* it becomes visible to this
            // core's queue (and to thieves).
            port.inc(request);
            self.enqueue_ready(
                port,
                PendingInv {
                    id,
                    task,
                    instance: inst,
                    objs,
                    tag_env,
                    retries: 0,
                    request,
                },
            );
        }
    }

    /// Buffers `obj` and returns where it landed, or redirects, forwards
    /// or retires it (`None`).
    fn deliver<P: Port>(&mut self, port: &P, obj: Box<TObject>) -> Option<(InstanceId, TaskId)> {
        // Redirect-first: an object that raced a hot relayout or a kill
        // chases its instance (the send fails a dead one over).
        if port.core_of(obj.instance) != self.core {
            let src = self.core as u64;
            send(port, src, obj.instance, obj, &mut self.sink, false, None);
            return None;
        }
        // The targeted instance takes the object in its first accepting
        // slot, so objects routed together by tag meet even across a
        // migration. Unlike the virtual executor, which offers an object
        // to every matching set and marks it consumed when an invocation
        // forms, workers *own* their objects: one slot each rules out
        // double capture, at the cost of starving overlapping guards where
        // only the second task can progress — synthesis never produces
        // such programs.
        let (inst, table) = (obj.instance, port.plan().slot_table(obj.instance));
        match table.accepting(obj.class, obj.flags).next() {
            Some(slot) => {
                let sets = self.sets.hosted.entry(inst).or_default();
                Some((inst, sets.push(table, slot, obj)))
            }
            None => {
                self.forward_or_retire(port, obj);
                None
            }
        }
    }

    /// Enqueues a formed invocation here, or past the soft bound sheds it
    /// to a strictly shorter live same-group queue (legal for the reason
    /// stealing is); pokes same-group peers when work is waiting.
    fn enqueue_ready<P: Port>(&self, port: &P, inv: PendingInv) {
        let plan = port.plan();
        let core = self.core;
        let peers = &plan.group_cores[plan.group_of_instance(inv.instance)];
        let bound = if peers.len() < 2 {
            usize::MAX
        } else {
            RUN_QUEUE_CAPACITY
        };
        let (inv, depth) = match port.push_ready(core, inv, bound) {
            Ok(depth) => {
                if depth > 0 {
                    for &peer in peers.iter().filter(|&&peer| peer != core) {
                        poke(port, peer);
                    }
                }
                return;
            }
            Err(full) => full,
        };
        // Full: shed downhill only (in a burst every queue is full), and
        // count it so overload stays visible.
        let target = peers
            .iter()
            .copied()
            .filter(|&c| c != core && !port.is_dead(c))
            .map(|c| (port.ready_len(c), c))
            .min()
            .filter(|&(len, _)| len < depth);
        match target {
            Some((_, peer)) => {
                port.count(Fact::Sheds, 1);
                queue(port, peer, inv);
                poke(port, peer);
            }
            None => queue(port, core, inv),
        }
    }

    /// Locks the invocation's lock classes (an unshared parameter's `Box`
    /// is exclusive already) and executes it, or re-queues it behind its
    /// own request's entries: transactional retry, nothing held.
    pub(crate) fn run<P: Port>(&mut self, port: &P, mut inv: PendingInv) {
        // Lock slowdown: first attempt only, so retries do not compound.
        let slow = port.plan().chaos.as_ref().filter(|_| inv.retries == 0);
        if let Some(slow) = slow.and_then(|plan| plan.lock_slowdown_of(inv.id)) {
            port.count(Fact::Faults, 1);
            let nanos = slow.as_nanos() as u64;
            self.sink
                .fault(self.sink.now(), fault_code::LOCK_SLOW, nanos, inv.id);
            port.pause(slow);
        }
        let params = inv.objs.len() as u64;
        let lock_ids: Vec<usize> = inv
            .objs
            .iter()
            .map(|o| o.lock)
            .filter(|&lock| lock != UNSHARED)
            .collect();
        match port.try_lock_all(&lock_ids) {
            Some(guards) => {
                self.sink
                    .lock_acquired(self.sink.now(), params, inv.retries, inv.id);
                self.execute(port, inv);
                drop(guards);
            }
            None => {
                port.count(Fact::LockRetries, 1);
                let task = inv.task.index() as u64;
                self.sink.lock_failed(self.sink.now(), params, task, inv.id);
                inv.retries += 1;
                queue(port, self.core, inv);
                port.pause(Duration::ZERO);
            }
        }
    }

    /// Runs `inv` here (its home core, or a thief's) and routes what it
    /// releases and creates.
    fn execute<P: Port>(&mut self, port: &P, mut inv: PendingInv) {
        let plan = port.plan();
        let (task_ix, inst_ix) = (inv.task.index() as u64, inv.instance.index() as u64);
        self.sink
            .task_start(self.sink.now(), task_ix, inst_ix, inv.id);
        let tspec = plan.spec().task(inv.task);
        // Sends name the *home* core, so a stolen invocation's traffic is
        // attributed to the victim instance.
        let (home, local) = (port.core_of(inv.instance) as u64, Some(self.core));
        tspec.mint_tags(&mut inv.tag_env, || port.mint_tag());
        let body = plan
            .program
            .native_body(inv.task)
            .expect("threaded executor only runs native programs")
            .clone();
        let mut payloads: Vec<NativePayload> = Vec::with_capacity(inv.objs.len());
        for obj in &mut inv.objs {
            payloads.push(std::mem::replace(&mut obj.payload, Box::new(())));
        }
        let mut ctx = TaskCtx::new(&mut payloads, tspec.alloc_sites.len(), tspec.exits.len());
        let exit_idx = body(&mut ctx);
        let exit = ExitId::new(ctx.check_exit(exit_idx));
        let (charged, created) = ctx.finish();
        for (obj, payload) in inv.objs.iter_mut().zip(payloads) {
            obj.payload = payload;
        }
        port.add_cycles(charged);
        port.count(Fact::Dispatches, 1);

        // One estimator record per invocation, before routing consumes
        // `created`.
        if let Some(estimator) = port.estimator() {
            let mut site_counts = vec![0u64; tspec.alloc_sites.len()];
            for (site_idx, _) in &created {
                site_counts[*site_idx] += 1;
            }
            estimator.record(inv.task.index(), exit.index(), charged, &site_counts);
        }

        // Shared-lock directive: a class on first grouping; nothing need
        // be held for it, because the body has already run.
        for group in &plan.locks.lock_plans[inv.task.index()].groups {
            for pair in group.windows(2) {
                let [a, b] = [pair[0], pair[1]].map(|param| {
                    let lock = &mut inv.objs[param.index()].lock;
                    if *lock == UNSHARED {
                        *lock = port.fresh_lock();
                    }
                    *lock
                });
                port.merge_locks(a, b);
            }
        }

        // Exit actions.
        for (p, obj) in inv.objs.iter_mut().enumerate() {
            let (flags, tags) = (&mut obj.flags, &mut obj.tags);
            tspec.apply_exit(exit, ParamIdx::new(p), flags, tags, &inv.tag_env);
        }

        // Released parameters link their next consumer back here.
        for mut obj in inv.objs {
            obj.producer = inv.id;
            let hash = obj.tags.first().map(|(_, i)| i.0);
            let dest = match route_transition(port, inv.instance, obj.class, obj.flags, hash) {
                RouteDecision::Stay => inv.instance,
                RouteDecision::Move(dest) => dest,
                RouteDecision::Dead => {
                    port.bury(obj);
                    continue;
                }
            };
            if let Some(obj) = send(port, home, dest, obj, &mut self.sink, false, local) {
                self.take_in(port, obj);
            }
        }

        // Created objects.
        for (site_idx, payload) in created {
            let site = AllocSiteId::new(site_idx);
            let site_spec = &tspec.alloc_sites[site.index()];
            let tags = tspec.created_tags(site, &inv.tag_env);
            let hash = tags.first().map(|(_, i)| i.0);
            let dest =
                plan.routes
                    .route_new(&plan.layout, inv.instance, inv.task, site, hash, |at| {
                        port.next_site(at)
                    });
            let obj = Box::new(TObject {
                class: site_spec.class,
                flags: site_spec.initial_flag_set(),
                tags,
                payload,
                lock: UNSHARED,
                producer: inv.id,
                msg: NO_ID,
                src_core: NO_ID,
                request: inv.request,
                instance: dest,
            });
            if let Some(obj) = send(port, home, dest, obj, &mut self.sink, false, local) {
                self.take_in(port, obj);
            }
        }

        self.sink
            .task_end(self.sink.now(), task_ix, inst_ix, inv.id);
        completed(port, port.finish(inv.request), &mut self.sink);
    }
}

/// Where an object whose flags just became `flags` at `home` goes next.
fn route_transition<P: Port>(
    port: &P,
    home: InstanceId,
    class: ClassId,
    flags: FlagSet,
    tag_hash: Option<u64>,
) -> RouteDecision {
    let plan = port.plan();
    plan.routes
        .route_transition(&plan.layout, home, class, flags, tag_hash, |at| {
            port.next_flow(at)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::RunOptions;
    use crate::threaded::Shared;
    use crate::virtual_exec::tests_support::fanout_setup;

    /// Failover's pick (DESIGN.md §14): whichever cores are dead, it is
    /// total onto the replicas on live cores, and over a dense key range
    /// each live replica takes a load within 1 of uniform. With none
    /// live it is `None`, and the send fails the run, typed.
    #[test]
    fn failover_is_total_and_balanced_over_live_replicas() {
        const KEYS: u64 = 1_000;
        for cores in 1..=5 {
            let (program, graph, layout, _machine, locks) = fanout_setup(4, cores);
            let deploy = Deployment::new(program, graph, layout, locks);
            let work = deploy.program.spec.task_by_name("work").unwrap();
            let group = deploy.graph.group_of_task(work).unwrap();
            let replicas = deploy.layout.instances_of(group).to_vec();
            assert_eq!(replicas.len(), cores);
            let options = RunOptions::default().with_faults(FaultSpec::seeded(1));
            for dead in 0..1u32 << cores {
                let (shared, _graves, _completions) = Shared::new(&deploy, &options, true);
                for core in (0..cores).filter(|c| dead & 1 << c != 0) {
                    shared.mark_dead(core);
                }
                let live: Vec<InstanceId> = (replicas.iter().copied())
                    .filter(|&r| !shared.is_dead(shared.core_of(r)))
                    .collect();
                let mut load: BTreeMap<InstanceId, u64> = BTreeMap::new();
                for key in 0..KEYS {
                    match failover(&shared, replicas[0], key) {
                        Some(replica) => {
                            assert!(live.contains(&replica), "key {key} to dead {replica:?}");
                            *load.entry(replica).or_default() += 1;
                        }
                        None => assert!(live.is_empty(), "None with {} live", live.len()),
                    }
                }
                if live.is_empty() {
                    continue;
                }
                assert_eq!(load.values().sum::<u64>(), KEYS, "failover must be total");
                let floor = KEYS / live.len() as u64;
                for replica in &live {
                    let got = load.get(replica).copied().unwrap_or(0);
                    assert!(
                        got == floor || got == floor + 1,
                        "{replica:?} took {got} of {KEYS} keys over {} live replicas",
                        live.len()
                    );
                }
            }
        }
    }
}
