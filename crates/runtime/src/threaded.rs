//! The threaded executor: real OS threads, real locks.
//!
//! One worker thread per core of the layout. Objects are owned by
//! messages: a worker holds the objects currently enqueued in its
//! parameter sets and forwards objects to other workers over crossbeam
//! channels, exactly as the paper's runtime sends objects between tiles
//! (§4.7); an object bound for an instance on the executing core skips
//! the channel and goes straight into that core's parameter sets. Holding
//! an object's `Box` is exclusive access to it, so an invocation locks
//! only the parameters the disjointness analysis found may share heap:
//! the first [`bamboo_analysis::LockPlan`] group of two or more
//! parameters to touch an object gives it a lock class and merges the
//! group's classes. Before executing, the worker *try-locks* those
//! classes (sorted order, no deadlock); on failure it releases everything
//! and tries a different invocation — Bamboo's transactional task
//! semantics, with no aborts and no rollback.
//!
//! The dispatch hot path (see DESIGN.md "The threaded hot path"):
//!
//! - **Static routing** — every core routes through one immutable
//!   [`RouteTable`]; the round-robin counters are per-instance atomics,
//!   so a send takes no lock.
//! - **Work stealing** — formed invocations sit in per-core bounded run
//!   queues; an idle core may steal an invocation whose group also has
//!   an instance on it (replicas are interchangeable by the paper's
//!   data-parallelization rule).
//! - **Event-driven quiescence** — the [`RequestLedger`] is the one
//!   count of outstanding work; the worker whose release completes the
//!   last open request signals the driver thread through a condvar; no
//!   sleep-polling latency floor.
//!
//! This executor demonstrates genuine concurrent semantics; performance
//! numbers come from the virtual-time executor (see DESIGN.md §2 — the
//! host machine's core count is unrelated to the modeled TILEPro64).

use crate::chaos::{FaultPlan, Liveness};
use crate::deploy::{Deployment, RunOptions};
use crate::ledger::{Completion, RequestLedger};
use crate::program::{NativePayload, Program, TaskCtx};
use bamboo_analysis::{DisjointnessAnalysis, UnionFind};
use bamboo_lang::ids::{ClassId, ExitId, ParamIdx, TagTypeId, TaskId};
use bamboo_lang::interp::TagInstance;
use bamboo_lang::spec::{FlagSet, ProgramSpec};
use bamboo_profile::Cycles;
use bamboo_schedule::formation::{self, Probe, SlotTable};
use bamboo_schedule::{GroupGraph, InstanceId, Layout, RouteDecision, RouteTable};
use bamboo_telemetry::analyze::LiveEstimator;
use bamboo_telemetry::event::{fault_code, recover_code};
use bamboo_telemetry::{Counter, Telemetry, TimeUnit, WorkerSink, NO_ID};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use crate::adapt::{AdaptPolicy, RelayoutError};

use crate::virtual_exec::ExecError;

/// An object in flight or enqueued at a worker.
struct TObject {
    class: ClassId,
    flags: FlagSet,
    tags: Vec<(TagTypeId, TagInstance)>,
    payload: NativePayload,
    /// Lock class in the [`LockTable`], or [`UNSHARED`] until a
    /// shared-lock directive first groups the object with another.
    lock: usize,
    /// Invocation that released or created this object ([`NO_ID`] for
    /// the driver-injected startup object). Carried with the object so
    /// the consuming invocation's causal edge survives forwarding and
    /// work stealing.
    producer: u64,
    /// Message id minted by the send currently carrying the object.
    msg: u64,
    /// Core that performed that send ([`NO_ID`] for the driver).
    src_core: u64,
    /// The serving request this object belongs to. Every object
    /// descends from exactly one injected root object and inherits its
    /// request id through release, creation, forwarding, and stealing
    /// (request isolation — see `InstanceSets`). Batch runs use a single
    /// request for the whole run.
    request: u64,
    /// Instance the carrying send targeted (the object's buffering
    /// home). Re-read on delivery so an object that raced a hot
    /// relayout chases its instance to the instance's current core.
    instance: InstanceId,
}

enum Message {
    Deliver(Box<TObject>),
    /// Wakes a blocked worker so it re-checks its run queue and its
    /// steal peers. Holds no ledger unit.
    Poke,
    /// A request completed: evict its leftover buffered objects to the
    /// graveyard. Safe because a request's ledger count reaching zero
    /// is final — no new work for it can appear. Holds no ledger unit.
    Sweep(u64),
    /// A hot relayout moved `instance` off this core: drain its
    /// buffered parameter-set objects by re-sending them (the live
    /// assignment already points at the new host, so `send` routes them
    /// there). Holds no ledger unit; the drain counts each leftover of
    /// an open request before its hand-off and retires a completed
    /// request's leftovers, exactly like the failover drain.
    Migrate(InstanceId),
    Shutdown,
}

/// [`TObject::lock`] of an object that belongs to no lock class: the
/// worker holding its `Box` owns it, so dispatch takes no lock for it.
const UNSHARED: usize = usize::MAX;

/// Lock classes of the objects that may share heap: the union-find over
/// class ids and one mutex per id, under one table mutex. Only the
/// shared-lock directive allocates here, so an all-disjoint program never
/// touches the table.
struct LockTable {
    classes: Mutex<(UnionFind, Vec<Arc<Mutex<()>>>)>,
}

impl LockTable {
    fn new() -> Self {
        LockTable {
            classes: Mutex::new((UnionFind::new(0), Vec::new())),
        }
    }

    fn fresh(&self) -> usize {
        let mut classes = self.classes.lock();
        classes.1.push(Arc::new(Mutex::new(())));
        classes.0.push()
    }

    fn merge(&self, a: usize, b: usize) {
        self.classes.lock().0.union(a, b);
    }

    /// Try-locks the lock classes of `ids` in sorted order; returns guards
    /// or `None` if any class is contended (everything acquired is
    /// released by dropping). No ids, no table access.
    fn try_lock_all(
        &self,
        ids: &[usize],
    ) -> Option<Vec<parking_lot::ArcMutexGuard<parking_lot::RawMutex, ()>>> {
        if ids.is_empty() {
            return Some(Vec::new());
        }
        let mut classes = self.classes.lock();
        let (uf, mutexes) = &mut *classes;
        let mut reps: Vec<usize> = ids.iter().map(|&i| uf.find(i)).collect();
        reps.sort_unstable();
        reps.dedup();
        reps.iter().map(|&r| mutexes[r].try_lock_arc()).collect()
    }
}

struct Shared {
    program: Program,
    graph: GroupGraph,
    layout: Layout,
    /// Slot table per group: which slots of an instance accept an
    /// object, and where each task's parameter sets sit.
    slot_tables: Vec<SlotTable>,
    /// Live instance→core assignment, indexed by instance id. `layout`
    /// stays the immutable synthesis artifact (group membership, slot
    /// shapes); a hot relayout mutates only this table, and every send
    /// resolves its destination core through it.
    assignment: Vec<AtomicUsize>,
    /// Bumped once per committed relayout. Workers compare it against
    /// their cached assigned-instance list on each delivery and rebuild
    /// the cache when it moved (one atomic load on the hot path).
    epoch: AtomicU64,
    /// Serializes relayout commits so each batch's assignment swaps land
    /// atomically with respect to other commits.
    relayout_lock: Mutex<()>,
    /// Instances migrated by hot relayouts. Mirrors the
    /// `relayout.migrations` counter.
    relayout_tally: AtomicU64,
    /// Live profile estimator feeding the adaptive controller (`None`
    /// unless the run was started with an [`AdaptPolicy`]).
    estimator: Option<Arc<LiveEstimator>>,
    locks_analysis: DisjointnessAnalysis,
    lock_table: LockTable,
    routes: RouteTable,
    /// Round-robin counters per `(instance, task)` and per `(instance,
    /// alloc site)`, indexed by `routes`. They belong to instances, not
    /// cores: a thief advances the victim instance's counter, and a
    /// migrated instance keeps its own.
    flow_rr: Vec<AtomicUsize>,
    site_rr: Vec<AtomicUsize>,
    /// Cores killed by fault injection (failover routes around them).
    liveness: Liveness,
    /// Lock + condvar the driver thread parks on; the worker that closes
    /// the last open request notifies under the lock (no lost wakeups).
    quiesce: StdMutex<()>,
    quiesce_cv: Condvar,
    /// The one count of outstanding work: a unit per message in flight
    /// and per formed-but-incomplete invocation, keyed by request id. A
    /// request completes when its count drains; the run is quiescent
    /// when no request is open.
    ledger: RequestLedger,
    /// Whether a completed request's leftover buffered objects are
    /// swept to the graveyard (resident mode; batch runs keep the
    /// legacy drain-at-shutdown semantics).
    sweep_on_complete: bool,
    invocations: AtomicU64,
    body_cycles: AtomicU64,
    next_tag: AtomicU64,
    /// Invocation-id mint (ids start at 1; 0 is never issued so
    /// [`NO_ID`] and "unset" stay unambiguous in event streams).
    next_inv: AtomicU64,
    /// Message-id mint (ids start at 1).
    next_msg: AtomicU64,
    steal_tally: AtomicU64,
    retry_tally: AtomicU64,
    /// Run-queue overflow sheds: invocations that entered `enqueue_ready`
    /// past the owner's soft queue bound and were handed to a live
    /// same-group core with a shorter queue. Mirrors the `router.shed`
    /// counter.
    shed_tally: AtomicU64,
    senders: Vec<Sender<Message>>,
    /// Per-core run queues of formed invocations (bounded softly by
    /// [`RUN_QUEUE_CAPACITY`]; owners push/pop the front, thieves take
    /// the back).
    ready: Vec<Mutex<VecDeque<PendingInv>>>,
    /// Whether each worker is parked in `recv` (set before blocking,
    /// cleared on wake); `poke` swaps it to decide whether to send.
    idle: Vec<AtomicBool>,
    /// Cores hosting an instance of each group (deduped). Groups with
    /// ≥ 2 entries are stealable across those cores.
    group_cores: Vec<Vec<usize>>,
    /// `hosted[core][group]`: whether `core` hosts an instance of
    /// `group` (steal legality check).
    hosted: Vec<Vec<bool>>,
    /// Per-core steal victims: cores sharing at least one multi-core
    /// group with this core.
    steal_peers: Vec<Vec<usize>>,
    /// Collects objects that left dispatch (for result extraction).
    graveyard: Sender<Box<TObject>>,
    /// Compiled fault-injection plan (`None` = fault-free run).
    chaos: Option<FaultPlan>,
    /// First unrecoverable fault, if any. Setting it wakes the
    /// quiescence waiter, so a run that loses a core errors out instead
    /// of hanging on work that will never drain.
    failure: StdMutex<Option<ExecError>>,
    /// Injected faults that fired (kills, stalls, drops, delays,
    /// slowdowns). Mirrors the `chaos.faults` counter.
    faults_injected: AtomicU64,
    /// Completed recovery actions (redeliveries, reroutes, failover
    /// drains). Mirrors the `chaos.recoveries` counter.
    recovery_tally: AtomicU64,
    telemetry: Telemetry,
    dispatches: Counter,
    lock_retries: Counter,
    bytes_sent: Counter,
    steals: Counter,
    shed_counter: Counter,
    fault_counter: Counter,
    recover_counter: Counter,
    relayout_counter: Counter,
}

/// Estimated wire size of one object, matching the virtual executor's
/// default of 16 payload words (the threaded executor moves `Box`ed
/// payloads, so this is an estimate for telemetry, not a transfer cost).
const OBJ_BYTES_ESTIMATE: u64 = 16 * 8;

/// Soft bound on each worker's run queue: a worker forming invocations
/// past it sheds the surplus to a less loaded same-group core.
const RUN_QUEUE_CAPACITY: usize = 256;

impl Shared {
    fn spec(&self) -> &ProgramSpec {
        &self.program.spec
    }

    fn mint_tag(&self) -> TagInstance {
        TagInstance(self.next_tag.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Sends `obj` to the worker owning `instance`, stamping it with a
    /// fresh message id and the sending core (`src`, [`NO_ID`] for the
    /// driver), and records the `ObjSend` into `sink`.
    ///
    /// Under a fault plan this is the wire: the message id decides (as
    /// a pure hash of the plan's seed) whether the message is dropped —
    /// redelivered with exponential backoff, charged to the sender — or
    /// delayed in flight. A destination on a dead core is re-striped to
    /// a live host of the same group; with none left the run fails with
    /// [`ExecError::CoreLost`] (the object retires to the graveyard and
    /// no ledger unit is counted).
    fn send(&self, src: u64, instance: InstanceId, obj: Box<TObject>, sink: &mut WorkerSink) {
        self.send_impl(src, instance, obj, sink, false, None);
    }

    /// [`Self::send`] for *adopted* objects — buffered leftovers
    /// re-sent by a hot-migration or failover drain. Identical wire
    /// semantics, except the ledger unit is only counted when the
    /// request is still open ([`RequestLedger::inc_if_open`]): a
    /// completed request's leftover is finished, so it retires to the
    /// graveyard instead of travelling, and the completion never fires
    /// twice.
    fn send_adopted(
        &self,
        src: u64,
        instance: InstanceId,
        obj: Box<TObject>,
        sink: &mut WorkerSink,
    ) {
        self.send_impl(src, instance, obj, sink, true, None);
    }

    /// [`Self::send`] out of an invocation executing on `core`, whose
    /// worker lends its `state`: a destination hosted on `core` itself
    /// takes the object in directly ([`take_in`]) instead of through the
    /// channel. Same message id, same fault schedule, same events.
    fn send_from(
        &self,
        core: usize,
        state: &mut WorkerSets,
        src: u64,
        instance: InstanceId,
        obj: Box<TObject>,
        sink: &mut WorkerSink,
    ) {
        self.send_impl(src, instance, obj, sink, false, Some((core, state)));
    }

    fn send_impl(
        &self,
        src: u64,
        instance: InstanceId,
        mut obj: Box<TObject>,
        sink: &mut WorkerSink,
        adopt: bool,
        local: Option<(usize, &mut WorkerSets)>,
    ) {
        // Taken before any fault pause and before the hand-off, so the
        // send never postdates the matching receive.
        let ts = sink.now();
        let msg = self.next_msg.fetch_add(1, Ordering::Relaxed) + 1;
        obj.msg = msg;
        obj.src_core = src;
        obj.instance = instance;
        let request = obj.request;
        // Simulated wire faults apply to worker sends only; the driver's
        // startup injection is exempt so every run has work to lose.
        // They are keyed by message id alone, so they fire the same
        // whether or not the message then crosses cores.
        if src != NO_ID {
            if let Some(plan) = &self.chaos {
                let drops = plan.drop_attempts(msg);
                if drops > 0 {
                    self.faults_injected
                        .fetch_add(u64::from(drops), Ordering::Relaxed);
                    self.fault_counter.add(u64::from(drops));
                    sink.fault(sink.now(), fault_code::MSG_DROP, u64::from(drops), msg);
                    let mut lost = drops >= plan.max_redeliveries();
                    let mut waited = Duration::ZERO;
                    for attempt in 0..drops {
                        let pause = plan.backoff(attempt);
                        if waited + pause > plan.message_deadline() {
                            lost = true;
                            break;
                        }
                        waited += pause;
                        std::thread::sleep(pause);
                    }
                    if lost {
                        self.fail(ExecError::MessageLost { msg });
                        let core = self.core_of(instance) as u64;
                        sink.obj_send(ts, OBJ_BYTES_ESTIMATE, core, msg);
                        let _ = self.graveyard.send(obj);
                        return;
                    }
                    self.recovery_tally.fetch_add(1, Ordering::Relaxed);
                    self.recover_counter.inc();
                    sink.recover(sink.now(), recover_code::REDELIVER, u64::from(drops), msg);
                }
                if let Some(delay) = plan.delay_of(msg) {
                    self.faults_injected.fetch_add(1, Ordering::Relaxed);
                    self.fault_counter.inc();
                    sink.fault(
                        sink.now(),
                        fault_code::MSG_DELAY,
                        delay.as_nanos() as u64,
                        msg,
                    );
                    std::thread::sleep(delay);
                }
            }
        }
        let mut core = self.core_of(instance);
        if self.liveness.is_dead(core) {
            match self.failover_core(instance, msg) {
                Some(live) => {
                    self.recovery_tally.fetch_add(1, Ordering::Relaxed);
                    self.recover_counter.inc();
                    sink.recover(sink.now(), recover_code::REROUTE, live as u64, msg);
                    core = live;
                }
                None => {
                    self.fail(ExecError::CoreLost { core });
                    sink.obj_send(ts, OBJ_BYTES_ESTIMATE, core as u64, msg);
                    let _ = self.graveyard.send(obj);
                    return;
                }
            }
        }
        if adopt && !self.ledger.inc_if_open(request) {
            // The request completed while this leftover sat buffered.
            // Retire it where `Sweep` or shutdown would have put it.
            let _ = self.graveyard.send(obj);
            return;
        }
        sink.obj_send(ts, OBJ_BYTES_ESTIMATE, core as u64, msg);
        if let Some((here, state)) = local {
            if here == core {
                // Same-core hand-off: no message, so no message unit.
                // The sending invocation holds its own ledger unit until
                // `execute` returns, and `take_in` counts each invocation
                // it forms before queueing it, so the request's count
                // cannot reach zero in between.
                self.bytes_sent.add(OBJ_BYTES_ESTIMATE);
                take_in(core, self, self.spec(), state, obj, sink);
                return;
            }
        }
        if !adopt {
            self.ledger.inc(request);
        }
        match self.senders[core].send(Message::Deliver(obj)) {
            Ok(()) => self.bytes_sent.add(OBJ_BYTES_ESTIMATE),
            Err(returned) => {
                // Reachable only through a dead core's forwarder racing
                // shutdown: the destination worker already exited. Retire
                // the object so results stay extractable (the graveyard
                // is drained after the join).
                assert!(self.chaos.is_some(), "worker channel open during execution");
                if let Message::Deliver(obj) = returned.into_inner() {
                    let _ = self.graveyard.send(obj);
                }
                self.release(request, sink);
            }
        }
    }

    /// Picks a live same-group host for an instance whose home core is
    /// dead, keyed deterministically by the message id (replica
    /// interchangeability is the correctness argument, as for stealing).
    /// `None` when recovery is off or no live host remains.
    fn failover_core(&self, instance: InstanceId, key: u64) -> Option<usize> {
        if !self.chaos.as_ref().is_some_and(|p| p.recovery_enabled()) {
            return None;
        }
        let group = self.group_of_instance(instance);
        self.liveness.restripe(&self.group_cores[group], key)
    }

    /// Records the first unrecoverable fault and wakes the quiescence
    /// waiter so the driver stops waiting on work that will never
    /// drain. Later failures are ignored (first error wins).
    fn fail(&self, err: ExecError) {
        let mut slot = self.failure.lock().expect("failure mutex");
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        let _guard = self.quiesce.lock().expect("quiescence mutex");
        self.quiesce_cv.notify_all();
    }

    /// Whether an unrecoverable fault has been recorded.
    fn failed(&self) -> bool {
        self.failure.lock().expect("failure mutex").is_some()
    }

    /// Releases one ledger unit of `request`. The release that drains a
    /// request records its completion event (and broadcasts a sweep in
    /// resident mode); when it closed the last open request, it wakes
    /// the quiescence waiter.
    fn release(&self, request: u64, sink: &mut WorkerSink) {
        let Some(done) = self.ledger.dec(request) else {
            return;
        };
        sink.req_complete(sink.now(), done.request, done.invocations);
        if self.sweep_on_complete {
            for tx in &self.senders {
                let _ = tx.send(Message::Sweep(request));
            }
        }
        if self.ledger.outstanding() == 0 {
            let _guard = self.quiesce.lock().expect("quiescence mutex");
            self.quiesce_cv.notify_all();
        }
    }

    /// Wakes `core` if it is parked; the idle-flag swap guarantees at
    /// most one poke per park and none to running workers.
    fn poke(&self, core: usize) {
        if self.idle[core].swap(false, Ordering::SeqCst) {
            let _ = self.senders[core].send(Message::Poke);
        }
    }

    /// Where an object of `class` whose flags just became `flags` at
    /// `home` goes next.
    fn route_transition(
        &self,
        home: InstanceId,
        class: ClassId,
        flags: FlagSet,
        tag_hash: Option<u64>,
    ) -> RouteDecision {
        self.routes
            .route_transition(&self.layout, home, class, flags, tag_hash, |at| {
                self.flow_rr[at].fetch_add(1, Ordering::Relaxed)
            })
    }

    fn group_of_instance(&self, inst: InstanceId) -> usize {
        self.layout.instances[inst.index()].group.index()
    }

    fn slot_table(&self, inst: InstanceId) -> &SlotTable {
        &self.slot_tables[self.group_of_instance(inst)]
    }

    /// The core currently hosting `inst` per the live assignment table
    /// (the layout's static `core_of` is only the epoch-0 placement).
    fn core_of(&self, inst: InstanceId) -> usize {
        self.assignment[inst.index()].load(Ordering::Acquire)
    }

    /// The live layout artifact: the synthesis layout's group topology
    /// with every instance's core overwritten from the assignment
    /// table. This is what epoch `n` actually routes with.
    fn current_layout(&self) -> Layout {
        let mut layout = self.layout.clone();
        for (i, inst) in layout.instances.iter_mut().enumerate() {
            inst.core = bamboo_machine::CoreId::new(self.assignment[i].load(Ordering::Acquire));
        }
        layout
    }

    /// Enqueues a formed invocation. The owner's queue is preferred;
    /// past the soft bound the invocation is shed to the least-loaded
    /// core hosting the same group, if that core's queue is strictly
    /// shorter (the interchangeability argument that makes stealing
    /// legal makes shedding legal too). Idle same-group peers are poked
    /// whenever the queue holds more work than the owner can start
    /// immediately.
    fn enqueue_ready(&self, core: usize, inv: PendingInv) {
        let group = self.group_of_instance(inv.instance);
        if self.group_cores[group].len() < 2 {
            self.ready[core].lock().push_back(inv);
            return;
        }
        let mut queue = self.ready[core].lock();
        let depth = queue.len();
        if depth < RUN_QUEUE_CAPACITY {
            queue.push_back(inv);
            drop(queue);
            if depth > 0 {
                for &peer in &self.group_cores[group] {
                    if peer != core {
                        self.poke(peer);
                    }
                }
            }
            return;
        }
        drop(queue);
        // The owner's queue is full: shed the invocation to the
        // least-loaded *live* same-group core (never holding two queue
        // locks) — but only downhill. In a burst every queue is full,
        // and a sideways bounce buys nothing. Counted in `router.shed`
        // so overload is visible instead of silently rebalanced.
        let target = self.group_cores[group]
            .iter()
            .copied()
            .filter(|&c| c != core && !self.liveness.is_dead(c))
            .map(|c| (self.ready[c].lock().len(), c))
            .min()
            .filter(|&(len, _)| len < depth);
        match target {
            Some((_, peer)) => {
                self.shed_tally.fetch_add(1, Ordering::Relaxed);
                self.shed_counter.inc();
                self.ready[peer].lock().push_back(inv);
                self.poke(peer);
            }
            None => self.ready[core].lock().push_back(inv),
        }
    }

    /// Attempts to steal one invocation for `thief`: scans its peers'
    /// queues from the back (owners work the front) for an invocation
    /// whose group also has an instance on the thief. `rotation`
    /// staggers the scan order so thieves spread across victims. A
    /// successful theft is recorded into `sink` with the victim core,
    /// keeping the stolen invocation causally attributable.
    fn try_steal(
        &self,
        thief: usize,
        rotation: usize,
        sink: &mut WorkerSink,
    ) -> Option<PendingInv> {
        let peers = &self.steal_peers[thief];
        if peers.is_empty() {
            return None;
        }
        for i in 0..peers.len() {
            let victim = peers[(i + rotation) % peers.len()];
            // A contended victim queue is being worked; move on rather
            // than serialize behind it.
            let Some(mut queue) = self.ready[victim].try_lock() else {
                continue;
            };
            let eligible = queue
                .iter()
                .rposition(|inv| self.hosted[thief][self.group_of_instance(inv.instance)]);
            if let Some(idx) = eligible {
                let inv = queue.remove(idx).expect("index from rposition");
                drop(queue);
                self.steal_tally.fetch_add(1, Ordering::Relaxed);
                self.steals.inc();
                sink.steal(sink.now(), inv.id, victim as u64);
                return Some(inv);
            }
        }
        None
    }
}

/// A finished-object payload failed to downcast to the requested type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PayloadTypeError {
    /// The class whose payloads were requested.
    pub class: ClassId,
    /// Position of the offending object within that class's finished
    /// objects.
    pub index: usize,
    /// The requested Rust type.
    pub expected: &'static str,
}

impl fmt::Display for PayloadTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload {} of class {:?} is not a {}",
            self.index, self.class, self.expected
        )
    }
}

impl Error for PayloadTypeError {}

/// A completed run of the threaded executor.
#[derive(Debug)]
pub struct ThreadedReport {
    /// Invocations executed across all workers.
    pub invocations: u64,
    /// Total body cycles charged.
    pub body_cycles: Cycles,
    /// Invocations executed by a core other than the one that formed
    /// them (work stealing). Mirrors the `threaded.steals` counter.
    pub steals: u64,
    /// Failed try-lock-all attempts across the run. Mirrors the
    /// `threaded.lock_retries` counter.
    pub lock_retries: u64,
    /// Always 0: routing takes no lock. Kept only until the benchmark
    /// stops reading it, then deleted.
    #[doc(hidden)]
    pub router_contention: u64,
    /// Invocations shed off their forming core's full run queue to a
    /// same-group peer (`enqueue_ready`'s overflow path). Zero in any
    /// clean under-capacity run. Mirrors the `router.shed` counter.
    pub router_shed: u64,
    /// Final objects' class and payload, for result extraction.
    pub finished: Vec<(ClassId, NativePayload)>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Injected faults that fired during the run (kills, stalls, drops,
    /// delays, lock slowdowns). Zero on fault-free runs. Mirrors the
    /// `chaos.faults` counter.
    pub faults_injected: u64,
    /// Recovery actions completed (redeliveries, reroutes, failover
    /// drains). Mirrors the `chaos.recoveries` counter.
    pub recovery_actions: u64,
    /// Instances migrated by hot relayouts during the run. Zero unless
    /// an adaptive controller committed at least one relayout. Mirrors
    /// the `relayout.migrations` counter.
    pub relayouts: u64,
    /// The layout epoch at shutdown (0 = the synthesized layout ran
    /// unchanged; each committed relayout batch bumps it once).
    pub layout_epoch: u64,
    /// Rendered fault schedule of the run's compiled plan (`None` on
    /// fault-free runs). Byte-identical for identical
    /// [`crate::chaos::FaultSpec`] + deployment topology — the
    /// determinism contract CI's chaos gate checks.
    pub fault_schedule: Option<String>,
}

impl ThreadedReport {
    /// Returns the payloads of finished objects of `class`, downcast to
    /// `T`.
    ///
    /// # Errors
    ///
    /// Returns [`PayloadTypeError`] if a payload of that class is not a
    /// `T`.
    pub fn try_payloads_of<T: 'static>(&self, class: ClassId) -> Result<Vec<&T>, PayloadTypeError> {
        self.finished
            .iter()
            .filter(|(c, _)| *c == class)
            .enumerate()
            .map(|(index, (_, p))| {
                p.downcast_ref::<T>().ok_or(PayloadTypeError {
                    class,
                    index,
                    expected: std::any::type_name::<T>(),
                })
            })
            .collect()
    }

    /// Like [`Self::try_payloads_of`], panicking on a type mismatch.
    ///
    /// # Panics
    ///
    /// Panics if a payload of that class is not a `T`.
    pub fn payloads_of<T: 'static>(&self, class: ClassId) -> Vec<&T> {
        self.try_payloads_of(class)
            .unwrap_or_else(|e| panic!("payload type mismatch: {e}"))
    }
}

/// Executes native programs on real threads. See the module docs.
///
/// Stateless; built with `ThreadedExecutor::default()` (braced rather
/// than a unit struct so that spelling stays lint-clean for callers).
#[derive(Debug, Default)]
pub struct ThreadedExecutor {}

impl ThreadedExecutor {
    /// Runs `deployment` with one thread per core, configured by
    /// `options` (startup payload, telemetry session, faults, adaptive
    /// re-layout).
    ///
    /// With an enabled [`Telemetry`] session the run records dispatch,
    /// contention, traffic, and channel-occupancy events (timestamps in
    /// nanoseconds since the session's creation) plus the
    /// `threaded.steals` / `threaded.lock_retries` counters. With
    /// [`Telemetry::disabled`] every recording site is a no-op and the
    /// dispatch hot path performs no telemetry allocations.
    ///
    /// With [`RunOptions::with_faults`] the run compiles the spec into a
    /// deterministic [`FaultPlan`] and injects it: core kills, stalls,
    /// message drops/delays, and lock slowdowns, each recorded as
    /// `fault.*` / `recover.*` telemetry. Recoverable faults leave the
    /// result identical to a fault-free run; unrecoverable ones fail
    /// fast instead of hanging.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NativeOnly`] for interpreted programs,
    /// [`ExecError::CoreLost`] when a killed core's work has no live
    /// same-group host (or recovery is disabled), and
    /// [`ExecError::MessageLost`] when a message exhausts its
    /// redelivery budget.
    pub fn run(
        &self,
        deployment: &Deployment,
        mut options: RunOptions,
    ) -> Result<ThreadedReport, ExecError> {
        let payload = options.startup.take().unwrap_or_else(|| Box::new(()));
        // Batch mode: one request for the whole run, no sweeping —
        // leftover buffered objects drain at shutdown exactly as
        // before the request-ledger refactor.
        let mut run = self.start_with(deployment, options, false)?;
        run.inject(payload);
        run.shutdown()
    }

    /// Starts `deployment` resident: workers spawn and wait for work,
    /// and the returned [`ResidentRun`] injects root objects on demand
    /// ([`ResidentRun::inject`]), each as its own *request* whose
    /// completion is detected individually through the request ledger
    /// (see [`crate::ledger::RequestLedger`]) instead of by global
    /// quiescence. Completed requests have their leftover buffered
    /// objects swept to the result graveyard immediately, so a
    /// long-running server's parameter sets do not accumulate garbage.
    ///
    /// `options.startup` is ignored — payloads arrive per injection.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NativeOnly`] for interpreted programs.
    pub fn start(
        &self,
        deployment: &Deployment,
        options: RunOptions,
    ) -> Result<ResidentRun, ExecError> {
        self.start_with(deployment, options, true)
    }

    fn start_with(
        &self,
        deployment: &Deployment,
        options: RunOptions,
        sweep_on_complete: bool,
    ) -> Result<ResidentRun, ExecError> {
        let Deployment {
            program,
            graph,
            layout,
            locks,
        } = deployment;
        if !program.is_native() {
            return Err(ExecError::NativeOnly);
        }
        let telemetry = &options.telemetry;
        telemetry.set_time_unit(TimeUnit::Nanos);
        let start = std::time::Instant::now();
        let core_count = layout.core_count;
        let mut senders = Vec::with_capacity(core_count);
        let mut receivers = Vec::with_capacity(core_count);
        for _ in 0..core_count {
            let (tx, rx) = unbounded::<Message>();
            senders.push(tx);
            receivers.push(rx);
        }
        let (grave_tx, grave_rx) = unbounded::<Box<TObject>>();

        // Steal topology: which cores host which groups.
        let group_count = graph.groups.len();
        let mut hosted = vec![vec![false; group_count]; core_count];
        for inst in &layout.instances {
            hosted[inst.core.index()][inst.group.index()] = true;
        }
        let group_cores: Vec<Vec<usize>> = (0..group_count)
            .map(|g| (0..core_count).filter(|&c| hosted[c][g]).collect())
            .collect();
        let steal_peers: Vec<Vec<usize>> = (0..core_count)
            .map(|c| {
                (0..core_count)
                    .filter(|&peer| {
                        peer != c
                            && (0..group_count).any(|g| {
                                hosted[c][g] && hosted[peer][g] && group_cores[g].len() > 1
                            })
                    })
                    .collect()
            })
            .collect();

        // Compile the fault plan against the steal topology so kill
        // targeting can prove every victim's groups survive elsewhere.
        let chaos = options
            .faults
            .as_ref()
            .map(|fspec| FaultPlan::compile(fspec, &group_cores, &hosted));
        let (ledger, completions) = RequestLedger::new();
        let adapt = options.adapt;
        let estimator = adapt
            .as_ref()
            .map(|_| Arc::new(LiveEstimator::new(&program.spec)));
        let routes = RouteTable::new(&program.spec, graph);
        let (flows, sites) = routes.counter_lens(layout.instances.len());
        let counters = |n: usize| (0..n).map(|_| AtomicUsize::new(0)).collect();
        let shared = Arc::new(Shared {
            program: program.clone(),
            graph: graph.clone(),
            layout: layout.clone(),
            slot_tables: SlotTable::per_group(&program.spec, graph),
            assignment: layout
                .instances
                .iter()
                .map(|inst| AtomicUsize::new(inst.core.index()))
                .collect(),
            epoch: AtomicU64::new(0),
            relayout_lock: Mutex::new(()),
            relayout_tally: AtomicU64::new(0),
            estimator,
            locks_analysis: locks.clone(),
            lock_table: LockTable::new(),
            routes,
            flow_rr: counters(flows),
            site_rr: counters(sites),
            liveness: Liveness::new(core_count),
            quiesce: StdMutex::new(()),
            quiesce_cv: Condvar::new(),
            ledger,
            sweep_on_complete,
            invocations: AtomicU64::new(0),
            body_cycles: AtomicU64::new(0),
            next_tag: AtomicU64::new(0),
            next_inv: AtomicU64::new(0),
            next_msg: AtomicU64::new(0),
            steal_tally: AtomicU64::new(0),
            retry_tally: AtomicU64::new(0),
            shed_tally: AtomicU64::new(0),
            senders,
            ready: (0..core_count)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            idle: (0..core_count).map(|_| AtomicBool::new(false)).collect(),
            group_cores,
            hosted,
            steal_peers,
            graveyard: grave_tx,
            chaos,
            failure: StdMutex::new(None),
            faults_injected: AtomicU64::new(0),
            recovery_tally: AtomicU64::new(0),
            telemetry: telemetry.clone(),
            dispatches: telemetry.counter("threaded.dispatches"),
            lock_retries: telemetry.counter("threaded.lock_retries"),
            bytes_sent: telemetry.counter("threaded.bytes_sent"),
            steals: telemetry.counter("threaded.steals"),
            shed_counter: telemetry.counter("router.shed"),
            fault_counter: telemetry.counter("chaos.faults"),
            recover_counter: telemetry.counter("chaos.recoveries"),
            relayout_counter: telemetry.counter("relayout.migrations"),
        });

        // Spawn workers.
        let mut handles = Vec::with_capacity(core_count);
        for (core, rx) in receivers.into_iter().enumerate() {
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || worker_loop(core, rx, shared)));
        }

        // In resident mode the driver records its ingress events
        // (admissions, injections) on a pseudo-core one past the last
        // worker. Batch mode keeps the pre-ledger telemetry shape: the
        // single startup injection is not an ingress event, so the
        // per-core ledger still partitions over exactly the worker
        // cores.
        let driver_sink = if sweep_on_complete {
            telemetry.worker(core_count)
        } else {
            WorkerSink::disabled()
        };
        Ok(ResidentRun {
            shared,
            handles,
            grave_rx,
            completions,
            driver_sink,
            next_request: 1,
            start,
            adapt,
        })
    }
}

/// A resident threaded deployment: workers are live and waiting; root
/// objects are injected per request and completions surface through
/// [`ResidentRun::try_completions`]. Obtained from
/// [`ThreadedExecutor::start`]; consumed by [`ResidentRun::shutdown`].
pub struct ResidentRun {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    grave_rx: Receiver<Box<TObject>>,
    completions: Receiver<Completion>,
    driver_sink: WorkerSink,
    next_request: u64,
    start: std::time::Instant,
    /// The adapt policy the run was started with, parked here for the
    /// serving front-end to claim ([`Self::take_adapt_policy`]).
    adapt: Option<AdaptPolicy>,
}

impl ResidentRun {
    /// Number of worker cores.
    pub fn core_count(&self) -> usize {
        self.shared.senders.len()
    }

    /// The request id the next injection will receive (ids start at 1
    /// and increase by injection order). The serving front-end peeks
    /// this to stamp arrival events with the id an arrival will get if
    /// admitted.
    pub fn next_request_id(&self) -> u64 {
        self.next_request
    }

    /// Injects one root object as a fresh request and returns its
    /// request id (ids start at 1 and increase by injection order).
    pub fn inject(&mut self, payload: NativePayload) -> u64 {
        self.inject_batch(vec![payload])[0]
    }

    /// Injects a micro-batch of root objects — one request each, all
    /// stamped with the same batch size — and returns their request
    /// ids. Requests round-robin across the startup group's instances
    /// (request 1 lands on instance 0, matching batch mode).
    pub fn inject_batch(&mut self, payloads: Vec<NativePayload>) -> Vec<u64> {
        let batch = payloads.len() as u64;
        let spec = self.shared.spec().clone();
        let instances = self
            .shared
            .layout
            .instances_of(self.shared.graph.startup_group)
            .to_vec();
        let mut ids = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let request = self.next_request;
            self.next_request += 1;
            let inst = instances[((request - 1) as usize) % instances.len()];
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
                instance: inst,
            });
            let ts = self.driver_sink.now();
            self.driver_sink.req_admit(ts, request, batch);
            self.shared.send(NO_ID, inst, obj, &mut self.driver_sink);
            ids.push(request);
        }
        ids
    }

    /// Drains every completion detected so far without blocking.
    pub fn try_completions(&mut self) -> Vec<Completion> {
        self.completions.try_iter().collect()
    }

    /// Waits up to `timeout` for the next completion.
    pub fn next_completion(&mut self, timeout: Duration) -> Option<Completion> {
        self.completions.recv_timeout(timeout).ok()
    }

    /// Requests currently holding outstanding work; zero exactly when
    /// the run is quiescent.
    pub fn outstanding(&self) -> usize {
        self.shared.ledger.outstanding()
    }

    /// Whether the request ledger is fully drained (the no-leak
    /// invariant: nothing outstanding, no residual entries).
    pub fn ledger_is_empty(&self) -> bool {
        self.shared.ledger.is_empty()
    }

    /// The deepest ingress backlog across the startup group's host
    /// cores: pending channel messages plus ready-queue length. The
    /// admission layer sheds against this depth. Host cores are read
    /// from the live assignment, so a relayout that moves the startup
    /// group re-targets backpressure with it.
    pub fn ingress_depth(&self) -> usize {
        let mut cores: Vec<usize> = self
            .shared
            .layout
            .instances_of(self.shared.graph.startup_group)
            .iter()
            .map(|&inst| self.shared.core_of(inst))
            .collect();
        cores.sort_unstable();
        cores.dedup();
        cores
            .iter()
            .map(|&c| self.shared.senders[c].len() + self.shared.ready[c].lock().len())
            .max()
            .unwrap_or(0)
    }

    /// Instances migrated by hot relayouts so far.
    pub fn relayouts(&self) -> u64 {
        self.shared.relayout_tally.load(Ordering::Relaxed)
    }

    /// The current layout epoch (0 until the first relayout commits;
    /// bumped once per committed relayout batch).
    pub fn layout_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The live layout: the deployment's synthesis layout with every
    /// instance's core read from the current assignment table.
    pub fn current_layout(&self) -> Layout {
        self.shared.current_layout()
    }

    /// A cloneable handle the adaptive controller uses to observe the
    /// run (live estimator, current layout, epoch) and commit hot
    /// relayouts against it.
    pub fn relayout_handle(&self) -> RelayoutHandle {
        RelayoutHandle {
            shared: self.shared.clone(),
        }
    }

    /// Claims the [`AdaptPolicy`] the run was started with, if any
    /// (the serving front-end takes it to drive the controller).
    pub fn take_adapt_policy(&mut self) -> Option<AdaptPolicy> {
        self.adapt.take()
    }

    /// The first unrecoverable fault, if one has been recorded.
    pub fn failure(&self) -> Option<ExecError> {
        self.shared.failure.lock().expect("failure mutex").clone()
    }

    /// Records a serving-layer event (arrival, shed) into the driver's
    /// pseudo-core sink; the serving front-end uses this so its events
    /// interleave with the executor's in one ring.
    pub fn driver_sink(&mut self) -> &mut WorkerSink {
        &mut self.driver_sink
    }

    /// Blocks until every injected request has completed (the ledger
    /// holds no open request) or an unrecoverable fault fires. Every
    /// completion is on the completion channel by then, so
    /// [`Self::try_completions`] right after a drain returns them all.
    ///
    /// # Errors
    ///
    /// Returns the run's first unrecoverable fault.
    pub fn drain(&mut self) -> Result<(), ExecError> {
        let shared = &self.shared;
        let mut guard = shared.quiesce.lock().expect("quiescence mutex");
        while shared.ledger.outstanding() != 0 && !shared.failed() {
            guard = shared.quiesce_cv.wait(guard).expect("quiescence mutex");
        }
        drop(guard);
        match self.failure() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Drains outstanding work, stops the workers, and builds the final
    /// report (finished objects include everything swept or left
    /// buffered).
    ///
    /// # Errors
    ///
    /// Surfaces the run's first unrecoverable fault, matching batch
    /// `run` semantics.
    pub fn shutdown(mut self) -> Result<ThreadedReport, ExecError> {
        let drained = self.drain();
        let shared = &self.shared;
        for tx in &shared.senders {
            let _ = tx.send(Message::Shutdown);
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
        // Submit the driver's ring before the caller snapshots the
        // telemetry session.
        self.driver_sink = WorkerSink::disabled();
        drained?;

        let mut finished = Vec::new();
        while let Ok(obj) = self.grave_rx.try_recv() {
            finished.push((obj.class, obj.payload));
        }
        Ok(ThreadedReport {
            invocations: shared.invocations.load(Ordering::SeqCst),
            body_cycles: shared.body_cycles.load(Ordering::SeqCst),
            steals: shared.steal_tally.load(Ordering::SeqCst),
            lock_retries: shared.retry_tally.load(Ordering::SeqCst),
            router_contention: 0,
            router_shed: shared.shed_tally.load(Ordering::SeqCst),
            finished,
            wall: self.start.elapsed(),
            faults_injected: shared.faults_injected.load(Ordering::SeqCst),
            recovery_actions: shared.recovery_tally.load(Ordering::SeqCst),
            relayouts: shared.relayout_tally.load(Ordering::SeqCst),
            layout_epoch: shared.epoch.load(Ordering::SeqCst),
            fault_schedule: shared.chaos.as_ref().map(|p| p.schedule().to_string()),
        })
    }
}

/// A cloneable handle onto a live resident run, through which the
/// adaptive controller (or a test) observes the run and commits hot
/// relayouts. Obtained from [`ResidentRun::relayout_handle`]; remains
/// valid until the run shuts down (commits against a shut-down run are
/// harmless — the drain messages land on closed channels and the final
/// graveyard drain already collects every buffered object).
#[derive(Clone)]
pub struct RelayoutHandle {
    shared: Arc<Shared>,
}

impl RelayoutHandle {
    /// The running program's spec.
    pub fn spec(&self) -> &ProgramSpec {
        self.shared.spec()
    }

    /// The deployment's group graph.
    pub fn graph(&self) -> &GroupGraph {
        &self.shared.graph
    }

    /// Number of worker cores.
    pub fn core_count(&self) -> usize {
        self.shared.senders.len()
    }

    /// The live layout (synthesis topology + current assignment).
    pub fn current_layout(&self) -> Layout {
        self.shared.current_layout()
    }

    /// The current layout epoch.
    pub fn layout_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Instances migrated by hot relayouts so far.
    pub fn relayouts(&self) -> u64 {
        self.shared.relayout_tally.load(Ordering::Relaxed)
    }

    /// Invocations executed so far (across all epochs).
    pub fn invocations(&self) -> u64 {
        self.shared.invocations.load(Ordering::Relaxed)
    }

    /// Whether `core` was killed by fault injection.
    pub fn is_core_dead(&self, core: usize) -> bool {
        self.shared.liveness.is_dead(core)
    }

    /// The run's live profile estimator (`None` unless the run was
    /// started with an [`AdaptPolicy`]).
    pub fn estimator(&self) -> Option<Arc<LiveEstimator>> {
        self.shared.estimator.clone()
    }

    /// Commits one batch of hot migrations: each `(instance, core)`
    /// pair re-homes that instance onto that core *while the run is
    /// live*. The whole batch is validated first (typed errors, nothing
    /// mutated on failure), then per move the live assignment is
    /// swapped — no routing state moves, since an instance's round-robin
    /// counters are keyed by its id; one epoch bump publishes the batch,
    /// and each source core is told to drain the moved instance's
    /// buffered objects to its new host (`Message::Migrate`). Requests
    /// in flight are never lost or double-counted — a drained object
    /// travels counted only while its request is open, and a completed
    /// request's leftover retires to the result graveyard (see
    /// [`RequestLedger::inc_if_open`]).
    ///
    /// Returns the epoch the batch committed as (the pre-commit epoch
    /// when every move was already in place).
    ///
    /// # Errors
    ///
    /// [`RelayoutError::UnknownInstance`] / [`RelayoutError::UnknownCore`]
    /// for out-of-range ids, [`RelayoutError::DeadCore`] when a
    /// destination was killed by fault injection.
    pub fn migrate(&self, moves: &[(InstanceId, usize)]) -> Result<u64, RelayoutError> {
        let shared = &self.shared;
        let _commit = shared.relayout_lock.lock();
        let cores = shared.senders.len();
        for &(inst, to) in moves {
            if inst.index() >= shared.assignment.len() {
                return Err(RelayoutError::UnknownInstance {
                    instance: inst.index(),
                });
            }
            if to >= cores {
                return Err(RelayoutError::UnknownCore { core: to });
            }
            if shared.liveness.is_dead(to) {
                return Err(RelayoutError::DeadCore { core: to });
            }
        }
        let mut sources: Vec<(usize, InstanceId)> = Vec::new();
        for &(inst, to) in moves {
            let from = shared.assignment[inst.index()].load(Ordering::Acquire);
            if from == to {
                continue;
            }
            shared.assignment[inst.index()].store(to, Ordering::Release);
            sources.push((from, inst));
        }
        if sources.is_empty() {
            return Ok(shared.epoch.load(Ordering::Acquire));
        }
        let migrated = sources.len() as u64;
        let epoch = shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        shared.relayout_tally.fetch_add(migrated, Ordering::Relaxed);
        shared.relayout_counter.add(migrated);
        for (from, inst) in sources {
            // A closed channel means the worker already exited
            // (shutdown race); its leftovers drain at the join.
            let _ = shared.senders[from].send(Message::Migrate(inst));
        }
        Ok(epoch)
    }
}

/// A formed invocation held in a run queue.
#[allow(clippy::vec_box)] // objects stay boxed so routing re-sends them without moving
struct PendingInv {
    /// Run-unique invocation id minted at formation; every telemetry
    /// event about this invocation carries it.
    id: u64,
    task: TaskId,
    instance: InstanceId,
    objs: Vec<Box<TObject>>,
    tag_env: TagEnv,
    /// Failed try-lock-all attempts this invocation has survived.
    retries: u64,
    /// The request all parameter objects belong to (request isolation:
    /// a parameter set never mixes requests).
    request: u64,
}

/// One request's buffered objects at an instance: a FIFO per slot.
type Bucket = Vec<VecDeque<Box<TObject>>>;

/// The tag instance bound to each of a task's tag variables.
type TagEnv = Vec<Option<TagInstance>>;

/// One hosted instance's parameter sets (§4.6: one set per task
/// parameter, one per slot of the group's [`SlotTable`]), keyed by
/// request. An invocation only ever combines objects of one request, so
/// each request's objects sit in their own bucket: formation looks at
/// that bucket alone and a completed request is swept by dropping it —
/// request isolation is structural. Buckets iterate in ascending request
/// id, so every drain is deterministic; a batch run is one request, hence
/// one bucket.
#[derive(Default)]
struct InstanceSets {
    buckets: BTreeMap<u64, Bucket>,
}

impl InstanceSets {
    /// Buffers `obj` in `slot` of its request's bucket; returns the task
    /// the slot belongs to.
    fn push(&mut self, table: &SlotTable, slot: usize, obj: Box<TObject>) -> TaskId {
        self.buckets
            .entry(obj.request)
            .or_insert_with(|| table.slots().iter().map(|_| VecDeque::new()).collect())[slot]
            .push_back(obj);
        table.slots()[slot].task
    }

    /// Removes and returns one full parameter set of `task` from
    /// `request`'s bucket, with the tag environment it bound. Buffered
    /// objects are owned here and never change state, so none is stale
    /// and none sits in two slots: only the tags decide.
    #[allow(clippy::vec_box)] // see `PendingInv::objs`
    fn form(
        &mut self,
        table: &SlotTable,
        spec: &ProgramSpec,
        task: TaskId,
        request: u64,
    ) -> Option<(Vec<Box<TObject>>, TagEnv)> {
        let tspec = spec.task(task);
        let sets = &mut self.buckets.get_mut(&request)?[table.task_slots(task)];
        let mut tag_env: TagEnv = vec![None; tspec.tag_vars.len()];
        let picked = formation::pick(sets, |p, cand| {
            #[cfg(test)]
            CANDIDATES.with(|n| n.set(n.get() + 1));
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
    fn drain(&mut self) -> impl Iterator<Item = Box<TObject>> {
        std::mem::take(&mut self.buckets)
            .into_values()
            .flat_map(|bucket| bucket.into_iter().flatten())
    }
}

/// A worker's buffering state: the parameter sets of every instance
/// currently (or formerly) hosted by the core.
///
/// `assigned` caches the worker's slice of the live assignment table
/// and is rebuilt whenever the relayout epoch moves — one atomic load
/// per delivery otherwise. `hosted` keeps the sets of migrated-away
/// instances too: their `Migrate` drain empties them.
struct WorkerSets {
    assigned: Vec<InstanceId>,
    hosted: BTreeMap<InstanceId, InstanceSets>,
    epoch: u64,
}

impl WorkerSets {
    fn new() -> Self {
        WorkerSets {
            assigned: Vec::new(),
            hosted: BTreeMap::new(),
            // Forces the first `refresh` to build the epoch-0 cache.
            epoch: u64::MAX,
        }
    }

    /// Rebuilds the assigned-instance cache when the relayout epoch has
    /// moved since the last call; a cheap no-op otherwise. Assigned
    /// instances are kept in ascending id order, matching the epoch-0
    /// `Layout::instances_on` order, so an adapt-free run is
    /// byte-identical to the pre-adapt executor. An instance this
    /// worker has never buffered for gets its (empty) sets here.
    fn refresh(&mut self, core: usize, shared: &Shared) {
        let epoch = shared.epoch.load(Ordering::Acquire);
        if epoch == self.epoch {
            return;
        }
        self.epoch = epoch;
        self.assigned = (0..shared.assignment.len())
            .filter(|&i| shared.assignment[i].load(Ordering::Acquire) == core)
            .map(|i| InstanceId(i as u32))
            .collect();
        for &inst in &self.assigned {
            self.hosted.entry(inst).or_default();
        }
    }

    /// The first instance on this core, in assigned order, with a slot
    /// that accepts `obj`, and that slot.
    fn accepting_slot(&self, shared: &Shared, obj: &TObject) -> Option<(InstanceId, usize)> {
        self.assigned.iter().find_map(|&inst| {
            let slot = shared
                .slot_table(inst)
                .accepting(obj.class, obj.flags)
                .next()?;
            Some((inst, slot))
        })
    }
}

fn worker_loop(core: usize, rx: Receiver<Message>, shared: Arc<Shared>) {
    let spec = shared.spec().clone();
    let mut sink = shared.telemetry.worker(core);
    let mut state = WorkerSets::new();
    state.refresh(core, &shared);
    let mut steal_rotation = core;
    // Chaos bookkeeping: faults are scheduled at exact dispatch counts,
    // so the tick runs once per count — at count 0 before any work, then
    // after every completed dispatch.
    let mut dispatched: u64 = 0;
    if chaos_tick(core, &shared, dispatched, &mut sink) {
        die_and_forward(core, &rx, &shared, &mut state, &mut sink);
        return;
    }

    loop {
        // 1. Drain a pending message without blocking. A poke only
        // wakes the loop, so the loop goes straight on to its run queue.
        match rx.try_recv() {
            Ok(Message::Poke) | Err(_) => {}
            Ok(msg) => {
                if on_message(core, &shared, &spec, &mut state, msg, &mut sink) {
                    break;
                }
                continue;
            }
        }
        // 2. Work the local run queue.
        let local = shared.ready[core].lock().pop_front();
        if let Some(inv) = local {
            dispatch(core, &shared, &spec, &mut state, inv, &mut sink);
            dispatched += 1;
            if chaos_tick(core, &shared, dispatched, &mut sink) {
                die_and_forward(core, &rx, &shared, &mut state, &mut sink);
                return;
            }
            continue;
        }
        // 3. Steal from a same-group peer.
        steal_rotation = steal_rotation.wrapping_add(1);
        if let Some(inv) = shared.try_steal(core, steal_rotation, &mut sink) {
            dispatch(core, &shared, &spec, &mut state, inv, &mut sink);
            dispatched += 1;
            if chaos_tick(core, &shared, dispatched, &mut sink) {
                die_and_forward(core, &rx, &shared, &mut state, &mut sink);
                return;
            }
            continue;
        }
        // 4. Nothing to do: publish idleness, re-check (an enqueue may
        // have raced the empty check), then park in `recv`.
        shared.idle[core].store(true, Ordering::SeqCst);
        if !shared.ready[core].lock().is_empty() {
            shared.idle[core].store(false, Ordering::SeqCst);
            continue;
        }
        match rx.recv() {
            Ok(msg) => {
                shared.idle[core].store(false, Ordering::SeqCst);
                if on_message(core, &shared, &spec, &mut state, msg, &mut sink) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // Drain remaining parameter-set objects so results are extractable
    // (including leftovers of instances that migrated away mid-run).
    for sets in state.hosted.values_mut() {
        for obj in sets.drain() {
            let _ = shared.graveyard.send(obj);
        }
    }
}

/// Handles one message off the worker's channel; returns whether the
/// worker must stop (`Shutdown`).
fn on_message(
    core: usize,
    shared: &Shared,
    spec: &ProgramSpec,
    state: &mut WorkerSets,
    msg: Message,
    sink: &mut WorkerSink,
) -> bool {
    match msg {
        Message::Deliver(obj) => {
            // Take it in, then release the message's ledger unit: the
            // invocations it formed carry their own, counted first.
            let request = obj.request;
            take_in(core, shared, spec, state, obj, sink);
            shared.release(request, sink);
        }
        Message::Poke => {}
        Message::Sweep(request) => sweep_sets(&shared.graveyard, state, request),
        Message::Migrate(inst) => migrate_drain(core, shared, state, inst, sink),
        Message::Shutdown => return true,
    }
    false
}

/// Drains a migrated-away instance's buffered objects by re-sending
/// them: the live assignment already points at the new host, so `send`
/// routes each object there, counting a fresh ledger unit before the
/// hand-off — buffered objects hold none, the same transfer-order
/// argument as the failover drain. A completed request's leftovers are
/// not re-sent but retired to the graveyard (no ledger resurrection).
/// Emits one `Relayout` event carrying the epoch, the instance, and the
/// number of objects drained.
fn migrate_drain(
    core: usize,
    shared: &Shared,
    state: &mut WorkerSets,
    inst: InstanceId,
    sink: &mut WorkerSink,
) {
    // Pick up the new epoch first so the drained instance leaves the
    // assigned cache before any follow-on delivery is handled.
    state.refresh(core, shared);
    let mut moved = 0u64;
    // The emptied sets stay: the instance may already be assigned here
    // again (it migrated back before this drain ran).
    if let Some(sets) = state.hosted.get_mut(&inst) {
        for obj in sets.drain() {
            shared.send_adopted(core as u64, inst, obj, sink);
            moved += 1;
        }
    }
    sink.relayout(
        sink.now(),
        shared.epoch.load(Ordering::Acquire),
        inst.index() as u64,
        moved,
    );
}

/// Evicts every buffered object of a completed request to the
/// graveyard. Safe because the request's ledger count reaching zero is
/// final: no invocation of that request can form afterwards, so the
/// leftovers are exactly the run's finished objects for that request.
fn sweep_sets(graveyard: &Sender<Box<TObject>>, state: &mut WorkerSets, request: u64) {
    for sets in state.hosted.values_mut() {
        for obj in sets
            .buckets
            .remove(&request)
            .into_iter()
            .flatten()
            .flatten()
        {
            let _ = graveyard.send(obj);
        }
    }
}

/// Runs this core's scheduled faults for the current dispatch count:
/// injects a stall if one is due, and returns `true` when the kill
/// threshold has been reached (the caller must run the die sequence).
fn chaos_tick(core: usize, shared: &Shared, dispatched: u64, sink: &mut WorkerSink) -> bool {
    let Some(plan) = &shared.chaos else {
        return false;
    };
    if let Some(stall) = plan.stall_at(core, dispatched) {
        shared.faults_injected.fetch_add(1, Ordering::Relaxed);
        shared.fault_counter.inc();
        sink.fault(
            sink.now(),
            fault_code::CORE_STALL,
            stall.as_nanos() as u64,
            NO_ID,
        );
        std::thread::sleep(stall);
    }
    plan.kill_after(core).is_some_and(|k| dispatched >= k)
}

/// The die sequence for a killed core. The worker stops dispatching
/// forever; its queued invocations drain through peers' steal path and
/// its buffered parameter-set objects are re-sent to live same-group
/// hosts, except a completed request's leftovers, which retire to the
/// graveyard. The thread then lingers as a forwarder — late arrivals
/// are re-routed, never processed — until shutdown.
///
/// With recovery disabled, or when any queued invocation's
/// group has no live host left, the run fails with
/// [`ExecError::CoreLost`] instead: typed, immediate, no hang.
fn die_and_forward(
    core: usize,
    rx: &Receiver<Message>,
    shared: &Shared,
    state: &mut WorkerSets,
    sink: &mut WorkerSink,
) {
    shared.faults_injected.fetch_add(1, Ordering::Relaxed);
    shared.fault_counter.inc();
    sink.fault(sink.now(), fault_code::CORE_KILL, core as u64, NO_ID);
    shared.liveness.mark_dead(core);
    let recoverable = shared.chaos.as_ref().is_some_and(|p| p.recovery_enabled());
    // Every queued invocation needs a live same-group host to steal it;
    // a stranded group means the work is genuinely unrecoverable.
    let stranded = shared.ready[core].lock().iter().any(|inv| {
        let group = shared.group_of_instance(inv.instance);
        !shared.group_cores[group]
            .iter()
            .any(|&c| !shared.liveness.is_dead(c))
    });
    if !recoverable || stranded {
        shared.fail(ExecError::CoreLost { core });
    } else {
        // Hand buffered parameter-set objects to live same-group hosts;
        // `send` performs the dead-destination failover since this core
        // is already marked dead.
        let mut moved = 0u64;
        for (&inst, sets) in state.hosted.iter_mut() {
            for obj in sets.drain() {
                // Buffered objects hold no ledger unit (their delivery
                // units were released on arrival); the re-send counts a
                // fresh one inside `send` before the handoff, or retires
                // a completed request's leftover so its ledger entry is
                // never resurrected.
                shared.send_adopted(core as u64, inst, obj, sink);
                moved += 1;
            }
        }
        shared.recovery_tally.fetch_add(1, Ordering::Relaxed);
        shared.recover_counter.inc();
        sink.recover(sink.now(), recover_code::FAILOVER_DRAIN, moved, NO_ID);
    }
    // Forward until shutdown. The timeout re-pokes peers while our run
    // queue holds work: a peer that was mid-park when the first poke
    // fired would otherwise sleep through the steal it owes us.
    loop {
        for &peer in &shared.steal_peers[core] {
            if !shared.liveness.is_dead(peer) {
                shared.poke(peer);
            }
        }
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(Message::Deliver(obj)) => {
                // Late arrival: re-send it to the local instance whose
                // slot would have buffered it (`send`'s dead-destination
                // failover redirects to a live same-group host), or on
                // along the route a live worker would have used. The
                // re-send is counted before this message's unit is
                // released, so the ledger stays transfer-ordered.
                let request = obj.request;
                match state.accepting_slot(shared, &obj) {
                    Some((inst, _)) => shared.send(core as u64, inst, obj, sink),
                    None => forward_or_retire(core, shared, state, obj, sink),
                }
                shared.release(request, sink);
            }
            Ok(Message::Poke) => {}
            // This core's sets were already drained in the failover;
            // nothing left to sweep or migrate here.
            Ok(Message::Sweep(_)) | Ok(Message::Migrate(_)) => {}
            Ok(Message::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => {
                if shared.ready[core].lock().is_empty() && !shared.failed() {
                    // Queue drained and nothing to forward: park longer.
                    std::thread::yield_now();
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// No slot on this core accepts `obj`: forwards it to the consuming
/// group, or retires it if no task can ever consume it.
fn forward_or_retire(
    core: usize,
    shared: &Shared,
    state: &WorkerSets,
    obj: Box<TObject>,
    sink: &mut WorkerSink,
) {
    let inst = state.assigned.first().copied().unwrap_or(InstanceId(0));
    let hash = obj.tags.first().map(|(_, i)| i.0);
    match shared.route_transition(inst, obj.class, obj.flags, hash) {
        // Forwarding keeps the object's original producer: the
        // eventual consumer's causal edge must point at whoever
        // released the object, not at the hop that relayed it.
        RouteDecision::Move(dest) => shared.send(core as u64, dest, obj, sink),
        _ => {
            let _ = shared.graveyard.send(obj);
        }
    }
}

/// Takes one object in at `core`, whether it came off the channel or
/// straight from an invocation executing here: buffer or forward it and
/// form every invocation it completes. Holds and releases no ledger unit
/// of its own — the caller's unit (the message's, or the executing
/// invocation's) covers it, and a buffered object holds none.
///
/// Formation is attempted only for the task whose slot the object landed
/// in, at that instance, for the object's request. That is complete:
/// this function is the only writer of the sets and loops until no full
/// pick remains, so nothing formable is ever left behind, and a set can
/// become formable only through the object that just arrived — which
/// sits in exactly one slot of one request's bucket.
fn take_in(
    core: usize,
    shared: &Shared,
    spec: &ProgramSpec,
    state: &mut WorkerSets,
    obj: Box<TObject>,
    sink: &mut WorkerSink,
) {
    // Pick up any relayout that committed since the last delivery
    // *before* matching slots: a freshly adopted instance must already
    // be in the assigned cache when its first object arrives.
    state.refresh(core, shared);
    if sink.is_enabled() {
        let ts = sink.now();
        sink.obj_recv(ts, OBJ_BYTES_ESTIMATE, obj.src_core, obj.msg);
        let ready = shared.ready[core].lock().len() as u64;
        sink.queue_depth(ts, shared.senders[core].len() as u64, ready);
    }
    let request = obj.request;
    if let Some((inst, task)) = deliver(core, shared, state, obj, sink) {
        let sets = state.hosted.get_mut(&inst).expect("delivered there");
        let table = shared.slot_table(inst);
        while let Some((objs, tag_env)) = sets.form(table, spec, task, request) {
            // Mint the invocation id and record formation (the
            // queue-enter timestamp) plus one causal edge per consumed
            // object before the invocation becomes stealable — after
            // that, another core may execute it.
            let id = shared.next_inv.fetch_add(1, Ordering::Relaxed) + 1;
            if sink.is_enabled() {
                let ts = sink.now();
                sink.inv_queued(ts, id, inst.index() as u64, task.index() as u64, request);
                for obj in &objs {
                    sink.inv_link(ts, id, obj.producer, obj.msg);
                }
            }
            // Count the invocation *before* it becomes visible to this
            // core's queue (and to thieves).
            shared.ledger.inc(request);
            shared.enqueue_ready(
                core,
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
}

/// Locks and executes one invocation; on lock failure the invocation
/// re-queues at the back of this core's run queue. Only parameters that
/// belong to a lock class are locked: the worker holds every parameter's
/// `Box`, so an unshared object is exclusive already.
fn dispatch(
    core: usize,
    shared: &Shared,
    spec: &ProgramSpec,
    state: &mut WorkerSets,
    mut inv: PendingInv,
    sink: &mut WorkerSink,
) {
    // Lock slowdown: holds the invocation at the acquisition point once
    // (first attempt only — retries must not compound the injection).
    if inv.retries == 0 {
        if let Some(plan) = &shared.chaos {
            if let Some(slow) = plan.lock_slowdown_of(inv.id) {
                shared.faults_injected.fetch_add(1, Ordering::Relaxed);
                shared.fault_counter.inc();
                sink.fault(
                    sink.now(),
                    fault_code::LOCK_SLOW,
                    slow.as_nanos() as u64,
                    inv.id,
                );
                std::thread::sleep(slow);
            }
        }
    }
    let params = inv.objs.len() as u64;
    let lock_ids: Vec<usize> = inv
        .objs
        .iter()
        .map(|o| o.lock)
        .filter(|&lock| lock != UNSHARED)
        .collect();
    match shared.lock_table.try_lock_all(&lock_ids) {
        Some(guards) => {
            sink.lock_acquired(sink.now(), params, inv.retries, inv.id);
            execute(core, shared, spec, state, inv, sink);
            drop(guards);
        }
        None => {
            // Transactional retry: nothing held; try a different
            // invocation later.
            shared.lock_retries.inc();
            shared.retry_tally.fetch_add(1, Ordering::Relaxed);
            sink.lock_failed(sink.now(), params, inv.task.index() as u64, inv.id);
            inv.retries += 1;
            shared.ready[core].lock().push_back(inv);
            std::thread::yield_now();
        }
    }
}

/// Buffers `obj` in a local parameter set and returns the instance and
/// task it landed at, or redirects, forwards or retires it (`None`).
fn deliver(
    core: usize,
    shared: &Shared,
    state: &mut WorkerSets,
    obj: Box<TObject>,
    sink: &mut WorkerSink,
) -> Option<(InstanceId, TaskId)> {
    // Redirect-first: an object that raced a hot relayout chases its
    // instance to the instance's current core. Only when that core is
    // live — a dead assigned core keeps the failover semantics (the
    // object was deliberately re-striped here; handle it locally).
    let assigned = shared.core_of(obj.instance);
    if assigned != core && !shared.liveness.is_dead(assigned) {
        shared.send(core as u64, obj.instance, obj, sink);
        return None;
    }
    // Enqueue at the first instance on this core with a matching slot.
    // (With several same-group instances per core this coarsens the
    // round-robin split; correctness is unaffected because any matching
    // instance may process the object.) Unlike the virtual executor,
    // which enqueues an object into every matching parameter set and
    // reserves it at invocation formation, workers *own* their objects:
    // single-slot delivery makes double capture impossible by
    // construction, at the cost of possible starvation when two tasks'
    // guards overlap and only the second can make progress — the
    // synthesis pipeline never produces such programs, and the virtual
    // executor handles them.
    match state.accepting_slot(shared, &obj) {
        Some((inst, slot)) => {
            let sets = state.hosted.get_mut(&inst).expect("created by refresh");
            Some((inst, sets.push(shared.slot_table(inst), slot, obj)))
        }
        None => {
            forward_or_retire(core, shared, state, obj, sink);
            None
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Candidates `InstanceSets::form` examined on this thread (depth
    /// test).
    static CANDIDATES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs `inv` on `core` (its home core, or a thief's) and routes what
/// it releases and creates; objects bound for an instance `core` hosts
/// go straight into `state`.
fn execute(
    core: usize,
    shared: &Shared,
    spec: &ProgramSpec,
    state: &mut WorkerSets,
    mut inv: PendingInv,
    sink: &mut WorkerSink,
) {
    sink.task_start(
        sink.now(),
        inv.task.index() as u64,
        inv.instance.index() as u64,
        inv.id,
    );
    let tspec = spec.task(inv.task);
    // Sends name the invocation's *home* core (the live assignment's
    // host) as their source, so a stolen invocation's traffic is
    // attributed to the victim instance.
    let home_core = shared.core_of(inv.instance);
    tspec.mint_tags(&mut inv.tag_env, || shared.mint_tag());
    // Run the body.
    let body = shared
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
    shared.body_cycles.fetch_add(charged, Ordering::Relaxed);
    shared.invocations.fetch_add(1, Ordering::Relaxed);
    shared.ledger.charge_invocation(inv.request);
    shared.dispatches.inc();

    // Feed the live Markov-model estimate (and the `TaskExit` /
    // `TaskAlloc` event stream) before routing consumes `created`. One
    // record per invocation: which exit fired, the cycles it charged,
    // and how many objects each alloc site produced.
    if shared.estimator.is_some() || sink.is_enabled() {
        let mut site_counts = vec![0u64; tspec.alloc_sites.len()];
        for (site_idx, _) in &created {
            site_counts[*site_idx] += 1;
        }
        if let Some(estimator) = &shared.estimator {
            estimator.record(inv.task.index(), exit.index(), charged, &site_counts);
        }
        if sink.is_enabled() {
            let ts = sink.now();
            sink.task_exit(
                ts,
                inv.task.index() as u64,
                exit.index() as u64,
                charged,
                inv.id,
            );
            for (site, &count) in site_counts.iter().enumerate() {
                if count > 0 {
                    sink.task_alloc(
                        ts,
                        inv.task.index() as u64,
                        exit.index() as u64,
                        site as u64,
                        count,
                    );
                }
            }
        }
    }

    // Shared-lock directive. An object gets its class the first time a
    // group of two or more parameters touches it; nothing has to be held
    // for a new class, because the body has already run.
    for group in &shared.locks_analysis.lock_plans[inv.task.index()].groups {
        for pair in group.windows(2) {
            let [a, b] = [pair[0], pair[1]].map(|param| {
                let lock = &mut inv.objs[param.index()].lock;
                if *lock == UNSHARED {
                    *lock = shared.lock_table.fresh();
                }
                *lock
            });
            shared.lock_table.merge(a, b);
        }
    }

    // Exit actions.
    for (p, obj) in inv.objs.iter_mut().enumerate() {
        tspec.apply_exit(
            exit,
            ParamIdx::new(p),
            &mut obj.flags,
            &mut obj.tags,
            &inv.tag_env,
        );
    }

    // Route parameters. Released objects are re-stamped with this
    // invocation as their producer: whoever consumes them next links
    // back here.
    for mut obj in inv.objs {
        obj.producer = inv.id;
        let hash = obj.tags.first().map(|(_, i)| i.0);
        let dest = match shared.route_transition(inv.instance, obj.class, obj.flags, hash) {
            RouteDecision::Stay => inv.instance,
            RouteDecision::Move(dest) => dest,
            RouteDecision::Dead => {
                let _ = shared.graveyard.send(obj);
                continue;
            }
        };
        shared.send_from(core, state, home_core as u64, dest, obj, sink);
    }

    // Created objects.
    for (site_idx, payload) in created {
        let site = bamboo_lang::ids::AllocSiteId::new(site_idx);
        let site_spec = &tspec.alloc_sites[site.index()];
        let tags = tspec.created_tags(site, &inv.tag_env);
        let hash = tags.first().map(|(_, i)| i.0);
        let dest =
            shared
                .routes
                .route_new(&shared.layout, inv.instance, inv.task, site, hash, |at| {
                    shared.site_rr[at].fetch_add(1, Ordering::Relaxed)
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
        shared.send_from(core, state, home_core as u64, dest, obj, sink);
    }

    // Invocation complete.
    sink.task_end(
        sink.now(),
        inv.task.index() as u64,
        inv.instance.index() as u64,
        inv.id,
    );
    shared.release(inv.request, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{body, NativeBody};
    use crate::virtual_exec::tests_support::fanout_setup;
    use bamboo_lang::builder::ProgramBuilder;
    use bamboo_lang::ids::{FlagId, ParamIdx};
    use bamboo_lang::spec::FlagExpr;

    fn deployment(
        (program, graph, layout, _machine, locks): (
            Program,
            GroupGraph,
            Layout,
            bamboo_machine::MachineDescription,
            DisjointnessAnalysis,
        ),
    ) -> Deployment {
        Deployment::new(program, graph, layout, locks)
    }

    // ---- parameter sets: keyed structure vs the old whole-scan ----------

    /// One formed invocation: task, instance index, request, the picked
    /// objects' identities (their `lock` ids) and the bound tag
    /// environment.
    type Formed = (TaskId, usize, u64, Vec<usize>, TagEnv);

    /// The spec the formation tests deliver into, hosted as two
    /// instances: `[one, overlap]` and `[pair, triple]`. `one` and
    /// `overlap` both accept an `A` with `f` set (the guard-overlap
    /// case: it lands in `one`'s slot, the first match); `pair` and
    /// `triple` bind their tagged parameters through one tag variable.
    fn formation_spec() -> (ProgramSpec, [Vec<TaskId>; 2]) {
        use bamboo_lang::builder::ProgramBuilder;
        use bamboo_lang::spec::FlagExpr;
        let mut b: ProgramBuilder<()> = ProgramBuilder::new("formation");
        b.class("StartupObject", &["initialstate"]);
        let a = b.class("A", &["f", "k"]);
        let classes: Vec<ClassId> = ["B", "C", "D", "E", "F", "G"]
            .iter()
            .map(|name| b.class(name, &["f"]))
            .collect();
        let t = b.tag_type("T");
        let f = FlagExpr::flag(FlagId::new(0));
        let k = FlagExpr::flag(FlagId::new(1));
        let one = b
            .task("one")
            .param("a", a, f.clone())
            .exit("", |e| e)
            .body(())
            .finish();
        let overlap = b
            .task("overlap")
            .param("a", a, f.clone().or(k))
            .param("b", classes[0], f.clone())
            .exit("", |e| e)
            .body(())
            .finish();
        let pair = b
            .task("pair")
            .param("c", classes[1], f.clone())
            .with_tag(t, "t")
            .param("d", classes[2], f.clone())
            .with_tag(t, "t")
            .exit("", |e| e)
            .body(())
            .finish();
        let triple = b
            .task("triple")
            .param("e", classes[3], f.clone())
            .with_tag(t, "t")
            .param("x", classes[4], f.clone())
            .param("y", classes[5], f)
            .with_tag(t, "t")
            .exit("", |e| e)
            .body(())
            .finish();
        let spec = b.build().unwrap().spec;
        (spec, [vec![one, overlap], vec![pair, triple]])
    }

    /// Object `id` of `request`: class index 1..=7 is A..G, `flags` are
    /// the raw flag bits, tag 0 means untagged.
    fn test_obj(id: usize, class: usize, flags: u64, tag: u64, request: u64) -> Box<TObject> {
        Box::new(TObject {
            class: ClassId::new(class),
            flags: FlagSet::from_bits(flags),
            tags: (tag > 0)
                .then_some((TagTypeId::new(0), TagInstance(tag)))
                .into_iter()
                .collect(),
            payload: Box::new(()),
            lock: id,
            producer: NO_ID,
            msg: NO_ID,
            src_core: NO_ID,
            request,
            instance: InstanceId(0),
        })
    }

    /// Instances hosting each task list: their slot tables and empty
    /// parameter sets.
    fn hosted_sets(
        spec: &ProgramSpec,
        hosted: &[Vec<TaskId>],
    ) -> (Vec<SlotTable>, Vec<InstanceSets>) {
        let tables = hosted
            .iter()
            .map(|tasks| SlotTable::new(spec, tasks))
            .collect();
        (
            tables,
            hosted.iter().map(|_| InstanceSets::default()).collect(),
        )
    }

    /// What `deliver` + `take_in` do to the sets, without the
    /// executor around them: buffer at the first instance with a
    /// matching slot, then form that task for that request until no
    /// full pick remains.
    fn arrive(
        spec: &ProgramSpec,
        tables: &[SlotTable],
        insts: &mut [InstanceSets],
        obj: Box<TObject>,
    ) -> Vec<Formed> {
        let request = obj.request;
        let mut formed = Vec::new();
        for (i, (table, sets)) in tables.iter().zip(insts).enumerate() {
            if let Some(slot) = table.accepting(obj.class, obj.flags).next() {
                let task = sets.push(table, slot, obj);
                while let Some((objs, tag_env)) = sets.form(table, spec, task, request) {
                    let ids = objs.iter().map(|o| o.lock).collect();
                    formed.push((task, i, request, ids, tag_env));
                }
                break;
            }
        }
        formed
    }

    /// The formation this structure replaced, kept as the reference:
    /// flat per-slot queues holding every request's objects, and a scan
    /// of every instance × task × distinct request after each delivery.
    struct RefSets {
        tasks: Vec<TaskId>,
        slots: Vec<(TaskId, ParamIdx)>,
        sets: Vec<VecDeque<Box<TObject>>>,
    }

    fn ref_arrive(spec: &ProgramSpec, insts: &mut [RefSets], obj: Box<TObject>) -> Vec<Formed> {
        for inst in insts.iter_mut() {
            let matched = inst.slots.iter().position(|(task, param)| {
                let pspec = &spec.task(*task).params[param.index()];
                pspec.class == obj.class && pspec.guard.eval(obj.flags)
            });
            if let Some(slot) = matched {
                inst.sets[slot].push_back(obj);
                break;
            }
        }
        let mut out = Vec::new();
        for (i, inst) in insts.iter_mut().enumerate() {
            for &task in &inst.tasks {
                'again: loop {
                    let slot0 = inst
                        .slots
                        .iter()
                        .position(|(t, pi)| *t == task && pi.index() == 0)
                        .expect("slot exists");
                    let mut tried: Vec<u64> = Vec::new();
                    let mut formed = None;
                    for idx0 in 0..inst.sets[slot0].len() {
                        let request = inst.sets[slot0][idx0].request;
                        if tried.contains(&request) {
                            continue;
                        }
                        tried.push(request);
                        if let Some((picks, tag_env)) =
                            ref_try_form(spec, task, &inst.slots, &inst.sets, request)
                        {
                            formed = Some((picks, tag_env, request));
                            break;
                        }
                    }
                    let Some((picks, tag_env, request)) = formed else {
                        break 'again;
                    };
                    let ids = picks
                        .into_iter()
                        .map(|(slot, idx)| inst.sets[slot].remove(idx).expect("picked").lock)
                        .collect();
                    out.push((task, i, request, ids, tag_env));
                }
            }
        }
        out
    }

    fn ref_try_form(
        spec: &ProgramSpec,
        task: TaskId,
        slots: &[(TaskId, ParamIdx)],
        sets: &[VecDeque<Box<TObject>>],
        request: u64,
    ) -> Option<(Vec<(usize, usize)>, TagEnv)> {
        let tspec = spec.task(task);
        let mut tag_env: TagEnv = vec![None; tspec.tag_vars.len()];
        let mut picks: Vec<(usize, usize)> = Vec::new();
        for p in 0..tspec.params.len() {
            let slot = slots
                .iter()
                .position(|(t, pi)| *t == task && pi.index() == p)
                .expect("slot exists");
            let pspec = &tspec.params[p];
            let mut found = None;
            for (idx, cand) in sets[slot].iter().enumerate() {
                if picks.contains(&(slot, idx))
                    || cand.request != request
                    || !pspec.guard.eval(cand.flags)
                {
                    continue;
                }
                let mut ok = true;
                let mut updates = Vec::new();
                for tc in &pspec.tags {
                    let bound = updates
                        .iter()
                        .find(|(v, _)| *v == tc.var.index())
                        .map(|(_, inst)| *inst)
                        .or(tag_env[tc.var.index()]);
                    match bound {
                        Some(instn) => {
                            if !cand.tags.contains(&(tc.tag_type, instn)) {
                                ok = false;
                                break;
                            }
                        }
                        None => match cand.tags.iter().find(|(tt, _)| *tt == tc.tag_type) {
                            Some((_, instn)) => updates.push((tc.var.index(), *instn)),
                            None => {
                                ok = false;
                                break;
                            }
                        },
                    }
                }
                if ok {
                    for (v, instn) in updates {
                        tag_env[v] = Some(instn);
                    }
                    found = Some((slot, idx));
                    break;
                }
            }
            picks.push(found?);
        }
        Some((picks, tag_env))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        /// Random deliveries over 1–4 requests: the keyed structure forms
        /// the identical sequence of invocations as the whole-scan
        /// reference — same task, instance, request, objects and tag
        /// environment, in the same order — and leaves the same objects
        /// buffered.
        #[test]
        fn keyed_formation_matches_whole_scan_reference(
            requests in 1u64..5,
            deliveries in proptest::collection::vec(
                (1usize..8, 0u64..4, 0u64..3, 0u64..4),
                0..120,
            ),
        ) {
            let (spec, hosted) = formation_spec();
            let (tables, mut new) = hosted_sets(&spec, &hosted);
            let mut old: Vec<RefSets> = hosted
                .iter()
                .zip(&tables)
                .map(|(tasks, table)| {
                    let keys: Vec<(TaskId, ParamIdx)> =
                        table.slots().iter().map(|slot| (slot.task, slot.param)).collect();
                    RefSets {
                        tasks: tasks.clone(),
                        sets: keys.iter().map(|_| VecDeque::new()).collect(),
                        slots: keys,
                    }
                })
                .collect();
            for (id, (class, flags, tag, request)) in deliveries.into_iter().enumerate() {
                // Three objects in four carry `f` (flag bit 0), the
                // flag every guard but `overlap`'s `k` asks for.
                let (flags, request) = (flags.max(1), 1 + request % requests);
                let formed =
                    arrive(&spec, &tables, &mut new, test_obj(id, class, flags, tag, request));
                let expected =
                    ref_arrive(&spec, &mut old, test_obj(id, class, flags, tag, request));
                proptest::prop_assert_eq!(formed, expected, "after delivery {}", id);
            }
            for (sets, reference) in new.iter_mut().zip(old) {
                let mut left: Vec<usize> = sets.drain().map(|o| o.lock).collect();
                let mut expected: Vec<usize> =
                    reference.sets.into_iter().flatten().map(|o| o.lock).collect();
                left.sort_unstable();
                expected.sort_unstable();
                proptest::prop_assert_eq!(left, expected);
            }
        }
    }

    /// Sweeping request R sends exactly R's buffered objects to the
    /// graveyard; every other request's queues keep their contents and
    /// order.
    #[test]
    fn sweep_drops_one_request_and_leaves_the_rest_untouched() {
        let (spec, hosted) = formation_spec();
        let (tables, mut insts) = hosted_sets(&spec, &hosted);
        // Nothing here completes a set: `overlap` never sees its `b`,
        // `pair` never its `d`, `triple` never its `x`.
        let mut swept = Vec::new();
        for id in 0..60 {
            let request = 1 + (id % 3) as u64;
            let (class, flags) = [(1, 0b10), (3, 1), (5, 1), (7, 1)][id % 4];
            let obj = test_obj(id, class, flags, 1 + (id % 2) as u64, request);
            assert!(arrive(&spec, &tables, &mut insts, obj).is_empty());
            if request == 2 {
                swept.push(id);
            }
        }
        let mut state = WorkerSets::new();
        state.hosted = (0..).map(InstanceId).zip(insts).collect();
        let ids = |bucket: &Bucket| -> Vec<Vec<usize>> {
            bucket
                .iter()
                .map(|set| set.iter().map(|o| o.lock).collect())
                .collect()
        };
        let snapshot = |state: &WorkerSets| -> Vec<(u64, Vec<Vec<usize>>)> {
            state
                .hosted
                .values()
                .flat_map(|sets| sets.buckets.iter().map(|(r, b)| (*r, ids(b))))
                .collect()
        };
        let mut before = snapshot(&state);
        let (grave_tx, grave_rx) = unbounded();
        sweep_sets(&grave_tx, &mut state, 2);
        before.retain(|(request, _)| *request != 2);
        assert_eq!(snapshot(&state), before);
        let mut buried: Vec<usize> = grave_rx.try_iter().map(|o| o.lock).collect();
        buried.sort_unstable();
        assert_eq!(buried, swept);
    }

    /// A burst of N requests buffered side by side at one instance: the
    /// candidates `InstanceSets::form` examines grow with the objects
    /// delivered, not with their product — each arrival looks only into
    /// its own request's bucket.
    #[test]
    fn formation_work_is_linear_in_objects_delivered() {
        let (spec, hosted) = formation_spec();
        let per_object = |burst: usize| {
            let (tables, mut insts) = hosted_sets(&spec, &hosted[1..]);
            CANDIDATES.with(|n| n.set(0));
            let mut formed = 0;
            // Every request's `c` first, so all of them are buffered
            // before the first `d` completes a `pair`.
            for (phase, class) in [(0, 3), (1, 4)] {
                for r in 0..burst {
                    let obj = test_obj(phase * burst + r, class, 1, 1, 1 + r as u64);
                    formed += arrive(&spec, &tables, &mut insts, obj).len();
                }
            }
            assert_eq!(formed, burst);
            CANDIDATES.with(|n| n.get()) as f64 / (2 * burst) as f64
        };
        let shallow = per_object(20);
        assert!(shallow <= 2.0, "{shallow} candidates per object");
        assert_eq!(per_object(2000), shallow);
    }

    #[test]
    fn threaded_matches_virtual_result() {
        let deploy = deployment(fanout_setup(24, 3));
        let report = ThreadedExecutor::default()
            .run(&deploy, RunOptions::default())
            .unwrap();
        // 1 startup + 24 work + 24 reduce.
        assert_eq!(report.invocations, 49);
        let acc_class = deploy.program.spec.class_by_name("Acc").unwrap();
        let accs = report.payloads_of::<(i64, i64, i64)>(acc_class);
        assert_eq!(accs.len(), 1);
        // Sum of squares 0..24.
        let expected: i64 = (0..24).map(|i| i * i).sum();
        assert_eq!(accs[0].0, expected);
    }

    #[test]
    fn threaded_single_core_works() {
        let deploy = deployment(fanout_setup(8, 1));
        let report = ThreadedExecutor::default()
            .run(&deploy, RunOptions::default())
            .unwrap();
        assert_eq!(report.invocations, 17);
        assert!(report.body_cycles > 0);
        // One core: nothing to steal from.
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn interpreted_program_is_rejected() {
        let compiled = bamboo_lang::compile_source(
            "t",
            r#"
            class StartupObject { flag initialstate; }
            task t(StartupObject s in initialstate) { taskexit(s: initialstate := false); }
            "#,
        )
        .unwrap();
        let locks = DisjointnessAnalysis::all_disjoint(&compiled.spec);
        let program = Program::from_compiled(compiled);
        let deploy = Deployment::single_core(&program, &locks);
        let err = ThreadedExecutor::default()
            .run(&deploy, RunOptions::default())
            .unwrap_err();
        assert_eq!(err, ExecError::NativeOnly);
    }

    #[test]
    fn lock_contention_retries_preserve_correctness() {
        // Force all objects into one lock class by marking every task's
        // parameters shared: heavy contention, same result.
        let (program, graph, layout, _machine, locks) = fanout_setup(16, 4);
        let reduce = program.spec.task_by_name("reduce").unwrap();
        let locks = locks.with_shared(
            reduce,
            &[
                bamboo_lang::ids::ParamIdx::new(0),
                bamboo_lang::ids::ParamIdx::new(1),
            ],
        );
        let deploy = Deployment::new(program, graph, layout, locks);
        let report = ThreadedExecutor::default()
            .run(&deploy, RunOptions::default())
            .unwrap();
        let acc_class = deploy.program.spec.class_by_name("Acc").unwrap();
        let accs = report.payloads_of::<(i64, i64, i64)>(acc_class);
        let expected: i64 = (0..16).map(|i| i * i).sum();
        assert_eq!(accs[0].0, expected);

        // An all-disjoint program allocates no lock class and never
        // retries: ownership of the `Box` is the only exclusion it needs.
        let deploy = deployment(fanout_setup(16, 4));
        let mut run = ThreadedExecutor::default()
            .start(&deploy, RunOptions::default())
            .unwrap();
        run.inject(Box::new(()));
        run.drain().unwrap();
        assert!(run.shared.lock_table.classes.lock().1.is_empty());
        assert_eq!(run.shutdown().unwrap().lock_retries, 0);

        // Classes are allocated when sharing first happens and exclude
        // from then on: `pair` merges an `L` and an `R`, after which
        // `left` (core 0) and `right` (core 1) each run `ROUNDS` times on
        // one of them. Every body holds `busy` across a sleep and counts
        // the times it found it already held.
        const ROUNDS: i64 = 12;
        let busy = Arc::new(AtomicBool::new(false));
        let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("shared-pair");
        let s = b.class("StartupObject", &["initialstate"]);
        let init = b.flag(s, "initialstate");
        let sides = ["L", "R"].map(|name| {
            let class = b.class(name, &["fresh", "paired"]);
            (class, b.flag(class, "fresh"), b.flag(class, "paired"))
        });
        let [(l, l_fresh, l_paired), (r, r_fresh, r_paired)] = sides;
        b.task("startup")
            .param("s", s, FlagExpr::flag(init))
            .alloc(l, &[(l_fresh, true)], &[])
            .alloc(r, &[(r_fresh, true)], &[])
            .exit("", |e| e.set(0, init, false))
            .body(body(|ctx| {
                // (rounds left, overlaps seen)
                ctx.create(0, (ROUNDS, 0i64));
                ctx.create(1, (ROUNDS, 0i64));
                0
            }))
            .finish();
        let pair = b
            .task("pair")
            .param("l", l, FlagExpr::flag(l_fresh))
            .param("r", r, FlagExpr::flag(r_fresh))
            .exit("", |e| {
                e.set(0, l_fresh, false)
                    .set(0, l_paired, true)
                    .set(1, r_fresh, false)
                    .set(1, r_paired, true)
            })
            .body(body(|_| 0))
            .finish();
        for (name, class, paired) in [("left", l, l_paired), ("right", r, r_paired)] {
            let busy = busy.clone();
            b.task(name)
                .param("o", class, FlagExpr::flag(paired))
                .exit("again", |e| e)
                .exit("done", |e| e.set(0, paired, false))
                .body(body(move |ctx| {
                    let overlapped = busy.swap(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(300));
                    busy.store(false, Ordering::SeqCst);
                    let (left, overlaps) = ctx.param_mut::<(i64, i64)>(0);
                    *left -= 1;
                    *overlaps += i64::from(overlapped);
                    usize::from(*left == 0)
                }))
                .finish();
        }
        let program = Program::from_native(b.build().unwrap());
        let mut deploy = Deployment::single_core(
            &program,
            &DisjointnessAnalysis::all_disjoint(&program.spec)
                .with_shared(pair, &[ParamIdx::new(0), ParamIdx::new(1)]),
        );
        let right = program.spec.task_by_name("right").unwrap();
        let right_group = deploy.graph.group_of_task(right).unwrap();
        assert_ne!(deploy.graph.group_of_task(pair), Some(right_group));
        deploy.layout.core_count = 2;
        for inst in &mut deploy.layout.instances {
            if inst.group == right_group {
                inst.core = bamboo_machine::CoreId::new(1);
            }
        }
        let mut run = ThreadedExecutor::default()
            .start(&deploy, RunOptions::default())
            .unwrap();
        run.inject(Box::new(()));
        run.drain().unwrap();
        assert_eq!(run.shared.lock_table.classes.lock().1.len(), 2);
        let report = run.shutdown().unwrap();
        assert_eq!(report.invocations, 2 + 2 * ROUNDS as u64);
        for class in [l, r] {
            assert_eq!(report.payloads_of::<(i64, i64)>(class), [&(0, 0)]);
        }
    }

    #[test]
    fn try_payloads_of_reports_type_mismatch() {
        let deploy = deployment(fanout_setup(4, 1));
        let report = ThreadedExecutor::default()
            .run(&deploy, RunOptions::default())
            .unwrap();
        let acc_class = deploy.program.spec.class_by_name("Acc").unwrap();
        // The Acc payload is (i64, i64, i64), not String.
        let err = report.try_payloads_of::<String>(acc_class).unwrap_err();
        assert_eq!(err.class, acc_class);
        assert!(err.to_string().contains("String"), "{err}");
        // And the fallible accessor succeeds on the right type.
        let ok = report
            .try_payloads_of::<(i64, i64, i64)>(acc_class)
            .unwrap();
        assert_eq!(ok.len(), 1);
    }

    /// ≥ 8 producer instances hammering the sharded router from
    /// distinct cores at once, with stealing: the result must stay exact.
    #[test]
    fn sharded_router_stress_with_many_producers() {
        let deploy = deployment(fanout_setup(96, 8));
        assert!(
            deploy.layout.instances.len() >= 8,
            "need ≥ 8 producer instances, got {}",
            deploy.layout.instances.len()
        );
        let telemetry = Telemetry::enabled(8);
        let opts = RunOptions::default().with_telemetry(telemetry.clone());
        let report = ThreadedExecutor::default().run(&deploy, opts).unwrap();
        assert_eq!(report.invocations, 1 + 2 * 96);
        let acc_class = deploy.program.spec.class_by_name("Acc").unwrap();
        let expected: i64 = (0..96).map(|i| i * i).sum();
        assert_eq!(
            report.payloads_of::<(i64, i64, i64)>(acc_class)[0].0,
            expected
        );
        let t = telemetry.report();
        assert_eq!(t.metrics.counters["threaded.dispatches"], 1 + 2 * 96);
        assert_eq!(t.metrics.counters["threaded.steals"], report.steals);
    }

    /// A startup task that allocates nothing: the run must still reach
    /// quiescence through the event-driven protocol (one invocation,
    /// zero follow-on messages) rather than hanging in the condvar wait.
    #[test]
    fn quiescence_terminates_under_zero_allocation_startup() {
        use crate::program::{body, NativeBody};
        use bamboo_lang::builder::ProgramBuilder;
        use bamboo_lang::spec::FlagExpr;
        let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("noalloc");
        let s = b.class("StartupObject", &["initialstate"]);
        let init = b.flag(s, "initialstate");
        b.task("startup")
            .param("s", s, FlagExpr::flag(init))
            .exit("", |e| e.set(0, init, false))
            .body(body(|ctx| {
                ctx.charge(1);
                0
            }))
            .finish();
        let program = Program::from_native(b.build().unwrap());
        let locks = DisjointnessAnalysis::all_disjoint(&program.spec);
        let deploy = Deployment::single_core(&program, &locks);
        let start = std::time::Instant::now();
        let report = ThreadedExecutor::default()
            .run(&deploy, RunOptions::default())
            .unwrap();
        assert_eq!(report.invocations, 1);
        // No polling floor: even on a loaded machine this finishes far
        // below the old 600µs double-sleep (allow generous slack).
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    /// Stealing must not change results: the threaded run with stealing
    /// agrees with the deterministic virtual executor on the same
    /// deployment, run-to-run.
    #[test]
    fn steal_policy_is_result_deterministic_and_matches_virtual() {
        use crate::virtual_exec::{ExecConfig, VirtualExecutor};
        let (program, graph, layout, machine, locks) = fanout_setup(48, 6);
        let deploy = Deployment::new(program, graph, layout, locks);
        let acc_class = deploy.program.spec.class_by_name("Acc").unwrap();
        // Virtual reference over the same deployment artifact.
        let mut virt = VirtualExecutor::over(&deploy, &machine, ExecConfig::default());
        let vreport = virt.run(None).unwrap();
        let vacc = virt.store.live_of_class(acc_class)[0];
        let expected = virt.payload::<(i64, i64, i64)>(vacc).0;
        for round in 0..3 {
            let report = ThreadedExecutor::default()
                .run(&deploy, RunOptions::default())
                .unwrap();
            assert_eq!(report.invocations, vreport.invocations, "round {round}");
            assert_eq!(
                report.payloads_of::<(i64, i64, i64)>(acc_class)[0].0,
                expected,
                "round {round}"
            );
        }
    }

    /// Overhead guard: with `Telemetry::disabled()` the dispatch hot
    /// path must perform **zero** telemetry heap allocations — asserted
    /// through the telemetry allocation-counter hook, not wall clock.
    #[test]
    fn disabled_telemetry_allocates_nothing_under_contention() {
        let (program, graph, layout, _machine, locks) = fanout_setup(16, 4);
        let reduce = program.spec.task_by_name("reduce").unwrap();
        let locks = locks.with_shared(
            reduce,
            &[
                bamboo_lang::ids::ParamIdx::new(0),
                bamboo_lang::ids::ParamIdx::new(1),
            ],
        );
        let deploy = Deployment::new(program, graph, layout, locks);
        let telemetry = Telemetry::disabled();
        let report = ThreadedExecutor::default()
            .run(
                &deploy,
                RunOptions::default().with_telemetry(telemetry.clone()),
            )
            .unwrap();
        // Same correctness as the plain contention test…
        let acc_class = deploy.program.spec.class_by_name("Acc").unwrap();
        let accs = report.payloads_of::<(i64, i64, i64)>(acc_class);
        let expected: i64 = (0..16).map(|i| i * i).sum();
        assert_eq!(accs[0].0, expected);
        // …and not a single telemetry allocation across 33 invocations.
        assert_eq!(telemetry.heap_allocations(), 0);
        assert!(telemetry.report().events.is_empty());
    }

    /// Enabled telemetry allocates only at setup (rings + counter
    /// registrations): the count is independent of how many tasks run.
    #[test]
    fn enabled_telemetry_allocations_do_not_scale_with_tasks() {
        let allocs_for = |n: i64| {
            let deploy = deployment(fanout_setup(n, 2));
            let telemetry = Telemetry::enabled(2);
            telemetry.set_time_unit(TimeUnit::Nanos);
            ThreadedExecutor::default()
                .run(
                    &deploy,
                    RunOptions::default().with_telemetry(telemetry.clone()),
                )
                .unwrap();
            telemetry.heap_allocations()
        };
        let small = allocs_for(4);
        let large = allocs_for(32);
        assert!(small > 0);
        assert_eq!(small, large, "telemetry allocations must be setup-only");
    }

    #[test]
    fn threaded_run_records_dispatch_and_traffic_events() {
        use bamboo_telemetry::EventKind;
        let deploy = deployment(fanout_setup(12, 3));
        let telemetry = Telemetry::enabled(3);
        let report = ThreadedExecutor::default()
            .run(
                &deploy,
                RunOptions::default().with_telemetry(telemetry.clone()),
            )
            .unwrap();
        // 1 startup + 12 work + 12 reduce.
        assert_eq!(report.invocations, 25);
        let t = telemetry.report();
        assert_eq!(t.unit, TimeUnit::Nanos);
        assert_eq!(t.count(EventKind::TaskStart), 25);
        assert_eq!(t.count(EventKind::TaskEnd), 25);
        assert_eq!(t.count(EventKind::LockAcquired), 25);
        assert!(t.count(EventKind::ObjRecv) > 0);
        assert!(t.count(EventKind::QueueDepth) > 0);
        assert_eq!(t.metrics.counters["threaded.dispatches"], 25);
        // Timestamps are monotone within each core's event stream.
        for core in t.active_cores() {
            let ts: Vec<u64> = t.events_on(core).map(|e| e.ts).collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    /// A program whose request leaves a `Lone` object buffered in
    /// `pair`'s first slot on completion (no `Mate` is ever created),
    /// deployed on two cores with everything on core 0; returns it with
    /// `pair`'s instance.
    fn leftover_deployment() -> (Deployment, InstanceId) {
        let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("leftover");
        let s = b.class("StartupObject", &["initialstate"]);
        let init = b.flag(s, "initialstate");
        let lone = b.class("Lone", &["waiting"]);
        let waiting = b.flag(lone, "waiting");
        let mate = b.class("Mate", &["here"]);
        let here = b.flag(mate, "here");
        b.task("startup")
            .param("s", s, FlagExpr::flag(init))
            .alloc(lone, &[(waiting, true)], &[])
            .exit("", |e| e.set(0, init, false))
            .body(body(|ctx| {
                let request = *ctx.param::<u64>(0);
                ctx.create(0, request);
                0
            }))
            .finish();
        let pair = b
            .task("pair")
            .param("l", lone, FlagExpr::flag(waiting))
            .param("m", mate, FlagExpr::flag(here))
            .exit("", |e| e.set(0, waiting, false).set(1, here, false))
            .body(body(|_| 0))
            .finish();
        let program = Program::from_native(b.build().unwrap());
        let mut deploy =
            Deployment::single_core(&program, &DisjointnessAnalysis::all_disjoint(&program.spec));
        deploy.layout.core_count = 2;
        let group = deploy.graph.group_of_task(pair).expect("pair is grouped");
        let inst = deploy.layout.instances_of(group)[0];
        (deploy, inst)
    }

    /// The `Lone` payloads (request ids) among a run's finished objects.
    fn finished_lones(deploy: &Deployment, report: &ThreadedReport) -> Vec<u64> {
        let lone = deploy.program.spec.class_by_name("Lone").unwrap();
        let mut lones: Vec<u64> = report
            .payloads_of::<u64>(lone)
            .into_iter()
            .copied()
            .collect();
        lones.sort_unstable();
        lones
    }

    /// A completed request's buffered leftover never travels: the
    /// migration drain retires it to the graveyard, so the request
    /// completes once and the leftover is finished once. (Sent instead,
    /// its delivery would release a unit the ledger never counted.)
    #[test]
    fn migration_retires_a_completed_requests_leftover() {
        let (deploy, inst) = leftover_deployment();
        // Batch mode sweeps nothing on completion, so only the drain can
        // move the leftover.
        let mut run = ThreadedExecutor::default()
            .start_with(&deploy, RunOptions::default(), false)
            .unwrap();
        let shared = run.shared.clone();
        let completions = run.completions.clone();
        assert_eq!(run.inject(Box::new(1u64)), 1);
        run.drain().unwrap();
        // Request 1's `Lone` sits at `inst` on core 0. Moving `inst` to
        // core 1 makes core 0 drain it; shutdown queues behind the drain.
        run.relayout_handle().migrate(&[(inst, 1)]).unwrap();
        let report = run.shutdown().unwrap();
        assert_eq!(shared.ledger.outstanding(), 0);
        assert!(shared.ledger.is_empty());
        let done: Vec<(u64, u64)> = completions
            .try_iter()
            .map(|c| (c.request, c.invocations))
            .collect();
        assert_eq!(done, [(1, 1)], "request 1 completes exactly once");
        assert_eq!(report.relayouts, 1);
        assert_eq!(finished_lones(&deploy, &report), [1]);
    }

    /// A leftover of a request that is still open is re-sent counted
    /// against that request: the request completes only after the
    /// leftover's delivery and the holder's unit are both released.
    #[test]
    fn migration_drain_counts_an_open_requests_leftover() {
        let (deploy, inst) = leftover_deployment();
        let mut run = ThreadedExecutor::default()
            .start_with(&deploy, RunOptions::default(), false)
            .unwrap();
        let shared = run.shared.clone();
        run.relayout_handle().migrate(&[(inst, 1)]).unwrap();
        // The test holds a unit of request 2, standing in for an
        // invocation still running, and drains a buffered `Lone` of
        // request 2 itself, as core 0 would.
        shared.ledger.inc(2);
        let spec = shared.spec().clone();
        let table = shared.slot_table(inst);
        let mut sets = InstanceSets::default();
        let obj = Box::new(TObject {
            class: spec.class_by_name("Lone").unwrap(),
            flags: FlagSet::from_bits(1),
            tags: Vec::new(),
            payload: Box::new(2u64),
            lock: UNSHARED,
            producer: NO_ID,
            msg: NO_ID,
            src_core: NO_ID,
            request: 2,
            instance: inst,
        });
        let slot = table
            .accepting(obj.class, obj.flags)
            .next()
            .expect("pair takes a Lone");
        sets.push(table, slot, obj);
        let mut state = WorkerSets::new();
        state.hosted.insert(inst, sets);
        let mut sink = WorkerSink::disabled();
        migrate_drain(0, &shared, &mut state, inst, &mut sink);
        assert_eq!(run.outstanding(), 1, "request 2 is still open");
        shared.release(2, &mut sink);
        run.drain().unwrap();
        assert!(run.ledger_is_empty());
        let done: Vec<(u64, u64)> = run
            .try_completions()
            .iter()
            .map(|c| (c.request, c.invocations))
            .collect();
        assert_eq!(done, [(2, 0)]);
        let report = run.shutdown().unwrap();
        assert_eq!(finished_lones(&deploy, &report), [2]);
    }
}
