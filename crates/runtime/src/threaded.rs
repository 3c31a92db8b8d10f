//! The threaded executor: real OS threads, real locks.
//!
//! One thread per core of the layout runs one `CoreState` (see
//! `worker.rs`) over this module's `Port`, the run's shared state.
//! Objects are owned by messages: a worker holds the objects buffered in
//! its parameter sets and forwards objects to other workers over
//! channels, as the paper's runtime sends objects between tiles (§4.7);
//! an object bound for the executing core skips the channel. Holding an
//! object's `Box` is exclusive access to it, so an invocation locks only
//! the parameters the disjointness analysis found may share heap, in
//! lock classes merged by [`bamboo_analysis::LockPlan`] groups. A worker
//! *try-locks* them in sorted order; on failure it releases everything
//! and tries another invocation — Bamboo's transactional task semantics,
//! with no aborts and no rollback.
//!
//! The hot path (DESIGN.md "The threaded hot path") routes through one
//! immutable [`bamboo_schedule::RouteTable`] with per-instance atomic
//! round-robin counters, steals formed invocations between cores that
//! host the same group (replicas are interchangeable), and detects
//! quiescence through the [`RequestLedger`] and a condvar, not polling.
//! Performance numbers come from the virtual-time executor (DESIGN.md
//! §2: the host's core count is unrelated to the modeled TILEPro64).

use crate::adapt::RelayoutError;
use crate::chaos::Liveness;
use crate::deploy::{Deployment, RunOptions};
use crate::ledger::{Completion, RequestLedger};
use crate::program::NativePayload;
use crate::virtual_exec::ExecError;
use crate::worker::{self, CoreState, Fact, Full, Message, PendingInv, Plan, Port, TObject};
use bamboo_analysis::UnionFind;
use bamboo_lang::ids::ClassId;
use bamboo_lang::interp::TagInstance;
use bamboo_lang::spec::ProgramSpec;
use bamboo_profile::Cycles;
use bamboo_schedule::{GroupGraph, InstanceId, Layout};
use bamboo_telemetry::analyze::LiveEstimator;
use bamboo_telemetry::{Counter, TimeUnit, WorkerSink};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

/// Lock classes: the union-find over class ids and one mutex per id,
/// under one table mutex (an all-disjoint program never touches it).
type LockTable = Mutex<(UnionFind, Vec<Arc<Mutex<()>>>)>;

/// The held lock classes of one invocation.
type LockGuards = Vec<parking_lot::ArcMutexGuard<parking_lot::RawMutex, ()>>;

/// One core's run queue, in dispatch order: oldest request first, FIFO
/// within a request (see [`Port::push_ready`]). It counts its entries
/// per group, so a thief that hosts none of the queued groups learns so
/// in O(groups) instead of scanning the queue under the owner's lock.
struct RunQueue {
    entries: VecDeque<PendingInv>,
    /// Queued entries of each group; kept by every insert and removal.
    per_group: Vec<usize>,
}

impl RunQueue {
    fn new(groups: usize) -> Self {
        RunQueue {
            entries: VecDeque::new(),
            per_group: vec![0; groups],
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn iter(&self) -> impl Iterator<Item = &PendingInv> {
        self.entries.iter()
    }

    /// Below `bound` entries, inserts `inv` (of `group`) behind every
    /// entry of the same or an older request and returns the depth it
    /// found; at `bound`, hands it back with that depth.
    fn push(&mut self, inv: PendingInv, group: usize, bound: usize) -> Result<usize, Full> {
        let depth = self.entries.len();
        if depth >= bound {
            return Err((inv, depth));
        }
        // Request ids rise with admission. One request, as in a batch
        // run, always appends.
        let at = self
            .entries
            .partition_point(|queued| queued.request <= inv.request);
        self.entries.insert(at, inv);
        self.per_group[group] += 1;
        self.check();
        Ok(depth)
    }

    /// Takes the front entry: the oldest open request's oldest.
    fn pop(&mut self, group_of: impl Fn(&PendingInv) -> usize) -> Option<PendingInv> {
        let inv = self.entries.pop_front()?;
        self.per_group[group_of(&inv)] -= 1;
        self.check();
        Some(inv)
    }

    /// Takes the rearmost entry of a group in `hosts` (a thief's
    /// [`Plan::hosted`] row), the newest request's; `None` without a
    /// scan when no such group has an entry queued.
    fn steal(
        &mut self,
        hosts: &[bool],
        group_of: impl Fn(&PendingInv) -> usize,
    ) -> Option<PendingInv> {
        let mut counts = self.per_group.iter().zip(hosts);
        if !counts.any(|(&queued, &hosted)| hosted && queued > 0) {
            return None;
        }
        let at = self.entries.iter().rposition(|inv| hosts[group_of(inv)])?;
        let inv = self.entries.remove(at)?;
        self.per_group[group_of(&inv)] -= 1;
        self.check();
        Some(inv)
    }

    fn check(&self) {
        debug_assert_eq!(
            self.per_group.iter().sum::<usize>(),
            self.entries.len(),
            "run-queue group counts drifted from its length"
        );
    }
}

/// The run's shared state: what [`Port`] reads and writes for the
/// threaded cores and the driver.
pub(crate) struct Shared {
    plan: Plan,
    /// Live instance→core assignment; a relayout batch (serialised by
    /// `relayout_lock`) bumps `epoch` once.
    assignment: Vec<AtomicUsize>,
    epoch: AtomicU64,
    relayout_lock: Mutex<()>,
    /// Feeds the adaptive controller (`None` without an
    /// [`AdaptPolicy`](crate::AdaptPolicy)).
    estimator: Option<Arc<LiveEstimator>>,
    lock_table: LockTable,
    /// Round-robin counters per `(instance, task)` and `(instance, alloc
    /// site)`: they belong to instances, so a thief advances the victim
    /// instance's counter and a migrated instance keeps its own.
    flow_rr: Vec<AtomicUsize>,
    site_rr: Vec<AtomicUsize>,
    liveness: Liveness,
    /// The driver's quiescence wait; notified under the lock.
    quiesce: StdMutex<()>,
    quiesce_cv: Condvar,
    /// The one count of outstanding work (see [`RequestLedger`]).
    pub(crate) ledger: RequestLedger,
    body_cycles: AtomicU64,
    /// Id mints (ids start at 1, so `NO_ID` stays unambiguous).
    next_tag: AtomicU64,
    next_inv: AtomicU64,
    next_msg: AtomicU64,
    /// One cell per [`Fact`]: the report's and the telemetry counter's.
    tallies: [Counter; Fact::NAMES.len()],
    /// Mailboxes. Both ends live here, so a send never fails.
    senders: Vec<Sender<Message>>,
    receivers: Vec<Receiver<Message>>,
    /// Run queues, oldest request first (see `push_ready`): owners pop
    /// the front, thieves take the back.
    ready: Vec<Mutex<RunQueue>>,
    /// Whether each worker is parked (a poke swaps it off to decide).
    idle: Vec<AtomicBool>,
    /// Objects that left dispatch, for result extraction.
    graveyard: Sender<Box<TObject>>,
    /// The first unrecoverable fault; recording it wakes the driver.
    failure: StdMutex<Option<ExecError>>,
}

impl Shared {
    /// The shared state of a run of `deployment`, with the graveyard's
    /// and the ledger's receiving ends.
    pub(crate) fn new(
        deployment: &Deployment,
        options: &RunOptions,
        sweep_on_complete: bool,
    ) -> (Self, Receiver<Box<TObject>>, Receiver<Completion>) {
        let plan = Plan::new(deployment, options.faults.as_ref(), sweep_on_complete);
        let cores = plan.cores();
        let (senders, receivers) = (0..cores).map(|_| unbounded::<Message>()).unzip();
        let (graveyard, grave_rx) = unbounded();
        let (ledger, completions) = RequestLedger::new();
        let (flows, sites) = plan.routes.counter_lens(plan.layout.instances.len());
        let counters = |n: usize| (0..n).map(|_| AtomicUsize::new(0)).collect();
        let telemetry = &options.telemetry;
        let shared = Shared {
            assignment: plan
                .layout
                .instances
                .iter()
                .map(|inst| AtomicUsize::new(inst.core.index()))
                .collect(),
            epoch: AtomicU64::new(0),
            relayout_lock: Mutex::new(()),
            estimator: options
                .adapt
                .as_ref()
                .map(|_| Arc::new(LiveEstimator::new(plan.spec()))),
            lock_table: Mutex::new((UnionFind::new(0), Vec::new())),
            flow_rr: counters(flows),
            site_rr: counters(sites),
            liveness: Liveness::new(cores),
            quiesce: StdMutex::new(()),
            quiesce_cv: Condvar::new(),
            ledger,
            body_cycles: AtomicU64::new(0),
            next_tag: AtomicU64::new(0),
            next_inv: AtomicU64::new(0),
            next_msg: AtomicU64::new(0),
            tallies: Fact::NAMES.map(|name| match name {
                // No report field reads it: a no-op without telemetry.
                "threaded.bytes_sent" => telemetry.counter(name),
                _ => telemetry.tally(name),
            }),
            senders,
            receivers,
            ready: (0..cores)
                .map(|_| Mutex::new(RunQueue::new(plan.graph.groups.len())))
                .collect(),
            idle: (0..cores).map(|_| AtomicBool::new(false)).collect(),
            graveyard,
            failure: StdMutex::new(None),
            plan,
        };
        (shared, grave_rx, completions)
    }

    fn tally(&self, fact: Fact) -> u64 {
        self.tallies[fact as usize].get()
    }

    /// The live layout artifact: the synthesis layout's group topology
    /// with every instance's core overwritten from the assignment
    /// table. This is what epoch `n` actually routes with.
    fn current_layout(&self) -> Layout {
        let mut layout = self.plan.layout.clone();
        for (i, inst) in layout.instances.iter_mut().enumerate() {
            inst.core = bamboo_machine::CoreId::new(self.assignment[i].load(Ordering::Acquire));
        }
        layout
    }

    /// The first unrecoverable fault, if one has been recorded.
    pub(crate) fn failure(&self) -> Option<ExecError> {
        self.failure.lock().expect("failure mutex").clone()
    }
}

impl Port for Shared {
    type Guards = LockGuards;

    fn plan(&self) -> &Plan {
        &self.plan
    }

    fn count(&self, fact: Fact, n: u64) {
        self.tallies[fact as usize].add(n);
    }

    fn add_cycles(&self, cycles: u64) {
        self.body_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    fn estimator(&self) -> Option<&LiveEstimator> {
        self.estimator.as_deref()
    }

    fn send(&self, core: usize, msg: Message) {
        let _ = self.senders[core].send(msg);
    }

    fn try_recv(&self, core: usize) -> Option<Message> {
        self.receivers[core].try_recv().ok()
    }

    fn park(&self, core: usize, timeout: Option<Duration>) -> Option<Message> {
        let rx = &self.receivers[core];
        match timeout {
            None => rx.recv().ok(),
            Some(timeout) => rx.recv_timeout(timeout).ok(),
        }
    }

    fn mailbox_len(&self, core: usize) -> usize {
        self.senders[core].len()
    }

    fn push_ready(&self, core: usize, inv: PendingInv, bound: usize) -> Result<usize, Full> {
        let group = self.plan.group_of_instance(inv.instance);
        self.ready[core].lock().push(inv, group, bound)
    }

    fn pop_ready(&self, core: usize) -> Option<PendingInv> {
        self.ready[core]
            .lock()
            .pop(|inv| self.plan.group_of_instance(inv.instance))
    }

    fn steal_from(&self, victim: usize, thief: usize) -> Option<PendingInv> {
        // A contended victim queue is being worked; move on rather than
        // serialize behind it.
        let mut queue = self.ready[victim].try_lock()?;
        let plan = &self.plan;
        queue.steal(&plan.hosted[thief], |inv| {
            plan.group_of_instance(inv.instance)
        })
    }

    fn ready_len(&self, core: usize) -> usize {
        self.ready[core].lock().len()
    }

    fn ready_any(&self, core: usize, pred: impl Fn(&PendingInv) -> bool) -> bool {
        self.ready[core].lock().iter().any(pred)
    }

    fn inc(&self, request: u64) {
        self.ledger.inc(request);
    }

    fn inc_if_open(&self, request: u64) -> bool {
        self.ledger.inc_if_open(request)
    }

    fn dec(&self, request: u64) -> Option<Completion> {
        self.ledger.dec(request)
    }

    fn finish(&self, request: u64) -> Option<Completion> {
        self.ledger.finish_invocation(request)
    }

    fn outstanding(&self) -> usize {
        self.ledger.outstanding()
    }

    fn try_lock_all(&self, ids: &[usize]) -> Option<LockGuards> {
        if ids.is_empty() {
            return Some(Vec::new());
        }
        let mut classes = self.lock_table.lock();
        let (uf, mutexes) = &mut *classes;
        let mut reps: Vec<usize> = ids.iter().map(|&i| uf.find(i)).collect();
        reps.sort_unstable();
        reps.dedup();
        reps.iter().map(|&r| mutexes[r].try_lock_arc()).collect()
    }

    fn fresh_lock(&self) -> usize {
        let mut classes = self.lock_table.lock();
        classes.1.push(Arc::new(Mutex::new(())));
        classes.0.push()
    }

    fn merge_locks(&self, a: usize, b: usize) {
        self.lock_table.lock().0.union(a, b);
    }

    fn core_of(&self, inst: InstanceId) -> usize {
        self.assignment[inst.index()].load(Ordering::Acquire)
    }

    fn assign(&self, inst: InstanceId, core: usize) -> Vec<u64> {
        let cell = &self.assignment[inst.index()];
        self.ledger
            .hold_open(|| cell.store(core, Ordering::Release))
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn is_dead(&self, core: usize) -> bool {
        self.liveness.is_dead(core)
    }

    fn mark_dead(&self, core: usize) -> Vec<u64> {
        self.ledger.hold_open(|| self.liveness.mark_dead(core))
    }

    fn mint_inv(&self) -> u64 {
        self.next_inv.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn mint_msg(&self) -> u64 {
        self.next_msg.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn mint_tag(&self) -> TagInstance {
        TagInstance(self.next_tag.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn next_flow(&self, at: usize) -> usize {
        self.flow_rr[at].fetch_add(1, Ordering::Relaxed)
    }

    fn next_site(&self, at: usize) -> usize {
        self.site_rr[at].fetch_add(1, Ordering::Relaxed)
    }

    fn bury(&self, obj: Box<TObject>) {
        let _ = self.graveyard.send(obj);
    }

    fn fail(&self, err: ExecError) {
        // First error wins.
        self.failure
            .lock()
            .expect("failure mutex")
            .get_or_insert(err);
        self.wake_driver();
    }

    fn failed(&self) -> bool {
        self.failure.lock().expect("failure mutex").is_some()
    }

    fn wake_driver(&self) {
        let _guard = self.quiesce.lock().expect("quiescence mutex");
        self.quiesce_cv.notify_all();
    }

    fn swap_idle(&self, core: usize, idle: bool) -> bool {
        self.idle[core].swap(idle, Ordering::SeqCst)
    }

    fn pause(&self, pause: Duration) {
        if pause.is_zero() {
            std::thread::yield_now();
        } else {
            std::thread::sleep(pause);
        }
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
    /// Invocations executed across all workers. Equals the
    /// `threaded.dispatches` counter.
    pub invocations: u64,
    /// Total body cycles charged.
    pub body_cycles: Cycles,
    /// Invocations executed by a core other than the one that formed
    /// them (work stealing). Equals the `threaded.steals` counter.
    pub steals: u64,
    /// Failed try-lock-all attempts across the run. Equals the
    /// `threaded.lock_retries` counter.
    pub lock_retries: u64,
    /// Always 0: routing takes no lock. Kept only until the benchmark
    /// stops reading it, then deleted.
    #[doc(hidden)]
    pub router_contention: u64,
    /// Invocations shed off their forming core's full run queue to a
    /// same-group peer (`enqueue_ready`'s overflow path). Zero in any
    /// clean under-capacity run. Equals the `router.shed` counter.
    pub router_shed: u64,
    /// Final objects' class and payload, for result extraction.
    pub finished: Vec<(ClassId, NativePayload)>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Injected faults that fired during the run (kills, stalls, drops,
    /// delays, lock slowdowns). Zero on fault-free runs. Equals the
    /// `chaos.faults` counter.
    pub faults_injected: u64,
    /// Recovery actions completed (redeliveries, reroutes, failover
    /// drains). Equals the `chaos.recoveries` counter.
    pub recovery_actions: u64,
    /// Instances migrated by hot relayouts during the run. Zero unless
    /// an adaptive controller committed at least one relayout. Equals
    /// the `relayout.migrations` counter.
    pub relayouts: u64,
    /// The layout epoch at shutdown (0 = the synthesized layout ran
    /// unchanged; each committed relayout batch bumps it once).
    pub layout_epoch: u64,
    /// Rendered fault schedule of the run's compiled plan (`None` on
    /// fault-free runs). Byte-identical for identical
    /// [`crate::chaos::FaultSpec`] + deployment topology — the
    /// determinism contract `tests/chaos.rs` checks.
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
    /// With an enabled [`bamboo_telemetry::Telemetry`] session the run records dispatch,
    /// contention, traffic, and channel-occupancy events (timestamps in
    /// nanoseconds since the session's creation) plus the
    /// `threaded.steals` / `threaded.lock_retries` counters. With
    /// [`bamboo_telemetry::Telemetry::disabled`] every recording site is a no-op and the
    /// dispatch hot path performs no telemetry allocations.
    ///
    /// With [`RunOptions::with_faults`] the run compiles the spec into a
    /// deterministic [`crate::FaultPlan`] and injects it: core kills, stalls,
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
        if !deployment.program.is_native() {
            return Err(ExecError::NativeOnly);
        }
        let telemetry = &options.telemetry;
        telemetry.set_time_unit(TimeUnit::Nanos);
        let start = std::time::Instant::now();
        let (shared, grave_rx, completions) = Shared::new(deployment, &options, sweep_on_complete);
        let shared = Arc::new(shared);
        let core_count = shared.plan.cores();
        let handles = (0..core_count)
            .map(|core| {
                let (shared, sink) = (shared.clone(), telemetry.worker(core));
                std::thread::spawn(move || CoreState::new(core, sink).work(&*shared))
            })
            .collect();

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
}

impl ResidentRun {
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
        let mut ids = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let request = self.next_request;
            self.next_request += 1;
            let ts = self.driver_sink.now();
            self.driver_sink.req_admit(ts, request, batch);
            worker::inject(&*self.shared, payload, request, &mut self.driver_sink);
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

    /// A cloneable handle onto the live run: the one reader of its
    /// current layout and epoch, and the adaptive controller's way to
    /// commit hot relayouts against it.
    pub fn relayout_handle(&self) -> RelayoutHandle {
        RelayoutHandle {
            shared: self.shared.clone(),
        }
    }

    /// The first unrecoverable fault, if one has been recorded.
    pub fn failure(&self) -> Option<ExecError> {
        self.shared.failure()
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
        for core in 0..shared.plan.cores() {
            shared.send(core, Message::Shutdown);
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
            invocations: shared.tally(Fact::Dispatches),
            body_cycles: shared.body_cycles.load(Ordering::SeqCst),
            steals: shared.tally(Fact::Steals),
            lock_retries: shared.tally(Fact::LockRetries),
            router_contention: 0,
            router_shed: shared.tally(Fact::Sheds),
            finished,
            wall: self.start.elapsed(),
            faults_injected: shared.tally(Fact::Faults),
            recovery_actions: shared.tally(Fact::Recoveries),
            relayouts: shared.tally(Fact::Migrations),
            layout_epoch: shared.epoch.load(Ordering::SeqCst),
            fault_schedule: shared.plan.chaos.as_ref().map(|p| p.schedule().to_string()),
        })
    }
}

/// A cloneable handle onto a live resident run: the only reader of its
/// live layout and epoch, and the way the adaptive controller (or a
/// test) commits hot relayouts. Obtained from
/// [`ResidentRun::relayout_handle`]. Reads stay valid after the run
/// shuts down and give its final layout and epoch; commits against a
/// shut-down run are harmless (no worker reads the drain messages, and
/// the final graveyard drain already collected every buffered object).
#[derive(Clone)]
pub struct RelayoutHandle {
    shared: Arc<Shared>,
}

impl RelayoutHandle {
    /// The running program's spec.
    pub fn spec(&self) -> &ProgramSpec {
        self.shared.plan.spec()
    }

    /// The deployment's group graph.
    pub fn graph(&self) -> &GroupGraph {
        &self.shared.plan.graph
    }

    /// The live layout (synthesis topology + current assignment).
    pub fn current_layout(&self) -> Layout {
        self.shared.current_layout()
    }

    /// The current layout epoch (0 until the first relayout commits;
    /// bumped once per committed relayout batch).
    pub fn layout_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Whether `core` was killed by fault injection.
    pub fn is_core_dead(&self, core: usize) -> bool {
        self.shared.liveness.is_dead(core)
    }

    /// The run's live profile estimator (`None` unless the run was
    /// started with an [`AdaptPolicy`](crate::AdaptPolicy)).
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
    /// buffered objects to its new host. Requests in flight are never
    /// lost or double-counted: the drain holds a ledger unit of every
    /// request open at the switch, so none completes before its
    /// leftovers reach the new host, and a request already complete has
    /// its leftover retired to the result graveyard (see
    /// [`RequestLedger::inc_if_open`]).
    ///
    /// Returns the epoch the batch committed as (the pre-commit epoch
    /// when every move was already in place).
    ///
    /// # Errors
    ///
    /// [`RelayoutError::UnknownInstance`] / [`RelayoutError::UnknownCore`]
    /// for out-of-range ids, [`RelayoutError::DeadCore`] when a
    /// destination, or a moved instance's current host, was killed by
    /// fault injection.
    pub fn migrate(&self, moves: &[(InstanceId, usize)]) -> Result<u64, RelayoutError> {
        let _commit = self.shared.relayout_lock.lock();
        worker::migrate(&*self.shared, moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{body, NativeBody, Program};
    use crate::virtual_exec::tests_support::fanout_setup;
    use crate::worker::{Bucket, InstanceSets, TagEnv, WorkerSets, UNSHARED};
    use bamboo_analysis::DisjointnessAnalysis;
    use bamboo_lang::builder::ProgramBuilder;
    use bamboo_lang::ids::{FlagId, ParamIdx, TagTypeId, TaskId};
    use bamboo_lang::spec::{FlagExpr, FlagSet};
    use bamboo_schedule::formation::SlotTable;
    use bamboo_telemetry::{Telemetry, NO_ID};

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
        let mut state = WorkerSets {
            hosted: (0..).map(InstanceId).zip(insts).collect(),
        };
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
        let mut buried: Vec<usize> = state.sweep(2).map(|o| o.lock).collect();
        before.retain(|(request, _)| *request != 2);
        assert_eq!(snapshot(&state), before);
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
            let candidates: u64 = insts.iter().map(|sets| sets.candidates).sum();
            candidates as f64 / (2 * burst) as f64
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
        let deploy = crate::deploy::bootstrap(program, locks);
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
        assert!(run.shared.lock_table.lock().1.is_empty());
        assert_eq!(run.shutdown().unwrap().lock_retries, 0);

        // Classes are allocated when sharing first happens and exclude
        // from then on: `pair` merges an `L` and an `R`, after which
        // `left` (core 0) and `right` (core 1) each run `ROUNDS` times on
        // one of them. Every body holds `busy` across a sleep and counts
        // the times it found it already held.
        const ROUNDS: i64 = 12;
        let (deploy, [l, r]) = crate::explore::shared_pair(ROUNDS);
        let mut run = ThreadedExecutor::default()
            .start(&deploy, RunOptions::default())
            .unwrap();
        run.inject(Box::new(()));
        run.drain().unwrap();
        assert_eq!(run.shared.lock_table.lock().1.len(), 2);
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
        // Recoverable wire faults, so the chaos counters move too.
        let faults = crate::chaos::FaultSpec::seeded(3)
            .with_drops(50)
            .with_delays(50, Duration::from_micros(20));
        let opts = RunOptions::default()
            .with_telemetry(telemetry.clone())
            .with_faults(faults);
        let report = ThreadedExecutor::default().run(&deploy, opts).unwrap();
        assert_eq!(report.invocations, 1 + 2 * 96);
        assert!(report.faults_injected > 0 && report.recovery_actions > 0);
        let acc_class = deploy.program.spec.class_by_name("Acc").unwrap();
        let expected: i64 = (0..96).map(|i| i * i).sum();
        assert_eq!(
            report.payloads_of::<(i64, i64, i64)>(acc_class)[0].0,
            expected
        );
        let t = telemetry.report();
        assert_eq!(t.metrics.counters["threaded.dispatches"], 1 + 2 * 96);
        // One cell per fact: each report field reads its named counter.
        for (name, field) in [
            ("threaded.dispatches", report.invocations),
            ("threaded.steals", report.steals),
            ("threaded.lock_retries", report.lock_retries),
            ("router.shed", report.router_shed),
            ("chaos.faults", report.faults_injected),
            ("chaos.recoveries", report.recovery_actions),
            ("relayout.migrations", report.relayouts),
        ] {
            assert_eq!(t.metrics.counters[name], field, "{name}");
        }
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
        let deploy = crate::deploy::bootstrap(program, locks);
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

    // ---- run-queue order --------------------------------------------------

    /// A run queue dispatches oldest request first, then FIFO within a
    /// request, whatever order its entries arrive in; a thief takes the
    /// newest request's rearmost eligible entry.
    #[test]
    fn run_queue_dispatches_oldest_request_first() {
        let deploy = deployment(fanout_setup(4, 2));
        let (shared, _graves, _completions) = Shared::new(&deploy, &RunOptions::default(), true);
        let instance_of = |task: &str| {
            let task = deploy.program.spec.task_by_name(task).unwrap();
            let group = deploy.graph.group_of_task(task).unwrap();
            deploy.layout.instances_of(group)[0]
        };
        let (work, reduce) = (instance_of("work"), instance_of("reduce"));
        // (id, request, instance): request 1 arrives after 3 and 5.
        let pushes = [
            (1, 5, work),
            (2, 3, work),
            (3, 5, work),
            (4, 3, reduce),
            (5, 1, work),
            (6, 7, reduce),
            (7, 3, work),
        ];
        for (depth, (id, request, instance)) in pushes.into_iter().enumerate() {
            let pushed = shared.push_ready(0, PendingInv::stub(id, instance, request), usize::MAX);
            assert_eq!(pushed.ok(), Some(depth));
        }
        // Core 1 hosts `work`, not `reduce`: request 7's one entry is
        // ineligible, so request 5's rear goes.
        let stolen = shared.steal_from(0, 1).unwrap();
        assert_eq!((stolen.id, stolen.request), (3, 5));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| shared.pop_ready(0))
            .map(|inv| (inv.id, inv.request))
            .collect();
        assert_eq!(order, [(5, 1), (2, 3), (4, 3), (7, 3), (1, 5), (6, 7)]);
    }

    /// A victim queue of entries the thief may not run, with one it may
    /// at the front: the steal finds that one, the next misses, and the
    /// victim's own order is untouched.
    #[test]
    fn steal_skips_a_queue_of_unhosted_groups() {
        let deploy = deployment(fanout_setup(4, 2));
        let (shared, _graves, _completions) = Shared::new(&deploy, &RunOptions::default(), true);
        let instance_of = |task: &str| {
            let task = deploy.program.spec.task_by_name(task).unwrap();
            let group = deploy.graph.group_of_task(task).unwrap();
            deploy.layout.instances_of(group)[0]
        };
        let (work, reduce) = (instance_of("work"), instance_of("reduce"));
        let push = |inv| assert!(shared.push_ready(0, inv, usize::MAX).is_ok());
        push(PendingInv::stub(1, work, 1));
        for id in 2..=200 {
            push(PendingInv::stub(id, reduce, 1 + id / 50));
        }
        let stolen = shared
            .steal_from(0, 1)
            .expect("the front entry is eligible");
        assert_eq!((stolen.id, stolen.instance), (1, work));
        assert!(shared.steal_from(0, 1).is_none());
        let left: Vec<u64> = std::iter::from_fn(|| shared.pop_ready(0))
            .map(|inv| inv.id)
            .collect();
        assert_eq!(left, (2..=200).collect::<Vec<u64>>());
    }

    /// The steal the group counts replaced, kept as the reference: a
    /// plain deque, the same insert, and a scan of the whole queue.
    #[derive(Default)]
    struct RefQueue(VecDeque<PendingInv>);

    impl RefQueue {
        fn push(&mut self, inv: PendingInv, bound: usize) -> Result<usize, Full> {
            let depth = self.0.len();
            if depth >= bound {
                return Err((inv, depth));
            }
            let at = self
                .0
                .partition_point(|queued| queued.request <= inv.request);
            self.0.insert(at, inv);
            Ok(depth)
        }

        fn steal(&mut self, eligible: impl Fn(&PendingInv) -> bool) -> Option<PendingInv> {
            let idx = self.0.iter().rposition(eligible)?;
            self.0.remove(idx)
        }
    }

    /// A popped or stolen entry, as the oracle test compares it.
    fn brief(inv: &Option<PendingInv>) -> Option<(u64, u64)> {
        inv.as_ref().map(|inv| (inv.id, inv.request))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        /// Random pushes, pops, steals and lock retries over a random
        /// hosting of six instances in up to four groups by four thieves:
        /// the counted queue gives the full-scan reference's results in
        /// the reference's order, and its counts always equal a recount.
        #[test]
        fn counted_run_queue_matches_full_scan_reference(
            groups in 1usize..5,
            instance_groups in proptest::collection::vec(0usize..4, 6..7),
            host_masks in proptest::collection::vec(0u8..16, 4..5),
            // (op, instance or thief, request, bound): op 0-3 pushes,
            // 4-5 pops, 6-8 steals, 9 retries (pop, then push back).
            ops in proptest::collection::vec((0u8..10, 0usize..6, 1u64..6, 1usize..40), 0..160),
        ) {
            let group_of_instance: Vec<usize> =
                instance_groups.iter().map(|g| g % groups).collect();
            let group_of = |inv: &PendingInv| group_of_instance[inv.instance.index()];
            let hosts: Vec<Vec<bool>> = host_masks
                .iter()
                .map(|mask| (0..groups).map(|g| mask >> g & 1 == 1).collect())
                .collect();
            let (mut counted, mut reference) = (RunQueue::new(groups), RefQueue::default());
            for (id, (op, at, request, bound)) in (1u64..).zip(ops) {
                match op {
                    0..=3 => {
                        let inv = || PendingInv::stub(id, InstanceId(at as u32), request);
                        let ours = counted.push(inv(), group_of_instance[at], bound);
                        let theirs = reference.push(inv(), bound);
                        let full = |res: Result<usize, Full>| res.map_err(|(inv, n)| (inv.id, n));
                        proptest::prop_assert_eq!(full(ours), full(theirs));
                    }
                    4..=5 => {
                        let ours = counted.pop(group_of);
                        proptest::prop_assert_eq!(brief(&ours), brief(&reference.0.pop_front()));
                    }
                    6..=8 => {
                        let hosts = &hosts[at % 4];
                        let ours = counted.steal(hosts, group_of);
                        let theirs = reference.steal(|inv| hosts[group_of(inv)]);
                        proptest::prop_assert_eq!(brief(&ours), brief(&theirs));
                    }
                    _ => {
                        let (ours, theirs) = (counted.pop(group_of), reference.0.pop_front());
                        proptest::prop_assert_eq!(brief(&ours), brief(&theirs));
                        if let (Some(ours), Some(theirs)) = (ours, theirs) {
                            let group = group_of(&ours);
                            proptest::prop_assert!(counted.push(ours, group, usize::MAX).is_ok());
                            proptest::prop_assert!(reference.push(theirs, usize::MAX).is_ok());
                        }
                    }
                }
                let mut recount = vec![0; groups];
                for inv in counted.iter() {
                    recount[group_of(inv)] += 1;
                }
                proptest::prop_assert_eq!(&counted.per_group, &recount);
                let ids: Vec<u64> = counted.iter().map(|inv| inv.id).collect();
                let expected: Vec<u64> = reference.0.iter().map(|inv| inv.id).collect();
                proptest::prop_assert_eq!(ids, expected);
            }
        }
    }

    /// End to end on one core: a burst of requests injected at once
    /// drains in arrival order — no invocation starts while one of an
    /// older request sits queued.
    #[test]
    fn one_core_backlog_drains_oldest_request_first() {
        use bamboo_telemetry::event::unpack_inv_request;
        use bamboo_telemetry::EventKind;
        use std::collections::{BTreeMap, HashMap};
        const REQUESTS: u64 = 24;
        let deploy = deployment(fanout_setup(4, 1));
        let telemetry = Telemetry::enabled(2);
        let mut run = ThreadedExecutor::default()
            .start(
                &deploy,
                RunOptions::default().with_telemetry(telemetry.clone()),
            )
            .unwrap();
        let payloads = (0..REQUESTS).map(|_| Box::new(()) as NativePayload);
        run.inject_batch(payloads.collect());
        run.shutdown().unwrap();
        let t = telemetry.report();
        let mut request_of = HashMap::new();
        let mut queued: BTreeMap<u64, u64> = BTreeMap::new();
        let mut starts = 0;
        for e in t.events_on(0) {
            match e.kind {
                EventKind::InvQueued => {
                    let (_, request) = unpack_inv_request(e.b);
                    request_of.insert(e.a, request);
                    *queued.entry(request).or_default() += 1;
                }
                EventKind::TaskStart => {
                    let request = request_of[&e.c];
                    let oldest = *queued.keys().next().expect("started a queued invocation");
                    assert_eq!(
                        oldest, request,
                        "invocation {} of request {request} started with request {oldest} queued",
                        e.c
                    );
                    let left = queued.get_mut(&request).expect("queued");
                    *left -= 1;
                    if *left == 0 {
                        queued.remove(&request);
                    }
                    starts += 1;
                }
                _ => {}
            }
        }
        // 1 startup + 4 work + 4 reduce per request.
        assert_eq!(starts, REQUESTS * 9);
        assert!(queued.is_empty());
    }

    /// A kill after a migration: `reduce`'s lone instance moves to core
    /// 1, then core 1 dies after two dispatches. `reduce` has no live
    /// instance left, so the run fails with `CoreLost` — it must not
    /// bounce the accumulator between core 0 (which no longer hosts
    /// `reduce`) and the dead core forever. Waits with a timeout, never
    /// with `drain`, so a livelock fails the test instead of hanging it.
    #[test]
    fn kill_after_migration_fails_typed_instead_of_livelocking() {
        use crate::chaos::{FaultSpec, KillTarget};
        let deploy = deployment(fanout_setup(16, 2));
        let reduce = deploy.program.spec.task_by_name("reduce").unwrap();
        let group = deploy.graph.group_of_task(reduce).unwrap();
        let inst = deploy.layout.instances_of(group)[0];
        let faults = FaultSpec::seeded(1).with_kill(KillTarget::Core(1), 2);
        let mut run = ThreadedExecutor::default()
            .start(&deploy, RunOptions::default().with_faults(faults))
            .unwrap();
        run.relayout_handle().migrate(&[(inst, 1)]).unwrap();
        run.inject(Box::new(()));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while run.failure().is_none() && std::time::Instant::now() < deadline {
            if run.next_completion(Duration::from_millis(20)).is_some() {
                break;
            }
        }
        assert_eq!(
            run.failure(),
            Some(ExecError::CoreLost { core: 1 }),
            "{} requests still open",
            run.outstanding()
        );
        assert_eq!(run.shutdown().unwrap_err(), ExecError::CoreLost { core: 1 });
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
        let locks = DisjointnessAnalysis::all_disjoint(&program.spec);
        let mut deploy = crate::deploy::bootstrap(program, locks);
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
        let spec = shared.plan.spec();
        let table = shared.plan.slot_table(inst);
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
        let mut core = CoreState::new(0, WorkerSink::disabled());
        core.sets.hosted.insert(inst, sets);
        core.migrate_drain(&*shared, inst);
        assert_eq!(run.outstanding(), 1, "request 2 is still open");
        worker::release(&*shared, 2, &mut WorkerSink::disabled());
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
