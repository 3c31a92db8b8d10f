//! A seeded interleaving explorer for the threaded executor's cores.
//!
//! Each core's [`CoreState`] runs on its own thread over an
//! [`ExplorePort`], whose every call first waits for the one baton. The
//! controller — the test thread — hands the baton to one core at a time,
//! so a core advances exactly one `Port` primitive plus the local work up
//! to its next `Port` call. A seeded generator picks, at every step,
//! which core proceeds, which in-flight message is delivered next (FIFO
//! per sender and receiver, as a channel guarantees), when the next
//! request is injected and when a hot migration commits; kills come from
//! a seeded [`FaultSpec`]. Telemetry is off and nothing else is timed,
//! so a schedule is a pure function of its program and seed: a failing
//! one prints both with its step trace, and replays exactly.
//!
//! After each schedule the explorer checks that every request completed
//! exactly once with the virtual executor's invocation count, that the
//! ledger is empty, and that the finished objects digest to the virtual
//! executor's result — or, under a kill, that the run failed typed with
//! [`ExecError::CoreLost`]. A request still open after [`STEP_BOUND`]
//! steps is a livelock; every core parked with a request open is a lost
//! wake-up.

use crate::chaos::{FaultSpec, KillTarget};
use crate::deploy::{Deployment, RunOptions};
use crate::ledger::Completion;
use crate::program::{body, NativeBody, Program};
use crate::store::PayloadSlot;
use crate::threaded::Shared;
use crate::virtual_exec::{ExecConfig, ExecError, VirtualExecutor};
use crate::worker::{self, CoreState, Fact, Full, Message, PendingInv, Plan, Port, TObject};
use bamboo_analysis::astg::DependenceAnalysis;
use bamboo_analysis::cstg::Cstg;
use bamboo_analysis::DisjointnessAnalysis;
use bamboo_lang::builder::ProgramBuilder;
use bamboo_lang::ids::{ClassId, ParamIdx};
use bamboo_lang::interp::TagInstance;
use bamboo_lang::spec::FlagExpr;
use bamboo_machine::{CoreId, MachineDescription};
use bamboo_profile::ProfileCollector;
use bamboo_schedule::transforms::Replication;
use bamboo_schedule::{GroupGraph, InstanceId, Layout};
use bamboo_telemetry::analyze::LiveEstimator;
use bamboo_telemetry::WorkerSink;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Steps after which a schedule with a request still open is a
/// livelock. No clean schedule below takes 1 000.
const STEP_BOUND: usize = 40_000;

/// Where a core's thread is, as the controller sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Holds the baton (or has not reached its first `Port` call).
    Running,
    /// Waits at a `Port` call.
    Call,
    /// Waits in `park` for a message (`timed`: or for its timeout).
    Park { timed: bool },
    /// Its loop returned.
    Done,
}

/// The controller's view and the message wire.
struct World {
    turn: Option<usize>,
    phase: Vec<Phase>,
    mailbox: Vec<VecDeque<Message>>,
    /// In-flight messages by `[sender][receiver]`; sender `cores` is the
    /// driver.
    wire: Vec<Vec<VecDeque<Message>>>,
    /// Set when the controller gives up: waiting cores unwind.
    abort: bool,
    panics: Vec<String>,
}

/// What a core's thread unwinds with when the controller aborts.
struct Aborted;

struct Baton {
    world: Mutex<World>,
    moved: Condvar,
}

impl Baton {
    fn new(cores: usize) -> Self {
        Baton {
            world: Mutex::new(World {
                turn: None,
                phase: vec![Phase::Running; cores],
                mailbox: (0..cores).map(|_| VecDeque::new()).collect(),
                wire: (0..=cores)
                    .map(|_| (0..cores).map(|_| VecDeque::new()).collect())
                    .collect(),
                abort: false,
                panics: Vec::new(),
            }),
            moved: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, World> {
        self.world.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits until no core holds the baton.
    fn settled(&self) -> MutexGuard<'_, World> {
        let mut world = self.lock();
        while world.turn.is_some() || world.phase.contains(&Phase::Running) {
            world = self.moved.wait(world).unwrap_or_else(|e| e.into_inner());
        }
        world
    }

    /// Hands the baton to `core`; [`Self::settled`] waits for it back.
    fn grant(&self, mut world: MutexGuard<'_, World>, core: usize) {
        world.turn = Some(core);
        drop(world);
        self.moved.notify_all();
    }
}

/// The explorer's [`Port`]: the run's [`Shared`] state behind one baton,
/// with the mailboxes replaced by the controller's wire.
struct ExplorePort<'a> {
    /// The calling core; `cores` is the driver, which acts only while
    /// every core waits, so its calls never wait.
    core: usize,
    shared: &'a Shared,
    baton: &'a Baton,
}

impl ExplorePort<'_> {
    /// Gives the baton back in `phase` and waits for the next turn.
    fn wait(&self, phase: Phase) -> MutexGuard<'_, World> {
        let mut world = self.baton.lock();
        if self.core == world.phase.len() {
            return world;
        }
        world.phase[self.core] = phase;
        world.turn = None;
        self.baton.moved.notify_all();
        loop {
            if world.abort {
                drop(world);
                resume_unwind(Box::new(Aborted));
            }
            if world.turn == Some(self.core) {
                world.phase[self.core] = Phase::Running;
                return world;
            }
            world = self
                .baton
                .moved
                .wait(world)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// One scheduling point: every `Port` primitive starts with it.
    fn step(&self) -> &Shared {
        drop(self.wait(Phase::Call));
        self.shared
    }
}

impl Port for ExplorePort<'_> {
    type Guards = <Shared as Port>::Guards;

    fn plan(&self) -> &Plan {
        self.shared.plan()
    }
    fn count(&self, fact: Fact, n: u64) {
        self.shared.count(fact, n);
    }
    fn add_cycles(&self, cycles: u64) {
        self.shared.add_cycles(cycles);
    }
    fn estimator(&self) -> Option<&LiveEstimator> {
        self.shared.estimator()
    }
    fn send(&self, core: usize, msg: Message) {
        self.wait(Phase::Call).wire[self.core][core].push_back(msg);
    }
    fn try_recv(&self, core: usize) -> Option<Message> {
        self.wait(Phase::Call).mailbox[core].pop_front()
    }
    fn park(&self, core: usize, timeout: Option<Duration>) -> Option<Message> {
        let timed = timeout.is_some();
        // Granted with an empty mailbox only to time out.
        self.wait(Phase::Park { timed }).mailbox[core].pop_front()
    }
    fn mailbox_len(&self, core: usize) -> usize {
        self.wait(Phase::Call).mailbox[core].len()
    }
    fn push_ready(&self, core: usize, inv: PendingInv, bound: usize) -> Result<usize, Full> {
        self.step().push_ready(core, inv, bound)
    }
    fn pop_ready(&self, core: usize) -> Option<PendingInv> {
        self.step().pop_ready(core)
    }
    fn steal_from(&self, victim: usize, thief: usize) -> Option<PendingInv> {
        self.step().steal_from(victim, thief)
    }
    fn ready_len(&self, core: usize) -> usize {
        self.step().ready_len(core)
    }
    fn ready_any(&self, core: usize, pred: impl Fn(&PendingInv) -> bool) -> bool {
        self.step().ready_any(core, pred)
    }
    fn inc(&self, request: u64) {
        self.step().inc(request);
    }
    fn inc_if_open(&self, request: u64) -> bool {
        self.step().inc_if_open(request)
    }
    fn dec(&self, request: u64) -> Option<Completion> {
        self.step().dec(request)
    }
    fn finish(&self, request: u64) -> Option<Completion> {
        self.step().finish(request)
    }
    fn outstanding(&self) -> usize {
        self.step().outstanding()
    }
    fn try_lock_all(&self, ids: &[usize]) -> Option<Self::Guards> {
        self.step().try_lock_all(ids)
    }
    fn fresh_lock(&self) -> usize {
        self.step().fresh_lock()
    }
    fn merge_locks(&self, a: usize, b: usize) {
        self.step().merge_locks(a, b);
    }
    fn core_of(&self, inst: InstanceId) -> usize {
        self.step().core_of(inst)
    }
    fn assign(&self, inst: InstanceId, core: usize) -> Vec<u64> {
        self.step().assign(inst, core)
    }
    fn epoch(&self) -> u64 {
        self.step().epoch()
    }
    fn bump_epoch(&self) -> u64 {
        self.step().bump_epoch()
    }
    fn is_dead(&self, core: usize) -> bool {
        self.step().is_dead(core)
    }
    fn mark_dead(&self, core: usize) -> Vec<u64> {
        self.step().mark_dead(core)
    }
    fn mint_inv(&self) -> u64 {
        self.step().mint_inv()
    }
    fn mint_msg(&self) -> u64 {
        self.step().mint_msg()
    }
    fn mint_tag(&self) -> TagInstance {
        self.step().mint_tag()
    }
    fn next_flow(&self, at: usize) -> usize {
        self.step().next_flow(at)
    }
    fn next_site(&self, at: usize) -> usize {
        self.step().next_site(at)
    }
    fn bury(&self, obj: Box<TObject>) {
        self.step().bury(obj);
    }
    fn fail(&self, err: ExecError) {
        self.step().fail(err);
    }
    fn failed(&self) -> bool {
        self.step().failed()
    }
    fn wake_driver(&self) {
        self.step();
    }
    fn swap_idle(&self, core: usize, idle: bool) -> bool {
        self.step().swap_idle(core, idle)
    }
    fn pause(&self, _pause: Duration) {
        self.step();
    }
}

/// splitmix64: the schedule's one source of choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// One scheduling decision.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Core `c` performs its pending `Port` call (or wakes from `park`).
    Run(usize),
    /// The oldest message from `.0` to `.1` reaches `.1`'s mailbox.
    Deliver(usize, usize),
    /// The driver injects the next request.
    Inject,
    /// The driver commits the schedule's migration.
    Migrate,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Run(c) => write!(f, "r{c}"),
            Step::Deliver(from, to) => write!(f, "d{from}>{to}"),
            Step::Inject => write!(f, "i"),
            Step::Migrate => write!(f, "m"),
        }
    }
}

/// A program the explorer runs, with the virtual executor's result.
struct Case {
    name: String,
    deploy: Deployment,
    requests: u64,
    /// Explore a hot migration within the first `horizon` steps, and
    /// core kills.
    migrate: bool,
    kill: bool,
    horizon: usize,
    /// The one-request result digest and invocation count, from the
    /// virtual executor.
    digest: fn(ClassId, &dyn Any) -> Option<String>,
    expected: Vec<String>,
    invocations: u64,
}

impl Case {
    fn new(
        name: String,
        deploy: Deployment,
        requests: u64,
        digest: fn(ClassId, &dyn Any) -> Option<String>,
    ) -> Self {
        let machine = MachineDescription::n_cores(deploy.layout.core_count);
        let mut virt = VirtualExecutor::over(&deploy, &machine, ExecConfig::default());
        let report = virt.run(None).expect("the virtual executor runs the case");
        let mut expected: Vec<String> = virt
            .store
            .iter()
            .filter_map(|(_, obj)| match &obj.payload {
                PayloadSlot::Native(payload) => digest(obj.class, payload.as_ref()),
                _ => None,
            })
            .collect();
        expected.sort();
        Case {
            name,
            deploy,
            requests,
            migrate: false,
            kill: false,
            horizon: 0,
            digest,
            expected,
            invocations: report.invocations,
        }
    }

    fn with_faults(mut self, migrate: bool, kill: bool, horizon: usize) -> Self {
        for (on, what) in [(migrate, " +migrate"), (kill, " +kill")] {
            if on {
                self.name += what;
            }
        }
        self.migrate = migrate;
        self.kill = kill;
        self.horizon = horizon;
        self
    }

    fn cores(&self) -> usize {
        self.deploy.layout.core_count
    }
}

/// What went wrong in one schedule.
struct Failure {
    case: String,
    seed: u64,
    what: String,
    faults: String,
    trace: Vec<Step>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "explorer: {} seed {}: {}",
            self.case, self.seed, self.what
        )?;
        writeln!(f, "  faults: {}", self.faults)?;
        let trace: Vec<String> = self.trace.iter().map(Step::to_string).collect();
        write!(f, "  {} steps: {}", trace.len(), trace.join(" "))
    }
}

/// Runs `case` under the schedule `seed` picks and checks the outcome.
fn explore(case: &Case, seed: u64) -> Result<(), Failure> {
    let mut rng = Rng(seed);
    let cores = case.cores();
    let mut options = RunOptions::default();
    let mut faults = String::from("none");
    if case.kill {
        let (core, after) = (rng.below(cores), rng.below(4) as u64);
        faults = format!("kill core {core} after {after} dispatches");
        options =
            options.with_faults(FaultSpec::seeded(seed).with_kill(KillTarget::Core(core), after));
    }
    let instances = case.deploy.layout.instances.len();
    let migration = case.migrate.then(|| {
        let at = rng.below(case.horizon);
        let (inst, to) = (InstanceId(rng.below(instances) as u32), rng.below(cores));
        faults += &format!("; migrate instance {} to core {to} at step {at}", inst.0);
        (at, inst, to)
    });
    let (shared, grave_rx, completions) = Shared::new(&case.deploy, &options, true);
    let (shared, baton) = (&shared, &Baton::new(cores));
    let mut trace = Vec::new();
    let outcome = std::thread::scope(|scope| {
        for core in 0..cores {
            let port = ExplorePort {
                core,
                shared,
                baton,
            };
            scope.spawn(move || {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    CoreState::new(core, WorkerSink::disabled()).work(&port)
                }));
                let mut world = baton.lock();
                if let Err(payload) = run {
                    if !payload.is::<Aborted>() {
                        world.panics.push(panic_message(core, payload.as_ref()));
                    }
                }
                world.phase[core] = Phase::Done;
                world.turn = None;
                drop(world);
                baton.moved.notify_all();
            });
        }
        let driver = ExplorePort {
            core: cores,
            shared,
            baton,
        };
        let outcome = schedule(case, &driver, &mut rng, migration, &mut trace);
        let mut world = baton.settled();
        world.abort = true;
        drop(world);
        baton.moved.notify_all();
        outcome
    });
    let fail = |what: String| Failure {
        case: case.name.clone(),
        seed,
        what,
        faults: faults.clone(),
        trace: trace.clone(),
    };
    outcome.map_err(&fail)?;
    let panics = std::mem::take(&mut baton.lock().panics);
    if !panics.is_empty() {
        return Err(fail(panics.join("; ")));
    }
    let done: Vec<Completion> = completions.try_iter().collect();
    for request in 1..=case.requests {
        let times = done.iter().filter(|c| c.request == request).count();
        if times > 1 {
            return Err(fail(format!("request {request} completed {times} times")));
        }
    }
    if let Some(err) = shared.failure() {
        return match err {
            ExecError::CoreLost { .. } if case.kill => Ok(()),
            err => Err(fail(format!("the run failed: {err}"))),
        };
    }
    if done.len() as u64 != case.requests {
        return Err(fail(format!(
            "{} of {} requests completed",
            done.len(),
            case.requests
        )));
    }
    if let Some(c) = done.iter().find(|c| c.invocations != case.invocations) {
        let (request, n) = (c.request, c.invocations);
        return Err(fail(format!(
            "request {request} ran {n} invocations, the virtual executor {}",
            case.invocations
        )));
    }
    if !shared.ledger.is_empty() {
        return Err(fail("the ledger is not empty at quiescence".into()));
    }
    let mut finished: Vec<String> = grave_rx
        .try_iter()
        .filter_map(|obj| (case.digest)(obj.class, obj.payload.as_ref()))
        .collect();
    finished.sort();
    let mut expected: Vec<String> = (0..case.requests)
        .flat_map(|_| case.expected.iter().cloned())
        .collect();
    expected.sort();
    if finished != expected {
        return Err(fail(format!(
            "finished {finished:?}, expected {expected:?}"
        )));
    }
    Ok(())
}

/// The controller loop: steps the schedule until every request is done
/// (or the run failed), then shuts the cores down. `Err` names a
/// livelock or a lost wake-up.
fn schedule(
    case: &Case,
    driver: &ExplorePort<'_>,
    rng: &mut Rng,
    migration: Option<(usize, InstanceId, usize)>,
    trace: &mut Vec<Step>,
) -> Result<(), String> {
    let (baton, shared) = (driver.baton, driver.shared);
    let cores = case.cores();
    let (mut injected, mut migrated, mut stopping) = (0u64, migration.is_none(), false);
    let mut sink = WorkerSink::disabled();
    // Half the schedules run by priority, as PCT does: the top-ranked
    // runnable core keeps the baton, so its run of `Port` calls can
    // overtake another core's; one step in 32 demotes the top core (a
    // change point), and one in three delivers or injects instead.
    let mut rank: Option<Vec<usize>> = (rng.below(2) == 1).then(|| {
        let mut rank: Vec<usize> = (0..cores).collect();
        for i in (1..cores).rev() {
            rank.swap(i, rng.below(i + 1));
        }
        rank
    });
    loop {
        let mut world = baton.settled();
        if !world.panics.is_empty() {
            return Ok(());
        }
        if world.phase.iter().all(|&p| p == Phase::Done) {
            return Ok(());
        }
        let quiet =
            injected == case.requests && (shared.ledger.outstanding() == 0 || shared.failed());
        if quiet && !stopping {
            stopping = true;
            for core in 0..cores {
                world.wire[cores][core].push_back(Message::Shutdown);
            }
        }
        if trace.len() >= STEP_BOUND {
            let open = shared.ledger.outstanding();
            return Err(format!(
                "livelock: {open} requests still open after {STEP_BOUND} steps"
            ));
        }
        let mut steps: Vec<Step> = Vec::new();
        for core in 0..cores {
            let ready = match world.phase[core] {
                Phase::Call => true,
                Phase::Park { .. } => !world.mailbox[core].is_empty(),
                _ => false,
            };
            if ready {
                steps.push(Step::Run(core));
            }
        }
        for (from, row) in world.wire.iter().enumerate() {
            for (to, queue) in row.iter().enumerate() {
                if !queue.is_empty() {
                    steps.push(Step::Deliver(from, to));
                }
            }
        }
        if injected < case.requests {
            steps.push(Step::Inject);
        }
        if migration.is_some_and(|(at, ..)| !migrated && !stopping && trace.len() >= at) {
            steps.push(Step::Migrate);
        }
        if steps.is_empty() {
            // Only timeouts are left: a dead core's forwarder re-pokes.
            steps.extend(
                (0..cores)
                    .filter(|&c| world.phase[c] == Phase::Park { timed: true })
                    .map(Step::Run),
            );
        }
        if steps.is_empty() {
            let open = shared.ledger.outstanding();
            return Err(format!(
                "stuck: every core parked with {open} requests open"
            ));
        }
        let runnable: Vec<usize> = steps
            .iter()
            .filter_map(|step| match step {
                Step::Run(core) => Some(*core),
                _ => None,
            })
            .collect();
        let step = match &mut rank {
            Some(rank)
                if !runnable.is_empty() && (runnable.len() == steps.len() || rng.below(3) > 0) =>
            {
                if rng.below(32) == 0 {
                    let top = rank.remove(0);
                    rank.push(top);
                }
                Step::Run(
                    *rank
                        .iter()
                        .find(|c| runnable.contains(c))
                        .expect("runnable"),
                )
            }
            Some(_) => {
                let others: Vec<Step> = steps
                    .iter()
                    .filter(|s| !matches!(s, Step::Run(_)))
                    .copied()
                    .collect();
                others[rng.below(others.len())]
            }
            None => steps[rng.below(steps.len())],
        };
        trace.push(step);
        match step {
            Step::Run(core) => baton.grant(world, core),
            Step::Deliver(from, to) => {
                let msg = world.wire[from][to].pop_front().expect("listed non-empty");
                world.mailbox[to].push_back(msg);
            }
            Step::Inject => {
                drop(world);
                injected += 1;
                worker::inject(driver, Box::new(()), injected, &mut sink);
            }
            Step::Migrate => {
                drop(world);
                migrated = true;
                let (_, inst, to) = migration.expect("listed");
                let _ = worker::migrate(driver, &[(inst, to)]);
            }
        }
    }
}

fn panic_message(core: usize, payload: &(dyn Any + Send)) -> String {
    let text = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic");
    format!("core {core} panicked: {text}")
}

// ---- the programs -------------------------------------------------------

/// A deployment of `program` on `cores` cores: the groups of the tasks
/// in `spread` get `copies` instances each, dealt round-robin over the
/// cores, and every other group one instance on core 0.
fn spread(program: Program, spread: &[&str], copies: usize, cores: usize) -> Deployment {
    let spec = &program.spec;
    let analysis = DependenceAnalysis::run(spec);
    let cstg = Cstg::build(spec, &analysis);
    let profile = ProfileCollector::new(spec, "bootstrap").finish();
    let graph = GroupGraph::build(spec, &cstg, &profile);
    let mut repl = Replication::serial(&graph);
    for task in spread {
        let group = graph.group_of_task(spec.task_by_name(task).expect("task exists"));
        repl.copies[group.expect("grouped").index()] = copies;
    }
    let core_lists: Vec<Vec<CoreId>> = (0..graph.groups.len())
        .map(|g| {
            (0..repl.copies[g])
                .map(|c| CoreId::new(c % cores))
                .collect()
        })
        .collect();
    let layout = Layout::new(&graph, &repl, cores, &core_lists);
    let locks = DisjointnessAnalysis::all_disjoint(spec);
    Deployment::new(program, graph, layout, locks)
}

fn acc_digest(_class: ClassId, payload: &dyn Any) -> Option<String> {
    payload
        .downcast_ref::<(i64, i64, i64)>()
        .map(|acc| format!("{acc:?}"))
}

/// `fanout_setup`'s program: `n` work items squared and folded into one
/// accumulator, `work` spread over `cores` cores.
fn fanout(n: i64, cores: usize, requests: u64) -> Case {
    let program = crate::virtual_exec::tests_support::native_program(n);
    let name = format!("fanout n={n} cores={cores} requests={requests}");
    let deploy = spread(program, &["work"], cores, cores);
    Case::new(name, deploy, requests, acc_digest)
}

/// `n` work items squared by `work`, spread over `cores` cores; nothing
/// consumes the results, so a stolen invocation's outputs all retire.
fn scatter(n: i64, cores: usize) -> Case {
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("scatter");
    let s = b.class("StartupObject", &["initialstate"]);
    let init = b.flag(s, "initialstate");
    let w = b.class("Work", &["ready", "done"]);
    let (ready, done) = (b.flag(w, "ready"), b.flag(w, "done"));
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .alloc(w, &[(ready, true)], &[])
        .exit("", |e| e.set(0, init, false))
        .body(body(move |ctx| {
            for i in 0..n {
                ctx.create(0, i);
            }
            0
        }))
        .finish();
    b.task("work")
        .param("w", w, FlagExpr::flag(ready))
        .exit("", |e| e.set(0, ready, false).set(0, done, true))
        .body(body(|ctx| {
            let v = ctx.param_mut::<i64>(0);
            *v *= *v;
            0
        }))
        .finish();
    let program = Program::from_native(b.build().unwrap());
    let digest = |_: ClassId, payload: &dyn Any| payload.downcast_ref::<i64>().map(i64::to_string);
    let name = format!("scatter n={n} cores={cores} requests=2");
    Case::new(name, spread(program, &["work"], cores, cores), 2, digest)
}

/// The shared-lock pair program of
/// `threaded::tests::lock_contention_retries_preserve_correctness`:
/// `pair` merges an `L` and an `R` into one lock class, after which
/// `left` (core 0) and `right` (core 1) each run `rounds` times on one of
/// them, holding `busy` and counting the times they found it held.
pub(crate) fn shared_pair(rounds: i64) -> (Deployment, [ClassId; 2]) {
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
        .body(body(move |ctx| {
            // (rounds left, overlaps seen)
            ctx.create(0, (rounds, 0i64));
            ctx.create(1, (rounds, 0i64));
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
    let right = program.spec.task_by_name("right").unwrap();
    let locks = DisjointnessAnalysis::all_disjoint(&program.spec)
        .with_shared(pair, &[ParamIdx::new(0), ParamIdx::new(1)]);
    let mut deploy = crate::deploy::bootstrap(program, locks);
    let right_group = deploy.graph.group_of_task(right).unwrap();
    assert_ne!(deploy.graph.group_of_task(pair), Some(right_group));
    deploy.layout.core_count = 2;
    for inst in &mut deploy.layout.instances {
        if inst.group == right_group {
            inst.core = CoreId::new(1);
        }
    }
    (deploy, [l, r])
}

fn pair_digest(class: ClassId, payload: &dyn Any) -> Option<String> {
    payload
        .downcast_ref::<(i64, i64)>()
        .map(|side| format!("{class:?} {side:?}"))
}

/// A tagged program: each of `n` seeds mints a tag and splits into a `C`
/// and an `E` carrying it, and `echo` turns the `E` into a `D` later;
/// `pair`, spread over `cores` cores in `copies` instances, joins the
/// `C` and `D` of one tag (tag-hash routing sends both to the same copy);
/// `reduce` folds every joined `C`.
fn tagged(n: i64, copies: usize, cores: usize) -> Case {
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("tagged");
    let s = b.class("StartupObject", &["initialstate"]);
    let init = b.flag(s, "initialstate");
    let seed = b.class("Seed", &["ready"]);
    let ready = b.flag(seed, "ready");
    let c = b.class("C", &["fresh", "joined"]);
    let (c_fresh, joined) = (b.flag(c, "fresh"), b.flag(c, "joined"));
    let d = b.class("D", &["fresh"]);
    let d_fresh = b.flag(d, "fresh");
    let e = b.class("E", &["fresh"]);
    let e_fresh = b.flag(e, "fresh");
    let acc = b.class("Acc", &["open", "closed"]);
    let (open, closed) = (b.flag(acc, "open"), b.flag(acc, "closed"));
    let t = b.tag_type("T");
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .alloc(seed, &[(ready, true)], &[])
        .alloc(acc, &[(open, true)], &[])
        .exit("", |e| e.set(0, init, false))
        .body(body(move |ctx| {
            for i in 1..=n {
                ctx.create(0, i);
            }
            ctx.create(1, (0i64, 0i64, n));
            0
        }))
        .finish();
    let split = b
        .task("split")
        .param("s", seed, FlagExpr::flag(ready))
        .new_tag_var(t, "t");
    let tv = split.tag_var("t");
    split
        .alloc(c, &[(c_fresh, true)], &[tv])
        .alloc(e, &[(e_fresh, true)], &[tv])
        .exit("", |x| x.set(0, ready, false))
        .body(body(|ctx| {
            let v = *ctx.param::<i64>(0);
            ctx.create(0, v);
            ctx.create(1, 10 * v);
            0
        }))
        .finish();
    let echo = b
        .task("echo")
        .param("e", e, FlagExpr::flag(e_fresh))
        .with_tag(t, "t");
    let tv = echo.tag_var("t");
    echo.alloc(d, &[(d_fresh, true)], &[tv])
        .exit("", |x| x.set(0, e_fresh, false))
        .body(body(|ctx| {
            let v = *ctx.param::<i64>(0);
            ctx.create(0, v);
            0
        }))
        .finish();
    b.task("pair")
        .param("c", c, FlagExpr::flag(c_fresh))
        .with_tag(t, "t")
        .param("d", d, FlagExpr::flag(d_fresh))
        .with_tag(t, "t")
        .exit("", |e| {
            e.set(0, c_fresh, false)
                .set(0, joined, true)
                .set(1, d_fresh, false)
        })
        .body(body(|ctx| {
            let d = *ctx.param::<i64>(1);
            *ctx.param_mut::<i64>(0) += d;
            0
        }))
        .finish();
    b.task("reduce")
        .param("a", acc, FlagExpr::flag(open))
        .param("c", c, FlagExpr::flag(joined))
        .exit("more", |e| e.set(1, joined, false))
        .exit("finish", |e| {
            e.set(0, open, false)
                .set(0, closed, true)
                .set(1, joined, false)
        })
        .body(body(|ctx| {
            let v = *ctx.param::<i64>(1);
            let a = ctx.param_mut::<(i64, i64, i64)>(0);
            a.0 += v;
            a.1 += 1;
            usize::from(a.1 == a.2)
        }))
        .finish();
    let program = Program::from_native(b.build().unwrap());
    let name = format!("tagged n={n} copies={copies} cores={cores}");
    Case::new(
        name,
        spread(program, &["pair"], copies, cores),
        1,
        acc_digest,
    )
}

/// A program whose request leaves a `Lone` object buffered in `pair`'s
/// first slot on completion: the leftover a migration drain must retire.
fn leftover(requests: u64) -> Case {
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
            ctx.create(0, 0u64);
            0
        }))
        .finish();
    b.task("pair")
        .param("l", lone, FlagExpr::flag(waiting))
        .param("m", mate, FlagExpr::flag(here))
        .exit("", |e| e.set(0, waiting, false).set(1, here, false))
        .body(body(|_| 0))
        .finish();
    let program = Program::from_native(b.build().unwrap());
    let digest = |_: ClassId, payload: &dyn Any| payload.downcast_ref::<u64>().map(u64::to_string);
    let deploy = spread(program, &["startup", "pair"], 2, 2);
    Case::new(
        format!("leftover requests={requests}"),
        deploy,
        requests,
        digest,
    )
}

/// Schedules that once found a bug, replayed first: a case name and a
/// seed.
const REGRESSIONS: &[(&str, u64)] = &[
    // Failover to the epoch-0 hosts: a kill after a migration livelocked.
    ("fanout n=6 cores=2 requests=1 +migrate +kill", 1),
    // A migration holding no ledger unit: a request completed early.
    ("fanout n=6 cores=2 requests=2 +migrate", 63),
    // A kill holding no ledger unit: a request completed early.
    ("tagged n=4 copies=3 cores=3 +migrate +kill", 301),
    // Migrating an instance off a dead core split tag-mates.
    ("tagged n=4 copies=3 cores=3 +migrate +kill", 76),
    // Failover keyed by message id split tag-mates.
    ("tagged n=4 copies=3 cores=3 +migrate +kill", 2),
];

/// Schedules per case after the regressions.
const SEEDS: u64 = 300;

fn cases() -> Vec<Case> {
    let (pair, _) = shared_pair(2);
    vec![
        fanout(4, 2, 1),
        scatter(4, 2),
        fanout(6, 3, 2),
        fanout(4, 4, 1),
        fanout(6, 2, 2).with_faults(true, false, 600),
        fanout(6, 2, 1).with_faults(true, true, 300),
        fanout(6, 3, 1).with_faults(false, true, 0),
        Case::new("shared-pair rounds=2".into(), pair, 1, pair_digest),
        tagged(4, 3, 2).with_faults(true, false, 350),
        tagged(4, 3, 3).with_faults(true, true, 350),
        leftover(4).with_faults(true, true, 120),
    ]
}

/// Every case under its regression seeds, then `SEEDS` fresh seeds; the
/// first failing schedule fails the test with its replay line.
#[test]
fn explored_schedules_hold_the_runtime_contract() {
    let cases = cases();
    let mut failures = Vec::new();
    let mut schedules = 0;
    for case in &cases {
        let regressions = REGRESSIONS.iter().filter(|(name, _)| *name == case.name);
        let seeds = regressions.map(|&(_, seed)| seed).chain(0..SEEDS);
        for seed in seeds {
            schedules += 1;
            if let Err(failure) = explore(case, seed) {
                failures.push(format!("schedule {schedules}, {failure}"));
                break;
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
