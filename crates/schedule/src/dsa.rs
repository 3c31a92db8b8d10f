//! Directed simulated annealing (paper §4.5).
//!
//! Bamboo's optimizer mirrors what a developer does by hand: run the
//! (simulated) application, find the bottleneck on the critical path,
//! move work to fix it, repeat. Each iteration simulates the candidate
//! layouts, prunes them probabilistically (good layouts survive with high
//! probability, poor ones with low probability — the annealing part),
//! derives critical-path-directed move proposals for the survivors, and
//! materializes the moved layouts as the next candidate set. When an
//! iteration fails to improve the best layout, the search continues with
//! some probability (escaping local maxima) and otherwise stops.
//!
//! # Parallel, memoized evaluation
//!
//! Candidate evaluation — the expensive part — is a pure function of
//! `(spec, graph, layout, profile, machine)`: simulation consumes no
//! randomness. The optimizer exploits that twice:
//!
//! * each iteration's un-memoized candidates form a *round*, scored by
//!   a pool of [`DsaOptions::threads`] threads in total, the caller's
//!   included, started once per call. The threads claim a round's
//!   candidates from one atomic cursor, and the scores are collected
//!   back **in candidate index order**, so sorting, pruning, and
//!   [`DsaStats`] are bit-identical at any thread count. One call may
//!   run several searches (`synthesize` runs one per replication
//!   variant) over one pool: each search is driven by one pool thread,
//!   and a thread with nothing of its own to score — a helper, a
//!   driver waiting on its round, a driver whose search has ended —
//!   works the oldest open round of any search. One thread runs the
//!   searches one after another on the caller;
//! * a [`SimCache`] keyed by [`Layout::fingerprint`] replays results for
//!   layouts whose signature was already simulated
//!   ([`DsaOptions::memoize`]), so survivors re-entering the pool never
//!   re-simulate.
//!
//! All randomness (pruning, move generation) of a search stays on the
//! thread that drives it, which is the determinism argument: the RNG
//! consumption sequence is independent of the worker count *and* of the
//! cache (the candidate pool is fingerprint-deduplicated either way),
//! so one seed produces one trajectory at any thread count.
//!
//! # Per-candidate cost
//!
//! Candidates score on reusable [`SimEngine`]s, one per thread and
//! search, each built on the thread that runs it, over one shared
//! [`SimProgram`]: prediction streams, the event kernel's arenas and
//! its trace buffer persist across the hundreds of simulations of one
//! search. A candidate's trace never leaves the thread that simulated
//! it: that thread derives the trace's [`MoveBasis`] — all that move
//! generation reads of a trace — and the engine refills the same buffer
//! on its next simulation. Scores and the memo cache carry the basis;
//! only the winner is simulated once more, with a trace, for the
//! estimate returned.
//!
//! A child of a survivor is fingerprinted before it is built: the
//! survivor's [`FingerprintDigest`] gives a moved or swapped layout's
//! fingerprint in O(1), and only a child the duplicate set accepts is
//! cloned.

use crate::critpath::{apply_move, MoveBasis, MoveProposal};
use crate::groups::GroupGraph;
use crate::layout::{FingerprintDigest, InstanceId, Layout};
use crate::sim::{Memo, SimCache, SimEngine, SimOptions, SimProgram, SimResult};
use bamboo_lang::spec::ProgramSpec;
use bamboo_machine::{CoreId, MachineDescription};
use bamboo_profile::{Cycles, Profile};
use rand::Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Probability that a candidate in the better half of an iteration
/// survives into the next.
const KEEP_BEST_PROBABILITY: f64 = 0.95;

/// Probability that a candidate in the worse half survives.
const KEEP_WORSE_PROBABILITY: f64 = 0.10;

/// DSA tuning knobs.
#[derive(Clone, Debug)]
pub struct DsaOptions {
    /// Hard cap on iterations.
    pub max_iterations: usize,
    /// Probability of continuing after a non-improving iteration.
    pub continue_probability: f64,
    /// Move proposals materialized per surviving layout per iteration.
    pub moves_per_layout: usize,
    /// Upper bound on live candidates per iteration.
    pub max_candidates: usize,
    /// Threads that simulate candidates, the caller's included: the
    /// driver and `threads − 1` helpers, started once per call. `0`
    /// uses every available core, `1` evaluates serially on the
    /// caller. The result is bit-identical at any setting.
    pub threads: usize,
    /// Memoize simulation results across iterations by layout
    /// fingerprint, so survivors re-entering the pool never re-simulate.
    /// Off reproduces the evaluate-everything shape (the paper's §5.1
    /// timing column in `dsa_timing`); the search trajectory is identical
    /// either way.
    pub memoize: bool,
    /// Simulator configuration. The annealer reads only `replay`: it
    /// traces every candidate it simulates (to derive its
    /// [`MoveBasis`]) and returns the winner's estimate with its trace,
    /// whatever `collect_trace` says.
    pub sim: SimOptions,
}

impl Default for DsaOptions {
    fn default() -> Self {
        DsaOptions {
            max_iterations: 40,
            continue_probability: 0.75,
            moves_per_layout: 10,
            max_candidates: 32,
            threads: 0,
            memoize: true,
            sim: SimOptions {
                collect_trace: true,
                ..SimOptions::default()
            },
        }
    }
}

/// Resolves a thread-count knob: `0` means every available core.
pub(crate) fn worker_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Search statistics, reported alongside the winning layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DsaStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Total scoring simulations run.
    pub simulations: usize,
    /// Candidates subjected to the probabilistic pruning step
    /// (`= simulations + cache_hits`).
    pub candidates_evaluated: usize,
    /// Candidates that survived pruning (summed over iterations).
    /// `survivors / candidates_evaluated` is the acceptance rate.
    pub survivors: usize,
    /// Evaluations answered by the memoized simulation cache instead of
    /// a fresh simulation.
    pub cache_hits: usize,
    /// Evaluations that ran a simulation and populated the cache. Equal
    /// to [`Self::simulations`]; kept separate so telemetry can report
    /// hit rate as `hits / (hits + misses)` uniformly.
    pub cache_misses: usize,
    /// Always 0: nothing increments it. Kept until the benchmark stops
    /// reading it (ROADMAP item 4).
    pub delta_hits: usize,
    /// Cache entries evicted by the [`SimCache`] LRU bound during this
    /// search.
    pub cache_evictions: usize,
    /// Best makespan seen after each iteration — the optimizer's
    /// convergence trajectory (monotonically non-increasing).
    pub trajectory: Vec<Cycles>,
    /// Estimated makespan of the winner.
    pub best_makespan: Cycles,
}

impl DsaStats {
    /// Fraction of evaluated candidates that survived pruning, in
    /// `[0, 1]` (1.0 when nothing was evaluated).
    pub fn acceptance_rate(&self) -> f64 {
        if self.candidates_evaluated == 0 {
            1.0
        } else {
            self.survivors as f64 / self.candidates_evaluated as f64
        }
    }

    /// Fraction of evaluations answered by the simulation cache, in
    /// `[0, 1]` (0.0 when nothing was evaluated).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Folds another search's volume counters (iterations, simulations,
    /// candidates, survivors, cache traffic) into `self`,
    /// keeping `self`'s trajectory and best makespan. This is how
    /// `synthesize` merges per-replication-variant searches: the winning
    /// variant's stats absorb the losers' counters, so `simulations`
    /// reports total work while the trajectory stays the winner's.
    pub fn merge_counters(&mut self, other: &DsaStats) {
        self.iterations += other.iterations;
        self.simulations += other.simulations;
        self.candidates_evaluated += other.candidates_evaluated;
        self.survivors += other.survivors;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.delta_hits += other.delta_hits;
        self.cache_evictions += other.cache_evictions;
    }
}

/// Runs directed simulated annealing from `initial` candidate layouts.
///
/// Returns the best layout found, its simulation result, and search
/// statistics.
///
/// # Panics
///
/// Panics if `initial` is empty.
pub fn optimize<R: Rng + Send>(
    spec: &ProgramSpec,
    graph: &GroupGraph,
    profile: &Profile,
    machine: &MachineDescription,
    initial: Vec<Layout>,
    opts: &DsaOptions,
    rng: &mut R,
) -> (Layout, SimResult, DsaStats) {
    let mut cache = SimCache::new();
    optimize_with_cache(
        spec, graph, profile, machine, initial, opts, rng, &mut cache,
    )
}

/// [`optimize`] with a caller-owned memo cache, so repeated searches
/// over the *same* (spec, profile, machine) triple — the adaptive
/// controller re-optimizing every tick — replay earlier simulations
/// instead of redoing them. The cache keys on layout fingerprints
/// only; callers must clear it whenever the profile or machine
/// changes, or stale makespans will be replayed as truth.
///
/// # Panics
///
/// Panics if `initial` is empty.
#[allow(clippy::too_many_arguments)]
pub fn optimize_with_cache<R: Rng + Send>(
    spec: &ProgramSpec,
    graph: &GroupGraph,
    profile: &Profile,
    machine: &MachineDescription,
    initial: Vec<Layout>,
    opts: &DsaOptions,
    rng: &mut R,
    cache: &mut SimCache,
) -> (Layout, SimResult, DsaStats) {
    assert!(
        !initial.is_empty(),
        "DSA needs at least one starting layout"
    );
    let program = SimProgram::new(spec, graph, profile, machine, &opts.sim);
    let search = Search {
        initial,
        rng,
        cache,
    };
    anneal_all(&program, graph, opts, vec![search])
        .pop()
        .expect("one search, one outcome")
}

/// One search of [`anneal_all`]: its starting layouts, the RNG that
/// drives it, and its memo cache.
pub(crate) struct Search<'c, R> {
    pub(crate) initial: Vec<Layout>,
    pub(crate) rng: R,
    pub(crate) cache: &'c mut SimCache,
}

/// A finished search: the best layout, its traced estimate, and the
/// search statistics.
pub(crate) type Outcome = (Layout, SimResult, DsaStats);

/// Runs `searches` over one scoring pool of
/// `worker_threads(opts.threads)` threads, the caller's included, and
/// returns their outcomes in search order.
///
/// Search `i` is driven by pool thread `i mod threads`, one search
/// after another; a thread with no search left to drive scores the
/// others' rounds until every search has ended. Every search's
/// layouts are scored on `program`, so they must share its graph,
/// profile and machine.
pub(crate) fn anneal_all<R: Rng + Send>(
    program: &SimProgram<'_>,
    graph: &GroupGraph,
    opts: &DsaOptions,
    searches: Vec<Search<'_, R>>,
) -> Vec<Outcome> {
    let threads = worker_threads(opts.threads);
    let pool = &Pool::new(searches.len());
    let mut lanes: Vec<Vec<(usize, Search<'_, R>)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, search) in searches.into_iter().enumerate() {
        lanes[i % threads].push((i, search));
    }
    let mut outcomes = std::thread::scope(|scope| {
        let mut lanes = lanes.into_iter();
        let own = lanes.next().expect("at least one thread");
        let others: Vec<_> = lanes
            .map(|lane| scope.spawn(move || pool.serve(program, graph, opts, lane)))
            .collect();
        let mut outcomes = pool.serve(program, graph, opts, own);
        for other in others {
            outcomes.extend(
                other
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        outcomes
    });
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

/// A child drawn from a survivor, before it is built: the survivor's
/// digest fingerprints it, and only a child whose fingerprint is new
/// is cloned.
#[derive(Clone, Copy)]
enum Child {
    Move(MoveProposal),
    Swap(InstanceId, InstanceId),
}

impl Child {
    fn fingerprint(self, parent: &FingerprintDigest<'_>) -> u64 {
        match self {
            Child::Move(m) => parent.after_move(m.instance, m.to_core),
            Child::Swap(a, b) => parent.after_swap(a, b),
        }
    }

    fn build(self, parent: &Layout) -> Layout {
        match self {
            Child::Move(m) => apply_move(parent, m),
            Child::Swap(a, b) => {
                let mut child = parent.clone();
                child.instances[a.index()].core = parent.core_of(b);
                child.instances[b.index()].core = parent.core_of(a);
                child
            }
        }
    }
}

/// The search loop of one [`Search`], scoring through `scorer`.
/// Returns the best layout and the search statistics.
fn anneal<R: Rng>(
    graph: &GroupGraph,
    initial: Vec<Layout>,
    opts: &DsaOptions,
    rng: &mut R,
    cache: &mut SimCache,
    scorer: &mut Scorer<'_, '_>,
) -> (Layout, DsaStats) {
    let mut stats = DsaStats::default();
    let evictions_before = cache.evictions();
    let mut best: Option<(Layout, Cycles)> = None;
    let mut seen: HashSet<u64> = HashSet::new();

    // Deduplicate the starting pool by fingerprint and seed the
    // duplicate set with it. This gives the pool a strict invariant —
    // every entrant is either signature-fresh or a survivor (the exact
    // layout already simulated) — which is what lets the memo cache
    // replay results without ever conflating two signature-equal but
    // distinct placements, and keeps the search identical whether the
    // cache is on or off. Candidates carry their fingerprint.
    let mut candidates: Vec<(Layout, u64)> = Vec::with_capacity(initial.len());
    for layout in initial {
        let fp = layout.fingerprint(graph);
        if seen.insert(fp) {
            candidates.push((layout, fp));
        }
    }

    for _ in 0..opts.max_iterations {
        stats.iterations += 1;
        // Evaluate: replay memoized results, score the rest on the
        // pool, and reassemble in candidate index order.
        let pending = std::mem::take(&mut candidates);
        let mut evaluated = evaluate_candidates(opts, pending, cache, scorer, &mut stats);
        evaluated.sort_by_key(|(_, (r, _))| r.makespan);
        stats.candidates_evaluated += evaluated.len();

        let improved = match (&best, evaluated.first()) {
            (Some((_, b)), Some((_, (e, _)))) => e.makespan < *b,
            (None, Some(_)) => true,
            _ => false,
        };

        // Prune probabilistically. The round's best candidate always
        // survives: dropping the sole candidate of a one-start run would
        // otherwise end the search after a single simulation.
        let half = evaluated.len().div_ceil(2);
        let survivors: Vec<((Layout, u64), Memo)> = evaluated
            .into_iter()
            .enumerate()
            .filter(|(i, _)| {
                if *i == 0 {
                    return true;
                }
                let p = if *i < half {
                    KEEP_BEST_PROBABILITY
                } else {
                    KEEP_WORSE_PROBABILITY
                };
                rng.gen_bool(p)
            })
            .map(|(_, x)| x)
            .collect();
        stats.survivors += survivors.len();

        // The round's best is survivors[0] (index 0 always survives).
        if let Some(((layout, _), (result, _))) = survivors.first() {
            if best
                .as_ref()
                .map(|(_, b)| result.makespan < *b)
                .unwrap_or(true)
            {
                best = Some((layout.clone(), result.makespan));
            }
        }
        if let Some((_, b)) = &best {
            stats.trajectory.push(*b);
        }

        // Directed move generation, plus undirected exploration (the
        // annealing part: random moves and swaps escape the proposals'
        // blind spots — swaps in particular cross pigeonhole plateaus
        // that no single migration can improve). Every child is drawn
        // first and fingerprinted from its parent's digest; only the
        // fresh ones are built.
        let mut next: Vec<(Layout, u64)> = Vec::new();
        for ((layout, _), (_, basis)) in &survivors {
            let Some(basis) = basis else { continue };
            let mut children: Vec<Child> = basis
                .propose(rng, opts.moves_per_layout)
                .into_iter()
                .map(Child::Move)
                .collect();
            for _ in 0..2 {
                if layout.instances.len() > 1 {
                    let inst = InstanceId(rng.gen_range(1..layout.instances.len()) as u32);
                    let core = CoreId::new(rng.gen_range(0..layout.core_count));
                    children.push(Child::Move(MoveProposal {
                        instance: inst,
                        to_core: core,
                    }));
                }
            }
            for _ in 0..2 {
                if layout.instances.len() > 2 {
                    let a = rng.gen_range(1..layout.instances.len());
                    let b = rng.gen_range(1..layout.instances.len());
                    if a != b && layout.instances[a].core != layout.instances[b].core {
                        children.push(Child::Swap(InstanceId(a as u32), InstanceId(b as u32)));
                    }
                }
            }
            let digest = layout.digest(graph);
            for child in children {
                let fp = child.fingerprint(&digest);
                if seen.insert(fp) {
                    next.push((child.build(layout), fp));
                }
                if next.len() >= opts.max_candidates {
                    break;
                }
            }
        }
        // Survivors stay in the pool too (their bases may yield different
        // random groups next round).
        for (candidate, _) in survivors {
            if next.len() >= opts.max_candidates {
                break;
            }
            next.push(candidate);
        }

        if next.is_empty() {
            break;
        }
        if !improved && !rng.gen_bool(opts.continue_probability) {
            break;
        }
        candidates = next;
    }

    stats.cache_evictions = cache.evictions() - evictions_before;
    let (layout, makespan) = best.expect("at least one candidate evaluated");
    stats.best_makespan = makespan;
    (layout, stats)
}

/// Scores one iteration's candidate pool, preserving pool order.
///
/// Memoized fingerprints replay from `cache`; the rest are scored as
/// one round through `scorer`.
fn evaluate_candidates(
    opts: &DsaOptions,
    candidates: Vec<(Layout, u64)>,
    cache: &mut SimCache,
    scorer: &mut Scorer<'_, '_>,
    stats: &mut DsaStats,
) -> Vec<((Layout, u64), Memo)> {
    let mut memos: Vec<Option<Memo>> = vec![None; candidates.len()];
    let mut due: Vec<usize> = Vec::with_capacity(candidates.len());
    for (slot, &(_, fp)) in candidates.iter().enumerate() {
        if opts.memoize {
            if let Some(replayed) = cache.replay(fp) {
                memos[slot] = Some(replayed);
                stats.cache_hits += 1;
                continue;
            }
        }
        due.push(slot);
    }
    stats.cache_misses += due.len();
    stats.simulations += due.len();

    if !due.is_empty() {
        let layouts = due.iter().map(|&slot| candidates[slot].0.clone()).collect();
        for (&slot, (result, basis)) in due.iter().zip(scorer.score(layouts)) {
            let memo = (result, Some(Arc::new(basis)));
            if opts.memoize {
                cache.memoize(candidates[slot].1, memo.clone());
            }
            memos[slot] = Some(memo);
        }
    }
    candidates
        .into_iter()
        .zip(memos)
        .map(|(candidate, memo)| (candidate, memo.expect("every slot scored")))
        .collect()
}

/// A simulated layout: its traceless result and its trace's basis.
type Score = (SimResult, MoveBasis);

/// What a driving thread scores its search's rounds with.
struct Scorer<'s, 'a> {
    pool: &'s Pool,
    worker: &'s mut Worker<'a>,
    search: usize,
}

impl Scorer<'_, '_> {
    /// Scores `layouts` as one round, returning the scores in layout
    /// order. The round is posted for the other pool threads, the
    /// driver works it too, and while others finish it the driver
    /// works any other open round.
    fn score(&mut self, layouts: Vec<Layout>) -> Vec<Score> {
        let round = Arc::new(Round::new(self.search, layouts));
        if round.layouts.len() > 1 {
            self.pool.post(&round);
        }
        self.pool.work(&round, self.worker);
        while let Some(other) = self.pool.next_round(Some(&round)) {
            self.pool.work(&other, self.worker);
        }
        round.collect()
    }
}

/// One search iteration's due simulations. Every thread that works the
/// round claims layouts through one atomic cursor (simulation costs
/// vary, so static striping would idle the fast threads) and deposits
/// their scores. Simulation is a pure function of the layout, so which
/// thread scored which layout never shows: [`Round::collect`] returns
/// the scores in layout order.
struct Round {
    /// The search the round belongs to: which engine scores it.
    search: usize,
    layouts: Vec<Layout>,
    next: AtomicUsize,
    scored: Mutex<Scored>,
}

/// What a round's threads deposited.
#[derive(Default)]
struct Scored {
    /// `(layout index, score)`, in deposit order.
    scores: Vec<(usize, Score)>,
    /// A thread panicked while scoring: the round will never fill.
    failed: bool,
}

impl Round {
    fn new(search: usize, layouts: Vec<Layout>) -> Self {
        Round {
            search,
            layouts,
            next: AtomicUsize::new(0),
            scored: Mutex::default(),
        }
    }

    /// Whether a layout is left to claim.
    fn open(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.layouts.len()
    }

    /// Whether every layout is scored, or never will be.
    fn settled(&self) -> bool {
        let scored = lock(&self.scored);
        scored.failed || scored.scores.len() == self.layouts.len()
    }

    /// The scores in layout order.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while scoring the round.
    fn collect(&self) -> Vec<Score> {
        let mut scored = lock(&self.scored);
        assert!(!scored.failed, "a simulation on a pool thread panicked");
        assert_eq!(scored.scores.len(), self.layouts.len(), "round unsettled");
        let mut scores = std::mem::take(&mut scored.scores);
        scores.sort_unstable_by_key(|&(i, _)| i);
        scores.into_iter().map(|(_, score)| score).collect()
    }
}

/// A pool thread's engines, one per search, each built on this thread
/// the first time it scores that search's layouts: an engine keeps one
/// search's layout shape, whichever rounds its thread works.
struct Worker<'a> {
    program: &'a SimProgram<'a>,
    engines: Vec<Option<SimEngine<'a>>>,
    #[cfg(test)]
    probe: Option<Arc<probe::Probe>>,
}

impl<'a> Worker<'a> {
    fn new(pool: &Pool, program: &'a SimProgram<'a>) -> Self {
        Worker {
            program,
            engines: (0..pool.searches).map(|_| None).collect(),
            #[cfg(test)]
            probe: pool.probe.clone(),
        }
    }

    fn engine(&mut self, search: usize) -> &mut SimEngine<'a> {
        let program = self.program;
        self.engines[search].get_or_insert_with(|| SimEngine::new(program))
    }

    fn score(&mut self, search: usize, layout: &Layout) -> Score {
        #[cfg(test)]
        let probe = self.probe.clone();
        #[cfg(test)]
        let _scoring = probe.as_ref().map(|probe| probe.enter(search));
        self.engine(search).score(layout)
    }
}

/// The scoring pool of one [`anneal_all`] call, shared by its searches.
///
/// Drivers post their rounds here; a thread with nothing of its own to
/// score — a helper, a driver waiting for its round, a driver whose
/// search has ended — works the oldest open round of any search.
struct Pool {
    /// Searches in the call: the engine slots of every [`Worker`].
    searches: usize,
    state: Mutex<PoolState>,
    /// Signalled when a round is posted or settles, and when a search
    /// ends or a pool thread panics.
    changed: Condvar,
    #[cfg(test)]
    probe: Option<Arc<probe::Probe>>,
}

struct PoolState {
    /// Posted rounds that may still have layouts to claim, oldest first.
    open: Vec<Arc<Round>>,
    /// Searches not yet ended.
    running: usize,
    /// A pool thread panicked: searches of its lane may never start, so
    /// no thread waits for them.
    failed: bool,
}

impl Pool {
    fn new(searches: usize) -> Self {
        Pool {
            searches,
            state: Mutex::new(PoolState {
                open: Vec::new(),
                running: searches,
                failed: false,
            }),
            changed: Condvar::new(),
            #[cfg(test)]
            probe: probe::Probe::installed(),
        }
    }

    /// One pool thread's life: drive `lane`'s searches one after
    /// another, then help the others until every search has ended.
    fn serve<'a, R: Rng>(
        &self,
        program: &'a SimProgram<'a>,
        graph: &GroupGraph,
        opts: &DsaOptions,
        lane: Vec<(usize, Search<'_, R>)>,
    ) -> Vec<(usize, Outcome)> {
        let leaving = Leaving(self);
        let mut worker = Worker::new(self, program);
        let mut outcomes = Vec::with_capacity(lane.len());
        for (i, search) in lane {
            let Search {
                initial,
                mut rng,
                cache,
            } = search;
            let mut scorer = Scorer {
                pool: self,
                worker: &mut worker,
                search: i,
            };
            let (layout, stats) = anneal(graph, initial, opts, &mut rng, cache, &mut scorer);
            // Simulation is pure: this is the result the winner scored,
            // now with its trace.
            let estimate = worker.engine(i).simulate(&layout, true);
            self.update(|state| state.running -= 1);
            outcomes.push((i, (layout, estimate, stats)));
        }
        while let Some(round) = self.next_round(None) {
            self.work(&round, &mut worker);
        }
        drop(leaving);
        outcomes
    }

    /// Opens `round` to every pool thread.
    fn post(&self, round: &Arc<Round>) {
        self.update(|state| state.open.push(Arc::clone(round)));
    }

    /// Blocks until a posted round has a layout to claim and returns
    /// it, or returns `None` once there is nothing to wait for: for a
    /// driver, when its `own` round has settled; for a thread with no
    /// search left, when every search has ended or a pool thread
    /// panicked.
    fn next_round(&self, own: Option<&Round>) -> Option<Arc<Round>> {
        let mut state = lock(&self.state);
        loop {
            let done = match own {
                Some(own) => own.settled(),
                None => state.running == 0 || state.failed,
            };
            if done {
                return None;
            }
            state.open.retain(|round| round.open());
            if let Some(round) = state.open.first() {
                return Some(Arc::clone(round));
            }
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Scores `round`'s layouts on `worker` until none is left to
    /// claim, then deposits the scores.
    fn work(&self, round: &Round, worker: &mut Worker<'_>) {
        let failing = Failing(self, round);
        let mut local = Vec::new();
        loop {
            let i = round.next.fetch_add(1, Ordering::Relaxed);
            let Some(layout) = round.layouts.get(i) else {
                break;
            };
            local.push((i, worker.score(round.search, layout)));
        }
        drop(failing);
        if local.is_empty() {
            return;
        }
        let filled = {
            let mut scored = lock(&round.scored);
            scored.scores.append(&mut local);
            scored.scores.len() == round.layouts.len()
        };
        if filled {
            self.update(|_| ());
        }
    }

    /// Applies `change` to the pool state and wakes every waiting
    /// thread. Taking the state lock orders the wake-up after any
    /// waiter's check, so none is lost.
    fn update(&self, change: impl FnOnce(&mut PoolState)) {
        change(&mut lock(&self.state));
        self.changed.notify_all();
    }
}

/// Fails its round, and wakes the round's driver, when its thread
/// unwinds mid-round.
struct Failing<'p>(&'p Pool, &'p Round);

impl Drop for Failing<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(&self.1.scored).failed = true;
            self.0.update(|_| ());
        }
    }
}

/// Fails the pool when its thread unwinds: searches of that thread's
/// lane may never start, so the threads waiting for every search to
/// end stop waiting.
struct Leaving<'p>(&'p Pool);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.update(|state| state.failed = true);
        }
    }
}

/// Locks `mutex`, ignoring poisoning: a panicking thread leaves the
/// pool's state consistent (every update is a single assignment).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Test-only instrumentation of the scoring pool: a gauge of how many
/// threads score at once, and an injected simulation panic. A probe
/// reaches the pools created on the thread that installed it.
#[cfg(test)]
pub(crate) mod probe {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    thread_local! {
        static INSTALLED: RefCell<Option<Arc<Probe>>> = const { RefCell::new(None) };
    }

    #[derive(Default)]
    pub(crate) struct Probe {
        /// Threads scoring now.
        scoring: AtomicUsize,
        /// The most threads ever scoring at once.
        peak: AtomicUsize,
        /// Bit `i` set: search `i` scored a layout.
        searches: AtomicUsize,
        /// `(search, n)`: the `n`-th score of `search` panics.
        panic_at: Option<(usize, usize)>,
        /// Scores of the search named by `panic_at`.
        counted: AtomicUsize,
    }

    impl Probe {
        /// A probe that makes the `n`-th score of `search` panic.
        pub(crate) fn panicking_at(search: usize, n: usize) -> Probe {
            Probe {
                panic_at: Some((search, n)),
                ..Probe::default()
            }
        }

        /// Installs the probe for the pools this thread creates.
        pub(crate) fn install(self) -> Arc<Probe> {
            let probe = Arc::new(self);
            INSTALLED.with(|slot| *slot.borrow_mut() = Some(Arc::clone(&probe)));
            probe
        }

        pub(crate) fn peak(&self) -> usize {
            self.peak.load(Ordering::SeqCst)
        }

        pub(crate) fn searches(&self) -> usize {
            self.searches.load(Ordering::SeqCst)
        }

        pub(super) fn installed() -> Option<Arc<Probe>> {
            INSTALLED.with(|slot| slot.borrow().clone())
        }

        /// Counts a thread into scoring `search` until the guard drops.
        pub(super) fn enter(&self, search: usize) -> Scoring<'_> {
            if let Some((target, n)) = self.panic_at {
                if target == search && self.counted.fetch_add(1, Ordering::SeqCst) + 1 == n {
                    panic!("injected simulation panic");
                }
            }
            self.searches.fetch_or(1 << search, Ordering::SeqCst);
            let now = self.scoring.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            Scoring(self)
        }
    }

    pub(super) struct Scoring<'p>(&'p Probe);

    impl Drop for Scoring<'_> {
        fn drop(&mut self) {
            self.0.scoring.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::random_layouts;
    use crate::preprocess::scc_tree_transform;
    use crate::sim::simulate;
    use crate::testutil::kc_setup;
    use crate::transforms::compute_replication;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dsa_improves_on_single_core_start() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        // Start from the worst layout: everything on core 0.
        let cores: Vec<Vec<bamboo_machine::CoreId>> = graph
            .groups
            .iter()
            .enumerate()
            .map(|(g, _)| vec![bamboo_machine::CoreId::new(0); repl.copies[g]])
            .collect();
        let start = Layout::new(&graph, &repl, 4, &cores);
        let start_result = simulate(
            &spec,
            &graph,
            &start,
            &profile,
            &machine,
            &SimOptions {
                collect_trace: true,
                ..SimOptions::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(11);
        let (_best, result, stats) = optimize(
            &spec,
            &graph,
            &profile,
            &machine,
            vec![start],
            &DsaOptions::default(),
            &mut rng,
        );
        assert!(stats.simulations >= 1);
        assert!(
            result.makespan < start_result.makespan,
            "DSA failed to improve: {} !< {}",
            result.makespan,
            start_result.makespan
        );
    }

    #[test]
    fn dsa_finds_near_best_of_random_sample() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = random_layouts(&graph, &repl, 4, 20, &mut rng);
        let sample_best = sample
            .iter()
            .map(|l| {
                simulate(&spec, &graph, l, &profile, &machine, &SimOptions::default()).makespan
            })
            .min()
            .unwrap();
        let starts = random_layouts(&graph, &repl, 4, 3, &mut rng);
        let (_l, result, _s) = optimize(
            &spec,
            &graph,
            &profile,
            &machine,
            starts,
            &DsaOptions::default(),
            &mut rng,
        );
        assert!(
            result.makespan <= sample_best,
            "DSA {} worse than random sample best {}",
            result.makespan,
            sample_best
        );
    }

    /// One full optimize run with the given worker-thread count and
    /// memoization setting, from a fixed seed.
    fn run_with(threads: usize, memoize: bool) -> (Layout, SimResult, DsaStats) {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let mut rng = StdRng::seed_from_u64(23);
        let starts = random_layouts(&graph, &repl, 4, 6, &mut rng);
        let opts = DsaOptions {
            threads,
            memoize,
            ..DsaOptions::default()
        };
        optimize(&spec, &graph, &profile, &machine, starts, &opts, &mut rng)
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_serial() {
        let (serial_layout, serial_result, serial_stats) = run_with(1, true);
        for threads in [2, 3, 4, 8] {
            let (layout, result, stats) = run_with(threads, true);
            assert_eq!(layout, serial_layout, "{threads} threads: layout diverged");
            assert_eq!(result.makespan, serial_result.makespan);
            assert_eq!(stats, serial_stats, "{threads} threads: stats diverged");
        }
    }

    #[test]
    fn memoization_changes_work_but_not_results() {
        let (cold_layout, cold_result, cold_stats) = run_with(1, false);
        let (layout, result, stats) = run_with(1, true);
        assert_eq!(layout, cold_layout);
        assert_eq!(result.makespan, cold_result.makespan);
        assert_eq!(stats.trajectory, cold_stats.trajectory);
        assert_eq!(stats.candidates_evaluated, cold_stats.candidates_evaluated);
        // The cache only ever removes simulations.
        assert!(stats.simulations <= cold_stats.simulations);
        assert_eq!(
            stats.simulations + stats.cache_hits,
            stats.candidates_evaluated
        );
        assert_eq!(stats.simulations, stats.cache_misses);
        assert!(
            stats.cache_hits > 0,
            "survivors re-entering the pool should hit the cache"
        );
        assert_eq!(cold_stats.cache_hits, 0);
    }

    /// A cache warmed by one search replays the same proposals to the
    /// next: same layout and trajectory as a fresh cache. No cached
    /// result keeps a trace; the returned estimate carries the winner's.
    #[test]
    fn warmed_cache_replays_the_search_and_keeps_no_traces() {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let machine = MachineDescription::quad();
        let repl = compute_replication(&spec, &graph, &profile, 4);
        let starts = random_layouts(&graph, &repl, 4, 6, &mut StdRng::seed_from_u64(23));
        let opts = DsaOptions::default();
        let search = |cache: &mut SimCache| {
            let mut rng = StdRng::seed_from_u64(29);
            let initial = starts.clone();
            optimize_with_cache(
                &spec, &graph, &profile, &machine, initial, &opts, &mut rng, cache,
            )
        };
        let (fresh_layout, _, fresh_stats) = search(&mut SimCache::new());
        let mut cache = SimCache::new();
        search(&mut cache);
        let (layout, estimate, stats) = search(&mut cache);
        assert_eq!(layout, fresh_layout);
        assert_eq!(stats.trajectory, fresh_stats.trajectory);
        assert_eq!(stats.simulations, 0, "the second search replays everything");

        assert!(!cache.is_empty());
        for (result, basis) in cache.memos() {
            assert!(result.trace.is_none(), "a cached result kept its trace");
            assert!(basis.is_some(), "a scored entry lost its basis");
        }
        let traced = simulate(
            &spec,
            &graph,
            &layout,
            &profile,
            &machine,
            &SimOptions {
                collect_trace: true,
                ..SimOptions::default()
            },
        );
        assert!(estimate.trace.is_some());
        assert_eq!(estimate.trace, traced.trace);
        assert_eq!(estimate.makespan, traced.makespan);
    }

    #[test]
    fn merge_counters_sums_volume_and_keeps_trajectory() {
        let mut a = DsaStats {
            iterations: 3,
            simulations: 30,
            candidates_evaluated: 40,
            survivors: 12,
            cache_hits: 10,
            cache_misses: 30,
            delta_hits: 4,
            cache_evictions: 1,
            trajectory: vec![900, 800],
            best_makespan: 800,
        };
        let b = DsaStats {
            iterations: 2,
            simulations: 15,
            candidates_evaluated: 20,
            survivors: 9,
            cache_hits: 5,
            cache_misses: 15,
            delta_hits: 2,
            cache_evictions: 2,
            trajectory: vec![1000, 950],
            best_makespan: 950,
        };
        a.merge_counters(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.simulations, 45);
        assert_eq!(a.candidates_evaluated, 60);
        assert_eq!(a.survivors, 21);
        assert_eq!(a.cache_hits, 15);
        assert_eq!(a.cache_misses, 45);
        assert_eq!(a.delta_hits, 6);
        assert_eq!(a.cache_evictions, 3);
        assert_eq!(a.trajectory, vec![900, 800]);
        assert_eq!(a.best_makespan, 800);
    }

    #[test]
    #[should_panic(expected = "at least one starting layout")]
    fn empty_start_panics() {
        let (spec, cstg, profile) = kc_setup();
        let graph = GroupGraph::build(&spec, &cstg, &profile);
        let machine = MachineDescription::quad();
        let mut rng = StdRng::seed_from_u64(0);
        optimize(
            &spec,
            &graph,
            &profile,
            &machine,
            vec![],
            &DsaOptions::default(),
            &mut rng,
        );
    }
}
