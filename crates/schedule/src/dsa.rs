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
//! * each iteration's un-memoized candidates are scored by a pool that
//!   lives as long as the search: [`DsaOptions::threads`] `− 1` helper
//!   threads, started once, and the driver thread itself, all claiming
//!   candidates from one atomic cursor. Results are collected back **in
//!   candidate index order**, so sorting, pruning, and [`DsaStats`] are
//!   bit-identical at any thread count; one thread is the same pool
//!   with no helpers;
//! * a [`SimCache`] keyed by [`Layout::fingerprint`] replays results for
//!   layouts whose signature was already simulated
//!   ([`DsaOptions::memoize`]), so survivors re-entering the pool never
//!   re-simulate.
//!
//! All randomness (pruning, move generation) stays on the single driver
//! thread, which is the determinism argument: the RNG consumption
//! sequence is independent of the worker count *and* of the cache (the
//! candidate pool is fingerprint-deduplicated either way), so one seed
//! produces one trajectory at any thread count.
//!
//! # Per-candidate cost
//!
//! Candidates score on reusable [`SimEngine`]s, one per thread and built
//! on the thread that runs it, over a shared [`SimProgram`]: prediction
//! streams, the event kernel's arenas and its trace buffer persist
//! across the hundreds of simulations of one search. A candidate's trace
//! never leaves the thread that simulated it: that thread derives the
//! trace's [`MoveBasis`] — all that move generation reads of a trace —
//! and the engine refills the same buffer on its next simulation.
//! Scores and the memo cache carry the basis; only the winner is
//! simulated once more, with a trace, for the estimate returned.

use crate::critpath::{apply_move, MoveBasis, MoveProposal};
use crate::groups::GroupGraph;
use crate::layout::{InstanceId, Layout};
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
    /// Threads that simulate candidates: the driver and `threads − 1`
    /// helpers started once per search. `0` uses every available core,
    /// `1` evaluates serially on the driver thread. The result is
    /// bit-identical at any setting.
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
pub fn optimize<R: Rng>(
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
pub fn optimize_with_cache<R: Rng>(
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
    let pool = Pool::default();
    std::thread::scope(|scope| {
        for _ in 1..worker_threads(opts.threads) {
            scope.spawn(|| pool.help(&program));
        }
        // Closes the pool on the way out, panics included, so the scope
        // can join the helpers.
        let closing = Closing(&pool);
        let mut engine = SimEngine::new(&program);
        let (layout, stats) = anneal(graph, initial, opts, rng, cache, &pool, &mut engine);
        drop(closing);
        // Simulation is pure: this is the result the winner scored, now
        // with its trace.
        let estimate = engine.simulate(&layout, true);
        (layout, estimate, stats)
    })
}

/// The search loop of [`optimize_with_cache`], scoring on `engine` and
/// `pool`. Returns the best layout and the search statistics.
fn anneal<R: Rng>(
    graph: &GroupGraph,
    initial: Vec<Layout>,
    opts: &DsaOptions,
    rng: &mut R,
    cache: &mut SimCache,
    pool: &Pool,
    engine: &mut SimEngine<'_>,
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
    // cache is on or off.
    let mut candidates: Vec<Layout> = Vec::with_capacity(initial.len());
    for layout in initial {
        if seen.insert(layout.fingerprint(graph)) {
            candidates.push(layout);
        }
    }

    for _ in 0..opts.max_iterations {
        stats.iterations += 1;
        // Evaluate: replay memoized results, score the rest on the
        // pool, and reassemble in candidate index order.
        let pending = std::mem::take(&mut candidates);
        let mut evaluated =
            evaluate_candidates(graph, opts, pending, cache, pool, engine, &mut stats);
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
        let survivors: Vec<(Layout, Memo)> = evaluated
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
        if let Some((layout, (result, _))) = survivors.first() {
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
        // that no single migration can improve).
        let mut next: Vec<Layout> = Vec::new();
        for (layout, (_, basis)) in &survivors {
            let Some(basis) = basis else { continue };
            let mut mutated: Vec<Layout> = Vec::new();
            for proposal in basis.propose(rng, opts.moves_per_layout) {
                mutated.push(apply_move(layout, proposal));
            }
            for _ in 0..2 {
                if layout.instances.len() > 1 {
                    let inst = InstanceId(rng.gen_range(1..layout.instances.len()) as u32);
                    let core = CoreId::new(rng.gen_range(0..layout.core_count));
                    mutated.push(apply_move(
                        layout,
                        MoveProposal {
                            instance: inst,
                            to_core: core,
                        },
                    ));
                }
            }
            for _ in 0..2 {
                if layout.instances.len() > 2 {
                    let a = rng.gen_range(1..layout.instances.len());
                    let b = rng.gen_range(1..layout.instances.len());
                    if a != b {
                        let (ca, cb) = (layout.instances[a].core, layout.instances[b].core);
                        if ca != cb {
                            let swapped = apply_move(
                                &apply_move(
                                    layout,
                                    MoveProposal {
                                        instance: InstanceId(a as u32),
                                        to_core: cb,
                                    },
                                ),
                                MoveProposal {
                                    instance: InstanceId(b as u32),
                                    to_core: ca,
                                },
                            );
                            mutated.push(swapped);
                        }
                    }
                }
            }
            for moved in mutated {
                if seen.insert(moved.fingerprint(graph)) {
                    next.push(moved);
                }
                if next.len() >= opts.max_candidates {
                    break;
                }
            }
        }
        // Survivors stay in the pool too (their bases may yield different
        // random groups next round).
        for (layout, _) in survivors {
            if next.len() >= opts.max_candidates {
                break;
            }
            next.push(layout);
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
/// Memoized fingerprints replay from `cache`; the rest are posted to
/// `pool` as one round, which the driver works on `engine` too.
fn evaluate_candidates(
    graph: &GroupGraph,
    opts: &DsaOptions,
    candidates: Vec<Layout>,
    cache: &mut SimCache,
    pool: &Pool,
    engine: &mut SimEngine<'_>,
    stats: &mut DsaStats,
) -> Vec<(Layout, Memo)> {
    let mut memos: Vec<Option<Memo>> = vec![None; candidates.len()];
    let mut due: Vec<usize> = Vec::with_capacity(candidates.len());
    let mut fingerprints: Vec<u64> = vec![0; candidates.len()];
    for (slot, layout) in candidates.iter().enumerate() {
        if opts.memoize {
            let fp = layout.fingerprint(graph);
            fingerprints[slot] = fp;
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
        let round = Arc::new(Round::new(
            due.iter().map(|&slot| candidates[slot].clone()).collect(),
        ));
        if due.len() > 1 {
            pool.post(Arc::clone(&round));
        }
        round.work(engine);
        for (i, (result, basis)) in round.collect() {
            let slot = due[i];
            let memo = (result, Some(Arc::new(basis)));
            if opts.memoize {
                cache.memoize(fingerprints[slot], memo.clone());
            }
            memos[slot] = Some(memo);
        }
    }
    candidates
        .into_iter()
        .zip(memos)
        .map(|(layout, memo)| (layout, memo.expect("every slot scored")))
        .collect()
}

/// One iteration's due simulations. The driver and the helpers claim
/// layouts through one atomic cursor (simulation costs vary, so static
/// striping would idle the fast threads) and deposit their scores.
/// Simulation is a pure function of the layout, so which thread scored
/// which layout never shows: [`Round::collect`] returns the scores in
/// layout order.
struct Round {
    layouts: Vec<Layout>,
    next: AtomicUsize,
    scored: Mutex<Scored>,
    filled: Condvar,
}

/// A simulated layout: its traceless result and its trace's basis.
type Score = (SimResult, MoveBasis);

/// What a round's threads deposited.
#[derive(Default)]
struct Scored {
    /// `(layout index, score)`, in deposit order.
    scores: Vec<(usize, Score)>,
    /// A helper panicked: the round will never fill.
    failed: bool,
}

impl Round {
    fn new(layouts: Vec<Layout>) -> Self {
        Round {
            next: AtomicUsize::new(0),
            scored: Mutex::default(),
            filled: Condvar::new(),
            layouts,
        }
    }

    /// Scores layouts on `engine` until none is left to claim.
    fn work(&self, engine: &mut SimEngine<'_>) {
        let failing = Failing(self);
        let mut local = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(layout) = self.layouts.get(i) else {
                break;
            };
            local.push((i, engine.score(layout)));
        }
        drop(failing);
        if !local.is_empty() {
            let mut scored = lock(&self.scored);
            scored.scores.append(&mut local);
            if scored.scores.len() == self.layouts.len() {
                self.filled.notify_all();
            }
        }
    }

    /// Waits until every layout is scored; returns the scores in layout
    /// order.
    fn collect(&self) -> Vec<(usize, Score)> {
        let mut scored = lock(&self.scored);
        while scored.scores.len() < self.layouts.len() {
            assert!(!scored.failed, "a simulation helper panicked");
            scored = self
                .filled
                .wait(scored)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let mut scores = std::mem::take(&mut scored.scores);
        scores.sort_unstable_by_key(|&(i, _)| i);
        scores
    }
}

/// Wakes the driver out of [`Round::collect`] when a helper panics
/// mid-round.
struct Failing<'r>(&'r Round);

impl Drop for Failing<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            lock(&self.0.scored).failed = true;
            self.0.filled.notify_all();
        }
    }
}

/// The helpers of one search: each sleeps until the driver posts a
/// round, works it on its own engine, and exits when the pool closes.
#[derive(Default)]
struct Pool {
    posted: Mutex<Posted>,
    wake: Condvar,
}

#[derive(Default)]
struct Posted {
    round: Option<Arc<Round>>,
    /// Rounds posted so far.
    serial: u64,
    closed: bool,
}

impl Pool {
    /// A helper thread's life: build an engine here, on this thread,
    /// then work every round posted until the pool closes.
    fn help(&self, program: &SimProgram<'_>) {
        let mut engine = SimEngine::new(program);
        let mut seen = 0;
        loop {
            let round = {
                let mut posted = lock(&self.posted);
                while posted.serial == seen && !posted.closed {
                    posted = self
                        .wake
                        .wait(posted)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                if posted.closed {
                    return;
                }
                seen = posted.serial;
                posted.round.clone()
            };
            if let Some(round) = round {
                round.work(&mut engine);
            }
        }
    }

    fn post(&self, round: Arc<Round>) {
        let mut posted = lock(&self.posted);
        posted.round = Some(round);
        posted.serial += 1;
        self.wake.notify_all();
    }
}

/// Closes its pool when dropped: the helpers finish their round and
/// exit.
struct Closing<'p>(&'p Pool);

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        let mut posted = lock(&self.0.posted);
        posted.closed = true;
        posted.round = None;
        self.0.wake.notify_all();
    }
}

/// Locks `mutex`, ignoring poisoning: a panicking thread leaves the
/// pool's state consistent (every update is a single assignment).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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
        for threads in [2, 4, 8] {
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
