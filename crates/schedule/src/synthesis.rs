//! Top-level implementation synthesis (paper §4).
//!
//! Chains the whole pipeline: group-graph construction → SCC tree
//! preprocessing → parallelization transforms → random candidate mapping
//! generation → directed-simulated-annealing optimization. The result is
//! an optimized [`Layout`] plus the artifacts downstream consumers (the
//! runtime's executors, the experiment harness) need.

use crate::dsa::{anneal_all, DsaOptions, DsaStats, Search};
use crate::groups::GroupGraph;
use crate::layout::Layout;
use crate::mapping::{control_spread_layout, random_layouts, spread_layout};
use crate::preprocess::scc_tree_transform;
use crate::sim::{SimCache, SimProgram, SimResult};
use crate::transforms::{compute_replication, replicable, Replication};
use bamboo_analysis::cstg::Cstg;
use bamboo_lang::spec::ProgramSpec;
use bamboo_machine::MachineDescription;
use bamboo_profile::{Profile, ProfileCollector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthesis configuration.
#[derive(Clone, Debug)]
pub struct SynthesisOptions {
    /// Random starting layouts handed to the annealer.
    pub initial_candidates: usize,
    /// Threads for the whole synthesis, the caller's included
    /// (overriding [`DsaOptions::threads`]): one scoring pool of this
    /// many threads serves every replication variant's search. With
    /// two or more threads each variant is driven on its own thread
    /// and the rest help; every thread scores whichever variant's
    /// candidates are open. `0` uses every available core; `1` runs
    /// the variants one after another on the caller. The synthesized
    /// layout, estimate, and statistics are bit-identical at any
    /// setting.
    pub threads: usize,
    /// Annealer configuration.
    pub dsa: DsaOptions,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            initial_candidates: 8,
            threads: 0,
            dsa: DsaOptions::default(),
        }
    }
}

impl SynthesisOptions {
    /// Returns the options with the pipeline thread count set.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Everything the synthesizer produced.
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    /// The preprocessed group graph the layout refers to.
    pub graph: GroupGraph,
    /// Replication factors applied.
    pub replication: Replication,
    /// The winning layout.
    pub layout: Layout,
    /// Its simulated performance.
    pub estimate: SimResult,
    /// Search statistics.
    pub stats: DsaStats,
}

/// Runs the full synthesis pipeline for `machine`.
///
/// Two replication variants are searched when the program has a serial
/// (non-replicable) working group: the full variant replicates consumers
/// up to the core count, while the *reserved* variant caps replication at
/// `cores - 1`, leaving a dedicated core for the serial group — the shape
/// behind the paper's pipelined MonteCarlo layout. Each variant anneals
/// with its own RNG seeded from `rng` (drawn up front, in variant
/// order), which makes the variants independent: they share one
/// scoring pool of [`SynthesisOptions::threads`] threads, and the
/// result is bit-identical however the pool interleaves them. The
/// better variant wins (ties break toward the full variant); its
/// statistics absorb the losing variants' volume counters via
/// [`DsaStats::merge_counters`], so `stats.simulations` reports the
/// whole search's work while the trajectory stays the winner's.
pub fn synthesize<R: Rng>(
    spec: &ProgramSpec,
    cstg: &Cstg,
    profile: &Profile,
    machine: &MachineDescription,
    opts: &SynthesisOptions,
    rng: &mut R,
) -> SynthesisResult {
    let graph = scc_tree_transform(&GroupGraph::build(spec, cstg, profile));
    let cores = machine.core_count();
    let full = compute_replication(spec, &graph, profile, cores);

    let mut variants = vec![full.clone()];
    let has_serial_worker = (0..graph.groups.len()).any(|g| {
        let gid = crate::groups::GroupId(g as u32);
        gid != graph.startup_group
            && !graph.groups[g].tasks.is_empty()
            && !replicable(spec, &graph, gid)
    });
    if cores > 1 && has_serial_worker && full.copies.iter().any(|&c| c > cores - 1) {
        let reserved = Replication {
            copies: full.copies.iter().map(|&c| c.min(cores - 1)).collect(),
        };
        variants.push(reserved);
    }

    // Independent per-variant RNGs, seeded from the caller's stream in
    // variant order — the only `rng` consumption in this function, so
    // the caller's stream advances identically however the variants are
    // scheduled. Each variant's RNG draws its starting layouts, then
    // drives its search.
    let dsa_opts = DsaOptions {
        threads: opts.threads,
        ..opts.dsa.clone()
    };
    let mut caches: Vec<SimCache> = variants.iter().map(|_| SimCache::new()).collect();
    let searches: Vec<Search<'_, StdRng>> = variants
        .iter()
        .zip(caches.iter_mut())
        .map(|(replication, cache)| {
            let mut vrng = StdRng::seed_from_u64(rng.next_u64());
            let mut initial = random_layouts(
                &graph,
                replication,
                cores,
                opts.initial_candidates.max(1),
                &mut vrng,
            );
            // Seed the annealer with the canonical data-parallel layouts too.
            initial.push(spread_layout(&graph, replication, cores));
            initial.push(control_spread_layout(&graph, replication, cores));
            Search {
                initial,
                rng: vrng,
                cache,
            }
        })
        .collect();
    let program = SimProgram::new(spec, &graph, profile, machine, &dsa_opts.sim);
    let searched = anneal_all(&program, &graph, &dsa_opts, searches);

    let winner = searched
        .iter()
        .enumerate()
        .min_by_key(|(i, (_, estimate, _))| (estimate.makespan, *i))
        .map(|(i, _)| i)
        .expect("at least one variant searched");
    let mut stats = searched[winner].2.clone();
    for (i, (_, _, other)) in searched.iter().enumerate() {
        if i != winner {
            stats.merge_counters(other);
        }
    }
    let (layout, estimate, _) = searched
        .into_iter()
        .nth(winner)
        .expect("winner index in range");
    SynthesisResult {
        graph,
        replication: variants.swap_remove(winner),
        layout,
        estimate,
        stats,
    }
}

/// Builds the bootstrap plan the profiling run executes (paper
/// §4.3.1): base groups annotated by an empty profile (allocation means
/// default to 1; layout-independent execution does not consult them),
/// no replication, everything on core 0.
pub fn bootstrap_plan(spec: &ProgramSpec, cstg: &Cstg) -> (GroupGraph, Layout) {
    let empty = ProfileCollector::new(spec, "bootstrap").finish();
    let graph = GroupGraph::build(spec, cstg, &empty);
    let layout = Layout::single_core(&graph);
    (graph, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsa::probe::Probe;
    use crate::sim::{simulate, SimOptions};
    use crate::testutil::kc_setup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::AssertUnwindSafe;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn synthesis_beats_single_core() {
        let (spec, cstg, profile) = kc_setup();
        let machine = MachineDescription::quad();
        let mut rng = StdRng::seed_from_u64(2024);
        let result = synthesize(
            &spec,
            &cstg,
            &profile,
            &machine,
            &SynthesisOptions::default(),
            &mut rng,
        );
        let (graph1, layout1) = bootstrap_plan(&spec, &cstg);
        let single = simulate(
            &spec,
            &graph1,
            &layout1,
            &profile,
            &machine,
            &SimOptions::default(),
        );
        assert!(result.estimate.completed);
        assert!(
            result.estimate.makespan < single.makespan,
            "synthesized {} !< single-core {}",
            result.estimate.makespan,
            single.makespan
        );
    }

    #[test]
    fn synthesis_is_reproducible_with_seed() {
        let (spec, cstg, profile) = kc_setup();
        let machine = MachineDescription::quad();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            synthesize(
                &spec,
                &cstg,
                &profile,
                &machine,
                &SynthesisOptions::default(),
                &mut rng,
            )
            .estimate
            .makespan
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn synthesis_is_thread_count_invariant() {
        let (spec, cstg, profile) = kc_setup();
        let machine = MachineDescription::quad();
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(31);
            let opts = SynthesisOptions::default().with_threads(threads);
            synthesize(&spec, &cstg, &profile, &machine, &opts, &mut rng)
        };
        let serial = run(1);
        // Three threads over two variants: two drivers and one helper.
        for threads in [2, 3, 4, 8] {
            let parallel = run(threads);
            assert_eq!(
                parallel.layout, serial.layout,
                "{threads} threads: layout diverged"
            );
            assert_eq!(parallel.estimate.makespan, serial.estimate.makespan);
            assert_eq!(
                parallel.stats, serial.stats,
                "{threads} threads: stats diverged"
            );
            assert_eq!(parallel.replication, serial.replication);
        }
    }

    #[test]
    fn synthesis_stats_merge_is_explicit_not_clamped() {
        let (spec, cstg, profile) = kc_setup();
        let machine = MachineDescription::quad();
        let mut rng = StdRng::seed_from_u64(2024);
        let result = synthesize(
            &spec,
            &cstg,
            &profile,
            &machine,
            &SynthesisOptions::default(),
            &mut rng,
        );
        let stats = &result.stats;
        // Volume counters are real sums over every variant searched, not
        // a clamped placeholder.
        assert!(stats.simulations > 1);
        assert_eq!(stats.simulations, stats.cache_misses);
        assert_eq!(
            stats.simulations + stats.cache_hits,
            stats.candidates_evaluated
        );
        assert!(stats.iterations >= stats.trajectory.len());
        // The trajectory stays the winning variant's: non-increasing and
        // ending at the reported best makespan.
        assert!(stats.trajectory.windows(2).all(|w| w[1] <= w[0]));
        assert_eq!(stats.trajectory.last().copied(), Some(stats.best_makespan));
        assert_eq!(stats.best_makespan, result.estimate.makespan);
    }

    /// Runs the default two-variant synthesis of `kc_setup` on the quad
    /// machine with `threads` threads on a fresh thread that installs
    /// `probe`, and returns the probe and the result (`Err` if the
    /// synthesis panicked). Fails if it does not return within a minute.
    fn probed(threads: usize, probe: Probe) -> (Arc<Probe>, std::thread::Result<SynthesisResult>) {
        let (done, finished) = mpsc::channel();
        let run = std::thread::spawn(move || {
            let probe = probe.install();
            let (spec, cstg, profile) = kc_setup();
            let mut rng = StdRng::seed_from_u64(2024);
            let opts = SynthesisOptions::default().with_threads(threads);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                synthesize(
                    &spec,
                    &cstg,
                    &profile,
                    &MachineDescription::quad(),
                    &opts,
                    &mut rng,
                )
            }));
            done.send(()).expect("test thread waits");
            (probe, result)
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => run.join().expect("the probed thread catches panics"),
            Err(_) => panic!("{threads} threads: synthesize hung"),
        }
    }

    #[test]
    fn at_most_the_pool_threads_score_at_once() {
        for threads in [1, 2, 3] {
            let (probe, result) = probed(threads, Probe::default());
            assert!(result.is_ok(), "{threads} threads: synthesis panicked");
            assert_eq!(probe.searches(), 0b11, "both variants scored");
            let peak = probe.peak();
            assert!(
                (1..=threads).contains(&peak),
                "{threads} threads: {peak} threads scored at once"
            );
        }
    }

    #[test]
    fn a_panicking_simulation_fails_synthesis_instead_of_hanging() {
        for threads in [1, 2, 3] {
            let (_, result) = probed(threads, Probe::panicking_at(1, 3));
            let panic = result.expect_err("the injected panic propagates");
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
            assert!(
                matches!(
                    message,
                    Some("injected simulation panic" | "a simulation on a pool thread panicked")
                ),
                "{threads} threads: unexpected panic {message:?}"
            );
        }
    }

    #[test]
    fn single_core_plan_uses_one_core() {
        let (spec, cstg, _) = kc_setup();
        let (_, layout) = bootstrap_plan(&spec, &cstg);
        assert_eq!(layout.cores_used(), 1);
    }
}
