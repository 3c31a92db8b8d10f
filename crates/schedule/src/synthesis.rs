//! Top-level implementation synthesis (paper §4).
//!
//! Chains the whole pipeline: group-graph construction → SCC tree
//! preprocessing → parallelization transforms → random candidate mapping
//! generation → directed-simulated-annealing optimization. The result is
//! an optimized [`Layout`] plus the artifacts downstream consumers (the
//! runtime's executors, the experiment harness) need.

use crate::dsa::{optimize, worker_threads, DsaOptions, DsaStats};
use crate::groups::GroupGraph;
use crate::layout::Layout;
use crate::mapping::{control_spread_layout, random_layouts, spread_layout};
use crate::preprocess::scc_tree_transform;
use crate::sim::SimResult;
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
    /// Worker threads for the whole synthesis pipeline: the annealer's
    /// candidate evaluations fan out over this many threads
    /// (overriding [`DsaOptions::threads`]), and replication variants
    /// anneal concurrently when more than one is searched. `0` uses
    /// every available core; `1` runs fully serially. The synthesized
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
/// order), which makes the variants independent: they run concurrently
/// when [`SynthesisOptions::threads`] permits, and the result is
/// bit-identical to the serial schedule either way. The better variant
/// wins (ties break toward the full variant); its statistics absorb the
/// losing variants' volume counters via [`DsaStats::merge_counters`], so
/// `stats.simulations` reports the whole search's work while the
/// trajectory stays the winner's.
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
    // scheduled.
    let seeds: Vec<u64> = variants.iter().map(|_| rng.next_u64()).collect();
    let dsa_opts = DsaOptions {
        threads: opts.threads,
        ..opts.dsa.clone()
    };
    let run_variant = |replication: Replication, seed: u64| -> SynthesisResult {
        let mut vrng = StdRng::seed_from_u64(seed);
        let mut initial = random_layouts(
            &graph,
            &replication,
            cores,
            opts.initial_candidates.max(1),
            &mut vrng,
        );
        // Seed the annealer with the canonical data-parallel layouts too.
        initial.push(spread_layout(&graph, &replication, cores));
        initial.push(control_spread_layout(&graph, &replication, cores));
        let (layout, estimate, stats) = optimize(
            spec, &graph, profile, machine, initial, &dsa_opts, &mut vrng,
        );
        SynthesisResult {
            graph: graph.clone(),
            replication,
            layout,
            estimate,
            stats,
        }
    };

    let searched: Vec<SynthesisResult> = if worker_threads(opts.threads) > 1 && variants.len() > 1 {
        let run_variant = &run_variant;
        std::thread::scope(|scope| {
            let handles: Vec<_> = variants
                .into_iter()
                .zip(seeds)
                .map(|(replication, seed)| scope.spawn(move || run_variant(replication, seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("variant search panicked"))
                .collect()
        })
    } else {
        variants
            .into_iter()
            .zip(seeds)
            .map(|(replication, seed)| run_variant(replication, seed))
            .collect()
    };

    let winner = searched
        .iter()
        .enumerate()
        .min_by_key(|(i, r)| (r.estimate.makespan, *i))
        .map(|(i, _)| i)
        .expect("at least one variant searched");
    let mut merged_stats = searched[winner].stats.clone();
    for (i, other) in searched.iter().enumerate() {
        if i != winner {
            merged_stats.merge_counters(&other.stats);
        }
    }
    let mut result = searched
        .into_iter()
        .nth(winner)
        .expect("winner index in range");
    result.stats = merged_stats;
    result
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
    use crate::sim::{simulate, SimOptions};
    use crate::testutil::kc_setup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        for threads in [2, 4, 8] {
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

    #[test]
    fn single_core_plan_uses_one_core() {
        let (spec, cstg, _) = kc_setup();
        let (_, layout) = bootstrap_plan(&spec, &cstg);
        assert_eq!(layout.cores_used(), 1);
    }
}
