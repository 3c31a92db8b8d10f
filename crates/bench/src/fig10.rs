//! Experiment E3: the paper's Figure 10 — efficiency of directed
//! simulated annealing.
//!
//! On a 16-core target (as in the paper): enumerate candidate
//! implementations exhaustively (up to a configurable cap; the full space
//! is astronomically large for some benchmarks, and the paper itself
//! skips Tracking for this reason), simulate each, and histogram the
//! estimated execution times. Then run DSA from many random starting
//! points and histogram the results it converges to. The paper's claim:
//! good layouts are rare in the candidate space, yet DSA reaches the best
//! layout from ≥98% of random starts.

use bamboo::schedule::{
    compute_replication, enumerate_mappings, optimize, random_layouts, scc_tree_transform,
    simulate, DsaOptions, MappingOptions, SimOptions,
};
use bamboo::Cycles;
use bamboo::{Compiler, MachineDescription};
use bamboo_apps::{Benchmark, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the experiment.
#[derive(Clone, Debug)]
pub struct Fig10Options {
    /// Core count of the target (the paper uses 16).
    pub cores: usize,
    /// Cap on exhaustively enumerated candidates.
    pub enumerate_cap: usize,
    /// Number of random DSA starting points (the paper uses 1000).
    pub dsa_starts: usize,
    /// Workload scale.
    pub scale: Scale,
}

impl Default for Fig10Options {
    fn default() -> Self {
        Fig10Options {
            cores: 16,
            enumerate_cap: 50_000,
            dsa_starts: 500,
            scale: Scale::Original,
        }
    }
}

/// Results for one benchmark.
#[derive(Clone, Debug)]
pub struct Fig10Result {
    /// Benchmark name.
    pub name: &'static str,
    /// Estimated makespans of the enumerated candidates.
    pub candidates: Vec<Cycles>,
    /// Whether `candidates` covers the whole space or hit the cap.
    pub exhaustive: bool,
    /// Best makespans reached by DSA, one per random start.
    pub dsa_results: Vec<Cycles>,
}

impl Fig10Result {
    /// Best candidate makespan observed anywhere.
    pub fn best(&self) -> Cycles {
        self.candidates
            .iter()
            .chain(self.dsa_results.iter())
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// Fraction of enumerated candidates within `tol` of the best.
    pub fn candidate_hit_rate(&self, tol: f64) -> f64 {
        hit_rate(&self.candidates, self.best(), tol)
    }

    /// Fraction of DSA runs within `tol` of the best.
    pub fn dsa_hit_rate(&self, tol: f64) -> f64 {
        hit_rate(&self.dsa_results, self.best(), tol)
    }
}

fn hit_rate(values: &[Cycles], best: Cycles, tol: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let cutoff = best as f64 * (1.0 + tol);
    values.iter().filter(|&&v| (v as f64) <= cutoff).count() as f64 / values.len() as f64
}

/// Runs the experiment for one benchmark.
pub fn run_benchmark(bench: &dyn Benchmark, opts: &Fig10Options, seed: u64) -> Fig10Result {
    let compiler: Compiler = bench.compiler(opts.scale);
    let (profile, _, ()) = compiler
        .profile_run(None, "original", |_| ())
        .expect("profiling run succeeds");
    let machine = MachineDescription::n_cores(opts.cores);
    let graph = scc_tree_transform(&compiler.graph_with_profile(&profile));
    let replication = compute_replication(&compiler.program.spec, &graph, &profile, opts.cores);
    let spec = &compiler.program.spec;

    // Exhaustive (capped) enumeration + simulation.
    let mut candidates = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let yielded = enumerate_mappings(
        &graph,
        &replication,
        &MappingOptions {
            core_count: opts.cores,
            limit: opts.enumerate_cap,
            skip_probability: 0.0,
        },
        &mut rng,
        |layout| {
            let result = simulate(
                spec,
                &graph,
                &layout,
                &profile,
                &machine,
                &SimOptions::default(),
            );
            candidates.push(result.makespan);
        },
    );
    let exhaustive = yielded < opts.enumerate_cap;

    // DSA from random starting points.
    let dsa_opts = DsaOptions {
        max_iterations: 40,
        continue_probability: 0.9,
        ..DsaOptions::default()
    };
    let mut dsa_results = Vec::with_capacity(opts.dsa_starts);
    for i in 0..opts.dsa_starts {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED << 8) ^ i as u64);
        let start = random_layouts(&graph, &replication, opts.cores, 1, &mut rng);
        let (_, result, _) = optimize(spec, &graph, &profile, &machine, start, &dsa_opts, &mut rng);
        dsa_results.push(result.makespan);
    }

    Fig10Result {
        name: bench.name(),
        candidates,
        exhaustive,
        dsa_results,
    }
}

/// The whole figure as committed in `results/fig10.txt`: every
/// benchmark but Tracking at [`Fig10Options::default`], seed 42.
pub fn render() -> String {
    let opts = Fig10Options::default();
    let mut out = format!(
        "== Figure 10: DSA efficiency on {} cores ({} starts, cap {}) ==\n\n",
        opts.cores, opts.dsa_starts, opts.enumerate_cap
    );
    for bench in bamboo_apps::all() {
        if bench.name() == "Tracking" {
            out.push_str("== Tracking ==\nskipped: exhaustive enumeration prohibitively expensive (as in the paper)\n\n");
            continue;
        }
        let result = run_benchmark(bench.as_ref(), &opts, 42);
        out.push_str(&format_result(&result, 0.01));
        out.push('\n');
    }
    out
}

/// Renders an ASCII histogram of `values` (relative percentages, like the
/// paper's bar charts).
pub fn histogram(values: &[Cycles], buckets: usize) -> String {
    if values.is_empty() {
        return "(no data)\n".to_string();
    }
    let min = *values.iter().min().expect("non-empty");
    let max = *values.iter().max().expect("non-empty");
    let span = (max - min).max(1);
    let mut counts = vec![0usize; buckets];
    for &v in values {
        let b = (((v - min) as u128 * buckets as u128) / (span as u128 + 1)) as usize;
        counts[b.min(buckets - 1)] += 1;
    }
    let total = values.len() as f64;
    let mut out = String::new();
    for (i, &count) in counts.iter().enumerate() {
        let lo = min + span * i as u64 / buckets as u64;
        let pct = count as f64 / total * 100.0;
        let bar = "#".repeat((pct / 2.0).round() as usize);
        out.push_str(&format!(
            "{:>10.2}e8 {:>6.2}% {}\n",
            lo as f64 / 1e8,
            pct,
            bar
        ));
    }
    out
}

/// Formats one benchmark's result like a panel of Figure 10.
pub fn format_result(result: &Fig10Result, tol: f64) -> String {
    let mut out = format!(
        "== {} ==\ncandidates: {}{}  best={:.2}e8  within {:.0}% of best: {:.2}%\n",
        result.name,
        result.candidates.len(),
        if result.exhaustive {
            " (exhaustive)"
        } else {
            " (capped sample)"
        },
        result.best() as f64 / 1e8,
        tol * 100.0,
        result.candidate_hit_rate(tol) * 100.0,
    );
    out.push_str("distribution of all candidate implementations:\n");
    out.push_str(&histogram(&result.candidates, 16));
    out.push_str(&format!(
        "DSA from {} random starts: within {:.0}% of best: {:.2}%  (within 5%: {:.2}%)\n",
        result.dsa_results.len(),
        tol * 100.0,
        result.dsa_hit_rate(tol) * 100.0,
        result.dsa_hit_rate(0.05) * 100.0,
    ));
    out.push_str("distribution of DSA results:\n");
    out.push_str(&histogram(&result.dsa_results, 16));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsa_beats_random_candidates_on_small_series() {
        let bench = bamboo_apps::series::Series;
        let opts = Fig10Options {
            cores: 4,
            enumerate_cap: 400,
            dsa_starts: 5,
            scale: Scale::Small,
        };
        let result = run_benchmark(&bench, &opts, 3);
        assert!(!result.candidates.is_empty());
        assert_eq!(result.dsa_results.len(), 5);
        // DSA reaches within 5% of best far more reliably than a random
        // candidate does.
        assert!(result.dsa_hit_rate(0.05) >= result.candidate_hit_rate(0.05));
        assert!(
            result.dsa_hit_rate(0.05) >= 0.6,
            "hit rate {}",
            result.dsa_hit_rate(0.05)
        );
    }

    #[test]
    fn histogram_covers_all_values() {
        let h = histogram(&[100, 200, 300, 300], 4);
        assert_eq!(h.lines().count(), 4);
        assert!(h.contains("50.00%"));
    }
}
