//! Determinism of parallel, memoized synthesis (paper §4.5 machinery).
//!
//! The replication variants' searches share one scoring pool of worker
//! threads, each thread scoring any variant's candidates, and simulations
//! are memoized by layout fingerprint — none of which may change what
//! gets synthesized. These tests pin the contract on real benchmarks:
//! the same seed yields the identical best layout, makespan, and
//! [`DsaStats`] trajectory at any worker-thread count, with and without
//! the simulation cache — and, at the paper's scale, that the search is
//! the one recorded: exact simulation counts, cache hits and makespans.

use bamboo::{DsaOptions, MachineDescription, SynthesisOptions, SynthesisResult};
use bamboo_apps::{all, by_name, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Synthesizes `bench` at `Scale::Small` for the paper's 62-core
/// machine with the given options, from a fixed seed.
fn synthesize(bench: &str, opts: &SynthesisOptions) -> SynthesisResult {
    let bench = by_name(bench).expect("benchmark registered");
    let compiler = bench.compiler(Scale::Small);
    let (profile, _, ()) = compiler
        .profile_run(None, "t", |_| ())
        .expect("profile run");
    let machine = MachineDescription::tilepro64();
    let mut rng = StdRng::seed_from_u64(4242);
    compiler.synthesize(&profile, &machine, opts, &mut rng)
}

#[test]
fn same_seed_is_identical_at_any_thread_count() {
    for bench in ["KMeans", "FilterBank"] {
        let serial = synthesize(bench, &SynthesisOptions::default().with_threads(1));
        // Three threads over two variants: two drivers and one helper.
        for threads in [2, 3, 4, 8] {
            let parallel = synthesize(bench, &SynthesisOptions::default().with_threads(threads));
            assert_eq!(
                parallel.layout, serial.layout,
                "{bench}: layout diverged at {threads} threads"
            );
            assert_eq!(
                parallel.estimate.makespan, serial.estimate.makespan,
                "{bench}: makespan diverged at {threads} threads"
            );
            assert_eq!(
                parallel.stats.trajectory, serial.stats.trajectory,
                "{bench}: search trajectory diverged at {threads} threads"
            );
            assert_eq!(
                parallel.stats, serial.stats,
                "{bench}: DSA statistics diverged at {threads} threads"
            );
            assert_eq!(
                parallel.replication, serial.replication,
                "{bench}: replication choice diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn memoization_does_not_change_what_is_synthesized() {
    for bench in ["KMeans", "FilterBank"] {
        let memoized = synthesize(bench, &SynthesisOptions::default());
        let cold = synthesize(
            bench,
            &SynthesisOptions {
                dsa: DsaOptions {
                    memoize: false,
                    ..DsaOptions::default()
                },
                ..SynthesisOptions::default()
            },
        );
        assert_eq!(memoized.layout, cold.layout, "{bench}: layout diverged");
        assert_eq!(
            memoized.estimate.makespan, cold.estimate.makespan,
            "{bench}: makespan diverged"
        );
        assert_eq!(
            memoized.stats.trajectory, cold.stats.trajectory,
            "{bench}: trajectory diverged"
        );
        // The cache trades simulations for replayed hits, one for one.
        assert!(memoized.stats.cache_hits > 0, "{bench}: cache never hit");
        assert_eq!(
            memoized.stats.simulations + memoized.stats.cache_hits,
            memoized.stats.candidates_evaluated,
            "{bench}: evaluation accounting broken"
        );
        assert_eq!(
            cold.stats.simulations, cold.stats.candidates_evaluated,
            "{bench}: cold run should simulate every candidate"
        );
    }
}

/// `(app, simulations, cache_hits, estimated makespan)` of default
/// synthesis at `Scale::Original` for the 62-core TILEPro64 model, seed
/// 42. Exact: synthesis is deterministic, so any drift is a change to
/// the search or the simulator, never noise.
const PINNED: [(&str, usize, usize, u64); 6] = [
    ("Tracking", 158, 5, 1_609_122_728),
    ("KMeans", 55, 39, 3_167_971_967),
    ("MonteCarlo", 209, 41, 128_114_764),
    ("FilterBank", 137, 22, 1_502_280_191),
    ("Fractal", 253, 91, 254_290_986),
    ("Series", 147, 56, 3_253_470_672),
];

#[test]
fn synthesis_is_pinned_on_all_six_apps() {
    let machine = MachineDescription::tilepro64();
    let benches = all();
    assert_eq!(benches.len(), PINNED.len());
    for (name, simulations, cache_hits, makespan) in PINNED {
        let bench = by_name(name).expect("benchmark registered");
        let compiler = bench.compiler(Scale::Original);
        let (profile, _, ()) = compiler
            .profile_run(None, "original", |_| ())
            .expect("profile run");
        let run = |opts: &SynthesisOptions| {
            let mut rng = StdRng::seed_from_u64(42);
            compiler.synthesize(&profile, &machine, opts, &mut rng)
        };
        let parallel = run(&SynthesisOptions::default());
        let serial = run(&SynthesisOptions::default().with_threads(1));
        for (leg, plan) in [("default", &parallel), ("1 thread", &serial)] {
            assert_eq!(
                (
                    plan.stats.simulations,
                    plan.stats.cache_hits,
                    plan.estimate.makespan
                ),
                (simulations, cache_hits, makespan),
                "{name} ({leg}): (simulations, cache_hits, makespan) drifted"
            );
        }
        assert_eq!(parallel.layout, serial.layout, "{name}: layout diverged");
        assert_eq!(parallel.stats, serial.stats, "{name}: stats diverged");
    }
}
