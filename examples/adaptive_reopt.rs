//! Adaptive re-optimization — the paper's §7 ("Conclusion") extension:
//!
//! > "It is straightforward to modify the basic approach to support
//! > executables that periodically re-optimize themselves for the
//! > workloads they encounter in the field. [...] An executable would
//! > periodically profile itself and report the results to a system
//! > library that implements our optimization strategy. The library would
//! > then rerun the optimizations, generate a new layout, and update the
//! > executable's layout information."
//!
//! This example demonstrates exactly that loop: a program ships with a
//! naive layout, profiles itself *while running in the field*, re-runs
//! the synthesis from the field profile, and adopts the improved layout
//! for the next run — no recompilation, only layout data changes.
//!
//! Run with: `cargo run --release --example adaptive_reopt`

use bamboo::schedule::{bootstrap_plan, spread_layout};
use bamboo::{ExecConfig, MachineDescription, Replication, SynthesisOptions, VirtualExecutor};
use bamboo_apps::{Benchmark, Scale};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = bamboo_apps::montecarlo::MonteCarlo;
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(8);

    // Generation 0: the executable ships with a naive layout — every
    // group replicated once and dealt uniformly, no profile knowledge.
    let (graph, _) = bootstrap_plan(&compiler.program.spec, &compiler.cstg);
    let naive_repl = Replication::serial(&graph);
    let naive_layout = spread_layout(&graph, &naive_repl, machine.core_count());

    // Field run: execute under the naive layout *with profiling on*.
    let config = ExecConfig {
        profile_input: Some("field".to_string()),
        ..ExecConfig::default()
    };
    let (program, locks) = (&compiler.program, &compiler.locks);
    let mut exec = VirtualExecutor::new(program, &graph, &naive_layout, &machine, locks, config);
    let mut report0 = exec.run(None)?;
    let field_profile = report0.profile.take().expect("profiling was on");
    println!(
        "generation 0 (naive layout):      {:>9} cycles, {} invocations",
        report0.makespan, report0.invocations
    );

    // Re-optimization: the "system library" step — rerun synthesis from
    // the field profile and produce a new layout.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let plan = compiler.synthesize(
        &field_profile,
        &machine,
        &SynthesisOptions::default(),
        &mut rng,
    );
    println!(
        "re-optimized layout (estimated):  {:>9} cycles, {} DSA simulations",
        plan.estimate.makespan, plan.stats.simulations
    );

    // Generation 1: same executable, new layout data.
    let deployment = compiler.deploy(&plan);
    let mut exec = VirtualExecutor::over(&deployment, &machine, ExecConfig::default());
    let report1 = exec.run(None)?;
    let verified = bench.parallel_checksum(&compiler, &exec) == bench.serial(Scale::Small).checksum;
    println!(
        "generation 1 (field-optimized):   {:>9} cycles — {:.2}x faster, verified: {verified}",
        report1.makespan,
        report0.makespan as f64 / report1.makespan as f64
    );
    assert!(report1.makespan < report0.makespan);

    // The loop can continue: generation 1 can profile itself too, and a
    // second re-optimization converges (no further improvement expected
    // on a stable workload).
    let config = ExecConfig {
        profile_input: Some("field-gen1".to_string()),
        ..ExecConfig::default()
    };
    let mut exec = VirtualExecutor::over(&deployment, &machine, config);
    let mut report1p = exec.run(None)?;
    let profile1 = report1p.profile.take().expect("profiling was on");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let plan2 = compiler.synthesize(&profile1, &machine, &SynthesisOptions::default(), &mut rng);
    println!(
        "generation 2 (re-re-optimized):   {:>9} cycles estimated — converged: {}",
        plan2.estimate.makespan,
        plan2.estimate.makespan as f64 >= report1.makespan as f64 * 0.95
    );
    Ok(())
}
