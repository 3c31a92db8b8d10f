//! Pipelining: the MonteCarlo layout discovery of the paper's §5.4/§5.6.
//!
//! The authors were surprised to find that Bamboo synthesized a
//! *heterogeneous, pipelined* implementation of MonteCarlo: one core runs
//! the aggregation task concurrently with the simulation tasks on the
//! other cores, overlapping the two components. This example synthesizes
//! the benchmark on a small machine and shows exactly that structure in
//! the resulting layout, then quantifies the benefit against a layout
//! where aggregation shares a simulation core.
//!
//! Run with: `cargo run --release --example montecarlo_pipeline`

use bamboo::schedule::{simulate, SimOptions};
use bamboo::{CoreId, ExecConfig, MachineDescription, VirtualExecutor};
use bamboo_apps::{Benchmark, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = bamboo_apps::montecarlo::MonteCarlo;
    let compiler = bench.compiler(Scale::Small);
    let machine = MachineDescription::n_cores(8);
    let bamboo::Plan {
        profile,
        single,
        synthesis: plan,
        deployment,
    } = compiler.plan("pipeline", &machine, 42)?;

    println!("synthesized layout on {machine}:");
    print!(
        "{}",
        plan.layout.describe(&compiler.program.spec, &plan.graph)
    );

    // Where did aggregation land relative to the simulations?
    let spec = &compiler.program.spec;
    let aggregate = spec.task_by_name("aggregate").expect("montecarlo task");
    let run_sim = spec.task_by_name("runSimulation").expect("montecarlo task");
    let agg_group = plan.graph.group_of_task(aggregate).expect("deployed");
    let sim_group = plan.graph.group_of_task(run_sim).expect("deployed");
    let agg_core: CoreId = plan.layout.core_of(plan.layout.instances_of(agg_group)[0]);
    let sim_cores: Vec<usize> = plan
        .layout
        .instances_of(sim_group)
        .iter()
        .map(|i| plan.layout.core_of(*i).index())
        .collect();
    let dedicated = !sim_cores.contains(&agg_core.index());
    println!(
        "\naggregation runs on {agg_core}; simulations on cores {sim_cores:?}\n\
         pipelined (aggregation core dedicated): {dedicated}"
    );

    // Quantify: simulate the alternative where everything is spread
    // uniformly so aggregation competes with a simulation replica.
    let uniform = bamboo::schedule::spread_layout(&plan.graph, &plan.replication, 8);
    let uniform_est = simulate(
        spec,
        &plan.graph,
        &uniform,
        &profile,
        &machine,
        &SimOptions::default(),
    );
    println!(
        "\nmakespan with pipelined layout:  {:>10} cycles",
        plan.estimate.makespan
    );
    println!(
        "makespan with uniform layout:    {:>10} cycles",
        uniform_est.makespan
    );
    println!(
        "pipelining benefit: {:.1}%",
        (uniform_est.makespan as f64 / plan.estimate.makespan as f64 - 1.0) * 100.0
    );

    // And execute the winning layout for real.
    let mut exec = VirtualExecutor::over(&deployment, &machine, ExecConfig::default());
    let parallel = exec.run(None)?;
    println!(
        "\nreal execution: {} cycles — {:.2}x speedup over one core; result verified: {}",
        parallel.makespan,
        single.makespan as f64 / parallel.makespan as f64,
        bench.parallel_checksum(&compiler, &exec) == bench.serial(Scale::Small).checksum
    );
    Ok(())
}
