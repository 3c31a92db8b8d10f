//! Experiment E2: the paper's Figure 9 — accuracy of the scheduling
//! simulator.
//!
//! For each benchmark the scheduling simulator's estimated execution time
//! is compared against the virtual-time executor's real execution, for
//! both the single-core and the synthesized many-core implementation. Two
//! simulator modes are reported: *replay* (the default: multi-exit control
//! tasks take their recorded exits, giving near-exact structure) and
//! *aggregate* (the paper's plain count-matching Markov model, which
//! shows paper-sized errors on iteration-structured benchmarks).

use bamboo::{
    simulate, Compiler, ExecConfig, Layout, MachineDescription, SimOptions, VirtualExecutor,
};
use bamboo_apps::{Benchmark, Scale};

/// One benchmark's accuracy numbers.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Simulator estimate, 1 core (replay mode).
    pub est_1core: u64,
    /// Real execution, 1 core.
    pub real_1core: u64,
    /// Simulator estimate, many cores (replay mode).
    pub est_n: u64,
    /// Real execution, many cores.
    pub real_n: u64,
    /// Aggregate-mode estimate, many cores (ablation).
    pub est_n_aggregate: u64,
}

impl Fig9Row {
    /// Relative error of the 1-core estimate, percent.
    pub fn error_1core(&self) -> f64 {
        (self.est_1core as f64 / self.real_1core as f64 - 1.0) * 100.0
    }

    /// Relative error of the many-core estimate, percent.
    pub fn error_n(&self) -> f64 {
        (self.est_n as f64 / self.real_n as f64 - 1.0) * 100.0
    }

    /// Relative error of the aggregate-mode many-core estimate, percent.
    pub fn error_n_aggregate(&self) -> f64 {
        (self.est_n_aggregate as f64 / self.real_n as f64 - 1.0) * 100.0
    }
}

/// Runs the experiment for one benchmark.
pub fn run_benchmark(
    bench: &dyn Benchmark,
    scale: Scale,
    machine: &MachineDescription,
    seed: u64,
) -> Fig9Row {
    let compiler: Compiler = bench.compiler(scale);
    let plan = compiler
        .plan("original", machine, seed)
        .expect("single-core run succeeds");
    // Single-core estimate: simulate the single-core layout.
    let graph1 = compiler.graph_with_profile(&plan.profile);
    let layout1 = Layout::single_core(&graph1);
    let machine1 = MachineDescription::n_cores(1);
    let est1 = simulate(
        &compiler.program.spec,
        &graph1,
        &layout1,
        &plan.profile,
        &machine1,
        &SimOptions::default(),
    );

    // Many-core: compare the synthesized estimate with real execution.
    let mut exec = VirtualExecutor::over(&plan.deployment, machine, ExecConfig::default());
    let real_n = exec.run(None).expect("many-core run succeeds");
    let est_n_aggregate = simulate(
        &compiler.program.spec,
        &plan.synthesis.graph,
        &plan.synthesis.layout,
        &plan.profile,
        machine,
        &SimOptions {
            replay: false,
            ..SimOptions::default()
        },
    );
    Fig9Row {
        name: bench.name(),
        est_1core: est1.makespan,
        real_1core: plan.single.makespan,
        est_n: plan.synthesis.estimate.makespan,
        real_n: real_n.makespan,
        est_n_aggregate: est_n_aggregate.makespan,
    }
}

/// The whole figure as committed in `results/fig9.txt`: every
/// benchmark at the original scale on the 62-core machine, seed 42,
/// with the ablation footnote.
pub fn render() -> String {
    let machine = MachineDescription::tilepro64();
    let rows: Vec<Fig9Row> = bamboo_apps::all()
        .iter()
        .map(|b| run_benchmark(b.as_ref(), Scale::Original, &machine, 42))
        .collect();
    let mut out = String::from("== Figure 9: accuracy of the scheduling simulator ==\n\n");
    out.push_str(&format_table(&rows));
    out.push_str("\n(AggrErr: error of the aggregate count-matching Markov model without\n");
    out.push_str(" exit-sequence replay — the ablation showing why replay matters.)\n");
    out
}

/// Formats rows as the paper's Figure 9 table, plus the aggregate-mode
/// ablation column.
pub fn format_table(rows: &[Fig9Row]) -> String {
    let mut out = String::new();
    out.push_str("              1-Core Bamboo (1e8 cyc)        62-Core Bamboo (1e8 cyc)\n");
    out.push_str(
        "Benchmark    Estimate     Real    Error    Estimate     Real    Error   AggrErr\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>8.1} {:>8.1}  {:>+6.2}%   {:>8.2} {:>8.2}  {:>+6.2}%  {:>+6.2}%\n",
            r.name,
            r.est_1core as f64 / 1e8,
            r.real_1core as f64 / 1e8,
            r.error_1core(),
            r.est_n as f64 / 1e8,
            r.real_n as f64 / 1e8,
            r.error_n(),
            r.error_n_aggregate(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_estimates_are_accurate_on_small_scale() {
        let bench = bamboo_apps::montecarlo::MonteCarlo;
        let machine = MachineDescription::n_cores(8);
        let row = run_benchmark(&bench, Scale::Small, &machine, 11);
        assert!(
            row.error_1core().abs() < 5.0,
            "1-core error {}",
            row.error_1core()
        );
        assert!(row.error_n().abs() < 5.0, "n-core error {}", row.error_n());
        let table = format_table(&[row]);
        assert!(table.contains("MonteCarlo"));
    }
}
