//! Experiment E1: the paper's Figure 7 — speedup of the benchmarks on 62
//! cores.
//!
//! For each benchmark: run the serial baseline (the "1-core C version"),
//! the 1-core Bamboo version (which doubles as the profiling run),
//! synthesize a 62-core implementation from the profile, execute it on
//! the virtual-time executor, and report cycles, speedups, and the
//! language overhead — the exact columns of the paper's table.

use bamboo::{Compiler, ExecConfig, MachineDescription, SynthesisOptions, VirtualExecutor};
use bamboo_apps::{Benchmark, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the Figure 7 table.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: &'static str,
    /// 1-core C cycles.
    pub c_cycles: u64,
    /// 1-core Bamboo cycles.
    pub bamboo1_cycles: u64,
    /// 62-core Bamboo cycles.
    pub bamboo62_cycles: u64,
    /// Speedup of 62-core Bamboo over 1-core Bamboo.
    pub speedup_vs_bamboo: f64,
    /// Speedup of 62-core Bamboo over 1-core C.
    pub speedup_vs_c: f64,
    /// 1-core Bamboo overhead over C, percent.
    pub overhead_pct: f64,
    /// Whether both Bamboo runs reproduced the serial result bit-exactly.
    pub verified: bool,
    /// The paper's reported speedup over 1-core Bamboo, for comparison.
    pub paper_speedup_vs_bamboo: f64,
    /// The paper's reported speedup over 1-core C.
    pub paper_speedup_vs_c: f64,
    /// The paper's reported overhead.
    pub paper_overhead_pct: f64,
}

/// Runs the experiment for one benchmark.
pub fn run_benchmark(
    bench: &dyn Benchmark,
    scale: Scale,
    machine: &MachineDescription,
    seed: u64,
) -> Fig7Row {
    let serial = bench.serial(scale);
    let compiler: Compiler = bench.compiler(scale);
    let (profile, one_core, ok1) = compiler
        .profile_run(None, "original", |exec| {
            bench.parallel_checksum(&compiler, exec) == serial.checksum
        })
        .expect("single-core run succeeds");
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = compiler.synthesize(&profile, machine, &SynthesisOptions::default(), &mut rng);
    let deployment = compiler.deploy(&plan);
    let mut exec = VirtualExecutor::over(&deployment, machine, ExecConfig::default());
    let many_core = exec.run(None).expect("many-core run succeeds");
    let ok_n = bench.parallel_checksum(&compiler, &exec) == serial.checksum;
    let paper = bench.paper();
    Fig7Row {
        name: bench.name(),
        c_cycles: serial.cycles,
        bamboo1_cycles: one_core.makespan,
        bamboo62_cycles: many_core.makespan,
        speedup_vs_bamboo: one_core.makespan as f64 / many_core.makespan as f64,
        speedup_vs_c: serial.cycles as f64 / many_core.makespan as f64,
        overhead_pct: (one_core.makespan as f64 / serial.cycles as f64 - 1.0) * 100.0,
        verified: ok1 && ok_n,
        paper_speedup_vs_bamboo: paper.speedup_vs_bamboo,
        paper_speedup_vs_c: paper.speedup_vs_c,
        paper_overhead_pct: paper.overhead_pct,
    }
}

/// The whole figure as committed in `results/fig7.txt`: every
/// benchmark at the original scale on the 62-core machine, seed 42.
pub fn render() -> String {
    let machine = MachineDescription::tilepro64();
    let rows: Vec<Fig7Row> = bamboo_apps::all()
        .iter()
        .map(|b| run_benchmark(b.as_ref(), Scale::Original, &machine, 42))
        .collect();
    format!(
        "== Figure 7: speedup of the benchmarks on {} cores ==\n\n{}",
        machine.core_count(),
        format_table(&rows)
    )
}

/// Formats rows as the paper's table (plus paper-reported columns).
pub fn format_table(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "                 Clock Cycles (1e8 cyc)              Speedup          Overhead\n",
    );
    out.push_str(
        "Benchmark    1-Core C  1-Core Bb  62-Core Bb   vs Bb (paper)   vs C (paper)   Bb (paper)  verified\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>8.1}  {:>9.1}  {:>10.2}   {:>5.1} ({:>4.1})   {:>5.1} ({:>4.1})   {:>4.1}% ({:>4.1}%)  {}\n",
            r.name,
            r.c_cycles as f64 / 1e8,
            r.bamboo1_cycles as f64 / 1e8,
            r.bamboo62_cycles as f64 / 1e8,
            r.speedup_vs_bamboo,
            r.paper_speedup_vs_bamboo,
            r.speedup_vs_c,
            r.paper_speedup_vs_c,
            r.overhead_pct,
            r.paper_overhead_pct,
            if r.verified { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_row_is_consistent() {
        let bench = bamboo_apps::series::Series;
        let machine = MachineDescription::n_cores(8);
        let row = run_benchmark(&bench, Scale::Small, &machine, 7);
        assert!(row.verified);
        assert!(row.speedup_vs_bamboo > 2.0);
        assert!(row.speedup_vs_c > 2.0);
        assert!(row.overhead_pct > 0.0 && row.overhead_pct < 15.0);
        let table = format_table(&[row]);
        assert!(table.contains("Series"));
    }
}
