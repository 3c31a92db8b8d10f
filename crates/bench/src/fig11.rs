//! Experiment E4: the paper's Figure 11 — generality of synthesized
//! implementations.
//!
//! Each benchmark is synthesized twice: once from the profile of the
//! original input (`Profile_original`) and once from the profile of a
//! doubled workload (`Profile_double`). Both layouts then execute the
//! *doubled* input. If the original profile exposed enough parallelism,
//! the two speedups are close — the synthesized binaries generalize. The
//! paper highlights MonteCarlo, where only the larger profile yielded the
//! pipelined implementation.

use bamboo::{Compiler, ExecConfig, MachineDescription, VirtualExecutor};
use bamboo_apps::{Benchmark, Scale};

/// One row of the Figure 11 table.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Benchmark name.
    pub name: &'static str,
    /// 1-core Bamboo cycles on the doubled input.
    pub one_core_cycles: u64,
    /// Many-core cycles on the doubled input, layout from the original
    /// profile.
    pub cycles_profile_original: u64,
    /// Many-core cycles on the doubled input, layout from the doubled
    /// profile.
    pub cycles_profile_double: u64,
    /// Whether both runs reproduced the serial result.
    pub verified: bool,
}

impl Fig11Row {
    /// Speedup with the original-profile layout.
    pub fn speedup_original(&self) -> f64 {
        self.one_core_cycles as f64 / self.cycles_profile_original as f64
    }

    /// Speedup with the double-profile layout.
    pub fn speedup_double(&self) -> f64 {
        self.one_core_cycles as f64 / self.cycles_profile_double as f64
    }
}

/// Runs the experiment for one benchmark with explicit scales (`base` is
/// the profiled input, `larger` the input both layouts execute).
pub fn run_benchmark_scaled(
    bench: &dyn Benchmark,
    machine: &MachineDescription,
    seed: u64,
    base: Scale,
    larger: Scale,
) -> Fig11Row {
    let serial_double = bench.serial(larger);

    // Plan from the original input's profile, and from the doubled
    // input's (also the 1-core number on the new input).
    let compiler_orig: Compiler = bench.compiler(base);
    let plan_orig = compiler_orig
        .plan("original", machine, seed)
        .expect("profiling run succeeds");
    let compiler_double: Compiler = bench.compiler(larger);
    let plan_double = compiler_double
        .plan("double", machine, seed)
        .expect("profiling run succeeds");

    // Execute the doubled input under both layouts. (The spec — classes,
    // tasks, guards — is scale-independent, so the original-profile plan
    // applies directly to the doubled program.)
    let orig_on_double = compiler_double.deploy(&plan_orig.synthesis);
    let mut exec_orig = VirtualExecutor::over(&orig_on_double, machine, ExecConfig::default());
    let run_orig = exec_orig.run(None).expect("run succeeds");
    let ok_orig = bench.parallel_checksum(&compiler_double, &exec_orig) == serial_double.checksum;

    let mut exec_double =
        VirtualExecutor::over(&plan_double.deployment, machine, ExecConfig::default());
    let run_double = exec_double.run(None).expect("run succeeds");
    let ok_double =
        bench.parallel_checksum(&compiler_double, &exec_double) == serial_double.checksum;

    Fig11Row {
        name: bench.name(),
        one_core_cycles: plan_double.single.makespan,
        cycles_profile_original: run_orig.makespan,
        cycles_profile_double: run_double.makespan,
        verified: ok_orig && ok_double,
    }
}

/// Runs the experiment for one benchmark (original vs doubled input, as
/// in the paper).
pub fn run_benchmark(bench: &dyn Benchmark, machine: &MachineDescription, seed: u64) -> Fig11Row {
    run_benchmark_scaled(bench, machine, seed, Scale::Original, Scale::Double)
}

/// The whole figure as committed in `results/fig11.txt`: every
/// benchmark on the 62-core machine, seed 42.
pub fn render() -> String {
    let machine = MachineDescription::tilepro64();
    let rows: Vec<Fig11Row> = bamboo_apps::all()
        .iter()
        .map(|b| run_benchmark(b.as_ref(), &machine, 42))
        .collect();
    format!(
        "== Figure 11: generality of synthesized implementations ==\n\n{}",
        format_table(&rows)
    )
}

/// Formats rows as the paper's Figure 11 table.
pub fn format_table(rows: &[Fig11Row]) -> String {
    let mut out = String::new();
    out.push_str("              Profile_original, Input_double   Profile_double, Input_double\n");
    out.push_str("Benchmark     1-Core    62-Core   Speedup       62-Core   Speedup   verified\n");
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>7.1}  {:>9.2}  {:>8.1}      {:>8.2}  {:>8.1}   {}\n",
            r.name,
            r.one_core_cycles as f64 / 1e8,
            r.cycles_profile_original as f64 / 1e8,
            r.speedup_original(),
            r.cycles_profile_double as f64 / 1e8,
            r.speedup_double(),
            if r.verified { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_generalize_on_small_machine() {
        let bench = bamboo_apps::montecarlo::MonteCarlo;
        let machine = MachineDescription::n_cores(8);
        let row = run_benchmark_scaled(&bench, &machine, 5, Scale::Small, Scale::Original);
        assert!(row.verified);
        // Both layouts parallelize the doubled input.
        assert!(
            row.speedup_original() > 2.0,
            "orig {}",
            row.speedup_original()
        );
        assert!(
            row.speedup_double() > 2.0,
            "double {}",
            row.speedup_double()
        );
        let table = format_table(&[row]);
        assert!(table.contains("MonteCarlo"));
    }
}
