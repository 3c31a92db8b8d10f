//! Scaling curves: speedup of each benchmark versus core count — the
//! natural companion to the paper's single 62-core data point (Figure 7).
//! For every benchmark and every core count, a fresh implementation is
//! synthesized from the same profile and executed on the virtual-time
//! machine; results are verified against the serial baseline.
//!
//! Usage: `cargo run --release -p bamboo-bench --bin scaling [cores...]`
//! (default core counts: 1 2 4 8 16 31 62)

use bamboo::{ExecConfig, MachineDescription, SynthesisOptions, VirtualExecutor};
use bamboo_apps::Scale;
use rand::SeedableRng;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("core counts must be numbers"))
        .collect();
    let cores: Vec<usize> = if args.is_empty() {
        vec![1, 2, 4, 8, 16, 31, 62]
    } else {
        args
    };

    println!("== Speedup vs core count (over 1-core Bamboo; input Scale::Original) ==\n");
    print!("{:<12}", "Benchmark");
    for c in &cores {
        print!(" {c:>7}");
    }
    println!();

    for bench in bamboo_apps::all() {
        let serial = bench.serial(Scale::Original);
        let compiler = bench.compiler(Scale::Original);
        let (profile, one_core, ok) = compiler
            .profile_run(None, "original", |exec| {
                bench.parallel_checksum(&compiler, exec) == serial.checksum
            })
            .expect("profiling run succeeds");
        assert!(ok, "{} failed verification", bench.name());
        print!("{:<12}", bench.name());
        for &n in &cores {
            if n == 1 {
                print!(" {:>7.2}", 1.0);
                continue;
            }
            let machine = MachineDescription::n_cores(n);
            let mut rng = rand::rngs::StdRng::seed_from_u64(42 + n as u64);
            let plan =
                compiler.synthesize(&profile, &machine, &SynthesisOptions::default(), &mut rng);
            let deployment = compiler.deploy(&plan);
            let mut exec = VirtualExecutor::over(&deployment, &machine, ExecConfig::default());
            let report = exec.run(None).expect("run succeeds");
            assert!(
                bench.parallel_checksum(&compiler, &exec) == serial.checksum,
                "{} wrong on {n} cores",
                bench.name()
            );
            print!(
                " {:>7.2}",
                one_core.makespan as f64 / report.makespan as f64
            );
        }
        println!();
    }
    println!("\n(each cell: fresh synthesis + virtual-time execution, verified bit-exactly)");
}
