//! Integration tests over the six evaluation benchmarks: every Bamboo
//! version must reproduce its serial baseline bit-exactly, on one core
//! and on a synthesized multi-core layout, and the synthesized layout
//! must actually be faster.

use bamboo::{ExecConfig, MachineDescription, VirtualExecutor};
use bamboo_apps::{all, Scale};

#[test]
fn every_benchmark_verifies_on_one_core() {
    for bench in all() {
        let serial = bench.serial(Scale::Small);
        let compiler = bench.compiler(Scale::Small);
        let (_, report, digest) = compiler
            .profile_run(None, "t", |exec| bench.parallel_checksum(&compiler, exec))
            .unwrap_or_else(|e| panic!("{} failed: {e}", bench.name()));
        assert!(report.quiesced, "{} did not quiesce", bench.name());
        assert_eq!(digest, serial.checksum, "{} result mismatch", bench.name());
        // The modeled language overhead stays within the paper's range.
        let overhead =
            report.overhead_cycles as f64 + report.body_cycles as f64 - serial.cycles as f64;
        let pct = overhead / serial.cycles as f64 * 100.0;
        assert!(
            (0.0..=12.0).contains(&pct),
            "{} overhead {pct:.2}% out of range",
            bench.name()
        );
    }
}

#[test]
fn every_benchmark_verifies_and_speeds_up_on_eight_cores() {
    let machine = MachineDescription::n_cores(8);
    for bench in all() {
        let serial = bench.serial(Scale::Small);
        let compiler = bench.compiler(Scale::Small);
        let plan = compiler.plan("t", &machine, 17).expect("profiles");
        let mut exec = VirtualExecutor::over(&plan.deployment, &machine, ExecConfig::default());
        let report = exec.run(None).expect("runs");
        assert!(report.quiesced, "{} did not quiesce", bench.name());
        assert_eq!(
            bench.parallel_checksum(&compiler, &exec),
            serial.checksum,
            "{} result mismatch on 8 cores",
            bench.name()
        );
        let speedup = plan.single.makespan as f64 / report.makespan as f64;
        assert!(speedup > 1.5, "{} speedup only {speedup:.2}", bench.name());
    }
}

#[test]
fn simulator_estimate_tracks_real_execution() {
    let machine = MachineDescription::n_cores(8);
    for bench in all() {
        let compiler = bench.compiler(Scale::Small);
        let plan = compiler.plan("t", &machine, 23).expect("profiles");
        let mut exec = VirtualExecutor::over(&plan.deployment, &machine, ExecConfig::default());
        let report = exec.run(None).expect("runs");
        let err = (plan.synthesis.estimate.makespan as f64 / report.makespan as f64 - 1.0).abs();
        // The paper's Figure 9 errors are under 8%; replay mode does better.
        assert!(
            err < 0.08,
            "{} estimate off by {:.1}%",
            bench.name(),
            err * 100.0
        );
    }
}

#[test]
fn double_scale_increases_serial_work() {
    for bench in all() {
        let original = bench.serial(Scale::Original);
        let double = bench.serial(Scale::Double);
        let ratio = double.cycles as f64 / original.cycles as f64;
        assert!(
            (1.5..=2.5).contains(&ratio),
            "{} double/original ratio {ratio:.2}",
            bench.name()
        );
    }
}

#[test]
fn serial_checksums_are_stable_across_runs() {
    for bench in all() {
        let a = bench.serial(Scale::Small);
        let b = bench.serial(Scale::Small);
        assert_eq!(a, b, "{} serial baseline is nondeterministic", bench.name());
    }
}
