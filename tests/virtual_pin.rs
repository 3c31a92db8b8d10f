//! Pins the virtual executor's observable schedule: for the six apps at
//! Small scale and the keyword-counting DSL program (the interpreted
//! path), the 1-core profiling run and a seeded 4-core synthesized plan
//! must reproduce the recorded makespan, invocation count, body and
//! overhead cycles, and an FNV-1a hash over every traced invocation
//! (task, instance, core, start, end and data dependences).
//!
//! Object transfer counts are deliberately not pinned: they are a
//! reporting rule, not part of the schedule.

use bamboo::schedule::bootstrap_plan;
use bamboo::{
    Compiler, ExecConfig, MachineDescription, RunReport, SynthesisOptions, VirtualExecutor,
};
use bamboo_apps::{all, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(program, run, makespan, invocations, body_cycles, overhead_cycles,
/// trace hash)`.
type Row = (&'static str, &'static str, u64, u64, u64, u64, u64);

const PINNED: &[Row] = &[
    (
        "Tracking",
        "1-core",
        1_457_444_497,
        81,
        1_457_439_881,
        4_616,
        0x786c3fa4d87bc2fd,
    ),
    (
        "Tracking",
        "4-core",
        388_074_667,
        81,
        1_457_439_881,
        4_616,
        0x1f25d2a01cbef787,
    ),
    (
        "KMeans",
        "1-core",
        56_434_849,
        37,
        56_432_809,
        2_040,
        0x4304b206bedf9b50,
    ),
    (
        "KMeans",
        "4-core",
        26_042_109,
        37,
        56_432_809,
        2_048,
        0x65f8c80c4cf982df,
    ),
    (
        "MonteCarlo",
        "1-core",
        19_002_797,
        25,
        19_001_373,
        1_424,
        0x33b0460b392f66a9,
    ),
    (
        "MonteCarlo",
        "4-core",
        6_477_555,
        25,
        19_001_373,
        1_424,
        0x0c7b6e89d533ffdf,
    ),
    (
        "FilterBank",
        "1-core",
        87_333_020,
        13,
        87_332_280,
        740,
        0x754c2ee4e3ec77b3,
    ),
    (
        "FilterBank",
        "4-core",
        29_726_562,
        13,
        87_332_280,
        740,
        0x452e62bb158978da,
    ),
    (
        "Fractal",
        "1-core",
        64_082_807,
        17,
        64_081_839,
        968,
        0x0afb68cc10162713,
    ),
    (
        "Fractal",
        "4-core",
        16_750_823,
        17,
        64_081_839,
        968,
        0x176ddfb0da97b8c6,
    ),
    (
        "Series",
        "1-core",
        1_974_630_108,
        17,
        1_974_629_140,
        968,
        0x4c61c127295a156c,
    ),
    (
        "Series",
        "4-core",
        498_760_644,
        17,
        1_974_629_140,
        968,
        0x4f50ef5269be4c50,
    ),
    (
        "keyword",
        "1-core",
        6_643,
        33,
        4_763,
        1_880,
        0x20580e2260128583,
    ),
    (
        "keyword",
        "4-core",
        2_885,
        33,
        4_763,
        1_880,
        0xd93f5dbcf82fa3bb,
    ),
];

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn row(name: &'static str, run: &'static str, report: &RunReport) -> Row {
    let trace = report.trace.as_ref().expect("trace requested");
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for t in &trace.tasks {
        for word in [
            t.task.index() as u64,
            t.instance.index() as u64,
            t.core.index() as u64,
            t.start,
            t.end,
        ] {
            h.word(word);
        }
        for dep in trace.deps_of(t) {
            h.word(dep.producer.map_or(u64::MAX, |p| p as u64));
            h.word(dep.arrival);
        }
    }
    (
        name,
        run,
        report.makespan,
        report.invocations,
        report.body_cycles,
        report.overhead_cycles,
        h.0,
    )
}

/// Both pinned runs of one program.
fn rows(name: &'static str, compiler: &Compiler) -> Vec<Row> {
    let traced = |profile_input: Option<String>| ExecConfig {
        collect_trace: true,
        profile_input,
        ..ExecConfig::default()
    };
    let (graph, layout) = bootstrap_plan(&compiler.program.spec, &compiler.cstg);
    let one = MachineDescription::n_cores(1);
    let (program, locks) = (&compiler.program, &compiler.locks);
    let config = traced(Some("pin".into()));
    let mut exec = VirtualExecutor::new(program, &graph, &layout, &one, locks, config);
    let mut single = exec.run(None).expect("1-core run");
    let profile = single.profile.take().expect("profile requested");

    let four = MachineDescription::n_cores(4);
    let mut rng = StdRng::seed_from_u64(7);
    let plan = compiler.synthesize(&profile, &four, &SynthesisOptions::default(), &mut rng);
    let deployment = compiler.deploy(&plan);
    let mut exec = VirtualExecutor::over(&deployment, &four, traced(None));
    let planned = exec.run(None).expect("4-core run");
    vec![row(name, "1-core", &single), row(name, "4-core", &planned)]
}

#[test]
fn virtual_schedules_are_pinned() {
    let mut got = Vec::new();
    for bench in all() {
        got.extend(rows(bench.name(), &bench.compiler(Scale::Small)));
    }
    let keyword = Compiler::from_source("keyword", &bamboo_apps::keyword::source(16))
        .expect("keyword program compiles");
    got.extend(rows("keyword", &keyword));
    assert_eq!(got, PINNED, "virtual schedules drifted; now:\n{got:#x?}");
}
