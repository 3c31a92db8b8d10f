//! The end-to-end compiler driver.
//!
//! [`Compiler`] wires the full Bamboo pipeline together: frontend (DSL
//! source or native builder) → dependence analysis (ASTG/CSTG) →
//! disjointness analysis (lock plans) → profiling run → implementation
//! synthesis → execution on one of the runtime's executors.
//! [`Compiler::plan`] is the path from an analysed program to a
//! [`Deployment`], written once.

use bamboo_analysis::{Cstg, DependenceAnalysis, DisjointnessAnalysis};
use bamboo_lang::builder::BuiltProgram;
use bamboo_lang::span::CompileError;
use bamboo_machine::MachineDescription;
use bamboo_profile::Profile;
use bamboo_runtime::{
    Deployment, ExecConfig, ExecError, NativeBody, NativePayload, Program, RunReport,
    VirtualExecutor,
};
use bamboo_schedule::{bootstrap_plan, synthesize, GroupGraph, SynthesisOptions, SynthesisResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully analyzed, executable Bamboo program.
#[derive(Debug)]
pub struct Compiler {
    /// The executable program (spec + bodies).
    pub program: Program,
    /// Dependence analysis results (per-class ASTGs).
    pub dependence: DependenceAnalysis,
    /// The combined state transition graph.
    pub cstg: Cstg,
    /// Disjointness analysis results (lock plans).
    pub locks: DisjointnessAnalysis,
}

/// What [`Compiler::plan`] produced: every pass's output, in pass order.
#[derive(Debug)]
pub struct Plan {
    /// The profile the one-core run collected.
    pub profile: Profile,
    /// The one-core profiling run.
    pub single: RunReport,
    /// The synthesized implementation.
    pub synthesis: SynthesisResult,
    /// The synthesized implementation bundled for the executors.
    pub deployment: Deployment,
}

impl Compiler {
    /// Compiles DSL source, running all analyses.
    ///
    /// # Errors
    ///
    /// Returns every frontend diagnostic.
    pub fn from_source(name: &str, source: &str) -> Result<Self, CompileError> {
        let compiled = bamboo_lang::compile_source(name, source)?;
        let locks = DisjointnessAnalysis::run(&compiled.spec, &compiled.ir);
        Ok(Self::analyse(Program::from_compiled(compiled), locks))
    }

    /// Wraps a natively built program.
    ///
    /// Native bodies carry no analyzable IR, so parameters default to
    /// disjoint; override with [`Compiler::with_locks`] when a task's body
    /// stores references across parameters.
    pub fn from_native(built: BuiltProgram<NativeBody>) -> Self {
        let program = Program::from_native(built);
        let locks = DisjointnessAnalysis::all_disjoint(&program.spec);
        Self::analyse(program, locks)
    }

    /// Both frontends' tail: dependence analysis, then the CSTG.
    fn analyse(program: Program, locks: DisjointnessAnalysis) -> Self {
        let dependence = DependenceAnalysis::run(&program.spec);
        let cstg = Cstg::build(&program.spec, &dependence);
        Compiler {
            program,
            dependence,
            cstg,
            locks,
        }
    }

    /// Replaces the lock plans (for native programs with cross-parameter
    /// sharing).
    pub fn with_locks(mut self, locks: DisjointnessAnalysis) -> Self {
        self.locks = locks;
        self
    }

    /// Builds the group graph annotated by `profile`.
    pub fn graph_with_profile(&self, profile: &Profile) -> GroupGraph {
        GroupGraph::build(&self.program.spec, &self.cstg, profile)
    }

    /// The developer's path, one pass per line: profile on one core,
    /// synthesize for `machine` with default options and a `StdRng`
    /// seeded with `seed`, deploy. `label` names the profiling input.
    ///
    /// # Errors
    ///
    /// Propagates a failure of the profiling run.
    pub fn plan(
        &self,
        label: &str,
        machine: &MachineDescription,
        seed: u64,
    ) -> Result<Plan, ExecError> {
        // Profiling run on one virtual core (paper §4.3.1).
        let (profile, single, ()) = self.profile_run(None, label, |_| ())?;
        // Seeded implementation synthesis: groups, transforms, mapping, DSA (§4.3–§4.5).
        let mut rng = StdRng::seed_from_u64(seed);
        let synthesis = self.synthesize(&profile, machine, &SynthesisOptions::default(), &mut rng);
        // The artifact both executors run.
        let deployment = self.deploy(&synthesis);
        Ok(Plan {
            profile,
            single,
            synthesis,
            deployment,
        })
    }

    /// Runs the single-core profiling bootstrap (paper §4.3.1): executes
    /// the program on one virtual core, collecting a [`Profile`], and
    /// hands the finished executor to `inspect` for result extraction.
    /// The virtual core is sequential, but a native program's formed
    /// bodies may run ahead on the host's spare hardware threads; the
    /// profile and report do not depend on it.
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn profile_run<T>(
        &self,
        startup: Option<NativePayload>,
        input_label: &str,
        inspect: impl FnOnce(&VirtualExecutor<'_>) -> T,
    ) -> Result<(Profile, RunReport, T), ExecError> {
        let (graph, layout) = bootstrap_plan(&self.program.spec, &self.cstg);
        let machine = MachineDescription::n_cores(1);
        let config = ExecConfig {
            profile_input: Some(input_label.to_string()),
            ..ExecConfig::default()
        };
        let mut exec = VirtualExecutor::new(
            &self.program,
            &graph,
            &layout,
            &machine,
            &self.locks,
            config,
        );
        let mut report = exec.run(startup)?;
        let profile = report
            .profile
            .take()
            .expect("profile collection was requested");
        let value = inspect(&exec);
        Ok((profile, report, value))
    }

    /// Bundles a synthesizer result with this compiler's program and
    /// lock plans into a [`Deployment`] — the artifact both executors
    /// consume (`ThreadedExecutor::run(&deployment, options)`,
    /// `VirtualExecutor::over(&deployment, ...)`).
    pub fn deploy(&self, synthesis: &SynthesisResult) -> Deployment {
        Deployment::from_synthesis(&self.program, &self.locks, synthesis)
    }

    /// Runs implementation synthesis for `machine` (paper §4.3-§4.5).
    ///
    /// Synthesis scales with host cores: candidate evaluations inside
    /// the annealer and replication-variant searches fan out over
    /// `opts.threads` workers (`0` = every available core), memoizing
    /// simulations by layout fingerprint. The plan is bit-identical at
    /// any thread count — `SynthesisOptions::default()` is already
    /// parallel, and `opts.with_threads(1)` forces the serial schedule.
    pub fn synthesize<R: Rng>(
        &self,
        profile: &Profile,
        machine: &MachineDescription,
        opts: &SynthesisOptions,
        rng: &mut R,
    ) -> SynthesisResult {
        synthesize(&self.program.spec, &self.cstg, profile, machine, opts, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_lang::builder::ProgramBuilder;
    use bamboo_lang::spec::FlagExpr;
    use bamboo_runtime::body;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn native_fanout(n: i64) -> Compiler {
        let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("fanout");
        let s = b.class("StartupObject", &["initialstate"]);
        let w = b.class("Work", &["ready"]);
        let init = b.flag(s, "initialstate");
        let ready = b.flag(w, "ready");
        b.task("startup")
            .param("s", s, FlagExpr::flag(init))
            .alloc(w, &[(ready, true)], &[])
            .exit("", |e| e.set(0, init, false))
            .body(body(move |ctx| {
                for i in 0..n {
                    ctx.create(0, i);
                }
                ctx.charge(100);
                0
            }))
            .finish();
        b.task("work")
            .param("w", w, FlagExpr::flag(ready))
            .exit("", |e| e.set(0, ready, false))
            .body(body(|ctx| {
                ctx.charge(5_000);
                0
            }))
            .finish();
        Compiler::from_native(b.build().unwrap())
    }

    #[test]
    fn full_pipeline_profiles_synthesizes_and_speeds_up() {
        let compiler = native_fanout(32);
        let machine = MachineDescription::sixteen();
        let plan = compiler.plan("original", &machine, 9).unwrap();
        assert_eq!(plan.single.invocations, 33);
        // Run the synthesized layout for real.
        let mut exec = VirtualExecutor::over(&plan.deployment, &machine, ExecConfig::default());
        let parallel = exec.run(None).unwrap();
        assert!(parallel.quiesced);
        let speedup = plan.single.makespan as f64 / parallel.makespan as f64;
        assert!(speedup > 4.0, "speedup only {speedup:.2}x");
    }

    #[test]
    fn plan_matches_the_passes_run_one_by_one() {
        let machine = MachineDescription::n_cores(8);
        for name in ["KMeans", "Series"] {
            let bench = bamboo_apps::by_name(name).unwrap();
            let compiler = bench.compiler(bamboo_apps::Scale::Small);
            let plan = compiler.plan("t", &machine, 5).unwrap();

            let (profile, single, ()) = compiler.profile_run(None, "t", |_| ()).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            let opts = SynthesisOptions::default();
            let synthesis = compiler.synthesize(&profile, &machine, &opts, &mut rng);
            let deployment = compiler.deploy(&synthesis);

            assert_eq!(plan.single.makespan, single.makespan, "{name}");
            assert_eq!(plan.synthesis.layout, synthesis.layout, "{name}");
            assert_eq!(
                plan.synthesis.estimate.makespan, synthesis.estimate.makespan,
                "{name}"
            );
            assert_eq!(plan.synthesis.stats, synthesis.stats, "{name}");
            assert_eq!(
                plan.deployment.layout.instances, deployment.layout.instances,
                "{name}"
            );
        }
    }

    #[test]
    fn dsl_pipeline_compiles_and_runs() {
        let compiler = Compiler::from_source(
            "kc",
            r#"
            class StartupObject { flag initialstate; }
            class Work { flag ready; int v; Work(int v) { this.v = v; } }
            task startup(StartupObject s in initialstate) {
                for (int i = 0; i < 6; i = i + 1) {
                    Work w = new Work(i){ ready := true };
                }
                taskexit(s: initialstate := false);
            }
            task run(Work w in ready) {
                w.v = w.v * w.v;
                taskexit(w: ready := false);
            }
            "#,
        )
        .unwrap();
        let (profile, report, ()) = compiler.profile_run(None, "x", |_| ()).unwrap();
        assert_eq!(report.invocations, 7);
        assert_eq!(
            profile
                .task(compiler.program.spec.task_by_name("run").unwrap())
                .invocations(),
            6
        );
    }

    #[test]
    fn source_errors_are_reported() {
        let err = Compiler::from_source("bad", "class A {").unwrap_err();
        assert!(!err.diagnostics.is_empty());
    }
}
