#![warn(missing_docs)]

//! # bamboo
//!
//! A from-scratch Rust reproduction of **Bamboo: A Data-Centric,
//! Object-Oriented Approach to Many-core Software** (Jin Zhou and Brian
//! Demsky, PLDI 2010).
//!
//! Bamboo is a data-oriented extension of Java: programs are sets of
//! *tasks* with guards over the *abstract states* (flags, tags) of their
//! parameter objects; the runtime invokes a task whenever objects in
//! satisfying states exist. The compiler analyzes the task declarations
//! (dependence analysis), the imperative bodies (disjointness analysis),
//! and profile data to *synthesize* a many-core implementation: core
//! groups, replication, and a core mapping optimized by critical-path
//! directed simulated annealing — then the distributed runtime executes
//! it with transactional task semantics.
//!
//! This umbrella crate re-exports the whole system and provides the
//! [`Compiler`] driver. The subsystem crates:
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | [`lang`] | §2-§3 | DSL frontend, program model, native builder, interpreter |
//! | [`analysis`] | §4.1-§4.2 | ASTG/CSTG dependence analysis, disjointness analysis |
//! | [`profile`] | §4.3.1, §4.4 | profiles, deterministic Markov model |
//! | [`machine`] | §5 | TILEPro64-like processor descriptions |
//! | [`schedule`] | §4.3-§4.5 | synthesis: groups, transforms, mapping, simulator, DSA |
//! | [`runtime`] | §4.7 | object store, per-core schedulers, three executors |
//!
//! # Examples
//!
//! Compile, then plan — profile on one core, synthesize for 62 cores,
//! deploy — and execute (the paper's end-to-end flow):
//!
//! ```
//! use bamboo::{Compiler, ExecConfig, MachineDescription, VirtualExecutor};
//!
//! let compiler = Compiler::from_source(
//!     "demo",
//!     r#"
//!     class StartupObject { flag initialstate; }
//!     class Work { flag ready; int v; Work(int v) { this.v = v; } }
//!     task startup(StartupObject s in initialstate) {
//!         for (int i = 0; i < 8; i = i + 1) {
//!             Work w = new Work(i){ ready := true };
//!         }
//!         taskexit(s: initialstate := false);
//!     }
//!     task run(Work w in ready) {
//!         int acc = 0;
//!         for (int i = 0; i < 100; i = i + 1) { acc = acc + i * w.v; }
//!         w.v = acc;
//!         taskexit(w: ready := false);
//!     }
//!     "#,
//! )?;
//! let machine = MachineDescription::tilepro64();
//! let plan = compiler.plan("original", &machine, 42)?;
//! let mut exec = VirtualExecutor::over(&plan.deployment, &machine, ExecConfig::default());
//! let parallel = exec.run(None)?;
//! assert!(parallel.makespan < plan.single.makespan);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod compiler;
pub mod error;
pub mod handle;
pub mod prelude;

pub use compiler::{Compiler, Plan};
pub use error::Error;
pub use handle::DeploymentHandle;

// Subsystem crates, re-exported under stable names.
pub use bamboo_analysis as analysis;
pub use bamboo_lang as lang;
pub use bamboo_machine as machine;
pub use bamboo_profile as profile;
pub use bamboo_runtime as runtime;
pub use bamboo_schedule as schedule;
pub use bamboo_serving as serving;
pub use bamboo_telemetry as telemetry;

// The most commonly used items, re-exported flat.
pub use bamboo_analysis::{Cstg, DependenceAnalysis, DisjointnessAnalysis, LockPlan};
pub use bamboo_lang::builder::{BuiltProgram, ProgramBuilder};
pub use bamboo_lang::ids::{ClassId, ExitId, FlagId, ParamIdx, TagTypeId, TaskId};
pub use bamboo_lang::spec::{FlagExpr, FlagSet, ProgramSpec};
pub use bamboo_machine::{CoreId, MachineDescription};
pub use bamboo_profile::{Cycles, MarkovModel, Profile, ProfileCollector};
pub use bamboo_runtime::{
    body, AdaptPolicy, AdaptReport, AdaptiveController, Completion, CoreKill, CoreStall,
    Deployment, ExecConfig, ExecError, FaultPlan, FaultSpec, KillTarget, NativeBody, NativePayload,
    PayloadTypeError, Program, RecoveryPolicy, RelayoutError, RelayoutHandle, RequestLedger,
    ResidentRun, RunOptions, RunReport, ThreadedExecutor, ThreadedReport, VirtualExecutor,
};
pub use bamboo_schedule::{
    simulate, DsaOptions, ExecutionTrace, GroupGraph, Layout, Replication, SimOptions, SimResult,
    SynthesisOptions, SynthesisResult,
};
pub use bamboo_serving::{
    AdmissionControl, ArrivalProcess, Bursty, ChannelIngress, IngressHandle, Pacing, Poisson,
    ScopeConfig, ScopeHandle, ScopeSnapshot, ServingError, ServingOptions, ServingReport,
    ServingSession, ShedReason, TokenBucket, Trace,
};
pub use bamboo_telemetry::{Telemetry, TelemetryReport, TimeUnit};
