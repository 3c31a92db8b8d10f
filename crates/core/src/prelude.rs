//! The items every Bamboo program touches, in one import.
//!
//! ```
//! use bamboo::prelude::*;
//! ```
//!
//! Covers the end-to-end flow: compile ([`Compiler`], or
//! [`ProgramBuilder`] + [`body`] for native programs) → profile →
//! synthesize ([`SynthesisOptions`], [`MachineDescription`]) → deploy
//! ([`Deployment`], [`RunOptions`]) → execute ([`VirtualExecutor`],
//! [`ThreadedExecutor`]) → serve ([`ServingSession`], [`ServingOptions`],
//! arrival processes) → inspect ([`Telemetry`]), with [`Error`]
//! threading the failures.

pub use crate::error::Error;
pub use crate::handle::DeploymentHandle;
pub use crate::{Compiler, Plan};
pub use bamboo_lang::builder::ProgramBuilder;
pub use bamboo_lang::spec::FlagExpr;
pub use bamboo_machine::MachineDescription;
pub use bamboo_profile::Profile;
pub use bamboo_runtime::{
    body, AdaptPolicy, AdaptReport, Deployment, ExecConfig, ExecError, FaultSpec, NativeBody,
    Program, RelayoutError, RunOptions, ThreadedExecutor, VirtualExecutor,
};
pub use bamboo_schedule::{GroupGraph, Layout, SynthesisOptions, SynthesisResult};
pub use bamboo_serving::{Bursty, Poisson, ScopeConfig, ServingOptions, ServingSession};
pub use bamboo_telemetry::Telemetry;
