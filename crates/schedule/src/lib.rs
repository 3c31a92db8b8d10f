#![warn(missing_docs)]

//! # bamboo-schedule
//!
//! Implementation synthesis for Bamboo programs (Zhou & Demsky, PLDI
//! 2010, sections 4.3-4.5): the machinery that turns a program's combined
//! state transition graph plus profile data into an optimized many-core
//! layout.
//!
//! Pipeline stages, each its own module:
//!
//! 1. [`groups`] — core groups and the group graph (data locality rule);
//! 2. [`preprocess`] — the SCC tree transformation;
//! 3. [`transforms`] — data-parallelization and rate-matching rules;
//! 4. [`mapping`] — non-isomorphic instance→core mapping enumeration with
//!    random subspace skipping;
//! 5. [`layout`] — candidate layouts, and [`routing`], the static
//!    [`routing::RouteTable`] the simulator shares with the runtime;
//! 6. [`sim`] — the Markov-driven discrete-event scheduling simulator
//!    (and [`formation`], the invocation rule it shares with the runtime);
//! 7. [`trace`] / [`critpath`] — execution traces and critical-path
//!    analysis;
//! 8. [`dsa`] — directed simulated annealing;
//! 9. [`synthesis`] — the end-to-end driver.
//!
//! # Examples
//!
//! See [`synthesis::synthesize`] for the one-call entry point; the
//! umbrella crate `bamboo` wires it into its `Compiler` driver.

pub mod critpath;
pub mod dsa;
pub mod formation;
pub mod groups;
pub mod layout;
pub mod mapping;
pub mod preprocess;
pub mod routing;
pub mod sim;
pub mod synthesis;
#[cfg(test)]
pub(crate) mod testutil;
pub mod trace;
pub mod transforms;
pub mod util;

pub use critpath::{critical_path, propose_moves, MoveBasis, MoveProposal};
pub use dsa::{optimize, optimize_with_cache, DsaOptions, DsaStats};
pub use groups::{Group, GroupGraph, GroupId, GroupNewEdge};
pub use layout::{FingerprintDigest, GroupInstance, InstanceId, Layout, RouteDecision, Router};
pub use mapping::{
    control_spread_layout, enumerate_mappings, random_layouts, spread_layout, MappingOptions,
};
pub use preprocess::scc_tree_transform;
pub use routing::RouteTable;
pub use sim::{simulate, SimCache, SimEngine, SimOptions, SimProgram, SimResult};
pub use synthesis::{bootstrap_plan, synthesize, SynthesisOptions, SynthesisResult};
pub use trace::{DataDep, ExecutionTrace, TraceTask};
pub use transforms::{
    compute_replication, compute_replication_with, replicable, Replication, RuleSet,
};
