#![warn(missing_docs)]

//! # bamboo-analysis
//!
//! Static analyses of Bamboo programs (Zhou & Demsky, PLDI 2010, §4.1-§4.2):
//!
//! - [`astg`] — *dependence analysis*: per-class abstract state transition
//!   graphs over guard-relevant flags and 1-limited tag counts;
//! - [`cstg`] — the *combined state transition graph* characterizing the
//!   whole application, consumed by the implementation synthesizer;
//! - [`disjoint`] — *disjointness analysis* over task/method IR, producing
//!   the per-task [`disjoint::LockPlan`] that guarantees transactional
//!   task semantics with plain parameter-object locks;
//! - [`union_find`] — the disjoint-set structure shared by the analysis
//!   and the runtime's lock-class merging.
//!
//! # Examples
//!
//! ```
//! use bamboo_analysis::{astg::DependenceAnalysis, cstg::Cstg, disjoint::DisjointnessAnalysis};
//!
//! let compiled = bamboo_lang::compile_source(
//!     "demo",
//!     r#"
//!     class StartupObject { flag initialstate; }
//!     class Work { flag ready; }
//!     task startup(StartupObject s in initialstate) {
//!         Work w = new Work(){ ready := true };
//!         taskexit(s: initialstate := false);
//!     }
//!     task run(Work w in ready) { taskexit(w: ready := false); }
//!     "#,
//! )?;
//! let dep = DependenceAnalysis::run(&compiled.spec);
//! let cstg = Cstg::build(&compiled.spec, &dep);
//! let locks = DisjointnessAnalysis::run(&compiled.spec, &compiled.ir);
//! assert_eq!(cstg.nodes.len(), 4);
//! assert!(!locks.lock_plans.iter().any(|p| p.has_sharing()));
//! # Ok::<(), bamboo_lang::span::CompileError>(())
//! ```

pub mod astg;
pub mod cstg;
pub mod disjoint;
pub mod union_find;

pub use astg::{AbstractState, Astg, DependenceAnalysis, StateIdx, TagCount};
pub use cstg::{enabled_params, Cstg, NewEdge, NodeId, TaskEdge};
pub use disjoint::{DisjointnessAnalysis, LockPlan};
pub use union_find::UnionFind;
