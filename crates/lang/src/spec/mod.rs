//! The shared program specification model.
//!
//! Both frontends — the DSL compiler ([`crate::compile_source`]) and the
//! native [`crate::builder::ProgramBuilder`] — produce a [`ProgramSpec`].
//! Everything downstream (dependence analysis, disjointness analysis,
//! implementation synthesis, and the runtime) consumes this model.

mod flagset;
mod guard;
mod program;

pub use flagset::{FlagSet, MAX_FLAGS};
pub use guard::FlagExpr;
pub use program::{
    AllocSiteSpec, ClassSpec, ExitSpec, FlagOrTagAction, GlobalAllocSite, ParamSpec, ProgramSpec,
    StartupSpec, TagConstraint, TagTypeSpec, TagVarSpec, TaskSpec, MAX_PARAMS,
};
