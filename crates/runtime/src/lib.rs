#![warn(missing_docs)]

//! # bamboo-runtime
//!
//! The Bamboo many-core runtime (Zhou & Demsky, PLDI 2010, §4.7):
//! distributed per-core schedulers with parameter sets and task-invocation
//! queues, transactional task dispatch (lock all parameter objects or try
//! another invocation — no aborts), static routing tables from the
//! synthesized layout, and shared-lock merging per the disjointness
//! analysis.
//!
//! Executors (see DESIGN.md §2 for why virtual time stands in for the
//! TILEPro64):
//!
//! - [`VirtualExecutor`] — executes real task bodies on N virtual cores
//!   under a deterministic cycle cost model. Virtual time advances on one
//!   host thread; formed native bodies may run ahead on the host's spare
//!   hardware threads, with the same results at any thread count. With a
//!   single-core layout this is the sequential profiling/1-core-Bamboo
//!   executor.
//! - [`ThreadedExecutor`] — real OS threads, one per core, with real
//!   try-locks and channel-based object transfer; demonstrates the
//!   concurrent semantics (native programs only).

pub mod adapt;
pub mod chaos;
pub mod cost;
pub mod deploy;
#[cfg(test)]
mod explore;
pub mod ledger;
pub mod program;
pub mod router;
pub mod store;
pub mod threaded;
pub mod virtual_exec;
mod worker;

pub use adapt::{AdaptPolicy, AdaptReport, AdaptiveController, RelayoutError};
pub use chaos::{CoreKill, CoreStall, FaultPlan, FaultSpec, KillTarget, Liveness, RecoveryPolicy};
pub use deploy::{Deployment, RunOptions};
pub use ledger::{Completion, RequestLedger};
pub use program::{body, NativeBody, NativePayload, Program, TaskCtx};
#[doc(hidden)]
pub use router::ShardedRouter;
// The layout is part of the runtime's public surface (deployments carry
// one; `RelayoutHandle::current_layout` returns the live view), so
// dependents that don't otherwise touch the scheduler can name it.
pub use bamboo_schedule::Layout;
pub use store::{ObjId, ObjectStore, PayloadSlot, RtObject};
pub use threaded::{
    PayloadTypeError, RelayoutHandle, ResidentRun, ThreadedExecutor, ThreadedReport,
};
pub use virtual_exec::{ExecConfig, ExecError, RunReport, VirtualExecutor};
