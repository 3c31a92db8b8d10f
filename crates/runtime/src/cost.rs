//! Runtime cost model.
//!
//! The paper measures hardware clock cycles; this reproduction charges
//! explicit, deterministic cycle costs instead (see DESIGN.md §2). Task
//! bodies charge their own compute cycles via
//! [`crate::program::TaskCtx::charge`]; the runtime adds the dispatch
//! machinery costs below. The single-core *C baseline* of each benchmark
//! charges only body cycles, so the Bamboo-vs-C overhead column of the
//! paper's Figure 7 falls out of these constants times the number of
//! dispatch events.

use bamboo_profile::Cycles;

/// Popping an invocation off the ready queue and setting up the call.
pub const DISPATCH: Cycles = 30;
/// Acquiring/releasing one parameter object's lock.
pub const LOCK_PER_PARAM: Cycles = 6;
/// Enqueueing one object into parameter sets after delivery.
pub const ENQUEUE: Cycles = 8;
/// Registering a freshly allocated dispatch object.
pub const ALLOC: Cycles = 12;
