//! A timing shim over the reference [`Router`], kept only for the
//! benchmark's `runtime.router.route_ns` probe.
//!
//! No executor routes through it: every executor routes through the
//! static [`bamboo_schedule::RouteTable`], which takes no lock. The
//! shim (and [`crate::ThreadedReport::router_contention`]) is deleted
//! when the benchmark's probe is retargeted at the table; until then
//! the probe times the reference router behind one mutex, not the
//! executors' path.

use bamboo_lang::ids::ClassId;
use bamboo_lang::spec::{FlagSet, ProgramSpec};
use bamboo_schedule::{GroupGraph, InstanceId, Layout, RouteDecision, Router};
use bamboo_telemetry::Counter;
use parking_lot::Mutex;

/// The reference [`Router`] behind one mutex. See the module docs.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct ShardedRouter {
    router: Mutex<Router>,
}

impl ShardedRouter {
    /// A fresh router. The arguments are ignored; they keep the probe's
    /// call compiling.
    pub fn new(_shards: usize, _cores: usize, _contended: Counter) -> Self {
        ShardedRouter::default()
    }

    /// [`Router::route_transition`]; `core` is ignored.
    #[allow(clippy::too_many_arguments)]
    pub fn route_transition(
        &self,
        _core: usize,
        spec: &ProgramSpec,
        graph: &GroupGraph,
        layout: &Layout,
        home: InstanceId,
        class: ClassId,
        flags: FlagSet,
        tag_hash: Option<u64>,
    ) -> RouteDecision {
        self.router
            .lock()
            .route_transition(spec, graph, layout, home, class, flags, tag_hash)
    }
}
