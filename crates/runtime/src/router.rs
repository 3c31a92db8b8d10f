//! Striped routing state for the threaded executor.
//!
//! The [`bamboo_schedule::Router`] is stateful (round-robin counters,
//! a dispatch memo), so the threaded executor must serialize access to
//! it. The original design used one global `Mutex<Router>` — every
//! object send in the whole machine contended on a single lock. A
//! [`ShardedRouter`] stripes that state per core instead: all routing
//! decisions are keyed by the *sending* instance, each instance lives
//! on exactly one core, and each core routes only for its own
//! instances, so giving every core its own `Router` stripe preserves
//! the exact per-(instance, task) round-robin sequences while making
//! concurrent routes from different cores contention-free.
//!
//! The stripes stay behind try-then-lock mutexes (rather than raw
//! per-worker ownership) so a work-stealing thief can route on behalf
//! of the victim instance's stripe; the `contended` counter measures
//! how often that actually collides (telemetry:
//! `threaded.router_contention`).

use bamboo_lang::ids::{AllocSiteId, ClassId, TaskId};
use bamboo_lang::spec::{FlagSet, ProgramSpec};
use bamboo_schedule::{GroupGraph, InstanceId, Layout, RouteDecision, Router};
use bamboo_telemetry::Counter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Per-core striped [`Router`] state. See the module docs.
#[derive(Debug)]
pub struct ShardedRouter {
    shards: Vec<Mutex<Router>>,
    contended: Counter,
    /// Raw contention tally, kept alongside the metric counter so the
    /// count is reportable even when telemetry is disabled (the
    /// [`Counter`] is a no-op then).
    tally: AtomicU64,
    /// `dead[core]`: the core was killed by fault injection and must be
    /// excluded from re-striped routing.
    dead: Vec<AtomicBool>,
}

impl ShardedRouter {
    /// Creates a router with `shards` stripes (clamped to ≥ 1) tracking
    /// liveness for `cores` cores. `contended` counts route calls that
    /// found their stripe locked.
    pub fn new(shards: usize, cores: usize, contended: Counter) -> Self {
        ShardedRouter {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Router::new()))
                .collect(),
            contended,
            tally: AtomicU64::new(0),
            dead: (0..cores.max(1)).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Marks `core` dead: [`Self::restripe`] excludes it from now on.
    pub fn mark_dead(&self, core: usize) {
        if let Some(flag) = self.dead.get(core) {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Whether `core` was marked dead.
    pub fn is_dead(&self, core: usize) -> bool {
        self.dead
            .get(core)
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Number of cores still live.
    pub fn live_count(&self) -> usize {
        self.dead
            .iter()
            .filter(|flag| !flag.load(Ordering::SeqCst))
            .count()
    }

    /// Re-stripes a routing decision around dead cores: of the
    /// `candidates` (the cores hosting the destination group), keeps
    /// the live ones and picks `live[key % live.len()]`. Total over any
    /// non-empty live subset, and — for a dense key range — each live
    /// core receives a load within 1 of uniform. Returns `None` when
    /// every candidate is dead (the caller must fail the run, typed).
    pub fn restripe(&self, candidates: &[usize], key: u64) -> Option<usize> {
        let live: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| !self.is_dead(c))
            .collect();
        if live.is_empty() {
            return None;
        }
        Some(live[(key % live.len() as u64) as usize])
    }

    /// Route calls so far that found their stripe locked and had to
    /// wait (mirrors the `threaded.router_contention` counter).
    pub fn contention_count(&self) -> u64 {
        self.tally.load(Ordering::Relaxed)
    }

    fn lock_shard(&self, core: usize) -> parking_lot::MutexGuard<'_, Router> {
        let shard = &self.shards[core % self.shards.len()];
        match shard.try_lock() {
            Some(guard) => guard,
            None => {
                self.tally.fetch_add(1, Ordering::Relaxed);
                self.contended.inc();
                shard.lock()
            }
        }
    }

    /// [`Router::route_transition`] on the stripe of `core` (the core
    /// hosting `home`).
    #[allow(clippy::too_many_arguments)]
    pub fn route_transition(
        &self,
        core: usize,
        spec: &ProgramSpec,
        graph: &GroupGraph,
        layout: &Layout,
        home: InstanceId,
        class: ClassId,
        flags: FlagSet,
        tag_hash: Option<u64>,
    ) -> RouteDecision {
        self.lock_shard(core)
            .route_transition(spec, graph, layout, home, class, flags, tag_hash)
    }

    /// Moves `instance`'s round-robin counters from the stripe of
    /// `from_core` to the stripe of `to_core` during a hot migration,
    /// so the per-(instance, task) distribution sequences continue
    /// exactly where the old core left them. No-op when both cores map
    /// to the same stripe.
    /// Both stripes are locked in index order, so concurrent transfers
    /// cannot deadlock against each other or against route calls.
    pub fn transfer_instance(&self, from_core: usize, to_core: usize, instance: InstanceId) {
        let from_idx = from_core % self.shards.len();
        let to_idx = to_core % self.shards.len();
        if from_idx == to_idx {
            return;
        }
        let (lo, hi) = (from_idx.min(to_idx), from_idx.max(to_idx));
        let mut guard_lo = self.shards[lo].lock();
        let mut guard_hi = self.shards[hi].lock();
        let (src, dst) = if from_idx == lo {
            (&mut guard_lo, &mut guard_hi)
        } else {
            (&mut guard_hi, &mut guard_lo)
        };
        let state = src.extract_instance(instance);
        if !state.is_empty() {
            dst.absorb_instance(instance, state);
        }
    }

    /// [`Router::route_new`] on the stripe of `core` (the core hosting
    /// `from`).
    #[allow(clippy::too_many_arguments)]
    pub fn route_new(
        &self,
        core: usize,
        spec: &ProgramSpec,
        graph: &GroupGraph,
        layout: &Layout,
        from: InstanceId,
        task: TaskId,
        site: AllocSiteId,
        tag_hash: Option<u64>,
    ) -> InstanceId {
        self.lock_shard(core)
            .route_new(spec, graph, layout, from, task, site, tag_hash)
    }
}
