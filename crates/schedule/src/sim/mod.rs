//! The high-level scheduling simulator (paper §4.4).
//!
//! Estimates how long a candidate [`Layout`] takes to execute — *without
//! running any application code*. Each simulated invocation's exit,
//! duration, and allocations come from the profile-driven
//! [`bamboo_profile::MarkovModel`]; objects are abstract (class + flag
//! valuation + home instance + tag hash); inter-core deliveries pay the
//! machine's transfer cost.
//!
//! # One kernel, two sources, one oracle
//!
//! The dispatch loop — event queue, per-core ready queues, per-instance
//! parameter sets over the [`crate::formation`] slot tables, routing
//! through the one [`crate::routing::RouteTable`], transfer costs and
//! the trace — is written once, in [`kernel`]. It is generic over a
//! [`kernel::Source`], which supplies what each invocation does. The
//! simulator's source ([`fast`]) reads profile predictions; the virtual
//! executor (`bamboo_runtime::VirtualExecutor`) runs the task bodies on
//! the same kernel, so in the Figure 9 comparison predicted and observed
//! schedules differ only in where each invocation's outcome comes from.
//!
//! [`simulate`] and the DSA optimizer both run [`fast`]'s [`SimEngine`]:
//! immutable per-program tables in a [`SimProgram`], and an engine whose
//! prediction streams and kernel arenas persist across the many
//! candidate evaluations of one DSA run. [`simulate`] builds both for a
//! single run.
//!
//! `reference` is the straightforward implementation of the same
//! semantics, kept as the oracle the engine is differentially tested
//! against (unit tests in [`fast`], `tests/sim_oracle.rs`). No non-test
//! code calls it.

pub mod fast;
pub mod kernel;
#[doc(hidden)]
pub mod reference;

use crate::critpath::MoveBasis;
use crate::groups::GroupGraph;
use crate::layout::Layout;
use crate::trace::ExecutionTrace;
use bamboo_lang::spec::ProgramSpec;
use bamboo_machine::MachineDescription;
use bamboo_profile::{Cycles, Profile};
use std::sync::Arc;

pub use fast::{SimEngine, SimProgram};

/// Virtual time at which a simulation stops even if work remains
/// (guards against non-terminating profiles).
pub const HORIZON: Cycles = 500_000_000_000;

/// Cycles charged to a core per simulated task dispatch (queue pop,
/// parameter locking).
pub const DISPATCH_OVERHEAD: Cycles = 40;

/// Simulator options.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Record a full execution trace (needed for critical-path analysis).
    pub collect_trace: bool,
    /// Use the profile's recorded invocation sequence (replay mode) when
    /// available; `false` falls back to the aggregate count-matching
    /// Markov model everywhere (the Figure 9 ablation).
    pub replay: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            collect_trace: false,
            replay: true,
        }
    }
}

/// Result of a simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Estimated completion time (or [`HORIZON`], if incomplete).
    pub makespan: Cycles,
    /// Whether the simulated execution drained all work.
    pub completed: bool,
    /// Number of simulated invocations.
    pub invocations: usize,
    /// Fraction of used-core capacity spent executing tasks.
    pub utilization: f64,
    /// The trace, when requested. The DSA optimizer never keeps one:
    /// it scores candidates into a trace buffer its engine reuses,
    /// memoizes the trace's [`MoveBasis`], and traces only the winner
    /// it returns. Shared (`Arc`) so a caller's copies of a traced
    /// result clone a pointer, not thousands of trace tasks.
    pub trace: Option<Arc<ExecutionTrace>>,
}

/// Runs the scheduling simulation of `layout`: one [`SimProgram`] and
/// [`SimEngine`] built for this run. Callers scoring many layouts of one
/// program should keep an engine and call [`SimEngine::simulate`].
pub fn simulate(
    spec: &ProgramSpec,
    graph: &GroupGraph,
    layout: &Layout,
    profile: &Profile,
    machine: &MachineDescription,
    opts: &SimOptions,
) -> SimResult {
    let program = SimProgram::new(spec, graph, profile, machine, opts);
    SimEngine::new(&program).simulate(layout, opts.collect_trace)
}

/// A bounded, memoized store of simulation results keyed by layout
/// fingerprint ([`crate::layout::Layout::fingerprint`]).
///
/// [`simulate`] is a pure function of `(spec, graph, layout, profile,
/// machine, opts)`, so within one optimization run — where everything
/// but the layout is fixed — a result can be replayed for any layout
/// whose fingerprint was already simulated. The DSA optimizer uses this
/// to avoid re-simulating survivors that re-enter the candidate pool
/// across iterations. Its entries hold a traceless result and the
/// [`MoveBasis`] of the trace, which is all the optimizer reads of a
/// trace, so a cache reused across searches replays the same
/// proposals.
///
/// The cache holds at most [`SimCache::capacity`] entries; inserting
/// past that evicts the least-recently-used entry (deterministically —
/// all cache traffic happens on the DSA driver thread), so long-lived
/// callers such as the adaptive controller no longer grow without
/// bound. Evictions are counted and surface as `dsa.cache_evictions`.
#[derive(Clone, Debug)]
pub struct SimCache {
    map: std::collections::HashMap<u64, (Memo, u64)>,
    capacity: usize,
    tick: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
}

/// One memoized evaluation: the result, and the move basis of its trace
/// when the optimizer scored it.
pub(crate) type Memo = (SimResult, Option<Arc<MoveBasis>>);

/// Default [`SimCache`] capacity: comfortably above one DSA run's
/// working set (`max_candidates` × survivors across iterations), small
/// enough that a day-long adaptive session stays bounded.
pub const SIM_CACHE_DEFAULT_CAPACITY: usize = 4096;

impl Default for SimCache {
    fn default() -> Self {
        SimCache::with_capacity(SIM_CACHE_DEFAULT_CAPACITY)
    }
}

impl SimCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        SimCache::default()
    }

    /// An empty cache bounded to `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SimCache {
            map: std::collections::HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn bump(tick: &mut u64) -> u64 {
        *tick += 1;
        *tick
    }

    /// Replays the memoized result for `fingerprint`, counting a hit;
    /// `None` counts nothing (the caller simulates and [`Self::insert`]s,
    /// which counts the miss).
    pub fn lookup(&mut self, fingerprint: u64) -> Option<SimResult> {
        self.touch(fingerprint).map(|(result, _)| result.clone())
    }

    /// Memoizes a freshly simulated result, counting a miss.
    pub fn insert(&mut self, fingerprint: u64, result: SimResult) {
        self.memoize(fingerprint, (result, None));
    }

    /// [`Self::lookup`], with the move basis.
    pub(crate) fn replay(&mut self, fingerprint: u64) -> Option<Memo> {
        self.touch(fingerprint).cloned()
    }

    /// The entry for `fingerprint`, marked most recently used and
    /// counted as a hit.
    fn touch(&mut self, fingerprint: u64) -> Option<&Memo> {
        let tick = Self::bump(&mut self.tick);
        let slot = self.map.get_mut(&fingerprint)?;
        slot.1 = tick;
        self.hits += 1;
        Some(&slot.0)
    }

    /// [`Self::insert`], with the move basis.
    pub(crate) fn memoize(&mut self, fingerprint: u64, memo: Memo) {
        self.misses += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&fingerprint) {
            // Evict the least-recently-used entry. The linear scan is
            // fine: capacity is small and insertion is rare next to the
            // simulations that feed it.
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(fp, _)| fp)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        let tick = Self::bump(&mut self.tick);
        self.map.insert(fingerprint, (memo, tick));
    }

    /// Every memoized entry, in no particular order.
    #[cfg(test)]
    pub(crate) fn memos(&self) -> impl Iterator<Item = &Memo> {
        self.map.values().map(|(memo, _)| memo)
    }

    /// Results currently memoized.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entry bound (LRU eviction threshold).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Results computed and inserted.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Entries evicted to respect [`Self::capacity`].
    pub fn evictions(&self) -> usize {
        self.evictions
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    fn result(makespan: Cycles) -> SimResult {
        SimResult {
            makespan,
            completed: true,
            invocations: 1,
            utilization: 1.0,
            trace: None,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = SimCache::with_capacity(2);
        cache.insert(1, result(10));
        cache.insert(2, result(20));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1).is_some());
        cache.insert(3, result(30));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(2).is_none());
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut cache = SimCache::with_capacity(2);
        cache.insert(1, result(10));
        cache.insert(2, result(20));
        cache.insert(2, result(21));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.lookup(2).map(|r| r.makespan), Some(21));
    }
}
