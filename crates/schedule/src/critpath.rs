//! Critical path analysis of execution traces (paper §4.5.1-§4.5.2).
//!
//! The critical path is the heaviest chain of invocation, resource-wait,
//! and data-transfer edges from the start of the execution to its end; it
//! accounts for both scheduling and resource limitations. The analysis
//! identifies invocations that were *resource delayed* (started later than
//! their data was ready) and proposes task migrations that could shorten
//! the path — the moves that direct the simulated-annealing search.

use crate::layout::{InstanceId, Layout};
use crate::trace::ExecutionTrace;
use bamboo_machine::CoreId;
use bamboo_profile::Cycles;
use rand::Rng;
use std::collections::HashSet;

/// A proposed layout mutation: move one group instance to another core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MoveProposal {
    /// The instance to migrate.
    pub instance: InstanceId,
    /// Its new core.
    pub to_core: CoreId,
}

/// Returns the invocation ids on the critical path, in execution order.
///
/// The path is reconstructed backwards from the last-finishing
/// invocation: at each step the binding constraint — the same-core
/// predecessor whose completion gated the start, or the latest-arriving
/// parameter's producer — becomes the previous node.
pub fn critical_path(trace: &ExecutionTrace) -> Vec<usize> {
    let Some(last) = trace.last() else {
        return Vec::new();
    };
    let mut path = vec![last.id];
    let mut cur = last.id;
    loop {
        let t = &trace.tasks[cur];
        let data_ready = trace.data_ready(t);
        // Resource edge binds when the core predecessor finished at (or
        // after) our data was ready and we started right after it.
        let resource_pred = t.prev_on_core.filter(|&p| {
            let prev = &trace.tasks[p];
            prev.end >= data_ready && t.start == prev.end
        });
        let next = match resource_pred {
            Some(p) => Some(p),
            None => trace
                .deps_of(t)
                .iter()
                .filter(|d| d.arrival == data_ready)
                .find_map(|d| d.producer),
        };
        match next {
            Some(p) => {
                path.push(p);
                cur = p;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

/// Invocation ids on the critical path that started later than their data
/// was ready — i.e. were delayed by a resource conflict.
pub fn resource_delayed(trace: &ExecutionTrace, path: &[usize]) -> Vec<usize> {
    path.iter()
        .copied()
        .filter(|&id| {
            let t = &trace.tasks[id];
            t.start > trace.data_ready(t)
        })
        .collect()
}

/// Identifies *key* invocations on the path: those producing data the next
/// path invocation consumes (as opposed to mere resource predecessors).
pub fn key_invocations(trace: &ExecutionTrace, path: &[usize]) -> Vec<usize> {
    let mut keys = Vec::new();
    for window in path.windows(2) {
        let (a, b) = (window[0], window[1]);
        if trace
            .deps_of(&trace.tasks[b])
            .iter()
            .any(|d| d.producer == Some(a))
        {
            keys.push(a);
        }
    }
    keys
}

/// Proposes layout mutations that attack the critical path (paper
/// §4.5.2):
///
/// 1. Resource-delayed invocations are grouped by data-ready time;
///    one group is selected at random.
/// 2. Each selected invocation's instance is proposed for migration to
///    the least-loaded cores (spare capacity first).
/// 3. When a non-key invocation delays a key invocation on the same core,
///    the non-key instance is proposed for eviction.
///
/// This is [`MoveBasis::of`] followed by [`MoveBasis::propose`]; the
/// annealer keeps the basis instead of the trace.
pub fn propose_moves<R: Rng>(
    trace: &ExecutionTrace,
    layout: &Layout,
    rng: &mut R,
    max_proposals: usize,
) -> Vec<MoveProposal> {
    MoveBasis::of(trace, layout).propose(rng, max_proposals)
}

/// The part of [`propose_moves`] that needs no randomness: everything a
/// trace says about where to move work, without the trace.
///
/// A basis holds a few entries per resource-delayed invocation on the
/// critical path, where its trace holds every invocation with its
/// dependences, so the annealer derives it right after each
/// simulation, reuses the trace's buffers, and memoizes the basis.
/// Proposals are ranked: data-bound-tail relocations first (they are
/// few and high-value), then resource-delay migrations, then non-key
/// evictions; [`Self::propose`] keeps the heads after an
/// order-preserving dedup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MoveBasis {
    /// Relocations of the path's last invocation.
    tail: Vec<MoveProposal>,
    /// Resource-delayed path invocations as `(instance, its core)`,
    /// grouped by data-ready time in ascending order, path order within
    /// a group.
    delayed: Vec<(InstanceId, CoreId)>,
    /// End of each data-ready group in `delayed`.
    group_ends: Vec<usize>,
    /// The five least-loaded cores: where delayed instances may move.
    targets: Vec<CoreId>,
    /// Evictions of non-key invocations that delay a key one.
    evictions: Vec<MoveProposal>,
}

impl MoveBasis {
    /// Derives the basis of `trace`, a simulation of `layout`.
    pub fn of(trace: &ExecutionTrace, layout: &Layout) -> Self {
        let path = critical_path(trace);
        let mut basis = MoveBasis::default();

        // Per-core busy cycles, to find spare capacity.
        let mut busy: Vec<Cycles> = vec![0; layout.core_count];
        for t in &trace.tasks {
            if t.core.index() < busy.len() {
                busy[t.core.index()] += t.duration();
            }
        }
        let mut cores_by_load: Vec<CoreId> = (0..layout.core_count).map(CoreId::new).collect();
        cores_by_load.sort_by_key(|c| busy[c.index()]);
        let moves = |instance: InstanceId, take: usize| {
            let home = layout.core_of(instance);
            cores_by_load
                .iter()
                .take(take)
                .filter(move |&&core| core != home)
                .map(move |&to_core| MoveProposal { instance, to_core })
        };

        // Data-bound tail: when the path's final invocations are waiting
        // on data rather than a core (a serial consumer like a combiner
        // or aggregator), no resource delay points at them — yet
        // relocating the consumer instance to a lighter core shortens
        // the tail. Propose moving the last invocation's instance to the
        // least-loaded cores.
        if let Some(&last) = path.last() {
            basis.tail.extend(moves(trace.tasks[last].instance, 3));
        }

        // Resource delays, grouped by data-ready time (a stable sort
        // keeps path order within a group).
        let mut delayed: Vec<(Cycles, InstanceId)> = resource_delayed(trace, &path)
            .into_iter()
            .map(|id| {
                let t = &trace.tasks[id];
                (trace.data_ready(t), t.instance)
            })
            .collect();
        delayed.sort_by_key(|&(ready, _)| ready);
        for (i, &(ready, instance)) in delayed.iter().enumerate() {
            if i > 0 && delayed[i - 1].0 != ready {
                basis.group_ends.push(i);
            }
            basis.delayed.push((instance, layout.core_of(instance)));
        }
        if !delayed.is_empty() {
            basis.group_ends.push(delayed.len());
        }
        basis.targets = cores_by_load.iter().take(5).copied().collect();

        // Non-key eviction: a non-key path invocation sharing a core with
        // a key invocation it precedes. Membership via a bitmap over
        // invocation ids — the path can run to thousands of nodes, so
        // `contains` on the key list would be quadratic in path length.
        let mut is_key = vec![false; trace.tasks.len()];
        for k in key_invocations(trace, &path) {
            is_key[k] = true;
        }
        for window in path.windows(2) {
            let (a, b) = (window[0], window[1]);
            let (ta, tb) = (&trace.tasks[a], &trace.tasks[b]);
            if !is_key[a] && is_key[b] && ta.core == tb.core {
                basis.evictions.extend(moves(ta.instance, 2));
            }
        }
        basis
    }

    /// Draws up to `max_proposals` moves: one delayed group is selected
    /// at random and attacked first (the paper's §4.5.2 selection), the
    /// remaining groups follow while the budget of `3 × max_proposals`
    /// raw proposals lasts. Draws one `gen_range` when any invocation
    /// was resource delayed, nothing otherwise.
    pub fn propose<R: Rng>(&self, rng: &mut R, max_proposals: usize) -> Vec<MoveProposal> {
        let mut proposals = self.tail.clone();
        let groups = self.group_ends.len();
        if groups > 0 {
            let first = rng.gen_range(0..groups);
            'groups: for g in (first..groups).chain(0..first) {
                let start = if g == 0 { 0 } else { self.group_ends[g - 1] };
                for &(instance, home) in &self.delayed[start..self.group_ends[g]] {
                    proposals.extend(
                        self.targets
                            .iter()
                            .filter(|&&core| core != home)
                            .map(|&to_core| MoveProposal { instance, to_core }),
                    );
                    if proposals.len() >= max_proposals * 3 {
                        break 'groups;
                    }
                }
            }
        }
        proposals.extend_from_slice(&self.evictions);

        // Order-preserving dedup; never move the startup-pinned instance.
        let mut seen = HashSet::new();
        proposals
            .retain(|p| (p.instance.index() != 0 || p.to_core.index() == 0) && seen.insert(*p));
        proposals.truncate(max_proposals);
        proposals
    }
}

/// Applies a move, producing a new layout.
pub fn apply_move(layout: &Layout, proposal: MoveProposal) -> Layout {
    let mut out = layout.clone();
    out.instances[proposal.instance.index()].core = proposal.to_core;
    out
}

/// [`propose_moves`] in one pass over the trace: the oracle
/// [`MoveBasis`] is tested against (unit tests here,
/// `tests/sim_oracle.rs`). No non-test code calls it.
#[doc(hidden)]
pub fn propose_moves_oracle<R: Rng>(
    trace: &ExecutionTrace,
    layout: &Layout,
    rng: &mut R,
    max_proposals: usize,
) -> Vec<MoveProposal> {
    let path = critical_path(trace);
    let delayed = resource_delayed(trace, &path);
    // Proposals are ranked: data-bound-tail relocations first (they are
    // few and high-value), then resource-delay migrations, then non-key
    // evictions; order-preserving dedup + truncation keeps the heads.
    let mut proposals = Vec::new();

    // Per-core busy cycles, to find spare capacity.
    let mut busy: Vec<Cycles> = vec![0; layout.core_count];
    for t in &trace.tasks {
        if t.core.index() < busy.len() {
            busy[t.core.index()] += t.duration();
        }
    }
    let mut cores_by_load: Vec<CoreId> = (0..layout.core_count).map(CoreId::new).collect();
    cores_by_load.sort_by_key(|c| busy[c.index()]);

    // Data-bound tail: when the path's final invocations are waiting on
    // data rather than a core (a serial consumer like a combiner or
    // aggregator), no resource delay points at them — yet relocating the
    // consumer instance to a lighter core shortens the tail. Propose
    // moving the last invocation's instance to the least-loaded cores.
    if let Some(&last) = path.last() {
        let inst = trace.tasks[last].instance;
        let home = layout.core_of(inst);
        for &core in cores_by_load.iter().take(3) {
            if core != home {
                proposals.push(MoveProposal {
                    instance: inst,
                    to_core: core,
                });
            }
        }
    }

    if !delayed.is_empty() {
        // Group by data-ready time; pick one group at random.
        let mut groups: std::collections::HashMap<Cycles, Vec<usize>> =
            std::collections::HashMap::new();
        for id in &delayed {
            groups
                .entry(trace.data_ready(&trace.tasks[*id]))
                .or_default()
                .push(*id);
        }
        let mut keys: Vec<Cycles> = groups.keys().copied().collect();
        keys.sort_unstable();
        // Attack a randomly selected group first (the paper's §4.5.2
        // selection), then spill into the remaining groups while the
        // proposal budget lasts.
        let first = rng.gen_range(0..keys.len());
        let order = keys[first..].iter().chain(keys[..first].iter());
        'groups: for key in order {
            for &id in &groups[key] {
                let inst = trace.tasks[id].instance;
                let home = layout.core_of(inst);
                for &core in cores_by_load.iter().take(5) {
                    if core != home {
                        proposals.push(MoveProposal {
                            instance: inst,
                            to_core: core,
                        });
                    }
                }
                if proposals.len() >= max_proposals * 3 {
                    break 'groups;
                }
            }
        }
    }

    // Non-key eviction: a non-key path invocation sharing a core with a
    // key invocation it precedes. Membership via a bitmap over invocation
    // ids — the path can run to thousands of nodes, so `contains` on the
    // key list would be quadratic in path length.
    let keys = key_invocations(trace, &path);
    let mut is_key = vec![false; trace.tasks.len()];
    for &k in &keys {
        is_key[k] = true;
    }
    for window in path.windows(2) {
        let (a, b) = (window[0], window[1]);
        let (ta, tb) = (&trace.tasks[a], &trace.tasks[b]);
        if !is_key[a] && is_key[b] && ta.core == tb.core {
            let home = layout.core_of(ta.instance);
            for &core in cores_by_load.iter().take(2) {
                if core != home {
                    proposals.push(MoveProposal {
                        instance: ta.instance,
                        to_core: core,
                    });
                }
            }
        }
    }

    // Order-preserving dedup; never move the startup-pinned instance.
    let mut seen = std::collections::HashSet::new();
    proposals.retain(|p| (p.instance.index() != 0 || p.to_core.index() == 0) && seen.insert(*p));
    proposals.truncate(max_proposals);
    proposals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{DataDep, TraceTask};
    use bamboo_lang::ids::TaskId;

    /// One `trace_of` task: `(id, core, start, end, deps, prev_on_core)`.
    type TracePart = (usize, usize, u64, u64, Vec<DataDep>, Option<usize>);

    /// Builds a trace from task tuples, packing the deps into the
    /// trace's arena.
    fn trace_of(parts: Vec<TracePart>, makespan: u64) -> ExecutionTrace {
        let mut trace = ExecutionTrace {
            makespan,
            ..ExecutionTrace::default()
        };
        for (id, core, start, end, deps, prev) in parts {
            trace.push_task(
                TraceTask {
                    id,
                    task: TaskId::new(0),
                    instance: InstanceId(id as u32),
                    core: CoreId::new(core),
                    start,
                    end,
                    deps: crate::trace::DepRange::default(),
                    prev_on_core: prev,
                },
                &deps,
            );
        }
        trace
    }

    /// Chain: 0 produces for 1; 2 runs on core 0 after 0, delaying
    /// nothing critical.
    fn linear_trace() -> ExecutionTrace {
        trace_of(
            vec![
                (
                    0,
                    0,
                    0,
                    10,
                    vec![DataDep {
                        producer: None,
                        arrival: 0,
                    }],
                    None,
                ),
                (
                    1,
                    1,
                    12,
                    30,
                    vec![DataDep {
                        producer: Some(0),
                        arrival: 12,
                    }],
                    None,
                ),
                (
                    2,
                    0,
                    10,
                    14,
                    vec![DataDep {
                        producer: Some(0),
                        arrival: 10,
                    }],
                    Some(0),
                ),
            ],
            30,
        )
    }

    #[test]
    fn critical_path_follows_data_edges() {
        let trace = linear_trace();
        assert_eq!(critical_path(&trace), vec![0, 1]);
    }

    #[test]
    fn resource_delay_detected() {
        // Invocation 1 is ready at 5 but starts at 20 behind 0 on the same
        // core.
        let trace = trace_of(
            vec![
                (
                    0,
                    0,
                    0,
                    20,
                    vec![DataDep {
                        producer: None,
                        arrival: 0,
                    }],
                    None,
                ),
                (
                    1,
                    0,
                    20,
                    40,
                    vec![DataDep {
                        producer: None,
                        arrival: 5,
                    }],
                    Some(0),
                ),
            ],
            40,
        );
        let path = critical_path(&trace);
        assert_eq!(path, vec![0, 1]);
        assert_eq!(resource_delayed(&trace, &path), vec![1]);
    }

    #[test]
    fn key_invocations_are_data_producers() {
        let trace = linear_trace();
        let path = critical_path(&trace);
        assert_eq!(key_invocations(&trace, &path), vec![0]);
    }

    #[test]
    fn proposals_target_resource_delays() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Two instances on core 0 of a 2-core layout; 1 delayed.
        let trace = trace_of(
            vec![
                (
                    0,
                    0,
                    0,
                    20,
                    vec![DataDep {
                        producer: None,
                        arrival: 0,
                    }],
                    None,
                ),
                (
                    1,
                    0,
                    20,
                    40,
                    vec![DataDep {
                        producer: None,
                        arrival: 0,
                    }],
                    Some(0),
                ),
            ],
            40,
        );
        // Build a tiny layout by hand through the public constructor path.
        let (graph, repl, layout) = crate::testutil::tiny_two_group_layout(2);
        let _ = (&graph, &repl);
        let mut rng = StdRng::seed_from_u64(3);
        let proposals = propose_moves(&trace, &layout, &mut rng, 8);
        assert!(!proposals.is_empty());
        for p in &proposals {
            let moved = apply_move(&layout, *p);
            assert_eq!(moved.core_of(p.instance), p.to_core);
        }
    }

    /// The basis proposes what the one-pass generator proposed, in the
    /// same order, and leaves the RNG where it left it, on traces of
    /// random keyword-count layouts.
    #[test]
    fn basis_matches_the_one_pass_generator() {
        use crate::groups::GroupGraph;
        use crate::mapping::random_layouts;
        use crate::preprocess::scc_tree_transform;
        use crate::sim::{simulate, SimOptions};
        use crate::testutil::kc_setup;
        use crate::transforms::compute_replication;
        use bamboo_machine::MachineDescription;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let opts = SimOptions {
            collect_trace: true,
            ..SimOptions::default()
        };
        let mut drawn = 0;
        for cores in [2, 4, 8] {
            let machine = MachineDescription::n_cores(cores);
            let repl = compute_replication(&spec, &graph, &profile, cores);
            let mut rng = StdRng::seed_from_u64(cores as u64);
            for layout in random_layouts(&graph, &repl, cores, 16, &mut rng) {
                let sim = simulate(&spec, &graph, &layout, &profile, &machine, &opts);
                let trace = sim.trace.as_deref().expect("traced");
                let basis = MoveBasis::of(trace, &layout);
                drawn += usize::from(!basis.group_ends.is_empty());
                for k in [6, 8, 10] {
                    for seed in 0..4 {
                        let mut split = StdRng::seed_from_u64(seed);
                        let mut oracle = StdRng::seed_from_u64(seed);
                        assert_eq!(
                            basis.propose(&mut split, k),
                            propose_moves_oracle(trace, &layout, &mut oracle, k),
                            "{cores} cores, k {k}, seed {seed}"
                        );
                        assert_eq!(split.next_u64(), oracle.next_u64(), "RNG state");
                    }
                }
            }
        }
        assert!(drawn > 0, "no trace had a resource-delayed invocation");
    }

    /// The raw-proposal budget binds: a large first group stops the walk
    /// before a later group's moves get in, so whether instance 2 is
    /// proposed depends on which group the RNG attacks first.
    #[test]
    fn proposal_budget_stops_the_group_walk() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // One chain on core 0 of a 3-core layout: 21 invocations of
        // instance 1 with data ready at 0, then 3 of instance 2 with
        // data ready at 1, then instance 1 again. All but the first are
        // resource delayed; the path is the whole chain.
        let (_, _, layout) = crate::testutil::tiny_two_group_layout(3);
        let mut trace = ExecutionTrace::default();
        let instances = std::iter::repeat_n((1, 0), 21)
            .chain(std::iter::repeat_n((2, 1), 3))
            .chain([(1, 0)]);
        for (id, (instance, ready)) in instances.enumerate() {
            let start = 10 * id as u64;
            trace.push_task(
                TraceTask {
                    id,
                    task: TaskId::new(0),
                    instance: InstanceId(instance),
                    core: CoreId::new(0),
                    start,
                    end: start + 10,
                    deps: crate::trace::DepRange::default(),
                    prev_on_core: id.checked_sub(1),
                },
                &[DataDep {
                    producer: None,
                    arrival: ready,
                }],
            );
        }
        trace.makespan = 250;
        let basis = MoveBasis::of(&trace, &layout);
        let mut lengths = std::collections::BTreeSet::new();
        for seed in 0..8 {
            let mut split = StdRng::seed_from_u64(seed);
            let mut oracle = StdRng::seed_from_u64(seed);
            let proposals = basis.propose(&mut split, 6);
            assert_eq!(
                proposals,
                propose_moves_oracle(&trace, &layout, &mut oracle, 6)
            );
            lengths.insert(proposals.len());
        }
        // Instance 1 to cores 1 and 2, and instance 2 too only when its
        // group goes first.
        assert_eq!(lengths.into_iter().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn empty_trace_has_empty_path() {
        let trace = ExecutionTrace::default();
        assert!(critical_path(&trace).is_empty());
    }
}
