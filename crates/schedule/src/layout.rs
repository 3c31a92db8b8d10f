//! Candidate layouts and object routing (paper §4.3.4 and §4.7).
//!
//! A [`Layout`] maps *group instances* (replicated core groups) onto
//! cores. The [`Router`] here is the reference answer to the question
//! *where does an object go next?*; the executors and the simulator ask
//! [`crate::routing::RouteTable`], which gives the same answers from a
//! static table.
//!
//! - On **allocation**, the object is delivered to one of the destination
//!   group's instances: round-robin across copies, or by tag hash when the
//!   consuming task constrains all parameters to share a tag.
//! - On **transition**, the object stays on its home instance whenever a
//!   next task lives there (data locality); otherwise it transfers to the
//!   instance of the first task whose guard its new state satisfies.
//! - With no enabled task, the object leaves dispatch (dead state).

use crate::groups::{GroupGraph, GroupId};
use crate::transforms::Replication;
use bamboo_analysis::cstg::enabled_params;
use bamboo_lang::ids::{AllocSiteId, ClassId, TaskId};
use bamboo_lang::spec::{FlagSet, ProgramSpec};
use bamboo_machine::CoreId;
use std::collections::HashMap;
use std::fmt;

/// Identifies one group instance within a layout.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct InstanceId(pub u32);

impl InstanceId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

/// One replicated copy of a group, pinned to a core.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GroupInstance {
    /// The group this instance copies.
    pub group: GroupId,
    /// Copy number within the group (0-based).
    pub copy: u32,
    /// The core hosting the instance.
    pub core: CoreId,
}

/// A candidate implementation: group instances mapped to cores.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Layout {
    /// Number of cores in the target machine.
    pub core_count: usize,
    /// The instances, indexed by [`InstanceId`]. Instances of a group are
    /// contiguous and ordered by copy number.
    pub instances: Vec<GroupInstance>,
    /// Instances per group (indexed by [`GroupId`]).
    group_instances: Vec<Vec<InstanceId>>,
}

impl Layout {
    /// Builds a layout from per-group core assignments.
    ///
    /// `cores[g]` lists the core of each copy of group `g` (its length
    /// must equal the replication count).
    ///
    /// # Panics
    ///
    /// Panics if a core index is out of range or the shape mismatches
    /// `replication`.
    pub fn new(
        graph: &GroupGraph,
        replication: &Replication,
        core_count: usize,
        cores: &[Vec<CoreId>],
    ) -> Self {
        assert_eq!(cores.len(), graph.groups.len(), "one core list per group");
        let mut instances = Vec::new();
        let mut group_instances = vec![Vec::new(); graph.groups.len()];
        for (g, list) in cores.iter().enumerate() {
            assert_eq!(
                list.len(),
                replication.copies[g],
                "copy count mismatch for group {g}"
            );
            for (copy, &core) in list.iter().enumerate() {
                assert!(core.index() < core_count, "core out of range");
                let id = InstanceId(instances.len() as u32);
                instances.push(GroupInstance {
                    group: GroupId(g as u32),
                    copy: copy as u32,
                    core,
                });
                group_instances[g].push(id);
            }
        }
        Layout {
            core_count,
            instances,
            group_instances,
        }
    }

    /// The trivial single-core layout (everything on core 0).
    pub fn single_core(graph: &GroupGraph) -> Self {
        let repl = Replication::serial(graph);
        let cores: Vec<Vec<CoreId>> = graph.groups.iter().map(|_| vec![CoreId::new(0)]).collect();
        Layout::new(graph, &repl, 1, &cores)
    }

    /// The core of `instance`.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn core_of(&self, instance: InstanceId) -> CoreId {
        self.instances[instance.index()].core
    }

    /// The instances of `group`.
    pub fn instances_of(&self, group: GroupId) -> &[InstanceId] {
        &self.group_instances[group.index()]
    }

    /// The instances hosted on `core`.
    pub fn instances_on(&self, core: CoreId) -> Vec<InstanceId> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.core == core)
            .map(|(i, _)| InstanceId(i as u32))
            .collect()
    }

    /// Number of distinct cores actually used.
    pub fn cores_used(&self) -> usize {
        let mut used: Vec<CoreId> = self.instances.iter().map(|i| i.core).collect();
        used.sort();
        used.dedup();
        used.len()
    }

    /// A canonical signature for isomorphism comparison: the multiset of
    /// per-core contents, where each instance is identified by its group's
    /// origin. Two layouts with equal signatures are core-renamings of
    /// each other (up to replica exchange).
    pub fn signature(&self, graph: &GroupGraph) -> Vec<Vec<u32>> {
        let mut per_core: HashMap<CoreId, Vec<u32>> = HashMap::new();
        for inst in &self.instances {
            per_core
                .entry(inst.core)
                .or_default()
                .push(graph.groups[inst.group.index()].origin);
        }
        let mut sig: Vec<Vec<u32>> = per_core
            .into_values()
            .map(|mut v| {
                v.sort_unstable();
                v
            })
            .collect();
        sig.sort();
        sig
    }

    /// A stable 64-bit fingerprint with [`Self::signature`]'s equality
    /// semantics.
    ///
    /// The signature is a multiset (over cores) of multisets (of group
    /// origins), so the hash composes two commutative layers: each
    /// occupied core accumulates a wrapping sum of mixed origin values
    /// (order-free within the core), and the per-core digests — salted
    /// with the core's instance count — accumulate into an order-free
    /// outer sum. Two layouts hash equal exactly when their signatures
    /// are equal, up to 64-bit collisions, and the whole computation is
    /// one pass over the instances with a single scratch allocation —
    /// no per-core vectors, no sorting. Because both layers are sums, a
    /// move changes two per-core terms only: the DSA optimizer digests
    /// each survivor once ([`Self::digest`]) and derives its children's
    /// fingerprints from that digest.
    pub fn fingerprint(&self, graph: &GroupGraph) -> u64 {
        self.digest(graph).fingerprint()
    }

    /// The per-core terms of [`Self::fingerprint`], from which the
    /// fingerprint of a layout one move or one swap away follows in
    /// O(1), without building that layout.
    pub fn digest<'a>(&'a self, graph: &'a GroupGraph) -> FingerprintDigest<'a> {
        let mut per_core: Vec<(u64, u64)> = vec![(0, 0); self.core_count];
        for inst in &self.instances {
            let entry = &mut per_core[inst.core.index()];
            entry.0 = entry.0.wrapping_add(origin_term(graph, inst));
            entry.1 += 1;
        }
        let fingerprint = per_core
            .iter()
            .fold(0u64, |h, &tally| h.wrapping_add(core_term(tally)));
        FingerprintDigest {
            layout: self,
            graph,
            per_core,
            fingerprint,
        }
    }

    /// Renders the layout as a per-core table (the shape of the paper's
    /// Figure 4).
    pub fn describe(&self, spec: &ProgramSpec, graph: &GroupGraph) -> String {
        let mut out = String::new();
        for core in 0..self.core_count {
            let core = CoreId::new(core);
            let insts = self.instances_on(core);
            if insts.is_empty() {
                continue;
            }
            out.push_str(&format!("{core}:\n"));
            for inst in insts {
                let gi = &self.instances[inst.index()];
                let group = &graph.groups[gi.group.index()];
                let tasks: Vec<&str> = group
                    .tasks
                    .iter()
                    .map(|t| spec.task(*t).name.as_str())
                    .collect();
                out.push_str(&format!(
                    "  {} = {}[copy {}] tasks=[{}]\n",
                    inst,
                    gi.group,
                    gi.copy,
                    tasks.join(",")
                ));
            }
        }
        out
    }
}

/// A layout's [`Layout::fingerprint`] split into its per-core terms:
/// each core's wrapping sum of mixed group origins and its instance
/// count. Made by [`Layout::digest`]; it borrows the layout it
/// digests.
///
/// A move or a swap changes the tallies of two cores only, so
/// [`Self::after_move`] and [`Self::after_swap`] re-add those two terms
/// and return the moved layout's fingerprint, bit for bit, without
/// cloning the layout. The annealer fingerprints every child it draws
/// this way and builds only the children its duplicate set accepts.
#[derive(Clone, Debug)]
pub struct FingerprintDigest<'a> {
    layout: &'a Layout,
    graph: &'a GroupGraph,
    /// Per core: `(sum of mixed origins, instance count)`.
    per_core: Vec<(u64, u64)>,
    fingerprint: u64,
}

impl FingerprintDigest<'_> {
    /// The fingerprint of the digested layout.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The fingerprint of the digested layout with `instance` moved to
    /// `to_core`: what `critpath::apply_move` would build.
    pub fn after_move(&self, instance: InstanceId, to_core: CoreId) -> u64 {
        let inst = &self.layout.instances[instance.index()];
        let (from, to) = (inst.core.index(), to_core.index());
        if from == to {
            return self.fingerprint;
        }
        let term = origin_term(self.graph, inst);
        let (from_sum, from_len) = self.per_core[from];
        let (to_sum, to_len) = self.per_core[to];
        self.retally([
            (from, (from_sum.wrapping_sub(term), from_len - 1)),
            (to, (to_sum.wrapping_add(term), to_len + 1)),
        ])
    }

    /// The fingerprint of the digested layout with instances `a` and
    /// `b` exchanging cores.
    pub fn after_swap(&self, a: InstanceId, b: InstanceId) -> u64 {
        let instances = &self.layout.instances;
        let (inst_a, inst_b) = (&instances[a.index()], &instances[b.index()]);
        let (core_a, core_b) = (inst_a.core.index(), inst_b.core.index());
        if core_a == core_b {
            return self.fingerprint;
        }
        let (term_a, term_b) = (
            origin_term(self.graph, inst_a),
            origin_term(self.graph, inst_b),
        );
        let (sum_a, len_a) = self.per_core[core_a];
        let (sum_b, len_b) = self.per_core[core_b];
        self.retally([
            (
                core_a,
                (sum_a.wrapping_sub(term_a).wrapping_add(term_b), len_a),
            ),
            (
                core_b,
                (sum_b.wrapping_sub(term_b).wrapping_add(term_a), len_b),
            ),
        ])
    }

    /// The fingerprint with two distinct cores' tallies replaced.
    fn retally(&self, changed: [(usize, (u64, u64)); 2]) -> u64 {
        changed.iter().fold(self.fingerprint, |h, &(core, tally)| {
            h.wrapping_sub(core_term(self.per_core[core]))
                .wrapping_add(core_term(tally))
        })
    }
}

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An instance's contribution to its core's sum: its group's mixed
/// origin.
fn origin_term(graph: &GroupGraph, inst: &GroupInstance) -> u64 {
    mix(u64::from(graph.groups[inst.group.index()].origin))
}

/// A core's contribution to the fingerprint: nothing when it is empty.
fn core_term((sum, len): (u64, u64)) -> u64 {
    if len > 0 {
        mix(sum ^ mix(len))
    } else {
        0
    }
}

/// Where an object goes after a state transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// Stays on its home instance.
    Stay,
    /// Transfers to another instance.
    Move(InstanceId),
    /// No task can ever consume it: leaves dispatch.
    Dead,
}

/// The reference router: works each decision out again from the spec,
/// the graph and the layout, and keeps its own round-robin counters.
///
/// No executor routes through it. The executors and the simulator use
/// the static [`crate::routing::RouteTable`]; this independent
/// implementation of the same decisions stays for the simulator's
/// oracle (`sim::reference`) and the table's differential tests.
#[derive(Clone, Debug)]
pub struct Router {
    /// Round-robin counters keyed by (sending instance, allocation site).
    site_rr: HashMap<(InstanceId, TaskId, AllocSiteId), usize>,
    /// Round-robin counters keyed by (home instance, destination task).
    flow_rr: HashMap<(InstanceId, TaskId), usize>,
    /// Memoized `(class, flags) → enabled tasks`.
    dispatch_memo: HashMap<(ClassId, u64), Vec<(TaskId, bamboo_lang::ids::ParamIdx)>>,
}

impl Router {
    /// Creates a router with fresh counters.
    pub fn new() -> Self {
        Router {
            site_rr: HashMap::new(),
            flow_rr: HashMap::new(),
            dispatch_memo: HashMap::new(),
        }
    }

    /// Memoized [`enabled_params`].
    fn enabled(
        &mut self,
        spec: &ProgramSpec,
        class: ClassId,
        flags: FlagSet,
    ) -> &[(TaskId, bamboo_lang::ids::ParamIdx)] {
        self.dispatch_memo
            .entry((class, flags.bits()))
            .or_insert_with(|| enabled_params(spec, class, flags))
    }

    /// Routes a newly allocated object to a destination instance.
    ///
    /// `from` is the instance whose task allocated the object;
    /// `tag_hash`, when present, selects a replica deterministically so
    /// that same-tagged objects land together.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no new-edge for `(from.group, task, site)`
    /// — the layout and spec disagree.
    #[allow(clippy::too_many_arguments)]
    pub fn route_new(
        &mut self,
        spec: &ProgramSpec,
        graph: &GroupGraph,
        layout: &Layout,
        from: InstanceId,
        task: TaskId,
        site: AllocSiteId,
        tag_hash: Option<u64>,
    ) -> InstanceId {
        let from_group = layout.instances[from.index()].group;
        let dest_group = graph
            .new_edges
            .iter()
            .find(|e| e.from == from_group && e.task == task && e.site.site == site)
            .map(|e| e.to)
            .unwrap_or_else(|| {
                // Fallback: any group holding the destination state class;
                // happens only for layouts built from hand-made graphs.
                let class = spec.task(task).alloc_sites[site.index()].class;
                graph
                    .groups
                    .iter()
                    .position(|g| g.classes.contains(&class))
                    .map(|i| GroupId(i as u32))
                    .expect("destination group exists")
            });
        // Deliver to the group that will *consume* the object first. The
        // destination-class group is right when one of its tasks matches
        // the initial state (the data-parallel case); otherwise the first
        // enabled task's group hosts the consumer (e.g. a multi-parameter
        // reduction task living with its first parameter's class).
        let tspec = spec.task(task);
        let site_spec = &tspec.alloc_sites[site.index()];
        let initial_flags = site_spec.initial_flag_set();
        let enabled = enabled_params(spec, site_spec.class, initial_flags);
        let consumer_in_dest = enabled
            .iter()
            .any(|(t, _)| graph.groups[dest_group.index()].has_task(*t));
        let target_group = if consumer_in_dest || enabled.is_empty() {
            dest_group
        } else {
            enabled
                .iter()
                .find_map(|(t, _)| graph.group_of_task(*t))
                .unwrap_or(dest_group)
        };
        let candidates = layout.instances_of(target_group);
        assert!(!candidates.is_empty(), "destination group has no instance");
        let pick = match tag_hash {
            Some(h) => (h as usize) % candidates.len(),
            None => {
                let counter = self.site_rr.entry((from, task, site)).or_insert(0);
                let pick = *counter % candidates.len();
                *counter += 1;
                pick
            }
        };
        candidates[pick]
    }

    /// Routes an object after a transition to `flags`.
    #[allow(clippy::too_many_arguments)]
    pub fn route_transition(
        &mut self,
        spec: &ProgramSpec,
        graph: &GroupGraph,
        layout: &Layout,
        home: InstanceId,
        class: ClassId,
        flags: FlagSet,
        tag_hash: Option<u64>,
    ) -> RouteDecision {
        let enabled = self.enabled(spec, class, flags).to_vec();
        if enabled.is_empty() {
            return RouteDecision::Dead;
        }
        let home_group = layout.instances[home.index()].group;
        // Data locality: prefer a consuming task on the home instance.
        if enabled
            .iter()
            .any(|(t, _)| graph.groups[home_group.index()].has_task(*t))
        {
            return RouteDecision::Stay;
        }
        // Otherwise transfer to the first enabled task that is deployed
        // somewhere.
        for (task, _) in &enabled {
            let Some(task_group) = graph.group_of_task(*task) else {
                continue;
            };
            let candidates = layout.instances_of(task_group);
            if candidates.is_empty() {
                continue;
            }
            let pick = match tag_hash {
                Some(h) => (h as usize) % candidates.len(),
                None => {
                    let counter = self.flow_rr.entry((home, *task)).or_insert(0);
                    let pick = *counter % candidates.len();
                    *counter += 1;
                    pick
                }
            };
            return RouteDecision::Move(candidates[pick]);
        }
        RouteDecision::Dead
    }
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::scc_tree_transform;
    use crate::testutil::kc_setup;
    use crate::transforms::compute_replication;

    fn quad_layout() -> (ProgramSpec, GroupGraph, Replication, Layout) {
        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let repl = compute_replication(&spec, &graph, &profile, 4);
        // Figure 4: startup+merge on core 0, the four Text copies spread
        // over cores 0..3.
        let process = spec.task_by_name("processText").unwrap();
        let text_group = graph.group_of_task(process).unwrap();
        let cores: Vec<Vec<CoreId>> = graph
            .groups
            .iter()
            .enumerate()
            .map(|(g, _)| {
                if GroupId(g as u32) == text_group {
                    (0..repl.copies[g]).map(CoreId::new).collect()
                } else {
                    vec![CoreId::new(0); repl.copies[g]]
                }
            })
            .collect();
        let layout = Layout::new(&graph, &repl, 4, &cores);
        (spec, graph, repl, layout)
    }

    #[test]
    fn layout_indexes_instances() {
        let (_, graph, repl, layout) = quad_layout();
        assert_eq!(layout.instances.len(), repl.total_instances());
        assert_eq!(layout.cores_used(), 4);
        for g in 0..graph.groups.len() {
            assert_eq!(layout.instances_of(GroupId(g as u32)).len(), repl.copies[g]);
        }
    }

    #[test]
    fn round_robin_distributes_new_objects() {
        let (spec, graph, _, layout) = quad_layout();
        let startup_task = spec.task_by_name("startup").unwrap();
        let startup_inst = layout.instances_of(graph.startup_group)[0];
        let mut router = Router::new();
        let dests: Vec<InstanceId> = (0..8)
            .map(|_| {
                router.route_new(
                    &spec,
                    &graph,
                    &layout,
                    startup_inst,
                    startup_task,
                    AllocSiteId::new(0),
                    None,
                )
            })
            .collect();
        // 4 copies: round robin with period 4.
        assert_eq!(dests[0], dests[4]);
        assert_eq!(dests[1], dests[5]);
        let mut unique = dests[..4].to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn transition_moves_text_to_merge_instance() {
        let (spec, graph, _, layout) = quad_layout();
        let text = spec.class_by_name("Text").unwrap();
        let text_class = spec.class(text);
        let submit = text_class.flag_by_name("submit").unwrap();
        let merge = spec.task_by_name("mergeIntermediateResult").unwrap();
        let merge_inst = layout.instances_of(graph.group_of_task(merge).unwrap())[0];
        // A Text object on a non-merge core transitions to submit.
        let process = spec.task_by_name("processText").unwrap();
        let text_insts = layout.instances_of(graph.group_of_task(process).unwrap());
        let away = text_insts
            .iter()
            .copied()
            .find(|i| layout.core_of(*i) != layout.core_of(merge_inst))
            .unwrap();
        let mut router = Router::new();
        let decision = router.route_transition(
            &spec,
            &graph,
            &layout,
            away,
            text,
            FlagSet::new().with(submit, true),
            None,
        );
        assert_eq!(decision, RouteDecision::Move(merge_inst));
    }

    #[test]
    fn transition_with_no_consumer_is_dead() {
        let (spec, graph, _, layout) = quad_layout();
        let text = spec.class_by_name("Text").unwrap();
        let inst = layout.instances_of(graph.startup_group)[0];
        let mut router = Router::new();
        let decision =
            router.route_transition(&spec, &graph, &layout, inst, text, FlagSet::EMPTY, None);
        assert_eq!(decision, RouteDecision::Dead);
    }

    #[test]
    fn object_in_home_group_state_stays() {
        let (spec, graph, _, layout) = quad_layout();
        let text = spec.class_by_name("Text").unwrap();
        let process_flag = spec.class(text).flag_by_name("process").unwrap();
        let process = spec.task_by_name("processText").unwrap();
        let inst = layout.instances_of(graph.group_of_task(process).unwrap())[1];
        let mut router = Router::new();
        let decision = router.route_transition(
            &spec,
            &graph,
            &layout,
            inst,
            text,
            FlagSet::new().with(process_flag, true),
            None,
        );
        assert_eq!(decision, RouteDecision::Stay);
    }

    #[test]
    fn signature_is_core_rename_invariant() {
        let (_, graph, repl, _) = quad_layout();
        let mk = |perm: [usize; 4]| {
            let cores: Vec<Vec<CoreId>> = graph
                .groups
                .iter()
                .enumerate()
                .map(|(g, _)| {
                    (0..repl.copies[g])
                        .map(|c| CoreId::new(perm[c % 4]))
                        .collect()
                })
                .collect();
            Layout::new(&graph, &repl, 4, &cores)
        };
        let a = mk([0, 1, 2, 3]);
        let b = mk([3, 2, 1, 0]);
        assert_eq!(a.signature(&graph), b.signature(&graph));
    }

    #[test]
    fn fingerprint_matches_signature_equality_on_mutated_layouts() {
        use crate::critpath::MoveProposal;
        let (_, graph, _, base) = quad_layout();
        // Every single-instance move of the base layout, plus the base
        // itself: a mix of signature-equal pairs (core renamings, replica
        // exchanges) and genuinely different placements.
        let mut layouts = vec![base.clone()];
        for inst in 1..base.instances.len() {
            for core in 0..base.core_count {
                layouts.push(crate::critpath::apply_move(
                    &base,
                    MoveProposal {
                        instance: InstanceId(inst as u32),
                        to_core: CoreId::new(core),
                    },
                ));
            }
        }
        let mut sig_equal_pairs = 0;
        for a in &layouts {
            for b in &layouts {
                let sigs_equal = a.signature(&graph) == b.signature(&graph);
                sig_equal_pairs += usize::from(sigs_equal && !std::ptr::eq(a, b));
                assert_eq!(
                    a.fingerprint(&graph) == b.fingerprint(&graph),
                    sigs_equal,
                    "fingerprint equality must coincide with signature equality",
                );
            }
        }
        // The sweep must actually exercise both directions.
        assert!(
            sig_equal_pairs > 0,
            "no signature-equal pair among mutations"
        );
    }

    /// The digest's fingerprint of every single move (to the instance's
    /// own core too) and every swap equals `Layout::fingerprint` of the
    /// built child, on random layouts of several machine sizes — and
    /// the sweep does empty a core and fill an empty one.
    #[test]
    fn digest_fingerprints_every_move_and_swap_exactly() {
        use crate::critpath::{apply_move, MoveProposal};
        use crate::mapping::random_layouts;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (spec, cstg, profile) = kc_setup();
        let graph = scc_tree_transform(&GroupGraph::build(&spec, &cstg, &profile));
        let (mut emptied, mut filled) = (0, 0);
        for cores in [1, 2, 4, 7, 16] {
            let repl = compute_replication(&spec, &graph, &profile, cores);
            let mut rng = StdRng::seed_from_u64(cores as u64);
            for layout in random_layouts(&graph, &repl, cores, 6, &mut rng) {
                let digest = layout.digest(&graph);
                assert_eq!(digest.fingerprint(), layout.fingerprint(&graph));
                let occupancy = |core: CoreId| layout.instances_on(core).len();
                for i in 0..layout.instances.len() {
                    let instance = InstanceId(i as u32);
                    for to in 0..cores {
                        let to_core = CoreId::new(to);
                        let child = apply_move(&layout, MoveProposal { instance, to_core });
                        assert_eq!(
                            digest.after_move(instance, to_core),
                            child.fingerprint(&graph),
                            "{cores} cores: move of {instance} to {to_core}"
                        );
                        let from = layout.core_of(instance);
                        emptied += usize::from(from != to_core && occupancy(from) == 1);
                        filled += usize::from(occupancy(to_core) == 0);
                    }
                    for j in 0..layout.instances.len() {
                        let other = InstanceId(j as u32);
                        let mut child = layout.clone();
                        child.instances[i].core = layout.core_of(other);
                        child.instances[j].core = layout.core_of(instance);
                        assert_eq!(
                            digest.after_swap(instance, other),
                            child.fingerprint(&graph),
                            "{cores} cores: swap of {instance} and {other}"
                        );
                    }
                }
            }
        }
        assert!(emptied > 0, "no move emptied a core");
        assert!(filled > 0, "no move filled an empty core");
    }

    #[test]
    fn describe_lists_cores_and_tasks() {
        let (spec, graph, _, layout) = quad_layout();
        let text = layout.describe(&spec, &graph);
        assert!(text.contains("core#0"));
        assert!(text.contains("processText"));
    }

    #[test]
    fn single_core_layout_uses_one_core() {
        let (_, graph, _, _) = quad_layout();
        let layout = Layout::single_core(&graph);
        assert_eq!(layout.cores_used(), 1);
    }
}
