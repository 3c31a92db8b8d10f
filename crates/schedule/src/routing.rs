//! Object routing (paper §4.7), the one static table the threaded
//! runtime, the virtual executor and the simulator all route through.
//!
//! The paper's runtime forwards each object directly from core to core
//! using static routing tables: "the finite state machines generated by
//! the static analysis are used to optimize task dispatch". A
//! [`RouteTable`] is built once from `(spec, graph)` and answers the two
//! routing questions without allocating, hashing or locking:
//!
//! - **Transition** ([`RouteTable::route_transition`]): after an
//!   invocation changes an object's flags, the object stays on its home
//!   instance when a task it now enables lives there (data locality);
//!   otherwise it moves to the group of the first enabled task deployed
//!   in the layout; with no such task it leaves dispatch.
//! - **Allocation** ([`RouteTable::route_new`]): a new object goes to the
//!   group that consumes it first, fixed per `(group, task, site)`.
//!
//! Within the chosen group, copies are fed round-robin and tagged
//! objects are placed by tag hash ([`pick_replica`]). The round-robin
//! counters are not part of the table: they belong to instances and the
//! caller keeps them, as plain integers ([`bump`]) in single-threaded
//! executors or as atomics in the threaded one. An instance keeps its id
//! when it migrates, so its counters stay where they are.
//!
//! [`crate::layout::Router`] is the independent reference implementation
//! of the same decisions, kept for the simulator's oracle.

use crate::formation::CompiledGuard;
use crate::groups::{Group, GroupGraph, GroupId};
use crate::layout::{InstanceId, Layout, RouteDecision};
use bamboo_lang::ids::{AllocSiteId, ClassId, ParamIdx, TaskId};
use bamboo_lang::spec::{FlagSet, ProgramSpec};

/// One `(task, param)` that accepts objects of a class.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The task.
    pub task: TaskId,
    /// The parameter of `task`.
    pub param: ParamIdx,
    /// The group the task is assigned to (`None` when it is unreachable).
    pub group: Option<GroupId>,
    /// The parameter's guard.
    pub guard: CompiledGuard,
}

/// The static routing table of one `(spec, graph)`. See the module docs.
#[derive(Clone, Debug)]
pub struct RouteTable {
    /// Per class: its parameters, in `enabled_params` order (task, then
    /// parameter).
    entries: Vec<Vec<Entry>>,
    /// `hosts[group * n_tasks + task]`: whether `group` hosts `task`. A
    /// group duplicated by the SCC tree transform hosts its original's
    /// tasks, so this is not the same as `Entry::group`.
    hosts: Vec<bool>,
    n_tasks: usize,
    /// Per task: the global index of its first allocation site.
    site_base: Vec<usize>,
    n_sites: usize,
    /// `new_target[group * n_sites + site]`: where an object allocated
    /// at global `site` by a task of `group` is delivered (`None` when no
    /// group holds its class).
    new_target: Vec<Option<GroupId>>,
}

impl RouteTable {
    /// Builds the table for `spec` deployed as `graph`.
    pub fn new(spec: &ProgramSpec, graph: &GroupGraph) -> Self {
        let n_tasks = spec.tasks.len();
        let mut table = RouteTable {
            entries: vec![Vec::new(); spec.classes.len()],
            hosts: vec![false; graph.groups.len() * n_tasks],
            n_tasks,
            site_base: Vec::with_capacity(n_tasks),
            n_sites: 0,
            new_target: Vec::new(),
        };
        for (task, tspec) in spec.tasks_enumerated() {
            table.site_base.push(table.n_sites);
            table.n_sites += tspec.alloc_sites.len();
            for (p, param) in tspec.params.iter().enumerate() {
                table.entries[param.class.index()].push(Entry {
                    task,
                    param: ParamIdx::new(p),
                    group: graph.group_of_task(task),
                    guard: CompiledGuard::compile(&param.guard),
                });
            }
        }
        for (g, group) in graph.groups.iter().enumerate() {
            for task in &group.tasks {
                table.hosts[g * n_tasks + task.index()] = true;
            }
        }
        // In `new_target` order: by group, then by global site.
        let mut new_target = Vec::with_capacity(graph.groups.len() * table.n_sites);
        for from in (0..graph.groups.len()).map(|g| GroupId(g as u32)) {
            for (task, tspec) in spec.tasks_enumerated() {
                for (s, site) in tspec.alloc_sites.iter().enumerate() {
                    let s = AllocSiteId::new(s);
                    // The new edge's group or, in hand-made graphs
                    // without one, any group holding the class.
                    let dest = graph
                        .new_edges
                        .iter()
                        .find(|e| e.from == from && e.task == task && e.site.site == s)
                        .map(|e| e.to)
                        .or_else(|| {
                            let holds = |group: &Group| group.classes.contains(&site.class);
                            graph
                                .groups
                                .iter()
                                .position(holds)
                                .map(|i| GroupId(i as u32))
                        });
                    // Deliver to the group that consumes the object
                    // first: the destination when one of its tasks takes
                    // the initial state (the data-parallel case), else
                    // the first enabled task's group (e.g. a reduction
                    // living with its first parameter's class).
                    let mut enabled = table.enabled(site.class, site.initial_flag_set());
                    let target = dest.map(|dest| {
                        if enabled.clone().any(|e| table.hosts(dest, e.task)) {
                            dest
                        } else {
                            enabled.find_map(|e| e.group).unwrap_or(dest)
                        }
                    });
                    new_target.push(target);
                }
            }
        }
        table.new_target = new_target;
        table
    }

    /// The parameters that accept an object of `class` in state `flags`,
    /// in `enabled_params` order.
    #[inline]
    pub fn enabled(
        &self,
        class: ClassId,
        flags: FlagSet,
    ) -> impl Iterator<Item = &Entry> + Clone + '_ {
        self.entries[class.index()]
            .iter()
            .filter(move |e| e.guard.eval(flags))
    }

    #[inline]
    fn hosts(&self, group: GroupId, task: TaskId) -> bool {
        self.hosts[group.index() * self.n_tasks + task.index()]
    }

    /// The task whose next invocation an object of `class` in `flags`
    /// will be: `Some` exactly when the state enables one parameter and
    /// it is parameter 0 (the simulator's release-time stamp).
    pub fn sole_consumer(&self, class: ClassId, flags: FlagSet) -> Option<TaskId> {
        let mut enabled = self.enabled(class, flags);
        match (enabled.next(), enabled.next()) {
            (Some(e), None) if e.param.index() == 0 => Some(e.task),
            _ => None,
        }
    }

    /// Lengths of the `(instance, task)` and `(instance, alloc site)`
    /// counter arrays for a layout of `instances` instances.
    pub fn counter_lens(&self, instances: usize) -> (usize, usize) {
        (instances * self.n_tasks, instances * self.n_sites)
    }

    /// Index of `(row, task's site)` in a per-site array with rows of
    /// `n_sites` (rows are groups in `new_target`, instances in counters).
    #[inline]
    fn site_index(&self, row: usize, task: TaskId, site: AllocSiteId) -> usize {
        row * self.n_sites + self.site_base[task.index()] + site.index()
    }

    /// Routes an object of `class` whose flags just became `flags` at
    /// `home`. An untagged move to a replicated group takes its copy from
    /// the `(home, task)` counter: `next(index)` must return that
    /// counter's value and advance it.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn route_transition(
        &self,
        layout: &Layout,
        home: InstanceId,
        class: ClassId,
        flags: FlagSet,
        tag_hash: Option<u64>,
        next: impl FnOnce(usize) -> usize,
    ) -> RouteDecision {
        let home_group = layout.instances[home.index()].group;
        let mut dest: Option<(TaskId, &[InstanceId])> = None;
        for e in self.enabled(class, flags) {
            if self.hosts(home_group, e.task) {
                return RouteDecision::Stay;
            }
            if dest.is_none() {
                dest = e
                    .group
                    .map(|g| (e.task, layout.instances_of(g)))
                    .filter(|(_, replicas)| !replicas.is_empty());
            }
        }
        match dest {
            Some((task, replicas)) => RouteDecision::Move(pick_replica(replicas, tag_hash, || {
                next(home.index() * self.n_tasks + task.index())
            })),
            None => RouteDecision::Dead,
        }
    }

    /// Routes an object `task` allocated at `site` while running at
    /// `from`. An untagged object takes its copy from the `(from, task,
    /// site)` counter: `next(index)` must return that counter's value and
    /// advance it.
    ///
    /// # Panics
    ///
    /// Panics if no group holds the object's class, or the target group
    /// has no instance in `layout`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn route_new(
        &self,
        layout: &Layout,
        from: InstanceId,
        task: TaskId,
        site: AllocSiteId,
        tag_hash: Option<u64>,
        next: impl FnOnce(usize) -> usize,
    ) -> InstanceId {
        let from_group = layout.instances[from.index()].group.index();
        let target = self.new_target[self.site_index(from_group, task, site)]
            .expect("destination group exists");
        let replicas = layout.instances_of(target);
        assert!(!replicas.is_empty(), "destination group has no instance");
        pick_replica(replicas, tag_hash, || {
            next(self.site_index(from.index(), task, site))
        })
    }
}

/// Picks one copy of a replicated group: by tag hash for a tagged
/// object, so same-tagged objects land together, else round-robin from
/// the caller's counter (`next` returns it and advances it; it is not
/// called for a tagged object).
#[inline]
pub fn pick_replica(
    replicas: &[InstanceId],
    tag_hash: Option<u64>,
    next: impl FnOnce() -> usize,
) -> InstanceId {
    let at = match tag_hash {
        Some(hash) => hash as usize,
        None => next(),
    };
    replicas[at % replicas.len()]
}

/// Returns a plain round-robin counter's value and advances it.
#[inline]
pub fn bump(counter: &mut usize) -> usize {
    let at = *counter;
    *counter += 1;
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_analysis::cstg::enabled_params;
    use bamboo_lang::compile_source;

    /// The table of a single-group deployment of `source`.
    fn table_of(source: &str) -> (ProgramSpec, RouteTable) {
        let spec = compile_source("t", source).unwrap().spec;
        let dependence = bamboo_analysis::DependenceAnalysis::run(&spec);
        let cstg = bamboo_analysis::Cstg::build(&spec, &dependence);
        let profile = bamboo_profile::ProfileCollector::new(&spec, "t").finish();
        let graph = GroupGraph::build(&spec, &cstg, &profile);
        let table = RouteTable::new(&spec, &graph);
        (spec, table)
    }

    const KC: &str = r#"
        class StartupObject { flag initialstate; }
        class Text { flag process; flag submit; }
        class Results { flag finished; }
        task startup(StartupObject s in initialstate) {
            Text tp = new Text(){ process := true };
            Results rp = new Results(){ finished := false };
            taskexit(s: initialstate := false);
        }
        task processText(Text tp in process) {
            taskexit(tp: process := false, submit := true);
        }
        task mergeIntermediateResult(Results rp in !finished, Text tp in submit) {
            if (1 < 2) { taskexit(rp: finished := true; tp: submit := false); }
            taskexit(tp: submit := false);
        }
    "#;

    #[test]
    fn table_matches_direct_guard_evaluation() {
        let (spec, table) = table_of(KC);
        for (class, class_spec) in spec.classes_enumerated() {
            // Every flag valuation over the class's declared flags.
            let n = class_spec.flags.len() as u32;
            for bits in 0..(1u64 << n) {
                let flags = FlagSet::from_bits(bits);
                let tabled: Vec<(TaskId, ParamIdx)> = table
                    .enabled(class, flags)
                    .map(|e| (e.task, e.param))
                    .collect();
                assert_eq!(tabled, enabled_params(&spec, class, flags));
            }
        }
    }

    #[test]
    fn guard_irrelevant_flags_are_masked_in_lookups() {
        // A flag outside every guard must not change the lookup result.
        let (spec, table) = table_of(
            r#"
            class StartupObject { flag initialstate; }
            class W { flag ready; flag scratch; }
            task startup(StartupObject s in initialstate) {
                W w = new W(){ ready := true };
                taskexit(s: initialstate := false);
            }
            task work(W w in ready) { taskexit(w: ready := false, scratch := true); }
            "#,
        );
        let w = spec.class_by_name("W").unwrap();
        let ready = spec.class(w).flag_by_name("ready").unwrap();
        let scratch = spec.class(w).flag_by_name("scratch").unwrap();
        let plain = FlagSet::new().with(ready, true);
        let with_scratch = plain.with(scratch, true);
        let lookup = |flags| -> Vec<(TaskId, ParamIdx)> {
            table.enabled(w, flags).map(|e| (e.task, e.param)).collect()
        };
        assert_eq!(lookup(plain), lookup(with_scratch));
        assert_eq!(lookup(plain).len(), 1);
        assert_eq!(
            table.sole_consumer(w, plain),
            table.sole_consumer(w, with_scratch)
        );
    }
}
