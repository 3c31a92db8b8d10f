//! The program specification model: the hub consumed by analyses, the
//! implementation synthesizer, and the runtime.
//!
//! A [`ProgramSpec`] captures everything Bamboo's *task declaration
//! language* expresses — classes with flags, tag types, tasks with
//! parameter guards, declared exits, and object allocation sites — without
//! the imperative task bodies. Bodies are attached separately: interpreted
//! (DSL IR, see [`crate::ir`]) or native closures (see the runtime crate).

use crate::ids::{AllocSiteId, ClassId, ExitId, FlagId, ParamIdx, TagTypeId, TagVarId, TaskId};
use crate::interp::TagInstance;
use crate::spec::flagset::{FlagSet, MAX_FLAGS};
use crate::spec::guard::FlagExpr;
use std::collections::HashMap;
use std::fmt;

/// Maximum number of parameters a task may declare. Every executor forms
/// an invocation into a fixed buffer of this many parameter positions.
pub const MAX_PARAMS: usize = 16;

/// A class declaration: a name plus its flag (abstract state) declarations.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ClassSpec {
    /// The class name.
    pub name: String,
    /// Names of the declared flags; `FlagId` indexes this list.
    pub flags: Vec<String>,
}

impl ClassSpec {
    /// Looks up a flag by name.
    pub fn flag_by_name(&self, name: &str) -> Option<FlagId> {
        self.flags.iter().position(|f| f == name).map(FlagId::new)
    }

    /// Returns the name of `flag`.
    ///
    /// # Panics
    ///
    /// Panics if `flag` does not belong to this class.
    pub fn flag_name(&self, flag: FlagId) -> &str {
        &self.flags[flag.index()]
    }
}

/// A tag type declaration (`tagtype name;`).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TagTypeSpec {
    /// The tag type's name.
    pub name: String,
}

/// A tag constraint in a parameter's `with` clause: the parameter object
/// must be bound to a tag instance of `tag_type`, and that instance is bound
/// to the task-scoped tag variable `var`. Two parameters constrained by the
/// same `var` must be bound to the *same* tag instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct TagConstraint {
    /// The required tag type.
    pub tag_type: TagTypeId,
    /// The task-scoped tag variable the matched instance binds to.
    pub var: TagVarId,
}

/// A task parameter declaration: `Type name in flagexp with tagexp`.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ParamSpec {
    /// Parameter name (for diagnostics and pretty-printing).
    pub name: String,
    /// The class objects must belong to.
    pub class: ClassId,
    /// The guard over the object's flags.
    pub guard: FlagExpr,
    /// Tag constraints from the `with` clause (empty if none).
    pub tags: Vec<TagConstraint>,
}

impl ParamSpec {
    /// Matches an object's `tags` against this parameter's tag
    /// constraints under the task's tag environment `env` (indexed by
    /// tag variable). A bound variable requires the object to carry that
    /// instance; an unbound one binds to the object's first instance of
    /// the constraint's tag type. Returns the bindings the object adds,
    /// as `(variable index, instance)`, or `None` when a constraint
    /// fails.
    pub fn bind_tags(
        &self,
        tags: &[(TagTypeId, TagInstance)],
        env: &[Option<TagInstance>],
    ) -> Option<Vec<(usize, TagInstance)>> {
        let mut updates: Vec<(usize, TagInstance)> = Vec::new();
        for tc in &self.tags {
            let var = tc.var.index();
            let bound = updates
                .iter()
                .find(|(v, _)| *v == var)
                .map(|(_, instance)| *instance)
                .or(env[var]);
            match bound {
                Some(instance) => {
                    if !tags.contains(&(tc.tag_type, instance)) {
                        return None;
                    }
                }
                None => {
                    let (_, instance) = tags.iter().find(|(tt, _)| *tt == tc.tag_type)?;
                    updates.push((var, *instance));
                }
            }
        }
        Some(updates)
    }
}

/// An update to one parameter object performed at task exit or object
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FlagOrTagAction {
    /// `flagname := bool`.
    SetFlag(FlagId, bool),
    /// `add tagvar` — bind the instance in the tag variable to the object.
    AddTag(TagVarId),
    /// `clear tagvar` — unbind that instance from the object.
    ClearTag(TagVarId),
}

/// One declared exit point of a task (`taskexit(...)` in the body).
///
/// An exit lists, per parameter, the flag/tag updates applied when the task
/// leaves through this exit. Parameters not mentioned keep their state.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExitSpec {
    /// Optional label for diagnostics (e.g. `"all_processed"`).
    pub label: String,
    /// Updates per parameter, in arbitrary order; at most one entry per
    /// parameter.
    pub actions: Vec<(ParamIdx, Vec<FlagOrTagAction>)>,
}

impl ExitSpec {
    /// Returns the flag valuation a parameter transitions to when the task
    /// leaves through this exit, given the flags it had when matched.
    ///
    /// Tag actions are ignored here; callers interested in tag effects
    /// should inspect [`ExitSpec::actions`] directly.
    pub fn apply_flags(&self, param: ParamIdx, before: FlagSet) -> FlagSet {
        let mut flags = before;
        if let Some((_, actions)) = self.actions.iter().find(|(p, _)| *p == param) {
            for action in actions {
                if let FlagOrTagAction::SetFlag(flag, value) = action {
                    flags.set(*flag, *value);
                }
            }
        }
        flags
    }

    /// Returns the tag actions declared for `param` through this exit.
    pub fn tag_actions(&self, param: ParamIdx) -> impl Iterator<Item = FlagOrTagAction> + '_ {
        self.actions
            .iter()
            .filter(move |(p, _)| *p == param)
            .flat_map(|(_, actions)| actions.iter().copied())
            .filter(|a| !matches!(a, FlagOrTagAction::SetFlag(..)))
    }
}

/// An object allocation site inside a task body:
/// `new C(args){flag := v, add t}`.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AllocSiteSpec {
    /// The class of the allocated objects.
    pub class: ClassId,
    /// Flags explicitly initialized at allocation (unmentioned flags start
    /// false).
    pub initial_flags: Vec<(FlagId, bool)>,
    /// Tag variables whose instances are bound to the new object.
    pub bound_tags: Vec<TagVarId>,
}

impl AllocSiteSpec {
    /// Returns the flag valuation of objects created at this site.
    pub fn initial_flag_set(&self) -> FlagSet {
        let mut flags = FlagSet::new();
        for (flag, value) in &self.initial_flags {
            flags.set(*flag, *value);
        }
        flags
    }
}

/// A tag variable declared in a task's scope.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TagVarSpec {
    /// The variable's name.
    pub name: String,
    /// The tag type of instances it holds.
    pub tag_type: TagTypeId,
    /// Whether the variable is bound by a parameter's `with` clause
    /// (`true`) or by a `new tag` statement in the body (`false`).
    pub from_param: bool,
}

/// A task declaration: guards, exits, allocation sites, tag variables.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TaskSpec {
    /// The task's name.
    pub name: String,
    /// Parameter declarations; [`ParamIdx`] indexes this list.
    pub params: Vec<ParamSpec>,
    /// Declared exit points; [`ExitId`] indexes this list. Every task has at
    /// least one exit.
    pub exits: Vec<ExitSpec>,
    /// Object allocation sites; [`AllocSiteId`] indexes this list.
    pub alloc_sites: Vec<AllocSiteSpec>,
    /// Tag variables in scope; [`TagVarId`] indexes this list.
    pub tag_vars: Vec<TagVarSpec>,
}

impl TaskSpec {
    /// Returns the parameter spec at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn param(&self, idx: ParamIdx) -> &ParamSpec {
        &self.params[idx.index()]
    }

    /// Returns the exit spec for `exit`.
    ///
    /// # Panics
    ///
    /// Panics if `exit` is out of range.
    pub fn exit(&self, exit: ExitId) -> &ExitSpec {
        &self.exits[exit.index()]
    }

    /// Binds a fresh instance from `mint` to every body-created tag
    /// variable (`new tag`) still unbound in the tag environment `env`
    /// (indexed by tag variable).
    pub fn mint_tags(
        &self,
        env: &mut [Option<TagInstance>],
        mut mint: impl FnMut() -> TagInstance,
    ) {
        for (var, bound) in self.tag_vars.iter().zip(env.iter_mut()) {
            if !var.from_param && bound.is_none() {
                *bound = Some(mint());
            }
        }
    }

    /// The tags of an object created at `site` under `env`: each of the
    /// site's bound tag variables that holds an instance, with its type.
    pub fn created_tags(
        &self,
        site: AllocSiteId,
        env: &[Option<TagInstance>],
    ) -> Vec<(TagTypeId, TagInstance)> {
        self.alloc_sites[site.index()]
            .bound_tags
            .iter()
            .filter_map(|var| env[var.index()].map(|i| (self.tag_vars[var.index()].tag_type, i)))
            .collect()
    }

    /// Applies `exit`'s actions for parameter `param` to that object's
    /// `flags` and `tags`: `SetFlag` sets the flag, and `AddTag` /
    /// `ClearTag` bind / unbind the instance the variable holds in `env`
    /// (an unbound variable does nothing).
    pub fn apply_exit(
        &self,
        exit: ExitId,
        param: ParamIdx,
        flags: &mut FlagSet,
        tags: &mut Vec<(TagTypeId, TagInstance)>,
        env: &[Option<TagInstance>],
    ) {
        let actions = self.exit(exit).actions.iter().filter(|(p, _)| *p == param);
        for action in actions.flat_map(|(_, actions)| actions) {
            match *action {
                FlagOrTagAction::SetFlag(flag, value) => flags.set(flag, value),
                FlagOrTagAction::AddTag(var) => {
                    if let Some(i) = env[var.index()] {
                        let tag = (self.tag_vars[var.index()].tag_type, i);
                        if !tags.contains(&tag) {
                            tags.push(tag);
                        }
                    }
                }
                FlagOrTagAction::ClearTag(var) => {
                    if let Some(i) = env[var.index()] {
                        let tag = (self.tag_vars[var.index()].tag_type, i);
                        tags.retain(|t| *t != tag);
                    }
                }
            }
        }
    }

    /// Returns whether every parameter shares at least one common tag
    /// variable sourced from the `with` clauses — the condition under which
    /// the runtime may replicate a multi-parameter task and route by tag
    /// hash (paper §4.3.4).
    pub fn all_params_share_tag(&self) -> bool {
        if self.params.is_empty() {
            return false;
        }
        let first: Vec<TagVarId> = self.params[0].tags.iter().map(|t| t.var).collect();
        first.iter().any(|var| {
            self.params
                .iter()
                .all(|p| p.tags.iter().any(|t| t.var == *var))
        })
    }
}

/// A complete Bamboo program specification.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ProgramSpec {
    /// The program's name.
    pub name: String,
    /// Class declarations; [`ClassId`] indexes this list.
    pub classes: Vec<ClassSpec>,
    /// Tag type declarations; [`TagTypeId`] indexes this list.
    pub tag_types: Vec<TagTypeSpec>,
    /// Task declarations; [`TaskId`] indexes this list.
    pub tasks: Vec<TaskSpec>,
    /// The class whose creation bootstraps the program (the
    /// `StartupObject` class), with the flag set at startup.
    pub startup: StartupSpec,
}

/// Identifies the startup object class and initial flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StartupSpec {
    /// The startup class (conventionally named `StartupObject`).
    pub class: ClassId,
    /// The flag set on the injected instance (conventionally
    /// `initialstate`).
    pub flag: FlagId,
}

impl ProgramSpec {
    /// Returns the class spec for `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class(&self, class: ClassId) -> &ClassSpec {
        &self.classes[class.index()]
    }

    /// Returns the task spec for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    pub fn task(&self, task: TaskId) -> &TaskSpec {
        &self.tasks[task.index()]
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(ClassId::new)
    }

    /// Looks up a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t.name == name)
            .map(TaskId::new)
    }

    /// Looks up a tag type by name.
    pub fn tag_type_by_name(&self, name: &str) -> Option<TagTypeId> {
        self.tag_types
            .iter()
            .position(|t| t.name == name)
            .map(TagTypeId::new)
    }

    /// Iterates over `(TaskId, &TaskSpec)`.
    pub fn tasks_enumerated(&self) -> impl Iterator<Item = (TaskId, &TaskSpec)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId::new(i), t))
    }

    /// Iterates over `(ClassId, &ClassSpec)`.
    pub fn classes_enumerated(&self) -> impl Iterator<Item = (ClassId, &ClassSpec)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId::new(i), c))
    }

    /// Returns, per class, the set of flags mentioned in any task guard —
    /// the "guard-relevant" flags that define the class's abstract states.
    ///
    /// Flags never consulted by a guard do not influence dispatch, so the
    /// dependence analysis (paper §4.1) restricts abstract state nodes to
    /// this set to keep the state machines small.
    pub fn guard_relevant_flags(&self) -> Vec<FlagSet> {
        let mut relevant = vec![FlagSet::new(); self.classes.len()];
        for task in &self.tasks {
            for param in &task.params {
                let mask = param.guard.mentioned_flags();
                relevant[param.class.index()] = relevant[param.class.index()].union(mask);
            }
        }
        // Flags assigned at exits or allocation also shape states insofar as
        // they are guard-relevant somewhere; the guard scan above suffices.
        relevant
    }

    /// Validates internal consistency, returning a list of problems
    /// (empty when the spec is well-formed).
    ///
    /// Checks: id ranges, flag counts, duplicate names, exit actions refer
    /// to declared params/flags/tag vars, allocation-site flags belong to
    /// the allocated class, and the startup class/flag exist.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut seen = HashMap::new();
        for (i, class) in self.classes.iter().enumerate() {
            if let Some(prev) = seen.insert(class.name.clone(), i) {
                problems.push(format!(
                    "duplicate class name `{}` (classes {prev} and {i})",
                    class.name
                ));
            }
            if class.flags.len() > MAX_FLAGS {
                problems.push(format!(
                    "class `{}` declares {} flags; the limit is {MAX_FLAGS}",
                    class.name,
                    class.flags.len()
                ));
            }
        }
        if self.startup.class.index() >= self.classes.len() {
            problems.push("startup class id out of range".to_string());
        } else {
            let class = self.class(self.startup.class);
            if self.startup.flag.index() >= class.flags.len() {
                problems.push(format!(
                    "startup flag out of range for class `{}`",
                    class.name
                ));
            }
        }
        for task in &self.tasks {
            self.validate_task(task, &mut problems);
        }
        problems
    }

    fn validate_task(&self, task: &TaskSpec, problems: &mut Vec<String>) {
        let bad = |msg: String| format!("task `{}`: {}", task.name, msg);
        if task.exits.is_empty() {
            problems.push(bad("declares no exits".to_string()));
        }
        if task.params.is_empty() {
            problems.push(bad(
                "declares no parameters; a task with no parameter objects can never be invoked"
                    .to_string(),
            ));
        }
        if task.params.len() > MAX_PARAMS {
            problems.push(bad(format!(
                "declares {} parameters; the limit is {MAX_PARAMS}",
                task.params.len()
            )));
        }
        for param in &task.params {
            if param.class.index() >= self.classes.len() {
                problems.push(bad(format!(
                    "parameter `{}` has out-of-range class",
                    param.name
                )));
                continue;
            }
            let class = self.class(param.class);
            for flag in param.guard.mentioned_flags().iter() {
                if flag.index() >= class.flags.len() {
                    problems.push(bad(format!(
                        "guard of `{}` mentions unknown flag {flag} of class `{}`",
                        param.name, class.name
                    )));
                }
            }
            for tc in &param.tags {
                if tc.tag_type.index() >= self.tag_types.len() {
                    problems.push(bad(format!(
                        "parameter `{}` constrains unknown tag type",
                        param.name
                    )));
                }
                if tc.var.index() >= task.tag_vars.len() {
                    problems.push(bad(format!(
                        "parameter `{}` binds unknown tag variable",
                        param.name
                    )));
                }
            }
        }
        for exit in &task.exits {
            for (param_idx, actions) in &exit.actions {
                if param_idx.index() >= task.params.len() {
                    problems.push(bad(format!(
                        "exit `{}` updates unknown parameter {param_idx}",
                        exit.label
                    )));
                    continue;
                }
                let class = self.class(task.params[param_idx.index()].class);
                for action in actions {
                    match action {
                        FlagOrTagAction::SetFlag(flag, _) => {
                            if flag.index() >= class.flags.len() {
                                problems.push(bad(format!(
                                    "exit `{}` sets unknown flag {flag} on class `{}`",
                                    exit.label, class.name
                                )));
                            }
                        }
                        FlagOrTagAction::AddTag(var) | FlagOrTagAction::ClearTag(var) => {
                            if var.index() >= task.tag_vars.len() {
                                problems.push(bad(format!(
                                    "exit `{}` references unknown tag variable",
                                    exit.label
                                )));
                            }
                        }
                    }
                }
            }
        }
        for site in &task.alloc_sites {
            if site.class.index() >= self.classes.len() {
                problems.push(bad("allocation site has out-of-range class".to_string()));
                continue;
            }
            let class = self.class(site.class);
            for (flag, _) in &site.initial_flags {
                if flag.index() >= class.flags.len() {
                    problems.push(bad(format!(
                        "allocation site sets unknown flag {flag} on class `{}`",
                        class.name
                    )));
                }
            }
            for var in &site.bound_tags {
                if var.index() >= task.tag_vars.len() {
                    problems.push(bad("allocation site binds unknown tag variable".to_string()));
                }
            }
        }
    }

    /// Renders the spec as human-readable task declarations (diagnostic
    /// aid; not parseable source).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        for (id, task) in self.tasks_enumerated() {
            out.push_str(&format!("task {} ({id}):\n", task.name));
            for (i, p) in task.params.iter().enumerate() {
                out.push_str(&format!(
                    "  param {i}: {} {} in {}\n",
                    self.class(p.class).name,
                    p.name,
                    p.guard
                ));
            }
            for (i, e) in task.exits.iter().enumerate() {
                out.push_str(&format!(
                    "  exit {i} `{}`: {} action groups\n",
                    e.label,
                    e.actions.len()
                ));
            }
            for (i, s) in task.alloc_sites.iter().enumerate() {
                out.push_str(&format!(
                    "  alloc {i}: new {} {:?}\n",
                    self.class(s.class).name,
                    s.initial_flags
                ));
            }
        }
        out
    }
}

impl fmt::Display for ProgramSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program `{}` ({} classes, {} tasks)",
            self.name,
            self.classes.len(),
            self.tasks.len()
        )
    }
}

/// References an allocation site globally: which task, which site within it.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct GlobalAllocSite {
    /// The task containing the site.
    pub task: TaskId,
    /// The site within the task.
    pub site: AllocSiteId,
}

impl fmt::Display for GlobalAllocSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.task, self.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ProgramSpec {
        ProgramSpec {
            name: "tiny".to_string(),
            classes: vec![
                ClassSpec {
                    name: "StartupObject".to_string(),
                    flags: vec!["initialstate".to_string()],
                },
                ClassSpec {
                    name: "Work".to_string(),
                    flags: vec!["ready".to_string(), "done".to_string()],
                },
            ],
            tag_types: vec![],
            tasks: vec![
                TaskSpec {
                    name: "startup".to_string(),
                    params: vec![ParamSpec {
                        name: "s".to_string(),
                        class: ClassId::new(0),
                        guard: FlagExpr::flag(FlagId::new(0)),
                        tags: vec![],
                    }],
                    exits: vec![ExitSpec {
                        label: "done".to_string(),
                        actions: vec![(
                            ParamIdx::new(0),
                            vec![FlagOrTagAction::SetFlag(FlagId::new(0), false)],
                        )],
                    }],
                    alloc_sites: vec![AllocSiteSpec {
                        class: ClassId::new(1),
                        initial_flags: vec![(FlagId::new(0), true)],
                        bound_tags: vec![],
                    }],
                    tag_vars: vec![],
                },
                TaskSpec {
                    name: "work".to_string(),
                    params: vec![ParamSpec {
                        name: "w".to_string(),
                        class: ClassId::new(1),
                        guard: FlagExpr::flag(FlagId::new(0))
                            .and(FlagExpr::flag(FlagId::new(1)).not()),
                        tags: vec![],
                    }],
                    exits: vec![ExitSpec {
                        label: String::new(),
                        actions: vec![(
                            ParamIdx::new(0),
                            vec![
                                FlagOrTagAction::SetFlag(FlagId::new(0), false),
                                FlagOrTagAction::SetFlag(FlagId::new(1), true),
                            ],
                        )],
                    }],
                    alloc_sites: vec![],
                    tag_vars: vec![],
                },
            ],
            startup: StartupSpec {
                class: ClassId::new(0),
                flag: FlagId::new(0),
            },
        }
    }

    #[test]
    fn tiny_spec_validates() {
        assert!(tiny_spec().validate().is_empty());
    }

    #[test]
    fn lookup_by_name() {
        let spec = tiny_spec();
        assert_eq!(spec.class_by_name("Work"), Some(ClassId::new(1)));
        assert_eq!(spec.task_by_name("work"), Some(TaskId::new(1)));
        assert_eq!(spec.task_by_name("missing"), None);
    }

    #[test]
    fn exit_apply_flags_transitions_state() {
        let spec = tiny_spec();
        let work = spec.task(TaskId::new(1));
        let before = FlagSet::new().with(FlagId::new(0), true);
        let after = work.exits[0].apply_flags(ParamIdx::new(0), before);
        assert!(!after.contains(FlagId::new(0)));
        assert!(after.contains(FlagId::new(1)));
    }

    #[test]
    fn guard_relevant_flags_cover_guards_only() {
        let spec = tiny_spec();
        let relevant = spec.guard_relevant_flags();
        assert_eq!(relevant[0].len(), 1);
        assert_eq!(relevant[1].len(), 2);
    }

    #[test]
    fn validation_detects_bad_exit_param() {
        let mut spec = tiny_spec();
        spec.tasks[1].exits[0].actions[0].0 = ParamIdx::new(9);
        let problems = spec.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("unknown parameter"));
    }

    #[test]
    fn validation_detects_unknown_flag_in_guard() {
        let mut spec = tiny_spec();
        spec.tasks[1].params[0].guard = FlagExpr::flag(FlagId::new(7));
        assert!(!spec.validate().is_empty());
    }

    #[test]
    fn validation_detects_too_many_params() {
        let mut spec = tiny_spec();
        let param = spec.tasks[1].params[0].clone();
        spec.tasks[1].params = vec![param.clone(); MAX_PARAMS];
        assert!(spec.validate().is_empty());
        spec.tasks[1].params.push(param);
        let problems = spec.validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("the limit is 16"), "{problems:?}");
    }

    #[test]
    fn validation_detects_duplicate_class() {
        let mut spec = tiny_spec();
        spec.classes.push(ClassSpec {
            name: "Work".to_string(),
            flags: vec![],
        });
        assert!(spec
            .validate()
            .iter()
            .any(|p| p.contains("duplicate class")));
    }

    #[test]
    fn allocation_site_initial_flags() {
        let spec = tiny_spec();
        let site = &spec.task(TaskId::new(0)).alloc_sites[0];
        assert!(site.initial_flag_set().contains(FlagId::new(0)));
    }

    #[test]
    fn shared_tag_detection() {
        let spec = tiny_spec();
        assert!(!spec.task(TaskId::new(0)).all_params_share_tag());
    }
}

#[cfg(test)]
mod param_validation_tests {
    use super::*;

    #[test]
    fn zero_parameter_tasks_are_rejected() {
        let spec = ProgramSpec {
            name: "z".to_string(),
            classes: vec![ClassSpec {
                name: "StartupObject".to_string(),
                flags: vec!["initialstate".to_string()],
            }],
            tag_types: vec![],
            tasks: vec![TaskSpec {
                name: "ghost".to_string(),
                params: vec![],
                exits: vec![ExitSpec::default()],
                alloc_sites: vec![],
                tag_vars: vec![],
            }],
            startup: StartupSpec {
                class: ClassId::new(0),
                flag: FlagId::new(0),
            },
        };
        let problems = spec.validate();
        assert!(
            problems.iter().any(|p| p.contains("no parameters")),
            "{problems:?}"
        );
    }
}
