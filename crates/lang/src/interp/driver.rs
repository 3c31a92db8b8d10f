//! Reference dispatcher: the executable semantics of Bamboo.
//!
//! A deliberately simple, obviously-correct implementation of data-oriented
//! task dispatch: scan all live objects for a parameter assignment whose
//! abstract states satisfy some task's guards (with consistent tag
//! bindings), invoke the task, apply the taken exit's flag/tag actions, and
//! repeat until quiescence. The production runtime (crate
//! `bamboo-runtime`) implements the same semantics with distributed
//! per-core schedulers; tests compare the two.

use crate::ids::{ClassId, ExitId, TagTypeId, TagVarId, TaskId};
use crate::interp::eval::{Interp, TagInstance, TaskOutcome, TrapError};
use crate::interp::value::ObjRef;
use crate::spec::{FlagOrTagAction, FlagSet, TaskSpec};
use crate::CompiledProgram;
use std::collections::HashMap;

/// Dispatch metadata for one object: its abstract state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObjectMeta {
    /// Current flag valuation.
    pub flags: FlagSet,
    /// Bound tag instances.
    pub tags: Vec<(TagTypeId, TagInstance)>,
}

/// One dispatched invocation, for the report.
#[derive(Clone, Debug, PartialEq)]
pub struct InvocationRecord {
    /// The task invoked.
    pub task: TaskId,
    /// The parameter objects, in parameter order.
    pub params: Vec<ObjRef>,
    /// The exit taken.
    pub exit: ExitId,
    /// Abstract cycles charged.
    pub cycles: u64,
    /// Number of dispatch objects created.
    pub created: usize,
}

/// Result of running a program to quiescence.
#[derive(Clone, Debug, PartialEq)]
pub struct DriverReport {
    /// Every invocation, in execution order.
    pub invocations: Vec<InvocationRecord>,
    /// Whether the run reached quiescence (no task can fire) rather than
    /// the invocation limit.
    pub quiesced: bool,
    /// Total abstract cycles.
    pub total_cycles: u64,
    /// Captured `print` output.
    pub output: String,
}

/// The reference executor.
#[derive(Debug)]
pub struct ReferenceDriver<'p> {
    program: &'p CompiledProgram,
    /// The interpreter (owns the heap).
    pub interp: Interp<'p>,
    /// Abstract state per dispatchable object.
    pub meta: HashMap<ObjRef, ObjectMeta>,
    /// Live dispatchable objects in creation order.
    objects: Vec<ObjRef>,
}

impl<'p> ReferenceDriver<'p> {
    /// Creates a driver and injects the startup object.
    pub fn new(program: &'p CompiledProgram) -> Self {
        let mut interp = Interp::new(program);
        let startup = program.spec.startup;
        let obj = interp.alloc_raw(startup.class);
        let mut meta = HashMap::new();
        meta.insert(
            obj,
            ObjectMeta {
                flags: FlagSet::new().with(startup.flag, true),
                tags: Vec::new(),
            },
        );
        ReferenceDriver {
            program,
            interp,
            meta,
            objects: vec![obj],
        }
    }

    /// Runs until no task can fire, or until `max_invocations`.
    ///
    /// # Errors
    ///
    /// Propagates interpreter traps.
    pub fn run(&mut self, max_invocations: usize) -> Result<DriverReport, TrapError> {
        let mut invocations = Vec::new();
        let mut quiesced = false;
        while invocations.len() < max_invocations {
            match self.find_match() {
                Some((task, params, tag_env)) => {
                    let record = self.invoke(task, params, tag_env)?;
                    invocations.push(record);
                }
                None => {
                    quiesced = true;
                    break;
                }
            }
        }
        Ok(DriverReport {
            invocations,
            quiesced,
            total_cycles: self.interp.total_cycles,
            output: std::mem::take(&mut self.interp.output),
        })
    }

    /// Runs one dispatch step; returns `None` at quiescence.
    ///
    /// # Errors
    ///
    /// Propagates interpreter traps.
    pub fn step(&mut self) -> Result<Option<InvocationRecord>, TrapError> {
        match self.find_match() {
            Some((task, params, tag_env)) => Ok(Some(self.invoke(task, params, tag_env)?)),
            None => Ok(None),
        }
    }

    /// Finds the first (task declaration order, object creation order)
    /// parameter assignment that can fire.
    fn find_match(&self) -> Option<(TaskId, Vec<ObjRef>, Vec<Option<TagInstance>>)> {
        for (task_id, task) in self.program.spec.tasks_enumerated() {
            let mut assignment = Vec::new();
            let mut tag_env = vec![None; task.tag_vars.len()];
            if self.match_params(task, 0, &mut assignment, &mut tag_env) {
                return Some((task_id, assignment, tag_env));
            }
        }
        None
    }

    fn match_params(
        &self,
        task: &TaskSpec,
        param: usize,
        assignment: &mut Vec<ObjRef>,
        tag_env: &mut Vec<Option<TagInstance>>,
    ) -> bool {
        if param == task.params.len() {
            return !task.params.is_empty();
        }
        let spec = &task.params[param];
        for &obj in &self.objects {
            if assignment.contains(&obj) {
                continue;
            }
            let Some(meta) = self.meta.get(&obj) else {
                continue;
            };
            if self.interp.heap.class_of(obj) != spec.class {
                continue;
            }
            if !spec.guard.eval(meta.flags) {
                continue;
            }
            let Some(updates) = spec.bind_tags(&meta.tags, tag_env) else {
                continue;
            };
            for &(var, instance) in &updates {
                tag_env[var] = Some(instance);
            }
            assignment.push(obj);
            if self.match_params(task, param + 1, assignment, tag_env) {
                return true;
            }
            assignment.pop();
            // A failed deeper match leaves the environment as it found
            // it, so undoing this object's bindings restores it.
            for (var, _) in updates {
                tag_env[var] = None;
            }
        }
        false
    }

    fn invoke(
        &mut self,
        task_id: TaskId,
        params: Vec<ObjRef>,
        tag_env: Vec<Option<TagInstance>>,
    ) -> Result<InvocationRecord, TrapError> {
        let outcome = self.interp.run_task(task_id, &params, tag_env)?;
        let created = outcome.created.len();
        self.apply_outcome(task_id, &params, &outcome);
        Ok(InvocationRecord {
            task: task_id,
            params,
            exit: outcome.exit,
            cycles: outcome.cycles,
            created,
        })
    }

    /// Applies an invocation's effects to dispatch state: exit actions on
    /// the parameters and registration of created objects.
    pub fn apply_outcome(&mut self, task_id: TaskId, params: &[ObjRef], outcome: &TaskOutcome) {
        let task = self.program.spec.task(task_id);
        let exit = task.exit(outcome.exit);
        for (param_idx, actions) in &exit.actions {
            let obj = params[param_idx.index()];
            let meta = self
                .meta
                .get_mut(&obj)
                .expect("parameter object has metadata");
            for action in actions {
                match action {
                    FlagOrTagAction::SetFlag(flag, value) => meta.flags.set(*flag, *value),
                    FlagOrTagAction::AddTag(var) => {
                        if let Some((tt, inst)) = resolve_tag(task, *var, outcome) {
                            if !meta.tags.contains(&(tt, inst)) {
                                meta.tags.push((tt, inst));
                            }
                        }
                    }
                    FlagOrTagAction::ClearTag(var) => {
                        if let Some((tt, inst)) = resolve_tag(task, *var, outcome) {
                            meta.tags.retain(|t| *t != (tt, inst));
                        }
                    }
                }
            }
        }
        for created in &outcome.created {
            let site = &task.alloc_sites[created.site.index()];
            self.meta.insert(
                created.obj,
                ObjectMeta {
                    flags: site.initial_flag_set(),
                    tags: created.tags.clone(),
                },
            );
            self.objects.push(created.obj);
        }
    }

    /// Returns the live dispatchable objects of `class` whose flags
    /// currently satisfy `flag` (test/result-extraction helper).
    pub fn objects_of(&self, class: ClassId) -> Vec<ObjRef> {
        self.objects
            .iter()
            .copied()
            .filter(|o| self.interp.heap.class_of(*o) == class)
            .collect()
    }
}

fn resolve_tag(
    task: &TaskSpec,
    var: TagVarId,
    outcome: &TaskOutcome,
) -> Option<(TagTypeId, TagInstance)> {
    let instance = outcome.tag_env.get(var.index()).copied().flatten()?;
    Some((task.tag_vars[var.index()].tag_type, instance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;
    use crate::interp::value::Value;

    const KC: &str = r#"
        class StartupObject { flag initialstate; }
        class Text {
            flag process; flag submit;
            int count; int sectionId;
            Text(int id) { this.sectionId = id; }
            void process() { this.count = this.sectionId * 3 + 1; }
        }
        class Results {
            flag finished;
            int total; int merged; int expected;
            Results(int expected) { this.expected = expected; }
            boolean mergeResult(Text tp) {
                this.total = this.total + tp.count;
                this.merged = this.merged + 1;
                return this.merged == this.expected;
            }
        }
        task startup(StartupObject s in initialstate) {
            for (int i = 0; i < 4; i = i + 1) {
                Text tp = new Text(i){ process := true };
            }
            Results rp = new Results(4){ finished := false };
            taskexit(s: initialstate := false);
        }
        task processText(Text tp in process) {
            tp.process();
            taskexit(tp: process := false, submit := true);
        }
        task mergeIntermediateResult(Results rp in !finished, Text tp in submit) {
            boolean allprocessed = rp.mergeResult(tp);
            if (allprocessed) {
                taskexit(rp: finished := true; tp: submit := false);
            }
            taskexit(tp: submit := false);
        }
    "#;

    #[test]
    fn keyword_counting_runs_to_quiescence() {
        let program = compile_source("kc", KC).unwrap();
        let mut driver = ReferenceDriver::new(&program);
        let report = driver.run(1000).unwrap();
        assert!(report.quiesced);
        // 1 startup + 4 processText + 4 merge = 9 invocations.
        assert_eq!(report.invocations.len(), 9);
        // The Results object accumulated 1 + 4 + 7 + 10 = 22.
        let results_class = program.spec.class_by_name("Results").unwrap();
        let results = driver.objects_of(results_class);
        assert_eq!(results.len(), 1);
        assert_eq!(driver.interp.heap.field(results[0], 0), &Value::Int(22));
        // It ended in the `finished` state.
        let meta = &driver.meta[&results[0]];
        let finished = program
            .spec
            .class(results_class)
            .flag_by_name("finished")
            .unwrap();
        assert!(meta.flags.contains(finished));
    }

    #[test]
    fn startup_fires_exactly_once() {
        let program = compile_source("kc", KC).unwrap();
        let mut driver = ReferenceDriver::new(&program);
        let report = driver.run(1000).unwrap();
        let startup_id = program.spec.task_by_name("startup").unwrap();
        let count = report
            .invocations
            .iter()
            .filter(|r| r.task == startup_id)
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn invocation_limit_is_respected() {
        let program = compile_source("kc", KC).unwrap();
        let mut driver = ReferenceDriver::new(&program);
        let report = driver.run(3).unwrap();
        assert!(!report.quiesced);
        assert_eq!(report.invocations.len(), 3);
    }

    #[test]
    fn tags_pair_the_right_objects() {
        let src = r#"
            class StartupObject { flag initialstate; }
            class Drawing { flag saving; flag saved; int id; Drawing(int id) { this.id = id; } }
            class Image { flag raw; flag compressed; int id; Image(int id) { this.id = id; } }
            tagtype link;
            task startup(StartupObject s in initialstate) {
                for (int i = 0; i < 3; i = i + 1) {
                    tag t = new tag(link);
                    Drawing d = new Drawing(i){ saving := true, add t };
                    Image m = new Image(i){ raw := true, add t };
                }
                taskexit(s: initialstate := false);
            }
            task compress(Image m in raw) {
                taskexit(m: raw := false, compressed := true);
            }
            task finishsave(Drawing d in saving with link t, Image m in compressed with link t) {
                d.id = d.id * 100 + m.id;
                taskexit(d: saving := false, saved := true; m: compressed := false);
            }
        "#;
        // `new tag` in a loop requires fresh variables per iteration; this
        // program declares the tag inside the loop, which our resolver
        // rejects on re-declaration. Rewrite with distinct names instead.
        let src = src.replace(
            "for (int i = 0; i < 3; i = i + 1) {\n                    tag t = new tag(link);\n                    Drawing d = new Drawing(i){ saving := true, add t };\n                    Image m = new Image(i){ raw := true, add t };\n                }",
            r#"tag t0 = new tag(link);
               Drawing d0 = new Drawing(0){ saving := true, add t0 };
               Image m0 = new Image(0){ raw := true, add t0 };
               tag t1 = new tag(link);
               Drawing d1 = new Drawing(1){ saving := true, add t1 };
               Image m1 = new Image(1){ raw := true, add t1 };
               tag t2 = new tag(link);
               Drawing d2 = new Drawing(2){ saving := true, add t2 };
               Image m2 = new Image(2){ raw := true, add t2 };"#,
        );
        let program = compile_source("tags", &src).unwrap();
        let mut driver = ReferenceDriver::new(&program);
        let report = driver.run(100).unwrap();
        assert!(report.quiesced);
        let drawing_class = program.spec.class_by_name("Drawing").unwrap();
        for obj in driver.objects_of(drawing_class) {
            // Each drawing paired with its own image: id became id*100+id.
            let id = match driver.interp.heap.field(obj, 0) {
                Value::Int(v) => *v,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(id % 100, id / 100, "drawing paired with wrong image: {id}");
        }
    }
}
