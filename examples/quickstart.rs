//! Quickstart: the keyword-counting example of the paper's §2, end to
//! end — compile the Bamboo DSL source, run the analyses, profile on one
//! core, synthesize a quad-core implementation, and execute it.
//!
//! Run with: `cargo run --example quickstart`

use bamboo::prelude::*;

const SOURCE: &str = r#"
class StartupObject { flag initialstate; }

class Text {
    flag process;
    flag submit;
    String section;
    int count;

    Text(String section) { this.section = section; }

    void process() {
        String[] words = split(this.section, " ");
        int n = 0;
        for (int i = 0; i < len(words); i = i + 1) {
            if (words[i] == "bamboo") { n = n + 1; }
        }
        this.count = n;
    }
}

class Results {
    flag finished;
    int total;
    int merged;
    int expected;

    Results(int expected) { this.expected = expected; }

    boolean mergeResult(Text tp) {
        this.total = this.total + tp.count;
        this.merged = this.merged + 1;
        return this.merged == this.expected;
    }
}

task startup(StartupObject s in initialstate) {
    for (int i = 0; i < 8; i = i + 1) {
        Text tp = new Text("bamboo grows fast the bamboo panda eats bamboo shoots"){ process := true };
    }
    Results rp = new Results(8){ finished := false };
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

fn main() -> Result<(), Error> {
    // 1. Compile: frontend + dependence analysis + disjointness analysis.
    let compiler = Compiler::from_source("keyword-count", SOURCE)?;
    println!("compiled `{}`:", compiler.program.spec.name);
    println!("  classes: {}", compiler.program.spec.classes.len());
    println!("  tasks:   {}", compiler.program.spec.tasks.len());
    println!(
        "  abstract states (CSTG nodes): {}",
        compiler.cstg.nodes.len()
    );
    for (i, plan) in compiler.locks.lock_plans.iter().enumerate() {
        println!(
            "  lock plan for `{}`: {} {}",
            compiler.program.spec.tasks[i].name,
            plan,
            if plan.has_sharing() {
                "(shared lock!)"
            } else {
                "(disjoint)"
            }
        );
    }

    // 2. Plan: profile on a single core (this also runs the program for
    // real), synthesize an implementation for a quad-core machine, and
    // deploy it — (program, graph, layout, locks) in the one artifact
    // both executors consume.
    let machine = MachineDescription::quad();
    let plan = compiler.plan("quickstart", &machine, 42)?;
    let (single, deployment) = (&plan.single, &plan.deployment);
    println!(
        "\nsingle-core run: {} invocations, {} cycles",
        single.invocations, single.makespan
    );
    println!("\nsynthesized layout for {machine}:");
    print!(
        "{}",
        deployment
            .layout
            .describe(&compiler.program.spec, &deployment.graph)
    );

    // 3. Execute the synthesized implementation.
    let mut exec = VirtualExecutor::over(deployment, &machine, ExecConfig::default());
    let parallel = exec.run(None)?;
    println!(
        "quad-core run: {} cycles — {:.2}x speedup",
        parallel.makespan,
        single.makespan as f64 / parallel.makespan as f64
    );

    // 4. Read the result out of the final Results object.
    let results_class = compiler
        .program
        .spec
        .class_by_name("Results")
        .expect("declared above");
    let objs = exec.store.live_of_class(results_class);
    let r = match exec.store.get(objs[0]).payload {
        bamboo::runtime::PayloadSlot::Interp(r) => r,
        _ => unreachable!("DSL programs hold interpreter references"),
    };
    let total = exec.interp_heap().expect("interpreted program").field(r, 0);
    println!("keyword count: {total} (expected 24)");
    Ok(())
}
