//! A tour of the Bamboo DSL: guards with `and`/`or`/`!`, methods,
//! arrays, strings, multiple exits, and the analyses' view of the
//! program (ASTGs, CSTG, lock plans).
//!
//! The program models a tiny order-processing workflow: orders are
//! validated, then either fulfilled or rejected; an auditor object
//! tallies both outcomes and a ledger keeps a running total that the
//! fulfill task updates through a method call.
//!
//! Run with: `cargo run --example dsl_tour`

use bamboo::Compiler;

const SOURCE: &str = r#"
class StartupObject { flag initialstate; }

class Order {
    flag fresh;
    flag valid;
    flag invalid;
    flag done;
    int amount;
    String customer;

    Order(int amount, String customer) {
        this.amount = amount;
        this.customer = customer;
    }

    boolean check() {
        // Orders over 1000 or from empty customers are rejected.
        if (this.amount > 1000) { return false; }
        if (len(this.customer) == 0) { return false; }
        return true;
    }
}

class Ledger {
    flag open;
    int total;
    int fulfilled;
    int rejected;
    int expected;
    Ledger(int expected) { this.expected = expected; }

    boolean recordFulfilled(Order o) {
        this.total = this.total + o.amount;
        this.fulfilled = this.fulfilled + 1;
        return this.fulfilled + this.rejected == this.expected;
    }

    boolean recordRejected() {
        this.rejected = this.rejected + 1;
        return this.fulfilled + this.rejected == this.expected;
    }
}

task startup(StartupObject s in initialstate) {
    int[] amounts = new int[6];
    amounts[0] = 120; amounts[1] = 4500; amounts[2] = 80;
    amounts[3] = 990; amounts[4] = 10;   amounts[5] = 2000;
    for (int i = 0; i < len(amounts); i = i + 1) {
        String name = "customer-" + itoa(i);
        Order o = new Order(amounts[i], name){ fresh := true };
    }
    Ledger led = new Ledger(6){ open := true };
    taskexit(s: initialstate := false);
}

task validate(Order o in fresh) {
    boolean ok = o.check();
    if (ok) {
        taskexit(o: fresh := false, valid := true);
    }
    taskexit(o: fresh := false, invalid := true);
}

// The guard mixes `or` with `!`: any settled-but-unrecorded order.
task record(Ledger led in open, Order o in (valid or invalid) and !done) {
    boolean closing = false;
    if (o.amount <= 1000) {
        closing = led.recordFulfilled(o);
    } else {
        closing = led.recordRejected();
    }
    if (closing) {
        taskexit(led: open := false; o: done := true, valid := false, invalid := false);
    }
    taskexit(o: done := true, valid := false, invalid := false);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiler = Compiler::from_source("dsl-tour", SOURCE)?;
    let spec = &compiler.program.spec;

    println!("== what the analyses see ==");
    for (class_id, class) in spec.classes_enumerated() {
        let astg = compiler.dependence.astg(class_id);
        println!(
            "class {:<14} flags={:<28} abstract states={} transitions={}",
            class.name,
            format!("{:?}", class.flags),
            astg.states.len(),
            astg.edges.len()
        );
    }
    println!(
        "CSTG: {} nodes, {} task edges, {} new-object edges",
        compiler.cstg.nodes.len(),
        compiler.cstg.task_edges.len(),
        compiler.cstg.new_edges.len()
    );
    for (i, plan) in compiler.locks.lock_plans.iter().enumerate() {
        println!("lock plan `{}`: {}", spec.tasks[i].name, plan);
    }

    println!("\n== execution ==");
    // One run: its profile, its report, and the Ledger object it left.
    let (profile, report, (total, fulfilled, rejected)) =
        compiler.profile_run(None, "tour", |exec| {
            let ledger = spec.class_by_name("Ledger").expect("declared above");
            let obj = exec.store.live_of_class(ledger)[0];
            let r = match exec.store.get(obj).payload {
                bamboo::runtime::PayloadSlot::Interp(r) => r,
                _ => unreachable!(),
            };
            let heap = exec.interp_heap().expect("interpreted");
            (
                format!("{}", heap.field(r, 0)),
                format!("{}", heap.field(r, 1)),
                format!("{}", heap.field(r, 2)),
            )
        })?;
    println!("{}", profile.summary(spec));
    println!("total invocations: {}", report.invocations);
    println!("ledger: total={total} fulfilled={fulfilled} rejected={rejected}");
    assert_eq!(total, "1200");
    assert_eq!(fulfilled, "4");
    assert_eq!(rejected, "2");
    println!("(120 + 80 + 990 + 10 = 1200 fulfilled; 4500 and 2000 rejected)");
    Ok(())
}
