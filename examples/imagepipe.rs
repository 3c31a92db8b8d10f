//! Tags: the image-save pipeline of the paper's §3.
//!
//! `startsave` creates a tag instance and binds it to both a `Drawing`
//! and its freshly created `Image`; a library-style `compress` task
//! transitions images to the compressed state; `finishsave` then demands
//! a Drawing and a *compressed Image carrying the same tag* — so each
//! drawing is always paired with its own image, even with many saves in
//! flight (the disambiguation problem tags exist to solve).
//!
//! Run with: `cargo run --example imagepipe`

use bamboo::{Compiler, ExecConfig, MachineDescription, VirtualExecutor};

const SOURCE: &str = r#"
class StartupObject { flag initialstate; }

class Drawing {
    flag saving;
    flag saved;
    int id;
    int pairedWith;
    Drawing(int id) { this.id = id; this.pairedWith = 0 - 1; }
}

class Image {
    flag uncompressed;
    flag compressed;
    int id;
    int sizeBefore;
    int sizeAfter;
    Image(int id, int size) { this.id = id; this.sizeBefore = size; }

    void compress() {
        this.sizeAfter = this.sizeBefore / 3 + 7;
    }
}

tagtype link;

task startup(StartupObject s in initialstate) {
    tag t0 = new tag(link);
    Drawing d0 = new Drawing(0){ saving := true, add t0 };
    Image i0 = new Image(0, 900){ uncompressed := true, add t0 };
    tag t1 = new tag(link);
    Drawing d1 = new Drawing(1){ saving := true, add t1 };
    Image i1 = new Image(1, 1200){ uncompressed := true, add t1 };
    tag t2 = new tag(link);
    Drawing d2 = new Drawing(2){ saving := true, add t2 };
    Image i2 = new Image(2, 600){ uncompressed := true, add t2 };
    taskexit(s: initialstate := false);
}

task compress(Image im in uncompressed) {
    im.compress();
    taskexit(im: uncompressed := false, compressed := true);
}

task finishsave(Drawing d in saving with link t, Image im in compressed with link t) {
    d.pairedWith = im.id;
    taskexit(d: saving := false, saved := true, clear t; im: compressed := false, clear t);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiler = Compiler::from_source("imagepipe", SOURCE)?;
    let finishsave = compiler
        .program
        .spec
        .task_by_name("finishsave")
        .expect("declared above");
    println!(
        "finishsave params share a tag: {} (so it may be replicated with tag-hash routing)",
        compiler
            .program
            .spec
            .task(finishsave)
            .all_params_share_tag()
    );

    let machine = MachineDescription::quad();
    let plan = compiler.plan("imagepipe", &machine, 7)?;
    let mut exec = VirtualExecutor::over(&plan.deployment, &machine, ExecConfig::default());
    let report = exec.run(None)?;
    println!(
        "ran {} invocations on {} cores",
        report.invocations,
        machine.core_count()
    );

    let drawing_class = compiler
        .program
        .spec
        .class_by_name("Drawing")
        .expect("declared above");
    let heap = exec.interp_heap().expect("interpreted program");
    for obj in exec.store.live_of_class(drawing_class) {
        let r = match exec.store.get(obj).payload {
            bamboo::runtime::PayloadSlot::Interp(r) => r,
            _ => unreachable!(),
        };
        let id = heap.field(r, 0);
        let paired = heap.field(r, 1);
        println!("drawing {id} paired with image {paired}");
        assert_eq!(
            format!("{id}"),
            format!("{paired}"),
            "tag pairing must match ids"
        );
    }
    println!("every drawing got its own image — tags disambiguated the saves.");
    Ok(())
}
