//! The Series benchmark written **in the Bamboo DSL** — the same Fourier
//! coefficient computation the native `bamboo-apps` version performs, but
//! expressed in the paper's language and executed by the interpreter
//! through the full pipeline (compile → analyze → profile → synthesize →
//! run on virtual cores). The results are compared against the native
//! Rust kernel bit-for-bit: interpreter arithmetic is ordinary f64, so
//! the same sums produce the same bits.
//!
//! Run with: `cargo run --release --example series_dsl`

use bamboo::{Compiler, ExecConfig, MachineDescription, VirtualExecutor};
use bamboo_apps::series::fourier_coefficients;

const CHUNKS: usize = 8;
const COEFFS_PER_CHUNK: usize = 2;
const POINTS: usize = 100;

fn source() -> String {
    format!(
        r#"
class StartupObject {{ flag initialstate; }}

class Chunk {{
    flag ready;
    flag done;
    int first;
    float[] a;
    float[] b;

    Chunk(int first) {{ this.first = first; }}

    void compute() {{
        int count = {COEFFS_PER_CHUNK};
        int points = {POINTS};
        float pi = 3.141592653589793;
        float dx = 2.0 / itof(points);
        this.a = new float[count];
        this.b = new float[count];
        for (int j = 0; j < count; j = j + 1) {{
            int k = this.first + j;
            float ak = 0.0;
            float bk = 0.0;
            for (int i = 0; i <= points; i = i + 1) {{
                float x = itof(i) * dx;
                float w = 1.0;
                if (i == 0) {{ w = 0.5; }}
                if (i == points) {{ w = 0.5; }}
                float f = pow(x + 1.0, x);
                if (k == 0) {{
                    ak = ak + w * f * dx;
                }} else {{
                    float phase = pi * itof(k) * x;
                    ak = ak + w * f * cos(phase) * dx;
                    bk = bk + w * f * sin(phase) * dx;
                }}
            }}
            this.a[j] = ak / 2.0;
            this.b[j] = bk / 2.0;
        }}
    }}
}}

class Result {{
    flag collecting;
    flag finished;
    float[] a;
    float[] b;
    int merged;
    int expected;

    Result(int total, int expected) {{
        this.a = new float[total];
        this.b = new float[total];
        this.expected = expected;
    }}

    boolean merge(Chunk c) {{
        for (int j = 0; j < len(c.a); j = j + 1) {{
            this.a[c.first + j] = c.a[j];
            this.b[c.first + j] = c.b[j];
        }}
        this.merged = this.merged + 1;
        return this.merged == this.expected;
    }}
}}

task startup(StartupObject s in initialstate) {{
    int chunks = {CHUNKS};
    int per = {COEFFS_PER_CHUNK};
    for (int i = 0; i < chunks; i = i + 1) {{
        Chunk c = new Chunk(i * per){{ ready := true }};
    }}
    Result r = new Result(chunks * per, chunks){{ collecting := true }};
    taskexit(s: initialstate := false);
}}

task compute(Chunk c in ready) {{
    c.compute();
    taskexit(c: ready := false, done := true);
}}

task merge(Result r in collecting, Chunk c in done) {{
    boolean all = r.merge(c);
    if (all) {{ taskexit(r: collecting := false, finished := true; c: done := false); }}
    taskexit(c: done := false);
}}
"#
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiler = Compiler::from_source("series-dsl", &source())?;
    let machine = MachineDescription::n_cores(8);
    let plan = compiler.plan("dsl", &machine, 42)?;
    let single = &plan.single;
    println!(
        "single-core: {} invocations, {} interpreter-charged cycles",
        single.invocations, single.makespan
    );

    let mut exec = VirtualExecutor::over(&plan.deployment, &machine, ExecConfig::default());
    let parallel = exec.run(None)?;
    println!(
        "8-core: {} cycles — {:.2}x speedup",
        parallel.makespan,
        single.makespan as f64 / parallel.makespan as f64
    );

    // Extract the DSL-computed coefficients and compare against the
    // native Rust kernel, bit for bit.
    let result_class = compiler
        .program
        .spec
        .class_by_name("Result")
        .expect("declared");
    let objs = exec.store.live_of_class(result_class);
    let r = match exec.store.get(objs[0]).payload {
        bamboo::runtime::PayloadSlot::Interp(r) => r,
        _ => unreachable!(),
    };
    let heap = exec.interp_heap().expect("interpreted");
    let a_arr = match heap.field(r, 0) {
        bamboo::lang::interp::Value::Ref(arr) => *arr,
        other => panic!("unexpected {other:?}"),
    };
    let native = fourier_coefficients(0, CHUNKS * COEFFS_PER_CHUNK, POINTS);
    let mut exact = 0;
    for (k, (na, _)) in native.iter().enumerate() {
        let dsl_a = match heap.array(a_arr)[k] {
            bamboo::lang::interp::Value::Float(v) => v,
            ref other => panic!("unexpected {other:?}"),
        };
        if dsl_a.to_bits() == na.to_bits() {
            exact += 1;
        }
        if k < 3 {
            println!("a[{k}]  dsl={dsl_a:.12}  native={na:.12}");
        }
    }
    println!(
        "{exact}/{} coefficients bit-identical between DSL and native Rust",
        native.len()
    );
    assert_eq!(
        exact,
        native.len(),
        "interpreter float math must match native"
    );
    Ok(())
}
