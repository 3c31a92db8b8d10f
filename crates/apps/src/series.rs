//! Series: Fourier coefficient computation (ported in spirit from the
//! Java Grande suite, as in the paper's §5.1).
//!
//! The first `n` Fourier coefficient pairs of `f(x) = (x+1)^x` on `[0,2]`
//! are computed by trapezoidal integration. The Bamboo version splits the
//! coefficient range into chunks: `startup` creates one `Chunk` object per
//! range plus a `Result` accumulator; `compute` integrates a chunk;
//! `merge` writes the chunk's coefficients into index-addressed slots of
//! the result (bit-exact regardless of merge order). Embarrassingly
//! parallel — the paper reports a 61.2× speedup on 62 cores.

use crate::util::Checksum;
use crate::{Benchmark, PaperNumbers, Scale, SerialOutcome};
use bamboo::{body, Compiler, FlagExpr, NativeBody, ProgramBuilder, VirtualExecutor};

/// Cycles charged per integration point (calibrated to the paper's serial
/// magnitude: 124 chunks × 8 coefficients × 200 points × this ≈ 1.8e11).
const CYCLES_PER_POINT: u64 = 890_000;
/// Cycles charged per coefficient merged into the result.
const CYCLES_PER_MERGE_COEFF: u64 = 200_000;
/// Modeled generated-code overhead of the Bamboo version, in permille
/// (paper §5.5 measures 6.3% for Series).
const LANG_OVERHEAD_PERMILLE: u64 = 63;

/// Benchmark parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Number of chunk objects.
    pub chunks: usize,
    /// Coefficient pairs per chunk.
    pub coeffs_per_chunk: usize,
    /// Integration points per coefficient.
    pub points: usize,
}

impl Params {
    /// Parameters for a scale.
    pub fn for_scale(scale: Scale) -> Params {
        match scale {
            Scale::Small => Params {
                chunks: 8,
                coeffs_per_chunk: 4,
                points: 64,
            },
            Scale::Original => Params {
                chunks: 124,
                coeffs_per_chunk: 8,
                points: 200,
            },
            Scale::Double => Params {
                chunks: 124,
                coeffs_per_chunk: 16,
                points: 200,
            },
        }
    }

    fn total_coeffs(&self) -> usize {
        self.chunks * self.coeffs_per_chunk
    }
}

/// The integrand of the Java Grande Series kernel.
fn integrand(x: f64) -> f64 {
    (x + 1.0).powf(x)
}

/// Computes coefficient pairs `(a_k, b_k)` for `k` in
/// `[first, first+count)` by the trapezoid rule with `points` intervals.
pub fn fourier_coefficients(first: usize, count: usize, points: usize) -> Vec<(f64, f64)> {
    let omega = std::f64::consts::PI;
    let dx = 2.0 / points as f64;
    let mut out = Vec::with_capacity(count);
    for k in first..first + count {
        let (mut a, mut b) = (0.0f64, 0.0f64);
        for i in 0..=points {
            let x = i as f64 * dx;
            let w = if i == 0 || i == points { 0.5 } else { 1.0 };
            let f = integrand(x);
            if k == 0 {
                a += w * f * dx;
            } else {
                let phase = omega * k as f64 * x;
                a += w * f * phase.cos() * dx;
                b += w * f * phase.sin() * dx;
            }
        }
        out.push((a / 2.0, b / 2.0));
    }
    out
}

/// Work units (integration points) for one chunk.
fn chunk_units(p: &Params) -> u64 {
    (p.coeffs_per_chunk * (p.points + 1)) as u64
}

fn bamboo_charge(work: u64) -> u64 {
    work + work * LANG_OVERHEAD_PERMILLE / 1000
}

/// Chunk payload.
#[derive(Debug)]
struct ChunkData {
    id: usize,
    first: usize,
    coeffs: Vec<(f64, f64)>,
}

/// Result payload: index-addressed coefficient slots.
#[derive(Debug)]
struct ResultData {
    slots: Vec<(f64, f64)>,
    merged: usize,
    expected: usize,
}

/// Builds the Bamboo program for `params`.
pub fn build(params: Params) -> Compiler {
    let mut b: ProgramBuilder<NativeBody> = ProgramBuilder::new("series");
    let s = b.class("StartupObject", &["initialstate"]);
    let chunk = b.class("Chunk", &["ready", "done"]);
    let result = b.class("Result", &["collecting", "finished"]);
    let init = b.flag(s, "initialstate");
    let ready = b.flag(chunk, "ready");
    let done = b.flag(chunk, "done");
    let collecting = b.flag(result, "collecting");
    let finished = b.flag(result, "finished");

    let p = params;
    b.task("startup")
        .param("s", s, FlagExpr::flag(init))
        .alloc(chunk, &[(ready, true)], &[])
        .alloc(result, &[(collecting, true)], &[])
        .exit("spawned", |e| e.set(0, init, false))
        .body(body(move |ctx| {
            for id in 0..p.chunks {
                ctx.create(
                    0,
                    ChunkData {
                        id,
                        first: id * p.coeffs_per_chunk,
                        coeffs: Vec::new(),
                    },
                );
            }
            ctx.create(
                1,
                ResultData {
                    slots: vec![(0.0, 0.0); p.total_coeffs()],
                    merged: 0,
                    expected: p.chunks,
                },
            );
            ctx.charge(bamboo_charge(p.chunks as u64 * 40));
            0
        }))
        .finish();

    b.task("compute")
        .param("c", chunk, FlagExpr::flag(ready))
        .exit("computed", |e| e.set(0, ready, false).set(0, done, true))
        .body(body(move |ctx| {
            let c = ctx.param_mut::<ChunkData>(0);
            c.coeffs = fourier_coefficients(c.first, p.coeffs_per_chunk, p.points);
            ctx.charge(bamboo_charge(chunk_units(&p) * CYCLES_PER_POINT));
            0
        }))
        .finish();

    b.task("merge")
        .param("r", result, FlagExpr::flag(collecting))
        .param("c", chunk, FlagExpr::flag(done))
        .exit("more", |e| e.set(1, done, false))
        .exit("finished", |e| {
            e.set(0, collecting, false)
                .set(0, finished, true)
                .set(1, done, false)
        })
        .body(body(move |ctx| {
            let (r, c) = ctx.param_pair_mut::<ResultData, ChunkData>(0, 1);
            debug_assert_eq!(c.first, c.id * c.coeffs.len(), "chunk id/range consistency");
            for (i, coeff) in c.coeffs.iter().enumerate() {
                r.slots[c.first + i] = *coeff;
            }
            r.merged += 1;
            let finished = r.merged == r.expected;
            ctx.charge(bamboo_charge(
                p.coeffs_per_chunk as u64 * CYCLES_PER_MERGE_COEFF,
            ));
            if finished {
                1
            } else {
                0
            }
        }))
        .finish();

    Compiler::from_native(b.build().expect("series program is well-formed"))
}

fn checksum_slots(slots: &[(f64, f64)]) -> u64 {
    let mut sum = Checksum::new();
    for (a, b) in slots {
        sum.push_f64(*a);
        sum.push_f64(*b);
    }
    sum.finish()
}

/// The Series benchmark.
#[derive(Clone, Copy, Debug, Default)]
pub struct Series;

impl Benchmark for Series {
    fn name(&self) -> &'static str {
        "Series"
    }

    fn paper(&self) -> PaperNumbers {
        PaperNumbers {
            c_cycles_1e8: 1774.7,
            speedup_vs_bamboo: 61.2,
            speedup_vs_c: 57.6,
            overhead_pct: 6.3,
        }
    }

    fn compiler(&self, scale: Scale) -> Compiler {
        build(Params::for_scale(scale))
    }

    fn serial(&self, scale: Scale) -> SerialOutcome {
        let p = Params::for_scale(scale);
        let mut slots = vec![(0.0, 0.0); p.total_coeffs()];
        let mut cycles = p.chunks as u64 * 40;
        for id in 0..p.chunks {
            let first = id * p.coeffs_per_chunk;
            let coeffs = fourier_coefficients(first, p.coeffs_per_chunk, p.points);
            for (i, c) in coeffs.iter().enumerate() {
                slots[first + i] = *c;
            }
            cycles += chunk_units(&p) * CYCLES_PER_POINT;
            cycles += p.coeffs_per_chunk as u64 * CYCLES_PER_MERGE_COEFF;
        }
        SerialOutcome {
            cycles,
            checksum: checksum_slots(&slots),
        }
    }

    fn parallel_checksum(&self, compiler: &Compiler, exec: &VirtualExecutor<'_>) -> u64 {
        let result_class = compiler
            .program
            .spec
            .class_by_name("Result")
            .expect("class exists");
        let results = exec.store.live_of_class(result_class);
        assert_eq!(results.len(), 1, "exactly one result object");
        checksum_slots(&exec.payload::<ResultData>(results[0]).slots)
    }

    fn threaded_checksum(&self, compiler: &Compiler, report: &bamboo::ThreadedReport) -> u64 {
        let result_class = compiler
            .program
            .spec
            .class_by_name("Result")
            .expect("class exists");
        let results = report.payloads_of::<ResultData>(result_class);
        assert_eq!(results.len(), 1, "exactly one result object");
        checksum_slots(&results[0].slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo::ExecConfig;

    #[test]
    fn kernel_zeroth_coefficient_is_positive() {
        let coeffs = fourier_coefficients(0, 1, 1000);
        // a_0 = (1/2)∫(x+1)^x dx over [0,2] ≈ 2.88.
        assert!((coeffs[0].0 - 2.88).abs() < 0.02, "a0 = {}", coeffs[0].0);
        assert_eq!(coeffs[0].1, 0.0);
    }

    #[test]
    fn serial_and_parallel_agree_bit_exactly() {
        let bench = Series;
        let serial = bench.serial(Scale::Small);
        let compiler = bench.compiler(Scale::Small);
        let (_, report, digest) = compiler
            .profile_run(None, "test", |exec| {
                bench.parallel_checksum(&compiler, exec)
            })
            .unwrap();
        assert!(report.quiesced);
        assert_eq!(digest, serial.checksum);
    }

    #[test]
    fn body_cycles_match_serial_modulo_language_overhead() {
        let bench = Series;
        let serial = bench.serial(Scale::Small);
        let compiler = bench.compiler(Scale::Small);
        let (_, report, ()) = compiler.profile_run(None, "test", |_| ()).unwrap();
        let expected = bamboo_charge(serial.cycles);
        // Integer rounding of per-invocation overhead keeps this within
        // one permille.
        let diff = (report.body_cycles as f64 - expected as f64).abs() / expected as f64;
        assert!(
            diff < 0.001,
            "body {} vs expected {}",
            report.body_cycles,
            expected
        );
    }

    #[test]
    fn invocation_count_matches_structure() {
        let bench = Series;
        let p = Params::for_scale(Scale::Small);
        let compiler = bench.compiler(Scale::Small);
        let (_, report, ()) = compiler.profile_run(None, "test", |_| ()).unwrap();
        assert_eq!(report.invocations as usize, 1 + 2 * p.chunks);
    }

    #[test]
    fn double_scale_doubles_work() {
        let bench = Series;
        let original = bench.serial(Scale::Original);
        let double = bench.serial(Scale::Double);
        let ratio = double.cycles as f64 / original.cycles as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn parallel_execution_on_many_cores_matches_too() {
        let bench = Series;
        let compiler = bench.compiler(Scale::Small);
        let machine = bamboo::MachineDescription::n_cores(8);
        let plan = compiler.plan("test", &machine, 3).unwrap();
        let mut exec = VirtualExecutor::over(&plan.deployment, &machine, ExecConfig::default());
        exec.run(None).unwrap();
        assert_eq!(
            bench.parallel_checksum(&compiler, &exec),
            bench.serial(Scale::Small).checksum
        );
    }
}
