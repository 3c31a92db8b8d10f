#![warn(missing_docs)]

//! # bamboo-bench
//!
//! The experiment harness regenerating every table and figure of the
//! Bamboo paper's evaluation (§5). Each experiment has a module here and
//! a binary under `src/bin/`:
//!
//! | module | paper artifact | binary |
//! |---|---|---|
//! | [`fig7`] | Figure 7 — speedups on 62 cores (+ §5.5 overhead column) | `fig7_speedup` |
//! | [`fig9`] | Figure 9 — scheduling-simulator accuracy | `fig9_sim_accuracy` |
//! | [`fig10`] | Figure 10 — DSA efficiency distributions | `fig10_dsa` |
//! | [`fig11`] | Figure 11 — generality of synthesized layouts | `fig11_generality` |
//! | [`figures`] | Figures 3, 4, 6, 8 — CSTG, layout, trace, task flow | `fig3_cstg` … `fig8_taskflow` |
//!
//! `dsa_timing` reports the §5.1 synthesis times; `run_all` drives the
//! whole evaluation and writes EXPERIMENTS-ready output; `bamboo-doctor`
//! diagnoses a threaded run.
//!
//! Timing claims go through the repository's one benchmark
//! (`benchmark/`, declared by `BENCHMARK.json`), not through this crate.

pub mod fig10;
pub mod fig11;
pub mod fig7;
pub mod fig9;
pub mod figures;
