//! Regenerates the paper's Figure 7: speedups of the six benchmarks on a
//! 62-core TILEPro64-like machine, plus the §5.5 overhead column.
//!
//! Usage: `cargo run --release -p bamboo-bench --bin fig7_speedup`

fn main() {
    print!("{}", bamboo_bench::fig7::render());
}
