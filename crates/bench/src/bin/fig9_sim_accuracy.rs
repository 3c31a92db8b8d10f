//! Regenerates the paper's Figure 9: accuracy of the scheduling simulator
//! against real (virtual-time) execution, 1-core and 62-core, plus the
//! aggregate-Markov ablation column.
//!
//! Usage: `cargo run --release -p bamboo-bench --bin fig9_sim_accuracy`

fn main() {
    print!("{}", bamboo_bench::fig9::render());
}
