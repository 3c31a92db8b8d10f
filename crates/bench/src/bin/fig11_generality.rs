//! Regenerates the paper's Figure 11: generality of synthesized
//! implementations — layouts synthesized from the original profile versus
//! the doubled profile, both executing the doubled input.
//!
//! Usage: `cargo run --release -p bamboo-bench --bin fig11_generality`

fn main() {
    print!("{}", bamboo_bench::fig11::render());
}
