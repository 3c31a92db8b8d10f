//! Regenerates the paper's Figure 10: the distribution of candidate
//! implementations on 16 cores versus the distribution of DSA results
//! from random starting points.
//!
//! Usage: `cargo run --release -p bamboo-bench --bin fig10_dsa`
//!
//! Runs 500 DSA starts and enumerates up to 50 000 candidates per
//! benchmark (the paper used 1000 starts and full enumeration). Tracking
//! is skipped, as in the paper (its space is prohibitively large). About
//! a minute on a 2-thread host.

fn main() {
    print!("{}", bamboo_bench::fig10::render());
}
