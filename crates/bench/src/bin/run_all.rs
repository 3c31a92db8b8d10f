//! Drives the whole evaluation: every table and figure, written to
//! `results/` (creating the directory if needed). Each file is the same
//! text its figure binary prints, so the committed results regenerate
//! byte for byte.
//!
//! Usage:
//!   cargo run --release -p bamboo-bench --bin run_all

use bamboo_bench::{fig10, fig11, fig7, fig9, figures};
use std::fs;

fn save(name: &str, contents: &str) {
    fs::create_dir_all("results").expect("results dir");
    let path = format!("results/{name}");
    fs::write(&path, contents).expect("write result file");
    println!("wrote {path}");
}

fn main() {
    save("fig7.txt", &fig7::render());
    save("fig9.txt", &fig9::render());
    save("fig10.txt", &fig10::render());
    save("fig11.txt", &fig11::render());
    let (compiler, profile) = figures::keyword_setup(4);
    save(
        "fig3.dot",
        &figures::fig3_annotated_cstg(&compiler, &profile),
    );
    save(
        "fig4.txt",
        &figures::fig4_quad_layout(&compiler, &profile, 42),
    );
    save("fig6.txt", &figures::fig6_trace(&compiler, &profile));
    save("fig8.dot", &figures::fig8_tracking_taskflow());
    println!("\nall experiments complete; see results/ and EXPERIMENTS.md");
}
