//! Regenerates the paper's tables and figures, the extension studies
//! and the fault studies, section by section in [`noc_bench::SECTIONS`]
//! order, printing each as it completes with its wall-clock time.
//!
//! Usage: `cargo run --release -p noc-bench --bin repro -- [quick|paper] [SECTION...]`
//!
//! With no section names every section runs; with names, only those.
//! A section that reports a panicked or diverged sweep point does not
//! stop the run, but the process exits 1 naming it once all are done.

use std::time::Instant;

fn main() {
    let names: Vec<&str> = noc_bench::SECTIONS.iter().map(|&(name, _)| name).collect();
    let (e, picked) = noc_bench::args_or_exit(&names);
    let total = Instant::now();
    let mut failed = Vec::new();
    for &(name, render) in noc_bench::SECTIONS {
        if !picked.is_empty() && !picked.iter().any(|p| p == name) {
            continue;
        }
        let start = Instant::now();
        let body = render(&e);
        println!("{body}");
        println!("[{name}: {:.1}s]\n", start.elapsed().as_secs_f64());
        if noc_eval::figures::reports_failed_point(&body) {
            failed.push(name);
        }
    }
    println!("[total: {:.1}s]", total.elapsed().as_secs_f64());
    if !failed.is_empty() {
        eprintln!("repro: failed sweep points in section(s): {}", failed.join(", "));
        std::process::exit(1);
    }
}
