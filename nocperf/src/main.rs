//! `nocperf` — the workspace benchmark.
//!
//! ```text
//! nocperf --workload <openloop-busy|closedloop-grid|serve-mixed|all>
//!         [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload drives the workspace crates from outside, measures for
//! `--seconds`, checks that the simulated outputs are correct, and
//! prints one JSON result line last on stdout: the end-to-end metrics
//! untraced (`--trace 0`, times at a reference host speed, see
//! [`host`]), the per-layer metrics traced (`--trace 1`,
//! which also writes every span to `nocperf-out/`). `--workload all`
//! runs every workload both ways, each in its own process, and prints a
//! table. See `README.md` for what each workload and metric means.

mod grid;
mod host;
mod openloop;
mod report;
mod serve;
mod sim;
mod trace;

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use report::{peak_rss_mb, result_json, table, Metrics, Tally, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, in report order.
pub const WORKLOADS: [&str; 3] = ["openloop-busy", "closedloop-grid", "serve-mixed"];

/// How long a workload's measured loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Whole units until `seconds` have passed and at least
    /// `min_samples` latency samples exist (extending to at most three
    /// times `seconds` for the samples).
    Time {
        /// Measured seconds.
        seconds: f64,
        /// Latency samples wanted.
        min_samples: usize,
    },
    /// Exactly this many units.
    Units(u64),
}

impl Limit {
    /// Has the loop done enough, after `units` units and `samples`
    /// samples since `t0`?
    pub fn done(&self, units: u64, t0: Instant, samples: usize) -> bool {
        match *self {
            Limit::Time { seconds, min_samples } => {
                let e = t0.elapsed().as_secs_f64();
                units >= 1 && e >= seconds && (samples >= min_samples || e >= 3.0 * seconds)
            }
            Limit::Units(n) => units >= n,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok(a)
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("nocperf-out");
    std::fs::create_dir_all(&dir).expect("create nocperf-out");
    dir
}

/// Run one workload in this process and print its result line.
fn run_one(a: &Args) {
    let mut tally = Tally::default();
    let run = match a.workload.as_str() {
        "openloop-busy" => openloop::run,
        "closedloop-grid" => grid::run,
        _ => serve::run,
    };
    let (mut m, tracer): (Metrics, Option<Tracer>) = run(a.seed, a.seconds, a.trace, &mut tally);
    if !a.trace {
        m.insert("peak_rss_mb", peak_rss_mb());
    }
    eprintln!(
        "{} seed {}{}: attempted {} failed {} (failed_ratio {})",
        a.workload,
        a.seed,
        if a.trace { " traced" } else { "" },
        tally.attempted,
        tally.failed,
        tally.failed_ratio()
    );
    for p in &tally.problems {
        eprintln!("  FAILED: {p}");
    }
    eprint!("{}", table(&m));
    let line = result_json(&tally, &m);
    if let Some(tr) = tracer {
        let (spans, aggs) = tr.snapshot();
        let stem = out_dir().join(format!("{}-seed{}", a.workload, a.seed));
        let written = trace::write_jsonl(&stem.with_extension("spans.jsonl"), &spans, &aggs)
            .and_then(|_| std::fs::write(stem.with_extension("layers.json"), format!("{line}\n")));
        if let Err(e) = written {
            eprintln!("nocperf: cannot write the trace: {e}");
            std::process::exit(1);
        }
        eprintln!("spans and per-layer metrics written to {}.*", stem.display());
    }
    println!("{line}");
}

/// Run every workload untraced and traced, each in a child process.
fn run_all(a: &Args) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut failed = 0;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("run a workload");
            let last =
                String::from_utf8_lossy(&out.stdout).lines().last().unwrap_or("").to_string();
            if !out.status.success() || !last.contains("\"correct\": true") {
                failed += 1;
            }
            rows.push((w, trace, last));
        }
    }
    println!("seed {}, {} s a run", a.seed, a.seconds);
    for (w, trace, line) in &rows {
        let names: &[(&str, &str)] = if *trace == "0" { &END_TO_END } else { &PER_LAYER };
        println!("{w} ({}):", if *trace == "0" { "end to end" } else { "per layer, traced" });
        for (name, unit) in names {
            let value = line
                .split(&format!("\"{name}\": {{\"value\": "))
                .nth(1)
                .and_then(|r| r.split(',').next())
                .unwrap_or("missing");
            println!("  {name:<34} {value:>24} {unit}");
        }
    }
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nocperf: {e}");
            eprintln!(
                "usage: nocperf --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if a.workload == "all" {
        run_all(&a);
    } else {
        run_one(&a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn another_seed_gives_other_inputs_that_pass_every_check() {
        let seed = DEFAULT_SEED + 1;
        assert_ne!(openloop::config(DEFAULT_SEED).net.seed, openloop::config(seed).net.seed);
        let seeds = |s| grid::grid(s).iter().map(|p| format!("{p:?}")).collect::<Vec<_>>();
        assert!(seeds(DEFAULT_SEED).iter().zip(seeds(seed)).all(|(a, b)| *a != b));
        let keys = |s| (0..50).map(|n| serve::fresh_point(s, n).key()).collect::<Vec<_>>();
        assert!(keys(DEFAULT_SEED).iter().zip(keys(seed)).all(|(a, b)| *a != b));
        for run in [openloop::run, grid::run, serve::run] {
            for traced in [false, true] {
                let mut tally = Tally::default();
                // long enough for every percentile to have its samples
                let (m, tracer) = run(seed, 3.0, traced, &mut tally);
                assert_eq!(tally.failed, 0, "{:?}", tally.problems);
                assert!(tally.attempted > 0);
                assert_eq!(tracer.is_some(), traced);
                let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
                for (name, _) in names.iter().filter(|(n, _)| *n != "peak_rss_mb") {
                    assert!(m.contains_key(name), "{name} missing");
                }
            }
        }
    }
}
