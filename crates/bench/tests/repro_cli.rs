//! The `repro [quick|paper] [SECTION...]` command line, driven through
//! the built binaries. Only instant sections are run, so these tests
//! add no simulation time.

use std::collections::HashSet;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Long enough for any instant section, far too short for a sweep: a
/// binary that starts simulating by mistake fails the test instead of
/// hanging it.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Run `bin` with `args` to completion. The instant sections' output
/// fits in the pipe buffers, so polling before reading cannot stall.
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .env("BENCH_JSON", "")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bench binary");
    let deadline = Instant::now() + TIMEOUT;
    while child.try_wait().expect("wait on bench binary").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("`{bin} {}` still running after {TIMEOUT:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect bench binary output")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

/// The names of the `[name: …s]` timing lines, in print order.
fn timed_sections(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with('[') && l.ends_with("s]"))
        .filter_map(|l| l[1..].split(':').next())
        .collect()
}

#[test]
fn named_sections_run_alone_and_in_table_order() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [["quick", "table1", "fig12"], ["quick", "fig12", "table1"]] {
        let out = run(repro, &args);
        assert!(out.status.success(), "{args:?}: {}\n{}", out.status, text(&out.stderr));
        let stdout = text(&out.stdout);
        assert_eq!(timed_sections(stdout), ["table1", "fig12", "total"], "{args:?}");
        assert!(stdout.contains("== Table I: simulation parameters =="));
    }
}

#[test]
fn unknown_effort_or_section_exits_2_before_running_anything() {
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [&["quick", "nosuch"][..], &["quik"], &["quick", "table1", "nosuch"]] {
        let out = run(repro, args);
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(timed_sections(stdout).is_empty(), "{args:?} printed a section:\n{stdout}");
        let bad = args.last().unwrap();
        assert!(stderr.contains(&format!("`{bad}`")), "{stderr}");
        assert!(stderr.contains("usage: repro [quick|paper] [SECTION...]"), "{stderr}");
        assert!(stderr.contains("table1") && stderr.contains("resilience"), "{stderr}");
    }
}

#[test]
fn every_effort_taking_binary_rejects_a_mistyped_effort() {
    for bin in [
        env!("CARGO_BIN_EXE_analytic_smoke"),
        env!("CARGO_BIN_EXE_scalability"),
        env!("CARGO_BIN_EXE_sim_speed"),
    ] {
        let out = run(bin, &["quik"]);
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert_eq!(out.status.code(), Some(2), "{bin}: {stdout}");
        assert!(stdout.is_empty(), "{bin} printed:\n{stdout}");
        assert!(stderr.contains("`quik`") && stderr.contains("[quick|paper]"), "{stderr}");
    }
}

#[test]
fn section_names_are_unique() {
    let mut seen = HashSet::new();
    for &(name, _) in noc_bench::SECTIONS {
        assert!(seen.insert(name), "duplicate section `{name}`");
    }
}
