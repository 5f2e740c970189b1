//! # noc-bench — benchmark harness
//!
//! `repro` is the one entry point for the paper's studies: [`SECTIONS`]
//! lists every table, figure, extension and fault study in run order,
//! and `repro [quick|paper] [SECTION...]` runs all of them or only the
//! named ones. The other binaries are tools with contracts of their own
//! (`explore`, `analytic_smoke`, `scalability`, `serve_replay`,
//! `sim_speed`), next to the criterion benches (`sim_speed`,
//! `ablations`).
//!
//! Every binary takes an effort argument: `quick` (seconds, CI-sized)
//! or `paper` (the default; the full reproduction scale). An unknown
//! argument exits 2 before any simulation.

use noc_eval::figures as f;
use noc_eval::Effort;

/// One `repro` section: the name that selects it on the command line
/// and labels its `[name: …s]` timing line, and its renderer.
pub type Section = (&'static str, fn(&Effort) -> String);

/// Every `repro` section, in run order.
pub const SECTIONS: &[Section] = &[
    ("verify", |_| verify_headline_configs()),
    ("table1", |_| f::table1()),
    ("table2", |_| f::table2()),
    ("fig01", |e| f::fig01(e).render()),
    ("fig02", |e| f::fig02(e).render()),
    ("fig03", |e| f::fig03(e).render()),
    ("fig04", |e| f::fig04(e).render()),
    ("fig05", |e| f::fig05(e).render()),
    ("fig06", |e| format!("{}{}", f::fig06a(e).render(), f::fig06b(e).render())),
    ("fig07", |e| f::fig07(e).render()),
    ("fig08", |e| f::fig08(e).render()),
    ("fig09", |e| f::fig09(e).render()),
    ("fig10", |e| f::fig10(e).render()),
    ("fig11", |e| f::fig11(e).render()),
    ("fig12", |_| f::fig12().render()),
    ("fig13", |e| f::fig13(e).render()),
    ("fig14", |e| f::fig14(e).render()),
    ("fig15", |e| f::fig15(e).render()),
    ("fig16", |e| f::fig16(e).render()),
    ("fig17", |e| f::fig17(e).render()),
    ("fig18", |e| f::fig19(e).render()),
    ("fig20", |e| f::fig20(e).render()),
    ("fig21", |e| f::fig21(e).render()),
    ("fig22", |e| f::fig22(e).render()),
    ("table3", |e| f::table3(e).render()),
    ("table4", |_| f::table4()),
    ("ext_pktsize", |e| f::ext_pktsize(e).render()),
    ("ext_scale256", |e| f::ext_scale256(e).render()),
    ("ext_arbitration", |e| f::ext_arbitration(e).render()),
    ("ext_barrier", |e| f::ext_barrier(e).render()),
    ("ext_burst", |e| f::ext_burst(e).render()),
    ("ext_trace", |e| f::ext_trace(e).render()),
    ("ext_bottleneck", |e| f::ext_bottleneck(e).render()),
    ("ext_patterns", |e| f::ext_patterns(e).render()),
    ("degradation", |e| f::degradation_figure(e).render()),
    ("resilience", |e| f::resilience_figure(e).render()),
    ("metrics", |e| f::metrics_showcase(e).render()),
    ("analytic", |e| {
        noc_eval::analytic_study(&noc_eval::default_cases(), e, 300.0)
            .expect("default analytic cases are valid configurations")
            .render()
    }),
    ("sim_speed", |e| f::sim_speed_report(e).render()),
];

/// Prove the sweeps' headline network configurations deadlock-free
/// before spending hours simulating them: one verdict line each.
fn verify_headline_configs() -> String {
    use noc_sim::config::{NetConfig, RoutingKind, TopologyKind};
    let configs = [
        NetConfig::baseline(),
        NetConfig::baseline().with_topology(TopologyKind::FoldedTorus2D { k: 8 }),
        NetConfig::baseline().with_topology(TopologyKind::Ring { n: 64 }),
        NetConfig::baseline().with_routing(RoutingKind::Valiant).with_vcs(2),
        NetConfig::baseline().with_routing(RoutingKind::Romm).with_vcs(2),
        NetConfig::baseline().with_routing(RoutingKind::MinAdaptive).with_vcs(2),
    ];
    // static analysis per config is independent — fan it out
    noc_exp::run_grid(&configs, |_, c| noc_verify::verify(c).one_line()).join("\n")
}

/// Split `[EFFORT] [NAME...]` into the effort (`paper` when absent) and
/// the names, each of which must be one of `names`. The error names the
/// first argument that is neither.
pub fn parse_args(args: &[String], names: &[&str]) -> Result<(Effort, Vec<String>), String> {
    let effort = args.first().and_then(|a| Effort::parse(a));
    let rest = &args[usize::from(effort.is_some())..];
    match rest.iter().find(|a| !names.contains(&a.as_str())) {
        Some(bad) => Err(format!("unknown argument `{bad}`")),
        None => Ok((effort.unwrap_or_else(Effort::paper), rest.to_vec())),
    }
}

/// [`parse_args`] over this process's arguments; on an error, print it
/// to stderr with a usage line listing the valid names, and exit 2.
pub fn args_or_exit(names: &[&str]) -> (Effort, Vec<String>) {
    let args: Vec<String> = std::env::args().collect();
    parse_args(args.get(1..).unwrap_or_default(), names).unwrap_or_else(|err| {
        let bin = args.first().and_then(|a| a.rsplit('/').next()).unwrap_or("noc-bench");
        let sections = match names {
            [] => String::new(),
            _ => format!(" [SECTION...]\nsections: {}", names.join(" ")),
        };
        eprintln!("{bin}: {err}\nusage: {bin} [quick|paper]{sections}");
        std::process::exit(2)
    })
}

/// The effort from this process's only argument (`paper` when absent);
/// anything else exits 2 with a usage line.
pub fn effort_from_args() -> Effort {
    args_or_exit(&[]).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_defaults_to_paper_and_comes_before_the_names() {
        let batch = |args: &[&str], names: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_args(&args, names).map(|(e, _)| e.batch)
        };
        assert_eq!(batch(&[], &[]), Ok(Effort::paper().batch));
        assert_eq!(batch(&["fig01"], &["fig01"]), Ok(Effort::paper().batch));
        assert_eq!(batch(&["quick", "fig01"], &["fig01"]), Ok(Effort::quick().batch));
        assert!(batch(&["fig01", "quick"], &["fig01"]).is_err());
        assert!(batch(&["quick", "fig01"], &[]).is_err());
    }
}
