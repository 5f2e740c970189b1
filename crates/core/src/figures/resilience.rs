//! The fault studies: the degradation table (delivered fraction and
//! post-fault latency/throughput vs. permanently failed links) and the
//! resilience figure (delivered fraction and recovery latency vs. link
//! MTBF under intermittent fault-and-repair timelines, one curve per
//! [`RecoveryMode`]). Every point runs through the crash-proof grid, so
//! a panicking or non-settling point is reported in place
//! ([`reports_failed_point`]) without poisoning the rest of the curve.
//!
//! Export follows the `noc-eval/metrics/v1` discipline: a
//! schema-versioned header (`noc-eval/resilience/v1`), one point
//! record per line, `format!` emission (the in-tree serde_json shim
//! does not serialize), and a parse through the crate's one record
//! reader ([`crate::json`]) that degrades with a reason instead of
//! panicking.

use noc_exp::PointOutcome;
use noc_fault::{
    degradation_sweep, resilience_sweep, DegradationConfig, DegradationPoint, RecoveryMode,
    ResilienceConfig, ResiliencePoint,
};
use noc_openloop::OpenLoopConfig;
use noc_sim::config::{NetConfig, TopologyKind};
use serde::{Deserialize, Serialize};

use super::{render_curves, Curve};
use crate::effort::Effort;
use crate::json::{check_schema, escape, field_f64, field_str, field_u64};

/// Schema tag emitted and required by this module.
pub const RESILIENCE_SCHEMA: &str = "noc-eval/resilience/v1";

/// Whether a rendered fault study reports a sweep point that panicked
/// or diverged instead of settling.
pub fn reports_failed_point(report: &str) -> bool {
    report.lines().any(|l| l.starts_with("point PANICKED") || l.starts_with("point DIVERGED"))
}

/// The fault studies' healthy network and its mesh radix: a uniform
/// open-loop point on a 4x4 mesh at quick scale, 8x8 at paper scale.
fn fault_mesh(effort: &Effort, load: f64) -> (usize, OpenLoopConfig) {
    let k = if effort.warmup < 5_000 { 4 } else { 8 };
    let base = OpenLoopConfig {
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k }),
        load,
        warmup: effort.warmup,
        measure: effort.measure,
        drain_max: effort.drain,
        ..OpenLoopConfig::default()
    };
    (k, base)
}

/// The graceful-degradation table: one row per number of permanently
/// failed links, from 0 up to the mesh radix, at load 0.15.
#[derive(Debug, Clone)]
pub struct DegradationFigure {
    /// Mesh radix.
    pub k: usize,
    /// One outcome per failed-link count, in axis order.
    pub outcomes: Vec<PointOutcome<DegradationPoint>>,
}

/// Run the degradation table.
pub fn degradation_figure(effort: &Effort) -> DegradationFigure {
    let (k, base) = fault_mesh(effort, 0.15);
    let outcomes = degradation_sweep(&DegradationConfig::new(base, k));
    DegradationFigure { k, outcomes }
}

impl DegradationFigure {
    /// Text report.
    pub fn render(&self) -> String {
        let k = self.k;
        let mut out = format!(
            "== graceful degradation: {k}x{k} mesh, uniform, load 0.15 ==\n\
             links  delivered            retx     abandoned  dropped  latency   thruput\n"
        );
        for outcome in &self.outcomes {
            out.push_str(&match outcome {
                PointOutcome::Ok(p) => format!(
                    "{:<6} {:<20} {:<8} {:<10} {:<8} {:<9.2} {:.4}\n",
                    p.failed_links,
                    p.delivered.to_string(),
                    p.retransmissions,
                    p.abandoned,
                    p.packets_dropped,
                    p.avg_latency,
                    p.throughput
                ),
                PointOutcome::Panicked { message } => format!("point PANICKED: {message}\n"),
                PointOutcome::Diverged { budget } => {
                    format!("point DIVERGED (budget {budget} cycles)\n")
                }
            });
        }
        out
    }
}

/// One recovery mode's resilience curve.
#[derive(Debug, Clone)]
pub struct ResilienceCurve {
    /// Stable mode label (`none`, `e2e`, `link`, `combined`).
    pub mode: String,
    /// Successful sweep points, one per `(mtbf, mttr)` axis entry.
    pub points: Vec<ResiliencePoint>,
    /// Axis entries that diverged or panicked instead of settling.
    pub failed_points: usize,
}

/// The resilience showcase: all four recovery modes swept over the
/// same MTBF axis on the same flapping mesh.
#[derive(Debug, Clone)]
pub struct ResilienceFigure {
    /// One curve per recovery mode, in [`RecoveryMode::ALL`] order.
    pub curves: Vec<ResilienceCurve>,
    /// The `(mtbf, mttr)` axis shared by every curve.
    pub axis: Vec<(u64, u64)>,
}

/// Run the resilience figure: a mesh with flapping links at load 0.1,
/// MTBF swept from frequent to rare outages at a fixed MTBF/MTTR ratio
/// (3 steps at quick scale, 6 at paper scale), each recovery mode
/// measured over the identical traffic and flap seeds (the mode only
/// changes the recovery machinery, never the workload).
pub fn resilience_figure(effort: &Effort) -> ResilienceFigure {
    let (k, base) = fault_mesh(effort, 0.1);
    let horizon = base.warmup + base.measure;
    // MTBF from one outage per tenth of the window upward; MTTR pinned
    // at an eighth of MTBF
    let steps = if k == 4 { 3u64 } else { 6 };
    let axis: Vec<(u64, u64)> = (1..=steps)
        .map(|i| {
            let mtbf = (horizon / 10 * i).max(8);
            (mtbf, (mtbf / 8).max(1))
        })
        .collect();

    let curves = RecoveryMode::ALL
        .iter()
        .map(|&mode| {
            let cfg = ResilienceConfig::new(base.clone(), axis.clone()).with_recovery(mode);
            let mut points = Vec::new();
            let mut failed_points = 0;
            for o in resilience_sweep(&cfg) {
                match o {
                    PointOutcome::Ok(p) => points.push(p),
                    _ => failed_points += 1,
                }
            }
            ResilienceCurve { mode: mode.label().into(), points, failed_points }
        })
        .collect();
    ResilienceFigure { curves, axis }
}

impl ResilienceFigure {
    /// Delivered-fraction-vs-MTBF curves, one per mode.
    pub fn delivered_curves(&self) -> Vec<Curve> {
        self.curves
            .iter()
            .map(|c| Curve {
                label: c.mode.clone(),
                points: c.points.iter().map(|p| (p.mtbf as f64, p.delivered.fraction())).collect(),
            })
            .collect()
    }

    /// Recovery-latency-vs-MTBF curves (cycles from the last repair to
    /// full settlement), one per mode.
    pub fn recovery_curves(&self) -> Vec<Curve> {
        self.curves
            .iter()
            .map(|c| Curve {
                label: c.mode.clone(),
                points: c
                    .points
                    .iter()
                    .map(|p| (p.mtbf as f64, p.recovery_cycles as f64))
                    .collect(),
            })
            .collect()
    }

    /// Text report: the delivered and recovery plots plus a per-mode
    /// table of the headline counters.
    pub fn render(&self) -> String {
        let mut out = render_curves(
            "resilience: delivered fraction vs link MTBF (cycles)",
            &self.delivered_curves(),
        );
        out.push_str(&render_curves(
            "resilience: recovery latency after last repair vs link MTBF",
            &self.recovery_curves(),
        ));
        out.push_str(
            "mode      mtbf    mttr   avail   delivered          retx  replays  epochs  recovery  latency\n",
        );
        for c in &self.curves {
            for p in &c.points {
                out.push_str(&format!(
                    "{:<9} {:<7} {:<6} {:.4}  {:<18} {:<5} {:<8} {:<7} {:<9} {:.2}\n",
                    c.mode,
                    p.mtbf,
                    p.mttr,
                    p.availability,
                    format!("{}", p.delivered),
                    p.retransmissions,
                    p.link_replays,
                    p.epochs,
                    p.recovery_cycles,
                    p.avg_latency,
                ));
            }
            if c.failed_points > 0 {
                out.push_str(&format!(
                    "point PANICKED or DIVERGED: {} of {} in mode {}\n",
                    c.failed_points,
                    self.axis.len(),
                    c.mode
                ));
            }
        }
        out
    }
}

/// Serialize a figure to the `noc-eval/resilience/v1` schema: one
/// point record per line so the parser (and humans with grep) can scan
/// it line by line.
pub fn resilience_to_json(fig: &ResilienceFigure) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{RESILIENCE_SCHEMA}\",\n"));
    out.push_str(&format!("  \"axis_points\": {},\n", fig.axis.len()));
    out.push_str("  \"curves\": [\n");
    for (ci, c) in fig.curves.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"failed_points\": {}, \"points\": [\n",
            escape(&c.mode),
            c.failed_points
        ));
        for (i, p) in c.points.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"mtbf\": {}, \"mttr\": {}, \"availability\": {:.6}, \
                 \"delivered_num\": {}, \"delivered_den\": {}, \"retransmissions\": {}, \
                 \"link_replays\": {}, \"replay_drops\": {}, \"epochs\": {}, \
                 \"recovery_cycles\": {}, \"avg_latency\": {:.4}, \"digest\": {}, \
                 \"cycles\": {}}}{}\n",
                p.mtbf,
                p.mttr,
                p.availability,
                p.delivered.num,
                p.delivered.den,
                p.retransmissions,
                p.link_replays,
                p.replay_drops,
                p.epochs,
                p.recovery_cycles,
                p.avg_latency,
                p.digest,
                p.cycles,
                if i + 1 == c.points.len() { "" } else { "," },
            ));
        }
        out.push_str(&format!("    ]}}{}\n", if ci + 1 == fig.curves.len() { "" } else { "," }));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The subset of a resilience file the tolerant parser recovers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParsedResilience {
    /// `(mode, mtbf, availability, delivered fraction, recovery_cycles)`
    /// per point record, in file order.
    pub points: Vec<(String, u64, f64, f64, u64)>,
}

/// Parse the `noc-eval/resilience/v1` schema: requires the schema
/// header, then reads curve headers and point records line by line.
/// Any structural problem returns an error string, never a panic.
pub fn parse_resilience_json(text: &str) -> Result<ParsedResilience, String> {
    check_schema(text, RESILIENCE_SCHEMA)?;
    let mut mode = String::new();
    let mut points = Vec::new();
    for line in text.lines() {
        if let Some(m) = field_str(line, "mode") {
            mode = m;
            continue;
        }
        let Some(mtbf) = field_u64(line, "mtbf") else { continue };
        let (Some(avail), Some(num), Some(den), Some(recovery)) = (
            field_f64(line, "availability"),
            field_u64(line, "delivered_num"),
            field_u64(line, "delivered_den"),
            field_u64(line, "recovery_cycles"),
        ) else {
            return Err(format!("malformed point record: {}", line.trim()));
        };
        if mode.is_empty() {
            return Err("point record before any curve header".into());
        }
        let delivered = if den == 0 { 1.0 } else { num as f64 / den as f64 };
        points.push((mode.clone(), mtbf, avail, delivered, recovery));
    }
    if points.is_empty() {
        return Err("schema header found but no point records parsed".into());
    }
    Ok(ParsedResilience { points })
}

/// Parse and check plausibility: availability and delivered fraction
/// must both be probabilities.
pub fn validate_resilience_json(text: &str) -> Result<ParsedResilience, String> {
    let parsed = parse_resilience_json(text)?;
    for (mode, mtbf, avail, delivered, _) in &parsed.points {
        if !(0.0..=1.0).contains(avail) || !(0.0..=1.0).contains(delivered) {
            return Err(format!(
                "implausible point ({mode}, mtbf {mtbf}): availability {avail}, delivered {delivered}"
            ));
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_figure() -> ResilienceFigure {
        let mut effort = Effort::quick();
        effort.sweep_points = 3;
        resilience_figure(&effort)
    }

    #[test]
    fn figure_runs_and_recovers_with_retransmission() {
        let fig = quick_figure();
        assert_eq!(fig.curves.len(), 4);
        for c in &fig.curves {
            assert_eq!(c.points.len() + c.failed_points, fig.axis.len(), "{}", c.mode);
        }
        // every point's availability is a probability and < 1 (it flaps)
        for c in &fig.curves {
            for p in &c.points {
                assert!((0.0..1.0).contains(&p.availability), "{}: {}", c.mode, p.availability);
            }
        }
        // modes with an end-to-end ledger deliver everything after heal
        for mode in ["e2e", "combined"] {
            let c = fig.curves.iter().find(|c| c.mode == mode).unwrap();
            assert!(
                c.points.iter().all(|p| p.delivered.is_complete()),
                "{mode} must fully recover on a connected flapping mesh"
            );
        }
        let r = fig.render();
        assert!(r.contains("delivered fraction vs link MTBF"));
        assert!(r.contains("combined"));
    }

    #[test]
    fn json_round_trips_and_validates() {
        let fig = quick_figure();
        let json = resilience_to_json(&fig);
        assert!(json.contains(RESILIENCE_SCHEMA));
        let parsed = validate_resilience_json(&json).unwrap();
        let expect: usize = fig.curves.iter().map(|c| c.points.len()).sum();
        assert_eq!(parsed.points.len(), expect);
        // modes arrive in figure order with the right point counts
        for c in &fig.curves {
            assert_eq!(parsed.points.iter().filter(|(m, ..)| m == &c.mode).count(), c.points.len());
        }
    }

    #[test]
    fn failed_points_are_reported_for_repro_to_fail_on() {
        let failed = |outcome| DegradationFigure { k: 4, outcomes: vec![outcome] }.render();
        assert!(reports_failed_point(&failed(PointOutcome::Panicked { message: "boom".into() })));
        assert!(reports_failed_point(&failed(PointOutcome::Diverged { budget: 9 })));
        let clean = DegradationFigure { k: 4, outcomes: Vec::new() };
        assert!(!reports_failed_point(&clean.render()));

        let curve = |failed_points| ResilienceCurve {
            mode: "e2e".into(),
            points: Vec::new(),
            failed_points,
        };
        let fig = |failed_points| ResilienceFigure {
            curves: vec![curve(failed_points)],
            axis: vec![(400, 50)],
        };
        assert!(reports_failed_point(&fig(1).render()));
        assert!(!reports_failed_point(&fig(0).render()));
    }

    #[test]
    fn foreign_or_corrupt_json_degrades_without_panicking() {
        assert!(parse_resilience_json("{}").is_err());
        assert!(parse_resilience_json("{\"schema\": \"noc-eval/metrics/v1\"}").is_err());
        let hollow = format!("{{\"schema\": \"{RESILIENCE_SCHEMA}\"}}");
        assert!(parse_resilience_json(&hollow).is_err());
        let fig = quick_figure();
        let doctored =
            resilience_to_json(&fig).replacen("\"availability\": 0.", "\"availability\": 7.", 1);
        assert!(validate_resilience_json(&doctored).is_err());
    }
}
