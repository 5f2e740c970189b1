//! `closedloop-grid`: the paper's closed-loop models as `repro` runs
//! them — batch-model points on an 8×8 mesh and execution-driven `cmp`
//! points for the five Table II profiles — fanned out by
//! `noc_exp::run_grid_with` on two workers. Behaviour bookkeeping and
//! sparse, often idle networks dominate; uneven point costs exercise
//! work stealing.

use std::collections::HashMap;
use std::time::Instant;

use cmp_sim::sim::CmpBehavior;
use cmp_sim::CmpConfig;
use noc_closedloop::{BatchBehavior, BatchConfig, ReplyModel};
use noc_sim::{NetConfig, Network, NodeBehavior};

use crate::host;
use crate::openloop::{latency_metrics, ratio};
use crate::report::{layer_defaults, median, Metrics, Tally};
use crate::sim::{drain, fnv_words, ns_since, traced, At, EngineOut};
use crate::trace::{aggregated_s, self_s, total_s, Span, Timed, Tracer};
use crate::Limit;

/// Grid workers (the host this benchmark targets has two cores).
pub const WORKERS: usize = 2;

/// The paper's probabilistic memory hierarchy: 20 cycles + 10% × 300.
const MEMORY: ReplyModel =
    ReplyModel::Probabilistic { l2_latency: 20, mem_latency: 300, mem_frac: 0.1 };

/// One grid point.
#[derive(Debug, Clone)]
pub enum GridPoint {
    /// A batch-model run.
    Batch(BatchConfig),
    /// An execution-driven CMP run.
    Cmp(CmpConfig),
}

/// The grid, from the workload seed: batch points for b ∈ {25, 100},
/// m ∈ {1, 4, 16}, immediate and memory-delay replies, then cmp points
/// for every Table II profile at router delays 1 and 2.
pub fn grid(seed: u64) -> Vec<GridPoint> {
    let mut points = Vec::new();
    for b in [25, 100] {
        for m in [1, 4, 16] {
            for reply in [ReplyModel::Immediate, MEMORY] {
                points.push(GridPoint::Batch(BatchConfig {
                    net: NetConfig::baseline(),
                    batch: b,
                    max_outstanding: m,
                    reply_model: reply,
                    ..BatchConfig::default()
                }));
            }
        }
    }
    for profile in noc_workloads::all_benchmarks() {
        for tr in [1, 2] {
            let mut cfg = CmpConfig::table2(profile).with_router_delay(tr);
            cfg.user_instructions = 5_000;
            points.push(GridPoint::Cmp(cfg));
        }
    }
    for (i, p) in points.iter_mut().enumerate() {
        let net = match p {
            GridPoint::Batch(c) => &mut c.net,
            GridPoint::Cmp(c) => &mut c.net,
        };
        net.seed = noc_exp::derive_seed(seed, i as u64);
    }
    points
}

/// Seed-independent points whose outputs are pinned below.
fn canaries() -> Vec<GridPoint> {
    let mut g = grid(0);
    let (mut batch, mut cmp) = (g.swap_remove(3), g.swap_remove(g.len() - 1));
    for p in [&mut batch, &mut cmp] {
        match p {
            GridPoint::Batch(c) => c.net.seed = 0x5eed_ca11,
            GridPoint::Cmp(c) => c.net.seed = 0x5eed_ca11,
        }
    }
    vec![batch, cmp]
}

/// `PointOut::pinned` of [`canaries`], recorded when the benchmark was
/// defined.
const CANARY_PINS: [&str; 2] = [
    "runtime=886 completed=1600 throughput=0.056433408577878104 timer_added=0 drained=true \
     per_node=52afcbc4958eeece digest=62fa9ec80db835ae flits_injected=3200 flits_ejected=3200 \
     packets_injected=3200 packets_delivered=3200 self_delivered=0 flits_dropped=0",
    "runtime=10365 user_flits=4686 kernel_flits=2746 timer_interrupts=0 instructions=126768 \
     drained=true matrix=4db09d52efd82503 digest=38259dcc907bbdfe flits_injected=6922 \
     flits_ejected=6922 packets_injected=2894 packets_delivered=3108 self_delivered=214 \
     flits_dropped=0",
];

/// One grid point's outputs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointOut {
    /// Engine outputs and counters.
    pub engine: EngineOut,
    /// The library result's fields, formatted.
    pub fields: String,
    /// Batch requests completed (batch points).
    pub transactions: u64,
    /// Instructions retired (cmp points).
    pub instructions: u64,
}

impl PointOut {
    /// Everything a speed-only change must leave identical.
    pub fn pinned(&self) -> String {
        format!("{} {}", self.fields, self.engine.stats)
    }
}

fn batch_fields(
    runtime: u64,
    completed: u64,
    throughput: f64,
    timer_added: u64,
    drained: bool,
    per_node: &[u64],
) -> String {
    format!(
        "runtime={runtime} completed={completed} throughput={throughput:?} \
         timer_added={timer_added} drained={drained} per_node={:016x}",
        fnv_words(per_node)
    )
}

fn cmp_fields(
    runtime: u64,
    user: u64,
    kernel: u64,
    timer: u64,
    instructions: u64,
    drained: bool,
    matrix: Option<&[u64]>,
) -> String {
    format!(
        "runtime={runtime} user_flits={user} kernel_flits={kernel} timer_interrupts={timer} \
         instructions={instructions} drained={drained} matrix={:016x}",
        matrix.map_or(0, fnv_words)
    )
}

/// Drain `b` on `net`, inside a `noc-sim`/`drain` span when traced.
fn drain_traced<B: NodeBehavior>(
    net: &mut Network,
    b: &mut B,
    max: u64,
    at: At<'_>,
    layer: &'static str,
) -> (bool, u64) {
    match at {
        None => drain(net, b, max),
        Some((tr, parent)) => {
            let mut w = Timed::new(b);
            let s = tr.open("noc-sim", "drain", 0, Some(parent));
            let r = drain(net, &mut w, max);
            tr.close(s);
            w.flush(tr, layer, s);
            r
        }
    }
}

/// Run one point exactly as `run_batch` / `run_cmp` do. Returns the
/// outputs and the set-up time in nanoseconds.
pub fn point(p: &GridPoint, at: At<'_>) -> (PointOut, u64) {
    let t0 = Instant::now();
    let net_cfg = match p {
        GridPoint::Batch(c) => &c.net,
        GridPoint::Cmp(c) => &c.net,
    };
    let mut net =
        traced(at, "noc-sim", "Network::new", || Network::new(net_cfg.clone().with_classes(2)))
            .expect("benchmark configs are valid");
    let nodes = net.num_nodes();
    match p {
        GridPoint::Batch(cfg) => {
            let k = net.topo().radix(0);
            let mut b = traced(at, "noc-closedloop", "BatchBehavior::new", || {
                BatchBehavior::new(cfg, nodes, k)
            });
            let setup = ns_since(t0);
            let (drained, steps) =
                drain_traced(&mut net, &mut b, cfg.max_cycles, at, "noc-closedloop");
            let runtime = b.runtime().max(1);
            let completed = b.completed();
            let flits = completed * (cfg.request_size + cfg.reply_size) as u64;
            let throughput = flits as f64 / nodes as f64 / runtime as f64;
            let fields = batch_fields(
                runtime,
                completed,
                throughput,
                b.timer_added,
                drained,
                &b.per_node_runtime(),
            );
            let out = PointOut {
                engine: EngineOut::of(&net, steps),
                fields,
                transactions: completed,
                instructions: 0,
            };
            (out, setup)
        }
        GridPoint::Cmp(cfg) => {
            net.enable_traffic_matrix();
            let bin = (cfg.user_instructions / 64).max(256);
            let mut b =
                traced(at, "cmp-sim", "CmpBehavior::new", || CmpBehavior::new(cfg, nodes, bin));
            let setup = ns_since(t0);
            let (drained, steps) = drain_traced(&mut net, &mut b, cfg.max_cycles, at, "cmp-sim");
            let fields = cmp_fields(
                b.last_activity.max(1),
                b.user_flits,
                b.kernel_flits,
                b.timer_interrupts,
                b.instructions(),
                drained,
                net.traffic_matrix(),
            );
            let out = PointOut {
                engine: EngineOut::of(&net, steps),
                fields,
                transactions: 0,
                instructions: b.instructions(),
            };
            (out, setup)
        }
    }
}

/// The library's own result for `p`, formatted like [`PointOut::fields`].
fn library_fields(p: &GridPoint) -> String {
    match p {
        GridPoint::Batch(cfg) => {
            let r = noc_closedloop::run_batch(cfg).expect("benchmark configs are valid");
            batch_fields(
                r.runtime,
                r.completed,
                r.throughput,
                r.timer_added,
                r.drained,
                &r.per_node_runtime,
            )
        }
        GridPoint::Cmp(cfg) => {
            let r = cmp_sim::run_cmp(cfg).expect("benchmark configs are valid");
            cmp_fields(
                r.runtime,
                r.user_flits,
                r.kernel_flits,
                r.timer_interrupts,
                r.instructions,
                r.drained,
                r.traffic_matrix.as_deref(),
            )
        }
    }
}

/// Check the benchmark's stepping loop against `run_batch` / `run_cmp`, and
/// the canaries against their pinned outputs.
pub fn check(points: &[GridPoint], outs: &[PointOut], tally: &mut Tally) {
    for (i, (p, out)) in points.iter().zip(outs).enumerate() {
        let lib = library_fields(p);
        tally.check(lib == out.fields, || {
            format!("grid point {i}: ours {} != library {lib}", out.fields)
        });
    }
    for (i, (p, pin)) in canaries().iter().zip(CANARY_PINS).enumerate() {
        let got = point(p, None).0.pinned();
        tally.check(got == pin, || format!("grid canary {i}: {got} != pinned {pin}"));
    }
}

/// Outputs of repeated passes over the grid.
struct Passes {
    first: Vec<PointOut>,
    count: u64,
    wall_s: f64,
    walls: Vec<f64>,
    setup_s: Vec<f64>,
    point_ms: Vec<f64>,
}

/// Evaluate the grid pass after pass within `limit`; every pass must
/// reproduce the first.
fn passes(
    points: &[GridPoint],
    limit: Limit,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Passes {
    let mut r = Passes {
        first: Vec::new(),
        count: 0,
        wall_s: 0.0,
        walls: Vec::new(),
        setup_s: Vec::new(),
        point_ms: Vec::new(),
    };
    let t0 = Instant::now();
    while !limit.done(r.count, t0, r.point_ms.len()) {
        let t = Instant::now();
        let grid_span = tracer.map(|tr| tr.open("noc-exp", "run_grid", r.count, None));
        let outs: Vec<(PointOut, u64, f64)> = noc_exp::run_grid_with(points, WORKERS, |i, p| {
            let t = Instant::now();
            let (out, setup) = match (tracer, grid_span) {
                (Some(tr), Some(g)) => {
                    tr.span("noc-exp", "point", i as u64, Some(g), |s| point(p, Some((tr, s))))
                }
                _ => point(p, None),
            };
            (out, setup, ns_since(t) as f64 * 1e-6)
        });
        if let (Some(tr), Some(g)) = (tracer, grid_span) {
            tr.close(g);
        }
        r.walls.push(ns_since(t) as f64 * 1e-9);
        r.wall_s += r.walls[r.walls.len() - 1];
        r.count += 1;
        r.setup_s.push(outs.iter().map(|o| o.1).sum::<u64>() as f64 * 1e-9);
        r.point_ms.extend(outs.iter().map(|o| o.2));
        let outs: Vec<PointOut> = outs.into_iter().map(|o| o.0).collect();
        if r.first.is_empty() {
            r.first = outs;
        } else {
            for (i, (a, b)) in outs.iter().zip(&r.first).enumerate() {
                tally.check(a == b, || {
                    format!("grid pass {}: point {i} differs from the first pass", r.count - 1)
                });
            }
        }
    }
    r
}

/// Time during which some workers had finished their last point of a
/// grid pass while others still ran: per pass, the spread of the
/// workers' last point ends, summed over passes.
pub fn tail_s(spans: &[Span]) -> f64 {
    let mut total = 0u64;
    for (g, _) in spans.iter().enumerate().filter(|(_, s)| s.name == "run_grid") {
        let mut last: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent == Some(g) && s.name == "point") {
            let e = last.entry(s.thread).or_default();
            *e = (*e).max(s.end_ns);
        }
        if last.len() > 1 {
            total += last.values().max().copied().unwrap_or(0)
                - last.values().min().copied().unwrap_or(0);
        }
    }
    total as f64 * 1e-9
}

/// The workload. Untraced, it returns the end-to-end metrics; traced,
/// the per-layer metrics and the tracer holding the spans.
pub fn run(seed: u64, seconds: f64, traced: bool, tally: &mut Tally) -> (Metrics, Option<Tracer>) {
    let points = grid(seed);
    if !traced {
        let (r, speed) = host::calibrated(|| {
            passes(&points, Limit::Time { seconds, min_samples: 1000 }, None, tally)
        });
        check(&points, &r.first, tally);
        let mut m = Metrics::new();
        m.insert("setup_s", median(&r.setup_s));
        m.insert("points_per_s", points.len() as f64 / median(&r.walls));
        latency_metrics(&mut m, &r.point_ms, tally);
        speed.normalise(&mut m);
        return (m, None);
    }
    let plain =
        passes(&points, Limit::Time { seconds: seconds / 2.0, min_samples: 0 }, None, tally);
    let tracer = Tracer::default();
    let t = passes(&points, Limit::Units(plain.count), Some(&tracer), tally);
    tally.check(plain.first == t.first, || "grid: traced run differs from untraced".into());
    check(&points, &t.first, tally);
    let (spans, aggs) = tracer.snapshot();
    let n = t.count as f64;
    let sum = |f: fn(&PointOut) -> u64| t.first.iter().map(f).sum::<u64>() as f64 * n;
    let (hops, cycles, steps) =
        (sum(|o| o.engine.flit_hops), sum(|o| o.engine.cycles), sum(|o| o.engine.steps));
    let engine_s = self_s(&spans, &aggs, "noc-sim", &["drain"]);
    let point_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "point").collect();
    let point_s: Vec<f64> =
        point_spans.iter().map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9).collect();
    let cmp_s: f64 = point_spans
        .iter()
        .zip(&point_s)
        .filter(|(s, _)| matches!(points[s.id as usize], GridPoint::Cmp(_)))
        .map(|(_, d)| d)
        .sum();
    let e = |f: fn(&EngineOut) -> u64| t.first.iter().map(|o| f(&o.engine)).sum::<u64>();
    let mut m = layer_defaults();
    m.insert("noc-sim.self_s", engine_s);
    m.insert("noc-sim.flit_hops", hops);
    m.insert("noc-sim.ns_per_flit_hop", engine_s * 1e9 / hops.max(1.0));
    m.insert("noc-sim.cycles", cycles);
    m.insert("noc-sim.cycles_per_s", cycles / total_s(&spans, "noc-sim", "drain").max(1e-9));
    m.insert("noc-sim.setup_s", total_s(&spans, "noc-sim", "Network::new"));
    m.insert("noc-sim.ff_cycle_ratio", 1.0 - steps / cycles.max(1.0));
    m.insert(
        "noc-sim.va_block_ratio",
        ratio(e(|x| x.va_blocked), e(|x| x.va_grants + x.va_blocked)),
    );
    m.insert(
        "noc-sim.sa_conflict_ratio",
        ratio(e(|x| x.sa_conflicts), e(|x| x.flit_hops + x.sa_conflicts)),
    );
    m.insert("noc-closedloop.behavior_s", aggregated_s(&aggs, "noc-closedloop"));
    m.insert("noc-closedloop.transactions", sum(|o| o.transactions));
    m.insert("cmp-sim.behavior_s", aggregated_s(&aggs, "cmp-sim"));
    m.insert("cmp-sim.instructions", sum(|o| o.instructions));
    m.insert("cmp-sim.instructions_per_s", sum(|o| o.instructions) / cmp_s.max(1e-9));
    m.insert("noc-exp.point_wall_p50_s", median(&point_s));
    m.insert("noc-exp.point_wall_max_s", point_s.iter().copied().fold(0.0, f64::max));
    m.insert(
        "noc-exp.busy_ratio",
        point_s.iter().sum::<f64>()
            / (WORKERS as f64 * total_s(&spans, "noc-exp", "run_grid")).max(1e-9),
    );
    m.insert("noc-exp.tail_s", tail_s(&spans));
    m.insert("trace.overhead_ratio", t.wall_s / plain.wall_s - 1.0);
    (m, Some(tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_wrapper_leaves_batch_and_cmp_runs_unchanged() {
        for p in canaries() {
            let bare = point(&p, None).0;
            let tr = Tracer::default();
            let s = tr.open("noc-exp", "point", 0, None);
            let wrapped = point(&p, Some((&tr, s))).0;
            assert_eq!(bare, wrapped);
            let (_, aggs) = tr.snapshot();
            assert!(aggs.iter().any(|a| a.name == "quiescent"), "{aggs:?}");
            assert!(aggs.iter().any(|a| a.name == "generate"), "{aggs:?}");
        }
    }

    #[test]
    fn tail_is_the_spread_of_worker_last_ends() {
        let s = |name, parent, thread, start_ns, end_ns| Span {
            layer: "noc-exp",
            name,
            id: 0,
            parent,
            thread,
            start_ns,
            end_ns,
        };
        let spans = vec![
            s("run_grid", None, 0, 0, 100),
            s("point", Some(0), 1, 0, 50),
            s("point", Some(0), 2, 0, 30),
            s("point", Some(0), 1, 50, 90),
            s("point", Some(0), 2, 30, 60),
        ];
        assert!((tail_s(&spans) - 30e-9).abs() < 1e-15);
    }
}
