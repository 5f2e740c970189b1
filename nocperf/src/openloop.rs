//! `openloop-busy`: one long open-loop point on a 16×16 mesh at 0.8× the
//! analytic saturation load, so every router is active every cycle and
//! engine allocation and traversal do most of the work. Each point runs
//! single-threaded; two copies run at once.

use std::time::Instant;

use noc_openloop::{OpenLoopBehavior, OpenLoopConfig};
use noc_sim::{NetConfig, Network, NodeBehavior, TopologyKind};
use noc_traffic::{Bernoulli, PatternKind, SizeKind};

use crate::host;
use crate::report::{layer_defaults, median, percentile, Metrics, Tally};
use crate::sim::{ns_since, step, traced, At, Engine, EngineOut};
use crate::trace::{aggregated_s, self_s, total_s, Peek, Timed, Tracer};
use crate::Limit;

/// Offered load: about 0.8× the `noc-analytic` predicted saturation of
/// uniform DOR traffic on a 16×16 mesh (0.196 flits/cycle/node). Fixed,
/// not recomputed at run time.
pub const LOAD: f64 = 0.16;

/// Cycles per latency sample: the host time to advance the point by
/// this many cycles is what a user watching the point progress waits.
const SLICE: u64 = 50;

/// The point, from the workload seed.
pub fn config(seed: u64) -> OpenLoopConfig {
    OpenLoopConfig {
        net: NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k: 16 })
            .with_seed(noc_exp::derive_seed(seed, 0)),
        pattern: PatternKind::Uniform,
        size: SizeKind::Fixed(1),
        load: LOAD,
        warmup: 2_000,
        measure: 10_000,
        drain_max: 20_000,
        percentiles: false,
    }
}

/// A shortened, seed-independent copy of the point: the engine is
/// compared with its reference twin on it, and its outputs are pinned.
pub fn canary() -> OpenLoopConfig {
    OpenLoopConfig {
        warmup: 300,
        measure: 1_200,
        net: config(0).net.with_seed(0x5eed_ca11),
        ..config(0)
    }
}

/// `EngineOut::stats` of [`canary`], recorded when the benchmark was
/// defined. A change that alters it changed simulated behaviour.
pub const CANARY_STATS: &str = "digest=87bd8152d5eb73a5 flits_injected=64020 flits_ejected=62947 \
     packets_injected=64020 packets_delivered=62947 self_delivered=0 flits_dropped=0";

/// One open-loop measurement's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOut {
    /// Engine outputs and counters.
    pub engine: EngineOut,
    /// Mean marked-packet latency (cycles).
    pub avg_latency: f64,
    /// Accepted throughput (flits/cycle/node).
    pub throughput: f64,
    /// Marked packets measured.
    pub measured: u64,
    /// All marked packets delivered before the drain limit.
    pub drained: bool,
    /// Packets generated.
    pub generated: u64,
}

/// Step the measurement window, timing each [`SLICE`] of cycles.
fn window<B: NodeBehavior>(
    net: &mut Network,
    b: &mut B,
    end: u64,
    engine: Engine,
    slices: &mut Vec<f64>,
) -> u64 {
    let mut steps = 0;
    while net.cycle() < end {
        let t = Instant::now();
        // an open-loop source is never quiescent, so no step skips cycles
        // and the slice ends exactly on its boundary
        let stop = (net.cycle() + SLICE).min(end);
        while net.cycle() < stop {
            step(net, b, engine);
            steps += 1;
        }
        slices.push(ns_since(t) as f64 * 1e-6);
    }
    steps
}

/// Step until every marked packet is delivered or the drain limit.
fn drain_marked<B: NodeBehavior + Peek<OpenLoopBehavior>>(
    net: &mut Network,
    b: &mut B,
    end: u64,
    engine: Engine,
) -> u64 {
    let mut steps = 0;
    while <B as Peek<OpenLoopBehavior>>::peek(b).marked_outstanding > 0 && net.cycle() < end {
        step(net, b, engine);
        steps += 1;
    }
    steps
}

/// Run one measurement exactly as `noc_openloop::measure` does.
pub fn point(cfg: &OpenLoopConfig, engine: Engine, at: At<'_>, slices: &mut Vec<f64>) -> PointOut {
    let mut net = traced(at, "noc-sim", "Network::new", || Network::new(cfg.net.clone()))
        .expect("benchmark configs are valid");
    let nodes = net.num_nodes();
    let k = net.topo().radix(0);
    let p = cfg.load / cfg.size.mean();
    let mut b = traced(at, "noc-openloop", "OpenLoopBehavior::new", || {
        OpenLoopBehavior::new(
            nodes,
            cfg.pattern.build(nodes, k),
            cfg.size.build(),
            || Box::new(Bernoulli { p }),
            cfg.net.seed,
            cfg.warmup,
            cfg.warmup + cfg.measure,
        )
    });
    let end = cfg.warmup + cfg.measure;
    let drain_end = end + cfg.drain_max;
    let steps = match at {
        None => {
            window(&mut net, &mut b, end, engine, slices)
                + drain_marked(&mut net, &mut b, drain_end, engine)
        }
        Some((tr, parent)) => {
            let mut w = Timed::new(&mut b);
            let s = tr.open("noc-sim", "run", 0, Some(parent));
            let mut steps = window(&mut net, &mut w, end, engine, slices);
            tr.close(s);
            w.flush(tr, "noc-openloop", s);
            let s = tr.open("noc-sim", "drain", 0, Some(parent));
            steps += drain_marked(&mut net, &mut w, drain_end, engine);
            tr.close(s);
            w.flush(tr, "noc-openloop", s);
            steps
        }
    };
    PointOut {
        engine: EngineOut::of(&net, steps),
        avg_latency: b.latency.mean(),
        throughput: b.window_flits as f64 / cfg.measure as f64 / nodes as f64,
        measured: b.latency.count(),
        drained: b.marked_outstanding == 0,
        generated: b.generated,
    }
}

/// Check a measurement against the library's own `measure` of the same
/// config: the benchmark's stepping loop must be the library's.
pub fn check_against_library(cfg: &OpenLoopConfig, out: &PointOut, tally: &mut Tally) {
    let r = noc_openloop::measure(cfg).expect("benchmark configs are valid");
    let lib =
        (r.avg_latency.to_bits(), r.throughput.to_bits(), r.measured_packets, r.cycles, r.drained);
    let ours = (
        out.avg_latency.to_bits(),
        out.throughput.to_bits(),
        out.measured,
        out.engine.cycles,
        out.drained,
    );
    tally.check(lib == ours, || format!("openloop: ours {ours:?} != measure {lib:?}"));
}

/// Run the canary on both engines, interleaved, `rounds` times each;
/// check both against the pinned outputs and return the reference
/// engine's best time over the fast engine's best time.
pub fn speedup_vs_reference(rounds: usize, tally: &mut Tally) -> f64 {
    let cfg = canary();
    let (mut fast, mut reference) = (u64::MAX, u64::MAX);
    for _ in 0..rounds {
        for engine in [Engine::Fast, Engine::Reference] {
            let t = Instant::now();
            let out = point(&cfg, engine, None, &mut Vec::new());
            let ns = ns_since(t);
            match engine {
                Engine::Fast => fast = fast.min(ns),
                Engine::Reference => reference = reference.min(ns),
            }
            tally.check(out.engine.stats == CANARY_STATS, || {
                format!(
                    "openloop canary on {engine:?}: {} != pinned {CANARY_STATS}",
                    out.engine.stats
                )
            });
        }
    }
    reference as f64 / fast.max(1) as f64
}

/// Copies of the point run at once, one a thread. Each copy's time
/// depends on the state of the core it lands on; running one on each of
/// two cores makes every repetition see both, which steadies the
/// run-to-run figures on a shared host.
const COPIES: u64 = 2;

/// Outputs of a sequence of repetitions of the point.
struct Reps {
    first: Option<PointOut>,
    /// Points run (copies count one each).
    count: u64,
    /// Wall time of the repetitions (all copies).
    wall_s: f64,
    /// Slice times (ms), each the mean over the copies.
    slices: Vec<f64>,
}

/// Repeat the point within `limit`, [`COPIES`] at a time, checking
/// every copy against the first (same inputs, so identical outputs).
fn reps(cfg: &OpenLoopConfig, limit: Limit, tracer: Option<&Tracer>, tally: &mut Tally) -> Reps {
    let mut r = Reps { first: None, count: 0, wall_s: 0.0, slices: Vec::new() };
    let t0 = Instant::now();
    while !limit.done(r.count, t0, r.slices.len()) {
        let t = Instant::now();
        let outs: Vec<(PointOut, Vec<f64>)> = std::thread::scope(|s| {
            let copies: Vec<_> = (0..COPIES)
                .map(|c| {
                    let id = r.count + c;
                    s.spawn(move || {
                        let mut slices = Vec::new();
                        let out = match tracer {
                            None => point(cfg, Engine::Fast, None, &mut slices),
                            Some(tr) => tr.span("nocperf", "point", id, None, |s| {
                                point(cfg, Engine::Fast, Some((tr, s)), &mut slices)
                            }),
                        };
                        (out, slices)
                    })
                })
                .collect();
            copies.into_iter().map(|h| h.join().expect("point thread panicked")).collect()
        });
        r.wall_s += ns_since(t) as f64 * 1e-9;
        // the copies run the same inputs, so slice k is the same work in
        // each; a sample is its mean over the copies, since the cores
        // they run on can differ in speed for seconds at a time
        let n = outs.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
        r.slices
            .extend((0..n).map(|k| outs.iter().map(|(_, s)| s[k]).sum::<f64>() / COPIES as f64));
        for (out, _) in outs {
            r.count += 1;
            match &r.first {
                None => r.first = Some(out),
                Some(first) => tally.check(&out == first, || {
                    format!("openloop: point {} differs from the first", r.count - 1)
                }),
            }
        }
    }
    r
}

/// Time `n` constructions of the point's network and source, in seconds.
fn setup_times(cfg: &OpenLoopConfig, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let net = Network::new(cfg.net.clone()).expect("benchmark configs are valid");
            let nodes = net.num_nodes();
            let b = OpenLoopBehavior::new(
                nodes,
                cfg.pattern.build(nodes, net.topo().radix(0)),
                cfg.size.build(),
                || Box::new(Bernoulli { p: cfg.load / cfg.size.mean() }),
                cfg.net.seed,
                cfg.warmup,
                cfg.warmup + cfg.measure,
            );
            std::hint::black_box((net, b));
            ns_since(t) as f64 * 1e-9
        })
        .collect()
}

/// The workload. Untraced, it returns the end-to-end metrics; traced,
/// the per-layer metrics and the tracer holding the spans.
pub fn run(seed: u64, seconds: f64, traced: bool, tally: &mut Tally) -> (Metrics, Option<Tracer>) {
    let cfg = config(seed);
    let mut m = Metrics::new();
    if !traced {
        let ((setups, r), speed) = host::calibrated(|| {
            // one at a time, so the median does not depend on how often
            // two constructions happen to overlap
            let setups = setup_times(&cfg, 101);
            (setups, reps(&cfg, Limit::Time { seconds, min_samples: 1000 }, None, tally))
        });
        if let Some(first) = &r.first {
            check_against_library(&cfg, first, tally);
        }
        speedup_vs_reference(1, tally);
        m.insert("setup_s", median(&setups));
        m.insert("points_per_s", r.count as f64 / r.wall_s);
        latency_metrics(&mut m, &r.slices, tally);
        speed.normalise(&mut m);
        return (m, None);
    }
    let plain = reps(&cfg, Limit::Time { seconds: seconds / 2.0, min_samples: 0 }, None, tally);
    let tracer = Tracer::default();
    let t = reps(&cfg, Limit::Units(plain.count), Some(&tracer), tally);
    tally.check(plain.first == t.first, || "openloop: traced run differs from untraced".into());
    if let Some(first) = &t.first {
        check_against_library(&cfg, first, tally);
    }
    let mut m = layer_defaults();
    let (spans, aggs) = tracer.snapshot();
    let e = t.first.as_ref().map(|o| o.engine.clone()).unwrap_or_default();
    let n = t.count as f64;
    let engine_s = self_s(&spans, &aggs, "noc-sim", &["run", "drain"]);
    let stepped_s = total_s(&spans, "noc-sim", "run") + total_s(&spans, "noc-sim", "drain");
    let behavior_s = aggregated_s(&aggs, "noc-openloop");
    let packets = t.first.as_ref().map_or(0, |o| o.generated) as f64 * n;
    m.insert("noc-sim.self_s", engine_s);
    m.insert("noc-sim.flit_hops", e.flit_hops as f64 * n);
    m.insert("noc-sim.ns_per_flit_hop", engine_s * 1e9 / (e.flit_hops as f64 * n).max(1.0));
    m.insert("noc-sim.cycles", e.cycles as f64 * n);
    m.insert("noc-sim.cycles_per_s", e.cycles as f64 * n / stepped_s.max(1e-9));
    m.insert("noc-sim.setup_s", total_s(&spans, "noc-sim", "Network::new"));
    m.insert("noc-sim.ff_cycle_ratio", 1.0 - e.steps as f64 / e.cycles.max(1) as f64);
    m.insert("noc-sim.va_block_ratio", ratio(e.va_blocked, e.va_grants + e.va_blocked));
    m.insert("noc-sim.sa_conflict_ratio", ratio(e.sa_conflicts, e.flit_hops + e.sa_conflicts));
    m.insert("noc-sim.speedup_vs_reference", speedup_vs_reference(3, tally));
    m.insert("noc-openloop.behavior_s", behavior_s);
    m.insert("noc-openloop.packets", packets);
    m.insert("noc-openloop.ns_per_packet", behavior_s * 1e9 / packets.max(1.0));
    m.insert("trace.overhead_ratio", t.wall_s / plain.wall_s - 1.0);
    let point_s = total_s(&spans, "nocperf", "point");
    eprintln!(
        "openloop-busy: engine self {engine_s:.3} s + behaviour {behavior_s:.3} s + set-up {:.3} s \
         of {point_s:.3} s traced point wall ({:.2}% unaccounted)",
        m["noc-sim.setup_s"],
        100.0 * (1.0 - (engine_s + behavior_s + m["noc-sim.setup_s"]) / point_s.max(1e-9))
    );
    (m, Some(tracer))
}

/// `part / whole`, 0 for an empty whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// p50 and p99 of latency samples (ms); a refused percentile is a failure.
pub fn latency_metrics(m: &mut Metrics, samples: &[f64], tally: &mut Tally) {
    for (name, q) in [("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)] {
        let v = percentile(samples, q);
        tally.check(v.is_some(), || format!("{name}: only {} samples", samples.len()));
        m.insert(name, v.unwrap_or(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(seed: u64) -> OpenLoopConfig {
        OpenLoopConfig { warmup: 200, measure: 400, ..config(seed) }
    }

    #[test]
    fn timing_wrapper_leaves_the_run_unchanged() {
        let cfg = short(1);
        let bare = point(&cfg, Engine::Fast, None, &mut Vec::new());
        let tr = Tracer::default();
        let s = tr.open("nocperf", "point", 0, None);
        let wrapped = point(&cfg, Engine::Fast, Some((&tr, s)), &mut Vec::new());
        assert_eq!(bare, wrapped);
        let (_, aggs) = tr.snapshot();
        assert!(aggs.iter().any(|a| a.layer == "noc-openloop" && a.name == "generate"));
        assert!(aggs.iter().any(|a| a.layer == "noc-openloop" && a.name == "deliver"));
    }

    #[test]
    fn stepping_loop_matches_the_library_and_the_reference_engine() {
        let cfg = short(1);
        let mut tally = Tally::default();
        let fast = point(&cfg, Engine::Fast, None, &mut Vec::new());
        check_against_library(&cfg, &fast, &mut tally);
        let reference = point(&cfg, Engine::Reference, None, &mut Vec::new());
        assert_eq!(fast, reference);
        speedup_vs_reference(1, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.problems);
    }
}
