//! Golden bytes for every `noc-eval/*/v1` document and line: one fixed
//! small input per schema, its exact emitted text, and what the parser
//! reads back from that text.
//!
//! The round-trip tests next to each emitter compare the emitter with
//! the parser of the same build, so a change to a helper both sides
//! share moves them together and still passes. These literals do not
//! move: any change to emitted bytes or to what a parser reads from them
//! fails here.

use noc_eval::figures::{
    metrics_to_json, parse_metrics_json, parse_resilience_json, resilience_to_json, ParsedMetrics,
    ParsedResilience, ResilienceCurve, ResilienceFigure, SimSpeedReport, SpeedBaseline, SpeedEntry,
};
use noc_eval::serve::{
    parse_request, parse_response, HealthSnapshot, PointRequest, ServeOutcome, ServeRequest,
    ServeResponse, ServeResult, SweepRequest,
};
use noc_eval::{analytic_to_json, parse_analytic_json, AnalyticPoint, AnalyticStudy};
use noc_fault::ResiliencePoint;
use noc_sim::config::{NetConfig, TopologyKind};
use noc_sim::{ChannelMetrics, MetricsSnapshot, RouterMetrics};
use noc_stats::{OnlineStats, Ratio, TimeSeries};
use noc_traffic::PatternKind;

fn sim_speed_report() -> SimSpeedReport {
    SimSpeedReport {
        threads: 2,
        entries: vec![
            SpeedEntry {
                name: "openloop_mesh8".into(),
                cycles: 7_025,
                wall_s: 0.1763,
                cycles_per_sec: 39_858.0,
            },
            SpeedEntry {
                name: "probe".into(),
                cycles: 1_000,
                wall_s: 0.5,
                cycles_per_sec: 2_000.0,
            },
        ],
    }
}

fn metrics_snapshot() -> MetricsSnapshot {
    let series = |pushes: &[(u64, f64)]| {
        let mut s = TimeSeries::new(4);
        for &(c, w) in pushes {
            s.push(c, w);
        }
        s
    };
    let stats = |xs: &[f64]| {
        let mut s = OnlineStats::new();
        for &x in xs {
            s.push(x);
        }
        s
    };
    MetricsSnapshot {
        bin_width: 4,
        cycles: 8,
        channels: vec![
            ChannelMetrics {
                src: 0,
                port: 1,
                dst: 1,
                total: 3,
                flits: series(&[(0, 1.0), (5, 2.0)]),
            },
            ChannelMetrics { src: 1, port: 3, dst: 0, total: 0, flits: series(&[]) },
        ],
        routers: vec![
            RouterMetrics {
                id: 0,
                occupancy: stats(&[0.0, 1.0, 2.0]),
                credit_stalls: 2,
                sa_conflicts: 1,
                va_blocked: 0,
            },
            RouterMetrics {
                id: 1,
                occupancy: stats(&[]),
                credit_stalls: 0,
                sa_conflicts: 0,
                va_blocked: 5,
            },
        ],
        occupancy: series(&[]),
        injected: series(&[]),
        credit_stalls: series(&[]),
        sa_conflicts: series(&[]),
        flits_injected: 3,
        link_flits: 3,
    }
}

fn analytic_study() -> AnalyticStudy {
    AnalyticStudy {
        latency_cap: 300.0,
        points: vec![
            AnalyticPoint {
                label: "mesh4/uniform".into(),
                certified: true,
                ideal: 1.0,
                predicted: 0.79,
                measured_lo: 0.75,
                measured_hi: 0.8125,
                rel_err: 0.0125,
            },
            AnalyticPoint {
                label: "torus4/tornado".into(),
                certified: false,
                ideal: 0.5,
                predicted: 0.275,
                measured_lo: 0.25,
                measured_hi: 0.3,
                rel_err: 0.1,
            },
        ],
        r: Some(0.987654321),
        max_rel_err: 0.1,
        mean_rel_err: 0.05625,
    }
}

fn resilience_point(mtbf: u64, num: u64, den: u64) -> ResiliencePoint {
    ResiliencePoint {
        mtbf,
        mttr: 100,
        availability: 0.875,
        delivered: Ratio::new(num, den),
        retransmissions: 4,
        abandoned: 0,
        link_replays: 2,
        replay_drops: 1,
        epochs: 6,
        recovery_cycles: 250,
        avg_latency: 31.5,
        digest: 0xdead_beef_0123_4567,
        cycles: 12_000,
    }
}

fn resilience_figure() -> ResilienceFigure {
    ResilienceFigure {
        curves: vec![
            ResilienceCurve {
                mode: "e2e".into(),
                points: vec![resilience_point(1_000, 40, 40), resilience_point(2_000, 41, 41)],
                failed_points: 0,
            },
            ResilienceCurve {
                mode: "link".into(),
                points: vec![resilience_point(1_000, 37, 40)],
                failed_points: 1,
            },
        ],
        axis: vec![(1_000, 100), (2_000, 100)],
    }
}

fn point_request() -> PointRequest {
    PointRequest {
        batch: "g\"1".into(),
        net: NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 }).with_seed(42),
        pattern: PatternKind::Hotspot { node: 5, frac: 0.25 },
        packet_size: 1,
        load: 0.1 + 0.2,
        warmup: 1_000,
        measure: 3_000,
        drain_max: 20_000,
        budget: Some(200_000),
        allow_degraded: true,
        analytic_admission: false,
    }
}

fn sweep_request() -> SweepRequest {
    SweepRequest {
        batch: "sw".into(),
        net: NetConfig::baseline()
            .with_topology(TopologyKind::FoldedTorus2D { k: 4 })
            .with_seed(99),
        patterns: vec![PatternKind::Uniform, PatternKind::Transpose],
        loads: vec![0.05, 0.1],
        seeds: 2,
        packet_size: 1,
        warmup: 500,
        measure: 1_000,
        drain_max: 10_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: true,
        max_attempts: Some(2),
        deadline_ms: Some(60_000),
    }
}

fn outcomes() -> Vec<ServeOutcome> {
    vec![
        ServeOutcome::Ok {
            avg_latency: 12.345678901234567,
            throughput: 0.30000000000000004,
            stable: true,
            measured: 123,
            cycles: 9_007_199_254_740_993,
        },
        ServeOutcome::Degraded {
            predicted_latency: Some(17.25),
            predicted_saturation: 0.3125,
            stable: true,
        },
        ServeOutcome::Degraded {
            predicted_latency: None,
            predicted_saturation: 0.5,
            stable: false,
        },
        ServeOutcome::Timeout { budget: 100_000, wall: true },
        ServeOutcome::Shed { reason: "queue \"full\"\n\tcapacity=2\\node".into() },
        ServeOutcome::Panicked { message: "index out of bounds: \u{1}".into() },
        ServeOutcome::Invalid { reason: "vc_buf: must be >= 1 flit".into() },
    ]
}

fn health() -> HealthSnapshot {
    HealthSnapshot {
        queue_depth: 3,
        queue_capacity: 256,
        workers: 4,
        completed: 100,
        cache_hits: 20,
        shed: 2,
        degraded: 1,
        retries: 5,
        timeouts: 1,
        panics: 1,
        wal_records: 99,
        clients: 3,
        busy: 1,
        draining: true,
    }
}

fn result(point: u64, outcome: ServeOutcome) -> ServeResult {
    ServeResult {
        batch: "b1".into(),
        point,
        key: "00ff:0001".into(),
        cached: point % 2 == 1,
        attempts: 1,
        outcome,
    }
}

const SIM_SPEED: &str = r#"{
  "schema": "noc-eval/sim-speed/v1",
  "threads": 2,
  "entries": [
    {"name": "openloop_mesh8", "cycles": 7025, "wall_s": 0.1763, "cycles_per_sec": 39858, "baseline_cycles_per_sec": 27400, "speedup_vs_baseline": 1.455},
    {"name": "probe", "cycles": 1000, "wall_s": 0.5000, "cycles_per_sec": 2000, "baseline_cycles_per_sec": null, "speedup_vs_baseline": null}
  ]
}
"#;

const METRICS: &str = r#"{
  "schema": "noc-eval/metrics/v1",
  "bin_width": 4,
  "cycles": 8,
  "flits_injected": 3,
  "link_flits": 3,
  "channels": [
    {"src": 0, "port": 1, "dst": 1, "total": 3, "peak_rate": 0.5000, "peak_at": 4, "rates": [0.2500, 0.5000]},
    {"src": 1, "port": 3, "dst": 0, "total": 0, "peak_rate": 0.0000, "peak_at": 0, "rates": []}
  ],
  "routers": [
    {"id": 0, "mean_occupancy": 1.0000, "max_occupancy": 2.0, "credit_stalls": 2, "sa_conflicts": 1, "va_blocked": 0},
    {"id": 1, "mean_occupancy": 0.0000, "max_occupancy": 0.0, "credit_stalls": 0, "sa_conflicts": 0, "va_blocked": 5}
  ]
}
"#;

const ANALYTIC: &str = r#"{
  "schema": "noc-eval/analytic/v1",
  "latency_cap": 300,
  "r": 0.987654,
  "max_rel_err": 0.100000,
  "mean_rel_err": 0.056250,
  "points": [
    {"label": "mesh4/uniform", "certified": true, "ideal": 1.000000, "predicted": 0.790000, "measured_lo": 0.750000, "measured_hi": 0.812500, "rel_err": 0.012500},
    {"label": "torus4/tornado", "certified": false, "ideal": 0.500000, "predicted": 0.275000, "measured_lo": 0.250000, "measured_hi": 0.300000, "rel_err": 0.100000}
  ]
}
"#;

const RESILIENCE: &str = r#"{
  "schema": "noc-eval/resilience/v1",
  "axis_points": 2,
  "curves": [
    {"mode": "e2e", "failed_points": 0, "points": [
      {"mtbf": 1000, "mttr": 100, "availability": 0.875000, "delivered_num": 40, "delivered_den": 40, "retransmissions": 4, "link_replays": 2, "replay_drops": 1, "epochs": 6, "recovery_cycles": 250, "avg_latency": 31.5000, "digest": 16045690981116495207, "cycles": 12000},
      {"mtbf": 2000, "mttr": 100, "availability": 0.875000, "delivered_num": 41, "delivered_den": 41, "retransmissions": 4, "link_replays": 2, "replay_drops": 1, "epochs": 6, "recovery_cycles": 250, "avg_latency": 31.5000, "digest": 16045690981116495207, "cycles": 12000}
    ]},
    {"mode": "link", "failed_points": 1, "points": [
      {"mtbf": 1000, "mttr": 100, "availability": 0.875000, "delivered_num": 37, "delivered_den": 40, "retransmissions": 4, "link_replays": 2, "replay_drops": 1, "epochs": 6, "recovery_cycles": 250, "avg_latency": 31.5000, "digest": 16045690981116495207, "cycles": 12000}
    ]}
  ]
}
"#;

const POINT: &str = r#"{"schema": "noc-eval/serve/v1", "req": "point", "batch": "g\"1", "topology": "mesh4", "routing": "dor", "arb": "rr", "vcs": 2, "vc_buf": 4, "router_delay": 1, "pattern": "hotspot:5:0.25", "packet_size": 1, "load": 0.30000000000000004, "warmup": 1000, "measure": 3000, "drain_max": 20000, "seed": 42, "budget": 200000, "allow_degraded": true, "analytic_admission": false}"#;

const POINT_KEY: &str = "6c9f83113aea0da1:000000000000002a";

const SWEEP: &str = r#"{"schema": "noc-eval/serve/v1", "req": "sweep", "batch": "sw", "topology": "ftorus4", "routing": "dor", "arb": "rr", "vcs": 2, "vc_buf": 4, "router_delay": 1, "patterns": ["uniform", "transpose"], "loads": [0.05, 0.1], "seeds": 2, "packet_size": 1, "warmup": 500, "measure": 1000, "drain_max": 10000, "seed": 99, "allow_degraded": false, "analytic_admission": true, "max_attempts": 2, "deadline_ms": 60000}"#;

const CONTROL: [&str; 3] = [
    r#"{"schema": "noc-eval/serve/v1", "req": "run", "batch": "b1", "max_attempts": 5, "deadline_ms": 250}"#,
    r#"{"schema": "noc-eval/serve/v1", "req": "cancel", "batch": "b\\2"}"#,
    r#"{"schema": "noc-eval/serve/v1", "req": "health"}"#,
];

const RESULTS: [&str; 7] = [
    r#"{"schema": "noc-eval/serve/v1", "resp": "result", "batch": "b1", "point": 0, "key": "00ff:0001", "cached": false, "attempts": 1, "outcome": "ok", "avg_latency": 12.345678901234567, "throughput": 0.30000000000000004, "stable": true, "measured": 123, "cycles": 9007199254740993}"#,
    r#"{"schema": "noc-eval/serve/v1", "resp": "result", "batch": "b1", "point": 1, "key": "00ff:0001", "cached": true, "attempts": 1, "outcome": "degraded", "degraded": true, "predicted_latency": 17.25, "predicted_saturation": 0.3125, "stable": true}"#,
    r#"{"schema": "noc-eval/serve/v1", "resp": "result", "batch": "b1", "point": 2, "key": "00ff:0001", "cached": false, "attempts": 1, "outcome": "degraded", "degraded": true, "predicted_latency": null, "predicted_saturation": 0.5, "stable": false}"#,
    r#"{"schema": "noc-eval/serve/v1", "resp": "result", "batch": "b1", "point": 3, "key": "00ff:0001", "cached": true, "attempts": 1, "outcome": "timeout", "budget": 100000, "wall": true}"#,
    r#"{"schema": "noc-eval/serve/v1", "resp": "result", "batch": "b1", "point": 4, "key": "00ff:0001", "cached": false, "attempts": 1, "outcome": "shed", "reason": "queue \"full\"\n\tcapacity=2\\node"}"#,
    r#"{"schema": "noc-eval/serve/v1", "resp": "result", "batch": "b1", "point": 5, "key": "00ff:0001", "cached": true, "attempts": 1, "outcome": "panicked", "message": "index out of bounds: \u0001"}"#,
    r#"{"schema": "noc-eval/serve/v1", "resp": "result", "batch": "b1", "point": 6, "key": "00ff:0001", "cached": false, "attempts": 1, "outcome": "invalid", "reason": "vc_buf: must be >= 1 flit"}"#,
];

const HEALTH: &str = r#"{"schema": "noc-eval/serve/v1", "resp": "health", "queue_depth": 3, "queue_capacity": 256, "workers": 4, "completed": 100, "cache_hits": 20, "shed": 2, "degraded": 1, "retries": 5, "timeouts": 1, "panics": 1, "wal_records": 99, "clients": 3, "busy": 1, "draining": true}"#;

const STATUS: &str = r#"{"schema": "noc-eval/serve/v1", "resp": "status", "queue_depth": 3, "queue_capacity": 256, "workers": 4, "completed": 100, "cache_hits": 20, "shed": 2, "degraded": 1, "retries": 5, "timeouts": 1, "panics": 1, "wal_records": 99, "clients": 3, "busy": 1, "draining": true}"#;

/// Load a sim-speed document through the public file path.
fn load_sim_speed(text: &str) -> SpeedBaseline {
    let path = std::env::temp_dir().join(format!("noc_eval_golden_{}.json", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let baseline = SpeedBaseline::load(path.to_str().unwrap());
    let _ = std::fs::remove_file(&path);
    baseline
}

fn entries(baseline: SpeedBaseline) -> Vec<(String, f64)> {
    match baseline {
        SpeedBaseline::File { entries, .. } => entries,
        other => panic!("expected a file baseline, got {other:?}"),
    }
}

#[test]
fn sim_speed_document_is_pinned() {
    assert_eq!(sim_speed_report().to_json(), SIM_SPEED);
    assert_eq!(
        entries(load_sim_speed(SIM_SPEED)),
        vec![("openloop_mesh8".to_string(), 39_858.0), ("probe".to_string(), 2_000.0)]
    );
}

#[test]
fn committed_sim_speed_baseline_parses_to_pinned_entries() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_speed.json");
    let want = [
        ("openloop_mesh8", 39_858.0),
        ("openloop_mesh16", 16_861.0),
        ("batch_m8", 31_163.0),
        ("openloop_mesh32", 146_444.0),
        ("openloop_torus32", 173_284.0),
    ];
    let want: Vec<(String, f64)> = want.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    assert_eq!(entries(SpeedBaseline::load(path)), want);
}

#[test]
fn metrics_document_is_pinned() {
    assert_eq!(metrics_to_json(&metrics_snapshot()), METRICS);
    assert_eq!(
        parse_metrics_json(METRICS).unwrap(),
        ParsedMetrics {
            bin_width: 4,
            cycles: 8,
            flits_injected: 3,
            link_flits: 3,
            channels: vec![(0, 1, 1, 3), (1, 3, 0, 0)],
        }
    );
}

#[test]
fn analytic_document_is_pinned() {
    assert_eq!(analytic_to_json(&analytic_study()), ANALYTIC);
    let parsed = parse_analytic_json(ANALYTIC).unwrap();
    assert_eq!(parsed.latency_cap, 300.0);
    assert_eq!(parsed.r, Some(0.987654));
    assert_eq!(parsed.max_rel_err, 0.1);
    assert_eq!(parsed.mean_rel_err, 0.05625);
    let points: Vec<_> = parsed
        .points
        .iter()
        .map(|p| {
            (
                p.label.as_str(),
                p.certified,
                [p.ideal, p.predicted, p.measured_lo, p.measured_hi, p.rel_err],
            )
        })
        .collect();
    assert_eq!(
        points,
        vec![
            ("mesh4/uniform", true, [1.0, 0.79, 0.75, 0.8125, 0.0125]),
            ("torus4/tornado", false, [0.5, 0.275, 0.25, 0.3, 0.1]),
        ]
    );
}

#[test]
fn resilience_document_is_pinned() {
    assert_eq!(resilience_to_json(&resilience_figure()), RESILIENCE);
    assert_eq!(
        parse_resilience_json(RESILIENCE).unwrap(),
        ParsedResilience {
            points: vec![
                ("e2e".to_string(), 1_000, 0.875, 1.0, 250),
                ("e2e".to_string(), 2_000, 0.875, 1.0, 250),
                ("link".to_string(), 1_000, 0.875, 37.0 / 40.0, 250),
            ],
        }
    );
}

#[test]
fn serve_requests_are_pinned() {
    let control = [
        ServeRequest::Run { batch: "b1".into(), max_attempts: Some(5), deadline_ms: Some(250) },
        ServeRequest::Cancel { batch: "b\\2".into() },
        ServeRequest::Health,
    ];
    let requests = [point_request().to_json(), sweep_request().to_json()]
        .into_iter()
        .chain(control.iter().map(ServeRequest::to_json));
    let golden = [POINT, SWEEP].into_iter().chain(CONTROL);
    for (line, want) in requests.zip(golden) {
        assert_eq!(line, want);
        assert_eq!(parse_request(want).unwrap().to_json(), want, "re-emit of the parse");
    }
}

#[test]
fn point_key_is_pinned() {
    assert_eq!(point_request().key(), POINT_KEY);
    let ServeRequest::Point(p) = parse_request(POINT).unwrap() else { panic!("point") };
    assert_eq!(p.key(), POINT_KEY);
}

#[test]
fn serve_responses_are_pinned() {
    for ((i, outcome), want) in outcomes().into_iter().enumerate().zip(RESULTS) {
        let r = result(i as u64, outcome);
        assert_eq!(r.to_json(), want);
        assert_eq!(parse_response(want).unwrap(), ServeResponse::Result(r));
    }
    for (resp, want) in
        [(ServeResponse::Health(health()), HEALTH), (ServeResponse::Status(health()), STATUS)]
    {
        assert_eq!(resp.to_json(), want);
        assert_eq!(parse_response(want).unwrap(), resp);
    }
}
