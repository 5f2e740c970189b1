//! `serve-mixed`: `noc_serve::socket::serve` in-process on a temporary
//! Unix socket, driven by two closed-loop clients. Points are cheap
//! mesh4/mesh8 open-loop points from below to past saturation; about a
//! third repeat journaled or earlier keys and are answered from the
//! cache, and mesh8 points opt into analytic admission. The read path
//! (socket, parse/emit, cache) and the write path (evaluation, WAL
//! append) share the time.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use noc_analytic::{AnalyticModel, Confidence};
use noc_eval::serve::{parse_response, PointRequest, ServeOutcome, ServeRequest, ServeResponse};
use noc_exp::derive_seed;
use noc_serve::{ServeConfig, Service};
use noc_sim::{NetConfig, TopologyKind};
use noc_traffic::{PatternKind, SizeKind};

use crate::host;
use crate::openloop::latency_metrics;
use crate::report::{layer_defaults, median, Metrics, Tally};
use crate::sim::{fnv, ns_since};
use crate::trace::Tracer;
use crate::Limit;

/// Simulator workers of the service.
const WORKERS: usize = 2;
/// Concurrent client connections.
const CLIENTS: u64 = 2;
/// Points a client sends before each `run`.
const BATCH: u64 = 6;
/// Points journaled by the untimed first life.
const POOL: u64 = 24;
/// Service set-ups per life; the median is reported.
const SETUPS: usize = 61;
/// The service's default cycle budget, used for the direct re-runs.
const BUDGET: u64 = 50_000_000;

/// The `n`-th distinct point of the seed's stream: mesh4 (two in three)
/// or mesh8 (one in three, with analytic admission), at a fixed load
/// from below to past saturation.
pub fn fresh_point(seed: u64, n: u64) -> PointRequest {
    let r = derive_seed(seed, n);
    let k = if r.is_multiple_of(3) { 8 } else { 4 };
    let loads = if k == 4 { [0.1, 0.2, 0.3, 0.4, 0.5] } else { [0.1, 0.2, 0.3, 0.45, 0.6] };
    PointRequest {
        batch: String::new(),
        net: NetConfig::baseline()
            .with_topology(TopologyKind::Mesh2D { k })
            .with_seed(derive_seed(r, 1)),
        pattern: PatternKind::Uniform,
        packet_size: 1,
        load: loads[(r >> 8) as usize % loads.len()],
        warmup: 200,
        measure: if k == 4 { 1_000 } else { 600 },
        drain_max: 2_000,
        budget: None,
        allow_degraded: false,
        analytic_admission: k == 8,
    }
}

/// Journaled points: answered from the WAL the first life wrote.
fn pool_point(seed: u64, i: u64) -> PointRequest {
    fresh_point(seed, (1 << 40) + i)
}

/// Round `round` of client `client`: a third of the slots repeat a
/// journaled point or one of the client's points from earlier rounds;
/// the rest are new. `fresh` counts the client's new points so far.
pub fn round_points(seed: u64, client: u64, round: u64, fresh: &mut u64) -> Vec<PointRequest> {
    let earlier = *fresh;
    let own = |n: u64| fresh_point(seed, (client << 32) + n);
    (0..BATCH)
        .map(|slot| {
            let u = derive_seed(seed ^ 0x5e7e, (client << 40) + (round << 8) + slot);
            let mut p = if !u.is_multiple_of(3) {
                *fresh += 1;
                own(*fresh - 1)
            } else if (u >> 4).is_multiple_of(2) || earlier == 0 {
                pool_point(seed, (u >> 8) % POOL)
            } else {
                own((u >> 8) % earlier)
            };
            p.batch = format!("c{client}r{round}");
            p
        })
        .collect()
}

/// One answered point, as a client saw it. The point itself is
/// regenerated from (client, round, slot) when checked, so a run's
/// memory does not grow with the points it sent.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Client that sent the point.
    pub client: u64,
    /// The client's round.
    pub round: u64,
    /// Position in the round's batch.
    pub slot: u64,
    /// Time from sending `run` to reading the result line.
    pub latency: Duration,
    /// When the result line was read.
    pub read_at: Instant,
    /// Answered from the cache.
    pub cached: bool,
    /// The outcome.
    pub outcome: ServeOutcome,
}

/// Match result lines to the points sent: a point without a result line
/// is a failed operation, as is a result line for no point sent.
pub fn account(
    sent: &[PointRequest],
    (client, round): (u64, u64),
    results: Vec<(u64, bool, ServeOutcome, Instant)>,
    run_at: Instant,
    tally: &mut Tally,
) -> Vec<Answer> {
    let mut slots: Vec<Option<Answer>> = vec![None; sent.len()];
    for (seq, cached, outcome, read_at) in results {
        let slot = slots.get_mut(seq as usize);
        let fresh = matches!(slot, Some(None));
        tally.check(fresh, || format!("serve: unexpected or duplicate result for point {seq}"));
        if let (true, Some(slot)) = (fresh, slot) {
            *slot = Some(Answer {
                client,
                round,
                slot: seq,
                latency: read_at.saturating_duration_since(run_at),
                read_at,
                cached,
                outcome,
            });
        }
    }
    let mut answers = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        tally.check(slot.is_some(), || {
            format!("serve: no result line for point {i} of {}", sent[i].batch)
        });
        answers.extend(slot);
    }
    answers
}

fn send(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")
}

/// One client's closed loop: send a batch, `run`, read until
/// `batch-done`, repeat. Stops after `rounds` rounds, or when `stop`
/// says so between rounds.
fn client(
    path: &Path,
    seed: u64,
    id: u64,
    rounds: Option<u64>,
    stop: &dyn Fn(usize) -> bool,
    answered: &AtomicUsize,
    tally: &mut Tally,
) -> (Vec<Answer>, u64) {
    let stream = match UnixStream::connect(path) {
        Ok(s) => s,
        Err(e) => {
            tally.check(false, || format!("serve: client {id} cannot connect: {e}"));
            return (Vec::new(), 0);
        }
    };
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("nonzero timeout");
    let mut w = stream.try_clone().expect("socket clone");
    let mut lines = BufReader::new(stream).lines();
    // a first exchange, so the accept loop's poll delay is not charged
    // to the first batch
    let ready = send(&mut w, &ServeRequest::Health.to_json()).is_ok() && lines.next().is_some();
    tally.check(ready, || format!("serve: client {id} got no health answer"));
    let (mut answers, mut fresh, mut round) = (Vec::new(), 0, 0);
    while rounds.map_or(!stop(answered.load(Ordering::SeqCst)), |n| round < n) {
        let sent = round_points(seed, id, round, &mut fresh);
        let batch = sent[0].batch.clone();
        let run = ServeRequest::Run { batch: batch.clone(), max_attempts: None, deadline_ms: None };
        let mut ok = sent.iter().all(|p| send(&mut w, &p.to_json()).is_ok());
        ok &= send(&mut w, &run.to_json()).and_then(|_| w.flush()).is_ok();
        let run_at = Instant::now();
        let mut results = Vec::new();
        // a closed or timed-out connection ends the client; the points
        // it did not answer count as failed below
        ok = ok
            && loop {
                let Some(Ok(line)) = lines.next() else { break false };
                match parse_response(&line) {
                    Ok(ServeResponse::Result(r)) if r.batch == batch => {
                        results.push((r.point, r.cached, r.outcome, Instant::now()))
                    }
                    Ok(ServeResponse::BatchDone { batch: b, .. }) if b == batch => break true,
                    other => tally.check(false, || format!("serve: unexpected response {other:?}")),
                }
            };
        let got = account(&sent, (id, round), results, run_at, tally);
        answered.fetch_add(got.len(), Ordering::SeqCst);
        answers.extend(got);
        round += 1;
        if !ok {
            break;
        }
    }
    (answers, round)
}

/// What one service life measured.
pub struct Life {
    answers: Vec<Answer>,
    rounds: Vec<u64>,
    setup_s: Vec<f64>,
    new_s: Vec<f64>,
    replayed: usize,
    served_s: f64,
    wal_records: u64,
    wal_bytes: u64,
}

fn service_cfg(wal: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        wal: Some(wal.to_path_buf()),
        max_clients: 4,
        ..ServeConfig::default()
    }
}

/// Journal the pool points (untimed), as an earlier life of the service.
fn prefill(seed: u64, wal: &Path) {
    let _ = std::fs::remove_file(wal);
    let svc = Service::new(service_cfg(wal)).expect("service starts");
    let mut sink = Vec::new();
    for i in 0..POOL {
        let mut p = pool_point(seed, i);
        p.batch = "prefill".into();
        svc.handle_line(&p.to_json(), &mut sink).expect("in-memory write");
    }
    let run = ServeRequest::Run { batch: "prefill".into(), max_attempts: None, deadline_ms: None };
    svc.handle_line(&run.to_json(), &mut sink).expect("in-memory write");
}

/// One life of the service, started [`SETUPS`] times from a copy of
/// the journal; the last start serves the clients. `rounds` fixes each
/// client's round count, else clients run until `limit` is met.
fn life(
    dir: &Path,
    seed: u64,
    limit: Limit,
    rounds: Option<&[u64]>,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Life {
    let prefilled = dir.join("prefill.wal");
    let wal = dir.join("life.wal");
    let sock = dir.join("s.sock");
    let mut life = Life {
        answers: Vec::new(),
        rounds: Vec::new(),
        setup_s: Vec::new(),
        new_s: Vec::new(),
        replayed: 0,
        served_s: 0.0,
        wal_records: 0,
        wal_bytes: 0,
    };
    for rep in 0..SETUPS {
        std::fs::copy(&prefilled, &wal).expect("copy journal");
        let term = AtomicBool::new(false);
        let t0 = Instant::now();
        let svc = Service::new(service_cfg(&wal)).expect("service starts");
        let new_at = Instant::now();
        if let Some(tr) = tracer {
            tr.record("noc-serve", "Service::new", rep as u64, None, t0, new_at);
        }
        std::thread::scope(|s| {
            let server = s.spawn(|| noc_serve::socket::serve(&svc, &sock, &term));
            // bound once a connection is accepted into the backlog
            let probe = loop {
                match UnixStream::connect(&sock) {
                    Ok(c) => break Some(c),
                    Err(_) if t0.elapsed() < Duration::from_secs(10) && !server.is_finished() => {
                        std::thread::yield_now()
                    }
                    Err(_) => break None,
                }
            };
            let ready = Instant::now();
            tally.check(probe.is_some(), || "serve: socket never became connectable".into());
            if let Some(tr) = tracer {
                tr.record("noc-serve", "bind", rep as u64, None, new_at, ready);
            }
            life.setup_s.push((ready - t0).as_secs_f64());
            life.new_s.push((new_at - t0).as_secs_f64());
            if rep + 1 == SETUPS {
                life.replayed = svc.cached_results();
                let (records, bytes) = (svc.snapshot().wal_records, file_len(&wal));
                let t = Instant::now();
                let answered = AtomicUsize::new(0);
                let stop = |n: usize| limit.done(1, t, n);
                let per_client: Vec<(Vec<Answer>, u64, Tally)> = std::thread::scope(|cs| {
                    let handles: Vec<_> = (0..CLIENTS)
                        .map(|c| {
                            let (sock, stop, answered) = (&sock, &stop, &answered);
                            let r = rounds.map(|r| r[c as usize]);
                            cs.spawn(move || {
                                let mut t = Tally::default();
                                let (a, n) = client(sock, seed, c, r, stop, answered, &mut t);
                                (a, n, t)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
                });
                life.served_s = t.elapsed().as_secs_f64();
                for (a, n, t) in per_client {
                    life.answers.extend(a);
                    life.rounds.push(n);
                    tally.attempted += t.attempted;
                    tally.failed += t.failed;
                    tally.problems.extend(t.problems);
                }
                life.wal_records = svc.snapshot().wal_records - records;
                life.wal_bytes = file_len(&wal).saturating_sub(bytes);
            }
            term.store(true, Ordering::SeqCst);
            let served = server.join().expect("server thread panicked");
            tally.check(served.is_ok(), || format!("serve: server failed: {served:?}"));
            // closed only now: the server drains to every live connection
            drop(probe);
        });
    }
    if let Some(tr) = tracer {
        for (i, a) in life.answers.iter().enumerate() {
            tr.record("noc-serve", "request", i as u64, None, a.read_at - a.latency, a.read_at);
        }
    }
    life
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// The answer the service must give for `p`: an analytic `degraded`
/// answer when admission intercepts it, else the direct simulation.
/// Direct results are cached by key across lives; `evals` collects the
/// time of each direct run.
struct Oracle {
    direct: HashMap<u64, ServeOutcome>,
    models: HashMap<usize, AnalyticModel>,
}

impl Oracle {
    fn model(&mut self, p: &PointRequest) -> &AnalyticModel {
        let k = p.net.topology.num_nodes();
        self.models.entry(k).or_insert_with(|| {
            AnalyticModel::of(&p.net, p.pattern, SizeKind::Fixed(p.packet_size as u16))
                .expect("benchmark configs are valid")
        })
    }

    fn admission(&mut self, p: &PointRequest) -> Option<ServeOutcome> {
        if !p.analytic_admission {
            return None;
        }
        let m = self.model(p);
        (!matches!(m.confidence, Confidence::Low) && p.load >= m.effective_saturation).then(|| {
            ServeOutcome::Degraded {
                predicted_latency: m.latency_at(p.load),
                predicted_saturation: m.effective_saturation,
                stable: false,
            }
        })
    }
}

/// Direct `measure_budgeted` outcome of `p`, as the service formats it.
fn direct(p: &PointRequest) -> ServeOutcome {
    match noc_openloop::measure_budgeted(&p.open_loop(), BUDGET) {
        Ok(Ok(r)) => ServeOutcome::Ok {
            avg_latency: r.avg_latency,
            throughput: r.throughput,
            stable: r.stable,
            measured: r.measured_packets,
            cycles: r.cycles,
        },
        Ok(Err(d)) => ServeOutcome::Timeout { budget: d.budget, wall: false },
        Err(e) => ServeOutcome::Invalid { reason: e.to_string() },
    }
}

/// Rounds whose points are regenerated and checked together.
const CHECK_ROUNDS: u64 = 64;

/// Check every answer of a life: no shed, timeout, panicked or invalid
/// answers; every `ok` byte-identical to a direct `measure_budgeted` run
/// of the same (config, seed); every `degraded` the admission model's
/// answer; and the digest of the served result set equal to the digest
/// of the expected set (an order-independent sum of per-answer
/// digests). Returns the summed time of the direct runs of points the
/// life evaluated (not answered from the cache).
fn check(
    seed: u64,
    life: &Life,
    oracle: &mut Oracle,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> f64 {
    let check_span = tracer.map(|tr| tr.open("nocperf", "check", 0, None));
    let (mut served, mut expected, mut eval_s) = (0u64, 0u64, 0.0);
    for client in 0..CLIENTS {
        let mine: Vec<&Answer> = life.answers.iter().filter(|a| a.client == client).collect();
        let (mut fresh, mut round) = (0, 0);
        for chunk in mine.chunk_by(|a, b| a.round / CHECK_ROUNDS == b.round / CHECK_ROUNDS) {
            let mut points = HashMap::new();
            while round <= chunk[chunk.len() - 1].round {
                for (slot, p) in
                    round_points(seed, client, round, &mut fresh).into_iter().enumerate()
                {
                    points.insert((round, slot as u64), p);
                }
                round += 1;
            }
            let pairs: Vec<(&Answer, &PointRequest)> =
                chunk.iter().map(|a| (*a, &points[&(a.round, a.slot)])).collect();
            // points this life evaluated are re-run even when an earlier
            // life already checked them: their time is the life's
            // evaluation time
            let mut todo: Vec<&PointRequest> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for (a, p) in &pairs {
                let key = fnv(p.key().as_bytes());
                let rerun = !a.cached || !oracle.direct.contains_key(&key);
                if rerun && oracle.admission(p).is_none() && seen.insert(key) {
                    todo.push(p);
                }
            }
            let runs: Vec<(ServeOutcome, u64)> = noc_exp::run_grid_with(&todo, WORKERS, |i, p| {
                let t = Instant::now();
                let o = match (tracer, check_span) {
                    (Some(tr), Some(s)) => {
                        tr.span("noc-openloop", "measure_budgeted", i as u64, Some(s), |_| {
                            direct(p)
                        })
                    }
                    _ => direct(p),
                };
                (o, ns_since(t))
            });
            let mut eval_ns: HashMap<u64, u64> = HashMap::new();
            for (p, (o, ns)) in todo.iter().zip(runs) {
                let key = fnv(p.key().as_bytes());
                oracle.direct.insert(key, o);
                eval_ns.insert(key, ns);
            }
            for (a, p) in pairs {
                let key = p.key();
                let want = oracle
                    .admission(p)
                    .unwrap_or_else(|| oracle.direct[&fnv(key.as_bytes())].clone());
                let ok =
                    matches!(a.outcome, ServeOutcome::Ok { .. } | ServeOutcome::Degraded { .. })
                        && a.outcome.canonical() == want.canonical();
                tally.check(ok, || {
                    format!(
                        "serve: {key} answered {} but expected {}",
                        a.outcome.canonical(),
                        want.canonical()
                    )
                });
                if !a.cached {
                    eval_s += eval_ns.remove(&fnv(key.as_bytes())).unwrap_or(0) as f64 * 1e-9;
                }
                served =
                    served.wrapping_add(fnv(format!("{key} {}", a.outcome.canonical()).as_bytes()));
                expected =
                    expected.wrapping_add(fnv(format!("{key} {}", want.canonical()).as_bytes()));
            }
        }
    }
    if let (Some(tr), Some(s)) = (tracer, check_span) {
        tr.close(s);
    }
    tally.check(served == expected, || {
        format!("serve: result-set digest {served:016x} != expected {expected:016x}")
    });
    eval_s
}

/// A scratch directory for the journal and socket, inside the working
/// directory (relative, so the socket path stays short).
fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from("nocperf-out").join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Latencies of `answers` in milliseconds.
fn latencies_ms(answers: &[Answer], keep: impl Fn(&Answer) -> bool) -> Vec<f64> {
    answers.iter().filter(|a| keep(a)).map(|a| a.latency.as_secs_f64() * 1e3).collect()
}

/// The workload. Untraced, it returns the end-to-end metrics; traced,
/// the per-layer metrics and the tracer holding the spans.
pub fn run(seed: u64, seconds: f64, traced: bool, tally: &mut Tally) -> (Metrics, Option<Tracer>) {
    let dir = scratch_dir();
    prefill(seed, &dir.join("prefill.wal"));
    let mut oracle = Oracle { direct: HashMap::new(), models: HashMap::new() };
    let result = if traced {
        let plain = life(
            &dir,
            seed,
            Limit::Time { seconds: seconds / 2.0, min_samples: 0 },
            None,
            None,
            tally,
        );
        check(seed, &plain, &mut oracle, None, tally);
        let tracer = Tracer::default();
        let l = life(&dir, seed, Limit::Units(0), Some(&plain.rounds), Some(&tracer), tally);
        let eval_s = check(seed, &l, &mut oracle, Some(&tracer), tally);
        let builds: Vec<f64> = (0..5)
            .map(|i| {
                let p = fresh_point(seed, 0);
                let p =
                    PointRequest { net: p.net.with_topology(TopologyKind::Mesh2D { k: 8 }), ..p };
                let t = Instant::now();
                tracer.span("noc-analytic", "AnalyticModel::of", i, None, |_| {
                    std::hint::black_box(
                        AnalyticModel::of(&p.net, p.pattern, SizeKind::Fixed(1)).is_ok(),
                    )
                });
                ns_since(t) as f64 * 1e-3
            })
            .collect();
        let n = l.answers.len().max(1) as f64;
        let count = |f: fn(&Answer) -> bool| l.answers.iter().filter(|a| f(a)).count() as f64;
        let mut m = layer_defaults();
        m.insert("noc-serve.replay_s", median(&l.new_s));
        m.insert("noc-serve.replay_records", l.replayed as f64);
        m.insert(
            "noc-serve.hit_latency_p50_us",
            1e3 * median(&latencies_ms(&l.answers, |a| a.cached)),
        );
        m.insert(
            "noc-serve.eval_latency_p50_ms",
            median(&latencies_ms(&l.answers, |a| {
                !a.cached && matches!(a.outcome, ServeOutcome::Ok { .. })
            })),
        );
        m.insert("noc-serve.cache_hit_ratio", count(|a| a.cached) / n);
        let degraded = count(|a| matches!(a.outcome, ServeOutcome::Degraded { .. }));
        m.insert("noc-serve.degraded_ratio", degraded / n);
        m.insert("noc-serve.wal_records_appended", l.wal_records as f64);
        m.insert("noc-serve.wal_bytes_appended", l.wal_bytes as f64);
        m.insert("noc-serve.eval_s", eval_s);
        m.insert("noc-serve.overhead_ratio", 1.0 - eval_s / (WORKERS as f64 * l.served_s));
        m.insert("noc-analytic.model_build_us", median(&builds));
        m.insert("noc-analytic.admission_degraded", degraded);
        m.insert("trace.overhead_ratio", l.served_s / plain.served_s - 1.0);
        (m, Some(tracer))
    } else {
        let (l, speed) = host::calibrated(|| {
            life(&dir, seed, Limit::Time { seconds, min_samples: 1000 }, None, None, tally)
        });
        check(seed, &l, &mut oracle, None, tally);
        let mut m = Metrics::new();
        m.insert("setup_s", median(&l.setup_s));
        m.insert("points_per_s", l.answers.len() as f64 / l.served_s);
        latency_metrics(&mut m, &latencies_ms(&l.answers, |_| true), tally);
        speed.normalise(&mut m);
        (m, None)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_result_line_counts_as_failed() {
        let mut fresh = 0;
        let sent = round_points(1, 0, 0, &mut fresh);
        let now = Instant::now();
        let ok = ServeOutcome::Timeout { budget: 1, wall: false };
        let results =
            vec![(0, false, ok.clone(), now), (2, true, ok.clone(), now), (2, true, ok, now)];
        let mut tally = Tally::default();
        let answers = account(&sent, (0, 0), results, now, &mut tally);
        assert_eq!(answers.len(), 2);
        // 3 result lines (one duplicate) + 6 points, 4 of them unanswered
        assert_eq!((tally.attempted, tally.failed), (9, 5));
        assert!(tally.problems.iter().any(|p| p.contains("no result line for point 1")));
    }

    #[test]
    fn rounds_mix_fresh_pool_and_repeated_points() {
        let mut fresh = 0;
        let rounds: Vec<Vec<PointRequest>> =
            (0..30).map(|r| round_points(7, 1, r, &mut fresh)).collect();
        let all: Vec<&PointRequest> = rounds.iter().flatten().collect();
        let pool: Vec<String> = (0..POOL).map(|i| pool_point(7, i).key()).collect();
        let from_pool = all.iter().filter(|p| pool.contains(&p.key())).count();
        let distinct: std::collections::HashSet<String> = all.iter().map(|p| p.key()).collect();
        let repeats = all.len() - distinct.len();
        assert!(from_pool > 0 && repeats > from_pool / 2, "{from_pool} {repeats}");
        assert!((all.len() / 5..all.len() / 2).contains(&(repeats + from_pool / 2)));
        assert!(
            all.iter().any(|p| p.analytic_admission) && all.iter().any(|p| !p.analytic_admission)
        );
    }
}
