//! Host-speed calibration.
//!
//! On a shared host the speed of a core drifts by tens of percent over
//! seconds to minutes (other tenants share its caches and sibling
//! thread), and a workload's wall time drifts with it. While a
//! workload's measured phase runs, a background thread steps a small
//! frozen mesh model — input FIFOs, dimension-order routing, round-robin
//! output arbitration: the same kind of work as the simulator — for a
//! fixed number of cycles every [`PERIOD`], and records the thread CPU
//! time of each chunk. The end-to-end time metrics are then reported at
//! the reference speed at which one chunk takes [`REFERENCE_CHUNK_MS`]:
//! a time is multiplied by `(REFERENCE_CHUNK_MS / mean chunk time)` to
//! the power [`ELASTICITY`], a rate divided by it. The model is part of
//! the benchmark, not of the workspace, so a change to the workspace
//! leaves it unchanged.

use std::collections::VecDeque;
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::report::Metrics;

/// Time between calibration chunks.
pub const PERIOD: Duration = Duration::from_millis(20);

/// Model cycles a chunk.
const CHUNK_CYCLES: usize = 40;

/// Thread CPU time of one chunk at the reference speed (about that of
/// a 2-core x86-64 VM on a 2.0 GHz Xeon).
pub const REFERENCE_CHUNK_MS: f64 = 0.5;

/// How much faster the workloads' times move than the chunk time when
/// the host's speed changes: a time grows as the chunk time to this
/// power. Fitted over ~120 runs of the three workloads on a 2-core
/// x86-64 VM while the mean chunk took 0.50–0.74 ms; the workloads'
/// own exponents were 1.2–1.75.
pub const ELASTICITY: f64 = 1.5;

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time of the calling thread: unlike wall time, it does not count
/// time the thread waited for a core.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "thread CPU clock unavailable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

const K: usize = 8;
const NODES: usize = K * K;
const DEPTH: usize = 4;

/// The calibration model: a K×K mesh of routers with five input FIFOs
/// each (local, from -x, from +x, from -y, from +y), uniform random
/// injection and one flit per output port a cycle.
struct Mesh {
    fifo: Vec<[VecDeque<u32>; 5]>,
    rr: Vec<[u8; 5]>,
    rng: u64,
    delivered: u64,
}

impl Mesh {
    fn new() -> Self {
        Mesh {
            fifo: (0..NODES)
                .map(|_| std::array::from_fn(|_| VecDeque::with_capacity(DEPTH)))
                .collect(),
            rr: vec![[0; 5]; NODES],
            rng: 0x9e37_79b9_7f4a_7c15,
            delivered: 0,
        }
    }

    fn rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Output port at router `r` for destination `d`: 0 eject, 1 +x,
    /// 2 -x, 3 +y, 4 -y.
    fn route(r: usize, d: usize) -> usize {
        let (rx, ry, dx, dy) = (r % K, r / K, d % K, d / K);
        if dx > rx {
            1
        } else if dx < rx {
            2
        } else if dy > ry {
            3
        } else if dy < ry {
            4
        } else {
            0
        }
    }

    fn cycle(&mut self) {
        for r in 0..NODES {
            let v = self.rand();
            if v % 100 < 30 && self.fifo[r][0].len() < DEPTH {
                self.fifo[r][0].push_back(((v >> 8) % NODES as u64) as u32);
            }
        }
        for r in 0..NODES {
            for out in 0..5 {
                let start = self.rr[r][out] as usize;
                for k in 0..5 {
                    let inp = (start + k) % 5;
                    let Some(&d) = self.fifo[r][inp].front() else { continue };
                    if Self::route(r, d as usize) != out {
                        continue;
                    }
                    // (next router, its input port)
                    let next = match out {
                        0 => None,
                        1 => Some((r + 1, 1)),
                        2 => Some((r - 1, 2)),
                        3 => Some((r + K, 3)),
                        _ => Some((r - K, 4)),
                    };
                    match next {
                        None => self.delivered += 1,
                        Some((n, p)) if self.fifo[n][p].len() < DEPTH => {
                            self.fifo[n][p].push_back(d)
                        }
                        Some(_) => continue,
                    }
                    self.fifo[r][inp].pop_front();
                    self.rr[r][out] = ((inp + 1) % 5) as u8;
                    break;
                }
            }
        }
    }
}

/// Calibration chunks recorded during a measured phase.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    /// Thread CPU time of each chunk, in ms.
    pub chunk_ms: Vec<f64>,
}

impl Speed {
    /// `(REFERENCE_CHUNK_MS / mean chunk time)^ELASTICITY`: below 1 on a
    /// host slower than the reference. 1 when no chunk was recorded.
    pub fn factor(&self) -> f64 {
        if self.chunk_ms.is_empty() {
            return 1.0;
        }
        let mean = self.chunk_ms.iter().sum::<f64>() / self.chunk_ms.len() as f64;
        (REFERENCE_CHUNK_MS / mean).powf(ELASTICITY)
    }

    /// Report the end-to-end time metrics of `m` at the reference speed:
    /// times are multiplied by [`Speed::factor`], rates divided by it.
    /// The measured values and the factor go to stderr.
    pub fn normalise(&self, m: &mut Metrics) {
        let f = self.factor();
        eprintln!(
            "host speed factor {f:.4} ({} calibration chunks); as measured:",
            self.chunk_ms.len()
        );
        for (name, v) in m.iter_mut() {
            let scaled = match *name {
                "setup_s" | "latency_p50_ms" | "latency_p99_ms" => *v * f,
                "points_per_s" => *v / f,
                _ => continue,
            };
            eprintln!("  {name:<34} {v:>16.6}");
            *v = scaled;
        }
    }
}

/// Sets the stop flag when dropped, so the sampler also stops when the
/// measured phase panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Run `f` while a background thread records calibration chunks, one
/// every [`PERIOD`]; the thread has ended when this returns.
pub fn calibrated<R>(f: impl FnOnce() -> R) -> (R, Speed) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut mesh = Mesh::new();
            let mut speed = Speed::default();
            while !stop.load(Ordering::SeqCst) {
                let t = thread_cpu_ns();
                for _ in 0..CHUNK_CYCLES {
                    mesh.cycle();
                }
                speed.chunk_ms.push((thread_cpu_ns() - t) as f64 * 1e-6);
                std::thread::sleep(PERIOD);
            }
            std::hint::black_box(mesh.delivered);
            speed
        });
        let r = {
            let _stop = StopOnDrop(&stop);
            f()
        };
        (r, sampler.join().expect("calibration thread panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_delivers_flits_deterministically() {
        let run = || {
            let mut m = Mesh::new();
            (0..200).for_each(|_| m.cycle());
            m.delivered
        };
        let d = run();
        assert!(d > 1000, "{d}");
        assert_eq!(d, run());
    }

    #[test]
    fn times_scale_with_the_factor_and_rates_against_it() {
        // mean chunk 2 ms: 4× the reference time, factor 0.25^1.5
        let speed = Speed { chunk_ms: vec![1.5, 2.5] };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12 * b;
        assert!(close(speed.factor(), 0.125), "{}", speed.factor());
        let mut m = Metrics::new();
        m.insert("setup_s", 2.0);
        m.insert("latency_p99_ms", 10.0);
        m.insert("points_per_s", 3.0);
        m.insert("peak_rss_mb", 7.0);
        speed.normalise(&mut m);
        assert!(close(m["setup_s"], 0.25) && close(m["latency_p99_ms"], 1.25));
        assert!(close(m["points_per_s"], 24.0));
        assert_eq!(m["peak_rss_mb"], 7.0);
        assert_eq!(Speed::default().factor(), 1.0);
    }

    #[test]
    fn sampling_stops_with_the_measured_phase() {
        let (r, speed) = calibrated(|| {
            std::thread::sleep(PERIOD * 3);
            7
        });
        assert_eq!(r, 7);
        assert!(!speed.chunk_ms.is_empty() && speed.chunk_ms.iter().all(|&c| c > 0.0));
        let panicked = std::panic::catch_unwind(|| calibrated(|| panic!("measured phase")));
        assert!(panicked.is_err());
    }
}
