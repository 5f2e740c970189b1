//! Stepping loops shared by the workloads: they step a [`Network`] the
//! way the library entry points (`measure`, `run_batch`, `run_cmp`) do, but from
//! the benchmark's side, so engine work counters and spans can be read
//! around each call.

use std::time::Instant;

use noc_sim::{Network, NodeBehavior};

use crate::trace::Tracer;

/// Which cycle sweep to step with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The event-driven engine (`Network::step`).
    Fast,
    /// The full-scan reference twin (`Network::try_step_reference`).
    Reference,
}

/// Advance one cycle on `engine`.
pub fn step(net: &mut Network, b: &mut dyn NodeBehavior, engine: Engine) {
    match engine {
        Engine::Fast => net.step(b),
        Engine::Reference => net.try_step_reference(b).expect("reference engine integrity failure"),
    }
}

/// `Network::drain` with its step count: step until the network is idle
/// and the behaviour quiescent, or `max_steps` steps have run.
pub fn drain(net: &mut Network, b: &mut dyn NodeBehavior, max_steps: u64) -> (bool, u64) {
    for steps in 1..=max_steps {
        net.step(b);
        if net.is_idle() && b.quiescent() {
            return (true, steps);
        }
    }
    (false, max_steps)
}

/// Where a traced call records its span: the tracer and the parent span.
pub type At<'a> = Option<(&'a Tracer, usize)>;

/// Run `f`, as a span of `layer`/`name` when traced.
pub fn traced<R>(at: At<'_>, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    match at {
        Some((tr, parent)) => tr.span(layer, name, 0, Some(parent), |_| f()),
        None => f(),
    }
}

/// Engine outputs a speed-only change must leave identical, and the
/// work counters the metrics are derived from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineOut {
    /// Delivery digest and `NetStats` totals.
    pub stats: String,
    /// Switch traversals (one per flit per hop).
    pub flit_hops: u64,
    /// VC allocations granted and blocked.
    pub va_grants: u64,
    /// VC allocation attempts that found no free VC.
    pub va_blocked: u64,
    /// Switch bids that lost output arbitration.
    pub sa_conflicts: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Engine steps (fewer than cycles when quiescent stretches are skipped).
    pub steps: u64,
}

impl EngineOut {
    /// Read the counters of a finished run.
    pub fn of(net: &Network, steps: u64) -> Self {
        let s = net.stats();
        let p = net.pipeline_stats();
        Self {
            stats: format!(
                "digest={:016x} flits_injected={} flits_ejected={} packets_injected={} \
                 packets_delivered={} self_delivered={} flits_dropped={}",
                s.delivery_digest,
                s.flits_injected,
                s.flits_ejected,
                s.packets_injected,
                s.packets_delivered,
                s.self_delivered,
                s.flits_dropped
            ),
            flit_hops: p.sa_grants,
            va_grants: p.va_grants,
            va_blocked: p.va_blocked,
            sa_conflicts: p.sa_conflicts,
            cycles: net.cycle(),
            steps,
        }
    }
}

/// FNV-1a over `bytes`: a digest that is the same on every host and
/// toolchain, for values pinned in the source.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// [`fnv`] over the little-endian bytes of `words`.
pub fn fnv_words(words: &[u64]) -> u64 {
    fnv(&words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
