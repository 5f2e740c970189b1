//! The cycle-accurate network engine.
//!
//! [`Network`] owns the routers, links, NIs, and packet slab, and advances
//! them one cycle at a time. Workloads plug in through [`NodeBehavior`]:
//! the network *pulls* packet specifications from the behavior (so
//! closed-loop models can react to feedback) and *pushes* completed
//! deliveries back, making both open-loop and closed-loop measurement
//! drivers thin layers over the same engine.
//!
//! # Hot-path structure
//!
//! The per-cycle sweep is event-driven rather than scan-everything:
//! routers with buffered flits live in an **active-router bitset**
//! (mirroring the active-link set), NIs with pending ejections or
//! injection work live in two more bitsets, and the allocation sweep
//! walks only set bits in ascending order — so a quiet 1024-node network
//! costs a handful of word tests per cycle instead of 1024 router
//! visits. Router state itself is a network-wide struct-of-arrays slab
//! ([`crate::router::RouterSlab`]) swept contiguously, routing is
//! statically dispatched through the [`crate::routing::Routing`] enum,
//! and fully quiescent stretches are fast-forwarded to the next
//! scheduled event (see [`Network::try_step`]). All of this is
//! observationally invisible: delivery digests are bit-identical to the
//! naive full-scan sweep, which is kept as
//! [`Network::try_step_reference`] and property-tested against the fast
//! path.

pub mod fault;
#[cfg(feature = "sanitize")]
pub mod sanitize;

use std::sync::Arc;

use crate::channel::Link;
use crate::config::NetConfig;
use crate::error::{ConfigError, SimError};
use crate::flit::{Cycle, Delivered, Flit, Packet, PacketSlab, PacketSpec};
use crate::interface::{InjStream, Ni};
use crate::rng::SimRng;
use crate::router::{RouterCtx, RouterSlab, SaWin};
use crate::routing::{RouteLut, Routing, VcBook};
use crate::topology::{Topology, LOCAL_PORT};

/// A workload driving the network.
///
/// `pull` is invoked repeatedly per node per cycle until it returns
/// `None`; returned packets enter that node's (unbounded) source queue.
/// `deliver` is invoked when a packet's tail flit reaches its
/// destination NI.
pub trait NodeBehavior {
    /// Offer the next packet to inject at `node`, if any.
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec>;

    /// Notification of a completed packet delivery at `node`.
    fn deliver(&mut self, node: usize, delivered: &Delivered, cycle: Cycle);

    /// True when the behavior has no future work scheduled (it will not
    /// generate more packets unless triggered by a delivery).
    /// [`Network::drain`] stops only when both the network is idle and
    /// the behavior is quiescent.
    ///
    /// Contract: while this returns true, `pull` must return `None` for
    /// every node *without observable side effects*. The engine relies
    /// on that to fast-forward over quiescent stretches — the per-cycle
    /// pulls of skipped cycles are never issued, which must not change
    /// behavior state.
    fn quiescent(&self) -> bool {
        true
    }

    /// Batched generation: offer every node its per-cycle pulls in one
    /// call, feeding each produced packet to `sink` as `(node, spec)`.
    ///
    /// The default exactly replays the engine's classic polling loop —
    /// [`NodeBehavior::pull`] per node in ascending order until `None` —
    /// so implementors get it for free. Behaviors with a cheap internal
    /// source (e.g. the open-loop Bernoulli workload) may override it to
    /// skip two virtual calls per node per cycle, but an override MUST
    /// be observationally identical to the default: same packets, same
    /// node order, same RNG consumption, and `pull`/`generate` sharing
    /// one poll-dedup state — the engine falls back to per-node `pull`
    /// on fault-degraded networks, where dead NIs are never polled.
    fn generate(&mut self, nodes: usize, cycle: Cycle, sink: &mut dyn FnMut(usize, PacketSpec)) {
        for node in 0..nodes {
            while let Some(spec) = self.pull(node, cycle) {
                sink(node, spec);
            }
        }
    }
}

/// Aggregate counters maintained by the engine.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Flits that entered router injection ports.
    pub flits_injected: u64,
    /// Flits that left through ejection ports (excludes self-delivery).
    pub flits_ejected: u64,
    /// Packets injected into the network (excludes self-delivery).
    pub packets_injected: u64,
    /// Packets fully delivered (includes self-delivery).
    pub packets_delivered: u64,
    /// Self-addressed packets delivered without entering the network.
    pub self_delivered: u64,
    /// Flits swallowed by injected faults (dead or corrupting channels).
    /// Always zero without a fault plan.
    pub flits_dropped: u64,
    /// Per-node injected flit counts.
    pub node_injected: Vec<u64>,
    /// Per-node delivered flit counts.
    pub node_delivered: Vec<u64>,
    /// FNV-1a digest over the full delivery stream
    /// `(uid, src, dst, cycle)` — a cycle-exact fingerprint of the run.
    /// Two runs with equal digests delivered exactly the same packets at
    /// exactly the same times; use it as a golden value in regression
    /// tests of the simulator's determinism.
    pub delivery_digest: u64,
}

/// Fold `bytes` into an FNV-1a hash. Start a fresh hash from
/// [`DIGEST_SEED`]; fold integers as their little-endian bytes.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis (the digest's initial value).
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Set bit `i` in a `u64`-word bitset.
#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// Clear bit `i`.
#[inline]
fn bit_clear(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1 << (i & 63));
}

/// Test bit `i`.
#[inline]
fn bit_test(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1 << (i & 63)) != 0
}

/// The simulated network.
pub struct Network {
    cfg: NetConfig,
    topo: Arc<dyn Topology>,
    /// Statically dispatched routing algorithm: per-flit route calls
    /// inline instead of going through a vtable.
    routing: Routing,
    /// Flat route tables precomputed at construction; the allocation hot
    /// path reads these instead of recomputing coordinates every cycle.
    lut: RouteLut,
    book: VcBook,
    /// All router state, network-wide struct-of-arrays.
    routers: RouterSlab,
    /// Directed links indexed `router * (ports-1) + (port-1)`; `None`
    /// where a mesh edge has no neighbor.
    links: Vec<Option<Link>>,
    nis: Vec<Ni>,
    packets: PacketSlab,
    rng: SimRng,
    cycle: Cycle,
    stats: NetStats,
    traffic_matrix: Option<Vec<u64>>,
    win_buf: Vec<SaWin>,
    /// Upstream link feeding each `(router, in_port)` slot (same indexing
    /// as `links`), so credit return needs no topology query per flit.
    /// `u32::MAX` where no upstream link exists.
    up_link: Vec<u32>,
    /// Indices of links with a flit or credit in flight. `arrivals`
    /// walks only this set instead of every link slot each cycle; at low
    /// load most links are idle, so this turns the per-cycle link scan
    /// from O(links) into O(traffic).
    active_links: Vec<u32>,
    /// Membership bitmap for `active_links`.
    link_busy: Vec<bool>,
    /// Bitset of routers with at least one buffered flit. Maintained at
    /// every deposit; `route_and_switch` sweeps only set bits (clearing
    /// those that went idle), so allocation is O(active routers).
    active_r: Vec<u64>,
    /// Bitset of NIs with a non-empty ejection or local-delivery queue;
    /// `ejections` visits only these.
    ni_pending: Vec<u64>,
    /// Bitset of NIs with injection-side work: queued packets, an open
    /// injection stream, or undelivered injection credits. `injections`
    /// touches the NI state of a node only when its bit is set.
    ni_work: Vec<u64>,
    /// Packets queued for injection plus open injection streams, summed
    /// over all NIs. Zero means no NI can inject a flit this cycle,
    /// which (with empty active sets and a quiescent behavior) licenses
    /// the quiescent-cycle fast-forward.
    inj_backlog: u64,
    /// Observability collector; `None` (the default) leaves the metrics
    /// hook as a single branch per cycle (see [`crate::metrics`]).
    metrics: Option<Box<crate::metrics::Collector>>,
    /// Fault-injection runtime; `None` (the default) leaves every
    /// fault hook as a single branch per cycle.
    fault: Option<Box<fault::FaultState>>,
    /// Degraded-mode rerouting table, rebuilt whenever a permanent
    /// fault fires. Kept outside `fault` so VC allocation can borrow it
    /// immutably while the fault state mutates.
    survivors: Option<Box<fault::SurvivorTable>>,
    #[cfg(feature = "sanitize")]
    san: sanitize::Sanitizer,
}

impl Network {
    /// Build a network from a validated configuration.
    pub fn new(cfg: NetConfig) -> Result<Self, ConfigError> {
        let book = cfg.validate()?;
        let topo = cfg.topology.build();
        let routing = cfg.routing.build_static();
        let n = topo.num_nodes();
        let ports = topo.num_ports();
        let routers = RouterSlab::new(n, ports, cfg.vcs, cfg.vc_buf);
        let mut links = Vec::with_capacity(n * (ports - 1));
        for r in 0..n {
            for p in 1..ports {
                links.push(
                    topo.neighbor(r, p).map(|(d, dp)| Link::new(d, dp, topo.link_delay(r, p))),
                );
            }
        }
        let nis = (0..n).map(|_| Ni::new(cfg.classes, cfg.vcs, cfg.vc_buf)).collect();
        let rng = SimRng::new(cfg.seed);
        let stats = NetStats {
            node_injected: vec![0; n],
            node_delivered: vec![0; n],
            delivery_digest: DIGEST_SEED,
            ..Default::default()
        };
        let n_links = links.len();
        let lut = RouteLut::new(topo.as_ref(), routing.is_adaptive());
        // invert the link map: up_link[(r, p)] is the link arriving at
        // router r's input port p
        let mut up_link = vec![u32::MAX; n_links];
        for r in 0..n {
            for p in 1..ports {
                if let Some((d, dp)) = topo.neighbor(r, p) {
                    up_link[d * (ports - 1) + (dp - 1)] = (r * (ports - 1) + (p - 1)) as u32;
                }
            }
        }
        let words = n.div_ceil(64);
        let metrics =
            cfg.metrics.map(|bin| Box::new(crate::metrics::Collector::new(bin, n_links, n)));
        Ok(Self {
            cfg,
            topo,
            routing,
            lut,
            book,
            routers,
            links,
            nis,
            packets: PacketSlab::new(),
            rng,
            cycle: 0,
            stats,
            traffic_matrix: None,
            win_buf: Vec::new(),
            up_link,
            active_links: Vec::new(),
            link_busy: vec![false; n_links],
            active_r: vec![0; words],
            ni_pending: vec![0; words],
            ni_work: vec![0; words],
            inj_backlog: 0,
            metrics,
            fault: None,
            survivors: None,
            #[cfg(feature = "sanitize")]
            san: sanitize::Sanitizer::new(),
        })
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// The topology.
    pub fn topo(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The VC partition.
    pub fn book(&self) -> &VcBook {
        &self.book
    }

    /// Engine counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Packets alive anywhere (source queues, network, ejection).
    pub fn live_packets(&self) -> usize {
        self.packets.live()
    }

    /// True when no packet is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.packets.live() == 0
    }

    /// Start recording the actual injected traffic matrix
    /// (`src * N + dst` packet counts), for communication-pattern plots.
    pub fn enable_traffic_matrix(&mut self) {
        let n = self.num_nodes();
        self.traffic_matrix = Some(vec![0; n * n]);
    }

    /// The recorded traffic matrix, if enabled.
    pub fn traffic_matrix(&self) -> Option<&[u64]> {
        self.traffic_matrix.as_deref()
    }

    /// Aggregate router pipeline counters across the network — the
    /// saturation bottleneck signature (see
    /// [`crate::router::PipelineStats`]).
    pub fn pipeline_stats(&self) -> crate::router::PipelineStats {
        let mut total = crate::router::PipelineStats::default();
        for p in self.routers.pipelines() {
            total.va_grants += p.va_grants;
            total.va_blocked += p.va_blocked;
            total.sa_grants += p.sa_grants;
            total.sa_credit_starved += p.sa_credit_starved;
            total.sa_conflicts += p.sa_conflicts;
        }
        total
    }

    /// Enable the observability collector at runtime with the given bin
    /// width in cycles (equivalent to building the network with
    /// [`NetConfig::with_metrics`]; see [`crate::metrics`]). Collection
    /// starts at the current cycle; calling again resets it.
    ///
    /// # Panics
    /// If `bin_width == 0`.
    pub fn enable_metrics(&mut self, bin_width: u64) {
        let mut c = crate::metrics::Collector::new(bin_width, self.links.len(), self.routers.len());
        c.resync(&self.links, &self.routers, &self.stats);
        self.metrics = Some(Box::new(c));
    }

    /// True when the observability collector is recording.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Snapshot the recorded metrics (flushing any partial bin), or
    /// `None` when metrics were never enabled. The simulation can keep
    /// running afterwards; later snapshots extend earlier ones.
    pub fn metrics_snapshot(&mut self) -> Option<crate::metrics::MetricsSnapshot> {
        let mut m = self.metrics.take()?;
        let snap =
            m.snapshot(self.cycle, self.topo.num_ports(), &self.routers, &self.links, &self.stats);
        self.metrics = Some(m);
        Some(snap)
    }

    /// Per-link carried-flit counts keyed by `(router, port)`.
    pub fn link_loads(&self) -> Vec<((usize, usize), u64)> {
        let ports = self.topo.num_ports();
        self.links
            .iter()
            .enumerate()
            .filter_map(|(i, l)| {
                l.as_ref().map(|l| ((i / (ports - 1), i % (ports - 1) + 1), l.flits_carried))
            })
            .collect()
    }

    /// Dump buffer/VC occupancy for debugging stuck simulations: every
    /// non-idle input VC with its queue depth, allocated output, and the
    /// output VC's owner/credits.
    pub fn debug_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ri in 0..self.routers.len() {
            let r = self.routers.router(ri);
            for p in 0..r.ports() {
                for v in 0..r.vcs() {
                    let ivc = r.input(p, v);
                    if ivc.is_empty() && ivc.state == crate::router::VcState::Idle {
                        continue;
                    }
                    let _ = write!(
                        out,
                        "router {ri} in[{p}][{v}]: state {:?} qlen {} pkt {}",
                        ivc.state,
                        ivc.qlen(),
                        ivc.pkt
                    );
                    if ivc.state == crate::router::VcState::Active {
                        let op = ivc.out_port as usize;
                        let ov = ivc.out_vc as usize;
                        let o = r.out_vc(op, ov);
                        let _ = write!(
                            out,
                            " -> out[{op}][{ov}] owner {} credits {}",
                            o.owner, o.credits
                        );
                    }
                    if let Some(f) = r.q_front(p, v) {
                        let pkt = self.packets.get(f.pkt);
                        let _ = write!(
                            out,
                            " | front: pkt {} seq {} {}->{} class {} phase {} dl {}",
                            f.pkt,
                            f.seq,
                            pkt.src,
                            pkt.dst,
                            pkt.class,
                            pkt.route.phase,
                            pkt.route.dateline
                        );
                    }
                    out.push('\n');
                }
            }
        }
        for (n, ni) in self.nis.iter().enumerate() {
            let q = ni.queued_packets();
            if q > 0 || ni.stream.iter().any(Option::is_some) {
                let _ = writeln!(
                    out,
                    "ni {n}: queued {q} streams {:?} credits {:?}",
                    ni.stream, ni.inj_credits
                );
            }
        }
        out
    }

    fn link_idx(&self, router: usize, port: usize) -> usize {
        debug_assert!(port >= 1);
        router * (self.topo.num_ports() - 1) + (port - 1)
    }

    /// Advance one cycle (possibly fast-forwarding, see
    /// [`Network::try_step`]).
    ///
    /// # Panics
    /// On a [`SimError`] — an engine-integrity fault that a correct
    /// simulator never produces. Use [`Network::try_step`] to observe
    /// the typed error instead.
    pub fn step(&mut self, behavior: &mut dyn NodeBehavior) {
        if let Err(e) = self.try_step(behavior) {
            panic!("simulation integrity failure: {e}");
        }
    }

    /// Advance one cycle, surfacing integrity faults as values.
    ///
    /// When the network is fully quiescent — no buffered flit anywhere,
    /// nothing queued to inject, and the behavior reports
    /// [`NodeBehavior::quiescent`] — but links or NI queues hold
    /// future-ready events, the cycle counter jumps directly to the
    /// earliest such event before the sweep runs, so dead time between
    /// events costs one step instead of one step per cycle. With a
    /// fault plan installed the jump target additionally respects the
    /// fault timeline — the next unapplied fault/repair event and the
    /// next retransmission deadline — so degraded runs keep the
    /// event-driven speed; the skip is disabled only while the metrics
    /// collector is installed (it observes individual cycles). Every
    /// observable (delivery times, digests, counters) is bit-identical
    /// to stepping through the skipped cycles one by one.
    ///
    /// # Errors
    /// Any [`SimError`]: structural faults (buffer/credit accounting,
    /// dead ports) always; invariant violations and watchdog timeouts
    /// additionally when the `sanitize` feature is enabled.
    pub fn try_step(&mut self, behavior: &mut dyn NodeBehavior) -> Result<(), SimError> {
        self.try_step_inner(behavior, Cycle::MAX)
    }

    /// One cycle of the event-driven sweep, fast-forwarding at most to
    /// `limit` (so [`Network::run`] can land exactly on its target).
    fn try_step_inner(
        &mut self,
        behavior: &mut dyn NodeBehavior,
        limit: Cycle,
    ) -> Result<(), SimError> {
        let mut t = self.cycle;
        if self.metrics.is_none()
            && self.inj_backlog == 0
            && self.active_r.iter().all(|&w| w == 0)
            && behavior.quiescent()
        {
            // quiescent-cycle fast-forward: nothing can change state
            // before the next scheduled event, so jump straight to it.
            // With a fault plan the jump also stops at the next fault
            // timeline action (unapplied event or retransmission
            // deadline): in the skipped stretch the pre-step would have
            // applied no event and every ledger scan would have hit its
            // early-return gate, and the corruption RNG is only drawn
            // at link entries — of which a quiescent network has none —
            // so the digest is identical to the per-cycle scan.
            let mut next = self.next_event_cycle();
            if let Some(fw) = self.fault_next_wake() {
                next = Some(next.map_or(fw, |n| n.min(fw)));
            }
            if let Some(next) = next {
                if next > t {
                    t = next.min(limit);
                    self.cycle = t;
                }
            }
        }
        if self.fault.is_some() {
            self.fault_pre_step(t);
        }
        self.arrivals(t)?;
        self.ejections(t, behavior);
        self.injections(t, behavior)?;
        self.route_and_switch(t)?;
        if self.metrics.is_some() {
            // take/put so the collector can read routers/links/stats
            // without splitting borrows; it is a pointer move, and the
            // collector never mutates engine state
            let mut m = self.metrics.take().expect("checked is_some");
            m.tick(t, &self.routers, &self.links, &self.stats);
            self.metrics = Some(m);
        }
        self.cycle = t + 1;
        #[cfg(feature = "sanitize")]
        self.sanitize_check()?;
        Ok(())
    }

    /// Reference single-cycle sweep: full O(n) scans over every router
    /// and NI, no worklists, no fast-forward. This is the semantic
    /// baseline the event-driven hot path is property-tested against
    /// (delivery digests must match bit-for-bit); it is not meant for
    /// production use.
    #[doc(hidden)]
    pub fn try_step_reference(&mut self, behavior: &mut dyn NodeBehavior) -> Result<(), SimError> {
        let t = self.cycle;
        if self.fault.is_some() {
            self.fault_pre_step(t);
        }
        self.arrivals(t)?;
        self.ejections_reference(t, behavior);
        self.injections_reference(t, behavior)?;
        self.route_and_switch_reference(t)?;
        if self.metrics.is_some() {
            let mut m = self.metrics.take().expect("checked is_some");
            m.tick(t, &self.routers, &self.links, &self.stats);
            self.metrics = Some(m);
        }
        self.cycle = t + 1;
        #[cfg(feature = "sanitize")]
        self.sanitize_check()?;
        Ok(())
    }

    /// Earliest future cycle with a scheduled state change while the
    /// network is quiescent: the minimum over in-flight flit arrivals
    /// and pending NI ejection/local-delivery ready times. In-flight
    /// *credits* are deliberately ignored: with no flit buffered
    /// anywhere and nothing queued to inject, credits only top counters
    /// back up — absorbing one later than its ready time is
    /// observationally identical, because no injection or switch bid
    /// can consult it before the next flit event anyway.
    fn next_event_cycle(&self) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        for &li in &self.active_links {
            if let Some(c) = self.links[li as usize].as_ref().and_then(Link::next_flit_ready) {
                next = Some(next.map_or(c, |n: Cycle| n.min(c)));
            }
        }
        for wi in 0..self.ni_pending.len() {
            let mut word = self.ni_pending[wi];
            while word != 0 {
                let node = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let ni = &self.nis[node];
                if let Some(&(c, _)) = ni.eject_q.front() {
                    next = Some(next.map_or(c, |n: Cycle| n.min(c)));
                }
                if let Some(&(c, _)) = ni.local_q.front() {
                    next = Some(next.map_or(c, |n: Cycle| n.min(c)));
                }
            }
        }
        next
    }

    /// Advance `cycles` cycles (exactly — fast-forward is capped so the
    /// final step lands on the target cycle).
    pub fn run(&mut self, cycles: u64, behavior: &mut dyn NodeBehavior) {
        let target = self.cycle + cycles;
        while self.cycle < target {
            if let Err(e) = self.try_step_inner(behavior, target - 1) {
                panic!("simulation integrity failure: {e}");
            }
        }
    }

    /// Step until the network is idle *and* the behavior is quiescent, or
    /// until `max_cycles` steps elapse; returns true if fully drained.
    pub fn drain(&mut self, behavior: &mut dyn NodeBehavior, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            self.step(behavior);
            if self.is_idle() && behavior.quiescent() {
                return true;
            }
        }
        false
    }

    /// Mark link `li` as carrying traffic so `arrivals` will visit it.
    #[inline]
    fn mark_link(link_busy: &mut [bool], active_links: &mut Vec<u32>, li: usize) {
        if !link_busy[li] {
            link_busy[li] = true;
            active_links.push(li as u32);
        }
    }

    /// Deliver link flits and credits that have arrived by `t`.
    ///
    /// Only links in the active set are visited. Iteration order over
    /// that set is schedule-dependent (`swap_remove` bookkeeping), which
    /// is safe: each link deposits flits into a distinct `(router,
    /// port)` input buffer and credits into a distinct source output
    /// port, so cross-link delivery order cannot affect simulator state.
    fn arrivals(&mut self, t: Cycle) -> Result<(), SimError> {
        let ports1 = self.topo.num_ports() - 1;
        let mut i = 0;
        while i < self.active_links.len() {
            let li = self.active_links[i] as usize;
            // credits: link li belongs to source router li / (ports-1)
            let src_router = li / ports1;
            let src_port = li % ports1 + 1;
            // flit deliveries mutate the destination router, credit
            // deliveries the source router; split the borrows by popping
            // from the link first and depositing afterwards
            let link = self.links[li].as_mut().expect("active link exists");
            let (dr, dp) = (link.dst_router, link.dst_port);
            while let Some(vc) = link.pop_credit(t) {
                self.routers.router_mut(src_router).credit(src_port, vc as usize)?;
            }
            while let Some(flit) = self.links[li].as_mut().and_then(|link| link.pop_flit(t)) {
                self.routers.router_mut(dr).deposit(dp, flit)?;
                bit_set(&mut self.active_r, dr);
            }
            if self.links[li].as_ref().is_some_and(|l| !l.is_idle()) {
                i += 1;
            } else {
                self.link_busy[li] = false;
                self.active_links.swap_remove(i);
            }
        }
        Ok(())
    }

    /// Deliver ejected and self-addressed packets whose time has come.
    /// Visits only NIs with pending queues, in ascending node order
    /// (matching the reference full scan, since delivery order feeds the
    /// digest).
    fn ejections(&mut self, t: Cycle, behavior: &mut dyn NodeBehavior) {
        for wi in 0..self.ni_pending.len() {
            let mut word = self.ni_pending[wi];
            while word != 0 {
                let node = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                self.eject_node(node, t, behavior);
                if self.nis[node].eject_q.is_empty() && self.nis[node].local_q.is_empty() {
                    bit_clear(&mut self.ni_pending, node);
                }
            }
        }
    }

    /// Reference twin of [`Network::ejections`]: scan every NI.
    fn ejections_reference(&mut self, t: Cycle, behavior: &mut dyn NodeBehavior) {
        for node in 0..self.nis.len() {
            self.eject_node(node, t, behavior);
        }
    }

    /// Drain one NI's due ejections and local deliveries.
    fn eject_node(&mut self, node: usize, t: Cycle, behavior: &mut dyn NodeBehavior) {
        while let Some(&(ready, flit)) = self.nis[node].eject_q.front() {
            if ready > t {
                break;
            }
            self.nis[node].eject_q.pop_front();
            self.stats.flits_ejected += 1;
            self.stats.node_delivered[node] += 1;
            if flit.tail {
                // duplicate retransmissions and arrivals at a dead
                // NI are absorbed before the behavior sees them
                let deliver = self.fault_on_tail(node, flit.pkt);
                let pkt = self.packets.remove(flit.pkt);
                if deliver {
                    self.stats.packets_delivered += 1;
                    let d = delivered_of(&pkt);
                    self.stats.delivery_digest =
                        fold_digest(self.stats.delivery_digest, &d, node, t);
                    behavior.deliver(node, &d, t);
                }
            }
        }
        while let Some(&(ready, pid)) = self.nis[node].local_q.front() {
            if ready > t {
                break;
            }
            self.nis[node].local_q.pop_front();
            let deliver = self.fault_on_tail(node, pid);
            let pkt = self.packets.remove(pid);
            if deliver {
                self.stats.packets_delivered += 1;
                self.stats.self_delivered += 1;
                let d = delivered_of(&pkt);
                self.stats.delivery_digest = fold_digest(self.stats.delivery_digest, &d, node, t);
                behavior.deliver(node, &d, t);
            }
        }
    }

    /// Pull new packets from the behavior and inject up to one flit per
    /// node into the router fabric. On a healthy network, generation is
    /// one batched [`NodeBehavior::generate`] call and NI state is only
    /// touched for nodes with injection work pending (`ni_work` bit
    /// set), so a quiet cycle costs O(packets + pending NIs), not O(n).
    fn injections(&mut self, t: Cycle, behavior: &mut dyn NodeBehavior) -> Result<(), SimError> {
        let n = self.num_nodes();
        if self.fault.is_some() {
            // degraded mode: dead NIs must not be polled at all (their
            // generator state freezes), so keep the per-node loop
            for node in 0..n {
                if self.fault_node_dead(node) {
                    // a dead NI stops producing; packets mid-injection
                    // still drain below into the (dead) fabric around it
                    if bit_test(&self.ni_work, node) {
                        self.nis[node].absorb_credits(t);
                        self.inject_one_flit(node, t)?;
                        self.clear_ni_work_if_drained(node);
                    }
                    continue;
                }
                self.pull_packets(node, t, behavior);
                if !bit_test(&self.ni_work, node) {
                    continue;
                }
                self.nis[node].absorb_credits(t);
                self.inject_one_flit(node, t)?;
                self.clear_ni_work_if_drained(node);
            }
            return Ok(());
        }
        self.generate_packets(t, behavior);
        // ascending-node bitset walk, matching the reference full scan
        for wi in 0..self.ni_work.len() {
            let mut word = self.ni_work[wi];
            while word != 0 {
                let node = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                self.nis[node].absorb_credits(t);
                self.inject_one_flit(node, t)?;
                self.clear_ni_work_if_drained(node);
            }
        }
        Ok(())
    }

    /// Reference twin of [`Network::injections`]: touch every NI
    /// unconditionally (same observable behavior — an NI whose work bit
    /// is clear has nothing to absorb or inject). Generation goes
    /// through the same batched path as the worklist sweep so both see
    /// one identical `generate` call per cycle.
    fn injections_reference(
        &mut self,
        t: Cycle,
        behavior: &mut dyn NodeBehavior,
    ) -> Result<(), SimError> {
        let n = self.num_nodes();
        if self.fault.is_some() {
            for node in 0..n {
                if self.fault_node_dead(node) {
                    self.nis[node].absorb_credits(t);
                    self.inject_one_flit(node, t)?;
                    continue;
                }
                self.pull_packets(node, t, behavior);
                self.nis[node].absorb_credits(t);
                self.inject_one_flit(node, t)?;
            }
            return Ok(());
        }
        self.generate_packets(t, behavior);
        for node in 0..n {
            self.nis[node].absorb_credits(t);
            self.inject_one_flit(node, t)?;
        }
        Ok(())
    }

    /// Admit this cycle's generated packets via one batched
    /// [`NodeBehavior::generate`] call. Interleaving all generation
    /// ahead of all NI injection is observation-equivalent to the
    /// classic per-node pull-then-inject loop: generation never reads
    /// fabric state, and node `i`'s injection touches only node `i`'s
    /// NI and router.
    fn generate_packets(&mut self, t: Cycle, behavior: &mut dyn NodeBehavior) {
        let n = self.num_nodes();
        behavior.generate(n, t, &mut |node, spec| self.admit_packet(node, spec, t));
    }

    /// Pull freshly generated packets at `node` into its source queues
    /// (the per-node polling path, used on fault-degraded networks).
    fn pull_packets(&mut self, node: usize, t: Cycle, behavior: &mut dyn NodeBehavior) {
        while let Some(spec) = behavior.pull(node, t) {
            self.admit_packet(node, spec, t);
        }
    }

    /// Admit one freshly generated packet at `node` into its source
    /// queues.
    fn admit_packet(&mut self, node: usize, spec: PacketSpec, t: Cycle) {
        let n = self.num_nodes();
        let classes = self.cfg.classes;
        {
            assert!(spec.dst < n, "destination {} out of range", spec.dst);
            assert!(spec.size >= 1, "packets must have at least one flit");
            assert!(
                (spec.class as usize) < classes,
                "class {} exceeds configured {classes}",
                spec.class
            );
            if let Some(m) = self.traffic_matrix.as_mut() {
                m[node * n + spec.dst] += 1;
            }
            if spec.dst == node {
                // local delivery: bypass the fabric with router-only latency
                let pid = self.packets.insert(Packet {
                    uid: 0,
                    src: node,
                    dst: node,
                    size: spec.size,
                    class: spec.class,
                    birth: t,
                    inject: t,
                    route: crate::routing::RouteState::direct(),
                    payload: spec.payload,
                });
                let ready = t + self.cfg.router_delay as Cycle + 1;
                self.nis[node].local_q.push_back((ready, pid));
                bit_set(&mut self.ni_pending, node);
            } else {
                let route = self.routing.init(self.topo.as_ref(), node, spec.dst, &mut self.rng);
                let pid = self.packets.insert(Packet {
                    uid: 0,
                    src: node,
                    dst: spec.dst,
                    size: spec.size,
                    class: spec.class,
                    birth: t,
                    inject: u64::MAX,
                    route,
                    payload: spec.payload,
                });
                self.nis[node].class_q[spec.class as usize].push_back(pid);
                self.inj_backlog += 1;
                bit_set(&mut self.ni_work, node);
                if self.fault.is_some() {
                    self.fault_register(node, pid, spec, t);
                }
            }
        }
    }

    /// Clear `node`'s injection-work bit once its NI holds no queued
    /// packet, no open stream, and no undelivered credit.
    fn clear_ni_work_if_drained(&mut self, node: usize) {
        let ni = &self.nis[node];
        if ni.credit_q.is_empty()
            && ni.stream.iter().all(Option::is_none)
            && ni.class_q.iter().all(std::collections::VecDeque::is_empty)
        {
            bit_clear(&mut self.ni_work, node);
        }
    }

    /// Inject at most one flit at `node` (1 flit/cycle/node injection
    /// bandwidth), round-robin across message classes so no class can
    /// head-of-line-block another.
    fn inject_one_flit(&mut self, node: usize, t: Cycle) -> Result<(), SimError> {
        let classes = self.cfg.classes;
        for k in 0..classes {
            let c = (self.nis[node].class_rr + k) % classes;

            // continue an in-progress stream
            if let Some(s) = self.nis[node].stream[c] {
                if self.nis[node].inj_credits[s.vc as usize] == 0 {
                    continue; // this class is blocked; try another
                }
                self.emit_flit(node, c, s, t)?;
                self.nis[node].class_rr = (c + 1) % classes;
                return Ok(());
            }

            // start a new packet
            let Some(&pid) = self.nis[node].class_q[c].front() else { continue };
            let mask = self.book.injection(c);
            let Some(vc) = self.nis[node].pick_inj_vc(mask) else { continue };
            self.nis[node].class_q[c].pop_front();
            self.inj_backlog -= 1;
            self.packets.get_mut(pid).inject = t;
            self.stats.packets_injected += 1;
            let s = InjStream { pkt: pid, vc, next_seq: 0 };
            let size = self.packets.get(pid).size;
            if size > 1 {
                self.nis[node].inj_busy[vc as usize] = true;
                self.nis[node].stream[c] = Some(s);
                self.inj_backlog += 1;
            }
            self.emit_flit(node, c, s, t)?;
            self.nis[node].class_rr = (c + 1) % classes;
            return Ok(());
        }
        Ok(())
    }

    /// Push one flit of stream `s` into the router's injection buffer.
    fn emit_flit(
        &mut self,
        node: usize,
        class: usize,
        s: InjStream,
        _t: Cycle,
    ) -> Result<(), SimError> {
        let size = self.packets.get(s.pkt).size;
        let flit = Flit { pkt: s.pkt, seq: s.next_seq, vc: s.vc, tail: s.next_seq + 1 == size };
        if self.nis[node].inj_credits[s.vc as usize] == 0 {
            return Err(SimError::CreditUnderflow { node, vc: s.vc as usize });
        }
        self.routers.router_mut(node).deposit(LOCAL_PORT, flit)?;
        bit_set(&mut self.active_r, node);
        self.nis[node].inj_credits[s.vc as usize] -= 1;
        self.stats.flits_injected += 1;
        self.stats.node_injected[node] += 1;
        if s.next_seq as usize == size as usize - 1 {
            // tail injected: stream complete
            if size > 1 {
                self.nis[node].inj_busy[s.vc as usize] = false;
                self.nis[node].stream[class] = None;
                self.inj_backlog -= 1;
            }
        } else if size > 1 {
            self.nis[node].stream[class] =
                Some(InjStream { pkt: s.pkt, vc: s.vc, next_seq: s.next_seq + 1 });
        }
        Ok(())
    }

    /// Run VC allocation and switch allocation on routers in the active
    /// set (ascending id, matching the reference full scan), then move
    /// winning flits onto links (or into ejection) and return credits.
    /// Routers that went idle are dropped from the set.
    fn route_and_switch(&mut self, t: Cycle) -> Result<(), SimError> {
        let tr = self.cfg.router_delay as Cycle;
        let ports1 = self.topo.num_ports() - 1;
        // the context and the winner scratch buffer are shared by every
        // router this cycle; building/taking them once keeps the
        // per-router loop free of setup cost
        let ctx = RouterCtx {
            topo: self.topo.as_ref(),
            routing: &self.routing,
            lut: &self.lut,
            book: &self.book,
            arb: self.cfg.arbitration,
            survivors: self.survivors.as_deref(),
        };
        let mut wins = std::mem::take(&mut self.win_buf);
        for wi in 0..self.active_r.len() {
            // a copied word is safe to iterate: processing router r only
            // ever clears r's own bit, and bits set during this cycle
            // (arrival/injection deposits) happened before this phase
            let mut word = self.active_r[wi];
            while word != 0 {
                let r = (wi << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                if self.routers.is_idle(r) {
                    bit_clear(&mut self.active_r, r);
                    continue;
                }
                if let Err(e) = Self::process_router(
                    r,
                    t,
                    tr,
                    ports1,
                    &ctx,
                    &mut self.routers,
                    &mut self.packets,
                    &mut self.links,
                    &mut self.nis,
                    &mut self.stats,
                    self.fault.as_deref_mut(),
                    &self.up_link,
                    &mut self.link_busy,
                    &mut self.active_links,
                    &mut self.ni_pending,
                    &mut self.ni_work,
                    &mut wins,
                ) {
                    self.win_buf = wins;
                    return Err(e);
                }
                if self.routers.is_idle(r) {
                    bit_clear(&mut self.active_r, r);
                }
            }
        }
        self.win_buf = wins;
        Ok(())
    }

    /// Reference twin of [`Network::route_and_switch`]: scan all routers
    /// in ascending order, skipping idle ones, with no set maintenance.
    fn route_and_switch_reference(&mut self, t: Cycle) -> Result<(), SimError> {
        let tr = self.cfg.router_delay as Cycle;
        let ports1 = self.topo.num_ports() - 1;
        let ctx = RouterCtx {
            topo: self.topo.as_ref(),
            routing: &self.routing,
            lut: &self.lut,
            book: &self.book,
            arb: self.cfg.arbitration,
            survivors: self.survivors.as_deref(),
        };
        let mut wins = std::mem::take(&mut self.win_buf);
        for r in 0..self.routers.len() {
            if self.routers.is_idle(r) {
                continue; // no buffered flit: nothing to allocate
            }
            if let Err(e) = Self::process_router(
                r,
                t,
                tr,
                ports1,
                &ctx,
                &mut self.routers,
                &mut self.packets,
                &mut self.links,
                &mut self.nis,
                &mut self.stats,
                self.fault.as_deref_mut(),
                &self.up_link,
                &mut self.link_busy,
                &mut self.active_links,
                &mut self.ni_pending,
                &mut self.ni_work,
                &mut wins,
            ) {
                self.win_buf = wins;
                return Err(e);
            }
        }
        self.win_buf = wins;
        Ok(())
    }

    /// One router's allocation cycle: VC allocation, switch allocation,
    /// then forwarding of the winners (flits onto links or ejection
    /// queues, credits upstream). An associated function taking the
    /// engine's fields as disjoint borrows so the worklist and reference
    /// sweeps share it verbatim.
    #[allow(clippy::too_many_arguments)]
    fn process_router(
        r: usize,
        t: Cycle,
        tr: Cycle,
        ports1: usize,
        ctx: &RouterCtx<'_>,
        routers: &mut RouterSlab,
        packets: &mut PacketSlab,
        links: &mut [Option<Link>],
        nis: &mut [Ni],
        stats: &mut NetStats,
        mut fault: Option<&mut fault::FaultState>,
        up_link: &[u32],
        link_busy: &mut [bool],
        active_links: &mut Vec<u32>,
        ni_pending: &mut [u64],
        ni_work: &mut [u64],
        wins: &mut Vec<SaWin>,
    ) -> Result<(), SimError> {
        {
            let mut router = routers.router_mut(r);
            router.vc_allocate(ctx, packets)?;
            wins.clear();
            router.switch_allocate(ctx, packets, wins)?;
        }
        for &w in wins.iter() {
            // forward the flit
            if w.out_port as usize == LOCAL_PORT {
                nis[r].eject_q.push_back((t + tr, w.flit));
                bit_set(ni_pending, r);
            } else {
                let li = r * ports1 + (w.out_port as usize - 1);
                // a faulty channel may swallow the flit instead of
                // carrying it (the credit is refunded inside), or —
                // under link-level retry — carry it late after replays
                let forward_at = match fault.as_deref_mut() {
                    Some(f) => {
                        let info = links[li].as_ref().map(|l| (l.delay as Cycle, l.in_flight()));
                        f.on_link_entry(
                            stats,
                            packets,
                            &mut routers.router_mut(r),
                            li,
                            info,
                            t + tr,
                            &w,
                        )?
                    }
                    None => Some(t + tr + links[li].as_ref().map_or(0, |l| l.delay as Cycle)),
                };
                if let Some(ready) = forward_at {
                    let Some(link) = links[li].as_mut() else {
                        return Err(SimError::DeadPort { router: r, port: w.out_port as usize });
                    };
                    link.push_flit(ready, w.flit);
                    Self::mark_link(link_busy, active_links, li);
                }
            }
            // return the credit for the freed input slot
            if w.in_port as usize == LOCAL_PORT {
                nis[r].credit_q.push_back((t + 1, w.in_vc));
                bit_set(ni_work, r);
            } else {
                let li = up_link[r * ports1 + (w.in_port as usize - 1)] as usize;
                let Some(link) = links.get_mut(li).and_then(Option::as_mut) else {
                    return Err(SimError::NoUpstreamLink { router: r, port: w.in_port as usize });
                };
                let ready = t + link.delay as Cycle;
                link.push_credit(ready, w.in_vc);
                Self::mark_link(link_busy, active_links, li);
            }
        }
        Ok(())
    }
}

/// Fold one delivery into an FNV-1a run digest.
fn fold_digest(mut h: u64, d: &Delivered, node: usize, t: Cycle) -> u64 {
    for v in [d.uid, d.src as u64, node as u64, t] {
        h = fnv1a(h, &v.to_le_bytes());
    }
    h
}

fn delivered_of(pkt: &Packet) -> Delivered {
    Delivered {
        uid: pkt.uid,
        src: pkt.src,
        dst: pkt.dst,
        size: pkt.size,
        class: pkt.class,
        birth: pkt.birth,
        inject: pkt.inject,
        payload: pkt.payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetConfig, RoutingKind, TopologyKind};

    /// A behavior that sends a fixed list of (cycle, src, dst, size)
    /// packets and records deliveries.
    struct Script {
        sends: Vec<(Cycle, usize, usize, u16)>,
        delivered: Vec<(usize, Delivered, Cycle)>,
    }

    impl Script {
        fn new(mut sends: Vec<(Cycle, usize, usize, u16)>) -> Self {
            sends.sort_by_key(|&(c, s, ..)| (s, c));
            Self { sends, delivered: Vec::new() }
        }
    }

    impl NodeBehavior for Script {
        fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
            let idx = self.sends.iter().position(|&(c, s, ..)| s == node && c <= cycle)?;
            let (_, _, dst, size) = self.sends.remove(idx);
            Some(PacketSpec { dst, size, class: 0, payload: 0 })
        }

        fn deliver(&mut self, node: usize, delivered: &Delivered, cycle: Cycle) {
            self.delivered.push((node, *delivered, cycle));
        }

        fn quiescent(&self) -> bool {
            self.sends.is_empty()
        }
    }

    fn mesh_cfg() -> NetConfig {
        NetConfig::baseline().with_topology(TopologyKind::Mesh2D { k: 4 })
    }

    #[test]
    fn single_packet_zero_load_latency() {
        let mut net = Network::new(mesh_cfg()).unwrap();
        // 0 -> 3: 3 hops in x
        let mut b = Script::new(vec![(0, 0, 3, 1)]);
        net.drain(&mut b, 1000);
        assert_eq!(b.delivered.len(), 1);
        let (node, d, t) = &b.delivered[0];
        assert_eq!(*node, 3);
        assert_eq!(d.src, 0);
        // analytic: H hops * (tr + link) + tr = 3*2 + 1 = 7
        assert_eq!(*t - d.birth, 7);
    }

    #[test]
    fn latency_scales_with_router_delay() {
        for (tr, expect) in [(1u32, 7u64), (2, 11), (4, 19), (8, 35)] {
            let mut net = Network::new(mesh_cfg().with_router_delay(tr)).unwrap();
            let mut b = Script::new(vec![(0, 0, 3, 1)]);
            net.drain(&mut b, 2000);
            let (_, d, t) = &b.delivered[0];
            assert_eq!(t - d.birth, expect, "tr = {tr}");
        }
    }

    #[test]
    fn multi_flit_serialization_latency() {
        let mut net = Network::new(mesh_cfg()).unwrap();
        let mut b = Script::new(vec![(0, 0, 3, 4)]);
        net.drain(&mut b, 1000);
        let (_, d, t) = &b.delivered[0];
        // head takes 7; three more flits pipeline behind at 1/cycle
        assert_eq!(t - d.birth, 10);
    }

    #[test]
    fn self_delivery_has_local_latency() {
        let mut net = Network::new(mesh_cfg()).unwrap();
        let mut b = Script::new(vec![(0, 5, 5, 1)]);
        net.drain(&mut b, 100);
        let (node, d, t) = &b.delivered[0];
        assert_eq!(*node, 5);
        assert_eq!(d.src, 5);
        assert_eq!(t - d.birth, 2); // tr + 1
        assert_eq!(net.stats().self_delivered, 1);
        assert_eq!(net.stats().flits_injected, 0, "self traffic bypasses the fabric");
    }

    #[test]
    fn all_packets_conserved_under_random_storm() {
        let mut sends = Vec::new();
        let mut rng = crate::rng::SimRng::new(77);
        for i in 0..500 {
            let src = rng.below(16);
            let dst = rng.below(16);
            let size = 1 + rng.below(4) as u16;
            sends.push((i % 50, src, dst, size));
        }
        let total = sends.len();
        let mut net = Network::new(mesh_cfg()).unwrap();
        let mut b = Script::new(sends);
        assert!(net.drain(&mut b, 100_000), "network must drain");
        assert_eq!(b.delivered.len(), total);
        assert_eq!(net.stats().packets_delivered as usize, total);
        assert_eq!(net.live_packets(), 0);
    }

    #[test]
    fn conservation_on_all_topologies_and_routings() {
        for topo in [
            TopologyKind::Mesh2D { k: 4 },
            TopologyKind::Torus2D { k: 4 },
            TopologyKind::FoldedTorus2D { k: 4 },
            TopologyKind::Ring { n: 8 },
        ] {
            for routing in [
                RoutingKind::Dor,
                RoutingKind::Valiant,
                RoutingKind::Romm,
                RoutingKind::MinAdaptive,
            ] {
                let nodes = topo.num_nodes();
                let cfg = NetConfig::baseline()
                    .with_topology(topo)
                    .with_routing(routing)
                    .with_vcs(4)
                    .with_vc_buf(4);
                if cfg.validate().is_err() {
                    continue; // combination needs more VCs than this sweep uses
                }
                let mut sends = Vec::new();
                let mut rng = crate::rng::SimRng::new(5);
                for i in 0..300 {
                    sends.push((i % 30, rng.below(nodes), rng.below(nodes), 1));
                }
                let total = sends.len();
                let mut net = Network::new(cfg).unwrap();
                let mut b = Script::new(sends);
                assert!(net.drain(&mut b, 200_000), "drain failed for {topo:?} {routing:?}");
                assert_eq!(b.delivered.len(), total, "{topo:?} {routing:?}");
            }
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let mut sends = Vec::new();
            let mut rng = crate::rng::SimRng::new(123);
            for i in 0..200 {
                sends.push((i % 20, rng.below(16), rng.below(16), 1));
            }
            let cfg = mesh_cfg().with_routing(RoutingKind::Valiant).with_seed(99);
            let mut net = Network::new(cfg).unwrap();
            let mut b = Script::new(sends);
            net.drain(&mut b, 100_000);
            let mut log: Vec<(usize, u64, Cycle)> =
                b.delivered.iter().map(|(n, d, t)| (*n, d.uid, *t)).collect();
            log.sort_unstable();
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pipeline_stats_expose_bottlenecks() {
        // starved buffers (q=1) make credit stalls the dominant event;
        // roomy buffers (q=8) mostly eliminate them at the same traffic
        let run = |q: usize| {
            let mut sends = Vec::new();
            let mut rng = crate::rng::SimRng::new(17);
            for i in 0..400 {
                sends.push((i % 40, rng.below(16), rng.below(16), 2u16));
            }
            let mut net = Network::new(mesh_cfg().with_vc_buf(q)).unwrap();
            let mut b = Script::new(sends);
            assert!(net.drain(&mut b, 200_000));
            net.pipeline_stats()
        };
        let starved = run(1);
        let roomy = run(8);
        assert!(starved.sa_grants > 0 && starved.va_grants > 0);
        assert_eq!(starved.sa_grants, roomy.sa_grants, "same traffic, same flit-hops");
        assert!(
            starved.sa_credit_starved > 5 * roomy.sa_credit_starved.max(1),
            "q=1 must be credit-bound: {} vs {}",
            starved.sa_credit_starved,
            roomy.sa_credit_starved
        );
    }

    #[test]
    fn delivery_digest_fingerprints_runs() {
        let run = |seed: u64| {
            let mut sends = Vec::new();
            let mut rng = crate::rng::SimRng::new(7);
            for i in 0..150 {
                sends.push((i % 15, rng.below(16), rng.below(16), 1u16));
            }
            // Valiant so the seed actually affects routing decisions
            let cfg = mesh_cfg().with_routing(RoutingKind::Valiant).with_vcs(4).with_seed(seed);
            let mut net = Network::new(cfg).unwrap();
            let mut b = Script::new(sends);
            net.drain(&mut b, 100_000);
            net.stats().delivery_digest
        };
        assert_eq!(run(1), run(1), "same seed, same digest");
        assert_ne!(run(1), run(2), "different seed, different digest");
        assert_ne!(run(1), DIGEST_SEED, "digest moved off the seed value");
    }

    #[test]
    fn traffic_matrix_records_sources_and_destinations() {
        let mut net = Network::new(mesh_cfg()).unwrap();
        net.enable_traffic_matrix();
        let mut b = Script::new(vec![(0, 0, 3, 1), (0, 0, 3, 1), (1, 2, 1, 1)]);
        net.drain(&mut b, 1000);
        let m = net.traffic_matrix().unwrap();
        assert_eq!(m[3], 2); // 0 -> 3
        assert_eq!(m[2 * 16 + 1], 1); // 2 -> 1
        assert_eq!(m.iter().sum::<u64>(), 3);
    }

    #[test]
    fn stats_count_flits() {
        let mut net = Network::new(mesh_cfg()).unwrap();
        let mut b = Script::new(vec![(0, 0, 3, 4), (0, 1, 2, 2)]);
        net.drain(&mut b, 1000);
        assert_eq!(net.stats().flits_injected, 6);
        assert_eq!(net.stats().flits_ejected, 6);
        assert_eq!(net.stats().packets_injected, 2);
        assert_eq!(net.stats().packets_delivered, 2);
        assert_eq!(net.stats().node_injected[0], 4);
        assert_eq!(net.stats().node_delivered[3], 4);
    }

    /// The engine moves flits by slab id; any `Packet::clone` on the
    /// per-cycle path is a performance bug. Debug builds count clones
    /// (see [`crate::flit::packet_clones`]) — pin the count at zero
    /// across a busy multi-topology run.
    #[cfg(debug_assertions)]
    #[test]
    fn engine_never_clones_packets() {
        let before = crate::flit::packet_clones();
        let mut sends = Vec::new();
        let mut rng = crate::rng::SimRng::new(31);
        for i in 0..300 {
            sends.push((i % 30, rng.below(16), rng.below(16), 1 + rng.below(4) as u16));
        }
        let cfg = mesh_cfg().with_routing(RoutingKind::Valiant).with_vcs(4);
        let mut net = Network::new(cfg).unwrap();
        let mut b = Script::new(sends);
        assert!(net.drain(&mut b, 100_000));
        assert_eq!(
            crate::flit::packet_clones() - before,
            0,
            "the engine cloned packet state on the hot path"
        );
    }

    #[test]
    fn link_loads_reflect_path() {
        let mut net = Network::new(mesh_cfg()).unwrap();
        let mut b = Script::new(vec![(0, 0, 2, 1)]);
        net.drain(&mut b, 1000);
        let loads = net.link_loads();
        let used: Vec<_> = loads.iter().filter(|(_, c)| *c > 0).collect();
        // 0 -> 1 -> 2 under DOR: exactly two links carry the flit
        assert_eq!(used.len(), 2);
    }

    // ---- quiescent-cycle fast-forward ---------------------------------

    /// With a large router delay the lone packet spends most of its
    /// flight on links with every router idle; fast-forward must cover
    /// those stretches in one step each while delivery timing stays
    /// cycle-exact.
    #[test]
    fn fast_forward_skips_quiescent_cycles_exactly() {
        let mut net = Network::new(mesh_cfg().with_router_delay(8)).unwrap();
        let mut b = Script::new(vec![(0, 0, 3, 1)]);
        let mut steps = 0usize;
        while b.delivered.is_empty() {
            net.step(&mut b);
            steps += 1;
            assert!(steps < 100, "packet never delivered");
        }
        let (_, d, t) = &b.delivered[0];
        assert_eq!(t - d.birth, 35, "same latency as the no-skip path (tr=8 analytic)");
        assert!(
            steps < 36,
            "fast-forward must use fewer steps than cycles (took {steps} steps for 36 cycles)"
        );
        assert_eq!(net.cycle(), t + 1, "delivery step ends one past the delivery cycle");
    }

    /// Fast-forward lands exactly on the next link or NI ready time —
    /// every observable (deliveries, digest, final cycle) matches a
    /// reference run stepped one cycle at a time.
    #[test]
    fn fast_forward_matches_reference_observables() {
        let run = |reference: bool| {
            let mut net = Network::new(mesh_cfg().with_router_delay(4)).unwrap();
            let mut b = Script::new(vec![(0, 0, 3, 2), (3, 1, 2, 1), (9, 5, 5, 1)]);
            let mut steps = 0;
            while !(net.is_idle() && b.quiescent()) {
                if reference {
                    net.try_step_reference(&mut b).unwrap();
                } else {
                    net.step(&mut b);
                }
                steps += 1;
                assert!(steps < 10_000);
            }
            let log: Vec<(usize, u64, Cycle)> =
                b.delivered.iter().map(|(n, d, t)| (*n, d.uid, *t)).collect();
            (net.stats().delivery_digest, net.cycle(), log)
        };
        let (fast_digest, fast_cycle, fast_log) = run(false);
        let (ref_digest, ref_cycle, ref_log) = run(true);
        assert_eq!(fast_log, ref_log, "same deliveries at the same cycles");
        assert_eq!(fast_digest, ref_digest, "bit-identical digest");
        assert_eq!(fast_cycle, ref_cycle, "drain ends on the same cycle");
    }

    /// A drained network with no scheduled event must not jump: each
    /// step advances exactly one cycle (there is nothing to jump to).
    #[test]
    fn drained_network_steps_one_cycle_at_a_time() {
        let mut net = Network::new(mesh_cfg()).unwrap();
        let mut b = Script::new(vec![]);
        net.step(&mut b);
        assert_eq!(net.cycle(), 1);
        net.step(&mut b);
        assert_eq!(net.cycle(), 2);
    }

    /// `run(cycles)` must advance exactly `cycles` even when
    /// fast-forward is active mid-run (the jump is capped at the
    /// target).
    #[test]
    fn run_lands_exactly_on_target_with_fast_forward() {
        let mut net = Network::new(mesh_cfg().with_router_delay(8)).unwrap();
        let mut b = Script::new(vec![(0, 0, 3, 1)]);
        net.run(500, &mut b);
        assert_eq!(net.cycle(), 500);
        assert!(net.is_idle());
        net.run(7, &mut b);
        assert_eq!(net.cycle(), 507);
    }

    /// The metrics collector observes every cycle, so enabling it must
    /// disable the skip: delivering the same packet takes one step per
    /// cycle.
    #[test]
    fn metrics_disable_fast_forward() {
        let mut net = Network::new(mesh_cfg().with_router_delay(8).with_metrics(64)).unwrap();
        let mut b = Script::new(vec![(0, 0, 3, 1)]);
        let mut steps = 0u64;
        while b.delivered.is_empty() {
            net.step(&mut b);
            steps += 1;
            assert!(steps < 100);
        }
        let (_, _, t) = &b.delivered[0];
        assert_eq!(steps, t + 1, "metrics-on path steps every cycle");
    }
}
