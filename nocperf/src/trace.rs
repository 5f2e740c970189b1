//! In-memory span recorder for the traced run, and the forwarding
//! [`NodeBehavior`] wrapper that times behaviour callbacks.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions; nothing inside the crates is hooked.
//! Point-level and coarser work gets one span per call. Calls below the
//! point level (behaviour callbacks, drain-loop steps) are aggregated
//! as a count and a total under the span that issued them, which keeps
//! memory bounded however long a run is.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use noc_sim::{Cycle, Delivered, NodeBehavior, PacketSpec};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (crate name) the call went into.
    pub layer: &'static str,
    /// Function or phase name.
    pub name: &'static str,
    /// Request or point id the span belongs to.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Recording thread (spans of one grid worker share it).
    pub thread: u64,
    /// Start and end, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// `0` while the span is open.
    pub end_ns: u64,
}

/// Calls below the point level: a count and their summed duration.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Layer the calls went into.
    pub layer: &'static str,
    /// Call name.
    pub name: &'static str,
    /// Span that issued the calls.
    pub parent: usize,
    /// Number of calls.
    pub count: u64,
    /// Summed duration of the calls.
    pub total_ns: u64,
}

/// Thread-safe span store. Spans stay in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    aggregates: Mutex<Vec<Aggregate>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::default(), aggregates: Mutex::default() }
    }
}

fn thread_tag() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            layer,
            name,
            id,
            parent,
            thread: thread_tag(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking recorder");
        spans.push(span);
        spans.len() - 1
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&self, span: usize) {
        let end = self.now_ns().max(1);
        self.spans.lock().expect("span store poisoned by a panicking recorder")[span].end_ns = end;
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            layer,
            name,
            id,
            parent,
            thread: thread_tag(),
            start_ns: ns(start),
            end_ns: ns(end).max(1),
        };
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking recorder");
        spans.push(span);
        spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let s = self.open(layer, name, id, parent);
        let r = f(s);
        self.close(s);
        r
    }

    /// Record `count` calls totalling `total_ns` under `parent`.
    pub fn aggregate(&self, layer: &'static str, name: &'static str, parent: usize, acc: Acc) {
        if acc.count > 0 {
            self.aggregates.lock().expect("aggregate store poisoned").push(Aggregate {
                layer,
                name,
                parent,
                count: acc.count,
                total_ns: acc.ns,
            });
        }
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> (Vec<Span>, Vec<Aggregate>) {
        (
            self.spans.lock().expect("span store poisoned").clone(),
            self.aggregates.lock().expect("aggregate store poisoned").clone(),
        )
    }
}

/// Count and total duration of a group of calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Calls.
    pub count: u64,
    /// Summed nanoseconds.
    pub ns: u64,
}

impl Acc {
    fn add(&mut self, since: Instant) {
        self.count += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// Duration of span `i` minus the part of its interval that its child
/// spans cover (overlapping children count once) and minus the total of
/// its aggregated calls, which run one after another inside it.
pub fn self_ns(spans: &[Span], aggregates: &[Aggregate], i: usize) -> u64 {
    let (lo, hi) = (spans[i].start_ns, spans[i].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.max(lo), s.end_ns.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    let agg: u64 = aggregates.iter().filter(|a| a.parent == i).map(|a| a.total_ns).sum();
    (hi - lo).saturating_sub(covered).saturating_sub(agg)
}

/// Read access to the behaviour behind a (possibly timing) wrapper, so
/// one stepping loop serves traced and untraced runs.
pub trait Peek<T> {
    /// The wrapped behaviour.
    fn peek(&self) -> &T;
}

impl<T> Peek<T> for T {
    fn peek(&self) -> &T {
        self
    }
}

impl<T> Peek<T> for Timed<'_, T> {
    fn peek(&self) -> &T {
        self.inner
    }
}

/// Forwarding wrapper that times each behaviour callback. Every method
/// of [`NodeBehavior`] is forwarded, `generate` and `quiescent`
/// included: the engine's batched generation and fast-forward decisions
/// must see the wrapped behaviour exactly as they would see it bare.
pub struct Timed<'a, T> {
    inner: &'a mut T,
    pull: Acc,
    deliver: Acc,
    generate: Acc,
    quiescent: Cell<Acc>,
}

impl<'a, T: NodeBehavior> Timed<'a, T> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut T) -> Self {
        Self {
            inner,
            pull: Acc::default(),
            deliver: Acc::default(),
            generate: Acc::default(),
            quiescent: Cell::default(),
        }
    }

    /// Record the callbacks timed since the last flush under `parent`
    /// as layer `layer`, and reset the counters.
    pub fn flush(&mut self, tracer: &Tracer, layer: &'static str, parent: usize) {
        tracer.aggregate(layer, "pull", parent, std::mem::take(&mut self.pull));
        tracer.aggregate(layer, "deliver", parent, std::mem::take(&mut self.deliver));
        tracer.aggregate(layer, "generate", parent, std::mem::take(&mut self.generate));
        tracer.aggregate(layer, "quiescent", parent, self.quiescent.take());
    }
}

impl<T: NodeBehavior> NodeBehavior for Timed<'_, T> {
    fn pull(&mut self, node: usize, cycle: Cycle) -> Option<PacketSpec> {
        let t = Instant::now();
        let r = self.inner.pull(node, cycle);
        self.pull.add(t);
        r
    }

    fn deliver(&mut self, node: usize, delivered: &Delivered, cycle: Cycle) {
        let t = Instant::now();
        self.inner.deliver(node, delivered, cycle);
        self.deliver.add(t);
    }

    fn quiescent(&self) -> bool {
        let t = Instant::now();
        let r = self.inner.quiescent();
        let mut acc = self.quiescent.get();
        acc.add(t);
        self.quiescent.set(acc);
        r
    }

    fn generate(&mut self, nodes: usize, cycle: Cycle, sink: &mut dyn FnMut(usize, PacketSpec)) {
        let t = Instant::now();
        self.inner.generate(nodes, cycle, sink);
        self.generate.add(t);
    }
}

/// Summed self time of the spans of `layer` named in `names`, in seconds.
pub fn self_s(spans: &[Span], aggregates: &[Aggregate], layer: &str, names: &[&str]) -> f64 {
    (0..spans.len())
        .filter(|&i| spans[i].layer == layer && names.contains(&spans[i].name))
        .map(|i| self_ns(spans, aggregates, i))
        .sum::<u64>() as f64
        * 1e-9
}

/// Summed duration of the spans of `layer` named `name`, in seconds.
pub fn total_s(spans: &[Span], layer: &str, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum::<u64>() as f64
        * 1e-9
}

/// Summed duration of the aggregated calls into `layer`, in seconds.
pub fn aggregated_s(aggregates: &[Aggregate], layer: &str) -> f64 {
    aggregates.iter().filter(|a| a.layer == layer).map(|a| a.total_ns).sum::<u64>() as f64 * 1e-9
}

/// Write every span and aggregate, one JSON object a line.
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[Span],
    aggregates: &[Aggregate],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
             \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.layer, s.name, s.id, s.thread, s.start_ns, s.end_ns
        )?;
    }
    for a in aggregates {
        writeln!(
            out,
            "{{\"aggregate\": true, \"layer\": \"{}\", \"name\": \"{}\", \"parent\": {}, \
             \"count\": {}, \"total_ns\": {}}}",
            a.layer, a.name, a.parent, a.count, a.total_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { layer: "l", name: "n", id: 0, parent, thread: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): together they cover 50, not 60; a child sticking out
        // past the parent ([90, 120)) counts only its inside part
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_ns(&spans, &[], 0), 100 - 50 - 10);
        // a grandchild does not count against the grandparent
        let mut deeper = spans.clone();
        deeper.push(span(70, 80, Some(1)));
        assert_eq!(self_ns(&deeper, &[], 0), 40);
        assert_eq!(self_ns(&deeper, &[], 1), 30);
    }

    #[test]
    fn self_time_subtracts_aggregated_calls() {
        let spans = vec![span(0, 100, None), span(0, 20, Some(0))];
        let agg = vec![
            Aggregate { layer: "b", name: "deliver", parent: 0, count: 5, total_ns: 30 },
            Aggregate { layer: "b", name: "pull", parent: 1, count: 5, total_ns: 7 },
        ];
        assert_eq!(self_ns(&spans, &agg, 0), 100 - 20 - 30);
        assert_eq!(self_ns(&spans, &agg, 1), 13);
        // never negative
        let heavy = vec![Aggregate { layer: "b", name: "x", parent: 1, count: 1, total_ns: 99 }];
        assert_eq!(self_ns(&spans, &heavy, 1), 0);
    }
}
