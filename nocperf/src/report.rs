//! Metric names and units, the percentile rule, failure accounting and
//! the result line.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), in report order. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("noc-sim.self_s", "s"),
    ("noc-sim.ns_per_flit_hop", "ns"),
    ("noc-sim.flit_hops", "count"),
    ("noc-sim.cycles", "count"),
    ("noc-sim.cycles_per_s", "1/s"),
    ("noc-sim.setup_s", "s"),
    ("noc-sim.ff_cycle_ratio", "ratio"),
    ("noc-sim.va_block_ratio", "ratio"),
    ("noc-sim.sa_conflict_ratio", "ratio"),
    ("noc-sim.speedup_vs_reference", "ratio"),
    ("noc-openloop.behavior_s", "s"),
    ("noc-openloop.packets", "count"),
    ("noc-openloop.ns_per_packet", "ns"),
    ("noc-closedloop.behavior_s", "s"),
    ("noc-closedloop.transactions", "count"),
    ("cmp-sim.behavior_s", "s"),
    ("cmp-sim.instructions", "count"),
    ("cmp-sim.instructions_per_s", "1/s"),
    ("noc-exp.point_wall_p50_s", "s"),
    ("noc-exp.point_wall_max_s", "s"),
    ("noc-exp.busy_ratio", "ratio"),
    ("noc-exp.tail_s", "s"),
    ("noc-serve.replay_s", "s"),
    ("noc-serve.replay_records", "count"),
    ("noc-serve.hit_latency_p50_us", "us"),
    ("noc-serve.eval_latency_p50_ms", "ms"),
    ("noc-serve.cache_hit_ratio", "ratio"),
    ("noc-serve.degraded_ratio", "ratio"),
    ("noc-serve.wal_records_appended", "count"),
    ("noc-serve.wal_bytes_appended", "bytes"),
    ("noc-serve.eval_s", "s"),
    ("noc-serve.overhead_ratio", "ratio"),
    ("noc-analytic.model_build_us", "us"),
    ("noc-analytic.admission_degraded", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `q`-th percentile (nearest rank), refused (`None`) unless at
/// least ten samples lie beyond it: a p99 needs 1000 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let beyond = n as f64 * (100.0 - q) / 100.0;
    if n == 0 || beyond < 10.0 - 1e-9 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(s[rank - 1])
}

/// Operations attempted and failed. A failure is a shed, timeout,
/// panicked, invalid or missing answer, or an output-check mismatch;
/// each mismatch is one failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, for the human-readable report.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Failures ÷ attempts.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident memory of this process in MiB, without file-backed
/// and shared pages: `VmHWM − RssFile − RssShmem`. The file-backed part
/// (executable, libraries) is half of a few MiB here and follows the
/// page cache, not the program.
pub fn peak_rss_mb() -> f64 {
    peak_rss_mb_of(&std::fs::read_to_string("/proc/self/status").unwrap_or_default())
}

/// [`peak_rss_mb`] of a `/proc/<pid>/status` text.
pub fn peak_rss_mb_of(status: &str) -> f64 {
    let kb = |field: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (kb("VmHWM:") - kb("RssFile:") - kb("RssShmem:")).max(0.0) / 1024.0
}

/// Metric values of one run, keyed by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0; workloads fill in the layers they use.
pub fn layer_defaults() -> Metrics {
    PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}", num(*v), unit_of(n)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// A human-readable metric table for stderr.
pub fn table(metrics: &Metrics) -> String {
    metrics.iter().map(|(n, v)| format!("  {n:<34} {v:>16.6} {}\n", unit_of(n))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank 990: exactly ten samples (991..=1000) lie beyond it
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn peak_rss_leaves_out_file_backed_pages() {
        let status = "VmPeak:\t  208708 kB\nVmHWM:\t    6756 kB\nVmRSS:\t    6000 kB\n\
                      RssAnon:\t    2828 kB\nRssFile:\t    3172 kB\nRssShmem:\t       0 kB\n";
        assert_eq!(peak_rss_mb_of(status), 3.5);
        assert_eq!(peak_rss_mb_of(""), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_ratio_counts_mismatches() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "digest mismatch".into());
        t.check(true, String::new);
        t.check(false, || "missing result".into());
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.failed_ratio(), 0.5);
        assert_eq!(t.problems, ["digest mismatch", "missing result"]);
        let line = result_json(&t, &Metrics::new());
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 2"), "{line}");
    }
}
