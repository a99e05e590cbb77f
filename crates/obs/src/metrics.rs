//! Metric snapshots: mergeable, deterministic, JSON-exportable.
//!
//! The recording side lives in [`crate::sink::Recorder`]; this module holds
//! the frozen view. Snapshots key metrics by their stable catalogue name in
//! `BTreeMap`s, so iteration order — and therefore JSON output — is
//! deterministic, and [`MetricsSnapshot::merge`] is commutative and
//! associative (counters add, gauges take the max, histogram buckets add),
//! which is what keeps future per-bank sharded runs reducible in any order.

use std::collections::BTreeMap;

/// Number of log2 buckets: bucket `i` counts values with bit length `i`
/// (value 0 lands in bucket 0, value `u64::MAX` in bucket 64).
pub const HIST_BUCKETS: usize = 65;

/// A fixed-size log2 histogram used on the recording path. Preallocated;
/// [`Histogram::observe`] never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Record one value.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        if let Some(slot) = self.buckets.get_mut(idx) {
            *slot += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Freeze into a snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.to_vec(),
            count: self.count,
            sum: self.sum,
        }
    }
}

/// A frozen histogram: full bucket vector plus count and sum.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Bucket `i` counts values with bit length `i` (always `HIST_BUCKETS` long).
    pub buckets: Vec<u64>,
    /// Number of recorded values.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Record one value (used when a snapshot doubles as a collector).
    pub fn observe(&mut self, value: u64) {
        if self.buckets.len() < HIST_BUCKETS {
            self.buckets.resize(HIST_BUCKETS, 0);
        }
        let idx = (64 - value.leading_zeros()) as usize;
        if let Some(slot) = self.buckets.get_mut(idx) {
            *slot += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Bucketwise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`q` clamped to `0.0..=1.0`)
    /// from the log2 buckets: the largest value the bucket holding the
    /// rank-`ceil(q·count)` observation can contain. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (log2, n) in self.buckets.iter().enumerate() {
            seen += *n;
            if seen >= rank {
                return match log2 {
                    0 => 0,
                    1..=63 => (1u64 << log2) - 1,
                    _ => u64::MAX,
                };
            }
        }
        u64::MAX
    }
}

/// A frozen, mergeable view of every metric recorded during a run.
///
/// Keys are the stable catalogue names (`mem.*`, `chip.*`, `defense.*`,
/// `diag.*`). The `diag.` namespace is execution-strategy diagnostics;
/// [`MetricsSnapshot::canonical`] strips it so fast-forward and per-cycle
/// runs compare equal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters; merge adds.
    pub counters: BTreeMap<&'static str, u64>,
    /// High-water gauges; merge keeps the max.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Log2 histograms; merge adds bucketwise.
    pub hists: BTreeMap<&'static str, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Add `delta` to the named counter.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        if delta > 0 {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Raise the named gauge to at least `value`.
    pub fn raise_gauge(&mut self, name: &'static str, value: u64) {
        let slot = self.gauges.entry(name).or_insert(0);
        if value > *slot {
            *slot = value;
        }
    }

    /// Record one value into the named histogram, creating it on first use.
    pub fn observe_hist(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().observe(value);
    }

    /// Look up a counter, defaulting to 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Look up a gauge, defaulting to 0.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Merge `other` into `self`: counters add, gauges max, histograms add
    /// bucketwise. Commutative and associative, so sharded runs can reduce
    /// in any order without changing the result.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name).or_insert(0) += *delta;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name).or_insert(0);
            if *value > *slot {
                *slot = *value;
            }
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name).or_default().merge(hist);
        }
    }

    /// A copy with every `diag.`-prefixed entry removed. Canonical snapshots
    /// are a pure function of the simulated workload: identical between
    /// fast-forward and per-cycle runs.
    pub fn canonical(&self) -> MetricsSnapshot {
        let keep = |name: &&'static str| !name.starts_with("diag.");
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, v)| (*n, *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, v)| (*n, *v))
                .collect(),
            hists: self
                .hists
                .iter()
                .filter(|(n, _)| keep(n))
                .map(|(n, h)| (*n, h.clone()))
                .collect(),
        }
    }

    /// Render as one deterministic JSON object. Histograms are emitted as
    /// `{count, sum, buckets: [[log2, n], ...]}` with zero buckets elided.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        push_map(&mut out, &self.counters);
        out.push_str("},\"gauges\":{");
        push_map(&mut out, &self.gauges);
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            ));
            let mut first = true;
            for (log2, n) in h.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("[{log2},{n}]"));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Render as a flat `name value` text exposition, one metric per line.
    /// Counters come first, then gauges, then histograms (each expanded to
    /// `name.count`, `name.sum`, and one `name.bucket.<log2>` line per
    /// non-empty bucket); each group is in `BTreeMap` order, so the output
    /// is deterministic. No terminator is appended — wire framing (e.g. the
    /// server's `# EOF` line) is the transport's job.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, h) in &self.hists {
            out.push_str(&format!("{name}.count {}\n", h.count));
            out.push_str(&format!("{name}.sum {}\n", h.sum));
            for (log2, n) in h.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
                out.push_str(&format!("{name}.bucket.{log2} {n}\n"));
            }
        }
        out
    }
}

fn push_map(out: &mut String, map: &BTreeMap<&'static str, u64>) {
    for (i, (name, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.add_counter("mem.cmd_issued", seed + 1);
        s.add_counter("defense.swaps", seed % 3);
        s.raise_gauge("mem.read_queue_peak", seed * 7 % 13);
        let mut h = Histogram::default();
        for v in 0..seed {
            h.observe(v * v);
        }
        s.hists.insert("mem.read_latency", h.snapshot());
        s
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        h.observe(0); // bucket 0
        h.observe(1); // bucket 1
        h.observe(2); // bucket 2
        h.observe(3); // bucket 2
        h.observe(u64::MAX); // bucket 64
        let snap = h.snapshot();
        assert_eq!(snap.buckets.first().copied(), Some(1));
        assert_eq!(snap.buckets.get(1).copied(), Some(1));
        assert_eq!(snap.buckets.get(2).copied(), Some(2));
        assert_eq!(snap.buckets.get(64).copied(), Some(1));
        assert_eq!(snap.count, 5);
    }

    #[test]
    fn merge_is_commutative() {
        let (a, b) = (sample(5), sample(11));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (sample(2), sample(9), sample(17));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_semantics_per_family() {
        let mut a = MetricsSnapshot::default();
        a.add_counter("mem.cmd_issued", 3);
        a.raise_gauge("mem.read_queue_peak", 9);
        let mut b = MetricsSnapshot::default();
        b.add_counter("mem.cmd_issued", 4);
        b.raise_gauge("mem.read_queue_peak", 2);
        a.merge(&b);
        assert_eq!(a.counter("mem.cmd_issued"), 7);
        assert_eq!(a.gauge("mem.read_queue_peak"), 9);
    }

    #[test]
    fn canonical_strips_diagnostics() {
        let mut s = sample(4);
        s.add_counter("diag.trace.dropped", 10);
        let canon = s.canonical();
        assert_eq!(canon.counter("diag.trace.dropped"), 0);
        assert_eq!(canon.counter("mem.cmd_issued"), s.counter("mem.cmd_issued"));
        assert!(!canon.to_json().contains("diag."));
    }

    #[test]
    fn quantile_returns_bucket_upper_bounds() {
        let mut h = HistogramSnapshot::default();
        for _ in 0..90 {
            h.observe(100); // bucket 7, upper bound 127
        }
        for _ in 0..10 {
            h.observe(5_000); // bucket 13, upper bound 8191
        }
        assert_eq!(h.quantile(0.5), 127);
        assert_eq!(h.quantile(0.9), 127);
        assert_eq!(h.quantile(0.95), 8191);
        assert_eq!(h.quantile(1.0), 8191);
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0);
        let mut zeros = HistogramSnapshot::default();
        zeros.observe(0);
        assert_eq!(zeros.quantile(0.99), 0);
        let mut top = HistogramSnapshot::default();
        top.observe(u64::MAX);
        assert_eq!(top.quantile(0.5), u64::MAX);
    }

    #[test]
    fn observe_hist_creates_and_records() {
        let mut s = MetricsSnapshot::default();
        s.observe_hist("mem.read_latency", 3);
        s.observe_hist("mem.read_latency", 300);
        let h = s.hists.get("mem.read_latency").expect("created");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 303);
    }

    #[test]
    fn text_exposition_is_flat_ordered_and_complete() {
        let mut s = MetricsSnapshot::default();
        s.add_counter("mem.cmd_issued", 7);
        s.raise_gauge("mem.read_queue_peak", 4);
        s.observe_hist("mem.read_latency", 5);
        s.observe_hist("mem.read_latency", 5);
        let text = s.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "mem.cmd_issued 7",
                "mem.read_queue_peak 4",
                "mem.read_latency.count 2",
                "mem.read_latency.sum 10",
                "mem.read_latency.bucket.3 2",
            ]
        );
        assert_eq!(text, s.clone().to_text(), "deterministic");
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let s = sample(5);
        assert_eq!(s.to_json(), s.clone().to_json());
        let json = s.to_json();
        let swaps = json.find("defense.swaps").unwrap_or(usize::MAX);
        let cmds = json.find("mem.cmd_issued").unwrap_or(usize::MAX);
        assert!(swaps < cmds, "BTreeMap order must hold in JSON: {json}");
    }
}
