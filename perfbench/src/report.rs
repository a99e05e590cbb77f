//! Metric collection, exact sample statistics and the one-line JSON result.

use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints, with their units. Each
/// is defined for every workload (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A layer
/// that a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cpusim.tick_calls", "count"),
    ("cpusim.busy_s", "s"),
    ("cpusim.llc_hit_rate", "ratio"),
    ("memsim.tick_calls", "count"),
    ("memsim.busy_s", "s"),
    ("memsim.ns_per_sim_cycle", "ns"),
    ("memsim.activations", "count"),
    ("memsim.row_hit_rate", "ratio"),
    ("memsim.preventive_work", "count"),
    ("memsim.ff_skipped_cycle_frac", "ratio"),
    ("defenses.para.calls", "count"),
    ("defenses.para.actions", "count"),
    ("defenses.para.replay_ns_per_call", "ns"),
    ("defenses.para.vacuous_points", "count"),
    ("defenses.blockhammer.calls", "count"),
    ("defenses.blockhammer.actions", "count"),
    ("defenses.blockhammer.replay_ns_per_call", "ns"),
    ("defenses.blockhammer.vacuous_points", "count"),
    ("defenses.hydra.calls", "count"),
    ("defenses.hydra.actions", "count"),
    ("defenses.hydra.replay_ns_per_call", "ns"),
    ("defenses.hydra.vacuous_points", "count"),
    ("defenses.aqua.calls", "count"),
    ("defenses.aqua.actions", "count"),
    ("defenses.aqua.replay_ns_per_call", "ns"),
    ("defenses.aqua.vacuous_points", "count"),
    ("defenses.rrs.calls", "count"),
    ("defenses.rrs.actions", "count"),
    ("defenses.rrs.replay_ns_per_call", "ns"),
    ("defenses.rrs.vacuous_points", "count"),
    ("core.lookup_calls", "count"),
    ("core.lookup_replay_ns_per_call.controller_table", "ns"),
    ("core.lookup_replay_ns_per_call.bloom", "ns"),
    ("core.build_s", "s"),
    ("vulnerability.profile_gen_s", "s"),
    ("system.alone_s", "s"),
    ("system.baseline_s", "s"),
    ("system.sweep_s", "s"),
    ("system.tasks", "count"),
    ("system.worker_utilization", "ratio"),
    ("server.accept_s", "s"),
    ("server.harness_build_s", "s"),
    ("server.queue_wait_p50_s", "s"),
    ("server.journal_fsync_p50_s", "s"),
    ("server.overhead_s_per_job", "s"),
    ("bender.rows_characterized", "count"),
    ("chip.hammer_bursts", "count"),
    ("bender.characterize_s", "s"),
    ("analysis.reverse_engineer_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one run measured: metrics, output-check verdicts and the
/// human-readable lines printed above the result line.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every metric the run measured, in insertion order (names unique).
    pub metrics: Vec<Metric>,
    /// Operations attempted (sweep points, jobs, characterized rows).
    pub attempted: u64,
    /// Failed output checks (the result line caps this at `attempted`).
    pub failed: u64,
    /// Output-check failures, one message each.
    pub problems: Vec<String>,
    /// Free-form lines (digests, configuration) printed before the table.
    pub notes: Vec<String>,
    /// Digest of the run's rendered outputs (of the untraced reference, in a
    /// traced run).
    pub digest: Option<u64>,
}

impl Report {
    /// Set (or overwrite) a metric.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.unit = unit;
                m.value = value;
            }
            None => self.metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
            }),
        }
    }

    /// A metric's value, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a failed output check; the operation counts as failed.
    pub fn problem(&mut self, message: String) {
        self.failed += 1;
        self.problems.push(message);
    }

    /// Record a free-form line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Check the output digest of one repeat of the workload against the
    /// first repeat's, which is kept in [`Report::digest`].
    pub fn check_repeat(&mut self, digest: u64) {
        match self.digest {
            None => {
                self.digest = Some(digest);
                self.note(format!("output digest {digest:016x}"));
            }
            Some(first) if first != digest => self.problem(format!(
                "output digest {digest:016x} differs from the first repeat's {first:016x}"
            )),
            Some(_) => {}
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The human-readable table: notes, then every measured metric as
    /// `name value unit`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for problem in &self.problems {
            let _ = writeln!(out, "# CHECK FAILED: {problem}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The closing JSON line with the `selected` metrics. A selected metric
    /// the run did not measure is printed as 0 when `missing_is_zero`, and
    /// is an output-check failure otherwise.
    pub fn result_line(
        &mut self,
        selected: &[(&str, &'static str)],
        missing_is_zero: bool,
    ) -> String {
        let mut body = String::new();
        for (i, (name, unit)) in selected.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.problem(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if missing_is_zero => 0.0,
                None => {
                    self.problem(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1))
        )
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match (sorted.get(n.saturating_sub(1) / 2), sorted.get(n / 2)) {
        (Some(a), Some(b)) => (a + b) / 2.0,
        _ => 0.0,
    }
}

/// Nearest-rank `q`-quantile of raw samples: the smallest sample with at
/// least `q·n` samples at or below it. Exact (a measured sample, never a
/// bucket bound); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

/// `q`-quantile of a log2-bucket histogram (bucket `i` holds values of bit
/// length `i`), interpolated linearly inside the bucket that holds the rank.
/// The bucket's upper bound alone would read the same on nearly every run.
pub fn hist_quantile(hist: &svard_obs::HistogramSnapshot, q: f64) -> f64 {
    let rank = (q.clamp(0.0, 1.0) * hist.count as f64).max(1.0);
    let mut below = 0.0;
    for (bits, &n) in hist.buckets.iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && below + n >= rank {
            if bits == 0 {
                return 0.0;
            }
            let low = (1u64 << (bits - 1)) as f64;
            return low + low * (rank - below) / n;
        }
        below += n;
    }
    0.0
}

/// FNV-1a 64-bit digest of a sequence of lines (each terminated by `\n`).
pub fn digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &byte in line.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_samples() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let mut hist = svard_obs::HistogramSnapshot::default();
        for v in [4, 5, 6, 7] {
            hist.observe(v);
        }
        // All four values share the bucket [4, 8): the median is half-way.
        assert_eq!(hist_quantile(&hist, 0.5), 6.0);
        assert_eq!(hist_quantile(&hist, 1.0), 8.0);
        assert_eq!(
            hist_quantile(&svard_obs::HistogramSnapshot::default(), 0.5),
            0.0
        );
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", "s", 0.5);
        let line = r.result_line(&[("setup_s", "s"), ("other", "count")], true);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"other\":{\"value\":0,\"unit\":\"count\"}}}"
        );
        let line = r.result_line(&[("missing", "s")], false);
        assert!(line.starts_with("{\"correct\":false"));
    }
}
