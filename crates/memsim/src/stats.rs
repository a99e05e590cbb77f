//! Memory-system statistics.

use svard_obs::MetricsSnapshot;

/// Cumulative counters of one [`crate::MemorySystem`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand read requests completed.
    pub reads_completed: u64,
    /// Write requests completed (drained to DRAM).
    pub writes_completed: u64,
    /// Requests that hit an already-open row.
    pub row_hits: u64,
    /// Requests that found the bank precharged.
    pub row_misses: u64,
    /// Requests that had to close another open row first.
    pub row_conflicts: u64,
    /// Row activations issued for demand requests.
    pub activations: u64,
    /// Periodic (tREFI) refresh commands issued.
    pub refreshes: u64,
    /// Preventive victim-row refreshes requested by the defense.
    pub preventive_refreshes: u64,
    /// Row migrations (AQUA) executed.
    pub row_migrations: u64,
    /// Row swaps (RRS) executed.
    pub row_swaps: u64,
    /// Extra column accesses (e.g. Hydra counter traffic) executed.
    pub extra_accesses: u64,
    /// Scheduling opportunities lost because the target row was throttled.
    pub throttle_stalls: u64,
    /// Sum of read latencies (cycles), for average-latency reporting.
    pub total_read_latency: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl MemStats {
    /// Total demand requests completed.
    pub fn requests_completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Row-buffer hit rate over demand requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Average read latency in cycles.
    pub fn average_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads_completed as f64
        }
    }

    /// Total preventive-action work (refreshes + migrations + swaps), a proxy for
    /// defense overhead.
    pub fn preventive_work(&self) -> u64 {
        self.preventive_refreshes + 2 * self.row_migrations + 4 * self.row_swaps
    }

    /// These counters as a mergeable [`MetricsSnapshot`] (names `mem.*`),
    /// the single reduction path shared with sink-recorded metrics.
    pub fn to_metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, value) in self.metric_pairs() {
            snap.add_counter(name, value);
        }
        snap
    }

    /// Every counter name [`MemStats::to_metrics`] can export.
    pub fn metric_names() -> [&'static str; 14] {
        MemStats::default().metric_pairs().map(|(name, _)| name)
    }

    fn metric_pairs(&self) -> [(&'static str, u64); 14] {
        [
            ("mem.reads_completed", self.reads_completed),
            ("mem.writes_completed", self.writes_completed),
            ("mem.row_hits", self.row_hits),
            ("mem.row_misses", self.row_misses),
            ("mem.row_conflicts", self.row_conflicts),
            ("mem.activations", self.activations),
            ("mem.refreshes", self.refreshes),
            ("mem.preventive_refreshes", self.preventive_refreshes),
            ("mem.row_migrations", self.row_migrations),
            ("mem.row_swaps", self.row_swaps),
            ("mem.extra_accesses", self.extra_accesses),
            ("mem.throttle_stalls", self.throttle_stalls),
            ("mem.total_read_latency", self.total_read_latency),
            ("mem.cycles", self.cycles),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = MemStats {
            reads_completed: 10,
            writes_completed: 5,
            row_hits: 6,
            row_misses: 2,
            row_conflicts: 2,
            total_read_latency: 500,
            ..Default::default()
        };
        assert_eq!(s.requests_completed(), 15);
        assert!((s.row_hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.average_read_latency() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = MemStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.average_read_latency(), 0.0);
        assert_eq!(s.preventive_work(), 0);
    }
}
