//! Wall-clock phase summaries — for the harness boundary only.
//!
//! Simulated time lives in the cycle domain; a [`PhaseProfile`] measures the
//! *simulator* (points per second, worker utilization). The harness fills
//! it from [`crate::Profiler::now_us`] timestamps, the same clock its spans
//! use; `svard-lint`'s determinism rule forbids `now_us` inside simulation
//! crates unless the call site carries an explicit
//! `// lint: allow(determinism) -- <reason>` suppression, which keeps every
//! wall-clock ingress greppable and justified.

/// Wall-clock profile of one harness phase (e.g. `alone`, `baseline`,
/// `sweep`): elapsed span, task count, and summed per-task busy time across
/// however many worker threads ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    /// Phase label.
    pub phase: &'static str,
    /// Wall-clock seconds for the whole phase span.
    pub wall_seconds: f64,
    /// Tasks completed within the span.
    pub tasks: usize,
    /// Sum of per-task busy seconds across all workers.
    pub busy_seconds: f64,
    /// Worker threads the phase ran with.
    pub threads: usize,
}

impl PhaseProfile {
    /// Fraction of total worker capacity (threads x wall span) spent busy,
    /// in `[0, 1]` (clamped; timer granularity can nudge it past 1).
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_seconds * self.threads.max(1) as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / capacity).min(1.0)
        }
    }

    /// Tasks completed per wall-clock second (0 for an empty span).
    pub fn tasks_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.tasks as f64 / self.wall_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_busy_over_capacity() {
        let p = PhaseProfile {
            phase: "sweep",
            wall_seconds: 2.0,
            tasks: 8,
            busy_seconds: 6.0,
            threads: 4,
        };
        assert!((p.utilization() - 0.75).abs() < 1e-9);
        assert!((p.tasks_per_second() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_spans_do_not_divide_by_zero() {
        let p = PhaseProfile {
            phase: "empty",
            wall_seconds: 0.0,
            tasks: 0,
            busy_seconds: 0.0,
            threads: 0,
        };
        assert_eq!(p.utilization(), 0.0);
        assert_eq!(p.tasks_per_second(), 0.0);
    }
}
