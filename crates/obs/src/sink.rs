//! Observation sinks: the generic seam between simulators and metrics.
//!
//! Simulation structs take an `S: ObsSink` type parameter defaulting to
//! [`NoopSink`]. Every recording call is guarded by `S::ENABLED`, and the
//! no-op methods are empty and `#[inline]`, so the disabled configuration
//! compiles to nothing — the bench suite verifies ~zero cost.
//!
//! [`Collect`] is the object-safe subset used by pull-style reporters
//! (e.g. `MitigationHook::report_obs` takes `&mut dyn Collect` once per
//! run, at snapshot time, keeping defenses free of per-activation cost).

use crate::catalog::{Counter, EventKind, Gauge, Hist};
use crate::metrics::{Histogram, MetricsSnapshot};
use crate::trace::{TraceBuffer, TraceEvent};

/// Object-safe metric recording: counters, high-water gauges, histograms.
pub trait Collect {
    /// Add `delta` to a counter.
    fn counter(&mut self, c: Counter, delta: u64);
    /// Raise a gauge to at least `value`.
    fn gauge_max(&mut self, g: Gauge, value: u64);
    /// Record one histogram value.
    fn observe(&mut self, h: Hist, value: u64);
}

/// A full observation sink: metrics plus cycle-stamped events, consumed
/// through generics so the disabled path costs nothing.
pub trait ObsSink: Collect {
    /// Whether this sink records anything. Recording call sites guard with
    /// `if S::ENABLED { ... }` so payload computation is also skipped.
    const ENABLED: bool;

    /// Record a cycle-stamped event.
    fn event(&mut self, cycle: u64, kind: EventKind, a: u64, b: u64, c: u64);

    /// Freeze everything recorded so far into a snapshot.
    fn snapshot(&self) -> MetricsSnapshot;
}

/// The default sink: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl Collect for NoopSink {
    #[inline(always)]
    fn counter(&mut self, _c: Counter, _delta: u64) {}
    #[inline(always)]
    fn gauge_max(&mut self, _g: Gauge, _value: u64) {}
    #[inline(always)]
    fn observe(&mut self, _h: Hist, _value: u64) {}
}

impl ObsSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _cycle: u64, _kind: EventKind, _a: u64, _b: u64, _c: u64) {}

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

/// Default event-ring capacity for a [`Recorder`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A recording sink: preallocated counter/gauge/histogram slots indexed by
/// the dense catalogue enums, plus one ring of events. Every event is
/// canonical (`diag.` diagnostics are metrics only), so the ring is
/// identical between fast-forward and per-cycle runs even under overflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hists: Vec<Histogram>,
    trace: TraceBuffer,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl Recorder {
    /// A recorder with the default trace capacity.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A recorder whose event ring holds at most `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Recorder {
            counters: vec![0; Counter::COUNT],
            gauges: vec![0; Gauge::COUNT],
            hists: vec![Histogram::default(); Hist::COUNT],
            trace: TraceBuffer::new(capacity),
        }
    }

    /// The event ring.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The recorded events as JSON-lines, oldest first.
    pub fn trace_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }
}

impl Collect for Recorder {
    #[inline]
    fn counter(&mut self, c: Counter, delta: u64) {
        if let Some(slot) = self.counters.get_mut(c as usize) {
            *slot += delta;
        }
    }

    #[inline]
    fn gauge_max(&mut self, g: Gauge, value: u64) {
        if let Some(slot) = self.gauges.get_mut(g as usize) {
            if value > *slot {
                *slot = value;
            }
        }
    }

    #[inline]
    fn observe(&mut self, h: Hist, value: u64) {
        if let Some(slot) = self.hists.get_mut(h as usize) {
            slot.observe(value);
        }
    }
}

impl ObsSink for Recorder {
    const ENABLED: bool = true;

    #[inline]
    fn event(&mut self, cycle: u64, kind: EventKind, a: u64, b: u64, c: u64) {
        self.trace.push(TraceEvent {
            cycle,
            kind,
            a,
            b,
            c,
        });
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (kind, value) in Counter::ALL.iter().zip(self.counters.iter()) {
            if *value > 0 {
                snap.counters.insert(kind.name(), *value);
            }
        }
        for (kind, value) in Gauge::ALL.iter().zip(self.gauges.iter()) {
            if *value > 0 {
                snap.gauges.insert(kind.name(), *value);
            }
        }
        for (kind, hist) in Hist::ALL.iter().zip(self.hists.iter()) {
            if hist.count() > 0 {
                snap.hists.insert(kind.name(), hist.snapshot());
            }
        }
        if self.trace.dropped() > 0 {
            snap.counters
                .insert(Counter::DiagTraceDropped.name(), self.trace.dropped());
        }
        snap
    }
}

/// A [`MetricsSnapshot`] is itself a collector, which lets pull-style
/// reporters (`report_obs(&mut dyn Collect)`) write straight into the
/// frozen view at snapshot time.
impl Collect for MetricsSnapshot {
    fn counter(&mut self, c: Counter, delta: u64) {
        self.add_counter(c.name(), delta);
    }

    fn gauge_max(&mut self, g: Gauge, value: u64) {
        if value > 0 {
            self.raise_gauge(g.name(), value);
        }
    }

    fn observe(&mut self, h: Hist, value: u64) {
        self.hists.entry(h.name()).or_default().observe(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_snapshot_reflects_recorded_values() {
        let mut r = Recorder::new();
        r.counter(Counter::MemCmdIssued, 3);
        r.counter(Counter::MemCmdIssued, 2);
        r.gauge_max(Gauge::MemReadQueuePeak, 4);
        r.gauge_max(Gauge::MemReadQueuePeak, 2);
        r.observe(Hist::MemReadLatency, 100);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mem.cmd_issued"), 5);
        assert_eq!(snap.gauge("mem.read_queue_peak"), 4);
        assert_eq!(snap.hists.get("mem.read_latency").map(|h| h.count), Some(1));
    }

    #[test]
    fn noop_sink_snapshot_is_empty() {
        let mut s = NoopSink;
        s.counter(Counter::MemCmdIssued, 99);
        s.event(1, EventKind::CmdIssued, 0, 0, 0);
        assert_eq!(s.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn snapshot_collector_matches_recorder_for_metrics() {
        let drive = |c: &mut dyn Collect| {
            c.counter(Counter::DefenseSwaps, 7);
            c.gauge_max(Gauge::DefenseTrackerOccupancy, 12);
            c.observe(Hist::MemReadQueueDepth, 3);
        };
        let mut r = Recorder::new();
        drive(&mut r);
        let mut direct = MetricsSnapshot::default();
        drive(&mut direct);
        assert_eq!(r.snapshot(), direct);
    }
}
