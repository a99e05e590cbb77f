//! Bounded, cycle-stamped event tracing.
//!
//! A [`TraceBuffer`] is a preallocated ring: pushing is allocation-free and
//! overwrites the oldest event once full (the drop count is kept). Because
//! events are stamped with the simulation cycle — never wall-clock time —
//! and pushed in deterministic simulation order, the drained JSONL stream
//! is a pure function of the workload.

use crate::catalog::EventKind;
use crate::json::Quoted;

/// One cycle-stamped event. Payload semantics per [`EventKind`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle at which the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload field (see [`EventKind`]).
    pub a: u64,
    /// Second payload field.
    pub b: u64,
    /// Third payload field.
    pub c: u64,
}

impl TraceEvent {
    /// One JSONL line (no trailing newline). Hand-rendered in a pinned
    /// member order; see [`crate::json`].
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"cycle\":{},\"event\":{},\"a\":{},\"b\":{},\"c\":{}}}",
            self.cycle,
            Quoted(self.kind.name()),
            self.a,
            self.b,
            self.c
        )
    }
}

/// A bounded ring of [`TraceEvent`]s. Keeps the most recent `capacity`
/// events; older ones are overwritten and counted in `dropped`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the slot the next push overwrites once the ring is full.
    next: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` events (0 disables recording).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            events: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    /// Append an event, overwriting the oldest if full. Never allocates
    /// after construction.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            if let Some(slot) = self.events.get_mut(self.next) {
                *slot = event;
            }
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten (or rejected by a zero-capacity ring) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.events.split_at(self.next.min(self.events.len()));
        head.iter().chain(tail.iter())
    }

    /// Drain the retained events to JSON-lines, oldest first, one event per
    /// line, trailing newline after every line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.iter() {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            kind: EventKind::CmdIssued,
            a: cycle * 2,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut buf = TraceBuffer::new(3);
        for cycle in 0..5 {
            buf.push(ev(cycle));
        }
        let cycles: Vec<u64> = buf.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        assert_eq!(buf.dropped(), 2);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn partial_fill_preserves_order() {
        let mut buf = TraceBuffer::new(8);
        for cycle in 0..3 {
            buf.push(ev(cycle));
        }
        let cycles: Vec<u64> = buf.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut buf = TraceBuffer::new(0);
        buf.push(ev(1));
        assert!(buf.is_empty());
        assert_eq!(buf.dropped(), 1);
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut buf = TraceBuffer::new(4);
        buf.push(ev(7));
        let text = buf.to_jsonl();
        assert_eq!(
            text,
            "{\"cycle\":7,\"event\":\"cmd_issued\",\"a\":14,\"b\":0,\"c\":0}\n"
        );
    }
}
