//! Wall-clock span profiling for the harness, the server and the benchmark.
//!
//! A [`Profiler`] is a cheap-to-clone handle over one shared span store, and
//! [`Profiler::record`] is the only way a span gets into it: the caller takes
//! its interval from [`Profiler::now_us`] and records it with a static name
//! and a free-form argument. Each span is stamped with an id for the thread
//! that recorded it, so an exported trace shows one track per thread. The
//! store is a bounded ring, preallocated up front, that overwrites its oldest
//! span when full and counts the drop.
//!
//! All timestamps are wall-clock microseconds relative to the profiler's
//! epoch. This module is strictly non-sim: spans never touch the simulated
//! clock domain, and a disabled profiler ([`Profiler::disabled`]) still
//! serves monotonic [`Profiler::now_us`] timestamps while recording nothing,
//! so callers can use one timing source whether or not spans are kept.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::json::Json;

/// Default span capacity (see [`Profiler::new`]).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// The store holds this many times a profiler's capacity before it starts
/// overwriting its oldest entries.
const STORE_FACTOR: usize = 16;

/// Source of thread ids, shared by every profiler in the process.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's span track id (never 0), drawn on first use.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One completed wall-clock span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Static catalogue name (e.g. `server.execute`).
    pub name: &'static str,
    /// Unique id (never 0), allocated profiler-wide.
    pub id: u64,
    /// Id of the recording thread (never 0), process-wide.
    pub tid: u64,
    /// Start, microseconds since the profiler epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form argument (point index, connection number, ...).
    pub arg: u64,
}

/// A bounded span ring: overwrites the oldest span when full, counting drops.
#[derive(Debug, Default)]
struct SpanRing {
    spans: Vec<Span>,
    capacity: usize,
    next: usize,
    dropped: u64,
}

impl SpanRing {
    fn new(capacity: usize) -> SpanRing {
        SpanRing {
            spans: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            if let Some(slot) = self.spans.get_mut(self.next) {
                *slot = span;
            }
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Oldest-first iteration order.
    fn iter(&self) -> impl Iterator<Item = &Span> {
        let split = if self.spans.len() < self.capacity {
            0
        } else {
            self.next.min(self.spans.len())
        };
        let (head, tail) = self.spans.split_at(split);
        tail.iter().chain(head.iter())
    }
}

struct ProfilerInner {
    next_id: AtomicU64,
    store: Mutex<SpanRing>,
}

impl ProfilerInner {
    fn store(&self) -> MutexGuard<'_, SpanRing> {
        self.store.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Shared handle to a span store; clones are cheap and record into the same
/// store with consistent timestamps.
#[derive(Clone)]
pub struct Profiler {
    epoch: Instant,
    inner: Option<Arc<ProfilerInner>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Profiler {
    /// A profiler whose store keeps the newest `16 × capacity` spans
    /// (0 behaves like [`Profiler::disabled`]).
    pub fn new(capacity: usize) -> Profiler {
        let inner = (capacity > 0).then(|| {
            Arc::new(ProfilerInner {
                next_id: AtomicU64::new(1),
                store: Mutex::new(SpanRing::new(capacity.saturating_mul(STORE_FACTOR))),
            })
        });
        Profiler {
            epoch: Instant::now(),
            inner,
        }
    }

    /// A profiler that stores nothing. [`Profiler::now_us`] still works, so
    /// disabled and enabled runs share one timing source.
    pub fn disabled() -> Profiler {
        Profiler {
            epoch: Instant::now(),
            inner: None,
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this profiler (and every clone of it) was created.
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Record one span measured by the caller, stamped with the calling
    /// thread's id. A disabled profiler returns at once.
    pub fn record(&self, name: &'static str, start_us: u64, dur_us: u64, arg: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let span = Span {
            name,
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            tid: TID.with(|tid| *tid),
            start_us,
            dur_us,
            arg,
        };
        inner.store().push(span);
    }

    /// A copy of every stored span, sorted by start time (then tid, then id)
    /// for deterministic export.
    pub fn snapshot_spans(&self) -> Vec<Span> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans: Vec<Span> = inner.store().iter().cloned().collect();
        spans.sort_by_key(|s| (s.start_us, s.tid, s.id));
        spans
    }

    /// Spans the full store has overwritten so far.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.store().dropped,
            None => 0,
        }
    }

    /// Render every stored span as Chrome trace-event JSON (complete `"X"`
    /// events, timestamps in microseconds, one track per recording thread),
    /// loadable by `chrome://tracing` and Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.snapshot_spans();
        let events = spans.iter().map(|s| {
            let args = Json::obj([("id", Json::uint(s.id)), ("arg", Json::uint(s.arg))]);
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str("svard")),
                ("ph", Json::str("X")),
                ("ts", Json::uint(s.start_us)),
                ("dur", Json::uint(s.dur_us)),
                ("pid", Json::uint(1)),
                ("tid", Json::uint(s.tid)),
                ("args", args),
            ])
        });
        Json::obj([
            ("traceEvents", Json::Arr(events.collect())),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        // Capacity 1 keeps the newest 16 spans.
        let profiler = Profiler::new(1);
        for i in 0..20u64 {
            profiler.record("server.send", i, 1, i);
        }
        let spans = profiler.snapshot_spans();
        let args: Vec<u64> = spans.iter().map(|s| s.arg).collect();
        assert_eq!(
            args,
            (4..20).collect::<Vec<u64>>(),
            "oldest spans overwritten"
        );
        assert_eq!(profiler.dropped(), 4);
    }

    #[test]
    fn threads_get_distinct_nonzero_tids() {
        let profiler = Profiler::new(16);
        profiler.record("server.accept", 0, 1, 0);
        let other = profiler.clone();
        std::thread::spawn(move || other.record("server.execute", 0, 1, 0))
            .join()
            .expect("recording thread");
        let spans = profiler.snapshot_spans();
        let tid = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.tid)
                .expect("span recorded")
        };
        assert_ne!(tid("server.accept"), 0);
        assert_ne!(tid("server.execute"), 0);
        assert_ne!(tid("server.accept"), tid("server.execute"));
    }

    #[test]
    fn disabled_profiler_records_nothing_but_still_tells_time() {
        let profiler = Profiler::disabled();
        assert!(!profiler.enabled());
        let t0 = profiler.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        profiler.record("server.journal", 0, 1, 0);
        assert!(profiler.snapshot_spans().is_empty());
        assert!(profiler.now_us() >= t0 + 2_000, "time still advances");
        assert_eq!(profiler.dropped(), 0);
    }

    #[test]
    fn chrome_trace_json_is_well_formed_and_sorted() {
        let profiler = Profiler::new(64);
        profiler.record("server.send", 20, 3, 1);
        profiler.record("server.accept", 10, 5, 0);
        profiler.record("server.queue_wait", 15, 4, 2);
        let trace = Json::parse(&profiler.chrome_trace_json()).expect("valid JSON");
        assert_eq!(trace.get("displayTimeUnit"), Some(&Json::str("ms")));
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let field = |i: usize, key: &str| events[i].get(key).cloned();
        let names: Vec<Option<Json>> = (0..events.len()).map(|i| field(i, "name")).collect();
        let want = ["server.accept", "server.queue_wait", "server.send"];
        assert_eq!(
            names,
            want.map(|n| Some(Json::str(n))),
            "sorted by start time"
        );
        let spans = profiler.snapshot_spans();
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(field(i, "cat"), Some(Json::str("svard")));
            assert_eq!(field(i, "ph"), Some(Json::str("X")));
            assert_eq!(field(i, "ts"), Some(Json::uint(s.start_us)));
            assert_eq!(field(i, "dur"), Some(Json::uint(s.dur_us)));
            assert_eq!(field(i, "pid"), Some(Json::uint(1)));
            assert_eq!(field(i, "tid"), Some(Json::uint(s.tid)));
            let args = Json::obj([("id", Json::uint(s.id)), ("arg", Json::uint(s.arg))]);
            assert_eq!(field(i, "args"), Some(args));
        }
        assert_eq!(field(0, "ts"), Some(Json::uint(10)));
        assert_eq!(field(0, "dur"), Some(Json::uint(5)));
    }

    #[test]
    fn clones_share_the_store_and_the_epoch() {
        let profiler = Profiler::new(16);
        let clone = profiler.clone();
        clone.record("server.parse", 1, 1, 0);
        assert_eq!(profiler.snapshot_spans().len(), 1);
        let (a, b) = (profiler.now_us(), clone.now_us());
        assert!(b.abs_diff(a) < 1_000_000, "same epoch");
    }
}
