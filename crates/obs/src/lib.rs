//! `svard-obs`: a deterministic, dependency-free observability layer.
//!
//! Three pillars, all cycle-domain on the simulation side:
//!
//! 1. **Metrics** — a fixed catalogue of counters, high-water gauges, and
//!    log2-bucket histograms ([`catalog`], [`metrics`]). Recording into a
//!    [`Recorder`] is allocation-free, so it is legal inside
//!    `// lint: hot-path` fences.
//! 2. **Event tracing** — a bounded ring buffer of cycle-stamped events
//!    ([`trace`]) drained to JSON-lines. Events carry no wall-clock
//!    timestamps, so a trace is a pure function of the simulated workload:
//!    bit-identical across thread counts and across fast-forward vs
//!    per-cycle execution. How the simulator executed (e.g. fast-forward
//!    skips) is recorded only as `diag.` metrics, never as events.
//! 3. **Phase profiling** — wall-clock spans ([`span`], [`wall`]) for the
//!    harness and serving boundary only. Every span goes through
//!    [`Profiler::record`] into one bounded store, stamped with the
//!    recording thread's id and exportable as Chrome trace-event JSON; the
//!    harness also sums its phase timings into [`PhaseProfile`] summaries.
//!    `svard-lint` forbids `now_us` inside simulation crates; cycle-domain
//!    recording APIs are allowed anywhere.
//!
//! The hot-path contract is enforced through generics: simulation structs
//! take an [`ObsSink`] type parameter defaulting to [`NoopSink`], whose
//! recording methods are empty and compile to nothing.
//!
//! Three dependency-free exporters make the registry externally consumable:
//! [`Profiler::chrome_trace_json`] for spans, [`MetricsSnapshot::to_json`]
//! (inverted by [`MetricsSnapshot::from_json`]) and
//! [`MetricsSnapshot::to_text`] for a flat `name value` exposition. All JSON
//! goes through [`json`], the workspace's one JSON model; its module doc
//! names the three pinned line formats rendered by hand.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod trace;
pub mod wall;

pub use catalog::{Counter, EventKind, Gauge, Hist};
pub use metrics::{HistogramSnapshot, MetricsSnapshot};
pub use sink::{Collect, NoopSink, ObsSink, Recorder};
pub use span::{Profiler, Span, DEFAULT_SPAN_CAPACITY};
pub use trace::{TraceBuffer, TraceEvent};
pub use wall::PhaseProfile;
