//! CPU-side models for the Svärd performance evaluation (§7.1).
//!
//! The paper runs 120 eight-core multiprogrammed mixes drawn from SPEC CPU2006,
//! SPEC CPU2017, TPC, MediaBench and YCSB on Ramulator. This crate replaces the
//! proprietary traces with *synthetic workload classes* whose memory behaviour
//! (memory intensity, row-buffer locality, working-set size, read/write mix) spans
//! the same range, plus the two adversarial access patterns of Fig. 13, and provides:
//!
//! * [`workload`] — the workload catalogue, deterministic trace generators and the
//!   120-mix generator;
//! * [`cache`] — a per-core last-level cache model (2 MiB per core, Table 4);
//! * [`stream`] — each core's trace filtered through its LLC, stored once
//!   ([`CoreStream`]) or walked live, which the core reads;
//! * [`core`] — a simple out-of-order-miss / in-order-retire core with a 128-entry
//!   instruction window and 4-wide retire (Table 4);
//! * [`metrics`] — weighted speedup, harmonic speedup and maximum slowdown, the
//!   three system-level metrics of Fig. 12.
//!
//! # Streams and the retry rule
//!
//! A core reads its trace as LLC-filtered accesses: each with the gap
//! before it, its address and the LLC's verdict (hit, or miss with the
//! dirty victim to write back), as a fresh generator and cache walked in
//! trace order give them. A [`CoreStream`] stores them ahead of the run;
//! it depends only on the spec, the core index, the seed and the budget,
//! so every run of that core can share one. It covers the budget plus the
//! one access a core stashes after its last, and the core debug-asserts
//! that it never runs out. It costs 24 bytes an access, so it grows with
//! the budget; a core built with [`SimpleCore::new`] walks its trace live
//! instead, in the fixed memory of its own LLC model.
//!
//! Reading verdicts back is exact because the core reaches its accesses in
//! trace order, with one rule kept from the live walk: a cached core's miss
//! that finds its MSHRs full has installed its line, so its retry issues as
//! a hit, counts an LLC hit, and the miss's writeback is lost; a core that
//! bypasses the LLC retries as a miss (see [`SimpleCore`]). ROADMAP item 1's
//! fix for that shortcut is to drop the core's `installed` flag.
//!
//! # Example
//!
//! ```
//! use svard_cpusim::workload::{WorkloadSpec, TraceGenerator};
//!
//! let spec = WorkloadSpec::catalogue().into_iter().next().unwrap();
//! let mut gen = TraceGenerator::new(&spec, 0, 42);
//! let event = gen.next_event();
//! assert!(event.non_mem_instructions <= 10_000);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod core;
pub mod metrics;
pub mod stream;
pub mod workload;

pub use cache::{CacheOutcome, LastLevelCache, LlcStats};
pub use core::{CoreConfig, SimpleCore};
pub use metrics::{harmonic_speedup, max_slowdown, weighted_speedup};
pub use stream::CoreStream;
pub use workload::{TraceGenerator, WorkloadClass, WorkloadMix, WorkloadSpec};
