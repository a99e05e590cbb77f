//! Full-system evaluation harness: cores + LLCs + memory controller + defense +
//! Svärd, wired together as in §7.1 / Table 4.
//!
//! The harness runs multiprogrammed workload mixes on the simulated memory system
//! under a chosen read-disturbance defense and threshold provider, and reports the
//! three system-level metrics of Fig. 12 (weighted speedup, harmonic speedup,
//! maximum slowdown), normalized to the no-defense baseline.
//!
//! Simulation lengths are configurable and default to a scaled-down instruction
//! budget so that the full Fig. 12 sweep finishes in minutes rather than the
//! CPU-years a 200M-instruction × 120-mix campaign would need (see `DESIGN.md`).

//! # Performance
//!
//! The runner fast-forwards over stall windows (see [`runner`]) and the
//! [`EvaluationHarness`] fans simulations out across OS threads with
//! deterministic per-point seeding, so sweeps scale with core count while
//! producing bit-identical results to a serial, per-cycle run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod parallel;
pub mod runner;

pub use config::SystemConfig;
pub use runner::{EvaluationHarness, EvaluationPoint, RunResult, SimMode, SweepPoint};
pub use svard_memsim::MemStats;
