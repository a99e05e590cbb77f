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
//! CPU-years a 200M-instruction × 120-mix campaign would need.

//! # Scaled-down substrate
//!
//! Every experiment in this workspace runs on a smaller substrate than the
//! paper's, so that a run takes seconds to minutes:
//!
//! - **Instructions and mixes.** [`SystemConfig::table4_scaled`] keeps
//!   Table 4's cores, caches and memory system but gives each core 100K
//!   instructions, and the Fig. 12/13 grids (the server's `GridSpec`
//!   defaults) run 3 mixes of 30K instructions per core on 1,024-row banks.
//!   The paper simulates 200M instructions per core over 120 mixes.
//! - **Banks and rows.** The characterization pipeline is geometry-agnostic,
//!   so the characterization binaries test every 4th row of 2 banks of 2,048
//!   rows of 256 bytes by default (the paper's modules have 32K–128K rows of
//!   8 KiB). A scaled module (`ModuleSpec::scaled`) keeps its Table 5
//!   statistics at any row count.
//!
//! The binaries take `--rows`, `--banks`, `--stride`, `--mixes`,
//! `--instructions` and `--hc-values` to scale up towards the paper's
//! configuration. At this scale the results show the paper's trends, not its
//! absolute numbers; the repository's ROADMAP records how far Fig. 12
//! reproduces at each budget.

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
