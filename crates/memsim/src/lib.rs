//! A Ramulator-like DDR4 memory-system model.
//!
//! This crate provides the cycle-level memory substrate for Svärd's performance
//! evaluation (§7, Table 4): a DDR4 channel with ranks, bank groups and banks, a
//! memory controller with separate read and write queues, FR-FCFS scheduling with a
//! column-access cap, the open-row policy, MOP address interleaving, periodic
//! refresh, and — crucially — a [`MitigationHook`] through which a read-disturbance
//! defense observes every row activation and injects *preventive actions* (victim
//! refreshes, throttling, row migrations, row swaps, extra metadata traffic) whose
//! cost the controller pays in DRAM timing.
//!
//! The model is event-based at bank granularity: every bank tracks when it is next
//! able to accept an activation and which row it has open, while rank-level
//! constraints (tRRD, tFAW, data-bus occupancy, tRFC) are enforced at the channel.
//! This reproduces the first-order performance behaviour that drives the paper's
//! Fig. 12 comparison (row hits vs. misses vs. conflicts, refresh interference,
//! preventive-action overhead) without modelling every DDR4 sub-command.
//!
//! # Performance
//!
//! The controller is event-driven on top of its per-cycle semantics:
//! [`MemorySystem::next_event_cycle`] predicts the next cycle at which anything
//! can happen, and [`MemorySystem::tick_until`] / [`MemorySystem::run_until_idle`]
//! skip the dead cycles in between while keeping completions and statistics
//! *cycle-identical* to per-cycle ticking (asserted by the
//! `fastforward_equivalence` test suite). The hot paths are allocation-free:
//! requests cache their flat bank/rank indices at enqueue, timing parameters are
//! pre-converted to cycles, preventive actions go through a reused scratch
//! buffer, and fruitless scheduler scans are memoized between state changes.
//! The FR-FCFS scheduler decides from per-bank request tallies, so a
//! decision costs O(banks) rather than O(queue) (see [`controller`]).
//!
//! # Example
//!
//! ```
//! use svard_memsim::{MemoryConfig, MemorySystem, MemoryRequest, RequestKind};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::table4());
//! mem.enqueue(MemoryRequest::new(0, RequestKind::Read, 0x4000, 0)).unwrap();
//! let mut done = Vec::new();
//! for _ in 0..200 {
//!     done.extend(mem.tick());
//! }
//! assert_eq!(done.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod actions;
pub mod bank;
pub mod config;
pub mod controller;
pub mod request;
pub mod stats;
mod tally;
mod throttle;

pub use actions::{MitigationHook, NoMitigation, PreventiveAction};
pub use config::MemoryConfig;
pub use controller::MemorySystem;
pub use request::{CompletedRequest, MemoryRequest, RequestKind};
pub use stats::MemStats;
pub use svard_dram::address::BankId;
