//! Behavioural DRAM chip model with read-disturbance physics.
//!
//! This crate stands in for the 144 real DDR4 chips of the paper's testbed. It
//! models, at the command level, everything the characterization methodology (§4)
//! and the reverse-engineering analysis (§5.4) can observe:
//!
//! * row activation / precharge / read / write / refresh semantics, including the
//!   row buffer and charge restoration;
//! * accumulation of read disturbance on the rows physically adjacent to an
//!   activated row, scaled by how long the aggressor stays open (RowPress), the
//!   stored data pattern, and temperature;
//! * materialization of bitflips in the *weakest cells first*, driven by the
//!   per-row [`svard_vulnerability`] profile, whenever a disturbed row is next
//!   sensed (activated or refreshed); a cell flips at most once between writes
//!   of its byte;
//! * in-DRAM row-address scrambling ([`svard_dram::mapping::RowScramble`]);
//! * subarray structure: rows at a subarray boundary have a physical neighbour on
//!   only one side, and intra-subarray RowClone (activate-precharge-activate with
//!   violated timing) copies data only within a subarray — the two observables used
//!   to reverse engineer subarray boundaries (§5.4.1);
//! * an optional on-die TRR stub, disabled by default exactly as the paper disables
//!   refresh during its tests.
//!
//! # Example
//!
//! ```
//! use svard_chip::{ChipConfig, SimChip};
//! use svard_vulnerability::{ModuleSpec, ProfileGenerator};
//!
//! let profile = ProfileGenerator::new(1).generate(&ModuleSpec::s0().scaled(128), 1);
//! let mut chip = SimChip::new(profile, ChipConfig::for_characterization(256));
//! // Hammer the neighbours of row 50 hard enough to flip its weakest cell.
//! let flips = chip.hammer_double_sided(0, 50, 500_000, 36.0).unwrap();
//! assert!(flips > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bank;
pub mod chip;
pub mod config;
pub mod stats;
pub mod trr;
mod weak_cells;

pub use chip::{Neighbours, SimChip};
pub use config::ChipConfig;
pub use stats::ChipStats;
pub use trr::TrrConfig;
