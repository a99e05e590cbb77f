//! Svärd: spatial-variation-aware read disturbance defenses (the paper's §6).
//!
//! Svärd leverages the per-row variation in read-disturbance vulnerability measured
//! by the characterization half of the paper. Instead of configuring a defense for
//! the *worst-case* `HC_first` of the whole module, Svärd stores a small (4-bit)
//! vulnerability-bin identifier per DRAM row and, on every row activation, hands the
//! defense the activated row's *own* threshold. Strong rows then trigger far fewer
//! preventive actions while the weakest rows keep exactly the protection they had —
//! Svärd never reports a threshold larger than a row's true tolerance (§6.3).
//!
//! The crate provides:
//!
//! * [`bins::VulnerabilityBins`] — quantization of `HC_first` values into at most 16
//!   bins whose representative value always rounds *down* (the security invariant);
//! * [`storage`] — the metadata-storage options of §6.2/§6.4: an exact per-row table
//!   in the memory controller and a Bloom-filter-compressed variant;
//! * [`provider::SvardProvider`] — the [`svard_defenses::ThresholdProvider`] that
//!   plugs Svärd underneath any of the five evaluated defenses (Fig. 11);
//! * [`hwcost`] — the §6.4 hardware-cost model (table area/latency, DRAM metadata
//!   overhead).
//!
//! # Example
//!
//! ```
//! use svard_core::Svard;
//! use svard_vulnerability::{ModuleSpec, ProfileGenerator};
//!
//! let profile = ProfileGenerator::new(1).generate(&ModuleSpec::s0().scaled(1024), 1);
//! // Project the profile onto a future chip whose weakest row flips at 1K hammers.
//! let svard = Svard::build(&profile, 1024, 16);
//! let provider = svard.provider();
//! // Strong rows get larger thresholds than the worst case; none get less.
//! assert!(svard.scaled_worst_case() >= 1024);
//! drop(provider);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bins;
pub mod hwcost;
pub mod provider;
pub mod storage;
pub mod svard;

pub use bins::VulnerabilityBins;
pub use hwcost::{HardwareCostModel, StorageCostReport};
pub use provider::SvardProvider;
pub use storage::{BinStorage, StorageKind};
pub use svard::Svard;
