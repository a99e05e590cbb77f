//! Shared plumbing for the experiment binaries that regenerate the paper's tables
//! and figures (see `DESIGN.md` for the per-experiment index and `EXPERIMENTS.md`
//! for paper-vs-measured results).
//!
//! Each binary prints CSV-like rows to stdout. All experiments run on scaled-down
//! DRAM banks by default (the characterization pipeline is size-agnostic); pass
//! `--rows`, `--banks`, `--stride`, `--mixes` or `--instructions` to scale up.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use svard_bender::TestInfrastructure;
use svard_chip::{ChipConfig, SimChip};
use svard_vulnerability::{ModuleSpec, ModuleVulnerabilityProfile, ProfileGenerator};

pub use svard_server::cli::{
    arg_flag, arg_list_parsed, arg_string, arg_u64, arg_usize, or_exit, parse_arg,
};

/// Default number of rows per bank for characterization experiments.
pub const DEFAULT_ROWS: usize = 2048;
/// Default number of banks to characterize.
pub const DEFAULT_BANKS: usize = 2;
/// Default row stride (test every Nth row).
pub const DEFAULT_STRIDE: usize = 4;
/// Default seed for all experiments.
pub const DEFAULT_SEED: u64 = 42;

/// Generate the vulnerability profile of one module at experiment scale.
pub fn scaled_profile(
    spec: &ModuleSpec,
    rows: usize,
    banks: usize,
    seed: u64,
) -> ModuleVulnerabilityProfile {
    ProfileGenerator::new(seed).generate(&spec.scaled(rows), banks)
}

/// Build the test infrastructure (chip + temperature controller) for one module at
/// experiment scale.
pub fn scaled_infrastructure(
    spec: &ModuleSpec,
    rows: usize,
    banks: usize,
    seed: u64,
) -> TestInfrastructure {
    let profile = scaled_profile(spec, rows, banks, seed);
    TestInfrastructure::new(SimChip::new(profile, ChipConfig::for_characterization(256)))
}

/// Print a CSV header line.
pub fn header(columns: &[&str]) {
    println!("{}", columns.join(","));
}

/// Print a CSV row of display-able values.
pub fn row(values: &[String]) {
    println!("{}", values.join(","));
}

/// Format a float with 4 significant decimals.
pub fn fmt(v: f64) -> String {
    format!("{v:.4}")
}

/// The standard experiment banner: what is being reproduced and at what scale.
pub fn banner(figure: &str, description: &str) {
    eprintln!("# Reproducing {figure}: {description}");
    eprintln!("# (scaled-down substrate; see DESIGN.md and EXPERIMENTS.md)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_profile_has_requested_shape() {
        let p = scaled_profile(&ModuleSpec::s0(), 128, 2, 1);
        assert_eq!(p.rows_per_bank(), 128);
        assert_eq!(p.num_banks(), 2);
    }

    #[test]
    fn arg_helpers_fall_back_to_defaults() {
        assert_eq!(arg_usize("definitely-not-passed", 7), 7);
        assert_eq!(arg_u64("also-not-passed", 9), 9);
        assert!(!arg_flag("missing-flag"));
    }
}
