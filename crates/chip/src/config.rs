//! Chip-model configuration.

use svard_dram::mapping::RowScramble;
use svard_dram::TimingParams;

use crate::trr::TrrConfig;

/// Configuration of the behavioural chip model.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Bytes per DRAM row stored by the model (the characterization experiments use
    /// scaled-down rows; see the `svard_system` crate docs).
    pub row_size_bytes: usize,
    /// In-DRAM logical-to-physical row scrambling.
    pub scramble: RowScramble,
    /// Ambient temperature in °C (the paper tests at 80 °C).
    pub temperature_c: f64,
    /// Fraction of the adjacent-row disturbance dose received by rows at physical
    /// distance 2 from the aggressor (Half-Double-style far victims). The paper's
    /// characterization only considers distance-1 victims, so this defaults to a
    /// small non-zero value that never dominates.
    pub distance2_coupling: f64,
    /// Probability that an intra-subarray RowClone attempt succeeds. RowClone is not
    /// an official DDR4 operation, so even same-subarray copies occasionally fail
    /// (§5.4.1, Key Insight 2).
    pub rowclone_success_rate: f64,
    /// DDR4 timing parameters (used to validate aggressor on-times).
    pub timing: TimingParams,
    /// Optional on-die TRR mitigation. `None` models the paper's test setup, which
    /// bypasses TRR by disabling refresh.
    pub trr: Option<TrrConfig>,
    /// Banks per bank group of the modelled device (DDR4: 4). Used to flatten
    /// `(bank_group, bank)` coordinates of incoming DRAM commands.
    pub banks_per_group: usize,
}

impl ChipConfig {
    /// Configuration matching the paper's characterization setup: 80 °C, no TRR,
    /// identity scrambling (the harness works in physical row space after reverse
    /// engineering), scaled-down rows of `row_size_bytes` bytes.
    pub fn for_characterization(row_size_bytes: usize) -> Self {
        Self {
            row_size_bytes,
            scramble: RowScramble::Identity,
            temperature_c: 80.0,
            distance2_coupling: 0.02,
            rowclone_success_rate: 0.95,
            timing: TimingParams::ddr4_3200(),
            trr: None,
            banks_per_group: 4,
        }
    }

    /// Configuration with a non-trivial row scramble, for exercising the
    /// adjacency-reverse-engineering path.
    pub fn with_scramble(mut self, scramble: RowScramble) -> Self {
        self.scramble = scramble;
        self
    }

    /// Configuration with an on-die TRR mechanism enabled.
    pub fn with_trr(mut self, trr: TrrConfig) -> Self {
        self.trr = Some(trr);
        self
    }

    /// Set the operating temperature.
    pub fn with_temperature(mut self, temperature_c: f64) -> Self {
        self.temperature_c = temperature_c;
        self
    }

    /// Set the number of banks per bank group (for non-DDR4 geometries).
    pub fn with_banks_per_group(mut self, banks_per_group: usize) -> Self {
        assert!(banks_per_group >= 1, "need at least one bank per group");
        self.banks_per_group = banks_per_group;
        self
    }

    /// Number of bits per row.
    pub fn bits_per_row(&self) -> usize {
        self.row_size_bytes * 8
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::for_characterization(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_defaults_match_paper_setup() {
        let c = ChipConfig::for_characterization(512);
        assert_eq!(c.temperature_c, 80.0);
        assert!(c.trr.is_none());
        assert_eq!(c.bits_per_row(), 4096);
    }

    #[test]
    fn builder_methods_compose() {
        let c = ChipConfig::default()
            .with_temperature(50.0)
            .with_scramble(RowScramble::LowBitSwizzle);
        assert_eq!(c.temperature_c, 50.0);
        assert_eq!(c.scramble, RowScramble::LowBitSwizzle);
    }
}
