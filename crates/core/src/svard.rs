//! The top-level Svärd mechanism: profile scaling, binning and provider assembly.

use std::sync::Arc;

use svard_defenses::provider::{SharedThresholdProvider, UniformThreshold};
use svard_dram::geometry::DramGeometry;
use svard_vulnerability::ModuleVulnerabilityProfile;

use crate::bins::VulnerabilityBins;
use crate::provider::SvardProvider;
use crate::storage::{assign_bins, BinStorage, StorageKind};

/// A configured instance of Svärd for one DRAM module.
#[derive(Debug, Clone)]
pub struct Svard {
    module_label: String,
    scaled_worst_case: u64,
    bins: VulnerabilityBins,
    scaled_thresholds: Vec<Vec<u64>>,
    rows_per_bank: usize,
    storage_kind: StorageKind,
}

impl Svard {
    /// Build Svärd from a measured vulnerability profile.
    ///
    /// `target_worst_case` applies the §7.1 scaling methodology: the profile's
    /// per-row `HC_first` values are scaled so the module's weakest row flips at
    /// `target_worst_case` hammers, projecting today's measurements onto future,
    /// more vulnerable chips (the x-axis of Fig. 12). `num_bins` is at most 16
    /// (4-bit identifiers).
    pub fn build(
        profile: &ModuleVulnerabilityProfile,
        target_worst_case: u64,
        num_bins: usize,
    ) -> Self {
        Self::build_with_storage(
            profile,
            target_worst_case,
            num_bins,
            StorageKind::ControllerTable,
        )
    }

    /// [`build`](Self::build) with an explicit metadata-storage option.
    pub fn build_with_storage(
        profile: &ModuleVulnerabilityProfile,
        target_worst_case: u64,
        num_bins: usize,
        storage_kind: StorageKind,
    ) -> Self {
        assert!(target_worst_case >= 2, "cannot defend a threshold below 2");
        let scaled = profile.scaled_to_min(target_worst_case as f64);
        let rows = scaled.rows_per_bank();
        let scaled_thresholds: Vec<Vec<u64>> = (0..scaled.num_banks())
            .map(|bank| {
                (0..rows)
                    .map(|row| {
                        // The scaled profile's minimum is `target_worst_case` by
                        // construction; clamp so floating-point rounding can never
                        // leave a row a hammer below the worst-case bin floor.
                        scaled
                            .true_threshold(bank, row)
                            .floor()
                            .max(target_worst_case as f64) as u64
                    })
                    .collect()
            })
            .collect();
        let best_case = scaled_thresholds
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(target_worst_case);
        let bins = VulnerabilityBins::geometric(target_worst_case, best_case, num_bins);
        Self {
            module_label: profile.spec().label.to_string(),
            scaled_worst_case: target_worst_case,
            bins,
            scaled_thresholds,
            rows_per_bank: rows,
            storage_kind,
        }
    }

    /// The module this instance was built from ("S0", "M0", "H1", ...).
    pub fn module_label(&self) -> &str {
        &self.module_label
    }

    /// The scaled worst-case `HC_first` this instance protects against.
    pub fn scaled_worst_case(&self) -> u64 {
        self.scaled_worst_case
    }

    /// The vulnerability bins in use.
    pub fn bins(&self) -> &VulnerabilityBins {
        &self.bins
    }

    /// The metadata-storage option in use.
    pub fn storage_kind(&self) -> StorageKind {
        self.storage_kind
    }

    /// The scaled per-row thresholds (ground truth for tests and cost analysis).
    pub fn scaled_thresholds(&self) -> &[Vec<u64>] {
        &self.scaled_thresholds
    }

    /// Build the threshold provider that plugs underneath a defense.
    pub fn provider(&self) -> SharedThresholdProvider {
        let table = assign_bins(&self.scaled_thresholds, &self.bins);
        let storage = match self.storage_kind {
            StorageKind::ControllerTable => BinStorage::exact(table),
            StorageKind::BloomCompressed => {
                // Size the filters at ~2 bits per row per level for a low
                // false-positive rate while staying far below the exact table.
                let rows_total: usize = self.scaled_thresholds.iter().map(Vec::len).sum();
                BinStorage::bloom(&table, self.bins.num_bins(), (rows_total * 2).max(1024))
            }
        };
        Arc::new(SvardProvider::new(
            self.bins.clone(),
            storage,
            self.rows_per_bank,
            16,
            &self.module_label,
        ))
    }

    /// The paper's "No Svärd" counterpart for the same scaled worst case.
    pub fn baseline_provider(&self) -> SharedThresholdProvider {
        Arc::new(UniformThreshold::new(self.scaled_worst_case))
    }

    /// Verify the §6.3 security invariant against the ground-truth thresholds: the
    /// provider never credits an aggressor with a threshold larger than the true
    /// (scaled) threshold of either of its neighbours. Returns the number of rows
    /// checked. Panics on violation.
    pub fn assert_security_invariant(&self) -> usize {
        self.assert_security_invariant_in_banks(self.scaled_thresholds.len())
    }

    /// [`assert_security_invariant`](Self::assert_security_invariant) for the
    /// first `banks` banks of the Table 4 system. Banks beyond the profile's
    /// reuse its banks in turn, as the provider's lookups do.
    fn assert_security_invariant_in_banks(&self, banks: usize) -> usize {
        let geometry = DramGeometry::table4_system();
        let provider = self.provider();
        let mut checked = 0;
        let profile_banks = self.scaled_thresholds.iter().cycle().take(banks);
        for (bank_index, bank) in profile_banks.enumerate() {
            let bank_id = geometry.unflatten_bank(bank_index).bank_id();
            for row in 0..bank.len() {
                let below = row.saturating_sub(1);
                let above = (row + 1).min(bank.len() - 1);
                let true_min = bank[below].min(bank[above]);
                let credited = provider.victim_threshold(bank_id, row);
                assert!(
                    credited <= true_min,
                    "row {row}: credited {credited} exceeds true neighbour minimum {true_min}"
                );
                checked += 1;
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svard_vulnerability::{ModuleSpec, ProfileGenerator};

    fn profile(label: &str) -> ModuleVulnerabilityProfile {
        ProfileGenerator::new(11).generate(&ModuleSpec::by_label(label).unwrap().scaled(2048), 2)
    }

    #[test]
    fn scaling_pins_the_worst_case() {
        for target in [4096u64, 1024, 256, 64] {
            let svard = Svard::build(&profile("S0"), target, 16);
            assert_eq!(svard.scaled_worst_case(), target);
            let min = svard
                .scaled_thresholds()
                .iter()
                .flatten()
                .copied()
                .min()
                .unwrap();
            assert!(min >= target.saturating_sub(1) && min <= target + 1);
        }
    }

    #[test]
    fn security_invariant_holds_for_all_profiles_and_storages() {
        for label in ["S0", "M0", "H1"] {
            for storage in [StorageKind::ControllerTable, StorageKind::BloomCompressed] {
                let svard = Svard::build_with_storage(&profile(label), 512, 16, storage);
                let checked = svard.assert_security_invariant();
                assert_eq!(checked, 2 * 2048);
            }
        }
    }

    #[test]
    fn security_invariant_holds_in_every_table4_bank() {
        // A one-bank profile, as the sweeps build: every bank of the Table 4
        // system reads bank 0's bins.
        let spec = ModuleSpec::by_label("S0").unwrap().scaled(1024);
        let profile = ProfileGenerator::new(42).generate(&spec, 1);
        let banks = DramGeometry::table4_system().total_banks();
        for storage in [StorageKind::ControllerTable, StorageKind::BloomCompressed] {
            let svard = Svard::build_with_storage(&profile, 64, 16, storage);
            let checked = svard.assert_security_invariant_in_banks(banks);
            assert_eq!(checked, banks * 1024);
        }
    }

    #[test]
    fn svard_credits_strong_rows_with_more_than_the_worst_case() {
        let svard = Svard::build(&profile("S0"), 128, 16);
        let provider = svard.provider();
        let baseline = svard.baseline_provider();
        let bank = svard_dram::address::BankId::default();
        let mut above_worst_case = 0;
        for row in 0..2048 {
            let t = provider.victim_threshold(bank, row);
            assert!(t >= baseline.victim_threshold(bank, row));
            if t as f64 > svard.scaled_worst_case() as f64 * 1.25 {
                above_worst_case += 1;
            }
        }
        // S0 has a wide HC_first spread: most rows tolerate noticeably more than the
        // worst case, which is exactly where Svärd's gains come from.
        assert!(
            above_worst_case > 1024,
            "only {above_worst_case} rows benefit"
        );
    }

    #[test]
    fn baseline_provider_is_uniform() {
        let svard = Svard::build(&profile("M0"), 1024, 16);
        let p = svard.baseline_provider();
        let bank = svard_dram::address::BankId::default();
        assert_eq!(p.victim_threshold(bank, 0), 1024);
        assert_eq!(p.victim_threshold(bank, 1234), 1024);
    }

    #[test]
    fn every_representative_profile_benefits_from_svard() {
        // All three per-manufacturer profiles credit the average row with clearly
        // more headroom than the worst case, which is where Svärd's Fig. 12 gains
        // come from. (The exact per-manufacturer ordering depends on the full
        // HC_first distribution shape, which Table 5 only summarizes, so this
        // test does not assert one.)
        let mean_relative = |label: &str| -> f64 {
            let svard = Svard::build(&profile(label), 256, 16);
            let provider = svard.provider();
            let bank = svard_dram::address::BankId::default();
            let sum: u64 = (0..2048)
                .map(|row| provider.victim_threshold(bank, row))
                .sum();
            sum as f64 / 2048.0 / svard.scaled_worst_case() as f64
        };
        for label in ["S0", "M0", "H1"] {
            let r = mean_relative(label);
            assert!(r > 1.3, "{label}: mean relative threshold {r}");
        }
    }
}
