//! Svärd's [`ThresholdProvider`]: the per-row threshold source defenses consult.

use svard_defenses::provider::ThresholdProvider;
use svard_dram::address::BankId;

use crate::bins::VulnerabilityBins;
use crate::storage::{wrap, BinStorage};

/// The Svärd threshold provider (Fig. 11): on each activation, look up the bin of
/// the rows that could be disturbed and return the most conservative of their
/// thresholds.
#[derive(Debug, Clone)]
pub struct SvardProvider {
    bins: VulnerabilityBins,
    storage: BinStorage,
    rows_per_bank: usize,
    banks_per_rank: usize,
    name: String,
}

impl SvardProvider {
    /// Assemble a provider from bins, storage and geometry information.
    pub fn new(
        bins: VulnerabilityBins,
        storage: BinStorage,
        rows_per_bank: usize,
        banks_per_rank: usize,
        profile_label: &str,
    ) -> Self {
        let name = format!("Svärd-{profile_label}");
        Self {
            bins,
            storage,
            rows_per_bank,
            banks_per_rank,
            name,
        }
    }

    /// The bin table / bins in use (for cost analysis and tests).
    pub fn bins(&self) -> &VulnerabilityBins {
        &self.bins
    }

    // lint: hot-path
    /// Threshold credited to a single row.
    pub fn row_threshold(&self, bank: BankId, row: usize) -> u64 {
        let flat = crate::storage::flat_bank_index(bank, self.banks_per_rank);
        let bin = self
            .storage
            .bin_of(flat, wrap(row, self.rows_per_bank.max(1)));
        self.bins.threshold_of(bin)
    }
}

impl ThresholdProvider for SvardProvider {
    fn victim_threshold(&self, bank: BankId, aggressor_row: usize) -> u64 {
        // The rows that can be disturbed by activating `aggressor_row` are its two
        // physical neighbours; protect the more vulnerable of the two.
        let below = aggressor_row.saturating_sub(1);
        let above = (aggressor_row + 1).min(self.rows_per_bank.saturating_sub(1));
        self.row_threshold(bank, below)
            .min(self.row_threshold(bank, above))
    }
    // lint: end-hot-path

    fn worst_case(&self) -> u64 {
        self.bins.worst_case()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::assign_bins;

    fn provider_with_thresholds(thresholds: Vec<u64>) -> (SvardProvider, Vec<u64>) {
        let worst = *thresholds.iter().min().unwrap();
        let best = *thresholds.iter().max().unwrap();
        let bins = VulnerabilityBins::geometric(worst, best, 16);
        let table = assign_bins(std::slice::from_ref(&thresholds), &bins);
        let provider =
            SvardProvider::new(bins, BinStorage::exact(table), thresholds.len(), 16, "TEST");
        (provider, thresholds)
    }

    #[test]
    fn victim_threshold_takes_the_weaker_neighbour() {
        let (provider, thresholds) =
            provider_with_thresholds(vec![10_000, 500, 60_000, 60_000, 800, 60_000]);
        let bank = BankId::default();
        // Activating row 2: neighbours are rows 1 (500) and 3 (60_000).
        let t = provider.victim_threshold(bank, 2);
        assert!(t <= 500);
        // Activating row 3: neighbours are rows 2 and 4 (800).
        assert!(provider.victim_threshold(bank, 3) <= 800);
        // The provider never exceeds any true neighbour threshold.
        for row in 0..thresholds.len() {
            let below = row.saturating_sub(1);
            let above = (row + 1).min(thresholds.len() - 1);
            let true_min = thresholds[below].min(thresholds[above]);
            assert!(provider.victim_threshold(bank, row) <= true_min);
        }
    }

    /// The lookup as it was before the in-range fast path: all three wraps
    /// by `%`.
    fn reference_victim_threshold(p: &SvardProvider, bank: BankId, row: usize) -> u64 {
        let row_threshold = |row: usize| {
            let flat = crate::storage::flat_bank_index(bank, p.banks_per_rank);
            let row = row % p.rows_per_bank.max(1);
            let bin = match &p.storage {
                BinStorage::Exact { bins } => {
                    let bank = &bins[flat % bins.len()];
                    bank[row % bank.len()]
                }
                BinStorage::Bloom {
                    filters,
                    num_bins,
                    banks,
                } => {
                    let flat = flat % (*banks).max(1);
                    (0..filters.len())
                        .find(|&level| filters[level].contains(flat, row))
                        .unwrap_or(num_bins - 1) as u8
                }
            };
            p.bins.threshold_of(bin)
        };
        let below = row.saturating_sub(1);
        let above = (row + 1).min(p.rows_per_bank.saturating_sub(1));
        row_threshold(below).min(row_threshold(above))
    }

    /// In-range and wrapping banks and rows give the reference's thresholds,
    /// for exact and Bloom storage. The profile has 3 banks of 96 rows under
    /// a 128-row geometry, so bank, geometry-row and profile-row wraps all
    /// occur.
    #[test]
    fn victim_threshold_matches_the_modulo_reference() {
        let thresholds: Vec<Vec<u64>> = (0..3u64)
            .map(|b| (0..96u64).map(|r| 64 + (r * 37 + b * 11) % 4096).collect())
            .collect();
        let bins = VulnerabilityBins::geometric(64, 4160, 16);
        let table = assign_bins(&thresholds, &bins);
        for storage in [
            BinStorage::exact(table.clone()),
            BinStorage::bloom(&table, bins.num_bins(), 512),
        ] {
            let provider = SvardProvider::new(bins.clone(), storage, 128, 16, "TEST");
            let mut wrapped = 0;
            for rank in 0..2 {
                for bank_group in 0..4 {
                    for b in 0..4 {
                        let bank = BankId {
                            rank,
                            bank_group,
                            bank: b,
                            ..BankId::default()
                        };
                        for row in (0..140).chain([255, 256, 1_000, 65_535]) {
                            assert_eq!(
                                provider.victim_threshold(bank, row),
                                reference_victim_threshold(&provider, bank, row),
                                "{bank:?} row {row}"
                            );
                            let flat = crate::storage::flat_bank_index(bank, 16);
                            wrapped += usize::from(flat >= 3 || row >= 95);
                        }
                    }
                }
            }
            assert!(wrapped > 1_000);
        }
    }

    #[test]
    fn worst_case_matches_the_weakest_row() {
        let (provider, _) = provider_with_thresholds(vec![4096, 64, 8192]);
        assert_eq!(provider.worst_case(), 64);
    }

    #[test]
    fn provider_name_carries_the_module_label() {
        let (provider, _) = provider_with_thresholds(vec![100, 200]);
        assert_eq!(provider.name(), "Svärd-TEST");
    }

    #[test]
    fn edge_rows_are_handled() {
        let (provider, _) = provider_with_thresholds(vec![100, 5000, 5000, 5000]);
        let bank = BankId::default();
        // Row 0's only in-range neighbour below is itself (saturating); must not panic
        // and must stay conservative.
        assert!(provider.victim_threshold(bank, 0) <= 5000);
        assert!(provider.victim_threshold(bank, 3) <= 5000);
    }
}
