//! Metadata-storage options for the per-row vulnerability bins (§6.2, §6.4).

use svard_dram::address::BankId;

use crate::bins::VulnerabilityBins;

/// Which storage implementation Svärd uses for its per-row bin identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// A dedicated table in the memory controller holding one bin id per row
    /// (option A in Fig. 11; 0.056 mm²/bank per §6.4).
    ControllerTable,
    /// Bloom-filter-compressed table: one Bloom filter per bin level marking the
    /// rows *at or below* that vulnerability level. False positives only ever push a
    /// row into a *more* vulnerable bin, so the compression is security-preserving.
    BloomCompressed,
}

/// Per-row bin storage for one module (all banks).
#[derive(Debug, Clone)]
pub enum BinStorage {
    /// Exact per-row table (the controller-table option).
    Exact {
        /// `bins[bank][row]` = bin id.
        bins: Vec<Vec<u8>>,
    },
    /// Bloom-filter-compressed storage.
    Bloom {
        /// One filter per bin level 0..top-1; `filters[level]` marks rows whose bin
        /// is `<= level`. Rows matching no filter belong to the top bin.
        filters: Vec<BloomSet>,
        /// Number of bins represented.
        num_bins: usize,
        /// Number of banks the filters hold rows of.
        banks: usize,
    },
}

impl BinStorage {
    /// Build an exact table from per-row bin assignments.
    pub fn exact(bins: Vec<Vec<u8>>) -> Self {
        BinStorage::Exact { bins }
    }

    /// Build a Bloom-compressed table from per-row bin assignments.
    ///
    /// `bits_per_filter` trades space against how many rows are conservatively
    /// misclassified into weaker bins.
    pub fn bloom(bins: &[Vec<u8>], num_bins: usize, bits_per_filter: usize) -> Self {
        let mut filters: Vec<BloomSet> = (0..num_bins.saturating_sub(1))
            .map(|_| BloomSet::new(bits_per_filter.max(64), 3))
            .collect();
        for (bank, rows) in bins.iter().enumerate() {
            for (row, &bin) in rows.iter().enumerate() {
                for (level, filter) in filters.iter_mut().enumerate() {
                    if (bin as usize) <= level {
                        filter.insert(bank, row);
                    }
                }
            }
        }
        BinStorage::Bloom {
            filters,
            num_bins,
            banks: bins.len(),
        }
    }

    // lint: hot-path
    /// Look up the bin id of a row. Out-of-range banks/rows wrap (scaled-down
    /// profiles backing full-size geometries).
    pub fn bin_of(&self, bank_index: usize, row: usize) -> u8 {
        match self {
            BinStorage::Exact { bins } => {
                let bank = &bins[wrap(bank_index, bins.len())];
                bank[wrap(row, bank.len())]
            }
            BinStorage::Bloom {
                filters,
                num_bins,
                banks,
            } => {
                let bank_index = wrap(bank_index, (*banks).max(1));
                for (level, filter) in filters.iter().enumerate() {
                    if filter.contains(bank_index, row) {
                        return level as u8;
                    }
                }
                (num_bins - 1) as u8
            }
        }
    }
    // lint: end-hot-path

    /// Total metadata bits this storage holds (for the §6.4 cost analysis).
    pub fn metadata_bits(&self, bits_per_row: u32) -> u64 {
        match self {
            BinStorage::Exact { bins } => bins
                .iter()
                .map(|b| b.len() as u64 * bits_per_row as u64)
                .sum(),
            BinStorage::Bloom { filters, .. } => filters.iter().map(|f| f.bits.len() as u64).sum(),
        }
    }
}

/// A plain Bloom filter over `(bank, row)` keys.
#[derive(Debug, Clone)]
pub struct BloomSet {
    bits: Vec<bool>,
    hashes: usize,
}

impl BloomSet {
    /// Create a filter with `bits` bits and `hashes` hash functions.
    pub fn new(bits: usize, hashes: usize) -> Self {
        Self {
            bits: vec![false; bits.max(1)],
            hashes,
        }
    }

    fn index(&self, bank: usize, row: usize, i: usize) -> usize {
        let mut x =
            (bank as u64) << 40 ^ row as u64 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        (x % self.bits.len() as u64) as usize
    }

    /// Insert a key.
    pub fn insert(&mut self, bank: usize, row: usize) {
        for i in 0..self.hashes {
            let idx = self.index(bank, row, i);
            self.bits[idx] = true;
        }
    }

    /// Membership query (may return false positives, never false negatives).
    pub fn contains(&self, bank: usize, row: usize) -> bool {
        (0..self.hashes).all(|i| self.bits[self.index(bank, row, i)])
    }
}

/// `index % len`, without the division when `index` is already in range (the
/// common case: only scaled-down profiles wrap).
#[inline]
pub(crate) fn wrap(index: usize, len: usize) -> usize {
    if index < len {
        index
    } else {
        index % len
    }
}

/// Assign every row of a scaled profile to a bin.
pub fn assign_bins(thresholds: &[Vec<u64>], bins: &VulnerabilityBins) -> Vec<Vec<u8>> {
    thresholds
        .iter()
        .map(|bank| bank.iter().map(|&t| bins.bin_of(t)).collect())
        .collect()
}

/// Convenience: the banks' flat index for a [`BankId`] given 4 banks per group.
pub fn flat_bank_index(bank: BankId, banks_per_rank: usize) -> usize {
    (bank.rank * banks_per_rank) + bank.bank_group * 4 + bank.bank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bins() -> Vec<Vec<u8>> {
        vec![
            (0..64).map(|r| (r % 16) as u8).collect::<Vec<u8>>(),
            (0..64).map(|r| ((r + 3) % 16) as u8).collect::<Vec<u8>>(),
        ]
    }

    #[test]
    fn exact_storage_round_trips() {
        let bins = sample_bins();
        let storage = BinStorage::exact(bins.clone());
        for (bank, bank_bins) in bins.iter().enumerate() {
            for (row, &expected) in bank_bins.iter().enumerate() {
                assert_eq!(storage.bin_of(bank, row), expected);
            }
        }
        assert_eq!(storage.metadata_bits(4), 2 * 64 * 4);
    }

    #[test]
    fn exact_storage_wraps_out_of_range_indices() {
        let storage = BinStorage::exact(sample_bins());
        assert_eq!(storage.bin_of(2, 64), storage.bin_of(0, 0));
    }

    #[test]
    fn bloom_storage_is_conservative() {
        let bins = sample_bins();
        let storage = BinStorage::bloom(&bins, 16, 4096);
        for (bank, bank_bins) in bins.iter().enumerate() {
            for (row, &true_bin) in bank_bins.iter().enumerate() {
                // The compressed answer may be lower (more conservative) but never
                // higher than the true bin.
                assert!(storage.bin_of(bank, row) <= true_bin);
            }
        }
    }

    #[test]
    fn bloom_storage_with_ample_bits_is_mostly_exact() {
        let bins = sample_bins();
        let storage = BinStorage::bloom(&bins, 16, 1 << 16);
        let exact_matches = (0..2)
            .flat_map(|bank| (0..64).map(move |row| (bank, row)))
            .filter(|&(bank, row)| storage.bin_of(bank, row) == bins[bank][row])
            .count();
        assert!(exact_matches > 100, "only {exact_matches} of 128 exact");
    }

    #[test]
    fn bloom_storage_wraps_out_of_range_banks_like_exact() {
        let bins = sample_bins();
        let storage = BinStorage::bloom(&bins, 16, 1 << 16);
        for row in 0..64 {
            assert_eq!(storage.bin_of(2, row), storage.bin_of(0, row));
            assert_eq!(storage.bin_of(5, row), storage.bin_of(1, row));
        }
    }

    #[test]
    fn bloom_set_has_no_false_negatives() {
        let mut set = BloomSet::new(1024, 3);
        for row in 0..100 {
            set.insert(0, row);
        }
        assert!((0..100).all(|row| set.contains(0, row)));
    }

    #[test]
    fn assign_bins_uses_lower_bounds() {
        let bins = VulnerabilityBins::geometric(64, 4096, 8);
        let thresholds = vec![vec![64u64, 100, 4096, 1 << 20]];
        let assigned = assign_bins(&thresholds, &bins);
        assert_eq!(assigned[0][0], 0);
        assert!(assigned[0][3] as usize == bins.num_bins() - 1);
        for (i, &t) in thresholds[0].iter().enumerate() {
            assert!(bins.threshold_of(assigned[0][i]) <= t);
        }
    }
}
