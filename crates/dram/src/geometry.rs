//! DRAM organization: how many channels, ranks, bank groups, banks, rows and
//! columns a memory system has (Fig. 1 of the paper).

use crate::address::{BankId, DramAddress};
use crate::error::DramError;

/// Static description of a DRAM memory system's organization.
///
/// The geometry is shared by the characterization substrate (which usually models a
/// single bank of a single chip) and the cycle-level memory-system simulator (which
/// models the full Table 4 configuration: 1 channel, 2 ranks, 4 bank groups of
/// 4 banks, 128K rows per bank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramGeometry {
    /// Number of independent memory channels.
    pub channels: usize,
    /// Number of ranks per channel.
    pub ranks_per_channel: usize,
    /// Number of bank groups per rank (DDR4: 4).
    pub bank_groups_per_rank: usize,
    /// Number of banks per bank group (DDR4: 4).
    pub banks_per_group: usize,
    /// Number of rows per bank.
    pub rows_per_bank: usize,
    /// Number of cache-line-sized columns per row.
    pub columns_per_row: usize,
    /// Row width in bytes (the amount of data a single `ACT` latches into the
    /// row buffer across the whole rank). 8 KiB for the paper's Table 4 system.
    pub row_size_bytes: usize,
}

impl DramGeometry {
    /// Geometry of the paper's simulated system (Table 4): DDR4, 1 channel,
    /// 2 ranks/channel, 4 bank groups, 4 banks/bank group, 128K rows/bank, 8 KiB rows.
    pub fn table4_system() -> Self {
        Self {
            channels: 1,
            ranks_per_channel: 2,
            bank_groups_per_rank: 4,
            banks_per_group: 4,
            rows_per_bank: 128 * 1024,
            columns_per_row: 128,
            row_size_bytes: 8 * 1024,
        }
    }

    /// A single-rank 8 Gb x8 DDR4 device: 16 banks of 64K rows, 8 KiB rows.
    /// This matches modules H4, S0, S1 and S2 from Table 5.
    pub fn ddr4_8gb_x8() -> Self {
        Self {
            channels: 1,
            ranks_per_channel: 1,
            bank_groups_per_rank: 4,
            banks_per_group: 4,
            rows_per_bank: 64 * 1024,
            columns_per_row: 128,
            row_size_bytes: 8 * 1024,
        }
    }

    /// A deliberately small geometry used by tests and quick experiments: a
    /// single rank with 16 banks of `rows_per_bank` rows and 1 KiB rows.
    ///
    /// The characterization pipeline is geometry-agnostic, so experiments default to
    /// scaled-down banks to keep runtimes in seconds (see the `svard_system` crate
    /// docs, "Scaled-down substrate").
    pub fn scaled(rows_per_bank: usize, row_size_bytes: usize) -> Self {
        Self {
            channels: 1,
            ranks_per_channel: 1,
            bank_groups_per_rank: 4,
            banks_per_group: 4,
            rows_per_bank,
            columns_per_row: (row_size_bytes / 64).max(1),
            row_size_bytes,
        }
    }

    /// Number of banks in one rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups_per_rank * self.banks_per_group
    }

    /// Total number of banks across all channels and ranks.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank()
    }

    /// Total number of DRAM rows in the system.
    pub fn total_rows(&self) -> usize {
        self.total_banks() * self.rows_per_bank
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_rows() as u64 * self.row_size_bytes as u64
    }

    /// Number of bits in the row address field.
    pub fn row_bits(&self) -> u32 {
        usize::BITS - (self.rows_per_bank - 1).leading_zeros()
    }

    /// Flatten the (channel, rank, bank group, bank) part of an address into a
    /// single dense bank index in `[0, total_banks())`.
    pub fn flatten_bank(&self, addr: &DramAddress) -> usize {
        self.flat_bank_of(addr.bank_id())
    }

    /// [`flatten_bank`](Self::flatten_bank) for a [`BankId`], or `None` when
    /// any of its coordinates lies outside this geometry.
    pub fn bank_index(&self, bank: BankId) -> Option<usize> {
        let in_range = bank.channel < self.channels
            && bank.rank < self.ranks_per_channel
            && bank.bank_group < self.bank_groups_per_rank
            && bank.bank < self.banks_per_group;
        in_range.then(|| self.flat_bank_of(bank))
    }

    fn flat_bank_of(&self, bank: BankId) -> usize {
        ((bank.channel * self.ranks_per_channel + bank.rank) * self.bank_groups_per_rank
            + bank.bank_group)
            * self.banks_per_group
            + bank.bank
    }

    /// Inverse of [`flatten_bank`](Self::flatten_bank): reconstruct the bank
    /// coordinates (with row/column zeroed) from a dense bank index.
    pub fn unflatten_bank(&self, mut flat: usize) -> DramAddress {
        let bank = flat % self.banks_per_group;
        flat /= self.banks_per_group;
        let bank_group = flat % self.bank_groups_per_rank;
        flat /= self.bank_groups_per_rank;
        let rank = flat % self.ranks_per_channel;
        flat /= self.ranks_per_channel;
        DramAddress {
            channel: flat,
            rank,
            bank_group,
            bank,
            row: 0,
            column: 0,
        }
    }

    /// Validate that an address is within this geometry's bounds.
    pub fn validate(&self, addr: &DramAddress) -> Result<(), DramError> {
        if addr.channel >= self.channels
            || addr.rank >= self.ranks_per_channel
            || addr.bank_group >= self.bank_groups_per_rank
            || addr.bank >= self.banks_per_group
            || addr.row >= self.rows_per_bank
            || addr.column >= self.columns_per_row
        {
            Err(DramError::AddressOutOfBounds {
                address: addr.clone(),
            })
        } else {
            Ok(())
        }
    }

    /// Relative location of a row within its bank, in `[0, 1]`, where 0 and 1 are
    /// the two edges of the bank. This is the x-axis of Figs. 4 and 6.
    pub fn relative_row_location(&self, row: usize) -> f64 {
        if self.rows_per_bank <= 1 {
            0.0
        } else {
            row as f64 / (self.rows_per_bank - 1) as f64
        }
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::table4_system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_counts() {
        let g = DramGeometry::table4_system();
        assert_eq!(g.banks_per_rank(), 16);
        assert_eq!(g.total_banks(), 32);
        assert_eq!(g.rows_per_bank, 131_072);
        assert_eq!(g.row_bits(), 17);
    }

    #[test]
    fn capacity_of_8gb_x8_rank() {
        let g = DramGeometry::ddr4_8gb_x8();
        // 16 banks * 64K rows * 8 KiB = 8 GiB per rank (rank-wide rows).
        assert_eq!(g.capacity_bytes(), 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let g = DramGeometry::table4_system();
        for flat in 0..g.total_banks() {
            let a = g.unflatten_bank(flat);
            assert_eq!(g.flatten_bank(&a), flat);
        }
    }

    #[test]
    fn bank_index_matches_flatten_and_rejects_out_of_range() {
        let g = DramGeometry::table4_system();
        for flat in 0..g.total_banks() {
            assert_eq!(g.bank_index(g.unflatten_bank(flat).bank_id()), Some(flat));
        }
        let mut bank = g.unflatten_bank(0).bank_id();
        bank.rank = g.ranks_per_channel;
        assert_eq!(g.bank_index(bank), None);
    }

    #[test]
    fn validate_rejects_out_of_bounds() {
        let g = DramGeometry::ddr4_8gb_x8();
        let mut a = DramAddress::default();
        assert!(g.validate(&a).is_ok());
        a.row = g.rows_per_bank;
        assert!(g.validate(&a).is_err());
    }

    #[test]
    fn relative_location_spans_unit_interval() {
        let g = DramGeometry::scaled(1024, 1024);
        assert_eq!(g.relative_row_location(0), 0.0);
        assert_eq!(g.relative_row_location(1023), 1.0);
        let mid = g.relative_row_location(511);
        assert!(mid > 0.49 && mid < 0.51);
    }

    #[test]
    fn scaled_geometry_has_at_least_one_column() {
        let g = DramGeometry::scaled(16, 32);
        assert!(g.columns_per_row >= 1);
    }
}
