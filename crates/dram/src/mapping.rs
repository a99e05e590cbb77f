//! Address mappings.
//!
//! Two distinct mappings matter for read disturbance:
//!
//! 1. **In-DRAM row scrambling** ([`RowScramble`]): DRAM manufacturers remap the
//!    logical row addresses exposed over the interface onto physical row locations
//!    (for repair and cost reasons, §4.3 "Finding Physically Adjacent Rows"). A
//!    double-sided attacker must know this mapping to find the two rows physically
//!    adjacent to a victim. The characterization harness reverse-engineers it.
//! 2. **Controller address interleaving** ([`AddressMapper`]): how the memory
//!    controller splits a physical byte address into channel/rank/bank/row/column
//!    bits. The paper's simulated system uses the MOP (Minimalist Open Page) scheme.

use crate::address::DramAddress;
use crate::geometry::DramGeometry;

/// In-DRAM logical-to-physical row remapping scheme.
///
/// All schemes are involutions or at least bijections on `[0, rows_per_bank)`; the
/// inverse is provided so the test harness can compute which *logical* addresses to
/// activate in order to hammer the physical neighbours of a victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowScramble {
    /// Physical row = logical row. Used by some vendors and by scaled-down tests.
    #[default]
    Identity,
    /// The classic "3-bit swizzle" seen in several DDR3/DDR4 designs:
    /// within each block of 8 rows, rows are reordered by XORing bit 1 and bit 2
    /// with bit 0 (so logically adjacent rows are not physically adjacent).
    LowBitSwizzle,
    /// Mirrored pairs: rows `2k` and `2k+1` swap physical positions in odd 16-row
    /// blocks, emulating the folded layouts reported for some Samsung designs.
    MirroredPairs,
    /// XOR the row address with a per-device constant mask (models per-die repair
    /// remapping at a coarse granularity).
    XorMask(usize),
}

impl RowScramble {
    /// Map a logical row address (as seen on the DDR interface) to the physical row
    /// location inside the bank.
    pub fn logical_to_physical(&self, logical: usize, rows_per_bank: usize) -> usize {
        let r = match self {
            RowScramble::Identity => logical,
            RowScramble::LowBitSwizzle => {
                let b0 = logical & 1;
                // XOR bits 1 and 2 with bit 0.
                logical ^ (b0 << 1) ^ (b0 << 2)
            }
            RowScramble::MirroredPairs => {
                if (logical >> 4) & 1 == 1 {
                    logical ^ 1
                } else {
                    logical
                }
            }
            RowScramble::XorMask(mask) => logical ^ mask,
        };
        r % rows_per_bank
    }

    /// Map a physical row location back to the logical address that selects it.
    pub fn physical_to_logical(&self, physical: usize, rows_per_bank: usize) -> usize {
        // All supported scrambles are self-inverse given the same bank size, except
        // the modulo clip, which is only relevant for XorMask with an oversized mask;
        // masks are expected to be < rows_per_bank.
        self.logical_to_physical(physical, rows_per_bank)
    }

    /// The logical addresses of the two rows physically adjacent to the *logical*
    /// victim row: these are the aggressor rows of a double-sided attack.
    pub fn physical_neighbours_of(
        &self,
        logical_victim: usize,
        rows_per_bank: usize,
    ) -> Vec<usize> {
        let phys = self.logical_to_physical(logical_victim, rows_per_bank);
        let mut out = Vec::with_capacity(2);
        if phys > 0 {
            out.push(self.physical_to_logical(phys - 1, rows_per_bank));
        }
        if phys + 1 < rows_per_bank {
            out.push(self.physical_to_logical(phys + 1, rows_per_bank));
        }
        out
    }
}

/// Physical-address-to-DRAM-address interleaving used by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AddressMapper {
    /// Row : Rank : BankGroup : Bank : Column : Channel : CacheLine — a simple
    /// row-interleaved baseline.
    RowBankColumn,
    /// MOP (Minimalist Open Page) mapping used by the paper's Table 4 system:
    /// consecutive cache lines map to a small number of columns in the same row, then
    /// interleave across banks/bank groups/ranks, maximizing bank-level parallelism
    /// while preserving some row-buffer locality.
    #[default]
    Mop,
}

impl AddressMapper {
    /// Decompose a physical byte address into DRAM coordinates under this mapping.
    ///
    /// The cache-line offset (low 6 bits) is discarded; `column` indexes cache lines
    /// within the row. A field whose size is a power of two (every field of the
    /// Table 4 geometry and of the scaled ones) is cut with a shift and a mask,
    /// any other with a division.
    pub fn map(&self, geometry: &DramGeometry, phys_addr: u64) -> DramAddress {
        self.map_with(geometry, phys_addr, div_rem)
    }

    /// [`map`](Self::map), cutting each field off `x` with `split(x, size)`,
    /// which returns `(x / size, x % size)`.
    fn map_with(
        &self,
        geometry: &DramGeometry,
        phys_addr: u64,
        split: impl Fn(u64, u64) -> (u64, u64),
    ) -> DramAddress {
        let line = phys_addr >> 6;
        let cols = geometry.columns_per_row as u64;
        let banks = geometry.banks_per_group as u64;
        let groups = geometry.bank_groups_per_rank as u64;
        let ranks = geometry.ranks_per_channel as u64;
        let chans = geometry.channels as u64;
        let rows = geometry.rows_per_bank as u64;
        // Cut the next field of `size` off the low end of `x`.
        let mut x = line;
        let mut field = |size: u64| {
            let (rest, value) = split(x, size);
            x = rest;
            value as usize
        };

        match self {
            AddressMapper::RowBankColumn => {
                let channel = field(chans);
                let column = field(cols);
                let bank = field(banks);
                let bank_group = field(groups);
                let rank = field(ranks);
                let row = field(rows);
                DramAddress {
                    channel,
                    rank,
                    bank_group,
                    bank,
                    row,
                    column,
                }
            }
            AddressMapper::Mop => {
                // MOP groups a few consecutive cache lines (here 4) in the same row,
                // then interleaves across bank, bank group, rank and channel before
                // consuming the remaining column bits and finally the row bits.
                const MOP_WIDTH: u64 = 4;
                let col_lo = field(MOP_WIDTH);
                let channel = field(chans);
                let bank = field(banks);
                let bank_group = field(groups);
                let rank = field(ranks);
                let col_hi = field((cols / MOP_WIDTH).max(1));
                let row = field(rows);
                DramAddress {
                    channel,
                    rank,
                    bank_group,
                    bank,
                    row,
                    column: col_hi * MOP_WIDTH as usize + col_lo,
                }
            }
        }
    }
}

/// `(x / n, x % n)`, by a shift and a mask when `n` is a power of two.
#[inline]
fn div_rem(x: u64, n: u64) -> (u64, u64) {
    if n.is_power_of_two() {
        (x >> n.trailing_zeros(), x & (n - 1))
    } else {
        (x / n, x % n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_scramble_is_identity() {
        let s = RowScramble::Identity;
        for r in 0..64 {
            assert_eq!(s.logical_to_physical(r, 64), r);
        }
    }

    #[test]
    fn scrambles_are_bijections() {
        let n = 1024;
        for s in [
            RowScramble::Identity,
            RowScramble::LowBitSwizzle,
            RowScramble::MirroredPairs,
            RowScramble::XorMask(0x2A),
        ] {
            let mut seen = vec![false; n];
            for r in 0..n {
                let p = s.logical_to_physical(r, n);
                assert!(!seen[p], "{s:?} maps two rows to {p}");
                seen[p] = true;
                assert_eq!(s.physical_to_logical(p, n), r, "{s:?} not self-inverse");
            }
        }
    }

    #[test]
    fn neighbours_are_physically_adjacent() {
        let s = RowScramble::LowBitSwizzle;
        let n = 256;
        let victim = 100;
        let aggressors = s.physical_neighbours_of(victim, n);
        assert_eq!(aggressors.len(), 2);
        let vp = s.logical_to_physical(victim, n);
        for a in aggressors {
            let ap = s.logical_to_physical(a, n);
            assert_eq!(ap.abs_diff(vp), 1);
        }
    }

    #[test]
    fn mop_mapping_is_in_bounds_and_spreads_banks() {
        let g = DramGeometry::table4_system();
        let m = AddressMapper::Mop;
        let mut banks_seen = std::collections::BTreeSet::new();
        for i in 0..4096u64 {
            let a = m.map(&g, i * 64);
            g.validate(&a).unwrap();
            banks_seen.insert(g.flatten_bank(&a));
        }
        // Consecutive cache lines should reach many banks (bank-level parallelism).
        assert!(banks_seen.len() >= g.total_banks() / 2);
    }

    #[test]
    fn row_bank_column_mapping_is_in_bounds() {
        let g = DramGeometry::ddr4_8gb_x8();
        let m = AddressMapper::RowBankColumn;
        for i in (0..1_000_000u64).step_by(4097) {
            g.validate(&m.map(&g, i)).unwrap();
        }
    }

    #[test]
    fn mop_keeps_adjacent_lines_in_same_row() {
        let g = DramGeometry::table4_system();
        let m = AddressMapper::Mop;
        let a0 = m.map(&g, 0);
        let a1 = m.map(&g, 64);
        // With a MOP width of 4, the first 4 cache lines share a row and bank.
        assert!(a0.same_bank(&a1));
        assert_eq!(a0.row, a1.row);
    }

    /// `n` seeded, scattered physical addresses below 2^40 (splitmix64).
    fn seeded_addresses(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) & ((1 << 40) - 1)
        })
        .take(n)
    }

    /// The 72-bank controller geometry: 3 ranks of 4 groups of 6 banks, so
    /// the rank and bank fields are not powers of two.
    fn geometry_72_banks() -> DramGeometry {
        let mut g = DramGeometry::table4_system();
        g.rows_per_bank = 256;
        g.ranks_per_channel = 3;
        g.banks_per_group = 6;
        g
    }

    /// FNV-1a over every field of every decode of `addresses`.
    fn decode_digest(g: &DramGeometry, addresses: impl Iterator<Item = u64>) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for addr in addresses {
            let a = AddressMapper::Mop.map(g, addr);
            for v in [a.channel, a.rank, a.bank_group, a.bank, a.row, a.column] {
                h = (h ^ v as u64).wrapping_mul(0x100_0000_01B3);
            }
        }
        h
    }

    /// The shift-and-mask decode equals the division decode on the
    /// power-of-two geometries the simulator runs, and on the 72-bank one,
    /// whose rank and bank fields still divide.
    #[test]
    fn mop_shift_decode_equals_the_division_decode() {
        let divide = |x: u64, n: u64| (x / n, x % n);
        let mut small = DramGeometry::table4_system();
        small.rows_per_bank = 1024; // `MemoryConfig::small(1024)`
        for (seed, g) in [
            (1, DramGeometry::table4_system()),
            (2, small),
            (3, DramGeometry::scaled(256, 1024)),
            (4, geometry_72_banks()),
        ] {
            for addr in seeded_addresses(seed, 4096).chain(0..256) {
                let decoded = AddressMapper::Mop.map(&g, addr);
                assert_eq!(decoded, AddressMapper::Mop.map_with(&g, addr, divide));
                g.validate(&decoded).unwrap();
            }
        }
    }

    /// Pinned against the division-only decoder this one replaced: a
    /// geometry with non-power-of-two fields, and Table 4.
    #[test]
    fn mop_decode_matches_the_pinned_digests() {
        let cases = [
            (geometry_72_banks(), 72, 0x4dbd_f110_4d7b_277b),
            (DramGeometry::table4_system(), 4, 0x5ddf_78d2_1c7e_f2fb),
        ];
        for (g, seed, digest) in cases {
            assert_eq!(decode_digest(&g, seeded_addresses(seed, 4096)), digest);
        }
    }
}
