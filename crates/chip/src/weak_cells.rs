//! The weakest-cell rankings of recently materialized rows.
//!
//! Materializing a row flips its weakest cells, and a characterization
//! materializes the same few rows (the victim `r` and the rows `r-2..=r+2` its
//! aggressors disturb) dozens of times. Ranking a row's cells hashes every cell,
//! so the chip keeps each row's ranking prefix and reuses it until a larger BER
//! needs a deeper one.

use svard_vulnerability::cells;

/// Number of cached rows. Row `phys` lives in slot `phys % SLOTS`, so any five
/// consecutive rows never evict each other.
const SLOTS: usize = 8;

/// Shallowest prefix ranked: most BERs flip a handful of cells, and ranking a
/// few more costs little next to hashing the row.
const MIN_DEPTH: usize = 32;

/// One cached row: the weakest cells of `(bank, phys)`, weakest first.
#[derive(Debug, Clone, Default)]
struct Slot {
    bank: usize,
    phys: usize,
    cells: Vec<u32>,
}

/// A fixed 8-slot cache of weakest-cell prefixes keyed by `(bank, physical row)`.
/// Slots hold no memory until first used, and a prefix deepens to the next power
/// of two of the cells requested, capped at the row's cells; the cache therefore
/// never holds more than `8 x cells_per_row` indices.
#[derive(Debug, Clone, Default)]
pub(crate) struct WeakCellCache {
    slots: [Slot; SLOTS],
    scratch: Vec<(u64, u32)>,
}

// lint: hot-path
impl WeakCellCache {
    /// The `count` weakest cells of `(bank, phys)`, weakest first (see
    /// [`cells::weakest_cells`]); `seed` and `cells_per_row` must be the same on
    /// every call. Allocation-free once the slot's prefix is deep enough.
    pub(crate) fn weakest(
        &mut self,
        seed: u64,
        bank: usize,
        phys: usize,
        cells_per_row: usize,
        count: usize,
    ) -> &[u32] {
        let Some(slot) = self.slots.get_mut(phys % SLOTS) else {
            return &[];
        };
        let count = count.min(cells_per_row);
        if slot.bank != bank || slot.phys != phys || slot.cells.len() < count {
            let depth = count.next_power_of_two().max(MIN_DEPTH);
            cells::weakest_cells(
                seed,
                bank,
                phys,
                cells_per_row,
                depth,
                &mut self.scratch,
                &mut slot.cells,
            );
            slot.bank = bank;
            slot.phys = phys;
        }
        debug_assert!(slot.cells.len() <= cells_per_row);
        slot.cells.get(..count).unwrap_or(&[])
    }
}
// lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_match_a_fresh_ranking() {
        let mut cache = WeakCellCache::default();
        let mut fresh = Vec::new();
        // Rows 0..12 revisit slots, deepen prefixes and shrink requests.
        for (phys, count) in [
            (3, 1),
            (3, 40),
            (11, 5),
            (3, 2),
            (4, 1024),
            (12, 300),
            (4, 7),
        ] {
            cells::weakest_cells(9, 1, phys, 1024, count, &mut Vec::new(), &mut fresh);
            assert_eq!(cache.weakest(9, 1, phys, 1024, count), &fresh[..]);
        }
        // The same row in another bank is another entry.
        cells::weakest_cells(9, 2, 4, 1024, 7, &mut Vec::new(), &mut fresh);
        assert_eq!(cache.weakest(9, 2, 4, 1024, 7), &fresh[..]);
    }

    #[test]
    fn prefixes_deepen_by_powers_of_two_up_to_the_row() {
        let mut cache = WeakCellCache::default();
        cache.weakest(1, 0, 5, 1024, 3);
        assert_eq!(cache.slots[5].cells.len(), MIN_DEPTH);
        cache.weakest(1, 0, 5, 1024, 33);
        assert_eq!(cache.slots[5].cells.len(), 64);
        cache.weakest(1, 0, 5, 1024, 700);
        assert_eq!(cache.slots[5].cells.len(), 1024);
        cache.weakest(1, 0, 5, 1024, 3);
        assert_eq!(cache.slots[5].cells.len(), 1024, "a deep prefix is reused");
        let mut narrow = WeakCellCache::default();
        assert_eq!(narrow.weakest(1, 0, 5, 24, 30).len(), 24);
        assert_eq!(narrow.slots[5].cells.len(), 24);
    }
}
