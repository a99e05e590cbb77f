//! Per-bank storage and state for the behavioural chip model.

/// State of a single DRAM row inside the model.
#[derive(Debug, Clone)]
pub struct RowState {
    /// The stored data, one byte per 8 cells.
    pub data: Vec<u8>,
    /// Read-disturbance dose accumulated since the row was last sensed (activated or
    /// refreshed), in units of *effective double-sided hammer pairs* at reference
    /// conditions. Compared against the row's `true_threshold`.
    pub dose: f64,
    /// Number of times this row has been activated (aggressor-side bookkeeping).
    pub activations: u64,
    /// How many of the row's weakest cells have flipped since it was last
    /// filled. A cell flips at most once between writes of its byte, so the
    /// next disturbance flips only the cells past this prefix.
    pub(crate) flipped: usize,
    /// Set once a column write lands on a row with flipped cells, after which
    /// the flipped cells are no longer a prefix of the ranking: bit `c` is set
    /// when cell `c` has flipped since its byte was last written.
    pub(crate) flipped_mask: Option<Vec<u64>>,
}

impl RowState {
    /// A fresh row holding all-zero data.
    pub fn new(row_size_bytes: usize) -> Self {
        Self {
            data: vec![0u8; row_size_bytes],
            dose: 0.0,
            activations: 0,
            flipped: 0,
            flipped_mask: None,
        }
    }

    /// Fill the row with a repeated byte. Every cell may flip again afterwards.
    pub fn fill(&mut self, byte: u8) {
        self.data.iter_mut().for_each(|b| *b = byte);
        self.forget_flips();
    }

    /// Replace the row's data (a RowClone destination). Every cell may flip
    /// again afterwards.
    pub(crate) fn overwrite(&mut self, data: Vec<u8>) {
        self.data = data;
        self.forget_flips();
    }

    fn forget_flips(&mut self) {
        self.flipped = 0;
        self.flipped_mask = None;
    }

    // lint: hot-path
    /// Flip the cells of `weakest` (the row's ranking prefix, weakest first)
    /// that have not flipped since their byte was last written, and return how
    /// many flipped.
    pub(crate) fn flip_weakest(&mut self, weakest: &[u32]) -> u64 {
        let mut flipped = 0;
        match &mut self.flipped_mask {
            None => {
                for &cell in weakest.get(self.flipped..).unwrap_or(&[]) {
                    flipped += u64::from(toggle(&mut self.data, cell));
                }
                self.flipped = self.flipped.max(weakest.len());
            }
            Some(mask) => {
                for &cell in weakest {
                    let (word, bit) = (cell as usize / 64, 1u64 << (cell % 64));
                    if let Some(w) = mask.get_mut(word).filter(|w| **w & bit == 0) {
                        *w |= bit;
                        flipped += u64::from(toggle(&mut self.data, cell));
                    }
                }
            }
        }
        flipped
    }
    // lint: end-hot-path

    /// Write `byte` to the bytes of `range`. The flipped weakest cells stop
    /// forming a prefix when some of them are rewritten, so a row with flips
    /// first records them in a mask, from `weakest` (its ranking prefix of at
    /// least `flipped` cells); the rewritten cells leave the mask.
    pub(crate) fn write_bytes<'a>(
        &mut self,
        range: std::ops::Range<usize>,
        byte: u8,
        weakest: impl FnOnce(usize) -> &'a [u32],
    ) {
        let Some(bytes) = self.data.get_mut(range.clone()) else {
            return;
        };
        bytes.iter_mut().for_each(|b| *b = byte);
        if self.flipped > 0 && self.flipped_mask.is_none() {
            let mut mask = vec![0u64; self.data.len().div_ceil(8)];
            for &cell in weakest(self.flipped) {
                if let Some(w) = mask.get_mut(cell as usize / 64) {
                    *w |= 1 << (cell % 64);
                }
            }
            self.flipped_mask = Some(mask);
        }
        if let Some(mask) = &mut self.flipped_mask {
            for cell in range.start * 8..range.end * 8 {
                if let Some(w) = mask.get_mut(cell / 64) {
                    *w &= !(1 << (cell % 64));
                }
            }
        }
    }
}

/// Toggle one cell of `data`; false when the cell lies outside it.
fn toggle(data: &mut [u8], cell: u32) -> bool {
    match data.get_mut(cell as usize / 8) {
        Some(byte) => {
            *byte ^= 1 << (cell % 8);
            true
        }
        None => false,
    }
}

/// State of a single DRAM bank inside the model.
#[derive(Debug, Clone)]
pub struct BankState {
    /// Per-physical-row state.
    pub rows: Vec<RowState>,
    /// The currently open (activated) physical row, if any.
    pub open_row: Option<usize>,
    /// Time (ns) at which the open row was activated.
    pub open_since_ns: f64,
    /// Round-robin cursor for auto-refresh.
    pub refresh_cursor: usize,
}

impl BankState {
    /// Create a bank of `rows` rows, each `row_size_bytes` wide, all zeroed.
    pub fn new(rows: usize, row_size_bytes: usize) -> Self {
        Self {
            rows: (0..rows).map(|_| RowState::new(row_size_bytes)).collect(),
            open_row: None,
            open_since_ns: 0.0,
            refresh_cursor: 0,
        }
    }

    /// Number of rows in the bank.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// True if the bank has an open row.
    pub fn is_open(&self) -> bool {
        self.open_row.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bank_is_closed_and_zeroed() {
        let b = BankState::new(16, 64);
        assert!(!b.is_open());
        assert_eq!(b.num_rows(), 16);
        assert!(b.rows.iter().all(|r| r.data.iter().all(|&x| x == 0)));
    }

    #[test]
    fn fill_overwrites_all_bytes() {
        let mut r = RowState::new(32);
        r.fill(0xAA);
        assert!(r.data.iter().all(|&b| b == 0xAA));
    }
}
