//! Per-bank tallies of one request queue, so the FR-FCFS scheduler can decide
//! from bank state instead of visiting every queued request (see the
//! controller's module docs).
//!
//! Everything here runs on the scheduler's hot path from the controller,
//! which is generic and so compiled in the crate that instantiates it;
//! `#[inline]` lets those calls inline across the crate boundary.

/// A set of flat bank indices: one bit per bank, sized from the geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BankSet {
    words: Vec<u64>,
}

impl BankSet {
    /// An empty set over `banks` banks.
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            words: vec![0; banks.div_ceil(64)],
        }
    }

    /// Add `bank` to the set if `member`, else remove it.
    #[inline]
    pub(crate) fn set(&mut self, bank: usize, member: bool) {
        if let Some(w) = self.words.get_mut(bank / 64) {
            let bit = 1u64 << (bank % 64);
            if member {
                *w |= bit;
            } else {
                *w &= !bit;
            }
        }
    }

    /// The members, in increasing order.
    #[inline]
    pub(crate) fn iter(&self) -> Members<'_> {
        Members {
            words: self.words.iter(),
            base: 0,
            word: 0,
        }
    }
}

/// Iterator over a [`BankSet`]'s members.
pub(crate) struct Members<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Bank index of bit 0 of `word`.
    base: usize,
    /// The not yet visited members of the current word.
    word: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            // `base` runs one word ahead until the first word is loaded.
            self.word = *self.words.next()?;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base - 64 + bit)
    }
}

/// The queued requests to one bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BankTally {
    /// Queued requests to the bank.
    entries: u32,
    /// How many of them target the bank's open row.
    open: u32,
    /// Queued requests per row, for every row that has one.
    rows: Vec<(usize, u32)>,
}

impl BankTally {
    #[inline]
    fn row_count(&self, row: usize) -> u32 {
        self.rows
            .iter()
            .find(|&&(r, _)| r == row)
            .map_or(0, |&(_, n)| n)
    }
}

/// Per-bank counts of one request queue: entries per bank, entries to the
/// bank's open row, and entries per row (so a new open row is recounted in
/// O(rows queued to the bank), not O(queue)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct QueueTally {
    banks: Vec<BankTally>,
    /// Banks with at least one queued request.
    nonempty: BankSet,
    /// Banks with at least one queued request to their open row.
    with_open: BankSet,
}

impl QueueTally {
    /// Empty tallies over `banks` banks.
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            banks: vec![BankTally::default(); banks],
            nonempty: BankSet::new(banks),
            with_open: BankSet::new(banks),
        }
    }

    /// Count a request to `row` of `bank` joining the queue; `open` says
    /// whether `row` is the bank's open row.
    #[inline]
    pub(crate) fn add(&mut self, bank: usize, row: usize, open: bool) {
        let Some(t) = self.banks.get_mut(bank) else {
            return;
        };
        t.entries += 1;
        t.open += u32::from(open);
        match t.rows.iter_mut().find(|(r, _)| *r == row) {
            Some((_, n)) => *n += 1,
            None => t.rows.push((row, 1)),
        }
        self.nonempty.set(bank, true);
        self.with_open.set(bank, t.open > 0);
    }

    /// Count a request to `row` of `bank` leaving the queue (`open` as for
    /// [`add`](Self::add)).
    #[inline]
    pub(crate) fn remove(&mut self, bank: usize, row: usize, open: bool) {
        let Some(t) = self.banks.get_mut(bank) else {
            return;
        };
        t.entries -= 1;
        t.open -= u32::from(open);
        if let Some(pos) = t.rows.iter().position(|&(r, _)| r == row) {
            if let Some((_, n)) = t.rows.get_mut(pos) {
                *n -= 1;
                if *n == 0 {
                    t.rows.swap_remove(pos);
                }
            }
        }
        self.nonempty.set(bank, t.entries > 0);
        self.with_open.set(bank, t.open > 0);
    }

    /// Recount `bank`'s open-row entries after its open row became `open_row`.
    #[inline]
    pub(crate) fn reopen(&mut self, bank: usize, open_row: Option<usize>) {
        let Some(t) = self.banks.get_mut(bank) else {
            return;
        };
        t.open = open_row.map_or(0, |row| t.row_count(row));
        self.with_open.set(bank, t.open > 0);
    }

    /// Queued requests to `bank`.
    #[inline]
    pub(crate) fn entries(&self, bank: usize) -> u32 {
        self.banks.get(bank).map_or(0, |t| t.entries)
    }

    /// Queued requests to `bank`'s open row.
    #[inline]
    pub(crate) fn open(&self, bank: usize) -> u32 {
        self.banks.get(bank).map_or(0, |t| t.open)
    }

    /// Banks with at least one queued request.
    #[inline]
    pub(crate) fn nonempty(&self) -> &BankSet {
        &self.nonempty
    }

    /// Banks with at least one queued request to their open row.
    #[inline]
    pub(crate) fn with_open(&self) -> &BankSet {
        &self.with_open
    }

    /// A copy with every bank's per-row counts in row order, for comparing
    /// tallies built in different orders.
    #[cfg(test)]
    pub(crate) fn canonical(&self) -> Self {
        let mut tally = self.clone();
        for bank in &mut tally.banks {
            bank.rows.sort_unstable();
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_set_spans_more_than_one_word() {
        let mut set = BankSet::new(128);
        for bank in [0, 63, 64, 127] {
            set.set(bank, true);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127]);
        set.set(64, false);
        set.set(0, false);
        // Banks past the last word are never members.
        set.set(128, true);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![63, 127]);
        assert_eq!(BankSet::new(128).iter().count(), 0);
    }

    #[test]
    fn tallies_follow_adds_removes_and_reopens() {
        let mut t = QueueTally::new(70);
        t.add(66, 5, false);
        t.add(66, 5, false);
        t.add(66, 9, false);
        assert_eq!((t.entries(66), t.open(66)), (3, 0));
        t.reopen(66, Some(5));
        assert_eq!(t.open(66), 2);
        assert_eq!(t.with_open().iter().collect::<Vec<_>>(), vec![66]);
        t.remove(66, 5, true);
        t.remove(66, 5, true);
        assert_eq!((t.entries(66), t.open(66)), (1, 0));
        assert_eq!(t.with_open().iter().count(), 0);
        assert_eq!(t.nonempty().iter().collect::<Vec<_>>(), vec![66]);
        t.remove(66, 9, false);
        assert_eq!(t, QueueTally::new(70));
    }
}
