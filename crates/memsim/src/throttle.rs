//! The throttle table: rows a defense has blocked from activating, each until
//! a given cycle (BlockHammer's `ThrottleRow`).
//!
//! While any throttle is active, the scheduler looks up every request it
//! examines, every cycle. The table is keyed by flat bank, each bank holding
//! a short list of `(row, until)`, so a lookup indexes one bank and compares
//! rows: it hashes nothing. Like the tallies, it is called from the generic
//! controller, so the lookups are `#[inline]`.

/// Active throttle windows: per flat bank, the throttled rows and the first
/// cycle at which each may be activated again. At most one entry per
/// `(bank, row)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ThrottleTable {
    banks: Vec<Vec<(usize, u64)>>,
    len: usize,
}

impl ThrottleTable {
    /// An empty table over `banks` flat banks.
    pub(crate) fn new(banks: usize) -> Self {
        Self {
            banks: vec![Vec::new(); banks],
            len: 0,
        }
    }

    /// Whether no row is throttled.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of throttled `(bank, row)` entries, expired ones included until
    /// purged.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The cycle until which `row` of flat bank `bank` is throttled, if it
    /// has an entry.
    #[inline]
    pub(crate) fn get(&self, bank: usize, row: usize) -> Option<u64> {
        let rows = self.banks.get(bank)?;
        rows.iter()
            .find(|&&(r, _)| r == row)
            .map(|&(_, until)| until)
    }

    /// Throttle `row` of flat bank `bank` until `until`, replacing any
    /// window it already has. The controller passes only banks of its
    /// geometry (a target outside it falls back to the activating bank).
    pub(crate) fn insert(&mut self, bank: usize, row: usize, until: u64) {
        let Some(rows) = self.banks.get_mut(bank) else {
            return;
        };
        match rows.iter_mut().find(|(r, _)| *r == row) {
            Some(entry) => entry.1 = until,
            None => {
                rows.push((row, until));
                self.len += 1;
            }
        }
    }

    /// Drop every window that has ended by `cycle` (keep `until > cycle`).
    pub(crate) fn retain_active(&mut self, cycle: u64) {
        let mut len = 0;
        for rows in &mut self.banks {
            rows.retain(|&(_, until)| until > cycle);
            len += rows.len();
        }
        self.len = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_keyed_by_bank_and_row() {
        let mut table = ThrottleTable::new(4);
        assert!(table.is_empty());
        table.insert(1, 7, 100);
        table.insert(2, 7, 200);
        table.insert(1, 7, 150); // replaces, does not add
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(1, 7), Some(150));
        assert_eq!(table.get(2, 7), Some(200));
        assert_eq!(table.get(1, 8), None);
        assert_eq!(table.get(9, 7), None);
    }

    #[test]
    fn retain_active_drops_ended_windows() {
        let mut table = ThrottleTable::new(2);
        table.insert(0, 1, 10);
        table.insert(0, 2, 11);
        table.insert(1, 1, 12);
        table.retain_active(11);
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(0, 1), None);
        assert_eq!(table.get(0, 2), None);
        assert_eq!(table.get(1, 1), Some(12));
        table.retain_active(12);
        assert!(table.is_empty());
    }
}
