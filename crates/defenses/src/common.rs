//! Building blocks shared by several defenses: per-row activation counters with
//! refresh-window epochs, a counting Bloom filter, and the integer hasher the
//! defenses' hash maps use.
//!
//! # Why the maps hash with [`IntHasher`]
//!
//! The defenses' per-row tables ([`ActivationCounters`], Hydra's group, row
//! and row-count-cache tables) sit on the per-activation path, where std's
//! default SipHash over a 40-byte `(BankId, usize)` key cost more than the
//! rest of the hook. They hash with [`IntHasher`] instead, a seedless
//! multiply-rotate hasher, which is safe on both counts a seed guards:
//!
//! - *Determinism.* The maps are only ever accessed by key (`entry`, `get`,
//!   `remove`, `clear`, `len`), never iterated, so no result can depend on
//!   bucket order. (A seedless hasher would make the order reproducible
//!   anyway; std's `RandomState` would not.)
//! - *Hash flooding.* Every key is a bank and row the simulator itself
//!   decoded from a synthetic workload; no outside party chooses them, so
//!   there is no adversary to aim colliding keys at the table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use svard_dram::address::BankId;

/// Number of `on_refresh_tick` callbacks (one per tREFI) per refresh window
/// (tREFW = 8192 × tREFI for DDR4).
pub const REFRESH_TICKS_PER_WINDOW: u64 = 8192;

/// A seedless multiply-rotate hasher for small integer keys (the FxHash
/// scheme): each word is folded in as `(h.rotl(5) ^ word) * K`. See the
/// module docs for why it is safe here.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher {
    hash: u64,
}

/// The odd multiplier of [`IntHasher`] (2^64 / φ, rounded to odd).
const INT_HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Byte-wise; the integer keys hashed here take `write_usize`.
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(INT_HASH_K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits, which a multiply
        // mixes least; rotate the well-mixed high bits down.
        self.hash.rotate_left(26)
    }
}

/// A [`HashMap`] hashed with [`IntHasher`]. Build it with `IntMap::default()`.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// An exact per-row activation counter table, reset every refresh window.
///
/// Real implementations use compressed structures (Bloom filters, Misra-Gries,
/// count-min sketches); the exact table is the reference the compressed trackers are
/// tested against, and is also what AQUA and Hydra's per-row tables model.
#[derive(Debug, Clone, Default)]
pub struct ActivationCounters {
    // Determinism audit: entry/get/remove/clear only — the table is never
    // iterated, so no bucket order can leak into results, and O(1) access
    // matters on the per-activation hot path.
    counts: IntMap<(BankId, usize), u64>,
    refresh_ticks: u64,
}

impl ActivationCounters {
    /// An empty counter table.
    pub fn new() -> Self {
        Self::default()
    }

    // lint: hot-path
    /// Record an activation and return the updated count.
    pub fn record(&mut self, bank: BankId, row: usize) -> u64 {
        let c = self.counts.entry((bank, row)).or_insert(0);
        *c += 1;
        *c
    }

    /// Current count of a row.
    pub fn get(&self, bank: BankId, row: usize) -> u64 {
        self.counts.get(&(bank, row)).copied().unwrap_or(0)
    }

    /// Reset the counter of one row (after a preventive action protected it).
    pub fn reset(&mut self, bank: BankId, row: usize) {
        self.counts.remove(&(bank, row));
    }
    // lint: end-hot-path

    /// Called once per tREFI; resets all counters once per refresh window, since
    /// the periodic refresh restores every row's charge within that window.
    pub fn on_refresh_tick(&mut self) {
        self.refresh_ticks += 1;
        if self.refresh_ticks >= REFRESH_TICKS_PER_WINDOW {
            self.refresh_ticks = 0;
            self.counts.clear();
        }
    }

    /// Number of rows currently tracked.
    pub fn tracked_rows(&self) -> usize {
        self.counts.len()
    }
}

/// A counting Bloom filter over `(bank, row)` keys, as used by BlockHammer's
/// RowBlocker (two of these operate in alternating epochs).
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    counters: Vec<u32>,
    num_hashes: usize,
    /// `counters.len() - 1` when the length is a power of two, so an index
    /// reduces by mask instead of `%` (the same index either way).
    mask: Option<u64>,
}

impl CountingBloomFilter {
    /// Create a filter with `counters` counters and `num_hashes` hash functions.
    pub fn new(counters: usize, num_hashes: usize) -> Self {
        assert!(counters > 0 && num_hashes > 0);
        Self {
            counters: vec![0; counters],
            num_hashes,
            mask: counters.is_power_of_two().then_some(counters as u64 - 1),
        }
    }

    /// The filter's key for a row: bank coordinates folded above the row.
    fn key(bank: BankId, row: usize) -> u64 {
        ((bank.channel as u64) << 48)
            ^ ((bank.rank as u64) << 40)
            ^ ((bank.bank_group as u64) << 36)
            ^ ((bank.bank as u64) << 32)
            ^ row as u64
    }

    // lint: hot-path
    /// The counter index of hash function `i` for `key`.
    #[inline]
    fn index(&self, key: u64, i: usize) -> usize {
        let mut x = key ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        match self.mask {
            Some(mask) => (x & mask) as usize,
            None => (x % self.counters.len() as u64) as usize,
        }
    }

    /// Increment the key's counters and return the new estimated count.
    pub fn insert(&mut self, bank: BankId, row: usize) -> u32 {
        let key = Self::key(bank, row);
        self.increment(key);
        self.estimate_key(key)
    }

    /// Estimated count of a key (an overestimate, never an underestimate).
    pub fn estimate(&self, bank: BankId, row: usize) -> u32 {
        self.estimate_key(Self::key(bank, row))
    }

    /// Increment every counter of `key`. Estimates read the counters only
    /// afterwards: two hash functions may share a counter, and the estimate
    /// is the minimum after both counted.
    fn increment(&mut self, key: u64) {
        for i in 0..self.num_hashes {
            let index = self.index(key, i);
            if let Some(c) = self.counters.get_mut(index) {
                *c = c.saturating_add(1);
            }
        }
    }

    fn estimate_key(&self, key: u64) -> u32 {
        (0..self.num_hashes)
            .filter_map(|i| self.counters.get(self.index(key, i)).copied())
            .min()
            .unwrap_or(0)
    }
    // lint: end-hot-path

    /// Clear all counters (epoch turnover).
    pub fn clear(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
    }

    /// Number of non-zero counters — the filter's occupancy, reported to the
    /// observability layer (an O(counters) scan; snapshot-time use only).
    pub fn occupied(&self) -> usize {
        self.counters.iter().filter(|c| **c > 0).count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn bank() -> BankId {
        BankId::default()
    }

    /// A seeded 64-bit LCG stream for the reference-equivalence tests.
    pub(crate) struct Stream(u64);

    impl Stream {
        pub(crate) fn new(seed: u64) -> Self {
            Self(seed)
        }

        pub(crate) fn next(&mut self) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) as usize
        }

        /// One of `banks` banks, spread over every `BankId` field.
        pub(crate) fn bank(&mut self, banks: usize) -> BankId {
            let b = self.next() % banks;
            BankId {
                channel: b % 2,
                rank: (b / 2) % 2,
                bank_group: (b / 4) % 4,
                bank: b / 16,
            }
        }
    }

    /// `ActivationCounters` as a map with no hasher at all: every count and
    /// the tracked-row total must match an ordered map op for op.
    #[test]
    fn activation_counters_match_an_ordered_map() {
        let mut counters = ActivationCounters::new();
        let mut reference: BTreeMap<(BankId, usize), u64> = BTreeMap::new();
        let (mut ticks, mut windows) = (0, 0);
        let mut stream = Stream::new(11);
        for i in 0..200_000 {
            let r = stream.next();
            let (bank, row) = (stream.bank(8), r % 3_000);
            match r % 16 {
                0 => {
                    counters.reset(bank, row);
                    reference.remove(&(bank, row));
                }
                1 => assert_eq!(
                    counters.get(bank, row),
                    reference.get(&(bank, row)).copied().unwrap_or(0),
                    "get {i}"
                ),
                2 => {
                    counters.on_refresh_tick();
                    ticks += 1;
                    if ticks == REFRESH_TICKS_PER_WINDOW {
                        ticks = 0;
                        windows += 1;
                        reference.clear();
                    }
                }
                _ => {
                    let count = reference.entry((bank, row)).or_insert(0);
                    *count += 1;
                    assert_eq!(counters.record(bank, row), *count, "record {i}");
                }
            }
            assert_eq!(counters.tracked_rows(), reference.len(), "op {i}");
        }
        assert!(windows > 0, "no refresh window turned over");
    }

    /// The filter as it was before its indices were computed inline: a
    /// collected index vector per call, reduced by `%`.
    struct ReferenceBloom {
        counters: Vec<u32>,
        num_hashes: usize,
    }

    impl ReferenceBloom {
        fn indices(&self, bank: BankId, row: usize) -> Vec<usize> {
            let key = ((bank.channel as u64) << 48)
                ^ ((bank.rank as u64) << 40)
                ^ ((bank.bank_group as u64) << 36)
                ^ ((bank.bank as u64) << 32)
                ^ row as u64;
            (0..self.num_hashes)
                .map(|i| {
                    let mut x = key ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x ^= x >> 33;
                    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    x ^= x >> 33;
                    (x % self.counters.len() as u64) as usize
                })
                .collect()
        }

        fn insert(&mut self, bank: BankId, row: usize) -> u32 {
            let idx = self.indices(bank, row);
            for &i in &idx {
                self.counters[i] = self.counters[i].saturating_add(1);
            }
            idx.iter().map(|&i| self.counters[i]).min().unwrap_or(0)
        }

        fn estimate(&self, bank: BankId, row: usize) -> u32 {
            let idx = self.indices(bank, row);
            idx.iter().map(|&i| self.counters[i]).min().unwrap_or(0)
        }
    }

    /// Same inserts, estimates and occupancy as the reference, reduced by
    /// mask (16 Ki counters) or by `%` (the other sizes). At 7 counters a
    /// key's four hashes often share a counter. Each size runs as a
    /// BlockHammer-style pair (insert into one filter, estimate in the other,
    /// swap and clear every so often).
    #[test]
    fn bloom_filter_matches_the_collected_index_reference() {
        for (size, hashes) in [(16 * 1024, 4), (12_289, 4), (1_000, 3), (7, 4)] {
            let mut filters = [
                CountingBloomFilter::new(size, hashes),
                CountingBloomFilter::new(size, hashes),
            ];
            assert_eq!(filters[0].mask.is_some(), size == 16 * 1024);
            let mut references = [0, 1].map(|_| ReferenceBloom {
                counters: vec![0; size],
                num_hashes: hashes,
            });
            let mut stream = Stream::new(size as u64);
            for i in 0..60_000 {
                let r = stream.next();
                let (bank, row) = (stream.bank(32), r % 65_536);
                let (a, b) = (r % 2, 1 - r % 2);
                let [first, second] = &mut filters;
                let (active, aging) = if a == 0 {
                    (first, &*second)
                } else {
                    (second, &*first)
                };
                match (r >> 8) % 4 {
                    0 => assert_eq!(
                        active.estimate(bank, row),
                        references[a].estimate(bank, row),
                        "size {size}, estimate {i}"
                    ),
                    1 => assert_eq!(
                        active.insert(bank, row),
                        references[a].insert(bank, row),
                        "size {size}, insert {i}"
                    ),
                    _ => assert_eq!(
                        (active.insert(bank, row), aging.estimate(bank, row)),
                        (
                            references[a].insert(bank, row),
                            references[b].estimate(bank, row)
                        ),
                        "size {size}, insert and estimate {i}"
                    ),
                }
                if i % 1_000 == 0 {
                    for (filter, reference) in filters.iter().zip(&references) {
                        let occupied = reference.counters.iter().filter(|c| **c > 0).count();
                        assert_eq!(filter.occupied(), occupied, "size {size}, op {i}");
                    }
                }
                if i % 25_000 == 24_999 {
                    filters[b].clear();
                    references[b].counters.iter_mut().for_each(|c| *c = 0);
                }
            }
            for (filter, reference) in filters.iter().zip(&references) {
                assert_eq!(filter.counters, reference.counters, "size {size}");
            }
        }
    }

    #[test]
    fn counters_count_and_reset() {
        let mut c = ActivationCounters::new();
        assert_eq!(c.record(bank(), 5), 1);
        assert_eq!(c.record(bank(), 5), 2);
        assert_eq!(c.get(bank(), 5), 2);
        assert_eq!(c.get(bank(), 6), 0);
        c.reset(bank(), 5);
        assert_eq!(c.get(bank(), 5), 0);
    }

    #[test]
    fn counters_clear_every_refresh_window() {
        let mut c = ActivationCounters::new();
        c.record(bank(), 1);
        for _ in 0..REFRESH_TICKS_PER_WINDOW - 1 {
            c.on_refresh_tick();
        }
        assert_eq!(c.get(bank(), 1), 1);
        c.on_refresh_tick();
        assert_eq!(c.get(bank(), 1), 0);
        assert_eq!(c.tracked_rows(), 0);
    }

    #[test]
    fn bloom_filter_never_underestimates() {
        let mut f = CountingBloomFilter::new(1024, 4);
        for _ in 0..100 {
            f.insert(bank(), 42);
        }
        for row in 0..50 {
            f.insert(bank(), row);
        }
        assert!(f.estimate(bank(), 42) >= 100);
        // Other rows may alias but are never *under*-counted.
        for row in 0..50 {
            assert!(f.estimate(bank(), row) >= 1);
        }
    }

    #[test]
    fn bloom_filter_estimates_are_reasonably_tight() {
        let mut f = CountingBloomFilter::new(16 * 1024, 4);
        for row in 0..1000 {
            f.insert(bank(), row);
        }
        // A row inserted once should not look like a hot row.
        let overestimates = (0..1000).filter(|&r| f.estimate(bank(), r) > 5).count();
        assert!(
            overestimates < 50,
            "{overestimates} rows grossly overestimated"
        );
    }

    #[test]
    fn bloom_filter_clear_resets_estimates() {
        let mut f = CountingBloomFilter::new(256, 3);
        f.insert(bank(), 7);
        f.clear();
        assert_eq!(f.estimate(bank(), 7), 0);
    }
}
