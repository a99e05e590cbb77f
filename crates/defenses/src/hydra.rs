//! Hydra: hybrid per-row activation tracking (Qureshi et al., ISCA 2022).
//!
//! Hydra keeps a small SRAM *Group Count Table* (GCT) that counts activations at the
//! granularity of row groups. When a group's count crosses the group threshold, the
//! group switches to per-row tracking: per-row counters live in a DRAM-resident *Row
//! Count Table* (RCT), cached by a small SRAM *Row Count Cache* (RCC). Per-row
//! counters are conservatively initialized to the group count at the switch. When a
//! row's counter crosses the row threshold, its neighbours are preventively
//! refreshed and the counter resets.
//!
//! Hydra's dominant overhead is not the preventive refreshes but the *off-chip
//! counter traffic* caused by RCC misses — which Svärd does not reduce (Obsv. 14
//! explains why Svärd's gains on Hydra are modest).

use std::collections::BTreeMap;
use svard_dram::address::BankId;
use svard_memsim::{MitigationHook, PreventiveAction};

use crate::common::{BankIndex, IntMap};
use crate::provider::SharedThresholdProvider;

/// Rows per group in the Group Count Table.
const ROWS_PER_GROUP: usize = 128;
/// Fraction of the victim threshold at which a group switches to per-row tracking.
const GROUP_FRACTION: f64 = 0.125;
/// Fraction of the victim threshold at which a row's neighbours are refreshed.
const ROW_FRACTION: f64 = 0.5;
/// Row Count Cache capacity (entries).
const RCC_ENTRIES: usize = 4096;
/// Extra column accesses paid per RCC miss (counter fetch + victim write-back).
const RCC_MISS_ACCESSES: u32 = 2;

/// The Hydra defense.
pub struct Hydra {
    provider: SharedThresholdProvider,
    // Key access only, never iterated (see `crate::common` on the hasher),
    // and O(1) lookups matter on the activation path.
    // Every table keys a bank by its index in `banks` (a 16-byte key, not
    // 40).
    group_counts: IntMap<(usize, usize), u64>,
    row_counts: IntMap<(usize, usize), u64>,
    /// LRU row-count cache: maps (bank, row) to its last-use stamp. Never
    /// iterated: eviction order comes from `rcc_by_stamp`.
    rcc: IntMap<(usize, usize), u64>,
    /// The same entries by stamp, oldest first. Every access takes a fresh
    /// stamp, so stamps are unique and the first entry is the LRU victim.
    rcc_by_stamp: BTreeMap<u64, (usize, usize)>,
    /// The banks Hydra has seen, in first-seen order.
    banks: BankIndex,
    use_stamp: u64,
    name: String,
    rcc_misses: u64,
    rcc_hits: u64,
    rcc_evictions: u64,
    preventive_refreshes: u64,
}

impl Hydra {
    /// Create Hydra on top of a threshold provider.
    pub fn new(provider: SharedThresholdProvider) -> Self {
        let name = format!("Hydra ({})", provider.name());
        Self {
            provider,
            group_counts: IntMap::default(),
            row_counts: IntMap::default(),
            rcc: IntMap::default(),
            rcc_by_stamp: BTreeMap::new(),
            banks: BankIndex::default(),
            use_stamp: 0,
            name,
            rcc_misses: 0,
            rcc_hits: 0,
            rcc_evictions: 0,
            preventive_refreshes: 0,
        }
    }

    /// Row-count-cache miss count (the driver of Hydra's overhead).
    pub fn rcc_misses(&self) -> u64 {
        self.rcc_misses
    }

    /// Row-count-cache hit count.
    pub fn rcc_hits(&self) -> u64 {
        self.rcc_hits
    }

    /// Row-count-cache capacity evictions.
    pub fn rcc_evictions(&self) -> u64 {
        self.rcc_evictions
    }

    /// Preventive refreshes issued.
    pub fn preventive_refreshes(&self) -> u64 {
        self.preventive_refreshes
    }

    // lint: hot-path
    /// Look up `(bank, row)` in the RCC, `bank` as its index in `banks`.
    fn rcc_access(&mut self, bank: usize, row: usize) -> bool {
        self.use_stamp += 1;
        let key = (bank, row);
        let hit = if let Some(stamp) = self.rcc.get_mut(&key) {
            self.rcc_by_stamp.remove(stamp);
            *stamp = self.use_stamp;
            self.rcc_hits += 1;
            true
        } else {
            self.rcc_misses += 1;
            if self.rcc.len() >= RCC_ENTRIES {
                // Evict the least recently used entry: the smallest stamp.
                if let Some((_, victim)) = self.rcc_by_stamp.pop_first() {
                    self.rcc.remove(&victim);
                    self.rcc_evictions += 1;
                }
            }
            self.rcc.insert(key, self.use_stamp);
            false
        };
        self.rcc_by_stamp.insert(self.use_stamp, key);
        hit
    }
}

impl MitigationHook for Hydra {
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        _cycle: u64,
        out: &mut Vec<PreventiveAction>,
    ) {
        let threshold = self.provider.victim_threshold(bank, row).max(2);
        let group_threshold = ((threshold as f64 * GROUP_FRACTION) as u64).max(1);
        let row_threshold = ((threshold as f64 * ROW_FRACTION) as u64).max(2);
        let group = row / ROWS_PER_GROUP;
        let b = self.banks.index(bank);

        let group_count = self.group_counts.entry((b, group)).or_insert(0);
        if *group_count < group_threshold {
            // Group-tracking phase: a cheap SRAM counter, no DRAM traffic.
            *group_count += 1;
            return;
        }
        let group_count = *group_count;

        // Per-row phase: consult the RCC; a miss costs DRAM counter traffic.
        if !self.rcc_access(b, row) {
            out.push(PreventiveAction::ExtraTraffic {
                bank,
                accesses: RCC_MISS_ACCESSES,
            });
        }
        let count = self.row_counts.entry((b, row)).or_insert(group_count); // conservative initialization
        *count += 1;
        if *count >= row_threshold {
            *count = 0;
            self.preventive_refreshes += 2;
            out.push(PreventiveAction::RefreshRow {
                bank,
                row: row.saturating_sub(1),
            });
            out.push(PreventiveAction::RefreshRow { bank, row: row + 1 });
        }
    }

    fn on_refresh_tick(&mut self, _cycle: u64) {
        // Counters reset every refresh window; approximate by slow decay: the
        // periodic refresh restores victims, so clearing once per window suffices.
        self.use_stamp += 1;
        if self
            .use_stamp
            .is_multiple_of(crate::common::REFRESH_TICKS_PER_WINDOW)
        {
            self.group_counts.clear();
            self.row_counts.clear();
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn report_obs(&self, out: &mut dyn svard_obs::Collect) {
        use svard_obs::{Counter, Gauge};
        out.counter(Counter::DefenseRccHits, self.rcc_hits);
        out.counter(Counter::DefenseRccMisses, self.rcc_misses);
        out.counter(Counter::DefenseRccEvictions, self.rcc_evictions);
        out.counter(
            Counter::DefensePreventiveRefreshes,
            self.preventive_refreshes,
        );
        out.gauge_max(Gauge::DefenseRccOccupancy, self.rcc.len() as u64);
        out.gauge_max(
            Gauge::DefenseGroupTableOccupancy,
            self.group_counts.len() as u64,
        );
        out.gauge_max(
            Gauge::DefenseRowTableOccupancy,
            self.row_counts.len() as u64,
        );
    }
}
// lint: end-hot-path

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{ThresholdProvider, UniformThreshold};
    use std::sync::Arc;

    fn bank() -> BankId {
        BankId::default()
    }

    #[test]
    fn group_phase_is_free_of_dram_traffic() {
        let mut hydra = Hydra::new(Arc::new(UniformThreshold::new(4096)));
        // Group threshold = 512; stay below it.
        for i in 0..500u64 {
            let actions = hydra.activation_actions(bank(), (i % 64) as usize, i);
            assert!(actions.is_empty());
        }
        assert_eq!(hydra.rcc_misses(), 0);
    }

    #[test]
    fn hammering_triggers_preventive_refresh_before_threshold() {
        let threshold = 1024u64;
        let mut hydra = Hydra::new(Arc::new(UniformThreshold::new(threshold)));
        let mut refreshed_victims = false;
        for i in 0..threshold {
            let actions = hydra.activation_actions(bank(), 10, i);
            refreshed_victims |= actions
                .iter()
                .any(|a| matches!(a, PreventiveAction::RefreshRow { row, .. } if *row == 11 || *row == 9));
        }
        assert!(refreshed_victims);
        assert!(hydra.preventive_refreshes() > 0);
    }

    #[test]
    fn counter_cache_thrashing_generates_extra_traffic() {
        let mut hydra = Hydra::new(Arc::new(UniformThreshold::new(64)));
        // Threshold 64 -> group threshold 8: quickly push every group into per-row
        // mode, then touch far more rows than the RCC can hold.
        let mut extra_traffic = 0u64;
        for round in 0..10u64 {
            for row in 0..(2 * RCC_ENTRIES) {
                for a in hydra.activation_actions(bank(), row, round) {
                    if let PreventiveAction::ExtraTraffic { accesses, .. } = a {
                        extra_traffic += accesses as u64;
                    }
                }
            }
        }
        assert!(hydra.rcc_misses() > RCC_ENTRIES as u64);
        assert!(extra_traffic > 0);
        // Hit rate should be poor under thrashing.
        let hit_rate = hydra.rcc_hits() as f64 / (hydra.rcc_hits() + hydra.rcc_misses()) as f64;
        assert!(hit_rate < 0.6, "hit rate {hit_rate}");
    }

    /// The pre-index eviction: a full scan for the smallest stamp, ties to
    /// the smallest key. Returns the victim of an access, if any.
    fn reference_access(
        rcc: &mut BTreeMap<(usize, usize), u64>,
        key: (usize, usize),
        stamp: u64,
    ) -> Option<(usize, usize)> {
        let mut victim = None;
        if !rcc.contains_key(&key) && rcc.len() >= RCC_ENTRIES {
            victim = rcc.iter().min_by_key(|(_, &s)| s).map(|(&k, _)| k);
            if let Some(v) = &victim {
                rcc.remove(v);
            }
        }
        rcc.insert(key, stamp);
        victim
    }

    #[test]
    fn stamp_index_evicts_the_same_victims_as_a_full_scan() {
        let mut hydra = Hydra::new(Arc::new(UniformThreshold::new(64)));
        let mut reference = BTreeMap::new();
        let mut victims = 0;
        // A seeded stream over 1.5x the cache's capacity, skewed towards low
        // rows so that hits and evictions interleave, with refresh ticks
        // (which also advance the stamp) in between.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..30_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (state >> 33) as usize;
            let row = if r.is_multiple_of(2) {
                r % 6_144
            } else {
                r % 1_024
            };
            let bank = BankId {
                bank: (r >> 20) % 2,
                ..BankId::default()
            };
            if i.is_multiple_of(97) {
                hydra.on_refresh_tick(i);
            }
            let evictions = hydra.rcc_evictions();
            let key = (hydra.banks.index(bank), row);
            hydra.rcc_access(key.0, row);
            let victim = reference_access(&mut reference, key, hydra.use_stamp);
            if let Some(v) = victim {
                // Both caches held the same entries before this access and
                // both inserted `(bank, row)`; the index evicted one entry,
                // and it was not the reference's victim only if that is
                // still cached.
                assert_eq!(hydra.rcc_evictions(), evictions + 1, "access {i}");
                assert!(!hydra.rcc.contains_key(&v), "access {i}: victim {v:?} kept");
                victims += 1;
            } else {
                assert_eq!(hydra.rcc_evictions(), evictions, "access {i}");
            }
            assert_eq!(hydra.rcc.len(), reference.len(), "access {i}");
        }
        assert!(victims > 1_000, "only {victims} evictions");
        let cached: BTreeMap<_, _> = hydra.rcc.iter().map(|(&k, &s)| (k, s)).collect();
        assert_eq!(cached, reference);
        assert_eq!(hydra.rcc_by_stamp.len(), hydra.rcc.len());
    }

    /// Hydra as it was before its tables hashed with `IntHasher`: ordered
    /// maps for the group, row and cache tables (the first two were SipHash
    /// maps, equivalent as they are never iterated) and the same ordered
    /// stamp → key index.
    #[derive(Default)]
    struct ReferenceHydra {
        group_counts: BTreeMap<(BankId, usize), u64>,
        row_counts: BTreeMap<(BankId, usize), u64>,
        rcc: BTreeMap<(usize, usize), u64>,
        rcc_by_stamp: BTreeMap<u64, (usize, usize)>,
        rcc_banks: Vec<BankId>,
        use_stamp: u64,
        rcc_misses: u64,
        rcc_hits: u64,
        rcc_evictions: u64,
        preventive_refreshes: u64,
    }

    impl ReferenceHydra {
        fn rcc_access(&mut self, bank: BankId, row: usize) -> bool {
            self.use_stamp += 1;
            let b = match self.rcc_banks.iter().position(|&b| b == bank) {
                Some(index) => index,
                None => {
                    self.rcc_banks.push(bank);
                    self.rcc_banks.len() - 1
                }
            };
            let key = (b, row);
            let hit = if let Some(stamp) = self.rcc.get_mut(&key) {
                self.rcc_by_stamp.remove(stamp);
                *stamp = self.use_stamp;
                self.rcc_hits += 1;
                true
            } else {
                self.rcc_misses += 1;
                if self.rcc.len() >= RCC_ENTRIES {
                    if let Some((_, victim)) = self.rcc_by_stamp.pop_first() {
                        self.rcc.remove(&victim);
                        self.rcc_evictions += 1;
                    }
                }
                self.rcc.insert(key, self.use_stamp);
                false
            };
            self.rcc_by_stamp.insert(self.use_stamp, key);
            hit
        }

        fn on_activation(
            &mut self,
            threshold: u64,
            bank: BankId,
            row: usize,
        ) -> Vec<PreventiveAction> {
            let mut out = Vec::new();
            let threshold = threshold.max(2);
            let group_threshold = ((threshold as f64 * GROUP_FRACTION) as u64).max(1);
            let row_threshold = ((threshold as f64 * ROW_FRACTION) as u64).max(2);
            let group_count = self
                .group_counts
                .entry((bank, row / ROWS_PER_GROUP))
                .or_insert(0);
            if *group_count < group_threshold {
                *group_count += 1;
                return out;
            }
            let group_count = *group_count;
            if !self.rcc_access(bank, row) {
                out.push(PreventiveAction::ExtraTraffic {
                    bank,
                    accesses: RCC_MISS_ACCESSES,
                });
            }
            let count = self.row_counts.entry((bank, row)).or_insert(group_count);
            *count += 1;
            if *count >= row_threshold {
                *count = 0;
                self.preventive_refreshes += 2;
                out.push(PreventiveAction::RefreshRow {
                    bank,
                    row: row.saturating_sub(1),
                });
                out.push(PreventiveAction::RefreshRow { bank, row: row + 1 });
            }
            out
        }

        fn on_refresh_tick(&mut self) {
            self.use_stamp += 1;
            if self
                .use_stamp
                .is_multiple_of(crate::common::REFRESH_TICKS_PER_WINDOW)
            {
                self.group_counts.clear();
                self.row_counts.clear();
            }
        }

        fn report(&self) -> svard_obs::MetricsSnapshot {
            use svard_obs::{Collect, Counter, Gauge};
            let mut snapshot = svard_obs::MetricsSnapshot::default();
            let out: &mut dyn Collect = &mut snapshot;
            out.counter(Counter::DefenseRccHits, self.rcc_hits);
            out.counter(Counter::DefenseRccMisses, self.rcc_misses);
            out.counter(Counter::DefenseRccEvictions, self.rcc_evictions);
            out.counter(
                Counter::DefensePreventiveRefreshes,
                self.preventive_refreshes,
            );
            out.gauge_max(Gauge::DefenseRccOccupancy, self.rcc.len() as u64);
            out.gauge_max(
                Gauge::DefenseGroupTableOccupancy,
                self.group_counts.len() as u64,
            );
            out.gauge_max(
                Gauge::DefenseRowTableOccupancy,
                self.row_counts.len() as u64,
            );
            snapshot
        }
    }

    /// Row thresholds that vary with the row, as Svärd's do.
    struct Stepped;
    impl ThresholdProvider for Stepped {
        fn victim_threshold(&self, _bank: BankId, row: usize) -> u64 {
            48 + (row % 5) as u64 * 32
        }
        fn worst_case(&self) -> u64 {
            48
        }
        fn name(&self) -> &str {
            "stepped"
        }
    }

    /// Every action and the full `report_obs` match the ordered-map
    /// reference over a stream that reaches the per-row phase, evicts from
    /// the RCC and turns over refresh windows.
    #[test]
    fn hashed_tables_match_the_ordered_map_reference() {
        let mut hydra = Hydra::new(Arc::new(Stepped));
        let mut reference = ReferenceHydra::default();
        let report = |hydra: &Hydra| {
            let mut out = svard_obs::MetricsSnapshot::default();
            hydra.report_obs(&mut out);
            out
        };
        let mut stream = crate::common::tests::Stream::new(23);
        let mut refreshes = 0;
        for i in 0..60_000u64 {
            let r = stream.next();
            let bank = stream.bank(3);
            let row = if r.is_multiple_of(2) {
                r % 6_144
            } else {
                r % 1_024
            };
            if i.is_multiple_of(97) {
                hydra.on_refresh_tick(i);
                reference.on_refresh_tick();
            }
            let actions = hydra.activation_actions(bank, row, i);
            let expected = reference.on_activation(Stepped.victim_threshold(bank, row), bank, row);
            assert_eq!(actions, expected, "activation {i}");
            refreshes += actions
                .iter()
                .filter(|a| matches!(a, PreventiveAction::RefreshRow { .. }))
                .count();
            if i.is_multiple_of(1_000) {
                assert_eq!(report(&hydra), reference.report(), "activation {i}");
            }
        }
        assert_eq!(report(&hydra), reference.report());
        assert!(
            hydra.rcc_evictions() > 1_000,
            "{} evictions",
            hydra.rcc_evictions()
        );
        assert!(refreshes > 1_000, "{refreshes} refreshes");
        assert!(hydra.use_stamp > 2 * crate::common::REFRESH_TICKS_PER_WINDOW);
    }

    #[test]
    fn locality_friendly_access_hits_the_counter_cache() {
        let mut hydra = Hydra::new(Arc::new(UniformThreshold::new(64)));
        for round in 0..200u64 {
            for row in 0..32 {
                hydra.activation_actions(bank(), row, round);
            }
        }
        let hit_rate =
            hydra.rcc_hits() as f64 / (hydra.rcc_hits() + hydra.rcc_misses()).max(1) as f64;
        assert!(hit_rate > 0.9, "hit rate {hit_rate}");
    }
}
