//! RRS: Randomized Row Swap (Saileshwar et al., ASPLOS 2022).
//!
//! RRS tracks frequently activated rows with a Misra-Gries summary and, once a row's
//! estimated activation count crosses the swap threshold, swaps its contents with a
//! randomly chosen row of the same bank. Swapping breaks the spatial correlation
//! between an aggressor and its victims before the victims can accumulate enough
//! disturbance. Each swap costs two full row migrations, which is why RRS becomes
//! very expensive at low thresholds (Fig. 12) and under targeted hammering
//! (Fig. 13b).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svard_dram::address::BankId;
use svard_memsim::{MitigationHook, PreventiveAction};

use crate::provider::SharedThresholdProvider;

/// Fraction of the victim threshold at which a row is swapped.
const SWAP_FRACTION: f64 = 0.5;
/// Misra-Gries table entries per bank.
const TRACKER_ENTRIES: usize = 128;

/// Misra-Gries frequent-row tracker for one bank.
#[derive(Debug, Clone, Default)]
struct MisraGries {
    entries: Vec<(usize, u64)>,
}

impl MisraGries {
    // lint: hot-path
    /// Record an activation and return the row's current estimated count.
    fn record(&mut self, row: usize) -> u64 {
        if let Some(e) = self.entries.iter_mut().find(|(r, _)| *r == row) {
            e.1 += 1;
            return e.1;
        }
        if self.entries.len() < TRACKER_ENTRIES {
            self.entries.push((row, 1));
            return 1;
        }
        for e in &mut self.entries {
            e.1 = e.1.saturating_sub(1);
        }
        self.entries.retain(|&(_, c)| c > 0);
        if self.entries.len() < TRACKER_ENTRIES {
            self.entries.push((row, 1));
            1
        } else {
            0
        }
    }
    // lint: end-hot-path

    fn reset(&mut self, row: usize) {
        self.entries.retain(|&(r, _)| r != row);
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The RRS defense.
pub struct Rrs {
    provider: SharedThresholdProvider,
    // BTreeMap: `on_refresh_tick` iterates the trackers, and per-bank lookups
    // are cheap at bank counts; key order keeps any future iteration-dependent
    // logic deterministic.
    trackers: std::collections::BTreeMap<BankId, MisraGries>,
    rows_per_bank: usize,
    rng: StdRng,
    refresh_ticks: u64,
    name: String,
    swaps: u64,
}

impl Rrs {
    /// Create RRS for banks of `rows_per_bank` rows.
    pub fn new(provider: SharedThresholdProvider, rows_per_bank: usize, seed: u64) -> Self {
        let name = format!("RRS ({})", provider.name());
        Self {
            provider,
            trackers: std::collections::BTreeMap::new(),
            rows_per_bank: rows_per_bank.max(2),
            rng: StdRng::seed_from_u64(seed ^ 0x0225_5225),
            refresh_ticks: 0,
            name,
            swaps: 0,
        }
    }

    /// Row swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }
}

impl MitigationHook for Rrs {
    // lint: hot-path
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        _cycle: u64,
        out: &mut Vec<PreventiveAction>,
    ) {
        let threshold = self.provider.victim_threshold(bank, row).max(2);
        let swap_at = ((threshold as f64 * SWAP_FRACTION) as u64).max(1);
        let tracker = self.trackers.entry(bank).or_default();
        let count = tracker.record(row);
        if count < swap_at {
            return;
        }
        tracker.reset(row);
        // Swap with a uniformly random row of the same bank (excluding itself).
        let mut partner = self.rng.random_range(0..self.rows_per_bank);
        if partner == row {
            partner = (partner + 1) % self.rows_per_bank;
        }
        self.swaps += 1;
        out.push(PreventiveAction::SwapRows {
            bank,
            row_a: row,
            row_b: partner,
        });
    }
    // lint: end-hot-path

    fn on_refresh_tick(&mut self, _cycle: u64) {
        self.refresh_ticks += 1;
        if self.refresh_ticks >= crate::common::REFRESH_TICKS_PER_WINDOW {
            self.refresh_ticks = 0;
            for tracker in self.trackers.values_mut() {
                tracker.clear();
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn report_obs(&self, out: &mut dyn svard_obs::Collect) {
        use svard_obs::{Counter, Gauge};
        out.counter(Counter::DefenseSwaps, self.swaps);
        let peak = self
            .trackers
            .values()
            .map(|t| t.entries.len())
            .max()
            .unwrap_or(0);
        out.gauge_max(Gauge::DefenseTrackerOccupancy, peak as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::UniformThreshold;
    use std::sync::Arc;

    fn bank() -> BankId {
        BankId::default()
    }

    #[test]
    fn hammered_row_gets_swapped_before_the_threshold() {
        let threshold = 1024u64;
        let mut rrs = Rrs::new(Arc::new(UniformThreshold::new(threshold)), 8192, 3);
        let mut swapped_at = None;
        for i in 0..threshold {
            let actions = rrs.activation_actions(bank(), 77, i);
            if let Some(PreventiveAction::SwapRows { row_a, row_b, .. }) = actions.first() {
                assert_eq!(*row_a, 77);
                assert_ne!(*row_b, 77);
                assert!(*row_b < 8192);
                swapped_at = Some(i);
                break;
            }
        }
        assert!(swapped_at.unwrap() < threshold);
    }

    #[test]
    fn swap_partners_are_randomized() {
        let mut rrs = Rrs::new(Arc::new(UniformThreshold::new(16)), 64 * 1024, 9);
        let mut partners = std::collections::BTreeSet::new();
        for i in 0..2000u64 {
            for a in rrs.activation_actions(bank(), 5, i) {
                if let PreventiveAction::SwapRows { row_b, .. } = a {
                    partners.insert(row_b);
                }
            }
        }
        assert!(
            partners.len() > 50,
            "only {} distinct partners",
            partners.len()
        );
    }

    #[test]
    fn benign_access_patterns_cause_no_swaps() {
        let mut rrs = Rrs::new(Arc::new(UniformThreshold::new(4096)), 8192, 5);
        for round in 0..20u64 {
            for row in 0..4000 {
                assert!(rrs.activation_actions(bank(), row, round).is_empty());
            }
        }
        assert_eq!(rrs.swaps(), 0);
    }

    #[test]
    fn lower_thresholds_cause_more_swaps() {
        let run = |threshold: u64| -> u64 {
            let mut rrs = Rrs::new(Arc::new(UniformThreshold::new(threshold)), 8192, 11);
            for i in 0..50_000u64 {
                rrs.activation_actions(bank(), (i % 4) as usize, i);
            }
            rrs.swaps()
        };
        let at_low = run(128);
        let at_high = run(8192);
        assert!(at_low > at_high * 10, "low {at_low} vs high {at_high}");
    }
}
