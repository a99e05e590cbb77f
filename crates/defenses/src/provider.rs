//! The threshold-provider seam between a defense and Svärd (Fig. 11).

use std::sync::Arc;
use svard_dram::address::BankId;

/// Answers "how many activations can the potential victim rows around this row
/// tolerate before they might flip?".
///
/// Defenses call [`victim_threshold`](ThresholdProvider::victim_threshold) with the
/// *activated* (aggressor) row; the provider is responsible for looking at the rows
/// that could be disturbed by it. The paper's "No Svärd" configuration is
/// [`UniformThreshold`]; Svärd's per-row provider lives in `svard-core`.
///
/// Every method is a pure function of its arguments: no call changes what a
/// later call returns, however many defenses share the provider or in what
/// order they call it. Defenses built over it are then deterministic from
/// their seed, which the sweep harness's replay of defenses that never act
/// relies on (see `MitigationHook`'s contract).
pub trait ThresholdProvider: Send + Sync {
    /// The threshold (in activations of the aggressor row) that protects every row
    /// that could be disturbed by activating `aggressor_row` in `bank`.
    fn victim_threshold(&self, bank: BankId, aggressor_row: usize) -> u64;

    /// The worst-case (smallest) threshold across the whole module — what a defense
    /// without Svärd must assume for every row.
    fn worst_case(&self) -> u64;

    /// Human-readable name used in experiment output ("No Svärd", "Svärd-S0", ...).
    fn name(&self) -> &str;
}

/// Shared, reference-counted threshold provider handed to defenses.
pub type SharedThresholdProvider = Arc<dyn ThresholdProvider>;

/// The "No Svärd" configuration: every row is assumed to be as vulnerable as the
/// weakest row of the module (§6.3's description of how existing defenses are
/// configured today).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformThreshold {
    threshold: u64,
}

impl UniformThreshold {
    /// Create a provider that reports `threshold` for every row.
    pub fn new(threshold: u64) -> Self {
        assert!(threshold >= 2, "a threshold below 2 cannot be defended");
        Self { threshold }
    }
}

impl ThresholdProvider for UniformThreshold {
    fn victim_threshold(&self, _bank: BankId, _aggressor_row: usize) -> u64 {
        self.threshold
    }

    fn worst_case(&self) -> u64 {
        self.threshold
    }

    fn name(&self) -> &str {
        "No Svärd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_provider_is_uniform() {
        let p = UniformThreshold::new(4096);
        assert_eq!(p.victim_threshold(BankId::default(), 0), 4096);
        assert_eq!(p.victim_threshold(BankId::default(), 99_999), 4096);
        assert_eq!(p.worst_case(), 4096);
        assert_eq!(p.name(), "No Svärd");
    }

    #[test]
    #[should_panic]
    fn degenerate_threshold_is_rejected() {
        let _ = UniformThreshold::new(1);
    }

    #[test]
    fn provider_is_object_safe_and_shareable() {
        let p: SharedThresholdProvider = Arc::new(UniformThreshold::new(64));
        let q = Arc::clone(&p);
        assert_eq!(q.worst_case(), 64);
    }
}
