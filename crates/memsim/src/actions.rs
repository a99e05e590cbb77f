//! The interface between the memory controller and a read-disturbance defense.
//!
//! Following Fig. 11, the controller notifies the defense of every row activation it
//! issues; the defense returns zero or more *preventive actions*, whose DRAM-level
//! cost the controller then pays. Svärd plugs in underneath the defense by changing
//! the threshold the defense compares against — the controller is oblivious to it.

use svard_dram::address::BankId;

/// A preventive action requested by a read-disturbance defense in response to a row
/// activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreventiveAction {
    /// Refresh one victim row (costs one activate/precharge cycle on the bank).
    RefreshRow {
        /// Bank containing the victim.
        bank: BankId,
        /// Victim row address.
        row: usize,
    },
    /// Block further activations of a row until the given cycle (BlockHammer-style
    /// throttling). Requests to that row stay in the queue but are not scheduled.
    ThrottleRow {
        /// Bank containing the throttled row.
        bank: BankId,
        /// Throttled (aggressor) row address.
        row: usize,
        /// First cycle at which the row may be activated again.
        until_cycle: u64,
    },
    /// Move the contents of a row to another row in the same bank (AQUA-style
    /// quarantine). Costs a read-out and write-back of the full row.
    MigrateRow {
        /// Bank containing both rows.
        bank: BankId,
        /// Source row.
        from_row: usize,
        /// Destination row.
        to_row: usize,
    },
    /// Swap the contents of two rows (RRS-style randomized row swap). Costs two row
    /// migrations.
    SwapRows {
        /// Bank containing both rows.
        bank: BankId,
        /// First row.
        row_a: usize,
        /// Second row.
        row_b: usize,
    },
    /// Extra DRAM traffic that is not a row refresh (e.g. Hydra's row-count-table
    /// reads and write-backs). Modeled as additional column accesses on the bank.
    ExtraTraffic {
        /// Bank receiving the traffic.
        bank: BankId,
        /// Number of extra column accesses.
        accesses: u32,
    },
}

/// A read-disturbance defense as seen by the memory controller.
///
/// Implementations live in `svard-defenses`; [`NoMitigation`] is the paper's
/// baseline configuration with no defense at all.
///
/// # Contract
///
/// A hook affects the controller only through the actions it pushes into
/// `out`, and its behaviour is a deterministic function of its construction
/// (including any seed) and the sequence of calls it receives. It reads no
/// clock, global or shared mutable state. The sweep harness relies on this:
/// until a hook pushes its first action, a run with it is the no-defense run,
/// so a hook that never acts on the no-defense run's call sequence is
/// evaluated by replaying that sequence instead of simulating.
pub trait MitigationHook {
    /// Called for every row activation the controller issues. Pushes the preventive
    /// actions the controller must execute into `out`, a scratch buffer the
    /// controller reuses across activations — so the common "no action" case
    /// performs zero heap allocations on the simulation hot path.
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        cycle: u64,
        out: &mut Vec<PreventiveAction>,
    );

    /// Called once per refresh interval (tREFI), letting periodic mechanisms reset
    /// epoch state.
    fn on_refresh_tick(&mut self, _cycle: u64) {}

    /// Pull-style observability: report trigger counts and table occupancy
    /// into `out`. Called once at snapshot time — never on the activation hot
    /// path — so implementations pay no per-activation recording cost. The
    /// default reports nothing.
    fn report_obs(&self, _out: &mut dyn svard_obs::Collect) {}

    /// Human-readable name used in experiment output.
    fn name(&self) -> &str;

    /// Convenience wrapper that collects the actions of one activation into a fresh
    /// vector. Intended for tests and experiments, not for the simulation hot path.
    fn activation_actions(
        &mut self,
        bank: BankId,
        row: usize,
        cycle: u64,
    ) -> Vec<PreventiveAction> {
        let mut out = Vec::new();
        self.on_activation(bank, row, cycle, &mut out);
        out
    }
}

/// The no-defense baseline: never requests any preventive action.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoMitigation;

impl MitigationHook for NoMitigation {
    fn on_activation(
        &mut self,
        _bank: BankId,
        _row: usize,
        _cycle: u64,
        _out: &mut Vec<PreventiveAction>,
    ) {
    }

    fn name(&self) -> &str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mitigation_is_free() {
        let mut m = NoMitigation;
        assert!(m.activation_actions(BankId::default(), 5, 100).is_empty());
        assert_eq!(m.name(), "baseline");
    }
}
