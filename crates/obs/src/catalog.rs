//! The fixed metric and event catalogue.
//!
//! Every recordable quantity is an enum variant with a stable dotted name.
//! The enums are dense (`as usize` indexes a preallocated slot), which is
//! what makes [`crate::Recorder`] allocation-free: there is no string
//! hashing or map insertion on the recording path.
//!
//! Names prefixed `diag.` are **diagnostic**: they describe how the
//! simulator executed (e.g. fast-forward skips), not what the simulated
//! machine did. Diagnostics are metrics only, never trace events, and
//! [`crate::MetricsSnapshot::canonical`] strips them, so fast-forward and
//! per-cycle runs stay comparable byte-for-byte.

/// Monotonic counters (unit: occurrences unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// DRAM commands issued by the controller (ACT+CAS or row-hit CAS).
    MemCmdIssued,
    /// Periodic refresh ticks fired (one per tick, covering every rank).
    MemRefreshFired,
    /// Preventive actions executed on behalf of the mitigation hook.
    MemMitigationActions,
    /// Throttle actions engaged (a subset of `MemMitigationActions`).
    MemThrottleEngaged,
    /// Aggressor-row hammer bursts applied to a `SimChip`.
    ChipHammerBursts,
    /// Bit flips materialized into `SimChip` cell arrays.
    ChipBitflips,
    /// Preventive refreshes requested by a defense (Hydra, PARA).
    DefensePreventiveRefreshes,
    /// Hydra RCC hits.
    DefenseRccHits,
    /// Hydra RCC misses.
    DefenseRccMisses,
    /// Hydra RCC capacity evictions.
    DefenseRccEvictions,
    /// BlockHammer throttle decisions.
    DefenseThrottleEvents,
    /// AQUA quarantine migrations.
    DefenseMigrations,
    /// RRS row swaps.
    DefenseSwaps,
    /// Diagnostic: canonical trace events dropped by the bounded ring.
    DiagTraceDropped,
}

impl Counter {
    /// Number of counter slots.
    pub const COUNT: usize = 14;

    /// Every counter, in slot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MemCmdIssued,
        Counter::MemRefreshFired,
        Counter::MemMitigationActions,
        Counter::MemThrottleEngaged,
        Counter::ChipHammerBursts,
        Counter::ChipBitflips,
        Counter::DefensePreventiveRefreshes,
        Counter::DefenseRccHits,
        Counter::DefenseRccMisses,
        Counter::DefenseRccEvictions,
        Counter::DefenseThrottleEvents,
        Counter::DefenseMigrations,
        Counter::DefenseSwaps,
        Counter::DiagTraceDropped,
    ];

    /// Stable dotted name used in snapshots and JSON exports.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::MemCmdIssued => "mem.cmd_issued",
            Counter::MemRefreshFired => "mem.refresh_fired",
            Counter::MemMitigationActions => "mem.mitigation_actions",
            Counter::MemThrottleEngaged => "mem.throttle_engaged",
            Counter::ChipHammerBursts => "chip.hammer_bursts",
            Counter::ChipBitflips => "chip.bitflips",
            Counter::DefensePreventiveRefreshes => "defense.preventive_refreshes",
            Counter::DefenseRccHits => "defense.rcc_hits",
            Counter::DefenseRccMisses => "defense.rcc_misses",
            Counter::DefenseRccEvictions => "defense.rcc_evictions",
            Counter::DefenseThrottleEvents => "defense.throttle_events",
            Counter::DefenseMigrations => "defense.migrations",
            Counter::DefenseSwaps => "defense.swaps",
            Counter::DiagTraceDropped => "diag.trace.dropped",
        }
    }
}

/// High-water-mark gauges; merging two snapshots keeps the max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Peak read-queue depth (entries).
    MemReadQueuePeak,
    /// Peak write-queue depth (entries).
    MemWriteQueuePeak,
    /// Peak throttle-table population (rows under an active throttle).
    MemThrottleTablePeak,
    /// Hydra RCC occupancy at snapshot time (entries).
    DefenseRccOccupancy,
    /// Hydra group-count table occupancy (entries).
    DefenseGroupTableOccupancy,
    /// Hydra per-row count table occupancy (entries).
    DefenseRowTableOccupancy,
    /// Peak per-bank tracker occupancy (RRS Misra-Gries entries, AQUA slots,
    /// BlockHammer filter rows — whichever structure the defense owns).
    DefenseTrackerOccupancy,
}

impl Gauge {
    /// Number of gauge slots.
    pub const COUNT: usize = 7;

    /// Every gauge, in slot order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::MemReadQueuePeak,
        Gauge::MemWriteQueuePeak,
        Gauge::MemThrottleTablePeak,
        Gauge::DefenseRccOccupancy,
        Gauge::DefenseGroupTableOccupancy,
        Gauge::DefenseRowTableOccupancy,
        Gauge::DefenseTrackerOccupancy,
    ];

    /// Stable dotted name used in snapshots and JSON exports.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::MemReadQueuePeak => "mem.read_queue_peak",
            Gauge::MemWriteQueuePeak => "mem.write_queue_peak",
            Gauge::MemThrottleTablePeak => "mem.throttle_table_peak",
            Gauge::DefenseRccOccupancy => "defense.rcc_occupancy",
            Gauge::DefenseGroupTableOccupancy => "defense.group_table_occupancy",
            Gauge::DefenseRowTableOccupancy => "defense.row_table_occupancy",
            Gauge::DefenseTrackerOccupancy => "defense.tracker_occupancy",
        }
    }
}

/// Log2-bucket histograms (bucket `i` holds values whose bit length is `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Read completion latency in cycles (arrival to data return).
    MemReadLatency,
    /// Read-queue depth observed at each enqueue.
    MemReadQueueDepth,
    /// Write-queue depth observed at each enqueue.
    MemWriteQueueDepth,
    /// Hammer burst length in activations per burst.
    ChipHammerCount,
    /// Diagnostic: fast-forward skip span in cycles (its count is the number
    /// of skips).
    DiagMemSkipSpan,
}

impl Hist {
    /// Number of histogram slots.
    pub const COUNT: usize = 5;

    /// Every histogram, in slot order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::MemReadLatency,
        Hist::MemReadQueueDepth,
        Hist::MemWriteQueueDepth,
        Hist::ChipHammerCount,
        Hist::DiagMemSkipSpan,
    ];

    /// Stable dotted name used in snapshots and JSON exports.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::MemReadLatency => "mem.read_latency",
            Hist::MemReadQueueDepth => "mem.read_queue_depth",
            Hist::MemWriteQueueDepth => "mem.write_queue_depth",
            Hist::ChipHammerCount => "chip.hammer_count",
            Hist::DiagMemSkipSpan => "diag.mem.skip_span",
        }
    }
}

/// Cycle-stamped trace event kinds. The meaning of the generic `a`/`b`/`c`
/// payload fields is documented per variant (and in `crates/obs/README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A DRAM command was issued. `a` = flat bank index, `b` = row,
    /// `c` = `0b01` for a write, `|= 0b10` when the row had to be activated.
    CmdIssued,
    /// A periodic refresh tick fired. `a` = ranks refreshed, `b`/`c` = 0.
    RefreshFired,
    /// A preventive mitigation action executed. `a` = action code
    /// (0 refresh-row, 1 throttle, 2 migrate, 3 swap, 4 extra-traffic),
    /// `b` = flat bank index, `c` = row (or access count for extra-traffic).
    MitigationFired,
    /// A row throttle engaged. `a` = flat bank index, `b` = row,
    /// `c` = release cycle.
    ThrottleEngaged,
}

impl EventKind {
    /// Stable snake_case name used in JSONL output.
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::CmdIssued => "cmd_issued",
            EventKind::RefreshFired => "refresh_fired",
            EventKind::MitigationFired => "mitigation_fired",
            EventKind::ThrottleEngaged => "throttle_engaged",
        }
    }
}

/// Every metric name in the catalogue: counters, then gauges, then
/// histograms, each in slot order.
pub fn names() -> impl Iterator<Item = &'static str> {
    let counters = Counter::ALL.map(Counter::name).into_iter();
    counters
        .chain(Gauge::ALL.map(Gauge::name))
        .chain(Hist::ALL.map(Hist::name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_slot_order_matches() {
        let names: Vec<&str> = names().collect();
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate catalogue name");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn diagnostic_names_carry_the_diag_prefix() {
        assert!(Counter::DiagTraceDropped.name().starts_with("diag."));
        assert!(Hist::DiagMemSkipSpan.name().starts_with("diag."));
    }
}
