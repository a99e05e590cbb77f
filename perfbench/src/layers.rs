//! Layer-boundary instrumentation owned by the benchmark.
//!
//! Every layer is measured from outside, through its public functions:
//!
//! * [`RecordingHook`] wraps a defense (`MitigationHook`) and records the ACT
//!   and refresh-tick stream the controller feeds it.
//! * [`RecordingProvider`] wraps a `ThresholdProvider` and records the
//!   `(bank, row)` lookup stream the defense issues.
//! * [`run_split`] drives `SimpleCore::tick` and `MemorySystem::tick_into`
//!   from the benchmark's own cycle loop (with the runner's fast-forward over
//!   stall windows), timing the two layers apart.
//! * [`replay_defense`] and [`replay_lookups`] replay a recorded stream into a
//!   fresh defense or provider in isolation, so a ~10 ns call is timed over
//!   thousands of calls instead of one timer pair per call.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use svard_cpusim::workload::WorkloadMix;
use svard_cpusim::SimpleCore;
use svard_defenses::{DefenseKind, SharedThresholdProvider, ThresholdProvider};
use svard_dram::address::BankId;
use svard_memsim::{CompletedRequest, MemorySystem, MitigationHook, PreventiveAction};
use svard_obs::NoopSink;
use svard_system::{RunResult, SystemConfig};

/// One input the controller gives a defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookEvent {
    /// `on_activation(bank, row, cycle)`.
    Act {
        /// Activated bank.
        bank: BankId,
        /// Activated row.
        row: usize,
        /// Controller cycle.
        cycle: u64,
    },
    /// `on_refresh_tick(cycle)`.
    Refresh {
        /// Controller cycle.
        cycle: u64,
    },
}

/// What a [`RecordingHook`] saw during one simulation.
#[derive(Debug, Clone, Default)]
pub struct HookLog {
    /// The input stream, in call order.
    pub events: Vec<HookEvent>,
    /// `on_activation` calls.
    pub calls: u64,
    /// Preventive actions returned, of any kind.
    pub actions: u64,
    /// Protective actions returned: every action except `ExtraTraffic`
    /// (counter traffic that protects no row by itself).
    pub protective: u64,
    /// Wall time inside the wrapped defense, timer overhead included.
    pub busy_ns: u64,
}

/// A `MitigationHook` that forwards to a real defense and records its input
/// stream and outputs into a shared [`HookLog`].
pub struct RecordingHook {
    inner: Box<dyn MitigationHook>,
    log: Rc<RefCell<HookLog>>,
}

impl RecordingHook {
    /// Wrap `inner`, logging into `log`.
    pub fn new(inner: Box<dyn MitigationHook>, log: Rc<RefCell<HookLog>>) -> Self {
        Self { inner, log }
    }
}

impl MitigationHook for RecordingHook {
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        cycle: u64,
        out: &mut Vec<PreventiveAction>,
    ) {
        let before = out.len();
        let start = Instant::now();
        self.inner.on_activation(bank, row, cycle, out);
        let ns = elapsed_ns(start);
        let mut log = self.log.borrow_mut();
        log.events.push(HookEvent::Act { bank, row, cycle });
        log.calls += 1;
        let new = out.get(before..).unwrap_or(&[]);
        log.actions += new.len() as u64;
        log.protective += new
            .iter()
            .filter(|a| !matches!(a, PreventiveAction::ExtraTraffic { .. }))
            .count() as u64;
        log.busy_ns += ns;
    }

    fn on_refresh_tick(&mut self, cycle: u64) {
        let start = Instant::now();
        self.inner.on_refresh_tick(cycle);
        let ns = elapsed_ns(start);
        let mut log = self.log.borrow_mut();
        log.events.push(HookEvent::Refresh { cycle });
        log.busy_ns += ns;
    }

    fn report_obs(&self, out: &mut dyn svard_obs::Collect) {
        self.inner.report_obs(out);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A `ThresholdProvider` that forwards to a real provider and records every
/// `victim_threshold` lookup.
pub struct RecordingProvider {
    inner: SharedThresholdProvider,
    lookups: Mutex<Vec<(BankId, usize)>>,
}

impl RecordingProvider {
    /// Wrap `inner`.
    pub fn new(inner: SharedThresholdProvider) -> Self {
        Self {
            inner,
            lookups: Mutex::new(Vec::new()),
        }
    }

    /// Take the recorded lookup stream.
    pub fn take_lookups(&self) -> Vec<(BankId, usize)> {
        match self.lookups.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }
}

impl ThresholdProvider for RecordingProvider {
    fn victim_threshold(&self, bank: BankId, aggressor_row: usize) -> u64 {
        if let Ok(mut lookups) = self.lookups.lock() {
            lookups.push((bank, aggressor_row));
        }
        self.inner.victim_threshold(bank, aggressor_row)
    }

    fn worst_case(&self) -> u64 {
        self.inner.worst_case()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Result of [`run_split`]: the run result plus per-layer busy time and
/// call counts.
#[derive(Debug, Clone)]
pub struct SplitRun {
    /// Identical to `run_mix` (and so to `run_mix_percycle`) on the same
    /// inputs.
    pub result: RunResult,
    /// Time in `SimpleCore::tick` (including its `enqueue` calls) and
    /// completion delivery, less timer overhead.
    pub core_ns: u64,
    /// Time in `MemorySystem::tick_into` (hook included) and in the
    /// fast-forward event prediction and skip, less timer overhead.
    pub mem_ns: u64,
    /// `SimpleCore::tick` calls.
    pub core_ticks: u64,
    /// `MemorySystem::tick_into` calls.
    pub mem_ticks: u64,
    /// LLC hits over all cores.
    pub llc_hits: u64,
    /// LLC accesses over all cores.
    pub llc_accesses: u64,
}

/// Simulate one mix from the benchmark's own loop, with exactly the
/// semantics of `svard_system::runner::run_mix` (cycle by cycle, skipping
/// whole stall windows to the memory system's next event), timing the core
/// model apart from the memory controller. `timer_ns` is the measured cost
/// of one `Instant` pair, subtracted from every interval.
pub fn run_split(
    mix: &WorkloadMix,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
    timer_ns: u64,
) -> SplitRun {
    let mut memory =
        MemorySystem::with_mitigation_and_sink(config.memory.clone(), mitigation, NoopSink);
    let mut cores: Vec<SimpleCore> = mix
        .workloads
        .iter()
        .take(config.cores)
        .enumerate()
        .map(|(id, spec)| {
            SimpleCore::new(
                id,
                spec,
                config.core,
                config.instructions_per_core,
                config.seed,
            )
        })
        .collect();
    let mut cycles = 0u64;
    let mut completions: Vec<CompletedRequest> = Vec::new();
    let (mut core_ns, mut mem_ns, mut core_ticks, mut mem_ticks) = (0u64, 0u64, 0u64, 0u64);
    let scheduled = |m: &MemorySystem| {
        let s = m.stats();
        s.activations + s.row_hits + s.refreshes
    };
    while cycles < config.max_cycles && cores.iter().any(|c| !c.finished()) {
        let t0 = Instant::now();
        let mut any_core_progress = false;
        for core in &mut cores {
            any_core_progress |= core.tick(&mut memory);
        }
        core_ticks += cores.len() as u64;
        let t1 = Instant::now();
        let sched_before = scheduled(&memory);
        completions.clear();
        memory.tick_into(&mut completions);
        mem_ticks += 1;
        let t2 = Instant::now();
        for done in &completions {
            if let Some(core) = cores.get_mut(done.core) {
                core.on_completion(done.id);
            }
        }
        cycles += 1;
        let t3 = Instant::now();
        core_ns +=
            nanos(t1 - t0).saturating_sub(timer_ns) + nanos(t3 - t2).saturating_sub(timer_ns);
        mem_ns += nanos(t2 - t1).saturating_sub(timer_ns);

        // The runner's fast-forward: after a tick in which no core progressed
        // and nothing completed, skip the whole stall window.
        if !any_core_progress && completions.is_empty() {
            let all_stalled = scheduled(&memory) == sched_before
                || cores
                    .iter()
                    .all(|c| c.next_ready_cycle(cycles, &memory).is_none());
            if all_stalled && cores.iter().any(|c| !c.finished()) {
                if let Some(next_event) = memory.next_event_cycle() {
                    let target = next_event.saturating_sub(1).min(config.max_cycles);
                    if target > memory.cycle() {
                        let skip = target - memory.cycle();
                        memory.skip_to_cycle(target);
                        for core in &mut cores {
                            core.skip_stalled_cycles(skip);
                        }
                        cycles += skip;
                    }
                }
            }
            mem_ns += nanos(t3.elapsed()).saturating_sub(timer_ns);
        }
    }
    let (mut llc_hits, mut llc_accesses) = (0u64, 0u64);
    for core in &cores {
        let (hits, accesses) = llc_counts(core);
        llc_hits += hits;
        llc_accesses += accesses;
    }
    SplitRun {
        result: RunResult {
            per_core_ipc: cores.iter().map(|c| c.ipc()).collect(),
            mem_stats: memory.stats().clone(),
            metrics: memory.metrics(),
            cycles,
        },
        core_ns,
        mem_ns,
        core_ticks,
        mem_ticks,
        llc_hits,
        llc_accesses,
    }
}

/// `(hits, accesses)` of a core's LLC, recovered from its public hit rate
/// and miss count (exact: `misses / (1 - hit_rate)` rounds to the access
/// count).
fn llc_counts(core: &SimpleCore) -> (u64, u64) {
    let misses = core.llc().misses();
    let rate = core.llc().hit_rate();
    if misses == 0 || rate >= 1.0 {
        return (0, 0);
    }
    let accesses = (misses as f64 / (1.0 - rate)).round() as u64;
    (accesses.saturating_sub(misses), accesses)
}

/// Outcome of replaying a defense's recorded input stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Median wall time of one pass over the stream.
    pub ns: u64,
    /// `on_activation` calls per pass.
    pub calls: u64,
    /// Preventive actions the replayed defense returned per pass.
    pub actions: u64,
}

/// Replay `events` into freshly built instances of `defense` (built exactly
/// as the harness builds it), `reps` times, and report the median pass.
/// Replays are deterministic, so each pass returns the actions the original
/// run returned.
pub fn replay_defense(
    defense: DefenseKind,
    provider: &SharedThresholdProvider,
    rows_per_bank: usize,
    seed: u64,
    events: &[HookEvent],
    reps: usize,
) -> Replay {
    let mut passes = Vec::new();
    let mut last = Replay::default();
    let mut out: Vec<PreventiveAction> = Vec::new();
    for _ in 0..reps.max(1) {
        let mut hook = defense.build(provider.clone(), rows_per_bank, seed);
        let (mut calls, mut actions) = (0u64, 0u64);
        let start = Instant::now();
        for event in events {
            match *event {
                HookEvent::Act { bank, row, cycle } => {
                    hook.on_activation(bank, row, cycle, &mut out);
                    calls += 1;
                    actions += out.len() as u64;
                    out.clear();
                }
                HookEvent::Refresh { cycle } => hook.on_refresh_tick(cycle),
            }
        }
        let ns = elapsed_ns(start);
        std::hint::black_box(&hook);
        passes.push(ns as f64);
        last = Replay { ns, calls, actions };
    }
    Replay {
        ns: crate::report::median(&passes) as u64,
        ..last
    }
}

/// Replay a lookup stream into `provider`, `reps` times; returns the median
/// pass time in ns.
pub fn replay_lookups(
    provider: &Arc<dyn ThresholdProvider>,
    lookups: &[(BankId, usize)],
    reps: usize,
) -> u64 {
    let mut passes = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let mut sum = 0u64;
        for &(bank, row) in lookups {
            sum = sum.wrapping_add(provider.victim_threshold(bank, row));
        }
        std::hint::black_box(sum);
        passes.push(elapsed_ns(start) as f64);
    }
    crate::report::median(&passes) as u64
}

/// Median cost of one back-to-back `Instant` pair on this host, in ns.
pub fn timer_overhead_ns() -> u64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            nanos(b - a) as f64
        })
        .collect();
    crate::report::median(&samples) as u64
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn elapsed_ns(start: Instant) -> u64 {
    nanos(start.elapsed())
}
