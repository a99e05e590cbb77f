//! Running multiprogrammed mixes and collecting Fig. 12-style data points.
//!
//! [`run_mix_with_sink`] simulates one mix cycle by cycle, and
//! [`MemorySystem::cycle`] is its only clock. In [`SimMode::FastForward`] it
//! ticks a core only when its tick can change something, and advances every
//! counter exactly as per-cycle ticking would:
//!
//! - It *parks* each unfinished core whose [`SimpleCore::tick`] returned
//!   `false` (a pure stall) or ended [`SimpleCore::stalled`]: the tick made
//!   progress, but its issue loop stopped on the budget, a full window, a full
//!   queue or (bypassing the LLC) full MSHRs, with nothing left to retire. So
//!   a core parks on the tick that stalls it, not one pure-stall tick later.
//!   `tick`'s contract is that a parked core stays stalled until one of its own
//!   requests completes, or until the queue of its rejected request
//!   ([`SimpleCore::rejected_kind`]) gets a free slot, which only an issue
//!   makes. The loop wakes a core on its completions, and again at the end of
//!   the run. It keeps the awake (unparked, unfinished) cores in an id-ordered
//!   list and a count of unfinished ones, so a cycle visits only the cores it
//!   ticks.
//! - *Slot-bounded wakes.* After an issue, the loop wakes the cores holding a
//!   rejected request in id order, per queue, up to that queue's free slots
//!   ([`MemorySystem::free_slots`]), counting awake ones too. This is exact:
//!   a core holding a rejected request always has window room and budget
//!   left, so its next tick tries that request first and takes a slot if one
//!   is left. When the cores past the free-slot count tick, every slot has
//!   been taken (or found gone) by the cores before them, so they would find
//!   the queue full; they stay parked until the next issue.
//! - Once every unfinished core is parked, only a memory event can wake one,
//!   so the loop jumps the memory system to the cycle just before its next
//!   event ([`MemorySystem::next_event_cycle`]).
//! - A core is credited for the ticks it missed in one place: on waking,
//!   [`SimpleCore::skip_stalled_cycles`] brings its cycle count to the memory
//!   system's, so its IPC matches ticking every cycle.
//!
//! [`SimMode::PerCycle`] ticks every core every cycle and is the reference;
//! [`run_mix`] and [`run_mix_percycle`] are the two sink-less modes, and the
//! equivalence tests assert they agree.
//!
//! [`EvaluationHarness`] has one sweep core, the private `sweep`: it fans the
//! selected `(point, mix)` tasks out across OS threads, times each as a
//! `harness.sim_task` or `harness.replay_task` span, fills input-order slots
//! and reduces each point over its mixes, in mix order, with the one
//! reduction `mean_over_mixes`. Wrappers:
//!
//! - `evaluate_masked_streamed`: the core inside a `harness.sweep` span, streaming points to a
//!   callback that can cancel, plus the sweep's [`PhaseProfile`].
//! - `evaluate_all_streamed`: `evaluate_masked_streamed` over every point.
//! - `evaluate_all`: every point, no callback, results in input order.
//! - `evaluate_all_profiled`: every point, results in input order, plus the sweep's [`PhaseProfile`].
//! - `evaluate_all_traced`: the core with a [`Recorder`] per simulation, plus the JSONL trace.
//!
//! Seeds come from the configuration alone (workload traces from `config.seed`,
//! defenses from `config.seed ^ hc_first`), so results are deterministic and
//! independent of thread count and scheduling.
//!
//! # One stream per core, shared by the mix's runs
//!
//! Each core reads its trace as a [`CoreStream`]: the accesses within its
//! budget, already filtered through its LLC. The harness generates a mix's
//! streams once, with its baseline, and keeps them; the baseline run and
//! every simulated task of that mix build their cores from them, so no
//! task regenerates a trace or walks a cache. Sharing is safe because a
//! stream depends only on the spec, the core index, the seed and the
//! budget, and every task of a mix runs with the same four.
//!
//! A stream costs 24 bytes an access, so it grows with the budget (fig12's
//! two 8-core mixes hold 7.5 and 10.3 MB at 1M instructions per core). A
//! harness keeps at most `STREAM_BUDGET_BYTES` (256 MiB) of streams, each
//! mix up to its share; a mix whose streams would pass its share keeps
//! none, and its runs walk their traces live, as [`run_mix_with_sink`] and
//! the alone runs always do. Both paths give the same accesses and build
//! their cores in one private helper.
//!
//! # Replaying defenses that never act
//!
//! The harness runs every mix once without a defense, for its baseline, and
//! keeps that run's per-core IPCs, its metrics snapshot and every call the
//! controller made into its [`MitigationHook`]: each `on_activation(bank,
//! row, cycle)` and `on_refresh_tick(cycle)`, in order, 16 bytes a call
//! (`HookCall`). A sweep task without a recording sink first builds its
//! point's hook as a simulation would and feeds it that stream, stopping at
//! the first call that pushes a preventive action:
//!
//! - If the hook never acts, the task returns the baseline's IPCs, normalized
//!   as for a simulation, and the baseline's snapshot plus the hook's
//!   `report_obs`, with no simulation at all (a `harness.replay_task` span).
//! - If it acts, the task simulates from the start with a freshly built hook
//!   (a `harness.sim_task` span), as if there were no replay.
//!
//! The replay is exact, not an estimate. A hook reaches the controller only
//! through the actions it pushes, it is deterministic from its seed, and its
//! threshold provider is a pure function of its arguments (the contracts of
//! [`MitigationHook`] and `ThresholdProvider`). So by induction over the
//! stream: while the hook has pushed nothing, the defended run's controller
//! and cores are in the baseline's state, its next hook call is the
//! baseline's next call, and the hook receives the same input as in the
//! replay. A hook that never acts therefore leaves a run equal to the
//! baseline bit for bit, and its own state (hence its report) equals the
//! replayed hook's. A call that does not fit a `HookCall` drops the mix's
//! stream instead of truncating it, and that mix's tasks all simulate. Traced
//! sweeps ([`EvaluationHarness::evaluate_all_traced`]) always simulate, as
//! the trace records the run's own events; they are the full-simulation
//! reference the equivalence tests compare the replay against.

use svard_cpusim::metrics::SystemMetrics;
use svard_cpusim::workload::{WorkloadMix, WorkloadSpec};
use svard_cpusim::{CoreStream, SimpleCore};
use svard_defenses::provider::SharedThresholdProvider;
use svard_defenses::DefenseKind;
use svard_memsim::{
    BankId, CompletedRequest, MemStats, MemorySystem, MitigationHook, NoMitigation,
    PreventiveAction, RequestKind,
};
use svard_obs::json::Quoted;
use svard_obs::{MetricsSnapshot, NoopSink, ObsSink, PhaseProfile, Profiler, Recorder};

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::config::SystemConfig;
use crate::parallel;

/// How the simulation loop advances time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Skip stall windows in O(1) per event (the default; results are identical
    /// to [`SimMode::PerCycle`]).
    #[default]
    FastForward,
    /// Tick every single cycle. Reference semantics for equivalence tests and
    /// speedup measurements.
    PerCycle,
}

/// Result of simulating one mix on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Per-core IPC.
    pub per_core_ipc: Vec<f64>,
    /// Memory-system statistics.
    pub mem_stats: MemStats,
    /// Merged observability snapshot: the `mem.*` counters, anything the sink
    /// recorded, and the defense's pulled `defense.*` report. `diag.*` entries
    /// need a recording sink, and `diag.mem.skip_span` appears only in
    /// fast-forward runs; strip them with [`MetricsSnapshot::canonical`] when
    /// comparing across modes.
    pub metrics: MetricsSnapshot,
    /// Cycles simulated until every core finished (or the cycle cap).
    pub cycles: u64,
}

/// One data point of Fig. 12 / Fig. 13: a defense under a threshold provider at a
/// given scaled worst-case `HC_first`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationPoint {
    /// Which defense was evaluated.
    pub defense: DefenseKind,
    /// The threshold provider's name ("No Svärd", "Svärd-S0", ...).
    pub provider: String,
    /// The scaled worst-case `HC_first`.
    pub hc_first: u64,
    /// Metrics normalized to the no-defense baseline, averaged over mixes.
    pub normalized: SystemMetrics,
}

/// One configuration to simulate in a sweep: a defense under a threshold
/// provider at a scaled worst-case `HC_first`.
#[derive(Clone)]
pub struct SweepPoint {
    /// Defense to evaluate.
    pub defense: DefenseKind,
    /// Threshold provider the defense consults.
    pub provider: SharedThresholdProvider,
    /// Scaled worst-case `HC_first` (also salts the defense's RNG seed).
    pub hc_first: u64,
}

/// Simulate one workload mix on one memory-system configuration, fast-forwarding
/// over stall windows.
pub fn run_mix(
    mix: &WorkloadMix,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
) -> RunResult {
    run_mix_with_sink(mix, config, mitigation, SimMode::FastForward, NoopSink).0
}

/// [`run_mix`] with strictly per-cycle semantics (reference implementation).
pub fn run_mix_percycle(
    mix: &WorkloadMix,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
) -> RunResult {
    run_mix_with_sink(mix, config, mitigation, SimMode::PerCycle, NoopSink).0
}

/// Simulate one workload mix with an explicit [`SimMode`] and observability
/// sink, returning the run result together with the sink (which owns any
/// recorded event trace). With a [`Recorder`] every issued command, refresh,
/// preventive action and throttle decision is captured cycle-stamped.
pub fn run_mix_with_sink<S: ObsSink>(
    mix: &WorkloadMix,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
    mode: SimMode,
    sink: S,
) -> (RunResult, S) {
    simulate(mix_cores(mix, config, None), config, mitigation, mode, sink)
}

/// The simulation loop behind [`run_mix_with_sink`] and the harness's runs:
/// `cores` against a fresh memory system (see the module docs).
fn simulate<S: ObsSink>(
    mut cores: Vec<SimpleCore>,
    config: &SystemConfig,
    mitigation: Box<dyn MitigationHook>,
    mode: SimMode,
    sink: S,
) -> (RunResult, S) {
    let mut memory =
        MemorySystem::with_mitigation_and_sink(config.memory.clone(), mitigation, sink);
    let mut completions: Vec<CompletedRequest> = Vec::new();
    let fast_forward = mode == SimMode::FastForward;
    let mut awake = Awake::new(&cores);
    while memory.cycle() < config.max_cycles && awake.unfinished > 0 {
        awake.tick(&mut cores, |core| {
            let progressed = core.tick(&mut memory);
            // Finished cores drop out (their tick is a no-op), and in
            // fast-forward so do stalled ones, which park.
            !core.finished() && (!fast_forward || (progressed && !core.stalled()))
        });
        let issues_before = issue_count(memory.stats());
        completions.clear();
        memory.tick_into(&mut completions);
        let now = memory.cycle();
        for done in &completions {
            if let Some(core) = cores.get_mut(done.core) {
                core.on_completion(done.id);
                awake.wake(core, done.core, now);
            }
        }
        // An issue frees a queue slot, which unblocks cores holding a
        // rejected request.
        if issue_count(memory.stats()) != issues_before {
            awake.wake_rejected(&mut cores, &memory, now);
        }
        // Every unfinished core is parked, and only a memory event wakes one:
        // jump to the cycle just before the memory system's next event.
        if awake.ids.is_empty() && awake.unfinished > 0 {
            if let Some(next_event) = memory.next_event_cycle() {
                memory.skip_to_cycle((next_event - 1).min(config.max_cycles));
            }
        }
    }
    // Cores still parked at the cycle cap stalled through every cycle since.
    let end = memory.cycle();
    for (id, core) in cores.iter_mut().enumerate() {
        awake.wake(core, id, end);
    }
    let result = RunResult {
        per_core_ipc: cores.iter().map(|c| c.ipc()).collect(),
        mem_stats: memory.stats().clone(),
        metrics: memory.metrics(),
        cycles: memory.cycle(),
    };
    (result, memory.into_sink())
}

/// Requests the controller has issued: one issue increments exactly one of
/// `activations`/`row_hits`.
fn issue_count(stats: &MemStats) -> u64 {
    stats.activations + stats.row_hits
}

/// The loop's view of which cores to tick: the unfinished cores that are not
/// parked (fast-forward only: a core whose last tick was a pure stall and that
/// no wake event has reached since). The loop skips cycles only when `ids` is
/// empty and `unfinished` is not.
struct Awake {
    /// Awake core ids, ascending, so cores tick in id order.
    ids: Vec<usize>,
    /// `parked[id]`: whether core `id` is parked.
    parked: Vec<bool>,
    /// Cores that have not reached their instruction budget.
    unfinished: usize,
}

impl Awake {
    fn new(cores: &[SimpleCore]) -> Self {
        let ids: Vec<usize> = (0..cores.len())
            .filter(|&id| cores.get(id).is_some_and(|c| !c.finished()))
            .collect();
        Self {
            unfinished: ids.len(),
            ids,
            parked: vec![false; cores.len()],
        }
    }

    /// Tick the awake cores in id order with `tick`, which returns whether the
    /// core stays awake. A core that drops out is parked unless it finished.
    fn tick(&mut self, cores: &mut [SimpleCore], mut tick: impl FnMut(&mut SimpleCore) -> bool) {
        let (parked, unfinished) = (&mut self.parked, &mut self.unfinished);
        self.ids.retain(|&id| {
            let Some(core) = cores.get_mut(id) else {
                return false;
            };
            if tick(core) {
                return true;
            }
            if core.finished() {
                *unfinished -= 1;
            } else if let Some(p) = parked.get_mut(id) {
                *p = true;
            }
            false
        });
    }

    /// Wake, for each queue, the cores holding a request it rejected, in id
    /// order, up to its free slots; awake cores count against the slots too.
    /// Each of those cores takes a slot on its next tick if one is left (its
    /// rejected request is the first thing it issues), so every core past
    /// them would find the queue full: they stay parked.
    fn wake_rejected<S: ObsSink>(
        &mut self,
        cores: &mut [SimpleCore],
        memory: &MemorySystem<S>,
        now: u64,
    ) {
        let mut free_reads = memory.free_slots(RequestKind::Read);
        let mut free_writes = memory.free_slots(RequestKind::Write);
        for (id, core) in cores.iter_mut().enumerate() {
            let free = match core.rejected_kind() {
                Some(RequestKind::Read) => &mut free_reads,
                Some(RequestKind::Write) => &mut free_writes,
                None => continue,
            };
            if *free > 0 {
                *free -= 1;
                self.wake(core, id, now);
            }
        }
    }

    /// Unpark core `id` (a no-op unless parked) at memory cycle `now`,
    /// crediting the stall ticks it missed while parked so its cycle count,
    /// and so its IPC, matches ticking every cycle.
    fn wake(&mut self, core: &mut SimpleCore, id: usize, now: u64) {
        if let Some(parked) = self.parked.get_mut(id).filter(|p| **p) {
            *parked = false;
            core.skip_stalled_cycles(now.saturating_sub(core.cycles()));
            let at = self.ids.partition_point(|&awake| awake < id);
            self.ids.insert(at, id);
        }
    }
}

/// Simulate one workload running alone on one core of the baseline system (the
/// `IPC_alone` reference for the multiprogrammed metrics).
pub fn run_alone(spec: &WorkloadSpec, config: &SystemConfig) -> f64 {
    run_alone_with_mode(spec, config, SimMode::FastForward)
}

fn run_alone_with_mode(spec: &WorkloadSpec, config: &SystemConfig, mode: SimMode) -> f64 {
    let mix = WorkloadMix {
        id: 0,
        workloads: vec![spec.clone()],
    };
    let single = SystemConfig {
        cores: 1,
        ..config.clone()
    };
    run_mix_with_sink(&mix, &single, Box::new(NoMitigation), mode, NoopSink)
        .0
        .per_core_ipc
        .first()
        .copied()
        .unwrap_or(0.0)
}

/// One call the memory controller made into its [`MitigationHook`], packed
/// into 16 bytes: `on_activation(bank, row, cycle)`, or `on_refresh_tick(cycle)`
/// when `row` is [`HookCall::REFRESH`]. `bank` holds the [`BankId`]'s channel,
/// rank, bank group and bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HookCall {
    cycle: u64,
    row: u32,
    bank: [u8; 4],
}

impl HookCall {
    /// The `row` of a refresh tick; no activation has it.
    const REFRESH: u32 = u32::MAX;

    /// An activation, or `None` if a field does not fit.
    fn activation(bank: BankId, row: usize, cycle: u64) -> Option<Self> {
        let byte = |v: usize| u8::try_from(v).ok();
        Some(Self {
            cycle,
            row: u32::try_from(row).ok().filter(|&r| r != Self::REFRESH)?,
            bank: [
                byte(bank.channel)?,
                byte(bank.rank)?,
                byte(bank.bank_group)?,
                byte(bank.bank)?,
            ],
        })
    }

    fn refresh(cycle: u64) -> Self {
        Self {
            cycle,
            row: Self::REFRESH,
            bank: [0; 4],
        }
    }

    fn bank_id(&self) -> BankId {
        let [channel, rank, bank_group, bank] = self.bank.map(usize::from);
        BankId {
            channel,
            rank,
            bank_group,
            bank,
        }
    }
}

/// Feed `calls` to `hook` in order, as the controller made them; whether it
/// got through them all without pushing a preventive action. Stops at the
/// first call that pushes one.
fn replay_never_acts(hook: &mut dyn MitigationHook, calls: &[HookCall]) -> bool {
    let mut out: Vec<PreventiveAction> = Vec::new();
    for call in calls {
        if call.row == HookCall::REFRESH {
            hook.on_refresh_tick(call.cycle);
            continue;
        }
        hook.on_activation(call.bank_id(), call.row as usize, call.cycle, &mut out);
        if !out.is_empty() {
            return false;
        }
    }
    true
}

/// The stream a [`RecordingBaseline`] fills: `None` once a call did not fit.
type CallLog = Rc<RefCell<Option<Vec<HookCall>>>>;

/// [`NoMitigation`] that logs every call into a shared [`CallLog`].
struct RecordingBaseline(CallLog);

impl MitigationHook for RecordingBaseline {
    fn on_activation(
        &mut self,
        bank: BankId,
        row: usize,
        cycle: u64,
        _out: &mut Vec<PreventiveAction>,
    ) {
        let mut log = self.0.borrow_mut();
        if let Some(calls) = log.as_mut() {
            match HookCall::activation(bank, row, cycle) {
                Some(call) => calls.push(call),
                None => *log = None,
            }
        }
    }

    fn on_refresh_tick(&mut self, cycle: u64) {
        if let Some(calls) = self.0.borrow_mut().as_mut() {
            calls.push(HookCall::refresh(cycle));
        }
    }

    fn name(&self) -> &str {
        NoMitigation.name()
    }
}

/// A mix's no-defense run: the normalization reference of its tasks, and
/// what a task whose defense never acts returns instead of simulating (see
/// the module docs).
struct Baseline {
    /// The run's metrics against the alone IPCs.
    metrics: SystemMetrics,
    per_core_ipc: Vec<f64>,
    /// The run's metrics snapshot (the `mem.*` counters; no defense report).
    snapshot: MetricsSnapshot,
    /// Every hook call of the run, in order (`None` if one did not fit).
    calls: Option<Vec<HookCall>>,
    /// Each core's LLC-filtered stream, which every run of the mix reads
    /// (`None` if they did not fit the mix's share of the stream budget).
    streams: Option<Vec<Arc<CoreStream>>>,
}

impl Baseline {
    /// Generate `mix`'s core streams, if together they hold at most
    /// `max_accesses` accesses, and run it without a defense, recording
    /// its hook calls.
    fn run(
        mix: &WorkloadMix,
        config: &SystemConfig,
        mode: SimMode,
        alone: &[f64],
        max_accesses: usize,
    ) -> Self {
        let streams = mix_streams(mix, config, max_accesses);
        let log: CallLog = Rc::new(RefCell::new(Some(Vec::new())));
        let hook = Box::new(RecordingBaseline(Rc::clone(&log)));
        let cores = mix_cores(mix, config, streams.as_deref());
        let run = simulate(cores, config, hook, mode, NoopSink).0;
        let mut calls = log.take();
        if let Some(calls) = calls.as_mut() {
            calls.shrink_to_fit();
        }
        Self {
            metrics: SystemMetrics::compute(alone, &run.per_core_ipc),
            per_core_ipc: run.per_core_ipc,
            snapshot: run.metrics,
            calls,
            streams,
        }
    }
}

/// The stream memory one harness keeps at most: each mix may keep streams
/// of up to its share of this (the budget over the mix count), and a mix
/// whose streams would pass its share keeps none, its runs walking their
/// traces live as [`run_mix`] does. Generating a stream can briefly take
/// up to twice its size, as its vector grows.
const STREAM_BUDGET_BYTES: usize = 256 << 20;

/// `mix`'s core streams, or `None` if together they would hold more than
/// `max_accesses` accesses.
fn mix_streams(
    mix: &WorkloadMix,
    config: &SystemConfig,
    max_accesses: usize,
) -> Option<Vec<Arc<CoreStream>>> {
    let mut left = max_accesses;
    let cores = mix.workloads.iter().take(config.cores).enumerate();
    cores
        .map(|(id, spec)| {
            let budget = config.instructions_per_core;
            let stream = CoreStream::generate_within(spec, id, config.seed, budget, left)?;
            left -= stream.access_count();
            Some(Arc::new(stream))
        })
        .collect()
}

/// Fresh cores for a run of `mix`: reading `streams` if the mix has them
/// (from [`mix_streams`], with the same configuration), else each walking
/// its own trace.
fn mix_cores(
    mix: &WorkloadMix,
    config: &SystemConfig,
    streams: Option<&[Arc<CoreStream>]>,
) -> Vec<SimpleCore> {
    if let Some(streams) = streams {
        let core =
            |stream: &Arc<CoreStream>| SimpleCore::from_stream(Arc::clone(stream), config.core);
        return streams.iter().map(core).collect();
    }
    let cores = mix.workloads.iter().take(config.cores).enumerate();
    cores
        .map(|(id, spec)| {
            let budget = config.instructions_per_core;
            SimpleCore::new(id, spec, config.core, budget, config.seed)
        })
        .collect()
}

/// One `(point, mix)` simulation of a sweep, with the mix's cached alone IPCs
/// and no-defense baseline.
struct Task<'a> {
    p: usize,
    m: usize,
    point: &'a SweepPoint,
    mix: &'a WorkloadMix,
    alone: &'a [f64],
    baseline: &'a Baseline,
}

/// A finished task: metrics normalized to the mix's baseline, the run's
/// canonical (`diag.*`-free) observability snapshot, and its sink.
type TaskResult<S> = (SystemMetrics, MetricsSnapshot, S);

/// A sweep's shared state, and its outcome once the fan-out returns: one slot
/// per selected task and one per input point (`None` if masked out or never
/// run), the canonical snapshot merged over the completed points, and the
/// summed busy time of the completed tasks.
struct Sweep<S> {
    slots: Vec<Option<TaskResult<S>>>,
    results: Vec<Option<EvaluationPoint>>,
    summary: MetricsSnapshot,
    busy_us: u64,
}

/// Evaluation harness that caches the per-mix alone-IPC vectors and baseline
/// metrics, so that each defense configuration only costs one extra simulation per
/// mix — and fans those simulations out across OS threads.
pub struct EvaluationHarness {
    config: SystemConfig,
    mixes: Vec<WorkloadMix>,
    alone_ipc: Vec<Vec<f64>>,
    baseline: Vec<Baseline>,
    threads: usize,
    mode: SimMode,
    prep_profile: Vec<PhaseProfile>,
    profiler: Profiler,
}

impl EvaluationHarness {
    /// Prepare the harness: runs each workload alone and each mix on the
    /// no-defense baseline, in parallel across all available cores.
    pub fn new(config: SystemConfig, mixes: Vec<WorkloadMix>) -> Self {
        Self::with_threads_and_mode(
            config,
            mixes,
            parallel::default_threads(),
            SimMode::default(),
        )
    }

    /// [`new`](Self::new) with an explicit worker-thread count and simulation
    /// mode (used by benchmarks and equivalence tests).
    pub fn with_threads_and_mode(
        config: SystemConfig,
        mixes: Vec<WorkloadMix>,
        threads: usize,
        mode: SimMode,
    ) -> Self {
        Self::with_threads_mode_profiler(config, mixes, threads, mode, Profiler::disabled())
    }

    /// [`with_threads_and_mode`](Self::with_threads_and_mode) with a
    /// wall-clock span [`Profiler`]: construction and every worker task record
    /// `harness.*` spans into it (`alone_runs`/`alone_run`, `baseline_runs`/
    /// `baseline_run`, `sweep`, and per task `sim_task` or `replay_task`),
    /// and the [`PhaseProfile`]s come from the same clock reads. Spans never
    /// feed back into simulation state, so every result is bit-identical
    /// with the profiler enabled or disabled.
    pub fn with_threads_mode_profiler(
        config: SystemConfig,
        mixes: Vec<WorkloadMix>,
        threads: usize,
        mode: SimMode,
        profiler: Profiler,
    ) -> Self {
        // Alone runs: the alone IPC depends only on the workload spec (the run is
        // single-core with a fixed seed), so simulate each distinct spec once and
        // share the result across every mix slot that uses it.
        let mut unique_specs: Vec<&WorkloadSpec> = Vec::new();
        for mix in &mixes {
            for spec in mix.workloads.iter().take(config.cores) {
                if !unique_specs.contains(&spec) {
                    unique_specs.push(spec);
                }
            }
        }
        let (unique_ipc, alone_profile) = prep_phase(
            &profiler,
            threads,
            "harness.alone_runs",
            "harness.alone_run",
            &unique_specs,
            |_, &spec| run_alone_with_mode(spec, &config, mode),
        );
        let alone_ipc: Vec<Vec<f64>> = mixes
            .iter()
            .map(|mix| {
                let specs = mix.workloads.iter().take(config.cores);
                specs
                    .filter_map(|spec| unique_specs.iter().position(|&u| u == spec))
                    .filter_map(|u| unique_ipc.get(u).copied())
                    .collect()
            })
            .collect();
        // Baseline (no defense) runs: one task per mix.
        let max_accesses = STREAM_BUDGET_BYTES / CoreStream::ACCESS_BYTES / mixes.len().max(1);
        let (baseline, baseline_profile) = prep_phase(
            &profiler,
            threads,
            "harness.baseline_runs",
            "harness.baseline_run",
            &mixes,
            |m, mix| {
                let alone = alone_ipc.get(m).map_or(&[] as &[f64], Vec::as_slice);
                Baseline::run(mix, &config, mode, alone, max_accesses)
            },
        );
        Self {
            config,
            mixes,
            alone_ipc,
            baseline,
            threads,
            mode,
            prep_profile: vec![alone_profile, baseline_profile],
            profiler,
        }
    }

    /// Wall-clock profiles of the construction phases (`alone_runs` and
    /// `baseline_runs`): task counts, wall seconds, summed busy seconds and
    /// worker utilization.
    pub fn prep_profile(&self) -> &[PhaseProfile] {
        &self.prep_profile
    }

    /// The mixes under evaluation.
    pub fn mixes(&self) -> &[WorkloadMix] {
        &self.mixes
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The wall-clock span profiler this harness records into (disabled by
    /// default; see
    /// [`with_threads_mode_profiler`](Self::with_threads_mode_profiler)).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Evaluate a whole sweep, fanning the individual (point × mix) simulations
    /// out across worker threads. Results are returned in input order; every
    /// simulation seeds its defense from `config.seed ^ hc_first` and its traces
    /// from `config.seed`, so the output is bit-identical to a serial sweep.
    pub fn evaluate_all(&self, points: &[SweepPoint]) -> Vec<EvaluationPoint> {
        let (results, _) = self.evaluate_all_streamed(points, |_, _, _| true);
        results.into_iter().flatten().collect()
    }

    /// [`evaluate_all`](Self::evaluate_all) with a [`Recorder`] per simulation,
    /// plus the event trace as JSON lines: per `(point, mix)` task, in input
    /// order, a section header and that run's canonical (cycle-domain) events,
    /// so the bytes are identical for any thread count and either [`SimMode`].
    /// Every task simulates; none is replayed from its baseline. The header's
    /// bytes are pinned; see [`svard_obs::json`].
    pub fn evaluate_all_traced(&self, points: &[SweepPoint]) -> (Vec<EvaluationPoint>, String) {
        let all = vec![true; points.len()];
        let sweep = self.sweep(points, &all, Recorder::new, |_, _, _| true);
        // Every point is selected, so slot `p * mixes + m` holds task `(p, m)`.
        let sections = points
            .iter()
            .flat_map(|point| (0..self.mixes.len()).map(move |m| (point, m)));
        let mut trace = String::new();
        for ((point, m), slot) in sections.zip(&sweep.slots) {
            let Some((_, _, sink)) = slot else { continue };
            trace.push_str(&format!(
                "{{\"section\":{{\"defense\":{},\"provider\":{},\"hc_first\":{},\"mix\":{m}}}}}\n",
                Quoted(&point.defense.to_string()),
                Quoted(point.provider.name()),
                point.hc_first,
            ));
            trace.push_str(&sink.trace_jsonl());
        }
        (sweep.results.into_iter().flatten().collect(), trace)
    }

    /// [`evaluate_all`](Self::evaluate_all) plus a wall-clock profile of the
    /// sweep phase (task count, wall seconds, summed busy seconds, worker
    /// utilization). The evaluation results are bit-identical to
    /// `evaluate_all`; only the measurement rides along.
    pub fn evaluate_all_profiled(
        &self,
        points: &[SweepPoint],
    ) -> (Vec<EvaluationPoint>, PhaseProfile) {
        let all = vec![true; points.len()];
        let (results, _, profile) = self.evaluate_masked_streamed(points, &all, |_, _, _| true);
        (results.into_iter().flatten().collect(), profile)
    }

    /// [`evaluate_all`](Self::evaluate_all) that streams every completed
    /// point through `on_point` the moment its last mix simulation finishes
    /// (see [`evaluate_masked_streamed`](Self::evaluate_masked_streamed)).
    pub fn evaluate_all_streamed<F>(
        &self,
        points: &[SweepPoint],
        on_point: F,
    ) -> (Vec<Option<EvaluationPoint>>, MetricsSnapshot)
    where
        F: Fn(usize, &EvaluationPoint, &MetricsSnapshot) -> bool + Sync,
    {
        let (results, summary, _) =
            self.evaluate_masked_streamed(points, &vec![true; points.len()], on_point);
        (results, summary)
    }

    /// Evaluate the points whose `run_point` flag is set, streaming each
    /// through `on_point` the moment its last mix finishes — the entry point
    /// the sweep server builds resumable jobs on. Every completed point is
    /// **bit-identical** to the [`evaluate_all`](Self::evaluate_all) output.
    ///
    /// `on_point` receives the point index, the point, and the canonical
    /// [`MetricsSnapshot`] merged over its mixes; returning `false` cancels
    /// the sweep (in-flight simulations finish, no new ones start). Callbacks
    /// are serialized under an internal lock — keep them fast.
    ///
    /// Returns one slot per input point (`None` if masked out or not completed
    /// before a cancellation), the snapshot merged over completed points, and
    /// the sweep's [`PhaseProfile`] (phase `sweep`, timed as a
    /// `harness.sweep` span): its `tasks` are the `(point, mix)` tasks that
    /// completed and its busy time is theirs summed.
    pub fn evaluate_masked_streamed<F>(
        &self,
        points: &[SweepPoint],
        run_point: &[bool],
        on_point: F,
    ) -> (Vec<Option<EvaluationPoint>>, MetricsSnapshot, PhaseProfile)
    where
        F: Fn(usize, &EvaluationPoint, &MetricsSnapshot) -> bool + Sync,
    {
        let selected = (0..points.len()).filter(|&p| run_point.get(p) == Some(&true));
        let tasks = selected.count() * self.mixes.len();
        let (sweep, wall_us) = timed(&self.profiler, "harness.sweep", tasks as u64, || {
            self.sweep(points, run_point, || NoopSink, on_point)
        });
        let done = sweep.slots.iter().flatten().count();
        let profile = phase_profile("harness.sweep", wall_us, done, sweep.busy_us, self.threads);
        (sweep.results, sweep.summary, profile)
    }

    /// The sweep core behind every `evaluate*` entry point: simulate every
    /// mix of each point whose `run_point` flag is set, with a fresh sink
    /// from `new_sink` per simulation, fanned out across the worker threads.
    /// When a point's last mix finishes, it is reduced by
    /// [`mean_over_mixes`] and handed to `on_point`; returning `false`
    /// cancels the sweep.
    fn sweep<S, N, F>(
        &self,
        points: &[SweepPoint],
        run_point: &[bool],
        new_sink: N,
        on_point: F,
    ) -> Sweep<S>
    where
        S: ObsSink + Send,
        N: Fn() -> S + Sync,
        F: Fn(usize, &EvaluationPoint, &MetricsSnapshot) -> bool + Sync,
    {
        let n_mixes = self.mixes.len();
        let tasks: Vec<Task<'_>> = points
            .iter()
            .enumerate()
            .filter(|&(p, _)| run_point.get(p).copied().unwrap_or(false))
            .flat_map(|(p, point)| {
                let per_mix = self.mixes.iter().zip(&self.alone_ipc).zip(&self.baseline);
                per_mix
                    .enumerate()
                    .map(move |(m, ((mix, alone), baseline))| Task {
                        p,
                        m,
                        point,
                        mix,
                        alone,
                        baseline,
                    })
            })
            .collect();
        let state = Mutex::new(Sweep {
            slots: (0..tasks.len()).map(|_| None).collect(),
            results: vec![None; points.len()],
            summary: MetricsSnapshot::default(),
            busy_us: 0,
        });
        let cancel = AtomicBool::new(false);
        parallel::par_for_each(&tasks, self.threads, &cancel, |t, task| {
            // Span argument: point index in the high 32 bits, mix in the low.
            let arg = ((task.p as u64) << 32) | (task.m as u64 & 0xffff_ffff);
            let (outcome, us) = timed_as(&self.profiler, arg, || {
                self.run_task(task, || self.build_hook(task.point), new_sink())
            });
            // lint: allow(panic) -- poisoned only if a callback panicked; propagate that panic
            let mut st = state.lock().expect("a sweep callback panicked");
            st.busy_us += us;
            if let Some(slot) = st.slots.get_mut(t) {
                *slot = Some(outcome);
            }
            // A point's tasks fill `n_mixes` adjacent slots, mix `m` at `m`;
            // the task that fills the last empty one reduces the point.
            let first = t - task.m;
            let per_mix = st.slots.get(first..first + n_mixes).unwrap_or_default();
            if per_mix.is_empty() || per_mix.iter().any(Option::is_none) {
                return;
            }
            let (done, point_metrics) = mean_over_mixes(task.point, per_mix);
            st.summary.merge(&point_metrics);
            if !on_point(task.p, &done, &point_metrics) {
                cancel.store(true, Ordering::Release);
            }
            if let Some(slot) = st.results.get_mut(task.p) {
                *slot = Some(done);
            }
        });
        state.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// The defense of `point`, seeded from the configuration.
    fn build_hook(&self, point: &SweepPoint) -> Box<dyn MitigationHook> {
        point.defense.build(
            point.provider.clone(),
            self.config.memory.geometry.rows_per_bank,
            self.config.seed ^ point.hc_first,
        )
    }

    /// Run one task with the hooks `build` makes and the given sink (see
    /// [`TaskResult`]), plus the name of its span. Without a recording sink
    /// a hook that never acts on the mix's baseline calls returns the
    /// baseline, replayed; otherwise the task simulates with a fresh hook.
    fn run_task<S: ObsSink>(
        &self,
        task: &Task<'_>,
        build: impl Fn() -> Box<dyn MitigationHook>,
        sink: S,
    ) -> (TaskResult<S>, &'static str) {
        let baseline = task.baseline;
        let normalized =
            |ipc: &[f64]| SystemMetrics::compute(task.alone, ipc).normalized_to(&baseline.metrics);
        if let (false, Some(calls)) = (S::ENABLED, &baseline.calls) {
            let mut hook = build();
            if replay_never_acts(hook.as_mut(), calls) {
                // What `MemorySystem::metrics` adds to the baseline's snapshot.
                let mut snapshot = baseline.snapshot.clone();
                hook.report_obs(&mut snapshot);
                let result = (
                    normalized(&baseline.per_core_ipc),
                    snapshot.canonical(),
                    sink,
                );
                return (result, "harness.replay_task");
            }
        }
        let cores = mix_cores(task.mix, &self.config, baseline.streams.as_deref());
        let (run, sink) = simulate(cores, &self.config, build(), self.mode, sink);
        let result = (normalized(&run.per_core_ipc), run.metrics.canonical(), sink);
        (result, "harness.sim_task")
    }
}

/// The one mean over mixes: average a point's per-mix normalized metrics in
/// mix order and merge their snapshots. Every sweep entry point reduces
/// through here, so all of them add the same f64s in the same sequence.
fn mean_over_mixes<S>(
    point: &SweepPoint,
    per_mix: &[Option<TaskResult<S>>],
) -> (EvaluationPoint, MetricsSnapshot) {
    let (mut weighted, mut harmonic, mut slowdown) = (0.0, 0.0, 0.0);
    let mut metrics = MetricsSnapshot::default();
    for (norm, snapshot, _) in per_mix.iter().flatten() {
        weighted += norm.weighted_speedup;
        harmonic += norm.harmonic_speedup;
        slowdown += norm.max_slowdown;
        metrics.merge(snapshot);
    }
    let n = per_mix.len() as f64;
    let done = EvaluationPoint {
        defense: point.defense,
        provider: point.provider.name().to_string(),
        hc_first: point.hc_first,
        normalized: SystemMetrics {
            weighted_speedup: weighted / n,
            harmonic_speedup: harmonic / n,
            max_slowdown: slowdown / n,
        },
    };
    (done, metrics)
}

/// One construction phase: `f` over `items` on up to `threads` workers, each
/// task recorded as span `task_span` and the whole phase as `phase_span`.
/// Returns the results in input order and the phase's [`PhaseProfile`].
fn prep_phase<T: Sync, R: Send>(
    profiler: &Profiler,
    threads: usize,
    phase_span: &'static str,
    task_span: &'static str,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> (Vec<R>, PhaseProfile) {
    let (timed_tasks, wall_us) = timed(profiler, phase_span, items.len() as u64, || {
        parallel::par_map(items, threads, |i, item| {
            timed(profiler, task_span, i as u64, || f(i, item))
        })
    });
    let busy_us = timed_tasks.iter().map(|&(_, us)| us).sum();
    let results = timed_tasks.into_iter().map(|(r, _)| r).collect();
    let profile = phase_profile(phase_span, wall_us, items.len(), busy_us, threads);
    (results, profile)
}

/// Run `f`, recording it as span `name` with argument `arg`; returns its
/// result and wall time in microseconds.
fn timed<R>(profiler: &Profiler, name: &'static str, arg: u64, f: impl FnOnce() -> R) -> (R, u64) {
    timed_as(profiler, arg, || (f(), name))
}

/// [`timed`] for an `f` that names its own span. The harness's only clock
/// reads.
fn timed_as<R>(profiler: &Profiler, arg: u64, f: impl FnOnce() -> (R, &'static str)) -> (R, u64) {
    // lint: allow(determinism) -- span timing measures the harness, never simulation state
    let start = profiler.now_us();
    let (out, name) = f();
    // lint: allow(determinism) -- span timing measures the harness, never simulation state
    let us = profiler.now_us().saturating_sub(start);
    profiler.record(name, start, us, arg);
    (out, us)
}

/// The [`PhaseProfile`] of a phase timed as span `span` (`harness.<phase>`).
fn phase_profile(
    span: &'static str,
    wall_us: u64,
    tasks: usize,
    busy_us: u64,
    threads: usize,
) -> PhaseProfile {
    PhaseProfile {
        phase: span.strip_prefix("harness.").unwrap_or(span),
        wall_seconds: wall_us as f64 / 1e6,
        tasks,
        busy_seconds: busy_us as f64 / 1e6,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svard_defenses::provider::{ThresholdProvider, UniformThreshold};
    use svard_obs::json::Json;

    fn tiny_mixes(n: usize) -> Vec<WorkloadMix> {
        WorkloadMix::generate(n, 2, 3)
    }

    #[test]
    fn mixes_run_to_completion() {
        let config = SystemConfig::tiny();
        let mix = &tiny_mixes(1)[0];
        let result = run_mix(mix, &config, Box::new(NoMitigation));
        // The loop stops short of the cap only once every core finished.
        assert!(result.cycles < config.max_cycles);
        assert!(result.mem_stats.requests_completed() > 0);
        // The observability snapshot rides along and agrees with the stats.
        assert_eq!(
            result.metrics.counter("mem.reads_completed"),
            result.mem_stats.reads_completed
        );
        assert_eq!(result.metrics.counter("mem.cycles"), result.cycles);
    }

    #[test]
    fn fast_forward_matches_per_cycle_simulation() {
        let config = SystemConfig::tiny();
        for mix in &tiny_mixes(2) {
            let fast = run_mix(mix, &config, Box::new(NoMitigation));
            let slow = run_mix_percycle(mix, &config, Box::new(NoMitigation));
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn fast_forward_matches_per_cycle_for_every_defense() {
        use svard_cpusim::workload::WorkloadSpec;
        let mut config = SystemConfig::tiny();
        config.instructions_per_core = 3_000;
        let mut mixes = tiny_mixes(1);
        mixes.push(WorkloadMix::adversarial(
            WorkloadSpec::adversarial_rrs(),
            config.cores,
        ));
        mixes.push(WorkloadMix::adversarial(
            WorkloadSpec::adversarial_hydra(),
            config.cores,
        ));
        for mix in &mixes {
            for defense in DefenseKind::ALL {
                let build = || {
                    defense.build(
                        Arc::new(UniformThreshold::new(256)) as SharedThresholdProvider,
                        config.memory.geometry.rows_per_bank,
                        7,
                    )
                };
                let fast = run_mix(mix, &config, build());
                let slow = run_mix_percycle(mix, &config, build());
                assert_eq!(fast, slow, "defense {defense}, mix {}", mix.id);
            }
        }
    }

    #[test]
    fn fast_forward_skips_the_attackers_stall_windows() {
        use svard_cpusim::workload::WorkloadSpec;
        let config = SystemConfig::tiny();
        for spec in [
            WorkloadSpec::adversarial_rrs(),
            WorkloadSpec::adversarial_hydra(),
        ] {
            let name = spec.name;
            let mix = WorkloadMix::adversarial(spec, config.cores);
            let run = |mode| {
                let mitigation = Box::new(NoMitigation);
                run_mix_with_sink(&mix, &config, mitigation, mode, Recorder::new()).0
            };
            let fast = run(SimMode::FastForward);
            let skipped = fast
                .metrics
                .hists
                .get("diag.mem.skip_span")
                .map_or(0, |h| h.sum);
            assert!(
                3 * skipped > fast.cycles,
                "{name}: skipped {skipped} of {} cycles",
                fast.cycles
            );
            let slow = run(SimMode::PerCycle);
            assert!(!slow.metrics.hists.contains_key("diag.mem.skip_span"));
        }
    }

    #[test]
    fn alone_ipc_is_at_least_shared_ipc() {
        let config = SystemConfig::tiny();
        let mix = &tiny_mixes(1)[0];
        let shared = run_mix(mix, &config, Box::new(NoMitigation));
        for (core, spec) in mix.workloads.iter().take(config.cores).enumerate() {
            let alone = run_alone(spec, &config);
            assert!(
                alone >= shared.per_core_ipc[core] * 0.95,
                "core {core}: alone {alone} vs shared {}",
                shared.per_core_ipc[core]
            );
        }
    }

    #[test]
    fn aggressive_defense_at_low_threshold_costs_performance() {
        let config = SystemConfig::tiny();
        let harness = EvaluationHarness::new(config, tiny_mixes(2));
        let results = harness.evaluate_all(&para_points(&[64, 64 * 1024]));
        let (strict, relaxed) = (&results[0], &results[1]);
        assert!(strict.normalized.weighted_speedup <= relaxed.normalized.weighted_speedup + 0.02);
        assert!(relaxed.normalized.weighted_speedup > 0.9);
        assert!(strict.normalized.weighted_speedup <= 1.01);
    }

    fn para_points(hcs: &[u64]) -> Vec<SweepPoint> {
        hcs.iter()
            .map(|&hc| SweepPoint {
                defense: DefenseKind::Para,
                provider: Arc::new(UniformThreshold::new(hc)) as SharedThresholdProvider,
                hc_first: hc,
            })
            .collect()
    }

    /// Pushes one victim refresh at the activation `at` and nothing
    /// otherwise. Reports how many activations it saw and a digest of every
    /// call, in order (under two arbitrary counter names), so a replay that
    /// drops, reorders or alters a call changes its report.
    struct ActsAt {
        at: Option<(BankId, usize, u64)>,
        activations: u64,
        digest: u64,
    }

    impl ActsAt {
        fn boxed(at: Option<(BankId, usize, u64)>) -> Box<dyn MitigationHook> {
            Box::new(Self {
                at,
                activations: 0,
                digest: 0,
            })
        }

        fn absorb(&mut self, word: u64) {
            self.digest = (self.digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    impl MitigationHook for ActsAt {
        fn on_activation(
            &mut self,
            bank: BankId,
            row: usize,
            cycle: u64,
            out: &mut Vec<PreventiveAction>,
        ) {
            self.activations += 1;
            for word in [bank.channel, bank.rank, bank.bank_group, bank.bank, row] {
                self.absorb(word as u64);
            }
            self.absorb(cycle);
            if self.at == Some((bank, row, cycle)) {
                out.push(PreventiveAction::RefreshRow { bank, row: row + 1 });
            }
        }

        fn on_refresh_tick(&mut self, cycle: u64) {
            self.absorb(u64::MAX);
            self.absorb(cycle);
        }

        fn report_obs(&self, out: &mut dyn svard_obs::Collect) {
            out.counter(svard_obs::Counter::DefenseRccHits, self.activations);
            out.counter(svard_obs::Counter::DefenseRccEvictions, self.digest);
        }

        fn name(&self) -> &str {
            "acts-at"
        }
    }

    /// Run mix 0's task of `harness` with the hooks `build` makes; check it
    /// against a direct `run_mix` and return its snapshot and span name.
    fn run_task_against_run_mix(
        harness: &EvaluationHarness,
        build: impl Fn() -> Box<dyn MitigationHook>,
    ) -> (MetricsSnapshot, &'static str) {
        let point = &para_points(&[64])[0];
        let task = Task {
            p: 0,
            m: 0,
            point,
            mix: &harness.mixes[0],
            alone: &harness.alone_ipc[0],
            baseline: &harness.baseline[0],
        };
        let ((normalized, snapshot, _), span) = harness.run_task(&task, &build, NoopSink);
        let direct = run_mix(&harness.mixes[0], &harness.config, build());
        let expected = SystemMetrics::compute(task.alone, &direct.per_core_ipc)
            .normalized_to(&task.baseline.metrics);
        assert_eq!(normalized, expected, "{span}");
        assert_eq!(snapshot, direct.metrics.canonical(), "{span}");
        (snapshot, span)
    }

    /// One mix, run long enough to span refresh ticks.
    fn one_mix_harness() -> EvaluationHarness {
        EvaluationHarness::with_threads_and_mode(
            SystemConfig::tiny().with_instructions(20_000),
            tiny_mixes(1),
            1,
            SimMode::FastForward,
        )
    }

    #[test]
    fn a_hook_acting_at_the_last_activation_falls_back_to_simulation() {
        let harness = one_mix_harness();
        let calls = harness.baseline[0].calls.as_deref().unwrap();
        let last = calls.iter().rfind(|c| c.row != HookCall::REFRESH).unwrap();
        let at = Some((last.bank_id(), last.row as usize, last.cycle));
        let (snapshot, span) = run_task_against_run_mix(&harness, || ActsAt::boxed(at));
        assert_eq!(span, "harness.sim_task");
        assert!(snapshot.counter("mem.preventive_refreshes") > 0);
    }

    #[test]
    fn a_hook_that_never_acts_is_replayed_with_its_report() {
        let harness = one_mix_harness();
        let calls = harness.baseline[0].calls.as_deref().unwrap();
        let activations = calls.iter().filter(|c| c.row != HookCall::REFRESH).count();
        assert!(calls.len() > activations, "no refresh tick recorded");
        let (snapshot, span) = run_task_against_run_mix(&harness, || ActsAt::boxed(None));
        assert_eq!(span, "harness.replay_task");
        assert_eq!(snapshot.counter("defense.rcc_hits"), activations as u64);
    }

    #[test]
    fn a_mix_without_a_stream_simulates_every_task() {
        let mut harness = one_mix_harness();
        harness.baseline[0].calls = None;
        let (_, span) = run_task_against_run_mix(&harness, || ActsAt::boxed(None));
        assert_eq!(span, "harness.sim_task");
    }

    #[test]
    fn a_mix_over_its_stream_budget_walks_its_traces_live() {
        let harness = one_mix_harness();
        let (mix, config) = (&harness.mixes[0], &harness.config);
        let kept = harness.baseline[0]
            .streams
            .as_deref()
            .expect("one mix fits");
        let accesses: usize = kept.iter().map(|s| s.access_count()).sum();
        // A budget one access short keeps no stream at all, and the baseline
        // it runs live is the one it ran from streams.
        let live = Baseline::run(
            mix,
            config,
            harness.mode,
            &harness.alone_ipc[0],
            accesses - 1,
        );
        assert!(live.streams.is_none());
        let exact = Baseline::run(mix, config, harness.mode, &harness.alone_ipc[0], accesses);
        assert_eq!(exact.streams.map(|s| s.len()), Some(kept.len()));
        let reference = &harness.baseline[0];
        assert_eq!(live.per_core_ipc, reference.per_core_ipc);
        assert_eq!(live.snapshot, reference.snapshot);
        assert_eq!(live.calls, reference.calls);
        // Its simulated tasks walk live too, and still match `run_mix`.
        let mut harness = harness;
        harness.baseline[0] = live;
        let calls = harness.baseline[0].calls.as_deref().unwrap();
        let last = calls.iter().rfind(|c| c.row != HookCall::REFRESH).unwrap();
        let at = Some((last.bank_id(), last.row as usize, last.cycle));
        let (_, span) = run_task_against_run_mix(&harness, || ActsAt::boxed(at));
        assert_eq!(span, "harness.sim_task");
    }

    #[test]
    fn hook_calls_pack_into_16_bytes_or_not_at_all() {
        assert!(std::mem::size_of::<HookCall>() <= 16);
        let bank = BankId {
            channel: 1,
            rank: 2,
            bank_group: 3,
            bank: 255,
        };
        let call = HookCall::activation(bank, 7, u64::MAX).unwrap();
        assert_eq!((call.bank_id(), call.row, call.cycle), (bank, 7, u64::MAX));
        let wide = BankId { bank: 256, ..bank };
        assert_eq!(HookCall::activation(wide, 7, 0), None);
        assert_eq!(HookCall::activation(bank, u32::MAX as usize, 0), None);
        // One call that does not fit drops the whole stream for good.
        let log: CallLog = Rc::new(RefCell::new(Some(Vec::new())));
        let mut hook = RecordingBaseline(Rc::clone(&log));
        hook.on_refresh_tick(5);
        assert_eq!(log.borrow().as_ref().map(Vec::len), Some(1));
        hook.activation_actions(wide, 7, 6);
        hook.on_refresh_tick(7);
        hook.activation_actions(bank, 7, 8);
        assert_eq!(*log.borrow(), None);
    }

    /// A uniform threshold under a name that needs JSON escaping.
    struct QuotedName(UniformThreshold);

    impl ThresholdProvider for QuotedName {
        fn victim_threshold(&self, bank: BankId, aggressor_row: usize) -> u64 {
            self.0.victim_threshold(bank, aggressor_row)
        }
        fn worst_case(&self) -> u64 {
            self.0.worst_case()
        }
        fn name(&self) -> &str {
            "Svärd \"quoted\" \\ name"
        }
    }

    #[test]
    fn trace_section_headers_escape_provider_names() {
        let harness = EvaluationHarness::new(SystemConfig::tiny(), tiny_mixes(1));
        let point = SweepPoint {
            defense: DefenseKind::Para,
            provider: Arc::new(QuotedName(UniformThreshold::new(64))) as SharedThresholdProvider,
            hc_first: 64,
        };
        let (_, trace) = harness.evaluate_all_traced(&[point]);
        let header = trace.lines().next().unwrap_or_default();
        let section = Json::parse(header)
            .ok()
            .and_then(|h| h.get("section").cloned());
        let field = |key: &str| section.as_ref().and_then(|s| s.get(key)).cloned();
        let provider = Json::str("Svärd \"quoted\" \\ name");
        assert_eq!(field("provider"), Some(provider), "{header}");
        assert_eq!(field("defense"), Some(Json::str("PARA")));
        assert_eq!(field("mix"), Some(Json::uint(0)));
    }

    #[test]
    fn streamed_sweep_is_bit_identical_to_batch_sweep() {
        let config = SystemConfig::tiny();
        let mixes = tiny_mixes(2);
        let points = para_points(&[64, 1024, 4096]);
        let reference = EvaluationHarness::with_threads_and_mode(
            config.clone(),
            mixes.clone(),
            1,
            SimMode::FastForward,
        )
        .evaluate_all(&points);
        for threads in [1, 2, 8] {
            let harness = EvaluationHarness::with_threads_and_mode(
                config.clone(),
                mixes.clone(),
                threads,
                SimMode::FastForward,
            );
            let streamed = Mutex::new(Vec::new());
            let (slots, summary) = harness.evaluate_all_streamed(&points, |p, point, metrics| {
                streamed
                    .lock()
                    .unwrap()
                    .push((p, point.clone(), metrics.clone()));
                true
            });
            // Every slot filled, and bit-identical to the batch result.
            let completed: Vec<EvaluationPoint> = slots.into_iter().map(|s| s.unwrap()).collect();
            assert_eq!(completed, reference, "threads = {threads}");
            // The callback saw each point exactly once, with the same values.
            let mut seen = streamed.into_inner().unwrap();
            seen.sort_by_key(|(p, _, _)| *p);
            assert_eq!(seen.len(), points.len());
            for (i, (p, point, metrics)) in seen.iter().enumerate() {
                assert_eq!(*p, i);
                assert_eq!(point, &reference[i]);
                assert!(metrics.counter("mem.cycles") > 0);
            }
            // The summary is the merge of the per-point snapshots.
            let mut merged = MetricsSnapshot::default();
            for (_, _, metrics) in &seen {
                merged.merge(metrics);
            }
            assert_eq!(summary, merged);
        }
    }

    #[test]
    fn masked_streamed_sweep_skips_unselected_points() {
        let config = SystemConfig::tiny();
        let mixes = tiny_mixes(2);
        let points = para_points(&[64, 1024, 4096]);
        let harness =
            EvaluationHarness::with_threads_and_mode(config, mixes, 2, SimMode::FastForward);
        let reference = harness.evaluate_all(&points);
        let mask = [true, false, true];
        let (slots, _, _) = harness.evaluate_masked_streamed(&points, &mask, |_, _, _| true);
        assert_eq!(slots[0].as_ref(), Some(&reference[0]));
        assert_eq!(slots[1], None);
        assert_eq!(slots[2].as_ref(), Some(&reference[2]));
    }

    #[test]
    fn streamed_sweep_can_be_cancelled_by_the_callback() {
        let config = SystemConfig::tiny();
        let mixes = tiny_mixes(1);
        let points = para_points(&[64, 128, 256, 512, 1024, 2048, 4096, 8192]);
        let harness =
            EvaluationHarness::with_threads_and_mode(config, mixes, 1, SimMode::FastForward);
        let (slots, _) = harness.evaluate_all_streamed(&points, |p, _, _| p == 0);
        let completed = slots.iter().filter(|s| s.is_some()).count();
        assert!(
            completed < points.len(),
            "cancellation did not stop the sweep"
        );
        // Whatever did complete matches the batch values exactly.
        let reference = harness.evaluate_all(&points);
        for (slot, expect) in slots.iter().zip(&reference) {
            if let Some(point) = slot {
                assert_eq!(point, expect);
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        let config = SystemConfig::tiny();
        let mixes = tiny_mixes(2);
        let points: Vec<SweepPoint> = [64u64, 1024]
            .iter()
            .map(|&hc| SweepPoint {
                defense: DefenseKind::Para,
                provider: Arc::new(UniformThreshold::new(hc)) as SharedThresholdProvider,
                hc_first: hc,
            })
            .collect();
        let serial = EvaluationHarness::with_threads_and_mode(
            config.clone(),
            mixes.clone(),
            1,
            SimMode::FastForward,
        );
        let parallel =
            EvaluationHarness::with_threads_and_mode(config, mixes, 4, SimMode::FastForward);
        let a = serial.evaluate_all(&points);
        let b = parallel.evaluate_all(&points);
        assert_eq!(a, b);
    }
}
