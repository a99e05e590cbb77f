//! The two sweep workloads: `fig12_sweep` (the paper's Fig. 12 grid on
//! benign mixes) and `adversarial_sweep` (every defense on the Fig. 13
//! attacker mixes).
//!
//! The untraced run times whole sweeps through
//! `EvaluationHarness::evaluate_all_streamed`. The traced run re-simulates
//! every `(point, mix)` task from the benchmark's own cycle loop with
//! recording wrappers around the defense and the threshold provider, then
//! replays the recorded streams in isolation (see [`crate::layers`]).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use svard_core::{StorageKind, Svard};
use svard_cpusim::metrics::SystemMetrics;
use svard_cpusim::workload::{WorkloadMix, WorkloadSpec};
use svard_defenses::{DefenseKind, SharedThresholdProvider, UniformThreshold};
use svard_memsim::NoMitigation;
use svard_obs::{MetricsSnapshot, Profiler, Recorder};
use svard_system::runner::{run_alone, run_mix, run_mix_percycle, run_mix_with_sink};
use svard_system::{EvaluationHarness, EvaluationPoint, SimMode, SweepPoint, SystemConfig};
use svard_vulnerability::{ModuleSpec, ModuleVulnerabilityProfile, ProfileGenerator};

use crate::layers::{self, HookLog, RecordingHook, RecordingProvider};
use crate::report::{self, Report};
use crate::spans;

/// Seed of the benign mix composition. The composition (which catalogue
/// workloads share the system) is part of the workload's definition, like a
/// benchmark suite's program list; `--seed` drives the traces, profiles and
/// defense randomness, so every seed does comparable work.
pub const MIX_SEED: u64 = 42;

/// Svärd bin count (4-bit identifiers), as in the experiments.
const BINS: usize = 16;

/// Minimum sweeps per untraced run, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Replay passes per recorded stream; the median pass is kept.
const REPLAY_REPS: usize = 3;

/// Cores per simulated system (Table 4).
const CORES: usize = 8;

/// DRAM rows per bank.
const ROWS: usize = 1024;

/// Harness worker threads of the traced run: the host's 2 hardware threads,
/// so `system.worker_utilization` measures the harness fan-out.
const THREADS: usize = 2;

/// Harness worker threads of the untraced run. On a 2-vCPU shared host, a
/// sweep on both vCPUs is slowed whenever another tenant takes either; over
/// four 20 s runs per setting, the spread of `items_per_s` (interquartile
/// range over median) was 0.27 on 2 threads against 0.11 on 1.
const PLAIN_THREADS: usize = 1;

/// Benign mixes of the Fig. 12 sweep.
const BENIGN_MIXES: usize = 2;

/// Which sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Fig. 12 grid on benign `WorkloadMix::generate` mixes.
    Fig12,
    /// Every defense at low `HC_first` on the Fig. 13 attacker mixes.
    Adversarial,
}

/// A sweep workload's full definition.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Which sweep.
    pub kind: SweepKind,
    /// Workload seed: traces, profiles and defense randomness.
    pub seed: u64,
    /// Instructions per core.
    pub instructions: u64,
    /// Scaled worst-case `HC_first` values.
    pub hc_values: Vec<u64>,
    /// Defenses, in figure order.
    pub defenses: Vec<DefenseKind>,
    /// Svärd module labels; each point set also has a No-Svärd point.
    pub labels: Vec<&'static str>,
    /// Whether the traced run also checks every task against
    /// `run_mix_percycle`. Attacker mixes stall for millions of cycles, which
    /// per-cycle simulation takes minutes to tick through, so they are
    /// checked against `run_mix` only.
    pub percycle_reference: bool,
}

impl SweepSpec {
    /// The `fig12_sweep` workload: 5 defenses × {No Svärd, S0, M0, H1} ×
    /// `HC_first` {4096, 1024, 256, 64} × 2 benign mixes, 8 cores, 1024 rows.
    pub fn fig12(seed: u64) -> Self {
        Self {
            kind: SweepKind::Fig12,
            seed,
            instructions: 20_000,
            hc_values: vec![4096, 1024, 256, 64],
            defenses: DefenseKind::ALL.to_vec(),
            labels: vec!["S0", "M0", "H1"],
            percycle_reference: true,
        }
    }

    /// The `adversarial_sweep` workload: 5 defenses × the same 4 providers ×
    /// `HC_first` {64, 256} on three attacker mixes. At 5k instructions per
    /// core a sweep takes about 2 s on one thread, so a run holds about ten
    /// sweeps to take each point's median time from.
    pub fn adversarial(seed: u64) -> Self {
        Self {
            kind: SweepKind::Adversarial,
            instructions: 5_000,
            hc_values: vec![64, 256],
            percycle_reference: false,
            ..Self::fig12(seed)
        }
    }

    /// The simulated system.
    pub fn config(&self) -> SystemConfig {
        let mut config = SystemConfig::table4_scaled()
            .with_instructions(self.instructions)
            .with_cores(CORES);
        config.memory.geometry.rows_per_bank = ROWS;
        config.seed = self.seed;
        config
    }

    /// The workload mixes.
    pub fn mixes(&self) -> Vec<WorkloadMix> {
        match self.kind {
            SweepKind::Fig12 => WorkloadMix::generate(BENIGN_MIXES, CORES, MIX_SEED),
            SweepKind::Adversarial => {
                let mut mixes = vec![
                    WorkloadMix::adversarial(WorkloadSpec::adversarial_hydra(), CORES),
                    WorkloadMix::adversarial(WorkloadSpec::adversarial_rrs(), CORES),
                    WorkloadMix::adversarial_with_background(
                        WorkloadSpec::adversarial_hydra(),
                        WorkloadSpec::zipf(1.0),
                        CORES,
                    ),
                ];
                for (id, mix) in mixes.iter_mut().enumerate() {
                    mix.id = id;
                }
                mixes
            }
        }
    }
}

/// A set-up sweep: harness, points and the set-up phase timings.
pub struct Prepared {
    /// The workload definition.
    pub spec: SweepSpec,
    /// Harness with alone and baseline runs done.
    pub harness: EvaluationHarness,
    /// The sweep, in figure order.
    pub points: Vec<SweepPoint>,
    /// Svärd module label of each point (`None` for No Svärd).
    pub point_labels: Vec<Option<&'static str>>,
    /// One vulnerability profile per label.
    pub profiles: Vec<(&'static str, ModuleVulnerabilityProfile)>,
    /// Seconds generating profiles.
    pub profile_gen_s: f64,
    /// Seconds in `Svard::build`.
    pub core_build_s: f64,
}

/// Generate profiles, build every Svärd provider and construct the harness.
pub fn prepare(spec: &SweepSpec, threads: usize, profiler: Profiler) -> Result<Prepared, String> {
    let start = Instant::now();
    let profiles = spec
        .labels
        .iter()
        .map(|&label| {
            let module = ModuleSpec::by_label(label).ok_or(format!("unknown module {label}"))?;
            let profile = ProfileGenerator::new(spec.seed).generate(&module.scaled(ROWS), 1);
            Ok((label, profile))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let profile_gen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut svard: Vec<((&'static str, u64), SharedThresholdProvider)> = Vec::new();
    for &hc in &spec.hc_values {
        for (label, profile) in &profiles {
            svard.push(((label, hc), Svard::build(profile, hc, BINS).provider()));
        }
    }
    let core_build_s = start.elapsed().as_secs_f64();

    let mut points = Vec::new();
    let mut point_labels = Vec::new();
    for &defense in &spec.defenses {
        for &hc in &spec.hc_values {
            points.push(SweepPoint {
                defense,
                provider: Arc::new(UniformThreshold::new(hc)),
                hc_first: hc,
            });
            point_labels.push(None);
            for ((label, provider_hc), provider) in &svard {
                if *provider_hc == hc {
                    points.push(SweepPoint {
                        defense,
                        provider: provider.clone(),
                        hc_first: hc,
                    });
                    point_labels.push(Some(*label));
                }
            }
        }
    }

    let harness = EvaluationHarness::with_threads_mode_profiler(
        spec.config(),
        spec.mixes(),
        threads,
        SimMode::FastForward,
        profiler,
    );
    Ok(Prepared {
        spec: spec.clone(),
        harness,
        points,
        point_labels,
        profiles,
        profile_gen_s,
        core_build_s,
    })
}

/// One rendered sweep point: the fig12 CSV columns at full precision plus
/// the point's canonical metrics merged over mixes.
fn render(point: &EvaluationPoint, metrics: &MetricsSnapshot) -> String {
    let n = &point.normalized;
    format!(
        "{},{},{},{:?},{:?},{:?},{}",
        point.defense,
        point.provider,
        point.hc_first,
        n.weighted_speedup,
        n.harmonic_speedup,
        n.max_slowdown,
        metrics.to_json()
    )
}

/// Sanity checks on a point's values: finite, positive metrics.
fn check_point(point: &EvaluationPoint) -> Result<(), String> {
    let n = &point.normalized;
    let ok = [n.weighted_speedup, n.harmonic_speedup, n.max_slowdown]
        .iter()
        .all(|v| v.is_finite() && *v > 0.0);
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} / {} / {}: non-positive or non-finite metrics {n:?}",
            point.defense, point.provider, point.hc_first
        ))
    }
}

/// One untraced sweep.
pub struct Round {
    /// Evaluated points, in sweep order.
    pub points: Vec<EvaluationPoint>,
    /// Rendered points, in sweep order.
    pub lines: Vec<String>,
    /// Seconds from the end of the previous point's callback (or the sweep's
    /// start) to each point's completion, by point index. With one harness
    /// thread, points complete in sweep order, so this is each point's own
    /// time.
    pub point_s: Vec<f64>,
    /// Simulated DRAM cycles over every task.
    pub sim_cycles: u64,
    /// Point-level check failures.
    pub problems: Vec<String>,
}

/// Run the whole sweep once through `evaluate_all_streamed`, calling
/// `reference`'s [`crate::Reference::catch_up`] between points, outside
/// their times.
pub fn plain_round(p: &Prepared, reference: Option<&crate::Reference>) -> Result<Round, String> {
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    let (slots, summary) = p
        .harness
        .evaluate_all_streamed(&p.points, |i, point, metrics| {
            let at = start.elapsed();
            let (point, metrics) = (point.clone(), metrics.clone());
            if let Some(reference) = reference {
                reference.catch_up();
            }
            if let Ok(mut done) = done.lock() {
                done.push((i, point, metrics, at, start.elapsed()));
            }
            true
        });
    let mut done = done.into_inner().map_err(|_| "sweep callback panicked")?;
    let mut point_s = vec![0.0; p.points.len()];
    let mut previous = Duration::ZERO;
    for (i, _, _, at, after) in &done {
        if let Some(s) = point_s.get_mut(*i) {
            *s = at.saturating_sub(previous).as_secs_f64();
        }
        previous = *after;
    }
    done.sort_by_key(|(i, ..)| *i);
    if done.len() != p.points.len() || slots.iter().any(Option::is_none) {
        return Err(format!(
            "sweep completed {} of {} points",
            done.len(),
            p.points.len()
        ));
    }
    let problems = done
        .iter()
        .filter_map(|(_, point, ..)| check_point(point).err())
        .collect();
    Ok(Round {
        lines: done
            .iter()
            .map(|(_, point, m, ..)| render(point, m))
            .collect(),
        points: done.into_iter().map(|(_, point, ..)| point).collect(),
        point_s,
        sim_cycles: summary.counter("mem.cycles"),
        problems,
    })
}

fn describe(p: &Prepared, threads: usize) -> String {
    format!(
        "{:?} seed {}: {} points x {} mixes, {CORES} cores x {} instructions, {ROWS} rows, \
         {threads} harness threads",
        p.spec.kind,
        p.spec.seed,
        p.points.len(),
        p.harness.mixes().len(),
        p.spec.instructions,
    )
}

/// The untraced run ([`crate::measure`]): set up repeatedly, then sweep
/// repeatedly for `seconds`, checking every sweep's digest against the
/// first. Rates are
/// those of a sweep with every point at the median of its times (see
/// [`crate::typical_parts`]), scaled to the reference host speed (see
/// [`crate::Measured::scale`]).
pub fn run_plain(spec: &SweepSpec, seconds: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut sim_cycles, mut mixes, mut points) = (0, 0, 0);
    // Each sweep is checked as soon as it ends and only its point times are
    // kept, so memory does not grow with the number of sweeps.
    let setup = || prepare(spec, PLAIN_THREADS, Profiler::disabled());
    let measured = crate::measure(seconds, MIN_ROUNDS, setup, |p, reference| {
        let round = plain_round(p, Some(reference))?;
        if report.digest.is_none() {
            report.note(describe(p, PLAIN_THREADS));
        }
        mixes = p.harness.mixes().len();
        points = p.points.len();
        report.attempted += points as u64;
        for problem in round.problems {
            report.problem(problem);
        }
        report.check_repeat(report::digest(round.lines.iter().map(String::as_str)));
        // Equal in every sweep, as the digest check confirms.
        sim_cycles = round.sim_cycles;
        Ok(round.point_s)
    })?;
    report.set("setup_s", "s", measured.setup_s);
    let sweep_s = crate::typical_parts(&measured.units) * measured.scale;
    report.note(format!(
        "{} sweeps measured, every point at its median {sweep_s:.3} s at reference speed \
         (host time x {:.3})",
        measured.units.len(),
        measured.scale
    ));
    let instructions = (points * mixes * CORES) as f64 * spec.instructions as f64;
    let items = points as f64 / sweep_s;
    report.set("items_per_s", "1/s", items);
    report.set("points_per_s", "1/s", items);
    report.set("sim_instructions_per_s", "1/s", instructions / sweep_s);
    report.set("sim_cycles_per_s", "1/s", sim_cycles as f64 / sweep_s);
    Ok(report)
}

/// Per-layer totals of one traced sweep.
#[derive(Debug, Clone, Default)]
struct LayerTotals {
    /// Wall time of the traced simulations alone (`run_split`), without the
    /// reference runs and replays that check and time them afterwards.
    split_ns: u64,
    core_ns: u64,
    mem_ns: u64,
    hook_ns: u64,
    core_ticks: u64,
    mem_ticks: u64,
    llc_hits: u64,
    llc_accesses: u64,
    cycles: u64,
    activations: u64,
    row_hits: u64,
    row_accesses: u64,
    preventive_work: u64,
    ff_skipped_cycles: u64,
    ff_cycles: u64,
    lookups: u64,
    lookup_replays: u64,
    table_ns: u64,
    bloom_ns: u64,
    /// Per defense, in `DefenseKind::ALL` order.
    defenses: [DefenseTotals; 5],
}

#[derive(Debug, Clone, Copy, Default)]
struct DefenseTotals {
    calls: u64,
    actions: u64,
    replay_ns: u64,
    replay_calls: u64,
    vacuous_points: u64,
}

/// Everything one traced `(point, mix)` task produced.
struct TaskOut {
    point: usize,
    mix: usize,
    normalized: SystemMetrics,
    metrics: MetricsSnapshot,
    totals: LayerTotals,
    protective: u64,
    problems: Vec<String>,
}

fn defense_slot(defense: DefenseKind) -> usize {
    DefenseKind::ALL
        .iter()
        .position(|d| *d == defense)
        .unwrap_or_default()
}

/// The metric-name key of a defense (`para`, `blockhammer`, ...).
fn defense_key(defense: DefenseKind) -> String {
    defense.to_string().to_lowercase()
}

/// Per-mix alone IPCs and no-defense baselines, computed exactly as the
/// harness computes them.
fn references(mixes: &[WorkloadMix], config: &SystemConfig) -> Vec<(Vec<f64>, SystemMetrics)> {
    let mut cache: Vec<(WorkloadSpec, f64)> = Vec::new();
    mixes
        .iter()
        .map(|mix| {
            let alone: Vec<f64> = mix
                .workloads
                .iter()
                .take(config.cores)
                .map(|spec| match cache.iter().find(|(s, _)| s == spec) {
                    Some((_, ipc)) => *ipc,
                    None => {
                        let ipc = run_alone(spec, config);
                        cache.push((spec.clone(), ipc));
                        ipc
                    }
                })
                .collect();
            let base = run_mix(mix, config, Box::new(NoMitigation));
            let baseline = SystemMetrics::compute(&alone, &base.per_core_ipc);
            (alone, baseline)
        })
        .collect()
}

/// Svärd providers per `(label, HC_first)` for both storage kinds the
/// lookup replay compares.
type StorageVariants = Vec<((&'static str, u64), [SharedThresholdProvider; 2])>;

fn storage_variants(p: &Prepared) -> StorageVariants {
    let mut out = Vec::new();
    for &hc in &p.spec.hc_values {
        for (label, profile) in &p.profiles {
            let build = |kind| Svard::build_with_storage(profile, hc, BINS, kind).provider();
            out.push((
                (*label, hc),
                [
                    build(StorageKind::ControllerTable),
                    build(StorageKind::BloomCompressed),
                ],
            ));
        }
    }
    out
}

/// Simulate one task from the split loop with recording wrappers, and again
/// as `run_mix` with a `Recorder` sink (and, where the spec asks, as
/// `run_mix_percycle`); check they agree, and replay the recorded streams.
fn trace_task(
    p: &Prepared,
    refs: &[(Vec<f64>, SystemMetrics)],
    variants: &StorageVariants,
    timer_ns: u64,
    point_index: usize,
    mix_index: usize,
) -> Result<TaskOut, String> {
    let config = p.harness.config();
    let (Some(point), Some(mix), Some((alone, base)), Some(label)) = (
        p.points.get(point_index),
        p.harness.mixes().get(mix_index),
        refs.get(mix_index),
        p.point_labels.get(point_index),
    ) else {
        return Err(format!("task ({point_index}, {mix_index}) out of range"));
    };
    let rows = config.memory.geometry.rows_per_bank;
    let seed = config.seed ^ point.hc_first;
    let what = format!(
        "{} / {} / {} / mix {}",
        point.defense,
        point.provider.name(),
        point.hc_first,
        mix.id
    );
    let mut problems = Vec::new();

    let recording = Arc::new(RecordingProvider::new(point.provider.clone()));
    let log = Rc::new(RefCell::new(HookLog::default()));
    let hook = RecordingHook::new(
        point.defense.build(recording.clone(), rows, seed),
        Rc::clone(&log),
    );
    let start = Instant::now();
    let split = layers::run_split(mix, config, Box::new(hook), timer_ns);
    let split_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let log = log.take();

    if p.spec.percycle_reference {
        let reference = run_mix_percycle(
            mix,
            config,
            point.defense.build(point.provider.clone(), rows, seed),
        );
        if reference != split.result {
            problems.push(format!("{what}: split loop differs from run_mix_percycle"));
        }
    }
    let (ff, _) = run_mix_with_sink(
        mix,
        config,
        point.defense.build(point.provider.clone(), rows, seed),
        SimMode::FastForward,
        Recorder::new(),
    );
    // This is `run_mix` with a `Recorder`, which adds sink-only metrics, so
    // compare what both sinks share.
    if ff.cycles != split.result.cycles
        || ff.per_core_ipc != split.result.per_core_ipc
        || ff.mem_stats != split.result.mem_stats
    {
        problems.push(format!("{what}: split loop differs from run_mix"));
    }
    let ff_skipped = ff
        .metrics
        .hists
        .get("diag.mem.skip_span")
        .map_or(0, |h| h.sum);

    let replay = layers::replay_defense(
        point.defense,
        &point.provider,
        rows,
        seed,
        &log.events,
        REPLAY_REPS,
    );
    if replay.actions != log.actions || replay.calls != log.calls {
        problems.push(format!(
            "{what}: replay returned {} actions over {} calls, the run {} over {}",
            replay.actions, replay.calls, log.actions, log.calls
        ));
    }

    let lookups = recording.take_lookups();
    let mut totals = LayerTotals::default();
    if let Some(label) = label {
        totals.lookups = lookups.len() as u64;
        if let Some((_, [table, bloom])) = variants
            .iter()
            .find(|((l, hc), _)| l == label && *hc == point.hc_first)
        {
            totals.lookup_replays = lookups.len() as u64;
            totals.table_ns = layers::replay_lookups(table, &lookups, REPLAY_REPS);
            totals.bloom_ns = layers::replay_lookups(bloom, &lookups, REPLAY_REPS);
        }
    }

    let stats = &split.result.mem_stats;
    totals.split_ns = split_ns;
    totals.core_ns = split.core_ns;
    totals.mem_ns = split.mem_ns;
    totals.hook_ns = log.busy_ns + log.calls * timer_ns;
    totals.core_ticks = split.core_ticks;
    totals.mem_ticks = split.mem_ticks;
    totals.llc_hits = split.llc_hits;
    totals.llc_accesses = split.llc_accesses;
    totals.cycles = split.result.cycles;
    totals.activations = stats.activations;
    totals.row_hits = stats.row_hits;
    totals.row_accesses = stats.row_hits + stats.row_misses + stats.row_conflicts;
    totals.preventive_work = stats.preventive_work();
    totals.ff_skipped_cycles = ff_skipped;
    totals.ff_cycles = ff.cycles;
    if let Some(d) = totals.defenses.get_mut(defense_slot(point.defense)) {
        *d = DefenseTotals {
            calls: log.calls,
            actions: log.actions,
            replay_ns: replay.ns,
            replay_calls: replay.calls,
            vacuous_points: 0,
        };
    }
    let normalized = SystemMetrics::compute(alone, &split.result.per_core_ipc).normalized_to(base);
    Ok(TaskOut {
        point: point_index,
        mix: mix_index,
        normalized,
        metrics: split.result.metrics.canonical(),
        totals,
        protective: log.protective,
        problems,
    })
}

fn add_totals(acc: &mut LayerTotals, t: &LayerTotals) {
    acc.split_ns += t.split_ns;
    acc.core_ns += t.core_ns;
    acc.mem_ns += t.mem_ns;
    acc.hook_ns += t.hook_ns;
    acc.core_ticks += t.core_ticks;
    acc.mem_ticks += t.mem_ticks;
    acc.llc_hits += t.llc_hits;
    acc.llc_accesses += t.llc_accesses;
    acc.cycles += t.cycles;
    acc.activations += t.activations;
    acc.row_hits += t.row_hits;
    acc.row_accesses += t.row_accesses;
    acc.preventive_work += t.preventive_work;
    acc.ff_skipped_cycles += t.ff_skipped_cycles;
    acc.ff_cycles += t.ff_cycles;
    acc.lookups += t.lookups;
    acc.lookup_replays += t.lookup_replays;
    acc.table_ns += t.table_ns;
    acc.bloom_ns += t.bloom_ns;
    for (a, b) in acc.defenses.iter_mut().zip(&t.defenses) {
        a.calls += b.calls;
        a.actions += b.actions;
        a.replay_ns += b.replay_ns;
        a.replay_calls += b.replay_calls;
        a.vacuous_points += b.vacuous_points;
    }
}

/// The traced sweep: every task traced on [`THREADS`] workers, then reduced
/// per point exactly as the harness reduces it.
struct Traced {
    lines: Vec<String>,
    totals: LayerTotals,
    problems: Vec<String>,
}

fn trace_round(p: &Prepared, profiler: &Profiler) -> Result<Traced, String> {
    let config = p.harness.config();
    let mixes = p.harness.mixes();
    let refs = references(mixes, config);
    let variants = storage_variants(p);
    let timer_ns = layers::timer_overhead_ns();
    let tasks: Vec<(usize, usize)> = (0..p.points.len())
        .flat_map(|pt| (0..mixes.len()).map(move |m| (pt, m)))
        .collect();
    let next = AtomicUsize::new(0);
    let results: Vec<Result<Vec<TaskOut>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(&(pt, m)) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let t0 = profiler.now_us();
                        mine.push(trace_task(p, &refs, &variants, timer_ns, pt, m)?);
                        let arg = ((pt as u64) << 32) | m as u64;
                        profiler.record(spans::TASK, t0, profiler.now_us().saturating_sub(t0), arg);
                    }
                    Ok(mine)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("trace worker panicked".to_string()))
            })
            .collect()
    });
    let mut outs = Vec::new();
    for r in results {
        outs.extend(r?);
    }
    outs.sort_by_key(|o| (o.point, o.mix));
    if outs.len() != tasks.len() {
        return Err(format!("traced {} of {} tasks", outs.len(), tasks.len()));
    }

    let mut totals = LayerTotals::default();
    let mut problems = Vec::new();
    let mut lines = Vec::new();
    let n = mixes.len() as f64;
    for (pt, point) in p.points.iter().enumerate() {
        let mine: Vec<&TaskOut> = outs.iter().filter(|o| o.point == pt).collect();
        let mut sums = SystemMetrics {
            weighted_speedup: 0.0,
            harmonic_speedup: 0.0,
            max_slowdown: 0.0,
        };
        let mut metrics = MetricsSnapshot::default();
        let mut protective = 0;
        for o in &mine {
            sums.weighted_speedup += o.normalized.weighted_speedup;
            sums.harmonic_speedup += o.normalized.harmonic_speedup;
            sums.max_slowdown += o.normalized.max_slowdown;
            metrics.merge(&o.metrics);
            protective += o.protective;
            add_totals(&mut totals, &o.totals);
            problems.extend(o.problems.iter().cloned());
        }
        if protective == 0 {
            if let Some(d) = totals.defenses.get_mut(defense_slot(point.defense)) {
                d.vacuous_points += 1;
            }
        }
        let evaluated = EvaluationPoint {
            defense: point.defense,
            provider: point.provider.name().to_string(),
            hc_first: point.hc_first,
            normalized: SystemMetrics {
                weighted_speedup: sums.weighted_speedup / n,
                harmonic_speedup: sums.harmonic_speedup / n,
                max_slowdown: sums.max_slowdown / n,
            },
        };
        lines.push(render(&evaluated, &metrics));
    }
    Ok(Traced {
        lines,
        totals,
        problems,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: one set-up, one untraced sweep (the digest reference),
/// one profiled sweep (`system.*` and the overhead reference), one traced
/// sweep with stream replays. Writes the span trace to `trace_path`.
pub fn run_traced(spec: &SweepSpec, trace_path: &std::path::Path) -> Result<Report, String> {
    let mut report = Report::default();
    let profiler = Profiler::new(svard_obs::DEFAULT_SPAN_CAPACITY);
    let t0 = profiler.now_us();
    let p = prepare(spec, THREADS, profiler.clone())?;
    profiler.record(spans::SETUP, t0, profiler.now_us().saturating_sub(t0), 0);
    report.note(describe(&p, THREADS));
    report.set("vulnerability.profile_gen_s", "s", p.profile_gen_s);
    report.set("core.build_s", "s", p.core_build_s);
    for phase in p.harness.prep_profile() {
        match phase.phase {
            "alone_runs" => report.set("system.alone_s", "s", phase.wall_seconds),
            "baseline_runs" => report.set("system.baseline_s", "s", phase.wall_seconds),
            _ => {}
        }
    }

    let t0 = profiler.now_us();
    let plain = plain_round(&p, None)?;
    profiler.record(spans::ROUND, t0, profiler.now_us().saturating_sub(t0), 0);
    report.attempted += p.points.len() as u64;
    for problem in plain.problems {
        report.problem(problem);
    }

    let (profiled, profile) = p.harness.evaluate_all_profiled(&p.points);
    report.set("system.sweep_s", "s", profile.wall_seconds);
    report.set("system.tasks", "count", profile.tasks as f64);
    report.set("system.worker_utilization", "ratio", profile.utilization());
    if profiled != plain.points {
        report.problem("evaluate_all_profiled disagrees with evaluate_all_streamed".to_string());
    }

    let t0 = profiler.now_us();
    let traced = trace_round(&p, &profiler)?;
    profiler.record(
        spans::TRACED_ROUND,
        t0,
        profiler.now_us().saturating_sub(t0),
        0,
    );
    for problem in traced.problems {
        report.problem(problem);
    }
    // The traced run's output must repeat the untraced run's.
    report.check_repeat(report::digest(plain.lines.iter().map(String::as_str)));
    report.check_repeat(report::digest(traced.lines.iter().map(String::as_str)));
    let t = &traced.totals;
    // Task time of the traced simulations over that of the profiled harness
    // sweep; the reference runs and replays that follow each traced
    // simulation are checks, not tracing overhead, and are left out.
    report.set(
        "trace.overhead_ratio",
        "ratio",
        t.split_ns as f64 / 1e9 / profile.busy_seconds,
    );

    report.set("cpusim.tick_calls", "count", t.core_ticks as f64);
    report.set("cpusim.busy_s", "s", t.core_ns as f64 / 1e9);
    report.set(
        "cpusim.llc_hit_rate",
        "ratio",
        ratio(t.llc_hits, t.llc_accesses),
    );
    let mem_busy_ns = t.mem_ns.saturating_sub(t.hook_ns);
    report.set("memsim.tick_calls", "count", t.mem_ticks as f64);
    report.set("memsim.busy_s", "s", mem_busy_ns as f64 / 1e9);
    report.set(
        "memsim.ns_per_sim_cycle",
        "ns",
        ratio(mem_busy_ns, t.cycles),
    );
    report.set("memsim.activations", "count", t.activations as f64);
    report.set(
        "memsim.row_hit_rate",
        "ratio",
        ratio(t.row_hits, t.row_accesses),
    );
    report.set("memsim.preventive_work", "count", t.preventive_work as f64);
    report.set(
        "memsim.ff_skipped_cycle_frac",
        "ratio",
        ratio(t.ff_skipped_cycles, t.ff_cycles),
    );
    for (defense, d) in DefenseKind::ALL.iter().zip(&t.defenses) {
        let key = defense_key(*defense);
        report.set(&format!("defenses.{key}.calls"), "count", d.calls as f64);
        report.set(
            &format!("defenses.{key}.actions"),
            "count",
            d.actions as f64,
        );
        report.set(
            &format!("defenses.{key}.replay_ns_per_call"),
            "ns",
            ratio(d.replay_ns, d.replay_calls),
        );
        report.set(
            &format!("defenses.{key}.vacuous_points"),
            "count",
            d.vacuous_points as f64,
        );
    }
    report.set("core.lookup_calls", "count", t.lookups as f64);
    report.set(
        "core.lookup_replay_ns_per_call.controller_table",
        "ns",
        ratio(t.table_ns, t.lookup_replays),
    );
    report.set(
        "core.lookup_replay_ns_per_call.bloom",
        "ns",
        ratio(t.bloom_ns, t.lookup_replays),
    );
    spans::write_chrome_trace(&profiler, trace_path, &mut report)?;
    Ok(report)
}
