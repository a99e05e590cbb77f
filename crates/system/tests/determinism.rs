//! Double-run determinism regression: the same defense configuration simulated
//! twice must produce bit-identical results — per-core IPC, every `MemStats`
//! counter, and the cycle count.
//!
//! This is the dynamic counterpart of `svard-lint`'s static `determinism`
//! rule. It exists because Hydra's RCC eviction once took `min_by_key` over a
//! `HashMap` iteration: the LRU tie-break then depended on hasher state, so
//! two runs of the identical configuration could evict different rows and
//! diverge. The static rule now rejects that pattern; this test catches any
//! hazard class the lexical heuristics miss.

use std::sync::Arc;

use svard_cpusim::workload::{WorkloadMix, WorkloadSpec};
use svard_defenses::provider::{SharedThresholdProvider, UniformThreshold};
use svard_defenses::DefenseKind;
use svard_memsim::NoMitigation;
use svard_system::runner::{run_mix, run_mix_percycle};
use svard_system::{EvaluationHarness, SimMode, SweepPoint, SystemConfig};

fn small_config() -> svard_system::SystemConfig {
    let mut config = SystemConfig::tiny();
    config.memory.geometry.rows_per_bank = 512;
    config
}

/// Every `DefenseKind`, run twice from identical inputs, yields an identical
/// `RunResult` (which includes `MemStats` field by field).
#[test]
fn every_defense_is_deterministic_across_runs() {
    let config = small_config();
    let mix = &WorkloadMix::generate(1, config.cores, 77)[0];
    let rows = config.memory.geometry.rows_per_bank;

    for defense in DefenseKind::ALL {
        // A tight threshold keeps the defense busy enough to exercise its
        // tracker state (Hydra's RCC eviction needs > group-threshold traffic).
        let provider = Arc::new(UniformThreshold::new(48));
        let first = run_mix(mix, &config, defense.build(provider.clone(), rows, 7));
        let second = run_mix(mix, &config, defense.build(provider.clone(), rows, 7));
        assert_eq!(
            first, second,
            "{defense}: two runs of the same configuration diverged"
        );
        assert!(first.cycles > 0, "{defense}: simulation did not run");
    }
}

/// Determinism also holds across the two simulation modes: fast-forwarding is
/// not allowed to change results, only wall-clock time. The attacker-only mix
/// covers the throttle stall fast-forward exists to skip: BlockHammer
/// throttles every core until the cycle cap.
#[test]
fn fastforward_and_percycle_agree_for_every_defense() {
    let mut config = small_config();
    config.max_cycles = 200_000;
    let benign = WorkloadMix::generate(1, config.cores, 78).remove(0);
    let attack = WorkloadMix::adversarial(WorkloadSpec::adversarial_rrs(), config.cores);
    let rows = config.memory.geometry.rows_per_bank;

    for (label, mix) in [("benign", &benign), ("adversarial_rrs", &attack)] {
        for defense in DefenseKind::ALL {
            let provider = Arc::new(UniformThreshold::new(48));
            let fast = run_mix(mix, &config, defense.build(provider.clone(), rows, 9));
            let reference =
                run_mix_percycle(mix, &config, defense.build(provider.clone(), rows, 9));
            assert_eq!(fast, reference, "{label} {defense}: fast-forward diverged");
            let capped = label == "adversarial_rrs" && defense == DefenseKind::BlockHammer;
            assert_eq!(
                fast.cycles == config.max_cycles,
                capped,
                "{label} {defense}: only BlockHammer on the attack runs to the cycle cap"
            );
        }
    }
}

/// `small_config` with 4-entry read and write queues, so cores regularly find
/// their queue full and hold a rejected request.
fn tiny_queue_config(cores: usize) -> SystemConfig {
    let mut config = small_config().with_cores(cores);
    config.memory.read_queue_entries = 4;
    config.memory.write_queue_entries = 4;
    config.memory.write_drain_high = 3;
    config.memory.write_drain_low = 1;
    config
}

/// Fast-forward parks a core after a stalled tick and wakes it on its own
/// completion or on a freed queue slot. With 4-entry queues most stalls are
/// rejected requests, so every wake path carries the run.
#[test]
fn parked_cores_wake_on_freed_queue_slots() {
    let config = tiny_queue_config(4);
    let rows = config.memory.geometry.rows_per_bank;
    let benign = WorkloadMix::generate(1, config.cores, 79).remove(0);
    let attack = WorkloadMix::adversarial(WorkloadSpec::adversarial_rrs(), config.cores);
    for (label, mix) in [("benign", &benign), ("adversarial_rrs", &attack)] {
        for defense in [DefenseKind::Para, DefenseKind::Hydra] {
            let provider = Arc::new(UniformThreshold::new(48));
            let fast = run_mix(mix, &config, defense.build(provider.clone(), rows, 5));
            let reference = run_mix_percycle(mix, &config, defense.build(provider, rows, 5));
            assert!(
                fast.cycles < config.max_cycles,
                "{label} {defense}: run hit the cycle cap"
            );
            assert_eq!(fast, reference, "{label} {defense}: parked run diverged");
        }
    }
}

/// Cores that finish early stop being ticked while the rest keep running; the
/// finished cores' IPC and the stragglers' must both match per-cycle ticking.
#[test]
fn parked_cores_match_percycle_when_cores_finish_at_different_cycles() {
    let config = small_config().with_cores(4);
    let catalogue = WorkloadSpec::catalogue();
    let pick = |name: &str| {
        catalogue
            .iter()
            .find(|w| w.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("{name} is not in the catalogue"))
    };
    let mix = WorkloadMix {
        id: 0,
        workloads: vec![
            pick("mediabench-jpeg-like"),
            pick("spec17-lbm-like"),
            pick("spec06-gcc-like"),
            pick("ycsb-a-like"),
        ],
    };
    let fast = run_mix(&mix, &config, Box::new(NoMitigation));
    let reference = run_mix_percycle(&mix, &config, Box::new(NoMitigation));
    assert!(fast.cycles < config.max_cycles, "run hit the cycle cap");
    // Equal instruction budgets, so distinct IPCs mean distinct finish cycles.
    let mut ipcs = fast.per_core_ipc.clone();
    ipcs.sort_by(f64::total_cmp);
    ipcs.dedup();
    assert_eq!(ipcs.len(), config.cores, "cores finished together");
    assert_eq!(fast, reference, "parked run diverged");
}

/// A run cut by the cycle cap while cores sit parked on full queues: the
/// parked cores' missed cycles are credited at the end, so their IPC matches.
#[test]
fn parked_cores_are_credited_at_the_cycle_cap() {
    let mut config = tiny_queue_config(4);
    config.max_cycles = 20_000;
    let mix = WorkloadMix::adversarial(WorkloadSpec::adversarial_rrs(), config.cores);
    let fast = run_mix(&mix, &config, Box::new(NoMitigation));
    let reference = run_mix_percycle(&mix, &config, Box::new(NoMitigation));
    assert_eq!(fast.cycles, config.max_cycles, "run did not reach the cap");
    assert_eq!(fast, reference, "capped parked run diverged");
}

/// The traced harness emits a byte-identical canonical event stream for every
/// defense — across repeated runs, for any worker-thread count, and between
/// fast-forward and per-cycle simulation. Fast-forward-only skip events are
/// diagnostic and never enter the canonical stream, which is what makes the
/// cross-mode byte equality possible.
#[test]
fn traced_sweep_is_byte_identical_across_runs_threads_and_modes() {
    let config = small_config();
    let mixes = WorkloadMix::generate(2, config.cores, 81);
    let points: Vec<SweepPoint> = DefenseKind::ALL
        .iter()
        .map(|&defense| SweepPoint {
            defense,
            provider: Arc::new(UniformThreshold::new(48)) as SharedThresholdProvider,
            hc_first: 48,
        })
        .collect();
    let harness = |threads: usize, mode: SimMode| {
        EvaluationHarness::with_threads_and_mode(config.clone(), mixes.clone(), threads, mode)
    };

    let reference = harness(1, SimMode::FastForward);
    let (results, trace) = reference.evaluate_all_traced(&points);
    assert!(!trace.is_empty());
    for defense in DefenseKind::ALL {
        assert!(
            trace.contains(&format!("\"defense\":\"{defense}\"")),
            "{defense}: no trace section emitted"
        );
    }
    // Double run on the same harness.
    let (results_again, trace_again) = reference.evaluate_all_traced(&points);
    assert_eq!(results, results_again, "double run: results diverged");
    assert_eq!(trace, trace_again, "double run: trace diverged");
    // Any worker-thread count.
    for threads in [2, 8] {
        let (r, t) = harness(threads, SimMode::FastForward).evaluate_all_traced(&points);
        assert_eq!(results, r, "{threads} threads: results diverged");
        assert_eq!(trace, t, "{threads} threads: trace diverged");
    }
    // Fast-forward vs per-cycle reference semantics.
    let (r, t) = harness(1, SimMode::PerCycle).evaluate_all_traced(&points);
    assert_eq!(results, r, "per-cycle: results diverged");
    assert_eq!(trace, t, "per-cycle: trace diverged");
}

/// Wall-clock span recording lives outside the simulated clock domain, so an
/// instrumented harness (spans kept in a live `Profiler`) must produce the
/// same results and the same canonical trace JSONL, byte for byte, as one
/// with span storage fully disabled.
#[test]
fn span_instrumentation_never_perturbs_results_or_the_canonical_trace() {
    use svard_obs::Profiler;

    let config = small_config();
    let mixes = WorkloadMix::generate(2, config.cores, 83);
    let points: Vec<SweepPoint> = DefenseKind::ALL
        .iter()
        .map(|&defense| SweepPoint {
            defense,
            provider: Arc::new(UniformThreshold::new(48)) as SharedThresholdProvider,
            hc_first: 48,
        })
        .collect();

    let dark = EvaluationHarness::with_threads_mode_profiler(
        config.clone(),
        mixes.clone(),
        2,
        SimMode::FastForward,
        Profiler::disabled(),
    );
    let instrumented = EvaluationHarness::with_threads_mode_profiler(
        config,
        mixes,
        2,
        SimMode::FastForward,
        Profiler::new(1024),
    );

    let (dark_results, dark_trace) = dark.evaluate_all_traced(&points);
    let (inst_results, inst_trace) = instrumented.evaluate_all_traced(&points);
    assert_eq!(dark_results, inst_results, "results diverged under spans");
    assert_eq!(
        dark_trace, inst_trace,
        "canonical trace JSONL is not byte-identical under span instrumentation"
    );

    // And the instrumented harness really did record spans — the guarantee
    // above is not vacuous. Construction records phase and per-task prep
    // spans; the profiled sweep path records its phase span plus one
    // `harness.sim_task` per (point, mix) and yields the same results again.
    let (profiled_results, _) = instrumented.evaluate_all_profiled(&points);
    assert_eq!(dark_results, profiled_results, "profiled sweep diverged");
    let spans = instrumented.profiler().snapshot_spans();
    for name in [
        "harness.alone_runs",
        "harness.alone_run",
        "harness.baseline_runs",
        "harness.baseline_run",
        "harness.sweep",
        "harness.sim_task",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no {name} spans recorded"
        );
    }
    // The harness passes span names through a helper, where the lint's
    // metric-name rule cannot see them, so check the catalogue here.
    let catalog = include_str!("../../obs/README.md");
    for span in &spans {
        assert!(
            catalog.contains(&format!("`{}`", span.name)),
            "span {} is not in the obs catalogue",
            span.name
        );
    }
}

/// An untraced sweep replays a mix's baseline hook stream into each point's
/// defense and skips simulating the tasks whose defense never acts; a traced
/// sweep simulates every task. For every defense under the uniform threshold
/// and both Svärd storages, at a high and a low `HC_first`, the two agree
/// point for point, and each task's canonical snapshot equals that of a
/// direct `run_mix`. Each harness holds one mix, so a point's snapshot is
/// its one task's.
#[test]
fn replayed_tasks_match_full_simulation_for_every_defense_and_provider() {
    use svard_core::{StorageKind, Svard};
    use svard_obs::{MetricsSnapshot, Profiler};
    use svard_vulnerability::{ModuleSpec, ProfileGenerator};

    let config = small_config().with_cores(4).with_instructions(20_000);
    let rows = config.memory.geometry.rows_per_bank;
    let profile = ProfileGenerator::new(85).generate(&ModuleSpec::s0().scaled(rows), 1);
    let mut points = Vec::new();
    for defense in DefenseKind::ALL {
        for hc_first in [4096, 64] {
            let svard =
                |storage| Svard::build_with_storage(&profile, hc_first, 16, storage).provider();
            let providers: [SharedThresholdProvider; 3] = [
                Arc::new(UniformThreshold::new(hc_first)),
                svard(StorageKind::ControllerTable),
                svard(StorageKind::BloomCompressed),
            ];
            for provider in providers {
                points.push(SweepPoint {
                    defense,
                    provider,
                    hc_first,
                });
            }
        }
    }
    let profiler = Profiler::new(1024);
    let count = |name: &str| {
        let spans = profiler.snapshot_spans();
        spans.iter().filter(|s| s.name == name).count()
    };
    let (mut replayed, mut simulated) = (0, 0);
    for mix in WorkloadMix::generate(2, config.cores, 85) {
        let harness = EvaluationHarness::with_threads_mode_profiler(
            config.clone(),
            vec![mix.clone()],
            2,
            SimMode::FastForward,
            profiler.clone(),
        );
        let snapshots = std::sync::Mutex::new(vec![MetricsSnapshot::default(); points.len()]);
        let before = (count("harness.replay_task"), count("harness.sim_task"));
        let (streamed, _) = harness.evaluate_all_streamed(&points, |p, _, metrics| {
            if let Some(slot) = snapshots.lock().unwrap().get_mut(p) {
                *slot = metrics.clone();
            }
            true
        });
        replayed += count("harness.replay_task") - before.0;
        simulated += count("harness.sim_task") - before.1;
        let streamed: Vec<_> = streamed.into_iter().flatten().collect();
        let (traced, _) = harness.evaluate_all_traced(&points);
        assert_eq!(streamed, traced, "mix {}: replayed sweep diverged", mix.id);
        let snapshots = snapshots.into_inner().unwrap();
        for (point, snapshot) in points.iter().zip(&snapshots) {
            let hook =
                point
                    .defense
                    .build(point.provider.clone(), rows, config.seed ^ point.hc_first);
            let direct = run_mix(&mix, &config, hook).metrics.canonical();
            assert_eq!(
                snapshot,
                &direct,
                "mix {} {} {} {}: snapshot differs from run_mix",
                mix.id,
                point.defense,
                point.provider.name(),
                point.hc_first
            );
        }
    }
    // One span per untraced task, and both paths ran, so neither
    // comparison above is vacuous.
    assert_eq!(replayed + simulated, 2 * points.len());
    assert!(
        replayed > 0 && simulated > 0,
        "{replayed} tasks replayed, {simulated} simulated"
    );
}

/// A fresh `WorkloadMix` from the same seed is identical — the workload
/// generator itself is part of the deterministic contract.
#[test]
fn workload_generation_is_deterministic() {
    let a = WorkloadMix::generate(3, 4, 1234);
    let b = WorkloadMix::generate(3, 4, 1234);
    assert_eq!(a.len(), b.len());
    for (ma, mb) in a.iter().zip(&b) {
        assert_eq!(ma.workloads.len(), mb.workloads.len());
        for (wa, wb) in ma.workloads.iter().zip(&mb.workloads) {
            assert_eq!(format!("{wa:?}"), format!("{wb:?}"));
        }
    }
}

/// Fast-forward parks a core on the tick that stalls it and wakes rejected
/// cores only up to their queue's free slots; both must leave every result
/// equal to per-cycle ticking. The grid drives queues down to one read slot,
/// and an MSHR limit of 1 or 2, the only one at which a cached core fills its
/// MSHRs at these MPKIs, across benign, attacker and mixed workloads under
/// every defense and none.
#[test]
fn fastforward_matches_percycle_across_queue_and_mshr_limits() {
    let base = small_config().with_cores(8).with_instructions(3_000);
    let rows = base.memory.geometry.rows_per_bank;
    let mixes = [
        ("benign", WorkloadMix::generate(1, base.cores, 80).remove(0)),
        (
            "adversarial_rrs",
            WorkloadMix::adversarial(WorkloadSpec::adversarial_rrs(), base.cores),
        ),
        (
            "hydra_with_zipf",
            WorkloadMix::adversarial_with_background(
                WorkloadSpec::adversarial_hydra(),
                WorkloadSpec::zipf(1.0),
                base.cores,
            ),
        ),
    ];
    for read_queue in [1, 2, 4, 64] {
        for write_queue in [2, 64] {
            for mshrs in [1, 2] {
                let mut config = base.clone();
                config.max_cycles = 50_000;
                config.memory.read_queue_entries = read_queue;
                config.memory.write_queue_entries = write_queue;
                // Table 4's 48/16 watermarks at 64 entries, scaled down.
                config.memory.write_drain_high = (write_queue * 3 / 4).max(1);
                config.memory.write_drain_low = write_queue / 4;
                config.core.max_outstanding_misses = mshrs;
                for (label, mix) in &mixes {
                    for defense in DefenseKind::ALL.map(Some).into_iter().chain([None]) {
                        let hook = || match defense {
                            Some(kind) => kind.build(Arc::new(UniformThreshold::new(48)), rows, 3),
                            None => Box::new(NoMitigation),
                        };
                        let fast = run_mix(mix, &config, hook());
                        let reference = run_mix_percycle(mix, &config, hook());
                        assert_eq!(
                            fast, reference,
                            "{label} {defense:?}, queues {read_queue}/{write_queue}, \
                             {mshrs} MSHRs: fast-forward diverged"
                        );
                    }
                }
            }
        }
    }
}
