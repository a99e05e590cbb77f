//! Golden-output regression: pins the absolute output of a small traced sweep.
//!
//! Every other harness test compares one evaluation path against another
//! (streamed vs batch, N threads vs 1, fast-forward vs per-cycle), so a change
//! that shifts every path the same way passes them all. This test hashes the
//! `{:?}` rendering of every [`EvaluationPoint`] plus the canonical trace
//! JSONL and compares it with a constant. If a change is *meant* to alter
//! simulation results, update the constant and say why in the change log.
//!
//! The benign sweep barely wakes BlockHammer, RRS and AQUA, so a second
//! digest pins the attacker mixes, where throttles stall the scheduler and
//! rows are swapped and migrated; it also hashes each point's canonical
//! metrics, which carry the throttle-stall count no trace event records.

use std::sync::Arc;

use svard_core::Svard;
use svard_cpusim::workload::{WorkloadMix, WorkloadSpec};
use svard_defenses::provider::{SharedThresholdProvider, UniformThreshold};
use svard_defenses::DefenseKind;
use svard_obs::MetricsSnapshot;
use svard_system::{EvaluationHarness, EvaluationPoint, SimMode, SweepPoint, SystemConfig};
use svard_vulnerability::{ModuleSpec, ProfileGenerator};

/// FNV-1a digest of the sweep below, captured before the harness's sweep
/// entry points were folded into one core.
const GOLDEN_DIGEST: u64 = 0x155f_9b2a_6bf1_3edc;

/// FNV-1a digest of the adversarial sweep below, captured before the
/// scheduler kept per-bank request tallies.
const ADVERSARIAL_DIGEST: u64 = 0x89e4_f784_b29e_bb6a;

const ROWS: usize = 512;
const HC_FIRST: u64 = 64;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn digest(points: &[EvaluationPoint], trace: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for point in points {
        hash = fnv1a(hash, format!("{point:?}\n").as_bytes());
    }
    fnv1a(hash, trace.as_bytes())
}

/// Every defense under No Svärd and Svärd-S0 at `HC_FIRST`.
fn sweep_points() -> Vec<SweepPoint> {
    let profile = ProfileGenerator::new(91).generate(&ModuleSpec::s0().scaled(ROWS), 1);
    let providers: [SharedThresholdProvider; 2] = [
        Arc::new(UniformThreshold::new(HC_FIRST)),
        Svard::build(&profile, HC_FIRST, 16).provider(),
    ];
    DefenseKind::ALL
        .iter()
        .flat_map(|&defense| {
            providers.iter().map(move |provider| SweepPoint {
                defense,
                provider: provider.clone(),
                hc_first: HC_FIRST,
            })
        })
        .collect()
}

#[test]
fn traced_sweep_matches_the_golden_digest() {
    let mut config = SystemConfig::tiny();
    config.memory.geometry.rows_per_bank = ROWS;
    let mixes = WorkloadMix::generate(2, config.cores, 91);
    let points = sweep_points();
    let harness = EvaluationHarness::with_threads_and_mode(config, mixes, 2, SimMode::FastForward);
    let (results, trace) = harness.evaluate_all_traced(&points);
    assert_eq!(results.len(), points.len());
    assert!(!trace.is_empty());
    let got = digest(&results, &trace);
    assert_eq!(
        got, GOLDEN_DIGEST,
        "sweep output changed: digest {got:#018x}, expected {GOLDEN_DIGEST:#018x}"
    );
}

#[test]
fn adversarial_sweep_matches_the_golden_digest() {
    let mut config = SystemConfig::tiny().with_cores(4);
    config.memory.geometry.rows_per_bank = ROWS;
    // BlockHammer throttles the attackers to the cycle cap; keep it short.
    config.max_cycles = 400_000;
    let mut mixes = vec![
        WorkloadMix::adversarial(WorkloadSpec::adversarial_rrs(), config.cores),
        WorkloadMix::adversarial(WorkloadSpec::adversarial_hydra(), config.cores),
        WorkloadMix::adversarial_with_background(
            WorkloadSpec::adversarial_hydra(),
            WorkloadSpec::zipf(1.0),
            config.cores,
        ),
    ];
    for (id, mix) in mixes.iter_mut().enumerate() {
        mix.id = id;
    }
    let points = sweep_points();
    let harness = EvaluationHarness::with_threads_and_mode(config, mixes, 2, SimMode::FastForward);
    let (results, trace) = harness.evaluate_all_traced(&points);
    assert_eq!(results.len(), points.len());
    // The traced run keeps only events; the untraced one reports each
    // point's canonical metrics.
    let per_point = std::sync::Mutex::new(vec![String::new(); points.len()]);
    let (_, summary) = harness.evaluate_all_streamed(&points, |p, _, metrics: &MetricsSnapshot| {
        if let Some(slot) = per_point.lock().unwrap().get_mut(p) {
            *slot = metrics.to_json();
        }
        true
    });
    for counter in ["mem.throttle_stalls", "mem.row_swaps", "mem.row_migrations"] {
        assert!(
            summary.counter(counter) > 0,
            "{counter} is 0: the sweep no longer exercises it"
        );
    }
    let metrics = per_point.into_inner().unwrap().join("\n");
    let got = digest(&results, &format!("{metrics}\n{trace}"));
    assert_eq!(
        got, ADVERSARIAL_DIGEST,
        "adversarial sweep output changed: digest {got:#018x}, expected {ADVERSARIAL_DIGEST:#018x}"
    );
}
