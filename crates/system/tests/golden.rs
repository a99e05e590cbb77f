//! Golden-output regression: pins the absolute output of a small traced sweep.
//!
//! Every other harness test compares one evaluation path against another
//! (streamed vs batch, N threads vs 1, fast-forward vs per-cycle), so a change
//! that shifts every path the same way passes them all. This test hashes the
//! `{:?}` rendering of every [`EvaluationPoint`] plus the canonical trace
//! JSONL and compares it with a constant. If a change is *meant* to alter
//! simulation results, update the constant and say why in the change log.

use std::sync::Arc;

use svard_core::Svard;
use svard_cpusim::workload::WorkloadMix;
use svard_defenses::provider::{SharedThresholdProvider, UniformThreshold};
use svard_defenses::DefenseKind;
use svard_system::{EvaluationHarness, EvaluationPoint, SimMode, SweepPoint, SystemConfig};
use svard_vulnerability::{ModuleSpec, ProfileGenerator};

/// FNV-1a digest of the sweep below, captured before the harness's sweep
/// entry points were folded into one core.
const GOLDEN_DIGEST: u64 = 0x155f_9b2a_6bf1_3edc;

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

#[test]
fn traced_sweep_matches_the_golden_digest() {
    let mut config = SystemConfig::tiny();
    config.memory.geometry.rows_per_bank = ROWS;
    let mixes = WorkloadMix::generate(2, config.cores, 91);
    let profile = ProfileGenerator::new(91).generate(&ModuleSpec::s0().scaled(ROWS), 1);
    let providers: [SharedThresholdProvider; 2] = [
        Arc::new(UniformThreshold::new(HC_FIRST)),
        Svard::build(&profile, HC_FIRST, 16).provider(),
    ];
    let points: Vec<SweepPoint> = DefenseKind::ALL
        .iter()
        .flat_map(|&defense| {
            providers.iter().map(move |provider| SweepPoint {
                defense,
                provider: provider.clone(),
                hc_first: HC_FIRST,
            })
        })
        .collect();
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
