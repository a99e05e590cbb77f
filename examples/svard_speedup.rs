//! A miniature Fig. 12 data point: run one multiprogrammed mix under PARA and RRS
//! with and without Svärd at a low worst-case `HC_first`, and print the normalized
//! system metrics.
//!
//! Run with: `cargo run --release --example svard_speedup`

use svard_repro::core::Svard;
use svard_repro::cpusim::workload::WorkloadMix;
use svard_repro::defenses::DefenseKind;
use svard_repro::system::{EvaluationHarness, SweepPoint, SystemConfig};
use svard_repro::vulnerability::{ModuleSpec, ProfileGenerator};

fn main() {
    let hc_first = 128u64;
    let mut config = SystemConfig::table4_scaled().with_instructions(20_000);
    config.memory.geometry.rows_per_bank = 1024;

    println!("preparing workloads and baseline (this takes a few seconds)...");
    let mixes = WorkloadMix::generate(2, config.cores, 11);
    let harness = EvaluationHarness::new(config, mixes);

    let profile = ProfileGenerator::new(11).generate(&ModuleSpec::s0().scaled(1024), 1);
    let svard = Svard::build(&profile, hc_first, 16);

    println!("\ndefense        provider    weighted  harmonic  max-slowdown (norm. to baseline)");
    for defense in [DefenseKind::Para, DefenseKind::Rrs] {
        for (name, provider) in [
            ("No Svärd", svard.baseline_provider()),
            ("Svärd-S0", svard.provider()),
        ] {
            let point = SweepPoint {
                defense,
                provider,
                hc_first,
            };
            for result in harness.evaluate_all(&[point]) {
                println!(
                    "{:<14} {:<11} {:>8.3}  {:>8.3}  {:>12.3}",
                    defense.to_string(),
                    name,
                    result.normalized.weighted_speedup,
                    result.normalized.harmonic_speedup,
                    result.normalized.max_slowdown
                );
            }
        }
    }
    println!("\nHigher weighted/harmonic speedup and lower max slowdown are better;");
    println!("Svärd recovers a large part of the performance the defense gives up.");
}
