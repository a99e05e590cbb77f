//! Fig. 12: performance of AQUA, BlockHammer, Hydra, PARA and RRS with and without
//! Svärd, sweeping the worst-case `HC_first` from 4K down to 64, reported as
//! weighted speedup, harmonic speedup and maximum slowdown normalized to the
//! no-defense baseline.
//!
//! Defaults are scaled down (see `DESIGN.md`): pass `--mixes`, `--instructions`,
//! `--rows` and `--hc-values` to scale up towards the paper's configuration.

use svard_bench::*;
use svard_core::Svard;
use svard_cpusim::workload::WorkloadMix;
use svard_defenses::DefenseKind;
use svard_system::{EvaluationHarness, SimMode, SweepPoint, SystemConfig};
use svard_vulnerability::ModuleSpec;

fn main() {
    banner("Fig. 12", "defense overheads with and without Svärd");
    let mixes = arg_usize("mixes", 3);
    let instructions = arg_u64("instructions", 30_000);
    let rows = arg_usize("rows", 1024);
    let seed = arg_u64("seed", DEFAULT_SEED);
    let hc_values: Vec<u64> = arg_string("hc-values")
        .map(|s| s.split(',').filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_else(|| vec![4096, 1024, 256, 64]);

    let mut config = SystemConfig::table4_scaled().with_instructions(instructions);
    config.memory.geometry.rows_per_bank = rows;
    config.seed = seed;
    if arg_flag("print-config") {
        eprintln!("# Table 4 configuration (scaled): {config:?}");
    }

    let workload_mixes = WorkloadMix::generate(mixes, config.cores, seed);
    eprintln!(
        "# preparing harness: {} mixes x {} cores x {} instructions",
        mixes, config.cores, instructions
    );
    // `--threads N` pins the worker count; results and `--trace` output are
    // bit-identical at any count.
    let threads = match arg_usize("threads", 0) {
        0 => svard_system::parallel::default_threads(),
        n => n,
    };
    let harness = EvaluationHarness::with_threads_and_mode(
        config,
        workload_mixes,
        threads,
        SimMode::FastForward,
    );

    // Per-manufacturer Svärd profiles (S0, M0, H1), plus the No-Svärd baseline.
    let profiles: Vec<_> = ["S0", "M0", "H1"]
        .iter()
        .map(|label| {
            (
                label.to_string(),
                scaled_profile(&ModuleSpec::by_label(label).unwrap(), rows, 1, seed),
            )
        })
        .collect();

    // Build the whole sweep up front and fan it out across cores; the harness
    // seeds every point deterministically, so output order and values match a
    // serial sweep.
    let mut points: Vec<SweepPoint> = Vec::new();
    for defense in DefenseKind::ALL {
        for &hc in &hc_values {
            let reference = Svard::build(&profiles[0].1, hc, 16);
            points.push(SweepPoint {
                defense,
                provider: reference.baseline_provider(),
                hc_first: hc,
            });
            for (_, profile) in &profiles {
                let svard = Svard::build(profile, hc, 16);
                points.push(SweepPoint {
                    defense,
                    provider: svard.provider(),
                    hc_first: hc,
                });
            }
        }
    }
    let labels: Vec<String> = {
        let mut names = vec!["No Svärd".to_string()];
        names.extend(profiles.iter().map(|(label, _)| format!("Svärd-{label}")));
        names
    };

    header(&[
        "defense",
        "provider",
        "hc_first",
        "weighted_speedup",
        "harmonic_speedup",
        "max_slowdown",
    ]);
    // `--trace PATH` records every simulation's canonical event stream as
    // JSON lines; the evaluation results are identical either way.
    let results = if let Some(trace_path) = arg_string("trace") {
        let (results, trace) = harness.evaluate_all_traced(&points);
        std::fs::write(&trace_path, &trace).expect("write trace jsonl");
        eprintln!("# wrote {trace_path} ({} bytes)", trace.len());
        results
    } else {
        harness.evaluate_all(&points)
    };
    for (i, point) in results.into_iter().enumerate() {
        row(&[
            point.defense.to_string(),
            labels[i % labels.len()].clone(),
            point.hc_first.to_string(),
            fmt(point.normalized.weighted_speedup),
            fmt(point.normalized.harmonic_speedup),
            fmt(point.normalized.max_slowdown),
        ]);
    }
}
