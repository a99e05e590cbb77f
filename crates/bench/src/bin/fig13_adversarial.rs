//! Fig. 13: slowdown of Hydra and RRS under adversarial access patterns at a
//! worst-case `HC_first` of 64, with and without Svärd, normalized to the
//! no-Svärd slowdown.
//!
//! `--zipf EXP` replaces the all-adversarial mix with a half-adversarial one:
//! half the cores hammer, the other half run a zipf row-touch workload at
//! exponent `EXP`, modelling an attacker sharing the system with a
//! skewed-popularity victim.

use svard_bench::*;
use svard_cpusim::workload::{WorkloadMix, WorkloadSpec};
use svard_defenses::DefenseKind;
use svard_server::{bridge, GridSpec};
use svard_system::{EvaluationHarness, EvaluationPoint};

fn main() {
    banner(
        "Fig. 13",
        "adversarial access patterns vs. Hydra and RRS at HC_first = 64",
    );
    let attacks = [
        (DefenseKind::Hydra, WorkloadSpec::adversarial_hydra()),
        (DefenseKind::Rrs, WorkloadSpec::adversarial_rrs()),
    ];
    // The grid's own mixes go unused: each defense runs its attacker mix.
    let grid = GridSpec {
        defenses: attacks.iter().map(|(defense, _)| *defense).collect(),
        hc_values: vec![arg_u64("hc", 64)],
        mixes: 1,
        instructions: arg_u64("instructions", 20_000),
        rows: arg_usize("rows", 1024),
        seed: arg_u64("seed", DEFAULT_SEED),
        ..GridSpec::default()
    };
    or_exit(grid.validate());
    let zipf = arg_string("zipf").map(|v| or_exit(parse_arg("zipf", Some(&v), 0.0)));
    let config = bridge::system_config(&grid);
    let points = bridge::sweep_points(&grid);

    let trace_path = arg_string("trace");
    let mut trace_out = String::new();

    // "Slowdown" in Fig. 13 is the performance loss vs. the unprotected
    // baseline; use the inverse of normalized weighted speedup.
    let slowdown = |point: &EvaluationPoint| 1.0 / point.normalized.weighted_speedup.max(1e-6);
    header(&["defense", "provider", "slowdown_norm_to_no_svard"]);
    // One chunk per defense: No Svärd, then Svärd on S0, M0 and H1.
    for ((_, adversary), points) in attacks.into_iter().zip(points.chunks(grid.providers.len())) {
        let mix = match zipf {
            Some(exponent) => WorkloadMix::adversarial_with_background(
                adversary,
                WorkloadSpec::zipf(exponent),
                config.cores,
            ),
            None => WorkloadMix::adversarial(adversary, config.cores),
        };
        let harness = EvaluationHarness::new(config.clone(), vec![mix]);
        let results = if trace_path.is_some() {
            let (results, trace) = harness.evaluate_all_traced(points);
            trace_out.push_str(&trace);
            results
        } else {
            harness.evaluate_all(points)
        };
        let no_svard = slowdown(&results[0]);
        for point in &results {
            row(&[
                point.defense.to_string(),
                point.provider.clone(),
                fmt(slowdown(point) / no_svard),
            ]);
        }
    }
    if let Some(path) = trace_path {
        std::fs::write(&path, &trace_out).expect("write trace jsonl");
        eprintln!("# wrote {path} ({} bytes)", trace_out.len());
    }
}
