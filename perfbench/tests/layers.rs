//! The benchmark's own tests: deterministic per-layer counts repeat exactly
//! for a seed and change with it (so the seed reaches the generators), and
//! the metric lists the program prints match `BENCHMARK.json`.

use std::path::PathBuf;

use perfbench::characterize;
use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::sweep::{self, SweepSpec};
use perfbench::{Args, WORKLOADS};
use svard_defenses::DefenseKind;
use svard_server::json::Json;

/// Per-layer metrics that count work (or are ratios of counts), so they are
/// a pure function of the workload and its seed.
const DETERMINISTIC: &[&str] = &[
    "cpusim.tick_calls",
    "cpusim.llc_hit_rate",
    "memsim.tick_calls",
    "memsim.activations",
    "memsim.row_hit_rate",
    "memsim.preventive_work",
    "memsim.ff_skipped_cycle_frac",
    "defenses.para.calls",
    "defenses.para.actions",
    "defenses.para.vacuous_points",
    "defenses.hydra.calls",
    "defenses.hydra.actions",
    "defenses.hydra.vacuous_points",
    "core.lookup_calls",
    "system.tasks",
];

fn tiny(spec: SweepSpec) -> SweepSpec {
    SweepSpec {
        instructions: 1_500,
        hc_values: vec![64],
        defenses: vec![DefenseKind::Para, DefenseKind::Hydra],
        labels: vec!["S0"],
        ..spec
    }
}

fn traced(spec: &SweepSpec) -> Report {
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{:?}-{}.trace.json", spec.kind, spec.seed));
    let report = sweep::run_traced(spec, &trace).expect("traced run");
    assert!(
        report.correct(),
        "output checks failed: {:?}",
        report.problems
    );
    report
}

fn counts(report: &Report) -> Vec<(&'static str, f64)> {
    DETERMINISTIC
        .iter()
        .map(|&name| (name, report.get(name).expect(name)))
        .collect()
}

#[test]
fn fig12_layer_counts_repeat_for_a_seed_and_change_with_it() {
    let first = counts(&traced(&tiny(SweepSpec::fig12(3))));
    let again = counts(&traced(&tiny(SweepSpec::fig12(3))));
    assert_eq!(first, again);
    assert!(first.iter().all(|(_, v)| v.is_finite()));
    let other = counts(&traced(&tiny(SweepSpec::fig12(4))));
    assert_ne!(
        first, other,
        "a different seed must change the simulated work"
    );
}

#[test]
fn adversarial_layer_counts_repeat_for_a_seed_and_change_with_it() {
    let first = counts(&traced(&tiny(SweepSpec::adversarial(5))));
    let again = counts(&traced(&tiny(SweepSpec::adversarial(5))));
    assert_eq!(first, again);
    let other = counts(&traced(&tiny(SweepSpec::adversarial(6))));
    assert_ne!(
        first, other,
        "a different seed must change the simulated work"
    );
}

#[test]
fn untraced_sweep_output_matches_the_traced_sweep() {
    let spec = tiny(SweepSpec::fig12(7));
    let report = sweep::run_plain(&spec, 0).expect("untraced run");
    assert!(report.correct(), "{:?}", report.problems);
    assert!(report.digest.is_some());
    assert_eq!(report.digest, traced(&spec).digest);
    assert!(report.get("items_per_s").expect("items_per_s") > 0.0);
}

#[test]
fn characterization_repeats_for_a_seed_and_changes_with_it() {
    let run = |seed: u64| {
        let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("characterize-{seed}.trace.json"));
        let report = characterize::run_traced(seed, &trace).expect("traced run");
        assert!(
            report.correct(),
            "output checks failed: {:?}",
            report.problems
        );
        (
            report.digest,
            report.get("bender.rows_characterized"),
            report.get("chip.hammer_bursts"),
        )
    };
    let first = run(3);
    assert_eq!(first, run(3));
    assert_ne!(
        first.0,
        run(4).0,
        "a different seed must change the characterized profiles"
    );
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json");
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn command_line_is_validated() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
    let args = parse("--workload characterize --seed 9 --seconds 3 --trace 1").expect("valid");
    assert_eq!((args.seed, args.seconds, args.trace), (9, 3, true));
    assert!(parse("--workload nope").is_err());
    assert!(parse("--workload all --trace 2").is_err());
    assert!(parse("--workload all --seed").is_err());
}
