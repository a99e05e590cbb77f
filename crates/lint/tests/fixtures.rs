//! Per-rule fixture tests: each file under `tests/fixtures/` carries known
//! offending (or deliberately clean) lines, and the assertions are exact —
//! rule and line number, not just a count.

use std::path::Path;

use svard_lint::{analyze_source, FileClass, FileReport, LintConfig};

const SIM: FileClass = FileClass {
    sim_crate: true,
    count_panics: false,
};
const LIB: FileClass = FileClass {
    sim_crate: false,
    count_panics: true,
};
const BOTH: FileClass = FileClass {
    sim_crate: true,
    count_panics: true,
};

fn analyze_fixture_with(name: &str, class: FileClass, config: &LintConfig) -> FileReport {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    analyze_source(name, &source, class, config)
}

fn analyze_fixture(name: &str, class: FileClass) -> FileReport {
    analyze_fixture_with(name, class, &LintConfig::default())
}

fn lines_for(report: &FileReport, rule: &str) -> Vec<u32> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn determinism_fixture_flags_exactly_the_marked_lines() {
    let report = analyze_fixture("determinism.rs", SIM);
    assert_eq!(
        lines_for(&report, "determinism"),
        // Forbidden calls are reported before order-dependent reductions.
        vec![8, 12, 17, 34, 38, 21],
        "full report: {:#?}",
        report.diagnostics
    );
    // The `unsafe` inside a string literal must not trip the no-unsafe rule.
    assert!(lines_for(&report, "no-unsafe").is_empty());
    assert!(lines_for(&report, "bad-directive").is_empty());
}

#[test]
fn determinism_rule_is_scoped_to_sim_crates() {
    let report = analyze_fixture("determinism.rs", LIB);
    assert!(lines_for(&report, "determinism").is_empty());
}

#[test]
fn panic_fixture_counts_exactly_the_marked_sites() {
    let report = analyze_fixture("panic.rs", LIB);
    let sites: Vec<(u32, &str)> = report
        .panic_sites
        .iter()
        .map(|s| (s.line, s.what))
        .collect();
    assert_eq!(
        sites,
        vec![
            (5, "unwrap()"),
            (6, "expect()"),
            (8, "panic!"),
            (10, "indexing"),
        ]
    );
}

#[test]
fn panic_sites_are_not_counted_outside_library_code() {
    let report = analyze_fixture("panic.rs", SIM);
    assert!(report.panic_sites.is_empty());
}

#[test]
fn hot_path_fixture_flags_allocations_inside_the_fence_only() {
    let report = analyze_fixture("hot_path.rs", LIB);
    assert_eq!(
        lines_for(&report, "hot-path-alloc"),
        vec![12, 13, 14],
        "full report: {:#?}",
        report.diagnostics
    );
}

#[test]
fn unsafe_fixture_flags_the_block_but_not_strings_or_comments() {
    let report = analyze_fixture("unsafe_code.rs", LIB);
    assert_eq!(lines_for(&report, "no-unsafe"), vec![5]);
}

#[test]
fn reasonless_suppression_is_an_error_and_does_not_suppress() {
    let report = analyze_fixture("bad_directive.rs", LIB);
    assert_eq!(lines_for(&report, "bad-directive"), vec![5]);
    // The malformed directive must not silence the site below it.
    assert_eq!(
        report
            .panic_sites
            .iter()
            .map(|s| s.line)
            .collect::<Vec<_>>(),
        vec![6]
    );
}

#[test]
fn obs_recording_is_clean_but_wall_clock_timer_is_flagged_in_sim_crates() {
    let report = analyze_fixture("obs_wallclock.rs", SIM);
    assert_eq!(
        lines_for(&report, "determinism"),
        vec![13],
        "only the WallTimer::start span timer should be flagged: {:#?}",
        report.diagnostics
    );
}

#[test]
fn obs_wall_clock_timer_is_allowed_outside_sim_crates() {
    let report = analyze_fixture("obs_wallclock.rs", LIB);
    assert!(lines_for(&report, "determinism").is_empty());
}

#[test]
fn server_crate_is_classified_non_sim_and_may_use_the_wall_clock() {
    // `crates/server` is declared in `non_sim` (lint.toml), so `classify`
    // must not mark it a sim crate, and the determinism rule must stay quiet
    // over server code that reads the wall clock and the core count.
    let config = LintConfig::default();
    assert!(config.non_sim_crates.contains(&"server".to_string()));
    let class = svard_lint::classify("crates/server/src/server.rs", &config);
    assert!(!class.sim_crate);
    assert!(class.count_panics);

    let report = analyze_fixture("server_nonsim.rs", class);
    assert!(
        lines_for(&report, "determinism").is_empty(),
        "non-sim server code wrongly flagged: {:#?}",
        report.diagnostics
    );
}

#[test]
fn server_style_wall_clock_use_is_flagged_in_sim_crates() {
    let report = analyze_fixture("server_nonsim.rs", SIM);
    assert_eq!(
        lines_for(&report, "determinism"),
        vec![7, 13],
        "full report: {:#?}",
        report.diagnostics
    );
}

#[test]
fn metric_name_fixture_flags_malformed_names_outside_tests() {
    // Default config: the catalog is empty, so only the well-formedness half
    // of the rule runs. Line 12 is suppressed; the test module is exempt.
    let report = analyze_fixture("metric_name.rs", LIB);
    assert_eq!(
        lines_for(&report, "metric-name"),
        vec![7, 9, 10, 14],
        "full report: {:#?}",
        report.diagnostics
    );
}

#[test]
fn metric_name_fixture_flags_undocumented_names_when_a_catalog_is_set() {
    let config = LintConfig {
        metric_catalog: ["mem.reads", "server.queue_depth", "server.queue_wait"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..LintConfig::default()
    };
    let report = analyze_fixture_with("metric_name.rs", LIB, &config);
    assert_eq!(
        lines_for(&report, "metric-name"),
        vec![7, 8, 9, 10, 14],
        "line 8 is well-formed but undocumented: {:#?}",
        report.diagnostics
    );
}

#[test]
fn metric_name_rule_can_be_disabled() {
    let mut config = LintConfig::default();
    config.rules.insert("metric-name".to_string(), false);
    let report = analyze_fixture_with("metric_name.rs", LIB, &config);
    assert!(lines_for(&report, "metric-name").is_empty());
}

#[test]
fn clean_fixture_produces_no_findings_under_every_rule() {
    let report = analyze_fixture("clean.rs", BOTH);
    assert!(
        report.diagnostics.is_empty(),
        "unexpected findings: {:#?}",
        report.diagnostics
    );
    assert!(report.panic_sites.is_empty());
}
