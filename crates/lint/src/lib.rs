//! `svard-lint`: project-specific static analysis for the Svärd workspace.
//!
//! A dependency-free lint pass over the workspace's Rust sources. It lexes
//! each file with a small hand-rolled lexer (strings, char literals, and
//! comments are skipped correctly — no false positives from string contents)
//! and enforces four rule families:
//!
//! | rule             | scope                | what it catches                       |
//! |------------------|----------------------|---------------------------------------|
//! | `determinism`    | simulation crates    | wall clock / entropy / env inputs and |
//! |                  |                      | order-dependent `HashMap` reductions  |
//! | `panic`          | non-test library code| unwrap/expect/panic!/indexing ratchet |
//! | `hot-path-alloc` | `lint: hot-path`     | allocation in fenced hot regions      |
//! | `no-unsafe`      | workspace-wide       | any `unsafe` token                    |
//! | `crate-class`    | `crates/*`           | crates in neither the sim nor the     |
//! |                  |                      | `non_sim` list of `lint.toml`         |
//! | `metric-name`    | non-test code        | malformed or undocumented metric/span |
//! |                  |                      | names passed to obs recording APIs    |
//!
//! See `crates/lint/README.md` for the rule catalogue, the baseline-ratchet
//! workflow, and the inline suppression syntax.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod directives;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use config::{parse_config, Baseline, LintConfig};
pub use rules::{analyze_source, Diagnostic, FileClass, FileReport, Level, PanicSite};

/// Result of scanning a whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Measured panic-site counts per file (only files with at least one site).
    pub panic_counts: BTreeMap<String, usize>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl WorkspaceReport {
    /// Render the diagnostics as a JSON array (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"level\": \"{}\", \
                 \"message\": \"{}\"}}",
                json_escape(&d.file),
                d.line,
                d.rule,
                match d.level {
                    Level::Error => "error",
                    Level::Warning => "warning",
                },
                json_escape(&d.message)
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The crate name a workspace-relative path belongs to: `crates/<name>/…` →
/// `<name>`, `vendor/<name>/…` → `vendor/<name>`, anything else → `""` (the
/// root crate).
pub fn crate_of(rel_path: &str) -> String {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.first() {
        Some(&"crates") if parts.len() > 1 => parts[1].to_string(),
        Some(&"vendor") if parts.len() > 1 => format!("vendor/{}", parts[1]),
        _ => String::new(),
    }
}

/// Classify a workspace-relative path for analysis.
///
/// * The crate name (see [`crate_of`]) decides whether the determinism rule
///   applies: only crates listed in `sim_crates` are checked. Crates under
///   `crates/` that appear in *neither* `sim_crates` nor `non_sim_crates`
///   are reported by the `crate-class` rule in [`scan_workspace`].
/// * Panic sites are only counted in non-test library code: files under a
///   `src/` directory, excluding `src/bin/`, with `tests/`, `benches/`, and
///   `examples/` trees excluded entirely.
pub fn classify(rel_path: &str, config: &LintConfig) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = crate_of(rel_path);
    let sim_crate = config.sim_crates.contains(&crate_name);
    let in_src = parts.contains(&"src");
    let in_nonlib = parts
        .iter()
        .any(|p| matches!(*p, "bin" | "tests" | "benches" | "examples" | "fixtures"));
    FileClass {
        sim_crate,
        count_panics: in_src && !in_nonlib,
    }
}

/// Recursively collect `.rs` files under `root`, honouring the exclude list.
/// Paths are returned sorted, workspace-relative, with `/` separators.
fn collect_rust_files(root: &Path, config: &LintConfig) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let abs = root.join(&rel_dir);
        let mut entries: Vec<_> = std::fs::read_dir(&abs)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        for name in entries {
            if name.starts_with('.') {
                continue;
            }
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel_dir.join(&name)
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if config
                .exclude
                .iter()
                .any(|e| rel_str == *e || rel_str.starts_with(&format!("{e}/")))
            {
                continue;
            }
            let abs_child = root.join(&rel);
            if abs_child.is_dir() {
                stack.push(rel);
            } else if name.ends_with(".rs") {
                files.push(rel_str);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Extract the metric-name catalog from a markdown document: every
/// backtick-quoted dotted name matching `[a-z0-9][a-z0-9_.]*` (the dot
/// requirement keeps ordinary backticked words out of the catalog).
pub fn metric_catalog_from_doc(text: &str) -> Vec<String> {
    let mut names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for chunk in text.split('`').skip(1).step_by(2) {
        let well_formed = chunk.chars().enumerate().all(|(i, c)| {
            c.is_ascii_lowercase() || c.is_ascii_digit() || (i > 0 && (c == '_' || c == '.'))
        });
        if well_formed && chunk.contains('.') && !chunk.is_empty() {
            names.insert(chunk.to_string());
        }
    }
    names.into_iter().collect()
}

/// Scan the workspace rooted at `root` and compare panic counts against the
/// baseline at `config.baseline_path` (a missing baseline file is treated as
/// all-zero, so every panic site errors until one is recorded). When the
/// `metric-name` rule is enabled and no explicit catalog is configured, the
/// catalog is loaded from `config.metric_catalog_path` (a missing document
/// leaves the catalog empty, reducing the rule to its well-formedness half).
pub fn scan_workspace(root: &Path, config: &LintConfig) -> std::io::Result<WorkspaceReport> {
    let mut owned = config.clone();
    if owned.rule_enabled("metric-name") && owned.metric_catalog.is_empty() {
        if let Ok(text) = std::fs::read_to_string(root.join(&owned.metric_catalog_path)) {
            owned.metric_catalog = metric_catalog_from_doc(&text);
        }
    }
    let config = &owned;
    let mut report = WorkspaceReport::default();
    let mut unlisted: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for rel in collect_rust_files(root, config)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let crate_name = crate_of(&rel);
        if rel.starts_with("crates/")
            && !config.sim_crates.contains(&crate_name)
            && !config.non_sim_crates.contains(&crate_name)
        {
            unlisted.insert(crate_name);
        }
        let class = classify(&rel, config);
        let file_report = analyze_source(&rel, &source, class, config);
        report.diagnostics.extend(file_report.diagnostics);
        if !file_report.panic_sites.is_empty() {
            report
                .panic_counts
                .insert(rel.clone(), file_report.panic_sites.len());
        }
        report.files_scanned += 1;
    }

    if config.rule_enabled("crate-class") {
        for name in unlisted {
            report.diagnostics.push(Diagnostic {
                file: format!("crates/{name}"),
                line: 1,
                rule: "crate-class".to_string(),
                message: format!(
                    "crate `{name}` is listed in neither `crates` (simulation, deterministic) \
                     nor `non_sim` (wall clock allowed) under [determinism] in lint.toml; \
                     classify it explicitly"
                ),
                level: Level::Error,
            });
        }
    }

    let baseline_file = root.join(&config.baseline_path);
    let baseline = match std::fs::read_to_string(&baseline_file) {
        Ok(text) => Baseline::parse(&text).unwrap_or_else(|msg| {
            report.diagnostics.push(Diagnostic {
                file: config.baseline_path.clone(),
                line: 1,
                rule: "panic".to_string(),
                message: format!("unreadable baseline: {msg}"),
                level: Level::Error,
            });
            Baseline::default()
        }),
        Err(_) => Baseline::default(),
    };
    ratchet(&mut report, &baseline, config);

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

/// Compare measured panic counts to the baseline: growth is an error, shrink
/// is a warning (record it with `--update-baseline`), stale entries warn too.
fn ratchet(report: &mut WorkspaceReport, baseline: &Baseline, config: &LintConfig) {
    if !config.rule_enabled("panic") {
        return;
    }
    for (file, &count) in &report.panic_counts {
        let allowed = baseline.counts.get(file).copied().unwrap_or(0);
        if count > allowed {
            report.diagnostics.push(Diagnostic {
                file: file.clone(),
                line: 1,
                rule: "panic".to_string(),
                message: format!(
                    "{count} panic-capable sites exceed the baseline of {allowed}; fix them, \
                     or suppress each with `// lint: allow(panic) -- <reason>`"
                ),
                level: Level::Error,
            });
        } else if count < allowed {
            report.diagnostics.push(Diagnostic {
                file: file.clone(),
                line: 1,
                rule: "panic".to_string(),
                message: format!(
                    "panic-capable sites shrank from {allowed} to {count}; lock it in with \
                     `--update-baseline`"
                ),
                level: Level::Warning,
            });
        }
    }
    for (file, &allowed) in &baseline.counts {
        if allowed > 0 && !report.panic_counts.contains_key(file) {
            report.diagnostics.push(Diagnostic {
                file: file.clone(),
                line: 1,
                rule: "panic".to_string(),
                message: format!(
                    "baseline allows {allowed} panic-capable sites but the file now has none \
                     (or was removed); refresh with `--update-baseline`"
                ),
                level: Level::Warning,
            });
        }
    }
}

/// Load `lint.toml` from `root` if present, else the defaults.
pub fn load_config(root: &Path) -> Result<LintConfig, String> {
    let path = root.join("lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => parse_config(&text),
        Err(_) => Ok(LintConfig::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_rules_by_path() {
        let c = LintConfig::default();
        let chip = classify("crates/chip/src/chip.rs", &c);
        assert!(chip.sim_crate);
        assert!(chip.count_panics);

        let bench = classify("crates/bench/src/bin/sweep.rs", &c);
        assert!(!bench.sim_crate);
        assert!(!bench.count_panics);

        let test = classify("crates/memsim/tests/fastforward.rs", &c);
        assert!(test.sim_crate);
        assert!(!test.count_panics);

        let vendor = classify("vendor/rand/src/lib.rs", &c);
        assert!(!vendor.sim_crate);
        assert!(vendor.count_panics);

        let root = classify("src/lib.rs", &c);
        assert!(!root.sim_crate);
        assert!(root.count_panics);
    }

    #[test]
    fn crate_of_extracts_the_owning_crate() {
        assert_eq!(crate_of("crates/server/src/server.rs"), "server");
        assert_eq!(crate_of("vendor/rand/src/lib.rs"), "vendor/rand");
        assert_eq!(crate_of("src/lib.rs"), "");
    }

    #[test]
    fn unlisted_crates_are_a_crate_class_error() {
        let dir = std::env::temp_dir().join(format!("svard-lint-class-{}", std::process::id()));
        let src = dir.join("crates/mystery/src");
        std::fs::create_dir_all(&src).expect("mkdir");
        std::fs::write(src.join("lib.rs"), "pub fn f() {}\n").expect("write");
        let config = LintConfig::default();
        let report = scan_workspace(&dir, &config).expect("scan");
        std::fs::remove_dir_all(&dir).ok();
        let classes: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "crate-class")
            .collect();
        assert_eq!(classes.len(), 1, "{:#?}", report.diagnostics);
        assert_eq!(classes[0].file, "crates/mystery");
        assert_eq!(classes[0].level, Level::Error);

        // Disabling the rule silences it.
        let mut off = LintConfig::default();
        off.rules.insert("crate-class".to_string(), false);
        let src2 = dir.join("crates/mystery/src");
        std::fs::create_dir_all(&src2).expect("mkdir");
        std::fs::write(src2.join("lib.rs"), "pub fn f() {}\n").expect("write");
        let report = scan_workspace(&dir, &off).expect("scan");
        std::fs::remove_dir_all(&dir).ok();
        assert!(report.diagnostics.iter().all(|d| d.rule != "crate-class"));
    }

    #[test]
    fn metric_catalog_extraction_keeps_only_dotted_wellformed_names() {
        let doc = "# Catalog\n\
                   `mem.reads` counts reads. `server.queue_wait_us` waits.\n\
                   Not names: `svard-obs`, `MetricsSnapshot`, `plain`, `Bad.Case`,\n\
                   `.leading`, and code like `let x = 1`.\n\
                   `mem.reads` appears twice but is listed once.\n";
        assert_eq!(
            metric_catalog_from_doc(doc),
            vec!["mem.reads".to_string(), "server.queue_wait_us".to_string()]
        );
    }

    #[test]
    fn json_output_escapes_quotes() {
        let report = WorkspaceReport {
            diagnostics: vec![Diagnostic {
                file: "a.rs".to_string(),
                line: 3,
                rule: "panic".to_string(),
                message: "`unwrap()` found".to_string(),
                level: Level::Error,
            }],
            ..Default::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("\"level\": \"error\""));
    }
}
