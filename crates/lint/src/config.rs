//! `lint.toml` configuration and the panic-ratchet baseline file.
//!
//! The configuration format is a small TOML subset parsed by hand (the tool is
//! dependency-free): `[section]` headers, `key = value` pairs where a value is
//! a boolean, a quoted string, or an array of quoted strings, and `#` comments.

use std::collections::BTreeMap;

/// Tool configuration, normally loaded from `lint.toml` at the workspace root.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Rule toggles: rule name -> enabled.
    pub rules: BTreeMap<String, bool>,
    /// Crates subject to the determinism rule (names as under `crates/`).
    pub sim_crates: Vec<String>,
    /// Crates explicitly declared *non*-simulation (wall clock, env, and
    /// entropy allowed). Every crate under `crates/` must appear in exactly
    /// one of `sim_crates` or `non_sim_crates`; anything unlisted is an
    /// error, so new crates are classified deliberately rather than falling
    /// through the determinism rule by accident.
    pub non_sim_crates: Vec<String>,
    /// Path (relative to the workspace root) of the panic baseline file.
    pub baseline_path: String,
    /// Directories (relative to the root) never scanned.
    pub exclude: Vec<String>,
    /// Identifier paths forbidden in sim crates (e.g. `Instant::now`).
    pub forbidden_calls: Vec<String>,
    /// Allocation constructs banned inside hot-path regions. Entries are either
    /// paths (`Vec::new`), macros (`vec!`), or bare method names (`clone`).
    pub hot_path_bans: Vec<String>,
    /// Known metric names for the `metric-name` rule. Normally loaded from
    /// the catalog doc at [`LintConfig::metric_catalog_path`]; when empty,
    /// only the well-formedness half of the rule runs.
    pub metric_catalog: Vec<String>,
    /// Path (relative to the workspace root) of the metric-name catalog
    /// document. Backticked dotted names in it become `metric_catalog`.
    pub metric_catalog_path: String,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            rules: [
                "determinism",
                "panic",
                "hot-path-alloc",
                "no-unsafe",
                "crate-class",
                "metric-name",
            ]
            .iter()
            .map(|r| (r.to_string(), true))
            .collect(),
            sim_crates: [
                "chip",
                "cpusim",
                "defenses",
                "memsim",
                "system",
                "vulnerability",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            non_sim_crates: [
                "analysis", "bench", "bender", "core", "dram", "lint", "obs", "server",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            baseline_path: "lint-baseline.txt".to_string(),
            exclude: vec!["target".to_string()],
            forbidden_calls: [
                "Instant::now",
                "SystemTime",
                "thread_rng",
                "from_entropy",
                "env::var",
                "env::vars",
                "available_parallelism",
                "RandomState",
                // Each builds a `RandomState`: SipHash seeded from entropy.
                // Only these constructors are caught; `collect()` into a
                // std map is not.
                "HashMap::new",
                "HashMap::default",
                "HashMap::with_capacity",
                "HashSet::new",
                "HashSet::default",
                "HashSet::with_capacity",
                // The obs wall-clock timers: metric/event *recording* is
                // cycle-domain-safe in sim crates, wall-clock profiling is
                // not — neither the phase timer nor the span profiler clock.
                "WallTimer::start",
                "now_us",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            hot_path_bans: [
                "Vec::new",
                "Vec::with_capacity",
                "vec!",
                "to_vec",
                "clone",
                "format!",
                "Box::new",
                "to_string",
                "to_owned",
                "String::new",
                "String::from",
                "collect",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            metric_catalog: Vec::new(),
            metric_catalog_path: "crates/obs/README.md".to_string(),
        }
    }
}

impl LintConfig {
    /// Whether a rule is enabled (unknown rules default to enabled).
    pub fn rule_enabled(&self, rule: &str) -> bool {
        self.rules.get(rule).copied().unwrap_or(true)
    }
}

/// Parse a `lint.toml` document, starting from the defaults and overriding
/// whatever the file specifies.
pub fn parse_config(text: &str) -> Result<LintConfig, String> {
    let mut config = LintConfig::default();
    let mut section = String::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = strip_toml_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("lint.toml:{}: {}", idx + 1, msg);
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err("unclosed section header"));
            };
            section = name.trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err("expected `key = value`"));
        };
        let key = key.trim();
        let value = value.trim();
        match section.as_str() {
            "rules" => {
                let enabled = parse_bool(value).ok_or_else(|| err("expected true/false"))?;
                config.rules.insert(key.to_string(), enabled);
            }
            "determinism" => match key {
                "crates" => config.sim_crates = parse_string_array(value).map_err(|m| err(&m))?,
                "non_sim" => {
                    config.non_sim_crates = parse_string_array(value).map_err(|m| err(&m))?
                }
                "forbidden" => {
                    config.forbidden_calls = parse_string_array(value).map_err(|m| err(&m))?
                }
                _ => return Err(err(&format!("unknown key `{key}` in [determinism]"))),
            },
            "panic" => match key {
                "baseline" => config.baseline_path = parse_string(value).map_err(|m| err(&m))?,
                _ => return Err(err(&format!("unknown key `{key}` in [panic]"))),
            },
            "hot-path" => match key {
                "ban" => config.hot_path_bans = parse_string_array(value).map_err(|m| err(&m))?,
                _ => return Err(err(&format!("unknown key `{key}` in [hot-path]"))),
            },
            "scan" => match key {
                "exclude" => config.exclude = parse_string_array(value).map_err(|m| err(&m))?,
                _ => return Err(err(&format!("unknown key `{key}` in [scan]"))),
            },
            "metric-name" => match key {
                "catalog" => {
                    config.metric_catalog_path = parse_string(value).map_err(|m| err(&m))?
                }
                "names" => {
                    config.metric_catalog = parse_string_array(value).map_err(|m| err(&m))?
                }
                _ => return Err(err(&format!("unknown key `{key}` in [metric-name]"))),
            },
            "" => return Err(err("key outside any [section]")),
            other => return Err(err(&format!("unknown section [{other}]"))),
        }
    }
    Ok(config)
}

fn strip_toml_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_bool(value: &str) -> Option<bool> {
    match value {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

fn parse_string(value: &str) -> Result<String, String> {
    let v = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| "expected a quoted string".to_string())?;
    Ok(v.to_string())
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| "expected an array [\"a\", \"b\"]".to_string())?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_string)
        .collect()
}

/// The panic-ratchet baseline: per-file counts of panic-capable sites, which
/// may only shrink over time. Stored as `path count` lines sorted by path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Workspace-relative file path -> allowed count.
    pub counts: BTreeMap<String, usize>,
}

impl Baseline {
    /// Parse a baseline file (blank lines and `#` comments ignored).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut counts = BTreeMap::new();
        for (idx, raw_line) in text.lines().enumerate() {
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((path, count)) = line.rsplit_once(' ') else {
                return Err(format!("baseline line {}: expected `path count`", idx + 1));
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{count}`", idx + 1))?;
            counts.insert(path.trim().to_string(), count);
        }
        Ok(Self { counts })
    }

    /// Serialize to the on-disk format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# svard-lint panic-ratchet baseline: per-file counts of panic-capable sites\n\
             # (unwrap/expect/panic!/unreachable!/direct indexing) in non-test library code.\n\
             # Counts may only shrink. Regenerate with: cargo lint -- --update-baseline\n",
        );
        for (path, count) in &self.counts {
            out.push_str(&format!("{path} {count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_rules() {
        let c = LintConfig::default();
        for rule in [
            "determinism",
            "panic",
            "hot-path-alloc",
            "no-unsafe",
            "crate-class",
            "metric-name",
        ] {
            assert!(c.rule_enabled(rule), "{rule} should default on");
        }
    }

    #[test]
    fn default_crate_lists_are_disjoint() {
        let c = LintConfig::default();
        for name in &c.sim_crates {
            assert!(
                !c.non_sim_crates.contains(name),
                "`{name}` is listed as both sim and non-sim"
            );
        }
    }

    #[test]
    fn parses_sections_and_overrides() {
        let text = r#"
# comment
[rules]
determinism = true
no-unsafe = false

[determinism]
crates = ["memsim", "defenses"]
non_sim = ["bench", "server"]

[panic]
baseline = "custom-baseline.txt"

[scan]
exclude = ["target", "vendor"]

[metric-name]
catalog = "docs/metrics.md"
names = ["mem.reads", "server.queue_depth"]
"#;
        let c = parse_config(text).expect("parses");
        assert!(c.rule_enabled("determinism"));
        assert!(!c.rule_enabled("no-unsafe"));
        assert_eq!(c.sim_crates, vec!["memsim", "defenses"]);
        assert_eq!(c.non_sim_crates, vec!["bench", "server"]);
        assert_eq!(c.baseline_path, "custom-baseline.txt");
        assert_eq!(c.exclude, vec!["target", "vendor"]);
        assert_eq!(c.metric_catalog_path, "docs/metrics.md");
        assert_eq!(c.metric_catalog, vec!["mem.reads", "server.queue_depth"]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_config("stray = true").is_err());
        assert!(parse_config("[rules]\ndeterminism = yes").is_err());
        assert!(parse_config("[nope]\nx = 1").is_err());
    }

    #[test]
    fn baseline_roundtrip() {
        let b = Baseline {
            counts: [("a/b.rs".to_string(), 3), ("c.rs".to_string(), 0)]
                .into_iter()
                .collect(),
        };
        let parsed = Baseline::parse(&b.render()).expect("parses");
        assert_eq!(parsed, b);
    }

    #[test]
    fn baseline_rejects_garbage() {
        assert!(Baseline::parse("just-a-path").is_err());
        assert!(Baseline::parse("path notanumber").is_err());
    }
}
