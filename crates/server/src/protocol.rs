//! Wire protocol: request parsing, grid validation, sweep-point expansion
//! and response-line rendering.
//!
//! Every record is one JSON object per line. Requests:
//!
//! * `{"type":"submit","job_id":"...","grid":{...}}` — run (or resume) a job.
//! * `{"type":"cancel","job_id":"..."}` — stop a running job (answered with
//!   a `cancel_ack` record; the submitting connection sees a `cancelled`
//!   record and a later resubmit resumes from the journal).
//! * `{"type":"ping"}` — liveness probe, answered with `{"type":"pong"}`.
//! * `{"type":"stats"}` — server metrics snapshot.
//!
//! Responses to a submit: one `accepted` record, then one `point` record per
//! completed sweep point in completion order (journaled points replay
//! first), then one `summary` record. A cancelled job ends with a
//! `cancelled` record instead; a full queue answers a `busy` record. Any
//! failure produces an `error` record — transient ones (executor panic,
//! duplicate active job) carry `"retryable":true` so self-healing clients
//! know a resubmit will resume from the journal. [`point_line`] is the
//! single renderer for point records — the bridge, the journal replay and
//! the tests all go through it, which is what makes "byte-identical across
//! restart and worker count" checkable.

use svard_defenses::DefenseKind;
use svard_obs::PhaseProfile;
use svard_system::EvaluationPoint;
use svard_vulnerability::ModuleSpec;

use crate::json::Json;
use std::collections::BTreeMap;

/// The provider label of the No-Svärd baseline.
pub const PROVIDER_NONE: &str = "none";

/// A validated sweep-job grid: the cross product of defenses × providers ×
/// `HC_first` values, evaluated over `mixes` generated workload mixes.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Defenses to evaluate.
    pub defenses: Vec<DefenseKind>,
    /// Threshold providers: [`PROVIDER_NONE`] or a module label ("S0", ...).
    pub providers: Vec<String>,
    /// Scaled worst-case `HC_first` sweep values.
    pub hc_values: Vec<u64>,
    /// Number of generated workload mixes.
    pub mixes: usize,
    /// Cores per simulated system.
    pub cores: usize,
    /// Instructions per core.
    pub instructions: u64,
    /// DRAM rows per bank (power of two).
    pub rows: usize,
    /// Seed for traces, mixes and profiles.
    pub seed: u64,
    /// Svärd bin count (4-bit identifiers: at most 16).
    pub bins: usize,
    /// Harness worker threads; 0 means one per hardware thread.
    pub workers: usize,
}

impl Default for GridSpec {
    fn default() -> Self {
        Self {
            defenses: DefenseKind::ALL.to_vec(),
            providers: vec![
                PROVIDER_NONE.to_string(),
                "S0".to_string(),
                "M0".to_string(),
                "H1".to_string(),
            ],
            hc_values: vec![4096, 1024, 256, 64],
            mixes: 3,
            cores: 8,
            instructions: 30_000,
            rows: 1024,
            seed: 42,
            bins: 16,
            workers: 0,
        }
    }
}

/// One expanded sweep point, before provider construction.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Defense to evaluate.
    pub defense: DefenseKind,
    /// Provider label ([`PROVIDER_NONE`] or a module label).
    pub provider: String,
    /// Scaled worst-case `HC_first`.
    pub hc_first: u64,
}

/// Parse a defense name (the `Display` spelling, case-insensitive).
pub fn parse_defense(name: &str) -> Option<DefenseKind> {
    DefenseKind::ALL
        .into_iter()
        .find(|d| d.to_string().eq_ignore_ascii_case(name))
}

impl GridSpec {
    /// Parse and validate a grid object. Absent keys take the defaults;
    /// unknown keys are rejected (they are almost certainly typos).
    pub fn from_json(value: &Json) -> Result<GridSpec, String> {
        let map = value.as_object().ok_or("grid must be an object")?;
        const KNOWN: [&str; 10] = [
            "defenses",
            "providers",
            "hc_values",
            "mixes",
            "cores",
            "instructions",
            "rows",
            "seed",
            "bins",
            "workers",
        ];
        for key in map.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown grid key {key:?}"));
            }
        }
        let mut grid = GridSpec::default();
        if let Some(v) = map.get("defenses") {
            let names = v.as_array().ok_or("defenses must be an array")?;
            grid.defenses = names
                .iter()
                .map(|n| {
                    let name = n.as_str().ok_or("defense names must be strings")?;
                    parse_defense(name).ok_or(format!("unknown defense {name:?}"))
                })
                .collect::<Result<_, String>>()?;
        }
        if let Some(v) = map.get("providers") {
            let names = v.as_array().ok_or("providers must be an array")?;
            grid.providers = names
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "provider labels must be strings".to_string())
                })
                .collect::<Result<_, String>>()?;
        }
        if let Some(v) = map.get("hc_values") {
            let values = v.as_array().ok_or("hc_values must be an array")?;
            grid.hc_values = values
                .iter()
                .map(|n| {
                    n.as_u64()
                        .ok_or_else(|| "hc_values must be unsigned integers".to_string())
                })
                .collect::<Result<_, String>>()?;
        }
        for (key, slot) in [
            ("mixes", &mut grid.mixes),
            ("cores", &mut grid.cores),
            ("rows", &mut grid.rows),
            ("bins", &mut grid.bins),
            ("workers", &mut grid.workers),
        ] {
            if let Some(v) = map.get(key) {
                *slot = v
                    .as_usize()
                    .ok_or(format!("{key} must be an unsigned integer"))?;
            }
        }
        if let Some(v) = map.get("instructions") {
            grid.instructions = v
                .as_u64()
                .ok_or("instructions must be an unsigned integer")?;
        }
        if let Some(v) = map.get("seed") {
            grid.seed = v.as_u64().ok_or("seed must be an unsigned integer")?;
        }
        grid.validate()?;
        Ok(grid)
    }

    /// Check every field against the ranges the simulator supports.
    pub fn validate(&self) -> Result<(), String> {
        if self.defenses.is_empty() {
            return Err("defenses must not be empty".to_string());
        }
        if self.providers.is_empty() {
            return Err("providers must not be empty".to_string());
        }
        for label in &self.providers {
            if !label.eq_ignore_ascii_case(PROVIDER_NONE) && ModuleSpec::by_label(label).is_none() {
                return Err(format!("unknown provider label {label:?}"));
            }
        }
        if self.hc_values.is_empty() {
            return Err("hc_values must not be empty".to_string());
        }
        if self.hc_values.iter().any(|&hc| hc < 2) {
            return Err("hc_values must be at least 2".to_string());
        }
        if self.mixes == 0 || self.mixes > 1024 {
            return Err("mixes must be in 1..=1024".to_string());
        }
        if self.cores == 0 || self.cores > 64 {
            return Err("cores must be in 1..=64".to_string());
        }
        if self.instructions == 0 || self.instructions > 1_000_000_000 {
            return Err("instructions must be in 1..=1e9".to_string());
        }
        if !self.rows.is_power_of_two() || self.rows < 64 || self.rows > (1 << 20) {
            return Err("rows must be a power of two in 64..=1M".to_string());
        }
        if self.bins < 2 || self.bins > 16 {
            return Err("bins must be in 2..=16 (4-bit identifiers)".to_string());
        }
        if self.workers > 256 {
            return Err("workers must be at most 256".to_string());
        }
        Ok(())
    }

    /// Expand the grid into sweep points in the canonical (fig12) order:
    /// defense-major, then `HC_first`, then provider. The index of a point in
    /// this list is its wire `index`, stable across runs and resumes.
    pub fn points(&self) -> Vec<PointSpec> {
        let mut points = Vec::new();
        for &defense in &self.defenses {
            for &hc_first in &self.hc_values {
                for provider in &self.providers {
                    points.push(PointSpec {
                        defense,
                        provider: provider.clone(),
                        hc_first,
                    });
                }
            }
        }
        points
    }

    /// Render canonically (sorted keys, every field explicit) — the journal
    /// header form a resume compares against byte-for-byte.
    pub fn to_json(&self) -> Json {
        let mut map = BTreeMap::new();
        map.insert(
            "defenses".to_string(),
            Json::Arr(
                self.defenses
                    .iter()
                    .map(|d| Json::Str(d.to_string()))
                    .collect(),
            ),
        );
        map.insert(
            "providers".to_string(),
            Json::Arr(self.providers.iter().map(|p| Json::str(p)).collect()),
        );
        map.insert(
            "hc_values".to_string(),
            Json::Arr(self.hc_values.iter().map(|&v| Json::uint(v)).collect()),
        );
        map.insert("mixes".to_string(), Json::uint(self.mixes as u64));
        map.insert("cores".to_string(), Json::uint(self.cores as u64));
        map.insert("instructions".to_string(), Json::uint(self.instructions));
        map.insert("rows".to_string(), Json::uint(self.rows as u64));
        map.insert("seed".to_string(), Json::uint(self.seed));
        map.insert("bins".to_string(), Json::uint(self.bins as u64));
        map.insert("workers".to_string(), Json::uint(self.workers as u64));
        Json::Obj(map)
    }
}

fn base_record(kind: &str, job_id: &str) -> BTreeMap<String, Json> {
    let mut map = BTreeMap::new();
    map.insert("type".to_string(), Json::str(kind));
    map.insert("job_id".to_string(), Json::str(job_id));
    map
}

/// Render an `error` record.
pub fn error_line(message: &str) -> String {
    let mut map = BTreeMap::new();
    map.insert("type".to_string(), Json::str("error"));
    map.insert("message".to_string(), Json::str(message));
    Json::Obj(map).render()
}

/// Render a *retryable* `error` record: the job failed transiently (an
/// injected or genuine executor panic, a duplicate active submit) and a
/// resubmit will resume from the journal.
pub fn error_line_retryable(message: &str) -> String {
    let mut map = BTreeMap::new();
    map.insert("type".to_string(), Json::str("error"));
    map.insert("message".to_string(), Json::str(message));
    map.insert("retryable".to_string(), Json::Bool(true));
    Json::Obj(map).render()
}

/// Render the `busy` backpressure record: the work queue is full and the
/// submit was not enqueued. Retryable by definition.
pub fn busy_line(job_id: &str, depth: usize) -> String {
    let mut map = base_record("busy", job_id);
    map.insert("depth".to_string(), Json::uint(depth as u64));
    map.insert("retryable".to_string(), Json::Bool(true));
    Json::Obj(map).render()
}

/// Render the `cancelled` record that closes a cancelled job's response
/// stream. The same line doubles as the journal's cancel marker, so a
/// resumed journal shows where the cancel landed.
pub fn cancelled_line(job_id: &str, points: usize, completed: usize) -> String {
    let mut map = base_record("cancelled", job_id);
    map.insert("points".to_string(), Json::uint(points as u64));
    map.insert("completed".to_string(), Json::uint(completed as u64));
    Json::Obj(map).render()
}

/// Render the `cancel_ack` record answering a `cancel` request. `active`
/// says whether the job was actually running or queued when the cancel
/// arrived.
pub fn cancel_ack_line(job_id: &str, active: bool) -> String {
    let mut map = base_record("cancel_ack", job_id);
    map.insert("active".to_string(), Json::Bool(active));
    Json::Obj(map).render()
}

/// Render the `accepted` record that opens a job's response stream.
pub fn accepted_line(job_id: &str, points: usize, resumed: usize) -> String {
    let mut map = base_record("accepted", job_id);
    map.insert("points".to_string(), Json::uint(points as u64));
    map.insert("resumed".to_string(), Json::uint(resumed as u64));
    Json::Obj(map).render()
}

/// Render one completed sweep point. This is the **only** renderer for point
/// records: the live path, the journal and the equality tests all share it,
/// so a byte comparison of point lines is a comparison of results.
pub fn point_line(
    job_id: &str,
    index: usize,
    point: &EvaluationPoint,
    metrics_json: &str,
) -> String {
    let n = &point.normalized;
    format!(
        "{{\"type\":\"point\",\"job_id\":{},\"index\":{index},\"defense\":{},\"provider\":{},\
         \"hc_first\":{},\"weighted_speedup\":{},\"harmonic_speedup\":{},\"max_slowdown\":{},\
         \"metrics\":{metrics_json}}}",
        Json::str(job_id).render(),
        Json::Str(point.defense.to_string()).render(),
        Json::str(&point.provider).render(),
        point.hc_first,
        n.weighted_speedup,
        n.harmonic_speedup,
        n.max_slowdown,
    )
}

/// Render the `summary` record that closes a job's response stream.
pub fn summary_line(
    job_id: &str,
    points: usize,
    completed: usize,
    resumed: usize,
    metrics: &Json,
    profiles: &[PhaseProfile],
) -> String {
    let mut map = base_record("summary", job_id);
    map.insert("points".to_string(), Json::uint(points as u64));
    map.insert("completed".to_string(), Json::uint(completed as u64));
    map.insert("resumed".to_string(), Json::uint(resumed as u64));
    map.insert("metrics".to_string(), metrics.clone());
    let profile_values = profiles.iter().map(|p| {
        Json::Obj(BTreeMap::from([
            ("phase".to_string(), Json::str(p.phase)),
            ("wall_seconds".to_string(), Json::Num(p.wall_seconds)),
            ("tasks".to_string(), Json::uint(p.tasks as u64)),
            ("busy_seconds".to_string(), Json::Num(p.busy_seconds)),
            ("threads".to_string(), Json::uint(p.threads as u64)),
            ("utilization".to_string(), Json::Num(p.utilization())),
            (
                "tasks_per_second".to_string(),
                Json::Num(p.tasks_per_second()),
            ),
        ]))
    });
    map.insert("profile".to_string(), Json::Arr(profile_values.collect()));
    Json::Obj(map).render()
}

/// Render the journal header for a job-state file.
pub fn job_header_line(job_id: &str, grid: &GridSpec) -> String {
    let mut map = base_record("job", job_id);
    map.insert("grid".to_string(), grid.to_json());
    Json::Obj(map).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_expands_in_fig12_order() {
        let grid = GridSpec::default();
        let points = grid.points();
        assert_eq!(points.len(), 5 * 4 * 4);
        // First block: AQUA at 4096 across the four providers.
        assert_eq!(points[0].defense, DefenseKind::Aqua);
        assert_eq!(points[0].provider, "none");
        assert_eq!(points[0].hc_first, 4096);
        assert_eq!(points[3].provider, "H1");
        assert_eq!(points[4].hc_first, 1024);
    }

    #[test]
    fn grid_roundtrips_through_json() {
        let grid = GridSpec::default();
        let parsed = GridSpec::from_json(&grid.to_json()).unwrap();
        assert_eq!(parsed, grid);
        assert_eq!(parsed.to_json().render(), grid.to_json().render());
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        let bad = Json::parse("{\"rowz\":128}").unwrap();
        assert!(GridSpec::from_json(&bad).is_err());
        let bad = Json::parse("{\"rows\":100}").unwrap();
        assert!(GridSpec::from_json(&bad).is_err(), "non-power-of-two rows");
        let bad = Json::parse("{\"defenses\":[\"NOPE\"]}").unwrap();
        assert!(GridSpec::from_json(&bad).is_err());
        let bad = Json::parse("{\"providers\":[\"Z9\"]}").unwrap();
        assert!(GridSpec::from_json(&bad).is_err());
        let bad = Json::parse("{\"mixes\":0}").unwrap();
        assert!(GridSpec::from_json(&bad).is_err());
    }

    #[test]
    fn defense_names_parse_case_insensitively() {
        assert_eq!(parse_defense("para"), Some(DefenseKind::Para));
        assert_eq!(parse_defense("BLOCKHAMMER"), Some(DefenseKind::BlockHammer));
        assert_eq!(parse_defense("nope"), None);
    }

    #[test]
    fn point_lines_parse_back_and_carry_the_index() {
        use svard_cpusim::metrics::SystemMetrics;
        let point = EvaluationPoint {
            defense: DefenseKind::Para,
            provider: "Svärd-S0".to_string(),
            hc_first: 64,
            normalized: SystemMetrics {
                weighted_speedup: 0.987,
                harmonic_speedup: 0.9,
                max_slowdown: 1.125,
            },
        };
        let line = point_line("job-1", 7, &point, "{\"counters\":{}}");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("point"));
        assert_eq!(parsed.get("index").and_then(Json::as_usize), Some(7));
        assert_eq!(
            parsed.get("provider").and_then(Json::as_str),
            Some("Svärd-S0")
        );
        assert_eq!(
            parsed.get("weighted_speedup").and_then(Json::as_f64),
            Some(0.987)
        );
    }

    #[test]
    fn summary_lines_render_every_phase_profile_field() {
        let empty = PhaseProfile {
            phase: "empty",
            wall_seconds: 0.0,
            tasks: 0,
            busy_seconds: 0.0,
            threads: 0,
        };
        let line = summary_line("job-1", 2, 2, 1, &Json::Null, &[empty]);
        let profile = "\"profile\":[{\"busy_seconds\":0.0,\"phase\":\"empty\",\"tasks\":0,\
                       \"tasks_per_second\":0.0,\"threads\":0,\"utilization\":0.0,\"wall_seconds\":0.0}]";
        assert!(line.contains(profile), "{line}");
    }
}
