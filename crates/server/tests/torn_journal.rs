//! Torn-journal property test: a crash can leave the job journal cut at ANY
//! byte boundary of its final line (a torn `write(2)` mid-fsync). Opening the
//! store must repair the tail, and resubmitting the job must converge to a
//! byte-identical sweep — replayed prefix plus re-simulated remainder.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc::channel;
use std::sync::Arc;

use svard_defenses::DefenseKind;
use svard_obs::json::Json;
use svard_server::bridge;
use svard_server::queue::QueuedJob;
use svard_server::server::ServerState;
use svard_server::{GridSpec, ServerConfig};

mod common;
use common::TempDir;

fn tiny_grid() -> GridSpec {
    GridSpec {
        defenses: vec![DefenseKind::Para],
        providers: vec!["none".to_string(), "S0".to_string()],
        hc_values: vec![64],
        mixes: 1,
        cores: 2,
        instructions: 2_000,
        rows: 256,
        seed: 11,
        bins: 8,
        workers: 1,
    }
}

/// Run the job to completion in process on a server state over `state_dir`
/// and return its point lines sorted by index (raw wire bytes — no
/// normalization; the job id is identical across runs).
fn run_sorted(job_id: &str, grid: &GridSpec, state_dir: &Path) -> Vec<String> {
    let state = ServerState::new(&ServerConfig {
        state_dir: state_dir.into(),
        ..ServerConfig::default()
    })
    .unwrap();
    let (tx, rx) = channel();
    let job = QueuedJob {
        job_id: job_id.to_string(),
        grid: grid.clone(),
        out: tx,
        live: Arc::default(),
        enqueued_us: 0,
    };
    let report = bridge::run_job(&state, &job).unwrap();
    assert!(!report.cancelled);
    let mut by_index: BTreeMap<usize, String> = BTreeMap::new();
    for line in rx.try_iter() {
        let record = Json::parse(&line).unwrap();
        if record.get("type").and_then(Json::as_str) == Some("point") {
            let index = record.get("index").and_then(Json::as_usize).unwrap();
            by_index.insert(index, line);
        }
    }
    by_index.into_values().collect()
}

#[test]
fn a_journal_torn_at_any_byte_of_its_last_line_resumes_byte_identically() {
    let grid = tiny_grid();
    let reference_dir = TempDir::new("torn-ref");
    let reference = run_sorted("torn", &grid, reference_dir.path());
    assert!(!reference.is_empty());

    let journal_path = reference_dir.path().join("torn.jsonl");
    let full = std::fs::read(&journal_path).unwrap();
    assert_eq!(*full.last().unwrap(), b'\n', "journal ends with newline");

    // Every cut point from "last line fully gone" (the newline boundary of
    // the previous line) through "last line missing only its newline".
    let body = &full[..full.len() - 1];
    let last_line_start = body
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    for cut in last_line_start..full.len() {
        let dir = TempDir::new(&format!("torn-cut{cut}"));
        std::fs::create_dir_all(dir.path()).unwrap();
        std::fs::write(dir.path().join("torn.jsonl"), &full[..cut]).unwrap();
        let resumed = run_sorted("torn", &grid, dir.path());
        assert_eq!(resumed, reference, "cut at byte {cut} of {}", full.len());

        // The repaired journal must be a newline-terminated prefix rewrite:
        // replaying it a second time still yields the same bytes.
        let again = run_sorted("torn", &grid, dir.path());
        assert_eq!(again, reference, "re-replay after repair, cut {cut}");
    }
}
