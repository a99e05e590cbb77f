//! On-disk job journals: the resume state that makes sweep jobs survive a
//! server kill.
//!
//! Each job gets one append-only `<job_id>.jsonl` file under the store
//! directory. Line 1 is the job header (`{"type":"job","job_id":...,
//! "grid":{...}}`, with the grid in canonical rendering); every subsequent
//! line is a completed point record exactly as it was streamed to the
//! client. On resume the store replays those lines verbatim and hands the
//! bridge the set of completed indices so only the remainder is
//! re-simulated.
//!
//! One private scan reads a journal's text, for both [`JobStore::open_job`]
//! and [`JobStore::gc`]: it keeps the complete header line and the point
//! lines up to the first torn (no newline) or unparseable line. A torn or
//! corrupt tail (server killed mid-write, or an injected torn write) is
//! *repaired* on open: it is truncated away so the next append starts on a
//! fresh line and the journal stays replayable. Indexless marker lines (the
//! `cancelled` record a cancel leaves behind) are kept in the file but
//! replay nothing. [`JobStore::gc`] prunes finished-job journals by age and
//! count.
//!
//! Durability: each line reaches the file in one `write`, and nothing calls
//! `fsync`. A journaled line is in the OS page cache before its point is
//! sent, so it survives the server process being killed (`kill -9`), but a
//! host crash or power loss can still lose the journal's newest lines.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use svard_obs::json::Json;

use crate::chaos::{FaultPlan, FaultSite};
use crate::protocol::{job_header_line, GridSpec};

/// Directory of job-state files.
#[derive(Debug, Clone)]
pub struct JobStore {
    dir: PathBuf,
}

/// An open journal for one job: the completed points recovered from disk
/// plus an append handle for new ones, and the chaos plan whose journal
/// faults [`JobJournal::record_point`] injects.
#[derive(Debug)]
pub struct JobJournal<'a> {
    file: File,
    chaos: Option<&'a FaultPlan>,
    /// Completed point records recovered from (or written to) the journal,
    /// keyed by sweep-point index; values are full wire lines.
    pub completed: BTreeMap<usize, String>,
}

/// Why [`JobJournal::record_point`] journaled no complete line.
#[derive(Debug)]
pub enum RecordError {
    /// The chaos plan fired [`FaultSite::FsyncFail`]: nothing was written.
    FsyncFail,
    /// The chaos plan fired [`FaultSite::TornWrite`]: a prefix of the line
    /// was written, with no newline.
    TornWrite,
    /// The append failed.
    Io(std::io::Error),
}

/// What one scan of a journal's text keeps.
struct Scan<'t> {
    /// The header line, without its newline; `None` if the text has no
    /// complete first line.
    header: Option<&'t str>,
    /// Point lines by index, up to the first torn or unparseable line.
    completed: BTreeMap<usize, String>,
    /// Bytes up to the end of the last kept line: what survives a repair.
    good_len: usize,
}

/// Scan a journal's bytes: the one reader of the journal format. A torn
/// write can cut the file mid-code-point, so only the valid UTF-8 prefix is
/// read; whatever follows the last kept line is left for a repair to drop.
fn scan(bytes: &[u8]) -> Scan<'_> {
    let text = match std::str::from_utf8(bytes) {
        Ok(text) => text,
        Err(e) => std::str::from_utf8(bytes.get(..e.valid_up_to()).unwrap_or_default())
            .unwrap_or_default(),
    };
    let mut lines = text.split_inclusive('\n');
    let mut scan = Scan {
        header: None,
        completed: BTreeMap::new(),
        good_len: 0,
    };
    let Some(first) = lines.next().filter(|l| l.ends_with('\n')) else {
        return scan;
    };
    scan.header = Some(first.trim_end());
    scan.good_len = first.len();
    for line in lines {
        // A line without its newline is a torn final write.
        let trimmed = line.trim_end();
        let Some(record) = line
            .ends_with('\n')
            .then(|| Json::parse(trimmed).ok())
            .flatten()
        else {
            break;
        };
        // Indexless records (the cancel marker) stay but replay nothing.
        if let Some(index) = record.get("index").and_then(Json::as_usize) {
            scan.completed.insert(index, trimmed.to_string());
        }
        scan.good_len += line.len();
    }
    scan
}

/// Job ids become file names, so restrict them hard: 1–64 characters from
/// `[A-Za-z0-9_-]`.
pub fn validate_job_id(job_id: &str) -> Result<(), String> {
    if job_id.is_empty() || job_id.len() > 64 {
        return Err("job_id must be 1..=64 characters".to_string());
    }
    if !job_id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    {
        return Err("job_id may only contain [A-Za-z0-9_-]".to_string());
    }
    Ok(())
}

impl JobStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn new(dir: &Path) -> Result<JobStore, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create state dir: {e}"))?;
        Ok(JobStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The journal path for a job id.
    pub fn path_for(&self, job_id: &str) -> PathBuf {
        self.dir.join(format!("{job_id}.jsonl"))
    }

    /// Open a job journal. A fresh job writes its header; an existing job is
    /// recovered — the stored grid must render byte-identically to `grid`,
    /// otherwise resuming would silently mix two different sweeps. A journal
    /// without a complete header holds no point, so it is started over.
    pub fn open_job(&self, job_id: &str, grid: &GridSpec) -> Result<JobJournal<'static>, String> {
        validate_job_id(job_id)?;
        let path = self.path_for(job_id);
        let header = job_header_line(job_id, grid);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("read journal: {e}")),
        };
        let scan = scan(&bytes);
        if scan.header.is_some_and(|h| h != header) {
            return Err(format!(
                "job {job_id:?} already exists with a different grid"
            ));
        }
        if scan.good_len < bytes.len() {
            // Repair the tear: drop the corrupt tail so the next append
            // cannot merge with half a line.
            OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(scan.good_len as u64))
                .map_err(|e| format!("truncate torn journal: {e}"))?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open journal: {e}"))?;
        if scan.header.is_none() {
            append_line(&mut file, &header).map_err(|e| format!("write header: {e}"))?;
        }
        Ok(JobJournal {
            file,
            chaos: None,
            completed: scan.completed,
        })
    }

    /// Prune *finished* job journals (every grid point journaled): journals
    /// older than `age_secs` (0 disables the age rule) are removed, and when
    /// `max_keep` > 0 only the `max_keep` most recent finished journals
    /// survive. Unfinished journals are never touched — they are resume
    /// state; so is anything unreadable or without a complete, decodable
    /// header. Returns the number of files removed.
    pub fn gc(&self, age_secs: u64, max_keep: usize) -> usize {
        if age_secs == 0 && max_keep == 0 {
            return 0;
        }
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut finished: Vec<(SystemTime, PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
                continue;
            }
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let scan = scan(&bytes);
            // The header's grid fixes how many points finish the job.
            let points = scan
                .header
                .and_then(|h| Json::parse(h).ok())
                .and_then(|h| GridSpec::from_json(h.get("grid")?).ok())
                .map(|grid| grid.points().len());
            if points.is_none_or(|n| scan.completed.range(..n).count() < n) {
                continue;
            }
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            finished.push((mtime, path));
        }
        // Newest first, path as a deterministic tie-break.
        finished.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let now = SystemTime::now();
        let mut pruned = 0;
        for (rank, (mtime, path)) in finished.iter().enumerate() {
            let too_old = age_secs > 0
                && now
                    .duration_since(*mtime)
                    .map(|age| age.as_secs() >= age_secs)
                    .unwrap_or(false);
            let over_cap = max_keep > 0 && rank >= max_keep;
            if (too_old || over_cap) && std::fs::remove_file(path).is_ok() {
                pruned += 1;
            }
        }
        pruned
    }
}

/// Append `line` and its newline to a journal in one write.
fn append_line(file: &mut File, line: &str) -> std::io::Result<()> {
    file.write_all(format!("{line}\n").as_bytes())
}

impl JobJournal<'_> {
    /// This journal with `chaos` applied to its point writes.
    pub(crate) fn with_chaos(self, chaos: Option<&FaultPlan>) -> JobJournal<'_> {
        JobJournal {
            file: self.file,
            chaos,
            completed: self.completed,
        }
    }

    /// Append a completed point record (a full wire line, no newline): the
    /// journal's one point-write seam, where the chaos plan's journal sites
    /// fire, polled in this order. [`FaultSite::FsyncFail`] writes nothing;
    /// [`FaultSite::TornWrite`] writes a prefix of the line with no newline,
    /// as a kill mid-write would, which the next [`JobStore::open_job`]
    /// truncates away. Either way the point is not journaled.
    pub fn record_point(&mut self, index: usize, line: &str) -> Result<(), RecordError> {
        if let Some(plan) = self.chaos {
            if plan.fire(FaultSite::FsyncFail) {
                return Err(RecordError::FsyncFail);
            }
            if plan.fire(FaultSite::TornWrite) {
                let keep = plan.torn_prefix_len(plan.fired(FaultSite::TornWrite), line.len());
                let prefix = line.as_bytes().get(..keep).unwrap_or_default();
                let _ = self.file.write_all(prefix);
                return Err(RecordError::TornWrite);
            }
        }
        append_line(&mut self.file, line).map_err(RecordError::Io)?;
        self.completed.insert(index, line.to_string());
        Ok(())
    }

    /// Append a marker line (e.g. the `cancelled` record) that documents an
    /// event without completing a point. Markers survive in the file but are
    /// skipped when a resume replays the journal.
    pub fn record_marker(&mut self, line: &str) -> Result<(), String> {
        append_line(&mut self.file, line).map_err(|e| format!("append marker: {e}"))
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosRates, SiteRate};
    use crate::server::tests::TempState;
    use crate::server::ServerConfig;

    #[test]
    fn job_ids_are_restricted_to_safe_characters() {
        assert!(validate_job_id("job-1_A").is_ok());
        assert!(validate_job_id("").is_err());
        assert!(validate_job_id("../escape").is_err());
        assert!(validate_job_id(&"x".repeat(65)).is_err());
    }

    #[test]
    fn journal_recovers_completed_points_and_ignores_torn_lines() {
        let state = TempState::new("jobstore-recover", ServerConfig::default());
        let store = &state.store;
        let grid = GridSpec::default();
        {
            let mut journal = store.open_job("resume-me", &grid).unwrap();
            journal
                .record_point(0, "{\"type\":\"point\",\"index\":0}")
                .unwrap();
            journal
                .record_point(3, "{\"type\":\"point\",\"index\":3}")
                .unwrap();
        }
        // Simulate a kill mid-write: append half a line with no newline.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(store.path_for("resume-me"))
                .unwrap();
            write!(f, "{{\"type\":\"point\",\"ind").unwrap();
        }
        let journal = store.open_job("resume-me", &grid).unwrap();
        assert_eq!(
            journal.completed.keys().copied().collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(
            journal.completed.get(&3).map(String::as_str),
            Some("{\"type\":\"point\",\"index\":3}")
        );
    }

    /// A plan that fires only `site`, once.
    fn once(site: FaultSite) -> FaultPlan {
        let rate = SiteRate::capped(1.0, 1);
        let rates = match site {
            FaultSite::FsyncFail => ChaosRates {
                fsync: rate,
                ..ChaosRates::QUIET
            },
            _ => ChaosRates {
                torn: rate,
                ..ChaosRates::QUIET
            },
        };
        FaultPlan::new(1, rates)
    }

    #[test]
    fn torn_tails_are_truncated_and_markers_replay_nothing() {
        let state = TempState::new("jobstore-repair", ServerConfig::default());
        let store = &state.store;
        let grid = GridSpec::default();
        let plan = once(FaultSite::TornWrite);
        {
            let mut journal = store.open_job("torn", &grid).unwrap();
            journal
                .record_point(1, "{\"type\":\"point\",\"index\":1}")
                .unwrap();
            journal
                .record_marker("{\"type\":\"cancelled\",\"job_id\":\"torn\",\"completed\":1}")
                .unwrap();
            let mut journal = journal.with_chaos(Some(&plan));
            let torn = journal.record_point(2, "{\"type\":\"point\",\"index\":2}");
            assert!(matches!(torn, Err(RecordError::TornWrite)));
        }
        let before = std::fs::read(store.path_for("torn")).unwrap();
        assert!(!before.ends_with(b"\n"), "the torn write left no newline");
        let journal = store.open_job("torn", &grid).unwrap();
        assert_eq!(
            journal.completed.keys().copied().collect::<Vec<_>>(),
            vec![1],
            "marker and torn tail replay nothing"
        );
        drop(journal);
        let after = std::fs::read(store.path_for("torn")).unwrap();
        assert!(after.len() < before.len(), "torn tail truncated away");
        assert!(after.ends_with(b"\n"), "repaired journal ends on a newline");
        assert_eq!(before.get(..after.len()), Some(after.as_slice()));
    }

    #[test]
    fn an_injected_fsync_fault_writes_nothing() {
        let state = TempState::new("jobstore-fsync", ServerConfig::default());
        let store = &state.store;
        let grid = GridSpec::default();
        let plan = once(FaultSite::FsyncFail);
        let mut journal = store
            .open_job("fsync", &grid)
            .unwrap()
            .with_chaos(Some(&plan));
        let before = std::fs::read(store.path_for("fsync")).unwrap();
        let line = "{\"type\":\"point\",\"index\":0}";
        let failed = journal.record_point(0, line);
        assert!(matches!(failed, Err(RecordError::FsyncFail)));
        assert!(journal.completed.is_empty());
        assert_eq!(std::fs::read(store.path_for("fsync")).unwrap(), before);
        // The budget is spent: the retry journals the point.
        journal.record_point(0, line).unwrap();
        let after = std::fs::read_to_string(store.path_for("fsync")).unwrap();
        assert!(after.ends_with(&format!("{line}\n")));
    }

    #[test]
    fn a_point_with_a_huge_finite_value_parses_and_resumes() {
        use svard_cpusim::metrics::SystemMetrics;
        use svard_system::EvaluationPoint;
        // `Display` spells 1e39 as a bare 40-digit integer, past `i128`.
        let point = EvaluationPoint {
            defense: svard_defenses::DefenseKind::Para,
            provider: "No Svärd".to_string(),
            hc_first: 64,
            normalized: SystemMetrics {
                weighted_speedup: 1.0,
                harmonic_speedup: 1.0,
                max_slowdown: 1e39,
            },
        };
        let line = crate::protocol::point_line("huge", 0, &point, "{}");
        assert!(line.contains(&format!("\"max_slowdown\":1{},", "0".repeat(39))));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("max_slowdown"), Some(&Json::Num(1e39)));
        let state = TempState::new("jobstore-huge", ServerConfig::default());
        let store = &state.store;
        let grid = GridSpec::default();
        store
            .open_job("huge", &grid)
            .unwrap()
            .record_point(0, &line)
            .unwrap();
        let resumed = store.open_job("huge", &grid).unwrap();
        assert_eq!(resumed.completed.get(&0), Some(&line));
    }

    #[test]
    fn one_scan_decides_resume_repair_and_gc() {
        let state = TempState::new("jobstore-table", ServerConfig::default());
        let store = &state.store;
        let grid = GridSpec {
            defenses: vec![svard_defenses::DefenseKind::Para],
            providers: vec!["none".to_string()],
            hc_values: vec![64, 256],
            ..GridSpec::default()
        };
        let header = format!("{}\n", job_header_line("t", &grid));
        let point = |i: usize| format!("{{\"type\":\"point\",\"index\":{i}}}\n");
        let (p0, p1) = (point(0), point(1));
        let marker = "{\"type\":\"cancelled\",\"job_id\":\"t\",\"completed\":1}\n";
        let (h, a, b) = (header.as_bytes(), p0.as_bytes(), p1.as_bytes());
        let cut = "{\"provider\":\"Sv\u{e4}rd".as_bytes();
        let cut = &cut[..cut.len() - 3];
        let (bad, marker) = (b"{\"type\":\"point\",\n".as_slice(), marker.as_bytes());
        // (case, journal lines, lines that survive, indices resumed, gc prunes it)
        let cases = [
            ("clean", vec![h, a], 2, vec![0], false),
            ("torn header", vec![&h[..20]], 0, vec![], false),
            ("torn last line", vec![h, a, &b[..9]], 2, vec![0], false),
            (
                "cut mid-code-point",
                vec![h, a, b, cut],
                3,
                vec![0, 1],
                true,
            ),
            (
                "unparseable middle line",
                vec![h, a, bad, b],
                2,
                vec![0],
                false,
            ),
            ("cancel marker", vec![h, a, marker], 3, vec![0], false),
            ("all points present", vec![h, a, b], 3, vec![0, 1], true),
        ];
        let path = store.path_for("t");
        for (case, lines, kept, resumed, finished) in cases {
            let text = lines.concat();
            std::fs::write(&path, &text).unwrap();
            let old = SystemTime::now() - std::time::Duration::from_secs(7200);
            File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(old)
                .unwrap();
            assert_eq!(store.gc(3600, 0), usize::from(finished), "{case}: gc");
            std::fs::write(&path, &text).unwrap();
            let journal = store.open_job("t", &grid).unwrap();
            let keys: Vec<usize> = journal.completed.keys().copied().collect();
            assert_eq!(keys, resumed, "{case}: resumed");
            drop(journal);
            // A journal with no complete header is started over.
            let want = if kept == 0 {
                h.to_vec()
            } else {
                lines[..kept].concat()
            };
            assert_eq!(std::fs::read(&path).unwrap(), want, "{case}: repaired file");
        }
    }

    #[test]
    fn gc_prunes_only_finished_journals() {
        let state = TempState::new("jobstore-gc", ServerConfig::default());
        let store = &state.store;
        let grid = GridSpec {
            defenses: vec![svard_defenses::DefenseKind::Para],
            providers: vec!["none".to_string()],
            hc_values: vec![64, 256],
            ..GridSpec::default()
        };
        let total = grid.points().len();
        assert_eq!(total, 2);
        {
            let mut done = store.open_job("done", &grid).unwrap();
            for i in 0..total {
                done.record_point(i, &format!("{{\"type\":\"point\",\"index\":{i}}}"))
                    .unwrap();
            }
            let mut half = store.open_job("half", &grid).unwrap();
            half.record_point(0, "{\"type\":\"point\",\"index\":0}")
                .unwrap();
        }
        assert_eq!(store.gc(0, 0), 0, "gc disabled removes nothing");
        // Age 1s: nothing is that old yet, so nothing goes.
        assert_eq!(store.gc(3600, 0), 0);
        // Keep zero newest finished journals → the finished one goes, the
        // unfinished one (resume state) survives.
        let extra = GridSpec {
            seed: 77,
            ..GridSpec::default()
        };
        {
            let mut also = store.open_job("also-done", &extra).unwrap();
            for i in 0..extra.points().len() {
                also.record_point(i, &format!("{{\"type\":\"point\",\"index\":{i}}}"))
                    .unwrap();
            }
        }
        assert_eq!(store.gc(0, 1), 1, "cap 1 prunes the older finished journal");
        assert!(store.path_for("half").exists(), "unfinished survives");
        let survivors = ["done", "also-done"]
            .iter()
            .filter(|id| store.path_for(id).exists())
            .count();
        assert_eq!(survivors, 1);
    }

    #[test]
    fn grid_mismatch_is_rejected_on_resume() {
        let state = TempState::new("jobstore-mismatch", ServerConfig::default());
        let store = &state.store;
        let grid = GridSpec::default();
        drop(store.open_job("fixed-grid", &grid).unwrap());
        let mut other = grid.clone();
        other.seed = 1234;
        let err = store.open_job("fixed-grid", &other).unwrap_err();
        assert!(err.contains("different grid"), "{err}");
    }
}
