//! On-disk job journals: the resume state that makes sweep jobs survive a
//! server kill.
//!
//! Each job gets one append-only `<job_id>.jsonl` file under the store
//! directory. Line 1 is the job header (`{"type":"job","job_id":...,
//! "grid":{...}}`, with the grid in canonical rendering); every subsequent
//! line is a completed point record exactly as it was streamed to the
//! client. On resume the store replays those lines verbatim and hands the
//! bridge the set of completed indices so only the remainder is
//! re-simulated. A torn final line (server killed mid-write, or an injected
//! torn-fsync fault) is *repaired*: the corrupt tail is truncated away so the
//! next append starts on a fresh line and the journal stays replayable.
//! Indexless marker lines (the `cancelled` record a cancel leaves behind)
//! are kept in the file but skipped on replay. [`JobStore::gc`] prunes
//! finished-job journals by age and count.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use svard_obs::json::Json;

use crate::protocol::{job_header_line, GridSpec};

/// Directory of job-state files.
#[derive(Debug, Clone)]
pub struct JobStore {
    dir: PathBuf,
}

/// An open journal for one job: the completed points recovered from disk
/// plus an append handle for new ones.
#[derive(Debug)]
pub struct JobJournal {
    file: File,
    /// Completed point records recovered from (or written to) the journal,
    /// keyed by sweep-point index; values are full wire lines.
    pub completed: BTreeMap<usize, String>,
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
    /// otherwise resuming would silently mix two different sweeps.
    pub fn open_job(&self, job_id: &str, grid: &GridSpec) -> Result<JobJournal, String> {
        validate_job_id(job_id)?;
        let path = self.path_for(job_id);
        let header = job_header_line(job_id, grid);
        let mut completed = BTreeMap::new();
        let exists = path.exists();
        // Bytes of the journal that survive recovery; anything past this is
        // a torn tail and gets truncated so appends start on a fresh line.
        let mut good_len = 0usize;
        let mut write_header = !exists;
        if exists {
            let bytes = std::fs::read(&path).map_err(|e| format!("read journal: {e}"))?;
            let disk_len = bytes.len();
            // A torn write can cut the file mid-UTF-8-codepoint; recover the
            // valid prefix and let the truncate-repair below drop the rest.
            let text = match String::from_utf8(bytes) {
                Ok(text) => text,
                Err(e) => {
                    let valid = e.utf8_error().valid_up_to();
                    let mut bytes = e.into_bytes();
                    bytes.truncate(valid);
                    String::from_utf8(bytes).unwrap_or_default()
                }
            };
            let mut lines = text.split_inclusive('\n');
            match lines.next() {
                Some(first) if first.trim_end() == header => {
                    if first.ends_with('\n') {
                        good_len = first.len();
                    } else {
                        // Torn header write: start over with a clean header.
                        write_header = true;
                    }
                }
                Some(_) => {
                    return Err(format!(
                        "job {job_id:?} already exists with a different grid"
                    ))
                }
                None => write_header = true,
            }
            if !write_header {
                for line in lines {
                    // A line without the trailing newline is a torn final
                    // write; stop here and truncate it away below.
                    if !line.ends_with('\n') {
                        break;
                    }
                    let trimmed = line.trim_end();
                    let Ok(record) = Json::parse(trimmed) else {
                        break;
                    };
                    if let Some(index) = record.get("index").and_then(Json::as_usize) {
                        completed.insert(index, trimmed.to_string());
                    }
                    // Indexless records (the cancel marker) stay in the file
                    // but replay nothing.
                    good_len += line.len();
                }
            }
            if good_len < disk_len {
                // Repair the tear: drop the corrupt tail so the next append
                // cannot merge with half a line.
                let repair = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| format!("repair journal: {e}"))?;
                repair
                    .set_len(good_len as u64)
                    .map_err(|e| format!("truncate torn journal: {e}"))?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open journal: {e}"))?;
        if write_header {
            writeln!(file, "{header}").map_err(|e| format!("write header: {e}"))?;
            file.flush().map_err(|e| format!("flush header: {e}"))?;
        }
        Ok(JobJournal { file, completed })
    }

    /// Prune *finished* job journals (every grid point journaled): journals
    /// older than `age_secs` (0 disables the age rule) are removed, and when
    /// `max_keep` > 0 only the `max_keep` most recent finished journals
    /// survive. Unfinished journals are never touched — they are resume
    /// state. Returns the number of files removed.
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
            if !journal_is_finished(&path) {
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

/// Whether a journal records every point of its own grid (and so is safe to
/// prune). Anything unreadable or torn counts as unfinished.
fn journal_is_finished(path: &Path) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        return false;
    };
    let mut lines = text.split_inclusive('\n');
    let Some(first) = lines.next() else {
        return false;
    };
    if !first.ends_with('\n') {
        return false;
    }
    let Ok(record) = Json::parse(first.trim_end()) else {
        return false;
    };
    let total = match record.get("grid").map(GridSpec::from_json) {
        Some(Ok(grid)) => grid.points().len(),
        _ => return false,
    };
    let mut done: BTreeSet<usize> = BTreeSet::new();
    for line in lines {
        if !line.ends_with('\n') {
            break;
        }
        let Ok(rec) = Json::parse(line.trim_end()) else {
            break;
        };
        if let Some(index) = rec.get("index").and_then(Json::as_usize) {
            done.insert(index);
        }
    }
    done.range(..total).count() >= total
}

impl JobJournal {
    /// Append a completed point record (a full wire line, no newline) and
    /// flush it so a kill immediately afterwards cannot lose it.
    pub fn record_point(&mut self, index: usize, line: &str) -> Result<(), String> {
        writeln!(self.file, "{line}").map_err(|e| format!("append point: {e}"))?;
        self.file.flush().map_err(|e| format!("flush point: {e}"))?;
        self.completed.insert(index, line.to_string());
        Ok(())
    }

    /// Append a marker line (e.g. the `cancelled` record) that documents an
    /// event without completing a point. Markers survive in the file but are
    /// skipped when a resume replays the journal.
    pub fn record_marker(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.file, "{line}").map_err(|e| format!("append marker: {e}"))?;
        self.file
            .flush()
            .map_err(|e| format!("flush marker: {e}"))?;
        Ok(())
    }

    /// Chaos-only: append `bytes` verbatim with **no** trailing newline,
    /// simulating a write torn by a kill. The journal is corrupt past this
    /// point until the next [`JobStore::open_job`] repairs it by truncation.
    pub fn inject_torn_write(&mut self, bytes: &[u8]) {
        let _ = self.file.write_all(bytes);
        let _ = self.file.flush();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A store in a per-process temp directory that is removed on drop, so
    /// test runs leave no state directories behind.
    pub(crate) struct TempStore(JobStore);

    impl TempStore {
        /// A fresh store at `$TMPDIR/svard-<tag>-<pid>`.
        pub(crate) fn new(tag: &str) -> TempStore {
            let dir = std::env::temp_dir().join(format!("svard-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempStore(JobStore::new(&dir).expect("create the temp state dir"))
        }
    }

    impl std::ops::Deref for TempStore {
        type Target = JobStore;

        fn deref(&self) -> &JobStore {
            &self.0
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0.dir);
        }
    }

    #[test]
    fn job_ids_are_restricted_to_safe_characters() {
        assert!(validate_job_id("job-1_A").is_ok());
        assert!(validate_job_id("").is_err());
        assert!(validate_job_id("../escape").is_err());
        assert!(validate_job_id(&"x".repeat(65)).is_err());
    }

    #[test]
    fn journal_recovers_completed_points_and_ignores_torn_lines() {
        let store = TempStore::new("jobstore-recover");
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

    #[test]
    fn torn_tails_are_truncated_and_markers_replay_nothing() {
        let store = TempStore::new("jobstore-repair");
        let grid = GridSpec::default();
        {
            let mut journal = store.open_job("torn", &grid).unwrap();
            journal
                .record_point(1, "{\"type\":\"point\",\"index\":1}")
                .unwrap();
            journal
                .record_marker("{\"type\":\"cancelled\",\"job_id\":\"torn\",\"completed\":1}")
                .unwrap();
            journal.inject_torn_write(b"{\"type\":\"point\",\"ind");
        }
        let before = std::fs::read(store.path_for("torn")).unwrap();
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
    fn gc_prunes_only_finished_journals() {
        let store = TempStore::new("jobstore-gc");
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
        let store = TempStore::new("jobstore-mismatch");
        let grid = GridSpec::default();
        drop(store.open_job("fixed-grid", &grid).unwrap());
        let mut other = grid.clone();
        other.seed = 1234;
        let err = store.open_job("fixed-grid", &other).unwrap_err();
        assert!(err.contains("different grid"), "{err}");
    }
}
