//! Span names the benchmark records around its calls into each layer, and
//! the Chrome-trace writer. The names are the benchmark's own (documented in
//! `perfbench/README.md`), not the program's metric catalog.

use std::path::Path;

use svard_obs::Profiler;

use crate::report::Report;

/// One workload set-up (profiles, Svärd build, harness or infrastructure).
pub const SETUP: &str = "perfbench.setup";
/// One untraced round (a sweep, a batch of jobs, a characterization).
pub const ROUND: &str = "perfbench.round";
/// The traced sweep.
pub const TRACED_ROUND: &str = "perfbench.traced_round";
/// One traced `(point, mix)` task; `arg` is `point << 32 | mix`.
pub const TASK: &str = "perfbench.task";
/// One fresh job, submit to summary; `arg` is the job number.
pub const JOB: &str = "perfbench.job";
/// One replayed job, submit to summary; `arg` is the job number.
pub const REPLAY_JOB: &str = "perfbench.replay_job";
/// `characterize_bank` on one module; `arg` is the module index.
pub const CHARACTERIZE: &str = "perfbench.characterize";
/// `reverse_engineer_subarrays` on one module; `arg` is the module index.
pub const REVERSE: &str = "perfbench.reverse_engineer";

/// Write every span of `profiler` to `path` as Chrome trace-event JSON and
/// note it in the report.
pub fn write_chrome_trace(
    profiler: &Profiler,
    path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, profiler.chrome_trace_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.note(format!(
        "span trace {} ({} spans, {} dropped)",
        path.display(),
        profiler.snapshot_spans().len(),
        profiler.dropped()
    ));
    Ok(())
}
