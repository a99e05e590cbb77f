//! Grid → harness translation and streamed job execution.
//!
//! [`run_job`] is the executor-side entry point: it opens (or resumes) the
//! job journal, replays already-completed points verbatim, builds the
//! evaluation harness and threshold providers for the remaining points, and
//! streams each freshly completed point the moment the harness reduces it.
//! Every point line is journaled *before* it is sent, so killing the server
//! between the two loses nothing, and a resumed run replays the identical
//! bytes.
//!
//! Determinism: traces and defenses are seeded from the grid, results land
//! in input-order slots, and [`crate::protocol::point_line`] is the only
//! point renderer — so the full set of point lines for a job is bit-identical
//! at any worker count, with or without a kill-and-resume in the middle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, PoisonError};

use svard_core::Svard;
use svard_cpusim::workload::WorkloadMix;
use svard_defenses::{SharedThresholdProvider, UniformThreshold};
use svard_obs::json::Json;
use svard_obs::{MetricsSnapshot, PhaseProfile, Profiler};
use svard_system::parallel::default_threads;
use svard_system::{EvaluationHarness, MemStats, SimMode, SweepPoint, SystemConfig};
use svard_vulnerability::{ModuleSpec, ProfileGenerator};

use crate::chaos::{FaultPlan, FaultSite};
use crate::jobstore::{JobJournal, JobStore, RecordError};
use crate::protocol::{accepted_line, cancelled_line, point_line, summary_line, GridSpec};
use crate::server::{LiveJob, ServerStats};

/// The watchdog stays quiet until the execute-time histogram has at least
/// this many observations — a p99 over fewer points is noise.
const WATCHDOG_MIN_POINTS: u64 = 16;

/// Executor-side observability for one job run: the span store, the server
/// metric registry, the watchdog threshold, and the job's progress entry.
pub struct JobObs<'a> {
    /// Span store and time base (a cheap clone of the server's profiler).
    pub profiler: Profiler,
    /// Registry receiving histograms and counters.
    pub stats: &'a ServerStats,
    /// Flag points slower than this multiple of the running p99 point
    /// execute time (0 disables the watchdog).
    pub watchdog_multiple: u64,
    /// The job's live-table entry, which receives its progress (`None`
    /// reports none).
    pub job: Option<&'a LiveJob>,
}

impl<'a> JobObs<'a> {
    /// An observer that keeps no spans and never flags anything; timestamps
    /// still work. For tests and offline tools.
    pub fn disabled(stats: &'a ServerStats) -> JobObs<'a> {
        JobObs {
            profiler: Profiler::disabled(),
            stats,
            watchdog_multiple: 0,
            job: None,
        }
    }

    fn set_progress(&self, completed: usize, points: usize) {
        if let Some(job) = self.job {
            job.set_progress(completed, points);
        }
    }

    /// Record one freshly completed point: execute/fsync histograms, the
    /// completion counter, per-job progress, and the watchdog check against
    /// the p99 of every *earlier* point.
    fn on_point(&self, index: usize, completed: usize, points: usize, t: PointTiming) {
        let (p99, prior) = self
            .stats
            .observe_with_prior_p99("server.point_exec_us", t.exec_us);
        self.stats.observe("server.journal_fsync_us", t.fsync_us);
        self.stats.add("server.points_completed", 1);
        self.set_progress(completed, points);
        if self.watchdog_multiple > 0
            && prior >= WATCHDOG_MIN_POINTS
            && p99 > 0
            && t.exec_us > self.watchdog_multiple.saturating_mul(p99)
        {
            self.stats.add("server.watchdog_slow_points", 1);
            self.profiler.record(
                "server.watchdog_slow",
                t.exec_start_us,
                t.exec_us,
                index as u64,
            );
        }
    }

    /// Count a job run's end: points streamed and resumed, and the job as
    /// completed or cancelled. `run_job` calls it before the job's last
    /// line goes out, so a client that reads the metrics once it has that
    /// line always sees its job counted.
    fn on_job_end(&self, report: &JobReport) {
        let streamed = report.completed - report.resumed.min(report.completed);
        self.stats.add("server.points_streamed", streamed as u64);
        self.stats
            .add("server.points_resumed", report.resumed as u64);
        self.stats.count(if report.cancelled {
            "server.jobs_cancelled"
        } else {
            "server.jobs_completed"
        });
    }
}

/// Wall-clock timings for one completed point, as fed to [`JobObs::on_point`].
#[derive(Clone, Copy)]
struct PointTiming {
    /// Start of the execute span (µs since the profiler epoch).
    exec_start_us: u64,
    /// Simulate time: gap to the previous completion on this executor.
    exec_us: u64,
    /// Journal append time (one `write`; no `fsync`, see
    /// [`crate::jobstore`]). Reported as `server.journal_fsync_us`.
    fsync_us: u64,
}

/// Execution controls for one job run: the server-wide stop flag, the
/// per-job cancel flag, and the optional deterministic chaos plan.
pub struct JobCtrl<'a> {
    /// Server-wide stop flag (raised by `shutdown`).
    pub stop: &'a AtomicBool,
    /// Per-job cancel flag (raised by a `cancel` request).
    pub cancel: &'a AtomicBool,
    /// Deterministic fault plan; `None` runs fault-free.
    pub chaos: Option<&'a FaultPlan>,
}

impl<'a> JobCtrl<'a> {
    /// Controls for a plain, fault-free run driven only by `stop`.
    pub fn plain(stop: &'a AtomicBool, cancel: &'a AtomicBool) -> JobCtrl<'a> {
        JobCtrl {
            stop,
            cancel,
            chaos: None,
        }
    }

    fn halted(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.cancel.load(Ordering::Acquire)
    }
}

/// What happened to a job run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// Total sweep points in the grid.
    pub points: usize,
    /// Points completed (journaled) by the end of this run.
    pub completed: usize,
    /// Points replayed from the journal rather than re-simulated.
    pub resumed: usize,
    /// Whether the run stopped early (client gone or server stopping).
    pub cancelled: bool,
}

/// Build the evaluation harness and sweep points for a grid, exactly as a
/// job run does. Exposed so tests (and offline tools) can compute the
/// expected wire lines without a server in the loop.
pub fn build_harness(grid: &GridSpec) -> (EvaluationHarness, Vec<SweepPoint>) {
    build_harness_with_profiler(grid, Profiler::disabled())
}

/// [`build_harness`] with a span [`Profiler`]: harness construction and
/// worker tasks record `harness.*` spans into it. Results are bit-identical
/// either way.
pub fn build_harness_with_profiler(
    grid: &GridSpec,
    profiler: Profiler,
) -> (EvaluationHarness, Vec<SweepPoint>) {
    let config = system_config(grid);
    let mixes = WorkloadMix::generate(grid.mixes, config.cores, grid.seed);
    let harness = EvaluationHarness::with_threads_mode_profiler(
        config,
        mixes,
        worker_threads(grid),
        SimMode::FastForward,
        profiler,
    );
    (harness, sweep_points(grid))
}

/// The system a grid simulates: Table 4 (scaled) with the grid's
/// instruction budget, core count, rows per bank and seed.
pub fn system_config(grid: &GridSpec) -> SystemConfig {
    let mut config = SystemConfig::table4_scaled()
        .with_instructions(grid.instructions)
        .with_cores(grid.cores);
    config.memory.geometry.rows_per_bank = grid.rows;
    config.seed = grid.seed;
    config
}

/// The grid's sweep points, in [`GridSpec::points`] order. Each module label
/// gets one vulnerability profile and each (label, `HC_first`) pair one
/// threshold provider, shared across defenses;
/// [`crate::protocol::PROVIDER_NONE`] is the uniform No-Svärd threshold.
pub fn sweep_points(grid: &GridSpec) -> Vec<SweepPoint> {
    let profiles: BTreeMap<&str, _> = grid
        .providers
        .iter()
        .filter_map(|label| Some((label.as_str(), ModuleSpec::by_label(label)?)))
        .map(|(label, spec)| {
            // One bank although the geometry has 32 (ROADMAP item 2): every
            // bank reads bank 0's bins.
            let profile = ProfileGenerator::new(grid.seed).generate(&spec.scaled(grid.rows), 1);
            (label, profile)
        })
        .collect();
    let mut providers: BTreeMap<(String, u64), SharedThresholdProvider> = BTreeMap::new();
    grid.points()
        .into_iter()
        .map(|spec| {
            let provider = providers
                .entry((spec.provider.clone(), spec.hc_first))
                .or_insert_with(|| match profiles.get(spec.provider.as_str()) {
                    Some(profile) => Svard::build(profile, spec.hc_first, grid.bins).provider(),
                    None => Arc::new(UniformThreshold::new(spec.hc_first)),
                })
                .clone();
            SweepPoint {
                defense: spec.defense,
                provider,
                hc_first: spec.hc_first,
            }
        })
        .collect()
}

/// Harness worker threads for a grid: `workers`, or one per hardware thread
/// when it is 0.
fn worker_threads(grid: &GridSpec) -> usize {
    match grid.workers {
        0 => default_threads(),
        n => n,
    }
}

/// The point lines a fault-free server streams for `grid`, rendered under
/// `job_id` and keyed by point index, computed in process with no server in
/// the loop: the reference served lines are checked against.
pub fn reference_lines(grid: &GridSpec, job_id: &str) -> BTreeMap<usize, String> {
    let (harness, points) = build_harness(grid);
    let lines = Mutex::new(BTreeMap::new());
    let _ = harness.evaluate_all_streamed(&points, |i, point, metrics| {
        let line = point_line(job_id, i, point, &metrics.to_json());
        lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(i, line);
        true
    });
    lines.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Merge the `metrics` objects of journaled point lines (in index order)
/// with `MetricsSnapshot::merge`, so a resumed job's summary is
/// byte-identical to a fresh run's. A line that does not parse, or whose
/// metrics name anything but the `svard-obs` catalogue and the `mem.*`
/// counters of `MemStats`, is skipped.
pub fn merge_point_metrics(completed: &BTreeMap<usize, String>) -> MetricsSnapshot {
    let names: Vec<&'static str> = svard_obs::catalog::names()
        .chain(MemStats::metric_names())
        .collect();
    let mut merged = MetricsSnapshot::default();
    for line in completed.values() {
        let record = Json::parse(line).ok();
        if let Some(metrics) =
            record.and_then(|r| MetricsSnapshot::from_json(r.get("metrics")?, &names))
        {
            merged.merge(&metrics);
        }
    }
    merged
}

fn send(out: &Sender<String>, line: String) -> bool {
    out.send(line).is_ok()
}

/// Run one sweep job end to end, streaming response lines into `out`.
///
/// Returns an error only for setup failures (journal I/O, grid mismatch) —
/// the caller turns that into an `error` record. A vanished client, a
/// raised `stop` flag, a journal fault or a `cancel` request is not an
/// error: the run stops, the journal keeps whatever finished, and the
/// report says so. A cancel additionally journals a `cancelled` marker and
/// streams the same record, so resubmitting later resumes cleanly from the
/// completed points.
pub fn run_job(
    job_id: &str,
    grid: &GridSpec,
    out: &Sender<String>,
    store: &JobStore,
    ctrl: &JobCtrl<'_>,
    obs: &JobObs<'_>,
) -> Result<JobReport, String> {
    let mut journal = store.open_job(job_id, grid)?.with_chaos(ctrl.chaos);
    let n = grid.points().len();
    let resumed = journal.completed.range(..n).count();
    let report = |completed: usize, cancelled: bool| {
        let report = JobReport {
            points: n,
            completed,
            resumed,
            cancelled,
        };
        obs.on_job_end(&report);
        report
    };
    obs.set_progress(resumed, n);
    if resumed > 0 {
        // A resubmit after a fault/cancel landed here: journal replay is the
        // server half of the client's reconnect-and-resume loop.
        obs.stats.count("server.retry.resubmits");
    }

    if !send(out, accepted_line(job_id, n, resumed)) {
        return Ok(report(resumed, true));
    }
    for line in journal.completed.range(..n).map(|(_, l)| l.clone()) {
        if !send(out, line) {
            return Ok(report(resumed, true));
        }
    }

    let mut profiles: Vec<PhaseProfile> = Vec::new();
    if resumed < n {
        let (harness, points) = build_harness_with_profiler(grid, obs.profiler.clone());
        let mask: Vec<bool> = (0..n)
            .map(|i| !journal.completed.contains_key(&i))
            .collect();
        // The harness serializes the callback; the Mutex just satisfies
        // `Sync`. `last_us` starts after harness prep, so the first point's
        // execute span covers simulation time only.
        let stream = Mutex::new(Stream {
            journal: &mut journal,
            completed: resumed,
            failed: false,
            last_us: obs.profiler.now_us(),
        });
        let (_, _, sweep) =
            harness.evaluate_masked_streamed(&points, &mask, |i, point, metrics| {
                if ctrl.halted() {
                    return false;
                }
                let line = point_line(job_id, i, point, &metrics.to_json());
                if ctrl
                    .chaos
                    .is_some_and(|plan| plan.fire(FaultSite::ExecPanic))
                {
                    obs.stats.count("server.fault.exec_panics");
                    // The panic unwinds through the harness scope into the
                    // executor thread, whose catch_unwind fails only this job.
                    // The point was not journaled, so a resubmit re-runs it.
                    // lint: allow(panic) -- deliberate chaos injection site
                    panic!("chaos: injected executor panic at point {i}");
                }
                let mut stream = stream.lock().unwrap_or_else(PoisonError::into_inner);
                // Point execute time is the stream-side gap since the previous
                // completion (points finish concurrently; the stream is where
                // per-point service time is well defined).
                let (done_us, arg) = (obs.profiler.now_us(), i as u64);
                let exec_us = done_us.saturating_sub(stream.last_us);
                let exec_start_us = std::mem::replace(&mut stream.last_us, done_us);
                obs.profiler
                    .record("server.execute", exec_start_us, exec_us, arg);
                if let Err(e) = stream.journal.record_point(i, &line) {
                    match e {
                        RecordError::FsyncFail => obs.stats.count("server.fault.fsync_fails"),
                        RecordError::TornWrite => obs.stats.count("server.fault.torn_writes"),
                        RecordError::Io(_) => {}
                    }
                    stream.failed = true;
                    return false;
                }
                stream.completed += 1;
                let fsync_us = obs.profiler.now_us().saturating_sub(done_us);
                obs.profiler
                    .record("server.journal", done_us, fsync_us, arg);
                let send_start_us = obs.profiler.now_us();
                if !send(out, line) {
                    stream.failed = true;
                    return false;
                }
                let send_us = obs.profiler.now_us().saturating_sub(send_start_us);
                obs.profiler
                    .record("server.send", send_start_us, send_us, arg);
                let timing = PointTiming {
                    exec_start_us,
                    exec_us,
                    fsync_us,
                };
                obs.on_point(i, stream.completed, n, timing);
                true
            });
        let Stream {
            completed, failed, ..
        } = stream.into_inner().unwrap_or_else(PoisonError::into_inner);
        if ctrl.cancel.load(Ordering::Acquire) {
            // First-class cancel: journal a marker documenting where the run
            // stopped (skipped on replay) and close the stream with a
            // `cancelled` record instead of a summary.
            let marker = cancelled_line(job_id, n, completed);
            if journal.record_marker(&marker).is_ok() {
                obs.stats.count("server.cancel.markers");
            }
            let cancelled = report(completed, true);
            let _ = send(out, marker);
            return Ok(cancelled);
        }
        if failed || ctrl.stop.load(Ordering::Acquire) || completed < n {
            return Ok(report(completed, true));
        }
        profiles.extend(harness.prep_profile().iter().cloned());
        profiles.push(sweep);
    }

    let merged = merge_point_metrics(&journal.completed);
    let summary = summary_line(job_id, n, n, resumed, &merged, &profiles);
    // Every point is journaled, so the job counts as completed even if its
    // client has left and the summary cannot be delivered.
    let done = report(n, false);
    let delivered = send(out, summary);
    Ok(JobReport {
        cancelled: !delivered,
        ..done
    })
}

/// The streaming state of a job's fresh points.
struct Stream<'j, 'c> {
    journal: &'j mut JobJournal<'c>,
    /// Points journaled so far, resumed ones included.
    completed: usize,
    /// Whether a journal fault or a vanished client stopped the stream.
    failed: bool,
    /// Profiler timestamp of the previous point completion (or of harness
    /// readiness, for the first point) — the base of the execute-time gap.
    last_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobstore::tests::TempStore;
    use std::sync::mpsc::channel;

    fn tiny_grid() -> GridSpec {
        GridSpec {
            defenses: vec![svard_defenses::DefenseKind::Para],
            providers: vec!["none".to_string(), "S0".to_string()],
            hc_values: vec![64],
            mixes: 1,
            cores: 2,
            instructions: 1_000,
            rows: 256,
            seed: 11,
            bins: 8,
            workers: 1,
        }
    }

    #[test]
    fn run_job_streams_accepted_points_and_summary() {
        let store = TempStore::new("bridge-stream");
        let grid = tiny_grid();
        let (tx, rx) = channel();
        let stop = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        let stats = ServerStats::default();
        let report = run_job(
            "smoke",
            &grid,
            &tx,
            &store,
            &JobCtrl::plain(&stop, &cancel),
            &JobObs::disabled(&stats),
        )
        .unwrap();
        assert_eq!(
            report,
            JobReport {
                points: 2,
                completed: 2,
                resumed: 0,
                cancelled: false
            }
        );
        let lines: Vec<String> = rx.try_iter().collect();
        assert_eq!(lines.len(), 4, "accepted + 2 points + summary");
        assert!(lines[0].contains("\"type\":\"accepted\""));
        assert!(lines[1].contains("\"type\":\"point\""));
        assert!(lines[3].contains("\"type\":\"summary\""));
        assert!(lines[3].contains("\"completed\":2"));
    }

    #[test]
    fn a_finished_jobs_summary_profiles_its_sweep() {
        let store = TempStore::new("bridge-profile");
        let grid = tiny_grid();
        let (tx, rx) = channel();
        let (stop, cancel) = (AtomicBool::new(false), AtomicBool::new(false));
        let stats = ServerStats::default();
        let ctrl = JobCtrl::plain(&stop, &cancel);
        run_job("busy", &grid, &tx, &store, &ctrl, &JobObs::disabled(&stats)).unwrap();
        let summary = rx.try_iter().last().map(|l| Json::parse(&l).unwrap());
        let profile = summary.as_ref().and_then(|s| s.get("profile")?.as_array());
        let sweep = profile
            .and_then(|p| {
                p.iter()
                    .find(|p| p.get("phase") == Some(&Json::str("sweep")))
            })
            .expect("a sweep profile");
        let busy = sweep.get("busy_seconds").and_then(|b| match b {
            Json::Num(x) => Some(*x),
            _ => None,
        });
        assert!(busy.is_some_and(|b| b > 0.0), "{sweep:?}");
        // Two fresh points on one mix: two tasks.
        assert_eq!(sweep.get("tasks").and_then(Json::as_usize), Some(2));
    }

    #[test]
    fn rerunning_a_finished_job_replays_identical_points() {
        let store = TempStore::new("bridge-replay");
        let grid = tiny_grid();
        let stop = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        let ctrl = JobCtrl::plain(&stop, &cancel);
        let stats = ServerStats::default();
        let obs = JobObs::disabled(&stats);
        let (tx, rx) = channel();
        run_job("again", &grid, &tx, &store, &ctrl, &obs).unwrap();
        let first: Vec<String> = rx.try_iter().collect();
        let (tx, rx) = channel();
        let report = run_job("again", &grid, &tx, &store, &ctrl, &obs).unwrap();
        assert_eq!(report.resumed, 2);
        assert!(!report.cancelled);
        let second: Vec<String> = rx.try_iter().collect();
        // Point lines replay byte-identically; accepted/summary differ only
        // in their resumed count.
        assert_eq!(first[1..3], second[1..3]);
        assert!(second[0].contains("\"resumed\":2"));
    }

    #[test]
    fn a_raised_stop_flag_cancels_the_run() {
        let store = TempStore::new("bridge-stop");
        let grid = tiny_grid();
        let (tx, _rx) = channel();
        let stop = AtomicBool::new(true);
        let cancel = AtomicBool::new(false);
        let stats = ServerStats::default();
        let report = run_job(
            "halted",
            &grid,
            &tx,
            &store,
            &JobCtrl::plain(&stop, &cancel),
            &JobObs::disabled(&stats),
        )
        .unwrap();
        assert!(report.cancelled);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn a_cancel_journals_a_marker_and_streams_a_cancelled_record() {
        let store = TempStore::new("bridge-cancel");
        let grid = tiny_grid();
        let stop = AtomicBool::new(false);
        let cancel = AtomicBool::new(true);
        let stats = ServerStats::default();
        let (tx, rx) = channel();
        let report = run_job(
            "cxl",
            &grid,
            &tx,
            &store,
            &JobCtrl::plain(&stop, &cancel),
            &JobObs::disabled(&stats),
        )
        .unwrap();
        assert!(report.cancelled);
        assert_eq!(report.completed, 0);
        let lines: Vec<String> = rx.try_iter().collect();
        assert!(lines
            .last()
            .is_some_and(|l| l.contains("\"type\":\"cancelled\"")));
        assert_eq!(stats.snapshot().counter("server.cancel.markers"), 1);
        let journal_text = std::fs::read_to_string(store.path_for("cxl")).unwrap();
        assert!(journal_text.contains("\"type\":\"cancelled\""));
        // The marker does not block a later resubmit from finishing the job.
        cancel.store(false, Ordering::Release);
        let (tx, rx) = channel();
        let report = run_job(
            "cxl",
            &grid,
            &tx,
            &store,
            &JobCtrl::plain(&stop, &cancel),
            &JobObs::disabled(&stats),
        )
        .unwrap();
        assert_eq!(report.completed, 2);
        assert!(!report.cancelled);
        let lines: Vec<String> = rx.try_iter().collect();
        assert!(lines
            .last()
            .is_some_and(|l| l.contains("\"type\":\"summary\"")));
    }

    #[test]
    fn chaos_fsync_and_torn_faults_fail_the_run_but_resume_recovers() {
        use crate::chaos::{ChaosRates, SiteRate};
        let store = TempStore::new("bridge-chaos-journal");
        let grid = tiny_grid();
        let stop = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        let stats = ServerStats::default();
        let obs = JobObs::disabled(&stats);
        // First point tears its journal write, every later write is clean.
        let plan = FaultPlan::new(
            5,
            ChaosRates {
                torn: SiteRate::capped(1.0, 1),
                ..ChaosRates::QUIET
            },
        );
        let ctrl = JobCtrl {
            stop: &stop,
            cancel: &cancel,
            chaos: Some(&plan),
        };
        let (tx, _rx) = channel();
        let report = run_job("healme", &grid, &tx, &store, &ctrl, &obs).unwrap();
        assert!(report.cancelled, "torn write fails the run");
        assert_eq!(stats.snapshot().counter("server.fault.torn_writes"), 1);
        // Resubmit fault-free: the torn tail is repaired and the job
        // finishes, byte-identical to a never-faulted run.
        let (tx, rx) = channel();
        let healed = run_job(
            "healme",
            &grid,
            &tx,
            &store,
            &JobCtrl::plain(&stop, &cancel),
            &obs,
        )
        .unwrap();
        assert_eq!(healed.completed, 2);
        let healed_lines: Vec<String> = rx.try_iter().collect();
        let clean_store = TempStore::new("bridge-chaos-journal-ref");
        let (tx, rx) = channel();
        run_job(
            "healme",
            &grid,
            &tx,
            &clean_store,
            &JobCtrl::plain(&stop, &cancel),
            &obs,
        )
        .unwrap();
        let clean_lines: Vec<String> = rx.try_iter().collect();
        let points = |lines: &[String]| -> Vec<String> {
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"point\""))
                .cloned()
                .collect()
        };
        assert_eq!(points(&healed_lines), points(&clean_lines));
    }

    #[test]
    fn an_instrumented_run_fills_histograms_progress_and_spans() {
        let store = TempStore::new("bridge-instrumented");
        let grid = tiny_grid();
        let (tx, rx) = channel();
        let stop = AtomicBool::new(false);
        let cancel = AtomicBool::new(false);
        let stats = ServerStats::default();
        let live = LiveJob::default();
        let obs = JobObs {
            profiler: Profiler::new(256),
            stats: &stats,
            watchdog_multiple: 8,
            job: Some(&live),
        };
        let ctrl = JobCtrl::plain(&stop, &cancel);
        let report = run_job("spans", &grid, &tx, &store, &ctrl, &obs).unwrap();
        assert_eq!(report.completed, 2);
        assert_eq!(live.progress(), Some((2, 2)));
        drop(rx);
        let snap = stats.snapshot();
        assert_eq!(snap.counter("mem.cmd_issued"), 0, "no sim metrics leak in");
        assert_eq!(snap.counter("server.points_completed"), 2);
        let exec = snap.hists.get("server.point_exec_us").expect("exec hist");
        assert_eq!(exec.count, 2);
        let fsync = snap
            .hists
            .get("server.journal_fsync_us")
            .expect("fsync hist");
        assert_eq!(fsync.count, 2);
        // One execute/journal/send span per fresh point.
        let spans = obs.profiler.snapshot_spans();
        for name in ["server.execute", "server.journal", "server.send"] {
            assert_eq!(
                spans.iter().filter(|s| s.name == name).count(),
                2,
                "{name} spans"
            );
        }
        assert!(spans.iter().any(|s| s.name == "harness.sim_task"));
    }

    fn timing(exec_us: u64) -> PointTiming {
        PointTiming {
            exec_start_us: 0,
            exec_us,
            fsync_us: 10,
        }
    }

    #[test]
    fn watchdog_flags_points_beyond_the_running_p99() {
        let stats = ServerStats::default();
        let obs = JobObs {
            profiler: Profiler::new(64),
            stats: &stats,
            watchdog_multiple: 8,
            job: None,
        };
        // 20 ordinary points (~100us): too few at first, then a stable p99.
        for i in 0..20 {
            obs.on_point(i, i + 1, 100, timing(100));
        }
        assert_eq!(stats.snapshot().counter("server.watchdog_slow_points"), 0);
        // A point 8x slower than the p99 upper bound (127us) trips the dog.
        obs.on_point(20, 21, 100, timing(5_000));
        let snap = stats.snapshot();
        assert_eq!(snap.counter("server.watchdog_slow_points"), 1);
        assert!(obs
            .profiler
            .snapshot_spans()
            .iter()
            .any(|s| s.name == "server.watchdog_slow" && s.arg == 20));
        // Disabled watchdog stays quiet no matter what.
        let quiet = ServerStats::default();
        let obs = JobObs {
            profiler: Profiler::new(64),
            stats: &quiet,
            watchdog_multiple: 0,
            job: None,
        };
        for i in 0..20 {
            obs.on_point(i, i + 1, 100, timing(100));
        }
        obs.on_point(20, 21, 100, timing(1_000_000));
        assert_eq!(quiet.snapshot().counter("server.watchdog_slow_points"), 0);
    }

    #[test]
    fn default_grid_yields_the_fig12_sweep_with_named_providers() {
        let grid = GridSpec::default();
        let points = sweep_points(&grid);
        assert_eq!(points.len(), 80);
        let names = ["No Svärd", "Svärd-S0", "Svärd-M0", "Svärd-H1"];
        for (i, (point, spec)) in points.iter().zip(grid.points()).enumerate() {
            assert_eq!(point.defense, spec.defense, "point {i}");
            assert_eq!(point.hc_first, spec.hc_first, "point {i}");
            assert_eq!(point.provider.name(), names[i % names.len()], "point {i}");
        }
        let tiny = tiny_grid();
        assert_eq!(build_harness(&tiny).0.config(), &system_config(&tiny));
    }

    #[test]
    fn merged_point_lines_match_the_harness_summary() {
        let grid = tiny_grid();
        let (harness, points) = build_harness(&grid);
        let (_, summary) = harness.evaluate_all_streamed(&points, |_, _, _| true);
        assert!(summary.counter("mem.cycles") > 0);
        let mut lines = reference_lines(&grid, "m");
        assert_eq!(merge_point_metrics(&lines), summary);
        // A line that does not parse, or names an unknown metric, is skipped.
        let bogus = lines[&0].replace("mem.cycles", "mem.bogus");
        lines.extend([(7, bogus), (8, "{\"metrics\":".to_string())]);
        assert_eq!(merge_point_metrics(&lines), summary);
    }
}
