//! The `serve_small_jobs` workload: a closed loop of 2 connections driving
//! an in-process `svard-server` (the library the binary wraps) over TCP on
//! localhost, on a fresh state directory.
//!
//! Each connection submits [`JOBS_PER_CONNECTION`] small fresh jobs (the
//! write path: simulate, journal, fsync), then resubmits the same ids (the
//! read path: full journal replays). Served point lines are checked against
//! the in-process `evaluate_all_streamed` lines after job-id normalization,
//! and every replay must be byte-identical to its fresh lines.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use svard_defenses::DefenseKind;
use svard_obs::{Profiler, DEFAULT_SPAN_CAPACITY};
use svard_server::bridge;
use svard_server::json::Json;
use svard_server::protocol::{point_line, PROVIDER_NONE};
use svard_server::{serve, Client, GridSpec, ServerConfig, ServerHandle};

use crate::report::{self, Report};
use crate::spans;

/// Concurrent client connections (closed loop: each waits for its job's
/// summary before submitting the next).
pub const CONNECTIONS: usize = 2;

/// Fresh jobs per connection per round; each is then resubmitted once.
pub const JOBS_PER_CONNECTION: usize = 50;

/// Server executors; every job uses one harness worker, so at most this many
/// harness threads run at once.
const EXECUTORS: usize = 2;

/// Minimum rounds per untraced run: two give 200 fresh and 200 replayed job
/// latencies, so each p90 has 20 samples beyond it.
const MIN_ROUNDS: usize = 2;

/// Placeholder job id of the in-process reference lines.
const REFERENCE_ID: &str = "reference";

/// Instructions per core of every job.
const INSTRUCTIONS: u64 = 4_000;

/// The grid of job `j` for workload seed `seed`: `svard-load`'s default
/// shape, 4 points (PARA, Hydra × none, S0 × `HC_first` 64), 1 mix, 2 cores.
pub fn grid(seed: u64, j: usize) -> GridSpec {
    GridSpec {
        defenses: vec![DefenseKind::Para, DefenseKind::Hydra],
        providers: vec![PROVIDER_NONE.to_string(), "S0".to_string()],
        hc_values: vec![64],
        mixes: 1,
        cores: 2,
        instructions: INSTRUCTIONS,
        rows: 256,
        seed: seed.wrapping_mul(1000).wrapping_add(j as u64),
        bins: 8,
        workers: 1,
    }
}

/// In-process expected output of one job grid.
struct Expected {
    grid: GridSpec,
    /// Point lines rendered with [`REFERENCE_ID`], by point index.
    lines: Vec<String>,
    build_s: f64,
    evaluate_s: f64,
}

/// Compute the expected point lines of a grid exactly as the server's
/// executor renders them.
fn expected(grid: GridSpec) -> Result<Expected, String> {
    let start = Instant::now();
    let (harness, points) = bridge::build_harness(&grid);
    let build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let lines = Mutex::new(BTreeMap::new());
    let _ = harness.evaluate_all_streamed(&points, |i, point, metrics| {
        if let Ok(mut lines) = lines.lock() {
            lines.insert(i, point_line(REFERENCE_ID, i, point, &metrics.to_json()));
        }
        true
    });
    let evaluate_s = start.elapsed().as_secs_f64();
    let lines: Vec<String> = lines
        .into_inner()
        .map_err(|_| "reference callback panicked")?
        .into_values()
        .collect();
    if lines.len() != points.len() {
        return Err(format!(
            "reference completed {} of {} points",
            lines.len(),
            points.len()
        ));
    }
    Ok(Expected {
        grid,
        lines,
        build_s,
        evaluate_s,
    })
}

/// The expected output of every job of a round, computed in process: the
/// output check's oracle. The untraced run's set-up computes it with every
/// server start: timing the server start alone (tens of microseconds of
/// thread spawning) gave a `setup_s` whose median moved by half between two
/// sets of runs.
fn expected_jobs(seed: u64) -> Result<Vec<Expected>, String> {
    (0..CONNECTIONS * JOBS_PER_CONNECTION)
        .map(|j| expected(grid(seed, j)))
        .collect()
}

/// A running server, the serving workload's set-up. Dropping it shuts the
/// server down and removes its state directory.
struct Server {
    /// Always `Some` until dropped.
    handle: Option<ServerHandle>,
    addr: String,
    state_dir: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// Start a server on a fresh (emptied) state directory.
fn start(state_dir: PathBuf, spans: bool) -> Result<Server, String> {
    if state_dir.exists() {
        std::fs::remove_dir_all(&state_dir)
            .map_err(|e| format!("clear {}: {e}", state_dir.display()))?;
    }
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.clone(),
        executors: EXECUTORS,
        profile_spans: if spans { DEFAULT_SPAN_CAPACITY } else { 0 },
        ..ServerConfig::default()
    })?;
    Ok(Server {
        addr: handle.addr().to_string(),
        handle: Some(handle),
        state_dir,
    })
}

/// Timing and output of one submit.
struct Submitted {
    accepted_s: f64,
    total_s: f64,
    resumed: usize,
    /// Point lines by index.
    lines: BTreeMap<usize, String>,
}

fn submit(client: &mut Client, job_id: &str, grid: &GridSpec) -> Result<Submitted, String> {
    let request = format!(
        "{{\"type\":\"submit\",\"job_id\":{},\"grid\":{}}}",
        Json::str(job_id).render(),
        grid.to_json().render()
    );
    let start = Instant::now();
    client.send_line(&request)?;
    let mut out = Submitted {
        accepted_s: 0.0,
        total_s: 0.0,
        resumed: 0,
        lines: BTreeMap::new(),
    };
    loop {
        let line = client
            .read_line()?
            .ok_or_else(|| format!("job {job_id}: server closed the connection"))?;
        let record = Json::parse(&line).map_err(|e| format!("job {job_id}: bad line: {e}"))?;
        match record.get("type").and_then(Json::as_str) {
            Some("accepted") => {
                out.accepted_s = start.elapsed().as_secs_f64();
                out.resumed = record.get("resumed").and_then(Json::as_usize).unwrap_or(0);
            }
            Some("point") => {
                let index = record
                    .get("index")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("job {job_id}: point without index"))?;
                out.lines.insert(index, line);
            }
            Some("summary") => break,
            _ => return Err(format!("job {job_id}: unexpected record {line}")),
        }
    }
    out.total_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// What one round measured.
#[derive(Default)]
struct RoundOut {
    wall_s: f64,
    jobs: usize,
    points: usize,
    fresh_s: Vec<f64>,
    replay_s: Vec<f64>,
    accepted_s: Vec<f64>,
    problems: Vec<String>,
}

/// Check a fresh job's lines against the reference and a replay against the
/// fresh lines.
fn check_job(job_id: &str, exp: &Expected, fresh: &Submitted, replay: &Submitted) -> Vec<String> {
    let mut problems = Vec::new();
    let served_id = format!("\"job_id\":{}", Json::str(job_id).render());
    let reference_id = format!("\"job_id\":{}", Json::str(REFERENCE_ID).render());
    let normalized: Vec<String> = fresh
        .lines
        .values()
        .map(|l| l.replacen(&served_id, &reference_id, 1))
        .collect();
    if fresh.resumed != 0 {
        problems.push(format!(
            "{job_id}: fresh job resumed {} points",
            fresh.resumed
        ));
    }
    if normalized != exp.lines {
        problems.push(format!(
            "{job_id}: served points differ from the in-process sweep"
        ));
    }
    if replay.resumed != exp.lines.len() {
        problems.push(format!(
            "{job_id}: replay resumed {} of {} points",
            replay.resumed,
            exp.lines.len()
        ));
    }
    if replay.lines != fresh.lines {
        problems.push(format!("{job_id}: replayed lines are not byte-identical"));
    }
    problems
}

/// One connection's closed loop: every fresh job, then every replay.
fn connection_loop(
    addr: &str,
    prefix: &str,
    jobs: &[(usize, &Expected)],
    profiler: &Profiler,
) -> Result<RoundOut, String> {
    let mut client = Client::connect(addr)?;
    let mut out = RoundOut::default();
    let mut fresh = Vec::new();
    for &(j, exp) in jobs {
        let id = format!("{prefix}-j{j}");
        let t0 = profiler.now_us();
        let s = submit(&mut client, &id, &exp.grid)?;
        profiler.record(
            spans::JOB,
            t0,
            profiler.now_us().saturating_sub(t0),
            j as u64,
        );
        out.fresh_s.push(s.total_s);
        out.accepted_s.push(s.accepted_s);
        fresh.push((id, s));
    }
    for ((id, first), &(j, exp)) in fresh.iter().zip(jobs) {
        let t0 = profiler.now_us();
        let s = submit(&mut client, id, &exp.grid)?;
        profiler.record(
            spans::REPLAY_JOB,
            t0,
            profiler.now_us().saturating_sub(t0),
            j as u64,
        );
        out.replay_s.push(s.total_s);
        out.problems.extend(check_job(id, exp, first, &s));
        out.points += first.lines.len() + s.lines.len();
        out.jobs += 2;
    }
    Ok(out)
}

/// One round: every connection runs its share of jobs concurrently. Each
/// round needs a server of its own (fresh state directory), so that its
/// first submits are fresh jobs.
fn round(
    server: &Server,
    expected: &[Expected],
    seed: u64,
    profiler: &Profiler,
) -> Result<RoundOut, String> {
    let shares: Vec<Vec<(usize, &Expected)>> = (0..CONNECTIONS)
        .map(|c| {
            expected
                .iter()
                .enumerate()
                .skip(c * JOBS_PER_CONNECTION)
                .take(JOBS_PER_CONNECTION)
                .collect()
        })
        .collect();
    let start = Instant::now();
    let results: Vec<Result<RoundOut, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(c, jobs)| {
                let addr = server.addr.as_str();
                let prefix = format!("s{seed}-c{c}");
                s.spawn(move || connection_loop(addr, &prefix, jobs, profiler))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".to_string()))
            })
            .collect()
    });
    let mut out = RoundOut {
        wall_s: start.elapsed().as_secs_f64(),
        ..RoundOut::default()
    };
    for r in results {
        let r = r?;
        out.jobs += r.jobs;
        out.points += r.points;
        out.fresh_s.extend(r.fresh_s);
        out.replay_s.extend(r.replay_s);
        out.accepted_s.extend(r.accepted_s);
        out.problems.extend(r.problems);
    }
    Ok(out)
}

fn describe(seed: u64) -> String {
    format!(
        "serve seed {seed}: {CONNECTIONS} connections x {JOBS_PER_CONNECTION} fresh + \
         {JOBS_PER_CONNECTION} replayed jobs per round, 4 points x 1 mix x 2 cores x \
         {INSTRUCTIONS} instructions per job, {EXECUTORS} executors x 1 worker"
    )
}

fn median_of<F: Fn(&Expected) -> f64>(expected: &[Expected], f: F) -> f64 {
    report::median(&expected.iter().map(f).collect::<Vec<_>>())
}

/// The untraced run. Rates are the upper quartile of the rounds' rates (the
/// fastest round while a run holds fewer than four), in host time: a round
/// waits on the per-job stall, not on the CPU, so it is not scaled to the
/// reference speed as the set-up is.
pub fn run_plain(seed: u64, seconds: u64, out_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(describe(seed));
    let dir = out_dir.join(format!("serve-state-{seed}-{}", std::process::id()));
    let profiler = Profiler::disabled();
    let setup = || Ok((expected_jobs(seed)?, start(dir.clone(), false)?));
    let measured = crate::measure(seconds, MIN_ROUNDS, setup, |(expected, server), _| {
        round(server, expected, seed, &profiler)
    })?;
    let rounds = measured.units;
    report.set("setup_s", "s", measured.setup_s);
    let (mut fresh, mut replay) = (Vec::new(), Vec::new());
    for r in &rounds {
        report.attempted += r.jobs as u64;
        for problem in &r.problems {
            report.problem(problem.clone());
        }
        fresh.extend(&r.fresh_s);
        replay.extend(&r.replay_s);
    }
    report.note(format!(
        "{} rounds, {} fresh and {} replayed job latencies",
        rounds.len(),
        fresh.len(),
        replay.len()
    ));
    let rate = |work: fn(&RoundOut) -> usize| {
        let rates: Vec<f64> = rounds.iter().map(|r| work(r) as f64 / r.wall_s).collect();
        report::quantile(&rates, 0.75)
    };
    let items = rate(|r| r.points);
    report.set("items_per_s", "1/s", items);
    report.set("points_per_s", "1/s", items);
    report.set("jobs_per_s", "1/s", rate(|r| r.jobs));
    report.set("job_latency_p50_s", "s", report::quantile(&fresh, 0.5));
    report.set("job_latency_p90_s", "s", report::quantile(&fresh, 0.9));
    report.set("replay_latency_p50_s", "s", report::quantile(&replay, 0.5));
    report.set("replay_latency_p90_s", "s", report::quantile(&replay, 0.9));
    Ok(report)
}

/// The traced run: an untraced round (the overhead reference), then a
/// round against a server with span recording on, with job-level spans
/// recorded by the benchmark. Writes both span traces under `trace_path`.
pub fn run_traced(seed: u64, out_dir: &Path, trace_path: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    report.note(describe(seed));
    let pid = std::process::id();
    let profiler = Profiler::new(DEFAULT_SPAN_CAPACITY);
    let t0 = profiler.now_us();
    let expected = expected_jobs(seed)?;
    profiler.record(spans::SETUP, t0, profiler.now_us().saturating_sub(t0), 0);
    let plain = start(
        out_dir.join(format!("serve-state-{seed}-{pid}-plain")),
        false,
    )?;
    let reference = round(&plain, &expected, seed, &Profiler::disabled());
    drop(plain);
    let reference = reference?;

    let traced = start(
        out_dir.join(format!("serve-state-{seed}-{pid}-traced")),
        true,
    )?;
    let t0 = profiler.now_us();
    let r = round(&traced, &expected, seed, &profiler);
    profiler.record(spans::ROUND, t0, profiler.now_us().saturating_sub(t0), 1);
    let (stats, server_profiler) = traced
        .handle
        .as_ref()
        .map(|s| (s.stats_snapshot(), s.profiler().clone()))
        .ok_or("server already stopped")?;
    drop(traced);
    let job_median = median_of(&expected, |e| e.build_s + e.evaluate_s);
    let build_median = median_of(&expected, |e| e.build_s);
    let r = r?;

    report.attempted += (reference.jobs + r.jobs) as u64;
    for problem in reference.problems.into_iter().chain(r.problems) {
        report.problem(problem);
    }
    report.set("trace.overhead_ratio", "ratio", r.wall_s / reference.wall_s);
    report.set("server.accept_s", "s", report::median(&r.accepted_s));
    report.set("server.harness_build_s", "s", build_median);
    let hist_p50_s = |name: &str| {
        stats
            .hists
            .get(name)
            .map_or(0.0, |h| report::hist_quantile(h, 0.5) / 1e6)
    };
    report.set(
        "server.queue_wait_p50_s",
        "s",
        hist_p50_s("server.queue_wait_us"),
    );
    report.set(
        "server.journal_fsync_p50_s",
        "s",
        hist_p50_s("server.journal_fsync_us"),
    );
    report.set(
        "server.overhead_s_per_job",
        "s",
        report::median(&r.fresh_s) - job_median,
    );
    spans::write_chrome_trace(&profiler, trace_path, &mut report)?;
    let server_trace = trace_path.with_extension("server.json");
    spans::write_chrome_trace(&server_profiler, &server_trace, &mut report)?;
    Ok(report)
}
