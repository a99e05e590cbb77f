//! `svard-load`: load generator and consistency checker for `svard-server`.
//!
//! ```text
//! svard-load [--addr HOST:PORT] [--connections 1,2] [--workers 1] [--jobs 1]
//!            [--defenses PARA] [--providers none,S0] [--hc-values 64]
//!            [--mixes 1] [--cores 2] [--instructions 2000] [--rows 256]
//!            [--seed 42] [--bins 8] [--prefix load] [--csv PATH] [--check]
//!            [--retries N] [--retry-base-ms MS] [--retry-seed SEED]
//!            [--chaos-check] [--metrics-out PATH] [--shutdown]
//! ```
//!
//! Sweeps connection counts (and harness worker counts) against a running
//! server, driving `--jobs` jobs per connection, and emits a throughput /
//! latency CSV to stdout (and `--csv PATH` if given), including
//! p50/p95/p99 per-point latency columns computed from client-side log2
//! histograms. `--retries N` makes every job self-healing: seeded
//! exponential-backoff retry with reconnect, resuming over the server's
//! journal replay — the load generator then survives a chaos-enabled or
//! restarting server. With `--check`, also submits the same grid as two
//! fresh jobs plus one resumed job and exits 1 unless all point lines are
//! bit-identical (after job-id normalization). `--chaos-check` is the
//! chaos-soak assertion: it computes the fault-free reference **in
//! process** (no server involved), then drives one retrying job against the
//! (presumably chaos-injected) server and exits 1 unless the converged
//! point lines and summary metrics are byte-identical to the reference.
//! `--metrics-out` scrapes the server's `metrics` exposition to a file
//! after the sweep; `--shutdown` asks the server to exit once everything
//! else is done.

use svard_obs::json::Json;
use svard_server::bridge;
use svard_server::cli::{
    arg_flag, arg_list, arg_list_parsed, arg_string, arg_u64, arg_usize, or_exit,
};
use svard_server::protocol::parse_defense;
use svard_server::{run_job_with_retry, run_load_retrying, Client, GridSpec, RetryPolicy};

fn grid_from_args(workers: usize) -> Result<GridSpec, String> {
    let defenses = arg_list("defenses", &["PARA"])
        .iter()
        .map(|name| parse_defense(name).ok_or(format!("unknown defense {name:?}")))
        .collect::<Result<_, String>>()?;
    let grid = GridSpec {
        defenses,
        providers: arg_list("providers", &["none", "S0"]),
        hc_values: arg_list_parsed("hc-values", &["64"])?,
        mixes: arg_usize("mixes", 1),
        cores: arg_usize("cores", 2),
        instructions: arg_u64("instructions", 2_000),
        rows: arg_usize("rows", 256),
        seed: arg_u64("seed", 42),
        bins: arg_usize("bins", 8),
        workers,
    };
    grid.validate()?;
    Ok(grid)
}

/// Replace the job id so point lines from different jobs compare equal, and
/// re-render canonically.
fn normalize(line: &str) -> Result<String, String> {
    let mut record = Json::parse(line)?;
    if let Some(map) = record.as_object_mut() {
        map.insert("job_id".to_string(), Json::str("X"));
    }
    Ok(record.render())
}

fn sorted_points(lines: &[String]) -> Result<Vec<String>, String> {
    let mut normalized = lines
        .iter()
        .map(|l| normalize(l))
        .collect::<Result<Vec<_>, _>>()?;
    normalized.sort();
    Ok(normalized)
}

/// Submit the same grid as two fresh jobs and one resumed job; every point
/// line must be bit-identical after job-id normalization.
fn check(addr: &str, grid: &GridSpec, prefix: &str) -> Result<(), String> {
    let mut client = Client::connect(addr)?;
    let first = client.run_job(&format!("{prefix}-check-a"), grid)?;
    let second = client.run_job(&format!("{prefix}-check-b"), grid)?;
    let resumed = client.run_job(&format!("{prefix}-check-a"), grid)?;
    if resumed.resumed != first.point_lines.len() {
        return Err(format!(
            "resume replayed {} of {} points",
            resumed.resumed,
            first.point_lines.len()
        ));
    }
    if resumed.point_lines != first.point_lines {
        return Err("resumed job did not replay byte-identical point lines".to_string());
    }
    if sorted_points(&first.point_lines)? != sorted_points(&second.point_lines)? {
        return Err("two fresh jobs with the same grid produced different points".to_string());
    }
    Ok(())
}

/// Chaos-soak convergence assertion: compute the fault-free reference **in
/// process** (no server, no journal), then drive one self-healing job against
/// the live — presumably chaos-injected — server. The converged point lines
/// and the summary's merged metrics must be byte-identical to the reference.
fn chaos_check(
    addr: &str,
    grid: &GridSpec,
    prefix: &str,
    policy: RetryPolicy,
) -> Result<(usize, usize), String> {
    let reference = bridge::reference_lines(grid, "X");
    let reference_metrics = bridge::merge_point_metrics(&reference).to_json();
    let reference_lines: Vec<String> = reference.into_values().collect();

    let job_id = format!("{prefix}-chaos-check");
    let report = run_job_with_retry(addr, &job_id, grid, &policy)?;
    if report.outcome.point_lines.len() != reference_lines.len() {
        return Err(format!(
            "server streamed {} points, reference has {}",
            report.outcome.point_lines.len(),
            reference_lines.len()
        ));
    }
    if sorted_points(&report.outcome.point_lines)? != sorted_points(&reference_lines)? {
        return Err(
            "served point lines diverge from the in-process fault-free reference".to_string(),
        );
    }
    let summary = Json::parse(&report.outcome.summary_line)?;
    let served_metrics = summary
        .get("metrics")
        .map(|m| m.render())
        .ok_or("summary record without metrics object")?;
    if served_metrics != reference_metrics {
        return Err("summary metrics diverge from the fault-free reference".to_string());
    }
    Ok((report.attempts, report.reconnects))
}

fn main() {
    let addr = arg_string("addr").unwrap_or_else(|| "127.0.0.1:7979".to_string());
    let mut connections: Vec<usize> = or_exit(arg_list_parsed("connections", &["1", "2"]));
    connections.retain(|&c| c > 0);
    let workers_list: Vec<usize> = or_exit(arg_list_parsed("workers", &["1"]));
    let jobs = arg_usize("jobs", 1);
    let prefix = arg_string("prefix").unwrap_or_else(|| "load".to_string());
    let retries = arg_usize("retries", 0);
    let retry = (retries > 0).then(|| RetryPolicy {
        attempts: retries,
        base_delay_ms: arg_u64("retry-base-ms", 50),
        seed: arg_u64("retry-seed", 42),
        ..RetryPolicy::default()
    });

    let mut csv = String::from(
        "connections,workers,jobs,points,wall_seconds,points_per_second,mean_point_latency_s,p50_point_latency_s,p95_point_latency_s,p99_point_latency_s\n",
    );
    for &workers in &workers_list {
        let grid = or_exit(grid_from_args(workers));
        for &conns in &connections {
            match run_load_retrying(
                &addr,
                conns,
                jobs,
                &grid,
                &format!("{prefix}-w{workers}"),
                retry.as_ref(),
            ) {
                Ok(point) => {
                    eprintln!(
                        "# {} connections x {} jobs ({} workers): {} points in {:.3}s ({:.2}/s)",
                        point.connections,
                        point.jobs,
                        point.workers,
                        point.points,
                        point.wall_seconds,
                        point.points_per_second
                    );
                    csv.push_str(&format!(
                        "{},{},{},{},{:.6},{:.3},{:.6},{:.6},{:.6},{:.6}\n",
                        point.connections,
                        point.workers,
                        point.jobs,
                        point.points,
                        point.wall_seconds,
                        point.points_per_second,
                        point.mean_point_latency,
                        point.p50_point_latency,
                        point.p95_point_latency,
                        point.p99_point_latency
                    ));
                }
                Err(e) => {
                    eprintln!("svard-load: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    print!("{csv}");
    if let Some(path) = arg_string("csv") {
        if let Err(e) = std::fs::write(&path, &csv) {
            eprintln!("svard-load: write {path}: {e}");
            std::process::exit(2);
        }
    }
    if arg_flag("check") {
        let grid = or_exit(grid_from_args(workers_list.first().copied().unwrap_or(1)));
        match check(&addr, &grid, &prefix) {
            Ok(()) => eprintln!("# check passed: fresh and resumed jobs are bit-identical"),
            Err(e) => {
                eprintln!("svard-load: check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if arg_flag("chaos-check") {
        let grid = or_exit(grid_from_args(workers_list.first().copied().unwrap_or(1)));
        // Chaos soaks need headroom: default to a generous retry budget when
        // the user didn't size one with --retries.
        let policy = retry.unwrap_or(RetryPolicy {
            attempts: 40,
            base_delay_ms: arg_u64("retry-base-ms", 50),
            seed: arg_u64("retry-seed", 42),
            ..RetryPolicy::default()
        });
        match chaos_check(&addr, &grid, &prefix, policy) {
            Ok((attempts, reconnects)) => eprintln!(
                "# chaos-check passed: converged byte-identically to the fault-free \
                 reference in {attempts} attempt(s), {reconnects} reconnect(s)"
            ),
            Err(e) => {
                eprintln!("svard-load: chaos-check failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = arg_string("metrics-out") {
        let scrape = Client::connect(&addr).and_then(|mut c| c.fetch_metrics());
        match scrape {
            Ok(lines) => {
                let mut text = lines.join("\n");
                text.push('\n');
                if let Err(e) = std::fs::write(&path, &text) {
                    eprintln!("svard-load: write {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!("# wrote {} metric lines to {path}", lines.len());
            }
            Err(e) => {
                eprintln!("svard-load: metrics scrape failed: {e}");
                std::process::exit(2);
            }
        }
    }
    if arg_flag("shutdown") {
        match Client::connect(&addr).and_then(|mut c| c.request_shutdown()) {
            Ok(()) => eprintln!("# server acknowledged shutdown"),
            Err(e) => {
                eprintln!("svard-load: shutdown failed: {e}");
                std::process::exit(2);
            }
        }
    }
}
