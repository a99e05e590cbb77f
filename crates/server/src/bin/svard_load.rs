//! `svard-load`: consistency checks and control requests for a running
//! `svard-server`.
//!
//! ```text
//! svard-load [--addr HOST:PORT] [--check] [--chaos-check]
//!            [--metrics-out PATH] [--shutdown]
//!            [--defenses PARA] [--providers none,S0] [--hc-values 64]
//!            [--mixes 1] [--cores 2] [--instructions 2000] [--rows 256]
//!            [--seed 42] [--bins 8] [--workers 1] [--prefix load]
//!            [--retries 40] [--retry-base-ms MS] [--retry-seed SEED]
//! ```
//!
//! Runs only the actions it is given, in this order. `--check` submits the
//! grid as two fresh jobs plus one resumed job and exits 1 unless all point
//! lines are bit-identical (after job-id normalization). `--chaos-check` is
//! the chaos-soak assertion: it computes the fault-free reference **in
//! process** (no server involved), then drives one self-healing job
//! (`--retries` attempts of seeded exponential-backoff retry with reconnect,
//! resuming over the server's journal replay) against the (presumably
//! chaos-injected) server and exits 1 unless the converged point lines and
//! summary metrics are byte-identical to the reference. `--metrics-out`
//! scrapes the server's `metrics` exposition to a file; `--shutdown` asks
//! the server to exit once everything else is done; both reconnect and
//! retry under the same `--retries` policy, so a dropped connection does
//! not leave the server running. With no action it exits 2. Serving
//! throughput is measured by perfbench's `serve_small_jobs`, not by this
//! bin.

use svard_obs::json::Json;
use svard_server::bridge;
use svard_server::cli::{
    arg_flag, arg_list, arg_list_parsed, arg_string, arg_u64, arg_usize, or_exit,
};
use svard_server::protocol::parse_defense;
use svard_server::{request_with_retry, run_job_with_retry, Client, GridSpec, RetryPolicy};

fn grid_from_args() -> Result<GridSpec, String> {
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
        workers: arg_usize("workers", 1),
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

/// The value of `result`, or print `svard-load: {context}: {error}` and
/// exit with `code`.
fn or_fail<T>(code: i32, context: &str, result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("svard-load: {context}: {e}");
        std::process::exit(code)
    })
}

fn main() {
    let addr = arg_string("addr").unwrap_or_else(|| "127.0.0.1:7979".to_string());
    let prefix = arg_string("prefix").unwrap_or_else(|| "load".to_string());
    let grid = or_exit(grid_from_args());
    let metrics_out = arg_string("metrics-out");
    let check_flag = arg_flag("check");
    let chaos_flag = arg_flag("chaos-check");
    let shutdown = arg_flag("shutdown");
    if !(check_flag || chaos_flag || shutdown || metrics_out.is_some()) {
        eprintln!(
            "svard-load: nothing to do; pass --check, --chaos-check, \
             --metrics-out PATH and/or --shutdown"
        );
        std::process::exit(2);
    }
    if check_flag {
        or_fail(1, "check failed", check(&addr, &grid, &prefix));
        eprintln!("# check passed: fresh and resumed jobs are bit-identical");
    }
    let policy = RetryPolicy {
        attempts: arg_usize("retries", 40),
        base_delay_ms: arg_u64("retry-base-ms", 50),
        seed: arg_u64("retry-seed", 42),
        ..RetryPolicy::default()
    };
    if chaos_flag {
        let (attempts, reconnects) = or_fail(
            1,
            "chaos-check failed",
            chaos_check(&addr, &grid, &prefix, policy),
        );
        eprintln!(
            "# chaos-check passed: converged byte-identically to the fault-free \
             reference in {attempts} attempt(s), {reconnects} reconnect(s)"
        );
    }
    if let Some(path) = metrics_out {
        let scrape = request_with_retry(&addr, "metrics scrape", &policy, Client::fetch_metrics);
        let (lines, _, _) = or_fail(2, "metrics scrape failed", scrape);
        let text = lines.join("\n") + "\n";
        or_fail(
            2,
            &format!("write {path}"),
            std::fs::write(&path, text).map_err(|e| e.to_string()),
        );
        eprintln!("# wrote {} metric lines to {path}", lines.len());
    }
    if shutdown {
        let bye = request_with_retry(&addr, "shutdown", &policy, Client::request_shutdown);
        or_fail(2, "shutdown failed", bye);
        eprintln!("# server acknowledged shutdown");
    }
}
