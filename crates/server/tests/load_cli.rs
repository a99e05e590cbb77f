//! The `svard-load` bin against an in-process server: it runs only the
//! actions it is given, so a control request submits no job and a call
//! with no action is a usage error. Control requests retry through dropped
//! connections.

use std::path::Path;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use svard_server::chaos::SiteRate;
use svard_server::{serve, ChaosConfig, ChaosRates, ServerConfig, ServerHandle};

mod common;
use common::TempDir;

fn start_server(dir: &TempDir) -> ServerHandle {
    start_server_with_chaos(dir, None)
}

fn start_server_with_chaos(dir: &TempDir, chaos: Option<ChaosConfig>) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: dir.path().into(),
        executors: 2,
        chaos,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// Wait up to 2 s for the server to raise its stop flag, which it does just
/// after acknowledging a shutdown.
fn wait_for_stop(server: &ServerHandle) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !server.stop_requested() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop_requested()
}

fn svard_load(server: &ServerHandle, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_svard-load"))
        .arg("--addr")
        .arg(server.addr().to_string())
        .args(args)
        .output()
        .unwrap()
}

/// The journal files in a state dir (none if the dir was never created).
fn journals(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|name| name.ends_with(".jsonl"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn shutdown_alone_stops_the_server_and_submits_no_job() {
    let dir = TempDir::new("load-cli-shutdown");
    let server = start_server(&dir);
    let out = svard_load(&server, &["--shutdown"]);
    assert!(out.status.success(), "{out:?}");
    assert!(wait_for_stop(&server), "the server was not asked to stop");
    assert_eq!(server.stats_snapshot().counter("server.jobs_submitted"), 0);
    server.shutdown();
    assert_eq!(journals(dir.path()), Vec::<String>::new());
}

#[test]
fn no_action_is_a_usage_error_and_submits_no_job() {
    let dir = TempDir::new("load-cli-no-action");
    let server = start_server(&dir);
    let out = svard_load(&server, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--check"));
    assert_eq!(server.stats_snapshot().counter("server.jobs_submitted"), 0);
    assert!(!server.stop_requested());
    server.shutdown();
    assert_eq!(journals(dir.path()), Vec::<String>::new());
}

#[test]
fn check_then_metrics_out_writes_the_exposition() {
    let dir = TempDir::new("load-cli-check");
    let server = start_server(&dir);
    let metrics = dir.path().join("metrics.txt");
    let out = svard_load(
        &server,
        &["--check", "--metrics-out", metrics.to_str().unwrap()],
    );
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        text.lines()
            .any(|l| l.starts_with("server.points_completed ")),
        "{text}"
    );
    // Two fresh jobs and one resubmit of the first.
    assert_eq!(server.stats_snapshot().counter("server.jobs_submitted"), 3);
    let mut names = journals(dir.path());
    names.sort();
    assert_eq!(names, ["load-check-a.jsonl", "load-check-b.jsonl"]);
    server.shutdown();
}

/// The server drops the first response line it writes, which cuts the
/// metrics scrape short; the scrape reconnects and retries, writes the
/// exposition, and the shutdown after it still reaches the server.
#[test]
fn metrics_out_and_shutdown_retry_through_a_dropped_connection() {
    let dir = TempDir::new("load-cli-chaos-drop");
    let chaos = ChaosConfig {
        seed: 1,
        rates: ChaosRates {
            drop: SiteRate::capped(1.0, 1),
            ..ChaosRates::QUIET
        },
    };
    let server = start_server_with_chaos(&dir, Some(chaos));
    let metrics = dir.path().join("metrics.txt");
    let out = svard_load(
        &server,
        &[
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--shutdown",
            "--retry-base-ms",
            "1",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("server.fault.conn_drops 1"), "{text}");
    assert!(wait_for_stop(&server), "the server was not asked to stop");
    server.shutdown();
}
