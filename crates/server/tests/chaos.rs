//! Chaos soak and fault-isolation tests over a real TCP server: seeded fault
//! injection (drops, delays, failed/torn fsyncs, executor panics) plus
//! kill-and-restart must all converge to the byte-identical fault-free sweep
//! through the self-healing retry client; an injected panic fails only its
//! own job; cancel-then-resubmit replays the completed prefix; a full queue
//! answers `busy` instead of growing without bound.

use std::time::Duration;

use svard_defenses::DefenseKind;
use svard_obs::json::Json;
use svard_server::bridge;
use svard_server::chaos::ChaosRates;
use svard_server::{
    run_job_with_retry, serve, ChaosConfig, Client, GridSpec, RetryPolicy, ServerConfig,
    ServerHandle,
};

mod common;
use common::TempDir;

fn tiny_grid(workers: usize) -> GridSpec {
    GridSpec {
        defenses: vec![DefenseKind::Para],
        providers: vec!["none".to_string(), "S0".to_string()],
        hc_values: vec![64, 256],
        mixes: 2,
        cores: 2,
        instructions: 2_000,
        rows: 256,
        seed: 11,
        bins: 8,
        workers,
    }
}

/// A grid whose points take long enough that a cancel or a backpressure probe
/// reliably lands mid-job.
fn slow_grid() -> GridSpec {
    GridSpec {
        instructions: 300_000,
        ..tiny_grid(1)
    }
}

fn start(dir: &TempDir, executors: usize, chaos: Option<ChaosConfig>) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: dir.path().into(),
        executors,
        chaos,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// Replace the job id so lines from different jobs compare equal, and
/// re-render canonically.
fn normalize(line: &str) -> String {
    let mut record = Json::parse(line).unwrap();
    if let Some(map) = record.as_object_mut() {
        map.insert("job_id".to_string(), Json::str("X"));
    }
    record.render()
}

fn sorted(lines: &[String]) -> Vec<String> {
    let mut normalized: Vec<String> = lines.iter().map(|l| normalize(l)).collect();
    normalized.sort();
    normalized
}

/// The fault-free expectation, computed with no server in the loop.
fn reference_sorted(grid: &GridSpec) -> Vec<String> {
    let lines: Vec<String> = bridge::reference_lines(grid, "X").into_values().collect();
    sorted(&lines)
}

/// A tight policy for tests: plenty of attempts, short backoff.
fn policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 40,
        base_delay_ms: 5,
        max_delay_ms: 50,
        seed: 7,
        read_timeout_ms: 30_000,
    }
}

fn counter(lines: &[String], name: &str) -> u64 {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn chaos_soak_converges_byte_identically_across_seeds_and_restart() {
    let grid = tiny_grid(2);
    let want = reference_sorted(&grid);
    for seed in [3u64, 17, 4242] {
        // Phase 1: every fault site armed, budget-capped so the plan goes
        // quiet; the self-healing client must converge to the reference.
        let rates =
            ChaosRates::parse("drop=0.4:3,delay=0.4:3,fsync=0.5:2,torn=0.5:2,panic=0.5:2").unwrap();
        let state_dir = TempDir::new(&format!("chaos-soak-{seed}"));
        let server = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.path().into(),
            executors: 2,
            chaos: Some(ChaosConfig { seed, rates }),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        let report = run_job_with_retry(&addr, "soak", &grid, &policy()).unwrap();
        assert_eq!(
            sorted(&report.outcome.point_lines),
            want,
            "seed {seed}: converged sweep matches the fault-free reference"
        );
        server.shutdown();

        // Phase 2 (kill/restart): a fresh fault-free server over the same
        // state dir replays the whole journal byte-identically.
        let restarted = serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: state_dir.path().into(),
            executors: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(&restarted.addr().to_string()).unwrap();
        let resumed = client.run_job("soak", &grid).unwrap();
        assert_eq!(resumed.resumed, resumed.points, "seed {seed}: full replay");
        assert_eq!(
            sorted(&resumed.point_lines),
            want,
            "seed {seed}: replayed bytes survive the restart"
        );
        restarted.shutdown();
    }
}

#[test]
fn an_injected_panic_fails_only_its_job_and_the_pool_survives() {
    // panic=1.0 with budget 1: the first executed point panics, nothing else
    // (omitted sites keep their defaults, so zero the rest explicitly).
    let rates = ChaosRates::parse("drop=0,delay=0,fsync=0,torn=0,panic=1.0:1").unwrap();
    let dir = TempDir::new("chaos-panic-iso");
    let server = start(&dir, 2, Some(ChaosConfig { seed: 9, rates }));
    let addr = server.addr().to_string();
    let grid = tiny_grid(1);

    let mut client = Client::connect(&addr).unwrap();
    let err = client.run_job("victim", &grid).unwrap_err();
    assert!(err.contains("panicked"), "{err}");

    // The executor pool survives: a different job on the same server
    // completes normally.
    let mut other = Client::connect(&addr).unwrap();
    let bystander = other.run_job("bystander", &grid).unwrap();
    assert_eq!(bystander.point_lines.len(), bystander.points);

    // And the victim resumes from its journal on the same connection.
    let healed = client.run_job("victim", &grid).unwrap();
    assert_eq!(sorted(&healed.point_lines), sorted(&bystander.point_lines));

    let metrics = Client::connect(&addr).unwrap().fetch_metrics().unwrap();
    assert_eq!(counter(&metrics, "server.fault.exec_panics"), 1);
    assert_eq!(counter(&metrics, "server.fault.caught_panics"), 1);
    assert_eq!(counter(&metrics, "server.jobs_completed"), 2);
    server.shutdown();
}

#[test]
fn a_cancelled_job_resubmits_replays_the_prefix_and_finishes() {
    let dir = TempDir::new("chaos-cancel-e2e");
    let server = start(&dir, 1, None);
    let addr = server.addr().to_string();
    let grid = slow_grid();

    let submit_addr = addr.clone();
    let submit_grid = grid.clone();
    let worker = std::thread::spawn(move || {
        Client::connect(&submit_addr)
            .unwrap()
            .run_job("c1", &submit_grid)
    });

    // Poll cancel until it lands on the active job; the sweep is slow enough
    // that this always happens mid-run.
    let mut canceller = Client::connect(&addr).unwrap();
    let mut active = false;
    for _ in 0..500 {
        if canceller.cancel_job("c1").unwrap() {
            active = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(active, "cancel landed while the job was live");
    let err = worker.join().unwrap().unwrap_err();
    assert!(err.contains("cancelled"), "{err}");

    // Resubmit: the retry driver rides out the already-active window while
    // the cancelled run winds down, then the journal replays the completed
    // prefix and the remainder is simulated fresh.
    let report = run_job_with_retry(&addr, "c1", &grid, &policy()).unwrap();
    assert_eq!(report.outcome.point_lines.len(), report.outcome.points);
    assert_eq!(sorted(&report.outcome.point_lines), reference_sorted(&grid));

    let metrics = Client::connect(&addr).unwrap().fetch_metrics().unwrap();
    assert!(counter(&metrics, "server.cancel.requests") >= 1);
    assert_eq!(counter(&metrics, "server.cancel.jobs"), 1);
    assert_eq!(counter(&metrics, "server.cancel.markers"), 1);
    server.shutdown();
}

#[test]
fn a_full_queue_answers_busy_and_recovers_after_draining() {
    let dir = TempDir::new("chaos-busy");
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: dir.path().into(),
        executors: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    // Many moderate points: seconds of runway between "queue observed full"
    // and the busy probe even under heavy test parallelism, while a cancel
    // still lands at the next point boundary quickly in debug builds.
    let grid = GridSpec {
        hc_values: vec![32, 64, 96, 128, 160, 192, 224, 256],
        ..slow_grid()
    };

    let spawn_job = |job_id: &'static str| {
        let addr = addr.clone();
        let grid = grid.clone();
        std::thread::spawn(move || Client::connect(&addr).unwrap().run_job(job_id, &grid))
    };
    // Wait (by polling the live gauges, not the wall clock — build-profile
    // speed must not matter) until the named gauge reflects the queue state.
    let wait_for_gauge = |name: &str, want: u64| {
        let mut probe = Client::connect(&addr).unwrap();
        for _ in 0..2_000 {
            let metrics = probe.fetch_metrics().unwrap();
            if counter(&metrics, name) >= want {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("gauge {name} never reached {want}");
    };
    // First job occupies the lone executor, second fills the depth-1 queue;
    // the third submit must then bounce off the full queue while the first
    // job still has most of its slow sweep left.
    let first = spawn_job("busy-a");
    wait_for_gauge("server.jobs_inflight", 1);
    let second = spawn_job("busy-b");
    wait_for_gauge("server.queue_depth", 1);

    let err = Client::connect(&addr)
        .unwrap()
        .run_job("busy-c", &tiny_grid(1))
        .unwrap_err();
    assert!(err.contains("server busy"), "{err}");

    // Drain: cancel both jobs, then the previously-rejected submit goes
    // through.
    let mut canceller = Client::connect(&addr).unwrap();
    canceller.cancel_job("busy-a").unwrap();
    canceller.cancel_job("busy-b").unwrap();
    let _ = first.join().unwrap();
    let _ = second.join().unwrap();
    let report = run_job_with_retry(&addr, "busy-c", &tiny_grid(1), &policy()).unwrap();
    assert_eq!(report.outcome.point_lines.len(), report.outcome.points);

    let metrics = Client::connect(&addr).unwrap().fetch_metrics().unwrap();
    assert!(counter(&metrics, "server.busy_rejections") >= 1);
    server.shutdown();
}
