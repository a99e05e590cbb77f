//! End-to-end round trips over a real TCP server: bit-identity of streamed
//! point lines against a direct harness run at several worker counts,
//! kill-and-resume replay from the on-disk journal, request latency, prompt
//! shutdown and the request frame bound.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use svard_defenses::DefenseKind;
use svard_obs::json::Json;
use svard_server::bridge;
use svard_server::jobstore::JobStore;
use svard_server::protocol::point_line;
use svard_server::queue::QueuedJob;
use svard_server::server::ServerState;
use svard_server::{serve, Client, GridSpec, ServerConfig};

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

fn start_server(dir: &TempDir) -> svard_server::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: dir.path().into(),
        executors: 2,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// Shut `server` down on another thread; `false` if that takes longer than
/// `limit` (the accept loop was never woken).
fn shuts_down_within(server: svard_server::ServerHandle, limit: Duration) -> bool {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit).is_ok()
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

/// The expected wire lines for a grid, computed with no server in the loop.
fn reference_lines(grid: &GridSpec) -> Vec<String> {
    bridge::reference_lines(grid, "X").into_values().collect()
}

#[test]
fn streamed_jobs_are_bit_identical_to_a_direct_harness_run_at_any_worker_count() {
    let expected = reference_lines(&tiny_grid(1));
    assert_eq!(expected.len(), 4);

    let dir = TempDir::new("rt-workers");
    let server = start_server(&dir);
    let addr = server.addr().to_string();
    for workers in [1usize, 2, 8] {
        let mut client = Client::connect(&addr).unwrap();
        let outcome = client
            .run_job(&format!("rt-w{workers}"), &tiny_grid(workers))
            .unwrap();
        assert_eq!(outcome.points, 4);
        assert_eq!(outcome.resumed, 0);
        // Points stream in completion order; sort by index for comparison.
        let mut got: Vec<(usize, String)> = outcome
            .point_lines
            .iter()
            .map(|l| {
                let index = Json::parse(l)
                    .unwrap()
                    .get("index")
                    .and_then(Json::as_usize)
                    .unwrap();
                (index, normalize(l))
            })
            .collect();
        got.sort();
        let got: Vec<String> = got.into_iter().map(|(_, l)| l).collect();
        let want: Vec<String> = expected.iter().map(|l| normalize(l)).collect();
        assert_eq!(got, want, "workers={workers}");
    }
    server.shutdown();
}

#[test]
fn a_killed_job_resumes_from_the_journal_with_byte_identical_lines() {
    let grid = tiny_grid(1);
    let expected: Vec<String> = reference_lines(&grid)
        .iter()
        .map(|l| normalize(l))
        .collect();

    // Simulate a server killed after two completed points: the journal
    // contains exactly the header plus two point lines, which is the on-disk
    // state the journal-then-send discipline guarantees.
    let state_dir = TempDir::new("rt-resume");
    let store = JobStore::new(state_dir.path()).unwrap();
    {
        let (harness, points) = bridge::build_harness(&grid);
        let journal = Mutex::new(store.open_job("killed", &grid).unwrap());
        let _ = harness.evaluate_all_streamed(&points, |i, point, metrics| {
            let mut journal = journal.lock().unwrap();
            if journal.completed.len() >= 2 {
                return false;
            }
            journal
                .record_point(i, &point_line("killed", i, point, &metrics.to_json()))
                .unwrap();
            true
        });
        let journal = journal.into_inner().unwrap();
        assert_eq!(journal.completed.len(), 2, "partial journal before restart");
    }

    // Restart: a fresh server over the same state dir must replay the two
    // journaled points verbatim and simulate only the remaining two.
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.path().into(),
        executors: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let resumed = client.run_job("killed", &grid).unwrap();
    assert_eq!(resumed.resumed, 2);
    assert_eq!(resumed.point_lines.len(), 4);
    let mut got: Vec<String> = resumed.point_lines.iter().map(|l| normalize(l)).collect();
    got.sort();
    let mut want = expected.clone();
    want.sort();
    assert_eq!(got, want, "resumed lines match the direct harness run");

    // A fresh job with the same grid produces the same points and the same
    // summary metrics — merging replayed lines changes nothing.
    let fresh = client.run_job("fresh", &grid).unwrap();
    let summary_metrics = |line: &str| {
        Json::parse(line)
            .unwrap()
            .get("metrics")
            .cloned()
            .unwrap()
            .render()
    };
    assert_eq!(
        summary_metrics(&resumed.summary_line),
        summary_metrics(&fresh.summary_line)
    );

    // Resubmitting an existing job id with a different grid is an error, not
    // a silent mix of two sweeps.
    let mut other = grid.clone();
    other.seed = 99;
    let err = client.run_job("killed", &other).unwrap_err();
    assert!(err.contains("different grid"), "{err}");
    server.shutdown();
}

#[test]
fn a_client_that_vanishes_cancels_the_job_without_corrupting_state() {
    let grid = tiny_grid(1);
    let state_dir = TempDir::new("rt-vanish");
    let state = ServerState::new(&ServerConfig {
        state_dir: state_dir.path().into(),
        ..ServerConfig::default()
    })
    .unwrap();
    let job = |out| QueuedJob {
        job_id: "gone".to_string(),
        grid: grid.clone(),
        out,
        live: Arc::default(),
        enqueued_us: 0,
    };
    let (tx, rx) = channel();
    drop(rx);
    let report = bridge::run_job(&state, &job(tx)).unwrap();
    assert!(report.cancelled);
    assert_eq!(report.completed, 0);
    // The journal is still resumable afterwards.
    let (tx, rx) = channel();
    let report = bridge::run_job(&state, &job(tx)).unwrap();
    assert!(!report.cancelled);
    assert_eq!(report.completed, 4);
    drop(rx);
}

/// The server's metrics once no job is executing, so the post-summary
/// steps of every finished job (GC included) have run.
fn settled_metrics(server: &svard_server::ServerHandle) -> svard_obs::MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = server.stats_snapshot();
        if snap.gauge("server.jobs_inflight") == 0 || Instant::now() > deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn finished_journals_are_pruned_after_each_summary_only_past_a_gc_limit() {
    let dir = TempDir::new("rt-gc");
    let journals = || std::fs::read_dir(dir.path()).unwrap().count();
    let serve_with = |gc_max| {
        serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: dir.path().into(),
            executors: 1,
            gc_max,
            ..ServerConfig::default()
        })
        .unwrap()
    };

    // Keep one finished journal: the second summary prunes the first job's.
    let server = serve_with(1);
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    for job_id in ["gc-a", "gc-b"] {
        client.run_job(job_id, &tiny_grid(1)).unwrap();
    }
    let snap = settled_metrics(&server);
    assert_eq!(snap.counter("server.gc.pruned_journals"), 1);
    assert_eq!(journals(), 1);
    server.shutdown();

    // Both limits 0: nothing is pruned, and the counter is never added.
    let server = serve_with(0);
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    for job_id in ["gc-c", "gc-d"] {
        client.run_job(job_id, &tiny_grid(1)).unwrap();
    }
    let snap = settled_metrics(&server);
    assert!(!snap.counters.contains_key("server.gc.pruned_journals"));
    assert_eq!(journals(), 3);
    server.shutdown();
}

#[test]
fn observability_does_not_perturb_point_lines_or_resume_identity() {
    // The same grid, served by a fully-instrumented server (spans on,
    // watchdog on, a second connection hammering `metrics` mid-job) and by
    // a server with observability fully disabled, must produce byte-identical
    // point lines — and both must match the direct harness run.
    let grid = tiny_grid(2);
    let want: Vec<String> = reference_lines(&grid)
        .iter()
        .map(|l| normalize(l))
        .collect();

    let sorted_lines = |outcome: &svard_server::JobOutcome| {
        let mut got: Vec<String> = outcome.point_lines.iter().map(|l| normalize(l)).collect();
        got.sort();
        got
    };
    let mut want_sorted = want.clone();
    want_sorted.sort();

    // Instrumented server: spans + watchdog enabled (the defaults), with a
    // concurrent metrics poller racing the job.
    let on_dir = TempDir::new("rt-obs-on");
    let instrumented = start_server(&on_dir);
    let addr = instrumented.addr().to_string();
    let poll_stop = std::sync::Arc::new(AtomicBool::new(false));
    let poller = {
        let addr = addr.clone();
        let poll_stop = std::sync::Arc::clone(&poll_stop);
        std::thread::spawn(move || {
            let mut scrapes = 0usize;
            let mut client = Client::connect(&addr).unwrap();
            while !poll_stop.load(std::sync::atomic::Ordering::Acquire) {
                let lines = client.fetch_metrics().unwrap();
                assert!(!lines.is_empty(), "exposition is never empty");
                scrapes += 1;
            }
            scrapes
        })
    };
    let mut client = Client::connect(&addr).unwrap();
    let on = client.run_job("obs-on", &grid).unwrap();
    poll_stop.store(true, std::sync::atomic::Ordering::Release);
    let scrapes = poller.join().unwrap();
    assert!(scrapes > 0, "the poller actually raced the job");

    // The scrape sees the instrumentation: histograms counted every point.
    let metrics = Client::connect(&addr).unwrap().fetch_metrics().unwrap();
    let metric_value = |name: &str| -> Option<u64> {
        metrics.iter().find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.parse().ok())
        })
    };
    assert_eq!(metric_value("server.points_completed"), Some(4));
    assert_eq!(metric_value("server.point_exec_us.count"), Some(4));
    assert_eq!(metric_value("server.queue_wait_us.count"), Some(1));
    assert_eq!(metric_value("server.queue_depth"), Some(0));
    instrumented.shutdown();

    // Dark server: no span storage, no watchdog.
    let off_dir = TempDir::new("rt-obs-off");
    let dark = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: off_dir.path().into(),
        executors: 1,
        profile_spans: 0,
        watchdog_multiple: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&dark.addr().to_string()).unwrap();
    let off = client.run_job("obs-off", &grid).unwrap();
    // Resume against the dark server replays the journaled lines verbatim.
    let resumed = client.run_job("obs-off", &grid).unwrap();
    assert_eq!(resumed.resumed, 4);
    dark.shutdown();

    assert_eq!(sorted_lines(&on), want_sorted, "instrumented == direct");
    assert_eq!(sorted_lines(&off), want_sorted, "dark == direct");
    // Replay is index-ordered while the fresh stream is completion-ordered,
    // so byte-identity is per line, not per stream position.
    assert_eq!(
        sorted_lines(&resumed),
        sorted_lines(&off),
        "resume replay is byte-identical under disabled observability"
    );
}

#[test]
fn connection_side_spans_land_on_their_own_thread_tracks() {
    // Spans are on by default; one TCP job crosses every serving stage.
    let dir = TempDir::new("rt-spans");
    let server = start_server(&dir);
    let profiler = server.profiler().clone();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    client.run_job("spans", &tiny_grid(1)).unwrap();
    server.shutdown();

    let spans = profiler.snapshot_spans();
    let tid = |name: &str| spans.iter().find(|s| s.name == name).map(|s| s.tid);
    for name in [
        "server.accept",
        "server.parse",
        "server.validate",
        "server.queue_wait",
    ] {
        assert!(tid(name).is_some(), "no {name} span");
    }
    let (accept, execute) = (tid("server.accept"), tid("server.execute"));
    assert!(accept.is_some_and(|t| t != 0) && execute.is_some_and(|t| t != 0));
    assert_ne!(
        accept, execute,
        "accept loop and executor get their own tracks"
    );
}

#[test]
fn metrics_shutdown_and_enriched_stats_speak_the_wire_protocol() {
    let dir = TempDir::new("rt-wire");
    let server = start_server(&dir);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // A fresh server already exposes the live gauges, even at zero.
    let lines = client.fetch_metrics().unwrap();
    for key in ["server.queue_depth", "server.jobs_inflight"] {
        assert!(
            lines.iter().any(|l| l.starts_with(&format!("{key} "))),
            "missing {key} in {lines:?}"
        );
    }

    // `stats` now carries the full registry snapshot plus per-job progress.
    let outcome = client.run_job("wire-job", &tiny_grid(1)).unwrap();
    assert_eq!(outcome.points, 4);
    client.send_line("{\"type\":\"stats\"}").unwrap();
    let stats_line = client.read_line().unwrap().unwrap();
    let stats = Json::parse(&stats_line).unwrap();
    let metrics = stats.get("metrics").expect("stats.metrics object");
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("server.points_completed"))
            .and_then(Json::as_usize),
        Some(4),
        "{stats_line}"
    );
    assert!(stats.get("jobs").is_some(), "{stats_line}");

    // `shutdown` answers `bye` and stops the accept loop.
    client.request_shutdown().unwrap();
    assert!(
        shuts_down_within(server, Duration::from_secs(2)),
        "shutdown after a wire shutdown hung"
    );
}

#[test]
fn a_server_that_never_saw_a_connection_shuts_down_promptly() {
    // The accept loop is blocked in `accept` with no client to wake it, so
    // only the shutdown's own wake-up connection can.
    let dir = TempDir::new("rt-idle");
    let server = start_server(&dir);
    assert!(
        shuts_down_within(server, Duration::from_secs(2)),
        "shutdown of an idle server hung"
    );
}

#[test]
fn back_to_back_requests_are_not_held_by_delayed_acks() {
    // A line sent as two writes (text, then the newline) stalls on Nagle plus
    // the peer's delayed ACK: about 40 ms per direction, so 20 pings would
    // take well over a second.
    let dir = TempDir::new("rt-nodelay");
    let server = start_server(&dir);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let start = Instant::now();
    for _ in 0..20 {
        client.send_line("{\"type\":\"ping\"}").unwrap();
        assert_eq!(
            client.read_line().unwrap().as_deref(),
            Some("{\"type\":\"pong\"}")
        );
    }
    let pings = start.elapsed();
    assert!(
        pings < Duration::from_millis(500),
        "20 pings took {pings:?}"
    );

    // A fresh job and its replay stream every line over the same connection.
    let fresh = client.run_job("nodelay-job", &tiny_grid(1)).unwrap();
    assert_eq!((fresh.points, fresh.resumed), (4, 0));
    let replay = client.run_job("nodelay-job", &tiny_grid(1)).unwrap();
    assert_eq!((replay.points, replay.resumed), (4, 4));
    server.shutdown();
}

#[test]
fn an_oversized_frame_gets_an_error_and_the_server_keeps_serving() {
    let dir = TempDir::new("rt-frame");
    let server = start_server(&dir);
    let addr = server.addr().to_string();
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // 2 MiB with no newline. The server stops reading past its frame bound,
    // so the write may fail once it closes the connection.
    let mut writer = stream.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(reply.contains("\"type\":\"error\""), "{reply}");
    assert!(reply.contains("frame exceeds"), "{reply}");
    flood.join().unwrap();

    let mut client = Client::connect(&addr).unwrap();
    client.send_line("{\"type\":\"ping\"}").unwrap();
    assert_eq!(
        client.read_line().unwrap().as_deref(),
        Some("{\"type\":\"pong\"}")
    );
    let metrics = client.fetch_metrics().unwrap();
    assert!(
        metrics.iter().any(|l| l == "server.errors 1"),
        "{metrics:?}"
    );
    server.shutdown();
}

#[test]
fn ping_stats_and_malformed_requests_get_answers() {
    let dir = TempDir::new("rt-misc");
    let server = start_server(&dir);
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Nesting past the parser's depth bound gets an error, not a crash.
    client.send_line(&"[".repeat(200_000)).unwrap();
    let err = client.read_line().unwrap().unwrap();
    assert!(err.contains("\"type\":\"error\""), "{err}");

    client.send_line("{\"type\":\"ping\"}").unwrap();
    assert_eq!(
        client.read_line().unwrap().as_deref(),
        Some("{\"type\":\"pong\"}")
    );

    client.send_line("{\"type\":\"stats\"}").unwrap();
    let stats = client.read_line().unwrap().unwrap();
    let stats_type = Json::parse(&stats)
        .ok()
        .and_then(|s| s.get("type").cloned());
    assert_eq!(stats_type, Some(Json::str("stats")), "{stats}");

    client.send_line("not json").unwrap();
    let err = client.read_line().unwrap().unwrap();
    assert!(err.contains("\"type\":\"error\""), "{err}");

    client
        .send_line("{\"type\":\"submit\",\"job_id\":\"../bad\"}")
        .unwrap();
    let err = client.read_line().unwrap().unwrap();
    assert!(err.contains("job_id"), "{err}");

    client
        .send_line("{\"type\":\"submit\",\"job_id\":\"ok\",\"grid\":{\"rows\":100}}")
        .unwrap();
    let err = client.read_line().unwrap().unwrap();
    assert!(err.contains("invalid grid"), "{err}");
    server.shutdown();
}
