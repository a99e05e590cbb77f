//! `svard-server`: long-running sweep-job server over TCP.
//!
//! ```text
//! svard-server [--addr 127.0.0.1:7979] [--state-dir DIR] [--executors N]
//!              [--profile-out trace.json] [--profile-spans N]
//!              [--watchdog-multiple N] [--queue-depth N]
//!              [--idle-timeout-ms MS] [--write-timeout-ms MS]
//!              [--state-gc-age SECS] [--state-gc-max N]
//!              [--chaos SEED] [--chaos-rates drop=0.05,panic=0.03:2,...]
//! ```
//!
//! Prints `READY <addr>` once the listener is bound, then serves until
//! killed or until a client sends a `shutdown` request. Job journals land in
//! `--state-dir`; restarting with the same directory resumes interrupted
//! jobs (completed points replay byte-identically instead of
//! re-simulating). `--state-gc-age`/`--state-gc-max` prune finished-job
//! journals on startup and after each summary. `--chaos SEED` turns on
//! deterministic fault injection (connection drops, delayed writes, failed
//! and torn journal appends, executor panics) at the default rates;
//! `--chaos-rates` overrides per-site rates and budgets
//! (`site=rate[:budget]`, sites `drop`/`delay`/`fsync`/`torn`/`panic`).
//! With `--profile-out`, the wall-clock span store is dumped as Chrome
//! trace-event JSON on shutdown.

use std::path::PathBuf;
use std::time::Duration;

use svard_obs::DEFAULT_SPAN_CAPACITY;
use svard_server::chaos::ChaosRates;
use svard_server::cli::{arg_string, arg_u64, arg_usize};
use svard_server::{serve, ChaosConfig, ServerConfig};

fn chaos_from_args() -> Result<Option<ChaosConfig>, String> {
    let Some(seed_str) = arg_string("chaos") else {
        if arg_string("chaos-rates").is_some() {
            return Err("--chaos-rates requires --chaos SEED".to_string());
        }
        return Ok(None);
    };
    let seed: u64 = seed_str
        .parse()
        .map_err(|_| format!("bad chaos seed {seed_str:?}"))?;
    let rates = match arg_string("chaos-rates") {
        Some(spec) => ChaosRates::parse(&spec)?,
        None => ChaosRates::default(),
    };
    Ok(Some(ChaosConfig { seed, rates }))
}

fn main() {
    let profile_out = arg_string("profile-out");
    let chaos = match chaos_from_args() {
        Ok(chaos) => chaos,
        Err(e) => {
            eprintln!("svard-server: {e}");
            std::process::exit(2);
        }
    };
    if let Some(c) = &chaos {
        eprintln!(
            "# svard-server: chaos enabled (seed {}): {:?}",
            c.seed, c.rates
        );
    }
    let config = ServerConfig {
        addr: arg_string("addr").unwrap_or_else(|| "127.0.0.1:7979".to_string()),
        state_dir: PathBuf::from(
            arg_string("state-dir").unwrap_or_else(|| "svard-jobs".to_string()),
        ),
        executors: arg_usize("executors", 2),
        profile_spans: arg_usize("profile-spans", DEFAULT_SPAN_CAPACITY),
        watchdog_multiple: arg_u64("watchdog-multiple", 8),
        queue_depth: arg_usize("queue-depth", 64),
        idle_timeout: Duration::from_millis(arg_u64("idle-timeout-ms", 300_000)),
        write_timeout: Duration::from_millis(arg_u64("write-timeout-ms", 30_000)),
        chaos,
        gc_age_secs: arg_u64("state-gc-age", 0),
        gc_max: arg_usize("state-gc-max", 0),
    };
    let state_dir = config.state_dir.display().to_string();
    match serve(config) {
        Ok(handle) => {
            println!("READY {}", handle.addr());
            eprintln!(
                "# svard-server listening on {} (state: {state_dir})",
                handle.addr()
            );
            while !handle.stop_requested() {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            let profiler = handle.profiler().clone();
            handle.shutdown();
            if let Some(path) = profile_out {
                match std::fs::write(&path, profiler.chrome_trace_json()) {
                    Ok(()) => eprintln!("# svard-server: wrote span trace to {path}"),
                    Err(e) => {
                        eprintln!("svard-server: write {path}: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("svard-server: {e}");
            std::process::exit(2);
        }
    }
}
