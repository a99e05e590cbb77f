//! Client connection and job drivers.
//!
//! [`Client`] is a thin line-oriented connection; [`Client::run_job`] drives
//! one submit to completion and verifies the response stream's shape, and
//! its `cancel_job`, `fetch_metrics` and `request_shutdown` send the control
//! requests. [`request_with_retry`] runs any of them with seeded
//! exponential-backoff retry and reconnect. [`run_job_with_retry`] is the
//! self-healing job driver built on it, leaning on the server's journal
//! replay so every reattempt *resumes* instead of restarting — and
//! cross-checking replayed point bytes across attempts, so a determinism
//! violation is an error, never silently accepted. The `svard-load` bin
//! builds its checks on these; serving throughput is measured by
//! perfbench's `serve_small_jobs`, not here.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use svard_obs::json::Json;

use crate::chaos::mix64;
use crate::protocol::GridSpec;
use crate::server::METRICS_EOF;

/// A line-oriented connection to a sweep server.
pub struct Client {
    stream: TcpStream,
    acc: Vec<u8>,
}

/// The result of driving one job to completion.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Total points the server accepted for the job.
    pub points: usize,
    /// Points replayed from the server's journal.
    pub resumed: usize,
    /// Every `point` record, as raw wire lines in arrival order.
    pub point_lines: Vec<String>,
    /// The closing `summary` record.
    pub summary_line: String,
}

impl Client {
    /// Connect, retrying briefly so a just-spawned server has time to bind.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let mut last_err = String::new();
        for _ in 0..50 {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    // Requests go out one write per line; without this, a
                    // line split across segments waits on a delayed ACK.
                    let _ = stream.set_nodelay(true);
                    return Ok(Client {
                        stream,
                        acc: Vec::new(),
                    });
                }
                Err(e) => {
                    last_err = e.to_string();
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        Err(format!("connect {addr}: {last_err}"))
    }

    /// Set a read deadline: [`Client::read_line`] fails with a retryable
    /// `read timeout` error if the server streams nothing for `ms`
    /// milliseconds (0 clears the deadline). The self-healing driver uses
    /// this so a wedged server cannot hang a retry loop forever.
    pub fn set_read_timeout(&mut self, ms: u64) -> Result<(), String> {
        let timeout = if ms == 0 {
            None
        } else {
            Some(Duration::from_millis(ms))
        };
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| format!("set_read_timeout: {e}"))
    }

    /// Send one request line, newline included, in a single write.
    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Read the next response line (blocking). `Ok(None)` means the server
    /// closed the connection.
    pub fn read_line(&mut self) -> Result<Option<String>, String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.acc.iter().position(|&b| b == b'\n') {
                let raw: Vec<u8> = self.acc.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&raw).trim_end().to_string();
                return Ok(Some(line));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.acc.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err("read timeout: server streamed nothing".to_string())
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    /// Submit a job and drain its response stream. Fails on an `error`
    /// record, a truncated stream, or a point count that does not match the
    /// accepted total.
    pub fn run_job(&mut self, job_id: &str, grid: &GridSpec) -> Result<JobOutcome, String> {
        let mut seen = BTreeMap::new();
        self.run_job_tracked(job_id, grid, &mut seen)
    }

    /// [`Client::run_job`] with cross-attempt determinism tracking: every
    /// point line is recorded into `seen` by index *as it arrives* (even if
    /// the stream later fails), and a replayed index whose bytes differ from
    /// an earlier attempt's is a fatal `determinism violation` error.
    pub fn run_job_tracked(
        &mut self,
        job_id: &str,
        grid: &GridSpec,
        seen: &mut BTreeMap<usize, String>,
    ) -> Result<JobOutcome, String> {
        let request = Json::obj([
            ("type", Json::str("submit")),
            ("job_id", Json::str(job_id)),
            ("grid", grid.to_json()),
        ]);
        self.send_line(&request.render())?;
        let mut outcome = JobOutcome {
            points: 0,
            resumed: 0,
            point_lines: Vec::new(),
            summary_line: String::new(),
        };
        loop {
            let line = self
                .read_line()?
                .ok_or("server closed the connection mid-job")?;
            let record = Json::parse(&line).map_err(|e| format!("bad response line: {e}"))?;
            match record.get("type").and_then(Json::as_str) {
                Some("accepted") => {
                    outcome.points = record.get("points").and_then(Json::as_usize).unwrap_or(0);
                    outcome.resumed = record.get("resumed").and_then(Json::as_usize).unwrap_or(0);
                }
                Some("point") => {
                    let index = record
                        .get("index")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| format!("point record without index: {line}"))?;
                    match seen.get(&index) {
                        Some(earlier) if earlier != &line => {
                            return Err(format!(
                                "determinism violation: point {index} of job {job_id} replayed \
                                 with different bytes"
                            ));
                        }
                        _ => {
                            seen.insert(index, line.clone());
                        }
                    }
                    outcome.point_lines.push(line);
                }
                Some("summary") => {
                    outcome.summary_line = line;
                    break;
                }
                Some("busy") => {
                    let depth = record.get("depth").and_then(Json::as_usize).unwrap_or(0);
                    return Err(format!("server busy (queue depth {depth})"));
                }
                Some("cancelled") => {
                    let completed = record
                        .get("completed")
                        .and_then(Json::as_usize)
                        .unwrap_or(0);
                    return Err(format!("job {job_id} cancelled after {completed} points"));
                }
                Some("error") => {
                    let message = record
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown error");
                    let retryable = matches!(record.get("retryable"), Some(Json::Bool(true)));
                    return Err(if retryable {
                        format!("transient server error: {message}")
                    } else {
                        format!("server error: {message}")
                    });
                }
                _ => return Err(format!("unexpected response record: {line}")),
            }
        }
        if outcome.point_lines.len() != outcome.points {
            return Err(format!(
                "job {job_id}: expected {} points, got {}",
                outcome.points,
                outcome.point_lines.len()
            ));
        }
        Ok(outcome)
    }

    /// Ask the server to cancel a running (or queued) job. Returns whether
    /// the job was active when the cancel arrived.
    pub fn cancel_job(&mut self, job_id: &str) -> Result<bool, String> {
        let request = [("type", Json::str("cancel")), ("job_id", Json::str(job_id))];
        self.send_line(&Json::obj(request).render())?;
        let line = self
            .read_line()?
            .ok_or("server closed the connection mid-cancel")?;
        let record = Json::parse(&line).map_err(|e| format!("bad cancel_ack line: {e}"))?;
        match record.get("type").and_then(Json::as_str) {
            Some("cancel_ack") => Ok(matches!(record.get("active"), Some(Json::Bool(true)))),
            _ => Err(format!("unexpected cancel response: {line}")),
        }
    }

    /// Request the server's flat `name value` metrics exposition. Returns
    /// the exposition lines (without the `# EOF` terminator).
    pub fn fetch_metrics(&mut self) -> Result<Vec<String>, String> {
        self.send_line(&Json::obj([("type", Json::str("metrics"))]).render())?;
        let mut lines = Vec::new();
        loop {
            let line = self
                .read_line()?
                .ok_or("server closed the connection mid-exposition")?;
            if line == METRICS_EOF {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    /// Ask the server to shut down. Returns once the server acknowledges
    /// with a `bye` record (it closes the listener shortly after).
    pub fn request_shutdown(&mut self) -> Result<(), String> {
        self.send_line(&Json::obj([("type", Json::str("shutdown"))]).render())?;
        match self.read_line()? {
            Some(line) => {
                let record = Json::parse(&line).map_err(|e| format!("bad bye line: {e}"))?;
                match record.get("type").and_then(Json::as_str) {
                    Some("bye") => Ok(()),
                    _ => Err(format!("unexpected shutdown response: {line}")),
                }
            }
            None => Ok(()),
        }
    }
}

/// How a self-healing client retries: attempt budget, seeded exponential
/// backoff, and the per-read deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (including the first); at least 1.
    pub attempts: usize,
    /// First backoff delay in milliseconds; doubles per attempt.
    pub base_delay_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub max_delay_ms: u64,
    /// Jitter seed: the same seed gives the same backoff schedule, so chaos
    /// soaks are replayable end to end.
    pub seed: u64,
    /// Read deadline per response line in milliseconds (0 = none).
    pub read_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base_delay_ms: 50,
            max_delay_ms: 2_000,
            seed: 0,
            read_timeout_ms: 120_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt + 1` (1-based `attempt` just failed):
    /// exponential with the ceiling applied, jittered deterministically into
    /// `[delay/2, delay]` by the policy seed.
    pub fn backoff_ms(&self, attempt: usize) -> u64 {
        let exp = (attempt.max(1) - 1).min(20) as u32;
        let delay = self
            .base_delay_ms
            .saturating_mul(1u64 << exp)
            .min(self.max_delay_ms.max(self.base_delay_ms));
        let half = (delay / 2).max(1);
        half + mix64(self.seed ^ attempt as u64) % half
    }
}

/// Whether a job error is worth a retry. Validation failures, cancels and
/// determinism violations are fatal; everything else (connection loss, read
/// timeouts, `busy` backpressure, retryable server errors) heals on a
/// resubmit thanks to journal replay.
pub fn is_retryable(err: &str) -> bool {
    !(err.starts_with("server error:")
        || err.contains("cancelled")
        || err.contains("determinism violation"))
}

/// The result of a retrying job run: the final outcome plus how hard the
/// client had to work for it.
#[derive(Debug, Clone)]
pub struct RetryReport {
    /// The successful job outcome. Its point lines are complete — the final
    /// attempt replays every journaled point before the fresh remainder.
    pub outcome: JobOutcome,
    /// Attempts used (1 = no faults encountered).
    pub attempts: usize,
    /// Reconnections performed after the first connect.
    pub reconnects: usize,
}

/// Drive one job to completion through faults: connect, submit, and on any
/// retryable failure back off and resubmit. The server's journal turns every
/// resubmit into a resume, and cross-attempt byte-tracking turns any replay
/// divergence into a hard error — so success means the job's point lines
/// are exactly what a fault-free run would have produced.
pub fn run_job_with_retry(
    addr: &str,
    job_id: &str,
    grid: &GridSpec,
    policy: &RetryPolicy,
) -> Result<RetryReport, String> {
    let mut seen: BTreeMap<usize, String> = BTreeMap::new();
    let (outcome, attempts, reconnects) =
        request_with_retry(addr, &format!("job {job_id}"), policy, |client| {
            client.run_job_tracked(job_id, grid, &mut seen)
        })?;
    Ok(RetryReport {
        outcome,
        attempts,
        reconnects,
    })
}

/// Run `request` on a fresh connection, and on a retryable failure (see
/// [`is_retryable`]) back off and run it again on a new one, up to the
/// policy's attempts. Returns the value with the attempts used and the
/// reconnections made after the first connect; `what` names the request in
/// the error when the attempts run out.
pub fn request_with_retry<T>(
    addr: &str,
    what: &str,
    policy: &RetryPolicy,
    mut request: impl FnMut(&mut Client) -> Result<T, String>,
) -> Result<(T, usize, usize), String> {
    let attempts = policy.attempts.max(1);
    let mut reconnects = 0usize;
    let mut last_err = String::new();
    for attempt in 1..=attempts {
        if attempt > 1 {
            std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt - 1)));
        }
        let mut client = match Client::connect(addr) {
            Ok(client) => client,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        if attempt > 1 {
            reconnects += 1;
        }
        if policy.read_timeout_ms > 0 && client.set_read_timeout(policy.read_timeout_ms).is_err() {
            last_err = "set_read_timeout failed".to_string();
            continue;
        }
        match request(&mut client) {
            Ok(value) => return Ok((value, attempt, reconnects)),
            Err(e) => {
                if !is_retryable(&e) {
                    return Err(e);
                }
                last_err = e;
            }
        }
    }
    Err(format!(
        "{what}: giving up after {attempts} attempts: {last_err}"
    ))
}
