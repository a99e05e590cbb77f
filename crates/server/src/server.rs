//! TCP accept loop, connection handlers and executor pool.
//!
//! The server speaks line-delimited JSON (see [`crate::protocol`]). Each
//! connection is handled by its own thread and processes requests
//! sequentially: a `submit` blocks the connection until its response stream
//! (accepted / points / summary or error) has drained, which gives the
//! client strict per-job ordering for free. Jobs from all connections funnel
//! through one [`JobQueue`] into a small executor pool, so the number of
//! concurrently simulating jobs is bounded regardless of connection count.
//!
//! Shared state: every thread holds one `Arc<`[`ServerState`]`>` — the queue,
//! journal store, metric registry, job table, stop flag, profiler, chaos plan
//! and configuration — and each thread function takes `&ServerState` plus its
//! own per-call values (a listener, a stream, a request line, a
//! [`QueuedJob`]). [`ServerState::new`] builds it from a [`ServerConfig`], for
//! [`serve`] and for tests that drive [`bridge::run_job`] without a socket.
//!
//! Fault tolerance: executors wrap job execution in `catch_unwind`, so a
//! panicking point fails only its own job (with a retryable `error` record;
//! the journal keeps what finished) while a supervisor respawns any worker
//! thread that dies; the queue is bounded and answers `busy` backpressure;
//! idle connections are reaped; and a seeded [`FaultPlan`] can inject
//! deterministic faults at the connection-write and journal seams for chaos
//! testing.
//!
//! This crate is non-sim: wall-clock I/O timeouts and `server.*` operational
//! metrics below never touch the simulated clock domain.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use svard_obs::json::Json;
use svard_obs::{MetricsSnapshot, Profiler, DEFAULT_SPAN_CAPACITY};

use crate::bridge;
use crate::chaos::{ChaosRates, FaultPlan, FaultSite};
use crate::jobstore::{validate_job_id, JobStore};
use crate::protocol::{busy_line, cancel_ack_line, error_line, error_line_retryable, GridSpec};
use crate::queue::{JobQueue, PushOutcome, QueuedJob};

/// How long blocking reads and queue polls wait before re-checking the stop
/// flag. Purely an operational liveness knob; never affects results.
const POLL: Duration = Duration::from_millis(50);

/// Longest request line (without its newline) a connection may send. A
/// longer frame gets an error line and the connection is closed, so a client
/// streaming bytes with no newline cannot grow server memory without bound.
const MAX_FRAME: usize = 1 << 20;

/// Terminator line of the `metrics` text exposition stream.
pub const METRICS_EOF: &str = "# EOF";

/// Deterministic chaos configuration: a seed plus per-site injection rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// PRNG seed; the same seed and request interleaving replays the same
    /// fault schedule.
    pub seed: u64,
    /// Per-site rates and budgets.
    pub rates: ChaosRates,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7979` (port 0 picks a free port).
    pub addr: String,
    /// Directory for job journals.
    pub state_dir: PathBuf,
    /// Executor threads (concurrently running jobs); at least 1.
    pub executors: usize,
    /// Span-store capacity for lifecycle tracing (see [`Profiler::new`]); 0
    /// disables span recording entirely (histograms and counters stay on).
    pub profile_spans: usize,
    /// Executor watchdog: count and trace-flag points slower than this
    /// multiple of the running p99 point-execute time (0 disables).
    pub watchdog_multiple: u64,
    /// Maximum jobs waiting in the work queue before submits are answered
    /// with `busy` backpressure (0 = unbounded).
    pub queue_depth: usize,
    /// Reap connections idle (no request bytes) longer than this; zero
    /// disables the reaper.
    pub idle_timeout: Duration,
    /// Socket write timeout for response lines; zero leaves the OS default.
    pub write_timeout: Duration,
    /// Deterministic fault injection; `None` runs fault-free.
    pub chaos: Option<ChaosConfig>,
    /// Prune finished-job journals older than this many seconds on startup
    /// and after each summary (0 disables the age rule).
    pub gc_age_secs: u64,
    /// Keep at most this many finished-job journals (0 disables the cap).
    pub gc_max: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7979".to_string(),
            state_dir: PathBuf::from("svard-jobs"),
            executors: 2,
            profile_spans: DEFAULT_SPAN_CAPACITY,
            watchdog_multiple: 8,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(30),
            chaos: None,
            gc_age_secs: 0,
            gc_max: 0,
        }
    }
}

/// A live job's state, added to and removed from the server's job table in
/// one entry: the cancel flag a `cancel` request raises, and the progress its
/// executor reports once it has started the job.
#[derive(Default)]
pub struct LiveJob {
    /// Raised by a `cancel` request, whether the job is queued or running.
    pub cancel: AtomicBool,
    /// `(completed, points)`; `None` while the job waits in the queue.
    progress: Mutex<Option<(usize, usize)>>,
}

impl LiveJob {
    fn progress_slot(&self) -> MutexGuard<'_, Option<(usize, usize)>> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record the job's progress, shown in the `stats` record's `jobs` object.
    pub(crate) fn set_progress(&self, completed: usize, points: usize) {
        *self.progress_slot() = Some((completed, points));
    }

    /// The job's `(completed, points)`, once an executor has started it.
    pub(crate) fn progress(&self) -> Option<(usize, usize)> {
        *self.progress_slot()
    }
}

/// Active jobs (queued or executing) keyed by job id. Doubles as the
/// duplicate guard: two live submits of the same job id would race on one
/// journal, so the second is rejected (retryably — the first may be a dead
/// connection the server has not noticed yet).
#[derive(Default)]
pub(crate) struct JobTable {
    jobs: Mutex<BTreeMap<String, Arc<LiveJob>>>,
}

impl JobTable {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<LiveJob>>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a job as active. `None` means the id is already active.
    fn begin(&self, job_id: &str) -> Option<Arc<LiveJob>> {
        let mut jobs = self.lock();
        if jobs.contains_key(job_id) {
            return None;
        }
        let job = Arc::new(LiveJob::default());
        jobs.insert(job_id.to_string(), Arc::clone(&job));
        Some(job)
    }

    /// Raise the cancel flag of an active job. Returns whether the job was
    /// active.
    fn cancel(&self, job_id: &str) -> bool {
        match self.lock().get(job_id) {
            Some(job) => {
                job.cancel.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Remove a finished job — only if the entry still belongs to this run
    /// (guards against deleting a newer resubmit's entry).
    fn finish(&self, job_id: &str, job: &Arc<LiveJob>) {
        let mut jobs = self.lock();
        if jobs.get(job_id).is_some_and(|j| Arc::ptr_eq(j, job)) {
            jobs.remove(job_id);
        }
    }

    /// Progress of every started job as a JSON object:
    /// `{"job": {"completed": 3, "points": 8}, ...}`.
    fn progress_json(&self) -> Json {
        let jobs = self.lock();
        let started = jobs.iter().filter_map(|(id, job)| {
            let (completed, points) = job.progress()?;
            let completed = ("completed", Json::uint(completed as u64));
            let record = Json::obj([completed, ("points", Json::uint(points as u64))]);
            Some((id.as_str(), record))
        });
        Json::obj(started)
    }
}

/// Operational metrics, exposed through the `stats` and `metrics` requests.
#[derive(Default)]
pub(crate) struct ServerStats {
    metrics: Mutex<MetricsSnapshot>,
    inflight: AtomicUsize,
}

impl ServerStats {
    pub(crate) fn count(&self, name: &'static str) {
        self.add(name, 1);
    }

    pub(crate) fn add(&self, name: &'static str, delta: u64) {
        self.with(|m| m.add_counter(name, delta));
    }

    pub(crate) fn observe(&self, name: &'static str, value: u64) {
        self.with(|m| m.observe_hist(name, value));
    }

    /// Record `value` into the named histogram, returning the p99 and count
    /// of the distribution *before* this observation — what a watchdog needs
    /// to judge the new value against its predecessors.
    pub(crate) fn observe_with_prior_p99(&self, name: &'static str, value: u64) -> (u64, u64) {
        let mut prior = (0, 0);
        self.with(|m| {
            if let Some(h) = m.hists.get(name) {
                prior = (h.quantile(0.99), h.count);
            }
            m.observe_hist(name, value);
        });
        prior
    }

    fn with<F: FnOnce(&mut MetricsSnapshot)>(&self, f: F) {
        let mut metrics = match self.metrics.lock() {
            Ok(guard) => guard,
            // lint: allow(panic) -- poisoned only if a holder panicked; propagating is correct
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut metrics);
    }

    /// A frozen copy of the current metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.with(|m| snap = m.clone());
        snap
    }
}

/// Everything the server's threads share, behind one `Arc` (see the module
/// docs); `config` carries the connection, watchdog and GC settings.
pub struct ServerState {
    pub(crate) queue: JobQueue,
    pub(crate) store: JobStore,
    pub(crate) stats: ServerStats,
    pub(crate) jobs: JobTable,
    /// Raised by [`ServerHandle::shutdown`] or a wire `shutdown` request.
    pub(crate) stop: AtomicBool,
    pub(crate) profiler: Profiler,
    /// The one fault plan every seam polls; `None` runs fault-free.
    pub(crate) chaos: Option<FaultPlan>,
    pub(crate) config: ServerConfig,
}

impl ServerState {
    /// The state [`serve`] runs on, and tests drive [`bridge::run_job`] with:
    /// creates `config.state_dir` if needed; queue, registry and job table
    /// start empty.
    pub fn new(config: &ServerConfig) -> Result<ServerState, String> {
        Ok(ServerState {
            queue: JobQueue::with_capacity(config.queue_depth),
            store: JobStore::new(&config.state_dir)?,
            stats: ServerStats::default(),
            jobs: JobTable::default(),
            stop: AtomicBool::new(false),
            profiler: if config.profile_spans > 0 {
                Profiler::new(config.profile_spans)
            } else {
                Profiler::disabled()
            },
            chaos: config.chaos.map(|c| FaultPlan::new(c.seed, c.rates)),
            config: config.clone(),
        })
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Prune finished journals past the configured age or count budget
    /// ([`JobStore::gc`] prunes nothing when both are 0), on startup and
    /// after each summary, so a long-lived server's state dir stays bounded.
    fn gc(&self) {
        let pruned = self.store.gc(self.config.gc_age_secs, self.config.gc_max);
        if pruned > 0 {
            self.stats.add("server.gc.pruned_journals", pruned as u64);
        }
    }

    /// The full registry view served to `stats` and `metrics` requests: the
    /// recorded counters and histograms plus live queue-depth and inflight
    /// gauges (inserted even when 0, so scrapers always see the keys).
    fn registry_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.raise_gauge("server.queue_depth", self.queue.depth() as u64);
        snap.raise_gauge("server.queue_depth_peak", self.queue.depth_peak() as u64);
        snap.raise_gauge(
            "server.jobs_inflight",
            self.stats.inflight.load(Ordering::Acquire) as u64,
        );
        snap
    }
}

/// A running server: background threads plus the handle to stop them.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A frozen copy of the operational metrics.
    pub fn stats_snapshot(&self) -> MetricsSnapshot {
        self.state.registry_snapshot()
    }

    /// The server's span profiler. Clone it before [`ServerHandle::shutdown`]
    /// to export the spans recorded up to and during shutdown.
    pub fn profiler(&self) -> &Profiler {
        &self.state.profiler
    }

    /// Whether a `shutdown` wire request has asked the server to stop (the
    /// `svard-server` binary polls this to exit cleanly).
    pub fn stop_requested(&self) -> bool {
        self.state.stopping()
    }

    /// Stop accepting, drain the queue, and join every background thread.
    /// Jobs already executing finish their in-flight points (journaled), so
    /// nothing completed is lost.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::Release);
        wake_accept_loop(self.addr);
        self.state.queue.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Bind, spawn the accept loop and executor pool, and return immediately.
pub fn serve(config: ServerConfig) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let state = Arc::new(ServerState::new(&config)?);
    // Startup compaction: finished journals past their age or count budget
    // go now, before any job can resume them.
    state.gc();
    let (supervised, accepting) = (Arc::clone(&state), Arc::clone(&state));
    let threads = vec![
        std::thread::spawn(move || executor_supervisor(&supervised)),
        std::thread::spawn(move || accept_loop(&accepting, listener)),
    ];
    Ok(ServerHandle {
        addr,
        state,
        threads,
    })
}

/// Spawn `config.executors` worker threads (at least one) and respawn any
/// that die before shutdown. Workers normally exit only when the queue shuts
/// down; a death before that means a panic escaped the per-job
/// `catch_unwind`, and losing the thread would silently shrink the pool.
fn executor_supervisor(state: &Arc<ServerState>) {
    let spawn = || {
        let state = Arc::clone(state);
        std::thread::spawn(move || executor_loop(&state))
    };
    let executors = state.config.executors.max(1);
    let mut workers: Vec<JoinHandle<()>> = (0..executors).map(|_| spawn()).collect();
    while !state.stopping() {
        std::thread::sleep(POLL);
        for slot in workers.iter_mut() {
            if slot.is_finished() && !state.stopping() {
                let dead = std::mem::replace(slot, spawn());
                let _ = dead.join();
                state.stats.count("server.fault.executor_respawns");
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
}

fn executor_loop(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        let wait_us = state.profiler.now_us().saturating_sub(job.enqueued_us);
        state
            .profiler
            .record("server.queue_wait", job.enqueued_us, wait_us, 0);
        state.stats.observe("server.queue_wait_us", wait_us);
        let inflight = state.stats.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        state
            .stats
            .with(|m| m.raise_gauge("server.jobs_inflight_peak", inflight as u64));
        // Crash isolation: a panicking point (injected or genuine) unwinds
        // out of the harness into this frame and fails only this job. The
        // journal keeps everything that completed, so the client's resubmit
        // resumes rather than restarts.
        let result = catch_unwind(AssertUnwindSafe(|| bridge::run_job(state, &job)));
        match result {
            // `run_job` has counted the job's end already.
            Ok(Ok(report)) => {
                if report.cancelled
                    && report.completed < report.points
                    && !job.live.cancel.load(Ordering::Acquire)
                    && !state.stopping()
                {
                    // A journal fault (failed or torn append) ended the run
                    // early with no terminating record. A vanished client's
                    // channel is already dead, so this only reaches clients
                    // still listening — and they can resume.
                    let _ = job.out.send(error_line_retryable(&format!(
                        "job {} hit a journal fault after {} points; resubmit to resume",
                        job.job_id, report.completed
                    )));
                }
                if !report.cancelled && report.completed == report.points {
                    state.gc();
                }
            }
            Ok(Err(message)) => {
                state.stats.count("server.jobs_rejected");
                let _ = job.out.send(error_line(&message));
            }
            Err(_) => {
                state.stats.count("server.fault.caught_panics");
                let _ = job.out.send(error_line_retryable(&format!(
                    "job {} panicked; resubmit to resume from the journal",
                    job.job_id
                )));
            }
        }
        state.jobs.finish(&job.job_id, &job.live);
        state.stats.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(state: &Arc<ServerState>, listener: TcpListener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    // `accept` blocks; whoever raises `stop` then wakes it with
    // [`wake_accept_loop`], whose connection is dropped unserved here.
    while let Ok((stream, _)) = listener.accept() {
        if state.stopping() {
            break;
        }
        let accepted_us = state.profiler.now_us();
        state.stats.count("server.connections");
        let connection = Arc::clone(state);
        connections.push(std::thread::spawn(move || {
            handle_connection(&connection, stream)
        }));
        state.profiler.record(
            "server.accept",
            accepted_us,
            state.profiler.now_us().saturating_sub(accepted_us),
            connections.len() as u64,
        );
        connections.retain(|c| !c.is_finished());
    }
    // Refuse new clients at once rather than while the handlers drain.
    drop(listener);
    for handle in connections {
        let _ = handle.join();
    }
}

/// Wake an accept loop blocked in `accept` by connecting to its listener
/// (through loopback when it is bound to an unspecified address). Call it
/// after raising the stop flag; once the loop has exited the connect is
/// simply refused.
fn wake_accept_loop(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    // A short read timeout keeps the thread responsive to shutdown without
    // busy-waiting; partial lines accumulate in `acc` across reads (a plain
    // `BufReader::read_line` would lose them on timeout).
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    // Without this, Nagle holds a response's last small segment until the
    // client's delayed ACK, up to 40 ms per request.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let config = &state.config;
    if !config.write_timeout.is_zero() {
        let _ = writer.set_write_timeout(Some(config.write_timeout));
    }
    let mut io = ConnIo { writer, state };
    let mut acc: Vec<u8> = Vec::new();
    // `acc[..scanned]` is known to hold no newline.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    while !state.stopping() {
        while let Some(end) = acc
            .get(scanned..)
            .and_then(|fresh| fresh.iter().position(|&b| b == b'\n'))
            .map(|pos| scanned + pos)
        {
            scanned = 0;
            if end > MAX_FRAME {
                reject_oversized_frame(&mut io);
                return;
            }
            let raw: Vec<u8> = acc.drain(..=end).collect();
            let line = String::from_utf8_lossy(&raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if !handle_request(&mut io, &line) {
                return;
            }
            // A request (however long its job ran) counts as activity.
            last_activity = Instant::now();
        }
        scanned = acc.len();
        if scanned > MAX_FRAME {
            reject_oversized_frame(&mut io);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                acc.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Idle reaper: a connection that sends nothing for the whole
                // idle window is dead weight — close it so threads and fds
                // cannot pile up behind silent clients.
                if !config.idle_timeout.is_zero() && last_activity.elapsed() >= config.idle_timeout
                {
                    state.stats.count("server.conn_idle_reaped");
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Answer a request frame longer than [`MAX_FRAME`]; the caller then closes
/// the connection, since the rest of the frame cannot be skipped reliably.
fn reject_oversized_frame(io: &mut ConnIo<'_>) {
    io.state.stats.count("server.errors");
    let _ = io.write_line(&error_line(&format!("frame exceeds {MAX_FRAME} bytes")));
}

/// The response-writing half of a connection: the socket and the server
/// state, whose chaos plan's connection-level faults (drops, delayed/short
/// writes) are injected here — the single seam every response line passes
/// through.
struct ConnIo<'a> {
    writer: TcpStream,
    state: &'a ServerState,
}

impl ConnIo<'_> {
    /// Write one response line. Returns `false` when the connection should
    /// close (client gone, write timed out, or an injected drop).
    fn write_line(&mut self, line: &str) -> bool {
        let stats = &self.state.stats;
        if let Some(plan) = &self.state.chaos {
            if plan.fire(FaultSite::ConnDrop) {
                stats.count("server.fault.conn_drops");
                let _ = self.writer.shutdown(Shutdown::Both);
                return false;
            }
            if plan.fire(FaultSite::WriteDelay) {
                // Short-then-delayed write: the client sees half a line, a
                // pause, then the rest — exercising its accumulator path.
                stats.count("server.fault.write_delays");
                let bytes = line.as_bytes();
                let split = bytes.len() / 2;
                let (head, tail) = bytes.split_at(split.min(bytes.len()));
                let delay = plan.delay_ms(plan.fired(FaultSite::WriteDelay));
                let ok = self.write_all(head)
                    && {
                        std::thread::sleep(Duration::from_millis(delay));
                        true
                    }
                    && self.write_all(tail)
                    && self.write_all(b"\n");
                return ok;
            }
        }
        // One write per line: a separate 1-byte newline write would sit in
        // Nagle's buffer until the peer's delayed ACK (40 ms on Linux).
        self.write_all(format!("{line}\n").as_bytes())
    }

    fn write_all(&mut self, bytes: &[u8]) -> bool {
        let result = self
            .writer
            .write_all(bytes)
            .and_then(|()| self.writer.flush());
        match result {
            Ok(()) => true,
            Err(e) => {
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    self.state.stats.count("server.conn_write_timeouts");
                }
                false
            }
        }
    }
}

/// Handle one request line. Returns `false` when the connection should close.
fn handle_request(io: &mut ConnIo<'_>, line: &str) -> bool {
    let state = io.state;
    let (stats, profiler) = (&state.stats, &state.profiler);
    let parse_us = profiler.now_us();
    let parsed = Json::parse(line);
    profiler.record(
        "server.parse",
        parse_us,
        profiler.now_us().saturating_sub(parse_us),
        line.len() as u64,
    );
    let request = match parsed {
        Ok(value) => value,
        Err(e) => {
            stats.count("server.errors");
            return io.write_line(&error_line(&format!("bad request: {e}")));
        }
    };
    match request.get("type").and_then(Json::as_str) {
        Some("ping") => io.write_line(&Json::obj([("type", Json::str("pong"))]).render()),
        Some("stats") => {
            let record = Json::obj([
                ("type", Json::str("stats")),
                ("metrics", state.registry_snapshot().to_json_value()),
                ("jobs", state.jobs.progress_json()),
            ]);
            io.write_line(&record.render())
        }
        Some("metrics") => {
            let text = state.registry_snapshot().to_text();
            for metric_line in text.lines() {
                if !io.write_line(metric_line) {
                    return false;
                }
            }
            io.write_line(METRICS_EOF)
        }
        Some("cancel") => {
            stats.count("server.cancel.requests");
            let job_id = match request.get("job_id").and_then(Json::as_str) {
                Some(id) => id,
                None => {
                    stats.count("server.errors");
                    return io.write_line(&error_line("cancel requires a job_id"));
                }
            };
            let active = state.jobs.cancel(job_id);
            if active {
                stats.count("server.cancel.jobs");
            }
            io.write_line(&cancel_ack_line(job_id, active))
        }
        Some("shutdown") => {
            // Acknowledge, then raise the stop flag the connection handlers
            // and the `svard-server` binary poll, and wake the accept loop
            // through the address this connection reached it on.
            let _ = io.write_line(&Json::obj([("type", Json::str("bye"))]).render());
            state.stop.store(true, Ordering::Release);
            if let Ok(listen_addr) = io.writer.local_addr() {
                wake_accept_loop(listen_addr);
            }
            false
        }
        Some("submit") => handle_submit(io, &request),
        _ => {
            stats.count("server.errors");
            io.write_line(&error_line("unknown request type"))
        }
    }
}

fn handle_submit(io: &mut ConnIo<'_>, request: &Json) -> bool {
    let state = io.state;
    let (stats, profiler) = (&state.stats, &state.profiler);
    let validate_us = profiler.now_us();
    let validated = validate_submit(request);
    profiler.record(
        "server.validate",
        validate_us,
        profiler.now_us().saturating_sub(validate_us),
        u64::from(validated.is_err()),
    );
    let (job_id, grid) = match validated {
        Ok(submit) => submit,
        Err(message) => {
            stats.count("server.errors");
            return io.write_line(&error_line(&message));
        }
    };
    // Duplicate guard: two live submits of one job id would race on one
    // journal. Retryable — the earlier submit may be a dead connection whose
    // executor has not noticed yet, in which case a retry will get through.
    let Some(live) = state.jobs.begin(&job_id) else {
        stats.count("server.errors");
        return io.write_line(&error_line_retryable(&format!(
            "job {job_id:?} is already active"
        )));
    };
    stats.count("server.jobs_submitted");
    let (tx, rx) = channel();
    match state.queue.push(QueuedJob {
        job_id: job_id.clone(),
        grid,
        out: tx,
        live: Arc::clone(&live),
        enqueued_us: profiler.now_us(),
    }) {
        PushOutcome::Queued => {}
        PushOutcome::Busy => {
            // Backpressure: the queue is full, so say so instead of growing
            // without bound. The job never reached an executor, so release
            // its table entry here.
            state.jobs.finish(&job_id, &live);
            stats.count("server.busy_rejections");
            return io.write_line(&busy_line(&job_id, state.queue.depth()));
        }
        PushOutcome::Shutdown => {
            state.jobs.finish(&job_id, &live);
            return io.write_line(&error_line("server is shutting down"));
        }
    }
    // Forward the job's response stream until the executor drops its sender
    // (job finished, cancelled, or errored). Dropping `rx` on a client write
    // failure is what cancels the running job.
    loop {
        match rx.recv_timeout(POLL) {
            Ok(line) => {
                if !io.write_line(&line) {
                    return false;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if state.stopping() {
                    return false;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return true,
        }
    }
}

/// The job id and grid of a `submit` request, or why it is invalid.
fn validate_submit(request: &Json) -> Result<(String, GridSpec), String> {
    let job_id = request
        .get("job_id")
        .and_then(Json::as_str)
        .ok_or("submit requires a job_id")?;
    validate_job_id(job_id)?;
    let grid = match request.get("grid") {
        Some(value) => GridSpec::from_json(value).map_err(|e| format!("invalid grid: {e}"))?,
        None => GridSpec::default(),
    };
    Ok((job_id.to_string(), grid))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc::Sender;

    /// A server state on a per-process temp state dir that is removed on
    /// drop, so test runs leave no state directories behind.
    pub(crate) struct TempState(ServerState);

    impl TempState {
        /// `config` on a fresh `$TMPDIR/svard-<tag>-<pid>` state dir.
        pub(crate) fn new(tag: &str, config: ServerConfig) -> TempState {
            let dir = std::env::temp_dir().join(format!("svard-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = ServerConfig {
                state_dir: dir,
                ..config
            };
            TempState(ServerState::new(&config).expect("create the temp state dir"))
        }
    }

    impl std::ops::Deref for TempState {
        type Target = ServerState;

        fn deref(&self) -> &ServerState {
            &self.0
        }
    }

    impl Drop for TempState {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0.config.state_dir);
        }
    }

    /// A job as a connection would queue it, streaming into `out`.
    pub(crate) fn queued(job_id: &str, grid: &GridSpec, out: Sender<String>) -> QueuedJob {
        QueuedJob {
            job_id: job_id.to_string(),
            grid: grid.clone(),
            out,
            live: Arc::default(),
            enqueued_us: 0,
        }
    }

    #[test]
    fn a_job_shows_progress_only_once_started_and_leaves_with_its_entry() {
        let table = JobTable::default();
        let job = table.begin("q").expect("a fresh id");
        assert!(table.begin("q").is_none(), "a live id is refused");
        assert_eq!(table.progress_json().render(), "{}", "queued: no progress");
        job.set_progress(1, 4);
        let started = r#"{"q":{"completed":1,"points":4}}"#;
        assert_eq!(table.progress_json().render(), started);
        assert!(table.cancel("q"));
        assert!(job.cancel.load(Ordering::Acquire));
        table.finish("q", &job);
        assert_eq!(table.progress_json().render(), "{}");
        assert!(!table.cancel("q"), "the entry is gone");
    }
}
