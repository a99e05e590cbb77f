//! Delegation work queue between connection handlers and executor threads.
//!
//! Connection threads *submit* jobs; a small pool of executor threads *pops*
//! and runs them one at a time. The queue is a plain `Mutex<VecDeque>` +
//! `Condvar` — jobs are coarse (seconds to minutes of simulation), so
//! contention here is irrelevant and the standard library is all we need.
//! The queue is *bounded*: a full queue answers [`PushOutcome::Busy`], which
//! the connection turns into a `busy` backpressure record instead of letting
//! memory grow without limit.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

use crate::protocol::GridSpec;
use crate::server::LiveJob;

/// A validated job waiting for an executor.
pub struct QueuedJob {
    /// Client-chosen job identifier (also the journal file stem).
    pub job_id: String,
    /// The validated sweep grid.
    pub grid: GridSpec,
    /// Where to stream response lines; the connection thread drains the
    /// receiving end. Dropped senders mean the client went away.
    pub out: Sender<String>,
    /// The job's entry in the job table: its cancel flag, which a `cancel`
    /// request can raise whether the job is queued or already executing,
    /// and the progress its executor reports.
    pub live: Arc<LiveJob>,
    /// Enqueue timestamp in profiler microseconds; the executor turns it
    /// into the `server.queue_wait` span and histogram.
    pub enqueued_us: u64,
}

/// What happened to a [`JobQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The job is queued and an executor will pick it up.
    Queued,
    /// The queue is at capacity; the job was not enqueued. Retry later.
    Busy,
    /// The queue has shut down; the job was dropped (closing its channel).
    Shutdown,
}

struct Inner {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
    depth_peak: usize,
}

/// Blocking, bounded FIFO job queue.
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    /// Maximum queued (not yet executing) jobs; 0 means unbounded.
    capacity: usize,
}

impl Default for JobQueue {
    fn default() -> Self {
        JobQueue::with_capacity(0)
    }
}

impl JobQueue {
    /// Create an empty, unbounded queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty queue holding at most `capacity` waiting jobs
    /// (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                shutdown: false,
                depth_peak: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue a job, reporting busy/shutdown instead of blocking or
    /// growing past the capacity.
    pub fn push(&self, job: QueuedJob) -> PushOutcome {
        let mut inner = self.lock();
        if inner.shutdown {
            return PushOutcome::Shutdown;
        }
        if self.capacity > 0 && inner.jobs.len() >= self.capacity {
            return PushOutcome::Busy;
        }
        inner.jobs.push_back(job);
        inner.depth_peak = inner.depth_peak.max(inner.jobs.len());
        self.ready.notify_one();
        PushOutcome::Queued
    }

    /// Block until a job is available or the queue shuts down. `None` means
    /// shutdown: the executor thread should exit.
    pub fn pop(&self) -> Option<QueuedJob> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.shutdown {
                return None;
            }
            inner = match self.ready.wait(inner) {
                Ok(guard) => guard,
                // lint: allow(panic) -- poisoned only if a holder panicked; propagating is correct
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Drain pending jobs and wake every blocked executor so it can exit.
    pub fn shutdown(&self) {
        let mut inner = self.lock();
        inner.shutdown = true;
        inner.jobs.clear();
        drop(inner);
        self.ready.notify_all();
    }

    /// Highest queue depth seen so far (for the `stats` record).
    pub fn depth_peak(&self) -> usize {
        self.lock().depth_peak
    }

    /// Jobs currently waiting (excludes jobs already executing).
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            // lint: allow(panic) -- poisoned only if a holder panicked; propagating is correct
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn job(id: &str) -> QueuedJob {
        let (tx, _rx) = channel();
        QueuedJob {
            job_id: id.to_string(),
            grid: GridSpec::default(),
            out: tx,
            live: Arc::default(),
            enqueued_us: 0,
        }
    }

    #[test]
    fn queue_is_fifo_and_tracks_peak_depth() {
        let q = JobQueue::new();
        assert_eq!(q.push(job("a")), PushOutcome::Queued);
        assert_eq!(q.push(job("b")), PushOutcome::Queued);
        assert_eq!(q.depth_peak(), 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop().map(|j| j.job_id), Some("a".to_string()));
        assert_eq!(q.pop().map(|j| j.job_id), Some("b".to_string()));
        assert_eq!(q.depth(), 0);
        assert_eq!(q.depth_peak(), 2, "peak survives the drain");
    }

    #[test]
    fn a_full_queue_answers_busy_until_drained() {
        let q = JobQueue::with_capacity(1);
        assert_eq!(q.push(job("a")), PushOutcome::Queued);
        assert_eq!(q.push(job("b")), PushOutcome::Busy);
        assert_eq!(q.depth(), 1, "busy jobs are not enqueued");
        assert!(q.pop().is_some());
        assert_eq!(q.push(job("b")), PushOutcome::Queued);
    }

    #[test]
    fn shutdown_wakes_blocked_pop_and_rejects_new_jobs() {
        let q = Arc::new(JobQueue::new());
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop().map(|j| j.job_id))
        };
        // Give the waiter a moment to block, then shut down.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.shutdown();
        assert_eq!(waiter.join().unwrap(), None);
        assert_eq!(q.push(job("late")), PushOutcome::Shutdown);
    }
}
