//! `svard-server`: a long-running sweep-job server over the parallel
//! evaluation harness, and the client that checks and controls it.
//!
//! The server accepts sweep jobs — defense × provider × `HC_first` × mix
//! grids — over a plain TCP socket speaking line-delimited JSON, feeds each
//! job's [`svard_system::SweepPoint`]s through a delegation-style work queue
//! onto the `svard_system::parallel` worker pool, and streams every completed
//! [`svard_system::EvaluationPoint`] back the moment it finishes, followed by
//! a job summary carrying the merged
//! [`svard_obs::MetricsSnapshot`]. Jobs are resumable: completed points are
//! journaled to an on-disk job-state file, and a restarted server replays
//! them byte-identically instead of re-simulating.
//!
//! Module map:
//!
//! | module     | role                                                    |
//! |------------|---------------------------------------------------------|
//! | [`json`]   | re-export of [`svard_obs::json`], the one JSON model    |
//! | [`protocol`] | wire records, grid validation, point expansion        |
//! | [`jobstore`] | on-disk job journals (resume state, GC)               |
//! | [`queue`]  | bounded delegation work queue between connections and executors |
//! | [`bridge`] | grid → harness translation; `run_job(&ServerState, &QueuedJob)` |
//! | [`chaos`]  | seeded deterministic fault injection for chaos testing  |
//! | [`server`] | `ServerState` (the one shared handle) and the TCP accept/connection/executor loops |
//! | [`client`] | client connection, control requests and retrying job driver |
//! | [`cli`]    | minimal `--flag value` argument helpers for the bins    |
//!
//! This crate is **non-sim**: it never runs inside the simulated clock
//! domain, so wall-clock time ([`svard_obs::Profiler::now_us`] spans, the
//! client's retry backoff, [`svard_obs::PhaseProfile`] summaries) is
//! legal here (and `svard-lint` knows it — see `lint.toml`'s
//! `[determinism] non_sim` list). Determinism of the
//! *results* is inherited from the harness seeding scheme: every streamed
//! point is bit-identical to a direct `evaluate_all` run at any worker count,
//! including across a kill-and-resume.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bridge;
pub mod chaos;
pub mod cli;
pub mod client;
pub mod jobstore;
pub mod protocol;
pub mod queue;
pub mod server;

pub use chaos::{ChaosRates, FaultPlan, FaultSite};
pub use client::{
    is_retryable, request_with_retry, run_job_with_retry, Client, JobOutcome, RetryPolicy,
    RetryReport,
};
pub use protocol::GridSpec;
pub use server::{serve, ChaosConfig, ServerConfig, ServerHandle, METRICS_EOF};
pub use svard_obs::json;
