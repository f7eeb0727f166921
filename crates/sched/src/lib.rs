//! # octo-sched — batch-verification scheduling substrate.
//!
//! The paper's §VII use case is a developer triaging *many* propagated
//! clones of one CVE: one vulnerable source `S` fans out to dozens of
//! targets `T`. Verifying such a batch well needs three things the
//! pipeline itself does not provide, and this crate supplies all three as
//! a dependency-free bottom layer of the workspace:
//!
//! * [`run_jobs`] — a **work-stealing scheduler**: per-worker deques with
//!   steal-half balancing instead of static chunking, so one slow
//!   symbolic-execution job no longer stalls every job that was chunked
//!   behind it. Results are returned in submission order regardless of
//!   worker count or steal interleavings.
//! * [`ArtifactCache`] — a **content-addressed artifact cache** with
//!   single-flight semantics: the first worker to need an artifact
//!   computes it exactly once, concurrent requesters block and then hit.
//!   Hit/miss/byte statistics are tracked for reporting. Keys are plain
//!   `u64` content hashes, derived with `octo_codec`'s FNV-1a hasher.
//! * [`CancelToken`] — **cooperative cancellation** with optional
//!   deadlines. Long-running engines poll the token and wind down instead
//!   of stalling the batch. The token doubles as a per-job **heartbeat**
//!   channel, which the [`Watchdog`] monitor thread reads to escalate a
//!   wedged job (cancel it with the escalation mark set) before any
//!   global deadline would.
//!
//! [`run_jobs`] is additionally **panic-isolated**: a job whose closure
//! unwinds surfaces as `Err(`[`JobPanic`]`)` in its result slot while the
//! batch keeps running, and the [`ArtifactCache`] hit path carries an
//! `octo-faults` injection hook so cache-miss storms are reproducible in
//! tests (see `docs/robustness.md`).
//!
//! A structured [`Event`] stream (job started / phase finished / cache
//! hit / job done, with per-phase wall times) makes batch progress
//! observable; every event is stamped on one process-wide clock
//! ([`stamp`]). Any `Fn(Event) + Sync` closure is an [`EventSink`], and
//! [`EventLog`] collects events for later inspection.
#![warn(missing_docs)]

pub mod cache;
pub mod cancel;
pub mod events;
pub mod scheduler;
pub mod signals;
pub mod watchdog;

pub use cache::{ArtifactCache, CacheStats};
pub use cancel::CancelToken;
pub use events::{stamp, Event, EventKind, EventLog, EventSink, NullSink};
pub use scheduler::{run_jobs, JobPanic, SchedStats};
pub use signals::{drain_signal_count, install_drain_signals};
pub use watchdog::{WatchGuard, Watchdog, WatchdogConfig};
