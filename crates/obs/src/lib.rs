//! octo-obs — observability primitives for the OctoPoCs pipeline.
//!
//! The paper reports per-pair wall time, memory, and step counts
//! (Tables IV–V); a production-scale verification service needs the
//! same numbers continuously. This crate provides the two pieces every
//! layer records into:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s. Registration hands out [`std::sync::Arc`]
//!   handles; the record path is lock-free relaxed atomics, so worker
//!   threads share one registry without contention. Registries (and
//!   histograms) merge, so per-thread collection also works.
//! * [`Span`] — an RAII phase timer that reports its elapsed time to a
//!   [`SpanObserver`]. The batch layer bridges observers onto
//!   `octo_sched::EventSink`, keeping this crate dependency-free.
//!
//! Rendering is deterministic: metrics print sorted by name, as
//! single-line JSON objects ([`MetricsRegistry::render_json`]) or in
//! the Prometheus text format ([`MetricsRegistry::render_prometheus`]).
//! Empty histograms render zeroed statistics — no NaN can reach the
//! output.
//!
//! On top of the registry sits a thin time-series layer: a
//! [`RateRecorder`] ring of [`MetricsRegistry::snapshot`]s taken on a
//! sampling interval, from which windowed throughput and ratios (jobs
//! per second, cache hit-rate over the last N windows) are derived on
//! read — the basis of the daemon's `/metrics/rates` endpoint and
//! `octopocs top`.

#![warn(missing_docs)]

mod rate;
mod registry;
mod span;

pub use rate::{RateRecorder, RateSample, RateWindow};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use span::{NullObserver, Span, SpanObserver};
