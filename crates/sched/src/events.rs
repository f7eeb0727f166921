//! The structured progress-event stream.
//!
//! Batch runs emit one [`Event`] per interesting transition: a job
//! starting, a pipeline phase finishing (with its wall time), an artifact
//! cache hit, a job finishing with its outcome. Each event carries the
//! emitting worker's lane and a stamp from the process-wide event clock
//! [`stamp`], which strictly increases across every thread — under work
//! stealing, plain wall-clock reads from different threads can
//! otherwise tie or land out of order. [`Event::render_human`] renders
//! an event as a log line.
//!
//! Emission goes through the [`EventSink`] trait so producers do not care
//! where events land. Any `Fn(Event) + Sync` closure is a sink;
//! [`EventLog`] buffers events in memory (tests, post-hoc rendering) and
//! [`NullSink`] drops them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What happened (the variant payload of an [`Event`]).
///
/// `job` is the submission index of the job the event belongs to.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A worker picked the job up.
    JobStarted {
        /// Submission index.
        job: usize,
        /// Display name.
        name: String,
    },
    /// One pipeline phase of the job completed.
    PhaseFinished {
        /// Submission index.
        job: usize,
        /// Phase label (e.g. `"prepare"`, `"verify"`).
        phase: &'static str,
        /// Wall-clock seconds spent in the phase.
        seconds: f64,
    },
    /// The job's cacheable prefix was answered from the artifact cache.
    CacheHit {
        /// Submission index.
        job: usize,
        /// The content-address that hit.
        key: u64,
    },
    /// The job finished with a verdict.
    JobFinished {
        /// Submission index.
        job: usize,
        /// Outcome label (e.g. `"Type-I"`).
        outcome: String,
        /// Total wall-clock seconds for the job.
        seconds: f64,
    },
    /// An attempt failed transiently and a retry was scheduled. The
    /// event closes attempt `attempt` (1-based): `beats` is the number
    /// of watchdog heartbeats the cancelled attempt token recorded, so
    /// a timeline can show liveness per attempt, not just per job.
    RetryScheduled {
        /// Submission index.
        job: usize,
        /// The attempt that just failed (the retry will be `attempt + 1`).
        attempt: u32,
        /// Backoff before the retry, microseconds.
        backoff_micros: u64,
        /// Watchdog heartbeats observed during the failed attempt.
        beats: u64,
    },
}

/// One progress event in a batch run: a kind, the worker lane that
/// emitted it, and its stamp on the process-wide event clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The event's [`stamp`]: microseconds on the process-wide event
    /// clock, unique and strictly increasing in emission order.
    pub ts_micros: u64,
    /// The scheduler worker that emitted the event.
    pub worker: usize,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Builds an event. Producers normally stamp `ts_micros` with
    /// [`stamp`] at emission.
    pub fn new(ts_micros: u64, worker: usize, kind: EventKind) -> Event {
        Event {
            ts_micros,
            worker,
            kind,
        }
    }

    /// The submission index of the job this event belongs to.
    pub fn job(&self) -> usize {
        match &self.kind {
            EventKind::JobStarted { job, .. }
            | EventKind::PhaseFinished { job, .. }
            | EventKind::CacheHit { job, .. }
            | EventKind::JobFinished { job, .. }
            | EventKind::RetryScheduled { job, .. } => *job,
        }
    }

    /// One human-readable log line (no trailing newline).
    pub fn render_human(&self) -> String {
        match &self.kind {
            EventKind::JobStarted { job, name } => format!("[{job:>3}] start    {name}"),
            EventKind::PhaseFinished {
                job,
                phase,
                seconds,
            } => format!("[{job:>3}] phase    {phase} ({seconds:.3}s)"),
            EventKind::CacheHit { job, key } => format!("[{job:>3}] cache    hit {key:016x}"),
            EventKind::JobFinished {
                job,
                outcome,
                seconds,
            } => format!("[{job:>3}] done     {outcome} ({seconds:.3}s)"),
            EventKind::RetryScheduled {
                job,
                attempt,
                backoff_micros,
                beats,
            } => format!(
                "[{job:>3}] retry    attempt {attempt} failed ({beats} beats), \
                 backoff {backoff_micros}us"
            ),
        }
    }
}

/// The process-wide event clock: microseconds since its first read,
/// strictly greater than every stamp returned before, on any thread.
///
/// Every progress event, every daemon job transition (submit, pickup,
/// finish) and every rate sample is stamped here, so stamps from
/// different producers are directly comparable: a job's queue wait is
/// the difference of two stamps, and a `watch` client's `ts_us` is the
/// `at_us` the job's timeline shows for the same event. A plain
/// `Instant::elapsed` read can return the same microsecond twice (two
/// events emitted back to back); the clock hands out one past the last
/// stamp instead, so stamps never tie.
pub fn stamp() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = ORIGIN.get_or_init(Instant::now).elapsed().as_micros() as u64;
    // The closure always returns `Some`, so the update never fails.
    match LAST.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
        Some(now.max(last + 1))
    }) {
        Ok(last) | Err(last) => now.max(last + 1),
    }
}

/// A consumer of progress events. Sinks are shared across worker threads,
/// so implementations must be `Sync`.
pub trait EventSink: Sync {
    /// Receives one event.
    fn emit(&self, event: Event);
}

/// Every `Sync` closure over [`Event`] is a sink.
impl<F: Fn(Event) + Sync> EventSink for F {
    fn emit(&self, event: Event) {
        self(event)
    }
}

/// Drops every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: Event) {}
}

/// Buffers events in memory, in emission order.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<Event>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// A snapshot of all events emitted so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("event log poisoned").clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().expect("event log poisoned").len()
    }

    /// Whether no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events matching a predicate.
    pub fn filtered(&self, pred: impl Fn(&Event) -> bool) -> Vec<Event> {
        self.snapshot().into_iter().filter(|e| pred(e)).collect()
    }
}

impl EventSink for EventLog {
    fn emit(&self, event: Event) {
        self.events.lock().expect("event log poisoned").push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(kind: EventKind) -> Event {
        Event::new(0, 0, kind)
    }

    #[test]
    fn log_collects_in_order() {
        let log = EventLog::new();
        log.emit(at(EventKind::JobStarted {
            job: 0,
            name: "a".into(),
        }));
        log.emit(at(EventKind::JobFinished {
            job: 0,
            outcome: "Type-I".into(),
            seconds: 0.25,
        }));
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert_eq!(log.snapshot()[1].job(), 0);
        assert_eq!(
            log.filtered(|e| matches!(e.kind, EventKind::JobFinished { .. }))
                .len(),
            1
        );
    }

    #[test]
    fn retry_scheduled_renders_and_reports_its_job() {
        let e = Event::new(
            9,
            1,
            EventKind::RetryScheduled {
                job: 4,
                attempt: 2,
                backoff_micros: 1500,
                beats: 11,
            },
        );
        assert_eq!(e.job(), 4);
        let human = e.render_human();
        assert!(human.contains("attempt 2"), "{human}");
        assert!(human.contains("1500us"), "{human}");
    }

    #[test]
    fn human_rendering_mentions_phase_and_outcome() {
        let p = at(EventKind::PhaseFinished {
            job: 1,
            phase: "prepare",
            seconds: 0.5,
        });
        assert!(p.render_human().contains("prepare"));
        let h = at(EventKind::CacheHit { job: 1, key: 0xAB });
        assert!(h.render_human().contains("00000000000000ab"));
    }

    #[test]
    fn closures_are_sinks() {
        let count = std::sync::atomic::AtomicUsize::new(0);
        let sink = |_e: Event| {
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        };
        let dyn_sink: &dyn EventSink = &sink;
        dyn_sink.emit(at(EventKind::CacheHit { job: 0, key: 1 }));
        NullSink.emit(at(EventKind::CacheHit { job: 0, key: 2 }));
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn clock_stamps_are_unique_across_threads_and_increase_within_each() {
        // Regression: back-to-back emissions within one microsecond used
        // to produce tied (and, across a steal, reordered) timestamps.
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..5_000).map(|_| stamp()).collect::<Vec<u64>>()))
            .collect();
        let mut all = Vec::new();
        for h in handles {
            let stamps = h.join().unwrap();
            assert!(
                stamps.windows(2).all(|p| p[0] < p[1]),
                "stamps must strictly increase within a thread"
            );
            all.extend(stamps);
        }
        let taken = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), taken, "no two stamps may tie, on any thread");
    }
}
