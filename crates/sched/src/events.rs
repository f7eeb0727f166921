//! The structured progress-event stream.
//!
//! Batch runs emit one [`Event`] per interesting transition: a job
//! starting, a pipeline phase finishing (with its wall time), an artifact
//! cache hit, a job finishing with its outcome. Each event carries the
//! emitting worker's lane and a per-worker monotonic timestamp from an
//! [`EventClock`] — under work stealing, wall-clock reads from different
//! threads can otherwise land out of order in the JSON-lines sink.
//! Consumers choose the representation: [`Event::render_human`] for log
//! lines, [`Event::render_json`] for JSON-lines machine consumption.
//!
//! Emission goes through the [`EventSink`] trait so producers do not care
//! where events land. Any `Fn(Event) + Sync` closure is a sink;
//! [`EventLog`] buffers events in memory (tests, post-hoc rendering) and
//! [`NullSink`] drops them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use octo_codec::json_escape;

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
/// emitted it, and a timestamp that is strictly increasing per worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the run's [`EventClock`] origin, adjusted so
    /// consecutive stamps from the same worker strictly increase.
    pub ts_micros: u64,
    /// The scheduler worker that emitted the event.
    pub worker: usize,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Builds an event. Producers normally stamp `ts_micros` with
    /// [`EventClock::stamp`] for the emitting worker.
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

    /// One JSON-lines object (no trailing newline). The leading keys
    /// (`event`, `ts_us`, `worker`) are shared with the octo-trace
    /// JSON-lines stream so one consumer can merge both.
    pub fn render_json(&self) -> String {
        let head = format!("\"ts_us\":{},\"worker\":{}", self.ts_micros, self.worker);
        match &self.kind {
            EventKind::JobStarted { job, name } => format!(
                "{{\"event\":\"job_started\",{head},\"job\":{job},\"name\":\"{}\"}}",
                json_escape(name)
            ),
            EventKind::PhaseFinished {
                job,
                phase,
                seconds,
            } => format!(
                "{{\"event\":\"phase_finished\",{head},\"job\":{job},\"phase\":\"{phase}\",\
                 \"seconds\":{seconds:.6}}}"
            ),
            EventKind::CacheHit { job, key } => {
                format!("{{\"event\":\"cache_hit\",{head},\"job\":{job},\"key\":\"{key:016x}\"}}")
            }
            EventKind::JobFinished {
                job,
                outcome,
                seconds,
            } => format!(
                "{{\"event\":\"job_finished\",{head},\"job\":{job},\"outcome\":\"{}\",\
                 \"seconds\":{seconds:.6}}}",
                json_escape(outcome)
            ),
            EventKind::RetryScheduled {
                job,
                attempt,
                backoff_micros,
                beats,
            } => format!(
                "{{\"event\":\"retry_scheduled\",{head},\"job\":{job},\"attempt\":{attempt},\
                 \"backoff_us\":{backoff_micros},\"beats\":{beats}}}"
            ),
        }
    }
}

/// Stamps events with per-worker strictly-monotonic microsecond ticks.
///
/// A plain `Instant::elapsed` read is monotonic per call but coarse: two
/// events emitted back-to-back on one worker (or a stolen job resuming
/// on another) can read the same microsecond, and the JSON-lines stream
/// then shows ties or — when rendered after a steal — apparent
/// reordering. [`EventClock::stamp`] clamps each worker's stamp to at
/// least one past that worker's previous stamp, so per-worker order is
/// recoverable from timestamps alone.
#[derive(Debug)]
pub struct EventClock {
    origin: Instant,
    last: Vec<AtomicU64>,
}

impl EventClock {
    /// A clock for `workers` lanes (at least one), starting now.
    pub fn new(workers: usize) -> EventClock {
        EventClock {
            origin: Instant::now(),
            last: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Microseconds since the clock started, strictly greater than any
    /// stamp previously returned for `worker`.
    pub fn stamp(&self, worker: usize) -> u64 {
        let lane = &self.last[worker % self.last.len()];
        let now = self.origin.elapsed().as_micros() as u64;
        // Each lane is only stamped from the thread running that worker,
        // so a relaxed read-modify-write cycle is race-free.
        let ts = now.max(lane.load(Ordering::Relaxed) + 1);
        lane.store(ts, Ordering::Relaxed);
        ts
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

/// Fans one event stream out to any number of dynamically attached
/// subscribers.
///
/// A batch run takes a single `&dyn EventSink`; a long-running service
/// has many short-lived consumers — each `watch` connection wants the
/// live stream while it is attached, a logger may want all of it. A
/// `FanoutSink` is the bridge: it *is* an [`EventSink`], and every
/// [`FanoutSink::subscribe`]d sink receives a clone of every event
/// emitted while its subscription is live. Subscriptions are identified
/// by the returned id and detached with [`FanoutSink::unsubscribe`]
/// (dropping the fanout detaches everything).
///
/// Emission takes a short lock to snapshot the subscriber list; the
/// subscriber sinks themselves run outside any fanout-internal state,
/// so a slow subscriber delays delivery but cannot deadlock
/// subscription management... as long as it does not call back into
/// `subscribe`/`unsubscribe` from inside `emit`.
#[derive(Default)]
pub struct FanoutSink {
    subscribers: Mutex<Vec<(u64, std::sync::Arc<dyn EventSink + Send + Sync>)>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

impl FanoutSink {
    /// A fanout with no subscribers (events are dropped until one
    /// attaches).
    pub fn new() -> FanoutSink {
        FanoutSink::default()
    }

    /// Attaches a subscriber; every subsequent event is delivered to it
    /// until the returned id is [`FanoutSink::unsubscribe`]d.
    pub fn subscribe(&self, sink: std::sync::Arc<dyn EventSink + Send + Sync>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subscribers
            .lock()
            .expect("fanout poisoned")
            .push((id, sink));
        id
    }

    /// Detaches a subscriber. Unknown ids are ignored (the subscriber
    /// may already have been detached).
    pub fn unsubscribe(&self, id: u64) {
        self.subscribers
            .lock()
            .expect("fanout poisoned")
            .retain(|(sid, _)| *sid != id);
    }

    /// Currently attached subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().expect("fanout poisoned").len()
    }
}

impl EventSink for FanoutSink {
    fn emit(&self, event: Event) {
        // Snapshot under the lock, deliver outside it: a subscriber that
        // blocks (a full channel, a slow socket) must not hold up
        // subscribe/unsubscribe from other threads.
        let snapshot: Vec<_> = self
            .subscribers
            .lock()
            .expect("fanout poisoned")
            .iter()
            .map(|(_, s)| std::sync::Arc::clone(s))
            .collect();
        for sink in snapshot {
            sink.emit(event.clone());
        }
    }
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
    fn json_rendering_escapes_names() {
        let e = Event::new(
            41,
            2,
            EventKind::JobStarted {
                job: 3,
                name: "a\"b\\c\nd".into(),
            },
        );
        assert_eq!(
            e.render_json(),
            "{\"event\":\"job_started\",\"ts_us\":41,\"worker\":2,\"job\":3,\
             \"name\":\"a\\\"b\\\\c\\nd\"}"
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
        assert_eq!(
            e.render_json(),
            "{\"event\":\"retry_scheduled\",\"ts_us\":9,\"worker\":1,\"job\":4,\
             \"attempt\":2,\"backoff_us\":1500,\"beats\":11}"
        );
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
    fn clock_stamps_strictly_increase_per_worker() {
        // Regression: back-to-back emissions within one microsecond used
        // to produce tied (and, across a steal, reordered) timestamps.
        let clock = EventClock::new(2);
        let mut prev = 0;
        for _ in 0..10_000 {
            let ts = clock.stamp(0);
            assert!(ts > prev, "stamp {ts} not after {prev}");
            prev = ts;
        }
        // The other lane is independent and also strictly increases.
        let a = clock.stamp(1);
        let b = clock.stamp(1);
        assert!(b > a);
    }

    #[test]
    fn clock_stamps_from_worker_threads_stay_monotonic() {
        use std::sync::Arc;
        let clock = Arc::new(EventClock::new(4));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    let mut stamps = Vec::with_capacity(1000);
                    for _ in 0..1000 {
                        stamps.push(clock.stamp(w));
                    }
                    stamps
                })
            })
            .collect();
        for h in handles {
            let stamps = h.join().unwrap();
            assert!(stamps.windows(2).all(|p| p[0] < p[1]));
        }
    }

    #[test]
    fn clock_tolerates_out_of_range_worker_index() {
        let clock = EventClock::new(1);
        let a = clock.stamp(0);
        let b = clock.stamp(7); // folds onto lane 0
        assert!(b > a);
    }

    #[test]
    fn fanout_delivers_to_every_live_subscriber() {
        use std::sync::Arc;
        let fanout = FanoutSink::new();
        // No subscribers: events are dropped, not an error.
        fanout.emit(at(EventKind::CacheHit { job: 0, key: 1 }));
        let a = Arc::new(EventLog::new());
        let b = Arc::new(EventLog::new());
        let ida = fanout.subscribe(a.clone());
        let _idb = fanout.subscribe(b.clone());
        assert_eq!(fanout.subscriber_count(), 2);
        fanout.emit(at(EventKind::JobStarted {
            job: 1,
            name: "x".into(),
        }));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        fanout.unsubscribe(ida);
        fanout.unsubscribe(ida); // double-detach is a no-op
        fanout.emit(at(EventKind::JobFinished {
            job: 1,
            outcome: "Type-I".into(),
            seconds: 0.1,
        }));
        assert_eq!(a.len(), 1, "detached subscriber sees nothing new");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn fanout_is_usable_as_a_dyn_sink() {
        use std::sync::Arc;
        let fanout = FanoutSink::new();
        let log = Arc::new(EventLog::new());
        fanout.subscribe(log.clone());
        let dyn_sink: &dyn EventSink = &fanout;
        dyn_sink.emit(at(EventKind::CacheHit { job: 2, key: 7 }));
        assert_eq!(log.snapshot()[0].job(), 2);
    }
}
