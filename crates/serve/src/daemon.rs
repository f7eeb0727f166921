//! The octopocsd core: a durable, priority-scheduled job queue.
//!
//! The daemon is engine-agnostic — it owns admission control, the
//! journal, the two priority queues, the worker pool, and the job table
//! that holds each job's history, and delegates the actual
//! (S, T, poc, ℓ) verification to a [`JobExecutor`] supplied by the
//! embedder (the `octopocs` core crate wires in its batch runtime;
//! tests wire in stubs). That keeps this crate free of a dependency on
//! the pipeline while letting the daemon and the one-shot `batch`
//! subcommand share one execution path.
//!
//! Lifecycle: jobs are journaled *before* they are enqueued and their
//! verdicts journaled when they finish; a job cut short by shutdown is
//! journaled as submitted but never as finished, so a restart on the
//! same journal resubmits it under its original id and the run
//! converges to the verdicts an uninterrupted run would have produced.
//!
//! Progress: each job's record in the table is the only copy of its
//! history. Admission, worker pickup and the final transition are
//! stamped on the process-wide event clock ([`octo_sched::stamp`]), and
//! the executor's events — already stamped on that clock — are appended
//! to the record as they arrive. `/jobs/<id>` ([`Daemon::timeline`]) and
//! `watch` ([`Daemon::watch`]) both read that record.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use octo_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use octo_sched::{stamp, Event, EventKind, EventSink};

use crate::journal::{Journal, Replay};
use crate::proto::{
    JobPhase, JobSpec, JobStatus, Priority, QueueStatus, Response, ResultRow, VerdictSummary,
    WireEvent,
};
use crate::timeline::{JobTimeline, TimelineStep, MAX_STEPS_PER_JOB};

/// Queue-wait histogram bounds, microseconds. Shared with the batch
/// metrics registration in the core crate — the registry asserts that
/// re-registrations agree on bounds, so there is exactly one definition.
pub const QUEUE_WAIT_BUCKETS: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// One admitted job as handed to the executor.
#[derive(Debug, Clone)]
pub struct ExecJob {
    /// Daemon-global id (also the event-stream job index).
    pub id: u64,
    /// What to verify.
    pub spec: JobSpec,
}

/// What the executor produced for one job.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The verdict summary (journaled unless `cancelled`).
    pub verdict: VerdictSummary,
    /// Rendered post-mortem, when the pipeline produced one.
    pub post_mortem: Option<String>,
    /// The job was cut short by a drain/shutdown rather than finishing.
    /// Cancelled outcomes are *not* journaled: the job stays incomplete
    /// and is resubmitted when the daemon restarts.
    pub cancelled: bool,
}

/// The verification engine behind the daemon.
pub trait JobExecutor: Send + Sync {
    /// Runs one job to completion (or cancellation), emitting progress
    /// events for worker lane `worker` into `sink`.
    fn run(&self, job: &ExecJob, worker: usize, sink: &dyn EventSink) -> ExecOutcome;

    /// The registry the daemon's `serve_*` metrics live in (shared with
    /// the engine's own metrics so one `metrics` reply carries both).
    fn registry(&self) -> &MetricsRegistry;

    /// Renders the registry for the `metrics` response. Embedders that
    /// refresh derived gauges before rendering override this.
    fn metrics_json(&self) -> String {
        self.registry().render_json()
    }

    /// Renders the registry in the Prometheus text format (the HTTP
    /// plane's `/metrics`). Embedders that refresh derived gauges
    /// before rendering override this too.
    fn metrics_prometheus(&self) -> String {
        self.registry().render_prometheus()
    }

    /// Fires the engine's run-level cancel token: every in-flight job
    /// should wind down as cancelled. Called once at shutdown.
    fn cancel_all(&self) {}
}

/// Handles to the pre-registered `serve_*` metrics.
struct ServeMetrics {
    admissions: Arc<Counter>,
    rejections: Arc<Counter>,
    replays: Arc<Counter>,
    /// Per-priority queue depths: one gauge per class, so a scrape can
    /// see bulk starvation even while interactive churns.
    queue_depth_interactive: Arc<Gauge>,
    queue_depth_bulk: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
}

impl ServeMetrics {
    fn register(reg: &MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            admissions: reg.counter("serve_admissions_total"),
            rejections: reg.counter("serve_rejections_total"),
            replays: reg.counter("serve_replays_total"),
            queue_depth_interactive: reg.gauge("serve_queue_depth_interactive"),
            queue_depth_bulk: reg.gauge("serve_queue_depth_bulk"),
            queue_wait: reg.histogram("serve_queue_wait_micros", &QUEUE_WAIT_BUCKETS),
        }
    }

    fn set_queue_depth(&self, state: &State) {
        self.queue_depth_interactive
            .set(state.interactive.len() as u64);
        self.queue_depth_bulk.set(state.bulk.len() as u64);
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Backpressure: the queue is at capacity (or the daemon is
    /// draining). Maps to the wire's `rejected` response.
    Rejected(String),
    /// The job itself is malformed (bad program text, bad hex). Maps to
    /// the wire's `error` response.
    Invalid(String),
}

/// One job's entry in the table: its spec, where it stands, and its
/// history on the event clock.
struct JobRecord {
    spec: JobSpec,
    phase: JobPhase,
    verdict: Option<VerdictSummary>,
    post_mortem: Option<String>,
    submitted_us: u64,
    picked_up_us: Option<u64>,
    finished_us: Option<u64>,
    /// The executor's events for this job, at most [`MAX_STEPS_PER_JOB`].
    steps: Vec<TimelineStep>,
    /// Events past the cap, counted instead of stored.
    dropped_steps: u64,
}

impl JobRecord {
    /// A record admitted now.
    fn admitted(spec: JobSpec) -> JobRecord {
        JobRecord {
            spec,
            phase: JobPhase::Queued,
            verdict: None,
            post_mortem: None,
            submitted_us: stamp(),
            picked_up_us: None,
            finished_us: None,
            steps: Vec::new(),
            dropped_steps: 0,
        }
    }

    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            id,
            name: self.spec.name.clone(),
            priority: self.spec.priority,
            phase: self.phase,
            verdict: self.verdict.clone(),
            post_mortem: self.post_mortem.clone(),
        }
    }

    fn timeline(&self, id: u64) -> JobTimeline {
        let outcome = match self.phase {
            JobPhase::Done => self.verdict.as_ref().map(|v| v.verdict.clone()),
            JobPhase::Interrupted => Some("interrupted".to_string()),
            JobPhase::Queued | JobPhase::Running => None,
        };
        JobTimeline {
            id,
            name: self.spec.name.clone(),
            priority: self.spec.priority,
            phase: self.phase,
            submitted_us: self.submitted_us,
            picked_up_us: self.picked_up_us,
            finished_us: self.finished_us,
            outcome,
            steps: self.steps.clone(),
            dropped_steps: self.dropped_steps,
        }
    }
}

#[derive(Default)]
struct State {
    jobs: BTreeMap<u64, JobRecord>,
    interactive: VecDeque<u64>,
    bulk: VecDeque<u64>,
    running: u64,
    next_id: u64,
    draining: bool,
    shutting_down: bool,
}

impl State {
    fn queued(&self) -> u64 {
        (self.interactive.len() + self.bulk.len()) as u64
    }

    fn done(&self) -> u64 {
        self.jobs
            .values()
            .filter(|j| j.phase == JobPhase::Done)
            .count() as u64
    }
}

/// The daemon: admission, queueing, workers, journal, job table.
pub struct Daemon {
    executor: Arc<dyn JobExecutor>,
    journal: Option<Journal>,
    capacity: usize,
    state: Mutex<State>,
    /// Signalled when work arrives or the lifecycle changes.
    work: Condvar,
    /// Signalled when a job finishes (drain/join waits on it).
    idle: Condvar,
    metrics: ServeMetrics,
}

impl Daemon {
    /// A daemon over `executor` with a queue bound of `capacity`
    /// waiting jobs. Pass a journal for durability; `None` keeps
    /// everything in memory (tests).
    pub fn new(
        executor: Arc<dyn JobExecutor>,
        journal: Option<Journal>,
        capacity: usize,
    ) -> Arc<Daemon> {
        let metrics = ServeMetrics::register(executor.registry());
        Arc::new(Daemon {
            executor,
            journal,
            capacity: capacity.max(1),
            state: Mutex::new(State {
                next_id: 1,
                ..State::default()
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            metrics,
        })
    }

    /// Restores journal contents: finished jobs become `done` rows,
    /// unfinished jobs are resubmitted under their original ids.
    pub fn restore(&self, replay: Replay) {
        let mut state = self.state.lock().expect("daemon state poisoned");
        for (id, spec) in replay.jobs {
            // A replayed job re-enters the table now, so its history
            // restarts here.
            let mut record = JobRecord::admitted(spec);
            if let Some(done) = replay.verdicts.get(&id) {
                // A restored verdict has no live history; its timeline
                // is just the restored outcome.
                record.phase = JobPhase::Done;
                record.verdict = Some(done.clone());
                record.finished_us = Some(stamp());
            } else {
                match record.spec.priority {
                    Priority::Interactive => state.interactive.push_back(id),
                    Priority::Bulk => state.bulk.push_back(id),
                }
                self.metrics.replays.inc();
            }
            state.jobs.insert(id, record);
            state.next_id = state.next_id.max(id + 1);
        }
        self.metrics.set_queue_depth(&state);
        drop(state);
        self.work.notify_all();
    }

    /// Spawns `workers` executor threads. The returned handles join
    /// once the daemon is drained or shut down.
    pub fn start_workers(self: &Arc<Self>, workers: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..workers.max(1))
            .map(|w| {
                let daemon = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("octopocsd-worker-{w}"))
                    .spawn(move || daemon.worker_loop(w))
                    .expect("spawn worker")
            })
            .collect()
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("daemon state poisoned");
                loop {
                    if state.shutting_down {
                        return;
                    }
                    if let Some(id) = state
                        .interactive
                        .pop_front()
                        .or_else(|| state.bulk.pop_front())
                    {
                        let record = state.jobs.get_mut(&id).expect("queued job exists");
                        let picked_up = stamp();
                        record.phase = JobPhase::Running;
                        record.picked_up_us = Some(picked_up);
                        self.metrics
                            .queue_wait
                            .observe(picked_up - record.submitted_us);
                        let job = ExecJob {
                            id,
                            spec: record.spec.clone(),
                        };
                        state.running += 1;
                        self.metrics.set_queue_depth(&state);
                        break job;
                    }
                    if state.draining {
                        // Nothing queued and no more admissions: done.
                        return;
                    }
                    let (next, _) = self
                        .work
                        .wait_timeout(state, Duration::from_millis(50))
                        .expect("daemon state poisoned");
                    state = next;
                }
            };
            let outcome = self.executor.run(&job, worker, &RecordSink(self));
            let mut state = self.state.lock().expect("daemon state poisoned");
            state.running -= 1;
            let record = state.jobs.get_mut(&job.id).expect("running job exists");
            record.finished_us = Some(stamp());
            if outcome.cancelled {
                record.phase = JobPhase::Interrupted;
            } else {
                record.phase = JobPhase::Done;
                record.verdict = Some(outcome.verdict.clone());
                record.post_mortem = outcome.post_mortem;
                if let Some(journal) = &self.journal {
                    if let Err(e) = journal.record_verdict(job.id, &outcome.verdict) {
                        eprintln!("octopocsd: {e}");
                    }
                }
            }
            drop(state);
            self.idle.notify_all();
        }
    }

    /// Admits one job: journal first, then enqueue. Full queues and
    /// draining daemons refuse with [`SubmitError::Rejected`]; malformed
    /// jobs with [`SubmitError::Invalid`].
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        validate_spec(&spec).map_err(SubmitError::Invalid)?;
        let mut state = self.state.lock().expect("daemon state poisoned");
        if state.draining {
            self.metrics.rejections.inc();
            return Err(SubmitError::Rejected("daemon is draining".to_string()));
        }
        if state.queued() as usize >= self.capacity {
            self.metrics.rejections.inc();
            return Err(SubmitError::Rejected(format!(
                "queue full (capacity {})",
                self.capacity
            )));
        }
        let id = state.next_id;
        if let Some(journal) = &self.journal {
            journal
                .record_job(id, &spec)
                .map_err(SubmitError::Invalid)?;
        }
        state.next_id += 1;
        match spec.priority {
            Priority::Interactive => state.interactive.push_back(id),
            Priority::Bulk => state.bulk.push_back(id),
        }
        state.jobs.insert(id, JobRecord::admitted(spec));
        self.metrics.admissions.inc();
        self.metrics.set_queue_depth(&state);
        drop(state);
        self.work.notify_one();
        Ok(id)
    }

    /// Queue-level status snapshot.
    pub fn status(&self) -> QueueStatus {
        let state = self.state.lock().expect("daemon state poisoned");
        QueueStatus {
            queued_interactive: state.interactive.len() as u64,
            queued_bulk: state.bulk.len() as u64,
            running: state.running,
            done: state.done(),
            capacity: self.capacity as u64,
            draining: state.draining,
        }
    }

    /// One job's status, or `None` for unknown ids.
    pub fn job_status(&self, id: u64) -> Option<JobStatus> {
        let state = self.state.lock().expect("daemon state poisoned");
        state.jobs.get(&id).map(|j| j.status(id))
    }

    /// Finished verdicts in id (= submission) order.
    pub fn results(&self) -> Vec<ResultRow> {
        let state = self.state.lock().expect("daemon state poisoned");
        state
            .jobs
            .iter()
            .filter_map(|(id, j)| {
                j.verdict.as_ref().map(|v| ResultRow {
                    id: *id,
                    name: j.spec.name.clone(),
                    verdict: v.clone(),
                })
            })
            .collect()
    }

    /// Every known job's status, in id (= submission) order — the
    /// queue + in-flight + completed listing behind `GET /jobs`.
    pub fn jobs(&self) -> Vec<JobStatus> {
        let state = self.state.lock().expect("daemon state poisoned");
        state.jobs.iter().map(|(id, j)| j.status(*id)).collect()
    }

    /// The executor's metrics rendering.
    pub fn metrics_json(&self) -> String {
        self.executor.metrics_json()
    }

    /// The executor's Prometheus text rendering (the HTTP plane's
    /// `/metrics` body).
    pub fn metrics_prometheus(&self) -> String {
        self.executor.metrics_prometheus()
    }

    /// One job's timeline (the `/jobs/<id>` view of its record), or
    /// `None` for unknown ids.
    pub fn timeline(&self, id: u64) -> Option<JobTimeline> {
        let state = self.state.lock().expect("daemon state poisoned");
        state.jobs.get(&id).map(|j| j.timeline(id))
    }

    /// Streams `id`'s events into `deliver` from the moment of the call
    /// until the job finishes, then delivers the terminal `done` (or
    /// `error`) line. `deliver` returning `Err` (the peer hung up)
    /// detaches quietly.
    pub fn watch(
        &self,
        id: u64,
        deliver: &mut dyn FnMut(&Response) -> Result<(), String>,
    ) -> Result<(), String> {
        match self.watch_cursor(id) {
            Some(cursor) => self.watch_from(id, cursor, deliver),
            None => deliver(&Response::Error {
                message: format!("unknown job id {id}"),
            }),
        }
    }

    /// Where a watch attaching to `id` now starts: the number of steps
    /// its record holds. `None` for unknown ids.
    fn watch_cursor(&self, id: u64) -> Option<usize> {
        let state = self.state.lock().expect("daemon state poisoned");
        state.jobs.get(&id).map(|j| j.steps.len())
    }

    /// Delivers `id`'s steps from index `cursor` on, polling the record
    /// until the job ends. Steps and phase are read under one lock, so
    /// a finished job's last events always precede its `done`.
    fn watch_from(
        &self,
        id: u64,
        mut cursor: usize,
        deliver: &mut dyn FnMut(&Response) -> Result<(), String>,
    ) -> Result<(), String> {
        loop {
            let (events, status) = {
                let state = self.state.lock().expect("daemon state poisoned");
                let record = state.jobs.get(&id).expect("watched job exists");
                let events: Vec<WireEvent> = record.steps[cursor..]
                    .iter()
                    .map(|step| WireEvent {
                        job: id,
                        worker: step.worker,
                        ts_us: step.at_us,
                        kind: step.kind.clone(),
                    })
                    .collect();
                cursor = record.steps.len();
                (events, record.status(id))
            };
            for event in events {
                deliver(&Response::Event(event))?;
            }
            match status.phase {
                JobPhase::Done => {
                    return deliver(&Response::Done {
                        id,
                        verdict: status.verdict.expect("done job has a verdict"),
                    });
                }
                JobPhase::Interrupted => {
                    return deliver(&Response::Error {
                        message: format!("job {id} interrupted by shutdown"),
                    });
                }
                JobPhase::Queued | JobPhase::Running => {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// Stops admissions; queued work still runs. Returns the number of
    /// jobs still pending (queued + running).
    pub fn drain(&self) -> u64 {
        let mut state = self.state.lock().expect("daemon state poisoned");
        state.draining = true;
        let pending = state.queued() + state.running;
        drop(state);
        self.work.notify_all();
        pending
    }

    /// Stops admissions *and* cancels in-flight work. Incomplete jobs
    /// are left unjournaled-as-finished, so a restart replays them.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().expect("daemon state poisoned");
        state.draining = true;
        state.shutting_down = true;
        drop(state);
        self.executor.cancel_all();
        self.work.notify_all();
    }

    /// True once the daemon can exit: draining (or shut down) with
    /// nothing queued or running.
    pub fn finished(&self) -> bool {
        let state = self.state.lock().expect("daemon state poisoned");
        state.draining && (state.shutting_down || (state.queued() == 0 && state.running == 0))
    }

    /// Blocks until every queued/running job has finished (used by
    /// graceful drain before exit).
    pub fn wait_idle(&self) {
        let mut state = self.state.lock().expect("daemon state poisoned");
        while !state.shutting_down && (state.queued() > 0 || state.running > 0) {
            let (next, _) = self
                .idle
                .wait_timeout(state, Duration::from_millis(50))
                .expect("daemon state poisoned");
            state = next;
        }
    }

    /// Compacts the journal (if one is attached) down to the jobs a
    /// restart would actually resubmit: everything finished is
    /// dropped, everything queued/running/interrupted is rewritten as
    /// a bare job record. Call on an orderly exit, after the workers
    /// have stopped. Returns the number of records kept, or `None`
    /// when the daemon is journal-less.
    pub fn compact_journal(&self) -> Option<Result<u64, String>> {
        let journal = self.journal.as_ref()?;
        let state = self.state.lock().expect("daemon state poisoned");
        let incomplete: Vec<(u64, JobSpec)> = state
            .jobs
            .iter()
            .filter(|(_, j)| j.phase != JobPhase::Done)
            .map(|(id, j)| (*id, j.spec.clone()))
            .collect();
        let kept = incomplete.len() as u64;
        drop(state);
        Some(journal.compact(&incomplete).map(|()| kept))
    }
}

/// The sink the daemon hands its executor: each event is appended to
/// its job's record under the state lock, as a step stamped with the
/// event's own `ts_micros`. Past [`MAX_STEPS_PER_JOB`] steps a record
/// counts further events in `dropped_steps`. Events for ids the daemon
/// never admitted are dropped.
struct RecordSink<'a>(&'a Daemon);

impl EventSink for RecordSink<'_> {
    fn emit(&self, event: Event) {
        let wire = WireEvent::from_event(&event);
        let mut state = self.0.state.lock().expect("daemon state poisoned");
        if let Some(record) = state.jobs.get_mut(&wire.job) {
            if record.steps.len() >= MAX_STEPS_PER_JOB {
                record.dropped_steps += 1;
            } else {
                record.steps.push(TimelineStep {
                    at_us: wire.ts_us,
                    worker: wire.worker,
                    kind: wire.kind,
                });
            }
        }
    }
}

/// Parses and validates both program texts and the PoC hex so a bad
/// submission is refused at admission, not at execution.
fn validate_spec(spec: &JobSpec) -> Result<(), String> {
    crate::proto::from_hex(&spec.poc_hex).map_err(|e| format!("job `{}`: {e}", spec.name))?;
    for (label, text) in [("s", &spec.s_text), ("t", &spec.t_text)] {
        let program = octo_ir::parse::parse_program(text)
            .map_err(|e| format!("job `{}`: program `{label}`: {e}", spec.name))?;
        octo_ir::validate::validate(&program).map_err(|errors| {
            format!(
                "job `{}`: program `{label}`: {}",
                spec.name,
                errors
                    .first()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| "invalid program".to_string())
            )
        })?;
    }
    Ok(())
}

/// A trivial executor for tests: records calls, returns canned
/// verdicts, optionally blocks until released. Each job emits what a
/// once-retried job does: `started` and a `prepare` phase, then (after
/// the gate, when there is one) a `retry` and `finished`.
pub struct StubExecutor {
    registry: MetricsRegistry,
    /// Job names executed, in execution order.
    pub executed: Mutex<Vec<String>>,
    gate: Option<(Mutex<bool>, Condvar)>,
    cancelled: AtomicBool,
}

impl StubExecutor {
    /// An executor that finishes jobs immediately.
    pub fn immediate() -> StubExecutor {
        StubExecutor {
            registry: MetricsRegistry::new(),
            executed: Mutex::new(Vec::new()),
            gate: None,
            cancelled: AtomicBool::new(false),
        }
    }

    /// An executor whose jobs block until [`StubExecutor::release`].
    pub fn gated() -> StubExecutor {
        StubExecutor {
            registry: MetricsRegistry::new(),
            executed: Mutex::new(Vec::new()),
            gate: Some((Mutex::new(false), Condvar::new())),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Unblocks every gated job.
    pub fn release(&self) {
        if let Some((flag, cv)) = &self.gate {
            *flag.lock().expect("gate poisoned") = true;
            cv.notify_all();
        }
    }
}

impl JobExecutor for StubExecutor {
    fn run(&self, job: &ExecJob, worker: usize, sink: &dyn EventSink) -> ExecOutcome {
        let index = job.id as usize;
        let emit = |kind| sink.emit(Event::new(stamp(), worker, kind));
        emit(EventKind::JobStarted {
            job: index,
            name: job.spec.name.clone(),
        });
        emit(EventKind::PhaseFinished {
            job: index,
            phase: "prepare",
            seconds: 0.001,
        });
        self.executed
            .lock()
            .expect("executed poisoned")
            .push(job.spec.name.clone());
        if let Some((flag, cv)) = &self.gate {
            let mut open = flag.lock().expect("gate poisoned");
            while !*open && !self.cancelled.load(Ordering::Acquire) {
                let (next, _) = cv
                    .wait_timeout(open, Duration::from_millis(10))
                    .expect("gate poisoned");
                open = next;
            }
        }
        emit(EventKind::RetryScheduled {
            job: index,
            attempt: 1,
            backoff_micros: 1_000,
            beats: 3,
        });
        emit(EventKind::JobFinished {
            job: index,
            outcome: "Type-I".to_string(),
            seconds: 0.002,
        });
        let cancelled = self.cancelled.load(Ordering::Acquire);
        ExecOutcome {
            verdict: VerdictSummary {
                verdict: "Type-I".to_string(),
                poc_generated: true,
                verified: true,
                attempts: 2,
                quarantined: false,
            },
            post_mortem: None,
            cancelled,
        }
    }

    fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn cancel_all(&self) {
        self.cancelled.store(true, Ordering::Release);
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, priority: Priority) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            priority,
            s_text: "func main() {\nentry:\n  halt 0\n}\n".to_string(),
            t_text: "func main() {\nentry:\n  halt 0\n}\n".to_string(),
            poc_hex: "41".to_string(),
            shared: vec![],
        }
    }

    #[test]
    fn runs_submitted_jobs_and_reports_results_in_id_order() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 16);
        let a = daemon.submit(spec("a", Priority::Bulk)).unwrap();
        let b = daemon.submit(spec("b", Priority::Bulk)).unwrap();
        assert_eq!((a, b), (1, 2));
        let workers = daemon.start_workers(2);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let rows = daemon.results();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "a");
        assert_eq!(rows[1].name, "b");
        assert_eq!(rows[0].verdict.verdict, "Type-I");
    }

    #[test]
    fn interactive_jobs_jump_the_bulk_queue() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 16);
        // One gated job occupies the single worker; everything else
        // queues, so dequeue order is observable.
        daemon.submit(spec("first", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.submit(spec("bulk-1", Priority::Bulk)).unwrap();
        daemon.submit(spec("bulk-2", Priority::Bulk)).unwrap();
        daemon.submit(spec("rush", Priority::Interactive)).unwrap();
        executor.release();
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let order = executor.executed.lock().unwrap().clone();
        assert_eq!(order, vec!["first", "rush", "bulk-1", "bulk-2"]);
    }

    #[test]
    fn full_queue_is_rejected_with_backpressure_not_a_hang() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 1);
        daemon.submit(spec("running", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Worker busy; capacity-1 queue takes exactly one more.
        daemon.submit(spec("queued", Priority::Bulk)).unwrap();
        let err = daemon.submit(spec("overflow", Priority::Bulk)).unwrap_err();
        assert_eq!(
            err,
            SubmitError::Rejected("queue full (capacity 1)".to_string())
        );
        let reg = executor.registry();
        assert_eq!(reg.get_counter("serve_rejections_total").unwrap().get(), 1);
        assert_eq!(reg.get_counter("serve_admissions_total").unwrap().get(), 2);
        executor.release();
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn invalid_programs_are_refused_at_admission() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        let mut bad = spec("bad", Priority::Bulk);
        bad.s_text = "this is not MicroIR".to_string();
        match daemon.submit(bad) {
            Err(SubmitError::Invalid(msg)) => assert!(msg.contains("program `s`"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let mut bad_hex = spec("bad-hex", Priority::Bulk);
        bad_hex.poc_hex = "zz".to_string();
        assert!(matches!(
            daemon.submit(bad_hex),
            Err(SubmitError::Invalid(_))
        ));
    }

    #[test]
    fn shutdown_leaves_cancelled_jobs_incomplete_for_replay() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 8);
        daemon.submit(spec("victim", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let status = daemon.job_status(1).unwrap();
        assert_eq!(status.phase, JobPhase::Interrupted);
        assert!(status.verdict.is_none());
        assert!(daemon.results().is_empty());
        assert!(daemon.finished());
    }

    #[test]
    fn restore_resubmits_incomplete_jobs_and_keeps_done_ones() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 16);
        let mut replay = Replay::default();
        replay.jobs.push((1, spec("done-before", Priority::Bulk)));
        replay.jobs.push((2, spec("redo", Priority::Bulk)));
        replay.verdicts.insert(
            1,
            VerdictSummary {
                verdict: "Type-II".to_string(),
                poc_generated: true,
                verified: true,
                attempts: 1,
                quarantined: false,
            },
        );
        daemon.restore(replay);
        let reg = daemon.executor.registry();
        assert_eq!(reg.get_counter("serve_replays_total").unwrap().get(), 1);
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        let rows = daemon.results();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict.verdict, "Type-II");
        assert_eq!(rows[1].verdict.verdict, "Type-I");
        // New submissions continue after the replayed ids.
        let next = daemon.submit(spec("next", Priority::Bulk));
        assert_eq!(
            next,
            Err(SubmitError::Rejected("daemon is draining".to_string()))
        );
    }

    #[test]
    fn queue_depth_gauges_split_by_priority() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 16);
        daemon.submit(spec("first", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.submit(spec("bulk-q", Priority::Bulk)).unwrap();
        daemon.submit(spec("rush", Priority::Interactive)).unwrap();
        let reg = executor.registry();
        assert_eq!(
            reg.get_gauge("serve_queue_depth_interactive")
                .unwrap()
                .get(),
            1
        );
        assert_eq!(reg.get_gauge("serve_queue_depth_bulk").unwrap().get(), 1);
        assert!(
            reg.get_gauge("serve_queue_depth").is_none(),
            "the aggregate gauge is replaced by the per-priority split"
        );
        executor.release();
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(
            reg.get_gauge("serve_queue_depth_interactive")
                .unwrap()
                .get(),
            0
        );
        assert_eq!(reg.get_gauge("serve_queue_depth_bulk").unwrap().get(), 0);
    }

    /// Drains the daemon and joins its workers.
    fn finish(daemon: &Daemon, workers: Vec<std::thread::JoinHandle<()>>) {
        daemon.wait_idle();
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
    }

    /// Every response of a watch from step `cursor` on.
    fn watch_from(daemon: &Daemon, id: u64, cursor: usize) -> Vec<Response> {
        let mut seen = Vec::new();
        daemon
            .watch_from(id, cursor, &mut |resp| {
                seen.push(resp.clone());
                Ok(())
            })
            .unwrap();
        seen
    }

    #[test]
    fn daemon_assembles_timelines_for_submitted_jobs() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 8);
        daemon.submit(spec("traced", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        finish(&daemon, workers);
        let t = daemon.timeline(1).expect("timeline exists");
        assert_eq!(t.name, "traced");
        assert_eq!(t.phase, JobPhase::Done);
        assert_eq!(t.outcome.as_deref(), Some("Type-I"));
        let labels: Vec<&str> = t
            .steps
            .iter()
            .map(|s| s.kind.label_and_fields().0)
            .collect();
        assert_eq!(labels, ["started", "phase", "retry", "finished"]);
        assert_eq!(t.attempts().len(), 2, "one retry, two attempts");
        // The daemon's /jobs listing mirrors the job table.
        let jobs = daemon.jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].phase, JobPhase::Done);
    }

    #[test]
    fn lifecycle_stamps_are_strictly_monotonic() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 8);
        daemon.submit(spec("job-a", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        finish(&daemon, workers);
        let t = daemon.timeline(1).unwrap();
        let mut stamps = vec![t.submitted_us, t.picked_up_us.unwrap()];
        stamps.extend(t.steps.iter().map(|s| s.at_us));
        stamps.push(t.finished_us.unwrap());
        assert!(
            stamps.windows(2).all(|w| w[0] < w[1]),
            "timeline stamps must strictly increase: {stamps:?}"
        );
        assert_eq!(
            t.queue_wait_us(),
            Some(t.picked_up_us.unwrap() - t.submitted_us)
        );
    }

    #[test]
    fn watch_stamps_equal_timeline_stamps_and_queue_wait_is_one_interval() {
        let executor = Arc::new(StubExecutor::immediate());
        let daemon = Daemon::new(executor.clone(), None, 8);
        daemon.submit(spec("stamped", Priority::Bulk)).unwrap();
        // Attached while queued: the watch sees every event of the job.
        let cursor = daemon.watch_cursor(1).unwrap();
        assert_eq!(cursor, 0);
        let workers = daemon.start_workers(1);
        let seen = watch_from(&daemon, 1, cursor);
        finish(&daemon, workers);
        let t = daemon.timeline(1).unwrap();
        let events: Vec<&WireEvent> = seen
            .iter()
            .filter_map(|r| match r {
                Response::Event(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(events.len(), t.steps.len());
        for (event, step) in events.iter().zip(&t.steps) {
            assert_eq!(event.ts_us, step.at_us, "watch ts_us is the step's at_us");
            assert_eq!(event.kind, step.kind);
            assert_eq!(event.job, 1);
        }
        assert!(matches!(seen.last(), Some(Response::Done { id: 1, .. })));
        let wait = executor
            .registry()
            .get_histogram("serve_queue_wait_micros")
            .unwrap();
        assert_eq!(wait.count(), 1);
        assert_eq!(Some(wait.sum()), t.queue_wait_us());
    }

    #[test]
    fn watch_attached_mid_job_gets_exactly_the_later_events() {
        let executor = Arc::new(StubExecutor::gated());
        let daemon = Daemon::new(executor.clone(), None, 8);
        daemon.submit(spec("midway", Priority::Bulk)).unwrap();
        let workers = daemon.start_workers(1);
        // The gated job has emitted `started` and `prepare` and waits.
        while executor.executed.lock().unwrap().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let cursor = daemon.watch_cursor(1).unwrap();
        assert_eq!(cursor, 2);
        let watcher = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || watch_from(&daemon, 1, cursor))
        };
        executor.release();
        let seen = watcher.join().unwrap();
        finish(&daemon, workers);
        let labels: Vec<&str> = seen
            .iter()
            .map(|r| match r {
                Response::Event(e) => e.kind.label_and_fields().0,
                Response::Done { .. } => "done",
                _ => "other",
            })
            .collect();
        assert_eq!(labels, ["retry", "finished", "done"]);
    }

    #[test]
    fn queued_jobs_have_no_attempts_and_unknown_jobs_drop_events() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 8);
        daemon.submit(spec("waiting", Priority::Bulk)).unwrap();
        let t = daemon.timeline(1).unwrap();
        assert_eq!(t.phase, JobPhase::Queued);
        assert!(t.attempts().is_empty());
        assert!(t.render_json().contains("\"queue_wait_us\":null"));
        // An event for an id never admitted is ignored, not a panic.
        RecordSink(&daemon).emit(Event::new(
            stamp(),
            0,
            EventKind::CacheHit { job: 99, key: 0xAB },
        ));
        assert!(daemon.timeline(99).is_none());
        assert_eq!(daemon.jobs().len(), 1);
        assert!(daemon.timeline(1).unwrap().steps.is_empty());
    }

    #[test]
    fn step_cap_counts_drops_instead_of_growing() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 8);
        daemon.submit(spec("storm", Priority::Bulk)).unwrap();
        let sink = RecordSink(&daemon);
        let stamps: Vec<u64> = (0..(MAX_STEPS_PER_JOB + 10)).map(|_| stamp()).collect();
        for &ts in &stamps {
            sink.emit(Event::new(ts, 0, EventKind::CacheHit { job: 1, key: 1 }));
        }
        let t = daemon.timeline(1).unwrap();
        assert_eq!(t.steps.len(), MAX_STEPS_PER_JOB);
        assert_eq!(t.dropped_steps, 10);
        let kept: Vec<u64> = t.steps.iter().map(|s| s.at_us).collect();
        assert_eq!(
            kept,
            stamps[..MAX_STEPS_PER_JOB],
            "a step keeps its event's stamp"
        );
        // The cap bounds a watcher too: one attached now sees no step.
        assert_eq!(daemon.watch_cursor(1), Some(MAX_STEPS_PER_JOB));
    }

    #[test]
    fn watch_streams_done_for_finished_jobs() {
        let daemon = Daemon::new(Arc::new(StubExecutor::immediate()), None, 4);
        daemon
            .submit(spec("watched", Priority::Interactive))
            .unwrap();
        let workers = daemon.start_workers(1);
        daemon.wait_idle();
        let mut seen = Vec::new();
        daemon
            .watch(1, &mut |resp| {
                seen.push(resp.clone());
                Ok(())
            })
            .unwrap();
        assert!(matches!(seen.last(), Some(Response::Done { id: 1, .. })));
        let mut unknown = Vec::new();
        daemon
            .watch(99, &mut |resp| {
                unknown.push(resp.clone());
                Ok(())
            })
            .unwrap();
        assert!(matches!(unknown.last(), Some(Response::Error { .. })));
        daemon.drain();
        for w in workers {
            w.join().unwrap();
        }
    }
}
