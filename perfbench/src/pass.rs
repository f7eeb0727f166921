//! One closed-loop batch pass and what the benchmark's own event sink saw
//! of it.

use std::sync::Mutex;
use std::time::Instant;

use octo_sched::{Event, EventKind, EventSink};

/// Records, per submission index, when the job started and finished
/// relative to the pass start, and the job's own wall time.
pub struct PassLog {
    start: Instant,
    rows: Mutex<Vec<JobTimes>>,
}

/// Timestamps of one job within a pass, seconds from the pass start.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTimes {
    /// When a worker picked the job up.
    pub started: Option<f64>,
    /// When the verdict was emitted.
    pub finished: Option<f64>,
    /// The job's own wall time as the runtime reported it.
    pub wall: f64,
}

impl PassLog {
    /// A log for a pass starting now.
    pub fn start() -> PassLog {
        PassLog {
            start: Instant::now(),
            rows: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the pass started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The recorded rows, indexed by submission index.
    pub fn rows(&self) -> Vec<JobTimes> {
        self.rows.lock().expect("pass log poisoned").clone()
    }
}

impl EventSink for PassLog {
    fn emit(&self, event: Event) {
        let at = self.start.elapsed().as_secs_f64();
        let mut rows = self.rows.lock().expect("pass log poisoned");
        let job = event.job();
        if rows.len() <= job {
            rows.resize(job + 1, JobTimes::default());
        }
        match event.kind {
            EventKind::JobStarted { .. } => rows[job].started = Some(at),
            EventKind::JobFinished { seconds, .. } => {
                rows[job].finished = Some(at);
                rows[job].wall = seconds;
            }
            _ => {}
        }
    }
}

/// Scheduler figures of one pass, from its event log.
#[derive(Debug, Clone, Copy)]
pub struct SchedFigures {
    /// Sum of job walls over `workers` × pass wall.
    pub busy_share: f64,
    /// Mean time from the pass start to a worker picking a job up, ms.
    pub queue_wait_ms: f64,
}

/// Busy share and queue wait of a pass of `wall` seconds on `workers`.
pub fn sched_figures(rows: &[JobTimes], workers: usize, wall: f64) -> SchedFigures {
    let busy: f64 = rows.iter().map(|r| r.wall).sum();
    let waits: Vec<f64> = rows.iter().filter_map(|r| r.started).collect();
    SchedFigures {
        busy_share: busy / (workers as f64 * wall),
        queue_wait_ms: 1e3 * waits.iter().sum::<f64>() / waits.len().max(1) as f64,
    }
}
