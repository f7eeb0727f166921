//! Per-job causal timelines: submit → queue-wait → attempts → phases →
//! verdict, as served at `/jobs/<id>`.
//!
//! A [`JobTimeline`] is a read-time view of one record in the daemon's
//! job table, which is the only copy of a job's history. Every entry in
//! it — the daemon's own transitions (admission, worker pickup, the
//! final outcome) and each step taken from the executor's event stream
//! — carries its stamp on the one process-wide event clock,
//! [`octo_sched::stamp`], which strictly increases. So a timeline reads
//! in causal order, queue wait is a difference of two stamps, and a
//! step's `at_us` is the very `ts_us` a `watch` client got for the same
//! event.
//!
//! Memory is bounded per job: past [`MAX_STEPS_PER_JOB`] steps further
//! events are counted in `dropped_steps` instead of stored (the
//! submit/pickup/finish stamps are always kept).

use crate::proto::{JobPhase, Priority, WireEventKind};
use octo_codec::json_escape;

/// Cap on stored scheduler steps per job (a pathological event storm
/// must not grow the daemon's memory without bound).
pub const MAX_STEPS_PER_JOB: usize = 4096;

/// One causally-ordered timeline entry taken from the executor's
/// event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineStep {
    /// The event's own stamp on the process-wide event clock.
    pub at_us: u64,
    /// Worker lane that emitted the underlying event.
    pub worker: u64,
    /// The event payload (scheduler timestamps and durations ride along
    /// inside unchanged).
    pub kind: WireEventKind,
}

/// The assembled per-job view served at `/jobs/<id>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTimeline {
    /// Daemon job id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Queue phase at read time.
    pub phase: JobPhase,
    /// Event-clock stamp of admission.
    pub submitted_us: u64,
    /// Event-clock stamp of worker pickup (`None` while queued).
    pub picked_up_us: Option<u64>,
    /// Event-clock stamp of the final transition (`None` while running).
    pub finished_us: Option<u64>,
    /// Outcome label once finished (`"interrupted"` for shutdown).
    pub outcome: Option<String>,
    /// Scheduler-derived steps in causal order.
    pub steps: Vec<TimelineStep>,
    /// Steps discarded beyond [`MAX_STEPS_PER_JOB`].
    pub dropped_steps: u64,
}

/// One attempt's summary, derived from the retry steps: attempts `1..n`
/// each end in a `retry` step carrying backoff and watchdog beats; the
/// final attempt ends with the job itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptSpan {
    /// 1-based attempt number.
    pub attempt: u64,
    /// Event-clock stamp at which the attempt ended (the retry step for
    /// failed attempts; `finished_us` — when known — for the last one).
    pub ended_us: Option<u64>,
    /// Backoff scheduled after this attempt, microseconds (`None` on
    /// the final attempt).
    pub backoff_us: Option<u64>,
    /// Watchdog heartbeats observed during the attempt (`None` when the
    /// scheduler did not report them — i.e. any non-retried attempt).
    pub beats: Option<u64>,
}

impl JobTimeline {
    /// Queue wait in microseconds, once a worker picked the job up.
    pub fn queue_wait_us(&self) -> Option<u64> {
        self.picked_up_us.map(|t| t - self.submitted_us)
    }

    /// The attempts this job has made so far (always at least one once
    /// the job started; empty while queued).
    pub fn attempts(&self) -> Vec<AttemptSpan> {
        if self.picked_up_us.is_none() {
            return Vec::new();
        }
        let mut spans: Vec<AttemptSpan> = self
            .steps
            .iter()
            .filter_map(|s| match &s.kind {
                WireEventKind::Retry {
                    attempt,
                    backoff_us,
                    beats,
                } => Some(AttemptSpan {
                    attempt: *attempt,
                    ended_us: Some(s.at_us),
                    backoff_us: Some(*backoff_us),
                    beats: Some(*beats),
                }),
                _ => None,
            })
            .collect();
        let last = spans.last().map_or(1, |s| s.attempt + 1);
        spans.push(AttemptSpan {
            attempt: last,
            ended_us: self.finished_us,
            backoff_us: None,
            beats: None,
        });
        spans
    }

    /// Renders the timeline as one JSON document (integer stamps,
    /// sorted causally; the shape served at `/jobs/<id>`).
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"name\":\"{}\",\"priority\":\"{}\",\"phase\":\"{}\",\
             \"submitted_us\":{}",
            self.id,
            json_escape(&self.name),
            self.priority.label(),
            self.phase.label(),
            self.submitted_us
        );
        let opt = |out: &mut String, key: &str, v: Option<u64>| match v {
            Some(v) => out.push_str(&format!(",\"{key}\":{v}")),
            None => out.push_str(&format!(",\"{key}\":null")),
        };
        opt(&mut out, "picked_up_us", self.picked_up_us);
        opt(&mut out, "queue_wait_us", self.queue_wait_us());
        opt(&mut out, "finished_us", self.finished_us);
        match &self.outcome {
            Some(o) => out.push_str(&format!(",\"outcome\":\"{}\"", json_escape(o))),
            None => out.push_str(",\"outcome\":null"),
        }
        out.push_str(&format!(",\"dropped_steps\":{}", self.dropped_steps));
        out.push_str(",\"attempts\":[");
        for (i, a) in self.attempts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"attempt\":{}", a.attempt));
            opt(&mut out, "ended_us", a.ended_us);
            opt(&mut out, "backoff_us", a.backoff_us);
            opt(&mut out, "beats", a.beats);
            out.push('}');
        }
        out.push_str("],\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (label, fields) = s.kind.label_and_fields();
            out.push_str(&format!(
                "\n{{\"at_us\":{},\"worker\":{},\"step\":\"{label}\"{fields}}}",
                s.at_us, s.worker
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished job's view: submitted at 10, picked up at 20, one step
    /// per `kinds` entry from 30 on, finished after the last step.
    fn finished(id: u64, name: &str, kinds: Vec<WireEventKind>) -> JobTimeline {
        let steps: Vec<TimelineStep> = kinds
            .into_iter()
            .zip((30..).step_by(10))
            .map(|(kind, at_us)| TimelineStep {
                at_us,
                worker: 0,
                kind,
            })
            .collect();
        let finished_us = steps.last().map_or(30, |s| s.at_us + 10);
        JobTimeline {
            id,
            name: name.to_string(),
            priority: Priority::Bulk,
            phase: JobPhase::Done,
            submitted_us: 10,
            picked_up_us: Some(20),
            finished_us: Some(finished_us),
            outcome: Some("Type-I".to_string()),
            steps,
            dropped_steps: 0,
        }
    }

    #[test]
    fn retries_become_attempt_spans() {
        let retry = |attempt, backoff_us, beats| WireEventKind::Retry {
            attempt,
            backoff_us,
            beats,
        };
        let t = finished(7, "flaky", vec![retry(1, 2000, 5), retry(2, 4000, 9)]);
        let attempts = t.attempts();
        assert_eq!(attempts.len(), 3);
        assert_eq!(attempts[0].attempt, 1);
        assert_eq!(attempts[0].ended_us, Some(t.steps[0].at_us));
        assert_eq!(attempts[0].backoff_us, Some(2000));
        assert_eq!(attempts[0].beats, Some(5));
        assert_eq!(attempts[1].backoff_us, Some(4000));
        assert_eq!(attempts[2].attempt, 3);
        assert_eq!(attempts[2].backoff_us, None);
        assert_eq!(attempts[2].ended_us, t.finished_us);
    }

    #[test]
    fn render_json_carries_queue_wait_attempts_and_steps() {
        let t = finished(
            3,
            "r\"j",
            vec![WireEventKind::Phase {
                phase: "symex".to_string(),
                micros: 500_000,
            }],
        );
        let json = t.render_json();
        assert!(json.contains("\"id\":3"), "{json}");
        assert!(json.contains("\"name\":\"r\\\"j\""), "escaped name: {json}");
        assert!(json.contains("\"queue_wait_us\":10,"), "{json}");
        assert!(json.contains("\"outcome\":\"Type-I\""), "{json}");
        assert!(
            json.contains(
                "\n{\"at_us\":30,\"worker\":0,\"step\":\"phase\",\"phase\":\"symex\",\
                 \"micros\":500000}"
            ),
            "{json}"
        );
        assert!(json.contains("\"attempts\":[{\"attempt\":1"), "{json}");
    }
}
