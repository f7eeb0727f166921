//! Chrome Trace Event Format renderer and validator.
//!
//! The output is a `{"traceEvents":[...]}` JSON object, one event per
//! line, loadable in `chrome://tracing` or Perfetto. Worker indices
//! become thread lanes (`tid`), named via `M` metadata records; span and
//! solver begin/end pairs become `B`/`E` duration events; everything
//! else becomes a thread-scoped instant (`"ph":"i","s":"t"`). Each
//! event's `args` carry the job id, the recorder sequence number, and
//! the kind-specific payload, so the full flight record survives the
//! conversion.

use std::collections::{BTreeMap, BTreeSet};

use octo_codec::{parse_json, JsonValue};

use crate::TraceEvent;

/// Every `name` the renderer can produce (metadata records aside).
/// [`validate`] rejects anything else.
pub const KNOWN_EVENT_NAMES: &[&str] = &[
    "prepare",
    "symex",
    "p4",
    "solve",
    "state_fork",
    "fallback_push",
    "fallback_pop",
    "loop_retry",
    "bunch_asserted",
    "stitch_infeasible",
    "state_dead",
    "cancel_fired",
    "engine_outcome",
    "ep_entered",
    "bunch_recorded",
    "p4_replay",
    "fault_injected",
    "retry_scheduled",
    "job_quarantined",
    "watchdog_fired",
    "candidate_scored",
    "scan_expanded",
    "cache_quarantined",
];

/// Renders `events` (any order; re-sorted by sequence number) as a
/// Chrome Trace Event Format document.
///
/// The renderer is defensive about ring overwrites: an `E` whose `B`
/// was evicted is dropped, and a `B` whose `E` was never recorded is
/// closed at the last timestamp seen on its lane, so the output always
/// has balanced begin/end pairs.
pub fn render_chrome(events: &[TraceEvent]) -> String {
    let mut events: Vec<&TraceEvent> = events.iter().collect();
    events.sort_by_key(|e| e.seq);

    let workers: BTreeSet<u32> = events.iter().map(|e| e.worker).collect();
    let mut lines: Vec<String> = Vec::with_capacity(events.len() + workers.len());
    for w in &workers {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{w},\
             \"args\":{{\"name\":\"worker {w}\"}}}}"
        ));
    }

    // Per-worker stack of open B events: (name, line holding the B).
    let mut open: Vec<Vec<(&'static str, usize)>> = Vec::new();
    let mut last_ts: Vec<u64> = Vec::new();
    let lane = |w: u32, open: &mut Vec<Vec<(&'static str, usize)>>, last: &mut Vec<u64>| {
        let w = w as usize;
        while open.len() <= w {
            open.push(Vec::new());
            last.push(0);
        }
        w
    };

    for e in &events {
        let w = lane(e.worker, &mut open, &mut last_ts);
        last_ts[w] = last_ts[w].max(e.ts_micros);
        let name = e.kind.name();
        let args = e.kind.args_json();
        let sep = if args.is_empty() { "" } else { "," };
        let args = format!("{{\"job\":{},\"seq\":{}{sep}{args}}}", e.job, e.seq);
        match e.kind.phase() {
            'B' => {
                lines.push(format!(
                    "{{\"name\":\"{name}\",\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{},\
                     \"args\":{args}}}",
                    e.worker, e.ts_micros
                ));
                open[w].push((name, lines.len() - 1));
            }
            'E' => match open[w].last() {
                Some((b_name, _)) if *b_name == name => {
                    open[w].pop();
                    lines.push(format!(
                        "{{\"name\":\"{name}\",\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\
                         \"args\":{args}}}",
                        e.worker, e.ts_micros
                    ));
                }
                // The matching B was overwritten in the ring: drop the E.
                _ => {}
            },
            _ => {
                lines.push(format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\
                     \"s\":\"t\",\"args\":{args}}}",
                    e.worker, e.ts_micros
                ));
            }
        }
    }

    // Close anything left open (its E was never recorded) at the lane's
    // last timestamp, innermost first.
    for (w, stack) in open.iter().enumerate() {
        for (name, _) in stack.iter().rev() {
            lines.push(format!(
                "{{\"name\":\"{name}\",\"ph\":\"E\",\"pid\":1,\"tid\":{w},\"ts\":{},\
                 \"args\":{{\"synthesized\":true}}}}",
                last_ts[w]
            ));
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Summary returned by a successful [`validate`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChromeStats {
    /// Trace events checked (metadata records excluded).
    pub events: usize,
    /// Balanced `B`/`E` duration pairs.
    pub pairs: usize,
    /// Instant events.
    pub instants: usize,
    /// Distinct worker lanes.
    pub lanes: usize,
}

/// Checks a [`render_chrome`] document: strict JSON with a
/// `traceEvents` array, known event names only, non-negative
/// timestamps that never go backwards within a lane (document order is
/// sequence order), every lane's `B`/`E` events balanced (LIFO, matching
/// names, `E.ts >= B.ts`) with nothing left open. Returns counts on
/// success, the first problem found on failure.
pub fn validate(text: &str) -> Result<ChromeStats, String> {
    let doc = parse_json(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents envelope")?;
    let mut stats = ChromeStats::default();
    // tid -> the lane's latest ts so far.
    let mut lanes: BTreeMap<i64, i64> = BTreeMap::new();
    // tid -> stack of (name, ts) for open B events.
    let mut open: Vec<(i64, &str, i64)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let at = |msg: String| format!("event {i}: {msg}");
        let str_field = |key: &str| event.get(key).and_then(JsonValue::as_str);
        let int_field = |key: &str| match event.get(key) {
            Some(JsonValue::Int(n)) => Some(*n),
            _ => None,
        };
        let ph = str_field("ph").ok_or_else(|| at("missing ph".into()))?;
        let name = str_field("name").ok_or_else(|| at("missing name".into()))?;
        if ph == "M" {
            continue;
        }
        let tid = int_field("tid").ok_or_else(|| at("missing tid".into()))?;
        let ts = int_field("ts").ok_or_else(|| at("missing ts".into()))?;
        if ts < 0 {
            return Err(at(format!("negative ts {ts}")));
        }
        if !KNOWN_EVENT_NAMES.contains(&name) {
            return Err(at(format!("unknown event name {name:?}")));
        }
        stats.events += 1;
        match ph {
            "B" => open.push((tid, name, ts)),
            "E" => {
                let top = open.iter().rposition(|(t, _, _)| *t == tid);
                let Some(top) = top else {
                    return Err(at(format!("E {name:?} on tid {tid} with no open B")));
                };
                let (_, b_name, b_ts) = open.remove(top);
                if b_name != name {
                    return Err(at(format!("E {name:?} closes B {b_name:?}")));
                }
                if ts < b_ts {
                    return Err(at(format!("negative duration: E ts {ts} < B ts {b_ts}")));
                }
                stats.pairs += 1;
            }
            "i" => {
                if str_field("s") != Some("t") {
                    return Err(at("instant without thread scope".into()));
                }
                stats.instants += 1;
            }
            other => return Err(at(format!("unknown phase {other:?}"))),
        }
        let last = lanes.entry(tid).or_insert(ts);
        if ts < *last {
            return Err(at(format!(
                "ts {ts} on tid {tid} goes backwards from {last}"
            )));
        }
        *last = ts;
    }
    if let Some((tid, name, _)) = open.first() {
        return Err(format!("unclosed B {name:?} on tid {tid}"));
    }
    stats.lanes = lanes.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, TraceKind};

    fn sample() -> Vec<TraceEvent> {
        let rec = FlightRecorder::new(64);
        rec.record(0, 0, TraceKind::SpanBegin { name: "symex" });
        rec.record(0, 0, TraceKind::SolverBegin { constraints: 3 });
        rec.record(
            0,
            0,
            TraceKind::SolverEnd {
                result: "sat",
                micros: 10,
                refutations: 0,
            },
        );
        rec.record(0, 0, TraceKind::LoopRetry { visits: 2 });
        rec.record(0, 0, TraceKind::SpanEnd { name: "symex" });
        rec.record(1, 1, TraceKind::SpanBegin { name: "p4" });
        rec.record(1, 1, TraceKind::SpanEnd { name: "p4" });
        // Cache keys are uniform u64s, about half above i64::MAX, which
        // the JSON reader does not take as a number.
        rec.record(1, 1, TraceKind::CacheQuarantined { key: u64::MAX });
        rec.snapshot()
    }

    #[test]
    fn renders_valid_balanced_trace() {
        let text = render_chrome(&sample());
        let stats = validate(&text).unwrap();
        assert_eq!(stats.pairs, 3);
        assert_eq!(stats.instants, 2);
        assert_eq!(stats.lanes, 2);
        assert!(text.contains("\"key\":\"ffffffffffffffff\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"worker 1\""));
    }

    #[test]
    fn orphan_end_is_dropped_and_orphan_begin_is_closed() {
        let rec = FlightRecorder::new(64);
        rec.record(0, 0, TraceKind::SpanEnd { name: "symex" });
        rec.record(0, 0, TraceKind::SpanBegin { name: "p4" });
        rec.record(0, 0, TraceKind::LoopRetry { visits: 1 });
        let text = render_chrome(&rec.snapshot());
        let stats = validate(&text).unwrap();
        assert_eq!(stats.pairs, 1);
        assert!(text.contains("\"synthesized\":true"));
    }

    #[test]
    fn validate_rejects_unknown_names_and_imbalance() {
        let bad = "{\"traceEvents\":[\n\
                   {\"name\":\"mystery\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1,\"s\":\"t\",\"args\":{}}\n\
                   ]}";
        assert!(validate(bad).unwrap_err().contains("unknown event name"));
        let unclosed = "{\"traceEvents\":[\n\
                        {\"name\":\"symex\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"args\":{}}\n\
                        ]}";
        assert!(validate(unclosed).unwrap_err().contains("unclosed B"));
        let crossed = "{\"traceEvents\":[\n\
                       {\"name\":\"symex\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"args\":{}},\n\
                       {\"name\":\"p4\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2,\"args\":{}}\n\
                       ]}";
        assert!(validate(crossed).unwrap_err().contains("closes B"));
        // Documents Chrome cannot load are rejected even when every event
        // on its own would pass.
        let no_comma = "{\"traceEvents\":[\n\
                        {\"name\":\"symex\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"args\":{}}\n\
                        {\"name\":\"symex\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2,\"args\":{}}\n\
                        ]}";
        assert!(validate(no_comma).unwrap_err().contains("not JSON"));
        let unterminated = "{\"traceEvents\":[\n\
                            {\"name\":\"symex\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"args\":{}},\n\
                            {\"name\":\"symex\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2,\"args\":{}}\n\
                            ]";
        assert!(validate(unterminated).unwrap_err().contains("not JSON"));
        assert!(validate("{\"events\":[]}")
            .unwrap_err()
            .contains("missing traceEvents envelope"));
    }

    #[test]
    fn validate_rejects_negative_duration() {
        let neg = "{\"traceEvents\":[\n\
                   {\"name\":\"symex\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":9,\"args\":{}},\n\
                   {\"name\":\"symex\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":3,\"args\":{}}\n\
                   ]}";
        assert!(validate(neg).unwrap_err().contains("negative duration"));
    }

    #[test]
    fn validate_rejects_a_lane_going_backwards() {
        // Each event passes on its own and the B/E pair is well formed;
        // only the instant on lane 0 steps back in time.
        let backwards = "{\"traceEvents\":[\n\
                   {\"name\":\"symex\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":5,\"args\":{}},\n\
                   {\"name\":\"loop_retry\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":2,\"s\":\"t\",\"args\":{}},\n\
                   {\"name\":\"loop_retry\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":8,\"s\":\"t\",\"args\":{}},\n\
                   {\"name\":\"loop_retry\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":7,\"s\":\"t\",\"args\":{}},\n\
                   {\"name\":\"symex\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":9,\"args\":{}}\n\
                   ]}";
        let err = validate(backwards).unwrap_err();
        assert!(
            err.contains("event 3: ts 7 on tid 0 goes backwards from 8"),
            "{err}"
        );
        // Lanes are independent: lane 1 at ts 2 after lane 0 at 5 is fine.
        let interleaved = backwards.replace("\"ts\":7", "\"ts\":8");
        assert_eq!(validate(&interleaved).unwrap().lanes, 2);
    }
}
