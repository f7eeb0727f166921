//! Phase-scoped timers.
//!
//! A [`Span`] measures one phase of the pipeline (P1 taint, P2+P3
//! directed symex, P4 replay). Spans nest by construction order —
//! starting a span inside another simply times the inner region — and
//! on finish they return the elapsed seconds and notify a
//! [`SpanObserver`], when one is attached. The observer hook is how
//! phase timings reach `octo_sched::EventSink` without this crate
//! depending on the scheduler: the bridge lives with the caller.

use std::time::Instant;

/// Receives finished-span notifications.
///
/// Implementors bridge spans into other event systems; the batch layer
/// adapts this to `octo_sched::Event::PhaseFinished`.
pub trait SpanObserver: Sync {
    /// Called when a span attaches via [`Span::with_observer`], before
    /// the region runs. Default: ignored. Observers that bridge spans
    /// into a trace (paired begin/end events) override this.
    fn span_started(&self, _name: &'static str) {}

    /// Called exactly once per span when it finishes (or is dropped).
    fn span_finished(&self, name: &'static str, seconds: f64);
}

/// An observer that discards every notification.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SpanObserver for NullObserver {
    fn span_finished(&self, _name: &'static str, _seconds: f64) {}
}

/// An RAII phase timer.
///
/// ```
/// use octo_obs::{MetricsRegistry, Span, SpanObserver};
/// // An observer that records each finished phase into a histogram.
/// struct PhaseMicros<'a>(&'a octo_obs::Histogram);
/// impl SpanObserver for PhaseMicros<'_> {
///     fn span_finished(&self, _name: &'static str, seconds: f64) {
///         self.0.observe((seconds * 1e6) as u64);
///     }
/// }
/// let reg = MetricsRegistry::new();
/// let hist = reg.histogram("phase_p1_micros", &[100, 10_000]);
/// let observer = PhaseMicros(&hist);
/// let span = Span::start("p1").with_observer(&observer);
/// // ... do the phase work ...
/// let seconds = span.finish();
/// assert!(seconds >= 0.0);
/// assert_eq!(hist.count(), 1);
/// ```
#[must_use = "a span measures the region it is alive for"]
pub struct Span<'a> {
    name: &'static str,
    start: Instant,
    observer: Option<&'a dyn SpanObserver>,
    finished: bool,
}

impl<'a> Span<'a> {
    /// Starts the clock.
    pub fn start(name: &'static str) -> Span<'a> {
        Span {
            name,
            start: Instant::now(),
            observer: None,
            finished: false,
        }
    }

    /// Also notify `obs`: [`SpanObserver::span_started`] now,
    /// [`SpanObserver::span_finished`] on finish.
    pub fn with_observer(mut self, obs: &'a dyn SpanObserver) -> Span<'a> {
        obs.span_started(self.name);
        self.observer = Some(obs);
        self
    }

    /// Stops the clock, notifies the observer, and returns the elapsed
    /// seconds.
    pub fn finish(mut self) -> f64 {
        self.record()
    }

    fn record(&mut self) -> f64 {
        if self.finished {
            return 0.0;
        }
        self.finished = true;
        let seconds = self.start.elapsed().as_secs_f64();
        if let Some(obs) = self.observer {
            obs.span_finished(self.name, seconds);
        }
        seconds
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Recorder(Mutex<Vec<(&'static str, f64)>>);

    impl SpanObserver for Recorder {
        fn span_finished(&self, name: &'static str, seconds: f64) {
            self.0.lock().unwrap().push((name, seconds));
        }
    }

    #[test]
    fn finish_records_once_into_the_observer() {
        let rec = Recorder(Mutex::new(Vec::new()));
        let span = Span::start("p2").with_observer(&rec);
        let secs = span.finish();
        assert!(secs >= 0.0);
        let seen = rec.0.lock().unwrap();
        assert_eq!(seen.len(), 1, "finish + drop must not double-record");
        assert_eq!(seen[0], ("p2", secs));
    }

    #[test]
    fn dropping_an_unfinished_span_still_records() {
        let rec = Recorder(Mutex::new(Vec::new()));
        {
            let _span = Span::start("p4").with_observer(&rec);
        }
        assert_eq!(rec.0.lock().unwrap().len(), 1);
    }

    #[test]
    fn span_started_fires_at_attach() {
        struct Starts(Mutex<Vec<&'static str>>);
        impl SpanObserver for Starts {
            fn span_started(&self, name: &'static str) {
                self.0.lock().unwrap().push(name);
            }
            fn span_finished(&self, _name: &'static str, _seconds: f64) {}
        }
        let obs = Starts(Mutex::new(Vec::new()));
        let span = Span::start("symex").with_observer(&obs);
        assert_eq!(*obs.0.lock().unwrap(), vec!["symex"], "fires before finish");
        span.finish();
        assert_eq!(obs.0.lock().unwrap().len(), 1, "finish adds no start");
    }

    #[test]
    fn spans_nest_by_scope() {
        let rec = Recorder(Mutex::new(Vec::new()));
        let outer = Span::start("outer").with_observer(&rec);
        let inner = Span::start("inner").with_observer(&rec);
        let inner_secs = inner.finish();
        let outer_secs = outer.finish();
        assert!(outer_secs >= inner_secs, "outer span covers the inner one");
        let names: Vec<&str> = rec.0.lock().unwrap().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["inner", "outer"], "inner finishes first");
    }
}
