//! Windowed rate tracking over a [`MetricsRegistry`].
//!
//! Process-lifetime totals answer "how much", never "how fast right
//! now". [`RateRecorder`] closes that gap without touching the record
//! path: a sampler thread calls [`RateRecorder::record`] on an
//! interval, each call takes one [`MetricsRegistry::snapshot`] and
//! pushes it into a fixed-capacity ring. Consecutive snapshots define
//! *windows*; counter deltas over the last N windows yield throughput
//! (jobs/s, solves/s) and ratios (cache hit-rate) for `/metrics/rates`
//! and `octopocs top` — all derived data, recomputed on read, nothing
//! accumulated that could drift from the registry.
//!
//! The ring never blocks recorders of the underlying metrics (sampling
//! reads relaxed atomics under the registry's registration lock) and
//! is bounded: once `capacity` samples exist, the oldest is dropped.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::registry::{MetricsRegistry, MetricsSnapshot};

/// One ring entry: a metrics snapshot stamped with the sampler's
/// monotonic elapsed-time clock.
#[derive(Debug, Clone)]
pub struct RateSample {
    /// Microseconds on the sampler's monotonic clock (octopocsd samples
    /// on the process-wide event clock, `octo_sched::stamp`).
    pub elapsed_micros: u64,
    /// The registry capture at that instant.
    pub snapshot: MetricsSnapshot,
}

/// The delta between two consecutive samples.
#[derive(Debug, Clone)]
pub struct RateWindow {
    /// Window start, microseconds on the sampler's clock.
    pub start_micros: u64,
    /// Window end, microseconds on the sampler's clock.
    pub end_micros: u64,
    /// Counter increments inside the window (zero-delta counters are
    /// omitted; a missing key means "no change").
    pub counter_deltas: Vec<(String, u64)>,
    /// Gauge values at the window's end (gauges are levels, not flows —
    /// the end value is the meaningful one).
    pub gauges: Vec<(String, u64)>,
}

/// A fixed-capacity ring of registry snapshots (see the module docs).
#[derive(Debug)]
pub struct RateRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<RateSample>>,
}

impl RateRecorder {
    /// A recorder keeping at most `capacity` snapshots (clamped to ≥ 2,
    /// the minimum that defines one window).
    pub fn new(capacity: usize) -> RateRecorder {
        RateRecorder {
            capacity: capacity.max(2),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshots `registry` at `elapsed_micros` on the caller's
    /// monotonic clock and pushes it into the ring, evicting the oldest
    /// sample when full. A sample not strictly after the previous one
    /// is dropped (a stalled clock must not create zero-width windows).
    pub fn record(&self, registry: &MetricsRegistry, elapsed_micros: u64) {
        let snapshot = registry.snapshot();
        let mut ring = self.ring.lock().unwrap();
        if let Some(last) = ring.back() {
            if elapsed_micros <= last.elapsed_micros {
                return;
            }
        }
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(RateSample {
            elapsed_micros,
            snapshot,
        });
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// True when no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// All currently-defined windows, oldest first (`len() - 1` of
    /// them; empty until two samples exist).
    pub fn windows(&self) -> Vec<RateWindow> {
        let ring = self.ring.lock().unwrap();
        ring.iter()
            .zip(ring.iter().skip(1))
            .map(|(a, b)| RateWindow {
                start_micros: a.elapsed_micros,
                end_micros: b.elapsed_micros,
                counter_deltas: b
                    .snapshot
                    .counters
                    .iter()
                    .filter_map(|(name, &after)| {
                        let before = a.snapshot.counters.get(name).copied().unwrap_or(0);
                        let delta = after.saturating_sub(before);
                        (delta > 0).then(|| (name.clone(), delta))
                    })
                    .collect(),
                gauges: b
                    .snapshot
                    .gauges
                    .iter()
                    .map(|(name, &v)| (name.clone(), v))
                    .collect(),
            })
            .collect()
    }

    /// The increase of counter `name` per second over (at most) the
    /// last `windows` windows. `None` until two samples exist or when
    /// the counter is absent from the covered samples.
    pub fn rate_per_sec(&self, name: &str, windows: usize) -> Option<f64> {
        let (delta, micros) = self.span_delta(name, windows)?;
        Some(delta as f64 / (micros as f64 / 1e6))
    }

    /// `Δnum / Σ Δdenom` over (at most) the last `windows` windows —
    /// e.g. cache hit-rate as `hits / (hits + misses)`. `None` until
    /// two samples exist or while the denominator total is zero.
    pub fn ratio(&self, num: &str, denom: &[&str], windows: usize) -> Option<f64> {
        let (num_delta, _) = self.span_delta(num, windows)?;
        let mut denom_delta = 0u64;
        for name in denom {
            denom_delta += self.span_delta(name, windows)?.0;
        }
        (denom_delta > 0).then(|| num_delta as f64 / denom_delta as f64)
    }

    /// Counter delta and elapsed micros between the sample `windows`
    /// back (or the oldest held) and the newest sample. Counters are
    /// monotonic, so per-window deltas telescope to this difference.
    fn span_delta(&self, name: &str, windows: usize) -> Option<(u64, u64)> {
        let ring = self.ring.lock().unwrap();
        if ring.len() < 2 || windows == 0 {
            return None;
        }
        let first = &ring[ring.len() - 1 - windows.min(ring.len() - 1)];
        let last = ring.back().expect("len >= 2");
        let before = first.snapshot.counters.get(name)?;
        let after = last.snapshot.counters.get(name)?;
        Some((
            after.saturating_sub(*before),
            last.elapsed_micros - first.elapsed_micros,
        ))
    }

    /// Renders the ring as one JSON document:
    /// `{"capacity":…,"samples":…,"windows":[{"start_us":…,"end_us":…,
    /// "counters":{…},"gauges":{…}},…]}` — counters as deltas inside
    /// each window, gauges as end-of-window levels, windows oldest
    /// first. Deterministic: names sort, integers only.
    pub fn render_json(&self) -> String {
        let windows = self.windows();
        let mut out = format!(
            "{{\"capacity\":{},\"samples\":{},\"windows\":[",
            self.capacity,
            self.len()
        );
        for (i, w) in windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"start_us\":{},\"end_us\":{},\"counters\":{{",
                w.start_micros, w.end_micros
            ));
            for (j, (name, delta)) in w.counter_deltas.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\":{delta}"));
            }
            out.push_str("},\"gauges\":{");
            for (j, (name, value)) in w.gauges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\":{value}"));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_samples_define_one_window_of_deltas() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs_total");
        let g = reg.gauge("depth");
        let rec = RateRecorder::new(8);

        c.add(2);
        g.set(5);
        rec.record(&reg, 1_000_000);
        c.add(3);
        g.set(1);
        rec.record(&reg, 2_000_000);

        let windows = rec.windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].start_micros, 1_000_000);
        assert_eq!(windows[0].end_micros, 2_000_000);
        assert_eq!(
            windows[0].counter_deltas,
            vec![("jobs_total".to_string(), 3)]
        );
        assert_eq!(windows[0].gauges, vec![("depth".to_string(), 1)]);
        assert_eq!(rec.rate_per_sec("jobs_total", 1), Some(3.0));
    }

    #[test]
    fn ring_evicts_oldest_and_rates_cover_requested_span() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let rec = RateRecorder::new(3);
        for tick in 1..=5u64 {
            c.add(tick);
            rec.record(&reg, tick * 1_000_000);
        }
        assert_eq!(rec.len(), 3, "capacity bounds the ring");
        assert_eq!(rec.windows().len(), 2);
        // Last window: tick 4 -> 5 added 5 over one second.
        assert_eq!(rec.rate_per_sec("n", 1), Some(5.0));
        // Asking for more windows than held clamps to the ring.
        assert_eq!(rec.rate_per_sec("n", 100), Some(4.5));
    }

    #[test]
    fn ratio_computes_hit_rate_and_handles_empty_denominator() {
        let reg = MetricsRegistry::new();
        let hits = reg.counter("hits");
        let misses = reg.counter("misses");
        let rec = RateRecorder::new(4);
        rec.record(&reg, 1);
        hits.add(3);
        misses.add(1);
        rec.record(&reg, 2);
        assert_eq!(rec.ratio("hits", &["hits", "misses"], 1), Some(0.75));
        // No further traffic: the next window's denominator is zero.
        rec.record(&reg, 3);
        assert_eq!(rec.ratio("hits", &["hits", "misses"], 1), None);
    }

    #[test]
    fn non_monotonic_and_duplicate_stamps_are_dropped() {
        let reg = MetricsRegistry::new();
        let rec = RateRecorder::new(4);
        rec.record(&reg, 10);
        rec.record(&reg, 10);
        rec.record(&reg, 5);
        assert_eq!(rec.len(), 1, "stalled clock must not add windows");
        assert_eq!(rec.rate_per_sec("absent", 1), None);
    }

    #[test]
    fn render_json_is_integer_only_and_shaped() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs_total");
        let rec = RateRecorder::new(4);
        rec.record(&reg, 1_000);
        c.add(7);
        rec.record(&reg, 2_000);
        let json = rec.render_json();
        assert!(json.contains("\"capacity\":4"), "{json}");
        assert!(json.contains("\"samples\":2"), "{json}");
        assert!(
            json.contains("\"start_us\":1000,\"end_us\":2000,\"counters\":{\"jobs_total\":7}"),
            "{json}"
        );
        assert!(!json.contains('.'), "no floats in the wire form: {json}");
    }
}
