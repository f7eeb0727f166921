//! Property tests for the histogram math (ISSUE 3 satellite): merging
//! two histograms must be indistinguishable from observing the
//! concatenated stream, and the quantile/render paths must stay total
//! (no NaN, no division by zero) for every input — including empty.

use octo_obs::{Histogram, MetricsRegistry};
use proptest::prelude::*;

/// Strictly increasing bucket bounds drawn from a small universe.
fn bounds_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..10_000, 0..6).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merged_histograms_equal_histogram_of_concatenation(
        bounds in bounds_strategy(),
        xs in prop::collection::vec(0u64..20_000, 0..64),
        ys in prop::collection::vec(0u64..20_000, 0..64),
    ) {
        let a = Histogram::new(&bounds);
        let b = Histogram::new(&bounds);
        let whole = Histogram::new(&bounds);
        for &x in &xs {
            a.observe(x);
            whole.observe(x);
        }
        for &y in &ys {
            b.observe(y);
            whole.observe(y);
        }
        a.merge_from(&b);

        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.sum(), whole.sum());
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
        prop_assert_eq!(a.bucket_counts(), whole.bucket_counts());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn quantile_is_total_and_within_observed_range(
        bounds in bounds_strategy(),
        xs in prop::collection::vec(0u64..20_000, 0..64),
        q_milli in -1000i64..2000,
    ) {
        let q = q_milli as f64 / 1000.0;
        let h = Histogram::new(&bounds);
        for &x in &xs {
            h.observe(x);
        }
        match h.quantile(q) {
            None => prop_assert_eq!(h.count(), 0, "None only for the empty histogram"),
            Some(v) => {
                // The answer is a bucket upper bound clamped to the
                // observed range, or the observed max.
                let (min, max) = (h.min().unwrap(), h.max().unwrap());
                prop_assert!(min <= v && v <= max, "quantile {v} outside {min}..={max}");
            }
        }
    }

    #[test]
    fn registry_merge_matches_single_registry_recording(
        xs in prop::collection::vec(0u64..1_000, 0..32),
        ys in prop::collection::vec(0u64..1_000, 0..32),
    ) {
        // Two worker-local registries merged into one must agree with a
        // single shared registry — the two collection modes the batch
        // layer may use.
        let merged = MetricsRegistry::new();
        let shared = MetricsRegistry::new();
        let worker_a = MetricsRegistry::new();
        let worker_b = MetricsRegistry::new();
        for (reg_pair, stream) in [((&worker_a, &shared), &xs), ((&worker_b, &shared), &ys)] {
            let (local, global) = reg_pair;
            for &v in stream {
                local.counter("steps_total").add(v);
                global.counter("steps_total").add(v);
                local.gauge("peak").record_max(v);
                global.gauge("peak").record_max(v);
                local.histogram("lat", &[10, 100]).observe(v);
                global.histogram("lat", &[10, 100]).observe(v);
            }
        }
        merged.merge_from(&worker_a);
        merged.merge_from(&worker_b);
        prop_assert_eq!(merged.render_json(), shared.render_json());
        prop_assert_eq!(merged.render_prometheus(), shared.render_prometheus());
    }
}
