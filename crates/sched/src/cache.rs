//! A content-addressed artifact cache with single-flight semantics.
//!
//! Batch verification repeats work whenever jobs share inputs: N targets
//! cloned from one vulnerable source `S` all need the same preprocessing
//! and P1 crash-primitive extraction. [`ArtifactCache`] memoizes such
//! artifacts under a content hash of *everything the computation depends
//! on* — callers derive the key with `octo_codec::Fnv` from the input
//! bytes and configuration, so any change to any ingredient produces a
//! different key and an honest miss.
//!
//! The cache is **single-flight**: when several workers request the same
//! missing key concurrently, exactly one runs the compute closure; the
//! others block on the per-key slot and then score a hit. This is what
//! makes "P1 ran exactly once for this `(S, poc)` group" a guarantee
//! rather than a fast-path heuristic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A point-in-time snapshot of cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a stored artifact.
    pub hits: u64,
    /// Requests that had to run the compute closure.
    pub misses: u64,
    /// Distinct artifacts currently stored.
    pub entries: u64,
    /// Total approximate bytes of stored artifacts, as reported by the
    /// compute closures.
    pub bytes: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; `0` when the cache was never consulted.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One per-key slot: `None` until the first (and only) compute fills it.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// A thread-safe content-addressed memo table.
///
/// Values are stored behind [`Arc`] and returned by handle; the cache
/// never evicts (batch lifetimes are short and bounded by the job set).
pub struct ArtifactCache<V> {
    map: Mutex<HashMap<u64, Slot<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

impl<V> Default for ArtifactCache<V> {
    fn default() -> ArtifactCache<V> {
        ArtifactCache::new()
    }
}

impl<V> ArtifactCache<V> {
    /// An empty cache.
    pub fn new() -> ArtifactCache<V> {
        ArtifactCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Returns the artifact stored under `key`, computing it on first
    /// request. `compute` returns the value and its approximate size in
    /// bytes (for the [`CacheStats::bytes`] gauge).
    ///
    /// The boolean is `true` on a hit. Concurrent misses on one key are
    /// serialised: exactly one caller computes, the rest hit.
    pub fn get_or_compute<F>(&self, key: u64, compute: F) -> (Arc<V>, bool)
    where
        F: FnOnce() -> (V, u64),
    {
        let slot: Slot<V> = {
            let mut map = self.map.lock().expect("cache map poisoned");
            map.entry(key).or_default().clone()
        };
        // The map lock is released before the slot lock is taken, so a
        // slow compute on one key never blocks lookups of other keys.
        let mut guard = slot.lock().expect("cache slot poisoned");
        if let Some(v) = guard.as_ref() {
            // Fault-injection site: an active fault plan can force the
            // hit path to behave like a miss (discard and recompute), to
            // exercise callers' miss paths under a plan-controlled
            // schedule. Inert without an installed fault context.
            if !octo_faults::should_inject(octo_faults::FaultSite::CacheMiss) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(v), true);
            }
            guard.take();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (value, size) = compute();
        let value = Arc::new(value);
        *guard = Some(Arc::clone(&value));
        self.bytes.fetch_add(size, Ordering::Relaxed);
        (value, false)
    }

    /// The artifact under `key`, if already computed.
    pub fn get(&self, key: u64) -> Option<Arc<V>> {
        let slot = self
            .map
            .lock()
            .expect("cache map poisoned")
            .get(&key)?
            .clone();
        let found = slot.lock().expect("cache slot poisoned").clone();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("cache map poisoned").len() as u64,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl<V> std::fmt::Debug for ArtifactCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn second_request_hits_and_skips_compute() {
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        let (v1, hit1) = cache.get_or_compute(7, || (41, 4));
        let (v2, hit2) = cache.get_or_compute(7, || panic!("must not recompute"));
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(*v1, 41);
        assert_eq!(*v2, 41);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, 4);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unconsulted_cache_hit_ratio_is_zero_not_nan() {
        // Regression guard for the metrics exports: an empty batch
        // renders CacheStats without ever consulting the cache, and the
        // ratio must stay a plain 0.0 (no 0/0 NaN leaking into JSON).
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(stats.hit_ratio(), 0.0);
        assert!(stats.hit_ratio().is_finite());
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        let (a, _) = cache.get_or_compute(1, || (10, 1));
        let (b, _) = cache.get_or_compute(2, || (20, 1));
        assert_eq!((*a, *b), (10, 20));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn concurrent_misses_compute_exactly_once() {
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        let computed = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = cache.get_or_compute(99, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        (123, 8)
                    });
                    assert_eq!(*v, 123);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single-flight");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn injected_miss_forces_recompute_and_counts_as_miss() {
        use std::sync::Arc;

        // The hit path consults the fault plan once per *stored-value
        // lookup*, so occurrence 1 is the first would-be hit.
        let plan = Arc::new(octo_faults::FaultPlan::new(0).nth(
            octo_faults::FaultSite::CacheMiss,
            None,
            1,
        ));
        let ctx = Arc::new(octo_faults::JobFaults::new(&plan, 0));
        let _g = octo_faults::install(&ctx);

        let cache: ArtifactCache<u32> = ArtifactCache::new();
        let computed = AtomicU32::new(0);
        let compute = || {
            computed.fetch_add(1, Ordering::SeqCst);
            (55, 4)
        };
        let (_, hit1) = cache.get_or_compute(3, compute); // genuine miss
        let (v2, hit2) = cache.get_or_compute(3, compute); // injected miss
        let (v3, hit3) = cache.get_or_compute(3, compute); // clean hit
        assert_eq!((hit1, hit2, hit3), (false, false, true));
        assert_eq!((*v2, *v3), (55, 55));
        assert_eq!(
            computed.load(Ordering::SeqCst),
            2,
            "injected miss must recompute"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
    }

    #[test]
    fn get_without_compute() {
        let cache: ArtifactCache<u32> = ArtifactCache::new();
        assert!(cache.get(5).is_none());
        cache.get_or_compute(5, || (1, 1));
        assert_eq!(*cache.get(5).unwrap(), 1);
    }
}
