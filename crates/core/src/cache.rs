//! Content-addressed result caching for repeated submissions.
//!
//! Production quantum workloads are repetitive: variational loops and
//! benchmark sweeps submit the *same* circuit to the *same* backend
//! thousands of times. Simulating each copy from scratch wastes the
//! service's scarce resource. This cache keys a finished job's outcome
//! **distribution** by `hash(emitted circuit, backend name, backend
//! noise fingerprint)`; a later submission with the same key skips the
//! simulator entirely and draws fresh shots from the cached
//! distribution — statistically a new run (each hit uses a different
//! deterministic seed), at the cost of a multinomial sample.
//!
//! The cache stores normalized probabilities, not raw counts, so a hit
//! can serve any shot count. It is bounded (least-recently-used
//! eviction) and **off by default**: exact bit-for-bit reproducibility
//! of a seeded backend is part of the executor's contract, and a cache
//! hit is sampled from the empirical distribution, not replayed from
//! the backend's RNG. Opt in via `ExecutorConfig::cache`.

use qukit_aer::counts::Counts;
use qukit_obs::rng::splitmix64;
use qukit_terra::hash::FnvHasher;
use qukit_terra::lru::Lru;
use std::sync::{Arc, Mutex};

/// Configuration of the executor's result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum cached distributions before LRU eviction.
    pub capacity: usize,
}

impl Default for CacheConfig {
    /// 256 cached distributions.
    fn default() -> Self {
        Self { capacity: 256 }
    }
}

impl CacheConfig {
    /// Builder: sets the entry capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

/// A cached outcome distribution: cumulative probabilities over the
/// observed outcomes, ready for CDF inversion sampling.
#[derive(Debug)]
pub struct CachedDistribution {
    num_clbits: usize,
    /// `(outcome, cumulative probability)` in ascending outcome order;
    /// the final cumulative value is 1.0 (up to rounding).
    cdf: Vec<(u64, f64)>,
}

impl CachedDistribution {
    fn from_counts(counts: &Counts) -> Self {
        let total = counts.total().max(1) as f64;
        let mut pairs: Vec<(u64, usize)> = counts.iter().collect();
        pairs.sort_unstable();
        let mut acc = 0.0;
        let cdf = pairs
            .into_iter()
            .map(|(outcome, n)| {
                acc += n as f64 / total;
                (outcome, acc)
            })
            .collect();
        Self { num_clbits: counts.num_clbits(), cdf }
    }

    /// Draws `shots` outcomes by CDF inversion with a deterministic
    /// SplitMix64 stream seeded by `seed`.
    pub fn sample(&self, shots: usize, seed: u64) -> Counts {
        let mut counts = Counts::new(self.num_clbits);
        let mut state = seed;
        for _ in 0..shots {
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            // The first outcome whose cumulative probability exceeds `u`;
            // the last one when rounding leaves the final sum below `u`.
            let last = self.cdf.len().saturating_sub(1);
            let index = self.cdf.partition_point(|&(_, cum)| cum <= u).min(last);
            counts.record(self.cdf.get(index).map_or(0, |&(outcome, _)| outcome));
        }
        counts
    }
}

/// A successful cache probe: the distribution to re-sample plus the
/// trace id of the job whose run produced it, so a cache-hit span can
/// *link* to the producing trace instead of faking an execution.
#[derive(Debug, Clone)]
pub struct CacheHit {
    /// The cached outcome distribution.
    pub distribution: Arc<CachedDistribution>,
    /// Trace id of the producing job (0 when unknown).
    pub producer_trace: u64,
}

/// The bounded, content-addressed result cache.
pub struct ResultCache {
    capacity: usize,
    entries: Mutex<Lru<u128, CacheHit>>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResultCache(capacity={})", self.capacity)
    }
}

impl ResultCache {
    /// An empty cache with the configured capacity (minimum 1).
    pub fn new(config: CacheConfig) -> Self {
        let capacity = config.capacity.max(1);
        Self { capacity, entries: Mutex::new(Lru::new(capacity)) }
    }

    /// The content-address of a submission: the emitted circuit text,
    /// the backend name, and the backend's noise/seed fingerprint (see
    /// [`Backend::fingerprint`](crate::backend::Backend::fingerprint)).
    /// Each is one field of a 128-bit [`FnvHasher`] digest, so unrelated
    /// submissions colliding is negligible.
    pub fn key(qasm: &str, backend: &str, fingerprint: u64) -> u128 {
        let mut hasher = FnvHasher::default();
        hasher.field(qasm.as_bytes());
        hasher.field(backend.as_bytes());
        hasher.u64(fingerprint);
        hasher.finish128()
    }

    /// Looks up a distribution, recording hit/miss metrics and LRU
    /// recency.
    pub fn lookup(&self, key: u128) -> Option<CacheHit> {
        let hit = self.entries.lock().expect("cache lock").get(&key).cloned();
        qukit_obs::counter_inc(if hit.is_some() {
            "qukit_core_cache_hits_total"
        } else {
            "qukit_core_cache_misses_total"
        });
        hit
    }

    /// Stores the distribution of a finished run under the trace id of
    /// the job that produced it, evicting the least-recently-used entry
    /// when over capacity.
    pub fn insert(&self, key: u128, counts: &Counts, producer_trace: u64) {
        let distribution = Arc::new(CachedDistribution::from_counts(counts));
        let mut entries = self.entries.lock().expect("cache lock");
        if entries.insert(key, CacheHit { distribution, producer_trace }).is_some() {
            qukit_obs::counter_inc("qukit_core_cache_evictions_total");
        }
        qukit_obs::counter_inc("qukit_core_cache_insertions_total");
        qukit_obs::gauge_set("qukit_core_cache_entries", entries.len() as f64);
    }

    /// Number of cached distributions.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell_counts() -> Counts {
        let mut counts = Counts::new(2);
        counts.record_n(0b00, 480);
        counts.record_n(0b11, 520);
        counts
    }

    #[test]
    fn keys_separate_circuit_backend_and_fingerprint() {
        let base = ResultCache::key("qasm-a", "qasm_simulator", 1);
        assert_eq!(base, ResultCache::key("qasm-a", "qasm_simulator", 1));
        assert_ne!(base, ResultCache::key("qasm-b", "qasm_simulator", 1));
        assert_ne!(base, ResultCache::key("qasm-a", "dd_simulator", 1));
        assert_ne!(base, ResultCache::key("qasm-a", "qasm_simulator", 2));
    }

    #[test]
    fn sample_preserves_support_and_total() {
        let dist = CachedDistribution::from_counts(&bell_counts());
        let sampled = dist.sample(1000, 42);
        assert_eq!(sampled.total(), 1000);
        let outcomes: Vec<u64> = sampled.iter().map(|(o, _)| o).collect();
        assert!(outcomes.iter().all(|o| *o == 0b00 || *o == 0b11), "support preserved");
        // Both outcomes near p=0.5 appear in 1000 shots.
        assert_eq!(outcomes.len(), 2, "both outcomes sampled: {outcomes:?}");
        // Frequencies track the distribution loosely (p≈.48/.52).
        let zero = sampled.iter().find(|(o, _)| *o == 0).map_or(0, |(_, n)| n);
        assert!((300..700).contains(&zero), "p~0.48 outcome sampled {zero}/1000");
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_varies_across_seeds() {
        let dist = CachedDistribution::from_counts(&bell_counts());
        let pairs = |c: &Counts| {
            let mut v: Vec<(u64, usize)> = c.iter().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(pairs(&dist.sample(500, 7)), pairs(&dist.sample(500, 7)));
        assert_ne!(pairs(&dist.sample(500, 7)), pairs(&dist.sample(500, 8)));
    }

    #[test]
    fn sample_counts_are_pinned_for_a_four_outcome_distribution() {
        let mut counts = Counts::new(2);
        counts.record_n(0b00, 100);
        counts.record_n(0b01, 250);
        counts.record_n(0b10, 50);
        counts.record_n(0b11, 600);
        let sampled = CachedDistribution::from_counts(&counts).sample(1000, 2024);
        let mut pairs: Vec<(u64, usize)> = sampled.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0b00, 99), (0b01, 243), (0b10, 51), (0b11, 607)]);
    }

    #[test]
    fn lookup_miss_then_insert_then_hit() {
        // Recency order itself is covered by the `Lru` suite; this checks
        // the cache's wiring to it and its metrics.
        let scope = qukit_obs::Scope::new();
        let _installed = scope.install();
        let cache = ResultCache::new(CacheConfig { capacity: 2 });
        let (a, b, c) = (
            ResultCache::key("a", "x", 0),
            ResultCache::key("b", "x", 0),
            ResultCache::key("c", "x", 0),
        );
        assert!(cache.lookup(a).is_none());
        cache.insert(a, &bell_counts(), 4242);
        let hit = cache.lookup(a).expect("cached");
        assert_eq!(hit.producer_trace, 4242, "hit names the producing trace");
        assert_eq!(hit.distribution.sample(10, 1).total(), 10);
        cache.insert(b, &bell_counts(), 0);
        assert!(cache.lookup(a).is_some(), "touch a so b is LRU");
        cache.insert(c, &bell_counts(), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(b).is_none(), "b was evicted");
        assert!(cache.lookup(a).is_some() && cache.lookup(c).is_some());
        let snapshot = scope.snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        assert_eq!(counter("qukit_core_cache_hits_total"), 4);
        assert_eq!(counter("qukit_core_cache_misses_total"), 2);
        assert_eq!(counter("qukit_core_cache_insertions_total"), 3);
        assert_eq!(counter("qukit_core_cache_evictions_total"), 1);
        assert_eq!(snapshot.gauges.get("qukit_core_cache_entries"), Some(&2.0));
    }

    #[test]
    fn sampling_matches_a_linear_cdf_scan() {
        // The binary search picks exactly what a front-to-back scan for
        // the first cumulative value above `u` picks, falling back to the
        // last outcome when rounding leaves the final sum below `u`.
        let linear = |dist: &CachedDistribution, shots: usize, seed: u64| {
            let mut state = seed;
            let mut counts = Counts::new(dist.num_clbits);
            for _ in 0..shots {
                let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                let (outcome, _) =
                    dist.cdf.iter().find(|&&(_, cum)| u < cum).or(dist.cdf.last()).unwrap();
                counts.record(*outcome);
            }
            counts
        };
        let mut counts = Counts::new(3);
        for (outcome, n) in [(0b000, 1), (0b011, 3), (0b101, 1), (0b110, 2), (0b111, 3)] {
            counts.record_n(outcome, n);
        }
        let dist = CachedDistribution::from_counts(&counts);
        assert_eq!(dist.sample(2000, 99), linear(&dist, 2000, 99));
        let short = CachedDistribution { num_clbits: 1, cdf: vec![(0, 0.25), (1, 0.5)] };
        let sampled = short.sample(400, 3);
        assert_eq!(sampled, linear(&short, 400, 3));
        assert!(sampled.get_value(1) > 200, "u past the final sum lands on the last outcome");
    }
}
