//! The transpile cache: repeated service traffic skips the pipeline.
//!
//! Transpilation is by far the most expensive step for small repeated
//! circuits (the PR 6 multi-tenant workload resubmits identical payloads
//! constantly), and it is fully deterministic: the same circuit, coupling
//! map, routing options, optimization level and basis produce the same
//! output. [`transpile_cached`] therefore keys results by a dual-FNV
//! 128-bit content hash of `(circuit, coupling map, mapper, initial
//! layout, opt level, basis)` and returns a **clone of the cached
//! [`TranspileResult`]** on a hit — bit-identical to a fresh transpile,
//! because [`super::transpile`] itself is deterministic.
//!
//! Hits and misses are observable through
//! `qukit_terra_transpile_cache_{hits,misses,inserts,evictions}_total`
//! and the `qukit_terra_transpile_cache_entries` gauge; `qukit bench
//! --transpile` uses the same path to prove the ≥10× hit/cold speedup.

use super::{transpile, TranspileOptions, TranspileResult};
use crate::circuit::QuantumCircuit;
use crate::error::Result;
use crate::hash::FnvHasher;
use crate::lru::Lru;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Counters describing cache behaviour, as observed by tests and the
/// bench harness (the obs counters carry the same values globally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored result.
    pub hits: u64,
    /// Lookups that fell through to the pipeline.
    pub misses: u64,
    /// Results stored.
    pub inserts: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct CacheState {
    entries: Lru<u128, TranspileResult>,
    stats: CacheStats,
}

/// A bounded LRU cache of transpile results.
pub struct TranspileCache {
    state: Mutex<CacheState>,
}

impl TranspileCache {
    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CacheState {
                entries: Lru::new(capacity),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Content hash of a transpile request. Every input that can change
    /// the output is folded in: the full instruction stream (operations,
    /// operands, conditions, global phase, register shape), the coupling
    /// map (name, size and exact edge set), and all routing/optimization
    /// options. Two different opt levels, coupling maps or basis settings
    /// therefore never share a key.
    pub fn key(circuit: &QuantumCircuit, options: &TranspileOptions) -> u128 {
        let mut hasher = FnvHasher::default();
        hasher.u64(circuit.num_qubits() as u64);
        hasher.u64(circuit.num_clbits() as u64);
        hasher.f64(circuit.global_phase());
        for inst in circuit.instructions() {
            // Streamed into the hasher: no string is built per instruction.
            write!(hasher, "{inst:?}").expect("hashing cannot fail");
            hasher.field(&[]);
        }

        match &options.coupling_map {
            Some(map) => {
                hasher.field(b"coupled");
                hasher.field(map.name().as_bytes());
                hasher.u64(map.num_qubits() as u64);
                for (a, b) in map.edges() {
                    hasher.u64(a as u64);
                    hasher.u64(b as u64);
                }
            }
            None => hasher.field(b"all-to-all"),
        }
        hasher.u64(options.mapper as u64);
        options.initial_layout.hash_fields(&mut hasher);
        hasher.field(&[options.optimization_level, u8::from(options.basis_u)]);
        hasher.finish128()
    }

    /// Looks a result up, updating LRU recency and hit/miss counters.
    pub fn lookup(&self, key: u128) -> Option<TranspileResult> {
        let mut state = self.state.lock().expect("transpile cache lock");
        match state.entries.get(&key).cloned() {
            Some(result) => {
                state.stats.hits += 1;
                qukit_obs::counter_inc("qukit_terra_transpile_cache_hits_total");
                Some(result)
            }
            None => {
                state.stats.misses += 1;
                qukit_obs::counter_inc("qukit_terra_transpile_cache_misses_total");
                None
            }
        }
    }

    /// Stores a result, evicting the least-recently-used entry when full.
    pub fn insert(&self, key: u128, result: TranspileResult) {
        let mut state = self.state.lock().expect("transpile cache lock");
        if state.entries.insert(key, result).is_some() {
            state.stats.evictions += 1;
            qukit_obs::counter_inc("qukit_terra_transpile_cache_evictions_total");
        }
        state.stats.inserts += 1;
        qukit_obs::counter_inc("qukit_terra_transpile_cache_inserts_total");
        qukit_obs::gauge_set("qukit_terra_transpile_cache_entries", state.entries.len() as f64);
    }

    /// Current stats snapshot.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("transpile cache lock");
        CacheStats { entries: state.entries.len(), ..state.stats }
    }

    /// Empties the cache and resets the stats (tests and benchmarks).
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("transpile cache lock");
        state.entries.clear();
        state.stats = CacheStats::default();
        qukit_obs::gauge_set("qukit_terra_transpile_cache_entries", 0.0);
    }
}

/// The process-wide transpile cache used by [`transpile_cached`].
pub fn global() -> &'static TranspileCache {
    static CACHE: OnceLock<TranspileCache> = OnceLock::new();
    CACHE.get_or_init(|| TranspileCache::new(256))
}

/// [`transpile`] through the process-wide cache: a hit returns a clone of
/// the stored result (bit-identical to a fresh transpile), a miss runs
/// the pipeline and stores the outcome.
///
/// # Errors
///
/// Same failure modes as [`transpile`] (errors are not cached).
pub fn transpile_cached(
    circuit: &QuantumCircuit,
    options: &TranspileOptions,
) -> Result<TranspileResult> {
    let key = TranspileCache::key(circuit, options);
    if let Some(result) = global().lookup(key) {
        return Ok(result);
    }
    let result = transpile(circuit, options)?;
    global().insert(key, result.clone());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::fig1_circuit;
    use crate::coupling::CouplingMap;
    use crate::transpiler::MapperKind;

    #[test]
    fn keys_separate_every_option_dimension() {
        let circ = fig1_circuit();
        let base_opts = TranspileOptions::for_device(CouplingMap::ibm_qx4());
        let base = TranspileCache::key(&circ, &base_opts);
        assert_eq!(base, TranspileCache::key(&circ, &base_opts), "key is deterministic");

        let mut level = base_opts.clone();
        level.optimization_level = 3;
        assert_ne!(base, TranspileCache::key(&circ, &level));

        let mut mapper = base_opts.clone();
        mapper.mapper = MapperKind::AStar;
        assert_ne!(base, TranspileCache::key(&circ, &mapper));

        let mut basis = base_opts.clone();
        basis.basis_u = true;
        assert_ne!(base, TranspileCache::key(&circ, &basis));

        let line = TranspileOptions::for_device(CouplingMap::line(5));
        assert_ne!(base, TranspileCache::key(&circ, &line));

        let mut other_circ = circ.clone();
        other_circ.h(0).unwrap();
        assert_ne!(base, TranspileCache::key(&other_circ, &base_opts));
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        // Recency order itself is covered by the `Lru` suite; this checks
        // the cache's wiring to it and its counters.
        let cache = TranspileCache::new(2);
        let circ = fig1_circuit();
        let opts = TranspileOptions::for_simulator(1);
        let result = transpile(&circ, &opts).unwrap();
        assert!(cache.lookup(1).is_none());
        cache.insert(1, result.clone());
        cache.insert(2, result.clone());
        assert!(cache.lookup(1).is_some(), "refresh key 1");
        cache.insert(3, result);
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 1, misses: 1, inserts: 3, evictions: 1, entries: 2 }
        );
        assert!(cache.lookup(2).is_none(), "key 2 was least recently used");
        assert!(cache.lookup(1).is_some() && cache.lookup(3).is_some());
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
