//! Content-addressed memoization of compilation results, and the one
//! bounded in-memory cache type behind it.
//!
//! A session's result tier maps a [`CacheKey`] — the joint fingerprint of
//! the circuit content, the job kind (strategy or explicit mapping
//! options), the topology structure and the compiler configuration — to an
//! `Arc<CompilationResult>`. Compilation is deterministic in exactly those
//! four inputs, so a hit can be served without re-running the pipeline and
//! is guaranteed byte-identical to a fresh compile (pinned by the session
//! test-suite and the optional [`crate::CompilerBuilder::verify_hits`]
//! mode, up to 64-bit fingerprint collisions).
//!
//! The tier is a [`ResultCache`]: a key-generic, least-recently-used map
//! over a bounded capacity whose [`CacheStats`] count hits, misses and
//! evictions exactly. Every other bounded map of the crate (topology
//! registry, encoded-signature oracles, landmark hot rows) is one too.

use crate::breaker::BreakerState;
use crate::mapping::MappingOptions;
use crate::strategies::Strategy;
use qompress_arch::Fingerprinter;
use qompress_circuit::{
    Circuit, Gate, ParametricCircuit, ParametricGate, RotationAxis, SingleQubitKind,
};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Hit/miss/eviction counters of one in-memory cache tier: a session's
/// result cache (see [`crate::Compiler::cache_stats`]) or its skeleton
/// cache.
///
/// These count the memory tier only. With a persistent tier attached
/// ([`crate::CompilerBuilder::persist_dir`]), a memory miss falls
/// through to disk and may still be served without compiling; see
/// [`crate::Compiler::tiered_cache_stats`] for the per-tier split and the
/// count of true compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memory tier.
    pub hits: u64,
    /// Lookups the memory tier could not answer: compiled, or served from
    /// the disk tier when one is attached.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// The activity between the snapshot `before` and `self`. Saturating:
    /// a concurrent [`crate::Compiler::clear_cache`] between the two
    /// snapshots resets the counters, which must not underflow the delta.
    pub(crate) fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            evictions: self.evictions.saturating_sub(before.evictions),
        }
    }

    /// Hit fraction over all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The stats as a JSON object string —
    /// `{"hits": …, "misses": …, "evictions": …, "hit_rate": …}` — the
    /// one snapshot shape shared by the examples' report files and the
    /// `qompress-service` stats response. Lives here so a new counter
    /// field is added to every emitter in one place.
    pub fn to_json(&self) -> String {
        // Exhaustive destructuring: a new field fails to compile here
        // until the JSON shape covers it.
        let CacheStats {
            hits,
            misses,
            evictions,
        } = *self;
        format!(
            "{{\"hits\": {hits}, \"misses\": {misses}, \"evictions\": {evictions}, \
             \"hit_rate\": {:.6}}}",
            self.hit_rate()
        )
    }
}

impl std::fmt::Display for CacheStats {
    /// Renders the counters plus the derived hit rate, e.g.
    /// `3 hits / 1 misses / 0 evictions (75.0% hit rate)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} evictions ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.evictions,
            self.hit_rate() * 100.0
        )
    }
}

/// Per-tier cache counters of a session with a persistent tier attached
/// (see [`crate::Compiler::tiered_cache_stats`]).
///
/// Relation to the legacy flat [`CacheStats`]: `memory_hits` and
/// `memory_evictions` mirror the in-memory tier's counters; `disk_hits`
/// count lookups the memory tier missed but the on-disk store served;
/// `misses` are true compiles (both tiers missed). Without a persistent
/// tier, `misses` equals the memory tier's misses and every disk counter
/// is zero — the flat and tiered views then tell the same story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TieredCacheStats {
    /// Lookups answered by the in-memory LRU (tier 1).
    pub memory_hits: u64,
    /// Lookups answered by the on-disk store (tier 2).
    pub disk_hits: u64,
    /// Lookups that missed every tier and compiled.
    pub misses: u64,
    /// In-memory entries dropped to respect the capacity bound.
    pub memory_evictions: u64,
    /// Artifacts written back to the on-disk store.
    pub disk_writes: u64,
    /// On-disk entries rejected by validation (corrupt, truncated, or a
    /// different format version) — each also counted under `misses`' tier
    /// walk, and the bad entry is removed best-effort.
    pub disk_rejects: u64,
    /// Write-backs that failed with an I/O error (the result is still
    /// served; it is just not persisted).
    pub disk_write_errors: u64,
    /// Disk reads that failed with a real I/O error (not a miss, not a
    /// validation reject) — each also counted under `misses` and
    /// reported to the tier's circuit breaker.
    pub disk_read_errors: u64,
    /// Disk operations skipped because the breaker was open — the
    /// session served memory + compile as if no tier were configured.
    pub disk_skipped: u64,
    /// Times the breaker tripped open (N consecutive disk errors).
    pub breaker_trips: u64,
    /// Half-open probes admitted after a cooldown.
    pub breaker_probes: u64,
    /// Current breaker state ([`BreakerState::Closed`] when no
    /// persistent tier is configured).
    pub breaker_state: BreakerState,
}

impl TieredCacheStats {
    /// Hit fraction over all lookups, counting both tiers as hits
    /// (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.memory_hits + self.disk_hits;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The stats as a JSON object string, the shape shared by the
    /// examples' report files and the `qompress-service` stats response.
    pub fn to_json(&self) -> String {
        // Exhaustive destructuring: a new field fails to compile here
        // until the JSON shape covers it.
        let TieredCacheStats {
            memory_hits,
            disk_hits,
            misses,
            memory_evictions,
            disk_writes,
            disk_rejects,
            disk_write_errors,
            disk_read_errors,
            disk_skipped,
            breaker_trips,
            breaker_probes,
            breaker_state,
        } = *self;
        format!(
            "{{\"memory_hits\": {memory_hits}, \"disk_hits\": {disk_hits}, \
             \"misses\": {misses}, \"memory_evictions\": {memory_evictions}, \
             \"disk_writes\": {disk_writes}, \"disk_rejects\": {disk_rejects}, \
             \"disk_write_errors\": {disk_write_errors}, \
             \"disk_read_errors\": {disk_read_errors}, \
             \"disk_skipped\": {disk_skipped}, \
             \"breaker_trips\": {breaker_trips}, \
             \"breaker_probes\": {breaker_probes}, \
             \"breaker_state\": \"{}\", \"hit_rate\": {:.6}}}",
            breaker_state.name(),
            self.hit_rate()
        )
    }
}

impl std::fmt::Display for TieredCacheStats {
    /// Renders the per-tier counters plus the derived hit rate, e.g.
    /// `2 memory hits / 1 disk hits / 1 misses (75.0% hit rate)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} memory hits / {} disk hits / {} misses ({:.1}% hit rate)",
            self.memory_hits,
            self.disk_hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

/// The content address of one compilation job.
///
/// Each component is a stable 64-bit fingerprint (see
/// [`qompress_arch::Fingerprinter`]): the circuit's gate stream, the job
/// kind (strategy name, or the explicit mapping options of the
/// options-level entry point), [`qompress_arch::Topology::structural_fingerprint`],
/// and [`crate::CompilerConfig::fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    circuit: u64,
    job: u64,
    topology: u64,
    config: u64,
}

impl CacheKey {
    /// Key for a strategy-level compile.
    pub(crate) fn for_strategy(
        circuit: &Circuit,
        strategy: Strategy,
        topology_fp: u64,
        config_fp: u64,
    ) -> Self {
        let mut h = Fingerprinter::new();
        h.write_str("strategy").write_str(strategy.name());
        CacheKey {
            circuit: circuit_fingerprint(circuit),
            job: h.finish(),
            topology: topology_fp,
            config: config_fp,
        }
    }

    /// Key for an options-level compile (explicit [`MappingOptions`]).
    pub(crate) fn for_options(
        circuit: &Circuit,
        options: &MappingOptions,
        topology_fp: u64,
        config_fp: u64,
    ) -> Self {
        // Exhaustive destructuring (no `..`): a new `MappingOptions` field
        // fails to compile here until the key covers it.
        let MappingOptions { pairs, allow_slot1 } = options;
        let mut h = Fingerprinter::new();
        h.write_str("options")
            .write_bool(*allow_slot1)
            .write_usize(pairs.len());
        for &(a, b) in pairs {
            h.write_usize(a).write_usize(b);
        }
        CacheKey {
            circuit: circuit_fingerprint(circuit),
            job: h.finish(),
            topology: topology_fp,
            config: config_fp,
        }
    }

    /// The key's hex rendering — 64 lowercase hex chars (four fixed-width
    /// 16-char fingerprints, circuit/job/topology/config) — used as the
    /// content address in the on-disk store. Injective over keys, stable
    /// across processes, and path-safe.
    pub(crate) fn hex(&self) -> String {
        let CacheKey {
            circuit,
            job,
            topology,
            config,
        } = *self;
        format!("{circuit:016x}{job:016x}{topology:016x}{config:016x}")
    }

    /// Key for a skeleton-level (structural) compile: the circuit
    /// component is the *structural* fingerprint, which ignores angle
    /// values at parametric sites while still distinguishing parameter
    /// wiring, so every binding of one skeleton shares this key.
    pub(crate) fn for_skeleton(
        skeleton: &ParametricCircuit,
        strategy: Strategy,
        topology_fp: u64,
        config_fp: u64,
    ) -> Self {
        let mut h = Fingerprinter::new();
        h.write_str("skeleton-strategy").write_str(strategy.name());
        CacheKey {
            circuit: skeleton_fingerprint(skeleton),
            job: h.finish(),
            topology: topology_fp,
            config: config_fp,
        }
    }
}

/// Stable content fingerprint of a circuit: qubit count plus the exact
/// gate stream (discriminants, operands, rotation angles by bit pattern).
pub(crate) fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    let mut h = Fingerprinter::new();
    h.write_usize(circuit.n_qubits()).write_usize(circuit.len());
    for gate in circuit.iter() {
        hash_gate(&mut h, gate);
    }
    h.finish()
}

/// Hashes one concrete gate into `h` (shared by the circuit and skeleton
/// fingerprints so a zero-parameter skeleton's gate stream hashes like the
/// circuit it wraps — the domains still differ by the leading tag below).
fn hash_gate(h: &mut Fingerprinter, gate: &Gate) {
    match *gate {
        Gate::Single { kind, qubit } => {
            h.write_u64(1).write_usize(qubit);
            let (tag, angle) = match kind {
                SingleQubitKind::X => (0u64, None),
                SingleQubitKind::Y => (1, None),
                SingleQubitKind::Z => (2, None),
                SingleQubitKind::H => (3, None),
                SingleQubitKind::T => (4, None),
                SingleQubitKind::Tdg => (5, None),
                SingleQubitKind::S => (6, None),
                SingleQubitKind::Sdg => (7, None),
                SingleQubitKind::Rz(a) => (8, Some(a)),
                SingleQubitKind::Rx(a) => (9, Some(a)),
                SingleQubitKind::Ry(a) => (10, Some(a)),
            };
            h.write_u64(tag);
            if let Some(a) = angle {
                h.write_f64(a);
            }
        }
        Gate::Cx { control, target } => {
            h.write_u64(2).write_usize(control).write_usize(target);
        }
        Gate::Swap { a, b } => {
            h.write_u64(3).write_usize(a).write_usize(b);
        }
    }
}

/// Stable *structural* fingerprint of a parametric skeleton: qubit count,
/// the exact gate stream, and at each parametric site the rotation axis,
/// target qubit and **parameter id** — never an angle value. Two bindings
/// of one skeleton therefore share a fingerprint, while skeletons that
/// wire parameters differently (`rz(theta0); rz(theta1)` vs
/// `rz(theta0); rz(theta0)`) do not.
pub(crate) fn skeleton_fingerprint(skeleton: &ParametricCircuit) -> u64 {
    let mut h = Fingerprinter::new();
    h.write_str("parametric")
        .write_usize(skeleton.n_qubits())
        .write_usize(skeleton.len());
    for gate in skeleton.gates() {
        match *gate {
            ParametricGate::Fixed(ref g) => hash_gate(&mut h, g),
            ParametricGate::Rotation { axis, param, qubit } => {
                let axis_tag = match axis {
                    RotationAxis::Rx => 0u64,
                    RotationAxis::Ry => 1,
                    RotationAxis::Rz => 2,
                };
                h.write_u64(4)
                    .write_u64(axis_tag)
                    .write_u64(param as u64)
                    .write_usize(qubit);
            }
        }
    }
    h.finish()
}

/// A bounded LRU map — the one in-memory cache type of a session.
///
/// Generic over the key `K` and the cached value `V` (cloned out on hits
/// — in practice an `Arc`, so a hit is a reference-count bump). A session
/// keeps its compiled results and skeleton artifacts here under
/// [`CacheKey`]s, its topology registry under structural fingerprints;
/// each [`crate::TopologyCache`] keeps its encoded-signature oracles here
/// and each landmark-mode [`crate::DistanceOracle`] its exact hot rows.
/// Lookups take any borrowed form of the key (`K: Borrow<Q>`), so a
/// `Vec<bool>`-keyed map is probed with a `&[bool]` without allocating.
///
/// The cache does its own locking, and every method holds the lock only
/// for its own short critical section: no caller — and no
/// [`ResultCache::get_or_insert_with`] build — ever runs under it, so a
/// build may re-enter the same cache (the exhaustive search compiles its
/// candidates through the session) and a panicking build poisons nothing.
/// Capacity `0` means disabled: nothing is stored and lookups are not
/// counted.
///
/// Recency is a monotonic access counter; eviction removes the entry with
/// the smallest counter via an `O(len)` scan — negligible next to the cost
/// of building any cached value, and free of unsafe linked-list
/// bookkeeping.
#[derive(Debug)]
pub(crate) struct ResultCache<K, V> {
    capacity: usize,
    lru: Mutex<Lru<K, V>>,
}

#[derive(Debug)]
struct Lru<K, V> {
    tick: u64,
    map: HashMap<K, Entry<V>>,
    stats: CacheStats,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<K: Hash + Eq, V> Lru<K, V> {
    /// The resident value under `key`, marked most recently used.
    fn touch<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let entry = self.map.get_mut(key)?;
        entry.last_used = self.tick;
        Some(&entry.value)
    }

    /// Stores `value` under `key`, first evicting the least-recently-used
    /// entry if the map is full. Overwriting an existing key is not an
    /// eviction.
    fn insert(&mut self, key: K, value: V, capacity: usize) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= capacity {
            // Ticks are unique, so this drops exactly the oldest entry.
            if let Some(oldest) = self.map.values().map(|e| e.last_used).min() {
                self.map.retain(|_, e| e.last_used != oldest);
                self.stats.evictions += 1;
            }
        }
        let last_used = self.tick;
        self.map.insert(key, Entry { value, last_used });
    }
}

impl<K: Hash + Eq, V: Clone> ResultCache<K, V> {
    /// An empty cache holding at most `capacity` values (`0` disables it:
    /// nothing is stored and lookups are not counted).
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            lru: Mutex::new(Lru {
                tick: 0,
                map: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Returns `true` unless the cache was built with capacity `0`.
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<K, V>> {
        self.lru.lock().expect("cache lock poisoned")
    }

    /// Looks up `key`, counting a hit or a miss (a disabled cache misses
    /// without counting).
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.is_enabled() {
            return None;
        }
        let lru = &mut *self.lock();
        match lru.touch(key).cloned() {
            Some(value) => {
                lru.stats.hits += 1;
                Some(value)
            }
            None => {
                lru.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly built value, evicting the least-recently-used
    /// entry if the cache is full. Overwriting an existing key (two racing
    /// workers compiling the same job) is not an eviction.
    pub(crate) fn insert(&self, key: K, value: V) {
        if self.is_enabled() {
            self.lock().insert(key, value, self.capacity);
        }
    }

    /// The value under `key`, building it with `build` on a miss. `build`
    /// runs with no lock held; if another thread stored `key` meanwhile,
    /// that resident value is returned (and the fresh one dropped), so
    /// every caller observes one value per key while it stays resident.
    pub(crate) fn get_or_insert_with<Q>(&self, key: &Q, build: impl FnOnce() -> V) -> V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(hit) = self.get(key) {
            return hit;
        }
        let fresh = build();
        if !self.is_enabled() {
            return fresh;
        }
        let lru = &mut *self.lock();
        if let Some(resident) = lru.touch(key) {
            return resident.clone();
        }
        lru.insert(key.to_owned(), fresh.clone(), self.capacity);
        fresh
    }

    /// A snapshot of every resident value (recency untouched, nothing
    /// counted), for stats walks that must not hold the lock.
    pub(crate) fn values(&self) -> Vec<V> {
        self.lock().map.values().map(|e| e.value.clone()).collect()
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of cached values.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Drops every entry and resets the counters.
    pub(crate) fn clear(&self) {
        let lru = &mut *self.lock();
        lru.map.clear();
        lru.stats = CacheStats::default();
        lru.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CompilationResult;
    use crate::session::Compiler;
    use qompress_arch::Topology;
    use std::sync::Arc;

    fn key(tag: u64) -> CacheKey {
        CacheKey {
            circuit: tag,
            job: 0,
            topology: 0,
            config: 0,
        }
    }

    fn dummy_result() -> Arc<CompilationResult> {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        Compiler::builder()
            .caching(false)
            .build()
            .compile_with_options(&c, &Topology::line(2), &MappingOptions::qubit_only())
    }

    #[test]
    fn hit_miss_and_eviction_counting() {
        let cache = ResultCache::new(2);
        let r = dummy_result();
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Arc::clone(&r));
        cache.insert(key(2), Arc::clone(&r));
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), Arc::clone(&r)); // evicts key(2): key(1) was touched later
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(
            format!("{stats}"),
            "3 hits / 2 misses / 1 evictions (60.0% hit rate)"
        );
        assert_eq!(
            format!("{}", CacheStats::default()),
            "0 hits / 0 misses / 0 evictions (0.0% hit rate)"
        );
        assert_eq!(
            stats.to_json(),
            "{\"hits\": 3, \"misses\": 2, \"evictions\": 1, \"hit_rate\": 0.600000}"
        );
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = ResultCache::new(2);
        let r = dummy_result();
        cache.insert(key(1), Arc::clone(&r));
        cache.insert(key(2), Arc::clone(&r));
        // Touch key(1) so key(2) is the LRU.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), Arc::clone(&r));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(1)).is_some());

        // The same policy over an encoded-signature key, probed by slice.
        let cache: ResultCache<Vec<bool>, u32> = ResultCache::new(2);
        cache.insert(vec![true, false], 1);
        cache.insert(vec![false, true], 2);
        assert_eq!(cache.get([true, false].as_slice()), Some(1));
        let built = cache.get_or_insert_with([true, true].as_slice(), || 3);
        assert_eq!(built, 3);
        assert_eq!(
            cache.get([false, true].as_slice()),
            None,
            "LRU entry must be evicted"
        );
        let mut values = cache.values();
        values.sort_unstable();
        assert_eq!(values, vec![1, 3]);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let cache = ResultCache::new(0);
        cache.insert(key(1), dummy_result());
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().evictions, 0);
        let built = cache.get_or_insert_with(&key(2), dummy_result);
        assert_eq!(built.logical_gates, 1);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn overwrite_is_not_an_eviction() {
        let cache = ResultCache::new(1);
        let r = dummy_result();
        cache.insert(key(1), Arc::clone(&r));
        cache.insert(key(1), Arc::clone(&r));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 1);

        // A build that loses the race to a resident value is dropped: the
        // build runs unlocked, so it can store the key itself — the same
        // interleaving as another thread finishing first.
        let resident = dummy_result();
        let served = cache.get_or_insert_with(&key(2), || {
            cache.insert(key(2), Arc::clone(&resident));
            dummy_result()
        });
        assert!(Arc::ptr_eq(&served, &resident), "resident value must win");
        assert!(Arc::ptr_eq(&cache.get(&key(2)).unwrap(), &resident));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = ResultCache::new(4);
        cache.insert(key(1), dummy_result());
        let _ = cache.get(&key(1));
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn circuit_fingerprint_is_content_addressed() {
        let mut a = Circuit::new(3);
        a.push(Gate::h(0));
        a.push(Gate::cx(0, 1));
        let mut b = Circuit::new(3);
        b.push(Gate::h(0));
        b.push(Gate::cx(0, 1));
        assert_eq!(circuit_fingerprint(&a), circuit_fingerprint(&b));

        b.push(Gate::cx(1, 2));
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&b));

        // Operand order, gate kind, qubit count and angles all matter.
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::cx(1, 0));
        assert_ne!(circuit_fingerprint(&a), circuit_fingerprint(&c));
        assert_ne!(
            circuit_fingerprint(&Circuit::new(2)),
            circuit_fingerprint(&Circuit::new(3))
        );
        let mut rz1 = Circuit::new(1);
        rz1.push(Gate::rz(0.5, 0));
        let mut rz2 = Circuit::new(1);
        rz2.push(Gate::rz(0.25, 0));
        assert_ne!(circuit_fingerprint(&rz1), circuit_fingerprint(&rz2));
    }

    #[test]
    fn skeleton_fingerprint_ignores_values_but_not_wiring() {
        use qompress_circuit::RotationAxis;
        let mut shared = ParametricCircuit::new(2);
        shared.push(Gate::h(0));
        shared.push_param(RotationAxis::Rz, 0, 0);
        shared.push_param(RotationAxis::Rz, 0, 1);

        let mut distinct = ParametricCircuit::new(2);
        distinct.push(Gate::h(0));
        distinct.push_param(RotationAxis::Rz, 0, 0);
        distinct.push_param(RotationAxis::Rz, 1, 1);

        // Same wiring → same fingerprint (trivially: it never sees angles).
        assert_eq!(
            skeleton_fingerprint(&shared),
            skeleton_fingerprint(&shared.clone())
        );
        // Different parameter wiring over an identical gate shape differs.
        assert_ne!(
            skeleton_fingerprint(&shared),
            skeleton_fingerprint(&distinct)
        );

        // Axis and qubit matter too.
        let mut other_axis = ParametricCircuit::new(2);
        other_axis.push(Gate::h(0));
        other_axis.push_param(RotationAxis::Rx, 0, 0);
        other_axis.push_param(RotationAxis::Rz, 0, 1);
        assert_ne!(
            skeleton_fingerprint(&shared),
            skeleton_fingerprint(&other_axis)
        );

        // A concrete rotation is not a parametric site, even at the same
        // position.
        let mut concrete = ParametricCircuit::new(2);
        concrete.push(Gate::h(0));
        concrete.push(Gate::rz(0.5, 0));
        concrete.push_param(RotationAxis::Rz, 0, 1);
        assert_ne!(
            skeleton_fingerprint(&shared),
            skeleton_fingerprint(&concrete)
        );

        // A zero-parameter skeleton does not collide with the concrete
        // circuit fingerprint domain.
        let mut c = Circuit::new(2);
        c.push(Gate::h(0));
        c.push(Gate::rz(0.5, 0));
        assert_ne!(
            skeleton_fingerprint(&ParametricCircuit::from(&c)),
            circuit_fingerprint(&c)
        );
    }

    #[test]
    fn skeleton_keys_separate_strategy_topology_config() {
        use qompress_circuit::RotationAxis;
        let mut s = ParametricCircuit::new(2);
        s.push_param(RotationAxis::Rz, 0, 0);
        let a = CacheKey::for_skeleton(&s, Strategy::QubitOnly, 7, 9);
        assert_eq!(a, CacheKey::for_skeleton(&s, Strategy::QubitOnly, 7, 9));
        assert_ne!(a, CacheKey::for_skeleton(&s, Strategy::Eqm, 7, 9));
        assert_ne!(a, CacheKey::for_skeleton(&s, Strategy::QubitOnly, 8, 9));
        assert_ne!(a, CacheKey::for_skeleton(&s, Strategy::QubitOnly, 7, 10));
        // Skeleton keys live in a different job domain than strategy keys
        // over the bound circuit.
        assert_ne!(
            a,
            CacheKey::for_strategy(&s.bind(&[0.5]), Strategy::QubitOnly, 7, 9)
        );
    }

    #[test]
    fn keys_separate_strategy_options_topology_and_config() {
        let mut c = Circuit::new(2);
        c.push(Gate::cx(0, 1));
        let a = CacheKey::for_strategy(&c, Strategy::QubitOnly, 7, 9);
        assert_eq!(a, CacheKey::for_strategy(&c, Strategy::QubitOnly, 7, 9));
        assert_ne!(a, CacheKey::for_strategy(&c, Strategy::Eqm, 7, 9));
        assert_ne!(a, CacheKey::for_strategy(&c, Strategy::QubitOnly, 8, 9));
        assert_ne!(a, CacheKey::for_strategy(&c, Strategy::QubitOnly, 7, 10));
        // A qubit-only *strategy* compile labels the result differently from
        // an options-level compile, so the keys must differ too.
        assert_ne!(
            a,
            CacheKey::for_options(&c, &MappingOptions::qubit_only(), 7, 9)
        );
        assert_ne!(
            CacheKey::for_options(&c, &MappingOptions::qubit_only(), 7, 9),
            CacheKey::for_options(&c, &MappingOptions::eqm(), 7, 9)
        );
        assert_ne!(
            CacheKey::for_options(&c, &MappingOptions::with_pairs(vec![(0, 1)]), 7, 9),
            CacheKey::for_options(&c, &MappingOptions::with_pairs(vec![(1, 0)]), 7, 9)
        );
    }
}
