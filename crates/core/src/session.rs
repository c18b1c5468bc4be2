//! The `Compiler` session: the one blessed entry path into the pipeline.
//!
//! A [`Compiler`] owns everything that is worth keeping *between*
//! compilations:
//!
//! * a **topology registry** keyed by
//!   [`Topology::structural_fingerprint`], deduplicating
//!   [`TopologyCache`] construction (expanded slot graph, distance
//!   oracles) across every call on the session — not just within one
//!   batch;
//! * **content-addressed cache tiers** keyed by `(circuit hash, job
//!   kind, topology fingerprint, config fingerprint)`: an in-memory LRU
//!   of compiled results with exact [`CacheStats`], an optional on-disk
//!   tier behind it ([`CompilerBuilder::persist_dir`]; per-tier counters
//!   in [`Compiler::tiered_cache_stats`]), and a memory-only skeleton
//!   cache for parameter sweeps ([`Compiler::compile_skeleton`]). All
//!   three are served by one lookup path — memory, then disk when
//!   attached, then compile — so a memory-tier miss is not necessarily a
//!   compile. A hit is byte-identical to a fresh compile because the
//!   pipeline is deterministic in exactly those inputs (pinned by the
//!   session test-suite, and checkable per-hit in every tier via
//!   [`CompilerBuilder::verify_hits`]);
//! * a **persistent worker pool** behind an MPMC job queue — the job
//!   service. [`Compiler::submit`] enqueues one job and returns a
//!   [`crate::JobHandle`] (poll/wait/cancel, exact
//!   [`crate::ServiceMetrics`]); [`Compiler::compile_batch`] is a thin
//!   submit-all-then-wait wrapper over the same pool, so streaming and
//!   batch callers share one queue, one topology registry and one result
//!   cache. Workers spawn on demand — the pool grows with outstanding
//!   jobs up to the configured bound — and are joined when the session
//!   drops (still-queued jobs are cancelled, waiters woken).
//!
//! Every in-memory map here — the registry, the result and skeleton
//! tiers, and inside each `TopologyCache` the encoded-signature oracles
//! and landmark hot rows — is the same bounded LRU type with one
//! capacity each. It builds a missing value outside its lock, so no
//! session mutex is ever held across a compile, an oracle build or a
//! Dijkstra run.
//!
//! The paper's evaluation (§6) and its precursor communication/compression
//! trade-off study recompile near-identical `(circuit, strategy,
//! topology)` jobs across large sweeps; a session turns every repeat into
//! a cache hit.
//!
//! ```
//! use qompress::{Compiler, Strategy};
//! use qompress_arch::Topology;
//! use qompress_circuit::{Circuit, Gate};
//!
//! let mut c = Circuit::new(3);
//! c.push(Gate::h(0));
//! c.push(Gate::cx(0, 1));
//!
//! let session = Compiler::builder().build();
//! let topo = Topology::grid(3);
//! let first = session.compile(&c, &topo, Strategy::Eqm);
//! let again = session.compile(&c, &topo, Strategy::Eqm); // cache hit
//! assert_eq!(first.metrics, again.metrics);
//! assert_eq!(session.cache_stats().hits, 1);
//! ```

use crate::batch::{
    BatchJob, BatchJobError, BatchJobFailure, BatchJobResult, BatchResult, TryBatchResult,
};
use crate::breaker::CircuitBreaker;
use crate::config::CompilerConfig;
use crate::jobs::{CompletionQueue, JobHandle, JobOutcome};
use crate::mapping::MappingOptions;
use crate::parametric::{SkeletonArtifact, SweepResult};
use crate::persist;
use crate::pipeline::{self, CompilationResult, TopologyCache};
use crate::result_cache::{CacheKey, CacheStats, ResultCache, TieredCacheStats};
use crate::service::{JobService, ServiceMetrics};
use crate::strategies::{self, run_exhaustive, ExhaustiveOptions, ExhaustiveStep, Strategy};
use qompress_arch::Topology;
use qompress_circuit::{Circuit, ParametricCircuit};
use qompress_store::{DiskStore, FaultPlan, LoadOutcome};
use std::collections::HashSet;
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on memoized compilation results per session.
const DEFAULT_CACHE_CAPACITY: usize = 256;

/// LRU bound of the topology registry. A `TopologyCache` holds the
/// expanded slot graph plus lazily-filled Dijkstra state, so a long-lived
/// session serving arbitrarily many distinct device structures must not
/// grow without limit; beyond the bound the least-recently-used
/// registration is dropped (outstanding `Arc`s stay valid, the structure
/// just rebuilds on its next use). Real sweeps use a handful of devices
/// and never hit this.
const MAX_REGISTERED_TOPOLOGIES: usize = 64;

/// Configures and builds a [`Compiler`] session.
///
/// Obtained from [`Compiler::builder`]; every knob has a production
/// default, so `Compiler::builder().build()` is a fully working session.
#[derive(Debug, Clone)]
pub struct CompilerBuilder {
    config: CompilerConfig,
    workers: usize,
    cache_capacity: usize,
    caching: bool,
    verify_hits: bool,
    persist_dir: Option<PathBuf>,
    persist_max_bytes: u64,
    persist_strict: bool,
    persist_faults: FaultPlan,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
}

impl CompilerBuilder {
    /// Sets the compiler configuration (default:
    /// [`CompilerConfig::paper`]).
    pub fn config(mut self, config: CompilerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker-thread count for the session's job service
    /// ([`Compiler::submit`] / [`Compiler::compile_batch`]). `0` (the
    /// default) autodetects the machine's available parallelism; `1`
    /// forces serial execution.
    ///
    /// Autodetection is clamped to **at least one worker** in every case:
    /// [`std::thread::available_parallelism`] can fail (it returns an
    /// `Err` on platforms or sandboxes where the CPU count is unknowable,
    /// and cgroup/affinity masks can legitimately report a single CPU —
    /// the common CI-container case), and a session must still be able to
    /// make progress then.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the result-cache capacity in entries (default: 256). `0`
    /// disables caching entirely, like `caching(false)`.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Enables or disables the result cache (default: enabled).
    pub fn caching(mut self, enabled: bool) -> Self {
        self.caching = enabled;
        self
    }

    /// When enabled, every cache hit is re-compiled from scratch and the
    /// two results are asserted byte-identical (`Debug`-rendering
    /// comparison) before the hit is served — the cache's proof obligation
    /// as a runtime check. This removes the entire speedup, so it is meant
    /// for tests and audits, not production (default: disabled).
    ///
    /// With it on, a divergent hit panics instead of silently returning a
    /// stale or collided entry.
    pub fn verify_hits(mut self, enabled: bool) -> Self {
        self.verify_hits = enabled;
        self
    }

    /// Attaches a persistent on-disk cache tier rooted at `dir` (created
    /// if missing). Compilation results the in-memory tier cannot serve
    /// are looked up on disk before compiling, and fresh compiles are
    /// written back — so a later session (or another process) pointed at
    /// the same directory comes up warm. Corrupt, truncated or
    /// version-mismatched entries degrade to misses, never errors; see
    /// the `qompress-store` crate for the on-disk contract. Disabled by
    /// default.
    pub fn persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Sets the byte cap of the persistent tier (default: 1 GiB). Beyond
    /// it, oldest-used entries are evicted from disk. Only meaningful
    /// together with [`CompilerBuilder::persist_dir`].
    pub fn persist_max_bytes(mut self, bytes: u64) -> Self {
        self.persist_max_bytes = bytes;
        self
    }

    /// When enabled, an unopenable [`CompilerBuilder::persist_dir`] makes
    /// [`CompilerBuilder::build`] panic instead of degrading to a
    /// memory-only session — for deployments where running without the
    /// shared cache is worse than not running (default: disabled; the
    /// degradation is surfaced through [`Compiler::diagnostics`]).
    pub fn persist_strict(mut self, enabled: bool) -> Self {
        self.persist_strict = enabled;
        self
    }

    /// Attaches an I/O [`FaultPlan`] to the persistent tier's store —
    /// the deterministic chaos hook (see `qompress-store`'s fault
    /// module). The plan handle stays live after `build`, so a test can
    /// heal the "disk" mid-run. Default: [`FaultPlan::none`], which
    /// injects nothing. Only meaningful together with
    /// [`CompilerBuilder::persist_dir`].
    pub fn persist_faults(mut self, faults: FaultPlan) -> Self {
        self.persist_faults = faults;
        self
    }

    /// Tunes the disk tier's circuit breaker: it trips open after
    /// `threshold` consecutive disk I/O errors (clamped to ≥ 1) and
    /// admits a half-open probe after `cooldown`. While open, lookups
    /// and write-backs skip the disk entirely — the session serves
    /// memory + compile. Defaults: 5 failures, 5 s cooldown. Only
    /// meaningful together with [`CompilerBuilder::persist_dir`].
    pub fn persist_breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Builds the session.
    ///
    /// An unopenable [`CompilerBuilder::persist_dir`] **degrades** the
    /// session to memory-only: the failure is recorded as a
    /// [`Compiler::diagnostics`] warning, everything else works, and
    /// `persistence_enabled()` reports `false`.
    ///
    /// # Panics
    ///
    /// With [`CompilerBuilder::persist_strict`] enabled, panics when the
    /// persist directory cannot be created or read — for deployments
    /// that must fail loudly rather than run cold.
    pub fn build(self) -> Compiler {
        let workers = if self.workers == 0 {
            // `available_parallelism` may *fail* (unsupported platform,
            // unreadable cgroup limits); the `.max(1)` keeps the pool
            // non-empty even if a platform ever reported zero.
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(1)
        } else {
            self.workers
        };
        let capacity = if self.caching { self.cache_capacity } else { 0 };
        // The persistent tier is independent of the in-memory switch: a
        // `caching(false)` session with a `persist_dir` still serves and
        // feeds the shared on-disk store.
        let mut diagnostics = Vec::new();
        let persist = self.persist_dir.and_then(|dir| {
            let opened =
                DiskStore::open_with_faults(&dir, self.persist_max_bytes, self.persist_faults);
            let store = match opened {
                Ok(store) => store,
                Err(err) if self.persist_strict => {
                    panic!("cannot open persistent cache at {}: {err}", dir.display())
                }
                Err(err) => {
                    diagnostics.push(format!(
                        "persistent cache disabled: cannot open {}: {err} \
                         (session degrades to memory-only; use persist_strict(true) \
                         to fail fast instead)",
                        dir.display()
                    ));
                    return None;
                }
            };
            Some(DiskTier {
                store,
                breaker: CircuitBreaker::new(self.breaker_threshold, self.breaker_cooldown),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                rejects: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                write_errors: AtomicU64::new(0),
                read_errors: AtomicU64::new(0),
                skipped: AtomicU64::new(0),
            })
        });
        Compiler {
            state: Arc::new(SessionState {
                config_fp: self.config.fingerprint(),
                config: self.config,
                workers,
                verify_hits: self.verify_hits,
                topologies: ResultCache::new(MAX_REGISTERED_TOPOLOGIES),
                cache: ResultCache::new(capacity),
                skeletons: ResultCache::new(capacity),
                persist,
                diagnostics,
            }),
            service: JobService::new(),
        }
    }
}

impl Default for CompilerBuilder {
    fn default() -> Self {
        CompilerBuilder {
            config: CompilerConfig::paper(),
            workers: 0,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            caching: true,
            verify_hits: false,
            persist_dir: None,
            persist_max_bytes: qompress_store::DEFAULT_MAX_BYTES,
            persist_strict: false,
            persist_faults: FaultPlan::none(),
            breaker_threshold: CircuitBreaker::DEFAULT_THRESHOLD,
            breaker_cooldown: CircuitBreaker::DEFAULT_COOLDOWN,
        }
    }
}

/// The session's persistent tier: the shared on-disk store plus this
/// session's exact lookup/write counters (the store itself is stateless
/// about traffic — several processes may be hitting the same directory).
#[derive(Debug)]
struct DiskTier {
    store: DiskStore,
    /// The tier's health gate: every disk operation first asks the
    /// breaker; while open, the tier is skipped entirely and the session
    /// behaves as if no persist dir were configured.
    breaker: CircuitBreaker,
    /// Lookups served from disk (after a memory miss).
    hits: AtomicU64,
    /// Lookups that missed disk too — true compiles.
    misses: AtomicU64,
    /// Entries rejected by validation (corrupt/truncated/version skew).
    rejects: AtomicU64,
    /// Successful write-backs.
    writes: AtomicU64,
    /// Write-backs that failed with an I/O error.
    write_errors: AtomicU64,
    /// Disk reads that failed with a real I/O error (not a miss, not a
    /// reject).
    read_errors: AtomicU64,
    /// Disk operations skipped because the breaker was open.
    skipped: AtomicU64,
}

impl DiskTier {
    /// The tier's counters, with the memory-tier fields left zero.
    fn stats(&self) -> TieredCacheStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        TieredCacheStats {
            disk_hits: load(&self.hits),
            misses: load(&self.misses),
            disk_writes: load(&self.writes),
            disk_rejects: load(&self.rejects),
            disk_write_errors: load(&self.write_errors),
            disk_read_errors: load(&self.read_errors),
            disk_skipped: load(&self.skipped),
            breaker_trips: self.breaker.trips(),
            breaker_probes: self.breaker.probes(),
            breaker_state: self.breaker.state(),
            ..TieredCacheStats::default()
        }
    }
}

/// A persistent tier behind a memory tier, holding values of type `T`.
/// Neither operation fails: every disk problem degrades to a miss or a
/// skipped write, accounted in the tier's own counters.
trait BackingTier<T> {
    /// The value stored under `key`, or `None` on any kind of miss.
    fn load(&self, key: &CacheKey) -> Option<T>;
    /// Writes `value` back under `key`, best-effort.
    fn store(&self, key: &CacheKey, value: &T);
}

impl BackingTier<Arc<CompilationResult>> for DiskTier {
    /// Gated by the circuit breaker: while it is open the disk is not
    /// touched and the lookup is a plain miss. A payload that passes the
    /// store's envelope check but fails the codec is still a reject
    /// (version-skewed or damaged payload), removed so it stops costing a
    /// read. Only real I/O errors feed the breaker; misses and rejects
    /// are healthy-disk outcomes.
    fn load(&self, key: &CacheKey) -> Option<Arc<CompilationResult>> {
        if !self.breaker.try_acquire() {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let hex = key.hex();
        let outcome = self.store.load(&hex);
        if matches!(outcome, LoadOutcome::Failed(_)) {
            self.breaker.record_failure();
            self.read_errors.fetch_add(1, Ordering::Relaxed);
        } else {
            self.breaker.record_success();
        }
        match outcome {
            LoadOutcome::Payload(payload) => match persist::decode_result(&payload) {
                Some(result) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(Arc::new(result));
                }
                None => {
                    self.rejects.fetch_add(1, Ordering::Relaxed);
                    let _ = self.store.remove(&hex);
                }
            },
            LoadOutcome::Rejected => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
            }
            LoadOutcome::Absent | LoadOutcome::Failed(_) => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Gated by the circuit breaker like [`BackingTier::load`]: a breaker
    /// tripped since the lookup skips the write too.
    fn store(&self, key: &CacheKey, result: &Arc<CompilationResult>) {
        if !self.breaker.try_acquire() {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match self
            .store
            .store(&key.hex(), &persist::encode_result(result))
        {
            Ok(written) => {
                self.breaker.record_success();
                // `false` means oversized for the cap: simply not
                // persisted — a policy outcome on a healthy disk.
                if written {
                    self.writes.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.breaker.record_failure();
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The shared heart of a session: configuration plus every cross-request
/// cache. Worker threads of the job service hold an `Arc` of this (never
/// of the [`Compiler`] itself, which owns the pool and must be able to
/// join it on drop).
#[derive(Debug)]
pub(crate) struct SessionState {
    pub(crate) config: CompilerConfig,
    pub(crate) config_fp: u64,
    pub(crate) workers: usize,
    verify_hits: bool,
    /// The topology registry: one shared [`TopologyCache`] per
    /// [`Topology::structural_fingerprint`].
    topologies: ResultCache<u64, Arc<TopologyCache>>,
    /// Compiled results, the memory tier (capacity 0 when caching is off).
    cache: ResultCache<CacheKey, Arc<CompilationResult>>,
    /// Compiled skeleton artifacts, keyed by the skeleton's *structural*
    /// fingerprint (parameter wiring, not values) — shares the concrete
    /// cache's capacity knob and on/off switch.
    skeletons: ResultCache<CacheKey, Arc<SkeletonArtifact>>,
    /// The on-disk tier behind the memory tier. Concrete results only:
    /// skeleton artifacts hold closure-derived state that is cheap to
    /// rebuild relative to their reuse pattern, so they stay
    /// memory-resident.
    persist: Option<DiskTier>,
    /// Build-time warnings (e.g. a persist dir that could not be opened
    /// and was degraded to memory-only). Never fatal — the session they
    /// describe works.
    diagnostics: Vec<String>,
}

impl SessionState {
    /// The shared [`TopologyCache`] for `topo` — the one place a job's
    /// topology is resolved: fingerprint it, look it up in the registry,
    /// build it on first use (outside the registry lock).
    pub(crate) fn topology_cache(&self, topo: &Topology) -> Arc<TopologyCache> {
        self.topologies
            .get_or_insert_with(&topo.structural_fingerprint(), || {
                Arc::new(TopologyCache::new(topo.clone(), &self.config))
            })
    }

    /// Compiles `circuit` onto `tcache`'s topology with `strategy`,
    /// serving repeats from the result tiers.
    pub(crate) fn compile(
        &self,
        circuit: &Circuit,
        tcache: &TopologyCache,
        strategy: Strategy,
    ) -> Arc<CompilationResult> {
        let key = CacheKey::for_strategy(circuit, strategy, tcache.fingerprint(), self.config_fp);
        self.memoized_result(key, || strategies::compile(self, circuit, tcache, strategy))
    }

    /// Options-level session compile (see [`Compiler::compile_with_options`]).
    pub(crate) fn compile_with_options(
        &self,
        circuit: &Circuit,
        tcache: &TopologyCache,
        options: &MappingOptions,
    ) -> Arc<CompilationResult> {
        let key = CacheKey::for_options(circuit, options, tcache.fingerprint(), self.config_fp);
        self.memoized_result(key, || {
            pipeline::compile(circuit, tcache, &self.config, options)
        })
    }

    /// One whole service/batch job on its resolved topology. A sweep job
    /// (minted by [`crate::ParamSweep::job`]) stamps its angles into the
    /// skeleton artifact instead of running the pipeline: the
    /// sweep-shared slot serves it when the slot was filled for this
    /// job's skeleton key (strategy, topology and configuration), the
    /// session's skeleton tier otherwise.
    pub(crate) fn compile_queued_job(
        &self,
        job: &BatchJob,
        tcache: &TopologyCache,
    ) -> Arc<CompilationResult> {
        let Some(binding) = &job.binding else {
            return self.compile(&job.circuit, tcache, job.strategy);
        };
        let key = CacheKey::for_skeleton(
            &binding.skeleton,
            job.strategy,
            tcache.fingerprint(),
            self.config_fp,
        );
        let resolve = || self.skeleton_artifact(&binding.skeleton, tcache, job.strategy);
        let (filled_for, shared) = binding.artifact.get_or_init(|| (key, resolve()));
        let artifact = if *filled_for == key {
            Arc::clone(shared)
        } else {
            resolve()
        };
        Arc::new(artifact.stamp(&binding.angles))
    }

    /// The compiled artifact for `skeleton` under `strategy`, serving
    /// repeats of the same parameter *structure* from the skeleton cache.
    /// A miss runs the full pipeline once on the sentinel probe (see
    /// [`crate::parametric`]).
    fn skeleton_artifact(
        &self,
        skeleton: &ParametricCircuit,
        tcache: &TopologyCache,
        strategy: Strategy,
    ) -> Arc<SkeletonArtifact> {
        let key = CacheKey::for_skeleton(skeleton, strategy, tcache.fingerprint(), self.config_fp);
        self.memoized(&self.skeletons, "skeleton", None, key, || {
            Arc::new(SkeletonArtifact::build(skeleton, |probe| {
                strategies::compile(self, probe, tcache, strategy)
            }))
        })
    }

    /// Serves a concrete result through the memory tier and, when
    /// attached, the disk tier.
    fn memoized_result(
        &self,
        key: CacheKey,
        fresh: impl FnOnce() -> CompilationResult,
    ) -> Arc<CompilationResult> {
        let disk = self
            .persist
            .as_ref()
            .map(|tier| tier as &dyn BackingTier<_>);
        self.memoized(&self.cache, "memory", disk, key, || Arc::new(fresh()))
    }

    /// Serves `key` through the cache tiers — `memory`, then `disk` when
    /// given, then building via `fresh` — the one lookup path for results
    /// and skeletons. A disk hit is promoted into memory; a fresh build is
    /// written back to both tiers. No lock is held across disk I/O or
    /// `fresh`, so parallel workers never serialize on either and `fresh`
    /// may re-enter the session (the exhaustive search compiles its
    /// candidates through it); two workers racing on one key both build
    /// and the identical write-backs overwrite harmlessly. Every hit
    /// passes [`SessionState::verify_hit`].
    fn memoized<T: Clone + Debug>(
        &self,
        memory: &ResultCache<CacheKey, T>,
        memory_tier: &str,
        disk: Option<&dyn BackingTier<T>>,
        key: CacheKey,
        fresh: impl FnOnce() -> T,
    ) -> T {
        if let Some(hit) = memory.get(&key) {
            self.verify_hit(&hit, fresh, memory_tier);
            return hit;
        }
        if let Some(hit) = disk.and_then(|tier| tier.load(&key)) {
            self.verify_hit(&hit, fresh, "disk");
            memory.insert(key, hit.clone());
            return hit;
        }
        let result = fresh();
        memory.insert(key, result.clone());
        if let Some(tier) = disk {
            tier.store(&key, &result);
        }
        result
    }

    /// The `verify_hits` audit, shared by every tier: with it enabled,
    /// rebuilds through `fresh` and asserts the served hit
    /// `Debug`-identical to the rebuild.
    fn verify_hit<T: Debug>(&self, hit: &T, fresh: impl FnOnce() -> T, tier: &str) {
        if !self.verify_hits {
            return;
        }
        let rebuilt = fresh();
        assert_eq!(
            format!("{hit:?}"),
            format!("{rebuilt:?}"),
            "{tier}-tier cache hit diverged from a fresh compile — \
             content fingerprint collision, codec defect or nondeterministic pipeline"
        );
    }

    pub(crate) fn tiered_cache_stats(&self) -> TieredCacheStats {
        let memory = self.cache.stats();
        let disk = self.persist.as_ref().map(DiskTier::stats);
        TieredCacheStats {
            memory_hits: memory.hits,
            memory_evictions: memory.evictions,
            // Without a persistent tier the memory misses are the compiles.
            misses: disk.map_or(memory.misses, |disk| disk.misses),
            ..disk.unwrap_or_default()
        }
    }
}

/// A compilation session owning shared state across compilations: the
/// configuration, the per-topology precomputation registry, the
/// content-addressed result cache, and the persistent worker pool of the
/// job service.
///
/// All methods take `&self`; the session is `Sync` and can be shared
/// across threads (its own service workers do exactly that). See the
/// crate-level docs for the full story and an example.
///
/// Dropping the session shuts the job service down: still-queued jobs are
/// cancelled (their [`JobHandle`]s observe [`crate::JobStatus::Cancelled`]
/// and every `wait` returns), in-flight compilations finish, and all
/// worker threads are joined.
#[derive(Debug)]
pub struct Compiler {
    state: Arc<SessionState>,
    service: JobService,
}

impl Compiler {
    /// Starts building a session.
    pub fn builder() -> CompilerBuilder {
        CompilerBuilder::default()
    }

    /// A default session: paper configuration, autodetected workers,
    /// caching on.
    pub fn new() -> Self {
        Compiler::builder().build()
    }

    /// The session's configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.state.config
    }

    /// The session's worker-thread count for the job service.
    pub fn workers(&self) -> usize {
        self.state.workers
    }

    /// Compiles `circuit` onto `topo` with `strategy`, serving repeats
    /// from the result cache.
    pub fn compile(
        &self,
        circuit: &Circuit,
        topo: &Topology,
        strategy: Strategy,
    ) -> Arc<CompilationResult> {
        self.state
            .compile(circuit, &self.state.topology_cache(topo), strategy)
    }

    /// Runs the exhaustive-compression search (§5.1) through this session:
    /// every per-candidate evaluation reuses the session's per-topology
    /// precomputation and is memoized in the result cache under its
    /// `(circuit, pair-set)` key, so repeated sweeps on one session stop
    /// recompiling identical candidates. Returns the best compilation and
    /// the per-round Figure 4 trace.
    pub fn compile_exhaustive(
        &self,
        circuit: &Circuit,
        topo: &Topology,
        options: &ExhaustiveOptions,
    ) -> (Arc<CompilationResult>, Vec<ExhaustiveStep>) {
        run_exhaustive(
            &self.state,
            circuit,
            &self.state.topology_cache(topo),
            options,
        )
    }

    /// Compiles `circuit` onto `topo` with explicit [`MappingOptions`]
    /// (the options-level pipeline entry), serving repeats from the
    /// result cache.
    pub fn compile_with_options(
        &self,
        circuit: &Circuit,
        topo: &Topology,
        options: &MappingOptions,
    ) -> Arc<CompilationResult> {
        self.state
            .compile_with_options(circuit, &self.state.topology_cache(topo), options)
    }

    /// Compiles the angle-independent structure of `skeleton` once —
    /// mapping, routing, merging and scheduling with traceable sentinel
    /// angles — and returns the reusable [`SkeletonArtifact`]. Repeats of
    /// the same parameter *structure* (values never matter, wiring does)
    /// are served from the session's skeleton cache; each concrete angle
    /// set then costs one [`SkeletonArtifact::stamp`] instead of a
    /// pipeline run.
    pub fn compile_skeleton(
        &self,
        skeleton: &ParametricCircuit,
        topo: &Topology,
        strategy: Strategy,
    ) -> Arc<SkeletonArtifact> {
        let tcache = self.state.topology_cache(topo);
        self.state.skeleton_artifact(skeleton, &tcache, strategy)
    }

    /// Compiles one skeleton against `bindings.len()` angle sets: one
    /// structural compile (or a skeleton-cache hit from earlier session
    /// work), then one stamp per binding. Each result is byte-identical
    /// to `compile(&skeleton.bind(angles), topo, strategy)`; a cold sweep
    /// of N bindings reports exactly 1 skeleton-cache miss and N−1 hits
    /// in [`SweepResult::skeleton_cache`].
    ///
    /// # Panics
    ///
    /// Panics when a binding has the wrong length or a non-finite angle
    /// (the [`SkeletonArtifact::stamp`] contract).
    pub fn compile_sweep(
        &self,
        skeleton: &ParametricCircuit,
        topo: &Topology,
        strategy: Strategy,
        bindings: &[Vec<f64>],
    ) -> SweepResult {
        let before = self.state.skeletons.stats();
        let started = Instant::now();
        let tcache = self.state.topology_cache(topo);
        let artifact = || self.state.skeleton_artifact(skeleton, &tcache, strategy);
        // With the skeleton cache off there is nothing to pin stats
        // against, so hoist one artifact for the whole sweep instead of
        // recompiling the structure per binding.
        let mut hoisted: Option<Arc<SkeletonArtifact>> = None;
        let results: Vec<Arc<CompilationResult>> = bindings
            .iter()
            .map(|angles| {
                let artifact = if self.state.skeletons.is_enabled() {
                    artifact()
                } else {
                    Arc::clone(hoisted.get_or_insert_with(artifact))
                };
                Arc::new(artifact.stamp(angles))
            })
            .collect();
        SweepResult {
            results,
            elapsed: started.elapsed(),
            skeleton_cache: self.state.skeletons.stats().since(&before),
        }
    }

    /// Cumulative skeleton-cache counters (all zeros when caching is
    /// disabled).
    pub fn skeleton_cache_stats(&self) -> CacheStats {
        self.state.skeletons.stats()
    }

    /// Enqueues one job on the session's persistent worker pool and
    /// returns its [`JobHandle`] immediately.
    ///
    /// The pool (bounded by [`CompilerBuilder::workers`]) grows on
    /// demand — up to `min(bound, outstanding jobs)` threads — and serves
    /// every subsequent submit and batch of this session. The handle supports [`JobHandle::poll`],
    /// [`JobHandle::wait`] and [`JobHandle::cancel`]; a job cancelled
    /// while still queued is never compiled and never touches the
    /// session's result cache.
    pub fn submit(&self, job: BatchJob) -> JobHandle {
        self.service.submit(&self.state, job, None, None)
    }

    /// Like [`Compiler::submit`], additionally registering `watcher` to
    /// receive the job's id when it reaches a terminal state — the
    /// primitive for streaming per-job completions out of a large sweep
    /// as they finish (the `qompress-service` wire front-end is built on
    /// exactly this).
    pub fn submit_watched(&self, job: BatchJob, watcher: &CompletionQueue) -> JobHandle {
        self.service
            .submit(&self.state, job, None, Some(watcher.clone()))
    }

    /// Exact lifecycle counters of the session's job service.
    pub fn service_metrics(&self) -> ServiceMetrics {
        self.service.metrics()
    }

    /// Jobs currently waiting in the service queue: unclaimed work,
    /// including entries cancelled while queued that no worker has
    /// skipped past yet. This is the backpressure signal the wire
    /// front-end samples before admitting a submit — when the queue is
    /// deeper than its configured bound, new work is turned away with a
    /// `busy` response instead of being piled on.
    pub fn queue_depth(&self) -> usize {
        self.service.queue_depth()
    }

    /// Stops workers from claiming further jobs. In-flight compilations
    /// finish normally; queued jobs stay queued (and cancellable) until
    /// [`Compiler::resume_workers`]. Note that [`Compiler::compile_batch`]
    /// and [`JobHandle::wait`] block for as long as the service is paused.
    pub fn pause_workers(&self) {
        self.service.pause();
    }

    /// Resumes job claiming after [`Compiler::pause_workers`].
    pub fn resume_workers(&self) {
        self.service.resume();
    }

    /// Compiles every job of `jobs` through the session's job service —
    /// a thin submit-all-then-wait wrapper over [`Compiler::submit`] —
    /// serving repeats (within this batch *and* from earlier session
    /// work) out of the result cache.
    ///
    /// Results come back in input order and are byte-identical for any
    /// worker count; [`BatchResult::cache`] reports the cache activity
    /// observed during this batch (exact when the session runs one batch
    /// at a time; concurrent submitters on the same session fold into the
    /// same counters).
    ///
    /// # Panics
    ///
    /// Panics if any job's compilation panics (e.g. a circuit too large
    /// for its topology); callers that prefer per-job error values
    /// should use [`Compiler::try_compile_batch`].
    pub fn compile_batch(&self, jobs: &[BatchJob]) -> BatchResult {
        let out = self.try_compile_batch(jobs);
        let results: Vec<BatchJobResult> = out
            .results
            .into_iter()
            .map(|r| match r {
                Ok(result) => result,
                Err(failure) => match failure.error {
                    BatchJobError::Panicked(message) => {
                        panic!("batch job `{}` panicked: {message}", failure.label)
                    }
                    BatchJobError::Cancelled => {
                        // Unreachable through this wrapper: the handles never
                        // escape, so nothing can cancel them.
                        panic!("batch job `{}` was cancelled mid-batch", failure.label)
                    }
                },
            })
            .collect();
        BatchResult {
            results,
            distinct_topologies: out.distinct_topologies,
            elapsed: out.elapsed,
            cache: out.cache,
        }
    }

    /// The non-panicking sibling of [`Compiler::compile_batch`]: every
    /// job gets an input-order `Result` slot, a failed job (compilation
    /// panic, or a cancellation racing the batch) yields a
    /// [`BatchJobFailure`] carrying the label and message, and **the
    /// other jobs still complete** — one oversized circuit no longer
    /// takes the caller (and the 23 good results) down with it.
    ///
    /// [`Compiler::compile_batch`] is a thin wrapper over this method
    /// that panics on the first failure with the historical message.
    pub fn try_compile_batch(&self, jobs: &[BatchJob]) -> TryBatchResult {
        let before = self.state.cache.stats();
        // Resolve every job's topology cache up front (deduplicated by
        // structural fingerprint) so the expensive expanded-graph
        // construction happens once, outside the timed window, exactly as
        // the scoped-thread engine did. The per-job `Arc` rides along
        // with the queued job, so even a batch spanning more distinct
        // topologies than the registry bound never rebuilds one
        // mid-flight.
        let tcaches: Vec<Arc<TopologyCache>> = jobs
            .iter()
            .map(|job| self.state.topology_cache(&job.topology))
            .collect();
        let distinct_topologies = tcaches
            .iter()
            .map(|t| t.fingerprint())
            .collect::<HashSet<u64>>()
            .len();

        let started = Instant::now();
        let handles: Vec<JobHandle> = jobs
            .iter()
            .zip(&tcaches)
            .map(|(job, tcache)| {
                self.service
                    .submit(&self.state, job.clone(), Some(Arc::clone(tcache)), None)
            })
            .collect();
        let results: Vec<Result<BatchJobResult, BatchJobFailure>> = handles
            .iter()
            .enumerate()
            .map(|(job_index, handle)| match handle.wait() {
                JobOutcome::Done(result) => Ok(BatchJobResult {
                    label: handle.label().to_string(),
                    job_index,
                    result,
                }),
                JobOutcome::Failed(message) => Err(BatchJobFailure {
                    label: handle.label().to_string(),
                    job_index,
                    error: BatchJobError::Panicked(message),
                }),
                JobOutcome::Cancelled => Err(BatchJobFailure {
                    label: handle.label().to_string(),
                    job_index,
                    error: BatchJobError::Cancelled,
                }),
            })
            .collect();
        let elapsed = started.elapsed();

        TryBatchResult {
            results,
            distinct_topologies,
            elapsed,
            cache: self.state.cache.stats().since(&before),
        }
    }

    /// The shared [`TopologyCache`] for `topo`, building it on first use
    /// and deduplicating by structural fingerprint across every session
    /// call (two same-structure topologies share one cache regardless of
    /// name). The registry is an LRU of at most `MAX_REGISTERED_TOPOLOGIES`
    /// structures; beyond that the least-recently-used registration is
    /// dropped (in-use `Arc`s stay valid).
    pub fn topology_cache(&self, topo: &Topology) -> Arc<TopologyCache> {
        self.state.topology_cache(topo)
    }

    /// Number of distinct topology structures registered so far.
    pub fn registered_topologies(&self) -> usize {
        self.state.topologies.len()
    }

    /// Aggregated distance-oracle row/memory accounting across every
    /// registered topology (bare + memoized encoded-signature oracles).
    /// Large landmark-mode devices report their O(K·V) footprint here;
    /// the wire `stats` op serves this object as `"oracle"`.
    pub fn oracle_stats(&self) -> crate::OracleStats {
        let mut total = crate::OracleStats::default();
        for cache in self.state.topologies.values() {
            total.merge(&cache.oracle_stats());
        }
        total
    }

    /// Cumulative memory-tier counters of the result cache (all zeros
    /// when caching is disabled). With a disk tier attached, a miss here
    /// may still be a disk hit; see [`Compiler::tiered_cache_stats`].
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Cumulative counters split by cache tier (memory / disk /
    /// compiles). Without a [`CompilerBuilder::persist_dir`] the disk
    /// counters are zero and the view collapses to [`Compiler::cache_stats`].
    pub fn tiered_cache_stats(&self) -> TieredCacheStats {
        self.state.tiered_cache_stats()
    }

    /// Returns `true` when the session has a persistent on-disk tier.
    pub fn persistence_enabled(&self) -> bool {
        self.state.persist.is_some()
    }

    /// Build-time warnings — non-fatal degradations the builder chose
    /// over aborting (today: a [`CompilerBuilder::persist_dir`] that
    /// could not be opened, degrading the session to memory-only).
    /// Empty for a cleanly built session. Servers surface these on
    /// startup; library callers may log or ignore them.
    pub fn diagnostics(&self) -> &[String] {
        &self.state.diagnostics
    }

    /// Number of results currently held by the cache.
    pub fn cached_results(&self) -> usize {
        self.state.cache.len()
    }

    /// Returns `true` when the session memoizes results.
    pub fn caching_enabled(&self) -> bool {
        self.state.cache.is_enabled()
    }

    /// Drops every cached result and resets the counters (the topology
    /// registry is kept — it is pure precomputation, never stale). The
    /// persistent on-disk tier is left intact: it is shared with other
    /// processes and its entries are content-addressed, so they can never
    /// be stale — reclaim disk space by deleting the directory or
    /// reopening it with a smaller [`CompilerBuilder::persist_max_bytes`].
    pub fn clear_cache(&self) {
        self.state.cache.clear();
        self.state.skeletons.clear();
    }
}

impl Drop for Compiler {
    /// Cancels every still-queued job, wakes all waiters, and joins the
    /// worker pool (a no-op for sessions that never submitted).
    fn drop(&mut self) {
        self.service.shutdown();
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qompress_circuit::{Gate, RotationAxis};

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.push(Gate::h(0));
        for i in 0..n - 1 {
            c.push(Gate::cx(i, i + 1));
        }
        c
    }

    #[test]
    fn repeat_compile_hits_and_matches() {
        let session = Compiler::builder().verify_hits(true).build();
        let c = ghz(5);
        let topo = Topology::grid(5);
        let first = session.compile(&c, &topo, Strategy::Eqm);
        let again = session.compile(&c, &topo, Strategy::Eqm);
        assert!(Arc::ptr_eq(&first, &again), "hit must serve the cached Arc");
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn hit_equals_uncached_compile() {
        let cached = Compiler::builder().build();
        let uncached = Compiler::builder().caching(false).build();
        let c = ghz(4);
        let topo = Topology::grid(4);
        for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::RingBased] {
            let _warm = cached.compile(&c, &topo, strategy);
            let hit = cached.compile(&c, &topo, strategy);
            let fresh = uncached.compile(&c, &topo, strategy);
            assert_eq!(format!("{:?}", *hit), format!("{:?}", *fresh), "{strategy}");
        }
        assert_eq!(uncached.cache_stats(), CacheStats::default());
        assert_eq!(uncached.cached_results(), 0);
    }

    #[test]
    fn distinct_jobs_do_not_collide() {
        let session = Compiler::new();
        let c = ghz(4);
        let topo = Topology::grid(4);
        let eqm = session.compile(&c, &topo, Strategy::Eqm);
        let qubit_only = session.compile(&c, &topo, Strategy::QubitOnly);
        assert_ne!(eqm.strategy, qubit_only.strategy);
        // Options-level entry is keyed separately from the strategy entry.
        let opts = session.compile_with_options(&c, &topo, &MappingOptions::eqm());
        assert_eq!(opts.strategy, String::new());
        assert_eq!(session.cache_stats().hits, 0);
        assert_eq!(session.cache_stats().misses, 3);
    }

    #[test]
    fn topology_registry_dedupes_across_calls_and_names() {
        let session = Compiler::new();
        let a = session.topology_cache(&Topology::grid(5));
        let b = session.topology_cache(&Topology::grid(5));
        assert!(Arc::ptr_eq(&a, &b));
        // Same structure under another name shares the cache.
        let renamed = Topology::from_edges(
            "renamed",
            Topology::grid(5).n_nodes(),
            Topology::grid(5).edges().to_vec(),
        );
        let c = session.topology_cache(&renamed);
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(session.registered_topologies(), 1);
        let _ = session.topology_cache(&Topology::line(4));
        assert_eq!(session.registered_topologies(), 2);
    }

    #[test]
    fn concurrent_topology_resolution_shares_one_cache() {
        let session = Compiler::new();
        let topo = Topology::grid(16);
        let threads = 6;
        let barrier = std::sync::Barrier::new(threads);
        let caches: Vec<Arc<TopologyCache>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        session.topology_cache(&topo)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for cache in &caches[1..] {
            assert!(Arc::ptr_eq(&caches[0], cache));
        }
        assert_eq!(session.registered_topologies(), 1);
    }

    #[test]
    fn config_changes_key_space() {
        let paper = Compiler::new();
        let swept = Compiler::builder()
            .config(CompilerConfig::paper().with_t1_ratio(1.5))
            .build();
        let c = ghz(4);
        let topo = Topology::grid(4);
        let a = paper.compile(&c, &topo, Strategy::Eqm);
        let b = swept.compile(&c, &topo, Strategy::Eqm);
        // Different coherence model => different metrics; each session
        // missed once (separate caches, separate key spaces).
        assert_ne!(a.metrics.coherence_eps, b.metrics.coherence_eps);
        assert_eq!(paper.cache_stats().misses, 1);
        assert_eq!(swept.cache_stats().misses, 1);
    }

    #[test]
    fn clear_cache_forgets_results_but_keeps_topologies() {
        let session = Compiler::new();
        let c = ghz(4);
        let topo = Topology::grid(4);
        let _ = session.compile(&c, &topo, Strategy::Eqm);
        assert_eq!(session.cached_results(), 1);
        session.clear_cache();
        assert_eq!(session.cached_results(), 0);
        assert_eq!(session.cache_stats(), CacheStats::default());
        assert_eq!(session.registered_topologies(), 1);
        let _ = session.compile(&c, &topo, Strategy::Eqm);
        assert_eq!(session.cache_stats().misses, 1);
    }

    #[test]
    fn capacity_bound_evicts() {
        let session = Compiler::builder().cache_capacity(2).build();
        let topo = Topology::grid(4);
        for strategy in [Strategy::QubitOnly, Strategy::Eqm, Strategy::RingBased] {
            let _ = session.compile(&ghz(4), &topo, strategy);
        }
        assert_eq!(session.cached_results(), 2);
        assert_eq!(session.cache_stats().evictions, 1);
    }

    #[test]
    fn topology_registry_is_bounded() {
        let session = Compiler::builder().caching(false).build();
        for n in 1..=(MAX_REGISTERED_TOPOLOGIES + 8) {
            let _ = session.topology_cache(&Topology::line(n));
        }
        assert_eq!(
            session.registered_topologies(),
            MAX_REGISTERED_TOPOLOGIES,
            "registry must evict oldest-first at the bound"
        );
        // The newest structure survived eviction and still dedupes.
        let newest = Topology::line(MAX_REGISTERED_TOPOLOGIES + 8);
        let a = session.topology_cache(&newest);
        let b = session.topology_cache(&newest);
        assert!(Arc::ptr_eq(&a, &b));
        // The oldest was evicted; re-requesting it simply rebuilds.
        let rebuilt = session.topology_cache(&Topology::line(1));
        assert_eq!(rebuilt.topology().n_nodes(), 1);
    }

    #[test]
    fn workers_autodetect_and_override() {
        assert!(Compiler::builder().build().workers() >= 1);
        assert_eq!(Compiler::builder().workers(3).build().workers(), 3);
        assert!(!Compiler::builder()
            .caching(false)
            .build()
            .state
            .cache
            .is_enabled());
        assert!(!Compiler::builder()
            .cache_capacity(0)
            .build()
            .state
            .cache
            .is_enabled());
    }

    #[test]
    fn pool_grows_with_demand_not_bound() {
        // A wide bound must not cost threads a narrow workload never
        // uses: one outstanding job at a time keeps a one-thread pool.
        let session = Compiler::builder().workers(8).build();
        assert_eq!(session.service.worker_count(), 0, "no submit, no pool");
        for _ in 0..3 {
            let h = session.submit(BatchJob::new(
                "serial",
                ghz(4),
                Strategy::QubitOnly,
                Topology::grid(4),
            ));
            assert!(h.wait().result().is_some());
        }
        assert_eq!(
            session.service.worker_count(),
            1,
            "serial submits never need a second worker"
        );
        // Piling up outstanding work grows the pool toward the bound.
        session.pause_workers();
        for i in 0..5 {
            let _ = session.submit(BatchJob::new(
                format!("burst-{i}"),
                ghz(4),
                Strategy::QubitOnly,
                Topology::grid(4),
            ));
        }
        let grown = session.service.worker_count();
        assert!(
            (2..=5).contains(&grown),
            "burst of 5 queued jobs must grow the pool (got {grown})"
        );
        session.resume_workers();
    }

    #[test]
    fn batch_survives_topology_registry_eviction() {
        // More distinct topologies than the registry holds: the per-job
        // `Arc<TopologyCache>` rides along with each queued job, so the
        // batch completes without rebuilding precomputation mid-flight
        // even though the registry evicted the earliest structures.
        let session = Compiler::builder().workers(2).build();
        let n = MAX_REGISTERED_TOPOLOGIES + 8;
        let jobs: Vec<BatchJob> = (0..n)
            .map(|i| {
                BatchJob::new(
                    format!("line-{}", i + 2),
                    ghz(2),
                    Strategy::QubitOnly,
                    Topology::line(i + 2),
                )
            })
            .collect();
        let out = session.compile_batch(&jobs);
        assert_eq!(out.results.len(), n);
        assert_eq!(out.distinct_topologies, n);
        assert_eq!(session.registered_topologies(), MAX_REGISTERED_TOPOLOGIES);
        for (job, r) in jobs.iter().zip(&out.results) {
            assert_eq!(r.label, job.label);
            assert!(r.result.metrics.total_eps > 0.0, "{}", job.label);
        }
    }

    #[test]
    fn workers_zero_autodetects_at_least_one_on_any_box() {
        // The CI container reports a single CPU; `workers(0)` must still
        // yield a usable pool (and would even if `available_parallelism`
        // errored — the builder clamps to ≥ 1).
        let session = Compiler::builder().workers(0).build();
        assert!(session.workers() >= 1);
        // …and the autodetected pool actually serves work.
        let handle = session.submit(BatchJob::new(
            "autodetect",
            ghz(4),
            Strategy::QubitOnly,
            Topology::grid(4),
        ));
        assert!(handle.wait().result().is_some());
    }

    /// The key `session` files an EQM compile of `circuit` on `topo`
    /// under.
    fn strategy_key(session: &Compiler, circuit: &Circuit, topo: &Topology) -> CacheKey {
        CacheKey::for_strategy(
            circuit,
            Strategy::Eqm,
            topo.structural_fingerprint(),
            session.state.config_fp,
        )
    }

    #[test]
    #[should_panic(expected = "memory-tier cache hit diverged")]
    fn verify_hits_catches_a_divergent_memory_hit() {
        let session = Compiler::builder().verify_hits(true).build();
        let topo = Topology::grid(4);
        let other = session.compile(&ghz(3), &topo, Strategy::Eqm);
        let key = strategy_key(&session, &ghz(4), &topo);
        session.state.cache.insert(key, other);
        let _ = session.compile(&ghz(4), &topo, Strategy::Eqm);
    }

    #[test]
    #[should_panic(expected = "disk-tier cache hit diverged")]
    fn verify_hits_catches_a_divergent_disk_hit() {
        /// Removes the persist dir even when the test unwinds.
        struct RemoveOnDrop(PathBuf);
        impl Drop for RemoveOnDrop {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = RemoveOnDrop(
            std::env::temp_dir().join(format!("qompress-divergent-disk-{}", std::process::id())),
        );
        let _ = std::fs::remove_dir_all(&dir.0);
        // Memory tier off, so the lookup below reaches the disk tier.
        let session = Compiler::builder()
            .caching(false)
            .verify_hits(true)
            .persist_dir(&dir.0)
            .build();
        let topo = Topology::grid(4);
        let other = session.compile(&ghz(3), &topo, Strategy::Eqm);
        let key = strategy_key(&session, &ghz(4), &topo);
        let tier = session.state.persist.as_ref().expect("persist dir opens");
        assert!(tier
            .store
            .store(&key.hex(), &persist::encode_result(&other))
            .expect("plant entry"));
        let _ = session.compile(&ghz(4), &topo, Strategy::Eqm);
    }

    #[test]
    #[should_panic(expected = "skeleton-tier cache hit diverged")]
    fn verify_hits_catches_a_divergent_skeleton_hit() {
        let skeleton = |target: usize| {
            let mut s = ParametricCircuit::new(3);
            s.push(Gate::h(0));
            s.push(Gate::cx(0, target));
            s.push_param(RotationAxis::Rz, 0, target);
            s
        };
        let session = Compiler::builder().verify_hits(true).build();
        let topo = Topology::grid(3);
        let other = session.compile_skeleton(&skeleton(1), &topo, Strategy::Eqm);
        let key = CacheKey::for_skeleton(
            &skeleton(2),
            Strategy::Eqm,
            topo.structural_fingerprint(),
            session.state.config_fp,
        );
        session.state.skeletons.insert(key, other);
        let _ = session.compile_skeleton(&skeleton(2), &topo, Strategy::Eqm);
    }
}
