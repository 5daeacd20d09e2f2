//! Multi-graph serving: a named snapshot registry with lazy loading,
//! `Arc` pinning and LRU eviction, plus the [`MultiEngine`] front that
//! routes queries to per-graph worker pools.
//!
//! # Registry semantics
//!
//! A [`GraphRegistry`] maps **names** to **loaders** (a `.hkg` path or an
//! arbitrary closure). Nothing is loaded at registration: the first
//! [`get`](GraphRegistry::get) for a name runs its loader, accounts the
//! graph's [`memory_bytes`](hk_graph::Graph::memory_bytes) against the
//! registry's resident-byte budget, and then evicts least-recently-used
//! *other* graphs until the budget holds again (the graph just requested
//! is never its own eviction victim, so a single oversized snapshot still
//! serves).
//!
//! **Pinning is `Arc`, not bookkeeping.** Eviction only removes the
//! registry's reference; every caller that obtained the graph keeps a
//! live `Arc`, so an in-flight query can never observe a freed graph —
//! the memory is returned when the last query finishes. `resident_bytes`
//! deliberately counts only registry-held graphs (the budget governs what
//! the registry *keeps*, not what callers still pin).
//!
//! **Reload is cheap to reason about.** A reloaded snapshot is
//! structurally identical, so it fingerprints identically, so result
//! cache entries keyed under that fingerprint are valid again the moment
//! the graph returns — load/evict/reload cycles never invalidate cached
//! results (property: the cache key already namespaces by fingerprint).
//!
//! Concurrent `get`s of one name load once: the first caller marks the
//! entry `Loading` and later callers wait on a condvar. A failed load
//! clears the mark and every waiter retries or reports the error. A
//! waiter with a deadline ([`get_within`](GraphRegistry::get_within) —
//! what [`MultiEngine`] routes [`crate::QueryRequest::deadline`] through)
//! waits only until that deadline and then reports
//! [`ServeError::DeadlineExceeded`] instead of sleeping through it.
//!
//! # MultiEngine
//!
//! [`MultiEngine`] owns a registry plus **one shared worker pool** (the
//! deadline-aware [`crate::engine`] scheduler) spanning every graph:
//! with 4 hot graphs on a 4-core host the service runs 4 workers, not
//! 16. Per resident graph it keeps only a lightweight *front* (the graph
//! pin plus the canonical-parameter memo table); jobs on the shared
//! queue carry their own `Arc<Graph>`, so evicting a graph just drops
//! the front — queued and running queries keep their pins and finish
//! normally, and no worker pool is torn down or rebuilt. All graphs
//! share one [`ResultCache`] (keys carry the graph fingerprint) and the
//! scheduler's per-graph admission quotas keep one graph's burst from
//! starving the others.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use hk_graph::{io, Graph, GraphError};
use hkpr_core::fxhash::FxHashMap;

use crate::cache::ResultCache;
use crate::engine::{EngineConfig, EngineStats, QueryRequest, QueryResponse, ServeError, Ticket};
use crate::hub::{HubBuilder, HubStats};
use crate::sched::{admission_key_of, GraphFront, Scheduler};
use crate::CacheOutcome;

/// How a registry entry produces its graph. Loaders run outside the
/// registry lock and may be called again after an eviction.
type Loader = dyn Fn() -> Result<Arc<Graph>, GraphError> + Send + Sync;

/// Residency state of one named entry.
enum Slot {
    /// Not resident; next `get` loads.
    Empty,
    /// A load is running on some thread; wait on the condvar.
    Loading,
    /// Resident and counted against the budget.
    Resident {
        graph: Arc<Graph>,
        bytes: usize,
        last_used: u64,
    },
}

/// Failed loads are retried up to this many attempts total.
const LOAD_ATTEMPTS: u32 = 4;
/// Default first-retry backoff (doubles per attempt).
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Default per-sleep backoff clamp.
const BACKOFF_CAP: Duration = Duration::from_millis(10);

struct Entry {
    loader: Arc<Loader>,
    slot: Slot,
    /// Earliest deadline among callers currently waiting behind this
    /// entry's in-flight load. The loading leader caps its retry-backoff
    /// sleeps at this instant, so a waiter's deadline error surfaces on
    /// time instead of after the full backoff schedule. Monotone-min
    /// while `Loading`; reset whenever the slot settles.
    earliest_waiter_deadline: Option<std::time::Instant>,
}

struct Inner {
    entries: FxHashMap<String, Entry>,
    /// Monotonic LRU clock; bumped on every touch.
    tick: u64,
    /// Σ bytes of `Resident` slots — the quantity the budget bounds.
    resident_bytes: usize,
}

/// Aggregate registry counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Loader invocations that succeeded (first loads + reloads).
    pub loads: u64,
    /// Loader invocations attempted, including failures and retries
    /// (`load_attempts - loads` = failed attempts).
    pub load_attempts: u64,
    /// Failed attempts that were retried after backoff (a load that
    /// succeeds on attempt `k` contributes `k - 1` here).
    pub load_retries: u64,
    /// Wall-clock nanoseconds spent inside the loader runs counted by
    /// `loads` (failed attempts and backoff sleeps excluded) — what cold
    /// loads, and reloads after eviction, cost.
    pub load_ns: u64,
    /// Fronts that hashed their graph's fingerprint because no snapshot
    /// recorded it (graphs registered as owned arrays). A front over a
    /// loaded `.hkg` snapshot, which records it, hashes nothing.
    pub fingerprints_computed: u64,
    /// Wall-clock nanoseconds those hashes took.
    pub fingerprint_ns: u64,
    /// Graphs evicted to respect the byte budget (or explicitly).
    pub evictions: u64,
    /// `get`s answered from a resident graph.
    pub resident_hits: u64,
    /// Bytes of all currently resident graphs.
    pub resident_bytes: u64,
    /// Number of currently resident graphs.
    pub resident_graphs: u64,
}

/// Named, lazily-loaded, LRU-evicted store of graph snapshots. See the
/// [module docs](self).
pub struct GraphRegistry {
    inner: Mutex<Inner>,
    /// Signals `Loading -> {Resident, Empty}` transitions.
    loaded: Condvar,
    /// Resident-byte budget; 0 means unlimited.
    budget: usize,
    loads: AtomicU64,
    load_attempts: AtomicU64,
    load_retries: AtomicU64,
    load_ns: AtomicU64,
    fingerprints_computed: AtomicU64,
    fingerprint_ns: AtomicU64,
    evictions: AtomicU64,
    resident_hits: AtomicU64,
    /// Retry backoff schedule `(base, cap)` for failed loads —
    /// adjustable so tests can use observable-scale sleeps.
    load_backoff: Mutex<(Duration, Duration)>,
}

impl GraphRegistry {
    /// A registry that keeps at most ~`max_resident_bytes` of snapshots
    /// resident (0 = unlimited). The bound is soft by exactly one rule:
    /// the most recently requested graph is always kept, even alone over
    /// budget.
    pub fn new(max_resident_bytes: usize) -> GraphRegistry {
        GraphRegistry {
            inner: Mutex::new(Inner {
                entries: FxHashMap::default(),
                tick: 0,
                resident_bytes: 0,
            }),
            loaded: Condvar::new(),
            budget: max_resident_bytes,
            loads: AtomicU64::new(0),
            load_attempts: AtomicU64::new(0),
            load_retries: AtomicU64::new(0),
            load_ns: AtomicU64::new(0),
            fingerprints_computed: AtomicU64::new(0),
            fingerprint_ns: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_hits: AtomicU64::new(0),
            load_backoff: Mutex::new((BACKOFF_BASE, BACKOFF_CAP)),
        }
    }

    /// Override the failed-load retry backoff schedule (base doubles per
    /// attempt, clamped to `cap`). The defaults are ms-scale; tests dial
    /// this up to make deadline interactions observable.
    pub fn set_load_backoff(&self, base: Duration, cap: Duration) {
        *self.load_backoff.lock().unwrap() = (base, cap);
    }

    /// Register `name` with an arbitrary loader. Replacing an existing
    /// entry evicts any resident graph first (its cached results stay
    /// valid only if the new loader produces the same structure, which is
    /// the fingerprint key's problem, not ours).
    pub fn register<F>(&self, name: &str, loader: F)
    where
        F: Fn() -> Result<Arc<Graph>, GraphError> + Send + Sync + 'static,
    {
        let mut inner = self.inner.lock().unwrap();
        // Wait out a concurrent load of the entry being replaced so its
        // completion cannot resurrect the old graph's accounting.
        while matches!(
            inner.entries.get(name).map(|e| &e.slot),
            Some(Slot::Loading)
        ) {
            inner = self.loaded.wait(inner).unwrap();
        }
        if let Some(old) = inner.entries.remove(name) {
            if let Slot::Resident { bytes, .. } = old.slot {
                inner.resident_bytes -= bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.entries.insert(
            name.to_string(),
            Entry {
                loader: Arc::new(loader),
                slot: Slot::Empty,
                earliest_waiter_deadline: None,
            },
        );
    }

    /// Register `name` as a snapshot file loaded via
    /// [`hk_graph::io::load_binary`] onto the zero-copy arena backend.
    pub fn register_path<P: Into<std::path::PathBuf>>(&self, name: &str, path: P) {
        let path = path.into();
        self.register(name, move || io::load_binary(&path).map(Arc::new));
    }

    /// Register `name` as a v2 snapshot served from a read-only mmap.
    #[cfg(feature = "mmap")]
    pub fn register_path_mmap<P: Into<std::path::PathBuf>>(&self, name: &str, path: P) {
        let path = path.into();
        self.register(name, move || io::load_binary_mmap(&path).map(Arc::new));
    }

    /// Register a pre-built graph (tests, generators). The registry still
    /// tracks residency and bytes normally; "reload" after an eviction
    /// just clones the `Arc` (the loader pins the graph, so this variant
    /// trades reclaimability for zero reload cost).
    pub fn register_graph(&self, name: &str, graph: Arc<Graph>) {
        self.register(name, move || Ok(Arc::clone(&graph)));
    }

    /// Names of all registered graphs (resident or not), unordered.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().unwrap().entries.keys().cloned().collect()
    }

    /// Currently resident graphs as `(name, bytes)`, unordered.
    pub fn resident(&self) -> Vec<(String, usize)> {
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .filter_map(|(name, e)| match &e.slot {
                Slot::Resident { bytes, .. } => Some((name.clone(), *bytes)),
                _ => None,
            })
            .collect()
    }

    /// Fetch `name`, loading it if necessary, bumping its LRU position,
    /// and evicting over-budget LRU graphs. Returns the pinned graph plus
    /// the names evicted by this call (so a front holding per-graph
    /// resources — worker pools, say — can release them). Waits without
    /// bound behind a concurrent load; deadline-bearing callers use
    /// [`get_within`](Self::get_within).
    pub fn get(&self, name: &str) -> Result<(Arc<Graph>, Vec<String>), ServeError> {
        self.get_within(name, None)
    }

    /// [`get`](Self::get) with a deadline bound on the *wait behind a
    /// concurrent load*: a caller that finds the entry `Loading` waits on
    /// the condvar only until `deadline` and then returns
    /// [`ServeError::DeadlineExceeded`] — it must not sleep through its
    /// own deadline behind a slow or backoff-retrying loader. A caller
    /// that becomes the loading leader itself runs the loader to
    /// completion regardless (loaders are not cancellable; the engine
    /// re-checks the deadline right after routing, so a late leader is
    /// still shed before any compute is spent).
    pub fn get_within(
        &self,
        name: &str,
        deadline: Option<std::time::Instant>,
    ) -> Result<(Arc<Graph>, Vec<String>), ServeError> {
        let loader = {
            let mut inner = self.inner.lock().unwrap();
            loop {
                // Bump the LRU clock before borrowing the entry (wasted
                // ticks on wait iterations are harmless — it only needs
                // to be monotone).
                inner.tick += 1;
                let tick = inner.tick;
                let entry = inner
                    .entries
                    .get_mut(name)
                    .ok_or_else(|| ServeError::UnknownGraph(name.to_string()))?;
                match &mut entry.slot {
                    Slot::Resident {
                        graph, last_used, ..
                    } => {
                        *last_used = tick;
                        let graph = Arc::clone(graph);
                        self.resident_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((graph, Vec::new()));
                    }
                    Slot::Loading => match deadline {
                        None => inner = self.loaded.wait(inner).unwrap(),
                        Some(d) => {
                            let now = std::time::Instant::now();
                            if now >= d {
                                return Err(ServeError::DeadlineExceeded { late_by: now - d });
                            }
                            // Publish our deadline so the loading leader
                            // caps its retry-backoff sleeps at it: the
                            // error (or graph) must be settled by then,
                            // not after the full backoff schedule.
                            entry.earliest_waiter_deadline = Some(
                                entry
                                    .earliest_waiter_deadline
                                    .map_or(d, |earliest| earliest.min(d)),
                            );
                            let (guard, _) = self.loaded.wait_timeout(inner, d - now).unwrap();
                            inner = guard;
                        }
                    },
                    Slot::Empty => {
                        entry.slot = Slot::Loading;
                        entry.earliest_waiter_deadline = None;
                        break Arc::clone(&entry.loader);
                    }
                }
            }
        };

        // Load outside the lock: other names stay servable meanwhile. A
        // loader that *panics* (user closure) must not wedge the entry in
        // `Loading` — this guard resets the slot and wakes waiters on
        // unwind; the normal path disarms it and settles the slot itself.
        struct LoadGuard<'a> {
            reg: &'a GraphRegistry,
            name: &'a str,
            armed: bool,
        }
        impl Drop for LoadGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    let mut inner = self.reg.inner.lock().unwrap();
                    if let Some(entry) = inner.entries.get_mut(self.name) {
                        if matches!(entry.slot, Slot::Loading) {
                            entry.slot = Slot::Empty;
                            entry.earliest_waiter_deadline = None;
                        }
                    }
                    self.reg.loaded.notify_all();
                }
            }
        }
        let mut guard = LoadGuard {
            reg: self,
            name,
            armed: true,
        };
        // Transient load failures (I/O hiccup, snapshot mid-rotation) are
        // retried with capped exponential backoff before the error is
        // surfaced to callers; the budget is small and ms-scale so a
        // genuinely broken loader still reports promptly. A loader
        // *panic* is never retried — the guard resets the slot and the
        // panic propagates to the caller. Every backoff sleep is further
        // capped at the earliest deadline in play — the leader's own or
        // any condvar waiter's — so deadline-bearing callers are never
        // held past their budget by the retry schedule.
        let (backoff_base, backoff_cap) = *self.load_backoff.lock().unwrap();
        let mut attempt = 0u32;
        let (result, load_time) = loop {
            attempt += 1;
            self.load_attempts.fetch_add(1, Ordering::Relaxed);
            let started = std::time::Instant::now();
            let attempt_result = {
                #[cfg(feature = "testing")]
                {
                    crate::fault::fire("registry.load")
                        .map_err(GraphError::Format)
                        .and_then(|()| loader())
                }
                #[cfg(not(feature = "testing"))]
                loader()
            };
            match attempt_result {
                Err(_) if attempt < LOAD_ATTEMPTS => {
                    self.load_retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = backoff_base * 2u32.saturating_pow(attempt - 1);
                    let mut sleep = backoff.min(backoff_cap);
                    let waiter = self
                        .inner
                        .lock()
                        .unwrap()
                        .entries
                        .get(name)
                        .and_then(|e| e.earliest_waiter_deadline);
                    let earliest = match (deadline, waiter) {
                        (Some(own), Some(w)) => Some(own.min(w)),
                        (own, w) => own.or(w),
                    };
                    if let Some(d) = earliest {
                        sleep = sleep.min(d.saturating_duration_since(std::time::Instant::now()));
                    }
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                    }
                }
                terminal => break (terminal, started.elapsed()),
            }
        };
        guard.armed = false;

        let mut inner = self.inner.lock().unwrap();
        // The entry may have been `register`-replaced while we loaded;
        // only our `Loading` mark is ours to clear.
        let still_ours = matches!(
            inner.entries.get(name).map(|e| &e.slot),
            Some(Slot::Loading)
        );
        match result {
            Ok(graph) => {
                let bytes = graph.memory_bytes();
                if still_ours {
                    inner.tick += 1;
                    let tick = inner.tick;
                    let entry = inner.entries.get_mut(name).unwrap();
                    entry.slot = Slot::Resident {
                        graph: Arc::clone(&graph),
                        bytes,
                        last_used: tick,
                    };
                    entry.earliest_waiter_deadline = None;
                    inner.resident_bytes += bytes;
                }
                self.loads.fetch_add(1, Ordering::Relaxed);
                self.load_ns
                    .fetch_add(load_time.as_nanos() as u64, Ordering::Relaxed);
                self.loaded.notify_all();
                let evicted = self.evict_over_budget(&mut inner, name);
                Ok((graph, evicted))
            }
            Err(e) => {
                if still_ours {
                    let entry = inner.entries.get_mut(name).unwrap();
                    entry.slot = Slot::Empty;
                    entry.earliest_waiter_deadline = None;
                }
                self.loaded.notify_all();
                Err(ServeError::GraphLoad {
                    graph: name.to_string(),
                    error: e.to_string(),
                })
            }
        }
    }

    /// Evict LRU residents (never `keep`) until the budget holds.
    fn evict_over_budget(&self, inner: &mut Inner, keep: &str) -> Vec<String> {
        let mut evicted = Vec::new();
        if self.budget == 0 {
            return evicted;
        }
        while inner.resident_bytes > self.budget {
            let victim = inner
                .entries
                .iter()
                .filter_map(|(n, e)| match &e.slot {
                    Slot::Resident { last_used, .. } if n != keep => Some((*last_used, n.clone())),
                    _ => None,
                })
                .min()
                .map(|(_, n)| n);
            match victim {
                Some(n) => {
                    self.evict_locked(inner, &n);
                    evicted.push(n);
                }
                None => break, // only `keep` is resident; the bound is soft
            }
        }
        evicted
    }

    fn evict_locked(&self, inner: &mut Inner, name: &str) -> bool {
        if let Some(entry) = inner.entries.get_mut(name) {
            if let Slot::Resident { bytes, .. } = entry.slot {
                entry.slot = Slot::Empty;
                inner.resident_bytes -= bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Explicitly evict `name` (a no-op unless resident). Pinned `Arc`s
    /// held by in-flight queries stay valid; the next `get` reloads.
    pub fn evict(&self, name: &str) -> bool {
        let mut inner = self.inner.lock().unwrap();
        self.evict_locked(&mut inner, name)
    }

    /// `graph`'s fingerprint: the value its snapshot records, or else
    /// an O(n + m) hash of its arrays, counted and timed in
    /// [`RegistryStats::fingerprints_computed`] and
    /// [`RegistryStats::fingerprint_ns`].
    fn fingerprint_of(&self, graph: &Graph) -> u64 {
        if let Some(recorded) = graph.recorded_fingerprint() {
            return recorded;
        }
        let started = std::time::Instant::now();
        let fingerprint = graph.compute_fingerprint();
        self.fingerprint_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.fingerprints_computed.fetch_add(1, Ordering::Relaxed);
        fingerprint
    }

    /// Bytes of all currently resident graphs (the budgeted quantity).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().unwrap().resident_bytes
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().unwrap();
        let resident_graphs = inner
            .entries
            .values()
            .filter(|e| matches!(e.slot, Slot::Resident { .. }))
            .count() as u64;
        RegistryStats {
            loads: self.loads.load(Ordering::Relaxed),
            load_attempts: self.load_attempts.load(Ordering::Relaxed),
            load_retries: self.load_retries.load(Ordering::Relaxed),
            load_ns: self.load_ns.load(Ordering::Relaxed),
            fingerprints_computed: self.fingerprints_computed.load(Ordering::Relaxed),
            fingerprint_ns: self.fingerprint_ns.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_hits: self.resident_hits.load(Ordering::Relaxed),
            resident_bytes: inner.resident_bytes as u64,
            resident_graphs,
        }
    }
}

impl std::fmt::Debug for GraphRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphRegistry")
            .field("budget_bytes", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Per-graph serving counters of a [`MultiEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphServeStats {
    /// Queries answered from the shared result cache.
    pub hits: u64,
    /// Queries computed by the shared worker pool.
    pub misses: u64,
    /// Queries coalesced onto a concurrent identical miss
    /// (single-flight followers).
    pub coalesced: u64,
    /// Queries answered from the cache's pinned tier
    /// ([`CacheOutcome::Precomputed`]).
    pub precomputed: u64,
    /// Queries that returned an error (estimator, shed, cancel, load…).
    pub errors: u64,
    /// Requests rejected by this graph's admission quota (counted for
    /// `submit` and `query` alike).
    pub admission_rejections: u64,
}

/// Sizing of a [`MultiEngine`]. The default is an unlimited registry
/// budget over one [`EngineConfig::default`] shared pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultiEngineConfig {
    /// Scheduler configuration. `workers` sizes the **one shared pool**
    /// spanning all graphs (size it to the host, not to the number of
    /// graphs); `cache_bytes`/`cache_shards` size the single shared
    /// cache; `per_graph_queue` is the admission quota.
    pub engine: EngineConfig,
    /// Registry resident-byte budget (0 = unlimited).
    pub max_resident_bytes: usize,
    /// Hub precomputation: pin full answers for this many top-degree
    /// seeds per graph in the cache, built in the background at load
    /// time. `0` (default) disables it. See [`crate::hub`].
    pub hub_top_k: usize,
    /// Byte budget of the cache's pinned tier across all graphs
    /// (0 = unlimited). Only meaningful when `hub_top_k > 0`.
    pub hub_bytes: usize,
}

/// Routes [`QueryRequest`]s by registry name onto one shared
/// deadline-aware worker pool. See the [module docs](self) for lifecycle
/// and pinning rules.
pub struct MultiEngine {
    registry: GraphRegistry,
    /// The one shared pool. Jobs carry their own graph pin.
    pub(crate) sched: Scheduler,
    hop_c: f64,
    /// Lightweight per-resident-graph fronts (graph pin + canonical
    /// params). A front leaves this map when its graph is evicted, which
    /// releases the map's pin; in-flight jobs keep theirs.
    fronts: Mutex<FxHashMap<String, Arc<GraphFront>>>,
    per_graph: Mutex<FxHashMap<String, GraphServeStats>>,
    /// Hub builder ([`MultiEngineConfig::hub_top_k`] > 0).
    hubs: Option<Arc<HubBuilder>>,
}

impl MultiEngine {
    /// An engine front over `registry`-style named graphs. Graphs are
    /// registered on the returned value's [`registry`](Self::registry).
    pub fn new(config: MultiEngineConfig) -> MultiEngine {
        // Hubs pin into the cache, so hubs on means a cache even with no
        // LRU budget: one that holds only pins.
        let cache = (config.engine.cache_bytes > 0 || config.hub_top_k > 0).then(|| {
            Arc::new(
                ResultCache::new(config.engine.cache_bytes, config.engine.cache_shards)
                    .with_pin_budget(config.hub_bytes),
            )
        });
        let hubs = cache
            .as_ref()
            .filter(|_| config.hub_top_k > 0)
            .map(|cache| Arc::new(HubBuilder::new(config.hub_top_k, Arc::clone(cache))));
        MultiEngine {
            registry: GraphRegistry::new(config.max_resident_bytes),
            sched: Scheduler::new(config.engine, cache),
            hop_c: config.engine.hop_c,
            fronts: Mutex::new(FxHashMap::default()),
            per_graph: Mutex::new(FxHashMap::default()),
            hubs,
        }
    }

    /// The underlying registry (register/evict/inspect graphs here).
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The shared result cache (pins only if `engine.cache_bytes` is 0).
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.sched.cache()
    }

    /// Aggregate scheduler counters: completions, sheds (queued vs
    /// cancelled-running vs overload), queue high-water mark, worker
    /// count and the shared-cache stats (incl. coalesced followers).
    pub fn stats(&self) -> EngineStats {
        self.sched.stats()
    }

    /// [`EngineStats::workspace_bytes`] split by worker of the shared
    /// pool: entry `i` is what worker `i`'s scratch held when it last
    /// published (after every job, and after a panic rebuild). One entry
    /// per worker; they sum to the aggregate.
    pub fn worker_workspace_bytes(&self) -> Vec<u64> {
        self.sched.worker_workspace_bytes()
    }

    /// Worker threads of the shared pool still running — scheduler
    /// liveness for health endpoints. Equals [`EngineStats::workers`] in
    /// a healthy engine; less means worker threads died outright.
    pub fn live_workers(&self) -> usize {
        self.sched.live_workers()
    }

    /// Resolve `graph` to its serving front, loading the snapshot if
    /// necessary and dropping fronts of graphs that are no longer
    /// resident (releasing their pins — the shared pool is untouched).
    /// `deadline` bounds any wait behind a concurrent load of the same
    /// graph (the request must not sleep through its own deadline).
    pub(crate) fn front_for(
        &self,
        graph: &str,
        deadline: Option<std::time::Instant>,
    ) -> Result<Arc<GraphFront>, ServeError> {
        let (snapshot, _evicted) = self.registry.get_within(graph, deadline)?;
        // Reconcile the fronts map with registry residency on every
        // routing call: explicit `registry().evict()`, `register()`
        // replacement, and concurrent-eviction races all drop graphs
        // without passing through this thread's `get`, and a retained
        // front would keep the evicted snapshot's memory pinned
        // indefinitely. (Residency is sampled before taking the fronts
        // lock; a graph evicted between the two is caught by the next
        // call's reconcile.)
        let resident: Vec<String> = self
            .registry
            .resident()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let mut fronts = self.fronts.lock().unwrap();
        fronts.retain(|name, _| resident.iter().any(|r| r == name));
        if let Some(front) = fronts.get(graph) {
            // Same resident snapshot => same front. (A reload produces a
            // new Arc; the stale front is replaced below so queries pin
            // the registry-accounted instance.)
            if Arc::ptr_eq(front.graph(), &snapshot) {
                return Ok(Arc::clone(front));
            }
        }
        // O(1) for a loaded snapshot, which records its fingerprint; owned
        // graphs hash here, once per front (and again per reload).
        let fingerprint = self.registry.fingerprint_of(&snapshot);
        let front = Arc::new(GraphFront::new(graph, snapshot, fingerprint, self.hop_c));
        fronts.insert(graph.to_string(), Arc::clone(&front));
        // First sighting of this snapshot: kick off the background hub
        // build. Runs after the front is routable, so loading never waits
        // on precomputation; fingerprint dedupe makes evict/reload free.
        if let Some(hubs) = &self.hubs {
            hubs.spawn_build(&front);
        }
        Ok(front)
    }

    /// Submit a request against the named graph. Loading, routing, cache
    /// probing and single-flight claiming happen on the calling thread;
    /// compute happens on the shared pool, earliest deadline first.
    pub fn submit(&self, graph: &str, req: QueryRequest) -> Result<Ticket, ServeError> {
        self.front_for(graph, req.deadline)
            .and_then(|front| self.sched.submit(&front, req))
    }

    /// Submit and block for the answer, tallying per-graph counters.
    pub fn query(&self, graph: &str, req: QueryRequest) -> Result<QueryResponse, ServeError> {
        let outcome = self.submit(graph, req).and_then(Ticket::wait);
        let mut per_graph = self.per_graph.lock().unwrap();
        let stats = per_graph.entry(graph.to_string()).or_default();
        match &outcome {
            Ok(resp) if resp.outcome == CacheOutcome::Hit => stats.hits += 1,
            Ok(resp) if resp.outcome == CacheOutcome::Coalesced => stats.coalesced += 1,
            Ok(resp) if resp.outcome == CacheOutcome::Precomputed => stats.precomputed += 1,
            Ok(_) => stats.misses += 1,
            Err(_) => stats.errors += 1,
        }
        outcome
    }

    /// Hub-builder counters (all zero when [`MultiEngineConfig::hub_top_k`]
    /// is 0). Pins and their hits are in [`EngineStats::cache`].
    pub fn hub_stats(&self) -> HubStats {
        self.hubs
            .as_deref()
            .map(HubBuilder::stats)
            .unwrap_or_default()
    }

    /// Block until every in-flight hub build has finished. Builds are
    /// asynchronous by design (loading never waits on them); tests and
    /// benchmarks call this to make "the pinned tier is populated" a
    /// deterministic precondition. No-op when hubs are disabled.
    pub fn wait_hub_builds(&self) {
        if let Some(hubs) = &self.hubs {
            hubs.wait_idle();
        }
    }

    /// Per-graph serving counters, sorted by name: every registered
    /// graph plus every name queries were tallied under. Admission
    /// rejections are read live from the scheduler's quota accounting.
    pub fn per_graph_stats(&self) -> Vec<(String, GraphServeStats)> {
        let tallies: Vec<(String, GraphServeStats)> = self
            .per_graph
            .lock()
            .unwrap()
            .iter()
            .map(|(k, s)| (k.clone(), *s))
            .collect();
        let mut names = self.registry.names();
        for (name, _) in &tallies {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        let mut v: Vec<(String, GraphServeStats)> = names
            .into_iter()
            .map(|name| {
                let mut s = tallies
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| *s)
                    .unwrap_or_default();
                s.admission_rejections = self.sched.admission_rejections(admission_key_of(&name));
                (name, s)
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

impl std::fmt::Debug for MultiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiEngine")
            .field("registry", &self.registry)
            .field("scheduler", &self.sched)
            .field("fronts", &self.fronts.lock().unwrap().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::gen::planted_partition;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph(seed: u64) -> Arc<Graph> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Arc::new(
            planted_partition(3, 30, 0.35, 0.02, &mut rng)
                .unwrap()
                .graph,
        )
    }

    #[test]
    fn lazy_load_touch_and_explicit_evict() {
        let reg = GraphRegistry::new(0);
        let g = graph(1);
        reg.register_graph("a", Arc::clone(&g));
        assert_eq!(reg.stats().loads, 0);
        assert_eq!(reg.resident_bytes(), 0);
        let (got, evicted) = reg.get("a").unwrap();
        assert!(Arc::ptr_eq(&got, &g));
        assert!(evicted.is_empty());
        assert_eq!(reg.stats().loads, 1);
        assert_eq!(reg.resident_bytes(), g.memory_bytes());
        // Second get is a resident hit, not a reload.
        let _ = reg.get("a").unwrap();
        let s = reg.stats();
        assert_eq!((s.loads, s.resident_hits), (1, 1));
        // Evict, reload.
        assert!(reg.evict("a"));
        assert!(!reg.evict("a"));
        assert_eq!(reg.resident_bytes(), 0);
        let _ = reg.get("a").unwrap();
        assert_eq!(reg.stats().loads, 2);
    }

    #[test]
    fn load_time_sums_the_successful_loader_runs() {
        let reg = GraphRegistry::new(0);
        reg.set_load_backoff(Duration::from_millis(1), Duration::from_millis(1));
        let slow = Duration::from_millis(5);
        reg.register("bad", move || {
            std::thread::sleep(slow);
            Err(GraphError::Format("synthetic failure".into()))
        });
        let g = graph(2);
        reg.register("slow", move || {
            std::thread::sleep(slow);
            Ok(Arc::clone(&g))
        });
        // Failed attempts, however slow, are not load time.
        assert!(reg.get("bad").is_err());
        assert_eq!(reg.stats().load_ns, 0);
        // Every load and every reload after an eviction is; a resident
        // hit is not.
        reg.get("slow").unwrap();
        let first = reg.stats().load_ns;
        assert!(first >= slow.as_nanos() as u64);
        reg.get("slow").unwrap();
        assert_eq!(reg.stats().load_ns, first);
        assert!(reg.evict("slow"));
        reg.get("slow").unwrap();
        let s = reg.stats();
        assert_eq!((s.loads, s.resident_hits), (2, 1));
        assert!(s.load_ns >= first + slow.as_nanos() as u64);
    }

    #[test]
    fn unknown_name_and_failing_loader_are_typed() {
        let reg = GraphRegistry::new(0);
        assert!(matches!(
            reg.get("nope"),
            Err(ServeError::UnknownGraph(n)) if n == "nope"
        ));
        reg.register("bad", || {
            Err(GraphError::Format("synthetic failure".into()))
        });
        match reg.get("bad") {
            Err(ServeError::GraphLoad { graph, error }) => {
                assert_eq!(graph, "bad");
                assert!(error.contains("synthetic failure"));
            }
            other => panic!("expected GraphLoad, got {other:?}"),
        }
        // A failed load leaves the entry retryable, not wedged.
        assert!(matches!(reg.get("bad"), Err(ServeError::GraphLoad { .. })));
        assert_eq!(reg.resident_bytes(), 0);
    }

    #[test]
    fn leader_backoff_respects_its_own_deadline() {
        // Regression: the retry loop used to sleep its full backoff
        // schedule regardless of the triggering caller's deadline, so a
        // 50 ms-deadline caller sat behind 700 ms of sleeps before its
        // error surfaced. Each sleep is now capped at the caller's
        // remaining budget.
        let reg = GraphRegistry::new(0);
        reg.set_load_backoff(Duration::from_millis(100), Duration::from_millis(400));
        reg.register("bad", || {
            Err(GraphError::Format("synthetic failure".into()))
        });
        let start = std::time::Instant::now();
        let deadline = start + Duration::from_millis(50);
        let out = reg.get_within("bad", Some(deadline));
        let elapsed = start.elapsed();
        // All attempts still run (loads stay retry-covered); the error is
        // the loader's, and it arrives near the deadline, not after the
        // 100+200+400 ms schedule.
        assert!(matches!(out, Err(ServeError::GraphLoad { .. })));
        assert!(
            elapsed < Duration::from_millis(300),
            "leader slept through its deadline: {elapsed:?}"
        );
        assert_eq!(reg.stats().load_attempts, LOAD_ATTEMPTS as u64);
    }

    #[test]
    fn leader_backoff_respects_a_waiters_deadline() {
        // A deadline-free leader hits a flaky loader while a second
        // caller waits behind the load with a 150 ms deadline: the
        // waiter's deadline must cap the leader's backoff sleeps (the
        // waiter already got its timeout error; the leader must settle
        // the slot promptly, not hold it for the full schedule).
        let fails = Arc::new(AtomicU64::new(0));
        let reg = Arc::new(GraphRegistry::new(0));
        reg.set_load_backoff(Duration::from_millis(100), Duration::from_millis(400));
        let g = graph(2);
        {
            let fails = Arc::clone(&fails);
            let g = Arc::clone(&g);
            reg.register("flaky", move || {
                if fails.fetch_add(1, Ordering::Relaxed) < (LOAD_ATTEMPTS - 1) as u64 {
                    Err(GraphError::Format("transient".into()))
                } else {
                    Ok(Arc::clone(&g))
                }
            });
        }
        let leader = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let start = std::time::Instant::now();
                let out = reg.get("flaky");
                (out.is_ok(), start.elapsed())
            })
        };
        // Give the leader time to claim the slot and enter its first
        // backoff sleep, then wait behind it with a short deadline.
        std::thread::sleep(Duration::from_millis(20));
        let waiter_deadline = std::time::Instant::now() + Duration::from_millis(150);
        let waited = reg.get_within("flaky", Some(waiter_deadline));
        // The waiter itself either timed out or caught the settled graph;
        // both are legal orderings.
        assert!(matches!(
            waited,
            Ok(_) | Err(ServeError::DeadlineExceeded { .. })
        ));
        let (leader_ok, leader_elapsed) = leader.join().unwrap();
        assert!(leader_ok, "flaky loader succeeds on its final attempt");
        // Unfixed schedule: 100+200+400 ms of sleeps (~700 ms). With the
        // waiter's cap the leader settles around the 150 ms mark.
        assert!(
            leader_elapsed < Duration::from_millis(400),
            "leader ignored the waiter's deadline: {leader_elapsed:?}"
        );
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let a = graph(1);
        let per = a.memory_bytes();
        // Budget fits two graphs of this size but not three.
        let reg = GraphRegistry::new(2 * per + per / 2);
        for (name, seed) in [("a", 1), ("b", 2), ("c", 3)] {
            reg.register_graph(name, graph(seed));
        }
        reg.get("a").unwrap();
        reg.get("b").unwrap();
        reg.get("a").unwrap(); // a now more recent than b
        let (_, evicted) = reg.get("c").unwrap();
        assert_eq!(evicted, vec!["b".to_string()]);
        let mut resident: Vec<String> = reg.resident().into_iter().map(|(n, _)| n).collect();
        resident.sort();
        assert_eq!(resident, ["a", "c"]);
        assert!(reg.resident_bytes() <= 2 * per + per / 2);
        assert_eq!(reg.stats().evictions, 1);
    }

    #[test]
    fn oversized_single_graph_still_serves() {
        let reg = GraphRegistry::new(1); // absurd budget
        reg.register_graph("big", graph(5));
        let (g, evicted) = reg.get("big").unwrap();
        assert!(g.num_nodes() > 0);
        assert!(evicted.is_empty());
        assert_eq!(reg.stats().resident_graphs, 1);
    }

    #[test]
    fn register_replaces_and_unaccounts() {
        let reg = GraphRegistry::new(0);
        reg.register_graph("x", graph(1));
        let (first, _) = reg.get("x").unwrap();
        let bytes = reg.resident_bytes();
        assert!(bytes > 0);
        reg.register_graph("x", graph(2));
        assert_eq!(reg.resident_bytes(), 0, "replacement evicts");
        let (second, _) = reg.get("x").unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn multi_engine_routes_and_counts_per_graph() {
        let me = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            max_resident_bytes: 0,
            ..MultiEngineConfig::default()
        });
        me.registry().register_graph("g1", graph(7));
        me.registry().register_graph("g2", graph(8));
        let r1 = me.query("g1", QueryRequest::new(3)).unwrap();
        let r2 = me.query("g2", QueryRequest::new(3)).unwrap();
        // Same seed, different graphs: both are misses (fingerprint keys
        // keep them apart in the shared cache) and generally differ.
        assert_eq!(r1.outcome, CacheOutcome::Miss);
        assert_eq!(r2.outcome, CacheOutcome::Miss);
        let hit = me.query("g1", QueryRequest::new(3)).unwrap();
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        assert!(hit.result.bitwise_eq(&r1.result));
        let stats = me.per_graph_stats();
        assert_eq!(stats.len(), 2);
        let g1 = &stats.iter().find(|(n, _)| n == "g1").unwrap().1;
        assert_eq!((g1.hits, g1.misses, g1.errors), (1, 1, 0));
        assert_eq!((g1.coalesced, g1.admission_rejections), (0, 0));
        assert!(matches!(
            me.query("absent", QueryRequest::new(0)),
            Err(ServeError::UnknownGraph(_))
        ));
        let absent = &me
            .per_graph_stats()
            .into_iter()
            .find(|(n, _)| n == "absent")
            .unwrap()
            .1;
        assert_eq!(absent.errors, 1);
    }

    #[test]
    fn loading_wait_is_bounded_by_the_deadline() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let reg = Arc::new(GraphRegistry::new(0));
        let loading = Arc::new(AtomicBool::new(false));
        {
            let loading = Arc::clone(&loading);
            reg.register("slow", move || {
                loading.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(250));
                Ok(graph(61))
            });
        }
        let leader = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.get("slow").map(|(g, _)| g))
        };
        // Wait until the leader is inside the loader (the entry is
        // marked Loading before the loader runs).
        while !loading.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A follower whose deadline lands mid-load must report
        // DeadlineExceeded at its deadline, not sleep out the load.
        let waited = Instant::now();
        let out = reg.get_within("slow", Some(Instant::now() + Duration::from_millis(40)));
        let elapsed = waited.elapsed();
        assert!(
            matches!(out, Err(ServeError::DeadlineExceeded { .. })),
            "expected DeadlineExceeded, got {out:?}"
        );
        assert!(
            elapsed < Duration::from_millis(200),
            "follower slept {elapsed:?} behind a 250ms load"
        );
        // The leader's load is unaffected, and the graph then serves.
        let g = leader.join().unwrap().unwrap();
        let (again, _) = reg.get("slow").unwrap();
        assert!(Arc::ptr_eq(&again, &g));
    }

    #[test]
    fn deadline_query_does_not_sleep_behind_a_slow_load() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let me = Arc::new(MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            max_resident_bytes: 0,
            ..MultiEngineConfig::default()
        }));
        let loading = Arc::new(AtomicBool::new(false));
        {
            let loading = Arc::clone(&loading);
            me.registry().register("slow", move || {
                loading.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(250));
                Ok(graph(62))
            });
        }
        let leader = {
            let me = Arc::clone(&me);
            std::thread::spawn(move || me.query("slow", QueryRequest::new(1)))
        };
        while !loading.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waited = Instant::now();
        let out = me.query(
            "slow",
            QueryRequest::new(2).deadline_in(Duration::from_millis(40)),
        );
        let elapsed = waited.elapsed();
        assert!(
            matches!(out, Err(ServeError::DeadlineExceeded { .. })),
            "expected DeadlineExceeded, got {out:?}"
        );
        assert!(
            elapsed < Duration::from_millis(200),
            "deadline query slept {elapsed:?} behind the load"
        );
        // The deadline-free leader completes normally once loaded.
        assert!(leader.join().unwrap().is_ok());
    }

    #[test]
    fn panicking_loader_does_not_wedge_the_entry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let reg = GraphRegistry::new(0);
        let fail_once = Arc::new(AtomicBool::new(true));
        {
            let fail_once = Arc::clone(&fail_once);
            reg.register("flaky", move || {
                if fail_once.swap(false, Ordering::SeqCst) {
                    panic!("synthetic loader panic");
                }
                Ok(graph(21))
            });
        }
        // The panic propagates to the caller…
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.get("flaky")));
        assert!(unwound.is_err());
        // …but the entry is reset to Empty, so a retry loads normally and
        // other registry calls (register's wait-out loop) don't deadlock.
        let (g, _) = reg.get("flaky").unwrap();
        assert!(g.num_nodes() > 0);
        assert_eq!(reg.stats().loads, 1);
    }

    #[test]
    fn explicit_eviction_releases_the_front_and_its_pin() {
        let g1 = graph(31);
        let me = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            max_resident_bytes: 0,
            ..MultiEngineConfig::default()
        });
        me.registry().register_graph("g1", Arc::clone(&g1));
        me.registry().register_graph("g2", graph(32));
        me.query("g1", QueryRequest::new(1)).unwrap();
        me.query("g2", QueryRequest::new(1)).unwrap();
        assert_eq!(me.fronts.lock().unwrap().len(), 2);
        // An *explicit* eviction (no front_for call involved) must still
        // release g1's front — the reconcile happens on the next routing
        // call for any graph.
        assert!(me.registry().evict("g1"));
        me.query("g2", QueryRequest::new(2)).unwrap();
        {
            let fronts = me.fronts.lock().unwrap();
            assert_eq!(fronts.len(), 1, "evicted graph's front released");
            assert!(!fronts.contains_key("g1"));
        }
        // And g1 still serves after a reload.
        let r = me.query("g1", QueryRequest::new(1)).unwrap();
        assert!(!r.result.cluster.is_empty());
        assert_eq!(me.fronts.lock().unwrap().len(), 2);
    }

    #[test]
    fn one_shared_pool_spans_all_graphs() {
        // Three hot graphs, two workers: the service runs exactly two
        // worker threads (plus the watchdog), not pools x graphs.
        let me = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            max_resident_bytes: 0,
            ..MultiEngineConfig::default()
        });
        for (name, seed) in [("a", 41), ("b", 42), ("c", 43)] {
            me.registry().register_graph(name, graph(seed));
        }
        for name in ["a", "b", "c"] {
            let r = me.query(name, QueryRequest::new(3)).unwrap();
            assert!(!r.result.cluster.is_empty());
        }
        let stats = me.stats();
        assert_eq!(stats.workers, 2, "one pool, host-sized");
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn admission_quota_rejections_are_per_graph() {
        use hk_cluster::Method;
        let me = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                per_graph_queue: 1,
                max_queue: 16,
                cache_bytes: 0,
                ..EngineConfig::default()
            },
            max_resident_bytes: 0,
            ..MultiEngineConfig::default()
        });
        me.registry().register_graph("hog", graph(51));
        me.registry().register_graph("calm", graph(52));
        // Occupy the single worker with a slow query so later submits
        // stay queued.
        // delta = 1e-8 inflates the published Monte-Carlo walk count so
        // the cap binds and the query reliably outlives the submits.
        let slow = me
            .submit(
                "hog",
                QueryRequest::new(0)
                    .method(Method::MonteCarlo {
                        max_walks: Some(2_000_000),
                    })
                    .knobs(crate::Knobs {
                        delta: Some(1e-8),
                        ..Default::default()
                    }),
            )
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // One queued request fits hog's quota; the next is rejected —
        // while calm still admits.
        let queued = me.submit("hog", QueryRequest::new(1)).unwrap();
        let rejected = me.submit("hog", QueryRequest::new(2));
        assert!(matches!(rejected, Err(ServeError::Overloaded { .. })));
        let calm = me.submit("calm", QueryRequest::new(1)).unwrap();
        for t in [slow, queued, calm] {
            t.wait().unwrap();
        }
        let stats = me.per_graph_stats();
        let hog = &stats.iter().find(|(n, _)| n == "hog").unwrap().1;
        let calm = &stats.iter().find(|(n, _)| n == "calm").unwrap().1;
        assert_eq!(hog.admission_rejections, 1);
        assert_eq!(calm.admission_rejections, 0);
        assert_eq!(me.stats().shed_overload, 1);
    }

    #[test]
    fn every_front_of_a_graph_carries_its_fingerprint() {
        // `GraphFront::new` is handed the fingerprint (recorded, or one
        // O(n + m) hash per front, never two). The front and the graph
        // must agree, and the answer served under that key must be the
        // reference path's at the front's canonical params.
        let g = graph(21);
        let me = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            ..MultiEngineConfig::default()
        });
        me.registry().register_graph("g", Arc::clone(&g));
        let front = me.front_for("g", None).unwrap();
        assert_eq!(front.fingerprint(), g.fingerprint());
        let cold = me.query("g", QueryRequest::new(4)).unwrap();
        assert_eq!(cold.outcome, CacheOutcome::Miss);

        let (params, _) = front.canonical_params(&crate::Knobs::default()).unwrap();
        let clusterer = hk_cluster::LocalClusterer::new(&g);
        let batch = crate::run_batch(&clusterer, hk_cluster::Method::TeaPlus, &[4], &params, 0, 1);
        assert!(cold.result.bitwise_eq(batch[0].as_ref().unwrap()));
    }

    #[test]
    fn only_snapshots_without_a_recorded_fingerprint_are_hashed() {
        let g = graph(23);
        let dir = std::env::temp_dir().join(format!("hk_registry_fp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v2 = dir.join("g.v2.hkg");
        io::save_binary_v2(&g, &v2).unwrap();
        let me = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            ..MultiEngineConfig::default()
        });
        me.registry().register_path("v2", &v2);
        me.registry().register_graph("owned", Arc::clone(&g));
        me.registry().register_graph(
            "copy",
            Arc::new(io::load_binary(&v2).unwrap().to_owned_backend()),
        );
        let counted = || {
            let s = me.registry().stats();
            (s.fingerprints_computed, s.fingerprint_ns > 0)
        };
        assert_eq!(counted(), (0, false));
        // A `save_binary_v2` image hands its recorded value over, front
        // after front: nothing is hashed.
        for _ in 0..2 {
            assert_eq!(
                me.front_for("v2", None).unwrap().fingerprint(),
                g.fingerprint()
            );
            assert!(me.registry().evict("v2"));
        }
        assert_eq!(counted(), (0, false));
        // Owned graphs — built, or detached from a snapshot — hash once
        // per front.
        let mut want = 0;
        for name in ["owned", "copy", "owned"] {
            assert_eq!(
                me.front_for(name, None).unwrap().fingerprint(),
                g.fingerprint()
            );
            // The same resident snapshot keeps its front.
            me.front_for(name, None).unwrap();
            want += 1;
            assert_eq!(me.registry().stats().fingerprints_computed, want);
            assert!(me.registry().evict(name));
        }
        assert!(counted().1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_survives_evict_reload_cycle() {
        let g = graph(11);
        let per = g.memory_bytes();
        let me = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            // Budget below two graphs: loading the second evicts the first.
            max_resident_bytes: per + per / 2,
            ..MultiEngineConfig::default()
        });
        me.registry().register_graph("a", Arc::clone(&g));
        me.registry().register_graph("b", graph(12));
        let cold = me.query("a", QueryRequest::new(5)).unwrap();
        assert_eq!(cold.outcome, CacheOutcome::Miss);
        // Force a's eviction by touching b.
        me.query("b", QueryRequest::new(5)).unwrap();
        assert_eq!(me.registry().stats().evictions, 1);
        // a reloads — and its cached result is still a *hit*, because the
        // reloaded graph fingerprints identically.
        let warm = me.query("a", QueryRequest::new(5)).unwrap();
        assert_eq!(warm.outcome, CacheOutcome::Hit);
        assert!(warm.result.bitwise_eq(&cold.result));
    }
}
