//! The deadline-aware query scheduler: one shared worker pool, an
//! earliest-deadline-first queue with per-graph admission quotas, a
//! cancellable execution pipeline and the cached fast path.
//!
//! # Architecture
//!
//! A `Scheduler` owns a fixed pool of worker threads sized to the host
//! (not to the number of graphs — a multi-graph [`crate::MultiEngine`]
//! runs **one** pool across all resident graphs). Each worker owns one
//! long-lived [`QueryScratch`] — the dense epoch-stamped workspace from
//! `hkpr-core` plus the sweep buffers — so steady-state serving performs
//! no per-query allocation in the estimator hot path. The scratch is
//! graph-agnostic (epoch-reset and re-sized per query), which is what
//! lets one pool serve every graph.
//!
//! Jobs carry `(graph, deadline, enqueue sequence)` and are popped
//! **earliest-deadline-first** from a binary-heap queue
//! (`DeadlineQueue`): requests with deadlines run in deadline order,
//! deadline-free requests run FIFO after them. Admission is bounded twice
//! — a total queue bound ([`EngineConfig::max_queue`]) and a per-graph
//! quota ([`EngineConfig::per_graph_queue`]) so no single graph's burst
//! can occupy the whole queue and starve the others.
//!
//! # Deadlines and cancellation
//!
//! A request's deadline is enforced at three points:
//!
//! 1. **submit** — an already-expired request is shed immediately;
//! 2. **dequeue** — a worker re-checks the deadline before spending
//!    anything on the job ([`EngineStats::shed_queued`]);
//! 3. **during execution** — the job's [`CancelToken`] is registered with
//!    the scheduler's deadline watchdog thread, which fires it the moment
//!    the deadline passes; the estimators poll the token at hop/chunk
//!    boundaries (a relaxed atomic load) and abort with a typed
//!    [`ServeError::Cancelled`] ([`EngineStats::cancelled_running`]).
//!    Cancellation never corrupts worker state — scratch is epoch-reset
//!    at the start of every query (property-tested in `hkpr-core`).
//!
//! # Determinism
//!
//! The engine inherits the workspace layer's bit-identical RNG-stream
//! scheme: a query's result is a pure function of
//! `(graph, method, canonical params, seed, rng_seed)` — independent of
//! which worker runs it, in what order the EDF queue popped it, and the
//! pool size. That is what makes caching *and* single-flight coalescing
//! sound: a cached hit, a coalesced follower and a cold recomputation are
//! byte-equal ([`ClusterResult::bitwise_eq`]), which the property suite
//! in `tests/engine_props.rs` and the golden conformance suite verify.
//!
//! # Single-flight misses
//!
//! Concurrent requests with the same canonical cache key block on one
//! computation (see [`crate::cache`]): the first miss leads, the rest
//! coalesce and receive the identical bytes. Followers share the flight's
//! fate — if the leader is shed or cancelled, they receive that error.
//!
//! # One scheduler, two entry modes
//!
//! [`run_batch`] runs the *same* `execute` core as
//! the scheduler's workers, on scoped threads over a one-shot work list
//! (no cache, no deadlines). The persistent and batch paths therefore
//! cannot drift: every query, in either mode, executes
//! `estimate_anytime_in` + `sweep_in` on a per-worker scratch with a
//! per-request RNG stream.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hk_cluster::{ClusterResult, LocalClusterer, Method, QueryScratch};
use hk_graph::{Graph, NodeId};
use hkpr_core::fxhash::{FxHashMap, FxHasher};
use hkpr_core::{AccuracyTier, AnytimeControls, CancelToken, HkprError, HkprParams};

use crate::cache::{
    CacheKey, CacheStats, FlightClaim, FlightResult, MethodKey, ParamsKey, ResultCache,
};

/// Typed serving errors — the engine's answer to overload, lateness and
/// cancellation, distinct from the estimator's own [`HkprError`]s.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The work queue (total bound or the graph's admission quota) is
    /// full; the request was rejected at submit time.
    Overloaded {
        /// Queue length observed at rejection (total or per-graph,
        /// whichever bound fired).
        queue_len: usize,
        /// The bound that fired.
        limit: usize,
    },
    /// The request's deadline passed before a worker could start it (or
    /// before it was submitted).
    DeadlineExceeded {
        /// How far past the deadline the request was when shed.
        late_by: Duration,
    },
    /// The request started executing, its deadline passed mid-run, and
    /// the cancellation caught the query **before any accuracy tier
    /// completed** — there was nothing usable to return. (A cancellation
    /// that lands after at least one tier returns `Ok` with
    /// [`QueryResponse::degraded`] set instead; callers that previously
    /// matched `Cancelled` for every mid-run deadline should now handle
    /// both.)
    Cancelled {
        /// How long the query ran before the cancellation took effect.
        after: Duration,
    },
    /// The estimator rejected the query (bad seed, bad parameters).
    Query(HkprError),
    /// The engine shut down while the request was in flight.
    Disconnected,
    /// The request named a graph no registry entry exists for.
    UnknownGraph(String),
    /// Loading the named graph's snapshot failed (I/O, corruption…).
    /// Carries the rendered [`hk_graph::GraphError`] — the source error
    /// is not `Clone`, and shed/retry logic only needs the text.
    GraphLoad {
        /// Registry name of the graph.
        graph: String,
        /// Rendered load error.
        error: String,
    },
    /// The worker executing the request panicked (estimator bug, cache
    /// bug, injected fault…). The panic is contained: the worker rebuilds
    /// its scratch and keeps serving, coalesced followers receive this
    /// same error, and [`EngineStats::panics`] counts the event.
    Internal {
        /// Rendered panic payload.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_len, limit } => {
                write!(f, "engine overloaded: {queue_len} queued (limit {limit})")
            }
            ServeError::DeadlineExceeded { late_by } => {
                write!(f, "deadline exceeded by {late_by:?}")
            }
            ServeError::Cancelled { after } => {
                write!(
                    f,
                    "query cancelled after {after:?} (deadline passed mid-run)"
                )
            }
            ServeError::Query(e) => write!(f, "query error: {e}"),
            ServeError::Disconnected => write!(f, "engine shut down"),
            ServeError::UnknownGraph(name) => write!(f, "unknown graph {name:?}"),
            ServeError::GraphLoad { graph, error } => {
                write!(f, "loading graph {graph:?} failed: {error}")
            }
            ServeError::Internal { detail } => {
                write!(f, "internal error: worker panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HkprError> for ServeError {
    fn from(e: HkprError) -> Self {
        ServeError::Query(e)
    }
}

/// User-facing accuracy knobs of a request; quantized into the cache key
/// and canonicalized before computing (see [`crate::cache`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Knobs {
    /// Heat constant `t` (paper default 5).
    pub t: f64,
    /// Relative error threshold `eps_r` (paper default 0.5).
    pub eps_r: f64,
    /// Normalized-HKPR threshold `delta`; `None` = the paper's `1/n`.
    pub delta: Option<f64>,
    /// Failure probability `p_f` (paper default 1e-6).
    pub p_f: f64,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            t: 5.0,
            eps_r: 0.5,
            delta: None,
            p_f: 1e-6,
        }
    }
}

/// One clustering query.
#[derive(Clone, Copy, Debug)]
pub struct QueryRequest {
    /// Seed node.
    pub seed: NodeId,
    /// Estimator powering the query.
    pub method: Method,
    /// Accuracy knobs.
    pub knobs: Knobs,
    /// RNG stream seed. Part of the cache key: two requests share a cache
    /// entry only if they would compute bit-identical results.
    pub rng_seed: u64,
    /// Optional deadline: the request is shed if it has not started by
    /// then, and cancelled mid-run if it has.
    pub deadline: Option<Instant>,
}

impl QueryRequest {
    /// A TEA+ request with default knobs, RNG stream 0 and no deadline.
    pub fn new(seed: NodeId) -> QueryRequest {
        QueryRequest {
            seed,
            method: Method::TeaPlus,
            knobs: Knobs::default(),
            rng_seed: 0,
            deadline: None,
        }
    }

    /// Set the estimator.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Set the accuracy knobs.
    pub fn knobs(mut self, knobs: Knobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Set the RNG stream seed.
    pub fn rng_seed(mut self, rng_seed: u64) -> Self {
        self.rng_seed = rng_seed;
        self
    }

    /// Give this request `d` from now: shed it if it has not started by
    /// then, cancel it mid-run if it has (EDF scheduling runs urgent
    /// requests first, so a deadline also *raises priority*).
    pub fn deadline_in(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }
}

/// How the cache treated a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache without touching a worker.
    Hit,
    /// Computed by a worker and inserted.
    Miss,
    /// Coalesced onto a concurrent identical miss (single-flight): the
    /// bytes are the leader's, no extra compute happened.
    Coalesced,
    /// Served from the hub store: the answer was precomputed in the
    /// background at registry load time for a top-degree seed and is
    /// bit-identical to what a cold recomputation would produce (see
    /// [`crate::hub`]).
    Precomputed,
    /// Not cached: the engine runs without a cache, the batch path, or
    /// the answer is degraded (only full-accuracy results are cached).
    Uncached,
}

/// Wall-clock breakdown of one query, nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryTiming {
    /// Time between submit and a worker dequeuing the request.
    pub queue_ns: u64,
    /// Estimator push phase (0 for cache hits and non-workspace methods).
    pub push_ns: u64,
    /// Estimator walk phase, incl. residue reduction and assembly
    /// (0 for cache hits and non-workspace methods).
    pub walk_ns: u64,
    /// Whole phase one (`estimate_in`), as timed by the worker.
    pub estimate_ns: u64,
    /// Phase two (`sweep_in`).
    pub sweep_ns: u64,
    /// Submit-to-reply total.
    pub total_ns: u64,
}

/// Marker on an answer whose refinement was cut short by the deadline
/// watchdog: the result is an exactly-normalized, unbiased estimate at
/// the best accuracy tier completed before cancellation — not the
/// requested accuracy. Degraded answers are never cached (the cache only
/// stores full-accuracy results), so a retry without a deadline
/// recomputes at full accuracy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Degraded {
    /// How far the tier ladder got (walks done vs planned, achieved
    /// `eps_r` vs requested).
    pub achieved: AccuracyTier,
    /// How long the query ran before refinement stopped.
    pub after: Duration,
}

/// A completed query: the (possibly shared) result plus telemetry.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The cluster. Shared with the cache on hits, misses and coalesced
    /// followers.
    pub result: Arc<ClusterResult>,
    /// Cache treatment.
    pub outcome: CacheOutcome,
    /// `Some` iff the deadline watchdog stopped refinement early and this
    /// answer is best-effort rather than full-accuracy (see [`Degraded`]).
    pub degraded: Option<Degraded>,
    /// Per-phase timings (hits and coalesced followers only fill
    /// `total_ns`).
    pub timing: QueryTiming,
}

/// Aggregate scheduler counters (monotonic since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries completed at full accuracy (misses + uncached; hits,
    /// coalesced followers and degraded answers excluded).
    pub completed: u64,
    /// Queries that returned an estimator error.
    pub errors: u64,
    /// Requests shed because their deadline passed before execution
    /// started (at submit or at dequeue).
    pub shed_queued: u64,
    /// Requests cancelled *mid-execution* by the deadline watchdog
    /// **before any accuracy tier completed** — nothing usable to return.
    /// A mid-run cancellation that caught at least one tier counts in
    /// `degraded` instead.
    pub cancelled_running: u64,
    /// Requests the watchdog stopped mid-refinement that still returned a
    /// typed best-effort answer ([`QueryResponse::degraded`]).
    pub degraded: u64,
    /// Worker panics contained by the panic guard (the request got
    /// [`ServeError::Internal`]; the worker rebuilt its scratch and kept
    /// serving).
    pub panics: u64,
    /// Requests rejected because the queue (total bound or per-graph
    /// quota) was full.
    pub shed_overload: u64,
    /// High-water mark of the queue depth.
    pub queue_hwm: u64,
    /// Worker threads in the (shared) pool.
    pub workers: u64,
    /// Cache counters (all zero when the cache is disabled);
    /// `cache.coalesced` counts single-flight followers.
    pub cache: CacheStats,
}

/// Scheduler sizing and policy. `Default` is a reasonable laptop
/// configuration; servers should set every field explicitly.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads of the pool (cross-query parallelism). In a
    /// [`crate::MultiEngine`] this is the **one shared pool spanning all
    /// graphs** — size it to the host, not to the number of graphs.
    /// Clamped to >= 1.
    pub workers: usize,
    /// Read by nothing: every query's walk phase runs on the worker that
    /// took it. The field stays only because the repo benchmark
    /// (`benchmark/`, frozen between its own revisions) sets it; its next
    /// revision, ROADMAP item 9, removes it.
    pub walk_threads: usize,
    /// Bound on queued (not yet running) requests across all graphs;
    /// submits beyond it fail with [`ServeError::Overloaded`].
    pub max_queue: usize,
    /// Per-graph admission quota: at most this many queued requests per
    /// graph, so one graph's burst cannot starve the others. `0` = auto:
    /// `max(1, max_queue / 4)` in a multi-graph [`crate::MultiEngine`];
    /// the whole `max_queue` in a single-graph [`QueryEngine`] (one graph
    /// cannot starve itself, so no sub-quota applies).
    pub per_graph_queue: usize,
    /// Result-cache budget in bytes; 0 disables caching (and with it
    /// single-flight coalescing).
    pub cache_bytes: usize,
    /// Cache shard count (lock striping for the worker pool).
    pub cache_shards: usize,
    /// TEA+ hop-cap constant `c` applied to every canonical parameter set
    /// (paper recommendation 2.5).
    pub hop_c: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            walk_threads: 1,
            max_queue: 1024,
            per_graph_queue: 0,
            cache_bytes: 32 << 20,
            cache_shards: 16,
            hop_c: 2.5,
        }
    }
}

// ---------------------------------------------------------------------------
// EDF queue with per-graph admission quotas
// ---------------------------------------------------------------------------

/// What [`DeadlineQueue::push`] decided; rejections hand the item back.
pub(crate) enum Admit<T> {
    /// Queued; carries the depth after the push (for the high-water mark).
    Queued(usize),
    /// The total queue bound is full.
    TotalFull(T),
    /// The graph's admission quota is full.
    QuotaFull(T),
}

struct HeapEntry<T> {
    deadline: Option<Instant>,
    /// Enqueue sequence number: FIFO tiebreak, and the total order that
    /// makes heap entries distinguishable.
    seq: u64,
    graph_key: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    /// `BinaryHeap` is a max-heap, so "greater" pops first: greater =
    /// more urgent = earlier deadline (no deadline = infinitely late),
    /// then earlier enqueue sequence.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self.deadline, other.deadline) {
            (None, Some(_)) => return Less,
            (Some(_), None) => return Greater,
            (Some(a), Some(b)) => match b.cmp(&a) {
                Equal => {}
                ord => return ord,
            },
            (None, None) => {}
        }
        other.seq.cmp(&self.seq)
    }
}

/// Earliest-deadline-first priority queue with a total bound and a
/// per-graph admission quota. Deadline-free items run FIFO after every
/// deadlined item — attaching a deadline both bounds *and prioritizes* a
/// request.
pub(crate) struct DeadlineQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    /// Queued items per graph admission key (the quota's denominator).
    per_graph: FxHashMap<u64, usize>,
    seq: u64,
    max_total: usize,
    quota: usize,
}

impl<T> DeadlineQueue<T> {
    pub(crate) fn new(max_total: usize, quota: usize) -> DeadlineQueue<T> {
        DeadlineQueue {
            heap: BinaryHeap::new(),
            per_graph: FxHashMap::default(),
            seq: 0,
            max_total: max_total.max(1),
            quota: quota.clamp(1, max_total.max(1)),
        }
    }

    pub(crate) fn push(&mut self, graph_key: u64, deadline: Option<Instant>, item: T) -> Admit<T> {
        if self.heap.len() >= self.max_total {
            return Admit::TotalFull(item);
        }
        let count = self.per_graph.entry(graph_key).or_insert(0);
        if *count >= self.quota {
            return Admit::QuotaFull(item);
        }
        *count += 1;
        self.seq += 1;
        self.heap.push(HeapEntry {
            deadline,
            seq: self.seq,
            graph_key,
            item,
        });
        Admit::Queued(self.heap.len())
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        let entry = self.heap.pop()?;
        if let Some(count) = self.per_graph.get_mut(&entry.graph_key) {
            *count -= 1;
            if *count == 0 {
                self.per_graph.remove(&entry.graph_key);
            }
        }
        Some(entry.item)
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn total_limit(&self) -> usize {
        self.max_total
    }

    pub(crate) fn quota(&self) -> usize {
        self.quota
    }

    pub(crate) fn queued_for(&self, graph_key: u64) -> usize {
        self.per_graph.get(&graph_key).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Deadline watchdog
// ---------------------------------------------------------------------------

struct WatchEntry {
    at: Instant,
    seq: u64,
    token: CancelToken,
}

impl PartialEq for WatchEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for WatchEntry {}
impl PartialOrd for WatchEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WatchEntry {
    /// Max-heap: greater = earlier `at`, so `peek` is the next deadline.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct WatchState {
    heap: BinaryHeap<WatchEntry>,
    seq: u64,
    shutdown: bool,
    /// Heap size at which [`Watchdog::register`] runs its next
    /// settled-entry purge (re-derived after every purge).
    purge_at: usize,
}

/// Purges run no earlier than this heap size — below it the heap is
/// too small to be worth a sweep.
const WATCHDOG_PURGE_MIN: usize = 64;

/// The deadline watchdog: workers register `(deadline, CancelToken)` of
/// the job they start; one monitor thread sleeps until the earliest
/// registered deadline and fires the expired tokens. Entries of jobs that
/// finish in time fire against a token nobody polls anymore — harmless to
/// *fire*, but not free to *keep*: under high qps with long deadlines the
/// heap would hold every settled job until its deadline lapsed. `register`
/// therefore purges settled entries lazily, detected by token orphaning
/// ([`CancelToken::is_orphaned`]: the job and its workspace dropped their
/// clones, only the heap's remains). Each sweep is O(heap) but the
/// threshold doubles past the surviving size, so the amortized cost per
/// registration is O(1) and the heap stays within a constant factor of
/// the *live* (unsettled) job count.
struct Watchdog {
    state: Mutex<WatchState>,
    bell: Condvar,
}

impl Watchdog {
    fn new() -> Watchdog {
        Watchdog {
            state: Mutex::new(WatchState::default()),
            bell: Condvar::new(),
        }
    }

    fn register(&self, at: Instant, token: CancelToken) {
        let mut state = self.state.lock().unwrap();
        state.seq += 1;
        let seq = state.seq;
        state.heap.push(WatchEntry { at, seq, token });
        if state.heap.len() >= state.purge_at.max(WATCHDOG_PURGE_MIN) {
            state.heap.retain(|e| !e.token.is_orphaned());
            state.purge_at = state.heap.len().saturating_mul(2);
        }
        self.bell.notify_one();
    }

    fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.bell.notify_all();
    }

    fn run(&self) {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            while state.heap.peek().is_some_and(|e| e.at <= now) {
                state.heap.pop().unwrap().token.cancel();
            }
            match state.heap.peek().map(|e| e.at) {
                Some(at) => {
                    let (s, _) = self
                        .bell
                        .wait_timeout(state, at.saturating_duration_since(now))
                        .unwrap();
                    state = s;
                }
                None => state = self.bell.wait(state).unwrap(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Graph front: per-graph request preparation (params canonicalization)
// ---------------------------------------------------------------------------

/// Per-graph serving front: the graph pin plus the canonical-parameter
/// memo table. Cheap (no threads) — the [`crate::MultiEngine`] keeps one
/// per resident graph and drops it on eviction, releasing the pin.
pub(crate) struct GraphFront {
    graph: Arc<Graph>,
    fingerprint: u64,
    /// Key under which the scheduler accounts this graph's queue quota
    /// and admission rejections.
    admission_key: u64,
    hop_c: f64,
    /// Canonical parameter sets, built once per quantized-knob bucket.
    params_table: Mutex<FxHashMap<ParamsKey, Arc<HkprParams>>>,
}

/// Admission key of a registry name (stable across reloads).
pub(crate) fn admission_key_of(name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    name.hash(&mut h);
    h.finish()
}

impl GraphFront {
    /// `fingerprint` is `graph.fingerprint()`, computed by the caller: an
    /// O(n + m) serial hash that a caller who needs the value itself
    /// (the single-graph engine keys admission on it) must not pay twice.
    pub(crate) fn new(
        graph: Arc<Graph>,
        fingerprint: u64,
        admission_key: u64,
        hop_c: f64,
    ) -> GraphFront {
        GraphFront {
            graph,
            fingerprint,
            admission_key,
            hop_c,
            params_table: Mutex::new(FxHashMap::default()),
        }
    }

    pub(crate) fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Resolve a request's knobs to the canonical parameter set of their
    /// quantization bucket (building and memoizing it on first use).
    pub(crate) fn canonical_params(
        &self,
        knobs: &Knobs,
    ) -> Result<(Arc<HkprParams>, ParamsKey), ServeError> {
        let delta = knobs.delta.unwrap_or_else(|| {
            let n = self.graph.num_nodes().max(1);
            1.0 / n as f64
        });
        for (name, v) in [
            ("t", knobs.t),
            ("eps_r", knobs.eps_r),
            ("delta", delta),
            ("p_f", knobs.p_f),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ServeError::Query(HkprError::InvalidParameter(format!(
                    "{name} must be positive and finite, got {v}"
                ))));
            }
        }
        let key = ParamsKey::new(knobs.t, knobs.eps_r, delta, knobs.p_f);
        if let Some(params) = self.params_table.lock().unwrap().get(&key) {
            return Ok((Arc::clone(params), key));
        }
        // Build outside the lock (degree-histogram scan is O(n)); a
        // racing builder of the same bucket produces an identical value.
        let (t, eps_r, delta, p_f) = key.canonical();
        let params = Arc::new(
            HkprParams::builder(&self.graph)
                .t(t)
                .eps_r(eps_r)
                .delta(delta)
                .p_f(p_f)
                .c(self.hop_c)
                .build()
                .map_err(ServeError::Query)?,
        );
        let mut table = self.params_table.lock().unwrap();
        // Knobs are caller-controlled in a multi-tenant engine, so the
        // memo table must not grow unboundedly under a knob sweep. Real
        // deployments use a handful of accuracy levels; past the cap we
        // drop an arbitrary bucket (rebuilding one later costs a single
        // O(n) histogram scan, and outstanding queries keep their Arc).
        const MAX_PARAM_SETS: usize = 64;
        if table.len() >= MAX_PARAM_SETS && !table.contains_key(&key) {
            if let Some(&victim) = table.keys().next() {
                table.remove(&victim);
            }
        }
        let entry = table.entry(key).or_insert_with(|| Arc::clone(&params));
        Ok((Arc::clone(entry), key))
    }
}

// ---------------------------------------------------------------------------
// The shared scheduler
// ---------------------------------------------------------------------------

/// One unit of work on the shared pool.
struct Job {
    graph: Arc<Graph>,
    seed: NodeId,
    method: Method,
    params: Arc<HkprParams>,
    rng_seed: u64,
    deadline: Option<Instant>,
    enqueued: Instant,
    /// `Some` iff the result should be inserted into the cache (and the
    /// key's single-flight settled).
    cache_key: Option<CacheKey>,
    /// Fired by the deadline watchdog; polled by the estimators.
    cancel: CancelToken,
    reply: mpsc::Sender<Result<QueryResponse, ServeError>>,
}

struct SchedQueue {
    q: DeadlineQueue<Job>,
    /// False once no further job will ever arrive; idle workers exit.
    open: bool,
}

/// State shared between submitters, workers and the watchdog.
struct SchedShared {
    queue: Mutex<SchedQueue>,
    available: Condvar,
    /// `Arc` so a multi-graph front hands every graph one cache (keys
    /// carry the graph fingerprint, so sharing is collision-free).
    cache: Option<Arc<ResultCache>>,
    watchdog: Watchdog,
    completed: AtomicU64,
    errors: AtomicU64,
    shed_queued: AtomicU64,
    cancelled_running: AtomicU64,
    degraded: AtomicU64,
    panics: AtomicU64,
    shed_overload: AtomicU64,
    queue_hwm: AtomicU64,
    /// Per-graph admission-quota rejections, by admission key.
    admission: Mutex<FxHashMap<u64, u64>>,
    worker_count: usize,
}

impl SchedShared {
    fn close(&self) {
        self.queue.lock().unwrap().open = false;
        self.available.notify_all();
    }

    /// Broadcast a terminal error to the job's coalesced followers.
    fn settle_err(&self, job: &Job, err: &ServeError) {
        if let (Some(cache), Some(key)) = (&self.cache, &job.cache_key) {
            cache.settle_flight(key, Err(err.clone()));
        }
    }
}

/// The shared deadline-aware worker pool. See the [module docs](self).
/// `QueryEngine` wraps one around a single graph; `MultiEngine` shares
/// one across every resident graph.
pub(crate) struct Scheduler {
    shared: Arc<SchedShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Build the pool. `auto_quota` resolves `per_graph_queue == 0`:
    /// single-graph engines pass `max_queue` (no sub-quota), the
    /// multi-graph front passes `max(1, max_queue / 4)`.
    pub(crate) fn new(
        config: EngineConfig,
        cache: Option<Arc<ResultCache>>,
        auto_quota: usize,
    ) -> Scheduler {
        let worker_count = config.workers.max(1);
        let max_queue = config.max_queue.max(1);
        let quota = if config.per_graph_queue == 0 {
            auto_quota.max(1)
        } else {
            config.per_graph_queue
        };
        let shared = Arc::new(SchedShared {
            queue: Mutex::new(SchedQueue {
                q: DeadlineQueue::new(max_queue, quota),
                open: true,
            }),
            available: Condvar::new(),
            cache,
            watchdog: Watchdog::new(),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed_queued: AtomicU64::new(0),
            cancelled_running: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            admission: Mutex::new(FxHashMap::default()),
            worker_count,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hk-serve-{i}"))
                    .spawn(move || {
                        let mut scratch = QueryScratch::new();
                        worker_loop(&shared, &mut scratch);
                    })
                    .expect("spawn hk-serve worker")
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hk-serve-watchdog".into())
                .spawn(move || shared.watchdog.run())
                .expect("spawn hk-serve watchdog")
        };
        Scheduler {
            shared,
            workers,
            watchdog: Some(watchdog),
        }
    }

    pub(crate) fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.shared.cache.as_ref()
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.shared.worker_count
    }

    /// Worker threads still running. Workers only exit when the queue
    /// closes (shutdown) — the panic guard contains per-job panics — so
    /// a healthy pool reports `worker_count()`; anything less means
    /// worker threads died outright and the pool is degraded. Health
    /// endpoints surface this as scheduler liveness.
    pub(crate) fn live_workers(&self) -> usize {
        self.workers.iter().filter(|h| !h.is_finished()).count()
    }

    /// Quota rejections charged to one graph's admission key.
    pub(crate) fn admission_rejections(&self, admission_key: u64) -> u64 {
        self.shared
            .admission
            .lock()
            .unwrap()
            .get(&admission_key)
            .copied()
            .unwrap_or(0)
    }

    pub(crate) fn stats(&self) -> EngineStats {
        let shared = &self.shared;
        EngineStats {
            completed: shared.completed.load(Ordering::Relaxed),
            errors: shared.errors.load(Ordering::Relaxed),
            shed_queued: shared.shed_queued.load(Ordering::Relaxed),
            cancelled_running: shared.cancelled_running.load(Ordering::Relaxed),
            degraded: shared.degraded.load(Ordering::Relaxed),
            panics: shared.panics.load(Ordering::Relaxed),
            shed_overload: shared.shed_overload.load(Ordering::Relaxed),
            queue_hwm: shared.queue_hwm.load(Ordering::Relaxed),
            workers: shared.worker_count as u64,
            cache: shared.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
        }
    }

    /// [`Scheduler::submit_with_hubs`] without a hub store.
    pub(crate) fn submit(
        &self,
        front: &GraphFront,
        req: QueryRequest,
    ) -> Result<Ticket, ServeError> {
        self.submit_with_hubs(front, req, None)
    }

    /// The full submit pipeline: deadline pre-check, canonicalization,
    /// hub-store probe, cache probe, single-flight claim, EDF admission.
    pub(crate) fn submit_with_hubs(
        &self,
        front: &GraphFront,
        req: QueryRequest,
        hubs: Option<&crate::hub::HubStore>,
    ) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let submitted = Instant::now();
        // An already-expired request is dead on arrival — shed before
        // spending anything on it, including the cache probe (a probe
        // would skew hit/miss accounting for requests nobody awaits).
        if let Some(deadline) = req.deadline {
            if submitted > deadline {
                shared.shed_queued.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded {
                    late_by: submitted - deadline,
                });
            }
        }
        let (params, params_key) = front.canonical_params(&req.knobs)?;
        let key = CacheKey {
            fingerprint: front.fingerprint,
            seed: req.seed,
            rng_seed: req.rng_seed,
            params: params_key,
            method: MethodKey::new(req.method),
        };
        // Hub store before the cache: precomputed answers are pinned (the
        // cache may have evicted them) and counted separately, so the
        // cold-start benefit is observable. Same key type — an exact
        // match carries the full bitwise-identity guarantee.
        if let Some(hubs) = hubs {
            if let Some(result) = hubs.lookup(&key) {
                return Ok(Ticket {
                    inner: TicketInner::Ready(Box::new(Ok(QueryResponse {
                        result,
                        outcome: CacheOutcome::Precomputed,
                        degraded: None,
                        timing: QueryTiming {
                            total_ns: submitted.elapsed().as_nanos() as u64,
                            ..QueryTiming::default()
                        },
                    }))),
                });
            }
        }
        if let Some(cache) = &shared.cache {
            if let Some(hit) = cache.get(&key) {
                return Ok(Ticket {
                    inner: TicketInner::Ready(Box::new(Ok(QueryResponse {
                        result: hit,
                        outcome: CacheOutcome::Hit,
                        degraded: None,
                        timing: QueryTiming {
                            total_ns: submitted.elapsed().as_nanos() as u64,
                            ..QueryTiming::default()
                        },
                    }))),
                });
            }
            // Single-flight: coalesce onto an identical in-flight miss.
            match cache.claim_flight(key) {
                FlightClaim::Follower(rx) => {
                    return Ok(Ticket {
                        inner: TicketInner::Flight {
                            rx,
                            submitted,
                            deadline: req.deadline,
                        },
                    })
                }
                FlightClaim::Leader => {
                    // The previous leader may have inserted + settled
                    // between our probe and the claim; re-probe so a
                    // cached key is never recomputed ("coalesce or hit,
                    // never recompute"). Settle the just-opened flight so
                    // any instant followers get the bytes too.
                    if let Some(hit) = cache.get(&key) {
                        cache.settle_flight(&key, Ok((Arc::clone(&hit), None)));
                        return Ok(Ticket {
                            inner: TicketInner::Ready(Box::new(Ok(QueryResponse {
                                result: hit,
                                outcome: CacheOutcome::Hit,
                                degraded: None,
                                timing: QueryTiming {
                                    total_ns: submitted.elapsed().as_nanos() as u64,
                                    ..QueryTiming::default()
                                },
                            }))),
                        });
                    }
                }
            }
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            graph: Arc::clone(&front.graph),
            seed: req.seed,
            method: req.method,
            params,
            rng_seed: req.rng_seed,
            deadline: req.deadline,
            enqueued: submitted,
            cache_key: shared.cache.is_some().then_some(key),
            cancel: CancelToken::new(),
            reply: tx,
        };
        let admission_key = front.admission_key;
        let admit = {
            let mut q = shared.queue.lock().unwrap();
            q.q.push(admission_key, req.deadline, job)
        };
        match admit {
            Admit::Queued(depth) => {
                shared.queue_hwm.fetch_max(depth as u64, Ordering::Relaxed);
                shared.available.notify_one();
                Ok(Ticket {
                    inner: TicketInner::Pending(rx),
                })
            }
            Admit::TotalFull(job) => {
                let (queue_len, limit) = {
                    let q = shared.queue.lock().unwrap();
                    (q.q.len(), q.q.total_limit())
                };
                let err = ServeError::Overloaded { queue_len, limit };
                shared.shed_overload.fetch_add(1, Ordering::Relaxed);
                shared.settle_err(&job, &err);
                Err(err)
            }
            Admit::QuotaFull(job) => {
                let (queue_len, limit) = {
                    let q = shared.queue.lock().unwrap();
                    (q.q.queued_for(admission_key), q.q.quota())
                };
                let err = ServeError::Overloaded { queue_len, limit };
                shared.shed_overload.fetch_add(1, Ordering::Relaxed);
                *shared
                    .admission
                    .lock()
                    .unwrap()
                    .entry(admission_key)
                    .or_insert(0) += 1;
                shared.settle_err(&job, &err);
                Err(err)
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // Close the queue: workers drain every queued job (replies and
        // flight settlements delivered), then exit and join.
        self.shared.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.watchdog.shutdown();
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.shared.worker_count)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Render a panic payload for [`ServeError::Internal`].
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pull jobs (earliest deadline first) until the queue is closed *and*
/// drained.
///
/// Each job runs under a panic guard: a panic anywhere in [`process`]
/// (estimator bug, cache bug, injected fault) is contained here — the
/// requester gets a typed [`ServeError::Internal`], any coalesced
/// followers get the same via flight settlement, the worker rebuilds its
/// scratch (the unwound one may hold half-updated epochs) and keeps
/// serving. A panicking query must never take the pool down with it.
fn worker_loop(shared: &SchedShared, scratch: &mut QueryScratch) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.q.pop() {
                    break Some(job);
                }
                if !q.open {
                    break None;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        match job {
            Some(job) => {
                let reply = job.reply.clone();
                let cache_key = job.cache_key;
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    process(shared, scratch, job)
                }));
                if let Err(payload) = unwound {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    *scratch = QueryScratch::new();
                    let err = ServeError::Internal {
                        detail: panic_detail(payload),
                    };
                    if let (Some(cache), Some(key)) = (&shared.cache, &cache_key) {
                        cache.settle_flight(key, Err(err.clone()));
                    }
                    let _ = reply.send(Err(err));
                }
            }
            None => return,
        }
    }
}

/// The execution core the scheduler's workers, [`run_batch`] and the hub
/// build all share: phase one (`estimate_anytime_in`, the tiered
/// refinement path, so a mid-run cancellation means "stop refining", not
/// "discard everything") + phase two (`sweep_in`) on a reusable scratch.
/// Cancellation, if armed, rides on the token installed in
/// `scratch.workspace`; `controls` carries the caller's ladder observer.
/// With neither, the returned tier is never degraded. The returned timing
/// holds the per-phase split; queue and total are the caller's to add.
pub(crate) fn execute(
    clusterer: &LocalClusterer<'_>,
    scratch: &mut QueryScratch,
    seed: NodeId,
    method: Method,
    params: &HkprParams,
    rng_seed: u64,
    controls: AnytimeControls<'_>,
) -> Result<(ClusterResult, Option<AccuracyTier>, QueryTiming), HkprError> {
    let started = Instant::now();
    scratch.workspace.clear_phase_times();
    let (estimate, stats, achieved) = clusterer.estimate_anytime_in(
        method,
        seed,
        params,
        rng_seed,
        controls,
        &mut scratch.workspace,
    )?;
    let estimate_done = Instant::now();
    let phases = scratch.workspace.last_phase_times();
    let result = clusterer.sweep_in(seed, estimate, stats, scratch);
    Ok((
        result,
        achieved,
        QueryTiming {
            push_ns: phases.push_ns,
            walk_ns: phases.walk_ns,
            estimate_ns: (estimate_done - started).as_nanos() as u64,
            sweep_ns: estimate_done.elapsed().as_nanos() as u64,
            ..QueryTiming::default()
        },
    ))
}

/// Execute one job on a worker's scratch: deadline re-check, watchdog
/// arming, the [`execute`] core, cache insert + flight
/// settlement, reply. A job the watchdog cancelled after at least one
/// accuracy tier completed — a certified push tier *or* a walk tier —
/// still returns a typed best-effort answer
/// ([`QueryResponse::degraded`]); only a cancellation that caught nothing
/// usable (before the push certified its first coarsened tier) reports
/// [`ServeError::Cancelled`].
fn process(shared: &SchedShared, scratch: &mut QueryScratch, job: Job) {
    let started = Instant::now();
    let queue_ns = started.saturating_duration_since(job.enqueued).as_nanos() as u64;
    #[cfg(feature = "testing")]
    if let Err(detail) = crate::fault::fire("sched.dequeue") {
        let err = ServeError::Internal { detail };
        shared.settle_err(&job, &err);
        let _ = job.reply.send(Err(err));
        return;
    }
    if let Some(deadline) = job.deadline {
        // Re-check immediately before execution: the request may have
        // expired while queued.
        if started > deadline {
            shared.shed_queued.fetch_add(1, Ordering::Relaxed);
            let err = ServeError::DeadlineExceeded {
                late_by: started - deadline,
            };
            shared.settle_err(&job, &err);
            let _ = job.reply.send(Err(err));
            return;
        }
        // Arm the watchdog: if the deadline passes mid-run, the token
        // fires and the estimator aborts at the next hop/chunk boundary.
        shared.watchdog.register(deadline, job.cancel.clone());
    }
    scratch.workspace.set_cancel_token(Some(job.cancel.clone()));
    let clusterer = LocalClusterer::new(&job.graph);
    // The `core.push_tier` failpoint rides the push-ladder observer of
    // worker queries only (never `run_batch` or hub builds): an injected
    // Error cancels refinement at the certifying hop boundary (→ typed
    // degraded answer), an injected Panic unwinds into the worker's
    // containment, a Delay holds the push at the boundary long enough
    // for the deadline watchdog to fire deterministically.
    #[cfg(feature = "testing")]
    let mut on_push_tier = |_tier: u32| -> Result<(), HkprError> {
        crate::fault::fire("core.push_tier").map_err(|_| HkprError::Cancelled)
    };
    let controls = AnytimeControls {
        #[cfg(feature = "testing")]
        on_push_tier: Some(&mut on_push_tier),
        ..Default::default()
    };
    let outcome = execute(
        &clusterer,
        scratch,
        job.seed,
        job.method,
        &job.params,
        job.rng_seed,
        controls,
    );
    scratch.workspace.set_cancel_token(None);
    match outcome {
        Ok((result, achieved, t)) => {
            let result = Arc::new(result);
            let degraded = achieved
                .filter(|tier| tier.is_degraded())
                .map(|achieved| Degraded {
                    achieved,
                    after: started.elapsed(),
                });
            let outcome = match (&shared.cache, &job.cache_key, &degraded) {
                (Some(cache), Some(key), None) => {
                    // The miss is recorded here — at the insert — not at
                    // the submit-time probe, so shed or errored requests
                    // never skew the ratio: `misses == insertions` and
                    // `hits + misses + coalesced` counts exactly the
                    // *full-accuracy* answers of a cached engine. A
                    // degraded answer (arm below) records no miss and
                    // inserts nothing — it reports `Uncached` and counts
                    // only in `EngineStats::degraded`, keeping the
                    // invariant exact. Insert before settling the flight
                    // so a racing request either coalesces or hits, never
                    // recomputes.
                    cache.record_miss();
                    #[cfg(feature = "testing")]
                    let insert = crate::fault::fire("cache.insert").is_ok();
                    #[cfg(not(feature = "testing"))]
                    let insert = true;
                    if insert {
                        cache.insert(*key, Arc::clone(&result));
                    }
                    cache.settle_flight(key, Ok((Arc::clone(&result), None)));
                    CacheOutcome::Miss
                }
                (Some(cache), Some(key), Some(d)) => {
                    // A degraded answer is never cached — the cache holds
                    // only full-accuracy results, so later identical
                    // requests recompute rather than inherit this one's
                    // deadline. Followers coalesced onto the flight do
                    // share its fate (bytes + degradation marker).
                    cache.settle_flight(key, Ok((Arc::clone(&result), Some(*d))));
                    CacheOutcome::Uncached
                }
                _ => CacheOutcome::Uncached,
            };
            if degraded.is_some() {
                shared.degraded.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.completed.fetch_add(1, Ordering::Relaxed);
            }
            let _ = job.reply.send(Ok(QueryResponse {
                result,
                outcome,
                degraded,
                timing: QueryTiming {
                    queue_ns,
                    total_ns: queue_ns + started.elapsed().as_nanos() as u64,
                    ..t
                },
            }));
        }
        Err(HkprError::Cancelled) => {
            shared.cancelled_running.fetch_add(1, Ordering::Relaxed);
            let err = ServeError::Cancelled {
                after: started.elapsed(),
            };
            shared.settle_err(&job, &err);
            let _ = job.reply.send(Err(err));
        }
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            let err = ServeError::Query(e);
            shared.settle_err(&job, &err);
            let _ = job.reply.send(Err(err));
        }
    }
}

// ---------------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------------

/// Handle to an in-flight (or instantly answered) query.
pub struct Ticket {
    inner: TicketInner,
}

enum TicketInner {
    Ready(Box<Result<QueryResponse, ServeError>>),
    Pending(mpsc::Receiver<Result<QueryResponse, ServeError>>),
    /// Coalesced onto another request's computation (single-flight).
    Flight {
        rx: mpsc::Receiver<FlightResult>,
        submitted: Instant,
        /// The *follower's own* deadline, enforced while waiting on the
        /// flight (the watchdog only tracks the leader's job).
        deadline: Option<Instant>,
    },
}

impl Ticket {
    /// Block until the query completes. A coalesced ticket waits for the
    /// shared flight's outcome — success delivers the identical bytes,
    /// and a leader that errs (including a shed or cancellation) passes
    /// that error on; a follower with its own deadline stops waiting
    /// when that deadline passes ([`ServeError::DeadlineExceeded`]).
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        match self.inner {
            TicketInner::Ready(r) => *r,
            TicketInner::Pending(rx) => rx.recv().unwrap_or(Err(ServeError::Disconnected)),
            TicketInner::Flight {
                rx,
                submitted,
                deadline,
            } => {
                let outcome = match deadline {
                    None => rx.recv().map_err(|_| ServeError::Disconnected),
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            // Expired before we even started waiting.
                            Err(ServeError::DeadlineExceeded {
                                late_by: now - deadline,
                            })
                        } else {
                            rx.recv_timeout(deadline - now).map_err(|e| match e {
                                mpsc::RecvTimeoutError::Timeout => ServeError::DeadlineExceeded {
                                    late_by: deadline.elapsed(),
                                },
                                mpsc::RecvTimeoutError::Disconnected => ServeError::Disconnected,
                            })
                        }
                    }
                };
                match outcome {
                    Ok(Ok((result, degraded))) => Ok(QueryResponse {
                        result,
                        outcome: CacheOutcome::Coalesced,
                        degraded,
                        timing: QueryTiming {
                            total_ns: submitted.elapsed().as_nanos() as u64,
                            ..QueryTiming::default()
                        },
                    }),
                    Ok(Err(e)) => Err(e),
                    Err(e) => Err(e),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Single-graph engine façade
// ---------------------------------------------------------------------------

/// Persistent query engine over one graph: a graph front plus a
/// private scheduler pool. See the [module docs](self). Multi-graph
/// deployments use [`crate::MultiEngine`], which shares one pool across
/// all graphs instead of spawning one per graph.
///
/// Dropping the engine closes the queue, lets queued and in-flight
/// queries finish and joins the workers.
pub struct QueryEngine {
    front: Arc<GraphFront>,
    sched: Scheduler,
}

impl QueryEngine {
    /// Build an engine over `graph` with the given configuration and
    /// start its workers. The engine owns a private result cache sized by
    /// [`EngineConfig::cache_bytes`]; use [`with_cache`](Self::with_cache)
    /// to share one cache across engines.
    pub fn new(graph: Arc<Graph>, config: EngineConfig) -> QueryEngine {
        let cache = (config.cache_bytes > 0)
            .then(|| Arc::new(ResultCache::new(config.cache_bytes, config.cache_shards)));
        QueryEngine::with_cache(graph, config, cache)
    }

    /// Build an engine over `graph` using a caller-provided (possibly
    /// shared) result cache — `None` disables caching regardless of
    /// [`EngineConfig::cache_bytes`]. Cache keys include the graph
    /// fingerprint, so entries from different graphs coexist (and survive
    /// a graph being evicted and reloaded, since the reloaded snapshot
    /// fingerprints identically).
    pub fn with_cache(
        graph: Arc<Graph>,
        config: EngineConfig,
        cache: Option<Arc<ResultCache>>,
    ) -> QueryEngine {
        let fingerprint = graph.fingerprint();
        let front = Arc::new(GraphFront::new(
            graph,
            fingerprint,
            fingerprint,
            config.hop_c,
        ));
        // One graph cannot starve itself: auto quota = the whole queue.
        let sched = Scheduler::new(config, cache, config.max_queue.max(1));
        QueryEngine { front, sched }
    }

    /// An engine with [`EngineConfig::default`].
    pub fn with_defaults(graph: Arc<Graph>) -> QueryEngine {
        QueryEngine::new(graph, EngineConfig::default())
    }

    /// The graph this engine serves.
    pub fn graph(&self) -> &Arc<Graph> {
        self.front.graph()
    }

    /// The graph fingerprint baked into every cache key.
    pub fn fingerprint(&self) -> u64 {
        self.front.fingerprint()
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> EngineStats {
        self.sched.stats()
    }

    /// Submit a request. Returns immediately: with a [`Ticket`] holding
    /// the (possibly already cached or coalesced) answer, or with a typed
    /// shed error.
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, ServeError> {
        self.sched.submit(&self.front, req)
    }

    /// Submit and block for the answer.
    pub fn query(&self, req: QueryRequest) -> Result<QueryResponse, ServeError> {
        self.submit(req)?.wait()
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("nodes", &self.front.graph().num_nodes())
            .field("edges", &self.front.graph().num_edges())
            .field(
                "fingerprint",
                &format_args!("{:#018x}", self.front.fingerprint()),
            )
            .field("workers", &self.sched.worker_count())
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// One-shot batch mode
// ---------------------------------------------------------------------------

/// Run one clustering query per seed, distributed over `threads` workers.
///
/// Results arrive in the same order as `seeds`. Each query derives its RNG
/// stream from `rng_seed + index`, so a batch run is bit-identical to the
/// equivalent sequential loop — and to the same requests served through a
/// persistent engine, because both paths run the scheduler's `execute`
/// core (`estimate_anytime_in` + `sweep_in` on a per-worker scratch;
/// with no deadline and no ladder observer here, always to completion). This
/// one-shot mode uses scoped threads claiming indices from a shared
/// atomic counter, no cache and no deadlines; every worker owns one
/// [`QueryScratch`] reused across its whole share of the batch, so
/// steady-state batch serving performs no per-query allocation in the
/// estimator hot path.
pub fn run_batch(
    clusterer: &LocalClusterer<'_>,
    method: Method,
    seeds: &[NodeId],
    params: &HkprParams,
    rng_seed: u64,
    threads: usize,
) -> Vec<Result<ClusterResult, HkprError>> {
    let threads = threads.max(1).min(seeds.len().max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<ClusterResult, HkprError>)>();
    // Index claiming is racy but harmless: each query is a pure function
    // of (seed, params, rng_seed + index), so the schedule cannot show.
    let work = |tx: mpsc::Sender<(usize, Result<ClusterResult, HkprError>)>| {
        let mut scratch = QueryScratch::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= seeds.len() {
                break;
            }
            let out = execute(
                clusterer,
                &mut scratch,
                seeds[i],
                method,
                params,
                rng_seed.wrapping_add(i as u64),
                AnytimeControls::default(),
            )
            .map(|(result, _, _)| result);
            let _ = tx.send((i, out));
        }
    };
    if threads == 1 {
        work(tx);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                scope.spawn(|| work(tx));
            }
            drop(tx);
        });
    }

    let mut out: Vec<Option<Result<ClusterResult, HkprError>>> =
        (0..seeds.len()).map(|_| None).collect();
    for (i, reply) in rx.try_iter() {
        out[i] = Some(reply);
    }
    out.into_iter()
        .map(|slot| slot.expect("every seed answered by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::gen::planted_partition;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn graph() -> Arc<Graph> {
        let mut rng = SmallRng::seed_from_u64(44);
        Arc::new(
            planted_partition(4, 40, 0.35, 0.01, &mut rng)
                .unwrap()
                .graph,
        )
    }

    fn engine(config: EngineConfig) -> QueryEngine {
        QueryEngine::new(graph(), config)
    }

    #[test]
    fn edf_queue_pops_earliest_deadline_first() {
        let now = Instant::now();
        let mut q: DeadlineQueue<&'static str> = DeadlineQueue::new(64, 64);
        let at = |ms: u64| Some(now + Duration::from_millis(ms));
        assert!(matches!(q.push(1, None, "fifo-1"), Admit::Queued(_)));
        assert!(matches!(q.push(1, at(50), "late"), Admit::Queued(_)));
        assert!(matches!(q.push(2, at(5), "urgent"), Admit::Queued(_)));
        assert!(matches!(q.push(2, None, "fifo-2"), Admit::Queued(_)));
        assert!(matches!(q.push(1, at(20), "middle"), Admit::Queued(_)));
        assert!(matches!(q.push(3, at(5), "urgent-2"), Admit::Queued(_)));
        // Deadlines first (earliest first, FIFO on ties), then the
        // deadline-free items in FIFO order.
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            ["urgent", "urgent-2", "middle", "late", "fifo-1", "fifo-2"]
        );
    }

    #[test]
    fn queue_enforces_total_bound_and_per_graph_quota() {
        let mut q: DeadlineQueue<u32> = DeadlineQueue::new(4, 2);
        assert!(matches!(q.push(7, None, 0), Admit::Queued(1)));
        assert!(matches!(q.push(7, None, 1), Admit::Queued(2)));
        // Graph 7 is at quota; graph 8 still admits.
        assert!(matches!(q.push(7, None, 2), Admit::QuotaFull(2)));
        assert!(matches!(q.push(8, None, 3), Admit::Queued(3)));
        assert!(matches!(q.push(9, None, 4), Admit::Queued(4)));
        // Total bound fires before any quota once the queue is full.
        assert!(matches!(q.push(10, None, 5), Admit::TotalFull(5)));
        assert_eq!(q.queued_for(7), 2);
        // Draining graph 7 reopens its quota.
        q.pop();
        q.pop();
        q.pop();
        assert!(q.queued_for(7) < 2);
        assert!(matches!(q.push(7, None, 6), Admit::Queued(_)));
    }

    #[test]
    fn hit_and_miss_accounting() {
        let e = engine(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let a = e.query(QueryRequest::new(3)).unwrap();
        assert_eq!(a.outcome, CacheOutcome::Miss);
        let b = e.query(QueryRequest::new(3)).unwrap();
        assert_eq!(b.outcome, CacheOutcome::Hit);
        // A hit bypasses the workers entirely.
        assert_eq!(b.timing.queue_ns, 0);
        assert!(a.result.bitwise_eq(&b.result));
        // Different rng stream => different key => miss.
        let c = e.query(QueryRequest::new(3).rng_seed(9)).unwrap();
        assert_eq!(c.outcome, CacheOutcome::Miss);
        let stats = e.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 2);
        assert_eq!(stats.cache.coalesced, 0);
        assert_eq!(stats.completed, 2);
        assert!(stats.queue_hwm >= 1);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn uncached_engine_reports_uncached() {
        let e = engine(EngineConfig {
            workers: 1,
            cache_bytes: 0,
            ..EngineConfig::default()
        });
        for _ in 0..2 {
            let r = e.query(QueryRequest::new(0)).unwrap();
            assert_eq!(r.outcome, CacheOutcome::Uncached);
        }
        assert_eq!(e.stats().cache, CacheStats::default());
    }

    #[test]
    fn estimator_errors_are_typed_and_counted() {
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let err = e.query(QueryRequest::new(100_000)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Query(HkprError::SeedOutOfRange { .. })
        ));
        let err = e
            .query(QueryRequest::new(0).knobs(Knobs {
                t: -1.0,
                ..Knobs::default()
            }))
            .unwrap_err();
        assert!(matches!(err, ServeError::Query(_)));
        assert_eq!(e.stats().errors, 1); // knob validation fails pre-queue
    }

    #[test]
    fn expired_deadline_is_shed_before_compute() {
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut req = QueryRequest::new(1);
        req.deadline = Some(Instant::now() - Duration::from_millis(5));
        match e.query(req) {
            Err(ServeError::DeadlineExceeded { late_by }) => {
                assert!(late_by >= Duration::from_millis(5));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = e.stats();
        assert_eq!(stats.shed_queued, 1);
        assert_eq!(stats.cancelled_running, 0);
        // A generous deadline passes.
        let ok = e.query(QueryRequest::new(1).deadline_in(Duration::from_secs(60)));
        assert!(ok.is_ok());
    }

    #[test]
    fn mid_run_deadline_cancels_via_the_watchdog() {
        // A Monte-Carlo query with tens of millions of walks takes far
        // longer than the deadline on any hardware; the watchdog must
        // fire the job's token mid-run. Under tiered refinement that
        // means either a typed `Cancelled` (no tier finished in time) or
        // a degraded answer (some tier did) — never a full-accuracy
        // completion, and never the queued-shed counter (the job passed
        // the dequeue-time check).
        let e = engine(EngineConfig {
            workers: 1,
            cache_bytes: 0,
            ..EngineConfig::default()
        });
        // delta = 1e-8 makes the published Monte-Carlo walk count ~1e10,
        // so the 40M cap binds and the query runs for seconds uncancelled.
        let req = QueryRequest::new(2)
            .method(Method::MonteCarlo {
                max_walks: Some(40_000_000),
            })
            .knobs(Knobs {
                delta: Some(1e-8),
                ..Knobs::default()
            })
            .deadline_in(Duration::from_millis(30));
        match e.query(req) {
            Err(ServeError::Cancelled { after }) => {
                assert!(after >= Duration::from_millis(25), "ran only {after:?}");
            }
            Ok(resp) => {
                // Fast host: the first accuracy tier beat the watchdog, so
                // cancellation meant "stop refining", not "drop the query".
                let d = resp
                    .degraded
                    .expect("a 30ms deadline cannot reach full accuracy on 40M walks");
                assert!(d.achieved.is_degraded());
                assert!(
                    d.after >= Duration::from_millis(25),
                    "ran only {:?}",
                    d.after
                );
            }
            Err(other) => panic!("expected Cancelled or a degraded answer, got {other:?}"),
        }
        let stats = e.stats();
        assert_eq!(stats.cancelled_running + stats.degraded, 1);
        assert_eq!(stats.shed_queued, 0);
        assert_eq!(stats.completed, 0);
        // The worker scratch survives: the same engine answers the next
        // query bit-identically to a fresh engine.
        let again = e.query(QueryRequest::new(2)).unwrap();
        let fresh = engine(EngineConfig {
            workers: 1,
            cache_bytes: 0,
            ..EngineConfig::default()
        })
        .query(QueryRequest::new(2))
        .unwrap();
        assert!(again.result.bitwise_eq(&fresh.result));
    }

    #[test]
    fn degraded_answer_carries_achieved_tier_and_is_not_cached() {
        // Cache ON: a degraded answer must come back `Uncached` and must
        // not poison the cache for later full-accuracy requests.
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        // 4M walks: the up-front length sampling (which cannot degrade —
        // a cancel there is a hard `Cancelled`) stays well under the
        // deadline ladder even on a loaded debug host, while the walk
        // phase still runs long enough that a full completion inside the
        // first rung would need an implausibly fast machine.
        let req = QueryRequest::new(3)
            .method(Method::MonteCarlo {
                max_walks: Some(4_000_000),
            })
            .knobs(Knobs {
                delta: Some(1e-8),
                ..Knobs::default()
            });
        // Escalate the deadline until the cancel lands in the walk phase
        // (anything deposited makes an Ok degraded answer).
        let mut resp = None;
        let mut ok_ms = 0u64;
        for ms in [100u64, 250, 500, 1_000, 2_000, 4_000, 8_000] {
            match e.query(req.deadline_in(Duration::from_millis(ms))) {
                Ok(r) => {
                    resp = Some(r);
                    ok_ms = ms;
                    break;
                }
                Err(ServeError::Cancelled { .. }) => continue,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        let resp = resp.expect("no walk chunk completed within 8s");
        let d = resp
            .degraded
            .expect("4M walks cannot finish inside the deadline");
        let tier = d.achieved;
        assert!(tier.is_degraded());
        assert!(tier.tiers_completed < tier.tiers_planned);
        assert!(tier.walks_done > 0 && tier.walks_done < tier.walks_planned);
        assert!(
            tier.eps_r_achieved > tier.eps_r_requested,
            "partial walks must widen the error bound: {tier:?}"
        );
        assert_eq!(resp.outcome, CacheOutcome::Uncached);
        let stats = e.stats();
        assert_eq!(stats.degraded, 1);
        assert_eq!(stats.completed, 0);
        // Not cached: an identical request under the same deadline must
        // compute again (a poisoned cache would answer `Hit` instantly).
        if let Ok(again) = e.query(req.deadline_in(Duration::from_millis(ok_ms))) {
            assert_ne!(again.outcome, CacheOutcome::Hit);
        }
    }

    #[test]
    fn watchdog_heap_purges_settled_entries() {
        // Fast queries with long deadlines: every job registers a
        // watchdog entry that outlives it by minutes. Without the lazy
        // purge the heap would end at ~query count; with it, settled
        // (orphaned-token) entries are swept whenever the heap reaches
        // the purge threshold, so it stays bounded by that threshold
        // regardless of traffic.
        let e = engine(EngineConfig {
            workers: 1,
            cache_bytes: 0, // every query reaches a worker and registers
            ..EngineConfig::default()
        });
        let queries = 4 * WATCHDOG_PURGE_MIN;
        for i in 0..queries {
            e.query(QueryRequest::new((i % 7) as NodeId).deadline_in(Duration::from_secs(600)))
                .unwrap();
        }
        let len = e.sched.shared.watchdog.state.lock().unwrap().heap.len();
        assert!(
            len <= WATCHDOG_PURGE_MIN,
            "watchdog heap kept {len} of {queries} settled entries"
        );
    }

    #[test]
    fn degraded_miss_keeps_cache_counters_consistent() {
        // Cache ON: a degraded answer goes through the compute path but
        // records neither a miss nor an insertion, so the PR-2 invariant
        // `misses == insertions` holds exactly and `hits + misses +
        // coalesced` keeps counting only the full-accuracy answers.
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        // Baseline: one full-accuracy miss, then a hit on it.
        e.query(QueryRequest::new(1)).unwrap();
        let hit = e.query(QueryRequest::new(1)).unwrap();
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        // A degraded miss (escalating deadlines until the cancel lands
        // inside the walk phase — see the degraded-answer test above).
        let req = QueryRequest::new(3)
            .method(Method::MonteCarlo {
                max_walks: Some(4_000_000),
            })
            .knobs(Knobs {
                delta: Some(1e-8),
                ..Knobs::default()
            });
        let mut resp = None;
        for ms in [100u64, 250, 500, 1_000, 2_000, 4_000, 8_000] {
            match e.query(req.deadline_in(Duration::from_millis(ms))) {
                Ok(r) => {
                    resp = Some(r);
                    break;
                }
                Err(ServeError::Cancelled { .. }) => continue,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        let resp = resp.expect("no walk chunk completed within 8s");
        assert!(resp.degraded.is_some());
        assert_eq!(resp.outcome, CacheOutcome::Uncached);
        let s = e.stats();
        assert_eq!(
            s.cache.misses, s.cache.insertions,
            "degraded answers must not drift the miss/insert invariant"
        );
        assert_eq!((s.cache.hits, s.cache.misses), (1, 1));
        assert_eq!(s.degraded, 1, "the degraded answer counts separately");
        assert_eq!(s.completed, 1, "only the full-accuracy miss completed");
    }

    #[test]
    fn concurrent_identical_misses_coalesce_single_flight() {
        // One worker + a slow query: submits 2..=4 arrive while the first
        // is still computing, so they must coalesce onto its flight.
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        // Slow query (see the watchdog test for the delta trick) so the
        // later submits reliably land while the leader is computing.
        let req = QueryRequest::new(5)
            .method(Method::MonteCarlo {
                max_walks: Some(3_000_000),
            })
            .knobs(Knobs {
                delta: Some(1e-8),
                ..Knobs::default()
            });
        let tickets: Vec<Ticket> = (0..4).map(|_| e.submit(req).unwrap()).collect();
        let responses: Vec<QueryResponse> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let misses = responses
            .iter()
            .filter(|r| r.outcome == CacheOutcome::Miss)
            .count();
        let coalesced = responses
            .iter()
            .filter(|r| r.outcome == CacheOutcome::Coalesced)
            .count();
        assert_eq!(misses, 1, "exactly one leader computes");
        assert_eq!(coalesced, 3, "all others coalesce");
        for r in &responses[1..] {
            assert!(
                r.result.bitwise_eq(&responses[0].result),
                "coalesced bytes differ from the leader's"
            );
            assert!(Arc::ptr_eq(&r.result, &responses[0].result));
        }
        let stats = e.stats();
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.insertions, 1);
        assert_eq!(stats.cache.coalesced, 3);
        assert_eq!(stats.completed, 1);
        // And afterwards the entry is a plain hit.
        assert_eq!(e.query(req).unwrap().outcome, CacheOutcome::Hit);
    }

    #[test]
    fn single_graph_engine_admits_up_to_max_queue() {
        // The auto per-graph quota must NOT sub-divide a single-graph
        // engine's queue: with per_graph_queue = 0 the whole max_queue is
        // admissible (regression test for the quota resolution).
        let e = engine(EngineConfig {
            workers: 1,
            max_queue: 8,
            per_graph_queue: 0,
            cache_bytes: 0,
            ..EngineConfig::default()
        });
        // Occupy the worker so subsequent submits stay queued.
        let slow = e
            .submit(
                QueryRequest::new(0)
                    .method(Method::MonteCarlo {
                        max_walks: Some(3_000_000),
                    })
                    .knobs(Knobs {
                        delta: Some(1e-8),
                        ..Knobs::default()
                    }),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let queued: Vec<Ticket> = (0..8)
            .map(|s| {
                e.submit(QueryRequest::new(s))
                    .unwrap_or_else(|err| panic!("submit {s} of 8 shed under max_queue=8: {err}"))
            })
            .collect();
        assert!(matches!(
            e.submit(QueryRequest::new(9)),
            Err(ServeError::Overloaded { limit: 8, .. })
        ));
        for t in std::iter::once(slow).chain(queued) {
            t.wait().unwrap();
        }
    }

    #[test]
    fn coalesced_follower_honors_its_own_deadline() {
        // A follower coalesced onto a slow deadline-free leader must stop
        // waiting when its *own* deadline passes — typed, not unbounded.
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let slow = QueryRequest::new(7)
            .method(Method::MonteCarlo {
                max_walks: Some(20_000_000),
            })
            .knobs(Knobs {
                delta: Some(1e-8),
                ..Knobs::default()
            });
        let leader = e.submit(slow).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let follower = e
            .submit(slow.deadline_in(Duration::from_millis(25)))
            .unwrap();
        match follower.wait() {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected the follower's own deadline to fire, got {other:?}"),
        }
        // The leader is unaffected by its follower's impatience.
        assert!(leader.wait().is_ok());
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let e = engine(EngineConfig {
            workers: 1,
            max_queue: 2,
            cache_bytes: 0,
            ..EngineConfig::default()
        });
        // Submit a burst without waiting: either all fit or some shed
        // with the *typed* error, and the counter matches.
        let tickets: Vec<_> = (0..8).map(|s| e.submit(QueryRequest::new(s))).collect();
        let shed = tickets.iter().filter(|t| t.is_err()).count();
        for t in tickets {
            match t {
                Ok(ticket) => {
                    ticket.wait().unwrap();
                }
                Err(e) => assert!(matches!(e, ServeError::Overloaded { .. })),
            }
        }
        assert_eq!(e.stats().shed_overload as usize, shed);
    }

    #[test]
    fn canonicalization_makes_nearby_knobs_share_entries() {
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let a = e
            .query(QueryRequest::new(5).knobs(Knobs {
                delta: Some(1e-3),
                ..Knobs::default()
            }))
            .unwrap();
        // Sub-percent knob jitter lands in the same bucket: a hit, and
        // byte-equal because both computed with the canonical knobs.
        let b = e
            .query(QueryRequest::new(5).knobs(Knobs {
                delta: Some(1.004e-3),
                ..Knobs::default()
            }))
            .unwrap();
        assert_eq!(b.outcome, CacheOutcome::Hit);
        assert!(a.result.bitwise_eq(&b.result));
        // A 2x knob change is a genuinely different query.
        let c = e
            .query(QueryRequest::new(5).knobs(Knobs {
                delta: Some(2e-3),
                ..Knobs::default()
            }))
            .unwrap();
        assert_eq!(c.outcome, CacheOutcome::Miss);
    }

    #[test]
    fn engine_is_shared_across_client_threads() {
        let e = Arc::new(engine(EngineConfig {
            workers: 3,
            ..EngineConfig::default()
        }));
        let mut handles = Vec::new();
        for c in 0u32..4 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                for s in 0..8 {
                    out.push(e.query(QueryRequest::new((c * 8 + s) % 40)).unwrap());
                }
                out
            }));
        }
        for h in handles {
            for resp in h.join().unwrap() {
                assert!(!resp.result.cluster.is_empty());
            }
        }
        // Concurrent identical requests may coalesce; every query is
        // accounted exactly once across the three outcomes.
        let stats = e.stats();
        assert_eq!(
            stats.completed + stats.cache.hits + stats.cache.coalesced,
            32
        );
    }

    #[test]
    fn params_table_is_bounded_under_knob_sweeps() {
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        // Sweep p_f across 7 decades: >100 distinct quantization buckets
        // at 16 buckets/decade, each cheap to serve (p_f only scales the
        // walk count logarithmically).
        for i in 0..100 {
            let knobs = Knobs {
                p_f: 10f64.powf(-1.0 - 7.0 * i as f64 / 99.0),
                ..Knobs::default()
            };
            e.query(QueryRequest::new(0).knobs(knobs)).unwrap();
        }
        assert!(
            e.front.params_table.lock().unwrap().len() <= 64,
            "params table must stay bounded"
        );
    }

    #[test]
    fn phase_timings_populated_for_workspace_methods() {
        let e = engine(EngineConfig {
            workers: 1,
            cache_bytes: 0,
            ..EngineConfig::default()
        });
        let r = e.query(QueryRequest::new(2)).unwrap();
        assert!(r.timing.estimate_ns > 0);
        assert!(r.timing.estimate_ns >= r.timing.push_ns);
        assert!(r.timing.total_ns >= r.timing.estimate_ns + r.timing.sweep_ns);
        // Exact power iteration bypasses the workspace: no push/walk split.
        let r = e.query(QueryRequest::new(2).method(Method::Exact)).unwrap();
        assert_eq!(r.timing.push_ns, 0);
        assert_eq!(r.timing.walk_ns, 0);
        assert!(r.timing.estimate_ns > 0);
    }
}
