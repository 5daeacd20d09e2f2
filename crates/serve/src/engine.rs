//! The deadline-aware query scheduler: one shared worker pool, an
//! earliest-deadline-first queue with per-graph admission quotas, a
//! cancellable execution pipeline and the cached fast path.
//!
//! # Architecture
//!
//! A `Scheduler` owns a fixed pool of worker threads sized to the host
//! (not to the number of graphs — a multi-graph [`crate::MultiEngine`]
//! runs **one** pool across all resident graphs). Each worker owns one
//! long-lived [`QueryScratch`] — the dense indexed workspace from
//! `hkpr-core` plus the sweep buffers — so steady-state serving performs
//! no per-query allocation in the estimator hot path. The scratch is
//! graph-agnostic (cleared and re-sized per query), which is what
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
//! 3. **during execution** — the job's [`CancelToken`](hkpr_core::CancelToken) is registered with
//!    the scheduler's deadline watchdog thread, which fires it the moment
//!    the deadline passes; the estimators poll the token at hop/chunk
//!    boundaries (a relaxed atomic load) and abort with a typed
//!    [`ServeError::Cancelled`] ([`EngineStats::cancelled_running`]).
//!    Cancellation never corrupts worker state — scratch is cleared
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hk_cluster::{ClusterResult, LocalClusterer, Method, QueryScratch};
use hk_graph::NodeId;
use hkpr_core::{AccuracyTier, AnytimeControls, HkprError, HkprParams};

use crate::cache::{CacheStats, FlightResult};
use crate::sched::execute;

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
    /// Served from the cache's pinned tier: precomputed in the background
    /// at registry load time for a top-degree seed, and bit-identical to
    /// what a cold recomputation would produce (see [`crate::hub`]).
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
    /// Estimator push phase (0 for cache hits and for Monte-Carlo, which
    /// pushes nothing).
    pub push_ns: u64,
    /// Estimator walk phase, incl. residue reduction and assembly
    /// (0 for cache hits).
    pub walk_ns: u64,
    /// Whole phase one (`estimate_in`), as timed by the worker.
    pub estimate_ns: u64,
    /// Phase two (`sweep_in`).
    pub sweep_ns: u64,
    /// Submit-to-reply total.
    pub total_ns: u64,
}

/// Marker on an answer whose refinement was cut short by the deadline
/// watchdog: the result is the estimate at the best accuracy tier
/// completed before cancellation — not the requested accuracy. An answer
/// cut in the push ladder alone, with its walks complete, meets
/// `achieved.eps_r_achieved`, and so does a Monte-Carlo answer cut in its
/// walk ladder, whose walks are an i.i.d. sample. A TEA or TEA+ answer
/// cut in the walk ladder ran the plan's first residue entries' walks
/// first, so it is biased and its `eps_r_achieved` is a nominal figure,
/// not a certificate (see [`hkpr_core::anytime`]).
/// Degraded answers are never cached (the cache only stores
/// full-accuracy results), so a retry without a deadline recomputes at
/// full accuracy.
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
    /// Bytes the pool's workers hold in their per-query scratch —
    /// estimator workspace plus sweep buffers
    /// ([`QueryScratch::memory_bytes`]), summed over the workers as each
    /// last published it: after every job, and after a panic rebuild.
    /// Zero until a worker has run a job; a gauge, not a counter.
    pub workspace_bytes: u64,
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
    /// Read by nothing. A query's walk phase runs on the worker that took
    /// it plus, without any setting, one helper thread for that pass when
    /// the process may use two cores, the pass has two chunks or more and
    /// fewer of the process's threads walk than it has cores
    /// (`hkpr_core`'s walk engine decides; a process pinned to one core
    /// never spawns it). The field stays only because the repo benchmark
    /// (`benchmark/`, frozen between its own revisions) sets it; its next
    /// revision, ROADMAP item 9, removes it.
    pub walk_threads: usize,
    /// Bound on queued (not yet running) requests across all graphs;
    /// submits beyond it fail with [`ServeError::Overloaded`].
    pub max_queue: usize,
    /// Per-graph admission quota: at most this many queued requests per
    /// graph, so one graph's burst cannot starve the others. `0` = auto:
    /// `max(1, max_queue / 4)`, however many graphs are registered — set
    /// it to `max_queue` to let one graph fill the whole queue.
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
// Tickets
// ---------------------------------------------------------------------------

/// Handle to an in-flight (or instantly answered) query.
pub struct Ticket {
    pub(crate) inner: TicketInner,
}

pub(crate) enum TicketInner {
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
pub(crate) mod tests {
    use super::*;
    use crate::{MultiEngine, MultiEngineConfig};
    use hk_graph::gen::planted_partition;
    use hk_graph::Graph;
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

    /// The registry name of the one graph every test engine serves.
    const G: &str = "g";

    fn engine(config: EngineConfig) -> MultiEngine {
        let e = MultiEngine::new(MultiEngineConfig {
            engine: config,
            ..MultiEngineConfig::default()
        });
        e.registry().register_graph(G, graph());
        e
    }

    #[test]
    fn hit_and_miss_accounting() {
        let e = engine(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let a = e.query(G, QueryRequest::new(3)).unwrap();
        assert_eq!(a.outcome, CacheOutcome::Miss);
        let b = e.query(G, QueryRequest::new(3)).unwrap();
        assert_eq!(b.outcome, CacheOutcome::Hit);
        // A hit bypasses the workers entirely.
        assert_eq!(b.timing.queue_ns, 0);
        assert!(a.result.bitwise_eq(&b.result));
        // Different rng stream => different key => miss.
        let c = e.query(G, QueryRequest::new(3).rng_seed(9)).unwrap();
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
            let r = e.query(G, QueryRequest::new(0)).unwrap();
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
        let err = e.query(G, QueryRequest::new(100_000)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Query(HkprError::SeedOutOfRange { .. })
        ));
        let err = e
            .query(
                G,
                QueryRequest::new(0).knobs(Knobs {
                    t: -1.0,
                    ..Knobs::default()
                }),
            )
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
        match e.query(G, req) {
            Err(ServeError::DeadlineExceeded { late_by }) => {
                assert!(late_by >= Duration::from_millis(5));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = e.stats();
        assert_eq!(stats.shed_queued, 1);
        assert_eq!(stats.cancelled_running, 0);
        // A generous deadline passes.
        let ok = e.query(G, QueryRequest::new(1).deadline_in(Duration::from_secs(60)));
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
        match e.query(G, req) {
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
        let again = e.query(G, QueryRequest::new(2)).unwrap();
        let fresh = engine(EngineConfig {
            workers: 1,
            cache_bytes: 0,
            ..EngineConfig::default()
        })
        .query(G, QueryRequest::new(2))
        .unwrap();
        assert!(again.result.bitwise_eq(&fresh.result));
    }

    /// A Monte-Carlo query whose walks outlast the sampling of their
    /// starts by more than the widest step of the degraded tests'
    /// deadline ladder (2.5x), in any build profile: a start costs one
    /// alias draw, a walk `t` steps, so at `t = 400` the 2M walks take
    /// tens of times longer than drawing their starts: the whole query
    /// reads ≈0.9 s optimized on two threads, far past the ladder's first
    /// rung of 100 ms, and ≈23 s unoptimized. Whichever rung first
    /// outlasts the sampling cuts the walks.
    fn degrading_monte_carlo() -> QueryRequest {
        QueryRequest::new(3)
            .method(Method::MonteCarlo {
                max_walks: Some(2_000_000),
            })
            .knobs(Knobs {
                t: 400.0,
                delta: Some(1e-8),
                ..Knobs::default()
            })
    }

    /// A query that holds a lone worker far past the 20 ms the admission
    /// tests sleep before they submit, in any build profile: 500k walks
    /// at `t = 400` (≈0.2 s optimized on two threads, on these tests'
    /// graphs), cut by a 1 s deadline where an unoptimized build would
    /// walk for seconds. The sampling of its walks' starts, which a
    /// deadline cannot degrade, takes a small part of that second even
    /// unoptimized, so the answer is complete or degraded, never an
    /// error.
    pub(crate) fn occupying_monte_carlo() -> QueryRequest {
        QueryRequest::new(0)
            .method(Method::MonteCarlo {
                max_walks: Some(500_000),
            })
            .knobs(Knobs {
                t: 400.0,
                delta: Some(1e-8),
                ..Knobs::default()
            })
            .deadline_in(Duration::from_secs(1))
    }

    #[test]
    fn degraded_answer_carries_achieved_tier_and_is_not_cached() {
        // Cache ON: a degraded answer must come back `Uncached` and must
        // not poison the cache for later full-accuracy requests.
        let e = engine(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        // The up-front sampling of the walks' starts cannot degrade (a
        // cancel there is a hard `Cancelled`), so the walks must outlast
        // it by more than a rung of the deadline ladder, in both build
        // profiles.
        let req = degrading_monte_carlo();
        // Escalate the deadline until the cancel lands in the walk phase
        // (anything deposited makes an Ok degraded answer).
        let mut resp = None;
        let mut ok_ms = 0u64;
        for ms in [100u64, 250, 500, 1_000, 2_000, 4_000, 8_000] {
            match e.query(G, req.deadline_in(Duration::from_millis(ms))) {
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
            .expect("the walks cannot finish inside the deadline");
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
        if let Ok(again) = e.query(G, req.deadline_in(Duration::from_millis(ok_ms))) {
            assert_ne!(again.outcome, CacheOutcome::Hit);
        }
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
        e.query(G, QueryRequest::new(1)).unwrap();
        let hit = e.query(G, QueryRequest::new(1)).unwrap();
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        // A degraded miss (escalating deadlines until the cancel lands
        // inside the walk phase — see the degraded-answer test above).
        let req = degrading_monte_carlo();
        let mut resp = None;
        for ms in [100u64, 250, 500, 1_000, 2_000, 4_000, 8_000] {
            match e.query(G, req.deadline_in(Duration::from_millis(ms))) {
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
        let tickets: Vec<Ticket> = (0..4).map(|_| e.submit(G, req).unwrap()).collect();
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
        assert_eq!(e.query(G, req).unwrap().outcome, CacheOutcome::Hit);
    }

    #[test]
    fn single_graph_engine_admits_up_to_max_queue() {
        // One quota rule, however many graphs are registered:
        // `per_graph_queue: 0` gives even a lone graph max(1, max_queue /
        // 4) queued requests, and a graph that may fill the whole queue
        // says so with `per_graph_queue: max_queue`.
        for (per_graph_queue, admitted) in [(0, 2), (8, 8)] {
            let e = engine(EngineConfig {
                workers: 1,
                max_queue: 8,
                per_graph_queue,
                cache_bytes: 0,
                ..EngineConfig::default()
            });
            // Occupy the worker so subsequent submits stay queued.
            let slow = e.submit(G, occupying_monte_carlo()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            let queued: Vec<Ticket> = (0..admitted)
                .map(|s| {
                    e.submit(G, QueryRequest::new(s)).unwrap_or_else(|err| {
                        panic!("submit {s} of {admitted} shed at per_graph_queue={per_graph_queue}: {err}")
                    })
                })
                .collect();
            match e.submit(G, QueryRequest::new(9)) {
                Err(ServeError::Overloaded { limit, .. }) => assert_eq!(limit, admitted as usize),
                Err(other) => panic!("expected Overloaded, got {other}"),
                Ok(_) => panic!("admitted past {admitted} at per_graph_queue={per_graph_queue}"),
            }
            for t in std::iter::once(slow).chain(queued) {
                t.wait().unwrap();
            }
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
        let leader = e.submit(G, slow).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let follower = e
            .submit(G, slow.deadline_in(Duration::from_millis(25)))
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
            per_graph_queue: 2,
            cache_bytes: 0,
            ..EngineConfig::default()
        });
        // Submit a burst without waiting: either all fit or some shed
        // with the *typed* error, and the counter matches.
        let tickets: Vec<_> = (0..8).map(|s| e.submit(G, QueryRequest::new(s))).collect();
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
            .query(
                G,
                QueryRequest::new(5).knobs(Knobs {
                    delta: Some(1e-3),
                    ..Knobs::default()
                }),
            )
            .unwrap();
        // Sub-percent knob jitter lands in the same bucket: a hit, and
        // byte-equal because both computed with the canonical knobs.
        let b = e
            .query(
                G,
                QueryRequest::new(5).knobs(Knobs {
                    delta: Some(1.004e-3),
                    ..Knobs::default()
                }),
            )
            .unwrap();
        assert_eq!(b.outcome, CacheOutcome::Hit);
        assert!(a.result.bitwise_eq(&b.result));
        // A 2x knob change is a genuinely different query.
        let c = e
            .query(
                G,
                QueryRequest::new(5).knobs(Knobs {
                    delta: Some(2e-3),
                    ..Knobs::default()
                }),
            )
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
                    out.push(e.query(G, QueryRequest::new((c * 8 + s) % 40)).unwrap());
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
            e.query(G, QueryRequest::new(0).knobs(knobs)).unwrap();
        }
        assert!(
            e.front_for(G, None)
                .unwrap()
                .params_table
                .lock()
                .unwrap()
                .len()
                <= 64,
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
        let r = e.query(G, QueryRequest::new(2)).unwrap();
        assert!(r.timing.estimate_ns > 0);
        assert!(r.timing.estimate_ns >= r.timing.push_ns);
        assert!(r.timing.total_ns >= r.timing.estimate_ns + r.timing.sweep_ns);
        // Every served method runs on the workspace and reports its split.
        let r = e
            .query(G, QueryRequest::new(2).method(Method::Tea))
            .unwrap();
        assert!(r.timing.estimate_ns >= r.timing.push_ns + r.timing.walk_ns);
        assert!(r.timing.push_ns > 0);
    }
}
