//! The scheduler behind [`MultiEngine`](crate::MultiEngine): per-graph
//! fronts, the worker pool, the submit pipeline and the execution core.
//! The [`engine` module docs](crate::engine) describe the architecture.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use hk_cluster::{ClusterResult, LocalClusterer, Method, QueryScratch};
use hk_graph::{Graph, NodeId};
use hkpr_core::fxhash::{FxHashMap, FxHasher};
use hkpr_core::{AccuracyTier, AnytimeControls, AnytimeOutput, CancelToken, HkprError, HkprParams};

use crate::cache::{CacheKey, FlightClaim, ParamsKey, ResultCache};
use crate::engine::{
    CacheOutcome, Degraded, EngineConfig, EngineStats, Knobs, QueryRequest, QueryResponse,
    QueryTiming, ServeError, Ticket, TicketInner,
};
use crate::queue::{Admit, DeadlineQueue};
use crate::watchdog::Watchdog;

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
    /// and admission rejections: [`admission_key_of`] its registry name.
    admission_key: u64,
    hop_c: f64,
    /// Canonical parameter sets, built once per quantized-knob bucket.
    pub(crate) params_table: Mutex<FxHashMap<ParamsKey, Arc<HkprParams>>>,
}

/// Admission key of a registry name (stable across reloads).
pub(crate) fn admission_key_of(name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    name.hash(&mut h);
    h.finish()
}

impl GraphFront {
    /// The front of the graph registered as `name`. `fingerprint` is
    /// `graph.fingerprint()`, resolved by the caller: O(1) for a v2 image
    /// that records it, else an O(n + m) serial hash, which the registry
    /// counts.
    pub(crate) fn new(name: &str, graph: Arc<Graph>, fingerprint: u64, hop_c: f64) -> GraphFront {
        GraphFront {
            graph,
            fingerprint,
            admission_key: admission_key_of(name),
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
    /// `Arc` so the hub builder pins into the same cache every graph is
    /// served from (keys carry the graph fingerprint, so sharing is
    /// collision-free).
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
    /// Each worker's [`QueryScratch::memory_bytes`], by worker index.
    workspace_bytes: Box<[AtomicU64]>,
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

/// The shared deadline-aware worker pool. See the
/// [`engine` module docs](crate::engine). A `MultiEngine` runs one across
/// every resident graph.
pub(crate) struct Scheduler {
    shared: Arc<SchedShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Build the pool. `per_graph_queue == 0` resolves to a quarter of
    /// the queue per graph, so one graph's burst cannot occupy every slot.
    pub(crate) fn new(config: EngineConfig, cache: Option<Arc<ResultCache>>) -> Scheduler {
        let worker_count = config.workers.max(1);
        let max_queue = config.max_queue.max(1);
        let quota = if config.per_graph_queue == 0 {
            (max_queue / 4).max(1)
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
            workspace_bytes: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
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
                        worker_loop(&shared, &shared.workspace_bytes[i], &mut scratch);
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

    #[cfg(test)]
    pub(crate) fn watchdog(&self) -> &Watchdog {
        &self.shared.watchdog
    }

    pub(crate) fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.shared.cache.as_ref()
    }

    /// Worker threads still running. Workers only exit when the queue
    /// closes (shutdown) — the panic guard contains per-job panics — so
    /// a healthy pool reports [`EngineStats::workers`]; anything less means
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

    /// Each worker's slot of [`EngineStats::workspace_bytes`], by worker
    /// index.
    pub(crate) fn worker_workspace_bytes(&self) -> Vec<u64> {
        self.shared
            .workspace_bytes
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
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
            workspace_bytes: self.worker_workspace_bytes().iter().sum(),
            cache: shared.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
        }
    }

    /// The submit pipeline: deadline pre-check, canonicalization, cache
    /// probe (pinned tier, then LRU), single-flight claim, EDF admission.
    pub(crate) fn submit(
        &self,
        front: &GraphFront,
        req: QueryRequest,
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
            method: req.method,
        };
        // Only an LRU tier caches misses; a pins-only cache (hubs on, no
        // cache budget) serves its pins and leaves every miss uncached.
        let caches_misses = shared.cache.as_ref().is_some_and(|c| c.lru());
        if let Some(cache) = &shared.cache {
            let mut answer = cache.get(&key);
            if answer.is_none() && caches_misses {
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
                        // cached key is never recomputed ("coalesce or
                        // hit, never recompute"). Settle the just-opened
                        // flight so any instant followers get the bytes
                        // too.
                        answer = cache.get(&key);
                        if let Some((hit, _)) = &answer {
                            cache.settle_flight(&key, Ok((Arc::clone(hit), None)));
                        }
                    }
                }
            }
            if let Some((result, outcome)) = answer {
                return Ok(Ticket {
                    inner: TicketInner::Ready(Box::new(Ok(QueryResponse {
                        result,
                        outcome,
                        degraded: None,
                        timing: QueryTiming {
                            total_ns: submitted.elapsed().as_nanos() as u64,
                            ..QueryTiming::default()
                        },
                    }))),
                });
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
            cache_key: caches_misses.then_some(key),
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
/// scratch (the unwound one may hold buffers a step left half-written)
/// and keeps serving. A panicking query must never take the pool down with it.
/// `workspace_bytes` is the worker's slot of
/// [`EngineStats::workspace_bytes`], refreshed by [`process`] and after a
/// rebuild.
fn worker_loop(shared: &SchedShared, workspace_bytes: &AtomicU64, scratch: &mut QueryScratch) {
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
                    process(shared, workspace_bytes, scratch, job)
                }));
                if let Err(payload) = unwound {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    *scratch = QueryScratch::new();
                    workspace_bytes.store(scratch.memory_bytes() as u64, Ordering::Relaxed);
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
) -> Result<(ClusterResult, AccuracyTier, QueryTiming), HkprError> {
    let started = Instant::now();
    let AnytimeOutput {
        estimate,
        stats,
        achieved,
    } = clusterer.estimate_anytime_in(
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
/// [`ServeError::Cancelled`]. The scratch footprint is published to
/// `workspace_bytes` once the estimator returns, before any reply, so a
/// caller that has its answer reads a current gauge.
fn process(
    shared: &SchedShared,
    workspace_bytes: &AtomicU64,
    scratch: &mut QueryScratch,
    job: Job,
) {
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
        // fires and the estimator stops at its next cancel poll.
        shared.watchdog.register(deadline, job.cancel.clone());
    }
    scratch.workspace.set_cancel_token(Some(job.cancel.clone()));
    let clusterer = LocalClusterer::new(&job.graph);
    // The `core.push_tier` failpoint rides the push-ladder observer of
    // worker queries only (never `run_batch` or hub builds): an injected
    // Error cuts the push at the certifying hop boundary (→ typed
    // degraded answer), an injected Panic unwinds into the worker's
    // containment, a Delay holds the push at the boundary long enough
    // for the deadline watchdog to fire deterministically.
    #[cfg(feature = "testing")]
    let mut on_push_tier = |_tier: u32| crate::fault::fire("core.push_tier").is_ok();
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
    workspace_bytes.store(scratch.memory_bytes() as u64, Ordering::Relaxed);
    match outcome {
        Ok((result, achieved, t)) => {
            let result = Arc::new(result);
            let degraded = achieved.is_degraded().then(|| Degraded {
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
