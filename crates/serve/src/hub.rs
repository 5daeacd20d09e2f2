//! Hub-aware precomputation: the builder that pins full-accuracy answers
//! for the highest-degree seeds of every resident graph.
//!
//! Diffusion-estimation cost concentrates on high-degree hubs (Vial &
//! Subramanian), and hub seeds dominate real community-detection
//! workloads (Kloster & Gleich) — exactly the Zipf traffic the serving
//! benchmarks replay. When a graph becomes resident, a background build
//! precomputes the full [`ClusterResult`](hk_cluster::ClusterResult) for
//! its top-K highest-degree seeds under the engine's **default knobs** and
//! pins each in the shared [`ResultCache`] ([`ResultCache::pin`]) under
//! the [`CacheKey`] a request for it computes. The builder keeps no
//! answers: the cache serves pins first, so Zipf head traffic is answered
//! instantly even on a cold cache, as
//! [`CacheOutcome::Precomputed`](crate::CacheOutcome::Precomputed).
//!
//! # Bitwise identity
//!
//! A precomputed answer must be indistinguishable from a cold
//! recomputation. The build therefore runs the scheduler's own
//! `execute` core — `estimate_anytime_in` + `sweep_in` on a fresh
//! scratch, with no cancel token and no ladder observer, so always to
//! completion — under the *canonicalized* default knobs (the same
//! [`ParamsKey`](crate::ParamsKey) bucket snap the submit path applies)
//! and RNG stream 0. Every ingredient of the cache key is reproduced
//! exactly, so the stored bytes are byte-equal to what a worker would
//! compute for the same request (property-tested).
//!
//! # Selection, budget, staleness
//!
//! * **Selection** is deterministic: seeds ordered by (degree
//!   descending, node id ascending), top K, zero-degree nodes skipped.
//!   Processing follows that order too — the degree-sorted build
//!   frontier touches the hottest adjacency rows while they are warm.
//! * **Budget**: the cache's pin budget
//!   ([`MultiEngineConfig::hub_bytes`](crate::MultiEngineConfig::hub_bytes))
//!   spans all graphs; a build stops once `pin` refuses the next result.
//!   Size it as `graphs x top_k x` typical result size.
//! * **Staleness is free**: keys carry the graph fingerprint, so a
//!   *different* snapshot registered under the same name is never served
//!   a stale answer, while evict/reload cycles of the *same* structure
//!   keep their pins valid. Builds dedupe per fingerprint (read off the
//!   front, which resolved it once), so a reload never rebuilds.
//!
//! Builds run on detached background threads **after** the graph is
//! queryable — a load never waits on precomputation, and queries that
//! arrive mid-build simply miss the pinned tier and take the normal path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use hk_cluster::{LocalClusterer, Method, QueryScratch};
use hk_graph::NodeId;
use hkpr_core::fxhash::FxHashSet;
use hkpr_core::AnytimeControls;

use crate::cache::{CacheKey, ResultCache};
use crate::engine::Knobs;
use crate::sched::{execute, GraphFront};

/// Counters of the hub builder (all zero when hub precomputation is
/// disabled), surfaced by
/// [`MultiEngine::hub_stats`](crate::MultiEngine::hub_stats) and the
/// gateway's `/metrics`. What the builds pinned, and how often pins
/// answered, is in [`CacheStats`](crate::CacheStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Background builds completed (one per distinct graph fingerprint).
    pub builds: u64,
    /// Total wall-clock nanoseconds spent in completed builds.
    pub build_ns: u64,
}

/// Build-side state (dedupe set, idle tracking).
#[derive(Default)]
struct BuildState {
    /// Fingerprints claimed by a build (running or done) — the dedupe
    /// that makes evict/reload cycles free.
    claimed: FxHashSet<u64>,
    /// Builds currently running ([`HubBuilder::wait_idle`] waits on 0).
    in_flight: usize,
}

/// Precomputes top-degree seeds and pins them in the shared cache. See
/// the [module docs](self). Owned by [`crate::MultiEngine`]; one builder
/// spans every resident graph (keys carry the fingerprint).
pub(crate) struct HubBuilder {
    /// Seeds precomputed per graph (the K of top-K).
    top_k: usize,
    /// Where the answers are pinned (its pin budget caps them).
    cache: Arc<ResultCache>,
    state: Mutex<BuildState>,
    /// Signals `in_flight` reaching 0.
    idle: Condvar,
    builds: AtomicU64,
    build_ns: AtomicU64,
}

impl HubBuilder {
    pub(crate) fn new(top_k: usize, cache: Arc<ResultCache>) -> HubBuilder {
        HubBuilder {
            top_k,
            cache,
            state: Mutex::new(BuildState::default()),
            idle: Condvar::new(),
            builds: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
        }
    }

    /// Start a background build for `front`'s graph unless its
    /// fingerprint was already claimed. Returns immediately — the graph
    /// serves normal (miss-path) queries while the build runs.
    pub(crate) fn spawn_build(self: &Arc<HubBuilder>, front: &Arc<GraphFront>) {
        if self.top_k == 0 {
            return;
        }
        let fingerprint = front.fingerprint();
        {
            let mut st = self.state.lock().unwrap();
            if !st.claimed.insert(fingerprint) {
                return;
            }
            st.in_flight += 1;
        }
        let store = Arc::clone(self);
        let front = Arc::clone(front);
        let spawned = std::thread::Builder::new()
            .name("hk-hub-build".into())
            .spawn(move || {
                store.build(&front);
                let mut st = store.state.lock().unwrap();
                st.in_flight -= 1;
                store.idle.notify_all();
            });
        if spawned.is_err() {
            // Could not spawn: roll the claim back so a later routing
            // call retries the build.
            let mut st = self.state.lock().unwrap();
            st.claimed.remove(&fingerprint);
            st.in_flight -= 1;
            self.idle.notify_all();
        }
    }

    /// Precompute the top-K hub seeds of one graph. Runs on the build
    /// thread; every step mirrors the scheduler's submit/execute pipeline
    /// so the stored bytes are bit-identical to a cold recomputation.
    fn build(&self, front: &GraphFront) {
        let started = Instant::now();
        // Default knobs through the same canonicalization the submit path
        // applies — the stored key and the computation agree exactly.
        let Ok((params, params_key)) = front.canonical_params(&Knobs::default()) else {
            return;
        };
        let graph = front.graph();
        let mut seeds: Vec<NodeId> = (0..graph.num_nodes() as NodeId)
            .filter(|&v| graph.degree(v) > 0)
            .collect();
        // Deterministic hub selection: degree descending, id ascending.
        seeds.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        seeds.truncate(self.top_k);
        let mut scratch = QueryScratch::new();
        let clusterer = LocalClusterer::new(graph);
        for seed in seeds {
            let Ok((result, _, _)) = execute(
                &clusterer,
                &mut scratch,
                seed,
                Method::TeaPlus,
                &params,
                0,
                AnytimeControls::default(),
            ) else {
                continue;
            };
            let key = CacheKey {
                fingerprint: front.fingerprint(),
                seed,
                rng_seed: 0,
                params: params_key,
                method: Method::TeaPlus,
            };
            if !self.cache.pin(key, Arc::new(result)) {
                // Budget full: later (lower-degree, colder) seeds are the
                // right ones to drop.
                break;
            }
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.build_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Block until no build is running — what tests and benchmarks call
    /// to make "the store is populated" a deterministic precondition.
    pub(crate) fn wait_idle(&self) {
        let mut st = self.state.lock().unwrap();
        while st.in_flight > 0 {
            st = self.idle.wait(st).unwrap();
        }
    }

    pub(crate) fn stats(&self) -> HubStats {
        HubStats {
            builds: self.builds.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
        }
    }
}
