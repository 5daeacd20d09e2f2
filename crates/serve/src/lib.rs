#![warn(missing_docs)]

//! # hk-serve
//!
//! The serving layer of the TEA/TEA+ reproduction: a persistent,
//! multi-tenant [`QueryEngine`] that amortizes work across a stream of
//! local-clustering queries, plus the one-shot [`run_batch`] built on the
//! same execution core.
//!
//! The paper frames TEA/TEA+ as interactive query primitives and notes
//! (§6) that query streams parallelize embarrassingly. PR 1 made a single
//! query allocation-free on a reusable workspace; this crate makes a
//! *service* out of it:
//!
//! * **one shared, deadline-aware worker pool** sized to the host, each
//!   worker owning a long-lived [`hk_cluster::QueryScratch`] that serves
//!   every graph (a multi-graph [`MultiEngine`] runs one pool, not one
//!   per graph);
//! * an **earliest-deadline-first** work queue with a total bound and
//!   per-graph admission quotas — overflow is shed with
//!   [`ServeError::Overloaded`], late requests with
//!   [`ServeError::DeadlineExceeded`], and a request whose deadline
//!   passes *mid-run* is cancelled cooperatively (the scheduler's
//!   watchdog fires the job's [`hkpr_core::CancelToken`]);
//! * **anytime queries**: workers execute the estimator as a ladder of
//!   accuracy tiers, so mid-run cancellation means *stop refining* — if
//!   any tier completed, the response is a typed [`Degraded`] answer
//!   carrying the achieved [`AccuracyTier`] (its final tier is bitwise
//!   identical to an uninterrupted run); only a query that produced no
//!   tier at all fails with [`ServeError::Cancelled`]. Degraded answers
//!   are never cached;
//! * **robustness**: worker panics are contained per-job
//!   ([`ServeError::Internal`], counted in
//!   [`EngineStats::panics`], the worker and its pool survive), transient
//!   registry load failures retry with capped exponential backoff, and a
//!   `testing` feature exposes failpoint-style fault injection
//!   (`fault` module) for the robustness test suite;
//! * one sharded result store ([`cache::ResultCache`]: an LRU tier and
//!   a pinned tier) keyed on seed + quantized accuracy knobs + graph
//!   fingerprint, with **single-flight miss coalescing**:
//!   concurrent identical misses block on one computation and all
//!   receive the identical bytes ([`CacheOutcome::Coalesced`], counted
//!   in `CacheStats::coalesced`);
//! * per-query [`QueryTiming`] (queue, push, walk, sweep) and a
//!   [`CacheOutcome`] on every response, plus scheduler counters
//!   ([`EngineStats`]: queued sheds vs mid-run cancellations, queue
//!   high-water mark, per-graph admission rejections);
//! * a multi-graph layer ([`registry`]): a [`GraphRegistry`] of named,
//!   lazily-loaded snapshots with `Arc` pinning and LRU eviction under a
//!   resident-byte budget, fronted by a [`MultiEngine`] that routes
//!   requests by graph name onto the shared pool (cache keys carry the
//!   graph fingerprint, so evict/reload cycles never invalidate cached
//!   results);
//! * **hub precomputation** ([`hub`]): with
//!   [`MultiEngineConfig::hub_top_k`] set, loading a graph kicks off a
//!   background build that pins full answers for its top-degree seeds in
//!   the cache, so skewed (Zipf) traffic is answered instantly even on a
//!   cold cache — reported as [`CacheOutcome::Precomputed`] and
//!   bit-identical to a cold recomputation.
//!
//! Determinism is inherited from the workspace layer's bit-identical RNG
//! streams, which is what makes the cache *and* coalescing sound: a
//! cached hit, a coalesced follower and a cold recomputation are
//! byte-equal (property-tested), and a batch run is bit-identical at any
//! thread count.
//!
//! ```
//! use std::sync::Arc;
//! use hk_serve::{EngineConfig, QueryEngine, QueryRequest, CacheOutcome};
//! use hk_graph::gen::planted_partition;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let graph = Arc::new(planted_partition(4, 40, 0.4, 0.02, &mut rng).unwrap().graph);
//! let engine = QueryEngine::new(graph, EngineConfig { workers: 2, ..EngineConfig::default() });
//!
//! let cold = engine.query(QueryRequest::new(7)).unwrap();
//! let warm = engine.query(QueryRequest::new(7)).unwrap();
//! assert_eq!(warm.outcome, CacheOutcome::Hit);
//! assert!(cold.result.bitwise_eq(&warm.result));
//! assert!(cold.result.cluster.contains(&7));
//! ```

pub mod cache;
pub mod engine;
#[cfg(feature = "testing")]
pub mod fault;
pub mod hub;
mod queue;
pub mod registry;
mod sched;
mod watchdog;

pub use cache::{CacheKey, CacheStats, FlightClaim, FlightResult, ParamsKey, ResultCache};
pub use engine::{
    run_batch, CacheOutcome, Degraded, EngineConfig, EngineStats, Knobs, QueryEngine, QueryRequest,
    QueryResponse, QueryTiming, ServeError, Ticket,
};
pub use hkpr_core::AccuracyTier;
pub use hub::HubStats;
pub use registry::{GraphRegistry, GraphServeStats, MultiEngine, MultiEngineConfig, RegistryStats};
