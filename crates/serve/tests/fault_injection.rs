//! Robustness under injected faults (`--features testing`).
//!
//! Every test arms the process-global fault registry (`hk_serve::fault`),
//! so the whole suite serializes on one mutex and disarms on exit. The
//! sites exercised: `registry.load` (transient load failures + retry
//! convergence), `sched.dequeue` (worker panic containment and typed
//! internal errors), `cache.insert` (insertion failures degrade to
//! cache-miss behavior, never to wrong answers), `core.push_tier`
//! (faults mid-push-ladder yield typed degraded answers or contained
//! panics, never a corrupted worker scratch or a poisoned cache — and
//! only on worker queries: `run_batch` and hub builds run the same
//! execution core without the failpoint).

#![cfg(feature = "testing")]

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use hk_cluster::{ClusterResult, LocalClusterer, Method};
use hk_graph::gen::planted_partition;
use hk_graph::{Graph, NodeId};
use hk_serve::fault::{self, Fault};
use hk_serve::{
    run_batch, CacheOutcome, EngineConfig, GraphRegistry, Knobs, MultiEngine, MultiEngineConfig,
    QueryRequest, ServeError,
};
use hkpr_core::HkprParams;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Serializes every test in this file (the fault registry is global) and
/// guarantees a clean slate on entry + leak detection on exit.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn armed() -> FaultGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear_all();
    FaultGuard(guard)
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let leaked = fault::armed();
        fault::clear_all();
        if !std::thread::panicking() {
            assert!(leaked.is_empty(), "test leaked armed faults: {leaked:?}");
        }
    }
}

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

/// A loader that counts its invocations (the *loader's* count excludes
/// attempts the injected fault failed before reaching it).
fn counting_registry() -> (GraphRegistry, Arc<AtomicU32>) {
    let reg = GraphRegistry::new(0);
    let calls = Arc::new(AtomicU32::new(0));
    let g = graph();
    let c = Arc::clone(&calls);
    reg.register("g", move || {
        c.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::clone(&g))
    });
    (reg, calls)
}

#[test]
fn flaky_registry_load_retries_then_converges() {
    let _guard = armed();
    let (reg, loader_calls) = counting_registry();
    // Two injected failures, then the healthy loader: get() must absorb
    // both behind capped-backoff retries and come back Ok.
    fault::inject("registry.load", Fault::Error, 2);
    let (g, _) = reg.get("g").expect("flaky-then-healthy load converges");
    assert_eq!(g.num_nodes(), 160);
    let stats = reg.stats();
    assert_eq!(stats.loads, 1);
    assert_eq!(stats.load_attempts, 3, "2 injected failures + 1 success");
    assert_eq!(stats.load_retries, 2);
    assert_eq!(loader_calls.load(Ordering::Relaxed), 1);
    // Resident now: no further attempts.
    reg.get("g").expect("resident hit");
    assert_eq!(reg.stats().load_attempts, 3);
}

#[test]
fn exhausted_retries_fail_typed_and_the_entry_recovers() {
    let _guard = armed();
    let (reg, loader_calls) = counting_registry();
    // More consecutive failures than the retry budget: the load fails
    // with a typed error, every attempt is accounted, and the entry is
    // not wedged — the next get() (fault disarmed) loads fine.
    fault::inject("registry.load", Fault::Error, 16);
    let err = reg.get("g").expect_err("retry budget exhausted");
    assert!(matches!(err, ServeError::GraphLoad { .. }), "got {err:?}");
    let stats = reg.stats();
    assert_eq!(stats.loads, 0);
    assert_eq!(stats.load_attempts, 4);
    assert_eq!(stats.load_retries, 3);
    assert_eq!(loader_calls.load(Ordering::Relaxed), 0);
    fault::clear_all();
    reg.get("g").expect("entry recovers after the fault clears");
    assert_eq!(reg.stats().loads, 1);
}

#[test]
fn worker_panic_is_contained_and_the_pool_survives() {
    let _guard = armed();
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    e.query(G, QueryRequest::new(7)).expect("warm-up query");
    assert!(
        e.stats().workspace_bytes > 0,
        "the worker sized its scratch"
    );
    fault::inject("sched.dequeue", Fault::Panic, 1);
    let err = e
        .query(G, QueryRequest::new(2))
        .expect_err("injected panic must surface as an error");
    match &err {
        ServeError::Internal { detail } => {
            assert!(detail.contains("injected panic"), "detail: {detail}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    let stats = e.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(
        stats.workspace_bytes, 0,
        "the rebuilt scratch holds nothing"
    );
    // The sole worker survived with a rebuilt scratch: the same engine
    // answers the next query bit-identically to a fresh engine, from a
    // scratch of the same size.
    let again = e.query(G, QueryRequest::new(2)).expect("pool survives");
    let fresh_engine = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let fresh = fresh_engine.query(G, QueryRequest::new(2)).unwrap();
    assert!(again.result.bitwise_eq(&fresh.result));
    assert_eq!(
        e.stats().workspace_bytes,
        fresh_engine.stats().workspace_bytes
    );
    assert_eq!(e.stats().panics, 1, "exactly one panic, ever");
}

#[test]
fn dequeue_fault_yields_internal_without_a_panic() {
    let _guard = armed();
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    fault::inject("sched.dequeue", Fault::Error, 1);
    let err = e
        .query(G, QueryRequest::new(3))
        .expect_err("injected error");
    assert!(matches!(err, ServeError::Internal { .. }), "got {err:?}");
    let stats = e.stats();
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.completed, 0);
    e.query(G, QueryRequest::new(3))
        .expect("engine still serves");
}

#[test]
fn cache_insert_panic_fails_leader_and_followers_alike() {
    let _guard = armed();
    // One worker + a slow query so followers reliably coalesce onto the
    // leader's flight; the panic fires *after* compute, at insertion.
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    fault::inject("cache.insert", Fault::Panic, 1);
    let req = QueryRequest::new(5)
        .method(Method::MonteCarlo {
            max_walks: Some(3_000_000),
        })
        .knobs(Knobs {
            delta: Some(1e-8),
            ..Knobs::default()
        });
    let tickets: Vec<_> = (0..3).map(|_| e.submit(G, req).unwrap()).collect();
    let mut internals = 0;
    for t in tickets {
        match t.wait() {
            Err(ServeError::Internal { .. }) => internals += 1,
            other => panic!("expected Internal for leader and followers, got {other:?}"),
        }
    }
    assert_eq!(internals, 3, "flight settlement broadcasts the failure");
    let stats = e.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.cache.insertions, 0);
    // Survival + no poisoned cache entry: recompute is a Miss, then Ok.
    let resp = e.query(G, req).expect("engine survives the insert panic");
    assert_eq!(resp.outcome, CacheOutcome::Miss);
}

#[test]
fn cache_insert_error_degrades_to_miss_behavior() {
    let _guard = armed();
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    fault::inject("cache.insert", Fault::Error, 1);
    // The insert is skipped but the computed answer is still served.
    let first = e
        .query(G, QueryRequest::new(7))
        .expect("answer still served");
    assert_eq!(first.outcome, CacheOutcome::Miss);
    assert_eq!(e.stats().cache.insertions, 0);
    // Degraded cleanly to miss behavior: the repeat recomputes (no Hit),
    // inserts normally, and is bit-identical.
    let second = e.query(G, QueryRequest::new(7)).expect("repeat");
    assert_eq!(second.outcome, CacheOutcome::Miss);
    assert!(second.result.bitwise_eq(&first.result));
    assert_eq!(e.stats().cache.insertions, 1);
    // Third time really is the cache.
    assert_eq!(
        e.query(G, QueryRequest::new(7)).unwrap().outcome,
        CacheOutcome::Hit
    );
}

#[test]
fn dequeue_delay_makes_single_flight_coalescing_deterministic() {
    let _guard = armed();
    // Delay the leader inside the worker: the follower submits land while
    // the flight is provably open, so coalescing is not a race.
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    fault::inject("sched.dequeue", Fault::Delay(Duration::from_millis(100)), 1);
    let req = QueryRequest::new(9);
    let tickets: Vec<_> = (0..3).map(|_| e.submit(G, req).unwrap()).collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("delayed flight completes"))
        .collect();
    let misses = responses
        .iter()
        .filter(|r| r.outcome == CacheOutcome::Miss)
        .count();
    let coalesced = responses
        .iter()
        .filter(|r| r.outcome == CacheOutcome::Coalesced)
        .count();
    assert_eq!((misses, coalesced), (1, 2), "one leader, two followers");
    for r in &responses[1..] {
        assert!(r.result.bitwise_eq(&responses[0].result));
    }
    assert_eq!(e.stats().cache.coalesced, 2);
}

/// A TEA+ request whose push certifies all three coarsened tiers on the
/// fixture graph *and* still leaves a real walk phase (~5.7k walks), so
/// `core.push_tier` faults land mid-ladder with work on both sides.
fn push_heavy_request(seed: u32) -> QueryRequest {
    QueryRequest::new(seed).knobs(Knobs {
        delta: Some(1e-6),
        ..Knobs::default()
    })
}

#[test]
fn push_tier_fault_degrades_typed_and_never_caches() {
    let _guard = armed();
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // Error at the first certified tier: the push stops as if cancelled,
    // but one coarsened tier is banked — a typed degraded answer, not an
    // error, and never a cache entry.
    fault::inject("core.push_tier", Fault::Error, 1);
    let resp = e
        .query(G, push_heavy_request(2))
        .expect("one certified tier converts the fault into a degraded answer");
    let d = resp.degraded.as_ref().expect("degraded marker present");
    assert!(
        d.achieved.push_tiers_completed >= 1
            && d.achieved.push_tiers_completed < d.achieved.push_tiers_planned,
        "push tiers {}/{}",
        d.achieved.push_tiers_completed,
        d.achieved.push_tiers_planned
    );
    // The walk phase still ran to completion on the coarsened reserve.
    assert_eq!(d.achieved.walks_done, d.achieved.walks_planned);
    assert!(d.achieved.walks_planned > 0);
    assert_eq!(resp.outcome, CacheOutcome::Uncached);
    let stats = e.stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.cancelled_running, 0);
    assert_eq!(stats.cache.insertions, 0, "degraded push is never cached");
    // The fault left the worker's scratch clean: the clean re-query on
    // the same worker is full accuracy and bitwise a fresh engine's.
    let clean = e.query(G, push_heavy_request(2)).expect("clean re-query");
    assert!(clean.degraded.is_none());
    assert_eq!(clean.outcome, CacheOutcome::Miss);
    let fresh = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    })
    .query(G, push_heavy_request(2))
    .unwrap();
    assert!(clean.result.bitwise_eq(&fresh.result));
}

#[test]
fn push_tier_panic_is_contained_and_scratch_rebuilt() {
    let _guard = armed();
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    fault::inject("core.push_tier", Fault::Panic, 1);
    let err = e
        .query(G, push_heavy_request(2))
        .expect_err("mid-ladder panic surfaces as an error");
    match &err {
        ServeError::Internal { detail } => {
            assert!(detail.contains("injected panic"), "detail: {detail}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    let stats = e.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.cache.insertions, 0);
    // The worker rebuilt its scratch: same engine, bitwise-fresh answer.
    let again = e.query(G, push_heavy_request(2)).expect("pool survives");
    assert!(again.degraded.is_none());
    let fresh = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    })
    .query(G, push_heavy_request(2))
    .unwrap();
    assert!(again.result.bitwise_eq(&fresh.result));
}

#[test]
fn push_tier_delay_lets_the_watchdog_degrade_mid_push() {
    let _guard = armed();
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // Hold the push at its first certifying hop boundary for 300ms with a
    // 50ms deadline: the watchdog reliably fires *during the push*, and
    // the banked tier turns the cancellation into a typed degraded
    // answer instead of ServeError::Cancelled.
    fault::inject(
        "core.push_tier",
        Fault::Delay(Duration::from_millis(300)),
        1,
    );
    let resp = e
        .query(
            G,
            push_heavy_request(2).deadline_in(Duration::from_millis(50)),
        )
        .expect("certified tier converts mid-push cancellation");
    let d = resp.degraded.as_ref().expect("degraded marker present");
    assert!(d.achieved.is_degraded());
    assert!(
        d.achieved.push_tiers_completed >= 1,
        "the delayed boundary had already certified a tier"
    );
    assert!(d.after >= Duration::from_millis(50));
    assert_eq!(resp.outcome, CacheOutcome::Uncached);
    let stats = e.stats();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.cache.insertions, 0);
}

#[test]
fn push_tier_fault_marker_is_shared_by_coalesced_followers() {
    let _guard = armed();
    let e = engine(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    // Delay the leader's dequeue so the followers provably coalesce onto
    // its flight, then degrade the leader's push: settlement must hand
    // every follower the same result *and* the same degraded marker.
    fault::inject("sched.dequeue", Fault::Delay(Duration::from_millis(100)), 1);
    fault::inject("core.push_tier", Fault::Error, 1);
    let req = push_heavy_request(2);
    let tickets: Vec<_> = (0..3).map(|_| e.submit(G, req).unwrap()).collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("degraded flight completes"))
        .collect();
    let uncached = responses
        .iter()
        .filter(|r| r.outcome == CacheOutcome::Uncached)
        .count();
    let coalesced = responses
        .iter()
        .filter(|r| r.outcome == CacheOutcome::Coalesced)
        .count();
    assert_eq!((uncached, coalesced), (1, 2), "one leader, two followers");
    let leader_tiers = responses[0]
        .degraded
        .as_ref()
        .expect("leader is degraded")
        .achieved
        .push_tiers_completed;
    for r in &responses {
        let d = r.degraded.as_ref().expect("followers share the marker");
        assert_eq!(d.achieved.push_tiers_completed, leader_tiers);
        assert!(r.result.bitwise_eq(&responses[0].result));
    }
    assert_eq!(e.stats().cache.insertions, 0, "nothing cached");
    // The degraded flight left no cache entry behind: a clean repeat is
    // a Miss (recomputed at full accuracy), not a Hit on degraded bytes.
    let clean = e.query(G, req).expect("clean repeat");
    assert_eq!(clean.outcome, CacheOutcome::Miss);
    assert!(clean.degraded.is_none());
}

/// Build the hub store for the fixture graph's top-`k` seeds and read
/// the pinned answers back (hub lookups happen at submit, off the
/// workers). The build is triggered by a TEA query: it routes through
/// the front like any request but has no push ladder to fault.
fn hub_answers(g: &Arc<Graph>, seeds: &[NodeId]) -> Vec<Arc<ClusterResult>> {
    let me = MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        hub_top_k: seeds.len(),
        ..MultiEngineConfig::default()
    });
    me.registry().register_graph(G, Arc::clone(g));
    me.query(G, QueryRequest::new(0).method(Method::Tea))
        .unwrap();
    me.wait_hub_builds();
    seeds
        .iter()
        .map(|&seed| {
            let resp = me.query(G, QueryRequest::new(seed)).unwrap();
            assert_eq!(resp.outcome, CacheOutcome::Precomputed, "seed {seed}");
            resp.result
        })
        .collect()
}

#[test]
fn push_tier_fault_never_reaches_run_batch_or_hub_builds() {
    let _guard = armed();
    let g = graph();
    // The hub store's own selection: degree descending, id ascending.
    let mut seeds: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    seeds.sort_unstable_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    seeds.truncate(6);
    let clusterer = LocalClusterer::new(&g);
    // The knobs of `push_heavy_request`: every coarsened tier certifies.
    let params = HkprParams::builder(&g).delta(1e-6).build().unwrap();
    let batch = || run_batch(&clusterer, Method::TeaPlus, &seeds, &params, 7, 2);

    let clean_batch = batch();
    let clean_hubs = hub_answers(&g, &seeds);

    // One shot is enough: if either path reached the failpoint, the site
    // would disarm (and the answer would degrade or differ).
    fault::inject("core.push_tier", Fault::Error, 1);
    let faulted_batch = batch();
    let faulted_hubs = hub_answers(&g, &seeds);
    assert_eq!(fault::armed(), ["core.push_tier"], "the failpoint fired");
    for (i, &seed) in seeds.iter().enumerate() {
        let (clean, faulted) = (
            clean_batch[i].as_ref().unwrap(),
            faulted_batch[i].as_ref().unwrap(),
        );
        assert!(clean.bitwise_eq(faulted), "run_batch seed {seed}");
        assert!(
            clean_hubs[i].bitwise_eq(&faulted_hubs[i]),
            "hub entry seed {seed}"
        );
    }

    // The very computations above do reach it on a worker: the hub
    // build's own request (default knobs), then the batch's.
    let e = engine(EngineConfig {
        workers: 1,
        cache_bytes: 0,
        ..EngineConfig::default()
    });
    for req in [QueryRequest::new(seeds[0]), push_heavy_request(seeds[0])] {
        fault::inject("core.push_tier", Fault::Error, 1);
        let resp = e.query(G, req).unwrap();
        assert!(resp.degraded.is_some(), "worker queries keep the failpoint");
        assert!(fault::armed().is_empty());
    }
}
