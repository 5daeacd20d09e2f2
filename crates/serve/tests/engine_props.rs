//! Property tests for the serving engine, extending the equivalence-test
//! style of `crates/core/tests/equivalence.rs` to the serving layer:
//!
//! 1. **Cache soundness** — a cache hit is byte-identical to a cold
//!    recomputation of the same request on a cacheless engine;
//! 2. **Shed isolation** — deadline-shed requests never corrupt worker
//!    scratch state (results computed after arbitrary interleavings of
//!    shed and served requests match a fresh engine's);
//! 3. **Batch equivalence** — engine answers equal sequential
//!    `run_batch` answers for any worker count, and `run_batch` itself is
//!    thread-count invariant; the same check runs over the two committed
//!    snapshots served by one `MultiEngine`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hk_cluster::{LocalClusterer, Method, QueryScratch};
use hk_graph::Graph;
use hk_serve::{
    run_batch, CacheOutcome, EngineConfig, Knobs, MultiEngine, MultiEngineConfig, ParamsKey,
    QueryRequest, QueryResponse,
};
use hkpr_core::HkprParams;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A small deterministic test graph per case index.
fn test_graph(case: u64) -> Arc<Graph> {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ case);
    let g = match case % 3 {
        0 => {
            hk_graph::gen::planted_partition(3, 30, 0.4, 0.02, &mut rng)
                .unwrap()
                .graph
        }
        1 => hk_graph::gen::holme_kim(120, 3, 0.4, &mut rng).unwrap(),
        _ => hk_graph::gen::erdos_renyi_gnm(90, 260, &mut rng).unwrap(),
    };
    Arc::new(g)
}

/// The registry name of the one graph `cacheless` and `cached` serve.
const G: &str = "g";

fn single_graph(graph: &Arc<Graph>, engine: EngineConfig) -> MultiEngine {
    let me = MultiEngine::new(MultiEngineConfig {
        engine,
        ..MultiEngineConfig::default()
    });
    me.registry().register_graph(G, Arc::clone(graph));
    me
}

fn cacheless(graph: &Arc<Graph>, workers: usize) -> MultiEngine {
    single_graph(
        graph,
        EngineConfig {
            workers,
            cache_bytes: 0,
            ..EngineConfig::default()
        },
    )
}

fn cached(graph: &Arc<Graph>, workers: usize) -> MultiEngine {
    single_graph(
        graph,
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    )
}

/// Every engine answer must equal, byte for byte, sequential `run_batch`
/// of the same seed on the same RNG stream. The engine canonicalizes
/// knobs, so the reference params are built from the request's
/// *canonical* bucket, exactly as the engine builds them.
fn assert_equals_canonical_run_batch(
    graph: &Graph,
    requests: impl IntoIterator<Item = QueryRequest>,
    query: impl Fn(QueryRequest) -> QueryResponse,
) {
    let clusterer = LocalClusterer::new(graph);
    for req in requests {
        let delta = req.knobs.delta.unwrap_or(1.0 / graph.num_nodes() as f64);
        let canon = ParamsKey::new(req.knobs.t, req.knobs.eps_r, delta, req.knobs.p_f).canonical();
        let params = HkprParams::builder(graph)
            .t(canon.0)
            .eps_r(canon.1)
            .delta(canon.2)
            .p_f(canon.3)
            .c(2.5)
            .build()
            .unwrap();
        let batch = run_batch(
            &clusterer,
            req.method,
            &[req.seed],
            &params,
            req.rng_seed,
            1,
        );
        assert!(
            query(req).result.bitwise_eq(batch[0].as_ref().unwrap()),
            "engine diverged from sequential run_batch on seed {}",
            req.seed
        );
    }
}

/// The same equivalence where it ships: the two committed snapshots
/// behind one `MultiEngine` (one shared pool, one shared cache), default
/// knobs, the push-bound and the walk-bound estimator.
#[test]
fn multi_engine_over_committed_snapshots_equals_run_batch() {
    let me = MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        ..MultiEngineConfig::default()
    });
    let data = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
    for name in ["plc", "3d-grid"] {
        me.registry()
            .register_path(name, data.join(format!("{name}.x4.hkg")));
    }
    for name in ["plc", "3d-grid"] {
        let (graph, _) = me.registry().get(name).unwrap();
        let requests = [
            Method::TeaPlus,
            Method::MonteCarlo {
                max_walks: Some(10_000),
            },
        ]
        .into_iter()
        .flat_map(|method| [0u32, 500, 999].map(|s| QueryRequest::new(s).method(method)));
        assert_equals_canonical_run_batch(&graph, requests, |req| me.query(name, req).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache hit == cold recompute, byte for byte, across methods, seeds,
    /// RNG streams and knob buckets.
    #[test]
    fn cache_hit_equals_cold_recompute(
        case in 0u64..6,
        seed in 0u32..80,
        rng_seed in 0u64..1000,
        method_ix in 0usize..3,
        delta_exp in 2u32..4,
    ) {
        let graph = test_graph(case);
        let method = [
            Method::TeaPlus,
            Method::Tea,
            Method::MonteCarlo { max_walks: Some(20_000) },
        ][method_ix];
        let knobs = Knobs { delta: Some(10f64.powi(-(delta_exp as i32))), ..Knobs::default() };
        let req = QueryRequest::new(seed).method(method).knobs(knobs).rng_seed(rng_seed);

        let warm_engine = cached(&graph, 2);
        let miss = warm_engine.query(G, req).unwrap();
        prop_assert_eq!(miss.outcome, CacheOutcome::Miss);
        let hit = warm_engine.query(G, req).unwrap();
        prop_assert_eq!(hit.outcome, CacheOutcome::Hit);
        prop_assert!(miss.result.bitwise_eq(&hit.result), "hit differs from its own miss");

        // A cold engine (no cache, fresh workers) recomputes the same bytes.
        let cold_engine = cacheless(&graph, 1);
        let cold = cold_engine.query(G, req).unwrap();
        prop_assert_eq!(cold.outcome, CacheOutcome::Uncached);
        prop_assert!(hit.result.bitwise_eq(&cold.result), "hit differs from cold recompute");
    }

    /// Interleaving shed requests (expired deadlines) and estimator
    /// errors with real queries leaves worker scratch state intact: every
    /// served result still equals a fresh engine's answer.
    #[test]
    fn shed_requests_do_not_corrupt_workers(
        case in 0u64..6,
        seeds in prop::collection::vec(0u32..80, 1..8),
        shed_mask in prop::collection::vec(any::<bool>(), 8..9),
    ) {
        let graph = test_graph(case);
        // One worker so every request funnels through the same scratch.
        let engine = cacheless(&graph, 1);
        let mut served = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            if shed_mask[i % shed_mask.len()] {
                // An already-expired deadline: worker-side shed (submit
                // first so the job reaches the queue, not the submit-time
                // check — force it by building the request by hand).
                let mut req = QueryRequest::new(seed);
                req.deadline = Some(Instant::now() - Duration::from_millis(1));
                prop_assert!(engine.query(G, req).is_err());
                // And an estimator error through the same worker.
                prop_assert!(engine.query(G, QueryRequest::new(u32::MAX)).is_err());
            }
            served.push((seed, engine.query(G, QueryRequest::new(seed).rng_seed(i as u64)).unwrap()));
        }
        // A fresh engine, no shedding, must reproduce every served byte.
        let fresh = cacheless(&graph, 1);
        for (i, (seed, resp)) in served.iter().enumerate() {
            let again = fresh.query(G, QueryRequest::new(*seed).rng_seed(i as u64)).unwrap();
            prop_assert!(resp.result.bitwise_eq(&again.result),
                "seed {seed} diverged after shed interleaving");
        }
    }

    /// Engine answers == sequential run_batch answers for any worker
    /// count, and run_batch is itself invariant across thread counts.
    #[test]
    fn engine_equals_sequential_run_batch(
        case in 0u64..6,
        seeds in prop::collection::vec(0u32..80, 1..10),
        workers in 1usize..5,
        rng_seed in 0u64..500,
    ) {
        let graph = test_graph(case);
        let params = HkprParams::builder(&graph).delta(1e-3).p_f(0.01).build().unwrap();
        let clusterer = LocalClusterer::new(&graph);

        // Ground truth: the plain sequential loop over one scratch.
        let mut scratch = QueryScratch::new();
        let reference: Vec<_> = seeds.iter().enumerate().map(|(i, &s)| {
            clusterer.run_in(Method::TeaPlus, s, &params, rng_seed.wrapping_add(i as u64), &mut scratch)
        }).collect();

        // run_batch at an arbitrary thread count.
        let batch = run_batch(&clusterer, Method::TeaPlus, &seeds, &params, rng_seed, workers);
        for (r, b) in reference.iter().zip(batch.iter()) {
            match (r, b) {
                (Ok(r), Ok(b)) => prop_assert!(r.bitwise_eq(b), "run_batch diverged"),
                (Err(r), Err(b)) => prop_assert_eq!(r, b),
                _ => prop_assert!(false, "ok/err mismatch"),
            }
        }

        // The persistent engine with the same per-request streams.
        let engine = cacheless(&graph, workers);
        let knobs = Knobs { delta: Some(1e-3), p_f: 0.01, ..Knobs::default() };
        let requests = seeds.iter().enumerate().map(|(i, &s)| {
            QueryRequest::new(s).knobs(knobs).rng_seed(rng_seed.wrapping_add(i as u64))
        });
        assert_equals_canonical_run_batch(&graph, requests, |req| engine.query(G, req).unwrap());
    }
}
