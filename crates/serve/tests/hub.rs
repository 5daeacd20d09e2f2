//! Hub-precomputation properties:
//!
//! * a hub-served answer is **bitwise identical** to a cold recompute of
//!   the same request on a hub-less, cache-less engine (the acceptance
//!   bar for the store);
//! * hub seeds hit (`CacheOutcome::Precomputed`) even with the result
//!   cache disabled — the "instant answers on a cold cache" claim;
//! * evict/reload of the same snapshot neither rebuilds nor invalidates
//!   the store (fingerprint dedupe + fingerprint keys);
//! * the store is off by default and its stats read zero.

use std::sync::Arc;

use hk_graph::gen::planted_partition;
use hk_graph::{Graph, NodeId};
use hk_serve::{CacheOutcome, EngineConfig, MultiEngine, MultiEngineConfig, QueryRequest};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn make_graph(seed: u64) -> Arc<Graph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    Arc::new(planted_partition(3, 40, 0.3, 0.02, &mut rng).unwrap().graph)
}

/// Top-degree seeds in the store's deterministic selection order
/// (degree descending, id ascending).
fn hub_seeds(graph: &Graph, k: usize) -> Vec<NodeId> {
    let mut seeds: Vec<NodeId> = (0..graph.num_nodes() as NodeId)
        .filter(|&v| graph.degree(v) > 0)
        .collect();
    seeds.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    seeds.truncate(k);
    seeds
}

fn hub_engine(top_k: usize, cache_bytes: usize) -> MultiEngine {
    MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: 2,
            cache_bytes,
            ..EngineConfig::default()
        },
        hub_top_k: top_k,
        ..MultiEngineConfig::default()
    })
}

/// Route one request so the front exists and the background build has
/// been spawned, then wait for it.
fn populate(me: &MultiEngine, graph: &str) {
    me.query(graph, QueryRequest::new(0)).unwrap();
    me.wait_hub_builds();
}

#[test]
fn hub_answers_bitwise_identical_to_cold_recompute() {
    let g = make_graph(900);
    let k = 8;

    let hubbed = hub_engine(k, 1 << 20);
    hubbed.registry().register_graph("g", Arc::clone(&g));
    populate(&hubbed, "g");

    // Oracle: no hubs, no cache — every answer is a genuine cold
    // recomputation on the shared pool.
    let cold = hub_engine(0, 0);
    cold.registry().register_graph("g", Arc::clone(&g));

    for seed in hub_seeds(&g, k) {
        let served = hubbed.query("g", QueryRequest::new(seed)).unwrap();
        assert_eq!(
            served.outcome,
            CacheOutcome::Precomputed,
            "seed {seed} is a top-{k} hub; must be served from the store"
        );
        let recomputed = cold.query("g", QueryRequest::new(seed)).unwrap();
        assert_eq!(recomputed.outcome, CacheOutcome::Uncached);
        assert!(
            served.result.bitwise_eq(&recomputed.result),
            "seed {seed}: precomputed answer diverged from cold recompute"
        );
    }
    let stats = hubbed.hub_stats();
    let pins = hubbed.stats().cache;
    assert_eq!(pins.pinned_entries, k as u64);
    assert_eq!(pins.precomputed, k as u64);
    assert_eq!(stats.builds, 1);
    assert!(pins.pinned_bytes > 0);
    assert!(stats.build_ns > 0);
}

#[test]
fn hub_seeds_hit_with_the_result_cache_disabled() {
    // cache_bytes = 0: no result cache at all. Hub seeds must still be
    // answered instantly; non-hub seeds stay Uncached.
    let g = make_graph(901);
    let me = hub_engine(4, 0);
    me.registry().register_graph("g", Arc::clone(&g));
    populate(&me, "g");

    let hubs = hub_seeds(&g, 4);
    for &seed in &hubs {
        let resp = me.query("g", QueryRequest::new(seed)).unwrap();
        assert_eq!(resp.outcome, CacheOutcome::Precomputed);
    }
    let non_hub = (0..g.num_nodes() as NodeId)
        .find(|v| !hubs.contains(v) && g.degree(*v) > 0)
        .unwrap();
    let resp = me.query("g", QueryRequest::new(non_hub)).unwrap();
    assert_eq!(resp.outcome, CacheOutcome::Uncached);

    // A different rng stream or method is a different key: no false hits.
    let resp = me
        .query("g", QueryRequest::new(hubs[0]).rng_seed(1))
        .unwrap();
    assert_eq!(resp.outcome, CacheOutcome::Uncached);

    let per_graph = me.per_graph_stats();
    let (_, stats) = per_graph.iter().find(|(n, _)| n == "g").unwrap();
    assert_eq!(stats.precomputed, 4);
}

#[test]
fn evict_reload_neither_rebuilds_nor_invalidates_the_store() {
    let g = make_graph(902);
    let me = hub_engine(4, 1 << 20);
    me.registry().register_graph("g", Arc::clone(&g));
    populate(&me, "g");
    let seed = hub_seeds(&g, 1)[0];
    let before = me.query("g", QueryRequest::new(seed)).unwrap();
    assert_eq!(before.outcome, CacheOutcome::Precomputed);

    // Evict and reload the same snapshot: the fingerprint is unchanged,
    // so the store keeps serving and no second build runs.
    me.registry().evict("g");
    let after = me.query("g", QueryRequest::new(seed)).unwrap();
    me.wait_hub_builds();
    assert_eq!(after.outcome, CacheOutcome::Precomputed);
    assert!(after.result.bitwise_eq(&before.result));
    assert_eq!(me.hub_stats().builds, 1, "fingerprint dedupe must hold");

    // A *different* graph registered under the same name must not be
    // served stale hub answers (its fingerprint differs), and gets its
    // own build instead.
    let g2 = make_graph(903);
    me.registry().register_graph("g", Arc::clone(&g2));
    let swapped = me.query("g", QueryRequest::new(seed)).unwrap();
    me.wait_hub_builds();
    assert_ne!(swapped.outcome, CacheOutcome::Precomputed);
    assert_eq!(me.hub_stats().builds, 2);
    let hub2 = hub_seeds(&g2, 1)[0];
    let resp = me.query("g", QueryRequest::new(hub2)).unwrap();
    assert_eq!(resp.outcome, CacheOutcome::Precomputed);
}

#[test]
fn hub_store_is_off_by_default_and_stats_read_zero() {
    let me = MultiEngine::new(MultiEngineConfig::default());
    me.registry().register_graph("g", make_graph(904));
    me.query("g", QueryRequest::new(0)).unwrap();
    me.wait_hub_builds(); // no-op, must not hang
    let stats = me.hub_stats();
    assert_eq!(stats, hk_serve::HubStats::default());
    let seed_resp = me.query("g", QueryRequest::new(0)).unwrap();
    assert_eq!(seed_resp.outcome, CacheOutcome::Hit, "normal cache path");
}

#[test]
fn byte_budget_caps_pinned_seeds_in_degree_order() {
    let g = make_graph(905);
    // First, learn the per-result size with an unlimited build.
    let probe = hub_engine(2, 1 << 20);
    probe.registry().register_graph("g", Arc::clone(&g));
    populate(&probe, "g");
    let full = probe.stats().cache;
    assert_eq!(full.pinned_entries, 2);

    // Now budget for roughly one result: the build must stop early and
    // keep the highest-degree seed (it is processed first).
    let me = MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: 2,
            cache_bytes: 0,
            ..EngineConfig::default()
        },
        hub_top_k: 2,
        hub_bytes: (full.pinned_bytes as usize / 2).max(1),
        ..MultiEngineConfig::default()
    });
    me.registry().register_graph("g", Arc::clone(&g));
    populate(&me, "g");
    let capped = me.stats().cache;
    assert!(
        capped.pinned_entries < 2,
        "budget must drop at least the colder seed ({capped:?})"
    );
    assert!(capped.pinned_bytes <= full.pinned_bytes);
    if capped.pinned_entries == 1 {
        let top = hub_seeds(&g, 1)[0];
        let resp = me.query("g", QueryRequest::new(top)).unwrap();
        assert_eq!(resp.outcome, CacheOutcome::Precomputed);
    }
}
