//! Serving-layer benchmark: replays a Zipf-skewed seed workload through a
//! persistent [`hk_serve::QueryEngine`] over the bundled `.hkg` datasets
//! and writes `BENCH_serve.json`.
//!
//! Interactive query streams are heavily skewed — a few celebrity seeds
//! absorb most traffic — so the workload draws seeds from a Zipf(s)
//! distribution over a fixed pool. The engine's parameter-keyed result
//! cache turns every repeat into a sub-microsecond-class hit; the report
//! separates hit and miss latency and gives the steady-state throughput,
//! plus the cache and shed counters that make the engine observable.
//!
//! The **multi-graph mode** (`--multi`) replays a two-level Zipf workload
//! — graph picked Zipf-skewed across >= 4 datasets, seed Zipf-skewed
//! within each graph — through a [`hk_serve::MultiEngine`]: datasets are
//! converted to v2 snapshots, registered by path (zero-copy arena loads),
//! and served under a registry byte budget tight enough to force
//! load/evict/reload cycles mid-replay. Since the shared-scheduler
//! rewrite, every graph is served by **one** host-sized worker pool; the
//! report records the serve-thread count (workers + 1 watchdog) and the
//! per-graph-pool thread count the pre-scheduler architecture would have
//! spawned for the same replay.
//!
//! The **scheduler mode** (`--sched`) is a bursty multi-graph replay with
//! mixed deadlines: several client threads submit Zipf-routed queries of
//! three deadline classes (none / generous / tight) plus periodic
//! triple-submit bursts of one fresh key, exercising EDF ordering,
//! queued sheds, mid-run cancellation and single-flight coalescing. The
//! report gives p50/p99 per outcome class and the scheduler counters.
//! `--smoke` shrinks it to a CI-sized replay and *asserts* nonzero
//! coalescing plus bitwise conformance of scheduler answers against the
//! one-shot `run_batch` reference path.
//!
//! The **anytime mode** (`--anytime`) replays walk-heavy Monte Carlo
//! queries under a deadline calibrated to land mid-walk, so the watchdog
//! interrupts tiered refinement rather than letting it finish. It records
//! the degraded-answer rate — the fraction of would-be cancellations that
//! instead returned a typed partial-accuracy answer — and latency
//! bucketed by achieved accuracy tier. `--smoke` asserts a nonzero
//! degraded count, rate >= 0.8, and bitwise conformance of a
//! deadline-free answer against `run_batch`.
//!
//! The **gateway mode** (`--gateway`) replays the Zipf workload over a
//! real loopback TCP connection through [`hk_gateway::Gateway`]: several
//! client threads speak HTTP/1.1 (keep-alive, JSON bodies, a tight
//! `x-deadline-ms` sprinkled in), and the report records throughput and
//! p50/p99 per outcome class (hit / miss / coalesced / degraded /
//! error) — the network-edge overhead on top of the in-process numbers.
//! `--smoke` additionally curls `/healthz` and `/metrics` and asserts
//! **bitwise conformance of over-the-wire batch answers** against the
//! one-shot `run_batch` reference: rendered result text is injective on
//! f64 bits, so string equality is bit equality.
//!
//! The **shard mode** (`--shard`) measures the sharded multi-process
//! tier: it spawns fleets of `N ∈ {1, 2, 4}` real `hk-shardd` processes
//! over one committed snapshot, replays a walk-heavy TEA+ seed batch
//! through a [`hk_shard::ShardCoordinator`] at each N, and records the
//! scaling curve (replay seconds, QPS, speedup vs `N = 1`) next to the
//! single-process one-owner reference
//! (`LocalClusterer::run_tea_plus_one_owner`). Bitwise conformance against
//! that reference is asserted at **every** N as part of the run — the
//! scaling numbers are only meaningful if the answers are identical.
//! Requires `hk-shardd` to be built first
//! (`cargo build --release -p hk-shard`).
//!
//! Usage: `cargo run --release -p hk-bench --bin serve_bench --
//! [--out FILE] [--queries N] [--pool K] [--zipf S] [--workers N]
//! [--cache-mb M] [--datasets a,b] [--multi] [--budget-mb M]
//! [--sched] [--anytime] [--gateway] [--shard] [--hubs] [--smoke]`

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hk_bench::{pick_seeds, DatasetId, Datasets};
use hk_cluster::{ClusterResult, LocalClusterer, Method, QueryScratch};
use hk_gateway::{json::Json, Gateway, GatewayConfig};
use hk_graph::Graph;
use hk_serve::{
    run_batch, CacheOutcome, EngineConfig, Knobs, MultiEngine, MultiEngineConfig, ParamsKey,
    QueryEngine, QueryRequest, ServeError,
};
use hk_shard::{QueryKnobs, ShardCoordinator};
use hkpr_core::HkprParams;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Inverse-CDF Zipf sampler over ranks `0..k` (weight `1/(r+1)^s`).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(k: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(k);
        let mut acc = 0.0;
        for r in 0..k {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let ix = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[ix]
}

struct LatencySummary {
    count: usize,
    avg_us: f64,
    p50_us: f64,
    p99_us: f64,
}

fn summarize(mut us: Vec<f64>) -> LatencySummary {
    us.sort_unstable_by(f64::total_cmp);
    let count = us.len();
    let avg = if count == 0 {
        0.0
    } else {
        us.iter().sum::<f64>() / count as f64
    };
    LatencySummary {
        count,
        avg_us: avg,
        p50_us: percentile(&us, 0.50),
        p99_us: percentile(&us, 0.99),
    }
}

/// Per-phase p50s of the cache misses (where the estimator actually ran):
/// push, walk (incl. residue reduction + assembly) and sweep. These are
/// what tell a future PR *which* phase its optimization moved.
struct MissPhaseP50s {
    push_us: f64,
    walk_us: f64,
    sweep_us: f64,
}

fn p50(mut us: Vec<f64>) -> f64 {
    us.sort_unstable_by(f64::total_cmp);
    percentile(&us, 0.50)
}

struct DatasetReport {
    name: String,
    nodes: usize,
    edges: usize,
    hit: LatencySummary,
    miss: LatencySummary,
    miss_phases: MissPhaseP50s,
    total_s: f64,
    throughput_qps: f64,
    hit_rate: f64,
    shed_queued: u64,
    cancelled_running: u64,
    shed_overload: u64,
    cache: hk_serve::CacheStats,
}

#[allow(clippy::too_many_arguments)]
fn bench_dataset(
    id: DatasetId,
    datasets: &Datasets,
    queries: usize,
    pool: usize,
    zipf_s: f64,
    workers: usize,
    cache_mb: usize,
) -> DatasetReport {
    let graph = Arc::new(datasets.load(id));
    let (nodes, edges) = (graph.num_nodes(), graph.num_edges());
    let seeds = pick_seeds(&graph, pool.min(nodes), 7);
    let engine = QueryEngine::new(
        Arc::clone(&graph),
        EngineConfig {
            workers,
            cache_bytes: cache_mb << 20,
            max_queue: 4096,
            ..EngineConfig::default()
        },
    );

    let zipf = Zipf::new(seeds.len(), zipf_s);
    let mut rng = SmallRng::seed_from_u64(0x5E17E);
    let mut hit_us = Vec::new();
    let mut miss_us = Vec::new();
    let mut miss_push_us = Vec::new();
    let mut miss_walk_us = Vec::new();
    let mut miss_sweep_us = Vec::new();
    let t0 = Instant::now();
    for _ in 0..queries {
        let rank = zipf.sample(&mut rng);
        // A fixed RNG stream per pool entry keeps repeats cache-hittable
        // (the stream seed is part of the cache key).
        let req = QueryRequest::new(seeds[rank]).rng_seed(rank as u64);
        let q0 = Instant::now();
        let resp = engine.query(req).expect("bench query");
        let us = q0.elapsed().as_secs_f64() * 1e6;
        match resp.outcome {
            CacheOutcome::Hit => hit_us.push(us),
            _ => {
                miss_us.push(us);
                miss_push_us.push(resp.timing.push_ns as f64 / 1e3);
                miss_walk_us.push(resp.timing.walk_ns as f64 / 1e3);
                miss_sweep_us.push(resp.timing.sweep_ns as f64 / 1e3);
            }
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    let miss_phases = MissPhaseP50s {
        push_us: p50(miss_push_us),
        walk_us: p50(miss_walk_us),
        sweep_us: p50(miss_sweep_us),
    };

    // Load-shedding demo: requests whose deadline has already lapsed are
    // shed with a typed error, not queued.
    for _ in 0..50 {
        let mut req = QueryRequest::new(seeds[0]).rng_seed(u64::MAX);
        req.deadline = Some(Instant::now() - Duration::from_millis(1));
        let _ = engine.query(req);
    }

    let stats = engine.stats();
    let hits = hit_us.len();
    DatasetReport {
        name: id.name().to_string(),
        nodes,
        edges,
        hit: summarize(hit_us),
        miss: summarize(miss_us),
        miss_phases,
        total_s,
        throughput_qps: queries as f64 / total_s,
        hit_rate: hits as f64 / queries as f64,
        shed_queued: stats.shed_queued,
        cancelled_running: stats.cancelled_running,
        shed_overload: stats.shed_overload,
        cache: stats.cache,
    }
}

fn latency_json(l: &LatencySummary) -> String {
    format!(
        "{{ \"count\": {}, \"avg_us\": {:.2}, \"p50_us\": {:.2}, \"p99_us\": {:.2} }}",
        l.count, l.avg_us, l.p50_us, l.p99_us
    )
}

struct PerGraphRow {
    name: String,
    hits: u64,
    misses: u64,
    coalesced: u64,
    errors: u64,
    admission_rejections: u64,
}

struct MultiGraphReport {
    names: Vec<String>,
    per_graph: Vec<PerGraphRow>,
    registry: hk_serve::RegistryStats,
    engine: hk_serve::EngineStats,
    hit: LatencySummary,
    miss: LatencySummary,
    total_s: f64,
    queries: usize,
    budget_bytes: usize,
    workers: usize,
}

/// Replay a two-level Zipf workload (graph, then seed) through a
/// `MultiEngine` over v2 snapshots under a registry byte budget.
#[allow(clippy::too_many_arguments)]
fn bench_multi(
    ids: &[DatasetId],
    datasets: &Datasets,
    queries: usize,
    pool: usize,
    zipf_s: f64,
    workers: usize,
    cache_mb: usize,
    budget_mb: Option<usize>,
) -> MultiGraphReport {
    // Convert every dataset to a v2 snapshot (the zero-copy format) in a
    // scratch dir and collect per-graph seed pools from one owned load.
    let v2_dir = std::env::temp_dir().join("hk_serve_bench_v2");
    std::fs::create_dir_all(&v2_dir).expect("create v2 scratch dir");
    let mut total_bytes = 0usize;
    let mut seeds_by_graph = Vec::new();
    let mut v2_paths = Vec::new();
    for &id in ids {
        // `load` generates and caches the snapshot on first use.
        let graph = datasets.load(id);
        let v2_path = v2_dir.join(format!("{}.v2.hkg", id.name()));
        hk_graph::io::save_binary_v2(&graph, &v2_path).expect("convert to v2");
        total_bytes += graph.memory_bytes();
        seeds_by_graph.push(pick_seeds(&graph, pool.min(graph.num_nodes()), 7));
        v2_paths.push(v2_path);
    }
    // Default budget: ~60% of the combined footprint, so the replay
    // exercises real evictions and reloads, not just steady state.
    let budget_bytes = budget_mb.map(|m| m << 20).unwrap_or(total_bytes * 3 / 5);

    let me = MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers,
            cache_bytes: cache_mb << 20,
            max_queue: 4096,
            ..EngineConfig::default()
        },
        max_resident_bytes: budget_bytes,
        ..MultiEngineConfig::default()
    });
    for (id, v2_path) in ids.iter().zip(&v2_paths) {
        me.registry().register_path(id.name(), v2_path.clone());
    }

    let graph_zipf = Zipf::new(ids.len(), zipf_s);
    let seed_zipfs: Vec<Zipf> = seeds_by_graph
        .iter()
        .map(|s| Zipf::new(s.len(), zipf_s))
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x5E17E2);
    let mut hit_us = Vec::new();
    let mut miss_us = Vec::new();
    let t0 = Instant::now();
    for _ in 0..queries {
        let g_rank = graph_zipf.sample(&mut rng);
        let name = ids[g_rank].name();
        let seeds = &seeds_by_graph[g_rank];
        let rank = seed_zipfs[g_rank].sample(&mut rng);
        let req = QueryRequest::new(seeds[rank]).rng_seed(rank as u64);
        let q0 = Instant::now();
        let resp = me.query(name, req).expect("multi-graph bench query");
        let us = q0.elapsed().as_secs_f64() * 1e6;
        match resp.outcome {
            CacheOutcome::Hit => hit_us.push(us),
            _ => miss_us.push(us),
        }
    }
    let total_s = t0.elapsed().as_secs_f64();

    let per_graph = me
        .per_graph_stats()
        .into_iter()
        .map(|(name, s)| PerGraphRow {
            name,
            hits: s.hits,
            misses: s.misses,
            coalesced: s.coalesced,
            errors: s.errors,
            admission_rejections: s.admission_rejections,
        })
        .collect();
    MultiGraphReport {
        names: ids.iter().map(|id| id.name().to_string()).collect(),
        per_graph,
        registry: me.registry().stats(),
        engine: me.stats(),
        hit: summarize(hit_us),
        miss: summarize(miss_us),
        total_s,
        queries,
        budget_bytes,
        workers,
    }
}

struct HubsReport {
    names: Vec<String>,
    queries: usize,
    top_k: usize,
    hub_on_instant_rate: f64,
    hub_off_instant_rate: f64,
    lift: f64,
    precomputed: LatencySummary,
    miss: LatencySummary,
    hub: hk_serve::HubStats,
    total_s: f64,
}

/// Cold-start hub precomputation replay: the same Zipf workload over each
/// graph's top-degree seed pool runs twice on **cold result caches** —
/// once with the hub store enabled (after its background builds settle)
/// and once without — and the lift in instant-answer rate ((hits +
/// precomputed) / queries) is the product. The pool is ordered by degree
/// descending so Zipf rank r lands on the r-th highest-degree seed —
/// exactly the store's selection order, which is the scenario the store
/// exists for. `smoke` asserts the lift is positive and that a
/// precomputed answer is bitwise identical to the one-shot `run_batch`
/// reference.
#[allow(clippy::too_many_arguments)]
fn bench_hubs(
    ids: &[DatasetId],
    datasets: &Datasets,
    queries: usize,
    pool: usize,
    zipf_s: f64,
    workers: usize,
    cache_mb: usize,
    smoke: bool,
) -> HubsReport {
    // Hub set = the Zipf head: a quarter of the pool, bounded to stay a
    // small precompute next to the replay itself.
    let top_k = (pool / 4).clamp(8, 64).min(pool.max(1));

    // Degree-descending seed pools (ties by id) — the store's own
    // deterministic selection order, so ranks 0..top_k are hub seeds.
    let mut seeds_by_graph = Vec::new();
    for &id in ids {
        let graph = datasets.load(id); // generates + caches the snapshot
        let mut seeds: Vec<u32> = (0..graph.num_nodes() as u32)
            .filter(|&v| graph.degree(v) > 0)
            .collect();
        seeds.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        seeds.truncate(pool.min(seeds.len()));
        seeds_by_graph.push(seeds);
    }

    let make_engine = |hub_top_k: usize| {
        let me = MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers,
                cache_bytes: cache_mb << 20,
                max_queue: 4096,
                ..EngineConfig::default()
            },
            max_resident_bytes: 0,
            hub_top_k,
            ..MultiEngineConfig::default()
        });
        for &id in ids {
            me.registry().register_path(id.name(), datasets.path(id));
        }
        // Route one throwaway request per graph (a unique RNG stream the
        // replay never uses) so the front exists and the hub build — if
        // enabled — has been spawned; then wait for the builds so the
        // replay measures a *populated* store, not a race against it.
        for (g, &id) in ids.iter().enumerate() {
            let seed = *seeds_by_graph[g].last().unwrap();
            me.query(id.name(), QueryRequest::new(seed).rng_seed(u64::MAX))
                .expect("hub bench warm-route query");
        }
        me.wait_hub_builds();
        me
    };

    // Identical replay against a cold cache: fixed RNG stream per rank so
    // repeats are cache-hittable, rng_seed 0 on the Zipf head so hub keys
    // match. Returns (instant answers, precomputed latencies, miss
    // latencies, elapsed).
    let replay = |me: &MultiEngine| {
        let graph_zipf = Zipf::new(ids.len(), zipf_s);
        let seed_zipfs: Vec<Zipf> = seeds_by_graph
            .iter()
            .map(|s| Zipf::new(s.len(), zipf_s))
            .collect();
        let mut rng = SmallRng::seed_from_u64(0x4B5);
        let mut instant = 0u64;
        let mut pre_us = Vec::new();
        let mut miss_us = Vec::new();
        let t0 = Instant::now();
        for _ in 0..queries {
            let g_rank = graph_zipf.sample(&mut rng);
            let name = ids[g_rank].name();
            let seeds = &seeds_by_graph[g_rank];
            let rank = seed_zipfs[g_rank].sample(&mut rng);
            let req = QueryRequest::new(seeds[rank]);
            let q0 = Instant::now();
            let resp = me.query(name, req).expect("hub bench query");
            let us = q0.elapsed().as_secs_f64() * 1e6;
            match resp.outcome {
                CacheOutcome::Precomputed => {
                    instant += 1;
                    pre_us.push(us);
                }
                CacheOutcome::Hit => instant += 1,
                _ => miss_us.push(us),
            }
        }
        (instant, pre_us, miss_us, t0.elapsed().as_secs_f64())
    };

    let hub_off = make_engine(0);
    let (off_instant, _, _, _) = replay(&hub_off);
    drop(hub_off);

    let hub_on = make_engine(top_k);
    let (on_instant, pre_us, miss_us, total_s) = replay(&hub_on);

    let hub_on_instant_rate = on_instant as f64 / queries.max(1) as f64;
    let hub_off_instant_rate = off_instant as f64 / queries.max(1) as f64;
    let lift = hub_on_instant_rate - hub_off_instant_rate;

    if smoke {
        assert!(
            lift > 0.0,
            "hubs smoke: no cold-start hit-rate lift (on={hub_on_instant_rate:.4} \
             off={hub_off_instant_rate:.4})"
        );
        // Bitwise conformance: a precomputed answer must equal the
        // one-shot run_batch reference under the same canonical params —
        // the store returns pinned bytes, never an approximation.
        for (g_idx, &id) in ids.iter().enumerate().take(2) {
            let name = id.name();
            let seed = seeds_by_graph[g_idx][0];
            let resp = hub_on
                .query(name, QueryRequest::new(seed))
                .expect("hub smoke conformance query");
            assert_eq!(
                resp.outcome,
                CacheOutcome::Precomputed,
                "hubs smoke: top-degree seed of {name} not served from the store"
            );
            let (graph, _) = hub_on.registry().get(name).expect("graph resident");
            let n = graph.num_nodes().max(1);
            let canon = ParamsKey::new(5.0, 0.5, 1.0 / n as f64, 1e-6).canonical();
            let params = HkprParams::builder(&graph)
                .t(canon.0)
                .eps_r(canon.1)
                .delta(canon.2)
                .p_f(canon.3)
                .c(2.5)
                .build()
                .expect("canonical params");
            let reference = run_batch(
                &LocalClusterer::new(&graph),
                Method::TeaPlus,
                &[seed],
                &params,
                0,
                1,
            );
            assert!(
                resp.result
                    .bitwise_eq(reference[0].as_ref().expect("reference query")),
                "hubs smoke: precomputed answer diverged from cold recompute on {name}"
            );
        }
        let h = hub_on.hub_stats();
        eprintln!(
            "hubs smoke OK: lift={lift:.4} (on={hub_on_instant_rate:.4} \
             off={hub_off_instant_rate:.4}), precomputed answers bitwise-identical \
             to run_batch; store: seeds={} builds={} bytes={}",
            h.precomputed_seeds, h.builds, h.resident_bytes
        );
    }

    HubsReport {
        names: ids.iter().map(|id| id.name().to_string()).collect(),
        queries,
        top_k,
        hub_on_instant_rate,
        hub_off_instant_rate,
        lift,
        precomputed: summarize(pre_us),
        miss: summarize(miss_us),
        hub: hub_on.hub_stats(),
        total_s,
    }
}

/// Emit the `"hubs"` JSON section. `terminal` controls the trailing
/// comma.
fn push_hubs_json(json: &mut String, h: &HubsReport, terminal: bool) {
    json.push_str("  \"hubs\": {\n");
    json.push_str(&format!(
        "    \"graphs\": [{}],\n",
        h.names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("    \"queries\": {},\n", h.queries));
    json.push_str(&format!("    \"top_k\": {},\n", h.top_k));
    json.push_str(&format!(
        "    \"cold_instant_rate_hub_on\": {:.4},\n",
        h.hub_on_instant_rate
    ));
    json.push_str(&format!(
        "    \"cold_instant_rate_hub_off\": {:.4},\n",
        h.hub_off_instant_rate
    ));
    json.push_str(&format!(
        "    \"cold_start_hit_rate_lift\": {:.4},\n",
        h.lift
    ));
    json.push_str(&format!(
        "    \"precomputed_latency\": {},\n",
        latency_json(&h.precomputed)
    ));
    json.push_str(&format!(
        "    \"miss_latency\": {},\n",
        latency_json(&h.miss)
    ));
    json.push_str(&format!(
        "    \"store\": {{ \"hits\": {}, \"precomputed_seeds\": {}, \"builds\": {}, \"build_ms\": {:.1}, \"resident_bytes\": {} }},\n",
        h.hub.hits,
        h.hub.precomputed_seeds,
        h.hub.builds,
        h.hub.build_ns as f64 / 1e6,
        h.hub.resident_bytes
    ));
    json.push_str(&format!("    \"replay_seconds\": {:.3}\n", h.total_s));
    json.push_str(if terminal { "  }\n" } else { "  },\n" });
}

struct SchedReport {
    names: Vec<String>,
    queries: usize,
    clients: usize,
    workers: usize,
    hit: LatencySummary,
    miss: LatencySummary,
    coalesced: LatencySummary,
    engine: hk_serve::EngineStats,
    per_graph: Vec<PerGraphRow>,
    total_s: f64,
}

/// Bursty multi-graph replay with mixed deadlines through the shared
/// deadline-aware scheduler: several client threads, three deadline
/// classes (none / generous / tight), periodic triple-submit bursts of a
/// fresh key to exercise single-flight coalescing. `smoke` shrinks and
/// asserts (CI): nonzero coalescing, some deadline activity, and bitwise
/// conformance of a scheduler answer against the one-shot `run_batch`
/// reference path.
#[allow(clippy::too_many_arguments)]
fn bench_sched(
    ids: &[DatasetId],
    datasets: &Datasets,
    queries: usize,
    pool: usize,
    zipf_s: f64,
    workers: usize,
    cache_mb: usize,
    smoke: bool,
) -> SchedReport {
    let me = MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers,
            cache_bytes: cache_mb << 20,
            max_queue: 256,
            per_graph_queue: 48,
            ..EngineConfig::default()
        },
        // Unlimited registry budget: this scenario isolates scheduling
        // (EDF, sheds, cancellation, coalescing) from eviction churn,
        // which --multi covers.
        max_resident_bytes: 0,
        ..MultiEngineConfig::default()
    });
    let mut seeds_by_graph = Vec::new();
    for &id in ids {
        let graph = datasets.load(id); // generates + caches the snapshot
        seeds_by_graph.push(pick_seeds(&graph, pool.min(graph.num_nodes()), 7));
        me.registry().register_path(id.name(), datasets.path(id));
    }
    let graph_zipf = Zipf::new(ids.len(), zipf_s);
    let seed_zipfs: Vec<Zipf> = seeds_by_graph
        .iter()
        .map(|s| Zipf::new(s.len(), zipf_s))
        .collect();

    let clients = 3usize;
    let issued = AtomicUsize::new(0);
    // Latency pools per outcome class: hit / miss / coalesced.
    let lat: Mutex<[Vec<f64>; 3]> = Mutex::new([Vec::new(), Vec::new(), Vec::new()]);
    let record = |resp: &Result<hk_serve::QueryResponse, ServeError>, us: f64| {
        if let Ok(resp) = resp {
            let slot = match resp.outcome {
                CacheOutcome::Hit => 0,
                CacheOutcome::Coalesced => 2,
                _ => 1,
            };
            lat.lock().unwrap()[slot].push(us);
        }
    };
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let me = &me;
            let ids = &ids;
            let seeds_by_graph = &seeds_by_graph;
            let graph_zipf = &graph_zipf;
            let seed_zipfs = &seed_zipfs;
            let issued = &issued;
            let record = &record;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x5C4ED ^ c as u64);
                loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= queries {
                        break;
                    }
                    let g_rank = graph_zipf.sample(&mut rng);
                    let name = ids[g_rank].name();
                    let seeds = &seeds_by_graph[g_rank];
                    let rank = seed_zipfs[g_rank].sample(&mut rng);
                    if i.is_multiple_of(8) {
                        // Coalescing burst: one *fresh* key (never-seen RNG
                        // stream) submitted three times back-to-back — the
                        // first leads, the rest ride its flight.
                        let req = QueryRequest::new(seeds[rank]).rng_seed(1_000_000 + i as u64);
                        let q0 = Instant::now();
                        let tickets: Vec<_> = (0..3).map(|_| me.submit(name, req)).collect();
                        for t in tickets {
                            let resp = t.and_then(|t| t.wait());
                            record(&resp, q0.elapsed().as_secs_f64() * 1e6);
                        }
                        continue;
                    }
                    let mut req = QueryRequest::new(seeds[rank]).rng_seed(rank as u64);
                    match rng.random::<u64>() % 10 {
                        // Tight deadlines: some shed queued, some cancel
                        // mid-run (misses take roughly this long).
                        0..=2 => {
                            req = req.deadline_in(Duration::from_micros(
                                300 + rng.random::<u64>() % 4_000,
                            ))
                        }
                        // Generous deadlines: virtually always met.
                        3..=5 => req = req.deadline_in(Duration::from_millis(250)),
                        // No deadline: FIFO behind every deadlined job.
                        _ => {}
                    }
                    let q0 = Instant::now();
                    let resp = me.query(name, req);
                    record(&resp, q0.elapsed().as_secs_f64() * 1e6);
                }
            });
        }
    });
    let total_s = t0.elapsed().as_secs_f64();

    if smoke {
        let stats = me.stats();
        assert!(
            stats.cache.coalesced > 0,
            "sched smoke: expected nonzero single-flight coalescing, got {stats:?}"
        );
        assert!(
            stats.completed > 0,
            "sched smoke: no query completed ({stats:?})"
        );
        // Bitwise conformance: a scheduler answer must equal the one-shot
        // run_batch reference computing with the same canonical params —
        // zero divergence introduced by EDF ordering, cancellation
        // plumbing or coalescing.
        for (g_idx, &id) in ids.iter().enumerate().take(2) {
            let name = id.name();
            let seed = seeds_by_graph[g_idx][0];
            let resp = me
                .query(name, QueryRequest::new(seed).rng_seed(0))
                .expect("smoke conformance query");
            let (graph, _) = me.registry().get(name).expect("graph resident");
            let n = graph.num_nodes().max(1);
            let canon = ParamsKey::new(5.0, 0.5, 1.0 / n as f64, 1e-6).canonical();
            let params = HkprParams::builder(&graph)
                .t(canon.0)
                .eps_r(canon.1)
                .delta(canon.2)
                .p_f(canon.3)
                .c(2.5)
                .build()
                .expect("canonical params");
            let reference = run_batch(
                &LocalClusterer::new(&graph),
                Method::TeaPlus,
                &[seed],
                &params,
                0,
                1,
            );
            assert!(
                resp.result
                    .bitwise_eq(reference[0].as_ref().expect("reference query")),
                "sched smoke: scheduler result diverged from the reference path on {name}"
            );
        }
        eprintln!(
            "sched smoke OK: coalesced={} shed_queued={} cancelled_running={} completed={}",
            stats.cache.coalesced, stats.shed_queued, stats.cancelled_running, stats.completed
        );
    }

    let [hit_us, miss_us, coal_us] = lat.into_inner().unwrap();
    let per_graph = me
        .per_graph_stats()
        .into_iter()
        .map(|(name, s)| PerGraphRow {
            name,
            hits: s.hits,
            misses: s.misses,
            coalesced: s.coalesced,
            errors: s.errors,
            admission_rejections: s.admission_rejections,
        })
        .collect();
    SchedReport {
        names: ids.iter().map(|id| id.name().to_string()).collect(),
        queries,
        clients,
        workers,
        hit: summarize(hit_us),
        miss: summarize(miss_us),
        coalesced: summarize(coal_us),
        engine: me.stats(),
        per_graph,
        total_s,
    }
}

struct TierLatencyRow {
    tiers_completed: u32,
    lat: LatencySummary,
}

struct AnytimeReport {
    name: String,
    queries: usize,
    max_walks: u64,
    full_us: f64,
    deadline_us: u64,
    degraded: u64,
    cancelled: u64,
    full_accuracy: u64,
    shed: u64,
    degraded_rate: f64,
    per_tier: Vec<TierLatencyRow>,
    engine: hk_serve::EngineStats,
    push: PushAnytimeReport,
}

/// Push-heavy counterpart of [`AnytimeReport`]: TEA+ queries whose
/// deadline lands *inside the push phase*, past the first coarsened
/// eps_r certificate, so the watchdog interruption should come back as
/// a typed degraded answer (`push_tiers_completed < planned`) rather
/// than `ServeError::Cancelled`.
struct PushAnytimeReport {
    name: String,
    queries: usize,
    t: f64,
    delta: f64,
    push_full_us: f64,
    deadline_us: u64,
    degraded_push: u64,
    degraded_walk: u64,
    cancelled: u64,
    full_accuracy: u64,
    shed: u64,
    conversion: f64,
    per_push_tier: Vec<TierLatencyRow>,
    engine: hk_serve::EngineStats,
}

/// Anytime-query replay: walk-heavy Monte Carlo queries under a deadline
/// calibrated to land mid-walk, so the watchdog interrupts refinement
/// instead of completing. Each interrupted query should come back as a
/// typed degraded answer (the accuracy tiers it did finish) rather than
/// `ServeError::Cancelled`; the report records the degraded-answer rate
/// — degraded / (degraded + cancelled), i.e. the fraction of would-be
/// cancellations the tier ladder converted into answers — and latency
/// bucketed by achieved tier. `smoke` asserts a nonzero degraded count,
/// rate >= 0.8, and bitwise conformance of a full-accuracy (deadline-free)
/// engine answer against the one-shot `run_batch` reference.
///
/// A second, push-heavy replay ([`bench_anytime_push`]) aims TEA+
/// deadlines inside the HK-Push+ phase and measures the analogous
/// conversion rate for the eps_r certificate ladder; its `smoke`
/// asserts push-phase degradations > 0 and conversion >= 0.8.
fn bench_anytime(
    ids: &[DatasetId],
    datasets: &Datasets,
    queries: usize,
    workers: usize,
    smoke: bool,
) -> AnytimeReport {
    let id = ids[0];
    let graph = Arc::new(datasets.load(id));
    // No result cache: every query computes, so every tight deadline is a
    // real interruption opportunity (degraded answers are never cached
    // anyway, and cache hits would dilute the measured rate).
    let engine = QueryEngine::new(
        Arc::clone(&graph),
        EngineConfig {
            workers,
            cache_bytes: 0,
            max_queue: 4096,
            ..EngineConfig::default()
        },
    );
    let seeds = pick_seeds(&graph, 64.min(graph.num_nodes()), 7);
    // Walk-heavy configuration: a tiny delta makes the planned walk count
    // hit the cap, and a large heat constant t makes the walks long, so
    // the dominant share of the query is refinable walk work rather than
    // the (non-resumable) up-front length sampling.
    const MAX_WALKS: u64 = 1_500_000;
    let knobs = Knobs {
        t: 15.0,
        delta: Some(1e-8),
        ..Knobs::default()
    };
    let method = Method::MonteCarlo {
        max_walks: Some(MAX_WALKS),
    };
    let request = |seed, rng_seed: u64| {
        QueryRequest::new(seed)
            .method(method)
            .knobs(knobs)
            .rng_seed(rng_seed)
    };

    // Calibrate a deadline that lands *inside the walk phase*. The walk
    // ladder cannot help a cancel that fires during up-front length
    // sampling (nothing is deposited yet, so that is still a hard
    // `Cancelled`), so the deadline must clear the sampling phase with
    // margin and then sit a fraction of the way into the walks.
    let (mut full_us, mut sample_us_max, mut walk_us_min) = (f64::INFINITY, 0.0f64, f64::INFINITY);
    for i in 0..3u64 {
        let q0 = Instant::now();
        let resp = engine
            .query(request(seeds[i as usize % seeds.len()], 1_000 + i))
            .expect("anytime calibration query");
        assert!(resp.degraded.is_none(), "calibration run had no deadline");
        full_us = full_us.min(q0.elapsed().as_secs_f64() * 1e6);
        // Monte Carlo reports length sampling as its "push" phase.
        sample_us_max = sample_us_max.max(resp.timing.push_ns as f64 / 1e3);
        walk_us_min = walk_us_min.min(resp.timing.walk_ns as f64 / 1e3);
    }
    // Cycle the deadline through the walk phase so interruptions land in
    // different ladder tiers (the per-tier latency report needs spread).
    const WALK_FRACS: [f64; 4] = [0.05, 0.15, 0.35, 0.7];
    let deadline_at = |frac: f64| {
        Duration::from_micros((sample_us_max * 1.25 + walk_us_min * frac).max(2_000.0) as u64)
    };
    let deadline_us = deadline_at(WALK_FRACS[2]).as_micros() as u64;

    let n = queries.min(if smoke { 48 } else { 200 });
    let mut tier_lat: std::collections::BTreeMap<u32, Vec<f64>> = std::collections::BTreeMap::new();
    let (mut degraded, mut cancelled, mut full_accuracy, mut shed) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..n {
        // Fresh RNG stream per query: never cache-coalesced, always computed.
        let req = request(seeds[i % seeds.len()], 10_000 + i as u64)
            .deadline_in(deadline_at(WALK_FRACS[i % WALK_FRACS.len()]));
        let q0 = Instant::now();
        match engine.query(req) {
            Ok(resp) => {
                let us = q0.elapsed().as_secs_f64() * 1e6;
                match resp.degraded {
                    Some(d) => {
                        degraded += 1;
                        tier_lat
                            .entry(d.achieved.tiers_completed)
                            .or_default()
                            .push(us);
                    }
                    None => full_accuracy += 1,
                }
            }
            Err(ServeError::Cancelled { .. }) => cancelled += 1,
            Err(ServeError::DeadlineExceeded { .. }) => shed += 1,
            Err(e) => panic!("anytime bench: unexpected error {e}"),
        }
    }
    let interrupted = degraded + cancelled;
    let degraded_rate = if interrupted > 0 {
        degraded as f64 / interrupted as f64
    } else {
        0.0
    };

    // Bitwise conformance: a deadline-free anytime answer (full tier
    // ladder) must equal the one-shot run_batch reference — tiered
    // refinement introduces zero divergence at full accuracy.
    let conf_seed = seeds[0];
    let resp = engine
        .query(request(conf_seed, 424_242))
        .expect("anytime conformance query");
    assert!(resp.degraded.is_none());
    let canon = ParamsKey::new(knobs.t, knobs.eps_r, 1e-8, knobs.p_f).canonical();
    let params = HkprParams::builder(&graph)
        .t(canon.0)
        .eps_r(canon.1)
        .delta(canon.2)
        .p_f(canon.3)
        .c(2.5)
        .build()
        .expect("canonical params");
    let reference = run_batch(
        &LocalClusterer::new(&graph),
        method,
        &[conf_seed],
        &params,
        424_242,
        1,
    );
    assert!(
        resp.result
            .bitwise_eq(reference[0].as_ref().expect("reference query")),
        "anytime: full-tier answer diverged from the run_batch reference"
    );

    let stats = engine.stats();
    if smoke {
        assert!(
            degraded > 0,
            "anytime smoke: no degraded answers (deadline_us={deadline_us}, full_us={full_us:.0}, stats={stats:?})"
        );
        assert!(
            degraded_rate >= 0.8,
            "anytime smoke: degraded rate {degraded_rate:.2} < 0.8 \
             (degraded={degraded}, cancelled={cancelled})"
        );
        eprintln!(
            "anytime smoke OK: degraded={degraded} cancelled={cancelled} \
             full_accuracy={full_accuracy} rate={degraded_rate:.2} conformance=bitwise"
        );
    }

    let push = bench_anytime_push(ids, datasets, (id, &graph), queries, smoke);

    AnytimeReport {
        name: id.name().to_string(),
        queries: n,
        max_walks: MAX_WALKS,
        full_us,
        deadline_us,
        degraded,
        cancelled,
        full_accuracy,
        shed,
        degraded_rate,
        per_tier: tier_lat
            .into_iter()
            .map(|(tiers_completed, us)| TierLatencyRow {
                tiers_completed,
                lat: summarize(us),
            })
            .collect(),
        engine: stats,
        push,
    }
}

/// Push-heavy anytime replay: TEA+ with a small `delta`, so HK-Push+
/// dominates the query, under deadlines aimed *inside the push*. The
/// eps_r certificate ladder certifies coarsened condition-(11)
/// thresholds (64x / 16x / 4x the requested one) as the push drains
/// hops, so a watchdog cancel in the certified tail degrades to a typed
/// answer instead of failing with `ServeError::Cancelled`.
///
/// Calibration is per seed: push duration varies ~2x across seeds (it
/// is determined by the seed's neighborhood, not by RNG), so a global
/// deadline would hard-cancel the slow seeds and overshoot the fast
/// ones. Each seed gets one cold run, and the replay cycles deadlines
/// through late fractions of *that seed's* push. The fractions sit in
/// the empirically certified tail of the drain (the first certificate
/// fires at ~0.5-0.8 of the push on the committed datasets at these
/// knobs): earlier deadlines would measure the hard-cancel regime the
/// ladder cannot help — a cancelled push reports the honest
/// condition-(11) tally of its stop state, which mid-hop can satisfy
/// no coarsened threshold — and the `cancelled` tally still exposes
/// the residue of that regime inside the window.
///
/// The replay runs on whichever of `ids` has the longest cold push: a
/// short push (a few ms) leaves a certified tail narrower than
/// watchdog timing noise, which would measure the host's timer
/// granularity instead of the ladder.
fn bench_anytime_push(
    ids: &[DatasetId],
    datasets: &Datasets,
    first: (DatasetId, &Arc<Graph>),
    queries: usize,
    smoke: bool,
) -> PushAnytimeReport {
    // Push-heavy configuration: a tiny delta lengthens the residue
    // drain (and with it the certified tail), while the default t keeps
    // the far-hop residue light enough that certificates actually fire
    // well before termination — larger t pushes the first certificate
    // toward the very end of the drain.
    let knobs = Knobs {
        t: 5.0,
        delta: Some(1e-8),
        ..Knobs::default()
    };
    let cold_push_us = |graph: &Arc<Graph>| {
        let probe = QueryEngine::new(
            Arc::clone(graph),
            EngineConfig {
                workers: 1,
                cache_bytes: 0,
                ..EngineConfig::default()
            },
        );
        let seed = pick_seeds(graph, 1, 7)[0];
        let req = || QueryRequest::new(seed).method(Method::TeaPlus).knobs(knobs);
        probe.query(req()).expect("push dataset probe (warmup)");
        let resp = probe.query(req()).expect("push dataset probe");
        resp.timing.push_ns as f64 / 1e3
    };
    let (id, graph) = ids
        .iter()
        .map(|&id| {
            let graph = if id == first.0 {
                Arc::clone(first.1)
            } else {
                Arc::new(datasets.load(id))
            };
            let us = cold_push_us(&graph);
            (id, graph, us)
        })
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map(|(id, graph, _)| (id, graph))
        .expect("at least one dataset");
    let seeds = pick_seeds(&graph, 64.min(graph.num_nodes()), 7);

    // One worker, one workspace: the replay is serial anyway, and a
    // single warmed workspace keeps per-seed push wall-clock stable
    // enough for fraction-of-push deadlines to land where aimed.
    let engine = QueryEngine::new(
        Arc::clone(&graph),
        EngineConfig {
            workers: 1,
            cache_bytes: 0,
            max_queue: 4096,
            ..EngineConfig::default()
        },
    );
    let request = |seed, rng_seed: u64| {
        QueryRequest::new(seed)
            .method(Method::TeaPlus)
            .knobs(knobs)
            .rng_seed(rng_seed)
    };

    // Per-seed calibration: one cold (deadline-free) query per seed
    // records that seed's push duration; the submit-to-push overhead
    // (queue + dispatch) is taken as the worst case across seeds. The
    // throwaway warmup query sizes the worker's workspace so the first
    // calibrated seed is not measured against cold allocations.
    let push_seeds = &seeds[..12.min(seeds.len())];
    engine
        .query(request(push_seeds[0], 1_999))
        .expect("push anytime warmup query");
    let mut push_us = vec![0.0f64; push_seeds.len()];
    let (mut push_full_us, mut overhead_us_max) = (f64::INFINITY, 0.0f64);
    for (j, &seed) in push_seeds.iter().enumerate() {
        let resp = engine
            .query(request(seed, 2_000 + j as u64))
            .expect("push anytime calibration query");
        assert!(resp.degraded.is_none(), "calibration run had no deadline");
        push_us[j] = resp.timing.push_ns as f64 / 1e3;
        push_full_us = push_full_us.min(push_us[j]);
        let non_work = resp
            .timing
            .total_ns
            .saturating_sub(resp.timing.estimate_ns + resp.timing.sweep_ns);
        overhead_us_max = overhead_us_max.max(non_work as f64 / 1e3);
    }
    // Late fractions of the calibrated push: inside the certified tail
    // for every committed seed, spread so interruptions land in
    // different certificate tiers (and occasionally overshoot into
    // completion, which costs nothing — only interrupted-during-push
    // queries enter the conversion ratio). A global feedback scale
    // corrects for clock drift between calibration and replay (thermal
    // throttling, co-tenant noise): a hard cancel means the deadline
    // landed before the certified tail, so later deadlines stretch.
    // The ratchet only goes up — overshooting into full accuracy is
    // free, while nudging back down would hunt for the cancel cliff
    // and pay a steady cancel trickle to find it.
    const PUSH_FRACS: [f64; 4] = [0.8, 0.85, 0.9, 0.95];
    // Start biased long: overshooting into full accuracy is free, a
    // hard cancel is the one outcome the gate cares about.
    let mut scale = 1.05f64;
    let deadline_at = |j: usize, frac: f64, scale: f64| {
        Duration::from_micros(
            (overhead_us_max * 1.25 + push_us[j] * frac * scale).max(2_000.0) as u64,
        )
    };
    let deadline_us = deadline_at(0, PUSH_FRACS[2], 1.0).as_micros() as u64;

    let n = queries.min(if smoke { 48 } else { 200 });
    let mut tier_lat: std::collections::BTreeMap<u32, Vec<f64>> = std::collections::BTreeMap::new();
    let (mut degraded_push, mut degraded_walk, mut cancelled) = (0u64, 0u64, 0u64);
    let (mut full_accuracy, mut shed) = (0u64, 0u64);
    for i in 0..n {
        let j = i % push_seeds.len();
        let req = request(push_seeds[j], 20_000 + i as u64).deadline_in(deadline_at(
            j,
            PUSH_FRACS[i % PUSH_FRACS.len()],
            scale,
        ));
        let q0 = Instant::now();
        match engine.query(req) {
            Ok(resp) => {
                let us = q0.elapsed().as_secs_f64() * 1e6;
                match resp.degraded {
                    Some(d) if d.achieved.push_tiers_completed < d.achieved.push_tiers_planned => {
                        degraded_push += 1;
                        tier_lat
                            .entry(d.achieved.push_tiers_completed)
                            .or_default()
                            .push(us);
                    }
                    // Push finished; the deadline slipped into the walk
                    // phase and the walk ladder caught it instead.
                    Some(_) => degraded_walk += 1,
                    None => full_accuracy += 1,
                }
            }
            Err(ServeError::Cancelled { .. }) => {
                cancelled += 1;
                scale = (scale * 1.12).min(1.6);
            }
            Err(ServeError::DeadlineExceeded { .. }) => shed += 1,
            Err(e) => panic!("push anytime bench: unexpected error {e}"),
        }
    }
    let interrupted = degraded_push + cancelled;
    let conversion = if interrupted > 0 {
        degraded_push as f64 / interrupted as f64
    } else {
        0.0
    };

    let stats = engine.stats();
    if smoke {
        assert!(
            degraded_push > 0,
            "push anytime smoke: no push-phase degradations \
             (deadline_us={deadline_us}, push_full_us={push_full_us:.0}, stats={stats:?})"
        );
        assert!(
            conversion >= 0.8,
            "push anytime smoke: conversion {conversion:.2} < 0.8 \
             (degraded_push={degraded_push}, cancelled={cancelled})"
        );
        eprintln!(
            "push anytime smoke OK: degraded_push={degraded_push} cancelled={cancelled} \
             degraded_walk={degraded_walk} full_accuracy={full_accuracy} conversion={conversion:.2}"
        );
    }

    PushAnytimeReport {
        name: id.name().to_string(),
        queries: n,
        t: knobs.t,
        delta: knobs.delta.expect("push-heavy knobs pin delta"),
        push_full_us,
        deadline_us,
        degraded_push,
        degraded_walk,
        cancelled,
        full_accuracy,
        shed,
        conversion,
        per_push_tier: tier_lat
            .into_iter()
            .map(|(tiers_completed, us)| TierLatencyRow {
                tiers_completed,
                lat: summarize(us),
            })
            .collect(),
        engine: stats,
    }
}

/// Minimal blocking HTTP/1.1 client over one keep-alive connection.
struct GwClient {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
}

impl GwClient {
    fn connect(addr: std::net::SocketAddr) -> GwClient {
        let stream = std::net::TcpStream::connect(addr).expect("connect gateway");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        GwClient {
            stream,
            buf: Vec::new(),
        }
    }

    /// One request, one framed response (`Content-Length` bodies, which
    /// is all the gateway emits). Surplus bytes stay buffered.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &str,
        body: &str,
    ) -> (u16, String) {
        use std::io::{Read, Write};
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(msg.as_bytes())
            .expect("write request");
        let mut chunk = [0u8; 16 << 10];
        loop {
            if let Some((status, head_end, len)) = frame_response(&self.buf) {
                while self.buf.len() < head_end + len {
                    let n = self.stream.read(&mut chunk).expect("read body");
                    assert!(n > 0, "gateway closed mid-body");
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                let text = String::from_utf8(self.buf[head_end..head_end + len].to_vec())
                    .expect("utf-8 body");
                self.buf.drain(..head_end + len);
                return (status, text);
            }
            let n = self.stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "gateway closed mid-header");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `(status, header_bytes, body_bytes)` once a full response head is
/// buffered.
fn frame_response(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).expect("utf-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status code");
    let body_len = head
        .lines()
        .find_map(|l| {
            let lower = l.to_ascii_lowercase();
            lower
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse::<usize>().expect("content-length"))
        })
        .expect("content-length header");
    Some((status, head_end, body_len))
}

/// Latency-class slot of one wire response: 0 hit, 1 miss, 2 coalesced,
/// 3 degraded, 4 error — the gateway's own metric classes.
fn classify_wire(status: u16, body: &str) -> usize {
    if status != 200 {
        return 4;
    }
    let parsed = hk_gateway::json::parse(body.as_bytes()).expect("gateway response json");
    if !matches!(parsed.get("degraded"), Some(Json::Null)) {
        return 3;
    }
    match parsed.get("outcome").and_then(Json::as_str) {
        Some("hit") => 0,
        Some("coalesced") => 2,
        _ => 1,
    }
}

struct GatewayReport {
    names: Vec<String>,
    queries: usize,
    clients: usize,
    workers: usize,
    conn_workers: usize,
    hit: LatencySummary,
    miss: LatencySummary,
    coalesced: LatencySummary,
    degraded: LatencySummary,
    error: LatencySummary,
    statuses: std::collections::BTreeMap<u16, u64>,
    engine: hk_serve::EngineStats,
    total_s: f64,
}

/// Loopback TCP replay through the HTTP gateway: the same Zipf-routed
/// workload as `--sched`, but spoken over real sockets by client threads
/// with keep-alive connections. `smoke` additionally checks `/healthz`,
/// greps `/metrics` for the mandatory families, and asserts bitwise
/// conformance of over-the-wire batch answers against `run_batch`.
#[allow(clippy::too_many_arguments)]
fn bench_gateway(
    ids: &[DatasetId],
    datasets: &Datasets,
    queries: usize,
    pool: usize,
    zipf_s: f64,
    workers: usize,
    cache_mb: usize,
    smoke: bool,
) -> GatewayReport {
    let me = Arc::new(MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers,
            cache_bytes: cache_mb << 20,
            max_queue: 1024,
            ..EngineConfig::default()
        },
        max_resident_bytes: 0,
        ..MultiEngineConfig::default()
    }));
    let mut seeds_by_graph = Vec::new();
    for &id in ids {
        let graph = datasets.load(id); // generates + caches the snapshot
        seeds_by_graph.push(pick_seeds(&graph, pool.min(graph.num_nodes()), 7));
        me.registry().register_path(id.name(), datasets.path(id));
    }
    let config = GatewayConfig {
        conn_workers: 4,
        ..GatewayConfig::default()
    };
    let gw = Gateway::start(Arc::clone(&me), "127.0.0.1:0", config).expect("start gateway");
    let addr = gw.local_addr();

    let graph_zipf = Zipf::new(ids.len(), zipf_s);
    let seed_zipfs: Vec<Zipf> = seeds_by_graph
        .iter()
        .map(|s| Zipf::new(s.len(), zipf_s))
        .collect();
    let clients = 3usize;
    let issued = AtomicUsize::new(0);
    // Latency pools per wire class: hit/miss/coalesced/degraded/error.
    let lat: Mutex<[Vec<f64>; 5]> = Mutex::new(std::array::from_fn(|_| Vec::new()));
    let statuses: Mutex<std::collections::BTreeMap<u16, u64>> =
        Mutex::new(std::collections::BTreeMap::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let ids = &ids;
            let seeds_by_graph = &seeds_by_graph;
            let graph_zipf = &graph_zipf;
            let seed_zipfs = &seed_zipfs;
            let issued = &issued;
            let lat = &lat;
            let statuses = &statuses;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x6A7E ^ c as u64);
                let mut conn = GwClient::connect(addr);
                loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= queries {
                        break;
                    }
                    let g_rank = graph_zipf.sample(&mut rng);
                    let name = ids[g_rank].name();
                    let seeds = &seeds_by_graph[g_rank];
                    let rank = seed_zipfs[g_rank].sample(&mut rng);
                    let body = format!("{{\"seed\": {}, \"rng_seed\": {rank}}}", seeds[rank]);
                    // A sprinkle of near-impossible deadlines exercises
                    // the 408 path and the error latency class.
                    let headers = if i % 16 == 7 {
                        "X-Deadline-Ms: 1\r\n"
                    } else {
                        ""
                    };
                    let q0 = Instant::now();
                    let (status, text) =
                        conn.request("POST", &format!("/query/{name}"), headers, &body);
                    let us = q0.elapsed().as_secs_f64() * 1e6;
                    lat.lock().unwrap()[classify_wire(status, &text)].push(us);
                    *statuses.lock().unwrap().entry(status).or_insert(0) += 1;
                }
            });
        }
    });
    let total_s = t0.elapsed().as_secs_f64();

    if smoke {
        let mut conn = GwClient::connect(addr);
        let (status, text) = conn.request("GET", "/healthz", "", "");
        assert_eq!(status, 200, "healthz: {text}");
        let (status, scrape) = conn.request("GET", "/metrics", "", "");
        assert_eq!(status, 200);
        for family in [
            "hk_engine_completed_total",
            "hk_engine_degraded_total",
            "hk_cache_hits_total",
            "hk_cache_coalesced_total",
            "hk_registry_loads_total",
            "hk_gateway_requests_total",
            "hk_gateway_request_seconds_bucket",
            "hk_gateway_connections_total",
        ] {
            assert!(scrape.contains(family), "metrics scrape lacks {family}");
        }
        // Bitwise conformance over the wire: a batch answer must render
        // to exactly the canonical text of the one-shot run_batch
        // reference (string equality is bit equality — the f64 writer
        // is injective on bits).
        let name = ids[0].name();
        let conf_seeds: Vec<_> = seeds_by_graph[0].iter().take(3).copied().collect();
        let body = format!(
            "{{\"seeds\": [{}], \"rng_seed\": 0}}",
            conf_seeds
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let (status, text) = conn.request("POST", &format!("/batch/{name}"), "", &body);
        assert_eq!(status, 200, "batch: {text}");
        let parsed = hk_gateway::json::parse(text.as_bytes()).expect("batch json");
        let items = parsed.get("items").and_then(Json::as_arr).expect("items");
        let (graph, _) = me.registry().get(name).expect("graph resident");
        let n = graph.num_nodes().max(1);
        let canon = ParamsKey::new(5.0, 0.5, 1.0 / n as f64, 1e-6).canonical();
        let params = HkprParams::builder(&graph)
            .t(canon.0)
            .eps_r(canon.1)
            .delta(canon.2)
            .p_f(canon.3)
            .c(2.5)
            .build()
            .expect("canonical params");
        let reference = run_batch(
            &LocalClusterer::new(&graph),
            Method::TeaPlus,
            &conf_seeds,
            &params,
            0,
            1,
        );
        assert_eq!(items.len(), reference.len());
        for (item, reference) in items.iter().zip(&reference) {
            let wire_text = item.get("result").expect("item result").render();
            let local_text = hk_gateway::wire::canonical_result_text(
                reference.as_ref().expect("reference query"),
            );
            assert_eq!(
                wire_text, local_text,
                "gateway smoke: over-the-wire answer diverged from run_batch on {name}"
            );
        }
        eprintln!(
            "gateway smoke OK: {} wire answers bitwise-identical to run_batch, \
             healthz+metrics served",
            items.len()
        );
    }

    let [hit_us, miss_us, coal_us, degr_us, err_us] = lat.into_inner().unwrap();
    GatewayReport {
        names: ids.iter().map(|id| id.name().to_string()).collect(),
        queries,
        clients,
        workers,
        conn_workers: config.conn_workers,
        hit: summarize(hit_us),
        miss: summarize(miss_us),
        coalesced: summarize(coal_us),
        degraded: summarize(degr_us),
        error: summarize(err_us),
        statuses: statuses.into_inner().unwrap(),
        engine: me.stats(),
        total_s,
    }
}

/// A spawned `hk-shardd` process, killed on drop so a panicking bench
/// cannot leak daemons.
struct ShardProc {
    child: std::process::Child,
    port: u16,
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// Locate the `hk-shardd` binary next to this benchmark's own
/// executable (same cargo target profile).
fn shardd_binary() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current exe");
    let mut dir = exe.parent().expect("exe dir").to_path_buf();
    // Test/criterion executables live one level down in `deps/`.
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join("hk-shardd");
    assert!(
        bin.is_file(),
        "hk-shardd not found at {} — build it first: cargo build --release -p hk-shard",
        bin.display()
    );
    bin
}

fn spawn_shard_fleet(snapshot: &std::path::Path, shards: usize) -> Vec<ShardProc> {
    use std::io::BufRead;
    let bin = shardd_binary();
    (0..shards)
        .map(|i| {
            let mut child = std::process::Command::new(&bin)
                .args([
                    "--snapshot",
                    &snapshot.display().to_string(),
                    "--shard-id",
                    &i.to_string(),
                    "--shards",
                    &shards.to_string(),
                    "--port",
                    "0",
                ])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("spawn hk-shardd");
            let stdout = child.stdout.take().expect("stdout piped");
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .expect("readiness line");
            let port = line
                .trim()
                .strip_prefix("LISTENING ")
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"));
            ShardProc { child, port }
        })
        .collect()
}

struct ShardScaleRow {
    shards: usize,
    replay_s: f64,
    qps: f64,
    speedup_vs_one: f64,
}

struct ShardReport {
    name: String,
    nodes: usize,
    edges: usize,
    queries: usize,
    t: f64,
    walks_total: u64,
    steps_total: u64,
    single_process_s: f64,
    rows: Vec<ShardScaleRow>,
}

/// Sharded-serving scaling curve: fleets of `N ∈ {1, 2, 4}` real
/// `hk-shardd` processes over one committed snapshot, driven by a
/// [`ShardCoordinator`] through the full Begin/Exec/Step/Collect/Finish
/// protocol, frontier-exchange rounds included. The seed batch uses
/// walk-forcing knobs so every query runs a real distributed walk phase;
/// bitwise conformance against the single-process one-owner reference
/// is asserted at every N (the scaling numbers are meaningless if the
/// answers differ, so conformance *is* part of the benchmark).
fn bench_shard(id: DatasetId, datasets: &Datasets, queries: usize, smoke: bool) -> ShardReport {
    const RNG_SEED: u64 = 0x5A4D;
    let graph = datasets.load(id); // generates + caches the snapshot file
    let snapshot = datasets.path(id);
    // Walk-forcing knobs (shared with the shard conformance suite):
    // t = 10 pushes past the hop budget on the committed 3d-grid
    // snapshot, so every seed gets a walk phase with boundary crossings.
    let params = HkprParams::builder(&graph)
        .t(10.0)
        .eps_r(0.5)
        .delta(1e-3)
        .p_f(1e-3)
        .c(2.5)
        .build()
        .expect("shard bench params");
    // Seeds spread across the node range, so different shard counts
    // route them to different owner shards.
    let want = queries.min(if smoke { 6 } else { 24 });
    let n = graph.num_nodes() as u32;
    let mut seeds = Vec::new();
    for k in 0..want as u32 {
        let mut cand = k * n / want as u32;
        while params.validate_seed(cand).is_err() {
            cand = (cand + 1) % n;
        }
        seeds.push(cand);
    }

    // Single-process reference and conformance oracle: the parkable
    // executor under a one-owner partition runs the exact walk order the
    // exchange distributes. Query `i` runs on `RNG_SEED + i`, as in
    // `run_batch`.
    let clusterer = LocalClusterer::new(&graph);
    let mut scratch = QueryScratch::new();
    let t0 = Instant::now();
    let oracle: Vec<ClusterResult> = (0u64..)
        .zip(&seeds)
        .map(|(i, &seed)| {
            clusterer
                .run_tea_plus_one_owner(seed, &params, RNG_SEED + i, &mut scratch)
                .expect("oracle query")
        })
        .collect();
    let single_process_s = t0.elapsed().as_secs_f64();
    let (mut walks_total, mut steps_total) = (0u64, 0u64);
    for r in &oracle {
        walks_total += r.stats.random_walks;
        steps_total += r.stats.walk_steps;
    }
    assert!(
        walks_total > 0,
        "shard bench: every query early-exited; the scaling curve would measure nothing"
    );

    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let fleet = spawn_shard_fleet(&snapshot, shards);
        let addrs: Vec<(&str, u16)> = fleet.iter().map(|s| ("127.0.0.1", s.port)).collect();
        let mut coord = ShardCoordinator::connect(&addrs).expect("shard handshake");
        assert_eq!(coord.fingerprint(), graph.fingerprint());
        let t0 = Instant::now();
        let got = coord
            .run_batch(&seeds, QueryKnobs::from_params(&params), RNG_SEED)
            .expect("sharded batch");
        let replay_s = t0.elapsed().as_secs_f64();
        for (i, (wire, want)) in got.iter().zip(&oracle).enumerate() {
            assert!(
                wire.bitwise_matches(want),
                "shard bench: seed {} diverged from the single-process oracle at N={shards}",
                seeds[i]
            );
        }
        coord.shutdown();
        drop(fleet);
        rows.push(ShardScaleRow {
            shards,
            replay_s,
            qps: seeds.len() as f64 / replay_s,
            speedup_vs_one: 0.0,
        });
    }
    let base = rows[0].replay_s;
    for row in &mut rows {
        row.speedup_vs_one = base / row.replay_s;
    }
    if smoke {
        eprintln!(
            "shard smoke OK: {} queries x N in {{1,2,4}} bitwise-identical to the \
             single-process one-owner reference ({walks_total} walks, {steps_total} steps)",
            seeds.len()
        );
    }
    ShardReport {
        name: id.name().to_string(),
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        queries: seeds.len(),
        t: 10.0,
        walks_total,
        steps_total,
        single_process_s,
        rows,
    }
}

/// Emit the `"shard"` JSON section. `terminal` controls the trailing
/// comma.
fn push_shard_json(json: &mut String, s: &ShardReport, terminal: bool) {
    json.push_str("  \"shard\": {\n");
    json.push_str(&format!("    \"graph\": \"{}\",\n", s.name));
    json.push_str(&format!(
        "    \"nodes\": {}, \"edges\": {},\n",
        s.nodes, s.edges
    ));
    json.push_str(&format!("    \"queries\": {},\n", s.queries));
    json.push_str(&format!("    \"t\": {},\n", s.t));
    json.push_str(&format!(
        "    \"walks_total\": {}, \"walk_steps_total\": {},\n",
        s.walks_total, s.steps_total
    ));
    json.push_str(&format!(
        "    \"single_process_presampled_seconds\": {:.3},\n",
        s.single_process_s
    ));
    json.push_str("    \"conformance\": \"bitwise, asserted at every N\",\n");
    json.push_str("    \"scaling\": [\n");
    for (i, row) in s.rows.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"shards\": {}, \"replay_seconds\": {:.3}, \"throughput_qps\": {:.1}, \"speedup_vs_one\": {:.2} }}{}\n",
            row.shards,
            row.replay_s,
            row.qps,
            row.speedup_vs_one,
            if i + 1 < s.rows.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str(if terminal { "  }\n" } else { "  },\n" });
}

/// Emit the `"gateway"` JSON section. `terminal` controls the trailing
/// comma.
fn push_gateway_json(json: &mut String, g: &GatewayReport, terminal: bool) {
    json.push_str("  \"gateway\": {\n");
    json.push_str(&format!(
        "    \"graphs\": [{}],\n",
        g.names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("    \"queries\": {},\n", g.queries));
    json.push_str(&format!("    \"clients\": {},\n", g.clients));
    json.push_str(&format!("    \"workers\": {},\n", g.workers));
    json.push_str(&format!("    \"conn_workers\": {},\n", g.conn_workers));
    json.push_str(&format!(
        "    \"throughput_qps\": {:.1},\n",
        g.queries as f64 / g.total_s
    ));
    for (label, l) in [
        ("hit_latency", &g.hit),
        ("miss_latency", &g.miss),
        ("coalesced_latency", &g.coalesced),
        ("degraded_latency", &g.degraded),
        ("error_latency", &g.error),
    ] {
        json.push_str(&format!("    \"{label}\": {},\n", latency_json(l)));
    }
    json.push_str(&format!(
        "    \"statuses\": {{ {} }},\n",
        g.statuses
            .iter()
            .map(|(s, n)| format!("\"{s}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "    \"scheduler\": {},\n",
        engine_stats_json(&g.engine)
    ));
    json.push_str(&format!("    \"replay_seconds\": {:.3}\n", g.total_s));
    json.push_str(if terminal { "  }\n" } else { "  },\n" });
}

fn engine_stats_json(e: &hk_serve::EngineStats) -> String {
    format!(
        "{{ \"completed\": {}, \"errors\": {}, \"shed_queued\": {}, \"cancelled_running\": {}, \"degraded\": {}, \"panics\": {}, \"shed_overload\": {}, \"queue_hwm\": {}, \"workers\": {} }}",
        e.completed, e.errors, e.shed_queued, e.cancelled_running, e.degraded, e.panics, e.shed_overload, e.queue_hwm, e.workers
    )
}

fn cache_stats_json(c: &hk_serve::CacheStats) -> String {
    format!(
        "{{ \"hits\": {}, \"misses\": {}, \"insertions\": {}, \"evictions\": {}, \"coalesced\": {}, \"resident_bytes\": {}, \"resident_entries\": {} }}",
        c.hits, c.misses, c.insertions, c.evictions, c.coalesced, c.resident_bytes, c.resident_entries
    )
}

fn per_graph_json(rows: &[PerGraphRow], indent: &str) -> String {
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        let answered = r.hits + r.misses + r.coalesced;
        let hit_rate = if answered > 0 {
            r.hits as f64 / answered as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{indent}{{ \"name\": \"{}\", \"queries\": {answered}, \"hit_rate\": {hit_rate:.4}, \"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"errors\": {}, \"admission_rejections\": {} }}{}\n",
            r.name,
            r.hits,
            r.misses,
            r.coalesced,
            r.errors,
            r.admission_rejections,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out
}

/// Emit the `"sched"` JSON section. `terminal` controls the trailing
/// comma (smoke mode writes only this section).
fn push_sched_json(json: &mut String, s: &SchedReport, graphs: usize, terminal: bool) {
    json.push_str("  \"sched\": {\n");
    json.push_str(&format!(
        "    \"graphs\": [{}],\n",
        s.names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!("    \"queries\": {},\n", s.queries));
    json.push_str(&format!("    \"clients\": {},\n", s.clients));
    json.push_str(&format!("    \"workers\": {},\n", s.workers));
    json.push_str(&format!(
        "    \"serve_threads\": {},\n",
        s.engine.workers + 1
    ));
    json.push_str(&format!(
        "    \"per_graph_pools_equivalent_threads\": {},\n",
        graphs * s.workers
    ));
    json.push_str(&format!("    \"hit_latency\": {},\n", latency_json(&s.hit)));
    json.push_str(&format!(
        "    \"miss_latency\": {},\n",
        latency_json(&s.miss)
    ));
    json.push_str(&format!(
        "    \"coalesced_latency\": {},\n",
        latency_json(&s.coalesced)
    ));
    json.push_str(&format!(
        "    \"scheduler\": {},\n",
        engine_stats_json(&s.engine)
    ));
    json.push_str(&format!(
        "    \"shared_cache\": {},\n",
        cache_stats_json(&s.engine.cache)
    ));
    json.push_str("    \"per_graph\": [\n");
    json.push_str(&per_graph_json(&s.per_graph, "      "));
    json.push_str("    ],\n");
    json.push_str(&format!("    \"replay_seconds\": {:.3}\n", s.total_s));
    json.push_str(if terminal { "  }\n" } else { "  },\n" });
}

/// Emit the `"anytime"` JSON section. `terminal` controls the trailing
/// comma.
fn push_anytime_json(json: &mut String, a: &AnytimeReport, terminal: bool) {
    json.push_str("  \"anytime\": {\n");
    json.push_str(&format!("    \"graph\": \"{}\",\n", a.name));
    json.push_str(&format!("    \"queries\": {},\n", a.queries));
    json.push_str(&format!("    \"max_walks\": {},\n", a.max_walks));
    json.push_str(&format!("    \"full_query_us\": {:.1},\n", a.full_us));
    json.push_str(&format!("    \"deadline_us\": {},\n", a.deadline_us));
    json.push_str(&format!(
        "    \"outcomes\": {{ \"degraded\": {}, \"cancelled\": {}, \"full_accuracy\": {}, \"shed_queued\": {} }},\n",
        a.degraded, a.cancelled, a.full_accuracy, a.shed
    ));
    json.push_str(&format!("    \"degraded_rate\": {:.4},\n", a.degraded_rate));
    json.push_str("    \"per_tier_latency\": [\n");
    for (i, row) in a.per_tier.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"tiers_completed\": {}, \"latency\": {} }}{}\n",
            row.tiers_completed,
            latency_json(&row.lat),
            if i + 1 < a.per_tier.len() { "," } else { "" }
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"scheduler\": {},\n",
        engine_stats_json(&a.engine)
    ));
    let p = &a.push;
    json.push_str("    \"push\": {\n");
    json.push_str(&format!("      \"graph\": \"{}\",\n", p.name));
    json.push_str(&format!("      \"queries\": {},\n", p.queries));
    json.push_str(&format!("      \"t\": {},\n", p.t));
    json.push_str(&format!("      \"delta\": {:e},\n", p.delta));
    json.push_str(&format!("      \"push_full_us\": {:.1},\n", p.push_full_us));
    json.push_str(&format!("      \"deadline_us\": {},\n", p.deadline_us));
    json.push_str(&format!(
        "      \"outcomes\": {{ \"degraded_push\": {}, \"degraded_walk\": {}, \"cancelled\": {}, \"full_accuracy\": {}, \"shed_queued\": {} }},\n",
        p.degraded_push, p.degraded_walk, p.cancelled, p.full_accuracy, p.shed
    ));
    json.push_str(&format!("      \"conversion\": {:.4},\n", p.conversion));
    json.push_str("      \"per_push_tier_latency\": [\n");
    for (i, row) in p.per_push_tier.iter().enumerate() {
        json.push_str(&format!(
            "        {{ \"push_tiers_completed\": {}, \"latency\": {} }}{}\n",
            row.tiers_completed,
            latency_json(&row.lat),
            if i + 1 < p.per_push_tier.len() {
                ","
            } else {
                ""
            }
        ));
    }
    json.push_str("      ],\n");
    json.push_str(&format!(
        "      \"scheduler\": {}\n",
        engine_stats_json(&p.engine)
    ));
    json.push_str("    }\n");
    json.push_str(if terminal { "  }\n" } else { "  },\n" });
}

fn main() {
    let mut out_path = String::from("BENCH_serve.json");
    let mut queries = 2000usize;
    let mut pool = 200usize;
    let mut zipf_s = 1.0f64;
    // One shared pool sized to the host (the scheduler's whole point):
    // total serve threads = workers + 1 watchdog <= cores + 1.
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let mut cache_mb = 32usize;
    let mut dataset_names: Option<String> = None;
    let mut multi = false;
    let mut sched = false;
    let mut anytime = false;
    let mut gateway = false;
    let mut shard = false;
    let mut hubs = false;
    let mut smoke = false;
    let mut budget_mb: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().expect("flag needs a value");
        match a.as_str() {
            "--out" => out_path = val(),
            "--queries" => queries = val().parse().expect("--queries N"),
            "--pool" => pool = val().parse().expect("--pool K"),
            "--zipf" => zipf_s = val().parse().expect("--zipf S"),
            "--workers" => workers = val().parse().expect("--workers N"),
            "--cache-mb" => cache_mb = val().parse().expect("--cache-mb M"),
            "--datasets" => dataset_names = Some(val()),
            "--multi" => multi = true,
            "--sched" => sched = true,
            "--anytime" => anytime = true,
            "--gateway" => gateway = true,
            "--shard" => shard = true,
            "--hubs" => hubs = true,
            "--smoke" => smoke = true,
            "--budget-mb" => budget_mb = Some(val().parse().expect("--budget-mb M")),
            other => panic!("unknown argument {other}"),
        }
    }
    if smoke {
        assert!(
            sched || anytime || gateway || shard || hubs,
            "--smoke is a --sched / --anytime / --gateway / --shard / --hubs modifier"
        );
        queries = queries.min(240);
    }
    // Dataset default, resolved after the whole command line is parsed
    // (flag order must not matter): the multi-graph modes default to the
    // four "small" Table 7 datasets so the registry/scheduler genuinely
    // multiplex — except the CI-sized smoke, which stays on the two
    // committed snapshots.
    let dataset_names = dataset_names.unwrap_or_else(|| {
        if shard && !(multi || sched || anytime || gateway) {
            // The shard scaling curve runs on one snapshot; the 3d-grid
            // is the one whose walk-forcing knobs are calibrated.
            String::from("3d-grid")
        } else if (multi || sched || gateway || hubs) && !smoke {
            String::from("dblp,youtube,plc,3d-grid")
        } else {
            String::from("plc,3d-grid")
        }
    });

    let datasets = Datasets::default_dir(4);
    let ids: Vec<DatasetId> = dataset_names
        .split(',')
        .map(|n| DatasetId::from_name(n.trim()).unwrap_or_else(|| panic!("unknown dataset {n}")))
        .collect();

    let sched_report = sched.then(|| {
        assert!(
            ids.len() >= 2,
            "--sched needs at least two datasets (got {dataset_names})"
        );
        bench_sched(
            &ids, &datasets, queries, pool, zipf_s, workers, cache_mb, smoke,
        )
    });
    let anytime_report = anytime.then(|| bench_anytime(&ids, &datasets, queries, workers, smoke));
    let gateway_report = gateway.then(|| {
        bench_gateway(
            &ids, &datasets, queries, pool, zipf_s, workers, cache_mb, smoke,
        )
    });
    let shard_report = shard.then(|| {
        // The walk-forcing knobs are calibrated to the committed 3d-grid
        // snapshot; prefer it whenever it is in the dataset list.
        let id = ids
            .iter()
            .copied()
            .find(|&id| id == DatasetId::Grid3d)
            .unwrap_or(ids[0]);
        bench_shard(id, &datasets, queries, smoke)
    });
    let hubs_report = hubs.then(|| {
        bench_hubs(
            &ids, &datasets, queries, pool, zipf_s, workers, cache_mb, smoke,
        )
    });
    if smoke {
        // CI mode: the assertions inside bench_sched / bench_anytime /
        // bench_gateway are the product; emit just the sections that ran
        // and exit.
        let mut json = String::from("{\n");
        if let Some(s) = &sched_report {
            push_sched_json(
                &mut json,
                s,
                ids.len(),
                anytime_report.is_none()
                    && gateway_report.is_none()
                    && shard_report.is_none()
                    && hubs_report.is_none(),
            );
        }
        if let Some(a) = &anytime_report {
            push_anytime_json(
                &mut json,
                a,
                gateway_report.is_none() && shard_report.is_none() && hubs_report.is_none(),
            );
        }
        if let Some(g) = &gateway_report {
            push_gateway_json(
                &mut json,
                g,
                shard_report.is_none() && hubs_report.is_none(),
            );
        }
        if let Some(s) = &shard_report {
            push_shard_json(&mut json, s, hubs_report.is_none());
        }
        if let Some(h) = &hubs_report {
            push_hubs_json(&mut json, h, true);
        }
        json.push_str("}\n");
        std::fs::write(&out_path, &json).expect("write smoke json");
        print!("{json}");
        eprintln!("wrote {out_path}");
        return;
    }

    let multi_report = multi.then(|| {
        assert!(
            ids.len() >= 2,
            "--multi needs at least two datasets (got {dataset_names})"
        );
        bench_multi(
            &ids, &datasets, queries, pool, zipf_s, workers, cache_mb, budget_mb,
        )
    });

    let reports: Vec<DatasetReport> = ids
        .iter()
        .map(|&id| bench_dataset(id, &datasets, queries, pool, zipf_s, workers, cache_mb))
        .collect();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"serve_zipf_replay\",\n");
    json.push_str(&format!(
        "  \"workload\": {{ \"queries\": {queries}, \"seed_pool\": {pool}, \"zipf_s\": {zipf_s}, \"workers\": {workers}, \"cache_mb\": {cache_mb} }},\n"
    ));
    if let Some(s) = &sched_report {
        push_sched_json(&mut json, s, ids.len(), false);
    }
    if let Some(a) = &anytime_report {
        push_anytime_json(&mut json, a, false);
    }
    if let Some(g) = &gateway_report {
        push_gateway_json(&mut json, g, false);
    }
    if let Some(s) = &shard_report {
        push_shard_json(&mut json, s, false);
    }
    if let Some(h) = &hubs_report {
        push_hubs_json(&mut json, h, false);
    }
    if let Some(m) = &multi_report {
        json.push_str("  \"multi_graph\": {\n");
        json.push_str(&format!(
            "    \"graphs\": [{}],\n",
            m.names
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        json.push_str(&format!("    \"queries\": {},\n", m.queries));
        json.push_str(&format!(
            "    \"registry_budget_bytes\": {},\n",
            m.budget_bytes
        ));
        // One shared pool: serve threads = workers + the deadline
        // watchdog, vs pools x workers under the pre-scheduler design.
        json.push_str(&format!(
            "    \"serve_threads\": {},\n",
            m.engine.workers + 1
        ));
        json.push_str(&format!(
            "    \"per_graph_pools_equivalent_threads\": {},\n",
            m.names.len() * m.workers
        ));
        json.push_str("    \"per_graph\": [\n");
        json.push_str(&per_graph_json(&m.per_graph, "      "));
        json.push_str("    ],\n");
        json.push_str(&format!(
            "    \"registry\": {{ \"loads\": {}, \"evictions\": {}, \"resident_hits\": {}, \"resident_bytes\": {}, \"resident_graphs\": {} }},\n",
            m.registry.loads,
            m.registry.evictions,
            m.registry.resident_hits,
            m.registry.resident_bytes,
            m.registry.resident_graphs
        ));
        json.push_str(&format!(
            "    \"scheduler\": {},\n",
            engine_stats_json(&m.engine)
        ));
        json.push_str(&format!(
            "    \"shared_cache\": {},\n",
            cache_stats_json(&m.engine.cache)
        ));
        json.push_str(&format!("    \"hit_latency\": {},\n", latency_json(&m.hit)));
        json.push_str(&format!(
            "    \"miss_latency\": {},\n",
            latency_json(&m.miss)
        ));
        json.push_str(&format!(
            "    \"steady_state_throughput_qps\": {:.1},\n",
            m.queries as f64 / m.total_s
        ));
        json.push_str(&format!("    \"replay_seconds\": {:.3}\n", m.total_s));
        json.push_str("  },\n");
    }
    json.push_str("  \"datasets\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        json.push_str(&format!(
            "      \"graph\": {{ \"nodes\": {}, \"edges\": {} }},\n",
            r.nodes, r.edges
        ));
        json.push_str(&format!("      \"hit_rate\": {:.4},\n", r.hit_rate));
        json.push_str(&format!(
            "      \"hit_latency\": {},\n",
            latency_json(&r.hit)
        ));
        json.push_str(&format!(
            "      \"miss_latency\": {},\n",
            latency_json(&r.miss)
        ));
        json.push_str(&format!(
            "      \"miss_phase_p50_us\": {{ \"push\": {:.2}, \"walk\": {:.2}, \"sweep\": {:.2} }},\n",
            r.miss_phases.push_us, r.miss_phases.walk_us, r.miss_phases.sweep_us
        ));
        json.push_str(&format!(
            "      \"steady_state_throughput_qps\": {:.1},\n",
            r.throughput_qps
        ));
        json.push_str(&format!("      \"replay_seconds\": {:.3},\n", r.total_s));
        json.push_str(&format!(
            "      \"shed\": {{ \"queued\": {}, \"cancelled_running\": {}, \"overload\": {} }},\n",
            r.shed_queued, r.cancelled_running, r.shed_overload
        ));
        json.push_str(&format!(
            "      \"cache\": {}\n",
            cache_stats_json(&r.cache)
        ));
        json.push_str(if i + 1 < reports.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
