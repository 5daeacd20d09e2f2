//! Perf-trajectory snapshot: times the TEA+ query path variants on a
//! ~100k-edge PLC graph and writes `BENCH_tea_plus.json` so future PRs
//! can compare against a recorded baseline.
//!
//! End-to-end variants:
//!
//! * `hashmap_baseline` — the seed's hash-map implementation
//!   ([`hkpr_core::reference::tea_plus_reference`]) + sweep;
//! * `workspace_fresh`   — dense workspace allocated per query;
//! * `workspace_reuse`   — dense workspace reused across queries
//!   (the serving configuration; acceptance gate is >= 2x the baseline);
//! * `workspace_reuse_parallel4` — reuse + 4-thread batched walk fan-out.
//!
//! Walk-phase variants (`walk_kernel` group; pure walk phase over a
//! fixed TEA+-shaped residue entry set, no push/sweep, public API only):
//!
//! * `sequential` — Algorithm 2 as printed: one alias sample and one
//!   `k_random_walk` (per-step stop draw) per walk. The 1.00x row;
//! * `parkable`   — the presampled plan (exact Poisson-tail lengths,
//!   Lemire u32 neighbor picks) through a one-owner `ExchangeSession`,
//!   one walk at a time, planning included — what a shard runs;
//! * `lanes`      — the same plan through the interleaved prefetching
//!   lane kernel — what a single process runs.
//!
//! Usage: `cargo run --release -p hk-bench --bin bench_snapshot --
//! [--out FILE] [--seeds N] [--reps N]`

use std::hint::black_box;
use std::time::Instant;

use hk_cluster::reference::sweep_estimate_reference;
use hk_cluster::{LocalClusterer, Method, QueryScratch};
use hk_graph::gen::holme_kim;
use hkpr_core::push_plus::{hk_push_plus_ws, PushPlusConfig};
use hkpr_core::reference::tea_plus_reference;
use hkpr_core::tea_plus::TeaPlusOptions;
use hkpr_core::walk::{k_random_walk, run_batched_walks, WalkScratch};
use hkpr_core::workspace::EpochCounter;
use hkpr_core::{AliasTable, ExchangeSession, HkprParams, QueryWorkspace};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One timed query closure (seed node, RNG seed).
type VariantFn<'a> = Box<dyn FnMut(u32, u64) + 'a>;

struct Variant {
    name: &'static str,
    avg_ms: f64,
}

/// Time the pure walk phase (no push, no sweep) three ways on a
/// TEA+-shaped residue entry set, best-of-`reps` interleaved passes.
/// Returns `(nr, steps_per_walk, variants)`.
fn walk_kernel_snapshot(
    graph: &hk_graph::Graph,
    params: &HkprParams,
    reps: usize,
) -> (u64, f64, Vec<Variant>) {
    // Residue entries from a real HK-Push+ run — the same shape TEA+
    // hands the walk engine (mixed hops, skewed weights).
    let mut ws = QueryWorkspace::new();
    let cfg = PushPlusConfig {
        hop_cap: params.hop_cap(),
        eps_abs: params.eps_abs(),
        budget: u64::MAX,
    };
    hk_push_plus_ws(graph, params.poisson(), 0, &cfg, &mut ws);
    let entries: Vec<(u32, u32)> = ws
        .residues()
        .entries()
        .map(|(k, v, _)| (k as u32, v))
        .collect();
    let weights: Vec<f64> = ws.residues().entries().map(|(_, _, r)| r).collect();
    let table = AliasTable::new(&weights);
    let poisson = params.poisson();
    let nr = 200_000u64;

    let names = ["sequential", "parkable", "lanes"];
    let mut best = [f64::INFINITY; 3];
    let mut counts = EpochCounter::new();
    let mut scratch = WalkScratch::default();
    let mut steps = 0u64;
    // Pass 0 is an untimed warm-up (it also builds the Poisson length
    // tables); every pass runs the three variants back to back so host
    // noise hits them alike.
    for seed in 1..=1 + reps.max(1) as u64 {
        let t0 = Instant::now();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..nr {
            let (k, u) = entries[table.sample(&mut rng)];
            black_box(k_random_walk(graph, poisson, u, k as usize, &mut rng));
        }
        let t1 = Instant::now();
        let mut session = ExchangeSession::new(graph, poisson, &entries, &weights, nr, seed)
            .expect("entries come from this graph");
        for chunk in 0..session.num_chunks() {
            session.drive(&mut session.initial_cursor(chunk), |_| true);
        }
        let t2 = Instant::now();
        steps = run_batched_walks(
            graph,
            poisson,
            &entries,
            &table,
            nr,
            seed,
            1,
            None,
            &mut counts,
            &mut scratch,
        );
        let t3 = Instant::now();
        for (best, took) in best.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
            if seed > 1 {
                *best = best.min(took.as_secs_f64() * 1000.0);
            }
        }
    }
    let variants = names
        .iter()
        .zip(best)
        .map(|(&name, avg_ms)| Variant { name, avg_ms })
        .collect();
    (nr, steps as f64 / nr as f64, variants)
}

fn main() {
    let mut out_path = String::from("BENCH_tea_plus.json");
    let mut num_seeds = 20usize;
    let mut reps = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a value"),
            "--seeds" => num_seeds = args.next().and_then(|v| v.parse().ok()).expect("--seeds N"),
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            other => panic!("unknown argument {other}"),
        }
    }

    let mut rng = SmallRng::seed_from_u64(13);
    let graph = holme_kim(20_000, 5, 0.5, &mut rng).unwrap();
    let n = graph.num_nodes() as f64;
    let params = HkprParams::builder(&graph)
        .t(5.0)
        .eps_r(0.5)
        .delta(4.0 / n)
        .p_f(1e-6)
        .build()
        .unwrap();
    let clusterer = LocalClusterer::new(&graph);
    let seeds = hk_bench::pick_seeds(&graph, num_seeds, 3);

    let g = &graph;
    let p = &params;
    let cl = clusterer;
    let mut scratch = QueryScratch::new();
    let mut scratch4 = QueryScratch::with_threads(4);

    // One closure per variant, all running the same seed list.
    let mut runs: Vec<(&'static str, VariantFn)> = vec![
        (
            "hashmap_baseline",
            Box::new(move |s, i| {
                let out = tea_plus_reference(
                    g,
                    p,
                    s,
                    TeaPlusOptions::default(),
                    &mut SmallRng::seed_from_u64(i),
                )
                .unwrap();
                let _ = sweep_estimate_reference(g, &out.estimate);
            }),
        ),
        (
            "workspace_fresh",
            Box::new(move |s, i| {
                let mut fresh = QueryScratch::new();
                let _ = cl.run_in(Method::TeaPlus, s, p, i, &mut fresh).unwrap();
            }),
        ),
        (
            "workspace_reuse",
            Box::new(move |s, i| {
                let _ = cl.run_in(Method::TeaPlus, s, p, i, &mut scratch).unwrap();
            }),
        ),
        (
            "workspace_reuse_parallel4",
            Box::new(move |s, i| {
                let _ = cl.run_in(Method::TeaPlus, s, p, i, &mut scratch4).unwrap();
            }),
        ),
    ];

    // Interleave the variants' timed passes so transient CPU contention
    // on the host hits every variant alike, and take each variant's best
    // pass. One untimed warm-up pass first.
    let mut best = vec![f64::INFINITY; runs.len()];
    for (_, run) in runs.iter_mut() {
        for (i, &s) in seeds.iter().enumerate() {
            run(s, i as u64);
        }
    }
    for rep in 0..reps {
        for (vi, (_, run)) in runs.iter_mut().enumerate() {
            let t0 = Instant::now();
            for (i, &s) in seeds.iter().enumerate() {
                run(s, (rep * seeds.len() + i) as u64);
            }
            let ms = t0.elapsed().as_secs_f64() * 1000.0 / seeds.len() as f64;
            best[vi] = best[vi].min(ms);
        }
    }
    let variants: Vec<Variant> = runs
        .iter()
        .zip(&best)
        .map(|(&(name, _), &avg_ms)| Variant { name, avg_ms })
        .collect();

    let (walk_nr, steps_per_walk, walk_variants) = walk_kernel_snapshot(&graph, &params, reps);

    let baseline = variants[0].avg_ms;
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"tea_plus_end_to_end\",\n");
    json.push_str("  \"graph\": {\n");
    json.push_str("    \"generator\": \"holme_kim(20000, 5, 0.5; seed 13)\",\n");
    json.push_str(&format!("    \"nodes\": {},\n", graph.num_nodes()));
    json.push_str(&format!("    \"edges\": {}\n", graph.num_edges()));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"params\": {{ \"t\": 5.0, \"eps_r\": 0.5, \"delta\": {:.3e}, \"p_f\": 1e-6 }},\n",
        params.delta()
    ));
    json.push_str(&format!("  \"seeds\": {num_seeds},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"variants\": [\n");
    for (i, v) in variants.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"avg_ms_per_query\": {:.4}, \"speedup_vs_baseline\": {:.2} }}{}\n",
            v.name,
            v.avg_ms,
            baseline / v.avg_ms,
            if i + 1 < variants.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"walk_kernel\": {\n");
    json.push_str(&format!("    \"walks\": {walk_nr},\n"));
    json.push_str(&format!(
        "    \"avg_steps_per_walk\": {steps_per_walk:.3},\n"
    ));
    json.push_str(
        "    \"note\": \"sequential = alias sample + k_random_walk per walk (Algorithm 2); it replaced the stepwise row, the batched per-step kernel removed in PR 18. parkable = one-owner ExchangeSession, planning included\",\n",
    );
    json.push_str("    \"variants\": [\n");
    let walk_baseline = walk_variants[0].avg_ms;
    for (i, v) in walk_variants.iter().enumerate() {
        json.push_str(&format!(
            "      {{ \"name\": \"{}\", \"ms_per_{}k_walks\": {:.4}, \"speedup_vs_sequential\": {:.2} }}{}\n",
            v.name,
            walk_nr / 1000,
            v.avg_ms,
            walk_baseline / v.avg_ms,
            if i + 1 < walk_variants.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  }\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
