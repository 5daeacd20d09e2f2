//! Walk-kernel snapshot: times the pure walk phase two ways on a
//! ~100k-edge Holme–Kim graph and writes `BENCH_tea_plus.json`, the
//! kernel-level instrument beside the repo benchmark (`benchmark/`, whose
//! `direct-*` workloads time whole queries on a 1M-node graph).
//!
//! The `walk_kernel` group runs over a fixed TEA+-shaped residue entry
//! set — no push, no sweep, public API only:
//!
//! * `sequential` — Algorithm 2 as printed: one alias sample and one
//!   `k_random_walk` (per-step stop draw) per walk. The 1.00x row;
//! * `lanes`      — the presampled plan (exact Poisson-tail lengths,
//!   Lemire u32 neighbor picks) through the interleaved prefetching lane
//!   kernel, planning included — what every TEA / TEA+ / Monte-Carlo
//!   query runs, on two threads (the caller and one helper) wherever a
//!   core is spare, so its speedup is not a one-thread figure.
//!
//! Each row is the median of `--reps` interleaved passes with the
//! fastest and slowest pass beside it, and speedups compare the fastest
//! passes: this guest drifts by tens of percent between days (and, under
//! a busy co-tenant, between passes), so only rows of one file compare.
//!
//! Usage: `cargo run --release -p hk-bench --bin bench_snapshot --
//! [--out FILE] [--reps N]`

use std::hint::black_box;
use std::time::Instant;

use hk_bench::report::{self, fixed, int, obj, text};
use hk_gateway::json::Json;
use hk_graph::gen::holme_kim;
use hkpr_core::push_plus::{hk_push_plus_ws, PushPlusConfig};
use hkpr_core::walk::{k_random_walk, run_batched_walks, WalkScratch};
use hkpr_core::{AliasTable, AnytimeControls, HkprParams, QueryWorkspace, Reserve};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const NAMES: [&str; 2] = ["sequential", "lanes"];
const WALKS: u64 = 200_000;

/// Time the pure walk phase (no push, no sweep) two ways on a
/// TEA+-shaped residue entry set, `reps` interleaved passes. Returns
/// `(steps_per_walk, ms[variant][pass])`.
fn walk_kernel_snapshot(
    graph: &hk_graph::Graph,
    params: &HkprParams,
    reps: usize,
) -> (f64, [Vec<f64>; 2]) {
    // Residue entries from a real HK-Push+ run — the same shape TEA+
    // hands the walk engine (mixed hops, skewed weights).
    let mut ws = QueryWorkspace::new();
    let cfg = PushPlusConfig {
        hop_cap: params.hop_cap(),
        eps_abs: params.eps_abs(),
        budget: u64::MAX,
    };
    let controls = &mut AnytimeControls::default();
    hk_push_plus_ws(graph, params.poisson(), 0, &cfg, controls, &mut ws);
    let entries: Vec<(u32, u32)> = ws
        .residues()
        .entries()
        .map(|(k, v, _)| (k as u32, v))
        .collect();
    let weights: Vec<f64> = ws.residues().entries().map(|(_, _, r)| r).collect();
    let table = AliasTable::new(&weights);
    let poisson = params.poisson();

    let mut ms: [Vec<f64>; 2] = Default::default();
    let mut sink = Reserve::new();
    let mut scratch = WalkScratch::default();
    let mut steps = 0u64;
    // Pass 0 is an untimed warm-up (it also builds the Poisson length
    // tables); every pass runs the two variants back to back so host
    // noise hits them alike.
    for seed in 1..=1 + reps as u64 {
        let t0 = Instant::now();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..WALKS {
            let (k, u) = entries[table.sample(&mut rng)];
            black_box(k_random_walk(graph, poisson, u, k as usize, &mut rng));
        }
        let t1 = Instant::now();
        sink.begin(graph.num_nodes());
        steps = run_batched_walks(
            graph,
            poisson,
            &entries,
            &table,
            WALKS,
            seed,
            None,
            &mut sink,
            &mut scratch,
        );
        let t2 = Instant::now();
        if seed > 1 {
            for (ms, took) in ms.iter_mut().zip([t1 - t0, t2 - t1]) {
                ms.push(took.as_secs_f64() * 1000.0);
            }
        }
    }
    (steps as f64 / WALKS as f64, ms)
}

fn main() {
    let mut out_path = String::from("BENCH_tea_plus.json");
    // Enough passes that each variant's fastest one found a quiet moment:
    // at 7 the speedups still swung 1.2x–2.2x run to run on a busy guest,
    // at 31 they repeat to ±0.05.
    let mut reps = 31usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a value"),
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            other => panic!("unknown argument {other}"),
        }
    }
    assert!(reps >= 1, "--reps must be at least 1");

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

    let (steps_per_walk, mut ms) = walk_kernel_snapshot(&graph, &params, reps);
    for passes in &mut ms {
        passes.sort_unstable_by(f64::total_cmp);
    }
    let median = |passes: &[f64]| passes[passes.len() / 2];

    let rows = NAMES.iter().zip(&ms).map(|(&name, passes)| {
        obj([
            ("name", text(name)),
            ("median_ms", fixed(median(passes), 4)),
            ("min_ms", fixed(passes[0], 4)),
            ("max_ms", fixed(passes[reps - 1], 4)),
            ("speedup_vs_sequential", fixed(ms[0][0] / passes[0], 2)),
        ])
    });
    report::write(
        &out_path,
        &[
            ("benchmark", text("tea_plus_walk_kernel")),
            ("note", text(report::DRIFT_NOTE)),
            (
                "rows",
                text(
                    "median / min / max of `reps` interleaved passes over one entry set, in ms \
                     per `walks` walks; speedups compare the fastest passes, the reading a \
                     co-tenant disturbed least. sequential = alias sample + k_random_walk per walk \
                     (Algorithm 2), on one thread; lanes = the presampled plan through the lane \
                     kernel's chunk window, planning included, on two threads (the caller and one \
                     helper) wherever a core is spare, as every query's walk phase runs. \
                     Whole-query timings are the repo benchmark's direct-* workloads.",
                ),
            ),
            (
                "graph",
                obj([
                    ("generator", text("holme_kim(20000, 5, 0.5; seed 13)")),
                    ("nodes", int(graph.num_nodes())),
                    ("edges", int(graph.num_edges())),
                ]),
            ),
            (
                "params",
                obj([
                    ("t", Json::Num(params.t())),
                    ("eps_r", Json::Num(params.eps_r())),
                    ("delta", Json::Num(params.delta())),
                    ("p_f", Json::Num(params.p_f())),
                ]),
            ),
            (
                "walk_kernel",
                obj([
                    ("walks", int(WALKS)),
                    ("reps", int(reps)),
                    ("avg_steps_per_walk", fixed(steps_per_walk, 3)),
                    ("variants", Json::Arr(rows.collect())),
                ]),
            ),
        ],
    );
}
