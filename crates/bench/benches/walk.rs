//! Micro-benchmarks of heat-kernel random walks (Algorithm 2), Poisson
//! length sampling, and the batched walk engine vs the sequential
//! sample-walk-deposit loop it replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hk_graph::gen::holme_kim;
use hkpr_core::push_plus::{hk_push_plus_ws, PushPlusConfig};
use hkpr_core::walk::{fixed_length_walk, k_random_walk, run_batched_walks, WalkScratch};
use hkpr_core::workspace::EpochCounter;
use hkpr_core::{AliasTable, ExchangeSession, PoissonTable, QueryWorkspace};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_walks(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let graph = holme_kim(20_000, 5, 0.4, &mut rng).unwrap();

    let mut group = c.benchmark_group("k_random_walk");
    for t in [5.0, 20.0, 40.0] {
        let poisson = PoissonTable::new(t);
        group.bench_with_input(BenchmarkId::from_parameter(t), &poisson, |b, poisson| {
            let mut rng = SmallRng::seed_from_u64(3);
            b.iter(|| black_box(k_random_walk(&graph, poisson, 0, 0, &mut rng)));
        });
    }
    group.finish();

    let poisson = PoissonTable::new(5.0);
    c.bench_function("poisson_sample_length", |b| {
        let mut rng = SmallRng::seed_from_u64(4);
        b.iter(|| black_box(poisson.sample_length(&mut rng)));
    });

    c.bench_function("fixed_length_walk_t5", |b| {
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| {
            let len = poisson.sample_length(&mut rng);
            black_box(fixed_length_walk(&graph, 0, len, &mut rng))
        });
    });

    // Walk-phase comparison on realistic TEA+ residue entries, 100k walks
    // each: Algorithm 2 as a sequential sample-walk loop, then the
    // presampled plan through its parkable executor (one owner, nothing
    // parks) and through the lane kernel.
    let mut ws = QueryWorkspace::new();
    let cfg = PushPlusConfig {
        hop_cap: 12,
        eps_abs: 1e-5,
        budget: u64::MAX,
    };
    hk_push_plus_ws(&graph, &poisson, 0, &cfg, &mut ws);
    let entries: Vec<(u32, u32)> = ws
        .residues()
        .entries()
        .map(|(k, v, _)| (k as u32, v))
        .collect();
    let weights: Vec<f64> = ws.residues().entries().map(|(_, _, r)| r).collect();
    let table = AliasTable::new(&weights);
    let nr = 100_000u64;

    let mut group = c.benchmark_group("walk_phase_100k");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        let mut rng = SmallRng::seed_from_u64(7);
        b.iter(|| {
            let mut last = 0u32;
            for _ in 0..nr {
                let (k, u) = entries[table.sample(&mut rng)];
                let (end, _) = k_random_walk(&graph, &poisson, u, k as usize, &mut rng);
                last = end;
            }
            black_box(last)
        });
    });
    group.bench_function("parkable", |b| {
        b.iter(|| {
            let mut session =
                ExchangeSession::new(&graph, &poisson, &entries, &weights, nr, 9).unwrap();
            for chunk in 0..session.num_chunks() {
                session.drive(&mut session.initial_cursor(chunk), |_| true);
            }
            black_box(session.steps())
        });
    });
    let mut counts = EpochCounter::new();
    let mut scratch = WalkScratch::default();
    group.bench_function("lanes", |b| {
        b.iter(|| {
            black_box(run_batched_walks(
                &graph,
                &poisson,
                &entries,
                &table,
                nr,
                9,
                1,
                None,
                &mut counts,
                &mut scratch,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_walks);
criterion_main!(benches);
